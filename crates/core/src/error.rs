//! Typed errors for the fallible execution API.
//!
//! The public entry points ([`Einsum`](crate::einsum::Einsum), the
//! contraction service) and the executor
//! ([`engine::execute`](crate::engine::execute)) return `Result` instead of
//! panicking: anomalies that a distributed deployment must
//! survive — a generator backend failing, device memory exhausted, a
//! transfer dropped — surface as values the caller can match on.
//! [`BstError`] is the union the API surface exposes; [`GenError`] is what a
//! [`BGen`](crate::engine::BGen) callback reports; [`ExecError`] is what the
//! executor reports after its retry budget is spent.

use crate::config::PlanError;
use crate::fault::FaultSite;
use std::fmt;

/// Failure of an on-demand `B` tile generator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GenError {
    /// A deterministic injected fault (testing/fault drills).
    Injected {
        /// Block-row of the requested tile.
        k: usize,
        /// Block-column of the requested tile.
        j: usize,
        /// Which attempt failed (1-based).
        attempt: u32,
    },
    /// The generator's backing store has no tile where the structure says
    /// one exists.
    MissingTile {
        /// Block-row of the requested tile.
        k: usize,
        /// Block-column of the requested tile.
        j: usize,
    },
    /// The generator produced a tile of the wrong shape.
    WrongShape {
        /// Block-row of the requested tile.
        k: usize,
        /// Block-column of the requested tile.
        j: usize,
        /// Shape produced, `(rows, cols)`.
        got: (usize, usize),
        /// Shape required, `(rows, cols)`.
        want: (usize, usize),
    },
    /// Any other generator failure.
    Failed {
        /// Block-row of the requested tile.
        k: usize,
        /// Block-column of the requested tile.
        j: usize,
        /// Human-readable cause.
        reason: String,
        /// Whether a retry could plausibly succeed.
        transient: bool,
    },
}

impl GenError {
    /// Whether the executor should retry the generating task.
    pub fn is_transient(&self) -> bool {
        match self {
            GenError::Injected { .. } => true,
            GenError::MissingTile { .. } | GenError::WrongShape { .. } => false,
            GenError::Failed { transient, .. } => *transient,
        }
    }
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::Injected { k, j, attempt } => {
                write!(f, "injected GenB fault at B({k},{j}), attempt {attempt}")
            }
            GenError::MissingTile { k, j } => {
                write!(f, "structure marks B({k},{j}) non-zero but no tile is present")
            }
            GenError::WrongShape { k, j, got, want } => write!(
                f,
                "generator produced B({k},{j}) with shape {}x{}, expected {}x{}",
                got.0, got.1, want.0, want.1
            ),
            GenError::Failed { k, j, reason, transient } => {
                let kind = if *transient { "transient" } else { "permanent" };
                write!(f, "{kind} generator failure at B({k},{j}): {reason}")
            }
        }
    }
}

impl std::error::Error for GenError {}

/// Failure of the executor after exhausting its recovery options.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecError {
    /// A deterministic injected fault on a non-GenB site.
    Injected {
        /// The fault site that fired.
        site: FaultSite,
        /// The task's detail string (e.g. `SendA(0,1->2)`).
        detail: String,
        /// Which attempt failed (1-based).
        attempt: u32,
    },
    /// A `B` tile generator failed permanently.
    Gen(GenError),
    /// A device allocation exceeded the simulated GPU's capacity.
    DeviceOom {
        /// Simulated node of the device.
        node: usize,
        /// GPU index within the node.
        gpu: usize,
        /// The failed operation's detail string.
        detail: String,
        /// The underlying load error.
        reason: String,
    },
    /// A task failed on every attempt within the retry budget.
    RetryExhausted {
        /// The failing task's detail string.
        detail: String,
        /// How many attempts were made.
        attempts: u32,
        /// The last attempt's error, rendered.
        cause: String,
    },
    /// Degraded re-planning after a node loss itself failed.
    Replan(PlanError),
    /// A frame could not be shipped to a peer process (multi-process
    /// transports): the peer's connection is gone. Fatal to the run —
    /// recovery happens at the launcher (kill survivors, degraded
    /// re-plan), not inside the engine.
    Wire {
        /// Destination rank of the failed send.
        dst: usize,
        /// The failing task's detail string.
        detail: String,
        /// The underlying wire error, rendered.
        reason: String,
    },
    /// [`engine::execute_rank`](crate::engine::execute_rank) was asked to
    /// run as a rank outside the plan's grid.
    InvalidRank {
        /// The rank the caller asked to execute.
        rank: usize,
        /// Ranks in the plan's `p × q` grid.
        ranks: usize,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Injected { site, detail, attempt } => {
                write!(f, "injected {site:?} fault at {detail}, attempt {attempt}")
            }
            ExecError::Gen(e) => write!(f, "B generation failed: {e}"),
            ExecError::DeviceOom { node, gpu, detail, reason } => write!(
                f,
                "device memory exhausted on node {node} gpu {gpu} during {detail}: {reason}"
            ),
            ExecError::RetryExhausted { detail, attempts, cause } => write!(
                f,
                "task {detail} failed after {attempts} attempts; last error: {cause}"
            ),
            ExecError::Replan(e) => write!(f, "degraded re-planning failed: {e}"),
            ExecError::Wire { dst, detail, reason } => {
                write!(f, "wire send to rank {dst} failed during {detail}: {reason}")
            }
            ExecError::InvalidRank { rank, ranks } => {
                write!(f, "cannot execute as rank {rank}: the plan's grid has {ranks} ranks")
            }
        }
    }
}

impl std::error::Error for ExecError {}

impl From<GenError> for ExecError {
    fn from(e: GenError) -> Self {
        ExecError::Gen(e)
    }
}

/// Failure of the contraction service's request frontend — admission
/// control and request validation, as opposed to planning or execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The bounded request queue was full; the request was not admitted.
    /// Back off and resubmit.
    QueueFull {
        /// The queue's configured capacity.
        capacity: usize,
    },
    /// The service is shutting down (or shut down while the request was
    /// waiting); no further requests are admitted.
    ShuttingDown,
    /// The request failed structural validation before admission (e.g.
    /// mismatched inner tilings or a C shape of the wrong dimensions).
    InvalidRequest(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::QueueFull { capacity } => {
                write!(f, "request queue full (capacity {capacity})")
            }
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::InvalidRequest(why) => write!(f, "invalid request: {why}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Union error of the public block-sparse API surface.
#[derive(Clone, Debug, PartialEq)]
pub enum BstError {
    /// Planning rejected the problem/configuration.
    Plan(PlanError),
    /// Execution failed beyond recovery.
    Exec(ExecError),
    /// The contraction service rejected or lost the request.
    Service(ServiceError),
    /// An einsum spec failed to parse, or its lowering against the bound
    /// operands was rejected.
    Spec(crate::einsum::SpecError),
    /// The multi-process transport or launcher failed (socket errors,
    /// connect timeouts, a worker death past the recovery budget).
    Net(bst_net::NetError),
}

impl fmt::Display for BstError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BstError::Plan(e) => write!(f, "planning failed: {e}"),
            BstError::Exec(e) => write!(f, "execution failed: {e}"),
            BstError::Service(e) => write!(f, "service rejected request: {e}"),
            BstError::Spec(e) => write!(f, "invalid einsum spec: {e}"),
            BstError::Net(e) => write!(f, "multi-process run failed: {e}"),
        }
    }
}

impl std::error::Error for BstError {}

impl From<PlanError> for BstError {
    fn from(e: PlanError) -> Self {
        BstError::Plan(e)
    }
}

impl From<ExecError> for BstError {
    fn from(e: ExecError) -> Self {
        BstError::Exec(e)
    }
}

impl From<GenError> for BstError {
    fn from(e: GenError) -> Self {
        BstError::Exec(ExecError::Gen(e))
    }
}

impl From<ServiceError> for BstError {
    fn from(e: ServiceError) -> Self {
        BstError::Service(e)
    }
}

impl From<crate::einsum::SpecError> for BstError {
    fn from(e: crate::einsum::SpecError) -> Self {
        BstError::Spec(e)
    }
}

impl From<bst_net::NetError> for BstError {
    fn from(e: bst_net::NetError) -> Self {
        BstError::Net(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transience_classification() {
        assert!(GenError::Injected { k: 0, j: 0, attempt: 1 }.is_transient());
        assert!(!GenError::MissingTile { k: 1, j: 2 }.is_transient());
        assert!(!GenError::WrongShape { k: 0, j: 0, got: (1, 2), want: (2, 2) }.is_transient());
        assert!(GenError::Failed {
            k: 0,
            j: 0,
            reason: "timeout".into(),
            transient: true
        }
        .is_transient());
    }

    #[test]
    fn display_and_conversions() {
        let g = GenError::MissingTile { k: 3, j: 4 };
        let e: ExecError = g.clone().into();
        let b: BstError = e.clone().into();
        assert!(format!("{b}").contains("B(3,4)"));
        assert_eq!(b, BstError::Exec(ExecError::Gen(g)));
        let p: BstError = crate::config::PlanError::ColumnTooLarge {
            col: 1,
            bytes: 10,
            budget: 5,
        }
        .into();
        assert!(format!("{p}").starts_with("planning failed"));
    }
}
