//! `bst-net` — real multi-process transport for the bst engine.
//!
//! PR 5/7 gave the engine a faithful *simulation* of a cluster: every
//! "node" is a thread and every inter-node frame a crossbeam message inside
//! one process. This crate makes the processes real. It provides:
//!
//! * [`codec`] — a compact, self-describing binary framing (length-prefixed,
//!   versioned, CRC-checked, hand-rolled — no serde) for every
//!   [`WireFrame`](bst_runtime::comm::WireFrame) and the process-lifecycle
//!   [`Ctl`] vocabulary;
//! * [`socket`] — [`SocketWire`], an implementation of the
//!   [`Wire`](bst_runtime::comm::Wire) seam over TCP or Unix-domain
//!   stream sockets, one full mesh connection per rank pair;
//! * [`worker`] — one rank's session: dial the launcher, join the data
//!   mesh, run the job against this process's private `TileStore`;
//! * [`mod@launch`] — the coordinator: spawn P worker processes, distribute
//!   the job, heartbeat them, gate the result, and on a worker death kill
//!   the survivors and rerun once with the dead rank written off
//!   (the engine's existing degraded re-plan).
//!
//! The design goal is the repo's standing guarantee: a P-process run over
//! sockets is **bit-identical** to the single-process channel transport —
//! the codec ships `f64` bit patterns, the engine's combine order is a pure
//! function of the plan, and delivery reorder is absorbed by the same
//! sort-before-combine machinery the channel transport uses.

#![warn(missing_docs)]

pub mod codec;
pub mod launch;
pub mod socket;
pub mod worker;

pub use codec::{Ctl, CodecError, Msg};
pub use launch::{launch, LaunchConfig, LaunchOutcome, LaunchPhases, WorkerStats};
pub use socket::{SocketWire, Transport};
pub use worker::{worker_session, WorkerConfig};

/// Failure of the multi-process transport or process lifecycle.
#[derive(Clone, Debug, PartialEq)]
pub enum NetError {
    /// A frame failed to decode (corruption, truncation, version skew).
    Codec(CodecError),
    /// A socket operation failed (rendered `std::io::Error`).
    Io(String),
    /// Not every worker connected within the launcher's accept window.
    ConnectTimeout {
        /// Workers expected.
        expected: usize,
        /// Workers that connected in time.
        connected: usize,
    },
    /// A worker process died (connection EOF or missed heartbeats).
    WorkerDied {
        /// The dead worker's rank.
        rank: usize,
    },
    /// A worker process could not be spawned.
    Spawn(String),
    /// A peer violated the connection protocol (wrong message, bad rank).
    Protocol(String),
    /// The job itself failed on a worker (its rendered error).
    Job(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Codec(e) => write!(f, "codec error: {e}"),
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::ConnectTimeout { expected, connected } => write!(
                f,
                "worker connect timeout: {connected}/{expected} workers connected"
            ),
            NetError::WorkerDied { rank } => write!(f, "worker rank {rank} died"),
            NetError::Spawn(e) => write!(f, "failed to spawn worker: {e}"),
            NetError::Protocol(e) => write!(f, "protocol violation: {e}"),
            NetError::Job(e) => write!(f, "job failed on worker: {e}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<CodecError> for NetError {
    fn from(e: CodecError) -> Self {
        NetError::Codec(e)
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e.to_string())
    }
}
