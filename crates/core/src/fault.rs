//! Deterministic fault injection for the simulated runtime.
//!
//! The paper's target platform assumes `GenB` tasks, device allocations and
//! inter-node transfers always succeed; a production deployment cannot. A
//! [`FaultPlan`] describes *where* and *how often* the executor should
//! pretend those operations fail, and does so **deterministically**: every
//! injection decision is a pure hash of `(plan seed, fault site, task
//! identity, attempt number)`, independent of thread timing. Two executions
//! with the same plan therefore inject the identical failure schedule —
//! which is what makes fault-recovery testable (same seed → same injected
//! faults → same retry counts) and what keeps recovered results
//! reproducible.
//!
//! Injection sites (see the engine's task handlers for where each fires):
//!
//! * [`FaultSite::GenB`] — transient on-demand B-tile generation failures
//!   (e.g. an integral-screening backend timing out);
//! * [`FaultSite::Alloc`] — transient device-memory allocation failures on
//!   `LoadBlock` / `LoadA` (memory pressure from a co-tenant);
//! * [`FaultSite::Send`] — dropped `SendA` transfers: the message is
//!   charged as sent and then dropped *in flight* by the comm fabric, so
//!   the destination never sees it and the retry re-sends it with a higher
//!   epoch;
//! * [`FaultSite::Stall`] — lane stalls: the worker sleeps for
//!   [`FaultPlan::stall_us`] before running the task (OS preemption, a slow
//!   NIC), which perturbs the schedule without failing anything.
//!
//! Failures are injected *at handler entry*, before the handler has any
//! side effects, so a retried attempt re-runs from a clean slate and
//! recovery is idempotent by construction. The one exception is
//! [`FaultSite::Send`], which fires inside the transport's send path — a
//! dropped frame *is* a side effect on the network — but delivery is
//! idempotent at the receiver (duplicate messages are suppressed), so the
//! retry is still safe.

use std::time::Duration;

/// Where a fault can be injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// On-demand `B` tile generation.
    GenB,
    /// Device-memory allocation (`LoadBlock` B/C loads, `LoadA` transfers).
    Alloc,
    /// The `SendA` inter-node transfer.
    Send,
    /// A lane stall (delay, not failure).
    Stall,
}

impl FaultSite {
    fn tag(self) -> u64 {
        match self {
            FaultSite::GenB => 0x47,
            FaultSite::Alloc => 0x41,
            FaultSite::Send => 0x53,
            FaultSite::Stall => 0x5A,
        }
    }
}

/// SplitMix64 finalizer — the same mixing the tile seeds use; full-avalanche
/// so consecutive task ids decorrelate.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded, deterministic fault-injection schedule.
///
/// Rates are probabilities in `[0, 1]` applied per *site instance* (per
/// task), not per attempt: a site either fails its first
/// `1..=max_consecutive` attempts (how many is again hash-derived) and then
/// succeeds, or never fails. With `retry` budgets above
/// [`FaultPlan::max_consecutive`] the executor is guaranteed to recover
/// from every transient injection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed of the injection schedule; same seed → same schedule.
    pub seed: u64,
    /// Probability that a `GenB` task fails transiently.
    pub genb_rate: f64,
    /// Probability that a device allocation (`LoadBlock`/`LoadA`) fails
    /// transiently.
    pub alloc_rate: f64,
    /// Probability that a `SendA` transfer is dropped.
    pub send_rate: f64,
    /// Probability that a task's lane stalls before running it.
    pub stall_rate: f64,
    /// Stall duration in microseconds.
    pub stall_us: u64,
    /// Upper bound on consecutive injected failures of one site (≥ 1; 0 is
    /// treated as 1). Keep this *below* the executor's retry budget or
    /// injected faults become permanent.
    pub max_consecutive: u32,
    /// A node whose accelerators/generators are considered permanently
    /// failed: the executor re-plans its B columns onto the surviving nodes
    /// of its grid row before executing (graceful degradation). The node's
    /// host memory survives, so it still serves its slice of `A`.
    pub dead_node: Option<usize>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            genb_rate: 0.0,
            alloc_rate: 0.0,
            send_rate: 0.0,
            stall_rate: 0.0,
            stall_us: 20,
            max_consecutive: 2,
            dead_node: None,
        }
    }
}

impl FaultPlan {
    /// A transient-fault plan: `rate` on the GenB/alloc/transfer sites,
    /// half that rate of short (20 µs) lane stalls, at most 2 consecutive
    /// failures per site — recoverable under the default retry budget.
    pub fn transient(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            genb_rate: rate,
            alloc_rate: rate,
            send_rate: rate,
            stall_rate: rate / 2.0,
            ..Self::default()
        }
    }

    /// This plan with `node` marked permanently failed (see
    /// [`FaultPlan::dead_node`]).
    pub fn with_dead_node(mut self, node: usize) -> Self {
        self.dead_node = Some(node);
        self
    }

    /// Whether this plan declares a permanent node loss — executions under
    /// it re-plan around the dead node, so results (and cached plans) from a
    /// degraded run must not be conflated with healthy ones.
    pub fn is_degraded(&self) -> bool {
        self.dead_node.is_some()
    }

    /// Whether any injection (failure or stall) can ever fire.
    pub fn is_active(&self) -> bool {
        self.genb_rate > 0.0
            || self.alloc_rate > 0.0
            || self.send_rate > 0.0
            || self.stall_rate > 0.0
            || self.dead_node.is_some()
    }

    /// The site's uniform draw in `[0, 1)` for identity `key` — pure in
    /// `(seed, site, key)`.
    fn draw(&self, site: FaultSite, key: u64) -> u64 {
        mix(self.seed ^ mix(key.wrapping_add(site.tag() << 56)))
    }

    /// Whether attempt number `attempt` (1-based) of site instance `key`
    /// fails. Deterministic: depends only on `(seed, site, key, attempt)`.
    pub fn injects(&self, site: FaultSite, key: u64, attempt: u32) -> bool {
        let rate = match site {
            FaultSite::GenB => self.genb_rate,
            FaultSite::Alloc => self.alloc_rate,
            FaultSite::Send => self.send_rate,
            FaultSite::Stall => self.stall_rate,
        };
        if rate <= 0.0 {
            return false;
        }
        let h = self.draw(site, key);
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        if u >= rate {
            return false;
        }
        // This site fails its first n attempts, n ∈ 1..=max_consecutive.
        let n = 1 + (mix(h) % u64::from(self.max_consecutive.max(1))) as u32;
        attempt <= n
    }

    /// The stall to apply before the first attempt of task-identity `key`,
    /// if any.
    pub fn stall(&self, key: u64) -> Option<Duration> {
        self.injects(FaultSite::Stall, key, 1)
            .then(|| Duration::from_micros(self.stall_us))
    }

    /// The stable site-instance key of task `op` on worker `w` — the `key`
    /// fed to [`FaultPlan::injects`] / [`FaultPlan::stall`]. Keys identify
    /// the *logical* site (per-node for `GenB`, per-lane for `LoadA`/`Gemm`)
    /// so every attempt of the same task draws the same schedule, which is
    /// what makes prefix-failure injection (and therefore recovery)
    /// deterministic.
    ///
    /// `stack_rows` is the lowering's row table
    /// ([`Lowered::stack_rows`](crate::engine::inspector::Lowered::stack_rows)):
    /// a `Gemm` stack is keyed by its B tile, its first row and its length —
    /// content, not the position of its rows in the table.
    pub fn site_key(
        op: &crate::engine::inspector::Op,
        w: bst_runtime::graph::WorkerId,
        stack_rows: &[u32],
    ) -> u64 {
        use crate::engine::inspector::Op;
        const P: u64 = 0x100_0000_01B3; // FNV-ish odd multiplier
        let fold = |fields: &[u64]| {
            fields
                .iter()
                .fold(0u64, |acc, &f| acc.wrapping_mul(P) ^ f.wrapping_add(1))
        };
        match op {
            Op::SendA { i, k, to } => fold(&[1, u64::from(*i), u64::from(*k), *to as u64]),
            Op::RecvA { i, k, from } => fold(&[8, u64::from(*i), u64::from(*k), *from as u64]),
            Op::GenB { k, j } => fold(&[2, w.node as u64, u64::from(*k), u64::from(*j)]),
            Op::LoadBlock { node, gpu, block } => {
                fold(&[3, *node as u64, *gpu as u64, *block as u64])
            }
            Op::LoadA { i, k } => {
                fold(&[4, w.node as u64, w.lane as u64, u64::from(*i), u64::from(*k)])
            }
            Op::Gemm { k, j, rows } => fold(&[
                5,
                w.node as u64,
                w.lane as u64,
                u64::from(*k),
                u64::from(*j),
                u64::from(stack_rows[rows.start as usize]),
                u64::from(rows.end - rows.start),
            ]),
            Op::EvictChunk {
                node, gpu, block, chunk,
            } => fold(&[6, *node as u64, *gpu as u64, *block as u64, *chunk as u64]),
            Op::FlushBlock { node, gpu, block } => {
                fold(&[7, *node as u64, *gpu as u64, *block as u64])
            }
            Op::ReduceC { node } => fold(&[9, *node as u64]),
        }
    }
}

/// Per-task retry policy of the executor: attempt budget and exponential
/// backoff bounds — the engine-level options, under the name
/// [`ExecOptions::retry`](crate::engine::policies::ExecOptions::retry) uses.
pub use bst_runtime::graph::RetryOptions as RetryPolicy;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rates_never_inject() {
        let fp = FaultPlan::default();
        assert!(!fp.is_active());
        for key in 0..1000 {
            assert!(!fp.injects(FaultSite::GenB, key, 1));
            assert!(fp.stall(key).is_none());
        }
    }

    #[test]
    fn injection_is_deterministic_in_seed() {
        let a = FaultPlan::transient(42, 0.1);
        let b = FaultPlan::transient(42, 0.1);
        for key in 0..500 {
            for attempt in 1..4 {
                assert_eq!(
                    a.injects(FaultSite::Alloc, key, attempt),
                    b.injects(FaultSite::Alloc, key, attempt)
                );
            }
        }
    }

    #[test]
    fn injection_rate_is_roughly_honored() {
        let fp = FaultPlan::transient(7, 0.1);
        let n = 10_000;
        let hits = (0..n)
            .filter(|&key| fp.injects(FaultSite::GenB, key, 1))
            .count();
        let rate = hits as f64 / n as f64;
        assert!((0.07..0.13).contains(&rate), "observed rate {rate}");
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultPlan::transient(1, 0.1);
        let b = FaultPlan::transient(2, 0.1);
        let diff = (0..2000)
            .filter(|&key| {
                a.injects(FaultSite::Send, key, 1) != b.injects(FaultSite::Send, key, 1)
            })
            .count();
        assert!(diff > 0, "seeds 1 and 2 injected identically");
    }

    #[test]
    fn consecutive_failures_are_bounded_then_clear() {
        let fp = FaultPlan::transient(3, 0.5);
        for key in 0..2000 {
            if !fp.injects(FaultSite::GenB, key, 1) {
                continue;
            }
            // Failures are a prefix of the attempt sequence, bounded by
            // max_consecutive; afterwards the site succeeds forever.
            let failing: Vec<u32> = (1..=6)
                .filter(|&a| fp.injects(FaultSite::GenB, key, a))
                .collect();
            assert!(failing.len() <= fp.max_consecutive as usize, "{failing:?}");
            assert_eq!(failing, (1..=failing.len() as u32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn sites_decorrelate() {
        let fp = FaultPlan::transient(9, 0.1);
        let both = (0..5000)
            .filter(|&key| {
                fp.injects(FaultSite::GenB, key, 1) && fp.injects(FaultSite::Alloc, key, 1)
            })
            .count();
        // Independent 10% rates → ~1% joint; 10% joint would mean the
        // sites share draws.
        assert!(both < 150, "sites correlated: {both} joint hits of 5000");
    }

    #[test]
    fn stall_duration_and_builders() {
        let fp = FaultPlan::transient(5, 1.0).with_dead_node(3);
        assert_eq!(fp.dead_node, Some(3));
        assert!(fp.is_active());
        let key = (0..100)
            .find(|&k| fp.stall(k).is_some())
            .expect("stall_rate 0.5 must fire within 100 keys");
        assert_eq!(fp.stall(key), Some(Duration::from_micros(20)));
    }
}
