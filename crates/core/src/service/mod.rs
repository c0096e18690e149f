//! Contraction-as-a-service: a persistent engine frontend.
//!
//! An iterative electronic-structure solver (CCSD, §5 of the paper) calls
//! the same contraction once per sweep: the amplitudes `T` change every
//! iteration, but the integral operand `B = V` and the problem's *block
//! structure* are stationary. The one-shot API re-runs the inspector and
//! regenerates every B tile per call, discarding both on return. The
//! [`ContractionService`] keeps them:
//!
//! * **plan cache** — [`ExecutionPlan`]s keyed by a structure hash of
//!   `(spec structure, PlannerConfig, dead nodes)` ([`hash::plan_key`]),
//!   LRU-bounded by entry count;
//! * **B-tile cache** — generated B tiles stay resident per node in a
//!   byte-budgeted LRU ([`bst_runtime::BTileCache`]), namespaced by
//!   operand identity ([`hash::b_ident`]) so distinct operands sharing the
//!   budget never alias;
//! * **admission control** — a bounded request queue drained by a
//!   fixed-size worker pool; a full queue rejects with the typed
//!   [`ServiceError::QueueFull`] instead of blocking or growing without
//!   bound.
//!
//! **Bit-identity guarantee:** a cache-hit run returns results
//! bit-identical to a cold run. Cached plans are exactly the plans the
//! inspector would rebuild (planning is deterministic in the structure
//! key), cached B tiles are the very `Arc`s the generator produced, and
//! the engine's canonical reduction order makes the accumulation
//! independent of scheduling — so `max|C_warm − C_cold| == 0.0` exactly.
//!
//! Degraded requests (a [`FaultPlan`](crate::fault::FaultPlan) with a
//! `dead_node`) resolve their *base* plan through the cache like everyone
//! else — the engine re-plans internally — but completion of a degraded
//! request invalidates the base entry: the replanned structure must not be
//! conflated with a healthy cached plan on the next request.

pub mod hash;
pub mod plan_cache;

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use bst_runtime::comm::NodeCommStats;
use bst_runtime::{BCacheStats, BTileCache, TilePool};
use bst_sparse::{BlockSparseMatrix, MatrixStructure, SparseShape};
use bst_tile::Tile;

use crate::config::PlannerConfig;
use crate::engine::policies::ExecOptions;
use crate::engine::report::{BCacheRunStats, ExecReport};
use crate::engine::BCaches;
use crate::error::{BstError, GenError, ServiceError};
use crate::plan::ExecutionPlan;
use crate::spec::ProblemSpec;

pub use plan_cache::{PlanCache, PlanCacheStats};

/// An owned, shareable B-tile generator — the service-side analogue of the
/// borrowed [`BGen`](crate::engine::BGen), `Arc`ed so requests can outlive
/// the submitting thread's stack frame.
pub type ServiceBGen = Arc<
    dyn Fn(usize, usize, usize, usize, &TilePool) -> Result<Arc<Tile>, GenError> + Send + Sync,
>;

/// Tuning knobs for a [`ContractionService`].
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Worker threads draining the request queue (max requests in flight).
    pub workers: usize,
    /// Bound on *queued* (admitted, not yet executing) requests; a submit
    /// beyond it fails with [`ServiceError::QueueFull`].
    pub queue_capacity: usize,
    /// Max resident plans in the plan cache (entry count).
    pub plan_cache_capacity: usize,
    /// Per-node byte budget for the persistent B-tile cache.
    pub b_cache_budget_bytes: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_capacity: 8,
            plan_cache_capacity: 32,
            b_cache_budget_bytes: 256 << 20,
        }
    }
}

/// One contraction request: `C = A · B` with `B` generated on demand.
#[derive(Clone)]
pub struct ContractionRequest {
    /// The pre-distributed A operand (shared, immutable).
    pub a: Arc<BlockSparseMatrix>,
    /// The B operand's block structure.
    pub b_structure: MatrixStructure,
    /// On-demand generator of B tiles.
    pub b_gen: ServiceBGen,
    /// Caller-chosen identity of the B *operand* (not the structure): B
    /// tiles are cached under `hash(b_structure) ⊕ b_key`, so callers MUST
    /// use distinct keys for structurally identical operands whose
    /// generators produce different values — and the same key across
    /// requests to share cached tiles.
    pub b_key: u64,
    /// Optional screened result shape.
    pub c_shape: Option<SparseShape>,
    /// Planner configuration (part of the plan-cache key).
    pub config: PlannerConfig,
    /// Execution options (tracing, faults, retry, ...).
    pub opts: ExecOptions,
}

/// Service-side accounting for one completed request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RequestStats {
    /// Whether the execution plan came out of the cache.
    pub plan_cache_hit: bool,
    /// The plan-cache key the request resolved to.
    pub plan_key: u64,
    /// This request's B-cache traffic (hits / misses / bytes saved).
    pub b_cache: BCacheRunStats,
    /// Queue depth observed at admission (before this request enqueued).
    pub queue_depth_at_submit: usize,
}

/// A completed contraction: the result, the engine's report, and the
/// service-side accounting.
pub struct RequestOutcome {
    /// The result matrix `C`.
    pub c: BlockSparseMatrix,
    /// The engine's execution report.
    pub report: ExecReport,
    /// Service-side request accounting.
    pub stats: RequestStats,
}

/// Handle to a submitted, not-yet-finished request.
#[derive(Debug)]
pub struct PendingContraction {
    rx: mpsc::Receiver<Result<RequestOutcome, BstError>>,
}

impl PendingContraction {
    /// Blocks until the request finishes. A disconnect (service shut down
    /// with the request still queued) surfaces as
    /// [`ServiceError::ShuttingDown`].
    pub fn wait(self) -> Result<RequestOutcome, BstError> {
        match self.rx.recv() {
            Ok(result) => result,
            Err(_) => Err(ServiceError::ShuttingDown.into()),
        }
    }
}

struct Job {
    req: ContractionRequest,
    depth_at_submit: usize,
    tx: mpsc::SyncSender<Result<RequestOutcome, BstError>>,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
    depth_highwater: usize,
}

#[derive(Default)]
struct ServiceCounters {
    completed: AtomicU64,
    failed: AtomicU64,
    rejected: AtomicU64,
    in_flight: AtomicUsize,
    in_flight_highwater: AtomicUsize,
}

struct Inner {
    cfg: ServiceConfig,
    queue: Mutex<QueueState>,
    nonempty: Condvar,
    plans: PlanCache,
    /// One persistent B cache per simulated node, grown lazily to the
    /// largest grid any request has used.
    b_caches: Mutex<Vec<Arc<BTileCache>>>,
    counters: ServiceCounters,
    /// Per-node communication totals accumulated across requests.
    comm_totals: Mutex<Vec<NodeCommStats>>,
}

/// Aggregate service counters, snapshot via [`ContractionService::stats`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServiceStats {
    /// Requests that completed successfully.
    pub requests_completed: u64,
    /// Requests admitted but failed in planning/execution.
    pub requests_failed: u64,
    /// Requests rejected at admission (queue full).
    pub requests_rejected: u64,
    /// Plan-cache hits.
    pub plan_hits: u64,
    /// Plan-cache misses.
    pub plan_misses: u64,
    /// Plan-cache invalidations (degraded requests).
    pub plan_invalidations: u64,
    /// B-cache hits summed over nodes.
    pub b_hits: u64,
    /// B-cache misses summed over nodes.
    pub b_misses: u64,
    /// Bytes of B regeneration the cache saved, summed over nodes.
    pub b_bytes_saved: u64,
    /// B-cache evictions summed over nodes.
    pub b_evictions: u64,
    /// Bytes currently resident in the B caches, summed over nodes.
    pub b_current_bytes: u64,
    /// Peak resident B-cache bytes, summed over nodes.
    pub b_peak_bytes: u64,
    /// Highest queue depth observed at any admission.
    pub queue_depth_highwater: usize,
    /// Highest number of concurrently executing requests observed.
    pub in_flight_highwater: usize,
    /// Per-node communication totals across all requests.
    pub comm_totals: Vec<NodeCommStats>,
}

/// A long-lived contraction engine: submit requests from any thread, get
/// [`PendingContraction`] handles back; plans and B tiles persist across
/// requests. See the module docs for the cache-key and bit-identity
/// contracts.
pub struct ContractionService {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl ContractionService {
    /// Starts the service: spawns `cfg.workers` worker threads (at least
    /// one) that block on the request queue.
    pub fn start(cfg: ServiceConfig) -> Self {
        let inner = Arc::new(Inner {
            cfg,
            queue: Mutex::new(QueueState::default()),
            nonempty: Condvar::new(),
            plans: PlanCache::with_capacity(cfg.plan_cache_capacity),
            b_caches: Mutex::new(Vec::new()),
            counters: ServiceCounters::default(),
            comm_totals: Mutex::new(Vec::new()),
        });
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("bst-service-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn service worker")
            })
            .collect();
        ContractionService { inner, workers: Mutex::new(workers) }
    }

    /// Submits a request. Validation and admission happen synchronously:
    /// an `Err` means the request was never admitted ([`ServiceError`]);
    /// `Ok` returns a handle to [`wait`](PendingContraction::wait) on.
    pub fn submit(&self, req: ContractionRequest) -> Result<PendingContraction, BstError> {
        // Validate *before* admission so malformed requests surface as
        // typed errors on the submitting thread, not worker panics.
        if req.a.structure().col_tiling() != req.b_structure.row_tiling() {
            return Err(ServiceError::InvalidRequest(
                "A's column tiling does not match B's row tiling".into(),
            )
            .into());
        }
        if let Some(cs) = &req.c_shape {
            if cs.rows() != req.a.structure().tile_rows()
                || cs.cols() != req.b_structure.tile_cols()
            {
                return Err(ServiceError::InvalidRequest(format!(
                    "c_shape is {}x{} tiles, product is {}x{}",
                    cs.rows(),
                    cs.cols(),
                    req.a.structure().tile_rows(),
                    req.b_structure.tile_cols()
                ))
                .into());
            }
        }
        let (tx, rx) = mpsc::sync_channel(1);
        {
            let mut q = self.inner.queue.lock().unwrap();
            if q.closed {
                return Err(ServiceError::ShuttingDown.into());
            }
            if q.jobs.len() >= self.inner.cfg.queue_capacity {
                self.inner.counters.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServiceError::QueueFull {
                    capacity: self.inner.cfg.queue_capacity,
                }
                .into());
            }
            let depth_at_submit = q.jobs.len();
            q.jobs.push_back(Job { req, depth_at_submit, tx });
            q.depth_highwater = q.depth_highwater.max(q.jobs.len());
        }
        self.inner.nonempty.notify_one();
        Ok(PendingContraction { rx })
    }

    /// Submit-and-wait convenience for sequential callers.
    pub fn run(&self, req: ContractionRequest) -> Result<RequestOutcome, BstError> {
        self.submit(req)?.wait()
    }

    /// Aggregate counter snapshot (caches, admissions, comm totals).
    pub fn stats(&self) -> ServiceStats {
        let plan = self.inner.plans.stats();
        let mut out = ServiceStats {
            requests_completed: self.inner.counters.completed.load(Ordering::Relaxed),
            requests_failed: self.inner.counters.failed.load(Ordering::Relaxed),
            requests_rejected: self.inner.counters.rejected.load(Ordering::Relaxed),
            plan_hits: plan.hits,
            plan_misses: plan.misses,
            plan_invalidations: plan.invalidations,
            queue_depth_highwater: self.inner.queue.lock().unwrap().depth_highwater,
            in_flight_highwater: self
                .inner
                .counters
                .in_flight_highwater
                .load(Ordering::Relaxed),
            comm_totals: self.inner.comm_totals.lock().unwrap().clone(),
            ..ServiceStats::default()
        };
        for cache in self.inner.b_caches.lock().unwrap().iter() {
            let s: BCacheStats = cache.stats();
            out.b_hits += s.hits;
            out.b_misses += s.misses;
            out.b_bytes_saved += s.bytes_saved;
            out.b_evictions += s.evictions;
            out.b_current_bytes += s.current_bytes;
            out.b_peak_bytes += s.peak_bytes;
        }
        out
    }

    /// Closes the queue and joins the workers. Already-admitted requests
    /// are drained and completed; concurrent `submit`s fail with
    /// [`ServiceError::ShuttingDown`]. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        {
            let mut q = self.inner.queue.lock().unwrap();
            q.closed = true;
        }
        self.inner.nonempty.notify_all();
        let workers: Vec<JoinHandle<()>> = std::mem::take(&mut *self.workers.lock().unwrap());
        for w in workers {
            let _ = w.join();
        }
    }
}

impl Drop for ContractionService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut q = inner.queue.lock().unwrap();
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.closed {
                    return;
                }
                q = inner.nonempty.wait(q).unwrap();
            }
        };
        let inflight = inner.counters.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        inner
            .counters
            .in_flight_highwater
            .fetch_max(inflight, Ordering::Relaxed);
        let result = process(inner, job.req, job.depth_at_submit);
        inner.counters.in_flight.fetch_sub(1, Ordering::Relaxed);
        match &result {
            Ok(_) => inner.counters.completed.fetch_add(1, Ordering::Relaxed),
            Err(_) => inner.counters.failed.fetch_add(1, Ordering::Relaxed),
        };
        // A dropped receiver just means the client stopped caring.
        let _ = job.tx.send(result);
    }
}

/// Ensures the per-node cache vector covers `n` nodes and returns a clone
/// of the slice (cheap: `Arc`s).
fn caches_for(inner: &Inner, n: usize) -> Vec<Arc<BTileCache>> {
    let mut caches = inner.b_caches.lock().unwrap();
    while caches.len() < n {
        caches.push(Arc::new(BTileCache::with_budget(
            inner.cfg.b_cache_budget_bytes,
        )));
    }
    caches.clone()
}

fn process(
    inner: &Inner,
    req: ContractionRequest,
    depth_at_submit: usize,
) -> Result<RequestOutcome, BstError> {
    let spec = ProblemSpec::new(
        req.a.structure().clone(),
        req.b_structure.clone(),
        req.c_shape.clone(),
    );
    // Degraded requests still resolve the *base* plan here — the engine
    // replans internally around the dead node — so the cache always holds
    // healthy plans and the key never includes transient fault state.
    let key = hash::plan_key(&spec, &req.config, &[]);
    let (plan, plan_cache_hit) = match inner.plans.get(key) {
        Some(plan) => (plan, true),
        None => {
            let plan = Arc::new(ExecutionPlan::build(&spec, req.config)?);
            inner.plans.insert(key, Arc::clone(&plan));
            (plan, false)
        }
    };

    let caches = caches_for(inner, req.config.grid.nodes());
    let ident = hash::b_ident(&req.b_structure, req.b_key, req.opts.compress_tol);
    let gen = Arc::clone(&req.b_gen);
    let b_gen = move |k: usize, j: usize, r: usize, c: usize, pool: &TilePool| {
        gen(k, j, r, c, pool)
    };
    let degraded = req.opts.fault_plan.is_some_and(|f| f.is_degraded());
    let run = crate::engine::run(
        &spec,
        &plan,
        &req.a,
        &b_gen,
        req.opts,
        Some(BCaches { caches: &caches, ident }),
        None,
    );
    if degraded {
        // The engine executed a replanned structure; the healthy cached
        // entry for this key can no longer be assumed current.
        inner.plans.invalidate(key);
    }
    let (c, report) = run.map_err(BstError::from)?;

    {
        let mut totals = inner.comm_totals.lock().unwrap();
        if totals.len() < report.comm.len() {
            totals.resize(report.comm.len(), NodeCommStats::default());
        }
        for (total, node) in totals.iter_mut().zip(&report.comm) {
            total.merge(node);
        }
    }

    let stats = RequestStats {
        plan_cache_hit,
        plan_key: key,
        b_cache: report.b_cache.unwrap_or_default(),
        queue_depth_at_submit: depth_at_submit,
    };
    Ok(RequestOutcome { c, report, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DeviceConfig, GridConfig};
    use bst_tile::tiling::Tiling;

    fn request(b_key: u64) -> ContractionRequest {
        let t = Tiling::from_sizes(&[8, 8]);
        let a_struct = MatrixStructure::dense(t.clone(), t.clone());
        let a = Arc::new(BlockSparseMatrix::random_from_structure(a_struct, 11));
        let b_structure = MatrixStructure::dense(t.clone(), t);
        let b_gen: ServiceBGen =
            Arc::new(|_, _, r, c, pool: &TilePool| Ok(Arc::new(pool.random(r, c, 99))));
        ContractionRequest {
            a,
            b_structure,
            b_gen,
            b_key,
            c_shape: None,
            config: PlannerConfig::paper(
                GridConfig { p: 1, q: 1 },
                DeviceConfig { gpus_per_node: 1, gpu_mem_bytes: 1 << 20 },
            ),
            opts: ExecOptions::default(),
        }
    }

    #[test]
    fn second_request_hits_both_caches() {
        let service = ContractionService::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let cold = service.run(request(1)).unwrap();
        assert!(!cold.stats.plan_cache_hit);
        assert_eq!(cold.stats.b_cache.hits, 0);
        assert!(cold.stats.b_cache.misses > 0);

        let warm = service.run(request(1)).unwrap();
        assert!(warm.stats.plan_cache_hit);
        assert_eq!(warm.stats.b_cache.misses, 0);
        assert_eq!(warm.stats.b_cache.hits, cold.stats.b_cache.misses);
        assert_eq!(warm.c.max_abs_diff(&cold.c), 0.0, "warm run must be bit-identical");
        service.shutdown();
        let s = service.stats();
        assert_eq!(s.requests_completed, 2);
        assert_eq!(s.plan_hits, 1);
        assert_eq!(s.plan_misses, 1);
    }

    #[test]
    fn invalid_request_is_rejected_before_admission() {
        let service = ContractionService::start(ServiceConfig::default());
        let mut req = request(1);
        req.b_structure = MatrixStructure::dense(
            Tiling::from_sizes(&[5, 5]),
            Tiling::from_sizes(&[8, 8]),
        );
        let err = service.submit(req).unwrap_err();
        assert!(matches!(
            err,
            BstError::Service(ServiceError::InvalidRequest(_))
        ));
        // The bad submit must not poison the service.
        assert!(service.run(request(1)).is_ok());
    }

    #[test]
    fn shutdown_rejects_new_submissions() {
        let service = ContractionService::start(ServiceConfig::default());
        service.shutdown();
        let err = service.submit(request(1)).unwrap_err();
        assert!(matches!(err, BstError::Service(ServiceError::ShuttingDown)));
    }
}
