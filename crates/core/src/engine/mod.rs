//! The execution engine: one policy-driven path from plan to result.
//!
//! The plan is lowered to a task DAG with the same structure the paper's
//! generic PTG executes over PaRSEC (§4):
//!
//! * **dataflow tasks** — `SendA`/`RecvA` (A-tile broadcast across a grid
//!   row), `GenB` (on-demand generation of B tiles on the node that needs
//!   them, in the order the device lanes first read them, each on whichever
//!   pooled worker is free: it shares no lane), `LoadBlock` (a block's C
//!   allocation), `LoadA` (host→device transfers), `Gemm` (the computation:
//!   a *stack* of products — every row of one chunk against one B tile,
//!   which the block's first stack on it brings to the device and its last
//!   one frees — each product one call of the kernel
//!   [`bst_tile::kernel::select_heuristic`] picks for its shape, run by
//!   whichever pooled worker holds the device lane),
//!   `EvictChunk`/`FlushBlock` (device memory recycling and C write-back)
//!   and `ReduceC` (C's fold, on the node that produced it);
//! * **control flow** — a lane runs its tasks in id order, so a device
//!   lane's program is its control flow: `LoadBlock(b+1)` follows
//!   `FlushBlock(b)` (§3.2.2), a chunk's `EvictChunk` precedes the next
//!   chunk's `LoadA`s (§3.2.3), and stacks into one C tile accumulate in
//!   program order. The one control *edge* is B's window: `GenB` of a
//!   lane's n-th B tile waits for the first stack on tile `n −`
//!   [`inspector::GENB_WINDOW`] (one tile computing, one ahead).
//!
//! Every node's tiles live in its private [`bst_runtime::TileStore`]; `A`
//! starts 2D-cyclic-distributed and crosses node boundaries only through
//! explicit `SendA` tasks.
//!
//! A lane is a program, not a thread: one process-wide pool of workers,
//! one per core, serves every lane of every simulated node and of every
//! run, as one PaRSEC context per process serves every taskpool, and runs
//! the order-free `GenB`s between them. A `RecvA` holds no worker: it is an arrival,
//! which the receiving node's progress thread completes when it deposits
//! the tile, as PaRSEC's communication engine activates a task when its
//! remote data lands.
//!
//! Deadlock freedom: a pooled task blocks only on a credit, which the
//! destination's progress thread — outside the pool — returns once it has
//! deposited the frame; every arrival is retired by that thread from a frame
//! a `SendA`, which depends on no task, sent, and the engine's lane rule
//! does the rest.
//!
//! The engine is split by responsibility:
//!
//! * [`inspector`] — **plan → DAG**: materialises the task graph, each
//!   lane's tasks in program order, with the edges that cross lanes.
//!   Data-free, so `bst-sim` replays the *same* lowering it can never
//!   drift from;
//! * [`policies`] — [`policies::ExecOptions`]: the composable
//!   knob surface (tracing, transport shape, faults, retry, compression);
//! * `memory` — the per-GPU `MemoryManager`: residency, eviction, OOM, and
//!   occupancy sampling behind one interface;
//! * `handlers` — the task bodies (`GenB`/`SendA`/`Gemm`/loads/evictions,
//!   and C's path out: flush → in-place fold → the assembly, each rank's
//!   share staying on the rank that folded it)
//!   plus kernel dispatch and fault injection;
//! * [`report`] — [`report::ExecReport`], recovery statistics,
//!   and the trace-invariant checker.
//!
//! [`execute`] and [`execute_rank`] are the plan-level entry points — for
//! callers that already hold a [`ProblemSpec`] and an [`ExecutionPlan`];
//! callers starting from operands use [`crate::einsum::Einsum`]. Both, and
//! the contraction service, are thin over the crate-private `run`, the
//! **only** execution path: faults on/off, retry budgets — every
//! combination is a policy selection on the `bst-runtime`
//! [`bst_runtime::engine::Engine`], not a separate code path. The engine
//! records every task's span on every run; tracing only decides whether the
//! report carries them.

pub mod inspector;
pub mod policies;
pub mod report;

mod handlers;
mod memory;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bst_runtime::comm::{CommConfig, CommFabric, RemoteLink, Wire};
use bst_runtime::device::NodeResidency;
use bst_runtime::engine::Engine;
use bst_runtime::data::DataKey;
use bst_runtime::graph::{TaskId, WorkerId};
use bst_runtime::trace::{aggregate_by_kind, TaskRecord, TraceClock};
use bst_runtime::TileStore;
use bst_sparse::BlockSparseMatrix;
use bst_tile::kernel::KernelKind;
use bst_tile::pool::{CReserve, TilePool};
use bst_tile::Tile;
use parking_lot::Mutex;

use crate::error::{ExecError, GenError};
use crate::fault::FaultPlan;
use crate::plan::ExecutionPlan;
use crate::spec::ProblemSpec;

use handlers::{Counters, HandlerEnv};
use inspector::{owner_of, Op};
use memory::{Ctx, MemoryManager};
use policies::ExecOptions;
use report::{DeviceMemLog, ExecReport, ExecTraceData, RecoveryStats};

/// Generator of `B` tiles:
/// `(tile_row k, tile_col j, rows, cols, node pool) -> Result<Arc<Tile>, GenError>`.
///
/// The generator receives the executing node's [`TilePool`] so it can build
/// the tile into a recycled buffer (`pool.random(rows, cols, seed)` /
/// `pool.take_with`): the smallest released buffer whose capacity is within
/// 2× of the tile's length, so the buffers of B tiles whose last stack ran
/// serve the next ones even when no two tiles share a length. Generators
/// that don't care may ignore the pool and allocate normally. A failure is reported as a [`GenError`] instead of a panic: the
/// executor retries the generating task when
/// [`GenError::is_transient`] holds (within
/// [`ExecOptions::retry`](policies::ExecOptions::retry)'s budget)
/// and aborts the execution with a typed error otherwise.
pub type BGen<'a> =
    &'a (dyn Fn(usize, usize, usize, usize, &TilePool) -> Result<Arc<Tile>, GenError> + Sync);

/// Persistent per-node B-tile caches handed in by a long-lived caller (the
/// contraction service). `ident` namespaces this request's operand inside
/// the shared caches, so two different B structures sharing a budget can
/// never alias each other's tiles.
pub(crate) struct BCaches<'a> {
    /// One cache per simulated node, indexed by node id.
    pub caches: &'a [Arc<bst_runtime::BTileCache>],
    /// Operand identity mixed into every cache key.
    pub ident: u64,
}

/// Executes `plan` numerically under `opts`: `A` given as a block-sparse
/// matrix (conceptually pre-distributed 2D-cyclically), `B` generated on
/// demand by `b_gen` on the node that needs each tile. Returns the result
/// `C` and an execution report, or a typed [`ExecError`] when the execution
/// fails beyond recovery (device OOM, a permanent generator failure, or a
/// retry budget spent on a transient one).
pub fn execute(
    spec: &ProblemSpec,
    plan: &ExecutionPlan,
    a: &BlockSparseMatrix,
    b_gen: BGen<'_>,
    opts: ExecOptions,
) -> Result<(BlockSparseMatrix, ExecReport), ExecError> {
    run(spec, plan, a, b_gen, opts, None, None)
}

/// [`execute`] as **one rank of a multi-process run**: this process
/// executes only node `rank`'s tasks of the plan; frames for other ranks
/// leave over `wire` and inbound frames are pumped back in (the `bst-net`
/// socket transports implement [`Wire`]).
///
/// Every participating process must call this with the same spec, plan,
/// `a` and options (SPMD — each seeds only its own 2D-cyclic A slice).
/// Each rank returns its own share of `C` — the tiles its node folded —
/// plus its local execution report. Every C key is produced on exactly one
/// node, so the shares are disjoint and their union is `C`; no C tile
/// crosses between ranks.
///
/// A `rank` outside the plan's `p × q` grid is rejected with
/// [`ExecError::InvalidRank`].
pub fn execute_rank(
    spec: &ProblemSpec,
    plan: &ExecutionPlan,
    a: &BlockSparseMatrix,
    b_gen: BGen<'_>,
    opts: ExecOptions,
    rank: usize,
    wire: Arc<dyn Wire>,
) -> Result<(BlockSparseMatrix, ExecReport), ExecError> {
    let ranks = plan.config.grid.p * plan.config.grid.q;
    if rank >= ranks {
        return Err(ExecError::InvalidRank { rank, ranks });
    }
    run(spec, plan, a, b_gen, opts, None, Some(RemoteLink { rank, wire }))
}

/// The single engine path [`execute`], [`execute_rank`] and the contraction
/// service funnel into.
///
/// With `remote: Some(link)`, the engine runs **SPMD over processes**: it
/// lowers the full plan, restricts the DAG to `link.rank`'s tasks, seeds
/// only that rank's A slice, and plugs `link.wire` into the fabric so
/// frames for other ranks leave the process (and inbound frames are pumped
/// back in).
pub(crate) fn run(
    spec: &ProblemSpec,
    plan: &ExecutionPlan,
    a: &BlockSparseMatrix,
    b_gen: BGen<'_>,
    opts: ExecOptions,
    b_caches: Option<BCaches<'_>>,
    remote: Option<RemoteLink>,
) -> Result<(BlockSparseMatrix, ExecReport), ExecError> {
    // ---- Degraded re-planning on a permanent node loss -------------------
    // The dead node's B columns move to its surviving row peers; its host
    // memory (and therefore its A slice and the sends of it) survives, only
    // its generators and GPUs are written off.
    let replanned_storage;
    let (plan, replanned_columns, dead_nodes): (&ExecutionPlan, u64, Vec<usize>) =
        match opts.fault_plan.and_then(|f| f.dead_node) {
            Some(dead) => {
                let moved = plan
                    .nodes
                    .get(dead)
                    .map(|n| n.columns.len() as u64)
                    .unwrap_or(0);
                replanned_storage = ExecutionPlan::build_with(spec, plan.config, &[dead])
                    .map_err(ExecError::Replan)?;
                (&replanned_storage, moved, vec![dead])
            }
            None => (plan, 0, Vec::new()),
        };

    let (p, q) = (plan.config.grid.p, plan.config.grid.q);
    let n_nodes = p * q;

    // ---- Inspector: lower the plan to the task DAG -----------------------
    // Multi-process mode lowers the full plan (global sends, consumer
    // refcounts and C key counts), then keeps only this rank's tasks: a
    // `RecvA`'s deposit replaces its dropped `SendA` edge.
    let low = inspector::lower(spec, plan, &opts);
    let low = match &remote {
        Some(link) => low.restrict(link.rank),
        None => low,
    };

    // ---- Pre-seed the owner stores with A --------------------------------
    // A worker process seeds only the slice its own rank owns; every other
    // tile reaches it as a BcastA frame over the wire.
    let stores: Vec<TileStore> = (0..n_nodes).map(TileStore::for_node).collect();
    for (&(i, k), tile) in a.iter_tile_arcs() {
        let t = (i as u32, k as u32);
        let owner = owner_of(p, q, i, k);
        if remote.as_ref().is_some_and(|link| owner != link.rank) {
            continue;
        }
        let consumers = low.a_consumers(owner, t);
        if consumers > 0 {
            // Share the matrix's own Arc — A tiles are immutable for the
            // whole execution, so seeding is reference counting, not a copy.
            // Under a compression tolerance, truncate here instead: every
            // downstream hop (BcastA wire bytes, device loads, GEMMs) then
            // carries the low-rank factors.
            let seeded = if opts.compress_tol > 0.0 {
                match tile.compressed(opts.compress_tol) {
                    Some(lr) => Arc::new(lr),
                    None => Arc::clone(tile),
                }
            } else {
                Arc::clone(tile)
            };
            stores[owner].put(DataKey::A(t.0, t.1), seeded, consumers);
        }
    }

    // ---- Per-node buffer pools --------------------------------------------
    let pools: Vec<TilePool> = (0..n_nodes).map(|_| TilePool::new()).collect();

    // ---- Execute ----------------------------------------------------------
    let registries: Vec<Arc<NodeResidency>> =
        (0..n_nodes).map(|_| Arc::new(NodeResidency::new())).collect();
    let clock = TraceClock::start();

    // The transport: per-node bounded inboxes, one progress thread per node
    // (started beside the engine's pool, below), credit backpressure,
    // optional link shaping and delivery reordering.
    let fabric = CommFabric::with_remote(
        n_nodes,
        CommConfig {
            window: opts.comm_window.max(1),
            intra_window: opts.intra_window.max(1),
            node_size: opts.node_size.max(1),
            shaper: opts.link_shaper,
            intra_shaper: opts.intra_shaper,
            delivery: opts.delivery,
            clock: opts.tracing.then_some(clock),
        },
        remote.clone(),
    );

    let caching = b_caches.is_some();
    let env = HandlerEnv {
        spec,
        plan,
        low: &low,
        b_gen,
        b_caches,
        stores: &stores,
        fabric: &fabric,
        pools: &pools,
        kernel_counts: KernelKind::ALL.iter().map(|_| AtomicU64::new(0)).collect(),
        fault: opts.fault_plan.filter(FaultPlan::is_active),
        compress_tol: opts.compress_tol,
        counters: Counters::default(),
        dev_stats: Mutex::new(Vec::new()),
        mem_log: Mutex::new(DeviceMemLog::new()),
        // Sized up front, here: grown by the flushing lanes instead, the
        // buffers would leave their discarded halves between C's tiles.
        folds: low.reduce.iter().map(|rn| Mutex::new(Vec::with_capacity(rn.partials))).collect(),
        c_tiles: Mutex::new(Vec::with_capacity(low.reduce.iter().map(|rn| rn.keys.len()).sum())),
    };

    let mk_ctx = |w: WorkerId| {
        if w.lane == 0 || w.is_any() {
            Ctx::Cpu // lane 0: SendA/ReduceC; order-free: GenB
        } else {
            Ctx::Gpu(Box::new(MemoryManager::new(
                w.lane - 1,
                plan.config.device.gpu_mem_bytes,
                registries[w.node].clone(),
                opts.tracing.then_some(clock),
            )))
        }
    };
    let handler =
        |op: &Op, w: WorkerId, ctx: &mut Ctx, attempt: u32| env.handle(op, w, ctx, attempt);

    // Each `RecvA` completes when its node's progress thread deposits the
    // tile: the deposit hook retires it.
    let arrivals = low.arrivals();
    let arrival_ids: Vec<TaskId> = arrivals.values().copied().collect();
    let engine = Engine::new().with_clock(clock).with_retry(opts.retry);
    // Progress threads live exactly as long as the engine run: started
    // beside its pool, shut down (completion control frames) once it
    // finished — on the success, the abort *and* the panic path — so
    // in-flight frames always drain and the scope never waits on a thread
    // nobody will stop. A deposit after the run finished retires nothing.
    let run = engine.run_with(&low.graph, &low.workers, &arrival_ids, mk_ctx, handler, |outside| {
        let deposited = |node: usize, key: DataKey| {
            if let Some(&id) = arrivals.get(&(node, key)) {
                outside.retire(id);
            }
        };
        std::thread::scope(|s| {
            fabric.start_with(s, &stores, &deposited);
            // Multi-process mode: the pump thread feeds inbound wire frames
            // into the fabric's inboxes. It exits when the wire's inbound
            // side closes (below, once the run finished — or when the remote
            // side shut the connections down).
            if let Some(link) = &remote {
                let wire = Arc::clone(&link.wire);
                let pump_fabric = &fabric;
                std::thread::Builder::new()
                    .name(format!("n{}.pump", link.rank))
                    .spawn_scoped(s, move || {
                        while let Some(frame) = wire.recv() {
                            pump_fabric.inject(frame);
                        }
                    })
                    .expect("spawn the pump thread");
            }
            outside.wait_finished();
            fabric.shutdown();
            if let Some(link) = &remote {
                // Nothing more addressed to this rank is consumed: unblock
                // the pump so the scope can join.
                link.wire.close_inbound();
            }
        });
    });
    let run = match run {
        Ok(run) => run,
        Err(abort) => {
            // The abort carries the first failing task; exhausted budgets
            // get the retry context attached, fatal errors pass through.
            let detail = low.graph.payload(abort.task).detail(&low.stack_rows);
            return Err(if abort.budget_exhausted {
                ExecError::RetryExhausted {
                    detail,
                    attempts: abort.attempts,
                    cause: abort.error.to_string(),
                }
            } else {
                abort.error
            });
        }
    };

    // The spans with each task's op, lane and attempts: no label is
    // formatted until the trace is exported.
    let (metrics, trace_data) = if opts.tracing {
        let records: Vec<TaskRecord> = (0..low.graph.len())
            .map(|id| TaskRecord {
                task: id,
                kind: low.graph.payload(id).kind(),
                worker: low.graph.worker(id),
                span: run.trace.spans[id],
                attempts: run.attempts[id],
            })
            .collect();
        let metrics = aggregate_by_kind(&records);
        let mut mem_samples = env.mem_log.into_inner();
        mem_samples.sort_by_key(|(k, _)| *k);
        let trace = ExecTraceData {
            records,
            ops: (0..low.graph.len()).map(|id| low.graph.payload(id).clone()).collect(),
            stack_rows: Arc::clone(&low.stack_rows),
            mem_samples,
            comm_events: fabric.take_events(),
            total_ns: run.trace.total_ns,
        };
        (metrics, Some(trace))
    } else {
        (Vec::new(), None)
    };
    let c = &env.counters;
    let recovery = RecoveryStats {
        injected_genb: c.injected_genb.load(Ordering::Relaxed),
        injected_alloc: c.injected_alloc.load(Ordering::Relaxed),
        injected_send: c.injected_send.load(Ordering::Relaxed),
        stalls: c.stalls.load(Ordering::Relaxed),
        retried_tasks: run.retried_tasks(),
        retry_attempts: run.failed_attempts(),
        max_attempts: run.max_attempts(),
        replanned_columns,
        dead_nodes,
    };

    // ---- Assemble the result ----------------------------------------------
    // Every rank's ReduceC left its folded tiles, one per C key it produced,
    // each with its norm (only this rank's, in a multi-process run): insert
    // each into the result by key. The C reserve may keep as many bytes as
    // this C holds once the caller drops it, for the next contraction's C,
    // and frees what it holds of capacities this C did not ask for.
    let c_tiles = env.c_tiles.into_inner();
    let c_bytes: u64 = c_tiles.iter().map(|part| part.tile.stored_bytes()).sum();
    CReserve::global().assembled(c_bytes as usize);
    let mut out = BlockSparseMatrix::zeros(spec.a.row_tiling().clone(), spec.b.col_tiling().clone());
    for part in c_tiles {
        let norm = part.norm.expect("ReduceC computes every norm");
        out.insert_tile_arc_with_norm(part.i, part.j, Arc::new(part.tile), norm);
    }
    let mut devices = env.dev_stats.into_inner();
    devices.sort_by_key(|(k, _)| *k);
    let gemm_kernel_counts: Vec<(&'static str, u64)> = KernelKind::ALL
        .iter()
        .zip(&env.kernel_counts)
        .map(|(kind, n)| (kind.name(), n.load(Ordering::Relaxed)))
        .filter(|&(_, n)| n > 0)
        .collect();
    Ok((
        out,
        ExecReport {
            devices,
            a_network_bytes: c.a_net.load(Ordering::Relaxed),
            a_network_inter_bytes: c.a_net_inter.load(Ordering::Relaxed),
            a_messages: c.a_msgs.load(Ordering::Relaxed),
            gemm_tasks: c.gemms.load(Ordering::Relaxed),
            b_tiles_generated: c.bgens.load(Ordering::Relaxed),
            gemm_kernel_counts,
            pool_stats: pools.iter().map(TilePool::stats).collect(),
            comm: fabric.node_stats(),
            host_peak_bytes: stores.iter().map(TileStore::peak_bytes).collect(),
            metrics,
            recovery,
            b_cache: caching.then(|| report::BCacheRunStats {
                hits: c.b_cache_hits.load(Ordering::Relaxed),
                misses: c.b_cache_misses.load(Ordering::Relaxed),
                bytes_saved: c.b_cache_saved.load(Ordering::Relaxed),
            }),
            trace: trace_data,
        },
    ))
}
