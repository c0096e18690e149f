//! Task-body handlers: what each [`Op`] does when its turn comes.
//!
//! [`HandlerEnv`] bundles the shared, read-mostly state of one execution —
//! problem, plan, stores, comm fabric, pools, fault plan, counters — and
//! exposes the single fallible entry point
//! [`HandlerEnv::handle`] that the engine drives for every task. Fault
//! injection happens **at handler entry**, before any side effect, so a
//! retried attempt re-runs from a clean slate and recovery is idempotent by
//! construction — except the `Send` site, which fires inside the
//! transport's send path (a dropped frame is a real network side effect);
//! the receiver's idempotent duplicate suppression keeps the retry safe.
//!
//! Ownership discipline: every handler reads tiles only from **its own
//! node's** store (`stores[w.node]`, with the reader declared — a
//! cross-node read panics in debug builds). Data crosses nodes exclusively
//! through [`CommFabric`]: `SendA` puts a tile on the wire, and the
//! destination's progress thread, depositing it, completes the `RecvA` —
//! an arrival task, which no handler runs.
//!
//! C leaves in one pass. `LoadBlock` lends each C tile a buffer from the
//! process's C reserve when one is there
//! ([`bst_tile::pool::TilePool::take_c`]), and its first product
//! zero-fills it. A `FlushBlock` computes the norm of each C tile it evicts
//! and appends the block's partials to its node's fold buffer
//! ([`HandlerEnv::folds`]) under one lock. The node's `ReduceC` folds that
//! buffer in place, recomputing the norm of a tile it changed; the buffers
//! of the partials it folds away go back to the C reserve as they drop.
//! In-process, every rank but the root then hands its folded tiles to the
//! root in one [`CommFabric::gather`], and the root's `ReduceC` adds the
//! gathered tiles to its own for the assembly, which inserts each with its
//! known norm.
//! Across processes no C crosses between ranks: every rank's `ReduceC`
//! hands its own tiles to its own assembly, and its process streams them
//! to the launcher.

use std::sync::atomic::{AtomicU64, Ordering};

use bst_runtime::comm::{CPart, CommFabric, LinkClass, SendError, TileMsg};
use bst_runtime::data::{BCacheKey, DataKey};
use bst_runtime::device::DeviceStats;
use bst_runtime::graph::{TaskError, WorkerId};
use bst_runtime::TileStore;
use bst_tile::kernel::{select_heuristic, KernelKind};
use bst_tile::pool::TilePool;
use parking_lot::Mutex;

use super::inspector::{block_c_tiles, Lowered, Op, REDUCE_ROOT};
use super::memory::Ctx;
use super::report::DeviceMemLog;
use super::BGen;
use crate::error::{ExecError, GenError};
use crate::fault::{FaultPlan, FaultSite};
use crate::plan::ExecutionPlan;
use crate::spec::ProblemSpec;

/// Computes the norm of every tile that does not carry one: a `k`-split
/// key's fold.
fn set_missing_norms(parts: &mut [CPart]) {
    for part in parts.iter_mut().filter(|part| part.norm.is_none()) {
        part.norm = Some(part.tile.frobenius_norm());
    }
}

/// Atomic tallies the handlers bump while the engine runs.
#[derive(Default)]
pub(crate) struct Counters {
    pub a_net: AtomicU64,
    pub a_net_inter: AtomicU64,
    pub a_msgs: AtomicU64,
    pub gemms: AtomicU64,
    pub bgens: AtomicU64,
    pub b_cache_hits: AtomicU64,
    pub b_cache_misses: AtomicU64,
    pub b_cache_saved: AtomicU64,
    pub injected_genb: AtomicU64,
    pub injected_alloc: AtomicU64,
    pub injected_send: AtomicU64,
    pub stalls: AtomicU64,
}

/// The shared environment of one execution's task handlers.
pub(crate) struct HandlerEnv<'a> {
    pub spec: &'a ProblemSpec,
    pub plan: &'a ExecutionPlan,
    pub low: &'a Lowered,
    pub b_gen: BGen<'a>,
    /// Persistent per-node B-tile caches (`None` on the one-shot paths).
    pub b_caches: Option<super::BCaches<'a>>,
    pub stores: &'a [TileStore],
    pub fabric: &'a CommFabric,
    pub pools: &'a [TilePool],
    pub kernel_counts: Vec<AtomicU64>,
    pub fault: Option<FaultPlan>,
    /// Low-rank truncation tolerance ([`ExecOptions::compress_tol`]):
    /// generated B tiles are compressed before caching/storing, and GEMMs
    /// re-compress LR×LR middle products at this tolerance. `0.0` keeps
    /// every path dense and bit-identical.
    ///
    /// [`ExecOptions::compress_tol`]: super::policies::ExecOptions::compress_tol
    pub compress_tol: f64,
    pub counters: Counters,
    /// Per-(node, gpu) device statistics, pushed at each device's last flush.
    pub dev_stats: Mutex<Vec<((usize, usize), DeviceStats)>>,
    /// Per-(node, gpu) occupancy samples (traced runs only).
    pub mem_log: Mutex<DeviceMemLog>,
    /// Per node, the C partials its flushes left for its `ReduceC` to fold.
    pub folds: Vec<Mutex<Vec<CPart>>>,
    /// The C this execution returns, one folded tile per key, each with its
    /// norm, for the final assembly to move into the result: all of C, left
    /// by the root's `ReduceC` — or, across processes, this rank's share,
    /// left by its own `ReduceC`.
    pub c_tiles: Mutex<Vec<CPart>>,
}

impl HandlerEnv<'_> {
    /// Runs one task. This is the engine's only handler — every policy
    /// combination (traced or not, faulted or not) funnels through it.
    pub fn handle(
        &self,
        op: &Op,
        w: WorkerId,
        ctx: &mut Ctx,
        attempt: u32,
    ) -> Result<(), TaskError<ExecError>> {
        let detail = || op.detail(&self.low.stack_rows);
        // ---- Fault injection, at handler entry (before any side effect,
        // so a retried attempt re-runs from a clean slate) ---------------
        if let Some(fp) = &self.fault {
            let key = FaultPlan::site_key(op, w, &self.low.stack_rows);
            if attempt == 1 {
                if let Some(delay) = fp.stall(key) {
                    self.counters.stalls.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(delay);
                }
            }
            match op {
                Op::GenB { k, j } if fp.injects(FaultSite::GenB, key, attempt) => {
                    self.counters.injected_genb.fetch_add(1, Ordering::Relaxed);
                    return Err(TaskError::Transient(ExecError::Gen(GenError::Injected {
                        k: *k as usize,
                        j: *j as usize,
                        attempt,
                    })));
                }
                // Op::SendA's Send site is injected inside the send path
                // below — the drop happens on the wire, not at entry.
                Op::LoadBlock { .. } | Op::LoadA { .. }
                    if fp.injects(FaultSite::Alloc, key, attempt) =>
                {
                    self.counters.injected_alloc.fetch_add(1, Ordering::Relaxed);
                    return Err(TaskError::Transient(ExecError::Injected {
                        site: FaultSite::Alloc,
                        detail: detail(),
                        attempt,
                    }));
                }
                _ => {}
            }
        }
        let oom = |e: &dyn std::fmt::Display| {
            TaskError::Fatal(ExecError::DeviceOom {
                node: w.node,
                gpu: w.lane.saturating_sub(1),
                detail: detail(),
                reason: e.to_string(),
            })
        };
        let (spec, plan, c) = (self.spec, self.plan, &self.counters);
        match (op, ctx) {
            (Op::SendA { i, k, to }, Ctx::Cpu) => {
                let to = *to as usize;
                let key = DataKey::A(*i, *k);
                let tile = self.stores[w.node].get(w.node, key);
                // Count the bytes that actually cross the wire: a low-rank
                // tile ships its factors, not the dense equivalent.
                let bytes = tile.stored_bytes();
                // The destination consumes the tile once per local device
                // load.
                let consumers = self.low.a_consumers(to, (*i, *k));
                let drop_in_flight = self.fault.as_ref().is_some_and(|fp| {
                    fp.injects(FaultSite::Send, FaultPlan::site_key(op, w, &self.low.stack_rows), attempt)
                });
                let msg = TileMsg {
                    key,
                    payload: tile,
                    epoch: attempt,
                    src: w.node,
                    consumers,
                };
                match self.fabric.send_tile(to, msg, drop_in_flight) {
                    Ok(()) => {
                        c.a_net.fetch_add(bytes, Ordering::Relaxed);
                        if self.fabric.topology().link_class(w.node, to) == LinkClass::Inter {
                            c.a_net_inter.fetch_add(bytes, Ordering::Relaxed);
                        }
                        c.a_msgs.fetch_add(1, Ordering::Relaxed);
                        // Only a *delivered* send consumes the local copy:
                        // a dropped message leaves it for the retry.
                        self.stores[w.node].consume(w.node, key);
                        Ok(())
                    }
                    Err(SendError::Dropped) => {
                        self.counters.injected_send.fetch_add(1, Ordering::Relaxed);
                        Err(TaskError::Transient(ExecError::Injected {
                            site: FaultSite::Send,
                            detail: detail(),
                            attempt,
                        }))
                    }
                    // The peer process is gone: retrying into a dead socket
                    // cannot succeed — fail fast so the launcher can run the
                    // degraded re-plan.
                    Err(SendError::Wire(e)) => Err(TaskError::Fatal(ExecError::Wire {
                        dst: e.dst,
                        detail: detail(),
                        reason: e.reason,
                    })),
                }
            }
            (Op::GenB { k, j }, Ctx::Cpu) => {
                // Persistent-cache fast path: a resident tile short-circuits
                // generation entirely. The cached Arc carries the exact
                // bytes the original generation produced, so a warm run is
                // bit-identical to a cold one.
                let cache_key = self.b_caches.as_ref().map(|bc| {
                    (
                        &bc.caches[w.node],
                        BCacheKey { ident: bc.ident, k: *k, j: *j },
                    )
                });
                if let Some((cache, key)) = &cache_key {
                    if let Some(tile) = cache.get(*key) {
                        c.b_cache_hits.fetch_add(1, Ordering::Relaxed);
                        c.b_cache_saved.fetch_add(tile.stored_bytes(), Ordering::Relaxed);
                        self.stores[w.node].put(DataKey::B(*k, *j), tile, 1);
                        return Ok(());
                    }
                }
                // The generator draws its buffer from the node pool: the
                // best-fitting buffer an earlier B tile released, so B's
                // window recycles memory on irregular tilings too.
                let rows = spec.b.row_tiling().size(*k as usize) as usize;
                let cols = spec.b.col_tiling().size(*j as usize) as usize;
                let tile = (self.b_gen)(*k as usize, *j as usize, rows, cols, &self.pools[w.node])
                    .map_err(|e| {
                        if e.is_transient() {
                            TaskError::Transient(ExecError::Gen(e))
                        } else {
                            TaskError::Fatal(ExecError::Gen(e))
                        }
                    })?;
                if (tile.rows(), tile.cols()) != (rows, cols) {
                    return Err(TaskError::Fatal(ExecError::Gen(GenError::WrongShape {
                        k: *k as usize,
                        j: *j as usize,
                        got: (tile.rows(), tile.cols()),
                        want: (rows, cols),
                    })));
                }
                c.bgens.fetch_add(1, Ordering::Relaxed);
                // Rank-revealing truncation at generation time: everything
                // downstream (cache, store, device load, GEMM) sees the
                // compressed representation. `compressed` returns `None`
                // when the factors wouldn't beat dense bytes, so stored
                // sizes only ever shrink.
                let tile = if self.compress_tol > 0.0 {
                    match tile.compressed(self.compress_tol) {
                        Some(lr) => {
                            let lr = std::sync::Arc::new(lr);
                            self.pools[w.node].release_arc(tile);
                            lr
                        }
                        None => tile,
                    }
                } else {
                    tile
                };
                if let Some((cache, key)) = &cache_key {
                    c.b_cache_misses.fetch_add(1, Ordering::Relaxed);
                    cache.insert(*key, std::sync::Arc::clone(&tile));
                }
                self.stores[w.node].put(DataKey::B(*k, *j), tile, 1);
                Ok(())
            }
            (&Op::LoadBlock { node, gpu, block }, Ctx::Gpu(mm)) => {
                let (node, gpu, block) = (node as usize, gpu as usize, block as usize);
                let bp = &plan.nodes[node].gpus[gpu].blocks[block];
                let row = plan.nodes[node].grid_row;
                // C takes a buffer of its exact capacity, from the C reserve
                // when an earlier C left one there: a recycled buffer is
                // cleared by its first product, a fresh one here, so that
                // its page faults stay out of the stacks.
                for (i, j) in block_c_tiles(spec, &bp.block, row, plan.config.grid.p) {
                    let rows = spec.a.row_tiling().size(i) as usize;
                    let cols = spec.b.col_tiling().size(j) as usize;
                    mm.alloc_c((i as u32, j as u32), self.pools[node].take_c(rows, cols))
                        .map_err(|e| oom(&e))?;
                }
                mm.sample_mem();
                Ok(())
            }
            (Op::LoadA { i, k }, Ctx::Gpu(mm)) => {
                let key = DataKey::A(*i, *k);
                let tile = self.stores[w.node].get(w.node, key);
                mm.load_a((*i, *k), tile).map_err(|e| oom(&e))?;
                self.stores[w.node].consume(w.node, key);
                mm.sample_mem();
                Ok(())
            }
            (Op::Gemm { k, j, rows }, Ctx::Gpu(mm)) => {
                // B streams: the first stack that reads a tile moves it from
                // the host store to the device, the last one frees it and
                // hands its buffer to the node pool, where the next GenB
                // whose tile it fits within 2× takes it, whatever its length.
                let (t, key) = ((*k, *j), DataKey::B(*k, *j));
                if self.stores[w.node].contains(key) {
                    let tile = self.stores[w.node].get(w.node, key);
                    mm.load_b(t, tile, self.low.b_uses[&(w.node, t)]).map_err(|e| oom(&e))?;
                    self.stores[w.node].consume(w.node, key);
                }
                // Row shapes differ, so the kernel is picked per product;
                // the tallies stay per product too (`gemm_tasks` is the
                // plan's product count, whatever the stacks' lengths), but
                // are counted locally and published once per stack.
                let mut kinds = [0u64; KernelKind::ALL.len()];
                mm.gemm_operands(*k, *j, self.low.rows_of(rows), |at, bt, ct| {
                    let kind = select_heuristic(ct.rows(), ct.cols(), at.cols());
                    kind.run_recompress(1.0, at, bt, ct, self.compress_tol);
                    kinds[kind.index()] += 1;
                });
                for (total, n) in self.kernel_counts.iter().zip(kinds).filter(|&(_, n)| n > 0) {
                    total.fetch_add(n, Ordering::Relaxed);
                }
                c.gemms.fetch_add(u64::from(rows.end - rows.start), Ordering::Relaxed);
                if let Some(arc) = mm.release_b(t) {
                    self.pools[w.node].release_arc(arc);
                }
                mm.sample_mem();
                Ok(())
            }
            (&Op::EvictChunk { node, gpu, block, chunk }, Ctx::Gpu(mm)) => {
                let bp = &plan.nodes[node as usize].gpus[gpu as usize].blocks[block as usize];
                for &t in &bp.chunks[chunk as usize].tiles {
                    // A later chunk may have re-loaded (refcounted) the
                    // tile already; the manager keeps it until the last
                    // reference drops.
                    mm.evict_a(t);
                }
                mm.sample_mem();
                Ok(())
            }
            (&Op::FlushBlock { node, gpu, block }, Ctx::Gpu(mm)) => {
                let (node, gpu, block) = (node as usize, gpu as usize, block as usize);
                let bp = &plan.nodes[node].gpus[gpu].blocks[block];
                let row = plan.nodes[node].grid_row;
                // The flush leaves its partials in the node's fold buffer,
                // each with its norm: the final value of every key this
                // block alone produces. The origin ordinal makes the fold's
                // accumulation order canonical, whatever order the flushes
                // ran in.
                let parts: Vec<CPart> = block_c_tiles(spec, &bp.block, row, plan.config.grid.p)
                    .into_iter()
                    .map(|(i, j)| {
                        let tile = mm.evict_c((i as u32, j as u32));
                        let norm = Some(tile.frobenius_norm());
                        CPart { i, j, origin: (node, gpu, block), tile, norm }
                    })
                    .collect();
                self.folds[w.node].lock().extend(parts);
                mm.sample_mem();
                if block + 1 == plan.nodes[node].gpus[gpu].blocks.len() {
                    self.dev_stats.lock().push(((node, gpu), mm.stats()));
                    if mm.traced() {
                        self.mem_log.lock().push(((node, gpu), mm.take_samples()));
                    }
                }
                Ok(())
            }
            (Op::ReduceC { node }, Ctx::Cpu) => {
                debug_assert_eq!(*node as usize, w.node);
                let rn = &self.low.reduce[w.node];
                // The DAG's flush → ReduceC edges put every partial of this
                // node in its fold buffer before the fold runs.
                let mut folded = std::mem::take(&mut *self.folds[w.node].lock());
                debug_assert_eq!(folded.len(), rn.partials, "node {} is missing partials", w.node);
                folded.sort_by_key(|part| (part.i, part.j, part.origin));
                // A run of equal (i, j) — the `k`-splits of one column —
                // folds in place into its first (lowest origin) partial,
                // whose norm is then stale; the others drop, and their
                // buffers go back to the C reserve.
                folded.dedup_by(|part, first| {
                    let same = (part.i, part.j) == (first.i, first.j);
                    if same {
                        first.tile.add_assign(&part.tile);
                        first.norm = None;
                    }
                    same
                });
                debug_assert_eq!(
                    folded.len(),
                    rn.keys.len(),
                    "folded keys diverge from the lowering on node {}",
                    w.node
                );
                set_missing_norms(&mut folded);
                // Across processes every rank keeps its own share of C: the
                // shares are disjoint, and each process streams its own.
                if self.fabric.remote().is_none() {
                    if w.node != REDUCE_ROOT {
                        self.fabric.gather(w.node, REDUCE_ROOT, folded);
                        return Ok(());
                    }
                    // The expected count is structural, so the taken set is
                    // fixed by the plan, not by delivery timing. Safe to
                    // block: every other fold finished (DAG deps), so every
                    // gather frame is at least in flight.
                    folded.extend(
                        self.fabric.take_reduced_at_least(w.node, self.low.gathered_keys()),
                    );
                }
                *self.c_tiles.lock() = folded;
                Ok(())
            }
            // `RecvA` is an arrival, which no handler runs.
            (op, _) => unreachable!("op {op:?} on wrong lane"),
        }
    }
}
