//! The inspector: lowering an [`ExecutionPlan`] to the task DAG the engine
//! executes (the paper's §4 PTG materialisation).
//!
//! [`lower`] is **data-free** — it reads only the plan and the problem's
//! structure (tilings + shapes), never tile values — so the same lowering
//! serves the numeric executor (`crate::engine::run`) and the `bst-sim`
//! discrete-event replay: both execute *structurally identical* DAGs, and
//! the trace invariants validate either.
//!
//! **Lanes are programs** ([`bst_runtime::engine`]): a lane runs its tasks
//! in id order, so the lowering stores only the edges that cross lanes. A
//! device lane's program is, per block, `LoadBlock`, then per chunk each
//! `LoadA` just before the first stack that reads its tile, the stacks and
//! the `EvictChunk`, then the `FlushBlock`. So a stack follows its loads
//! and C allocation, the stacks into one C tile accumulate in the
//! per-product order (delivery timing is numerically unobservable), a
//! chunk leaves the device before the next one loads (§3.2.3) and a block
//! before the next one is allocated (§3.2.2).
//!
//! The edges, all between lanes (an order-free task is in none):
//!
//! * **dataflow** — `GenB(k, j) → Gemm{k, j, ..}`, one edge per stack that
//!   reads the tile (the stack that reads it first also transfers it to the
//!   device); `SendA → RecvA → LoadA`, one hop from the tile's owner to
//!   each consuming node, a real send/receive pair over
//!   [`bst_runtime::comm`]: the send puts the message on the owner's wire,
//!   the receive is an arrival that no worker runs — the destination's
//!   progress thread completes it when it has deposited the tile — and only
//!   then may a device transfer read the tile;
//!   `FlushBlock → ReduceC` and every other node's `ReduceC` → the root's;
//! * **control flow** — `first-use stack(n − 2) → GenB(n)`
//!   ([`GENB_WINDOW`]): removing it lets B pile up on the host, and changes
//!   no result.
//!
//! **B is a stream** — it is generated on demand because it cannot be held.
//! A device lane's `GenB` tasks are lowered in the order its stacks first
//! read their tiles, each just before that first-use stack and, like A's
//! chunks, one tile ahead of the one computing: a tile's host copy lives
//! from its `GenB` to its first stack, its device copy from there to its
//! last stack of the block. `GenB` is order-free ([`WorkerId::any`]): the
//! window edges are its only order, so any pooled worker runs it once they
//! and its tile's data allow, and the pool's size bounds how many run at
//! once. A `RecvA` is order-free too, and never holds a worker: its
//! `SendA` and its tile's deposit fix when it completes. `SendA`, `LoadA`
//! and every other task keep a lane, because the wire's order or the
//! device's matters to them.
//!
//! The unit of device work is a **stack**, not a product: all products of
//! one chunk against one resident B tile are one `Gemm` task
//! ([`ExecutionPlan::for_each_chunk_stack`]) — a product of the paper's
//! application is tens of kflop, far too little to carry a task's
//! scheduling cost on its own. A chunk lists each row's `k` ascending and
//! its stacks are created `k`-ascending, so every `C(i, j)` still receives
//! its contributions in the per-product order.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::ops::Range;
use std::sync::Arc;

use bst_runtime::comm::Topology;
use bst_runtime::data::DataKey;
use bst_runtime::graph::{TaskGraph, TaskId, WorkerId};

use super::policies::ExecOptions;
use crate::partition::Block;
use crate::plan::ExecutionPlan;
use crate::spec::ProblemSpec;

/// The task vocabulary of the lowered DAG.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// Send `A(i,k)` from its owner (this task's node) to `to`.
    SendA {
        /// A-tile row.
        i: u32,
        /// A-tile column.
        k: u32,
        /// Destination node.
        to: u32,
    },
    /// Receive `A(i,k)` on this task's node: an arrival task
    /// ([`bst_runtime::engine::Engine::run_with`]) that no worker runs. It
    /// completes when the message from `from` has been deposited into the
    /// node-private store — the receiving node's progress thread retires it
    /// — and, in-process, its `SendA` has completed.
    RecvA {
        /// A-tile row.
        i: u32,
        /// A-tile column.
        k: u32,
        /// Sending node.
        from: u32,
    },
    /// Generate `B(k,j)` on this node's CPU.
    GenB {
        /// B-tile row.
        k: u32,
        /// B-tile column.
        j: u32,
    },
    /// Allocate a block's C tiles on the device.
    LoadBlock {
        /// Owning node.
        node: u32,
        /// GPU index within the node.
        gpu: u32,
        /// Block index within the GPU's sequence.
        block: u32,
    },
    /// Transfer `A(i,k)` host→device for a chunk.
    LoadA {
        /// A-tile row.
        i: u32,
        /// A-tile column.
        k: u32,
    },
    /// A stack of products against one B tile: for each `i` of `rows`, in
    /// order, `C_ij += A_ik · B_kj` on the device. The block's first stack
    /// on `B_kj` transfers it host→device, its last one frees it.
    Gemm {
        /// Contraction tile index.
        k: u32,
        /// C/B-tile column.
        j: u32,
        /// The C/A-tile rows, as an index range into
        /// [`Lowered::stack_rows`].
        rows: Range<u32>,
    },
    /// Free the A tiles of a chunk.
    EvictChunk {
        /// Owning node.
        node: u32,
        /// GPU index within the node.
        gpu: u32,
        /// Block index within the GPU's sequence.
        block: u32,
        /// Chunk index within the block.
        chunk: u32,
    },
    /// Write back and free the block's C tiles.
    FlushBlock {
        /// Owning node.
        node: u32,
        /// GPU index within the node.
        gpu: u32,
        /// Block index within the GPU's sequence.
        block: u32,
    },
    /// Fold the C partials this node's flushes left in place, in canonical
    /// `(i, j, origin)` order, and gather the folded tiles straight to
    /// [`REDUCE_ROOT`]; the root's own instance also waits for every other
    /// node's tiles and hands the lot to the final assembly. In a
    /// multi-process run every node's instance hands its own tiles to its
    /// own process's assembly instead.
    ReduceC {
        /// The folding node.
        node: u32,
    },
}

// A lowering holds one `Op` per task: keep it within three words.
const _: () = assert!(std::mem::size_of::<Op>() <= 24);

impl Op {
    /// The per-kind aggregation label.
    pub fn kind(&self) -> &'static str {
        match self {
            Op::SendA { .. } => "SendA",
            Op::RecvA { .. } => "RecvA",
            Op::GenB { .. } => "GenB",
            Op::LoadBlock { .. } => "LoadBlock",
            Op::LoadA { .. } => "LoadA",
            Op::Gemm { .. } => "Gemm",
            Op::EvictChunk { .. } => "EvictChunk",
            Op::FlushBlock { .. } => "FlushBlock",
            Op::ReduceC { .. } => "ReduceC",
        }
    }

    /// Compact instance label: the Chrome export's slice name and what error
    /// messages call a task (`Gemm(k,j|i0,i1,…)`, `LoadA(i,k)`,
    /// `LoadBlock(b)`, `EvictChunk(b,c)`, `FlushBlock(b)`, `SendA(i,k->n)`,
    /// `RecvA(i,k<-n)`, `GenB(k,j)`, `ReduceC(n)`). Nothing parses it back:
    /// traces carry the typed `Op`. `stack_rows` is the lowering's row table
    /// ([`Lowered::stack_rows`]), which a `Gemm`'s row range indexes.
    pub fn detail(&self, stack_rows: &[u32]) -> String {
        match self {
            Op::SendA { i, k, to } => format!("SendA({i},{k}->{to})"),
            Op::RecvA { i, k, from } => format!("RecvA({i},{k}<-{from})"),
            Op::GenB { k, j } => format!("GenB({k},{j})"),
            Op::LoadBlock { block, .. } => format!("LoadBlock({block})"),
            Op::LoadA { i, k } => format!("LoadA({i},{k})"),
            Op::Gemm { k, j, rows } => {
                let rows: Vec<String> =
                    stack_rows[rows.start as usize..rows.end as usize].iter().map(u32::to_string).collect();
                format!("Gemm({k},{j}|{})", rows.join(","))
            }
            Op::EvictChunk { block, chunk, .. } => format!("EvictChunk({block},{chunk})"),
            Op::FlushBlock { block, .. } => format!("FlushBlock({block})"),
            Op::ReduceC { node } => format!("ReduceC({node})"),
        }
    }
}

/// `x` as an [`Op`] field: node, GPU, block and chunk indices fit a `u32`.
fn ix(x: usize) -> u32 {
    u32::try_from(x).expect("plan indices fit a u32")
}

/// The node owning `A(i,k)` under the 2D-cyclic distribution over a
/// `p × q` grid (row-major node numbering).
pub fn owner_of(p: usize, q: usize, i: usize, k: usize) -> usize {
    debug_assert!(p > 0 && q > 0);
    (i % p) * q + (k % q)
}

/// A node's CPU lane (lane 0: its `SendA` hops, then its `ReduceC`).
pub fn cpu_lane(node: usize) -> WorkerId {
    WorkerId { node, lane: 0 }
}

/// A node's GPU executor lane (`1..=gpus_per_node`).
pub fn gpu_lane(node: usize, gpu: usize) -> WorkerId {
    WorkerId { node, lane: 1 + gpu }
}

/// How many B tiles a device lane's generation may run ahead of its
/// consumption: `GenB` of the lane's n-th first-used tile waits for the
/// first-use stack of tile `n − GENB_WINDOW`. Two is A's prefetch rule
/// (§3.2.3): one tile computing, one ahead.
pub const GENB_WINDOW: usize = 2;

/// The most bytes of B a node leaves on the host, given the largest tile
/// its stacks read, its device lanes and how many `GenB`s ran at once
/// (never more than the engine's pooled workers): each lane's window, plus
/// one tile per concurrent `GenB` — the window edges order when a `GenB`
/// starts, not when it ends, so a slow one may land after later tiles were
/// consumed.
pub fn host_b_window_bytes(largest_tile: u64, device_lanes: usize, in_flight: usize) -> u64 {
    (device_lanes * GENB_WINDOW + in_flight) as u64 * largest_tile
}

/// The `(k, j)` B tiles a block's column spans cover — what the planner
/// counts and `bst-sim`'s coarse replay transfers; the engine generates the
/// ones some stack reads ([`Lowered::b_uses`]).
pub fn block_b_tiles(spec: &ProblemSpec, block: &Block) -> Vec<(usize, usize)> {
    let mut tiles = Vec::new();
    for span in &block.spans {
        let j = span.col as usize;
        for k in spec.b.shape().nonzero_rows_in_col(j) {
            if span.contains(k) {
                tiles.push((k, j));
            }
        }
    }
    tiles
}

/// The `(i, j)` C tiles a block allocates and flushes for a node on grid
/// row `grid_row` of a `p`-row grid, in handler walk order.
pub fn block_c_tiles(
    spec: &ProblemSpec,
    block: &Block,
    grid_row: usize,
    p: usize,
) -> Vec<(usize, usize)> {
    let mut tiles = Vec::new();
    for j in block.distinct_columns() {
        for i in spec.c_col_support(j, grid_row, p) {
            tiles.push((i, j));
        }
    }
    tiles
}

/// An `A` tile viewed from a node: the key of the broadcast/consumption
/// maps in [`Lowered`].
pub type NodeTile = (usize, (u32, u32));

/// The rank C is gathered on in-process: every other rank's `ReduceC` sends
/// its folded tiles here, in one frame.
pub const REDUCE_ROOT: usize = 0;

/// What one node contributes to C. Every `C(i, j)` is produced on exactly
/// one node (the planner deals a B column to one node of a grid row, and a
/// column split along `k` stays inside that node's blocks), so the key sets
/// of different nodes are disjoint and nothing is combined across nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReduceNode {
    /// Partials this node's flushes leave for its fold: one per C tile of
    /// each block, so a key whose column splits along `k` counts once per
    /// block.
    pub partials: usize,
    /// The distinct `(i, j)` keys of those partials (sorted) — the tiles
    /// this node's fold yields.
    pub keys: Vec<(usize, usize)>,
}

/// The inspector's output: the task DAG plus the broadcast/consumption
/// bookkeeping the handlers (numeric or simulated) need to drive it.
pub struct Lowered {
    /// The task DAG: lane programs, and the edges that cross lanes.
    pub graph: TaskGraph<Op>,
    /// Every lane tasks are pinned to: per node, the CPU lane, then the GPU
    /// lanes. The order-free `GenB` and `RecvA` need none ([`WorkerId::any`]).
    pub workers: Vec<WorkerId>,
    /// `Gemm` stack count per `(node, B tile)` some stack reads: the tile
    /// leaves the device after that many (> 1 only in multi-chunk blocks).
    pub b_uses: HashMap<NodeTile, u32>,
    /// `LoadA` count per `(node, A tile)` — the device-load consumer
    /// refcount of each tile on each node.
    pub a_loads: HashMap<NodeTile, usize>,
    /// `(owner, tile) → destination nodes` needing the tile remotely
    /// (ascending): the owner sends it to each in one hop (the A broadcast
    /// "happens in the background, at the tile granularity", §4).
    pub sends: HashMap<NodeTile, Vec<usize>>,
    /// The node-aware topology: the link class of every hop.
    pub topology: Topology,
    /// Per-node C contributions, indexed by node.
    pub reduce: Vec<ReduceNode>,
    /// The rows of every `Gemm` stack, back to back in task order; an
    /// [`Op::Gemm`] holds its index range. One table for the whole lowering
    /// (shared, not copied, by [`Lowered::restrict`]), so an `Op` stays
    /// plain data and a stack allocates nothing of its own.
    pub stack_rows: Arc<[u32]>,
}

impl Lowered {
    /// The C/A-tile rows of a `Gemm` stack, in execution order.
    pub fn rows_of(&self, rows: &Range<u32>) -> &[u32] {
        &self.stack_rows[rows.start as usize..rows.end as usize]
    }

    /// Consumer refcount of `A` tile `t` on `node`: local device loads plus,
    /// on the tile's owner, one send per destination.
    pub fn a_consumers(&self, node: usize, t: (u32, u32)) -> usize {
        self.a_loads.get(&(node, t)).copied().unwrap_or(0)
            + self.sends.get(&(node, t)).map_or(0, Vec::len)
    }

    /// The C keys the root's `ReduceC` awaits in-process: one folded tile
    /// per key of every other node. Structural — from the plan, never from
    /// delivery timing.
    pub fn gathered_keys(&self) -> usize {
        let all_keys: usize = self.reduce.iter().map(|r| r.keys.len()).sum();
        all_keys - self.reduce[REDUCE_ROOT].keys.len()
    }

    /// The SPMD projection for multi-process execution: the sub-DAG of
    /// tasks pinned to node `rank`, with cross-node edges dropped.
    ///
    /// Every process lowers the *full* plan (so sends, consumer refcounts
    /// and C key counts are globally consistent), then keeps only its own
    /// node's tasks. The dropped edges are `SendA → RecvA`, whose ordering
    /// the transport enforces at runtime (a `RecvA` completes only when its
    /// frame, sent over the wire by the peer's `SendA`, has been deposited),
    /// and every other `ReduceC` → the root's, which orders nothing across
    /// processes: there each rank keeps its own C. Relative task order is
    /// preserved, so the `dep < task` lowering invariant and the lane
    /// programs hold in the projection; the send/consumption maps stay
    /// global — an owner's `SendA` tells the destination its refcount.
    pub fn restrict(&self, rank: usize) -> Lowered {
        let mut graph: TaskGraph<Op> = TaskGraph::new();
        let mut remap: Vec<Option<TaskId>> = vec![None; self.graph.len()];
        for id in (0..self.graph.len()).filter(|&id| self.graph.worker(id).node == rank) {
            let new_id = graph.add_task(self.graph.payload(id).clone(), self.graph.worker(id));
            for &dep in self.graph.deps(id) {
                if let Some(mapped) = remap[dep] {
                    graph.add_dep(new_id, mapped);
                }
            }
            remap[id] = Some(new_id);
        }
        Lowered {
            graph,
            workers: self.workers.iter().copied().filter(|w| w.node == rank).collect(),
            b_uses: self.b_uses.clone(),
            a_loads: self.a_loads.clone(),
            sends: self.sends.clone(),
            topology: self.topology,
            reduce: self.reduce.clone(),
            stack_rows: Arc::clone(&self.stack_rows),
        }
    }

    /// Every `RecvA` by the node and A tile it receives: the arrival tasks
    /// a tile's deposit completes.
    pub fn arrivals(&self) -> HashMap<(usize, DataKey), TaskId> {
        (0..self.graph.len())
            .filter_map(|id| match self.graph.payload(id) {
                &Op::RecvA { i, k, .. } => Some(((self.graph.worker(id).node, DataKey::A(i, k)), id)),
                _ => None,
            })
            .collect()
    }
}

/// Lowers `plan` to the task DAG. Pure in `(spec structure, plan, opts)` —
/// no tile data is touched, so simulation and numeric execution share it,
/// and two calls on one input yield the same tasks, workers and edges in
/// the same order.
pub fn lower(spec: &ProblemSpec, plan: &ExecutionPlan, opts: &ExecOptions) -> Lowered {
    let (p, q) = (plan.config.grid.p, plan.config.grid.q);
    let g = plan.config.device.gpus_per_node;
    let n_nodes = p * q;

    // ---- Pass 1: count LoadA tasks per (node, tile) ---------------------
    let mut a_loads: HashMap<(usize, (u32, u32)), usize> = HashMap::new();
    for (ni, node) in plan.nodes.iter().enumerate() {
        for gpu in &node.gpus {
            for bp in &gpu.blocks {
                for chunk in &bp.chunks {
                    for &t in &chunk.tiles {
                        *a_loads.entry((ni, t)).or_insert(0) += 1;
                    }
                }
            }
        }
    }

    // sends[(owner, tile)] = destination nodes needing the tile remotely.
    let mut sends: HashMap<(usize, (u32, u32)), Vec<usize>> = HashMap::new();
    for &(ni, t) in a_loads.keys() {
        let owner = owner_of(p, q, t.0 as usize, t.1 as usize);
        if owner != ni {
            sends.entry((owner, t)).or_default().push(ni);
        }
    }
    // `HashMap` iteration order differs from one call to the next; the
    // lowering must not. Destinations ascend, and the broadcasts are lowered
    // in `(k, i, owner)` order — roughly first use — which fixes the hop
    // task ids and with them each CPU lane's program (the order A tiles go on
    // the wire).
    sends.values_mut().for_each(|dests| dests.sort_unstable());
    let mut send_order: Vec<(&NodeTile, &Vec<usize>)> = sends.iter().collect();
    send_order.sort_unstable_by_key(|&(&(owner, (i, k)), _)| (k, i, owner));

    // ---- Pass 2: build the task graph ------------------------------------
    let mut graph: TaskGraph<Op> = TaskGraph::new();

    // SendA/RecvA pairs (the background broadcast of A across grid rows):
    // one real message from the owner to each consuming node — the send runs
    // on the owner's CPU lane and puts the tile on the wire, the order-free
    // receive completes once the destination's progress thread deposited it.
    let mut recva_ids: HashMap<(usize, (u32, u32)), TaskId> = HashMap::new();
    for (&(owner, t), dests) in send_order {
        for &to in dests {
            let send = graph.add_task(Op::SendA { i: t.0, k: t.1, to: ix(to) }, cpu_lane(owner));
            let recv = Op::RecvA { i: t.0, k: t.1, from: ix(owner) };
            let recv = graph.add_task(recv, WorkerId::any(to));
            graph.add_dep(recv, send);
            recva_ids.insert((to, t), recv);
        }
    }

    // Per-GPU programs: the lane's tasks in the order it runs them.
    let mut stack_rows: Vec<u32> = Vec::new();
    let mut flush_ids: Vec<Vec<TaskId>> = vec![Vec::new(); n_nodes];
    let mut b_uses: HashMap<NodeTile, u32> = HashMap::new();
    // The `k` group of a chunk's stacks each A row was last loaded in: a
    // chunk's stacks come in `k` groups, each tile in one of them.
    let mut loaded_in = vec![u32::MAX; spec.a.tile_rows()];
    let mut group = 0u32;
    for (ni, node) in plan.nodes.iter().enumerate() {
        for (gi, gpu) in node.gpus.iter().enumerate() {
            let lane = gpu_lane(ni, gi);
            // The lane's B stream: every read tile's `GenB`, and per tile in
            // first-use order its first-use stack.
            let mut genb_of: HashMap<(u32, u32), TaskId> = HashMap::new();
            let mut first_uses: Vec<TaskId> = Vec::new();
            for (bi, bp) in gpu.blocks.iter().enumerate() {
                graph.add_task(Op::LoadBlock { node: ix(ni), gpu: ix(gi), block: ix(bi) }, lane);
                for (ci, chunk) in bp.chunks.iter().enumerate() {
                    // Each tile's `LoadA` just before the first stack that
                    // reads it, so a stack waits only for the loads it needs.
                    let (mut loads, mut group_k) = (0, None);
                    ExecutionPlan::for_each_chunk_stack(spec, &bp.block, chunk, |k, j, rows| {
                        if group_k != Some(k) {
                            (group_k, group) = (Some(k), group + 1);
                        }
                        for &i in rows {
                            if std::mem::replace(&mut loaded_in[i as usize], group) != group {
                                let id = graph.add_task(Op::LoadA { i, k }, lane);
                                if let Some(&recv) = recva_ids.get(&(ni, (i, k))) {
                                    graph.add_dep(id, recv); // dataflow: network arrival
                                }
                                loads += 1;
                            }
                        }
                        *b_uses.entry((ni, (k, j))).or_insert(0) += 1;
                        if let Entry::Vacant(slot) = genb_of.entry((k, j)) {
                            let genb = *slot.insert(graph.add_task(Op::GenB { k, j }, WorkerId::any(ni)));
                            if let Some(behind) = first_uses.len().checked_sub(GENB_WINDOW) {
                                graph.add_dep(genb, first_uses[behind]); // control: generation window
                            }
                            // The first-use stack is the task lowered next.
                            first_uses.push(graph.len());
                        }
                        let start = stack_rows.len();
                        stack_rows.extend_from_slice(rows);
                        let span = |at: usize| u32::try_from(at).expect("stack rows fit a u32 index");
                        let rows = span(start)..span(stack_rows.len());
                        let id = graph.add_task(Op::Gemm { k, j, rows }, lane);
                        graph.add_dep(id, genb_of[&(k, j)]); // dataflow: its B tile
                    });
                    assert_eq!(loads, chunk.tiles.len(), "a chunk's stacks read all its A tiles");
                    let (node, gpu, block, chunk) = (ix(ni), ix(gi), ix(bi), ix(ci));
                    graph.add_task(Op::EvictChunk { node, gpu, block, chunk }, lane);
                }
                let flush =
                    graph.add_task(Op::FlushBlock { node: ix(ni), gpu: ix(gi), block: ix(bi) }, lane);
                flush_ids[ni].push(flush);
            }
        }
    }

    // ReduceC tasks: one fold per node over its own flushes' partials. The
    // root's is lowered last and also depends on every other node's, whose
    // folded tiles it gathers — so the *set* of tiles each fold reads is
    // structural, independent of delivery timing.
    let reduce: Vec<ReduceNode> = plan
        .nodes
        .iter()
        .map(|node| {
            let mut partials = 0;
            let mut keys = BTreeSet::new();
            for bp in node.gpus.iter().flat_map(|gpu| &gpu.blocks) {
                let tiles = block_c_tiles(spec, &bp.block, node.grid_row, p);
                partials += tiles.len();
                keys.extend(tiles);
            }
            ReduceNode {
                partials,
                keys: keys.into_iter().collect(),
            }
        })
        .collect();
    let mut senders: Vec<TaskId> = Vec::with_capacity(n_nodes.saturating_sub(1));
    for ni in (0..n_nodes).rev() {
        let id = graph.add_task(Op::ReduceC { node: ix(ni) }, cpu_lane(ni));
        for &f in &flush_ids[ni] {
            graph.add_dep(id, f);
        }
        if ni == REDUCE_ROOT {
            for &sender in &senders {
                graph.add_dep(id, sender);
            }
        } else {
            senders.push(id);
        }
    }

    let mut workers: Vec<WorkerId> = Vec::new();
    for ni in 0..n_nodes {
        workers.push(cpu_lane(ni));
        for gi in 0..g {
            workers.push(gpu_lane(ni, gi));
        }
    }

    Lowered {
        graph,
        workers,
        b_uses,
        a_loads,
        sends,
        topology: Topology::new(n_nodes, opts.node_size.max(1)),
        reduce,
        stack_rows: stack_rows.into(),
    }
}
