//! Task-accurate DAG replay over the numeric engine's **own** lowering.
//!
//! Where [`crate::replay`] is event-coarse (one event per chunk/block, for
//! Summit-scale speed), this module replays the *exact* task DAG the numeric
//! engine executes: it calls the same inspector
//! ([`bst_contract::engine::inspector::lower`]) the engine calls, then walks
//! the lowered graph under the engine's lane rule with [`Platform`] costs,
//! driving a real [`bst_runtime::DeviceMemory`] per GPU lane.
//!
//! Because the DAG is *shared* — not re-derived — simulated and numeric runs
//! are structurally identical by construction: same tasks, same dataflow and
//! control-flow edges, same per-lane execution order. The replay emits a
//! labeled [`ExecReport`] in the engine's trace vocabulary, so
//! [`bst_contract::validate_trace_invariants`] gates the simulated schedule
//! with the very checker that gates numeric traces.

use std::collections::HashMap;
use std::sync::Arc;

use bst_contract::engine::inspector::{self, Op, REDUCE_ROOT};
use bst_contract::{ExecOptions, ExecReport, ExecTraceData, ExecutionPlan, ProblemSpec};
use bst_runtime::comm::{CommEvent, LinkClass, NodeCommStats};
use bst_runtime::data::DataKey;
use bst_runtime::device::{DeviceMemory, NodeResidency};
use bst_runtime::graph::WorkerId;
use bst_runtime::trace::{aggregate_by_kind, MemSample, TaskRecord, TaskSpan, TracePhase};

use crate::platform::Platform;

/// Nanoseconds of a simulated duration in seconds.
fn ns(seconds: f64) -> u64 {
    (seconds * 1e9).round().max(0.0) as u64
}

/// Structure-only model of the engine's low-rank tile compression
/// ([`ExecOptions::compress_tol`]). The replay sees tilings, not tile
/// *content*, so it cannot know the rank a pivoted truncation would reveal;
/// instead it assumes a fixed modeled rank fraction of `min(rows, cols)` and
/// applies the same profitability rule the real compressor uses (factors
/// must strictly beat dense bytes, else the tile stays dense). With
/// `tol == 0.0` the model is the identity — every byte count matches the
/// dense replay exactly.
#[derive(Clone, Copy, Debug)]
pub struct CompressionModel {
    /// The run's truncation tolerance; `0.0` disables the model.
    pub tol: f64,
    /// Modeled rank as a fraction of `min(rows, cols)` (clamped to (0, 1]).
    pub rank_fraction: f64,
}

impl CompressionModel {
    /// The rank fraction assumed when the caller gives no calibration —
    /// roughly what a few-digit tolerance reveals on tiles with
    /// geometrically decaying spectra.
    pub const DEFAULT_RANK_FRACTION: f64 = 0.25;

    /// The model implied by `opts`: identity when compression is off,
    /// [`Self::DEFAULT_RANK_FRACTION`] otherwise.
    pub fn from_options(opts: &ExecOptions) -> Self {
        Self {
            tol: opts.compress_tol,
            rank_fraction: Self::DEFAULT_RANK_FRACTION,
        }
    }

    /// Modeled stored bytes of a `rows x cols` f64 tile.
    pub fn tile_bytes(&self, rows: u64, cols: u64) -> u64 {
        let dense = rows * cols * 8;
        if self.tol <= 0.0 {
            return dense;
        }
        let rank = ((rows.min(cols) as f64) * self.rank_fraction.clamp(0.0, 1.0)).ceil() as u64;
        // Same gate as bst_tile::lowrank::compress: a representation that
        // wouldn't strictly beat dense bytes stays dense.
        let max_profitable = (rows * cols).saturating_sub(1) / (rows + cols);
        if rank == 0 || rank > max_profitable {
            dense
        } else {
            rank * (rows + cols) * 8
        }
    }
}

/// Replays the numeric engine's lowered task DAG for `(spec, plan)` on
/// `platform`, returning a traced [`ExecReport`] in the engine's task
/// vocabulary. `opts` selects the same lowering policies the numeric engine
/// honors; the replay is always traced regardless of
/// [`ExecOptions::tracing`], since the trace *is* its output.
///
/// Device memory is not modeled but enforced: every `LoadBlock`/`LoadA`
/// allocation and every stack's B transfer goes through a real
/// [`DeviceMemory`] with the plan's byte budget, so a lowering that would
/// OOM a real device panics here too.
///
/// # Panics
/// Panics if the replayed schedule overruns a device budget or if a `Gemm`
/// reaches a lane before its operands are resident (either is a lowering
/// bug).
pub fn replay_dag(
    spec: &ProblemSpec,
    plan: &ExecutionPlan,
    platform: &Platform,
    opts: &ExecOptions,
) -> ExecReport {
    let low = inspector::lower(spec, plan, opts);
    // Compressed-byte model: when the run carries a compression tolerance,
    // every A/B byte count below (wire, h2d, device residency) uses modeled
    // stored bytes; C tiles always stay dense, exactly like the engine.
    let cm = CompressionModel::from_options(opts);
    let a_bytes = |i: usize, k: usize| {
        cm.tile_bytes(spec.a.row_tiling().size(i), spec.a.col_tiling().size(k))
    };
    let b_bytes = |k: usize, j: usize| {
        cm.tile_bytes(spec.b.row_tiling().size(k), spec.b.col_tiling().size(j))
    };
    let c_bytes =
        |i: usize, j: usize| spec.a.row_tiling().size(i) * spec.b.col_tiling().size(j) * 8;
    // The per-class link model bst_runtime::comm::LinkShaper applies.
    let shaper_of = |src: usize, dst: usize| match low.topology.link_class(src, dst) {
        LinkClass::Inter => platform.link_shaper(),
        _ => platform.intra_shaper(),
    };
    let p = plan.config.grid.p;
    let n_nodes = p * plan.config.grid.q;
    let registries: Vec<Arc<NodeResidency>> =
        (0..n_nodes).map(|_| Arc::new(NodeResidency::new())).collect();
    let mut devices: HashMap<WorkerId, DeviceMemory> = HashMap::new();
    let mut mem_samples: HashMap<(usize, usize), Vec<MemSample>> = HashMap::new();

    // The engine's lane rule with platform costs: a task starts when its
    // dependencies and, on a lane, its lane's previous task ended. Both have
    // lower ids, so one pass in id order settles every task's times.
    let n = low.graph.len();
    let mut end = vec![0u64; n];
    let mut lane_free: HashMap<WorkerId, u64> = HashMap::new();
    let mut records = Vec::with_capacity(n);
    let (mut a_net, mut a_msgs, mut gemms, mut bgens) = (0u64, 0u64, 0u64, 0u64);
    let mut a_net_inter = 0u64;
    let mut comm_events: Vec<CommEvent> = Vec::new();
    let mut comm_stats = vec![NodeCommStats::default(); n_nodes];

    for id in 0..n {
        let ready_ns = low.graph.deps(id).iter().map(|&d| end[d]).max().unwrap_or(0);
        let op = low.graph.payload(id);
        let w = low.graph.worker(id);
        let lane_ns = if w.is_any() { 0 } else { *lane_free.entry(w).or_insert(0) };
        let start_ns = ready_ns.max(lane_ns);

        let mut sample_after: Option<(usize, usize)> = None;
        let dur = match op {
            Op::SendA { i, k, to } => {
                let bytes = a_bytes(*i as usize, *k as usize);
                a_net += bytes;
                if low.topology.link_class(w.node, *to as usize) == LinkClass::Inter {
                    a_net_inter += bytes;
                }
                a_msgs += 1;
                // The sender is busy only for the per-message software
                // overhead; the wire time is charged to the RecvA task.
                ns(platform.nic_msg_overhead_s)
            }
            Op::RecvA { i, k, from } => {
                // The shaped transfer: latency plus bytes over the link the
                // hop actually crosses (NIC vs intra-node).
                let bytes = a_bytes(*i as usize, *k as usize);
                ns(shaper_of(*from as usize, w.node).delay_s(bytes))
            }
            Op::GenB { k, j } => {
                bgens += 1;
                let bytes = spec.b.tile_bytes(*k as usize, *j as usize);
                ns(bytes as f64 / platform.cpu_gen_rate)
            }
            &Op::LoadBlock { node, gpu, block } => {
                let (node, gpu, block) = (node as usize, gpu as usize, block as usize);
                let dev = devices.entry(w).or_insert_with(|| {
                    DeviceMemory::new(gpu, plan.config.device.gpu_mem_bytes, registries[node].clone())
                });
                let bp = &plan.nodes[node].gpus[gpu].blocks[block];
                let row = plan.nodes[node].grid_row;
                for (i, j) in inspector::block_c_tiles(spec, &bp.block, row, p) {
                    dev.alloc(DataKey::C(i as u32, j as u32), c_bytes(i, j))
                        .expect("simulated device OOM on C allocation");
                }
                sample_after = Some((node, gpu));
                0 // C is produced on the device: nothing is transferred
            }
            Op::LoadA { i, k } => {
                let dev = devices.get_mut(&w).expect("LoadA after LoadBlock on its lane");
                let bytes = a_bytes(*i as usize, *k as usize);
                dev.load(DataKey::A(*i, *k), bytes)
                    .expect("simulated device OOM on LoadA");
                sample_after = Some((w.node, w.lane - 1));
                ns(bytes as f64 / platform.h2d_bw + platform.h2d_latency_s)
            }
            // A stack costs the sum of its products, plus B's transfer if it
            // is the block's first on that tile: one device reference per
            // stack that reads it, so the last one's evict frees it.
            // `gemms` counts products, as the engine's report does.
            Op::Gemm { k, j, rows } => {
                let dev = devices.get_mut(&w).expect("Gemm after LoadBlock on its lane");
                let mut seconds = 0.0;
                if !dev.is_resident(DataKey::B(*k, *j)) {
                    let bytes = b_bytes(*k as usize, *j as usize);
                    for _ in 0..low.b_uses[&(w.node, (*k, *j))] {
                        dev.load(DataKey::B(*k, *j), bytes).expect("simulated device OOM on B transfer");
                    }
                    seconds += bytes as f64 / platform.h2d_bw + platform.h2d_latency_s;
                }
                let nn = spec.b.col_tiling().size(*j as usize);
                let kk = spec.a.col_tiling().size(*k as usize);
                for &i in low.rows_of(rows) {
                    assert!(dev.is_resident(DataKey::A(i, *k)), "A({i},{k}) not resident");
                    assert!(dev.is_resident(DataKey::C(i, *j)), "C({i},{j}) not resident");
                    gemms += 1;
                    seconds += platform.gemm_time(spec.a.row_tiling().size(i as usize), nn, kk);
                }
                dev.evict(DataKey::B(*k, *j), false);
                sample_after = Some((w.node, w.lane - 1));
                ns(seconds)
            }
            &Op::EvictChunk { node, gpu, block, chunk } => {
                let dev = devices.get_mut(&w).expect("evict on a loaded lane");
                let bp = &plan.nodes[node as usize].gpus[gpu as usize].blocks[block as usize];
                for &(i, k) in &bp.chunks[chunk as usize].tiles {
                    dev.evict(DataKey::A(i, k), false);
                }
                sample_after = Some((w.node, w.lane - 1));
                0
            }
            &Op::FlushBlock { node, gpu, block } => {
                let dev = devices.get_mut(&w).expect("flush on a loaded lane");
                let bp = &plan.nodes[node as usize].gpus[gpu as usize].blocks[block as usize];
                let row = plan.nodes[node as usize].grid_row;
                let (mut bytes, mut tiles) = (0u64, 0u64);
                for (i, j) in inspector::block_c_tiles(spec, &bp.block, row, p) {
                    dev.evict(DataKey::C(i as u32, j as u32), true);
                    bytes += c_bytes(i, j);
                    tiles += 1;
                }
                sample_after = Some((w.node, w.lane - 1));
                ns(bytes as f64 / platform.d2h_bw + tiles as f64 * platform.h2d_latency_s)
            }
            // The fold itself is a handful of tile additions (HBM bound,
            // negligible next to the wire); sending one folded tile per key
            // to the root is what costs — charged on the sender, over the
            // link class of `(node, root)`.
            Op::ReduceC { .. } if w.node != REDUCE_ROOT => {
                let shaper = shaper_of(w.node, REDUCE_ROOT);
                let keys = &low.reduce[w.node].keys;
                ns(keys
                    .iter()
                    .map(|&(i, j)| platform.nic_msg_overhead_s + shaper.delay_s(c_bytes(i, j)))
                    .sum())
            }
            Op::ReduceC { .. } => 0,
        };

        let end_ns = start_ns + dur;
        end[id] = end_ns;
        if !w.is_any() {
            lane_free.insert(w, end_ns);
        }
        // Transport accounting, as `CommFabric` keeps it: a `Sent` is
        // charged to the sender, a `Received` to the receiver.
        let mut wire = |phase, key, src: usize, dst: usize, bytes: u64, epoch| {
            let class = low.topology.link_class(src, dst);
            let inter = u64::from(class == LinkClass::Inter);
            if phase == TracePhase::Sent {
                let s = &mut comm_stats[src];
                s.sent_bytes += bytes;
                s.sent_msgs += 1;
                s.inter_sent_bytes += inter * bytes;
                s.inter_sent_msgs += inter;
            } else {
                let s = &mut comm_stats[dst];
                s.recv_bytes += bytes;
                s.recv_msgs += 1;
                s.inter_recv_bytes += inter * bytes;
                s.inter_recv_msgs += inter;
            }
            comm_events.push(CommEvent { phase, key, src, dst, class, bytes, epoch, t_ns: end_ns });
        };
        match op {
            Op::SendA { i, k, to } => {
                let bytes = a_bytes(*i as usize, *k as usize);
                wire(TracePhase::Sent, DataKey::A(*i, *k), w.node, *to as usize, bytes, 1);
            }
            Op::RecvA { i, k, from } => {
                let bytes = a_bytes(*i as usize, *k as usize);
                wire(TracePhase::Received, DataKey::A(*i, *k), *from as usize, w.node, bytes, 1);
            }
            Op::ReduceC { .. } if w.node != REDUCE_ROOT => {
                for &(i, j) in &low.reduce[w.node].keys {
                    let key = DataKey::C(i as u32, j as u32);
                    for phase in [TracePhase::Sent, TracePhase::Received] {
                        wire(phase, key, w.node, REDUCE_ROOT, c_bytes(i, j), 0);
                    }
                }
            }
            _ => {}
        }
        if let Some(key) = sample_after {
            mem_samples
                .entry(key)
                .or_default()
                .push((end_ns, devices[&w].used()));
        }
        records.push(TaskRecord {
            task: id,
            kind: op.kind(),
            worker: w,
            span: TaskSpan { ready_ns, start_ns, end_ns },
            attempts: 1,
        });
    }

    let mut dev_stats: Vec<_> = devices
        .iter()
        .map(|(w, dev)| ((w.node, w.lane - 1), dev.stats()))
        .collect();
    dev_stats.sort_by_key(|(k, _)| *k);
    let mut samples: Vec<_> = mem_samples.into_iter().collect();
    samples.sort_by_key(|(k, _)| *k);
    let total_ns = end.iter().copied().max().unwrap_or(0);
    let metrics = aggregate_by_kind(&records);
    ExecReport {
        devices: dev_stats,
        a_network_bytes: a_net,
        a_network_inter_bytes: a_net_inter,
        a_messages: a_msgs,
        gemm_tasks: gemms,
        b_tiles_generated: bgens,
        metrics,
        comm: comm_stats,
        trace: Some(ExecTraceData {
            records,
            ops: (0..n).map(|id| low.graph.payload(id).clone()).collect(),
            stack_rows: Arc::clone(&low.stack_rows),
            mem_samples: samples,
            comm_events,
            total_ns,
        }),
        ..ExecReport::default()
    }
}

/// The simulated makespan of a [`replay_dag`] report, in seconds.
pub fn makespan_s(report: &ExecReport) -> f64 {
    report.trace.as_ref().map(|t| t.total_ns as f64 / 1e9).unwrap_or(0.0)
}
