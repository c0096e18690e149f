//! Resource-timeline replay of an execution plan on a [`Platform`].
//!
//! Model (one timeline per resource, events at chunk/block granularity):
//!
//! * each GPU owns a host↔device **link** (block loads, chunk loads and C
//!   flushes serialise on it) and a **compute stream** (chunk GEMM batches
//!   serialise on it);
//! * chunk *n*'s transfer may start only after chunk *n−2*'s compute is done
//!   (the §3.2.3 prefetch window: one chunk computing, one prefetching);
//! * a block's B/C region transfers blockingly after the previous block
//!   flushed (§3.2.2) and after the node CPUs generated its B tiles (shared
//!   generation rate);
//! * remote `A` tiles arrive over the node NIC at its bandwidth, shared by
//!   the node's GPUs, in plan order (the runtime broadcasts in the
//!   background, §3.2.4);
//! * finished `C` columns owned by other nodes drain over the NIC after the
//!   last flush.

use crate::platform::Platform;
use bst_contract::engine::inspector::{block_b_tiles, block_c_tiles, owner_of};
use bst_contract::plan::ExecutionPlan;
use bst_contract::ProblemSpec;

/// Result of a simulated execution.
#[derive(Clone, Debug, Default)]
pub struct SimReport {
    /// End-to-end simulated time (s).
    pub makespan_s: f64,
    /// Total executed flops.
    pub total_flops: u128,
    /// Total tile-GEMM tasks.
    pub total_tasks: u64,
    /// Sum over GPUs of busy compute time (s).
    pub compute_busy_s: f64,
    /// Largest single-GPU compute time — the compute critical path (s).
    pub compute_bound_s: f64,
    /// Largest single-GPU link time — the transfer critical path (s).
    pub h2d_bound_s: f64,
    /// Largest per-node network time (s).
    pub nic_bound_s: f64,
    /// Largest per-node B-generation time (s).
    pub bgen_bound_s: f64,
    /// Host→device bytes (A chunks + B blocks).
    pub h2d_bytes: u64,
    /// Remote A bytes crossing the network.
    pub a_network_bytes: u64,
    /// Per-node completion times (s).
    pub node_done_s: Vec<f64>,
}

impl SimReport {
    /// Aggregate sustained performance (flop/s).
    pub fn flops_per_s(&self) -> f64 {
        self.total_flops as f64 / self.makespan_s
    }

    /// Aggregate sustained performance in Tflop/s.
    pub fn tflops(&self) -> f64 {
        self.flops_per_s() / 1e12
    }

    /// Per-GPU sustained performance in Tflop/s.
    pub fn tflops_per_gpu(&self, total_gpus: usize) -> f64 {
        self.tflops() / total_gpus as f64
    }
}

struct ChunkCost {
    h2d_bytes: u64,
    n_tiles: u64,
    remote_bytes: u64,
    compute_s: f64,
    flops: u128,
    tasks: u64,
}

struct BlockCost {
    b_bytes: u64,
    b_tiles: u64,
    c_bytes: u64,
    c_tiles: u64,
    chunks: Vec<ChunkCost>,
}

/// Replays `plan` for `spec` on `platform`, returning timing and volume
/// statistics.
///
/// # Panics
/// Panics if the platform does not match the plan's grid/device
/// configuration.
pub fn simulate(spec: &ProblemSpec, plan: &ExecutionPlan, platform: &Platform) -> SimReport {
    simulate_traced(spec, plan, platform, None)
}

/// Busy intervals of one simulated GPU.
#[derive(Clone, Debug, Default)]
pub struct GpuTrace {
    /// Node index.
    pub node: usize,
    /// GPU index within the node.
    pub gpu: usize,
    /// Compute intervals `(start, end)` in seconds.
    pub compute: Vec<(f64, f64)>,
    /// Host↔device transfer intervals `(start, end)`.
    pub transfer: Vec<(f64, f64)>,
}

impl GpuTrace {
    /// Fraction of `[0, makespan]` this GPU spent computing.
    pub fn compute_utilization(&self, makespan: f64) -> f64 {
        self.compute.iter().map(|(s, e)| e - s).sum::<f64>() / makespan
    }
}

/// Execution trace of a replay: one [`GpuTrace`] per GPU.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Per-GPU busy intervals.
    pub gpus: Vec<GpuTrace>,
}

impl Trace {
    /// Renders an ASCII Gantt chart (`#` compute, `-` transfer) with
    /// `width` columns spanning `[0, makespan]`.
    pub fn gantt(&self, makespan: f64, width: usize) -> String {
        let mut out = String::new();
        for g in &self.gpus {
            let mut row = vec![' '; width];
            let paint = |row: &mut Vec<char>, iv: &[(f64, f64)], ch: char| {
                for &(s, e) in iv {
                    let a = ((s / makespan) * width as f64) as usize;
                    let b = (((e / makespan) * width as f64).ceil() as usize).min(width);
                    for c in row.iter_mut().take(b).skip(a.min(width.saturating_sub(1))) {
                        *c = ch;
                    }
                }
            };
            paint(&mut row, &g.transfer, '-');
            paint(&mut row, &g.compute, '#');
            out.push_str(&format!(
                "n{:02}g{} |{}| {:4.0}%\n",
                g.node,
                g.gpu,
                row.iter().collect::<String>(),
                g.compute_utilization(makespan) * 100.0
            ));
        }
        out
    }
}

/// [`simulate`] with optional trace collection (pass `Some(&mut trace)`).
pub fn simulate_traced(
    spec: &ProblemSpec,
    plan: &ExecutionPlan,
    platform: &Platform,
    mut trace: Option<&mut Trace>,
) -> SimReport {
    let (p, q) = (plan.config.grid.p, plan.config.grid.q);
    assert_eq!(
        platform.nodes * platform.gpus_per_node,
        p * q * plan.config.device.gpus_per_node,
        "platform GPU count must match the plan grid"
    );
    let g = plan.config.device.gpus_per_node;

    let mut report = SimReport::default();
    let mut node_done = Vec::with_capacity(plan.nodes.len());

    for (node_idx, node) in plan.nodes.iter().enumerate() {
        // ---- Gather per-GPU costs ----------------------------------------
        // A tile crosses the network once per node (the runtime keeps the
        // host copy until its last consumer): `node_seen` dedups the node's
        // network volume, while per-GPU dedup (`gpu_seen`) tracks each GPU's
        // progress through its own unique remote needs.
        let mut node_seen: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
        let mut node_remote_total = 0u64;
        let mut node_remote_tiles = 0u64;
        let mut gpu_costs: Vec<Vec<BlockCost>> = Vec::with_capacity(g);
        for gpu in &node.gpus {
            let mut gpu_seen: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
            let mut blocks = Vec::with_capacity(gpu.blocks.len());
            for bp in &gpu.blocks {
                let b = block_b_tiles(spec, &bp.block);
                let b_bytes: u64 = b.iter().map(|&(k, j)| spec.b.tile_bytes(k, j)).sum();
                let c = block_c_tiles(spec, &bp.block, node.grid_row, p);
                let c_bytes: u64 = c
                    .iter()
                    .map(|&(i, j)| spec.a.row_tiling().size(i) * spec.b.col_tiling().size(j) * 8)
                    .sum();
                let mut chunks = Vec::with_capacity(bp.chunks.len());
                for chunk in &bp.chunks {
                    let mut cost = ChunkCost {
                        h2d_bytes: chunk.bytes,
                        n_tiles: chunk.tiles.len() as u64,
                        remote_bytes: 0,
                        compute_s: 0.0,
                        flops: 0,
                        tasks: 0,
                    };
                    for &(i, k) in &chunk.tiles {
                        if owner_of(p, q, i as usize, k as usize) != node_idx {
                            let bytes = spec.a.tile_area(i as usize, k as usize) * 8;
                            if gpu_seen.insert((i, k)) {
                                cost.remote_bytes += bytes;
                            }
                            if node_seen.insert((i, k)) {
                                node_remote_total += bytes;
                                node_remote_tiles += 1;
                            }
                        }
                    }
                    ExecutionPlan::for_each_chunk_task(spec, &bp.block, chunk, |t| {
                        let m = spec.a.row_tiling().size(t.i as usize);
                        let n = spec.b.col_tiling().size(t.j as usize);
                        let kk = spec.a.col_tiling().size(t.k as usize);
                        cost.compute_s += platform.gemm_time(m, n, kk);
                        cost.flops += (2 * m * n * kk) as u128;
                        cost.tasks += 1;
                    });
                    chunks.push(cost);
                }
                blocks.push(BlockCost {
                    b_bytes,
                    b_tiles: b.len() as u64,
                    c_bytes,
                    c_tiles: c.len() as u64,
                    chunks,
                });
            }
            gpu_costs.push(blocks);
        }

        let g_active = gpu_costs
            .iter()
            .filter(|b| !b.is_empty())
            .count()
            .max(1);
        let gen_rate = platform.cpu_gen_rate / g_active as f64;
        // Time for the node to receive all its unique remote A bytes; each
        // GPU's chunks see their tiles arrive proportionally to the GPU's
        // progress through its own unique remote needs (shared tiles arrive
        // once and serve every GPU).
        let node_net_time = node_remote_total as f64 / platform.nic_bw
            + node_remote_tiles as f64 * platform.nic_msg_overhead_s;
        report.a_network_bytes += node_remote_total;

        // ---- Per-GPU pipeline recurrence ---------------------------------
        let mut node_end: f64 = 0.0;
        let mut node_bgen_time: f64 = 0.0;
        for (gi, blocks) in gpu_costs.iter().enumerate() {
            let mut gpu_trace = GpuTrace {
                node: node_idx,
                gpu: gi,
                ..Default::default()
            };
            let unique_remote: u64 = blocks
                .iter()
                .flat_map(|b| b.chunks.iter().map(|c| c.remote_bytes))
                .sum();
            let mut link_free = 0.0f64;
            let mut flush_done = 0.0f64;
            let mut compute_done: Vec<f64> = Vec::new(); // per global chunk
            let mut gen_cum = 0u64;
            let mut remote_cum = 0u64;
            let mut gpu_compute = 0.0f64;
            let mut gpu_link = 0.0f64;
            for block in blocks {
                gen_cum += block.b_bytes;
                let b_ready = gen_cum as f64 / gen_rate;
                let start = link_free.max(flush_done).max(b_ready);
                let block_load_s = block.b_bytes as f64 / platform.h2d_bw
                    + block.b_tiles as f64 * platform.h2d_latency_s;
                let load_done = start + block_load_s;
                if trace.is_some() && block_load_s > 0.0 {
                    gpu_trace.transfer.push((start, load_done));
                }
                gpu_link += block_load_s;
                link_free = load_done;
                let mut last_compute = flush_done;
                for chunk in &block.chunks {
                    let n = compute_done.len();
                    remote_cum += chunk.remote_bytes;
                    let arrival = if remote_cum > 0 {
                        (remote_cum as f64 / unique_remote as f64) * node_net_time
                            + platform.nic_latency_s
                    } else {
                        0.0
                    };
                    let depth = plan.config.prefetch_depth + 1;
                    let window = if n >= depth { compute_done[n - depth] } else { 0.0 };
                    let tstart = link_free.max(window).max(arrival);
                    let chunk_load_s = chunk.h2d_bytes as f64 / platform.h2d_bw
                        + chunk.n_tiles as f64 * platform.h2d_latency_s;
                    let tdone = tstart + chunk_load_s;
                    if trace.is_some() && chunk_load_s > 0.0 {
                        gpu_trace.transfer.push((tstart, tdone));
                    }
                    gpu_link += chunk_load_s;
                    link_free = tdone;
                    let prev = compute_done.last().copied().unwrap_or(0.0);
                    let cstart = tdone.max(prev).max(load_done);
                    let cdone = cstart + chunk.compute_s;
                    if trace.is_some() && chunk.compute_s > 0.0 {
                        gpu_trace.compute.push((cstart, cdone));
                    }
                    gpu_compute += chunk.compute_s;
                    compute_done.push(cdone);
                    last_compute = cdone;

                    report.total_flops += chunk.flops;
                    report.total_tasks += chunk.tasks;
                    report.h2d_bytes += chunk.h2d_bytes;
                }
                report.h2d_bytes += block.b_bytes;
                let fstart = last_compute.max(link_free);
                let flush_s = block.c_bytes as f64 / platform.d2h_bw
                    + block.c_tiles as f64 * platform.h2d_latency_s;
                flush_done = fstart + flush_s;
                if trace.is_some() && flush_s > 0.0 {
                    gpu_trace.transfer.push((fstart, flush_done));
                }
                gpu_link += flush_s;
                link_free = flush_done;
            }
            if let Some(tr) = trace.as_deref_mut() {
                tr.gpus.push(gpu_trace);
            }
            node_end = node_end.max(flush_done);
            node_bgen_time = node_bgen_time.max(gen_cum as f64 / gen_rate);
            report.compute_busy_s += gpu_compute;
            report.compute_bound_s = report.compute_bound_s.max(gpu_compute);
            report.h2d_bound_s = report.h2d_bound_s.max(gpu_link);
        }

        // ---- C write-back over the network -------------------------------
        let mut c_remote = 0u64;
        for &j in &node.columns {
            if j % q != node.grid_col {
                c_remote += spec.c_col_bytes(j, node.grid_row, p);
            }
        }
        let done = node_end + c_remote as f64 / platform.nic_bw;
        report.nic_bound_s = report
            .nic_bound_s
            .max(node_net_time + c_remote as f64 / platform.nic_bw);
        report.bgen_bound_s = report.bgen_bound_s.max(node_bgen_time);
        node_done.push(done);
    }

    report.makespan_s = node_done.iter().cloned().fold(0.0, f64::max).max(1e-12);
    report.node_done_s = node_done;
    report
}

/// Plans and simulates for every feasible grid-row count `p` dividing the
/// node count (the §3.2 trade-off parameter) and returns the best
/// `(p, report)` — mirroring the paper's methodology of keeping the
/// best-performing process-grid parameters.
pub fn simulate_best_p(
    spec: &ProblemSpec,
    platform: &Platform,
) -> Result<(usize, SimReport), bst_contract::PlanError> {
    let mut best: Option<(usize, SimReport)> = None;
    let mut last_err = None;
    for p in 1..=platform.nodes {
        if platform.nodes % p != 0 {
            continue;
        }
        match ExecutionPlan::build(spec, platform.planner_config(p)) {
            Ok(plan) => {
                let r = simulate(spec, &plan, platform);
                if best
                    .as_ref()
                    .map(|(_, b)| r.makespan_s < b.makespan_s)
                    .unwrap_or(true)
                {
                    best = Some((p, r));
                }
            }
            Err(e) => last_err = Some(e),
        }
    }
    match best {
        Some(b) => Ok(b),
        None => Err(last_err.expect("p = 1 always attempted")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bst_sparse::generate::{generate, SyntheticParams};

    fn small_problem(density: f64) -> ProblemSpec {
        let prob = generate(&SyntheticParams {
            m: 2_000,
            n: 12_000,
            k: 12_000,
            density,
            tile_min: 128,
            tile_max: 512,
            seed: 5,
        });
        ProblemSpec::new(prob.a, prob.b, None)
    }

    fn run(spec: &ProblemSpec, nodes: usize, p: usize) -> SimReport {
        let platform = Platform::summit(nodes);
        let plan = ExecutionPlan::build(spec, platform.planner_config(p)).unwrap();
        simulate(spec, &plan, &platform)
    }

    #[test]
    fn makespan_respects_lower_bounds() {
        let spec = small_problem(0.5);
        let r = run(&spec, 2, 1);
        assert!(r.makespan_s >= r.compute_bound_s * 0.999);
        assert!(r.makespan_s >= r.h2d_bound_s * 0.999);
        assert!(r.makespan_s >= r.bgen_bound_s * 0.999);
        assert!(r.makespan_s > 0.0);
    }

    #[test]
    fn flops_match_plan_stats() {
        let spec = small_problem(0.5);
        let platform = Platform::summit(2);
        let plan = ExecutionPlan::build(&spec, platform.planner_config(1)).unwrap();
        let r = simulate(&spec, &plan, &platform);
        let stats = plan.stats(&spec);
        assert_eq!(r.total_flops, stats.total_flops);
        assert_eq!(r.total_tasks, stats.total_tasks);
        assert_eq!(r.a_network_bytes, stats.a_network_bytes);
    }

    #[test]
    fn never_exceeds_aggregate_peak() {
        let spec = small_problem(1.0);
        let r = run(&spec, 2, 1);
        let peak = 2.0 * 6.0 * 7.8; // Tflop/s
        assert!(r.tflops() < peak, "{} exceeds peak {peak}", r.tflops());
    }

    #[test]
    fn denser_is_faster_per_flop_but_slower_overall() {
        // Fig. 2 / Fig. 4 trends: density ↓ ⇒ Tflop/s ↓ and time ↓.
        let dense = run(&small_problem(1.0), 2, 1);
        let sparse = run(&small_problem(0.25), 2, 1);
        assert!(
            dense.tflops() > sparse.tflops(),
            "dense {} !> sparse {}",
            dense.tflops(),
            sparse.tflops()
        );
        assert!(
            dense.makespan_s > sparse.makespan_s,
            "dense {} !> sparse {} time",
            dense.makespan_s,
            sparse.makespan_s
        );
    }

    #[test]
    fn more_nodes_reduce_time() {
        // Paper-shaped tiles (§5.1 uses ~728-row tiles): with the tiny
        // 128–512 tiles of `small_problem` the arithmetic intensity is so
        // low that per-GPU I/O serialization flattens the scaling curve
        // entirely. At realistic tile sizes the node count must pay off.
        let prob = generate(&SyntheticParams {
            m: 2_000,
            n: 12_000,
            k: 12_000,
            density: 1.0,
            tile_min: 512,
            tile_max: 1024,
            seed: 5,
        });
        let spec = ProblemSpec::new(prob.a, prob.b, None);
        let t2 = run(&spec, 2, 1).makespan_s;
        let t4 = run(&spec, 4, 1).makespan_s;
        assert!(t4 < t2, "4 nodes {t4} !< 2 nodes {t2}");
        // ... but not perfectly (communication grows).
        assert!(t4 > t2 / 2.0 * 0.9);
    }

    #[test]
    fn trace_covers_compute_time() {
        let spec = small_problem(0.5);
        let platform = Platform::summit(2);
        let plan = ExecutionPlan::build(&spec, platform.planner_config(1)).unwrap();
        let mut trace = crate::replay::Trace::default();
        let r = crate::replay::simulate_traced(&spec, &plan, &platform, Some(&mut trace));
        assert!(!trace.gpus.is_empty());
        let traced_compute: f64 = trace
            .gpus
            .iter()
            .flat_map(|g| g.compute.iter().map(|(s, e)| e - s))
            .sum();
        assert!((traced_compute - r.compute_busy_s).abs() < 1e-6 * r.compute_busy_s.max(1.0));
        // Intervals end within the makespan and utilization is sane.
        for g in &trace.gpus {
            for &(s, e) in g.compute.iter().chain(&g.transfer) {
                assert!(s <= e);
                assert!(e <= r.makespan_s * 1.0001);
            }
            let u = g.compute_utilization(r.makespan_s);
            assert!((0.0..=1.0).contains(&u));
        }
        // The Gantt renders one row per GPU.
        let chart = trace.gantt(r.makespan_s, 60);
        assert_eq!(chart.lines().count(), trace.gpus.len());
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn platform_mismatch_panics() {
        let spec = small_problem(1.0);
        let plan = ExecutionPlan::build(&spec, Platform::summit(2).planner_config(1)).unwrap();
        simulate(&spec, &plan, &Platform::summit(3));
    }
}
