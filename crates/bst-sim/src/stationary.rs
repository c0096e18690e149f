//! Replay of the stationary-C plan (the paper's dense-square comparator,
//! ref \[22\]) on the same [`Platform`] model as the main algorithm — used to
//! reproduce the paper's observation that a dense-oriented algorithm
//! reaches 80–90% of GEMM peak on square dense problems where the
//! B-stationary algorithm reaches ~30–50%, while the roles invert on the
//! CCSD shape (B 100× larger than C).

use crate::platform::Platform;
use bst_contract::stationary_c::StationaryCPlan;
use bst_contract::ProblemSpec;

/// Timing/volume report of a stationary-C replay.
#[derive(Clone, Debug, Default)]
pub struct StationaryCReport {
    /// End-to-end simulated time (s).
    pub makespan_s: f64,
    /// Total flops.
    pub total_flops: u128,
    /// Total GEMM tasks.
    pub total_tasks: u64,
    /// Host→device bytes (A + B streams).
    pub h2d_bytes: u64,
}

impl StationaryCReport {
    /// Aggregate sustained Tflop/s.
    pub fn tflops(&self) -> f64 {
        self.total_flops as f64 / self.makespan_s / 1e12
    }
}

/// Replays a stationary-C plan: per GPU, blocks run back-to-back; within a
/// block, k-chunks stream through the host↔device link with a depth-1
/// prefetch window while GEMM chains accumulate into the resident C; the
/// C rectangle flushes once at block end. Remote A/B panels arrive over the
/// node NIC (2-d broadcast: A along grid rows, B along grid columns).
pub fn simulate_stationary_c(
    spec: &ProblemSpec,
    plan: &StationaryCPlan,
    platform: &Platform,
) -> StationaryCReport {
    let (p, q) = (plan.config.grid.p, plan.config.grid.q);
    assert_eq!(
        platform.nodes * platform.gpus_per_node,
        p * q * plan.config.device.gpus_per_node,
        "platform GPU count must match the plan grid"
    );

    let mut report = StationaryCReport::default();
    let mut makespan = 0.0f64;

    for (ni, gpu_plans) in plan.nodes.iter().enumerate() {
        let (pr, pc) = (ni / q, ni % q);
        // Remote volume for the node: A tiles owned by other grid columns,
        // B tiles owned by other grid rows (both 2D-cyclic).
        let mut node_remote = 0u64;
        let mut node_remote_tiles = 0u64;
        let mut seen_a = std::collections::HashSet::new();
        let mut seen_b = std::collections::HashSet::new();
        for gp in gpu_plans {
            for block in &gp.blocks {
                for chunk in &block.k_chunks {
                    for &k in &chunk.ks {
                        for &i in &block.rows {
                            if spec.a.shape().is_nonzero(i as usize, k as usize)
                                && (k as usize) % q != pc
                                && seen_a.insert((i, k))
                            {
                                node_remote += spec.a.tile_area(i as usize, k as usize) * 8;
                                node_remote_tiles += 1;
                            }
                        }
                        for &j in &block.cols {
                            if spec.b.shape().is_nonzero(k as usize, j as usize)
                                && (k as usize) % p != pr
                                && seen_b.insert((k, j))
                            {
                                node_remote += spec.b.row_tiling().size(k as usize)
                                    * spec.b.col_tiling().size(j as usize)
                                    * 8;
                                node_remote_tiles += 1;
                            }
                        }
                    }
                }
            }
        }
        // Dense panels travel as large aggregated messages; only the bare
        // network latency applies per tile, not the block-sparse runtime's
        // per-tile activation overhead.
        let node_net_time = node_remote as f64 / platform.nic_bw
            + node_remote_tiles as f64 * platform.nic_latency_s;

        let g_active = gpu_plans.iter().filter(|g| !g.blocks.is_empty()).count().max(1);
        let _ = g_active;

        for gp in gpu_plans {
            let mut link_free = 0.0f64;
            let mut flush_done = 0.0f64;
            let mut compute_done: Vec<f64> = Vec::new();
            let mut streamed_cum = 0u64;
            let total_streamed: u64 = gp
                .blocks
                .iter()
                .flat_map(|b| b.k_chunks.iter().map(|c| c.a_bytes + c.b_bytes))
                .sum();
            for block in &gp.blocks {
                // C allocated on device (no h2d).
                let mut last_compute = flush_done.max(link_free);
                for chunk in &block.k_chunks {
                    let n = compute_done.len();
                    streamed_cum += chunk.a_bytes + chunk.b_bytes;
                    let arrival = if node_remote > 0 && total_streamed > 0 {
                        (streamed_cum as f64 / total_streamed as f64) * node_net_time
                    } else {
                        0.0
                    };
                    let window = if n >= 2 { compute_done[n - 2] } else { 0.0 };
                    let tstart = link_free.max(window).max(arrival).max(flush_done);
                    // Dense panels stage as a few large contiguous pinned
                    // buffers ([22]); no per-tile staging cost.
                    let load_s =
                        (chunk.a_bytes + chunk.b_bytes) as f64 / platform.h2d_bulk_bw + 40e-6;
                    let tdone = tstart + load_s;
                    link_free = tdone;
                    report.h2d_bytes += chunk.a_bytes + chunk.b_bytes;

                    // Compute: all GEMMs of the chunk.
                    let mut compute_s = 0.0;
                    for &k in &chunk.ks {
                        for &i in &block.rows {
                            if !spec.a.shape().is_nonzero(i as usize, k as usize) {
                                continue;
                            }
                            let m = spec.a.row_tiling().size(i as usize);
                            let kk = spec.a.col_tiling().size(k as usize);
                            for &j in &block.cols {
                                if spec.b.shape().is_nonzero(k as usize, j as usize)
                                    && spec.c_kept(i as usize, j as usize)
                                {
                                    let nn = spec.b.col_tiling().size(j as usize);
                                    compute_s += platform.gemm_time(m, nn, kk);
                                    report.total_flops += (2 * m * nn * kk) as u128;
                                    report.total_tasks += 1;
                                }
                            }
                        }
                    }
                    let prev = compute_done.last().copied().unwrap_or(0.0);
                    let cstart = tdone.max(prev);
                    let cdone = cstart + compute_s;
                    compute_done.push(cdone);
                    last_compute = cdone;
                }
                // Flush the C rectangle once.
                let c_tiles = (block.rows.len() * block.cols.len()) as f64;
                let _ = c_tiles;
                let flush_s = block.c_bytes as f64 / platform.h2d_bulk_bw + 40e-6;
                flush_done = last_compute.max(link_free) + flush_s;
                link_free = flush_done;
            }
            makespan = makespan.max(flush_done);
        }
    }
    report.makespan_s = makespan.max(1e-12);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use bst_sparse::generate::{generate, SyntheticParams};

    fn spec(m: u64, nk: u64, density: f64, tmin: u64, tmax: u64) -> ProblemSpec {
        let prob = generate(&SyntheticParams {
            m,
            n: nk,
            k: nk,
            density,
            tile_min: tmin,
            tile_max: tmax,
            seed: 3,
        });
        ProblemSpec::new(prob.a, prob.b, None)
    }

    #[test]
    fn stationary_c_dominates_on_dense_square() {
        // The paper's [22] comparison: on the square dense 48k problem the
        // dense-oriented algorithm should approach 80-90% of the 672
        // Tflop/s aggregate peak, far above the B-stationary algorithm's
        // ~30%. [22] picks its own *uniform* tiling for a dense problem
        // (the irregular tiling is a constraint of the chemistry data, not
        // of the dense benchmark).
        use bst_sparse::MatrixStructure;
        use bst_tile::Tiling;
        let t = Tiling::uniform(48_000, 1_600);
        let s = ProblemSpec::new(
            MatrixStructure::dense(t.clone(), t.clone()),
            MatrixStructure::dense(t.clone(), t),
            None,
        );
        let platform = Platform::summit(16);
        let plan = StationaryCPlan::build(&s, platform.planner_config(4)).unwrap();
        let r = simulate_stationary_c(&s, &plan, &platform);
        assert!(
            (400.0..700.0).contains(&r.tflops()),
            "stationary-C dense square: {} Tflop/s",
            r.tflops()
        );
        // The B-stationary algorithm on the same (irregularly tiled, as in
        // Fig. 2) problem reaches far less.
        let irregular = spec(48_000, 48_000, 1.0, 512, 2048);
        let (_p, bstat) = crate::replay::simulate_best_p(&irregular, &platform).unwrap();
        assert!(
            r.tflops() > 1.5 * bstat.tflops(),
            "stationary-C {} vs B-stationary {}",
            r.tflops(),
            bstat.tflops()
        );
    }

    #[test]
    fn b_stationary_circulates_less_on_ccsd_shape() {
        // The paper's §3.1 design rationale is about *network circulation*:
        // "to minimize network traffic, we need to avoid circulating the
        // largest of the matrices, so B will be stationary." On a square
        // grid the stationary-C algorithm must circulate most of the huge
        // B; the B-stationary algorithm circulates only the small A.
        let s = spec(2_000, 100_000, 0.3, 256, 1024);
        let platform = Platform::summit(4);
        // Square-ish grid (p = 2, q = 2) — what a dense 2-d algorithm uses.
        let splan = StationaryCPlan::build(&s, platform.planner_config(2)).unwrap();
        let mut sc_remote = 0u64;
        // Recompute the stationary-C network volume the way the replay does.
        let (p, q) = (2usize, 2usize);
        for (ni, gpu_plans) in splan.nodes.iter().enumerate() {
            let (pr, pc) = (ni / q, ni % q);
            let mut seen = std::collections::HashSet::new();
            for gp in gpu_plans {
                for block in &gp.blocks {
                    for chunk in &block.k_chunks {
                        for &k in &chunk.ks {
                            for &j in &block.cols {
                                if s.b.shape().is_nonzero(k as usize, j as usize)
                                    && (k as usize) % p != pr
                                    && seen.insert((k, j, pc))
                                {
                                    sc_remote += s.b.row_tiling().size(k as usize)
                                        * s.b.col_tiling().size(j as usize)
                                        * 8;
                                }
                            }
                        }
                    }
                }
            }
        }
        // B-stationary with p = 1 circulates only A (and never B).
        let bplan = crate::replay::simulate(
            &s,
            &bst_contract::ExecutionPlan::build(&s, platform.planner_config(1)).unwrap(),
            &platform,
        );
        assert!(
            sc_remote > 5 * bplan.a_network_bytes,
            "stationary-C circulates {} B-bytes vs B-stationary's {} A-bytes",
            sc_remote,
            bplan.a_network_bytes
        );
    }

    #[test]
    fn flops_match_task_enumeration() {
        let s = spec(1_000, 4_000, 0.5, 64, 256);
        let platform = Platform::summit(1);
        let plan = StationaryCPlan::build(&s, platform.planner_config(1)).unwrap();
        let r = simulate_stationary_c(&s, &plan, &platform);
        let mut flops = 0u128;
        plan.for_each_task(&s, |i, k, j| {
            flops += (2
                * s.a.row_tiling().size(i as usize)
                * s.b.col_tiling().size(j as usize)
                * s.a.col_tiling().size(k as usize)) as u128;
        });
        assert_eq!(r.total_flops, flops);
        assert_eq!(
            flops,
            bst_sparse::structure::product_flops(&s.a, &s.b)
        );
    }
}
