//! CPU-only execution model — the MPQC comparison of §5.2.
//!
//! The paper evaluates the same ABCD contraction with the CPU-only MPQC
//! code on {8, 16} Summit nodes (672 cores total at 16 nodes) and measures
//! {308, 158} s, estimating ≈17% efficiency of a ≈2 Tflop/s per-node peak.
//! This model reproduces that estimate: time = flops / (nodes ·
//! effective-rate), plus the same inter-node A-broadcast term as the GPU
//! path (the CPU code is also bandwidth-limited at scale).

use crate::platform::Platform;
use bst_sparse::structure::{product_flops_screened, product_structure};
use bst_contract::ProblemSpec;

/// Simulated CPU-only execution time (s) of the contraction on `nodes`
/// nodes of `platform`.
pub fn simulate_cpu_only(spec: &ProblemSpec, platform: &Platform) -> f64 {
    let cshape = match &spec.c_shape {
        Some(cs) => cs.clone(),
        None => product_structure(&spec.a, &spec.b, 0.0).shape().clone(),
    };
    let flops = product_flops_screened(&spec.a, &spec.b, &cshape) as f64;
    let compute = flops / (platform.nodes as f64 * platform.cpu_flops_effective);
    // A broadcast across the flat node row (p = 1 layout).
    let q = platform.nodes as f64;
    let a_bytes = spec.a.bytes() as f64;
    let network = a_bytes * (q - 1.0) / q / platform.nic_bw;
    compute.max(network)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bst_sparse::generate::{generate, SyntheticParams};

    fn spec() -> ProblemSpec {
        let prob = generate(&SyntheticParams {
            m: 4_000,
            n: 16_000,
            k: 16_000,
            density: 1.0,
            tile_min: 256,
            tile_max: 512,
            seed: 2,
        });
        ProblemSpec::new(prob.a, prob.b, None)
    }

    #[test]
    fn doubling_nodes_halves_compute_bound_time() {
        let s = spec();
        let t8 = simulate_cpu_only(&s, &Platform::summit(8));
        let t16 = simulate_cpu_only(&s, &Platform::summit(16));
        assert!(t16 < t8);
        assert!((t8 / t16 - 2.0).abs() < 0.2, "ratio {}", t8 / t16);
    }

    #[test]
    fn cpu_is_much_slower_than_gpus() {
        let s = spec();
        let platform = Platform::summit(2);
        let plan = bst_contract::ExecutionPlan::build(&s, platform.planner_config(1)).unwrap();
        let gpu_time = crate::replay::simulate(&s, &plan, &platform).makespan_s;
        let cpu_time = simulate_cpu_only(&s, &platform);
        assert!(
            cpu_time > 3.0 * gpu_time,
            "cpu {cpu_time} vs gpu {gpu_time}"
        );
    }
}
