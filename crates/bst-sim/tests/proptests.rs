//! Property tests for the performance simulator: structural lower bounds,
//! monotonicity in machine parameters, and accounting consistency.

use bst_contract::{ExecutionPlan, ProblemSpec};
use bst_sim::{simulate, Platform};
use bst_sparse::generate::{generate, SyntheticParams};
use proptest::prelude::*;

fn make_spec(m: u64, nk: u64, density: f64, seed: u64) -> ProblemSpec {
    let prob = generate(&SyntheticParams {
        m,
        n: nk,
        k: nk,
        density,
        tile_min: 32,
        tile_max: 128,
        seed,
    });
    ProblemSpec::new(prob.a, prob.b, None)
}

fn plan_for(spec: &ProblemSpec, platform: &Platform, p: usize) -> ExecutionPlan {
    ExecutionPlan::build(spec, platform.planner_config(p)).expect("plan")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Makespan always respects the structural lower bounds, and perf never
    /// exceeds the machine's aggregate kernel peak.
    #[test]
    fn bounds_hold(
        m in 500u64..3000,
        nk in 4000u64..16000,
        density in 0.2f64..1.0,
        nodes in 1usize..4,
        seed in 0u64..100,
    ) {
        let spec = make_spec(m, nk, density, seed);
        let platform = Platform::summit(nodes);
        let plan = plan_for(&spec, &platform, 1);
        let r = simulate(&spec, &plan, &platform);
        prop_assert!(r.makespan_s.is_finite() && r.makespan_s > 0.0);
        prop_assert!(r.makespan_s >= r.compute_bound_s * 0.999);
        prop_assert!(r.makespan_s >= r.h2d_bound_s * 0.999);
        prop_assert!(r.makespan_s >= r.bgen_bound_s * 0.999);
        let peak = platform.total_gpus() as f64 * platform.gemm_peak_flops;
        prop_assert!(r.flops_per_s() < peak);
    }

    /// A faster machine is never slower: doubling the GEMM peak, the H2D
    /// bandwidth or the NIC bandwidth must not increase the makespan.
    #[test]
    fn monotone_in_machine_parameters(
        density in 0.2f64..1.0,
        seed in 0u64..100,
    ) {
        let spec = make_spec(1500, 8000, density, seed);
        let base = Platform::summit(2);
        let plan = plan_for(&spec, &base, 1);
        let t0 = simulate(&spec, &plan, &base).makespan_s;

        let mut faster_gemm = base;
        faster_gemm.gemm_peak_flops *= 2.0;
        prop_assert!(simulate(&spec, &plan, &faster_gemm).makespan_s <= t0 * 1.0001);

        let mut faster_h2d = base;
        faster_h2d.h2d_bw *= 2.0;
        faster_h2d.d2h_bw *= 2.0;
        prop_assert!(simulate(&spec, &plan, &faster_h2d).makespan_s <= t0 * 1.0001);

        let mut faster_nic = base;
        faster_nic.nic_bw *= 2.0;
        prop_assert!(simulate(&spec, &plan, &faster_nic).makespan_s <= t0 * 1.0001);

        let mut faster_gen = base;
        faster_gen.cpu_gen_rate *= 2.0;
        prop_assert!(simulate(&spec, &plan, &faster_gen).makespan_s <= t0 * 1.0001);
    }

    /// Flops and tasks are invariant across p (the work does not depend on
    /// the grid shape), while B generation grows proportionally to p.
    #[test]
    fn work_invariant_across_p(density in 0.3f64..1.0, seed in 0u64..100) {
        let spec = make_spec(2000, 8000, density, seed);
        let platform = Platform::summit(4);
        let plan1 = plan_for(&spec, &platform, 1);
        let plan2 = plan_for(&spec, &platform, 2);
        let r1 = simulate(&spec, &plan1, &platform);
        let r2 = simulate(&spec, &plan2, &platform);
        prop_assert_eq!(r1.total_flops, r2.total_flops);
        prop_assert_eq!(r1.total_tasks, r2.total_tasks);
        let s1 = plan1.stats(&spec);
        let s2 = plan2.stats(&spec);
        prop_assert_eq!(s2.b_generated_bytes, 2 * s1.b_generated_bytes);
        prop_assert!(s2.a_network_bytes <= s1.a_network_bytes);
    }
}
