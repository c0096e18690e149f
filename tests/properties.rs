//! Property-based integration tests (proptest): randomized problem shapes,
//! grids and memory budgets, with the single-threaded block-sparse product
//! as the oracle.

use bst::contract::engine::execute;
use bst::contract::{
    DeviceConfig, ExecOptions, ExecutionPlan, GridConfig, PlannerConfig, ProblemSpec,
};
use bst::sparse::generate::{generate, SyntheticParams};
use bst::sparse::matrix::tile_seed;
use bst::sparse::BlockSparseMatrix;
use proptest::prelude::*;

fn arb_params() -> impl Strategy<Value = SyntheticParams> {
    (
        8u64..48,
        16u64..96,
        16u64..96,
        0.15f64..1.0,
        2u64..6,
        0u64..1000,
    )
        .prop_map(|(m, n, k, density, tmin, seed)| SyntheticParams {
            m,
            n,
            k,
            density,
            tile_min: tmin,
            tile_max: tmin * 3,
            seed,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The distributed execution equals the reference for random problems,
    /// random grids and random (tight) memory budgets.
    #[test]
    fn distributed_matches_reference(
        params in arb_params(),
        p in 1usize..3,
        q in 1usize..4,
        gpus in 1usize..4,
        mem_kb in 8u64..64,
    ) {
        let prob = generate(&params);
        let spec = ProblemSpec::new(prob.a.clone(), prob.b.clone(), None);
        let config = PlannerConfig::paper(
            GridConfig { p, q },
            DeviceConfig { gpus_per_node: gpus, gpu_mem_bytes: mem_kb << 10 },
        );
        // Tight budgets can make single tiles unplannable; that is a valid
        // rejection, not a failure.
        let plan = match ExecutionPlan::build(&spec, config) {
            Ok(p) => p,
            Err(_) => return Ok(()),
        };
        let a = BlockSparseMatrix::random_from_structure(prob.a.clone(), params.seed);
        let b = BlockSparseMatrix::random_from_structure(prob.b.clone(), params.seed ^ 0xB);
        let b_gen = |k: usize, j: usize, r: usize, c: usize, pool: &bst_tile::TilePool| {
            Ok(std::sync::Arc::new(pool.random(r, c, tile_seed(params.seed ^ 0xB, k, j))))
        };
        let (c, _) = execute(&spec, &plan, &a, &b_gen, ExecOptions::default()).unwrap();
        let mut c_ref = BlockSparseMatrix::zeros(
            prob.a.row_tiling().clone(),
            prob.b.col_tiling().clone(),
        );
        c_ref.gemm_acc_reference(&a, &b);
        prop_assert!(c.max_abs_diff(&c_ref) < 1e-9);
    }

    /// Plan invariants hold for random problems: blocks within budget,
    /// chunks within budget, tasks cover exactly the non-zero pairs.
    #[test]
    fn plan_invariants(
        params in arb_params(),
        q in 1usize..5,
        gpus in 1usize..4,
    ) {
        let prob = generate(&params);
        let spec = ProblemSpec::new(prob.a.clone(), prob.b.clone(), None);
        let config = PlannerConfig::paper(
            GridConfig { p: 1, q },
            DeviceConfig { gpus_per_node: gpus, gpu_mem_bytes: 1 << 20 },
        );
        let plan = match ExecutionPlan::build(&spec, config) {
            Ok(p) => p,
            Err(_) => return Ok(()),
        };
        for node in &plan.nodes {
            for gpu in &node.gpus {
                for bp in &gpu.blocks {
                    prop_assert!(bp.block.bytes <= config.block_budget());
                    for chunk in &bp.chunks {
                        prop_assert!(chunk.bytes <= config.chunk_budget());
                    }
                }
            }
        }
        let mut count = 0u64;
        let mut seen = std::collections::HashSet::new();
        let mut duplicate = None;
        plan.for_each_task(&spec, |_, _, t| {
            count += 1;
            if !seen.insert(t) {
                duplicate = Some(t);
            }
        });
        prop_assert!(duplicate.is_none(), "duplicate task {duplicate:?}");
        let expect = bst::sparse::structure::gemm_task_count(&spec.a, &spec.b, None);
        prop_assert_eq!(count, expect);
    }

    /// The simulator's accounting matches the plan's for random problems,
    /// and its makespan respects the structural lower bounds.
    #[test]
    fn simulator_consistency(
        params in arb_params(),
        nodes in 1usize..4,
    ) {
        let prob = generate(&params);
        let spec = ProblemSpec::new(prob.a.clone(), prob.b.clone(), None);
        let mut platform = bst::sim::Platform::summit(nodes);
        platform.gpus_per_node = 2;
        platform.gpu_mem_bytes = 1 << 20;
        let config = PlannerConfig::paper(
            GridConfig { p: 1, q: nodes },
            DeviceConfig { gpus_per_node: 2, gpu_mem_bytes: 1 << 20 },
        );
        let plan = match ExecutionPlan::build(&spec, config) {
            Ok(p) => p,
            Err(_) => return Ok(()),
        };
        let stats = plan.stats(&spec);
        let report = bst::sim::simulate(&spec, &plan, &platform);
        prop_assert_eq!(report.total_flops, stats.total_flops);
        prop_assert_eq!(report.total_tasks, stats.total_tasks);
        prop_assert!(report.makespan_s >= report.compute_bound_s * 0.999);
        prop_assert!(report.makespan_s >= report.h2d_bound_s * 0.999);
        prop_assert!(report.makespan_s.is_finite());
    }
}
