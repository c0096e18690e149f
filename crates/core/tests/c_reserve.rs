//! The process-wide C reserve across contractions. Alone in its test binary:
//! every contraction's assembly resets the reserve's bound and frees the
//! shelves its C did not ask for, so a contraction of another test running
//! in parallel could take away the buffers this one means to recycle.

use std::sync::Arc;

use bst_contract::engine::execute;
use bst_contract::engine::inspector::{self, Op};
use bst_contract::{
    DeviceConfig, ExecOptions, ExecutionPlan, GridConfig, PlannerConfig, ProblemSpec,
};
use bst_sparse::generate::{generate, SyntheticParams};
use bst_sparse::matrix::tile_seed;
use bst_sparse::BlockSparseMatrix;
use bst_tile::pool::TilePool;

/// The C tiles the blocks of a lowering reach with at least one product,
/// counted once per block: a block's stacks are lowered between its
/// `LoadBlock` and its `FlushBlock`, one block at a time.
fn reached_c_tiles(low: &inspector::Lowered) -> usize {
    let mut reached = 0;
    let mut block = std::collections::HashSet::new();
    for id in 0..low.graph.len() {
        match low.graph.payload(id) {
            Op::LoadBlock { .. } => block.clear(),
            Op::Gemm { j, rows, .. } => block.extend(low.rows_of(rows).iter().map(|&i| (i, *j))),
            Op::FlushBlock { .. } => reached += block.len(),
            _ => {}
        }
    }
    reached
}

/// C buffers come back warm: a contraction writes its C into the buffers an
/// earlier result left in the C reserve, whose stale values its first
/// products — or, for a tile no product of its block reaches, its flush —
/// must clear. A 2×2 grid whose columns split along `k`, so that blocks
/// hold C tiles none of their products reach, is run, then run on other
/// values (whose result is dropped, filling the reserve), then run on the
/// first values again: the first and the last run agree to the bit.
#[test]
fn stale_c_buffers_never_leak_into_the_result() {
    // Tiles of 24 to 40 edges: most C tiles are a page or more, which the
    // reserve lends.
    let prob = generate(&SyntheticParams {
        m: 320,
        n: 1280,
        k: 1280,
        density: 0.3,
        tile_min: 24,
        tile_max: 40,
        seed: 3,
    });
    let spec = ProblemSpec::new(prob.a, prob.b, None);
    let config = PlannerConfig::paper(
        GridConfig { p: 2, q: 2 },
        DeviceConfig { gpus_per_node: 1, gpu_mem_bytes: 160 << 10 },
    );
    let plan = ExecutionPlan::build(&spec, config).unwrap();
    let low = inspector::lower(&spec, &plan, &ExecOptions::default());
    assert!(low.reduce.iter().all(|rn| rn.partials > rn.keys.len()), "every rank splits along k");
    let partials: usize = low.reduce.iter().map(|rn| rn.partials).sum();
    let reached = reached_c_tiles(&low);
    assert!(reached < partials, "some block holds a C tile no product reaches");

    let run = |seed: u64| {
        let am = BlockSparseMatrix::random_from_structure(spec.a.clone(), seed);
        let b_gen = |k: usize, j: usize, r: usize, c: usize, pool: &TilePool| {
            Ok(Arc::new(pool.random(r, c, tile_seed(seed ^ 0xB, k, j))))
        };
        execute(&spec, &plan, &am, &b_gen, ExecOptions::default()).unwrap()
    };
    let (cold, _) = run(41);
    drop(run(42));
    let (warm, report) = run(41);
    // The last run drew stale buffers: more takes hit than B takes alone.
    let hits: u64 = report.pool_stats.iter().map(|ps| ps.hits).sum();
    assert!(hits > report.b_tiles_generated, "no C take was recycled: {:?}", report.pool_stats);
    assert_eq!(warm.num_tiles(), cold.num_tiles());
    assert!(warm.max_abs_diff(&cold) == 0.0, "a stale value leaked into C");
    for (&(i, j), tile) in cold.iter_tiles() {
        assert_eq!(
            warm.structure().shape().norm(i, j).to_bits(),
            cold.structure().shape().norm(i, j).to_bits(),
            "C({i},{j}) norm"
        );
        assert_eq!(warm.tile(i, j), Some(tile), "C({i},{j})");
    }
}
