//! Quickstart: multiply two block-sparse matrices with the full
//! distributed-style pipeline and check the result against a reference.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Walks through the whole stack on a small problem:
//! 1. build irregular tilings and block-sparse structures,
//! 2. run the inspector (column assignment → blocks → chunks),
//! 3. execute the plan numerically on the PaRSEC-style runtime
//!    (simulated nodes, GPUs and explicit communication),
//! 4. validate against the single-threaded reference product.

use bst::contract::{
    DeviceConfig, ExecOptions, ExecutionPlan, GridConfig, PlannerConfig, ProblemSpec,
};
use bst::sparse::generate::{generate, SyntheticParams};
use bst::sparse::matrix::tile_seed;
use bst::sparse::BlockSparseMatrix;
use bst::tile::Tile;

fn main() {
    // A 300 x 2400 x 2400 block-sparse problem at 50% density with
    // irregular tiles — a miniature of the paper's synthetic setup.
    let problem = generate(&SyntheticParams {
        m: 300,
        n: 2_400,
        k: 2_400,
        density: 0.5,
        tile_min: 32,
        tile_max: 96,
        seed: 7,
    });
    let spec = ProblemSpec::new(problem.a, problem.b, None);
    println!(
        "problem: A {}x{} ({} tiles), B {}x{} ({} tiles), density {:.0}%",
        spec.a.rows(),
        spec.a.cols(),
        spec.a.nnz_tiles(),
        spec.b.rows(),
        spec.b.cols(),
        spec.b.nnz_tiles(),
        spec.b.element_density() * 100.0
    );

    // A 2 x 2 grid of nodes, 2 "GPUs" each, 1 MiB of device memory — small
    // enough to force multiple blocks and chunks.
    let config = PlannerConfig::paper(
        GridConfig { p: 2, q: 2 },
        DeviceConfig {
            gpus_per_node: 2,
            gpu_mem_bytes: 1 << 20,
        },
    );
    let plan = ExecutionPlan::build(&spec, config).expect("plan");
    let stats = plan.stats(&spec);
    println!(
        "plan: {} GEMM tasks, {} blocks, {} chunks, load imbalance {:.2}",
        stats.total_tasks, stats.num_blocks, stats.num_chunks, stats.load_imbalance
    );

    // Numeric execution: A is "pre-distributed", B is generated on demand
    // on the node that needs each tile (pure function of its coordinates).
    let a = BlockSparseMatrix::random_from_structure(spec.a.clone(), 1);
    let b_seed = 2u64;
    let b_gen = |k: usize, j: usize, r: usize, c: usize, pool: &bst_tile::TilePool| {
        Ok(std::sync::Arc::new(pool.random(r, c, tile_seed(b_seed, k, j))))
    };
    let (c, report) =
        bst::contract::engine::execute(&spec, &plan, &a, &b_gen, ExecOptions::default())
            .expect("execution");
    println!(
        "executed {} GEMMs on {} simulated devices; {} B tiles generated, {:.1} MB of A over the network",
        report.gemm_tasks,
        report.devices.len(),
        report.b_tiles_generated,
        report.a_network_bytes as f64 / 1e6
    );

    // Validate against the reference.
    let b = BlockSparseMatrix::from_structure(spec.b.clone(), |k, j, r, cc| {
        Tile::random(r, cc, tile_seed(b_seed, k, j))
    });
    let mut c_ref = BlockSparseMatrix::zeros(spec.a.row_tiling().clone(), spec.b.col_tiling().clone());
    c_ref.gemm_acc_reference(&a, &b);
    let err = c.max_abs_diff(&c_ref);
    println!("max |C - C_ref| = {err:.3e}");
    assert!(err < 1e-9, "distributed result must match the reference");
    println!("OK");
}
