//! Runs the same block-sparse product through all three execution paths —
//! the single-threaded reference, the DBCSR-style Cannon baseline, and the
//! paper's distributed multi-GPU algorithm — and compares results and
//! communication volumes.
//!
//! ```text
//! cargo run --release --example baseline_comparison
//! ```

use bst::contract::engine::execute;
use bst::contract::{
    DeviceConfig, ExecOptions, ExecutionPlan, GridConfig, PlannerConfig, ProblemSpec,
};
use bst::dbcsr::cannon_multiply;
use bst::sparse::generate::{generate, SyntheticParams};
use bst::sparse::matrix::tile_seed;
use bst::sparse::BlockSparseMatrix;

fn main() {
    let prob = generate(&SyntheticParams {
        m: 200,
        n: 1_600,
        k: 1_600,
        density: 0.4,
        tile_min: 24,
        tile_max: 72,
        seed: 17,
    });
    println!(
        "problem: A {}x{}, B {}x{}, density {:.0}%",
        prob.a.rows(),
        prob.a.cols(),
        prob.b.rows(),
        prob.b.cols(),
        prob.b.element_density() * 100.0
    );
    let a = BlockSparseMatrix::random_from_structure(prob.a.clone(), 1);
    let b = BlockSparseMatrix::random_from_structure(prob.b.clone(), 2);

    // Reference.
    let mut c_ref = BlockSparseMatrix::zeros(
        prob.a.row_tiling().clone(),
        prob.b.col_tiling().clone(),
    );
    c_ref.gemm_acc_reference(&a, &b);

    // Cannon (DBCSR-style), 3 x 3 grid.
    let (c_cannon, stats) = cannon_multiply(&a, &b, 3);
    println!(
        "Cannon 3x3: {} local GEMMs, shifted {:.1} MB of A and {:.1} MB of B; |diff| = {:.2e}",
        stats.local_gemms,
        stats.a_shift_bytes as f64 / 1e6,
        stats.b_shift_bytes as f64 / 1e6,
        c_cannon.max_abs_diff(&c_ref)
    );

    // The paper's algorithm on 2 x 2 nodes with 2 GPUs each.
    let spec = ProblemSpec::new(prob.a.clone(), prob.b.clone(), None);
    let config = PlannerConfig::paper(
        GridConfig { p: 2, q: 2 },
        DeviceConfig {
            gpus_per_node: 2,
            gpu_mem_bytes: 8 << 20,
        },
    );
    let plan = ExecutionPlan::build(&spec, config).expect("plan");
    let b_gen = |k: usize, j: usize, r: usize, c: usize, pool: &bst_tile::TilePool| {
        Ok(std::sync::Arc::new(pool.random(r, c, tile_seed(2, k, j))))
    };
    let (c_bst, report) =
        execute(&spec, &plan, &a, &b_gen, ExecOptions::default()).expect("execution");
    println!(
        "B-stationary 2x2x2: {} GEMMs, A over network {:.1} MB ({} msgs, {} forwarded), B never moves; |diff| = {:.2e}",
        report.gemm_tasks,
        report.a_network_bytes as f64 / 1e6,
        report.a_messages,
        report.a_forward_messages,
        c_bst.max_abs_diff(&c_ref)
    );

    assert!(c_cannon.max_abs_diff(&c_ref) < 1e-9);
    assert!(c_bst.max_abs_diff(&c_ref) < 1e-9);
    println!("OK — all three paths agree bit-for-bit (within fp accumulation order)");
}
