//! The paper's motivating application end-to-end at laptop scale: evaluate
//! the ABCD term of CCSD, `R^{ij}_{ab} = Σ_{cd} T^{ij}_{cd} V^{cd}_{ab}`,
//! for a small alkane chain, numerically, on the simulated distributed
//! multi-GPU runtime.
//!
//! ```text
//! cargo run --release --example ccsd_abcd [carbons]
//! ```
//!
//! Builds the molecule, the def2-SVP-like basis, the k-means tilings, the
//! screened block-sparse shapes of T / V / R, plans the contraction, runs
//! it, and verifies the result against a dense reference.

use bst::chem::{CcsdProblem, Molecule, ProblemTraits, ScreeningParams, TilingSpec};
use bst::contract::{
    DeviceConfig, ExecOptions, ExecutionPlan, GridConfig, PlannerConfig, ProblemSpec,
};
use bst::sparse::matrix::tile_seed;
use bst::sparse::BlockSparseMatrix;
use bst::tile::Tile;

fn main() {
    let carbons: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("carbons must be an integer"))
        .unwrap_or(4);
    let molecule = Molecule::alkane(carbons);
    println!(
        "molecule {} — O = {} localised occupied orbitals, U = {} AOs",
        molecule.formula(),
        bst::chem::basis::occupied_rank(&molecule),
        bst::chem::basis::ao_rank(&molecule)
    );

    let spec_t = TilingSpec::v1().scaled_for(&molecule);
    let problem = CcsdProblem::build(&molecule, spec_t, ScreeningParams::default(), 42);
    let traits = ProblemTraits::compute(&problem);
    println!("{}", traits.table_row("problem"));

    // Matricised contraction: A = T (O² x U²), B = V (U² x U²), C = R.
    let spec = ProblemSpec::new(
        problem.t.clone(),
        problem.v.clone(),
        Some(problem.r.shape().clone()),
    );
    let config = PlannerConfig::paper(
        GridConfig { p: 1, q: 2 },
        DeviceConfig {
            gpus_per_node: 2,
            gpu_mem_bytes: 64 << 20,
        },
    );
    let plan = ExecutionPlan::build(&spec, config).expect("plan");
    let stats = plan.stats(&spec);
    println!(
        "plan: {} GEMM tasks over 2 nodes x 2 GPUs; {} blocks, {} chunks",
        stats.total_tasks, stats.num_blocks, stats.num_chunks
    );

    // T gets deterministic random amplitudes; V is generated on demand
    // exactly as in the paper's benchmark (random data, physical shape).
    let t = BlockSparseMatrix::random_from_structure(problem.t.clone(), 0x7E);
    let v_seed = 0xABCDu64;
    let v_gen = |k: usize, j: usize, r: usize, c: usize, pool: &bst_tile::TilePool| {
        Ok(std::sync::Arc::new(pool.random(r, c, tile_seed(v_seed, k, j))))
    };
    let (r, report) =
        bst::contract::engine::execute(&spec, &plan, &t, &v_gen, ExecOptions::default())
            .expect("execution");
    println!(
        "executed: {} GEMMs, {} V tiles generated on demand",
        report.gemm_tasks, report.b_tiles_generated
    );

    // Verify against the reference product masked by R's screened shape.
    // (The dense reference costs O(U^4) memory, so skip it for big chains.)
    if problem.dims.k() > 15_000 {
        println!("skipping dense verification for U^2 = {} (too large)", problem.dims.k());
        return;
    }
    let v = BlockSparseMatrix::from_structure(problem.v.clone(), |k, j, rr, cc| {
        Tile::random(rr, cc, tile_seed(v_seed, k, j))
    });
    let mut r_ref = BlockSparseMatrix::zeros(
        problem.t.row_tiling().clone(),
        problem.v.col_tiling().clone(),
    );
    r_ref.gemm_acc_reference(&t, &v);
    let mut masked = BlockSparseMatrix::zeros(
        problem.t.row_tiling().clone(),
        problem.v.col_tiling().clone(),
    );
    for (&(i, j), tile) in r_ref.iter_tiles() {
        if problem.r.shape().is_nonzero(i, j) {
            masked.insert_tile(i, j, tile.clone());
        }
    }
    let err = r.max_abs_diff(&masked);
    println!("max |R - R_ref| = {err:.3e}");
    assert!(err < 1e-9);
    println!("OK — the ABCD term matches the reference");
}
