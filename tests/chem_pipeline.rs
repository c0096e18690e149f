//! End-to-end chemistry pipeline tests over all molecule families:
//! geometry → basis → clustering → screening → plan → numeric execution →
//! reference check. Exercises the 2-d and 3-d workloads (the paper's §7
//! future-work molecules) through the same code path as the alkanes.

use bst::chem::{CcsdProblem, Molecule, ScreeningParams, TilingSpec};
use bst::contract::{DeviceConfig, Einsum, GridConfig, PlannerConfig};
use bst::sparse::matrix::tile_seed;
use bst::sparse::tensor::{BlockSparseTensor4, Tensor4Meta};
use bst::sparse::BlockSparseMatrix;
use bst::tile::Tile;

fn config(q: usize, g: usize) -> PlannerConfig {
    PlannerConfig::paper(
        GridConfig { p: 1, q },
        DeviceConfig {
            gpus_per_node: g,
            gpu_mem_bytes: 64 << 20,
        },
    )
}

fn check_molecule(molecule: &Molecule, seed: u64) {
    let spec_t = TilingSpec::v1().scaled_for(molecule);
    let problem = CcsdProblem::build(molecule, spec_t, ScreeningParams::default(), seed);
    let spec = bst::contract::ProblemSpec::new(
        problem.t.clone(),
        problem.v.clone(),
        Some(problem.r.shape().clone()),
    );
    let t = BlockSparseMatrix::random_from_structure(problem.t.clone(), seed);
    let v_gen = move |k: usize, j: usize, r: usize, c: usize, pool: &bst_tile::TilePool| {
        Ok(std::sync::Arc::new(pool.random(r, c, tile_seed(seed ^ 0xF, k, j))))
    };
    let out = Einsum::new("ik,kj->ij")
        .operand(&t)
        .on_demand(&problem.v, &v_gen)
        .output_shape(problem.r.shape().clone())
        .contract(config(2, 2))
        .expect("plan");
    assert!(out.report().gemm_tasks > 0, "{}: no work", molecule.formula());
    let r = out.matrix();

    // Verify a sample of produced tiles against a direct per-tile
    // reference: R_ij = sum_k T_ik V_kj (forming the whole dense reference
    // would cost O(U^4) memory for the compact molecules).
    let mut checked = 0usize;
    for (&(i, j), tile) in r.iter_tiles() {
        if (i * 31 + j * 17) % 11 != 0 && checked > 0 {
            continue;
        }
        let mut expect = Tile::zeros(tile.rows(), tile.cols());
        for k in 0..spec.tile_inner() {
            let (Some(at), true) = (
                t.tile(i, k),
                spec.b.shape().is_nonzero(k, j),
            ) else {
                continue;
            };
            let rows = spec.b.row_tiling().size(k) as usize;
            let cols = spec.b.col_tiling().size(j) as usize;
            let vt = Tile::random(rows, cols, tile_seed(seed ^ 0xF, k, j));
            bst::tile::gemm::gemm_blocked(1.0, at, &vt, &mut expect);
        }
        assert!(
            tile.max_abs_diff(&expect) < 1e-9,
            "{}: mismatch at ({i},{j})",
            molecule.formula()
        );
        checked += 1;
        if checked >= 8 {
            break;
        }
    }
    assert!(checked > 0, "{}: nothing verified", molecule.formula());
}

#[test]
fn alkane_chain_pipeline() {
    check_molecule(&Molecule::alkane(4), 11);
}

#[test]
fn sheet_pipeline() {
    check_molecule(&Molecule::sheet(2, 2), 12);
}

#[test]
fn cluster3d_pipeline() {
    check_molecule(&Molecule::cluster3d(2), 13);
}

#[test]
fn tensor_level_abcd_on_molecule() {
    // The high-level tensor API over a chemistry problem: build T as an
    // order-4 tensor over (occ, occ, ao, ao) and contract with V.
    let molecule = Molecule::alkane(3);
    let problem = CcsdProblem::build(
        &molecule,
        TilingSpec::v1().scaled_for(&molecule),
        ScreeningParams::default(),
        21,
    );
    let meta = Tensor4Meta::new([
        problem.occ.tiling(),
        problem.occ.tiling(),
        problem.ao.tiling(),
        problem.ao.tiling(),
    ]);
    let t = BlockSparseTensor4::random_from_structure(meta, problem.t.clone(), 3);
    let v_gen =
        |k: usize, j: usize, r: usize, c: usize, pool: &bst_tile::TilePool| Ok(std::sync::Arc::new(pool.random(r, c, tile_seed(4, k, j))));
    let ao = problem.ao.tiling();
    let v_meta = Tensor4Meta::new([ao.clone(), ao.clone(), ao.clone(), ao]);
    let out = Einsum::new("ijcd,cdab->ijab")
        .tensor(&t)
        .on_demand_tensor4(&v_meta, &problem.v, &v_gen)
        .output_shape(problem.r.shape().clone())
        .contract(config(1, 2))
        .expect("contract");
    assert!(out.report().gemm_tasks > 0);
    let r = out.tensor4().expect("rank-4 outcome");
    // Spot-check one element against the matricised reference.
    let v = BlockSparseMatrix::from_structure(problem.v.clone(), |k, j, rr, cc| {
        Tile::random(rr, cc, tile_seed(4, k, j))
    });
    let mut r_ref = BlockSparseMatrix::zeros(
        problem.t.row_tiling().clone(),
        problem.v.col_tiling().clone(),
    );
    r_ref.gemm_acc_reference(t.matricised(), &v);
    let rm = r.matricised();
    for (&(i, j), tile) in rm.iter_tiles() {
        let expect = r_ref.tile(i, j).expect("reference tile");
        assert!(tile.max_abs_diff(expect) < 1e-9);
    }
}
