//! Integration + property tests for the einsum frontend: generated
//! instances must agree with dense references and be bit-identical to an
//! independent plan-level run (hand-built `ProblemSpec` →
//! `ExecutionPlan::build` → `engine::execute`), chains must thread
//! screened intermediates correctly, and malformed specs or bindings must
//! come back as typed errors.

use std::sync::Arc;

use bst_contract::einsum::{Einsum, SpecError};
use bst_contract::engine::{self, BGen};
use bst_contract::error::GenError;
use bst_contract::{
    BstError, DeviceConfig, ExecOptions, ExecutionPlan, GridConfig, PlannerConfig, ProblemSpec,
};
use bst_sparse::generate::{generate, SyntheticParams};
use bst_sparse::matrix::tile_seed;
use bst_sparse::tensor::{BlockSparseTensor4, Tensor4Meta};
use bst_sparse::{BlockSparseMatrix, MatrixStructure};
use bst_tile::pool::TilePool;
use bst_tile::{Tile, Tiling};
use proptest::prelude::*;

fn cfg(p: usize, q: usize, g: usize) -> PlannerConfig {
    PlannerConfig::paper(
        GridConfig { p, q },
        DeviceConfig {
            gpus_per_node: g,
            gpu_mem_bytes: 1 << 20,
        },
    )
}

/// Dense reference for `A · B` over the engine's own tile accumulate.
fn reference(a: &BlockSparseMatrix, b: &BlockSparseMatrix) -> BlockSparseMatrix {
    let mut c = BlockSparseMatrix::zeros(
        a.structure().row_tiling().clone(),
        b.structure().col_tiling().clone(),
    );
    c.gemm_acc_reference(a, b);
    c
}

/// The independent reference of the bit-identity gates: the product the
/// einsum lowering should arrive at, built by hand and run through the
/// plan-level door.
fn plan_level(
    a: &BlockSparseMatrix,
    b_structure: &MatrixStructure,
    b_gen: BGen<'_>,
    config: PlannerConfig,
) -> BlockSparseMatrix {
    let spec = ProblemSpec::new(a.structure().clone(), b_structure.clone(), None);
    let plan = ExecutionPlan::build(&spec, config).unwrap();
    engine::execute(&spec, &plan, a, b_gen, ExecOptions::default()).unwrap().0
}

/// Single-term einsum on a generated block-sparse instance over a `1 × q`
/// grid with 2 GPUs per node: the result agrees with the dense reference
/// and is bit-identical to the plan-level run of the same product.
fn check_single_term(seed: u64, q: usize) {
    let prob = generate(&SyntheticParams {
        m: 20, n: 40, k: 30, density: 0.6, tile_min: 3, tile_max: 8, seed,
    });
    let a = BlockSparseMatrix::random_from_structure(prob.a, seed ^ 1);
    let b = BlockSparseMatrix::random_from_structure(prob.b, seed ^ 2);
    let out = Einsum::new("ik,kj->ij")
        .operand(&a)
        .operand(&b)
        .contract(cfg(1, q, 2))
        .unwrap();
    assert_eq!(out.output_labels(), "ij");
    assert!(out.matrix().max_abs_diff(&reference(&a, &b)) <= 1e-10);
    let serve_b = |k: usize, j: usize, _r: usize, _c: usize, _pool: &TilePool| {
        b.tile_arc(k, j).cloned().ok_or(GenError::MissingTile { k, j })
    };
    let c = plan_level(&a, b.structure(), &serve_b, cfg(1, q, 2));
    assert_eq!(out.matrix().max_abs_diff(&c), 0.0);
}

#[test]
fn single_term_on_a_1x2_grid_matches_dense_reference() {
    check_single_term(4, 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn single_term_matches_dense_reference(seed in 0u64..200, q in 1usize..3) {
        check_single_term(seed, q);
    }

    /// A two-term chain `A·B·D` with randomized tilings: the screened
    /// intermediate threads between the lowered products and the final
    /// result agrees with the dense reference to 1e-10.
    #[test]
    fn two_term_chain_matches_dense(
        ti in prop::collection::vec(1u64..6, 1..4),
        tj in prop::collection::vec(1u64..6, 1..4),
        tk in prop::collection::vec(1u64..6, 1..4),
        tl in prop::collection::vec(1u64..6, 1..4),
        seed in 0u64..100,
    ) {
        let t = |sizes: &[u64]| Tiling::from_sizes(sizes);
        let a = BlockSparseMatrix::random_from_structure(
            MatrixStructure::dense(t(&ti), t(&tj)), seed ^ 1);
        let b = BlockSparseMatrix::random_from_structure(
            MatrixStructure::dense(t(&tj), t(&tk)), seed ^ 2);
        let d = BlockSparseMatrix::random_from_structure(
            MatrixStructure::dense(t(&tk), t(&tl)), seed ^ 3);
        let out = Einsum::new("ij,jk,kl->il")
            .operand(&a)
            .operand(&b)
            .operand(&d)
            .contract(cfg(1, 1, 1))
            .unwrap();
        prop_assert_eq!(out.reports.len(), 2, "two lowered terms");
        let expect = reference(&reference(&a, &b), &d);
        prop_assert!(out.matrix().max_abs_diff(&expect) <= 1e-10);
    }
}

/// The ABCD contraction as a *generated instance* of the frontend: the
/// builder's lowering of `"ijcd,cdab->ijab"` must be bit-identical to the
/// hand-matricised `T · V` product run at plan level (same plan, same
/// reduction order), and both agree with a dense evaluation.
#[test]
fn abcd_generated_instance_is_bit_identical_to_plan_level_run() {
    let o = Tiling::from_sizes(&[2, 2]);
    let u = Tiling::from_sizes(&[3, 2, 3]);
    let t_meta = Tensor4Meta::new([o.clone(), o.clone(), u.clone(), u.clone()]);
    let t_struct = t_meta.matricise(|_, _, _, _| 1.0);
    let t = BlockSparseTensor4::random_from_structure(t_meta, t_struct, 11);

    let v_meta = Tensor4Meta::new([u.clone(), u.clone(), u.clone(), u.clone()]);
    let v_struct = v_meta.matricise(|_, _, _, _| 1.0);
    let v_gen = |k: usize, j: usize, r: usize, c: usize, pool: &TilePool| {
        Ok(Arc::new(pool.random(r, c, tile_seed(12, k, j))))
    };

    let r_plan = plan_level(t.matricised(), &v_struct, &v_gen, cfg(1, 1, 1));

    let out = Einsum::new("ijcd,cdab->ijab")
        .tensor(&t)
        .on_demand_tensor4(&v_meta, &v_struct, &v_gen)
        .contract(cfg(1, 1, 1))
        .unwrap();
    assert_eq!(out.output_labels(), "ijab");
    assert!(out.reports[0].gemm_tasks > 0);
    let r = out.tensor4().unwrap();
    assert_eq!(
        r.matricised().max_abs_diff(&r_plan),
        0.0,
        "the generated instance must be bit-identical to the plan-level run"
    );

    // Dense agreement: R(i,j,a,b) = sum_{c,d} T(i,j,c,d) V(c,d,a,b).
    let v_mat = BlockSparseMatrix::from_structure(v_struct.clone(), |k, j, rr, cc| {
        Tile::random(rr, cc, tile_seed(12, k, j))
    });
    let v_tensor = BlockSparseTensor4::from_structure(
        Tensor4Meta::new([u.clone(), u.clone(), u.clone(), u.clone()]),
        v_mat.structure().clone(),
        |t0, t1, t2, t3, _r, _c| v_mat.tile(t0 * 3 + t1, t2 * 3 + t3).unwrap().clone(),
    );
    for (i, j, a, b) in [(0u64, 1, 2, 3), (3, 0, 7, 5), (1, 2, 0, 0)] {
        let mut expect = 0.0;
        for c in 0..8 {
            for d in 0..8 {
                expect += t.get(i, j, c, d) * v_tensor.get(c, d, a, b);
            }
        }
        let got = r.get(i, j, a, b);
        assert!((got - expect).abs() < 1e-10, "R({i},{j},{a},{b}) = {got}, expected {expect}");
    }
}

/// The swapped orientation: `"jk,ij->ik"` has no direct lowering, so the
/// frontend flips the product to `next · acc` — keeping the first operand
/// stationary, which is exactly what an on-demand binding needs.
#[test]
fn swapped_orientation_keeps_first_operand_stationary() {
    let prob = generate(&SyntheticParams {
        m: 16, n: 24, k: 24, density: 0.8, tile_min: 3, tile_max: 6, seed: 7,
    });
    let a = BlockSparseMatrix::random_from_structure(prob.a.clone(), 1);
    let b_gen = |k: usize, j: usize, r: usize, c: usize, pool: &TilePool| {
        Ok(Arc::new(pool.random(r, c, tile_seed(9, k, j))))
    };
    let out = Einsum::new("jk,ij->ik")
        .on_demand(&prob.b, &b_gen)
        .operand(&a)
        .contract(cfg(1, 1, 1))
        .unwrap();
    assert_eq!(out.output_labels(), "ik");
    let b = BlockSparseMatrix::from_structure(prob.b.clone(), |k, j, rr, cc| {
        Tile::random(rr, cc, tile_seed(9, k, j))
    });
    assert!(out.matrix().max_abs_diff(&reference(&a, &b)) <= 1e-10);
}

/// An on-demand B on a 2×1 grid: the outcome carries the term's execution
/// report, and a permanent generator failure surfaces as a typed
/// [`BstError::Exec`] instead of a panic.
#[test]
fn on_demand_b_reports_and_surfaces_generator_errors() {
    let prob = generate(&SyntheticParams {
        m: 16, n: 24, k: 24, density: 0.8, tile_min: 3, tile_max: 6, seed: 5,
    });
    let a = BlockSparseMatrix::random_from_structure(prob.a.clone(), 1);
    let b_gen = |k: usize, j: usize, r: usize, c: usize, pool: &TilePool| {
        Ok(Arc::new(pool.random(r, c, tile_seed(9, k, j))))
    };
    let out = Einsum::new("ik,kj->ij")
        .operand(&a)
        .on_demand(&prob.b, &b_gen)
        .contract(cfg(2, 1, 1))
        .unwrap();
    assert!(out.reports[0].gemm_tasks > 0);
    assert!(out.matrix().num_tiles() > 0);

    let no_backend = |k: usize, j: usize, _r: usize, _c: usize, _pool: &TilePool| {
        Err(GenError::Failed { k, j, reason: "no backend".into(), transient: false })
    };
    let err = Einsum::new("ik,kj->ij")
        .operand(&a)
        .on_demand(&prob.b, &no_backend)
        .contract(cfg(1, 1, 1))
        .unwrap_err();
    assert!(matches!(err, BstError::Exec(_)), "got {err}");
}

/// Spec and binding rejections surface as typed [`BstError::Spec`] values:
/// repeated output modes, rank-mismatched bindings, unknown output
/// indices, wrong operand counts, disagreeing shared tilings, and
/// orientations the transpose-free lowering cannot realise.
#[test]
fn invalid_specs_and_bindings_are_typed_errors() {
    let prob = generate(&SyntheticParams {
        m: 12, n: 16, k: 16, density: 1.0, tile_min: 3, tile_max: 5, seed: 9,
    });
    let a = BlockSparseMatrix::random_from_structure(prob.a.clone(), 1);
    let b = BlockSparseMatrix::random_from_structure(prob.b.clone(), 2);
    let config = cfg(1, 1, 1);

    let spec_err = |e: Result<_, BstError>| match e.unwrap_err() {
        BstError::Spec(s) => s,
        other => panic!("expected BstError::Spec, got {other}"),
    };

    // Repeated output modes.
    let e = spec_err(Einsum::new("ik,kj->jj").operand(&a).operand(&b).contract(config));
    assert!(matches!(e, SpecError::RepeatedIndex { index: 'j', .. }), "{e}");

    // Unknown output index.
    let e = spec_err(Einsum::new("ik,kj->iz").operand(&a).operand(&b).contract(config));
    assert_eq!(e, SpecError::UnknownOutputIndex { index: 'z' });

    // A rank-4 spec term bound to a rank-2 operand.
    let e = spec_err(Einsum::new("ijcd,cdab->ijab").operand(&a).operand(&b).contract(config));
    assert_eq!(e, SpecError::RankMismatch { term: 0, spec_rank: 4, operand_rank: 2 });

    // Operand count disagrees with the spec.
    let e = spec_err(Einsum::new("ik,kj->ij").operand(&a).contract(config));
    assert_eq!(e, SpecError::OperandCount { expected: 2, got: 1 });

    // A shared index whose tilings disagree between its two terms.
    let b_bad = BlockSparseMatrix::random_from_structure(
        MatrixStructure::dense(
            Tiling::uniform(prob.b.row_tiling().extent(), 4),
            prob.b.col_tiling().clone(),
        ),
        2,
    );
    let e = spec_err(Einsum::new("ik,kj->ij").operand(&a).operand(&b_bad).contract(config));
    assert!(matches!(e, SpecError::TilingMismatch { index: 'k', .. }), "{e}");

    // The requested output order would need a result transpose.
    let e = spec_err(Einsum::new("ik,kj->ji").operand(&a).operand(&b).contract(config));
    assert!(matches!(e, SpecError::OutputOrder { .. }), "{e}");

    // An on-demand operand forced onto the moving (A) side.
    let b_gen = |k: usize, j: usize, r: usize, c: usize, pool: &TilePool| {
        Ok(Arc::new(pool.random(r, c, tile_seed(9, k, j))))
    };
    let e = spec_err(
        Einsum::new("ik,kj->ij").on_demand(&prob.a, &b_gen).operand(&b).contract(config),
    );
    assert!(matches!(e, SpecError::Unlowerable { term: 0, .. }), "{e}");
}

/// A `v_structure` whose tilings disagree with the matricisation of its
/// declared order-4 frame would mislabel the result's column tilings; it is
/// a typed rejection.
#[test]
fn abcd_rejects_mismatched_v_tilings() {
    let o = Tiling::from_sizes(&[2, 2]);
    let u = Tiling::from_sizes(&[3, 2, 3]);
    let t_meta = Tensor4Meta::new([o.clone(), o.clone(), u.clone(), u.clone()]);
    let t_struct = t_meta.matricise(|_, _, _, _| 1.0);
    let t = BlockSparseTensor4::random_from_structure(t_meta, t_struct, 11);
    let v_meta = Tensor4Meta::new([u.clone(), u.clone(), u.clone(), u.clone()]);

    // Same 64x64 element space, but tiled uniformly instead of with the
    // fused (u,u) tiling the V frame implies.
    let v_bad = MatrixStructure::dense(Tiling::uniform(64, 8), Tiling::uniform(64, 8));
    let v_gen = |k: usize, j: usize, r: usize, c: usize, pool: &TilePool| {
        Ok(Arc::new(pool.random(r, c, tile_seed(12, k, j))))
    };
    let err = Einsum::new("ijcd,cdab->ijab")
        .tensor(&t)
        .on_demand_tensor4(&v_meta, &v_bad, &v_gen)
        .contract(cfg(1, 1, 1))
        .unwrap_err();
    match err {
        BstError::Spec(SpecError::MatricisationMismatch { term: 1, .. }) => {}
        other => panic!("expected MatricisationMismatch on term 1, got {other}"),
    }
}
