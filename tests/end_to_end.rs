//! Cross-crate integration tests: the full pipeline from molecule to
//! verified contraction result, plus distributed-vs-reference agreement.

use bst::chem::{CcsdProblem, Molecule, ScreeningParams, TilingSpec};
use bst::contract::engine::execute;
use bst::contract::{
    DeviceConfig, ExecOptions, ExecutionPlan, GridConfig, PlannerConfig, ProblemSpec,
};
use bst::sparse::generate::{generate, SyntheticParams};
use bst::sparse::matrix::tile_seed;
use bst::sparse::BlockSparseMatrix;
use bst::tile::Tile;

fn cfg(p: usize, q: usize, g: usize, mem: u64) -> PlannerConfig {
    PlannerConfig::paper(
        GridConfig { p, q },
        DeviceConfig {
            gpus_per_node: g,
            gpu_mem_bytes: mem,
        },
    )
}

fn reference(a: &BlockSparseMatrix, b: &BlockSparseMatrix) -> BlockSparseMatrix {
    let mut c = BlockSparseMatrix::zeros(
        a.structure().row_tiling().clone(),
        b.structure().col_tiling().clone(),
    );
    c.gemm_acc_reference(a, b);
    c
}

#[test]
fn parsec_style_matches_dense_reference_on_synthetic_problem() {
    let prob = generate(&SyntheticParams {
        m: 60,
        n: 90,
        k: 90,
        density: 0.45,
        tile_min: 5,
        tile_max: 15,
        seed: 21,
    });
    let a = BlockSparseMatrix::random_from_structure(prob.a.clone(), 1);
    let b = BlockSparseMatrix::random_from_structure(prob.b.clone(), 2);

    // The paper's algorithm, numerically.
    let spec = ProblemSpec::new(prob.a.clone(), prob.b.clone(), None);
    let plan = ExecutionPlan::build(&spec, cfg(2, 2, 2, 1 << 20)).unwrap();
    let b_gen =
        |k: usize, j: usize, r: usize, c: usize, pool: &bst_tile::TilePool| Ok(std::sync::Arc::new(pool.random(r, c, tile_seed(2, k, j))));
    let (c_parsec, _) = execute(&spec, &plan, &a, &b_gen, ExecOptions::default()).unwrap();

    let c_ref = reference(&a, &b);
    assert!(c_parsec.max_abs_diff(&c_ref) < 1e-9);
}

#[test]
fn abcd_term_end_to_end_small_molecule() {
    // Molecule → basis → clustering → screening → plan → numeric execution.
    let molecule = Molecule::alkane(3);
    let problem = CcsdProblem::build(
        &molecule,
        TilingSpec::v1().scaled_for(&molecule),
        ScreeningParams::default(),
        9,
    );
    let spec = ProblemSpec::new(
        problem.t.clone(),
        problem.v.clone(),
        Some(problem.r.shape().clone()),
    );
    let plan = ExecutionPlan::build(&spec, cfg(1, 2, 2, 32 << 20)).unwrap();
    let t = BlockSparseMatrix::random_from_structure(problem.t.clone(), 5);
    let v_gen =
        |k: usize, j: usize, r: usize, c: usize, pool: &bst_tile::TilePool| Ok(std::sync::Arc::new(pool.random(r, c, tile_seed(6, k, j))));
    let (r, report) = execute(&spec, &plan, &t, &v_gen, ExecOptions::default()).unwrap();
    assert!(report.gemm_tasks > 0);

    let v = BlockSparseMatrix::from_structure(problem.v.clone(), |k, j, rr, cc| {
        Tile::random(rr, cc, tile_seed(6, k, j))
    });
    let full = reference(&t, &v);
    // Every kept R tile matches the reference; screened tiles are absent.
    for (&(i, j), tile) in r.iter_tiles() {
        let expect = full.tile(i, j).expect("kept tile must have a reference value");
        assert!(tile.max_abs_diff(expect) < 1e-9);
        assert!(problem.r.shape().is_nonzero(i, j));
    }
}

#[test]
fn plan_stats_match_numeric_execution() {
    let prob = generate(&SyntheticParams {
        m: 40,
        n: 80,
        k: 80,
        density: 0.6,
        tile_min: 4,
        tile_max: 12,
        seed: 33,
    });
    let spec = ProblemSpec::new(prob.a.clone(), prob.b.clone(), None);
    let plan = ExecutionPlan::build(&spec, cfg(2, 2, 1, 1 << 20)).unwrap();
    let stats = plan.stats(&spec);
    let a = BlockSparseMatrix::random_from_structure(prob.a, 3);
    let b_gen =
        |k: usize, j: usize, r: usize, c: usize, pool: &bst_tile::TilePool| Ok(std::sync::Arc::new(pool.random(r, c, tile_seed(4, k, j))));
    let (_c, report) = execute(&spec, &plan, &a, &b_gen, ExecOptions::default()).unwrap();
    assert_eq!(report.gemm_tasks, stats.total_tasks);
    assert_eq!(report.a_network_bytes, stats.a_network_bytes);
    // Device h2d totals are bounded by the plan's A-traffic plus the B
    // (not C) part of the block traffic; C is allocated on-device, and
    // refcounted residency can save some of the planned A re-loads.
    let h2d: u64 = report.devices.iter().map(|(_, d)| d.h2d_bytes + d.d2d_bytes).sum();
    let p = plan.config.grid.p as u64;
    assert!(h2d <= stats.a_h2d_bytes + p * spec.b.bytes());
    assert!(h2d >= p * spec.b.bytes());
}

#[test]
fn simulator_and_numeric_executor_count_same_work() {
    let prob = generate(&SyntheticParams {
        m: 30,
        n: 60,
        k: 60,
        density: 0.5,
        tile_min: 4,
        tile_max: 10,
        seed: 8,
    });
    let spec = ProblemSpec::new(prob.a.clone(), prob.b.clone(), None);
    let config = cfg(1, 2, 3, 1 << 20);
    let plan = ExecutionPlan::build(&spec, config).unwrap();

    let platform = {
        let mut p = bst::sim::Platform::summit(2);
        p.gpus_per_node = 3;
        p.gpu_mem_bytes = 1 << 20;
        p
    };
    let sim = bst::sim::simulate(&spec, &plan, &platform);

    let a = BlockSparseMatrix::random_from_structure(prob.a, 3);
    let b_gen =
        |k: usize, j: usize, r: usize, c: usize, pool: &bst_tile::TilePool| Ok(std::sync::Arc::new(pool.random(r, c, tile_seed(4, k, j))));
    let (_c, report) = execute(&spec, &plan, &a, &b_gen, ExecOptions::default()).unwrap();

    assert_eq!(sim.total_tasks, report.gemm_tasks);
    assert_eq!(sim.a_network_bytes, report.a_network_bytes);
}

#[test]
fn shrunken_gpu_memory_still_correct_with_more_blocks() {
    // Failure-style injection: squeeze the device until the plan needs many
    // blocks and chunks, and confirm the result stays exact.
    let prob = generate(&SyntheticParams {
        m: 48,
        n: 96,
        k: 96,
        density: 0.8,
        tile_min: 4,
        tile_max: 8,
        seed: 55,
    });
    let spec = ProblemSpec::new(prob.a.clone(), prob.b.clone(), None);
    let a = BlockSparseMatrix::random_from_structure(prob.a.clone(), 1);
    let b = BlockSparseMatrix::random_from_structure(prob.b.clone(), 2);
    let c_ref = reference(&a, &b);
    let b_gen =
        |k: usize, j: usize, r: usize, c: usize, pool: &bst_tile::TilePool| Ok(std::sync::Arc::new(pool.random(r, c, tile_seed(2, k, j))));

    let mut last_blocks = 0;
    for mem in [1u64 << 20, 64 << 10, 24 << 10] {
        let plan = ExecutionPlan::build(&spec, cfg(1, 2, 2, mem)).unwrap();
        let stats = plan.stats(&spec);
        assert!(stats.num_blocks >= last_blocks);
        last_blocks = stats.num_blocks;
        let (c, _) = execute(&spec, &plan, &a, &b_gen, ExecOptions::default()).unwrap();
        assert!(
            c.max_abs_diff(&c_ref) < 1e-9,
            "wrong result at {mem} B of GPU memory"
        );
    }
    assert!(last_blocks > 2, "the squeeze should have forced blocking");
}

#[test]
fn oversized_column_splitting_keeps_result_exact() {
    // One huge dense column that cannot fit in half a device: the planner
    // must k-segment it and the result must still be exact.
    let prob = generate(&SyntheticParams {
        m: 24,
        n: 30,
        k: 120,
        density: 1.0,
        tile_min: 6,
        tile_max: 10,
        seed: 70,
    });
    let spec = ProblemSpec::new(prob.a.clone(), prob.b.clone(), None);
    // B columns: 120 x ~8 doubles ≈ 7.7 kB; budget of 4 kB forces splits.
    let plan = ExecutionPlan::build(&spec, cfg(1, 1, 1, 8 << 10)).unwrap();
    let split_blocks = plan
        .nodes
        .iter()
        .flat_map(|n| n.gpus.iter())
        .flat_map(|g| g.blocks.iter())
        .filter(|bp| bp.block.spans.iter().any(|s| s.k_lo != 0))
        .count();
    assert!(split_blocks > 0, "expected k-segmented column parts");

    let a = BlockSparseMatrix::random_from_structure(prob.a.clone(), 1);
    let b = BlockSparseMatrix::random_from_structure(prob.b.clone(), 2);
    let b_gen =
        |k: usize, j: usize, r: usize, c: usize, pool: &bst_tile::TilePool| Ok(std::sync::Arc::new(pool.random(r, c, tile_seed(2, k, j))));
    let (c, _) = execute(&spec, &plan, &a, &b_gen, ExecOptions::default()).unwrap();
    assert!(c.max_abs_diff(&reference(&a, &b)) < 1e-9);
}

#[test]
fn determinism_across_runs() {
    let prob = generate(&SyntheticParams {
        m: 30,
        n: 40,
        k: 40,
        density: 0.7,
        tile_min: 4,
        tile_max: 9,
        seed: 99,
    });
    let spec = ProblemSpec::new(prob.a.clone(), prob.b.clone(), None);
    let plan = ExecutionPlan::build(&spec, cfg(2, 1, 2, 1 << 20)).unwrap();
    let a = BlockSparseMatrix::random_from_structure(prob.a, 3);
    let b_gen =
        |k: usize, j: usize, r: usize, c: usize, pool: &bst_tile::TilePool| Ok(std::sync::Arc::new(pool.random(r, c, tile_seed(4, k, j))));
    let (c1, _) = execute(&spec, &plan, &a, &b_gen, ExecOptions::default()).unwrap();
    let (c2, _) = execute(&spec, &plan, &a, &b_gen, ExecOptions::default()).unwrap();
    // Scheduling is nondeterministic but the result must not be: within a
    // destination tile, accumulation order is fixed by the chunk order.
    assert_eq!(c1.max_abs_diff(&c2), 0.0);
}

/// FNV-1a over every tile of `c` in `(i, j)` order: coordinates, shape and
/// the bit pattern of every value.
fn fnv_fingerprint(c: &BlockSparseMatrix) -> u64 {
    let mut tiles: Vec<_> = c.iter_tiles().collect();
    tiles.sort_by_key(|(&ij, _)| ij);
    let mut d = bst::contract::service::hash::Digest::new();
    for (&(i, j), t) in tiles {
        let t = t.to_dense();
        for v in [i, j, t.rows(), t.cols()] {
            d.push(v as u64);
        }
        for v in t.data() {
            d.push(v.to_bits());
        }
    }
    d.finish()
}

/// Fingerprints of C captured at commit 67b293a (per-product Gemm tasks,
/// padded micro-kernel edges) on an AVX2+FMA host. Stacks, masked edges and
/// by-reference operands must not move one bit of either.
const GOLDEN_SYNTHETIC: u64 = 0xc993_2b32_28c6_eabd;
const GOLDEN_ABCD: u64 = 0x81cc_98af_7f80_eab3;

#[test]
fn golden_digest_synthetic_ragged_2x2() {
    // 2 nodes × 2 lanes, tiles of 3..=17 (every row remainder of the 8 × 6
    // micro-tile), devices tight enough for several blocks and chunks.
    let prob = generate(&SyntheticParams {
        m: 90,
        n: 150,
        k: 150,
        density: 0.5,
        tile_min: 3,
        tile_max: 17,
        seed: 41,
    });
    let spec = ProblemSpec::new(prob.a.clone(), prob.b.clone(), None);
    let plan = ExecutionPlan::build(&spec, cfg(1, 2, 2, 96 << 10)).unwrap();
    let stats = plan.stats(&spec);
    assert!(stats.num_blocks > 4 && stats.num_chunks > stats.num_blocks);
    let a = BlockSparseMatrix::random_from_structure(prob.a, 3);
    let b_gen =
        |k: usize, j: usize, r: usize, c: usize, pool: &bst_tile::TilePool| Ok(std::sync::Arc::new(pool.random(r, c, tile_seed(4, k, j))));
    let (c, report) = execute(&spec, &plan, &a, &b_gen, ExecOptions::default()).unwrap();
    assert_eq!(report.gemm_tasks, stats.total_tasks);
    if bst::tile::gemm::simd_available() {
        assert_eq!(fnv_fingerprint(&c), GOLDEN_SYNTHETIC, "C moved: {:#018x}", fnv_fingerprint(&c));
    }
}

#[test]
fn golden_digest_abcd_einsum() {
    use bst::contract::einsum::Einsum;
    use bst::sparse::tensor::{BlockSparseTensor4, Tensor4Meta};
    use bst::tile::Tiling;
    // Occupied pairs of 9 / 12 / 16 rows against AO pairs of 25 / 35 / 49:
    // the shapes `ccsd_abcd` is made of, with a banded V and a screened R.
    let o = Tiling::from_sizes(&[3, 4, 3]);
    let u = Tiling::from_sizes(&[5, 7, 5, 7]);
    let t_meta = Tensor4Meta::new([o.clone(), o.clone(), u.clone(), u.clone()]);
    let t_struct = t_meta.matricise(|i, j, c, d| if (i + j + c + d) % 5 == 0 { 0.0 } else { 1.0 });
    let t = BlockSparseTensor4::random_from_structure(t_meta, t_struct, 11);
    let v_meta = Tensor4Meta::new([u.clone(), u.clone(), u.clone(), u.clone()]);
    let v_struct = v_meta.matricise(|c, d, a, b| {
        if c.abs_diff(a) <= 1 && d.abs_diff(b) <= 2 { 1.0 } else { 0.0 }
    });
    let r_meta = Tensor4Meta::new([o.clone(), o.clone(), u.clone(), u.clone()]);
    let r_shape = r_meta
        .matricise(|i, j, a, b| if (i + 2 * j + a + b) % 7 == 0 { 0.0 } else { 1.0 })
        .shape()
        .clone();
    let v_gen =
        |k: usize, j: usize, r: usize, c: usize, pool: &bst_tile::TilePool| Ok(std::sync::Arc::new(pool.random(r, c, tile_seed(12, k, j))));
    let out = Einsum::new("ijcd,cdab->ijab")
        .tensor(&t)
        .on_demand_tensor4(&v_meta, &v_struct, &v_gen)
        .output_shape(r_shape)
        .contract(cfg(2, 1, 1, 128 << 10))
        .unwrap();
    assert!(out.reports[0].gemm_tasks > 500);
    if bst::tile::gemm::simd_available() {
        let got = fnv_fingerprint(out.matrix());
        assert_eq!(got, GOLDEN_ABCD, "R moved: {got:#018x}");
    }
}
