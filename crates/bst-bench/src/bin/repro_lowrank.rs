//! Measures representation-polymorphic (low-rank) tile compression through
//! the full engine and emits a self-validated `results/BENCH_lowrank.json`.
//!
//! The workload is a low-rank-friendly contraction: every A and B tile has a
//! geometrically decaying spectrum (`σ_p = e^{-decay·p}`, the shape
//! electronic-structure amplitude blocks exhibit after screening), so a
//! rank-revealing truncation at a few-digit tolerance keeps a fraction of
//! each tile's dense bytes. Three legs over identical inputs:
//!
//! * **dense** — `compress_tol = 0.0`: the engine's bitwise-reference path;
//! * **lossy** — `compress_tol = tol`: A tiles truncate as they seed the
//!   stores, B tiles truncate at generation, rank-aware GEMMs consume the
//!   factors, and every byte counter sees stored (compressed) sizes;
//! * **stressors** — `compress_tol = 0.0` re-runs under delivery reorder,
//!   shaped links and transient-fault recovery: each must stay
//!   **bit-identical** (`max |diff| == 0.0`) to the dense leg, proving the
//!   zero tolerance takes literally no compression code path.
//!
//! Self-validation gates: B-tile stored bytes shrink ≥ 2× at the requested
//! tolerance, per-tile achieved truncation error ≤ requested everywhere, the
//! lossy result lands within a small multiple of the tolerance, A wire bytes
//! shrink, every stressor diff is exactly 0.0, and the emitted JSON
//! re-parses with the expected keys. Any violation exits non-zero, so CI can
//! gate on this binary directly.
//!
//! Usage:
//! ```text
//! repro_lowrank [--tiny] [--tol T] [--decay D] [--out FILE]
//! ```

use bst_bench::minijson;
use bst_contract::{
    DeviceConfig, ExecOptions, ExecutionPlan, FaultPlan, GridConfig, PlannerConfig, ProblemSpec,
};
use bst_runtime::comm::{DeliveryPolicy, LinkShaper};
use bst_sparse::matrix::tile_seed;
use bst_sparse::{BlockSparseMatrix, MatrixStructure};
use bst_tile::{Tile, Tiling};
use std::sync::Arc;

const USAGE: &str = "usage: repro_lowrank [--tiny] [--tol T] [--decay D] [--out FILE]";
const A_SEED: u64 = 42;
const B_SEED: u64 = 42 ^ 0xB;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut tiny = false;
    let mut tol = 1e-3f64;
    let mut decay = 1.5f64;
    let mut out_path = "results/BENCH_lowrank.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tiny" => tiny = true,
            "--tol" => {
                let s = it.next().unwrap_or_else(|| panic!("--tol needs a value"));
                tol = s.parse().unwrap_or_else(|_| panic!("--tol must be an f64, got {s}"));
                assert!(tol > 0.0 && tol < 1.0, "--tol must be in (0, 1)");
            }
            "--decay" => {
                let s = it.next().unwrap_or_else(|| panic!("--decay needs a value"));
                decay = s.parse().unwrap_or_else(|_| panic!("--decay must be an f64, got {s}"));
                assert!(decay > 0.0, "--decay must be positive");
            }
            "--out" => {
                out_path = it.next().unwrap_or_else(|| panic!("--out needs a file path")).clone()
            }
            other => panic!("unknown argument {other}\n{USAGE}"),
        }
    }

    // Uniform 32-edge tiles: the profitability ceiling of a 32x32 tile is
    // rank 15 while a decay-1.5 spectrum reaches 1e-3 around rank 5, so
    // compression is decisively profitable without being trivial.
    let (m, k, n) = if tiny { (96, 128, 96) } else { (192, 256, 256) };
    let edge = 32u64;
    let a_struct = MatrixStructure::dense(Tiling::uniform(m, edge), Tiling::uniform(k, edge));
    let b_struct = MatrixStructure::dense(Tiling::uniform(k, edge), Tiling::uniform(n, edge));
    let spec = ProblemSpec::new(a_struct, b_struct, None);
    let config = PlannerConfig::paper(
        GridConfig { p: 2, q: 2 },
        DeviceConfig { gpus_per_node: 2, gpu_mem_bytes: 1 << 21 },
    );
    let plan = ExecutionPlan::build(&spec, config).expect("plan");

    println!(
        "# low-rank compression benchmark — {m}x{n}x{k} (32-edge tiles), decay {decay}, tol {tol:e}"
    );

    let a = BlockSparseMatrix::from_structure(spec.a.clone(), |r, c, rows, cols| {
        Tile::random_lowrank(rows, cols, tile_seed(A_SEED, r, c), decay)
    });
    let b_gen = |kk: usize, j: usize, rows: usize, cols: usize, _p: &bst_tile::TilePool| {
        Ok(Arc::new(Tile::random_lowrank(rows, cols, tile_seed(B_SEED, kk, j), decay)))
    };
    let run = |opts: ExecOptions| {
        bst_contract::engine::execute(&spec, &plan, &a, &b_gen, opts).expect("run")
    };
    let sent = |rep: &bst_contract::ExecReport| {
        rep.comm.iter().map(|s| s.sent_bytes).sum::<u64>()
    };

    // ---- Leg 1: dense reference ------------------------------------------
    let (c_dense, rep_dense) = run(ExecOptions::default());
    let dense_wire = sent(&rep_dense);

    // ---- Leg 2: lossy ----------------------------------------------------
    let (c_lossy, rep_lossy) = run(ExecOptions::builder().compress_tol(tol).build());
    let lossy_wire = sent(&rep_lossy);

    // ---- B-tile storage accounting ---------------------------------------
    // The engine truncates each generated B tile with the same
    // `Tile::compressed(tol)` call measured here, so this offline sweep
    // reproduces the stored-byte accounting of the run exactly — and lets
    // us read back the per-tile achieved truncation error.
    let (mut b_dense_bytes, mut b_stored_bytes) = (0u64, 0u64);
    let mut worst_tile_err = 0.0f64;
    for (kk, j) in spec.b.shape().iter_nonzero() {
        let rows = spec.b.row_tiling().size(kk) as usize;
        let cols = spec.b.col_tiling().size(j) as usize;
        let t = Tile::random_lowrank(rows, cols, tile_seed(B_SEED, kk, j), decay);
        b_dense_bytes += t.bytes();
        match t.compressed(tol) {
            Some(lr) => {
                b_stored_bytes += lr.stored_bytes();
                let norm = t.frobenius_norm();
                if norm > 0.0 {
                    let mut err2 = 0.0;
                    for c in 0..cols {
                        for r in 0..rows {
                            let d = t.get(r, c) - lr.get(r, c);
                            err2 += d * d;
                        }
                    }
                    worst_tile_err = worst_tile_err.max(err2.sqrt() / norm);
                }
            }
            None => b_stored_bytes += t.stored_bytes(),
        }
    }
    let compression_ratio = b_dense_bytes as f64 / b_stored_bytes.max(1) as f64;
    let bytes_saved = b_dense_bytes.saturating_sub(b_stored_bytes);

    // ---- Result accuracy --------------------------------------------------
    let mut err2 = 0.0f64;
    let mut ref2 = 0.0f64;
    for (&(i, j), t) in c_dense.iter_tiles() {
        let lt = c_lossy.tile(i, j).expect("lossy result lost a C tile");
        for c in 0..t.cols() {
            for r in 0..t.rows() {
                let d = t.get(r, c) - lt.get(r, c);
                err2 += d * d;
                let v = t.get(r, c);
                ref2 += v * v;
            }
        }
    }
    let achieved = (err2 / ref2.max(f64::MIN_POSITIVE)).sqrt();

    // ---- Leg 3: tol = 0.0 stressors must stay bit-identical ---------------
    let zero = |b: bst_contract::ExecOptionsBuilder| b.compress_tol(0.0).build();
    let stressors: Vec<(&str, ExecOptions)> = vec![
        ("reorder", zero(ExecOptions::builder().delivery(DeliveryPolicy::Reorder {
            seed: 7,
            window: 4,
        }))),
        ("shaped", zero(ExecOptions::builder()
            .link_shaper(LinkShaper::summit_nic())
            .intra_shaper(LinkShaper::summit_intra()))),
        ("faults", zero(ExecOptions::builder().fault_plan(FaultPlan::transient(5, 0.08)))),
    ];
    let mut stressor_diffs = Vec::new();
    for (name, opts) in stressors {
        let (c_s, _) = run(opts);
        stressor_diffs.push((name, c_s.max_abs_diff(&c_dense)));
    }
    let max_stressor_diff = stressor_diffs.iter().map(|(_, d)| *d).fold(0.0, f64::max);

    println!(
        "# B tiles: {b_dense_bytes} B dense -> {b_stored_bytes} B stored \
({compression_ratio:.2}x, {bytes_saved} B saved)"
    );
    println!("# wire: {dense_wire} B dense -> {lossy_wire} B compressed");
    println!(
        "# accuracy: worst per-tile truncation {worst_tile_err:.3e}, \
result relative error {achieved:.3e} (requested {tol:e})"
    );
    for (name, d) in &stressor_diffs {
        println!("# tol=0.0 under {name}: max |diff| = {d:.3e}");
    }

    let validated = compression_ratio >= 2.0
        && worst_tile_err <= tol
        && achieved <= tol * 50.0
        && lossy_wire < dense_wire
        && max_stressor_diff == 0.0;

    let json = format!(
        "{{\n  \"problem\": {{\"m\": {m}, \"n\": {n}, \"k\": {k}, \"tiny\": {tiny}}},\n  \
\"tolerance\": {tol:e},\n  \"decay\": {decay},\n  \
\"b_dense_bytes\": {b_dense_bytes},\n  \"b_stored_bytes\": {b_stored_bytes},\n  \
\"compression_ratio\": {compression_ratio:.3},\n  \"bytes_saved\": {bytes_saved},\n  \
\"dense_wire_bytes\": {dense_wire},\n  \"lossy_wire_bytes\": {lossy_wire},\n  \
\"worst_tile_relative_error\": {worst_tile_err:.3e},\n  \
\"achieved_relative_error\": {achieved:.3e},\n  \
\"requested_relative_error\": {tol:e},\n  \
\"max_stressor_diff\": {max_stressor_diff:.3e},\n  \
\"gemm_tasks\": {},\n  \"validated\": {validated}\n}}\n",
        rep_lossy.gemm_tasks,
    );
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&out_path, &json).expect("write BENCH JSON");

    // ---- Self-validation --------------------------------------------------
    let mut errors = Vec::new();
    if compression_ratio < 2.0 {
        errors.push(format!(
            "B-tile compression {compression_ratio:.2}x below the 2x gate \
({b_dense_bytes} B dense vs {b_stored_bytes} B stored)"
        ));
    }
    if worst_tile_err > tol {
        errors.push(format!(
            "per-tile truncation error {worst_tile_err:.3e} exceeds requested tolerance {tol:e}"
        ));
    }
    if achieved > tol * 50.0 {
        errors.push(format!(
            "result relative error {achieved:.3e} above the {:.1e} acceptance bound",
            tol * 50.0
        ));
    }
    if lossy_wire >= dense_wire {
        errors.push(format!(
            "compressed run shipped no fewer wire bytes ({lossy_wire} vs {dense_wire})"
        ));
    }
    for (name, d) in &stressor_diffs {
        if *d != 0.0 {
            errors.push(format!(
                "tol=0.0 under {name} diverged by {d:.3e} (must be bit-identical)"
            ));
        }
    }
    match minijson::parse(&json) {
        Ok(doc) => {
            for key in [
                "problem",
                "tolerance",
                "b_dense_bytes",
                "b_stored_bytes",
                "compression_ratio",
                "bytes_saved",
                "worst_tile_relative_error",
                "achieved_relative_error",
                "requested_relative_error",
                "max_stressor_diff",
                "validated",
            ] {
                if doc.get(key).is_none() {
                    errors.push(format!("emitted JSON lacks \"{key}\""));
                }
            }
            if doc.get("validated").and_then(minijson::Value::as_bool) != Some(true) {
                errors.push("emitted JSON carries validated != true".into());
            }
        }
        Err(e) => errors.push(format!("emitted JSON does not re-parse: {e}")),
    }
    if !errors.is_empty() {
        eprintln!("error: BENCH_lowrank self-validation failed:");
        for e in &errors {
            eprintln!("  {e}");
        }
        std::process::exit(1);
    }
    println!("# wrote {out_path}: self-validation OK");
}
