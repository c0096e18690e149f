//! Exercises the einsum frontend end to end and emits a self-validated
//! `results/BENCH_einsum.json`.
//!
//! Two legs, both gated:
//!
//! * **ABCD as a generated instance** — the fused term
//!   `R^{ij}_{ab} = Σ_{cd} T^{ij}_{cd} V^{cd}_{ab}` evaluated twice over
//!   identical inputs: as a hand-matricised `T · V` product at plan level
//!   (`ProblemSpec` → `ExecutionPlan::build` → `engine::execute`) and
//!   through `Einsum::new("ijcd,cdab->ijab")`. The two must be
//!   **bit-identical** (`max |diff| == 0.0`): the einsum lowering has to
//!   arrive at exactly the product one would plan by hand;
//! * **chain vs dense** — the two-term chain `"ij,jk,kl->il"` with the last
//!   factor generated on demand, lowered into two planned products with a
//!   screened intermediate, gated at ≤ 1e-10 against a dense reference
//!   evaluation.
//!
//! Any gate violation exits non-zero, so CI can gate on this binary
//! directly; the emitted JSON re-parses through `minijson` with the
//! expected keys.
//!
//! Usage:
//! ```text
//! repro_einsum [--tiny] [--out FILE]
//! ```

use std::sync::Arc;
use std::time::Instant;

use bst_bench::{minijson, tiny_numeric_spec};
use bst_contract::einsum::Einsum;
use bst_contract::{
    DeviceConfig, ExecOptions, ExecutionPlan, GridConfig, PlannerConfig, ProblemSpec,
};
use bst_sparse::generate::{generate, SyntheticParams};
use bst_sparse::matrix::tile_seed;
use bst_sparse::tensor::{BlockSparseTensor4, Tensor4Meta};
use bst_sparse::{BlockSparseMatrix, MatrixStructure};
use bst_tile::{Tile, Tiling};

const USAGE: &str = "usage: repro_einsum [--tiny] [--out FILE]";
const V_SEED: u64 = 42 ^ 0xABCD;
const D_SEED: u64 = 42 ^ 0xD;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut tiny = false;
    let mut out_path = "results/BENCH_einsum.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tiny" => tiny = true,
            "--out" => {
                out_path = it.next().unwrap_or_else(|| panic!("--out needs a file path")).clone()
            }
            other => panic!("unknown argument {other}\n{USAGE}"),
        }
    }

    let config = PlannerConfig::paper(
        GridConfig { p: 1, q: 2 },
        DeviceConfig { gpus_per_node: 2, gpu_mem_bytes: 1 << 22 },
    );

    // ---- Leg 1: ABCD bit-identity — plan-level run vs einsum lowering -----
    let (o, u) = if tiny {
        (Tiling::from_sizes(&[2, 2]), Tiling::from_sizes(&[3, 2, 3]))
    } else {
        (Tiling::from_sizes(&[4, 4, 3]), Tiling::from_sizes(&[6, 5, 4, 5]))
    };
    let t_meta = Tensor4Meta::new([o.clone(), o.clone(), u.clone(), u.clone()]);
    let t_struct = t_meta.matricise(|_, _, _, _| 1.0);
    let t = BlockSparseTensor4::random_from_structure(t_meta, t_struct, 11);
    let v_meta = Tensor4Meta::new([u.clone(), u.clone(), u.clone(), u.clone()]);
    let v_struct = v_meta.matricise(|_, _, _, _| 1.0);
    let v_gen = |k: usize, j: usize, r: usize, c: usize, pool: &bst_tile::TilePool| {
        Ok(Arc::new(pool.random(r, c, tile_seed(V_SEED, k, j))))
    };

    let t0 = Instant::now();
    let abcd_spec =
        ProblemSpec::new(t.matricised().structure().clone(), v_struct.clone(), None);
    let abcd_plan = ExecutionPlan::build(&abcd_spec, config).expect("plan T·V");
    let (r_plan, plan_report) = bst_contract::engine::execute(
        &abcd_spec,
        &abcd_plan,
        t.matricised(),
        &v_gen,
        ExecOptions::default(),
    )
    .expect("plan-level T·V");
    let plan_elapsed = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let abcd = Einsum::new("ijcd,cdab->ijab")
        .tensor(&t)
        .on_demand_tensor4(&v_meta, &v_struct, &v_gen)
        .contract(config)
        .expect("einsum ijcd,cdab->ijab");
    let einsum_elapsed = t1.elapsed().as_secs_f64();
    let r_einsum = abcd.tensor4().expect("rank-4 outcome");
    let abcd_diff = r_einsum.matricised().max_abs_diff(&r_plan);
    let abcd_gemms = abcd.report().gemm_tasks;

    println!(
        "# ABCD {}x{} · {}x{}: {} GEMMs, einsum-vs-plan-level max |diff| = {abcd_diff:.3e}",
        t.matricised().structure().rows(),
        t.matricised().structure().cols(),
        v_struct.rows(),
        v_struct.cols(),
        abcd_gemms
    );

    // ---- Leg 2: chain "ij,jk,kl->il" vs the dense reference ---------------
    let spec: ProblemSpec = if tiny {
        tiny_numeric_spec(42)
    } else {
        let prob = generate(&SyntheticParams {
            m: 200,
            n: 1600,
            k: 1600,
            density: 0.5,
            tile_min: 32,
            tile_max: 96,
            seed: 42,
        });
        ProblemSpec::new(prob.a, prob.b, None)
    };
    let a = BlockSparseMatrix::random_from_structure(spec.a.clone(), 42);
    let b = BlockSparseMatrix::random_from_structure(spec.b.clone(), 42 ^ 0xB);
    let d_struct =
        MatrixStructure::dense(spec.b.col_tiling().clone(), spec.b.col_tiling().clone());
    let d_gen = |k: usize, j: usize, r: usize, c: usize, pool: &bst_tile::TilePool| {
        Ok(Arc::new(pool.random(r, c, tile_seed(D_SEED, k, j))))
    };
    let t2 = Instant::now();
    let chain = Einsum::new("ij,jk,kl->il")
        .operand(&a)
        .operand(&b)
        .on_demand(&d_struct, &d_gen)
        .contract(config)
        .expect("einsum ij,jk,kl->il");
    let chain_elapsed = t2.elapsed().as_secs_f64();
    let chain_gemms: u64 = chain.reports.iter().map(|r| r.gemm_tasks).sum();

    let d = BlockSparseMatrix::from_structure(d_struct.clone(), |k, j, r, cc| {
        Tile::random(r, cc, tile_seed(D_SEED, k, j))
    });
    let mut ab =
        BlockSparseMatrix::zeros(spec.a.row_tiling().clone(), spec.b.col_tiling().clone());
    ab.gemm_acc_reference(&a, &b);
    let mut c_ref =
        BlockSparseMatrix::zeros(spec.a.row_tiling().clone(), d_struct.col_tiling().clone());
    c_ref.gemm_acc_reference(&ab, &d);
    let chain_diff = chain.matrix().max_abs_diff(&c_ref);

    println!(
        "# chain {}x{}x{}x{}: {} terms, {} GEMMs, max |C - C_ref| = {chain_diff:.3e}",
        spec.a.rows(),
        spec.a.cols(),
        spec.b.cols(),
        d_struct.cols(),
        chain.reports.len(),
        chain_gemms
    );

    let validated = abcd_diff == 0.0 && chain_diff <= 1e-10 && chain.reports.len() == 2;
    let json = format!(
        "{{\n  \"tiny\": {tiny},\n  \
\"abcd\": {{\"rows\": {}, \"cols\": {}, \"gemm_tasks\": {abcd_gemms}, \
\"plan_level_gemm_tasks\": {}, \"bit_diff\": {abcd_diff:.3e}, \
\"einsum_s\": {einsum_elapsed:.4}, \"plan_level_s\": {plan_elapsed:.4}}},\n  \
\"chain\": {{\"m\": {}, \"n\": {}, \"terms\": {}, \"gemm_tasks\": {chain_gemms}, \
\"max_diff\": {chain_diff:.3e}, \"elapsed_s\": {chain_elapsed:.4}}},\n  \
\"validated\": {validated}\n}}\n",
        t.matricised().structure().rows(),
        v_struct.cols(),
        plan_report.gemm_tasks,
        spec.a.rows(),
        d_struct.cols(),
        chain.reports.len(),
    );
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&out_path, &json).expect("write BENCH JSON");

    // ---- Self-validation ---------------------------------------------------
    let mut errors = Vec::new();
    if abcd_diff != 0.0 {
        errors.push(format!(
            "einsum \"ijcd,cdab->ijab\" diverged from the plan-level run by {abcd_diff:.3e} \
(must be bit-identical)"
        ));
    }
    if chain_diff > 1e-10 {
        errors.push(format!(
            "chain \"ij,jk,kl->il\" diverged from the dense reference by {chain_diff:.3e} \
(gate: 1e-10)"
        ));
    }
    if chain.reports.len() != 2 {
        errors.push(format!("chain lowered into {} terms, expected 2", chain.reports.len()));
    }
    match minijson::parse(&json) {
        Ok(doc) => {
            for key in ["tiny", "abcd", "chain", "validated"] {
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
        eprintln!("error: BENCH_einsum self-validation failed:");
        for e in &errors {
            eprintln!("  {e}");
        }
        std::process::exit(1);
    }
    println!("# wrote {out_path}: self-validation OK");
}
