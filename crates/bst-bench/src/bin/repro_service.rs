//! Measures the persistent contraction service on a CCSD-iteration-shaped
//! workload and emits a self-validated `results/BENCH_service.json`.
//!
//! The workload is the solver pattern of §5: `SWEEPS` contractions with a
//! **stationary B** (the integral operand, same structure, same generator)
//! and a fresh A per sweep (the amplitudes change every iteration). Two
//! legs over identical inputs:
//!
//! * **one-shot** — the classic API: every sweep rebuilds the plan and
//!   regenerates every B tile from scratch;
//! * **service** — one [`ContractionService`]: the plan is built once and
//!   cached, B tiles stay resident across sweeps, so sweeps 2..N generate
//!   (nearly) nothing.
//!
//! Both legs instrument the generator itself, so "bytes of B generation"
//! is measured where the work happens, not inferred. Self-validation
//! gates: every sweep's service result **bit-identical** to the one-shot
//! result (`max |diff| == 0.0`), B-generation reduction ≥ 5× on the warm
//! workload, plan-cache hit on every warm sweep, a traced service run
//! invariant-clean, and the emitted JSON re-parses with the expected keys.
//! Any violation exits non-zero, so CI can gate on this binary directly.
//!
//! Usage:
//! ```text
//! repro_service [--tiny] [--nodes N] [--sweeps S] [--out FILE]
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bst_bench::{flag_value, minijson, tiny_numeric_spec, usage_exit};
use bst_contract::{
    validate_trace_invariants, ContractionRequest, ContractionService, DeviceConfig, ExecOptions,
    ExecutionPlan, GridConfig, PlannerConfig, ProblemSpec, ServiceBGen, ServiceConfig,
};
use bst_sparse::generate::{generate, SyntheticParams};
use bst_sparse::matrix::tile_seed;
use bst_sparse::BlockSparseMatrix;

const USAGE: &str = "usage: repro_service [--tiny] [--nodes N] [--sweeps S] [--out FILE]";
const B_SEED: u64 = 42 ^ 0xB;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut tiny = false;
    let mut nodes = 2usize;
    let mut sweeps = 12usize;
    let mut out_path = "results/BENCH_service.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tiny" => tiny = true,
            "--nodes" => {
                nodes = flag_value(USAGE, "--nodes", it.next());
                if nodes < 1 {
                    usage_exit(USAGE, "--nodes must be >= 1");
                }
            }
            "--sweeps" => {
                sweeps = flag_value(USAGE, "--sweeps", it.next());
                if sweeps < 2 {
                    usage_exit(USAGE, "--sweeps must be >= 2 (need at least one warm sweep)");
                }
            }
            "--out" => out_path = flag_value(USAGE, "--out", it.next()),
            other => usage_exit(USAGE, &format!("unknown argument {other}")),
        }
    }

    let (spec, gpu_mem): (ProblemSpec, u64) = if tiny {
        (tiny_numeric_spec(42), 1 << 21)
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
        (ProblemSpec::new(prob.a, prob.b, None), 1 << 22)
    };
    let config = PlannerConfig::paper(
        GridConfig::from_nodes(nodes, 1),
        DeviceConfig { gpus_per_node: 2, gpu_mem_bytes: gpu_mem },
    );

    println!(
        "# service benchmark — {}x{}x{} on {nodes} nodes x 2 GPUs, {sweeps} sweeps, stationary B",
        spec.a.rows(),
        spec.b.cols(),
        spec.a.cols()
    );

    // The per-sweep amplitudes: same structure (so the plan key is
    // stationary), fresh values each sweep (so the contraction isn't).
    let amplitudes: Vec<Arc<BlockSparseMatrix>> = (0..sweeps)
        .map(|s| Arc::new(BlockSparseMatrix::random_from_structure(spec.a.clone(), 42 + s as u64)))
        .collect();

    // ---- Leg 1: one-shot — plan + full B generation every sweep ----------
    let oneshot_gen_bytes = AtomicU64::new(0);
    let oneshot_gen_tiles = AtomicU64::new(0);
    let b_gen = |k: usize, j: usize, r: usize, c: usize, pool: &bst_tile::TilePool| {
        oneshot_gen_bytes.fetch_add((r * c * 8) as u64, Ordering::Relaxed);
        oneshot_gen_tiles.fetch_add(1, Ordering::Relaxed);
        Ok(Arc::new(pool.random(r, c, tile_seed(B_SEED, k, j))))
    };
    let t0 = Instant::now();
    let mut oneshot_results = Vec::with_capacity(sweeps);
    for a in &amplitudes {
        let plan = ExecutionPlan::build(&spec, config).expect("plan");
        let (c, _) = bst_contract::engine::execute(
            &spec,
            &plan,
            a,
            &b_gen,
            ExecOptions::default(),
        )
        .expect("one-shot sweep");
        oneshot_results.push(c);
    }
    let oneshot_elapsed = t0.elapsed().as_secs_f64();
    let oneshot_bytes = oneshot_gen_bytes.load(Ordering::Relaxed);

    // ---- Leg 2: the service — plan cached, B resident across sweeps ------
    let service_gen_bytes = Arc::new(AtomicU64::new(0));
    let service_gen: ServiceBGen = {
        let counter = Arc::clone(&service_gen_bytes);
        Arc::new(move |k, j, r, c, pool: &bst_tile::TilePool| {
            counter.fetch_add((r * c * 8) as u64, Ordering::Relaxed);
            Ok(Arc::new(pool.random(r, c, tile_seed(B_SEED, k, j))))
        })
    };
    let service = ContractionService::start(ServiceConfig {
        workers: 1, // sequential sweeps: each iteration consumes the last
        ..ServiceConfig::default()
    });
    let make_req = |a: &Arc<BlockSparseMatrix>, opts: ExecOptions| ContractionRequest {
        a: Arc::clone(a),
        b_structure: spec.b.clone(),
        b_gen: Arc::clone(&service_gen),
        b_key: 0xCC5D,
        c_shape: None,
        config,
        opts,
    };
    let t1 = Instant::now();
    let mut max_diff = 0.0f64;
    let mut warm_plan_hits = 0u64;
    for (s, a) in amplitudes.iter().enumerate() {
        let out = service.run(make_req(a, ExecOptions::default())).expect("service sweep");
        if s > 0 && out.stats.plan_cache_hit {
            warm_plan_hits += 1;
        }
        max_diff = max_diff.max(out.c.max_abs_diff(&oneshot_results[s]));
    }
    let service_elapsed = t1.elapsed().as_secs_f64();
    let service_bytes = service_gen_bytes.load(Ordering::Relaxed);

    // ---- Traced service run: the invariants must hold through the cache --
    let traced_opts = ExecOptions::builder().tracing(true).build();
    let traced = service.run(make_req(&amplitudes[0], traced_opts)).expect("traced sweep");
    let violations = validate_trace_invariants(&traced.report, gpu_mem);
    let stats = service.stats();
    service.shutdown();

    // `.max(1)` keeps the ratio finite (and the JSON valid) in the
    // degenerate case where the cold sweep generated nothing.
    let reduction = oneshot_bytes as f64 / service_bytes.max(1) as f64;
    let service_rps = sweeps as f64 / service_elapsed.max(1e-9);
    let oneshot_rps = sweeps as f64 / oneshot_elapsed.max(1e-9);

    println!(
        "# B generation: one-shot {oneshot_bytes} B, service {service_bytes} B ({reduction:.1}x less)"
    );
    println!(
        "# throughput: service {service_rps:.2} req/s vs one-shot {oneshot_rps:.2} req/s"
    );
    println!(
        "# caches: plan {} hits / {} misses, B {} hits / {} misses, {} B saved",
        stats.plan_hits, stats.plan_misses, stats.b_hits, stats.b_misses, stats.b_bytes_saved
    );
    println!("# warm-vs-cold max |diff| = {max_diff:.3e}");

    let validated = max_diff == 0.0
        && reduction >= 5.0
        && warm_plan_hits == (sweeps as u64 - 1)
        && violations.is_empty();
    let json = format!(
        "{{\n  \"problem\": {{\"m\": {}, \"n\": {}, \"k\": {}, \"tiny\": {tiny}}},\n  \
\"nodes\": {nodes},\n  \"sweeps\": {sweeps},\n  \
\"oneshot_b_gen_bytes\": {oneshot_bytes},\n  \"service_b_gen_bytes\": {service_bytes},\n  \
\"b_gen_reduction\": {reduction:.2},\n  \"b_cache_bytes_saved\": {},\n  \
\"service_requests_per_s\": {service_rps:.3},\n  \"oneshot_requests_per_s\": {oneshot_rps:.3},\n  \
\"plan_hits\": {},\n  \"plan_misses\": {},\n  \"b_hits\": {},\n  \"b_misses\": {},\n  \
\"queue_depth_highwater\": {},\n  \
\"warm_vs_cold_max_diff\": {max_diff:.3e},\n  \"trace_violations\": {},\n  \
\"validated\": {validated}\n}}\n",
        spec.a.rows(),
        spec.b.cols(),
        spec.a.cols(),
        stats.b_bytes_saved,
        stats.plan_hits,
        stats.plan_misses,
        stats.b_hits,
        stats.b_misses,
        stats.queue_depth_highwater,
        violations.len(),
    );
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&out_path, &json).expect("write BENCH JSON");

    // ---- Self-validation --------------------------------------------------
    let mut errors = Vec::new();
    if max_diff != 0.0 {
        errors.push(format!(
            "cache-hit sweeps diverged from one-shot by {max_diff:.3e} (must be bit-identical)"
        ));
    }
    if reduction < 5.0 {
        errors.push(format!(
            "B-generation reduction {reduction:.2}x below the 5x gate \
({oneshot_bytes} B one-shot vs {service_bytes} B service)"
        ));
    }
    if warm_plan_hits != sweeps as u64 - 1 {
        errors.push(format!(
            "only {warm_plan_hits}/{} warm sweeps hit the plan cache",
            sweeps - 1
        ));
    }
    for v in &violations {
        errors.push(format!("traced service run violates invariant: {v}"));
    }
    if stats.requests_failed > 0 {
        errors.push(format!("{} service requests failed", stats.requests_failed));
    }
    match minijson::parse(&json) {
        Ok(doc) => {
            for key in [
                "problem",
                "sweeps",
                "oneshot_b_gen_bytes",
                "service_b_gen_bytes",
                "b_gen_reduction",
                "service_requests_per_s",
                "plan_hits",
                "warm_vs_cold_max_diff",
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
        eprintln!("error: BENCH_service self-validation failed:");
        for e in &errors {
            eprintln!("  {e}");
        }
        std::process::exit(1);
    }
    println!("# wrote {out_path}: self-validation OK");
}
