//! Executes a contraction on the `bst-runtime` dataflow engine with tracing
//! on, the profile behind the paper's §5.2 observation that "GPU I/O
//! dominates the execution time": prints the per-kind / per-device text
//! summary and writes a `chrome://tracing` JSON profile. The emitted JSON is
//! re-parsed, the executor-level trace invariants are checked and the hosts'
//! peak is held to "A plus a window of B"; any violation exits non-zero, so
//! CI can gate on it. (The simulated GPUs' Gantt is `repro trace`.)
//!
//! With `--faults SEED` the run smoke-tests the fault-injection subsystem:
//! the same problem is executed twice — once fault-free, once with ~8%
//! transient GenB/alloc/transfer faults (plus lane stalls) seeded from
//! `SEED` — and the run exits non-zero unless the executor recovered, the
//! two results agree within 1e-10, and the faulted trace still satisfies
//! every invariant.
//!
//! Usage (`--numeric`, the only mode, may be omitted):
//! ```text
//! repro_trace [--numeric] [--tiny] [--nodes N] [--out FILE] [--faults SEED]
//! ```

use bst_bench::{
    check_chrome_trace, flag_value, numeric_bench_problem, traced_numeric_run, usage_exit,
};
use bst_contract::engine::inspector::host_b_window_bytes;
use bst_contract::{validate_trace_invariants, ExecOptions, FaultPlan, ProblemSpec};

const USAGE: &str =
    "usage: repro_trace [--numeric] [--tiny] [--nodes N] [--out FILE] [--faults SEED]";

/// The traced numeric run: execute, summarise, export, self-validate.
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut tiny = false;
    let mut nodes = 2usize;
    let mut out_path = "results/trace.json".to_string();
    let mut faults: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--numeric" => {}
            "--tiny" => tiny = true,
            "--nodes" => {
                nodes = flag_value(USAGE, "--nodes", it.next());
                if nodes < 1 {
                    usage_exit(USAGE, "--nodes must be >= 1");
                }
            }
            "--out" => out_path = flag_value(USAGE, "--out", it.next()),
            "--faults" => faults = Some(flag_value(USAGE, "--faults", it.next())),
            other => usage_exit(USAGE, &format!("unknown argument {other}")),
        }
    }

    // --tiny: the CI-sized problem (sub-second). Default: a ~10x larger
    // synthetic contraction so the profile has visible phases.
    let (spec, gpu_mem) = numeric_bench_problem(tiny);

    if let Some(seed) = faults {
        faults_mode(&spec, nodes, gpu_mem, seed, &out_path);
        return;
    }
    let opts = ExecOptions::default();
    let (_c, report) = traced_numeric_run(&spec, nodes, 2, gpu_mem, 42, opts);

    println!(
        "# traced numeric contraction — {}x{}x{} on {nodes} nodes x 2 GPUs ({} MiB each)",
        spec.a.rows(),
        spec.b.cols(),
        spec.a.cols(),
        gpu_mem >> 20
    );
    print!("{}", report.text_summary(gpu_mem));
    print_hot_path(&report);

    let trace = report.trace.as_ref().expect("tracing was enabled");
    let json = trace.chrome_trace_json();
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&out_path, &json).expect("write trace JSON");

    // Self-validation: the emitted document must re-parse as a Chrome
    // trace, and the schedule must satisfy the §3.2/§4 trace invariants.
    match check_chrome_trace(&json) {
        Ok(n) => println!("# wrote {out_path}: {n} events (open in chrome://tracing)"),
        Err(e) => {
            eprintln!("error: emitted trace does not validate: {e}");
            std::process::exit(1);
        }
    }
    let violations = validate_trace_invariants(&report, gpu_mem);
    if !violations.is_empty() {
        eprintln!("error: trace invariants violated:");
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
    println!("# trace invariants OK ({} task records)", trace.records.len());

    // B streams through the host: no node's store ever held more than A
    // plus, per GPU, a generation window of B.
    let b = &spec.b;
    let largest_b = b.shape().iter_nonzero().map(|(k, j)| b.tile_bytes(k, j)).max().unwrap_or(0);
    let gpus = (report.devices.len() / nodes) as u64;
    let bound = spec.a.bytes() + gpus * host_b_window_bytes(largest_b, gpu_mem);
    let peak = report.host_peak_bytes.iter().copied().max().unwrap_or(0);
    let all_b = b.bytes();
    println!("# host peak {peak} B <= {bound} B (all of A + a B window per GPU; all of B is {all_b} B)");
    if peak > bound {
        eprintln!("error: B piled up on a host: peak {peak} B > bound {bound} B");
        std::process::exit(1);
    }
}

/// The fault-injection smoke run: execute fault-free, re-execute with ~8%
/// transient faults on every injection site, and gate on recovery —
/// matching numbers (1e-10), intact trace invariants, populated recovery
/// counters. Exits non-zero on any violation so CI can run this directly.
fn faults_mode(spec: &ProblemSpec, nodes: usize, gpu_mem: u64, seed: u64, out_path: &str) {
    let clean_opts = ExecOptions::builder().tracing(true).build();
    let (c_clean, _) = traced_numeric_run(spec, nodes, 2, gpu_mem, 42, clean_opts);

    let plan = FaultPlan::transient(seed, 0.08);
    let opts = ExecOptions::builder().tracing(true).fault_plan(plan).build();
    let (c_faulted, report) = traced_numeric_run(spec, nodes, 2, gpu_mem, 42, opts);

    println!(
        "# fault-injection smoke — {}x{}x{} on {nodes} nodes x 2 GPUs, seed {seed}, 8% transient faults",
        spec.a.rows(),
        spec.b.cols(),
        spec.a.cols()
    );
    print!("{}", report.text_summary(gpu_mem));

    let r = &report.recovery;
    if r.injected_genb + r.injected_alloc + r.injected_send == 0 {
        eprintln!("error: 8% fault rates injected nothing — injection sites are dead");
        std::process::exit(1);
    }
    let diff = c_faulted.max_abs_diff(&c_clean);
    if diff > 1e-10 {
        eprintln!("error: recovered result diverged from the fault-free run by {diff:.3e}");
        std::process::exit(1);
    }
    println!("# recovered result matches fault-free run (max |diff| = {diff:.3e})");

    let violations = validate_trace_invariants(&report, gpu_mem);
    if !violations.is_empty() {
        eprintln!("error: trace invariants violated under faults:");
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
    let trace = report.trace.as_ref().expect("tracing was enabled");
    let json = trace.chrome_trace_json();
    if let Some(dir) = std::path::Path::new(out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(out_path, &json).expect("write trace JSON");
    match check_chrome_trace(&json) {
        Ok(n) => println!("# wrote {out_path}: {n} events (retried tasks carry an \"attempts\" arg)"),
        Err(e) => {
            eprintln!("error: emitted trace does not validate: {e}");
            std::process::exit(1);
        }
    }
    println!("# fault-injection smoke OK ({} task records)", trace.records.len());
}

/// Prints the hot-path counters of the traced run: the kernel mix
/// `select_heuristic` dispatched, GenB span overlap across the node's GenB
/// lanes, and tile-pool recycling.
fn print_hot_path(report: &bst_contract::ExecReport) {
    let kernels: Vec<String> = report
        .gemm_kernel_counts
        .iter()
        .map(|(name, n)| format!("{name}:{n}"))
        .collect();
    println!("# hot path:");
    println!("#   kernel mix: {}", kernels.join(" "));
    println!(
        "#   GenB max concurrency per node: {} (GenB-overlap across the worker lanes)",
        report.max_concurrent_genb()
    );
    let (hits, misses): (u64, u64) = report
        .pool_stats
        .iter()
        .fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses));
    println!(
        "#   tile-pool reuse: {hits} hits / {misses} misses ({:.0}% recycled)",
        hits as f64 / (hits + misses).max(1) as f64 * 100.0
    );
}
