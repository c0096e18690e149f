//! Micro-benchmark of the tile GEMM kernel family on the shapes a real
//! plan executes, emitting `BENCH_kernels.json`.
//!
//! The paper's executor spends its GPU time in many small, irregular tile
//! GEMMs; §5 observes that their arithmetic intensity, not peak flops,
//! decides throughput. This binary grounds the kernel-dispatch layer
//! (`bst_tile::kernel`) in that regime:
//!
//! 1. builds a synthetic contraction and takes the *plan-derived* GEMM
//!    shape histogram (the exact `(m, n, k)` mix the executor would run);
//! 2. for the heaviest shapes, checks every [`KernelKind`] against
//!    `gemm_naive` to 1e-10 (any divergence exits non-zero — this is the
//!    same bar as the property tests, but on the real shapes);
//! 3. measures each kernel's flop rate through a cache-cold operand ring,
//!    and records the measured winner beside the kernel
//!    [`select_heuristic`] dispatches — the offline table the heuristic's
//!    thresholds are re-derived from;
//! 4. writes everything as JSON and re-parses the document with
//!    [`bst_bench::minijson`] — a malformed file also exits non-zero, so
//!    CI can gate on this binary end to end.
//!
//! Usage:
//! ```text
//! repro_kernels [--tiny] [--out BENCH_kernels.json]
//! ```

use bst_bench::{minijson, numeric_bench_problem};
use bst_contract::{DeviceConfig, ExecutionPlan, GridConfig, PlannerConfig};
use bst_tile::gemm::{gemm_flops, gemm_naive};
use bst_tile::kernel::{select_heuristic, KernelKind};
use bst_tile::Tile;
use std::fmt::Write as _;
use std::time::Instant;

const USAGE: &str = "usage: repro_kernels [--tiny] [--out FILE]";

/// Shapes benchmarked (the heaviest by total flops).
const MAX_SHAPES: usize = 8;

/// Operand working set the timing ring is sized to exceed, so successive
/// iterations read mostly cache-cold tiles — the executor streams distinct
/// A/B tiles per Gemm, and a single-pair loop would overstate kernels whose
/// packing cost is hidden by cache-hot reruns.
const TIMING_RING_BYTES: usize = 4 << 20;

/// Measured flop rate of `kind` on an `m × n × k` product, in Gflop/s.
///
/// Calls rotate through a ring of distinct `(a, b)` operand pairs
/// accumulating into a single shared `c` — the executor's cache profile:
/// every Gemm of a block streams fresh A/B tiles but accumulates into a C
/// tile that stays resident across the block's whole k-loop. The batch is
/// adaptively repeated until the sample is long enough to trust.
fn measure_gflops(kind: KernelKind, m: usize, n: usize, k: usize) -> f64 {
    let per_set = 8 * (m * k + k * n);
    let len = (TIMING_RING_BYTES / per_set.max(1)).clamp(1, 64);
    let sets: Vec<(Tile, Tile)> = (0..len as u64)
        .map(|i| {
            let seed = 0x5eed_0000 + i;
            (Tile::random(m, k, seed), Tile::random(k, n, seed ^ 0xB))
        })
        .collect();
    let mut c = Tile::zeros(m, n);
    let mut next = 0;
    let mut run = || {
        let (a, b) = &sets[next];
        kind.run(1.0, a, b, &mut c);
        next = (next + 1) % len;
    };
    run(); // warm the pack scratch and instruction cache
    let mut iters: u32 = 1;
    let secs = loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            run();
        }
        let dt = t0.elapsed();
        if dt.as_micros() >= 200 || iters >= 1 << 16 {
            break dt.as_secs_f64() / f64::from(iters);
        }
        iters *= 4;
    };
    gemm_flops(m as u64, n as u64, k as u64) as f64 / secs / 1e9
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut tiny = false;
    let mut out_path = "results/BENCH_kernels.json".to_string();
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

    // The same problems the traced reproduction (`repro_trace --numeric`)
    // runs, so the shape mix matches the executor measurements.
    let (spec, gpu_mem) = numeric_bench_problem(tiny);
    let config = PlannerConfig::paper(
        GridConfig::from_nodes(2, 1),
        DeviceConfig {
            gpus_per_node: 2,
            gpu_mem_bytes: gpu_mem,
        },
    );
    let plan = ExecutionPlan::build(&spec, config).expect("plan must build");
    let hist = plan.gemm_shape_histogram(&spec);
    assert!(!hist.is_empty(), "plan has no GEMM tasks");

    // Heaviest shapes by total flops.
    let mut weighted: Vec<((usize, usize, usize), u64, u128)> = hist
        .iter()
        .map(|&((m, n, k), count)| {
            let fl = gemm_flops(m as u64, n as u64, k as u64) as u128 * count as u128;
            ((m, n, k), count, fl)
        })
        .collect();
    weighted.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
    weighted.truncate(MAX_SHAPES);

    println!(
        "# kernel micro-benchmark — {} distinct shapes in plan, benchmarking top {}",
        hist.len(),
        weighted.len()
    );

    let mut shapes_json = String::new();
    for (si, &((m, n, k), count, _)) in weighted.iter().enumerate() {
        // Correctness gate: every kernel must agree with the naive triple
        // loop on this exact shape.
        let a = Tile::random(m, k, 0xA0 + si as u64);
        let b = Tile::random(k, n, 0xB0 + si as u64);
        let c0 = Tile::random(m, n, 0xC0 + si as u64);
        let mut c_ref = c0.clone();
        gemm_naive(1.0, &a, &b, &mut c_ref);
        for kind in KernelKind::ALL {
            let mut c = c0.clone();
            kind.run(1.0, &a, &b, &mut c);
            let diff = c.max_abs_diff(&c_ref);
            if diff >= 1e-10 {
                eprintln!(
                    "error: kernel {} diverges from naive on {m}x{n}x{k}: max |Δ| = {diff:.3e}",
                    kind.name()
                );
                std::process::exit(1);
            }
        }

        // Flop rates through the cache-cold ring (the executor streams
        // distinct operand tiles, so a hot single-pair loop would lie).
        let rates: Vec<(KernelKind, f64)> = KernelKind::ALL
            .iter()
            .map(|&kind| (kind, measure_gflops(kind, m, n, k)))
            .collect();
        let winner = rates
            .iter()
            .cloned()
            .max_by(|x, y| x.1.total_cmp(&y.1))
            .map(|(kind, _)| kind)
            .expect("KernelKind::ALL is non-empty");
        let heuristic = select_heuristic(m, n, k);

        let mut rate_strs = Vec::new();
        let mut rate_json = String::new();
        for (i, &(kind, g)) in rates.iter().enumerate() {
            rate_strs.push(format!("{}={:.2}", kind.name(), g));
            if i > 0 {
                rate_json.push_str(", ");
            }
            write!(rate_json, "\"{}\": {:.4}", kind.name(), g).unwrap();
        }
        println!(
            "  {m}x{n}x{k} (x{count}): {}  -> {} (heuristic: {})",
            rate_strs.join(" "),
            winner.name(),
            heuristic.name()
        );

        if si > 0 {
            shapes_json.push_str(",\n");
        }
        write!(
            shapes_json,
            "    {{\"m\": {m}, \"n\": {n}, \"k\": {k}, \"tasks\": {count}, \
             \"gflops\": {{{rate_json}}}, \"winner\": \"{}\", \"heuristic\": \"{}\"}}",
            winner.name(),
            heuristic.name()
        )
        .unwrap();
    }

    let json = format!(
        "{{\n  \"problem\": {{\"m\": {}, \"n\": {}, \"k\": {}, \"tiny\": {tiny}}},\n  \
         \"shapes\": [\n{shapes_json}\n  ]\n}}\n",
        spec.a.rows(),
        spec.b.cols(),
        spec.a.cols(),
    );
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&out_path, &json).expect("write BENCH JSON");

    // Self-validation: the emitted document must re-parse, and must carry a
    // measured rate for every kernel of every shape.
    let doc = match minijson::parse(&json) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("error: emitted JSON does not parse: {e}");
            std::process::exit(1);
        }
    };
    let shapes = doc
        .get("shapes")
        .and_then(|v| v.as_arr())
        .unwrap_or_else(|| {
            eprintln!("error: emitted JSON has no shapes array");
            std::process::exit(1);
        });
    for s in shapes {
        let (m, n, k) = (
            s.get("m").and_then(|v| v.as_num()).unwrap() as usize,
            s.get("n").and_then(|v| v.as_num()).unwrap() as usize,
            s.get("k").and_then(|v| v.as_num()).unwrap() as usize,
        );
        for kind in KernelKind::ALL {
            let rate = s
                .get("gflops")
                .and_then(|g| g.get(kind.name()))
                .and_then(|v| v.as_num());
            match rate {
                Some(r) if r > 0.0 => {}
                _ => {
                    eprintln!(
                        "error: shape {m}x{n}x{k} lacks a positive rate for {}",
                        kind.name()
                    );
                    std::process::exit(1);
                }
            }
        }
    }
    println!(
        "# wrote {out_path}: {} shapes, all kernels verified against naive to 1e-10",
        shapes.len()
    );
}
