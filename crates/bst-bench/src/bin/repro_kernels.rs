//! Micro-benchmark of the tile GEMM kernel family, emitting
//! `BENCH_kernels.json`.
//!
//! The paper's executor spends its GPU time in many small, irregular tile
//! GEMMs; §5 observes that their arithmetic intensity, not peak flops,
//! decides throughput. This binary grounds the kernel-dispatch layer
//! (`bst_tile::kernel`) in the regimes the workloads live in:
//!
//! 1. takes the *plan-derived* GEMM shapes of a synthetic contraction (the
//!    heaviest `(m, n, k)` of the mix the executor would run) and a fixed
//!    **ladder** beside them — cubes from 8 to 384, six ragged shapes and
//!    the ragged shapes the benchmark workloads' plans are made of, each
//!    next to its full-panel neighbour — because the plan's shapes are one
//!    point (≈ 111×119×120) and the benchmark workloads' tiles span 16–384
//!    edges;
//! 2. checks every column — each [`KernelKind`], and the SIMD kernel with
//!    each [`SimdDriver`] forced — against `gemm_naive` to 1e-10 (any
//!    divergence exits non-zero: the property tests' bar, on these shapes);
//! 3. measures each column's flop rate through a cache-cold operand ring and
//!    records the measured winner beside the kernel [`select_heuristic`]
//!    dispatches — the offline table the in-place / packed threshold of
//!    `gemm_simd` and the rules of `select_heuristic` are read from;
//! 4. records the host's `cpu` features (a file from a host without
//!    AVX2+FMA measures the blocked fallback under the name `simd`), writes
//!    everything as JSON and re-parses the document with
//!    [`bst_bench::minijson`] — a malformed file also exits non-zero, so CI
//!    can gate on this binary end to end.
//!
//! Usage:
//! ```text
//! repro_kernels [--tiny] [--out BENCH_kernels.json]
//! ```

use bst_bench::{flag_value, minijson, numeric_bench_problem, usage_exit};
use bst_contract::{DeviceConfig, ExecutionPlan, GridConfig, PlannerConfig};
use bst_tile::gemm::{gemm_flops, gemm_naive, gemm_simd_with, SimdDriver};
use bst_tile::kernel::{select_heuristic, GemmFn, KernelKind};
use bst_tile::Tile;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: repro_kernels [--tiny] [--out FILE]";

/// Plan-derived shapes benchmarked (the heaviest by total flops).
const MAX_SHAPES: usize = 8;

/// The fixed ladder: cube edges spanning the benchmark workloads' tiles
/// (`sparse_grid` 16–48, `ccsd_abcd` ≈ 25, `service_sweeps` 48–128,
/// `dense_tiles` 192–384) ...
const LADDER_CUBES: [usize; 11] = [8, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384];
/// ... and ragged shapes: off the micro-tile grid in `m` and `n`, one
/// short output edge each way, and two of `dense_tiles`' size whose A
/// columns start at every alignment.
const LADDER_RAGGED: [(usize, usize, usize); 6] =
    [(16, 48, 24), (33, 17, 40), (5, 200, 64), (200, 5, 64), (217, 301, 263), (333, 205, 377)];
/// The shapes the workloads are made of, read off their plans' shape
/// histograms, smallest first: `ccsd_abcd`'s occupied-pair rows of 9 / 12 /
/// 16 against AO-pair edges of 25 / 35 / 49, and `sparse_grid` /
/// `launch_uds` tiles one row or column past the micro-tile grid ...
const LADDER_WORKLOAD: [(usize, usize, usize); 9] = [
    (9, 35, 35),
    (9, 25, 49),
    (9, 49, 35),
    (12, 35, 49),
    (17, 38, 44),
    (16, 49, 49),
    (41, 46, 22),
    (45, 42, 25),
    (34, 38, 44),
];
/// ... and their full-panel neighbours (`m` a multiple of 8, `n` of 6):
/// `results_valid` holds the ragged rate to a fraction of the neighbour's.
const LADDER_NEIGHBOURS: [(usize, usize, usize); 3] = [(8, 48, 35), (16, 48, 35), (40, 48, 22)];
/// How many of [`LADDER_WORKLOAD`] a `--tiny` run keeps: CI checks their
/// divergence from naive, not their rates.
const TINY_WORKLOAD_SHAPES: usize = 2;

/// Every measured column: the three kinds as dispatched, then the SIMD
/// kernel with each driver forced (so the threshold between them is read
/// off the file). The name is the JSON key.
fn columns() -> Vec<(&'static str, GemmFn)> {
    let mut cols: Vec<(&'static str, GemmFn)> =
        KernelKind::ALL.iter().map(|k| (k.name(), k.func())).collect();
    cols.push(("simd_inplace", |al, a, b, c| gemm_simd_with(SimdDriver::InPlace, al, a, b, c)));
    cols.push(("simd_packed", |al, a, b, c| gemm_simd_with(SimdDriver::Packed, al, a, b, c)));
    cols
}

/// Operand working set the timing ring is sized to exceed, so successive
/// iterations read mostly cache-cold tiles — the executor streams distinct
/// A/B tiles per Gemm, and a single-pair loop would overstate kernels whose
/// packing cost is hidden by cache-hot reruns.
const TIMING_RING_BYTES: usize = 4 << 20;

/// Timed rounds per shape. Every round times one batch of every column in
/// turn and the fastest batch of each is reported: the box's other tenants
/// only ever add time, and a burst of theirs lands on one round of all the
/// columns rather than on every batch of one.
const ROUNDS: usize = 15;

/// Measured flop rate of each of `columns` on an `m × n × k` product, in
/// Gflop/s.
///
/// Calls rotate through a ring of distinct `(a, b)` operand pairs
/// accumulating into a single shared `c` — the executor's cache profile:
/// every Gemm of a block streams fresh A/B tiles but accumulates into a C
/// tile that stays resident across the block's whole k-loop. A column's
/// batch is grown until it is long enough to trust, then repeated.
fn measure_gflops(
    columns: &[(&'static str, GemmFn)],
    (m, n, k): (usize, usize, usize),
    min_batch: Duration,
) -> Vec<f64> {
    let per_set = 8 * (m * k + k * n);
    // At least two sets: a ring of one would rerun the largest shapes hot.
    let len = TIMING_RING_BYTES.div_ceil(per_set).clamp(2, 64);
    let sets: Vec<(Tile, Tile)> = (0..len as u64)
        .map(|i| {
            let seed = 0x5eed_0000 + i;
            (Tile::random(m, k, seed), Tile::random(k, n, seed ^ 0xB))
        })
        .collect();
    let mut c = Tile::zeros(m, n);
    let mut next = 0;
    let mut batch = |kernel: GemmFn, iters: u32| {
        let t0 = Instant::now();
        for _ in 0..iters {
            let (a, b) = &sets[next];
            kernel(1.0, a, b, &mut c);
            next = (next + 1) % len;
        }
        t0.elapsed()
    };
    let iters: Vec<u32> = columns
        .iter()
        .map(|&(_, kernel)| {
            batch(kernel, 1); // warm the pack scratch and instruction cache
            let mut iters = 1;
            while batch(kernel, iters) < min_batch && iters < 1 << 16 {
                iters *= 4;
            }
            iters
        })
        .collect();
    let mut best = vec![Duration::MAX; columns.len()];
    for _ in 0..ROUNDS {
        for ((&(_, kernel), &iters), best) in columns.iter().zip(&iters).zip(&mut best) {
            // An untimed quarter batch first, so no column inherits the cache
            // and clock state of the column timed before it (the SIMD
            // columns read 5–10% slow right after the scalar ones).
            batch(kernel, iters.div_ceil(4));
            *best = (*best).min(batch(kernel, iters));
        }
    }
    let flops = gemm_flops(m as u64, n as u64, k as u64) as f64;
    iters.iter().zip(&best).map(|(&it, t)| flops * f64::from(it) / t.as_secs_f64() / 1e9).collect()
}

/// Whether this host has the features the SIMD kernel needs, asked of the
/// CPU directly so the record does not depend on the code it qualifies.
fn cpu_features() -> (bool, bool) {
    #[cfg(target_arch = "x86_64")]
    return (is_x86_feature_detected!("avx2"), is_x86_feature_detected!("fma"));
    #[cfg(not(target_arch = "x86_64"))]
    (false, false)
}

fn main() {
    let mut tiny = false;
    let mut out_path = "results/BENCH_kernels.json".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tiny" => tiny = true,
            "--out" => out_path = flag_value(USAGE, "--out", it.next()),
            other => usage_exit(USAGE, &format!("unknown argument {other}")),
        }
    }

    // A synthetic plan's shape histogram, so the shape mix matches what the
    // executor runs.
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

    // Heaviest plan shapes by total flops, then the ladder (`tasks` = 0
    // marks a shape no plan asked for). `--tiny` keeps the ladder's shapes
    // of edge ≤ 200: CI checks the columns and the document, not the rates.
    let mut weighted: Vec<((usize, usize, usize), u64, u128)> = hist
        .iter()
        .map(|&((m, n, k), count)| {
            let fl = gemm_flops(m as u64, n as u64, k as u64) as u128 * count as u128;
            ((m, n, k), count, fl)
        })
        .collect();
    weighted.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
    weighted.truncate(MAX_SHAPES);
    let mut shapes: Vec<((usize, usize, usize), u64)> =
        weighted.iter().map(|&(shape, count, _)| (shape, count)).collect();
    let max_edge = if tiny { 200 } else { usize::MAX };
    let ladder = LADDER_CUBES.iter().map(|&e| (e, e, e)).chain(LADDER_RAGGED);
    let workload = LADDER_WORKLOAD
        .into_iter()
        .chain(LADDER_NEIGHBOURS)
        .take(if tiny { TINY_WORKLOAD_SHAPES } else { usize::MAX });
    shapes.extend(
        ladder
            .filter(|&(m, n, k)| m.max(n).max(k) <= max_edge)
            .chain(workload)
            .map(|shape| (shape, 0)),
    );
    let min_batch = Duration::from_micros(if tiny { 200 } else { 4000 });

    println!(
        "# kernel micro-benchmark — {} distinct shapes in plan, benchmarking top {} + {} ladder shapes",
        hist.len(),
        weighted.len(),
        shapes.len() - weighted.len()
    );

    let columns = columns();
    let mut shapes_json = String::new();
    for (si, &((m, n, k), count)) in shapes.iter().enumerate() {
        // Correctness gate: every column must agree with the naive triple
        // loop on this exact shape.
        let a = Tile::random(m, k, 0xA0 + si as u64);
        let b = Tile::random(k, n, 0xB0 + si as u64);
        let c0 = Tile::random(m, n, 0xC0 + si as u64);
        let mut c_ref = c0.clone();
        gemm_naive(1.0, &a, &b, &mut c_ref);
        for &(name, kernel) in &columns {
            let mut c = c0.clone();
            kernel(1.0, &a, &b, &mut c);
            let diff = c.max_abs_diff(&c_ref);
            if diff >= 1e-10 {
                eprintln!(
                    "error: kernel {name} diverges from naive on {m}x{n}x{k}: max |Δ| = {diff:.3e}"
                );
                std::process::exit(1);
            }
        }

        // Flop rates through the cache-cold ring (the executor streams
        // distinct operand tiles, so a hot single-pair loop would lie).
        let rates: Vec<(&str, f64)> = columns
            .iter()
            .map(|&(name, _)| name)
            .zip(measure_gflops(&columns, (m, n, k), min_batch))
            .collect();
        let winner = rates
            .iter()
            .max_by(|x, y| x.1.total_cmp(&y.1))
            .map(|&(name, _)| name)
            .expect("at least one column");
        let heuristic = select_heuristic(m, n, k).name();

        let rate_strs: Vec<String> = rates.iter().map(|(name, g)| format!("{name}={g:.2}")).collect();
        let rate_json: Vec<String> =
            rates.iter().map(|(name, g)| format!("\"{name}\": {g:.4}")).collect();
        println!(
            "  {m}x{n}x{k} (x{count}): {}  -> {winner} (heuristic: {heuristic})",
            rate_strs.join(" "),
        );

        if si > 0 {
            shapes_json.push_str(",\n");
        }
        write!(
            shapes_json,
            "    {{\"m\": {m}, \"n\": {n}, \"k\": {k}, \"tasks\": {count}, \
             \"gflops\": {{{}}}, \"winner\": \"{winner}\", \"heuristic\": \"{heuristic}\"}}",
            rate_json.join(", "),
        )
        .unwrap();
    }

    let (avx2, fma) = cpu_features();
    let json = format!(
        "{{\n  \"problem\": {{\"m\": {}, \"n\": {}, \"k\": {}, \"tiny\": {tiny}}},\n  \
         \"cpu\": {{\"avx2\": {avx2}, \"fma\": {fma}}},\n  \
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
    // measured rate for every column of every shape.
    let doc = match minijson::parse(&json) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("error: emitted JSON does not parse: {e}");
            std::process::exit(1);
        }
    };
    let parsed = doc
        .get("shapes")
        .and_then(|v| v.as_arr())
        .unwrap_or_else(|| {
            eprintln!("error: emitted JSON has no shapes array");
            std::process::exit(1);
        });
    for (s, &((m, n, k), _)) in parsed.iter().zip(&shapes) {
        for &(name, _) in &columns {
            let rate = s.get("gflops").and_then(|g| g.get(name)).and_then(|v| v.as_num());
            if !rate.is_some_and(|r| r > 0.0) {
                eprintln!("error: shape {m}x{n}x{k} lacks a positive rate for {name}");
                std::process::exit(1);
            }
        }
    }
    if parsed.len() != shapes.len() {
        eprintln!("error: emitted {} shapes, measured {}", parsed.len(), shapes.len());
        std::process::exit(1);
    }
    println!(
        "# wrote {out_path}: {} shapes, every column verified against naive to 1e-10",
        parsed.len()
    );
}
