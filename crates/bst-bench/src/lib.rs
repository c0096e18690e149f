//! Shared driver code for the reproduction binaries: `repro`, whose rows
//! regenerate the paper's tables and figures, and `repro_kernels`, the
//! self-validating kernel roofline ladder.
//!
//! The two sweeps several rows of `repro` read:
//!
//! * [`synthetic_sweep`] — the §5.1 synthetic benchmark grid (M = 48k, N = K
//!   swept, densities {1, .75, .5, .25, .1}, 16 Summit nodes) for Figures
//!   2, 3 and 4;
//! * [`scaling_sweep`] — the §5.2 C65H132 strong-scaling sweep (3–108 GPUs,
//!   tilings v1/v2/v3) for Figures 7, 8 and 9.

use bst_chem::{CcsdProblem, TilingSpec};
use bst_contract::{ExecutionPlan, ProblemSpec};
use bst_sim::dbcsr::{simulate_dbcsr, DbcsrOom, DbcsrReport};
use bst_sim::replay::simulate_best_p;
use bst_sim::{simulate, Platform, SimReport};
use bst_sparse::generate::{generate, SyntheticParams};

pub mod minijson;

/// The densities of the paper's Fig. 2.
pub const DENSITIES: [f64; 5] = [1.0, 0.75, 0.5, 0.25, 0.1];

/// The default N = K sweep of Fig. 2 (up to 750k).
pub const SIZES: [u64; 6] = [48_000, 96_000, 192_000, 384_000, 576_000, 750_000];

/// A reduced sweep for `--quick` runs.
pub const SIZES_QUICK: [u64; 3] = [48_000, 192_000, 384_000];

/// The GPU counts of Figs. 7–9.
pub const GPU_COUNTS: [usize; 7] = [3, 6, 12, 24, 48, 96, 108];

/// One problem of the synthetic grid.
pub struct SyntheticCase {
    /// `N = K`.
    pub nk: u64,
    /// Target density.
    pub density: f64,
    /// The problem structures.
    pub spec: ProblemSpec,
}

/// The synthetic grid: every size of `sizes` at every density of
/// [`DENSITIES`], sizes outermost.
pub fn synthetic_cases(sizes: &[u64]) -> Vec<SyntheticCase> {
    sizes
        .iter()
        .flat_map(|&nk| {
            DENSITIES.iter().map(move |&density| SyntheticCase {
                nk,
                density,
                spec: synthetic_spec(nk, density, 42),
            })
        })
        .collect()
}

/// One measured point of the synthetic sweep.
pub struct SyntheticPoint {
    /// `N = K`.
    pub nk: u64,
    /// Target density.
    pub density: f64,
    /// Best grid-row count `p` for the PaRSEC-style run.
    pub best_p: usize,
    /// PaRSEC-style simulated report.
    pub parsec: SimReport,
    /// DBCSR simulated report, or the capacity failure.
    pub dbcsr: Result<DbcsrReport, DbcsrOom>,
}

/// Builds the §5.1 synthetic problem for one grid point.
pub fn synthetic_spec(nk: u64, density: f64, seed: u64) -> ProblemSpec {
    let prob = generate(&SyntheticParams::paper(nk, density, seed));
    ProblemSpec::new(prob.a, prob.b, None)
}

/// Simulates every case on `nodes` Summit nodes, PaRSEC-style (at its best
/// grid-row count) and as libDBCSR.
pub fn synthetic_sweep(cases: &[SyntheticCase], nodes: usize) -> Vec<SyntheticPoint> {
    let platform = Platform::summit(nodes);
    let mut out = Vec::new();
    for case in cases {
        let (nk, density) = (case.nk, case.density);
        let (best_p, parsec) =
            simulate_best_p(&case.spec, &platform).expect("synthetic plan must build");
        let dbcsr = simulate_dbcsr(&case.spec, &platform);
        eprintln!(
            "  [sweep] N=K={nk} density={density}: parsec {:.1} Tflop/s (p={best_p}), dbcsr {}",
            parsec.tflops(),
            match &dbcsr {
                Ok(r) => format!("{:.1} Tflop/s", r.tflops()),
                Err(_) => "OOM".to_string(),
            }
        );
        out.push(SyntheticPoint {
            nk,
            density,
            best_p,
            parsec,
            dbcsr,
        });
    }
    out
}

/// One measured point of the C65H132 strong-scaling sweep.
pub struct ScalingPoint {
    /// Tiling variant label ("v1", "v2", "v3").
    pub tiling: &'static str,
    /// GPU count.
    pub gpus: usize,
    /// Simulated report.
    pub report: SimReport,
}

/// Builds the three C65H132 problems (tilings v1/v2/v3).
pub fn c65h132_problems(seed: u64) -> Vec<(&'static str, CcsdProblem)> {
    vec![
        ("v1", CcsdProblem::c65h132(TilingSpec::v1(), seed)),
        ("v2", CcsdProblem::c65h132(TilingSpec::v2(), seed)),
        ("v3", CcsdProblem::c65h132(TilingSpec::v3(), seed)),
    ]
}

/// Problem spec of a CCSD problem (T·V with the screened R shape).
pub fn ccsd_spec(p: &CcsdProblem) -> ProblemSpec {
    ProblemSpec::new(p.t.clone(), p.v.clone(), Some(p.r.shape().clone()))
}

/// Runs the strong-scaling sweep of Figs. 7–9 over `gpu_counts`.
pub fn scaling_sweep(gpu_counts: &[usize], seed: u64) -> Vec<ScalingPoint> {
    let mut out = Vec::new();
    for (label, problem) in c65h132_problems(seed) {
        let spec = ccsd_spec(&problem);
        for &gpus in gpu_counts {
            let platform = Platform::summit_gpus(gpus);
            let plan = ExecutionPlan::build(&spec, platform.planner_config(1))
                .expect("ccsd plan must build");
            let report = simulate(&spec, &plan, &platform);
            eprintln!(
                "  [scaling] {label} on {gpus} GPUs: {:.1} s, {:.1} Tflop/s (bounds: compute {:.1}s h2d {:.1}s nic {:.1}s bgen {:.1}s)",
                report.makespan_s,
                report.tflops(),
                report.compute_bound_s,
                report.h2d_bound_s,
                report.nic_bound_s,
                report.bgen_bound_s
            );
            out.push(ScalingPoint {
                tiling: label,
                gpus,
                report,
            });
        }
    }
    out
}

/// The problem `repro_kernels` takes its shape histogram from, with its
/// per-GPU memory budget: a CI-sized synthetic contraction (`tiny`, a numeric
/// run finishes in well under a second) or a ~10x larger one.
pub fn numeric_bench_problem(tiny: bool) -> (ProblemSpec, u64) {
    let (m, nk, density, tile_min, tile_max, gpu_mem) = if tiny {
        (160, 1280, 0.6, 8, 24, 1 << 21)
    } else {
        (400, 3200, 0.5, 48, 128, 1 << 23)
    };
    let prob = generate(&SyntheticParams {
        m,
        n: nk,
        k: nk,
        density,
        tile_min,
        tile_max,
        seed: 42,
    });
    (ProblemSpec::new(prob.a, prob.b, None), gpu_mem)
}

/// Writes a CSV file into `results/` (creating the directory), one header
/// row plus data rows — so every figure can be re-plotted with the gnuplot
/// script in `results/plot.gp`.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) -> std::io::Result<()> {
    use std::io::Write;
    std::fs::create_dir_all("results")?;
    let mut f = std::io::BufWriter::new(std::fs::File::create(format!("results/{name}"))?);
    writeln!(f, "{}", header.join(","))?;
    for row in rows {
        writeln!(f, "{}", row.join(","))?;
    }
    f.flush()
}

/// Rejects a bad command line the way a CLI should: `error: {msg}` and the
/// usage line on stderr, exit status 2 — not a panic with a backtrace.
pub fn usage_exit(usage: &str, msg: &str) -> ! {
    eprintln!("error: {msg}\n{usage}");
    std::process::exit(2)
}

/// The value following `flag` on the command line, parsed as `T`;
/// [`usage_exit`] when it is missing or does not parse.
pub fn flag_value<T: std::str::FromStr>(
    usage: &str,
    flag: &str,
    value: Option<impl AsRef<str>>,
) -> T {
    let Some(value) = value else {
        usage_exit(usage, &format!("{flag} needs a value"));
    };
    let value = value.as_ref();
    value.parse().unwrap_or_else(|_| {
        usage_exit(usage, &format!("{flag}: cannot parse {value:?} as {}", std::any::type_name::<T>()))
    })
}
