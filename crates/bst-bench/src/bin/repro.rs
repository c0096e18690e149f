//! Regenerates the paper's evaluation on the simulated Summit: Table 1,
//! Figures 2–9, the §5.2 CPU comparison, the \[22\] dense comparison, and
//! the studies beyond the paper. Each is one row of [`ROWS`]: its
//! paper-shape targets, the flags it reads and a printer.
//!
//! ```text
//! repro <row>... [--quick] [--carbons N] [--tiling v1|v2|v3]
//! repro all
//! repro list
//! ```
//!
//! `repro <row>...` prints the rows to stdout; a flag applies to every row
//! named, and one a row does not read is a usage error. `repro all` runs
//! every row at its defaults and writes `results/<row>.txt`. Rows that plot
//! also write `results/fig2.csv`, `fig4.csv`, `fig789.csv` and
//! `fig5_{t,v,r}.pgm`. Paths are relative to the working directory. Each
//! sweep runs once per process: the §5.1 synthetic sweep serves `fig2`,
//! `fig3` and `fig4`, and the C65H132 strong-scaling sweep serves `fig7`,
//! `fig8` and `fig9`. `repro list` prints every row with its flags and
//! targets.

use bst_bench::{
    c65h132_problems, ccsd_spec, flag_value, scaling_sweep, synthetic_cases, synthetic_spec,
    synthetic_sweep, usage_exit, write_csv, ScalingPoint, SyntheticCase, SyntheticPoint, DENSITIES,
    GPU_COUNTS, SIZES, SIZES_QUICK,
};
use bst_chem::basis::{ao_rank, occupied_rank};
use bst_chem::{CcsdProblem, Molecule, ProblemTraits, ScreeningParams, TilingSpec};
use bst_contract::config::AssignPolicy;
use bst_contract::stationary_c::StationaryCPlan;
use bst_contract::{ExecutionPlan, PlannerConfig, ProblemSpec};
use bst_sim::cpu::simulate_cpu_only;
use bst_sim::replay::{simulate_best_p, simulate_traced, Trace};
use bst_sim::stationary::{simulate_stationary_c, StationaryCReport};
use bst_sim::{simulate, Platform};
use bst_sparse::generate::{generate, SyntheticParams};
use bst_sparse::structure::{max_arithmetic_intensity, product_structure};
use bst_sparse::MatrixStructure;
use std::fmt::Write as _;
use std::time::Instant;

const USAGE: &str = "usage: repro <row>... [--quick] [--carbons N] [--tiling v1|v2|v3] \
| repro all | repro list";

/// What a printer returns: a formatting or I/O failure, reported as
/// `error:` with exit status 1.
type Printed = Result<(), Box<dyn std::error::Error>>;

/// One table or figure.
struct Row {
    /// The row's name, also its `results/<name>.txt`.
    name: &'static str,
    /// The flags the row reads.
    flags: &'static [&'static str],
    /// What the row reproduces and the paper's shape targets.
    doc: &'static str,
    /// Appends the row's text to `out` (and writes its plot files).
    print: fn(&mut Ctx, &mut String) -> Printed,
}

/// Every row, in `repro all` order.
const ROWS: &[Row] = &[
    Row {
        name: "table1",
        flags: &["--carbons"],
        doc: "Table 1: problem traits of the C65H132 / def2-SVP ABCD contraction for the
three tilings v1 (finest) … v3 (coarsest). `--carbons N` builds C_NH_2N+2
instead, with the tilings scaled to it (default 65; smaller = faster). Paper
values:
  M×N×K            26576 × 2464900 × 2464900   (ours: M = O² = 38416;
                   the paper's M reflects a symmetry-reduced ij range)
  #flop            877 / 923 / 1237 Tflop
  #flop (opt.)     850 / 899 / 1209 Tflop
  #GEMM tasks      1 899 971 / 468 368 / 67 818
  #tasks (opt.)    1 843 309 / 455 159 / 66 315
  rows/block       700 / [500;2500] / [1000;5000]
  density T        9.8 / 10.2 / 13.2 %
  density V        2.4 / 2.6 / 3.1 %
  density R (opt.) 14.9 / 16.1 / 21.7 %",
        print: table1,
    },
    Row {
        name: "fig2",
        flags: &["--quick"],
        doc: "Figure 2: performance (Tflop/s) of the block-sparse product vs N = K and
density on 16 Summit nodes (96 GPUs, aggregate GEMM peak ≈ 672 Tflop/s), for
the PaRSEC-style implementation and the libDBCSR baseline with its capacity
failures. Targets: density dominates performance; PaRSEC peaks around
250–300 Tflop/s for large dense problems and stays well below 100 for
density 0.1; libDBCSR runs out of memory from (48k, 192k, 192k) dense upward
and reaches ≈ half of PaRSEC's throughput where it runs (109 vs 203 Tflop/s
at the dense square 48k point). Writes results/fig2.csv.",
        print: fig2,
    },
    Row {
        name: "fig3",
        flags: &["--quick"],
        doc: "Figure 3: maximum (theoretical) arithmetic intensity of the synthetic
problem — total flops over the stored bytes of A, B and C — vs N = K and
density. Targets: intensity grows with N = K (more operations per byte of
the short-and-wide A) and collapses with density; the dense curve reaches
thousands of flop/byte while density 0.1 stays far below.",
        print: fig3,
    },
    Row {
        name: "fig4",
        flags: &["--quick"],
        doc: "Figure 4: time to completion (s) of the synthetic problem vs N = K and
density on 16 Summit nodes. Targets: although Tflop/s drops with sparsity
(Fig. 2), the flop count drops faster, so the time to solution decreases
with the density at every size; the dense curve grows steeply with N = K (up
to ~100 s at N = K = 750k). Writes results/fig4.csv.",
        print: fig4,
    },
    Row {
        name: "fig5",
        flags: &[],
        doc: "Figure 5: the matricised block-sparse T, V and R of C65H132 (tiling v1), as
PGM density maps (results/fig5_{t,v,r}.pgm, darker = larger tile norm) and
ASCII previews. Target: extreme banded sparsity from the
quasi-one-dimensional molecule — T and R are short-and-wide with
diagonal-block bands; V is a huge square banded matrix.",
        print: fig5,
    },
    Row {
        name: "fig6",
        flags: &[],
        doc: "Figure 6: tile-size distribution (fused-tile MB) of the three C65H132
tilings. Targets: v1 concentrates around 2.5–5.5 MB tiles, v2 spreads over
0–40 MB, v3 over 0–200 MB — coarser clustering makes tiles larger and more
irregular.",
        print: fig6,
    },
    Row {
        name: "fig7",
        flags: &["--quick"],
        doc: "Figure 7: time to completion (s) of the C65H132 ABCD contraction vs GPU
count (3–108) for tilings v1/v2/v3, with the perfect-scaling line from the
3-GPU point. Targets: v1 goes 272 s (3 GPUs) → 34.9 s (108 GPUs) at ≈21%
parallel efficiency; v2 and v3 have similar wall-clock despite v3 doing ≈34%
more flops, both at ≈35% efficiency; all curves fall well short of perfect
scaling because the A broadcast grows with the node count. Writes
results/fig789.csv.",
        print: fig7,
    },
    Row {
        name: "fig8",
        flags: &["--quick"],
        doc: "Figure 8: performance per GPU (Tflop/s) vs GPU count for C65H132, tilings
v1/v2/v3. Targets: per-GPU performance follows the inverse of tiling
fineness — v3 (coarsest) peaks around 2.5 Tflop/s (≈35% of practical peak)
at few GPUs and degrades to ≈11% at 108 GPUs; v1 (finest) stays lowest
throughout. Sparsity limits tile re-use, so GPU I/O dominates.",
        print: fig8,
    },
    Row {
        name: "fig9",
        flags: &["--quick"],
        doc: "Figure 9: total performance (Tflop/s) vs GPU count for C65H132, tilings
v1/v2/v3. Target: despite the degrading per-GPU efficiency (Fig. 8), total
performance keeps increasing up to 108 GPUs (to ≈80 Tflop/s for the coarser
tilings), because the added flops of coarser tilings overlap with the data
transfers that dominate.",
        print: fig9,
    },
    Row {
        name: "ablations",
        flags: &["--quick"],
        doc: "Ablations of the §3.2 design choices (not a paper figure): column assignment
(mirrored-cyclic vs cyclic vs LPT), prefetch depth (0, 1 = paper, 2), the
rejected C-reduction variant of §3.1, and the grid-row parameter p (B
replication vs A broadcast volume).",
        print: ablations,
    },
    Row {
        name: "cpu_comparison",
        flags: &[],
        doc: "§5.2 CPU comparison: the CPU-only MPQC evaluation of the C65H132 ABCD term
on {8, 16} Summit nodes (measured {308, 158} s in the paper) against the GPU
implementation with the most performant tiling (v3) on the same nodes.
Target: a ≈10× speedup.",
        print: cpu_comparison,
    },
    Row {
        name: "dense_comparison",
        flags: &[],
        doc: "§5.1 comparison with [22]: \"80% to 90% of the GEMM-peak should be
achievable. This difference is due to the problem shape, which required a
different algorithm.\" Runs the dense-oriented stationary-C algorithm and
the paper's stationary-B algorithm on the square dense 48k problem and on a
short-and-wide CCSD-shaped problem, showing the crossover that motivated the
paper's design.",
        print: dense_comparison,
    },
    Row {
        name: "dimensionality",
        flags: &[],
        doc: "§7 conjecture: \"different molecules have the potential to provide much
denser and compute-intensive input matrices\". Compares molecules of
comparable AO rank but different dimensionality — a 1-d alkane chain, a 2-d
CH2 sheet, a 3-d cluster — on one simulated machine: tensor densities,
arithmetic intensity, per-GPU rate.",
        print: dimensionality,
    },
    Row {
        name: "frontier_projection",
        flags: &[],
        doc: "Forward projection after §1 (\"Frontier ... with four AMD Radeon GPUs per
node\") and §7: the C65H132 contraction and a ~2× longer chain on a
Frontier-like platform next to Summit.",
        print: frontier_projection,
    },
    Row {
        name: "weak_scaling",
        flags: &[],
        doc: "Weak scaling (an extension; Figs. 7–9 are strong scaling only): the chain
grows with the machine and the row tracks per-GPU throughput, because the
screened flop count of a chain grows superlinearly with its length. Retained
per-GPU Tflop/s means the machine scales with the science.",
        print: weak_scaling,
    },
    Row {
        name: "trace",
        flags: &["--tiling"],
        doc: "The execution profile behind §5.2's \"GPU I/O dominates the execution
time\": an ASCII Gantt of the simulated GPUs ('#' compute, '-' host↔device
transfer) for a C40H82 run on 2 nodes × 6 GPUs, with per-GPU compute
utilisation. `--tiling` picks v1 (default), v2 or v3.",
        print: trace,
    },
];

/// The flags of one invocation and the sweeps its rows share, each run at
/// most once.
struct Ctx {
    quick: bool,
    carbons: usize,
    tiling: &'static str,
    synthetic_cases: Option<Vec<SyntheticCase>>,
    synthetic: Option<Vec<SyntheticPoint>>,
    scaling: Option<Vec<ScalingPoint>>,
}

impl Default for Ctx {
    fn default() -> Self {
        Self {
            quick: false,
            carbons: 65,
            tiling: "v1",
            synthetic_cases: None,
            synthetic: None,
            scaling: None,
        }
    }
}

impl Ctx {
    fn sizes(&self) -> &'static [u64] {
        if self.quick {
            &SIZES_QUICK
        } else {
            &SIZES
        }
    }

    fn gpu_counts(&self) -> &'static [usize] {
        if self.quick {
            &GPU_COUNTS[..4]
        } else {
            &GPU_COUNTS
        }
    }

    /// The §5.1 synthetic problems, sizes outermost.
    fn synthetic_cases(&mut self) -> &[SyntheticCase] {
        let sizes = self.sizes();
        self.synthetic_cases
            .get_or_insert_with(|| synthetic_cases(sizes))
    }

    /// The §5.1 synthetic sweep on 16 Summit nodes, in case order.
    fn synthetic(&mut self) -> &[SyntheticPoint] {
        if self.synthetic.is_none() {
            let points = synthetic_sweep(self.synthetic_cases(), 16);
            self.synthetic = Some(points);
        }
        self.synthetic.as_deref().unwrap_or_default()
    }

    /// The C65H132 strong-scaling sweep, tiling outermost.
    fn scaling(&mut self) -> &[ScalingPoint] {
        let gpu_counts = self.gpu_counts();
        self.scaling
            .get_or_insert_with(|| scaling_sweep(gpu_counts, 42))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [only] if only == "list" => return list(),
        [only] if only == "all" => return all(),
        _ => {}
    }
    let mut ctx = Ctx::default();
    let mut rows: Vec<&Row> = Vec::new();
    let mut given: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => ctx.quick = true,
            "--carbons" => {
                ctx.carbons = flag_value(USAGE, "--carbons", it.next());
                if ctx.carbons < 1 {
                    usage_exit(USAGE, "--carbons must be >= 1");
                }
            }
            "--tiling" => {
                let tiling: String = flag_value(USAGE, "--tiling", it.next());
                ctx.tiling = TILINGS
                    .into_iter()
                    .find(|t| *t == tiling)
                    .unwrap_or_else(|| {
                        usage_exit(USAGE, &format!("--tiling: unknown tiling {tiling}"))
                    });
            }
            "all" | "list" => usage_exit(USAGE, &format!("`repro {arg}` takes no other argument")),
            flag if flag.starts_with('-') => usage_exit(USAGE, &format!("unknown argument {flag}")),
            name => match ROWS.iter().find(|r| r.name == name) {
                Some(row) => rows.push(row),
                None => usage_exit(
                    USAGE,
                    &format!("unknown row {name} (`repro list` names them)"),
                ),
            },
        }
        if arg.starts_with('-') {
            given.push(arg);
        }
    }
    if rows.is_empty() {
        usage_exit(USAGE, "no row given");
    }
    for row in &rows {
        if let Some(flag) = given.iter().find(|f| !row.flags.contains(f)) {
            let readers: Vec<&str> = ROWS
                .iter()
                .filter(|r| r.flags.contains(flag))
                .map(|r| r.name)
                .collect();
            usage_exit(
                USAGE,
                &format!(
                    "{flag} is not a flag of `repro {}` (only of {})",
                    row.name,
                    readers.join(", ")
                ),
            );
        }
    }
    for row in rows {
        let mut out = String::new();
        fail_on_error(row, (row.print)(&mut ctx, &mut out));
        emit(&out);
    }
}

/// `repro all`: every row at its defaults into `results/<row>.txt`.
fn all() {
    let mut ctx = Ctx::default();
    let start = Instant::now();
    for row in ROWS {
        let t0 = Instant::now();
        let mut out = String::new();
        let path = format!("results/{}.txt", row.name);
        let result = (row.print)(&mut ctx, &mut out).and_then(|()| {
            std::fs::create_dir_all("results")?;
            std::fs::write(&path, &out).map_err(|e| format!("{path}: {e}").into())
        });
        fail_on_error(row, result);
        eprintln!("wrote {path} ({:.1} s)", t0.elapsed().as_secs_f64());
    }
    eprintln!(
        "repro all: {} rows in {:.1} s",
        ROWS.len(),
        start.elapsed().as_secs_f64()
    );
}

/// `repro list`: every row, its flags and its targets.
fn list() {
    let mut out = String::new();
    for row in ROWS {
        out += &format!("{} {}\n", row.name, row.flags.join(" "));
        for line in row.doc.lines() {
            out += &format!("    {line}\n");
        }
        out.push('\n');
    }
    emit(&out);
}

/// Writes `text` to stdout; a closed or failing stdout is an `error:`,
/// not a panic.
fn emit(text: &str) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().write_all(text.as_bytes()) {
        eprintln!("error: stdout: {e}");
        std::process::exit(1);
    }
}

fn fail_on_error(row: &Row, result: Printed) {
    if let Err(e) = result {
        eprintln!("error: repro {}: {e}", row.name);
        std::process::exit(1);
    }
}

/// The paper's tilings, finest first.
const TILINGS: [&str; 3] = ["v1", "v2", "v3"];

/// The C65H132 tiling named `label` (one of [`TILINGS`]).
fn tiling_spec(label: &str) -> TilingSpec {
    match label {
        "v1" => TilingSpec::v1(),
        "v2" => TilingSpec::v2(),
        _ => TilingSpec::v3(),
    }
}

/// A table header of the density columns.
fn density_header(out: &mut String) -> std::fmt::Result {
    let cols: String = DENSITIES
        .iter()
        .map(|d| format!("{:>12}", format!("d={d}")))
        .collect();
    writeln!(out, "{:>8} {cols}", "N=K")
}

fn table1(ctx: &mut Ctx, out: &mut String) -> Printed {
    let carbons = ctx.carbons;
    let molecule = Molecule::alkane(carbons);
    writeln!(
        out,
        "# Table 1 reproduction — {} (O = {}, U = {})",
        molecule.formula(),
        occupied_rank(&molecule),
        ao_rank(&molecule)
    )?;
    writeln!(
        out,
        "{:<22} {:>14} {:>14} {:>14}",
        "trait", "v1", "v2", "v3"
    )?;
    let all: Vec<ProblemTraits> = TILINGS
        .map(|label| {
            let spec = tiling_spec(label);
            let spec = if carbons == 65 {
                spec
            } else {
                spec.scaled_for(&molecule)
            };
            ProblemTraits::compute(&CcsdProblem::build(
                &molecule,
                spec,
                ScreeningParams::default(),
                42,
            ))
        })
        .into();
    let mut row = |name: &str, f: &dyn Fn(&ProblemTraits) -> String| {
        writeln!(
            out,
            "{:<22} {:>14} {:>14} {:>14}",
            name,
            f(&all[0]),
            f(&all[1]),
            f(&all[2])
        )
    };
    row("M x N x K", &|t| format!("{}x{}x{}", t.m, t.n, t.k))?;
    row("#flop (Tflop)", &|t| {
        format!("{:.0}", t.flops as f64 / 1e12)
    })?;
    row("#flop opt (Tflop)", &|t| {
        format!("{:.0}", t.flops_opt as f64 / 1e12)
    })?;
    row("#GEMM tasks", &|t| format!("{}", t.gemm_tasks))?;
    row("#GEMM tasks opt", &|t| format!("{}", t.gemm_tasks_opt))?;
    row("mean rows/block", &|t| format!("{:.0}", t.mean_block_rows))?;
    row("rows/block range", &|t| {
        format!("[{};{}]", t.block_rows_range.0, t.block_rows_range.1)
    })?;
    row("density T (%)", &|t| format!("{:.1}", t.density_t * 100.0))?;
    row("density V (%)", &|t| format!("{:.1}", t.density_v * 100.0))?;
    row("density R opt (%)", &|t| {
        format!("{:.1}", t.density_r_opt * 100.0)
    })?;
    Ok(())
}

fn fig2(ctx: &mut Ctx, out: &mut String) -> Printed {
    let points = ctx.synthetic();
    let csv: Vec<Vec<String>> = points
        .iter()
        .map(|pt| {
            vec![
                pt.nk.to_string(),
                pt.density.to_string(),
                format!("{:.2}", pt.parsec.tflops()),
                match &pt.dbcsr {
                    Ok(r) => format!("{:.2}", r.tflops()),
                    Err(_) => "OOM".to_string(),
                },
            ]
        })
        .collect();
    write_csv(
        "fig2.csv",
        &["nk", "density", "parsec_tflops", "dbcsr_tflops"],
        &csv,
    )
    .map_err(|e| format!("results/fig2.csv: {e}"))?;

    writeln!(
        out,
        "# Fig 2 — Performance (Tflop/s) vs N=K and density, 16 nodes of Summit"
    )?;
    writeln!(
        out,
        "# aggregate GEMM peak: 672 Tflop/s (16 x 6 x 7 Tflop/s)"
    )?;
    writeln!(
        out,
        "{:>8} {:>8} {:>6} {:>16} {:>16}",
        "N=K", "density", "p", "PaRSEC (Tf/s)", "libDBCSR (Tf/s)"
    )?;
    for pt in points {
        let dbcsr = match &pt.dbcsr {
            Ok(r) => format!("{:.1}", r.tflops()),
            Err(oom) => format!("OOM({:.1}GB)", oom.needed as f64 / 1e9),
        };
        writeln!(
            out,
            "{:>8} {:>8} {:>6} {:>16.1} {:>16}",
            pt.nk,
            pt.density,
            pt.best_p,
            pt.parsec.tflops(),
            dbcsr
        )?;
    }
    Ok(())
}

fn fig3(ctx: &mut Ctx, out: &mut String) -> Printed {
    writeln!(
        out,
        "# Fig 3 — Theoretical arithmetic intensity (flop/byte) vs N=K and density"
    )?;
    density_header(out)?;
    for cases in ctx.synthetic_cases().chunks(DENSITIES.len()) {
        write!(out, "{:>8}", cases[0].nk)?;
        for case in cases {
            let c = product_structure(&case.spec.a, &case.spec.b, 0.0);
            let ai = max_arithmetic_intensity(&case.spec.a, &case.spec.b, &c);
            write!(out, "{ai:>12.0}")?;
        }
        writeln!(out)?;
    }
    Ok(())
}

fn fig4(ctx: &mut Ctx, out: &mut String) -> Printed {
    let points = ctx.synthetic();
    let csv: Vec<Vec<String>> = points
        .iter()
        .map(|pt| {
            vec![
                pt.nk.to_string(),
                pt.density.to_string(),
                format!("{:.4}", pt.parsec.makespan_s),
            ]
        })
        .collect();
    write_csv("fig4.csv", &["nk", "density", "time_s"], &csv)
        .map_err(|e| format!("results/fig4.csv: {e}"))?;

    writeln!(
        out,
        "# Fig 4 — Time to completion (s) vs N=K and density, 16 nodes of Summit"
    )?;
    density_header(out)?;
    for row in points.chunks(DENSITIES.len()) {
        write!(out, "{:>8}", row[0].nk)?;
        for pt in row {
            write!(out, "{:>12.2}", pt.parsec.makespan_s)?;
        }
        writeln!(out)?;
    }
    Ok(())
}

fn fig5(_: &mut Ctx, out: &mut String) -> Printed {
    writeln!(
        out,
        "# Fig 5 — Matricised block-sparse T, V, R for C65H132 (tiling v1)"
    )?;
    let p = CcsdProblem::c65h132(TilingSpec::v1(), 42);
    std::fs::create_dir_all("results")?;
    for (label, s, path) in [
        ("T (the A operand)", &p.t, "results/fig5_t.pgm"),
        ("V (the B operand)", &p.v, "results/fig5_v.pgm"),
        ("R (the C result)", &p.r, "results/fig5_r.pgm"),
    ] {
        write_pgm(path, s).map_err(|e| format!("{path}: {e}"))?;
        ascii_preview(out, label, s)?;
        writeln!(out, "  -> {path}")?;
    }
    Ok(())
}

/// A PGM density map of `s`'s tile norms, at most 1024 pixels per edge.
fn write_pgm(path: &str, s: &MatrixStructure) -> std::io::Result<()> {
    use std::io::Write;
    let (rows, cols) = (s.tile_rows(), s.tile_cols());
    let step_r = rows.div_ceil(1024).max(1);
    let step_c = cols.div_ceil(1024).max(1);
    let (h, w) = (rows.div_ceil(step_r), cols.div_ceil(step_c));
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "P2\n{w} {h}\n255")?;
    for pr in 0..h {
        let mut line = String::new();
        for pc in 0..w {
            // Max norm within the pixel's tile patch.
            let mut m = 0f32;
            for r in (pr * step_r)..((pr + 1) * step_r).min(rows) {
                for c in (pc * step_c)..((pc + 1) * step_c).min(cols) {
                    m = m.max(s.shape().norm(r, c));
                }
            }
            let px = 255 - (m.clamp(0.0, 1.0) * 255.0) as u32;
            line.push_str(&format!("{px} "));
        }
        writeln!(f, "{line}")?;
    }
    f.flush()
}

/// A 16 × 64 character preview of `s`, shaded by the fraction of non-zero
/// tiles in each patch (so it reflects density rather than a single
/// surviving tile).
fn ascii_preview(out: &mut String, label: &str, s: &MatrixStructure) -> std::fmt::Result {
    let (rows, cols) = (s.tile_rows(), s.tile_cols());
    let (h, w) = (16usize.min(rows), 64usize.min(cols));
    writeln!(
        out,
        "\n{label}: {} x {} tiles, {:.1}% element density",
        rows,
        cols,
        s.element_density() * 100.0
    )?;
    for pr in 0..h {
        let mut line = String::new();
        for pc in 0..w {
            let r0 = pr * rows / h;
            let r1 = ((pr + 1) * rows / h).max(r0 + 1);
            let c0 = pc * cols / w;
            let c1 = ((pc + 1) * cols / w).max(c0 + 1);
            let mut nnz = 0usize;
            for r in r0..r1 {
                for c in c0..c1 {
                    if s.shape().is_nonzero(r, c) {
                        nnz += 1;
                    }
                }
            }
            let frac = nnz as f64 / ((r1 - r0) * (c1 - c0)) as f64;
            line.push(match frac {
                x if x <= 0.0 => ' ',
                x if x < 0.05 => '.',
                x if x < 0.3 => 'o',
                _ => '#',
            });
        }
        writeln!(out, "|{line}|")?;
    }
    Ok(())
}

fn fig6(_: &mut Ctx, out: &mut String) -> Printed {
    writeln!(
        out,
        "# Fig 6 — Tile size distribution (MB) of the B/C column tiling, C65H132"
    )?;
    for (label, p) in c65h132_problems(42) {
        // Tile bytes of the fused cd x ab grid: row size x col size x 8.
        let t = p.v.row_tiling().clone();
        let sizes: Vec<f64> = t
            .sizes()
            .flat_map(|r| t.sizes().map(move |c| (r * c * 8) as f64 / 1e6))
            .collect();
        let max = sizes.iter().cloned().fold(0.0, f64::max);
        let bins = 16usize;
        let mut hist = vec![0usize; bins];
        for &s in &sizes {
            let b = ((s / max) * bins as f64) as usize;
            hist[b.min(bins - 1)] += 1;
        }
        let peak = hist.iter().copied().max().unwrap_or(0);
        writeln!(
            out,
            "\n{label}: {} fused tiles, min {:.2} MB, mean {:.2} MB, max {:.2} MB",
            sizes.len(),
            sizes.iter().cloned().fold(f64::INFINITY, f64::min),
            sizes.iter().sum::<f64>() / sizes.len() as f64,
            max
        )?;
        for (b, &count) in hist.iter().enumerate() {
            let lo = b as f64 * max / bins as f64;
            let hi = (b + 1) as f64 * max / bins as f64;
            let bar = "#".repeat((count * 50).div_ceil(peak.max(1)));
            writeln!(out, "  [{lo:7.2},{hi:7.2}) {count:>7} {bar}")?;
        }
    }
    Ok(())
}

/// `f` of the scaling point of `tiling` on `gpus` GPUs.
fn at(points: &[ScalingPoint], tiling: &str, gpus: usize, f: impl Fn(&ScalingPoint) -> f64) -> f64 {
    points
        .iter()
        .find(|p| p.tiling == tiling && p.gpus == gpus)
        .map(f)
        .unwrap_or(f64::NAN)
}

fn fig7(ctx: &mut Ctx, out: &mut String) -> Printed {
    let gpu_counts = ctx.gpu_counts();
    let points = ctx.scaling();
    let csv: Vec<Vec<String>> = points
        .iter()
        .map(|pt| {
            vec![
                pt.tiling.to_string(),
                pt.gpus.to_string(),
                format!("{:.3}", pt.report.makespan_s),
                format!("{:.3}", pt.report.tflops()),
                format!("{:.4}", pt.report.tflops_per_gpu(pt.gpus)),
            ]
        })
        .collect();
    write_csv(
        "fig789.csv",
        &["tiling", "gpus", "time_s", "tflops", "tflops_per_gpu"],
        &csv,
    )
    .map_err(|e| format!("results/fig789.csv: {e}"))?;

    writeln!(out, "# Fig 7 — Time to completion (s) vs #GPUs, C65H132")?;
    writeln!(
        out,
        "{:>6} {:>10} {:>10} {:>10} {:>12}",
        "#GPUs", "v1", "v2", "v3", "ideal(v1)"
    )?;
    let time = |pt: &ScalingPoint| pt.report.makespan_s;
    let (g0, gmax) = (gpu_counts[0], gpu_counts[gpu_counts.len() - 1]);
    let t0_v1 = at(points, "v1", g0, time);
    for &g in gpu_counts {
        writeln!(
            out,
            "{:>6} {:>10.1} {:>10.1} {:>10.1} {:>12.1}",
            g,
            at(points, "v1", g, time),
            at(points, "v2", g, time),
            at(points, "v3", g, time),
            t0_v1 * g0 as f64 / g as f64
        )?;
    }
    // Parallel efficiency at the largest point, as quoted in the text.
    for label in ["v1", "v2", "v3"] {
        let (t0, t1) = (at(points, label, g0, time), at(points, label, gmax, time));
        let eff = t0 * g0 as f64 / (t1 * gmax as f64) * 100.0;
        writeln!(
            out,
            "# parallel efficiency {label} at {gmax} GPUs: {eff:.1}%"
        )?;
    }
    Ok(())
}

fn fig8(ctx: &mut Ctx, out: &mut String) -> Printed {
    writeln!(
        out,
        "# Fig 8 — Performance per GPU (Tflop/s) vs #GPUs, C65H132"
    )?;
    tiling_columns(ctx, out, 2, |pt| pt.report.tflops_per_gpu(pt.gpus))
}

fn fig9(ctx: &mut Ctx, out: &mut String) -> Printed {
    writeln!(
        out,
        "# Fig 9 — Total performance (Tflop/s) vs #GPUs, C65H132"
    )?;
    tiling_columns(ctx, out, 1, |pt| pt.report.tflops())
}

/// `value` of the scaling sweep, one line per GPU count and one column per
/// tiling, at `precision` decimals.
fn tiling_columns(
    ctx: &mut Ctx,
    out: &mut String,
    precision: usize,
    value: fn(&ScalingPoint) -> f64,
) -> Printed {
    let gpu_counts = ctx.gpu_counts();
    let points = ctx.scaling();
    writeln!(out, "{:>6} {:>10} {:>10} {:>10}", "#GPUs", "v1", "v2", "v3")?;
    for &g in gpu_counts {
        write!(out, "{g:>6}")?;
        for tiling in TILINGS {
            write!(out, " {:>10.precision$}", at(points, tiling, g, value))?;
        }
        writeln!(out)?;
    }
    Ok(())
}

fn ablations(ctx: &mut Ctx, out: &mut String) -> Printed {
    let nk = if ctx.quick { 96_000 } else { 192_000 };
    let platform = Platform::summit(16);
    let spec = synthetic_spec(nk, 0.5, 42);
    // (time, load imbalance) of one plan.
    let run = |spec: &ProblemSpec, config: PlannerConfig| {
        let plan = ExecutionPlan::build(spec, config)?;
        let report = simulate(spec, &plan, &platform);
        Ok::<_, bst_contract::PlanError>((report.makespan_s, plan.stats(spec).load_imbalance))
    };
    writeln!(
        out,
        "# Ablations — synthetic N=K={nk}, density 0.5, 16 nodes of Summit"
    )?;

    writeln!(out, "\n## 1. Column assignment (§3.2.1)")?;
    writeln!(
        out,
        "{:<16} {:>10} {:>12}",
        "policy", "time (s)", "imbalance"
    )?;
    for (name, policy) in [
        ("mirrored-cyclic", AssignPolicy::MirroredCyclic),
        ("cyclic", AssignPolicy::Cyclic),
        ("LPT greedy", AssignPolicy::Lpt),
    ] {
        let mut config = platform.planner_config(2);
        config.assign_policy = policy;
        let (t, imb) = run(&spec, config)?;
        writeln!(out, "{name:<16} {t:>10.3} {imb:>12.3}")?;
    }

    writeln!(out, "\n## 2. Prefetch depth (§3.2.3)")?;
    writeln!(out, "{:<16} {:>10}", "depth", "time (s)")?;
    for depth in [0usize, 1, 2] {
        let mut config = platform.planner_config(2);
        config.prefetch_depth = depth;
        // Keep total chunk memory at 50%: fraction = 0.5 / (depth + 1).
        config.chunk_mem_fraction = 0.5 / (depth as f64 + 1.0);
        let (t, _) = run(&spec, config)?;
        let label = if depth == 1 {
            format!("{depth} (paper)")
        } else {
            depth.to_string()
        };
        writeln!(out, "{label:<16} {t:>10.3}")?;
    }

    writeln!(
        out,
        "\n## 3. The rejected alternative of §3.1: C reductions vs column replication"
    )?;
    // "Technically, this amounts to simulating the product B <- A^T x C and
    // to perform a final reduction of C tiles across grid columns. To avoid
    // these costly reductions, an alternative is to distribute full columns
    // of B to processors..." — quantify both C volumes for C65H132 v2.
    let problem = CcsdProblem::c65h132(TilingSpec::v2(), 42);
    let cspec = ccsd_spec(&problem);
    let q = 16u64;
    writeln!(
        out,
        "reduction variant: every C tile reduced across q=16 grid columns: {:.2} GB of C traffic",
        ((q - 1) * problem.r.bytes()) as f64 / 1e9
    )?;
    let stats = ExecutionPlan::build(&cspec, platform.planner_config(1))?.stats(&cspec);
    writeln!(
        out,
        "the paper's variant: final C moves only: {:.2} GB (C is produced where it lives or moved once)",
        stats.c_network_bytes as f64 / 1e9
    )?;

    writeln!(
        out,
        "\n## 4. Grid rows p (§3.2 trade-off) — C65H132 v2 on 16 nodes"
    )?;
    writeln!(
        out,
        "{:<8} {:>10} {:>16} {:>16}",
        "p", "time (s)", "A network (GB)", "B generated (GB)"
    )?;
    for p in [1usize, 2, 4, 8, 16] {
        match ExecutionPlan::build(&cspec, platform.planner_config(p)) {
            Ok(plan) => {
                let stats = plan.stats(&cspec);
                let report = simulate(&cspec, &plan, &platform);
                writeln!(
                    out,
                    "{p:<8} {:>10.2} {:>16.2} {:>16.2}",
                    report.makespan_s,
                    stats.a_network_bytes as f64 / 1e9,
                    stats.b_generated_bytes as f64 / 1e9
                )?;
            }
            Err(e) => writeln!(out, "{p:<8} plan failed: {e}")?,
        }
    }
    Ok(())
}

fn cpu_comparison(_: &mut Ctx, out: &mut String) -> Printed {
    writeln!(
        out,
        "# §5.2 — CPU-only (MPQC model) vs GPU (tiling v3), C65H132"
    )?;
    let spec = ccsd_spec(&CcsdProblem::c65h132(TilingSpec::v3(), 42));
    writeln!(
        out,
        "{:>6} {:>14} {:>14} {:>10}",
        "nodes", "CPU-only (s)", "GPU v3 (s)", "speedup"
    )?;
    for nodes in [8usize, 16] {
        let platform = Platform::summit(nodes);
        let cpu = simulate_cpu_only(&spec, &platform);
        let plan = ExecutionPlan::build(&spec, platform.planner_config(1))?;
        let gpu = simulate(&spec, &plan, &platform).makespan_s;
        writeln!(
            out,
            "{:>6} {:>14.1} {:>14.1} {:>9.1}x",
            nodes,
            cpu,
            gpu,
            cpu / gpu
        )?;
    }
    writeln!(
        out,
        "# paper: 308 s (8 nodes), 158 s (16 nodes) CPU-only; ≈10x GPU speedup"
    )?;
    Ok(())
}

/// The stationary-C algorithm at its best grid-row count `p`.
fn stationary_c_best_p(
    spec: &ProblemSpec,
    platform: &Platform,
) -> Option<(usize, StationaryCReport)> {
    let mut best: Option<(usize, StationaryCReport)> = None;
    for p in (1..=platform.nodes).filter(|p| platform.nodes % p == 0) {
        if let Ok(plan) = StationaryCPlan::build(spec, platform.planner_config(p)) {
            let blocks: usize = plan
                .nodes
                .iter()
                .flat_map(|n| n.iter())
                .map(|g| g.blocks.len())
                .sum();
            let r = simulate_stationary_c(spec, &plan, platform);
            eprintln!(
                "  [stationary-C] p={p}: {:.3} s, {:.1} Tflop/s, {blocks} blocks, {:.1} GB h2d",
                r.makespan_s,
                r.tflops(),
                r.h2d_bytes as f64 / 1e9
            );
            if best
                .as_ref()
                .is_none_or(|(_, b)| r.makespan_s < b.makespan_s)
            {
                best = Some((p, r));
            }
        }
    }
    best
}

fn dense_comparison(_: &mut Ctx, out: &mut String) -> Printed {
    let platform = Platform::summit(16);
    writeln!(
        out,
        "# [22] comparison — 16 nodes of Summit (aggregate GEMM peak ~672 Tflop/s)"
    )?;
    writeln!(out, "\n## (a) square dense M = N = K = 48k")?;
    // [22] picks its own uniform tiling for a dense problem; the paper's
    // Fig-2 benchmark uses the irregular tiling for the B-stationary run.
    let t = bst_tile::Tiling::uniform(48_000, 1_600);
    let square_uniform = ProblemSpec::new(
        MatrixStructure::dense(t.clone(), t.clone()),
        MatrixStructure::dense(t.clone(), t),
        None,
    );
    let square = synthetic_spec(48_000, 1.0, 42);
    let (pc, sc) = stationary_c_best_p(&square_uniform, &platform).ok_or("no stationary-C plan")?;
    let (pb, sb) = simulate_best_p(&square, &platform)?;
    writeln!(
        out,
        "stationary-C (dense-oriented, [22], uniform tiles): {:.1} Tflop/s = {:.0}% of peak (p={pc}) — paper expects 80-90%",
        sc.tflops(),
        sc.tflops() / 672.0 * 100.0
    )?;
    writeln!(
        out,
        "stationary-B (the paper's, irregular tiles):        {:.1} Tflop/s = {:.0}% of peak (p={pb}) — paper measured 203 (30%)",
        sb.tflops(),
        sb.tflops() / 672.0 * 100.0
    )?;

    writeln!(
        out,
        "\n## (b) network circulation on the CCSD shape (M = 26k, N = K = 640k, d = 0.25)"
    )?;
    writeln!(
        out,
        "# the paper's §3.1 rationale: \"to minimize network traffic, avoid circulating"
    )?;
    writeln!(
        out,
        "# the largest of the matrices, so B will be stationary\""
    )?;
    let prob = generate(&SyntheticParams {
        m: 26_000,
        n: 640_000,
        k: 640_000,
        density: 0.25,
        tile_min: 512,
        tile_max: 2048,
        seed: 42,
    });
    let wide = ProblemSpec::new(prob.a, prob.b, None);
    // Stationary-C on a square grid (what a dense 2-d algorithm uses): B
    // panels circulate along grid columns.
    let (p, q) = (4usize, 4usize);
    let sc_plan = StationaryCPlan::build(&wide, platform.planner_config(p))?;
    let mut sc_b_net = 0u64;
    for (ni, gpu_plans) in sc_plan.nodes.iter().enumerate() {
        let pr = ni / q;
        let mut seen = std::collections::HashSet::new();
        for block in gpu_plans.iter().flat_map(|gp| &gp.blocks) {
            for &k in block.k_chunks.iter().flat_map(|chunk| &chunk.ks) {
                for &j in &block.cols {
                    if wide.b.shape().is_nonzero(k as usize, j as usize)
                        && (k as usize) % p != pr
                        && seen.insert((k, j))
                    {
                        sc_b_net += wide.b.tile_bytes(k as usize, j as usize);
                    }
                }
            }
        }
    }
    let plan = ExecutionPlan::build(&wide, platform.planner_config(1))?;
    let sb = simulate(&wide, &plan, &platform);
    writeln!(
        out,
        "stationary-C (4x4 grid): circulates {:.2} TB of B over the network",
        sc_b_net as f64 / 1e12
    )?;
    writeln!(
        out,
        "stationary-B (1x16 grid): circulates 0 B of B, {:.3} TB of A",
        sb.a_network_bytes as f64 / 1e12
    )?;
    writeln!(
        out,
        "# B circulation exceeds A circulation by >10x — the paper's design rationale"
    )?;
    Ok(())
}

fn dimensionality(_: &mut Ctx, out: &mut String) -> Printed {
    writeln!(
        out,
        "# §7 conjecture — dimensionality vs density vs per-GPU performance"
    )?;
    // Comparable AO ranks: chain C24 (456 AOs), sheet 5x5 (418), cluster
    // 3x3x3 (~593).
    let molecules = [
        ("chain C24H50 (1-d)", Molecule::alkane(24)),
        ("sheet 5x5 CH2 (2-d)", Molecule::sheet(5, 5)),
        ("cluster 3x3x3 (3-d)", Molecule::cluster3d(3)),
    ];
    let platform = Platform::summit_gpus(6);
    writeln!(
        out,
        "{:<22} {:>5} {:>6} {:>8} {:>8} {:>8} {:>10} {:>10} {:>10}",
        "molecule", "O", "U", "dT (%)", "dV (%)", "Tflop", "time (s)", "Tf/s/GPU", "AI (f/B)"
    )?;
    for (label, m) in molecules {
        let tiling = TilingSpec {
            occ_clusters: (occupied_rank(&m) / 24).max(1),
            ao_clusters: (ao_rank(&m) / 26).max(2),
        };
        let problem = CcsdProblem::build(&m, tiling, ScreeningParams::default(), 42);
        let spec = ccsd_spec(&problem);
        let ai = max_arithmetic_intensity(&spec.a, &spec.b, &problem.r);
        match ExecutionPlan::build(&spec, platform.planner_config(1)) {
            Ok(plan) => {
                let report = simulate(&spec, &plan, &platform);
                writeln!(
                    out,
                    "{label:<22} {:>5} {:>6} {:>8.1} {:>8.1} {:>8.1} {:>10.2} {:>10.2} {:>10.0}",
                    problem.dims.o,
                    problem.dims.u,
                    problem.t.element_density() * 100.0,
                    problem.v.element_density() * 100.0,
                    report.total_flops as f64 / 1e12,
                    report.makespan_s,
                    report.tflops_per_gpu(platform.total_gpus()),
                    ai
                )?;
            }
            Err(e) => writeln!(out, "{label:<22} plan failed: {e}")?,
        }
    }
    writeln!(out, "# expectation: density, arithmetic intensity and per-GPU rate all rise with dimensionality")?;
    Ok(())
}

fn frontier_projection(_: &mut Ctx, out: &mut String) -> Printed {
    writeln!(
        out,
        "# Frontier projection — same contraction, next-generation nodes (16 nodes each)"
    )?;
    for (name, carbons) in [
        ("C65H132 (the paper's)", 65usize),
        ("C120H242 (2x longer)", 120),
    ] {
        let molecule = Molecule::alkane(carbons);
        let tiling = if carbons == 65 {
            TilingSpec::v2()
        } else {
            TilingSpec::v2().scaled_for(&molecule)
        };
        let problem = CcsdProblem::build(&molecule, tiling, ScreeningParams::default(), 42);
        let spec = ccsd_spec(&problem);
        writeln!(
            out,
            "\n{name}: U = {}, V is {:.2} TB at {:.1}% fill",
            problem.dims.u,
            problem.v.bytes() as f64 / 1e12,
            problem.v.element_density() * 100.0
        )?;
        for (label, platform) in [
            ("  Summit (6 x V100/node)", Platform::summit(16)),
            ("  Frontier (4 x MI250X-class)", Platform::frontier(16)),
        ] {
            match ExecutionPlan::build(&spec, platform.planner_config(1)) {
                Ok(plan) => {
                    let r = simulate(&spec, &plan, &platform);
                    writeln!(
                        out,
                        "{label:<28} {:>6} GPUs {:>10.2} s {:>10.1} Tflop/s {:>8.2} Tf/s/GPU",
                        platform.total_gpus(),
                        r.makespan_s,
                        r.tflops(),
                        r.tflops_per_gpu(platform.total_gpus())
                    )?;
                }
                Err(e) => writeln!(out, "{label:<28} plan failed: {e}")?,
            }
        }
    }
    writeln!(
        out,
        "\n# expectation: Frontier's larger devices and faster links cut time-to-solution"
    )?;
    writeln!(
        out,
        "# severalfold, moving minutes-scale CC sweeps toward interactive turnaround (§1)."
    )?;
    Ok(())
}

fn weak_scaling(_: &mut Ctx, out: &mut String) -> Printed {
    writeln!(
        out,
        "# Weak scaling — chain length grows with the node count"
    )?;
    writeln!(
        out,
        "{:>10} {:>8} {:>10} {:>12} {:>12} {:>12} {:>10}",
        "molecule", "nodes", "Tflop", "time (s)", "Tflop/s", "Tf/s/GPU", "ret (%)"
    )?;
    let mut base: Option<f64> = None;
    for (carbons, nodes) in [(33usize, 4usize), (65, 8), (130, 16)] {
        let molecule = Molecule::alkane(carbons);
        let tiling = TilingSpec::v2().scaled_for(&molecule);
        let problem = CcsdProblem::build(&molecule, tiling, ScreeningParams::default(), 42);
        let spec = ccsd_spec(&problem);
        let platform = Platform::summit(nodes);
        match ExecutionPlan::build(&spec, platform.planner_config(1)) {
            Ok(plan) => {
                let r = simulate(&spec, &plan, &platform);
                let per_gpu = r.tflops_per_gpu(platform.total_gpus());
                let base_per_gpu = *base.get_or_insert(per_gpu);
                writeln!(
                    out,
                    "{:>10} {:>8} {:>10.1} {:>12.2} {:>12.1} {:>12.2} {:>10.1}",
                    molecule.formula(),
                    nodes,
                    r.total_flops as f64 / 1e12,
                    r.makespan_s,
                    r.tflops(),
                    per_gpu,
                    per_gpu / base_per_gpu * 100.0
                )?;
            }
            Err(e) => writeln!(out, "{:>10} plan failed: {e}", molecule.formula())?,
        }
    }
    writeln!(
        out,
        "# ret = per-GPU throughput retained vs the smallest configuration;"
    )?;
    writeln!(
        out,
        "# ~100% means the machine keeps pace with the growing chemistry."
    )?;
    Ok(())
}

fn trace(ctx: &mut Ctx, out: &mut String) -> Printed {
    let tiling = ctx.tiling;
    let molecule = Molecule::alkane(40);
    let spec_t = tiling_spec(tiling).scaled_for(&molecule);
    let problem = CcsdProblem::build(&molecule, spec_t, ScreeningParams::default(), 42);
    let spec = ccsd_spec(&problem);
    let platform = Platform::summit(2);
    let plan = ExecutionPlan::build(&spec, platform.planner_config(1))?;
    let mut trace = Trace::default();
    let report = simulate_traced(&spec, &plan, &platform, Some(&mut trace));

    writeln!(
        out,
        "# GPU execution profile — {} tiling {tiling}, 2 nodes x 6 GPUs",
        molecule.formula()
    )?;
    writeln!(
        out,
        "# makespan {:.2} s, {:.1} Tflop/s total ({:.2} per GPU)",
        report.makespan_s,
        report.tflops(),
        report.tflops_per_gpu(platform.total_gpus())
    )?;
    writeln!(
        out,
        "# '#' compute, '-' transfer; right column = compute utilisation"
    )?;
    write!(out, "{}", trace.gantt(report.makespan_s, 100))?;
    let mean_util: f64 = trace
        .gpus
        .iter()
        .map(|g| g.compute_utilization(report.makespan_s))
        .sum::<f64>()
        / trace.gpus.len() as f64;
    writeln!(
        out,
        "# mean compute utilisation: {:.0}% — the rest is GPU I/O and dependencies",
        mean_util * 100.0
    )?;
    Ok(())
}
