//! Reproduces **Table 1** of the paper: problem traits of the C65H132 /
//! def2-SVP ABCD contraction for the three tilings v1 (finest) … v3
//! (coarsest).
//!
//! Paper values for comparison:
//!   M×N×K            26576 × 2464900 × 2464900   (ours: M = O² = 38416 —
//!                    the paper's M reflects a symmetry-reduced ij range)
//!   #flop            877 / 923 / 1237 Tflop
//!   #flop (opt.)     850 / 899 / 1209 Tflop
//!   #GEMM tasks      1 899 971 / 468 368 / 67 818
//!   #tasks (opt.)    1 843 309 / 455 159 / 66 315
//!   rows/block       700 / \[500;2500\] / \[1000;5000\]
//!   density T        9.8 / 10.2 / 13.2 %
//!   density V        2.4 / 2.6 / 3.1 %
//!   density R (opt.) 14.9 / 16.1 / 21.7 %
//!
//! Usage: `repro_table1 [--carbons N] [--trace FILE.json]` (default 65;
//! smaller = faster). `--trace` rides along a tiny traced *numeric*
//! execution and writes its Chrome-trace profile.

use bst_bench::{flag_value, usage_exit};
use bst_chem::{CcsdProblem, Molecule, ProblemTraits, ScreeningParams, TilingSpec};

const USAGE: &str = "usage: repro_table1 [--carbons N] [--trace FILE.json]";

fn main() {
    let mut carbons = 65usize;
    let mut trace: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--carbons" => carbons = flag_value(USAGE, "--carbons", args.next()),
            "--trace" => trace = Some(flag_value(USAGE, "--trace", args.next())),
            other => usage_exit(USAGE, &format!("unknown argument {other}")),
        }
    }

    let molecule = Molecule::alkane(carbons);
    println!(
        "# Table 1 reproduction — {} (O = {}, U = {})",
        molecule.formula(),
        bst_chem::basis::occupied_rank(&molecule),
        bst_chem::basis::ao_rank(&molecule)
    );
    println!(
        "{:<22} {:>14} {:>14} {:>14}",
        "trait", "v1", "v2", "v3"
    );

    let mut all = Vec::new();
    for spec in [TilingSpec::v1(), TilingSpec::v2(), TilingSpec::v3()] {
        let spec = if carbons == 65 { spec } else { spec.scaled_for(&molecule) };
        let p = CcsdProblem::build(&molecule, spec, ScreeningParams::default(), 42);
        all.push(ProblemTraits::compute(&p));
    }

    let row = |name: &str, f: &dyn Fn(&ProblemTraits) -> String| {
        println!(
            "{:<22} {:>14} {:>14} {:>14}",
            name,
            f(&all[0]),
            f(&all[1]),
            f(&all[2])
        );
    };
    row("M x N x K", &|t| format!("{}x{}x{}", t.m, t.n, t.k));
    row("#flop (Tflop)", &|t| format!("{:.0}", t.flops as f64 / 1e12));
    row("#flop opt (Tflop)", &|t| format!("{:.0}", t.flops_opt as f64 / 1e12));
    row("#GEMM tasks", &|t| format!("{}", t.gemm_tasks));
    row("#GEMM tasks opt", &|t| format!("{}", t.gemm_tasks_opt));
    row("mean rows/block", &|t| format!("{:.0}", t.mean_block_rows));
    row("rows/block range", &|t| {
        format!("[{};{}]", t.block_rows_range.0, t.block_rows_range.1)
    });
    row("density T (%)", &|t| format!("{:.1}", t.density_t * 100.0));
    row("density V (%)", &|t| format!("{:.1}", t.density_v * 100.0));
    row("density R opt (%)", &|t| format!("{:.1}", t.density_r_opt * 100.0));

    if let Some(path) = &trace {
        let summary =
            bst_bench::emit_numeric_trace(path).expect("traced numeric run must validate");
        println!("# traced numeric reference run — wrote {path}");
        print!("{summary}");
    }
}
