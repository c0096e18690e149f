//! Explore the tiling trade-off the paper leaves to "future studies":
//! sweep the k-means cluster counts for a molecule and report, for each
//! granularity, the Table-1 traits and the simulated time on a fixed
//! machine — showing the sparsity-vs-kernel-efficiency sweet spot.
//!
//! ```text
//! cargo run --release --example tiling_explorer [carbons] [gpus]
//! ```

use bst::chem::{CcsdProblem, Molecule, ProblemTraits, ScreeningParams, TilingSpec};
use bst::contract::{ExecutionPlan, ProblemSpec};
use bst::sim::{simulate, Platform};

fn main() {
    let carbons: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("carbons"))
        .unwrap_or(30);
    let gpus: usize = std::env::args()
        .nth(2)
        .map(|s| s.parse().expect("gpus"))
        .unwrap_or(6);
    let molecule = Molecule::alkane(carbons);
    println!(
        "tiling sweep for {} on {} simulated V100s",
        molecule.formula(),
        gpus
    );
    println!(
        "{:>12} {:>10} {:>12} {:>10} {:>10} {:>10}",
        "ao_clusters", "tasks", "Tflop", "dV (%)", "time (s)", "Tflop/s"
    );

    let base = TilingSpec::v1().scaled_for(&molecule);
    let platform = Platform::summit_gpus(gpus);
    // From much coarser to much finer than the scaled v1 default.
    for factor in [0.33f64, 0.5, 0.75, 1.0, 1.5, 2.0] {
        let spec_t = TilingSpec {
            occ_clusters: ((base.occ_clusters as f64 * factor).round() as usize).max(1),
            ao_clusters: ((base.ao_clusters as f64 * factor).round() as usize).max(2),
        };
        let problem = CcsdProblem::build(&molecule, spec_t, ScreeningParams::default(), 42);
        let traits = ProblemTraits::compute(&problem);
        let spec = ProblemSpec::new(
            problem.t.clone(),
            problem.v.clone(),
            Some(problem.r.shape().clone()),
        );
        match ExecutionPlan::build(&spec, platform.planner_config(1)) {
            Ok(plan) => {
                let report = simulate(&spec, &plan, &platform);
                println!(
                    "{:>12} {:>10} {:>12.2} {:>10.1} {:>10.2} {:>10.2}",
                    spec_t.ao_clusters,
                    traits.gemm_tasks_opt,
                    traits.flops_opt as f64 / 1e12,
                    traits.density_v * 100.0,
                    report.makespan_s,
                    report.tflops()
                );
            }
            Err(e) => {
                println!(
                    "{:>12} {:>10} {:>12.2} {:>10.1}   plan failed: {e}",
                    spec_t.ao_clusters,
                    traits.gemm_tasks_opt,
                    traits.flops_opt as f64 / 1e12,
                    traits.density_v * 100.0,
                );
            }
        }
    }
}
