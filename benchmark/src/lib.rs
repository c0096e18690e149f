//! `bst-perfbench` — the end-to-end + per-layer performance harness over five
//! named workloads. See `README.md` beside this package and `perfbench`'s own
//! usage text (`src/main.rs`).
//!
//! [`adapter`] is the only module that names the program's API; everything
//! else works on the plain types it defines.

pub mod adapter;
pub mod check;
pub mod json;
pub mod metrics;
pub mod rng;
pub mod run;
pub mod spans;
pub mod stats;
pub mod suite;
pub mod workloads;

/// Seconds one pass measures by default; `BENCHMARK.json` says the same.
pub const DEFAULT_SECONDS: f64 = 20.0;
const SMOKE_SECONDS: f64 = 0.2;

/// The parsed `perfbench run` command line.
pub struct Cli {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: Option<bool>,
    pub repeat: usize,
    pub smoke: bool,
    pub corrupt: bool,
}

impl Cli {
    pub fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        })
    }
}
