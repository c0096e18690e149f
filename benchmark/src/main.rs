//! `perfbench` — the end-to-end + per-layer performance harness.
//!
//! ```text
//! perfbench run [--workload W] [--seed S] [--seconds X] [--repeat R] [--smoke]
//!     every workload (or W) in its own child process: R untraced runs, then
//!     one traced run; prints one line per metric and writes
//!     benchmark/out/results.json plus benchmark/out/<workload>.trace.json
//! perfbench run --workload W --seed S --seconds X --trace 0|1 [--smoke]
//!     one pass of one workload in this process (what the child processes and
//!     the pipeline run); the last line of stdout is the result as JSON
//! perfbench check A.json B.json
//!     compares two result files against the bounds in BENCHMARK.json
//! perfbench worker ...
//!     internal: one rank of the `launch_uds` fleet (`bst worker`)
//! ```
//!
//! Run from the repository root.

use std::process::ExitCode;

use bst_perfbench::json::Value;
use bst_perfbench::{adapter, check, run, suite, workloads, Cli};

fn parse_run(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        repeat: 1,
        smoke: false,
        corrupt: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("bad value for {flag}: {v}"))
        }
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => cli.seed = num(flag, value()?)?,
            "--seconds" => cli.seconds = Some(num(flag, value()?)?),
            "--trace" => cli.trace = Some(num::<u8>(flag, value()?)? != 0),
            "--repeat" => cli.repeat = num::<usize>(flag, value()?)?.max(1),
            "--smoke" => cli.smoke = true,
            "--corrupt" => cli.corrupt = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if let Some(w) = &cli.workload {
        if !workloads::NAMES.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w} (one of {})",
                workloads::NAMES.join(", ")
            ));
        }
    }
    if cli.seconds.is_some_and(|s| s.is_nan() || s <= 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(cli)
}

/// One pass of one workload in this process. Prints one line per metric and,
/// last, the result object the pipeline reads.
fn run_pass(cli: &Cli, name: &str, trace: bool) -> Result<bool, String> {
    let w = workloads::get(name, cli.smoke).expect("workload names are validated at parse time");
    let args = run::RunArgs {
        seed: cli.seed,
        seconds: cli.seconds(),
        trace,
        corrupt: cli.corrupt,
    };
    let out = run::run(&w, &args)?;
    for (metric, value, unit, note) in &out.metrics {
        println!("{name}\t{metric}\t{value}\t{unit}\t{note}");
    }
    for warning in &out.warnings {
        println!("warning\t{name}\t{warning}");
    }
    for error in &out.errors {
        eprintln!("{name}: {error}");
    }
    let correct = out.failed == 0 && out.attempted > 0;
    let metrics = out.metrics.iter().map(|(metric, value, unit, _)| {
        (
            *metric,
            Value::obj([
                ("value", Value::Num(*value)),
                ("unit", Value::Str(unit.to_string())),
            ]),
        )
    });
    let result = Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(out.attempted as f64)),
        ("failed", Value::Num(out.failed as f64)),
        ("metrics", Value::obj(metrics)),
    ]);
    println!("{}", result.to_line());
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        // Worker re-entry: `perfbench worker --rank R ...` IS a `bst worker`.
        Some("worker") => adapter::worker_main(&args).map(|()| true),
        Some("run") => parse_run(&args[1..]).and_then(|cli| match (&cli.workload, cli.trace) {
            (Some(name), Some(trace)) => run_pass(&cli, name, trace),
            (None, Some(_)) => Err("--trace needs --workload".into()),
            (_, None) => suite::run(&cli),
        }),
        Some("check") => match &args[1..] {
            [a, b] => check::check(a, b),
            _ => Err("usage: perfbench check A.json B.json".into()),
        },
        _ => Err("usage: perfbench run|check|worker ... (see benchmark/README.md)".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
