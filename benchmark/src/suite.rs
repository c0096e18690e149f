//! The one command: every workload in its own child process (so that
//! `peak_rss_mb` is per workload), untraced runs first, then a traced run;
//! one result file for `perfbench check`.

use std::process::{Command, Stdio};

use crate::json::{self, Value};
use crate::run::{ensure_repo_root, nproc, OUT_DIR};
use crate::{workloads, Cli};

/// What one child pass reported.
struct Pass {
    correct: bool,
    attempted: f64,
    failed: f64,
    /// `(metric, value, unit)` in the order printed.
    metrics: Vec<(String, f64, String)>,
    warnings: Vec<String>,
}

fn child_pass(cli: &Cli, name: &str, seed: u64, trace: bool) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &cli.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if cli.smoke {
        cmd.arg("--smoke");
    }
    if cli.corrupt {
        cmd.arg("--corrupt");
    }
    // `output` waits for the child to end.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("{name}: no output (exit {})", out.status))?;
    let result = json::parse(last).map_err(|e| {
        format!(
            "{name}: last line is not a result ({e}); exit {}",
            out.status
        )
    })?;
    let mut warnings = Vec::new();
    for line in lines {
        println!("{line}");
        if let Some(w) = line.strip_prefix("warning\t") {
            warnings.push(w.split_once('\t').map_or(w, |(_, text)| text).to_string());
        }
    }
    let field = |k: &str| {
        result
            .get(k)
            .ok_or_else(|| format!("{name}: result lacks {k}"))
    };
    let metrics = field("metrics")?
        .as_obj()
        .ok_or("metrics is not an object")?
        .iter()
        .map(|(metric, v)| {
            let value = v.get("value").and_then(Value::as_f64).unwrap_or(0.0);
            let unit = v
                .get("unit")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            (metric.clone(), value, unit)
        })
        .collect();
    Ok(Pass {
        correct: field("correct")?.as_bool().unwrap_or(false) && out.status.success(),
        attempted: field("attempted")?.as_f64().unwrap_or(0.0),
        failed: field("failed")?.as_f64().unwrap_or(0.0),
        metrics,
        warnings,
    })
}

/// Runs the suite and writes `benchmark/out/results.json`. Untraced run `r`
/// of a workload uses seed `seed + r`; the traced run uses `seed`, so exact
/// counts of two result files with the same `--seed` are comparable.
pub fn run(cli: &Cli) -> Result<bool, String> {
    ensure_repo_root()?;
    let names: Vec<&str> = match &cli.workload {
        Some(w) => vec![w.as_str()],
        None => workloads::NAMES.to_vec(),
    };
    let mut all_correct = true;
    let mut workloads_json = Vec::new();
    for name in names {
        let mut end_to_end: Vec<(String, String, Vec<Value>)> = Vec::new();
        let (mut attempted, mut failed, mut correct) = (0.0, 0.0, true);
        for r in 0..cli.repeat {
            let pass = child_pass(cli, name, cli.seed + r as u64, false)?;
            attempted += pass.attempted;
            failed += pass.failed;
            correct &= pass.correct;
            for (i, (metric, value, unit)) in pass.metrics.into_iter().enumerate() {
                if r == 0 {
                    end_to_end.push((metric, unit, Vec::new()));
                }
                end_to_end[i].2.push(Value::Num(value));
            }
        }
        let traced = child_pass(cli, name, cli.seed, true)?;
        attempted += traced.attempted;
        failed += traced.failed;
        correct &= traced.correct;
        all_correct &= correct;
        workloads_json.push((
            name,
            Value::obj([
                ("correct", Value::Bool(correct)),
                ("attempted", Value::Num(attempted)),
                ("failed", Value::Num(failed)),
                (
                    "failed_frac",
                    Value::Num(if attempted > 0.0 {
                        failed / attempted
                    } else {
                        1.0
                    }),
                ),
                (
                    "end_to_end",
                    Value::obj(end_to_end.into_iter().map(|(metric, unit, values)| {
                        (
                            metric,
                            Value::obj([
                                ("unit", Value::Str(unit)),
                                ("values", Value::Arr(values)),
                            ]),
                        )
                    })),
                ),
                (
                    "per_layer",
                    Value::obj(traced.metrics.into_iter().map(|(metric, value, unit)| {
                        (
                            metric,
                            Value::obj([("unit", Value::Str(unit)), ("value", Value::Num(value))]),
                        )
                    })),
                ),
                (
                    "warnings",
                    Value::Arr(traced.warnings.into_iter().map(Value::Str).collect()),
                ),
            ]),
        ));
    }
    let results = Value::obj([
        ("seed", Value::Num(cli.seed as f64)),
        ("seconds", Value::Num(cli.seconds())),
        ("repeat", Value::Num(cli.repeat as f64)),
        ("smoke", Value::Bool(cli.smoke)),
        ("nproc", Value::Num(nproc() as f64)),
        ("workloads", Value::obj(workloads_json)),
    ]);
    let path = format!("{OUT_DIR}/results.json");
    std::fs::write(&path, results.to_pretty()).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("# wrote {path}");
    Ok(all_correct)
}
