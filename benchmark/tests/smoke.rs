//! Drives the built `perfbench` binary in `--smoke` mode (every workload
//! shrunk to well under a second, same code paths) and checks the contract
//! between the harness, `BENCHMARK.json` and the pipeline that runs them.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use bst_perfbench::json::{self, Value};
use bst_perfbench::metrics::{END_TO_END, PER_LAYER};
use bst_perfbench::workloads;

/// The benchmark runs from the repository root.
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ has a parent")
        .into()
}

fn manifest() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    json::parse(&text).expect("BENCHMARK.json parses")
}

struct Pass {
    success: bool,
    /// `(workload, metric, value, unit)` per printed metric line.
    lines: Vec<(String, String, String, String)>,
    result: Value,
}

fn perfbench(args: &[&str]) -> Pass {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let mut all: Vec<&str> = stdout.lines().collect();
    let last = all.pop().unwrap_or_else(|| {
        panic!(
            "no output from {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    let lines = all
        .iter()
        .map(|l| l.split('\t').map(str::to_string).collect::<Vec<_>>())
        .filter(|f| f.len() >= 4 && f[0] != "warning")
        .map(|f| (f[0].clone(), f[1].clone(), f[2].clone(), f[3].clone()))
        .collect();
    Pass {
        success: out.status.success(),
        lines,
        result: json::parse(last).expect("result line"),
    }
}

fn pass(workload: &str, seed: u64, trace: bool) -> Pass {
    let seed = seed.to_string();
    let trace = if trace { "1" } else { "0" };
    perfbench(&[
        "run",
        "--smoke",
        "--workload",
        workload,
        "--seed",
        &seed,
        "--trace",
        trace,
    ])
}

fn metric_values(p: &Pass) -> BTreeMap<String, f64> {
    let metrics = p
        .result
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics object");
    metrics
        .iter()
        .map(|(k, v)| {
            (
                k.clone(),
                v.get("value").and_then(Value::as_f64).expect("value"),
            )
        })
        .collect()
}

#[test]
fn manifest_matches_registry() {
    let m = manifest();
    let keys: Vec<&str> = m
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        m.get("run_seconds").and_then(Value::as_f64),
        Some(bst_perfbench::DEFAULT_SECONDS),
        "BENCHMARK.json and the harness disagree on the default window"
    );
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = m.get(key).and_then(Value::as_arr).unwrap();
        assert_eq!(listed.len(), defs.len(), "{key}: metric count");
        for (entry, def) in listed.iter().zip(defs) {
            let text = |k: &str| entry.get(k).and_then(Value::as_str).unwrap();
            assert_eq!(text("name"), def.name);
            assert_eq!(text("unit"), def.unit, "{}", def.name);
            assert_eq!(text("better"), def.better.as_str(), "{}", def.name);
            assert_eq!(
                entry.get("bound").and_then(Value::as_f64),
                def.bound,
                "{}",
                def.name
            );
        }
    }
    let listed = m.get("workloads").and_then(Value::as_arr).unwrap();
    assert_eq!(listed.len(), workloads::NAMES.len());
    for (entry, name) in listed.iter().zip(workloads::NAMES) {
        let w = workloads::get(name, false).unwrap();
        assert_eq!(entry.get("name").and_then(Value::as_str), Some(w.name));
        assert_eq!(entry.get("why").and_then(Value::as_str), Some(w.why));
    }
    let setup = END_TO_END
        .iter()
        .find(|d| d.name == "setup_s")
        .expect("setup_s is required");
    assert!(
        END_TO_END.iter().all(|d| d.bound <= setup.bound),
        "setup_s takes the largest bound"
    );
}

/// Every metric named in `BENCHMARK.json` is printed exactly once per
/// workload, with its unit, and the result line carries exactly the declared
/// keys.
#[test]
fn every_declared_metric_is_printed_once_with_its_unit() {
    let m = manifest();
    for name in workloads::NAMES {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let p = pass(name, 1, trace);
            assert!(p.success, "{name} trace={trace} failed");
            let declared: Vec<(String, String)> = m
                .get(key)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|e| {
                    let text = |k: &str| e.get(k).and_then(Value::as_str).unwrap().to_string();
                    (text("name"), text("unit"))
                })
                .collect();
            let printed: Vec<(String, String)> = p
                .lines
                .iter()
                .map(|(_, metric, _, unit)| (metric.clone(), unit.clone()))
                .collect();
            assert_eq!(
                printed, declared,
                "{name} trace={trace}: printed metric lines"
            );
            assert!(p.lines.iter().all(|(w, ..)| w == name));

            let keys: Vec<&str> = p
                .result
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(p.result.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(p.result.get("failed").and_then(Value::as_f64), Some(0.0));
            assert!(p.result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
            let in_result: Vec<String> = metric_values(&p).into_keys().collect();
            let mut want: Vec<String> = declared.into_iter().map(|(n, _)| n).collect();
            want.sort();
            assert_eq!(in_result, want, "{name} trace={trace}: result metrics");
            if !trace {
                // End-to-end metrics are never 0.
                assert!(
                    metric_values(&p).values().all(|v| *v > 0.0),
                    "{name}: a zero metric"
                );
            }
        }
    }
}

/// Exact counts repeat bit for bit for one seed; another seed re-labels the
/// tiles (or, for the CLI job, redraws them) and moves at least one count on
/// every multi-node workload whose structure the seed touches.
#[test]
fn counts_repeat_for_a_seed_and_change_with_another() {
    let exact: Vec<&str> = PER_LAYER
        .iter()
        .filter(|d| d.exact)
        .map(|d| d.name)
        .collect();
    for name in workloads::NAMES {
        let counts = |seed| {
            let all = metric_values(&pass(name, seed, true));
            exact.iter().map(|k| (*k, all[*k])).collect::<Vec<_>>()
        };
        let (first, again, other) = (counts(1), counts(1), counts(2));
        assert_eq!(
            first, again,
            "{name}: exact counts differ between two runs of seed 1"
        );
        // The ABCD term's structure is the molecule's and dense_tiles has one
        // node: their seeds change values and labels, not counts.
        if ["sparse_grid", "service_sweeps", "launch_uds"].contains(&name) {
            assert_ne!(first, other, "{name}: no exact count moved with the seed");
        }
    }
}

#[test]
fn a_corrupted_tile_is_counted_as_a_failure() {
    let p = perfbench(&[
        "run",
        "--smoke",
        "--workload",
        "sparse_grid",
        "--seed",
        "1",
        "--trace",
        "0",
        "--corrupt",
    ]);
    assert!(!p.success, "a failed check must exit non-zero");
    assert_eq!(
        p.result.get("correct").and_then(Value::as_bool),
        Some(false)
    );
    assert!(p.result.get("failed").and_then(Value::as_f64).unwrap() >= 1.0);
}

/// The suite writes a result file; `check` accepts it against itself and
/// rejects a copy whose exact counts or medians moved.
#[test]
fn check_judges_result_files() {
    let out = repo_root().join("benchmark/out");
    let run = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "run",
            "--smoke",
            "--workload",
            "service_sweeps",
            "--repeat",
            "1",
        ])
        .current_dir(repo_root())
        .output()
        .expect("suite runs");
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let results = std::fs::read_to_string(out.join("results.json")).expect("results.json");
    let (a, b, c) = (
        out.join("check-a.json"),
        out.join("check-b.json"),
        out.join("check-c.json"),
    );
    std::fs::write(&a, &results).unwrap();
    // Another workload's work under the same name, and a 3x slower one.
    let doc = json::parse(&results).unwrap();
    let flops = doc
        .get("workloads")
        .and_then(|w| w.get("service_sweeps"))
        .and_then(|w| w.get("per_layer"))
        .and_then(|l| l.get("plan.flops"))
        .and_then(|f| f.get("value"))
        .and_then(Value::as_f64)
        .expect("plan.flops in results.json");
    std::fs::write(
        &b,
        results.replace(&format!("\"value\": {flops}"), "\"value\": 1"),
    )
    .unwrap();
    let slower = results
        .lines()
        .map(|l| match l.trim_start().strip_prefix("\"values\": [") {
            Some(rest) if l.contains("values") => {
                let nums: Vec<String> = rest
                    .trim_end_matches(']')
                    .split(", ")
                    .map(|n| (n.parse::<f64>().unwrap() * 3.0).to_string())
                    .collect();
                format!("\"values\": [{}]", nums.join(", "))
            }
            _ => l.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n");
    std::fs::write(&c, slower).unwrap();
    let check = |x: &PathBuf, y: &PathBuf| {
        let o = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(["check", x.to_str().unwrap(), y.to_str().unwrap()])
            .current_dir(repo_root())
            .output()
            .expect("check runs");
        (
            o.status.success(),
            String::from_utf8_lossy(&o.stdout).into_owned(),
        )
    };
    let (ok, text) = check(&a, &a);
    assert!(ok, "a file is within bounds of itself:\n{text}");
    assert!(text.contains("within") && !text.contains("regressed"));
    let (ok, text) = check(&a, &b);
    assert!(
        !ok && text.contains("plan.flops differs"),
        "a changed count must fail:\n{text}"
    );
    let (ok, text) = check(&a, &c);
    assert!(
        !ok && text.contains("regressed"),
        "3x slower must regress:\n{text}"
    );
}
