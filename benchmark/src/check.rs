//! `perfbench check A.json B.json`: is B no worse than A?
//!
//! One row per (workload, end-to-end metric), judged against the bounds in
//! `BENCHMARK.json`: `within`, `regressed` (B's median is worse than A's by
//! more than the bound) or `unresolved` (the run-to-run spread of either
//! file is wider than the bound, so the comparison cannot tell). Exact-count
//! per-layer metrics must be identical when both files used the same seed:
//! they pin that the two commits ran the same work.

use crate::json::{self, Value};
use crate::metrics;
use crate::stats::{iqr_frac, median};

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn values(file: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let v = file
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?;
    Some(v.as_arr()?.iter().filter_map(Value::as_f64).collect())
}

/// Returns `Ok(false)` when any metric regressed or any exact count differs.
pub fn check(a_path: &str, b_path: &str) -> Result<bool, String> {
    let manifest = load("BENCHMARK.json")?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let workloads = a
        .get("workloads")
        .and_then(Value::as_obj)
        .ok_or_else(|| format!("{a_path}: no workloads"))?;
    let end_to_end = manifest
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    let mut ok = true;
    println!(
        "{:<16} {:<12} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse", "spread", "bound"
    );
    for (workload, _) in workloads {
        for def in end_to_end {
            let text = |k: &str| def.get(k).and_then(Value::as_str).unwrap_or("");
            let (metric, lower) = (text("name"), text("better") == "lower");
            let bound = def.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let (Some(va), Some(vb)) = (values(&a, workload, metric), values(&b, workload, metric))
            else {
                println!("{workload:<16} {metric:<12} missing from one file");
                ok = false;
                continue;
            };
            let (ma, mb) = (median(&va), median(&vb));
            let worse = if lower {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            let spread = iqr_frac(&va).max(iqr_frac(&vb));
            let verdict = if spread > bound {
                "unresolved"
            } else if worse > bound {
                ok = false;
                "regressed"
            } else {
                "within"
            };
            println!(
                "{workload:<16} {metric:<12} {ma:>14.6} {mb:>14.6} {:>7.2}% {:>7.2}% {:>6.0}%  {verdict}",
                worse * 100.0,
                spread * 100.0,
                bound * 100.0
            );
        }
    }
    if a.get("seed") == b.get("seed") && a.get("smoke") == b.get("smoke") {
        for (workload, wa) in workloads {
            for def in metrics::PER_LAYER.iter().filter(|d| d.exact) {
                let count =
                    |w: Option<&Value>| w?.get("per_layer")?.get(def.name)?.get("value")?.as_f64();
                let (ca, cb) = (
                    count(Some(wa)),
                    count(b.get("workloads").and_then(|w| w.get(workload))),
                );
                if ca != cb {
                    println!(
                        "{workload:<16} {} differs: {ca:?} vs {cb:?} — not the same work",
                        def.name
                    );
                    ok = false;
                }
            }
        }
    } else {
        println!("# seeds or sizes differ: exact counts not compared");
    }
    Ok(ok)
}
