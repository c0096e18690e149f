//! The Chrome-trace export re-parses: a traced, faulted 4-node numeric run
//! writes a `chrome://tracing` document that an independent JSON parser
//! reads back as a non-empty array of well-formed events.

use bst_bench::minijson::{self, Value};
use bst_bench::numeric_bench_problem;
use bst_contract::engine::execute;
use bst_contract::{DeviceConfig, ExecOptions, ExecutionPlan, FaultPlan, GridConfig, PlannerConfig};
use bst_sparse::matrix::random_b_gen;
use bst_sparse::BlockSparseMatrix;

/// Validates a Chrome-trace JSON document: it must parse, be a non-empty
/// array, and every element must be an object carrying at least
/// `name`/`ph`/`pid`, plus a non-negative `ts` unless it is a metadata (`M`)
/// event. Returns the event count.
fn check_chrome_trace(json: &str) -> Result<usize, String> {
    let doc = minijson::parse(json)?;
    let events = doc.as_arr().ok_or("top level is not an array")?;
    if events.is_empty() {
        return Err("trace array is empty".into());
    }
    for (i, e) in events.iter().enumerate() {
        for key in ["name", "ph", "pid"] {
            if e.get(key).is_none() {
                return Err(format!("event {i} lacks \"{key}\""));
            }
        }
        if e.get("ph").and_then(Value::as_str) == Some("M") {
            continue; // metadata events carry no timestamp
        }
        match e.get("ts").and_then(Value::as_num) {
            Some(ts) if ts >= 0.0 => {}
            Some(_) => return Err(format!("event {i} has negative ts")),
            None => return Err(format!("event {i} lacks \"ts\"")),
        }
    }
    Ok(events.len())
}

#[test]
fn chrome_checker_rejects_bad_documents() {
    assert!(check_chrome_trace("").is_err());
    assert!(check_chrome_trace("[]").is_err());
    assert!(check_chrome_trace("{\"a\":1}").is_err());
    assert!(check_chrome_trace("[{\"name\":\"x\"}]").is_err());
    assert!(check_chrome_trace(r#"[{"name":"x","ph":"X","pid":0,"ts":-1}]"#).is_err());
    assert!(check_chrome_trace(r#"[{"name":"x","ph":"X","pid":0,"ts":0.5}]"#).is_ok());
    assert!(check_chrome_trace(r#"[{"name":"p","ph":"M","pid":0}]"#).is_ok());
}

/// 4 nodes x 2 GPUs with ~8% transient GenB/alloc/transfer faults: the
/// export of a run that retried tasks and re-requested dropped frames still
/// re-parses, one event per task record at least.
#[test]
fn faulted_four_node_trace_reparses() {
    let (spec, gpu_mem) = numeric_bench_problem(true);
    let config = PlannerConfig::paper(
        GridConfig::from_nodes(4, 1),
        DeviceConfig {
            gpus_per_node: 2,
            gpu_mem_bytes: gpu_mem,
        },
    );
    let plan = ExecutionPlan::build(&spec, config).unwrap();
    let a = BlockSparseMatrix::random_from_structure(spec.a.clone(), 42);
    let opts = ExecOptions::builder()
        .tracing(true)
        .fault_plan(FaultPlan::transient(7, 0.08))
        .build();
    let (_, report) = execute(&spec, &plan, &a, &random_b_gen(42 ^ 0xB), opts).unwrap();
    let r = &report.recovery;
    assert!(
        r.injected_genb + r.injected_alloc + r.injected_send > 0,
        "no faults injected: {r:?}"
    );

    let trace = report.trace.as_ref().expect("tracing was enabled");
    let events = check_chrome_trace(&trace.chrome_trace_json())
        .unwrap_or_else(|e| panic!("exported trace does not validate: {e}"));
    assert!(
        events >= trace.records.len(),
        "{events} events for {} task records",
        trace.records.len()
    );
}
