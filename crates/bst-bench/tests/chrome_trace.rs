//! The Chrome-trace export re-parses: a traced, faulted 4-node numeric run
//! writes a `chrome://tracing` document that an independent JSON parser
//! reads back as a non-empty array of well-formed events, one slice per task
//! named by its op's label.

use bst_bench::minijson::{self, Value};
use bst_bench::numeric_bench_problem;
use bst_contract::engine::execute;
use bst_contract::engine::inspector::Op;
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
    let json = trace.chrome_trace_json();
    let events = check_chrome_trace(&json)
        .unwrap_or_else(|e| panic!("exported trace does not validate: {e}"));
    assert!(
        events >= trace.records.len(),
        "{events} events for {} task records",
        trace.records.len()
    );

    // Each task's slice is named by its op's label (`Gemm(k,j|i0,i1,…)`,
    // `LoadA(i,k)`, …) and filed under its op's kind: labels are made at
    // export, from the typed ops, and must not rename a slice.
    let doc = minijson::parse(&json).unwrap();
    let mut sliced = vec![0u32; trace.records.len()];
    for e in doc.as_arr().unwrap() {
        let Some(task) = e.get("args").and_then(|a| a.get("task")).and_then(Value::as_str) else {
            continue; // transport slices, counters and metadata
        };
        let task: usize = task.parse().unwrap();
        let (name, op) = (e.get("name").and_then(Value::as_str).unwrap(), &trace.ops[task]);
        assert_eq!(name, trace.detail(task), "slice of task {task}");
        assert_eq!(e.get("cat").and_then(Value::as_str), Some(op.kind()));
        // The label format itself, spelled out for the two commonest kinds.
        match op {
            Op::Gemm { k, j, rows } => {
                let rows: Vec<String> = trace.rows_of(rows).iter().map(u32::to_string).collect();
                assert_eq!(name, format!("Gemm({k},{j}|{})", rows.join(",")));
            }
            Op::LoadA { i, k } => assert_eq!(name, format!("LoadA({i},{k})")),
            _ => {}
        }
        sliced[task] += 1;
    }
    assert!(sliced.iter().all(|&n| n == 1), "a task without exactly one slice");
}
