//! Policy-combination matrix over the single execution path.
//!
//! The engine collapse means tracing and fault injection are *policies*
//! composed onto one scheduler, not separate entry points — so
//! every combination must run, do the same work, expose a trace exactly
//! when tracing was requested, and pass the trace-invariant checker whenever
//! a trace exists. (That every combination also produces the same bits is
//! the generated matrix's rule 2, `crates/bst-cli/tests/matrix.rs`.)

use std::collections::BTreeMap;
use std::sync::Arc;

use bst_contract::engine::execute;
use bst_contract::{
    validate_trace_invariants, DeviceConfig, ExecOptions, ExecutionPlan, FaultPlan, GridConfig,
    PlannerConfig, ProblemSpec,
};
use bst_sparse::generate::{generate, SyntheticParams};
use bst_sparse::matrix::tile_seed;
use bst_sparse::BlockSparseMatrix;
use bst_tile::pool::TilePool;

const GPU_MEM: u64 = 1 << 20;

fn problem() -> (ProblemSpec, ExecutionPlan) {
    let prob = generate(&SyntheticParams {
        m: 40,
        n: 120,
        k: 100,
        density: 0.5,
        tile_min: 5,
        tile_max: 17,
        seed: 7,
    });
    let spec = ProblemSpec::new(prob.a, prob.b, None);
    let config = PlannerConfig::paper(
        GridConfig { p: 2, q: 2 },
        DeviceConfig {
            gpus_per_node: 2,
            gpu_mem_bytes: GPU_MEM,
        },
    );
    let plan = ExecutionPlan::build(&spec, config).unwrap();
    (spec, plan)
}

#[test]
fn every_policy_combination_runs_the_same_work() {
    let (spec, plan) = problem();
    let a = BlockSparseMatrix::random_from_structure(spec.a.clone(), 3);
    let b_gen = |k: usize, j: usize, r: usize, c: usize, pool: &TilePool| {
        Ok(Arc::new(pool.random(r, c, tile_seed(3 ^ 0xB, k, j))))
    };

    let mut counters: Option<(u64, u64, u64)> = None;
    for tracing in [false, true] {
        for faults in [None, Some(FaultPlan::transient(9, 0.15))] {
            let mut builder = ExecOptions::builder().tracing(tracing);
            if let Some(fp) = faults {
                builder = builder.fault_plan(fp);
            }
            let opts = builder.build();
            let combo = format!("tracing={tracing} faults={}", faults.is_some());

            let (_c, report) = execute(&spec, &plan, &a, &b_gen, opts)
                .unwrap_or_else(|e| panic!("{combo}: {e}"));

            // Same work, whatever the policies.
            let work = (
                report.gemm_tasks,
                report.b_tiles_generated,
                report.a_messages,
            );
            match counters {
                None => counters = Some(work),
                Some(expect) => assert_eq!(work, expect, "{combo}: work differs"),
            }

            // Trace exists exactly when requested — and is always clean.
            assert_eq!(report.trace.is_some(), tracing, "{combo}");
            assert_eq!(!report.metrics.is_empty(), tracing, "{combo}");
            if tracing {
                assert_eq!(
                    validate_trace_invariants(&report, GPU_MEM),
                    Vec::<String>::new(),
                    "{combo}"
                );
            }

            // Faults recover through the same path and leave evidence;
            // clean runs must report none.
            assert_eq!(report.recovery.any(), faults.is_some(), "{combo}");
        }
    }
}

#[test]
fn traced_faulted_fanout_records_retries_on_their_lanes() {
    // The deepest stack — tracing × faults × fan-out — exercised in one run:
    // the trace must attribute retried tasks to the lanes that retried
    // them, and the order-free GenBs to theirs.
    let (spec, plan) = problem();
    let a = BlockSparseMatrix::random_from_structure(spec.a.clone(), 3);
    let b_gen = |k: usize, j: usize, r: usize, c: usize, pool: &TilePool| {
        Ok(Arc::new(pool.random(r, c, tile_seed(3 ^ 0xB, k, j))))
    };
    let opts = ExecOptions::builder()
        .tracing(true)
        .fault_plan(FaultPlan::transient(5, 0.2))
        .build();
    let (_c, report) = execute(&spec, &plan, &a, &b_gen, opts).unwrap();

    assert!(report.recovery.any(), "0.2 injection never fired");
    let trace = report.trace.as_ref().unwrap();
    let mut retries_by_lane: BTreeMap<usize, u64> = BTreeMap::new();
    for r in &trace.records {
        if r.attempts > 1 {
            *retries_by_lane.entry(r.worker.lane).or_insert(0) += u64::from(r.attempts - 1);
        }
    }
    let total: u64 = retries_by_lane.values().sum();
    assert_eq!(total, report.recovery.retry_attempts, "trace vs counters");
    assert_eq!(
        validate_trace_invariants(&report, GPU_MEM),
        Vec::<String>::new()
    );
}
