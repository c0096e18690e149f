//! Integration tests for the fault-injection & recovery subsystem: inject
//! transient GenB / allocation / transfer faults and lane stalls at the
//! rates the acceptance criteria name (5–10%), and check that
//!
//! * the executor recovers and the result matches the fault-free run within
//!   1e-10;
//! * retries never violate the task-lifecycle or control-flow trace
//!   invariants;
//! * the same `FaultPlan` seed reproduces the same injection schedule;
//! * a permanently-failed node's B columns re-plan onto its surviving row
//!   peers and the degraded execution still produces the right numbers.

use bst_contract::engine::execute;
use bst_contract::{
    validate_trace_invariants, DeviceConfig, ExecError, ExecOptions, ExecReport, ExecutionPlan,
    FaultPlan, GridConfig, PlannerConfig, ProblemSpec, RetryPolicy,
};
use bst_sparse::generate::{generate, SyntheticParams};
use bst_sparse::matrix::tile_seed;
use bst_sparse::BlockSparseMatrix;
use std::sync::Arc;

const GPU_MEM: u64 = 1 << 20;

fn spec() -> ProblemSpec {
    let prob = generate(&SyntheticParams {
        m: 60,
        n: 480,
        k: 480,
        density: 0.6,
        tile_min: 8,
        tile_max: 16,
        seed: 21,
    });
    ProblemSpec::new(prob.a, prob.b, None)
}

fn config(p: usize, q: usize) -> PlannerConfig {
    PlannerConfig::paper(
        GridConfig { p, q },
        DeviceConfig {
            gpus_per_node: 2,
            gpu_mem_bytes: GPU_MEM,
        },
    )
}

fn run(spec: &ProblemSpec, cfg: PlannerConfig, opts: ExecOptions) -> (BlockSparseMatrix, ExecReport) {
    let plan = ExecutionPlan::build(spec, cfg).unwrap();
    let a = BlockSparseMatrix::random_from_structure(spec.a.clone(), 21);
    let b_gen = |k: usize, j: usize, r: usize, c: usize, pool: &bst_tile::TilePool| {
        Ok(Arc::new(pool.random(r, c, tile_seed(21 ^ 0xB, k, j))))
    };
    execute(spec, &plan, &a, &b_gen, opts).expect("execution recovers")
}

/// 8% transient faults on every site: the executor retries through them,
/// the recovered result matches the fault-free one within 1e-10, the
/// recovery counters are populated, and the Chrome export labels retried
/// tasks with their attempt counts.
#[test]
fn injected_faults_recover_and_match_fault_free() {
    let s = spec();
    let cfg = config(1, 2);
    let (c_clean, clean) = run(&s, cfg, ExecOptions::builder().build());
    assert!(!clean.recovery.any(), "clean run must report no recovery");

    let fp = FaultPlan::transient(42, 0.08);
    let opts = ExecOptions::builder().tracing(true).fault_plan(fp).build();
    let (c_faulted, faulted) = run(&s, cfg, opts);

    assert!(
        c_faulted.max_abs_diff(&c_clean) < 1e-10,
        "recovered result diverged: {}",
        c_faulted.max_abs_diff(&c_clean)
    );
    let r = &faulted.recovery;
    assert!(r.injected_genb > 0, "no GenB faults fired at 8%: {r:?}");
    assert!(r.injected_alloc > 0, "no alloc faults fired at 8%: {r:?}");
    assert!(r.injected_send > 0, "no send faults fired at 8%: {r:?}");
    assert!(r.stalls > 0, "no stalls fired at 4%: {r:?}");
    assert_eq!(
        r.retry_attempts,
        r.injected_genb + r.injected_alloc + r.injected_send,
        "every injected failure is exactly one retried attempt"
    );
    assert!(r.retried_tasks > 0 && r.max_attempts > 1);
    assert!(
        r.max_attempts <= fp.max_consecutive + 1,
        "attempts exceeded the plan's failure streak bound"
    );

    // The trace stays well-formed under retries…
    assert_eq!(validate_trace_invariants(&faulted, GPU_MEM), Vec::<String>::new());
    let trace = faulted.trace.as_ref().unwrap();
    let retried_records = trace.records.iter().filter(|rec| rec.attempts > 1).count() as u64;
    assert_eq!(retried_records, r.retried_tasks);
    // …and the Chrome export carries the attempt counts.
    assert!(trace.chrome_trace_json().contains("\"attempts\":\""));
    // The recovery line shows up in the human summary.
    assert!(faulted.text_summary(GPU_MEM).contains("recovery:"));
}

/// Determinism: the injection schedule is a pure function of the plan seed,
/// so two runs with the same `FaultPlan` report identical injection and
/// retry counters, and a different seed yields a different schedule.
#[test]
fn same_seed_reproduces_the_injection_schedule() {
    let s = spec();
    let cfg = config(1, 2);
    let opts = |seed| {
        ExecOptions::builder()
            .fault_plan(FaultPlan::transient(seed, 0.08))
            .build()
    };
    let (c1, r1) = run(&s, cfg, opts(7));
    let (c2, r2) = run(&s, cfg, opts(7));
    assert_eq!(r1.recovery, r2.recovery, "same seed, different schedule");
    assert!(c1.max_abs_diff(&c2) < 1e-10);

    let (_, r3) = run(&s, cfg, opts(8));
    assert_ne!(
        (r1.recovery.injected_genb, r1.recovery.injected_alloc, r1.recovery.injected_send),
        (r3.recovery.injected_genb, r3.recovery.injected_alloc, r3.recovery.injected_send),
        "different seeds injected the identical schedule"
    );
}

/// Graceful degradation: kill one node of a 1×2 row. Its B columns re-plan
/// onto the survivor, the report says so, and the numbers still match the
/// healthy run within 1e-10 — even with transient faults injected on top.
#[test]
fn dead_node_replans_columns_and_stays_correct() {
    let s = spec();
    let cfg = config(1, 2);
    let (c_clean, _) = run(&s, cfg, ExecOptions::builder().build());

    let fp = FaultPlan::transient(5, 0.05).with_dead_node(1);
    let (c_degraded, report) = run(&s, cfg, ExecOptions::builder().fault_plan(fp).build());
    assert!(
        c_degraded.max_abs_diff(&c_clean) < 1e-10,
        "degraded result diverged: {}",
        c_degraded.max_abs_diff(&c_clean)
    );
    assert_eq!(report.recovery.dead_nodes, vec![1]);
    assert!(report.recovery.replanned_columns > 0, "{:?}", report.recovery);

    // Killing the whole row is not recoverable and says so.
    let all_dead = FaultPlan::default().with_dead_node(0);
    let plan = ExecutionPlan::build(&s, config(2, 1)).unwrap();
    let a = BlockSparseMatrix::random_from_structure(s.a.clone(), 21);
    let b_gen = |k: usize, j: usize, r: usize, c: usize, pool: &bst_tile::TilePool| {
        Ok(Arc::new(pool.random(r, c, tile_seed(21 ^ 0xB, k, j))))
    };
    let err = execute(
        &s,
        &plan,
        &a,
        &b_gen,
        ExecOptions::builder().fault_plan(all_dead).build(),
    )
    .unwrap_err();
    assert!(matches!(err, ExecError::Replan(_)), "got {err}");
}

/// A fault streak longer than the retry budget aborts with
/// `RetryExhausted` instead of hanging or panicking.
#[test]
fn streak_beyond_budget_aborts_with_typed_error() {
    let s = spec();
    let plan = ExecutionPlan::build(&s, config(1, 2)).unwrap();
    let a = BlockSparseMatrix::random_from_structure(s.a.clone(), 21);
    let b_gen = |k: usize, j: usize, r: usize, c: usize, pool: &bst_tile::TilePool| {
        Ok(Arc::new(pool.random(r, c, tile_seed(21 ^ 0xB, k, j))))
    };
    // Streaks up to 4 failures, but only 2 attempts allowed.
    let mut fp = FaultPlan::transient(3, 0.10);
    fp.max_consecutive = 4;
    let err = execute(
        &s,
        &plan,
        &a,
        &b_gen,
        ExecOptions::builder()
            .fault_plan(fp)
            .retry(RetryPolicy {
                budget: 2,
                backoff_base_us: 0,
                backoff_max_us: 0,
            })
            .build(),
    )
    .unwrap_err();
    match err {
        ExecError::RetryExhausted { attempts, .. } => assert_eq!(attempts, 2),
        other => panic!("expected RetryExhausted, got {other}"),
    }
}

/// A panicking B generator propagates its panic out of `execute` on a
/// 2 × 2 grid instead of leaving the run waiting for ever on the fabric's
/// progress threads.
#[test]
fn generator_panic_propagates_instead_of_hanging() {
    let s = spec();
    assert!(s.b.shape().is_nonzero(1, 1), "the panicking tile is generated");
    let plan = ExecutionPlan::build(&s, config(2, 2)).unwrap();
    let a = BlockSparseMatrix::random_from_structure(s.a.clone(), 21);
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let b_gen = |k: usize, j: usize, r: usize, c: usize, pool: &bst_tile::TilePool| {
            assert!((k, j) != (1, 1), "generator failed at tile (1, 1)");
            Ok(Arc::new(pool.random(r, c, tile_seed(21 ^ 0xB, k, j))))
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute(&s, &plan, &a, &b_gen, ExecOptions::builder().build()).is_ok()
        }));
        let _ = tx.send(outcome.is_err());
    });
    let panicked = rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("execute hung after a handler panic");
    assert!(panicked, "the generator's panic must reach the caller");
}
