//! Property tests for the engine's spans: for *any* DAG shape and worker
//! set, every task has one well-formed span — ready ≤ start ≤ end, never
//! overlapping its lane's other tasks or starting before its dependencies
//! ended — and under transient failures the span is the final attempt's.

use bst_runtime::engine::{infallible, Engine};
use bst_runtime::graph::{RetryOptions, TaskError, TaskGraph, WorkerId};
use bst_runtime::trace::{ExecTrace, TraceClock};
use parking_lot::Mutex;
use proptest::prelude::*;

fn w(node: usize, lane: usize) -> WorkerId {
    WorkerId { node, lane }
}

fn exec(g: &TaskGraph<usize>, workers: &[WorkerId]) -> ExecTrace {
    match Engine::new().run(g, workers, |_| (), infallible(|_: &usize, _, _: &mut ()| {})) {
        Ok(r) => r.trace,
        Err(abort) => match abort.error {},
    }
}

/// Builds a random DAG: `n` tasks pinned round-robin over the workers,
/// edges derived from raw pairs by ordering them (dep < task), which keeps
/// the graph acyclic by construction.
fn build_dag(
    n: usize,
    raw_edges: &[(usize, usize)],
    nodes: usize,
    lanes: usize,
) -> (TaskGraph<usize>, Vec<WorkerId>) {
    let workers: Vec<WorkerId> = (0..nodes)
        .flat_map(|nd| (0..lanes).map(move |l| w(nd, l)))
        .collect();
    // Declared task by task, each task's edges in the order drawn.
    let mut deps: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(a, b) in raw_edges {
        let (x, y) = (a % n, b % n);
        if x != y {
            deps[x.max(y)].push(x.min(y));
        }
    }
    let mut g: TaskGraph<usize> = TaskGraph::new();
    for (i, mine) in deps.iter().enumerate() {
        let id = g.add_task(i, workers[i % workers.len()]);
        mine.iter().for_each(|&d| g.add_dep(id, d));
    }
    (g, workers)
}

proptest! {
    /// The built-in validator accepts every trace the engine produces, and
    /// there is exactly one span per task.
    #[test]
    fn random_dags_produce_valid_traces(
        n in 1usize..40,
        raw_edges in prop::collection::vec((0usize..1000, 0usize..1000), 0..80),
        nodes in 1usize..4,
        lanes in 1usize..4,
    ) {
        let (g, workers) = build_dag(n, &raw_edges, nodes, lanes);
        let trace = exec(&g, &workers);
        let errors = trace.validate(&g);
        prop_assert!(errors.is_empty(), "{errors:?}");
        prop_assert_eq!(trace.spans.len(), n);
    }

    /// Re-checked by hand (not via `validate`): life-cycle ordering of every
    /// span, and a lane's tasks one at a time.
    #[test]
    fn spans_are_well_formed(
        n in 1usize..30,
        raw_edges in prop::collection::vec((0usize..1000, 0usize..1000), 0..60),
        lanes in 1usize..5,
    ) {
        let (g, workers) = build_dag(n, &raw_edges, 1, lanes);
        let trace = exec(&g, &workers);
        prop_assert_eq!(trace.spans.len(), n);
        for span in &trace.spans {
            prop_assert!(span.ready_ns <= span.start_ns);
            prop_assert!(span.start_ns <= span.end_ns);
            prop_assert!(span.end_ns <= trace.total_ns);
        }
        for lane in &workers {
            let mut ran: Vec<_> = (0..n)
                .filter(|&t| g.worker(t) == *lane)
                .map(|t| trace.spans[t])
                .collect();
            ran.sort_by_key(|s| s.start_ns);
            for pair in ran.windows(2) {
                prop_assert!(pair[0].end_ns <= pair[1].start_ns, "{:?} overlapped", lane);
            }
        }
    }

    /// A task never starts before each of its dependencies finished, no
    /// matter how the scheduler interleaved the workers.
    #[test]
    fn dependency_spans_never_overlap(
        n in 2usize..30,
        raw_edges in prop::collection::vec((0usize..1000, 0usize..1000), 1..60),
        nodes in 1usize..3,
        lanes in 1usize..4,
    ) {
        let (g, workers) = build_dag(n, &raw_edges, nodes, lanes);
        let spans = exec(&g, &workers).spans;
        for task in 0..g.len() {
            for &dep in g.deps(task) {
                prop_assert!(
                    spans[dep].end_ns <= spans[task].start_ns,
                    "task {task} started before dep {dep} finished"
                );
            }
        }
    }

    /// Seeded transient failures under a retry budget: each task keeps one
    /// span, which starts at its final attempt (after every earlier attempt
    /// began, and no later than the final one did), the handler ran exactly
    /// [`FallibleRun::attempts`](bst_runtime::graph::FallibleRun) times, and
    /// the trace validates.
    #[test]
    fn retried_tasks_keep_the_final_attempts_span(
        n in 1usize..30,
        raw_edges in prop::collection::vec((0usize..1000, 0usize..1000), 0..60),
        nodes in 1usize..3,
        lanes in 1usize..4,
        seed in 0u64..1 << 32,
    ) {
        let (g, workers) = build_dag(n, &raw_edges, nodes, lanes);
        // Task t fails its first `fails(t)` attempts: 0, 1 or 2, hashed
        // from the seed.
        let fails = |t: usize| {
            let h = (seed ^ t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (h >> 61) as u32 % 3
        };
        let clock = TraceClock::start();
        let entered: Vec<Mutex<Vec<u64>>> = (0..n).map(|_| Mutex::new(Vec::new())).collect();
        let run = Engine::new()
            .with_clock(clock)
            .with_retry(RetryOptions { budget: 3, backoff_base_us: 1, backoff_max_us: 20 })
            .run(&g, &workers, |_| (), |&t: &usize, _, _, attempt| {
                entered[t].lock().push(clock.now_ns());
                if attempt <= fails(t) {
                    return Err(TaskError::Transient(attempt));
                }
                Ok(())
            })
            .expect("every task recovers within its budget");
        let errors = run.trace.validate(&g);
        prop_assert!(errors.is_empty(), "{errors:?}");
        prop_assert_eq!(run.trace.spans.len(), n);
        for (t, entered) in entered.iter().enumerate() {
            let entered = entered.lock();
            prop_assert_eq!(run.attempts[t], fails(t) + 1);
            prop_assert_eq!(entered.len(), run.attempts[t] as usize);
            let span = run.trace.spans[t];
            let last = *entered.last().unwrap();
            prop_assert!(span.start_ns <= last && last <= span.end_ns, "task {t}: {span:?}");
            if let Some(&earlier) = entered.iter().rev().nth(1) {
                prop_assert!(earlier < span.start_ns, "task {t}: span from an earlier attempt");
            }
        }
    }
}
