//! Property tests for the engine's tracing: for *any* DAG shape and worker
//! set, the per-worker event streams must be well formed — monotone
//! timestamps, exactly one Ready/Running/Done per task in that order,
//! dependency spans never overlapping, and counts matching the DAG size.

use bst_runtime::engine::{infallible, Engine};
use bst_runtime::graph::{TaskGraph, WorkerId};
use bst_runtime::trace::{ExecTrace, TracePhase};
use proptest::prelude::*;

fn w(node: usize, lane: usize) -> WorkerId {
    WorkerId { node, lane }
}

fn exec_traced(g: &TaskGraph<usize>, workers: &[WorkerId]) -> ExecTrace {
    match Engine::new().tracing().run(g, workers, |_| (), infallible(|_: &usize, _, _: &mut ()| {}))
    {
        Ok(r) => r.trace.expect("tracing was requested"),
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
    /// the event count is exactly 3 per task (Ready, Running, Done).
    #[test]
    fn random_dags_produce_valid_traces(
        n in 1usize..40,
        raw_edges in prop::collection::vec((0usize..1000, 0usize..1000), 0..80),
        nodes in 1usize..4,
        lanes in 1usize..4,
    ) {
        let (g, workers) = build_dag(n, &raw_edges, nodes, lanes);
        let trace = exec_traced(&g, &workers);
        let errors = trace.validate(&g);
        prop_assert!(errors.is_empty(), "{errors:?}");
        prop_assert_eq!(trace.event_count(), 3 * n);
    }

    /// Re-checked by hand (not via `validate`): per-worker monotonicity,
    /// per-task phase counts, and life-cycle ordering of every span.
    #[test]
    fn event_streams_are_well_formed(
        n in 1usize..30,
        raw_edges in prop::collection::vec((0usize..1000, 0usize..1000), 0..60),
        lanes in 1usize..5,
    ) {
        let (g, workers) = build_dag(n, &raw_edges, 1, lanes);
        let trace = exec_traced(&g, &workers);

        for wt in &trace.workers {
            for pair in wt.events.windows(2) {
                prop_assert!(pair[0].t_ns <= pair[1].t_ns,
                    "non-monotone stream on {:?}", wt.worker);
            }
        }

        let mut counts = vec![[0usize; 3]; n];
        for (_, e) in trace.iter_events() {
            counts[e.task][e.phase as usize] += 1;
        }
        for (task, c) in counts.iter().enumerate() {
            prop_assert_eq!(c, &[1, 1, 1], "task {} phases {:?}", task, c);
        }

        let spans = trace.task_spans();
        prop_assert_eq!(spans.len(), n);
        for span in spans.values() {
            prop_assert!(span.ready_ns <= span.start_ns);
            prop_assert!(span.start_ns <= span.end_ns);
        }
        let _ = TracePhase::Ready; // phases exhaustively covered above
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
        let trace = exec_traced(&g, &workers);
        let spans = trace.task_spans();
        for task in 0..g.len() {
            for &dep in g.deps(task) {
                prop_assert!(
                    spans[&dep].end_ns <= spans[&task].start_ns,
                    "task {task} started before dep {dep} finished"
                );
            }
        }
    }
}
