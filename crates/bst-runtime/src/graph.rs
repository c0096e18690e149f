//! Generic task DAG: tasks pinned to workers.
//!
//! A [`TaskGraph`] is a DAG of payload-carrying tasks, each pinned to a
//! [`WorkerId`] (a lane of a simulated node) or order-free
//! ([`WorkerId::any`]), stored in flat arrays. Edges are plain dependencies;
//! the caller decides whether an edge means "data flows here" or "control
//! only" — the scheduler treats both identically, as PaRSEC's PTG does. A
//! lane runs its tasks in id order, so its own order needs no edges.
//!
//! Execution, and what a lane means to it, lives in [`crate::engine`].

use crate::trace::ExecTrace;
use std::sync::OnceLock;

/// Address of an execution lane: a node and a lane within it.
///
/// A lane is a program, not a thread: its tasks run one at a time, in task
/// id order, on whichever pooled worker holds it, each once its own
/// dependencies are done. By convention lane 0 is the node's CPU
/// (communication) and lanes `1..=g` are its GPUs — but the engine imposes
/// no semantics. A task whose order does not matter is pinned to no lane:
/// [`WorkerId::any`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorkerId {
    /// Simulated node index.
    pub node: usize,
    /// Lane within the node.
    pub lane: usize,
}

impl WorkerId {
    /// The lane number of order-free tasks ([`WorkerId::any`]).
    pub const ANY_LANE: usize = usize::MAX;

    /// A task of `node` whose order does not matter: it waits behind no
    /// other task, so any pooled worker runs it as soon as it is ready,
    /// beside any other, and only the pool's size bounds how many run at
    /// once.
    pub fn any(node: usize) -> Self {
        Self { node, lane: Self::ANY_LANE }
    }

    /// Whether this is [`WorkerId::any`] rather than a lane.
    pub fn is_any(self) -> bool {
        self.lane == Self::ANY_LANE
    }
}

/// Identifier of a task within its graph.
pub type TaskId = usize;

/// Retry options of [`Engine`](crate::engine::Engine): how many attempts
/// each task gets and how long the worker backs off between them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryOptions {
    /// Maximum handler attempts per task (≥ 1; a value of 0 is treated as
    /// 1). The first attempt counts, so `budget = 4` allows 3 retries.
    pub budget: u32,
    /// Backoff before the first retry, in microseconds; each further retry
    /// doubles it (exponential backoff).
    pub backoff_base_us: u64,
    /// Upper bound on a single backoff, in microseconds.
    pub backoff_max_us: u64,
}

impl Default for RetryOptions {
    fn default() -> Self {
        Self { budget: 4, backoff_base_us: 20, backoff_max_us: 500 }
    }
}

impl RetryOptions {
    /// No retries: every transient error is terminal.
    pub fn none() -> Self {
        Self { budget: 1, backoff_base_us: 0, backoff_max_us: 0 }
    }

    /// Backoff after failed attempt number `attempt` (1-based):
    /// `min(base · 2^(attempt-1), max)` microseconds.
    pub fn backoff_us(&self, attempt: u32) -> u64 {
        let doubling = attempt.saturating_sub(1).min(16);
        self.backoff_base_us
            .saturating_mul(1u64 << doubling)
            .min(self.backoff_max_us)
    }
}

/// A handler error, classified by whether retrying could help.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TaskError<E> {
    /// The failure may resolve on retry (e.g. an injected transient fault);
    /// the engine re-enqueues the task while its retry budget lasts.
    Transient(E),
    /// Retrying cannot help; the execution aborts immediately.
    Fatal(E),
}

impl<E> TaskError<E> {
    /// The wrapped error.
    pub fn into_inner(self) -> E {
        match self {
            Self::Transient(e) | Self::Fatal(e) => e,
        }
    }
}

/// Why a fallible execution stopped early (returned by
/// [`Engine::run`](crate::engine::Engine::run) as the `Err` case).
#[derive(Clone, Debug)]
pub struct RunAbort<E> {
    /// The task whose failure ended the run.
    pub task: TaskId,
    /// Handler attempts that task had made (including the failing one).
    pub attempts: u32,
    /// `true` if the error was transient but the retry budget ran out;
    /// `false` for a fatal error.
    pub budget_exhausted: bool,
    /// The error of the final attempt.
    pub error: E,
}

/// Outcome of a completed fallible execution.
#[derive(Clone, Debug, Default)]
pub struct FallibleRun {
    /// Handler attempts per task id (1 = no retries).
    pub attempts: Vec<u32>,
    /// Every task's span, indexed by task id.
    pub trace: ExecTrace,
}

impl FallibleRun {
    /// Number of tasks that needed more than one attempt.
    pub fn retried_tasks(&self) -> u64 {
        self.attempts.iter().filter(|&&a| a > 1).count() as u64
    }

    /// Total failed attempts across all tasks (`Σ max(attempts - 1, 0)`).
    pub fn failed_attempts(&self) -> u64 {
        self.attempts.iter().map(|&a| u64::from(a.saturating_sub(1))).sum()
    }

    /// Largest per-task attempt count (0 for an empty graph).
    pub fn max_attempts(&self) -> u32 {
        self.attempts.iter().copied().max().unwrap_or(0)
    }
}

/// A DAG of tasks pinned to workers, stored flat: a payload and a lane
/// index per task, each distinct worker once, and every task's dependencies
/// back to back in task order (compressed rows), declared right after the
/// task is added. The successor lists, in the same form, are built on first
/// use.
pub struct TaskGraph<T> {
    payloads: Vec<T>,
    /// Per task: its worker, as an index into `lanes`.
    lane_of: Vec<u32>,
    /// The distinct workers of the tasks, in first-use order.
    lanes: Vec<WorkerId>,
    /// `deps[dep_at[t]..dep_at[t + 1]]` are task `t`'s dependencies.
    dep_at: Vec<u32>,
    deps: Vec<TaskId>,
    succs: OnceLock<Successors>,
}

/// Every task's successors, ascending, back to back: `ids[at[t]..at[t + 1]]`.
struct Successors {
    at: Vec<u32>,
    ids: Vec<u32>,
}

impl<T> Default for TaskGraph<T> {
    fn default() -> Self {
        Self {
            payloads: Vec::new(),
            lane_of: Vec::new(),
            lanes: Vec::new(),
            dep_at: vec![0],
            deps: Vec::new(),
            succs: OnceLock::new(),
        }
    }
}

impl<T> TaskGraph<T> {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a task pinned to `worker` (or order-free, under
    /// [`WorkerId::any`]); returns its id.
    pub fn add_task(&mut self, payload: T, worker: WorkerId) -> TaskId {
        assert!(self.payloads.len() < u32::MAX as usize, "task ids fit a u32");
        self.payloads.push(payload);
        let lane = self.lanes.iter().position(|&w| w == worker).unwrap_or_else(|| {
            self.lanes.push(worker);
            self.lanes.len() - 1
        });
        self.lane_of.push(lane as u32);
        self.dep_at.push(self.dep_at[self.payloads.len() - 1]);
        self.succs.take();
        self.payloads.len() - 1
    }

    /// Declares that `task` depends on `dep` (dep must complete first).
    ///
    /// # Panics
    /// Panics unless `task` is the task added last (a task's dependencies
    /// are declared right after it) and `dep < task` (dependencies point at
    /// previously-created tasks, which makes the graph acyclic by
    /// construction).
    pub fn add_dep(&mut self, task: TaskId, dep: TaskId) {
        assert_eq!(task + 1, self.payloads.len(), "dependencies of task {task} must follow it");
        assert!(dep < task, "dependency {dep} must be created before task {task}");
        self.deps.push(dep);
        *self.dep_at.last_mut().expect("one offset per task, plus one") =
            u32::try_from(self.deps.len()).expect("edge counts fit a u32");
        self.succs.take();
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.payloads.len()
    }

    /// Whether the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.payloads.is_empty()
    }

    /// Payload of a task.
    pub fn payload(&self, id: TaskId) -> &T {
        &self.payloads[id]
    }

    /// Worker of a task.
    pub fn worker(&self, id: TaskId) -> WorkerId {
        self.lanes[self.lane_of[id] as usize]
    }

    /// A task's worker as an index into [`TaskGraph::lanes`].
    pub(crate) fn lane(&self, id: TaskId) -> usize {
        self.lane_of[id] as usize
    }

    /// The distinct workers of the graph's tasks, in first-use order.
    pub(crate) fn lanes(&self) -> &[WorkerId] {
        &self.lanes
    }

    /// Dependencies of a task, in the order they were declared.
    pub fn deps(&self, id: TaskId) -> &[TaskId] {
        &self.deps[self.dep_at[id] as usize..self.dep_at[id + 1] as usize]
    }

    /// The tasks that depend on `id`, in ascending id (once per declared
    /// edge). The first call builds every task's list.
    pub fn successors(&self, id: TaskId) -> impl ExactSizeIterator<Item = TaskId> + '_ {
        let s = self.succs.get_or_init(|| {
            let mut at = vec![0u32; self.len() + 1];
            self.deps.iter().for_each(|&d| at[d + 1] += 1);
            (0..self.len()).for_each(|t| at[t + 1] += at[t]);
            let mut next = at.clone();
            let mut ids = vec![0u32; self.deps.len()];
            for t in 0..self.len() {
                for &d in self.deps(t) {
                    ids[next[d] as usize] = t as u32;
                    next[d] += 1;
                }
            }
            Successors { at, ids }
        });
        s.ids[s.at[id] as usize..s.at[id + 1] as usize].iter().map(|&t| t as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{infallible, Engine};
    use parking_lot::Mutex;

    fn w(node: usize, lane: usize) -> WorkerId {
        WorkerId { node, lane }
    }

    /// Runs `g` with an infallible handler through the engine, returning
    /// its trace.
    fn exec<T: Sync, C: Send>(
        g: &TaskGraph<T>,
        workers: &[WorkerId],
        mk_ctx: impl Fn(WorkerId) -> C + Sync,
        run: impl Fn(&T, WorkerId, &mut C) + Sync,
    ) -> ExecTrace {
        match Engine::new().run(g, workers, mk_ctx, infallible(run)) {
            Ok(r) => r.trace,
            Err(abort) => match abort.error {},
        }
    }

    #[test]
    fn builds_and_queries() {
        let mut g: TaskGraph<&'static str> = TaskGraph::new();
        let a = g.add_task("a", w(0, 0));
        let b = g.add_task("b", w(0, 1));
        g.add_dep(b, a);
        assert_eq!(g.len(), 2);
        assert_eq!(*g.payload(a), "a");
        assert_eq!(g.worker(b), w(0, 1));
        assert_eq!(g.deps(b), &[a]);
    }

    #[test]
    #[should_panic]
    fn forward_dep_rejected() {
        let mut g: TaskGraph<u32> = TaskGraph::new();
        let a = g.add_task(0, w(0, 0));
        g.add_dep(a, a);
    }

    #[test]
    fn executes_in_dependency_order() {
        let mut g: TaskGraph<usize> = TaskGraph::new();
        let n = 50;
        // A chain alternating between two workers.
        let mut prev = None;
        for i in 0..n {
            let t = g.add_task(i, w(0, i % 2));
            if let Some(p) = prev {
                g.add_dep(t, p);
            }
            prev = Some(t);
        }
        let log = Mutex::new(Vec::new());
        exec(&g, &[w(0, 0), w(0, 1)], |_| (), |&i, _, _| {
            log.lock().push(i);
        });
        assert_eq!(*log.lock(), (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn fan_out_fan_in() {
        let mut g: TaskGraph<&'static str> = TaskGraph::new();
        let src = g.add_task("src", w(0, 0));
        let mids: Vec<_> = (0..8)
            .map(|i| {
                let t = g.add_task("mid", w(i % 3, 0));
                g.add_dep(t, src);
                t
            })
            .collect();
        let sink = g.add_task("sink", w(0, 0));
        for m in mids {
            g.add_dep(sink, m);
        }
        let order = Mutex::new(Vec::new());
        exec(&g, &[w(0, 0), w(1, 0), w(2, 0)], |_| (), |&s, _, _| {
            order.lock().push(s);
        });
        let order = order.lock();
        assert_eq!(order.first(), Some(&"src"));
        assert_eq!(order.last(), Some(&"sink"));
        assert_eq!(order.len(), 10);
    }


    #[test]
    fn control_edges_enforce_ordering_across_workers() {
        // Two independent pipelines with cross control edges pinning an
        // interleaving: b0 before a1.
        let mut g: TaskGraph<&'static str> = TaskGraph::new();
        let a0 = g.add_task("a0", w(0, 0));
        let b0 = g.add_task("b0", w(1, 0));
        let a1 = g.add_task("a1", w(0, 0));
        g.add_dep(a1, a0);
        g.add_dep(a1, b0); // control edge
        let log = Mutex::new(Vec::new());
        exec(&g, &[w(0, 0), w(1, 0)], |_| (), |&s, _, _| {
            log.lock().push(s);
        });
        let log = log.lock();
        let pos = |s: &str| log.iter().position(|&x| x == s).unwrap();
        assert!(pos("b0") < pos("a1"));
        assert!(pos("a0") < pos("a1"));
    }

    #[test]
    fn traced_execution_produces_valid_trace() {
        // Diamond across three workers plus an independent chain.
        let mut g: TaskGraph<u32> = TaskGraph::new();
        let src = g.add_task(0, w(0, 0));
        let l = g.add_task(1, w(0, 1));
        g.add_dep(l, src);
        let r = g.add_task(2, w(1, 0));
        g.add_dep(r, src);
        let sink = g.add_task(3, w(0, 0));
        g.add_dep(sink, l);
        g.add_dep(sink, r);
        let mut prev = g.add_task(4, w(1, 0));
        for i in 5..20 {
            let t = g.add_task(i, w(1, 0));
            g.add_dep(t, prev);
            prev = t;
        }
        let trace = exec(&g, &[w(0, 0), w(0, 1), w(1, 0)], |_| (), |_, _, _| {
            std::hint::black_box((0..100).sum::<u64>());
        });
        assert_eq!(trace.validate(&g), Vec::new());
        // The dependency-free tasks were ready first.
        assert_eq!(trace.spans[src].ready_ns, trace.spans[4].ready_ns);
        assert!(trace.spans[sink].ready_ns >= trace.spans[l].end_ns);
        assert!(trace.total_ns > 0);
    }

    #[test]
    fn empty_graph_is_noop() {
        let g: TaskGraph<u32> = TaskGraph::new();
        let trace = exec(&g, &[w(0, 0)], |_| (), |_, _, _| panic!("no tasks"));
        assert!(trace.spans.is_empty());
        assert!(trace.validate(&g).is_empty());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn handler_panic_propagates() {
        let mut g: TaskGraph<u32> = TaskGraph::new();
        g.add_task(1, w(0, 0));
        exec(&g, &[w(0, 0)], |_| (), |_, _, _| panic!("boom"));
    }

    #[test]
    fn fallible_retries_transient_failures_to_success() {
        // A diamond whose left task fails twice before succeeding; the run
        // must complete, respect the DAG, and report the attempt counts.
        let mut g: TaskGraph<&'static str> = TaskGraph::new();
        let src = g.add_task("src", w(0, 0));
        let flaky = g.add_task("flaky", w(0, 1));
        g.add_dep(flaky, src);
        let solid = g.add_task("solid", w(1, 0));
        g.add_dep(solid, src);
        let sink = g.add_task("sink", w(0, 0));
        g.add_dep(sink, flaky);
        g.add_dep(sink, solid);

        let order = Mutex::new(Vec::new());
        let run = Engine::new()
            .with_retry(RetryOptions { budget: 4, backoff_base_us: 1, backoff_max_us: 10 })
            .run(
                &g,
                &[w(0, 0), w(0, 1), w(1, 0)],
                |_| (),
                |&name: &&str, _, _, attempt| {
                    if name == "flaky" && attempt <= 2 {
                        return Err(TaskError::Transient(format!("attempt {attempt}")));
                    }
                    order.lock().push(name);
                    Ok(())
                },
            )
            .expect("recovers within budget");
        assert_eq!(run.attempts[flaky], 3);
        assert_eq!(run.retried_tasks(), 1);
        assert_eq!(run.failed_attempts(), 2);
        assert_eq!(run.max_attempts(), 3);
        let order = order.lock();
        // The sink still ran last: retrying must not release successors.
        assert_eq!(order.last(), Some(&"sink"));
        // The retried trace still validates.
        assert_eq!(run.trace.validate(&g), Vec::new());
    }

    #[test]
    fn fallible_budget_exhaustion_aborts_with_error() {
        let mut g: TaskGraph<u32> = TaskGraph::new();
        let a = g.add_task(7, w(0, 0));
        let b = g.add_task(8, w(1, 0));
        g.add_dep(b, a);
        let abort = Engine::new()
            .with_retry(RetryOptions { budget: 3, backoff_base_us: 1, backoff_max_us: 2 })
            .run(
                &g,
                &[w(0, 0), w(1, 0)],
                |_| (),
                |_, _, _, _| Err::<(), _>(TaskError::Transient("still down")),
            )
            .expect_err("budget must run out");
        assert_eq!(abort.task, a);
        assert_eq!(abort.attempts, 3);
        assert!(abort.budget_exhausted);
        assert_eq!(abort.error, "still down");
    }

    #[test]
    fn fallible_fatal_error_aborts_immediately() {
        let mut g: TaskGraph<u32> = TaskGraph::new();
        let a = g.add_task(1, w(0, 0));
        // A dependent on another worker must not hang when the run aborts.
        let b = g.add_task(2, w(1, 0));
        g.add_dep(b, a);
        let abort = Engine::new()
            .with_retry(RetryOptions::default())
            .run(
                &g,
                &[w(0, 0), w(1, 0)],
                |_| (),
                |_, _, _, _| Err::<(), _>(TaskError::Fatal("corrupt")),
            )
            .expect_err("fatal error must abort");
        assert_eq!(abort.attempts, 1);
        assert!(!abort.budget_exhausted);
        assert_eq!(abort.error, "corrupt");
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let r = RetryOptions { budget: 8, backoff_base_us: 10, backoff_max_us: 65 };
        assert_eq!(r.backoff_us(1), 10);
        assert_eq!(r.backoff_us(2), 20);
        assert_eq!(r.backoff_us(3), 40);
        assert_eq!(r.backoff_us(4), 65);
        assert_eq!(r.backoff_us(60), 65); // shift stays in range
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn panic_does_not_hang_other_workers() {
        // Worker 1 waits on a task that can never become ready because
        // worker 0 panics; the engine must poison the queues so the test
        // terminates (with the propagated panic) instead of deadlocking.
        let mut g: TaskGraph<u32> = TaskGraph::new();
        let a = g.add_task(0, w(0, 0));
        let b = g.add_task(1, w(1, 0));
        g.add_dep(b, a);
        exec(&g, &[w(0, 0), w(1, 0)], |_| (), |&v, _, _| {
            if v == 0 {
                panic!("boom");
            }
        });
    }
}
