//! The single policy-driven execution engine.
//!
//! [`Engine::run`] is **one** scheduler, configured along three orthogonal
//! axes:
//!
//! * the clock — a [`TraceClock`] that timestamps every task's span; a
//!   caller-supplied epoch lets handlers timestamp their own side channels
//!   (e.g. device-memory occupancy samples) on the engine's timeline;
//! * the retry options — per-task attempt budget and backoff applied to
//!   [`TaskError::Transient`] handler failures ([`RetryOptions::none`]
//!   makes every transient error terminal, which is how [`infallible`]
//!   handlers run);
//! * the lane with its own thread — the one lane whose tasks may block on
//!   another process ([`Engine::with_own_thread`]).
//!
//! The axes are picked independently with [`Engine::with_clock`],
//! [`Engine::with_retry`] and [`Engine::with_own_thread`]; every
//! combination reaches one body. Every run records each task's
//! [`TaskSpan`] ([`FallibleRun::trace`]).
//!
//! # Scheduler semantics
//!
//! Lanes are programs, cores are threads. A lane ([`WorkerId`]) runs its
//! tasks in task id order, each once its own dependencies are done, so the
//! graph needs no edge between two tasks of one lane. One pooled worker per
//! core serves every lane: a worker takes a ready lane (one whose next task
//! may start) that no other worker holds, runs that task, and keeps the
//! lane while its next task may start, else takes the next ready lane in
//! FIFO order or sleeps until one becomes ready. A lane's context travels
//! with it. A task pinned to [`WorkerId::any`] is order-free: any pooled
//! worker runs it when it is ready, beside any other, with a context of its
//! own. As every dependency points to a smaller id, the smallest unfinished
//! task may always start: deadlock is structural, provided a pooled task
//! blocks only on a thread outside the pool (a progress or pump thread); a
//! lane whose tasks wait on another process gets a thread of its own
//! ([`Engine::with_own_thread`]).
//!
//! A [`TaskError::Transient`] failure is retried after exponential backoff
//! **without** completing: the task stays at its lane's head, no successor
//! is released early, and every edge of the DAG still gates exactly as
//! planned. A [`TaskError::Fatal`] error (or an exhausted budget) stops the
//! run and surfaces as a [`RunAbort`]. Handler panics stop the run, then
//! propagate.

use crate::graph::{FallibleRun, RetryOptions, RunAbort, TaskError, TaskGraph, TaskId, WorkerId};
use crate::trace::{ExecTrace, TaskSpan, TraceClock};
use std::collections::VecDeque;
use std::convert::Infallible;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// The policy-driven task-DAG execution engine — see the [module
/// docs](self) for what each policy controls.
///
/// Construction starts from [`Engine::new`] (wall clock, no retries) and
/// composes policies fluently:
///
/// ```
/// use bst_runtime::engine::Engine;
/// use bst_runtime::graph::{RetryOptions, TaskGraph, TaskError, WorkerId};
///
/// let mut g: TaskGraph<u32> = TaskGraph::new();
/// let w = WorkerId { node: 0, lane: 0 };
/// g.add_task(7, w);
/// let run = Engine::new()
///     .with_retry(RetryOptions::default())
///     .run(&g, &[w], |_| (), |&v, _, _, _| {
///         assert_eq!(v, 7);
///         Ok::<(), TaskError<String>>(())
///     })
///     .unwrap();
/// assert_eq!(run.trace.spans.len(), 1);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Engine {
    clock: TraceClock,
    retry: RetryOptions,
    own_thread: Option<WorkerId>,
    /// Pooled workers; 0 = one per core.
    threads: usize,
}

impl Engine {
    /// The default policy stack: a wall clock started now, and no retries
    /// (every transient error is terminal).
    pub fn new() -> Self {
        Self {
            clock: TraceClock::start(),
            retry: RetryOptions::none(),
            own_thread: None,
            threads: 0,
        }
    }

    /// This engine timestamping from `clock` — lets the caller share one
    /// epoch between the engine and its handlers' side channels.
    pub fn with_clock(self, clock: TraceClock) -> Self {
        Self { clock, ..self }
    }

    /// This engine retrying transient failures under `retry`.
    pub fn with_retry(self, retry: RetryOptions) -> Self {
        Self { retry, ..self }
    }

    /// This engine serving `lane` (if any) from a thread of its own, outside
    /// the pool: the lane whose tasks block on another process, which a
    /// pooled worker must never wait for.
    pub fn with_own_thread(self, lane: Option<WorkerId>) -> Self {
        Self { own_thread: lane, ..self }
    }

    /// Executes `graph` to completion under this engine's policies, on
    /// one pooled worker per core (never more than the pooled lanes).
    ///
    /// * `workers` — every lane that tasks are pinned to (a task pinned to a
    ///   missing lane panics); an order-free task ([`WorkerId::any`]) needs
    ///   none;
    /// * `mk_ctx` — builds a lane's mutable context (e.g. a device memory
    ///   manager for GPU lanes), on the lane's first task; the context moves
    ///   with the lane between pooled workers. An order-free task gets one
    ///   of its own per attempt;
    /// * `run` — the fallible task handler, called with the payload, the
    ///   lane, the lane's context and the 1-based attempt number.
    ///
    /// A task runs once all its dependencies completed and, on a lane, once
    /// every lower-id task of its lane did: a lane runs one task at a time,
    /// in id order. A pooled task may block only on a thread outside the
    /// pool (see [`Engine::with_own_thread`]).
    /// See the [module docs](self) for retry and abort semantics.
    ///
    /// # Panics
    /// Propagates handler panics (a panic is not an error value); panics on
    /// duplicate lanes or tasks pinned to unknown lanes.
    pub fn run<P, Ctx, E, F, M>(
        &self,
        graph: &TaskGraph<P>,
        workers: &[WorkerId],
        mk_ctx: M,
        run: F,
    ) -> Result<FallibleRun, RunAbort<E>>
    where
        P: Sync,
        Ctx: Send,
        E: Send,
        M: Fn(WorkerId) -> Ctx + Sync,
        F: Fn(&P, WorkerId, &mut Ctx, u32) -> Result<(), TaskError<E>> + Sync,
    {
        let clock = self.clock;
        if graph.is_empty() {
            return Ok(FallibleRun { attempts: Vec::new(), trace: ExecTrace::default() });
        }
        // Map the graph's workers to dense lane indices; order-free tasks
        // have none.
        let mut sorted = workers.to_vec();
        sorted.sort();
        sorted.windows(2).for_each(|w| {
            assert_ne!(w[0], w[1], "duplicate worker {:?}", w[0]);
        });
        let lane_index: Vec<u32> = graph
            .lanes()
            .iter()
            .map(|&w| match sorted.binary_search(&w) {
                _ if w.is_any() => NONE,
                Ok(l) => l as u32,
                Err(_) => panic!("task pinned to unknown worker {w:?}"),
            })
            .collect();
        let lane_of = |id: TaskId| lane_index[graph.lane(id)];
        // Each lane's program, chained in id order: `heads[l]` is lane `l`'s
        // first task, `after[id]` the task its lane runs after `id`.
        let (mut after, mut heads) = (vec![NONE; graph.len()], vec![NONE; sorted.len()]);
        let mut free = 0;
        for id in (0..graph.len()).rev() {
            match lane_of(id) {
                NONE => free += 1,
                l => (after[id], heads[l as usize]) = (heads[l as usize], id as u32),
            }
        }
        let server: Vec<usize> =
            sorted.iter().map(|&w| usize::from(self.own_thread == Some(w))).collect();
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let pooled = server.iter().filter(|&&s| s == POOL).count() + free;
        let threads = (if self.threads > 0 { self.threads } else { cores }).min(pooled).max(1);
        let budget = self.retry.budget.max(1);
        let retry = self.retry;

        let mut sched = Sched {
            heads,
            idle: (0..sorted.len()).map(|_| Some(None)).collect(),
            server,
            ready: [VecDeque::new(), VecDeque::new()],
            indeg: (0..graph.len()).map(|id| graph.deps(id).len() as u32).collect(),
            attempts: vec![0; graph.len()],
            spans: vec![TaskSpan::default(); graph.len()],
            remaining: graph.len(),
            done: false,
            abort: None,
        };
        // The seed tasks are ready from the start.
        let seeded = clock.now_ns();
        for id in (0..graph.len()).filter(|&id| graph.deps(id).is_empty()) {
            sched.spans[id].ready_ns = seeded;
            sched.release(id, lane_of(id));
        }
        let sched = Mutex::new(sched);
        let wake = [Condvar::new(), Condvar::new()];
        let notify = |wakes: &mut [usize; 2]| {
            for (cv, n) in wake.iter().zip(std::mem::take(wakes)) {
                (0..n).for_each(|_| cv.notify_one());
            }
        };
        let finish = |st: &mut Sched<Ctx, E>| {
            st.done = true;
            wake.iter().for_each(Condvar::notify_all);
        };

        // A worker of `srv` takes the unit at the head of its ready list —
        // a lane, whose next task it runs, or an order-free task — and keeps
        // the lane while its next task may start; it sleeps only while its
        // list is empty.
        let work = |srv: usize| {
            let mut wakes = [0usize; 2];
            let mut st = sched.lock().unwrap();
            while !st.done {
                let Some(unit) = st.ready[srv].pop_front() else {
                    notify(&mut wakes);
                    st = wake[srv].wait(st).unwrap();
                    continue;
                };
                let (id, mut ctx) = match unit {
                    Unit::Lane(l) => {
                        (st.heads[l] as TaskId, st.idle[l].take().expect("a ready lane is not held"))
                    }
                    Unit::Free(id) => (id, None),
                };
                st.attempts[id] += 1;
                let attempt = st.attempts[id];
                drop(st);
                notify(&mut wakes);

                let w = graph.worker(id);
                let start_ns = clock.now_ns();
                let task_ctx = ctx.get_or_insert_with(|| mk_ctx(w));
                // A panicking handler must not leave the other workers
                // waiting for ever: stop the run, then propagate.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run(graph.payload(id), w, task_ctx, attempt)
                }))
                .unwrap_or_else(|payload| {
                    finish(&mut sched.lock().unwrap());
                    std::panic::resume_unwind(payload)
                });
                let end_ns = clock.now_ns();
                let retrying = matches!(result, Err(TaskError::Transient(_)) if attempt < budget);
                if retrying {
                    // Back off, then run the task again: it has not
                    // completed, so it stays at its lane's head and no
                    // successor was released.
                    std::thread::sleep(Duration::from_micros(retry.backoff_us(attempt)));
                }

                st = sched.lock().unwrap();
                match result {
                    Ok(()) => {
                        // Only the final attempt's span is kept.
                        let span = &mut st.spans[id];
                        (span.start_ns, span.end_ns) = (start_ns, end_ns);
                        if let Unit::Lane(l) = unit {
                            st.heads[l] = after[id];
                        }
                        let mut released = None;
                        for s in graph.successors(id) {
                            st.indeg[s] -= 1;
                            if st.indeg[s] == 0 {
                                // Stamped under the lock, with the time the
                                // last dependency completed.
                                let ready_ns = *released.get_or_insert_with(|| clock.now_ns());
                                st.spans[s].ready_ns = ready_ns;
                                if let Some(srv) = st.release(s, lane_of(s)) {
                                    wakes[srv] += 1;
                                }
                            }
                        }
                        st.remaining -= 1;
                        if st.remaining == 0 {
                            finish(&mut st);
                        }
                    }
                    Err(_) if retrying => {}
                    Err(err) => {
                        // The first terminal error wins.
                        st.abort.get_or_insert(RunAbort {
                            task: id,
                            attempts: attempt,
                            budget_exhausted: matches!(err, TaskError::Transient(_)),
                            error: err.into_inner(),
                        });
                        finish(&mut st);
                    }
                }
                let again = match unit {
                    Unit::Lane(l) => {
                        st.idle[l] = Some(ctx);
                        st.heads[l] != NONE && st.indeg[st.heads[l] as usize] == 0
                    }
                    Unit::Free(_) => retrying,
                };
                if again {
                    st.ready[srv].push_front(unit);
                } else if wakes[srv] > 0 {
                    // This worker serves one of the units it made ready.
                    wakes[srv] -= 1;
                }
            }
        };

        // Named, so `/proc/<pid>/task/*` and samplers tell the pool
        // (`bst.w{i}`) from the lane with its own thread (`n{node}.l{lane}`).
        std::thread::scope(|scope| {
            let spawn = |name: String, srv: usize| {
                let work = &work;
                let thread = std::thread::Builder::new().name(name);
                thread.spawn_scoped(scope, move || work(srv)).expect("spawn an engine thread");
            };
            (0..threads).for_each(|i| spawn(format!("bst.w{i}"), POOL));
            if let Some(w) = self.own_thread {
                spawn(format!("n{}.l{}", w.node, w.lane), OWN);
            }
        });

        let st = sched.into_inner().unwrap();
        if let Some(abort) = st.abort {
            return Err(abort);
        }
        Ok(FallibleRun {
            attempts: st.attempts,
            trace: ExecTrace { spans: st.spans, total_ns: clock.now_ns() },
        })
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

/// The ready list of the pooled workers, and of the lane with its own thread.
const POOL: usize = 0;
const OWN: usize = 1;

/// No lane (an order-free task's), or no task (a lane's after its last).
const NONE: u32 = u32::MAX;

/// What a worker takes from a ready list: a lane, whose next task it runs,
/// or an order-free task.
#[derive(Clone, Copy)]
enum Unit {
    Lane(usize),
    Free(TaskId),
}

/// The scheduler state, behind one lock.
struct Sched<Ctx, E> {
    /// Per lane: the next task of its program ([`NONE`] after the last).
    heads: Vec<u32>,
    /// Per lane: its context while no worker holds it (`None` while held;
    /// the context travels with the lane, and is built on its first task),
    /// and its server ([`POOL`] or [`OWN`]).
    idle: Vec<Option<Option<Ctx>>>,
    server: Vec<usize>,
    /// Per server: the ready units no worker holds, FIFO.
    ready: [VecDeque<Unit>; 2],
    /// Per task: unfinished dependencies, handler attempts and span.
    indeg: Vec<u32>,
    attempts: Vec<u32>,
    spans: Vec<TaskSpan>,
    remaining: usize,
    /// All tasks completed, or the run aborted.
    done: bool,
    abort: Option<RunAbort<E>>,
}

impl<Ctx, E> Sched<Ctx, E> {
    /// Task `id` on lane `lane` (or [`NONE`]) had its last dependency
    /// complete: queues it if it may start now — an order-free task always,
    /// a lane's task if it is the lane's next and no worker holds the lane.
    /// Returns the server of the unit it queued.
    fn release(&mut self, id: TaskId, lane: u32) -> Option<usize> {
        let (unit, srv) = match lane as usize {
            _ if lane == NONE => (Unit::Free(id), POOL),
            l if self.heads[l] == id as u32 && self.idle[l].is_some() => {
                (Unit::Lane(l), self.server[l])
            }
            _ => return None,
        };
        self.ready[srv].push_back(unit);
        Some(srv)
    }
}

/// Adapts an infallible handler to the engine's fallible signature with an
/// uninhabited error type: `Engine::new().run(g, workers, mk_ctx,
/// infallible(|payload, worker, ctx| ...))`. The returned
/// [`RunAbort`]'s error is [`Infallible`], so `Err` arms can be discharged
/// with `match abort.error {}`.
pub fn infallible<P, Ctx, F>(
    run: F,
) -> impl Fn(&P, WorkerId, &mut Ctx, u32) -> Result<(), TaskError<Infallible>> + Sync
where
    F: Fn(&P, WorkerId, &mut Ctx) + Sync,
{
    move |p, w, ctx, _attempt| {
        run(p, w, ctx);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use proptest::prelude::*;

    impl Engine {
        /// This engine with a pool of `threads` workers instead of one per
        /// core: the crate-private way to size the pool.
        fn with_threads(self, threads: usize) -> Self {
            Self { threads, ..self }
        }
    }

    fn w(node: usize, lane: usize) -> WorkerId {
        WorkerId { node, lane }
    }

    /// A diamond DAG shared by the policy-combination tests; its left task
    /// is order-free.
    fn diamond() -> TaskGraph<u32> {
        let mut g: TaskGraph<u32> = TaskGraph::new();
        let src = g.add_task(0, w(0, 0));
        let l = g.add_task(1, WorkerId::any(0));
        g.add_dep(l, src);
        let r = g.add_task(2, w(1, 0));
        g.add_dep(r, src);
        let sink = g.add_task(3, w(0, 0));
        g.add_dep(sink, l);
        g.add_dep(sink, r);
        g
    }

    #[test]
    fn every_run_records_one_span_per_task() {
        let g = diamond();
        let run = Engine::new()
            .run(&g, &[w(0, 0), w(1, 0)], |_| (), |_, _, _, _| {
                Ok::<(), TaskError<Infallible>>(())
            })
            .unwrap();
        assert_eq!(run.attempts, vec![1; 4]);
        assert_eq!(run.trace.spans.len(), g.len());
        assert_eq!(run.trace.validate(&g), Vec::new());
    }

    #[test]
    fn caller_clock_timestamps_the_trace() {
        let clock = TraceClock::start();
        std::thread::sleep(Duration::from_millis(2));
        let g = diamond();
        let run = Engine::new()
            .with_clock(clock)
            .run(&g, &[w(0, 0), w(1, 0)], |_| (), |_, _, _, _| {
                Ok::<(), TaskError<Infallible>>(())
            })
            .unwrap();
        // Every span sits on the caller's epoch, so nothing can be earlier
        // than the sleep that preceded the run.
        for s in &run.trace.spans {
            assert!(s.ready_ns >= 2_000_000, "ready at {} ns", s.ready_ns);
        }
    }

    #[test]
    fn retried_task_keeps_one_span() {
        let g = diamond();
        let run = Engine::new()
            .with_retry(RetryOptions { budget: 4, backoff_base_us: 1, backoff_max_us: 5 })
            .run(&g, &[w(0, 0), w(1, 0)], |_| (), |&v, _, _, attempt| {
                if v == 1 && attempt <= 2 {
                    return Err(TaskError::Transient("flaky"));
                }
                Ok(())
            })
            .unwrap();
        assert_eq!(run.attempts[1], 3);
        assert_eq!(run.retried_tasks(), 1);
        assert_eq!(run.trace.validate(&g), Vec::new());
    }

    #[test]
    fn no_retry_policy_makes_transient_terminal() {
        let g = diamond();
        let abort = Engine::new()
            .run(&g, &[w(0, 0), w(1, 0)], |_| (), |&v, _, _, _| {
                if v == 0 {
                    return Err(TaskError::Transient("down"));
                }
                Ok(())
            })
            .expect_err("RetryOptions::none() gives one attempt");
        assert_eq!(abort.attempts, 1);
        assert!(abort.budget_exhausted);
        assert_eq!(abort.error, "down");
    }

    #[test]
    fn contexts_are_per_worker() {
        let mut g: TaskGraph<u64> = TaskGraph::new();
        for i in 0..100 {
            g.add_task(i, w(i as usize % 4, 0));
        }
        let sums = Mutex::new(std::collections::HashMap::new());
        Engine::new()
            .run(
                &g,
                &[w(0, 0), w(1, 0), w(2, 0), w(3, 0)],
                |_| 0u64,
                |&v, wid, acc, _| {
                    *acc += v;
                    sums.lock().insert(wid, *acc);
                    Ok::<(), TaskError<Infallible>>(())
                },
            )
            .unwrap();
        let total: u64 = sums.lock().values().sum();
        assert_eq!(total, (0..100).sum::<u64>());
    }

    /// Runs task 0 (on `wait`, which blocks until task 1 has run) and task
    /// 1 (on the CPU lane) with a pool of one worker, giving `wait` a
    /// thread of its own when `own` is set. Returns whether the run
    /// completed within `patience`; if not, opens the gate itself so the
    /// stuck run can finish.
    fn completes_within(own: bool, patience: Duration) -> bool {
        let wait = w(0, 9);
        let mut g: TaskGraph<u32> = TaskGraph::new();
        g.add_task(0, wait);
        g.add_task(1, w(0, 0));
        let gate = (std::sync::Mutex::new(false), Condvar::new());
        let open = || {
            *gate.0.lock().unwrap() = true;
            gate.1.notify_all();
        };
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                Engine::new()
                    .with_own_thread(own.then_some(wait))
                    .with_threads(1)
                    .run(&g, &[w(0, 0), wait], |_| (), |&v, _, _, _| {
                        if v == 0 {
                            let mut opened = gate.0.lock().unwrap();
                            while !*opened {
                                opened = gate.1.wait(opened).unwrap();
                            }
                        } else {
                            open();
                        }
                        Ok::<(), TaskError<Infallible>>(())
                    })
                    .unwrap();
                tx.send(()).unwrap();
            });
            let done = rx.recv_timeout(patience).is_ok();
            open();
            done
        })
    }

    #[test]
    fn a_lane_with_its_own_thread_may_block_on_the_pool() {
        assert!(completes_within(true, Duration::from_secs(30)));
        // Pooled, the blocking lane takes the one worker first and the
        // task it waits for never runs.
        assert!(!completes_within(false, Duration::from_millis(300)));
    }

    proptest! {
        /// Random cross-lane DAGs of lane-pinned and order-free tasks (no
        /// edge joins two tasks of one lane), on pools of one and two
        /// workers with more lanes than workers: every run completes, a
        /// lane's tasks never overlap and run in id order, no more
        /// order-free tasks run at once than there are workers, with two
        /// workers two of them do run at once, and the trace validates.
        #[test]
        fn pinned_lanes_run_in_id_order(
            n in 1usize..60,
            raw_edges in prop::collection::vec((0usize..1000, 0usize..1000), 0..120),
            lanes in 3usize..7,
            threads in 1usize..3,
            free_every in 2usize..6,
        ) {
            use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
            let workers: Vec<WorkerId> = (0..lanes).map(|l| w(l % 2, l)).collect();
            // Tasks 0 and 1 are order-free seeds that (on two workers) wait
            // for each other to start; the rest are pinned or order-free.
            let on = |i: usize| match i {
                0 | 1 => WorkerId::any(i),
                i if i % free_every == 0 => WorkerId::any(i % 2),
                i => workers[(i * 7 + i / 3) % lanes],
            };
            // The raw edges that cross lanes, declared task by task in the
            // order drawn.
            let mut deps: Vec<Vec<usize>> = vec![Vec::new(); n + 2];
            for &(a, b) in &raw_edges {
                let (x, y) = (2 + a % n, 2 + b % n);
                if x != y && (on(x) != on(y) || on(x).is_any()) {
                    deps[x.max(y)].push(x.min(y));
                }
            }
            let mut g: TaskGraph<usize> = TaskGraph::new();
            for (i, mine) in deps.iter().enumerate() {
                g.add_task(i, on(i));
                mine.iter().for_each(|&d| g.add_dep(i, d));
            }
            let busy: Vec<AtomicBool> = (0..lanes).map(|_| Default::default()).collect();
            let overlap = AtomicBool::new(false);
            let (free_now, free_max, met) = (AtomicUsize::new(0), AtomicUsize::new(0), AtomicUsize::new(0));
            let run = Engine::new()
                .with_threads(threads)
                .run(&g, &workers, |_| (), |&v, wid, _, _| {
                    if wid.is_any() {
                        free_max.fetch_max(free_now.fetch_add(1, SeqCst) + 1, SeqCst);
                        if v < 2 && threads > 1 {
                            met.fetch_add(1, SeqCst);
                            let deadline = std::time::Instant::now() + Duration::from_secs(5);
                            while met.load(SeqCst) < 2 && std::time::Instant::now() < deadline {
                                std::thread::yield_now();
                            }
                        }
                        std::thread::yield_now();
                        free_now.fetch_sub(1, SeqCst);
                    } else {
                        if busy[wid.lane].swap(true, SeqCst) {
                            overlap.store(true, SeqCst);
                        }
                        std::thread::yield_now();
                        busy[wid.lane].store(false, SeqCst);
                    }
                    Ok::<(), TaskError<Infallible>>(())
                })
                .unwrap();
            prop_assert!(!overlap.into_inner(), "two tasks of one lane overlapped");
            let free_max = free_max.into_inner();
            prop_assert!(free_max <= threads, "{free_max} order-free tasks on {threads} workers");
            if threads > 1 {
                prop_assert!(free_max > 1, "order-free tasks never overlapped on {threads} workers");
            }
            let errors = run.trace.validate(&g);
            prop_assert!(errors.is_empty(), "{errors:?}");
            // Each lane's tasks in id order: each ends before the next starts.
            let spans = &run.trace.spans;
            let mut ran: Vec<(WorkerId, TaskId)> =
                (0..g.len()).filter(|&t| !g.worker(t).is_any()).map(|t| (g.worker(t), t)).collect();
            ran.sort_unstable();
            for pair in ran.windows(2).filter(|p| p[0].0 == p[1].0) {
                let (a, b) = (spans[pair[0].1], spans[pair[1].1]);
                prop_assert!(a.end_ns <= b.start_ns, "{:?} ran out of id order", pair[0].0);
            }
        }
    }
}
