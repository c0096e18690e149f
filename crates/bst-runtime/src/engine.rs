//! The single policy-driven execution engine.
//!
//! [`Engine::run`] is **one** scheduler, configured along two orthogonal
//! axes:
//!
//! * the clock — a [`TraceClock`] that timestamps every task's span; a
//!   caller-supplied epoch lets handlers timestamp their own side channels
//!   (e.g. device-memory occupancy samples) on the engine's timeline;
//! * the retry options — per-task attempt budget and backoff applied to
//!   [`TaskError::Transient`] handler failures ([`RetryOptions::none`]
//!   makes every transient error terminal, which is how [`infallible`]
//!   handlers run).
//!
//! The axes are picked independently with [`Engine::with_clock`] and
//! [`Engine::with_retry`]; every combination reaches one body. Every run
//! records each task's [`TaskSpan`] ([`FallibleRun::trace`]).
//!
//! # Scheduler semantics
//!
//! Lanes are programs, cores are threads. A lane ([`WorkerId`]) runs its
//! tasks in task id order, each once its own dependencies are done, so the
//! graph needs no edge between two tasks of one lane. One process-wide pool
//! of workers, one per core (`bst.w{i}`), started on first use and kept for
//! the life of the process, serves every lane of every run registered with
//! it, unit by unit: a worker takes a ready lane (one whose next task
//! may start) that no other worker holds, runs that task, and keeps the
//! lane while its next task may start, else takes the next ready lane in
//! FIFO order or sleeps until one becomes ready. A lane's context travels
//! with it. A task pinned to [`WorkerId::any`] is order-free: any pooled
//! worker runs it when it is ready, beside any other, with a context of its
//! own.
//!
//! An *arrival* task ([`Engine::run_with`]) is order-free, and no worker
//! runs it: it completes on the spot once its dependencies are done and
//! code outside the pool has retired it ([`Arrivals::retire`]) — a datum
//! that landed from another node. Its span runs from its last dependency's
//! completion to that moment.
//!
//! As every dependency points to a smaller id, the smallest unfinished task
//! may always start, or is an arrival awaiting the outside: deadlock is
//! structural, provided a pooled task blocks only on a thread outside the
//! pool (a progress or pump thread) and every arrival is retired by such a
//! thread. No pooled task waits for an arrival; only its successors do.
//!
//! A [`TaskError::Transient`] failure is retried after exponential backoff
//! **without** completing: the task stays at its lane's head, no successor
//! is released early, and every edge of the DAG still gates exactly as
//! planned. A [`TaskError::Fatal`] error (or an exhausted budget) stops the
//! run and surfaces as a [`RunAbort`]. A panic on a worker, the handler's
//! or the engine's own, stops the run and propagates on the submitting
//! thread; the worker serves on.

use crate::graph::{FallibleRun, RetryOptions, RunAbort, TaskError, TaskGraph, TaskId, WorkerId};
use crate::trace::{ExecTrace, TaskSpan, TraceClock};
use std::any::Any;
use std::collections::VecDeque;
use std::convert::Infallible;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

mod pool;
use pool::{Job, Lease, Pool};

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
}

impl Engine {
    /// The default policy stack: a wall clock started now, and no retries
    /// (every transient error is terminal).
    pub fn new() -> Self {
        Self {
            clock: TraceClock::start(),
            retry: RetryOptions::none(),
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

    /// Executes `graph` to completion under this engine's policies, on
    /// the process-wide pool of workers, one per core:
    /// [`Engine::run_with`] with no arrival tasks.
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
    /// pool. See the [module docs](self) for retry and abort semantics.
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
        self.run_with(graph, workers, &[], mk_ctx, run, |_| {})
    }

    /// [`Engine::run`] with arrival tasks, and `outside` running beside the
    /// pool on the calling thread.
    ///
    /// Each task of `arrivals` (order-free, [`WorkerId::any`]) is never run
    /// by a worker: it completes on the spot once its dependencies are done
    /// and `outside`, or a thread it started, has retired it through the
    /// [`Arrivals`] handle. `outside` must see to it that every arrival is
    /// retired, then wait for the run ([`Arrivals::wait_finished`]) before
    /// stopping what it started; the run returns once `outside` did. An
    /// arrival's attempt count is 1.
    ///
    /// # Panics
    /// As [`Engine::run`], and propagates a panic of `outside` (after
    /// stopping the run); panics on an arrival pinned to a lane.
    pub fn run_with<P, Ctx, E, F, M, O>(
        &self,
        graph: &TaskGraph<P>,
        workers: &[WorkerId],
        arrivals: &[TaskId],
        mk_ctx: M,
        run: F,
        outside: O,
    ) -> Result<FallibleRun, RunAbort<E>>
    where
        P: Sync,
        Ctx: Send,
        E: Send,
        M: Fn(WorkerId) -> Ctx + Sync,
        F: Fn(&P, WorkerId, &mut Ctx, u32) -> Result<(), TaskError<E>> + Sync,
        O: FnOnce(&Arrivals<'_>),
    {
        self.run_in(pool::global(), graph, workers, arrivals, mk_ctx, run, outside)
    }

    /// [`Engine::run_with`] on the workers of `pool`.
    #[allow(clippy::too_many_arguments)]
    fn run_in<P, Ctx, E, F, M, O>(
        &self,
        pool: &'static Pool,
        graph: &TaskGraph<P>,
        workers: &[WorkerId],
        arrivals: &[TaskId],
        mk_ctx: M,
        handler: F,
        outside: O,
    ) -> Result<FallibleRun, RunAbort<E>>
    where
        P: Sync,
        Ctx: Send,
        E: Send,
        M: Fn(WorkerId) -> Ctx + Sync,
        F: Fn(&P, WorkerId, &mut Ctx, u32) -> Result<(), TaskError<E>> + Sync,
        O: FnOnce(&Arrivals<'_>),
    {
        let clock = self.clock;
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
        let mut by = vec![By::Worker; graph.len()];
        for &id in arrivals {
            assert!(graph.worker(id).is_any(), "arrival task {id} pinned to a lane");
            by[id] = By::Arrival { landed: false };
        }
        // Each lane's program, chained in id order: `heads[l]` is lane `l`'s
        // first task, `after[id]` the task its lane runs after `id`.
        let (mut after, mut heads) = (vec![NONE; graph.len()], vec![NONE; sorted.len()]);
        for id in (0..graph.len()).rev() {
            let l = lane_index[graph.lane(id)] as usize;
            if l != NONE as usize {
                (after[id], heads[l]) = (heads[l], id as u32);
            }
        }

        let mut sched = Sched {
            lane_index,
            after,
            clock,
            heads,
            held: vec![false; sorted.len()],
            ready: VecDeque::new(),
            indeg: (0..graph.len()).map(|id| graph.deps(id).len() as u32).collect(),
            by,
            attempts: vec![0; graph.len()],
            spans: vec![TaskSpan::default(); graph.len()],
            remaining: graph.len(),
            done: graph.is_empty(),
            abort: None,
            panic: None,
        };
        // The seed tasks are ready from the start.
        let seeded = clock.now_ns();
        for id in (0..graph.len()).filter(|&id| graph.deps(id).is_empty()) {
            sched.spans[id].ready_ns = seeded;
            sched.release(graph, id);
        }
        let run = Run {
            graph,
            sched: Mutex::new(sched),
            ctxs: (0..sorted.len()).map(|_| Mutex::new(None)).collect(),
            mk_ctx,
            handler,
            retry: self.retry,
            clock,
        };

        // The lease waits for the run as it drops, on every path.
        let outside_panic = pool.serve(&run, |lease| {
            let retire = |id: TaskId| {
                let mut st = run.lock();
                let wakes = st.land(graph, id);
                let done = st.done;
                drop(st);
                pool.wake(wakes);
                if done {
                    lease.done();
                }
            };
            let arrivals = Arrivals { retire: &retire, lease };
            let outside =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| outside(&arrivals)));
            if outside.is_err() {
                run.lock().done = true;
            }
            outside.err()
        });

        let st = run.sched.into_inner().unwrap_or_else(PoisonError::into_inner);
        if let Some(panic) = st.panic.or(outside_panic) {
            std::panic::resume_unwind(panic);
        }
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

/// What code outside the pool holds during [`Engine::run_with`]: the way
/// to retire arrival tasks, and to wait for the run. Once the run finished
/// or aborted, retiring does nothing.
pub struct Arrivals<'a> {
    retire: &'a (dyn Fn(TaskId) + Sync),
    lease: &'a Lease,
}

impl Arrivals<'_> {
    /// Arrival task `id`'s datum landed: the task completes now if its
    /// dependencies are done, else as soon as they are. Retiring a task
    /// that is no arrival, or one already retired, does nothing.
    pub fn retire(&self, id: TaskId) {
        (self.retire)(id)
    }

    /// Blocks until the run has finished or aborted and no worker is still
    /// inside it.
    pub fn wait_finished(&self) {
        self.lease.wait()
    }
}

/// No lane (an order-free task's), or no task (a lane's after its last).
const NONE: u32 = u32::MAX;

/// What a worker takes from the ready list: a lane, whose next task it
/// runs, or an order-free task.
#[derive(Clone, Copy)]
enum Unit {
    Lane(usize),
    Free(TaskId),
}

/// A unit a worker took: its task and the task's attempt number.
struct Taken {
    unit: Unit,
    id: TaskId,
    attempt: u32,
}

/// What completes a task: a worker running it, or, for an arrival, its
/// datum having `landed` once its dependencies are done.
#[derive(Clone, Copy, PartialEq, Eq)]
enum By {
    Worker,
    Arrival { landed: bool },
}

/// One run of [`Engine::run_with`], as the pool's workers serve it.
struct Run<'g, P, Ctx, E, F, M> {
    graph: &'g TaskGraph<P>,
    sched: Mutex<Sched<E>>,
    /// Per lane: its context, built on its first task. Only the worker
    /// holding the lane locks it, so the context travels with the lane.
    ctxs: Vec<Mutex<Option<Ctx>>>,
    mk_ctx: M,
    handler: F,
    retry: RetryOptions,
    clock: TraceClock,
}

impl<P, Ctx, E, F, M> Run<'_, P, Ctx, E, F, M> {
    // A panic under the lock ends the run (`Job::panicked`), so the state
    // it left is only read for `done` and the panic.
    fn lock(&self) -> MutexGuard<'_, Sched<E>> {
        self.sched.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<P, Ctx, E, F, M> Job for Run<'_, P, Ctx, E, F, M>
where
    P: Sync,
    Ctx: Send,
    E: Send,
    M: Fn(WorkerId) -> Ctx + Sync,
    F: Fn(&P, WorkerId, &mut Ctx, u32) -> Result<(), TaskError<E>> + Sync,
{
    fn take(&self) -> Option<Taken> {
        let mut st = self.lock();
        if st.done {
            return None;
        }
        let unit = st.ready.pop_front()?;
        Some(st.start(unit))
    }

    fn panicked(&self, panic: Box<dyn Any + Send>) {
        let mut st = self.lock();
        st.panic.get_or_insert(panic);
        st.done = true;
    }

    fn done(&self) -> bool {
        self.lock().done
    }

    // A worker keeps the lane while its next task may start; a task that
    // failed transiently is retried by the same worker after its backoff.
    fn run(&self, mut t: Taken, pool: &Pool) -> usize {
        let budget = self.retry.budget.max(1);
        loop {
            let w = self.graph.worker(t.id);
            let start_ns = self.clock.now_ns();
            let payload = self.graph.payload(t.id);
            let result = match t.unit {
                Unit::Lane(l) => {
                    let mut ctx = self.ctxs[l].lock().expect("a lane's context has one holder");
                    let ctx = ctx.get_or_insert_with(|| (self.mk_ctx)(w));
                    (self.handler)(payload, w, ctx, t.attempt)
                }
                Unit::Free(_) => (self.handler)(payload, w, &mut (self.mk_ctx)(w), t.attempt),
            };
            let end_ns = self.clock.now_ns();
            let retrying = matches!(result, Err(TaskError::Transient(_)) if t.attempt < budget);
            if retrying {
                // Back off, then run the task again: it has not
                // completed, so it stays at its lane's head and no
                // successor was released.
                std::thread::sleep(Duration::from_micros(self.retry.backoff_us(t.attempt)));
            }

            let mut st = self.lock();
            let mut wakes = 0;
            match result {
                Ok(()) => {
                    // Only the final attempt's span is kept.
                    let span = &mut st.spans[t.id];
                    (span.start_ns, span.end_ns) = (start_ns, end_ns);
                    if let Unit::Lane(l) = t.unit {
                        st.heads[l] = st.after[t.id];
                    }
                    wakes = st.complete(self.graph, t.id);
                }
                Err(_) if retrying => {}
                Err(err) => {
                    // The first terminal error wins.
                    st.abort.get_or_insert(RunAbort {
                        task: t.id,
                        attempts: t.attempt,
                        budget_exhausted: matches!(err, TaskError::Transient(_)),
                        error: err.into_inner(),
                    });
                    st.done = true;
                }
            }
            let again = !st.done
                && match t.unit {
                    Unit::Lane(l) => st.heads[l] != NONE && st.indeg[st.heads[l] as usize] == 0,
                    Unit::Free(_) => retrying,
                };
            if !again {
                if let Unit::Lane(l) = t.unit {
                    st.held[l] = false;
                }
                // This worker serves one of the units it made ready.
                return wakes.saturating_sub(1);
            }
            t = st.start(t.unit);
            drop(st);
            pool.wake(wakes);
        }
    }
}

/// The scheduler state of a run, behind one lock.
struct Sched<E> {
    /// Per distinct worker of the graph: its lane's index ([`NONE`] if
    /// order-free); per task: the next task of its lane's program.
    lane_index: Vec<u32>,
    after: Vec<u32>,
    clock: TraceClock,
    /// Per lane: the next task of its program ([`NONE`] after the last),
    /// and whether a worker holds the lane.
    heads: Vec<u32>,
    held: Vec<bool>,
    /// The ready units no worker holds, FIFO.
    ready: VecDeque<Unit>,
    /// Per task: unfinished dependencies, what completes it, handler
    /// attempts and span.
    indeg: Vec<u32>,
    by: Vec<By>,
    attempts: Vec<u32>,
    spans: Vec<TaskSpan>,
    remaining: usize,
    /// All tasks completed, or the run aborted or panicked.
    done: bool,
    abort: Option<RunAbort<E>>,
    /// A panic of the run (its handler's, say), which the submitter
    /// propagates.
    panic: Option<Box<dyn Any + Send>>,
}

impl<E> Sched<E> {
    /// A worker takes `unit`: holds its lane, and counts an attempt of its
    /// task.
    fn start(&mut self, unit: Unit) -> Taken {
        let id = match unit {
            Unit::Lane(l) => {
                self.held[l] = true;
                self.heads[l] as TaskId
            }
            Unit::Free(id) => id,
        };
        self.attempts[id] += 1;
        Taken { unit, id, attempt: self.attempts[id] }
    }

    /// Task `id` completed: releases each successor whose last dependency
    /// it was, stamped with the time. Returns how many units it queued.
    fn complete<P>(&mut self, graph: &TaskGraph<P>, id: TaskId) -> usize {
        let mut now = None;
        let mut queued = 0;
        for s in graph.successors(id) {
            self.indeg[s] -= 1;
            if self.indeg[s] == 0 {
                // Stamped under the lock, with the time the last dependency
                // completed.
                self.spans[s].ready_ns = *now.get_or_insert_with(|| self.clock.now_ns());
                if self.by[s] != By::Worker {
                    // A landed arrival completes in `release`, later than
                    // `now`, and may be another successor's dependency.
                    now = None;
                }
                queued += self.release(graph, s);
            }
        }
        self.remaining -= 1;
        self.done |= self.remaining == 0;
        queued
    }

    /// Task `id`'s dependencies are done: queues it if it may start now —
    /// an order-free task always, a lane's task if it is the lane's next
    /// and no worker holds the lane — and completes a landed arrival on the
    /// spot. Returns how many units it queued.
    fn release<P>(&mut self, graph: &TaskGraph<P>, id: TaskId) -> usize {
        let unit = match (self.by[id], self.lane_index[graph.lane(id)] as usize) {
            (By::Arrival { landed: false }, _) => return 0,
            (By::Arrival { landed: true }, _) => {
                let span = &mut self.spans[id];
                (span.start_ns, span.end_ns) = (span.ready_ns, self.clock.now_ns());
                self.attempts[id] = 1;
                return self.complete(graph, id);
            }
            (By::Worker, l) if l == NONE as usize => Unit::Free(id),
            (By::Worker, l) if self.heads[l] == id as u32 && !self.held[l] => Unit::Lane(l),
            _ => return 0,
        };
        self.ready.push_back(unit);
        1
    }

    /// Arrival `id`'s datum landed (see [`Arrivals::retire`]). Returns how
    /// many units it queued.
    fn land<P>(&mut self, graph: &TaskGraph<P>, id: TaskId) -> usize {
        if self.done || self.by.get(id) != Some(&By::Arrival { landed: false }) {
            return 0;
        }
        self.by[id] = By::Arrival { landed: true };
        if self.indeg[id] == 0 {
            self.release(graph, id)
        } else {
            0
        }
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

    /// A pool of `threads` (1 or 2) workers of its own instead of one per
    /// core, shared by the tests that ask for that size.
    fn private(threads: usize) -> &'static Pool {
        use std::sync::OnceLock;
        static POOLS: [OnceLock<Pool>; 2] = [OnceLock::new(), OnceLock::new()];
        pool::started(&POOLS[threads - 1], threads)
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

    /// On a pool of one worker, a lane task waiting on an arrival completes
    /// once an outside thread retires the arrival, which it does only after
    /// another pooled task has run: the arrival holds no worker meanwhile.
    #[test]
    fn an_arrival_retired_from_outside_releases_its_successor() {
        let mut g: TaskGraph<u32> = TaskGraph::new();
        let arrival = g.add_task(0, WorkerId::any(0));
        let other = g.add_task(1, w(0, 0));
        let waiter = g.add_task(2, w(0, 1));
        g.add_dep(waiter, arrival);
        let (tx, rx) = std::sync::mpsc::channel();
        let run = Engine::new()
            .run_in(
                private(1),
                &g,
                &[w(0, 0), w(0, 1)],
                &[arrival],
                |_| (),
                |&v, _, _, _| {
                    assert_ne!(v, 0, "a worker ran an arrival");
                    if v == 1 {
                        tx.send(()).unwrap();
                    }
                    Ok::<(), TaskError<Infallible>>(())
                },
                |arrivals| {
                    arrivals.retire(other); // no arrival: nothing happens
                    rx.recv().unwrap();
                    arrivals.retire(arrival);
                    arrivals.retire(arrival); // retired already: nothing happens
                    arrivals.wait_finished();
                    arrivals.retire(arrival); // after the run: nothing happens
                },
            )
            .unwrap();
        // `other`'s handler signals the outside thread while it runs.
        let s = &run.trace.spans;
        assert!(s[other].start_ns <= s[arrival].end_ns, "the arrival completed before it landed");
        assert!(s[arrival].end_ns <= s[waiter].start_ns);
        assert_eq!(run.attempts, vec![1; 3]);
        assert_eq!(run.trace.validate(&g), Vec::new());
    }

    /// Runs outlive no worker: across 20 sequential runs, every task runs on
    /// one of the process's pool-size `bst.w*` workers.
    #[test]
    fn sequential_runs_reuse_the_pool_workers() {
        let mut g: TaskGraph<u32> = TaskGraph::new();
        for i in 0..8 {
            g.add_task(i, if i % 2 == 0 { WorkerId::any(0) } else { w(0, i as usize % 3) });
        }
        let ran = Mutex::new(std::collections::HashSet::new());
        for _ in 0..20 {
            let lanes = [w(0, 1), w(0, 2), w(0, 0)];
            Engine::new()
                .run(&g, &lanes, |_| (), |_, _, _, _| {
                    let me = std::thread::current();
                    assert!(me.name().is_some_and(|n| n.starts_with("bst.w")), "{:?}", me.name());
                    ran.lock().insert(me.id());
                    std::thread::yield_now();
                    Ok::<(), TaskError<Infallible>>(())
                })
                .unwrap();
        }
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let ran = ran.into_inner().len();
        assert!(ran <= cores, "{ran} threads ran the tasks of 20 runs on {cores} cores");
    }

    /// A panic on a worker reaches the submitter with its own message, be
    /// it the handler's or the engine's own (dropping a retried task's
    /// error), and the pool's one worker serves the next run.
    #[test]
    fn a_panic_propagates_and_the_pool_serves_on() {
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
        #[derive(Debug)]
        struct Bomb;
        impl Drop for Bomb {
            fn drop(&mut self) {
                panic!("dropping the error panics");
            }
        }
        let g = diamond();
        let lanes = [w(0, 0), w(1, 0)];
        let (step, ran_on) = (AtomicUsize::new(0), Mutex::new(Vec::new()));
        let handler = |&v: &u32, _: WorkerId, _: &mut (), _: u32| {
            ran_on.lock().push(std::thread::current().id());
            match (step.load(SeqCst), v) {
                (0, 2) => panic!("task 2 panics"),
                (1, 2) => Err(TaskError::Transient(Bomb)),
                _ => Ok(()),
            }
        };
        let retry = RetryOptions { budget: 2, backoff_base_us: 0, backoff_max_us: 0 };
        let engine = Engine::new().with_retry(retry);
        let run = || engine.run_in(private(1), &g, &lanes, &[], |_| (), handler, |_| {});
        for want in ["task 2 panics", "dropping the error panics"] {
            let panic =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).expect_err(want);
            assert_eq!(panic.downcast_ref::<&str>(), Some(&want));
            step.fetch_add(1, SeqCst);
        }
        assert_eq!(run().ok().map(|r| r.attempts), Some(vec![1; 4]));
        let ran_on = ran_on.into_inner();
        assert!(ran_on.windows(2).all(|p| p[0] == p[1]), "one worker ran every run");
    }

    /// Two runs submitted from two threads share a one-worker pool: the
    /// first holds the worker in a task that waits until the second's
    /// `outside`, on its submitting thread, releases it; both complete.
    #[test]
    fn concurrent_runs_share_one_worker() {
        use std::sync::mpsc;
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel::<&str>();
        let release_rx = std::sync::Mutex::new(release_rx);
        let blocked = std::thread::spawn({
            let done_tx = done_tx.clone();
            move || {
                let mut g: TaskGraph<u32> = TaskGraph::new();
                let hold = g.add_task(0, w(0, 0));
                let next = g.add_task(1, WorkerId::any(0));
                g.add_dep(next, hold);
                let hold_then_go = |&v: &u32, _: WorkerId, _: &mut (), _: u32| {
                    if v == 0 {
                        started_tx.send(()).unwrap();
                        release_rx.lock().unwrap().recv().unwrap();
                    }
                    Ok::<(), TaskError<Infallible>>(())
                };
                let lanes = [w(0, 0)];
                let run =
                    Engine::new().run_in(private(1), &g, &lanes, &[], |_| (), hold_then_go, |_| {});
                assert_eq!(run.unwrap().attempts, vec![1; 2]);
                done_tx.send("blocked").unwrap();
            }
        });
        let other = std::thread::spawn(move || {
            started_rx.recv().unwrap();
            let g = diamond();
            let go = |_: &u32, _: WorkerId, _: &mut (), _: u32| Ok::<(), TaskError<Infallible>>(());
            let lanes = [w(0, 0), w(1, 0)];
            let run = Engine::new().run_in(private(1), &g, &lanes, &[], |_| (), go, |outside| {
                release_tx.send(()).unwrap();
                outside.wait_finished();
            });
            assert_eq!(run.unwrap().attempts, vec![1; 4]);
            done_tx.send("other").unwrap();
        });
        let mut done: Vec<&str> = (0..2)
            .map(|_| done_rx.recv_timeout(Duration::from_secs(20)).expect("both runs complete"))
            .collect();
        done.sort_unstable();
        assert_eq!(done, ["blocked", "other"]);
        blocked.join().unwrap();
        other.join().unwrap();
    }

    proptest! {
        /// Random cross-lane DAGs of lane-pinned, order-free and arrival
        /// tasks (no edge joins two tasks of one lane), on pools of one and
        /// two workers with more lanes than workers, an outside thread
        /// retiring the arrivals in a seeded random order: every run
        /// completes, no worker runs an arrival, a lane's tasks never
        /// overlap and run in id order, no more order-free tasks run at
        /// once than there are workers, with two workers two of them do
        /// run at once, and the trace validates.
        #[test]
        fn pinned_lanes_run_in_id_order(
            n in 1usize..60,
            raw_edges in prop::collection::vec((0usize..1000, 0usize..1000), 0..120),
            lanes in 3usize..7,
            threads in 1usize..3,
            free_every in 2usize..6,
            arrive_every in 2usize..7,
            order_seed in 0u64..u64::MAX,
        ) {
            use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
            let workers: Vec<WorkerId> = (0..lanes).map(|l| w(l % 2, l)).collect();
            // Tasks 0 and 1 are order-free seeds that (on two workers) wait
            // for each other to start; the rest are arrivals, pinned or
            // order-free.
            let arrives = |i: usize| i > 1 && i % arrive_every == 1;
            let on = |i: usize| match i {
                0 | 1 => WorkerId::any(i),
                i if arrives(i) => WorkerId::any(i % 2),
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
            let mut arrivals: Vec<TaskId> = (0..g.len()).filter(|&i| arrives(i)).collect();
            // Fisher-Yates under a SplitMix64 stream: the retiring order.
            let mut z = order_seed;
            for i in (1..arrivals.len()).rev() {
                z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let r = (z ^ (z >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                arrivals.swap(i, (r % (i as u64 + 1)) as usize);
            }
            let ran_arrival = AtomicBool::new(false);
            let run = Engine::new()
                .run_in(private(threads), &g, &workers, &arrivals, |_| (), |&v, wid, _, _| {
                    if arrives(v) {
                        ran_arrival.store(true, SeqCst);
                    }
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
                }, |outside| {
                    for &id in &arrivals {
                        outside.retire(id);
                        std::thread::yield_now();
                    }
                    outside.wait_finished();
                })
                .unwrap();
            prop_assert!(!ran_arrival.into_inner(), "a worker ran an arrival");
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
