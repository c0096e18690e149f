//! The single policy-driven execution engine.
//!
//! [`Engine::run`] is **one** scheduler, configured along three orthogonal
//! axes:
//!
//! * [`Tracer`] — whether task life-cycle events are recorded
//!   ([`NoTracer`] / [`Recorder`]); a compile-time choice, so the untraced
//!   path monomorphizes the recording away entirely;
//! * the clock — a [`TraceClock`]; a caller-supplied epoch lets handlers
//!   timestamp their own side channels (e.g. device-memory occupancy
//!   samples) on the engine's timeline;
//! * the retry options — per-task attempt budget and backoff applied to
//!   [`TaskError::Transient`] handler failures ([`RetryOptions::none`]
//!   makes every transient error terminal, which is how [`infallible`]
//!   handlers run).
//!
//! The axes are picked independently with [`Engine::tracing`],
//! [`Engine::with_clock`] and [`Engine::with_retry`], and every combination
//! reaches the same scheduler body.
//!
//! # Scheduler semantics
//!
//! One OS thread per worker; each worker pulls ready tasks from its own
//! FIFO; completing a task decrements the indegree of its successors,
//! enqueueing those that become ready onto *their* worker's FIFO. A
//! [`TaskError::Transient`] failure is retried on the task's own worker
//! after exponential backoff, re-enqueued onto the *back* of its FIFO
//! **without** completing — no successor is released early, every data and
//! control edge of the DAG still gates exactly as planned. A
//! [`TaskError::Fatal`] error (or an exhausted budget) poisons all queues
//! and surfaces as a [`RunAbort`]. Handler panics propagate after poisoning
//! the queues so no sibling worker deadlocks.

use crate::graph::{FallibleRun, RetryOptions, RunAbort, TaskError, TaskGraph, TaskId, WorkerId};
use crate::trace::{ExecTrace, TraceClock, TraceEvent, TracePhase, WorkerTrace};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::convert::Infallible;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Poison value signalling queue shutdown.
const DONE: TaskId = usize::MAX;

/// Tracing policy: whether the engine records task life-cycle events.
///
/// This is a compile-time marker — [`Engine::run`] monomorphizes over it, so
/// with [`NoTracer`] the recording code vanishes instead of branching per
/// event.
pub trait Tracer: Copy + Send + Sync {
    /// Whether events are recorded and a trace is returned.
    const ENABLED: bool;
}

/// No tracing: [`FallibleRun::trace`] is `None`. The default.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoTracer;

impl Tracer for NoTracer {
    const ENABLED: bool = false;
}

/// Record the full task life-cycle (ready → running → done, plus
/// failed/retried under faults) into per-worker, thread-owned buffers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Recorder;

impl Tracer for Recorder {
    const ENABLED: bool = true;
}

/// The policy-driven task-DAG execution engine — see the [module
/// docs](self) for what each policy controls.
///
/// Construction starts from [`Engine::new`] (untraced, wall clock, no
/// retries) and composes policies fluently:
///
/// ```
/// use bst_runtime::engine::Engine;
/// use bst_runtime::graph::{RetryOptions, TaskGraph, TaskError, WorkerId};
///
/// let mut g: TaskGraph<u32> = TaskGraph::new();
/// let w = WorkerId { node: 0, lane: 0 };
/// g.add_task(7, w);
/// let run = Engine::new()
///     .tracing()
///     .with_retry(RetryOptions::default())
///     .run(&g, &[w], |_| (), |&v, _, _, _| {
///         assert_eq!(v, 7);
///         Ok::<(), TaskError<String>>(())
///     })
///     .unwrap();
/// assert!(run.trace.is_some());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Engine<T = NoTracer> {
    tracer: PhantomData<T>,
    clock: TraceClock,
    retry: RetryOptions,
}

impl Engine {
    /// The default policy stack: no tracing, a wall clock started now, and
    /// no retries (every transient error is terminal).
    pub fn new() -> Self {
        Self {
            tracer: PhantomData,
            clock: TraceClock::start(),
            retry: RetryOptions::none(),
        }
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Engine<T> {
    /// This engine with life-cycle recording on ([`Recorder`]);
    /// [`FallibleRun::trace`] will be `Some`.
    pub fn tracing(self) -> Engine<Recorder> {
        Engine { tracer: PhantomData, clock: self.clock, retry: self.retry }
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
}

impl<T: Tracer> Engine<T> {
    /// Executes `graph` to completion under this engine's policies.
    ///
    /// * `workers` — every lane that tasks are pinned to (a task pinned to a
    ///   missing worker panics);
    /// * `mk_ctx` — builds the per-worker mutable context (e.g. a device
    ///   memory manager for GPU lanes);
    /// * `run` — the fallible task handler, called with the payload, the
    ///   worker id, the worker's context and the 1-based attempt number.
    ///
    /// Tasks run as soon as all their dependencies completed; tasks on the
    /// same worker run sequentially in ready order. See the [module
    /// docs](self) for retry and abort semantics.
    ///
    /// # Panics
    /// Propagates handler panics (a panic is not an error value); panics on
    /// duplicate workers or tasks pinned to unknown workers.
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
        let trace = T::ENABLED;
        let clock = self.clock;
        if graph.is_empty() {
            return Ok(FallibleRun {
                attempts: Vec::new(),
                trace: trace.then(ExecTrace::default),
            });
        }
        // Map workers to dense indices.
        let mut sorted = workers.to_vec();
        sorted.sort();
        sorted.windows(2).for_each(|w| {
            assert_ne!(w[0], w[1], "duplicate worker {:?}", w[0]);
        });
        let widx = |w: WorkerId| -> usize {
            sorted
                .binary_search(&w)
                .unwrap_or_else(|_| panic!("task pinned to unknown worker {w:?}"))
        };

        // Successor lists and indegrees.
        let mut succs: Vec<Vec<TaskId>> = vec![Vec::new(); graph.len()];
        let mut indeg: Vec<AtomicUsize> = Vec::with_capacity(graph.len());
        for id in 0..graph.len() {
            indeg.push(AtomicUsize::new(graph.deps(id).len()));
            for &d in graph.deps(id) {
                succs[d].push(id);
            }
        }

        let channels: Vec<(Sender<TaskId>, Receiver<TaskId>)> =
            (0..sorted.len()).map(|_| unbounded()).collect();
        let remaining = AtomicUsize::new(graph.len());
        let budget = self.retry.budget.max(1);
        let retry = self.retry;
        let attempts: Vec<AtomicU32> = (0..graph.len()).map(|_| AtomicU32::new(0)).collect();
        // First fatal / budget-exhausting error wins; later ones (from
        // workers draining their queues while the poison propagates) are
        // dropped.
        let abort: Mutex<Option<RunAbort<E>>> = Mutex::new(None);

        // Trace recording is strictly thread-owned: `seed_events` belongs to
        // this (submitting) thread, `bufs[i]` to worker thread i. Events of
        // a ready transition are recorded by whoever caused it, so no buffer
        // is ever shared and recording takes no locks.
        let mut seed_events: Vec<TraceEvent> = Vec::new();
        let mut bufs: Vec<Vec<TraceEvent>> = vec![Vec::new(); sorted.len()];

        // Seed initially-ready tasks.
        for id in 0..graph.len() {
            if graph.deps(id).is_empty() {
                if trace {
                    seed_events.push(TraceEvent {
                        task: id,
                        phase: TracePhase::Ready,
                        t_ns: clock.now_ns(),
                    });
                }
                channels[widx(graph.worker(id))].0.send(id).unwrap();
            }
        }

        std::thread::scope(|scope| {
            for ((wi, w), buf) in sorted.iter().enumerate().zip(bufs.iter_mut()) {
                let rx = channels[wi].1.clone();
                let channels = &channels;
                let succs = &succs;
                let indeg = &indeg;
                let remaining = &remaining;
                let run = &run;
                let mk_ctx = &mk_ctx;
                let widx = &widx;
                let attempts = &attempts;
                let abort = &abort;
                let w = *w;
                // Named, so `/proc/<pid>/task/*` and samplers attribute CPU to a lane.
                let lane = std::thread::Builder::new().name(format!("n{}.l{}", w.node, w.lane));
                let body = move || {
                    let mut ctx = mk_ctx(w);
                    while let Ok(id) = rx.recv() {
                        if id == DONE {
                            break;
                        }
                        let attempt = attempts[id].fetch_add(1, Ordering::Relaxed) + 1;
                        if trace {
                            buf.push(TraceEvent {
                                task: id,
                                phase: TracePhase::Running,
                                t_ns: clock.now_ns(),
                            });
                        }
                        // Panic safety: a panicking handler must not leave
                        // the other workers blocked on their queues forever;
                        // poison every queue, then propagate.
                        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                            || run(graph.payload(id), w, &mut ctx, attempt),
                        ));
                        let result = match outcome {
                            Ok(r) => r,
                            Err(payload) => {
                                for (tx, _) in channels.iter() {
                                    let _ = tx.send(DONE);
                                }
                                std::panic::resume_unwind(payload);
                            }
                        };
                        if let Err(err) = result {
                            if trace {
                                buf.push(TraceEvent {
                                    task: id,
                                    phase: TracePhase::Failed,
                                    t_ns: clock.now_ns(),
                                });
                            }
                            let transient = matches!(err, TaskError::Transient(_));
                            if transient && attempt < budget {
                                // Back off, then re-enqueue onto this
                                // worker's own FIFO. The task has not
                                // completed, so no successor indegree was
                                // touched: every data and control edge of
                                // the DAG still gates exactly as planned.
                                std::thread::sleep(Duration::from_micros(
                                    retry.backoff_us(attempt),
                                ));
                                if trace {
                                    buf.push(TraceEvent {
                                        task: id,
                                        phase: TracePhase::Retried,
                                        t_ns: clock.now_ns(),
                                    });
                                }
                                channels[wi].0.send(id).unwrap();
                            } else {
                                let mut slot = abort.lock().unwrap();
                                if slot.is_none() {
                                    *slot = Some(RunAbort {
                                        task: id,
                                        attempts: attempt,
                                        budget_exhausted: transient,
                                        error: err.into_inner(),
                                    });
                                }
                                drop(slot);
                                for (tx, _) in channels.iter() {
                                    let _ = tx.send(DONE);
                                }
                                break;
                            }
                            continue;
                        }
                        if trace {
                            buf.push(TraceEvent {
                                task: id,
                                phase: TracePhase::Done,
                                t_ns: clock.now_ns(),
                            });
                        }
                        for &s in &succs[id] {
                            if indeg[s].fetch_sub(1, Ordering::AcqRel) == 1 {
                                if trace {
                                    // The releasing worker logs the
                                    // successor's readiness into its own
                                    // buffer, keeping ownership strict.
                                    buf.push(TraceEvent {
                                        task: s,
                                        phase: TracePhase::Ready,
                                        t_ns: clock.now_ns(),
                                    });
                                }
                                channels[widx(graph.worker(s))].0.send(s).unwrap();
                            }
                        }
                        if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                            // Last task done: poison every queue so all
                            // workers (including this one) exit.
                            for (tx, _) in channels.iter() {
                                let _ = tx.send(DONE);
                            }
                            break;
                        }
                    }
                };
                lane.spawn_scoped(scope, body).expect("spawn a lane thread");
            }
        });

        if let Some(abort) = abort.into_inner().unwrap() {
            return Err(abort);
        }

        // All tasks must have completed.
        assert_eq!(
            remaining.load(Ordering::Acquire),
            0,
            "deadlock: tasks never became ready (cycle through control edges?)"
        );

        Ok(FallibleRun {
            attempts: attempts.iter().map(|a| a.load(Ordering::Relaxed)).collect(),
            trace: trace.then(|| ExecTrace {
                workers: sorted
                    .into_iter()
                    .zip(bufs)
                    .map(|(worker, events)| WorkerTrace { worker, events })
                    .collect(),
                seed_events,
                total_ns: clock.now_ns(),
            }),
        })
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

    fn w(node: usize, lane: usize) -> WorkerId {
        WorkerId { node, lane }
    }

    /// A diamond + chain DAG shared by the policy-combination tests.
    fn diamond() -> TaskGraph<u32> {
        let mut g: TaskGraph<u32> = TaskGraph::new();
        let src = g.add_task(0, w(0, 0));
        let l = g.add_task(1, w(0, 1));
        let r = g.add_task(2, w(1, 0));
        g.add_dep(l, src);
        g.add_dep(r, src);
        let sink = g.add_task(3, w(0, 0));
        g.add_dep(sink, l);
        g.add_dep(sink, r);
        g
    }

    #[test]
    fn untraced_run_has_no_trace() {
        let g = diamond();
        let run = Engine::new()
            .run(&g, &[w(0, 0), w(0, 1), w(1, 0)], |_| (), |_, _, _, _| {
                Ok::<(), TaskError<Infallible>>(())
            })
            .unwrap();
        assert!(run.trace.is_none());
        assert_eq!(run.attempts, vec![1; 4]);
    }

    #[test]
    fn traced_run_validates_and_counts() {
        let g = diamond();
        let run = Engine::new()
            .tracing()
            .run(&g, &[w(0, 0), w(0, 1), w(1, 0)], |_| (), |_, _, _, _| {
                Ok::<(), TaskError<Infallible>>(())
            })
            .unwrap();
        let trace = run.trace.expect("Recorder policy records");
        assert_eq!(trace.validate(&g), Vec::new());
        assert_eq!(trace.event_count(), 3 * g.len());
    }

    #[test]
    fn caller_clock_timestamps_the_trace() {
        let clock = TraceClock::start();
        std::thread::sleep(Duration::from_millis(2));
        let g = diamond();
        let run = Engine::new()
            .tracing()
            .with_clock(clock)
            .run(&g, &[w(0, 0), w(0, 1), w(1, 0)], |_| (), |_, _, _, _| {
                Ok::<(), TaskError<Infallible>>(())
            })
            .unwrap();
        let trace = run.trace.unwrap();
        // Every event sits on the caller's epoch, so nothing can be earlier
        // than the sleep that preceded the run.
        for (_, e) in trace.iter_events() {
            assert!(e.t_ns >= 2_000_000, "event at {} ns", e.t_ns);
        }
    }

    #[test]
    fn retry_policy_composes_with_tracing() {
        let g = diamond();
        let run = Engine::new()
            .tracing()
            .with_retry(RetryOptions { budget: 4, backoff_base_us: 1, backoff_max_us: 5 })
            .run(&g, &[w(0, 0), w(0, 1), w(1, 0)], |_| (), |&v, _, _, attempt| {
                if v == 1 && attempt <= 2 {
                    return Err(TaskError::Transient("flaky"));
                }
                Ok(())
            })
            .unwrap();
        assert_eq!(run.attempts[1], 3);
        assert_eq!(run.retried_tasks(), 1);
        let trace = run.trace.unwrap();
        assert_eq!(trace.validate(&g), Vec::new());
        assert_eq!(trace.task_attempts()[&1], 3);
    }

    #[test]
    fn no_retry_policy_makes_transient_terminal() {
        let g = diamond();
        let abort = Engine::new()
            .run(&g, &[w(0, 0), w(0, 1), w(1, 0)], |_| (), |&v, _, _, _| {
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
}
