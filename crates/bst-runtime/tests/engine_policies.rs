//! Policy gates for [`Engine::run`]: every clock / retry combination is
//! gated **byte-identical** against the plain stack on a deterministic
//! dataflow graph (every task's value is a pure function of its
//! dependencies' values), with every recorded trace invariant-clean, plus
//! one canary for the [`infallible`] handler adapter.

use std::sync::atomic::{AtomicU64, Ordering};

use bst_runtime::engine::{infallible, Engine};
use bst_runtime::graph::{RetryOptions, TaskError, TaskGraph, WorkerId};

/// A layered deterministic DAG: task `t`'s value is a pure fold of its
/// dependencies' values, so *any* valid schedule produces bit-identical
/// results — which is exactly what lets us gate the policy stacks
/// byte-for-byte.
fn build_graph() -> (TaskGraph<usize>, Vec<WorkerId>) {
    let workers: Vec<WorkerId> = (0..2)
        .flat_map(|node| (0..3).map(move |lane| WorkerId { node, lane }))
        .collect();
    let mut graph = TaskGraph::new();
    for t in 0..60usize {
        let id = graph.add_task(t, workers[t % workers.len()]);
        // A couple of cross-lane edges per task keeps every policy stack's
        // scheduler honest without serialising the graph.
        if t >= 1 {
            graph.add_dep(id, id - 1);
        }
        if t >= 7 {
            graph.add_dep(id, id - 7);
        }
    }
    (graph, workers)
}

/// The task body: fold the dependencies' results through a few
/// transcendental ops. Infallible form.
fn value_of(graph: &TaskGraph<usize>, out: &[AtomicU64], id: usize) -> f64 {
    let mut acc = 1.0f64 + id as f64;
    for &d in graph.deps(id) {
        acc += f64::from_bits(out[d].load(Ordering::SeqCst));
    }
    (acc.sqrt() + (id as f64).sin()).ln_1p()
}

fn bits(out: &[AtomicU64]) -> Vec<u64> {
    out.iter().map(|b| b.load(Ordering::SeqCst)).collect()
}

/// Whether this task fails (transiently) on its first attempt in the
/// fault-injected legs — deterministic in the task id.
fn faulty(id: usize) -> bool {
    id % 7 == 3
}

/// A shared clock is pure observation: the clocked policy stack produces
/// the same bytes as the plain stack, and both traces are invariant-clean.
#[test]
fn clock_policy_matches_plain_engine_byte_for_byte() {
    let (graph, workers) = build_graph();
    let n = graph.len();
    let run_with = |exec: &dyn Fn(&TaskGraph<usize>, &[AtomicU64])| {
        let out: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        exec(&graph, &out);
        bits(&out)
    };
    let plain = run_with(&|g, out| {
        let h = |&id: &usize, _w: WorkerId, _c: &mut (), _a: u32| {
            out[id].store(value_of(g, out, id).to_bits(), Ordering::SeqCst);
            Ok::<(), TaskError<std::convert::Infallible>>(())
        };
        let run = Engine::new().run(g, &workers, |_| (), h).unwrap();
        assert!(run.trace.validate(g).is_empty(), "plain run has violations");
        assert_eq!(run.trace.spans.len(), g.len());
    });

    let clocked = run_with(&|g, out| {
        let h = |&id: &usize, _w: WorkerId, _c: &mut (), _a: u32| {
            out[id].store(value_of(g, out, id).to_bits(), Ordering::SeqCst);
            Ok::<(), TaskError<std::convert::Infallible>>(())
        };
        let clock = bst_runtime::trace::TraceClock::start();
        let run = Engine::new().with_clock(clock).run(g, &workers, |_| (), h).unwrap();
        assert!(run.trace.validate(g).is_empty());
    });
    assert_eq!(plain, clocked, "shared-clock policy changed the bytes");
}

/// Canary for the [`infallible`] adapter: an infallible handler wrapped
/// through it must delegate to the same scheduler — byte-identical to an
/// explicit `Result`-returning handler on `Engine::new().run` over the
/// same graph.
#[test]
fn infallible_adapter_matches_explicit_handler() {
    let (graph, workers) = build_graph();
    let n = graph.len();

    let engine_out: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    {
        let (g, o) = (&graph, &engine_out);
        Engine::new()
            .run(
                g,
                &workers,
                |_| (),
                |&id: &usize, _w, _c: &mut (), _a| {
                    o[id].store(value_of(g, o, id).to_bits(), Ordering::SeqCst);
                    Ok::<(), TaskError<std::convert::Infallible>>(())
                },
            )
            .unwrap();
    }

    let adapted_out: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    {
        let (g, o) = (&graph, &adapted_out);
        match Engine::new().run(
            g,
            &workers,
            |_| (),
            infallible(|&id: &usize, _w, _c: &mut ()| {
                o[id].store(value_of(g, o, id).to_bits(), Ordering::SeqCst);
            }),
        ) {
            Ok(_) => (),
            Err(abort) => match abort.error {},
        }
    }
    assert_eq!(
        bits(&engine_out),
        bits(&adapted_out),
        "infallible() canary diverged from the explicit handler"
    );
}

/// Retry policy stacks: transient failures recover to the same bytes as a
/// fault-free run, with and without a shared clock, the retry counters
/// agree with the deterministic fault pattern, and the traces validate.
#[test]
fn retry_policy_stacks_recover_to_identical_bytes() {
    let (graph, workers) = build_graph();
    let n = graph.len();
    let retry = RetryOptions::default();

    // One shared fallible body: first attempt of a "faulty" task fails
    // transiently; the retry recomputes the identical value.
    type Body<'a> =
        &'a (dyn Fn(&usize, WorkerId, &mut (), u32) -> Result<(), TaskError<String>> + Sync);
    type Exec<'a> = &'a dyn Fn(&TaskGraph<usize>, &[AtomicU64], Body<'_>);
    let run_with = |exec: Exec<'_>| {
        let out: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let (g, o) = (&graph, &out);
        let body = move |&id: &usize, _w: WorkerId, _c: &mut (), attempt: u32| {
            if faulty(id) && attempt == 1 {
                return Err(TaskError::Transient(format!("task {id} flaked")));
            }
            o[id].store(value_of(g, o, id).to_bits(), Ordering::SeqCst);
            Ok(())
        };
        exec(&graph, &out, &body);
        bits(&out)
    };

    let expected_retries = (0..n).filter(|&t| faulty(t)).count() as u64;

    let plain_retry = run_with(&|g, _out, body| {
        let run = Engine::new()
            .with_retry(retry)
            .run(g, &workers, |_| (), body)
            .expect("transient faults must recover");
        assert_eq!(run.retried_tasks(), expected_retries);
        assert!(run.trace.validate(g).is_empty(), "faulted trace invalid");
    });

    let clocked_retry = run_with(&|g, _out, body| {
        let clock = bst_runtime::trace::TraceClock::start();
        let run = Engine::new()
            .with_clock(clock)
            .with_retry(retry)
            .run(g, &workers, |_| (), body)
            .expect("clocked retry stack must recover");
        assert!(run.trace.validate(g).is_empty());
    });
    assert_eq!(plain_retry, clocked_retry, "clock + retry changed the bytes");

    // A fault-free run of the same graph lands on the same bytes: retries
    // are pure re-execution, never a different computation.
    let fault_free = run_with(&|g, _out, body| {
        let wrapped = |id: &usize, w: WorkerId, c: &mut (), _a: u32| body(id, w, c, 2);
        Engine::new().run(g, &workers, |_| (), wrapped).unwrap();
    });
    assert_eq!(plain_retry, fault_free, "recovered bytes differ from fault-free");
}
