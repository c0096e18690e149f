//! Concurrency stress tests for the runtime substrate: the tile stores and
//! the engine under many workers and adversarial task shapes.

use bst_runtime::data::DataKey;
use bst_runtime::engine::{infallible, Engine};
use bst_runtime::graph::{TaskGraph, WorkerId};
use bst_runtime::trace::ExecTrace;
use bst_runtime::TileStore;
use bst_tile::Tile;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn w(node: usize, lane: usize) -> WorkerId {
    WorkerId { node, lane }
}

fn exec<T: Sync>(
    g: &TaskGraph<T>,
    workers: &[WorkerId],
    run: impl Fn(&T, WorkerId, &mut ()) + Sync,
) -> ExecTrace {
    match Engine::new().run(g, workers, |_| (), infallible(run)) {
        Ok(r) => r.trace,
        Err(abort) => match abort.error {},
    }
}

#[test]
fn tile_store_concurrent_producers_and_consumers() {
    // 8 threads produce disjoint keys with 3 consumers each; 3 x 8 threads
    // consume them. The store must end empty with correct peak accounting.
    let store = Arc::new(TileStore::for_node(0));
    let n_keys = 400usize;
    std::thread::scope(|scope| {
        for t in 0..8 {
            let store = store.clone();
            scope.spawn(move || {
                for i in (t..n_keys).step_by(8) {
                    store.put(DataKey::A(i as u32, 0), Arc::new(Tile::zeros(2, 2)), 3);
                }
            });
        }
    });
    assert_eq!(store.keys().len(), n_keys);
    let consumed = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..3 {
            for t in 0..8 {
                let store = store.clone();
                let consumed = &consumed;
                scope.spawn(move || {
                    for i in (t..n_keys).step_by(8) {
                        let key = DataKey::A(i as u32, 0);
                        let _tile = store.get(0, key);
                        store.consume(0, key);
                        consumed.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        }
    });
    assert_eq!(consumed.load(Ordering::Relaxed), 3 * n_keys);
    assert!(store.keys().is_empty(), "all tiles must be dropped");
    assert_eq!(store.current_bytes(), 0);
    assert_eq!(store.peak_bytes(), (n_keys * 32) as u64);
}

#[test]
fn engine_handles_wide_diamond_graphs() {
    // Repeated diamonds (1 -> 64 -> 1) across 16 workers: stresses the
    // ready-queue fan-out/fan-in paths.
    let mut g: TaskGraph<u32> = TaskGraph::new();
    let workers: Vec<WorkerId> = (0..4)
        .flat_map(|n| (0..4).map(move |l| w(n, l)))
        .collect();
    let mut join = g.add_task(0, w(0, 0));
    for round in 0..50u32 {
        let mids: Vec<_> = (0..64)
            .map(|i| {
                let t = g.add_task(round + 1, workers[i % 16]);
                g.add_dep(t, join);
                t
            })
            .collect();
        join = g.add_task(round + 1, w((round as usize) % 4, 0));
        for m in mids {
            g.add_dep(join, m);
        }
    }
    let count = AtomicUsize::new(0);
    exec(&g, &workers, |_, _, _| {
        count.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(count.load(Ordering::Relaxed), 1 + 50 * 65);
}

/// The diamond stress shape again, but traced: the trace must stay valid
/// under heavy fan-out/fan-in contention and carry exactly 3 events/task.
#[test]
fn traced_wide_diamond_graphs_stay_valid() {
    let mut g: TaskGraph<u32> = TaskGraph::new();
    let workers: Vec<WorkerId> = (0..4)
        .flat_map(|n| (0..4).map(move |l| w(n, l)))
        .collect();
    let mut join = g.add_task(0, w(0, 0));
    for round in 0..20u32 {
        let mids: Vec<_> = (0..64)
            .map(|i| {
                let t = g.add_task(round + 1, workers[i % 16]);
                g.add_dep(t, join);
                t
            })
            .collect();
        join = g.add_task(round + 1, w((round as usize) % 4, 0));
        for m in mids {
            g.add_dep(join, m);
        }
    }
    let count = AtomicUsize::new(0);
    let trace = exec(&g, &workers, |_, _, _| {
        count.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(count.load(Ordering::Relaxed), g.len());
    assert_eq!(trace.spans.len(), g.len());
    let errors = trace.validate(&g);
    assert!(errors.is_empty(), "{errors:?}");
}

/// A panicking handler must still tear a wide execution down cleanly (no
/// worker left waiting for a task that will never complete).
#[test]
#[should_panic(expected = "boom at 150")]
fn traced_stress_panic_still_propagates() {
    let mut g: TaskGraph<usize> = TaskGraph::new();
    let workers: Vec<WorkerId> = (0..6).map(|l| w(0, l)).collect();
    let root = g.add_task(0, workers[0]);
    for i in 1..300 {
        let t = g.add_task(i, workers[i % 6]);
        g.add_dep(t, root);
    }
    exec(&g, &workers, |v, _, _| {
        if *v == 150 {
            panic!("boom at 150");
        }
    });
}

#[test]
fn engine_many_executions_reuse_graph() {
    // The same graph must be executable repeatedly (it is immutable).
    let mut g: TaskGraph<usize> = TaskGraph::new();
    let a = g.add_task(1, w(0, 0));
    let b = g.add_task(2, w(1, 0));
    g.add_dep(b, a);
    for _ in 0..200 {
        let sum = AtomicUsize::new(0);
        exec(&g, &[w(0, 0), w(1, 0)], |&v, _, _| {
            sum.fetch_add(v, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 3);
    }
}
