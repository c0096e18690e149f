//! The flat task graph against a naive adjacency list.

use bst_runtime::graph::{TaskGraph, TaskId, WorkerId};
use proptest::prelude::*;

fn w(node: usize) -> WorkerId {
    WorkerId { node, lane: 0 }
}

#[test]
#[should_panic(expected = "must follow it")]
fn deps_of_an_earlier_task_rejected() {
    let mut g: TaskGraph<u32> = TaskGraph::new();
    let a = g.add_task(0, w(0));
    let b = g.add_task(1, w(0));
    g.add_task(2, w(0));
    g.add_dep(b, a);
}

proptest! {
    /// Random DAGs, declared task by task: `deps` and `successors` equal a
    /// naive adjacency list, successors in ascending id, and a task added
    /// after the successor lists were built shows in them.
    #[test]
    fn flat_rows_match_a_naive_adjacency_list(
        raw in prop::collection::vec(prop::collection::vec(0usize..1000, 0..6), 1..60),
    ) {
        let mut g: TaskGraph<usize> = TaskGraph::new();
        let mut deps: Vec<Vec<TaskId>> = Vec::new();
        for (t, picks) in raw.iter().enumerate() {
            g.add_task(t, w(t % 2));
            let mine: Vec<TaskId> = picks.iter().filter(|_| t > 0).map(|p| p % t).collect();
            mine.iter().for_each(|&d| g.add_dep(t, d));
            deps.push(mine);
            if t == raw.len() / 2 {
                g.successors(0).count(); // built early, then rebuilt
            }
        }
        let mut succs: Vec<Vec<TaskId>> = vec![Vec::new(); deps.len()];
        for (t, ds) in deps.iter().enumerate() {
            ds.iter().for_each(|&d| succs[d].push(t));
        }
        for t in 0..g.len() {
            prop_assert_eq!(g.deps(t), &deps[t][..]);
            let got: Vec<TaskId> = g.successors(t).collect();
            prop_assert!(got.windows(2).all(|p| p[0] <= p[1]), "task {}: {:?}", t, got);
            prop_assert_eq!(got, succs[t].clone());
        }
    }
}
