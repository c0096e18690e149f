//! End-to-end tests of the transport's collectives over the real
//! `bst-comm` transport: the one-hop A broadcast from each tile's owner, C
//! staying on the rank that folded it, and the per-link-class windows and
//! shapers of the node-aware topology.

use bst_contract::engine::execute;
use bst_contract::engine::inspector::lower;
use bst_contract::{
    DeviceConfig, ExecOptions, ExecReport, ExecutionPlan, GridConfig, LinkClass, LinkShaper,
    PlannerConfig, ProblemSpec,
};
use bst_runtime::data::DataKey;
use bst_sparse::generate::{generate, SyntheticParams};
use bst_sparse::matrix::tile_seed;
use bst_sparse::BlockSparseMatrix;

const GPU_MEM: u64 = 1 << 21;

fn tiny_spec() -> ProblemSpec {
    let prob = generate(&SyntheticParams {
        m: 160,
        n: 1280,
        k: 1280,
        density: 0.6,
        tile_min: 8,
        tile_max: 24,
        seed: 42,
    });
    ProblemSpec::new(prob.a, prob.b, None)
}

fn plan_for(spec: &ProblemSpec, nodes: usize) -> ExecutionPlan {
    let config = PlannerConfig::paper(
        GridConfig::from_nodes(nodes, 1),
        DeviceConfig {
            gpus_per_node: 2,
            gpu_mem_bytes: GPU_MEM,
        },
    );
    ExecutionPlan::build(spec, config).expect("plan")
}

fn run_nodes(spec: &ProblemSpec, nodes: usize, opts: ExecOptions) -> (BlockSparseMatrix, ExecReport) {
    let plan = plan_for(spec, nodes);
    let a = BlockSparseMatrix::random_from_structure(spec.a.clone(), 42);
    let b_gen = move |k: usize, j: usize, r: usize, c: usize, pool: &bst_tile::TilePool| {
        Ok(std::sync::Arc::new(pool.random(r, c, tile_seed(42 ^ 0xB, k, j))))
    };
    execute(spec, &plan, &a, &b_gen, opts).expect("execution")
}

/// C stays where it is produced: on 8 ranks packed 4 per physical node, no
/// transport event names a C tile, the fabric moves exactly the A bytes the
/// lowering lists — each A tile once from its owner to each consuming rank
/// (`Lowered::sends`) — and the result holds every key some rank folded,
/// once.
#[test]
fn c_never_crosses_the_fabric() {
    let spec = tiny_spec();
    let opts = ExecOptions::builder().tracing(true).node_size(4).build();
    let (c, report) = run_nodes(&spec, 8, opts);
    let trace = report.trace.as_ref().expect("traced");
    assert!(!trace.comm_events.is_empty(), "no A tile crossed the fabric on 8 ranks");
    for e in &trace.comm_events {
        assert!(!matches!(e.key, DataKey::C(..)), "{:?} crossed {} -> {}", e.key, e.src, e.dst);
    }
    let low = lower(&spec, &plan_for(&spec, 8), &opts);
    let star_bytes: u64 = low
        .sends
        .iter()
        .map(|(&(_, (i, k)), dests)| spec.a.tile_bytes(i as usize, k as usize) * dests.len() as u64)
        .sum();
    let sent_bytes: u64 = report.comm.iter().map(|s| s.sent_bytes).sum();
    assert_eq!(sent_bytes, star_bytes);
    let keys: Vec<(usize, usize)> = low.reduce.iter().flat_map(|rn| rn.keys.clone()).collect();
    let produced: std::collections::BTreeSet<_> = keys.iter().copied().collect();
    assert_eq!(produced.len(), keys.len(), "a C key was folded on two ranks");
    let stored: std::collections::BTreeSet<_> = c.iter_tiles().map(|(&key, _)| key).collect();
    assert_eq!(stored, produced);
}

/// Per-link-class plumbing end to end: distinct intra/inter credit windows
/// reach the per-node stats, both link classes accumulate shaped busy
/// time, and the traced transport stream labels every event's class.
#[test]
fn link_classes_are_shaped_and_windowed_independently() {
    let spec = tiny_spec();
    let opts = ExecOptions::builder()
        .tracing(true)
        .node_size(4)
        .comm_window(5)
        .intra_window(11)
        .link_shaper(LinkShaper::summit_nic())
        .intra_shaper(LinkShaper::summit_intra())
        .build();
    let (_, report) = run_nodes(&spec, 8, opts);
    let inter_busy: u64 = report.comm.iter().map(|s| s.inter_busy_ns).sum();
    let intra_busy: u64 = report.comm.iter().map(|s| s.intra_busy_ns).sum();
    assert!(inter_busy > 0, "inter-node shaping accumulated no busy time");
    assert!(intra_busy > 0, "intra-node shaping accumulated no busy time");
    for s in &report.comm {
        assert_eq!(s.credit_window, 5);
        assert_eq!(s.intra_credit_window, 11);
        assert!(s.max_in_flight <= 5, "inter window violated: {}", s.max_in_flight);
        assert!(s.intra_max_in_flight <= 11, "intra window violated: {}", s.intra_max_in_flight);
    }
    let trace = report.trace.as_ref().expect("traced");
    let classes: std::collections::HashSet<_> =
        trace.comm_events.iter().map(|e| e.class).collect();
    assert!(classes.contains(&LinkClass::Inter), "no inter-node events on 8 ranks / 2 nodes");
    assert!(classes.contains(&LinkClass::Intra), "no intra-node events on 4-rank nodes");
    assert!(
        !classes.contains(&LinkClass::Loopback),
        "loopback frames must not be recorded as traffic"
    );
}
