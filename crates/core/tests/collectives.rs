//! End-to-end tests of the transport's collectives over the real
//! `bst-comm` transport: the one-hop A broadcast from each tile's owner, the
//! one-hop gather of C to rank 0, and the per-link-class windows and
//! shapers of the node-aware topology.

use bst_contract::engine::execute;
use bst_contract::engine::inspector::lower;
use bst_contract::{
    DeviceConfig, ExecOptions, ExecReport, ExecutionPlan, GridConfig, LinkClass, LinkShaper,
    PlannerConfig, ProblemSpec,
};
use bst_runtime::data::DataKey;
use bst_runtime::trace::TracePhase;
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

/// Every byte the run sends to another rank: each A tile once from its
/// owner to each consuming rank (`Lowered::sends`), and each rank's folded
/// C tiles once to rank 0 (`Lowered::reduce`). A pure function of the
/// lowering.
fn star_and_gather_bytes(spec: &ProblemSpec, nodes: usize, opts: &ExecOptions) -> u64 {
    let low = lower(spec, &plan_for(spec, nodes), opts);
    let a: u64 = low
        .sends
        .iter()
        .map(|(&(_, (i, k)), dests)| spec.a.tile_bytes(i as usize, k as usize) * dests.len() as u64)
        .sum();
    let c: u64 = low.reduce[1..]
        .iter()
        .flat_map(|rn| &rn.keys)
        .map(|&(i, j)| spec.a.row_tiling().size(i) * spec.b.col_tiling().size(j) * 8)
        .sum();
    a + c
}

/// C is gathered, not reduced: on 8 ranks packed 4 per physical node every
/// C tile leaves its rank once, addressed to rank 0 — no rank forwards
/// another's tiles — and with every A tile sent once per consuming rank the
/// run moves exactly the bytes the lowering lists.
#[test]
fn c_tiles_reach_the_root_in_one_hop() {
    let spec = tiny_spec();
    let opts = ExecOptions::builder().tracing(true).node_size(4).build();
    let (_, report) = run_nodes(&spec, 8, opts);
    let trace = report.trace.as_ref().expect("traced");
    let mut sent = std::collections::HashSet::new();
    for e in &trace.comm_events {
        if let DataKey::C(i, j) = e.key {
            assert_eq!(e.dst, 0, "C({i},{j}) sent {} -> {}", e.src, e.dst);
            if e.phase == TracePhase::Sent {
                assert!(sent.insert((i, j)), "C({i},{j}) sent twice");
            }
        }
    }
    assert!(!sent.is_empty(), "no C tile crossed the fabric on 8 ranks");
    let sent_bytes: u64 = report.comm.iter().map(|s| s.sent_bytes).sum();
    assert_eq!(sent_bytes, star_and_gather_bytes(&spec, 8, &opts));
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
