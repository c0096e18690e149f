//! End-to-end tests of the collective communication primitives: node-aware
//! broadcast trees for A tiles, the one-hop gather of C to rank 0, the
//! unicast byte baseline they are compared against, and fault
//! recovery through interior tree hops — all over the real `bst-comm`
//! transport.

use bst_contract::engine::execute;
use bst_contract::engine::inspector::{block_c_tiles, lower};
use bst_contract::{
    validate_trace_invariants, DeviceConfig, ExecOptions, ExecReport, ExecutionPlan, FaultPlan,
    GridConfig, LinkClass, LinkShaper, PlannerConfig, ProblemSpec,
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

/// Bytes of the unicast baseline on `nodes` ranks — the owner sends
/// `A(i,k)` to every consumer in turn and every flushed C partial ships
/// straight to rank 0 — as `(inter-node A tiles, inter-node A tiles + C
/// partials, every byte)`. A pure function of the lowering:
/// `Lowered::sends` is the star's fan-out and `block_c_tiles` lists each
/// block's partials.
fn unicast_bytes(spec: &ProblemSpec, nodes: usize, opts: ExecOptions) -> (u64, u64, u64) {
    let plan = plan_for(spec, nodes);
    let low = lower(spec, &plan, &opts);
    let inter = |src: usize, dst: usize| low.topology.link_class(src, dst) == LinkClass::Inter;
    let (mut a_inter, mut c_inter, mut total) = (0u64, 0u64, 0u64);
    for (&(owner, (i, k)), dests) in &low.sends {
        let bytes = spec.a.tile_bytes(i as usize, k as usize);
        a_inter += bytes * dests.iter().filter(|&&dst| inter(owner, dst)).count() as u64;
        total += bytes * dests.len() as u64;
    }
    for (ni, node) in plan.nodes.iter().enumerate().skip(1) {
        for bp in node.gpus.iter().flat_map(|gpu| &gpu.blocks) {
            for (i, j) in block_c_tiles(spec, &bp.block, node.grid_row, plan.config.grid.p) {
                let bytes = spec.a.row_tiling().size(i) * spec.b.col_tiling().size(j) * 8;
                total += bytes;
                if inter(ni, 0) {
                    c_inter += bytes;
                }
            }
        }
    }
    (a_inter, a_inter + c_inter, total)
}

/// On 4-rank physical nodes the broadcast trees move at most half the
/// inter-node A-tile bytes of the unicast baseline, and the run's total
/// inter-node traffic stays below it too.
#[test]
fn tree_halves_inter_node_a_bytes_vs_unicast() {
    let spec = tiny_spec();
    let opts = ExecOptions::builder().node_size(4).build();
    let (_, tree_report) = run_nodes(&spec, 8, opts);
    let (uni_a, uni_inter, _) = unicast_bytes(&spec, 8, opts);
    let tree_a = tree_report.a_network_inter_bytes;
    assert!(uni_a > 0, "unicast baseline moves no inter-node A bytes");
    assert!(
        2 * tree_a <= uni_a,
        "broadcast trees saved too little: {tree_a} vs {uni_a} inter-node A bytes"
    );
    // Total inter-node traffic (A tiles + C partials) shrinks too.
    let tree_inter: u64 = tree_report.comm.iter().map(|s| s.inter_sent_bytes).sum();
    assert!(
        tree_inter <= uni_inter,
        "the run moved more inter-node bytes than unicast overall"
    );
    // On a single-rank-per-node topology the tree degenerates gracefully:
    // same inter-node A bytes as unicast (every link is a NIC link, and
    // each destination still receives the tile exactly once).
    let (_, flat_tree) = run_nodes(&spec, 8, ExecOptions::default());
    let (flat_uni_a, _, _) = unicast_bytes(&spec, 8, ExecOptions::default());
    assert_eq!(flat_tree.a_network_inter_bytes, flat_uni_a);
}

/// C is gathered, not reduced: on 8 ranks packed 4 per physical node every
/// C tile leaves its rank once, addressed to rank 0 — no rank forwards
/// another's tiles — so the run moves exactly the bytes of the
/// ship-to-root baseline.
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
    assert_eq!(sent_bytes, unicast_bytes(&spec, 8, opts).2);
}

/// Frame drops on *interior* broadcast-tree hops — a forwarder, not the
/// owner, losing the frame — recover bit-identically: the retried hop
/// re-reads the forwarder's still-unconsumed copy and the epoch-tagged
/// re-delivery reconverges.
#[test]
fn drop_recovery_through_interior_tree_hop() {
    let spec = tiny_spec();
    let (c_clean, _) = run_nodes(&spec, 8, ExecOptions::default());
    let opts = ExecOptions::builder()
        .tracing(true)
        .fault_plan(FaultPlan {
            seed: 11,
            send_rate: 0.3,
            ..FaultPlan::default()
        })
        .build();
    let (c_faulted, report) = run_nodes(&spec, 8, opts);
    assert_eq!(
        c_faulted.max_abs_diff(&c_clean),
        0.0,
        "drop recovery through the broadcast tree is not bit-identical"
    );
    // On a 1×8 grid A(i,k) is owned by rank k mod 8; a Failed frame whose
    // src is any other rank died on an interior (forwarding) hop.
    let trace = report.trace.as_ref().expect("traced");
    let interior_drops = trace
        .comm_events
        .iter()
        .filter(|e| e.phase == TracePhase::Failed)
        .filter(|e| matches!(e.key, DataKey::A(_, k) if e.src != k as usize % 8))
        .count();
    assert!(
        interior_drops > 0,
        "30% send-drop rate never hit an interior tree hop"
    );
    let violations = validate_trace_invariants(&report, GPU_MEM);
    assert!(violations.is_empty(), "{violations:?}");
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
