//! End-to-end tests of the numeric engine over the `bst-comm` transport:
//! multi-node runs against the dense reference, bit-identity across delivery
//! policies, dropped-message recovery, and the transport trace invariants.

use bst_contract::engine::execute;
use bst_contract::{
    validate_trace_invariants, DeliveryPolicy, DeviceConfig, ExecOptions, ExecReport,
    ExecutionPlan, FaultPlan, GridConfig, LinkShaper, PlannerConfig, ProblemSpec,
};
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

fn run_nodes(spec: &ProblemSpec, nodes: usize, opts: ExecOptions) -> (BlockSparseMatrix, ExecReport) {
    let config = PlannerConfig::paper(
        GridConfig::from_nodes(nodes, 1),
        DeviceConfig {
            gpus_per_node: 2,
            gpu_mem_bytes: GPU_MEM,
        },
    );
    let plan = ExecutionPlan::build(spec, config).expect("plan");
    let a = BlockSparseMatrix::random_from_structure(spec.a.clone(), 42);
    let b_gen = move |k: usize, j: usize, r: usize, c: usize, pool: &bst_tile::TilePool| {
        Ok(std::sync::Arc::new(pool.random(r, c, tile_seed(42 ^ 0xB, k, j))))
    };
    execute(spec, &plan, &a, &b_gen, opts).expect("execution")
}

fn reference(spec: &ProblemSpec) -> BlockSparseMatrix {
    let a = BlockSparseMatrix::random_from_structure(spec.a.clone(), 42);
    let b = BlockSparseMatrix::from_structure(spec.b.clone(), |k, j, r, c| {
        bst_tile::Tile::random(r, c, tile_seed(42 ^ 0xB, k, j))
    });
    let mut c_ref =
        BlockSparseMatrix::zeros(spec.a.row_tiling().clone(), spec.b.col_tiling().clone());
    c_ref.gemm_acc_reference(&a, &b);
    c_ref
}

/// A 4-node run over the real transport matches the dense reference, and the
/// A broadcast actually crossed the fabric.
#[test]
fn multi_node_run_matches_reference() {
    let spec = tiny_spec();
    let (c, report) = run_nodes(&spec, 4, ExecOptions::default());
    let diff = c.max_abs_diff(&reference(&spec));
    assert!(diff <= 1e-10, "diff vs reference {diff:.3e}");
    let sent: u64 = report.comm.iter().map(|s| s.sent_bytes).sum();
    assert!(sent > 0, "no bytes crossed the fabric on a 4-node run");
    assert_eq!(report.comm.len(), 4);
    assert_eq!(report.host_peak_bytes.len(), 4);
}

/// The engine is bit-deterministic across runs and across every transport
/// policy: FIFO, seeded reorder, and a shaped link all produce the *same
/// bytes* — delivery timing is numerically unobservable (the per-C-tile
/// Gemm chain plus the sorted reduction fix the floating-point order).
#[test]
fn delivery_policy_is_numerically_unobservable() {
    let spec = tiny_spec();
    let (c_fifo, _) = run_nodes(&spec, 4, ExecOptions::default());
    let (c_again, _) = run_nodes(&spec, 4, ExecOptions::default());
    assert_eq!(c_fifo.max_abs_diff(&c_again), 0.0, "run-to-run determinism");
    let (c_reorder, _) = run_nodes(
        &spec,
        4,
        ExecOptions::builder()
            .delivery(DeliveryPolicy::Reorder { seed: 0xBEEF, window: 6 })
            .build(),
    );
    assert_eq!(c_fifo.max_abs_diff(&c_reorder), 0.0, "reorder must be unobservable");
    let (c_shaped, _) = run_nodes(
        &spec,
        4,
        ExecOptions::builder().link_shaper(LinkShaper::summit_nic()).build(),
    );
    assert_eq!(c_fifo.max_abs_diff(&c_shaped), 0.0, "shaping must be unobservable");
}

/// A 1-node grid (no cross-node traffic at all) produces the same bytes as
/// the 4-node distributed run: per-node private stores plus the fabric are
/// numerically transparent.
#[test]
fn single_node_and_multi_node_agree() {
    let spec = tiny_spec();
    let (c1, r1) = run_nodes(&spec, 1, ExecOptions::default());
    let (c4, _) = run_nodes(&spec, 4, ExecOptions::default());
    let diff = c1.max_abs_diff(&reference(&spec));
    assert!(diff <= 1e-10, "single-node diff vs reference {diff:.3e}");
    let diff14 = c1.max_abs_diff(&c4);
    assert!(diff14 <= 1e-10, "1-node vs 4-node diff {diff14:.3e}");
    // Loopback-only run: nothing crossed a NIC.
    assert_eq!(r1.comm.iter().map(|s| s.sent_bytes).sum::<u64>(), 0);
}

/// Dropped `SendA` messages (the transport fault site) recover through
/// re-request: the retried send re-reads the still-unconsumed tile, the
/// receiver deduplicates, and the result matches the fault-free run.
#[test]
fn dropped_messages_recover_bit_identically() {
    let spec = tiny_spec();
    let (c_clean, _) = run_nodes(&spec, 4, ExecOptions::default());
    // Send-site drops only, high enough to fire on a tiny run.
    let plan = FaultPlan {
        seed: 7,
        send_rate: 0.3,
        ..FaultPlan::default()
    };
    let opts = ExecOptions::builder().tracing(true).fault_plan(plan).build();
    let (c_faulted, report) = run_nodes(&spec, 4, opts);
    let r = &report.recovery;
    assert!(r.injected_send > 0, "30% send-drop rate injected nothing");
    let dropped: u64 = report.comm.iter().map(|s| s.dropped_msgs).sum();
    assert_eq!(dropped, r.injected_send, "every injected drop is a wire-level drop");
    let dups: u64 = report.comm.iter().map(|s| s.duplicate_msgs).sum();
    assert_eq!(dups, 0, "a dropped frame never arrives, so no duplicates");
    let diff = c_faulted.max_abs_diff(&c_clean);
    assert!(diff <= 1e-10, "recovered result diverged by {diff:.3e}");
    assert_eq!(diff, 0.0, "recovery is bit-identical under deterministic ordering");
    let violations = validate_trace_invariants(&report, opts, GPU_MEM);
    assert!(violations.is_empty(), "{violations:?}");
}

/// Traced multi-node runs carry the transport event stream and satisfy the
/// trace invariants — including "`Received(k)` happens before the first
/// device load of tile k" (invariant 5).
#[test]
fn traced_multi_node_run_satisfies_comm_invariants() {
    let spec = tiny_spec();
    let opts = ExecOptions::builder().tracing(true).build();
    let (_, report) = run_nodes(&spec, 4, opts);
    let violations = validate_trace_invariants(&report, opts, GPU_MEM);
    assert!(violations.is_empty(), "{violations:?}");
    let trace = report.trace.as_ref().expect("traced");
    let sent = trace.comm_events.iter().filter(|e| e.phase == TracePhase::Sent).count();
    let recv = trace
        .comm_events
        .iter()
        .filter(|e| e.phase == TracePhase::Received)
        .count();
    assert!(sent > 0, "no Sent events on a 4-node traced run");
    assert_eq!(sent, recv, "every Sent frame was Received (no faults)");
    // The RecvA tasks exist in the task trace, one per delivering hop.
    let recva = trace.records.iter().filter(|r| r.kind == "RecvA").count();
    assert!(recva > 0, "lowering emitted no RecvA tasks");
    // The Chrome export renders the transport stream on the per-node NIC
    // tracks without breaking the document.
    let json = trace.chrome_trace_json();
    assert!(json.contains("\"nic\""), "no nic track in the Chrome export");
}
