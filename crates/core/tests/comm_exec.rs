//! End-to-end tests of the numeric engine over the `bst-comm` transport:
//! the bytes a multi-node run moves, dropped-message recovery, and the
//! transport trace invariants. (Agreement with the dense reference and
//! bit-identity across delivery policies and node counts are the generated
//! matrix's, `crates/bst-cli/tests/matrix.rs`.)

use bst_contract::engine::execute;
use bst_contract::engine::inspector::{self, REDUCE_ROOT};
use bst_contract::{
    validate_trace_invariants, DeviceConfig, ExecOptions, ExecReport, ExecutionPlan, FaultPlan,
    GridConfig, PlannerConfig, ProblemSpec,
};
use bst_runtime::comm::NodeCommStats;
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
    let (c, report, _) = run_grid(spec, GridConfig::from_nodes(nodes, 1), opts);
    (c, report)
}

fn run_grid(
    spec: &ProblemSpec,
    grid: GridConfig,
    opts: ExecOptions,
) -> (BlockSparseMatrix, ExecReport, ExecutionPlan) {
    let config = PlannerConfig::paper(
        grid,
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
    let (c, report) = execute(spec, &plan, &a, &b_gen, opts).expect("execution");
    (c, report, plan)
}

/// The A broadcast of a 4-node run crosses the fabric; a 1-node grid moves
/// nothing at all (a rank's own tiles never cross the fabric).
#[test]
fn only_multi_node_runs_move_bytes() {
    let spec = tiny_spec();
    let sent = |report: &ExecReport| report.comm.iter().map(|s| s.sent_bytes).sum::<u64>();
    let (_, r4) = run_nodes(&spec, 4, ExecOptions::default());
    assert!(sent(&r4) > 0, "no bytes crossed the fabric on a 4-node run");
    assert_eq!(r4.comm.len(), 4);
    assert_eq!(r4.host_peak_bytes.len(), 4);
    let (_, r1) = run_nodes(&spec, 1, ExecOptions::default());
    assert_eq!(sent(&r1), 0, "a 1-node run crossed a NIC");
}

/// Each node's transport totals are exactly what the lowering implies,
/// however the fabric frames them: one message per `SendA` hop and one per
/// C key a non-root rank gathers to the root, of the tile's bytes; one
/// received per `RecvA` and, on the root, per gathered key.
#[test]
fn comm_counts_follow_the_lowering() {
    let spec = tiny_spec();
    let opts = ExecOptions::default();
    let (_, report, plan) = run_grid(&spec, GridConfig::from_nodes(4, 2), opts);
    let low = inspector::lower(&spec, &plan, &opts);
    let c_bytes = |&(i, j): &(usize, usize)| {
        spec.a.row_tiling().size(i) * spec.b.col_tiling().size(j) * 8
    };
    let mut want = vec![NodeCommStats::default(); 4];
    for (&(owner, (i, k)), dests) in &low.sends {
        let bytes = spec.a.tile_bytes(i as usize, k as usize);
        for &dst in dests {
            want[owner].sent_msgs += 1;
            want[owner].sent_bytes += bytes;
            want[dst].recv_msgs += 1;
            want[dst].recv_bytes += bytes;
        }
    }
    for (node, rn) in low.reduce.iter().enumerate().filter(|&(node, _)| node != REDUCE_ROOT) {
        let bytes: u64 = rn.keys.iter().map(c_bytes).sum();
        want[node].sent_msgs += rn.keys.len() as u64;
        want[node].sent_bytes += bytes;
        want[REDUCE_ROOT].recv_msgs += rn.keys.len() as u64;
        want[REDUCE_ROOT].recv_bytes += bytes;
    }
    assert!(want.iter().all(|w| w.sent_msgs > 0), "a node of the 2×2 grid sent nothing");
    for (node, (got, want)) in report.comm.iter().zip(&want).enumerate() {
        let counts = |s: &NodeCommStats| (s.sent_msgs, s.sent_bytes, s.recv_msgs, s.recv_bytes);
        assert_eq!(counts(got), counts(want), "node {node}: (sent msgs, bytes, recv msgs, bytes)");
    }
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
    let violations = validate_trace_invariants(&report, GPU_MEM);
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
    let violations = validate_trace_invariants(&report, GPU_MEM);
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
