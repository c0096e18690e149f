//! Structural parity between the numeric engine and the DAG replay.
//!
//! Both consume the same inspector lowering
//! (`bst_contract::engine::inspector::lower`), so a numeric run and a
//! simulated run of the same `(spec, plan, opts)` must execute structurally
//! identical DAGs: the same multiset of typed ops on the same lanes, and
//! schedules that both pass the engine's trace-invariant checker.

use std::collections::HashMap;
use std::sync::Arc;

use bst_contract::engine::execute;
use bst_contract::engine::inspector::{lower, Op};
use bst_contract::{
    validate_trace_invariants, DeviceConfig, ExecOptions, ExecReport, ExecutionPlan, GridConfig,
    PlannerConfig, ProblemSpec,
};
use bst_sim::dag::{makespan_s, replay_dag};
use bst_sim::Platform;
use bst_sparse::generate::{generate, SyntheticParams};
use bst_sparse::matrix::tile_seed;
use bst_sparse::BlockSparseMatrix;
use bst_tile::pool::TilePool;

fn problem() -> (ProblemSpec, ExecutionPlan, PlannerConfig) {
    let prob = generate(&SyntheticParams {
        m: 40,
        n: 120,
        k: 100,
        density: 0.5,
        tile_min: 5,
        tile_max: 17,
        seed: 7,
    });
    let spec = ProblemSpec::new(prob.a, prob.b, None);
    let config = PlannerConfig::paper(
        GridConfig { p: 2, q: 2 },
        DeviceConfig {
            gpus_per_node: 2,
            gpu_mem_bytes: 1 << 20,
        },
    );
    let plan = ExecutionPlan::build(&spec, config).unwrap();
    (spec, plan, config)
}

/// `(node, lane, op) -> count`, with the stack rows the `Gemm` ops index.
type Fingerprint = (HashMap<(usize, usize, Op), u64>, Arc<[u32]>);

/// The structural fingerprint of a traced report's executed DAG.
fn fingerprint(report: &ExecReport) -> Fingerprint {
    let trace = report.trace.as_ref().expect("traced report");
    let mut map = HashMap::new();
    for r in &trace.records {
        *map.entry((r.worker.node, r.worker.lane, trace.ops[r.task].clone()))
            .or_insert(0) += 1;
    }
    (map, Arc::clone(&trace.stack_rows))
}

#[test]
fn numeric_and_simulated_runs_execute_the_same_dag() {
    let (spec, plan, config) = problem();
    // Two ranks per physical node, so both link classes carry traffic.
    let opts = ExecOptions::builder().tracing(true).node_size(2).build();

    let a = BlockSparseMatrix::random_from_structure(spec.a.clone(), 3);
    let b_gen = |k: usize, j: usize, r: usize, c: usize, pool: &TilePool| {
        Ok(Arc::new(pool.random(r, c, tile_seed(3 ^ 0xB, k, j))))
    };
    let (_c, numeric) = execute(&spec, &plan, &a, &b_gen, opts).unwrap();

    let mut platform = Platform::summit(4);
    platform.gpus_per_node = 2;
    let simulated = replay_dag(&spec, &plan, &platform, &opts);

    // The transport's own per-node accounting (A hops and the C gather)
    // against the replay's: bytes and messages, each way, per link class.
    let traffic = |report: &ExecReport| -> Vec<[u64; 8]> {
        report
            .comm
            .iter()
            .map(|s| {
                [
                    s.sent_bytes, s.sent_msgs, s.recv_bytes, s.recv_msgs,
                    s.inter_sent_bytes, s.inter_sent_msgs, s.inter_recv_bytes, s.inter_recv_msgs,
                ]
            })
            .collect()
    };
    assert_eq!(traffic(&numeric), traffic(&simulated));
    assert!(numeric.comm.iter().any(|s| s.inter_sent_bytes > 0));
    assert!(numeric.comm.iter().any(|s| s.sent_bytes > s.inter_sent_bytes));

    // Identical task multisets, worker by worker: the DAG is shared, not
    // re-derived, so the fingerprints must match exactly.
    assert_eq!(fingerprint(&numeric), fingerprint(&simulated));
    assert_eq!(numeric.gemm_tasks, simulated.gemm_tasks);
    assert_eq!(numeric.b_tiles_generated, simulated.b_tiles_generated);
    assert_eq!(numeric.a_messages, simulated.a_messages);
    assert_eq!(numeric.a_network_bytes, simulated.a_network_bytes);
    assert_eq!(numeric.devices.len(), simulated.devices.len());

    // One checker gates both schedules.
    let cap = config.device.gpu_mem_bytes;
    assert_eq!(
        validate_trace_invariants(&numeric, cap),
        Vec::<String>::new()
    );
    assert_eq!(
        validate_trace_invariants(&simulated, cap),
        Vec::<String>::new()
    );
    assert!(makespan_s(&simulated) > 0.0);
}

/// The edges of a lowering that join two tasks of one lane, which the
/// lane's program order already implies.
fn same_lane_edges(
    spec: &ProblemSpec,
    plan: &ExecutionPlan,
    opts: &ExecOptions,
) -> Vec<(usize, usize)> {
    let g = lower(spec, plan, opts).graph;
    (0..g.len())
        .filter(|&t| !g.worker(t).is_any())
        .flat_map(|t| g.deps(t).iter().map(move |&d| (d, t)))
        .filter(|&(d, t)| g.worker(d) == g.worker(t))
        .collect()
}

#[test]
fn lowering_keeps_no_edge_inside_a_lane() {
    let (spec, plan, _config) = problem();
    let opts = ExecOptions::builder().node_size(2).build();
    assert_eq!(same_lane_edges(&spec, &plan, &opts), Vec::new());

    // A 2 x 2 grid of one-lane ranks, two to a physical node.
    let prob = generate(&SyntheticParams {
        m: 60,
        n: 240,
        k: 240,
        density: 0.3,
        tile_min: 8,
        tile_max: 24,
        seed: 11,
    });
    let spec = ProblemSpec::new(prob.a, prob.b, None);
    let config = PlannerConfig::paper(
        GridConfig { p: 2, q: 2 },
        DeviceConfig { gpus_per_node: 1, gpu_mem_bytes: 1 << 20 },
    );
    let plan = ExecutionPlan::build(&spec, config).unwrap();
    assert_eq!(same_lane_edges(&spec, &plan, &opts), Vec::new());
}

#[test]
fn simulated_device_accounting_matches_numeric_peaks() {
    let (spec, plan, _config) = problem();
    let opts = ExecOptions::builder().tracing(true).build();

    let a = BlockSparseMatrix::random_from_structure(spec.a.clone(), 3);
    let b_gen = |k: usize, j: usize, r: usize, c: usize, pool: &TilePool| {
        Ok(Arc::new(pool.random(r, c, tile_seed(3 ^ 0xB, k, j))))
    };
    let (_c, numeric) = execute(&spec, &plan, &a, &b_gen, opts).unwrap();
    let mut platform = Platform::summit(4);
    platform.gpus_per_node = 2;
    let simulated = replay_dag(&spec, &plan, &platform, &opts);

    // Same loads, same evictions, same byte accounting: transfer counts and
    // volumes do not depend on the schedule (d2d attribution may differ with
    // thread timing, so compare the sum with h2d).
    for ((nk, ns_), (sk, ss)) in numeric.devices.iter().zip(&simulated.devices) {
        assert_eq!(nk, sk);
        assert_eq!(ns_.loads, ss.loads, "transfers differ on {nk:?}");
        assert_eq!(ns_.evictions, ss.evictions, "evictions differ on {nk:?}");
        assert_eq!(
            ns_.h2d_bytes + ns_.d2d_bytes,
            ss.h2d_bytes + ss.d2d_bytes,
            "load volume differs on {nk:?}"
        );
        assert_eq!(ns_.d2h_bytes, ss.d2h_bytes, "writeback differs on {nk:?}");
    }

    // Peaks. Every block of this plan has one chunk, so a B tile is on its
    // device only inside its one stack, and the occupancy sampled *between*
    // tasks (after every load, stack, evict and flush) is C and A alone.
    // Both sides run each lane's program, so they sample the same sequence.
    // Which stack coincides with the most A resident is the program's
    // choice, so the true peak lies at most that stack's B tile above the
    // sampled one.
    let blocks = || plan.nodes.iter().flat_map(|n| &n.gpus).flat_map(|g| &g.blocks);
    assert!(blocks().all(|bp| bp.chunks.len() == 1), "a multi-chunk block keeps B across tasks");
    let largest_b = spec.b.shape().iter_nonzero().map(|(k, j)| spec.b.tile_bytes(k, j)).max().unwrap();
    let sampled = |r: &ExecReport| -> Vec<((usize, usize), u64)> {
        let log = &r.trace.as_ref().unwrap().mem_samples;
        log.iter().map(|(dev, s)| (*dev, s.iter().map(|&(_, bytes)| bytes).max().unwrap())).collect()
    };
    assert_eq!(sampled(&numeric), sampled(&simulated));
    for report in [&numeric, &simulated] {
        for ((dev, between), (_, stats)) in sampled(report).iter().zip(&report.devices) {
            let above = stats.peak_bytes.checked_sub(*between).expect("a sample above the peak");
            assert!(above <= largest_b, "peak {above} B above the between-task peak on {dev:?}");
        }
    }

    // Every simulated device drains to zero, like the numeric engine.
    let trace = simulated.trace.as_ref().unwrap();
    assert_eq!(trace.mem_samples.len(), simulated.devices.len());
    for (_, samples) in &trace.mem_samples {
        assert_eq!(samples.last().unwrap().1, 0, "simulated memory leaked");
    }
}

#[test]
fn genb_fanout_lowers_identically_for_both_consumers() {
    // GenB is order-free: both consumers must see the same lowering of it,
    // and only the engine's pool bounds how many run at once.
    let (spec, plan, config) = problem();
    let opts = ExecOptions::builder().tracing(true).build();

    let a = BlockSparseMatrix::random_from_structure(spec.a.clone(), 3);
    let b_gen = |k: usize, j: usize, r: usize, c: usize, pool: &TilePool| {
        Ok(Arc::new(pool.random(r, c, tile_seed(3 ^ 0xB, k, j))))
    };
    let (_c, numeric) = execute(&spec, &plan, &a, &b_gen, opts).unwrap();
    let mut platform = Platform::summit(4);
    platform.gpus_per_node = 2;
    let simulated = replay_dag(&spec, &plan, &platform, &opts);

    assert_eq!(fingerprint(&numeric), fingerprint(&simulated));
    let cap = config.device.gpu_mem_bytes;
    assert_eq!(
        validate_trace_invariants(&simulated, cap),
        Vec::<String>::new()
    );
    // The engine runs at most one GenB per pooled worker; the replay starts
    // each when it is ready, so its GenBs overlap.
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let in_flight = numeric.max_concurrent_genb();
    assert!(in_flight <= workers, "{in_flight} GenBs in flight on {workers} workers");
    assert!(simulated.max_concurrent_genb() > 1, "the replay serialised GenB");
}

#[test]
fn compression_model_shrinks_replayed_bytes_but_not_the_dag() {
    let (spec, plan, config) = problem();
    let dense_opts = ExecOptions::builder().tracing(true).build();
    let lossy_opts = ExecOptions::builder().tracing(true).compress_tol(1e-4).build();

    let mut platform = Platform::summit(4);
    platform.gpus_per_node = 2;
    let dense = replay_dag(&spec, &plan, &platform, &dense_opts);
    let lossy = replay_dag(&spec, &plan, &platform, &lossy_opts);

    // Compression is a data-plane change: the task DAG is untouched.
    assert_eq!(fingerprint(&dense), fingerprint(&lossy));
    assert_eq!(dense.gemm_tasks, lossy.gemm_tasks);

    // Modeled A wire bytes and device load volumes shrink strictly.
    assert!(
        lossy.a_network_bytes < dense.a_network_bytes,
        "modeled A bytes did not shrink ({} vs {})",
        lossy.a_network_bytes,
        dense.a_network_bytes
    );
    let h2d = |r: &ExecReport| {
        r.devices.iter().map(|(_, d)| d.h2d_bytes + d.d2d_bytes).sum::<u64>()
    };
    assert!(h2d(&lossy) < h2d(&dense), "modeled device loads did not shrink");

    // The compressed schedule still passes the shared invariant checker.
    let cap = config.device.gpu_mem_bytes;
    assert_eq!(validate_trace_invariants(&lossy, cap), Vec::<String>::new());
}
