//! Integration tests for the executor's trace invariants (§3.2/§4): run
//! real traced numeric executions and check the *schedule* — not just the
//! numbers — obeys the device discipline the planner promised.
//!
//! The checks are asserted twice: once directly against the task records
//! (independent re-derivation), once via the shared
//! [`bst_contract::validate_trace_invariants`] helper the repro binaries
//! gate on.

use bst_contract::engine::execute;
use bst_contract::engine::inspector::{Op, GENB_WINDOW};
use bst_contract::{
    validate_trace_invariants, DeviceConfig, ExecOptions, ExecReport, ExecTraceData,
    ExecutionPlan, GridConfig, PlannerConfig, ProblemSpec,
};
use bst_runtime::graph::WorkerId;
use bst_runtime::trace::TaskSpan;
use bst_runtime::TaskRecord;
use bst_sparse::generate::{generate, SyntheticParams};
use bst_sparse::matrix::tile_seed;
use bst_sparse::BlockSparseMatrix;
use std::collections::HashMap;

/// A problem + memory budget tight enough to force several blocks and
/// chunks per GPU, so every control-edge family is actually exercised.
fn tight_spec() -> ProblemSpec {
    let prob = generate(&SyntheticParams {
        m: 120,
        n: 960,
        k: 960,
        density: 0.6,
        tile_min: 8,
        tile_max: 20,
        seed: 11,
    });
    ProblemSpec::new(prob.a, prob.b, None)
}

const GPU_MEM: u64 = 1 << 20;

fn traced_run(spec: &ProblemSpec, opts: ExecOptions) -> ExecReport {
    let config = PlannerConfig::paper(
        GridConfig::from_nodes(2, 1),
        DeviceConfig {
            gpus_per_node: 2,
            gpu_mem_bytes: GPU_MEM,
        },
    );
    let plan = ExecutionPlan::build(spec, config).unwrap();
    let seed = 11u64;
    let a = BlockSparseMatrix::random_from_structure(spec.a.clone(), seed);
    // Rendezvous the first generator calls across the pooled workers so
    // spans provably overlap where there are two workers, even when short
    // tasks are never preempted mid-span: as many in flight as workers,
    // twice over, pigeonholes two onto one node — which is what
    // `max_concurrent_genb` (a per-node peak) measures. A lone worker waits
    // out the deadline. (Values are seed-determined, so the stall changes
    // timing only.)
    let rendezvous = 2 * workers().min(2);
    let entered = std::sync::atomic::AtomicUsize::new(0);
    let b_gen = |k: usize, j: usize, r: usize, c: usize, pool: &bst_tile::TilePool| {
        use std::sync::atomic::Ordering;
        let t = pool.random(r, c, tile_seed(seed ^ 0xB, k, j));
        entered.fetch_add(1, Ordering::SeqCst);
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(500);
        while entered.load(Ordering::SeqCst) < rendezvous && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        Ok(std::sync::Arc::new(t))
    };
    // Every run of the process shares the pool's workers, so traced runs
    // take turns: both workers are then free to meet at the rendezvous.
    static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _turn = TURN.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let (_c, report) = execute(
        spec,
        &plan,
        &a,
        &b_gen,
        ExecOptions {
            tracing: true,
            ..opts
        },
    )
    .expect("traced run");
    report
}

/// Each lane's task records with their ops.
fn by_lane(trace: &ExecTraceData) -> HashMap<WorkerId, Vec<(&TaskRecord, &Op)>> {
    let mut map: HashMap<WorkerId, Vec<(&TaskRecord, &Op)>> = HashMap::new();
    for r in &trace.records {
        map.entry(r.worker).or_default().push((r, &trace.ops[r.task]));
    }
    map
}

/// No Gemm stack before its operands were staged: a `LoadA(i,k)` of
/// **every** row *and* some `LoadBlock` must have finished on the same GPU
/// lane first.
#[test]
fn gemm_never_starts_before_its_loads() {
    let spec = tight_spec();
    let report = traced_run(&spec, ExecOptions::default());
    let trace = report.trace.as_ref().unwrap();
    let (mut gemms_checked, mut rows_checked) = (0usize, 0usize);
    for (lane, tasks) in by_lane(trace) {
        if lane.lane == 0 {
            continue;
        }
        for &(gemm, op) in &tasks {
            let &Op::Gemm { k, ref rows, .. } = op else { continue };
            let rows = trace.rows_of(rows);
            assert!(!rows.is_empty(), "{}: a stack without rows", trace.detail(gemm.task));
            for &i in rows {
                assert!(
                    tasks.iter().any(|&(r, op)| *op == Op::LoadA { i, k }
                        && r.span.end_ns <= gemm.span.start_ns),
                    "{} ran before LoadA({i},{k}) finished on {lane:?}",
                    trace.detail(gemm.task),
                );
                rows_checked += 1;
            }
            assert!(
                tasks.iter().any(|&(r, op)| matches!(op, Op::LoadBlock { .. })
                    && r.span.end_ns <= gemm.span.start_ns),
                "{} ran before any LoadBlock finished on {lane:?}",
                trace.detail(gemm.task)
            );
            gemms_checked += 1;
        }
    }
    assert!(gemms_checked > 100, "only {gemms_checked} Gemm stacks traced");
    assert!(rows_checked > gemms_checked, "every stack had a single row");
    assert_eq!(
        validate_trace_invariants(&report, GPU_MEM),
        Vec::<String>::new()
    );
}

/// §3.2.2 blocking block transfers: block b+1's `LoadBlock` never starts
/// before block b's `FlushBlock` finished on the same lane.
#[test]
fn block_serialization_orders_flush_before_next_load() {
    let spec = tight_spec();
    let report = traced_run(&spec, ExecOptions::default());
    let mut lanes_with_multiple_blocks = 0usize;
    for (lane, tasks) in by_lane(report.trace.as_ref().unwrap()) {
        if lane.lane == 0 {
            continue;
        }
        let flush_end: HashMap<u32, u64> = tasks
            .iter()
            .filter_map(|&(r, op)| match *op {
                Op::FlushBlock { block, .. } => Some((block, r.span.end_ns)),
                _ => None,
            })
            .collect();
        let loads: Vec<(&TaskRecord, u32)> = tasks
            .iter()
            .filter_map(|&(r, op)| match *op {
                Op::LoadBlock { block, .. } => Some((r, block)),
                _ => None,
            })
            .collect();
        if loads.len() > 1 {
            lanes_with_multiple_blocks += 1;
        }
        for (load, b) in loads {
            if b > 0 {
                let end = flush_end[&(b - 1)];
                assert!(
                    load.span.start_ns >= end,
                    "LoadBlock({b}) on {lane:?} started {} ns before FlushBlock({}) ended",
                    end - load.span.start_ns,
                    b - 1
                );
            }
        }
    }
    assert!(
        lanes_with_multiple_blocks > 0,
        "problem too small: no lane ran multiple blocks"
    );
    assert_eq!(validate_trace_invariants(&report, GPU_MEM), Vec::<String>::new());
}

/// Device memory discipline: every simulated GPU's high-water mark stays
/// within the configured budget, and the occupancy samples agree with the
/// reported peak.
#[test]
fn device_high_water_stays_within_budget() {
    let spec = tight_spec();
    let report = traced_run(&spec, ExecOptions::default());
    assert!(!report.devices.is_empty());
    for ((node, gpu), stats) in &report.devices {
        assert!(
            stats.peak_bytes <= GPU_MEM,
            "n{node}.g{gpu} peaked at {} > {GPU_MEM}",
            stats.peak_bytes
        );
        assert!(stats.peak_bytes > 0);
    }
    let trace = report.trace.as_ref().unwrap();
    assert_eq!(trace.mem_samples.len(), report.devices.len());
    for ((node, gpu), samples) in &trace.mem_samples {
        let sampled_peak = samples.iter().map(|&(_, b)| b).max().unwrap_or(0);
        let reported = report
            .devices
            .iter()
            .find(|(d, _)| d == &(*node, *gpu))
            .map(|(_, s)| s.peak_bytes)
            .unwrap();
        assert!(
            sampled_peak <= reported,
            "n{node}.g{gpu}: sampled {sampled_peak} > reported peak {reported}"
        );
        for pair in samples.windows(2) {
            assert!(pair[0].0 <= pair[1].0, "samples out of order");
        }
    }
}

/// The engine's pooled workers: one per core.
fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Parallel B generation must not bend the schedule: with `GenB` on any
/// pooled worker the trace still satisfies every invariant, no more `GenB`s
/// run at once than there are workers, and with two or more workers their
/// spans actually overlap (generation is not serialised).
#[test]
fn parallel_genb_keeps_invariants_and_overlaps() {
    let spec = tight_spec();
    let opts = ExecOptions::default();
    let report = traced_run(&spec, opts);
    assert_eq!(validate_trace_invariants(&report, GPU_MEM), Vec::<String>::new());

    // GenB is order-free...
    let trace = report.trace.as_ref().unwrap();
    for r in trace.records.iter().filter(|r| matches!(trace.ops[r.task], Op::GenB { .. })) {
        assert!(r.worker.is_any(), "{} pinned to {:?}", trace.detail(r.task), r.worker);
    }
    // ...so only the pool bounds how many run at once, and with two
    // workers some of it genuinely ran concurrently.
    let in_flight = report.max_concurrent_genb();
    assert!(in_flight <= workers(), "{in_flight} GenBs in flight on {} workers", workers());
    if workers() > 1 {
        assert!(in_flight > 1, "GenB spans never overlap on {} workers", workers());
    }
}

/// The helper itself must *detect* violations, not just bless everything:
/// corrupt a record's span and expect a complaint.
#[test]
fn validator_flags_corrupted_schedules() {
    let spec = tight_spec();
    let mut report = traced_run(&spec, ExecOptions::default());
    assert!(validate_trace_invariants(&report, GPU_MEM).is_empty());

    // Shrink the budget below the real peak: every device must be flagged.
    let violations = validate_trace_invariants(&report, 1);
    assert_eq!(violations.len(), report.devices.len());
    assert!(violations[0].contains("budget"), "{violations:?}");

    // Pull a Gemm's start before its loads: ordering violations appear.
    let trace = report.trace.as_mut().unwrap();
    let idx = trace
        .records
        .iter()
        .position(|r| r.kind == "Gemm" && r.worker.lane > 0)
        .unwrap();
    trace.records[idx].span.start_ns = 0;
    trace.records[idx].span.ready_ns = 0;
    let violations = validate_trace_invariants(&report, GPU_MEM);
    assert!(
        violations.iter().any(|v| v.contains("before any Load")),
        "{violations:?}"
    );
}

/// A doctored trace, task by task: each one ready when it started, its id
/// its position.
#[derive(Default)]
struct Doctored {
    trace: ExecTraceData,
    rows: Vec<u32>,
}

impl Doctored {
    fn task(mut self, worker: WorkerId, op: Op, start_ns: u64, end_ns: u64) -> Self {
        let task = self.trace.records.len();
        self.trace.records.push(TaskRecord {
            task,
            kind: op.kind(),
            worker,
            span: TaskSpan { ready_ns: start_ns, start_ns, end_ns },
            attempts: 1,
        });
        self.trace.ops.push(op);
        self
    }

    /// A stack of `rows` against `B(k,j)`.
    fn gemm(mut self, w: WorkerId, kj: (u32, u32), rows: &[u32], start: u64, end: u64) -> Self {
        let ((k, j), at) = (kj, self.rows.len() as u32);
        self.rows.extend_from_slice(rows);
        let rows = at..self.rows.len() as u32;
        self.task(w, Op::Gemm { k, j, rows }, start, end)
    }

    /// The violations the validator finds.
    fn check(self) -> Vec<String> {
        let stack_rows = self.rows.into();
        let trace = ExecTraceData { stack_rows, total_ns: 1_000_000, ..self.trace };
        let report = ExecReport { trace: Some(trace), ..ExecReport::default() };
        validate_trace_invariants(&report, GPU_MEM)
    }
}

const GPU0: WorkerId = WorkerId { node: 0, lane: 1 };
const GEN0: WorkerId = WorkerId { node: 0, lane: WorkerId::ANY_LANE };

fn load_block(block: u32) -> Op {
    Op::LoadBlock { node: 0, gpu: 0, block }
}

/// A stack waits for the `LoadA` of **every** row, not just its first: a
/// fabricated trace in which one non-first row's tile finishes loading after
/// the stack started is reported, naming that tile.
#[test]
fn validator_flags_a_late_load_of_a_non_first_row() {
    let trace = |late_end| {
        Doctored::default()
            .task(GPU0, load_block(0), 0, 10)
            .task(GPU0, Op::LoadA { i: 4, k: 2 }, 10, 20)
            .task(GPU0, Op::LoadA { i: 6, k: 2 }, 20, late_end)
            .task(GPU0, Op::LoadA { i: 9, k: 2 }, 30, 40)
            .task(GEN0, Op::GenB { k: 2, j: 5 }, 0, 40)
            .gemm(GPU0, (2, 5), &[4, 6, 9], 50, 90)
            .check()
    };
    assert_eq!(trace(30), Vec::<String>::new());
    let violations = trace(60);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(violations[0].contains("Gemm(2,5|4,6,9)"), "{violations:?}");
    assert!(violations[0].contains("before any LoadA(6,2)"), "{violations:?}");
}

/// A stack waits for its own B tile's `GenB` — on whichever of the node's
/// workers ran it — and a stack whose tile was never generated is reported too.
#[test]
fn validator_flags_a_stack_that_overtakes_its_genb() {
    let trace = |genb: Option<u64>| {
        let mut d = Doctored::default()
            .task(GPU0, load_block(0), 0, 10)
            .task(GPU0, Op::LoadA { i: 4, k: 2 }, 10, 20);
        if let Some(end) = genb {
            d = d.task(GEN0, Op::GenB { k: 2, j: 5 }, 5, end);
        }
        d.gemm(GPU0, (2, 5), &[4], 50, 90).check()
    };
    assert_eq!(trace(Some(50)), Vec::<String>::new());
    for late in [Some(51), None] {
        let violations = trace(late);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("before its GenB(2,5) finished"), "{violations:?}");
    }
}

/// The generation window: `GenB` of the lane's n-th first-used B tile may not
/// start before the first stack on tile `n − 2` finished. The doctored lane
/// reads three tiles, one stack each, back to back.
#[test]
fn validator_flags_generation_running_ahead_of_the_window() {
    assert_eq!(GENB_WINDOW, 2, "B streams one tile computing, one ahead");
    let w = GENB_WINDOW as u32;
    let trace = |last_genb_start: u64| {
        let mut d = Doctored::default()
            .task(GPU0, load_block(0), 0, 10)
            .task(GPU0, Op::LoadA { i: 4, k: 2 }, 10, 20);
        for n in 0..=w {
            // Stack n runs in [100 (n + 1), 100 (n + 1) + 50).
            let start = if n == w { last_genb_start } else { 20 };
            let at = 100 * (u64::from(n) + 1);
            d = d
                .task(GEN0, Op::GenB { k: 2, j: n }, start, start + 5)
                .gemm(GPU0, (2, n), &[4], at, at + 50);
        }
        d.check()
    };
    // Stack 0 ends at 150: the last tile's GenB may start then, not before.
    assert_eq!(trace(150), Vec::<String>::new());
    let violations = trace(149);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(violations[0].contains(&format!("GenB(2,{w})")), "{violations:?}");
    assert!(violations[0].contains("ahead"), "{violations:?}");
}

/// Block serialisation: `LoadBlock(b)` waits for `FlushBlock(b − 1)` on the
/// same lane, and a block with no flush before it is reported.
#[test]
fn validator_flags_a_block_loaded_before_the_previous_flush() {
    let trace = |flush: Option<u64>| {
        let mut d = Doctored::default().task(GPU0, load_block(0), 0, 10);
        if let Some(end) = flush {
            d = d.task(GPU0, Op::FlushBlock { node: 0, gpu: 0, block: 0 }, 20, end);
        }
        d.task(GPU0, load_block(1), 40, 50).check()
    };
    assert_eq!(trace(Some(40)), Vec::<String>::new());
    let lane = format!("{GPU0:?}");
    assert_eq!(
        trace(Some(41)),
        [format!("LoadBlock(1) on {lane} started before FlushBlock(0) finished")]
    );
    assert_eq!(trace(None), [format!("LoadBlock(1) on {lane} has no FlushBlock(0)")]);
}

/// On devices tight enough for several chunks a block, a B tile is read by
/// one stack per chunk: it crosses to the device once, stays there until its
/// last chunk's stack, and the run fits the budget it fitted when whole
/// blocks of B were resident. (`MemoryManager` panics on a stack whose B tile
/// is gone, the node store on a tile fetched twice.)
#[test]
fn a_b_tile_survives_until_its_last_chunks_stack() {
    let spec = tight_spec();
    let report = traced_run(&spec, ExecOptions::default());
    assert_eq!(
        validate_trace_invariants(&report, GPU_MEM),
        Vec::<String>::new()
    );
    // Stacks per (node, B tile), from the trace.
    let mut stacks: HashMap<(usize, u32, u32), u64> = HashMap::new();
    let trace = report.trace.as_ref().unwrap();
    let records = &trace.records;
    for r in records {
        if let Op::Gemm { k, j, .. } = trace.ops[r.task] {
            *stacks.entry((r.worker.node, k, j)).or_default() += 1;
        }
    }
    assert!(stacks.values().any(|&n| n > 1), "no block has two chunks reading one B tile");
    assert_eq!(report.b_tiles_generated, stacks.len() as u64);
    // One transfer per B tile, however many stacks read it (a `LoadA` of a
    // tile the previous chunk still holds transfers nothing), and every
    // device drains.
    let loads: u64 = report.devices.iter().map(|(_, d)| d.loads).sum();
    let load_a = records.iter().filter(|r| r.kind == "LoadA").count() as u64;
    assert!(loads <= load_a + stacks.len() as u64, "a later stack re-loaded its B tile");
    for (_, samples) in &report.trace.as_ref().unwrap().mem_samples {
        assert_eq!(samples.last().unwrap().1, 0, "device memory leaked");
    }
}
