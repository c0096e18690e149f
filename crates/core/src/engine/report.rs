//! Execution reports, recovery statistics, and trace validation.
//!
//! Everything the engine tells the caller *about* a run lives here: the
//! aggregate [`ExecReport`], the fault/recovery tallies ([`RecoveryStats`]),
//! the typed trace ([`ExecTraceData`]), and the schedule-invariant checker
//! ([`validate_trace_invariants`]) that gates both numeric traces and the
//! bst-sim replay of the same plan.

use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;

use bst_runtime::comm::{CommEvent, NodeCommStats};
use bst_runtime::data::DataKey;
use bst_runtime::device::DeviceStats;
use bst_runtime::graph::{TaskId, WorkerId};
use bst_runtime::trace::{
    chrome_trace_json_full, text_summary, KindMetrics, MemSample, TaskRecord, TracePhase,
};
use bst_tile::pool::PoolStats;

use super::inspector::{Op, GENB_WINDOW};
#[cfg(doc)]
use super::policies::ExecOptions;

/// Fault-injection and recovery counters of one execution. All zeros (and
/// empty `dead_nodes`) when no [`ExecOptions::fault_plan`] was active.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Injected `GenB` failures (one per failed attempt).
    pub injected_genb: u64,
    /// Injected allocation failures on `LoadBlock`/`LoadA`.
    pub injected_alloc: u64,
    /// Injected dropped `SendA` transfers.
    pub injected_send: u64,
    /// Injected lane stalls.
    pub stalls: u64,
    /// Tasks that needed more than one attempt.
    pub retried_tasks: u64,
    /// Total retry attempts (failed attempts across all tasks).
    pub retry_attempts: u64,
    /// Largest per-task attempt count.
    pub max_attempts: u32,
    /// `B` columns moved off dead nodes by degraded re-planning.
    pub replanned_columns: u64,
    /// Nodes written off by degraded re-planning.
    pub dead_nodes: Vec<usize>,
}

impl RecoveryStats {
    /// Whether anything at all was injected, retried, or re-planned. A
    /// clean run reports `max_attempts == 1` (every task ran once), which
    /// does not count as recovery activity.
    pub fn any(&self) -> bool {
        self.injected_genb
            + self.injected_alloc
            + self.injected_send
            + self.stalls
            + self.retried_tasks
            + self.retry_attempts
            + self.replanned_columns
            > 0
            || self.max_attempts > 1
            || !self.dead_nodes.is_empty()
    }
}

/// Per-run B-tile cache counters — what one execution took from and gave to
/// a persistent [`BTileCache`](bst_runtime::BTileCache). Present only when
/// the run was driven through a cache-equipped entry point (the
/// `ContractionService`); the one-shot [`execute`](crate::engine::execute)
/// path leaves it `None`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BCacheRunStats {
    /// `GenB` tasks served from the cache (generator not called).
    pub hits: u64,
    /// `GenB` tasks that generated (and then cached) their tile.
    pub misses: u64,
    /// Bytes of regeneration the hits avoided.
    pub bytes_saved: u64,
}

/// Aggregate report of a numeric execution.
#[derive(Clone, Debug, Default)]
pub struct ExecReport {
    /// Per-(node, gpu) device statistics.
    pub devices: Vec<((usize, usize), DeviceStats)>,
    /// Bytes of `A` tiles sent across node boundaries.
    pub a_network_bytes: u64,
    /// Of [`ExecReport::a_network_bytes`], the bytes that crossed an
    /// **inter-node** (NIC) link of the node-aware topology. Equal to
    /// `a_network_bytes` with `node_size == 1` (every remote link is
    /// inter-node).
    pub a_network_inter_bytes: u64,
    /// `A` tile messages sent (one per owner → consuming node hop).
    pub a_messages: u64,
    /// GEMM tasks executed.
    pub gemm_tasks: u64,
    /// `B` tiles generated — the ones some stack reads, per-node replicas counted.
    pub b_tiles_generated: u64,
    /// How many `Gemm` tasks each kernel variant executed, as
    /// `(kernel name, count)` — only variants that ran at least once.
    pub gemm_kernel_counts: Vec<(&'static str, u64)>,
    /// Per-node tile-pool counters (index = node): buffer-recycling hits
    /// and misses for C zero-fills and generated B tiles.
    pub pool_stats: Vec<PoolStats>,
    /// Per-node transport totals (index = node): wire-level bytes/messages
    /// sent and received, drops, suppressed duplicates, and the in-flight
    /// high-water mark against the credit window. Unlike
    /// [`ExecReport::a_network_bytes`] (successful application-level `A`
    /// traffic only), these count everything the fabric moved, including
    /// dropped frames and C-reduction traffic.
    pub comm: Vec<NodeCommStats>,
    /// Per-node host-memory high-water marks (index = node) — each node's
    /// private [`TileStore`](bst_runtime::TileStore) peak, no longer
    /// aggregated across nodes.
    pub host_peak_bytes: Vec<u64>,
    /// Per-task-kind aggregate timings (empty unless
    /// [`ExecOptions::tracing`]).
    pub metrics: Vec<KindMetrics>,
    /// Fault-injection and recovery counters (all zero without an active
    /// [`ExecOptions::fault_plan`]).
    pub recovery: RecoveryStats,
    /// Persistent B-tile cache counters of this run (`None` on the
    /// one-shot paths, which run without a cache).
    pub b_cache: Option<BCacheRunStats>,
    /// The full typed trace (present only under [`ExecOptions::tracing`]).
    pub trace: Option<ExecTraceData>,
}

impl ExecReport {
    /// Plain-text summary: per-kind time breakdown plus per-device
    /// peak/transfer/eviction lines. `gpu_capacity` is the per-device byte
    /// budget the peaks are reported against (`config.device.gpu_mem_bytes`).
    /// Without [`ExecOptions::tracing`] only the device table is populated.
    pub fn text_summary(&self, gpu_capacity: u64) -> String {
        let devices: Vec<_> = self
            .devices
            .iter()
            .map(|&((node, gpu), s)| {
                (
                    node,
                    gpu,
                    s.peak_bytes,
                    gpu_capacity,
                    s.h2d_bytes,
                    s.d2d_bytes,
                    s.d2h_bytes,
                    s.evictions,
                )
            })
            .collect();
        let total_ns = self.trace.as_ref().map(|t| t.total_ns).unwrap_or(0);
        let mut out = text_summary(&self.metrics, total_ns, &devices);
        if self.comm.iter().any(|c| c.sent_msgs + c.recv_msgs > 0) {
            for (node, cs) in self.comm.iter().enumerate() {
                let host_peak = self.host_peak_bytes.get(node).copied().unwrap_or(0);
                out.push_str(&format!(
                    "comm n{node}: sent {} B / {} msgs ({} B / {} msgs inter), \
                     recv {} B / {} msgs ({} B / {} msgs inter), \
                     dropped {}, dup {}, in-flight inter {}/{} intra {}/{}, \
                     host peak {} B\n",
                    cs.sent_bytes,
                    cs.sent_msgs,
                    cs.inter_sent_bytes,
                    cs.inter_sent_msgs,
                    cs.recv_bytes,
                    cs.recv_msgs,
                    cs.inter_recv_bytes,
                    cs.inter_recv_msgs,
                    cs.dropped_msgs,
                    cs.duplicate_msgs,
                    cs.max_in_flight,
                    cs.credit_window,
                    cs.intra_max_in_flight,
                    cs.intra_credit_window,
                    host_peak,
                ));
            }
        }
        if let Some(bc) = &self.b_cache {
            out.push_str(&format!(
                "b-cache: {} hits / {} misses, {} B of regeneration saved\n",
                bc.hits, bc.misses, bc.bytes_saved,
            ));
        }
        if self.recovery.any() {
            let r = &self.recovery;
            out.push_str(&format!(
                "recovery: {} injected (GenB {}, alloc {}, send {}), {} stalls, \
                 {} tasks retried over {} attempts (max {}), \
                 {} columns re-planned off {:?}\n",
                r.injected_genb + r.injected_alloc + r.injected_send,
                r.injected_genb,
                r.injected_alloc,
                r.injected_send,
                r.stalls,
                r.retried_tasks,
                r.retry_attempts,
                r.max_attempts,
                r.replanned_columns,
                r.dead_nodes,
            ));
        }
        out
    }

    /// The maximum number of `GenB` task spans overlapping in time on any
    /// single node of this traced report — `1` means generation was fully
    /// serialised, `> 1` means pooled workers actually overlapped
    /// generation (never more than there are workers).
    ///
    /// # Panics
    /// Panics if the report carries no trace (run with
    /// [`ExecOptions::tracing`]).
    pub fn max_concurrent_genb(&self) -> usize {
        let trace = self
            .trace
            .as_ref()
            .expect("max_concurrent_genb needs a traced report");
        // Sweep line per node over (start, +1) / (end, -1) events.
        let mut events: HashMap<usize, Vec<(u64, i64)>> = HashMap::new();
        for r in trace.records.iter().filter(|r| r.kind == "GenB") {
            let node = events.entry(r.worker.node).or_default();
            node.push((r.span.start_ns, 1));
            node.push((r.span.end_ns, -1));
        }
        let mut peak = 0i64;
        for (_, mut evs) in events {
            // End before start at equal timestamps: touching spans don't
            // overlap.
            evs.sort_by_key(|&(t, d)| (t, d));
            let mut live = 0i64;
            for (_, d) in evs {
                live += d;
                peak = peak.max(live);
            }
        }
        peak.max(0) as usize
    }
}

/// Per-device memory-occupancy logs, keyed by `(node, gpu)`.
pub type DeviceMemLog = Vec<((usize, usize), Vec<MemSample>)>;

/// The task records, their typed ops, and the device-memory samples of one
/// traced execution ([`ExecOptions::tracing`]).
#[derive(Clone, Debug, Default)]
pub struct ExecTraceData {
    /// One record per DAG task, indexed by task id, its kind from the
    /// executor's task vocabulary (`SendA`, `RecvA`, `GenB`, `LoadBlock`,
    /// `LoadA`, `Gemm`, `EvictChunk`, `FlushBlock`, `ReduceC`).
    pub records: Vec<TaskRecord>,
    /// Every task's op, indexed by task id.
    pub ops: Vec<Op>,
    /// The lowering's `Gemm` row table, which each [`Op::Gemm`]'s row range
    /// indexes ([`Lowered::stack_rows`](super::inspector::Lowered::stack_rows)).
    pub stack_rows: Arc<[u32]>,
    /// Per-(node, gpu) resident-byte samples, one taken after every
    /// device-touching task, on the same clock as the records.
    pub mem_samples: DeviceMemLog,
    /// The transport's event stream (`Sent`/`Received`/drops/duplicates
    /// with byte counts), time-sorted, on the same clock as the records.
    pub comm_events: Vec<CommEvent>,
    /// Wall-clock span of the execution in nanoseconds.
    pub total_ns: u64,
}

impl ExecTraceData {
    /// Task `task`'s label, [`Op::detail`].
    pub fn detail(&self, task: TaskId) -> String {
        self.ops[task].detail(&self.stack_rows)
    }

    /// The C/A-tile rows of a `Gemm` stack, in execution order.
    pub fn rows_of(&self, rows: &Range<u32>) -> &[u32] {
        &self.stack_rows[rows.start as usize..rows.end as usize]
    }

    /// Renders the trace as `chrome://tracing` / Perfetto JSON (one track
    /// per worker lane, each task's slice named by its [`Op::detail`],
    /// counter tracks for device occupancy, and a `nic` track per node with
    /// `Sent → Received` message slices).
    pub fn chrome_trace_json(&self) -> String {
        let label = |r: &TaskRecord| self.detail(r.task);
        chrome_trace_json_full(&self.records, label, &self.mem_samples, &self.comm_events)
    }
}

/// Checks the executor-level trace invariants on a traced report, returning
/// human-readable violations (empty = all hold):
///
/// 1. every task's life-cycle is ordered (ready ≤ start ≤ end);
/// 2. no `Gemm` stack starts before a `LoadA` of the A tile of **every**
///    one of its rows *and* its block's `LoadBlock` finished on its lane,
///    *and* its node's `GenB` of its own B tile finished (its operands must
///    be on-device, or on the host for the stack to bring over);
/// 3. `LoadBlock(b+1)` never starts before `FlushBlock(b)` finished on the
///    same lane (§3.2.2 blocking block transfers);
/// 4. every device's high-water mark stays within `gpu_capacity`;
/// 5. B is generated at most a window ahead of its consumption: taking a
///    lane's stacks in lowering (task id) order, the `GenB` of the n-th B
///    tile they first read never starts before the first stack on tile
///    `n −` [`GENB_WINDOW`] finished;
/// 6. transport causality: every `Received` comm event has a matching
///    earlier `Sent`, and a remotely-delivered tile's `Received(k)`
///    happens-before the first `LoadA` of tile `k` on the destination node
///    (no handler uses a tile its node has not received).
///
/// The invariants hold for any trace in the engine's task vocabulary — the
/// numeric engine's traces and the bst-sim DAG replay of the same plan are
/// both validated with this one checker.
///
/// # Panics
/// Panics if the report carries no trace (run with
/// [`ExecOptions::tracing`]).
pub fn validate_trace_invariants(report: &ExecReport, gpu_capacity: u64) -> Vec<String> {
    let trace = report
        .trace
        .as_ref()
        .expect("validate_trace_invariants needs a traced report");
    let mut errors = Vec::new();
    let op = |r: &TaskRecord| &trace.ops[r.task];

    for r in &trace.records {
        if !(r.span.ready_ns <= r.span.start_ns && r.span.start_ns <= r.span.end_ns) {
            errors.push(format!("{}: life-cycle out of order", trace.detail(r.task)));
        }
    }

    let mut by_lane: HashMap<WorkerId, Vec<&TaskRecord>> = HashMap::new();
    // Each node's `GenB` spans by `(node, k, j)`, whatever worker ran them.
    let mut genb: HashMap<(usize, u32, u32), (u64, u64)> = HashMap::new();
    for r in &trace.records {
        by_lane.entry(r.worker).or_default().push(r);
        if let Op::GenB { k, j } = *op(r) {
            genb.insert((r.worker.node, k, j), (r.span.start_ns, r.span.end_ns));
        }
    }
    for (lane, records) in &by_lane {
        if lane.lane == 0 || lane.is_any() {
            continue; // CPU lanes and `GenB`s have no device discipline to check
        }
        // Indexed once per lane, so the check is linear in the trace: the
        // earliest finish of a `LoadA` per tile, the `LoadBlock` spans by
        // start time, and each block's `FlushBlock` finish.
        let mut load_a_end: HashMap<(u32, u32), u64> = HashMap::new();
        let mut load_blocks: Vec<(u64, u64)> = Vec::new();
        let mut flush_end: HashMap<u32, u64> = HashMap::new();
        let mut gemms: Vec<(&TaskRecord, u32, u32, &[u32])> = Vec::new();
        for &r in records {
            match op(r) {
                &Op::LoadA { i, k } => {
                    let end = load_a_end.entry((i, k)).or_insert(u64::MAX);
                    *end = (*end).min(r.span.end_ns);
                }
                Op::LoadBlock { .. } => load_blocks.push((r.span.start_ns, r.span.end_ns)),
                &Op::FlushBlock { block, .. } => {
                    flush_end.insert(block, r.span.end_ns);
                }
                Op::Gemm { k, j, rows } => {
                    gemms.push((r, *k, *j, trace.rows_of(rows)));
                }
                _ => {}
            }
        }
        load_blocks.sort_unstable();
        gemms.sort_unstable_by_key(|g| g.0.task);
        // End of the first stack on each B tile, in first-use order.
        let mut first_use_end: Vec<u64> = Vec::new();
        let mut seen_b: HashSet<(u32, u32)> = HashSet::new();
        for (gemm, k, j, rows) in gemms {
            let start = gemm.span.start_ns;
            if rows.is_empty() {
                errors.push(format!("{}: a stack without rows", trace.detail(gemm.task)));
            }
            let generated = genb.get(&(lane.node, k, j));
            if generated.is_none_or(|&(_, end)| end > start) {
                errors.push(format!(
                    "{} on {lane:?} started before its GenB({k},{j}) finished",
                    trace.detail(gemm.task)
                ));
            }
            if seen_b.insert((k, j)) {
                let behind = first_use_end.len().checked_sub(GENB_WINDOW).map(|m| first_use_end[m]);
                if generated.zip(behind).is_some_and(|(&(genb_start, _), end)| genb_start < end) {
                    errors.push(format!(
                        "GenB({k},{j}) on n{} started more than {GENB_WINDOW} B tiles ahead of {lane:?}",
                        lane.node
                    ));
                }
                first_use_end.push(gemm.span.end_ns);
            }
            // Every row's A tile, not just the first one's.
            for &i in rows {
                if load_a_end.get(&(i, k)).is_none_or(|&end| end > start) {
                    errors.push(format!(
                        "{} on {lane:?} started before any LoadA({i},{k}) finished",
                        trace.detail(gemm.task)
                    ));
                }
            }
            // Its block's transfer: the last `LoadBlock` the lane started
            // before the stack (a lane runs one task at a time).
            let started_before = load_blocks.partition_point(|&(s, _)| s <= start);
            let has_block =
                started_before.checked_sub(1).is_some_and(|b| load_blocks[b].1 <= start);
            if !has_block {
                errors.push(format!(
                    "{} on {lane:?} started before any LoadBlock finished",
                    trace.detail(gemm.task)
                ));
            }
        }
        for &r in records {
            let Op::LoadBlock { block: b @ 1.., .. } = *op(r) else { continue };
            match flush_end.get(&(b - 1)) {
                Some(&end) if r.span.start_ns >= end => {}
                Some(_) => errors.push(format!(
                    "LoadBlock({b}) on {lane:?} started before FlushBlock({}) finished",
                    b - 1
                )),
                None => errors.push(format!(
                    "LoadBlock({b}) on {lane:?} has no FlushBlock({})",
                    b - 1
                )),
            }
        }
    }

    for &((node, gpu), stats) in &report.devices {
        if stats.peak_bytes > gpu_capacity {
            errors.push(format!(
                "device n{node}.g{gpu} peaked at {} B > budget {gpu_capacity} B",
                stats.peak_bytes
            ));
        }
    }

    // Transport causality, matched by the events' typed keys.
    let mut sent_time: HashMap<(usize, DataKey, u32), u64> = HashMap::new();
    let mut recv_time: HashMap<(usize, DataKey), u64> = HashMap::new();
    for e in &trace.comm_events {
        match e.phase {
            TracePhase::Sent => {
                sent_time.entry((e.dst, e.key, e.epoch)).or_insert(e.t_ns);
            }
            TracePhase::Received => {
                match sent_time.get(&(e.dst, e.key, e.epoch)) {
                    Some(&s) if s <= e.t_ns => {}
                    Some(&s) => errors.push(format!(
                        "Received {:?} on n{} at {} ns before its Sent at {s} ns",
                        e.key, e.dst, e.t_ns
                    )),
                    None => errors.push(format!(
                        "Received {:?} (epoch {}) on n{} with no matching Sent",
                        e.key, e.epoch, e.dst
                    )),
                }
                recv_time.entry((e.dst, e.key)).or_insert(e.t_ns);
            }
            _ => {}
        }
    }
    for r in &trace.records {
        let &Op::LoadA { i, k } = op(r) else { continue };
        if let Some(&t) = recv_time.get(&(r.worker.node, DataKey::A(i, k))) {
            if r.span.start_ns < t {
                errors.push(format!(
                    "{} on n{} started at {} ns before its tile was Received at {t} ns",
                    trace.detail(r.task),
                    r.worker.node,
                    r.span.start_ns
                ));
            }
        }
    }

    errors
}
