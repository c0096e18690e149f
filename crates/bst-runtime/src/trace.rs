//! Scheduler tracing and metrics.
//!
//! Every engine run records each task's life-cycle — *ready* (last
//! dependency completed, or initially dependency-free), *start* (a worker
//! picked it up), *end* (the handler returned) — as one [`TaskSpan`] per
//! task, indexed by task id ([`ExecTrace::spans`]). The scheduler writes a
//! span under the lock it takes anyway to release the task's successors, so
//! recording costs two or three clock reads and a store per task, and no
//! allocation beyond the one span vector. Timestamps come from one shared
//! monotonic epoch ([`TraceClock`]), so spans of different lanes are
//! comparable.
//!
//! On top of the raw [`ExecTrace`] this module provides:
//!
//! * [`ExecTrace::validate`] — the well-formedness invariants every trace
//!   must satisfy (used by the property tests);
//! * [`TaskRecord`] + [`chrome_trace_json_full`] — a `chrome://tracing` /
//!   Perfetto-compatible JSON exporter (hand-rolled; no serialization
//!   dependency), which takes each task's label from its caller;
//! * [`text_summary`] — a plain-text per-kind time breakdown.

use crate::data::DataKey;
use crate::graph::{TaskGraph, TaskId, WorkerId};
use std::collections::HashMap;
use std::time::Instant;

/// Shared monotonic epoch for one execution. All trace timestamps are
/// nanoseconds since this epoch.
#[derive(Clone, Copy, Debug)]
pub struct TraceClock {
    epoch: Instant,
}

impl TraceClock {
    /// Starts the clock now.
    pub fn start() -> Self {
        Self {
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Phase of a transport event ([`crate::comm::CommEvent`]), in causal order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TracePhase {
    /// A message left its sending node.
    Sent,
    /// A message was deposited into its destination node's store by the
    /// progress thread.
    Received,
    /// A message was dropped in flight (an injected transfer fault).
    Failed,
    /// A duplicate delivery was suppressed.
    Retried,
}

/// One task's life-cycle times (ns since the execution's [`TraceClock`]
/// epoch). A retried task keeps the time it first became ready and starts
/// at its final attempt.
#[derive(Clone, Copy, Debug, Default)]
pub struct TaskSpan {
    /// When the task became ready (ns since epoch).
    pub ready_ns: u64,
    /// When a worker started running it.
    pub start_ns: u64,
    /// When its handler returned.
    pub end_ns: u64,
}

impl TaskSpan {
    /// Handler execution time.
    pub fn exec_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Time spent ready in the worker FIFO before running.
    pub fn queue_ns(&self) -> u64 {
        self.start_ns.saturating_sub(self.ready_ns)
    }
}

/// A violation of trace well-formedness found by [`ExecTrace::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// A task's phases are out of causal order (ready ≤ start ≤ end).
    PhaseOrder {
        /// The offending task.
        task: TaskId,
    },
    /// The number of traced tasks differs from the DAG size.
    TaskCount {
        /// Spans recorded.
        traced: usize,
        /// Tasks in the DAG.
        expected: usize,
    },
    /// A task started running before one of its dependencies finished.
    DependencyOverlap {
        /// The offending task.
        task: TaskId,
        /// The dependency that had not finished.
        dep: TaskId,
    },
    /// Two tasks of one lane overlapped in time.
    LaneOverlap {
        /// The lane.
        worker: WorkerId,
        /// The task that started before the previous one ended.
        task: TaskId,
        /// The task still running on the lane.
        prev: TaskId,
    },
    /// A lane ran a task before a lower-id task of its own.
    LaneOrder {
        /// The lane.
        worker: WorkerId,
        /// The task that started before `earlier` ended.
        task: TaskId,
        /// The lower-id task of the lane that ran after it.
        earlier: TaskId,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::PhaseOrder { task } => write!(f, "task {task}: phases out of order"),
            Self::TaskCount { traced, expected } => {
                write!(f, "{traced} traced tasks, DAG has {expected}")
            }
            Self::DependencyOverlap { task, dep } => {
                write!(f, "task {task} ran before dependency {dep} finished")
            }
            Self::LaneOverlap { worker, task, prev } => {
                write!(f, "task {task} started on {worker:?} before task {prev} ended")
            }
            Self::LaneOrder { worker, task, earlier } => {
                write!(f, "task {task} ran on {worker:?} before the lower-id task {earlier}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// The trace of one [`TaskGraph`] execution.
#[derive(Clone, Debug, Default)]
pub struct ExecTrace {
    /// Each task's life-cycle times, indexed by task id.
    pub spans: Vec<TaskSpan>,
    /// Wall-clock span of the execution (ns from epoch to the last join).
    pub total_ns: u64,
}

impl ExecTrace {
    /// Checks the trace against `graph`, returning every violated
    /// invariant:
    ///
    /// 1. there is one span per DAG task;
    /// 2. ready ≤ start ≤ end per task;
    /// 3. no task starts before all its dependencies are done;
    /// 4. the tasks of one lane never overlap (order-free tasks may);
    /// 5. a lane runs its tasks in id order (its order is no edge).
    pub fn validate<T>(&self, graph: &TaskGraph<T>) -> Vec<TraceError> {
        if self.spans.len() != graph.len() {
            return vec![TraceError::TaskCount {
                traced: self.spans.len(),
                expected: graph.len(),
            }];
        }
        let mut errors = Vec::new();
        for (task, s) in self.spans.iter().enumerate() {
            if !(s.ready_ns <= s.start_ns && s.start_ns <= s.end_ns) {
                errors.push(TraceError::PhaseOrder { task });
            }
            for &dep in graph.deps(task) {
                if s.start_ns < self.spans[dep].end_ns {
                    errors.push(TraceError::DependencyOverlap { task, dep });
                }
            }
        }
        let mut runs: Vec<(WorkerId, u64, u64, TaskId)> = (0..graph.len())
            .filter(|&t| !graph.worker(t).is_any())
            .map(|t| (graph.worker(t), self.spans[t].start_ns, self.spans[t].end_ns, t))
            .collect();
        runs.sort_unstable();
        for pair in runs.windows(2) {
            let ((worker, _, prev_end, prev), (next_worker, start, _, task)) = (pair[0], pair[1]);
            if worker == next_worker && start < prev_end {
                errors.push(TraceError::LaneOverlap { worker, task, prev });
            } else if worker == next_worker && task < prev {
                errors.push(TraceError::LaneOrder { worker, task: prev, earlier: task });
            }
        }
        errors
    }
}

// ---------------------------------------------------------------------------
// Labeled task records and exporters
// ---------------------------------------------------------------------------

/// A traced task — what the exporters consume. Produced by whoever knows
/// the payload semantics (e.g. `core::engine` for its `Op` vocabulary); the
/// exporters below are payload-agnostic and take each task's label from
/// their caller.
#[derive(Clone, Debug)]
pub struct TaskRecord {
    /// Task id within its graph.
    pub task: TaskId,
    /// Task kind, e.g. `"Gemm"` — the per-kind aggregation key.
    pub kind: &'static str,
    /// Worker the task ran on.
    pub worker: WorkerId,
    /// Life-cycle times.
    pub span: TaskSpan,
    /// Handler attempts (1 unless the task was retried after transient
    /// failures).
    pub attempts: u32,
}

/// Per-kind aggregate metrics over a set of [`TaskRecord`]s.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KindMetrics {
    /// Task kind.
    pub kind: &'static str,
    /// Number of tasks of this kind.
    pub count: u64,
    /// Total handler execution time.
    pub total_exec_ns: u64,
    /// Largest single handler execution time.
    pub max_exec_ns: u64,
    /// Total time spent ready-but-queued.
    pub total_queue_ns: u64,
}

/// Aggregates records by kind, sorted by descending total execution time.
pub fn aggregate_by_kind(records: &[TaskRecord]) -> Vec<KindMetrics> {
    let mut by_kind: HashMap<&'static str, KindMetrics> = HashMap::new();
    for r in records {
        let m = by_kind.entry(r.kind).or_insert_with(|| KindMetrics {
            kind: r.kind,
            ..KindMetrics::default()
        });
        m.count += 1;
        m.total_exec_ns += r.span.exec_ns();
        m.max_exec_ns = m.max_exec_ns.max(r.span.exec_ns());
        m.total_queue_ns += r.span.queue_ns();
    }
    let mut v: Vec<_> = by_kind.into_values().collect();
    v.sort_by(|a, b| b.total_exec_ns.cmp(&a.total_exec_ns).then(a.kind.cmp(b.kind)));
    v
}

/// A memory-occupancy sample of one device: (`t_ns`, resident bytes).
pub type MemSample = (u64, u64);

/// Escapes `s` for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Builds Chrome-trace (`chrome://tracing` / Perfetto "JSON array format")
/// events by hand — the workspace intentionally has no serialization
/// dependency.
#[derive(Debug, Default)]
pub struct ChromeTraceBuilder {
    events: Vec<String>,
}

impl ChromeTraceBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events added so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were added.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds a complete ("X") duration event. `args` are string key/value
    /// pairs shown in the trace viewer's detail pane.
    #[allow(clippy::too_many_arguments)]
    pub fn complete_event(
        &mut self,
        name: &str,
        category: &str,
        pid: usize,
        tid: usize,
        ts_us: f64,
        dur_us: f64,
        args: &[(&str, String)],
    ) {
        let args_json = args
            .iter()
            .map(|(k, v)| format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)))
            .collect::<Vec<_>>()
            .join(",");
        self.events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{{}}}}}",
            json_escape(name),
            json_escape(category),
            pid,
            tid,
            ts_us,
            dur_us.max(0.001), // zero-width slices vanish in the viewer
            args_json,
        ));
    }

    /// Adds a counter ("C") event: a named time series sample.
    pub fn counter_event(&mut self, name: &str, pid: usize, ts_us: f64, series: &[(&str, f64)]) {
        let args_json = series
            .iter()
            .map(|(k, v)| format!("\"{}\":{:.3}", json_escape(k), v))
            .collect::<Vec<_>>()
            .join(",");
        self.events.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"C\",\"pid\":{},\"ts\":{:.3},\"args\":{{{}}}}}",
            json_escape(name),
            pid,
            ts_us,
            args_json,
        ));
    }

    /// Adds a metadata ("M") event naming a process or thread in the
    /// viewer.
    pub fn name_event(&mut self, what: &str, pid: usize, tid: usize, name: &str) {
        self.events.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            json_escape(what),
            pid,
            tid,
            json_escape(name),
        ));
    }

    /// Renders the complete JSON document (an event array, the format
    /// `chrome://tracing` and Perfetto both load directly).
    pub fn finish(self) -> String {
        let mut out = String::from("[\n");
        out.push_str(&self.events.join(",\n"));
        out.push_str("\n]\n");
        out
    }
}

/// The `tid` of a node's NIC track in the Chrome export — far above any
/// real lane so the transport renders as its own row under each node.
pub const NIC_TID: usize = 999;

/// The `tid` of a node's order-free tasks ([`WorkerId::any`]) in the Chrome
/// export, just below [`NIC_TID`].
pub const ANY_TID: usize = NIC_TID - 1;

/// Renders task records (plus optional per-device memory-occupancy samples)
/// as a Chrome-trace JSON document; `label` names each task's slice (its
/// category is the record's kind). Convention: `pid` = node,
/// `tid` = lane (0 = CPU, `1+g` = GPU g, [`ANY_TID`] for the node's
/// order-free tasks, whose slices may overlap); one extra counter track per
/// sampled device. The transport's
/// [`CommEvent`](crate::comm::CommEvent) stream renders too: each delivered
/// message becomes a slice on the destination node's `nic` track spanning
/// `Sent → Received` (so transfer/wait time is visible next to the compute
/// lanes), with byte counts and epoch in the detail pane; in-flight drops
/// and suppressed duplicates render as zero-width marker slices.
pub fn chrome_trace_json_full(
    records: &[TaskRecord],
    label: impl Fn(&TaskRecord) -> String,
    mem_samples: &[((usize, usize), Vec<MemSample>)],
    comm_events: &[crate::comm::CommEvent],
) -> String {
    let mut b = ChromeTraceBuilder::new();
    let mut nic_named: std::collections::HashSet<usize> = Default::default();
    // Match each non-Sent event to its Sent time by (key, src, dst, epoch).
    let mut sent_at: HashMap<(DataKey, usize, usize, u32), u64> = HashMap::new();
    for e in comm_events {
        if e.phase == TracePhase::Sent {
            sent_at.insert((e.key, e.src, e.dst, e.epoch), e.t_ns);
        }
    }
    for e in comm_events {
        let (name_prefix, cat) = match e.phase {
            TracePhase::Sent => continue, // rendered as the slice start
            TracePhase::Received => ("recv", "Comm"),
            TracePhase::Failed => ("drop", "CommDrop"),
            TracePhase::Retried => ("dup", "CommDup"),
        };
        if nic_named.insert(e.dst) {
            b.name_event("thread_name", e.dst, NIC_TID, "nic");
        }
        let start_ns = sent_at.get(&(e.key, e.src, e.dst, e.epoch)).copied().unwrap_or(e.t_ns);
        b.complete_event(
            &format!("{name_prefix} {:?} {}->{}", e.key, e.src, e.dst),
            cat,
            e.dst,
            NIC_TID,
            start_ns.min(e.t_ns) as f64 / 1e3,
            e.t_ns.saturating_sub(start_ns) as f64 / 1e3,
            &[
                ("bytes", e.bytes.to_string()),
                ("epoch", e.epoch.to_string()),
                ("src", e.src.to_string()),
            ],
        );
    }
    let mut seen_threads: std::collections::HashSet<(usize, usize)> = Default::default();
    for r in records {
        let tid = if r.worker.is_any() { ANY_TID } else { r.worker.lane };
        if seen_threads.insert((r.worker.node, tid)) {
            b.name_event("process_name", r.worker.node, 0, &format!("node{}", r.worker.node));
            let tname = match r.worker.lane {
                0 => "cpu".to_string(),
                WorkerId::ANY_LANE => "any".to_string(),
                lane => format!("gpu{}", lane - 1),
            };
            b.name_event("thread_name", r.worker.node, tid, &tname);
        }
        let mut args = vec![
            ("task", r.task.to_string()),
            ("queue_us", format!("{:.3}", r.span.queue_ns() as f64 / 1e3)),
        ];
        if r.attempts > 1 {
            // Recovery visibility: retried tasks carry their attempt count
            // into the viewer's detail pane.
            args.push(("attempts", r.attempts.to_string()));
        }
        b.complete_event(
            &label(r),
            r.kind,
            r.worker.node,
            tid,
            r.span.start_ns as f64 / 1e3,
            r.span.exec_ns() as f64 / 1e3,
            &args,
        );
    }
    for ((node, gpu), samples) in mem_samples {
        let name = format!("node{node} gpu{gpu} resident");
        for &(t_ns, bytes) in samples {
            b.counter_event(&name, *node, t_ns as f64 / 1e3, &[("bytes", bytes as f64)]);
        }
    }
    b.finish()
}

/// Renders a plain-text summary: wall-clock, a per-kind time breakdown
/// table, and (when provided) per-device memory/transfer lines. `kinds` is
/// the output of [`aggregate_by_kind`]; `devices` rows are
/// `(node, gpu, peak_bytes, capacity, h2d, d2d, d2h, evictions)`.
#[allow(clippy::type_complexity)]
pub fn text_summary(
    kinds: &[KindMetrics],
    total_ns: u64,
    devices: &[(usize, usize, u64, u64, u64, u64, u64, u64)],
) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let n_tasks: u64 = kinds.iter().map(|k| k.count).sum();
    let _ = writeln!(
        out,
        "trace summary: {} tasks, wall {:.3} ms",
        n_tasks,
        total_ns as f64 / 1e6
    );
    let _ = writeln!(
        out,
        "{:<12} {:>8} {:>12} {:>12} {:>12}",
        "kind", "count", "total ms", "max ms", "queued ms"
    );
    for k in kinds {
        let _ = writeln!(
            out,
            "{:<12} {:>8} {:>12.3} {:>12.3} {:>12.3}",
            k.kind,
            k.count,
            k.total_exec_ns as f64 / 1e6,
            k.max_exec_ns as f64 / 1e6,
            k.total_queue_ns as f64 / 1e6,
        );
    }
    if !devices.is_empty() {
        let _ = writeln!(
            out,
            "{:<12} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "device", "peak B", "of cap", "h2d B", "d2d B", "d2h B", "evict"
        );
        for &(node, gpu, peak, cap, h2d, d2d, d2h, evictions) in devices {
            let _ = writeln!(
                out,
                "{:<12} {:>12} {:>9.1}% {:>10} {:>10} {:>10} {:>10}",
                format!("n{node}.g{gpu}"),
                peak,
                if cap > 0 { 100.0 * peak as f64 / cap as f64 } else { 0.0 },
                h2d,
                d2d,
                d2h,
                evictions,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(node: usize, lane: usize) -> WorkerId {
        WorkerId { node, lane }
    }

    fn rec(task: TaskId, kind: &'static str, worker: WorkerId, ready: u64, start: u64, end: u64) -> TaskRecord {
        TaskRecord {
            task,
            kind,
            worker,
            span: TaskSpan {
                ready_ns: ready,
                start_ns: start,
                end_ns: end,
            },
            attempts: 1,
        }
    }

    #[test]
    fn clock_is_monotone() {
        let clock = TraceClock::start();
        let a = clock.now_ns();
        let b = clock.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn span_arithmetic() {
        let s = TaskSpan {
            ready_ns: 10,
            start_ns: 30,
            end_ns: 100,
        };
        assert_eq!(s.queue_ns(), 20);
        assert_eq!(s.exec_ns(), 70);
    }

    #[test]
    fn aggregation_groups_and_sorts() {
        let records = vec![
            rec(0, "Load", w(0, 1), 0, 10, 20),
            rec(1, "Gemm", w(0, 1), 0, 20, 120),
            rec(2, "Gemm", w(0, 1), 5, 120, 180),
            rec(3, "Load", w(0, 1), 0, 180, 185),
        ];
        let kinds = aggregate_by_kind(&records);
        assert_eq!(kinds.len(), 2);
        assert_eq!(kinds[0].kind, "Gemm");
        assert_eq!(kinds[0].count, 2);
        assert_eq!(kinds[0].total_exec_ns, 160);
        assert_eq!(kinds[0].max_exec_ns, 100);
        assert_eq!(kinds[1].kind, "Load");
        assert_eq!(kinds[1].total_exec_ns, 15);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("tab\there"), "tab\\there");
    }

    #[test]
    fn chrome_export_is_wellformed_json_array() {
        let records = vec![
            rec(0, "Load", w(0, 1), 0, 1_000, 2_000),
            rec(1, "Gemm", w(1, 2), 500, 2_000, 9_000),
        ];
        let samples = vec![((0usize, 0usize), vec![(1_000u64, 64u64), (2_000, 0)])];
        let label = |r: &TaskRecord| format!("{}[{}]", r.kind, r.task);
        let json = chrome_trace_json_full(&records, label, &samples, &[]);
        // Structural sanity without a JSON parser dependency: balanced
        // brackets/braces, one object per event line.
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"cat\":\"Gemm\""));
        assert!(json.contains("\"name\":\"Gemm[1]\""));
        assert!(json.contains("gpu1"));
    }

    #[test]
    fn text_summary_contains_kinds_and_devices() {
        let records = vec![
            rec(0, "Gemm", w(0, 1), 0, 0, 2_000_000),
            rec(1, "Load", w(0, 1), 0, 2_000_000, 2_500_000),
        ];
        let s = text_summary(
            &aggregate_by_kind(&records),
            3_000_000,
            &[(0, 0, 512, 1024, 100, 0, 50, 3)],
        );
        assert!(s.contains("Gemm"), "{s}");
        assert!(s.contains("Load"), "{s}");
        assert!(s.contains("n0.g0"), "{s}");
        assert!(s.contains("50.0%"), "{s}");
    }

    #[test]
    fn validate_catches_malformed_traces() {
        let mut g: TaskGraph<u32> = TaskGraph::new();
        let a = g.add_task(0, w(0, 0));
        let b = g.add_task(1, w(0, 0));
        g.add_dep(b, a);
        let span = |ready_ns, start_ns, end_ns| TaskSpan { ready_ns, start_ns, end_ns };

        // A well-formed trace validates cleanly.
        let good = ExecTrace { spans: vec![span(0, 10, 20), span(20, 25, 30)], total_ns: 30 };
        assert!(good.validate(&g).is_empty(), "{:?}", good.validate(&g));

        // Dependency overlap: b runs before a is done, on a's lane.
        let mut bad = good.clone();
        bad.spans[b] = span(15, 15, 30);
        assert_eq!(
            bad.validate(&g),
            vec![
                TraceError::DependencyOverlap { task: b, dep: a },
                TraceError::LaneOverlap { worker: w(0, 0), task: b, prev: a },
            ]
        );

        // Out of causal order.
        let mut backwards = good.clone();
        backwards.spans[b] = span(26, 25, 30);
        assert_eq!(backwards.validate(&g), vec![TraceError::PhaseOrder { task: b }]);

        // A span missing.
        let mut truncated = good;
        truncated.spans.pop();
        assert_eq!(
            truncated.validate(&g),
            vec![TraceError::TaskCount { traced: 1, expected: 2 }]
        );
    }

    #[test]
    fn validate_catches_a_lane_out_of_id_order() {
        let mut g: TaskGraph<u32> = TaskGraph::new();
        let a = g.add_task(0, w(0, 1));
        let b = g.add_task(1, w(0, 1));
        let span = |start_ns, end_ns| TaskSpan { ready_ns: 0, start_ns, end_ns };
        let in_order = ExecTrace { spans: vec![span(0, 10), span(10, 20)], total_ns: 20 };
        assert_eq!(in_order.validate(&g), Vec::new());

        // b ran first: no overlap and no dependency broken, but the order.
        let swapped = ExecTrace { spans: vec![span(10, 20), span(0, 10)], total_ns: 20 };
        assert_eq!(
            swapped.validate(&g),
            vec![TraceError::LaneOrder { worker: w(0, 1), task: b, earlier: a }]
        );

        // Order-free tasks keep no order.
        let mut free: TaskGraph<u32> = TaskGraph::new();
        free.add_task(0, WorkerId::any(0));
        free.add_task(1, WorkerId::any(0));
        assert_eq!(swapped.validate(&free), Vec::new());
    }

    #[test]
    fn order_free_tasks_may_overlap() {
        let mut g: TaskGraph<u32> = TaskGraph::new();
        g.add_task(0, WorkerId::any(0));
        g.add_task(1, WorkerId::any(0));
        let span = TaskSpan { ready_ns: 0, start_ns: 0, end_ns: 10 };
        let trace = ExecTrace { spans: vec![span; 2], total_ns: 10 };
        assert_eq!(trace.validate(&g), Vec::new());
    }

    #[test]
    fn chrome_export_labels_retried_tasks() {
        let mut retried = rec(0, "GenB", w(0, 3), 0, 1_000, 2_000);
        retried.attempts = 3;
        let records = [retried, rec(1, "Gemm", w(0, 1), 0, 2_000, 3_000)];
        let json = chrome_trace_json_full(&records, |r| r.kind.to_string(), &[], &[]);
        assert!(json.contains("\"attempts\":\"3\""), "{json}");
        // Single-attempt tasks stay unlabeled.
        assert_eq!(json.matches("attempts").count(), 1, "{json}");
    }
}
