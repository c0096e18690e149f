//! Scheduler tracing and metrics.
//!
//! A tracing engine run
//! ([`Engine::tracing`](crate::engine::Engine::tracing))
//! records the full life-cycle of every task — *ready* (last dependency
//! completed, or initially dependency-free), *running* (a worker picked it
//! up), *done* (the handler returned) — into **per-lane event buffers**
//! with strict ownership: only the worker holding a lane appends to its
//! buffer (the buffer moves with the lane), the main thread only to the
//! submission buffer, so recording costs one `Vec::push` per event.
//! Timestamps come from one shared monotonic epoch ([`TraceClock`]), so
//! every buffer is individually non-decreasing and buffers are mutually
//! comparable.
//!
//! On top of the raw [`ExecTrace`] this module provides:
//!
//! * [`ExecTrace::task_spans`] — per-task (ready, start, end) reconstruction;
//! * [`ExecTrace::validate`] — the well-formedness invariants every trace
//!   must satisfy (used by the property tests);
//! * [`TaskRecord`] + [`chrome_trace_json_full`] — a `chrome://tracing` /
//!   Perfetto-compatible JSON exporter (hand-rolled; no serialization
//!   dependency);
//! * [`text_summary`] — a plain-text per-kind time breakdown.

use crate::graph::{TaskGraph, TaskId, WorkerId};
use std::collections::HashMap;
use std::time::Instant;

/// Shared monotonic epoch for one traced execution. All trace timestamps
/// are nanoseconds since this epoch.
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

/// Life-cycle phase of a task, in causal order.
///
/// The happy path is `Ready → Running → Done`. Under fallible execution
/// (a retrying [`Engine::run`](crate::engine::Engine::run))
/// a transient handler failure inserts `Failed → Retried → Running` cycles
/// before the final `Done`, so a task with `n` failures records `n + 1`
/// `Running` events, `n` `Failed` and `n` `Retried` — but still exactly one
/// `Ready` and one `Done`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TracePhase {
    /// All dependencies completed (or the task had none); the task was
    /// enqueued onto its worker's FIFO. Logged by the thread that released
    /// it (the completing worker, or the main thread for seed tasks).
    Ready,
    /// A worker dequeued the task and is about to run its handler.
    Running,
    /// The handler returned.
    Done,
    /// The handler returned a transient error; the attempt is abandoned.
    Failed,
    /// After backoff, the failed task was re-enqueued onto its worker's
    /// FIFO for another attempt.
    Retried,
    /// Transport phase (not a task life-cycle event): a message left its
    /// sending node. Recorded by [`crate::comm::CommFabric`] as
    /// [`crate::comm::CommEvent`]s, never in task event buffers.
    Sent,
    /// Transport phase: a message was deposited into its destination node's
    /// store by the progress thread. See [`TracePhase::Sent`].
    Received,
}

/// One recorded event: task `task` entered `phase` at `t_ns`.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// The task this event describes.
    pub task: TaskId,
    /// Which life-cycle phase was entered.
    pub phase: TracePhase,
    /// Nanoseconds since the execution's [`TraceClock`] epoch.
    pub t_ns: u64,
}

/// The event stream recorded by one worker thread (or, for
/// [`ExecTrace::seed_events`], by the submitting thread).
#[derive(Clone, Debug)]
pub struct WorkerTrace {
    /// The worker that recorded these events.
    pub worker: WorkerId,
    /// Events in recording order; timestamps are non-decreasing.
    pub events: Vec<TraceEvent>,
}

/// Per-task life-cycle times reconstructed from a trace.
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
    /// A worker's buffer has decreasing timestamps.
    NonMonotoneWorker {
        /// The offending worker.
        worker: WorkerId,
        /// Index into its event buffer where time went backwards.
        at: usize,
    },
    /// A task has a wrong number of events for some phase (must be exactly
    /// one Ready, one Running, one Done).
    PhaseCount {
        /// The offending task.
        task: TaskId,
        /// The phase with the wrong multiplicity.
        phase: TracePhase,
        /// How many events of that phase were recorded.
        count: usize,
    },
    /// A task's retry bookkeeping is inconsistent: every `Failed` must be
    /// answered by exactly one `Retried` and one extra `Running` (the
    /// re-attempt), so `#Running = #Failed + 1` and `#Retried = #Failed`.
    RetryMismatch {
        /// The offending task.
        task: TaskId,
        /// `Running` events recorded.
        running: usize,
        /// `Failed` events recorded.
        failed: usize,
        /// `Retried` events recorded.
        retried: usize,
    },
    /// A task's phases are out of causal order (ready ≤ start ≤ end).
    PhaseOrder {
        /// The offending task.
        task: TaskId,
    },
    /// The number of traced tasks differs from the DAG size.
    TaskCount {
        /// Tasks with at least one event.
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
    /// A Running event was recorded by a different worker than the task is
    /// pinned to.
    WrongWorker {
        /// The offending task.
        task: TaskId,
        /// The worker that actually ran it.
        ran_on: WorkerId,
        /// The worker the task was pinned to.
        pinned: WorkerId,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NonMonotoneWorker { worker, at } => {
                write!(f, "worker {worker:?}: timestamps decrease at event {at}")
            }
            Self::PhaseCount { task, phase, count } => {
                write!(f, "task {task}: {count} {phase:?} events (want 1)")
            }
            Self::RetryMismatch { task, running, failed, retried } => {
                write!(
                    f,
                    "task {task}: {running} Running / {failed} Failed / {retried} Retried events \
                     (want Running = Failed + 1 and Retried = Failed)"
                )
            }
            Self::PhaseOrder { task } => write!(f, "task {task}: phases out of order"),
            Self::TaskCount { traced, expected } => {
                write!(f, "{traced} traced tasks, DAG has {expected}")
            }
            Self::DependencyOverlap { task, dep } => {
                write!(f, "task {task} ran before dependency {dep} finished")
            }
            Self::WrongWorker { task, ran_on, pinned } => {
                write!(f, "task {task} ran on {ran_on:?}, pinned to {pinned:?}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// The full trace of one [`TaskGraph`] execution.
#[derive(Clone, Debug, Default)]
pub struct ExecTrace {
    /// One buffer per lane, each recorded only by the worker holding it;
    /// each order-free task has one of its own, labelled with its
    /// [`WorkerId::any`].
    pub workers: Vec<WorkerTrace>,
    /// Ready events of initially-dependency-free tasks, recorded by the
    /// submitting thread before the workers start.
    pub seed_events: Vec<TraceEvent>,
    /// Wall-clock span of the execution (ns from epoch to the last join).
    pub total_ns: u64,
}

impl ExecTrace {
    /// Total number of recorded events.
    pub fn event_count(&self) -> usize {
        self.seed_events.len() + self.workers.iter().map(|w| w.events.len()).sum::<usize>()
    }

    /// Iterates every event with the worker that recorded it (`None` for
    /// seed events).
    pub fn iter_events(&self) -> impl Iterator<Item = (Option<WorkerId>, &TraceEvent)> {
        self.seed_events
            .iter()
            .map(|e| (None, e))
            .chain(
                self.workers
                    .iter()
                    .flat_map(|w| w.events.iter().map(move |e| (Some(w.worker), e))),
            )
    }

    /// Reconstructs per-task life-cycle spans. Tasks missing a phase get 0
    /// for that time; [`ExecTrace::validate`] reports such malformations.
    ///
    /// For retried tasks, `start_ns` is the start of the **final** attempt
    /// (all `Running` events of a task sit in its pinned worker's buffer, in
    /// chronological order, so the last one wins); `Failed`/`Retried`
    /// events do not contribute to the span.
    pub fn task_spans(&self) -> HashMap<TaskId, TaskSpan> {
        let mut spans: HashMap<TaskId, TaskSpan> = HashMap::new();
        for (_, e) in self.iter_events() {
            let s = spans.entry(e.task).or_default();
            match e.phase {
                TracePhase::Ready => s.ready_ns = e.t_ns,
                TracePhase::Running => s.start_ns = e.t_ns,
                TracePhase::Done => s.end_ns = e.t_ns,
                TracePhase::Failed
                | TracePhase::Retried
                | TracePhase::Sent
                | TracePhase::Received => {}
            }
        }
        spans
    }

    /// Number of handler attempts per task (the count of `Running` events);
    /// 1 for every task of a fault-free execution.
    pub fn task_attempts(&self) -> HashMap<TaskId, u32> {
        let mut attempts: HashMap<TaskId, u32> = HashMap::new();
        for (_, e) in self.iter_events() {
            if e.phase == TracePhase::Running {
                *attempts.entry(e.task).or_default() += 1;
            }
        }
        attempts
    }

    /// Checks the trace against `graph`, returning every violated
    /// invariant:
    ///
    /// 1. per-worker timestamps are non-decreasing;
    /// 2. every task has exactly one Ready and one Done event, and its
    ///    Running/Failed/Retried counts are retry-consistent
    ///    (`#Running = #Failed + 1`, `#Retried = #Failed`);
    /// 3. ready ≤ start ≤ end per task;
    /// 4. the traced task set is exactly the DAG's task set;
    /// 5. no task starts before all its dependencies are done;
    /// 6. every task ran on the worker it was pinned to.
    pub fn validate<T>(&self, graph: &TaskGraph<T>) -> Vec<TraceError> {
        let mut errors = Vec::new();

        for w in &self.workers {
            for (i, pair) in w.events.windows(2).enumerate() {
                if pair[1].t_ns < pair[0].t_ns {
                    errors.push(TraceError::NonMonotoneWorker {
                        worker: w.worker,
                        at: i + 1,
                    });
                }
            }
        }

        let mut counts: HashMap<TaskId, [usize; 7]> = HashMap::new();
        let mut ran_on: HashMap<TaskId, WorkerId> = HashMap::new();
        for (wid, e) in self.iter_events() {
            let c = counts.entry(e.task).or_default();
            c[e.phase as usize] += 1;
            if e.phase == TracePhase::Running {
                if let Some(w) = wid {
                    ran_on.insert(e.task, w);
                }
            }
        }
        for (&task, c) in &counts {
            for (phase, n) in [TracePhase::Ready, TracePhase::Done].iter().zip([c[0], c[2]]) {
                if n != 1 {
                    errors.push(TraceError::PhaseCount {
                        task,
                        phase: *phase,
                        count: n,
                    });
                }
            }
            let (running, failed, retried) =
                (c[TracePhase::Running as usize], c[TracePhase::Failed as usize], c[TracePhase::Retried as usize]);
            if running != failed + 1 || retried != failed {
                errors.push(TraceError::RetryMismatch { task, running, failed, retried });
            }
        }

        if counts.len() != graph.len() {
            errors.push(TraceError::TaskCount {
                traced: counts.len(),
                expected: graph.len(),
            });
        }

        let spans = self.task_spans();
        for (&task, s) in &spans {
            if !(s.ready_ns <= s.start_ns && s.start_ns <= s.end_ns) {
                errors.push(TraceError::PhaseOrder { task });
            }
        }
        for task in 0..graph.len() {
            let Some(s) = spans.get(&task) else { continue };
            for &dep in graph.deps(task) {
                if let Some(d) = spans.get(&dep) {
                    if s.start_ns < d.end_ns {
                        errors.push(TraceError::DependencyOverlap { task, dep });
                    }
                }
            }
            if let Some(&w) = ran_on.get(&task) {
                if w != graph.worker(task) {
                    errors.push(TraceError::WrongWorker {
                        task,
                        ran_on: w,
                        pinned: graph.worker(task),
                    });
                }
            }
        }

        errors.sort_by_key(|e| match e {
            TraceError::NonMonotoneWorker { at, .. } => (0, *at),
            TraceError::PhaseCount { task, .. } => (1, *task),
            TraceError::RetryMismatch { task, .. } => (2, *task),
            TraceError::PhaseOrder { task } => (3, *task),
            TraceError::TaskCount { .. } => (4, 0),
            TraceError::DependencyOverlap { task, .. } => (5, *task),
            TraceError::WrongWorker { task, .. } => (6, *task),
        });
        errors
    }
}

// ---------------------------------------------------------------------------
// Labeled task records and exporters
// ---------------------------------------------------------------------------

/// A fully-labeled traced task — what the exporters consume. Produced by
/// whoever knows the payload semantics (e.g. `core::exec` labels its `Op`
/// vocabulary); the exporters below are payload-agnostic.
#[derive(Clone, Debug)]
pub struct TaskRecord {
    /// Task id within its graph.
    pub task: TaskId,
    /// Task kind, e.g. `"Gemm"` — the per-kind aggregation key.
    pub kind: &'static str,
    /// Human-readable instance detail, e.g. `"Gemm(7,3|2,5)"`.
    pub detail: String,
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

/// Renders labeled task records (plus optional per-device memory-occupancy
/// samples) as a Chrome-trace JSON document. Convention: `pid` = node,
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
    mem_samples: &[((usize, usize), Vec<MemSample>)],
    comm_events: &[crate::comm::CommEvent],
) -> String {
    let mut b = ChromeTraceBuilder::new();
    let mut nic_named: std::collections::HashSet<usize> = Default::default();
    // Match each non-Sent event to its Sent time by (key, src, dst, epoch).
    let mut sent_at: HashMap<(String, usize, usize, u32), u64> = HashMap::new();
    for e in comm_events {
        if e.phase == TracePhase::Sent {
            sent_at.insert((format!("{:?}", e.key), e.src, e.dst, e.epoch), e.t_ns);
        }
    }
    for e in comm_events {
        let (name_prefix, cat) = match e.phase {
            TracePhase::Sent => continue, // rendered as the slice start
            TracePhase::Received => ("recv", "Comm"),
            TracePhase::Failed => ("drop", "CommDrop"),
            TracePhase::Retried => ("dup", "CommDup"),
            _ => continue,
        };
        if nic_named.insert(e.dst) {
            b.name_event("thread_name", e.dst, NIC_TID, "nic");
        }
        let key_s = format!("{:?}", e.key);
        let start_ns = sent_at
            .get(&(key_s.clone(), e.src, e.dst, e.epoch))
            .copied()
            .unwrap_or(e.t_ns);
        b.complete_event(
            &format!("{name_prefix} {key_s} {}->{}", e.src, e.dst),
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
            &r.detail,
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
            detail: format!("{kind}[{task}]"),
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
        let json = chrome_trace_json_full(&records, &samples, &[]);
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

        // A well-formed trace validates cleanly.
        let good = ExecTrace {
            workers: vec![WorkerTrace {
                worker: w(0, 0),
                events: vec![
                    TraceEvent { task: a, phase: TracePhase::Running, t_ns: 10 },
                    TraceEvent { task: a, phase: TracePhase::Done, t_ns: 20 },
                    TraceEvent { task: b, phase: TracePhase::Ready, t_ns: 20 },
                    TraceEvent { task: b, phase: TracePhase::Running, t_ns: 25 },
                    TraceEvent { task: b, phase: TracePhase::Done, t_ns: 30 },
                ],
            }],
            seed_events: vec![TraceEvent { task: a, phase: TracePhase::Ready, t_ns: 0 }],
            total_ns: 30,
        };
        assert!(good.validate(&g).is_empty(), "{:?}", good.validate(&g));

        // Dependency overlap: b runs before a is done.
        let mut bad = good.clone();
        bad.workers[0].events[3].t_ns = 15;
        bad.workers[0].events[2].t_ns = 15;
        let errors = bad.validate(&g);
        assert!(
            errors.iter().any(|e| matches!(
                e,
                TraceError::DependencyOverlap { task, dep } if *task == b && *dep == a
            )),
            "{errors:?}"
        );
        // The edit also made worker timestamps non-monotone.
        assert!(errors
            .iter()
            .any(|e| matches!(e, TraceError::NonMonotoneWorker { .. })));

        // Missing Done event.
        let mut truncated = good.clone();
        truncated.workers[0].events.pop();
        let errors = truncated.validate(&g);
        assert!(
            errors.iter().any(|e| matches!(
                e,
                TraceError::PhaseCount { task, phase: TracePhase::Done, count: 0 } if *task == b
            )),
            "{errors:?}"
        );

        // Wrong worker.
        let mut wrong = good;
        wrong.workers[0].worker = w(1, 0);
        let errors = wrong.validate(&g);
        assert!(errors
            .iter()
            .any(|e| matches!(e, TraceError::WrongWorker { .. })));
    }

    #[test]
    fn validate_accepts_retried_tasks_and_counts_attempts() {
        let mut g: TaskGraph<u32> = TaskGraph::new();
        let a = g.add_task(0, w(0, 0));
        // a fails twice, is retried twice, then succeeds.
        let trace = ExecTrace {
            workers: vec![WorkerTrace {
                worker: w(0, 0),
                events: vec![
                    TraceEvent { task: a, phase: TracePhase::Running, t_ns: 10 },
                    TraceEvent { task: a, phase: TracePhase::Failed, t_ns: 12 },
                    TraceEvent { task: a, phase: TracePhase::Retried, t_ns: 14 },
                    TraceEvent { task: a, phase: TracePhase::Running, t_ns: 16 },
                    TraceEvent { task: a, phase: TracePhase::Failed, t_ns: 18 },
                    TraceEvent { task: a, phase: TracePhase::Retried, t_ns: 20 },
                    TraceEvent { task: a, phase: TracePhase::Running, t_ns: 22 },
                    TraceEvent { task: a, phase: TracePhase::Done, t_ns: 30 },
                ],
            }],
            seed_events: vec![TraceEvent { task: a, phase: TracePhase::Ready, t_ns: 0 }],
            total_ns: 30,
        };
        assert_eq!(trace.validate(&g), Vec::new());
        assert_eq!(trace.task_attempts()[&a], 3);
        // The reconstructed span uses the final attempt's start.
        assert_eq!(trace.task_spans()[&a].start_ns, 22);

        // A Failed without a matching Retried + re-Running is malformed.
        let mut bad = trace.clone();
        bad.workers[0].events.truncate(2); // Running, Failed — then nothing
        bad.workers[0].events.push(TraceEvent { task: a, phase: TracePhase::Done, t_ns: 30 });
        let errors = bad.validate(&g);
        assert!(
            errors.iter().any(|e| matches!(
                e,
                TraceError::RetryMismatch { task, running: 1, failed: 1, retried: 0 } if *task == a
            )),
            "{errors:?}"
        );
    }

    #[test]
    fn chrome_export_labels_retried_tasks() {
        let mut retried = rec(0, "GenB", w(0, 3), 0, 1_000, 2_000);
        retried.attempts = 3;
        let json =
            chrome_trace_json_full(&[retried, rec(1, "Gemm", w(0, 1), 0, 2_000, 3_000)], &[], &[]);
        assert!(json.contains("\"attempts\":\"3\""), "{json}");
        // Single-attempt tasks stay unlabeled.
        assert_eq!(json.matches("attempts").count(), 1, "{json}");
    }

    #[test]
    fn validate_catches_task_count_mismatch() {
        let mut g: TaskGraph<u32> = TaskGraph::new();
        g.add_task(0, w(0, 0));
        g.add_task(1, w(0, 0));
        let trace = ExecTrace {
            workers: vec![WorkerTrace {
                worker: w(0, 0),
                events: vec![
                    TraceEvent { task: 0, phase: TracePhase::Running, t_ns: 1 },
                    TraceEvent { task: 0, phase: TracePhase::Done, t_ns: 2 },
                ],
            }],
            seed_events: vec![TraceEvent { task: 0, phase: TracePhase::Ready, t_ns: 0 }],
            total_ns: 2,
        };
        let errors = trace.validate(&g);
        assert!(errors.iter().any(|e| matches!(
            e,
            TraceError::TaskCount { traced: 1, expected: 2 }
        )));
    }
}
