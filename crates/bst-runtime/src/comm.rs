//! The inter-node message-passing transport (the "NIC" of the simulated
//! cluster).
//!
//! The paper's machine model is distributed-memory: every MPI rank owns its
//! tiles, and a tile is usable only after its message has arrived. This
//! module makes that model real inside one process. A [`CommFabric`] gives
//! each simulated node
//!
//! * a **bounded inbox** (a `crossbeam` bounded channel of frames) that
//!   is the only way data enters the node,
//! * a **progress thread** that drains the inbox into the node's private
//!   [`TileStore`] and tells the caller's deposit hook each A tile it
//!   deposited ([`CommFabric::start_with`]): that is how a tile's arrival
//!   completes the `RecvA` awaiting it, without any thread waiting on the
//!   wire,
//! * **per-link-class credit gates**: a sender must acquire a credit on the
//!   destination's gate for the link class it crosses
//!   ([`topology::LinkClass::Intra`] vs [`topology::LinkClass::Inter`], see
//!   [`CommConfig::window`] / [`CommConfig::intra_window`]) before a frame
//!   may leave, and the credit returns only after the progress thread has
//!   *deposited* the frame — so a slow node cannot be flooded past its
//!   window, end to end, and a saturated NIC window cannot throttle
//!   intra-node traffic (or vice versa), and
//! * **per-link-class [`LinkShaper`]s** that charge per-message wall-clock
//!   time (latency + bytes/bandwidth) inside the progress thread:
//!   [`CommConfig::shaper`] for inter-node frames (calibrated to the
//!   23 GB/s Summit NIC of `bst-sim`'s platform model),
//!   [`CommConfig::intra_shaper`] for frames between ranks sharing a
//!   physical node (shared memory / NVLink). Loopback frames are never
//!   shaped.
//!
//! Which class a frame crosses is decided by the fabric's
//! [`topology::Topology`] ([`CommConfig::node_size`] ranks per physical
//! node).
//!
//! Frame vocabulary: `Frame::BcastA` carries an A tile from its owner to
//! one consuming rank ([`TileMsg`]: `{key, payload, epoch}` — the epoch is the
//! sending task's attempt number, which makes duplicate delivery
//! detectable), and `Frame::Shutdown` is the completion control frame. A is
//! the only datum that crosses the fabric: every rank keeps the C it folded
//! and hands it to its own caller, in one process as across processes, where
//! A tiles travel over a [`Wire`] ([`WireFrame::Tile`]). Credits are the
//! flow-control frames collapsed into semaphores: releasing a credit *is* the
//! credit-return message.
//!
//! Delivery is idempotent: the progress thread tracks delivered keys and
//! drops (and counts) re-deliveries, so a retried send after a fault-
//! injected drop can never double-deposit, and the deposit hook hears of
//! each `(node, key)` once. A seeded [`DeliveryPolicy`]
//! can shuffle delivery order within a window to prove the dataflow DAG —
//! not arrival order — is what orders the computation.

pub mod topology;
pub mod wire;

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use bst_tile::Tile;
use crossbeam::channel::{bounded, Receiver, Sender};

use crate::data::{DataKey, TileStore};
use crate::trace::{TraceClock, TracePhase};

pub use topology::{LinkClass, Topology};
pub use wire::{RemoteLink, Wire, WireError, WireFrame};

/// Default credit window (frames in flight per receiving node, per link
/// class).
pub const DEFAULT_CREDIT_WINDOW: usize = 16;

/// SplitMix64 finalizer (same mixing as the tile seeds / fault plans).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-message link cost model: a message of `b` bytes occupies the
/// receiving node's ingress for `latency_s + b / bandwidth_bps` seconds of
/// wall clock. [`LinkShaper::off`] charges nothing (the default for
/// numeric tests, where only ordering matters).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkShaper {
    /// Link bandwidth in bytes/second; `<= 0` disables the size term.
    pub bandwidth_bps: f64,
    /// Per-message latency in seconds.
    pub latency_s: f64,
}

impl LinkShaper {
    /// No shaping: messages are delivered as fast as threads move them.
    pub const fn off() -> Self {
        Self {
            bandwidth_bps: 0.0,
            latency_s: 0.0,
        }
    }

    /// A NIC with the given bandwidth (bytes/s) and per-message latency (s).
    pub const fn nic(bandwidth_bps: f64, latency_s: f64) -> Self {
        Self {
            bandwidth_bps,
            latency_s,
        }
    }

    /// The Summit-like NIC of `bst-sim`'s platform model: 23 GB/s,
    /// 3 µs latency. (`bst_sim::platform::Platform::summit().link_shaper()`
    /// returns exactly this — a calibration test keeps them in sync.)
    pub const fn summit_nic() -> Self {
        Self::nic(23e9, 3e-6)
    }

    /// The Summit-like intra-node link (shared memory / NVLink-class):
    /// 50 GB/s, 1 µs. (`Platform::summit().intra_shaper()` is pinned to
    /// this by the same calibration test.)
    pub const fn summit_intra() -> Self {
        Self::nic(50e9, 1e-6)
    }

    /// Whether this shaper charges any time at all.
    pub fn is_off(&self) -> bool {
        self.bandwidth_bps <= 0.0 && self.latency_s <= 0.0
    }

    /// Modeled transfer time of a `bytes`-byte message, in seconds.
    pub fn delay_s(&self, bytes: u64) -> f64 {
        let size_term = if self.bandwidth_bps > 0.0 {
            bytes as f64 / self.bandwidth_bps
        } else {
            0.0
        };
        (size_term + self.latency_s).max(0.0)
    }

    /// Modeled transfer time of a `bytes`-byte message.
    pub fn delay(&self, bytes: u64) -> Duration {
        Duration::from_secs_f64(self.delay_s(bytes))
    }
}

/// In what order a progress thread delivers the frames it has staged.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DeliveryPolicy {
    /// Strict arrival (FIFO) order.
    #[default]
    InOrder,
    /// Seeded pseudo-random shuffling within a staging window of up to
    /// `window` frames — a determinism stressor: the numeric result must
    /// not depend on delivery order, only on the dataflow DAG.
    Reorder {
        /// Shuffle seed.
        seed: u64,
        /// Staging window (≥ 1; 1 degenerates to FIFO).
        window: usize,
    },
}

/// Configuration of a [`CommFabric`].
#[derive(Clone, Copy, Debug)]
pub struct CommConfig {
    /// Credit window per receiving node for **inter-node** frames (frames
    /// in flight over the NIC, ≥ 1).
    pub window: usize,
    /// Credit window per receiving node for **intra-node** (and loopback)
    /// frames. Defaults to [`DEFAULT_CREDIT_WINDOW`]; size it independently
    /// when the NIC window — not the link — is the throughput cap.
    pub intra_window: usize,
    /// Ranks per physical node (≥ 1; 1 = every link inter-node, the flat
    /// legacy behaviour). See [`topology::Topology`].
    pub node_size: usize,
    /// Link cost model of **inter-node** frames (default:
    /// [`LinkShaper::off`]).
    pub shaper: LinkShaper,
    /// Link cost model of **intra-node** frames (default:
    /// [`LinkShaper::off`]). Only meaningful with `node_size > 1`.
    pub intra_shaper: LinkShaper,
    /// Delivery ordering policy (default: FIFO).
    pub delivery: DeliveryPolicy,
    /// When set, every send/delivery records a [`CommEvent`] on this clock.
    pub clock: Option<TraceClock>,
}

impl Default for CommConfig {
    fn default() -> Self {
        Self {
            window: DEFAULT_CREDIT_WINDOW,
            intra_window: DEFAULT_CREDIT_WINDOW,
            node_size: 1,
            shaper: LinkShaper::off(),
            intra_shaper: LinkShaper::off(),
            delivery: DeliveryPolicy::InOrder,
            clock: None,
        }
    }
}

/// One A-tile send: tile `key` moving from its owner to a consuming node.
#[derive(Clone, Debug)]
pub struct TileMsg {
    /// Identity of the tile.
    pub key: DataKey,
    /// The tile payload (moved, never shared across stores: the receiving
    /// store holds its own reference).
    pub payload: Arc<Tile>,
    /// The sending task's attempt number (1-based). A re-sent message after
    /// a drop carries a higher epoch; duplicate delivery of any epoch is
    /// suppressed idempotently.
    pub epoch: u32,
    /// Sending node.
    pub src: usize,
    /// Consumer refcount the destination store registers the tile with.
    pub consumers: usize,
}

/// What travels on a node's inbox.
enum Frame {
    /// An A tile on its one hop from its owner.
    BcastA(TileMsg),
    /// Completion control frame: the progress thread drains and exits.
    Shutdown,
}

/// Error of [`CommFabric::send_tile`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SendError {
    /// The message was dropped in flight (fault injection). The sender's
    /// tile was *not* consumed; a retry re-reads and re-sends it with a
    /// higher epoch — a **transient** failure by construction.
    Dropped,
    /// A remote peer's wire rejected the frame (multi-process transports
    /// only — the peer process is gone). **Fatal** to the sending task:
    /// recovery means a degraded re-plan, not a retry into a dead socket.
    Wire(WireError),
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::Dropped => write!(f, "message dropped in flight"),
            SendError::Wire(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SendError {}

/// One recorded transport event (only when [`CommConfig::clock`] is set).
///
/// `phase` uses the tracer's vocabulary: [`TracePhase::Sent`] when a frame
/// leaves the sender, [`TracePhase::Received`] when the progress thread
/// deposits it, [`TracePhase::Failed`] for an in-flight drop, and
/// [`TracePhase::Retried`] for a suppressed duplicate delivery.
#[derive(Clone, Copy, Debug)]
pub struct CommEvent {
    /// Transport phase (`Sent` / `Received` / `Failed` / `Retried`).
    pub phase: TracePhase,
    /// Identity of the datum moved.
    pub key: DataKey,
    /// Sending node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Link class the frame crossed (loopback frames are not recorded).
    pub class: LinkClass,
    /// Payload bytes.
    pub bytes: u64,
    /// Sending attempt (1-based).
    pub epoch: u32,
    /// Nanoseconds on the fabric's [`TraceClock`].
    pub t_ns: u64,
}

/// Per-node transport totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeCommStats {
    /// Bytes this node put on the wire (including later-dropped frames).
    pub sent_bytes: u64,
    /// Messages this node put on the wire.
    pub sent_msgs: u64,
    /// Bytes delivered into this node.
    pub recv_bytes: u64,
    /// Messages delivered into this node.
    pub recv_msgs: u64,
    /// Of [`NodeCommStats::sent_bytes`], the bytes that crossed an
    /// **inter-node** (NIC) link; the remainder moved intra-node.
    pub inter_sent_bytes: u64,
    /// Of [`NodeCommStats::sent_msgs`], the messages that crossed an
    /// inter-node link.
    pub inter_sent_msgs: u64,
    /// Of [`NodeCommStats::recv_bytes`], the bytes that arrived over an
    /// inter-node link.
    pub inter_recv_bytes: u64,
    /// Of [`NodeCommStats::recv_msgs`], the messages that arrived over an
    /// inter-node link.
    pub inter_recv_msgs: u64,
    /// This node's messages dropped in flight (fault injection).
    pub dropped_msgs: u64,
    /// Duplicate deliveries this node suppressed.
    pub duplicate_msgs: u64,
    /// High-water mark of inter-node frames simultaneously in flight *to*
    /// this node.
    pub max_in_flight: usize,
    /// The inter-node credit window the high-water is bounded by.
    pub credit_window: usize,
    /// High-water mark of intra-node/loopback frames in flight to this node.
    pub intra_max_in_flight: usize,
    /// The intra-node credit window.
    pub intra_credit_window: usize,
    /// Nanoseconds this node's inter-node ingress spent shaped (busy).
    pub inter_busy_ns: u64,
    /// Nanoseconds this node's intra-node ingress spent shaped (busy).
    pub intra_busy_ns: u64,
}

impl NodeCommStats {
    /// Accumulates another run's totals for the same node into `self`:
    /// counters add, high-water marks take the maximum. A long-lived
    /// service uses this to aggregate per-request transport totals into
    /// lifetime per-node counters.
    pub fn merge(&mut self, other: &NodeCommStats) {
        self.sent_bytes += other.sent_bytes;
        self.sent_msgs += other.sent_msgs;
        self.recv_bytes += other.recv_bytes;
        self.recv_msgs += other.recv_msgs;
        self.inter_sent_bytes += other.inter_sent_bytes;
        self.inter_sent_msgs += other.inter_sent_msgs;
        self.inter_recv_bytes += other.inter_recv_bytes;
        self.inter_recv_msgs += other.inter_recv_msgs;
        self.dropped_msgs += other.dropped_msgs;
        self.duplicate_msgs += other.duplicate_msgs;
        self.max_in_flight = self.max_in_flight.max(other.max_in_flight);
        self.credit_window = self.credit_window.max(other.credit_window);
        self.intra_max_in_flight = self.intra_max_in_flight.max(other.intra_max_in_flight);
        self.intra_credit_window = self.intra_credit_window.max(other.intra_credit_window);
        self.inter_busy_ns += other.inter_busy_ns;
        self.intra_busy_ns += other.intra_busy_ns;
    }
}

/// Counting semaphore implementing the credit loop: `acquire` blocks the
/// sender while the receiving node's window is exhausted; the progress
/// thread `release`s after depositing a frame.
struct CreditGate {
    avail: Mutex<usize>,
    freed: Condvar,
    window: usize,
    max_in_flight: AtomicUsize,
}

impl CreditGate {
    fn new(window: usize) -> Self {
        Self {
            avail: Mutex::new(window),
            freed: Condvar::new(),
            window,
            max_in_flight: AtomicUsize::new(0),
        }
    }

    fn acquire(&self) {
        let mut avail = self.avail.lock().unwrap_or_else(|e| e.into_inner());
        while *avail == 0 {
            avail = self.freed.wait(avail).unwrap_or_else(|e| e.into_inner());
        }
        *avail -= 1;
        let in_flight = self.window - *avail;
        self.max_in_flight.fetch_max(in_flight, Ordering::Relaxed);
    }

    fn release(&self) {
        let mut avail = self.avail.lock().unwrap_or_else(|e| e.into_inner());
        *avail += 1;
        self.freed.notify_one();
    }
}

/// Index into an endpoint's credit-gate pair: intra-node/loopback vs
/// inter-node frames hold credits from independent windows.
fn gate_of(class: LinkClass) -> usize {
    match class {
        LinkClass::Inter => 1,
        LinkClass::Intra | LinkClass::Loopback => 0,
    }
}

/// One node's side of the fabric.
struct Endpoint {
    /// Inbox sender (bounded to the summed credit windows as
    /// belt-and-braces; with credits honored it never blocks).
    tx: Sender<Frame>,
    /// Inbox receiver, taken by the node's progress thread at start.
    rx: Mutex<Option<Receiver<Frame>>>,
    /// `[intra/loopback, inter]` credit gates (see [`gate_of`]).
    credits: [CreditGate; 2],
    /// Keys delivered into this node, ever (dedup, and
    /// [`CommFabric::wait_delivered`]'s notification).
    delivered: Mutex<HashSet<DataKey>>,
    arrived: Condvar,
    /// This node's transport totals; the high-water marks and windows stay
    /// with the credit gates and join them in [`CommFabric::node_stats`].
    stats: Mutex<NodeCommStats>,
}

impl Endpoint {
    fn new(intra_window: usize, inter_window: usize) -> Self {
        let (tx, rx) = bounded(intra_window + inter_window);
        Self {
            tx,
            rx: Mutex::new(Some(rx)),
            credits: [CreditGate::new(intra_window), CreditGate::new(inter_window)],
            delivered: Mutex::new(HashSet::new()),
            arrived: Condvar::new(),
            stats: Mutex::new(NodeCommStats::default()),
        }
    }

    fn stats(&self) -> std::sync::MutexGuard<'_, NodeCommStats> {
        self.stats.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The transport connecting the simulated nodes (see the module docs).
pub struct CommFabric {
    endpoints: Vec<Endpoint>,
    topology: Topology,
    shaper: LinkShaper,
    intra_shaper: LinkShaper,
    delivery: DeliveryPolicy,
    clock: Option<TraceClock>,
    events: Mutex<Vec<CommEvent>>,
    /// Multi-process mode: the one locally-hosted rank plus the wire to
    /// everyone else (`None` = every rank is in-process, the default).
    remote: Option<wire::RemoteLink>,
}

impl CommFabric {
    /// A fabric connecting `n_nodes` nodes under `cfg`.
    pub fn new(n_nodes: usize, cfg: CommConfig) -> Self {
        Self::with_remote(n_nodes, cfg, None)
    }

    /// A fabric whose frames to ranks other than `remote.rank` leave the
    /// process over `remote.wire` instead of an in-process inbox. Inbound
    /// wire frames must be fed back through [`CommFabric::inject`] (the
    /// caller runs the pump). With `remote: None` this is
    /// [`CommFabric::new`].
    pub fn with_remote(
        n_nodes: usize,
        cfg: CommConfig,
        remote: Option<wire::RemoteLink>,
    ) -> Self {
        let intra = cfg.intra_window.max(1);
        let inter = cfg.window.max(1);
        Self {
            endpoints: (0..n_nodes).map(|_| Endpoint::new(intra, inter)).collect(),
            topology: Topology::new(n_nodes, cfg.node_size.max(1)),
            shaper: cfg.shaper,
            intra_shaper: cfg.intra_shaper,
            delivery: cfg.delivery,
            clock: cfg.clock,
            events: Mutex::new(Vec::new()),
            remote,
        }
    }

    /// The node-aware topology frames are classified against.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// The shaper charged for `class` frames (loopback is never shaped).
    fn shaper_of(&self, class: LinkClass) -> LinkShaper {
        match class {
            LinkClass::Inter => self.shaper,
            LinkClass::Intra => self.intra_shaper,
            LinkClass::Loopback => LinkShaper::off(),
        }
    }

    fn record(
        &self,
        phase: TracePhase,
        key: DataKey,
        src: usize,
        dst: usize,
        bytes: u64,
        epoch: u32,
    ) {
        if let Some(clock) = self.clock {
            self.events
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(CommEvent {
                    phase,
                    key,
                    src,
                    dst,
                    class: self.topology.link_class(src, dst),
                    bytes,
                    epoch,
                    t_ns: clock.now_ns(),
                });
        }
    }

    /// [`CommFabric::start_with`] with no deposit hook.
    pub fn start<'env, 'scope>(
        &'env self,
        scope: &'scope std::thread::Scope<'scope, 'env>,
        stores: &'env [TileStore],
    ) {
        self.start_with(scope, stores, &|_, _| {});
    }

    /// Spawns one progress thread per node hosted in this process into
    /// `scope`, each draining its node's inbox into that node's store in
    /// `stores`. Once an A tile is in the store, its progress thread calls
    /// `deposited(node, key)`: once per `(node, key)`, however often the
    /// tile was sent.
    ///
    /// # Panics
    /// Panics if `stores` and the fabric disagree on node count, if a
    /// store's owner doesn't match its index, or if called twice.
    pub fn start_with<'env, 'scope>(
        &'env self,
        scope: &'scope std::thread::Scope<'scope, 'env>,
        stores: &'env [TileStore],
        deposited: &'env (dyn Fn(usize, DataKey) + Sync),
    ) {
        assert_eq!(stores.len(), self.endpoints.len(), "one store per node");
        for (node, (ep, store)) in self.endpoints.iter().zip(stores).enumerate() {
            assert_eq!(store.owner(), node, "store {node} owned by {}", store.owner());
            if self.remote.as_ref().is_some_and(|r| r.rank != node) {
                continue; // another process's rank: its frames leave over the wire
            }
            let rx = ep
                .rx
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .expect("progress thread already started");
            std::thread::Builder::new()
                .name(format!("n{node}.progress"))
                .spawn_scoped(scope, move || self.progress_loop(node, rx, store, deposited))
                .expect("spawn a progress thread");
        }
    }

    /// Sends an A tile from its owner to `dst`, honoring `dst`'s
    /// credit window for the link class the hop crosses (blocks while it is
    /// exhausted — the backpressure path).
    ///
    /// With `drop_in_flight`, the frame is charged as sent and then dropped
    /// by the fabric (the fault-injection site): the destination never sees
    /// it, and [`SendError::Dropped`] tells the caller to retry — the retry
    /// re-sends with a higher [`TileMsg::epoch`].
    ///
    /// In multi-process mode ([`CommFabric::with_remote`]), a frame for a
    /// rank this process doesn't host is shipped over the wire instead;
    /// wire failures surface as the fatal [`SendError::Wire`]. Injected
    /// drops fire *before* the wire, so a remote peer observes exactly one
    /// delivery per key (re-sends carry a higher epoch and are suppressed
    /// by the peer's dedup, same as in-process).
    pub fn send_tile(
        &self,
        dst: usize,
        msg: TileMsg,
        drop_in_flight: bool,
    ) -> Result<(), SendError> {
        let bytes = msg.payload.stored_bytes();
        let class = self.topology.link_class(msg.src, dst);
        let remote = self.remote.as_ref().filter(|r| dst != r.rank);
        // A frame for a local inbox takes one of the destination's credits
        // before it counts as sent and holds it until the progress thread
        // deposits it; a frame that leaves the process takes its credit in
        // the peer's pump (`inject`).
        let gate = remote.is_none().then(|| &self.endpoints[dst].credits[gate_of(class)]);
        if let Some(gate) = gate {
            gate.acquire();
        }
        {
            let mut s = self.endpoints[msg.src].stats();
            s.sent_bytes += bytes;
            s.sent_msgs += 1;
            if class == LinkClass::Inter {
                s.inter_sent_bytes += bytes;
                s.inter_sent_msgs += 1;
            }
            s.dropped_msgs += u64::from(drop_in_flight);
        }
        self.record(TracePhase::Sent, msg.key, msg.src, dst, bytes, msg.epoch);
        if drop_in_flight {
            self.record(TracePhase::Failed, msg.key, msg.src, dst, bytes, msg.epoch);
            if let Some(gate) = gate {
                gate.release();
            }
            return Err(SendError::Dropped);
        }
        match remote {
            Some(remote) => remote.wire.send(WireFrame::Tile { dst, msg }).map_err(SendError::Wire),
            None => {
                self.endpoints[dst]
                    .tx
                    .send(Frame::BcastA(msg))
                    .unwrap_or_else(|_| panic!("node {dst}'s progress thread is gone"));
                Ok(())
            }
        }
    }

    /// Deposits an inbound wire frame into the destination rank's inbox —
    /// the receive half of multi-process mode, called by the pump thread
    /// draining [`Wire::recv`]. Acquires the destination's credit gate for
    /// the link class (end-to-end flow control extends across processes:
    /// the pump stalls, TCP/UDS backpressure stalls the sender). A frame
    /// arriving after the local fabric shut down is dropped harmlessly.
    pub fn inject(&self, frame: WireFrame) {
        let WireFrame::Tile { dst, msg } = frame;
        let class = self.topology.link_class(msg.src, dst);
        let gate = &self.endpoints[dst].credits[gate_of(class)];
        gate.acquire();
        if self.endpoints[dst].tx.send(Frame::BcastA(msg)).is_err() {
            // Progress thread already exited (late frame after shutdown):
            // return the credit and drop the frame.
            gate.release();
        }
    }

    /// Blocks until `key` has been delivered into `node`'s store, for a
    /// caller that drives the fabric without an engine run (a probe; an
    /// engine's arrivals hear of deposits through
    /// [`CommFabric::start_with`]). Returns immediately if it already was.
    pub fn wait_delivered(&self, node: usize, key: DataKey) {
        let ep = &self.endpoints[node];
        let mut delivered = ep.delivered.lock().unwrap_or_else(|e| e.into_inner());
        while !delivered.contains(&key) {
            delivered = ep
                .arrived
                .wait(delivered)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Sends the completion control frame to every node. Each progress
    /// thread finishes delivering everything already in flight (FIFO
    /// inboxes guarantee nothing is skipped), then exits. Call after all
    /// senders are done; the scope passed to [`CommFabric::start`] then
    /// joins the threads.
    pub fn shutdown(&self) {
        for ep in &self.endpoints {
            // The control frame obeys flow control like any other (local)
            // frame.
            ep.credits[gate_of(LinkClass::Loopback)].acquire();
            let _ = ep.tx.send(Frame::Shutdown);
        }
    }

    /// Takes the recorded transport events, sorted by time (empty unless
    /// the fabric was given a clock).
    pub fn take_events(&self) -> Vec<CommEvent> {
        let mut events =
            std::mem::take(&mut *self.events.lock().unwrap_or_else(|e| e.into_inner()));
        events.sort_by_key(|e| (e.t_ns, e.src, e.dst));
        events
    }

    /// Per-node transport totals (index = node).
    pub fn node_stats(&self) -> Vec<NodeCommStats> {
        self.endpoints
            .iter()
            .map(|ep| {
                let [intra, inter] = &ep.credits;
                NodeCommStats {
                    max_in_flight: inter.max_in_flight.load(Ordering::Relaxed),
                    credit_window: inter.window,
                    intra_max_in_flight: intra.max_in_flight.load(Ordering::Relaxed),
                    intra_credit_window: intra.window,
                    ..*ep.stats()
                }
            })
            .collect()
    }

    /// The progress loop of `node`: stage (optionally reorder), shape,
    /// deposit, return credit — until the `Shutdown` frame.
    fn progress_loop(
        &self,
        node: usize,
        rx: Receiver<Frame>,
        store: &TileStore,
        deposited: &(dyn Fn(usize, DataKey) + Sync),
    ) {
        let window = match self.delivery {
            DeliveryPolicy::InOrder => 1,
            DeliveryPolicy::Reorder { window, .. } => window.max(1),
        };
        let mut staged: Vec<TileMsg> = Vec::with_capacity(window);
        let mut draws: u64 = 0;
        let mut closing = false;
        loop {
            // Stage up to `window` frames without blocking. Staged frames
            // still hold their credits, so staging never exceeds the window.
            while staged.len() < window {
                match rx.try_recv() {
                    Ok(Frame::Shutdown) => closing = true,
                    Ok(Frame::BcastA(msg)) => staged.push(msg),
                    Err(_) => break,
                }
            }
            if staged.is_empty() {
                if closing {
                    break;
                }
                match rx.recv() {
                    Ok(Frame::Shutdown) => closing = true,
                    Ok(Frame::BcastA(msg)) => staged.push(msg),
                    Err(_) => break, // every sender gone: nothing more can come
                }
                continue;
            }
            let idx = match self.delivery {
                DeliveryPolicy::InOrder => 0,
                DeliveryPolicy::Reorder { seed, .. } => {
                    draws += 1;
                    (mix(seed ^ mix(draws)) % staged.len() as u64) as usize
                }
            };
            let msg = staged.remove(idx);
            self.deliver(node, store, msg, deposited);
        }
    }

    /// Charges the link-shaping delay of a `class` frame arriving at
    /// `node`, crediting the busy time to that node's per-class counter.
    fn shape(&self, node: usize, class: LinkClass, bytes: u64) {
        let shaper = self.shaper_of(class);
        if shaper.is_off() {
            return;
        }
        let delay = shaper.delay(bytes);
        let busy_ns = delay.as_nanos() as u64;
        let mut s = self.endpoints[node].stats();
        match class {
            LinkClass::Inter => s.inter_busy_ns += busy_ns,
            _ => s.intra_busy_ns += busy_ns,
        }
        drop(s);
        std::thread::sleep(delay);
    }

    /// Deposits `msg` into `node`'s store — once per key: a re-delivery is
    /// counted and dropped — and returns its credit.
    fn deliver(
        &self,
        node: usize,
        store: &TileStore,
        msg: TileMsg,
        deposited: &(dyn Fn(usize, DataKey) + Sync),
    ) {
        let ep = &self.endpoints[node];
        let bytes = msg.payload.stored_bytes();
        let class = self.topology.link_class(msg.src, node);
        self.shape(node, class, bytes);
        let mut delivered = ep.delivered.lock().unwrap_or_else(|e| e.into_inner());
        let first = delivered.insert(msg.key);
        if first {
            store.put(msg.key, msg.payload, msg.consumers);
            let mut s = ep.stats();
            s.recv_bytes += bytes;
            s.recv_msgs += 1;
            if class == LinkClass::Inter {
                s.inter_recv_bytes += bytes;
                s.inter_recv_msgs += 1;
            }
            drop(s);
            self.record(TracePhase::Received, msg.key, msg.src, node, bytes, msg.epoch);
        } else {
            // Idempotent duplicate suppression: the key already arrived
            // under an earlier epoch.
            ep.stats().duplicate_msgs += 1;
            self.record(TracePhase::Retried, msg.key, msg.src, node, bytes, msg.epoch);
        }
        drop(delivered);
        if first {
            deposited(node, msg.key);
        }
        ep.arrived.notify_all();
        ep.credits[gate_of(class)].release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shaper_delay_model() {
        let off = LinkShaper::off();
        assert!(off.is_off());
        assert_eq!(off.delay_s(1 << 30), 0.0);

        let nic = LinkShaper::nic(1e9, 1e-6);
        assert!(!nic.is_off());
        // 1 MB at 1 GB/s = 1 ms, plus 1 µs latency.
        let d = nic.delay_s(1_000_000);
        assert!((d - 1.001e-3).abs() < 1e-12, "{d}");
        assert_eq!(nic.delay(0), Duration::from_secs_f64(1e-6));
    }

    #[test]
    fn summit_nic_constants() {
        let s = LinkShaper::summit_nic();
        assert_eq!(s.bandwidth_bps, 23e9);
        assert_eq!(s.latency_s, 3e-6);
        let i = LinkShaper::summit_intra();
        assert!(i.bandwidth_bps > s.bandwidth_bps, "intra-node is the fast link");
    }

    #[test]
    fn credit_gate_tracks_high_water() {
        let g = CreditGate::new(3);
        g.acquire();
        g.acquire();
        assert_eq!(g.max_in_flight.load(Ordering::Relaxed), 2);
        g.release();
        g.acquire();
        // Back to 2 in flight; high-water stays 2.
        assert_eq!(g.max_in_flight.load(Ordering::Relaxed), 2);
        g.acquire();
        assert_eq!(g.max_in_flight.load(Ordering::Relaxed), 3);
        g.release();
        g.release();
        g.release();
    }

    #[test]
    fn delivery_policy_default_is_fifo() {
        assert_eq!(DeliveryPolicy::default(), DeliveryPolicy::InOrder);
        let cfg = CommConfig::default();
        assert_eq!(cfg.window, DEFAULT_CREDIT_WINDOW);
        assert_eq!(cfg.intra_window, DEFAULT_CREDIT_WINDOW);
        assert_eq!(cfg.node_size, 1);
    }

    #[test]
    fn gate_indexing() {
        assert_eq!(gate_of(LinkClass::Loopback), 0);
        assert_eq!(gate_of(LinkClass::Intra), 0);
        assert_eq!(gate_of(LinkClass::Inter), 1);
    }

    /// A wire that records sent frames and never fails.
    struct RecordingWire {
        sent: Mutex<Vec<WireFrame>>,
    }

    impl Wire for RecordingWire {
        fn send(&self, frame: WireFrame) -> Result<(), WireError> {
            self.sent.lock().unwrap().push(frame);
            Ok(())
        }
        fn recv(&self) -> Option<WireFrame> {
            None
        }
        fn close_inbound(&self) {}
    }

    fn a_msg(src: usize, i: u32, k: u32) -> TileMsg {
        TileMsg {
            key: DataKey::A(i, k),
            payload: Arc::new(Tile::zeros(2, 2)),
            epoch: 1,
            src,
            consumers: 1,
        }
    }

    #[test]
    fn remote_send_routes_over_wire() {
        let wire = Arc::new(RecordingWire { sent: Mutex::new(Vec::new()) });
        let fabric = CommFabric::with_remote(
            4,
            CommConfig::default(),
            Some(RemoteLink { rank: 0, wire: wire.clone() }),
        );
        // A send to a remote rank leaves over the wire, never touches the
        // (unstarted) local inboxes, and still counts on the src endpoint.
        fabric.send_tile(2, a_msg(0, 3, 5), false).unwrap();
        let sent = wire.sent.lock().unwrap();
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].dst(), 2);
        let stats = fabric.node_stats();
        assert_eq!(stats[0].sent_msgs, 1);
        assert!(stats[0].sent_bytes > 0);
    }

    #[test]
    fn remote_drop_fires_before_wire() {
        let wire = Arc::new(RecordingWire { sent: Mutex::new(Vec::new()) });
        let fabric = CommFabric::with_remote(
            4,
            CommConfig::default(),
            Some(RemoteLink { rank: 0, wire: wire.clone() }),
        );
        let err = fabric.send_tile(3, a_msg(0, 1, 1), true).unwrap_err();
        assert_eq!(err, SendError::Dropped);
        assert!(wire.sent.lock().unwrap().is_empty(), "dropped frame hit the wire");
        assert_eq!(fabric.node_stats()[0].dropped_msgs, 1);
    }

    /// A wire whose peer is gone: every send fails.
    struct DeadWire;

    impl Wire for DeadWire {
        fn send(&self, frame: WireFrame) -> Result<(), WireError> {
            Err(WireError { dst: frame.dst(), reason: "broken pipe".into() })
        }
        fn recv(&self) -> Option<WireFrame> {
            None
        }
        fn close_inbound(&self) {}
    }

    #[test]
    fn dead_wire_surfaces_fatal_send_error() {
        let fabric = CommFabric::with_remote(
            2,
            CommConfig::default(),
            Some(RemoteLink { rank: 0, wire: Arc::new(DeadWire) }),
        );
        match fabric.send_tile(1, a_msg(0, 0, 0), false) {
            Err(SendError::Wire(e)) => assert_eq!(e.dst, 1),
            other => panic!("expected a wire error, got {other:?}"),
        }
    }

    /// An injected frame lands in its rank's store, and the deposit hook
    /// hears of it once, after the tile is readable: a duplicate stays
    /// silent.
    #[test]
    fn inject_delivers_into_local_store() {
        let fabric = CommFabric::with_remote(
            2,
            CommConfig::default(),
            Some(RemoteLink { rank: 1, wire: Arc::new(DeadWire) }),
        );
        let stores = vec![TileStore::for_node(0), TileStore::for_node(1)];
        let (tx, rx) = std::sync::mpsc::channel();
        let deposited = |node: usize, key: DataKey| {
            stores[node].get(node, key); // panics unless the tile is readable
            tx.send((node, key)).unwrap();
        };
        std::thread::scope(|s| {
            fabric.start_with(s, &stores, &deposited);
            fabric.inject(WireFrame::Tile { dst: 1, msg: a_msg(0, 7, 2) });
            fabric.inject(WireFrame::Tile { dst: 1, msg: a_msg(0, 7, 2) });
            assert_eq!(rx.recv().unwrap(), (1, DataKey::A(7, 2)));
            fabric.shutdown();
        });
        assert!(rx.try_recv().is_err(), "the hook heard of a duplicate");
        assert_eq!(fabric.node_stats()[1].duplicate_msgs, 1);
        // A frame arriving after shutdown is dropped, not a panic.
        fabric.inject(WireFrame::Tile { dst: 1, msg: a_msg(0, 9, 9) });
    }
}
