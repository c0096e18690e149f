//! The launcher: spawn P worker processes, distribute the job, heartbeat
//! the fleet, collect the result — and on a worker death, recover.
//!
//! C comes back in one hop: every rank streams the C tiles it folded on its
//! own control connection, whose reader thread decodes them while the other
//! ranks' readers decode theirs, and the launcher keeps their union.
//!
//! Liveness has two detectors, both bounded:
//!
//! * **connection EOF** — a SIGKILLed process's sockets are closed by the
//!   kernel, so its control connection EOFs within one scheduler tick;
//!   this is the fast path;
//! * **heartbeats** — [`Ctl::Ping`]/[`Ctl::Pong`] probes on the control
//!   connections catch a worker that is frozen but still connected; a rank
//!   whose last sign of life is older than the heartbeat timeout is
//!   declared dead.
//!
//! Recovery mirrors the engine's single-process fault path (PR 3): a dead
//! node is *written off*, not restarted in place. The launcher SIGKILLs
//! the survivors (some are inevitably blocked waiting on frames the dead
//! rank will never send), then reruns the whole fleet once with
//! `dead_node=R` appended to the config — each worker's engine builds the
//! same degraded re-plan the channel transport uses, writing off rank R's
//! GPUs and generators while keeping its A-slice broadcast duties, so the
//! rerun agrees with the fault-free run to the usual ≤ 1e-10.

use crate::codec::{Ctl, Msg};
use crate::socket::{read_msg, write_msg, Conn, Transport};
use crate::NetError;
use bst_tile::Tile;
use std::collections::HashMap;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A multi-process run: how many workers, over which transport, running
/// what job.
#[derive(Clone, Debug)]
pub struct LaunchConfig {
    /// Number of worker processes (= engine nodes).
    pub n: usize,
    /// Socket family for control and data planes.
    pub transport: Transport,
    /// Worker argv prefix (e.g. `[bst, worker]`); the launcher appends
    /// `--rank R --ranks N --connect ADDR --transport T` per worker.
    pub worker_cmd: Vec<String>,
    /// The job description shipped to every worker (opaque to the
    /// transport; the launcher appends `peers=` / `dead_node=` lines).
    pub config_text: String,
    /// How long to wait for all workers to dial in (and to become ready).
    pub connect_timeout: Duration,
    /// A rank silent for longer than this is declared dead.
    pub heartbeat_timeout: Duration,
    /// Crash drill: pass `--die-after K` to one rank on the first attempt.
    pub die_after: Option<(usize, u64)>,
    /// How many dead-node recovery reruns to attempt (the engine's
    /// single-fault model: 1).
    pub max_respawns: usize,
}

impl LaunchConfig {
    /// A config with the standing defaults: 60 s connect window, 10 s
    /// heartbeat timeout, one recovery rerun, no crash drill.
    pub fn new(
        n: usize,
        transport: Transport,
        worker_cmd: Vec<String>,
        config_text: String,
    ) -> Self {
        LaunchConfig {
            n,
            transport,
            worker_cmd,
            config_text,
            connect_timeout: Duration::from_secs(60),
            heartbeat_timeout: Duration::from_secs(10),
            die_after: None,
            max_respawns: 1,
        }
    }
}

/// One worker's wire statistics, as reported in its [`Ctl::Done`], and the
/// C it returned in its [`Ctl::Result`] frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerStats {
    /// The reporting rank.
    pub rank: usize,
    /// Data frames the rank put on the wire.
    pub sent_msgs: u64,
    /// Data frames the rank received over the wire.
    pub recv_msgs: u64,
    /// C tiles the rank returned.
    pub c_tiles: u64,
    /// Stored bytes of those tiles.
    pub c_bytes: u64,
}

/// Where a fleet's wall-clock went, as the launcher saw it (seconds; of the
/// recovery rerun when one ran).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LaunchPhases {
    /// Spawning the first worker → every rank `Ready` (process start, job
    /// shipping, data mesh).
    pub ready_s: f64,
    /// `Start` → the first `Result` frame from any rank (the job itself).
    pub compute_s: f64,
    /// First `Result` frame → last `Done` (every rank shipping its C back).
    pub collect_s: f64,
}

/// A completed multi-process run.
#[derive(Clone, Debug)]
pub struct LaunchOutcome {
    /// C's tiles `(i, j, tile)`: the union of every rank's share, each
    /// rank's in the order its `Result` frames carried them.
    pub tiles: Vec<(u32, u32, Tile)>,
    /// Per-rank wire statistics, sorted by rank.
    pub stats: Vec<WorkerStats>,
    /// Launcher-side wall-clock phases.
    pub phases: LaunchPhases,
    /// The rank that died and was written off, when recovery ran.
    pub recovered_dead: Option<usize>,
    /// Fleet launches performed (1 = clean run, 2 = one recovery rerun).
    pub attempts: usize,
}

/// Events the per-connection reader threads forward to the launch loop.
enum Event {
    Hello { rank: usize, data_addr: String, writer: Conn },
    Ready { rank: usize },
    Result { rank: usize, tiles: Vec<(u32, u32, Tile)> },
    Done { stats: WorkerStats },
    Pong { rank: usize },
    Abort { rank: usize, reason: String },
    Eof { rank: usize },
}

static LAUNCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// Spawns and coordinates a fleet of `cfg.n` workers, returning the union
/// of the C tiles every rank streamed back. A worker death (EOF or missed
/// heartbeats) kills the surviving fleet and reruns once with the dead rank
/// written off; a second death, a connect timeout, or a worker-side job
/// failure surfaces as a typed [`NetError`].
pub fn launch(cfg: &LaunchConfig) -> Result<LaunchOutcome, NetError> {
    match run_attempt(cfg, None) {
        Err(NetError::WorkerDied { rank }) if cfg.max_respawns > 0 => run_attempt(cfg, Some(rank)),
        outcome => outcome,
    }
}

fn control_hint() -> String {
    let seq = LAUNCH_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir()
        .join(format!("bst-net-{}-{seq}.sock", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

fn spawn_worker(
    cfg: &LaunchConfig,
    rank: usize,
    addr: &str,
    drill: bool,
) -> Result<Child, NetError> {
    let mut cmd = Command::new(&cfg.worker_cmd[0]);
    cmd.args(&cfg.worker_cmd[1..])
        .arg("--rank")
        .arg(rank.to_string())
        .arg("--ranks")
        .arg(cfg.n.to_string())
        .arg("--connect")
        .arg(addr)
        .arg("--transport")
        .arg(cfg.transport.to_string())
        .stdin(Stdio::null());
    if drill {
        if let Some((_, k)) = cfg.die_after {
            cmd.arg("--die-after").arg(k.to_string());
        }
    }
    cmd.spawn().map_err(|e| NetError::Spawn(format!("{}: {e}", cfg.worker_cmd[0])))
}

/// Reads frames off one worker's control connection, translating them to
/// [`Event`]s until the connection closes. `Result` frames are decoded here,
/// on the connection's own thread, which also counts the C they return.
fn control_reader(rank: usize, mut conn: Conn, tx: Sender<Event>) {
    let (mut c_tiles, mut c_bytes) = (0, 0);
    loop {
        let event = match read_msg(&mut conn) {
            Ok(Some(Msg::Ctl(Ctl::Ready { rank }))) => Event::Ready { rank: rank as usize },
            Ok(Some(Msg::Ctl(Ctl::Result { tiles }))) => {
                c_tiles += tiles.len() as u64;
                c_bytes += tiles.iter().map(|(_, _, t)| t.stored_bytes()).sum::<u64>();
                Event::Result { rank, tiles }
            }
            Ok(Some(Msg::Ctl(Ctl::Done { rank, sent_msgs, recv_msgs }))) => {
                let rank = rank as usize;
                Event::Done { stats: WorkerStats { rank, sent_msgs, recv_msgs, c_tiles, c_bytes } }
            }
            Ok(Some(Msg::Ctl(Ctl::Pong(_)))) => Event::Pong { rank },
            Ok(Some(Msg::Ctl(Ctl::Abort(reason)))) => Event::Abort { rank, reason },
            Ok(Some(_)) => continue,
            Ok(None) | Err(_) => {
                let _ = tx.send(Event::Eof { rank });
                return;
            }
        };
        if tx.send(event).is_err() {
            return;
        }
    }
}

fn kill_fleet(children: &mut [Child]) {
    for child in children.iter_mut() {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// How long the launcher waits, after a worker's `Abort`, for the EOF of a
/// rank that died: a survivor's failed send to a killed peer may reach the
/// launcher before the kernel closes the killed rank's control connection.
const ABORT_GRACE: Duration = Duration::from_millis(500);

/// Classifies a worker's `Abort` among `n` ranks, `settled` of which sent
/// `Done` or `Abort`. A rank that closes its connection within `grace`
/// having sent neither died, and the abort was a survivor's echo of it:
/// [`NetError::WorkerDied`], which `launch` recovers from. Otherwise the
/// job itself failed: [`NetError::Job`] with `reason`.
fn classify_abort(
    rx: &Receiver<Event>,
    reason: String,
    n: usize,
    settled: impl IntoIterator<Item = usize>,
    grace: Duration,
) -> NetError {
    let mut settled: std::collections::HashSet<usize> = settled.into_iter().collect();
    let deadline = Instant::now() + grace;
    while settled.len() < n {
        match recv_by(rx, deadline) {
            Ok(Event::Abort { rank, .. }) => _ = settled.insert(rank),
            Ok(Event::Done { stats }) => _ = settled.insert(stats.rank),
            Ok(Event::Eof { rank }) if !settled.contains(&rank) => return NetError::WorkerDied { rank },
            Ok(_) => {}
            Err(_) => break,
        }
    }
    NetError::Job(reason)
}

fn recv_by(rx: &Receiver<Event>, deadline: Instant) -> Result<Event, RecvTimeoutError> {
    let wait = deadline.saturating_duration_since(Instant::now());
    rx.recv_timeout(wait)
}

type ControlConns = HashMap<usize, Arc<Mutex<Conn>>>;

fn send_to(conns: &ControlConns, rank: usize, msg: &Ctl) -> Result<(), NetError> {
    let conn = conns
        .get(&rank)
        .ok_or_else(|| NetError::Protocol(format!("no control connection to rank {rank}")))?;
    write_msg(&mut *conn.lock().unwrap(), &Msg::Ctl(msg.clone()))
}

/// One fleet attempt; `dead` is the rank a recovery rerun writes off.
fn run_attempt(cfg: &LaunchConfig, dead: Option<usize>) -> Result<LaunchOutcome, NetError> {
    assert!(cfg.n >= 1 && !cfg.worker_cmd.is_empty());
    let spawned = Instant::now();
    let listener = cfg.transport.bind(&control_hint())?;
    let control_addr = listener.local_addr()?;

    let mut children: Vec<Child> = Vec::with_capacity(cfg.n);
    for rank in 0..cfg.n {
        let drill = dead.is_none() && cfg.die_after.is_some_and(|(r, _)| r == rank);
        match spawn_worker(cfg, rank, &control_addr, drill) {
            Ok(child) => children.push(child),
            Err(e) => {
                kill_fleet(&mut children);
                return Err(e);
            }
        }
    }

    // Accept thread: each inbound connection identifies itself with a
    // Hello, hands its writer half (and data address) to the launch loop,
    // then a dedicated reader translates the rest of its frames.
    let (tx, rx) = channel::<Event>();
    {
        let n = cfg.n;
        let tx = tx.clone();
        std::thread::Builder::new()
            .name("bst-net-accept".into())
            .spawn(move || {
                for _ in 0..n {
                    let Ok(mut conn) = listener.accept() else { return };
                    let tx = tx.clone();
                    std::thread::spawn(move || {
                        if let Ok(Some(Msg::Ctl(Ctl::Hello { rank, addr }))) = read_msg(&mut conn)
                        {
                            let rank = rank as usize;
                            let Ok(writer) = conn.try_clone() else { return };
                            if tx.send(Event::Hello { rank, data_addr: addr, writer }).is_err() {
                                return;
                            }
                            control_reader(rank, conn, tx);
                        }
                    });
                }
            })
            .map_err(|e| NetError::Io(e.to_string()))?;
    }

    let result = drive_fleet(cfg, dead, &rx, spawned);
    match &result {
        Ok(_) => {
            for child in children.iter_mut() {
                let _ = child.wait();
            }
        }
        Err(_) => kill_fleet(&mut children),
    }
    result
}

fn drive_fleet(
    cfg: &LaunchConfig,
    dead: Option<usize>,
    rx: &Receiver<Event>,
    spawned: Instant,
) -> Result<LaunchOutcome, NetError> {
    let mut conns: ControlConns = HashMap::new();
    let mut data_addrs: HashMap<usize, String> = HashMap::new();

    // Phase 1: all workers dial in with their data addresses.
    let deadline = Instant::now() + cfg.connect_timeout;
    while conns.len() < cfg.n {
        match recv_by(rx, deadline) {
            Ok(Event::Hello { rank, data_addr, writer }) => {
                data_addrs.insert(rank, data_addr);
                conns.insert(rank, Arc::new(Mutex::new(writer)));
            }
            Ok(Event::Eof { rank }) => return Err(NetError::WorkerDied { rank }),
            Ok(Event::Abort { rank, reason }) => {
                return Err(classify_abort(rx, reason, cfg.n, [rank], ABORT_GRACE))
            }
            Ok(_) => {}
            Err(_) => {
                return Err(NetError::ConnectTimeout { expected: cfg.n, connected: conns.len() })
            }
        }
    }

    // Phase 2: ship the job, with the peer directory (and the write-off on
    // a recovery rerun) appended.
    let peers_line: Vec<String> = (0..cfg.n).map(|r| format!("{r}@{}", data_addrs[&r])).collect();
    let mut config = format!("{}\npeers={}", cfg.config_text.trim_end(), peers_line.join(","));
    if let Some(r) = dead {
        config.push_str(&format!("\ndead_node={r}"));
    }
    for rank in 0..cfg.n {
        send_to(&conns, rank, &Ctl::Config(config.clone()))?;
    }

    // Phase 3: wait for every data mesh to complete.
    let deadline = Instant::now() + cfg.connect_timeout;
    let mut ready = vec![false; cfg.n];
    while ready.iter().any(|r| !r) {
        match recv_by(rx, deadline) {
            Ok(Event::Ready { rank }) if rank < cfg.n => ready[rank] = true,
            Ok(Event::Eof { rank }) => return Err(NetError::WorkerDied { rank }),
            Ok(Event::Abort { rank, reason }) => {
                return Err(classify_abort(rx, reason, cfg.n, [rank], ABORT_GRACE))
            }
            Ok(_) => {}
            Err(_) => {
                return Err(NetError::ConnectTimeout {
                    expected: cfg.n,
                    connected: ready.iter().filter(|r| **r).count(),
                })
            }
        }
    }

    // Phase 4: run, heartbeat, collect. Each rank's `Result` frames precede
    // its `Done` on its one ordered connection, so once every rank is done
    // the tiles are complete.
    let started = Instant::now();
    for rank in 0..cfg.n {
        send_to(&conns, rank, &Ctl::Start)?;
    }
    let ping_every = (cfg.heartbeat_timeout / 4).max(Duration::from_millis(50));
    let mut last_seen = vec![Instant::now(); cfg.n];
    let mut done: HashMap<usize, WorkerStats> = HashMap::new();
    let mut tiles: Vec<(u32, u32, Tile)> = Vec::new();
    let mut first_result: Option<Instant> = None;
    let mut nonce = 0u64;
    let mut next_ping = Instant::now() + ping_every;
    loop {
        if done.len() == cfg.n {
            if let Some(first_result) = first_result {
                let mut stats: Vec<WorkerStats> = done.into_values().collect();
                stats.sort_by_key(|s| s.rank);
                let phases = LaunchPhases {
                    ready_s: (started - spawned).as_secs_f64(),
                    compute_s: (first_result - started).as_secs_f64(),
                    collect_s: first_result.elapsed().as_secs_f64(),
                };
                return Ok(LaunchOutcome {
                    tiles,
                    stats,
                    phases,
                    recovered_dead: dead,
                    attempts: 1 + usize::from(dead.is_some()),
                });
            }
        }
        // The heartbeat keeps its own clock: one rank's stream of frames
        // must not starve the check of a silent one.
        if Instant::now() >= next_ping {
            next_ping = Instant::now() + ping_every;
            nonce += 1;
            for rank in 0..cfg.n {
                if !done.contains_key(&rank) {
                    // A failed ping write means the peer is gone; let the
                    // EOF/heartbeat checks classify it.
                    let _ = send_to(&conns, rank, &Ctl::Ping(nonce));
                }
            }
            for (rank, seen) in last_seen.iter().enumerate() {
                if !done.contains_key(&rank) && seen.elapsed() > cfg.heartbeat_timeout {
                    return Err(NetError::WorkerDied { rank });
                }
            }
        }
        match recv_by(rx, next_ping) {
            Ok(Event::Result { rank, tiles: frame }) if rank < cfg.n => {
                last_seen[rank] = Instant::now();
                first_result.get_or_insert(last_seen[rank]);
                tiles.extend(frame);
            }
            Ok(Event::Done { stats }) => {
                if stats.rank < cfg.n {
                    last_seen[stats.rank] = Instant::now();
                    done.insert(stats.rank, stats);
                }
            }
            Ok(Event::Pong { rank }) | Ok(Event::Ready { rank }) => {
                if rank < cfg.n {
                    last_seen[rank] = Instant::now();
                }
            }
            Ok(Event::Abort { rank, reason }) => {
                let settled = done.keys().copied().chain([rank]);
                return Err(classify_abort(rx, reason, cfg.n, settled, ABORT_GRACE));
            }
            Ok(Event::Eof { rank }) => {
                // Natural EOF after Done is a worker exiting cleanly;
                // anything else is a death.
                if !done.contains_key(&rank) {
                    return Err(NetError::WorkerDied { rank });
                }
            }
            Ok(Event::Hello { .. } | Event::Result { .. }) | Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                return Err(NetError::Protocol("event channel closed".into()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds `events` to [`classify_abort`] as the launcher would see them
    /// after rank 0's `Abort`, among three ranks.
    fn classify(events: Vec<Event>) -> NetError {
        let (tx, rx) = channel();
        events.into_iter().for_each(|e| tx.send(e).expect("the receiver is alive"));
        classify_abort(&rx, "send failed: Broken pipe".into(), 3, [0], Duration::from_millis(50))
    }

    #[test]
    fn abort_followed_by_a_silent_rank_eof_is_a_death() {
        // Rank 0's own EOF follows its Abort; rank 2 closes with neither.
        let events = vec![Event::Eof { rank: 0 }, Event::Pong { rank: 1 }, Event::Eof { rank: 2 }];
        assert_eq!(classify(events), NetError::WorkerDied { rank: 2 });
    }

    #[test]
    fn abort_alone_is_a_job_failure() {
        assert_eq!(classify(Vec::new()), NetError::Job("send failed: Broken pipe".into()));
        // Every EOF comes from a rank that aborted or finished first.
        let events = vec![
            Event::Abort { rank: 1, reason: "peer gone".into() },
            Event::Eof { rank: 1 },
            Event::Eof { rank: 0 },
        ];
        assert_eq!(classify(events), NetError::Job("send failed: Broken pipe".into()));
    }
}
