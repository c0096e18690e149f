//! One rank's process lifecycle: dial the launcher, join the data mesh,
//! run the job, report the result.
//!
//! The session protocol (control connection, launcher side is
//! [`mod@crate::launch`]):
//!
//! 1. worker dials the launcher's control address and sends
//!    [`Ctl::Hello`] with its own data-listener address;
//! 2. launcher answers with [`Ctl::Config`] — the job text plus a
//!    `peers=` line listing every rank's data address (and, on a recovery
//!    rerun, a `dead_node=` line);
//! 3. the worker builds the data mesh (dial every lower rank, accept every
//!    higher rank — the first frame on a data connection is a `Hello`
//!    identifying the dialer) and sends [`Ctl::Ready`];
//! 4. launcher sends [`Ctl::Start`]; the worker runs the job with its
//!    [`SocketWire`];
//! 5. every rank streams the C tiles it folded — its share of C; the shares
//!    are disjoint and their union is C — as one or more [`Ctl::Result`]
//!    frames of about [`RESULT_CHUNK_BYTES`] each. Its encode/CRC/write of
//!    one frame overlaps the launcher's read/CRC/decode of the previous
//!    one, the ranks stream in parallel, and no process stages the whole of
//!    C. Each rank then sends [`Ctl::Done`] with its wire statistics (or
//!    [`Ctl::Abort`] with the rendered error).
//!
//! [`Ctl::Ping`] probes are answered by a dedicated control-reader thread
//! at any point in the session — including while the job is running — so a
//! compute-busy worker never reads as dead.

use crate::codec::{Ctl, Msg};
use crate::socket::{read_msg, write_msg, Conn, SocketWire, Transport};
use crate::NetError;
use bst_tile::Tile;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long a worker waits for the launcher's next protocol step before
/// giving up on the session.
const PROTOCOL_TIMEOUT: Duration = Duration::from_secs(120);

/// Tile data per [`Ctl::Result`] frame: a rank closes a frame once it
/// holds at least this many tile bytes (so a frame overshoots by at most
/// one tile).
pub const RESULT_CHUNK_BYTES: u64 = 1 << 20;

/// One worker process's identity and connection parameters (parsed from
/// the `bst worker` command line).
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// This process's rank (0-based).
    pub rank: usize,
    /// Total ranks in the run.
    pub ranks: usize,
    /// The launcher's control address to dial.
    pub connect: String,
    /// Socket family of the run.
    pub transport: Transport,
    /// Crash drill: SIGKILL this process just before its n-th data-frame
    /// send (see [`SocketWire::die_after_tile_sends`]).
    pub die_after_tile_sends: Option<u64>,
}

/// Runs one worker session to completion. `job` receives the launcher's
/// config text and this rank's connected [`SocketWire`], and returns this
/// rank's C tiles by value or a rendered error.
pub fn worker_session<F>(cfg: &WorkerConfig, job: F) -> Result<(), NetError>
where
    F: FnOnce(&str, Arc<SocketWire>) -> Result<Vec<(u32, u32, Tile)>, String>,
{
    // Data listener first: its address rides in the Hello.
    let data_hint = format!("{}.d{}", cfg.connect, cfg.rank);
    let data_listener = cfg.transport.bind(&data_hint)?;
    let data_addr = data_listener.local_addr()?;

    // Dial the launcher (brief retry: we may win the race with its bind).
    let control = dial_retry(cfg.transport, &cfg.connect)?;
    let control_writer = Arc::new(Mutex::new(control.try_clone()?));
    write_msg(
        &mut *control_writer.lock().unwrap(),
        &Msg::Ctl(Ctl::Hello { rank: cfg.rank as u64, addr: data_addr }),
    )?;

    // Control reader: answers Ping inline (even mid-job), forwards the
    // rest to the session's main flow.
    let (ctl_tx, ctl_rx) = channel::<Ctl>();
    {
        let writer = Arc::clone(&control_writer);
        let mut reader = control;
        std::thread::Builder::new()
            .name(format!("bst-net-ctl-{}", cfg.rank))
            .spawn(move || loop {
                match read_msg(&mut reader) {
                    Ok(Some(Msg::Ctl(Ctl::Ping(nonce)))) => {
                        let mut w = writer.lock().unwrap();
                        if write_msg(&mut *w, &Msg::Ctl(Ctl::Pong(nonce))).is_err() {
                            break;
                        }
                    }
                    Ok(Some(Msg::Ctl(ctl))) => {
                        if ctl_tx.send(ctl).is_err() {
                            break;
                        }
                    }
                    Ok(Some(Msg::Wire(_))) => {}
                    Ok(None) | Err(_) => break,
                }
            })
            .map_err(|e| NetError::Io(e.to_string()))?;
    }

    let config_text = match next_ctl(&ctl_rx)? {
        Ctl::Config(text) => text,
        other => return Err(NetError::Protocol(format!("expected Config, got {other:?}"))),
    };
    let peers = parse_peers(&config_text, cfg.ranks)?;

    let wire = SocketWire::new(cfg.rank);
    if let Some(n) = cfg.die_after_tile_sends {
        wire.die_after_tile_sends(n);
    }

    // Accept the higher ranks (each identifies itself with a Hello).
    let higher = cfg.ranks - cfg.rank - 1;
    if higher > 0 {
        let me = Arc::clone(&wire);
        let my_rank = cfg.rank;
        std::thread::Builder::new()
            .name(format!("bst-net-accept-{}", cfg.rank))
            .spawn(move || {
                for _ in 0..higher {
                    let Ok(mut conn) = data_listener.accept() else { return };
                    match read_msg(&mut conn) {
                        Ok(Some(Msg::Ctl(Ctl::Hello { rank, .. }))) if rank as usize > my_rank => {
                            let _ = me.register_peer(rank as usize, conn);
                        }
                        _ => {}
                    }
                }
            })
            .map_err(|e| NetError::Io(e.to_string()))?;
    }

    // Dial the lower ranks, identifying this rank with a Hello.
    for (peer, addr) in peers.iter().enumerate().take(cfg.rank) {
        let mut conn = dial_retry(cfg.transport, addr)?;
        write_msg(&mut conn, &Msg::Ctl(Ctl::Hello { rank: cfg.rank as u64, addr: String::new() }))?;
        wire.register_peer(peer, conn)?;
    }

    // Mesh barrier: every peer connected before declaring Ready.
    let deadline = Instant::now() + PROTOCOL_TIMEOUT;
    while wire.peer_count() < cfg.ranks - 1 {
        if Instant::now() > deadline {
            return Err(NetError::ConnectTimeout {
                expected: cfg.ranks - 1,
                connected: wire.peer_count(),
            });
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    write_msg(
        &mut *control_writer.lock().unwrap(),
        &Msg::Ctl(Ctl::Ready { rank: cfg.rank as u64 }),
    )?;

    match next_ctl(&ctl_rx)? {
        Ctl::Start => {}
        other => return Err(NetError::Protocol(format!("expected Start, got {other:?}"))),
    }

    match job(&config_text, Arc::clone(&wire)) {
        Ok(tiles) => {
            let mut w = control_writer.lock().unwrap();
            for frame in result_frames(tiles) {
                write_msg(&mut *w, &Msg::Ctl(frame))?;
            }
            let (sent_msgs, recv_msgs) = wire.stats();
            write_msg(
                &mut *w,
                &Msg::Ctl(Ctl::Done { rank: cfg.rank as u64, sent_msgs, recv_msgs }),
            )?;
            Ok(())
        }
        Err(reason) => {
            let mut w = control_writer.lock().unwrap();
            let _ = write_msg(&mut *w, &Msg::Ctl(Ctl::Abort(reason.clone())));
            Err(NetError::Job(reason))
        }
    }
}

/// Splits a rank's C tiles, in order, into the [`Ctl::Result`] frames it
/// streams: each frame closes once it holds [`RESULT_CHUNK_BYTES`] of tile
/// data. Always at least one frame, so an empty C still reports a result.
fn result_frames(tiles: Vec<(u32, u32, Tile)>) -> impl Iterator<Item = Ctl> {
    let mut tiles = tiles.into_iter().peekable();
    let mut first = true;
    std::iter::from_fn(move || {
        if !std::mem::take(&mut first) && tiles.peek().is_none() {
            return None;
        }
        let mut chunk = Vec::new();
        let mut bytes = 0;
        while bytes < RESULT_CHUNK_BYTES {
            let Some(tile) = tiles.next() else { break };
            bytes += tile.2.stored_bytes();
            chunk.push(tile);
        }
        Some(Ctl::Result { tiles: chunk })
    })
}

fn next_ctl(rx: &std::sync::mpsc::Receiver<Ctl>) -> Result<Ctl, NetError> {
    match rx.recv_timeout(PROTOCOL_TIMEOUT) {
        Ok(ctl) => Ok(ctl),
        Err(RecvTimeoutError::Timeout) => {
            Err(NetError::Protocol("timed out waiting for launcher".into()))
        }
        Err(RecvTimeoutError::Disconnected) => {
            Err(NetError::Io("control connection closed".into()))
        }
    }
}

fn dial_retry(transport: Transport, addr: &str) -> Result<Conn, NetError> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match transport.dial(addr) {
            Ok(conn) => return Ok(conn),
            Err(e) if Instant::now() > deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Extracts the `peers=0@addr,1@addr,...` line the launcher appended to
/// the config text, returning the data addresses indexed by rank.
pub fn parse_peers(config_text: &str, ranks: usize) -> Result<Vec<String>, NetError> {
    let line = config_text
        .lines()
        .find_map(|l| l.strip_prefix("peers="))
        .ok_or_else(|| NetError::Protocol("config text has no peers= line".into()))?;
    let mut addrs = vec![String::new(); ranks];
    for entry in line.split(',').filter(|e| !e.is_empty()) {
        let (rank, addr) = entry
            .split_once('@')
            .ok_or_else(|| NetError::Protocol(format!("bad peers entry '{entry}'")))?;
        let rank: usize = rank
            .parse()
            .map_err(|_| NetError::Protocol(format!("bad peers rank '{rank}'")))?;
        if rank >= ranks {
            return Err(NetError::Protocol(format!("peers rank {rank} out of range")));
        }
        addrs[rank] = addr.to_string();
    }
    if addrs.iter().any(String::is_empty) {
        return Err(NetError::Protocol("peers= line is missing a rank".into()));
    }
    Ok(addrs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peers_line_round_trip() {
        let text = "nodes=4\npeers=0@a:1,1@b:2,2@c:3\nseed=9";
        let addrs = parse_peers(text, 3).unwrap();
        assert_eq!(addrs, vec!["a:1", "b:2", "c:3"]);
    }

    #[test]
    fn result_is_chunked_in_order_and_never_empty_handed() {
        // 64x64 dense tiles are 32 KiB: 32 of them fill one 1 MiB frame.
        let tiles: Vec<(u32, u32, Tile)> =
            (0..70).map(|t| (t, t + 1, Tile::from_data(64, 64, vec![t as f64; 4096]))).collect();
        let frames: Vec<Vec<(u32, u32, Tile)>> = result_frames(tiles.clone())
            .map(|f| match f {
                Ctl::Result { tiles } => tiles,
                other => panic!("not a Result: {other:?}"),
            })
            .collect();
        assert_eq!(frames.iter().map(Vec::len).collect::<Vec<_>>(), [32, 32, 6]);
        assert_eq!(frames.concat(), tiles);

        let empty: Vec<Ctl> = result_frames(Vec::new()).collect();
        assert_eq!(empty, [Ctl::Result { tiles: Vec::new() }]);
    }

    #[test]
    fn missing_peers_is_typed() {
        assert!(matches!(
            parse_peers("nodes=4", 2),
            Err(NetError::Protocol(_))
        ));
        assert!(matches!(
            parse_peers("peers=0@a:1", 2),
            Err(NetError::Protocol(_))
        ));
    }
}
