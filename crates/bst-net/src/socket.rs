//! The socket backend of the [`Wire`] seam: TCP and Unix-domain stream
//! transports carrying [`codec`] frames between worker
//! processes.
//!
//! Topology is a full mesh: every rank pair shares one duplex stream
//! connection, established during worker start-up (rank *i* dials every
//! rank *j < i* and accepts from every rank *j > i*; the first frame on a
//! data connection is a [`Ctl::Hello`](crate::codec::Ctl::Hello) identifying the dialing rank). Each
//! connection gets a dedicated reader thread that decodes frames and hands
//! data frames to the engine's pump via an in-process queue — only frames
//! addressed to this rank and sent by the connection's peer; any other frame
//! ends the connection like a corrupt stream. Writes are serialized per
//! connection by a mutex, so a frame is never torn.
//!
//! Backpressure is end-to-end and needs no window protocol of its own: the
//! receiving process's [`CommFabric::inject`] blocks on the destination
//! node's credit gate, which stalls the reader thread, which stops
//! draining the socket, which eventually blocks the sender's `write` —
//! standard TCP/UDS flow control doing the credit accounting across the
//! process boundary.
//!
//! [`Wire`]: bst_runtime::comm::Wire
//! [`CommFabric::inject`]: bst_runtime::comm::CommFabric::inject

use crate::codec::{self, Msg, HEADER_LEN, MAX_PAYLOAD};
use crate::NetError;
use bst_runtime::comm::{Wire, WireError, WireFrame};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

/// Most payload memory [`read_msg`] reserves before any payload byte has
/// arrived.
const FIRST_CHUNK: usize = 16 << 20;

/// Which stream-socket family a run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// TCP over loopback (or, in principle, a real network).
    Tcp,
    /// Unix-domain stream sockets (filesystem-addressed, loopback only).
    #[cfg(unix)]
    Uds,
}

impl Transport {
    /// Parses a CLI `--transport` value (`tcp` / `uds`).
    pub fn parse(s: &str) -> Result<Transport, String> {
        match s {
            "tcp" => Ok(Transport::Tcp),
            #[cfg(unix)]
            "uds" => Ok(Transport::Uds),
            other => Err(format!("unknown transport '{other}' (expected tcp or uds)")),
        }
    }

    /// Binds a listener: TCP picks an ephemeral loopback port (the `hint`
    /// is ignored), UDS binds the `hint` path (removing a stale socket
    /// file first).
    pub fn bind(self, hint: &str) -> Result<Listener, NetError> {
        match self {
            Transport::Tcp => Ok(Listener::Tcp(TcpListener::bind("127.0.0.1:0")?)),
            #[cfg(unix)]
            Transport::Uds => {
                let _ = std::fs::remove_file(hint);
                Ok(Listener::Uds(UnixListener::bind(hint)?, hint.to_string()))
            }
        }
    }

    /// Dials `addr` (a `host:port` for TCP, a socket path for UDS).
    pub fn dial(self, addr: &str) -> Result<Conn, NetError> {
        match self {
            Transport::Tcp => Ok(Conn::Tcp(TcpStream::connect(addr)?)),
            #[cfg(unix)]
            Transport::Uds => Ok(Conn::Uds(UnixStream::connect(addr)?)),
        }
    }
}

impl std::fmt::Display for Transport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Transport::Tcp => write!(f, "tcp"),
            #[cfg(unix)]
            Transport::Uds => write!(f, "uds"),
        }
    }
}

/// A bound listening socket of either family.
pub enum Listener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener plus its socket path (for cleanup).
    #[cfg(unix)]
    Uds(UnixListener, String),
}

impl Listener {
    /// The address peers should dial to reach this listener.
    pub fn local_addr(&self) -> Result<String, NetError> {
        match self {
            Listener::Tcp(l) => Ok(l.local_addr()?.to_string()),
            #[cfg(unix)]
            Listener::Uds(_, path) => Ok(path.clone()),
        }
    }

    /// Blocks until the next inbound connection.
    pub fn accept(&self) -> Result<Conn, NetError> {
        match self {
            Listener::Tcp(l) => Ok(Conn::Tcp(l.accept()?.0)),
            #[cfg(unix)]
            Listener::Uds(l, _) => Ok(Conn::Uds(l.accept()?.0)),
        }
    }
}

#[cfg(unix)]
impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Uds(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One established stream connection of either family.
#[derive(Debug)]
pub enum Conn {
    /// A TCP stream.
    Tcp(TcpStream),
    /// A Unix-domain stream.
    #[cfg(unix)]
    Uds(UnixStream),
}

impl Conn {
    /// A second handle on the same OS connection (reader/writer split).
    pub fn try_clone(&self) -> Result<Conn, NetError> {
        match self {
            Conn::Tcp(s) => Ok(Conn::Tcp(s.try_clone()?)),
            #[cfg(unix)]
            Conn::Uds(s) => Ok(Conn::Uds(s.try_clone()?)),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Uds(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Uds(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Uds(s) => s.flush(),
        }
    }
}

/// Encodes and writes one frame. The caller serializes concurrent writers
/// (every shared connection in this crate sits behind a mutex). A payload
/// over [`MAX_PAYLOAD`] is [`CodecError::Overflow`](codec::CodecError) here,
/// before a byte is written — the reader would only reject it, and the
/// launcher would read that as the writer's death.
pub fn write_msg<W: Write>(w: &mut W, msg: &Msg) -> Result<(), NetError> {
    let bytes = codec::encode(msg);
    if bytes.len() - HEADER_LEN > MAX_PAYLOAD {
        return Err(NetError::Codec(codec::CodecError::Overflow));
    }
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame from a blocking stream. Returns `Ok(None)` on a clean
/// EOF at a frame boundary; EOF mid-frame is a truncation error.
pub fn read_msg<R: Read>(r: &mut R) -> Result<Option<Msg>, NetError> {
    let mut header = [0u8; HEADER_LEN];
    let mut got = 0;
    while got < HEADER_LEN {
        match r.read(&mut header[got..])? {
            0 if got == 0 => return Ok(None),
            0 => {
                return Err(NetError::Codec(codec::CodecError::Truncated {
                    needed: HEADER_LEN,
                    have: got,
                }))
            }
            n => got += n,
        }
    }
    let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
    if magic != codec::MAGIC {
        return Err(NetError::Codec(codec::CodecError::BadMagic(magic)));
    }
    let version = u16::from_le_bytes(header[4..6].try_into().unwrap());
    if version != codec::VERSION {
        return Err(NetError::Codec(codec::CodecError::BadVersion(version)));
    }
    let kind = header[6];
    let len = u32::from_le_bytes(header[8..12].try_into().unwrap()) as usize;
    if len > MAX_PAYLOAD {
        return Err(NetError::Codec(codec::CodecError::Overflow));
    }
    let declared_crc = u32::from_le_bytes(header[12..16].try_into().unwrap());
    // `len` sits outside the CRC, so a corrupt header can declare anything
    // up to `MAX_PAYLOAD`: reserve a bounded first chunk and let the buffer
    // grow with the bytes that actually arrive.
    let mut payload = Vec::with_capacity(len.min(FIRST_CHUNK));
    let have = r.by_ref().take(len as u64).read_to_end(&mut payload)?;
    if have < len {
        return Err(NetError::Codec(codec::CodecError::Truncated { needed: len, have }));
    }
    let got_crc = codec::crc32(&payload);
    if got_crc != declared_crc {
        return Err(NetError::Codec(codec::CodecError::BadCrc {
            expected: declared_crc,
            got: got_crc,
        }));
    }
    Ok(Some(codec::decode_payload(kind, &payload)?))
}

/// Kills the current process with SIGKILL — the fault drill's stand-in for
/// a node crash. Never returns.
fn kill_self() -> ! {
    #[cfg(unix)]
    {
        let _ = std::process::Command::new("kill")
            .arg("-9")
            .arg(std::process::id().to_string())
            .status();
        // SIGKILL delivery is asynchronous; never execute past this point.
        loop {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    }
    #[cfg(not(unix))]
    std::process::exit(9);
}

/// The socket implementation of the engine's [`Wire`] seam: a full mesh of
/// stream connections, per-connection reader threads feeding one inbound
/// queue, and an optional crash-drill hook.
pub struct SocketWire {
    rank: usize,
    peers: Mutex<HashMap<usize, Arc<Mutex<Conn>>>>,
    tx: Mutex<Sender<Option<WireFrame>>>,
    rx: Mutex<Receiver<Option<WireFrame>>>,
    closed: AtomicBool,
    sent: AtomicU64,
    recv: AtomicU64,
    /// Remaining data-frame sends before this process SIGKILLs itself
    /// (`< 0` disables the drill). Models a worker dying mid-broadcast: the
    /// N-th tile is never written.
    die_after: AtomicI64,
}

impl SocketWire {
    /// A wire for `rank` with no peers yet; the worker session registers
    /// mesh connections as they are established.
    pub fn new(rank: usize) -> Arc<SocketWire> {
        let (tx, rx) = channel();
        Arc::new(SocketWire {
            rank,
            peers: Mutex::new(HashMap::new()),
            tx: Mutex::new(tx),
            rx: Mutex::new(rx),
            closed: AtomicBool::new(false),
            sent: AtomicU64::new(0),
            recv: AtomicU64::new(0),
            die_after: AtomicI64::new(-1),
        })
    }

    /// This wire's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Arms the crash drill: SIGKILL this process just before its `n`-th
    /// data-frame send.
    pub fn die_after_tile_sends(&self, n: u64) {
        self.die_after.store(n as i64, Ordering::SeqCst);
    }

    /// Registers the established mesh connection to `peer` and starts its
    /// reader thread. Data frames the peer sends to this rank land in this
    /// wire's inbound queue; control frames on data connections are ignored.
    pub fn register_peer(self: &Arc<Self>, peer: usize, conn: Conn) -> Result<(), NetError> {
        let mut reader = conn.try_clone()?;
        let writer = Arc::new(Mutex::new(conn));
        self.peers.lock().unwrap().insert(peer, writer);
        let me = Arc::clone(self);
        std::thread::Builder::new()
            .name(format!("bst-net-rx-{}-{peer}", self.rank))
            .spawn(move || loop {
                match read_msg(&mut reader) {
                    Ok(Some(Msg::Wire(frame))) if frame.dst() == me.rank && frame.src() == peer => {
                        me.recv.fetch_add(1, Ordering::Relaxed);
                        if me.tx.lock().unwrap().send(Some(frame)).is_err() {
                            break;
                        }
                    }
                    Ok(Some(Msg::Ctl(_))) => {}
                    // Peer closed (normally or by dying), the stream is
                    // corrupt, or a frame is addressed to another rank or
                    // claims another sender: either way this connection is
                    // done. The launcher, not the reader, decides what a
                    // death means.
                    Ok(Some(Msg::Wire(_)) | None) | Err(_) => break,
                }
            })
            .map_err(|e| NetError::Io(e.to_string()))?;
        Ok(())
    }

    /// How many peers have a registered connection.
    pub fn peer_count(&self) -> usize {
        self.peers.lock().unwrap().len()
    }

    /// Data frames sent and received over this wire so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.sent.load(Ordering::Relaxed), self.recv.load(Ordering::Relaxed))
    }
}

impl Wire for SocketWire {
    fn send(&self, frame: WireFrame) -> Result<(), WireError> {
        let dst = frame.dst();
        if self.die_after.load(Ordering::SeqCst) >= 0
            && self.die_after.fetch_sub(1, Ordering::SeqCst) == 1
        {
            kill_self();
        }
        let conn = self.peers.lock().unwrap().get(&dst).cloned().ok_or_else(|| WireError {
            dst,
            reason: "no connection to rank".into(),
        })?;
        let mut guard = conn.lock().unwrap();
        write_msg(&mut *guard, &Msg::Wire(frame))
            .map_err(|e| WireError { dst, reason: e.to_string() })?;
        self.sent.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn recv(&self) -> Option<WireFrame> {
        if self.closed.load(Ordering::SeqCst) {
            return None;
        }
        self.rx.lock().unwrap().recv().ok().flatten()
    }

    fn close_inbound(&self) {
        self.closed.store(true, Ordering::SeqCst);
        // Wake a blocked `recv` with the end-of-stream sentinel.
        let _ = self.tx.lock().unwrap().send(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bst_runtime::comm::TileMsg;
    use bst_runtime::data::DataKey;
    use bst_tile::Tile;

    fn tile_frame(dst: usize, seed: u64) -> WireFrame {
        WireFrame::Tile {
            dst,
            msg: TileMsg {
                key: DataKey::A(1, 2),
                payload: Arc::new(Tile::random(4, 4, seed)),
                epoch: 1,
                src: 0,
                consumers: 1,
            },
        }
    }

    #[test]
    fn tcp_pair_round_trips_frames() {
        let listener = Transport::Tcp.bind("").unwrap();
        let addr = listener.local_addr().unwrap();
        let w0 = SocketWire::new(0);
        let w1 = SocketWire::new(1);
        let dial = Transport::Tcp.dial(&addr).unwrap();
        let accepted = listener.accept().unwrap();
        w0.register_peer(1, dial).unwrap();
        w1.register_peer(0, accepted).unwrap();

        w0.send(tile_frame(1, 7)).unwrap();
        let got = w1.recv().expect("frame should arrive");
        let WireFrame::Tile { dst, msg } = got;
        assert_eq!(dst, 1);
        assert_eq!(*msg.payload, Tile::random(4, 4, 7));
        assert_eq!(w0.stats().0, 1);
        assert_eq!(w1.stats().1, 1);

        w1.close_inbound();
        assert!(w1.recv().is_none());
    }

    #[cfg(unix)]
    #[test]
    fn uds_pair_round_trips_frames() {
        let path = std::env::temp_dir().join(format!("bst-net-test-{}.sock", std::process::id()));
        let path = path.to_string_lossy().into_owned();
        let listener = Transport::Uds.bind(&path).unwrap();
        let w0 = SocketWire::new(0);
        let w1 = SocketWire::new(1);
        let dial = Transport::Uds.dial(&path).unwrap();
        let accepted = listener.accept().unwrap();
        w0.register_peer(1, dial).unwrap();
        w1.register_peer(0, accepted).unwrap();

        w0.send(tile_frame(1, 9)).unwrap();
        let got = w1.recv().expect("frame should arrive");
        assert!(matches!(got, WireFrame::Tile { dst: 1, .. }));
        w1.close_inbound();
    }

    /// A header is 16 bytes: magic, version, kind, pad, `len`, CRC. `len`
    /// is outside the CRC, so `read_msg` must neither trust it for an
    /// up-front allocation nor misreport how much payload arrived.
    fn header_declaring(len: u32) -> Vec<u8> {
        let mut h = Vec::new();
        h.extend_from_slice(&codec::MAGIC.to_le_bytes());
        h.extend_from_slice(&codec::VERSION.to_le_bytes());
        h.extend_from_slice(&[0, 0]);
        h.extend_from_slice(&len.to_le_bytes());
        h.extend_from_slice(&0u32.to_le_bytes());
        h
    }

    #[test]
    fn short_payload_reports_the_bytes_that_arrived() {
        let mut stream = header_declaring(MAX_PAYLOAD as u32);
        stream.extend_from_slice(&[7u8; 10]);
        assert_eq!(
            read_msg(&mut stream.as_slice()).unwrap_err(),
            NetError::Codec(codec::CodecError::Truncated { needed: MAX_PAYLOAD, have: 10 })
        );
    }

    #[test]
    fn oversized_payload_is_refused_by_the_writer() {
        let fits = Msg::Ctl(codec::Ctl::Config("x".repeat(MAX_PAYLOAD - 5)));
        let mut sink = Vec::new();
        write_msg(&mut sink, &fits).expect("a payload of exactly MAX_PAYLOAD is legal");
        assert_eq!(sink.len(), HEADER_LEN + MAX_PAYLOAD);
        assert!(matches!(read_msg(&mut sink.as_slice()), Ok(Some(Msg::Ctl(_)))));

        let too_big = Msg::Ctl(codec::Ctl::Config("x".repeat(MAX_PAYLOAD - 4)));
        let mut sink = Vec::new();
        assert_eq!(
            write_msg(&mut sink, &too_big).unwrap_err(),
            NetError::Codec(codec::CodecError::Overflow)
        );
        assert!(sink.is_empty(), "nothing may reach the stream");
    }

    #[test]
    fn oversized_declared_length_is_overflow() {
        let stream = header_declaring(MAX_PAYLOAD as u32 + 1);
        assert_eq!(
            read_msg(&mut stream.as_slice()).unwrap_err(),
            NetError::Codec(codec::CodecError::Overflow)
        );
    }

    /// A peer is trusted with its own frames only. One addressed to another
    /// rank (7, outside this three-rank mesh), or claiming another sender,
    /// ends the connection like a corrupt stream: it never reaches `recv()`,
    /// so the engine's pump can neither index a rank that does not exist nor
    /// deposit into a store this process does not run.
    #[test]
    fn misaddressed_frames_are_rejected() {
        let listener = Transport::Tcp.bind("").unwrap();
        let addr = listener.local_addr().unwrap();
        let w1 = SocketWire::new(1);
        let mut writers = Vec::new();
        // `tile_frame` frames say rank 0 sent them.
        for (peer, frame) in [(0, tile_frame(7, 1)), (2, tile_frame(1, 2))] {
            let mut dial = Transport::Tcp.dial(&addr).unwrap();
            w1.register_peer(peer, listener.accept().unwrap()).unwrap();
            write_msg(&mut dial, &Msg::Wire(frame)).unwrap();
            writers.push(dial);
        }
        // A reader thread holds the wire until it ends its connection, and
        // the writers stay open: only a rejection ends one.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while Arc::strong_count(&w1) > 1 {
            assert!(std::time::Instant::now() < deadline, "a reader kept a misaddressing peer");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // A reader counts a frame before it queues it for `recv()`.
        assert_eq!(w1.stats().1, 0, "a misaddressed frame reached the engine");
    }

    #[test]
    fn send_without_route_is_typed() {
        let w = SocketWire::new(0);
        let err = w.send(tile_frame(3, 1)).unwrap_err();
        assert_eq!(err.dst, 3);
    }
}
