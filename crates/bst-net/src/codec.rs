//! The wire codec: a compact, self-describing binary framing for every
//! message crossing process boundaries.
//!
//! Hand-rolled (no serde), mirroring the spirit of `bst-bench`'s
//! `minijson`: the format is small enough to own outright. Every message
//! is one *frame*:
//!
//! ```text
//! ┌────────────┬─────────┬──────┬───────┬─────────────┬───────────────┐
//! │ magic u32  │ ver u16 │ kind │ flags │ payload len │  payload crc  │
//! │  "BSTW"    │    2    │  u8  │  u8   │     u32     │ u32 (CRC-32C) │
//! └────────────┴─────────┴──────┴───────┴─────────────┴───────────────┘
//!    16-byte header, little-endian, followed by `len` payload bytes.
//! ```
//!
//! `kind` selects the payload vocabulary: the fabric's A-tile frame
//! ([`WireFrame::Tile`], rank to rank) or the process-lifecycle control
//! messages ([`Ctl`], launcher ⇄ rank — each rank's share of C leaves as
//! [`Ctl::Result`] frames). The CRC covers the payload, so a torn or
//! corrupted frame is rejected as a typed [`CodecError`] — never a panic,
//! and never a silently wrong tile.
//!
//! A hop should cost about a memcpy, so the data path is slab-wise:
//! [`crc32`] is CRC-32C, eight bytes per step (the SSE4.2 `crc32`
//! instruction where the CPU has it, slicing-by-8 tables elsewhere), tile
//! values are converted a whole slice at a time, and [`encode`] builds the
//! frame in one buffer — payload appended behind a placeholder header whose
//! `len` and `crc` are patched afterwards.
//!
//! Integers are little-endian; `f64`s travel as their IEEE-754 bit
//! patterns (`to_bits`/`from_bits`), so a decoded tile is **bit-identical**
//! to the encoded one — the transport can therefore never perturb the
//! numerics, which is what the end-to-end `== 0.0` gates verify.

use bst_runtime::comm::{TileMsg, WireFrame};
use bst_runtime::data::DataKey;
use bst_tile::{Repr, Tile};
use std::sync::Arc;

/// Frame magic: `b"BSTW"` read as a little-endian u32.
pub const MAGIC: u32 = u32::from_le_bytes(*b"BSTW");
/// Codec version carried in every header (2: CRC-32C, no C-part frames).
pub const VERSION: u16 = 2;
/// Header size in bytes.
pub const HEADER_LEN: usize = 16;
/// Largest payload a frame may carry: 64 MiB, a 2896² dense tile. The
/// writer refuses to send more and the reader treats a larger declared
/// length as corruption rather than an allocation request. (`Result` is
/// chunked, so the largest legitimate frame is one tile plus a few dozen
/// bytes.)
pub const MAX_PAYLOAD: usize = 64 << 20;

/// `kind` byte of a [`WireFrame::Tile`] frame.
pub const KIND_TILE: u8 = 1;
/// `kind` byte of a [`Ctl`] frame (2 was version 1's C-part frame).
pub const KIND_CTL: u8 = 3;

/// Typed decode failure. Every malformed input maps to one of these —
/// decoding never panics (the property suite feeds corrupted and truncated
/// buffers to prove it).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ends before the message does.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes it had.
        have: usize,
    },
    /// The header doesn't start with [`MAGIC`].
    BadMagic(u32),
    /// Unsupported codec version.
    BadVersion(u16),
    /// Unknown frame kind.
    BadKind(u8),
    /// Payload checksum mismatch: the frame was corrupted in flight.
    BadCrc {
        /// CRC the header declared.
        expected: u32,
        /// CRC of the received payload.
        got: u32,
    },
    /// An enum tag inside the payload is out of range.
    BadTag {
        /// Which field carried the tag.
        field: &'static str,
        /// The offending value.
        tag: u8,
    },
    /// A declared length is inconsistent (e.g. a tile bigger than its
    /// frame) — rejected before any allocation is attempted.
    Overflow,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { needed, have } => {
                write!(f, "truncated frame: needed {needed} bytes, have {have}")
            }
            CodecError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            CodecError::BadVersion(v) => write!(f, "unsupported codec version {v}"),
            CodecError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            CodecError::BadCrc { expected, got } => {
                write!(f, "payload crc mismatch: header says {expected:#010x}, got {got:#010x}")
            }
            CodecError::BadTag { field, tag } => write!(f, "bad {field} tag {tag}"),
            CodecError::Overflow => write!(f, "inconsistent length in payload"),
        }
    }
}

impl std::error::Error for CodecError {}

// ---- CRC-32C (Castagnoli, reflected) -----------------------------------

/// Slicing-by-8 tables for the fallback: `T[0]` is the classic bytewise
/// table and `T[k][b]` is the CRC of byte `b` followed by `k` zero bytes,
/// so eight input bytes fold into the register with eight independent
/// lookups.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0x82F6_3B78 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32C of `data` — the payload checksum carried in every header.
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("sse4.2") {
        // SAFETY: the CPU supports SSE4.2, checked just above.
        return unsafe { crc32_sse42(data) };
    }
    crc32_sliced(data)
}

/// [`crc32`] on the SSE4.2 `crc32` instruction, eight bytes per step.
///
/// # Safety
/// The CPU must support SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32_sse42(data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut c = !0u64;
    let mut chunks = data.chunks_exact(8);
    for w in &mut chunks {
        c = _mm_crc32_u64(c, u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")));
    }
    // The < 8-byte tail.
    let mut c = c as u32;
    for &b in chunks.remainder() {
        c = _mm_crc32_u8(c, b);
    }
    !c
}

/// [`crc32`] on the slicing-by-8 tables, for CPUs without SSE4.2.
fn crc32_sliced(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let mut chunks = data.chunks_exact(8);
    for w in &mut chunks {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    // The < 8-byte tail.
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---- Primitive writers/readers ------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64s(out: &mut Vec<u8>, vals: &[f64]) {
    let start = out.len();
    out.resize(start + vals.len() * 8, 0);
    for (dst, v) in out[start..].chunks_exact_mut(8).zip(vals) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked little-endian reader over a payload slice.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn need(&self, n: usize) -> Result<(), CodecError> {
        if self.buf.len() - self.pos < n {
            Err(CodecError::Truncated { needed: self.pos + n, have: self.buf.len() })
        } else {
            Ok(())
        }
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        self.need(1)?;
        let v = self.buf[self.pos];
        self.pos += 1;
        Ok(v)
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        self.need(4)?;
        let v = u32::from_le_bytes(self.buf[self.pos..self.pos + 4].try_into().unwrap());
        self.pos += 4;
        Ok(v)
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        self.need(8)?;
        let v = u64::from_le_bytes(self.buf[self.pos..self.pos + 8].try_into().unwrap());
        self.pos += 8;
        Ok(v)
    }

    fn f64s(&mut self, n: usize) -> Result<Vec<f64>, CodecError> {
        let bytes = n.checked_mul(8).ok_or(CodecError::Overflow)?;
        self.need(bytes)?;
        let slab = &self.buf[self.pos..self.pos + bytes];
        self.pos += bytes;
        Ok(slab.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())).collect())
    }

    fn string(&mut self) -> Result<String, CodecError> {
        let len = self.u32()? as usize;
        self.need(len)?;
        let s = String::from_utf8_lossy(&self.buf[self.pos..self.pos + len]).into_owned();
        self.pos += len;
        Ok(s)
    }

    fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ---- Tile ----------------------------------------------------------------

const TILE_DENSE: u8 = 0;
const TILE_LOWRANK: u8 = 1;

fn put_tile(out: &mut Vec<u8>, tile: &Tile) {
    put_u32(out, tile.rows() as u32);
    put_u32(out, tile.cols() as u32);
    match tile.repr() {
        Repr::Dense(data) => {
            out.push(TILE_DENSE);
            put_f64s(out, data);
        }
        Repr::LowRank { u, v, rank } => {
            out.push(TILE_LOWRANK);
            put_u32(out, *rank as u32);
            put_f64s(out, u);
            put_f64s(out, v);
        }
    }
}

fn get_tile(r: &mut Reader<'_>) -> Result<Tile, CodecError> {
    let rows = r.u32()? as usize;
    let cols = r.u32()? as usize;
    if rows == 0 || cols == 0 {
        return Err(CodecError::Overflow);
    }
    match r.u8()? {
        TILE_DENSE => {
            let n = rows.checked_mul(cols).ok_or(CodecError::Overflow)?;
            Ok(Tile::from_data(rows, cols, r.f64s(n)?))
        }
        TILE_LOWRANK => {
            let rank = r.u32()? as usize;
            if rank > rows.min(cols) {
                return Err(CodecError::Overflow);
            }
            let u = r.f64s(rows * rank)?;
            let v = r.f64s(cols * rank)?;
            Ok(Tile::from_factors(rows, cols, u, v, rank))
        }
        tag => Err(CodecError::BadTag { field: "tile repr", tag }),
    }
}

// ---- DataKey -------------------------------------------------------------

fn put_key(out: &mut Vec<u8>, key: DataKey) {
    let (tag, a, b) = match key {
        DataKey::A(i, k) => (0u8, i, k),
        DataKey::B(k, j) => (1u8, k, j),
        DataKey::C(i, j) => (2u8, i, j),
    };
    out.push(tag);
    put_u32(out, a);
    put_u32(out, b);
}

fn get_key(r: &mut Reader<'_>) -> Result<DataKey, CodecError> {
    let tag = r.u8()?;
    let a = r.u32()?;
    let b = r.u32()?;
    match tag {
        0 => Ok(DataKey::A(a, b)),
        1 => Ok(DataKey::B(a, b)),
        2 => Ok(DataKey::C(a, b)),
        tag => Err(CodecError::BadTag { field: "data key", tag }),
    }
}

// ---- Control vocabulary --------------------------------------------------

/// Process-lifecycle control messages (launcher ⇄ worker, and the `Hello`
/// identifying a data connection in the worker mesh).
#[derive(Clone, Debug, PartialEq)]
pub enum Ctl {
    /// First message on every connection: who is this, and (on control
    /// connections) where the sender's data listener is.
    Hello {
        /// Sender's rank.
        rank: u64,
        /// The sender's data-plane listen address (empty on data
        /// connections, where `Hello` only identifies the dialing rank).
        addr: String,
    },
    /// The job description, opaque to the transport (the launcher appends
    /// `peers=` / `dead_node=` lines the worker session consumes).
    Config(String),
    /// Worker's data mesh is fully connected; ready to start.
    Ready {
        /// Sender's rank.
        rank: u64,
    },
    /// Launcher: every worker is ready — run the job.
    Start,
    /// Some of the sending rank's own C tiles `(i, j, tile)`.
    Result {
        /// Non-zero C tiles in row-major key order.
        tiles: Vec<(u32, u32, Tile)>,
    },
    /// Worker finished its job (sent after its last `Result`).
    Done {
        /// Sender's rank.
        rank: u64,
        /// Data frames the worker put on the wire.
        sent_msgs: u64,
        /// Data frames the worker received over the wire.
        recv_msgs: u64,
    },
    /// Liveness probe (launcher → worker), echoed back as [`Ctl::Pong`].
    Ping(u64),
    /// Heartbeat reply carrying the probe's nonce.
    Pong(u64),
    /// Fatal worker-side failure, with the rendered error.
    Abort(String),
}

const CTL_HELLO: u8 = 1;
const CTL_CONFIG: u8 = 2;
const CTL_READY: u8 = 3;
const CTL_START: u8 = 4;
const CTL_RESULT: u8 = 5;
const CTL_DONE: u8 = 6;
const CTL_PING: u8 = 7;
const CTL_PONG: u8 = 8;
const CTL_ABORT: u8 = 9;

fn put_ctl(out: &mut Vec<u8>, msg: &Ctl) {
    match msg {
        Ctl::Hello { rank, addr } => {
            out.push(CTL_HELLO);
            put_u64(out, *rank);
            put_str(out, addr);
        }
        Ctl::Config(text) => {
            out.push(CTL_CONFIG);
            put_str(out, text);
        }
        Ctl::Ready { rank } => {
            out.push(CTL_READY);
            put_u64(out, *rank);
        }
        Ctl::Start => out.push(CTL_START),
        Ctl::Result { tiles } => {
            out.push(CTL_RESULT);
            put_u32(out, tiles.len() as u32);
            for (i, j, tile) in tiles {
                put_u32(out, *i);
                put_u32(out, *j);
                put_tile(out, tile);
            }
        }
        Ctl::Done { rank, sent_msgs, recv_msgs } => {
            out.push(CTL_DONE);
            put_u64(out, *rank);
            put_u64(out, *sent_msgs);
            put_u64(out, *recv_msgs);
        }
        Ctl::Ping(nonce) => {
            out.push(CTL_PING);
            put_u64(out, *nonce);
        }
        Ctl::Pong(nonce) => {
            out.push(CTL_PONG);
            put_u64(out, *nonce);
        }
        Ctl::Abort(reason) => {
            out.push(CTL_ABORT);
            put_str(out, reason);
        }
    }
}

fn get_ctl(r: &mut Reader<'_>) -> Result<Ctl, CodecError> {
    match r.u8()? {
        CTL_HELLO => Ok(Ctl::Hello { rank: r.u64()?, addr: r.string()? }),
        CTL_CONFIG => Ok(Ctl::Config(r.string()?)),
        CTL_READY => Ok(Ctl::Ready { rank: r.u64()? }),
        CTL_START => Ok(Ctl::Start),
        CTL_RESULT => {
            let n = r.u32()? as usize;
            let mut tiles = Vec::new();
            for _ in 0..n {
                let i = r.u32()?;
                let j = r.u32()?;
                tiles.push((i, j, get_tile(r)?));
            }
            Ok(Ctl::Result { tiles })
        }
        CTL_DONE => Ok(Ctl::Done { rank: r.u64()?, sent_msgs: r.u64()?, recv_msgs: r.u64()? }),
        CTL_PING => Ok(Ctl::Ping(r.u64()?)),
        CTL_PONG => Ok(Ctl::Pong(r.u64()?)),
        CTL_ABORT => Ok(Ctl::Abort(r.string()?)),
        tag => Err(CodecError::BadTag { field: "ctl", tag }),
    }
}

// ---- Top-level messages --------------------------------------------------

/// Everything the codec can frame: a fabric data frame or a control
/// message.
#[derive(Clone, Debug)]
pub enum Msg {
    /// A data-plane frame ([`WireFrame::Tile`]).
    Wire(WireFrame),
    /// A control-plane message.
    Ctl(Ctl),
}

/// Appends `msg`'s payload to `out`, returning the frame kind.
fn payload_of(out: &mut Vec<u8>, msg: &Msg) -> u8 {
    match msg {
        Msg::Wire(WireFrame::Tile { dst, msg }) => {
            put_u64(out, *dst as u64);
            put_key(out, msg.key);
            put_u32(out, msg.epoch);
            put_u64(out, msg.src as u64);
            put_u64(out, msg.consumers as u64);
            put_tile(out, &msg.payload);
            KIND_TILE
        }
        Msg::Ctl(ctl) => {
            put_ctl(out, ctl);
            KIND_CTL
        }
    }
}

/// Upper bound on `msg`'s payload size apart from strings — what [`encode`]
/// reserves up front, so a tile-carrying frame is built without a growth
/// reallocation: ≤ 40 bytes of frame fields, and per tile its values plus
/// ≤ 21 bytes of shape, repr tag, rank and (in a `Result`) block indices.
fn payload_hint(msg: &Msg) -> usize {
    let tile = |t: &Tile| t.stored_bytes() as usize + 21;
    40 + match msg {
        Msg::Wire(WireFrame::Tile { msg, .. }) => tile(&msg.payload),
        Msg::Ctl(Ctl::Result { tiles }) => tiles.iter().map(|(_, _, t)| tile(t)).sum(),
        Msg::Ctl(_) => 0,
    }
}

/// Encodes `msg` as one complete frame (header + payload) in one buffer:
/// the payload is appended behind a placeholder header, then `len` and
/// `crc` are patched in. A payload too long for the `u32` length field
/// declares `u32::MAX`, which every reader rejects as
/// [`CodecError::Overflow`] (and [`write_msg`](crate::socket::write_msg)
/// refuses to send) instead of mis-parsing a truncated length.
pub fn encode(msg: &Msg) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload_hint(msg));
    out.resize(HEADER_LEN, 0);
    let kind = payload_of(&mut out, msg);
    let (header, payload) = out.split_at_mut(HEADER_LEN);
    let len = u32::try_from(payload.len()).unwrap_or(u32::MAX);
    header[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    header[4..6].copy_from_slice(&VERSION.to_le_bytes());
    header[6] = kind; // header[7]: flags, reserved (0)
    header[8..12].copy_from_slice(&len.to_le_bytes());
    header[12..16].copy_from_slice(&crc32(payload).to_le_bytes());
    out
}

/// Decodes the payload of a frame whose header declared `kind`.
pub fn decode_payload(kind: u8, payload: &[u8]) -> Result<Msg, CodecError> {
    let mut r = Reader::new(payload);
    let msg = match kind {
        KIND_TILE => {
            let dst = r.u64()? as usize;
            let key = get_key(&mut r)?;
            let epoch = r.u32()?;
            let src = r.u64()? as usize;
            let consumers = r.u64()? as usize;
            let payload = Arc::new(get_tile(&mut r)?);
            Msg::Wire(WireFrame::Tile {
                dst,
                msg: TileMsg { key, payload, epoch, src, consumers },
            })
        }
        KIND_CTL => Msg::Ctl(get_ctl(&mut r)?),
        kind => return Err(CodecError::BadKind(kind)),
    };
    if !r.finished() {
        return Err(CodecError::Overflow);
    }
    Ok(msg)
}

/// Decodes one frame from the front of `buf`, returning the message and the
/// bytes consumed. [`CodecError::Truncated`] reports how many bytes a
/// partial frame still needs — the streaming reader's read-more signal.
pub fn decode(buf: &[u8]) -> Result<(Msg, usize), CodecError> {
    if buf.len() < HEADER_LEN {
        return Err(CodecError::Truncated { needed: HEADER_LEN, have: buf.len() });
    }
    let magic = u32::from_le_bytes(buf[0..4].try_into().unwrap());
    if magic != MAGIC {
        return Err(CodecError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(buf[4..6].try_into().unwrap());
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let kind = buf[6];
    let len = u32::from_le_bytes(buf[8..12].try_into().unwrap()) as usize;
    let declared_crc = u32::from_le_bytes(buf[12..16].try_into().unwrap());
    let total = HEADER_LEN + len;
    if buf.len() < total {
        return Err(CodecError::Truncated { needed: total, have: buf.len() });
    }
    let payload = &buf[HEADER_LEN..total];
    let got = crc32(payload);
    if got != declared_crc {
        return Err(CodecError::BadCrc { expected: declared_crc, got });
    }
    Ok((decode_payload(kind, payload)?, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bytewise table-driven CRC — the oracle both fast paths must match.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc_reference_vector() {
        // The standard CRC-32C check value.
        assert_eq!(crc32(b"123456789"), 0xE306_9283);
        assert_eq!(crc32_sliced(b"123456789"), 0xE306_9283);
        assert_eq!(crc32(b""), 0);
    }

    /// `crc32` takes the SSE4.2 path on every CPU that has it, so this also
    /// holds the table fallback equal to the instruction.
    #[test]
    fn crc_matches_bytewise_oracle_at_every_length_and_offset() {
        // Knuth's multiplicative hash: 2056 well-mixed bytes.
        let buf: Vec<u8> =
            (1..=2056u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
        for start in 0..8 {
            for len in 0..=2048 {
                let s = &buf[start..start + len];
                let want = crc32_bytewise(s);
                assert_eq!(crc32(s), want, "start {start}, len {len}");
                assert_eq!(crc32_sliced(s), want, "start {start}, len {len}");
            }
        }
    }

    proptest! {
        #[test]
        fn crc_matches_bytewise_oracle(data in prop::collection::vec(0u8..=255, 0..2048)) {
            prop_assert_eq!(crc32(&data), crc32_bytewise(&data));
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// One dense `Tile` frame and one two-tile `Ctl::Result` frame, with
    /// hand-picked values.
    fn golden_msgs() -> [Msg; 2] {
        let dense = Tile::from_data(2, 3, vec![1.0, -2.5, 3.25, 0.0, 1e-300, f64::MAX]);
        let lowrank = Tile::from_factors(3, 2, vec![0.5, -1.0, 2.0], vec![4.0, -0.125], 1);
        let tile = WireFrame::Tile {
            dst: 2,
            msg: TileMsg {
                key: DataKey::A(4, 9),
                payload: Arc::new(dense.clone()),
                epoch: 3,
                src: 1,
                consumers: 2,
            },
        };
        let result = Ctl::Result { tiles: vec![(0, 1, dense), (5, 6, lowrank)] };
        [Msg::Wire(tile), Msg::Ctl(result)]
    }

    /// Version 1's frames of these messages with the header re-stamped:
    /// version 2 and the payload's CRC-32C, computed outside this crate by a
    /// bitwise reference. Every payload byte is version 1's. The version
    /// moved once, because the checksum changed (and `kind` 2, the C-part
    /// frame, is gone): a version-1 peer is refused as `BadVersion` instead
    /// of failing every frame's CRC.
    #[test]
    fn golden_frames_pin_version_2() {
        assert_eq!(VERSION, 2);
        let golden = [
            "42535457020001005e00000034c9f7ca0200000000000000000400000009000000030000000100\
             0000000000000200000000000000020000000300000000000000000000f03f00000000000004c0\
             0000000000000a40000000000000000059f3f8c21f6ea501ffffffffffffef7f",
            "4253545702000300830000009620af5005020000000000000001000000020000000300000000\
             000000000000f03f00000000000004c00000000000000a40000000000000000059f3f8c21f6ea501\
             ffffffffffffef7f050000000600000003000000020000000101000000000000000000e03f000000\
             000000f0bf00000000000000400000000000001040000000000000c0bf",
        ];
        for (msg, want) in golden_msgs().iter().zip(golden) {
            assert_eq!(hex(&encode(msg)), want, "{msg:?}");
        }
    }

    #[test]
    fn encode_reserves_the_whole_frame_up_front() {
        for msg in golden_msgs() {
            let frame = encode(&msg);
            assert!(frame.len() <= HEADER_LEN + payload_hint(&msg), "{msg:?} outgrew its hint");
        }
    }

    #[test]
    fn ctl_round_trip() {
        for msg in [
            Ctl::Hello { rank: 3, addr: "127.0.0.1:4000".into() },
            Ctl::Config("nodes=4\nseed=7".into()),
            Ctl::Ready { rank: 1 },
            Ctl::Start,
            Ctl::Done { rank: 2, sent_msgs: 10, recv_msgs: 12 },
            Ctl::Ping(42),
            Ctl::Pong(42),
            Ctl::Abort("device memory exhausted".into()),
        ] {
            let bytes = encode(&Msg::Ctl(msg.clone()));
            let (decoded, used) = decode(&bytes).unwrap();
            assert_eq!(used, bytes.len());
            match decoded {
                Msg::Ctl(d) => assert_eq!(d, msg),
                other => panic!("wrong kind: {other:?}"),
            }
        }
    }

    #[test]
    fn tile_frame_bit_identity() {
        let tile = Tile::random(5, 3, 0xFEED);
        let frame = WireFrame::Tile {
            dst: 2,
            msg: TileMsg {
                key: DataKey::A(4, 9),
                payload: Arc::new(tile.clone()),
                epoch: 3,
                src: 1,
                consumers: 2,
            },
        };
        let bytes = encode(&Msg::Wire(frame));
        let (decoded, _) = decode(&bytes).unwrap();
        match decoded {
            Msg::Wire(WireFrame::Tile { dst, msg }) => {
                assert_eq!(dst, 2);
                assert_eq!(msg.key, DataKey::A(4, 9));
                assert_eq!((msg.epoch, msg.src, msg.consumers), (3, 1, 2));
                assert_eq!(*msg.payload, tile, "payload must be bit-identical");
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn truncation_reports_needed_bytes() {
        let bytes = encode(&Msg::Ctl(Ctl::Start));
        match decode(&bytes[..HEADER_LEN - 4]) {
            Err(CodecError::Truncated { needed, have }) => {
                assert_eq!(needed, HEADER_LEN);
                assert_eq!(have, HEADER_LEN - 4);
            }
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn corruption_is_a_crc_error() {
        let mut bytes = encode(&Msg::Ctl(Ctl::Ping(7)));
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(matches!(decode(&bytes), Err(CodecError::BadCrc { .. })));
    }
}
