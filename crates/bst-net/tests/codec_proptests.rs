//! Property tests for the wire codec: every frame the transport can carry
//! round-trips bit-exactly (including low-rank tile payloads), and every
//! corrupted or truncated buffer decodes to a typed [`CodecError`] — never
//! a panic, never a silently wrong message.

use bst_net::codec::{self, CodecError, Ctl, Msg, HEADER_LEN};
use bst_runtime::comm::{TileMsg, WireFrame};
use bst_runtime::data::DataKey;
use bst_tile::{Repr, Tile};
use proptest::prelude::*;
use std::sync::Arc;

/// Deterministic pseudo-random tile, dense or genuinely low-rank
/// (`Repr::LowRank` factors on the wire, not a dense tile that happens to
/// have low numerical rank).
fn mk_tile(rows: usize, cols: usize, seed: u64, lowrank: bool) -> Tile {
    let val = |i: u64| (((seed.wrapping_mul(0x9E37_79B9).wrapping_add(i)) % 1000) as f64) / 7.0;
    if lowrank {
        let rank = 1 + (seed as usize) % rows.min(cols);
        let u: Vec<f64> = (0..rows * rank).map(|i| val(i as u64)).collect();
        let v: Vec<f64> = (0..cols * rank).map(|i| val(i as u64 ^ 0x55)).collect();
        Tile::from_factors(rows, cols, u, v, rank)
    } else {
        Tile::from_data(rows, cols, (0..rows * cols).map(|i| val(i as u64)).collect())
    }
}

fn mk_key(tag: u8, a: u32, b: u32) -> DataKey {
    match tag % 3 {
        0 => DataKey::A(a, b),
        1 => DataKey::B(a, b),
        _ => DataKey::C(a, b),
    }
}

/// Round-trip equality: decode must consume the whole buffer and re-encode
/// to the identical bytes (the codec has one canonical form per message).
fn assert_round_trip(msg: &Msg) -> Result<(), TestCaseError> {
    let bytes = codec::encode(msg);
    let (decoded, used) = codec::decode(&bytes)
        .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
    prop_assert_eq!(used, bytes.len(), "decode left trailing bytes");
    prop_assert_eq!(codec::encode(&decoded), bytes, "re-encode diverged");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `WireFrame::Tile` (the `BcastA` hop) round-trips for dense and
    /// low-rank payloads over every `DataKey` kind.
    #[test]
    fn tile_frames_round_trip(
        rows in 1usize..10,
        cols in 1usize..10,
        seed in 0u64..1000,
        key_tag in 0u8..3,
        epoch in 0u32..5,
        dst in 0usize..16,
        src in 0usize..16,
        consumers in 0usize..8,
        lowrank in 0u8..2,
    ) {
        let msg = Msg::Wire(WireFrame::Tile {
            dst,
            msg: TileMsg {
                key: mk_key(key_tag, rows as u32, cols as u32),
                payload: Arc::new(mk_tile(rows, cols, seed, lowrank == 1)),
                epoch,
                src,
                consumers,
            },
        });
        assert_round_trip(&msg)?;
    }

    /// Every control variant round-trips, including `Result` carrying a
    /// mixed dense/low-rank tile batch and strings with newlines.
    #[test]
    fn ctl_frames_round_trip(
        rank in 0u64..64,
        nonce in 0u64..1_000_000,
        n_tiles in 0usize..4,
        seed in 0u64..1000,
        text_pick in 0usize..3,
    ) {
        let text = ["", "nodes=4\nseed=7\npeers=0@a,1@b", "tolerance=1e-3"][text_pick];
        let tiles: Vec<(u32, u32, Tile)> = (0..n_tiles)
            .map(|t| {
                (t as u32, (t * 2) as u32, mk_tile(1 + t, 2 + t, seed ^ t as u64, t % 2 == 0))
            })
            .collect();
        let ctls = [
            Ctl::Hello { rank, addr: text.into() },
            Ctl::Config(text.into()),
            Ctl::Ready { rank },
            Ctl::Start,
            Ctl::Result { tiles },
            Ctl::Done { rank, sent_msgs: nonce, recv_msgs: nonce ^ 1 },
            Ctl::Ping(nonce),
            Ctl::Pong(nonce),
            Ctl::Abort(text.into()),
        ];
        for ctl in ctls {
            assert_round_trip(&Msg::Ctl(ctl))?;
        }
    }

    /// Low-rank payloads stay low-rank across the wire: the factors, not a
    /// densified copy, are what travels.
    #[test]
    fn lowrank_repr_survives_the_wire(
        rows in 2usize..12,
        cols in 2usize..12,
        seed in 0u64..1000,
    ) {
        let tile = mk_tile(rows, cols, seed, true);
        let Repr::LowRank { rank: sent_rank, .. } = *tile.repr() else {
            panic!("mk_tile(lowrank) built a dense tile");
        };
        let msg = Msg::Wire(WireFrame::Tile {
            dst: 1,
            msg: TileMsg {
                key: DataKey::A(0, 0),
                payload: Arc::new(tile.clone()),
                epoch: 1,
                src: 0,
                consumers: 1,
            },
        });
        let bytes = codec::encode(&msg);
        let (decoded, _) = codec::decode(&bytes).expect("decode");
        let Msg::Wire(WireFrame::Tile { msg: got, .. }) = decoded else {
            panic!("kind changed in flight");
        };
        match got.payload.repr() {
            Repr::LowRank { rank, .. } => prop_assert_eq!(*rank, sent_rank),
            Repr::Dense(_) => return Err(TestCaseError::fail("tile was densified in flight")),
        }
        prop_assert_eq!(got.payload.max_abs_diff(&tile), 0.0);
    }

    /// Truncating a valid frame at *every* prefix length yields
    /// `CodecError::Truncated` with an honest `needed` count — the
    /// streaming reader's read-more signal — and never panics.
    #[test]
    fn every_truncation_is_typed(
        rows in 1usize..6,
        cols in 1usize..6,
        seed in 0u64..1000,
        lowrank in 0u8..2,
    ) {
        let tile = mk_tile(rows, cols, seed, lowrank == 1);
        let msg = Msg::Ctl(Ctl::Result { tiles: vec![(3, 4, tile)] });
        let bytes = codec::encode(&msg);
        for len in 0..bytes.len() {
            match codec::decode(&bytes[..len]) {
                Err(CodecError::Truncated { needed, have }) => {
                    prop_assert_eq!(have, len);
                    prop_assert!(
                        needed > len && needed <= bytes.len(),
                        "needed {} out of range for a {}-byte frame cut at {}",
                        needed, bytes.len(), len
                    );
                }
                other => {
                    return Err(TestCaseError::fail(format!(
                        "truncation at {len} gave {other:?}, expected Truncated"
                    )))
                }
            }
        }
        prop_assert!(codec::decode(&bytes).is_ok());
    }

    /// Flipping any single byte of a frame is detected as the *right* typed
    /// error for where the flip landed — magic, version, payload CRC — and
    /// decoding never panics anywhere.
    #[test]
    fn every_byte_flip_is_typed(
        seed in 0u64..1000,
        flip in 1u8..=255,
        lowrank in 0u8..2,
    ) {
        let msg = Msg::Wire(WireFrame::Tile {
            dst: 2,
            msg: TileMsg {
                key: DataKey::B(1, 2),
                payload: Arc::new(mk_tile(4, 3, seed, lowrank == 1)),
                epoch: 1,
                src: 0,
                consumers: 2,
            },
        });
        let bytes = codec::encode(&msg);
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= flip;
            let result = codec::decode(&bad);
            match pos {
                0..=3 => prop_assert!(
                    matches!(result, Err(CodecError::BadMagic(_))),
                    "magic flip at {} gave {:?}", pos, result
                ),
                4..=5 => prop_assert!(
                    matches!(result, Err(CodecError::BadVersion(_))),
                    "version flip at {} gave {:?}", pos, result
                ),
                6..=11 => {
                    // Kind, reserved flags and length flips surface as
                    // *some* typed error or a benign decode (a flags flip
                    // is ignored by design; a length flip may read as
                    // Truncated or BadCrc). The invariant here is weaker
                    // but still load-bearing: no panic, and any Ok decode
                    // re-encodes canonically.
                    if let Ok((decoded, _)) = result {
                        let _ = codec::encode(&decoded);
                    }
                }
                12..=15 => prop_assert!(
                    matches!(result, Err(CodecError::BadCrc { .. })),
                    "crc-field flip at {} gave {:?}", pos, result
                ),
                _ => prop_assert!(
                    matches!(result, Err(CodecError::BadCrc { .. })),
                    "payload flip at {} gave {:?}", pos, result
                ),
            }
        }
    }

    /// Arbitrary garbage after a correct header+CRC (a hostile or buggy
    /// peer computing CRCs over nonsense) still decodes to a typed error,
    /// never a panic — the payload parsers bounds-check every read.
    #[test]
    fn garbage_payload_with_valid_crc_never_panics(
        kind in 1u8..4,
        len in 0usize..64,
        seed in 0u64..100_000,
    ) {
        let payload: Vec<u8> =
            (0..len).map(|i| (seed.wrapping_mul(31).wrapping_add(i as u64) % 251) as u8).collect();
        let mut buf = Vec::with_capacity(HEADER_LEN + len);
        buf.extend_from_slice(&codec::MAGIC.to_le_bytes());
        buf.extend_from_slice(&codec::VERSION.to_le_bytes());
        buf.push(kind);
        buf.push(0);
        buf.extend_from_slice(&(len as u32).to_le_bytes());
        buf.extend_from_slice(&codec::crc32(&payload).to_le_bytes());
        buf.extend_from_slice(&payload);
        match codec::decode(&buf) {
            Ok((msg, used)) => {
                // Freak case: the garbage parsed. It must still have one
                // canonical form.
                prop_assert_eq!(used, buf.len());
                let _ = codec::encode(&msg);
            }
            Err(
                CodecError::Truncated { .. }
                | CodecError::BadTag { .. }
                | CodecError::Overflow
                | CodecError::BadKind(_),
            ) => {}
            Err(e) => {
                return Err(TestCaseError::fail(format!(
                    "garbage payload gave unexpected error class {e:?}"
                )))
            }
        }
    }
}
