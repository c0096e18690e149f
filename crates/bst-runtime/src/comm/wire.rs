//! The pluggable inter-process wire behind [`CommFabric`](super::CommFabric).
//!
//! The fabric's default transport is in-process: every rank is a thread and
//! frames move over crossbeam channels. A multi-process deployment plugs a
//! [`Wire`] into the fabric instead ([`RemoteLink`]): frames addressed to a
//! rank this process does not host are handed to [`Wire::send`] (which
//! serializes them onto a socket), and a pump thread drains [`Wire::recv`]
//! into [`CommFabric::inject`](super::CommFabric::inject), which puts each
//! arriving frame through the exact same credit-gated inbox path a local
//! send would take. The engine, handlers and progress loops are identical
//! either way — the wire only replaces the channel hop between processes.
//!
//! The socket implementation (binary codec, connection lifecycle,
//! heartbeats) lives in the `bst-net` crate; this module defines only the
//! seam so the runtime stays dependency-free.

use super::TileMsg;

/// A frame crossing process boundaries: the inter-process image of the
/// fabric's `BcastA` frame. C never crosses between ranks of a
/// multi-process run (each rank streams its own share to the launcher),
/// and `Shutdown` never crosses the wire — each process shuts its own
/// fabric down once its local engine completes.
#[derive(Clone, Debug)]
pub enum WireFrame {
    /// An A tile on its one hop from its owner, addressed to rank `dst`.
    Tile {
        /// Destination rank.
        dst: usize,
        /// The tile and its sender.
        msg: TileMsg,
    },
}

impl WireFrame {
    /// The destination rank the frame is addressed to.
    pub fn dst(&self) -> usize {
        match self {
            WireFrame::Tile { dst, .. } => *dst,
        }
    }

    /// The rank that sent the frame.
    pub fn src(&self) -> usize {
        match self {
            WireFrame::Tile { msg, .. } => msg.src,
        }
    }
}

/// A wire-level send failure: the peer's connection is gone or refused the
/// bytes. Unlike an injected drop (which is transient by design), a wire
/// error is *fatal* to the sending task — the peer process is dead, and
/// recovery happens at the launcher (degraded re-plan), not by retrying
/// into a broken socket.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Destination rank of the failed send.
    pub dst: usize,
    /// Human-readable cause (the underlying I/O error).
    pub reason: String,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire send to rank {} failed: {}", self.dst, self.reason)
    }
}

impl std::error::Error for WireError {}

/// The transport seam between processes (see the module docs).
///
/// Implementations must be safe to call from multiple threads: sends come
/// from any worker lane, `recv` from the fabric's single pump thread.
pub trait Wire: Send + Sync {
    /// Ships one frame to the process hosting `frame.dst()`.
    fn send(&self, frame: WireFrame) -> Result<(), WireError>;

    /// Blocks for the next inbound frame; `None` once
    /// [`Wire::close_inbound`] was called and the queue is drained.
    fn recv(&self) -> Option<WireFrame>;

    /// Unblocks [`Wire::recv`] permanently (frames still arriving are
    /// dropped). Called after the local engine completed and the fabric
    /// shut down — everything addressed here has been consumed.
    fn close_inbound(&self);
}

/// Binds a [`Wire`] to the rank this process hosts: the fabric routes
/// frames for `rank` through its in-process inboxes and everything else
/// through `wire`.
#[derive(Clone)]
pub struct RemoteLink {
    /// The one rank whose endpoint is local to this process.
    pub rank: usize,
    /// Transport to every other rank.
    pub wire: std::sync::Arc<dyn Wire>,
}

impl std::fmt::Debug for RemoteLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteLink").field("rank", &self.rank).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::DataKey;
    use bst_tile::Tile;
    use std::sync::Arc;

    #[test]
    fn frame_destinations() {
        let tile = WireFrame::Tile {
            dst: 3,
            msg: TileMsg {
                key: DataKey::A(0, 0),
                payload: Arc::new(Tile::zeros(2, 2)),
                epoch: 1,
                src: 0,
                consumers: 1,
            },
        };
        assert_eq!((tile.dst(), tile.src()), (3, 0));
    }

    #[test]
    fn wire_error_display() {
        let e = WireError { dst: 4, reason: "connection reset".into() };
        assert!(e.to_string().contains("rank 4"));
        assert!(e.to_string().contains("connection reset"));
    }
}
