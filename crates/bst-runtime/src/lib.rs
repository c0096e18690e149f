#![warn(missing_docs)]

//! A PaRSEC-like dataflow runtime substrate.
//!
//! The paper implements its algorithm as a Parameterized Task Graph over the
//! PaRSEC distributed task runtime (§4): the *inspector* materialises the
//! task DAG (dataflow edges carrying tiles, plus architecture-specific
//! *control-flow* edges that throttle GPU memory use), and the runtime
//! schedules tasks as their inputs become available, moving data in the
//! background.
//!
//! This crate reproduces that architecture in shared memory with honest
//! distributed-memory discipline:
//!
//! * [`graph`] — a generic task DAG ([`graph::TaskGraph`]) whose edges are
//!   dependencies (dataflow or control flow — the scheduler treats them
//!   uniformly, exactly like PTG control flows);
//! * [`engine`] — the single policy-driven scheduler ([`engine::Engine`]):
//!   a *lane* (a CPU lane or a GPU lane of a simulated node) is a program
//!   that runs its tasks in id order, and one pooled worker per core
//!   serves every lane, with
//!   the timestamp clock and transient-failure retry
//!   ([`graph::RetryOptions`]) chosen independently on the one scheduler;
//! * [`data`] — per-node [`data::TileStore`]s with consumer reference
//!   counts: a tile is retained while tasks still need it and dropped after
//!   its last consumer, reproducing PaRSEC's data life-cycle management;
//!   nodes never read each other's stores — inter-node edges must go
//!   through explicit send tasks;
//! * [`comm`] — the message-passing transport between nodes
//!   ([`comm::CommFabric`]): bounded per-node inboxes drained by progress
//!   threads into the node-private stores, credit-based backpressure, and a
//!   pluggable link-cost shaper, so "a tile is usable only after its
//!   message arrived" is enforced rather than simulated;
//! * [`device`] — [`device::DeviceMemory`], a strict accounting of simulated
//!   GPU memory (loads fail rather than silently exceed capacity) plus a
//!   node-level residency registry enabling device-to-device transfers when
//!   a sibling GPU already holds a tile (the NVLink path of §4);
//! * [`trace`] — every run's task spans (ready, start, end per task id),
//!   trace well-formedness validation, and exporters (Chrome-trace JSON,
//!   plain-text summary).
//!
//! Executors built on this crate allocate their working tiles through the
//! re-exported [`TilePool`] (one pool per simulated node), so hot-path
//! zero-fills and on-demand tile generation recycle buffers instead of
//! hitting the allocator — the PaRSEC arena idea at tile granularity.

pub mod comm;
pub mod data;
pub mod device;
pub mod engine;
pub mod graph;
pub mod trace;

pub use bst_tile::pool::{PoolStats, TilePool};
pub use comm::{
    CommConfig, CommEvent, CommFabric, DeliveryPolicy, LinkShaper, NodeCommStats,
    RemoteLink, SendError, TileMsg, Wire, WireError, WireFrame,
};
pub use data::{BCacheKey, BCacheStats, BTileCache, DataKey, TileStore};
pub use device::{DeviceMemory, NodeResidency};
pub use engine::{infallible, Engine};
pub use graph::{FallibleRun, RetryOptions, RunAbort, TaskError, TaskGraph, WorkerId};
pub use trace::{ExecTrace, TaskRecord, TracePhase};
