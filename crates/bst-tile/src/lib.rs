#![warn(missing_docs)]

//! Irregular tilings and dense tiles — the lowest-level substrate of the
//! block-sparse contraction stack.
//!
//! The paper's matrices are *irregularly tiled*: the rows and columns of the
//! element-level matrix are partitioned into contiguous ranges of varying
//! length ("tiles" in one dimension, "blocks" when crossed with another
//! dimension). This crate provides:
//!
//! * [`Tiling`] — an irregular partition of `0..extent`, with O(1) size/offset
//!   queries and O(log n) coordinate lookup;
//! * [`Tile`] — a column-major `f64` block, stored dense or as a truncated
//!   low-rank factorization ([`Repr`]);
//! * [`lowrank`] — the pivoted-QR truncation kernel and the rank-aware
//!   GEMM routing behind [`kernel`] dispatch;
//! * [`gemm`] — `C += A * B` kernels (naive reference, cache-blocked, and an
//!   AVX2+FMA micro-kernel detected at run time) used by the simulated GPU
//!   executors; each runs on the calling thread;
//! * [`kernel`] — dispatch between the kernels by shape and CPU features
//!   ([`kernel::select_heuristic`]);
//! * [`pool`] — recycling buffer arenas so hot-path tile allocations reuse
//!   freed buffers: a node's B buffers ([`pool::TilePool`]) and the
//!   process's C buffers across contractions ([`pool::CReserve`]).
//!
//! Everything in this crate is deterministic — a function of its inputs and,
//! for GEMM rounding, of whether the host has AVX2+FMA; random builders take
//! explicit seeds.

pub mod gemm;
pub mod kernel;
pub mod lowrank;
pub mod pool;
pub mod tile;
pub mod tiling;

pub use kernel::KernelKind;
pub use pool::TilePool;
pub use tile::{Repr, Tile};
pub use tiling::Tiling;
