//! Shape-aware GEMM kernel dispatch.
//!
//! Small-block GEMM throughput lives or dies on picking the right kernel for
//! each tile shape (DBCSR makes the same observation for its libcusmm /
//! libxsmm backends, whose parameter tables are tuned offline): a 3×200×3
//! sliver wants the plain blocked loop, a 40×40×40 cube stays cache-resident
//! without packing, and a 256-edge tile wants a packed register-blocked
//! micro-kernel. This module provides:
//!
//! * [`KernelKind`] — an enumeration of every kernel in [`crate::gemm`],
//!   with [`KernelKind::run`] dispatching to the implementation;
//! * [`select_heuristic`] — the shape rule; the only place a kernel is
//!   chosen. Its thresholds are re-derived offline from
//!   `results/BENCH_kernels.json` (`repro_kernels`), never by timing inside
//!   an execution.
//!
//! Every kernel has identical `C ← alpha·A·B + C` semantics, so dispatch is
//! a pure performance decision — the property tests in `tests/proptests.rs`
//! hold all of them to `gemm_naive` behaviour.

use crate::gemm::{
    gemm_blocked, gemm_naive, gemm_packed, gemm_packed_4x8, gemm_packed_8x4, gemm_packed_8x8,
};
use crate::tile::Tile;

/// The common signature of every tile GEMM kernel.
pub type GemmFn = fn(f64, &Tile, &Tile, &mut Tile);

/// One of the GEMM implementations in [`crate::gemm`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Triple loop ([`gemm_naive`]).
    Naive,
    /// Cache-blocked loop ([`gemm_blocked`]) — the pre-dispatch default.
    Blocked,
    /// Packed panels, 4×4 micro-tile ([`gemm_packed`]).
    Packed4x4,
    /// Packed panels, 8×4 micro-tile ([`gemm_packed_8x4`]).
    Packed8x4,
    /// Packed panels, 4×8 micro-tile ([`gemm_packed_4x8`]).
    Packed4x8,
    /// Packed panels, 8×8 micro-tile ([`gemm_packed_8x8`]).
    Packed8x8,
}

impl KernelKind {
    /// Every kernel, in a stable order (used by benches and reports).
    pub const ALL: [KernelKind; 6] = [
        KernelKind::Naive,
        KernelKind::Blocked,
        KernelKind::Packed4x4,
        KernelKind::Packed8x4,
        KernelKind::Packed4x8,
        KernelKind::Packed8x8,
    ];

    /// Stable display name (also the key used in `BENCH_kernels.json`).
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Naive => "naive",
            KernelKind::Blocked => "blocked",
            KernelKind::Packed4x4 => "packed4x4",
            KernelKind::Packed8x4 => "packed8x4",
            KernelKind::Packed4x8 => "packed4x8",
            KernelKind::Packed8x8 => "packed8x8",
        }
    }

    /// The implementing function.
    pub fn func(self) -> GemmFn {
        match self {
            KernelKind::Naive => gemm_naive,
            KernelKind::Blocked => gemm_blocked,
            KernelKind::Packed4x4 => gemm_packed,
            KernelKind::Packed8x4 => gemm_packed_8x4,
            KernelKind::Packed4x8 => gemm_packed_4x8,
            KernelKind::Packed8x8 => gemm_packed_8x8,
        }
    }

    /// Runs `C ← alpha·A·B + C` with this kernel. Low-rank operands are
    /// routed through [`crate::lowrank::gemm_lowrank`], which decomposes
    /// the product into dense sub-GEMMs executed by this same kernel; the
    /// `LR × LR` middle matrix is applied exactly (no re-compression — use
    /// [`KernelKind::run_recompress`] to enable it).
    #[inline]
    pub fn run(self, alpha: f64, a: &Tile, b: &Tile, c: &mut Tile) {
        self.run_recompress(alpha, a, b, c, 0.0);
    }

    /// [`KernelKind::run`] with an explicit re-compression tolerance for
    /// the `LR × LR` path: when both operands are low-rank and `tol > 0`,
    /// the middle matrix `V_aᵀ·U_b` is itself truncated at `tol`, so the
    /// applied rank can drop below `min(r_a, r_b)`. Dense×dense products
    /// are dispatched straight to the kernel function — with dense
    /// operands this is byte-identical to the pre-polymorphic path for
    /// every `tol`.
    #[inline]
    pub fn run_recompress(self, alpha: f64, a: &Tile, b: &Tile, c: &mut Tile, tol: f64) {
        if a.is_dense() && b.is_dense() {
            (self.func())(alpha, a, b, c);
        } else {
            crate::lowrank::gemm_lowrank(self, alpha, a, b, c, tol);
        }
    }

    /// Index of this kind in [`KernelKind::ALL`] (for counter arrays).
    pub fn index(self) -> usize {
        KernelKind::ALL.iter().position(|&k| k == self).unwrap()
    }
}

/// Shape-rule dispatch: pick a kernel for an `m × n × k` product without
/// any measurement.
///
/// The rules, in order: problems too thin for a register micro-tile (either
/// output dimension under 4) or with a trivial inner dimension stay on the
/// blocked loop (the packed variants would only fall back anyway, after a
/// useless shape check); large tiles take the packed path, whose panel reuse
/// beats the blocked loop once the working set outgrows L1; mid-sized tiles
/// (roughly 24–48 edges) stay blocked — they fit cache without packing, so
/// the pack traffic is pure overhead; small-but-micro-tileable shapes pack
/// too, widened along whichever output dimension has room.
pub fn select_heuristic(m: usize, n: usize, k: usize) -> KernelKind {
    let vol = m * n * k;
    if m < 4 || n < 4 || k < 2 {
        return KernelKind::Blocked;
    }
    if vol >= 48 * 48 * 48 {
        return KernelKind::Packed4x4;
    }
    if vol > 20 * 20 * 20 {
        return KernelKind::Blocked;
    }
    match (m >= 8, n >= 8) {
        (true, true) | (false, true) => KernelKind::Packed4x8,
        (true, false) => KernelKind::Packed8x4,
        (false, false) => KernelKind::Packed4x4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_stable() {
        let mut names: Vec<_> = KernelKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), KernelKind::ALL.len());
        assert_eq!(KernelKind::Packed8x4.name(), "packed8x4");
    }

    #[test]
    fn index_roundtrips() {
        for (i, k) in KernelKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn heuristic_respects_shape() {
        assert_eq!(select_heuristic(512, 512, 512), KernelKind::Packed4x4);
        assert_eq!(select_heuristic(2, 200, 50), KernelKind::Blocked);
        assert_eq!(select_heuristic(200, 2, 50), KernelKind::Blocked);
        // Large tiles pack, mid-size tiles stay blocked (cache-resident
        // without packing), small tiles pack with a widened micro-tile.
        assert_eq!(select_heuristic(64, 64, 64), KernelKind::Packed4x4);
        assert_eq!(select_heuristic(40, 40, 40), KernelKind::Blocked);
        assert_eq!(select_heuristic(16, 16, 16), KernelKind::Packed4x8);
        assert_eq!(select_heuristic(16, 5, 16), KernelKind::Packed8x4);
        assert_eq!(select_heuristic(5, 16, 16), KernelKind::Packed4x8);
        assert_eq!(select_heuristic(5, 5, 16), KernelKind::Packed4x4);
    }
}
