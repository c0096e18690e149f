//! Shape-aware GEMM kernel dispatch.
//!
//! Small-block GEMM throughput lives or dies on the kernel under each tile
//! product (DBCSR makes the same observation for its libcusmm / libxsmm
//! backends): a 3×200×3 sliver wants the plain blocked loop, everything else
//! wants the widest register micro-kernel the host has. This module
//! provides:
//!
//! * [`KernelKind`] — an enumeration of every kernel in [`crate::gemm`],
//!   with [`KernelKind::run`] dispatching to the implementation;
//! * [`select_heuristic`] — the rule; the only place a kernel is chosen. It
//!   reads the shape and the host's CPU features, nothing else — never a
//!   rank, a thread or a timing — so every run of one process, and of one
//!   homogeneous fleet, takes the same kernel for the same product. Its
//!   thresholds are re-derived offline from `results/BENCH_kernels.json`
//!   (`repro_kernels`).
//!
//! Every kernel has identical `C ← alpha·A·B + C` semantics, so dispatch is
//! a pure performance decision — the property tests in `tests/proptests.rs`
//! hold all of them to `gemm_naive` behaviour.

use crate::gemm::{gemm_blocked, gemm_naive, gemm_simd, simd_available};
use crate::tile::Tile;

/// The common signature of every tile GEMM kernel.
pub type GemmFn = fn(f64, &Tile, &Tile, &mut Tile);

/// One of the GEMM implementations in [`crate::gemm`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Triple loop ([`gemm_naive`]).
    Naive,
    /// Cache-blocked loop ([`gemm_blocked`]) — the thin-shape path, and
    /// every path on a host without AVX2+FMA.
    Blocked,
    /// AVX2+FMA 8×6 micro-kernel ([`gemm_simd`]); runs [`gemm_blocked`] on a
    /// host without the features.
    Simd,
}

impl KernelKind {
    /// Every kernel, in a stable order (used by benches and reports).
    pub const ALL: [KernelKind; 3] = [KernelKind::Naive, KernelKind::Blocked, KernelKind::Simd];

    /// Stable display name (also the key used in `BENCH_kernels.json`).
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Naive => "naive",
            KernelKind::Blocked => "blocked",
            KernelKind::Simd => "simd",
        }
    }

    /// The implementing function.
    pub fn func(self) -> GemmFn {
        match self {
            KernelKind::Naive => gemm_naive,
            KernelKind::Blocked => gemm_blocked,
            KernelKind::Simd => gemm_simd,
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

    /// Index of this kind in [`KernelKind::ALL`] (for counter arrays):
    /// `ALL` lists the variants in declaration order.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Dispatch: pick a kernel for an `m × n × k` product from its shape and
/// the host's CPU features, without any measurement.
///
/// A host with AVX2+FMA runs every product on the SIMD micro-kernel (which
/// picks its own driver by the size of A), except those too thin for a
/// register micro-tile (either output dimension under 4) or with a trivial
/// inner dimension: they stay on the blocked loop. A host without the
/// features runs the blocked loop everywhere.
pub fn select_heuristic(m: usize, n: usize, k: usize) -> KernelKind {
    if m >= 4 && n >= 4 && k >= 2 && simd_available() {
        KernelKind::Simd
    } else {
        KernelKind::Blocked
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
        assert_eq!(KernelKind::Simd.name(), "simd");
    }

    #[test]
    fn index_roundtrips() {
        assert_eq!(KernelKind::ALL.len(), 3);
        for k in KernelKind::ALL {
            assert_eq!(KernelKind::ALL[k.index()], k);
        }
    }

    /// Asks the CPU itself, not `simd_available`, so a dispatch that
    /// stopped consulting the feature check fails here on either kind of
    /// host.
    fn host_has_avx2_fma() -> bool {
        #[cfg(target_arch = "x86_64")]
        return is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
        #[cfg(not(target_arch = "x86_64"))]
        false
    }

    #[test]
    fn heuristic_respects_shape() {
        // Thin shapes stay on the blocked loop on every host.
        assert_eq!(select_heuristic(2, 200, 50), KernelKind::Blocked);
        assert_eq!(select_heuristic(200, 2, 50), KernelKind::Blocked);
        assert_eq!(select_heuristic(3, 3, 3), KernelKind::Blocked);
        assert_eq!(select_heuristic(40, 40, 1), KernelKind::Blocked);
        let simd = host_has_avx2_fma();
        assert_eq!(simd_available(), simd);
        // Everything else: the SIMD micro-kernel where the host has it, the
        // blocked loop where it does not.
        let expect = if simd {
            KernelKind::Simd
        } else {
            KernelKind::Blocked
        };
        for (m, n, k) in [
            (512, 512, 512),
            (256, 256, 256),
            (64, 64, 64),
            (40, 40, 40),
            (16, 16, 16),
            (16, 5, 16),
            (5, 16, 16),
            (5, 5, 16),
            (4, 4, 2),
        ] {
            assert_eq!(select_heuristic(m, n, k), expect, "{m}x{n}x{k}");
        }
    }
}
