//! `C += A * B` kernels on dense tiles.
//!
//! Three implementations with identical semantics:
//!
//! * [`gemm_naive`] — triple loop, the correctness reference;
//! * [`gemm_blocked`] — cache-blocked with a column-major-friendly loop
//!   order; the thin-shape path, the reference kernel of the baselines, and
//!   what a host without AVX2+FMA runs;
//! * [`gemm_simd`] — one hand-written AVX2+FMA `8 × 6` micro-kernel under
//!   two drivers ([`SimdDriver`]): A packed into panels when it is large,
//!   read in place when it is not; B always in place; ragged edges masked,
//!   never padded. Detected at run time; without the features it *is*
//!   [`gemm_blocked`].
//!
//! Every kernel runs on the calling thread: one Gemm task is one kernel
//! call, and all concurrency comes from the engine's device lanes. Picking
//! between them by tile shape is the job of [`crate::kernel`].
//!
//! All kernels compute `C ← alpha * A * B + C` exactly (no fused scaling of
//! C; the paper's contraction uses `beta = 1` accumulation).

use crate::tile::Tile;
use std::cell::RefCell;

/// Cache block edge for the blocked kernel, sized so three blocks fit in L1.
const BLOCK: usize = 64;

/// Returns the flop count of a GEMM of the given shape (2·m·n·k).
#[inline]
pub fn gemm_flops(m: u64, n: u64, k: u64) -> u64 {
    2 * m * n * k
}

fn check_shapes(c: &Tile, a: &Tile, b: &Tile) {
    assert_eq!(a.cols(), b.rows(), "inner dimension mismatch");
    assert_eq!(c.rows(), a.rows(), "C rows != A rows");
    assert_eq!(c.cols(), b.cols(), "C cols != B cols");
}

/// Reference triple-loop kernel: `C += alpha * A * B`.
pub fn gemm_naive(alpha: f64, a: &Tile, b: &Tile, c: &mut Tile) {
    check_shapes(c, a, b);
    let (m, n, kk) = (a.rows(), b.cols(), a.cols());
    for j in 0..n {
        for l in 0..kk {
            let blj = alpha * b.get(l, j);
            if blj == 0.0 {
                continue;
            }
            for i in 0..m {
                *c.get_mut(i, j) += a.get(i, l) * blj;
            }
        }
    }
}

/// Cache-blocked kernel: `C += alpha * A * B`.
///
/// Operates on raw column-major slices to let the optimiser vectorise the
/// innermost (contiguous) loop over rows.
pub fn gemm_blocked(alpha: f64, a: &Tile, b: &Tile, c: &mut Tile) {
    check_shapes(c, a, b);
    let (m, n, kk) = (a.rows(), b.cols(), a.cols());
    let (ad, bd) = (a.data(), b.data());
    let cd = c.data_mut();
    for jb in (0..n).step_by(BLOCK) {
        let jend = (jb + BLOCK).min(n);
        for lb in (0..kk).step_by(BLOCK) {
            let lend = (lb + BLOCK).min(kk);
            for j in jb..jend {
                let ccol = &mut cd[j * m..(j + 1) * m];
                for l in lb..lend {
                    let blj = alpha * bd[j * kk + l];
                    if blj == 0.0 {
                        continue;
                    }
                    let acol = &ad[l * m..(l + 1) * m];
                    for i in 0..m {
                        ccol[i] += acol[i] * blj;
                    }
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod simd;

thread_local! {
    /// Per-thread A panels of the packed driver of [`gemm_simd`] (B is never
    /// copied). Reused across calls so the hot path performs no allocation
    /// once the buffer has grown to the working tile size (the pack-scratch
    /// half of the buffer-pool story; tiles themselves go through
    /// `crate::pool::TilePool`).
    static PACK_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// How [`gemm_simd`] feeds A to its micro-kernel (B is read in place by
/// both: its `NR`-column panels are contiguous as they lie).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdDriver {
    /// Every micro-tile read straight off the A tile, the ragged last row
    /// panel through a lane mask. Nothing is copied — wins on small and
    /// mid-size tiles.
    InPlace,
    /// A copied once into k-major `MR`-row panels, so the micro-kernel
    /// streams it with unit stride — wins once A outgrows the reach of the
    /// strided walk.
    Packed,
}

/// Largest A operand (`m·k` elements; 256 KiB) [`gemm_simd`] reads in
/// place. Read off the `simd_inplace` / `simd_packed` columns of
/// `results/BENCH_kernels.json` (`repro_kernels`): in place leads by 4–15%
/// from the 8-cube to the 128-cube (A = 16 k elements), the two tie at the
/// 192-cube (37 k), and in place falls behind from the 256-cube (66 k) up —
/// by 7% there, 21% at 384 and 18% on 333×205×377, the edges `dense_tiles`
/// is made of.
const IN_PLACE_MAX_A_ELEMS: usize = 32 * 1024;

/// Whether this host has the CPU features (x86-64 AVX2 and FMA) the SIMD
/// micro-kernel needs; fixed for the life of the process.
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    return simd::available();
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// AVX2+FMA kernel: an `8 × 6` register micro-tile of twelve 4-wide
/// accumulators (ragged edges run narrower, masked instantiations of the
/// same micro-kernel), reading A in place while it is at most 256 KiB and
/// packed above — a function of the shape alone. On a host without the features
/// (see [`simd_available`]) this runs [`gemm_blocked`] — slower, never
/// undefined.
///
/// FMA rounds once per multiply-add where the scalar kernels round twice,
/// so results agree with them to rounding (the 1e-10 cross-kernel gate),
/// not bit for bit.
pub fn gemm_simd(alpha: f64, a: &Tile, b: &Tile, c: &mut Tile) {
    let driver = if a.rows() * a.cols() <= IN_PLACE_MAX_A_ELEMS {
        SimdDriver::InPlace
    } else {
        SimdDriver::Packed
    };
    gemm_simd_with(driver, alpha, a, b, c);
}

/// [`gemm_simd`] with the driver forced — for the kernel ladder
/// (`repro_kernels`) that the in-place threshold is read from, and for the
/// tests that hold both drivers to the same results on every shape.
pub fn gemm_simd_with(driver: SimdDriver, alpha: f64, a: &Tile, b: &Tile, c: &mut Tile) {
    check_shapes(c, a, b);
    #[cfg(target_arch = "x86_64")]
    {
        let (m, n, kk) = (a.rows(), b.cols(), a.cols());
        if simd::gemm(driver, alpha, m, n, kk, a.data(), b.data(), c.data_mut()) {
            return;
        }
    }
    let _ = driver;
    gemm_blocked(alpha, a, b, c);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_ref(alpha: f64, a: &Tile, b: &Tile, c0: &Tile) -> Tile {
        let mut c = c0.clone();
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for l in 0..a.cols() {
                    acc += a.get(i, l) * b.get(l, j);
                }
                *c.get_mut(i, j) += alpha * acc;
            }
        }
        c
    }

    #[test]
    fn naive_matches_reference_small() {
        let a = Tile::random(3, 4, 1);
        let b = Tile::random(4, 5, 2);
        let c0 = Tile::random(3, 5, 3);
        let expect = dense_ref(1.0, &a, &b, &c0);
        let mut c = c0.clone();
        gemm_naive(1.0, &a, &b, &mut c);
        assert!(c.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn blocked_matches_naive() {
        for &(m, n, k) in &[(1usize, 1usize, 1usize), (7, 9, 5), (64, 64, 64), (65, 130, 100)] {
            let a = Tile::random(m, k, 10);
            let b = Tile::random(k, n, 11);
            let c0 = Tile::random(m, n, 12);
            let mut c1 = c0.clone();
            let mut c2 = c0.clone();
            gemm_naive(0.7, &a, &b, &mut c1);
            gemm_blocked(0.7, &a, &b, &mut c2);
            assert!(c1.max_abs_diff(&c2) < 1e-10, "mismatch at {m}x{n}x{k}");
        }
    }

    #[test]
    fn simd_matches_naive() {
        for &(m, n, k) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 2),
            (4, 4, 4),
            (8, 8, 8),
            (17, 23, 9),
            (9, 65, 7),
            (64, 64, 64),
            (65, 67, 33),
        ] {
            let a = Tile::random(m, k, 30);
            let b = Tile::random(k, n, 31);
            let c0 = Tile::random(m, n, 32);
            let mut c1 = c0.clone();
            gemm_naive(1.3, &a, &b, &mut c1);
            for driver in [SimdDriver::InPlace, SimdDriver::Packed] {
                let mut c2 = c0.clone();
                gemm_simd_with(driver, 1.3, &a, &b, &mut c2);
                assert!(
                    c1.max_abs_diff(&c2) < 1e-10,
                    "{driver:?} mismatch at {m}x{n}x{k}"
                );
            }
        }
    }

    #[test]
    fn accumulates_into_c() {
        let a = Tile::from_data(1, 1, vec![2.0]);
        let b = Tile::from_data(1, 1, vec![3.0]);
        let mut c = Tile::from_data(1, 1, vec![10.0]);
        gemm_blocked(1.0, &a, &b, &mut c);
        assert_eq!(c.get(0, 0), 16.0);
        gemm_blocked(1.0, &a, &b, &mut c);
        assert_eq!(c.get(0, 0), 22.0);
    }

    #[test]
    fn alpha_scales_product_only() {
        let a = Tile::from_data(1, 1, vec![2.0]);
        let b = Tile::from_data(1, 1, vec![3.0]);
        let mut c = Tile::from_data(1, 1, vec![5.0]);
        gemm_naive(2.0, &a, &b, &mut c);
        assert_eq!(c.get(0, 0), 17.0);
    }

    #[test]
    #[should_panic]
    fn shape_mismatch_panics() {
        let a = Tile::zeros(2, 3);
        let b = Tile::zeros(4, 2);
        let mut c = Tile::zeros(2, 2);
        gemm_naive(1.0, &a, &b, &mut c);
    }

    #[test]
    fn flop_count() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
    }
}
