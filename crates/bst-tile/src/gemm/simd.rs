//! The AVX2+FMA tile GEMM: one register micro-kernel, monomorphised over its
//! row-vector and column counts, and its two drivers.
//!
//! This is the only module of the crate that contains `unsafe`. Its entry,
//! [`gemm`], is safe: it checks the CPU features and the slice lengths
//! itself and returns `false` — having touched nothing — when the host
//! lacks AVX2 or FMA, so a caller falls back to a scalar kernel instead of
//! executing an illegal instruction.
//!
//! The full micro-tile is `8 × 6`: two `ymm` row vectors by six columns,
//! twelve accumulators. A ragged edge is **masked, not padded**: the
//! micro-kernel is instantiated for every column count it can meet, and the
//! last row vector of a ragged row panel is loaded and written back under an
//! AVX2 lane mask (`vmaskmovpd`), which neither reads nor writes a masked-off
//! lane. So
//!
//! * **B is never copied.** Every column of a column-major B tile is
//!   unit-stride in `k` and the columns of a panel are adjacent (`ldb = k`),
//!   so a B panel — ragged last one included — is one contiguous run that
//!   stays in L1 across the A panels (B panel outer, A panel inner).
//! * **in place**, A is never copied either: column-major A already offers
//!   eight contiguous rows per `k` step (`lda = m`), and the last row panel
//!   is read through the mask. Every `k` step lands `m` doubles further on,
//!   which is free while the whole A tile is within TLB and L2 reach and is
//!   what caps this driver on large tiles.
//! * **packed** is the GotoBLAS treatment of A: all of it copied once into
//!   `MR`-row k-major panels (`lda = MR`) of the thread-local
//!   [`super::PACK_SCRATCH`], so the micro-kernel streams A with unit stride
//!   however large the tile is. The padding lanes of the last panel are
//!   never written and never read.
//! * a row remainder of one to four rows is **one** vector per column, not
//!   two: it is swept on its own over twelve-column panels, so twelve
//!   accumulators stay in flight there too. Five to seven rows run the
//!   two-vector tile with the second vector masked.
//!
//! Whatever the instantiation, one element of C is `acc = 0; acc =
//! fma(a_il, b_lj, acc)` for `l` ascending, then `c = fma(alpha, acc, c)` —
//! the scalar `f64::mul_add` sequence, bit for bit — and nothing depends on
//! the address, the alignment or the previous contents of the scratch: the
//! result is a pure function of the shape and the values.

use super::{SimdDriver, PACK_SCRATCH};
use std::arch::x86_64::{
    __m256i, _mm256_broadcast_sd, _mm256_fmadd_pd, _mm256_loadu_pd, _mm256_loadu_si256,
    _mm256_maskload_pd, _mm256_maskstore_pd, _mm256_set1_pd, _mm256_setzero_pd,
    _mm256_setzero_si256, _mm256_storeu_pd,
};

/// Doubles per `ymm` vector.
const VL: usize = 4;
/// Rows of the full register micro-tile: two vectors per C column.
const MR: usize = 2 * VL;
/// Columns of the full register micro-tile: `2 · NR = 12` accumulators,
/// leaving four of the sixteen `ymm` registers for the A loads and the B
/// broadcast.
const NR: usize = 6;
/// Columns of the one-vector remainder tile: the same twelve accumulators.
const NR1: usize = 2 * NR;

/// `LANE_MASKS[VL - t..][..VL]` enables the first `t` lanes of a vector.
static LANE_MASKS: [i64; 2 * VL] = [-1, -1, -1, -1, 0, 0, 0, 0];

/// Whether this host can run the micro-kernel. `std` caches the `cpuid`
/// result, so this is one relaxed load and a bit test.
pub(super) fn available() -> bool {
    is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
}

/// One instantiation of [`micro`], chosen per panel by the drivers.
type Micro = unsafe fn(usize, f64, *const f64, usize, *const f64, usize, *mut f64, usize, usize);

/// `C[rows × NC] += alpha · A[rows × kk] · B[kk × NC]` on one micro-tile of
/// column-major C, with `rows = VL · MV` when `!MASKED` and
/// `rows = VL · (MV − 1) + tail` when `MASKED`: the last of the `MV` row
/// vectors then loads A and updates C under a mask of its first `tail`
/// lanes (`tail` is ignored when `!MASKED`).
///
/// # Safety
/// The caller guarantees that
/// * the CPU supports AVX2 and FMA;
/// * `a.add(l * lda)` is readable for `rows` doubles for every `l < kk`;
/// * `b.add(l + j * ldb)` is readable for every `l < kk`, `j < NC`;
/// * `c.add(j * ldc)` is readable and writable for `rows` doubles for every
///   `j < NC`, and nothing else aliases that memory during the call;
/// * `1 <= tail <= VL` when `MASKED`.
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn micro<const MV: usize, const NC: usize, const MASKED: bool>(
    kk: usize,
    alpha: f64,
    a: *const f64,
    lda: usize,
    b: *const f64,
    ldb: usize,
    c: *mut f64,
    ldc: usize,
    tail: usize,
) {
    // SAFETY (of every access below): vector `v < MV` covers rows
    // `VL·v .. VL·v + VL`, all of which the caller vouches for when the
    // vector is unmasked (`rows >= VL·(v + 1)`). The masked vector is the
    // last one; its mask enables lanes `0..tail`, i.e. rows up to
    // `VL·(MV − 1) + tail = rows`, and `vmaskmovpd` performs no access —
    // load, store or fault — on a masked-off lane. The mask itself is read
    // from `LANE_MASKS[VL − tail ..][.. VL]`, in bounds for `tail` in
    // `1..=VL`.
    let mask: __m256i = if MASKED {
        debug_assert!((1..=VL).contains(&tail));
        _mm256_loadu_si256(LANE_MASKS.as_ptr().add(VL - tail).cast())
    } else {
        _mm256_setzero_si256() // never used
    };
    let mut acc = [[_mm256_setzero_pd(); MV]; NC];
    for l in 0..kk {
        let ap = a.add(l * lda);
        let mut av = [_mm256_setzero_pd(); MV];
        for (v, x) in av.iter_mut().enumerate() {
            *x = if MASKED && v + 1 == MV {
                _mm256_maskload_pd(ap.add(VL * v), mask)
            } else {
                _mm256_loadu_pd(ap.add(VL * v))
            };
        }
        let bp = b.add(l);
        for (j, accj) in acc.iter_mut().enumerate() {
            let bj = _mm256_broadcast_sd(&*bp.add(j * ldb));
            for (x, s) in av.iter().zip(accj.iter_mut()) {
                *s = _mm256_fmadd_pd(*x, bj, *s);
            }
        }
    }

    // Write-back, `c ← fma(alpha, acc, c)` on every element: always the
    // vector fused multiply-add, under the same mask as the loads where the
    // tile is ragged, so an element's value does not depend on whether its
    // micro-tile was full.
    let alphav = _mm256_set1_pd(alpha);
    for (j, accj) in acc.iter().enumerate() {
        for (v, s) in accj.iter().enumerate() {
            let cp = c.add(j * ldc + VL * v);
            if MASKED && v + 1 == MV {
                let cur = _mm256_maskload_pd(cp, mask);
                _mm256_maskstore_pd(cp, mask, _mm256_fmadd_pd(alphav, *s, cur));
            } else {
                _mm256_storeu_pd(cp, _mm256_fmadd_pd(alphav, *s, _mm256_loadu_pd(cp)));
            }
        }
    }
}

/// The two-vector micro-tile for a panel of `cols` columns (`1..=NR`).
fn two_vector(cols: usize, masked: bool) -> Micro {
    match (cols, masked) {
        (1, false) => micro::<2, 1, false>,
        (2, false) => micro::<2, 2, false>,
        (3, false) => micro::<2, 3, false>,
        (4, false) => micro::<2, 4, false>,
        (5, false) => micro::<2, 5, false>,
        (6, false) => micro::<2, 6, false>,
        (1, true) => micro::<2, 1, true>,
        (2, true) => micro::<2, 2, true>,
        (3, true) => micro::<2, 3, true>,
        (4, true) => micro::<2, 4, true>,
        (5, true) => micro::<2, 5, true>,
        (6, true) => micro::<2, 6, true>,
        _ => unreachable!("a two-vector panel has 1..={NR} columns, not {cols}"),
    }
}

/// The masked one-vector micro-tile for a panel of `cols` columns
/// (`1..=NR1`).
fn one_vector(cols: usize) -> Micro {
    match cols {
        1 => micro::<1, 1, true>,
        2 => micro::<1, 2, true>,
        3 => micro::<1, 3, true>,
        4 => micro::<1, 4, true>,
        5 => micro::<1, 5, true>,
        6 => micro::<1, 6, true>,
        7 => micro::<1, 7, true>,
        8 => micro::<1, 8, true>,
        9 => micro::<1, 9, true>,
        10 => micro::<1, 10, true>,
        11 => micro::<1, 11, true>,
        12 => micro::<1, 12, true>,
        _ => unreachable!("a one-vector panel has 1..={NR1} columns, not {cols}"),
    }
}

/// Sweeps the micro-kernel over every micro-tile of `C` (`m × n`,
/// column-major, `ldc = m`), reading row panel `p` of A at
/// `a.add(p * panel_stride)` with leading dimension `lda`, and B (`kk × n`,
/// column-major) where it lies.
///
/// # Safety
/// The caller guarantees that
/// * the CPU supports AVX2 and FMA;
/// * `b` is readable for `kk * n` doubles and `c` readable and writable for
///   `m * n`, with nothing else aliasing `c` during the call;
/// * for every row panel `p < m.div_ceil(MR)` of `rows = min(MR, m − p·MR)`
///   rows, `a.add(p * panel_stride + l * lda)` is readable for `rows`
///   doubles for every `l < kk`.
#[allow(clippy::too_many_arguments)]
unsafe fn sweep(
    alpha: f64,
    m: usize,
    n: usize,
    kk: usize,
    a: *const f64,
    panel_stride: usize,
    lda: usize,
    b: *const f64,
    c: *mut f64,
) {
    let (full, rem) = (m / MR, m % MR);
    // SAFETY (of every call below): each call covers rows `i0..i0 + rows` of
    // one row panel and columns `j0..j0 + cols` with `i0 + rows <= m` and
    // `j0 + cols <= n`. A: the caller's panel guarantee, with `rows = MR`
    // for `p < full` and `rows = rem` for the last panel (`VL + tail` in the
    // two-vector tile, `tail` in the one-vector one). B: columns
    // `j0..j0 + cols` of the `kk × n` buffer, `kk` doubles each, `ldb = kk`.
    // C: column `j0 + j` of the `m × n` buffer holds `rows` doubles from
    // row `i0`.
    for j0 in (0..n).step_by(NR) {
        let cols = NR.min(n - j0);
        let bp = b.add(j0 * kk);
        let body = two_vector(cols, false);
        for p in 0..full {
            body(kk, alpha, a.add(p * panel_stride), lda, bp, kk, c.add(j0 * m + p * MR), m, 0);
        }
        if rem > VL {
            two_vector(cols, true)(
                kk,
                alpha,
                a.add(full * panel_stride),
                lda,
                bp,
                kk,
                c.add(j0 * m + full * MR),
                m,
                rem - VL,
            );
        }
    }
    if (1..=VL).contains(&rem) {
        for j0 in (0..n).step_by(NR1) {
            one_vector(NR1.min(n - j0))(
                kk,
                alpha,
                a.add(full * panel_stride),
                lda,
                b.add(j0 * kk),
                kk,
                c.add(j0 * m + full * MR),
                m,
                rem,
            );
        }
    }
}

/// `C += alpha · A · B` on column-major slices (`a`: `m × kk`, `b`:
/// `kk × n`, `c`: `m × n`) through the micro-kernel, reading A the way
/// `driver` says. Returns `false`, with `c` untouched, when the host lacks
/// AVX2 or FMA.
///
/// # Panics
/// Panics if a slice length does not match its shape.
#[allow(clippy::too_many_arguments)]
pub(super) fn gemm(
    driver: SimdDriver,
    alpha: f64,
    m: usize,
    n: usize,
    kk: usize,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
) -> bool {
    if !available() {
        return false;
    }
    // The sweep's pointer arithmetic relies on these.
    assert_eq!(a.len(), m * kk, "A buffer does not match its shape");
    assert_eq!(b.len(), kk * n, "B buffer does not match its shape");
    assert_eq!(c.len(), m * n, "C buffer does not match its shape");
    if kk == 0 {
        return true; // an empty inner dimension contributes nothing
    }
    match driver {
        // SAFETY: `available()` held above; `b` and `c` are the checked
        // `kk × n` and `m × n` buffers, `c` borrowed mutably for the call.
        // Row panel `p` starts at row `p · MR` of the `m × kk` buffer
        // (`panel_stride = MR`, `lda = m`), so its `rows <= m − p · MR`
        // rows exist in every one of the `kk` columns.
        SimdDriver::InPlace => unsafe {
            sweep(alpha, m, n, kk, a.as_ptr(), MR, m, b.as_ptr(), c.as_mut_ptr());
        },
        SimdDriver::Packed => PACK_SCRATCH.with(|scratch| {
            let apack = &mut *scratch.borrow_mut();
            let apanel = MR * kk;
            let len = m.div_ceil(MR) * apanel;
            // Grows, never shrinks and never clears: the packer overwrites
            // every lane the micro-kernel reads.
            if apack.len() < len {
                apack.resize(len, 0.0);
            }
            for (p, panel) in apack[..len].chunks_exact_mut(apanel).enumerate() {
                let (i0, rows) = (p * MR, MR.min(m - p * MR));
                if rows == MR {
                    // Constant-length copy: two vector moves, not a `memcpy`
                    // call.
                    for (l, dst) in panel.chunks_exact_mut(MR).enumerate() {
                        dst.copy_from_slice(&a[l * m + i0..][..MR]);
                    }
                } else {
                    // The `MR − rows` padding lanes stay as they are: the
                    // masked loads never read them.
                    for (l, dst) in panel.chunks_exact_mut(MR).enumerate() {
                        dst[..rows].copy_from_slice(&a[l * m + i0..][..rows]);
                    }
                }
            }
            // SAFETY: as above, except for A: panel `p` is the `p`-th run
            // of `MR · kk` doubles of `apack[..len]` (`panel_stride =
            // MR · kk`), `kk` steps of `MR >= rows` doubles each
            // (`lda = MR`).
            unsafe {
                sweep(alpha, m, n, kk, apack.as_ptr(), apanel, MR, b.as_ptr(), c.as_mut_ptr());
            }
        }),
    }
    true
}
