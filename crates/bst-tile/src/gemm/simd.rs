//! The AVX2+FMA tile GEMM: one `8 × 6` micro-kernel and its two drivers.
//!
//! This is the only module of the crate that contains `unsafe`. Its entry,
//! [`gemm`], is safe: it checks the CPU features and the slice lengths
//! itself and returns `false` — having touched nothing — when the host
//! lacks AVX2 or FMA, so a caller falls back to a scalar kernel instead of
//! executing an illegal instruction.
//!
//! The micro-kernel addresses its operands by stride (BLIS-style `(a, lda)`
//! and `(b, rs_b, cs_b)`), so the same function serves every layout the
//! drivers hand it:
//!
//! * **B is read in place by both drivers**: every column of a column-major
//!   B tile is unit-stride in `k` and the `NR` columns of a panel are
//!   adjacent (`rs_b = 1`, `cs_b = k`), so a B panel is one contiguous run
//!   that stays in L1 across the A panels (B panel outer, A panel inner).
//!   Only the ragged last column panel is copied, zero-padded, into the
//!   thread-local [`super::PACK_SCRATCH`] (`rs_b = NR`, `cs_b = 1`).
//! * **in place** — column-major A already offers `MR` contiguous rows per
//!   `k` step (`lda = m`), so full micro-tiles run straight off the tile
//!   buffer; only the ragged last row panel is copied into a zero-padded
//!   scratch panel. Every `k` step lands `m` doubles further on, which is
//!   free while the whole A tile is within TLB and L2 reach and is what
//!   caps this driver on large tiles.
//! * **packed** — the GotoBLAS treatment of A: all of it copied once into
//!   zero-padded `MR`-row k-major panels (`lda = MR`), so the micro-kernel
//!   streams A with unit stride however large the tile is.
//!
//! Either way one micro-tile of C is the sum over `l = 0..k` in ascending
//! order, one fused multiply-add per step, and nothing depends on the
//! address, the alignment or the previous contents of the scratch: the
//! result is a pure function of the shape, the driver and the values.

use super::{SimdDriver, PACK_SCRATCH};
use std::arch::x86_64::{
    __m256d, _mm256_broadcast_sd, _mm256_fmadd_pd, _mm256_loadu_pd, _mm256_set1_pd,
    _mm256_setzero_pd, _mm256_storeu_pd,
};

/// Rows of the register micro-tile: two `__m256d` per C column.
const MR: usize = 8;
/// Columns of the register micro-tile: `2 · NR = 12` accumulators, leaving
/// four of the sixteen `ymm` registers for the A loads and the B broadcast.
const NR: usize = 6;

/// Whether this host can run the micro-kernel. `std` caches the `cpuid`
/// result, so this is one relaxed load and a bit test.
pub(super) fn available() -> bool {
    is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
}

/// `C[rows × cols] += alpha · A[MR × kk] · B[kk × NR]` on one micro-tile of
/// column-major C (`rows ≤ MR`, `cols ≤ NR` clamp the write-back).
///
/// # Safety
/// The caller guarantees that
/// * the CPU supports AVX2 and FMA;
/// * `a.add(l * lda)` is readable for `MR` doubles for every `l < kk`;
/// * `b.add(l * rs_b + j * cs_b)` is readable for every `l < kk`, `j < NR`;
/// * `c.add(j * ldc)` is readable and writable for `rows` doubles for every
///   `j < cols`, and nothing else aliases that memory during the call;
/// * `rows <= MR` and `cols <= NR`.
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn micro_8x6(
    kk: usize,
    alpha: f64,
    a: *const f64,
    lda: usize,
    b: *const f64,
    rs_b: usize,
    cs_b: usize,
    c: *mut f64,
    ldc: usize,
    rows: usize,
    cols: usize,
) {
    let mut acc: [[__m256d; 2]; NR] = [[_mm256_setzero_pd(); 2]; NR];
    for l in 0..kk {
        let ap = a.add(l * lda);
        let a0 = _mm256_loadu_pd(ap);
        let a1 = _mm256_loadu_pd(ap.add(4));
        let bp = b.add(l * rs_b);
        for (j, accj) in acc.iter_mut().enumerate() {
            let bj = _mm256_broadcast_sd(&*bp.add(j * cs_b));
            accj[0] = _mm256_fmadd_pd(a0, bj, accj[0]);
            accj[1] = _mm256_fmadd_pd(a1, bj, accj[1]);
        }
    }

    // Write-back, `c ← fma(alpha, acc, c)` on every element. A ragged
    // micro-tile spills the accumulators and walks its valid entries with
    // the scalar fused multiply-add — the same single-rounding operation as
    // the vector one, so an element's value does not depend on whether its
    // micro-tile was full.
    if rows == MR && cols == NR {
        let av = _mm256_set1_pd(alpha);
        for (j, accj) in acc.iter().enumerate() {
            let cp = c.add(j * ldc);
            _mm256_storeu_pd(cp, _mm256_fmadd_pd(av, accj[0], _mm256_loadu_pd(cp)));
            _mm256_storeu_pd(
                cp.add(4),
                _mm256_fmadd_pd(av, accj[1], _mm256_loadu_pd(cp.add(4))),
            );
        }
    } else {
        let mut spill = [[0.0f64; MR]; NR];
        for (accj, sj) in acc.iter().zip(spill.iter_mut()) {
            _mm256_storeu_pd(sj.as_mut_ptr(), accj[0]);
            _mm256_storeu_pd(sj.as_mut_ptr().add(4), accj[1]);
        }
        for (j, sj) in spill.iter().enumerate().take(cols) {
            for (r, &x) in sj.iter().enumerate().take(rows) {
                let cp = c.add(j * ldc + r);
                *cp = alpha.mul_add(x, *cp);
            }
        }
    }
}

/// Copies rows `i0..i0 + rows` of column-major `a` (`m × kk`) into one
/// `MR`-row k-major panel, zeroing the `MR − rows` padding lanes.
fn pack_a_panel(dst: &mut [f64], a: &[f64], m: usize, i0: usize, rows: usize) {
    if rows == MR {
        // Constant-length copy: two vector moves, not a `memcpy` call.
        for (l, d) in dst.chunks_exact_mut(MR).enumerate() {
            d.copy_from_slice(&a[l * m + i0..][..MR]);
        }
    } else {
        for (l, d) in dst.chunks_exact_mut(MR).enumerate() {
            for (r, x) in d.iter_mut().enumerate() {
                *x = if r < rows { a[l * m + i0 + r] } else { 0.0 };
            }
        }
    }
}

/// Copies columns `j0..j0 + cols` of column-major `b` (`kk × n`) into one
/// `NR`-column k-major panel, zeroing the `NR − cols` padding lanes.
fn pack_b_panel(dst: &mut [f64], b: &[f64], kk: usize, j0: usize, cols: usize) {
    for (l, d) in dst.chunks_exact_mut(NR).enumerate() {
        for (jj, x) in d.iter_mut().enumerate() {
            *x = if jj < cols {
                b[(j0 + jj) * kk + l]
            } else {
                0.0
            };
        }
    }
}

/// Grows `v` to at least `len` elements; never shrinks and never clears —
/// the packers overwrite every lane they hand to the micro-kernel.
fn ensure_len(v: &mut Vec<f64>, len: usize) {
    if v.len() < len {
        v.resize(len, 0.0);
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
    // The micro-kernel's pointer arithmetic below relies on these.
    assert_eq!(a.len(), m * kk, "A buffer does not match its shape");
    assert_eq!(b.len(), kk * n, "B buffer does not match its shape");
    assert_eq!(c.len(), m * n, "C buffer does not match its shape");
    let (mpanels, npanels) = (m.div_ceil(MR), n.div_ceil(NR));
    let (apanel, bpanel) = (MR * kk, NR * kk);
    // First A panel that lives in the scratch: all of them when packing,
    // only the ragged last one (if any) when running in place.
    let a_first = match driver {
        SimdDriver::Packed => 0,
        SimdDriver::InPlace => m / MR,
    };
    let b_ragged = n % NR != 0;

    PACK_SCRATCH.with(|scratch| {
        let (apack, bpack) = &mut *scratch.borrow_mut();
        ensure_len(apack, (mpanels - a_first) * apanel);
        for p in a_first..mpanels {
            let dst = &mut apack[(p - a_first) * apanel..][..apanel];
            pack_a_panel(dst, a, m, p * MR, MR.min(m - p * MR));
        }
        if b_ragged {
            ensure_len(bpack, bpanel);
            pack_b_panel(&mut bpack[..bpanel], b, kk, (npanels - 1) * NR, n % NR);
        }

        let cp = c.as_mut_ptr();
        for pj in 0..npanels {
            let (j0, cols) = (pj * NR, NR.min(n - pj * NR));
            let (bp, rs_b, cs_b) = if cols < NR {
                (bpack[..bpanel].as_ptr(), NR, 1)
            } else {
                (b[j0 * kk..][..bpanel].as_ptr(), 1, kk)
            };
            for p in 0..mpanels {
                let (i0, rows) = (p * MR, MR.min(m - p * MR));
                let (ap, lda) = if p >= a_first {
                    (apack[(p - a_first) * apanel..][..apanel].as_ptr(), MR)
                } else {
                    (a[i0..].as_ptr(), m)
                };
                // SAFETY: `available()` held above. A: a scratch panel is
                // `kk` rows of `MR` doubles (sliced to `apanel` above); in
                // place, `p < m / MR` so rows `i0..i0 + MR` of every one of
                // the `kk` columns of the `m × kk` buffer exist. B: the
                // scratch panel is `kk` rows of `NR` doubles; in place,
                // `cols == NR` so columns `j0..j0 + NR`, `kk` doubles each,
                // exist (sliced to `bpanel` above). C: `i0 + rows <= m` and
                // `j0 + cols <= n`, so column `j0 + j` of the `m × n`
                // buffer holds `rows` doubles from row `i0` for `j < cols`;
                // `c` is borrowed mutably for the whole call. `rows <= MR`
                // and `cols <= NR` by construction.
                unsafe {
                    micro_8x6(
                        kk,
                        alpha,
                        ap,
                        lda,
                        bp,
                        rs_b,
                        cs_b,
                        cp.add(j0 * m + i0),
                        m,
                        rows,
                        cols,
                    );
                }
            }
        }
    });
    true
}
