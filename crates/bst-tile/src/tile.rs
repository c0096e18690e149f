//! Column-major `f64` tiles with a polymorphic storage representation.
//!
//! A [`Tile`] is the unit of storage, communication and computation: the
//! non-zero blocks of a block-sparse matrix are tiles, and the GPU
//! executors multiply pairs of them with the kernels in [`crate::gemm`].
//!
//! A tile's *logical* value is always a dense `rows × cols` matrix; its
//! *stored* representation ([`Repr`]) is either that dense buffer or a
//! rank-`r` factorization `U·Vᵀ` produced by the pivoted-QR truncation in
//! [`crate::lowrank`]. Every byte-accounting consumer (tile stores, comm
//! links, caches) must use [`Tile::stored_bytes`] — the bytes the
//! representation actually occupies — while [`Tile::bytes`] keeps reporting
//! the logical dense footprint the planner budgets against.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::pool::CReserve;

/// The storage representation of a [`Tile`].
///
/// `Dense` holds the full column-major buffer. `LowRank` holds the factors
/// of `T ≈ U·Vᵀ`: `u` is `rows × rank` column-major, `v` is `cols × rank`
/// column-major (so `Vᵀ` is applied, never materialised). `rank == 0`
/// encodes an exactly-zero tile with zero stored bytes.
#[derive(Clone, Debug, PartialEq)]
pub enum Repr {
    /// Full dense column-major buffer of `rows * cols` elements.
    Dense(Vec<f64>),
    /// Truncated factorization `U·Vᵀ`.
    LowRank {
        /// `rows × rank`, column-major.
        u: Vec<f64>,
        /// `cols × rank`, column-major (the transpose is implicit).
        v: Vec<f64>,
        /// Number of retained factor columns.
        rank: usize,
    },
}

/// The value stream of [`Tile::random`] and [`Tile::fill_random`]: one
/// generator, so a fresh and a recycled buffer hold the same bits.
fn random_values(seed: u64) -> impl Iterator<Item = f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    std::iter::repeat_with(move || rng.gen_range(-1.0..1.0))
}

/// A `rows × cols` block of `f64` with a [`Repr`]-polymorphic storage.
#[derive(Clone, Debug, PartialEq)]
pub struct Tile {
    rows: usize,
    cols: usize,
    repr: Repr,
    lender: Lender,
}

/// The C reserve a tile's dense buffer goes back to when the tile drops
/// (`None`: the buffer is freed). Bookkeeping, not value: a clone owns a
/// fresh buffer and so returns nothing, and equality ignores the lender.
#[derive(Default)]
struct Lender(Option<&'static CReserve>);

impl Clone for Lender {
    fn clone(&self) -> Self {
        Lender(None)
    }
}

impl PartialEq for Lender {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl std::fmt::Debug for Lender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() { "CReserve" } else { "heap" })
    }
}

impl Drop for Tile {
    fn drop(&mut self) {
        if let (Some(reserve), Repr::Dense(data)) = (self.lender.0, &mut self.repr) {
            reserve.give_back(std::mem::take(data));
        }
    }
}

impl Tile {
    /// Allocates a zero-filled dense tile.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "degenerate tile {rows}x{cols}");
        Self::from_data(rows, cols, vec![0.0; rows * cols])
    }

    /// Builds a dense tile from a column-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_data(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols);
        assert!(rows > 0 && cols > 0);
        Self { rows, cols, repr: Repr::Dense(data), lender: Lender::default() }
    }

    /// A dense tile over a buffer `reserve` lent: the buffer goes back to it
    /// when the tile drops.
    pub(crate) fn lent(
        rows: usize,
        cols: usize,
        data: Vec<f64>,
        reserve: &'static CReserve,
    ) -> Self {
        let mut tile = Self::from_data(rows, cols, data);
        tile.lender = Lender(Some(reserve));
        tile
    }

    /// Builds a low-rank tile `U·Vᵀ` from its factor buffers (`u` is
    /// `rows × rank`, `v` is `cols × rank`, both column-major).
    ///
    /// # Panics
    /// Panics on factor-length mismatch or a degenerate logical shape.
    pub fn from_factors(rows: usize, cols: usize, u: Vec<f64>, v: Vec<f64>, rank: usize) -> Self {
        assert!(rows > 0 && cols > 0, "degenerate tile {rows}x{cols}");
        assert_eq!(u.len(), rows * rank, "U factor length");
        assert_eq!(v.len(), cols * rank, "V factor length");
        Self { rows, cols, repr: Repr::LowRank { u, v, rank }, lender: Lender::default() }
    }

    /// Fills a tile with deterministic pseudo-random values in `[-1, 1)`.
    ///
    /// The seed should encode the tile's global coordinates so a tile's
    /// content is a pure function of its identity — this is how the on-demand
    /// generation of `B` stays consistent across the nodes that replicate a
    /// column (§4: "each tile of B is instantiated at most once per node that
    /// needs it").
    pub fn random(rows: usize, cols: usize, seed: u64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        data.extend(random_values(seed).take(rows * cols));
        Self::from_data(rows, cols, data)
    }

    /// A deterministic dense tile with a decaying singular spectrum:
    /// `T = Σ_p exp(−decay·p) · x_p·y_pᵀ` over `min(rows, cols)` random
    /// rank-one terms. With `decay` around 0.5–1.0 the tile is numerically
    /// low-rank — the profile of clustered-AO integral blocks — so
    /// [`Tile::compressed`] at a loose tolerance retains only a few factors.
    /// Like [`Tile::random`], the content is a pure function of
    /// `(rows, cols, seed, decay)`.
    pub fn random_lowrank(rows: usize, cols: usize, seed: u64, decay: f64) -> Self {
        assert!(rows > 0 && cols > 0, "degenerate tile {rows}x{cols}");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let terms = rows.min(cols);
        let mut data = vec![0.0; rows * cols];
        let mut x = vec![0.0; rows];
        let mut y = vec![0.0; cols];
        for p in 0..terms {
            for xi in &mut x {
                *xi = rng.gen_range(-1.0..1.0);
            }
            for yi in &mut y {
                *yi = rng.gen_range(-1.0..1.0);
            }
            let sigma = (-decay * p as f64).exp();
            for (c, &yc) in y.iter().enumerate() {
                let w = sigma * yc;
                let col = &mut data[c * rows..(c + 1) * rows];
                for (e, &xr) in col.iter_mut().zip(&x) {
                    *e += w * xr;
                }
            }
        }
        Self::from_data(rows, cols, data)
    }

    /// Overwrites every element with the same deterministic pseudo-random
    /// sequence [`Tile::random`] produces for this shape and seed. A
    /// low-rank tile is re-densified first (the result is always dense).
    ///
    /// This is the in-place counterpart of [`Tile::random`] used by the
    /// buffer pool (`crate::pool::TilePool`) to regenerate tiles into
    /// recycled allocations: `pool.random(r, c, s)` and `Tile::random(r, c, s)`
    /// are bit-identical.
    pub fn fill_random(&mut self, seed: u64) {
        if !self.is_dense() {
            self.repr = Repr::Dense(vec![0.0; self.rows * self.cols]);
        }
        let Repr::Dense(data) = &mut self.repr else { unreachable!() };
        data.iter_mut().zip(random_values(seed)).for_each(|(x, v)| *x = v);
    }

    /// Consumes the tile, returning its dense backing buffer (for
    /// recycling).
    ///
    /// # Panics
    /// Panics on a low-rank tile — recycle those through
    /// [`Tile::into_repr`], which hands back the factor buffers.
    #[inline]
    pub fn into_data(self) -> Vec<f64> {
        match self.into_repr() {
            Repr::Dense(data) => data,
            Repr::LowRank { .. } => panic!("into_data on a low-rank tile; use into_repr"),
        }
    }

    /// Consumes the tile, returning its representation with the backing
    /// buffers (dense buffer, or both factor buffers). A buffer a C reserve
    /// lent leaves with it: the caller owns it now.
    #[inline]
    pub fn into_repr(mut self) -> Repr {
        self.lender = Lender(None);
        std::mem::replace(&mut self.repr, Repr::Dense(Vec::new()))
    }

    /// The storage representation.
    #[inline]
    pub fn repr(&self) -> &Repr {
        &self.repr
    }

    /// Whether the tile is stored dense.
    #[inline]
    pub fn is_dense(&self) -> bool {
        matches!(self.repr, Repr::Dense(_))
    }

    /// The retained rank of a low-rank tile; `None` when dense.
    #[inline]
    pub fn rank(&self) -> Option<usize> {
        match &self.repr {
            Repr::Dense(_) => None,
            Repr::LowRank { rank, .. } => Some(*rank),
        }
    }

    /// The `(u, v, rank)` factors of a low-rank tile; `None` when dense.
    #[inline]
    pub fn factors(&self) -> Option<(&[f64], &[f64], usize)> {
        match &self.repr {
            Repr::Dense(_) => None,
            Repr::LowRank { u, v, rank } => Some((u, v, *rank)),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Size in bytes of the *logical* dense payload (`rows · cols · 8`) —
    /// what the planner budgets against, independent of representation.
    /// Use [`Tile::stored_bytes`] for what actually occupies memory or a
    /// link.
    #[inline]
    pub fn bytes(&self) -> u64 {
        (self.rows * self.cols * std::mem::size_of::<f64>()) as u64
    }

    /// Size in bytes of the stored representation — the dense buffer, or
    /// both low-rank factors. This is what travels on links, occupies
    /// stores/caches, and counts against byte budgets.
    #[inline]
    pub fn stored_bytes(&self) -> u64 {
        let elems = match &self.repr {
            Repr::Dense(data) => data.len(),
            Repr::LowRank { u, v, .. } => u.len() + v.len(),
        };
        (elems * std::mem::size_of::<f64>()) as u64
    }

    /// Element accessor (column-major). Works for both representations; a
    /// low-rank read is a rank-length dot product.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        match &self.repr {
            Repr::Dense(data) => data[c * self.rows + r],
            Repr::LowRank { u, v, rank } => {
                let mut acc = 0.0;
                for p in 0..*rank {
                    acc += u[p * self.rows + r] * v[p * self.cols + c];
                }
                acc
            }
        }
    }

    /// Mutable element accessor (column-major).
    ///
    /// # Panics
    /// Panics on a low-rank tile — factors are immutable; densify first.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        let rows = self.rows;
        match &mut self.repr {
            Repr::Dense(data) => &mut data[c * rows + r],
            Repr::LowRank { .. } => panic!("get_mut on a low-rank tile; densify first"),
        }
    }

    /// Raw column-major data of a dense tile.
    ///
    /// # Panics
    /// Panics on a low-rank tile — use [`Tile::factors`] or
    /// [`Tile::to_dense`].
    #[inline]
    pub fn data(&self) -> &[f64] {
        match &self.repr {
            Repr::Dense(data) => data,
            Repr::LowRank { .. } => panic!("data() on a low-rank tile; use factors()/to_dense()"),
        }
    }

    /// Raw mutable column-major data of a dense tile.
    ///
    /// # Panics
    /// Panics on a low-rank tile.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        match &mut self.repr {
            Repr::Dense(data) => data,
            Repr::LowRank { .. } => panic!("data_mut() on a low-rank tile; densify first"),
        }
    }

    /// The dense materialisation of this tile: a copy for a dense tile, the
    /// evaluated product `U·Vᵀ` for a low-rank one.
    pub fn to_dense(&self) -> Tile {
        match &self.repr {
            Repr::Dense(data) => Tile::from_data(self.rows, self.cols, data.clone()),
            Repr::LowRank { u, v, rank } => {
                let mut data = vec![0.0; self.rows * self.cols];
                for p in 0..*rank {
                    let up = &u[p * self.rows..(p + 1) * self.rows];
                    let vp = &v[p * self.cols..(p + 1) * self.cols];
                    for (c, &vc) in vp.iter().enumerate() {
                        let col = &mut data[c * self.rows..(c + 1) * self.rows];
                        for (e, &ur) in col.iter_mut().zip(up) {
                            *e += ur * vc;
                        }
                    }
                }
                Tile::from_data(self.rows, self.cols, data)
            }
        }
    }

    /// Attempts a rank-revealing truncation of this tile at relative
    /// tolerance `tol` (see [`crate::lowrank::compress`]). Returns the
    /// low-rank tile when truncation succeeds **and** the factors occupy
    /// strictly fewer bytes than the dense buffer; `None` (keep the
    /// original) otherwise. `tol <= 0.0` never compresses — the `tol = 0.0`
    /// execution path stays bit-identical to the dense engine.
    pub fn compressed(&self, tol: f64) -> Option<Tile> {
        match &self.repr {
            Repr::Dense(data) => crate::lowrank::compress(self.rows, self.cols, data, tol)
                .map(|(u, v, rank)| Tile::from_factors(self.rows, self.cols, u, v, rank)),
            Repr::LowRank { .. } => None,
        }
    }

    /// Frobenius norm — used for screening-based sparse shapes. For a
    /// low-rank tile this is evaluated exactly from the factor Gram
    /// matrices: `‖U·Vᵀ‖²_F = Σ_{p,q} (UᵀU)_{pq} (VᵀV)_{pq}`.
    ///
    /// A dense tile's squares go into 16 partial sums by element index
    /// (element `e` into sum `e % 16`), which are then added in index order:
    /// independent sums run at SIMD rate, and the norm stays a pure function
    /// of the tile's values — bit-identical across runs, transports and
    /// plans, whoever computes it.
    pub fn frobenius_norm(&self) -> f64 {
        match &self.repr {
            Repr::Dense(data) => {
                let mut sums = [0.0f64; 16];
                let mut chunks = data.chunks_exact(16);
                for chunk in &mut chunks {
                    for (sum, x) in sums.iter_mut().zip(chunk) {
                        *sum += x * x;
                    }
                }
                for (sum, x) in sums.iter_mut().zip(chunks.remainder()) {
                    *sum += x * x;
                }
                sums.iter().sum::<f64>().sqrt()
            }
            Repr::LowRank { u, v, rank } => {
                let mut acc = 0.0;
                for p in 0..*rank {
                    for q in 0..*rank {
                        let gu: f64 = u[p * self.rows..(p + 1) * self.rows]
                            .iter()
                            .zip(&u[q * self.rows..(q + 1) * self.rows])
                            .map(|(a, b)| a * b)
                            .sum();
                        let gv: f64 = v[p * self.cols..(p + 1) * self.cols]
                            .iter()
                            .zip(&v[q * self.cols..(q + 1) * self.cols])
                            .map(|(a, b)| a * b)
                            .sum();
                        acc += gu * gv;
                    }
                }
                acc.max(0.0).sqrt()
            }
        }
    }

    /// Scales every element in place (a low-rank tile scales its `U`
    /// factor — same logical result, no densification).
    pub fn scale(&mut self, alpha: f64) {
        match &mut self.repr {
            Repr::Dense(data) => {
                for x in data {
                    *x *= alpha;
                }
            }
            Repr::LowRank { u, .. } => {
                for x in u {
                    *x *= alpha;
                }
            }
        }
    }

    /// `self += other`, element-wise. `self` must be dense (accumulators
    /// always are); `other` may be low-rank, in which case its factor
    /// product is accumulated without materialising it.
    ///
    /// # Panics
    /// Panics on shape mismatch or a low-rank `self`.
    pub fn add_assign(&mut self, other: &Tile) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "tile shape mismatch in add_assign"
        );
        let rows = self.rows;
        let cols = self.cols;
        let Repr::Dense(data) = &mut self.repr else {
            panic!("add_assign into a low-rank tile; densify the accumulator first")
        };
        match &other.repr {
            Repr::Dense(od) => {
                for (a, b) in data.iter_mut().zip(od) {
                    *a += b;
                }
            }
            Repr::LowRank { u, v, rank } => {
                for p in 0..*rank {
                    let up = &u[p * rows..(p + 1) * rows];
                    let vp = &v[p * cols..(p + 1) * cols];
                    for (c, &vc) in vp.iter().enumerate() {
                        let col = &mut data[c * rows..(c + 1) * rows];
                        for (e, &ur) in col.iter_mut().zip(up) {
                            *e += ur * vc;
                        }
                    }
                }
            }
        }
    }

    /// Largest absolute difference to another tile of the same shape
    /// (representation-independent: low-rank operands are evaluated
    /// element-wise).
    pub fn max_abs_diff(&self, other: &Tile) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        if let (Repr::Dense(a), Repr::Dense(b)) = (&self.repr, &other.repr) {
            return a
                .iter()
                .zip(b)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0, f64::max);
        }
        let mut worst = 0.0f64;
        for c in 0..self.cols {
            for r in 0..self.rows {
                worst = worst.max((self.get(r, c) - other.get(r, c)).abs());
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_bytes() {
        let t = Tile::zeros(3, 4);
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 4);
        assert_eq!(t.bytes(), 96);
        assert_eq!(t.stored_bytes(), 96);
        assert!(t.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic]
    fn zero_dim_rejected() {
        Tile::zeros(0, 4);
    }

    #[test]
    fn column_major_layout() {
        let t = Tile::from_data(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.get(0, 0), 1.0);
        assert_eq!(t.get(1, 0), 2.0);
        assert_eq!(t.get(0, 1), 3.0);
        assert_eq!(t.get(1, 1), 4.0);
    }

    #[test]
    fn random_is_pure_function_of_seed() {
        let a = Tile::random(5, 7, 123);
        let b = Tile::random(5, 7, 123);
        assert_eq!(a, b);
        let c = Tile::random(5, 7, 124);
        assert_ne!(a, c);
    }

    #[test]
    fn fill_random_matches_random() {
        let a = Tile::random(6, 9, 777);
        let mut b = Tile::from_data(6, 9, vec![f64::NAN; 54]);
        b.fill_random(777);
        assert_eq!(a, b);
    }

    #[test]
    fn into_data_roundtrip() {
        let t = Tile::from_data(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.into_data(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn random_in_unit_range() {
        let t = Tile::random(16, 16, 9);
        assert!(t.data().iter().all(|&x| (-1.0..1.0).contains(&x)));
    }

    #[test]
    fn add_assign_and_scale() {
        let mut a = Tile::from_data(2, 1, vec![1.0, 2.0]);
        let b = Tile::from_data(2, 1, vec![10.0, 20.0]);
        a.add_assign(&b);
        assert_eq!(a.data(), &[11.0, 22.0]);
        a.scale(0.5);
        assert_eq!(a.data(), &[5.5, 11.0]);
    }

    /// The partial sums take every element, ragged tails included.
    #[test]
    fn frobenius() {
        let t = Tile::from_data(2, 1, vec![3.0, 4.0]);
        assert!((t.frobenius_norm() - 5.0).abs() < 1e-12);
        for (rows, cols) in [(4, 4), (17, 1), (9, 35), (48, 48)] {
            let t = Tile::random(rows, cols, 7);
            let serial = t.data().iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!((t.frobenius_norm() - serial).abs() <= 1e-14 * serial, "{rows}x{cols}");
        }
    }

    #[test]
    fn max_abs_diff_works() {
        let a = Tile::from_data(2, 1, vec![1.0, 2.0]);
        let b = Tile::from_data(2, 1, vec![1.5, 1.0]);
        assert!((a.max_abs_diff(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn factor_tile_reads_like_its_product() {
        // u = [1, 2]ᵀ, v = [3, 4, 5]ᵀ → T = u·vᵀ, 2×3 rank 1.
        let t = Tile::from_factors(2, 3, vec![1.0, 2.0], vec![3.0, 4.0, 5.0], 1);
        assert!(!t.is_dense());
        assert_eq!(t.rank(), Some(1));
        assert_eq!(t.get(0, 0), 3.0);
        assert_eq!(t.get(1, 2), 10.0);
        assert_eq!(t.stored_bytes(), 40); // (2 + 3) * 8
        assert_eq!(t.bytes(), 48); // logical 2*3*8
        let d = t.to_dense();
        assert!(d.is_dense());
        assert!(t.max_abs_diff(&d) == 0.0);
    }

    #[test]
    fn lowrank_frobenius_matches_dense() {
        let t = Tile::from_factors(
            3,
            4,
            vec![1.0, -2.0, 0.5, 0.25, 1.5, -1.0],
            vec![2.0, 0.0, 1.0, -1.0, 0.5, 1.0, -0.5, 2.0],
            2,
        );
        let d = t.to_dense();
        assert!((t.frobenius_norm() - d.frobenius_norm()).abs() < 1e-12);
    }

    #[test]
    fn lowrank_scale_and_add_assign() {
        let mut t = Tile::from_factors(2, 2, vec![1.0, 0.0], vec![1.0, 1.0], 1);
        t.scale(2.0);
        assert_eq!(t.get(0, 0), 2.0);
        let mut acc = Tile::zeros(2, 2);
        acc.add_assign(&t);
        assert_eq!(acc.get(0, 1), 2.0);
        assert_eq!(acc.get(1, 0), 0.0);
    }

    #[test]
    fn rank_zero_tile_is_zero() {
        let t = Tile::from_factors(3, 5, vec![], vec![], 0);
        assert_eq!(t.stored_bytes(), 0);
        assert_eq!(t.frobenius_norm(), 0.0);
        assert!(t.max_abs_diff(&Tile::zeros(3, 5)) == 0.0);
    }

    #[test]
    fn random_lowrank_is_deterministic_and_compressible() {
        let a = Tile::random_lowrank(24, 20, 7, 0.8);
        let b = Tile::random_lowrank(24, 20, 7, 0.8);
        assert_eq!(a, b);
        assert!(a.is_dense());
        let lr = a.compressed(1e-2).expect("decaying spectrum compresses at 1e-2");
        assert!(lr.stored_bytes() < a.stored_bytes());
        assert!(lr.rank().unwrap() < 20);
    }

    #[test]
    fn tol_zero_never_compresses() {
        assert!(Tile::random_lowrank(16, 16, 3, 2.0).compressed(0.0).is_none());
        assert!(Tile::random(8, 8, 1).compressed(-1.0).is_none());
    }
}
