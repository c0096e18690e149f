//! Sparse shapes: the zero/non-zero pattern of a block-sparse matrix.
//!
//! A [`SparseShape`] records, for every tile of a 2-d tile grid, a
//! non-negative *norm estimate* (`0.0` means the tile is structurally zero).
//! Norms let shapes be combined algebraically: the shape of a product
//! `C = A·B` is bounded tile-wise by `‖C_ij‖ ≤ Σ_k ‖A_ik‖·‖B_kj‖`
//! (submultiplicativity of the Frobenius norm), which is the sparse-shape
//! propagation of the paper's ref \[10\] (Calvin, Lewis, Valeev, IA³'15).

/// Per-tile norm grid of a block-sparse matrix. Row-major storage.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseShape {
    rows: usize,
    cols: usize,
    norms: Vec<f32>,
}

impl SparseShape {
    /// A fully dense shape (all norms `1.0`).
    pub fn dense(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0);
        Self {
            rows,
            cols,
            norms: vec![1.0; rows * cols],
        }
    }

    /// A fully zero shape.
    pub fn empty(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0);
        Self {
            rows,
            cols,
            norms: vec![0.0; rows * cols],
        }
    }

    /// Builds a shape from an explicit row-major norm grid.
    ///
    /// # Panics
    /// Panics if `norms.len() != rows * cols` or any norm is negative/NaN.
    pub fn from_norms(rows: usize, cols: usize, norms: Vec<f32>) -> Self {
        assert_eq!(norms.len(), rows * cols);
        assert!(
            norms.iter().all(|n| n.is_finite() && *n >= 0.0),
            "norms must be finite and non-negative"
        );
        Self { rows, cols, norms }
    }

    /// Number of tile rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of tile columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Norm estimate of tile `(r, c)`.
    #[inline]
    pub fn norm(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.norms[r * self.cols + c]
    }

    /// Whether tile `(r, c)` is structurally non-zero.
    #[inline]
    pub fn is_nonzero(&self, r: usize, c: usize) -> bool {
        self.norm(r, c) > 0.0
    }

    /// Sets the norm of tile `(r, c)`.
    pub fn set_norm(&mut self, r: usize, c: usize, n: f32) {
        assert!(n.is_finite() && n >= 0.0);
        self.norms[r * self.cols + c] = n;
    }

    /// Marks tile `(r, c)` as zero.
    pub fn zero_out(&mut self, r: usize, c: usize) {
        self.norms[r * self.cols + c] = 0.0;
    }

    /// Number of non-zero tiles.
    pub fn nnz_tiles(&self) -> usize {
        self.norms.iter().filter(|n| **n > 0.0).count()
    }

    /// Iterator over the coordinates of non-zero tiles, row-major.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.norms
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0.0)
            .map(move |(i, _)| (i / self.cols, i % self.cols))
    }

    /// Non-zero tile rows within column `c`.
    pub fn nonzero_rows_in_col(&self, c: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.rows).filter(move |&r| self.is_nonzero(r, c))
    }

    /// Non-zero tile columns within row `r`.
    pub fn nonzero_cols_in_row(&self, r: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.cols).filter(move |&c| self.is_nonzero(r, c))
    }

    /// Shape of the product `self · rhs`: tile-wise norm upper bound
    /// `Σ_k ‖A_ik‖·‖B_kj‖`. A result tile is kept when its bound exceeds
    /// `threshold` (use `0.0` to keep every structurally reachable tile).
    ///
    /// # Panics
    /// Panics if the inner tile dimensions disagree.
    pub fn product(&self, rhs: &SparseShape, threshold: f32) -> SparseShape {
        assert_eq!(self.cols, rhs.rows, "inner tile dimension mismatch");
        let mut out = SparseShape::empty(self.rows, rhs.cols);
        // Gustavson-style sparse accumulation: for each (i,k) non-zero in A,
        // scatter across the non-zeros of B's row k.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.norm(i, k);
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    let b = rhs.norm(k, j);
                    if b == 0.0 {
                        continue;
                    }
                    out.norms[i * rhs.cols + j] += a * b;
                }
            }
        }
        if threshold > 0.0 {
            for n in &mut out.norms {
                if *n <= threshold {
                    *n = 0.0;
                }
            }
        }
        out
    }

    /// Builds a compressed index of the non-zero pattern (CSC + CSR):
    /// O(1) access to the non-zero rows of a column and the non-zero
    /// columns of a row, replacing the O(rows)/O(cols) scans of
    /// [`Self::nonzero_rows_in_col`]/[`Self::nonzero_cols_in_row`] in hot
    /// paths. This is what keeps the inspector at the paper's
    /// `O(N log N + nnz_B)` bound (§3.2.4) for large tile grids.
    pub fn build_index(&self) -> ShapeIndex {
        let mut col_ptr = vec![0u32; self.cols + 1];
        let mut row_ptr = vec![0u32; self.rows + 1];
        for (r, c) in self.iter_nonzero() {
            col_ptr[c + 1] += 1;
            row_ptr[r + 1] += 1;
        }
        for i in 0..self.cols {
            col_ptr[i + 1] += col_ptr[i];
        }
        for i in 0..self.rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let nnz = self.nnz_tiles();
        let mut col_items = vec![0u32; nnz];
        let mut row_items = vec![0u32; nnz];
        let mut col_fill = col_ptr.clone();
        let mut row_fill = row_ptr.clone();
        for (r, c) in self.iter_nonzero() {
            col_items[col_fill[c] as usize] = r as u32;
            col_fill[c] += 1;
            row_items[row_fill[r] as usize] = c as u32;
            row_fill[r] += 1;
        }
        ShapeIndex {
            col_ptr,
            col_items,
            row_ptr,
            row_items,
        }
    }

    /// Transposed shape.
    pub fn transpose(&self) -> SparseShape {
        let mut out = SparseShape::empty(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.norms[c * self.rows + r] = self.norm(r, c);
            }
        }
        out
    }
}

/// Compressed (CSC + CSR) snapshot of a shape's non-zero pattern.
#[derive(Clone, Debug, Default)]
pub struct ShapeIndex {
    col_ptr: Vec<u32>,
    col_items: Vec<u32>,
    row_ptr: Vec<u32>,
    row_items: Vec<u32>,
}

impl ShapeIndex {
    /// Non-zero tile rows of column `c`, ascending.
    #[inline]
    pub fn col_rows(&self, c: usize) -> &[u32] {
        &self.col_items[self.col_ptr[c] as usize..self.col_ptr[c + 1] as usize]
    }

    /// Non-zero tile columns of row `r`, ascending.
    #[inline]
    pub fn row_cols(&self, r: usize) -> &[u32] {
        &self.row_items[self.row_ptr[r] as usize..self.row_ptr[r + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_and_empty() {
        let d = SparseShape::dense(2, 3);
        assert_eq!(d.nnz_tiles(), 6);
        let e = SparseShape::empty(2, 3);
        assert_eq!(e.nnz_tiles(), 0);
    }

    #[test]
    fn set_and_query() {
        let mut s = SparseShape::empty(3, 3);
        s.set_norm(1, 2, 4.0);
        assert!(s.is_nonzero(1, 2));
        assert!(!s.is_nonzero(2, 1));
        assert_eq!(s.nnz_tiles(), 1);
        s.zero_out(1, 2);
        assert_eq!(s.nnz_tiles(), 0);
    }

    #[test]
    fn iter_nonzero_row_major() {
        let mut s = SparseShape::empty(2, 2);
        s.set_norm(0, 1, 1.0);
        s.set_norm(1, 0, 2.0);
        let v: Vec<_> = s.iter_nonzero().collect();
        assert_eq!(v, vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn row_col_slices() {
        let mut s = SparseShape::empty(3, 3);
        s.set_norm(0, 1, 1.0);
        s.set_norm(2, 1, 1.0);
        s.set_norm(2, 2, 1.0);
        assert_eq!(s.nonzero_rows_in_col(1).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(s.nonzero_cols_in_row(2).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn product_identity_pattern() {
        // A = diag pattern, B = dense: product pattern = A's row pattern
        // spread across B's columns.
        let mut a = SparseShape::empty(2, 2);
        a.set_norm(0, 0, 1.0);
        a.set_norm(1, 1, 1.0);
        let b = SparseShape::dense(2, 3);
        let c = a.product(&b, 0.0);
        assert_eq!(c.nnz_tiles(), 6);
    }

    #[test]
    fn product_with_zero_inner() {
        let a = SparseShape::empty(2, 2);
        let b = SparseShape::dense(2, 2);
        let c = a.product(&b, 0.0);
        assert_eq!(c.nnz_tiles(), 0);
    }

    #[test]
    fn product_norm_is_sum_of_products() {
        let mut a = SparseShape::empty(1, 2);
        a.set_norm(0, 0, 2.0);
        a.set_norm(0, 1, 3.0);
        let mut b = SparseShape::empty(2, 1);
        b.set_norm(0, 0, 5.0);
        b.set_norm(1, 0, 7.0);
        let c = a.product(&b, 0.0);
        assert!((c.norm(0, 0) - 31.0).abs() < 1e-6);
    }

    #[test]
    fn product_threshold_screens() {
        let mut a = SparseShape::empty(1, 1);
        a.set_norm(0, 0, 0.1);
        let mut b = SparseShape::empty(1, 1);
        b.set_norm(0, 0, 0.1);
        let kept = a.product(&b, 0.0);
        assert_eq!(kept.nnz_tiles(), 1);
        let screened = a.product(&b, 0.5);
        assert_eq!(screened.nnz_tiles(), 0);
    }

    #[test]
    #[should_panic]
    fn product_dim_mismatch() {
        SparseShape::dense(2, 3).product(&SparseShape::dense(2, 3), 0.0);
    }

    #[test]
    fn index_matches_scans() {
        let mut s = SparseShape::empty(5, 7);
        for (r, c) in [(0, 1), (0, 6), (2, 1), (3, 0), (4, 6), (4, 5)] {
            s.set_norm(r, c, 1.0);
        }
        let idx = s.build_index();
        for c in 0..7 {
            let scan: Vec<u32> = s.nonzero_rows_in_col(c).map(|r| r as u32).collect();
            assert_eq!(idx.col_rows(c), &scan[..], "col {c}");
        }
        for r in 0..5 {
            let scan: Vec<u32> = s.nonzero_cols_in_row(r).map(|c| c as u32).collect();
            assert_eq!(idx.row_cols(r), &scan[..], "row {r}");
        }
    }

    #[test]
    fn index_of_empty_and_dense() {
        let e = SparseShape::empty(3, 4);
        let idx = e.build_index();
        for c in 0..4 {
            assert!(idx.col_rows(c).is_empty());
        }
        let d = SparseShape::dense(3, 4);
        let idx = d.build_index();
        assert_eq!(idx.col_rows(0), &[0, 1, 2]);
        assert_eq!(idx.row_cols(2), &[0, 1, 2, 3]);
    }

    #[test]
    fn transpose_roundtrip() {
        let mut s = SparseShape::empty(2, 3);
        s.set_norm(0, 2, 1.5);
        s.set_norm(1, 0, 2.5);
        let t = s.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.norm(2, 0), 1.5);
        assert_eq!(t.norm(0, 1), 2.5);
        assert_eq!(t.transpose(), s);
    }
}
