//! Small dense matrices used as correctness references in tests and
//! examples. Column-major, like [`bst_tile::Tile`].

use bst_tile::Tile;

/// A dense column-major `f64` matrix (reference/testing only — not meant for
/// large problems).
#[derive(Clone, Debug, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0);
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
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

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[c * self.rows + r]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[c * self.rows + r]
    }

    /// Copies a tile into position `(r0, c0)`.
    pub fn set_block(&mut self, r0: usize, c0: usize, tile: &Tile) {
        assert!(r0 + tile.rows() <= self.rows && c0 + tile.cols() <= self.cols);
        for c in 0..tile.cols() {
            for r in 0..tile.rows() {
                *self.get_mut(r0 + r, c0 + c) = tile.get(r, c);
            }
        }
    }

    /// Extracts the block at `(r0, c0)` of shape `rows × cols` as a tile.
    pub fn block(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> Tile {
        assert!(r0 + rows <= self.rows && c0 + cols <= self.cols);
        let mut t = Tile::zeros(rows, cols);
        for c in 0..cols {
            for r in 0..rows {
                *t.get_mut(r, c) = self.get(r0 + r, c0 + c);
            }
        }
        t
    }

    /// `self += a · b` (naive reference product).
    pub fn gemm_acc(&mut self, a: &DenseMatrix, b: &DenseMatrix) {
        assert_eq!(a.cols, b.rows);
        assert_eq!(self.rows, a.rows);
        assert_eq!(self.cols, b.cols);
        for j in 0..b.cols {
            for l in 0..a.cols {
                let blj = b.get(l, j);
                if blj == 0.0 {
                    continue;
                }
                for i in 0..a.rows {
                    *self.get_mut(i, j) += a.get(i, l) * blj;
                }
            }
        }
    }

    /// Largest absolute element-wise difference.
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_roundtrip() {
        let mut m = DenseMatrix::zeros(4, 4);
        let t = Tile::random(2, 3, 5);
        m.set_block(1, 0, &t);
        let back = m.block(1, 0, 2, 3);
        assert_eq!(back, t);
        // Outside the block stays zero.
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(3, 3), 0.0);
    }

    #[test]
    fn gemm_acc_identity() {
        let mut eye = DenseMatrix::zeros(3, 3);
        for i in 0..3 {
            *eye.get_mut(i, i) = 1.0;
        }
        let mut b = DenseMatrix::zeros(3, 2);
        *b.get_mut(0, 0) = 2.0;
        *b.get_mut(2, 1) = 3.0;
        let mut c = DenseMatrix::zeros(3, 2);
        c.gemm_acc(&eye, &b);
        assert_eq!(c.max_abs_diff(&b), 0.0);
        // Accumulation: second product doubles it.
        c.gemm_acc(&eye, &b);
        assert_eq!(c.get(0, 0), 4.0);
        assert_eq!(c.get(2, 1), 6.0);
    }
}
