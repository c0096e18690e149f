//! 4-d block-sparse tensor metadata and matricisation.
//!
//! The ABCD term of CCSD, `R^{ij}_{ab} = Σ_{cd} T^{ij}_{cd} V^{cd}_{ab}`,
//! is evaluated (as in the paper's §2) by *matricising* the order-4 tensors:
//! fusing index pairs `ij`, `cd` and `ab` turns the contraction into the
//! matrix product `R = T · V` with
//!
//! * `A = T` — `O² × U²`, short and wide (`U/O` ≈ 5–20, so the aspect ratio
//!   `U²/O²` is 25–400),
//! * `B = V` — `U² × U²`, huge and square,
//! * `C = R` — `O² × U²`.
//!
//! A [`Tensor4Meta`] holds the per-mode tilings and provides the fused-index
//! bookkeeping; element data always lives in matricised
//! [`crate::BlockSparseMatrix`] form, exactly as block-sparse tensor
//! frameworks (TiledArray, and the paper's driver) store it for contraction.

use crate::shape::SparseShape;
use crate::structure::MatrixStructure;
use bst_tile::Tiling;

/// Characteristic index-range extents of a coupled-cluster problem.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ContractionDims {
    /// Rank of the occupied index range (`i`, `j`).
    pub o: u64,
    /// Rank of the unoccupied index range (`a`, `b`, `c`, `d`).
    pub u: u64,
}

impl ContractionDims {
    /// `M = O²` — rows of the matricised `T` and `R`.
    pub fn m(&self) -> u64 {
        self.o * self.o
    }

    /// `K = N = U²` — the fused `cd`/`ab` extents.
    pub fn k(&self) -> u64 {
        self.u * self.u
    }
}

/// Metadata of an order-4 block-sparse tensor: one tiling per mode.
#[derive(Clone, Debug)]
pub struct Tensor4Meta {
    tilings: [Tiling; 4],
}

impl Tensor4Meta {
    /// Builds metadata from per-mode tilings.
    pub fn new(tilings: [Tiling; 4]) -> Self {
        Self { tilings }
    }

    /// Tiling of mode `m`.
    pub fn tiling(&self, m: usize) -> &Tiling {
        &self.tilings[m]
    }

    /// All four per-mode tilings.
    pub fn mode_tilings(&self) -> &[Tiling; 4] {
        &self.tilings
    }

    /// Whether `structure`'s tilings are exactly this metadata's fused
    /// `(0,1) × (2,3)` tilings — i.e. the structure is a valid matricised
    /// frame for this tensor.
    pub fn matches_matricised(&self, structure: &MatrixStructure) -> bool {
        self.fused_row_tiling() == *structure.row_tiling()
            && self.fused_col_tiling() == *structure.col_tiling()
    }

    /// Number of tiles along mode `m`.
    pub fn tiles(&self, m: usize) -> usize {
        self.tilings[m].num_tiles()
    }

    /// The fused row tiling for matricisation `(0,1) × (2,3)`.
    pub fn fused_row_tiling(&self) -> Tiling {
        self.tilings[0].fuse(&self.tilings[1])
    }

    /// The fused column tiling for matricisation `(0,1) × (2,3)`.
    pub fn fused_col_tiling(&self) -> Tiling {
        self.tilings[2].fuse(&self.tilings[3])
    }

    /// Fused tile-row index of tensor tile `(t0, t1)`.
    #[inline]
    pub fn fused_row(&self, t0: usize, t1: usize) -> usize {
        debug_assert!(t0 < self.tiles(0) && t1 < self.tiles(1));
        t0 * self.tiles(1) + t1
    }

    /// Fused tile-column index of tensor tile `(t2, t3)`.
    #[inline]
    pub fn fused_col(&self, t2: usize, t3: usize) -> usize {
        debug_assert!(t2 < self.tiles(2) && t3 < self.tiles(3));
        t2 * self.tiles(3) + t3
    }

    /// Inverse of [`Self::fused_row`].
    #[inline]
    pub fn unfuse_row(&self, row: usize) -> (usize, usize) {
        (row / self.tiles(1), row % self.tiles(1))
    }

    /// Inverse of [`Self::fused_col`].
    #[inline]
    pub fn unfuse_col(&self, col: usize) -> (usize, usize) {
        (col / self.tiles(3), col % self.tiles(3))
    }

    /// Matricises a 4-d tile-norm function into a 2-d [`MatrixStructure`]:
    /// `norm(t0, t1, t2, t3)` is queried for every fused tile (`0.0` ⇒ the
    /// tile is absent).
    pub fn matricise(&self, mut norm: impl FnMut(usize, usize, usize, usize) -> f32) -> MatrixStructure {
        let rows = self.tiles(0) * self.tiles(1);
        let cols = self.tiles(2) * self.tiles(3);
        let mut norms = Vec::with_capacity(rows * cols);
        for t0 in 0..self.tiles(0) {
            for t1 in 0..self.tiles(1) {
                for t2 in 0..self.tiles(2) {
                    for t3 in 0..self.tiles(3) {
                        norms.push(norm(t0, t1, t2, t3));
                    }
                }
            }
        }
        MatrixStructure::new(
            self.fused_row_tiling(),
            self.fused_col_tiling(),
            SparseShape::from_norms(rows, cols, norms),
        )
    }
}

/// A data-bearing order-4 block-sparse tensor.
///
/// Storage is the canonical matricised form (modes `(0,1)` fused as rows,
/// `(2,3)` as columns) with each fused tile contiguous — the layout
/// block-sparse tensor frameworks keep their operands in for contraction.
/// Tensor-level tile and element accessors translate through
/// [`Tensor4Meta`].
#[derive(Clone, Debug)]
pub struct BlockSparseTensor4 {
    meta: Tensor4Meta,
    matricised: crate::BlockSparseMatrix,
}

impl BlockSparseTensor4 {
    /// Builds a tensor from its matricised structure, filling each present
    /// fused tile via `gen(t0, t1, t2, t3, rows, cols)`.
    pub fn from_structure(
        meta: Tensor4Meta,
        structure: MatrixStructure,
        mut gen: impl FnMut(usize, usize, usize, usize, usize, usize) -> bst_tile::Tile,
    ) -> Self {
        assert_eq!(structure.tile_rows(), meta.tiles(0) * meta.tiles(1));
        assert_eq!(structure.tile_cols(), meta.tiles(2) * meta.tiles(3));
        let m = &meta;
        let matricised = crate::BlockSparseMatrix::from_structure(structure, |r, c, rows, cols| {
            let (t0, t1) = m.unfuse_row(r);
            let (t2, t3) = m.unfuse_col(c);
            gen(t0, t1, t2, t3, rows, cols)
        });
        Self { meta, matricised }
    }

    /// Wraps an already-materialised matricised matrix as an order-4
    /// tensor — transpose-free: the tiles are shared, not copied. Fails if
    /// `matrix`'s tilings are not `meta`'s fused `(0,1) × (2,3)` tilings.
    pub fn from_matricised(
        meta: Tensor4Meta,
        matrix: crate::BlockSparseMatrix,
    ) -> Result<Self, String> {
        if !meta.matches_matricised(matrix.structure()) {
            return Err(format!(
                "matrix tilings ({} x {} tiles) are not the fused frame of the tensor metadata \
({}·{} x {}·{} tiles)",
                matrix.structure().tile_rows(),
                matrix.structure().tile_cols(),
                meta.tiles(0),
                meta.tiles(1),
                meta.tiles(2),
                meta.tiles(3),
            ));
        }
        Ok(Self { meta, matricised: matrix })
    }

    /// Builds a tensor with deterministic pseudo-random tiles.
    pub fn random_from_structure(meta: Tensor4Meta, structure: MatrixStructure, seed: u64) -> Self {
        Self {
            matricised: crate::BlockSparseMatrix::random_from_structure(structure, seed),
            meta,
        }
    }

    /// Tensor metadata.
    pub fn meta(&self) -> &Tensor4Meta {
        &self.meta
    }

    /// The matricised view (what contraction consumes).
    pub fn matricised(&self) -> &crate::BlockSparseMatrix {
        &self.matricised
    }

    /// The fused tile holding tensor tile `(t0, t1, t2, t3)`, if present.
    pub fn tile(&self, t0: usize, t1: usize, t2: usize, t3: usize) -> Option<&bst_tile::Tile> {
        self.matricised
            .tile(self.meta.fused_row(t0, t1), self.meta.fused_col(t2, t3))
    }

    /// Element accessor by global tensor indices; `0.0` for absent tiles.
    pub fn get(&self, i: u64, j: u64, k: u64, l: u64) -> f64 {
        let m = &self.meta;
        let (t0, t1) = (m.tiling(0).tile_of(i), m.tiling(1).tile_of(j));
        let (t2, t3) = (m.tiling(2).tile_of(k), m.tiling(3).tile_of(l));
        match self.tile(t0, t1, t2, t3) {
            None => 0.0,
            Some(tile) => {
                // Local coordinates within the fused tile: row-major fusion
                // of the two local mode indices.
                let li = (i - m.tiling(0).offset(t0)) as usize;
                let lj = (j - m.tiling(1).offset(t1)) as usize;
                let lk = (k - m.tiling(2).offset(t2)) as usize;
                let ll = (l - m.tiling(3).offset(t3)) as usize;
                let row = li * m.tiling(1).size(t1) as usize + lj;
                let col = lk * m.tiling(3).size(t3) as usize + ll;
                tile.get(row, col)
            }
        }
    }

    /// Number of stored (fused) tiles.
    pub fn num_tiles(&self) -> usize {
        self.matricised.num_tiles()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_paper_values() {
        // The paper's C65H132: O = 196, U = 1570.
        let d = ContractionDims { o: 196, u: 1570 };
        assert_eq!(d.m(), 38_416);
        assert_eq!(d.k(), 2_464_900);
    }

    fn meta() -> Tensor4Meta {
        Tensor4Meta::new([
            Tiling::from_sizes(&[2, 3]),
            Tiling::from_sizes(&[4]),
            Tiling::from_sizes(&[5, 6]),
            Tiling::from_sizes(&[7, 8, 9]),
        ])
    }

    #[test]
    fn fused_tilings_sizes() {
        let m = meta();
        let rt = m.fused_row_tiling();
        assert_eq!(rt.num_tiles(), 2);
        assert_eq!(rt.sizes().collect::<Vec<_>>(), vec![8, 12]);
        let ct = m.fused_col_tiling();
        assert_eq!(ct.num_tiles(), 6);
        assert_eq!(ct.extent(), 11 * 24);
    }

    #[test]
    fn fuse_unfuse_roundtrip() {
        let m = meta();
        for t0 in 0..2 {
            for t1 in 0..1 {
                assert_eq!(m.unfuse_row(m.fused_row(t0, t1)), (t0, t1));
            }
        }
        for t2 in 0..2 {
            for t3 in 0..3 {
                assert_eq!(m.unfuse_col(m.fused_col(t2, t3)), (t2, t3));
            }
        }
    }

    #[test]
    fn matricise_respects_norm_function() {
        let m = meta();
        // Only (0, 0, 1, 2) non-zero.
        let s = m.matricise(|a, b, c, d| {
            if (a, b, c, d) == (0, 0, 1, 2) {
                2.0
            } else {
                0.0
            }
        });
        assert_eq!(s.nnz_tiles(), 1);
        let row = m.fused_row(0, 0);
        let col = m.fused_col(1, 2);
        assert!(s.shape().is_nonzero(row, col));
        assert_eq!(s.shape().norm(row, col), 2.0);
        // Tile area = (2*4) rows × (6*9) cols.
        assert_eq!(s.tile_area(row, col), 8 * 54);
    }

    #[test]
    fn matricise_dense_dims() {
        let m = meta();
        let s = m.matricise(|_, _, _, _| 1.0);
        assert_eq!(s.rows(), 5 * 4);
        assert_eq!(s.cols(), 11 * 24);
        assert_eq!(s.nnz_tiles(), 2 * 2 * 3);
    }

    #[test]
    fn tensor_data_roundtrip() {
        let m = meta();
        let s = m.matricise(|_, _, _, _| 1.0);
        // Fill each tile so element (i,j,k,l)-local encodes its identity.
        let t = BlockSparseTensor4::from_structure(m.clone(), s, |t0, t1, t2, t3, rows, cols| {
            let mut tile = bst_tile::Tile::zeros(rows, cols);
            for r in 0..rows {
                for c in 0..cols {
                    *tile.get_mut(r, c) =
                        (t0 * 1000 + t1 * 100 + t2 * 10 + t3) as f64 + (r * cols + c) as f64 * 1e-6;
                }
            }
            tile
        });
        assert_eq!(t.num_tiles(), 12);
        // Element (0,0,0,0) lives in tile (0,0,0,0) at local (0,0).
        assert!((t.get(0, 0, 0, 0) - 0.0).abs() < 1e-9);
        // Element at the start of tensor tile (1,0,1,2): global indices are
        // the tile offsets.
        let g = t.get(
            t.meta().tiling(0).offset(1),
            0,
            t.meta().tiling(2).offset(1),
            t.meta().tiling(3).offset(2),
        );
        assert!((g - 1012.0).abs() < 1e-9);
    }

    #[test]
    fn tensor_zero_for_absent_tiles() {
        let m = meta();
        let s = m.matricise(|a, b, c, d| if (a, b, c, d) == (0, 0, 0, 0) { 1.0 } else { 0.0 });
        let t = BlockSparseTensor4::random_from_structure(m, s, 7);
        assert_eq!(t.num_tiles(), 1);
        assert!(t.tile(0, 0, 0, 0).is_some());
        assert!(t.tile(1, 0, 1, 1).is_none());
        // Element in an absent tile reads as zero.
        assert_eq!(t.get(4, 0, 10, 20), 0.0);
    }

    #[test]
    fn tensor_matricised_consistency() {
        let m = meta();
        let s = m.matricise(|_, _, _, _| 1.0);
        let t = BlockSparseTensor4::random_from_structure(m, s, 3);
        // The tensor tile accessor sees exactly the matricised tiles.
        for t0 in 0..2 {
            for t2 in 0..2 {
                for t3 in 0..3 {
                    let via_tensor = t.tile(t0, 0, t2, t3).unwrap();
                    let via_matrix = t
                        .matricised()
                        .tile(t.meta().fused_row(t0, 0), t.meta().fused_col(t2, t3))
                        .unwrap();
                    assert_eq!(via_tensor, via_matrix);
                }
            }
        }
    }
}
