//! Block-sparse matrices with element data.
//!
//! [`BlockSparseMatrix`] pairs a [`MatrixStructure`] with the dense tiles of
//! its non-zero blocks. It is the container used by the numeric execution
//! paths (runtime, baseline, references); the planner and simulator use the
//! structure alone.

use std::collections::HashMap;
use std::sync::Arc;

use crate::dense::DenseMatrix;
use crate::shape::SparseShape;
use crate::structure::MatrixStructure;
use bst_tile::{Tile, Tiling};

/// A block-sparse matrix: structure + dense tiles for each non-zero block.
///
/// Tiles are held behind `Arc` so executors can seed per-node stores by
/// reference-sharing instead of deep-copying every buffer (the matrix's
/// tiles are immutable while a contraction runs); in-place mutation goes
/// through copy-on-write ([`Arc::make_mut`]), so single-owner use is
/// unaffected.
#[derive(Clone, Debug)]
pub struct BlockSparseMatrix {
    structure: MatrixStructure,
    tiles: HashMap<(usize, usize), Arc<Tile>>,
}

impl BlockSparseMatrix {
    /// An all-zero matrix over the given tilings (empty shape, no tiles).
    pub fn zeros(row_tiling: Tiling, col_tiling: Tiling) -> Self {
        let shape = SparseShape::empty(row_tiling.num_tiles(), col_tiling.num_tiles());
        Self {
            structure: MatrixStructure::new(row_tiling, col_tiling, shape),
            tiles: HashMap::new(),
        }
    }

    /// Materialises a matrix from a structure, filling each non-zero tile by
    /// calling `gen(r, c, rows, cols)`.
    pub fn from_structure(
        structure: MatrixStructure,
        mut gen: impl FnMut(usize, usize, usize, usize) -> Tile,
    ) -> Self {
        let mut tiles = HashMap::with_capacity(structure.nnz_tiles());
        let coords: Vec<_> = structure.shape().iter_nonzero().collect();
        for (r, c) in coords {
            let rows = structure.row_tiling().size(r) as usize;
            let cols = structure.col_tiling().size(c) as usize;
            let t = gen(r, c, rows, cols);
            assert_eq!((t.rows(), t.cols()), (rows, cols), "generator shape mismatch at ({r},{c})");
            tiles.insert((r, c), Arc::new(t));
        }
        Self { structure, tiles }
    }

    /// Materialises with deterministic pseudo-random tiles; `seed` makes each
    /// tile a pure function of `(seed, r, c)`.
    pub fn random_from_structure(structure: MatrixStructure, seed: u64) -> Self {
        Self::from_structure(structure, |r, c, rows, cols| {
            Tile::random(rows, cols, tile_seed(seed, r, c))
        })
    }

    /// The data-free structure.
    #[inline]
    pub fn structure(&self) -> &MatrixStructure {
        &self.structure
    }

    /// Shorthand for `structure().row_tiling()`.
    #[inline]
    pub fn row_tiling(&self) -> &Tiling {
        self.structure.row_tiling()
    }

    /// Shorthand for `structure().col_tiling()`.
    #[inline]
    pub fn col_tiling(&self) -> &Tiling {
        self.structure.col_tiling()
    }

    /// The tile at `(r, c)`, if non-zero.
    pub fn tile(&self, r: usize, c: usize) -> Option<&Tile> {
        self.tiles.get(&(r, c)).map(Arc::as_ref)
    }

    /// The shared handle to the tile at `(r, c)`, if non-zero — clone this
    /// to hand the tile to an executor without copying the buffer.
    pub fn tile_arc(&self, r: usize, c: usize) -> Option<&Arc<Tile>> {
        self.tiles.get(&(r, c))
    }

    /// Inserts (or replaces) a tile, updating the shape norm to the tile's
    /// Frobenius norm.
    ///
    /// # Panics
    /// Panics if the tile shape disagrees with the tilings.
    pub fn insert_tile(&mut self, r: usize, c: usize, tile: Tile) {
        self.insert_tile_arc(r, c, Arc::new(tile));
    }

    /// [`Self::insert_tile`] for a tile already behind an `Arc` (shares the
    /// buffer instead of copying).
    ///
    /// # Panics
    /// Panics if the tile shape disagrees with the tilings.
    pub fn insert_tile_arc(&mut self, r: usize, c: usize, tile: Arc<Tile>) {
        let norm = tile.frobenius_norm();
        self.insert_tile_arc_with_norm(r, c, tile, norm);
    }

    /// [`Self::insert_tile_arc`] for a caller that already computed the
    /// tile's [`Tile::frobenius_norm`]: the shape norm is set from `norm`,
    /// with the same clamp, instead of re-reading the tile.
    ///
    /// # Panics
    /// Panics if the tile shape disagrees with the tilings.
    pub fn insert_tile_arc_with_norm(&mut self, r: usize, c: usize, tile: Arc<Tile>, norm: f64) {
        assert_eq!(tile.rows() as u64, self.structure.row_tiling().size(r));
        assert_eq!(tile.cols() as u64, self.structure.col_tiling().size(c));
        self.structure.shape_mut().set_norm(r, c, (norm as f32).max(f32::MIN_POSITIVE));
        self.tiles.insert((r, c), tile);
    }

    /// Accumulates `tile` into block `(r, c)`, creating it if absent.
    ///
    /// Copy-on-write: if the existing tile is shared with other holders, it
    /// is cloned before mutation so the other holders are unaffected.
    pub fn accumulate_tile(&mut self, r: usize, c: usize, tile: &Tile) {
        match self.tiles.get_mut(&(r, c)) {
            Some(existing) => Arc::make_mut(existing).add_assign(tile),
            None => {
                self.insert_tile(r, c, tile.clone());
                return;
            }
        }
        let norm = self.tiles[&(r, c)].frobenius_norm() as f32;
        self.structure.shape_mut().set_norm(r, c, norm.max(f32::MIN_POSITIVE));
    }

    /// Number of stored tiles.
    pub fn num_tiles(&self) -> usize {
        self.tiles.len()
    }

    /// Iterator over `((r, c), tile)` pairs in unspecified order.
    pub fn iter_tiles(&self) -> impl Iterator<Item = (&(usize, usize), &Tile)> {
        self.tiles.iter().map(|(k, t)| (k, t.as_ref()))
    }

    /// Iterator over `((r, c), shared tile handle)` pairs in unspecified
    /// order — for seeding executors by reference.
    pub fn iter_tile_arcs(&self) -> impl Iterator<Item = (&(usize, usize), &Arc<Tile>)> {
        self.tiles.iter()
    }

    /// Consumes the matrix into its `((r, c), tile)` pairs in unspecified
    /// order, moving each tile out (a tile still shared elsewhere is
    /// cloned).
    pub fn into_tiles(self) -> impl Iterator<Item = ((usize, usize), Tile)> {
        self.tiles.into_iter().map(|(k, t)| (k, Arc::unwrap_or_clone(t)))
    }

    /// Expands to a dense matrix (testing/reference only).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.structure.rows() as usize, self.structure.cols() as usize);
        for (&(r, c), tile) in &self.tiles {
            let r0 = self.structure.row_tiling().offset(r) as usize;
            let c0 = self.structure.col_tiling().offset(c) as usize;
            out.set_block(r0, c0, tile);
        }
        out
    }

    /// Largest absolute difference to another block-sparse matrix of the same
    /// element dimensions (compares dense expansions — testing only).
    pub fn max_abs_diff(&self, other: &BlockSparseMatrix) -> f64 {
        self.to_dense().max_abs_diff(&other.to_dense())
    }

    /// Naive (single-threaded, undistributed) block-sparse product
    /// `self += a · b` — the semantic reference every optimised execution
    /// path is validated against.
    pub fn gemm_acc_reference(&mut self, a: &BlockSparseMatrix, b: &BlockSparseMatrix) {
        crate::structure::check_product_dims(a.structure(), b.structure());
        assert_eq!(self.row_tiling(), a.row_tiling());
        assert_eq!(self.col_tiling(), b.col_tiling());
        for k in 0..a.structure().tile_cols() {
            let arows: Vec<usize> = a.structure().shape().nonzero_rows_in_col(k).collect();
            if arows.is_empty() {
                continue;
            }
            let bcols: Vec<usize> = b.structure().shape().nonzero_cols_in_row(k).collect();
            for &i in &arows {
                let at = a.tile(i, k).expect("shape says non-zero but tile missing");
                for &j in &bcols {
                    let bt = b.tile(k, j).expect("shape says non-zero but tile missing");
                    let mut ct = match self.tiles.remove(&(i, j)) {
                        Some(t) => Arc::try_unwrap(t).unwrap_or_else(|a| (*a).clone()),
                        None => Tile::zeros(at.rows(), bt.cols()),
                    };
                    bst_tile::gemm::gemm_blocked(1.0, at, bt, &mut ct);
                    self.insert_tile(i, j, ct);
                }
            }
        }
    }
}

/// Derives a per-tile seed from a matrix seed and tile coordinates, so tile
/// content is a pure function of identity (needed for consistent on-demand
/// generation of `B` on every node that replicates a column).
pub fn tile_seed(matrix_seed: u64, r: usize, c: usize) -> u64 {
    // SplitMix64-style mixing of (seed, r, c).
    let mut z = matrix_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((r as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add((c as u64).wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic on-demand `B` generator over [`tile_seed`]: each call
/// produces `pool.random(rows, cols, tile_seed(matrix_seed, k, j))`, so tile
/// content is a pure function of identity wherever the closure runs — the
/// same guarantee [`tile_seed`] gives materialised matrices, shared by every
/// CLI/bench/test call site instead of each re-spelling the closure.
///
/// The generator is infallible; it is generic over the error type `E` so the
/// one helper satisfies both the engine's `BGen` signature and the service's
/// shared-generator signature without conversion shims.
pub fn random_b_gen<E>(
    matrix_seed: u64,
) -> impl Fn(usize, usize, usize, usize, &bst_tile::TilePool) -> Result<Arc<Tile>, E>
       + Send
       + Sync
       + Clone
       + 'static {
    move |k, j, rows, cols, pool| Ok(Arc::new(pool.random(rows, cols, tile_seed(matrix_seed, k, j))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::product_structure;

    fn structures() -> (MatrixStructure, MatrixStructure) {
        let a = MatrixStructure::dense(Tiling::from_sizes(&[2, 3]), Tiling::from_sizes(&[4, 5]));
        let b = MatrixStructure::dense(Tiling::from_sizes(&[4, 5]), Tiling::from_sizes(&[6, 7]));
        (a, b)
    }

    #[test]
    fn zeros_has_no_tiles() {
        let m = BlockSparseMatrix::zeros(Tiling::from_sizes(&[2]), Tiling::from_sizes(&[3]));
        assert_eq!(m.num_tiles(), 0);
        assert_eq!(m.structure().nnz_tiles(), 0);
        assert!(m.tile(0, 0).is_none());
    }

    #[test]
    fn random_matches_structure() {
        let (a, _) = structures();
        let m = BlockSparseMatrix::random_from_structure(a, 42);
        assert_eq!(m.num_tiles(), 4);
        assert_eq!(m.tile(1, 1).unwrap().rows(), 3);
        assert_eq!(m.tile(1, 1).unwrap().cols(), 5);
    }

    #[test]
    fn random_is_deterministic() {
        let (a, _) = structures();
        let m1 = BlockSparseMatrix::random_from_structure(a.clone(), 42);
        let m2 = BlockSparseMatrix::random_from_structure(a, 42);
        assert_eq!(m1.max_abs_diff(&m2), 0.0);
    }

    #[test]
    fn tile_seed_distinguishes_coords() {
        assert_ne!(tile_seed(1, 0, 1), tile_seed(1, 1, 0));
        assert_ne!(tile_seed(1, 2, 3), tile_seed(2, 2, 3));
        assert_eq!(tile_seed(7, 5, 9), tile_seed(7, 5, 9));
    }

    #[test]
    fn insert_updates_shape_norm() {
        let mut m = BlockSparseMatrix::zeros(Tiling::from_sizes(&[2]), Tiling::from_sizes(&[2]));
        m.insert_tile(0, 0, Tile::from_data(2, 2, vec![3.0, 0.0, 0.0, 4.0]));
        assert!(m.structure().shape().is_nonzero(0, 0));
        assert!((m.structure().shape().norm(0, 0) - 5.0).abs() < 1e-5);
    }

    #[test]
    fn accumulate_adds() {
        let mut m = BlockSparseMatrix::zeros(Tiling::from_sizes(&[1]), Tiling::from_sizes(&[1]));
        let t = Tile::from_data(1, 1, vec![2.0]);
        m.accumulate_tile(0, 0, &t);
        m.accumulate_tile(0, 0, &t);
        assert_eq!(m.tile(0, 0).unwrap().get(0, 0), 4.0);
    }

    #[test]
    fn shared_tiles_are_copy_on_write() {
        let mut m = BlockSparseMatrix::zeros(Tiling::from_sizes(&[1]), Tiling::from_sizes(&[1]));
        m.insert_tile(0, 0, Tile::from_data(1, 1, vec![2.0]));
        // Take a shared handle, as an executor seeding its stores would.
        let shared = Arc::clone(m.tile_arc(0, 0).unwrap());
        m.accumulate_tile(0, 0, &Tile::from_data(1, 1, vec![5.0]));
        assert_eq!(m.tile(0, 0).unwrap().get(0, 0), 7.0);
        assert_eq!(shared.get(0, 0), 2.0, "external holder must be unaffected");
        // With no other holders, accumulation mutates in place (same buffer).
        let before = m.tile(0, 0).unwrap() as *const Tile;
        m.accumulate_tile(0, 0, &Tile::from_data(1, 1, vec![1.0]));
        assert_eq!(m.tile(0, 0).unwrap() as *const Tile, before);
        assert_eq!(m.tile(0, 0).unwrap().get(0, 0), 8.0);
    }

    #[test]
    fn insert_tile_arc_shares_buffer() {
        let mut m = BlockSparseMatrix::zeros(Tiling::from_sizes(&[1]), Tiling::from_sizes(&[1]));
        let t = Arc::new(Tile::from_data(1, 1, vec![3.0]));
        m.insert_tile_arc(0, 0, Arc::clone(&t));
        assert!(Arc::ptr_eq(m.tile_arc(0, 0).unwrap(), &t));
        assert!((m.structure().shape().norm(0, 0) - 3.0).abs() < 1e-5);
    }

    #[test]
    fn known_norm_insert_clamps_like_computed() {
        let mut m = BlockSparseMatrix::zeros(Tiling::from_sizes(&[1, 1]), Tiling::from_sizes(&[1]));
        m.insert_tile_arc_with_norm(0, 0, Arc::new(Tile::from_data(1, 1, vec![3.0])), 3.0);
        m.insert_tile_arc_with_norm(1, 0, Arc::new(Tile::zeros(1, 1)), 0.0);
        assert_eq!(m.structure().shape().norm(0, 0), 3.0);
        // A zero tile stays non-zero in the shape.
        assert_eq!(m.structure().shape().norm(1, 0), f32::MIN_POSITIVE);
    }

    #[test]
    fn reference_product_matches_dense() {
        let (sa, sb) = structures();
        let a = BlockSparseMatrix::random_from_structure(sa.clone(), 1);
        let b = BlockSparseMatrix::random_from_structure(sb.clone(), 2);
        let mut c = BlockSparseMatrix::zeros(sa.row_tiling().clone(), sb.col_tiling().clone());
        c.gemm_acc_reference(&a, &b);

        let mut dref = DenseMatrix::zeros(5, 13);
        dref.gemm_acc(&a.to_dense(), &b.to_dense());
        assert!(c.to_dense().max_abs_diff(&dref) < 1e-10);
    }

    #[test]
    fn reference_product_with_sparsity() {
        let (mut sa, mut sb) = structures();
        sa.shape_mut().zero_out(0, 1);
        sb.shape_mut().zero_out(1, 0);
        let a = BlockSparseMatrix::random_from_structure(sa.clone(), 3);
        let b = BlockSparseMatrix::random_from_structure(sb.clone(), 4);
        let mut c = BlockSparseMatrix::zeros(sa.row_tiling().clone(), sb.col_tiling().clone());
        c.gemm_acc_reference(&a, &b);

        let mut dref = DenseMatrix::zeros(5, 13);
        dref.gemm_acc(&a.to_dense(), &b.to_dense());
        assert!(c.to_dense().max_abs_diff(&dref) < 1e-10);
        // C's shape must cover the shape product's non-zeros.
        let cstruct = product_structure(&sa, &sb, 0.0);
        for (r, cc) in cstruct.shape().iter_nonzero() {
            assert!(c.tile(r, cc).is_some());
        }
    }
}
