//! Umbrella crate re-exporting the whole block-sparse contraction stack.
//!
//! The repo-root `examples/` and `tests/` directories use this crate so they
//! can exercise every layer through one dependency. Library users should
//! normally depend on the individual crates instead.
//!
//! ```
//! use bst::contract::Einsum;
//! use bst::contract::{DeviceConfig, GridConfig, PlannerConfig};
//! use bst::sparse::{BlockSparseMatrix, MatrixStructure};
//! use bst::tile::Tiling;
//!
//! // A tiny irregular block-sparse product on a 1-node, 1-GPU machine.
//! let a = BlockSparseMatrix::random_from_structure(
//!     MatrixStructure::dense(Tiling::from_sizes(&[2, 3]), Tiling::from_sizes(&[4, 2])),
//!     1,
//! );
//! let b = BlockSparseMatrix::random_from_structure(
//!     MatrixStructure::dense(Tiling::from_sizes(&[4, 2]), Tiling::from_sizes(&[3, 3])),
//!     2,
//! );
//! let config = PlannerConfig::paper(
//!     GridConfig { p: 1, q: 1 },
//!     DeviceConfig { gpus_per_node: 1, gpu_mem_bytes: 1 << 20 },
//! );
//! let out = Einsum::new("ik,kj->ij").operand(&a).operand(&b).contract(config).unwrap();
//! assert_eq!(out.matrix().structure().rows(), 5);
//! assert_eq!(out.matrix().structure().cols(), 6);
//! ```

pub use bst_chem as chem;
pub use bst_contract as contract;
pub use bst_runtime as runtime;
pub use bst_sim as sim;
pub use bst_sparse as sparse;
pub use bst_tile as tile;
