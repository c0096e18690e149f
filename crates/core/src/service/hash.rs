//! Structure hashing for the service's cache keys.
//!
//! Two caches key off these hashes:
//!
//! * the **plan cache** — keyed by [`plan_key`], a digest of everything
//!   [`ExecutionPlan::build_with`](crate::plan::ExecutionPlan::build_with)
//!   reads: both operands' tilings and nonzero patterns, the C shape,
//!   every [`PlannerConfig`] field, and the dead-node set. Tile *values*
//!   and screening-norm magnitudes are deliberately excluded — the planner
//!   reads neither, and norm drift is exactly what a CCSD-like solver's
//!   amplitudes do between sweeps, so hashing norms would defeat plan
//!   reuse in the very workload the cache exists for;
//! * the **B-tile cache** — namespaced by [`b_ident`], a digest of the B
//!   operand's structure mixed with a caller-chosen key, so two logically
//!   different operands with identical structure (different generators!)
//!   never alias each other's tiles.
//!
//! The digest is 64-bit FNV-1a. Floating-point inputs (the config's memory
//! fractions) are hashed by their IEEE-754 bit patterns, so any observable
//! change to the value changes the hash.

use bst_sparse::{MatrixStructure, SparseShape};

use crate::config::{AssignPolicy, PlannerConfig};
use crate::spec::ProblemSpec;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental 64-bit FNV-1a digest.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Digest {
    /// A fresh digest at the FNV offset basis.
    pub fn new() -> Self {
        Digest(FNV_OFFSET)
    }

    /// Folds one `u64` into the digest, byte by byte.
    pub fn push(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// The digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

fn push_shape(d: &mut Digest, shape: &SparseShape) {
    d.push(shape.rows() as u64);
    d.push(shape.cols() as u64);
    // The nonzero pattern only — deliberately NOT the norm values. The
    // planner reads which tiles exist (and their sizes), never how large
    // their entries are, so two shapes differing only in norms produce
    // identical plans. That insensitivity is what lets an iterative solver
    // reuse one cached plan while its amplitude norms drift sweep to sweep;
    // a tile appearing or vanishing (screening) still moves the hash.
    for (r, c) in shape.iter_nonzero() {
        d.push(r as u64);
        d.push(c as u64);
    }
}

/// Folds one operand's complete block structure into `d`.
fn push_structure(d: &mut Digest, s: &MatrixStructure) {
    d.push(s.row_tiling().num_tiles() as u64);
    for sz in s.row_tiling().sizes() {
        d.push(sz);
    }
    d.push(s.col_tiling().num_tiles() as u64);
    for sz in s.col_tiling().sizes() {
        d.push(sz);
    }
    push_shape(d, s.shape());
}

/// Digest of one operand's block structure (tilings and nonzero pattern;
/// norm *values* are excluded — the planner never reads them).
pub fn structure_hash(s: &MatrixStructure) -> u64 {
    let mut d = Digest::new();
    push_structure(&mut d, s);
    d.finish()
}

fn assign_tag(p: AssignPolicy) -> u64 {
    match p {
        AssignPolicy::MirroredCyclic => 1,
        AssignPolicy::Cyclic => 2,
        AssignPolicy::Lpt => 3,
    }
}

/// Folds every [`PlannerConfig`] field the planner reads into `d`.
fn push_config(d: &mut Digest, cfg: &PlannerConfig) {
    d.push(cfg.grid.p as u64);
    d.push(cfg.grid.q as u64);
    d.push(cfg.device.gpus_per_node as u64);
    d.push(cfg.device.gpu_mem_bytes);
    d.push(cfg.block_mem_fraction.to_bits());
    d.push(cfg.chunk_mem_fraction.to_bits());
    d.push(assign_tag(cfg.assign_policy));
    d.push(cfg.prefetch_depth as u64);
}

/// Folds a full problem spec into `d`: both operands plus the optional C
/// shape.
fn push_spec(d: &mut Digest, spec: &ProblemSpec) {
    d.push(0xA5);
    push_structure(d, &spec.a);
    d.push(0xB5);
    push_structure(d, &spec.b);
    match &spec.c_shape {
        Some(cs) => {
            d.push(0xC5);
            push_shape(d, cs);
        }
        None => d.push(0xC0),
    }
}

/// The plan-cache key: spec structure + planner configuration + dead-node
/// set. Everything `ExecutionPlan::build_with` reads, nothing it doesn't.
pub fn plan_key(spec: &ProblemSpec, cfg: &PlannerConfig, dead_nodes: &[usize]) -> u64 {
    let mut d = Digest::new();
    push_spec(&mut d, spec);
    push_config(&mut d, cfg);
    d.push(dead_nodes.len() as u64);
    let mut dead: Vec<usize> = dead_nodes.to_vec();
    dead.sort_unstable();
    for n in dead {
        d.push(n as u64);
    }
    d.finish()
}

/// The B-tile cache namespace for one operand: its structure digest mixed
/// with the caller's `b_key` (which distinguishes generators the structure
/// cannot) and the compression tolerance (a tile truncated at `1e-4` must
/// never satisfy a request for the dense original or a different tolerance).
pub fn b_ident(b: &MatrixStructure, b_key: u64, compress_tol: f64) -> u64 {
    let mut d = Digest::new();
    push_structure(&mut d, b);
    d.push(0x1DE7);
    d.push(b_key);
    d.push(compress_tol.to_bits());
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bst_tile::tiling::Tiling;

    fn structure(seed: u64) -> MatrixStructure {
        let rows = Tiling::from_sizes(&[4, 6]);
        let cols = Tiling::from_sizes(&[5, 3, 2]);
        let mut shape = SparseShape::dense(2, 3);
        shape.set_norm(0, 1, 0.25 + seed as f32);
        MatrixStructure::new(rows, cols, shape)
    }

    #[test]
    fn structure_hash_is_deterministic_and_sensitive() {
        assert_eq!(structure_hash(&structure(0)), structure_hash(&structure(0)));
        // Norm *magnitudes* are not part of the hash: the planner never
        // reads them, and solver iterations drift them every sweep.
        assert_eq!(structure_hash(&structure(0)), structure_hash(&structure(1)));
        // Zeroing one tile changes the nonzero pattern.
        let mut z = structure(0);
        z.shape_mut().zero_out(1, 2);
        assert_ne!(structure_hash(&structure(0)), structure_hash(&z));
    }

    #[test]
    fn plan_key_tracks_dead_nodes_order_insensitively() {
        let a = structure(0);
        let b = MatrixStructure::dense(
            a.col_tiling().clone(),
            Tiling::from_sizes(&[4, 4]),
        );
        let spec = ProblemSpec::new(a, b, None);
        let cfg = PlannerConfig::paper(
            crate::config::GridConfig { p: 1, q: 2 },
            crate::config::DeviceConfig { gpus_per_node: 1, gpu_mem_bytes: 1 << 20 },
        );
        let healthy = plan_key(&spec, &cfg, &[]);
        let degraded = plan_key(&spec, &cfg, &[1]);
        assert_ne!(healthy, degraded);
        assert_eq!(plan_key(&spec, &cfg, &[1, 0]), plan_key(&spec, &cfg, &[0, 1]));
    }

    #[test]
    fn b_ident_mixes_caller_key() {
        let b = structure(0);
        assert_ne!(b_ident(&b, 1, 0.0), b_ident(&b, 2, 0.0));
        assert_eq!(b_ident(&b, 7, 0.0), b_ident(&structure(0), 7, 0.0));
    }

    #[test]
    fn b_ident_mixes_compression_tolerance() {
        let b = structure(0);
        assert_ne!(b_ident(&b, 7, 0.0), b_ident(&b, 7, 1e-4));
        assert_ne!(b_ident(&b, 7, 1e-4), b_ident(&b, 7, 1e-6));
        assert_eq!(b_ident(&b, 7, 1e-4), b_ident(&structure(0), 7, 1e-4));
    }
}
