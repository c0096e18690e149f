//! The SPMD door's argument checks. (The runs themselves — every rank on
//! `engine::execute_rank` over an in-process mesh, bit-identical to the
//! single-process channel run — are the `Mesh` transport of the generated
//! matrix, `crates/bst-cli/tests/matrix.rs`.)

use std::sync::Arc;

use bst_contract::engine::execute_rank;
use bst_contract::{
    DeviceConfig, ExecError, ExecOptions, ExecutionPlan, GridConfig, PlannerConfig, ProblemSpec,
};
use bst_runtime::comm::{Wire, WireError, WireFrame};
use bst_sparse::generate::{generate, SyntheticParams};
use bst_sparse::BlockSparseMatrix;

/// A wire no frame may reach: the rank check comes first.
struct NoWire;

impl Wire for NoWire {
    fn send(&self, frame: WireFrame) -> Result<(), WireError> {
        panic!("frame for rank {} sent before the rank check", frame.dst())
    }

    fn recv(&self) -> Option<WireFrame> {
        None
    }

    fn close_inbound(&self) {}
}

/// A rank outside the plan's grid is a typed error at the SPMD door, not a
/// panic in the worker process.
#[test]
fn out_of_grid_rank_is_a_typed_error() {
    let nodes = 2;
    let prob = generate(&SyntheticParams {
        m: 100,
        n: 800,
        k: 800,
        density: 0.6,
        tile_min: 16,
        tile_max: 64,
        seed: 7,
    });
    let spec = ProblemSpec::new(prob.a, prob.b, None);
    let config = PlannerConfig::paper(
        GridConfig::from_nodes(nodes, 2),
        DeviceConfig { gpus_per_node: 2, gpu_mem_bytes: 16 << 30 },
    );
    let plan = ExecutionPlan::build(&spec, config).expect("plan");
    let a = BlockSparseMatrix::random_from_structure(spec.a.clone(), 42);
    let b_gen = bst_sparse::matrix::random_b_gen(42 ^ 0xB);
    let wire = Arc::new(NoWire);
    let err = execute_rank(&spec, &plan, &a, &b_gen, ExecOptions::default(), nodes, wire)
        .unwrap_err();
    assert!(matches!(err, ExecError::InvalidRank { rank: 2, .. }), "got {err}");
}
