//! SPMD execution over an in-process wire mesh: every rank runs
//! `engine::execute_rank` on its own thread with a private
//! channel-backed `Wire`, and rank 0's assembled C must be bit-identical
//! to the single-process channel-transport run of the same problem.
//!
//! This pins the distributed path's correctness independently of sockets:
//! the `bst-net` transports only replace the channel hop these wires model.

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

use bst_contract::engine::{execute, execute_rank};
use bst_contract::{
    DeviceConfig, ExecError, ExecOptions, ExecutionPlan, GridConfig, PlannerConfig,
    ProblemSpec,
};
use bst_runtime::comm::{DeliveryPolicy, Wire, WireError, WireFrame};
use bst_sparse::generate::{generate, SyntheticParams};
use bst_sparse::BlockSparseMatrix;

/// One rank's endpoint of a full in-process mesh: sends go straight into
/// the destination rank's queue, receives drain this rank's own queue.
struct MeshWire {
    peers: HashMap<usize, Sender<Option<WireFrame>>>,
    tx: Sender<Option<WireFrame>>,
    rx: Mutex<Receiver<Option<WireFrame>>>,
}

impl Wire for MeshWire {
    fn send(&self, frame: WireFrame) -> Result<(), WireError> {
        let dst = frame.dst();
        let peer = self.peers.get(&dst).ok_or_else(|| WireError {
            dst,
            reason: "no such rank in the mesh".into(),
        })?;
        peer.send(Some(frame)).map_err(|_| WireError {
            dst,
            reason: "peer hung up".into(),
        })
    }

    fn recv(&self) -> Option<WireFrame> {
        self.rx.lock().unwrap().recv().ok().flatten()
    }

    fn close_inbound(&self) {
        let _ = self.tx.send(None);
    }
}

/// A fully-connected mesh of `n` wires.
fn mesh(n: usize) -> Vec<Arc<MeshWire>> {
    let endpoints: Vec<(Sender<Option<WireFrame>>, Receiver<Option<WireFrame>>)> =
        (0..n).map(|_| channel()).collect();
    let senders: Vec<Sender<Option<WireFrame>>> =
        endpoints.iter().map(|(tx, _)| tx.clone()).collect();
    endpoints
        .into_iter()
        .enumerate()
        .map(|(rank, (tx, rx))| {
            let peers = senders
                .iter()
                .enumerate()
                .filter(|&(r, _)| r != rank)
                .map(|(r, tx)| (r, tx.clone()))
                .collect();
            Arc::new(MeshWire { peers, tx, rx: Mutex::new(rx) })
        })
        .collect()
}

fn problem(nodes: usize) -> (ProblemSpec, PlannerConfig) {
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
    (spec, config)
}

/// Runs the problem SPMD over `nodes` mesh-wired "processes" (threads) and
/// returns rank 0's assembled C.
fn run_mesh(
    spec: &ProblemSpec,
    plan: &ExecutionPlan,
    nodes: usize,
    opts: &ExecOptions,
) -> BlockSparseMatrix {
    let wires = mesh(nodes);
    let a = BlockSparseMatrix::random_from_structure(spec.a.clone(), 42);
    let b_gen = bst_sparse::matrix::random_b_gen(42 ^ 0xB);
    std::thread::scope(|s| {
        let handles: Vec<_> = wires
            .iter()
            .enumerate()
            .map(|(rank, wire)| {
                let wire: Arc<dyn Wire> = Arc::clone(wire) as Arc<dyn Wire>;
                let (a, b_gen, opts) = (&a, &b_gen, opts.clone());
                s.spawn(move || {
                    execute_rank(spec, plan, a, b_gen, opts, rank, wire)
                        .expect("rank failed")
                })
            })
            .collect();
        let mut c0 = None;
        for (rank, h) in handles.into_iter().enumerate() {
            let (c, _report) = h.join().expect("rank panicked");
            if rank == 0 {
                c0 = Some(c);
            }
        }
        c0.expect("rank 0 ran")
    })
}

#[test]
fn mesh_run_is_bit_identical_to_single_process() {
    let nodes = 4;
    let (spec, config) = problem(nodes);
    let plan = ExecutionPlan::build(&spec, config).expect("plan");
    let a = BlockSparseMatrix::random_from_structure(spec.a.clone(), 42);
    let b_gen = bst_sparse::matrix::random_b_gen(42 ^ 0xB);
    let opts = ExecOptions::builder().build();
    let (c_ref, _) =
        execute(&spec, &plan, &a, &b_gen, opts.clone()).expect("reference");

    let c = run_mesh(&spec, &plan, nodes, &opts);
    assert_eq!(c.max_abs_diff(&c_ref), 0.0, "mesh run diverged");
}

#[test]
fn mesh_run_survives_delivery_reorder() {
    let nodes = 2;
    let (spec, config) = problem(nodes);
    let plan = ExecutionPlan::build(&spec, config).expect("plan");
    let a = BlockSparseMatrix::random_from_structure(spec.a.clone(), 42);
    let b_gen = bst_sparse::matrix::random_b_gen(42 ^ 0xB);
    let (c_ref, _) = execute(
        &spec,
        &plan,
        &a,
        &b_gen,
        ExecOptions::builder().build(),
    )
    .expect("reference");

    let reorder = ExecOptions::builder()
        .delivery(DeliveryPolicy::Reorder { seed: 99, window: 8 })
        .build();
    let c = run_mesh(&spec, &plan, nodes, &reorder);
    assert_eq!(c.max_abs_diff(&c_ref), 0.0, "reorder changed the result");
}

/// A rank outside the plan's grid is a typed error at the SPMD door, not a
/// panic in the worker process.
#[test]
fn out_of_grid_rank_is_a_typed_error() {
    let nodes = 2;
    let (spec, config) = problem(nodes);
    let plan = ExecutionPlan::build(&spec, config).expect("plan");
    let a = BlockSparseMatrix::random_from_structure(spec.a.clone(), 42);
    let b_gen = bst_sparse::matrix::random_b_gen(42 ^ 0xB);
    let wire: Arc<dyn Wire> = mesh(nodes).swap_remove(0);
    let err = execute_rank(&spec, &plan, &a, &b_gen, ExecOptions::default(), nodes, wire)
        .unwrap_err();
    assert!(matches!(err, ExecError::InvalidRank { rank: 2, .. }), "got {err}");
}
