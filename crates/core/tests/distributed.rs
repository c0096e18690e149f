//! The SPMD door's argument checks, and a rank's abort while its peer's
//! frames land. (The runs themselves — every rank on
//! `engine::execute_rank` over an in-process mesh, bit-identical to the
//! single-process channel run — are the `Mesh` transport of the generated
//! matrix, `crates/bst-cli/tests/matrix.rs`.)

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use bst_contract::engine::execute_rank;
use bst_contract::engine::inspector::{self, Op};
use bst_contract::{
    DeviceConfig, ExecError, ExecOptions, ExecutionPlan, GridConfig, PlannerConfig, ProblemSpec,
};
use bst_runtime::comm::{TileMsg, Wire, WireError, WireFrame};
use bst_runtime::data::DataKey;
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

/// A peer that is gone but whose frames are still in the socket: every send
/// fails, the first only once the pump took one frame, and the pump takes
/// the others only after that failure, so they land while the run aborts
/// and after it finished.
struct DyingPeer {
    frames: Mutex<VecDeque<WireFrame>>,
    handed_one: AtomicBool,
    took_first: (mpsc::SyncSender<()>, Mutex<Option<mpsc::Receiver<()>>>),
    failed: (mpsc::SyncSender<()>, Mutex<Option<mpsc::Receiver<()>>>),
    closed: AtomicBool,
}

impl Wire for DyingPeer {
    fn send(&self, frame: WireFrame) -> Result<(), WireError> {
        if let Some(took_first) = self.took_first.1.lock().unwrap().take() {
            let _ = took_first.recv();
            let _ = self.failed.0.try_send(());
        }
        Err(WireError { dst: frame.dst(), reason: "broken pipe".into() })
    }

    fn recv(&self) -> Option<WireFrame> {
        if self.closed.load(Ordering::SeqCst) {
            return None;
        }
        if !self.handed_one.swap(true, Ordering::SeqCst) {
            let _ = self.took_first.0.try_send(());
        } else if let Some(failed) = self.failed.1.lock().unwrap().take() {
            let _ = failed.recv();
        }
        self.frames.lock().unwrap().pop_front()
    }

    fn close_inbound(&self) {
        self.closed.store(true, Ordering::SeqCst);
        let _ = self.failed.0.try_send(());
    }
}

/// A fatal `SendA` aborts a rank while its peer's A tiles are still being
/// deposited: the rank returns the typed error, the deposits that land on
/// the finished run retire nothing and panic nowhere, and every progress
/// and pump thread the run started is joined.
#[test]
fn fatal_send_aborts_while_frames_land() {
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
        GridConfig::from_nodes(2, 1),
        DeviceConfig { gpus_per_node: 2, gpu_mem_bytes: 16 << 30 },
    );
    let plan = ExecutionPlan::build(&spec, config).expect("plan");
    let a = BlockSparseMatrix::random_from_structure(spec.a.clone(), 42);
    let b_gen = bst_sparse::matrix::random_b_gen(42 ^ 0xB);
    let opts = ExecOptions::default();
    // Every frame rank 1 would send rank 0.
    let low = inspector::lower(&spec, &plan, &opts);
    let frames: VecDeque<WireFrame> = (0..low.graph.len())
        .filter(|&id| low.graph.worker(id).node == 0)
        .filter_map(|id| match *low.graph.payload(id) {
            Op::RecvA { i, k, from } => Some(WireFrame::Tile {
                dst: 0,
                msg: TileMsg {
                    key: DataKey::A(i, k),
                    payload: Arc::clone(a.tile_arc(i as usize, k as usize)?),
                    epoch: 1,
                    src: from as usize,
                    consumers: low.a_consumers(0, (i, k)),
                },
            }),
            _ => None,
        })
        .collect();
    assert!(frames.len() > 2, "rank 0 receives {} tiles", frames.len());
    let sends = (0..low.graph.len()).filter(|&id| {
        low.graph.worker(id).node == 0 && matches!(low.graph.payload(id), Op::SendA { .. })
    });
    assert!(sends.count() > 0, "rank 0 sends nothing");
    let channel = || {
        let (tx, rx) = mpsc::sync_channel(1);
        (tx, Mutex::new(Some(rx)))
    };
    let wire = Arc::new(DyingPeer {
        frames: Mutex::new(frames),
        handed_one: AtomicBool::new(false),
        took_first: channel(),
        failed: channel(),
        closed: AtomicBool::new(false),
    });
    let err = execute_rank(&spec, &plan, &a, &b_gen, opts, 0, wire).unwrap_err();
    assert!(matches!(err, ExecError::Wire { dst: 1, .. }), "got {err}");
    // No progress or pump thread outlives the call, and the process holds
    // exactly the pool's workers, which persist by design. A scoped thread
    // whose closure returned may take a moment to leave the kernel's task
    // list, so a name still listed is given a few seconds to go.
    let running = |prefix: &str| -> Vec<String> {
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return Vec::new() };
        let names = tasks.flatten().map(|t| std::fs::read_to_string(t.path().join("comm")));
        names.flatten().filter(|name| name.starts_with(prefix)).collect()
    };
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while !running("n0.").is_empty() && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(running("n0."), Vec::<String>::new(), "threads outlived the run");
    if std::path::Path::new("/proc/self/task").exists() {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(running("bst.w").len(), cores, "the pool holds one worker per core");
    }
}
