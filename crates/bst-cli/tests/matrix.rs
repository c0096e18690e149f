//! The generated correctness matrix — the one oracle for the paper's §4
//! claim that a single generic PTG computes the same `C` for any shape,
//! grid, transport and delivery order.
//!
//! A **class** is what fixes the plan, and with it the floating-point
//! evaluation order: the synthetic instance (`m × n × k : density`, seed),
//! the grid (`nodes`, `p | nodes`), `gpus` per node and the device memory.
//! `node_size` is *outside* the class: it sets the link class of each hop,
//! never a sum — every `C(i, j)` is folded on the one rank that produces it
//! and leaves that rank as is. Every class
//! runs its channel / in-order / flat baseline plus variants drawn over
//! transport {channel, mesh, uds, tcp} × delivery ×
//! `node_size | nodes` × link shaping × transient faults × tracing, one
//! lossy (`tol > 0`) variant, and — one class in four — the kill drill.
//! Two rules judge every run:
//!
//! 1. it is ≤ 1e-10 from the dense reference (a lossy run: within the
//!    CLI's `50·tol` relative Frobenius bound);
//! 2. any two `tol == 0`, no-dead-node runs of one class are **bit
//!    identical** (`max_abs_diff == 0.0`).
//!
//! The proptest shim does not shrink: a failure prints the offending
//! [`Config`] as a Rust literal — paste it into [`REGRESSIONS`], which
//! replays before the generated classes.
//!
//! Worker processes only learn what the job text carries (instance, grid,
//! `gpus`, `node_size`, the tolerance and a reorder seed with a fixed window
//! of 8) and always get the CLI's 16 GiB devices, so the strategy draws
//! shaping, faults and small devices for the in-process transports only;
//! tracing is drawn on the channel transport only, because a rank's own
//! trace lacks the `Sent` half of every frame it received from another rank.

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

use bst_cli::{build_problem, launch_config, planner_config, relative_frobenius_error, run_launch};
use bst_contract::engine::{execute, execute_rank};
use bst_contract::{
    validate_trace_invariants, ExecOptions, ExecReport, ExecutionPlan, FaultPlan, LinkShaper,
};
use bst_runtime::comm::DeliveryPolicy::{self, *};
use bst_runtime::comm::{Wire, WireError, WireFrame};
use bst_sparse::matrix::{random_b_gen, tile_seed};
use bst_sparse::BlockSparseMatrix;
use proptest::prelude::*;
use Transport::*;

/// How the ranks of one run talk to each other.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Transport {
    /// `engine::execute`: every rank a thread group of this process, frames
    /// over the fabric's bounded channels.
    Channel,
    /// `engine::execute_rank` per rank over an in-process [`MeshWire`]: the
    /// SPMD restriction without sockets.
    Mesh,
    /// Real `bst worker` processes over Unix-domain sockets.
    Uds,
    /// Real `bst worker` processes over loopback TCP.
    Tcp,
}

/// One cell of the matrix: a class (first block) and a variant (second).
#[derive(Clone, Copy, Debug, PartialEq)]
struct Config {
    m: u64,
    n: u64,
    k: u64,
    density: f64,
    seed: u64,
    nodes: usize,
    p: usize,
    gpus: usize,
    /// Bytes per device; [`CLI_GPU_MEM`] wherever a fleet runs.
    gpu_mem: u64,

    node_size: usize,
    transport: Transport,
    delivery: DeliveryPolicy,
    /// Summit NIC + NVLink-class link shapers on (in-process only).
    shaped: bool,
    /// Seed of an 8% transient `FaultPlan` (in-process only).
    faults: Option<u64>,
    /// Trace the run and validate the invariants (channel only).
    traced: bool,
    tol: f64,
    /// `(rank, die_after)`: the SIGKILL drill (process transports only).
    kill: Option<(usize, u64)>,
}

/// The device memory `bst_cli::planner_config` gives every run, and so the
/// only one a worker process can have.
const CLI_GPU_MEM: u64 = 16 << 30;

/// Replayed before the generated classes: counterexamples the matrix
/// printed, and the hand-written legs it replaced whose grids the strategy
/// does not reach.
const REGRESSIONS: &[Config] = &[
    // The hand-written leg this file replaced for 8 ranks on 2-rank
    // physical nodes: seven ranks' C tiles and the A-broadcast hops are
    // delivered in a scrambled order.
    Config {
        m: 160,
        n: 640,
        k: 640,
        density: 0.6,
        seed: 42,
        nodes: 8,
        p: 1,
        gpus: 2,
        gpu_mem: CLI_GPU_MEM,
        node_size: 2,
        transport: Channel,
        delivery: Reorder { seed: 0xD00D, window: 7 },
        shaped: false,
        faults: None,
        traced: false,
        tol: 0.0,
        kill: None,
    },
    // PR 10's lane-starvation deadlock: SPMD restriction on a 2x2 grid,
    // every rank blocking on deliveries while its peers wait on its sends.
    Config {
        m: 100,
        n: 800,
        k: 800,
        density: 0.6,
        seed: 7,
        nodes: 4,
        p: 2,
        gpus: 2,
        gpu_mem: CLI_GPU_MEM,
        node_size: 1,
        transport: Mesh,
        delivery: Reorder { seed: 99, window: 8 },
        shaped: false,
        faults: None,
        traced: false,
        tol: 0.0,
        kill: None,
    },
];

impl Config {
    /// The class's baseline: channel transport, in-order, one rank per
    /// physical node, nothing else on.
    fn baseline(&self) -> Config {
        Config {
            node_size: 1,
            transport: Channel,
            delivery: InOrder,
            shaped: false,
            faults: None,
            traced: false,
            tol: 0.0,
            kill: None,
            ..*self
        }
    }

    /// Whether rule 2 covers this run.
    fn promises_bit_identity(&self) -> bool {
        self.tol == 0.0 && self.kill.is_none()
    }

    /// The `bst launch` command line of this cell — what a process run
    /// executes, and where the in-process runs take the identical problem,
    /// seeds and planner configuration from.
    fn cli(&self) -> bst_cli::Cli {
        let Config { m, n, k, density, .. } = *self;
        let mut line = format!(
            "launch --synthetic {m}x{n}x{k}:{density} -n {} --p {} --gpus {} --node-size {} \
--seed {} --tolerance {}",
            self.nodes, self.p, self.gpus, self.node_size, self.seed, self.tol
        );
        match self.transport {
            Uds => line.push_str(" --transport uds"),
            Tcp => line.push_str(" --transport tcp"),
            Channel | Mesh => {}
        }
        if let (Uds | Tcp, Reorder { seed, .. }) = (self.transport, self.delivery) {
            line.push_str(&format!(" --reorder {seed}"));
        }
        if let Some((rank, die_after)) = self.kill {
            line.push_str(&format!(" --kill {rank} --die-after {die_after}"));
        }
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        bst_cli::parse(&args).unwrap_or_else(|e| panic!("{self:?}: {e}"))
    }

    fn exec_options(&self) -> ExecOptions {
        let mut builder = ExecOptions::builder()
            .node_size(self.node_size)
            .compress_tol(self.tol)
            .delivery(self.delivery)
            .tracing(self.traced);
        if self.shaped {
            builder = builder
                .link_shaper(LinkShaper::summit_nic())
                .intra_shaper(LinkShaper::summit_intra());
        }
        if let Some(seed) = self.faults {
            builder = builder.fault_plan(FaultPlan::transient(seed, 0.08));
        }
        builder.build()
    }
}

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
        peer.send(Some(frame)).map_err(|_| WireError { dst, reason: "peer hung up".into() })
    }

    fn recv(&self) -> Option<WireFrame> {
        self.rx.lock().unwrap().recv().ok().flatten()
    }

    fn close_inbound(&self) {
        let _ = self.tx.send(None);
    }
}

/// A fully-connected mesh of `n` wires.
fn mesh(n: usize) -> Vec<Arc<dyn Wire>> {
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..n).map(|_| channel()).unzip();
    receivers
        .into_iter()
        .enumerate()
        .map(|(rank, rx)| {
            let peers = (0..n).filter(|&r| r != rank).map(|r| (r, senders[r].clone())).collect();
            Arc::new(MeshWire { peers, tx: senders[rank].clone(), rx: Mutex::new(rx) })
                as Arc<dyn Wire>
        })
        .collect()
}

/// Runs one cell and returns the assembled `C`. The gates a single run can
/// be held to on its own are asserted here: a traced run's invariants, a
/// faulted run's recovery, a fleet's attempt count, written-off rank and
/// frames on the wire.
fn run(cfg: &Config) -> BlockSparseMatrix {
    let carried = match cfg.transport {
        Channel => cfg.kill.is_none(),
        Mesh => cfg.kill.is_none() && !cfg.traced,
        Uds | Tcp => {
            !(cfg.shaped || cfg.traced || cfg.faults.is_some())
                && cfg.gpu_mem == CLI_GPU_MEM
                && matches!(cfg.delivery, InOrder | Reorder { window: 8, .. })
        }
    };
    assert!(carried, "{cfg:?} sets an axis its transport cannot carry (see the module docs)");
    let cli = cfg.cli();
    if matches!(cfg.transport, Uds | Tcp) {
        let worker = vec![env!("CARGO_BIN_EXE_bst").to_string(), "worker".into()];
        let lc = launch_config(&cli, worker).unwrap_or_else(|e| panic!("{cfg:?}: {e}"));
        let report = run_launch(&cli, &lc).unwrap_or_else(|e| panic!("{cfg:?}: {e}"));
        let (attempts, dead) = match cfg.kill {
            Some((rank, _)) => (2, Some(rank)),
            None => (1, None),
        };
        assert_eq!(report.outcome.attempts, attempts, "fleet attempts of {cfg:?}");
        assert_eq!(report.outcome.recovered_dead, dead, "written-off rank of {cfg:?}");
        let sent: u64 = report.outcome.stats.iter().map(|s| s.sent_msgs).sum();
        let recv: u64 = report.outcome.stats.iter().map(|s| s.recv_msgs).sum();
        // Only A tiles cross between ranks, and only along a grid row wider
        // than one rank; each one sent is received.
        assert!(cfg.nodes == cfg.p || sent > 0, "{cfg:?} moved no frames over the wire");
        assert_eq!(sent, recv, "frames sent and received by {cfg:?}");
        return report.c;
    }

    let (spec, _) = build_problem(&cli).unwrap_or_else(|e| panic!("{cfg:?}: {e}"));
    let mut config = planner_config(&cli);
    assert_eq!(config.device.gpu_mem_bytes, CLI_GPU_MEM);
    config.device.gpu_mem_bytes = cfg.gpu_mem;
    let plan = ExecutionPlan::build(&spec, config).unwrap_or_else(|e| panic!("{cfg:?}: {e}"));
    let a = BlockSparseMatrix::random_from_structure(spec.a.clone(), cfg.seed);
    let b_gen = random_b_gen(cfg.seed ^ 0xB);
    let opts = cfg.exec_options();
    // Per rank `(C, report)`: the whole C in-process, each rank's own share
    // of it over the mesh.
    let ranks: Vec<(BlockSparseMatrix, ExecReport)> = if cfg.transport == Channel {
        vec![execute(&spec, &plan, &a, &b_gen, opts).unwrap_or_else(|e| panic!("{cfg:?}: {e}"))]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = mesh(cfg.nodes)
                .into_iter()
                .enumerate()
                .map(|(rank, wire)| {
                    let (spec, plan, a, b_gen) = (&spec, &plan, &a, &b_gen);
                    s.spawn(move || execute_rank(spec, plan, a, b_gen, opts, rank, wire))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank panicked"))
                .collect::<Result<Vec<_>, _>>()
                .unwrap_or_else(|e| panic!("{cfg:?}: {e}"))
        })
    };
    if cfg.traced {
        let violations = validate_trace_invariants(&ranks[0].1, cfg.gpu_mem);
        assert!(violations.is_empty(), "{cfg:?}: {violations:?}");
    }
    if cfg.faults.is_some() {
        assert!(ranks.iter().any(|(_, r)| r.recovery.any()), "{cfg:?}: no fault fired");
    }
    let mut shares = ranks.into_iter().map(|(c, _)| c);
    let mut c = shares.next().expect("at least one rank");
    for share in shares {
        let before = c.num_tiles() + share.num_tiles();
        for ((i, j), tile) in share.into_tiles() {
            c.insert_tile(i, j, tile);
        }
        assert_eq!(c.num_tiles(), before, "{cfg:?}: two ranks returned one C key");
    }
    c
}

/// The dense reference of `cfg`'s class.
fn reference(cfg: &Config) -> BlockSparseMatrix {
    let (spec, _) = build_problem(&cfg.cli()).unwrap_or_else(|e| panic!("{cfg:?}: {e}"));
    let a = BlockSparseMatrix::random_from_structure(spec.a.clone(), cfg.seed);
    let b = BlockSparseMatrix::from_structure(spec.b.clone(), |k, j, r, c| {
        bst_tile::Tile::random(r, c, tile_seed(cfg.seed ^ 0xB, k, j))
    });
    let mut c_ref =
        BlockSparseMatrix::zeros(spec.a.row_tiling().clone(), spec.b.col_tiling().clone());
    c_ref.gemm_acc_reference(&a, &b);
    c_ref
}

/// Runs every cell of one class and applies both rules.
fn check_class(runs: &[Config]) {
    let c_ref = reference(&runs[0]);
    let results: Vec<BlockSparseMatrix> = runs.iter().map(run).collect();
    for (cfg, c) in runs.iter().zip(&results) {
        assert_eq!(cfg.baseline(), runs[0].baseline(), "one class per call");
        if cfg.tol > 0.0 {
            let rel = relative_frobenius_error(c, &c_ref);
            assert!(rel <= 50.0 * cfg.tol, "rule 1 (lossy): relative error {rel:e}\n  {cfg:?},");
        } else {
            let diff = c.max_abs_diff(&c_ref);
            assert!(diff <= 1e-10, "rule 1: {diff:e} from the dense reference\n  {cfg:?},");
        }
    }
    let exact: Vec<usize> = (0..runs.len()).filter(|&i| runs[i].promises_bit_identity()).collect();
    for (n, &i) in exact.iter().enumerate() {
        for &j in &exact[n + 1..] {
            let diff = results[i].max_abs_diff(&results[j]);
            assert!(
                diff == 0.0,
                "rule 2: two runs of one class differ by {diff:e}\n  {:?},\n  {:?},",
                runs[i],
                runs[j]
            );
        }
    }
}

/// What a class runs beside its in-process variants.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// A uds and a tcp fleet.
    Fleets,
    /// The fleets, plus one with a rank SIGKILLed mid-broadcast; the grid
    /// keeps a surviving row peer (`p < nodes`).
    Drill,
    /// No fleet (the CLI fixes a worker's device memory): devices so small
    /// that B columns split along `k`, so a rank holds several partials per
    /// C tile and its `ReduceC`'s sorted fold is what fixes the bits.
    Tight,
}

/// `pick`-th (mod the count) divisor of `n` that is at most `max`.
fn divisor(n: usize, max: usize, pick: usize) -> usize {
    let divisors: Vec<usize> = (1..=max).filter(|d| n % d == 0).collect();
    divisors[pick % divisors.len()]
}

/// One class: its baseline first, then the variants. The four `tol == 0`
/// variants are stratified so every class reaches every toggle: the traced
/// channel variant draws a subset of {reorder, shaped, faults} and the mesh
/// variant takes the complement; of the two fleets (in a [`Kind::Tight`]
/// class: a mesh and a channel run) one reorders, the other does not.
fn class(kind: Kind) -> impl Strategy<Value = Vec<Config>> {
    let instance = (40u64..=160, 240u64..=960, 240u64..=960, 3u32..=10, 0u64..1000);
    let first_grid = if kind == Kind::Drill { 1 } else { 0 };
    let grid = (first_grid..5usize, 0usize..8, 1usize..=2, 0usize..8);
    let toggles = (0u8..8, 0u64..1000, 2usize..=8, 0u64..1000);
    let fleets = (0u8..2, 0u64..1000);
    let lossy = (0usize..4, 0usize..3);
    let kill = (0usize..8, 1u64..=3);
    (instance, grid, toggles, fleets, lossy, kill).prop_map(
        move |(
            (m, n, k, tenths, seed),
            (nodes, p_pick, gpus, size_pick),
            (on, reorder_seed, window, fault_seed),
            (first_reorders, fleet_seed),
            (lossy_via, lossy_tol),
            (kill_pick, die_after),
        )| {
            let nodes = [1, 2, 3, 4, 6][nodes];
            let max_p = if kind == Kind::Drill { nodes - 1 } else { nodes };
            // Tiles are 4..=16 wide at these `m`: a tight device's block
            // budget (half its memory) holds one C column and two B tiles.
            let gpu_mem =
                if kind == Kind::Tight { 2 * (m * 16 * 8 + 2 * 16 * 16 * 8) } else { CLI_GPU_MEM };
            let base = Config {
                m,
                n,
                k,
                density: f64::from(tenths) / 10.0,
                seed,
                nodes,
                p: divisor(nodes, max_p, p_pick),
                gpus,
                gpu_mem,
                node_size: 1,
                transport: Channel,
                delivery: InOrder,
                shaped: false,
                faults: None,
                traced: false,
                tol: 0.0,
                kill: None,
            };
            let toggled = |transport, on: u8| Config {
                transport,
                delivery: if on & 1 != 0 {
                    Reorder { seed: reorder_seed, window }
                } else {
                    InOrder
                },
                shaped: on & 2 != 0,
                faults: (on & 4 != 0).then_some(fault_seed),
                traced: transport == Channel,
                ..base
            };
            let fleet = |transport, reorders: bool| Config {
                transport,
                delivery: if reorders { Reorder { seed: fleet_seed, window: 8 } } else { InOrder },
                ..base
            };
            let (first, second) = if kind == Kind::Tight { (Mesh, Channel) } else { (Uds, Tcp) };
            let mut runs = vec![
                base,
                toggled(Channel, on),
                toggled(Mesh, !on & 7),
                fleet(first, first_reorders == 1),
                fleet(second, first_reorders == 0),
                Config {
                    transport: [Channel, Mesh, first, second][lossy_via],
                    tol: [1e-6, 1e-4, 1e-3][lossy_tol],
                    ..base
                },
            ];
            if kind == Kind::Drill {
                runs.push(Config {
                    transport: Uds,
                    kill: Some((1 + kill_pick % (nodes - 1), die_after)),
                    ..base
                });
            }
            // Every variant takes the next divisor of `nodes` as its
            // `node_size`, so a class compares all of them.
            for (r, run) in runs.iter_mut().enumerate().skip(1) {
                run.node_size = divisor(nodes, nodes, size_pick + r);
            }
            runs
        },
    )
}

proptest! {
    // One case is one whole matrix: four groups of four classes.
    #![proptest_config(ProptestConfig::with_cases(1))]

    #[test]
    fn every_run_matches_the_reference_and_its_class(
        matrix in prop::collection::vec(
            (class(Kind::Drill), class(Kind::Tight), class(Kind::Fleets), class(Kind::Fleets)),
            4..5,
        )
    ) {
        for cfg in REGRESSIONS {
            check_class(&[cfg.baseline(), *cfg]);
        }
        let classes: Vec<&Vec<Config>> =
            matrix.iter().flat_map(|(a, b, c, d)| [a, b, c, d]).collect();
        for runs in &classes {
            check_class(runs);
        }
        // The coverage the matrix promises, whatever the seed drew.
        let count = |hit: &dyn Fn(&Config) -> bool| {
            classes.iter().flat_map(|runs| runs.iter()).filter(|cfg| hit(cfg)).count()
        };
        prop_assert!(classes.len() >= 16 && count(&|_| true) >= 64);
        for transport in [Channel, Mesh, Uds, Tcp] {
            prop_assert!(count(&|c| c.transport == transport) >= 8, "{transport:?}");
        }
        prop_assert!(count(&|c| c.delivery != InOrder) >= 8, "reorder");
        prop_assert!(count(&|c| c.shaped) >= 8, "shaped");
        prop_assert!(count(&|c| c.faults.is_some()) >= 8, "faults");
        prop_assert!(count(&|c| c.traced) >= 8, "traced");
        prop_assert!(count(&|c| c.tol > 0.0) >= 16, "lossy");
        prop_assert!(count(&|c| c.kill.is_some()) >= 4, "kill");
    }
}
