#![warn(missing_docs)]

//! Command-line interface to the block-sparse contraction stack.
//!
//! ```text
//! bst info     --molecule alkane:65 --tiling v1        # problem traits (Table-1 style)
//! bst plan     --molecule alkane:40 --nodes 2          # inspector output & §3.2.4 stats
//! bst simulate --synthetic 48000x192000x192000:0.5 --nodes 16 [--gantt]
//! bst verify   --synthetic 300x2400x2400:0.5 --nodes 2 # numeric run vs reference
//! bst einsum   --synthetic 100x800x800:0.6             # spec-driven chain vs reference
//! ```
//!
//! The argument grammar is deliberately tiny (no external parser): every
//! subcommand accepts `--molecule KIND:ARGS` *or* `--synthetic MxNxK:D`,
//! plus machine flags. A flag only some subcommands read (`--gantt`,
//! `--trace`, `--faults`, ...) is an error on the others, never ignored.

use bst_chem::{CcsdProblem, Molecule, ProblemTraits, ScreeningParams, TilingSpec};
use bst_contract::{DeviceConfig, ExecutionPlan, GridConfig, PlannerConfig, ProblemSpec};
use bst_sim::replay::{simulate_traced, Trace};
use bst_sim::Platform;
use bst_sparse::generate::{generate, SyntheticParams};

pub mod net_run;

pub use net_run::{job_config_text, launch_config, run_launch, run_worker, NetRunReport};

/// The planner configuration every subcommand (and every worker of a
/// launched fleet) derives from the machine flags.
pub fn planner_config(cli: &Cli) -> PlannerConfig {
    PlannerConfig::paper(
        GridConfig::from_nodes(cli.opts.nodes, cli.p),
        DeviceConfig { gpus_per_node: cli.gpus, gpu_mem_bytes: 16 << 30 },
    )
}

/// Options shared by every numeric subcommand (`verify`/`einsum`/`serve`/
/// `launch`) — and by the `key=value` job text a launcher ships to its
/// workers. One parser serves both surfaces, so the flags can't drift
/// between subcommands.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunOpts {
    /// Node count (`--nodes`, or `-n` for `launch`).
    pub nodes: usize,
    /// Ranks per physical node: a hop between two of them is intra-node,
    /// any other inter-node (1 = every rank its own node).
    pub node_size: usize,
    /// Low-rank compression tolerance: operand tiles are truncated to
    /// `‖T − U·Vᵀ‖_F ≤ tol·‖T‖_F` on their way into the runtime. `0.0`
    /// (the default) keeps every tile dense and the result bit-identical
    /// to the uncompressed engine.
    pub tolerance: f64,
    /// Inject ~8% transient faults seeded from this value and verify the
    /// executor recovers.
    pub faults: Option<u64>,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts { nodes: 2, node_size: 1, tolerance: 0.0, faults: None }
    }
}

impl RunOpts {
    /// Consumes `flag` if it is one of the shared options, pulling its
    /// value from `get`. Returns `Ok(false)` when the flag is not shared
    /// (the caller reports it as unknown).
    pub fn accept(
        &mut self,
        flag: &str,
        get: impl FnOnce() -> Result<String, CliError>,
    ) -> Result<bool, CliError> {
        let key = match flag {
            "--nodes" | "-n" => "nodes",
            "--node-size" => "node-size",
            "--tolerance" => "tolerance",
            "--faults" => "faults",
            _ => return Ok(false),
        };
        let raw = get()?;
        self.set(key, &raw)
    }

    /// Applies one `key=value` pair (flag names without the leading `--`,
    /// as they appear in a launcher's job text). Returns `Ok(false)` for
    /// keys that are not shared options.
    pub fn set(&mut self, key: &str, raw: &str) -> Result<bool, CliError> {
        match key {
            "nodes" => {
                self.nodes = raw.parse().map_err(|_| err("bad --nodes"))?;
                if self.nodes == 0 {
                    return Err(err("--nodes must be >= 1"));
                }
            }
            "node-size" | "node_size" => {
                self.node_size = raw.parse().map_err(|_| err("bad --node-size"))?;
                if self.node_size == 0 {
                    return Err(err("--node-size must be >= 1"));
                }
            }
            "tolerance" => {
                self.tolerance = raw.parse().map_err(|_| err("bad --tolerance"))?;
                if !(self.tolerance >= 0.0 && self.tolerance < 1.0) {
                    return Err(err("--tolerance must be in [0, 1)"));
                }
            }
            "faults" => {
                self.faults = Some(raw.parse().map_err(|_| err("bad --faults seed"))?)
            }
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Cli {
    /// The subcommand.
    pub command: Command,
    /// Problem source.
    pub problem: ProblemKind,
    /// Tiling variant for chemistry problems.
    pub tiling: String,
    /// The options shared across the numeric subcommands.
    pub opts: RunOpts,
    /// Grid-row parameter `p`.
    pub p: usize,
    /// GPUs per node.
    pub gpus: usize,
    /// Print an ASCII Gantt (simulate only).
    pub gantt: bool,
    /// Write a Chrome-trace JSON of the numeric execution here (verify only).
    pub trace: Option<String>,
    /// Print the per-task-kind / per-device trace summary (verify only).
    pub trace_summary: bool,
    /// Concurrent client threads (serve only).
    pub clients: usize,
    /// Requests per client thread (serve only).
    pub requests: usize,
    /// RNG seed.
    pub seed: u64,
    /// This process's rank (worker only).
    pub rank: usize,
    /// Total worker ranks in the run (worker only).
    pub ranks: usize,
    /// The launcher's control address to dial (worker only).
    pub connect: Option<String>,
    /// Socket transport of a multi-process run: `uds` (default) or `tcp`.
    pub transport: String,
    /// Crash drill (launch only): arm one rank to SIGKILL itself mid-run
    /// and verify the fleet recovers via the degraded re-plan.
    pub kill: Option<usize>,
    /// Crash drill trigger: SIGKILL just before the n-th data-frame send
    /// (worker: armed directly; launch: forwarded to the `--kill` rank).
    pub die_after: Option<u64>,
    /// Delivery-reorder stressor seed for the workers' local fabrics
    /// (launch only): the socket run must stay bit-identical under it.
    pub reorder: Option<u64>,
}

/// The available subcommands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Command {
    /// Problem traits.
    Info,
    /// Build a plan and print its statistics.
    Plan,
    /// Replay a plan on the Summit model.
    Simulate,
    /// Execute numerically and verify against the reference.
    Verify,
    /// Smoke-test the persistent contraction service: concurrent clients
    /// submit the same contraction; plans and B tiles must be served from
    /// cache and every result must be bit-identical to the first.
    Serve,
    /// Smoke-test the einsum frontend: lower a two-term chain
    /// (`"ij,jk,kl->il"`, with the last factor generated on demand) into
    /// planned products and verify the result against the dense reference.
    Einsum,
    /// Run one rank of a multi-process execution: dial the launcher, join
    /// the worker mesh, execute this node's slice of the plan against a
    /// private `TileStore`, stream its share of C to the launcher.
    Worker,
    /// Spawn `-n P` worker processes over loopback sockets, run the job
    /// across them, and gate the assembled result bit-identically against
    /// the in-process channel transport.
    Launch,
}

/// The subcommands whose [`run`] arm reads `flag`, or `None` for the
/// problem and machine flags every subcommand takes. (A worker's tolerance
/// and reorder seed come from the launcher's job text, not from its argv.)
fn read_by(flag: &str) -> Option<&'static [&'static str]> {
    Some(match flag {
        "--gantt" => &["simulate"],
        "--trace" | "--trace-summary" | "--faults" => &["verify"],
        "--clients" | "--requests" => &["serve"],
        "--kill" | "--reorder" => &["launch"],
        "--die-after" => &["launch", "worker"],
        "--rank" | "--ranks" | "--connect" => &["worker"],
        "--tolerance" => &["verify", "einsum", "launch"],
        _ => return None,
    })
}

/// Where the problem comes from.
#[derive(Clone, Debug, PartialEq)]
pub enum ProblemKind {
    /// A generated molecule, e.g. `alkane:65`, `sheet:5x5`, `cluster:3`.
    Molecule(String),
    /// A §5.1 synthetic problem `MxNxK:density`.
    Synthetic {
        /// Element rows of A/C.
        m: u64,
        /// Element columns of B/C.
        n: u64,
        /// Inner dimension.
        k: u64,
        /// Element-wise density target.
        density: f64,
    },
}

/// Error with a user-facing message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Usage text.
pub const USAGE: &str = "usage: bst <info|plan|simulate|verify|serve|einsum|launch|worker> \
[--molecule KIND:ARGS | --synthetic MxNxK:D] [--tiling v1|v2|v3] \
[--nodes N] [--node-size S] [--p P] [--gpus G] [--seed S] [--gantt] \
[--trace FILE.json] [--trace-summary] [--faults SEED] \
[--clients N] [--requests M] [--tolerance T] \
[--transport uds|tcp] [--kill RANK] [--die-after K] [--reorder SEED] \
[--rank R --ranks N --connect ADDR]";

/// Parses an argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Cli, CliError> {
    let mut it = args.iter();
    let word = it.next().ok_or_else(|| err(USAGE))?.as_str();
    let command = match word {
        "info" => Command::Info,
        "plan" => Command::Plan,
        "simulate" => Command::Simulate,
        "verify" => Command::Verify,
        "serve" => Command::Serve,
        "einsum" => Command::Einsum,
        "worker" => Command::Worker,
        "launch" => Command::Launch,
        other => return Err(err(format!("unknown command {other}\n{USAGE}"))),
    };
    let mut cli = Cli {
        command,
        problem: ProblemKind::Molecule("alkane:20".into()),
        tiling: "v1".into(),
        opts: RunOpts::default(),
        p: 1,
        gpus: 6,
        gantt: false,
        trace: None,
        trace_summary: false,
        clients: 2,
        requests: 3,
        seed: 42,
        rank: 0,
        ranks: 1,
        connect: None,
        transport: "uds".into(),
        kill: None,
        die_after: None,
        reorder: None,
    };
    while let Some(flag) = it.next() {
        if let Some(readers) = read_by(flag).filter(|r| !r.contains(&word)) {
            return Err(err(format!(
                "{flag} is not a flag of `bst {word}` (only of {})",
                readers.join(", ")
            )));
        }
        let mut value = |name: &str| -> Result<String, CliError> {
            it.next()
                .cloned()
                .ok_or_else(|| err(format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--molecule" => cli.problem = ProblemKind::Molecule(value("--molecule")?),
            "--synthetic" => cli.problem = parse_synthetic(&value("--synthetic")?)?,
            "--tiling" => cli.tiling = value("--tiling")?,
            "--p" => cli.p = value("--p")?.parse().map_err(|_| err("bad --p"))?,
            "--gpus" => cli.gpus = value("--gpus")?.parse().map_err(|_| err("bad --gpus"))?,
            "--seed" => cli.seed = value("--seed")?.parse().map_err(|_| err("bad --seed"))?,
            "--gantt" => cli.gantt = true,
            "--trace" => cli.trace = Some(value("--trace")?),
            "--trace-summary" => cli.trace_summary = true,
            "--clients" => {
                cli.clients = value("--clients")?.parse().map_err(|_| err("bad --clients"))?
            }
            "--requests" => {
                cli.requests = value("--requests")?.parse().map_err(|_| err("bad --requests"))?
            }
            "--rank" => cli.rank = value("--rank")?.parse().map_err(|_| err("bad --rank"))?,
            "--ranks" => {
                cli.ranks = value("--ranks")?.parse().map_err(|_| err("bad --ranks"))?
            }
            "--connect" => cli.connect = Some(value("--connect")?),
            "--transport" => cli.transport = value("--transport")?,
            "--kill" => {
                cli.kill = Some(value("--kill")?.parse().map_err(|_| err("bad --kill"))?)
            }
            "--die-after" => {
                cli.die_after =
                    Some(value("--die-after")?.parse().map_err(|_| err("bad --die-after"))?)
            }
            "--reorder" => {
                cli.reorder =
                    Some(value("--reorder")?.parse().map_err(|_| err("bad --reorder seed"))?)
            }
            other => {
                if !cli.opts.accept(other, || value(other))? {
                    return Err(err(format!("unknown flag {other}\n{USAGE}")));
                }
            }
        }
    }
    check_grid(&cli)?;
    if let Some(rank) = cli.kill.filter(|&rank| rank >= cli.opts.nodes) {
        return Err(err(format!(
            "--kill must name a rank in 0..{} (the node count), got {rank}",
            cli.opts.nodes
        )));
    }
    if cli.die_after == Some(0) {
        return Err(err("--die-after must be >= 1 (the drill fires before the n-th send)"));
    }
    Ok(cli)
}

/// Rejects a process grid the planner would assert on or silently shrink:
/// `p` must divide `nodes` (the grid is `p x nodes/p`), and every node
/// needs at least one GPU.
pub(crate) fn check_grid(cli: &Cli) -> Result<(), CliError> {
    if cli.p == 0 || cli.opts.nodes % cli.p != 0 {
        return Err(err(format!(
            "--p must divide --nodes (the grid is p x nodes/p), got --p {} with --nodes {}",
            cli.p, cli.opts.nodes
        )));
    }
    if cli.gpus == 0 {
        return Err(err("--gpus must be >= 1"));
    }
    Ok(())
}

/// Parses a `MxNxK:density` synthetic-problem descriptor — the value of
/// `--synthetic`, also used in a launcher's `problem=synthetic:...` job
/// text.
pub fn parse_synthetic(v: &str) -> Result<ProblemKind, CliError> {
    let (dims, density) = v
        .split_once(':')
        .ok_or_else(|| err("--synthetic wants MxNxK:density"))?;
    let parts: Vec<&str> = dims.split('x').collect();
    if parts.len() != 3 {
        return Err(err("--synthetic wants MxNxK:density"));
    }
    // Tile sizes are clamped to the extent, so any extent >= 1 fits the
    // tile range `build_problem` derives from it.
    let parse_u = |s: &str| match s.parse::<u64>() {
        Ok(d) if d >= 1 => Ok(d),
        _ => Err(err(format!("bad dimension {s} (want an integer >= 1)"))),
    };
    let density = match density.parse::<f64>() {
        Ok(d) if d > 0.0 && d <= 1.0 => d,
        _ => return Err(err(format!("bad density {density} (want 0 < density <= 1)"))),
    };
    Ok(ProblemKind::Synthetic {
        m: parse_u(parts[0])?,
        n: parse_u(parts[1])?,
        k: parse_u(parts[2])?,
        density,
    })
}

/// Builds the molecule named by `spec` (`alkane:N`, `sheet:AxB`, `cluster:N`).
pub fn build_molecule(spec: &str) -> Result<Molecule, CliError> {
    let (kind, args) = spec
        .split_once(':')
        .ok_or_else(|| err("--molecule wants KIND:ARGS, e.g. alkane:65"))?;
    // The `Molecule` constructors assert on a zero extent.
    let extent = |s: &str, what: &str| match s.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(err(format!("{what}, an integer >= 1, got {s}"))),
    };
    match kind {
        "alkane" => Ok(Molecule::alkane(extent(args, "alkane wants a carbon count")?)),
        "sheet" => {
            let (a, b) = args
                .split_once('x')
                .ok_or_else(|| err("sheet wants AxB"))?;
            Ok(Molecule::sheet(
                extent(a, "sheet wants AxB dims")?,
                extent(b, "sheet wants AxB dims")?,
            ))
        }
        "cluster" => Ok(Molecule::cluster3d(extent(args, "cluster wants an edge count")?)),
        other => Err(err(format!("unknown molecule kind {other}"))),
    }
}

fn tiling_spec(name: &str) -> Result<TilingSpec, CliError> {
    match name {
        "v1" => Ok(TilingSpec::v1()),
        "v2" => Ok(TilingSpec::v2()),
        "v3" => Ok(TilingSpec::v3()),
        other => Err(err(format!("unknown tiling {other}"))),
    }
}

/// Materialises the problem spec (and its traits when chemistry-based).
pub fn build_problem(cli: &Cli) -> Result<(ProblemSpec, Option<CcsdProblem>), CliError> {
    match &cli.problem {
        ProblemKind::Molecule(m) => {
            let molecule = build_molecule(m)?;
            let spec_t = tiling_spec(&cli.tiling)?.scaled_for(&molecule);
            let problem =
                CcsdProblem::build(&molecule, spec_t, ScreeningParams::default(), cli.seed);
            let spec = ProblemSpec::new(
                problem.t.clone(),
                problem.v.clone(),
                Some(problem.r.shape().clone()),
            );
            Ok((spec, Some(problem)))
        }
        ProblemKind::Synthetic { m, n, k, density } => {
            let prob = generate(&SyntheticParams {
                m: *m,
                n: *n,
                k: *k,
                density: *density,
                tile_min: (*m / 40).clamp(4, 512),
                tile_max: (*m / 10).clamp(12, 2048),
                seed: cli.seed,
            });
            Ok((ProblemSpec::new(prob.a, prob.b, None), None))
        }
    }
}

/// Runs the parsed command, writing human-readable output to `out`.
pub fn run(cli: &Cli, out: &mut dyn std::io::Write) -> Result<(), Box<dyn std::error::Error>> {
    // The multi-process commands don't take their problem from argv: a
    // worker gets it from the launcher's job text, and `launch` builds it
    // inside its reference run. Dispatch before the spec preamble.
    match cli.command {
        Command::Worker => return net_run::run_worker(cli).map_err(Into::into),
        Command::Launch => return net_run::run_launch_cmd(cli, out),
        _ => {}
    }
    let (spec, chem) = build_problem(cli)?;
    let config = planner_config(cli);
    match cli.command {
        Command::Info => {
            writeln!(
                out,
                "A: {} x {} ({} tiles, {:.1}% dense)",
                spec.a.rows(),
                spec.a.cols(),
                spec.a.nnz_tiles(),
                spec.a.element_density() * 100.0
            )?;
            writeln!(
                out,
                "B: {} x {} ({} tiles, {:.1}% dense)",
                spec.b.rows(),
                spec.b.cols(),
                spec.b.nnz_tiles(),
                spec.b.element_density() * 100.0
            )?;
            if let Some(problem) = &chem {
                let traits = ProblemTraits::compute(problem);
                writeln!(out, "{}", traits.table_row(&cli.tiling))?;
            }
        }
        Command::Plan => {
            let plan = ExecutionPlan::build(&spec, config)?;
            let stats = plan.stats(&spec);
            writeln!(out, "grid {}x{}, {} GPUs/node", cli.p, cli.opts.nodes / cli.p, cli.gpus)?;
            writeln!(
                out,
                "tasks {} | flops {:.3e} | blocks {} | chunks {} | imbalance {:.3} (GPU {:.3})",
                stats.total_tasks,
                stats.total_flops as f64,
                stats.num_blocks,
                stats.num_chunks,
                stats.load_imbalance,
                stats.gpu_imbalance
            )?;
            writeln!(
                out,
                "A network {:.2} GB | C network {:.2} GB | B generated {:.2} GB | A h2d {:.2} GB",
                stats.a_network_bytes as f64 / 1e9,
                stats.c_network_bytes as f64 / 1e9,
                stats.b_generated_bytes as f64 / 1e9,
                stats.a_h2d_bytes as f64 / 1e9
            )?;
        }
        Command::Simulate => {
            let platform = {
                let mut p = Platform::summit(cli.opts.nodes);
                p.gpus_per_node = cli.gpus;
                p
            };
            let plan = ExecutionPlan::build(&spec, config)?;
            let mut trace = Trace::default();
            let report = simulate_traced(
                &spec,
                &plan,
                &platform,
                if cli.gantt { Some(&mut trace) } else { None },
            );
            writeln!(
                out,
                "makespan {:.3} s | {:.1} Tflop/s total | {:.2} Tflop/s per GPU",
                report.makespan_s,
                report.tflops(),
                report.tflops_per_gpu(platform.total_gpus())
            )?;
            writeln!(
                out,
                "bounds: compute {:.3} s | h2d {:.3} s | nic {:.3} s | bgen {:.3} s",
                report.compute_bound_s, report.h2d_bound_s, report.nic_bound_s, report.bgen_bound_s
            )?;
            if cli.gantt {
                write!(out, "{}", trace.gantt(report.makespan_s, 100))?;
            }
        }
        Command::Verify => {
            use bst_sparse::matrix::tile_seed;
            use bst_sparse::BlockSparseMatrix;
            let plan = ExecutionPlan::build(&spec, config)?;
            let a = BlockSparseMatrix::random_from_structure(spec.a.clone(), cli.seed);
            let seed = cli.seed ^ 0xB;
            let b_gen = bst_sparse::matrix::random_b_gen(seed);
            let mut builder = bst_contract::ExecOptions::builder()
                .tracing(cli.trace.is_some() || cli.trace_summary)
                .node_size(cli.opts.node_size)
                .compress_tol(cli.opts.tolerance);
            if let Some(fault_seed) = cli.opts.faults {
                builder = builder.fault_plan(bst_contract::FaultPlan::transient(fault_seed, 0.08));
            }
            let opts = builder.build();
            let (c, report) = bst_contract::engine::execute(&spec, &plan, &a, &b_gen, opts)?;
            if let Some(fault_seed) = cli.opts.faults {
                let r = &report.recovery;
                writeln!(
                    out,
                    "faults (seed {fault_seed}): {} injected, {} tasks retried over {} attempts (max {})",
                    r.injected_genb + r.injected_alloc + r.injected_send,
                    r.retried_tasks,
                    r.retry_attempts,
                    r.max_attempts
                )?;
            }
            let b = BlockSparseMatrix::from_structure(spec.b.clone(), |k, j, r, cc| {
                bst_tile::Tile::random(r, cc, tile_seed(seed, k, j))
            });
            let mut c_ref = BlockSparseMatrix::zeros(
                spec.a.row_tiling().clone(),
                spec.b.col_tiling().clone(),
            );
            c_ref.gemm_acc_reference(&a, &b);
            // Mask to the screened shape when present.
            if let Some(cs) = &spec.c_shape {
                let mut masked = BlockSparseMatrix::zeros(
                    spec.a.row_tiling().clone(),
                    spec.b.col_tiling().clone(),
                );
                for (&(i, j), t) in c_ref.iter_tiles() {
                    if cs.is_nonzero(i, j) {
                        masked.insert_tile(i, j, t.clone());
                    }
                }
                c_ref = masked;
            }
            let diff = c.max_abs_diff(&c_ref);
            writeln!(
                out,
                "executed {} GEMMs on {} simulated devices; max |C - C_ref| = {diff:.3e}",
                report.gemm_tasks,
                report.devices.len()
            )?;
            for (node, s) in report.comm.iter().enumerate() {
                writeln!(
                    out,
                    "node {node}: sent {} B / {} msgs ({} B inter-node), \
received {} B / {} msgs ({} B inter-node)",
                    s.sent_bytes,
                    s.sent_msgs,
                    s.inter_sent_bytes,
                    s.recv_bytes,
                    s.recv_msgs,
                    s.inter_recv_bytes
                )?;
            }
            if cli.trace_summary {
                write!(out, "{}", report.text_summary(plan.config.device.gpu_mem_bytes))?;
            }
            if let Some(path) = &cli.trace {
                let trace = report
                    .trace
                    .as_ref()
                    .expect("tracing was enabled for --trace");
                std::fs::write(path, trace.chrome_trace_json())?;
                writeln!(out, "wrote Chrome trace to {path} (open in chrome://tracing)")?;
                let gpu_mem = plan.config.device.gpu_mem_bytes;
                let violations = bst_contract::validate_trace_invariants(&report, gpu_mem);
                if !violations.is_empty() {
                    return Err(Box::new(err(format!(
                        "trace invariants violated:\n  {}",
                        violations.join("\n  ")
                    ))));
                }
                writeln!(out, "trace invariants OK ({} task records)", trace.records.len())?;
            }
            if cli.opts.tolerance > 0.0 {
                // Lossy run: gate on the relative Frobenius error instead of
                // the bitwise threshold. Per-tile truncation errors compound
                // through the k-sum, so the acceptance bound is a small
                // multiple of the requested tolerance.
                let rel = relative_frobenius_error(&c, &c_ref);
                writeln!(
                    out,
                    "compression tolerance {:.1e}: relative Frobenius error {rel:.3e}",
                    cli.opts.tolerance
                )?;
                if rel > cli.opts.tolerance * 50.0 {
                    return Err(Box::new(err("verification FAILED (compressed)")));
                }
            } else if diff > 1e-9 {
                return Err(Box::new(err("verification FAILED")));
            }
            writeln!(out, "verification OK")?;
        }
        Command::Serve => {
            use bst_contract::{ContractionRequest, ContractionService, ServiceConfig};
            use bst_sparse::BlockSparseMatrix;
            use std::sync::Arc;
            let a = Arc::new(BlockSparseMatrix::random_from_structure(spec.a.clone(), cli.seed));
            let seed = cli.seed ^ 0xB;
            let b_gen: bst_contract::ServiceBGen =
                Arc::new(bst_sparse::matrix::random_b_gen(seed));
            let service = ContractionService::start(ServiceConfig {
                workers: cli.clients.max(1),
                queue_capacity: (cli.clients * cli.requests).max(8),
                ..ServiceConfig::default()
            });
            let make_req = || ContractionRequest {
                a: Arc::clone(&a),
                b_structure: spec.b.clone(),
                b_gen: Arc::clone(&b_gen),
                b_key: cli.seed,
                c_shape: spec.c_shape.clone(),
                config,
                opts: bst_contract::ExecOptions::default(),
            };
            // One cold request pins the reference bytes, then the client
            // threads hammer the warm caches concurrently.
            let reference = service.run(make_req()).map_err(Box::new)?;
            let diverged = std::sync::atomic::AtomicU64::new(0);
            std::thread::scope(|scope| {
                for _ in 0..cli.clients {
                    scope.spawn(|| {
                        for _ in 0..cli.requests {
                            match service.run(make_req()) {
                                Ok(outcome)
                                    if outcome.c.max_abs_diff(&reference.c) != 0.0 =>
                                {
                                    diverged.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                }
                                Ok(_) => {}
                                Err(_) => {
                                    diverged.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                }
                            }
                        }
                    });
                }
            });
            service.shutdown();
            let stats = service.stats();
            let total = 1 + cli.clients * cli.requests;
            writeln!(
                out,
                "served {} requests ({} clients x {} + 1 cold)",
                total, cli.clients, cli.requests
            )?;
            writeln!(
                out,
                "plan cache: {} hits / {} misses | B cache: {} hits / {} misses, {} B regeneration saved",
                stats.plan_hits, stats.plan_misses, stats.b_hits, stats.b_misses, stats.b_bytes_saved
            )?;
            writeln!(
                out,
                "queue high-water {} | in-flight high-water {}",
                stats.queue_depth_highwater, stats.in_flight_highwater
            )?;
            let diverged = diverged.load(std::sync::atomic::Ordering::Relaxed);
            if diverged > 0 || stats.requests_failed > 0 {
                return Err(Box::new(err(format!(
                    "service smoke FAILED: {diverged} divergent, {} failed",
                    stats.requests_failed
                ))));
            }
            writeln!(out, "all warm results bit-identical to the cold run; service smoke OK")?;
        }
        Command::Einsum => {
            use bst_contract::einsum::Einsum;
            use bst_sparse::matrix::tile_seed;
            use bst_sparse::{BlockSparseMatrix, MatrixStructure};
            let a = BlockSparseMatrix::random_from_structure(spec.a.clone(), cli.seed);
            let b = BlockSparseMatrix::random_from_structure(spec.b.clone(), cli.seed ^ 0xB);
            // The third factor is generated on demand — the lowering must
            // keep it on the stationary B side of its product.
            let d_struct = MatrixStructure::dense(
                spec.b.col_tiling().clone(),
                spec.b.col_tiling().clone(),
            );
            let d_seed = cli.seed ^ 0xD;
            let d_gen = bst_sparse::matrix::random_b_gen(d_seed);
            let outcome = Einsum::new("ij,jk,kl->il")
                .operand(&a)
                .operand(&b)
                .on_demand(&d_struct, &d_gen)
                .tolerance(cli.opts.tolerance)
                .contract(config)?;
            writeln!(
                out,
                "lowered \"ij,jk,kl->il\" into {} planned products ({} GEMMs), output order {}",
                outcome.reports.len(),
                outcome.reports.iter().map(|r| r.gemm_tasks).sum::<u64>(),
                outcome.output_labels()
            )?;
            let d = BlockSparseMatrix::from_structure(d_struct.clone(), |k, j, r, cc| {
                bst_tile::Tile::random(r, cc, tile_seed(d_seed, k, j))
            });
            let mut ab = BlockSparseMatrix::zeros(
                spec.a.row_tiling().clone(),
                spec.b.col_tiling().clone(),
            );
            ab.gemm_acc_reference(&a, &b);
            let mut c_ref = BlockSparseMatrix::zeros(
                spec.a.row_tiling().clone(),
                d_struct.col_tiling().clone(),
            );
            c_ref.gemm_acc_reference(&ab, &d);
            let diff = outcome.matrix().max_abs_diff(&c_ref);
            writeln!(out, "max |C - C_ref| = {diff:.3e}")?;
            if cli.opts.tolerance > 0.0 {
                let rel = relative_frobenius_error(outcome.matrix(), &c_ref);
                writeln!(
                    out,
                    "compression tolerance {:.1e}: relative Frobenius error {rel:.3e}",
                    cli.opts.tolerance
                )?;
                if rel > cli.opts.tolerance * 50.0 {
                    return Err(Box::new(err("einsum smoke FAILED (compressed)")));
                }
            } else if diff > 1e-10 {
                return Err(Box::new(err("einsum smoke FAILED")));
            }
            writeln!(out, "einsum smoke OK")?;
        }
        // Dispatched before the spec preamble above.
        Command::Worker | Command::Launch => unreachable!(),
    }
    Ok(())
}

/// `‖X − R‖_F / ‖R‖_F` of two block-sparse matrices over the same element
/// extents — the accuracy measure the `--tolerance` smoke gates check the
/// compressed runs against. Densifies both sides; fine for smoke-sized
/// problems.
pub fn relative_frobenius_error(
    x: &bst_sparse::BlockSparseMatrix,
    r: &bst_sparse::BlockSparseMatrix,
) -> f64 {
    let xd = x.to_dense();
    let rd = r.to_dense();
    let (mut err2, mut ref2) = (0.0f64, 0.0f64);
    for i in 0..rd.rows() {
        for j in 0..rd.cols() {
            let d = xd.get(i, j) - rd.get(i, j);
            err2 += d * d;
            let v = rd.get(i, j);
            ref2 += v * v;
        }
    }
    if ref2 == 0.0 {
        if err2 == 0.0 { 0.0 } else { f64::INFINITY }
    } else {
        (err2 / ref2).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_info_defaults() {
        let cli = parse(&args("info")).unwrap();
        assert_eq!(cli.command, Command::Info);
        assert_eq!(cli.tiling, "v1");
        assert_eq!(cli.opts.nodes, 2);
    }

    #[test]
    fn parse_synthetic() {
        let cli = parse(&args("simulate --synthetic 48000x192000x192000:0.5 --nodes 16")).unwrap();
        assert_eq!(cli.command, Command::Simulate);
        assert_eq!(
            cli.problem,
            ProblemKind::Synthetic {
                m: 48_000,
                n: 192_000,
                k: 192_000,
                density: 0.5
            }
        );
        assert_eq!(cli.opts.nodes, 16);
    }

    #[test]
    fn parse_molecule_and_flags() {
        let cli =
            parse(&args("plan --molecule sheet:4x5 --tiling v2 --p 2 --gpus 4 --seed 9")).unwrap();
        assert_eq!(cli.problem, ProblemKind::Molecule("sheet:4x5".into()));
        assert_eq!(cli.tiling, "v2");
        assert_eq!(cli.p, 2);
        assert_eq!(cli.gpus, 4);
        assert_eq!(cli.seed, 9);
    }

    #[test]
    fn parse_errors() {
        assert!(parse(&args("")).is_err());
        assert!(parse(&args("frobnicate")).is_err());
        assert!(parse(&args("info --synthetic nope")).is_err());
        assert!(parse(&args("info --nodes")).is_err());
        assert!(parse(&args("info --bogus 3")).is_err());
    }

    /// Out-of-range values the planner and generators assert on are
    /// rejected at the door with a message, not a panic.
    #[test]
    fn parse_rejects_out_of_range_input() {
        for (line, want) in [
            ("plan --synthetic 100x800x800:0.6 --nodes 2 --p 3", "--p"),
            ("plan --synthetic 100x800x800:0.6 --p 0", "--p"),
            ("plan --synthetic 100x800x800:0.6 --nodes 4 --p 3", "--p 3 with --nodes 4"),
            ("verify --synthetic 100x800x800:0.6 --nodes 4 --p 3", "--p 3 with --nodes 4"),
            ("simulate --synthetic 100x800x800:0.6 --nodes 4 --p 3", "--p 3 with --nodes 4"),
            ("launch --synthetic 100x800x800:0.6 -n 4 --p 3", "--p 3 with --nodes 4"),
            ("verify --synthetic 100x800x800:0.6 --nodes 0", "--nodes"),
            ("launch --synthetic 100x800x800:0.6 -n 0", "--nodes"),
            ("plan --synthetic 100x800x800:0.6 --gpus 0", "--gpus"),
            ("plan --synthetic 0x800x800:0.6", "dimension"),
            ("plan --synthetic 100x800x800:1.5", "density"),
            ("launch --synthetic 100x800x800:0.6 -n 2 --kill 5", "--kill"),
            ("launch --synthetic 100x800x800:0.6 -n 2 --kill 1 --die-after 0", "--die-after"),
            // Flags the subcommand's `run` arm never reads.
            ("plan --trace x.json", "--trace is not a flag of `bst plan`"),
            ("launch -n 2 --trace-summary", "--trace-summary is not a flag of `bst launch`"),
            ("verify --gantt", "--gantt is not a flag of `bst verify`"),
            ("simulate --faults 3", "--faults is not a flag of `bst simulate`"),
            ("simulate --tolerance 0.1", "--tolerance is not a flag of `bst simulate`"),
            ("worker --tolerance 0.1", "--tolerance is not a flag of `bst worker`"),
            ("verify --clients 2", "--clients is not a flag of `bst verify`"),
            ("einsum --requests 2", "--requests is not a flag of `bst einsum`"),
            ("verify --kill 1", "--kill is not a flag of `bst verify`"),
            ("worker --reorder 5", "--reorder is not a flag of `bst worker`"),
            ("verify --die-after 2", "--die-after is not a flag of `bst verify`"),
            ("launch -n 2 --rank 1", "--rank is not a flag of `bst launch`"),
            ("verify --ranks 2", "--ranks is not a flag of `bst verify`"),
            ("launch -n 2 --connect /tmp/s", "--connect is not a flag of `bst launch`"),
        ] {
            let e = parse(&args(line)).expect_err(line);
            assert!(e.0.contains(want), "{line}: {}", e.0);
        }
    }

    #[test]
    fn build_molecules() {
        assert_eq!(build_molecule("alkane:5").unwrap().formula(), "C5H12");
        assert_eq!(build_molecule("sheet:2x3").unwrap().formula(), "C6H10");
        assert!(build_molecule("cluster:2").is_ok());
        assert!(build_molecule("dna:1").is_err());
        assert!(build_molecule("alkane").is_err());
        for zero in ["alkane:0", "sheet:0x3", "sheet:2x0", "cluster:0"] {
            let e = build_molecule(zero).expect_err(zero);
            assert!(e.0.contains(">= 1"), "{zero}: {}", e.0);
        }
    }

    #[test]
    fn run_info_molecule() {
        let cli = parse(&args("info --molecule alkane:8")).unwrap();
        let mut out = Vec::new();
        run(&cli, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("A: 625 x 40804"), "{s}");
        assert!(s.contains("v1:"), "{s}");
    }

    #[test]
    fn run_plan_synthetic() {
        let cli = parse(&args("plan --synthetic 200x1600x1600:0.5 --nodes 2")).unwrap();
        let mut out = Vec::new();
        run(&cli, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("tasks"), "{s}");
        let (spec, _) = build_problem(&cli).unwrap();
        let stats = ExecutionPlan::build(&spec, planner_config(&cli)).unwrap().stats(&spec);
        let (node, gpu) = (stats.load_imbalance, stats.gpu_imbalance);
        assert!(s.contains(&format!("imbalance {node:.3} (GPU {gpu:.3})")), "{s}");
        // A node's busiest GPU carries at least its share of the busiest
        // node, and the deal keeps the 6 GPUs of a node even.
        assert!((1.0..=gpu).contains(&node) && gpu < 1.1, "{s}");
    }

    #[test]
    fn run_simulate_with_gantt() {
        let cli =
            parse(&args("simulate --synthetic 2000x12000x12000:0.5 --nodes 2 --gantt")).unwrap();
        let mut out = Vec::new();
        run(&cli, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("makespan"), "{s}");
        assert!(s.contains("n00g0"), "{s}");
    }

    #[test]
    fn parse_trace_flags() {
        let cli = parse(&args(
            "verify --synthetic 100x800x800:0.6 --trace out.json --trace-summary",
        ))
        .unwrap();
        assert_eq!(cli.trace.as_deref(), Some("out.json"));
        assert!(cli.trace_summary);
        assert!(parse(&args("verify --trace")).is_err());
    }

    #[test]
    fn run_verify_with_trace_outputs() {
        let path = std::env::temp_dir().join("bst_cli_trace_test.json");
        let line = format!(
            "verify --synthetic 100x800x800:0.6 --nodes 2 --gpus 2 --trace {} --trace-summary",
            path.display()
        );
        let cli = parse(&args(&line)).unwrap();
        let mut out = Vec::new();
        run(&cli, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("verification OK"), "{s}");
        assert!(s.contains("trace summary:"), "{s}");
        assert!(s.contains("Gemm"), "{s}");
        assert!(s.contains("n0.g0"), "{s}");
        assert!(s.contains("wrote Chrome trace"), "{s}");
        assert!(s.contains("trace invariants OK ("), "{s}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.starts_with('['), "{json}");
        assert!(json.trim_end().ends_with(']'), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parse_faults_flag() {
        let cli = parse(&args("verify --synthetic 100x800x800:0.6 --faults 7")).unwrap();
        assert_eq!(cli.opts.faults, Some(7));
        assert!(parse(&args("verify --faults nope")).is_err());
        assert!(parse(&args("verify --faults")).is_err());
    }

    #[test]
    fn run_verify_with_faults_recovers() {
        let cli = parse(&args(
            "verify --synthetic 100x800x800:0.6 --nodes 2 --gpus 2 --faults 3",
        ))
        .unwrap();
        let mut out = Vec::new();
        run(&cli, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("faults (seed 3):"), "{s}");
        assert!(s.contains("verification OK"), "{s}");
    }

    #[test]
    fn parse_serve_flags() {
        let cli = parse(&args("serve --synthetic 100x800x800:0.6 --clients 3 --requests 5")).unwrap();
        assert_eq!(cli.command, Command::Serve);
        assert_eq!(cli.clients, 3);
        assert_eq!(cli.requests, 5);
        assert!(parse(&args("serve --clients nope")).is_err());
        assert!(parse(&args("serve --requests")).is_err());
    }

    #[test]
    fn run_serve_smoke() {
        let cli = parse(&args(
            "serve --synthetic 100x800x800:0.6 --nodes 2 --gpus 2 --clients 2 --requests 2",
        ))
        .unwrap();
        let mut out = Vec::new();
        run(&cli, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("served 5 requests"), "{s}");
        assert!(s.contains("plan cache:"), "{s}");
        assert!(s.contains("service smoke OK"), "{s}");
        // The 4 warm requests must all have hit the plan cache.
        assert!(s.contains("4 hits / 1 misses"), "{s}");
    }

    #[test]
    fn run_einsum_smoke() {
        let cli = parse(&args("einsum --synthetic 100x600x600:0.6 --nodes 2 --gpus 2")).unwrap();
        assert_eq!(cli.command, Command::Einsum);
        let mut out = Vec::new();
        run(&cli, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("lowered \"ij,jk,kl->il\" into 2 planned products"), "{s}");
        assert!(s.contains("output order il"), "{s}");
        assert!(s.contains("einsum smoke OK"), "{s}");
    }

    #[test]
    fn run_verify_small() {
        let cli = parse(&args("verify --synthetic 100x800x800:0.6 --nodes 2 --gpus 2")).unwrap();
        let mut out = Vec::new();
        run(&cli, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("verification OK"), "{s}");
        // Per-node transport totals, one line per node of the 2-node grid.
        assert!(s.contains("node 0: sent"), "{s}");
        assert!(s.contains("node 1: sent"), "{s}");
    }

    #[test]
    fn parse_node_size() {
        let cli = parse(&args("verify --synthetic 100x800x800:0.6 --nodes 4 --node-size 2"))
            .unwrap();
        assert_eq!(cli.opts.node_size, 2);
        assert!(parse(&args("verify --node-size 0")).is_err());
        assert!(parse(&args("verify --node-size x")).is_err());
    }

    #[test]
    fn parse_tolerance_flag() {
        let cli = parse(&args("verify --synthetic 100x800x800:0.6 --tolerance 1e-4")).unwrap();
        assert_eq!(cli.opts.tolerance, 1e-4);
        assert_eq!(parse(&args("verify")).unwrap().opts.tolerance, 0.0);
        assert!(parse(&args("verify --tolerance nope")).is_err());
        assert!(parse(&args("verify --tolerance -0.1")).is_err());
        assert!(parse(&args("verify --tolerance 1.5")).is_err());
    }

    /// A lossy verify run reports the achieved relative error and still
    /// passes its tolerance-scaled gate.
    #[test]
    fn run_verify_with_tolerance() {
        let cli = parse(&args(
            "verify --synthetic 100x800x800:0.6 --nodes 2 --gpus 2 --tolerance 1e-3",
        ))
        .unwrap();
        let mut out = Vec::new();
        run(&cli, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("compression tolerance 1.0e-3"), "{s}");
        assert!(s.contains("relative Frobenius error"), "{s}");
        assert!(s.contains("verification OK"), "{s}");
    }

    /// A node-aware 4-rank / 2-physical-node verify run still matches the
    /// reference, and its per-node lines report the inter-node split.
    #[test]
    fn run_verify_node_aware() {
        let cli = parse(&args(
            "verify --synthetic 100x800x800:0.6 --nodes 4 --node-size 2 --gpus 2",
        ))
        .unwrap();
        let mut out = Vec::new();
        run(&cli, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("verification OK"), "{s}");
        assert!(s.contains("inter-node"), "{s}");
    }
}
