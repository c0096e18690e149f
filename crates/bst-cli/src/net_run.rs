//! The multi-process runners behind `bst worker` and `bst launch`.
//!
//! `bst launch -n P` spawns `P` copies of this binary as `bst worker`
//! processes over loopback sockets (UDS by default, TCP with
//! `--transport tcp`), ships them the job as a small `key=value` text,
//! and gates the assembled result **bit-identically** against an
//! in-process run over the channel transport — same spec, same plan, same
//! seeds, so any difference is the transport's fault.
//!
//! The job text round-trips through [`job_config_text`] /
//! [`parse_job_config`] and reuses the exact [`crate::RunOpts`] parser the CLI
//! flags use, so the launcher and its workers cannot disagree about what
//! an option means.

use crate::{build_problem, parse_synthetic, planner_config, Cli, Command, ProblemKind};
use bst_contract::error::BstError;
use bst_contract::engine::inspector::owner_of;
use bst_contract::engine::{execute, execute_rank};
use bst_contract::{ExecOptions, ExecutionPlan};
use bst_net::{launch, LaunchConfig, LaunchOutcome, NetError, SocketWire, Transport, WorkerConfig};
use bst_runtime::comm::DeliveryPolicy;
use bst_sparse::BlockSparseMatrix;
use bst_tile::Tile;
use std::sync::Arc;

/// Serializes the job a launcher ships to its workers. Everything a worker
/// needs to rebuild the identical spec/plan/options rides in here; the
/// transport appends its own `peers=` (and, on a recovery rerun,
/// `dead_node=`) lines.
pub fn job_config_text(cli: &Cli) -> String {
    let problem = match &cli.problem {
        ProblemKind::Molecule(m) => format!("molecule:{m}"),
        ProblemKind::Synthetic { m, n, k, density } => {
            format!("synthetic:{m}x{n}x{k}:{density}")
        }
    };
    let mut text = format!(
        "problem={problem}\ntiling={}\nnodes={}\nnode-size={}\ntolerance={}\np={}\ngpus={}\nseed={}",
        cli.tiling,
        cli.opts.nodes,
        cli.opts.node_size,
        cli.opts.tolerance,
        cli.p,
        cli.gpus,
        cli.seed
    );
    if let Some(seed) = cli.reorder {
        text.push_str(&format!("\nreorder={seed}"));
    }
    text
}

/// The worker-side view of a job text: the rebuilt CLI state plus the
/// launcher-appended write-off and the reorder stressor.
pub struct Job {
    /// The job as a [`Cli`] (problem, shared options, grid, seed).
    pub cli: Cli,
    /// Rank written off by a recovery rerun (`dead_node=` line).
    pub dead_node: Option<usize>,
    /// Delivery-reorder stressor seed for the local fabric.
    pub reorder: Option<u64>,
}

/// Parses a launcher's job text. Unknown keys (`peers=`, future options)
/// are ignored; malformed values of known keys are typed errors.
pub fn parse_job_config(text: &str) -> Result<Job, NetError> {
    let proto = |e: String| NetError::Protocol(e);
    let mut cli = crate::parse(&["worker".to_string()]).map_err(|e| proto(e.0))?;
    let mut dead_node = None;
    let mut reorder = None;
    for line in text.lines() {
        let Some((key, raw)) = line.split_once('=') else { continue };
        match key {
            "problem" => {
                cli.problem = match raw.split_once(':') {
                    Some(("molecule", spec)) => ProblemKind::Molecule(spec.to_string()),
                    Some(("synthetic", spec)) => {
                        parse_synthetic(spec).map_err(|e| proto(e.0))?
                    }
                    _ => return Err(proto(format!("bad problem descriptor '{raw}'"))),
                }
            }
            "tiling" => cli.tiling = raw.to_string(),
            "p" => cli.p = raw.parse().map_err(|_| proto(format!("bad p '{raw}'")))?,
            "gpus" => cli.gpus = raw.parse().map_err(|_| proto(format!("bad gpus '{raw}'")))?,
            "seed" => cli.seed = raw.parse().map_err(|_| proto(format!("bad seed '{raw}'")))?,
            "reorder" => {
                reorder = Some(raw.parse().map_err(|_| proto(format!("bad reorder '{raw}'")))?)
            }
            "dead_node" => {
                dead_node =
                    Some(raw.parse().map_err(|_| proto(format!("bad dead_node '{raw}'")))?)
            }
            key => {
                // The shared options parse exactly as their CLI flags do.
                cli.opts.set(key, raw).map_err(|e| proto(e.0))?;
            }
        }
    }
    crate::check_grid(&cli).map_err(|e| proto(e.0))?;
    Ok(Job { cli, dead_node, reorder })
}

fn exec_options(cli: &Cli, reorder: Option<u64>) -> ExecOptions {
    let mut builder = ExecOptions::builder()
        .node_size(cli.opts.node_size)
        .compress_tol(cli.opts.tolerance);
    if let Some(seed) = reorder {
        builder = builder.delivery(DeliveryPolicy::Reorder { seed, window: 8 });
    }
    builder.build()
}

/// Executes a job text as rank `rank` of a multi-process run, shipping
/// frames over `wire`. Returns this rank's share of C — the tiles its node
/// folded — moved out of the assembled matrix.
/// This is the closure `bst worker` hands to
/// [`worker_session`](bst_net::worker_session); errors are rendered for
/// the `Abort` control message.
pub fn worker_job(
    text: &str,
    rank: usize,
    wire: Arc<SocketWire>,
) -> Result<Vec<(u32, u32, Tile)>, String> {
    let job = parse_job_config(text).map_err(|e| e.to_string())?;
    let (spec, _) = build_problem(&job.cli).map_err(|e| e.to_string())?;
    let config = planner_config(&job.cli);
    let dead: Vec<usize> = job.dead_node.into_iter().collect();
    let plan = ExecutionPlan::build_with(&spec, config, &dead).map_err(|e| e.to_string())?;
    // The rank seeds only the A tiles it owns, so it materialises only
    // those. Each tile's values are a function of its own seed, so they are
    // the tiles of the full A.
    let (p, q) = (plan.config.grid.p, plan.config.grid.q);
    let mut owned = spec.a.clone();
    for (i, k) in spec.a.shape().iter_nonzero().filter(|&(i, k)| owner_of(p, q, i, k) != rank) {
        owned.shape_mut().zero_out(i, k);
    }
    let a = BlockSparseMatrix::random_from_structure(owned, job.cli.seed);
    let b_gen = bst_sparse::matrix::random_b_gen(job.cli.seed ^ 0xB);
    let opts = exec_options(&job.cli, job.reorder);
    let (c, _report) = execute_rank(&spec, &plan, &a, &b_gen, opts, rank, wire)
        .map_err(|e| e.to_string())?;
    Ok(c.into_tiles().map(|((i, j), t)| (i as u32, j as u32, t)).collect())
}

/// The `bst worker` entry point: one rank's full session.
pub fn run_worker(cli: &Cli) -> Result<(), BstError> {
    let connect = cli
        .connect
        .clone()
        .ok_or_else(|| NetError::Protocol("worker needs --connect ADDR".into()))
        .map_err(BstError::Net)?;
    let transport = Transport::parse(&cli.transport)
        .map_err(|e| BstError::Net(NetError::Protocol(e)))?;
    let wcfg = WorkerConfig {
        rank: cli.rank,
        ranks: cli.ranks,
        connect,
        transport,
        die_after_tile_sends: cli.die_after,
    };
    bst_net::worker_session(&wcfg, |text, wire| worker_job(text, wcfg.rank, wire))
        .map_err(BstError::Net)?;
    Ok(())
}

/// Builds the [`LaunchConfig`] for a parsed `bst launch` command line.
/// `worker_cmd` is the argv prefix of the worker processes (normally this
/// binary plus `worker`); tests substitute their own to exercise timeout
/// and crash paths.
pub fn launch_config(cli: &Cli, worker_cmd: Vec<String>) -> Result<LaunchConfig, BstError> {
    let transport = Transport::parse(&cli.transport)
        .map_err(|e| BstError::Net(NetError::Protocol(e)))?;
    let mut lc = LaunchConfig::new(cli.opts.nodes, transport, worker_cmd, job_config_text(cli));
    lc.die_after = cli.kill.map(|rank| (rank, cli.die_after.unwrap_or(2)));
    Ok(lc)
}

/// What a gated multi-process run produced.
pub struct NetRunReport {
    /// The socket run's C, assembled from every rank's result tiles.
    pub c: BlockSparseMatrix,
    /// The in-process channel-transport reference C.
    pub c_ref: BlockSparseMatrix,
    /// `max |c - c_ref|`.
    pub max_diff: f64,
    /// The transport-level outcome (stats, recovery, attempts).
    pub outcome: LaunchOutcome,
}

/// Runs `lc` and gates it against the in-process reference for `cli`'s
/// problem: spawns the worker fleet, assembles every rank's tiles, and runs
/// the same spec/plan/seeds over the channel transport in this process.
pub fn run_launch(cli: &Cli, lc: &LaunchConfig) -> Result<NetRunReport, BstError> {
    let (spec, _) = build_problem(cli)
        .map_err(|e| BstError::Net(NetError::Protocol(e.0)))?;
    let config = planner_config(cli);
    let plan = ExecutionPlan::build(&spec, config)?;
    let a = BlockSparseMatrix::random_from_structure(spec.a.clone(), cli.seed);
    let b_gen = bst_sparse::matrix::random_b_gen(cli.seed ^ 0xB);
    // Reference: fault-free, in-order, single-process — the bit-identity
    // baseline even when the socket run reorders deliveries or loses a
    // worker.
    let (c_ref, _) = execute(&spec, &plan, &a, &b_gen, exec_options(cli, None))?;

    let outcome = launch(lc).map_err(BstError::Net)?;
    let mut c = BlockSparseMatrix::zeros(
        spec.a.row_tiling().clone(),
        spec.b.col_tiling().clone(),
    );
    for (i, j, tile) in &outcome.tiles {
        c.insert_tile(*i as usize, *j as usize, tile.clone());
    }
    let max_diff = c.max_abs_diff(&c_ref);
    Ok(NetRunReport { c, c_ref, max_diff, outcome })
}

/// The `bst launch` subcommand: run, report, gate.
pub fn run_launch_cmd(
    cli: &Cli,
    out: &mut dyn std::io::Write,
) -> Result<(), Box<dyn std::error::Error>> {
    assert_eq!(cli.command, Command::Launch);
    let exe = std::env::current_exe()?.to_string_lossy().into_owned();
    let lc = launch_config(cli, vec![exe, "worker".into()])?;
    let report = run_launch(cli, &lc)?;
    writeln!(
        out,
        "launched {} workers over {} ({} attempt{})",
        cli.opts.nodes,
        cli.transport,
        report.outcome.attempts,
        if report.outcome.attempts == 1 { "" } else { "s" }
    )?;
    for s in &report.outcome.stats {
        writeln!(
            out,
            "rank {}: {} frames sent / {} received over the wire, {} C tiles ({} B) returned",
            s.rank, s.sent_msgs, s.recv_msgs, s.c_tiles, s.c_bytes
        )?;
    }
    let phases = report.outcome.phases;
    writeln!(
        out,
        "phases: ready {:.3} s, compute {:.3} s, collect {:.3} s",
        phases.ready_s, phases.compute_s, phases.collect_s
    )?;
    if let Some(dead) = report.outcome.recovered_dead {
        writeln!(out, "rank {dead} died mid-run; fleet respawned with the node written off")?;
    }
    writeln!(out, "max |C_net - C_ref| = {:.3e}", report.max_diff)?;
    if let Some(kill) = cli.kill {
        // Kill drill: the degraded re-plan redistributes the dead rank's
        // work, so the accumulation order changes — the standing fault
        // gate is agreement to 1e-10, not bitwise.
        if report.outcome.recovered_dead != Some(kill) {
            return Err(Box::new(crate::CliError(format!(
                "net smoke FAILED: expected rank {kill} to die and recover, got {:?}",
                report.outcome.recovered_dead
            ))));
        }
        if report.max_diff > 1e-10 {
            return Err(Box::new(crate::CliError(
                "net smoke FAILED: degraded run disagrees with fault-free reference".into(),
            )));
        }
    } else if report.max_diff != 0.0 {
        return Err(Box::new(crate::CliError(
            "net smoke FAILED: socket run is not bit-identical to the channel transport".into(),
        )));
    }
    writeln!(out, "net smoke OK")?;
    Ok(())
}
