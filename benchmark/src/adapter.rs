//! The one file that names the program's API.
//!
//! Everything else in the harness sees only the plain types defined here
//! (sizes in, seconds and counts out), so a change to the program's surface
//! is a change to this file alone. It deliberately stays on the surfaces
//! ROADMAP says survive the "collapse to one of everything" item —
//! `Einsum`, `ExecutionPlan::build`, `engine::inspector::lower`,
//! `ExecOptions::{default, builder().tracing/.node_size}`,
//! `ContractionService`, `bst_net::{launch, codec, socket}`,
//! `bst_cli::{parse, job_config_text, run_worker, build_problem}`,
//! `bst_tile::{kernel, pool}`, `bst_runtime::{Engine, TaskGraph,
//! comm::CommFabric}` and `bst_sim::dag::replay_dag` — and never touches
//! `api::multiply*`/`contract_abcd`, the `exec.rs` facade, `bst_sim::replay`
//! or `ptg`, so deleting those cannot break the benchmark.
//!
//! Every layer is measured **from outside**: by timing calls into public
//! functions and reading the reports they already return. Nothing here adds
//! a span, counter, switch or environment variable to a crate.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use bst_chem::{CcsdProblem, Molecule, ScreeningParams, TilingSpec};
use bst_contract::engine::inspector::{self, Lowered};
use bst_contract::error::GenError;
use bst_contract::{
    ContractionRequest, ContractionService, DeviceConfig, Einsum, ExecOptions, ExecReport,
    ExecutionPlan, GridConfig, PlannerConfig, ProblemSpec, ServiceBGen, ServiceConfig,
};
use bst_net::codec::{self, Ctl, Msg};
use bst_net::socket::{read_msg, write_msg};
use bst_net::{LaunchConfig, Transport};
use bst_runtime::comm::{CommConfig, CommFabric, DeliveryPolicy, LinkShaper, TileMsg, WireFrame};
use bst_runtime::{infallible, DataKey, Engine, TileStore};
use bst_sim::Platform;
use bst_sparse::generate::{generate, SyntheticParams};
use bst_sparse::matrix::{random_b_gen, tile_seed};
use bst_sparse::tensor::BlockSparseTensor4;
use bst_sparse::{BlockSparseMatrix, MatrixStructure, SparseShape, Tensor4Meta};
use bst_tile::gemm::{gemm_flops, gemm_naive};
use bst_tile::kernel::select_heuristic;
use bst_tile::{Tile, TilePool, Tiling};

use crate::rng::SplitMix;

// ---- Inputs ---------------------------------------------------------------

/// A synthetic `C (M×N) += A (M×K) · B (K×N)` instance (paper §5.1).
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub m: u64,
    pub n: u64,
    pub k: u64,
    pub density: f64,
    pub tile_min: u64,
    pub tile_max: u64,
}

/// The CCSD ABCD-term instance: an alkane chain, its k-means tilings and the
/// screening that shapes T, V and R.
#[derive(Clone, Copy, Debug)]
pub struct Chem {
    pub carbons: usize,
    pub occ_clusters: usize,
    pub ao_clusters: usize,
    pub ao_pair_len: f64,
    pub t_threshold: f32,
    pub v_threshold: f32,
}

/// The simulated machine a contraction is planned for.
#[derive(Clone, Copy, Debug)]
pub struct Machine {
    /// Grid rows (slices of A).
    pub p: usize,
    /// Grid columns (nodes sharing B's columns).
    pub q: usize,
    pub gpus_per_node: usize,
    pub gpu_mem_bytes: u64,
    /// Ranks per physical node (both link classes when > 1).
    pub node_size: usize,
}

impl Machine {
    pub fn nodes(&self) -> usize {
        self.p * self.q
    }

    /// GPU executor lanes — the lanes that run `Gemm` tasks.
    pub fn compute_lanes(&self) -> usize {
        self.nodes() * self.gpus_per_node
    }
}

/// The block structures of one contraction, before any tile is materialised.
pub struct Structures {
    spec: ProblemSpec,
    /// Per-mode tilings of T and V for the order-4 (CCSD) instance.
    metas: Option<(Tensor4Meta, Tensor4Meta)>,
}

/// The one draw of tilings and sparsity patterns (and of the k-means
/// clusterings) every seed starts from. A fresh draw per seed was measured
/// first: on `dense_tiles` (a few dozen large tiles) it moved `contract_s`
/// between 0.66 and 0.77 s while four runs of one seed stayed within 0.7%, so
/// ten seeds would measure the generator, not the program. The draw is pinned
/// and the seed varies what does not change the cost (see
/// [`generate_synthetic`]).
const STRUCTURE_DRAW: u64 = 2021;

/// Structures of a synthetic instance. `seed` re-labels the pinned draw's
/// tiles: one permutation for the tile rows of A and C, one for the inner
/// index (A's columns, B's rows), one for the tile columns of B and C. Every
/// tile keeps its size and its partners, so flops, task count and tile-shape
/// histogram are exactly the draw's, while tile ownership, column
/// assignment, block packing and broadcast trees differ from seed to seed.
pub fn generate_synthetic(shape: &Shape, seed: u64) -> Structures {
    let prob = generate(&SyntheticParams {
        m: shape.m,
        n: shape.n,
        k: shape.k,
        density: shape.density,
        tile_min: shape.tile_min,
        tile_max: shape.tile_max,
        seed: STRUCTURE_DRAW,
    });
    let mut rng = SplitMix::new(seed ^ 0x5EED);
    let mut permutation = |n: usize| {
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.below(i as u64 + 1) as usize);
        }
        perm
    };
    let rows = permutation(prob.a.tile_rows());
    let inner = permutation(prob.a.tile_cols());
    let cols = permutation(prob.b.tile_cols());
    let spec = ProblemSpec::new(
        relabel(&prob.a, &rows, &inner),
        relabel(&prob.b, &inner, &cols),
        None,
    );
    Structures { spec, metas: None }
}

/// The structure whose tile `(r, c)` is `s`'s tile `(rows[r], cols[c])`.
fn relabel(s: &MatrixStructure, rows: &[usize], cols: &[usize]) -> MatrixStructure {
    let tiling = |t: &Tiling, perm: &[usize]| {
        Tiling::from_sizes(&perm.iter().map(|&old| t.size(old)).collect::<Vec<_>>())
    };
    let norms = rows
        .iter()
        .flat_map(|&r| cols.iter().map(move |&c| s.shape().norm(r, c)))
        .collect();
    MatrixStructure::new(
        tiling(s.row_tiling(), rows),
        tiling(s.col_tiling(), cols),
        SparseShape::from_norms(rows.len(), cols.len(), norms),
    )
}

/// Structures of the ABCD term `R^{ij}_{ab} = Σ_{cd} T^{ij}_{cd} V^{cd}_{ab}`.
/// The tilings are the molecule's (k-means over its orbital centres, from the
/// pinned draw): the seed drives the values only.
pub fn build_ccsd(chem: &Chem) -> Structures {
    let params = ScreeningParams {
        ao_pair_len: chem.ao_pair_len,
        t_threshold: chem.t_threshold,
        v_threshold: chem.v_threshold,
        ..ScreeningParams::default()
    };
    let tiling = TilingSpec {
        occ_clusters: chem.occ_clusters,
        ao_clusters: chem.ao_clusters,
    };
    let problem = CcsdProblem::build(
        &Molecule::alkane(chem.carbons),
        tiling,
        params,
        STRUCTURE_DRAW,
    );
    let (occ, ao) = (problem.occ.tiling(), problem.ao.tiling());
    let t_meta = Tensor4Meta::new([occ.clone(), occ, ao.clone(), ao.clone()]);
    let v_meta = Tensor4Meta::new([ao.clone(), ao.clone(), ao.clone(), ao]);
    let r_shape = problem.r.shape().clone();
    Structures {
        spec: ProblemSpec::new(problem.t, problem.v, Some(r_shape)),
        metas: Some((t_meta, v_meta)),
    }
}

/// The moving operand, as the einsum frontend binds it.
enum AOperand {
    Matrix(Arc<BlockSparseMatrix>),
    /// An order-4 amplitude tensor plus the per-mode tilings of V.
    Tensor4 {
        t: Box<BlockSparseTensor4>,
        v_meta: Tensor4Meta,
    },
}

/// One contraction's complete inputs: what the program receives.
pub struct Problem {
    spec: ProblemSpec,
    a: AOperand,
    a_seed: u64,
    b_seed: u64,
    config: PlannerConfig,
    node_size: usize,
}

/// Materialises A's tiles (values are a pure function of `a_seed`) and pins
/// the machine the contraction is planned for. B stays on demand, its tiles
/// a pure function of `b_seed`.
pub fn materialise(s: Structures, machine: &Machine, a_seed: u64, b_seed: u64) -> Problem {
    let a = match s.metas {
        None => AOperand::Matrix(Arc::new(BlockSparseMatrix::random_from_structure(
            s.spec.a.clone(),
            a_seed,
        ))),
        Some((t_meta, v_meta)) => AOperand::Tensor4 {
            t: Box::new(BlockSparseTensor4::random_from_structure(
                t_meta,
                s.spec.a.clone(),
                a_seed,
            )),
            v_meta,
        },
    };
    Problem {
        spec: s.spec,
        a,
        a_seed,
        b_seed,
        config: planner_config(machine),
        node_size: machine.node_size,
    }
}

fn planner_config(machine: &Machine) -> PlannerConfig {
    PlannerConfig::paper(
        GridConfig {
            p: machine.p,
            q: machine.q,
        },
        DeviceConfig {
            gpus_per_node: machine.gpus_per_node,
            gpu_mem_bytes: machine.gpu_mem_bytes,
        },
    )
}

impl Problem {
    fn a_matrix(&self) -> &BlockSparseMatrix {
        match &self.a {
            AOperand::Matrix(m) => m,
            AOperand::Tensor4 { t, .. } => t.matricised(),
        }
    }

    fn options(&self, traced: bool) -> ExecOptions {
        ExecOptions::builder()
            .tracing(traced)
            .node_size(self.node_size)
            .build()
    }

    /// A fresh set of A values over the same structure (a new sweep's
    /// amplitudes): the plan key is unchanged, the contraction is not.
    pub fn a_variant(&self, variant: u64) -> AValues {
        AValues(Arc::new(BlockSparseMatrix::random_from_structure(
            self.spec.a.clone(),
            self.a_seed ^ (variant << 8),
        )))
    }

    /// `(rows, cols)` of the median non-zero A tile — the message the
    /// transport probes are sized to.
    pub fn median_a_tile_elems(&self) -> (usize, usize) {
        let s = &self.spec.a;
        let mut tiles: Vec<(u64, usize, usize)> = s
            .shape()
            .iter_nonzero()
            .map(|(r, c)| {
                let (rows, cols) = (s.row_tiling().size(r), s.col_tiling().size(c));
                (rows * cols, rows as usize, cols as usize)
            })
            .collect();
        tiles.sort_unstable();
        let (_, rows, cols) = tiles[tiles.len() / 2];
        (rows, cols)
    }
}

/// One sweep's A values (see [`Problem::a_variant`]).
#[derive(Clone)]
pub struct AValues(Arc<BlockSparseMatrix>);

// ---- Planner and inspector -------------------------------------------------

/// An inspector product (opaque outside this file).
pub struct Plan(ExecutionPlan);

/// The counts that pin "two commits ran the same work".
#[derive(Clone, Copy, Debug, Default)]
pub struct PlanCounts {
    pub gemm_tasks: u64,
    pub flops: f64,
    pub blocks: u64,
    pub chunks: u64,
    pub a_network_bytes: u64,
    pub b_generated_bytes: u64,
    pub load_imbalance: f64,
}

pub fn build_plan(p: &Problem) -> Result<Plan, String> {
    ExecutionPlan::build(&p.spec, p.config)
        .map(Plan)
        .map_err(|e| e.to_string())
}

pub fn plan_counts(p: &Problem, plan: &Plan) -> PlanCounts {
    let s = plan.0.stats(&p.spec);
    PlanCounts {
        gemm_tasks: s.total_tasks,
        flops: s.total_flops as f64,
        blocks: s.num_blocks,
        chunks: s.num_chunks,
        a_network_bytes: s.a_network_bytes,
        b_generated_bytes: s.b_generated_bytes,
        load_imbalance: s.load_imbalance,
    }
}

/// The lowered task DAG (opaque outside this file).
pub struct Dag(Lowered);

pub fn lower(p: &Problem, plan: &Plan) -> Dag {
    Dag(inspector::lower(&p.spec, &plan.0, &p.options(false)))
}

/// The SPMD projection one worker process executes.
pub fn restrict(dag: &Dag, rank: usize) -> Dag {
    Dag(dag.0.restrict(rank))
}

impl Dag {
    pub fn tasks(&self) -> u64 {
        self.0.graph.len() as u64
    }

    pub fn edges(&self) -> u64 {
        (0..self.0.graph.len())
            .map(|id| self.0.graph.deps(id).len() as u64)
            .sum()
    }
}

// ---- The contraction -------------------------------------------------------

/// An assembled result matrix (opaque outside this file).
pub struct CMatrix(BlockSparseMatrix);

impl CMatrix {
    /// Order-independent 64-bit digest of every tile's coordinates, shape
    /// and value *bit patterns*: equal digests ⇔ bit-identical results
    /// (`max_abs_diff == 0.0` is implied, and `-0.0`/`0.0` are told apart).
    pub fn fingerprint(&self) -> u64 {
        self.0.iter_tiles().fold(0u64, |acc, (&(i, j), t)| {
            acc.wrapping_add(tile_digest(i as u64, j as u64, t))
        })
    }

    /// Flips one mantissa bit of one tile — the deliberate corruption the
    /// smoke test uses to prove the checks can fail.
    pub fn corrupt(&mut self) {
        let Some((&(i, j), _)) = self.0.iter_tiles().min_by_key(|(k, _)| **k) else {
            return;
        };
        let mut t = self.0.tile(i, j).expect("tile just listed").to_dense();
        let d = t.data_mut();
        d[0] = f64::from_bits(d[0].to_bits() ^ (1 << 30));
        self.0.insert_tile(i, j, t);
    }
}

fn tile_digest(i: u64, j: u64, t: &Tile) -> u64 {
    if !t.is_dense() {
        return tile_digest(i, j, &t.to_dense());
    }
    let mut h = SplitMix::mix(i ^ SplitMix::mix(j ^ ((t.rows() as u64) << 32 | t.cols() as u64)));
    for v in t.data() {
        h = SplitMix::mix(h ^ v.to_bits());
    }
    h
}

/// One whole contraction through the einsum frontend: spec → plan → lower →
/// GenB → GEMM → send/recv → reduce → assembled C.
pub fn contract(p: &Problem, traced: bool) -> Result<(CMatrix, Report), String> {
    let gen = random_b_gen::<GenError>(p.b_seed);
    let einsum = match &p.a {
        AOperand::Matrix(a) => Einsum::new("ik,kj->ij")
            .operand(a)
            .on_demand(&p.spec.b, &gen),
        AOperand::Tensor4 { t, v_meta } => Einsum::new("ijcd,cdab->ijab")
            .tensor(t)
            .on_demand_tensor4(v_meta, &p.spec.b, &gen),
    };
    let einsum = match &p.spec.c_shape {
        Some(shape) => einsum.output_shape(shape.clone()),
        None => einsum,
    };
    let mut out = einsum
        .options(p.options(traced))
        .contract(p.config)
        .map_err(|e| e.to_string())?;
    let report = out.reports.pop().expect("one term, one report");
    Ok((CMatrix(out.into_matrix()), Report(report)))
}

/// What the check of one result against the naive oracle found.
#[derive(Clone, Copy, Debug)]
pub struct NaiveCheck {
    pub tiles_checked: usize,
    pub max_err: f64,
    /// Expected tiles the result lacks, or stored tiles the output shape
    /// screens away.
    pub shape_errors: usize,
}

impl NaiveCheck {
    pub fn passed(&self) -> bool {
        self.tiles_checked > 0 && self.shape_errors == 0 && self.max_err <= 1e-10
    }
}

/// How many C tiles the oracle recomputes, and how many rows of each.
const CHECK_TILES: usize = 64;
const CHECK_ROWS: usize = 2;

/// Recomputes seed-chosen rows of up to [`CHECK_TILES`] seed-chosen C tiles
/// with `gemm_naive` over the same A tiles and freshly generated B tiles
/// (whole tiles of 300² elements would cost more than the contraction
/// itself). `a` overrides the problem's own A values (service sweeps).
pub fn check_against_naive(p: &Problem, a: Option<&AValues>, c: &CMatrix, seed: u64) -> NaiveCheck {
    let a = a.map_or(p.a_matrix(), |v| &v.0);
    let sb = &p.spec.b;
    // Expected support of C: kept destinations with a contributing pair.
    let mut expected: Vec<(usize, usize)> = Vec::new();
    for j in 0..sb.tile_cols() {
        for i in p.spec.c_col_support(j, 0, 1) {
            expected.push((i, j));
        }
    }
    let mut shape_errors = c.0.num_tiles().abs_diff(expected.len());
    let mut rng = SplitMix::new(seed ^ 0xC4EC);
    let pool = TilePool::new();
    let gen = random_b_gen::<GenError>(p.b_seed);
    let mut max_err = 0.0f64;
    let picks = CHECK_TILES.min(expected.len());
    for _ in 0..picks {
        let (i, j) = expected[rng.below(expected.len() as u64) as usize];
        let Some(got) = c.0.tile(i, j) else {
            shape_errors += 1;
            continue;
        };
        let n = sb.col_tiling().size(j) as usize;
        for _ in 0..CHECK_ROWS {
            let r = rng.below(got.rows() as u64) as usize;
            let mut want = Tile::zeros(1, n);
            for &k in sb.col_rows(j) {
                let k = k as usize;
                let Some(a_tile) = a.tile(i, k) else { continue };
                let kk = a_tile.cols();
                let row = Tile::from_data(1, kk, (0..kk).map(|c| a_tile.get(r, c)).collect());
                let b_tile = gen(k, j, kk, n, &pool).expect("random generator is infallible");
                gemm_naive(1.0, &row, &b_tile, &mut want);
                pool.release_arc(b_tile);
            }
            for (col, w) in want.data().iter().enumerate() {
                max_err = max_err.max((w - got.get(r, col)).abs());
            }
        }
    }
    NaiveCheck {
        tiles_checked: picks,
        max_err,
        shape_errors,
    }
}

// ---- Reading the engine's report -------------------------------------------

/// One execution's report (opaque outside this file).
pub struct Report(ExecReport);

/// Transport totals of one execution (exact for a fixed seed, except the
/// in-flight high-water mark, which depends on timing).
#[derive(Clone, Copy, Debug, Default)]
pub struct CommCounts {
    pub msgs: u64,
    pub bytes: u64,
    pub inter_bytes: u64,
    pub max_in_flight: u64,
}

/// What a traced execution says about where its time went.
#[derive(Clone, Debug, Default)]
pub struct EngineLayer {
    pub run_s: f64,
    /// Busy seconds per task kind (`Gemm`, `GenB`, ...).
    pub busy_s: BTreeMap<&'static str, f64>,
    /// Seconds tasks of a kind spent ready but not started.
    pub queue_s: BTreeMap<&'static str, f64>,
    pub gpu_lane_idle_frac: f64,
    pub critical_path_s: f64,
    pub tasks_per_s: f64,
    pub genb_overlap: f64,
}

impl Report {
    pub fn comm(&self) -> CommCounts {
        let c = &self.0.comm;
        CommCounts {
            msgs: c.iter().map(|n| n.sent_msgs).sum(),
            bytes: c.iter().map(|n| n.sent_bytes).sum(),
            inter_bytes: c.iter().map(|n| n.inter_sent_bytes).sum(),
            max_in_flight: c
                .iter()
                .map(|n| n.max_in_flight.max(n.intra_max_in_flight) as u64)
                .max()
                .unwrap_or(0),
        }
    }

    /// Tile-pool recycling: `(hits, hits + misses)` summed over nodes.
    pub fn pool_takes(&self) -> (u64, u64) {
        let hits: u64 = self.0.pool_stats.iter().map(|s| s.hits).sum();
        let misses: u64 = self.0.pool_stats.iter().map(|s| s.misses).sum();
        (hits, hits + misses)
    }

    /// Attributes a traced run's time to layers. `dag` must be the lowering
    /// of the same problem (task ids index the trace records); `None` skips
    /// the critical path. Returns `None` for an untraced report.
    pub fn engine_layer(&self, dag: Option<&Dag>, gpus_per_node: usize) -> Option<EngineLayer> {
        let trace = self.0.trace.as_ref()?;
        let run_s = trace.total_ns as f64 / 1e9;
        let mut layer = EngineLayer {
            run_s,
            ..EngineLayer::default()
        };
        for m in &self.0.metrics {
            layer.busy_s.insert(m.kind, m.total_exec_ns as f64 / 1e9);
            layer.queue_s.insert(m.kind, m.total_queue_ns as f64 / 1e9);
        }
        // GPU lanes are lanes 1..=g of each node (lane 0 is the CPU lane,
        // higher lanes generate B).
        let mut lanes = std::collections::BTreeSet::new();
        let mut gpu_busy_ns = 0u64;
        for r in &trace.records {
            if (1..=gpus_per_node).contains(&r.worker.lane) {
                lanes.insert((r.worker.node, r.worker.lane));
                gpu_busy_ns += r.span.exec_ns();
            }
        }
        if !lanes.is_empty() && trace.total_ns > 0 {
            let capacity = lanes.len() as f64 * trace.total_ns as f64;
            layer.gpu_lane_idle_frac = (1.0 - gpu_busy_ns as f64 / capacity).max(0.0);
        }
        if run_s > 0.0 {
            layer.tasks_per_s = trace.records.len() as f64 / run_s;
        }
        layer.genb_overlap = self.0.max_concurrent_genb() as f64;
        if let Some(dag) = dag.filter(|d| d.0.graph.len() == trace.records.len()) {
            // Longest chain of task execution times over the DAG's own
            // dependencies; ids are topologically ordered (dep < task).
            let mut chain = vec![0u64; trace.records.len()];
            for r in &trace.records {
                let before = dag
                    .0
                    .graph
                    .deps(r.task)
                    .iter()
                    .map(|&d| chain[d])
                    .max()
                    .unwrap_or(0);
                chain[r.task] = before + r.span.exec_ns();
            }
            layer.critical_path_s = chain.iter().copied().max().unwrap_or(0) as f64 / 1e9;
        }
        Some(layer)
    }
}

// ---- The service -----------------------------------------------------------

/// A running `ContractionService`.
pub struct Service(ContractionService);

/// One completed request, reduced to what the harness checks and reports.
pub struct Response {
    pub c: CMatrix,
    pub report: Report,
}

/// Aggregate service counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceCounters {
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub b_hits: u64,
    pub b_misses: u64,
    pub b_evictions: u64,
    pub queue_highwater: u64,
}

impl Service {
    /// Starts the service with its default configuration, except the
    /// per-node B-cache budget.
    pub fn start(b_cache_budget_bytes: u64) -> Service {
        Service(ContractionService::start(ServiceConfig {
            b_cache_budget_bytes,
            ..ServiceConfig::default()
        }))
    }

    /// Submit → wait for `a · B`, with B cached under `b_key`.
    pub fn request(
        &self,
        p: &Problem,
        a: &AValues,
        b_key: u64,
        traced: bool,
    ) -> Result<Response, String> {
        let b_gen: ServiceBGen = Arc::new(random_b_gen::<GenError>(p.b_seed));
        let out = self
            .0
            .submit(ContractionRequest {
                a: Arc::clone(&a.0),
                b_structure: p.spec.b.clone(),
                b_gen,
                b_key,
                c_shape: p.spec.c_shape.clone(),
                config: p.config,
                opts: p.options(traced),
            })
            .and_then(|pending| pending.wait())
            .map_err(|e| e.to_string())?;
        Ok(Response {
            c: CMatrix(out.c),
            report: Report(out.report),
        })
    }

    pub fn counters(&self) -> ServiceCounters {
        let s = self.0.stats();
        ServiceCounters {
            plan_hits: s.plan_hits,
            plan_misses: s.plan_misses,
            b_hits: s.b_hits,
            b_misses: s.b_misses,
            b_evictions: s.b_evictions,
            queue_highwater: s.queue_depth_highwater as u64,
        }
    }
}

// ---- Worker processes -------------------------------------------------------

/// A `bst launch` job: what the launcher ships to its worker processes.
pub struct LaunchJob {
    cli: bst_cli::Cli,
    config: LaunchConfig,
}

/// The assembled result of one fleet launch.
pub struct Launched {
    pub c: CMatrix,
    /// Data frames the fleet put on the wire.
    pub frames: u64,
}

/// Builds the CLI job `synthetic:MxNxK:density` for `machine`'s grid, run by
/// one worker process per node over Unix-domain sockets; `exe` re-enters as
/// the workers. (The CLI fixes the device budget at 16 GiB.)
pub fn launch_job(
    shape: &Shape,
    machine: &Machine,
    seed: u64,
    exe: &str,
) -> Result<LaunchJob, String> {
    let args: Vec<String> = [
        "launch".to_string(),
        "--synthetic".to_string(),
        format!("{}x{}x{}:{}", shape.m, shape.n, shape.k, shape.density),
        "-n".to_string(),
        machine.nodes().to_string(),
        "--p".to_string(),
        machine.p.to_string(),
        "--gpus".to_string(),
        machine.gpus_per_node.to_string(),
        "--node-size".to_string(),
        machine.node_size.to_string(),
        "--seed".to_string(),
        seed.to_string(),
        "--transport".to_string(),
        "uds".to_string(),
    ]
    .into();
    let cli = bst_cli::parse(&args).map_err(|e| e.0)?;
    let config = LaunchConfig::new(
        machine.nodes(),
        Transport::Uds,
        vec![exe.to_string(), "worker".to_string()],
        bst_cli::job_config_text(&cli),
    );
    Ok(LaunchJob { cli, config })
}

impl LaunchJob {
    /// The structures a worker rebuilds from the job text.
    pub fn structures(&self) -> Result<Structures, String> {
        let (spec, _) = bst_cli::build_problem(&self.cli).map_err(|e| e.0)?;
        Ok(Structures { spec, metas: None })
    }

    /// The `(A, B)` value seeds a worker derives from the job's seed.
    pub fn value_seeds(&self) -> (u64, u64) {
        (self.cli.seed, self.cli.seed ^ 0xB)
    }
}

/// One `bst_net::launch` call — spawn, mesh, run, collect, tear down — and
/// the assembly of rank 0's tiles into C over `twin`'s tilings (the
/// in-process problem of the same job).
pub fn launch(job: &LaunchJob, twin: &Problem) -> Result<Launched, String> {
    let outcome = bst_net::launch(&job.config).map_err(|e| e.to_string())?;
    let spec = &twin.spec;
    let mut c = BlockSparseMatrix::zeros(spec.a.row_tiling().clone(), spec.b.col_tiling().clone());
    for (i, j, tile) in outcome.tiles {
        c.insert_tile(i as usize, j as usize, tile);
    }
    Ok(Launched {
        c: CMatrix(c),
        frames: outcome.stats.iter().map(|s| s.sent_msgs).sum(),
    })
}

/// The `worker` re-entry of this binary: one rank's full session, exactly
/// the code path of `bst worker`.
pub fn worker_main(args: &[String]) -> Result<(), String> {
    let cli = bst_cli::parse(args).map_err(|e| e.0)?;
    bst_cli::run_worker(&cli).map_err(|e| e.to_string())
}

// ---- Micro-probes ------------------------------------------------------------
//
// Each probe's repetition count is its full-size count times `scale` (the
// run's share of a full-length window), so `--smoke` runs the same code in
// milliseconds.

fn scaled(full: usize, scale: f64, min: usize) -> usize {
    ((full as f64 * scale) as usize).max(min)
}

/// Calls the B generator once for every B tile the plan touches (per-node
/// replicas included), on one thread, recycling buffers through one pool
/// like a node does. Returns `(seconds, bytes)`.
pub fn probe_genb(p: &Problem, plan: &Plan) -> (f64, u64) {
    let gen = random_b_gen::<GenError>(p.b_seed);
    let pool = TilePool::new();
    let sb = &p.spec.b;
    let mut bytes = 0u64;
    let t0 = Instant::now();
    for node in &plan.0.nodes {
        for &j in &node.columns {
            let cols = sb.col_tiling().size(j) as usize;
            for &k in sb.col_rows(j) {
                let rows = sb.row_tiling().size(k as usize) as usize;
                let tile = gen(k as usize, j, rows, cols, &pool).expect("infallible generator");
                bytes += tile.bytes();
                pool.release_arc(std::hint::black_box(tile));
            }
        }
    }
    (t0.elapsed().as_secs_f64(), bytes)
}

/// What replaying the plan's GEMM shape mix through the kernels measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelProbe {
    /// Flop-weighted rate of one calling lane over cache-cold operands.
    pub gflops_1t: f64,
    /// Flops per byte of operands touched, from shapes alone (computed).
    pub flops_per_byte: f64,
    pub median_task_flops: f64,
}

/// Shapes sampled from the histogram, and the time spent on each.
const KERNEL_SAMPLES: usize = 24;
const KERNEL_SAMPLE_S: f64 = 0.02;
/// Operand ring per shape: big enough to outgrow the last-level cache.
const KERNEL_RING_BYTES: usize = 32 << 20;

/// Replays the plan's `gemm_shape_histogram` through the kernel the engine
/// would dispatch (`select_heuristic(..).run`) from one calling thread.
/// Shapes are drawn with probability proportional to their share of the
/// flops, so the harmonic mean of the sampled rates is the flop-weighted
/// rate; the operands of one shape rotate through a ring so that each call
/// reads cache-cold tiles.
pub fn probe_kernels(p: &Problem, plan: &Plan, seed: u64, scale: f64) -> KernelProbe {
    let hist = plan.0.gemm_shape_histogram(&p.spec);
    if hist.is_empty() {
        return KernelProbe::default();
    }
    let flops_of = |&(m, n, k): &(usize, usize, usize)| gemm_flops(m as u64, n as u64, k as u64);
    let total_tasks: u64 = hist.iter().map(|(_, c)| c).sum();
    let total_flops: f64 = hist
        .iter()
        .map(|(s, c)| flops_of(s) as f64 * *c as f64)
        .sum();
    let total_bytes: f64 = hist
        .iter()
        .map(|((m, n, k), c)| 8.0 * (m * k + k * n + 2 * m * n) as f64 * *c as f64)
        .sum();
    // Median task size: walk the histogram in flop order.
    let mut by_flops: Vec<(u64, u64)> = hist.iter().map(|(s, c)| (flops_of(s), *c)).collect();
    by_flops.sort_unstable();
    let mut seen = 0u64;
    let mut median_task_flops = 0.0;
    for (f, c) in by_flops {
        seen += c;
        if seen * 2 >= total_tasks {
            median_task_flops = f as f64;
            break;
        }
    }
    let mut rng = SplitMix::new(seed ^ 0x6E44);
    let mut inv_rate_sum = 0.0;
    for _ in 0..KERNEL_SAMPLES {
        let mut target = rng.unit() * total_flops;
        let mut shape = hist[hist.len() - 1].0;
        for (s, c) in &hist {
            target -= flops_of(s) as f64 * *c as f64;
            if target <= 0.0 {
                shape = *s;
                break;
            }
        }
        inv_rate_sum += 1.0 / time_kernel(shape, KERNEL_SAMPLE_S * scale);
    }
    KernelProbe {
        gflops_1t: KERNEL_SAMPLES as f64 / inv_rate_sum / 1e9,
        flops_per_byte: total_flops / total_bytes,
        median_task_flops,
    }
}

/// Flop/s of the dispatched kernel on one shape over a cold operand ring.
fn time_kernel((m, n, k): (usize, usize, usize), sample_s: f64) -> f64 {
    let kind = select_heuristic(m, n, k);
    let set_bytes = 8 * (m * k + k * n + m * n);
    let sets = (KERNEL_RING_BYTES / set_bytes).clamp(2, 512);
    let mut ring: Vec<(Tile, Tile, Tile)> = (0..sets as u64)
        .map(|i| {
            (
                Tile::random(m, k, i),
                Tile::random(k, n, i ^ 0xB),
                Tile::zeros(m, n),
            )
        })
        .collect();
    let flops = gemm_flops(m as u64, n as u64, k as u64) as f64;
    let mut calls = 0u64;
    let t0 = Instant::now();
    loop {
        for (a, b, c) in ring.iter_mut() {
            kind.run(1.0, a, b, c);
            calls += 1;
        }
        let dt = t0.elapsed().as_secs_f64();
        if dt >= sample_s {
            std::hint::black_box(&ring);
            return flops * calls as f64 / dt;
        }
    }
}

/// Nanoseconds per `TilePool` take + release of a recycled buffer.
pub fn probe_pool((rows, cols): (usize, usize), scale: f64) -> f64 {
    let takes = scaled(200_000, scale, 1_000);
    let pool = TilePool::new();
    pool.release(pool.zeroed(rows, cols));
    let t0 = Instant::now();
    for _ in 0..takes {
        let tile = pool.take_with(rows, cols, |_| {});
        pool.release(std::hint::black_box(tile));
    }
    t0.elapsed().as_nanos() as f64 / takes as f64
}

/// Microseconds of scheduler per task: `Engine::run` over the workload's own
/// lowered DAG (same lanes, same dependencies) with empty task bodies.
pub fn probe_sched(dag: &Dag) -> f64 {
    let t0 = Instant::now();
    let run = Engine::new().run(
        &dag.0.graph,
        &dag.0.workers,
        |_| (),
        infallible(|_, _, _| {}),
    );
    let dt = t0.elapsed().as_secs_f64();
    if let Err(abort) = run {
        match abort.error {}
    }
    dt * 1e6 / dag.0.graph.len().max(1) as f64
}

/// `(microseconds per message, GB/s)` of a two-node `CommFabric`:
/// `send_tile` of `(rows, cols)` tiles from node 0, `wait_delivered` on
/// node 1, default credit windows, no link shaping.
pub fn probe_fabric((rows, cols): (usize, usize), scale: f64) -> (f64, f64) {
    let msgs = scaled(4_000, scale, 100) as u32;
    let fabric = CommFabric::new(
        2,
        CommConfig {
            window: ExecOptions::default().comm_window,
            intra_window: ExecOptions::default().intra_window,
            node_size: 1,
            shaper: LinkShaper::off(),
            intra_shaper: LinkShaper::off(),
            delivery: DeliveryPolicy::InOrder,
            clock: None,
        },
    );
    let stores: Vec<TileStore> = (0..2).map(TileStore::for_node).collect();
    let payload = Arc::new(Tile::random(rows, cols, 7));
    let dt = std::thread::scope(|s| {
        fabric.start(s, &stores);
        let t0 = Instant::now();
        for i in 0..msgs {
            let msg = TileMsg {
                key: DataKey::A(i, 0),
                payload: Arc::clone(&payload),
                epoch: 1,
                src: 0,
                consumers: 1,
            };
            fabric
                .send_tile(1, msg, false)
                .expect("in-process send cannot fail");
        }
        fabric.wait_delivered(1, DataKey::A(msgs - 1, 0));
        let dt = t0.elapsed().as_secs_f64();
        fabric.shutdown();
        dt
    });
    let bytes = f64::from(msgs) * payload.bytes() as f64;
    (dt * 1e6 / f64::from(msgs), bytes / dt / 1e9)
}

/// Codec throughput on one tile frame: `(encode, decode, crc32)` in GB/s.
pub fn probe_codec((rows, cols): (usize, usize), scale: f64) -> (f64, f64, f64) {
    let msg = tile_frame(rows, cols);
    let frame = codec::encode(&msg);
    let reps = scaled(64 << 20, scale, 1 << 16) / frame.len() + 1;
    let gbps = |f: &dyn Fn()| {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        (reps * frame.len()) as f64 / t0.elapsed().as_secs_f64() / 1e9
    };
    let encode = gbps(&|| {
        std::hint::black_box(codec::encode(std::hint::black_box(&msg)));
    });
    let decode = gbps(&|| {
        std::hint::black_box(codec::decode(std::hint::black_box(&frame)).expect("own frame"));
    });
    let crc = gbps(&|| {
        std::hint::black_box(codec::crc32(std::hint::black_box(&frame)));
    });
    (encode, decode, crc)
}

fn tile_frame(rows: usize, cols: usize) -> Msg {
    Msg::Wire(WireFrame::Tile {
        dst: 1,
        msg: TileMsg {
            key: DataKey::A(0, 0),
            payload: Arc::new(Tile::random(rows, cols, tile_seed(7, 0, 0))),
            epoch: 1,
            src: 0,
            consumers: 1,
        },
    })
}

/// `(round-trip microseconds, one-way GB/s)` of a `Transport::Uds` bind/dial
/// pair speaking `write_msg`/`read_msg`: pings for latency, tile frames of
/// `(rows, cols)` for bandwidth. `socket_path` must be short (`sun_path`).
pub fn probe_uds(
    (rows, cols): (usize, usize),
    socket_path: &str,
    scale: f64,
) -> Result<(f64, f64), String> {
    let pings = scaled(2_000, scale, 50) as u64;
    let frame = tile_frame(rows, cols);
    let frame_bytes = codec::encode(&frame).len();
    let frames = (scaled(32 << 20, scale, 1 << 16) / frame_bytes).clamp(16, 20_000);
    let listener = Transport::Uds
        .bind(socket_path)
        .map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    std::thread::scope(|s| {
        // The far end: answer pings, swallow tile frames, acknowledge the
        // last one.
        let echo = s.spawn(move || -> Result<(), String> {
            let mut conn = listener.accept().map_err(|e| e.to_string())?;
            let mut tiles = 0usize;
            while let Some(msg) = read_msg(&mut conn).map_err(|e| e.to_string())? {
                match msg {
                    Msg::Ctl(Ctl::Ping(n)) => write_msg(&mut conn, &Msg::Ctl(Ctl::Pong(n))),
                    Msg::Wire(_) => {
                        tiles += 1;
                        if tiles < frames {
                            continue;
                        }
                        write_msg(&mut conn, &Msg::Ctl(Ctl::Pong(0)))
                    }
                    _ => continue,
                }
                .map_err(|e| e.to_string())?;
            }
            Ok(())
        });
        let mut conn = Transport::Uds.dial(&addr).map_err(|e| e.to_string())?;
        let pong = |conn: &mut bst_net::socket::Conn| match read_msg(conn) {
            Ok(Some(Msg::Ctl(Ctl::Pong(_)))) => Ok(()),
            other => Err(format!("expected a pong, got {other:?}")),
        };
        let t0 = Instant::now();
        for n in 0..pings {
            write_msg(&mut conn, &Msg::Ctl(Ctl::Ping(n))).map_err(|e| e.to_string())?;
            pong(&mut conn)?;
        }
        let rtt_us = t0.elapsed().as_secs_f64() * 1e6 / pings as f64;
        let t0 = Instant::now();
        for _ in 0..frames {
            write_msg(&mut conn, &frame).map_err(|e| e.to_string())?;
        }
        pong(&mut conn)?;
        let gbps = (frames * frame_bytes) as f64 / t0.elapsed().as_secs_f64() / 1e9;
        drop(conn);
        echo.join().expect("echo thread panicked")?;
        Ok((rtt_us, gbps))
    })
}

/// What the task-accurate simulator predicts for the host.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimProbe {
    /// Wall time of `replay_dag` itself.
    pub replay_s: f64,
    /// The makespan it predicts.
    pub predicted_s: f64,
}

/// The rates this run measured on the host, for calibrating the simulator.
#[derive(Clone, Copy, Debug)]
pub struct HostRates {
    pub gemm_gflops: f64,
    pub genb_gbps: f64,
    pub sched_us_per_task: f64,
    pub fabric_us_per_msg: f64,
    pub fabric_gbps: f64,
}

/// `replay_dag` of the workload's plan on a [`Platform`] whose GEMM,
/// generation, scheduling and transport costs are this run's own probes.
/// Host↔device transfers are reference-count moves in the numeric engine,
/// so they cost nothing here.
pub fn probe_sim(p: &Problem, plan: &Plan, host: &HostRates) -> SimProbe {
    let free_bw = 1e15;
    let platform = Platform {
        nodes: p.config.grid.nodes(),
        gpus_per_node: p.config.device.gpus_per_node,
        gpu_mem_bytes: p.config.device.gpu_mem_bytes,
        gemm_peak_flops: host.gemm_gflops * 1e9,
        gemm_eff_halfsize: 0.0,
        hbm_bw: free_bw,
        kernel_latency_s: host.sched_us_per_task * 1e-6,
        h2d_bw: free_bw,
        d2h_bw: free_bw,
        h2d_latency_s: 0.0,
        h2d_bulk_bw: free_bw,
        nic_bw: host.fabric_gbps * 1e9,
        nic_latency_s: 0.0,
        intra_bw: host.fabric_gbps * 1e9,
        intra_latency_s: 0.0,
        nic_msg_overhead_s: host.fabric_us_per_msg * 1e-6,
        cpu_gen_rate: host.genb_gbps * 1e9,
        ..Platform::summit(p.config.grid.nodes())
    };
    let t0 = Instant::now();
    let report = bst_sim::dag::replay_dag(&p.spec, &plan.0, &platform, &p.options(false));
    SimProbe {
        replay_s: t0.elapsed().as_secs_f64(),
        predicted_s: bst_sim::dag::makespan_s(&report),
    }
}
