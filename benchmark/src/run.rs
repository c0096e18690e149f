//! One run of one workload: set-up, the timed operations with their
//! correctness checks, and either the end-to-end metrics (untraced pass) or
//! the per-layer metrics (traced pass).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::adapter::{
    self, AValues, CommCounts, Dag, EngineLayer, HostRates, LaunchJob, Plan, PlanCounts, Problem,
    Service,
};
use crate::metrics::{BUSY_BY_KIND, END_TO_END, PER_LAYER, QUEUE_BY_KIND};
use crate::spans::SpanLog;
use crate::stats::{median, percentile};
use crate::workloads::{Drive, GemmShare, Input, ServiceLoad, Workload};

/// Where a run may write: traces, result files and socket files. Relative to
/// the repository root, which is where the benchmark is run from; socket
/// paths must stay short (`sun_path` holds about 100 bytes).
pub const OUT_DIR: &str = "benchmark/out";

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// The `b_key` the warm requests of `service_sweeps` share.
const HOT_KEY: u64 = 0xCC5D;

/// Fresh keys a service set-up may spend on filling the B cache before it
/// gives up; the budgets in `workloads.rs` are full after 4.
const MAX_FILL_KEYS: usize = 64;

/// A `b_key` no request of this process has used: a "cold" request must not
/// find the tiles an earlier loop or set-up cached.
fn fresh_key() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1 << 32);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Corrupt one C tile before it is checked (the smoke test's proof that
    /// the checks can fail).
    pub corrupt: bool,
}

/// `(name, value, unit, note)` of one printed metric.
pub type MetricLine = (&'static str, f64, &'static str, String);

pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    /// In registry order.
    pub metrics: Vec<MetricLine>,
    pub warnings: Vec<String>,
    pub errors: Vec<String>,
}

/// Operations attempted and failed: contractions, requests and launches that
/// errored **or failed their correctness check**.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }
}

/// Seconds each set-up step took.
#[derive(Clone, Copy, Default)]
struct SetupTimes {
    generate_s: f64,
    chem_build_s: f64,
    materialise_s: f64,
}

/// The in-process contraction of a workload: for `launch_uds` the same job
/// over the channel transport, for `service_sweeps` one request's work.
struct Twin {
    problem: Problem,
    plan: Plan,
    counts: PlanCounts,
    times: SetupTimes,
}

enum Kind<'w> {
    Contract,
    Service {
        service: Service,
        a_values: Vec<AValues>,
        load: &'w ServiceLoad,
    },
    Launch {
        job: Box<LaunchJob>,
    },
}

/// A set-up workload, ready for timed operations.
struct Bench<'w> {
    w: &'w Workload,
    twin: Twin,
    /// The digest every operation's result must match, per A value set.
    reference: Vec<u64>,
    kind: Kind<'w>,
}

/// What one operation measured.
struct OpStat {
    lat_s: f64,
    /// `service_sweeps`: the request used a fresh `b_key`.
    cold: bool,
    outcome: Result<(), String>,
    layer: Option<EngineLayer>,
    comm: CommCounts,
    pool: (u64, u64),
    frames: u64,
}

impl OpStat {
    fn new(lat_s: f64, outcome: Result<(), String>) -> OpStat {
        OpStat {
            lat_s,
            cold: false,
            outcome,
            layer: None,
            comm: CommCounts::default(),
            pool: (0, 0),
            frames: 0,
        }
    }
}

struct Samples {
    ops: Vec<OpStat>,
    window_s: f64,
}

impl Samples {
    fn latencies(&self) -> Vec<f64> {
        self.ops.iter().map(|o| o.lat_s).collect()
    }
}

/// One operation after another from this thread; `op` gets the 1-based
/// repetition id.
fn sequential(more: &dyn Fn(usize) -> bool, op: impl Fn(u32) -> OpStat) -> Vec<OpStat> {
    let mut ops = Vec::new();
    while more(ops.len()) {
        ops.push(op(ops.len() as u32 + 1));
    }
    ops
}

/// Every path the harness writes is relative to the repository root; refuse
/// to scatter `benchmark/out` directories anywhere else.
pub fn ensure_repo_root() -> Result<(), String> {
    if std::path::Path::new("benchmark/Cargo.toml").is_file() {
        Ok(())
    } else {
        Err("run perfbench from the repository root (no benchmark/Cargo.toml here)".into())
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

fn own_exe() -> Result<String, String> {
    std::env::current_exe()
        .map(|p| p.to_string_lossy().into_owned())
        .map_err(|e| format!("cannot locate own executable: {e}"))
}

// ---- Set-up -------------------------------------------------------------------

fn make_twin(
    w: &Workload,
    seed: u64,
    spans: &SpanLog,
) -> Result<(Twin, Option<LaunchJob>), String> {
    let mut times = SetupTimes::default();
    let mut job = None;
    let (structures, (a_seed, b_seed)) = match &w.input {
        Input::Synthetic(shape) => {
            let (s, dt) = timed(|| {
                spans.span("sparse.generate", 0, || {
                    adapter::generate_synthetic(shape, seed)
                })
            });
            times.generate_s = dt;
            (s, (seed ^ 0xA, seed ^ 0xB))
        }
        Input::Ccsd(chem) => {
            let (s, dt) = timed(|| spans.span("chem.build", 0, || adapter::build_ccsd(chem)));
            times.chem_build_s = dt;
            (s, (seed ^ 0xA, seed ^ 0xB))
        }
        Input::CliJob(shape) => {
            let j = adapter::launch_job(shape, &w.machine, seed, &own_exe()?)?;
            let (s, dt) = timed(|| spans.span("sparse.generate", 0, || j.structures()));
            times.generate_s = dt;
            let seeds = j.value_seeds();
            job = Some(j);
            (s?, seeds)
        }
    };
    let (problem, dt) = timed(|| {
        spans.span("sparse.materialise_a", 0, || {
            adapter::materialise(structures, &w.machine, a_seed, b_seed)
        })
    });
    times.materialise_s = dt;
    let plan = spans.span("plan.build", 0, || adapter::build_plan(&problem))?;
    let counts = adapter::plan_counts(&problem, &plan);
    Ok((
        Twin {
            problem,
            plan,
            counts,
            times,
        },
        job,
    ))
}

/// Everything before the first timed repetition: structures, A's tiles, the
/// plan, warm-up operations (service start and cold request, the in-process
/// twin and a warm launch) and the check against the naive oracle.
fn setup<'w>(
    w: &'w Workload,
    args: &RunArgs,
    spans: &SpanLog,
    tally: &mut Tally,
) -> Result<Bench<'w>, String> {
    let (twin, job) = make_twin(w, args.seed, spans)?;
    let p = &twin.problem;
    // The naive oracle vouches for one result; its digest then vouches for
    // every repetition.
    let vouch = |c: &mut adapter::CMatrix, a: Option<&AValues>, tally: &mut Tally| {
        if args.corrupt {
            c.corrupt();
        }
        let check = spans.span("check.naive", 0, || {
            adapter::check_against_naive(p, a, c, args.seed)
        });
        tally.record(if check.passed() {
            Ok(())
        } else {
            Err(format!(
                "naive check failed: {} tiles checked, max error {:e}, {} shape errors",
                check.tiles_checked, check.max_err, check.shape_errors
            ))
        });
        c.fingerprint()
    };
    let (reference, kind) = match &w.drive {
        Drive::Contract { warmups } => {
            for _ in 1..*warmups {
                let warm = spans.span("contract", 0, || adapter::contract(p, false));
                tally.record(warm.map(|_| ()));
            }
            let (mut c, _) = spans.span("contract", 0, || adapter::contract(p, false))?;
            (vec![vouch(&mut c, None, tally)], Kind::Contract)
        }
        Drive::Service(load) => {
            let service = spans.span("service.start", 0, || {
                Service::start(load.b_cache_budget_bytes)
            });
            let a_values: Vec<AValues> = (0..load.a_variants).map(|v| p.a_variant(v)).collect();
            let mut reference = Vec::with_capacity(a_values.len());
            // Variant 0 is the cold request; the rest warm the plan and B
            // caches and give every A value set its reference digest.
            for a in &a_values {
                let mut resp = spans.span("service.request", 0, || {
                    service.request(p, a, HOT_KEY, false)
                })?;
                reference.push(vouch(&mut resp.c, Some(a), tally));
            }
            // Fresh keys until the B cache is over its budget and evicts, so
            // that the timed window and `peak_rss_mb` both see the cache as
            // full as it will ever be.
            let mut fills = 0;
            while service.counters().b_evictions == 0 {
                if fills == MAX_FILL_KEYS {
                    return Err(format!(
                        "the B cache evicted nothing after {MAX_FILL_KEYS} fresh keys"
                    ));
                }
                let variant = fills % a_values.len();
                let resp = spans.span("service.request", 0, || {
                    service.request(p, &a_values[variant], fresh_key(), false)
                })?;
                tally.record(if resp.c.fingerprint() == reference[variant] {
                    Ok(())
                } else {
                    Err("a cache-fill response is not bit-identical to its reference".into())
                });
                fills += 1;
            }
            (
                reference,
                Kind::Service {
                    service,
                    a_values,
                    load,
                },
            )
        }
        Drive::Launch => {
            let job = job.expect("a CLI job input always carries its launch job");
            let (mut c, _) = spans.span("contract", 0, || adapter::contract(p, false))?;
            let reference = vouch(&mut c, None, tally);
            // The fleet must be bit-identical to the channel transport.
            let warm = spans.span("net.launch", 0, || adapter::launch(&job, p))?;
            tally.record(if warm.c.fingerprint() == reference {
                Ok(())
            } else {
                Err("the launched fleet's result differs from the in-process run".into())
            });
            (vec![reference], Kind::Launch { job: Box::new(job) })
        }
    };
    Ok(Bench {
        w,
        twin,
        reference,
        kind,
    })
}

// ---- Timed operations -----------------------------------------------------------

impl Bench<'_> {
    /// Runs operations back to back for `budget_s` seconds and at least
    /// `min_ops` operations. Handing in the lowered `dag` turns on the
    /// engine's own tracing (the DAG is what its task records are read
    /// against); `in_process` makes `launch_uds` run its in-process twin
    /// instead of the worker fleet (tracing does not cross processes).
    fn ops(
        &self,
        spans: &SpanLog,
        budget_s: f64,
        min_ops: usize,
        in_process: bool,
        dag: Option<&Dag>,
    ) -> Samples {
        let traced = dag.is_some();
        let start = Instant::now();
        let more = |done: usize| done < min_ops || start.elapsed().as_secs_f64() < budget_s;
        let ops = match &self.kind {
            Kind::Service {
                service,
                a_values,
                load,
            } => self.service_ops(spans, service, a_values, load, dag, &more),
            Kind::Launch { job } if !in_process => sequential(&more, |rep| {
                let (r, lat_s) = timed(|| {
                    spans.span("net.launch", rep, || {
                        adapter::launch(job, &self.twin.problem)
                    })
                });
                match r {
                    Ok(l) => OpStat {
                        frames: l.frames,
                        ..OpStat::new(lat_s, self.matches(0, l.c.fingerprint()))
                    },
                    Err(e) => OpStat::new(lat_s, Err(e)),
                }
            }),
            Kind::Contract | Kind::Launch { .. } => sequential(&more, |rep| {
                let (r, lat_s) = timed(|| {
                    spans.span("contract", rep, || {
                        adapter::contract(&self.twin.problem, traced)
                    })
                });
                match r {
                    Ok((c, report)) => OpStat {
                        layer: report.engine_layer(dag, self.w.machine.gpus_per_node),
                        comm: report.comm(),
                        pool: report.pool_takes(),
                        ..OpStat::new(lat_s, self.matches(0, c.fingerprint()))
                    },
                    Err(e) => OpStat::new(lat_s, Err(e)),
                }
            }),
        };
        Samples {
            ops,
            window_s: start.elapsed().as_secs_f64(),
        }
    }

    fn matches(&self, variant: usize, digest: u64) -> Result<(), String> {
        if digest == self.reference[variant] {
            Ok(())
        } else {
            Err(format!(
                "result for A value set {variant} is not bit-identical to its reference"
            ))
        }
    }

    /// The closed loop: each client sends its next request only after the
    /// previous one completed.
    fn service_ops(
        &self,
        spans: &SpanLog,
        service: &Service,
        a_values: &[AValues],
        load: &ServiceLoad,
        dag: Option<&Dag>,
        more: &(dyn Fn(usize) -> bool + Sync),
    ) -> Vec<OpStat> {
        let traced = dag.is_some();
        let issued = AtomicU64::new(0);
        let ops = Mutex::new(Vec::new());
        let parent = spans.current();
        std::thread::scope(|s| {
            for _ in 0..load.clients {
                s.spawn(|| {
                    spans.adopt(parent);
                    loop {
                        let i = issued.fetch_add(1, Ordering::Relaxed);
                        if !more(i as usize) {
                            break;
                        }
                        let variant = (i % a_values.len() as u64) as usize;
                        let cold = i % load.fresh_every == load.fresh_every - 1;
                        let key = if cold { fresh_key() } else { HOT_KEY };
                        let (r, lat_s) = timed(|| {
                            spans.span("service.request", i as u32 + 1, || {
                                service.request(&self.twin.problem, &a_values[variant], key, traced)
                            })
                        });
                        let op = match r {
                            Ok(resp) => OpStat {
                                cold,
                                layer: resp.report.engine_layer(dag, self.w.machine.gpus_per_node),
                                comm: resp.report.comm(),
                                pool: resp.report.pool_takes(),
                                ..OpStat::new(lat_s, self.matches(variant, resp.c.fingerprint()))
                            },
                            Err(e) => OpStat {
                                cold,
                                ..OpStat::new(lat_s, Err(e))
                            },
                        };
                        ops.lock().expect("a client panicked").push(op);
                    }
                });
            }
        });
        ops.into_inner().expect("a client panicked")
    }
}

// ---- The two passes ---------------------------------------------------------------

pub fn run(w: &Workload, args: &RunArgs) -> Result<RunOutput, String> {
    ensure_repo_root()?;
    std::fs::create_dir_all(format!("{OUT_DIR}/tmp"))
        .map_err(|e| format!("cannot create {OUT_DIR}/tmp: {e}"))?;
    // `bst_net::launch` binds its sockets under the temp dir; keep them
    // inside the checkout, on a short relative path.
    std::env::set_var("TMPDIR", format!("{OUT_DIR}/tmp"));
    let mut tally = Tally::default();
    let (metrics, warnings) = if args.trace {
        traced_pass(w, args, &mut tally)?
    } else {
        (untraced_pass(w, args, &mut tally)?, Vec::new())
    };
    Ok(RunOutput {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        warnings,
        errors: tally.errors,
    })
}

fn tally_ops(tally: &mut Tally, samples: &mut Samples) {
    for op in &mut samples.ops {
        tally.record(std::mem::replace(&mut op.outcome, Ok(())));
    }
}

fn untraced_pass(
    w: &Workload,
    args: &RunArgs,
    tally: &mut Tally,
) -> Result<Vec<MetricLine>, String> {
    let spans = SpanLog::new(false);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut bench = None;
    let mut first_setup_rss_mb = 0.0;
    for rep in 0..SETUP_REPS {
        // Never two service caches or two copies of A alive at once.
        drop(bench.take());
        let (b, dt) = timed(|| setup(w, args, &spans, tally));
        setups.push(dt);
        bench = Some(b?);
        // The high-water mark of a fresh process through one whole set-up
        // repeats to a few percent. Later it creeps up by whatever freed
        // memory the allocator's per-thread arenas happen to keep (the traced
        // pass reports that as `proc.rss_growth_mb`).
        if rep == 0 {
            first_setup_rss_mb = peak_rss_mb();
        }
    }
    let bench = bench.expect("SETUP_REPS > 0");
    let mut samples = bench.ops(&spans, args.seconds, w.min_ops, false, None);
    tally_ops(tally, &mut samples);
    let lat = samples.latencies();
    let contract_s = percentile(&lat, w.op_pct);
    let values: BTreeMap<&str, (f64, String)> = [
        (
            "contract_s",
            (
                contract_s,
                format!(
                    "p{} of {} operations (median {:.6})",
                    w.op_pct,
                    lat.len(),
                    median(&lat)
                ),
            ),
        ),
        (
            "gflops",
            (
                bench.twin.counts.flops / contract_s / 1e9,
                "plan flops / contract_s".into(),
            ),
        ),
        (
            "peak_rss_mb",
            (
                first_setup_rss_mb,
                "VmHWM of this process after its first set-up".into(),
            ),
        ),
        (
            "setup_s",
            (median(&setups), format!("median of {SETUP_REPS} set-ups")),
        ),
    ]
    .into();
    Ok(END_TO_END
        .iter()
        .map(|m| {
            let (v, note) = values
                .get(m.name)
                .expect("every end-to-end metric is computed");
            (m.name, *v, m.unit, note.clone())
        })
        .collect())
}

type Metrics = BTreeMap<&'static str, f64>;

fn traced_pass(
    w: &Workload,
    args: &RunArgs,
    tally: &mut Tally,
) -> Result<(Vec<MetricLine>, Vec<String>), String> {
    let spans = SpanLog::new(true);
    let calib_s = host_calibration();
    let bench = spans.span("setup", 0, || setup(w, args, &spans, tally))?;
    let setup_rss_mb = peak_rss_mb();
    let (p, plan) = (&bench.twin.problem, &bench.twin.plan);
    let mut m = Metrics::new();

    // Planner and inspector, timed from outside.
    let plan_builds: Vec<f64> = (1..=5)
        .map(|rep| timed(|| spans.span("plan.build", rep, || adapter::build_plan(p))).1)
        .collect();
    let (dag, lower_s) = timed(|| spans.span("inspector.lower", 0, || adapter::lower(p, plan)));
    let (rank0, restrict_s) =
        timed(|| spans.span("inspector.restrict", 0, || adapter::restrict(&dag, 0)));
    drop(rank0);
    let times = bench.twin.times;
    let c = bench.twin.counts;
    m.extend([
        ("sparse.generate_s", times.generate_s),
        ("chem.build_s", times.chem_build_s),
        ("sparse.materialise_a_s", times.materialise_s),
        ("plan.build_s", median(&plan_builds)),
        ("plan.gemm_tasks", c.gemm_tasks as f64),
        ("plan.flops", c.flops),
        ("plan.blocks", c.blocks as f64),
        ("plan.chunks", c.chunks as f64),
        ("plan.a_network_bytes", c.a_network_bytes as f64),
        ("plan.b_generated_bytes", c.b_generated_bytes as f64),
        ("plan.load_imbalance", c.load_imbalance),
        ("inspector.lower_s", lower_s),
        ("inspector.restrict_s", restrict_s),
        ("inspector.dag_tasks", dag.tasks() as f64),
        ("inspector.dag_edges", dag.edges() as f64),
    ]);

    // Untraced operations first (the baseline of every ratio below), then a
    // third as many with the engine's tracing on.
    let min_untraced = (w.min_ops / 3).max(3);
    let min_traced = (w.min_ops / 9).max(2);
    let cpu0 = cpu_seconds();
    let mut untraced = spans.span("ops.untraced", 0, || {
        bench.ops(&spans, args.seconds * 0.4, min_untraced, false, None)
    });
    let cpu_s = cpu_seconds() - cpu0;
    // Read here: the engine's trace records and the probes' buffers are not
    // the operations' memory.
    m.insert("proc.rss_growth_mb", peak_rss_mb() - setup_rss_mb);
    tally_ops(tally, &mut untraced);
    // `launch_uds`: the same job in-process, for the transport's overhead.
    let mut twin_untraced = match bench.kind {
        Kind::Launch { .. } => Some(spans.span("ops.twin", 0, || {
            bench.ops(&spans, args.seconds * 0.15, min_untraced, true, None)
        })),
        _ => None,
    };
    if let Some(s) = &mut twin_untraced {
        tally_ops(tally, s);
    }
    let mut traced = spans.span("ops.traced", 0, || {
        bench.ops(&spans, args.seconds * 0.2, min_traced, true, Some(&dag))
    });
    tally_ops(tally, &mut traced);

    // The same statistic as the end-to-end `contract_s`.
    let op_time = |s: &Samples| percentile(&s.latencies(), w.op_pct);
    let op_s = op_time(&untraced);
    let in_process_s = twin_untraced.as_ref().map_or(op_s, op_time);
    m.insert(
        "engine.trace_overhead_frac",
        op_time(&traced) / in_process_s - 1.0,
    );
    let warnings = engine_metrics(&mut m, w, &traced.ops);

    // Micro-probes, each sized to this workload's own tiles and DAG; their
    // lengths follow the window, so a smoke run probes for milliseconds.
    let scale = (args.seconds / crate::DEFAULT_SECONDS).min(1.0);
    let tile = p.median_a_tile_elems();
    let (genb_s, genb_bytes) = spans.span("probe.genb", 0, || adapter::probe_genb(p, plan));
    let kernels = spans.span("probe.kernels", 0, || {
        adapter::probe_kernels(p, plan, args.seed, scale)
    });
    let pool_ns = spans.span("probe.pool", 0, || adapter::probe_pool(tile, scale));
    let sched_us = spans.span("probe.sched", 0, || adapter::probe_sched(&dag));
    let (fabric_us, fabric_gbps) =
        spans.span("probe.fabric", 0, || adapter::probe_fabric(tile, scale));
    let (enc, dec, crc) = spans.span("probe.codec", 0, || adapter::probe_codec(tile, scale));
    let socket = format!("{OUT_DIR}/tmp/probe-{}.sock", std::process::id());
    let (uds_rtt_us, uds_gbps) =
        spans.span("probe.uds", 0, || adapter::probe_uds(tile, &socket, scale))?;
    let host = HostRates {
        gemm_gflops: kernels.gflops_1t,
        genb_gbps: genb_bytes as f64 / genb_s / 1e9,
        sched_us_per_task: sched_us,
        fabric_us_per_msg: fabric_us,
        fabric_gbps,
    };
    let sim = spans.span("probe.sim", 0, || adapter::probe_sim(p, plan, &host));
    let lanes = w.machine.compute_lanes().min(nproc());
    m.extend([
        ("sparse.genb_s_1t", genb_s),
        ("sparse.genb_gbps_1t", host.genb_gbps),
        ("kernel.gflops_1t", kernels.gflops_1t),
        (
            "kernel.roofline_frac",
            c.flops / op_s / 1e9 / (kernels.gflops_1t * lanes as f64),
        ),
        ("kernel.flops_per_byte", kernels.flops_per_byte),
        ("kernel.median_task_flops", kernels.median_task_flops),
        ("pool.ns_per_take", pool_ns),
        ("runtime.sched_us_per_task", sched_us),
        ("comm.fabric_us_per_msg", fabric_us),
        ("comm.fabric_gbps", fabric_gbps),
        ("net.encode_gbps", enc),
        ("net.decode_gbps", dec),
        ("net.crc_gbps", crc),
        ("net.uds_rtt_us", uds_rtt_us),
        ("net.uds_gbps", uds_gbps),
        ("sim.replay_s", sim.replay_s),
        ("sim.predicted_s", sim.predicted_s),
        ("sim.model_ratio", sim.predicted_s / in_process_s),
        ("proc.cpu_s", cpu_s / untraced.ops.len() as f64),
        (
            "proc.cpu_util",
            cpu_s / (untraced.window_s * nproc() as f64),
        ),
        ("host.calib_s", calib_s),
        ("host.loadavg", loadavg()),
    ]);

    // Layers only one workload drives.
    match &bench.kind {
        Kind::Contract => {}
        Kind::Service { service, .. } => service_metrics(&mut m, service, &untraced),
        Kind::Launch { .. } => {
            // Spawn + mesh + teardown: the fleet on a job with next to no work.
            let trivial = adapter::Shape {
                m: 16,
                n: 32,
                k: 32,
                density: 1.0,
                tile_min: 4,
                tile_max: 12,
            };
            let job = adapter::launch_job(&trivial, &w.machine, args.seed, &own_exe()?)?;
            let twin = adapter::materialise(job.structures()?, &w.machine, 0, 0);
            let spawns: Vec<f64> = (0..3)
                .map(|_| timed(|| spans.span("net.spawn", 0, || adapter::launch(&job, &twin))))
                .map(|(r, dt)| r.map(|_| dt))
                .collect::<Result<_, _>>()?;
            m.extend([
                (
                    "net.frames",
                    untraced.ops.first().map_or(0.0, |o| o.frames as f64),
                ),
                ("net.spawn_s", median(&spawns)),
                ("net.overhead_frac", op_s / in_process_s - 1.0),
            ]);
        }
    }

    let trace_path = format!("{OUT_DIR}/{}.trace.json", w.name);
    std::fs::write(&trace_path, spans.chrome_trace(w.name).to_line())
        .map_err(|e| format!("cannot write {trace_path}: {e}"))?;

    for name in m.keys() {
        assert!(
            PER_LAYER.iter().any(|d| d.name == *name),
            "{name} is not a registered metric"
        );
    }
    let note = format!(
        "{} untraced + {} traced operations",
        untraced.ops.len() + twin_untraced.map_or(0, |s| s.ops.len()),
        traced.ops.len()
    );
    // A layer this workload does not drive reports 0.
    let metrics = PER_LAYER
        .iter()
        .map(|d| {
            (
                d.name,
                m.get(d.name).copied().unwrap_or(0.0),
                d.unit,
                note.clone(),
            )
        })
        .collect();
    Ok((metrics, warnings))
}

/// What the engine's own trace and reports say: which layer owns an
/// operation's time, and the counts that repeat on every repetition. Returns
/// the workload-shape warnings.
fn engine_metrics(m: &mut Metrics, w: &Workload, traced: &[OpStat]) -> Vec<String> {
    let median_of = |f: &dyn Fn(&EngineLayer) -> f64| {
        let v: Vec<f64> = traced
            .iter()
            .filter_map(|o| o.layer.as_ref())
            .map(f)
            .collect();
        median(&v)
    };
    let mut busy_total = 0.0;
    for (kind, metric) in BUSY_BY_KIND {
        let busy = median_of(&|l| l.busy_s.get(kind).copied().unwrap_or(0.0));
        busy_total += busy;
        m.insert(metric, busy);
    }
    for (kind, metric) in QUEUE_BY_KIND {
        m.insert(
            metric,
            median_of(&|l| l.queue_s.get(kind).copied().unwrap_or(0.0)),
        );
    }
    let gemm_share = if busy_total > 0.0 {
        m["engine.busy_s.Gemm"] / busy_total
    } else {
        0.0
    };
    let first = traced.first().expect("at least one traced operation");
    let (hits, takes) = traced
        .iter()
        .fold((0, 0), |acc, o| (acc.0 + o.pool.0, acc.1 + o.pool.1));
    m.extend([
        ("engine.run_s", median_of(&|l| l.run_s)),
        ("engine.gemm_busy_frac", gemm_share),
        (
            "engine.gpu_lane_idle_frac",
            median_of(&|l| l.gpu_lane_idle_frac),
        ),
        ("engine.critical_path_s", median_of(&|l| l.critical_path_s)),
        ("engine.tasks_per_s", median_of(&|l| l.tasks_per_s)),
        ("engine.genb_overlap", median_of(&|l| l.genb_overlap)),
        ("comm.msgs", first.comm.msgs as f64),
        ("comm.bytes", first.comm.bytes as f64),
        ("comm.inter_bytes", first.comm.inter_bytes as f64),
        (
            "comm.max_in_flight",
            traced
                .iter()
                .map(|o| o.comm.max_in_flight)
                .max()
                .unwrap_or(0) as f64,
        ),
        (
            "pool.hit_frac",
            if takes > 0 {
                hits as f64 / takes as f64
            } else {
                0.0
            },
        ),
    ]);
    let off_regime = |relation: &str, want: f64| {
        format!(
            "Gemm is {:.0}% of traced busy time, {relation} the {:.0}% this workload was chosen for",
            gemm_share * 100.0,
            want * 100.0
        )
    };
    match w.gemm_share {
        GemmShare::AtLeast(want) if gemm_share < want => vec![off_regime("below", want)],
        GemmShare::AtMost(want) if gemm_share > want => vec![off_regime("above", want)],
        _ => Vec::new(),
    }
}

fn service_metrics(m: &mut Metrics, service: &Service, untraced: &Samples) {
    let s = service.counters();
    let frac = |hit: u64, miss: u64| match hit + miss {
        0 => 0.0,
        n => hit as f64 / n as f64,
    };
    let ms_p50 = |cold: bool| {
        let v: Vec<f64> = untraced
            .ops
            .iter()
            .filter(|o| o.cold == cold)
            .map(|o| o.lat_s * 1e3)
            .collect();
        median(&v)
    };
    m.extend([
        ("service.plan_hit_frac", frac(s.plan_hits, s.plan_misses)),
        ("service.b_hit_frac", frac(s.b_hits, s.b_misses)),
        ("service.b_evictions", s.b_evictions as f64),
        ("service.queue_highwater", s.queue_highwater as f64),
        (
            "service.req_per_s",
            untraced.ops.len() as f64 / untraced.window_s,
        ),
        (
            "service.req_p95_ms",
            percentile(&untraced.latencies(), 95.0) * 1e3,
        ),
        ("service.warm_req_ms_p50", ms_p50(false)),
        ("service.cold_req_ms_p50", ms_p50(true)),
    ]);
}

// ---- Process and host ---------------------------------------------------------------

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// High-water resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds of this process and the children it has waited
/// for, from `/proc/self/stat` (clock ticks; Linux reports them at 100 Hz).
fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // The command name may hold spaces; the fields follow its ')'.
            let rest = s.rsplit_once(')')?.1;
            let ticks: f64 = rest
                .split_whitespace()
                .skip(11)
                .take(4)
                .filter_map(|f| f.parse::<f64>().ok())
                .sum();
            Some(ticks / 100.0)
        })
        .unwrap_or(0.0)
}

fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// A fixed scalar loop (a serial chain of 1e8 multiply-xorshift steps): its
/// time moves with the box, not with the program.
fn host_calibration() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..100_000_000u32 {
        x = std::hint::black_box(x ^ (x >> 29)).wrapping_mul(0x5851_F42D_4C95_7F2D);
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64()
}
