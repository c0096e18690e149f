//! Service-level test battery for the persistent contraction engine:
//! concurrent clients against the one-shot reference, the solver's sweep
//! pattern (stationary B, fresh A) against one-shot runs, LRU eviction under
//! a tightened B budget, admission-control rejection, and the PR-3 fault
//! seeds replayed through the cached-plan path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use bst_contract::engine::execute;
use bst_contract::{
    validate_trace_invariants, BstError, ContractionRequest, ContractionService, DeviceConfig,
    ExecOptions, ExecutionPlan, FaultPlan, GridConfig, PlannerConfig, ProblemSpec, ServiceBGen,
    ServiceConfig, ServiceError,
};
use bst_sparse::generate::{generate, SyntheticParams};
use bst_sparse::matrix::tile_seed;
use bst_sparse::BlockSparseMatrix;
use bst_tile::TilePool;

const GPU_MEM: u64 = 1 << 20;
const SEED: u64 = 21;

fn spec() -> ProblemSpec {
    let prob = generate(&SyntheticParams {
        m: 60,
        n: 480,
        k: 480,
        density: 0.6,
        tile_min: 8,
        tile_max: 16,
        seed: SEED,
    });
    ProblemSpec::new(prob.a, prob.b, None)
}

fn config(p: usize, q: usize) -> PlannerConfig {
    PlannerConfig::paper(
        GridConfig { p, q },
        DeviceConfig {
            gpus_per_node: 2,
            gpu_mem_bytes: GPU_MEM,
        },
    )
}

fn service_b_gen() -> ServiceBGen {
    Arc::new(|k, j, r, c, pool: &TilePool| {
        Ok(Arc::new(pool.random(r, c, tile_seed(SEED ^ 0xB, k, j))))
    })
}

fn request(spec: &ProblemSpec, a: &Arc<BlockSparseMatrix>, cfg: PlannerConfig) -> ContractionRequest {
    ContractionRequest {
        a: Arc::clone(a),
        b_structure: spec.b.clone(),
        b_gen: service_b_gen(),
        b_key: 0xB0,
        c_shape: None,
        config: cfg,
        opts: ExecOptions::default(),
    }
}

/// The serial one-shot reference the service must reproduce byte-for-byte,
/// with the bytes of B it generated: a fresh plan and a fresh B every call.
fn one_shot(
    spec: &ProblemSpec,
    a: &BlockSparseMatrix,
    cfg: PlannerConfig,
) -> (BlockSparseMatrix, u64) {
    let plan = ExecutionPlan::build(spec, cfg).unwrap();
    let gen_bytes = AtomicU64::new(0);
    let b_gen = |k: usize, j: usize, r: usize, c: usize, pool: &TilePool| {
        gen_bytes.fetch_add((r * c * 8) as u64, Ordering::Relaxed);
        Ok(Arc::new(pool.random(r, c, tile_seed(SEED ^ 0xB, k, j))))
    };
    let (c, _) = execute(spec, &plan, a, &b_gen, ExecOptions::default()).unwrap();
    (c, gen_bytes.into_inner())
}

/// N client threads × M iterations hammer one service concurrently; every
/// result is bit-identical to the serial one-shot run, and after the first
/// wave of misses the caches carry the load (plan hits, B bytes saved).
#[test]
fn concurrent_clients_match_serial_one_shot_bitwise() {
    const CLIENTS: usize = 4;
    const ITERS: usize = 3;
    let s = spec();
    let cfg = config(1, 2);
    let a = Arc::new(BlockSparseMatrix::random_from_structure(s.a.clone(), SEED));
    let (reference, _) = one_shot(&s, &a, cfg);

    let service = ContractionService::start(ServiceConfig {
        workers: CLIENTS,
        queue_capacity: CLIENTS * ITERS,
        ..ServiceConfig::default()
    });
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                for _ in 0..ITERS {
                    let out = service.run(request(&s, &a, cfg)).expect("request");
                    assert_eq!(
                        out.c.max_abs_diff(&reference),
                        0.0,
                        "service result diverged from serial one-shot"
                    );
                }
            });
        }
    });
    let stats = service.stats();
    assert_eq!(stats.requests_completed, (CLIENTS * ITERS) as u64);
    assert_eq!(stats.requests_failed, 0);
    assert_eq!(
        stats.plan_hits + stats.plan_misses,
        (CLIENTS * ITERS) as u64,
        "every request resolves through the plan cache exactly once"
    );
    assert!(stats.plan_hits > 0, "12 identical requests must share plans");
    assert!(stats.b_bytes_saved > 0, "stationary B must be served from cache");
}

/// The solver pattern of §5: sequential sweeps with a stationary B (same
/// structure, same generator, same key) and a fresh A each sweep. Every
/// sweep is bit-identical to its one-shot run; after the cold sweep the plan
/// comes from the cache and B from resident tiles, so the service generates
/// at least 5x less B than the one-shot runs do; a traced warm sweep keeps
/// every trace invariant.
#[test]
fn solver_sweeps_reuse_plan_and_stationary_b() {
    const SWEEPS: usize = 12;
    let s = spec();
    let cfg = config(1, 2);
    let service_gen_bytes = Arc::new(AtomicU64::new(0));
    let b_gen: ServiceBGen = {
        let counter = Arc::clone(&service_gen_bytes);
        Arc::new(move |k, j, r, c, pool: &TilePool| {
            counter.fetch_add((r * c * 8) as u64, Ordering::Relaxed);
            Ok(Arc::new(pool.random(r, c, tile_seed(SEED ^ 0xB, k, j))))
        })
    };
    let sweep = |a: &Arc<BlockSparseMatrix>| ContractionRequest {
        b_gen: Arc::clone(&b_gen),
        ..request(&s, a, cfg)
    };
    let service = ContractionService::start(ServiceConfig {
        workers: 1, // sequential sweeps: each iteration consumes the last
        ..ServiceConfig::default()
    });

    let mut one_shot_gen_bytes = 0;
    for sweep_no in 0..SWEEPS {
        let a = Arc::new(BlockSparseMatrix::random_from_structure(
            s.a.clone(),
            SEED + sweep_no as u64,
        ));
        let (reference, gen_bytes) = one_shot(&s, &a, cfg);
        one_shot_gen_bytes += gen_bytes;
        let out = service.run(sweep(&a)).expect("sweep");
        assert_eq!(
            out.c.max_abs_diff(&reference),
            0.0,
            "sweep {sweep_no} diverged from its one-shot run"
        );
        assert_eq!(
            out.stats.plan_cache_hit,
            sweep_no > 0,
            "sweep {sweep_no}: only the cold sweep may build a plan"
        );
    }
    let service_gen_bytes = service_gen_bytes.load(Ordering::Relaxed);
    assert!(
        one_shot_gen_bytes >= 5 * service_gen_bytes.max(1),
        "B generation: one-shot {one_shot_gen_bytes} B, service {service_gen_bytes} B, \
below the 5x reduction"
    );

    let a = Arc::new(BlockSparseMatrix::random_from_structure(s.a.clone(), SEED));
    let mut traced = sweep(&a);
    traced.opts = ExecOptions::builder().tracing(true).build();
    let traced = service.run(traced).expect("traced sweep");
    let violations = validate_trace_invariants(&traced.report, GPU_MEM);
    assert!(violations.is_empty(), "traced sweep: {violations:?}");
    assert_eq!(service.stats().requests_failed, 0);
}

/// Tightening the B budget far below the working set forces evictions;
/// evicted tiles regenerate on the next request and the results stay
/// bit-identical — the cache is an optimisation, never a correctness knob.
#[test]
fn lru_eviction_under_tight_budget_regenerates_correctly() {
    let s = spec();
    let cfg = config(1, 2);
    let a = Arc::new(BlockSparseMatrix::random_from_structure(s.a.clone(), SEED));
    let (reference, _) = one_shot(&s, &a, cfg);

    // Room for a handful of 16×16 f64 tiles (2 KiB each) — far below the
    // full B working set, so the LRU must cycle.
    let service = ContractionService::start(ServiceConfig {
        workers: 1,
        b_cache_budget_bytes: 8 << 10,
        ..ServiceConfig::default()
    });
    for round in 0..3 {
        let out = service.run(request(&s, &a, cfg)).expect("request");
        assert_eq!(
            out.c.max_abs_diff(&reference),
            0.0,
            "round {round} diverged under eviction pressure"
        );
    }
    let stats = service.stats();
    assert!(stats.b_evictions > 0, "budget never forced an eviction: {stats:?}");
    assert!(
        stats.b_current_bytes <= 2 * (8 << 10),
        "resident bytes {} exceed the summed per-node budget",
        stats.b_current_bytes
    );
    // Warm rounds still regenerate what was evicted: misses beyond round 1.
    let cold_misses = stats.b_misses;
    let out = service.run(request(&s, &a, cfg)).expect("request");
    assert!(
        service.stats().b_misses > cold_misses || out.stats.b_cache.hits > 0,
        "a warm round must either hit or regenerate, never skip"
    );
}

/// A full queue rejects with the typed `QueueFull` error — and the service
/// keeps serving afterwards. The in-flight request is gated so the test
/// controls exactly when the worker frees capacity.
#[test]
fn queue_full_rejects_typed_and_service_survives() {
    let s = spec();
    let cfg = config(1, 1);
    let a = Arc::new(BlockSparseMatrix::random_from_structure(s.a.clone(), SEED));

    let service = ContractionService::start(ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServiceConfig::default()
    });

    // A generator gate: the first request blocks inside GenB until released,
    // pinning the single worker while we overfill the queue.
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let gated_gen: ServiceBGen = {
        let gate = Arc::clone(&gate);
        Arc::new(move |k, j, r, c, pool: &TilePool| {
            let (open, cv) = &*gate;
            let mut open = open.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
            drop(open);
            Ok(Arc::new(pool.random(r, c, tile_seed(SEED ^ 0xB, k, j))))
        })
    };
    let mut gated_req = request(&s, &a, cfg);
    gated_req.b_gen = gated_gen;

    let blocked = service.submit(gated_req).expect("first request admitted");
    // Wait until the worker has actually dequeued the gated request (the
    // queue is empty again), then fill the queue to capacity.
    while service.stats().in_flight_highwater == 0 {
        std::thread::yield_now();
    }
    let queued = service.submit(request(&s, &a, cfg)).expect("fills the queue");
    let err = service.submit(request(&s, &a, cfg)).unwrap_err();
    match err {
        BstError::Service(ServiceError::QueueFull { capacity }) => assert_eq!(capacity, 1),
        other => panic!("expected QueueFull, got {other}"),
    }
    assert_eq!(service.stats().requests_rejected, 1);

    // Release the gate: both admitted requests complete, and a fresh
    // submit is admitted again — the rejection left no residue.
    {
        let (open, cv) = &*gate;
        *open.lock().unwrap() = true;
        cv.notify_all();
    }
    blocked.wait().expect("gated request completes");
    queued.wait().expect("queued request completes");
    let again = service.run(request(&s, &a, cfg)).expect("service stays usable");
    assert_eq!(again.c.max_abs_diff(&one_shot(&s, &a, cfg).0), 0.0);
}

/// The PR-3 fault seeds replayed through the service: transient-fault
/// requests reuse the cached plan and still match the fault-free result;
/// a dead-node request resolves its *base* plan from the cache, re-plans
/// inside the engine, and its completion invalidates the cache entry —
/// observable as the next request's plan-cache miss.
#[test]
fn fault_seeds_replay_and_dead_node_invalidates_plan_cache() {
    let s = spec();
    let cfg = config(1, 2);
    let a = Arc::new(BlockSparseMatrix::random_from_structure(s.a.clone(), SEED));
    let service = ContractionService::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });

    // 1. Cold request populates the plan cache.
    let clean = service.run(request(&s, &a, cfg)).expect("cold");
    assert!(!clean.stats.plan_cache_hit);

    // 2. Transient faults (the PR-3 seed) ride the cached plan: same
    // numbers as the clean run, injections actually fired.
    let mut faulted_req = request(&s, &a, cfg);
    faulted_req.opts = ExecOptions::builder()
        .fault_plan(FaultPlan::transient(42, 0.08))
        .build();
    let faulted = service.run(faulted_req).expect("recovers");
    assert!(faulted.stats.plan_cache_hit, "transient faults must not bust the cache");
    assert!(
        faulted.c.max_abs_diff(&clean.c) < 1e-10,
        "recovered result diverged"
    );
    assert!(
        faulted.report.recovery.injected_genb
            + faulted.report.recovery.injected_alloc
            + faulted.report.recovery.injected_send
            > 0,
        "no faults injected: {:?}",
        faulted.report.recovery
    );

    // 3. Dead node: base plan comes from the cache (hit), the engine
    // re-plans internally, the result still matches, and the entry is
    // invalidated on completion.
    let mut dead_req = request(&s, &a, cfg);
    dead_req.opts = ExecOptions::builder()
        .fault_plan(FaultPlan::transient(5, 0.05).with_dead_node(1))
        .build();
    let degraded = service.run(dead_req).expect("degrades");
    assert!(degraded.stats.plan_cache_hit, "base plan resolves through the cache");
    assert_eq!(degraded.report.recovery.dead_nodes, vec![1]);
    assert!(degraded.report.recovery.replanned_columns > 0);
    assert!(degraded.c.max_abs_diff(&clean.c) < 1e-10, "degraded result diverged");

    // 4. The invalidation is observable: the next healthy request misses,
    // rebuilds, and the one after hits again.
    let rebuilt = service.run(request(&s, &a, cfg)).expect("rebuild");
    assert!(
        !rebuilt.stats.plan_cache_hit,
        "degraded completion must invalidate the cached base plan"
    );
    assert_eq!(rebuilt.c.max_abs_diff(&clean.c), 0.0);
    let warm = service.run(request(&s, &a, cfg)).expect("warm");
    assert!(warm.stats.plan_cache_hit);

    let stats = service.stats();
    assert_eq!(stats.plan_invalidations, 1);
    assert_eq!(stats.requests_completed, 5);
}

/// Distinct `b_key`s isolate structurally identical operands: a request
/// with a different generator and key never sees the other's tiles.
#[test]
fn b_key_isolates_operands_sharing_the_cache() {
    let s = spec();
    let cfg = config(1, 2);
    let a = Arc::new(BlockSparseMatrix::random_from_structure(s.a.clone(), SEED));
    let service = ContractionService::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });

    let first = service.run(request(&s, &a, cfg)).expect("first operand");
    // Same structure, different generator values, different key.
    let mut other = request(&s, &a, cfg);
    other.b_key = 0xB1;
    other.b_gen = Arc::new(|k, j, r, c, pool: &TilePool| {
        Ok(Arc::new(pool.random(r, c, tile_seed(0xD1FF, k, j))))
    });
    let second = service.run(other).expect("second operand");
    assert_eq!(
        second.stats.b_cache.hits, 0,
        "a different b_key must never hit the other operand's tiles"
    );
    assert!(
        first.c.max_abs_diff(&second.c) > 0.0,
        "different generators should produce different results"
    );
}
