//! The contraction service's memory high-water mark levels off: under two
//! concurrent clients, `VmHWM` after 200 requests stays within 1.15x of
//! `VmHWM` after the first 10. Engine workers that a process started afresh
//! for every contraction bound themselves to fresh malloc arenas, so the
//! memory one request freed stayed where the next request's threads did not
//! look, and the mark crept up request after request.
//!
//! A binary of its own, so no other test's allocations move the mark.
//! Its size is `bst serve --synthetic 200x1600x1600:0.5 --nodes 2
//! --clients 2`'s.

#![cfg(target_os = "linux")]

use std::sync::Arc;

use bst_contract::{
    ContractionRequest, ContractionService, DeviceConfig, ExecOptions, GridConfig,
    PlannerConfig, ProblemSpec, ServiceBGen, ServiceConfig,
};
use bst_sparse::generate::{generate, SyntheticParams};
use bst_sparse::BlockSparseMatrix;

/// This process's resident-set high-water mark, in kB.
fn vm_hwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).expect("a VmHWM line");
    line.split_whitespace().nth(1).and_then(|kb| kb.parse().ok()).expect("VmHWM in kB")
}

// About 10 s in a release build. Not met yet: the mark still moves 1.06x
// to 1.17x (1.27x to 1.45x with per-run workers), likely through the
// progress threads each run still starts; run it with `cargo test --release -p bst-contract --test
// service_high_water -- --ignored`.
#[test]
#[ignore = "the gate is not met yet (ROADMAP item 21)"]
fn high_water_levels_off_under_two_clients() {
    let (m, n, k, seed) = (200, 1600, 1600, 1);
    let prob = generate(&SyntheticParams {
        m,
        n,
        k,
        density: 0.5,
        tile_min: (m / 40).clamp(4, 512),
        tile_max: (m / 10).clamp(12, 2048),
        seed,
    });
    let spec = ProblemSpec::new(prob.a, prob.b, None);
    let config = PlannerConfig::paper(
        GridConfig::from_nodes(2, 1),
        DeviceConfig { gpus_per_node: 6, gpu_mem_bytes: 16 << 30 },
    );
    let a = Arc::new(BlockSparseMatrix::random_from_structure(spec.a.clone(), seed));
    let b_gen: ServiceBGen = Arc::new(bst_sparse::matrix::random_b_gen(seed ^ 0xB));
    let service = ContractionService::start(ServiceConfig {
        workers: 2,
        queue_capacity: 8,
        ..ServiceConfig::default()
    });
    let request = || ContractionRequest {
        a: Arc::clone(&a),
        b_structure: spec.b.clone(),
        b_gen: Arc::clone(&b_gen),
        b_key: seed,
        c_shape: None,
        config,
        opts: ExecOptions::default(),
    };
    // Two clients, `each` requests apiece.
    let serve = |each: usize| {
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| (0..each).for_each(|_| drop(service.run(request()).unwrap())));
            }
        })
    };
    serve(5);
    let after_10 = vm_hwm_kb();
    serve(95);
    let after_200 = vm_hwm_kb();
    service.shutdown();
    eprintln!("VmHWM {after_10} kB after 10 requests, {after_200} kB after 200");
    assert!(
        after_200 as f64 <= 1.15 * after_10 as f64,
        "VmHWM grew from {after_10} kB after 10 requests to {after_200} kB after 200"
    );
}

