//! Criterion benches of the dataflow runtime itself: task throughput of the
//! engine (the per-task overhead a PaRSEC-style system pays) and the numeric
//! end-to-end pipeline at small scale.

use bst_contract::{
    DeviceConfig, ExecOptions, ExecutionPlan, GridConfig, PlannerConfig, ProblemSpec,
};
use bst_runtime::engine::{infallible, Engine};
use bst_runtime::graph::{TaskGraph, WorkerId};
use bst_sparse::generate::{generate, SyntheticParams};
use bst_sparse::matrix::tile_seed;
use bst_sparse::BlockSparseMatrix;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

fn w(node: usize, lane: usize) -> WorkerId {
    WorkerId { node, lane }
}

fn bench_engine_throughput(c: &mut Criterion) {
    // A wide fan of trivial tasks over 8 workers: measures scheduler
    // overhead per task.
    let n = 20_000usize;
    let mut g: TaskGraph<usize> = TaskGraph::new();
    for i in 0..n {
        g.add_task(i, w(i % 4, i % 2));
    }
    let workers: Vec<WorkerId> = (0..4)
        .flat_map(|node| (0..2).map(move |lane| w(node, lane)))
        .collect();
    let mut group = c.benchmark_group("engine");
    group.throughput(Throughput::Elements(n as u64));
    group.sample_size(10);
    group.bench_function("independent_tasks", |b| {
        b.iter(|| {
            match Engine::new().run(
                &g,
                &workers,
                |_| 0u64,
                infallible(|&i: &usize, _, acc: &mut u64| {
                    *acc = acc.wrapping_add(i as u64);
                }),
            ) {
                Ok(_) => (),
                Err(abort) => match abort.error {},
            }
        });
    });

    // A dependency chain per worker: measures completion-propagation cost.
    let mut g2: TaskGraph<usize> = TaskGraph::new();
    let mut prev = [None; 8];
    for i in 0..n {
        let wi = i % 8;
        let t = g2.add_task(i, workers[wi]);
        if let Some(p) = prev[wi] {
            g2.add_dep(t, p);
        }
        prev[wi] = Some(t);
    }
    group.bench_function("chained_tasks", |b| {
        b.iter(|| {
            match Engine::new().run(
                &g2,
                &workers,
                |_| (),
                infallible(|_: &usize, _, _: &mut ()| {}),
            ) {
                Ok(_) => (),
                Err(abort) => match abort.error {},
            }
        });
    });
    group.finish();
}

fn bench_numeric_end_to_end(c: &mut Criterion) {
    let prob = generate(&SyntheticParams {
        m: 120,
        n: 600,
        k: 600,
        density: 0.5,
        tile_min: 16,
        tile_max: 48,
        seed: 5,
    });
    let spec = ProblemSpec::new(prob.a.clone(), prob.b.clone(), None);
    let config = PlannerConfig::paper(
        GridConfig { p: 2, q: 2 },
        DeviceConfig {
            gpus_per_node: 2,
            gpu_mem_bytes: 1 << 20,
        },
    );
    let plan = ExecutionPlan::build(&spec, config).unwrap();
    let a = BlockSparseMatrix::random_from_structure(prob.a, 1);
    let flops = plan.stats(&spec).total_flops as u64;
    let mut group = c.benchmark_group("numeric_pipeline");
    group.sample_size(10);
    group.throughput(Throughput::Elements(flops));
    group.bench_function("execute_4nodes_8gpus", |b| {
        b.iter(|| {
            let b_gen = |k: usize, j: usize, r: usize, cc: usize, pool: &bst_tile::TilePool| {
                Ok(std::sync::Arc::new(pool.random(r, cc, tile_seed(2, k, j))))
            };
            bst_contract::engine::execute(&spec, &plan, &a, &b_gen, ExecOptions::default()).unwrap()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_engine_throughput, bench_numeric_end_to_end);
criterion_main!(benches);
