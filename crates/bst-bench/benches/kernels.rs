//! Criterion benches of the tile GEMM kernels — the compute substrate the
//! simulated GPU executors run on. Measures the naive / blocked / packed
//! kernels across the tile shapes the paper cares about (small irregular
//! tiles up to the ~728-edge "peak" tile).

use bst_tile::gemm::{
    gemm_blocked, gemm_naive, gemm_packed, gemm_packed_4x8, gemm_packed_8x4, gemm_packed_8x8,
};
use bst_tile::kernel::{select_heuristic, GemmFn};
use bst_tile::Tile;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_kernels(c: &mut Criterion) {
    let variants: [(&str, GemmFn); 6] = [
        ("naive", gemm_naive),
        ("blocked", gemm_blocked),
        ("packed4x4", gemm_packed),
        ("packed8x4", gemm_packed_8x4),
        ("packed4x8", gemm_packed_4x8),
        ("packed8x8", gemm_packed_8x8),
    ];
    let mut group = c.benchmark_group("tile_gemm");
    for &edge in &[32usize, 64, 128, 256] {
        let a = Tile::random(edge, edge, 1);
        let b = Tile::random(edge, edge, 2);
        let flops = 2 * (edge as u64).pow(3);
        group.throughput(Throughput::Elements(flops));
        for (name, kernel) in variants {
            group.bench_with_input(BenchmarkId::new(name, edge), &edge, |bench, _| {
                let mut out = Tile::zeros(edge, edge);
                bench.iter(|| kernel(1.0, &a, &b, &mut out));
            });
        }
        // The dispatch path the executor takes: shape rule + kernel call.
        group.bench_with_input(BenchmarkId::new("dispatch", edge), &edge, |bench, _| {
            let mut out = Tile::zeros(edge, edge);
            bench.iter(|| select_heuristic(edge, edge, edge).run(1.0, &a, &b, &mut out));
        });
    }
    group.finish();

    // The paper's skinny shapes: short-and-wide destination tiles.
    let mut group = c.benchmark_group("tile_gemm_skinny");
    for &(m, n, k) in &[(16usize, 256usize, 256usize), (64, 512, 128)] {
        let a = Tile::random(m, k, 1);
        let b = Tile::random(k, n, 2);
        group.throughput(Throughput::Elements(2 * (m * n * k) as u64));
        group.bench_with_input(
            BenchmarkId::new("blocked", format!("{m}x{n}x{k}")),
            &m,
            |bench, _| {
                let mut out = Tile::zeros(m, n);
                bench.iter(|| gemm_blocked(1.0, &a, &b, &mut out));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
