//! End-to-end numeric-execution tests, exercised purely through the public
//! plan-level door (`bst_contract::engine::execute`), so they gate the
//! *public* surface, not the engine internals.

use std::sync::Arc;

use bst_contract::engine::execute;
use bst_contract::engine::inspector::{self, Op};
use bst_contract::{
    DeviceConfig, ExecError, ExecOptions, ExecutionPlan, FaultPlan, GenError, GridConfig,
    PlannerConfig, ProblemSpec, RetryPolicy,
};
use bst_sparse::generate::{generate, SyntheticParams};
use bst_sparse::matrix::tile_seed;
use bst_sparse::{BlockSparseMatrix, MatrixStructure};
use bst_tile::pool::TilePool;
use bst_tile::Tiling;

fn cfg(p: usize, q: usize, g: usize, mem: u64) -> PlannerConfig {
    PlannerConfig::paper(
        GridConfig { p, q },
        DeviceConfig {
            gpus_per_node: g,
            gpu_mem_bytes: mem,
        },
    )
}

/// Runs the full pipeline and compares against the single-threaded
/// block-sparse reference.
fn check(spec: &ProblemSpec, config: PlannerConfig, seed: u64) {
    let plan = ExecutionPlan::build(spec, config).unwrap();
    let a = BlockSparseMatrix::random_from_structure(spec.a.clone(), seed);
    let b = BlockSparseMatrix::random_from_structure(spec.b.clone(), seed ^ 0xB);
    let b_gen = |k: usize, j: usize, rows: usize, cols: usize, pool: &TilePool| {
        let t = pool.random(rows, cols, tile_seed(seed ^ 0xB, k, j));
        assert_eq!(b.tile(k, j).unwrap(), &t, "b_gen consistent with matrix");
        Ok(Arc::new(t))
    };
    let (c, report) = execute(spec, &plan, &a, &b_gen, ExecOptions::default()).expect("fault-free run");

    let mut c_ref =
        BlockSparseMatrix::zeros(spec.a.row_tiling().clone(), spec.b.col_tiling().clone());
    c_ref.gemm_acc_reference(&a, &b);
    let c_ref = if let Some(cs) = &spec.c_shape {
        let mut masked =
            BlockSparseMatrix::zeros(spec.a.row_tiling().clone(), spec.b.col_tiling().clone());
        for (&(i, j), t) in c_ref.iter_tiles() {
            if cs.is_nonzero(i, j) {
                masked.insert_tile(i, j, t.clone());
            }
        }
        masked
    } else {
        c_ref
    };
    assert!(
        c.max_abs_diff(&c_ref) < 1e-9,
        "distributed result disagrees with reference"
    );
    assert!(report.gemm_tasks > 0);
}

#[test]
fn dense_single_node_single_gpu() {
    let a = MatrixStructure::dense(Tiling::uniform(8, 3), Tiling::uniform(10, 4));
    let b = MatrixStructure::dense(Tiling::uniform(10, 4), Tiling::uniform(12, 5));
    let spec = ProblemSpec::new(a, b, None);
    check(&spec, cfg(1, 1, 1, 1 << 20), 1);
}

#[test]
fn dense_grid_2x2_2gpus() {
    let a = MatrixStructure::dense(Tiling::uniform(12, 3), Tiling::uniform(16, 4));
    let b = MatrixStructure::dense(Tiling::uniform(16, 4), Tiling::uniform(20, 5));
    let spec = ProblemSpec::new(a, b, None);
    check(&spec, cfg(2, 2, 2, 1 << 20), 2);
}

#[test]
fn sparse_irregular_many_nodes() {
    let prob = generate(&SyntheticParams {
        m: 40,
        n: 120,
        k: 100,
        density: 0.5,
        tile_min: 5,
        tile_max: 17,
        seed: 7,
    });
    let spec = ProblemSpec::new(prob.a, prob.b, None);
    check(&spec, cfg(2, 3, 2, 1 << 20), 3);
}

#[test]
fn screened_c_shape() {
    let prob = generate(&SyntheticParams {
        m: 30,
        n: 80,
        k: 60,
        density: 0.6,
        tile_min: 4,
        tile_max: 12,
        seed: 9,
    });
    let mut cs = prob.c.shape().clone();
    let mut removed = 0;
    'outer: for i in 0..cs.rows() {
        for j in 0..cs.cols() {
            if cs.is_nonzero(i, j) && (i + j) % 3 == 0 {
                cs.zero_out(i, j);
                removed += 1;
                if removed >= 5 {
                    break 'outer;
                }
            }
        }
    }
    let spec = ProblemSpec::new(prob.a, prob.b, Some(cs));
    check(&spec, cfg(1, 2, 2, 1 << 20), 11);
}

#[test]
fn tight_memory_forces_many_blocks_and_chunks() {
    let a = MatrixStructure::dense(Tiling::uniform(16, 4), Tiling::uniform(24, 4));
    let b = MatrixStructure::dense(Tiling::uniform(24, 4), Tiling::uniform(24, 4));
    let spec = ProblemSpec::new(a, b, None);
    // One B column: 24x4 doubles = 768 B; C col: 16x4 = 512 B; total
    // 1280 ≤ block budget → mem ≥ 2560. Chunk budget 650 = 5 A tiles.
    let config = cfg(1, 1, 1, 2600);
    let plan = ExecutionPlan::build(&spec, config).unwrap();
    let stats = plan.stats(&spec);
    assert!(stats.num_blocks >= 6, "expected many blocks, got {}", stats.num_blocks);
    assert!(stats.num_chunks > stats.num_blocks);
    // A must be re-transferred for every block.
    assert!(stats.a_h2d_bytes > spec.a.bytes());
    check(&spec, config, 5);
}

#[test]
fn p2_matches_p1() {
    let prob = generate(&SyntheticParams {
        m: 24,
        n: 60,
        k: 60,
        density: 0.7,
        tile_min: 4,
        tile_max: 10,
        seed: 13,
    });
    let spec = ProblemSpec::new(prob.a, prob.b, None);
    check(&spec, cfg(1, 4, 1, 1 << 20), 17);
    check(&spec, cfg(2, 2, 1, 1 << 20), 17);
    check(&spec, cfg(4, 1, 1, 1 << 20), 17);
}

/// The device budget the §4 control edges keep a schedule within is
/// enforced, not advisory: a plan executed on devices smaller than the ones
/// it was planned for fails with a typed [`ExecError::DeviceOom`] instead of
/// a panic.
#[test]
fn removing_control_edges_causes_device_oom() {
    let a = MatrixStructure::dense(Tiling::uniform(16, 4), Tiling::uniform(24, 4));
    let b = MatrixStructure::dense(Tiling::uniform(24, 4), Tiling::uniform(24, 4));
    let spec = ProblemSpec::new(a, b, None);
    let mut plan = ExecutionPlan::build(&spec, cfg(1, 1, 1, 2600)).unwrap();
    // Every stack needs its C column (4 tiles of 128 B), those rows' A tiles
    // (4 more) and its B tile resident at once: 1152 B > 650 B, whatever
    // the order. (With the planned 2600 B the same plan runs fine:
    // `tight_memory_forces_many_blocks_and_chunks`.)
    plan.config.device.gpu_mem_bytes /= 4;
    let am = BlockSparseMatrix::random_from_structure(spec.a.clone(), 5);
    let b_gen = |k: usize, j: usize, r: usize, c: usize, pool: &TilePool| {
        Ok(Arc::new(pool.random(r, c, tile_seed(5 ^ 0xB, k, j))))
    };
    let err = execute(&spec, &plan, &am, &b_gen, ExecOptions::default()).unwrap_err();
    assert!(
        matches!(err, ExecError::DeviceOom { node: 0, gpu: 0, .. }),
        "expected a typed device OOM, got {err}"
    );
}

#[test]
fn tracing_populates_metrics_and_trace() {
    let a = MatrixStructure::dense(Tiling::uniform(8, 2), Tiling::uniform(8, 2));
    let b = MatrixStructure::dense(Tiling::uniform(8, 2), Tiling::uniform(8, 2));
    let spec = ProblemSpec::new(a, b, None);
    let config = cfg(1, 2, 1, 1 << 20);
    let plan = ExecutionPlan::build(&spec, config).unwrap();
    let am = BlockSparseMatrix::random_from_structure(spec.a.clone(), 1);
    let b_gen = |_k: usize, _j: usize, r: usize, c: usize, pool: &TilePool| {
        Ok(Arc::new(pool.random(r, c, 0)))
    };
    let (_c, report) = execute(
        &spec,
        &plan,
        &am,
        &b_gen,
        ExecOptions::builder().tracing(true).build(),
    )
    .unwrap();
    let trace = report.trace.as_ref().expect("trace requested");
    assert!(trace.total_ns > 0);
    // Every op kind that this dense 1x2 problem exercises shows up.
    // One trace record per lowered stack; one tally per planned product.
    let gemm = report.metrics.iter().find(|m| m.kind == "Gemm").unwrap();
    let low = inspector::lower(&spec, &plan, &ExecOptions::default());
    let stacks = (0..low.graph.len())
        .filter(|&id| matches!(low.graph.payload(id), Op::Gemm { .. }))
        .count();
    assert_eq!(gemm.count, stacks as u64);
    assert_eq!(report.gemm_tasks, plan.stats(&spec).total_tasks);
    assert!(gemm.count < report.gemm_tasks, "a dense problem stacks several rows per B tile");
    let genb = report.metrics.iter().find(|m| m.kind == "GenB").unwrap();
    assert_eq!(genb.count, report.b_tiles_generated);
    assert_eq!(genb.count, low.b_uses.len() as u64);
    // One record per task, each with a coherent span.
    assert_eq!(
        report.metrics.iter().map(|m| m.count).sum::<u64>(),
        trace.records.len() as u64
    );
    for r in &trace.records {
        assert!(r.span.ready_ns <= r.span.start_ns && r.span.start_ns <= r.span.end_ns);
    }
    // Device occupancy was sampled on every device and drains to zero.
    assert_eq!(trace.mem_samples.len(), report.devices.len());
    for ((_, _), samples) in &trace.mem_samples {
        assert!(!samples.is_empty());
        assert_eq!(samples.last().unwrap().1, 0, "all memory released");
    }
    // The exporters produce non-trivial output.
    let json = trace.chrome_trace_json();
    assert!(json.contains("\"ph\":\"X\"") && json.contains("\"ph\":\"C\""));
    let summary = report.text_summary(1 << 20);
    assert!(summary.contains("Gemm") && summary.contains("n0.g0"), "{summary}");
}

#[test]
fn untraced_report_has_no_trace() {
    let a = MatrixStructure::dense(Tiling::uniform(4, 2), Tiling::uniform(4, 2));
    let b = MatrixStructure::dense(Tiling::uniform(4, 2), Tiling::uniform(4, 2));
    let spec = ProblemSpec::new(a, b, None);
    let plan = ExecutionPlan::build(&spec, cfg(1, 1, 1, 1 << 20)).unwrap();
    let am = BlockSparseMatrix::random_from_structure(spec.a.clone(), 1);
    let b_gen = |_k: usize, _j: usize, r: usize, c: usize, pool: &TilePool| {
        Ok(Arc::new(pool.random(r, c, 0)))
    };
    let (_c, report) = execute(&spec, &plan, &am, &b_gen, ExecOptions::default()).unwrap();
    assert!(report.trace.is_none());
    assert!(report.metrics.is_empty());
    assert!(!report.recovery.any(), "zero-fault run reported recovery");
}

#[test]
fn a_tiles_go_one_hop_from_their_owner() {
    // A wide grid row (q = 4): every dense A tile is needed on three
    // remote nodes, and its owner sends it to each of them from its own CPU
    // lane — no other node forwards it — and the result stays exact.
    let a = MatrixStructure::dense(Tiling::uniform(8, 2), Tiling::uniform(8, 2));
    let b = MatrixStructure::dense(Tiling::uniform(8, 2), Tiling::uniform(16, 2));
    let spec = ProblemSpec::new(a, b, None);
    let config = cfg(1, 4, 1, 1 << 20);
    let plan = ExecutionPlan::build(&spec, config).unwrap();
    let am = BlockSparseMatrix::random_from_structure(spec.a.clone(), 1);
    let b_gen = |k: usize, j: usize, r: usize, c: usize, pool: &TilePool| {
        Ok(Arc::new(pool.random(r, c, tile_seed(2, k, j))))
    };
    let opts = ExecOptions::builder().tracing(true).build();
    let (c, report) = execute(&spec, &plan, &am, &b_gen, opts).unwrap();
    let low = inspector::lower(&spec, &plan, &opts);
    let trace = report.trace.as_ref().expect("trace requested");
    let mut sends = 0;
    for r in &trace.records {
        if let Op::SendA { i, k, .. } = &trace.ops[r.task] {
            let owner = inspector::owner_of(1, 4, *i as usize, *k as usize);
            let sent_by = inspector::cpu_lane(owner);
            assert_eq!(r.worker, sent_by, "{} not sent by its owner", trace.detail(r.task));
            sends += 1;
        }
    }
    let star: usize = low.sends.values().map(Vec::len).sum();
    assert_eq!(sends, star);
    assert_eq!(report.a_messages, star as u64);
    assert_eq!(report.a_network_bytes, plan.stats(&spec).a_network_bytes);
    let bm = BlockSparseMatrix::from_structure(spec.b.clone(), |k, j, r, cc| {
        bst_tile::Tile::random(r, cc, tile_seed(2, k, j))
    });
    let mut c_ref =
        BlockSparseMatrix::zeros(spec.a.row_tiling().clone(), spec.b.col_tiling().clone());
    c_ref.gemm_acc_reference(&am, &bm);
    assert!(c.max_abs_diff(&c_ref) < 1e-9);
}

/// The C tiles the blocks of a lowering reach with at least one product,
/// counted once per block: a block's stacks are lowered between its
/// `LoadBlock` and its `FlushBlock`, one block at a time.
fn reached_c_tiles(low: &inspector::Lowered) -> usize {
    let mut reached = 0;
    let mut block = std::collections::HashSet::new();
    for id in 0..low.graph.len() {
        match low.graph.payload(id) {
            Op::LoadBlock { .. } => block.clear(),
            Op::Gemm { j, rows, .. } => block.extend(low.rows_of(rows).iter().map(|&i| (i, *j))),
            Op::FlushBlock { .. } => reached += block.len(),
            _ => {}
        }
    }
    reached
}

/// Every C norm in the result's shape is the one `insert_tile` computes,
/// bit for bit, although the engine computes it where the tile is made: in
/// the flush and again after a `k`-split key's fold, on the rank that
/// folded it. One run splits dense columns along `k` on a 2×2 grid; one
/// assembles a 1×2 grid's tiles with two GPUs per node; one splits sparse
/// columns, so that some blocks hold C tiles none of their products reach.
/// Each runs twice, the second time into the C buffers the first one's
/// result left behind.
#[test]
fn c_shape_norms_are_exact() {
    let synthetic = |m, n, k, density, tile_min, tile_max, seed| {
        let prob = generate(&SyntheticParams { m, n, k, density, tile_min, tile_max, seed });
        ProblemSpec::new(prob.a, prob.b, None)
    };
    let dense = synthetic(24, 30, 120, 1.0, 6, 10, 70);
    let sparse = synthetic(320, 1280, 1280, 0.3, 24, 40, 3);
    let cases = [
        (&dense, cfg(2, 2, 1, 8 << 10), true, false),
        (&dense, cfg(1, 2, 2, 1 << 20), false, false),
        (&sparse, cfg(2, 2, 1, 160 << 10), true, true),
    ];
    for (spec, config, k_split, unreached) in cases {
        let plan = ExecutionPlan::build(spec, config).unwrap();
        let low = inspector::lower(spec, &plan, &ExecOptions::default());
        let split_ranks = low.reduce.iter().filter(|rn| rn.partials > rn.keys.len()).count();
        assert_eq!(split_ranks == low.reduce.len(), k_split, "{:?}", config.grid);
        let partials: usize = low.reduce.iter().map(|rn| rn.partials).sum();
        let reached = reached_c_tiles(&low);
        assert_eq!(reached < partials, unreached, "{:?}", config.grid);
        let am = BlockSparseMatrix::random_from_structure(spec.a.clone(), 1);
        let b_gen = |k: usize, j: usize, r: usize, c: usize, pool: &TilePool| {
            Ok(Arc::new(pool.random(r, c, tile_seed(2, k, j))))
        };
        for pass in ["first", "second"] {
            let (c, _) = execute(spec, &plan, &am, &b_gen, ExecOptions::default()).unwrap();
            let keys: usize = low.reduce.iter().map(|rn| rn.keys.len()).sum();
            assert_eq!(c.num_tiles(), keys);
            for (&(i, j), tile) in c.iter_tiles() {
                let want = (tile.frobenius_norm() as f32).max(f32::MIN_POSITIVE);
                assert_eq!(
                    c.structure().shape().norm(i, j).to_bits(),
                    want.to_bits(),
                    "C({i},{j}) on {:?}, {pass} run",
                    config.grid
                );
            }
        }
    }
}

#[test]
fn report_counts_network_and_gemms() {
    let a = MatrixStructure::dense(Tiling::uniform(8, 2), Tiling::uniform(8, 2));
    let b = MatrixStructure::dense(Tiling::uniform(8, 2), Tiling::uniform(8, 2));
    let spec = ProblemSpec::new(a, b, None);
    let config = cfg(1, 2, 1, 1 << 20);
    let plan = ExecutionPlan::build(&spec, config).unwrap();
    let am = BlockSparseMatrix::random_from_structure(spec.a.clone(), 1);
    let b_gen = |_k: usize, _j: usize, r: usize, c: usize, pool: &TilePool| {
        Ok(Arc::new(pool.random(r, c, 0)))
    };
    let (_c, report) = execute(&spec, &plan, &am, &b_gen, ExecOptions::default()).unwrap();
    assert_eq!(report.gemm_tasks, 4 * 4 * 4);
    let expect_net = plan.stats(&spec).a_network_bytes;
    assert_eq!(report.a_network_bytes, expect_net);
    assert_eq!(report.b_tiles_generated, 16);
    assert_eq!(report.devices.len(), 2);
}

/// The dispatched kernels produce the reference's numbers (within fp
/// associativity), the report names the variants that ran, and the
/// per-node tile pools actually recycle buffers on a multi-block run.
#[test]
fn dispatched_kernels_match_reference_and_pools_recycle() {
    let a = MatrixStructure::dense(Tiling::uniform(16, 4), Tiling::uniform(24, 4));
    let b = MatrixStructure::dense(Tiling::uniform(24, 4), Tiling::uniform(24, 4));
    let spec = ProblemSpec::new(a, b, None);
    let config = cfg(1, 1, 1, 2600); // tight: many blocks → pool reuse
    let plan = ExecutionPlan::build(&spec, config).unwrap();
    let am = BlockSparseMatrix::random_from_structure(spec.a.clone(), 5);
    let bm = BlockSparseMatrix::random_from_structure(spec.b.clone(), 5 ^ 0xB);
    let b_gen = |k: usize, j: usize, r: usize, c: usize, pool: &TilePool| {
        Ok(Arc::new(pool.random(r, c, tile_seed(5 ^ 0xB, k, j))))
    };
    let (c, r_heur) = execute(&spec, &plan, &am, &b_gen, ExecOptions::default()).unwrap();

    let mut c_ref =
        BlockSparseMatrix::zeros(spec.a.row_tiling().clone(), spec.b.col_tiling().clone());
    c_ref.gemm_acc_reference(&am, &bm);
    assert!(c.max_abs_diff(&c_ref) < 1e-10);

    // The dispatcher reports whatever it actually chose, totalling all
    // Gemm tasks.
    let dispatched: u64 = r_heur.gemm_kernel_counts.iter().map(|&(_, n)| n).sum();
    assert_eq!(dispatched, r_heur.gemm_tasks);
    assert!(!r_heur.gemm_kernel_counts.is_empty());
    // The fast path is live: on a host with AVX2+FMA (asked of the CPU, not
    // of the dispatcher) every Gemm that is not thin ran the SIMD kernel.
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        let thin: u64 = plan
            .gemm_shape_histogram(&spec)
            .iter()
            .filter(|&&((m, n, k), _)| m < 4 || n < 4 || k < 2)
            .map(|&(_, count)| count)
            .sum();
        let simd = r_heur.gemm_kernel_counts.iter().find(|&&(name, _)| name == "simd");
        assert_eq!(simd.map(|&(_, n)| n), Some(r_heur.gemm_tasks - thin));
    }

    // The single node's pool saw reuse: later blocks' C tiles and
    // generated B tiles come from recycled buffers.
    assert_eq!(r_heur.pool_stats.len(), 1);
    let ps = &r_heur.pool_stats[0];
    assert!(ps.hits > 0, "no pool reuse on a multi-block run: {ps:?}");
    assert!(ps.released > 0, "flushed B buffers never returned: {ps:?}");
}

/// On an irregular tiling no two B tiles share a length, and the node pool
/// still recycles B: a generated tile takes the best-fitting buffer an
/// earlier tile's last stack released.
#[test]
fn b_buffers_recycle_when_no_two_tiles_share_a_length() {
    // Prime edges: every B tile length `k·n` is distinct, and no C length
    // (5 or 7 times a column edge) equals a B length, so every hit is a B hit.
    let k_edges = [23, 29, 31, 37, 41, 43, 47];
    let n_edges = [
        71, 59, 89, 61, 97, 67, 101, 73, 83, 79, 113, 103, 131, 107, 127, 109, 139, 137, 149, 151,
    ];
    let a = MatrixStructure::dense(Tiling::from_sizes(&[5, 7]), Tiling::from_sizes(&k_edges));
    let b = MatrixStructure::dense(Tiling::from_sizes(&k_edges), Tiling::from_sizes(&n_edges));
    let lengths: std::collections::BTreeSet<u64> =
        k_edges.iter().flat_map(|k| n_edges.iter().map(move |n| k * n)).collect();
    assert_eq!(lengths.len(), k_edges.len() * n_edges.len());
    let spec = ProblemSpec::new(a, b, None);
    let plan = ExecutionPlan::build(&spec, cfg(1, 1, 1, 64 << 20)).unwrap();
    let am = BlockSparseMatrix::random_from_structure(spec.a.clone(), 31);
    let bm = BlockSparseMatrix::random_from_structure(spec.b.clone(), 31 ^ 0xB);
    let b_gen = |k: usize, j: usize, r: usize, c: usize, pool: &TilePool| {
        Ok(Arc::new(pool.random(r, c, tile_seed(31 ^ 0xB, k, j))))
    };
    let (c, report) = execute(&spec, &plan, &am, &b_gen, ExecOptions::default()).unwrap();

    let mut c_ref =
        BlockSparseMatrix::zeros(spec.a.row_tiling().clone(), spec.b.col_tiling().clone());
    c_ref.gemm_acc_reference(&am, &bm);
    assert!(c.max_abs_diff(&c_ref) < 1e-10);

    let ps = report.pool_stats[0];
    let b_takes = report.b_tiles_generated;
    assert_eq!(b_takes, lengths.len() as u64);
    assert_eq!(ps.hits + ps.misses, b_takes + c.iter_tiles().count() as u64);
    assert!(2 * ps.hits > b_takes, "{} of {b_takes} B takes hit: {ps:?}", ps.hits);
}

/// `ExecReport::max_concurrent_genb` measures real overlap from the trace:
/// with two pooled workers, the node's `GenB`s reach > 1, and never more
/// than the workers.
#[test]
fn genb_fanout_overlaps() {
    let a = MatrixStructure::dense(Tiling::uniform(12, 3), Tiling::uniform(36, 3));
    let b = MatrixStructure::dense(Tiling::uniform(36, 3), Tiling::uniform(36, 3));
    let spec = ProblemSpec::new(a, b, None);
    let plan = ExecutionPlan::build(&spec, cfg(1, 1, 1, 1 << 20)).unwrap();
    let am = BlockSparseMatrix::random_from_structure(spec.a.clone(), 3);
    // On a loaded (or single-core) machine two short GenB spans may never
    // be preempted mid-task, so force a rendezvous: the first generator
    // call spins until a second call is in flight. With real fan-out the
    // second worker arrives and both spans overlap.
    let entered = std::sync::atomic::AtomicUsize::new(0);
    let b_gen = |k: usize, j: usize, r: usize, c: usize, pool: &TilePool| {
        use std::sync::atomic::Ordering;
        let t = pool.random(r, c, tile_seed(3 ^ 0xB, k, j));
        entered.fetch_add(1, Ordering::SeqCst);
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(500);
        while entered.load(Ordering::SeqCst) < 2 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        Ok(Arc::new(t))
    };
    let opts = ExecOptions::builder().tracing(true).build();
    let (_c, report) = execute(&spec, &plan, &am, &b_gen, opts).unwrap();
    let in_flight = report.max_concurrent_genb();
    assert!(in_flight <= workers(), "{in_flight} GenBs in flight on {} workers", workers());
    if workers() > 1 {
        assert!(in_flight > 1, "the GenBs never overlapped");
    }
}

/// The engine's pooled workers: one per core.
fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// B streams through the host instead of piling up on it. On a small-tile
/// instance (many ragged tiles, as `ccsd_abcd` has), a large-tile one on
/// tight devices and a big-tile one on two devices whose quarter holds a
/// dozen tiles: exactly the B tiles some stack reads are generated; a
/// node's store never holds more than its A plus two tiles per device lane
/// and one per `GenB` it ran at once; and the device lanes start computing
/// before more than their first two tiles each are generated.
#[test]
fn b_is_generated_a_window_ahead_of_its_use() {
    let small = SyntheticParams {
        m: 60, n: 900, k: 900, density: 0.25, tile_min: 6, tile_max: 20, seed: 23,
    };
    let large = SyntheticParams {
        m: 256, n: 2560, k: 1280, density: 0.7, tile_min: 128, tile_max: 256, seed: 29,
    };
    let big = SyntheticParams {
        m: 384, n: 3072, k: 3072, density: 0.6, tile_min: 362, tile_max: 384, seed: 31,
    };
    let cases = [
        (&small, 1, 8u64 << 20, true),
        (&large, 1, 4 << 20, false),
        (&large, 1, 5 << 19, false),
        (&big, 2, 64 << 20, true),
    ];
    for (params, lanes, mem, some_unread) in cases {
        let prob = generate(params);
        let spec = ProblemSpec::new(prob.a, prob.b, None);
        let plan = ExecutionPlan::build(&spec, cfg(1, 1, lanes, mem)).unwrap();
        let am = BlockSparseMatrix::random_from_structure(spec.a.clone(), params.seed);
        let b_gen = |k: usize, j: usize, r: usize, c: usize, pool: &TilePool| {
            Ok(Arc::new(pool.random(r, c, tile_seed(params.seed ^ 0xB, k, j))))
        };
        let opts = ExecOptions::builder().tracing(true).build();
        let (_c, report) = execute(&spec, &plan, &am, &b_gen, opts).unwrap();

        // Generated == read by a stack; the planner's B volume (every tile
        // of every assigned column) is the upper bound.
        let low = inspector::lower(&spec, &plan, &opts);
        let mut read = std::collections::BTreeSet::new();
        for id in 0..low.graph.len() {
            if let Op::Gemm { k, j, .. } = low.graph.payload(id) {
                read.insert((low.graph.worker(id).node, *k, *j));
            }
        }
        assert_eq!(low.b_uses.len(), read.len());
        assert_eq!(report.b_tiles_generated, read.len() as u64);
        assert_eq!(plan.stats(&spec).b_generated_bytes, spec.b.bytes());
        let read_bytes: u64 =
            read.iter().map(|&(_, k, j)| spec.b.tile_bytes(k as usize, j as usize)).sum();
        assert_eq!(some_unread, read.len() < spec.b.nnz_tiles(), "unread B tiles");

        // Whatever the tiles' size, no window edge makes a `GenB` wait for
        // the stack right before its own tile's: generation overlaps compute.
        let genbs: Vec<usize> = (0..low.graph.len())
            .filter(|&id| matches!(low.graph.payload(id), Op::GenB { .. }))
            .collect();
        for (n, &genb) in genbs.iter().enumerate() {
            for &dep in low.graph.deps(genb) {
                assert!(n >= 2 && dep <= genbs[n - 2] + 1, "GenB #{n} waits for task {dep}");
            }
        }

        // Host residency: A, plus each lane's window and the late tiles of
        // the `GenB`s that ran at once (observed, so the bound does not grow
        // with the machine's cores).
        let a_bytes: u64 = am.iter_tiles().map(|(_, t)| t.stored_bytes()).sum();
        let largest = read.iter().map(|&(_, k, j)| spec.b.tile_bytes(k as usize, j as usize)).max().unwrap();
        let window = inspector::host_b_window_bytes(largest, lanes, report.max_concurrent_genb());
        let bound = a_bytes + window;
        let peak = *report.host_peak_bytes.iter().max().unwrap();
        assert!(peak <= bound, "host peak {peak} B > A {a_bytes} + window {window} B");
        assert!(a_bytes + read_bytes > 2 * bound, "instance too small to tell a stream from a pile");

        // The lanes compute while B is still being generated: until a first
        // stack ends, only each lane's first window of tiles can be.
        let records = &report.trace.as_ref().unwrap().records;
        let first_gemm = records.iter().filter(|r| r.kind == "Gemm").map(|r| r.span.start_ns).min().unwrap();
        let generated_by_then =
            records.iter().filter(|r| r.kind == "GenB" && r.span.end_ns <= first_gemm).count();
        assert!(
            generated_by_then <= lanes * inspector::GENB_WINDOW,
            "{generated_by_then} of {} GenB tasks ended before the first Gemm started",
            read.len()
        );
    }
}

/// A permanent generator failure aborts the run with the typed error;
/// a transient one is retried to success and counted in the report.
#[test]
fn generator_failures_abort_or_recover_by_transience() {
    let a = MatrixStructure::dense(Tiling::uniform(8, 2), Tiling::uniform(8, 2));
    let b = MatrixStructure::dense(Tiling::uniform(8, 2), Tiling::uniform(8, 2));
    let spec = ProblemSpec::new(a, b, None);
    let plan = ExecutionPlan::build(&spec, cfg(1, 1, 1, 1 << 20)).unwrap();
    let am = BlockSparseMatrix::random_from_structure(spec.a.clone(), 1);

    let permanent = |k: usize, j: usize, r: usize, c: usize, pool: &TilePool| {
        if (k, j) == (1, 2) {
            Err(GenError::Failed {
                k,
                j,
                reason: "backend gone".into(),
                transient: false,
            })
        } else {
            Ok(Arc::new(pool.random(r, c, 0)))
        }
    };
    let err = execute(&spec, &plan, &am, &permanent, ExecOptions::default()).unwrap_err();
    assert_eq!(
        err,
        ExecError::Gen(GenError::Failed {
            k: 1,
            j: 2,
            reason: "backend gone".into(),
            transient: false,
        })
    );

    // Transient: every tile's first generation attempt fails.
    let tried = std::sync::Mutex::new(std::collections::HashSet::new());
    let flaky = |k: usize, j: usize, r: usize, c: usize, pool: &TilePool| {
        if tried.lock().unwrap().insert((k, j)) {
            Err(GenError::Failed {
                k,
                j,
                reason: "timeout".into(),
                transient: true,
            })
        } else {
            Ok(Arc::new(pool.random(r, c, tile_seed(7, k, j))))
        }
    };
    let (c, report) = execute(&spec, &plan, &am, &flaky, ExecOptions::default()).unwrap();
    assert_eq!(report.recovery.retried_tasks, report.b_tiles_generated);
    assert_eq!(report.recovery.max_attempts, 2);
    let bm = BlockSparseMatrix::from_structure(spec.b.clone(), |k, j, r, cc| {
        bst_tile::Tile::random(r, cc, tile_seed(7, k, j))
    });
    let mut c_ref =
        BlockSparseMatrix::zeros(spec.a.row_tiling().clone(), spec.b.col_tiling().clone());
    c_ref.gemm_acc_reference(&am, &bm);
    assert!(c.max_abs_diff(&c_ref) < 1e-9, "recovered result wrong");
}

/// A budget too small for the generator's failure streak surfaces as
/// `RetryExhausted` carrying the last cause.
#[test]
fn retry_budget_exhaustion_reports_exhausted() {
    let a = MatrixStructure::dense(Tiling::uniform(4, 2), Tiling::uniform(4, 2));
    let b = MatrixStructure::dense(Tiling::uniform(4, 2), Tiling::uniform(4, 2));
    let spec = ProblemSpec::new(a, b, None);
    let plan = ExecutionPlan::build(&spec, cfg(1, 1, 1, 1 << 20)).unwrap();
    let am = BlockSparseMatrix::random_from_structure(spec.a.clone(), 1);
    let always_fail = |k: usize, j: usize, _r: usize, _c: usize, _p: &TilePool| {
        Err(GenError::Failed {
            k,
            j,
            reason: "hard down".into(),
            transient: true,
        })
    };
    let err = execute(
        &spec,
        &plan,
        &am,
        &always_fail,
        ExecOptions::builder()
            .retry(RetryPolicy { budget: 2, backoff_base_us: 0, backoff_max_us: 0 })
            .build(),
    )
    .unwrap_err();
    match err {
        ExecError::RetryExhausted { detail, attempts, cause } => {
            assert!(detail.starts_with("GenB("), "{detail}");
            assert_eq!(attempts, 2);
            assert!(cause.contains("hard down"), "{cause}");
        }
        other => panic!("expected RetryExhausted, got {other}"),
    }
}

/// The fluent builder produces the same options as `Default` when
/// untouched and sets every knob it exposes. (The policy-combination
/// matrix lives in `tests/policy_matrix.rs`.)
#[test]
fn builder_matches_default_and_sets_knobs() {
    let d = ExecOptions::default();
    let b = ExecOptions::builder().build();
    assert_eq!(b.tracing, d.tracing);
    assert!(b.fault_plan.is_none());
    let fp = FaultPlan::transient(9, 0.05);
    let o = ExecOptions::builder()
        .tracing(true)
        .fault_plan(fp)
        .retry(RetryPolicy { budget: 9, backoff_base_us: 1, backoff_max_us: 2 })
        .build();
    assert!(o.tracing);
    assert_eq!(o.fault_plan, Some(fp));
    assert_eq!(o.retry.budget, 9);
}

/// A B tile of the low-rank-friendly problem: geometrically decaying
/// spectrum (σ_p = e^{-1.5 p}), so rank ~9 reaches 1e-6 — well under the
/// 32×32 profitability ceiling of 15.
fn lowrank_b_tile(k: usize, j: usize, rows: usize, cols: usize) -> bst_tile::Tile {
    bst_tile::Tile::random_lowrank(rows, cols, tile_seed(31 ^ 0xB, k, j), 1.5)
}

/// Runs the low-rank-friendly problem twice — dense and at `tol` — and
/// returns `(c_dense, c_lossy, dense_sent_bytes, lossy_sent_bytes)`.
fn lossy_pair(tol: f64) -> (BlockSparseMatrix, BlockSparseMatrix, u64, u64) {
    let a = MatrixStructure::dense(Tiling::uniform(96, 32), Tiling::uniform(64, 32));
    let b = MatrixStructure::dense(Tiling::uniform(64, 32), Tiling::uniform(96, 32));
    let spec = ProblemSpec::new(a, b, None);
    let config = cfg(2, 2, 2, 1 << 20);
    let plan = ExecutionPlan::build(&spec, config).unwrap();
    let am = BlockSparseMatrix::from_structure(spec.a.clone(), |r, c, rows, cols| {
        bst_tile::Tile::random_lowrank(rows, cols, tile_seed(31, r, c), 1.5)
    });
    let b_gen = |k: usize, j: usize, rows: usize, cols: usize, _p: &TilePool| {
        Ok(Arc::new(lowrank_b_tile(k, j, rows, cols)))
    };
    let run = |tol: f64| {
        let opts = ExecOptions::builder().compress_tol(tol).build();
        execute(&spec, &plan, &am, &b_gen, opts).expect("run")
    };
    let (c_dense, rep_dense) = run(0.0);
    let (c_lossy, rep_lossy) = run(tol);
    let sent = |rep: &bst_contract::ExecReport| {
        rep.comm.iter().map(|n| n.sent_bytes).sum::<u64>()
    };
    (c_dense, c_lossy, sent(&rep_dense), sent(&rep_lossy))
}

/// A positive tolerance keeps the result within a small multiple of the
/// requested accuracy while strictly shrinking the bytes on the wire; at
/// the 1e-3 the low-rank workload is quoted at, the B tiles' stored bytes
/// at least halve and no tile exceeds the requested error.
#[test]
fn compression_tolerance_bounds_error_and_cuts_wire_bytes() {
    for tol in [1e-6, 1e-3] {
        let (c_dense, c_lossy, dense_bytes, lossy_bytes) = lossy_pair(tol);
        assert!(
            lossy_bytes < dense_bytes,
            "compressed run must ship fewer bytes ({lossy_bytes} vs {dense_bytes})"
        );
        let diff = c_lossy.max_abs_diff(&c_dense);
        assert!(
            diff < 1e3 * tol,
            "tol {tol:e}: lossy result drifted too far from dense: {diff:.3e}"
        );
        assert!(diff > 0.0, "a {tol:e} truncation should not be exact");
    }
    // The engine truncates each generated B tile with this `compressed` call.
    let tol = 1e-3;
    let (mut dense, mut stored, mut worst) = (0u64, 0u64, 0.0f64);
    for (k, j) in (0..2).flat_map(|k| (0..3).map(move |j| (k, j))) {
        let t = lowrank_b_tile(k, j, 32, 32);
        let lr = t.compressed(tol).expect("a decaying spectrum compresses at 1e-3");
        dense += t.bytes();
        stored += lr.stored_bytes();
        let err2: f64 = (0..32)
            .flat_map(|r| (0..32).map(move |c| (r, c)))
            .map(|(r, c)| (t.get(r, c) - lr.get(r, c)).powi(2))
            .sum();
        worst = worst.max(err2.sqrt() / t.frobenius_norm());
    }
    assert!(dense >= 2 * stored, "B tiles shrank only {dense} -> {stored} B at {tol:e}");
    assert!(worst <= tol, "a tile's truncation error {worst:.3e} exceeds the requested {tol:e}");
}
