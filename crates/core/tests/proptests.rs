//! Property tests for the planner's three heuristics (§3.2.1–§3.2.3), the
//! column-splitting extension, the lowering's "every C tile lives on one
//! rank" invariant, and the service layer's cache machinery
//! (structure-hash soundness, B-cache budget accounting, hit/miss
//! reconciliation).

use bst_contract::assign::assign_columns;
use bst_contract::chunk::{build_chunks, needed_tiles_per_row};
use bst_contract::engine::inspector::{block_c_tiles, lower, Lowered, Op, REDUCE_ROOT};
use bst_contract::partition::{partition_spans, split_column, Block, ColumnSpan};
use bst_contract::service::hash;
use bst_contract::{
    DeviceConfig, ExecOptions, ExecutionPlan, GridConfig, PlannerConfig, ProblemSpec,
};
use bst_runtime::{BCacheKey, BTileCache};
use bst_sparse::generate::{generate, SyntheticParams};
use bst_tile::Tile;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;

/// A generated instance for the lowering properties: dense to sparse, with
/// or without a screened `c_shape` (as `ccsd_abcd` has), on grids of one to
/// six nodes and devices from "everything resident" down to budgets tight
/// enough for several chunks per block and several blocks per column.
#[allow(clippy::too_many_arguments)]
fn lowering_instance(
    m: u64,
    n: u64,
    k: u64,
    tenths: u32,
    seed: u64,
    screened: bool,
    nodes_pick: usize,
    p_pick: usize,
    gpus: usize,
    mem_pick: usize,
) -> (ProblemSpec, ExecutionPlan) {
    let prob = generate(&SyntheticParams {
        m, n, k, density: f64::from(tenths) / 10.0, tile_min: 4, tile_max: 16, seed,
    });
    let c_shape = screened.then(|| {
        let mut shape =
            bst_sparse::SparseShape::dense(prob.a.row_tiling().num_tiles(), prob.b.col_tiling().num_tiles());
        for i in 0..shape.rows() {
            for j in 0..shape.cols() {
                if (i * 7 + j * 3 + seed as usize) % 4 == 0 {
                    shape.zero_out(i, j);
                }
            }
        }
        shape
    });
    let spec = ProblemSpec::new(prob.a, prob.b, c_shape);
    let nodes = [1, 2, 3, 4, 6][nodes_pick];
    let divisors: Vec<usize> = (1..=nodes).filter(|d| nodes % d == 0).collect();
    let p = divisors[p_pick % divisors.len()];
    // One C column plus two B tiles per block (columns split along k),
    // four times that, or everything resident.
    let tight = 2 * (m * 16 * 8 + 2 * 16 * 16 * 8);
    let gpu_mem_bytes = [tight, 4 * tight, 16 << 30][mem_pick];
    let config = PlannerConfig::paper(
        GridConfig::from_nodes(nodes, p),
        DeviceConfig { gpus_per_node: gpus, gpu_mem_bytes },
    );
    let plan = ExecutionPlan::build(&spec, config).expect("plan builds");
    (spec, plan)
}

/// One task of a lowering as plain data: payload, `(node, lane)`,
/// dependencies.
type TaskRow = (Op, (usize, usize), Vec<usize>);

/// A lowering as plain data: its tasks in id order, plus the stacks' row
/// table.
fn tasks_of(low: &Lowered) -> (Vec<TaskRow>, Vec<u32>) {
    let tasks = (0..low.graph.len())
        .map(|id| {
            let w = low.graph.worker(id);
            (low.graph.payload(id).clone(), (w.node, w.lane), low.graph.deps(id).to_vec())
        })
        .collect();
    (tasks, low.stack_rows.to_vec())
}

proptest! {
    /// Mirrored-cyclic assignment: every column exactly once, and totals
    /// within one max-weight of each other when weights are similar.
    #[test]
    fn assignment_covers_and_balances(
        weights in prop::collection::vec(0u128..1000, 1..120),
        q in 1usize..12,
    ) {
        let (cols, totals) = assign_columns(&weights, q);
        prop_assert_eq!(cols.len(), q);
        let mut seen = vec![false; weights.len()];
        for c in &cols {
            for &j in c {
                prop_assert!(!seen[j]);
                seen[j] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
        prop_assert_eq!(totals.iter().sum::<u128>(), weights.iter().sum::<u128>());
        // Balance: max - min bounded by twice the largest weight (mirrored
        // dealing bounds per-round drift by one weight gap).
        if let Some(&max_w) = weights.iter().max() {
            let spread = totals.iter().max().unwrap() - totals.iter().min().unwrap();
            prop_assert!(
                spread <= 2 * max_w * (weights.len() as u128 / q as u128 + 1),
                "spread {spread} too large for max weight {max_w}"
            );
        }
    }

    /// Dealt-then-packed partitioning: budget respected, every span placed
    /// once, per-GPU footprints within the largest footprint of each other
    /// (the LPT bound).
    #[test]
    fn partition_invariants(
        footprints in prop::collection::vec(1u64..100, 1..60),
        gpus in 1usize..8,
    ) {
        let spans: Vec<ColumnSpan> = (0..footprints.len())
            .map(|c| ColumnSpan::full(c, 4))
            .collect();
        let part = partition_spans(&spans, &footprints, gpus, 100);
        let mut seen = vec![false; spans.len()];
        for (_, block) in part.iter() {
            prop_assert!(block.bytes <= 100);
            for s in &block.spans {
                prop_assert!(!seen[s.col as usize]);
                seen[s.col as usize] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
        let shares: Vec<u64> =
            part.gpus.iter().map(|g| g.iter().map(|b| b.bytes).sum()).collect();
        let (mx, mn) = (shares.iter().max().unwrap(), shares.iter().min().unwrap());
        let largest = footprints.iter().max().unwrap();
        prop_assert!(mx - mn <= *largest, "per-GPU footprints {shares:?}");
    }

    /// Column splitting: parts tile the inner range contiguously, each
    /// non-zero tile lands in exactly one part, footprints fit.
    #[test]
    fn split_column_invariants(
        tile_bytes in prop::collection::vec(1u64..40, 1..40),
        c_bytes in 0u64..30,
        extra_budget in 10u64..80,
    ) {
        let budget = c_bytes + tile_bytes.iter().copied().max().unwrap() + extra_budget;
        // Non-zero tiles at every other inner index.
        let k_tiles: Vec<(usize, u64)> =
            tile_bytes.iter().enumerate().map(|(i, &b)| (2 * i, b)).collect();
        let inner = 2 * tile_bytes.len();
        let parts = split_column(5, inner, &k_tiles, c_bytes, budget).unwrap();
        prop_assert_eq!(parts[0].0.k_lo, 0);
        prop_assert_eq!(parts.last().unwrap().0.k_hi as usize, inner - 1);
        for w in parts.windows(2) {
            prop_assert_eq!(w[0].0.k_hi + 1, w[1].0.k_lo);
        }
        for (span, bytes) in &parts {
            prop_assert!(*bytes <= budget);
            prop_assert_eq!(span.col, 5);
        }
        for &(k, _) in &k_tiles {
            prop_assert_eq!(parts.iter().filter(|(s, _)| s.contains(k)).count(), 1);
        }
    }

    /// Chunking covers every needed A tile exactly once, within budget.
    #[test]
    fn chunk_invariants(seed in 0u64..300, budget_tiles in 1u64..10) {
        let prob = generate(&SyntheticParams {
            m: 24, n: 40, k: 40, density: 0.5, tile_min: 3, tile_max: 7, seed,
        });
        let spec = ProblemSpec::new(prob.a, prob.b, None);
        let block = Block {
            spans: (0..spec.tile_cols())
                .map(|c| ColumnSpan::full(c, spec.tile_inner()))
                .collect(),
            bytes: 0,
        };
        let rows = needed_tiles_per_row(&spec, &block, 0, 1);
        let budget = budget_tiles * 7 * 7 * 8;
        match build_chunks(&spec, &rows, budget) {
            Err(_) => {} // a single tile exceeding the budget is a valid outcome
            Ok(chunks) => {
                let mut seen = std::collections::HashSet::new();
                for ch in &chunks {
                    prop_assert!(ch.bytes <= budget);
                    prop_assert!(!ch.tiles.is_empty());
                    for t in &ch.tiles {
                        prop_assert!(seen.insert(*t), "tile {t:?} twice");
                    }
                }
                let expected: usize = rows.iter().map(|(_, ks)| ks.len()).sum();
                prop_assert_eq!(seen.len(), expected);
            }
        }
    }

    /// Structure-hash soundness: equal specs (built twice from the same
    /// seed) collide, and any mutation the planner can observe — screening
    /// a tile out, changing the grid, killing a node — moves the plan key;
    /// a pure norm perturbation (which the planner never reads, and which
    /// solver iterations produce every sweep) does not.
    #[test]
    fn plan_key_soundness(seed in 0u64..200, q in 1usize..4) {
        let params = SyntheticParams {
            m: 24, n: 64, k: 64, density: 0.6, tile_min: 3, tile_max: 7, seed,
        };
        let spec = |p: &SyntheticParams| {
            let prob = generate(p);
            ProblemSpec::new(prob.a, prob.b, None)
        };
        let cfg = PlannerConfig::paper(
            GridConfig { p: 1, q },
            DeviceConfig { gpus_per_node: 1, gpu_mem_bytes: 1 << 20 },
        );
        let s1 = spec(&params);
        let s2 = spec(&params);
        let base = hash::plan_key(&s1, &cfg, &[]);
        prop_assert_eq!(base, hash::plan_key(&s2, &cfg, &[]));

        // Screen one non-zero B tile out: the key must move.
        let mut screened = spec(&params);
        let first_nz = screened.b.shape().iter_nonzero().next();
        if let Some((r, c)) = first_nz {
            screened.b.shape_mut().zero_out(r, c);
            prop_assert_ne!(base, hash::plan_key(&screened, &cfg, &[]));
        }

        // Perturbing a screening norm without changing the pattern keeps
        // the key: plan reuse must survive amplitude drift across sweeps.
        let mut perturbed = spec(&params);
        let first_nz = perturbed.b.shape().iter_nonzero().next();
        if let Some((r, c)) = first_nz {
            let n = perturbed.b.shape().norm(r, c);
            perturbed.b.shape_mut().set_norm(r, c, n + 1.0);
            prop_assert_eq!(base, hash::plan_key(&perturbed, &cfg, &[]));
        }

        // A different grid is a different key even for the same structure.
        let other_grid = PlannerConfig::paper(
            GridConfig { p: 1, q: q + 1 },
            cfg.device,
        );
        prop_assert_ne!(base, hash::plan_key(&s1, &other_grid, &[]));

        // Dead nodes are part of the key.
        prop_assert_ne!(base, hash::plan_key(&s1, &cfg, &[0]));
    }

    /// B-cache accounting: under any interleaving of inserts and lookups
    /// the resident bytes never exceed the budget, the peak never exceeds
    /// it either, and hit + miss counts reconcile exactly with the lookup
    /// total.
    #[test]
    fn b_cache_budget_and_reconciliation(
        budget_tiles in 1u64..8,
        ops in prop::collection::vec((0u32..12, 0u32..12, 0u32..2), 1..120),
    ) {
        // Every tile is 4x4 f64 = 128 bytes; the budget holds a few.
        let tile_bytes = 4 * 4 * 8;
        let cache = BTileCache::with_budget(budget_tiles * tile_bytes);
        let mut lookups = 0u64;
        for &(k, j, insert_flag) in &ops {
            let key = BCacheKey { ident: 1, k, j };
            lookups += 1;
            let hit = cache.get(key).is_some();
            if !hit && insert_flag == 1 {
                cache.insert(key, Arc::new(Tile::zeros(4, 4)));
            }
            let s = cache.stats();
            prop_assert!(
                s.current_bytes <= budget_tiles * tile_bytes,
                "resident {} over budget {}", s.current_bytes, budget_tiles * tile_bytes
            );
            prop_assert!(s.peak_bytes <= budget_tiles * tile_bytes);
        }
        let s = cache.stats();
        prop_assert_eq!(s.hits + s.misses, lookups);
        // Residency is consistent with the insert/evict ledger.
        prop_assert_eq!(s.insertions - s.evictions, cache.len() as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// What lets C be gathered instead of reduced across ranks, and each
    /// process of a fleet return its own share of C: whatever the
    /// grid, the device size (down to devices so small that B columns split
    /// along `k` — there a rank holds several partials of one key) and the
    /// degraded re-plan around a dead node, the ranks' C key sets are
    /// pairwise disjoint and together are exactly C's kept structure; and
    /// the root awaits one gathered tile per key of every other rank.
    #[test]
    fn c_keys_are_disjoint_across_ranks(
        m in 40u64..=120,
        n in 120u64..=480,
        k in 120u64..=480,
        tenths in 3u32..=10,
        seed in 0u64..1000,
        nodes_pick in 0usize..5,
        p_pick in 0usize..8,
        gpus in 1usize..=2,
        mem_pick in 0usize..3,
        dead_pick in 0usize..12,
    ) {
        let prob = generate(&SyntheticParams {
            m, n, k, density: f64::from(tenths) / 10.0, tile_min: 4, tile_max: 16, seed,
        });
        let spec = ProblemSpec::new(prob.a, prob.b, None);
        let nodes = [1, 2, 3, 4, 6][nodes_pick];
        let divisors: Vec<usize> = (1..=nodes).filter(|d| nodes % d == 0).collect();
        let p = divisors[p_pick % divisors.len()];
        // One C column plus two B tiles per block (columns split along k),
        // four times that, or everything resident.
        let tight = 2 * (m * 16 * 8 + 2 * 16 * 16 * 8);
        let gpu_mem_bytes = [tight, 4 * tight, 16 << 30][mem_pick];
        let config = PlannerConfig::paper(
            GridConfig::from_nodes(nodes, p),
            DeviceConfig { gpus_per_node: gpus, gpu_mem_bytes },
        );
        // A dead node needs a surviving peer in its grid row.
        let dead: Vec<usize> =
            if nodes / p > 1 && dead_pick < nodes { vec![dead_pick] } else { Vec::new() };
        let plan = ExecutionPlan::build_with(&spec, config, &dead).expect("plan builds");
        let low = lower(&spec, &plan, &ExecOptions::default());

        let mut union = BTreeSet::new();
        let (mut others_keys, mut all_partials) = (0, 0);
        for (rank, (rn, node)) in low.reduce.iter().zip(&plan.nodes).enumerate() {
            let partials: usize = node
                .gpus
                .iter()
                .flat_map(|gpu| &gpu.blocks)
                .map(|bp| block_c_tiles(&spec, &bp.block, node.grid_row, p).len())
                .sum();
            prop_assert_eq!(rn.partials, partials);
            all_partials += partials;
            for &key in &rn.keys {
                prop_assert!(union.insert(key), "C{key:?} is produced on two ranks");
            }
            if rank != REDUCE_ROOT {
                others_keys += rn.keys.len();
            }
        }
        let kept: BTreeSet<(usize, usize)> = (0..spec.tile_cols())
            .flat_map(|j| spec.c_col_support(j, 0, 1).into_iter().map(move |i| (i, j)))
            .collect();
        prop_assert_eq!(&union, &kept);
        prop_assert!(all_partials >= union.len());
        prop_assert_eq!(low.gathered_keys(), others_keys);
        if dead.first().is_some_and(|&d| d != REDUCE_ROOT) {
            prop_assert!(low.reduce[dead[0]].keys.is_empty());
        }
    }
    /// Stacks are exactly the plan's products, in the per-product order:
    /// flattening every `Gemm` stack gives the multiset
    /// `ExecutionPlan::for_each_task` gives; on every lane each `C(i, j)`
    /// receives its `k` contributions, in id order (the lane's program
    /// order), in the sequence a per-product walk of `chunk.tiles`
    /// produces; a stack's rows were all loaded by its own chunk; and every
    /// dependency points backwards and to another lane.
    #[test]
    fn stacks_partition_the_products_in_per_product_order(
        m in 40u64..=120,
        n in 120u64..=360,
        k in 120u64..=360,
        tenths in 3u32..=10,
        seed in 0u64..1000,
        screened in prop_oneof![Just(false), Just(true)],
        nodes_pick in 0usize..5,
        p_pick in 0usize..8,
        gpus in 1usize..=2,
        mem_pick in 0usize..3,
    ) {
        let (spec, plan) =
            lowering_instance(m, n, k, tenths, seed, screened, nodes_pick, p_pick, gpus, mem_pick);
        let low = lower(&spec, &plan, &ExecOptions::default());

        // The per-product reference: per lane, per C tile, the k sequence.
        let mut planned: Vec<(u32, u32, u32)> = Vec::new();
        let mut want_order: BTreeMap<(usize, usize, u32, u32), Vec<u32>> = BTreeMap::new();
        for (ni, node) in plan.nodes.iter().enumerate() {
            for (gi, gpu) in node.gpus.iter().enumerate() {
                for bp in &gpu.blocks {
                    for chunk in &bp.chunks {
                        ExecutionPlan::for_each_chunk_task(&spec, &bp.block, chunk, |t| {
                            planned.push((t.i, t.k, t.j));
                            want_order.entry((ni, 1 + gi, t.i, t.j)).or_default().push(t.k);
                        });
                    }
                }
            }
        }
        let mut from_plan: Vec<(u32, u32, u32)> = Vec::new();
        plan.for_each_task(&spec, |_, _, t| from_plan.push((t.i, t.k, t.j)));
        planned.sort_unstable();
        from_plan.sort_unstable();
        prop_assert_eq!(&planned, &from_plan);

        let mut stacked: Vec<(u32, u32, u32)> = Vec::new();
        let mut got_order: BTreeMap<(usize, usize, u32, u32), Vec<u32>> = BTreeMap::new();
        // A tiles loaded on each lane since its last EvictChunk.
        let mut chunk_loads: BTreeMap<(usize, usize), HashSet<(u32, u32)>> = BTreeMap::new();
        for id in 0..low.graph.len() {
            let w = low.graph.worker(id);
            let deps = low.graph.deps(id);
            prop_assert!(deps.iter().all(|&d| d < id), "task {id} depends forwards: {deps:?}");
            prop_assert!(
                w.is_any() || deps.iter().all(|&d| low.graph.worker(d) != w),
                "task {id} depends on a task of its own lane {w:?}: {deps:?}"
            );
            match low.graph.payload(id) {
                Op::LoadA { i, k } => {
                    chunk_loads.entry((w.node, w.lane)).or_default().insert((*i, *k));
                }
                Op::EvictChunk { .. } => {
                    chunk_loads.remove(&(w.node, w.lane));
                }
                Op::Gemm { k, j, rows } => {
                    let rows = low.rows_of(rows);
                    prop_assert!(!rows.is_empty(), "empty stack {id}");
                    let loaded = chunk_loads.get(&(w.node, w.lane));
                    for &i in rows {
                        prop_assert!(
                            loaded.is_some_and(|l| l.contains(&(i, *k))),
                            "stack {id}: A({i},{k}) is not of the chunk being lowered"
                        );
                        stacked.push((i, *k, *j));
                        got_order.entry((w.node, w.lane, i, *j)).or_default().push(*k);
                    }
                    let mut sorted = deps.to_vec();
                    sorted.sort_unstable();
                    sorted.dedup();
                    prop_assert_eq!(sorted.len(), deps.len(), "stack {} repeats an edge", id);
                }
                _ => {}
            }
        }
        stacked.sort_unstable();
        prop_assert_eq!(&stacked, &planned);
        prop_assert_eq!(&got_order, &want_order);
    }

    /// `lower` is pure in its input: two calls — and two `restrict(r)` of
    /// them — yield the same tasks, on the same workers, with the same
    /// dependencies, in the same order (`HashMap` iteration order must not
    /// leak into task ids: they fix each lane's program, the order A tiles
    /// go on the wire, and the trace).
    #[test]
    fn lowering_is_deterministic(
        m in 40u64..=120,
        n in 120u64..=360,
        k in 120u64..=360,
        seed in 0u64..1000,
        nodes_pick in 1usize..5,
        p_pick in 0usize..8,
        mem_pick in 0usize..3,
    ) {
        let (spec, plan) = lowering_instance(m, n, k, 6, seed, false, nodes_pick, p_pick, 1, mem_pick);
        let opts = ExecOptions::default();
        let (first, second) = (lower(&spec, &plan, &opts), lower(&spec, &plan, &opts));
        prop_assert!(tasks_of(&first) == tasks_of(&second), "two lowerings differ");
        prop_assert!(
            first.sends.iter().all(|(key, dests)| second.sends.get(key) == Some(dests)),
            "broadcast destinations differ"
        );
        for rank in 0..plan.nodes.len() {
            prop_assert!(
                tasks_of(&first.restrict(rank)) == tasks_of(&second.restrict(rank)),
                "the projections onto rank {} differ", rank
            );
        }
    }
}
