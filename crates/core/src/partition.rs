//! Block partitioning (§3.2.2): packing a node's assigned `B` columns into
//! GPU-sized blocks.
//!
//! A column is weighed by its footprint: the bytes of the `B` column plus
//! the node-local `C` tiles underneath it. The node's columns are first
//! **dealt** to its GPUs, largest first, each to the GPU with the smallest
//! summed footprint (LPT), so the GPUs' shares end at most one column
//! apart. Each GPU then packs its share **worst-fit**, starting from one
//! empty block: a column goes into the block with the most remaining space,
//! and one that fits nowhere opens a new block on that GPU. A block is
//! capped at `block_budget` (half the GPU memory), which guarantees each
//! `B`/`C` tile is transferred to its GPU exactly once.
//!
//! **Extension beyond the paper**: a column whose footprint exceeds the
//! budget (which happens for the densest near-diagonal Schwarz columns
//! under coarse tilings) is *k-segmented* into [`ColumnSpan`] parts that
//! each fit. Every `B` tile still reaches the GPU exactly once (the spans
//! partition the column's inner range); only the column's `C` tiles — tiny
//! next to `B` for short-and-wide problems — are re-staged once per part.

use crate::assign::assign_columns_policy;
use crate::config::{AssignPolicy, PlanError};
use std::cmp::Reverse;

/// A contiguous inner-index slice of one `B` tile column: tiles
/// `B(k, col)` with `k_lo ≤ k ≤ k_hi`. A whole column is the span
/// `[0, K^(t) − 1]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ColumnSpan {
    /// The `B`/`C` tile column.
    pub col: u32,
    /// First inner tile index (inclusive).
    pub k_lo: u32,
    /// Last inner tile index (inclusive).
    pub k_hi: u32,
}

impl ColumnSpan {
    /// A span covering the full inner range of `col`.
    pub fn full(col: usize, inner_tiles: usize) -> Self {
        Self {
            col: col as u32,
            k_lo: 0,
            k_hi: (inner_tiles - 1) as u32,
        }
    }

    /// Whether inner tile `k` lies in this span.
    #[inline]
    pub fn contains(&self, k: usize) -> bool {
        (self.k_lo as usize..=self.k_hi as usize).contains(&k)
    }
}

/// One block: a set of column spans co-resident on a GPU.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    /// Spans in this block (ascending column, then `k_lo`).
    pub spans: Vec<ColumnSpan>,
    /// Total footprint (B spans + their C columns) in bytes.
    pub bytes: u64,
}

impl Block {
    /// The distinct tile columns touched by this block, ascending.
    pub fn distinct_columns(&self) -> Vec<usize> {
        let mut cols: Vec<usize> = self.spans.iter().map(|s| s.col as usize).collect();
        cols.sort_unstable();
        cols.dedup();
        cols
    }
}

/// The blocks of one node, grouped by GPU; `gpus[g]` is the ordered list of
/// blocks GPU `g` executes sequentially.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockPartition {
    /// Blocks per GPU, in execution order.
    pub gpus: Vec<Vec<Block>>,
}

impl BlockPartition {
    /// Total number of blocks across GPUs.
    pub fn num_blocks(&self) -> usize {
        self.gpus.iter().map(|g| g.len()).sum()
    }

    /// Iterator over all blocks with their GPU index.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Block)> {
        self.gpus
            .iter()
            .enumerate()
            .flat_map(|(g, blocks)| blocks.iter().map(move |b| (g, b)))
    }
}

/// Packs `spans` (with per-span byte footprints, indexed by position) into
/// blocks for `gpus` GPUs under `budget` bytes per block.
///
/// The spans are dealt to the GPUs by [`AssignPolicy::Lpt`] on their
/// footprints (ties: the earlier span — the planner lists spans by column,
/// then `k_lo` — and the lowest GPU), then each GPU's share is packed
/// worst-fit from one empty block. With one GPU the deal is a no-op.
///
/// # Panics
/// Panics if a single span exceeds the budget — the caller must have
/// k-segmented oversized columns first (see [`split_column`]).
pub fn partition_spans(
    spans: &[ColumnSpan],
    footprints: &[u64],
    gpus: usize,
    budget: u64,
) -> BlockPartition {
    assert_eq!(spans.len(), footprints.len());
    let weights: Vec<u128> = footprints.iter().map(|&f| f as u128).collect();
    let (shares, _) = assign_columns_policy(&weights, gpus, AssignPolicy::Lpt);
    BlockPartition {
        gpus: shares
            .iter()
            .map(|share| pack_worst_fit(share, spans, footprints, budget))
            .collect(),
    }
}

/// Packs one GPU's `share` (positions in `spans`) worst-fit (§3.2.2):
/// largest footprint first (ties: ascending column, then `k_lo`), each span
/// into the block with the most remaining space (ties: the earliest block);
/// a span that fits nowhere opens a new block.
fn pack_worst_fit(
    share: &[usize],
    spans: &[ColumnSpan],
    footprints: &[u64],
    budget: u64,
) -> Vec<Block> {
    let mut order = share.to_vec();
    order.sort_by_key(|&s| (Reverse(footprints[s]), spans[s].col, spans[s].k_lo));
    let mut blocks: Vec<Block> = Vec::new();
    for si in order {
        let (span, need) = (spans[si], footprints[si]);
        assert!(
            need <= budget,
            "span {span:?} ({need} B) exceeds the block budget ({budget} B); split it first"
        );
        match blocks
            .iter_mut()
            .filter(|b| budget - b.bytes >= need)
            .min_by_key(|b| b.bytes)
        {
            Some(b) => {
                b.spans.push(span);
                b.bytes += need;
            }
            None => blocks.push(Block {
                spans: vec![span],
                bytes: need,
            }),
        }
    }
    for b in &mut blocks {
        b.spans.sort_by_key(|s| (s.col, s.k_lo));
    }
    blocks
}

/// Splits column `col` into spans whose footprints fit `budget`.
///
/// `k_tiles` are the non-zero inner tile indices of the column (ascending)
/// with their `B`-tile byte sizes; `c_bytes` is the footprint of the
/// column's local `C` tiles, which every part must carry.
///
/// Returns the spans with their footprints, or an error if even a single
/// `B` tile plus the `C` column exceeds the budget.
pub fn split_column(
    col: usize,
    inner_tiles: usize,
    k_tiles: &[(usize, u64)],
    c_bytes: u64,
    budget: u64,
) -> Result<Vec<(ColumnSpan, u64)>, PlanError> {
    let total: u64 = k_tiles.iter().map(|&(_, b)| b).sum::<u64>() + c_bytes;
    if total <= budget {
        return Ok(vec![(ColumnSpan::full(col, inner_tiles), total)]);
    }
    let mut out = Vec::new();
    let mut next_lo = 0usize; // first inner index of the open part
    let mut part_bytes = c_bytes;
    for (idx, &(_k, b)) in k_tiles.iter().enumerate() {
        if c_bytes + b > budget {
            return Err(PlanError::ColumnTooLarge {
                col,
                bytes: c_bytes + b,
                budget,
            });
        }
        if part_bytes + b > budget {
            // Close the current part just before tile `k` (parts tile the
            // inner range contiguously; the gap tiles are zero anyway).
            let k_hi = k_tiles[idx - 1].0;
            out.push((
                ColumnSpan {
                    col: col as u32,
                    k_lo: next_lo as u32,
                    k_hi: k_hi as u32,
                },
                part_bytes,
            ));
            next_lo = k_hi + 1;
            part_bytes = c_bytes;
        }
        part_bytes += b;
    }
    // Final part extends to the end of the inner range.
    out.push((
        ColumnSpan {
            col: col as u32,
            k_lo: next_lo as u32,
            k_hi: (inner_tiles - 1) as u32,
        },
        part_bytes,
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_spans(cols: &[usize]) -> Vec<ColumnSpan> {
        cols.iter().map(|&c| ColumnSpan::full(c, 100)).collect()
    }

    #[test]
    fn single_small_column() {
        let p = partition_spans(&full_spans(&[7]), &[10], 3, 100);
        assert_eq!(p.num_blocks(), 1);
        assert_eq!(p.gpus[0][0].spans[0].col, 7);
        assert_eq!(p.gpus[0][0].bytes, 10);
    }

    #[test]
    #[should_panic(expected = "exceeds the block budget")]
    fn unsplit_oversized_span_panics() {
        partition_spans(&full_spans(&[0]), &[101], 1, 100);
    }

    #[test]
    fn spreads_across_gpus_before_deepening() {
        let p = partition_spans(&full_spans(&[0, 1, 2]), &[30, 30, 30], 2, 100);
        assert_eq!(p.num_blocks(), 2);
        assert_eq!(p.gpus[0][0].distinct_columns(), vec![0, 2]);
        assert_eq!(p.gpus[1][0].distinct_columns(), vec![1]);
    }

    #[test]
    fn worst_fit_prefers_emptiest_block() {
        // Budget 100, 2 GPUs. Sorted: 60, 50, 45. 60 → g0; 50 → g1 (full
        // budget); 45 → g1 (rem 50 ≥ 45) over g0 (rem 40).
        let p = partition_spans(&full_spans(&[0, 1, 2]), &[60, 50, 45], 2, 100);
        assert_eq!(p.num_blocks(), 2);
        assert_eq!(p.gpus[0][0].distinct_columns(), vec![0]);
        assert_eq!(p.gpus[1][0].distinct_columns(), vec![1, 2]);
        assert_eq!(p.gpus[1][0].bytes, 95);
    }

    #[test]
    fn overflow_blocks_open_on_the_dealt_gpu() {
        let p = partition_spans(&full_spans(&[0, 1, 2, 3]), &[90, 90, 90, 90], 2, 100);
        assert_eq!(p.gpus[0].len(), 2);
        assert_eq!(p.gpus[1].len(), 2);
    }

    #[test]
    fn gpu_shares_end_at_most_one_span_apart() {
        // Four spans fill a block, so GPU 0 opens the ninth span's block; a
        // round-robin packer then fills that newest block first (56 / 35).
        let cols: Vec<usize> = (0..13).collect();
        let p = partition_spans(&full_spans(&cols), &[7; 13], 2, 32);
        let shares: Vec<u64> = p
            .gpus
            .iter()
            .map(|g| g.iter().map(|b| b.bytes).sum())
            .collect();
        assert!(
            shares[0].abs_diff(shares[1]) <= 7,
            "per-GPU footprints {shares:?}"
        );
        assert_eq!(p.num_blocks(), 4);
    }

    #[test]
    fn blocks_respect_budget() {
        let cols: Vec<usize> = (0..50).collect();
        let foot: Vec<u64> = (0..50).map(|i| 10 + (i * 7) % 40).collect();
        let p = partition_spans(&full_spans(&cols), &foot, 4, 100);
        for (_, b) in p.iter() {
            assert!(b.bytes <= 100, "block over budget: {}", b.bytes);
        }
        let mut seen = [false; 50];
        for (_, b) in p.iter() {
            for s in &b.spans {
                assert!(!seen[s.col as usize]);
                seen[s.col as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gpu_block_counts_balanced() {
        let cols: Vec<usize> = (0..33).collect();
        let foot = vec![70u64; 33];
        let p = partition_spans(&full_spans(&cols), &foot, 6, 100);
        let counts: Vec<usize> = p.gpus.iter().map(|g| g.len()).collect();
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        assert!(max - min <= 1, "unbalanced blocks: {counts:?}");
    }

    #[test]
    fn empty_input() {
        let p = partition_spans(&[], &[], 2, 100);
        assert_eq!(p.num_blocks(), 0);
    }

    #[test]
    fn split_column_fits_whole() {
        let parts = split_column(3, 10, &[(1, 30), (4, 30)], 20, 100).unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].0, ColumnSpan::full(3, 10));
        assert_eq!(parts[0].1, 80);
    }

    #[test]
    fn split_column_segments() {
        // Budget 100, C = 20: tiles of 50 bytes each → two per part.
        let tiles: Vec<(usize, u64)> = vec![(0, 50), (2, 50), (5, 50), (7, 50), (9, 50)];
        let parts = split_column(1, 12, &tiles, 20, 120).unwrap();
        assert_eq!(parts.len(), 3);
        // Parts cover the whole inner range contiguously.
        assert_eq!(parts[0].0.k_lo, 0);
        assert_eq!(parts.last().unwrap().0.k_hi, 11);
        for w in parts.windows(2) {
            assert_eq!(w[0].0.k_hi + 1, w[1].0.k_lo);
        }
        // Every tile lands in exactly one part.
        for &(k, _) in &tiles {
            let n = parts.iter().filter(|(s, _)| s.contains(k)).count();
            assert_eq!(n, 1, "tile k={k}");
        }
        // Footprints include C and respect the budget.
        for (_, bytes) in &parts {
            assert!(*bytes <= 120);
            assert!(*bytes >= 20);
        }
    }

    #[test]
    fn split_column_single_tile_too_large() {
        let err = split_column(0, 4, &[(1, 90)], 20, 100).unwrap_err();
        assert!(matches!(err, PlanError::ColumnTooLarge { .. }));
    }

    #[test]
    fn span_contains() {
        let s = ColumnSpan {
            col: 0,
            k_lo: 3,
            k_hi: 7,
        };
        assert!(!s.contains(2));
        assert!(s.contains(3));
        assert!(s.contains(7));
        assert!(!s.contains(8));
    }
}
