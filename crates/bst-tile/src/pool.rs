//! A recycling arena for tile buffers.
//!
//! The numeric executor's hot path used to allocate a fresh `Vec<f64>` for
//! every zero-filled C tile and every on-demand generated B tile, and free
//! it again when the block flushed. [`TilePool`] keeps those buffers on
//! per-size free lists instead: a released tile's allocation is handed back
//! out on the next request of the same length, so steady-state execution
//! recycles a bounded working set instead of churning the allocator.
//!
//! The pool is shared across threads (one pool per simulated node, used by
//! its CPU generation lanes and GPU lanes alike), so the shelves sit behind
//! a mutex — coarse, but the lock is held only for a `Vec` push/pop, never
//! for the fill.

use crate::tile::{Repr, Tile};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How many buffers of one exact size the pool retains by default.
const DEFAULT_SHELF_CAP: usize = 64;

/// Allocation-reuse counters of a [`TilePool`], for tests and reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests served from a recycled buffer.
    pub hits: u64,
    /// Requests that fell through to a fresh allocation.
    pub misses: u64,
    /// Tiles handed back to the pool.
    pub released: u64,
    /// Releases dropped because the shelf for that size was full.
    pub discarded: u64,
}

/// A thread-safe free-list of tile buffers, keyed by exact buffer length.
///
/// `zeroed`/`random` are drop-in replacements for [`Tile::zeros`] and
/// [`Tile::random`] that reuse a released allocation when one of the right
/// size is available. Exact-length keying keeps the semantics trivial (no
/// capacity slack to reason about) and matches the workload: block-sparse
/// instances draw tile edges from a small set, so lengths repeat heavily.
#[derive(Debug, Default)]
pub struct TilePool {
    shelves: Mutex<HashMap<usize, Vec<Vec<f64>>>>,
    shelf_cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    released: AtomicU64,
    discarded: AtomicU64,
}

impl TilePool {
    /// A pool retaining up to a default number of buffers per size.
    pub fn new() -> Self {
        Self::with_shelf_capacity(DEFAULT_SHELF_CAP)
    }

    /// A pool retaining up to `shelf_cap` buffers per distinct size.
    pub fn with_shelf_capacity(shelf_cap: usize) -> Self {
        Self {
            shelves: Mutex::new(HashMap::new()),
            shelf_cap,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            released: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
        }
    }

    /// A recycled buffer of exactly `len` elements (stale content), or a
    /// counted miss.
    fn take_buf(&self, len: usize) -> Option<Vec<f64>> {
        let buf = self.shelves.lock().unwrap().get_mut(&len).and_then(Vec::pop);
        let tally = if buf.is_some() { &self.hits } else { &self.misses };
        tally.fetch_add(1, Ordering::Relaxed);
        buf
    }

    /// A `rows × cols` tile whose buffer is filled by `fill` — recycled when
    /// possible, freshly allocated otherwise.
    pub fn take_with(&self, rows: usize, cols: usize, fill: impl FnOnce(&mut [f64])) -> Tile {
        assert!(rows > 0 && cols > 0, "degenerate tile {rows}x{cols}");
        let mut data = self.take_buf(rows * cols).unwrap_or_else(|| vec![0.0; rows * cols]);
        fill(&mut data);
        Tile::from_data(rows, cols, data)
    }

    /// Pooled counterpart of [`Tile::zeros`]. A fresh buffer is cleared too,
    /// on purpose: the allocator hands out untouched zero pages, and touching
    /// them here — at `LoadBlock`, under the A broadcast and the first `GenB`s
    /// — keeps their page faults out of the stacks that accumulate into them.
    pub fn zeroed(&self, rows: usize, cols: usize) -> Tile {
        self.take_with(rows, cols, |d| d.fill(0.0))
    }

    /// Pooled counterpart of [`Tile::random`]: bit-identical content for the
    /// same `(rows, cols, seed)`, whatever buffer it lands in. A fresh
    /// buffer is written once, by the generator, never zero-filled first.
    pub fn random(&self, rows: usize, cols: usize, seed: u64) -> Tile {
        match self.take_buf(rows * cols) {
            Some(buf) => {
                let mut t = Tile::from_data(rows, cols, buf);
                t.fill_random(seed);
                t
            }
            None => Tile::random(rows, cols, seed),
        }
    }

    /// Returns a tile's buffer(s) to the pool for reuse. A dense tile
    /// shelves its one buffer; a low-rank tile shelves both factor buffers
    /// (each on its own exact-length shelf), so compressed B tiles recycle
    /// allocations just like dense ones. Either way the release counts
    /// once — a tile handed back is a tile handed back.
    pub fn release(&self, tile: Tile) {
        let kept = match tile.into_repr() {
            Repr::Dense(data) => self.shelve(data),
            Repr::LowRank { u, v, .. } => {
                let ku = self.shelve(u);
                self.shelve(v) || ku
            }
        };
        if kept {
            self.released.fetch_add(1, Ordering::Relaxed);
        } else {
            self.discarded.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Shelves one buffer on its exact-length shelf; returns whether it was
    /// kept. Zero-length buffers (rank-0 factors) are dropped silently.
    fn shelve(&self, data: Vec<f64>) -> bool {
        let len = data.len();
        if len == 0 {
            return false;
        }
        let mut shelves = self.shelves.lock().unwrap();
        let shelf = shelves.entry(len).or_default();
        if shelf.len() < self.shelf_cap {
            shelf.push(data);
            true
        } else {
            false
        }
    }

    /// Reclaims an `Arc<Tile>` if this was the last reference; returns
    /// whether the buffer was recovered. Harmlessly drops the reference (and
    /// reclaims nothing) while other holders remain.
    pub fn release_arc(&self, tile: Arc<Tile>) -> bool {
        match Arc::try_unwrap(tile) {
            Ok(t) => {
                self.release(t);
                true
            }
            Err(_) => false,
        }
    }

    /// Current counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            released: self.released.load(Ordering::Relaxed),
            discarded: self.discarded.load(Ordering::Relaxed),
        }
    }

    /// Number of buffers currently shelved (across all sizes).
    pub fn cached_buffers(&self) -> usize {
        self.shelves.lock().unwrap().values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuses_released_buffers_of_same_size() {
        let pool = TilePool::new();
        let t = pool.zeroed(4, 6);
        assert_eq!(pool.stats().misses, 1);
        pool.release(t);
        let t2 = pool.zeroed(6, 4); // same length, different shape — still a hit
        assert_eq!(pool.stats().hits, 1);
        assert!(t2.data().iter().all(|&x| x == 0.0));
        assert_eq!((t2.rows(), t2.cols()), (6, 4));
    }

    #[test]
    fn different_sizes_do_not_alias() {
        let pool = TilePool::new();
        pool.release(pool.zeroed(2, 2));
        let t = pool.zeroed(3, 3);
        assert_eq!(pool.stats().hits, 0);
        assert_eq!(pool.stats().misses, 2);
        assert_eq!(t.data().len(), 9);
    }

    #[test]
    fn pooled_random_matches_plain_random() {
        let pool = TilePool::new();
        // Dirty a buffer, release it, and regenerate into it.
        let mut dirty = pool.random(5, 7, 1);
        dirty.scale(3.0);
        pool.release(dirty);
        let recycled = pool.random(5, 7, 42);
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(recycled, Tile::random(5, 7, 42));
    }

    #[test]
    fn pooled_zeroed_scrubs_recycled_buffers() {
        let pool = TilePool::new();
        pool.release(Tile::from_data(2, 2, vec![9.0; 4]));
        let z = pool.zeroed(2, 2);
        assert_eq!(pool.stats().hits, 1);
        assert!(z.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn release_arc_only_reclaims_unique_references() {
        let pool = TilePool::new();
        let a = Arc::new(Tile::zeros(3, 3));
        let b = Arc::clone(&a);
        assert!(!pool.release_arc(b)); // `a` still alive
        assert!(pool.release_arc(a));
        assert_eq!(pool.stats().released, 1);
        assert_eq!(pool.cached_buffers(), 1);
    }

    #[test]
    fn shelf_capacity_bounds_retention() {
        let pool = TilePool::with_shelf_capacity(2);
        for _ in 0..5 {
            pool.release(Tile::zeros(2, 2));
        }
        assert_eq!(pool.cached_buffers(), 2);
        assert_eq!(pool.stats().discarded, 3);
    }

    #[test]
    fn lowrank_release_shelves_both_factor_buffers() {
        let pool = TilePool::new();
        // 6×4 rank-2: u has 12 elements, v has 8.
        let t = Tile::from_factors(6, 4, vec![1.0; 12], vec![2.0; 8], 2);
        pool.release(t);
        assert_eq!(pool.stats().released, 1);
        assert_eq!(pool.cached_buffers(), 2);
        // Both factor buffers come back out on exact-length requests.
        let a = pool.zeroed(3, 4); // 12 elements — the recycled u buffer
        let b = pool.zeroed(2, 4); // 8 elements — the recycled v buffer
        assert_eq!(pool.stats().hits, 2);
        assert!(a.data().iter().chain(b.data()).all(|&x| x == 0.0));
    }

    #[test]
    fn shared_across_threads() {
        let pool = Arc::new(TilePool::new());
        std::thread::scope(|s| {
            for i in 0..4 {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    for j in 0..32 {
                        let t = pool.random(4, 4, (i * 100 + j) as u64);
                        assert_eq!(t, Tile::random(4, 4, (i * 100 + j) as u64));
                        pool.release(t);
                    }
                });
            }
        });
        let st = pool.stats();
        assert_eq!(st.hits + st.misses, 128);
        assert!(st.hits > 0, "concurrent churn should recycle buffers");
    }
}
