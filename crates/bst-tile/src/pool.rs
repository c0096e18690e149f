//! A recycling arena for tile buffers.
//!
//! The numeric executor's hot path would otherwise allocate a fresh
//! `Vec<f64>` for every zero-filled C tile and every generated B tile, and
//! free it when the tile's last reader is done. [`TilePool`] keeps released
//! buffers instead, ordered by *capacity*, and hands them back out:
//!
//! * a B take ([`TilePool::random`], [`TilePool::take_with`]) is served by
//!   the smallest shelved buffer whose capacity lies in `len..=2·len`, its
//!   length set to `len`. Tile edges on irregular tilings rarely repeat
//!   (two 192–384-edge tiles almost never share a length), so an exact-
//!   length match would almost never hit; best fit lets the buffers a B
//!   window releases serve the window's next tiles, and the 2× bound caps a
//!   recycled buffer's slack at its own size.
//! * a C take ([`TilePool::zeroed`]) only accepts a buffer whose capacity is
//!   exactly `len`: C leaves the engine inside the result, so it must not
//!   carry slack out with it.
//!
//! The pool is shared across threads (one pool per simulated node, used by
//! its CPU generation lanes and GPU lanes alike), so the shelves sit behind
//! a mutex — coarse, but the lock is held only to find and move one buffer,
//! never for the fill.

use crate::tile::{Repr, Tile};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How many buffers of one capacity the pool retains by default.
const DEFAULT_SHELF_CAP: usize = 64;

/// Allocation-reuse counters of a [`TilePool`], for tests and reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests served from a recycled buffer (exact or best fit).
    pub hits: u64,
    /// Requests that fell through to a fresh allocation.
    pub misses: u64,
    /// Tiles handed back to the pool.
    pub released: u64,
    /// Releases dropped because the pool already held the most buffers of
    /// that capacity it retains.
    pub discarded: u64,
}

/// A thread-safe free-list of tile buffers, ordered by buffer capacity.
///
/// `zeroed`/`random` are drop-in replacements for [`Tile::zeros`] and
/// [`Tile::random`] that reuse a released allocation when one fits (see the
/// module docs for the fit rules).
#[derive(Debug, Default)]
pub struct TilePool {
    /// Shelved buffers sorted by capacity, each capacity's in the order they
    /// were released. A node's pool holds a few dozen, so a take or release
    /// is two binary searches and a short shift.
    shelves: Mutex<Vec<Vec<f64>>>,
    shelf_cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    released: AtomicU64,
    discarded: AtomicU64,
}

impl TilePool {
    /// A pool retaining up to a default number of buffers per capacity.
    pub fn new() -> Self {
        Self::with_shelf_capacity(DEFAULT_SHELF_CAP)
    }

    /// A pool retaining up to `shelf_cap` buffers per distinct capacity.
    pub fn with_shelf_capacity(shelf_cap: usize) -> Self {
        Self {
            shelves: Mutex::new(Vec::new()),
            shelf_cap,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            released: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
        }
    }

    /// A recycled buffer whose capacity lies in `min_cap..=max_cap` — of the
    /// smallest such capacity, the one released last — or a counted miss.
    /// Its length and content are whatever its last user left.
    fn take_buf(&self, min_cap: usize, max_cap: usize) -> Option<Vec<f64>> {
        let mut shelves = self.shelves.lock().unwrap();
        let first = shelves.partition_point(|b| b.capacity() < min_cap);
        let buf = match shelves.get(first).map(Vec::capacity) {
            Some(cap) if cap <= max_cap => {
                let same = shelves[first..].partition_point(|b| b.capacity() == cap);
                Some(shelves.remove(first + same - 1))
            }
            _ => None,
        };
        drop(shelves);
        let tally = if buf.is_some() { &self.hits } else { &self.misses };
        tally.fetch_add(1, Ordering::Relaxed);
        buf
    }

    /// A B buffer of length `len`: the best fit within 2×, its length set by
    /// truncating or by appending zeros — stale content either way.
    fn take_fit(&self, len: usize) -> Option<Vec<f64>> {
        let mut buf = self.take_buf(len, len.saturating_mul(2))?;
        buf.resize(len, 0.0);
        Some(buf)
    }

    /// A `rows × cols` tile whose buffer is filled by `fill` — recycled when
    /// a shelved buffer fits (see the module docs), freshly allocated
    /// otherwise. `fill` sees `rows * cols` elements of stale content: a
    /// recycled buffer keeps its old values (zeros past its old length), a
    /// fresh one is zeroed. It must write every element it relies on.
    pub fn take_with(&self, rows: usize, cols: usize, fill: impl FnOnce(&mut [f64])) -> Tile {
        assert!(rows > 0 && cols > 0, "degenerate tile {rows}x{cols}");
        let mut data = self.take_fit(rows * cols).unwrap_or_else(|| vec![0.0; rows * cols]);
        fill(&mut data);
        Tile::from_data(rows, cols, data)
    }

    /// Pooled counterpart of [`Tile::zeros`], for C tiles: it takes only a
    /// buffer of exactly `rows * cols` capacity, so the tile carries no
    /// slack into the result. Either way the buffer is written once. A
    /// fresh buffer is cleared too, on purpose: the allocator hands out
    /// untouched zero pages, and touching them here — at `LoadBlock`, under
    /// the A broadcast and the first `GenB`s — keeps their page faults out of
    /// the stacks that accumulate into them.
    pub fn zeroed(&self, rows: usize, cols: usize) -> Tile {
        assert!(rows > 0 && cols > 0, "degenerate tile {rows}x{cols}");
        let len = rows * cols;
        let mut data = match self.take_buf(len, len) {
            Some(mut buf) => {
                buf.clear();
                buf
            }
            None => Vec::with_capacity(len),
        };
        data.resize(len, 0.0);
        Tile::from_data(rows, cols, data)
    }

    /// Pooled counterpart of [`Tile::random`]: bit-identical content for the
    /// same `(rows, cols, seed)`, whatever buffer it lands in. A fresh
    /// buffer is written once, by the generator, never zero-filled first.
    pub fn random(&self, rows: usize, cols: usize, seed: u64) -> Tile {
        match self.take_fit(rows * cols) {
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
    /// (each by its own capacity), so compressed B tiles recycle
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

    /// Shelves one buffer after the others of its capacity; returns whether
    /// it was kept. Buffers without an allocation (rank-0 factors) are
    /// dropped silently.
    fn shelve(&self, data: Vec<f64>) -> bool {
        let cap = data.capacity();
        if cap == 0 {
            return false;
        }
        let mut shelves = self.shelves.lock().unwrap();
        let end = shelves.partition_point(|b| b.capacity() <= cap);
        let same = end - shelves[..end].partition_point(|b| b.capacity() < cap);
        if same < self.shelf_cap {
            shelves.insert(end, data);
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

    /// Number of buffers currently shelved (across all capacities).
    pub fn cached_buffers(&self) -> usize {
        self.shelves.lock().unwrap().len()
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

    /// The capacity of a dense tile's buffer.
    fn capacity(t: Tile) -> usize {
        t.into_data().capacity()
    }

    #[test]
    fn b_takes_reuse_the_best_fit_across_lengths() {
        let pool = TilePool::new();
        pool.release(Tile::random(10, 15, 1)); // capacity 150
        pool.release(Tile::random(10, 10, 2)); // capacity 100
        // 99 elements: both fit within 2×, the smaller capacity is taken.
        let t = pool.random(9, 11, 3);
        assert_eq!(t, Tile::random(9, 11, 3));
        assert_eq!(capacity(t), 100);
        // 80 elements: only the 150 buffer is left, and it fits.
        let t = pool.random(8, 10, 4);
        assert_eq!(t, Tile::random(8, 10, 4));
        assert_eq!(capacity(t), 150);
        assert_eq!(pool.stats().hits, 2);
        assert_eq!(pool.cached_buffers(), 0);
    }

    #[test]
    fn b_takes_stay_within_twice_their_length() {
        let pool = TilePool::new();
        pool.release(Tile::random(10, 21, 1)); // capacity 210
        pool.release(Tile::random(9, 11, 2)); // capacity 99
        // 100 elements: 99 is too small, 210 more than twice as large.
        let t = pool.random(10, 10, 3);
        assert_eq!((pool.stats().hits, pool.stats().misses), (0, 1));
        assert_eq!(capacity(t), 100);
        // 105 elements: 210 is exactly twice, so it fits.
        let t = pool.random(7, 15, 4);
        assert_eq!(t, Tile::random(7, 15, 4));
        assert_eq!(capacity(t), 210);
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn zeroed_never_carries_spare_capacity() {
        let pool = TilePool::new();
        pool.release(Tile::random(3, 4, 1)); // capacity 12
        // A B take shortens the buffer; its capacity stays 12.
        let b = pool.random(2, 5, 2);
        assert_eq!(pool.stats().hits, 1);
        pool.release(b);
        // C of 10 elements must not take the 12-capacity buffer.
        let c = pool.zeroed(2, 5);
        assert_eq!((pool.stats().hits, pool.stats().misses), (1, 1));
        assert!(c.data().iter().all(|&x| x == 0.0));
        assert_eq!(capacity(c), 10);
        // C of exactly 12 does, and every element of it is cleared.
        let c = pool.zeroed(4, 3);
        assert_eq!(pool.stats().hits, 2);
        assert_eq!(c.data().len(), 12);
        assert!(c.data().iter().all(|&x| x == 0.0));
        assert_eq!(capacity(c), 12);
    }

    #[test]
    fn lowrank_factor_buffers_serve_dense_b_takes() {
        let pool = TilePool::new();
        // 6×4 rank-2: u has 12 elements, v has 8.
        pool.release(Tile::from_factors(6, 4, vec![1.0; 12], vec![2.0; 8], 2));
        let a = pool.random(3, 4, 5); // 12 elements: u is the best fit
        let b = pool.random(2, 3, 6); // 6 elements: v fits within 2×
        assert_eq!(pool.stats().hits, 2);
        assert_eq!(a, Tile::random(3, 4, 5));
        assert_eq!(b, Tile::random(2, 3, 6));
        assert_eq!((capacity(a), capacity(b)), (12, 8));
    }

    #[test]
    fn take_with_hands_out_stale_content() {
        // A longer buffer is truncated: its first elements stay stale.
        let pool = TilePool::new();
        pool.release(Tile::from_data(2, 5, vec![7.0; 10]));
        let t = pool.take_with(2, 3, |d| {
            assert_eq!(d, &[7.0; 6]);
            d[0] = 1.0;
        });
        assert_eq!(t.data(), &[1.0, 7.0, 7.0, 7.0, 7.0, 7.0]);
        // A shorter buffer with room to spare is extended with zeros.
        let pool = TilePool::new();
        let mut buf = Vec::with_capacity(8);
        buf.extend([9.0; 4]);
        pool.release(Tile::from_data(2, 2, buf));
        let t = pool.take_with(2, 3, |d| assert_eq!(d, &[9.0, 9.0, 9.0, 9.0, 0.0, 0.0]));
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(capacity(t), 8);
        // A miss is a zeroed fresh buffer.
        pool.take_with(2, 3, |d| assert_eq!(d, &[0.0; 6]));
        assert_eq!(pool.stats().misses, 1);
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
