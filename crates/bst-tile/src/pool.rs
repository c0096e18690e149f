//! Recycling arenas for tile buffers.
//!
//! The numeric executor's hot path would otherwise allocate a fresh
//! `Vec<f64>` for every C tile and every generated B tile, and free it when
//! the tile's last reader is done. Two arenas keep released buffers instead,
//! and hand them back out:
//!
//! * a node's [`TilePool`], one per execution, shelves B buffers by
//!   *capacity*. A B take ([`TilePool::random`], [`TilePool::take_with`]) is
//!   served by the smallest shelved buffer whose capacity lies in
//!   `len..=2·len`, its length set to `len`. Tile edges on irregular tilings
//!   rarely repeat (two 192–384-edge tiles almost never share a length), so
//!   an exact-length match would almost never hit; best fit lets the buffers
//!   a B window releases serve the window's next tiles, and the 2× bound
//!   caps a recycled buffer's slack at its own size.
//! * the process's [`CReserve`] keeps C buffers across executions. A C take
//!   ([`TilePool::take_c`]) of at least a page tries it first, for a buffer of
//!   exactly its capacity, then the node pool, then the allocator. Every such
//!   C tile is *lent*: its buffer goes back to the reserve when the tile drops
//!   — a `k`-split partial once the fold has added it, a result tile when the
//!   caller drops the result. A contraction that repeats the C tile sizes of
//!   the one before it so writes its C into pages the process already holds.
//!   The reserve never holds more than the bytes of the last C the process
//!   assembled, and at each assembly it frees the buffers of every capacity no
//!   C take asked for since the one before: after a change of shapes its
//!   shelves keep only what the new shapes can use, though the allocator may
//!   not give back the pages of the buffers freed between them. A C tile
//!   smaller than a page is neither lent nor served by the reserve: the
//!   allocator recycles such buffers on its own, without faults and from
//!   memory still in cache, and shelving them made contractions of small tiles
//!   slower.
//!
//! Both are shared across threads (a node pool by its CPU generation lanes
//! and GPU lanes alike, the reserve by every execution), so the shelves sit
//! behind a mutex — coarse, but the lock is held only to find and move one
//! buffer, never for a fill.

use crate::tile::{Repr, Tile};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How many buffers of one capacity the pool retains by default.
const DEFAULT_SHELF_CAP: usize = 64;

/// Allocation-reuse counters of a [`TilePool`] or the [`CReserve`], for
/// tests and reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests served from a recycled buffer (exact or best fit; a node
    /// pool counts its C takes the reserve served too).
    pub hits: u64,
    /// Requests that fell through to a fresh allocation (the reserve: to
    /// the node pool).
    pub misses: u64,
    /// Tiles handed back to the pool.
    pub released: u64,
    /// Releases dropped because the pool already held the most buffers of
    /// that capacity it retains (the reserve: the most bytes).
    pub discarded: u64,
}

/// The process-wide reserve of C buffers ([`CReserve::global`]): shelves
/// keyed by capacity, so a take and a return are O(1) however many buffers
/// a C of 15 k tiles leaves behind. Only buffers of tiles
/// [`TilePool::take_c`] lent enter it, and only C takes draw from it.
#[derive(Debug)]
pub struct CReserve {
    shelves: Mutex<ReserveShelves>,
    /// The smallest C tile, in bytes, the reserve lends to.
    min_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    released: AtomicU64,
    discarded: AtomicU64,
}

#[derive(Debug)]
struct ReserveShelves {
    /// Buffers by capacity.
    by_cap: HashMap<usize, Shelf, BuildHasherDefault<DefaultHasher>>,
    /// Bytes of the shelved buffers.
    held: usize,
    /// Most bytes the reserve may hold: the last C the process assembled.
    bound: usize,
}

/// The reserve's buffers of one capacity.
#[derive(Debug, Default)]
struct Shelf {
    /// Most recently returned last.
    bufs: Vec<Vec<f64>>,
    /// A C take asked for this capacity since the last assembly.
    wanted: bool,
}

/// A page: the smallest C tile the process's reserve lends to.
const PAGE_BYTES: usize = 4096;

static C_RESERVE: CReserve = CReserve::new(PAGE_BYTES);

impl CReserve {
    /// An empty reserve for C tiles of at least `min_bytes`, which retains
    /// nothing until [`CReserve::assembled`] sets its bound.
    const fn new(min_bytes: usize) -> Self {
        Self {
            shelves: Mutex::new(ReserveShelves {
                by_cap: HashMap::with_hasher(BuildHasherDefault::new()),
                held: 0,
                bound: 0,
            }),
            min_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            released: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
        }
    }

    /// The reserve every [`TilePool`] lends C from.
    pub fn global() -> &'static CReserve {
        &C_RESERVE
    }

    /// Records that the process assembled a C of `bytes`: the reserve may
    /// hold up to that many bytes from now on. Shelves of a capacity no C
    /// take asked for since the last assembly are freed, and then, while
    /// the reserve holds more than its new bound, buffers of the others.
    /// What is freed counts in `discarded`.
    pub fn assembled(&self, bytes: usize) {
        let mut guard = self.shelves.lock().unwrap();
        let shelves = &mut *guard;
        shelves.bound = bytes;
        let mut freed: Vec<Vec<f64>> = Vec::new();
        shelves.by_cap.retain(|_, shelf| {
            if !std::mem::take(&mut shelf.wanted) {
                freed.append(&mut shelf.bufs);
            }
            !shelf.bufs.is_empty()
        });
        let bytes_of = |buf: &Vec<f64>| buf.capacity() * size_of::<f64>();
        shelves.held -= freed.iter().map(bytes_of).sum::<usize>();
        for shelf in shelves.by_cap.values_mut() {
            while shelves.held > bytes {
                let Some(buf) = shelf.bufs.pop() else { break };
                shelves.held -= bytes_of(&buf);
                freed.push(buf);
            }
        }
        drop(guard);
        self.discarded.fetch_add(freed.len() as u64, Ordering::Relaxed);
        // `freed` is freed here, outside the lock
    }

    /// A shelved buffer of exactly `len` capacity — of those, the one
    /// returned last — or a counted miss. Its length and content are its
    /// last user's. Either way, `len` is a capacity the reserve keeps
    /// shelves of at the next assembly.
    fn take(&self, len: usize) -> Option<Vec<f64>> {
        let mut shelves = self.shelves.lock().unwrap();
        let shelf = shelves.by_cap.entry(len).or_default();
        shelf.wanted = true;
        let buf = shelf.bufs.pop();
        if buf.is_some() {
            shelves.held -= len * size_of::<f64>();
        }
        drop(shelves);
        let tally = if buf.is_some() { &self.hits } else { &self.misses };
        tally.fetch_add(1, Ordering::Relaxed);
        buf
    }

    /// Shelves the buffer of a dropped lent tile, or frees it when the
    /// reserve already holds its bound.
    pub(crate) fn give_back(&self, data: Vec<f64>) {
        let (cap, bytes) = (data.capacity(), data.capacity() * size_of::<f64>());
        let mut shelves = self.shelves.lock().unwrap();
        if shelves.held + bytes > shelves.bound {
            drop(shelves);
            self.discarded.fetch_add(1, Ordering::Relaxed);
            return; // `data` is freed here, outside the lock
        }
        shelves.held += bytes;
        shelves.by_cap.entry(cap).or_default().bufs.push(data);
        drop(shelves);
        self.released.fetch_add(1, Ordering::Relaxed);
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
}

/// A thread-safe free-list of tile buffers, ordered by buffer capacity.
///
/// `random` is a drop-in replacement for [`Tile::random`] that reuses a
/// released allocation when one fits, and `take_c` lends C tiles from the
/// [`CReserve`] (see the module docs for the fit rules).
#[derive(Debug)]
pub struct TilePool {
    /// Shelved buffers sorted by capacity, each capacity's in the order they
    /// were released. A node's pool holds a few dozen, so a take or release
    /// is two binary searches and a short shift.
    shelves: Mutex<Vec<Vec<f64>>>,
    shelf_cap: usize,
    /// Where C takes look first and lent C tiles go back to.
    reserve: &'static CReserve,
    hits: AtomicU64,
    misses: AtomicU64,
    released: AtomicU64,
    discarded: AtomicU64,
}

impl Default for TilePool {
    fn default() -> Self {
        Self::new()
    }
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
            reserve: CReserve::global(),
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

    /// Pooled counterpart of [`Tile::zeros`]: a B take (best fit within
    /// 2×) cleared to zeros.
    pub fn zeroed(&self, rows: usize, cols: usize) -> Tile {
        self.take_with(rows, cols, |d| d.fill(0.0))
    }

    /// A C tile for `LoadBlock`, and whether its content is stale. The
    /// buffer has exactly `rows * cols` capacity, so the tile carries no
    /// slack into the result: the [`CReserve`]'s (a hit; only for a tile
    /// of at least its `min_bytes`), else the node pool's, else a fresh
    /// one. A recycled buffer keeps its last user's
    /// values — the caller must zero it before its first product reads it.
    /// A fresh buffer is cleared here, on purpose: the allocator hands out
    /// untouched zero pages, and touching them at `LoadBlock`, under the A
    /// broadcast and the first `GenB`s, keeps their page faults out of the
    /// stacks that accumulate into them. A tile the reserve serves is
    /// lent, whatever buffer it got: the buffer goes back to the reserve
    /// when the tile drops.
    pub fn take_c(&self, rows: usize, cols: usize) -> (Tile, bool) {
        assert!(rows > 0 && cols > 0, "degenerate tile {rows}x{cols}");
        let len = rows * cols;
        let lent = len * size_of::<f64>() >= self.reserve.min_bytes;
        let recycled = lent
            .then(|| self.reserve.take(len))
            .flatten()
            .inspect(|_| {
                self.hits.fetch_add(1, Ordering::Relaxed);
            })
            .or_else(|| self.take_buf(len, len));
        let stale = recycled.is_some();
        let mut data = recycled.unwrap_or_else(|| Vec::with_capacity(len));
        data.resize(len, 0.0);
        let tile = if lent {
            Tile::lent(rows, cols, data, self.reserve)
        } else {
            Tile::from_data(rows, cols, data)
        };
        (tile, stale)
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

    /// Returns a tile's buffer(s) to the pool for reuse (a lent C buffer
    /// stays here: it leaves the reserve's account). A dense tile
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

    /// Bytes the reserve holds.
    fn held(reserve: &CReserve) -> usize {
        reserve.shelves.lock().unwrap().held
    }

    /// A node pool lending C from a reserve of its own that may hold
    /// `bound` bytes, so that tests running in parallel share nothing.
    fn lending_pool(bound: usize) -> (TilePool, &'static CReserve) {
        let reserve: &'static CReserve = Box::leak(Box::new(CReserve::new(0)));
        reserve.assembled(bound);
        (TilePool { reserve, ..TilePool::new() }, reserve)
    }

    #[test]
    fn c_takes_never_carry_spare_capacity() {
        let (pool, _) = lending_pool(0);
        pool.release(Tile::random(3, 4, 1)); // capacity 12
        // A B take shortens the buffer; its capacity stays 12.
        let b = pool.random(2, 5, 2);
        assert_eq!(pool.stats().hits, 1);
        pool.release(b);
        // C of 10 elements must not take the 12-capacity buffer: it gets a
        // fresh one, cleared here.
        let (c, stale) = pool.take_c(2, 5);
        assert_eq!((pool.stats().hits, pool.stats().misses), (1, 1));
        assert!(!stale && c.data().iter().all(|&x| x == 0.0));
        assert_eq!(capacity(c), 10);
        // C of exactly 12 does, stale: its first 10 elements are B's.
        let (c, stale) = pool.take_c(4, 3);
        assert_eq!(pool.stats().hits, 2);
        assert!(stale);
        assert_eq!(&c.data()[..10], Tile::random(2, 5, 2).data());
        assert_eq!(&c.data()[10..], &[0.0; 2]);
        assert_eq!(capacity(c), 12);
    }

    #[test]
    fn c_reserve_takes_are_exact_capacity_only() {
        let (pool, reserve) = lending_pool(1 << 20);
        let (mut c, _) = pool.take_c(3, 4);
        c.data_mut().fill(5.0);
        drop(c); // capacity 12 goes back to the reserve
        assert_eq!((reserve.stats().released, held(reserve)), (1, 96));
        // 10 and 11 elements fit in 12, but a C take wants exactly its own.
        let (c10, stale10) = pool.take_c(2, 5);
        let (c11, stale11) = pool.take_c(1, 11);
        assert!(!stale10 && !stale11);
        assert_eq!(reserve.stats().misses, 3);
        assert_eq!(held(reserve), 96);
        // 12 elements in another shape: the reserve's buffer, stale.
        let (c12, stale) = pool.take_c(6, 2);
        assert!(stale);
        assert_eq!(c12.data(), &[5.0; 12]);
        assert_eq!((reserve.stats().hits, held(reserve)), (1, 0));
        drop((c10, c11, c12));
        assert_eq!(reserve.stats().released, 4);
    }

    #[test]
    fn b_takes_never_reach_the_reserve() {
        let (pool, reserve) = lending_pool(1 << 20);
        drop(pool.take_c(3, 4).0);
        drop(pool.take_c(4, 4).0);
        assert_eq!(held(reserve), (12 + 16) * 8);
        let lent = reserve.stats();
        // Both would fit a B take of 12 elements within 2×.
        let r = pool.random(3, 4, 7);
        let w = pool.take_with(2, 6, |d| d.fill(1.0));
        let z = pool.zeroed(4, 3);
        assert_eq!(pool.stats().hits, 0);
        assert_eq!(reserve.stats(), lent);
        assert_eq!(held(reserve), (12 + 16) * 8);
        // Nor do they go back to it: only lent C tiles do, and a clone or a
        // buffer taken out of a lent tile is no longer lent.
        drop((r, w, z));
        let (c, _) = pool.take_c(4, 4);
        drop(c.clone());
        let buf = c.into_data();
        assert_eq!(reserve.stats().released, 2);
        assert_eq!(buf.capacity(), 16);
    }

    #[test]
    fn reserve_frees_returns_past_its_bound() {
        // Room for two 4×4 buffers and no more.
        let (pool, reserve) = lending_pool(2 * 16 * 8);
        let tiles: Vec<Tile> = (0..3).map(|_| pool.take_c(4, 4).0).collect();
        drop(tiles);
        let st = reserve.stats();
        assert_eq!((st.released, st.discarded), (2, 1));
        assert_eq!(held(reserve), 2 * 16 * 8);
        // A larger assembled C raises the bound.
        reserve.assembled(3 * 16 * 8);
        drop(pool.take_c(4, 4).0); // a reserve hit, back again
        drop(pool.take_c(3, 5).0); // fresh, shelved in the raised room
        assert_eq!(reserve.stats().released, 4);
        assert_eq!(held(reserve), (2 * 16 + 15) * 8);
        // A smaller one lowers it, and what the reserve holds past it is
        // freed at once.
        reserve.assembled(16 * 8);
        assert!(held(reserve) <= 16 * 8);
        let freed = reserve.stats().discarded - 1;
        assert!(freed >= 2, "{freed} buffers freed");
        drop(pool.take_c(5, 5).0);
        assert_eq!(reserve.stats().discarded, 1 + freed + 1);
    }

    #[test]
    fn reserve_keeps_only_capacities_the_last_c_asked_for() {
        let (pool, reserve) = lending_pool(1 << 20);
        // C of a 4×4 and a 3×5 tile, dropped after its assembly.
        let first = [pool.take_c(4, 4).0, pool.take_c(3, 5).0];
        reserve.assembled(1 << 20);
        drop(first);
        assert_eq!(held(reserve), (16 + 15) * 8);
        // The next C asks only for 16 elements: at its assembly the 3×5
        // buffer, which no take asked for, is freed.
        let (next, stale) = pool.take_c(2, 8);
        assert!(stale);
        reserve.assembled(1 << 20);
        assert_eq!((held(reserve), reserve.stats().discarded), (0, 1));
        drop(next);
        assert_eq!(held(reserve), 16 * 8);
        // A miss asks too: its capacity's shelf survives the assembly, and
        // the 16-element buffer no take asked for does not.
        let (miss, stale) = pool.take_c(3, 5);
        assert!(!stale);
        drop(miss);
        reserve.assembled(1 << 20);
        assert_eq!((held(reserve), reserve.stats().discarded), (15 * 8, 2));
    }

    #[test]
    fn c_tiles_under_a_page_are_not_lent() {
        let reserve: &'static CReserve = Box::leak(Box::new(CReserve::new(PAGE_BYTES)));
        reserve.assembled(1 << 20);
        let pool = TilePool { reserve, ..TilePool::new() };
        // 511 elements are under a page and never ask the reserve; 512 do.
        let (small, stale) = pool.take_c(7, 73);
        assert!(!stale && small.data().iter().all(|&x| x == 0.0));
        let (page, _) = pool.take_c(16, 32);
        assert_eq!((reserve.stats().misses, pool.stats().misses), (1, 2));
        drop((small, page));
        assert_eq!(reserve.stats().released, 1);
        assert_eq!(held(reserve), PAGE_BYTES);
        // The small buffer can still come back through the node pool.
        pool.release(Tile::zeros(7, 73));
        let (small, stale) = pool.take_c(73, 7);
        assert!(stale);
        assert_eq!((pool.stats().hits, reserve.stats().hits), (1, 0));
        drop(small);
        assert_eq!(reserve.stats().released, 1);
    }

    #[test]
    fn reserve_hits_count_as_pool_hits() {
        let (pool, reserve) = lending_pool(1 << 20);
        drop(pool.take_c(5, 5).0);
        assert_eq!((pool.stats().hits, pool.stats().misses), (0, 1));
        // A second node pool of the same process lends from the same reserve.
        let other = TilePool { reserve, ..TilePool::new() };
        let (t, stale) = other.take_c(5, 5);
        assert!(stale);
        assert_eq!((other.stats().hits, other.stats().misses), (1, 0));
        assert_eq!((reserve.stats().hits, reserve.stats().misses), (1, 1));
        drop(t);
        assert_eq!(held(reserve), 25 * 8);
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
