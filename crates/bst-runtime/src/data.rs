//! Per-node tile stores with PaRSEC-style data life-cycle management.
//!
//! Every simulated node owns a [`TileStore`] — its private host memory.
//! Producers [`TileStore::put`] a tile together with the number of consumer
//! tasks that will read it; each consumer calls [`TileStore::consume`] when
//! done, and the tile is dropped after its last consumer (PaRSEC §4: data is
//! "cached as long as needed by any task, and discarded after this").
//!
//! A tile crossing node boundaries must be `put` into the destination store
//! by an explicit communication task ([`crate::comm`]); nothing in this
//! module shares state between stores. Each store is tagged with the node
//! that owns it ([`TileStore::for_node`]): reads ([`TileStore::get`],
//! [`TileStore::consume`]) declare the reading node, and a cross-node read
//! panics in debug builds — the MPI-rank ownership discipline as an
//! enforced invariant.

use bst_tile::Tile;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Identity of a datum in the contraction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DataKey {
    /// Tile `(i, k)` of `A`.
    A(u32, u32),
    /// Tile `(k, j)` of `B`.
    B(u32, u32),
    /// Tile `(i, j)` of `C`.
    C(u32, u32),
}

struct Entry {
    tile: Arc<Tile>,
    remaining: usize,
}

#[derive(Default)]
struct Inner {
    entries: HashMap<DataKey, Entry>,
    current_bytes: u64,
    peak_bytes: u64,
}

/// A node-private host-memory tile store with consumer reference counting.
pub struct TileStore {
    inner: Mutex<Inner>,
    /// The node this store is the private memory of.
    owner: usize,
}

impl TileStore {
    /// An empty store owned by `node`. This is the only constructor — there
    /// is deliberately no node-less "global" store: every store belongs to
    /// exactly one simulated rank, and readers must identify themselves
    /// (see [`TileStore::get`]).
    pub fn for_node(node: usize) -> Self {
        Self {
            inner: Mutex::new(Inner::default()),
            owner: node,
        }
    }

    /// The node owning this store.
    pub fn owner(&self) -> usize {
        self.owner
    }

    /// Debug-build ownership gate: reading another node's store is a
    /// locality bug (on the paper's distributed-memory target it would be a
    /// wild remote read), so it panics rather than silently working.
    #[inline]
    fn check_reader(&self, reader: usize, key: DataKey) {
        debug_assert!(
            reader == self.owner,
            "cross-node access: node {reader} read {key:?} from node {}'s private store",
            self.owner
        );
        let _ = (reader, key);
    }

    /// Inserts `tile` under `key`, to be read by `consumers` tasks. With
    /// `consumers == 0` the tile is retained until [`Self::remove`] (used
    /// for result tiles awaiting collection).
    ///
    /// # Panics
    /// Panics if `key` is already present — each datum has exactly one
    /// producer per node.
    pub fn put(&self, key: DataKey, tile: Arc<Tile>, consumers: usize) {
        let mut inner = self.inner.lock();
        inner.current_bytes += tile.stored_bytes();
        inner.peak_bytes = inner.peak_bytes.max(inner.current_bytes);
        let prev = inner.entries.insert(
            key,
            Entry {
                tile,
                remaining: consumers,
            },
        );
        assert!(prev.is_none(), "duplicate producer for {key:?}");
    }

    /// Reads the tile under `key` without consuming it. `reader` is the
    /// node performing the read.
    ///
    /// # Panics
    /// Panics if absent — the task DAG must guarantee availability — and,
    /// in debug builds, if `reader` is not this store's owner.
    pub fn get(&self, reader: usize, key: DataKey) -> Arc<Tile> {
        self.check_reader(reader, key);
        self.inner
            .lock()
            .entries
            .get(&key)
            .unwrap_or_else(|| panic!("datum {key:?} not in store (missing dataflow edge?)"))
            .tile
            .clone()
    }

    /// Declares one consumer of `key` done; drops the tile after the last.
    /// Returns `true` if the tile was dropped. `reader` is the consuming
    /// node.
    ///
    /// # Panics
    /// Panics if absent or already fully consumed, and, in debug builds,
    /// if `reader` is not this store's owner.
    pub fn consume(&self, reader: usize, key: DataKey) -> bool {
        self.check_reader(reader, key);
        let mut inner = self.inner.lock();
        let e = inner
            .entries
            .get_mut(&key)
            .unwrap_or_else(|| panic!("consume of absent datum {key:?}"));
        assert!(e.remaining > 0, "over-consumption of {key:?}");
        e.remaining -= 1;
        if e.remaining == 0 {
            let bytes = e.tile.stored_bytes();
            inner.entries.remove(&key);
            inner.current_bytes -= bytes;
            true
        } else {
            false
        }
    }

    /// Removes and returns a tile regardless of its consumer count (used to
    /// collect result tiles).
    pub fn remove(&self, key: DataKey) -> Option<Arc<Tile>> {
        let mut inner = self.inner.lock();
        inner.entries.remove(&key).map(|e| {
            inner.current_bytes -= e.tile.stored_bytes();
            e.tile
        })
    }

    /// Whether `key` is currently present.
    pub fn contains(&self, key: DataKey) -> bool {
        self.inner.lock().entries.contains_key(&key)
    }

    /// All keys currently present (unspecified order).
    pub fn keys(&self) -> Vec<DataKey> {
        self.inner.lock().entries.keys().copied().collect()
    }

    /// Bytes currently resident.
    pub fn current_bytes(&self) -> u64 {
        self.inner.lock().current_bytes
    }

    /// High-water mark of resident bytes.
    pub fn peak_bytes(&self) -> u64 {
        self.inner.lock().peak_bytes
    }
}

/// Identity of a cached generated tile in a [`BTileCache`].
///
/// `ident` names the *operand* the tile belongs to (the caller's hash of
/// the generator's content identity — different stationary operands served
/// by the same cache must use different idents), `(k, j)` the tile within
/// it. Entries with different idents share the cache's byte budget and
/// evict each other through the same LRU order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BCacheKey {
    /// Content identity of the generated operand.
    pub ident: u64,
    /// Tile row `k`.
    pub k: u32,
    /// Tile column `j`.
    pub j: u32,
}

/// Counters of one [`BTileCache`] since construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BCacheStats {
    /// Lookups that found the tile resident.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Tiles inserted.
    pub insertions: u64,
    /// Tiles evicted to stay within the byte budget.
    pub evictions: u64,
    /// Bytes of generation avoided (sum of hit tiles' sizes).
    pub bytes_saved: u64,
    /// Bytes currently resident.
    pub current_bytes: u64,
    /// High-water mark of resident bytes (never exceeds the budget).
    pub peak_bytes: u64,
    /// The configured byte budget.
    pub budget_bytes: u64,
}

struct BCacheEntry {
    tile: Arc<Tile>,
    stamp: u64,
}

#[derive(Default)]
struct BCacheInner {
    entries: HashMap<BCacheKey, BCacheEntry>,
    /// Recency order: stamp → key. Stamps are unique (monotonic counter),
    /// so eviction pops the smallest stamp in `O(log n)`.
    lru: BTreeMap<u64, BCacheKey>,
    next_stamp: u64,
    stats: BCacheStats,
}

/// A byte-budgeted LRU cache of generated (stationary-operand) tiles,
/// shared across executions of a long-lived node.
///
/// The one-shot engine generates every `B` tile from scratch on each run;
/// a persistent service keeps the generated tiles of the stationary operand
/// resident here between requests, handing the engine the cached `Arc`
/// instead of re-running the generator. Tiles are immutable (`Arc<Tile>`),
/// so a hit returns the *exact* bytes the original generation produced —
/// which is what makes warm-cache results bit-identical to cold runs.
///
/// Eviction is strict LRU against `budget_bytes`; a tile larger than the
/// whole budget is served but never cached. All methods take `&self`
/// (internally locked) so one cache can serve a node's concurrent `GenB`s.
pub struct BTileCache {
    inner: Mutex<BCacheInner>,
    budget: u64,
}

impl BTileCache {
    /// An empty cache bounded by `budget_bytes`.
    pub fn with_budget(budget_bytes: u64) -> Self {
        Self {
            inner: Mutex::new(BCacheInner {
                stats: BCacheStats {
                    budget_bytes,
                    ..BCacheStats::default()
                },
                ..BCacheInner::default()
            }),
            budget: budget_bytes,
        }
    }

    /// Looks up `key`, refreshing its recency on a hit. Counts a hit (plus
    /// the tile's bytes as saved regeneration) or a miss.
    pub fn get(&self, key: BCacheKey) -> Option<Arc<Tile>> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        match inner.entries.get_mut(&key) {
            Some(e) => {
                inner.lru.remove(&e.stamp);
                e.stamp = inner.next_stamp;
                inner.lru.insert(e.stamp, key);
                inner.next_stamp += 1;
                inner.stats.hits += 1;
                inner.stats.bytes_saved += e.tile.stored_bytes();
                Some(Arc::clone(&e.tile))
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts `tile` under `key`, evicting least-recently-used entries
    /// until it fits the budget. A tile larger than the whole budget is not
    /// cached; re-inserting a resident key only refreshes its recency (the
    /// generators a cache serves are deterministic — same key, same bytes).
    pub fn insert(&self, key: BCacheKey, tile: Arc<Tile>) {
        let bytes = tile.stored_bytes();
        if bytes > self.budget {
            return;
        }
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        if let Some(e) = inner.entries.get_mut(&key) {
            inner.lru.remove(&e.stamp);
            e.stamp = inner.next_stamp;
            inner.lru.insert(e.stamp, key);
            inner.next_stamp += 1;
            return;
        }
        while inner.stats.current_bytes + bytes > self.budget {
            let (&stamp, &victim) = inner.lru.iter().next().expect("non-empty over budget");
            inner.lru.remove(&stamp);
            let evicted = inner.entries.remove(&victim).expect("lru/entries in sync");
            inner.stats.current_bytes -= evicted.tile.stored_bytes();
            inner.stats.evictions += 1;
        }
        let stamp = inner.next_stamp;
        inner.next_stamp += 1;
        inner.lru.insert(stamp, key);
        inner.entries.insert(key, BCacheEntry { tile, stamp });
        inner.stats.current_bytes += bytes;
        inner.stats.peak_bytes = inner.stats.peak_bytes.max(inner.stats.current_bytes);
        inner.stats.insertions += 1;
    }

    /// Drops every resident tile (counters are kept).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.entries.clear();
        inner.lru.clear();
        inner.stats.current_bytes = 0;
    }

    /// Number of resident tiles.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently resident.
    pub fn current_bytes(&self) -> u64 {
        self.inner.lock().stats.current_bytes
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> BCacheStats {
        self.inner.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile() -> Arc<Tile> {
        Arc::new(Tile::zeros(2, 2))
    }

    #[test]
    fn put_get_consume_lifecycle() {
        let s = TileStore::for_node(0);
        let k = DataKey::A(1, 2);
        s.put(k, tile(), 2);
        assert!(s.contains(k));
        assert_eq!(s.current_bytes(), 32);
        let _t = s.get(0, k);
        assert!(!s.consume(0, k), "first consumer should not drop");
        assert!(s.contains(k));
        assert!(s.consume(0, k), "last consumer drops");
        assert!(!s.contains(k));
        assert_eq!(s.current_bytes(), 0);
        assert_eq!(s.peak_bytes(), 32);
    }

    #[test]
    #[should_panic(expected = "duplicate producer")]
    fn double_put_panics() {
        let s = TileStore::for_node(0);
        s.put(DataKey::B(0, 0), tile(), 1);
        s.put(DataKey::B(0, 0), tile(), 1);
    }

    #[test]
    #[should_panic(expected = "not in store")]
    fn get_missing_panics() {
        TileStore::for_node(0).get(0, DataKey::C(0, 0));
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "cross-node access"))]
    fn misrouted_get_panics_in_debug() {
        let s = TileStore::for_node(3);
        s.put(DataKey::A(0, 0), tile(), 1);
        // Node 1 reading node 3's private store is the locality bug the
        // ownership gate exists to catch.
        // Release builds skip the gate (the read succeeds); debug builds
        // panic — should_panic is applied only under debug_assertions.
        let _ = s.get(1, DataKey::A(0, 0));
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "cross-node access"))]
    fn misrouted_consume_panics_in_debug() {
        let s = TileStore::for_node(2);
        s.put(DataKey::B(1, 1), tile(), 1);
        s.consume(0, DataKey::B(1, 1));
    }

    #[test]
    #[should_panic(expected = "over-consumption")]
    fn over_consume_panics() {
        let s = TileStore::for_node(0);
        s.put(DataKey::A(0, 0), tile(), 1);
        s.consume(0, DataKey::A(0, 0));
        // Tile was dropped at refcount 0; consuming again is "absent".
        s.put(DataKey::A(0, 0), tile(), 0);
        s.consume(0, DataKey::A(0, 0));
    }

    #[test]
    fn zero_consumers_retained_until_removed() {
        let s = TileStore::for_node(0);
        let k = DataKey::C(3, 4);
        s.put(k, tile(), 0);
        assert!(s.contains(k));
        let t = s.remove(k).unwrap();
        assert_eq!(t.bytes(), 32);
        assert!(!s.contains(k));
        assert!(s.remove(k).is_none());
    }

    #[test]
    fn peak_tracks_high_water() {
        let s = TileStore::for_node(0);
        s.put(DataKey::A(0, 0), tile(), 1);
        s.put(DataKey::A(0, 1), tile(), 1);
        s.consume(0, DataKey::A(0, 0));
        s.put(DataKey::A(0, 2), tile(), 1);
        assert_eq!(s.peak_bytes(), 64);
        assert_eq!(s.current_bytes(), 64);
    }

    #[test]
    fn keys_lists_contents() {
        let s = TileStore::for_node(0);
        s.put(DataKey::A(0, 0), tile(), 1);
        s.put(DataKey::B(1, 1), tile(), 1);
        let mut keys = s.keys();
        keys.sort_by_key(|k| format!("{k:?}"));
        assert_eq!(keys.len(), 2);
    }

    fn bkey(k: u32, j: u32) -> BCacheKey {
        BCacheKey { ident: 7, k, j }
    }

    #[test]
    fn bcache_hit_returns_same_arc_and_counts_saved_bytes() {
        let c = BTileCache::with_budget(1 << 10);
        let t = tile();
        assert!(c.get(bkey(0, 0)).is_none());
        c.insert(bkey(0, 0), Arc::clone(&t));
        let hit = c.get(bkey(0, 0)).expect("resident");
        assert!(Arc::ptr_eq(&hit, &t), "hit must return the cached Arc");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert_eq!(s.bytes_saved, t.bytes());
        assert_eq!(s.current_bytes, t.bytes());
    }

    #[test]
    fn bcache_evicts_lru_within_budget() {
        // Budget fits exactly two 32-byte tiles.
        let c = BTileCache::with_budget(64);
        c.insert(bkey(0, 0), tile());
        c.insert(bkey(0, 1), tile());
        // Touch (0,0) so (0,1) is the LRU victim.
        assert!(c.get(bkey(0, 0)).is_some());
        c.insert(bkey(0, 2), tile());
        assert!(c.get(bkey(0, 1)).is_none(), "LRU entry must be evicted");
        assert!(c.get(bkey(0, 0)).is_some());
        assert!(c.get(bkey(0, 2)).is_some());
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.current_bytes <= 64 && s.peak_bytes <= 64);
    }

    #[test]
    fn bcache_oversized_tile_not_cached() {
        let c = BTileCache::with_budget(16);
        c.insert(bkey(0, 0), tile()); // 32 B > 16 B budget
        assert_eq!(c.len(), 0);
        assert_eq!(c.stats().insertions, 0);
    }

    #[test]
    fn bcache_idents_isolate_operands() {
        let c = BTileCache::with_budget(1 << 10);
        c.insert(BCacheKey { ident: 1, k: 0, j: 0 }, tile());
        assert!(c.get(BCacheKey { ident: 2, k: 0, j: 0 }).is_none());
        assert!(c.get(BCacheKey { ident: 1, k: 0, j: 0 }).is_some());
    }

    #[test]
    fn bcache_clear_keeps_counters() {
        let c = BTileCache::with_budget(1 << 10);
        c.insert(bkey(0, 0), tile());
        c.get(bkey(0, 0));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.current_bytes(), 0);
        assert_eq!(c.stats().hits, 1);
    }
}
