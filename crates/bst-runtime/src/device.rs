//! Simulated GPU memory with strict accounting.
//!
//! The correctness-critical property of the paper's algorithm is that GPU
//! memory is *never* oversubscribed: blocks fit in half the device, the
//! active chunk in a quarter, the prefetched chunk in the last quarter, and
//! no B/C tile is ever flushed before its last use. [`DeviceMemory`] turns a
//! violation of that discipline into a hard error instead of a silent
//! slowdown (or a CUDA OOM), so the planner's budget arithmetic is testable.
//!
//! [`NodeResidency`] is the node-level registry that lets a GPU discover a
//! sibling device already holding a tile, modelling the NVLink
//! device-to-device path of §4 ("the second GPU may use the copy residing on
//! the first one").

use crate::data::DataKey;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Multiplicative hasher for maps keyed by tile coordinates (`(u32, u32)`,
/// [`DataKey`]) that are probed once or more per tile product. The keys are
/// derived from the plan, never from outside input, so SipHash's protection
/// against crafted collisions buys nothing here and costs most of a small
/// product's bookkeeping.
#[derive(Clone, Copy, Default)]
pub struct CoordHasher(u64);

impl CoordHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for CoordHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // The multiply mixes upwards; hand the table its well-mixed high
        // bits as the bucket index.
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.fold(u64::from(x));
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.fold(x);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.fold(x as u64);
    }
}

/// A `HashMap` over plan-derived tile coordinates (see [`CoordHasher`]).
pub type CoordMap<K, V> = HashMap<K, V, BuildHasherDefault<CoordHasher>>;

/// Where a loaded tile came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadSource {
    /// Already on this device — no transfer.
    Resident,
    /// Host-to-device transfer (PCIe/NVLink from CPU memory).
    Host,
    /// Device-to-device transfer from a sibling GPU (NVLink).
    Peer,
}

/// Error raised when a load would exceed device capacity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeviceOom {
    /// The datum being loaded.
    pub key: DataKey,
    /// Bytes requested.
    pub bytes: u64,
    /// Bytes currently in use.
    pub used: u64,
    /// Device capacity.
    pub capacity: u64,
}

impl std::fmt::Display for DeviceOom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "device OOM loading {:?}: {} B requested, {}/{} B used",
            self.key, self.bytes, self.used, self.capacity
        )
    }
}

impl std::error::Error for DeviceOom {}

/// Transfer and occupancy statistics of one device.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Bytes moved host → device.
    pub h2d_bytes: u64,
    /// Bytes moved device → device (from a sibling GPU).
    pub d2d_bytes: u64,
    /// Bytes moved device → host.
    pub d2h_bytes: u64,
    /// High-water mark of resident bytes.
    pub peak_bytes: u64,
    /// Number of load calls that required a transfer.
    pub loads: u64,
    /// Number of data frees (last reference dropped and bytes reclaimed).
    pub evictions: u64,
}

/// Tracked memory of one simulated GPU.
pub struct DeviceMemory {
    gpu: usize,
    capacity: u64,
    used: u64,
    /// bytes, reference count and whether it is in the node registry, per
    /// resident datum: overlapping consumers (e.g. a prefetched chunk
    /// re-loading a tile the previous chunk still holds) share one copy, as
    /// PaRSEC's data-copy refcounting does.
    resident: CoordMap<DataKey, (u64, u32, bool)>,
    stats: DeviceStats,
    registry: Arc<NodeResidency>,
}

impl DeviceMemory {
    /// A device of `capacity` bytes, GPU index `gpu` within its node,
    /// registered in the node's residency registry.
    pub fn new(gpu: usize, capacity: u64, registry: Arc<NodeResidency>) -> Self {
        Self {
            gpu,
            capacity,
            used: 0,
            resident: CoordMap::default(),
            stats: DeviceStats::default(),
            registry,
        }
    }

    /// Loads `bytes` of datum `key` onto the device; no-op if already
    /// resident. Consults the node registry to prefer a peer copy (NVLink
    /// d2d) over a host transfer.
    pub fn load(&mut self, key: DataKey, bytes: u64) -> Result<LoadSource, DeviceOom> {
        if !self.reserve(key, bytes, true)? {
            return Ok(LoadSource::Resident);
        }
        self.stats.loads += 1;
        Ok(if self.registry.add(key, self.gpu) {
            self.stats.d2d_bytes += bytes;
            LoadSource::Peer
        } else {
            self.stats.h2d_bytes += bytes;
            LoadSource::Host
        })
    }

    /// Reserves `bytes` for datum `key` without any transfer — used for
    /// result tiles allocated and zero-initialised directly on the device
    /// (§5: "C empty, the necessary tiles will be allocated and initialized
    /// to zero when needed"). No sibling ever loads such a datum, so it
    /// stays out of the node registry.
    pub fn alloc(&mut self, key: DataKey, bytes: u64) -> Result<(), DeviceOom> {
        self.reserve(key, bytes, false).map(drop)
    }

    /// Takes one reference to `key`, reserving its `bytes` if it is not
    /// resident yet (`shared`: it enters the node registry); returns
    /// whether it was newly reserved.
    fn reserve(&mut self, key: DataKey, bytes: u64, shared: bool) -> Result<bool, DeviceOom> {
        if let Some(entry) = self.resident.get_mut(&key) {
            entry.1 += 1;
            return Ok(false);
        }
        if self.used + bytes > self.capacity {
            return Err(DeviceOom {
                key,
                bytes,
                used: self.used,
                capacity: self.capacity,
            });
        }
        self.used += bytes;
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.used);
        self.resident.insert(key, (bytes, 1, shared));
        Ok(true)
    }

    /// Releases one reference to datum `key`; frees its bytes when the last
    /// reference drops. `writeback` adds the bytes to the d2h counter when
    /// freed (used when flushing C tiles). Returns whether the datum was
    /// actually freed.
    ///
    /// # Panics
    /// Panics if the datum is not resident.
    pub fn evict(&mut self, key: DataKey, writeback: bool) -> bool {
        let entry = self
            .resident
            .get_mut(&key)
            .unwrap_or_else(|| panic!("evicting non-resident {key:?}"));
        entry.1 -= 1;
        if entry.1 > 0 {
            return false;
        }
        let (bytes, shared) = (entry.0, entry.2);
        self.resident.remove(&key);
        self.used -= bytes;
        self.stats.evictions += 1;
        if writeback {
            self.stats.d2h_bytes += bytes;
        }
        if shared {
            self.registry.remove(key, self.gpu);
        }
        true
    }

    /// Whether `key` is resident.
    pub fn is_resident(&self, key: DataKey) -> bool {
        self.resident.contains_key(&key)
    }

    /// Bytes currently in use.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }
}

/// Node-level registry of which GPUs hold which loaded data (enables d2d
/// sourcing).
#[derive(Default)]
pub struct NodeResidency {
    map: Mutex<CoordMap<DataKey, Vec<usize>>>,
}

impl NodeResidency {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `gpu` holds `key`; returns whether another GPU does.
    fn add(&self, key: DataKey, gpu: usize) -> bool {
        let mut map = self.map.lock();
        let gpus = map.entry(key).or_default();
        if !gpus.contains(&gpu) {
            gpus.push(gpu);
        }
        gpus.iter().any(|&g| g != gpu)
    }

    fn remove(&self, key: DataKey, gpu: usize) {
        let mut map = self.map.lock();
        if let Some(s) = map.get_mut(&key) {
            s.retain(|&g| g != gpu);
            if s.is_empty() {
                map.remove(&key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn dev(cap: u64) -> DeviceMemory {
        DeviceMemory::new(0, cap, Arc::new(NodeResidency::new()))
    }

    #[test]
    fn coord_hasher_spreads_a_tile_grid() {
        // Every (variant, r, c) of a 64 × 64 tile grid hashes distinctly,
        // and the low bits (the table's bucket index) stay near-uniform.
        use std::hash::{BuildHasher, BuildHasherDefault};
        let build = BuildHasherDefault::<CoordHasher>::default();
        let mut seen = HashSet::new();
        let mut buckets = [0u32; 256];
        for r in 0..64u32 {
            for c in 0..64u32 {
                for key in [DataKey::A(r, c), DataKey::B(r, c), DataKey::C(r, c)] {
                    let h = build.hash_one(key);
                    assert!(seen.insert(h), "collision on {key:?}");
                    buckets[(h & 0xff) as usize] += 1;
                }
            }
        }
        let mean = (3 * 64 * 64 / 256) as u32;
        assert!(buckets.iter().all(|&n| n < 2 * mean), "skewed low bits: {buckets:?}");
    }

    #[test]
    fn load_and_residency() {
        let mut d = dev(100);
        assert_eq!(d.load(DataKey::A(0, 0), 40).unwrap(), LoadSource::Host);
        assert_eq!(d.load(DataKey::A(0, 0), 40).unwrap(), LoadSource::Resident);
        assert_eq!(d.used(), 40);
        assert_eq!(d.stats().h2d_bytes, 40);
        assert_eq!(d.stats().loads, 1);
    }

    #[test]
    fn oom_on_overflow() {
        let mut d = dev(100);
        d.load(DataKey::A(0, 0), 60).unwrap();
        let err = d.load(DataKey::A(0, 1), 60).unwrap_err();
        assert_eq!(err.used, 60);
        assert_eq!(err.capacity, 100);
        // The failed load changed nothing.
        assert_eq!(d.used(), 60);
        assert!(!d.is_resident(DataKey::A(0, 1)));
    }

    #[test]
    fn evict_frees_and_counts_writeback() {
        let mut d = dev(100);
        d.load(DataKey::C(0, 0), 50).unwrap();
        d.evict(DataKey::C(0, 0), true);
        assert_eq!(d.used(), 0);
        assert_eq!(d.stats().d2h_bytes, 50);
        d.load(DataKey::A(1, 1), 30).unwrap();
        d.evict(DataKey::A(1, 1), false);
        assert_eq!(d.stats().d2h_bytes, 50);
    }

    #[test]
    #[should_panic(expected = "non-resident")]
    fn evict_missing_panics() {
        dev(10).evict(DataKey::A(0, 0), false);
    }

    #[test]
    fn peak_high_water() {
        let mut d = dev(100);
        d.load(DataKey::A(0, 0), 70).unwrap();
        d.evict(DataKey::A(0, 0), false);
        d.load(DataKey::A(0, 1), 20).unwrap();
        assert_eq!(d.stats().peak_bytes, 70);
    }

    #[test]
    fn refcounted_overlapping_loads() {
        // A prefetched chunk re-loading a tile the previous chunk still
        // holds must not lose the tile when the previous chunk evicts.
        let mut d = dev(100);
        assert_eq!(d.load(DataKey::A(0, 0), 40).unwrap(), LoadSource::Host);
        assert_eq!(d.load(DataKey::A(0, 0), 40).unwrap(), LoadSource::Resident);
        assert_eq!(d.used(), 40, "one copy, two references");
        assert!(!d.evict(DataKey::A(0, 0), false), "first release keeps it");
        assert!(d.is_resident(DataKey::A(0, 0)));
        assert!(d.evict(DataKey::A(0, 0), false), "last release frees");
        assert!(!d.is_resident(DataKey::A(0, 0)));
        assert_eq!(d.used(), 0);
        // h2d counted once; only the final free is an eviction.
        assert_eq!(d.stats().h2d_bytes, 40);
        assert_eq!(d.stats().evictions, 1);
    }

    #[test]
    fn refcounted_alloc() {
        let mut d = dev(100);
        d.alloc(DataKey::C(0, 0), 30).unwrap();
        d.alloc(DataKey::C(0, 0), 30).unwrap();
        assert_eq!(d.used(), 30);
        assert!(!d.evict(DataKey::C(0, 0), true));
        assert_eq!(d.stats().d2h_bytes, 0, "writeback only on the final free");
        assert!(d.evict(DataKey::C(0, 0), true));
        assert_eq!(d.stats().d2h_bytes, 30);
    }

    #[test]
    fn d2d_from_sibling() {
        let reg = Arc::new(NodeResidency::new());
        let mut g0 = DeviceMemory::new(0, 100, reg.clone());
        let mut g1 = DeviceMemory::new(1, 100, reg.clone());
        assert_eq!(g0.load(DataKey::A(2, 3), 10).unwrap(), LoadSource::Host);
        assert_eq!(g1.load(DataKey::A(2, 3), 10).unwrap(), LoadSource::Peer);
        assert_eq!(g1.stats().d2d_bytes, 10);
        assert_eq!(g1.stats().h2d_bytes, 0);
        // After both evict, a fresh load is a host transfer again.
        g0.evict(DataKey::A(2, 3), false);
        g1.evict(DataKey::A(2, 3), false);
        assert_eq!(g0.load(DataKey::A(2, 3), 10).unwrap(), LoadSource::Host);
        // An allocated result tile is private to its device.
        g0.alloc(DataKey::C(0, 0), 10).unwrap();
        assert_eq!(g1.load(DataKey::C(0, 0), 10).unwrap(), LoadSource::Host);
        assert!(g0.evict(DataKey::C(0, 0), true));
        assert!(reg.map.lock().contains_key(&DataKey::C(0, 0)), "g1's load stays registered");
    }
}
