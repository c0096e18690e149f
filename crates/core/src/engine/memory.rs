//! Per-GPU-lane memory management: residency, eviction, OOM, occupancy
//! sampling.
//!
//! [`MemoryManager`] owns one lane's [`DeviceMemory`] (the strict byte
//! accounting with NVLink d2d residency) *and* the host-side handles of the
//! tiles currently resident — A inputs, B inputs, and the mutable C
//! accumulators. Handlers never touch the raw device map: every load,
//! allocation and eviction goes through a manager method, so the byte
//! accounting and the tile handles can never drift apart.

use std::sync::Arc;

use bst_runtime::data::DataKey;
use bst_runtime::device::{CoordMap, DeviceMemory, DeviceOom, DeviceStats, NodeResidency};
use bst_runtime::trace::{MemSample, TraceClock};
use bst_tile::Tile;

/// Per-lane mutable context: CPU lanes carry no state; GPU lanes own a
/// [`MemoryManager`], built on the lane's first task, which moves with the
/// lane between the engine's pooled workers.
pub(crate) enum Ctx {
    /// Lane 0 (`SendA`, `ReduceC`) and the order-free `GenB`s. (A `RecvA`
    /// is an arrival: no handler runs it, so it needs no context.)
    Cpu,
    /// A GPU executor lane.
    Gpu(Box<MemoryManager>),
}

/// A resident C accumulator.
struct CEntry {
    tile: Tile,
    /// The buffer still holds a previous user's values: the first product
    /// into it, or else its flush, zero-fills it.
    stale: bool,
}

/// One GPU lane's device memory plus the resident tile handles.
pub(crate) struct MemoryManager {
    dev: DeviceMemory,
    a_tiles: CoordMap<(u32, u32), Arc<Tile>>,
    b_tiles: CoordMap<(u32, u32), Arc<Tile>>,
    c_tiles: CoordMap<(u32, u32), CEntry>,
    /// Occupancy samples (one per device-touching task) when tracing.
    mem_samples: Vec<MemSample>,
    /// The execution's trace clock; `Some` iff tracing.
    clock: Option<TraceClock>,
}

impl MemoryManager {
    pub fn new(
        gpu: usize,
        capacity: u64,
        registry: Arc<NodeResidency>,
        clock: Option<TraceClock>,
    ) -> Self {
        Self {
            dev: DeviceMemory::new(gpu, capacity, registry),
            a_tiles: CoordMap::default(),
            b_tiles: CoordMap::default(),
            c_tiles: CoordMap::default(),
            mem_samples: Vec::new(),
            clock,
        }
    }

    /// Records an occupancy sample on the trace clock (no-op untraced).
    pub fn sample_mem(&mut self) {
        if let Some(clock) = self.clock {
            self.mem_samples.push((clock.now_ns(), self.dev.used()));
        }
    }

    /// Transfers `A(i,k)` host→device (or refcounts it if already there).
    pub fn load_a(&mut self, t: (u32, u32), tile: Arc<Tile>) -> Result<(), DeviceOom> {
        self.dev.load(DataKey::A(t.0, t.1), tile.stored_bytes())?;
        self.a_tiles.insert(t, tile);
        Ok(())
    }

    /// Transfers `B(k,j)` host→device for the first of the `uses` stacks
    /// that read it, taking one device reference per stack.
    pub fn load_b(&mut self, t: (u32, u32), tile: Arc<Tile>, uses: u32) -> Result<(), DeviceOom> {
        for _ in 0..uses {
            self.dev.load(DataKey::B(t.0, t.1), tile.stored_bytes())?;
        }
        self.b_tiles.insert(t, tile);
        Ok(())
    }

    /// Reserves device space for the `C(i,j)` accumulator and adopts its
    /// host buffer (no host→device transfer — C is produced on the device).
    /// A `stale` buffer is marked, not cleared: its first product clears it
    /// while the tile is about to be hot anyway.
    pub fn alloc_c(&mut self, t: (u32, u32), (tile, stale): (Tile, bool)) -> Result<(), DeviceOom> {
        self.dev
            .alloc(DataKey::C(t.0, t.1), (tile.rows() * tile.cols() * 8) as u64)?;
        self.c_tiles.insert(t, CEntry { tile, stale });
        Ok(())
    }

    /// Hands `f` the operands `(A_ik, B_kj, C_ij)` of `C_ij += A_ik · B_kj`
    /// for each `i` of `rows`, in order — by reference, out of three
    /// disjoint maps — asserting device residency: a Gemm reaching a
    /// non-resident operand means the control DAG failed. `B_kj` is looked
    /// up once for the whole stack. A stale `C_ij` is zero-filled just
    /// before `f`.
    pub fn gemm_operands(
        &mut self,
        k: u32,
        j: u32,
        rows: &[u32],
        mut f: impl FnMut(&Tile, &Tile, &mut Tile),
    ) {
        assert!(self.dev.is_resident(DataKey::B(k, j)), "B({k},{j}) not resident");
        let bt: &Tile = &self.b_tiles[&(k, j)];
        for &i in rows {
            assert!(
                self.dev.is_resident(DataKey::A(i, k)),
                "A({i},{k}) not resident (in a_tiles: {})",
                self.a_tiles.contains_key(&(i, k))
            );
            assert!(self.dev.is_resident(DataKey::C(i, j)), "C({i},{j}) not resident");
            let c = self.c_tiles.get_mut(&(i, j)).expect("C tile allocated");
            if std::mem::take(&mut c.stale) {
                c.tile.data_mut().fill(0.0);
            }
            f(&self.a_tiles[&(i, k)], bt, &mut c.tile);
        }
    }

    /// Drops one device reference to `A` tile `t`; frees the handle when
    /// the last reference goes (a later chunk may have re-loaded it).
    pub fn evict_a(&mut self, t: (u32, u32)) {
        if self.dev.evict(DataKey::A(t.0, t.1), false) {
            self.a_tiles.remove(&t);
        }
    }

    /// Drops one stack's device reference to `B` tile `t`; the last one
    /// evicts it (no write-back) and returns the buffer for pool recycling.
    pub fn release_b(&mut self, t: (u32, u32)) -> Option<Arc<Tile>> {
        let freed = self.dev.evict(DataKey::B(t.0, t.1), false);
        freed.then(|| self.b_tiles.remove(&t)).flatten()
    }

    /// Evicts `C` tile `t` with write-back, yielding the accumulated tile
    /// (a stale one no product reached is zero-filled here).
    pub fn evict_c(&mut self, t: (u32, u32)) -> Tile {
        self.dev.evict(DataKey::C(t.0, t.1), true);
        let mut c = self.c_tiles.remove(&t).expect("flushing C tile");
        if c.stale {
            c.tile.data_mut().fill(0.0);
        }
        c.tile
    }

    /// Transfer/peak statistics of the underlying device.
    pub fn stats(&self) -> DeviceStats {
        self.dev.stats()
    }

    /// Drains the recorded occupancy samples (end-of-device hand-off).
    pub fn take_samples(&mut self) -> Vec<MemSample> {
        std::mem::take(&mut self.mem_samples)
    }

    /// Whether this manager records occupancy samples.
    pub fn traced(&self) -> bool {
        self.clock.is_some()
    }
}
