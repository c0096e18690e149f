//! Planner configuration: process grid, device description, memory budget
//! fractions, and planning errors.

/// The `p × q` process grid of §3.2.
///
/// `p` is the trade-off parameter: `p = 1` avoids replicating `B` but
/// maximises the communication volume of `A`; `p ≥ 2` replicates each
/// column of `B` `p` times (in CPU memory) and divides `A`'s communication
/// volume by `p`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GridConfig {
    /// Number of grid rows (slices of `A`).
    pub p: usize,
    /// Number of grid columns (nodes per row sharing `B`'s columns).
    pub q: usize,
}

impl GridConfig {
    /// Builds a grid from a node count and the row parameter `p`
    /// (`q = ⌊nodes / p⌋`, as in §3.2).
    ///
    /// # Panics
    /// Panics if fewer than `p` nodes are available.
    pub fn from_nodes(nodes: usize, p: usize) -> Self {
        assert!(p >= 1, "p must be at least 1");
        let q = nodes / p;
        assert!(q >= 1, "not enough nodes ({nodes}) for p = {p}");
        Self { p, q }
    }

    /// Total number of nodes used (`p·q ≤ total nodes`).
    pub fn nodes(&self) -> usize {
        self.p * self.q
    }
}

/// Per-node accelerator description.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeviceConfig {
    /// GPUs per node (`g`); Summit has 6.
    pub gpus_per_node: usize,
    /// Usable device memory per GPU in bytes (V100: 16 GB).
    pub gpu_mem_bytes: u64,
}

impl DeviceConfig {
    /// Summit's node configuration: 6 × V100-16GB.
    pub fn summit() -> Self {
        Self {
            gpus_per_node: 6,
            gpu_mem_bytes: 16 * (1 << 30),
        }
    }
}

/// How `B` columns are dealt to the nodes of a grid row (§3.2.1). The
/// paper's choice is [`AssignPolicy::MirroredCyclic`]; the alternatives
/// exist for the ablation study.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum AssignPolicy {
    /// Sort by weight, deal forward then backward (the paper's §3.2.1).
    #[default]
    MirroredCyclic,
    /// Sort by weight, deal cyclically (no mirroring).
    Cyclic,
    /// Longest-processing-time greedy: heaviest column to the currently
    /// least-loaded node.
    Lpt,
}

/// Full planner configuration.
#[derive(Clone, Copy, Debug)]
pub struct PlannerConfig {
    /// The process grid.
    pub grid: GridConfig,
    /// The per-node device description.
    pub device: DeviceConfig,
    /// Fraction of GPU memory a block (B columns + local C tiles) may
    /// occupy. The paper uses 50%.
    pub block_mem_fraction: f64,
    /// Fraction of GPU memory the *active* chunk of A tiles may occupy; an
    /// equal fraction is reserved for prefetching the next chunk. The paper
    /// uses 25% (+25%).
    pub chunk_mem_fraction: f64,
    /// Column-assignment heuristic.
    pub assign_policy: AssignPolicy,
    /// How many chunks ahead of the one computing `bst-sim`'s coarse
    /// replay lets be in flight on a device: 1 is the paper's policy (one
    /// active + one prefetching); 0 disables prefetch. The engine holds
    /// one chunk at a time: a device lane evicts a chunk before it loads
    /// the next.
    pub prefetch_depth: usize,
}

impl PlannerConfig {
    /// The paper's policy: 50% block / 25% + 25% chunk memory, mirrored
    /// cyclic assignment, prefetch depth 1.
    pub fn paper(grid: GridConfig, device: DeviceConfig) -> Self {
        Self {
            grid,
            device,
            block_mem_fraction: 0.5,
            chunk_mem_fraction: 0.25,
            assign_policy: AssignPolicy::MirroredCyclic,
            prefetch_depth: 1,
        }
    }

    /// Byte budget of one block.
    pub fn block_budget(&self) -> u64 {
        (self.device.gpu_mem_bytes as f64 * self.block_mem_fraction) as u64
    }

    /// Byte budget of one (active) chunk.
    pub fn chunk_budget(&self) -> u64 {
        (self.device.gpu_mem_bytes as f64 * self.chunk_mem_fraction) as u64
    }
}

/// Why planning can fail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// One column of `B` (plus its local `C` tiles) exceeds the block
    /// budget; the algorithm requires every column to fit in half a GPU.
    ColumnTooLarge {
        /// The offending tile column.
        col: usize,
        /// Its memory footprint in bytes.
        bytes: u64,
        /// The block budget it must fit into.
        budget: u64,
    },
    /// A single tile of `A` exceeds the chunk budget.
    TileTooLarge {
        /// Tile row.
        row: usize,
        /// Tile column.
        col: usize,
        /// Tile bytes.
        bytes: u64,
        /// The chunk budget.
        budget: u64,
    },
    /// Degraded re-planning was asked to drop every node of a grid row, so
    /// the row's `B` columns have nowhere to go.
    NoSurvivingNodes {
        /// The grid row with no surviving nodes.
        row: usize,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::ColumnTooLarge { col, bytes, budget } => write!(
                f,
                "B column {col} needs {bytes} B but the block budget is {budget} B"
            ),
            PlanError::TileTooLarge {
                row,
                col,
                bytes,
                budget,
            } => write!(
                f,
                "A tile ({row},{col}) needs {bytes} B but the chunk budget is {budget} B"
            ),
            PlanError::NoSurvivingNodes { row } => write!(
                f,
                "grid row {row} has no surviving nodes to take over its B columns"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_from_nodes() {
        let g = GridConfig::from_nodes(16, 2);
        assert_eq!(g, GridConfig { p: 2, q: 8 });
        assert_eq!(g.nodes(), 16);
        // Non-dividing p wastes nodes, as the paper's floor formula does.
        let g = GridConfig::from_nodes(10, 3);
        assert_eq!(g.q, 3);
        assert_eq!(g.nodes(), 9);
    }

    #[test]
    #[should_panic]
    fn grid_too_few_nodes() {
        GridConfig::from_nodes(1, 2);
    }

    #[test]
    fn budgets() {
        let cfg = PlannerConfig::paper(GridConfig { p: 1, q: 1 }, DeviceConfig {
            gpus_per_node: 1,
            gpu_mem_bytes: 1000,
        });
        assert_eq!(cfg.block_budget(), 500);
        assert_eq!(cfg.chunk_budget(), 250);
    }

    #[test]
    fn summit_defaults() {
        let d = DeviceConfig::summit();
        assert_eq!(d.gpus_per_node, 6);
        assert_eq!(d.gpu_mem_bytes, 17_179_869_184);
    }

    #[test]
    fn errors_display() {
        let e = PlanError::ColumnTooLarge {
            col: 3,
            bytes: 10,
            budget: 5,
        };
        assert!(e.to_string().contains("column 3"));
    }
}
