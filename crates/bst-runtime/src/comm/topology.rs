//! Node-aware process topology: which ranks share a physical node.
//!
//! The paper's machine model (and Irmler et al., *Node-Aware Processor
//! Grids*) distinguishes two link classes: ranks on the same physical node
//! talk over shared memory / NVLink at tens of GB/s, ranks on different
//! nodes cross the NIC at a fraction of that. A [`Topology`] models `P`
//! ranks packed `node_size` per physical node (rank-major, so consecutive
//! ranks share a node) and classifies every `(src, dst)` pair into a
//! [`LinkClass`]. The transport keeps a credit window, a shaper and
//! statistics per class.
//!
//! There are no collective trees: an `A` tile goes from its owner straight
//! to each rank of its grid row, and each hop crosses whichever link class
//! its `(src, dst)` pair is. C never travels: every `C(i, j)` is produced
//! on exactly one rank, which keeps it.
//!
//! The grid placement is implicit: the engine numbers its `p × q` process
//! grid row-major, so a grid row (the A-broadcast set) is a contiguous rank
//! range and lands on ⌈q/node_size⌉ physical nodes — the placement that
//! maximises intra-node hops for the paper's row-broadcast-heavy
//! contraction shape.

/// Classification of one directed `(src, dst)` rank pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// `src == dst`: never shaped, never counted as traffic.
    Loopback,
    /// Different ranks on the same physical node (shared memory / NVLink).
    Intra,
    /// Ranks on different physical nodes (the NIC).
    Inter,
}

/// `P` ranks packed `node_size` per physical node, rank-major.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Topology {
    /// Total ranks (the engine's "nodes").
    pub ranks: usize,
    /// Ranks per physical node (≥ 1). `1` makes every link [`LinkClass::Inter`]
    /// — the flat, pre-node-aware behaviour.
    pub node_size: usize,
}

impl Topology {
    /// A topology of `ranks` ranks, `node_size` per physical node.
    ///
    /// # Panics
    /// Panics if `node_size == 0`.
    pub fn new(ranks: usize, node_size: usize) -> Self {
        assert!(node_size >= 1, "node_size must be >= 1");
        Self { ranks, node_size }
    }

    /// The physical node hosting `rank`.
    pub fn physical_node(&self, rank: usize) -> usize {
        rank / self.node_size
    }

    /// Whether two ranks share a physical node.
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.physical_node(a) == self.physical_node(b)
    }

    /// The link class of the directed pair `(src, dst)`.
    pub fn link_class(&self, src: usize, dst: usize) -> LinkClass {
        if src == dst {
            LinkClass::Loopback
        } else if self.same_node(src, dst) {
            LinkClass::Intra
        } else {
            LinkClass::Inter
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_classes() {
        let t = Topology::new(8, 4);
        assert_eq!(t.link_class(3, 3), LinkClass::Loopback);
        assert_eq!(t.link_class(0, 3), LinkClass::Intra);
        assert_eq!(t.link_class(3, 4), LinkClass::Inter);
        let flat = Topology::new(8, 1);
        assert_eq!(flat.link_class(0, 1), LinkClass::Inter);
    }

    #[test]
    fn ragged_last_node() {
        let t = Topology::new(10, 4); // nodes {0..3}, {4..7}, {8,9}
        assert_eq!(t.physical_node(9), 2);
        assert!(t.same_node(8, 9));
        assert!(!t.same_node(7, 8));
    }
}
