//! Node-aware process topology: which ranks share a physical node, and the
//! broadcast tree shape that exploits it.
//!
//! The paper's machine model (and Irmler et al., *Node-Aware Processor
//! Grids*) distinguishes two link classes: ranks on the same physical node
//! talk over shared memory / NVLink at tens of GB/s, ranks on different
//! nodes cross the NIC at a fraction of that. A [`Topology`] models `P`
//! ranks packed `node_size` per physical node (rank-major, so consecutive
//! ranks share a node), classifies every `(src, dst)` pair into a
//! [`LinkClass`], and builds the one collective tree the transport uses:
//! [`Topology::bcast_children`], a **hierarchical broadcast tree**. The
//! member set is grouped by physical node, a binomial tree over the group
//! *leaders* carries the payload across the slow inter-node links exactly
//! `groups − 1` times (the provable minimum, ≤ ⌈P/node_size⌉ − 1), and each
//! leader then fans out over a binomial tree inside its own node.
//!
//! There is no reduction tree: every `C(i, j)` is produced on exactly one
//! rank, so a hop through another rank would re-send a tile without
//! combining anything. Each rank sends its folded C tiles straight to
//! rank 0, over whichever link class `(rank, 0)` is.
//!
//! The tree shape is a pure function of `(ranks, node_size, member set)` —
//! never of delivery timing.
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

/// Parent of index `i > 0` in a 0-indexed binomial tree: clear the highest
/// set bit.
fn binomial_parent(i: usize) -> usize {
    debug_assert!(i > 0);
    i - (1 << (usize::BITS - 1 - i.leading_zeros()))
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

    /// Number of physical nodes (`⌈ranks/node_size⌉`).
    pub fn physical_nodes(&self) -> usize {
        self.ranks.div_ceil(self.node_size)
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

    /// The node-aware broadcast tree over `root` plus `dests`: returns
    /// `(parent, child)` edges, parents always appearing (as root or as an
    /// earlier child) before they forward. `dests` need not be sorted and
    /// must not contain `root`; duplicates are ignored.
    ///
    /// Shape: members grouped by physical node (the root's group first,
    /// remaining groups by first member), a binomial tree over group
    /// leaders, then a binomial tree inside each group — so exactly
    /// `groups − 1` edges cross the inter-node link, the minimum possible.
    pub fn bcast_children(&self, root: usize, dests: &[usize]) -> Vec<(usize, usize)> {
        let mut members: Vec<usize> = dests.to_vec();
        members.sort_unstable();
        members.dedup();
        members.retain(|&m| m != root);

        // Group members by physical node; the root's group leads.
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut order: Vec<usize> = Vec::new(); // physical node of each group
        for &m in std::iter::once(&root).chain(&members) {
            let pn = self.physical_node(m);
            match order.iter().position(|&o| o == pn) {
                Some(g) => groups[g].push(m),
                None => {
                    order.push(pn);
                    groups.push(vec![m]);
                }
            }
        }

        let mut edges = Vec::with_capacity(members.len());
        // Inter-node backbone: binomial tree over the group leaders.
        for g in 1..groups.len() {
            edges.push((groups[binomial_parent(g)][0], groups[g][0]));
        }
        // Intra-node fan-out: binomial tree inside each group.
        for group in &groups {
            for i in 1..group.len() {
                edges.push((group[binomial_parent(i)], group[i]));
            }
        }
        edges
    }

    /// Number of inter-node edges in [`Topology::bcast_children`] for this
    /// member set — always `distinct physical nodes − 1`.
    pub fn bcast_inter_edges(&self, root: usize, dests: &[usize]) -> usize {
        self.bcast_children(root, dests)
            .iter()
            .filter(|&&(p, c)| self.link_class(p, c) == LinkClass::Inter)
            .count()
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
        assert_eq!(t.physical_nodes(), 2);
        let flat = Topology::new(8, 1);
        assert_eq!(flat.link_class(0, 1), LinkClass::Inter);
        assert_eq!(flat.physical_nodes(), 8);
    }

    #[test]
    fn ragged_last_node() {
        let t = Topology::new(10, 4); // nodes {0..3}, {4..7}, {8,9}
        assert_eq!(t.physical_nodes(), 3);
        assert_eq!(t.physical_node(9), 2);
        assert!(t.same_node(8, 9));
        assert!(!t.same_node(7, 8));
    }

    /// Every destination is reached exactly once, parents forward only
    /// after they appear, and the inter-node crossing count meets the
    /// ⌈P/node_size⌉ − 1 bound.
    #[test]
    fn bcast_tree_covers_and_bounds_crossings() {
        for (ranks, node_size, root) in [(16, 4, 5), (16, 1, 0), (12, 5, 11), (9, 3, 4)] {
            let t = Topology::new(ranks, node_size);
            let dests: Vec<usize> = (0..ranks).filter(|&r| r != root).collect();
            let edges = t.bcast_children(root, &dests);
            assert_eq!(edges.len(), dests.len(), "one delivering edge per dest");
            let mut reached = vec![false; ranks];
            reached[root] = true;
            for &(p, c) in &edges {
                assert!(reached[p], "parent {p} forwards before receiving");
                assert!(!reached[c], "child {c} delivered twice");
                reached[c] = true;
            }
            assert!(reached.iter().all(|&r| r));
            let inter = t.bcast_inter_edges(root, &dests);
            assert_eq!(
                inter,
                t.physical_nodes() - 1,
                "{inter} inter-node crossings on {ranks}/{node_size}: the hierarchy is tight"
            );
        }
    }

    /// A partial member set (a grid row) still crosses the NIC only once
    /// per *occupied* physical node beyond the first.
    #[test]
    fn bcast_tree_partial_membership() {
        let t = Topology::new(16, 4);
        // Grid row {4..7} ∪ {12}: two physical nodes → one crossing.
        let edges = t.bcast_children(4, &[5, 6, 7, 12]);
        assert_eq!(t.bcast_inter_edges(4, &[5, 6, 7, 12]), 1);
        assert_eq!(edges.len(), 4);
    }

    #[test]
    fn flat_topology_matches_plain_binomial() {
        let t = Topology::new(8, 1);
        let dests: Vec<usize> = (1..8).collect();
        let edges = t.bcast_children(0, &dests);
        // All inter-node, 7 edges, binomial shape: 0→{1,2,4}, 1→{3,5}, ...
        assert_eq!(edges.len(), 7);
        assert!(edges.iter().all(|&(p, c)| t.link_class(p, c) == LinkClass::Inter));
        assert!(edges.contains(&(0, 1)) && edges.contains(&(0, 2)) && edges.contains(&(0, 4)));
    }
}
