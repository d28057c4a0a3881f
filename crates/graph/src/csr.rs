//! Immutable compressed-sparse-row adjacency for undirected graphs.
//!
//! The paper's workloads repeatedly scan 1- and 2-hop neighborhoods of
//! thousands of query nodes over graphs with up to tens of millions of
//! edges, so adjacency lookups must be allocation-free and cache-friendly:
//! a classic CSR layout (`offsets` + `targets`) with sorted neighbor lists
//! gives O(1) degree, O(deg) neighbor iteration, and O(log deg) edge tests.

use crate::ids::NodeId;

/// Compressed-sparse-row representation of an undirected graph.
///
/// Every undirected edge `{u, v}` is stored twice (once in `u`'s list, once
/// in `v`'s list); self-loops are stored once. Neighbor lists are sorted
/// ascending, enabling binary-search edge tests and deterministic iteration.
///
/// Construct via [`crate::GraphBuilder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    /// `offsets[v]..offsets[v + 1]` is the slice of `targets` holding `v`'s
    /// neighbors. Length `num_nodes + 1`.
    offsets: Vec<u64>,
    /// Flat neighbor array, each run sorted ascending.
    targets: Vec<u32>,
    /// Number of undirected edges (each counted once).
    num_edges: u64,
}

impl Csr {
    /// Build directly from parts. Intended for [`crate::GraphBuilder`] and
    /// tests; invariants (monotone offsets, sorted runs) are debug-asserted.
    pub(crate) fn from_parts(offsets: Vec<u64>, targets: Vec<u32>, num_edges: u64) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap() as usize, targets.len());
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        Csr { offsets, targets, num_edges }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges (each edge counted once).
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Degree of `v` (number of adjacency entries; a self-loop counts once).
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let i = v.index();
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Neighbors of `v`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[u32] {
        let i = v.index();
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Whether the undirected edge `{u, v}` exists.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        // Search the shorter list: edge tests on hubs are common in the
        // co-purchase graphs where degree is heavily skewed.
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.neighbors(a).binary_search(&b.0).is_ok()
    }

    /// Iterate all undirected edges `(u, v)` with `u <= v`, each once.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.num_nodes()).flat_map(move |u| {
            self.neighbors(NodeId(u as u32))
                .iter()
                .filter(move |&&v| u as u32 <= v)
                .map(move |&v| (NodeId(u as u32), NodeId(v)))
        })
    }

    /// Total adjacency entries (2·edges minus self-loop duplicates).
    #[inline]
    pub fn adjacency_len(&self) -> usize {
        self.targets.len()
    }

    /// Verify structural invariants; used by tests and on load paths.
    ///
    /// Checks: offsets monotone and bounded, neighbor runs sorted and
    /// deduplicated, all targets in range, and symmetry (`v ∈ N(u)` ⇒
    /// `u ∈ N(v)`).
    pub fn validate(&self) -> crate::Result<()> {
        let n = self.num_nodes() as u32;
        for u in 0..self.num_nodes() {
            let run = self.neighbors(NodeId(u as u32));
            for w in run.windows(2) {
                if w[0] >= w[1] {
                    return Err(crate::Error::InfeasibleSplit {
                        detail: format!("neighbor run of v{u} not strictly sorted"),
                    });
                }
            }
            for &v in run {
                if v >= n {
                    return Err(crate::Error::NodeOutOfRange { node: v, num_nodes: n });
                }
                if self.neighbors(NodeId(v)).binary_search(&(u as u32)).is_err() {
                    return Err(crate::Error::InfeasibleSplit {
                        detail: format!("asymmetric edge v{u}->v{v}"),
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn path3() -> Csr {
        // 0 - 1 - 2
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 2).unwrap();
        b.build()
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = path3();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(NodeId(0)), 1);
        assert_eq!(g.degree(NodeId(1)), 2);
        assert_eq!(g.neighbors(NodeId(1)), &[0, 2]);
    }

    #[test]
    fn edge_tests() {
        let g = path3();
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(1), NodeId(0)));
        assert!(!g.has_edge(NodeId(0), NodeId(2)));
    }

    #[test]
    fn edge_iteration_counts_each_once() {
        let g = path3();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))]);
    }

    #[test]
    fn validate_ok() {
        path3().validate().unwrap();
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.edges().count(), 0);
        g.validate().unwrap();
    }

    #[test]
    fn isolated_nodes() {
        let g = GraphBuilder::new(4).build();
        assert_eq!(g.num_nodes(), 4);
        for v in 0..4 {
            assert_eq!(g.degree(NodeId(v)), 0);
        }
    }
}
