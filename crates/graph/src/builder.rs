//! Mutable edge-list accumulator that finalizes into a [`Csr`].

use crate::csr::Csr;
use crate::{Error, Result};

/// Accumulates undirected edges and builds a deduplicated, sorted [`Csr`].
///
/// Duplicate insertions of the same undirected edge are collapsed; the pair
/// order of `add_edge(u, v)` does not matter. Self-loops are accepted and
/// stored once.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_nodes: u32,
    /// Canonicalized (min, max) pairs, possibly with duplicates until build.
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// New builder for a graph with `num_nodes` nodes and no edges.
    pub fn new(num_nodes: usize) -> Self {
        GraphBuilder { num_nodes: num_nodes as u32, edges: Vec::new() }
    }

    /// New builder with preallocated capacity for `num_edges` edges.
    pub fn with_capacity(num_nodes: usize, num_edges: usize) -> Self {
        GraphBuilder { num_nodes: num_nodes as u32, edges: Vec::with_capacity(num_edges) }
    }

    /// Number of nodes the final graph will have.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes as usize
    }

    /// Number of edges currently queued (before deduplication).
    pub fn queued_edges(&self) -> usize {
        self.edges.len()
    }

    /// Queue the undirected edge `{u, v}`.
    pub fn add_edge(&mut self, u: u32, v: u32) -> Result<()> {
        if u >= self.num_nodes {
            return Err(Error::NodeOutOfRange { node: u, num_nodes: self.num_nodes });
        }
        if v >= self.num_nodes {
            return Err(Error::NodeOutOfRange { node: v, num_nodes: self.num_nodes });
        }
        self.edges.push(if u <= v { (u, v) } else { (v, u) });
        Ok(())
    }

    /// Finalize into a [`Csr`]: deduplicate, mirror, sort neighbor runs.
    pub fn build(mut self) -> Csr {
        self.edges.sort_unstable();
        self.edges.dedup();
        let n = self.num_nodes as usize;

        // Two-pass counting sort into CSR.
        let mut counts = vec![0u64; n + 1];
        for &(u, v) in &self.edges {
            counts[u as usize + 1] += 1;
            if u != v {
                counts[v as usize + 1] += 1;
            }
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let total = offsets[n] as usize;
        let mut targets = vec![0u32; total];
        let mut cursor = offsets.clone();
        for &(u, v) in &self.edges {
            targets[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            if u != v {
                targets[cursor[v as usize] as usize] = u;
                cursor[v as usize] += 1;
            }
        }
        // Runs must be sorted for binary-search edge tests. Edges were sorted
        // by (min, max), which sorts each source run by the *first* endpoint
        // only; mirrored entries can interleave, so sort each run.
        for i in 0..n {
            targets[offsets[i] as usize..offsets[i + 1] as usize].sort_unstable();
        }
        let num_edges = self.edges.len() as u64;
        Csr::from_parts(offsets, targets, num_edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    #[test]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        assert!(matches!(b.add_edge(0, 2), Err(Error::NodeOutOfRange { node: 2, .. })));
        assert!(matches!(b.add_edge(5, 0), Err(Error::NodeOutOfRange { node: 5, .. })));
    }

    #[test]
    fn deduplicates_and_mirrors() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 0).unwrap(); // duplicate, reversed
        b.add_edge(2, 1).unwrap();
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(NodeId(1)), &[0, 2]);
        g.validate().unwrap();
    }

    #[test]
    fn self_loop_stored_once() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0).unwrap();
        b.add_edge(0, 1).unwrap();
        let g = b.build();
        assert_eq!(g.neighbors(NodeId(0)), &[0, 1]);
        assert_eq!(g.degree(NodeId(0)), 2);
        assert_eq!(g.degree(NodeId(1)), 1);
    }

    #[test]
    fn star_graph() {
        let mut b = GraphBuilder::with_capacity(5, 4);
        for v in 1..5 {
            b.add_edge(0, v).unwrap();
        }
        let g = b.build();
        assert_eq!(g.degree(NodeId(0)), 4);
        assert_eq!(g.neighbors(NodeId(0)), &[1, 2, 3, 4]);
        g.validate().unwrap();
    }
}
