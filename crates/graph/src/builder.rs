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

    /// Finalize into a [`Csr`]: deduplicate, mirror, and lay every
    /// neighbor run out sorted.
    ///
    /// After the sort (linear on input that is already sorted) and the
    /// dedup, the edges run in `(u, v)` order with `u <= v`. One pass in that order writes `v` at `u`'s
    /// cursor and the mirror `u` at `v`'s. Node `x` thus receives its
    /// mirrors (from edges `(u, x)`, `u < x`) before its forward entries
    /// (from edges `(x, v)`, `v >= x`), each group ascending, so every
    /// run comes out sorted by construction and needs no per-run sort.
    pub fn build(mut self) -> Csr {
        self.edges.sort_unstable();
        self.edges.dedup();
        let n = self.num_nodes as usize;

        // `offsets[x + 1]` counts x's entries; the running sum then makes
        // `offsets[x]` the start of x's run, which serves as x's write
        // cursor until the shift at the end.
        let mut offsets = vec![0u64; n + 1];
        for &(u, v) in &self.edges {
            offsets[u as usize + 1] += 1;
            if u != v {
                offsets[v as usize + 1] += 1;
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut targets = vec![0u32; offsets[n] as usize];
        for &(u, v) in &self.edges {
            targets[offsets[u as usize] as usize] = v;
            offsets[u as usize] += 1;
            if u != v {
                targets[offsets[v as usize] as usize] = u;
                offsets[v as usize] += 1;
            }
        }
        // Each cursor now sits where the next run starts: shift them back.
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
        Csr::from_parts(offsets, targets, self.edges.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;
    use proptest::prelude::*;

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

    /// The build with an explicit sort of every run: sort, count,
    /// scatter both directions in edge order through a separate cursor
    /// array, then sort each run.
    fn oracle(num_nodes: usize, edges: &[(u32, u32)]) -> Csr {
        let mut edges: Vec<(u32, u32)> =
            edges.iter().map(|&(u, v)| if u <= v { (u, v) } else { (v, u) }).collect();
        edges.sort_unstable();
        edges.dedup();
        let n = num_nodes;
        let mut counts = vec![0u64; n + 1];
        for &(u, v) in &edges {
            counts[u as usize + 1] += 1;
            if u != v {
                counts[v as usize + 1] += 1;
            }
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts;
        let mut targets = vec![0u32; offsets[n] as usize];
        let mut cursor = offsets.clone();
        for &(u, v) in &edges {
            targets[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            if u != v {
                targets[cursor[v as usize] as usize] = u;
                cursor[v as usize] += 1;
            }
        }
        for i in 0..n {
            targets[offsets[i] as usize..offsets[i + 1] as usize].sort_unstable();
        }
        Csr::from_parts(offsets, targets, edges.len() as u64)
    }

    fn built(num_nodes: usize, edges: &[(u32, u32)]) -> Csr {
        let mut b = GraphBuilder::with_capacity(num_nodes, edges.len());
        for &(u, v) in edges {
            b.add_edge(u, v).unwrap();
        }
        b.build()
    }

    type Edges = Vec<(u32, u32)>;

    /// An edge list over `n` nodes in which duplicates, reversed pairs
    /// and self-loops are common (endpoints come from a small range) and
    /// the top nodes are often isolated. Also returned sorted, the input
    /// on which the sort is linear.
    fn edge_lists() -> impl Strategy<Value = (usize, Edges, Edges)> {
        (1..40usize)
            .prop_flat_map(|n| {
                let hot = (n as u32).div_ceil(2);
                let edge = (0..hot, 0..n as u32);
                (Just(n), prop::collection::vec(edge, 0..120), any::<bool>())
            })
            .prop_map(|(n, edges, flip)| {
                let shuffled: Vec<(u32, u32)> = edges
                    .into_iter()
                    .map(|(u, v)| if flip { (v, u) } else { (u, v) })
                    .collect();
                let mut sorted: Vec<(u32, u32)> =
                    shuffled.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
                sorted.sort_unstable();
                (n, shuffled, sorted)
            })
    }

    proptest! {
        #[test]
        fn build_equals_the_sort_every_run_oracle((n, shuffled, sorted) in edge_lists()) {
            let expected = oracle(n, &shuffled);
            for edges in [&shuffled, &sorted] {
                let g = built(n, edges);
                prop_assert!(g.validate().is_ok());
                prop_assert_eq!(&g, &expected);
            }
        }
    }

    #[test]
    fn build_equals_the_oracle_on_a_dense_graph_with_hubs() {
        let n = 300;
        let edges: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|u| [(u, (u * 7 + 3) % n as u32), (0, u), (u, u), ((u * 13) % 50, u)])
            .collect();
        let g = built(n, &edges);
        g.validate().unwrap();
        assert_eq!(g, oracle(n, &edges));
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
