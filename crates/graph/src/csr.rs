//! Immutable compressed-sparse-row adjacency for undirected graphs.
//!
//! The paper's workloads repeatedly scan 1- and 2-hop neighborhoods of
//! thousands of query nodes over graphs with up to tens of millions of
//! edges, so adjacency lookups must be allocation-free and cache-friendly:
//! a classic CSR layout (`offsets` + `targets`) with sorted neighbor lists
//! gives O(1) degree, O(deg) neighbor iteration, and O(log deg) edge tests.

use crate::ids::NodeId;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// Compressed-sparse-row representation of an undirected graph.
///
/// Every undirected edge `{u, v}` is stored twice (once in `u`'s list, once
/// in `v`'s list); self-loops are stored once. Neighbor lists are sorted
/// ascending, enabling binary-search edge tests and deterministic iteration.
///
/// Construct via [`crate::GraphBuilder`], or from arrays a loader read
/// via [`Csr::try_from_parts`], which refuses any that break these
/// rules.
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

    /// The offsets array: `offsets()[v]..offsets()[v + 1]` indexes `v`'s
    /// run in [`Csr::targets`]. Length `num_nodes + 1`.
    #[inline]
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The flat neighbor array, every node's run in node order.
    #[inline]
    pub fn targets(&self) -> &[u32] {
        &self.targets
    }

    /// A CSR from raw arrays, after [`Csr::validate`]'s checks: what a
    /// loader calls on arrays it did not build. The edge count is
    /// derived, not taken on trust: (entries + self-loops) / 2.
    pub fn try_from_parts(offsets: Vec<u64>, targets: Vec<u32>) -> crate::Result<Csr> {
        let num_edges = check_parts(&offsets, &targets)?;
        Ok(Csr { offsets, targets, num_edges })
    }

    /// Verify structural invariants: offsets start at 0, never fall and
    /// end at the number of targets; every run is strictly ascending;
    /// every id is in range; and the adjacency is symmetric. One linear
    /// pass, the same one [`Csr::try_from_parts`] makes.
    pub fn validate(&self) -> crate::Result<()> {
        check_parts(&self.offsets, &self.targets).map(drop)
    }
}

/// The one linear validator behind [`Csr::validate`] and
/// [`Csr::try_from_parts`]; returns the undirected edge count.
///
/// Symmetry is checked without a lookup per entry. Each entry `(u, v)`
/// off the diagonal contributes `mix(min, max)` to a running sum, added
/// above the diagonal (`u < v`) and subtracted below it. A symmetric
/// adjacency pairs every entry with its mirror, so the sum is 0. An
/// asymmetric one leaves a sum of distinct mixed pairs, which is 0 only
/// by a 64-bit accident. The mix is keyed per call from std's
/// `RandomState`, so no fixed input can be built to cancel: the key
/// decides nothing else and never reaches a result.
fn check_parts(offsets: &[u64], targets: &[u32]) -> crate::Result<u64> {
    use crate::Error::{BadOffsets, DuplicateNeighbor, NodeOutOfRange, UnsortedRun};
    if offsets.first() != Some(&0) {
        return Err(BadOffsets { detail: "first offset is not 0" });
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(BadOffsets { detail: "offsets are not monotone" });
    }
    if offsets[offsets.len() - 1] != targets.len() as u64 {
        return Err(BadOffsets { detail: "last offset is not the number of targets" });
    }
    let n = u32::try_from(offsets.len() - 1)
        .map_err(|_| BadOffsets { detail: "more than 2^32 - 1 nodes" })?;
    let key = RandomState::new().hash_one(0u8);
    let (mut sum, mut loops) = (0u64, 0u64);
    for (u, w) in offsets.windows(2).enumerate() {
        let u = u as u32;
        let run = &targets[w[0] as usize..w[1] as usize];
        // A sorted run holds the entries below the diagonal, then a
        // self-loop if there is one, then the entries above it. The
        // split is trusted only once the scan below finds the run sorted.
        let (below, rest) = run.split_at(run.partition_point(|&v| v < u));
        let (self_loop, above) = match rest.split_first() {
            Some((&v, above)) if v == u => (1, above),
            _ => (0, rest),
        };
        // One past the last id seen: an entry below it breaks the order.
        let mut next = 0u64;
        let mut unsorted = false;
        let mut ordered = |v: u32| {
            unsorted |= u64::from(v) < next;
            next = u64::from(v) + 1;
        };
        for &v in below {
            ordered(v);
            sum = sum.wrapping_sub(mix(v, u, key));
        }
        if self_loop == 1 {
            ordered(u);
        }
        for &v in above {
            ordered(v);
            sum = sum.wrapping_add(mix(u, v, key));
        }
        if unsorted {
            let p = run.windows(2).find(|p| p[0] >= p[1]).expect("a pair out of order");
            return Err(if p[0] == p[1] {
                DuplicateNeighbor { node: u, neighbor: p[0] }
            } else {
                UnsortedRun { node: u }
            });
        }
        if let Some(&last) = run.last().filter(|&&v| v >= n) {
            return Err(NodeOutOfRange { node: last, num_nodes: n });
        }
        loops += self_loop;
    }
    if sum != 0 {
        return Err(crate::Error::AsymmetricAdjacency);
    }
    Ok((targets.len() as u64 + loops) / 2)
}

/// XXH64's avalanche of the pair `(lo, hi)` under `key`: a nonlinear
/// 64-bit bijection of `(lo << 32 | hi) ^ key`.
#[inline(always)]
fn mix(lo: u32, hi: u32, key: u64) -> u64 {
    let mut h = ((u64::from(lo) << 32) | u64::from(hi)) ^ key;
    h ^= h >> 33;
    h = h.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    h ^= h >> 29;
    h = h.wrapping_mul(0x1656_67B1_9E37_79F9);
    h ^ (h >> 32)
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

    /// The 4-cycle 0-1-2-3-0 as raw arrays.
    fn cycle4() -> (Vec<u64>, Vec<u32>) {
        (vec![0, 2, 4, 6, 8], vec![1, 3, 0, 2, 1, 3, 0, 2])
    }

    #[test]
    fn try_from_parts_takes_a_valid_csr_and_derives_its_edges() {
        let (offsets, targets) = cycle4();
        let g = Csr::try_from_parts(offsets, targets).unwrap();
        assert_eq!(g.num_edges(), 4);
        let mut b = GraphBuilder::new(4);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            b.add_edge(u, v).unwrap();
        }
        assert_eq!(g, b.build());

        // A self-loop is one entry and one edge.
        let g = Csr::try_from_parts(vec![0, 2, 3], vec![0, 1, 0]).unwrap();
        assert_eq!(
            (g.num_edges(), g.offsets(), g.targets()),
            (2, &[0, 2, 3][..], &[0, 1, 0][..])
        );
        assert_eq!(Csr::try_from_parts(vec![0], vec![]).unwrap().num_nodes(), 0);
    }

    #[test]
    fn try_from_parts_refuses_each_broken_rule() {
        use crate::Error;
        let broken = |edit: fn(&mut Vec<u64>, &mut Vec<u32>)| {
            let (mut offsets, mut targets) = cycle4();
            edit(&mut offsets, &mut targets);
            Csr::try_from_parts(offsets, targets).unwrap_err()
        };
        let bad = |detail| Error::BadOffsets { detail };
        assert_eq!(
            Csr::try_from_parts(vec![], vec![]).unwrap_err(),
            bad("first offset is not 0")
        );
        assert_eq!(broken(|o, _| o[0] = 1), bad("first offset is not 0"));
        assert_eq!(broken(|o, _| o[1] = 5), bad("offsets are not monotone"));
        assert_eq!(broken(|o, _| o[4] = 7), bad("last offset is not the number of targets"));
        assert_eq!(broken(|_, t| t.swap(0, 1)), Error::UnsortedRun { node: 0 });
        assert_eq!(broken(|_, t| t[0] = 3), Error::DuplicateNeighbor { node: 0, neighbor: 3 });
        assert_eq!(broken(|_, t| t[7] = 9), Error::NodeOutOfRange { node: 9, num_nodes: 4 });
        // Every node keeps in- and out-degree 2, but 0→1 has no 1→0.
        let skewed = |_: &mut Vec<u64>, t: &mut Vec<u32>| *t = vec![1, 2, 2, 3, 0, 3, 0, 1];
        assert_eq!(broken(skewed), Error::AsymmetricAdjacency);
        // One missing mirror, the entry count kept by a self-loop.
        assert_eq!(broken(|_, t| t[2] = 1), Error::AsymmetricAdjacency);
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
