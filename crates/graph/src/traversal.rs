//! Bounded k-hop traversal and neighbor sampling.
//!
//! These are the primitives behind the paper's neighbor-selection methods
//! (Table I): `k-hop random` samples up to `M` nodes from `N^k(v)`
//! preferring labeled ones, and SNS walks outward hop by hop collecting
//! labeled candidates.
//!
//! `N^1(v)` is the node's CSR run with `v` itself removed, in the order a
//! BFS would find it, so [`one_hop`] and [`sample_one_hop`] read it without
//! a visited map. Deeper searches need one: a reusable [`KhopBuffer`] lets
//! callers amortize the visited map across thousands of queries.

use crate::csr::Csr;
use crate::ids::NodeId;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::VecDeque;

/// Reusable scratch space for repeated k-hop BFS over the same graph.
///
/// `visited` uses a round-stamp trick so clearing between queries is O(1)
/// instead of O(n): an entry is "visited" iff it equals the current epoch.
#[derive(Debug, Clone)]
pub struct KhopBuffer {
    stamp: Vec<u32>,
    epoch: u32,
    queue: VecDeque<(u32, u8)>,
}

impl KhopBuffer {
    /// Scratch space for a graph with `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        KhopBuffer { stamp: vec![0; num_nodes], epoch: 0, queue: VecDeque::new() }
    }

    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: reset stamps so stale entries can't alias epoch 0.
            self.stamp.iter_mut().for_each(|s| *s = u32::MAX);
            self.epoch = 1;
        }
        self.queue.clear();
    }

    #[inline]
    fn mark(&mut self, v: u32) -> bool {
        if self.stamp[v as usize] == self.epoch {
            false
        } else {
            self.stamp[v as usize] = self.epoch;
            true
        }
    }
}

/// A node found by k-hop BFS together with its hop distance from the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopNode {
    /// The discovered node.
    pub node: NodeId,
    /// BFS distance from the query node (1 = direct neighbor).
    pub hop: u8,
}

/// Collect every node within `k` hops of `src` (excluding `src` itself), in
/// BFS order, appending to `out`. `buf` must have been created for this
/// graph's node count.
pub fn khop_nodes(g: &Csr, src: NodeId, k: u8, buf: &mut KhopBuffer, out: &mut Vec<HopNode>) {
    out.clear();
    if k == 0 {
        return;
    }
    buf.begin();
    buf.mark(src.0);
    buf.queue.push_back((src.0, 0));
    while let Some((u, d)) = buf.queue.pop_front() {
        if d == k {
            continue;
        }
        for &v in g.neighbors(NodeId(u)) {
            if buf.mark(v) {
                out.push(HopNode { node: NodeId(v), hop: d + 1 });
                buf.queue.push_back((v, d + 1));
            }
        }
    }
}

/// Convenience wrapper around [`khop_nodes`] that allocates its own buffers.
pub fn khop_nodes_alloc(g: &Csr, src: NodeId, k: u8) -> Vec<HopNode> {
    let mut buf = KhopBuffer::new(g.num_nodes());
    let mut out = Vec::new();
    khop_nodes(g, src, k, &mut buf, &mut out);
    out
}

/// `N^1(src)` in the order [`khop_nodes`] with `k = 1` returns it: the CSR
/// run, which is sorted and duplicate-free, without `src`'s self-loop.
pub fn one_hop(g: &Csr, src: NodeId) -> impl Iterator<Item = NodeId> + '_ {
    g.neighbors(src).iter().filter(move |&&v| v != src.0).map(|&v| NodeId(v))
}

/// Sample up to `m` nodes from `candidates`, preferring those for which
/// `is_labeled` returns true (the paper's k-hop random rule: "a preference
/// for labeled neighbors followed by a random selection from unlabeled
/// neighbors, up to a fixed number limit M").
///
/// Both the labeled and unlabeled pools are shuffled, so ties break
/// uniformly at random but deterministically under a seeded `rng`.
pub fn sample_prefer_labeled<R: Rng>(
    candidates: &[HopNode],
    m: usize,
    is_labeled: impl Fn(NodeId) -> bool,
    rng: &mut R,
) -> Vec<HopNode> {
    prefer_labeled(candidates.iter().copied(), m, |h| is_labeled(h.node), rng)
}

/// [`sample_prefer_labeled`] over `N^1(src)` without a BFS: the same
/// nodes in the same order, drawing the same numbers from `rng`.
pub fn sample_one_hop<R: Rng>(
    g: &Csr,
    src: NodeId,
    m: usize,
    is_labeled: impl Fn(NodeId) -> bool,
    rng: &mut R,
) -> Vec<NodeId> {
    prefer_labeled(one_hop(g, src), m, is_labeled, rng)
}

/// The labeled-first sample behind [`sample_prefer_labeled`]. A shuffle's
/// draws depend only on the pool's length, so any item type that
/// partitions the same way draws the same numbers.
fn prefer_labeled<T: Copy, R: Rng>(
    candidates: impl Iterator<Item = T>,
    m: usize,
    is_labeled: impl Fn(T) -> bool,
    rng: &mut R,
) -> Vec<T> {
    if m == 0 {
        return Vec::new();
    }
    let (mut labeled, mut unlabeled): (Vec<T>, Vec<T>) =
        candidates.partition(|&c| is_labeled(c));
    labeled.shuffle(rng);
    unlabeled.shuffle(rng);
    labeled.truncate(m);
    let rem = m - labeled.len();
    labeled.extend(unlabeled.into_iter().take(rem));
    labeled
}

/// Walk outward hop by hop (up to `max_hop`) collecting labeled nodes until
/// at least `want` are found or the hop limit is reached. This is SNS's
/// progressive exploration step ("progressively explores from closer to
/// farther hops to find enough labeled neighbors or until reaching five
/// hops"). Returns labeled candidates in BFS order with hop distances:
/// every labeled node of each completed ring, up to the first ring that
/// brings the count to `want`. The search stops there, so it visits no
/// node beyond the last ring it returns. `want == 0` returns nothing.
pub fn collect_labeled_progressive(
    g: &Csr,
    src: NodeId,
    want: usize,
    max_hop: u8,
    is_labeled: impl Fn(NodeId) -> bool,
    buf: &mut KhopBuffer,
) -> Vec<HopNode> {
    let mut out = Vec::new();
    buf.begin();
    buf.mark(src.0);
    buf.queue.push_back((src.0, 0));
    // The ring whose nodes are being expanded: every node of ring `d` is
    // queued before the first of them is expanded.
    let mut expanding = None;
    while let Some((u, d)) = buf.queue.pop_front() {
        if d == max_hop {
            break;
        }
        if expanding != Some(d) {
            if out.len() >= want {
                break;
            }
            expanding = Some(d);
        }
        for &v in g.neighbors(NodeId(u)) {
            if buf.mark(v) {
                let hn = HopNode { node: NodeId(v), hop: d + 1 };
                if is_labeled(hn.node) {
                    out.push(hn);
                }
                buf.queue.push_back((v, d + 1));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The progressive exploration as a full `max_hop` BFS that keeps the
    /// rings up to the first one supplying `want` labeled nodes: the
    /// reference [`collect_labeled_progressive`] must agree with.
    fn collect_labeled_full_bfs(
        g: &Csr,
        src: NodeId,
        want: usize,
        max_hop: u8,
        is_labeled: impl Fn(NodeId) -> bool,
    ) -> Vec<HopNode> {
        let mut out = Vec::new();
        let mut current_hop = 0u8;
        for hn in khop_nodes_alloc(g, src, max_hop) {
            if hn.hop > current_hop {
                // Completed the previous hop ring; stop if we already have enough.
                if out.len() >= want {
                    break;
                }
                current_hop = hn.hop;
            }
            if is_labeled(hn.node) {
                out.push(hn);
            }
        }
        out
    }

    /// A graph over `n` nodes: `edges` (self-loops kept, duplicates
    /// merged), plus node 0 as a hub joined to every node in `hub`.
    /// Nodes no edge touches stay isolated.
    fn graph(n: usize, edges: &[(u32, u32)], hub: &[u32]) -> Csr {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(u % n as u32, v % n as u32).unwrap();
        }
        for &v in hub {
            b.add_edge(0, v % n as u32).unwrap();
        }
        b.build()
    }

    /// Graph shape, source, labeled-node mask and rng seed.
    type Case = (usize, Vec<(u32, u32)>, Vec<u32>, u32, Vec<bool>, u64);

    fn cases() -> impl Strategy<Value = Case> {
        (
            1usize..40,
            prop::collection::vec((0u32..40, 0u32..40), 0..80),
            prop::collection::vec(0u32..40, 0..40),
            0u32..40,
            prop::collection::vec(any::<bool>(), 40),
            any::<u64>(),
        )
    }

    proptest! {
        /// The CSR-run sample draws the same nodes, in the same order,
        /// with the same draws as a 1-hop BFS followed by
        /// [`sample_prefer_labeled`], for M of 0, 1, 10 and beyond the
        /// degree.
        #[test]
        fn one_hop_sample_matches_bfs_then_sample(
            (n, edges, hub, src, labeled, seed) in cases(),
            extra in 1usize..4,
        ) {
            let g = graph(n, &edges, &hub);
            let src = NodeId(src % n as u32);
            let is_labeled = |v: NodeId| labeled[v.index()];
            let bfs = khop_nodes_alloc(&g, src, 1);
            for m in [0, 1, 10, g.degree(src) + extra] {
                let mut want_rng = StdRng::seed_from_u64(seed);
                let want: Vec<NodeId> = sample_prefer_labeled(&bfs, m, is_labeled, &mut want_rng)
                    .into_iter()
                    .map(|h| h.node)
                    .collect();
                let mut got_rng = StdRng::seed_from_u64(seed);
                let got = sample_one_hop(&g, src, m, is_labeled, &mut got_rng);
                prop_assert_eq!(&got, &want, "m = {}", m);
                prop_assert_eq!(format!("{got_rng:?}"), format!("{want_rng:?}"), "m = {}", m);
            }
        }

        /// Ring-by-ring exploration returns what the full BFS keeps.
        #[test]
        fn progressive_matches_the_full_bfs(
            (n, edges, hub, src, labeled, _) in cases(),
            want in 0usize..12,
            max_hop in 0u8..6,
        ) {
            let g = graph(n, &edges, &hub);
            let src = NodeId(src % n as u32);
            let is_labeled = |v: NodeId| labeled[v.index()];
            let mut buf = KhopBuffer::new(n);
            prop_assert_eq!(
                collect_labeled_progressive(&g, src, want, max_hop, is_labeled, &mut buf),
                collect_labeled_full_bfs(&g, src, want, max_hop, is_labeled)
            );
        }
    }

    #[test]
    fn one_hop_drops_the_self_loop() {
        let g = graph(3, &[(1, 1), (1, 2), (0, 1)], &[]);
        assert_eq!(g.neighbors(NodeId(1)), &[0, 1, 2]);
        assert_eq!(
            super::one_hop(&g, NodeId(1)).collect::<Vec<_>>(),
            vec![NodeId(0), NodeId(2)]
        );
    }

    /// 0-1-2-3-4 path plus 1-5 branch.
    fn fixture() -> Csr {
        let mut b = GraphBuilder::new(6);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)] {
            b.add_edge(u, v).unwrap();
        }
        b.build()
    }

    #[test]
    fn one_hop() {
        let g = fixture();
        let got = khop_nodes_alloc(&g, NodeId(1), 1);
        let nodes: Vec<u32> = got.iter().map(|h| h.node.0).collect();
        assert_eq!(nodes, vec![0, 2, 5]);
        assert!(got.iter().all(|h| h.hop == 1));
    }

    #[test]
    fn two_hop_excludes_source_and_tracks_distance() {
        let g = fixture();
        let got = khop_nodes_alloc(&g, NodeId(0), 2);
        let pairs: Vec<(u32, u8)> = got.iter().map(|h| (h.node.0, h.hop)).collect();
        assert_eq!(pairs, vec![(1, 1), (2, 2), (5, 2)]);
    }

    #[test]
    fn zero_hop_is_empty() {
        let g = fixture();
        assert!(khop_nodes_alloc(&g, NodeId(0), 0).is_empty());
    }

    #[test]
    fn buffer_reuse_across_queries() {
        let g = fixture();
        let mut buf = KhopBuffer::new(g.num_nodes());
        let mut out = Vec::new();
        khop_nodes(&g, NodeId(0), 2, &mut buf, &mut out);
        assert_eq!(out.len(), 3);
        khop_nodes(&g, NodeId(4), 1, &mut buf, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].node, NodeId(3));
    }

    #[test]
    fn sampling_prefers_labeled() {
        let g = fixture();
        let cands = khop_nodes_alloc(&g, NodeId(1), 2); // 0,2,5,3
        let mut rng = StdRng::seed_from_u64(7);
        // Only node 3 is labeled; with m=2 it must always be included.
        let picked = sample_prefer_labeled(&cands, 2, |n| n.0 == 3, &mut rng);
        assert_eq!(picked.len(), 2);
        assert!(picked.iter().any(|h| h.node.0 == 3));
    }

    #[test]
    fn sampling_caps_at_m_and_handles_empty() {
        let mut rng = StdRng::seed_from_u64(7);
        assert!(sample_prefer_labeled(&[], 4, |_| true, &mut rng).is_empty());
        let cands = vec![HopNode { node: NodeId(0), hop: 1 }];
        assert_eq!(sample_prefer_labeled(&cands, 0, |_| true, &mut rng).len(), 0);
        assert_eq!(sample_prefer_labeled(&cands, 9, |_| true, &mut rng).len(), 1);
    }

    #[test]
    fn progressive_stops_at_completed_ring() {
        let g = fixture();
        let mut buf = KhopBuffer::new(g.num_nodes());
        // All nodes labeled: one hop from node 1 already yields 3 ≥ want=2,
        // so hop-2 nodes must not appear.
        let got = collect_labeled_progressive(&g, NodeId(1), 2, 5, |_| true, &mut buf);
        assert!(got.iter().all(|h| h.hop == 1));
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn progressive_with_no_want_is_empty() {
        let g = fixture();
        let mut buf = KhopBuffer::new(g.num_nodes());
        assert!(collect_labeled_progressive(&g, NodeId(1), 0, 5, |_| true, &mut buf).is_empty());
    }

    #[test]
    fn progressive_extends_when_scarce() {
        let g = fixture();
        let mut buf = KhopBuffer::new(g.num_nodes());
        // Only node 4 labeled: must walk out to hop 3 from node 1.
        let got = collect_labeled_progressive(&g, NodeId(1), 1, 5, |n| n.0 == 4, &mut buf);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].node, NodeId(4));
        assert_eq!(got[0].hop, 3);
    }
}
