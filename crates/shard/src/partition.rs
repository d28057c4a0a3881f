//! The seeded, deterministic graph partitioner and its [`ShardMap`].
//!
//! A `ShardMap` is the single source of truth for node ownership in a
//! sharded deployment: the partitioner emits it, every worker loads it
//! (to know its own range and its exchange targets), and the router
//! loads it (to route classify traffic and forward exchanged labels).
//! It is deliberately tiny next to the dataset — ranges, boundary
//! lists, and cut statistics, not per-node tables — and its binary
//! serialization is byte-stable: the same graph and seed produce the
//! same bytes, which is what lets a cluster verify that router and
//! workers agree on the partition by comparing fingerprints.
//!
//! Two ownership rules:
//!
//! * [`PartitionStrategy::EdgeCut`] — contiguous node-id ranges with
//!   seeded, cut-aware refinement. Nominal equal-size cut points are
//!   jittered by the seed and then slid within a local window to the
//!   position crossed by the fewest edges (computed exactly, in O(m),
//!   from a difference array over cut positions). Generated TAGs assign
//!   ids with locality, so ranges already capture most edges; the
//!   refinement shaves the boundary further.
//! * [`PartitionStrategy::Ring`] — the consistent-hash ring from
//!   [`crate::ring`]. Membership-stable, cut-oblivious.

use crate::ring::{splitmix64, HashRing};
use bytes::{BufMut, Bytes, BytesMut};
use mqo_data::persist::{fingerprint, ImageReader, PersistError};
use mqo_graph::{Csr, NodeId};
use std::io::{self, Read};
use std::path::Path;

const MAGIC: &[u8; 8] = b"MQOSHM1\n";

/// How node ownership is decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Contiguous ranges with seeded edge-cut-aware cut points.
    EdgeCut,
    /// Consistent-hash ring on node id.
    Ring,
}

/// Per-shard partition statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Nodes owned by this shard.
    pub owned_nodes: u32,
    /// Edges with both endpoints in this shard (each counted once).
    pub internal_edges: u64,
    /// Edges with exactly one endpoint in this shard (each such edge
    /// appears in the count of both shards it touches).
    pub cut_edges: u64,
}

/// Errors from shard-map persistence.
#[derive(Debug)]
pub enum ShardMapError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a valid shard map.
    Corrupt(&'static str),
}

impl std::fmt::Display for ShardMapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardMapError::Io(e) => write!(f, "io error: {e}"),
            ShardMapError::Corrupt(what) => write!(f, "corrupt shard map: {what}"),
        }
    }
}

impl std::error::Error for ShardMapError {}

impl From<io::Error> for ShardMapError {
    fn from(e: io::Error) -> Self {
        ShardMapError::Io(e)
    }
}

impl From<PersistError> for ShardMapError {
    fn from(e: PersistError) -> Self {
        match e {
            PersistError::Io(e) => ShardMapError::Io(e),
            PersistError::Corrupt(what) => ShardMapError::Corrupt(what),
        }
    }
}

/// A deterministic partition of `[0, num_nodes)` into shards, plus the
/// boundary structure the label exchange needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    seed: u64,
    num_nodes: u32,
    strategy: PartitionStrategy,
    /// `EdgeCut`: shard `s` owns `[starts[s], starts[s+1])`; length
    /// `num_shards + 1`. Empty for `Ring`.
    starts: Vec<u32>,
    /// `Ring`: the ownership ring, reconstructed from `(seed,
    /// num_shards)` on load. `None` for `EdgeCut`.
    ring: Option<HashRing>,
    /// Per shard: owned nodes with at least one neighbor on another
    /// shard, sorted ascending (global ids).
    boundary: Vec<Vec<u32>>,
    stats: Vec<ShardStats>,
    /// Edges whose endpoints live on different shards (each once).
    total_cut: u64,
}

/// Partition `csr` into `num_shards` shards. Deterministic in `(csr,
/// num_shards, seed, strategy)`.
///
/// # Panics
/// If `num_shards` is zero, or exceeds the node count of a non-empty
/// graph (every shard must own at least one node).
pub fn partition(
    csr: &Csr,
    num_shards: u32,
    seed: u64,
    strategy: PartitionStrategy,
) -> ShardMap {
    assert!(num_shards > 0, "cannot partition into zero shards");
    let n = csr.num_nodes() as u32;
    assert!(n == 0 || num_shards <= n, "cannot give each of {num_shards} shards a node of {n}");
    let (starts, ring) = match strategy {
        PartitionStrategy::EdgeCut => (edge_cut_starts(csr, num_shards, seed), None),
        PartitionStrategy::Ring => (Vec::new(), Some(HashRing::new(seed, num_shards))),
    };
    let mut map = ShardMap {
        seed,
        num_nodes: n,
        strategy,
        starts,
        ring,
        boundary: vec![Vec::new(); num_shards as usize],
        stats: vec![ShardStats::default(); num_shards as usize],
        total_cut: 0,
    };
    map.fill_boundary_and_stats(csr);
    map
}

/// Choose the `EdgeCut` range starts: nominal equal splits, seeded
/// jitter, then an exact local search for the cut position crossed by
/// the fewest edges.
fn edge_cut_starts(csr: &Csr, num_shards: u32, seed: u64) -> Vec<u32> {
    let n = csr.num_nodes();
    let k = num_shards as usize;
    // crossing(p) = number of edges {u, v} with u < p <= v: exactly the
    // edges severed by cutting between node p-1 and node p. Built as a
    // difference array (+1 at u+1, -1 at v+1 per edge), then summed.
    let mut crossing = vec![0i64; n + 2];
    for (u, v) in csr.edges() {
        if u != v {
            crossing[u.index() + 1] += 1;
            crossing[v.index() + 1] -= 1;
        }
    }
    for p in 1..crossing.len() {
        crossing[p] += crossing[p - 1];
    }

    let mut starts = Vec::with_capacity(k + 1);
    starts.push(0u32);
    let window = (n / (16 * k)).max(1);
    for s in 1..k {
        let nominal = s * n / k;
        // The seed nudges the search center so distinct seeds can land on
        // distinct (equally valid) partitions of the same graph.
        let jitter = (window / 4) as i64;
        let offset = if jitter > 0 {
            (splitmix64(seed ^ s as u64) % (2 * jitter as u64 + 1)) as i64 - jitter
        } else {
            0
        };
        let center = (nominal as i64 + offset).clamp(0, n as i64) as usize;
        // Every shard, including the ones still to be cut, must keep at
        // least one node.
        let lo = center.saturating_sub(window).max(starts[s - 1] as usize + 1);
        let hi = (center + window).min(n - (k - s));
        let mut best = lo.max(1).min(hi.max(lo));
        let mut best_key = (i64::MAX, usize::MAX);
        for (p, &crossed) in crossing.iter().enumerate().take(hi.max(lo) + 1).skip(lo) {
            let key = (crossed, p.abs_diff(nominal));
            if key < best_key {
                best_key = key;
                best = p;
            }
        }
        starts.push(best as u32);
    }
    starts.push(n as u32);
    starts
}

impl ShardMap {
    /// Number of shards.
    pub fn num_shards(&self) -> u32 {
        self.stats.len() as u32
    }

    /// Number of nodes in the partitioned graph (the global id space).
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// The partitioner seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The ownership rule in force.
    pub fn strategy(&self) -> PartitionStrategy {
        self.strategy
    }

    /// The shard owning `node`.
    ///
    /// # Panics
    /// If `node` is outside the partitioned id space.
    #[inline]
    pub fn owner(&self, node: u32) -> u32 {
        assert!(node < self.num_nodes, "node {node} outside partition of {}", self.num_nodes);
        match &self.ring {
            Some(ring) => ring.owner(u64::from(node)),
            None => (self.starts.partition_point(|&s| s <= node) - 1) as u32,
        }
    }

    /// The contiguous owned range of `shard` (`EdgeCut` only).
    pub fn owned_range(&self, shard: u32) -> Option<(u32, u32)> {
        let s = shard as usize;
        (!self.starts.is_empty()).then(|| (self.starts[s], self.starts[s + 1]))
    }

    /// Owned nodes of `shard`, ascending. For `EdgeCut` this is the
    /// range; for `Ring` it scans the id space.
    pub fn owned_nodes(&self, shard: u32) -> Vec<u32> {
        match self.owned_range(shard) {
            Some((lo, hi)) => (lo..hi).collect(),
            None => (0..self.num_nodes).filter(|&v| self.owner(v) == shard).collect(),
        }
    }

    /// Boundary nodes of `shard`: owned nodes with at least one neighbor
    /// on another shard, sorted ascending.
    pub fn boundary(&self, shard: u32) -> &[u32] {
        &self.boundary[shard as usize]
    }

    /// Partition statistics of `shard`.
    pub fn stats(&self, shard: u32) -> ShardStats {
        self.stats[shard as usize]
    }

    /// Edges with endpoints on two different shards, each counted once.
    pub fn total_cut(&self) -> u64 {
        self.total_cut
    }

    fn fill_boundary_and_stats(&mut self, csr: &Csr) {
        for u in 0..self.num_nodes {
            let su = self.owner(u);
            self.stats[su as usize].owned_nodes += 1;
            let mut is_boundary = false;
            for &v in csr.neighbors(NodeId(u)) {
                let sv = self.owner(v);
                if sv != su {
                    is_boundary = true;
                    // Each cut edge is visited from both endpoints; count
                    // the total once (from the lower endpoint) and the
                    // per-shard incidence from each side.
                    self.stats[su as usize].cut_edges += u64::from(u < v);
                    if u < v {
                        self.total_cut += 1;
                        self.stats[sv as usize].cut_edges += 1;
                    }
                } else if u <= v {
                    self.stats[su as usize].internal_edges += 1;
                }
            }
            if is_boundary {
                self.boundary[su as usize].push(u);
            }
        }
    }

    /// Serialize. Byte-stable: equal maps produce equal bytes.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf =
            BytesMut::with_capacity(64 + 4 * self.boundary.iter().map(Vec::len).sum::<usize>());
        buf.put_u8(match self.strategy {
            PartitionStrategy::EdgeCut => 0,
            PartitionStrategy::Ring => 1,
        });
        buf.put_u64_le(self.seed);
        buf.put_u32_le(self.num_nodes);
        buf.put_u32_le(self.num_shards());
        for &s in &self.starts {
            buf.put_u32_le(s);
        }
        buf.put_u64_le(self.total_cut);
        for (stats, boundary) in self.stats.iter().zip(&self.boundary) {
            buf.put_u32_le(stats.owned_nodes);
            buf.put_u64_le(stats.internal_edges);
            buf.put_u64_le(stats.cut_edges);
            buf.put_u32_le(boundary.len() as u32);
            for &v in boundary {
                buf.put_u32_le(v);
            }
        }
        let payload = buf.freeze();
        let mut framed = BytesMut::with_capacity(MAGIC.len() + 8 + payload.len());
        framed.put_slice(MAGIC);
        framed.put_u64_le(fingerprint(&payload));
        framed.put_slice(&payload);
        framed.freeze()
    }

    /// Deserialize bytes written by [`ShardMap::to_bytes`].
    pub fn from_bytes(buf: Bytes) -> Result<ShardMap, ShardMapError> {
        ShardMap::decode(&mut ImageReader::from_slice(&buf))
    }

    /// Decode a shard map from `r`, streamed and verified the way
    /// `mqo_data::persist` decodes a dataset image.
    fn decode<R: Read>(r: &mut ImageReader<R>) -> Result<ShardMap, ShardMapError> {
        if &r.array::<8>("bad magic")? != MAGIC {
            return Err(ShardMapError::Corrupt("bad magic"));
        }
        let stored = r.u64_le("truncated fingerprint")?;
        let mut map = r.verified(
            stored,
            "fingerprint mismatch (truncated or corrupt file)",
            ShardMap::decode_payload,
        )?;
        // Built only after the verdict: the ring's size follows
        // `num_shards`, which the image alone does not bound tightly.
        if map.strategy == PartitionStrategy::Ring {
            map.ring = Some(HashRing::new(map.seed, map.num_shards()));
        }
        Ok(map)
    }

    fn decode_payload<R: Read>(r: &mut ImageReader<R>) -> Result<ShardMap, PersistError> {
        use PersistError::Corrupt;
        let header = "truncated header";
        let strategy = match r.u8(header)? {
            0 => PartitionStrategy::EdgeCut,
            1 => PartitionStrategy::Ring,
            _ => return Err(Corrupt("unknown strategy")),
        };
        let seed = r.u64_le(header)?;
        let num_nodes = r.u32_le(header)?;
        let num_shards = r.u32_le(header)?;
        if num_shards == 0 {
            return Err(Corrupt("zero shards"));
        }
        let starts = match strategy {
            PartitionStrategy::EdgeCut => {
                if 4 * (u64::from(num_shards) + 1) > r.remaining() {
                    return Err(Corrupt("truncated range starts"));
                }
                let mut starts = Vec::with_capacity(num_shards as usize + 1);
                for _ in 0..=num_shards {
                    starts.push(r.u32_le("truncated range starts")?);
                }
                if starts[0] != 0
                    || *starts.last().unwrap() != num_nodes
                    || starts.windows(2).any(|w| w[0] > w[1])
                {
                    return Err(Corrupt("non-monotone range starts"));
                }
                starts
            }
            PartitionStrategy::Ring => Vec::new(),
        };
        let total_cut = r.u64_le("truncated cut total")?;
        let stats_len = 4 + 8 + 8 + 4;
        if stats_len * u64::from(num_shards) > r.remaining() {
            return Err(Corrupt("truncated shard stats"));
        }
        let mut stats = Vec::with_capacity(num_shards as usize);
        let mut boundary = Vec::with_capacity(num_shards as usize);
        for _ in 0..num_shards {
            let what = "truncated shard stats";
            let owned_nodes = r.u32_le(what)?;
            let internal_edges = r.u64_le(what)?;
            let cut_edges = r.u64_le(what)?;
            let len = r.u32_le(what)?;
            if 4 * u64::from(len) > r.remaining() {
                return Err(Corrupt("truncated boundary list"));
            }
            let mut list = Vec::with_capacity(len as usize);
            for _ in 0..len {
                list.push(r.u32_le("truncated boundary list")?);
            }
            stats.push(ShardStats { owned_nodes, internal_edges, cut_edges });
            boundary.push(list);
        }
        Ok(ShardMap {
            seed,
            num_nodes,
            strategy,
            starts,
            ring: None,
            boundary,
            stats,
            total_cut,
        })
    }

    /// Save to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ShardMapError> {
        Ok(std::fs::write(path, self.to_bytes())?)
    }

    /// Load from a file, streamed.
    pub fn load(path: impl AsRef<Path>) -> Result<ShardMap, ShardMapError> {
        ShardMap::decode(&mut ImageReader::open(path)?)
    }

    /// Human-facing partition summary as JSON.
    pub fn stats_json(&self) -> String {
        let shards: Vec<_> = (0..self.num_shards())
            .map(|s| {
                let st = self.stats(s);
                serde_json::json!({
                    "shard": s,
                    "owned_nodes": st.owned_nodes,
                    "internal_edges": st.internal_edges,
                    "cut_edges": st.cut_edges,
                    "boundary_nodes": self.boundary(s).len(),
                })
            })
            .collect();
        let v = serde_json::json!({
            "strategy": match self.strategy {
                PartitionStrategy::EdgeCut => "edge-cut",
                PartitionStrategy::Ring => "ring",
            },
            "seed": self.seed,
            "nodes": self.num_nodes,
            "num_shards": self.num_shards(),
            "total_cut_edges": self.total_cut,
            "shards": shards,
        });
        serde_json::to_string(&v).expect("stats serialization")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqo_graph::GraphBuilder;

    /// Two dense clusters joined by one bridge edge: the cut refinement
    /// must place its single cut point on the bridge.
    fn two_clusters(size: u32) -> Csr {
        let mut b = GraphBuilder::new((2 * size) as usize);
        for c in 0..2u32 {
            let base = c * size;
            for i in 0..size {
                for j in (i + 1)..(i + 4).min(size) {
                    b.add_edge(base + i, base + j).unwrap();
                }
            }
        }
        b.add_edge(size - 1, size).unwrap();
        b.build()
    }

    #[test]
    fn edge_cut_finds_the_bridge() {
        let csr = two_clusters(64);
        let map = partition(&csr, 2, 42, PartitionStrategy::EdgeCut);
        assert_eq!(map.owned_range(0), Some((0, 64)));
        assert_eq!(map.total_cut(), 1, "only the bridge edge should be cut");
        assert_eq!(map.boundary(0), &[63]);
        assert_eq!(map.boundary(1), &[64]);
    }

    #[test]
    fn every_node_is_owned_exactly_once() {
        let csr = two_clusters(50);
        for strategy in [PartitionStrategy::EdgeCut, PartitionStrategy::Ring] {
            let map = partition(&csr, 4, 7, strategy);
            let mut counts = [0u32; 4];
            for v in 0..csr.num_nodes() as u32 {
                counts[map.owner(v) as usize] += 1;
            }
            for (s, &c) in counts.iter().enumerate() {
                assert_eq!(c, map.stats(s as u32).owned_nodes, "strategy {strategy:?}");
                assert!(c > 0, "shard {s} owns nothing under {strategy:?}");
            }
            assert_eq!(counts.iter().sum::<u32>(), csr.num_nodes() as u32);
        }
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        let csr = two_clusters(40);
        for strategy in [PartitionStrategy::EdgeCut, PartitionStrategy::Ring] {
            let map = partition(&csr, 3, 99, strategy);
            let bytes = map.to_bytes();
            let back = ShardMap::from_bytes(bytes.clone()).unwrap();
            assert_eq!(back, map);
            assert_eq!(
                &back.to_bytes()[..],
                &bytes[..],
                "re-serialization must be byte-stable"
            );
        }
    }

    #[test]
    fn corrupt_maps_are_rejected() {
        let csr = two_clusters(10);
        let map = partition(&csr, 2, 1, PartitionStrategy::EdgeCut);
        let bytes = map.to_bytes();
        assert!(ShardMap::from_bytes(Bytes::from_static(b"nope")).is_err());
        let cut = Bytes::from(bytes[..bytes.len() - 3].to_vec());
        assert!(matches!(ShardMap::from_bytes(cut), Err(ShardMapError::Corrupt(_))));
        let mut flipped = bytes.to_vec();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 1;
        assert!(matches!(
            ShardMap::from_bytes(Bytes::from(flipped)),
            Err(ShardMapError::Corrupt(_))
        ));
    }
}
