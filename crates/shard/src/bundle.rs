//! Per-shard dataset images: the induced subgraph a worker loads.
//!
//! A shard worker owns the nodes its [`crate::ShardMap`] range assigns it
//! and additionally carries *halo* nodes — the off-shard neighbors of its
//! owned nodes. Halo nodes exist so that an owned node's prompt
//! construction and γ₁/γ₂ readiness accounting can see its full
//! neighborhood text and (once the exchange delivers them) remote
//! pseudo-labels; they are never classified locally and never counted as
//! owned. Local node ids are dense: `[0, num_owned)` are the owned nodes
//! in ascending global order, `[num_owned, num_locals)` the halo nodes in
//! ascending global order, which makes "is this local id owned?" a single
//! comparison on the hot path.
//!
//! The on-disk format wraps `mqo_data::persist`: a shard header (ids,
//! counts, the local→global map) protected by its own fingerprint,
//! followed by a complete inner dataset image — which carries its own
//! fingerprint — for the induced subgraph. A worker therefore loads only
//! its shard file, a few percent of the full-graph image at products
//! scale, and any truncation or cross-shard file swap fails loudly.
//!
//! [`ShardBundle::write_to`] writes the header through its own
//! [`persist::ImageWriter`], whose fingerprint it fills in before the
//! inner image starts, and then hands the same sink to
//! [`persist::write_to`]: neither image is ever built in memory.
//!
//! [`ShardBundle::load`] streams the file through one
//! [`persist::ImageReader`]: the header and id map are hashed as they
//! are read and their fingerprint is checked before the first byte of
//! the inner image, which then decodes from the same reader exactly as
//! `persist::load` does (streamed, its CSR read as stored and checked
//! before it is used, with its own verdict taking precedence over its
//! parse errors). Both fingerprints are XXH64, under `MQOSHD2` around
//! `MQOTAG4`; a shard under any other magic is refused with a hint to
//! regenerate it with `mqo partition`. [`ShardBundle::save`] replaces
//! its file atomically, through `persist::write_atomically`. The id-map
//! length is checked against the bytes left before it sizes an
//! allocation. Each run of the map must be strictly ascending, and no id
//! may be both owned and halo: `local_of` binary-searches the owned run,
//! then the halo run.

use crate::partition::ShardMap;
use mqo_data::persist::{self, ImageReader, ImageWriter, PersistError};
use mqo_data::{DatasetBundle, DatasetSpec};
use mqo_graph::{GraphBuilder, NodeId, Tag};
use std::io::{Read, Seek, Write};
use std::path::Path;

/// The shard image's magic. The inner dataset image carries its own.
const MAGIC: &[u8; 8] = b"MQOSHD2\n";

/// Why a shard image under any other magic is refused.
const FOREIGN: &str = "not a shard image this build writes; regenerate it with `mqo partition`";

/// The id-space facts of one shard, separable from the dataset itself so
/// a serving engine can own the [`DatasetBundle`] while the shard
/// identity travels alongside it.
#[derive(Debug, Clone)]
pub struct ShardIdentity {
    /// This shard's id in `[0, num_shards)`.
    pub shard_id: u32,
    /// Total shards in the partition this bundle was cut from.
    pub num_shards: u32,
    /// Local ids `< num_owned` are owned; the rest are halo.
    num_owned: u32,
    /// Local id → global id. Owned ascending, then halo ascending.
    global_ids: Vec<u32>,
}

/// One shard's slice of a dataset: the induced subgraph on owned ∪ halo
/// nodes, with the id maps to translate between local and global space.
#[derive(Debug)]
pub struct ShardBundle {
    /// Who this shard is and how its local ids map to global ids.
    pub identity: ShardIdentity,
    /// The induced-subgraph dataset, in local id space. Keeps the source
    /// dataset's name so spec resolution and per-dataset engine defaults
    /// (e.g. the products neighbor cap) behave identically on a shard.
    pub data: DatasetBundle,
}

/// Cut `shard`'s bundle out of the full dataset according to `map`.
///
/// Edges are kept iff at least one endpoint is owned: owned–owned edges
/// stay whole, owned–halo edges connect to the halo copy, halo–halo
/// edges are dropped (neither endpoint's queries run here).
///
/// # Panics
/// If `shard >= map.num_shards()` or the map's node count disagrees with
/// the dataset's.
pub fn extract_shard(full: &DatasetBundle, map: &ShardMap, shard: u32) -> ShardBundle {
    assert!(shard < map.num_shards(), "shard {shard} of {}", map.num_shards());
    assert_eq!(
        map.num_nodes() as usize,
        full.tag.num_nodes(),
        "shard map was built for a different graph"
    );
    let tag = &full.tag;
    let csr = tag.graph();

    let owned = map.owned_nodes(shard);
    let num_owned = owned.len() as u32;
    let mut halo: Vec<u32> = Vec::new();
    for &u in &owned {
        for &v in csr.neighbors(NodeId(u)) {
            if map.owner(v) != shard {
                halo.push(v);
            }
        }
    }
    halo.sort_unstable();
    halo.dedup();

    let mut global_ids = owned;
    global_ids.extend_from_slice(&halo);
    let identity = ShardIdentity::new(shard, map.num_shards(), num_owned, global_ids);
    let global_ids = &identity.global_ids;

    let n = global_ids.len();
    let mut builder = GraphBuilder::new(n);
    for local_u in 0..num_owned {
        let gu = global_ids[local_u as usize];
        for &gv in csr.neighbors(NodeId(gu)) {
            let local_v = identity.local_of(gv).expect("every neighbor is owned or halo");
            // Owned–owned edges are walked from both ends: keep the one
            // walk where this end is the lower global id. Owned–halo
            // edges are walked only from the owned end: always keep.
            if local_v >= num_owned || gu < gv {
                builder.add_edge(local_u, local_v).expect("local ids are dense");
            }
        }
    }

    let texts = global_ids.iter().map(|&g| tag.text(NodeId(g)).clone()).collect();
    let labels = global_ids.iter().map(|&g| tag.label(NodeId(g))).collect();
    let alphas = global_ids.iter().map(|&g| full.alphas[g as usize]).collect();
    let adversarial = global_ids.iter().map(|&g| full.adversarial[g as usize]).collect();
    let sub_tag =
        Tag::new(tag.name(), builder.build(), texts, labels, tag.class_names().to_vec())
            .expect("induced subgraph arrays are consistent by construction");

    ShardBundle {
        identity,
        data: DatasetBundle {
            tag: sub_tag,
            lexicon: full.lexicon.clone(),
            alphas,
            adversarial,
            spec: full.spec.clone(),
            scale: full.scale,
        },
    }
}

impl ShardIdentity {
    /// Assemble an identity directly from the local→global map:
    /// `global_ids` lists owned nodes first (the leading `num_owned`
    /// entries), then halo nodes. For tools and tests building shard
    /// views without going through [`extract_shard`].
    ///
    /// # Panics
    /// If `shard_id >= num_shards`, `num_owned` exceeds the map, either
    /// run is not strictly ascending, or an id is both owned and halo.
    pub fn new(
        shard_id: u32,
        num_shards: u32,
        num_owned: u32,
        global_ids: Vec<u32>,
    ) -> ShardIdentity {
        assert!(shard_id < num_shards, "shard id out of range");
        assert!(
            (num_owned as usize) <= global_ids.len(),
            "owned count exceeds the local id space"
        );
        ShardIdentity::checked(shard_id, num_shards, num_owned, global_ids)
            .unwrap_or_else(|what| panic!("{what}"))
    }

    /// [`ShardIdentity::new`] after its range checks: validate the two
    /// runs.
    fn checked(
        shard_id: u32,
        num_shards: u32,
        num_owned: u32,
        global_ids: Vec<u32>,
    ) -> Result<ShardIdentity, &'static str> {
        let (owned, halo) = global_ids.split_at(num_owned as usize);
        let ascending = |run: &[u32]| run.windows(2).all(|w| w[0] < w[1]);
        if !ascending(owned) || !ascending(halo) {
            return Err("unsorted local id map");
        }
        let (mut i, mut j) = (0, 0);
        while i < owned.len() && j < halo.len() {
            match owned[i].cmp(&halo[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return Err("duplicate global id in local id map"),
            }
        }
        Ok(ShardIdentity { shard_id, num_shards, num_owned, global_ids })
    }

    /// Owned node count; local ids below this are owned, at or above are
    /// halo.
    pub fn num_owned(&self) -> u32 {
        self.num_owned
    }

    /// Total local nodes (owned + halo).
    pub fn num_locals(&self) -> u32 {
        self.global_ids.len() as u32
    }

    /// Whether `local` refers to an owned node (vs a halo copy).
    #[inline]
    pub fn is_owned_local(&self, local: u32) -> bool {
        local < self.num_owned
    }

    /// Global id of a local node.
    #[inline]
    pub fn global_of(&self, local: u32) -> u32 {
        self.global_ids[local as usize]
    }

    /// Local id of a global node, if present on this shard.
    #[inline]
    pub fn local_of(&self, global: u32) -> Option<u32> {
        let (owned, halo) = self.global_ids.split_at(self.num_owned as usize);
        owned
            .binary_search(&global)
            .map(|l| l as u32)
            .or_else(|_| halo.binary_search(&global).map(|i| self.num_owned + i as u32))
            .ok()
    }

    /// The shards owning off-shard neighbors of the owned node `local` —
    /// the exchange targets for a pseudo-label minted on it — given the
    /// shard's local-space graph. Sorted, deduplicated, never contains
    /// this shard. Empty for interior nodes.
    pub fn neighbor_shards(
        &self,
        graph: &mqo_graph::Csr,
        map: &ShardMap,
        local: u32,
    ) -> Vec<u32> {
        debug_assert!(self.is_owned_local(local));
        let mut shards: Vec<u32> = graph
            .neighbors(NodeId(local))
            .iter()
            .filter(|&&v| !self.is_owned_local(v))
            .map(|&v| map.owner(self.global_of(v)))
            .collect();
        shards.sort_unstable();
        shards.dedup();
        shards
    }
}

impl ShardBundle {
    /// Owned node count (see [`ShardIdentity::num_owned`]).
    pub fn num_owned(&self) -> u32 {
        self.identity.num_owned()
    }

    /// Total local nodes (see [`ShardIdentity::num_locals`]).
    pub fn num_locals(&self) -> u32 {
        self.identity.num_locals()
    }

    /// Whether `local` is owned (see [`ShardIdentity::is_owned_local`]).
    #[inline]
    pub fn is_owned_local(&self, local: u32) -> bool {
        self.identity.is_owned_local(local)
    }

    /// Global id of a local node (see [`ShardIdentity::global_of`]).
    #[inline]
    pub fn global_of(&self, local: u32) -> u32 {
        self.identity.global_of(local)
    }

    /// Local id of a global node (see [`ShardIdentity::local_of`]).
    #[inline]
    pub fn local_of(&self, global: u32) -> Option<u32> {
        self.identity.local_of(global)
    }

    /// Exchange targets of an owned node (see
    /// [`ShardIdentity::neighbor_shards`]).
    pub fn neighbor_shards(&self, map: &ShardMap, local: u32) -> Vec<u32> {
        self.identity.neighbor_shards(self.data.tag.graph(), map, local)
    }

    /// Write the image to `w` at its current position: the
    /// fingerprinted shard header, then the inner dataset image (which
    /// carries its own fingerprint). Returns `w` positioned after it.
    pub fn write_to<W: Write + Seek>(&self, w: W) -> Result<W, PersistError> {
        let id = &self.identity;
        let mut header = ImageWriter::start(w, MAGIC)?;
        header.put_u32_le(id.shard_id)?;
        header.put_u32_le(id.num_shards)?;
        header.put_u32_le(id.num_owned)?;
        header.put_u32_le(id.global_ids.len() as u32)?;
        header.put_u32s(&id.global_ids)?;
        persist::write_to(&self.data, header.finish()?)
    }

    /// Decode a shard image from `r`, which must end where the image
    /// does; the caller supplies the spec, exactly as
    /// `mqo_data::persist::decode` does.
    pub fn decode<R: Read>(
        r: &mut ImageReader<R>,
        spec: DatasetSpec,
    ) -> Result<ShardBundle, PersistError> {
        use PersistError::Corrupt;
        r.magic(MAGIC, FOREIGN)?;
        // The header fingerprint covers only the shard header; the inner
        // dataset image that follows verifies itself.
        let header = "truncated shard header";
        let stored = r.u64_le(header)?;
        r.start_hash();
        let shard_id = r.u32_le(header)?;
        let num_shards = r.u32_le(header)?;
        let num_owned = r.u32_le(header)?;
        let num_locals = r.u32_le(header)?;
        if 4 * u64::from(num_locals) > r.remaining() {
            return Err(Corrupt("truncated local id map"));
        }
        let mut global_ids = Vec::with_capacity(num_locals as usize);
        r.u32s(u64::from(num_locals), "truncated local id map", &mut global_ids)?;
        if r.hash() != stored {
            return Err(Corrupt("shard header fingerprint mismatch"));
        }
        if shard_id >= num_shards || num_owned > num_locals {
            return Err(Corrupt("inconsistent shard header"));
        }
        let identity = ShardIdentity::checked(shard_id, num_shards, num_owned, global_ids)
            .map_err(Corrupt)?;
        let data = persist::decode(r, spec)?;
        if data.tag.num_nodes() != num_locals as usize {
            return Err(Corrupt("shard header disagrees with inner image"));
        }
        Ok(ShardBundle { identity, data })
    }

    /// Save to a file, streamed and atomically: see the module docs.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        persist::write_atomically(path.as_ref(), |file| self.write_to(file))
    }

    /// Load from a file, attaching `spec`. Streams: see the module docs.
    pub fn load(
        path: impl AsRef<Path>,
        spec: DatasetSpec,
    ) -> Result<ShardBundle, PersistError> {
        ShardBundle::decode(&mut ImageReader::open(path)?, spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{partition, PartitionStrategy};
    use mqo_data::{dataset, DatasetId};
    use std::collections::HashMap;
    use std::io::Cursor;

    fn image(sb: &ShardBundle) -> Vec<u8> {
        sb.write_to(Cursor::new(Vec::new())).unwrap().into_inner()
    }

    fn from_slice(bytes: &[u8], spec: DatasetSpec) -> Result<ShardBundle, PersistError> {
        ShardBundle::decode(&mut ImageReader::from_slice(bytes), spec)
    }

    fn fixture() -> (DatasetBundle, ShardMap) {
        let full = dataset(DatasetId::Cora, Some(0.2), 17);
        let map = partition(full.tag.graph(), 3, 17, PartitionStrategy::EdgeCut);
        (full, map)
    }

    #[test]
    fn shards_cover_all_nodes_and_all_edges_once() {
        let (full, map) = fixture();
        let mut owned_seen = vec![0u32; full.tag.num_nodes()];
        let mut edges_seen: HashMap<(u32, u32), u32> = HashMap::new();
        for s in 0..map.num_shards() {
            let sb = extract_shard(&full, &map, s);
            for l in 0..sb.num_owned() {
                owned_seen[sb.global_of(l) as usize] += 1;
            }
            for (u, v) in sb.data.tag.graph().edges() {
                // Count only edges with an owned endpoint on the lower
                // global side or an owned–halo edge, in global space.
                let (gu, gv) = (sb.global_of(u.0), sb.global_of(v.0));
                let key = (gu.min(gv), gu.max(gv));
                *edges_seen.entry(key).or_default() += 1;
            }
        }
        assert!(owned_seen.iter().all(|&c| c == 1), "every node owned exactly once");
        // An edge interior to a shard appears once; a cut edge appears on
        // both shards that carry an owned endpoint of it.
        let mut total_once = 0u64;
        let mut total_twice = 0u64;
        for (&(gu, gv), &c) in &edges_seen {
            let cut = map.owner(gu) != map.owner(gv);
            assert_eq!(c, if cut { 2 } else { 1 }, "edge ({gu},{gv}) seen {c} times");
            if cut {
                total_twice += 1;
            } else {
                total_once += 1;
            }
        }
        assert_eq!(total_twice, map.total_cut());
        assert_eq!(total_once + total_twice, full.tag.num_edges());
    }

    #[test]
    fn id_maps_invert_and_halo_is_marked() {
        let (full, map) = fixture();
        let sb = extract_shard(&full, &map, 1);
        assert!(sb.num_owned() > 0 && sb.num_locals() > sb.num_owned());
        for l in 0..sb.num_locals() {
            let g = sb.global_of(l);
            assert_eq!(sb.local_of(g), Some(l));
            assert_eq!(sb.is_owned_local(l), map.owner(g) == 1);
            // Node payloads survive the cut.
            assert_eq!(sb.data.tag.label(NodeId(l)), full.tag.label(NodeId(g)));
            assert_eq!(sb.data.tag.text(NodeId(l)), full.tag.text(NodeId(g)));
        }
        // Boundary nodes have at least one halo neighbor with a
        // nonempty exchange-target set.
        let boundary_global = map.boundary(1)[0];
        let l = sb.local_of(boundary_global).unwrap();
        let targets = sb.neighbor_shards(&map, l);
        assert!(!targets.is_empty() && !targets.contains(&1));
    }

    #[test]
    fn file_roundtrip_and_corruption() {
        let (full, map) = fixture();
        let sb = extract_shard(&full, &map, 0);
        let bytes = image(&sb);
        let back = from_slice(&bytes, full.spec.clone()).unwrap();
        assert_eq!(back.identity.shard_id, 0);
        assert_eq!(back.identity.num_shards, 3);
        assert_eq!(back.num_owned(), sb.num_owned());
        assert_eq!(back.identity.global_ids, sb.identity.global_ids);
        assert_eq!(back.data.tag.num_edges(), sb.data.tag.num_edges());
        assert_eq!(image(&back), bytes, "shard serialization must be byte-stable");

        // Header corruption and inner corruption both fail loudly.
        let mut bad_header = bytes.clone();
        bad_header[8 + 8 + 2] ^= 1;
        assert!(from_slice(&bad_header, full.spec.clone()).is_err());
        let mut bad_inner = bytes;
        let tail = bad_inner.len() - 8;
        bad_inner[tail] ^= 1;
        assert!(from_slice(&bad_inner, full.spec.clone()).is_err());
    }

    /// Re-frame `sb`'s image with its id map rewritten by `edit` and the
    /// header fingerprint recomputed, so only the id-map checks can
    /// object.
    fn with_edited_ids(sb: &ShardBundle, edit: impl FnOnce(&mut [u32])) -> Vec<u8> {
        let mut ids = sb.identity.global_ids.clone();
        edit(&mut ids);
        let mut bytes = image(sb);
        let header = 8 + 8;
        for (i, g) in ids.iter().enumerate() {
            let at = header + 16 + 4 * i;
            bytes[at..at + 4].copy_from_slice(&g.to_le_bytes());
        }
        let end = header + 16 + 4 * ids.len();
        let fp = mqo_obs::xxh64(&bytes[header..end]);
        bytes[8..header].copy_from_slice(&fp.to_le_bytes());
        bytes
    }

    fn corrupt_reason(bytes: Vec<u8>, spec: DatasetSpec) -> &'static str {
        match from_slice(&bytes, spec) {
            Err(PersistError::Corrupt(what)) => what,
            other => panic!("expected a corrupt-image error, got {other:?}"),
        }
    }

    /// Bugfix regression: the id map used to become a `HashMap` without
    /// any check, so a duplicated global id silently kept its last
    /// mapping and `local_of(global_of(l)) != l` for the first one.
    #[test]
    fn duplicate_or_unsorted_id_maps_are_refused() {
        let (full, map) = fixture();
        let sb = extract_shard(&full, &map, 0);
        let owned = sb.num_owned() as usize;
        assert!(owned >= 2 && sb.num_locals() as usize >= owned + 2);

        let dup = with_edited_ids(&sb, |ids| ids[1] = ids[0]);
        assert_eq!(corrupt_reason(dup, full.spec.clone()), "unsorted local id map");
        let swapped = with_edited_ids(&sb, |ids| ids.swap(owned, owned + 1));
        assert_eq!(corrupt_reason(swapped, full.spec.clone()), "unsorted local id map");
        let both = with_edited_ids(&sb, |ids| ids[owned] = ids[owned - 1]);
        assert_eq!(
            corrupt_reason(both, full.spec.clone()),
            "duplicate global id in local id map"
        );
        // The untouched map still decodes.
        assert!(from_slice(&with_edited_ids(&sb, |_| {}), full.spec.clone()).is_ok());
    }

    #[test]
    #[should_panic(expected = "unsorted local id map")]
    fn identity_new_refuses_a_duplicate_id() {
        ShardIdentity::new(0, 2, 2, vec![4, 4, 9]);
    }

    #[test]
    fn local_of_is_exact_for_scattered_and_contiguous_owned_runs() {
        // Contiguous owned run [10, 13), halo on both sides of it.
        let range = ShardIdentity::new(0, 2, 3, vec![10, 11, 12, 2, 13, 40]);
        // Scattered owned run, as a ring partition produces.
        let ring = ShardIdentity::new(1, 2, 3, vec![1, 5, 9, 0, 6, 10]);
        for id in [&range, &ring] {
            for l in 0..id.num_locals() {
                assert_eq!(id.local_of(id.global_of(l)), Some(l));
            }
            let present: Vec<u32> = (0..id.num_locals()).map(|l| id.global_of(l)).collect();
            for g in (0..50).filter(|g| !present.contains(g)) {
                assert_eq!(id.local_of(g), None, "global {g}");
            }
        }
        // An empty owned run maps only halo ids.
        let halo_only = ShardIdentity::new(0, 1, 0, vec![3, 7]);
        assert_eq!((halo_only.local_of(7), halo_only.local_of(4)), (Some(1), None));
    }
}
