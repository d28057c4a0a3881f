//! Decoders parse before they reach the fingerprint verdict, so every
//! count and length in an image is checked against the bytes left
//! before it sizes an allocation. These images carry valid fingerprints
//! but claim `u32::MAX` nodes, a 4 GiB title, a million or `u64::MAX`
//! CSR entries, 65535 classes, `u32::MAX` local ids or `u32::MAX` shards;
//! each must come back as a truncation, from memory and from a file,
//! without a large allocation.
//!
//! The writers are held to the same ceiling from the other side: saving
//! an image of many megabytes streams it, so no allocation comes near
//! the image's size.

use mqo_data::persist::{self, ImageReader, PersistError};
use mqo_data::{DatasetBundle, DatasetId};
use mqo_graph::{ClassId, GraphBuilder, NodeText, Tag};
use mqo_shard::{partition, PartitionStrategy, ShardBundle, ShardIdentity, ShardMap};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Records the largest single allocation request since the last reset.
struct PeakAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// No decode of these few-byte images, and no save of the large ones,
/// may ask for more than this.
const ALLOCATION_CEILING: usize = 1 << 20;

/// Held by each test while it measures, so no other test's allocations
/// race the peak.
static SERIAL: Mutex<()> = Mutex::new(());

/// `magic | xxh64(payload) | payload`, the framing of every image.
fn framed(magic: &[u8; 8], payload: &[u8]) -> Vec<u8> {
    let mut out = magic.to_vec();
    out.extend_from_slice(&mqo_obs::xxh64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// A dataset payload up to its class list (`classes` names follow, all
/// "A"), then `tail`, framed as a dataset image.
fn dataset_image(classes: u16, tail: &[u8]) -> Vec<u8> {
    let mut p = Vec::new();
    put_str(&mut p, "cora");
    p.extend_from_slice(&0.5f64.to_le_bytes());
    p.extend_from_slice(&7u64.to_le_bytes());
    p.extend_from_slice(&2u16.to_le_bytes());
    for field in [3u32, 4, 1] {
        p.extend_from_slice(&field.to_le_bytes());
    }
    p.extend_from_slice(&classes.to_le_bytes());
    if classes == 1 {
        put_str(&mut p, "A");
    }
    p.extend_from_slice(tail);
    framed(b"MQOTAG4\n", &p)
}

/// Graph header `n | entries`, then `rest`.
fn graph(n: u32, m: u64, rest: &[u8]) -> Vec<u8> {
    let mut t = n.to_le_bytes().to_vec();
    t.extend_from_slice(&m.to_le_bytes());
    t.extend_from_slice(rest);
    t
}

/// A graph section of `n` nodes and no edges (its offsets all 0), then
/// `rest`.
fn edgeless(n: u32, rest: &[u8]) -> Vec<u8> {
    let mut section = vec![0; 8 * (n as usize + 1)];
    section.extend_from_slice(rest);
    graph(n, 0, &section)
}

/// Run `decode` and report its error and the largest allocation it made.
fn probe<T, E>(decode: impl FnOnce() -> Result<T, E>) -> (E, usize) {
    LARGEST.store(0, Ordering::Relaxed);
    let err = decode().err().expect("an oversized count must be refused");
    (err, LARGEST.load(Ordering::Relaxed))
}

fn temp_file(tag: &str, bytes: &[u8]) -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("mqo-decode-bounds-{}-{tag}", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    path
}

fn assert_dataset_refused(tag: &str, image: &[u8], expected: &str) {
    let spec = DatasetId::Cora.spec();
    let path = temp_file(tag, image);
    let in_memory =
        probe(|| persist::decode(&mut ImageReader::from_slice(image), spec.clone()));
    let loaded = probe(|| persist::load(&path, spec.clone()));
    std::fs::remove_file(&path).ok();
    for (how, (err, largest)) in [("in memory", in_memory), ("load", loaded)] {
        assert!(
            matches!(err, PersistError::Corrupt(what) if what == expected),
            "{tag} via {how}: {err}"
        );
        assert!(largest < ALLOCATION_CEILING, "{tag} via {how} allocated {largest} bytes");
    }
}

fn assert_shard_refused(tag: &str, image: &[u8], expected: &str) {
    let spec = DatasetId::Cora.spec();
    let path = temp_file(tag, image);
    let in_memory =
        probe(|| ShardBundle::decode(&mut ImageReader::from_slice(image), spec.clone()));
    let loaded = probe(|| ShardBundle::load(&path, spec.clone()));
    std::fs::remove_file(&path).ok();
    for (how, (err, largest)) in [("in memory", in_memory), ("load", loaded)] {
        assert!(
            matches!(err, PersistError::Corrupt(what) if what == expected),
            "{tag} via {how}: {err}"
        );
        assert!(largest < ALLOCATION_CEILING, "{tag} via {how} allocated {largest} bytes");
    }
}

fn assert_map_refused(tag: &str, image: &[u8], expected: &str) {
    let path = temp_file(tag, image);
    let in_memory = probe(|| ShardMap::decode(&mut ImageReader::from_slice(image)));
    let loaded = probe(|| ShardMap::load(&path));
    std::fs::remove_file(&path).ok();
    for (how, (err, largest)) in [("in memory", in_memory), ("load", loaded)] {
        assert!(
            matches!(err, PersistError::Corrupt(what) if what == expected),
            "{tag} via {how}: {err}"
        );
        assert!(largest < ALLOCATION_CEILING, "{tag} via {how} allocated {largest} bytes");
    }
}

#[test]
fn oversized_counts_are_truncations_not_allocations() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    assert_dataset_refused(
        "offsets",
        &dataset_image(1, &graph(u32::MAX, 0, &[])),
        "truncated offsets",
    );
    // A million entries (4 MB), and u64::MAX, behind valid offsets.
    for entries in [1_000_000, u64::MAX] {
        assert_dataset_refused(
            "entries",
            &dataset_image(1, &graph(1, entries, &[0; 16])),
            "truncated targets",
        );
    }
    // Offsets for 1,000 nodes, but no node records after them.
    assert_dataset_refused(
        "nodes",
        &dataset_image(1, &edgeless(1_000, &[])),
        "truncated node record",
    );
    assert_dataset_refused("classes", &dataset_image(u16::MAX, &[]), "truncated string length");
    // One node whose title claims u32::MAX bytes (4 GiB); four more
    // bytes make the record as long as the shortest valid one.
    let mut record = 0u16.to_le_bytes().to_vec();
    record.extend_from_slice(&0.5f32.to_le_bytes());
    record.push(0);
    record.extend_from_slice(&u32::MAX.to_le_bytes());
    record.extend_from_slice(&[0; 4]);
    assert_dataset_refused(
        "title",
        &dataset_image(1, &edgeless(1, &record)),
        "truncated string body",
    );

    // A shard header claiming u32::MAX local ids.
    let mut header = Vec::new();
    for field in [0u32, 2, 1, u32::MAX] {
        header.extend_from_slice(&field.to_le_bytes());
    }
    let mut shard = framed(b"MQOSHD2\n", &header);
    shard.extend_from_slice(&dataset_image(1, &edgeless(0, &[])));
    assert_shard_refused("locals", &shard, "truncated local id map");

    // Shard maps claiming u32::MAX shards, under either strategy.
    for (strategy, expected) in [(0u8, "truncated range starts"), (1, "truncated shard stats")]
    {
        let mut p = vec![strategy];
        p.extend_from_slice(&9u64.to_le_bytes());
        p.extend_from_slice(&100u32.to_le_bytes());
        p.extend_from_slice(&u32::MAX.to_le_bytes());
        p.extend_from_slice(&0u64.to_le_bytes());
        assert_map_refused(&format!("shards-{strategy}"), &framed(b"MQOSHM2\n", &p), expected);
    }
}

/// The smallest image the writer test saves: eight times the ceiling.
const LARGE_IMAGE: u64 = 8 << 20;

/// A dataset whose image passes [`LARGE_IMAGE`]: 20,000 nodes on a
/// path, each with a 450-byte body.
fn large_dataset() -> DatasetBundle {
    let n = 20_000;
    let mut builder = GraphBuilder::new(n);
    for i in 1..n as u32 {
        builder.add_edge(i - 1, i).unwrap();
    }
    let texts = (0..n).map(|i| NodeText::new(format!("t{i}"), "b".repeat(450))).collect();
    let labels = (0..n).map(|i| ClassId((i % 2) as u16)).collect();
    let names = vec!["A".to_string(), "B".into()];
    let tag = Tag::new("cora", builder.build(), texts, labels, names).unwrap();
    DatasetBundle {
        tag,
        lexicon: Arc::new(mqo_text::Lexicon::with_markers(1, 2, 3, 4, 1)),
        alphas: vec![0.5; n],
        adversarial: vec![false; n],
        spec: DatasetId::Cora.spec(),
        scale: 1.0,
    }
}

/// A two-shard map whose boundary lists pass [`LARGE_IMAGE`]: every node
/// of the first half is joined to its twin in the second, so nearly
/// every node has a neighbor on the other shard.
fn large_map() -> ShardMap {
    let n = 2_400_000u32;
    let mut builder = GraphBuilder::with_capacity(n as usize, n as usize / 2);
    for i in 0..n / 2 {
        builder.add_edge(i, i + n / 2).unwrap();
    }
    partition(&builder.build(), 2, 1, PartitionStrategy::EdgeCut)
}

/// Run `save` into a fresh file and assert the image it wrote is large
/// while its largest allocation stayed under the ceiling.
fn assert_streamed(tag: &str, save: impl FnOnce(&Path) -> Result<(), PersistError>) {
    let path =
        std::env::temp_dir().join(format!("mqo-decode-bounds-{}-{tag}", std::process::id()));
    LARGEST.store(0, Ordering::Relaxed);
    save(&path).unwrap();
    let largest = LARGEST.load(Ordering::Relaxed);
    let len = std::fs::metadata(&path).unwrap().len();
    std::fs::remove_file(&path).ok();
    assert!(len >= LARGE_IMAGE, "{tag}: the image is only {len} bytes");
    assert!(largest < ALLOCATION_CEILING, "{tag}: save allocated {largest} bytes at once");
}

#[test]
fn writers_never_hold_an_image() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let data = large_dataset();
    let n = data.tag.num_nodes() as u32;
    let shard = ShardBundle {
        identity: ShardIdentity::new(0, 1, n, (0..n).collect()),
        data: large_dataset(),
    };
    let map = large_map();
    assert_streamed("dataset", |path| persist::save(&data, path));
    assert_streamed("shard", |path| shard.save(path));
    assert_streamed("map", |path| map.save(path));
}
