//! Decoders parse before they reach the fingerprint verdict, so every
//! count and length in an image is checked against the bytes left
//! before it sizes an allocation. These images carry valid fingerprints
//! but claim `u32::MAX` nodes, a 4 GiB title, `u64::MAX` edges, 65535
//! classes, `u32::MAX` local ids or `u32::MAX` shards; each must come back
//! as a truncation, from memory and from a file, without a large
//! allocation.

use bytes::Bytes;
use mqo_data::persist::{self, fingerprint, PersistError};
use mqo_data::DatasetId;
use mqo_shard::{ShardBundle, ShardMap, ShardMapError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// No decode of these few-byte images may ask for more than this.
const ALLOCATION_CEILING: usize = 1 << 20;

/// `magic | FNV-1a(payload) | payload`, the framing of every image.
fn framed(magic: &[u8; 8], payload: &[u8]) -> Vec<u8> {
    let mut out = magic.to_vec();
    out.extend_from_slice(&fingerprint(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// A dataset payload up to its class list (`classes` names follow, all
/// "A"), then `tail`.
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
    framed(b"MQOTAG2\n", &p)
}

/// Graph header `n | m`, then `rest`.
fn graph(n: u32, m: u64, rest: &[u8]) -> Vec<u8> {
    let mut t = n.to_le_bytes().to_vec();
    t.extend_from_slice(&m.to_le_bytes());
    t.extend_from_slice(rest);
    t
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
    let from_bytes = probe(|| persist::from_bytes(Bytes::from(image.to_vec()), spec.clone()));
    let loaded = probe(|| persist::load(&path, spec.clone()));
    std::fs::remove_file(&path).ok();
    for (how, (err, largest)) in [("from_bytes", from_bytes), ("load", loaded)] {
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
    let from_bytes =
        probe(|| ShardBundle::from_bytes(Bytes::from(image.to_vec()), spec.clone()));
    let loaded = probe(|| ShardBundle::load(&path, spec.clone()));
    std::fs::remove_file(&path).ok();
    for (how, (err, largest)) in [("from_bytes", from_bytes), ("load", loaded)] {
        assert!(
            matches!(err, PersistError::Corrupt(what) if what == expected),
            "{tag} via {how}: {err}"
        );
        assert!(largest < ALLOCATION_CEILING, "{tag} via {how} allocated {largest} bytes");
    }
}

fn assert_map_refused(tag: &str, image: &[u8], expected: &str) {
    let path = temp_file(tag, image);
    let from_bytes = probe(|| ShardMap::from_bytes(Bytes::from(image.to_vec())));
    let loaded = probe(|| ShardMap::load(&path));
    std::fs::remove_file(&path).ok();
    for (how, (err, largest)) in [("from_bytes", from_bytes), ("load", loaded)] {
        assert!(
            matches!(err, ShardMapError::Corrupt(what) if what == expected),
            "{tag} via {how}: {err}"
        );
        assert!(largest < ALLOCATION_CEILING, "{tag} via {how} allocated {largest} bytes");
    }
}

/// One test, so no other test's allocations race the peak.
#[test]
fn oversized_counts_are_truncations_not_allocations() {
    assert_dataset_refused(
        "nodes",
        &dataset_image(1, &graph(u32::MAX, 0, &[])),
        "truncated node record",
    );
    assert_dataset_refused(
        "edges",
        &dataset_image(1, &graph(1, u64::MAX, &[])),
        "truncated edge list",
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
        &dataset_image(1, &graph(1, 0, &record)),
        "truncated string body",
    );

    // A shard header claiming u32::MAX local ids.
    let mut header = Vec::new();
    for field in [0u32, 2, 1, u32::MAX] {
        header.extend_from_slice(&field.to_le_bytes());
    }
    let mut shard = framed(b"MQOSHD1\n", &header);
    shard.extend_from_slice(&dataset_image(1, &graph(0, 0, &[])));
    assert_shard_refused("locals", &shard, "truncated local id map");

    // Shard maps claiming u32::MAX shards, under either strategy.
    for (strategy, expected) in [(0u8, "truncated range starts"), (1, "truncated shard stats")]
    {
        let mut p = vec![strategy];
        p.extend_from_slice(&9u64.to_le_bytes());
        p.extend_from_slice(&100u32.to_le_bytes());
        p.extend_from_slice(&u32::MAX.to_le_bytes());
        p.extend_from_slice(&0u64.to_le_bytes());
        assert_map_refused(&format!("shards-{strategy}"), &framed(b"MQOSHM1\n", &p), expected);
    }
}
