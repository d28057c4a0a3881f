//! Properties of the streaming decoders for dataset images
//! (`mqo_data::persist`) and shard images (`ShardBundle`): an intact
//! image decodes and re-encodes to the same bytes, a damaged one is an
//! `Err` (never a panic), and decoding from memory and streaming from a
//! file always reach the same verdict. Dataset images store the CSR
//! (`MQOTAG4`) and load to exactly the graph a `GraphBuilder` builds;
//! the older edge-list framings (`MQOTAG3` with XXH64, `MQOTAG2` with
//! FNV-1a) still load to the same bundle, and an image whose magic names
//! the other hash is refused.

use mqo_data::persist::{self, ImageHash, ImageReader};
use mqo_data::{DatasetBundle, DatasetId, DatasetSpec};
use mqo_graph::{ClassId, GraphBuilder, NodeText, Tag};
use mqo_shard::{
    extract_shard, partition, PartitionStrategy, ShardBundle, ShardIdentity, ShardMap,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Cursor;
use std::path::PathBuf;
use std::sync::Arc;

fn spec() -> DatasetSpec {
    DatasetId::Cora.spec()
}

const WORDS: &[&str] = &["graph", "cue", "token", "neighbor", "prompt", "λ-boost", "中文", ""];

/// A small random dataset: up to 12 nodes, random edges (self-loops and
/// duplicates included), random texts, labels and latents.
fn random_bundle(seed: u64) -> DatasetBundle {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2..=12usize);
    let k = rng.gen_range(1..=4u16);
    let mut builder = GraphBuilder::new(n);
    for _ in 0..rng.gen_range(0..3 * n) {
        builder.add_edge(rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)).unwrap();
    }
    let words = |rng: &mut StdRng, max: usize| {
        (0..rng.gen_range(0..=max))
            .map(|_| WORDS[rng.gen_range(0..WORDS.len())])
            .collect::<Vec<_>>()
            .join(" ")
    };
    let texts =
        (0..n).map(|_| NodeText::new(words(&mut rng, 3), words(&mut rng, 12))).collect();
    let labels = (0..n).map(|_| ClassId(rng.gen_range(0..k))).collect();
    let class_names = (0..k).map(|c| format!("Class {c}")).collect();
    let tag = Tag::new("cora", builder.build(), texts, labels, class_names).unwrap();
    DatasetBundle {
        tag,
        lexicon: Arc::new(mqo_text::Lexicon::with_markers(seed, k, 3, 5, 2)),
        alphas: (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        adversarial: (0..n).map(|_| rng.gen_bool(0.3)).collect(),
        spec: spec(),
        scale: rng.gen_range(0.0..1.0),
    }
}

/// A random shard of a random dataset, under either partition strategy.
fn random_shard(seed: u64) -> ShardBundle {
    let full = random_bundle(seed);
    let n = full.tag.num_nodes() as u32;
    let shards = 1 + (seed % u64::from(n.min(3))) as u32;
    let strategy =
        if seed & 1 == 0 { PartitionStrategy::EdgeCut } else { PartitionStrategy::Ring };
    let map = partition(full.tag.graph(), shards, seed, strategy);
    extract_shard(&full, &map, (seed >> 8) as u32 % shards)
}

/// `payload` framed under `magic`, its fingerprint made with `hash`.
fn framed(magic: &[u8; 8], hash: ImageHash, payload: &[u8]) -> Vec<u8> {
    let mut out = magic.to_vec();
    out.extend_from_slice(&hash.of(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// `image` (framed `magic | fingerprint | payload`) re-framed under
/// `magic`, its fingerprint remade with `hash`.
fn reframe(image: &[u8], magic: &[u8; 8], hash: ImageHash) -> Vec<u8> {
    framed(magic, hash, &image[16..])
}

/// `bundle` as an older encoder wrote it: the current image with its
/// CSR section (`entries | offsets | targets`, after the node count)
/// replaced by an edge list (`edges | (u, v)*`, each edge once), framed
/// under `magic` and fingerprinted with `hash`.
fn edge_list_image(bundle: &DatasetBundle, magic: &[u8; 8], hash: ImageHash) -> Vec<u8> {
    let tag = &bundle.tag;
    let current = dataset_image(bundle);
    let names: usize = tag.class_names().iter().map(|c| 4 + c.len()).sum();
    // Header: name, scale, the five lexicon fields, the class list, n.
    let at = 16 + 4 + tag.name().len() + 8 + 22 + 2 + names + 4;
    let end = at + 8 + 8 * (tag.num_nodes() + 1) + 4 * tag.graph().adjacency_len();
    let mut payload = current[16..at].to_vec();
    payload.extend_from_slice(&tag.num_edges().to_le_bytes());
    for (u, v) in tag.graph().edges() {
        payload.extend_from_slice(&u.0.to_le_bytes());
        payload.extend_from_slice(&v.0.to_le_bytes());
    }
    payload.extend_from_slice(&current[end..]);
    framed(magic, hash, &payload)
}

/// The older framings of a dataset image, newest first.
const EDGE_LIST_FRAMINGS: [(&[u8; 8], ImageHash); 2] =
    [(b"MQOTAG3\n", ImageHash::Xxh64), (b"MQOTAG2\n", ImageHash::Fnv1a)];

/// A graph over `n` nodes: `edges` (duplicates, reversed pairs and
/// self-loops among them) plus a hub, node `hub`, joined to every
/// `spoke`-th node. Endpoints are drawn below `n / 2 + 1`, so the top
/// nodes are isolated unless the hub reaches them.
fn graph_bundle(n: usize, edges: &[(u32, u32)], hub: u32, spoke: u32) -> DatasetBundle {
    let mut builder = GraphBuilder::new(n);
    for &(u, v) in edges {
        builder.add_edge(u, v).unwrap();
    }
    for v in (0..n as u32).step_by(spoke as usize) {
        builder.add_edge(hub, v).unwrap();
    }
    let texts = (0..n).map(|i| NodeText::new(format!("t{i}"), "")).collect();
    let tag = Tag::new("cora", builder.build(), texts, vec![ClassId(0); n], vec!["A".into()])
        .unwrap();
    DatasetBundle {
        tag,
        lexicon: Arc::new(mqo_text::Lexicon::with_markers(3, 1, 3, 5, 2)),
        alphas: vec![0.25; n],
        adversarial: vec![false; n],
        spec: spec(),
        scale: 0.5,
    }
}

/// `(n, edges, hub, spoke)` for [`graph_bundle`].
fn graphs() -> impl Strategy<Value = (usize, Vec<(u32, u32)>, u32, u32)> {
    (1..60usize).prop_flat_map(|n| {
        let low = n as u32 / 2 + 1;
        let edge = (0..low, 0..low);
        (Just(n), prop::collection::vec(edge, 0..150), 0..n as u32, 1..4u32)
    })
}

/// Damage `image`: 0 flips bits of one byte, 1 truncates, 2 pads.
fn damage(image: &[u8], kind: u8, at: u64, mask: u8, pad: &[u8]) -> Vec<u8> {
    let mut out = image.to_vec();
    let at = (at % image.len() as u64) as usize;
    match kind {
        0 => out[at] ^= mask,
        1 => out.truncate(at),
        _ => out.extend_from_slice(pad),
    }
    out
}

fn dataset_image(bundle: &DatasetBundle) -> Vec<u8> {
    persist::write_to(bundle, Cursor::new(Vec::new())).unwrap().into_inner()
}

fn shard_image(shard: &ShardBundle) -> Vec<u8> {
    shard.write_to(Cursor::new(Vec::new())).unwrap().into_inner()
}

fn map_image(map: &ShardMap) -> Vec<u8> {
    map.write_to(Cursor::new(Vec::new())).unwrap().into_inner()
}

/// A file path unique to this test process and `tag`.
fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mqo-decode-props-{}-{tag}", std::process::id()))
}

/// The verdict of one decoder: the re-encoded image, or the error text.
type Verdict = Result<Vec<u8>, String>;

fn dataset_verdicts(image: &[u8], tag: &str) -> (Verdict, Verdict) {
    let path = temp_path(tag);
    std::fs::write(&path, image).unwrap();
    let verdict = |r: Result<DatasetBundle, persist::PersistError>| {
        r.map(|b| dataset_image(&b)).map_err(|e| e.to_string())
    };
    let in_memory = verdict(persist::decode(&mut ImageReader::from_slice(image), spec()));
    let loaded = verdict(persist::load(&path, spec()));
    std::fs::remove_file(&path).ok();
    (in_memory, loaded)
}

fn shard_verdicts(image: &[u8], tag: &str) -> (Verdict, Verdict) {
    let path = temp_path(tag);
    std::fs::write(&path, image).unwrap();
    let verdict = |r: Result<ShardBundle, persist::PersistError>| {
        r.map(|b| shard_image(&b)).map_err(|e| e.to_string())
    };
    let in_memory = verdict(ShardBundle::decode(&mut ImageReader::from_slice(image), spec()));
    let loaded = verdict(ShardBundle::load(&path, spec()));
    std::fs::remove_file(&path).ok();
    (in_memory, loaded)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn intact_images_decode_and_re_encode_byte_identically(seed in any::<u64>()) {
        let bundle = random_bundle(seed);
        let data = dataset_image(&bundle);
        prop_assert_eq!(&data[..8], b"MQOTAG4\n");
        let (in_memory, loaded) = dataset_verdicts(&data, "intact-dataset");
        prop_assert_eq!(in_memory.as_deref(), Ok(&data[..]), "seed {}", seed);
        prop_assert_eq!(loaded.as_deref(), Ok(&data[..]), "seed {}", seed);

        // The earlier encoders' framings of the same bundle load to it,
        // and the encoder writes it back in the current framing.
        for (magic, hash) in EDGE_LIST_FRAMINGS {
            let older = edge_list_image(&bundle, magic, hash);
            let (in_memory, loaded) = dataset_verdicts(&older, "older-dataset");
            prop_assert_eq!(in_memory.as_deref(), Ok(&data[..]), "seed {}", seed);
            prop_assert_eq!(loaded.as_deref(), Ok(&data[..]), "seed {}", seed);
        }

        let shard = shard_image(&random_shard(seed));
        let (in_memory, loaded) = shard_verdicts(&shard, "intact-shard");
        prop_assert_eq!(in_memory.as_deref(), Ok(&shard[..]), "seed {}", seed);
        prop_assert_eq!(loaded.as_deref(), Ok(&shard[..]), "seed {}", seed);
    }

    /// An `MQOTAG4` load is the very graph the builder built, and both
    /// edge-list framings of the same bundle load to an equal graph.
    #[test]
    fn every_framing_loads_the_graph_the_builder_builds(
        (n, edges, hub, spoke) in graphs(),
    ) {
        let bundle = graph_bundle(n, &edges, hub, spoke);
        let built = bundle.tag.graph();
        let image = dataset_image(&bundle);
        let mut older: Vec<Vec<u8>> = EDGE_LIST_FRAMINGS
            .iter()
            .map(|&(magic, hash)| edge_list_image(&bundle, magic, hash))
            .collect();
        older.insert(0, image.clone());
        for bytes in &older {
            let loaded = persist::decode(&mut ImageReader::from_slice(bytes), spec()).unwrap();
            prop_assert_eq!(loaded.tag.graph(), built, "{:?}", &bytes[..8]);
            prop_assert_eq!(loaded.tag.num_edges(), built.num_edges());
            prop_assert_eq!(dataset_image(&loaded), image.clone());
        }
    }

    #[test]
    fn damaged_images_are_refused_alike_from_bytes_and_from_files(
        seed in any::<u64>(),
        kind in 0u8..3,
        at in any::<u64>(),
        mask in 1u8..=255,
        pad in prop::collection::vec(any::<u8>(), 1..16),
    ) {
        let data = damage(&dataset_image(&random_bundle(seed)), kind, at, mask, &pad);
        let (in_memory, loaded) = dataset_verdicts(&data, "damaged-dataset");
        prop_assert!(in_memory.is_err(), "seed {} kind {}: damaged dataset decoded", seed, kind);
        prop_assert_eq!(in_memory, loaded, "seed {} kind {}", seed, kind);

        let shard = damage(&shard_image(&random_shard(seed)), kind, at, mask, &pad);
        let (in_memory, loaded) = shard_verdicts(&shard, "damaged-shard");
        prop_assert!(in_memory.is_err(), "seed {} kind {}: damaged shard decoded", seed, kind);
        prop_assert_eq!(in_memory, loaded, "seed {} kind {}", seed, kind);
    }
}

/// A shard image written by the encoder as it stood before decoding
/// streamed, with FNV-1a fingerprints (`MQOSHD1`, `MQOTAG2`): a
/// hand-built three-node dataset (owned globals 5 and 6, halo global 9)
/// on shard 1 of 2. Load-only: the encoder no longer writes it.
const TAG2_SHARD: &str = "\
    4d514f534844310aadcafdc7f6e07c4a01000000020000000200000003000000\
    0500000006000000090000004d514f544147320afc3f5338970d986904000000\
    636f7261fca9f1d24d62503f0700000000000000020003000000040000000100\
    00000200060000005468656f72790700000053797374656d7303000000020000\
    00000000000000000001000000010000000200000000000000003f000d000000\
    67726170682070726f6d707473180000006e65696768626f7220637565732063\
    757420746f6b656e730100000080be0108000000626f6f7374696e6700000000\
    01000000803f000400000068616c6f11000000612072656d6f7465206e656967\
    68626f72";

/// The same shard with XXH64 fingerprints under `MQOSHD2` and
/// `MQOTAG3`, whose graph section is still an edge list. Load-only.
const TAG3_SHARD: &str = "\
    4d514f534844320af1ce5ed378b06c3801000000020000000200000003000000\
    0500000006000000090000004d514f544147330a53d32493281a239a04000000\
    636f7261fca9f1d24d62503f0700000000000000020003000000040000000100\
    00000200060000005468656f72790700000053797374656d7303000000020000\
    00000000000000000001000000010000000200000000000000003f000d000000\
    67726170682070726f6d707473180000006e65696768626f7220637565732063\
    757420746f6b656e730100000080be0108000000626f6f7374696e6700000000\
    01000000803f000400000068616c6f11000000612072656d6f7465206e656967\
    68626f72";

/// The same shard as the current encoder writes it: the header as in
/// [`TAG3_SHARD`], the inner image under `MQOTAG4`, whose graph section
/// is the CSR (3 nodes, 4 entries, offsets 0 1 3 4, targets 1 0 2 1).
const TAG4_SHARD: &str = "\
    4d514f534844320af1ce5ed378b06c3801000000020000000200000003000000\
    0500000006000000090000004d514f544147340afea4494a0bdf0e7504000000\
    636f7261fca9f1d24d62503f0700000000000000020003000000040000000100\
    00000200060000005468656f72790700000053797374656d7303000000040000\
    0000000000000000000000000001000000000000000300000000000000040000\
    00000000000100000000000000020000000100000000000000003f000d000000\
    67726170682070726f6d707473180000006e65696768626f7220637565732063\
    757420746f6b656e730100000080be0108000000626f6f7374696e6700000000\
    01000000803f000400000068616c6f11000000612072656d6f7465206e656967\
    68626f72";

/// The fingerprint fields of full-size images as the encoder writes
/// them: `mqo generate cora --seed 42` (scale 1.0), and
/// the map and both shards of `mqo partition cora --shards 2 --seed 42`.
/// Each entry is the image's length and its fingerprint field in file
/// order; a shard carries two fields, its header's and its inner
/// dataset image's. The tiny fixture above covers one small shard; these
/// catch a writer that drifts only on a real-sized image.
const CORA_42: (usize, &str) = (1_791_969, "02dc3974a97020fe");
const CORA_42_MAP: (usize, &str) = (8_829, "5265f17507bafd6b");
const CORA_42_SHARDS: [(usize, &str, &str); 2] = [
    (1_631_889, "a402b5050b332ae0", "f3ddeffc8def967a"),
    (1_617_949, "f0a3c1b1d303ead4", "bd547de2f725d44e"),
];

#[test]
fn full_size_images_keep_their_fingerprints() {
    // The fingerprint field of the image that starts at `at`.
    let field = |image: &[u8], at: usize| -> String {
        image[at + 8..at + 16].iter().map(|b| format!("{b:02x}")).collect()
    };
    let full = mqo_data::dataset(DatasetId::Cora, None, 42);
    let data = dataset_image(&full);
    assert_eq!((data.len(), field(&data, 0).as_str()), CORA_42, "dataset image");

    let map = partition(full.tag.graph(), 2, 42, PartitionStrategy::EdgeCut);
    let image = map_image(&map);
    assert_eq!((image.len(), field(&image, 0).as_str()), CORA_42_MAP, "shard map");

    for (s, &(len, header, inner)) in CORA_42_SHARDS.iter().enumerate() {
        let shard = extract_shard(&full, &map, s as u32);
        let image = shard_image(&shard);
        let inner_at = 8 + 8 + 16 + 4 * shard.num_locals() as usize;
        assert_eq!(
            (image.len(), field(&image, 0).as_str(), field(&image, inner_at).as_str()),
            (len, header, inner),
            "shard {s}"
        );
    }
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len()).step_by(2).map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap()).collect()
}

/// Where the inner dataset image starts in every fixture: magic,
/// fingerprint, four header words and three local ids.
const INNER: usize = 8 + 8 + 16 + 12;

/// Both older framings of the fixture load to the same bundle, which the
/// encoder writes as [`TAG4_SHARD`].
#[test]
fn an_image_from_the_earlier_encoder_loads_to_an_equal_bundle() {
    for (fixture, tag) in [(TAG2_SHARD, "tag2-shard.bin"), (TAG3_SHARD, "tag3-shard.bin")] {
        let path = temp_path(tag);
        std::fs::write(&path, unhex(fixture)).unwrap();
        let loaded = ShardBundle::load(&path, spec()).unwrap();
        std::fs::remove_file(&path).ok();
        assert_is_the_fixture(&loaded);
        assert_eq!(shard_image(&loaded), unhex(TAG4_SHARD), "{tag}");
    }
}

/// The bundle every fixture holds.
fn assert_is_the_fixture(loaded: &ShardBundle) {
    let expected_identity = ShardIdentity::new(1, 2, 2, vec![5, 6, 9]);
    let id = &loaded.identity;
    assert_eq!((id.shard_id, id.num_shards, loaded.num_owned()), (1, 2, 2));
    for l in 0..3 {
        assert_eq!(loaded.global_of(l), expected_identity.global_of(l));
    }
    assert_eq!(loaded.local_of(9), Some(2));
    let tag = &loaded.data.tag;
    assert_eq!(tag.name(), "cora");
    assert_eq!(tag.class_names(), ["Theory", "Systems"]);
    assert_eq!(
        tag.graph().edges().map(|(u, v)| (u.0, v.0)).collect::<Vec<_>>(),
        [(0, 1), (1, 2)]
    );
    assert_eq!(tag.labels(), [ClassId(0), ClassId(1), ClassId(1)]);
    assert_eq!(
        tag.text(mqo_graph::NodeId(0)),
        &NodeText::new("graph prompts", "neighbor cues cut tokens")
    );
    assert_eq!(tag.text(mqo_graph::NodeId(1)), &NodeText::new("boosting", ""));
    assert_eq!(loaded.data.alphas, [0.5, -0.25, 1.0]);
    assert_eq!(loaded.data.adversarial, [false, true, false]);
    assert_eq!(loaded.data.scale, 0.001);
    let lex = &loaded.data.lexicon;
    assert_eq!(
        (lex.seed(), lex.num_classes(), lex.class_size(), lex.shared_size(), lex.marker_size()),
        (7, 2, 3, 4, 1)
    );
}

/// The older fixtures re-encode to this one (above), and this one loads
/// to the same bundle and re-encodes to itself.
#[test]
fn a_current_image_loads_and_re_encodes_byte_identically() {
    let image = unhex(TAG4_SHARD);
    let (in_memory, loaded) = shard_verdicts(&image, "current-encoder.bin");
    assert_eq!(in_memory.as_deref(), Ok(&image[..]));
    assert_eq!(loaded.as_deref(), Ok(&image[..]));
    let decoded = ShardBundle::decode(&mut ImageReader::from_slice(&image), spec()).unwrap();
    assert_is_the_fixture(&decoded);
}

/// An image whose magic names one hash while its fingerprint was made
/// with the other fails its fingerprint check, in both directions, for
/// dataset, shard and shard-map images.
#[test]
fn a_magic_naming_the_other_hash_is_a_fingerprint_mismatch() {
    let mismatch = "corrupt image: fingerprint mismatch (truncated or corrupt file)";
    let (tag4, tag3, tag2) = (unhex(TAG4_SHARD), unhex(TAG3_SHARD), unhex(TAG2_SHARD));

    let swapped = |image: &[u8], magic: &[u8; 8]| {
        let mut out = image.to_vec();
        out[..8].copy_from_slice(magic);
        out
    };
    for (image, magic) in [
        (&tag4[INNER..], b"MQOTAG2\n"),
        (&tag3[INNER..], b"MQOTAG2\n"),
        (&tag2[INNER..], b"MQOTAG3\n"),
        (&tag2[INNER..], b"MQOTAG4\n"),
    ] {
        let (in_memory, loaded) = dataset_verdicts(&swapped(image, magic), "mixed-dataset");
        assert_eq!(in_memory.err().as_deref(), Some(mismatch), "dataset under {magic:?}");
        assert_eq!(loaded.err().as_deref(), Some(mismatch), "dataset under {magic:?}");
    }
    let header_mismatch = "corrupt image: shard header fingerprint mismatch";
    for (image, magic) in [(&tag4, b"MQOSHD1\n"), (&tag2, b"MQOSHD2\n")] {
        let (in_memory, loaded) = shard_verdicts(&swapped(image, magic), "mixed-shard");
        assert_eq!(in_memory.err().as_deref(), Some(header_mismatch), "shard under {magic:?}");
        assert_eq!(loaded.err().as_deref(), Some(header_mismatch), "shard under {magic:?}");
    }

    let full = random_bundle(7);
    let map = map_image(&partition(full.tag.graph(), 2, 7, PartitionStrategy::EdgeCut));
    assert_eq!(&map[..8], b"MQOSHM2\n");
    let legacy_map = reframe(&map, b"MQOSHM1\n", ImageHash::Fnv1a);
    let decode = |image: Vec<u8>| {
        ShardMap::decode(&mut ImageReader::from_slice(&image)).map_err(|e| e.to_string())
    };
    assert_eq!(decode(legacy_map.clone()).map(|m| map_image(&m)), Ok(map.clone()));
    let map_mismatch = "corrupt image: fingerprint mismatch (truncated or corrupt file)";
    assert_eq!(decode(swapped(&map, b"MQOSHM1\n")).err().as_deref(), Some(map_mismatch));
    assert_eq!(decode(swapped(&legacy_map, b"MQOSHM2\n")).err().as_deref(), Some(map_mismatch));
}
