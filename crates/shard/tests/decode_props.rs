//! Properties of the streaming decoders for dataset images
//! (`mqo_data::persist`) and shard images (`ShardBundle`): an intact
//! image decodes and re-encodes to the same bytes, a damaged one is an
//! `Err` (never a panic), and decoding from memory and streaming from a
//! file always reach the same verdict. Dataset images store the CSR and
//! load to exactly the graph a `GraphBuilder` builds.

use mqo_data::persist::{self, ImageReader};
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
        let data = dataset_image(&random_bundle(seed));
        prop_assert_eq!(&data[..8], b"MQOTAG4\n");
        let (in_memory, loaded) = dataset_verdicts(&data, "intact-dataset");
        prop_assert_eq!(in_memory.as_deref(), Ok(&data[..]), "seed {}", seed);
        prop_assert_eq!(loaded.as_deref(), Ok(&data[..]), "seed {}", seed);

        let shard = shard_image(&random_shard(seed));
        let (in_memory, loaded) = shard_verdicts(&shard, "intact-shard");
        prop_assert_eq!(in_memory.as_deref(), Ok(&shard[..]), "seed {}", seed);
        prop_assert_eq!(loaded.as_deref(), Ok(&shard[..]), "seed {}", seed);
    }

    /// A loaded image holds the very graph the builder built, and writes
    /// back the same bytes.
    #[test]
    fn a_loaded_image_holds_the_graph_the_builder_builds(
        (n, edges, hub, spoke) in graphs(),
    ) {
        let bundle = graph_bundle(n, &edges, hub, spoke);
        let built = bundle.tag.graph();
        let image = dataset_image(&bundle);
        let loaded = persist::decode(&mut ImageReader::from_slice(&image), spec()).unwrap();
        prop_assert_eq!(loaded.tag.graph(), built);
        prop_assert_eq!(loaded.tag.num_edges(), built.num_edges());
        prop_assert_eq!(dataset_image(&loaded), image);
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

/// A shard image as the encoder writes it: a hand-built three-node
/// dataset (owned globals 5 and 6, halo global 9) on shard 1 of 2, whose
/// inner image's graph section is the CSR (3 nodes, 4 entries, offsets
/// 0 1 3 4, targets 1 0 2 1).
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

/// The bundle [`TAG4_SHARD`] holds.
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

/// The fixture loads to its bundle and re-encodes to itself.
#[test]
fn a_current_image_loads_and_re_encodes_byte_identically() {
    let image = unhex(TAG4_SHARD);
    let (in_memory, loaded) = shard_verdicts(&image, "current-encoder.bin");
    assert_eq!(in_memory.as_deref(), Ok(&image[..]));
    assert_eq!(loaded.as_deref(), Ok(&image[..]));
    let decoded = ShardBundle::decode(&mut ImageReader::from_slice(&image), spec()).unwrap();
    assert_is_the_fixture(&decoded);
}
