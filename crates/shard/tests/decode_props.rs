//! Properties of the streaming decoders for dataset images
//! (`mqo_data::persist`) and shard images (`ShardBundle`): an intact
//! image decodes and re-encodes to the same bytes, a damaged one is an
//! `Err` (never a panic), and decoding from memory and streaming from a
//! file always reach the same verdict.

use bytes::Bytes;
use mqo_data::persist;
use mqo_data::{DatasetBundle, DatasetId, DatasetSpec};
use mqo_graph::{ClassId, GraphBuilder, NodeText, Tag};
use mqo_shard::{extract_shard, partition, PartitionStrategy, ShardBundle, ShardIdentity};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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
        r.map(|b| persist::to_bytes(&b).to_vec()).map_err(|e| e.to_string())
    };
    let from_bytes = verdict(persist::from_bytes(Bytes::from(image.to_vec()), spec()));
    let loaded = verdict(persist::load(&path, spec()));
    std::fs::remove_file(&path).ok();
    (from_bytes, loaded)
}

fn shard_verdicts(image: &[u8], tag: &str) -> (Verdict, Verdict) {
    let path = temp_path(tag);
    std::fs::write(&path, image).unwrap();
    let verdict = |r: Result<ShardBundle, persist::PersistError>| {
        r.map(|b| b.to_bytes().to_vec()).map_err(|e| e.to_string())
    };
    let from_bytes = verdict(ShardBundle::from_bytes(Bytes::from(image.to_vec()), spec()));
    let loaded = verdict(ShardBundle::load(&path, spec()));
    std::fs::remove_file(&path).ok();
    (from_bytes, loaded)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn intact_images_decode_and_re_encode_byte_identically(seed in any::<u64>()) {
        let data = persist::to_bytes(&random_bundle(seed)).to_vec();
        let (from_bytes, loaded) = dataset_verdicts(&data, "intact-dataset");
        prop_assert_eq!(from_bytes.as_deref(), Ok(&data[..]), "seed {}", seed);
        prop_assert_eq!(loaded.as_deref(), Ok(&data[..]), "seed {}", seed);

        let shard = random_shard(seed).to_bytes().to_vec();
        let (from_bytes, loaded) = shard_verdicts(&shard, "intact-shard");
        prop_assert_eq!(from_bytes.as_deref(), Ok(&shard[..]), "seed {}", seed);
        prop_assert_eq!(loaded.as_deref(), Ok(&shard[..]), "seed {}", seed);
    }

    #[test]
    fn damaged_images_are_refused_alike_from_bytes_and_from_files(
        seed in any::<u64>(),
        kind in 0u8..3,
        at in any::<u64>(),
        mask in 1u8..=255,
        pad in prop::collection::vec(any::<u8>(), 1..16),
    ) {
        let data = damage(&persist::to_bytes(&random_bundle(seed)), kind, at, mask, &pad);
        let (from_bytes, loaded) = dataset_verdicts(&data, "damaged-dataset");
        prop_assert!(from_bytes.is_err(), "seed {} kind {}: damaged dataset decoded", seed, kind);
        prop_assert_eq!(from_bytes, loaded, "seed {} kind {}", seed, kind);

        let shard = damage(&random_shard(seed).to_bytes(), kind, at, mask, &pad);
        let (from_bytes, loaded) = shard_verdicts(&shard, "damaged-shard");
        prop_assert!(from_bytes.is_err(), "seed {} kind {}: damaged shard decoded", seed, kind);
        prop_assert_eq!(from_bytes, loaded, "seed {} kind {}", seed, kind);
    }
}

/// A shard image written by the encoder as it stood before decoding
/// streamed: a hand-built three-node dataset (owned globals 5 and 6,
/// halo global 9) on shard 1 of 2.
const ENCODED_SHARD: &str = "\
    4d514f534844310aadcafdc7f6e07c4a01000000020000000200000003000000\
    0500000006000000090000004d514f544147320afc3f5338970d986904000000\
    636f7261fca9f1d24d62503f0700000000000000020003000000040000000100\
    00000200060000005468656f72790700000053797374656d7303000000020000\
    00000000000000000001000000010000000200000000000000003f000d000000\
    67726170682070726f6d707473180000006e65696768626f7220637565732063\
    757420746f6b656e730100000080be0108000000626f6f7374696e6700000000\
    01000000803f000400000068616c6f11000000612072656d6f7465206e656967\
    68626f72";

fn encoded_shard() -> Vec<u8> {
    (0..ENCODED_SHARD.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&ENCODED_SHARD[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn an_image_from_the_earlier_encoder_loads_to_an_equal_bundle() {
    let image = encoded_shard();
    let path = temp_path("earlier-encoder.bin");
    std::fs::write(&path, &image).unwrap();
    let loaded = ShardBundle::load(&path, spec()).unwrap();
    std::fs::remove_file(&path).ok();

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
    // And the encoder still writes exactly those bytes.
    assert_eq!(loaded.to_bytes().to_vec(), image);
}
