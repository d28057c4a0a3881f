//! The image writer against hostile sinks, for dataset, shard and
//! shard-map images alike. A sink that takes at most three bytes per
//! `write` must end up holding exactly the bytes `save` writes. A sink
//! that fails after N bytes must surface as `PersistError::Io`, never a
//! panic, and the torn prefix it keeps must be refused by `load`, with N
//! swept through each image's magic, fingerprint placeholder, 64 KiB
//! buffer boundaries, fingerprint write and final seek. A save whose
//! file fails midway must leave the image it was replacing loadable and
//! no temporary file behind.

use mqo_data::persist::{self, PersistError};
use mqo_data::{DatasetBundle, DatasetId, DatasetSpec};
use mqo_graph::{ClassId, GraphBuilder, NodeText, Tag};
use mqo_shard::{extract_shard, partition, PartitionStrategy, ShardBundle, ShardMap};
use std::io::{self, Cursor, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The writer's buffer: fields reach the sink a full buffer at a time.
const BUFFER: usize = 1 << 16;

fn spec() -> DatasetSpec {
    DatasetId::Cora.spec()
}

/// 20,000 nodes and 40,000 edges (a 480 KB CSR section: 160 KB of
/// offsets, 320 KB of targets), short texts around one 100 KB body, so
/// sections cross the buffer at odd offsets.
fn dataset() -> DatasetBundle {
    let n = 20_000u32;
    let mut builder = GraphBuilder::new(n as usize);
    for i in 0..n {
        builder.add_edge(i, (i + 1) % n).unwrap();
        builder.add_edge(i, (i + 97) % n).unwrap();
    }
    let texts = (0..n)
        .map(|i| match i {
            7 => NodeText::new("long", "λ".repeat(50_000)),
            _ => NodeText::new(format!("t{i}"), "b".repeat(i as usize % 7)),
        })
        .collect();
    let labels = (0..n).map(|i| ClassId((i % 3) as u16)).collect();
    let names = vec!["A".to_string(), "B".into(), "C".into()];
    let tag = Tag::new("cora", builder.build(), texts, labels, names).unwrap();
    DatasetBundle {
        tag,
        lexicon: Arc::new(mqo_text::Lexicon::with_markers(1, 3, 3, 4, 1)),
        alphas: (0..n).map(|i| i as f32 / 7.0).collect(),
        adversarial: (0..n).map(|i| i % 4 == 0).collect(),
        spec: spec(),
        scale: 0.5,
    }
}

/// One image kind under test.
enum Image<'a> {
    Dataset(&'a DatasetBundle),
    Shard(&'a ShardBundle),
    Map(&'a ShardMap),
}

impl Image<'_> {
    fn name(&self) -> &'static str {
        match self {
            Image::Dataset(_) => "dataset",
            Image::Shard(_) => "shard",
            Image::Map(_) => "map",
        }
    }

    fn write_to<W: Write + Seek>(&self, w: W) -> Result<W, PersistError> {
        match self {
            Image::Dataset(data) => persist::write_to(data, w),
            Image::Shard(shard) => shard.write_to(w),
            Image::Map(map) => map.write_to(w),
        }
    }

    fn save(&self, path: &Path) -> Result<(), PersistError> {
        match self {
            Image::Dataset(data) => persist::save(data, path),
            Image::Shard(shard) => shard.save(path),
            Image::Map(map) => map.save(path),
        }
    }

    fn load(&self, path: &Path) -> Result<(), PersistError> {
        match self {
            Image::Dataset(_) => persist::load(path, spec()).map(drop),
            Image::Shard(_) => ShardBundle::load(path, spec()).map(drop),
            Image::Map(_) => ShardMap::load(path).map(drop),
        }
    }

    /// Where each image in the file starts: a shard's inner dataset
    /// image follows its header.
    fn starts(&self) -> Vec<usize> {
        match self {
            Image::Shard(shard) => vec![0, 8 + 8 + 16 + 4 * shard.num_locals() as usize],
            _ => vec![0],
        }
    }
}

/// A file path unique to this test process and `tag`.
fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mqo-write-sinks-{}-{tag}", std::process::id()))
}

/// A sink that accepts at most three bytes per `write`.
struct Trickle(Cursor<Vec<u8>>);

impl Write for Trickle {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(&buf[..buf.len().min(3)])
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Seek for Trickle {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.0.seek(pos)
    }
}

/// A sink that accepts `left` more bytes, then fails every write and
/// every seek.
struct Failing<W> {
    inner: W,
    left: usize,
}

impl<W> Failing<W> {
    fn check(&self) -> io::Result<()> {
        match self.left {
            0 => Err(io::Error::new(io::ErrorKind::StorageFull, "sink full")),
            _ => Ok(()),
        }
    }
}

impl<W: Write> Write for Failing<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.check()?;
        let k = buf.len().min(self.left);
        self.left -= k;
        self.inner.write(&buf[..k])
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl<W: Seek> Seek for Failing<W> {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.check()?;
        self.inner.seek(pos)
    }
}

fn with_images(check: impl Fn(&Image)) {
    let data = dataset();
    assert!(4 * data.tag.graph().adjacency_len() > 160_000, "the targets must pass 160 KB");
    let map = partition(data.tag.graph(), 2, 5, PartitionStrategy::Ring);
    let shard = extract_shard(&data, &map, 0);
    for image in [Image::Dataset(&data), Image::Shard(&shard), Image::Map(&map)] {
        check(&image);
    }
}

#[test]
fn a_three_byte_sink_receives_exactly_what_save_writes() {
    with_images(|image| {
        let path = temp_path(image.name());
        image.save(&path).unwrap();
        let saved = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let starts = image.starts();
        let last = *starts.last().unwrap();
        assert!(saved.len() - last > BUFFER, "{}: too small to cross a buffer", image.name());

        let trickled = image.write_to(Trickle(Cursor::new(Vec::new()))).unwrap().0.into_inner();
        assert!(trickled == saved, "{}: a trickling sink got different bytes", image.name());
    });
}

#[test]
fn a_sink_that_fails_leaves_a_prefix_load_refuses() {
    with_images(|image| {
        let whole = image.write_to(Cursor::new(Vec::new())).unwrap().into_inner();
        let starts = image.starts();
        // Each image's fingerprint is written after its payload, so a
        // sink counts 8 more bytes per image than the file holds; at the
        // full count the write succeeds and only its last seek fails.
        let budget = whole.len() + 8 * starts.len();
        let mut sweep = Vec::new();
        for (i, &start) in starts.iter().enumerate() {
            let end = starts.get(i + 1).copied().unwrap_or(whole.len());
            // Bytes the sink accepted before this image began.
            let at = start + 8 * i;
            let len = end - start;
            // Magic, placeholder, first payload bytes.
            sweep.extend((0..=17).map(|d| at + d));
            // Every buffer boundary inside the payload.
            for k in (1..).map(|k| 16 + k * BUFFER).take_while(|&b| b < len) {
                sweep.extend([at + k - 1, at + k, at + k + 1]);
            }
            // The last buffer, the fingerprint write and the final seek.
            sweep.extend((0..=9).map(|d| at + len + d - 1));
        }
        sweep.retain(|&n| n < budget);
        sweep.sort_unstable();
        sweep.dedup();

        let path = temp_path(&format!("torn-{}", image.name()));
        for n in sweep {
            let mut sink = Failing { inner: Cursor::new(Vec::new()), left: n };
            match image.write_to(&mut sink) {
                Err(PersistError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::StorageFull),
                other => panic!("{} failing after {n} bytes: {:?}", image.name(), other.err()),
            }
            std::fs::write(&path, sink.inner.get_ref()).unwrap();
            match image.load(&path) {
                Err(PersistError::Corrupt(_)) => {}
                other => {
                    panic!("{}: a prefix torn at {n} bytes loaded: {other:?}", image.name())
                }
            }
        }
        std::fs::remove_file(&path).ok();
    });
}

#[test]
fn a_save_that_fails_midway_keeps_the_previous_image() {
    with_images(|image| {
        let dir = temp_path(&format!("atomic-{}", image.name()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("image.bin");
        image.save(&path).unwrap();
        let saved = std::fs::read(&path).unwrap();
        for n in [0, 17, BUFFER + 3, saved.len() / 2] {
            let failed = persist::write_atomically(&path, |file| {
                image.write_to(Failing { inner: file, left: n }).map(|sink| sink.inner)
            });
            assert!(matches!(failed, Err(PersistError::Io(_))), "{} at {n}", image.name());
            assert!(std::fs::read(&path).unwrap() == saved, "{}: image changed", image.name());
            image.load(&path).unwrap();
            let names: Vec<_> =
                std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
            assert_eq!(names, ["image.bin"], "{} at {n}", image.name());
        }
        std::fs::remove_dir_all(&dir).ok();
    });
}
