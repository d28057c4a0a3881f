//! Binary persistence for generated datasets.
//!
//! Every bench binary regenerates its datasets from the seed, which is
//! reproducible but wasteful for the OGB-size graphs. This module saves a
//! [`DatasetBundle`]'s *contents* — graph, texts, labels, latents, and the
//! lexicon's construction parameters (the lexicon itself is deterministic,
//! so five integers reconstruct it) — in a length-prefixed little-endian
//! binary format.
//!
//! Format (`MQOTAG4\n` magic, then little-endian fields):
//!
//! ```text
//! header   magic[8] | fingerprint u64 | name | scale f64
//! lexicon  seed u64 | classes u16 | per_class u32 | shared u32 | markers u32
//! classes  count u16 | name*
//! graph    nodes u32 | entries u64 | offsets u64×(nodes+1) | targets u32×entries
//! nodes    per node: label u16 | alpha f32 | adversarial u8 | title | body
//! ```
//!
//! The graph section is the CSR exactly as [`Csr`] holds it in memory:
//! node `v`'s neighbors are `targets[offsets[v]..offsets[v + 1]]`, each
//! undirected edge stored from both ends and a self-loop once. Strings
//! are `u32` length + UTF-8 bytes. The spec is *not* persisted (it is
//! code, not data); [`load`] returns the bundle with the spec the caller
//! supplies.
//!
//! The fingerprint is XXH64 (seed 0, [`mqo_obs::Xxh64`]) over every byte
//! after the fingerprint field. A truncated copy, a flipped bit, or a
//! file whose tail belongs to a different dataset fails the check at
//! load — loudly, as [`PersistError::Corrupt`] — instead of
//! deserializing garbage that is only caught (or worse, not caught)
//! thousands of records later. This matters most for sharded
//! deployments, where per-shard files are copied between machines.
//!
//! Each image kind has one magic: this one, and in `mqo-shard` the shard
//! image's and the shard map's. An image under any other magic was not
//! written by this build and is refused as [`PersistError::Corrupt`],
//! with a hint to regenerate it (`mqo generate` for dataset images, `mqo
//! partition` for the shard kinds). Every image is regenerated from its
//! seed, so no reader keeps a decoder for an earlier framing.
//!
//! Decoding streams. [`load`] parses straight from the file through an
//! [`ImageReader`], which owns a 64 KiB buffer, hands out fields from
//! it, and hashes the consumed bytes a buffer at a time, so no
//! whole-file image is ever resident; [`decode`] over
//! [`ImageReader::from_slice`] runs the same decoder over a slice.
//! Fixed-width sections decode in bulk from the buffer
//! ([`ImageReader::records`]): the offsets and targets straight into
//! the two arrays the [`Csr`] keeps. Before a `Csr` exists,
//! [`Csr::try_from_parts`] checks them in one linear pass: offsets that
//! start at 0, never fall and end at the number of targets; strictly
//! ascending runs of in-range ids; and symmetry, compared as a sum of a
//! keyed 64-bit mix over the entries (see `mqo_graph`), whose key is
//! drawn per load so no crafted image can cancel it. The edge count is
//! derived, not stored. After the parse, succeeded or failed, the
//! reader drains the rest of the image and the fingerprint is compared:
//! a mismatch wins over any parse error, so a damaged image reports the
//! same verdict it would if it had been hashed before parsing. Because
//! parsing now runs before that verdict, every count and length is
//! checked against the bytes left in the image before it sizes an
//! allocation; a count the rest of the image cannot back is reported as
//! a truncation.
//!
//! Encoding streams the same way. [`write_to`] hands the fields to an
//! [`ImageWriter`], the mirror of the reader: it writes the magic and a
//! placeholder fingerprint, fills a 64 KiB buffer, hashes and writes
//! each full buffer once, and at [`ImageWriter::finish`] seeks back to
//! write the fingerprint. No image-sized buffer is ever built, and a
//! writer started mid-stream (the shard formats nest a dataset image
//! after their own header) fingerprints only its own image. Every image
//! kind in the workspace is written through it.
//!
//! Saving never tears the destination. [`write_atomically`], which
//! every image kind's `save` goes through, writes a sibling temporary
//! file, syncs it to disk and renames it over the destination, so a save
//! that fails midway leaves the previous image whole. A failed save
//! removes its temporary file; a killed one leaves it (a dot-file named
//! after the destination) beside the untouched image.

use crate::generate::DatasetBundle;
use crate::spec::DatasetSpec;
use mqo_graph::{ClassId, Csr, Error as GraphError, NodeText, Tag};
use mqo_obs::Xxh64;
use mqo_text::Lexicon;
use std::ffi::OsString;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The dataset image's magic.
const MAGIC: &[u8; 8] = b"MQOTAG4\n";

/// Why a dataset image under any other magic is refused.
const FOREIGN: &str =
    "not a dataset image this build writes; regenerate it with `mqo generate`";

/// Smallest node record: label u16, alpha f32, adversarial u8, and two
/// empty strings (a `u32` length each).
const MIN_NODE_RECORD: u64 = 2 + 4 + 1 + 4 + 4;

/// Errors from reading or writing any image: dataset, shard or shard
/// map.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The input is not a valid image.
    Corrupt(&'static str),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::Corrupt(what) => write!(f, "corrupt image: {what}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Bytes an [`ImageReader`] buffers from its input, and an
/// [`ImageWriter`] before it hashes and writes them.
const BUFFER: usize = 1 << 16;

/// A forward-only cursor over a binary image. It reads its input into a
/// buffer it owns, hands fields out of that buffer, and feeds the
/// consumed bytes to XXH64 (seed 0, [`mqo_obs::Xxh64`]) a buffer at a
/// time, as [`ImageWriter`] fingerprints them. It knows how many image
/// bytes are left, so a decoder can refuse a count before it sizes an
/// allocation. Every read names the [`PersistError::Corrupt`] message it
/// fails with when the image ends first.
pub struct ImageReader<R> {
    inner: R,
    buf: Box<[u8]>,
    /// `buf[pos..end]` is read from the input but not yet consumed.
    pos: usize,
    end: usize,
    /// `buf[mark..pos]` is consumed but not yet hashed.
    mark: usize,
    /// Image bytes not yet consumed, buffered ones included.
    left: u64,
    hash: Xxh64,
}

impl ImageReader<File> {
    /// Stream the file at `path`; its length bounds every read, so it
    /// must be a regular file whose length stays fixed while it loads. A
    /// pipe or device is refused as `InvalidInput`.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::open(path)?;
        let meta = file.metadata()?;
        if !meta.is_file() {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "not a regular file"));
        }
        Ok(ImageReader::new(file, meta.len()))
    }
}

impl<'a> ImageReader<&'a [u8]> {
    /// Read an in-memory image.
    pub fn from_slice(bytes: &'a [u8]) -> Self {
        ImageReader::new(bytes, bytes.len() as u64)
    }
}

impl<R: Read> ImageReader<R> {
    fn new(inner: R, len: u64) -> Self {
        ImageReader {
            inner,
            buf: vec![0; BUFFER].into_boxed_slice(),
            pos: 0,
            end: 0,
            mark: 0,
            left: len,
            hash: Xxh64::new(),
        }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> u64 {
        self.left
    }

    /// Read an image's magic and refuse any but `magic` as
    /// `Corrupt(what)`: each image kind has exactly one.
    pub fn magic(&mut self, magic: &[u8; 8], what: &'static str) -> Result<(), PersistError> {
        if &self.array::<8>(what)? != magic {
            return Err(PersistError::Corrupt(what));
        }
        Ok(())
    }

    /// Restart the running hash: it covers the bytes read from here on.
    pub fn start_hash(&mut self) {
        self.hash = Xxh64::new();
        self.mark = self.pos;
    }

    /// The hash of the bytes read since [`ImageReader::start_hash`].
    pub fn hash(&mut self) -> u64 {
        self.hash_consumed();
        self.hash.finish()
    }

    fn hash_consumed(&mut self) {
        self.hash.update(&self.buf[self.mark..self.pos]);
        self.mark = self.pos;
    }

    /// Make at least `need` (at most [`BUFFER`]) unconsumed bytes
    /// available in the buffer, failing with `Corrupt(what)` if the input
    /// ends first, including a file that shrank after it was opened.
    fn fill(&mut self, need: usize, what: &'static str) -> Result<(), PersistError> {
        if self.end - self.pos >= need {
            return Ok(());
        }
        self.hash_consumed();
        self.buf.copy_within(self.pos..self.end, 0);
        self.end -= self.pos;
        self.pos = 0;
        self.mark = 0;
        while self.end < need {
            match self.inner.read(&mut self.buf[self.end..]) {
                Ok(0) => return Err(PersistError::Corrupt(what)),
                Ok(k) => self.end += k,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Consume `n` buffered bytes.
    fn advance(&mut self, n: usize) {
        self.pos += n;
        self.left -= n as u64;
    }

    /// Read `N` raw bytes.
    #[inline]
    pub fn array<const N: usize>(
        &mut self,
        what: &'static str,
    ) -> Result<[u8; N], PersistError> {
        const { assert!(N <= BUFFER) };
        if N as u64 > self.left {
            return Err(PersistError::Corrupt(what));
        }
        self.fill(N, what)?;
        let mut out = [0u8; N];
        out.copy_from_slice(&self.buf[self.pos..self.pos + N]);
        self.advance(N);
        Ok(out)
    }

    /// Read a `u8`.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, PersistError> {
        Ok(self.array::<1>(what)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16_le(&mut self, what: &'static str) -> Result<u16, PersistError> {
        Ok(u16::from_le_bytes(self.array(what)?))
    }

    /// Read a little-endian `u32`.
    pub fn u32_le(&mut self, what: &'static str) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    /// Read a little-endian `u64`.
    pub fn u64_le(&mut self, what: &'static str) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    /// Read a little-endian `f64`.
    pub fn f64_le(&mut self, what: &'static str) -> Result<f64, PersistError> {
        Ok(f64::from_le_bytes(self.array(what)?))
    }

    /// Consume `count` records of `size` bytes each (`size` at most
    /// 64 KiB), handing `block` runs of whole records straight from the
    /// buffer. `count` is checked against the bytes left before anything
    /// is read, so a caller may size an allocation from it afterwards.
    pub fn records(
        &mut self,
        count: u64,
        size: usize,
        what: &'static str,
        mut block: impl FnMut(&[u8]) -> Result<(), PersistError>,
    ) -> Result<(), PersistError> {
        assert!(size > 0 && size <= BUFFER, "record size {size} outside 1..=64 KiB");
        if count.checked_mul(size as u64).is_none_or(|bytes| bytes > self.left) {
            return Err(PersistError::Corrupt(what));
        }
        let mut todo = count;
        while todo > 0 {
            self.fill(size, what)?;
            let k = todo.min(((self.end - self.pos) / size) as u64) as usize;
            block(&self.buf[self.pos..self.pos + k * size])?;
            self.advance(k * size);
            todo -= k as u64;
        }
        Ok(())
    }

    /// Append `count` little-endian `u32`s to `out`, decoded in bulk
    /// from the buffer. `count` is checked against the bytes left first.
    pub fn u32s(
        &mut self,
        count: u64,
        what: &'static str,
        out: &mut Vec<u32>,
    ) -> Result<(), PersistError> {
        self.records(count, 4, what, |run| {
            out.extend(run.chunks_exact(4).map(le_u32));
            Ok(())
        })
    }

    /// Append `count` little-endian `u64`s to `out`, as [`ImageReader::u32s`]
    /// does `u32`s.
    pub fn u64s(
        &mut self,
        count: u64,
        what: &'static str,
        out: &mut Vec<u64>,
    ) -> Result<(), PersistError> {
        self.records(count, 8, what, |run| {
            out.extend(run.chunks_exact(8).map(le_u64));
            Ok(())
        })
    }

    /// Read a `u32`-length-prefixed UTF-8 string. The length is checked
    /// against the bytes left before the buffer is allocated.
    pub fn string(&mut self) -> Result<String, PersistError> {
        let what = "truncated string body";
        let len = self.u32_le("truncated string length")? as u64;
        if len > self.left {
            return Err(PersistError::Corrupt(what));
        }
        let mut bytes = Vec::with_capacity(len as usize);
        self.records(len, 1, what, |run| {
            bytes.extend_from_slice(run);
            Ok(())
        })?;
        String::from_utf8(bytes).map_err(|_| PersistError::Corrupt("invalid utf-8"))
    }

    /// Hash the rest of the input, to its end, and return the hash.
    fn drain(&mut self) -> Result<u64, PersistError> {
        self.left = self.left.saturating_sub((self.end - self.pos) as u64);
        self.pos = self.end;
        self.hash_consumed();
        loop {
            match self.inner.read(&mut self.buf) {
                Ok(0) => break,
                Ok(k) => {
                    self.hash.update(&self.buf[..k]);
                    self.left = self.left.saturating_sub(k as u64);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        (self.pos, self.end, self.mark) = (0, 0, 0);
        Ok(self.hash.finish())
    }

    /// Run `parse` over the rest of the input, then settle the verdict
    /// against `stored`, the fingerprint of everything from here to the
    /// end: drain what `parse` left, and on a mismatch report `mismatch`
    /// whatever `parse` returned.
    pub fn verified<T>(
        &mut self,
        stored: u64,
        mismatch: &'static str,
        parse: impl FnOnce(&mut Self) -> Result<T, PersistError>,
    ) -> Result<T, PersistError> {
        self.start_hash();
        let parsed = parse(self);
        if self.drain()? != stored {
            return Err(PersistError::Corrupt(mismatch));
        }
        parsed
    }
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// A forward-only writer of one binary image, the mirror of
/// [`ImageReader`]. [`ImageWriter::start`] writes the image's magic and
/// a placeholder where the fingerprint goes; fields then collect in a
/// 64 KiB buffer, and each full buffer is fed to XXH64 and written
/// once. [`ImageWriter::finish`] writes the rest, seeks back to
/// fill in the fingerprint, and returns the sink positioned after the
/// image, ready for whatever follows it.
pub struct ImageWriter<W: Write + Seek> {
    inner: W,
    buf: Vec<u8>,
    hash: Xxh64,
    /// Where the fingerprint field sits in `inner`.
    fingerprint_at: u64,
}

impl<W: Write + Seek> ImageWriter<W> {
    /// Begin an image at `inner`'s current position.
    pub fn start(mut inner: W, magic: &[u8; 8]) -> Result<Self, PersistError> {
        let fingerprint_at = inner.stream_position()? + 8;
        inner.write_all(magic)?;
        inner.write_all(&[0; 8])?;
        Ok(ImageWriter {
            inner,
            buf: Vec::with_capacity(BUFFER),
            hash: Xxh64::new(),
            fingerprint_at,
        })
    }

    /// Write raw bytes.
    #[inline]
    pub fn put_slice(&mut self, mut bytes: &[u8]) -> Result<(), PersistError> {
        while BUFFER - self.buf.len() < bytes.len() {
            let (now, later) = bytes.split_at(BUFFER - self.buf.len());
            self.buf.extend_from_slice(now);
            self.write_buffer()?;
            bytes = later;
        }
        self.buf.extend_from_slice(bytes);
        Ok(())
    }

    /// Hash and write the buffered bytes.
    fn write_buffer(&mut self) -> Result<(), PersistError> {
        self.hash.update(&self.buf);
        self.inner.write_all(&self.buf)?;
        self.buf.clear();
        Ok(())
    }

    /// Write a `u8`.
    pub fn put_u8(&mut self, v: u8) -> Result<(), PersistError> {
        self.put_slice(&[v])
    }

    /// Write a little-endian `u16`.
    pub fn put_u16_le(&mut self, v: u16) -> Result<(), PersistError> {
        self.put_slice(&v.to_le_bytes())
    }

    /// Write a little-endian `u32`.
    pub fn put_u32_le(&mut self, v: u32) -> Result<(), PersistError> {
        self.put_slice(&v.to_le_bytes())
    }

    /// Write a little-endian `u64`.
    pub fn put_u64_le(&mut self, v: u64) -> Result<(), PersistError> {
        self.put_slice(&v.to_le_bytes())
    }

    /// Write `values` as little-endian `u32`s, a buffer at a time.
    pub fn put_u32s(&mut self, values: &[u32]) -> Result<(), PersistError> {
        self.put_all(values, u32::to_le_bytes)
    }

    /// Write `values` as little-endian `u64`s, a buffer at a time.
    pub fn put_u64s(&mut self, values: &[u64]) -> Result<(), PersistError> {
        self.put_all(values, u64::to_le_bytes)
    }

    /// Encode `values` straight into the buffer, writing it each time it
    /// fills; a value that would straddle the buffer's end goes through
    /// [`ImageWriter::put_slice`].
    fn put_all<T: Copy, const N: usize>(
        &mut self,
        mut values: &[T],
        le: impl Fn(T) -> [u8; N],
    ) -> Result<(), PersistError> {
        while let Some(&first) = values.first() {
            let room = (BUFFER - self.buf.len()) / N;
            if room == 0 {
                self.put_slice(&le(first))?;
                values = &values[1..];
                continue;
            }
            let (now, later) = values.split_at(room.min(values.len()));
            let start = self.buf.len();
            self.buf.resize(start + N * now.len(), 0);
            for (out, &v) in self.buf[start..].chunks_exact_mut(N).zip(now) {
                out.copy_from_slice(&le(v));
            }
            if self.buf.len() == BUFFER {
                self.write_buffer()?;
            }
            values = later;
        }
        Ok(())
    }

    /// Write a little-endian `f32`.
    pub fn put_f32_le(&mut self, v: f32) -> Result<(), PersistError> {
        self.put_slice(&v.to_le_bytes())
    }

    /// Write a little-endian `f64`.
    pub fn put_f64_le(&mut self, v: f64) -> Result<(), PersistError> {
        self.put_slice(&v.to_le_bytes())
    }

    /// Write a `u32`-length-prefixed UTF-8 string, as
    /// [`ImageReader::string`] reads it. A string too long for its
    /// length field is refused as `InvalidInput`.
    pub fn string(&mut self, s: &str) -> Result<(), PersistError> {
        let len = u32::try_from(s.len()).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidInput, "string longer than 4 GiB")
        })?;
        self.put_u32_le(len)?;
        self.put_slice(s.as_bytes())
    }

    /// Write the buffered rest, fill in the fingerprint, and return the
    /// sink positioned at the end of the image.
    pub fn finish(mut self) -> Result<W, PersistError> {
        self.write_buffer()?;
        let end = self.inner.stream_position()?;
        self.inner.seek(SeekFrom::Start(self.fingerprint_at))?;
        self.inner.write_all(&self.hash.finish().to_le_bytes())?;
        self.inner.seek(SeekFrom::Start(end))?;
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// Write `bundle`'s image to `w` at its current position; returns `w`
/// positioned after it.
pub fn write_to<W: Write + Seek>(bundle: &DatasetBundle, w: W) -> Result<W, PersistError> {
    let tag = &bundle.tag;
    let mut out = ImageWriter::start(w, MAGIC)?;
    out.string(tag.name())?;
    out.put_f64_le(bundle.scale)?;

    let lex = &bundle.lexicon;
    out.put_u64_le(lex.seed())?;
    out.put_u16_le(lex.num_classes())?;
    out.put_u32_le(lex.class_size())?;
    out.put_u32_le(lex.shared_size())?;
    out.put_u32_le(lex.marker_size())?;

    out.put_u16_le(tag.num_classes() as u16)?;
    for name in tag.class_names() {
        out.string(name)?;
    }

    let graph = tag.graph();
    out.put_u32_le(tag.num_nodes() as u32)?;
    out.put_u64_le(graph.adjacency_len() as u64)?;
    out.put_u64s(graph.offsets())?;
    out.put_u32s(graph.targets())?;

    for v in tag.node_ids() {
        out.put_u16_le(tag.label(v).0)?;
        out.put_f32_le(bundle.alphas[v.index()])?;
        out.put_u8(u8::from(bundle.adversarial[v.index()]))?;
        let t = tag.text(v);
        out.string(&t.title)?;
        out.string(&t.body)?;
    }
    out.finish()
}

/// Decode one dataset image from `r`, which must end where the image
/// does (the fingerprint covers everything to the end of the input).
pub fn decode<R: Read>(
    r: &mut ImageReader<R>,
    spec: DatasetSpec,
) -> Result<DatasetBundle, PersistError> {
    r.magic(MAGIC, FOREIGN)?;
    let stored = r.u64_le("truncated fingerprint")?;
    r.verified(stored, "fingerprint mismatch (truncated or corrupt file)", |r| {
        decode_payload(r, spec)
    })
}

/// The payload after the fingerprint.
fn decode_payload<R: Read>(
    r: &mut ImageReader<R>,
    spec: DatasetSpec,
) -> Result<DatasetBundle, PersistError> {
    use PersistError::Corrupt;
    let name = r.string()?;
    let header = "truncated header";
    let scale = r.f64_le(header)?;
    let lex_seed = r.u64_le(header)?;
    let lex_classes = r.u16_le(header)?;
    let lex_per_class = r.u32_le(header)?;
    let lex_shared = r.u32_le(header)?;
    let lex_markers = r.u32_le(header)?;
    let lexicon = Arc::new(Lexicon::with_markers(
        lex_seed,
        lex_classes,
        lex_per_class,
        lex_shared,
        lex_markers,
    ));

    let k = r.u16_le("truncated class count")? as u64;
    if k * 4 > r.remaining() {
        return Err(Corrupt("truncated string length"));
    }
    let mut class_names = Vec::with_capacity(k as usize);
    for _ in 0..k {
        class_names.push(r.string()?);
    }

    let n = r.u32_le("truncated graph header")? as u64;
    let graph = csr_section(r, n)?;
    let n = n as usize;

    let mut labels = Vec::with_capacity(n);
    let mut alphas = Vec::with_capacity(n);
    let mut adversarial = Vec::with_capacity(n);
    let mut texts = Vec::with_capacity(n);
    let record = "truncated node record";
    for _ in 0..n {
        let [l0, l1, a0, a1, a2, a3, adv] = r.array(record)?;
        labels.push(ClassId(u16::from_le_bytes([l0, l1])));
        alphas.push(f32::from_le_bytes([a0, a1, a2, a3]));
        adversarial.push(adv != 0);
        let title = r.string()?;
        let body = r.string()?;
        texts.push(NodeText::new(title, body));
    }

    let tag = Tag::new(name, graph, texts, labels, class_names)
        .map_err(|_| Corrupt("inconsistent arrays"))?;
    Ok(DatasetBundle { tag, lexicon, alphas, adversarial, spec, scale })
}

/// The graph section: `entries u64 | offsets u64×(n+1) |
/// targets u32×entries`, the CSR as it is held in memory. Both arrays
/// are read in bulk and handed to [`Csr::try_from_parts`], which refuses
/// anything a CSR must not hold before one exists.
fn csr_section<R: Read>(r: &mut ImageReader<R>, n: u64) -> Result<Csr, PersistError> {
    use PersistError::Corrupt;
    let entries = r.u64_le("truncated graph header")?;
    // Size nothing the rest of the image cannot back: both arrays, then
    // at least `MIN_NODE_RECORD` per node.
    if n + 1 > r.remaining() / 8 {
        return Err(Corrupt("truncated offsets"));
    }
    let left = r.remaining() - 8 * (n + 1);
    if entries > left / 4 {
        return Err(Corrupt("truncated targets"));
    }
    if n > (left - 4 * entries) / MIN_NODE_RECORD {
        return Err(Corrupt("truncated node record"));
    }
    let mut offsets = Vec::with_capacity(n as usize + 1);
    r.u64s(n + 1, "truncated offsets", &mut offsets)?;
    let mut targets = Vec::with_capacity(entries as usize);
    r.u32s(entries, "truncated targets", &mut targets)?;
    Csr::try_from_parts(offsets, targets).map_err(|e| {
        Corrupt(match e {
            GraphError::BadOffsets { detail } => detail,
            GraphError::UnsortedRun { .. } => "unsorted neighbor run",
            GraphError::DuplicateNeighbor { .. } => "duplicate neighbor",
            GraphError::NodeOutOfRange { .. } => "neighbor out of range",
            GraphError::AsymmetricAdjacency => "asymmetric adjacency",
            _ => "invalid adjacency",
        })
    })
}

/// Replace the file at `path` with what `write` writes, never leaving it
/// torn: `write` fills a sibling temporary file, which is synced to disk
/// and then renamed over `path`, and the directory is synced after it.
/// If any step fails, the temporary file is removed and `path` keeps
/// what it held. Every image kind saves through this.
pub fn write_atomically(
    path: &Path,
    write: impl FnOnce(File) -> Result<File, PersistError>,
) -> Result<(), PersistError> {
    static SAVES: AtomicU64 = AtomicU64::new(0);
    let name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path names no file"))?;
    let mut temp = OsString::from(".");
    temp.push(name);
    temp.push(format!(".{}-{}.tmp", std::process::id(), SAVES.fetch_add(1, Ordering::Relaxed)));
    let temp = path.with_file_name(temp);
    let file = File::create_new(&temp)?;
    let saved = write(file).and_then(|file| {
        file.sync_all()?;
        drop(file);
        std::fs::rename(&temp, path)?;
        // The rename is durable once the directory that records it is.
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        Ok(File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?)
    });
    if saved.is_err() {
        std::fs::remove_file(&temp).ok();
    }
    saved
}

/// Save a bundle to a file, streamed and atomically: see the module
/// docs and [`write_atomically`].
pub fn save(bundle: &DatasetBundle, path: impl AsRef<Path>) -> Result<(), PersistError> {
    write_atomically(path.as_ref(), |file| write_to(bundle, file))
}

/// Load a bundle from a file, attaching `spec`. Streams: see the module
/// docs. `path` must be a regular file (see [`ImageReader::open`]).
pub fn load(path: impl AsRef<Path>, spec: DatasetSpec) -> Result<DatasetBundle, PersistError> {
    decode(&mut ImageReader::open(path)?, spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::DatasetId;
    use crate::{dataset, generate};
    use mqo_graph::{GraphBuilder, NodeId};

    /// `bundle`'s image, written to memory.
    fn image(bundle: &DatasetBundle) -> Vec<u8> {
        write_to(bundle, io::Cursor::new(Vec::new())).unwrap().into_inner()
    }

    fn from_slice(bytes: &[u8], spec: DatasetSpec) -> Result<DatasetBundle, PersistError> {
        decode(&mut ImageReader::from_slice(bytes), spec)
    }

    fn roundtrip(bundle: &DatasetBundle) -> DatasetBundle {
        from_slice(&image(bundle), bundle.spec.clone()).expect("roundtrip")
    }

    #[test]
    fn bytes_roundtrip_preserves_everything() {
        let original = dataset(DatasetId::Cora, Some(0.2), 61);
        let back = roundtrip(&original);
        assert_eq!(back.tag.name(), original.tag.name());
        assert_eq!(back.tag.num_nodes(), original.tag.num_nodes());
        assert_eq!(back.tag.num_edges(), original.tag.num_edges());
        assert_eq!(back.tag.class_names(), original.tag.class_names());
        assert_eq!(back.alphas, original.alphas);
        assert_eq!(back.adversarial, original.adversarial);
        assert_eq!(back.scale, original.scale);
        for v in original.tag.node_ids().take(50) {
            assert_eq!(back.tag.text(v), original.tag.text(v));
            assert_eq!(back.tag.label(v), original.tag.label(v));
            assert_eq!(back.tag.graph().neighbors(v), original.tag.graph().neighbors(v));
        }
        // The reconstructed lexicon decodes the reconstructed texts.
        let text = back.tag.text(NodeId(0)).full();
        let decodable =
            text.split_whitespace().filter(|w| back.lexicon.kind_of_word(w).is_some()).count();
        assert!(decodable > 10, "lexicon reconstruction broken");
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("mqo-persist-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cora.mqotag");
        let original = dataset(DatasetId::Cora, Some(0.15), 62);
        save(&original, &path).unwrap();
        let back = load(&path, original.spec.clone()).unwrap();
        assert_eq!(back.tag.num_nodes(), original.tag.num_nodes());
        assert_eq!(back.alphas, original.alphas);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_inputs_are_rejected_not_panicked() {
        let spec = DatasetId::Cora.spec();
        assert!(from_slice(b"", spec.clone()).is_err());
        assert!(from_slice(b"NOTMAGIC", spec.clone()).is_err());
        // Valid magic, truncated afterwards.
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(b"co"); // promised 3 bytes, gave 2
        assert!(matches!(from_slice(&buf, spec), Err(PersistError::Corrupt(_))));
    }

    /// Bugfix regression: the header used to carry no fingerprint, so a
    /// truncated or bit-flipped file deserialized as far as its damage
    /// allowed — or worse, all the way, yielding a silently wrong
    /// dataset. Both must now fail loudly at load.
    #[test]
    fn truncated_and_corrupted_images_fail_the_fingerprint() {
        let original = dataset(DatasetId::Cora, Some(0.1), 64);
        let bytes = image(&original);

        // Truncation: drop the tail (the old format often survived this
        // when the cut landed between node records).
        match from_slice(&bytes[..bytes.len() - 16], original.spec.clone()) {
            Err(PersistError::Corrupt(what)) => {
                assert!(what.contains("fingerprint"), "got: {what}")
            }
            other => panic!("truncated image must fail the fingerprint, got {other:?}"),
        }

        // Single flipped bit deep in the payload: previously undetected
        // (it would alter one text or label in place).
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        match from_slice(&flipped, original.spec.clone()) {
            Err(PersistError::Corrupt(what)) => {
                assert!(what.contains("fingerprint"), "got: {what}")
            }
            other => panic!("corrupt image must fail the fingerprint, got {other:?}"),
        }

        // Fingerprint of the intact image still verifies.
        assert!(from_slice(&bytes, original.spec.clone()).is_ok());
    }

    /// A reader that hands out at most three bytes per `read`, so every
    /// field and record straddles a refill somewhere.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let k = buf.len().min(self.0.len()).min(3);
            buf[..k].copy_from_slice(&self.0[..k]);
            self.0 = &self.0[k..];
            Ok(k)
        }
    }

    /// A bundle whose sections cross the 64 KiB buffer at odd offsets:
    /// 20,001 edges (160 KB) and a 200 KB body between short texts.
    fn straddling_bundle() -> DatasetBundle {
        let n = 5_000;
        let mut builder = GraphBuilder::new(n);
        for i in 0..20_001u32 {
            builder.add_edge(i % n as u32, (i * 7 + 1) % n as u32).unwrap();
        }
        let texts = (0..n)
            .map(|i| match i {
                7 => NodeText::new("long", "λ".repeat(100_000)),
                _ => NodeText::new(format!("t{i}"), "b".repeat(i % 5)),
            })
            .collect();
        let labels = (0..n).map(|i| ClassId((i % 3) as u16)).collect();
        let names = vec!["A".to_string(), "B".into(), "C".into()];
        let tag = Tag::new("cora", builder.build(), texts, labels, names).unwrap();
        DatasetBundle {
            tag,
            lexicon: Arc::new(Lexicon::with_markers(1, 3, 3, 4, 1)),
            alphas: (0..n).map(|i| i as f32 / 7.0).collect(),
            adversarial: (0..n).map(|i| i % 4 == 0).collect(),
            spec: DatasetId::Cora.spec(),
            scale: 0.5,
        }
    }

    #[test]
    fn sections_that_straddle_the_buffer_decode_exactly() {
        let bytes = image(&straddling_bundle());
        let spec = DatasetId::Cora.spec();
        let whole = from_slice(&bytes, spec.clone()).unwrap();
        assert_eq!(image(&whole), bytes);
        let mut r = ImageReader::new(Trickle(&bytes), bytes.len() as u64);
        let trickled = decode(&mut r, spec.clone()).unwrap();
        assert_eq!(image(&trickled), bytes);

        // A flipped bit inside the long body fails the fingerprint when
        // read in either way.
        let mut flipped = bytes;
        let at = flipped.len() - 150_000;
        flipped[at] ^= 0x01;
        let mut r = ImageReader::new(Trickle(&flipped), flipped.len() as u64);
        for verdict in [decode(&mut r, spec.clone()), from_slice(&flipped, spec)] {
            match verdict {
                Err(PersistError::Corrupt(what)) => assert!(what.contains("fingerprint")),
                other => panic!("a flipped body bit must fail the fingerprint, got {other:?}"),
            }
        }
    }

    /// Where `bundle`'s image holds its CSR: the start of the `entries`
    /// field.
    fn csr_at(bundle: &DatasetBundle) -> usize {
        let tag = &bundle.tag;
        let names: usize = tag.class_names().iter().map(|c| 4 + c.len()).sum();
        16 + 4 + tag.name().len() + 8 + 22 + 2 + names + 4
    }

    /// The 4-cycle 0-1-2-3-0 with one-word texts.
    fn cycle4() -> DatasetBundle {
        let mut builder = GraphBuilder::new(4);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            builder.add_edge(u, v).unwrap();
        }
        let texts = (0..4).map(|i| NodeText::new(format!("t{i}"), "b")).collect();
        let labels = vec![ClassId(0); 4];
        let tag = Tag::new("cora", builder.build(), texts, labels, vec!["A".into()]).unwrap();
        DatasetBundle {
            tag,
            lexicon: Arc::new(Lexicon::with_markers(1, 1, 3, 4, 1)),
            alphas: vec![0.5; 4],
            adversarial: vec![false; 4],
            spec: DatasetId::Cora.spec(),
            scale: 1.0,
        }
    }

    /// Every rule a CSR must keep, broken one at a time in an image
    /// whose fingerprint is then remade, so only the CSR checks can
    /// object; each names its own reason.
    #[test]
    fn a_csr_section_that_breaks_a_rule_is_refused_by_name() {
        let bundle = cycle4();
        let offsets_at = csr_at(&bundle) + 8;
        let targets_at = offsets_at + 8 * 5;
        assert_eq!(bundle.tag.graph().targets(), [1, 3, 0, 2, 1, 3, 0, 2]);
        let refusal = |offsets: [u64; 5], targets: [u32; 8]| {
            let mut bytes = image(&bundle);
            for (i, o) in offsets.iter().enumerate() {
                bytes[offsets_at + 8 * i..][..8].copy_from_slice(&o.to_le_bytes());
            }
            for (i, t) in targets.iter().enumerate() {
                bytes[targets_at + 4 * i..][..4].copy_from_slice(&t.to_le_bytes());
            }
            let fingerprint = mqo_obs::xxh64(&bytes[16..]);
            bytes[8..16].copy_from_slice(&fingerprint.to_le_bytes());
            match from_slice(&bytes, bundle.spec.clone()) {
                Ok(_) => "accepted",
                Err(PersistError::Corrupt(what)) => what,
                Err(e) => panic!("expected a corrupt image, got {e}"),
            }
        };
        let offsets = [0, 2, 4, 6, 8];
        let targets = [1, 3, 0, 2, 1, 3, 0, 2];
        assert_eq!(refusal(offsets, targets), "accepted");
        assert_eq!(refusal([1, 2, 4, 6, 8], targets), "first offset is not 0");
        assert_eq!(refusal([0, 4, 2, 6, 8], targets), "offsets are not monotone");
        assert_eq!(
            refusal([0, 2, 4, 6, 7], targets),
            "last offset is not the number of targets"
        );
        assert_eq!(refusal(offsets, [3, 1, 0, 2, 1, 3, 0, 2]), "unsorted neighbor run");
        assert_eq!(refusal(offsets, [1, 1, 0, 2, 1, 3, 0, 2]), "duplicate neighbor");
        assert_eq!(refusal(offsets, [1, 3, 0, 2, 1, 3, 0, 9]), "neighbor out of range");
        // Every node keeps in- and out-degree 2, but 0→1 has no 1→0.
        assert_eq!(refusal(offsets, [1, 2, 2, 3, 0, 3, 0, 1]), "asymmetric adjacency");
    }

    #[test]
    fn a_save_replaces_the_file_and_leaves_no_temporary_behind() {
        let dir = std::env::temp_dir().join(format!("mqo-persist-save-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cycle.mqotag");
        let bundle = cycle4();
        std::fs::write(&path, b"an older file").unwrap();
        save(&bundle, &path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), image(&bundle));

        // A write that fails midway keeps the saved image whole.
        let failed = write_atomically(&path, |mut file| {
            file.write_all(MAGIC)?;
            Err(io::Error::new(io::ErrorKind::StorageFull, "disk full").into())
        });
        assert!(matches!(failed, Err(PersistError::Io(_))));
        assert!(load(&path, bundle.spec.clone()).is_ok());
        let names: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(names, ["cycle.mqotag"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_input_shorter_than_its_length_is_a_truncation() {
        // A file that shrinks after `open` read its length: the reader
        // reports the read it was making, not a bare I/O error.
        let mut r = ImageReader::new(&[1u8, 2][..], 8);
        assert!(matches!(
            r.u64_le("truncated header"),
            Err(PersistError::Corrupt("truncated header"))
        ));
    }

    #[cfg(unix)]
    #[test]
    fn load_refuses_a_file_that_is_not_regular() {
        let spec = DatasetId::Cora.spec();
        match load("/dev/null", spec) {
            Err(PersistError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::InvalidInput),
            other => panic!("a device must be refused up front, got {other:?}"),
        }
    }

    #[test]
    fn generated_and_loaded_bundles_behave_identically() {
        // The loaded bundle must drive the simulator identically: same
        // lexicon, same texts → same decisions.
        use mqo_llm::{LanguageModel, ModelProfile, SimLlm};
        let spec = DatasetId::Citeseer.spec();
        let original = generate(&spec, 0.15, 63);
        let back = roundtrip(&original);
        let prompt = |b: &DatasetBundle| {
            let t = b.tag.text(NodeId(5));
            mqo_llm::NodePromptSpec {
                title: &t.title,
                abstract_text: &t.body,
                neighbors: &[],
                categories: b.tag.class_names(),
                ranked: false,
            }
            .render()
        };
        let llm_a = SimLlm::new(
            original.lexicon.clone(),
            original.tag.class_names().to_vec(),
            ModelProfile::gpt35(),
        );
        let llm_b = SimLlm::new(
            back.lexicon.clone(),
            back.tag.class_names().to_vec(),
            ModelProfile::gpt35(),
        );
        assert_eq!(
            llm_a.complete(&prompt(&original)).unwrap().text,
            llm_b.complete(&prompt(&back)).unwrap().text
        );
    }
}
