//! Binary persistence for generated datasets.
//!
//! Every bench binary regenerates its datasets from the seed, which is
//! reproducible but wasteful for the OGB-size graphs. This module saves a
//! [`DatasetBundle`]'s *contents* — graph, texts, labels, latents, and the
//! lexicon's construction parameters (the lexicon itself is deterministic,
//! so five integers reconstruct it) — in a length-prefixed little-endian
//! binary format framed with `bytes` (the workspace's one binary-IO
//! dependency; see DESIGN.md).
//!
//! Format (`MQOTAG2\n` magic, then little-endian fields):
//!
//! ```text
//! header   magic[8] | fingerprint u64 | name | scale f64
//! lexicon  seed u64 | classes u16 | per_class u32 | shared u32 | markers u32
//! classes  count u16 | name*
//! graph    nodes u32 | edges u64 | (u32, u32)*        (each edge once)
//! nodes    per node: label u16 | alpha f32 | adversarial u8 | title | body
//! ```
//!
//! Strings are `u32` length + UTF-8 bytes. The spec is *not* persisted
//! (it is code, not data); [`load`] returns the bundle with the spec the
//! caller supplies.
//!
//! The fingerprint is FNV-1a 64 over every byte after the fingerprint
//! field. A truncated copy, a flipped bit, or a file whose tail belongs
//! to a different dataset fails the check at load — loudly, as
//! [`PersistError::Corrupt`] — instead of deserializing garbage that is
//! only caught (or worse, not caught) thousands of records later. This
//! matters most for sharded deployments, where per-shard files are
//! copied between machines.
//!
//! Decoding streams. [`load`] parses straight from a buffered file
//! through an [`ImageReader`], which hashes each byte as it passes, so
//! no whole-file image is ever resident; [`from_bytes`] runs the same
//! decoder over a slice. The CSR is built as soon as the edge section
//! ends, so the `GraphBuilder`'s edge list is freed before the first
//! text is read. After the parse, succeeded or failed, the reader drains the
//! rest of the image and the fingerprint is compared: a mismatch wins
//! over any parse error, so a damaged image reports the same verdict it
//! would if it had been hashed before parsing. Because parsing now runs
//! before that verdict, every count and length is checked against the
//! bytes left in the image before it sizes an allocation; a count the
//! rest of the image cannot back is reported as a truncation.

use crate::generate::DatasetBundle;
use crate::spec::DatasetSpec;
use bytes::{BufMut, Bytes, BytesMut};
use mqo_graph::{ClassId, GraphBuilder, NodeText, Tag};
use mqo_text::Lexicon;
use std::fs::{self, File};
use std::io::{self, BufReader, Read};
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"MQOTAG2\n";

/// Smallest node record: label u16, alpha f32, adversarial u8, and two
/// empty strings (a `u32` length each).
const MIN_NODE_RECORD: u64 = 2 + 4 + 1 + 4 + 4;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a 64-bit over `bytes` — the persistence fingerprint. Not
/// cryptographic; it exists to catch truncation, bit rot, and
/// mismatched shard files, all of which it detects with probability
/// ~1 − 2⁻⁶⁴ per corruption.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    fnv_extend(FNV_OFFSET, bytes)
}

/// Errors from persistence.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a valid dataset image.
    Corrupt(&'static str),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::Corrupt(what) => write!(f, "corrupt dataset file: {what}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// A forward-only cursor over a binary image that feeds every byte it
/// hands out to a running FNV-1a hash (the [`fingerprint`] hash, in the
/// same byte order) and knows how many bytes are left, so a decoder can
/// refuse a count before it sizes an allocation. Every read names the
/// [`PersistError::Corrupt`] message it fails with when the image ends
/// first.
pub struct ImageReader<R> {
    inner: R,
    left: u64,
    hash: u64,
}

impl ImageReader<BufReader<File>> {
    /// Stream the file at `path`; its length bounds every read, so it
    /// must be a regular file whose length stays fixed while it loads. A
    /// pipe or device is refused as `InvalidInput`.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::open(path)?;
        let meta = file.metadata()?;
        if !meta.is_file() {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "not a regular file"));
        }
        Ok(ImageReader::new(BufReader::with_capacity(1 << 16, file), meta.len()))
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
        ImageReader { inner, left: len, hash: FNV_OFFSET }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> u64 {
        self.left
    }

    /// Restart the running hash: it covers the bytes read from here on.
    pub fn start_hash(&mut self) {
        self.hash = FNV_OFFSET;
    }

    /// The FNV-1a hash of the bytes read since [`ImageReader::start_hash`].
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Fill `buf`, failing with `Corrupt(what)` if the image ends first,
    /// including a file that shrank after it was opened.
    fn read_exact(&mut self, buf: &mut [u8], what: &'static str) -> Result<(), PersistError> {
        if (buf.len() as u64) > self.left {
            return Err(PersistError::Corrupt(what));
        }
        self.inner.read_exact(buf).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => PersistError::Corrupt(what),
            _ => e.into(),
        })?;
        self.left -= buf.len() as u64;
        self.hash = fnv_extend(self.hash, buf);
        Ok(())
    }

    /// Read `N` raw bytes.
    pub fn array<const N: usize>(
        &mut self,
        what: &'static str,
    ) -> Result<[u8; N], PersistError> {
        let mut buf = [0u8; N];
        self.read_exact(&mut buf, what)?;
        Ok(buf)
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

    /// Read a little-endian `f32`.
    pub fn f32_le(&mut self, what: &'static str) -> Result<f32, PersistError> {
        Ok(f32::from_le_bytes(self.array(what)?))
    }

    /// Read a little-endian `f64`.
    pub fn f64_le(&mut self, what: &'static str) -> Result<f64, PersistError> {
        Ok(f64::from_le_bytes(self.array(what)?))
    }

    /// Read a `u32`-length-prefixed UTF-8 string. The length is checked
    /// against the bytes left before the buffer is allocated.
    pub fn string(&mut self) -> Result<String, PersistError> {
        let len = self.u32_le("truncated string length")? as u64;
        if len > self.left {
            return Err(PersistError::Corrupt("truncated string body"));
        }
        let mut bytes = vec![0u8; len as usize];
        self.read_exact(&mut bytes, "truncated string body")?;
        String::from_utf8(bytes).map_err(|_| PersistError::Corrupt("invalid utf-8"))
    }

    /// Hash the rest of the input, to its end, and return the hash.
    fn drain(&mut self) -> Result<u64, PersistError> {
        let mut chunk = [0u8; 1 << 13];
        loop {
            match self.inner.read(&mut chunk) {
                Ok(0) => break,
                Ok(k) => {
                    self.hash = fnv_extend(self.hash, &chunk[..k]);
                    self.left = self.left.saturating_sub(k as u64);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(self.hash)
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

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Serialize a bundle to bytes.
pub fn to_bytes(bundle: &DatasetBundle) -> Bytes {
    let tag = &bundle.tag;
    let mut buf = BytesMut::with_capacity(tag.num_nodes() * 256);
    put_str(&mut buf, tag.name());
    buf.put_f64_le(bundle.scale);

    let lex = &bundle.lexicon;
    buf.put_u64_le(lex.seed());
    buf.put_u16_le(lex.num_classes());
    buf.put_u32_le(lex.class_size());
    buf.put_u32_le(lex.shared_size());
    buf.put_u32_le(lex.marker_size());

    buf.put_u16_le(tag.num_classes() as u16);
    for name in tag.class_names() {
        put_str(&mut buf, name);
    }

    buf.put_u32_le(tag.num_nodes() as u32);
    buf.put_u64_le(tag.num_edges());
    for (u, v) in tag.graph().edges() {
        buf.put_u32_le(u.0);
        buf.put_u32_le(v.0);
    }

    for v in tag.node_ids() {
        buf.put_u16_le(tag.label(v).0);
        buf.put_f32_le(bundle.alphas[v.index()]);
        buf.put_u8(u8::from(bundle.adversarial[v.index()]));
        let t = tag.text(v);
        put_str(&mut buf, &t.title);
        put_str(&mut buf, &t.body);
    }
    let payload = buf.freeze();
    let mut framed = BytesMut::with_capacity(MAGIC.len() + 8 + payload.len());
    framed.put_slice(MAGIC);
    framed.put_u64_le(fingerprint(&payload));
    framed.put_slice(&payload);
    framed.freeze()
}

/// Deserialize a bundle; the caller supplies the spec (code, not data).
pub fn from_bytes(buf: Bytes, spec: DatasetSpec) -> Result<DatasetBundle, PersistError> {
    decode(&mut ImageReader::from_slice(&buf), spec)
}

/// Decode one dataset image from `r`, which must end where the image
/// does (the fingerprint covers everything to the end of the input).
pub fn decode<R: Read>(
    r: &mut ImageReader<R>,
    spec: DatasetSpec,
) -> Result<DatasetBundle, PersistError> {
    if &r.array::<8>("bad magic")? != MAGIC {
        return Err(PersistError::Corrupt("bad magic"));
    }
    let stored = r.u64_le("truncated fingerprint")?;
    r.verified(stored, "fingerprint mismatch (truncated or corrupt file)", |r| {
        decode_payload(r, spec)
    })
}

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
    let m = r.u64_le("truncated graph header")?;
    // Size nothing the rest of the image cannot back: 8 bytes per edge,
    // then at least `MIN_NODE_RECORD` per node.
    if m > r.remaining() / 8 {
        return Err(Corrupt("truncated edge list"));
    }
    if n > (r.remaining() - 8 * m) / MIN_NODE_RECORD {
        return Err(Corrupt("truncated node record"));
    }
    let n = n as usize;
    let mut builder = GraphBuilder::with_capacity(n, m as usize);
    for _ in 0..m {
        let u = r.u32_le("truncated edge list")?;
        let v = r.u32_le("truncated edge list")?;
        builder.add_edge(u, v).map_err(|_| Corrupt("edge out of range"))?;
    }
    // Build the CSR now, so the edge list is gone before the texts.
    let graph = builder.build();

    let mut labels = Vec::with_capacity(n);
    let mut alphas = Vec::with_capacity(n);
    let mut adversarial = Vec::with_capacity(n);
    let mut texts = Vec::with_capacity(n);
    let record = "truncated node record";
    for _ in 0..n {
        labels.push(ClassId(r.u16_le(record)?));
        alphas.push(r.f32_le(record)?);
        adversarial.push(r.u8(record)? != 0);
        let title = r.string()?;
        let body = r.string()?;
        texts.push(NodeText::new(title, body));
    }

    let tag = Tag::new(name, graph, texts, labels, class_names)
        .map_err(|_| Corrupt("inconsistent arrays"))?;
    Ok(DatasetBundle { tag, lexicon, alphas, adversarial, spec, scale })
}

/// Save a bundle to a file.
pub fn save(bundle: &DatasetBundle, path: impl AsRef<Path>) -> Result<(), PersistError> {
    Ok(fs::write(path, to_bytes(bundle))?)
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
    use mqo_graph::NodeId;

    fn roundtrip(bundle: &DatasetBundle) -> DatasetBundle {
        from_bytes(to_bytes(bundle), bundle.spec.clone()).expect("roundtrip")
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
        assert!(from_bytes(Bytes::from_static(b""), spec.clone()).is_err());
        assert!(from_bytes(Bytes::from_static(b"NOTMAGIC"), spec.clone()).is_err());
        // Valid magic, truncated afterwards.
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(3);
        buf.put_slice(b"co"); // promised 3 bytes, gave 2
        assert!(matches!(from_bytes(buf.freeze(), spec), Err(PersistError::Corrupt(_))));
    }

    /// Bugfix regression: the header used to carry no fingerprint, so a
    /// truncated or bit-flipped file deserialized as far as its damage
    /// allowed — or worse, all the way, yielding a silently wrong
    /// dataset. Both must now fail loudly at load.
    #[test]
    fn truncated_and_corrupted_images_fail_the_fingerprint() {
        let original = dataset(DatasetId::Cora, Some(0.1), 64);
        let bytes = to_bytes(&original);

        // Truncation: drop the tail (the old format often survived this
        // when the cut landed between node records).
        let cut = Bytes::from(bytes[..bytes.len() - 16].to_vec());
        match from_bytes(cut, original.spec.clone()) {
            Err(PersistError::Corrupt(what)) => {
                assert!(what.contains("fingerprint"), "got: {what}")
            }
            other => panic!("truncated image must fail the fingerprint, got {other:?}"),
        }

        // Single flipped bit deep in the payload: previously undetected
        // (it would alter one text or label in place).
        let mut flipped = bytes.to_vec();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        match from_bytes(Bytes::from(flipped), original.spec.clone()) {
            Err(PersistError::Corrupt(what)) => {
                assert!(what.contains("fingerprint"), "got: {what}")
            }
            other => panic!("corrupt image must fail the fingerprint, got {other:?}"),
        }

        // Fingerprint of the intact image still verifies.
        assert!(from_bytes(bytes, original.spec.clone()).is_ok());
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
