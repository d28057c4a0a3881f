//! Crash-safe run journaling: an append-only JSONL log of completed
//! queries that lets an interrupted run resume without re-billing a
//! single token.
//!
//! ## Format
//!
//! One JSON object per line, discriminated by `"kind"`:
//!
//! * `header` — written first, exactly once. Carries the run fingerprint
//!   ([`RunHeader`]): dataset, method, seed, query count, boosting flag,
//!   and budget. Resume refuses a journal whose header disagrees with the
//!   run being resumed — replaying records into a different configuration
//!   would silently corrupt results.
//! * `record` — one completed [`QueryRecord`], in completion order.
//!   Written (and flushed) as each query finishes, so at most the
//!   in-flight query is lost on a crash.
//! * `round_sealed` — a durability barrier after each boosting round
//!   (or after a full non-boosted run): the file is fsync'd before the
//!   seal returns, so sealed records survive power loss, not just
//!   process death.
//!
//! ## Crash tolerance
//!
//! A crash mid-write leaves a truncated final line. [`RunJournal::resume`]
//! parses leniently: it stops at the first malformed line and replays
//! everything before it. Resumed queries are served from the journal
//! ([`crate::Executor::replay_journaled`]) with zero LLM requests and
//! zero metered tokens; only genuinely unfinished queries execute.

use crate::executor::QueryRecord;
use mqo_graph::{ClassId, NodeId};
use mqo_obs::wire::escape_json;
use parking_lot::Mutex;
use serde_json::{json, Value};
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// The run fingerprint stored in the journal header. Resume only proceeds
/// when every field matches the resuming run's configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunHeader {
    /// Dataset name (e.g. `"cora"`).
    pub dataset: String,
    /// Prediction method (e.g. `"khop"`, `"sns"`).
    pub method: String,
    /// Executor seed — neighbor sampling must repeat exactly.
    pub seed: u64,
    /// Number of queries in the run.
    pub queries: u64,
    /// Whether query boosting (Algorithm 2) is active.
    pub boost: bool,
    /// Hard input-token budget (Eq. 2), if any.
    pub budget: Option<u64>,
}

impl RunHeader {
    fn to_json(&self) -> Value {
        json!({
            "kind": "header",
            "dataset": self.dataset,
            "method": self.method,
            "seed": self.seed,
            "queries": self.queries,
            "boost": self.boost,
            "budget": self.budget,
        })
    }

    fn from_json(v: &Value) -> Option<RunHeader> {
        if v.get("kind")?.as_str()? != "header" {
            return None;
        }
        Some(RunHeader {
            dataset: v.get("dataset")?.as_str()?.to_string(),
            method: v.get("method")?.as_str()?.to_string(),
            seed: v.get("seed")?.as_u64()?,
            queries: v.get("queries")?.as_u64()?,
            boost: v.get("boost")?.as_bool()?,
            budget: match v.get("budget") {
                None | Some(Value::Null) => None,
                Some(b) => Some(b.as_u64()?),
            },
        })
    }
}

/// One final record as a [`Value`] tree: the object whose compact form
/// [`write_record`] writes for journal lines and `--dump-records` (so
/// resume comparisons diff the exact bytes the journal stores).
pub fn record_to_json(r: &QueryRecord) -> Value {
    record_to_json_traced(r, "")
}

/// [`record_to_json`] plus a `"trace"` key carrying the served request's
/// trace id when `trace` is non-empty. [`record_from_json`] ignores
/// unknown keys, so traced journals replay identically to untraced ones —
/// the trace annotates the line without entering the [`QueryRecord`].
pub fn record_to_json_traced(r: &QueryRecord, trace: &str) -> Value {
    let mut v = json!({
        "kind": "record",
        "node": r.node.0,
        "predicted": r.predicted.0,
        "correct": r.correct,
        "neighbors_included": r.neighbors_included,
        "labeled_neighbors": r.labeled_neighbors,
        "pseudo_neighbors": r.pseudo_neighbors,
        "remote_neighbors": r.remote_neighbors,
        "prompt_tokens": r.prompt_tokens,
        "pruned": r.pruned,
        "parse_failed": r.parse_failed,
        "budget_starved": r.budget_starved,
        "failure": r.failure,
    });
    if !trace.is_empty() {
        if let Value::Object(o) = &mut v {
            o.insert("trace".into(), Value::String(trace.to_string()));
        }
    }
    v
}

/// Append `r` as one compact JSON object: byte for byte what
/// `serde_json::to_string(&record_to_json_traced(r, trace))` writes (keys
/// in sorted order), without building the [`Value`]. The one record
/// writer: journal lines, `mqo classify --dump-records` and every record
/// of a `POST /v1/classify` response go through it.
pub fn write_record(r: &QueryRecord, trace: &str, out: &mut String) {
    let _ = write!(
        out,
        "{{\"budget_starved\":{},\"correct\":{},\"failure\":",
        r.budget_starved, r.correct
    );
    match &r.failure {
        Some(f) => escape_json(out, f),
        None => out.push_str("null"),
    }
    let _ = write!(
        out,
        ",\"kind\":\"record\",\"labeled_neighbors\":{},\"neighbors_included\":{},\
         \"node\":{},\"parse_failed\":{},\"predicted\":{},\"prompt_tokens\":{},\
         \"pruned\":{},\"pseudo_neighbors\":{},\"remote_neighbors\":{}",
        r.labeled_neighbors,
        r.neighbors_included,
        r.node.0,
        r.parse_failed,
        r.predicted.0,
        r.prompt_tokens,
        r.pruned,
        r.pseudo_neighbors,
        r.remote_neighbors,
    );
    if !trace.is_empty() {
        out.push_str(",\"trace\":");
        escape_json(out, trace);
    }
    out.push('}');
}

/// Parse a record line written by [`record_to_json`]; `None` when the
/// value is some other entry kind or is missing fields.
pub fn record_from_json(v: &Value) -> Option<QueryRecord> {
    if v.get("kind")?.as_str()? != "record" {
        return None;
    }
    Some(QueryRecord {
        node: NodeId(u32::try_from(v.get("node")?.as_u64()?).ok()?),
        predicted: ClassId(u16::try_from(v.get("predicted")?.as_u64()?).ok()?),
        correct: v.get("correct")?.as_bool()?,
        neighbors_included: v.get("neighbors_included")?.as_u64()? as usize,
        labeled_neighbors: v.get("labeled_neighbors")?.as_u64()? as usize,
        pseudo_neighbors: v.get("pseudo_neighbors")?.as_u64()? as usize,
        // Absent in journals written before the sharding release; those
        // records predate the exchange, so zero is the true value.
        remote_neighbors: v.get("remote_neighbors").and_then(Value::as_u64).unwrap_or(0)
            as usize,
        prompt_tokens: v.get("prompt_tokens")?.as_u64()?,
        pruned: v.get("pruned")?.as_bool()?,
        parse_failed: v.get("parse_failed")?.as_bool()?,
        budget_starved: v.get("budget_starved")?.as_bool()?,
        failure: match v.get("failure") {
            None | Some(Value::Null) => None,
            Some(f) => Some(f.as_str()?.to_string()),
        },
    })
}

struct Inner {
    file: File,
    /// Completed records awaiting replay, keyed by node. A queue per node
    /// because a node may legitimately complete more than once across
    /// independent sub-runs sharing one journal (e.g. paired arms).
    replay: HashMap<u32, VecDeque<QueryRecord>>,
    replayed: u64,
    recorded: u64,
}

/// An append-only, crash-tolerant journal of completed queries. Safe to
/// share across worker threads (all writes go through one mutex).
pub struct RunJournal {
    path: PathBuf,
    inner: Mutex<Inner>,
}

impl RunJournal {
    /// Start a fresh journal at `path` (truncating any previous file),
    /// write the header line, and fsync it.
    pub fn create(path: impl AsRef<Path>, header: &RunHeader) -> io::Result<RunJournal> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::create(&path)?;
        let mut line = serde_json::to_string(&header.to_json())
            .expect("header serialization is infallible");
        line.push('\n');
        file.write_all(line.as_bytes())?;
        file.sync_data()?;
        Ok(RunJournal {
            path,
            inner: Mutex::new(Inner { file, replay: HashMap::new(), replayed: 0, recorded: 0 }),
        })
    }

    /// Reopen an existing journal for resumption. The header must match
    /// `expected` exactly; completed records are loaded for replay. A
    /// truncated or malformed tail (the signature of a crash mid-write)
    /// is tolerated: the intact prefix replays and the torn tail is
    /// truncated away before appending resumes, so new records never
    /// merge into a half-written line.
    pub fn resume(path: impl AsRef<Path>, expected: &RunHeader) -> io::Result<RunJournal> {
        let path = path.as_ref().to_path_buf();
        let bytes = std::fs::read(&path)?;

        // Walk intact lines, tracking the byte offset of the last one: a
        // line is intact only if it is newline-terminated, valid UTF-8,
        // and parses as a known journal entry.
        let mut intact = 0usize;
        let mut header: Option<RunHeader> = None;
        let mut replay: HashMap<u32, VecDeque<QueryRecord>> = HashMap::new();
        let mut loaded = 0u64;
        while intact < bytes.len() {
            let Some(nl) = bytes[intact..].iter().position(|&b| b == b'\n') else { break };
            let Ok(line) = std::str::from_utf8(&bytes[intact..intact + nl]) else { break };
            let Ok(v) = serde_json::from_str(line) else { break };
            if header.is_none() {
                let Some(h) = RunHeader::from_json(&v) else { break };
                header = Some(h);
            } else {
                match v.get("kind").and_then(Value::as_str) {
                    Some("record") => {
                        let Some(rec) = record_from_json(&v) else { break };
                        replay.entry(rec.node.0).or_default().push_back(rec);
                        loaded += 1;
                    }
                    Some("round_sealed") => {}
                    _ => break,
                }
            }
            intact += nl + 1;
        }

        let header = header.ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "journal has no valid header")
        })?;
        if header != *expected {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "journal belongs to a different run: journal {header:?}, resuming {expected:?}"
                ),
            ));
        }

        let file = OpenOptions::new().append(true).open(&path)?;
        // Drop the torn tail (if any) so appends start on a fresh line.
        file.set_len(intact as u64)?;
        Ok(RunJournal {
            path,
            inner: Mutex::new(Inner { file, replay, replayed: 0, recorded: loaded }),
        })
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Take the next replayable record for `v`, if the journal holds one.
    pub fn replay(&self, v: NodeId) -> Option<QueryRecord> {
        let mut inner = self.inner.lock();
        let rec = inner.replay.get_mut(&v.0)?.pop_front()?;
        inner.replayed += 1;
        Some(rec)
    }

    /// Append a completed record and flush it to the OS. Journal writes
    /// must not fail silently (a missing record re-bills tokens on
    /// resume), so an I/O error here is fatal.
    pub fn record(&self, rec: &QueryRecord) {
        self.record_traced(rec, "");
    }

    /// [`record`](Self::record) with a request trace id annotated on the
    /// journal line (omitted when empty). Replay ignores the extra key, so
    /// traced and untraced journals resume identically.
    pub fn record_traced(&self, rec: &QueryRecord, trace: &str) {
        let mut line = String::with_capacity(320);
        write_record(rec, trace, &mut line);
        line.push('\n');
        let mut inner = self.inner.lock();
        inner.file.write_all(line.as_bytes()).expect("journal append failed");
        inner.file.flush().expect("journal flush failed");
        inner.recorded += 1;
    }

    /// Write a round seal and fsync: everything recorded so far is
    /// durable against power loss, not just process death.
    pub fn seal_round(&self, round: u32) {
        let mut line = serde_json::to_string(&json!({"kind": "round_sealed", "round": round}))
            .expect("seal serialization");
        line.push('\n');
        let mut inner = self.inner.lock();
        inner.file.write_all(line.as_bytes()).expect("journal seal failed");
        inner.file.sync_data().expect("journal fsync failed");
    }

    /// Records replayed so far in this process.
    pub fn replayed(&self) -> u64 {
        self.inner.lock().replayed
    }

    /// Records appended by this process (for `create`) or loaded from the
    /// intact prefix (for `resume`) plus subsequent appends.
    pub fn recorded(&self) -> u64 {
        self.inner.lock().recorded
    }

    /// Completed records still waiting to be replayed.
    pub fn pending_replays(&self) -> usize {
        self.inner.lock().replay.values().map(VecDeque::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> RunHeader {
        RunHeader {
            dataset: "cora".into(),
            method: "khop".into(),
            seed: 7,
            queries: 3,
            boost: true,
            budget: Some(4096),
        }
    }

    fn record(node: u32) -> QueryRecord {
        QueryRecord {
            node: NodeId(node),
            predicted: ClassId(1),
            correct: true,
            neighbors_included: 2,
            labeled_neighbors: 1,
            pseudo_neighbors: 1,
            remote_neighbors: 0,
            prompt_tokens: 120,
            pruned: false,
            parse_failed: false,
            budget_starved: false,
            failure: None,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("mqo-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn records_round_trip_through_resume() {
        let path = tmp("roundtrip.jsonl");
        let j = RunJournal::create(&path, &header()).unwrap();
        let mut failed = record(2);
        failed.failure = Some("llm error: rate limited\nwith a newline".into());
        failed.correct = false;
        j.record(&record(0));
        j.record(&failed);
        j.seal_round(0);
        drop(j);

        let j = RunJournal::resume(&path, &header()).unwrap();
        assert_eq!(j.pending_replays(), 2);
        assert_eq!(j.replay(NodeId(0)), Some(record(0)));
        assert_eq!(j.replay(NodeId(2)), Some(failed));
        assert_eq!(j.replay(NodeId(1)), None, "node 1 never completed");
        assert_eq!(j.replayed(), 2);
    }

    #[test]
    fn traced_records_annotate_the_line_and_replay_identically() {
        let path = tmp("traced.jsonl");
        let j = RunJournal::create(&path, &header()).unwrap();
        j.record_traced(&record(0), "00f1e2d3c4b5a697");
        j.record_traced(&record(1), "");
        drop(j);

        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"trace\":\"00f1e2d3c4b5a697\""), "got: {text}");
        assert_eq!(text.matches("\"trace\"").count(), 1, "empty trace must not emit a key");

        let j = RunJournal::resume(&path, &header()).unwrap();
        assert_eq!(j.replay(NodeId(0)), Some(record(0)), "trace key is replay-inert");
        assert_eq!(j.replay(NodeId(1)), Some(record(1)));
    }

    #[test]
    fn truncated_tail_is_tolerated() {
        let path = tmp("truncated.jsonl");
        let j = RunJournal::create(&path, &header()).unwrap();
        j.record(&record(0));
        j.record(&record(1));
        drop(j);
        // Simulate a crash mid-write: chop the last line in half.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 25]).unwrap();

        let j = RunJournal::resume(&path, &header()).unwrap();
        assert_eq!(j.replay(NodeId(0)), Some(record(0)), "intact prefix replays");
        assert_eq!(j.replay(NodeId(1)), None, "the torn record is dropped");
        // The journal still appends after the torn tail.
        j.record(&record(1));
        drop(j);
        let j = RunJournal::resume(&path, &header()).unwrap();
        assert!(j.replay(NodeId(1)).is_some(), "post-crash appends are readable");
    }

    #[test]
    fn mismatched_header_refuses_to_resume() {
        let path = tmp("mismatch.jsonl");
        RunJournal::create(&path, &header()).unwrap();
        let mut other = header();
        other.seed = 8;
        let err = RunJournal::resume(&path, &other).err().expect("resume must refuse");
        assert!(err.to_string().contains("different run"), "got: {err}");
    }

    #[test]
    fn empty_journal_refuses_to_resume() {
        let path = tmp("empty.jsonl");
        std::fs::write(&path, "").unwrap();
        assert!(RunJournal::resume(&path, &header()).is_err());
    }

    #[test]
    fn budgetless_header_round_trips() {
        let path = tmp("budgetless.jsonl");
        let h = RunHeader { budget: None, ..header() };
        RunJournal::create(&path, &h).unwrap();
        assert!(RunJournal::resume(&path, &h).is_ok());
        assert!(RunJournal::resume(&path, &header()).is_err(), "budget is fingerprinted");
    }
}
