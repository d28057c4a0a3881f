//! Event sinks: where emitted [`Event`]s go.
//!
//! Sinks are shared by reference across worker threads, so the trait
//! requires `Send + Sync` and `emit` takes `&self`. The no-op [`NullSink`]
//! is the default everywhere and must cost nothing measurable — it is a
//! unit struct whose `emit` compiles to nothing, so instrumented hot paths
//! only pay for constructing the event *after* checking nothing cheaper
//! would do; event construction itself is a handful of scalar copies.

use crate::event::Event;
use std::collections::VecDeque;
use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A destination for structured events.
pub trait EventSink: Send + Sync {
    /// Accept one event. Must be cheap and non-blocking in spirit; heavy
    /// sinks buffer internally.
    fn emit(&self, event: &Event);

    /// Flush any buffered events to their final destination.
    fn flush(&self) {}

    /// Whether anyone is actually looking at these events. Hot paths use
    /// this to skip *optional extra work* (e.g. the executor's
    /// hypothetical full-prompt render for cost attribution) — never to
    /// skip emitting the events themselves. Purely-structural sinks
    /// (the no-op sink, the cache invalidator) return `false`.
    fn observing(&self) -> bool {
        true
    }
}

/// The default sink: drops everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {
    #[inline]
    fn emit(&self, _event: &Event) {}

    fn observing(&self) -> bool {
        false
    }
}

/// The canonical shared no-op sink, usable as a `&'static dyn EventSink`
/// default without allocating.
pub static NULL_SINK: NullSink = NullSink;

/// An in-memory sink for tests and per-request span trees.
///
/// The buffer is a bounded ring: once `capacity` events are held, each new
/// event evicts the oldest and bumps [`Recorder::dropped`], so a runaway
/// emitter cannot grow memory without limit. Views over a saturated
/// recorder are therefore *suffix* views — callers that care check
/// `dropped() == 0`. Run totals come from [`crate::MetricsSink`], which
/// keeps no events at all.
#[derive(Debug)]
pub struct Recorder {
    events: Mutex<VecDeque<Event>>,
    capacity: usize,
    dropped: AtomicU64,
}

/// Default [`Recorder`] bound: ample for any bench in this repo (a full
/// ogbn-products boosting run emits well under this), small enough that a
/// runaway emitter tops out around a GiB instead of OOMing the host.
pub const RECORDER_DEFAULT_CAPACITY: usize = 1 << 20;

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// Empty recorder with the default capacity
    /// ([`RECORDER_DEFAULT_CAPACITY`]).
    pub fn new() -> Self {
        Recorder::with_capacity(RECORDER_DEFAULT_CAPACITY)
    }

    /// Empty recorder keeping at most `capacity` events (≥ 1).
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 1, "recorder capacity must be at least 1");
        Recorder { events: Mutex::new(VecDeque::new()), capacity, dropped: AtomicU64::new(0) }
    }

    /// Snapshot of everything still buffered, in emission order (order
    /// between threads is their interleaving order).
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("recorder lock").iter().cloned().collect()
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.events.lock().expect("recorder lock").len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted by the ring bound (0 while under capacity).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events of one kind (by `type` tag).
    pub fn of_kind(&self, kind: &str) -> Vec<Event> {
        self.events().into_iter().filter(|e| e.kind() == kind).collect()
    }
}

impl EventSink for Recorder {
    fn emit(&self, event: &Event) {
        let mut events = self.events.lock().expect("recorder lock");
        if events.len() >= self.capacity {
            events.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        events.push_back(event.clone());
    }
}

/// A sink writing one JSON object per line (JSONL).
///
/// Lines are buffered; call [`EventSink::flush`] (the bench harness does,
/// and `Drop` does too) before reading the file back.
pub struct FileSink {
    writer: Mutex<BufWriter<File>>,
}

impl FileSink {
    /// Create (truncate) the trace file at `path`, creating parent
    /// directories as needed — traces conventionally live under
    /// `results/logs/`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let file = File::create(path)?;
        Ok(FileSink { writer: Mutex::new(BufWriter::new(file)) })
    }
}

impl EventSink for FileSink {
    fn emit(&self, event: &Event) {
        let mut w = self.writer.lock().expect("file sink lock");
        // I/O errors on a telemetry path must not kill the experiment;
        // drop the line instead.
        let _ = writeln!(w, "{}", event.to_json());
    }

    fn flush(&self) {
        let _ = self.writer.lock().expect("file sink lock").flush();
    }
}

impl Drop for FileSink {
    fn drop(&mut self) {
        EventSink::flush(self);
    }
}

/// Fan one event stream out to two sinks (chain `Tee`s for more).
pub struct Tee<'a> {
    first: &'a dyn EventSink,
    second: &'a dyn EventSink,
}

impl<'a> Tee<'a> {
    /// Forward every event to both `first` and `second`.
    pub fn new(first: &'a dyn EventSink, second: &'a dyn EventSink) -> Self {
        Tee { first, second }
    }
}

impl EventSink for Tee<'_> {
    fn emit(&self, event: &Event) {
        self.first.emit(event);
        self.second.emit(event);
    }

    fn flush(&self) {
        self.first.flush();
        self.second.flush();
    }

    fn observing(&self) -> bool {
        self.first.observing() || self.second.observing()
    }
}

/// Fan one event stream out to any number of owned sinks.
///
/// Unlike [`Tee`] (two borrowed sinks, zero allocation), `Fanout` owns its
/// children via `Arc`, so it can be assembled incrementally — the CLI
/// builds it before the client stack exists, hands clones to the retry
/// layer and meter, then pushes the cache invalidator in once the client
/// is constructed.
pub struct Fanout {
    /// Replaced whole by [`push`](Self::push), so an emit clones one `Arc`
    /// and runs the children with no lock held.
    sinks: Mutex<Arc<[Arc<dyn EventSink>]>>,
}

impl Default for Fanout {
    fn default() -> Self {
        Fanout { sinks: Mutex::new(Arc::new([])) }
    }
}

impl Fanout {
    /// An empty fanout (drops events until a sink is pushed).
    pub fn new() -> Self {
        Fanout::default()
    }

    /// Add a destination. Events emitted before the push are not replayed.
    pub fn push(&self, sink: Arc<dyn EventSink>) {
        let mut sinks = self.sinks.lock().expect("fanout lock");
        *sinks = sinks.iter().cloned().chain([sink]).collect();
    }

    /// Number of destinations.
    pub fn len(&self) -> usize {
        self.sinks.lock().expect("fanout lock").len()
    }

    /// Whether there are no destinations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the children so emit/flush run outside the list lock
    /// (a child may itself take locks; holding ours across its call
    /// invites ordering deadlocks).
    fn snapshot(&self) -> Arc<[Arc<dyn EventSink>]> {
        self.sinks.lock().expect("fanout lock").clone()
    }
}

impl EventSink for Fanout {
    fn emit(&self, event: &Event) {
        for sink in self.snapshot().iter() {
            sink.emit(event);
        }
    }

    fn flush(&self) {
        for sink in self.snapshot().iter() {
            sink.flush();
        }
    }

    fn observing(&self) -> bool {
        self.snapshot().iter().any(|s| s.observing())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Event {
        Event::RetryAttempt { attempt: 1, max_attempts: 3, error: "boom".into() }
    }

    #[test]
    fn sinks_are_object_safe_and_sync() {
        fn assert_sink<S: EventSink>(_: &S) {}
        assert_sink(&NullSink);
        assert_sink(&Recorder::new());
        let _obj: &dyn EventSink = &NULL_SINK;
        fn assert_sync<T: Sync>(_: &T) {}
        assert_sync(&NULL_SINK);
    }

    #[test]
    fn recorder_keeps_order_and_filters_by_kind() {
        let r = Recorder::new();
        r.emit(&sample());
        r.emit(&Event::RetryExhausted { attempts: 3, error: "boom".into() });
        assert_eq!(r.len(), 2);
        assert_eq!(r.of_kind("retry_exhausted").len(), 1);
        assert_eq!(r.events()[0].kind(), "retry_attempt");
    }

    #[test]
    fn file_sink_writes_parseable_jsonl() {
        let dir = std::env::temp_dir().join("mqo-obs-test");
        let path = dir.join("trace.jsonl");
        let sink = FileSink::create(&path).unwrap();
        sink.emit(&sample());
        sink.emit(&Event::BudgetPressure { budget: 10, prompt_tokens_used: 8, denied_cost: 5 });
        sink.flush();
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert!(line.starts_with("{\"type\":\""), "line not an object: {line}");
            assert!(line.ends_with('}'), "line not closed: {line}");
        }
        assert!(lines[1].contains("\"budget\":10"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tee_duplicates_events() {
        let a = Recorder::new();
        let b = Recorder::new();
        let tee = Tee::new(&a, &b);
        tee.emit(&sample());
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn threads_can_share_one_recorder() {
        let r = Recorder::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        r.emit(&sample());
                    }
                });
            }
        });
        assert_eq!(r.len(), 400);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn recorder_ring_evicts_oldest_and_counts_drops() {
        let r = Recorder::with_capacity(3);
        for attempt in 1..=5u32 {
            r.emit(&Event::RetryAttempt { attempt, max_attempts: 9, error: "x".into() });
        }
        assert_eq!(r.len(), 3, "bounded at capacity");
        assert_eq!(r.dropped(), 2);
        let kept: Vec<u32> = r
            .events()
            .iter()
            .map(|e| match e {
                Event::RetryAttempt { attempt, .. } => *attempt,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(kept, vec![3, 4, 5], "oldest events evicted first");
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_recorder_rejected() {
        let _ = Recorder::with_capacity(0);
    }

    #[test]
    fn observing_reflects_sink_structure() {
        assert!(!NULL_SINK.observing());
        assert!(Recorder::new().observing());
        let r = Recorder::new();
        assert!(Tee::new(&NULL_SINK, &r).observing());
        assert!(!Tee::new(&NULL_SINK, &NULL_SINK).observing());
        let f = Fanout::new();
        assert!(!f.observing(), "empty fanout observes nothing");
        f.push(Arc::new(NullSink));
        assert!(!f.observing());
        f.push(Arc::new(Recorder::new()));
        assert!(f.observing());
    }

    #[test]
    fn fanout_duplicates_to_every_child() {
        let a = Arc::new(Recorder::new());
        let b = Arc::new(Recorder::new());
        let f = Fanout::new();
        f.emit(&sample()); // pre-push events go nowhere
        f.push(a.clone());
        f.emit(&sample());
        f.push(b.clone());
        f.emit(&sample());
        f.flush();
        assert_eq!(f.len(), 2);
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 1, "no replay of earlier events");
    }

    /// A worst-case payload for JSONL framing: quotes, backslashes,
    /// newlines, control characters, and multi-byte unicode.
    fn hostile() -> Event {
        Event::RetryExhausted {
            attempts: 3,
            error: "line1\nline2\t\"quoted\" back\\slash \u{0007} emoji \u{1F980} — done"
                .into(),
        }
    }

    /// Minimal JSON-string validity check for one JSONL line: balanced
    /// quotes with proper escapes and no raw control characters. (The obs
    /// crate is dependency-free, so no serde here; the full-parser check
    /// lives in the workspace `observability` integration test.)
    fn assert_valid_json_line(line: &str) {
        assert!(line.starts_with('{') && line.ends_with('}'), "not an object: {line}");
        let mut in_string = false;
        let mut escaped = false;
        for c in line.chars() {
            assert!((c as u32) >= 0x20, "raw control char {:#x} in line: {line}", c as u32);
            if escaped {
                escaped = false;
            } else if in_string && c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = !in_string;
            }
        }
        assert!(!in_string && !escaped, "unterminated string in line: {line}");
    }

    #[test]
    fn file_sink_escapes_hostile_payloads_to_valid_json_lines() {
        let dir = std::env::temp_dir().join("mqo-obs-test-hostile");
        let path = dir.join("trace.jsonl");
        let sink = FileSink::create(&path).unwrap();
        sink.emit(&hostile());
        sink.emit(&Event::SpanEnter {
            id: 1,
            parent: 0,
            name: "query".into(),
            detail: "detail with \"quotes\"\nnewline and \u{0001} ctrl".into(),
            track: 0,
            at_micros: 0,
        });
        sink.flush();
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "one event per line");
        for line in &lines {
            assert_valid_json_line(line);
        }
        assert!(lines[0].contains("\\n") && lines[0].contains("\\\"quoted\\\""));
        assert!(lines[1].contains("\\u0001"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_file_sink_emits_never_interleave_partial_lines() {
        let dir = std::env::temp_dir().join("mqo-obs-test-concurrent");
        let path = dir.join("trace.jsonl");
        let sink = FileSink::create(&path).unwrap();
        let threads = 8usize;
        let per_thread = 200usize;
        std::thread::scope(|s| {
            for worker in 0..threads {
                let sink = &sink;
                s.spawn(move || {
                    for i in 0..per_thread {
                        // A long, worker-tagged payload: torn writes would
                        // splice one worker's marker into another's line.
                        sink.emit(&Event::RetryExhausted {
                            attempts: worker as u32,
                            error: format!("w{worker}:{i}:") + &"x".repeat(512),
                        });
                    }
                });
            }
        });
        sink.flush();
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), threads * per_thread, "every emit is exactly one line");
        for line in &lines {
            assert_valid_json_line(line);
            let markers = line.matches(":x").count();
            assert_eq!(markers, 1, "interleaved payloads in line: {line}");
        }
        fs::remove_dir_all(&dir).ok();
    }
}
