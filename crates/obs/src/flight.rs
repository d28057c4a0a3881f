//! Tail-sampled flight recorder: full span trees for the requests worth
//! debugging.
//!
//! A serving process answers thousands of requests per second; keeping
//! every request's span tree would be the `--trace` firehose all over
//! again. The flight recorder keeps only the tail that matters:
//!
//! - the **N slowest** successful requests seen so far (a fast request
//!   costs one reservation and is evicted the moment anything slower
//!   arrives), and
//! - **all recent errors** (HTTP 4xx/5xx — admission rejections, parse
//!   failures, drain refusals), oldest evicted beyond a separate bound.
//!
//! Each retained [`FlightEntry`] carries the request's trace id, tenant,
//! route, status, latency, and the reconstructed span tree
//! ([`FlightSpan`]s built from the request's `SpanEnter`/`SpanExit`
//! events via [`spans_from_events`]), so `GET /v1/debug/flight` answers
//! "where did the time go?" for exactly the requests a dashboard p99
//! points at. The recorder itself never reads a clock — callers stamp
//! entries under their own [`crate::Clock`], which keeps eviction order
//! fully deterministic under test.

use crate::event::{escape_json, Event};
use std::collections::VecDeque;
use std::sync::Mutex;

/// One reconstructed span of a retained request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightSpan {
    /// Span id (unique within the request's tree).
    pub id: u64,
    /// Parent span id (0 = the request span itself has no retained
    /// parent; the serving run span is outside the entry).
    pub parent: u64,
    /// Span kind (`request`, `query`, `llm_call`, …).
    pub name: String,
    /// Free-form detail stamped at enter.
    pub detail: String,
    /// Monotonic enter time in microseconds.
    pub start_micros: u64,
    /// Monotonic exit time in microseconds (0 = never closed — the
    /// request aborted inside the span).
    pub end_micros: u64,
}

/// One retained request: identity, outcome, and its span tree.
#[derive(Debug, Clone)]
pub struct FlightEntry {
    /// Request trace id (16 lowercase hex digits).
    pub trace: String,
    /// Tenant the request ran as (`-` when no tenant applies).
    pub tenant: String,
    /// Route served (e.g. `/v1/classify`).
    pub route: String,
    /// HTTP status returned.
    pub status: u16,
    /// Accept-to-flush latency in microseconds.
    pub latency_micros: u64,
    /// Monotonic time the request was accepted, in microseconds.
    pub started_micros: u64,
    /// One-line request summary (e.g. `"classify 3 nodes"`).
    pub request_summary: String,
    /// One-line response summary (e.g. `"200, 3 records"`).
    pub response_summary: String,
    /// The request's span tree, in enter order.
    pub spans: Vec<FlightSpan>,
}

/// Pair `SpanEnter`/`SpanExit` events into [`FlightSpan`]s, in enter
/// order. Non-span events are ignored; a span with no matching exit
/// keeps `end_micros == 0`.
pub fn spans_from_events(events: &[Event]) -> Vec<FlightSpan> {
    let mut spans: Vec<FlightSpan> = Vec::new();
    for e in events {
        match e {
            Event::SpanEnter { id, parent, name, detail, at_micros, .. } => {
                spans.push(FlightSpan {
                    id: *id,
                    parent: *parent,
                    name: name.clone(),
                    detail: detail.clone(),
                    start_micros: *at_micros,
                    end_micros: 0,
                });
            }
            Event::SpanExit { id, at_micros } => {
                if let Some(s) = spans.iter_mut().rev().find(|s| s.id == *id) {
                    s.end_micros = *at_micros;
                }
            }
            _ => {}
        }
    }
    spans
}

struct Rings {
    slow: Vec<FlightEntry>,
    errors: VecDeque<FlightEntry>,
}

/// The bounded two-ring recorder. See the module docs for the policy.
pub struct FlightRecorder {
    slow_cap: usize,
    error_cap: usize,
    rings: Mutex<Rings>,
}

impl FlightRecorder {
    /// A recorder retaining at most `slow_cap` slowest-successful and
    /// `error_cap` most-recent-error entries (either may be 0 to disable
    /// that ring).
    pub fn new(slow_cap: usize, error_cap: usize) -> Self {
        FlightRecorder {
            slow_cap,
            error_cap,
            rings: Mutex::new(Rings { slow: Vec::new(), errors: VecDeque::new() }),
        }
    }

    /// Whether [`offer`](Self::offer) would retain a finished request
    /// with this `status` and latency right now, so a caller can skip
    /// building an entry the recorder would drop. `offer` decides again
    /// under its lock, so a racing offer cannot overfill a ring.
    pub fn would_keep(&self, status: u16, latency_micros: u64) -> bool {
        if status >= 400 {
            return self.error_cap > 0;
        }
        if self.slow_cap == 0 {
            return false;
        }
        let rings = self.rings.lock().expect("flight lock");
        rings.slow.len() < self.slow_cap
            || rings.slow.iter().any(|e| latency_micros > e.latency_micros)
    }

    /// Offer one finished request. Returns whether it was retained:
    /// errors always are (until the error ring evicts them), successes
    /// only while they rank among the `slow_cap` slowest seen.
    pub fn offer(&self, entry: FlightEntry) -> bool {
        let mut rings = self.rings.lock().expect("flight lock");
        if entry.status >= 400 {
            if self.error_cap == 0 {
                return false;
            }
            if rings.errors.len() >= self.error_cap {
                rings.errors.pop_front();
            }
            rings.errors.push_back(entry);
            return true;
        }
        if self.slow_cap == 0 {
            return false;
        }
        if rings.slow.len() < self.slow_cap {
            rings.slow.push(entry);
            return true;
        }
        // Full: the new entry must beat the current fastest retained
        // entry to earn its slot. Linear scan — slow_cap is small.
        let (min_idx, min_latency) = rings
            .slow
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.latency_micros)
            .map(|(i, e)| (i, e.latency_micros))
            .expect("slow ring nonempty at capacity");
        if entry.latency_micros > min_latency {
            rings.slow[min_idx] = entry;
            true
        } else {
            false
        }
    }

    /// Retained entry counts: `(slow, errors)`.
    pub fn retained(&self) -> (usize, usize) {
        let rings = self.rings.lock().expect("flight lock");
        (rings.slow.len(), rings.errors.len())
    }

    /// Snapshot both rings: slow entries sorted slowest-first, errors
    /// oldest-first.
    pub fn snapshot(&self) -> (Vec<FlightEntry>, Vec<FlightEntry>) {
        let rings = self.rings.lock().expect("flight lock");
        let mut slow = rings.slow.clone();
        slow.sort_by_key(|e| std::cmp::Reverse(e.latency_micros));
        (slow, rings.errors.iter().cloned().collect())
    }

    /// Render both rings as one JSON object for `GET /v1/debug/flight`:
    /// `{"slow_cap":N,"error_cap":N,"slow":[…],"errors":[…]}`.
    pub fn to_json(&self) -> String {
        let (slow, errors) = self.snapshot();
        let mut s = String::with_capacity(512);
        s.push_str("{\"slow_cap\":");
        s.push_str(&self.slow_cap.to_string());
        s.push_str(",\"error_cap\":");
        s.push_str(&self.error_cap.to_string());
        s.push_str(",\"slow\":[");
        for (i, e) in slow.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            entry_json(&mut s, e);
        }
        s.push_str("],\"errors\":[");
        for (i, e) in errors.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            entry_json(&mut s, e);
        }
        s.push_str("]}");
        s
    }
}

fn entry_json(s: &mut String, e: &FlightEntry) {
    s.push_str("{\"trace\":");
    escape_json(s, &e.trace);
    s.push_str(",\"tenant\":");
    escape_json(s, &e.tenant);
    s.push_str(",\"route\":");
    escape_json(s, &e.route);
    s.push_str(&format!(
        ",\"status\":{},\"latency_micros\":{},\"started_micros\":{}",
        e.status, e.latency_micros, e.started_micros
    ));
    s.push_str(",\"request\":");
    escape_json(s, &e.request_summary);
    s.push_str(",\"response\":");
    escape_json(s, &e.response_summary);
    s.push_str(",\"spans\":[");
    for (i, sp) in e.spans.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("{{\"id\":{},\"parent\":{},\"name\":", sp.id, sp.parent));
        escape_json(s, &sp.name);
        s.push_str(",\"detail\":");
        escape_json(s, &sp.detail);
        s.push_str(&format!(
            ",\"start_micros\":{},\"end_micros\":{}}}",
            sp.start_micros, sp.end_micros
        ));
    }
    s.push_str("]}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(trace: &str, status: u16, latency: u64) -> FlightEntry {
        FlightEntry {
            trace: trace.into(),
            tenant: "acme".into(),
            route: "/v1/classify".into(),
            status,
            latency_micros: latency,
            started_micros: 1000 + latency,
            request_summary: "classify 1 node".into(),
            response_summary: format!("{status}"),
            spans: Vec::new(),
        }
    }

    #[test]
    fn retains_the_n_slowest_under_a_shuffled_latency_sequence() {
        let rec = FlightRecorder::new(4, 4);
        // Deterministic shuffle of latencies 1..=64 (SplitMix64 as the
        // sort key — no RNG dependency, same order every run).
        let mut latencies: Vec<u64> = (1..=64).collect();
        latencies.sort_by_key(|&v| crate::splitmix64(v));
        for &l in &latencies {
            rec.offer(entry(&format!("{l:016x}"), 200, l));
        }
        let (slow, _) = rec.snapshot();
        let kept: Vec<u64> = slow.iter().map(|e| e.latency_micros).collect();
        assert_eq!(kept, vec![64, 63, 62, 61], "slowest four, slowest first");
    }

    #[test]
    fn fast_request_is_evicted_cheaply_once_the_ring_fills() {
        let rec = FlightRecorder::new(2, 2);
        assert!(rec.offer(entry("a", 200, 10)), "reservation while under capacity");
        assert!(rec.offer(entry("b", 200, 20)));
        assert!(!rec.offer(entry("c", 200, 5)), "not among the slowest");
        assert!(rec.offer(entry("d", 200, 15)), "evicts the 10µs entry");
        let (slow, _) = rec.snapshot();
        let traces: Vec<&str> = slow.iter().map(|e| e.trace.as_str()).collect();
        assert_eq!(traces, vec!["b", "d"]);
    }

    #[test]
    fn would_keep_predicts_every_offer() {
        for (slow_cap, error_cap) in [(0, 0), (1, 0), (0, 2), (3, 2)] {
            let rec = FlightRecorder::new(slow_cap, error_cap);
            for i in 0..40u64 {
                let status = if i % 5 == 0 { 500 } else { 200 };
                let latency = (i * 37) % 23;
                let predicted = rec.would_keep(status, latency);
                let kept = rec.offer(entry(&format!("{i:016x}"), status, latency));
                assert_eq!(predicted, kept, "caps ({slow_cap}, {error_cap}), offer {i}");
            }
        }
    }

    #[test]
    fn ties_keep_the_incumbent() {
        let rec = FlightRecorder::new(1, 0);
        assert!(rec.offer(entry("first", 200, 10)));
        assert!(!rec.offer(entry("second", 200, 10)), "equal latency does not evict");
        assert_eq!(rec.snapshot().0[0].trace, "first");
    }

    #[test]
    fn errors_are_always_retained_oldest_evicted() {
        let rec = FlightRecorder::new(1, 2);
        assert!(rec.offer(entry("e1", 429, 1)));
        assert!(rec.offer(entry("e2", 503, 2)));
        assert!(rec.offer(entry("e3", 400, 3)), "errors never compete on latency");
        let (slow, errors) = rec.snapshot();
        assert!(slow.is_empty());
        let traces: Vec<&str> = errors.iter().map(|e| e.trace.as_str()).collect();
        assert_eq!(traces, vec!["e2", "e3"], "oldest error evicted first");
    }

    #[test]
    fn zero_capacity_rings_retain_nothing() {
        let rec = FlightRecorder::new(0, 0);
        assert!(!rec.offer(entry("a", 200, 10)));
        assert!(!rec.offer(entry("b", 500, 10)));
        assert_eq!(rec.retained(), (0, 0));
    }

    #[test]
    fn spans_reconstruct_from_enter_exit_events() {
        let events = vec![
            Event::SpanEnter {
                id: 1,
                parent: 0,
                name: "request".into(),
                detail: "trace 00ff".into(),
                track: 1,
                at_micros: 100,
            },
            Event::SpanEnter {
                id: 2,
                parent: 1,
                name: "query".into(),
                detail: "node 7".into(),
                track: 1,
                at_micros: 110,
            },
            Event::QueryReplayed { node: 7 },
            Event::SpanExit { id: 2, at_micros: 150 },
            Event::SpanEnter {
                id: 3,
                parent: 1,
                name: "query".into(),
                detail: "node 8".into(),
                track: 1,
                at_micros: 160,
            },
        ];
        let spans = spans_from_events(&events);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "request");
        assert_eq!(spans[1].end_micros, 150);
        assert_eq!(spans[2].end_micros, 0, "unclosed span keeps end 0");
        assert_eq!(spans[1].parent, 1);
    }

    #[test]
    fn json_shape_is_stable_and_escaped() {
        let rec = FlightRecorder::new(2, 2);
        let mut e = entry("00f1e2d3c4b5a697", 200, 42);
        e.request_summary = "has \"quotes\"".into();
        e.spans = vec![FlightSpan {
            id: 1,
            parent: 0,
            name: "request".into(),
            detail: "d".into(),
            start_micros: 5,
            end_micros: 47,
        }];
        rec.offer(e);
        rec.offer(entry("deadbeef00000000", 429, 1));
        let j = rec.to_json();
        assert!(j.starts_with("{\"slow_cap\":2,\"error_cap\":2,\"slow\":["), "got: {j}");
        assert!(j.contains("\"trace\":\"00f1e2d3c4b5a697\""));
        assert!(j.contains("\\\"quotes\\\""));
        assert!(j.contains("\"spans\":[{\"id\":1,\"parent\":0,\"name\":\"request\""));
        assert!(j.contains("\"errors\":[{\"trace\":\"deadbeef00000000\""));
        assert!(!j.contains('\n'));
    }
}
