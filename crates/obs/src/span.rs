//! Causal spans: who did what, inside what, for how long.
//!
//! A span is an interval with a name, a parent, and monotonic enter/exit
//! timestamps from an injectable [`Clock`]. Threaded through the pipeline
//! they decompose a run causally — run → round → query →
//! llm_call / retry — which a flat event stream cannot express.
//!
//! Spans ride the existing [`EventSink`] stream as
//! [`Event::SpanEnter`] / [`Event::SpanExit`] pairs, so every sink
//! (JSONL file, recorder, the Chrome exporter) sees them without new
//! plumbing. The [`Tracer`] is the id/timestamp authority; the static
//! [`DISABLED_TRACER`] makes the whole machinery free when tracing is off
//! (no ids, no clock reads, no events, detail closures never run).
//!
//! Parentage is resolved per thread: each thread keeps a stack of open
//! spans, and a child defaults to the innermost open span. Cross-thread
//! edges (a worker's first span under the main thread's round span) pass
//! the parent explicitly — see [`Tracer::current_or`].

use crate::clock::Clock;
use crate::event::Event;
use crate::sink::EventSink;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifier of one span. `0` is reserved for "no span" ([`SpanId::NONE`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The absent span: used as the root parent and by disabled tracers.
    pub const NONE: SpanId = SpanId(0);

    /// Whether this is [`SpanId::NONE`].
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

thread_local! {
    /// Innermost-open-span stack of the current thread.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// Display track (Chrome trace `tid`) of the current thread.
    static TRACK: Cell<u32> = const { Cell::new(0) };
}

/// Assign this thread to a display track (0 = main; workers use 1-based
/// worker indices). The Chrome exporter renders one lane per track.
pub fn set_thread_track(track: u32) {
    TRACK.with(|t| t.set(track));
}

/// The current thread's display track.
pub fn thread_track() -> u32 {
    TRACK.with(|t| t.get())
}

/// Span factory: allocates ids, reads the clock, and emits enter/exit
/// events. Cheap to share (`&Tracer`) across threads.
pub struct Tracer {
    enabled: bool,
    clock: Option<Arc<dyn Clock>>,
    next: AtomicU64,
}

/// The shared no-op tracer, usable as a `&'static Tracer` default.
/// Spans opened through it are [`SpanId::NONE`] and emit nothing.
pub static DISABLED_TRACER: Tracer =
    Tracer { enabled: false, clock: None, next: AtomicU64::new(0) };

impl Tracer {
    /// An enabled tracer stamping spans from `clock`.
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        Tracer { enabled: true, clock: Some(clock), next: AtomicU64::new(1) }
    }

    /// An owned disabled tracer (same behavior as [`DISABLED_TRACER`]).
    pub fn disabled() -> Self {
        Tracer { enabled: false, clock: None, next: AtomicU64::new(0) }
    }

    /// Whether spans opened through this tracer are real.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.clock.as_ref().map_or(0, |c| c.now_micros())
    }

    /// The innermost span currently open **on this thread**
    /// ([`SpanId::NONE`] when the thread has none).
    pub fn current(&self) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        SPAN_STACK.with(|s| s.borrow().last().map_or(SpanId::NONE, |&id| SpanId(id)))
    }

    /// [`Tracer::current`], falling back to `scope` when this thread has
    /// no open span — the cross-thread edge: workers inherit the round or
    /// run span their queries causally belong to.
    pub fn current_or(&self, scope: SpanId) -> SpanId {
        let cur = self.current();
        if cur.is_none() {
            scope
        } else {
            cur
        }
    }

    /// Open a span. Emits [`Event::SpanEnter`] to `sink`, pushes the span
    /// onto this thread's stack, and returns a guard that emits the
    /// matching [`Event::SpanExit`] (and pops the stack) on drop — so
    /// error paths exit their spans for free. `detail` is only rendered
    /// when the tracer is enabled.
    pub fn span<'a>(
        &'a self,
        sink: &'a dyn EventSink,
        name: &'static str,
        detail: impl FnOnce() -> String,
        parent: SpanId,
    ) -> SpanGuard<'a> {
        if !self.enabled {
            return SpanGuard { tracer: self, sink, id: SpanId::NONE };
        }
        let id = SpanId(self.next.fetch_add(1, Ordering::Relaxed));
        sink.emit(&Event::SpanEnter {
            id: id.0,
            parent: parent.0,
            name: name.to_string(),
            detail: detail(),
            track: thread_track(),
            at_micros: self.now(),
        });
        SPAN_STACK.with(|s| s.borrow_mut().push(id.0));
        SpanGuard { tracer: self, sink, id }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").field("enabled", &self.enabled).finish_non_exhaustive()
    }
}

/// RAII handle for an open span; see [`Tracer::span`].
#[must_use = "dropping the guard closes the span"]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    sink: &'a dyn EventSink,
    id: SpanId,
}

impl SpanGuard<'_> {
    /// The span's id ([`SpanId::NONE`] under a disabled tracer) — pass it
    /// as the `parent`/scope of work forked onto other threads.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.id.is_none() {
            return;
        }
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Spans close in reverse open order on their own thread; a
            // mismatch means a guard crossed threads, which `retain`
            // tolerates instead of corrupting the stack.
            match stack.last() {
                Some(&top) if top == self.id.0 => {
                    stack.pop();
                }
                _ => stack.retain(|&id| id != self.id.0),
            }
        });
        self.sink.emit(&Event::SpanExit { id: self.id.0, at_micros: self.tracer.now() });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::sink::Recorder;

    fn enabled_tracer(clock: &Arc<ManualClock>) -> Tracer {
        Tracer::new(clock.clone() as Arc<dyn Clock>)
    }

    #[test]
    fn spans_nest_via_the_thread_stack() {
        let clock = Arc::new(ManualClock::new());
        let tracer = enabled_tracer(&clock);
        let sink = Recorder::new();
        assert_eq!(tracer.current(), SpanId::NONE);
        let outer = tracer.span(&sink, "outer", || "o".into(), SpanId::NONE);
        assert_eq!(tracer.current(), outer.id());
        clock.advance(10);
        {
            let inner =
                tracer.span(&sink, "inner", || "i".into(), tracer.current_or(SpanId::NONE));
            assert_eq!(tracer.current(), inner.id());
            clock.advance(5);
        }
        assert_eq!(tracer.current(), outer.id());
        drop(outer);
        assert_eq!(tracer.current(), SpanId::NONE);

        let enters = sink.of_kind("span_enter");
        let exits = sink.of_kind("span_exit");
        assert_eq!(enters.len(), 2);
        assert_eq!(exits.len(), 2);
        match (&enters[0], &enters[1]) {
            (
                Event::SpanEnter { id: outer_id, parent: 0, at_micros: 0, .. },
                Event::SpanEnter { id: inner_id, parent, at_micros: 10, .. },
            ) => {
                assert_eq!(parent, outer_id, "inner parents to outer");
                assert_ne!(outer_id, inner_id);
            }
            other => panic!("unexpected enters: {other:?}"),
        }
        // Inner exits first (at 15), outer last (also 15 — clock frozen).
        match &exits[0] {
            Event::SpanExit { at_micros, .. } => assert_eq!(*at_micros, 15),
            other => panic!("unexpected exit: {other:?}"),
        }
    }

    #[test]
    fn disabled_tracer_costs_nothing_and_emits_nothing() {
        let sink = Recorder::new();
        let guard =
            DISABLED_TRACER.span(&sink, "x", || panic!("detail rendered"), SpanId::NONE);
        assert!(guard.id().is_none());
        drop(guard);
        assert!(sink.is_empty());
        assert_eq!(DISABLED_TRACER.current(), SpanId::NONE);
    }

    #[test]
    fn current_or_falls_back_to_the_scope() {
        let clock = Arc::new(ManualClock::new());
        let tracer = enabled_tracer(&clock);
        assert_eq!(tracer.current_or(SpanId(42)), SpanId(42));
        let sink = Recorder::new();
        let g = tracer.span(&sink, "open", String::new, SpanId::NONE);
        assert_eq!(tracer.current_or(SpanId(42)), g.id());
    }

    #[test]
    fn thread_tracks_are_per_thread() {
        set_thread_track(0);
        assert_eq!(thread_track(), 0);
        std::thread::spawn(|| {
            set_thread_track(3);
            assert_eq!(thread_track(), 3);
        })
        .join()
        .unwrap();
        assert_eq!(thread_track(), 0, "main thread's track untouched");
    }

    #[test]
    fn worker_spans_carry_their_track() {
        let clock = Arc::new(ManualClock::new());
        let tracer = enabled_tracer(&clock);
        let sink = Recorder::new();
        std::thread::scope(|s| {
            let (tracer, sink) = (&tracer, &sink);
            s.spawn(move || {
                set_thread_track(2);
                let _g = tracer.span(sink, "work", String::new, SpanId::NONE);
            });
        });
        match &sink.of_kind("span_enter")[0] {
            Event::SpanEnter { track: 2, .. } => {}
            other => panic!("expected track 2, got {other:?}"),
        }
    }
}
