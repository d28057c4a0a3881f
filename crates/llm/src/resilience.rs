//! The resilience stack: backoff, deadlines, circuit breaking, pacing.
//!
//! [`ResilientLlm`] sits *under* [`crate::RetryingLlm`] and directly over
//! the transport (or the fault harness standing in for it). The retry
//! layer decides *whether* to try again; this layer decides *when* the
//! next request may go out and *whether* the transport is healthy enough
//! to receive it at all:
//!
//! * **Backoff with decorrelated jitter** — after a failure the next call
//!   is paced by `min(cap, uniform(base, 3 × previous))`, the AWS
//!   "decorrelated jitter" schedule. Pacing is applied on entry, so it
//!   composes with the retry loop above without owning it.
//! * **Rate-limit pacing** — [`Error::RateLimited`] retry-after hints
//!   extend the pacing gate; the next call (from any caller) waits them
//!   out instead of burning an attempt.
//! * **Per-call deadlines** — a completion that arrives after the
//!   deadline is discarded ([`Error::DeadlineExceeded`]); its tokens were
//!   already metered and surface as the ledger's unattributed bucket.
//! * **Circuit breaker** — after `failure_threshold` consecutive
//!   failures the breaker opens and calls fail fast
//!   ([`Error::CircuitOpen`]) without touching the transport; after
//!   `cooldown_micros` one half-open probe is allowed through, and its
//!   outcome closes or re-opens the circuit.
//!
//! Every wait flows through a [`WaitClock`], so under a
//! [`mqo_obs::ManualClock`] the whole stack is deterministic and runs
//! without one real sleep; the jitter RNG is seeded. Waits emit
//! [`Event::BackoffWait`] (inside a `backoff` span nested under the
//! caller's open `llm_call` span) and state changes emit
//! [`Event::BreakerTransition`], so faults are first-class telemetry.

use crate::error::{Error, Result};
use crate::model::{Completion, LanguageModel};
use mqo_obs::{splitmix64, Event, EventSink, NullSink, Tracer, WaitClock, SPLITMIX64_GAMMA};
use mqo_token::UsageMeter;
use parking_lot::Mutex;
use std::sync::Arc;

/// Tuning for [`ResilientLlm`]. The defaults suit the simulated
/// transport: short waits, a breaker that trips on a clear failure burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// Minimum backoff after a failure, in microseconds.
    pub base_backoff_micros: u64,
    /// Backoff ceiling, in microseconds.
    pub max_backoff_micros: u64,
    /// Per-call deadline (None = unbounded).
    pub deadline_micros: Option<u64>,
    /// Consecutive failures that open the breaker.
    pub failure_threshold: u32,
    /// How long the breaker stays open before a half-open probe.
    pub cooldown_micros: u64,
    /// Seed for the jitter RNG (deterministic schedules in tests).
    pub seed: u64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            base_backoff_micros: 1_000,
            max_backoff_micros: 50_000,
            deadline_micros: None,
            failure_threshold: 5,
            cooldown_micros: 100_000,
            seed: 0,
        }
    }
}

/// Circuit-breaker state (Prometheus gauge: 0 closed, 1 half-open, 2 open).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Breaker {
    Closed,
    /// Open until the stored instant, then eligible for a probe.
    Open {
        until_micros: u64,
    },
    HalfOpen,
}

impl Breaker {
    fn name(self) -> &'static str {
        match self {
            Breaker::Closed => "closed",
            Breaker::Open { .. } => "open",
            Breaker::HalfOpen => "half_open",
        }
    }
}

struct ResState {
    breaker: Breaker,
    consecutive_failures: u32,
    /// Earliest instant the next transport call may start (pacing gate).
    next_allowed_micros: u64,
    /// Whether the current pacing gate carries a rate-limit hint.
    gate_rate_limited: bool,
    /// Previous backoff, the anchor of the decorrelated-jitter schedule.
    prev_backoff_micros: u64,
    /// splitmix64 state for jitter.
    rng: u64,
}

/// The resilience decorator; see the module docs for the stack it forms.
pub struct ResilientLlm<L> {
    inner: L,
    cfg: ResilienceConfig,
    clock: Arc<dyn WaitClock>,
    sink: Arc<dyn EventSink>,
    tracer: Option<Arc<Tracer>>,
    state: Mutex<ResState>,
}

/// The next draw of the SplitMix64 generator whose state is `state`.
fn splitmix(state: &mut u64) -> u64 {
    let draw = splitmix64(*state);
    *state = state.wrapping_add(SPLITMIX64_GAMMA);
    draw
}

impl<L: LanguageModel> ResilientLlm<L> {
    /// Wrap `inner`, timing every wait and deadline through `clock`.
    pub fn new(inner: L, cfg: ResilienceConfig, clock: Arc<dyn WaitClock>) -> Self {
        assert!(cfg.base_backoff_micros > 0, "base backoff must be positive");
        assert!(cfg.max_backoff_micros >= cfg.base_backoff_micros, "cap below base");
        assert!(cfg.failure_threshold >= 1, "threshold must be at least 1");
        let seed = cfg.seed;
        ResilientLlm {
            inner,
            cfg,
            clock,
            sink: Arc::new(NullSink),
            tracer: None,
            state: Mutex::new(ResState {
                breaker: Breaker::Closed,
                consecutive_failures: 0,
                next_allowed_micros: 0,
                gate_rate_limited: false,
                prev_backoff_micros: 0,
                rng: seed,
            }),
        }
    }

    /// Report waits and breaker transitions to `sink`.
    pub fn with_sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Open a `backoff` span around each pacing wait, parented to the
    /// caller's current span (the executor's `llm_call`).
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Access the wrapped client.
    pub fn inner(&self) -> &L {
        &self.inner
    }

    fn transition(&self, state: &mut ResState, to: Breaker) {
        if state.breaker.name() == to.name() {
            state.breaker = to;
            return;
        }
        self.sink.emit(&Event::BreakerTransition {
            from: state.breaker.name().into(),
            to: to.name().into(),
            consecutive_failures: state.consecutive_failures,
        });
        state.breaker = to;
    }

    /// Decorrelated jitter: `min(cap, uniform(base, 3 × prev))`, anchored
    /// at `base` after a success.
    fn next_backoff(&self, state: &mut ResState) -> u64 {
        let base = self.cfg.base_backoff_micros;
        let hi = (state.prev_backoff_micros.max(base)).saturating_mul(3);
        let span = (hi - base).max(1);
        let wait = (base + splitmix(&mut state.rng) % span).min(self.cfg.max_backoff_micros);
        state.prev_backoff_micros = wait;
        wait
    }

    /// Admission control: honor the breaker and the pacing gate. Returns
    /// the failure count observed (for telemetry) or a fail-fast error.
    fn admit(&self) -> Result<()> {
        // Decide under the lock, wait outside it: a paced caller must not
        // block other threads from reading breaker state.
        let (wait, failures, rate_limited) = {
            let mut s = self.state.lock();
            let now = self.clock.now_micros();
            match s.breaker {
                Breaker::Open { until_micros } if now < until_micros => {
                    return Err(Error::CircuitOpen { retry_in_micros: until_micros - now });
                }
                Breaker::Open { .. } => self.transition(&mut s, Breaker::HalfOpen),
                Breaker::HalfOpen => {
                    // One probe owns the half-open window; concurrent
                    // calls fail fast instead of stampeding the transport.
                    return Err(Error::CircuitOpen {
                        retry_in_micros: self.cfg.base_backoff_micros,
                    });
                }
                Breaker::Closed => {}
            }
            if s.breaker == Breaker::HalfOpen {
                // The probe skips pacing: the cooldown already elapsed.
                (0, s.consecutive_failures, false)
            } else {
                let wait = s.next_allowed_micros.saturating_sub(now);
                (wait, s.consecutive_failures, s.gate_rate_limited)
            }
        };
        if wait > 0 {
            let span = self
                .tracer
                .as_ref()
                .map(|t| t.span(&*self.sink, "backoff", || format!("{wait}µs"), t.current()));
            self.sink.emit(&Event::BackoffWait {
                consecutive_failures: failures,
                wait_micros: wait,
                rate_limited,
            });
            self.clock.sleep_micros(wait);
            drop(span);
        }
        Ok(())
    }

    fn record_success(&self) {
        let mut s = self.state.lock();
        s.consecutive_failures = 0;
        s.prev_backoff_micros = 0;
        s.next_allowed_micros = 0;
        s.gate_rate_limited = false;
        if s.breaker != Breaker::Closed {
            self.transition(&mut s, Breaker::Closed);
        }
    }

    fn record_failure(&self, err: &Error) {
        let mut s = self.state.lock();
        s.consecutive_failures += 1;
        let now = self.clock.now_micros();
        let backoff = self.next_backoff(&mut s);
        let wait = match err {
            Error::RateLimited { retry_after_micros } => backoff.max(*retry_after_micros),
            _ => backoff,
        };
        s.next_allowed_micros = now + wait;
        s.gate_rate_limited = matches!(err, Error::RateLimited { .. });
        let tripped = s.consecutive_failures >= self.cfg.failure_threshold;
        match s.breaker {
            // A failed probe re-opens the circuit for a full cooldown.
            Breaker::HalfOpen => {
                let until = now + self.cfg.cooldown_micros;
                self.transition(&mut s, Breaker::Open { until_micros: until });
            }
            Breaker::Closed if tripped => {
                let until = now + self.cfg.cooldown_micros;
                self.transition(&mut s, Breaker::Open { until_micros: until });
            }
            _ => {}
        }
    }
}

impl<L: LanguageModel> LanguageModel for ResilientLlm<L> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, prompt: &str) -> Result<Completion> {
        // A served request's propagated deadline (see [`crate::deadline`]):
        // once it passes, fail fast without pacing, tripping the breaker,
        // or touching the transport — nothing is metered, and retries of
        // this error drain instantly because every attempt fails the same
        // check.
        let now = self.clock.now_micros();
        if let Some(request_deadline) = crate::deadline::request_deadline_micros() {
            if now >= request_deadline {
                return Err(Error::DeadlineExceeded {
                    elapsed_micros: now,
                    deadline_micros: request_deadline,
                });
            }
        }
        // Remaining request time tightens the static per-call deadline: a
        // call that outlives its request is discarded like any
        // over-deadline call (its metered tokens surface as unattributed
        // spend in the ledger).
        let remaining =
            crate::deadline::request_deadline_micros().map(|d| d.saturating_sub(now));
        let call_deadline = match (self.cfg.deadline_micros, remaining) {
            (Some(d), Some(r)) => Some(d.min(r)),
            (d, r) => d.or(r),
        };
        self.admit()?;
        let start = self.clock.now_micros();
        let result = self.inner.complete(prompt);
        let elapsed = self.clock.now_micros().saturating_sub(start);
        let result = match (result, call_deadline) {
            (Ok(_), Some(deadline)) if elapsed > deadline => {
                // The completion is discarded, but its tokens were
                // metered by `inner`: they become unattributed spend.
                Err(Error::DeadlineExceeded {
                    elapsed_micros: elapsed,
                    deadline_micros: deadline,
                })
            }
            (r, _) => r,
        };
        match &result {
            Ok(_) => self.record_success(),
            Err(e) => self.record_failure(e),
        }
        result
    }

    fn meter(&self) -> &UsageMeter {
        self.inner.meter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqo_obs::{Clock, ManualClock, Recorder};
    use mqo_token::Usage;

    /// Scriptable transport: each queued step either succeeds, fails, or
    /// succeeds after advancing the clock (a latency spike).
    struct Transport {
        steps: Mutex<Vec<Step>>,
        clock: Arc<ManualClock>,
        meter: UsageMeter,
    }

    enum Step {
        Ok,
        Fail(Error),
        SlowOk(u64),
    }

    impl Transport {
        fn new(clock: &Arc<ManualClock>, steps: Vec<Step>) -> Self {
            Transport {
                steps: Mutex::new(steps),
                clock: clock.clone(),
                meter: UsageMeter::new(),
            }
        }
    }

    impl LanguageModel for Transport {
        fn name(&self) -> &str {
            "transport"
        }
        fn complete(&self, _prompt: &str) -> Result<Completion> {
            let mut steps = self.steps.lock();
            assert!(!steps.is_empty(), "transport script exhausted");
            match steps.remove(0) {
                Step::Ok => {}
                Step::Fail(e) => return Err(e),
                Step::SlowOk(micros) => self.clock.advance(micros),
            }
            let usage = Usage { prompt_tokens: 10, completion_tokens: 2 };
            self.meter.record(usage);
            Ok(Completion::billed("Category: ['X']", usage))
        }
        fn meter(&self) -> &UsageMeter {
            &self.meter
        }
    }

    fn cfg() -> ResilienceConfig {
        ResilienceConfig {
            base_backoff_micros: 100,
            max_backoff_micros: 10_000,
            deadline_micros: None,
            failure_threshold: 3,
            cooldown_micros: 5_000,
            seed: 42,
        }
    }

    fn transient() -> Error {
        Error::Transient { detail: "injected".into() }
    }

    #[test]
    fn failures_pace_the_next_call_through_the_clock() {
        let clock = Arc::new(ManualClock::new());
        let sink = Arc::new(Recorder::new());
        let t = Transport::new(&clock, vec![Step::Fail(transient()), Step::Ok]);
        let llm = ResilientLlm::new(t, cfg(), clock.clone() as Arc<dyn WaitClock>)
            .with_sink(sink.clone());
        assert!(llm.complete("p").is_err());
        let before = clock.now_micros();
        assert!(llm.complete("p").is_ok());
        let waited = clock.now_micros() - before;
        assert!(waited >= 100, "second call paced by at least the base backoff: {waited}");
        let waits = sink.of_kind("backoff_wait");
        assert_eq!(waits.len(), 1);
        match &waits[0] {
            Event::BackoffWait { consecutive_failures: 1, wait_micros, .. } => {
                assert_eq!(*wait_micros, waited);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn backoff_schedule_is_seed_deterministic_and_bounded() {
        let run = |seed: u64| -> Vec<u64> {
            let clock = Arc::new(ManualClock::new());
            let sink = Arc::new(Recorder::new());
            let steps = (0..8).map(|_| Step::Fail(transient())).collect();
            let mut c = cfg();
            c.seed = seed;
            c.failure_threshold = 100; // keep the breaker out of the way
            let llm = ResilientLlm::new(Transport::new(&clock, steps), c, clock.clone() as _)
                .with_sink(sink.clone());
            for _ in 0..8 {
                assert!(llm.complete("p").is_err());
            }
            sink.of_kind("backoff_wait")
                .iter()
                .map(|e| match e {
                    Event::BackoffWait { wait_micros, .. } => *wait_micros,
                    _ => unreachable!(),
                })
                .collect()
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seed, different jitter");
        assert_eq!(a.len(), 7, "every call after the first waits");
        assert!(a.iter().all(|&w| (100..=10_000).contains(&w)), "within [base, cap]: {a:?}");
    }

    #[test]
    fn rate_limit_hints_extend_the_pacing_gate() {
        let clock = Arc::new(ManualClock::new());
        let sink = Arc::new(Recorder::new());
        let t = Transport::new(
            &clock,
            vec![Step::Fail(Error::RateLimited { retry_after_micros: 40_000 }), Step::Ok],
        );
        let llm = ResilientLlm::new(t, cfg(), clock.clone() as _).with_sink(sink.clone());
        assert!(llm.complete("p").is_err());
        assert!(llm.complete("p").is_ok());
        match &sink.of_kind("backoff_wait")[0] {
            Event::BackoffWait { wait_micros, rate_limited, .. } => {
                assert!(*wait_micros >= 40_000, "hint dominates jitter: {wait_micros}");
                assert!(rate_limited);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn breaker_opens_fails_fast_probes_and_recovers() {
        let clock = Arc::new(ManualClock::new());
        let sink = Arc::new(Recorder::new());
        let steps = vec![
            Step::Fail(transient()),
            Step::Fail(transient()),
            Step::Fail(transient()), // trips the breaker (threshold 3)
            Step::Ok,                // the half-open probe
            Step::Ok,
        ];
        let llm = ResilientLlm::new(Transport::new(&clock, steps), cfg(), clock.clone() as _)
            .with_sink(sink.clone());
        for _ in 0..3 {
            assert!(llm.complete("p").is_err());
        }
        // Open: fail fast without consuming a transport step.
        match llm.complete("p").unwrap_err() {
            Error::CircuitOpen { retry_in_micros } => assert!(retry_in_micros > 0),
            other => panic!("expected CircuitOpen, got {other:?}"),
        }
        assert_eq!(llm.inner().steps.lock().len(), 2, "transport untouched while open");
        // After the cooldown the half-open probe goes through and closes.
        clock.advance(5_000);
        assert!(llm.complete("p").is_ok());
        assert!(llm.complete("p").is_ok());
        let names: Vec<(String, String)> = sink
            .of_kind("breaker_transition")
            .iter()
            .map(|e| match e {
                Event::BreakerTransition { from, to, .. } => (from.clone(), to.clone()),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(
            names,
            vec![
                ("closed".into(), "open".into()),
                ("open".into(), "half_open".into()),
                ("half_open".into(), "closed".into()),
            ]
        );
    }

    #[test]
    fn failed_probe_reopens_for_a_full_cooldown() {
        let clock = Arc::new(ManualClock::new());
        let sink = Arc::new(Recorder::new());
        let steps = vec![
            Step::Fail(transient()),
            Step::Fail(transient()),
            Step::Fail(transient()),
            Step::Fail(transient()), // the probe also fails
            Step::Ok,
        ];
        let llm = ResilientLlm::new(Transport::new(&clock, steps), cfg(), clock.clone() as _)
            .with_sink(sink.clone());
        for _ in 0..3 {
            assert!(llm.complete("p").is_err());
        }
        clock.advance(5_000);
        assert!(llm.complete("p").is_err(), "probe fails");
        match llm.complete("p").unwrap_err() {
            Error::CircuitOpen { .. } => {}
            other => panic!("breaker must re-open, got {other:?}"),
        }
        clock.advance(5_000);
        assert!(llm.complete("p").is_ok(), "second probe closes it");
    }

    #[test]
    fn deadlines_discard_late_completions() {
        let clock = Arc::new(ManualClock::new());
        let t = Transport::new(&clock, vec![Step::SlowOk(2_000), Step::Ok]);
        let mut c = cfg();
        c.deadline_micros = Some(1_000);
        let llm = ResilientLlm::new(t, c, clock.clone() as _);
        match llm.complete("p").unwrap_err() {
            Error::DeadlineExceeded { elapsed_micros: 2_000, deadline_micros: 1_000 } => {}
            other => panic!("unexpected: {other:?}"),
        }
        // The discarded completion was still metered — unattributed spend.
        assert_eq!(llm.meter().totals().prompt_tokens, 10);
        assert!(llm.complete("p").is_ok(), "fast calls fit the deadline");
    }

    #[test]
    fn pacing_waits_open_backoff_spans_under_the_caller() {
        let clock = Arc::new(ManualClock::new());
        let sink = Arc::new(Recorder::new());
        let tracer = Arc::new(Tracer::new(clock.clone() as Arc<dyn mqo_obs::Clock>));
        let t = Transport::new(&clock, vec![Step::Fail(transient()), Step::Ok]);
        let llm = ResilientLlm::new(t, cfg(), clock.clone() as _)
            .with_sink(sink.clone())
            .with_tracer(tracer.clone());
        let outer = tracer.span(&*sink, "llm_call", String::new, mqo_obs::SpanId::NONE);
        assert!(llm.complete("p").is_err());
        assert!(llm.complete("p").is_ok());
        drop(outer);
        let enters = sink.of_kind("span_enter");
        let backoff: Vec<_> = enters
            .iter()
            .filter_map(|e| match e {
                Event::SpanEnter { name, parent, .. } if name == "backoff" => Some(*parent),
                _ => None,
            })
            .collect();
        assert_eq!(backoff.len(), 1);
        assert_ne!(backoff[0], 0, "backoff span nests under the open llm_call span");
    }

    #[test]
    fn no_real_time_passes_under_a_manual_clock() {
        let clock = Arc::new(ManualClock::new());
        let steps = vec![Step::Fail(transient()), Step::Fail(transient()), Step::Ok];
        let mut c = cfg();
        c.base_backoff_micros = 60_000_000; // a minute of virtual backoff
        c.max_backoff_micros = 600_000_000;
        c.failure_threshold = 10;
        let llm = ResilientLlm::new(Transport::new(&clock, steps), c, clock.clone() as _);
        let wall = std::time::Instant::now();
        assert!(llm.complete("p").is_err());
        assert!(llm.complete("p").is_err());
        assert!(llm.complete("p").is_ok());
        assert!(clock.now_micros() >= 120_000_000, "minutes passed virtually");
        assert!(wall.elapsed().as_millis() < 1_000, "…but not in wall time");
    }

    #[test]
    fn expired_request_deadline_fails_fast_without_touching_the_transport() {
        let clock = Arc::new(ManualClock::new());
        clock.advance(10_000);
        // An empty script panics if the transport is ever reached.
        let t = Transport::new(&clock, Vec::new());
        let llm = ResilientLlm::new(t, cfg(), clock.clone() as _);
        let _g = crate::deadline::with_request_deadline(10_000);
        let err = llm.complete("p").unwrap_err();
        assert!(matches!(err, Error::DeadlineExceeded { .. }), "got: {err}");
        assert_eq!(llm.inner().meter().totals().requests, 0, "nothing was metered");
        // The breaker must not count deadline fail-fasts as provider
        // failures: the next call (with the deadline lifted) goes through
        // admission as if nothing happened.
        drop(_g);
    }

    #[test]
    fn request_deadline_tightens_the_per_call_deadline() {
        let clock = Arc::new(ManualClock::new());
        // One slow success: the call takes 5_000µs, finishing past the
        // request deadline at 2_000µs. The completion is discarded and its
        // metered tokens become unattributed spend.
        let t = Transport::new(&clock, vec![Step::SlowOk(5_000)]);
        let llm = ResilientLlm::new(t, cfg(), clock.clone() as _);
        let _g = crate::deadline::with_request_deadline(2_000);
        let err = llm.complete("p").unwrap_err();
        assert!(matches!(err, Error::DeadlineExceeded { .. }), "got: {err}");
        assert_eq!(
            llm.inner().meter().totals().requests,
            1,
            "the transport was reached; its spend is unattributed"
        );
    }
}
