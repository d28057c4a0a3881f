//! # mqo-fault — deterministic fault injection for LLM clients
//!
//! Every resilience claim in this workspace is testable offline because
//! faults are *injected*, not awaited: [`FaultyLlm`] decorates any
//! [`LanguageModel`] and applies a seeded [`FaultSchedule`] keyed by the
//! transport call index. The same seed always produces the same faults on
//! the same calls, so chaos tests are reproducible bit for bit.
//!
//! The fault vocabulary mirrors what a production LLM transport actually
//! sees:
//!
//! * **transient** — the request dies in flight ([`Error::Transient`]);
//! * **rate_limited** — the provider refuses with a retry-after hint
//!   ([`Error::RateLimited`]);
//! * **latency** — the call succeeds after a spike, spent through the
//!   [`WaitClock`] so tests stay instant under a manual clock;
//! * **truncated** — the completion arrives cut off mid-answer (and is
//!   billed: the provider charged for it);
//! * **malformed** — the completion arrives as format-drifted garbage
//!   (also billed);
//! * **outage** — a hard window of call indices during which every
//!   request dies, modeling a provider incident.
//!
//! Every injection is announced as [`Event::FaultInjected`], so traces
//! and metrics show chaos as a first-class citizen. A `kill_after`
//! setting aborts the whole process at a chosen call index — the
//! crash-safety hammer the journal/resume path is tested with.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod net;

pub use net::{ChaosProxy, NetFault, NetFaultConfig, NetFaultSchedule};

use mqo_llm::{Completion, Error, LanguageModel, Result};
use mqo_obs::{Event, EventSink, NullSink, WaitClock};
use mqo_token::UsageMeter;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One fault drawn from a schedule for a specific call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// No fault: the call passes through untouched.
    None,
    /// The request fails in flight.
    Transient,
    /// The provider rate-limits with a retry-after hint (microseconds).
    RateLimited {
        /// The hint carried by the refusal.
        retry_after_micros: u64,
    },
    /// The call succeeds after a latency spike of this many microseconds.
    Latency {
        /// Spike length.
        micros: u64,
    },
    /// The completion is truncated to its first half (billed in full).
    Truncated,
    /// The completion is replaced by format-drifted garbage (billed).
    Malformed,
    /// The call falls inside a hard-outage window and dies.
    Outage,
}

impl Fault {
    /// Stable name used in [`Event::FaultInjected`].
    pub fn name(self) -> &'static str {
        match self {
            Fault::None => "none",
            Fault::Transient => "transient",
            Fault::RateLimited { .. } => "rate_limited",
            Fault::Latency { .. } => "latency",
            Fault::Truncated => "truncated",
            Fault::Malformed => "malformed",
            Fault::Outage => "outage",
        }
    }
}

/// Independent per-fault probabilities plus deterministic windows; the
/// rates are checked in order (transient, rate-limited, latency,
/// truncated, malformed) against one uniform draw per call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability of a transient transport failure.
    pub transient_rate: f64,
    /// Probability of a rate-limit refusal.
    pub rate_limited_rate: f64,
    /// Probability of a latency spike.
    pub latency_rate: f64,
    /// Probability of a truncated completion.
    pub truncated_rate: f64,
    /// Probability of a malformed completion.
    pub malformed_rate: f64,
    /// Retry-after hint attached to rate-limit refusals (microseconds).
    pub retry_after_micros: u64,
    /// Latency-spike length (microseconds).
    pub latency_micros: u64,
    /// Hard outage: every call index in `[start, start + len)` dies.
    pub outage: Option<(u64, u64)>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            transient_rate: 0.0,
            rate_limited_rate: 0.0,
            latency_rate: 0.0,
            truncated_rate: 0.0,
            malformed_rate: 0.0,
            retry_after_micros: 10_000,
            latency_micros: 50_000,
            outage: None,
        }
    }
}

impl FaultConfig {
    /// Parse a CLI spec like
    /// `"error=0.1,malformed=0.05,rate-limit=0.02,latency=0.01,truncate=0.02,outage=40+10"`.
    /// Unknown keys are rejected; omitted keys keep their defaults.
    pub fn parse(spec: &str) -> std::result::Result<Self, String> {
        let mut cfg = FaultConfig::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec item {part:?} is not key=value"))?;
            let rate = || -> std::result::Result<f64, String> {
                let r: f64 = value.parse().map_err(|_| format!("bad rate in {part:?}"))?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(format!("rate out of [0,1] in {part:?}"));
                }
                Ok(r)
            };
            match key {
                "error" | "transient" => cfg.transient_rate = rate()?,
                "rate-limit" | "rate_limited" => cfg.rate_limited_rate = rate()?,
                "latency" => cfg.latency_rate = rate()?,
                "truncate" | "truncated" => cfg.truncated_rate = rate()?,
                "malformed" => cfg.malformed_rate = rate()?,
                "retry-after-micros" => {
                    cfg.retry_after_micros =
                        value.parse().map_err(|_| format!("bad micros in {part:?}"))?;
                }
                "latency-micros" => {
                    cfg.latency_micros =
                        value.parse().map_err(|_| format!("bad micros in {part:?}"))?;
                }
                "outage" => {
                    let (start, len) = value
                        .split_once('+')
                        .ok_or_else(|| format!("outage must be start+len, got {part:?}"))?;
                    cfg.outage = Some((
                        start.parse().map_err(|_| format!("bad outage start in {part:?}"))?,
                        len.parse().map_err(|_| format!("bad outage length in {part:?}"))?,
                    ));
                }
                other => return Err(format!("unknown fault key {other:?}")),
            }
        }
        let total = cfg.transient_rate
            + cfg.rate_limited_rate
            + cfg.latency_rate
            + cfg.truncated_rate
            + cfg.malformed_rate;
        if total > 1.0 {
            return Err(format!("fault rates sum to {total:.3} > 1"));
        }
        Ok(cfg)
    }
}

/// A seeded, deterministic mapping from transport call index to [`Fault`].
///
/// The draw for call `i` depends only on `(seed, i)` — not on thread
/// interleaving or on what earlier calls returned — so a schedule can be
/// replayed, sliced, or inspected ahead of time.
#[derive(Debug, Clone, Copy)]
pub struct FaultSchedule {
    seed: u64,
    cfg: FaultConfig,
}

/// The SplitMix64 finalizer `mqo-core` also uses for per-query RNGs,
/// giving a uniform u64 per (seed, call) pair.
pub(crate) fn mix(seed: u64, call: u64) -> u64 {
    mqo_obs::mix64(seed ^ call.wrapping_mul(mqo_obs::SPLITMIX64_GAMMA))
}

impl FaultSchedule {
    /// A schedule drawing faults per `cfg` under `seed`.
    pub fn seeded(seed: u64, cfg: FaultConfig) -> Self {
        FaultSchedule { seed, cfg }
    }

    /// A schedule that never faults.
    pub fn clean() -> Self {
        FaultSchedule::seeded(0, FaultConfig::default())
    }

    /// The fault (or [`Fault::None`]) for transport call `call`.
    pub fn fault_for(&self, call: u64) -> Fault {
        if let Some((start, len)) = self.cfg.outage {
            if call >= start && call < start.saturating_add(len) {
                return Fault::Outage;
            }
        }
        let u = mix(self.seed, call) as f64 / u64::MAX as f64;
        let mut edge = self.cfg.transient_rate;
        if u < edge {
            return Fault::Transient;
        }
        edge += self.cfg.rate_limited_rate;
        if u < edge {
            return Fault::RateLimited { retry_after_micros: self.cfg.retry_after_micros };
        }
        edge += self.cfg.latency_rate;
        if u < edge {
            return Fault::Latency { micros: self.cfg.latency_micros };
        }
        edge += self.cfg.truncated_rate;
        if u < edge {
            return Fault::Truncated;
        }
        edge += self.cfg.malformed_rate;
        if u < edge {
            return Fault::Malformed;
        }
        Fault::None
    }
}

/// The fault-injecting decorator. Wrap it directly around the transport
/// (under the resilience stack) so injected faults exercise the same
/// paths real ones would.
pub struct FaultyLlm<L> {
    inner: L,
    schedule: FaultSchedule,
    clock: Arc<dyn WaitClock>,
    sink: Arc<dyn EventSink>,
    calls: AtomicU64,
    /// Abort the process when this call index is reached (crash testing).
    kill_after: Option<u64>,
}

impl<L: LanguageModel> FaultyLlm<L> {
    /// Wrap `inner` under `schedule`; latency spikes spend time on
    /// `clock`.
    pub fn new(inner: L, schedule: FaultSchedule, clock: Arc<dyn WaitClock>) -> Self {
        FaultyLlm {
            inner,
            schedule,
            clock,
            sink: Arc::new(NullSink),
            calls: AtomicU64::new(0),
            kill_after: None,
        }
    }

    /// Report injections to `sink`.
    pub fn with_sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Terminate the process (exit code 86) the moment transport call
    /// `call` starts — a deterministic stand-in for `kill -9` mid-run.
    /// Process exit skips destructors, so only state already flushed to
    /// disk (the run journal) survives: exactly the crash the resume path
    /// must cope with.
    pub fn with_kill_after(mut self, call: u64) -> Self {
        self.kill_after = Some(call);
        self
    }

    /// Transport calls attempted so far (faulted ones included).
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Access the wrapped client.
    pub fn inner(&self) -> &L {
        &self.inner
    }
}

/// Exit code used by [`FaultyLlm::with_kill_after`], distinguishable from
/// panics and normal failures in chaos scripts.
pub const KILL_EXIT_CODE: i32 = 86;

impl<L: LanguageModel> LanguageModel for FaultyLlm<L> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, prompt: &str) -> Result<Completion> {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        if self.kill_after == Some(call) {
            eprintln!("mqo-fault: killing process at transport call {call}");
            std::process::exit(KILL_EXIT_CODE);
        }
        let fault = self.schedule.fault_for(call);
        if fault != Fault::None {
            self.sink.emit(&Event::FaultInjected { call, fault: fault.name().into() });
        }
        match fault {
            Fault::None => self.inner.complete(prompt),
            Fault::Transient => {
                Err(Error::Transient { detail: format!("injected at call {call}") })
            }
            Fault::Outage => {
                Err(Error::Transient { detail: format!("injected outage at call {call}") })
            }
            Fault::RateLimited { retry_after_micros } => {
                Err(Error::RateLimited { retry_after_micros })
            }
            Fault::Latency { micros } => {
                self.clock.sleep_micros(micros);
                self.inner.complete(prompt)
            }
            Fault::Truncated => {
                // The provider answered and billed; the payload is cut off.
                let mut c = self.inner.complete(prompt)?;
                let keep = c.text.len() / 2;
                let cut = c.text.char_indices().map(|(i, _)| i).take_while(|&i| i <= keep);
                let at = cut.last().unwrap_or(0);
                c.text.truncate(at);
                Ok(c)
            }
            Fault::Malformed => {
                let mut c = self.inner.complete(prompt)?;
                c.text = format!("<<drifted output, call {call}>>");
                Ok(c)
            }
        }
    }

    fn meter(&self) -> &UsageMeter {
        self.inner.meter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqo_llm::ScriptedLlm;
    use mqo_obs::{ManualClock, Recorder};

    fn chaos_cfg() -> FaultConfig {
        FaultConfig {
            transient_rate: 0.2,
            rate_limited_rate: 0.1,
            latency_rate: 0.1,
            truncated_rate: 0.1,
            malformed_rate: 0.1,
            ..FaultConfig::default()
        }
    }

    #[test]
    fn schedules_are_deterministic_in_seed_and_call() {
        let a = FaultSchedule::seeded(7, chaos_cfg());
        let b = FaultSchedule::seeded(7, chaos_cfg());
        let c = FaultSchedule::seeded(8, chaos_cfg());
        let draw = |s: &FaultSchedule| (0..200).map(|i| s.fault_for(i)).collect::<Vec<_>>();
        assert_eq!(draw(&a), draw(&b), "same seed, same schedule");
        assert_ne!(draw(&a), draw(&c), "different seed, different schedule");
        // Every configured fault kind appears somewhere in 200 draws.
        for name in ["transient", "rate_limited", "latency", "truncated", "malformed", "none"] {
            assert!(draw(&a).iter().any(|f| f.name() == name), "no {name} fault in 200 draws");
        }
    }

    #[test]
    fn rates_land_near_their_targets() {
        let s = FaultSchedule::seeded(3, chaos_cfg());
        let n = 10_000;
        let transient =
            (0..n).filter(|&i| s.fault_for(i) == Fault::Transient).count() as f64 / n as f64;
        assert!((transient - 0.2).abs() < 0.02, "transient rate {transient} far from 0.2");
    }

    #[test]
    fn outage_windows_override_everything() {
        let mut cfg = chaos_cfg();
        cfg.outage = Some((10, 5));
        let s = FaultSchedule::seeded(1, cfg);
        for i in 10..15 {
            assert_eq!(s.fault_for(i), Fault::Outage);
        }
        assert_ne!(s.fault_for(15), Fault::Outage);
    }

    #[test]
    fn injected_faults_surface_as_the_right_errors() {
        let cfg = FaultConfig { transient_rate: 1.0, ..FaultConfig::default() };
        let clock = Arc::new(ManualClock::new());
        let sink = Arc::new(Recorder::new());
        let llm = FaultyLlm::new(
            ScriptedLlm::new(["ok"]),
            FaultSchedule::seeded(1, cfg),
            clock.clone() as Arc<dyn WaitClock>,
        )
        .with_sink(sink.clone());
        match llm.complete("p").unwrap_err() {
            Error::Transient { .. } => {}
            other => panic!("expected Transient, got {other:?}"),
        }
        assert_eq!(sink.of_kind("fault_injected").len(), 1);
        assert_eq!(llm.calls(), 1);
    }

    #[test]
    fn latency_spikes_spend_clock_time_not_wall_time() {
        let cfg =
            FaultConfig { latency_rate: 1.0, latency_micros: 30_000_000, ..Default::default() };
        let clock = Arc::new(ManualClock::new());
        let llm = FaultyLlm::new(
            ScriptedLlm::new(["ok"]),
            FaultSchedule::seeded(1, cfg),
            clock.clone() as Arc<dyn WaitClock>,
        );
        let wall = std::time::Instant::now();
        assert_eq!(llm.complete("p").unwrap().text, "ok");
        assert_eq!(mqo_obs::Clock::now_micros(&*clock), 30_000_000, "spike spent on the clock");
        assert!(wall.elapsed().as_millis() < 1_000, "…not in wall time");
    }

    #[test]
    fn truncation_and_malformed_still_bill() {
        let cfg = FaultConfig { truncated_rate: 1.0, ..Default::default() };
        let clock = Arc::new(ManualClock::new());
        let llm = FaultyLlm::new(
            ScriptedLlm::new(["Category: ['AI'] because reasons"]),
            FaultSchedule::seeded(1, cfg),
            clock.clone() as Arc<dyn WaitClock>,
        );
        let c = llm.complete("p").unwrap();
        assert!(c.text.len() < "Category: ['AI'] because reasons".len());
        assert!(llm.meter().totals().prompt_tokens > 0, "the cut-off answer was billed");

        let cfg = FaultConfig { malformed_rate: 1.0, ..Default::default() };
        let llm = FaultyLlm::new(
            ScriptedLlm::new(["Category: ['AI']"]),
            FaultSchedule::seeded(1, cfg),
            clock as Arc<dyn WaitClock>,
        );
        let c = llm.complete("p").unwrap();
        assert!(c.text.contains("drifted"), "got: {}", c.text);
    }

    #[test]
    fn config_parsing_round_trips_the_cli_spec() {
        let cfg = FaultConfig::parse(
            "error=0.1, malformed=0.05,rate-limit=0.02,latency=0.01,truncate=0.02,\
             retry-after-micros=5000,latency-micros=700,outage=40+10",
        )
        .unwrap();
        assert_eq!(cfg.transient_rate, 0.1);
        assert_eq!(cfg.malformed_rate, 0.05);
        assert_eq!(cfg.rate_limited_rate, 0.02);
        assert_eq!(cfg.latency_rate, 0.01);
        assert_eq!(cfg.truncated_rate, 0.02);
        assert_eq!(cfg.retry_after_micros, 5000);
        assert_eq!(cfg.latency_micros, 700);
        assert_eq!(cfg.outage, Some((40, 10)));
        assert!(FaultConfig::parse("error=2").is_err(), "rates above 1 rejected");
        assert!(FaultConfig::parse("bogus=1").is_err(), "unknown keys rejected");
        assert!(FaultConfig::parse("error=0.9,malformed=0.9").is_err(), "sum > 1 rejected");
        assert_eq!(FaultConfig::parse("").unwrap(), FaultConfig::default());
    }

    #[test]
    fn clean_schedules_pass_everything_through() {
        let clock = Arc::new(ManualClock::new());
        let sink = Arc::new(Recorder::new());
        let llm =
            FaultyLlm::new(ScriptedLlm::new(["a", "b"]), FaultSchedule::clean(), clock as _)
                .with_sink(sink.clone());
        assert_eq!(llm.complete("p").unwrap().text, "a");
        assert_eq!(llm.complete("p").unwrap().text, "b");
        assert!(sink.of_kind("fault_injected").is_empty());
    }
}
