//! A retrying decorator over any [`LanguageModel`].
//!
//! Production clients retry transient failures and malformed completions;
//! nudging the prompt with a retry marker (as real clients append a
//! "please answer in the requested format" reminder) gives a stochastic
//! model a fresh decision. Every attempt's tokens are metered by the
//! underlying client — retries are not free, which matters in an MQO
//! setting — and every retry is visible to telemetry as
//! [`Event::RetryAttempt`] / [`Event::RetryExhausted`].

use crate::error::{Error, Result};
use crate::model::{Completion, LanguageModel};
use mqo_obs::{Event, EventSink, NullSink, Tracer};
use mqo_token::{Tokenizer, UsageMeter};
use std::sync::Arc;

/// Marker appended to retried prompts (also used by tests to detect
/// retries). Appended to the *original* prompt exactly once, no matter
/// how many attempts follow — attempt 3 sees the same prompt as attempt 2.
pub const RETRY_SUFFIX: &str = "\nPlease answer strictly in the requested format.";

/// Wraps a client with bounded retries on error.
///
/// Retries are not free: the underlying client meters every attempt's
/// prompt tokens. Under an Eq. 2 hard budget that spend is real, so a
/// budget-aware instance ([`RetryingLlm::with_budget`]) re-checks each
/// re-send against the meter before issuing it and withholds retries the
/// budget cannot afford ([`Error::RetryBudgetExhausted`]).
pub struct RetryingLlm<L> {
    inner: L,
    max_attempts: u32,
    budget: Option<u64>,
    sink: Arc<dyn EventSink>,
    tracer: Option<Arc<Tracer>>,
}

impl<L: LanguageModel> RetryingLlm<L> {
    /// Retry up to `max_attempts` total attempts (≥ 1).
    pub fn new(inner: L, max_attempts: u32) -> Self {
        assert!(max_attempts >= 1, "need at least one attempt");
        RetryingLlm {
            inner,
            max_attempts,
            budget: None,
            sink: Arc::new(NullSink),
            tracer: None,
        }
    }

    /// Enforce the Eq. 2 hard budget on re-sends: a retry whose prompt
    /// (base + suffix) no longer fits inside `budget` is withheld.
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Report retries to `sink`.
    pub fn with_sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Open a `retry` span per re-attempt, parented to the caller's
    /// current span (the executor's `llm_call`), so retries nest inside
    /// the query they belong to in the Chrome trace.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Access the wrapped client.
    pub fn inner(&self) -> &L {
        &self.inner
    }
}

impl<L: LanguageModel> LanguageModel for RetryingLlm<L> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, prompt: &str) -> Result<Completion> {
        // The retry prompt and its token cost, built on the first retry
        // from the original prompt (so the suffix can never stack) and
        // never on a first-attempt success.
        let mut retry: Option<(String, u64)> = None;
        let mut attempts = 0;
        let err = loop {
            let _retry_span = match (&self.tracer, attempts) {
                (Some(t), a) if a > 0 => Some(t.span(
                    &*self.sink,
                    "retry",
                    || format!("attempt {}", a + 1),
                    t.current(),
                )),
                _ => None,
            };
            let attempt_prompt = retry.as_ref().map_or(prompt, |(p, _)| p.as_str());
            attempts += 1;
            match self.inner.complete(attempt_prompt) {
                Ok(c) => return Ok(c),
                Err(e) if attempts < self.max_attempts && e.is_retriable() => {
                    let retry_cost = retry
                        .get_or_insert_with(|| {
                            let p = format!("{prompt}{RETRY_SUFFIX}");
                            let cost = Tokenizer.count(&p) as u64;
                            (p, cost)
                        })
                        .1;
                    // Each attempt is metered, so the re-send must fit the
                    // Eq. 2 hard budget like any first send would.
                    if let Some(budget) = self.budget {
                        if self.inner.meter().would_exceed(retry_cost, budget) {
                            break Error::RetryBudgetExhausted { retry_cost, budget };
                        }
                    }
                    self.sink.emit(&Event::RetryAttempt {
                        attempt: attempts,
                        max_attempts: self.max_attempts,
                        error: e.to_string(),
                    });
                }
                Err(e) => break e,
            }
        };
        self.sink.emit(&Event::RetryExhausted { attempts, error: err.to_string() });
        Err(err)
    }

    fn meter(&self) -> &UsageMeter {
        self.inner.meter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use crate::model::ScriptedLlm;
    use mqo_obs::Recorder;
    use parking_lot::Mutex;

    /// A model that fails N times before succeeding.
    struct Flaky {
        failures_left: Mutex<u32>,
        meter: UsageMeter,
    }

    impl LanguageModel for Flaky {
        fn name(&self) -> &str {
            "flaky"
        }
        fn complete(&self, _prompt: &str) -> Result<Completion> {
            let mut left = self.failures_left.lock();
            if *left > 0 {
                *left -= 1;
                return Err(Error::MalformedResponse { response: "garbage".into() });
            }
            Ok(Completion::billed("Category: ['X']", Default::default()))
        }
        fn meter(&self) -> &UsageMeter {
            &self.meter
        }
    }

    #[test]
    fn succeeds_after_transient_failures() {
        let flaky = Flaky { failures_left: Mutex::new(2), meter: UsageMeter::new() };
        let retrying = RetryingLlm::new(flaky, 3);
        assert!(retrying.complete("p").is_ok());
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let flaky = Flaky { failures_left: Mutex::new(5), meter: UsageMeter::new() };
        let retrying = RetryingLlm::new(flaky, 3);
        assert!(retrying.complete("p").is_err());
        assert_eq!(*retrying.inner().failures_left.lock(), 2, "exactly 3 attempts made");
    }

    #[test]
    fn retried_prompts_carry_the_format_reminder() {
        // An exhausted script fails every attempt, so all three prompts
        // reach the model; attempts 2+ must carry the retry suffix.
        let scripted = ScriptedLlm::new(Vec::<String>::new());
        let retrying = RetryingLlm::new(scripted, 3);
        assert!(retrying.complete("base prompt").is_err());
        let prompts = retrying.inner().prompts_seen();
        assert_eq!(prompts.len(), 3, "every attempt reaches the model");
        assert_eq!(prompts[0], "base prompt");
        for p in &prompts[1..] {
            assert_eq!(p, &format!("base prompt{RETRY_SUFFIX}"));
        }
        // A first-attempt success never sees the suffix.
        let scripted = ScriptedLlm::new(["ok"]);
        let retrying = RetryingLlm::new(scripted, 3);
        assert_eq!(retrying.complete("base prompt").unwrap().text, "ok");
        assert_eq!(retrying.inner().prompts_seen(), vec!["base prompt".to_string()]);
    }

    #[test]
    fn retries_are_visible_to_telemetry() {
        let sink = Arc::new(Recorder::new());
        let flaky = Flaky { failures_left: Mutex::new(1), meter: UsageMeter::new() };
        let retrying = RetryingLlm::new(flaky, 3).with_sink(sink.clone());
        assert!(retrying.complete("p").is_ok());
        let attempts = sink.of_kind("retry_attempt");
        assert_eq!(attempts.len(), 1);
        assert_eq!(
            attempts[0],
            Event::RetryAttempt {
                attempt: 1,
                max_attempts: 3,
                error: "could not parse LLM response: \"garbage\"".to_string(),
            }
        );
        assert!(sink.of_kind("retry_exhausted").is_empty());

        let sink = Arc::new(Recorder::new());
        let flaky = Flaky { failures_left: Mutex::new(9), meter: UsageMeter::new() };
        let retrying = RetryingLlm::new(flaky, 2).with_sink(sink.clone());
        assert!(retrying.complete("p").is_err());
        assert_eq!(sink.of_kind("retry_attempt").len(), 1);
        assert_eq!(sink.of_kind("retry_exhausted").len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn zero_attempts_rejected() {
        RetryingLlm::new(ScriptedLlm::new(["x"]), 0);
    }

    #[test]
    fn the_suffix_never_stacks_even_on_attempt_three() {
        let scripted = ScriptedLlm::new(Vec::<String>::new());
        let retrying = RetryingLlm::new(scripted, 4);
        assert!(retrying.complete("base").is_err());
        let prompts = retrying.inner().prompts_seen();
        assert_eq!(prompts.len(), 4);
        for (i, p) in prompts.iter().enumerate().skip(1) {
            assert_eq!(
                p.matches(RETRY_SUFFIX).count(),
                1,
                "attempt {} must carry exactly one reminder: {p:?}",
                i + 1
            );
        }
    }

    #[test]
    fn budget_gated_retries_are_withheld_not_sent() {
        // Each failed ScriptedLlm attempt still meters its prompt, so a
        // tight budget runs out between attempts; the retry layer must
        // notice *before* re-sending.
        let scripted = ScriptedLlm::new(Vec::<String>::new());
        let base = "one two three four five six seven eight";
        let budget = (Tokenizer.count(base) + 2) as u64;
        let sink = Arc::new(Recorder::new());
        let retrying =
            RetryingLlm::new(scripted, 3).with_budget(budget).with_sink(sink.clone());
        let err = retrying.complete(base).unwrap_err();
        match err {
            Error::RetryBudgetExhausted { retry_cost, budget: b } => {
                assert_eq!(b, budget);
                assert!(retry_cost > budget, "suffix pushed the re-send over");
            }
            other => panic!("expected RetryBudgetExhausted, got {other:?}"),
        }
        assert_eq!(
            retrying.inner().prompts_seen().len(),
            1,
            "the unaffordable re-send never reaches the model"
        );
        assert!(sink.of_kind("retry_attempt").is_empty(), "no re-send, no retry event");
        assert_eq!(sink.of_kind("retry_exhausted").len(), 1);
    }

    #[test]
    fn affordable_retries_still_run_under_a_budget() {
        let scripted = ScriptedLlm::new(Vec::<String>::new());
        let retrying = RetryingLlm::new(scripted, 3).with_budget(1_000_000);
        assert!(retrying.complete("base").is_err());
        assert_eq!(retrying.inner().prompts_seen().len(), 3, "budget is not binding");
    }

    #[test]
    fn non_retriable_errors_short_circuit() {
        struct Refusing(UsageMeter);
        impl LanguageModel for Refusing {
            fn name(&self) -> &str {
                "refusing"
            }
            fn complete(&self, _prompt: &str) -> Result<Completion> {
                Err(Error::CircuitOpen { retry_in_micros: 500 })
            }
            fn meter(&self) -> &UsageMeter {
                &self.0
            }
        }
        let sink = Arc::new(Recorder::new());
        let retrying = RetryingLlm::new(Refusing(UsageMeter::new()), 5).with_sink(sink.clone());
        assert_eq!(
            retrying.complete("p").unwrap_err(),
            Error::CircuitOpen { retry_in_micros: 500 }
        );
        assert!(sink.of_kind("retry_attempt").is_empty(), "breaker refusals are not retried");
    }

    #[test]
    fn re_attempts_open_retry_spans() {
        let sink = Arc::new(Recorder::new());
        let tracer = Arc::new(Tracer::new(Arc::new(mqo_obs::ManualClock::new())));
        let flaky = Flaky { failures_left: Mutex::new(2), meter: UsageMeter::new() };
        let retrying = RetryingLlm::new(flaky, 3).with_sink(sink.clone()).with_tracer(tracer);
        assert!(retrying.complete("p").is_ok());
        let enters = sink.of_kind("span_enter");
        assert_eq!(enters.len(), 2, "one span per re-attempt, none for attempt 1");
        match &enters[0] {
            Event::SpanEnter { name, detail, .. } => {
                assert_eq!(name, "retry");
                assert_eq!(detail, "attempt 2");
            }
            other => panic!("unexpected event {other:?}"),
        }
        assert_eq!(sink.of_kind("span_exit").len(), 2, "spans close even on error paths");
    }
}
