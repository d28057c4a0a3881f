//! A caching + deduplicating decorator over any [`LanguageModel`].
//!
//! [`CachedLlm`] is the client-side MQO layer: it serves repeated prompts
//! from an LRU response cache (keyed by the canonical
//! [`mqo_cache::fingerprint()`] of model name + rendered prompt), coalesces
//! identical prompts that are *in flight* concurrently so only one request
//! reaches the model.
//!
//! Metering semantics: only requests that reach the inner client are
//! metered. A completion served from cache (or coalesced onto another
//! caller's request) comes back with **zeroed usage**, so
//! `meter().totals()` and per-query `prompt_tokens` both mean "tokens the
//! provider would bill", which is the quantity Eq. 2 budgets constrain.
//!
//! Staleness: the cache is epoch-invalidated at boosting round boundaries
//! (see [`mqo_cache::ResponseCache::advance_epoch`] and
//! [`CachedLlm::round_invalidator`]), so a completion produced under round
//! *k*'s pseudo-label knowledge is never served in round *k+1* — even when
//! the prompt text happens to be identical.
//!
//! Layering: wrap the *outermost* client (validation/retry included), so a
//! cache hit skips the whole stack and only validated completions are
//! cached.

use crate::error::Result;
use crate::model::{Completion, LanguageModel};
use mqo_cache::{fingerprint, CacheStats, ResponseCache, RoundInvalidator};
use mqo_obs::{Event, EventSink};
use mqo_token::{Tokenizer, Usage, UsageMeter};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};

/// One in-flight request identical prompts coalesce onto.
struct Flight {
    /// `None` while pending; the leader publishes the outcome.
    state: StdMutex<Option<Result<Completion>>>,
    done: Condvar,
}

/// Snapshot of everything the caching layer did during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CachedLlmStats {
    /// Response-cache counters (hits / misses / evictions / stale drops).
    pub cache: CacheStats,
    /// Requests coalesced onto an identical in-flight request.
    pub coalesced: u64,
    /// Prompt tokens that were *not* sent thanks to hits + coalescing.
    pub tokens_saved: u64,
}

impl CachedLlmStats {
    /// Fraction of lookups served without a metered request
    /// (hits + coalesced over all lookups; 0.0 when nothing was looked up).
    pub fn serve_rate(&self) -> f64 {
        let lookups = self.cache.hits + self.cache.misses;
        if lookups == 0 {
            0.0
        } else {
            (self.cache.hits + self.coalesced) as f64 / lookups as f64
        }
    }
}

/// Caching, deduplicating wrapper — see the module docs.
pub struct CachedLlm<L> {
    inner: L,
    cache: Arc<ResponseCache<Completion>>,
    in_flight: Mutex<HashMap<u64, Arc<Flight>>>,
    coalesced: AtomicU64,
    tokens_saved: AtomicU64,
    /// Prompt token counts memoized by the same fingerprint the cache is
    /// keyed on: a served hit re-sees a prompt the wrapper has already
    /// tokenized, so the O(len) count collapses to a hash lookup.
    prompt_tokens: Mutex<HashMap<u64, u64>>,
}

impl<L: LanguageModel> CachedLlm<L> {
    /// Wrap `inner` with a response cache bounded to `capacity` entries.
    /// A capacity of 0 disables caching *and* coalescing — the wrapper
    /// becomes a transparent pass-through (the `--no-cache` baseline).
    pub fn new(inner: L, capacity: usize) -> Self {
        CachedLlm {
            inner,
            cache: Arc::new(ResponseCache::new(capacity)),
            in_flight: Mutex::new(HashMap::new()),
            coalesced: AtomicU64::new(0),
            tokens_saved: AtomicU64::new(0),
            prompt_tokens: Mutex::new(HashMap::new()),
        }
    }

    /// Access the wrapped client.
    pub fn inner(&self) -> &L {
        &self.inner
    }

    /// The shared response cache (for epoch wiring and tests).
    pub fn cache(&self) -> &Arc<ResponseCache<Completion>> {
        &self.cache
    }

    /// An event sink that advances the cache epoch on every completed
    /// boosting round; tee it into the executor's sink so round-based
    /// invalidation rides the existing telemetry stream.
    pub fn round_invalidator(&self) -> RoundInvalidator<Completion> {
        RoundInvalidator::new(self.cache.clone())
    }

    /// Counters snapshot.
    pub fn stats(&self) -> CachedLlmStats {
        CachedLlmStats {
            cache: self.cache.stats(),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            tokens_saved: self.tokens_saved.load(Ordering::Relaxed),
        }
    }

    /// Emit a [`Event::CacheStats`] snapshot to `sink` (call once at the
    /// end of a run, before rendering the summary).
    pub fn report(&self, sink: &dyn EventSink) {
        let s = self.stats();
        sink.emit(&Event::CacheStats {
            hits: s.cache.hits,
            misses: s.cache.misses,
            evictions: s.cache.evictions,
            stale_drops: s.cache.stale_drops,
            coalesced: s.coalesced,
            tokens_saved: s.tokens_saved,
        })
    }

    /// A served-from-cache completion: same text, zero billed usage, with
    /// the tokens the serve avoided carried in `cache_saved_tokens` so the
    /// cost ledger can attribute the saving (zeroed `usage` alone is
    /// ambiguous — lenient parse recoveries also return zero usage).
    fn served(&self, fp_key: u64, prompt: &str, cached: &Completion) -> Completion {
        let saved = *self
            .prompt_tokens
            .lock()
            .entry(fp_key)
            .or_insert_with(|| Tokenizer.count(prompt) as u64);
        self.tokens_saved.fetch_add(saved, Ordering::Relaxed);
        Completion {
            text: cached.text.clone(),
            usage: Usage::default(),
            cache_saved_tokens: saved,
        }
    }
}

impl<L: LanguageModel> LanguageModel for CachedLlm<L> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, prompt: &str) -> Result<Completion> {
        if !self.cache.enabled() {
            return self.inner.complete(prompt);
        }
        let fp = fingerprint(self.inner.name(), prompt);
        if let Some(c) = self.cache.get(fp) {
            return Ok(self.served(fp.0, prompt, &c));
        }

        // Miss: either join an identical in-flight request or lead one.
        let (flight, leader) = {
            let mut map = self.in_flight.lock();
            match map.get(&fp.0) {
                Some(f) => (f.clone(), false),
                None => {
                    let f =
                        Arc::new(Flight { state: StdMutex::new(None), done: Condvar::new() });
                    map.insert(fp.0, f.clone());
                    (f, true)
                }
            }
        };

        if !leader {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            let mut state = flight.state.lock().unwrap_or_else(|e| e.into_inner());
            while state.is_none() {
                state = flight.done.wait(state).unwrap_or_else(|e| e.into_inner());
            }
            return match state.as_ref().expect("published") {
                Ok(c) => Ok(self.served(fp.0, prompt, c)),
                Err(e) => Err(e.clone()),
            };
        }

        // Leader: this request actually reaches the model.
        let result = self.inner.complete(prompt);
        if let Ok(c) = &result {
            self.cache.insert(fp, c.clone());
        }
        // Retire the flight *after* the cache insert so late arrivals
        // either coalesce (entry still present) or hit the cache.
        self.in_flight.lock().remove(&fp.0);
        let mut state = flight.state.lock().unwrap_or_else(|e| e.into_inner());
        *state = Some(result.clone());
        flight.done.notify_all();
        result
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
    use std::sync::Barrier;

    fn prompt(i: usize) -> String {
        format!("Target paper: Title: paper {i}\nAbstract: text\n\nTask:\nCategories:\n[A]")
    }

    #[test]
    fn repeat_prompt_is_served_from_cache_unmetered() {
        let llm = CachedLlm::new(ScriptedLlm::new(["Category: ['A']"]), 16);
        let first = llm.complete(&prompt(0)).unwrap();
        assert!(first.usage.prompt_tokens > 0, "leader request is metered");
        let second = llm.complete(&prompt(0)).unwrap();
        assert_eq!(second.text, first.text);
        assert_eq!(second.usage, Usage::default(), "hit is not billed");
        assert_eq!(first.cache_saved_tokens, 0, "leader saved nothing");
        assert_eq!(
            second.cache_saved_tokens,
            Tokenizer.count(&prompt(0)) as u64,
            "serve carries the avoided prompt tokens for the cost ledger"
        );
        assert_eq!(llm.meter().totals().requests, 1, "one request reached the model");
        let s = llm.stats();
        assert_eq!((s.cache.hits, s.cache.misses), (1, 1));
        assert!(s.tokens_saved > 0);
        assert!(s.serve_rate() > 0.49);
    }

    #[test]
    fn distinct_prompts_do_not_collide() {
        let llm = CachedLlm::new(ScriptedLlm::new(["Category: ['A']", "Category: ['B']"]), 16);
        assert_eq!(llm.complete(&prompt(0)).unwrap().text, "Category: ['A']");
        assert_eq!(llm.complete(&prompt(1)).unwrap().text, "Category: ['B']");
        assert_eq!(llm.stats().cache.hits, 0);
    }

    #[test]
    fn zero_capacity_is_a_transparent_pass_through() {
        let llm = CachedLlm::new(ScriptedLlm::new(["a", "b"]), 0);
        assert_eq!(llm.complete(&prompt(0)).unwrap().text, "a");
        assert_eq!(llm.complete(&prompt(0)).unwrap().text, "b", "no caching at cap 0");
        assert_eq!(llm.meter().totals().requests, 2);
    }

    #[test]
    fn errors_are_not_cached() {
        let llm = CachedLlm::new(ScriptedLlm::new(Vec::<String>::new()), 16);
        assert!(matches!(llm.complete(&prompt(0)), Err(Error::ScriptExhausted)));
        // The failure must not poison future successes for the same prompt.
        let llm = CachedLlm::new(ScriptedLlm::new(["ok"]), 16);
        assert!(llm.complete(&prompt(1)).is_ok());
    }

    #[test]
    fn round_invalidation_forces_a_fresh_request() {
        let llm = CachedLlm::new(ScriptedLlm::new(["first", "second"]), 16);
        assert_eq!(llm.complete(&prompt(0)).unwrap().text, "first");
        llm.round_invalidator().emit(&Event::RoundCompleted {
            round: 0,
            executed: 1,
            gamma1: 3,
            gamma2: 2,
            pseudo_label_uses: 0,
        });
        assert_eq!(llm.complete(&prompt(0)).unwrap().text, "second", "no stale hit");
        assert_eq!(llm.stats().cache.stale_drops, 1);
    }

    #[test]
    fn concurrent_identical_prompts_coalesce_to_one_request() {
        // A model that blocks until every caller has arrived, proving the
        // requests were truly concurrent, then answers once.
        struct Gated {
            barrier: Barrier,
            inner: ScriptedLlm,
        }
        impl LanguageModel for Gated {
            fn name(&self) -> &str {
                "gated"
            }
            fn complete(&self, prompt: &str) -> Result<Completion> {
                // Only the leader reaches this; waiters block on the
                // flight, so waiting here for them proves coalescing
                // rather than serialization.
                self.barrier.wait();
                self.inner.complete(prompt)
            }
            fn meter(&self) -> &UsageMeter {
                self.inner.meter()
            }
        }
        let llm = CachedLlm::new(
            Gated { barrier: Barrier::new(2), inner: ScriptedLlm::new(["answer"]) },
            16,
        );
        let p = prompt(0);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|i| {
                    let llm = &llm;
                    let p = &p;
                    s.spawn(move || {
                        if i == 2 {
                            // Late arrival: release the leader once the
                            // waiters are queued behind the flight.
                            std::thread::sleep(std::time::Duration::from_millis(50));
                            llm.inner().barrier.wait();
                            None
                        } else {
                            Some(llm.complete(p).unwrap().text)
                        }
                    })
                })
                .collect();
            for h in handles {
                if let Some(text) = h.join().unwrap() {
                    assert_eq!(text, "answer");
                }
            }
        });
        assert_eq!(llm.meter().totals().requests, 1, "exactly one request was sent");
        let s = llm.stats();
        assert_eq!(s.coalesced, 1, "the second caller coalesced");
    }

    /// Only the prompts that reach the model are metered: a hit is
    /// neither sent nor billed, so any analysis of sent traffic (the
    /// `prefix_sharing` experiment's prefix store) sees just the misses.
    #[test]
    fn prefix_store_sees_only_sent_traffic() {
        let llm = CachedLlm::new(ScriptedLlm::new(["x", "y"]), 16);
        llm.complete(&prompt(0)).unwrap();
        llm.complete(&prompt(0)).unwrap(); // hit: not sent
        llm.complete(&prompt(1)).unwrap();
        let sent = (Tokenizer.count(&prompt(0)) + Tokenizer.count(&prompt(1))) as u64;
        let totals = llm.meter().totals();
        assert_eq!(totals.requests, 2, "the hit never reached the model");
        assert_eq!(totals.prompt_tokens, sent, "only sent prompts are billed");
        let s = llm.stats();
        assert_eq!((s.cache.hits, s.cache.misses), (1, 2));
        assert_eq!(s.tokens_saved, Tokenizer.count(&prompt(0)) as u64);
    }

    #[test]
    fn report_emits_one_cache_stats_event() {
        let llm = CachedLlm::new(ScriptedLlm::new(["x"]), 16);
        llm.complete(&prompt(0)).unwrap();
        llm.complete(&prompt(0)).unwrap();
        let sink = mqo_obs::Recorder::new();
        llm.report(&sink);
        let events = sink.of_kind("cache_stats");
        assert_eq!(events.len(), 1);
        match &events[0] {
            Event::CacheStats { hits, misses, tokens_saved, .. } => {
                assert_eq!(*hits, 1);
                assert_eq!(*misses, 1);
                assert!(*tokens_saved > 0);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
}
