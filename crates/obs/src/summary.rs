//! One-screen run summaries aggregated from an event stream.

use crate::event::Event;
use crate::metrics::Histogram;
use std::fmt;

/// Aggregate view of a traced run: what `--trace` prints after the table.
#[derive(Debug)]
pub struct Summary {
    /// Queries executed.
    pub queries: u64,
    /// Queries whose prompt had neighbor text stripped.
    pub pruned: u64,
    /// Queries whose response failed to parse.
    pub parse_failed: u64,
    /// Prompt-token distribution across executed queries.
    pub prompt_tokens: Histogram,
    /// Per-query wall-time distribution (microseconds).
    pub latency: Histogram,
    /// Retry attempts observed.
    pub retries: u64,
    /// Retry sequences that gave up.
    pub retries_exhausted: u64,
    /// Boosting rounds completed.
    pub rounds: u64,
    /// Pseudo-label slots that reached prompts, summed over rounds.
    pub pseudo_label_uses: u64,
    /// Workers that reported throughput.
    pub workers: u64,
    /// Budget-pressure events (0 or 1 per meter).
    pub budget_pressure: u64,
    /// Response-cache hits (summed over cache-stats snapshots).
    pub cache_hits: u64,
    /// Response-cache misses.
    pub cache_misses: u64,
    /// LRU evictions.
    pub cache_evictions: u64,
    /// Entries dropped by round-based invalidation.
    pub cache_stale_drops: u64,
    /// Requests coalesced onto identical in-flight requests.
    pub cache_coalesced: u64,
    /// Prompt tokens never sent thanks to the cache.
    pub cache_tokens_saved: u64,
    /// Causal spans opened.
    pub spans: u64,
    /// Ledger: tokens prompts would cost fully rendered.
    pub cost_rendered_tokens: u64,
    /// Ledger: tokens billed across attributed queries.
    pub cost_billed_tokens: u64,
    /// Ledger: tokens saved by pruning / budget downgrades.
    pub cost_pruned_saved_tokens: u64,
    /// Ledger: tokens avoided by cache serves and dedup.
    pub cost_cache_saved_tokens: u64,
    /// Ledger: tokens refused by the hard budget.
    pub cost_starved_tokens: u64,
    /// Ledger: tokens of prompts whose query terminally failed.
    pub cost_failed_tokens: u64,
    /// Ledger: tokens spent on pseudo-label cue lines.
    pub cost_enrichment_tokens: u64,
    /// Backoff/pacing waits taken by the resilience layer.
    pub backoff_waits: u64,
    /// Microseconds spent in backoff/pacing waits.
    pub backoff_wait_micros: u64,
    /// Circuit-breaker state transitions.
    pub breaker_transitions: u64,
    /// Faults injected by the chaos harness.
    pub faults_injected: u64,
    /// Queries recorded as terminally failed.
    pub queries_failed: u64,
    /// Parallel workers lost to panics.
    pub workers_lost: u64,
    /// Queries served from the run journal on resume.
    pub queries_replayed: u64,
}

impl Summary {
    /// Aggregate `events` (any order).
    pub fn from_events(events: &[Event]) -> Self {
        let mut s = Summary {
            queries: 0,
            pruned: 0,
            parse_failed: 0,
            prompt_tokens: Histogram::token_buckets(),
            latency: Histogram::latency_buckets(),
            retries: 0,
            retries_exhausted: 0,
            rounds: 0,
            pseudo_label_uses: 0,
            workers: 0,
            budget_pressure: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
            cache_stale_drops: 0,
            cache_coalesced: 0,
            cache_tokens_saved: 0,
            spans: 0,
            cost_rendered_tokens: 0,
            cost_billed_tokens: 0,
            cost_pruned_saved_tokens: 0,
            cost_cache_saved_tokens: 0,
            cost_starved_tokens: 0,
            cost_failed_tokens: 0,
            cost_enrichment_tokens: 0,
            backoff_waits: 0,
            backoff_wait_micros: 0,
            breaker_transitions: 0,
            faults_injected: 0,
            queries_failed: 0,
            workers_lost: 0,
            queries_replayed: 0,
        };
        for e in events {
            match e {
                Event::QueryExecuted {
                    prompt_tokens,
                    pruned,
                    parse_failed,
                    wall_micros,
                    ..
                } => {
                    s.queries += 1;
                    s.pruned += u64::from(*pruned);
                    s.parse_failed += u64::from(*parse_failed);
                    s.prompt_tokens.record(*prompt_tokens);
                    s.latency.record(*wall_micros);
                }
                Event::WorkerThroughput { .. } => s.workers += 1,
                Event::RoundCompleted { pseudo_label_uses, .. } => {
                    s.rounds += 1;
                    s.pseudo_label_uses += pseudo_label_uses;
                }
                Event::RetryAttempt { .. } => s.retries += 1,
                Event::RetryExhausted { .. } => s.retries_exhausted += 1,
                Event::BudgetPressure { .. } => s.budget_pressure += 1,
                Event::CacheStats {
                    hits,
                    misses,
                    evictions,
                    stale_drops,
                    coalesced,
                    tokens_saved,
                } => {
                    s.cache_hits += hits;
                    s.cache_misses += misses;
                    s.cache_evictions += evictions;
                    s.cache_stale_drops += stale_drops;
                    s.cache_coalesced += coalesced;
                    s.cache_tokens_saved += tokens_saved;
                }
                Event::SpanEnter { .. } => s.spans += 1,
                Event::SpanExit { .. } => {}
                Event::BackoffWait { wait_micros, .. } => {
                    s.backoff_waits += 1;
                    s.backoff_wait_micros += wait_micros;
                }
                Event::BreakerTransition { .. } => s.breaker_transitions += 1,
                Event::FaultInjected { .. } => s.faults_injected += 1,
                Event::QueryFailed { .. } => s.queries_failed += 1,
                Event::WorkerLost { .. } => s.workers_lost += 1,
                Event::QueryReplayed { .. } => s.queries_replayed += 1,
                Event::QueryCost {
                    rendered_tokens,
                    billed_tokens,
                    pruned_saved_tokens,
                    cache_saved_tokens,
                    starved_tokens,
                    failed_tokens,
                    enrichment_tokens,
                    ..
                } => {
                    s.cost_rendered_tokens += rendered_tokens;
                    s.cost_billed_tokens += billed_tokens;
                    s.cost_pruned_saved_tokens += pruned_saved_tokens;
                    s.cost_cache_saved_tokens += cache_saved_tokens;
                    s.cost_starved_tokens += starved_tokens;
                    s.cost_failed_tokens += failed_tokens;
                    s.cost_enrichment_tokens += enrichment_tokens;
                }
                // Serve-side overload/chaos transitions don't aggregate
                // into the batch-run summary; they surface through the
                // metrics registry and the flight recorder instead.
                Event::RequestShed { .. }
                | Event::DeadlineExpired { .. }
                | Event::BrownoutEnter { .. }
                | Event::BrownoutExit { .. }
                | Event::ChaosInjected { .. }
                | Event::ShardLabelsPushed { .. }
                | Event::ShardLabelsIngested { .. } => {}
            }
        }
        s
    }

    /// Fraction of executed queries that were pruned (0.0 when empty).
    pub fn prune_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.pruned as f64 / self.queries as f64
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "trace summary")?;
        writeln!(f, "  queries executed   {:>8}", self.queries)?;
        writeln!(
            f,
            "  prompt tokens      {:>8} p50   {:>8} p99   {:>10.1} mean",
            self.prompt_tokens.quantile(0.5),
            self.prompt_tokens.quantile(0.99),
            self.prompt_tokens.mean(),
        )?;
        writeln!(
            f,
            "  query latency (µs) {:>8} p50   {:>8} p99",
            self.latency.quantile(0.5),
            self.latency.quantile(0.99),
        )?;
        writeln!(
            f,
            "  prune rate         {:>7.1}%   ({} of {})",
            100.0 * self.prune_rate(),
            self.pruned,
            self.queries,
        )?;
        writeln!(f, "  parse failures     {:>8}", self.parse_failed)?;
        writeln!(
            f,
            "  retries            {:>8}   ({} exhausted)",
            self.retries, self.retries_exhausted,
        )?;
        writeln!(
            f,
            "  boosting rounds    {:>8}   ({} pseudo-label uses)",
            self.rounds, self.pseudo_label_uses,
        )?;
        if self.workers > 0 {
            writeln!(f, "  parallel workers   {:>8}", self.workers)?;
        }
        if self.cache_hits + self.cache_misses > 0 {
            writeln!(
                f,
                "  cache              {:>8} hit   {:>8} miss  ({} evict, {} stale, {} coalesced)",
                self.cache_hits,
                self.cache_misses,
                self.cache_evictions,
                self.cache_stale_drops,
                self.cache_coalesced,
            )?;
            writeln!(f, "  tokens saved       {:>8}", self.cache_tokens_saved)?;
        }
        if self.budget_pressure > 0 {
            writeln!(f, "  budget pressure    {:>8} event(s)", self.budget_pressure)?;
        }
        if self.spans > 0 {
            writeln!(f, "  causal spans       {:>8}", self.spans)?;
        }
        if self.faults_injected + self.backoff_waits + self.breaker_transitions > 0 {
            writeln!(
                f,
                "  resilience         {:>8} fault(s)   {} backoff wait(s) ({} µs), {} breaker transition(s)",
                self.faults_injected,
                self.backoff_waits,
                self.backoff_wait_micros,
                self.breaker_transitions,
            )?;
        }
        if self.queries_failed + self.workers_lost > 0 {
            writeln!(
                f,
                "  degraded           {:>8} failed query(ies), {} worker(s) lost",
                self.queries_failed, self.workers_lost,
            )?;
        }
        if self.queries_replayed > 0 {
            writeln!(f, "  journal replays    {:>8}", self.queries_replayed)?;
        }
        if self.cost_rendered_tokens > 0 {
            writeln!(
                f,
                "  token cost         {:>8} billed = {} rendered - {} pruned - {} cached - {} starved - {} failed",
                self.cost_billed_tokens,
                self.cost_rendered_tokens,
                self.cost_pruned_saved_tokens,
                self.cost_cache_saved_tokens,
                self.cost_starved_tokens,
                self.cost_failed_tokens,
            )?;
            writeln!(f, "  enrichment tokens  {:>8}", self.cost_enrichment_tokens)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(tokens: u64, pruned: bool) -> Event {
        Event::QueryExecuted {
            node: 0,
            prompt_tokens: tokens,
            pruned,
            parse_failed: false,
            wall_micros: 100,
        }
    }

    #[test]
    fn aggregates_the_whole_vocabulary() {
        let events = vec![
            q(100, false),
            q(300, true),
            q(500, false),
            q(700, true),
            Event::RoundCompleted {
                round: 0,
                executed: 4,
                gamma1: 3,
                gamma2: 2,
                pseudo_label_uses: 5,
            },
            Event::RetryAttempt { attempt: 1, max_attempts: 3, error: "x".into() },
            Event::RetryExhausted { attempts: 3, error: "x".into() },
            Event::WorkerThroughput { worker: 0, queries: 4, wall_micros: 400 },
            Event::BudgetPressure { budget: 10, prompt_tokens_used: 9, denied_cost: 2 },
            Event::CacheStats {
                hits: 7,
                misses: 4,
                evictions: 1,
                stale_drops: 2,
                coalesced: 3,
                tokens_saved: 900,
            },
            Event::SpanEnter {
                id: 1,
                parent: 0,
                name: "run".into(),
                detail: String::new(),
                track: 0,
                at_micros: 0,
            },
            Event::SpanExit { id: 1, at_micros: 10 },
            Event::QueryCost {
                node: 1,
                rendered_tokens: 500,
                billed_tokens: 350,
                pruned_saved_tokens: 100,
                cache_saved_tokens: 50,
                starved_tokens: 0,
                failed_tokens: 0,
                enrichment_tokens: 6,
                trace: String::new(),
            },
            Event::BackoffWait {
                consecutive_failures: 1,
                wait_micros: 800,
                rate_limited: true,
            },
            Event::BreakerTransition {
                from: "closed".into(),
                to: "open".into(),
                consecutive_failures: 5,
            },
            Event::FaultInjected { call: 0, fault: "transient".into() },
            Event::QueryFailed { node: 3, error: "outage".into() },
            Event::WorkerLost { worker: 1, node: 4, detail: "panicked".into() },
            Event::QueryReplayed { node: 5 },
        ];
        let s = Summary::from_events(&events);
        assert_eq!(s.queries, 4);
        assert_eq!(s.pruned, 2);
        assert!((s.prune_rate() - 0.5).abs() < 1e-9);
        assert_eq!(s.rounds, 1);
        assert_eq!(s.pseudo_label_uses, 5);
        assert_eq!(s.retries, 1);
        assert_eq!(s.retries_exhausted, 1);
        assert_eq!(s.workers, 1);
        assert_eq!(s.budget_pressure, 1);
        assert_eq!((s.cache_hits, s.cache_misses), (7, 4));
        assert_eq!(s.cache_coalesced, 3);
        assert_eq!(s.cache_tokens_saved, 900);
        assert_eq!(s.spans, 1);
        assert_eq!(s.cost_rendered_tokens, 500);
        assert_eq!(s.cost_billed_tokens, 350);
        assert_eq!(s.cost_cache_saved_tokens, 50);
        assert_eq!(s.cost_enrichment_tokens, 6);
        assert_eq!((s.backoff_waits, s.backoff_wait_micros), (1, 800));
        assert_eq!(s.breaker_transitions, 1);
        assert_eq!(s.faults_injected, 1);
        assert_eq!(s.queries_failed, 1);
        assert_eq!(s.workers_lost, 1);
        assert_eq!(s.queries_replayed, 1);
        // p50 of {100, 300, 500, 700} resolves to 300's bucket.
        assert_eq!(s.prompt_tokens.quantile(0.5), 320);
    }

    #[test]
    fn display_fits_one_screen() {
        let s = Summary::from_events(&[q(128, false)]);
        let text = s.to_string();
        assert!(text.lines().count() <= 12, "summary too tall:\n{text}");
        assert!(text.contains("p50"));
        assert!(text.contains("prune rate"));
    }
}
