//! The structured event vocabulary of the MQO pipeline.
//!
//! Events are small owned values: emitting one must never borrow from the
//! hot path, and a sink may stash them indefinitely (the in-memory
//! [`crate::Recorder`] does exactly that).

use std::fmt::Write as _;

/// One observable occurrence inside the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// One query finished in `Executor::run_one`: the prompt was built
    /// (and possibly budget-pruned), sent, and the response parsed.
    QueryExecuted {
        /// Query node id.
        node: u32,
        /// Prompt-side tokens of the prompt actually sent.
        prompt_tokens: u64,
        /// Whether neighbor text was stripped (Algorithm 1 or budget).
        pruned: bool,
        /// Whether the response failed to parse into a known class.
        parse_failed: bool,
        /// Wall-clock time for the query, in microseconds.
        wall_micros: u64,
    },
    /// One worker of a scheduler pool drained its share (one per worker
    /// per run).
    WorkerThroughput {
        /// Worker index (0-based).
        worker: u32,
        /// Queries this worker executed.
        queries: u64,
        /// Wall-clock time the worker spent, in microseconds.
        wall_micros: u64,
    },
    /// One round of Algorithm 2 (query boosting) completed.
    RoundCompleted {
        /// Round index (0-based).
        round: u32,
        /// Queries executed this round.
        executed: u64,
        /// γ1 in effect when the round's candidates were selected.
        gamma1: u64,
        /// γ2 in effect when the round's candidates were selected.
        gamma2: u64,
        /// Pseudo-label slots that reached prompts this round.
        pseudo_label_uses: u64,
    },
    /// A retry wrapper re-sent a prompt after a failure.
    RetryAttempt {
        /// 1-based attempt number that failed (the re-send is attempt+1).
        attempt: u32,
        /// Configured attempt ceiling.
        max_attempts: u32,
        /// The failure that triggered the retry.
        error: String,
    },
    /// A retry wrapper gave up.
    RetryExhausted {
        /// Attempts consumed.
        attempts: u32,
        /// The final failure.
        error: String,
    },
    /// End-of-run snapshot of the client-side prompt cache (emitted once
    /// per cached client, after the run drains).
    CacheStats {
        /// Lookups served from the response cache.
        hits: u64,
        /// Lookups that found nothing servable.
        misses: u64,
        /// Entries evicted by the LRU bound.
        evictions: u64,
        /// Entries dropped by round-based invalidation.
        stale_drops: u64,
        /// Requests coalesced onto an identical in-flight request.
        coalesced: u64,
        /// Prompt tokens never sent thanks to hits + coalescing.
        tokens_saved: u64,
    },
    /// The hard token budget (Eq. 2) started binding: a `would_exceed`
    /// check first denied a prompt. Emitted once per meter.
    BudgetPressure {
        /// The budget in effect.
        budget: u64,
        /// Prompt tokens already spent when the denial happened.
        prompt_tokens_used: u64,
        /// Cost of the prompt that was denied.
        denied_cost: u64,
    },
    /// A causal span opened (see [`crate::Tracer`]).
    SpanEnter {
        /// Span id (unique per tracer, never 0).
        id: u64,
        /// Parent span id (0 = root).
        parent: u64,
        /// Span kind: `run`, `round`, `query`, `llm_call`, `retry`.
        name: String,
        /// Free-form detail (e.g. `"node 17"`).
        detail: String,
        /// Display track (0 = main thread, workers 1-based).
        track: u32,
        /// Monotonic enter time in microseconds.
        at_micros: u64,
    },
    /// A causal span closed.
    SpanExit {
        /// Span id matching the [`Event::SpanEnter`].
        id: u64,
        /// Monotonic exit time in microseconds.
        at_micros: u64,
    },
    /// The resilience layer paced before issuing a call: exponential
    /// backoff after a failure, or a rate-limit `retry-after` hint.
    BackoffWait {
        /// Consecutive failures that produced this wait (0 when the wait
        /// comes purely from a rate-limit hint).
        consecutive_failures: u32,
        /// Microseconds waited (through the [`crate::WaitClock`]).
        wait_micros: u64,
        /// Whether a provider rate-limit hint set (or extended) the wait.
        rate_limited: bool,
    },
    /// The circuit breaker changed state.
    BreakerTransition {
        /// State left: `closed`, `open`, or `half_open`.
        from: String,
        /// State entered.
        to: String,
        /// Consecutive failures observed at the transition.
        consecutive_failures: u32,
    },
    /// The fault harness injected one scheduled fault.
    FaultInjected {
        /// 0-based transport call index the fault fired on.
        call: u64,
        /// Fault kind: `transient`, `rate_limited`, `latency`,
        /// `truncated`, `malformed`, `outage`.
        fault: String,
    },
    /// A query exhausted every recovery path and was recorded as failed
    /// instead of aborting the run (graceful degradation).
    QueryFailed {
        /// Query node id.
        node: u32,
        /// The terminal error.
        error: String,
    },
    /// A parallel worker died mid-query (panic); its query was recorded
    /// as failed and the remaining workers drained normally.
    WorkerLost {
        /// Worker index (0-based).
        worker: u32,
        /// Node the worker was executing when it died.
        node: u32,
        /// Panic payload or failure detail.
        detail: String,
    },
    /// A query's outcome was served from the run journal on `--resume`:
    /// no prompt was rendered, no request sent, no tokens billed.
    QueryReplayed {
        /// Query node id.
        node: u32,
    },
    /// Token-cost attribution for one executed query: where its tokens
    /// went or were saved. Conservation holds unconditionally:
    /// `billed == rendered − pruned_saved − cache_saved − starved −
    /// failed` (all in tokens); retry re-sends and lenient parse
    /// recoveries spend extra metered tokens *outside* these flows and
    /// surface as the unattributed bucket in [`crate::CostLedger`]
    /// reconciliation.
    QueryCost {
        /// Query node id.
        node: u32,
        /// Tokens of the prompt the query *would* send with its full
        /// neighbor selection (before pruning or budget downgrades).
        rendered_tokens: u64,
        /// Tokens actually billed by the provider for this query.
        billed_tokens: u64,
        /// Tokens removed by Algorithm 1 pruning or the Eq. 2 budget
        /// downgrade (rendered minus the final prompt).
        pruned_saved_tokens: u64,
        /// Tokens of the final prompt avoided by a cache serve or
        /// in-flight dedup.
        cache_saved_tokens: u64,
        /// Tokens of the final prompt refused outright by the hard
        /// budget (no request was sent).
        starved_tokens: u64,
        /// Tokens of the final prompt whose query terminally failed (the
        /// provider billed nothing attributable; metered attempt tokens
        /// surface as unattributed instead).
        failed_tokens: u64,
        /// Tokens the final prompt spends on Algorithm 2 pseudo-label
        /// cue lines (a subset of `billed_tokens`, not a separate flow).
        enrichment_tokens: u64,
        /// Request trace id when the query ran inside a served request
        /// (16 lowercase hex digits); empty for batch runs. Joins the
        /// cost ledger line to the request's span tree and journal
        /// record.
        trace: String,
    },
    /// The overload controller shed a request before it reached a slot
    /// (adaptive sojourn-time shedding, tenant fair-share cap, or hard
    /// wait-room saturation).
    RequestShed {
        /// Tenant whose request was shed.
        tenant: String,
        /// Why: `sojourn`, `tenant_share`, or `saturated`.
        reason: String,
        /// The computed `Retry-After` the client was told, in seconds.
        retry_after_secs: u64,
    },
    /// A request's propagated deadline (`x-mqo-deadline-ms`) expired
    /// before useful work could be done; the request was answered 504
    /// and billed nothing.
    DeadlineExpired {
        /// Request trace id (16 lowercase hex digits).
        trace: String,
        /// Where the deadline was discovered blown: `queue`, `admitted`,
        /// or `executing`.
        stage: String,
        /// Microseconds the request had already spent in the server.
        waited_micros: u64,
    },
    /// Brown-out engaged: admitted classify requests switch to pruned,
    /// neighbor-free prompts (Algorithm 1's top-τ% treatment applied to
    /// the whole admitted stream) until pressure subsides.
    BrownoutEnter {
        /// Pressure signal at the transition, in milli-units.
        pressure_milli: u64,
    },
    /// Brown-out disengaged: admitted requests get full prompts again.
    BrownoutExit {
        /// Pressure signal at the transition, in milli-units.
        pressure_milli: u64,
    },
    /// The network-chaos layer injected one connection-level fault.
    ChaosInjected {
        /// 0-based accepted-connection index the fault fired on.
        conn: u64,
        /// Fault action: `reset`, `stall`, `partial_write`, `abort`.
        action: String,
    },
    /// A shard worker pushed a batch of boundary-node pseudo-labels to
    /// the router for cross-shard exchange.
    ShardLabelsPushed {
        /// The pushing worker's shard id.
        shard: u32,
        /// Pseudo-labels in the push.
        labels: u64,
    },
    /// A shard worker accepted remote pseudo-labels (forwarded by the
    /// router from a neighbor shard) into its halo label store.
    ShardLabelsIngested {
        /// The ingesting worker's shard id.
        shard: u32,
        /// Remote labels accepted into the halo.
        labels: u64,
    },
}

/// Append `s` JSON-escaped (quoted) onto `out`.
pub fn escape_json(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Event {
    /// The event's `"type"` tag in the JSONL schema.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::QueryExecuted { .. } => "query_executed",
            Event::WorkerThroughput { .. } => "worker_throughput",
            Event::RoundCompleted { .. } => "round_completed",
            Event::RetryAttempt { .. } => "retry_attempt",
            Event::RetryExhausted { .. } => "retry_exhausted",
            Event::CacheStats { .. } => "cache_stats",
            Event::BudgetPressure { .. } => "budget_pressure",
            Event::SpanEnter { .. } => "span_enter",
            Event::SpanExit { .. } => "span_exit",
            Event::BackoffWait { .. } => "backoff_wait",
            Event::BreakerTransition { .. } => "breaker_transition",
            Event::FaultInjected { .. } => "fault_injected",
            Event::QueryFailed { .. } => "query_failed",
            Event::WorkerLost { .. } => "worker_lost",
            Event::QueryReplayed { .. } => "query_replayed",
            Event::QueryCost { .. } => "query_cost",
            Event::RequestShed { .. } => "request_shed",
            Event::DeadlineExpired { .. } => "deadline_expired",
            Event::BrownoutEnter { .. } => "brownout_enter",
            Event::BrownoutExit { .. } => "brownout_exit",
            Event::ChaosInjected { .. } => "chaos_injected",
            Event::ShardLabelsPushed { .. } => "shard_labels_pushed",
            Event::ShardLabelsIngested { .. } => "shard_labels_ingested",
        }
    }

    /// Render as one JSON object (no trailing newline). The encoding is
    /// hand-rolled so this crate stays dependency-free; the schema is flat
    /// (a `type` tag plus scalar fields), so this is straightforward.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"type\":\"");
        s.push_str(self.kind());
        s.push('"');
        match self {
            Event::QueryExecuted { node, prompt_tokens, pruned, parse_failed, wall_micros } => {
                let _ = write!(
                    s,
                    ",\"node\":{node},\"prompt_tokens\":{prompt_tokens},\"pruned\":{pruned},\
                     \"parse_failed\":{parse_failed},\"wall_micros\":{wall_micros}"
                );
            }
            Event::WorkerThroughput { worker, queries, wall_micros } => {
                let _ = write!(
                    s,
                    ",\"worker\":{worker},\"queries\":{queries},\"wall_micros\":{wall_micros}"
                );
            }
            Event::RoundCompleted { round, executed, gamma1, gamma2, pseudo_label_uses } => {
                let _ = write!(
                    s,
                    ",\"round\":{round},\"executed\":{executed},\"gamma1\":{gamma1},\
                     \"gamma2\":{gamma2},\"pseudo_label_uses\":{pseudo_label_uses}"
                );
            }
            Event::RetryAttempt { attempt, max_attempts, error } => {
                let _ = write!(s, ",\"attempt\":{attempt},\"max_attempts\":{max_attempts}");
                s.push_str(",\"error\":");
                escape_json(&mut s, error);
            }
            Event::RetryExhausted { attempts, error } => {
                let _ = write!(s, ",\"attempts\":{attempts}");
                s.push_str(",\"error\":");
                escape_json(&mut s, error);
            }
            Event::CacheStats {
                hits,
                misses,
                evictions,
                stale_drops,
                coalesced,
                tokens_saved,
            } => {
                let _ = write!(
                    s,
                    ",\"hits\":{hits},\"misses\":{misses},\"evictions\":{evictions},\
                     \"stale_drops\":{stale_drops},\"coalesced\":{coalesced},\
                     \"tokens_saved\":{tokens_saved}"
                );
            }
            Event::BudgetPressure { budget, prompt_tokens_used, denied_cost } => {
                let _ = write!(
                    s,
                    ",\"budget\":{budget},\"prompt_tokens_used\":{prompt_tokens_used},\
                     \"denied_cost\":{denied_cost}"
                );
            }
            Event::SpanEnter { id, parent, name, detail, track, at_micros } => {
                let _ = write!(s, ",\"id\":{id},\"parent\":{parent},\"name\":");
                escape_json(&mut s, name);
                s.push_str(",\"detail\":");
                escape_json(&mut s, detail);
                let _ = write!(s, ",\"track\":{track},\"at_micros\":{at_micros}");
            }
            Event::SpanExit { id, at_micros } => {
                let _ = write!(s, ",\"id\":{id},\"at_micros\":{at_micros}");
            }
            Event::BackoffWait { consecutive_failures, wait_micros, rate_limited } => {
                let _ = write!(
                    s,
                    ",\"consecutive_failures\":{consecutive_failures},\
                     \"wait_micros\":{wait_micros},\"rate_limited\":{rate_limited}"
                );
            }
            Event::BreakerTransition { from, to, consecutive_failures } => {
                s.push_str(",\"from\":");
                escape_json(&mut s, from);
                s.push_str(",\"to\":");
                escape_json(&mut s, to);
                let _ = write!(s, ",\"consecutive_failures\":{consecutive_failures}");
            }
            Event::FaultInjected { call, fault } => {
                let _ = write!(s, ",\"call\":{call},\"fault\":");
                escape_json(&mut s, fault);
            }
            Event::QueryFailed { node, error } => {
                let _ = write!(s, ",\"node\":{node},\"error\":");
                escape_json(&mut s, error);
            }
            Event::WorkerLost { worker, node, detail } => {
                let _ = write!(s, ",\"worker\":{worker},\"node\":{node},\"detail\":");
                escape_json(&mut s, detail);
            }
            Event::QueryReplayed { node } => {
                let _ = write!(s, ",\"node\":{node}");
            }
            Event::QueryCost {
                node,
                rendered_tokens,
                billed_tokens,
                pruned_saved_tokens,
                cache_saved_tokens,
                starved_tokens,
                failed_tokens,
                enrichment_tokens,
                trace,
            } => {
                let _ = write!(
                    s,
                    ",\"node\":{node},\"rendered_tokens\":{rendered_tokens},\
                     \"billed_tokens\":{billed_tokens},\
                     \"pruned_saved_tokens\":{pruned_saved_tokens},\
                     \"cache_saved_tokens\":{cache_saved_tokens},\
                     \"starved_tokens\":{starved_tokens},\
                     \"failed_tokens\":{failed_tokens},\
                     \"enrichment_tokens\":{enrichment_tokens}"
                );
                if !trace.is_empty() {
                    s.push_str(",\"trace\":");
                    escape_json(&mut s, trace);
                }
            }
            Event::RequestShed { tenant, reason, retry_after_secs } => {
                s.push_str(",\"tenant\":");
                escape_json(&mut s, tenant);
                s.push_str(",\"reason\":");
                escape_json(&mut s, reason);
                let _ = write!(s, ",\"retry_after_secs\":{retry_after_secs}");
            }
            Event::DeadlineExpired { trace, stage, waited_micros } => {
                s.push_str(",\"trace\":");
                escape_json(&mut s, trace);
                s.push_str(",\"stage\":");
                escape_json(&mut s, stage);
                let _ = write!(s, ",\"waited_micros\":{waited_micros}");
            }
            Event::BrownoutEnter { pressure_milli }
            | Event::BrownoutExit { pressure_milli } => {
                let _ = write!(s, ",\"pressure_milli\":{pressure_milli}");
            }
            Event::ChaosInjected { conn, action } => {
                let _ = write!(s, ",\"conn\":{conn},\"action\":");
                escape_json(&mut s, action);
            }
            Event::ShardLabelsPushed { shard, labels }
            | Event::ShardLabelsIngested { shard, labels } => {
                let _ = write!(s, ",\"shard\":{shard},\"labels\":{labels}");
            }
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lines_are_flat_objects_with_type_tags() {
        let e = Event::QueryExecuted {
            node: 7,
            prompt_tokens: 420,
            pruned: true,
            parse_failed: false,
            wall_micros: 1234,
        };
        assert_eq!(
            e.to_json(),
            "{\"type\":\"query_executed\",\"node\":7,\"prompt_tokens\":420,\
             \"pruned\":true,\"parse_failed\":false,\"wall_micros\":1234"
                .to_owned()
                + "}"
        );
    }

    #[test]
    fn span_detail_strings_are_escaped() {
        let e = Event::SpanEnter {
            id: 1,
            parent: 0,
            name: "query".into(),
            detail: "title with \"quotes\"\nand newline".into(),
            track: 0,
            at_micros: 0,
        };
        let j = e.to_json();
        assert!(j.contains("\\\"quotes\\\""), "got: {j}");
        assert!(!j.contains('\n'), "JSONL lines must be newline-free: {j}");
    }

    #[test]
    fn error_strings_are_escaped() {
        let e = Event::RetryExhausted { attempts: 3, error: "bad \"quote\"\nline".into() };
        let j = e.to_json();
        assert!(j.contains("\\\"quote\\\""), "got: {j}");
        assert!(j.contains("\\n"), "got: {j}");
        assert!(!j.contains('\n'), "JSONL lines must be newline-free: {j}");
    }

    #[test]
    fn every_kind_tags_itself() {
        let cases = [
            (
                Event::WorkerThroughput { worker: 0, queries: 1, wall_micros: 2 },
                "worker_throughput",
            ),
            (
                Event::RoundCompleted {
                    round: 0,
                    executed: 5,
                    gamma1: 3,
                    gamma2: 2,
                    pseudo_label_uses: 4,
                },
                "round_completed",
            ),
            (
                Event::RetryAttempt { attempt: 1, max_attempts: 3, error: "x".into() },
                "retry_attempt",
            ),
            (
                Event::BudgetPressure { budget: 100, prompt_tokens_used: 90, denied_cost: 20 },
                "budget_pressure",
            ),
            (
                Event::CacheStats {
                    hits: 5,
                    misses: 3,
                    evictions: 1,
                    stale_drops: 2,
                    coalesced: 1,
                    tokens_saved: 640,
                },
                "cache_stats",
            ),
            (
                Event::SpanEnter {
                    id: 3,
                    parent: 1,
                    name: "query".into(),
                    detail: "node 17".into(),
                    track: 2,
                    at_micros: 99,
                },
                "span_enter",
            ),
            (Event::SpanExit { id: 3, at_micros: 120 }, "span_exit"),
            (
                Event::BackoffWait {
                    consecutive_failures: 2,
                    wait_micros: 4000,
                    rate_limited: false,
                },
                "backoff_wait",
            ),
            (
                Event::BreakerTransition {
                    from: "closed".into(),
                    to: "open".into(),
                    consecutive_failures: 5,
                },
                "breaker_transition",
            ),
            (Event::FaultInjected { call: 9, fault: "transient".into() }, "fault_injected"),
            (Event::QueryFailed { node: 4, error: "outage".into() }, "query_failed"),
            (
                Event::WorkerLost { worker: 1, node: 9, detail: "panicked".into() },
                "worker_lost",
            ),
            (Event::QueryReplayed { node: 12 }, "query_replayed"),
            (
                Event::QueryCost {
                    node: 17,
                    rendered_tokens: 500,
                    billed_tokens: 300,
                    pruned_saved_tokens: 200,
                    cache_saved_tokens: 0,
                    starved_tokens: 0,
                    failed_tokens: 0,
                    enrichment_tokens: 12,
                    trace: "00f1e2d3c4b5a697".into(),
                },
                "query_cost",
            ),
            (
                Event::RequestShed {
                    tenant: "acme".into(),
                    reason: "sojourn".into(),
                    retry_after_secs: 3,
                },
                "request_shed",
            ),
            (
                Event::DeadlineExpired {
                    trace: "00f1e2d3c4b5a697".into(),
                    stage: "queue".into(),
                    waited_micros: 1500,
                },
                "deadline_expired",
            ),
            (Event::BrownoutEnter { pressure_milli: 1800 }, "brownout_enter"),
            (Event::BrownoutExit { pressure_milli: 400 }, "brownout_exit"),
            (Event::ChaosInjected { conn: 5, action: "reset".into() }, "chaos_injected"),
            (Event::ShardLabelsPushed { shard: 2, labels: 9 }, "shard_labels_pushed"),
            (Event::ShardLabelsIngested { shard: 1, labels: 4 }, "shard_labels_ingested"),
        ];
        for (e, kind) in cases {
            assert_eq!(e.kind(), kind);
            assert!(e.to_json().starts_with(&format!("{{\"type\":\"{kind}\"")));
        }
    }
}
