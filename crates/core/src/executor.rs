//! The multi-query execution engine.
//!
//! One place renders prompts, calls the model, parses answers, and meters
//! tokens, so every strategy (baseline, pruned, boosted, joint) differs
//! only in *what it asks for*: which queries run, in what order, with which
//! neighbor text. The optional hard budget implements Eq. 2's constraint —
//! once the meter would overflow, remaining queries are forcibly executed
//! without neighbor text.

use crate::error::Result;
use crate::labels::LabelStore;
use crate::predictor::{Predictor, SelectCtx};
use mqo_graph::{ClassId, NodeId, Tag};
use mqo_llm::parse::parse_category;
use mqo_llm::{LanguageModel, NeighborEntry, NodePromptSpec};
use mqo_obs::{
    Clock, Event, EventSink, SpanId, Tracer, DISABLED_TRACER, MONOTONIC_CLOCK, NULL_SINK,
};
use mqo_token::{ledger::Totals, Tokenizer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};

/// Outcome of one executed query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRecord {
    /// The query node.
    pub node: NodeId,
    /// Predicted class.
    pub predicted: ClassId,
    /// Whether the prediction matches ground truth (evaluation-side).
    pub correct: bool,
    /// Neighbors included in the prompt.
    pub neighbors_included: usize,
    /// Of those, how many carried a label (`|N_i^L|`).
    pub labeled_neighbors: usize,
    /// Of those labels, how many were pseudo-labels.
    pub pseudo_neighbors: usize,
    /// Of the pseudo-labels, how many arrived over the cross-shard label
    /// exchange rather than from local execution. Zero in single-shard
    /// deployments; in a sharded cluster `pseudo_neighbors >
    /// remote_neighbors` means local boosting contributed cues too.
    pub remote_neighbors: usize,
    /// Prompt tokens consumed by this query.
    pub prompt_tokens: u64,
    /// Whether neighbor text was omitted (pruned or budget-forced).
    pub pruned: bool,
    /// Whether the completion failed to parse (fallback prediction used).
    pub parse_failed: bool,
    /// Whether the budget was too tight for even the neighbor-free prompt:
    /// no request was sent and the deterministic fallback prediction was
    /// recorded instead.
    pub budget_starved: bool,
    /// Why the query failed, if it did. A failed query carries the
    /// deterministic fallback prediction and `correct == false`: it is a
    /// recorded outcome, not a prediction. Only populated when the
    /// executor runs in degraded mode (see [`Executor::with_degrade`]);
    /// otherwise model errors abort the run.
    pub failure: Option<String>,
}

impl QueryRecord {
    /// Whether this query failed (degraded-mode outcome).
    pub fn failed(&self) -> bool {
        self.failure.is_some()
    }

    /// Whether this record's prediction may become a pseudo-label. A
    /// failed, parse-failed or budget-starved query records the fallback
    /// class, which is not an answer, so it never labels its node.
    pub fn yields_pseudo_label(&self) -> bool {
        self.failure.is_none() && !self.parse_failed && !self.budget_starved
    }
}

/// Aggregated outcome of a multi-query run.
#[derive(Debug, Clone, Default)]
pub struct ExecOutcome {
    /// Per-query records, in execution order.
    pub records: Vec<QueryRecord>,
}

impl ExecOutcome {
    /// Classification accuracy over all executed queries.
    pub fn accuracy(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().filter(|r| r.correct).count() as f64 / self.records.len() as f64
    }

    /// Number of queries that included neighbor text (the Table VIII
    /// "# Queries Equip N_i" cost indicator).
    pub fn queries_with_neighbors(&self) -> usize {
        self.records.iter().filter(|r| !r.pruned && r.neighbors_included > 0).count()
    }

    /// Total prompt tokens across the run.
    pub fn prompt_tokens(&self) -> u64 {
        self.records.iter().map(|r| r.prompt_tokens).sum()
    }

    /// Total pseudo-label uses: how many prompt slots were enriched by a
    /// pseudo-label (the Fig. 8 utilization metric).
    pub fn pseudo_label_uses(&self) -> u64 {
        self.records.iter().map(|r| r.pseudo_neighbors as u64).sum()
    }

    /// Queries the budget starved entirely (no LLM request was sent).
    pub fn budget_starved(&self) -> usize {
        self.records.iter().filter(|r| r.budget_starved).count()
    }

    /// Queries that failed and were recorded as degraded outcomes.
    pub fn failed(&self) -> usize {
        self.records.iter().filter(|r| r.failed()).count()
    }
}

/// Reusable render buffers for the query hot path. One render needs a
/// neighbor-entry list and a prompt string, and a query may render up to
/// three prompts (main, hypothetical-full for cost attribution, budget
/// fallback); holding the buffers here lets a loop of queries reuse the
/// allocations instead of paying them per render. Create one per worker
/// (or per batch) and pass it to [`Executor::run_one_reusing`].
#[derive(Debug, Default)]
pub struct RenderScratch {
    entries: Vec<NeighborEntry>,
    prompt: String,
    alt: String,
}

impl RenderScratch {
    /// Fresh scratch with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The execution engine, bound to one dataset and one model.
pub struct Executor<'a> {
    /// The graph being queried.
    pub tag: &'a Tag,
    /// The model answering queries.
    pub llm: &'a dyn LanguageModel,
    /// Maximum neighbors per prompt (`M`).
    pub max_neighbors: usize,
    /// Hard input-token budget (Eq. 2), if any.
    pub budget: Option<u64>,
    /// Seed for neighbor-sampling randomness.
    pub seed: u64,
    /// Telemetry sink for per-query events (defaults to the no-op sink).
    pub sink: &'a dyn EventSink,
    /// Time source for wall-clock measurements (defaults to the process
    /// monotonic clock; inject a [`mqo_obs::ManualClock`] for
    /// deterministic timings in tests).
    pub clock: &'a dyn Clock,
    /// Causal-span tracer (defaults to the disabled tracer, which makes
    /// every span a no-op).
    pub tracer: &'a Tracer,
    /// Degraded mode: a model error becomes a recorded failed outcome
    /// (fallback prediction, `failure` set) instead of aborting the run.
    pub degrade: bool,
    /// Crash-safe run journal: completed queries are appended as they
    /// finish, and previously journaled queries replay without re-billing.
    pub journal: Option<&'a crate::journal::RunJournal>,
    /// Fallback parent for query spans on threads with no open span (set
    /// to the run/round span id by the orchestration layers).
    span_scope: AtomicU64,
    /// Request trace id stamped on cost events and journal records when
    /// the executor runs inside a served request (empty for batch runs).
    trace: String,
}

impl<'a> Executor<'a> {
    /// Engine without a hard budget.
    pub fn new(
        tag: &'a Tag,
        llm: &'a dyn LanguageModel,
        max_neighbors: usize,
        seed: u64,
    ) -> Self {
        Executor {
            tag,
            llm,
            max_neighbors,
            budget: None,
            seed,
            sink: &NULL_SINK,
            clock: &MONOTONIC_CLOCK,
            tracer: &DISABLED_TRACER,
            degrade: false,
            journal: None,
            span_scope: AtomicU64::new(SpanId::NONE.0),
            trace: String::new(),
        }
    }

    /// Set a hard input-token budget.
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Emit per-query telemetry to `sink`.
    pub fn with_sink(mut self, sink: &'a dyn EventSink) -> Self {
        self.sink = sink;
        self
    }

    /// Measure wall time with `clock` instead of the monotonic default.
    pub fn with_clock(mut self, clock: &'a dyn Clock) -> Self {
        self.clock = clock;
        self
    }

    /// Open causal spans on `tracer` around queries and model calls.
    pub fn with_tracer(mut self, tracer: &'a Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Degrade gracefully: record model errors as failed outcomes instead
    /// of aborting the run.
    pub fn with_degrade(mut self) -> Self {
        self.degrade = true;
        self
    }

    /// Append completed queries to `journal` and replay queries it already
    /// holds (crash-safe resume; see [`crate::journal::RunJournal`]).
    pub fn with_journal(mut self, journal: &'a crate::journal::RunJournal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Stamp `trace` (a served request's 16-hex trace id) on this
    /// executor's cost events and journal records. The id never enters
    /// [`QueryRecord`] itself, so served records stay bit-identical to
    /// batch records.
    pub fn with_trace(mut self, trace: String) -> Self {
        self.trace = trace;
        self
    }

    /// If the journal already holds a completed record for `v`, replay it:
    /// emit [`Event::QueryReplayed`] and return the record without touching
    /// the model or the meter.
    pub fn replay_journaled(&self, v: NodeId) -> Option<QueryRecord> {
        let rec = self.journal?.replay(v)?;
        self.sink.emit(&Event::QueryReplayed { node: v.0 });
        Some(rec)
    }

    /// Append a freshly completed record to the journal, if one is attached.
    pub fn journal_record(&self, rec: &QueryRecord) {
        if let Some(j) = self.journal {
            j.record_traced(rec, &self.trace);
        }
    }

    /// A failed outcome for `v` produced outside `run_one` (worker panic
    /// containment): the fallback prediction, zero tokens, `failure` set.
    pub fn failed_record(&self, v: NodeId, failure: String) -> QueryRecord {
        self.sink.emit(&Event::QueryFailed { node: v.0, error: failure.clone() });
        QueryRecord {
            node: v,
            predicted: ClassId::from(0usize),
            correct: false,
            neighbors_included: 0,
            labeled_neighbors: 0,
            pseudo_neighbors: 0,
            remote_neighbors: 0,
            prompt_tokens: 0,
            pruned: true,
            parse_failed: false,
            budget_starved: false,
            failure: Some(failure),
        }
    }

    /// Set the fallback parent span for queries executed from threads
    /// with no open span of their own (worker threads inherit the
    /// run/round span this way).
    pub fn set_span_scope(&self, scope: SpanId) {
        self.span_scope.store(scope.0, Ordering::Relaxed);
    }

    /// The current fallback parent span.
    pub fn span_scope(&self) -> SpanId {
        SpanId(self.span_scope.load(Ordering::Relaxed))
    }

    /// Render the prompt for `v` with the given neighbor set.
    fn render(
        &self,
        predictor: &dyn Predictor,
        v: NodeId,
        neighbors: &[NodeId],
        labels: &LabelStore,
        ranked: bool,
    ) -> String {
        let mut entries = Vec::new();
        let mut out = String::new();
        self.render_into(predictor, v, neighbors, labels, ranked, &mut entries, &mut out);
        out
    }

    /// Render into caller-owned buffers (`entries` and `out` are cleared
    /// and reused). The allocation-free steady state behind
    /// [`RenderScratch`].
    #[allow(clippy::too_many_arguments)]
    fn render_into(
        &self,
        predictor: &dyn Predictor,
        v: NodeId,
        neighbors: &[NodeId],
        labels: &LabelStore,
        ranked: bool,
        entries: &mut Vec<NeighborEntry>,
        out: &mut String,
    ) {
        let ctx = SelectCtx { tag: self.tag, labels, max_neighbors: self.max_neighbors };
        entries.clear();
        entries.extend(neighbors.iter().map(|&n| predictor.entry_for(&ctx, n)));
        let t = self.tag.text(v);
        NodePromptSpec {
            title: &t.title,
            abstract_text: &t.body,
            neighbors: entries,
            categories: self.tag.class_names(),
            ranked: ranked && !entries.is_empty(),
        }
        .render_into(out);
    }

    /// Execute one query. `force_prune` omits neighbor text regardless of
    /// the predictor (token pruning / budget exhaustion). Allocates fresh
    /// render buffers; loops should prefer [`Executor::run_one_reusing`].
    pub fn run_one(
        &self,
        predictor: &dyn Predictor,
        labels: &LabelStore,
        v: NodeId,
        rng: &mut StdRng,
        force_prune: bool,
    ) -> Result<QueryRecord> {
        let mut scratch = RenderScratch::new();
        self.run_one_reusing(predictor, labels, v, rng, force_prune, &mut scratch)
    }

    /// [`Executor::run_one`] with caller-owned render buffers, so a loop
    /// of queries re-renders into the same allocations.
    pub fn run_one_reusing(
        &self,
        predictor: &dyn Predictor,
        labels: &LabelStore,
        v: NodeId,
        rng: &mut StdRng,
        force_prune: bool,
        scratch: &mut RenderScratch,
    ) -> Result<QueryRecord> {
        // A served request's propagated deadline (installed thread-local
        // by the serving layer; see `mqo_llm::deadline`): once it passes,
        // remaining queries become cheap failed outcomes — no render, no
        // request, zero tokens — instead of burning budget on answers
        // nobody is waiting for. Batch runs never install one.
        if mqo_llm::request_deadline_expired(self.clock.now_micros()) {
            return Ok(self.failed_record(v, "request deadline exceeded".to_string()));
        }
        let started = self.clock.now_micros();
        let query_span = self.tracer.span(
            self.sink,
            "query",
            || format!("node {}", v.0),
            self.tracer.current_or(self.span_scope()),
        );
        let ctx = SelectCtx { tag: self.tag, labels, max_neighbors: self.max_neighbors };
        let neighbors =
            if force_prune { Vec::new() } else { predictor.select_neighbors(&ctx, v, rng) };
        // Split the scratch so the main prompt can be counted while the
        // alternate buffer holds a second render.
        let RenderScratch { entries, prompt, alt } = scratch;
        self.render_into(predictor, v, &neighbors, labels, predictor.ranked(), entries, prompt);
        let mut pruned = force_prune || neighbors.is_empty();
        let mut used_neighbors = neighbors;
        let mut budget_starved = false;

        // Cost attribution (ledger input): what the query *would* have
        // cost with its full neighbor selection. For force-pruned queries
        // that means rendering the hypothetical neighbor-rich prompt —
        // optional extra work, skipped unless a sink is actually
        // observing. The per-query RNG is derived from `(seed, node)` and
        // otherwise unused on the pruned path, so drawing the hypothetical
        // selection from it cannot perturb results.
        let observing = self.sink.observing();
        // Token count of the *current* contents of `prompt`, computed at
        // most once: counting is O(len) and the serving hot path would
        // otherwise tokenize the same unchanged prompt four times
        // (attribution, budget, final accounting, the `llm_call` span
        // label). Invalidated when the budget fallback swaps the prompt.
        let mut prompt_count: Option<u64> = None;
        fn count_once(prompt: &str, memo: &mut Option<u64>) -> u64 {
            *memo.get_or_insert_with(|| Tokenizer.count(prompt) as u64)
        }
        let rendered_tokens = if !observing {
            0
        } else if force_prune {
            let would = predictor.select_neighbors(&ctx, v, rng);
            if would.is_empty() {
                count_once(prompt, &mut prompt_count)
            } else {
                self.render_into(
                    predictor,
                    v,
                    &would,
                    labels,
                    predictor.ranked(),
                    entries,
                    alt,
                );
                Tokenizer.count(alt) as u64
            }
        } else {
            count_once(prompt, &mut prompt_count)
        };

        // Budget enforcement (Eq. 2), applied to the *final* prompt. The
        // first check may downgrade a neighbor-rich prompt to the
        // neighbor-free fallback; the second check covers the fallback
        // itself and prompts that arrived pruned (force-pruned queries are
        // not exempt). If even the neighbor-free prompt would overflow, the
        // query is budget-starved: no request is sent at all, so a
        // budgeted run can never overshoot.
        if let Some(b) = self.budget {
            let cost = count_once(prompt, &mut prompt_count);
            if !pruned && self.llm.meter().would_exceed(cost, b) {
                used_neighbors.clear();
                self.render_into(predictor, v, &used_neighbors, labels, false, entries, alt);
                std::mem::swap(prompt, alt);
                prompt_count = None;
                pruned = true;
            }
            let final_cost = count_once(prompt, &mut prompt_count);
            if self.llm.meter().would_exceed(final_cost, b) {
                used_neighbors.clear();
                pruned = true;
                budget_starved = true;
            }
        }

        let labeled_neighbors =
            used_neighbors.iter().filter(|&&n| labels.is_labeled(n)).count();
        let pseudo_neighbors = used_neighbors.iter().filter(|&&n| labels.is_pseudo(n)).count();
        let remote_neighbors = used_neighbors.iter().filter(|&&n| labels.is_remote(n)).count();
        let final_tokens = if observing { count_once(prompt, &mut prompt_count) } else { 0 };

        let mut failure: Option<String> = None;
        let (predicted, parse_failed, prompt_tokens, cache_saved_tokens) = if budget_starved {
            // No tokens to spend: answer with the same deterministic
            // fallback used for unparseable responses, without touching
            // the model or the meter.
            (ClassId::from(0usize), false, 0, 0)
        } else {
            let result = {
                let _llm_span = self.tracer.span(
                    self.sink,
                    "llm_call",
                    || format!("{} tokens", count_once(prompt, &mut prompt_count)),
                    self.tracer.current(),
                );
                self.llm.complete(prompt)
            };
            match result {
                Ok(completion) => {
                    let parsed = parse_category(&completion.text, self.tag.class_names());
                    // Fallback for unparseable responses: the first
                    // category. Real clients would retry; the deterministic
                    // fallback keeps runs reproducible and is exercised by
                    // < 1% of simulated responses.
                    (
                        ClassId::from(parsed.unwrap_or(0)),
                        parsed.is_none(),
                        completion.usage.prompt_tokens,
                        completion.cache_saved_tokens,
                    )
                }
                Err(e) if self.degrade => {
                    // Graceful degradation: the error becomes a recorded
                    // failed outcome. Tokens the retry/resilience layers
                    // already metered for the doomed attempts surface in
                    // the ledger's unattributed bucket; this query's own
                    // prompt lands in the `failed` bucket below.
                    let error = e.to_string();
                    self.sink.emit(&Event::QueryFailed { node: v.0, error: error.clone() });
                    failure = Some(error);
                    (ClassId::from(0usize), false, 0, 0)
                }
                Err(e) => return Err(e.into()),
            }
        };

        self.sink.emit(&Event::QueryExecuted {
            node: v.0,
            prompt_tokens,
            pruned,
            parse_failed,
            wall_micros: self.clock.now_micros().saturating_sub(started),
        });
        if observing {
            // Pseudo-label cue lines in the final prompt: the Algorithm 2
            // enrichment spend, reported as a subset of billed tokens.
            let enrichment_tokens: u64 = used_neighbors
                .iter()
                .filter(|&&n| labels.is_pseudo(n))
                .filter_map(|&n| labels.get(n))
                .map(|c| {
                    Tokenizer.count(&format!("Category: {}", self.tag.class_name(c))) as u64
                })
                .sum();
            // The final prompt's tokens go to exactly one bucket: refused
            // by the budget, avoided by a cache serve, or billed. Retry
            // re-sends and lenient parse recoveries spend *extra* metered
            // tokens beyond these flows; the ledger surfaces that
            // difference as its unattributed bucket, so the per-query
            // identity below holds unconditionally.
            let (billed, cache_saved, starved, failed) = if budget_starved {
                (0, 0, final_tokens, 0)
            } else if failure.is_some() {
                (0, 0, 0, final_tokens)
            } else if cache_saved_tokens > 0 {
                (0, final_tokens, 0, 0)
            } else {
                (final_tokens, 0, 0, 0)
            };
            self.sink.emit(&Event::QueryCost {
                node: v.0,
                rendered_tokens,
                billed_tokens: billed,
                pruned_saved_tokens: rendered_tokens.saturating_sub(final_tokens),
                cache_saved_tokens: cache_saved,
                starved_tokens: starved,
                failed_tokens: failed,
                enrichment_tokens,
                trace: self.trace.clone(),
            });
        }
        drop(query_span);

        Ok(QueryRecord {
            node: v,
            predicted,
            // A failed query produced no prediction; never score its
            // fallback class against ground truth.
            correct: failure.is_none() && predicted == self.tag.label(v),
            neighbors_included: used_neighbors.len(),
            labeled_neighbors,
            pseudo_neighbors,
            remote_neighbors,
            prompt_tokens,
            pruned,
            parse_failed,
            budget_starved,
            failure,
        })
    }

    /// Render the prompt a query *would* send, without calling the model —
    /// free token estimation for campaign planning (see
    /// [`crate::planner`]).
    pub fn render_for_estimate(
        &self,
        predictor: &dyn Predictor,
        labels: &LabelStore,
        v: NodeId,
        rng: &mut StdRng,
        force_prune: bool,
    ) -> String {
        let ctx = SelectCtx { tag: self.tag, labels, max_neighbors: self.max_neighbors };
        let neighbors =
            if force_prune { Vec::new() } else { predictor.select_neighbors(&ctx, v, rng) };
        self.render(predictor, v, &neighbors, labels, predictor.ranked())
    }

    /// Per-query RNG: seeding neighbor sampling by (executor seed, node)
    /// pairs experiment arms — a query draws the *same* neighbor sample
    /// whether or not other queries were pruned, so paired comparisons
    /// (Table IV's Δ%, Fig. 7's curves) measure the strategy, not
    /// resampling noise.
    pub fn query_rng(&self, v: NodeId) -> StdRng {
        let x = self.seed ^ u64::from(v.0).wrapping_add(mqo_obs::SPLITMIX64_GAMMA);
        StdRng::seed_from_u64(mqo_obs::mix64(x))
    }

    /// Execute `queries` in order with a fixed label store (no boosting).
    /// `prune_set` marks queries to execute without neighbor text
    /// (Algorithm 1 step 2).
    ///
    /// Shim over the event-driven scheduler's FIFO policy (see
    /// [`crate::sched::Scheduler`]); semantics are unchanged.
    pub fn run_all(
        &self,
        predictor: &dyn Predictor,
        labels: &LabelStore,
        queries: &[NodeId],
        prune_set: impl Fn(NodeId) -> bool + Sync,
    ) -> Result<ExecOutcome> {
        let report = crate::sched::Scheduler::new(self, crate::sched::SchedulePolicy::Fifo)
            .run(predictor, crate::sched::Labels::Fixed(labels), queries, prune_set)?;
        Ok(report.outcome)
    }

    /// The pre-scheduler sequential loop, kept verbatim as the oracle
    /// for the scheduler-equivalence proptests.
    #[cfg(test)]
    pub(crate) fn run_all_legacy(
        &self,
        predictor: &dyn Predictor,
        labels: &LabelStore,
        queries: &[NodeId],
        prune_set: impl Fn(NodeId) -> bool,
    ) -> Result<ExecOutcome> {
        let mut out = ExecOutcome::default();
        let mut scratch = RenderScratch::new();
        for &v in queries {
            if let Some(rec) = self.replay_journaled(v) {
                out.records.push(rec);
                continue;
            }
            let mut rng = self.query_rng(v);
            let rec = self.run_one_reusing(
                predictor,
                labels,
                v,
                &mut rng,
                prune_set(v),
                &mut scratch,
            )?;
            self.journal_record(&rec);
            out.records.push(rec);
        }
        Ok(out)
    }

    /// Meter totals snapshot from the underlying model.
    pub fn usage(&self) -> Totals {
        self.llm.meter().totals()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::test_fixtures::two_cliques;
    use crate::predictor::{KhopRandom, ZeroShot};
    use mqo_llm::ScriptedLlm;

    fn queries() -> Vec<NodeId> {
        vec![NodeId(0), NodeId(7)]
    }

    #[test]
    fn zero_shot_run_counts_and_scores() {
        let tag = two_cliques();
        // Node 0 is Alpha, node 7 is Beta; answer Alpha twice.
        let llm = ScriptedLlm::new(["Category: ['Alpha']", "Category: ['Alpha']"]);
        let exec = Executor::new(&tag, &llm, 4, 0);
        let labels = LabelStore::empty(tag.num_nodes());
        let out = exec.run_all(&ZeroShot, &labels, &queries(), |_| false).unwrap();
        assert_eq!(out.records.len(), 2);
        assert!(out.records[0].correct);
        assert!(!out.records[1].correct);
        assert!((out.accuracy() - 0.5).abs() < 1e-9);
        assert_eq!(out.queries_with_neighbors(), 0);
        assert!(out.prompt_tokens() > 0);
    }

    #[test]
    fn neighbor_text_appears_and_is_counted() {
        let tag = two_cliques();
        let llm = ScriptedLlm::new(["Category: ['Alpha']"]);
        let exec = Executor::new(&tag, &llm, 3, 0);
        let mut labels = LabelStore::empty(tag.num_nodes());
        labels.add_pseudo(NodeId(1), ClassId(0));
        let p = KhopRandom::new(1, tag.num_nodes());
        let out = exec.run_all(&p, &labels, &[NodeId(0)], |_| false).unwrap();
        let r = &out.records[0];
        assert_eq!(r.neighbors_included, 3);
        assert_eq!(r.labeled_neighbors, 1);
        assert_eq!(r.pseudo_neighbors, 1);
        let prompt = &llm.prompts_seen()[0];
        assert!(prompt.contains("Neighbor Paper0"));
        assert!(prompt.contains("Category: Alpha"));
    }

    #[test]
    fn prune_set_strips_neighbor_text() {
        let tag = two_cliques();
        let llm = ScriptedLlm::new(["Category: ['Alpha']", "Category: ['Beta']"]);
        let exec = Executor::new(&tag, &llm, 4, 0);
        let labels = LabelStore::empty(tag.num_nodes());
        let p = KhopRandom::new(1, tag.num_nodes());
        let out =
            exec.run_all(&p, &labels, &[NodeId(0), NodeId(7)], |v| v == NodeId(0)).unwrap();
        assert!(out.records[0].pruned);
        assert_eq!(out.records[0].neighbors_included, 0);
        assert!(!out.records[1].pruned);
        let prompts = llm.prompts_seen();
        assert!(!prompts[0].contains("Neighbor Paper"));
        assert!(prompts[1].contains("Neighbor Paper"));
        // Pruned prompt is strictly cheaper.
        assert!(out.records[0].prompt_tokens < out.records[1].prompt_tokens);
    }

    #[test]
    fn hard_budget_forces_neighbor_free_prompts() {
        let tag = two_cliques();
        let llm = ScriptedLlm::new(vec!["Category: ['Alpha']"; 12]);
        // Budget only fits neighbor-free prompts after the first query.
        let exec = Executor::new(&tag, &llm, 5, 0).with_budget(400);
        let labels = LabelStore::empty(tag.num_nodes());
        let p = KhopRandom::new(1, tag.num_nodes());
        let qs: Vec<NodeId> = (0..6).map(NodeId).collect();
        let out = exec.run_all(&p, &labels, &qs, |_| false).unwrap();
        assert!(out.records.iter().any(|r| r.pruned), "budget never bound");
        // Once the budget binds, every later query runs neighbor-free.
        let first_pruned = out.records.iter().position(|r| r.pruned).unwrap();
        assert!(out.records[first_pruned..].iter().all(|r| r.pruned));
        // A budget-free run costs strictly more.
        let llm_free = ScriptedLlm::new(vec!["Category: ['Alpha']"; 12]);
        let exec_free = Executor::new(&tag, &llm_free, 5, 0);
        let free = exec_free.run_all(&p, &labels, &qs, |_| false).unwrap();
        assert!(out.prompt_tokens() < free.prompt_tokens());
    }

    #[test]
    fn hard_budget_is_never_overshot() {
        // Regression: the fallback prompt used to be sent without
        // re-checking its cost, and force-pruned queries skipped the
        // budget check entirely — both overshot the Eq. 2 budget. Sweep
        // budgets from "starves everything" to "fits everything" and
        // assert the invariant on actual metered spend.
        let tag = two_cliques();
        let p = KhopRandom::new(1, tag.num_nodes());
        let qs: Vec<NodeId> = (0..6).map(NodeId).collect();
        for budget in [1u64, 50, 120, 400, 100_000] {
            for force_prune_all in [false, true] {
                let llm = ScriptedLlm::new(vec!["Category: ['Alpha']"; 12]);
                let exec = Executor::new(&tag, &llm, 5, 0).with_budget(budget);
                let labels = LabelStore::empty(tag.num_nodes());
                let out = exec.run_all(&p, &labels, &qs, |_| force_prune_all).unwrap();
                assert_eq!(out.records.len(), qs.len(), "every query gets a record");
                assert!(
                    llm.meter().totals().prompt_tokens <= budget,
                    "budget {budget} overshot: spent {} (force_prune={force_prune_all})",
                    llm.meter().totals().prompt_tokens,
                );
                assert!(out.prompt_tokens() <= budget);
            }
        }
    }

    #[test]
    fn budget_starved_queries_send_no_request() {
        let tag = two_cliques();
        let llm = ScriptedLlm::new(vec!["Category: ['Alpha']"; 12]);
        // A budget of 1 starves even the neighbor-free prompt.
        let exec = Executor::new(&tag, &llm, 5, 0).with_budget(1);
        let labels = LabelStore::empty(tag.num_nodes());
        let p = KhopRandom::new(1, tag.num_nodes());
        let qs: Vec<NodeId> = (0..3).map(NodeId).collect();
        let out = exec.run_all(&p, &labels, &qs, |_| false).unwrap();
        assert_eq!(out.budget_starved(), 3);
        assert!(llm.prompts_seen().is_empty(), "no request reached the model");
        assert_eq!(llm.meter().totals().requests, 0);
        for r in &out.records {
            assert!(r.budget_starved && r.pruned);
            assert_eq!(r.prompt_tokens, 0);
            assert_eq!(r.predicted, ClassId(0), "deterministic fallback");
        }
    }

    #[test]
    fn query_events_reach_the_sink() {
        let tag = two_cliques();
        let llm = ScriptedLlm::new(["Category: ['Alpha']", "total nonsense?!"]);
        let sink = mqo_obs::Recorder::new();
        let exec = Executor::new(&tag, &llm, 4, 0).with_sink(&sink);
        let labels = LabelStore::empty(tag.num_nodes());
        let out = exec.run_all(&ZeroShot, &labels, &[NodeId(0), NodeId(7)], |_| false).unwrap();
        let events = sink.of_kind("query_executed");
        assert_eq!(events.len(), 2);
        match &events[1] {
            mqo_obs::Event::QueryExecuted {
                node, prompt_tokens, pruned, parse_failed, ..
            } => {
                assert_eq!(*node, 7);
                assert_eq!(*prompt_tokens, out.records[1].prompt_tokens);
                assert!(*pruned, "zero-shot prompts are neighbor-free");
                assert!(*parse_failed);
            }
            other => panic!("expected QueryExecuted, got {other:?}"),
        }
    }

    #[test]
    fn unparseable_response_falls_back_deterministically() {
        let tag = two_cliques();
        let llm = ScriptedLlm::new(["total nonsense with no usable answer?!"]);
        let exec = Executor::new(&tag, &llm, 4, 0);
        let labels = LabelStore::empty(tag.num_nodes());
        let out = exec.run_all(&ZeroShot, &labels, &[NodeId(0)], |_| false).unwrap();
        assert!(out.records[0].parse_failed);
        assert_eq!(out.records[0].predicted, ClassId(0));
    }

    #[test]
    fn transport_failures_abort_without_degrade() {
        let tag = two_cliques();
        // An empty script exhausts on the first call.
        let llm = ScriptedLlm::new(Vec::<String>::new());
        let exec = Executor::new(&tag, &llm, 4, 0);
        let labels = LabelStore::empty(tag.num_nodes());
        let err = exec.run_all(&ZeroShot, &labels, &[NodeId(0)], |_| false);
        assert!(err.is_err(), "errors must propagate when degrade is off");
    }

    #[test]
    fn degraded_mode_records_failures_instead_of_aborting() {
        let tag = two_cliques();
        // One good answer, then the script runs dry: query 2 fails.
        let llm = ScriptedLlm::new(["Category: ['Alpha']"]);
        let sink = mqo_obs::Recorder::new();
        let exec = Executor::new(&tag, &llm, 4, 0).with_sink(&sink).with_degrade();
        let labels = LabelStore::empty(tag.num_nodes());
        let out = exec.run_all(&ZeroShot, &labels, &[NodeId(0), NodeId(7)], |_| false).unwrap();
        assert_eq!(out.records.len(), 2, "the run completed despite the failure");
        assert_eq!(out.failed(), 1);
        let failed = &out.records[1];
        assert!(failed.failed());
        assert!(!failed.correct, "failed queries never score");
        assert_eq!(failed.prompt_tokens, 0, "no tokens were billed to the failed query");
        assert_eq!(sink.of_kind("query_failed").len(), 1);
    }

    #[test]
    fn failed_query_cost_lands_in_the_failed_bucket() {
        let tag = two_cliques();
        let llm = ScriptedLlm::new(Vec::<String>::new());
        let sink = mqo_obs::Recorder::new();
        let exec = Executor::new(&tag, &llm, 4, 0).with_sink(&sink).with_degrade();
        let labels = LabelStore::empty(tag.num_nodes());
        let out = exec.run_all(&ZeroShot, &labels, &[NodeId(0)], |_| false).unwrap();
        assert_eq!(out.failed(), 1);
        match &sink.of_kind("query_cost")[0] {
            mqo_obs::Event::QueryCost {
                rendered_tokens,
                billed_tokens,
                failed_tokens,
                starved_tokens,
                ..
            } => {
                assert_eq!(*billed_tokens, 0);
                assert_eq!(*starved_tokens, 0);
                assert!(*failed_tokens > 0);
                assert!(failed_tokens <= rendered_tokens);
            }
            other => panic!("expected QueryCost, got {other:?}"),
        }
    }

    #[test]
    fn expired_request_deadline_fails_remaining_queries_cheaply() {
        let tag = two_cliques();
        // An empty script panics if any query reaches the model.
        let llm = ScriptedLlm::new(Vec::<String>::new());
        let clock = mqo_obs::ManualClock::new();
        clock.advance(10);
        let exec = Executor::new(&tag, &llm, 4, 0).with_clock(&clock);
        let labels = LabelStore::empty(tag.num_nodes());
        let _g = mqo_llm::with_request_deadline(10);
        let out = exec.run_all(&ZeroShot, &labels, &queries(), |_| false).unwrap();
        assert_eq!(out.failed(), 2, "every query is a recorded failed outcome");
        assert_eq!(llm.meter().totals().requests, 0, "no request was sent");
        assert!(out.records.iter().all(|r| r.prompt_tokens == 0), "zero tokens billed");
    }

    #[test]
    fn sns_prompt_mentions_ranking_clause() {
        use crate::predictor::Sns;
        let tag = two_cliques();
        let llm = ScriptedLlm::new(["Category: ['Alpha']"]);
        let exec = Executor::new(&tag, &llm, 2, 0);
        let mut labels = LabelStore::empty(tag.num_nodes());
        labels.add_pseudo(NodeId(1), ClassId(0));
        let sns = Sns::fit(&tag);
        exec.run_all(&sns, &labels, &[NodeId(0)], |_| false).unwrap();
        assert!(llm.prompts_seen()[0].contains("most related to least related"));
    }
}
