//! The event-driven execution scheduler.
//!
//! One entry point — [`Scheduler::run`] — drives every orchestration
//! shape: sequential, width-N, and Algorithm 2's query boosting. A
//! [`SchedulePolicy`] picks how work becomes *ready*:
//!
//! * [`SchedulePolicy::Fifo`] — queries run inline, in input order, on the
//!   caller's thread. The only policy that supports the Eq. 2 hard budget
//!   (budget enforcement is meter-order-dependent) and the policy the
//!   serving hot path uses (no cross-thread hand-off per request).
//! * [`SchedulePolicy::Parallel`] — every query is ready immediately; a
//!   fixed worker pool pulls work from a bounded dispatch queue and pushes
//!   [`QueryRecord`]s back through a completion channel. Records are
//!   re-assembled in input order.
//! * [`SchedulePolicy::CueGated`] — Algorithm 2: a query becomes ready
//!   when its neighbor pseudo-label support satisfies the γ₁/γ₂ rule.
//!   Readiness is evaluated in waves (the paper's rounds): candidates are
//!   selected against a frozen label store, executed by the pool, and
//!   their pseudo-labels folded in candidate order at a barrier —
//!   byte-identical record streams across runs and pool widths; see
//!   [`Scheduler::run`]. Readiness is incremental: a query's neighbor
//!   support is cached and recounted only after a label changes within
//!   the predictor's [`Predictor::label_radius`] (every pending query, for
//!   a predictor that claims no radius); relaxation re-filters the cache.
//!
//! Every policy but `Fifo` runs on one worker pool per run: one dispatch
//! queue, one completion channel, `worker_loop` on each thread. Width 1
//! is a pool of one.
//!
//! ## Determinism contract
//!
//! Under `CueGated` the ready queue is drained in a stable order (input
//! arrival order, which the CLI derives from the seeded split), candidate
//! waves see a frozen label store, and records are folded in candidate
//! order — so two runs with the same seed produce byte-identical record
//! dumps at any pool width whenever the model itself is
//! call-order-insensitive (the simulated backends are; a response cache
//! or call-indexed fault schedule is not, which is why the scheduler
//! smoke runs with `--no-cache` and no faults).
//!
//! ## Invariants preserved (checked by `obs_check` and the equivalence
//! proptests below)
//!
//! * Span causality: query spans parent to their wave's round span;
//!   `llm_call` under `query`.
//! * Ledger conservation: per-query cost accounting is untouched — any
//!   grouping of [`Executor::run_one_reusing`] calls conserves.
//! * Journal replay/resume: journaled queries replay before dispatch and
//!   fresh records are journaled on completion; cue-gated runs seal each
//!   round with an fsync.
//! * Eq. 2 hard budget: order-dependent, so pooled policies reject it
//!   (`Error::Config`) and cue-gated runs clamp to one worker, where the
//!   spend order is the candidate order.

use crate::boosting::{BoostConfig, DegradePolicy, Readiness, RoundTrace, Support};
use crate::error::{Error, Result};
use crate::executor::{ExecOutcome, Executor, QueryRecord, RenderScratch};
use crate::labels::LabelStore;
use crate::predictor::{Predictor, SelectCtx};
use crate::queue::BoundedQueue;
use mqo_graph::NodeId;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};

/// How the scheduler decides what is ready to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// Run queries inline, in input order, on the caller's thread (the
    /// policy behind `Executor::run_all`). Supports the hard budget.
    Fifo,
    /// Dispatch every query immediately across a fixed worker pool.
    Parallel {
        /// Worker-pool width (must be ≥ 1).
        threads: usize,
    },
    /// Algorithm 2 query boosting: readiness keyed by the γ₁/γ₂
    /// neighbor-cue rule, with incremental relaxation when nothing
    /// qualifies.
    CueGated {
        /// Candidacy thresholds (γ₁/γ₂) before relaxation.
        config: BoostConfig,
        /// Failure escalation policy under a degraded executor.
        policy: DegradePolicy,
        /// Worker-pool width (clamped to 1 under a hard budget).
        threads: usize,
        /// Ignored: every cue-gated run executes in waves. The field is
        /// left only so that struct literals outside the workspace (the
        /// benchmark's per-layer binary) keep compiling; build the policy
        /// with [`SchedulePolicy::cue_gated`].
        deterministic: bool,
    },
}

impl SchedulePolicy {
    /// Algorithm 2 query boosting on a pool of `threads` workers.
    pub fn cue_gated(config: BoostConfig, policy: DegradePolicy, threads: usize) -> Self {
        SchedulePolicy::CueGated { config, policy, threads, deterministic: true }
    }
}

/// The label knowledge a run reads (and, for cue-gated runs, writes).
pub enum Labels<'l> {
    /// A frozen label store: no pseudo-labels are folded back.
    Fixed(&'l LabelStore),
    /// A mutable label store: executed queries contribute pseudo-labels
    /// (required by [`SchedulePolicy::CueGated`]).
    Boosting(&'l mut LabelStore),
}

impl Labels<'_> {
    fn store(&self) -> &LabelStore {
        match self {
            Labels::Fixed(l) => l,
            Labels::Boosting(l) => l,
        }
    }
}

/// What a scheduled run produced.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Per-query records. Input order for `Fifo`/`Parallel`, candidate
    /// order per wave for cue-gated runs.
    pub outcome: ExecOutcome,
    /// One trace per executed cue-gated wave. Empty for the fixed
    /// policies.
    pub rounds: Vec<RoundTrace>,
    /// Queries replayed from the journal without touching the model.
    pub replayed: u64,
    /// Prompt tokens billed to freshly executed (non-replayed) records.
    pub fresh_billed_tokens: u64,
    /// Label-support evaluations the cue-gated readiness passes made
    /// (zero for the fixed policies). A function of the inputs alone, so
    /// it repeats exactly.
    pub readiness_evals: u64,
}

/// One unit of dispatched work: a single query.
struct Work {
    /// Position of the query in the run's input.
    slot: usize,
    node: NodeId,
    force_prune: bool,
    /// Label snapshot for cue-gated dispatch; the fixed policies read the
    /// caller's store directly instead.
    labels: Option<Arc<LabelStore>>,
}

/// A completion pushed back through the completion channel.
struct Done {
    slot: usize,
    node: NodeId,
    record: Result<QueryRecord>,
}

/// Closes the dispatch queue when the driving side of the pool is done —
/// or unwinds — so the workers drain and exit instead of blocking the
/// scope forever.
struct CloseOnDrop<'q>(&'q BoundedQueue<Work>);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// The event-driven execution core: one readiness queue, one fixed
/// worker pool, one completion channel, pluggable [`SchedulePolicy`].
pub struct Scheduler<'s, 'e> {
    exec: &'s Executor<'e>,
    policy: SchedulePolicy,
}

impl<'s, 'e> Scheduler<'s, 'e> {
    /// A scheduler driving `exec` under `policy`.
    pub fn new(exec: &'s Executor<'e>, policy: SchedulePolicy) -> Self {
        Scheduler { exec, policy }
    }

    /// Execute `queries` to completion under the configured policy.
    ///
    /// `prune_set` marks queries that execute without neighbor text
    /// (Algorithm 1 pruning; cue-gated runs treat pruned queries as
    /// immediately ready since they cannot be enriched).
    ///
    /// Cue-gated runs follow Algorithm 2 under a degraded executor
    /// ([`Executor::with_degrade`]): a failed query contributes **no
    /// pseudo-label** — the γ₁/γ₂ rule treats it as unexecuted — and
    /// stays pending; after `policy.fallback_after` failures it retries
    /// text-only, after `policy.give_up_after` the failed outcome is
    /// final. With a journal attached, completed queries replay before
    /// the first round and each round is sealed (fsync'd) as it folds.
    ///
    /// # Panics
    ///
    /// Panics if a pooled policy is configured with zero threads, or a
    /// cue-gated policy with `give_up_after == 0`.
    pub fn run(
        &self,
        predictor: &dyn Predictor,
        labels: Labels<'_>,
        queries: &[NodeId],
        prune_set: impl Fn(NodeId) -> bool + Sync,
    ) -> Result<RunReport> {
        match self.policy {
            SchedulePolicy::Fifo => {
                self.run_fifo(predictor, labels.store(), queries, &prune_set)
            }
            SchedulePolicy::Parallel { threads } => {
                self.run_pooled(predictor, labels.store(), queries, &prune_set, threads)
            }
            SchedulePolicy::CueGated { config, policy, threads, .. } => {
                let Labels::Boosting(labels) = labels else {
                    return Err(Error::Config {
                        detail: "cue-gated scheduling needs a boosting label store".into(),
                    });
                };
                assert!(policy.give_up_after >= 1, "give_up_after must be positive");
                // The hard budget is meter-order-dependent: clamp to one
                // worker, so spend order is candidate order.
                let width = if self.exec.budget.is_some() { 1 } else { threads.max(1) };
                self.run_cue_gated(
                    predictor, labels, queries, &prune_set, config, policy, width,
                )
            }
        }
    }

    /// Inline FIFO: the zero-hand-off hot path (and the only
    /// budget-capable one).
    fn run_fifo(
        &self,
        predictor: &dyn Predictor,
        labels: &LabelStore,
        queries: &[NodeId],
        prune_set: &(impl Fn(NodeId) -> bool + Sync),
    ) -> Result<RunReport> {
        let exec = self.exec;
        let mut report = RunReport::default();
        let mut scratch = RenderScratch::new();
        for &v in queries {
            if let Some(rec) = exec.replay_journaled(v) {
                report.replayed += 1;
                report.outcome.records.push(rec);
                continue;
            }
            let mut rng = exec.query_rng(v);
            let rec = exec.run_one_reusing(
                predictor,
                labels,
                v,
                &mut rng,
                prune_set(v),
                &mut scratch,
            )?;
            exec.journal_record(&rec);
            report.fresh_billed_tokens += rec.prompt_tokens;
            report.outcome.records.push(rec);
        }
        Ok(report)
    }

    /// Run `drive` against this run's worker pool: `width` threads pull
    /// [`Work`] from one dispatch queue (sized for `capacity` units) and
    /// push [`Done`]s back through one completion channel. The queue
    /// closes once `drive` returns, which lets the workers drain and exit.
    fn with_pool<R>(
        &self,
        predictor: &dyn Predictor,
        fixed_labels: Option<&LabelStore>,
        width: usize,
        capacity: usize,
        drive: impl FnOnce(&BoundedQueue<Work>, &mpsc::Receiver<Done>) -> R,
    ) -> R {
        let exec = self.exec;
        let dispatch = BoundedQueue::new(capacity);
        let (done_tx, done_rx) = mpsc::channel::<Done>();
        std::thread::scope(|scope| {
            let dispatch = &dispatch;
            for worker in 0..width {
                let done_tx = done_tx.clone();
                scope.spawn(move || {
                    worker_loop(exec, predictor, fixed_labels, dispatch, done_tx, worker as u32)
                });
            }
            drop(done_tx);
            let _close = CloseOnDrop(dispatch);
            drive(dispatch, &done_rx)
        })
    }

    /// The pooled fixed policy: dispatch every query up front, then drain
    /// the completion channel and re-assemble in input order.
    fn run_pooled(
        &self,
        predictor: &dyn Predictor,
        labels: &LabelStore,
        queries: &[NodeId],
        prune_set: &(impl Fn(NodeId) -> bool + Sync),
        threads: usize,
    ) -> Result<RunReport> {
        assert!(threads >= 1, "need at least one worker");
        let exec = self.exec;
        if exec.budget.is_some() {
            // The hard-budget path is order-dependent (the meter decides
            // when to start stripping neighbor text); run it sequentially.
            return Err(Error::Config {
                detail: "hard budgets require sequential execution".into(),
            });
        }
        let mut report = RunReport::default();
        let mut slots: Vec<Option<Result<QueryRecord>>> =
            queries.iter().map(|_| None).collect();
        // Crash-safe resume: journaled queries replay before any worker
        // starts, so workers only ever see genuinely unfinished work.
        for (i, &v) in queries.iter().enumerate() {
            if let Some(rec) = exec.replay_journaled(v) {
                report.replayed += 1;
                slots[i] = Some(Ok(rec));
            }
        }

        let works: Vec<Work> = queries
            .iter()
            .enumerate()
            .filter(|(i, _)| slots[*i].is_none())
            .map(|(i, &v)| Work { slot: i, node: v, force_prune: prune_set(v), labels: None })
            .collect();
        let expected = works.len();

        self.with_pool(predictor, Some(labels), threads, works.len(), |dispatch, done_rx| {
            for w in works {
                dispatch.try_push(w).ok().expect("dispatch queue sized for all work");
            }
            dispatch.close();
            for _ in 0..expected {
                let done = done_rx.recv().expect("worker pool hung up early");
                if let Ok(rec) = &done.record {
                    exec.journal_record(rec);
                    report.fresh_billed_tokens += rec.prompt_tokens;
                }
                slots[done.slot] = Some(done.record);
            }
        });

        for slot in slots {
            report.outcome.records.push(slot.expect("every slot filled")?);
        }
        Ok(report)
    }

    /// Algorithm 2 on the worker pool, one wave per turn:
    ///
    /// 1. a readiness pass over the pending queries in input order,
    ///    relaxing γ₁ toward 0, then γ₂ toward K, only when nothing is
    ///    ready. The pass is incremental: each pending entry carries its
    ///    last support count, [`Readiness`] recounts it only when it is
    ///    unknown or a label changed within the predictor's
    ///    [`Predictor::label_radius`], and relaxation steps re-filter the
    ///    counted entries without recounting any;
    /// 2. dispatch of the ready queries against a frozen label snapshot,
    ///    under a `round` span;
    /// 3. the barrier: every dispatched query completes, and the
    ///    completions are put back in candidate order;
    /// 4. failure escalation on the completions;
    /// 5. one fold of the final records as a round: pseudo-labels,
    ///    [`RoundTrace`], `RoundCompleted`, journal, seal.
    #[allow(clippy::too_many_arguments)]
    fn run_cue_gated(
        &self,
        predictor: &dyn Predictor,
        labels: &mut LabelStore,
        queries: &[NodeId],
        prune_set: &(impl Fn(NodeId) -> bool + Sync),
        config: BoostConfig,
        policy: DegradePolicy,
        width: usize,
    ) -> Result<RunReport> {
        let exec = self.exec;
        let mut report = RunReport::default();
        // (input position, node, support as of the last readiness pass),
        // always sorted by position: a retried failure returns to its
        // original place, so the readiness pass scans in stable input
        // order and no tie-break is needed.
        let mut pending: Vec<(usize, NodeId, Support)> =
            queries.iter().enumerate().map(|(i, &v)| (i, v, Support::UNKNOWN)).collect();
        self.predrain_replays(labels, &mut pending, &mut report);

        let (mut gamma1, mut gamma2) = (config.gamma1, config.gamma2);
        let k = exec.tag.num_classes();
        // Consecutive failures per node, for the fallback/give-up escalation.
        let mut failures: HashMap<NodeId, usize> = HashMap::new();
        let force_prune = |failures: &HashMap<NodeId, usize>, v: NodeId| {
            prune_set(v) || failures.get(&v).is_some_and(|&n| n >= policy.fallback_after)
        };
        let mut first_err: Option<Error> = None;
        // The store as last dispatched; `None` once a fold changed it.
        let mut snapshot: Option<Arc<LabelStore>> = None;
        let mut readiness = Readiness::new(exec.tag.num_nodes(), predictor.label_radius());

        // A position is pending, in flight, or final — never two at once —
        // so the queue never holds more than the query count.
        self.with_pool(predictor, None, width, queries.len(), |dispatch, done_rx| {
            while first_err.is_none() && !pending.is_empty() {
                let ctx =
                    SelectCtx { tag: exec.tag, labels, max_neighbors: exec.max_neighbors };
                // Pruned (or failure-downgraded) queries can't be enriched:
                // they are ready at once, and their support is never counted.
                // Per-node rng: N_i only changes when label knowledge does.
                readiness.refresh(
                    predictor,
                    &ctx,
                    &mut pending,
                    |v| force_prune(&failures, v),
                    |v| exec.query_rng(v),
                );
                let ready_at = |gamma1: usize, gamma2: usize| -> Vec<(usize, NodeId)> {
                    pending
                        .iter()
                        .filter(|&&(_, v, support)| {
                            force_prune(&failures, v) || support.qualifies(gamma1, gamma2)
                        })
                        .map(|&(i, v, _)| (i, v))
                        .collect()
                };
                let mut ready = ready_at(gamma1, gamma2);
                while ready.is_empty() {
                    // At (0, K) every query qualifies, so this terminates.
                    if gamma1 > 0 {
                        gamma1 -= 1;
                    } else if gamma2 < k {
                        gamma2 += 1;
                    } else {
                        ready = pending.iter().map(|&(i, v, _)| (i, v)).collect();
                        break;
                    }
                    ready = ready_at(gamma1, gamma2);
                }

                // Scope the wave's query spans under its round span
                // (restored at the barrier so a trailing caller-side scope
                // survives).
                let round = report.rounds.len();
                let span = exec.tracer.span(
                    exec.sink,
                    "round",
                    || format!("round {round}"),
                    exec.tracer.current_or(exec.span_scope()),
                );
                let outer = exec.span_scope();
                exec.set_span_scope(span.id());
                let labels_now =
                    snapshot.get_or_insert_with(|| Arc::new(labels.clone())).clone();
                pending.retain(|&(i, v, _)| ready.binary_search(&(i, v)).is_err());
                let wave = ready.len();
                for (slot, node) in ready {
                    let work = Work {
                        slot,
                        node,
                        force_prune: force_prune(&failures, node),
                        labels: Some(labels_now.clone()),
                    };
                    dispatch.try_push(work).ok().expect("dispatch queue sized for every query");
                }
                let mut completed: Vec<Done> = (0..wave)
                    .map(|_| done_rx.recv().expect("worker pool hung up early"))
                    .collect();
                completed.sort_unstable_by_key(|d| d.slot); // candidate order
                exec.set_span_scope(outer);
                drop(span);

                // A failed query stays pending (no record yet) unless it has
                // exhausted its retries.
                let mut finals = Vec::with_capacity(completed.len());
                for done in completed {
                    match done.record {
                        Ok(r) if r.failed() => {
                            let n = failures.entry(done.node).or_insert(0);
                            *n += 1;
                            if *n >= policy.give_up_after {
                                finals.push(r); // permanent failed outcome
                            } else {
                                // Its count left `pending` with it and does
                                // not travel through the pool: the next
                                // pass counts it afresh.
                                let at = pending.partition_point(|&(i, _, _)| i < done.slot);
                                pending.insert(at, (done.slot, done.node, Support::UNKNOWN));
                            }
                        }
                        Ok(r) => {
                            failures.remove(&done.node);
                            finals.push(r);
                        }
                        Err(e) => {
                            first_err.get_or_insert(e);
                        }
                    }
                }

                // Every wave is a round, even one that finalized nothing:
                // rounds are what the cache-epoch invalidator and the
                // per-round ledger key on.
                report.rounds.push(RoundTrace { executed: finals.len(), gamma1, gamma2 });
                for r in finals.iter().filter(|r| r.yields_pseudo_label()) {
                    let before = labels.get(r.node);
                    labels.add_pseudo(r.node, r.predicted);
                    if labels.get(r.node) != before {
                        readiness.label_changed(r.node);
                    }
                    snapshot = None;
                }
                exec.sink.emit(&mqo_obs::Event::RoundCompleted {
                    round: round as u32,
                    executed: finals.len() as u64,
                    gamma1: gamma1 as u64,
                    gamma2: gamma2 as u64,
                    pseudo_label_uses: finals.iter().map(|r| r.pseudo_neighbors as u64).sum(),
                });
                // Journal the round's *final* outcomes (retried failures are
                // not final), then seal: the seal fsyncs, making it durable.
                for r in &finals {
                    exec.journal_record(r);
                    report.fresh_billed_tokens += r.prompt_tokens;
                }
                if let Some(j) = exec.journal {
                    j.seal_round(round as u32);
                }
                report.outcome.records.extend(finals);
            }
        });

        report.readiness_evals = readiness.evals();
        match first_err {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }

    /// Crash-safe resume for cue-gated runs: queries the journal already
    /// holds replay with zero LLM requests, and their pseudo-labels fold
    /// in up front so the remaining waves see the same label knowledge
    /// they would have accumulated live (under the same
    /// [`QueryRecord::yields_pseudo_label`] rule).
    fn predrain_replays(
        &self,
        labels: &mut LabelStore,
        pending: &mut Vec<(usize, NodeId, Support)>,
        report: &mut RunReport,
    ) {
        pending.retain(|&(_, v, _)| {
            let Some(r) = self.exec.replay_journaled(v) else { return true };
            if r.yields_pseudo_label() {
                labels.add_pseudo(r.node, r.predicted);
            }
            report.replayed += 1;
            report.outcome.records.push(r);
            false
        });
    }
}

/// The worker side of the pool: pull work from the dispatch queue, run
/// each query with panic containment, push records back through the
/// completion channel, and report throughput on exit.
fn worker_loop(
    exec: &Executor<'_>,
    predictor: &dyn Predictor,
    fixed_labels: Option<&LabelStore>,
    dispatch: &BoundedQueue<Work>,
    done_tx: mpsc::Sender<Done>,
    worker: u32,
) {
    // Fresh threads have no span stack: name their trace track (1-based;
    // 0 is the main thread) so query spans land on per-worker rows,
    // parented to the executor's span scope.
    mqo_obs::set_thread_track(worker + 1);
    let started = exec.clock.now_micros();
    let mut handled = 0u64;
    let mut scratch = RenderScratch::new();
    while let Some(work) = dispatch.pop() {
        let labels = work
            .labels
            .as_deref()
            .or(fixed_labels)
            .expect("dispatched work carries no label store");
        // Contain per-query panics: a poisoned predictor or a bug in one
        // prompt path must not lose the other workers' completed queries —
        // the panicked query becomes a failed record and the survivors
        // drain the rest.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut rng = exec.query_rng(work.node);
            exec.run_one_reusing(
                predictor,
                labels,
                work.node,
                &mut rng,
                work.force_prune,
                &mut scratch,
            )
        }));
        let record = match outcome {
            Ok(record) => record,
            Err(payload) => {
                // The render buffers may hold a half-written prompt.
                scratch = RenderScratch::new();
                let detail = panic_message(payload);
                exec.sink.emit(&mqo_obs::Event::WorkerLost {
                    worker,
                    node: work.node.0,
                    detail: detail.clone(),
                });
                Ok(exec.failed_record(work.node, format!("worker panicked: {detail}")))
            }
        };
        handled += 1;
        let _ = done_tx.send(Done { slot: work.slot, node: work.node, record });
    }
    exec.sink.emit(&mqo_obs::Event::WorkerThroughput {
        worker,
        queries: handled,
        wall_micros: exec.clock.now_micros().saturating_sub(started),
    });
}

/// Render a caught panic payload to text (panics carry `&str` or `String`
/// in practice; anything else gets a placeholder).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::test_fixtures::two_cliques;
    use crate::predictor::{KhopRandom, LlmRanked, Sns, ZeroShot};
    use crate::pruning::PrunePlan;
    use crate::tuned::{instructglm_backbones, TunedPredictor};
    use mqo_data::{dataset, DatasetId};
    use mqo_fault::{FaultConfig, FaultSchedule, FaultyLlm};
    use mqo_graph::{ClassId, LabeledSplit, SplitConfig, Tag};
    use mqo_llm::{Completion, LanguageModel, ModelProfile, SimLlm};
    use mqo_obs::{CostLedger, ManualClock, WaitClock};
    use mqo_token::{Tokenizer, Usage, UsageMeter};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    /// The pre-scheduler orchestration paths, kept as the reference
    /// implementations the equivalence proptests compare the scheduler
    /// against. The boosting loop tracks input positions (so a query
    /// listed twice runs twice, as the scheduler runs it) and recounts
    /// every pending query's support on every pass, with its own
    /// hash-set count: it shares neither the scheduler's support cache
    /// nor its counting code.
    mod legacy {
        use super::super::panic_message;
        use crate::boosting::{BoostConfig, DegradePolicy, RoundTrace};
        use crate::error::{Error, Result};
        use crate::executor::{ExecOutcome, Executor, QueryRecord};
        use crate::labels::LabelStore;
        use crate::predictor::{Predictor, SelectCtx};
        use crate::pruning::PrunePlan;
        use mqo_graph::NodeId;
        use parking_lot::Mutex;
        use rand::rngs::StdRng;
        use std::collections::{HashMap, HashSet};
        use std::panic::{catch_unwind, AssertUnwindSafe};

        /// `(|N_i^L|, LC_i)` over the selected neighbors, counted afresh.
        fn label_support(
            predictor: &dyn Predictor,
            ctx: &SelectCtx<'_>,
            v: NodeId,
            rng: &mut StdRng,
        ) -> (usize, usize) {
            let selected = predictor.select_neighbors(ctx, v, rng);
            let mut labels_seen = HashSet::new();
            let mut count = 0usize;
            for n in selected {
                if let Some(c) = ctx.labels.get(n) {
                    count += 1;
                    labels_seen.insert(c);
                }
            }
            (count, labels_seen.len())
        }

        pub(super) fn run_all_parallel(
            exec: &Executor<'_>,
            predictor: &dyn Predictor,
            labels: &LabelStore,
            queries: &[NodeId],
            prune_set: impl Fn(NodeId) -> bool + Sync,
            threads: usize,
        ) -> Result<ExecOutcome> {
            assert!(threads >= 1, "need at least one worker");
            if exec.budget.is_some() {
                return Err(Error::Config {
                    detail: "hard budgets require sequential execution".into(),
                });
            }
            let slots: Vec<Mutex<Option<Result<QueryRecord>>>> =
                queries.iter().map(|_| Mutex::new(None)).collect();
            for (i, &v) in queries.iter().enumerate() {
                if let Some(rec) = exec.replay_journaled(v) {
                    *slots[i].lock() = Some(Ok(rec));
                }
            }
            let next = std::sync::atomic::AtomicUsize::new(0);

            std::thread::scope(|scope| {
                let (next, slots, prune_set) = (&next, &slots, &prune_set);
                for worker in 0..threads {
                    scope.spawn(move || {
                        mqo_obs::set_thread_track(worker as u32 + 1);
                        let started = exec.clock.now_micros();
                        let mut handled = 0u64;
                        loop {
                            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            if i >= queries.len() {
                                break;
                            }
                            if slots[i].lock().is_some() {
                                continue; // replayed from the journal
                            }
                            let v = queries[i];
                            let record = catch_unwind(AssertUnwindSafe(|| {
                                let mut rng = exec.query_rng(v);
                                exec.run_one(predictor, labels, v, &mut rng, prune_set(v))
                            }))
                            .unwrap_or_else(|payload| {
                                let detail = panic_message(payload);
                                exec.sink.emit(&mqo_obs::Event::WorkerLost {
                                    worker: worker as u32,
                                    node: v.0,
                                    detail: detail.clone(),
                                });
                                Ok(exec.failed_record(v, format!("worker panicked: {detail}")))
                            });
                            if let Ok(rec) = &record {
                                exec.journal_record(rec);
                            }
                            handled += 1;
                            *slots[i].lock() = Some(record);
                        }
                        exec.sink.emit(&mqo_obs::Event::WorkerThroughput {
                            worker: worker as u32,
                            queries: handled,
                            wall_micros: exec.clock.now_micros().saturating_sub(started),
                        });
                    });
                }
            });

            let mut out = ExecOutcome::default();
            for slot in slots {
                let record = slot.into_inner().expect("every slot filled")?;
                out.records.push(record);
            }
            Ok(out)
        }

        /// The pre-scheduler boosting round loop.
        #[allow(clippy::too_many_arguments)]
        pub(super) fn run_with_boosting_policy(
            exec: &Executor<'_>,
            predictor: &dyn Predictor,
            labels: &mut LabelStore,
            queries: &[NodeId],
            config: BoostConfig,
            plan: &PrunePlan,
            policy: DegradePolicy,
        ) -> Result<(ExecOutcome, Vec<RoundTrace>)> {
            assert!(policy.give_up_after >= 1, "give_up_after must be positive");
            let mut pending: Vec<(usize, NodeId)> =
                queries.iter().copied().enumerate().collect();
            let mut out = ExecOutcome::default();

            // Crash-safe resume: queries the journal already holds replay
            // with zero LLM requests. Their pseudo-labels are folded in up
            // front so the remaining rounds see the same label knowledge
            // they would have accumulated live (under the same
            // `yields_pseudo_label` rule).
            let replayed: Vec<_> =
                pending.iter().filter_map(|&(_, v)| exec.replay_journaled(v)).collect();
            if !replayed.is_empty() {
                let done: HashSet<NodeId> = replayed.iter().map(|r| r.node).collect();
                pending.retain(|(_, v)| !done.contains(v));
                for r in &replayed {
                    if r.yields_pseudo_label() {
                        labels.add_pseudo(r.node, r.predicted);
                    }
                }
                out.records.extend(replayed);
            }

            let mut traces = Vec::new();
            let mut gamma1 = config.gamma1;
            let mut gamma2 = config.gamma2;
            let k = exec.tag.num_classes();
            // Consecutive failures per node, for the fallback/give-up
            // escalation.
            let mut failures: HashMap<NodeId, usize> = HashMap::new();
            let force_prune = |failures: &HashMap<NodeId, usize>, v: NodeId| {
                plan.is_pruned(v)
                    || failures.get(&v).is_some_and(|&n| n >= policy.fallback_after)
            };

            while !pending.is_empty() {
                // Step 1: candidate selection with incremental relaxation.
                let candidates: Vec<(usize, NodeId)> = loop {
                    let ctx =
                        SelectCtx { tag: exec.tag, labels, max_neighbors: exec.max_neighbors };
                    let mut c = Vec::new();
                    for &(i, v) in &pending {
                        if force_prune(&failures, v) {
                            // Pruned (or failure-downgraded) queries can't
                            // be enriched; run them now.
                            c.push((i, v));
                            continue;
                        }
                        // Per-node rng: N_i only changes when label
                        // knowledge does.
                        let mut rng = exec.query_rng(v);
                        let (n_l, lc) = label_support(predictor, &ctx, v, &mut rng);
                        if n_l >= gamma1 && lc <= gamma2 {
                            c.push((i, v));
                        }
                    }
                    if !c.is_empty() {
                        break c;
                    }
                    // Relax: γ1 down to zero first, then γ2 up to K (at
                    // (0, K) every query qualifies, so this terminates).
                    if gamma1 > 0 {
                        gamma1 -= 1;
                    } else if gamma2 < k {
                        gamma2 += 1;
                    } else {
                        break pending.clone();
                    }
                };

                // Scope query spans under this round's span (restored
                // after the round so a trailing caller-side scope
                // survives).
                let round_index = traces.len();
                let round_span = exec.tracer.span(
                    exec.sink,
                    "round",
                    || format!("round {round_index}"),
                    exec.tracer.current_or(exec.span_scope()),
                );
                let outer_scope = exec.span_scope();
                exec.set_span_scope(round_span.id());

                // Steps 2–3: execute candidates, then fold their
                // pseudo-labels in. Labels are frozen during the round (all
                // candidates see the same knowledge state, as in Algorithm
                // 2). A failed candidate stays pending (no record yet)
                // unless it has exhausted its retries.
                let mut round_records = Vec::with_capacity(candidates.len());
                let mut finished = HashSet::new();
                // Text-only fallbacks are decided at selection, like the
                // labels: an earlier copy of a listed-twice node in this
                // round cannot change them.
                let pruned: Vec<bool> =
                    candidates.iter().map(|&(_, v)| force_prune(&failures, v)).collect();
                for (&(i, v), &pruned) in candidates.iter().zip(&pruned) {
                    let mut rng = exec.query_rng(v);
                    let record = exec.run_one(predictor, labels, v, &mut rng, pruned);
                    match record {
                        Ok(r) if r.failed() => {
                            let n = failures.entry(v).or_insert(0);
                            *n += 1;
                            if *n >= policy.give_up_after {
                                finished.insert(i);
                                round_records.push(r); // permanent failed outcome
                            }
                        }
                        Ok(r) => {
                            failures.remove(&v);
                            finished.insert(i);
                            round_records.push(r);
                        }
                        Err(e) => {
                            exec.set_span_scope(outer_scope);
                            return Err(e);
                        }
                    }
                }
                exec.set_span_scope(outer_scope);
                drop(round_span);
                traces.push(RoundTrace { executed: round_records.len(), gamma1, gamma2 });
                for r in &round_records {
                    if r.yields_pseudo_label() {
                        labels.add_pseudo(r.node, r.predicted);
                    }
                }
                exec.sink.emit(&mqo_obs::Event::RoundCompleted {
                    round: round_index as u32,
                    executed: round_records.len() as u64,
                    gamma1: gamma1 as u64,
                    gamma2: gamma2 as u64,
                    pseudo_label_uses: round_records
                        .iter()
                        .map(|r| r.pseudo_neighbors as u64)
                        .sum(),
                });
                // Journal the round's *final* outcomes (retried failures
                // are not final), then seal: the seal fsyncs, making the
                // round durable.
                for r in &round_records {
                    exec.journal_record(r);
                }
                if let Some(j) = exec.journal {
                    j.seal_round(round_index as u32);
                }
                out.records.extend(round_records);
                pending.retain(|(i, _)| !finished.contains(i));
            }
            Ok((out, traces))
        }
    }

    /// An order-insensitive test model: the answer is a pure function of
    /// the prompt (hash → class), so records cannot depend on the order
    /// in which concurrent schedulers happen to issue calls. (ScriptedLlm
    /// is call-order-sensitive, which would make every pooled comparison
    /// vacuously flaky.)
    struct HashLlm {
        classes: Vec<String>,
        meter: UsageMeter,
    }

    impl HashLlm {
        fn new(classes: Vec<String>) -> Self {
            HashLlm { classes, meter: UsageMeter::new() }
        }
    }

    impl LanguageModel for HashLlm {
        fn name(&self) -> &str {
            "hash"
        }

        fn complete(&self, prompt: &str) -> mqo_llm::Result<Completion> {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in prompt.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            let class = &self.classes[(h % self.classes.len() as u64) as usize];
            let text = format!("Category: ['{class}']");
            let usage = Usage {
                prompt_tokens: Tokenizer.count(prompt) as u64,
                completion_tokens: Tokenizer.count(&text) as u64,
            };
            self.meter.record(usage);
            Ok(Completion::billed(text, usage))
        }

        fn meter(&self) -> &UsageMeter {
            &self.meter
        }
    }

    /// A random small TAG: `n` nodes, ~2n random edges, `k` classes.
    fn random_tag(seed: u64, n: usize, k: usize) -> Tag {
        crate::predictor::test_fixtures::random_tag(seed, n, k, 2 * n)
    }

    /// Queries (every other node) and a seed label on the rest.
    fn split(tag: &Tag) -> (Vec<NodeId>, LabelStore) {
        let mut labels = LabelStore::empty(tag.num_nodes());
        let mut queries = Vec::new();
        for i in 0..tag.num_nodes() {
            if i % 2 == 0 {
                queries.push(NodeId(i as u32));
            } else {
                labels.add_pseudo(NodeId(i as u32), tag.label(NodeId(i as u32)));
            }
        }
        (queries, labels)
    }

    fn trace_fields(traces: &[RoundTrace]) -> Vec<(usize, usize, usize)> {
        traces.iter().map(|t| (t.executed, t.gamma1, t.gamma2)).collect()
    }

    /// Run a fixed-label policy and keep only the records.
    fn fixed(
        exec: &Executor<'_>,
        predictor: &dyn Predictor,
        labels: &LabelStore,
        queries: &[NodeId],
        prune_set: impl Fn(NodeId) -> bool + Sync,
        policy: SchedulePolicy,
    ) -> Result<ExecOutcome> {
        Scheduler::new(exec, policy)
            .run(predictor, Labels::Fixed(labels), queries, prune_set)
            .map(|report| report.outcome)
    }

    /// A seeded Cora slice: the bundle, a per-class split and a SimLLM.
    fn cora(
        scale: f64,
        data_seed: u64,
        queries: usize,
        split_seed: u64,
    ) -> (mqo_data::DatasetBundle, LabeledSplit, SimLlm) {
        let bundle = dataset(DatasetId::Cora, Some(scale), data_seed);
        let split = LabeledSplit::generate(
            &bundle.tag,
            SplitConfig::PerClass { per_class: 20, num_queries: queries },
            &mut StdRng::seed_from_u64(split_seed),
        )
        .unwrap();
        let llm = SimLlm::new(
            bundle.lexicon.clone(),
            bundle.tag.class_names().to_vec(),
            ModelProfile::gpt35(),
        );
        (bundle, split, llm)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// FIFO scheduling is the legacy sequential loop, bit for bit —
        /// same records in the same order, same metered spend — for
        /// arbitrary small TAGs and prune sets.
        #[test]
        fn fifo_matches_legacy_run_all(seed in 0u64..10_000, n in 4usize..12, k in 2usize..4) {
            let tag = random_tag(seed, n, k);
            let (queries, labels) = split(&tag);
            let predictor = KhopRandom::new(1, tag.num_nodes());
            let prune = |v: NodeId| v.0.is_multiple_of(3);

            let llm_a = HashLlm::new(tag.class_names().to_vec());
            let exec_a = Executor::new(&tag, &llm_a, 3, seed);
            let legacy = exec_a.run_all_legacy(&predictor, &labels, &queries, prune).unwrap();

            let llm_b = HashLlm::new(tag.class_names().to_vec());
            let exec_b = Executor::new(&tag, &llm_b, 3, seed);
            let sched = Scheduler::new(&exec_b, SchedulePolicy::Fifo)
                .run(&predictor, Labels::Fixed(&labels), &queries, prune)
                .unwrap();

            prop_assert_eq!(&legacy.records, &sched.outcome.records);
            prop_assert_eq!(llm_a.meter().totals(), llm_b.meter().totals());
            prop_assert_eq!(sched.replayed, 0);
            prop_assert_eq!(
                sched.fresh_billed_tokens,
                sched.outcome.records.iter().map(|r| r.prompt_tokens).sum::<u64>()
            );
        }

        /// FIFO equivalence holds under arbitrary seeded fault schedules:
        /// the scheduler issues calls in the same sequential order, so the
        /// `(seed, call-index)`-keyed injector fires identically.
        #[test]
        fn fifo_matches_legacy_under_faults(
            seed in 0u64..10_000,
            fault_seed in 0u64..10_000,
            transient in 0.0f64..0.4,
            malformed in 0.0f64..0.3,
        ) {
            let tag = random_tag(seed, 8, 2);
            let (queries, labels) = split(&tag);
            let predictor = KhopRandom::new(1, tag.num_nodes());

            let faulty_a = faulty(&tag, fault_seed, transient, malformed);
            let exec_a = Executor::new(&tag, &faulty_a, 3, seed).with_degrade();
            let legacy =
                exec_a.run_all_legacy(&predictor, &labels, &queries, |_| false).unwrap();

            let faulty_b = faulty(&tag, fault_seed, transient, malformed);
            let exec_b = Executor::new(&tag, &faulty_b, 3, seed).with_degrade();
            let sched = Scheduler::new(&exec_b, SchedulePolicy::Fifo)
                .run(&predictor, Labels::Fixed(&labels), &queries, |_| false)
                .unwrap();

            prop_assert_eq!(&legacy.records, &sched.outcome.records);
        }

        /// The pooled fixed policies produce the same input-order record
        /// stream as their pre-scheduler implementations (and the
        /// sequential path) for arbitrary TAGs and widths.
        #[test]
        fn pooled_policies_match_legacy(
            seed in 0u64..10_000,
            n in 4usize..12,
            threads in 1usize..4,
        ) {
            let tag = random_tag(seed, n, 3);
            let (queries, labels) = split(&tag);
            let predictor = KhopRandom::new(1, tag.num_nodes());
            let llm = HashLlm::new(tag.class_names().to_vec());
            let exec = Executor::new(&tag, &llm, 3, seed);

            let seq = exec.run_all_legacy(&predictor, &labels, &queries, |_| false).unwrap();
            let par_legacy = legacy::run_all_parallel(
                &exec, &predictor, &labels, &queries, |_| false, threads,
            )
            .unwrap();
            let par = fixed(
                &exec, &predictor, &labels, &queries, |_| false,
                SchedulePolicy::Parallel { threads },
            )
            .unwrap();

            prop_assert_eq!(&seq.records, &par_legacy.records);
            prop_assert_eq!(&seq.records, &par.records);
        }

        /// Width-N deterministic waves reproduce the width-1 stream bit
        /// for bit: labels are frozen per wave and records re-assemble in
        /// candidate order, so the pool width is unobservable.
        #[test]
        fn deterministic_waves_are_width_invariant(
            seed in 0u64..10_000,
            n in 4usize..12,
            threads in 2usize..5,
        ) {
            let tag = random_tag(seed, n, 3);
            let (queries, labels) = split(&tag);
            let config = BoostConfig { gamma1: 2, gamma2: 2 };
            let predictor = KhopRandom::new(1, tag.num_nodes());

            let mut runs = Vec::new();
            for width in [1, threads, threads] {
                let llm = HashLlm::new(tag.class_names().to_vec());
                let exec = Executor::new(&tag, &llm, 3, seed);
                let mut l = labels.clone();
                let report = Scheduler::new(
                    &exec,
                    SchedulePolicy::cue_gated(config, DegradePolicy::default(), width),
                )
                .run(&predictor, Labels::Boosting(&mut l), &queries, |_| false)
                .unwrap();
                runs.push(report.outcome.records);
            }
            prop_assert_eq!(&runs[0], &runs[1], "width-N wave diverged from width 1");
            prop_assert_eq!(&runs[1], &runs[2], "two identical runs diverged");
        }

        /// Waves over a worker pool of width 2–4 under a degraded,
        /// ledger-wired executor: every query gets exactly one record, the
        /// cost ledger conserves, every answer pseudo-labels its node, and
        /// the records equal the width-1 run's.
        #[test]
        fn waves_cover_every_query_and_conserve_at_any_width(
            seed in 0u64..10_000,
            n in 4usize..12,
            threads in 2usize..5,
        ) {
            let tag = random_tag(seed, n, 3);
            let (queries, labels) = split(&tag);
            let predictor = KhopRandom::new(1, tag.num_nodes());
            let run = |width: usize| {
                let llm = HashLlm::new(tag.class_names().to_vec());
                let ledger = CostLedger::new();
                let exec = Executor::new(&tag, &llm, 3, seed).with_sink(&ledger).with_degrade();
                let mut l = labels.clone();
                let policy =
                    SchedulePolicy::cue_gated(BoostConfig::default(), DegradePolicy::default(), width);
                let report = Scheduler::new(&exec, policy)
                    .run(&predictor, Labels::Boosting(&mut l), &queries, |_| false)
                    .unwrap();
                (report, l, ledger.report())
            };
            let (report, l, cost) = run(threads);

            prop_assert_eq!(report.outcome.records.len(), queries.len());
            let mut nodes: Vec<u32> =
                report.outcome.records.iter().map(|r| r.node.0).collect();
            nodes.sort_unstable();
            let mut expected: Vec<u32> = queries.iter().map(|v| v.0).collect();
            expected.sort_unstable();
            prop_assert_eq!(nodes, expected, "a query was lost or duplicated");
            prop_assert!(cost.total.conserves(), "conservation violated: {}", cost);
            // Every query that answered pseudo-labeled itself.
            for r in report.outcome.records.iter().filter(|r| r.yields_pseudo_label()) {
                prop_assert!(l.is_labeled(r.node));
            }
            prop_assert_eq!(
                report.rounds.iter().map(|t| t.executed).sum::<usize>(),
                queries.len()
            );
            prop_assert_eq!(&report.outcome.records, &run(1).0.outcome.records);
        }
    }

    /// One of every predictor the cue-gated loop runs, by `which`: 1- and
    /// 2-hop random, LLM-ranked, SNS, zero-shot, and a tuned backbone
    /// (picked by `seed`).
    fn any_predictor(which: usize, tag: &Tag, seed: u64) -> Box<dyn Predictor> {
        let backbones = instructglm_backbones();
        match which {
            0 => Box::new(KhopRandom::new(1, tag.num_nodes())),
            1 => Box::new(KhopRandom::new(2, tag.num_nodes())),
            2 => Box::new(LlmRanked::fit(tag, 1)),
            3 => Box::new(Sns::fit(tag)),
            4 => Box::new(ZeroShot),
            _ => Box::new(TunedPredictor::new(
                backbones[seed as usize % backbones.len()],
                tag.num_nodes(),
            )),
        }
    }

    /// A seeded fault injector over the order-insensitive test model.
    fn faulty(
        tag: &Tag,
        fault_seed: u64,
        transient: f64,
        malformed: f64,
    ) -> FaultyLlm<HashLlm> {
        let cfg = FaultConfig {
            transient_rate: transient,
            malformed_rate: malformed,
            ..FaultConfig::default()
        };
        let wait: Arc<dyn WaitClock> = Arc::new(ManualClock::new());
        FaultyLlm::new(
            HashLlm::new(tag.class_names().to_vec()),
            FaultSchedule::seeded(fault_seed, cfg),
            wait,
        )
    }

    /// `queries` with each `(from, to)` pick copying one query id to
    /// another position.
    fn with_duplicates(mut queries: Vec<NodeId>, picks: &[(usize, usize)]) -> Vec<NodeId> {
        for (from, to) in picks {
            let v = queries[from % queries.len()];
            let at = to % (queries.len() + 1);
            queries.insert(at, v);
        }
        queries
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Cue-gated scheduling at width 1 *is* the legacy
        /// boosting loop — same records in the same order, same round
        /// traces, same relaxation path, same metered spend — for every
        /// predictor, with a random prune set, with node ids listed more
        /// than once, and under a degraded executor whose seeded faults
        /// send queries through retry, text-only fallback and give-up
        /// back into `pending`.
        #[test]
        fn cue_gated_deterministic_matches_legacy_boosting(
            seed in 0u64..10_000,
            n in 4usize..40,
            gamma1 in 0usize..4,
            gamma2 in 1usize..3,
            which in 0usize..6,
            prune in 0.0f64..0.4,
            fault_seed in 0u64..10_000,
            transient in 0.0f64..0.5,
            malformed in 0.0f64..0.3,
            dups in prop::collection::vec((any::<usize>(), any::<usize>()), 0..4),
        ) {
            let tag = random_tag(seed, n, 3);
            let (queries, labels) = split(&tag);
            let queries = with_duplicates(queries, &dups);
            let config = BoostConfig { gamma1, gamma2 };
            let predictor = any_predictor(which, &tag, seed);
            let plan = PrunePlan::random(&queries, prune, seed);

            let llm_a = faulty(&tag, fault_seed, transient, malformed);
            let exec_a = Executor::new(&tag, &llm_a, 3, seed).with_degrade();
            let mut labels_a = labels.clone();
            let (out_a, traces_a) = legacy::run_with_boosting_policy(
                &exec_a, &*predictor, &mut labels_a, &queries, config, &plan,
                DegradePolicy::default(),
            )
            .unwrap();

            let llm_b = faulty(&tag, fault_seed, transient, malformed);
            let exec_b = Executor::new(&tag, &llm_b, 3, seed).with_degrade();
            let mut labels_b = labels.clone();
            let report = Scheduler::new(
                &exec_b,
                SchedulePolicy::cue_gated(config, DegradePolicy::default(), 1),
            )
            .run(&*predictor, Labels::Boosting(&mut labels_b), &queries, |v| plan.is_pruned(v))
            .unwrap();

            prop_assert_eq!(&out_a.records, &report.outcome.records);
            prop_assert_eq!(trace_fields(&traces_a), trace_fields(&report.rounds));
            prop_assert_eq!(llm_a.meter().totals(), llm_b.meter().totals());
            prop_assert_eq!(report.outcome.records.len(), queries.len());
        }

        /// Waves on a pool of width 2–3 under faults, with node ids listed
        /// more than once: failures return to `pending` after their wave's
        /// fold changed labels around them. The test build re-counts every
        /// support entry a readiness pass reads and panics on a stale one;
        /// every position still gets exactly one record.
        #[test]
        fn waves_under_faults_and_duplicates_read_only_current_support(
            seed in 0u64..10_000,
            n in 4usize..40,
            threads in 2usize..4,
            which in 0usize..6,
            fault_seed in 0u64..10_000,
            transient in 0.0f64..0.5,
            dups in prop::collection::vec((any::<usize>(), any::<usize>()), 0..4),
        ) {
            let tag = random_tag(seed, n, 3);
            let (queries, labels) = split(&tag);
            let queries = with_duplicates(queries, &dups);
            let predictor = any_predictor(which, &tag, seed);
            let llm = faulty(&tag, fault_seed, transient, 0.0);
            let exec = Executor::new(&tag, &llm, 3, seed).with_degrade();
            let mut l = labels.clone();
            let report = Scheduler::new(
                &exec,
                SchedulePolicy::cue_gated(BoostConfig::default(), DegradePolicy::default(), threads),
            )
            .run(&*predictor, Labels::Boosting(&mut l), &queries, |_| false)
            .unwrap();

            let mut got: Vec<u32> = report.outcome.records.iter().map(|r| r.node.0).collect();
            got.sort_unstable();
            let mut want: Vec<u32> = queries.iter().map(|v| v.0).collect();
            want.sort_unstable();
            prop_assert_eq!(got, want, "a position was lost or answered twice");
            prop_assert_eq!(
                report.rounds.iter().map(|t| t.executed).sum::<usize>(),
                queries.len()
            );
        }
    }

    /// The readiness pass recounts support only where a label changed:
    /// a predictor claiming no radius recounts every pending query after
    /// every fold, the same run with 1-hop radius far fewer, and both
    /// reach identical records. Evaluations repeat exactly.
    #[test]
    fn readiness_recounts_only_within_the_label_radius() {
        /// 1-hop random with its radius claim withdrawn.
        struct NoRadius(KhopRandom);
        impl Predictor for NoRadius {
            fn name(&self) -> &str {
                self.0.name()
            }
            fn select_neighbors(
                &self,
                ctx: &SelectCtx<'_>,
                v: NodeId,
                rng: &mut StdRng,
            ) -> Vec<NodeId> {
                self.0.select_neighbors(ctx, v, rng)
            }
        }

        let (bundle, split, _) = cora(0.4, 41, 200, 2);
        let tag = &bundle.tag;
        let run = |predictor: &dyn Predictor| {
            let llm = HashLlm::new(tag.class_names().to_vec());
            let exec = Executor::new(tag, &llm, 4, 3);
            let mut labels = LabelStore::from_split(tag, &split);
            Scheduler::new(
                &exec,
                SchedulePolicy::cue_gated(BoostConfig::default(), DegradePolicy::default(), 2),
            )
            .run(predictor, Labels::Boosting(&mut labels), split.queries(), |_| false)
            .unwrap()
        };
        let khop = KhopRandom::new(1, tag.num_nodes());
        let (a, b) = (run(&khop), run(&khop));
        let everywhere = run(&NoRadius(KhopRandom::new(1, tag.num_nodes())));
        assert_eq!(a.outcome.records, everywhere.outcome.records);
        assert_eq!(trace_fields(&a.rounds), trace_fields(&everywhere.rounds));
        assert_eq!(a.readiness_evals, b.readiness_evals, "the count must repeat");
        assert!(a.rounds.len() >= 3, "rounds: {:?}", trace_fields(&a.rounds));
        // Every query is counted at least once before its first wave.
        assert!(a.readiness_evals >= split.queries().len() as u64);
        assert!(
            a.readiness_evals < everywhere.readiness_evals,
            "radius 1: {}, no radius: {}",
            a.readiness_evals,
            everywhere.readiness_evals
        );
    }

    /// Cue-gated scheduling without a boosting label store is a config
    /// error, not a silent fixed-label run.
    #[test]
    fn cue_gated_requires_boosting_labels() {
        let tag = random_tag(7, 6, 2);
        let (queries, labels) = split(&tag);
        let llm = HashLlm::new(tag.class_names().to_vec());
        let exec = Executor::new(&tag, &llm, 3, 7);
        let err = Scheduler::new(
            &exec,
            SchedulePolicy::cue_gated(BoostConfig::default(), DegradePolicy::default(), 2),
        )
        .run(
            &KhopRandom::new(1, tag.num_nodes()),
            Labels::Fixed(&labels),
            &queries,
            |_| false,
        );
        assert!(matches!(err, Err(Error::Config { .. })));
    }

    /// A hard budget forces cue-gated runs onto the sequential wave path
    /// (spend order must be reproducible) and still never overshoots.
    #[test]
    fn cue_gated_budget_clamps_to_sequential_and_holds() {
        let tag = random_tag(11, 10, 2);
        let (queries, labels) = split(&tag);
        let llm = HashLlm::new(tag.class_names().to_vec());
        let exec = Executor::new(&tag, &llm, 3, 11).with_budget(200);
        let mut l = labels.clone();
        let report = Scheduler::new(
            &exec,
            SchedulePolicy::cue_gated(BoostConfig::default(), DegradePolicy::default(), 4),
        )
        .run(&KhopRandom::new(1, tag.num_nodes()), Labels::Boosting(&mut l), &queries, |_| {
            false
        })
        .unwrap();
        assert_eq!(report.outcome.records.len(), queries.len());
        assert!(llm.meter().totals().prompt_tokens <= 200, "budget overshot");
    }

    /// Bugfix regression: a budget-starved query records the fallback
    /// class without asking the model, and cue-gated runs used to fold
    /// that class in as a pseudo-label. No starved node may carry one,
    /// while every answered query still labels its node.
    #[test]
    fn a_starved_query_leaves_no_pseudo_label() {
        let tag = random_tag(11, 10, 2);
        let (queries, labels) = split(&tag);
        let llm = HashLlm::new(tag.class_names().to_vec());
        let exec = Executor::new(&tag, &llm, 3, 11).with_budget(120);
        let mut l = labels.clone();
        let policy =
            SchedulePolicy::cue_gated(BoostConfig::default(), DegradePolicy::default(), 1);
        let report = Scheduler::new(&exec, policy)
            .run(
                &KhopRandom::new(1, tag.num_nodes()),
                Labels::Boosting(&mut l),
                &queries,
                |_| false,
            )
            .unwrap();
        let (starved, answered): (Vec<_>, Vec<_>) =
            report.outcome.records.iter().partition(|r| r.budget_starved);
        assert!(!starved.is_empty() && !answered.is_empty(), "{starved:?} {answered:?}");
        for r in starved {
            assert_eq!(l.get(r.node), None, "starved node {:?} was pseudo-labeled", r.node);
        }
        for r in answered {
            assert_eq!(l.get(r.node), Some(r.predicted));
        }
    }

    /// One pool per run: a run that needs several waves
    /// reports one throughput event per worker, not one per worker per
    /// wave.
    #[test]
    fn one_pool_serves_every_wave() {
        let tag = two_cliques();
        let llm = HashLlm::new(tag.class_names().to_vec());
        let sink = mqo_obs::Recorder::new();
        // Room for every neighbor, so readiness sees the whole clique.
        let exec = Executor::new(&tag, &llm, 6, 0).with_sink(&sink);
        let mut labels = LabelStore::empty(tag.num_nodes());
        for v in [1u32, 2, 3] {
            labels.add_pseudo(NodeId(v), ClassId(0));
        }
        // Clique A's queries see three labeled neighbors and qualify at
        // once; clique B's see none and wait for relaxation.
        let qs: Vec<NodeId> = [0u32, 4, 5, 7, 8, 9, 10, 11].map(NodeId).to_vec();
        let report = Scheduler::new(
            &exec,
            SchedulePolicy::cue_gated(
                BoostConfig { gamma1: 3, gamma2: 1 },
                DegradePolicy::default(),
                3,
            ),
        )
        .run(&KhopRandom::new(1, tag.num_nodes()), Labels::Boosting(&mut labels), &qs, |_| {
            false
        })
        .unwrap();
        assert!(report.rounds.len() >= 2, "rounds: {:?}", trace_fields(&report.rounds));
        assert!(report.rounds[0].executed >= 3, "rounds: {:?}", trace_fields(&report.rounds));
        let reports = sink.of_kind("worker_throughput");
        assert_eq!(reports.len(), 3, "one report per worker for the whole run");
        let handled: u64 = reports
            .iter()
            .map(|e| match e {
                mqo_obs::Event::WorkerThroughput { queries, .. } => *queries,
                other => panic!("unexpected event {other:?}"),
            })
            .sum();
        assert_eq!(handled, qs.len() as u64);
    }

    /// Online arrivals: queries arrive in windows of `window`, and each
    /// window runs in waves on one label store that evolves across
    /// windows. Returns every answered record, the final label store and
    /// the arrivals in order.
    fn run_arrival_windows(window: usize) -> (Vec<QueryRecord>, LabelStore, Vec<NodeId>) {
        let (bundle, split, llm) = cora(0.4, 41, 200, 2);
        let exec = Executor::new(&bundle.tag, &llm, 4, 3);
        let predictor = KhopRandom::new(2, bundle.tag.num_nodes());
        let mut labels = LabelStore::from_split(&bundle.tag, &split);
        let scheduler = Scheduler::new(
            &exec,
            SchedulePolicy::cue_gated(BoostConfig::default(), DegradePolicy::default(), 2),
        );
        let mut answered = Vec::new();
        for chunk in split.queries().chunks(window) {
            let report = scheduler
                .run(&predictor, Labels::Boosting(&mut labels), chunk, |_| false)
                .unwrap();
            answered.extend(report.outcome.records);
        }
        (answered, labels, split.queries().to_vec())
    }

    /// Every arrival is answered exactly once across windows.
    #[test]
    fn every_arrival_is_answered_exactly_once() {
        let (answered, _, queries) = run_arrival_windows(32);
        let mut nodes: Vec<u32> = answered.iter().map(|r| r.node.0).collect();
        nodes.sort_unstable();
        let mut expected: Vec<u32> = queries.iter().map(|v| v.0).collect();
        expected.sort_unstable();
        assert_eq!(nodes, expected);
    }

    /// Pseudo-labels from earlier arrivals reach later prompts, and every
    /// arrival leaves a pseudo-label behind.
    #[test]
    fn online_boosting_accumulates_pseudo_labels_that_reach_prompts() {
        let (answered, labels, _) = run_arrival_windows(64);
        let pseudo_uses: usize = answered.iter().map(|r| r.pseudo_neighbors).sum();
        assert!(pseudo_uses > 0, "online boosting never used a pseudo-label");
        assert_eq!(labels.num_pseudo(), 200);
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        let (bundle, split, llm) = cora(0.3, 31, 150, 1);
        let tag = &bundle.tag;
        let exec = Executor::new(tag, &llm, 4, 5);
        let labels = LabelStore::from_split(tag, &split);
        let predictor = KhopRandom::new(1, tag.num_nodes());

        let seq = exec.run_all(&predictor, &labels, split.queries(), |_| false).unwrap();
        let par = fixed(
            &exec,
            &predictor,
            &labels,
            split.queries(),
            |_| false,
            SchedulePolicy::Parallel { threads: 4 },
        )
        .unwrap();
        assert_eq!(seq.records, par.records, "parallel execution changed results");
        // Meter totals also agree (both runs doubled the counts).
        assert_eq!(llm.meter().totals().requests as usize, 2 * split.queries().len());
    }

    #[test]
    fn parallel_respects_prune_set() {
        let tag = two_cliques();
        let llm = mqo_llm::ScriptedLlm::new(vec!["Category: ['Alpha']"; 12]);
        let exec = Executor::new(&tag, &llm, 4, 0);
        let labels = LabelStore::empty(tag.num_nodes());
        let p = KhopRandom::new(1, tag.num_nodes());
        let qs: Vec<NodeId> = (0..6).map(NodeId).collect();
        let out = fixed(
            &exec,
            &p,
            &labels,
            &qs,
            |v| v.0 % 2 == 0,
            SchedulePolicy::Parallel { threads: 3 },
        )
        .unwrap();
        for r in &out.records {
            assert_eq!(r.pruned, r.node.0 % 2 == 0 || r.neighbors_included == 0);
        }
    }

    #[test]
    fn hard_budget_is_rejected() {
        let tag = two_cliques();
        let llm = mqo_llm::ScriptedLlm::new(vec!["Category: ['Alpha']"; 2]);
        let exec = Executor::new(&tag, &llm, 4, 0).with_budget(100);
        let labels = LabelStore::empty(tag.num_nodes());
        let p = KhopRandom::new(1, tag.num_nodes());
        let err = fixed(
            &exec,
            &p,
            &labels,
            &[NodeId(0)],
            |_| false,
            SchedulePolicy::Parallel { threads: 2 },
        );
        assert!(matches!(err, Err(Error::Config { .. })));
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let tag = two_cliques();
        let llm = mqo_llm::ScriptedLlm::new(vec!["x"]);
        let exec = Executor::new(&tag, &llm, 4, 0);
        let labels = LabelStore::empty(tag.num_nodes());
        let p = KhopRandom::new(1, tag.num_nodes());
        let _ =
            fixed(&exec, &p, &labels, &[], |_| false, SchedulePolicy::Parallel { threads: 0 });
    }

    #[test]
    fn each_worker_reports_throughput() {
        let tag = two_cliques();
        let llm = mqo_llm::ScriptedLlm::new(vec!["Category: ['Alpha']"; 12]);
        let sink = mqo_obs::Recorder::new();
        let exec = Executor::new(&tag, &llm, 4, 0).with_sink(&sink);
        let labels = LabelStore::empty(tag.num_nodes());
        let p = KhopRandom::new(1, tag.num_nodes());
        let qs: Vec<NodeId> = (0..6).map(NodeId).collect();
        fixed(&exec, &p, &labels, &qs, |_| false, SchedulePolicy::Parallel { threads: 3 })
            .unwrap();
        let reports = sink.of_kind("worker_throughput");
        assert_eq!(reports.len(), 3, "one report per worker");
        let total: u64 = reports
            .iter()
            .map(|e| match e {
                mqo_obs::Event::WorkerThroughput { queries, .. } => *queries,
                other => panic!("unexpected event {other:?}"),
            })
            .sum();
        assert_eq!(total, 6, "workers collectively handled every query");
    }

    /// A predictor that panics on a specific node — exercises panic
    /// containment in the worker loop.
    struct PanicOn(NodeId);

    impl Predictor for PanicOn {
        fn name(&self) -> &str {
            "panic-on"
        }
        fn select_neighbors(
            &self,
            _ctx: &SelectCtx<'_>,
            v: NodeId,
            _rng: &mut StdRng,
        ) -> Vec<NodeId> {
            if v == self.0 {
                panic!("deliberate test panic for node {}", v.0);
            }
            Vec::new()
        }
    }

    #[test]
    fn worker_panic_yields_failed_record_not_lost_run() {
        let tag = two_cliques();
        let llm = mqo_llm::ScriptedLlm::new(vec!["Category: ['Alpha']"; 6]);
        let sink = mqo_obs::Recorder::new();
        let exec = Executor::new(&tag, &llm, 4, 0).with_sink(&sink);
        let labels = LabelStore::empty(tag.num_nodes());
        let p = PanicOn(NodeId(2));
        let qs: Vec<NodeId> = (0..4).map(NodeId).collect();
        let out =
            fixed(&exec, &p, &labels, &qs, |_| false, SchedulePolicy::Parallel { threads: 2 })
                .unwrap();
        assert_eq!(out.records.len(), 4, "no completed query was lost");
        assert_eq!(out.failed(), 1);
        let failed = out.records.iter().find(|r| r.node == NodeId(2)).unwrap();
        assert!(failed.failed());
        assert!(
            failed.failure.as_deref().unwrap().contains("deliberate test panic"),
            "got: {:?}",
            failed.failure
        );
        assert!(!failed.correct);
        // The survivors completed normally.
        assert!(out.records.iter().filter(|r| r.node != NodeId(2)).all(|r| !r.failed()));
        // Containment is observable.
        match &sink.of_kind("worker_lost")[..] {
            [mqo_obs::Event::WorkerLost { node, detail, .. }] => {
                assert_eq!(*node, 2);
                assert!(detail.contains("deliberate test panic"));
            }
            other => panic!("expected one WorkerLost, got {other:?}"),
        }
        assert_eq!(sink.of_kind("query_failed").len(), 1);
    }
}
