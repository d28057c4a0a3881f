//! The query boosting strategy (Algorithm 2) and the scheduling /
//! utilization analysis behind Fig. 8.
//!
//! Queries run in rounds. Each round selects candidates with enough
//! reliable neighbor labels (`|N_i^L| ≥ γ1`) and few conflicting label
//! kinds (`LC_i ≤ γ2`); executed queries contribute pseudo-labels that
//! enrich the neighbor text of later rounds. When no query qualifies, the
//! thresholds relax incrementally (γ1 down first, then γ2 up), preserving
//! the reliability ordering while guaranteeing termination.
//!
//! The rounds run on the scheduler: [`crate::sched::SchedulePolicy::CueGated`]
//! with this module's [`BoostConfig`] and [`DegradePolicy`]. The
//! scheduler keeps each pending query's `(|N_i^L|, LC_i)` and, through
//! this module's `Readiness`, recounts it only after a label changes
//! within the predictor's [`crate::predictor::Predictor::label_radius`].

use crate::labels::LabelStore;
use crate::predictor::{Predictor, SelectCtx};
use mqo_graph::traversal::{khop_nodes, sample_prefer_labeled, KhopBuffer};
use mqo_graph::{ClassId, Csr, NodeId, Tag};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashSet;

/// Query boosting thresholds (paper defaults: γ1 = 3, γ2 = 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoostConfig {
    /// Minimum neighbor labels for candidacy.
    pub gamma1: usize,
    /// Maximum distinct neighbor-label kinds for candidacy.
    pub gamma2: usize,
}

impl Default for BoostConfig {
    fn default() -> Self {
        BoostConfig { gamma1: 3, gamma2: 2 }
    }
}

/// Per-round execution trace (for tests and the Fig. 8 analysis).
#[derive(Debug, Clone)]
pub struct RoundTrace {
    /// Queries executed this round.
    pub executed: usize,
    /// γ1/γ2 in effect when the round's candidates were selected.
    pub gamma1: usize,
    /// See [`RoundTrace::gamma1`].
    pub gamma2: usize,
}

/// How boosting treats queries that fail under a degraded executor
/// ([`crate::Executor::with_degrade`]). Failed queries produce no pseudo-label —
/// the γ1/γ2 rule naturally treats them as unexecuted — and are retried
/// in later rounds with escalating fallbacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradePolicy {
    /// After this many failures, retry the query *text-only* (pruned-style,
    /// no neighbor enrichment): repeated failures are often prompt-size
    /// correlated, and the neighbor-free prompt is the cheapest to re-send.
    pub fallback_after: usize,
    /// After this many failures, stop retrying and record the failed
    /// outcome permanently. Bounds total work under a hard outage, so the
    /// round loop always terminates.
    pub give_up_after: usize,
}

impl Default for DegradePolicy {
    fn default() -> Self {
        DegradePolicy { fallback_after: 2, give_up_after: 4 }
    }
}

/// A pending query's `(|N_i^L|, LC_i)` as of the last readiness pass,
/// or [`Support::UNKNOWN`]. Four bytes, so it rides in the padding of a
/// `(usize, NodeId)` pending entry. Counts saturate at 65,534, far above
/// any neighbor cap `M`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Support {
    labeled: u16,
    kinds: u16,
}

impl Support {
    /// Not counted yet, or invalidated.
    pub(crate) const UNKNOWN: Support = Support { labeled: u16::MAX, kinds: u16::MAX };

    fn new(labeled: usize, kinds: usize) -> Self {
        let clamp = |n: usize| n.min(usize::from(u16::MAX - 1)) as u16;
        Support { labeled: clamp(labeled), kinds: clamp(kinds) }
    }

    /// Whether the counts meet the γ₁/γ₂ rule.
    pub(crate) fn qualifies(self, gamma1: usize, gamma2: usize) -> bool {
        debug_assert!(self != Support::UNKNOWN, "support read before a readiness pass");
        usize::from(self.labeled) >= gamma1 && usize::from(self.kinds) <= gamma2
    }
}

/// The incremental half of the cue-gated readiness pass: which pending
/// queries' [`Support`] a label change since the last pass made stale.
/// A query is recounted only after a label changes within the
/// predictor's [`Predictor::label_radius`] of it.
///
/// Caching is exact: [`Predictor::label_support`] of `v` reads the query's own rng
/// (a pure function of the run seed and `v`) and the labels inside v's
/// selection ball. The graph is undirected, so a label change on `u` can
/// move v's support only if `v` lies within the radius of `u`. With no
/// radius, every label change invalidates every entry.
///
/// State is three bits per node: the invalidation ball is grown hop by
/// hop over node bitsets, so nothing grows with node degree.
pub(crate) struct Readiness {
    radius: Option<u8>,
    /// Nodes whose label changed since the last refresh.
    changed: NodeBits,
    /// Nodes within `radius` of a changed node: their entries are stale.
    stale: NodeBits,
    /// The next hop's frontier while `stale` grows.
    next: NodeBits,
    /// Whether any label changed since the last refresh.
    dirty: bool,
    kinds: Vec<ClassId>,
    evals: u64,
}

impl Readiness {
    /// Tracking for a graph of `num_nodes` nodes, invalidating within
    /// `radius` hops.
    pub(crate) fn new(num_nodes: usize, radius: Option<u8>) -> Self {
        Readiness {
            radius,
            changed: NodeBits::new(num_nodes),
            stale: NodeBits::new(num_nodes),
            next: NodeBits::new(num_nodes),
            dirty: false,
            kinds: Vec::new(),
            evals: 0,
        }
    }

    /// Record that the label of `u` changed.
    pub(crate) fn label_changed(&mut self, u: NodeId) {
        self.dirty = true;
        self.changed.insert(u.index());
    }

    /// [`Predictor::label_support`] calls made so far.
    pub(crate) fn evals(&self) -> u64 {
        self.evals
    }

    /// Bring the support of every `pending` entry up to date with
    /// `ctx.labels`, in pending order, counting only unknown entries and
    /// those within the radius of a label change since the last refresh.
    /// Nodes `skip` accepts are ready without support and are not
    /// counted.
    pub(crate) fn refresh(
        &mut self,
        predictor: &dyn Predictor,
        ctx: &SelectCtx<'_>,
        pending: &mut [(usize, NodeId, Support)],
        skip: impl Fn(NodeId) -> bool,
        rng: impl Fn(NodeId) -> StdRng,
    ) {
        let grown = std::mem::take(&mut self.dirty);
        if grown {
            self.grow_stale(ctx.tag.graph());
        }
        for (_, v, support) in pending.iter_mut() {
            if skip(*v) {
                continue;
            }
            if *support == Support::UNKNOWN || (grown && self.stale.contains(v.index())) {
                let (n, lc) = predictor.label_support(ctx, *v, &mut rng(*v), &mut self.kinds);
                *support = Support::new(n, lc);
                self.evals += 1;
            }
        }
        if grown {
            self.stale.clear();
        }
        // The test build checks every entry a pass can read against a
        // fresh count by the hook's definition.
        #[cfg(test)]
        for &(i, v, support) in pending.iter().filter(|&&(_, v, _)| !skip(v)) {
            let (n, lc) = crate::predictor::select_then_count(
                predictor,
                ctx,
                v,
                &mut rng(v),
                &mut Vec::new(),
            );
            assert_eq!(support, Support::new(n, lc), "stale support for {v:?} at {i}");
        }
    }

    /// Set `stale` to every node within `radius` hops of a changed node
    /// (a multi-source BFS, one hop per frontier sweep; every node when
    /// there is no radius) and empty `changed`.
    fn grow_stale(&mut self, g: &Csr) {
        let Readiness { radius, changed, stale, next, .. } = self;
        let Some(radius) = *radius else {
            stale.0.fill(u64::MAX);
            changed.clear();
            return;
        };
        stale.copy_from(changed);
        let (mut frontier, mut next) = (changed, next);
        for _ in 0..radius {
            frontier.drain(|u| {
                for &w in g.neighbors(NodeId(u as u32)) {
                    if stale.insert(w as usize) {
                        next.insert(w as usize);
                    }
                }
            });
            std::mem::swap(&mut frontier, &mut next);
        }
        frontier.clear();
    }
}

/// One bit per node.
struct NodeBits(Vec<u64>);

impl NodeBits {
    fn new(num_nodes: usize) -> Self {
        NodeBits(vec![0; num_nodes.div_ceil(64)])
    }

    fn contains(&self, i: usize) -> bool {
        self.0[i / 64] & (1 << (i % 64)) != 0
    }

    /// Set bit `i`; whether it was clear.
    fn insert(&mut self, i: usize) -> bool {
        let (word, bit) = (&mut self.0[i / 64], 1u64 << (i % 64));
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    fn copy_from(&mut self, other: &NodeBits) {
        self.0.copy_from_slice(&other.0);
    }

    fn clear(&mut self) {
        self.0.fill(0);
    }

    /// Visit every set bit in ascending order, clearing as it goes.
    fn drain(&mut self, mut visit: impl FnMut(usize)) {
        for (w, word) in self.0.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                visit(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }
}

/// Fig. 8 pseudo-label utilization analysis.
///
/// Simulates the round structure without LLM calls (pseudo-labels are
/// stand-ins, per the paper's footnote 3: conflicting-label thresholds are
/// skipped, and "we merely simulate LLMs to generate pseudo-labels"):
/// queries are split into `rounds` rounds — randomly (unscheduled) or by
/// descending neighbor-label count over all unexecuted queries
/// (scheduled).
///
/// Utilization counts "how many times pseudo-labels generated by earlier
/// queries are used to enrich the neighbor text of later queries": the
/// pseudo-label slots in each query's neighbor selection at execution
/// time. The scheduler orders by neighbor-label support (descending, the
/// paper's rule) and breaks ties by *deferring* queries with many
/// still-pending neighbor queries — exactly the queries whose "opportunities
/// to integrate pseudo-labels from earlier executed queries" grow the most
/// by waiting (§V-B).
#[allow(clippy::too_many_arguments)] // an analysis entry point mirroring the Fig. 8 config axes
pub fn pseudo_label_utilization(
    tag: &Tag,
    initial_labels: &LabelStore,
    queries: &[NodeId],
    k_hops: u8,
    max_neighbors: usize,
    rounds: usize,
    scheduled: bool,
    seed: u64,
) -> u64 {
    assert!(rounds >= 1);
    let mut labels = initial_labels.clone();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut buf = KhopBuffer::new(tag.num_nodes());
    let mut scratch = Vec::new();
    let mut pending: Vec<NodeId> = queries.to_vec();
    if !scheduled {
        pending.shuffle(&mut rng);
    }
    let per_round = queries.len().div_ceil(rounds);
    let mut utilization = 0u64;

    while !pending.is_empty() {
        let pending_set: HashSet<NodeId> = pending.iter().copied().collect();
        let batch: Vec<NodeId> = if scheduled {
            // Primary key: current labeled-neighbor support, descending
            // (the paper's rule). Tie-break: pending query-neighbors,
            // ascending — queries surrounded by still-pending queries gain
            // the most by waiting.
            let mut support: Vec<(NodeId, usize, usize)> = pending
                .iter()
                .map(|&v| {
                    khop_nodes(tag.graph(), v, k_hops, &mut buf, &mut scratch);
                    let labeled = scratch.iter().filter(|h| labels.is_labeled(h.node)).count();
                    let pending_neighbors =
                        scratch.iter().filter(|h| pending_set.contains(&h.node)).count();
                    (v, labeled, pending_neighbors)
                })
                .collect();
            support.sort_by(|a, b| b.1.cmp(&a.1).then(a.2.cmp(&b.2)).then(a.0.cmp(&b.0)));
            support.into_iter().take(per_round).map(|(v, _, _)| v).collect()
        } else {
            pending.iter().take(per_round).copied().collect()
        };

        // Execute the batch: count pseudo-labels that land in prompts.
        for &v in &batch {
            khop_nodes(tag.graph(), v, k_hops, &mut buf, &mut scratch);
            let selected = sample_prefer_labeled(
                &scratch,
                max_neighbors,
                |n| labels.is_labeled(n),
                &mut rng,
            );
            utilization += selected.iter().filter(|h| labels.is_pseudo(h.node)).count() as u64;
        }
        // Pseudo-labels appear after the whole round, as in Algorithm 2.
        for &v in &batch {
            labels.add_pseudo(v, tag.label(v));
        }
        let executed: HashSet<NodeId> = batch.into_iter().collect();
        pending.retain(|v| !executed.contains(v));
    }
    utilization
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Result;
    use crate::executor::{ExecOutcome, Executor};
    use crate::predictor::test_fixtures::{random_tag, two_cliques};
    use crate::predictor::KhopRandom;
    use crate::pruning::PrunePlan;
    use crate::sched::{Labels, SchedulePolicy, Scheduler};
    use mqo_llm::{LanguageModel, ScriptedLlm};
    use proptest::prelude::*;

    /// Algorithm 2 as the paper runs it: deterministic waves on one
    /// worker, `plan` queries pruned, the given failure policy.
    fn boost_with(
        exec: &Executor<'_>,
        predictor: &dyn Predictor,
        labels: &mut LabelStore,
        queries: &[NodeId],
        config: BoostConfig,
        plan: &PrunePlan,
        policy: DegradePolicy,
    ) -> Result<(ExecOutcome, Vec<RoundTrace>)> {
        let report = Scheduler::new(exec, SchedulePolicy::cue_gated(config, policy, 1)).run(
            predictor,
            Labels::Boosting(labels),
            queries,
            |v| plan.is_pruned(v),
        )?;
        Ok((report.outcome, report.rounds))
    }

    /// [`boost_with`] under the default failure policy.
    fn boost(
        exec: &Executor<'_>,
        predictor: &dyn Predictor,
        labels: &mut LabelStore,
        queries: &[NodeId],
        config: BoostConfig,
        plan: &PrunePlan,
    ) -> Result<(ExecOutcome, Vec<RoundTrace>)> {
        boost_with(exec, predictor, labels, queries, config, plan, DegradePolicy::default())
    }

    #[test]
    fn boosting_executes_every_query_exactly_once() {
        let tag = two_cliques();
        let llm = ScriptedLlm::new(vec!["Category: ['Alpha']"; 12]);
        let exec = Executor::new(&tag, &llm, 4, 3);
        let mut labels = LabelStore::empty(tag.num_nodes());
        labels.add_pseudo(NodeId(1), ClassId(0));
        let p = KhopRandom::new(1, tag.num_nodes());
        let qs: Vec<NodeId> = vec![NodeId(0), NodeId(2), NodeId(7), NodeId(9)];
        let (out, traces) = boost(
            &exec,
            &p,
            &mut labels,
            &qs,
            BoostConfig { gamma1: 2, gamma2: 2 },
            &PrunePlan::default(),
        )
        .unwrap();
        assert_eq!(out.records.len(), 4);
        let mut seen: Vec<u32> = out.records.iter().map(|r| r.node.0).collect();
        seen.sort();
        assert_eq!(seen, vec![0, 2, 7, 9]);
        assert!(!traces.is_empty());
        // All executed queries became pseudo-labeled.
        for v in &qs {
            assert!(labels.is_labeled(*v));
        }
    }

    #[test]
    fn rounds_are_visible_to_telemetry() {
        let tag = two_cliques();
        let llm = ScriptedLlm::new(vec!["Category: ['Alpha']"; 12]);
        let sink = mqo_obs::Recorder::new();
        let exec = Executor::new(&tag, &llm, 4, 3).with_sink(&sink);
        let mut labels = LabelStore::empty(tag.num_nodes());
        labels.add_pseudo(NodeId(1), ClassId(0));
        let p = KhopRandom::new(1, tag.num_nodes());
        let qs: Vec<NodeId> = vec![NodeId(0), NodeId(2), NodeId(7), NodeId(9)];
        let (out, traces) = boost(
            &exec,
            &p,
            &mut labels,
            &qs,
            BoostConfig { gamma1: 2, gamma2: 2 },
            &PrunePlan::default(),
        )
        .unwrap();
        let rounds = sink.of_kind("round_completed");
        assert_eq!(rounds.len(), traces.len(), "one event per round");
        let (mut executed_total, mut pseudo_total) = (0u64, 0u64);
        for (i, e) in rounds.iter().enumerate() {
            match e {
                mqo_obs::Event::RoundCompleted {
                    round,
                    executed,
                    gamma1,
                    gamma2,
                    pseudo_label_uses,
                } => {
                    assert_eq!(*round as usize, i);
                    assert_eq!(*executed, traces[i].executed as u64);
                    assert_eq!(*gamma1, traces[i].gamma1 as u64);
                    assert_eq!(*gamma2, traces[i].gamma2 as u64);
                    executed_total += executed;
                    pseudo_total += pseudo_label_uses;
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert_eq!(executed_total as usize, out.records.len());
        assert_eq!(pseudo_total, out.pseudo_label_uses());
        // The per-query stream is emitted alongside the round stream.
        assert_eq!(sink.of_kind("query_executed").len(), out.records.len());
    }

    #[test]
    fn relaxation_terminates_with_no_labels_at_all() {
        let tag = two_cliques();
        let llm = ScriptedLlm::new(vec!["Category: ['Beta']"; 12]);
        let exec = Executor::new(&tag, &llm, 4, 1);
        let mut labels = LabelStore::empty(tag.num_nodes());
        let p = KhopRandom::new(1, tag.num_nodes());
        let qs: Vec<NodeId> = (0..12).map(NodeId).collect();
        let (out, traces) =
            boost(&exec, &p, &mut labels, &qs, BoostConfig::default(), &PrunePlan::default())
                .unwrap();
        assert_eq!(out.records.len(), 12);
        // γ1 must have relaxed to 0 for the first round to fire.
        assert_eq!(traces[0].gamma1, 0);
    }

    #[test]
    fn later_rounds_see_pseudo_labels_from_earlier_rounds() {
        let tag = two_cliques();
        let llm = ScriptedLlm::new(vec!["Category: ['Alpha']"; 12]);
        let exec = Executor::new(&tag, &llm, 6, 5);
        let mut labels = LabelStore::empty(tag.num_nodes());
        // Seed: three ground-truth labels in clique A so its queries
        // qualify first.
        for v in [1u32, 2, 3] {
            labels.add_pseudo(NodeId(v), ClassId(0));
        }
        let p = KhopRandom::new(1, tag.num_nodes());
        let qs = vec![NodeId(0), NodeId(4), NodeId(5)];
        let (out, _) = boost(
            &exec,
            &p,
            &mut labels,
            &qs,
            BoostConfig { gamma1: 3, gamma2: 1 },
            &PrunePlan::default(),
        )
        .unwrap();
        let total_pseudo_uses: usize = out.records.iter().map(|r| r.pseudo_neighbors).sum();
        assert!(total_pseudo_uses > 0, "no pseudo-label ever reached a prompt");
    }

    #[test]
    fn pruned_queries_run_first_without_neighbors() {
        let tag = two_cliques();
        let llm = ScriptedLlm::new(vec!["Category: ['Alpha']"; 12]);
        let exec = Executor::new(&tag, &llm, 4, 2);
        let mut labels = LabelStore::empty(tag.num_nodes());
        labels.add_pseudo(NodeId(1), ClassId(0));
        let p = KhopRandom::new(1, tag.num_nodes());
        let qs = vec![NodeId(0), NodeId(2)];
        let plan = PrunePlan::from_set([NodeId(2)].into_iter().collect());
        let (out, _) =
            boost(&exec, &p, &mut labels, &qs, BoostConfig { gamma1: 1, gamma2: 2 }, &plan)
                .unwrap();
        let rec2 = out.records.iter().find(|r| r.node == NodeId(2)).unwrap();
        assert!(rec2.pruned);
        assert_eq!(rec2.neighbors_included, 0);
    }

    #[test]
    fn failed_queries_retry_then_give_up_without_pseudo_labels() {
        let tag = two_cliques();
        // Three good answers, then the script runs dry: every later call
        // fails. Under degrade the failing queries retry per the policy
        // and are finally recorded as failed.
        let llm = ScriptedLlm::new(vec!["Category: ['Alpha']"; 3]);
        let exec = Executor::new(&tag, &llm, 4, 0).with_degrade();
        let mut labels = LabelStore::empty(tag.num_nodes());
        labels.add_pseudo(NodeId(1), ClassId(0));
        let p = KhopRandom::new(1, tag.num_nodes());
        let qs: Vec<NodeId> = vec![NodeId(0), NodeId(2), NodeId(4), NodeId(7), NodeId(9)];
        let policy = DegradePolicy { fallback_after: 1, give_up_after: 3 };
        let (out, _) = boost_with(
            &exec,
            &p,
            &mut labels,
            &qs,
            BoostConfig { gamma1: 1, gamma2: 2 },
            &PrunePlan::default(),
            policy,
        )
        .unwrap();
        assert_eq!(out.records.len(), qs.len(), "every query got a final record");
        assert_eq!(out.failed(), qs.len() - 3, "script had three answers");
        for r in out.records.iter().filter(|r| r.failed()) {
            // After `fallback_after` failures retries go text-only, so the
            // final (given-up) attempt is neighbor-free.
            assert!(r.pruned, "given-up query retried with neighbor text");
            assert_eq!(r.neighbors_included, 0);
            assert!(!labels.is_pseudo(r.node), "failed query pseudo-labeled itself");
        }
        for r in out.records.iter().filter(|r| !r.failed()) {
            assert!(labels.is_labeled(r.node));
        }
    }

    #[test]
    fn journaled_boosting_resumes_with_zero_rebilled_tokens() {
        let tag = two_cliques();
        let header = crate::journal::RunHeader {
            dataset: "two-cliques".into(),
            method: "khop".into(),
            seed: 0,
            queries: 4,
            boost: true,
            budget: None,
        };
        let dir = std::env::temp_dir().join("mqo-boost-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let qs: Vec<NodeId> = vec![NodeId(0), NodeId(2), NodeId(7), NodeId(9)];
        let p = KhopRandom::new(1, tag.num_nodes());

        // First run: everything completes and lands in the journal.
        let llm = ScriptedLlm::new(vec!["Category: ['Alpha']"; 12]);
        let journal = crate::journal::RunJournal::create(&path, &header).unwrap();
        let exec = Executor::new(&tag, &llm, 4, 0).with_journal(&journal);
        let mut labels = LabelStore::empty(tag.num_nodes());
        labels.add_pseudo(NodeId(1), ClassId(0));
        let (first, _) = boost(
            &exec,
            &p,
            &mut labels,
            &qs,
            BoostConfig { gamma1: 2, gamma2: 2 },
            &PrunePlan::default(),
        )
        .unwrap();
        let billed = llm.meter().totals();
        assert!(billed.requests > 0);
        drop(journal);

        // Resume against a model that would fail if asked anything: every
        // query replays from the journal, bit-identical, for free.
        let empty = ScriptedLlm::new(Vec::<String>::new());
        let journal = crate::journal::RunJournal::resume(&path, &header).unwrap();
        let exec = Executor::new(&tag, &empty, 4, 0).with_journal(&journal);
        let mut labels = LabelStore::empty(tag.num_nodes());
        labels.add_pseudo(NodeId(1), ClassId(0));
        let (second, _) = boost(
            &exec,
            &p,
            &mut labels,
            &qs,
            BoostConfig { gamma1: 2, gamma2: 2 },
            &PrunePlan::default(),
        )
        .unwrap();
        assert_eq!(empty.meter().totals().requests, 0, "replay sent a request");
        assert_eq!(empty.meter().totals().prompt_tokens, 0, "replay re-billed tokens");
        assert_eq!(journal.replayed(), qs.len() as u64);
        let mut a = first.records.clone();
        let mut b = second.records.clone();
        a.sort_by_key(|r| r.node.0);
        b.sort_by_key(|r| r.node.0);
        assert_eq!(a, b, "replayed records differ from the originals");
    }

    #[test]
    fn utilization_counts_pseudo_slots_only() {
        // On the dense clique fixture every selection slot eventually fills
        // with pseudo-labels; both schedulers must report positive, bounded
        // utilization. (The scheduled-vs-random comparison itself needs a
        // heterogeneous graph and lives in the fig8 integration test.)
        let tag = two_cliques();
        let labels = LabelStore::empty(tag.num_nodes());
        let qs: Vec<NodeId> = (0..12).map(NodeId).collect();
        for scheduled in [false, true] {
            let u = pseudo_label_utilization(&tag, &labels, &qs, 1, 4, 4, scheduled, 3);
            assert!(u > 0, "no utilization at all (scheduled={scheduled})");
            // Upper bound: every query can use at most M pseudo-labels.
            assert!(u <= (qs.len() * 4) as u64);
        }
    }

    #[test]
    fn utilization_is_zero_with_a_single_round() {
        // Everything executes in round 1 → no pseudo-label can be reused.
        let tag = two_cliques();
        let labels = LabelStore::empty(tag.num_nodes());
        let qs: Vec<NodeId> = (0..12).map(NodeId).collect();
        assert_eq!(pseudo_label_utilization(&tag, &labels, &qs, 1, 4, 1, true, 0), 0);
    }

    /// The support count rides in the padding of a pending entry, so
    /// caching it costs no memory per query.
    #[test]
    fn support_fits_in_a_pending_entrys_padding() {
        use std::mem::size_of;
        assert_eq!(size_of::<(usize, NodeId, Support)>(), size_of::<(usize, NodeId)>());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The stale set a refresh grows from the changed nodes is exactly
        /// the union of their radius balls, and the growth leaves no
        /// frontier bits behind.
        #[test]
        fn stale_set_is_the_union_of_radius_balls(
            seed in 0u64..10_000,
            n in 1usize..150,
            edges in 0usize..300,
            radius in 0u8..5,
            changed in prop::collection::vec(any::<usize>(), 0..6),
        ) {
            let tag = random_tag(seed, n, 2, edges);
            let g = tag.graph();
            let mut cache = Readiness::new(n, Some(radius));
            let mut want = vec![false; n];
            for &c in &changed {
                cache.label_changed(NodeId((c % n) as u32));
                // Plain BFS from one changed node, up to `radius` hops.
                let mut dist = vec![usize::MAX; n];
                dist[c % n] = 0;
                let mut queue = std::collections::VecDeque::from([c % n]);
                while let Some(u) = queue.pop_front() {
                    want[u] = true;
                    if dist[u] == radius as usize {
                        continue;
                    }
                    for &w in g.neighbors(NodeId(u as u32)) {
                        if dist[w as usize] == usize::MAX {
                            dist[w as usize] = dist[u] + 1;
                            queue.push_back(w as usize);
                        }
                    }
                }
            }
            cache.grow_stale(g);
            let got: Vec<bool> = (0..n).map(|i| cache.stale.contains(i)).collect();
            prop_assert_eq!(got, want);
            prop_assert!(cache.changed.0.iter().chain(&cache.next.0).all(|&w| w == 0));
        }
    }
}
