//! Cross-crate integration tests for the response-cache layer: correctness
//! under query boosting (round-based invalidation), and the end-to-end
//! token-savings contract the `--cache-cap`/`--no-cache` CLI arms and the
//! `BENCH_PR10.json` bench gate rely on.

use mqo_core::boosting::{BoostConfig, DegradePolicy};
use mqo_core::predictor::KhopRandom;
use mqo_core::{Executor, LabelStore, Labels, SchedulePolicy, Scheduler};
use mqo_data::{dataset, DatasetId};
use mqo_graph::{GraphBuilder, LabeledSplit, NodeId, NodeText, SplitConfig, Tag};
use mqo_llm::{CachedLlm, LanguageModel, ModelProfile, ScriptedLlm, SimLlm};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A 5-node fixture: query node 4 sits between clique A (0–1–2, class
/// Alpha) and node 3 (class Beta). Node 0 is both node 4's neighbor and a
/// boosting query, so executing it changes what node 4's prompt renders.
fn bridge_tag() -> Tag {
    let mut b = GraphBuilder::new(5);
    for (u, v) in [(0, 1), (0, 2), (1, 2), (4, 0), (4, 3)] {
        b.add_edge(u, v).unwrap();
    }
    let texts = (0..5)
        .map(|i| NodeText::new(format!("paper {i}"), format!("body of paper {i}")))
        .collect();
    let labels = [0u16, 0, 0, 1, 0].map(mqo_graph::ClassId).to_vec();
    Tag::new("bridge", b.build(), texts, labels, vec!["Alpha".into(), "Beta".into()]).unwrap()
}

/// The ISSUE's staleness scenario, end to end: a query is answered and
/// cached; a boosting round then pseudo-labels one of its neighbors; when
/// the query re-renders, the enriched prompt must reach the model (a miss)
/// instead of being served from the pre-round cache entry.
#[test]
fn boosting_round_invalidates_dependent_cached_queries() {
    let tag = bridge_tag();
    let llm = CachedLlm::new(ScriptedLlm::new(vec!["Category: ['Alpha']"; 8]), 64);
    let invalidator = llm.round_invalidator();
    let exec = Executor::new(&tag, &llm, 4, 9).with_sink(&invalidator);
    let predictor = KhopRandom::new(1, tag.num_nodes());
    let labels = LabelStore::empty(tag.num_nodes());

    // Serve node 4 twice before any boosting: the repeat is a cache hit.
    let mut rng = exec.query_rng(NodeId(4));
    exec.run_one(&predictor, &labels, NodeId(4), &mut rng, false).unwrap();
    let mut rng = exec.query_rng(NodeId(4));
    exec.run_one(&predictor, &labels, NodeId(4), &mut rng, false).unwrap();
    assert_eq!(llm.meter().totals().requests, 1, "identical re-query must be served");
    assert_eq!(llm.stats().cache.hits, 1);
    let pre_round_prompt = llm.inner().prompts_seen().pop().unwrap();
    assert!(
        !pre_round_prompt.contains("Category: Alpha"),
        "no neighbor had a label before boosting"
    );

    // One boosting round executes node 0 and folds its pseudo-label in;
    // the RoundCompleted event reaches the invalidator via the exec sink.
    let mut mut_labels = LabelStore::empty(tag.num_nodes());
    let report = Scheduler::new(
        &exec,
        SchedulePolicy::CueGated {
            config: BoostConfig::default(),
            policy: DegradePolicy::default(),
            threads: 1,
            deterministic: true,
        },
    )
    .run(&predictor, Labels::Boosting(&mut mut_labels), &[NodeId(0)], |_| false)
    .unwrap();
    let (out, rounds) = (report.outcome, report.rounds);
    assert_eq!(out.records.len(), 1);
    assert!(mut_labels.is_pseudo(NodeId(0)));
    assert_eq!(llm.cache().epoch(), rounds.len() as u64, "each round advances the epoch");

    // Node 4 depends on node 0: its re-render now carries the pseudo-label
    // cue, and the request must reach the model — no stale pre-round hit.
    let requests_before = llm.meter().totals().requests;
    let hits_before = llm.stats().cache.hits;
    let mut rng = exec.query_rng(NodeId(4));
    let rec = exec.run_one(&predictor, &mut_labels, NodeId(4), &mut rng, false).unwrap();
    assert_eq!(rec.pseudo_neighbors, 1, "the enriched prompt saw the pseudo-label");
    assert_eq!(
        llm.meter().totals().requests,
        requests_before + 1,
        "the post-round query must be sent, not served from cache"
    );
    assert_eq!(llm.stats().cache.hits, hits_before, "no stale hit");
    let post_round_prompt = llm.inner().prompts_seen().pop().unwrap();
    assert!(
        post_round_prompt.contains("Category: Alpha"),
        "sent prompt must carry the neighbor's pseudo-label cue:\n{post_round_prompt}"
    );

    // And the epoch guard holds even for *byte-identical* prompts: replay
    // the pre-round prompt after another round boundary — stale entries
    // are dropped, not served.
    llm.complete(&pre_round_prompt).unwrap();
    let stale_before = llm.stats().cache.stale_drops;
    llm.cache().advance_epoch();
    llm.complete(&pre_round_prompt).unwrap();
    assert_eq!(llm.stats().cache.stale_drops, stale_before + 1);
}

/// The acceptance scenario: a serving-style workload (each query asked
/// three times) through the cached stack sends strictly fewer metered
/// prompt tokens than the uncached baseline, with identical predictions.
#[test]
fn cached_repeat_run_sends_fewer_tokens_with_equal_accuracy() {
    let bundle = dataset(DatasetId::Cora, Some(0.3), 21);
    let tag = &bundle.tag;
    let split = LabeledSplit::generate(
        tag,
        SplitConfig::PerClass { per_class: 20, num_queries: 80 },
        &mut StdRng::seed_from_u64(3),
    )
    .unwrap();
    let queries: Vec<NodeId> = split.queries().repeat(3);
    let labels = LabelStore::from_split(tag, &split);
    let predictor = KhopRandom::new(1, tag.num_nodes());

    let run = |capacity: usize| {
        let llm = CachedLlm::new(
            SimLlm::new(
                bundle.lexicon.clone(),
                tag.class_names().to_vec(),
                ModelProfile::gpt35(),
            ),
            capacity,
        );
        let exec = Executor::new(tag, &llm, 4, 5);
        let out = exec.run_all(&predictor, &labels, &queries, |_| false).unwrap();
        (out, llm.meter().totals().prompt_tokens, llm.stats())
    };
    let (cached, cached_tokens, stats) = run(4096);
    let (uncached, uncached_tokens, _) = run(0);

    assert!(stats.cache.hits > 0, "repeat workload must produce cache hits");
    assert!(
        cached_tokens < uncached_tokens,
        "cache must send strictly fewer metered tokens: {cached_tokens} vs {uncached_tokens}"
    );
    assert_eq!(cached.accuracy(), uncached.accuracy(), "caching must not change accuracy");
    for (c, u) in cached.records.iter().zip(&uncached.records) {
        assert_eq!((c.node, c.predicted), (u.node, u.predicted));
    }
}

/// Pooled execution composes with the cache: across a width-4 worker
/// pool every repeated prompt is served or coalesced onto its in-flight
/// twin, and the run still matches the sequential records
/// prediction-for-prediction.
#[test]
fn batched_execution_composes_with_the_cache() {
    let bundle = dataset(DatasetId::Citeseer, Some(0.3), 22);
    let tag = &bundle.tag;
    let split = LabeledSplit::generate(
        tag,
        SplitConfig::PerClass { per_class: 20, num_queries: 60 },
        &mut StdRng::seed_from_u64(4),
    )
    .unwrap();
    let queries: Vec<NodeId> = split.queries().repeat(2);
    let labels = LabelStore::from_split(tag, &split);
    let predictor = KhopRandom::new(1, tag.num_nodes());

    let llm = CachedLlm::new(
        SimLlm::new(bundle.lexicon.clone(), tag.class_names().to_vec(), ModelProfile::gpt35()),
        4096,
    );
    let exec = Executor::new(tag, &llm, 4, 5);
    let out = Scheduler::new(&exec, SchedulePolicy::Parallel { threads: 4 })
        .run(&predictor, Labels::Fixed(&labels), &queries, |_| false)
        .unwrap()
        .outcome;
    let s = llm.stats();
    assert!(
        s.cache.hits + s.coalesced >= split.queries().len() as u64,
        "every repeated prompt must be served or coalesced: {s:?}"
    );
    assert_eq!(llm.meter().totals().requests, split.queries().len() as u64);

    let llm2 = CachedLlm::new(
        SimLlm::new(bundle.lexicon.clone(), tag.class_names().to_vec(), ModelProfile::gpt35()),
        0,
    );
    let exec2 = Executor::new(tag, &llm2, 4, 5);
    let seq = exec2.run_all(&predictor, &labels, &queries, |_| false).unwrap();
    for (b, s) in out.records.iter().zip(&seq.records) {
        assert_eq!((b.node, b.predicted, b.correct), (s.node, s.predicted, s.correct));
    }
}
