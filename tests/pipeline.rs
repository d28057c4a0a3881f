//! End-to-end integration tests spanning all crates: dataset generation →
//! split → surrogate → calibration → execution engine → strategies.

use mqo_core::boosting::{BoostConfig, DegradePolicy};
use mqo_core::predictor::{KhopRandom, Predictor, Sns, ZeroShot};
use mqo_core::pruning::{run_with_pruning, PrunePlan};
use mqo_core::surrogate::SurrogateConfig;
use mqo_core::{Executor, InadequacyScorer, LabelStore, Labels, SchedulePolicy, Scheduler};
use mqo_data::{dataset, DatasetId};
use mqo_graph::{LabeledSplit, SplitConfig};
use mqo_llm::{LanguageModel, ModelProfile, SimLlm};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct World {
    bundle: mqo_data::DatasetBundle,
    split: LabeledSplit,
    llm: SimLlm,
}

fn world(id: DatasetId, scale: f64, queries: usize, seed: u64) -> World {
    let bundle = dataset(id, Some(scale), seed);
    let split = LabeledSplit::generate(
        &bundle.tag,
        SplitConfig::PerClass { per_class: 20, num_queries: queries },
        &mut StdRng::seed_from_u64(seed),
    )
    .unwrap();
    let llm = SimLlm::new(
        bundle.lexicon.clone(),
        bundle.tag.class_names().to_vec(),
        ModelProfile::gpt35(),
    );
    World { bundle, split, llm }
}

#[test]
fn full_node_classification_pipeline_runs_and_scores() {
    let w = world(DatasetId::Cora, 0.4, 200, 1);
    let tag = &w.bundle.tag;
    let exec = Executor::new(tag, &w.llm, 4, 7);
    let labels = LabelStore::from_split(tag, &w.split);

    let methods: Vec<Box<dyn Predictor>> = vec![
        Box::new(ZeroShot),
        Box::new(KhopRandom::new(1, tag.num_nodes())),
        Box::new(KhopRandom::new(2, tag.num_nodes())),
        Box::new(Sns::fit(tag)),
    ];
    let mut accs = Vec::new();
    for m in &methods {
        let out = exec.run_all(m.as_ref(), &labels, w.split.queries(), |_| false).unwrap();
        assert_eq!(out.records.len(), 200);
        accs.push(out.accuracy());
    }
    // Every method must land well above chance (1/7) and below perfection.
    for (m, &acc) in methods.iter().zip(&accs) {
        assert!((0.3..0.99).contains(&acc), "{}: accuracy {acc}", m.name());
    }
    // Neighbor methods beat zero-shot on homophilous Cora.
    assert!(accs[1] > accs[0], "1-hop {} should beat zero-shot {}", accs[1], accs[0]);
}

#[test]
fn token_pruning_saves_tokens_without_collapsing_accuracy() {
    let w = world(DatasetId::Cora, 0.4, 200, 2);
    let tag = &w.bundle.tag;
    let exec = Executor::new(tag, &w.llm, 4, 7);
    let labels = LabelStore::from_split(tag, &w.split);
    let scorer =
        InadequacyScorer::build(&exec, &w.split, &SurrogateConfig::small(1), 10, 3).unwrap();
    let predictor = KhopRandom::new(1, tag.num_nodes());

    let base = exec.run_all(&predictor, &labels, w.split.queries(), |_| false).unwrap();
    let plan = PrunePlan::by_inadequacy(&scorer, tag, w.split.queries(), 0.2);
    let pruned =
        run_with_pruning(&exec, &predictor, &labels, w.split.queries(), &plan).unwrap();

    assert!(pruned.prompt_tokens() < base.prompt_tokens(), "pruning must cut tokens");
    assert!(
        pruned.accuracy() >= base.accuracy() - 0.05,
        "pruning collapsed accuracy: {} -> {}",
        base.accuracy(),
        pruned.accuracy()
    );
    // Exactly the planned 20% are plan-pruned; a few extra records may be
    // flagged `pruned` because isolated nodes have no neighbors anyway.
    assert_eq!(pruned.records.iter().filter(|r| plan.is_pruned(r.node)).count(), 40);
    assert!(pruned.records.iter().filter(|r| r.pruned).count() >= 40);
}

#[test]
fn ranked_pruning_beats_random_pruning_at_high_tau() {
    let w = world(DatasetId::Cora, 0.4, 250, 3);
    let tag = &w.bundle.tag;
    let exec = Executor::new(tag, &w.llm, 4, 7);
    let labels = LabelStore::from_split(tag, &w.split);
    let scorer =
        InadequacyScorer::build(&exec, &w.split, &SurrogateConfig::small(1), 10, 3).unwrap();
    let predictor = KhopRandom::new(1, tag.num_nodes());

    // At 60% pruning the ranking matters most (Fig. 7's midrange); average
    // the random baseline over a few seeds to cut variance.
    let tau = 0.6;
    let ranked_plan = PrunePlan::by_inadequacy(&scorer, tag, w.split.queries(), tau);
    let ranked = run_with_pruning(&exec, &predictor, &labels, w.split.queries(), &ranked_plan)
        .unwrap()
        .accuracy();
    let mut random_acc = 0.0;
    for seed in 0..3 {
        let plan = PrunePlan::random(w.split.queries(), tau, seed);
        random_acc += run_with_pruning(&exec, &predictor, &labels, w.split.queries(), &plan)
            .unwrap()
            .accuracy();
    }
    random_acc /= 3.0;
    assert!(
        ranked >= random_acc - 0.01,
        "ranked pruning ({ranked:.3}) fell below random ({random_acc:.3})"
    );
}

#[test]
fn query_boosting_executes_all_and_uses_pseudo_labels() {
    let w = world(DatasetId::Cora, 0.4, 200, 4);
    let tag = &w.bundle.tag;
    let exec = Executor::new(tag, &w.llm, 4, 7);
    let mut labels = LabelStore::from_split(tag, &w.split);
    let predictor = KhopRandom::new(2, tag.num_nodes());
    let report = Scheduler::new(
        &exec,
        SchedulePolicy::CueGated {
            config: BoostConfig::default(),
            policy: DegradePolicy::default(),
            threads: 1,
            deterministic: true,
        },
    )
    .run(&predictor, Labels::Boosting(&mut labels), w.split.queries(), |_| false)
    .unwrap();
    let (out, traces) = (report.outcome, report.rounds);
    assert_eq!(out.records.len(), 200);
    assert!(traces.len() >= 2, "boosting should take multiple rounds");
    assert!(out.pseudo_label_uses() > 0, "no pseudo-label ever reached a prompt");
    assert_eq!(labels.num_pseudo(), 200, "every query becomes a pseudo-label");
}

#[test]
fn token_accounting_is_conserved_across_the_pipeline() {
    let w = world(DatasetId::Citeseer, 0.4, 100, 5);
    let tag = &w.bundle.tag;
    let exec = Executor::new(tag, &w.llm, 4, 7);
    let labels = LabelStore::from_split(tag, &w.split);
    let predictor = KhopRandom::new(1, tag.num_nodes());
    w.llm.meter().reset();
    let out = exec.run_all(&predictor, &labels, w.split.queries(), |_| false).unwrap();
    let meter = w.llm.meter().totals();
    // Every record's prompt tokens sum exactly to the meter.
    assert_eq!(out.prompt_tokens(), meter.prompt_tokens);
    assert_eq!(out.records.len() as u64, meter.requests);
}

#[test]
fn deterministic_end_to_end_reruns() {
    let run = || {
        let w = world(DatasetId::Cora, 0.3, 80, 6);
        let tag = &w.bundle.tag;
        let exec = Executor::new(tag, &w.llm, 4, 7);
        let labels = LabelStore::from_split(tag, &w.split);
        let predictor = KhopRandom::new(1, tag.num_nodes());
        let out = exec.run_all(&predictor, &labels, w.split.queries(), |_| false).unwrap();
        (out.accuracy(), out.prompt_tokens())
    };
    assert_eq!(run(), run(), "pipeline must be bit-deterministic per seed");
}
