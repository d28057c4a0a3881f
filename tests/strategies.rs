//! Integration tests for the paper's headline claims on the calibrated
//! synthetic datasets (small scales for test speed; the full-size numbers
//! come from the bench binaries).

use mqo_core::analysis::info_gain_experiment;
use mqo_core::boosting::{pseudo_label_utilization, BoostConfig, DegradePolicy};
use mqo_core::joint::run_joint;
use mqo_core::linkpred::{run_link_task, LinkDataset, LinkStrategy};
use mqo_core::predictor::KhopRandom;
use mqo_core::pruning::PrunePlan;
use mqo_core::surrogate::SurrogateConfig;
use mqo_core::tuned::{instructglm_backbones, tuned_profile, TunedPredictor};
use mqo_core::{Executor, InadequacyScorer, LabelStore, Labels, SchedulePolicy, Scheduler};
use mqo_data::{dataset, DatasetId};
use mqo_graph::{LabeledSplit, SplitConfig};
use mqo_llm::{ModelProfile, SimLinkLlm, SimLlm};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup(
    id: DatasetId,
    scale: f64,
    queries: usize,
    profile: ModelProfile,
    seed: u64,
) -> (mqo_data::DatasetBundle, LabeledSplit, SimLlm) {
    let bundle = dataset(id, Some(scale), seed);
    let split = LabeledSplit::generate(
        &bundle.tag,
        SplitConfig::PerClass { per_class: 20, num_queries: queries },
        &mut StdRng::seed_from_u64(seed ^ 1),
    )
    .unwrap();
    let llm = SimLlm::new(bundle.lexicon.clone(), bundle.tag.class_names().to_vec(), profile);
    (bundle, split, llm)
}

/// Fig. 3's claim: queries whose neighbor text contains labels gain more
/// from neighbor text than label-free queries.
#[test]
fn labeled_neighbor_queries_gain_more() {
    let (bundle, split, llm) = setup(DatasetId::Cora, 0.5, 300, ModelProfile::gpt35(), 11);
    let tag = &bundle.tag;
    let exec = Executor::new(tag, &llm, 4, 2);
    let labels = LabelStore::from_split(tag, &split);
    let khop = KhopRandom::new(1, tag.num_nodes());
    let report = info_gain_experiment(&exec, &khop, &labels, split.queries()).unwrap();
    assert!(report.with_labels > 10 && report.without_labels > 10);
    assert!(
        report.gain_with_labels > report.gain_without_labels,
        "labels did not raise the IG proxy: {report:?}"
    );
}

/// Table VII's claim: query boosting improves over the plain run.
#[test]
fn boosting_improves_two_hop_on_cora() {
    let (bundle, split, llm) = setup(DatasetId::Cora, 0.5, 300, ModelProfile::gpt35(), 12);
    let tag = &bundle.tag;
    let exec = Executor::new(tag, &llm, 4, 2);
    let predictor = KhopRandom::new(2, tag.num_nodes());
    let labels = LabelStore::from_split(tag, &split);
    let base = exec.run_all(&predictor, &labels, split.queries(), |_| false).unwrap();
    let mut bl = LabelStore::from_split(tag, &split);
    let boosted = Scheduler::new(
        &exec,
        SchedulePolicy::CueGated {
            config: BoostConfig { gamma1: 3, gamma2: 2 },
            policy: DegradePolicy::default(),
            threads: 1,
            deterministic: true,
        },
    )
    .run(&predictor, Labels::Boosting(&mut bl), split.queries(), |_| false)
    .unwrap()
    .outcome;
    assert!(
        boosted.accuracy() >= base.accuracy() - 0.01,
        "boosting regressed: {:.3} -> {:.3}",
        base.accuracy(),
        boosted.accuracy()
    );
}

/// Fig. 8's claim: scheduling raises pseudo-label utilization on real
/// (heterogeneous) graph structure — strongly in the 2-hop / M=10 setting.
#[test]
fn scheduling_raises_utilization_on_synthetic_cora() {
    let (bundle, split, _) = setup(DatasetId::Cora, 0.5, 300, ModelProfile::gpt35(), 13);
    let tag = &bundle.tag;
    let labels = LabelStore::from_split(tag, &split);
    let mut sched = 0u64;
    let mut unsched = 0u64;
    for seed in 0..3 {
        sched += pseudo_label_utilization(tag, &labels, split.queries(), 2, 10, 50, true, seed);
        unsched +=
            pseudo_label_utilization(tag, &labels, split.queries(), 2, 10, 50, false, seed);
    }
    assert!(unsched > 0, "no utilization at all");
    // At this reduced scale the lift is modest (the paper-scale curves
    // live in the fig8_scheduling bench binary); require a clear non-loss.
    assert!(
        sched as f64 >= unsched as f64 * 1.05,
        "scheduling did not raise utilization: {sched} vs {unsched}"
    );
}

/// Table VIII's claim: the joint strategy cuts neighbor-equipped queries
/// by ~τ while keeping accuracy within noise of the baseline.
#[test]
fn joint_strategy_cuts_cost_and_keeps_accuracy() {
    let (bundle, split, llm) = setup(DatasetId::Citeseer, 0.5, 300, ModelProfile::gpt35(), 14);
    let tag = &bundle.tag;
    let exec = Executor::new(tag, &llm, 4, 2);
    let scorer =
        InadequacyScorer::build(&exec, &split, &SurrogateConfig::small(1), 10, 5).unwrap();
    let predictor = KhopRandom::new(2, tag.num_nodes());
    let labels = LabelStore::from_split(tag, &split);
    let base = exec.run_all(&predictor, &labels, split.queries(), |_| false).unwrap();
    let mut jl = LabelStore::from_split(tag, &split);
    let (joint, _) = run_joint(
        &exec,
        &predictor,
        &mut jl,
        split.queries(),
        &scorer,
        0.2,
        BoostConfig::default(),
    )
    .unwrap();
    assert!(joint.queries_with_neighbors() <= base.queries_with_neighbors() - 40);
    assert!(joint.prompt_tokens() < base.prompt_tokens());
    assert!(
        joint.accuracy() >= base.accuracy() - 0.04,
        "joint collapsed accuracy: {:.3} -> {:.3}",
        base.accuracy(),
        joint.accuracy()
    );
}

/// Table IX's claim: prune/boost compose with instruction-tuned backbones,
/// and inadequacy-ranked pruning beats random pruning there too.
#[test]
fn strategies_compose_with_tuned_backbones() {
    let (bundle, split, _) = setup(DatasetId::Cora, 0.5, 250, ModelProfile::gpt35(), 15);
    let tag = &bundle.tag;
    let backbone = instructglm_backbones()[1]; // 2-hop, w/ raw, no path
    let llm = SimLlm::new(
        bundle.lexicon.clone(),
        tag.class_names().to_vec(),
        tuned_profile(&backbone),
    );
    let exec = Executor::new(tag, &llm, 4, 2);
    let predictor = TunedPredictor::new(backbone, tag.num_nodes());
    let scorer =
        InadequacyScorer::build(&exec, &split, &SurrogateConfig::small(1), 10, 5).unwrap();
    let labels = LabelStore::from_split(tag, &split);

    let base = exec.run_all(&predictor, &labels, split.queries(), |_| false).unwrap();
    assert!(base.accuracy() > 0.6, "tuned backbone too weak: {}", base.accuracy());

    let ours = mqo_core::pruning::run_with_pruning(
        &exec,
        &predictor,
        &labels,
        split.queries(),
        &PrunePlan::by_inadequacy(&scorer, tag, split.queries(), 0.3),
    )
    .unwrap();
    let mut rnd_acc = 0.0;
    for seed in 0..3 {
        rnd_acc += mqo_core::pruning::run_with_pruning(
            &exec,
            &predictor,
            &labels,
            split.queries(),
            &PrunePlan::random(split.queries(), 0.3, seed),
        )
        .unwrap()
        .accuracy();
    }
    rnd_acc /= 3.0;
    assert!(
        ours.accuracy() >= rnd_acc - 0.01,
        "ranked pruning ({:.3}) fell below random ({:.3}) on tuned backbone",
        ours.accuracy(),
        rnd_acc
    );
}

/// Table X's claim: boosting helps link prediction; pruning keeps accuracy.
#[test]
fn link_prediction_strategies_hold_shape() {
    let bundle = dataset(DatasetId::Citeseer, Some(0.5), 16);
    let tag = &bundle.tag;
    let data = LinkDataset::build(tag, 150, 150, 2);
    let run = |s: LinkStrategy| {
        let llm =
            SimLinkLlm::new(bundle.lexicon.clone(), ModelProfile::gpt35()).with_threshold(1.05);
        run_link_task(tag, &llm, &data, s, 4, 3).unwrap()
    };
    let gamma1 = data.support_quantile(0.75);
    let base = run(LinkStrategy::Base);
    let boost = run(LinkStrategy::Boost { gamma1 });
    let prune = run(LinkStrategy::Prune { tau: 0.2 });
    assert!(base.accuracy() > 0.7, "base {}", base.accuracy());
    assert!(
        boost.accuracy() >= base.accuracy() - 0.02,
        "boost regressed: {:.3} vs {:.3}",
        boost.accuracy(),
        base.accuracy()
    );
    assert!(prune.with_links < base.with_links);
    assert!(
        prune.accuracy() >= base.accuracy() - 0.06,
        "prune collapsed: {:.3} vs {:.3}",
        prune.accuracy(),
        base.accuracy()
    );
}

/// Footnote 1: different models disagree on which nodes are saturated.
#[test]
fn models_have_different_saturation_sets() {
    let (bundle, split, _) = setup(DatasetId::Cora, 0.4, 200, ModelProfile::gpt35(), 17);
    let tag = &bundle.tag;
    let labels = LabelStore::from_split(tag, &split);
    let correct_set = |profile: ModelProfile| -> Vec<bool> {
        let llm = SimLlm::new(bundle.lexicon.clone(), tag.class_names().to_vec(), profile);
        let exec = Executor::new(tag, &llm, 4, 2);
        exec.run_all(&mqo_core::ZeroShot, &labels, split.queries(), |_| false)
            .unwrap()
            .records
            .iter()
            .map(|r| r.correct)
            .collect()
    };
    let a = correct_set(ModelProfile::gpt35());
    let b = correct_set(ModelProfile::gpt4o_mini());
    let disagreements = a.iter().zip(&b).filter(|(x, y)| x != y).count();
    assert!(disagreements > 10, "saturation sets identical across models");
}
