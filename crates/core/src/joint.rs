//! Both strategies applied jointly (§VI-H, Table VIII): prune the top τ%
//! by text inadequacy, then execute everything through query boosting.

use crate::boosting::{BoostConfig, DegradePolicy, RoundTrace};
use crate::error::Result;
use crate::executor::{ExecOutcome, Executor};
use crate::inadequacy::InadequacyScorer;
use crate::labels::LabelStore;
use crate::predictor::Predictor;
use crate::pruning::PrunePlan;
use crate::sched::{Labels, SchedulePolicy, Scheduler};
use mqo_graph::NodeId;

/// Run prune(τ) + boost over `queries`.
pub fn run_joint(
    exec: &Executor<'_>,
    predictor: &dyn Predictor,
    labels: &mut LabelStore,
    queries: &[NodeId],
    scorer: &InadequacyScorer,
    tau: f64,
    boost: BoostConfig,
) -> Result<(ExecOutcome, Vec<RoundTrace>)> {
    let plan = PrunePlan::by_inadequacy(scorer, exec.tag, queries, tau);
    let policy = SchedulePolicy::cue_gated(boost, DegradePolicy::default(), 1);
    let report = Scheduler::new(exec, policy).run(
        predictor,
        Labels::Boosting(labels),
        queries,
        |v| plan.is_pruned(v),
    )?;
    Ok((report.outcome, report.rounds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::KhopRandom;
    use crate::surrogate::SurrogateConfig;
    use mqo_data::{dataset, DatasetId};
    use mqo_graph::{LabeledSplit, SplitConfig};
    use mqo_llm::{ModelProfile, SimLlm};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn joint_prunes_and_boosts_end_to_end() {
        let bundle = dataset(DatasetId::Cora, Some(0.3), 33);
        let tag = &bundle.tag;
        let split = LabeledSplit::generate(
            tag,
            SplitConfig::PerClass { per_class: 20, num_queries: 100 },
            &mut StdRng::seed_from_u64(0),
        )
        .unwrap();
        let llm = SimLlm::new(
            bundle.lexicon.clone(),
            tag.class_names().to_vec(),
            ModelProfile::gpt35(),
        );
        let exec = Executor::new(tag, &llm, 4, 7);
        let scorer =
            InadequacyScorer::build(&exec, &split, &SurrogateConfig::small(1), 10, 2).unwrap();
        let predictor = KhopRandom::new(1, tag.num_nodes());
        let mut labels = crate::labels::LabelStore::from_split(tag, &split);
        let (out, _) = run_joint(
            &exec,
            &predictor,
            &mut labels,
            split.queries(),
            &scorer,
            0.2,
            BoostConfig::default(),
        )
        .unwrap();
        assert_eq!(out.records.len(), 100);
        let pruned = out.records.iter().filter(|r| r.pruned).count();
        // 20% were planned; low-degree nodes may add empty-neighbor cases.
        assert!(pruned >= 20, "pruned {pruned}");
        assert_eq!(out.queries_with_neighbors() + pruned, 100);
        // Reasonable accuracy (well above 1/7 chance).
        assert!(out.accuracy() > 0.4, "accuracy {}", out.accuracy());
    }
}
