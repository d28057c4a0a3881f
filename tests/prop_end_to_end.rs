//! Property-based integration tests: invariants that must hold for *any*
//! generated dataset, seed, and strategy configuration.

use mqo_core::boosting::{BoostConfig, DegradePolicy};
use mqo_core::predictor::KhopRandom;
use mqo_core::pruning::PrunePlan;
use mqo_core::{Executor, LabelStore, Labels, SchedulePolicy, Scheduler};
use mqo_data::{generate, DatasetSpec};
use mqo_graph::{LabeledSplit, SplitConfig};
use mqo_llm::{ModelProfile, SimLlm};
use mqo_text::DocumentSpec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny_spec(classes: usize, homophily: f64, saturated: f64) -> DatasetSpec {
    DatasetSpec {
        name: "prop",
        nodes: 400,
        edges: 1400,
        class_names: (0..classes).map(|c| format!("Topic {c}")).collect(),
        homophily,
        saturated_frac: saturated,
        adversarial_frac: 0.05,
        alpha_high: (0.25, 0.7),
        alpha_low: (0.0, 0.1),
        doc: DocumentSpec { title_words: 7, body_words: 30, cross_noise: 0.25, zipf_s: 1.05 },
        degree_tail: 2.5,
        closure_frac: 0.2,
        lexicon_per_class: 80,
        lexicon_shared: 800,
        lexicon_markers: 300,
        link_marker_prob: 0.5,
        split: SplitConfig::PerClass { per_class: 10, num_queries: 60 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Whatever the configuration: every query is answered exactly once,
    /// accuracy is a valid fraction, tokens are conserved, and pruning a
    /// τ fraction prunes exactly that many queries.
    #[test]
    fn execution_invariants(
        seed in 0u64..1000,
        classes in 3usize..8,
        homophily in 0.5f64..0.95,
        saturated in 0.3f64..0.9,
        tau in 0.0f64..1.0,
    ) {
        let spec = tiny_spec(classes, homophily, saturated);
        let bundle = generate(&spec, 1.0, seed);
        let tag = &bundle.tag;
        let split = LabeledSplit::generate(
            tag,
            spec.split,
            &mut StdRng::seed_from_u64(seed),
        ).unwrap();
        let llm = SimLlm::new(
            bundle.lexicon.clone(),
            tag.class_names().to_vec(),
            ModelProfile::gpt35(),
        );
        let exec = Executor::new(tag, &llm, 4, seed);
        let labels = LabelStore::from_split(tag, &split);
        let predictor = KhopRandom::new(1, tag.num_nodes());
        let plan = PrunePlan::random(split.queries(), tau, seed);

        use mqo_llm::LanguageModel;
        llm.meter().reset();
        let out = exec
            .run_all(&predictor, &labels, split.queries(), |v| plan.is_pruned(v))
            .unwrap();

        prop_assert_eq!(out.records.len(), split.queries().len());
        prop_assert!((0.0..=1.0).contains(&out.accuracy()));
        prop_assert_eq!(out.prompt_tokens(), llm.meter().totals().prompt_tokens);
        let expected_pruned = (split.queries().len() as f64 * tau).round() as usize;
        prop_assert_eq!(
            out.records.iter().filter(|r| plan.is_pruned(r.node)).count(),
            expected_pruned
        );
        // Predicted classes are always in range.
        for r in &out.records {
            prop_assert!((r.predicted.index()) < tag.num_classes());
        }
    }

    /// Query boosting terminates for any thresholds, executes every query
    /// exactly once, and leaves every query pseudo-labeled.
    #[test]
    fn boosting_invariants(
        seed in 0u64..1000,
        gamma1 in 0usize..6,
        gamma2 in 0usize..6,
    ) {
        let spec = tiny_spec(5, 0.8, 0.6);
        let bundle = generate(&spec, 1.0, seed);
        let tag = &bundle.tag;
        let split = LabeledSplit::generate(
            tag,
            spec.split,
            &mut StdRng::seed_from_u64(seed),
        ).unwrap();
        let llm = SimLlm::new(
            bundle.lexicon.clone(),
            tag.class_names().to_vec(),
            ModelProfile::gpt35(),
        );
        let exec = Executor::new(tag, &llm, 4, seed);
        let mut labels = LabelStore::from_split(tag, &split);
        let predictor = KhopRandom::new(1, tag.num_nodes());
        let report = Scheduler::new(
            &exec,
            SchedulePolicy::CueGated {
                config: BoostConfig { gamma1, gamma2 },
                policy: DegradePolicy::default(),
                threads: 1,
                deterministic: true,
            },
        )
        .run(&predictor, Labels::Boosting(&mut labels), split.queries(), |_| false)
        .unwrap();
        let (out, traces) = (report.outcome, report.rounds);

        prop_assert_eq!(out.records.len(), split.queries().len());
        let mut nodes: Vec<u32> = out.records.iter().map(|r| r.node.0).collect();
        nodes.sort_unstable();
        nodes.dedup();
        prop_assert_eq!(nodes.len(), split.queries().len(), "a query ran twice");
        prop_assert!(!traces.is_empty());
        prop_assert_eq!(
            traces.iter().map(|t| t.executed).sum::<usize>(),
            split.queries().len()
        );
        for v in split.queries() {
            prop_assert!(labels.is_labeled(*v));
        }
    }
}
