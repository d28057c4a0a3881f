//! Campaign planning: dollars → tokens → τ, before any LLM call.
//!
//! The running example (§V-C) converts a token budget into the pruned
//! fraction τ using the mean full-query and neighbor-text token costs.
//! [`plan_campaign`] estimates those means by *rendering* a probe sample's
//! prompts (no LLM calls, no cost) and produces the full plan a deployment
//! would review before spending money.

use crate::executor::Executor;
use crate::labels::LabelStore;
use crate::predictor::Predictor;
use mqo_graph::NodeId;
use mqo_token::budget::tau_for_budget;
use mqo_token::{ModelPricing, Tokenizer};

/// A reviewed-before-spending campaign plan.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignPlan {
    /// Number of queries planned.
    pub queries: usize,
    /// Estimated mean tokens of a full (neighbor-equipped) query.
    pub tokens_full: f64,
    /// Estimated mean tokens of the neighbor text alone.
    pub tokens_neighbor: f64,
    /// Fraction of queries to prune to fit the budget.
    pub tau: f64,
    /// Estimated total input tokens without any pruning.
    pub est_tokens_unpruned: f64,
    /// Estimated total input tokens under the plan.
    pub est_tokens_planned: f64,
    /// Estimated dollar cost without pruning.
    pub est_cost_unpruned: f64,
    /// Estimated dollar cost under the plan.
    pub est_cost_planned: f64,
}

/// Estimate a query's prompt tokens with and without neighbor text by
/// rendering both variants (no LLM call).
pub fn estimate_query_tokens(
    exec: &Executor<'_>,
    predictor: &dyn Predictor,
    labels: &LabelStore,
    v: NodeId,
) -> (usize, usize) {
    let mut rng = exec.query_rng(v);
    let full = exec.render_for_estimate(predictor, labels, v, &mut rng, false);
    let pruned = exec.render_for_estimate(predictor, labels, v, &mut rng, true);
    (Tokenizer.count(&full), Tokenizer.count(&pruned))
}

/// Build a campaign plan for `queries` under `budget_dollars` at
/// `pricing`, probing the first `probe_size` queries for token statistics.
pub fn plan_campaign(
    exec: &Executor<'_>,
    predictor: &dyn Predictor,
    labels: &LabelStore,
    queries: &[NodeId],
    probe_size: usize,
    pricing: &ModelPricing,
    budget_dollars: f64,
) -> CampaignPlan {
    assert!(!queries.is_empty(), "cannot plan an empty campaign");
    let probe: Vec<NodeId> = queries.iter().take(probe_size.max(1)).copied().collect();
    let mut full_total = 0usize;
    let mut pruned_total = 0usize;
    for &v in &probe {
        let (f, p) = estimate_query_tokens(exec, predictor, labels, v);
        full_total += f;
        pruned_total += p;
    }
    let tokens_full = full_total as f64 / probe.len() as f64;
    let tokens_neighbor = (tokens_full - pruned_total as f64 / probe.len() as f64).max(1.0);

    let token_budget = budget_dollars / pricing.input_per_1k * 1000.0;
    let q = queries.len() as u64;
    let tau = tau_for_budget(q, tokens_full, tokens_neighbor, token_budget);

    let est_tokens_unpruned = q as f64 * tokens_full;
    let est_tokens_planned = est_tokens_unpruned - tau * q as f64 * tokens_neighbor;
    CampaignPlan {
        queries: queries.len(),
        tokens_full,
        tokens_neighbor,
        tau,
        est_tokens_unpruned,
        est_tokens_planned,
        est_cost_unpruned: pricing.input_cost(est_tokens_unpruned as u64),
        est_cost_planned: pricing.input_cost(est_tokens_planned as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::KhopRandom;
    use mqo_data::{dataset, DatasetId};
    use mqo_graph::{LabeledSplit, SplitConfig};
    use mqo_llm::{LanguageModel, ModelProfile, SimLlm};
    use mqo_token::GPT_35_TURBO_0125;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn world() -> (mqo_data::DatasetBundle, LabeledSplit, SimLlm) {
        let bundle = dataset(DatasetId::Cora, Some(0.3), 51);
        let split = LabeledSplit::generate(
            &bundle.tag,
            SplitConfig::PerClass { per_class: 20, num_queries: 150 },
            &mut StdRng::seed_from_u64(1),
        )
        .unwrap();
        let llm = SimLlm::new(
            bundle.lexicon.clone(),
            bundle.tag.class_names().to_vec(),
            ModelProfile::gpt35(),
        );
        (bundle, split, llm)
    }

    #[test]
    fn estimation_does_not_call_the_llm() {
        let (bundle, split, llm) = world();
        let exec = Executor::new(&bundle.tag, &llm, 4, 1);
        let labels = LabelStore::from_split(&bundle.tag, &split);
        let predictor = KhopRandom::new(1, bundle.tag.num_nodes());
        let (full, pruned) =
            estimate_query_tokens(&exec, &predictor, &labels, split.queries()[0]);
        assert!(full > pruned, "neighbor text must add tokens: {full} vs {pruned}");
        assert_eq!(llm.meter().totals().requests, 0, "estimation must be free");
    }

    #[test]
    fn generous_budget_needs_no_pruning_tight_budget_does() {
        let (bundle, split, llm) = world();
        let exec = Executor::new(&bundle.tag, &llm, 4, 1);
        let labels = LabelStore::from_split(&bundle.tag, &split);
        let predictor = KhopRandom::new(1, bundle.tag.num_nodes());

        let plan = |dollars: f64| {
            plan_campaign(
                &exec,
                &predictor,
                &labels,
                split.queries(),
                20,
                &GPT_35_TURBO_0125,
                dollars,
            )
        };
        let generous = plan(10.0);
        assert_eq!(generous.tau, 0.0);
        assert!((generous.est_cost_planned - generous.est_cost_unpruned).abs() < 1e-9);

        let tight = plan(0.02);
        assert!(tight.tau > 0.3, "tight budget should prune: tau {}", tight.tau);
        assert!(tight.est_cost_planned < tight.est_cost_unpruned);
        assert!(
            tight.est_tokens_planned <= 0.02 / GPT_35_TURBO_0125.input_per_1k * 1000.0 * 1.02
                || tight.tau == 1.0
        );
    }

    #[test]
    fn plan_is_consistent_with_budget_math() {
        let (bundle, split, llm) = world();
        let exec = Executor::new(&bundle.tag, &llm, 4, 1);
        let labels = LabelStore::from_split(&bundle.tag, &split);
        let predictor = KhopRandom::new(1, bundle.tag.num_nodes());
        let plan = plan_campaign(
            &exec,
            &predictor,
            &labels,
            split.queries(),
            30,
            &GPT_35_TURBO_0125,
            0.04,
        );
        // planned = unpruned − τ·q·tokens_neighbor, by construction.
        let expected =
            plan.est_tokens_unpruned - plan.tau * plan.queries as f64 * plan.tokens_neighbor;
        assert!((plan.est_tokens_planned - expected).abs() < 1e-6);
    }
}
