//! Prefix-sharing analysis (§II-C context): prior LLM-MQO work (prefix
//! caching, Hydragen, cascade inference) reuses shared prompt *prefixes*
//! across queries — but needs white-box serving. This analysis quantifies
//! how much prefix mass the paradigm's prompts actually share, and how the
//! paper's black-box strategies compare and compose with it.
//!
//! Method: for each dataset's query set, render all prompts and measure
//! (a) the longest prefix common to every prompt, (b) pairwise shared
//! prefixes between consecutive prompts — the quantity a radix-tree prompt
//! cache would reuse when prompts arrive in order — and (c) the *realized*
//! segment-level reuse a [`mqo_cache::PrefixStore`] observes over the same
//! serving order. All prefix quantities are measured in tokenizer tokens
//! (the unit providers bill), via [`mqo_cache::common_prefix_tokens`];
//! byte counts are kept only as a secondary column.
//!
//! This experiment is the only user of `PrefixStore`,
//! `common_prefix_tokens` and `mqo_llm::prompt::segments`; the serving
//! stack does not measure prefix reuse.

use mqo_bench::harness::{setup, SEED};
use mqo_bench::report::{print_table, write_json};
use mqo_cache::{common_prefix_bytes, common_prefix_tokens, PrefixStore};
use mqo_core::predictor::KhopRandom;
use mqo_core::pruning::PrunePlan;
use mqo_core::{Executor, InadequacyScorer, LabelStore};
use mqo_data::DatasetId;
use mqo_llm::{prompt::segments, ModelProfile};
use mqo_serve::run::{max_neighbors, surrogate_config};
use mqo_token::Tokenizer;
use serde_json::json;

fn main() {
    let mut rows = Vec::new();
    let mut artifacts = Vec::new();
    for id in [DatasetId::Cora, DatasetId::Citeseer, DatasetId::Pubmed] {
        eprintln!("[prefix] {}…", id.name());
        let ctx = setup(id, ModelProfile::gpt35());
        let tag = &ctx.bundle.tag;
        let labels = LabelStore::from_split(tag, &ctx.split);
        let exec = Executor::new(tag, &ctx.llm, max_neighbors(&ctx.bundle), SEED);
        let predictor = KhopRandom::new(1, tag.num_nodes());
        let surrogate = surrogate_config(&ctx.bundle, SEED);
        let scorer = InadequacyScorer::build(&exec, &ctx.split, &surrogate, 10, SEED).unwrap();
        let plan = PrunePlan::by_inadequacy(&scorer, tag, ctx.split.queries(), 0.2);

        let render_all = |prune: bool| -> Vec<String> {
            ctx.split
                .queries()
                .iter()
                .map(|&v| {
                    let mut rng = exec.query_rng(v);
                    exec.render_for_estimate(
                        &predictor,
                        &labels,
                        v,
                        &mut rng,
                        prune && plan.is_pruned(v),
                    )
                })
                .collect()
        };
        for (arm, prompts) in [("base", render_all(false)), ("w/ prune 20%", render_all(true))]
        {
            let total_tokens: usize = prompts.iter().map(|p| Tokenizer.count(p)).sum();
            // Global common prefix across all prompts (tokens).
            let global = prompts.iter().skip(1).fold(Tokenizer.count(&prompts[0]), |acc, p| {
                acc.min(common_prefix_tokens(&prompts[0], p))
            });
            // Mean pairwise (consecutive) shared prefix — what a serving
            // cache keyed on arrival adjacency would hit.
            let pair_tok: usize =
                prompts.windows(2).map(|w| common_prefix_tokens(&w[0], &w[1])).sum::<usize>()
                    / (prompts.len() - 1);
            let pair_bytes: usize =
                prompts.windows(2).map(|w| common_prefix_bytes(&w[0], &w[1])).sum::<usize>()
                    / (prompts.len() - 1);
            // Realized reuse over the whole serving order: feed every
            // prompt through the radix-style segment store.
            let mut store = PrefixStore::new();
            for p in &prompts {
                store.observe_segments(&segments(p));
            }
            let realized = store.reused_tokens();
            let mean_tokens = total_tokens / prompts.len();
            rows.push(vec![
                format!("{} / {arm}", id.name()),
                format!("{total_tokens}"),
                format!("{global} t"),
                format!("{pair_tok} t"),
                format!("{:.1}%", pair_tok as f64 / mean_tokens as f64 * 100.0),
                format!("{:.1}%", realized as f64 / store.total_tokens() as f64 * 100.0),
            ]);
            artifacts.push(json!({
                "dataset": id.name(),
                "arm": arm,
                "total_prompt_tokens": total_tokens,
                "global_common_prefix_tokens": global,
                "mean_pairwise_prefix_tokens": pair_tok,
                "mean_pairwise_prefix_bytes": pair_bytes,
                "realized_reuse_tokens": realized,
                "realized_reuse_fraction": realized as f64 / store.total_tokens() as f64,
            }));
        }
    }
    print_table(
        "Prefix sharing across the query set (§II-C context)",
        &[
            "dataset / arm",
            "total tokens",
            "global prefix",
            "pairwise prefix",
            "prefix share",
            "realized reuse",
        ],
        &rows,
    );
    println!("\nThe paradigm front-loads each prompt with the *target* node's unique");
    println!("text, so shared prefixes are tiny — prefix-cache MQO has little to reuse");
    println!("here, while the paper's black-box strategies cut whole-prompt mass and");
    println!("compose with serving-side caching where it does apply.");
    write_json("prefix_sharing", &json!(artifacts));
}
