//! Fig. 7 (Q2): accuracy of inadequacy-ranked pruning vs random pruning on
//! the 1-hop random method, across token budgets allowing neighbor text
//! for 100%, 80%, 60%, 40%, 20%, 0% of queries, on all five datasets.

use mqo_bench::harness::{setup, surrogate_for, SEED};
use mqo_bench::report::{print_table, write_json};
use mqo_core::predictor::KhopRandom;
use mqo_core::pruning::budget_sweep;
use mqo_core::{Executor, InadequacyScorer, LabelStore};
use mqo_data::DatasetId;
use mqo_llm::ModelProfile;
use mqo_serve::run::max_neighbors;
use serde_json::json;

fn main() {
    let taus = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
    let mut artifacts = Vec::new();
    for id in DatasetId::ALL {
        eprintln!("[fig7] {}…", id.name());
        let ctx = setup(id, ModelProfile::gpt35());
        let tag = &ctx.bundle.tag;
        let labels = LabelStore::from_split(tag, &ctx.split);
        let exec = Executor::new(tag, &ctx.llm, max_neighbors(&ctx.bundle), SEED);
        let scorer =
            InadequacyScorer::build(&exec, &ctx.split, &surrogate_for(id), 10, SEED).unwrap();
        let khop = KhopRandom::new(1, tag.num_nodes());
        let points =
            budget_sweep(&exec, &khop, &labels, ctx.split.queries(), &scorer, &taus, SEED)
                .unwrap();

        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|p| {
                vec![
                    format!("{:.0}%", (1.0 - p.tau) * 100.0),
                    format!("{:.1}", p.accuracy_pruned * 100.0),
                    format!("{:.1}", p.accuracy_random * 100.0),
                    format!("{:+.1}", (p.accuracy_pruned - p.accuracy_random) * 100.0),
                ]
            })
            .collect();
        print_table(
            &format!("Fig. 7 — {} (1-hop random)", id.name()),
            &["neighbor-text budget", "ours (ranked)", "random", "advantage (pp)"],
            &rows,
        );
        artifacts.push(json!({
            "dataset": id.name(),
            "series": points.iter().map(|p| json!({
                "included_fraction": 1.0 - p.tau,
                "accuracy_ranked": p.accuracy_pruned * 100.0,
                "accuracy_random": p.accuracy_random * 100.0,
            })).collect::<Vec<_>>(),
            "paper_expectation": "ranked ≥ random at every intermediate budget; \
                 on pubmed and ogbn-arxiv the 0% endpoint beats the 100% endpoint",
        }));
    }
    write_json("fig7_budget_sweep", &json!(artifacts));
}
