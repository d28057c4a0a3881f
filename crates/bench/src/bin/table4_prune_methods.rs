//! Table IV (Q1): classification accuracy of three benchmark methods with
//! and without the token pruning strategy (top 20% by text inadequacy),
//! across all five datasets.

use mqo_bench::harness::{num_queries, setup, SEED};
use mqo_bench::report::{delta_pct, print_table, write_json};
use mqo_core::predictor::{KhopRandom, Predictor, Sns};
use mqo_core::pruning::{run_with_pruning, PrunePlan};
use mqo_core::{Executor, InadequacyScorer, LabelStore};
use mqo_data::DatasetId;
use mqo_llm::ModelProfile;
use mqo_serve::run::{max_neighbors, surrogate_config};
use serde_json::json;

/// Paper's Table IV (GPT-3.5): (method, [cora, citeseer, pubmed, arxiv, products]) pairs.
const PAPER: [(&str, [f64; 5], [f64; 5]); 3] = [
    ("1-hop random", [72.3, 64.1, 87.4, 71.8, 83.7], [72.5, 63.9, 88.9, 72.4, 83.4]),
    ("2-hop random", [72.0, 64.8, 88.8, 72.6, 83.5], [71.9, 64.5, 89.1, 72.9, 83.0]),
    ("SNS", [74.8, 69.3, 89.3, 71.5, 84.3], [74.4, 68.5, 88.8, 71.8, 84.0]),
];

fn main() {
    let tau = 0.2;
    let mut rows = Vec::new();
    let mut artifacts = Vec::new();
    let mut measured: Vec<Vec<(f64, f64)>> = vec![Vec::new(); 3]; // per method, per dataset

    for (d, id) in DatasetId::ALL.into_iter().enumerate() {
        eprintln!("[table4] {} ({} queries)…", id.name(), num_queries());
        let ctx = setup(id, ModelProfile::gpt35());
        let tag = &ctx.bundle.tag;
        let labels = LabelStore::from_split(tag, &ctx.split);
        let exec = Executor::new(tag, &ctx.llm, max_neighbors(&ctx.bundle), SEED);
        let surrogate = surrogate_config(&ctx.bundle, SEED);
        let scorer = InadequacyScorer::build(&exec, &ctx.split, &surrogate, 10, SEED).unwrap();
        let plan = PrunePlan::by_inadequacy(&scorer, tag, ctx.split.queries(), tau);

        let methods: Vec<Box<dyn Predictor>> = vec![
            Box::new(KhopRandom::new(1, tag.num_nodes())),
            Box::new(KhopRandom::new(2, tag.num_nodes())),
            Box::new(Sns::fit(tag)),
        ];
        for (mi, method) in methods.iter().enumerate() {
            let base =
                exec.run_all(method.as_ref(), &labels, ctx.split.queries(), |_| false).unwrap();
            let pruned =
                run_with_pruning(&exec, method.as_ref(), &labels, ctx.split.queries(), &plan)
                    .unwrap();
            measured[mi].push((base.accuracy(), pruned.accuracy()));
            artifacts.push(json!({
                "dataset": id.name(),
                "method": method.name(),
                "tau": tau,
                "accuracy_base": base.accuracy() * 100.0,
                "accuracy_pruned": pruned.accuracy() * 100.0,
                "paper_base": PAPER[mi].1[d],
                "paper_pruned": PAPER[mi].2[d],
                "prompt_tokens_base": base.prompt_tokens(),
                "prompt_tokens_pruned": pruned.prompt_tokens(),
            }));
        }
    }

    let names = ["1-hop random", "2-hop random", "SNS"];
    for (mi, name) in names.iter().enumerate() {
        let cells = |f: fn(&(f64, f64)) -> f64| -> Vec<String> {
            measured[mi].iter().map(|p| format!("{:.1}", f(p) * 100.0)).collect()
        };
        let mut base_row = vec![name.to_string()];
        base_row.extend(cells(|p| p.0));
        rows.push(base_row);
        let mut prune_row = vec!["  w/ token prune".to_string()];
        prune_row.extend(cells(|p| p.1));
        rows.push(prune_row);
        let mut delta_row = vec!["  Δ%".to_string()];
        delta_row.extend(measured[mi].iter().map(|&(b, p)| delta_pct(p, b)));
        rows.push(delta_row);
        let mut paper_row = vec!["  (paper Δ%)".to_string()];
        paper_row.extend((0..5).map(|d| delta_pct(PAPER[mi].2[d], PAPER[mi].1[d])));
        rows.push(paper_row);
    }
    print_table(
        "Table IV — accuracy (%) with vs without token pruning (top 20% pruned)",
        &["method", "cora", "citeseer", "pubmed", "ogbn-arxiv", "ogbn-products"],
        &rows,
    );
    println!("\nExpected shape: Δ% stays negligible (|Δ| of a couple of percent or less),");
    println!("i.e. pruning 20% of queries' neighbor text does not degrade accuracy.");
    write_json("table4_prune_methods", &json!(artifacts));
}
