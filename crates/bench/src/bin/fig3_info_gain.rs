//! Fig. 3: accuracy gain of 1-hop random over vanilla zero-shot (a proxy
//! for the information gain `IG^{N_i}`), grouped by whether the neighbor
//! text contained labels, plus the pie-chart proportions.

use mqo_bench::harness::{setup, SEED};
use mqo_bench::report::{pct, print_table, write_json};
use mqo_core::analysis::info_gain_experiment;
use mqo_core::predictor::KhopRandom;
use mqo_core::{Executor, LabelStore};
use mqo_data::DatasetId;
use mqo_llm::ModelProfile;
use mqo_serve::run::max_neighbors;
use serde_json::json;

fn main() {
    let mut rows = Vec::new();
    let mut artifacts = Vec::new();
    // The paper's Fig. 3 shows Cora and Citeseer.
    for id in [DatasetId::Cora, DatasetId::Citeseer] {
        let ctx = setup(id, ModelProfile::gpt35());
        let tag = &ctx.bundle.tag;
        let labels = LabelStore::from_split(tag, &ctx.split);
        let exec = Executor::new(tag, &ctx.llm, max_neighbors(&ctx.bundle), SEED);
        let khop = KhopRandom::new(1, tag.num_nodes());
        let report = info_gain_experiment(&exec, &khop, &labels, ctx.split.queries()).unwrap();
        rows.push(vec![
            id.name().to_string(),
            report.with_labels.to_string(),
            report.without_labels.to_string(),
            pct(report.labeled_fraction()),
            format!("{:+.1}", report.gain_with_labels * 100.0),
            format!("{:+.1}", report.gain_without_labels * 100.0),
        ]);
        artifacts.push(json!({
            "dataset": id.name(),
            "queries_with_neighbor_labels": report.with_labels,
            "queries_without_neighbor_labels": report.without_labels,
            "labeled_fraction": report.labeled_fraction(),
            "ig_proxy_with_labels_pp": report.gain_with_labels * 100.0,
            "ig_proxy_without_labels_pp": report.gain_without_labels * 100.0,
            "paper_expectation": "bars: gain(with labels) > gain(without); pies: both groups populated",
        }));
    }
    print_table(
        "Fig. 3 — IG proxy by neighbor-label presence (percentage points)",
        &[
            "dataset",
            "#N_L!=0",
            "#N_L==0",
            "% with labels",
            "gain w/ labels",
            "gain w/o labels",
        ],
        &rows,
    );
    write_json("fig3_info_gain", &json!(artifacts));
}
