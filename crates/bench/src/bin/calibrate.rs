//! Calibration utility: zero-shot / 1-hop / 2-hop / SNS accuracy per
//! dataset against the paper's operating points. Not one of the paper's
//! tables — a development aid for tuning generator and profile knobs
//! (kept in-tree so recalibration after any simulator change is one
//! command: `cargo run --release -p mqo-bench --bin calibrate`).

use mqo_bench::harness::{setup, SEED};
use mqo_bench::report::print_table;
use mqo_core::predictor::{KhopRandom, Predictor, Sns, ZeroShot};
use mqo_core::{Executor, LabelStore};
use mqo_data::DatasetId;
use mqo_llm::ModelProfile;
use mqo_serve::run::max_neighbors;

/// Paper operating points (GPT-3.5): zero-shot (Table V), 1-hop, 2-hop,
/// SNS (Table IV). Arxiv/products SNS/k-hop from Table IV.
const PAPER: [(&str, [f64; 4]); 5] = [
    ("cora", [69.0, 72.3, 72.0, 74.8]),
    ("citeseer", [60.1, 64.1, 64.8, 69.3]),
    ("pubmed", [90.0, 87.4, 88.8, 89.3]),
    ("ogbn-arxiv", [73.1, 71.8, 72.6, 71.5]),
    ("ogbn-products", [79.4, 83.7, 83.5, 84.3]),
];

fn main() {
    let mut rows = Vec::new();
    for (d, id) in DatasetId::ALL.into_iter().enumerate() {
        eprintln!("[calibrate] {}…", id.name());
        let ctx = setup(id, ModelProfile::gpt35());
        let tag = &ctx.bundle.tag;
        let labels = LabelStore::from_split(tag, &ctx.split);
        let exec = Executor::new(tag, &ctx.llm, max_neighbors(&ctx.bundle), SEED);
        let methods: Vec<Box<dyn Predictor>> = vec![
            Box::new(ZeroShot),
            Box::new(KhopRandom::new(1, tag.num_nodes())),
            Box::new(KhopRandom::new(2, tag.num_nodes())),
            Box::new(Sns::fit(tag)),
        ];
        let mut row = vec![id.name().to_string()];
        for (mi, m) in methods.iter().enumerate() {
            let out =
                exec.run_all(m.as_ref(), &labels, ctx.split.queries(), |_| false).unwrap();
            row.push(format!("{:.1} ({:.1})", out.accuracy() * 100.0, PAPER[d].1[mi]));
        }
        rows.push(row);
    }
    print_table(
        "Calibration — measured (paper) accuracy per method",
        &["dataset", "zero-shot", "1-hop", "2-hop", "SNS"],
        &rows,
    );
}
