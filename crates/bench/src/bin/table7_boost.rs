//! Table VII (Q6): classification accuracy with vs without the query
//! boosting strategy, for three methods × three small datasets × two
//! models (GPT-4o-mini and GPT-3.5 profiles), M = 4, γ1 = 3, γ2 = 2.

use mqo_bench::harness::{setup, SEED};
use mqo_bench::report::{print_table, write_json};
use mqo_core::boosting::{BoostConfig, DegradePolicy};
use mqo_core::predictor::{KhopRandom, Predictor, Sns};
use mqo_core::{Executor, LabelStore, Labels, SchedulePolicy, Scheduler};
use mqo_data::DatasetId;
use mqo_llm::ModelProfile;
use serde_json::json;

/// Paper Table VII baselines/boosted, GPT-3.5 block:
/// rows = methods, cols = cora/citeseer/pubmed.
const PAPER_35: [(&str, [f64; 3], [f64; 3]); 3] = [
    ("1-hop random", [72.3, 64.1, 87.4], [72.8, 65.3, 87.9]),
    ("2-hop random", [72.0, 64.8, 88.8], [74.2, 67.3, 89.4]),
    ("SNS", [74.8, 69.3, 89.3], [76.3, 70.6, 90.3]),
];

fn main() {
    let boost = BoostConfig { gamma1: 3, gamma2: 2 };
    let mut artifacts = Vec::new();
    for profile in [ModelProfile::gpt4o_mini(), ModelProfile::gpt35()] {
        let mut rows = Vec::new();
        let method_names = ["1-hop random", "2-hop random", "SNS"];
        let mut measured = [[(0.0f64, 0.0f64); 3]; 3];
        for (d, id) in DatasetId::SMALL.into_iter().enumerate() {
            eprintln!("[table7] {} × {}…", id.name(), profile.name);
            let ctx = setup(id, profile.clone());
            let tag = &ctx.bundle.tag;
            let exec = Executor::new(tag, &ctx.llm, 4, SEED);
            let methods: Vec<Box<dyn Predictor>> = vec![
                Box::new(KhopRandom::new(1, tag.num_nodes())),
                Box::new(KhopRandom::new(2, tag.num_nodes())),
                Box::new(Sns::fit(tag)),
            ];
            for (mi, method) in methods.iter().enumerate() {
                let labels = LabelStore::from_split(tag, &ctx.split);
                let base = exec
                    .run_all(method.as_ref(), &labels, ctx.split.queries(), |_| false)
                    .unwrap();
                let mut boost_labels = LabelStore::from_split(tag, &ctx.split);
                let boosted = Scheduler::new(
                    &exec,
                    SchedulePolicy::CueGated {
                        config: boost,
                        policy: DegradePolicy::default(),
                        threads: 1,
                        deterministic: true,
                    },
                )
                .run(
                    method.as_ref(),
                    Labels::Boosting(&mut boost_labels),
                    ctx.split.queries(),
                    |_| false,
                )
                .unwrap()
                .outcome;
                measured[mi][d] = (base.accuracy(), boosted.accuracy());
                artifacts.push(json!({
                    "model": profile.name,
                    "dataset": id.name(),
                    "method": method.name(),
                    "accuracy_base": base.accuracy() * 100.0,
                    "accuracy_boosted": boosted.accuracy() * 100.0,
                    "pseudo_label_uses": boosted.pseudo_label_uses(),
                }));
            }
        }
        for (mi, per_ds) in measured.iter().enumerate() {
            let mut base_row = vec![method_names[mi].to_string()];
            base_row.extend(per_ds.iter().map(|(b, _)| format!("{:.1}", b * 100.0)));
            if profile.name.contains("3.5") {
                base_row.push(format!("paper: {:?}", PAPER_35[mi].1));
            }
            rows.push(base_row);
            let mut boost_row = vec!["  w/ query boost".to_string()];
            boost_row.extend(
                per_ds
                    .iter()
                    .map(|(b, q)| format!("{:.1}{}", q * 100.0, if q > b { "↑" } else { "" })),
            );
            if profile.name.contains("3.5") {
                boost_row.push(format!("paper: {:?}", PAPER_35[mi].2));
            }
            rows.push(boost_row);
        }
        print_table(
            &format!("Table VII — query boosting, {} (M=4, γ1=3, γ2=2)", profile.name),
            &["method", "cora", "citeseer", "pubmed", ""],
            &rows,
        );
    }
    println!("\nExpected shape: boosting lifts accuracy in nearly every cell, more for");
    println!("2-hop than 1-hop (more query associations → more pseudo-label slots).");
    write_json("table7_boost", &json!(artifacts));
}
