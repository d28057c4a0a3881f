//! Table VIII (Q7): both strategies applied jointly — prune the top 20% by
//! text inadequacy, then execute through query boosting. Reports accuracy
//! and the "# Queries Equip N_i" cost indicator, for both model profiles.

use mqo_bench::harness::{num_queries, setup, SEED};
use mqo_bench::report::{print_table, write_json};
use mqo_core::boosting::BoostConfig;
use mqo_core::joint::run_joint;
use mqo_core::predictor::{KhopRandom, Predictor, Sns};
use mqo_core::{Executor, InadequacyScorer, LabelStore};
use mqo_data::DatasetId;
use mqo_llm::ModelProfile;
use mqo_serve::run::surrogate_config;
use serde_json::json;

fn main() {
    let tau = 0.2;
    let boost = BoostConfig { gamma1: 3, gamma2: 2 };
    let mut artifacts = Vec::new();
    for profile in [ModelProfile::gpt4o_mini(), ModelProfile::gpt35()] {
        let mut rows = Vec::new();
        for id in DatasetId::SMALL {
            eprintln!("[table8] {} × {}…", id.name(), profile.name);
            let ctx = setup(id, profile.clone());
            let tag = &ctx.bundle.tag;
            let exec = Executor::new(tag, &ctx.llm, 4, SEED);
            let surrogate = surrogate_config(&ctx.bundle, SEED);
            let scorer =
                InadequacyScorer::build(&exec, &ctx.split, &surrogate, 10, SEED).unwrap();
            let methods: Vec<Box<dyn Predictor>> = vec![
                Box::new(KhopRandom::new(1, tag.num_nodes())),
                Box::new(KhopRandom::new(2, tag.num_nodes())),
                Box::new(Sns::fit(tag)),
            ];
            for method in &methods {
                let labels = LabelStore::from_split(tag, &ctx.split);
                let base = exec
                    .run_all(method.as_ref(), &labels, ctx.split.queries(), |_| false)
                    .unwrap();
                let mut joint_labels = LabelStore::from_split(tag, &ctx.split);
                let (joint, _) = run_joint(
                    &exec,
                    method.as_ref(),
                    &mut joint_labels,
                    ctx.split.queries(),
                    &scorer,
                    tau,
                    boost,
                )
                .unwrap();
                rows.push(vec![
                    format!("{} / {}", id.name(), method.name()),
                    base.queries_with_neighbors().to_string(),
                    format!("{:.1}", base.accuracy() * 100.0),
                    joint.queries_with_neighbors().to_string(),
                    format!(
                        "{:.1}{}",
                        joint.accuracy() * 100.0,
                        if joint.accuracy() > base.accuracy() { "↑" } else { "" }
                    ),
                ]);
                artifacts.push(json!({
                    "model": profile.name,
                    "dataset": id.name(),
                    "method": method.name(),
                    "queries": num_queries(),
                    "base": {
                        "queries_with_neighbors": base.queries_with_neighbors(),
                        "accuracy": base.accuracy() * 100.0,
                        "prompt_tokens": base.prompt_tokens(),
                    },
                    "joint": {
                        "queries_with_neighbors": joint.queries_with_neighbors(),
                        "accuracy": joint.accuracy() * 100.0,
                        "prompt_tokens": joint.prompt_tokens(),
                    },
                }));
            }
        }
        print_table(
            &format!("Table VIII — prune(20%) + boost, {}", profile.name),
            &["dataset / method", "#N base", "acc base", "#N joint", "acc joint"],
            &rows,
        );
    }
    println!("\nExpected shape: the joint version equips ~20% fewer queries with");
    println!("neighbor text (lower cost) while matching or beating base accuracy.");
    write_json("table8_joint", &json!(artifacts));
}
