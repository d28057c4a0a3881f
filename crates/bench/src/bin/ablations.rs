//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **γ1/γ2 sensitivity** — query boosting accuracy and round count
//!    across threshold settings (the paper fixes γ1=3, γ2=2 everywhere).
//! 2. **Inadequacy-ranking quality** — pruning at τ=40% with four rankers:
//!    the full `D(t_i)` merger, the entropy channel alone, an *oracle*
//!    that prunes exactly the nodes zero-shot already gets right (the
//!    upper bound), and random (the lower bound).
//! 3. **SNS embedding dimension** — hashed-BoW width vs accuracy (the
//!    SimCSE-substitution fidelity knob).
//! 4. **Boosting vs pure label propagation** — query boosting is
//!    LLM-mediated label propagation; the text-free classic shows how much
//!    of the gain is graph structure alone.

use mqo_bench::harness::{setup, SEED};
use mqo_bench::report::{print_table, write_json};
use mqo_core::boosting::{BoostConfig, DegradePolicy};
use mqo_core::predictor::{KhopRandom, Sns, ZeroShot};
use mqo_core::pruning::{run_with_pruning, PrunePlan};
use mqo_core::{Executor, InadequacyScorer, LabelStore, Labels, SchedulePolicy, Scheduler};
use mqo_data::DatasetId;
use mqo_graph::NodeId;
use mqo_llm::ModelProfile;
use mqo_serve::run::surrogate_config;
use serde_json::json;
use std::collections::HashSet;

fn main() {
    let ctx = setup(DatasetId::Cora, ModelProfile::gpt35());
    let tag = &ctx.bundle.tag;
    let exec = Executor::new(tag, &ctx.llm, 4, SEED);
    let queries = ctx.split.queries();
    let mut artifacts = serde_json::Map::new();

    // ----- 1. γ sensitivity ------------------------------------------------
    eprintln!("[ablations] gamma sensitivity…");
    let predictor = KhopRandom::new(2, tag.num_nodes());
    let mut rows = Vec::new();
    let mut gamma_json = Vec::new();
    for gamma1 in [1usize, 2, 3, 4, 5] {
        for gamma2 in [1usize, 2, 3] {
            let mut labels = LabelStore::from_split(tag, &ctx.split);
            let report = Scheduler::new(
                &exec,
                SchedulePolicy::cue_gated(
                    BoostConfig { gamma1, gamma2 },
                    DegradePolicy::default(),
                    1,
                ),
            )
            .run(&predictor, Labels::Boosting(&mut labels), queries, |_| false)
            .unwrap();
            let (out, traces) = (report.outcome, report.rounds);
            rows.push(vec![
                format!("γ1={gamma1}, γ2={gamma2}"),
                format!("{:.1}", out.accuracy() * 100.0),
                traces.len().to_string(),
                out.pseudo_label_uses().to_string(),
            ]);
            gamma_json.push(json!({
                "gamma1": gamma1, "gamma2": gamma2,
                "accuracy": out.accuracy() * 100.0,
                "rounds": traces.len(),
                "pseudo_label_uses": out.pseudo_label_uses(),
            }));
        }
    }
    print_table(
        "Ablation 1 — boosting threshold sensitivity (Cora, 2-hop random)",
        &["thresholds", "accuracy", "rounds", "pseudo uses"],
        &rows,
    );
    artifacts.insert("gamma_sensitivity".into(), json!(gamma_json));

    // ----- 2. ranking quality ---------------------------------------------
    eprintln!("[ablations] ranking quality…");
    let labels = LabelStore::from_split(tag, &ctx.split);
    let khop = KhopRandom::new(1, tag.num_nodes());
    let tau = 0.4;
    let surrogate = surrogate_config(&ctx.bundle, SEED);
    let scorer = InadequacyScorer::build(&exec, &ctx.split, &surrogate, 10, SEED).unwrap();

    let full_plan = PrunePlan::by_inadequacy(&scorer, tag, queries, tau);

    // Entropy channel alone: rank by H(p_i) without the bias merger.
    let mut by_entropy: Vec<(NodeId, f32)> =
        queries.iter().map(|&v| (v, scorer.surrogate().entropy_of(tag, v))).collect();
    by_entropy.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
    let cut = (queries.len() as f64 * tau).round() as usize;
    let entropy_plan = PrunePlan::from_set(
        by_entropy.into_iter().take(cut).map(|(v, _)| v).collect::<HashSet<_>>(),
    );

    // Oracle: prune exactly the nodes vanilla zero-shot classifies
    // correctly (true saturated nodes for this model).
    let zero = exec.run_all(&ZeroShot, &labels, queries, |_| false).unwrap();
    let oracle_saturated: Vec<NodeId> =
        zero.records.iter().filter(|r| r.correct).map(|r| r.node).collect();
    let oracle_plan =
        PrunePlan::from_set(oracle_saturated.into_iter().take(cut).collect::<HashSet<_>>());

    let random_plan = PrunePlan::random(queries, tau, SEED);

    let base = exec.run_all(&khop, &labels, queries, |_| false).unwrap();
    let mut rows = Vec::new();
    let mut rank_json = Vec::new();
    for (name, plan) in [
        ("no pruning", &PrunePlan::default()),
        ("oracle (true saturated)", &oracle_plan),
        ("D(t_i) = g(H ‖ b) [ours]", &full_plan),
        ("entropy channel only", &entropy_plan),
        ("random", &random_plan),
    ] {
        let out = run_with_pruning(&exec, &khop, &labels, queries, plan).unwrap();
        rows.push(vec![
            name.to_string(),
            format!("{:.1}", out.accuracy() * 100.0),
            format!("{:+.1}", (out.accuracy() - base.accuracy()) * 100.0),
            out.prompt_tokens().to_string(),
        ]);
        rank_json.push(json!({
            "ranker": name,
            "accuracy": out.accuracy() * 100.0,
            "delta_pp": (out.accuracy() - base.accuracy()) * 100.0,
            "prompt_tokens": out.prompt_tokens(),
        }));
    }
    print_table(
        &format!("Ablation 2 — pruning-ranking quality (Cora, 1-hop, τ={tau})"),
        &["ranker", "accuracy", "Δ vs no-prune (pp)", "prompt tokens"],
        &rows,
    );
    artifacts.insert("ranking_quality".into(), json!(rank_json));

    // ----- 3. SNS embedding dimension ---------------------------------------
    eprintln!("[ablations] SNS embedding dimension…");
    let mut rows = Vec::new();
    let mut sns_json = Vec::new();
    for dim in [32usize, 128, 256, 1024] {
        let sns = Sns::fit_with_dim(tag, dim);
        let out = exec.run_all(&sns, &labels, queries, |_| false).unwrap();
        rows.push(vec![dim.to_string(), format!("{:.1}", out.accuracy() * 100.0)]);
        sns_json.push(json!({"dim": dim, "accuracy": out.accuracy() * 100.0}));
    }
    print_table("Ablation 3 — SNS hashed-embedding width (Cora)", &["dim", "accuracy"], &rows);
    artifacts.insert("sns_dimension".into(), json!(sns_json));

    // ----- 4. boosting vs pure label propagation ----------------------------
    eprintln!("[ablations] boosting vs label propagation…");
    let labeled: Vec<(mqo_graph::NodeId, mqo_graph::ClassId)> =
        ctx.split.labeled().iter().map(|&v| (v, tag.label(v))).collect();
    let lp_preds = mqo_gnn::label_propagation(
        tag.graph(),
        tag.num_classes(),
        &labeled,
        mqo_gnn::LabelPropConfig::default(),
    );
    let lp_acc = queries.iter().filter(|&&v| lp_preds[v.index()] == tag.label(v)).count()
        as f64
        / queries.len() as f64;
    let zero = exec.run_all(&ZeroShot, &labels, queries, |_| false).unwrap();
    let khop2 = KhopRandom::new(2, tag.num_nodes());
    let base2 = exec.run_all(&khop2, &labels, queries, |_| false).unwrap();
    let mut bl = LabelStore::from_split(tag, &ctx.split);
    let boost2 = Scheduler::new(
        &exec,
        SchedulePolicy::cue_gated(BoostConfig::default(), DegradePolicy::default(), 1),
    )
    .run(&khop2, Labels::Boosting(&mut bl), queries, |_| false)
    .unwrap()
    .outcome;
    let rows = vec![
        vec!["label propagation (no text)".into(), format!("{:.1}", lp_acc * 100.0)],
        vec!["LLM zero-shot (no graph)".into(), format!("{:.1}", zero.accuracy() * 100.0)],
        vec!["LLM 2-hop (text + graph)".into(), format!("{:.1}", base2.accuracy() * 100.0)],
        vec!["LLM 2-hop + boosting".into(), format!("{:.1}", boost2.accuracy() * 100.0)],
    ];
    print_table(
        "Ablation 4 — what the gains are made of (Cora)",
        &["predictor", "accuracy"],
        &rows,
    );
    artifacts.insert(
        "boosting_vs_label_propagation".into(),
        json!({
            "label_propagation": lp_acc * 100.0,
            "llm_zero_shot": zero.accuracy() * 100.0,
            "llm_2hop": base2.accuracy() * 100.0,
            "llm_2hop_boosted": boost2.accuracy() * 100.0,
        }),
    );

    write_json("ablations", &serde_json::Value::Object(artifacts));
}
