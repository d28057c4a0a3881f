//! Fig. 1 context: the paradigm comparison from the paper's introduction.
//! Trains the conventional GNN pipeline (BoW features → GCN / GraphSAGE,
//! semi-supervised) and runs the training-free "LLMs as predictors"
//! methods on the same split, reporting accuracy, training cost, and the
//! per-query marginal cost that motivates MQO.

use mqo_bench::harness::{setup, SEED};
use mqo_bench::report::{print_table, write_json};
use mqo_core::predictor::{KhopRandom, Sns, ZeroShot};
use mqo_core::{Executor, LabelStore};
use mqo_data::DatasetId;
use mqo_encoder::{HashedEncoder, TextEncoder};
use mqo_gnn::{
    label_propagation, matrix::Matrix, GnnConfig, GnnKind, GnnModel, LabelPropConfig,
};
use mqo_llm::{LanguageModel, ModelProfile};
use mqo_serve::run::max_neighbors;
use mqo_token::GPT_35_TURBO_0125;
use serde_json::json;
use std::time::Instant;

fn main() {
    let id = DatasetId::Cora;
    let ctx = setup(id, ModelProfile::gpt35());
    let tag = &ctx.bundle.tag;
    let split = &ctx.split;
    let mut rows = Vec::new();
    let mut artifacts = Vec::new();

    // --- GNN side --------------------------------------------------------
    let dim = 128;
    let enc = HashedEncoder::new(dim);
    let mut x = Matrix::zeros(tag.num_nodes(), dim);
    for v in tag.node_ids() {
        x.row_mut(v.index()).copy_from_slice(&enc.encode(&tag.text(v).full()));
    }
    let labeled: Vec<(usize, usize)> =
        split.labeled().iter().map(|&v| (v.index(), tag.label(v).index())).collect();
    for (name, kind) in [("GCN", GnnKind::Gcn), ("GraphSAGE-mean", GnnKind::SageMean)] {
        let start = Instant::now();
        let mut gnn = GnnModel::new(
            tag.graph(),
            dim,
            tag.num_classes(),
            GnnConfig { kind, epochs: 120, ..Default::default() },
        );
        gnn.fit(&x, &labeled);
        let train_secs = start.elapsed().as_secs_f64();
        let preds = gnn.predict_all(&x);
        let acc = split
            .queries()
            .iter()
            .filter(|&&v| preds[v.index()] == tag.label(v).index())
            .count() as f64
            / split.queries().len() as f64;
        rows.push(vec![
            name.into(),
            "trained".into(),
            format!("{:.1}", acc * 100.0),
            format!("{train_secs:.1}s train"),
            "$0 (self-hosted)".into(),
        ]);
        artifacts.push(
            json!({"predictor": name, "accuracy": acc * 100.0, "train_secs": train_secs}),
        );
    }
    // Label propagation: the no-text control.
    let lp_labeled: Vec<_> = split.labeled().iter().map(|&v| (v, tag.label(v))).collect();
    let lp = label_propagation(
        tag.graph(),
        tag.num_classes(),
        &lp_labeled,
        LabelPropConfig::default(),
    );
    let lp_acc = split.queries().iter().filter(|&&v| lp[v.index()] == tag.label(v)).count()
        as f64
        / split.queries().len() as f64;
    rows.push(vec![
        "Label propagation".into(),
        "none".into(),
        format!("{:.1}", lp_acc * 100.0),
        "—".into(),
        "$0".into(),
    ]);
    artifacts.push(json!({"predictor": "label propagation", "accuracy": lp_acc * 100.0}));

    // --- LLM side ---------------------------------------------------------
    let labels = LabelStore::from_split(tag, split);
    let exec = Executor::new(tag, &ctx.llm, max_neighbors(&ctx.bundle), SEED);
    let zero = exec.run_all(&ZeroShot, &labels, split.queries(), |_| false).unwrap();
    let khop = KhopRandom::new(1, tag.num_nodes());
    let one = exec.run_all(&khop, &labels, split.queries(), |_| false).unwrap();
    let sns = Sns::fit(tag);
    let s = exec.run_all(&sns, &labels, split.queries(), |_| false).unwrap();
    for (name, out) in [("LLM zero-shot", &zero), ("LLM 1-hop random", &one), ("LLM SNS", &s)] {
        let per_query = out.prompt_tokens() as f64 / out.records.len() as f64;
        rows.push(vec![
            name.into(),
            "none".into(),
            format!("{:.1}", out.accuracy() * 100.0),
            format!("{per_query:.0} tok/query"),
            format!("${:.5}/query", GPT_35_TURBO_0125.input_cost(per_query as u64)),
        ]);
        artifacts.push(json!({
            "predictor": name,
            "accuracy": out.accuracy() * 100.0,
            "tokens_per_query": per_query,
        }));
    }
    let _ = ctx.llm.meter();

    print_table(
        &format!("Fig. 1 context — GNN vs LLM-as-predictor paradigms ({})", id.name()),
        &["predictor", "training", "accuracy", "marginal cost", "$ cost"],
        &rows,
    );
    println!("\nThe GNN needs the whole graph, features, and a training run; adding one");
    println!("node means re-encoding (and often re-training). The LLM paradigm answers");
    println!("any node with one prompt — which is why its per-query token cost, and");
    println!("hence MQO, is the deployment bottleneck the paper attacks.");
    write_json("fig1_paradigm", &json!(artifacts));
}
