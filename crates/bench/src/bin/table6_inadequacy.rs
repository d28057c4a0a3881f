//! Table VI (Q4): mean text-inadequacy `D(t_i)` of saturated vs
//! non-saturated query nodes (saturation judged by whether vanilla
//! zero-shot classified the node correctly, as in the paper).

use mqo_bench::harness::{setup, SEED};
use mqo_bench::report::{print_table, write_json};
use mqo_core::predictor::ZeroShot;
use mqo_core::{Executor, InadequacyScorer, LabelStore};
use mqo_data::DatasetId;
use mqo_llm::ModelProfile;
use mqo_serve::run::surrogate_config;
use serde_json::json;

/// Paper Table VI: (saturated mean, non-saturated mean) per dataset.
const PAPER: [(f64, f64); 5] =
    [(0.421, 0.478), (0.350, 0.437), (0.265, 0.330), (0.298, 0.339), (0.144, 0.253)];

fn main() {
    let mut rows = Vec::new();
    let mut artifacts = Vec::new();
    for (d, id) in DatasetId::ALL.into_iter().enumerate() {
        eprintln!("[table6] {}…", id.name());
        let ctx = setup(id, ModelProfile::gpt35());
        let tag = &ctx.bundle.tag;
        let labels = LabelStore::from_split(tag, &ctx.split);
        let exec = Executor::new(tag, &ctx.llm, 4, SEED);
        let surrogate = surrogate_config(&ctx.bundle, SEED);
        let scorer = InadequacyScorer::build(&exec, &ctx.split, &surrogate, 10, SEED).unwrap();
        let zero = exec.run_all(&ZeroShot, &labels, ctx.split.queries(), |_| false).unwrap();

        let (mut s_sum, mut s_n, mut n_sum, mut n_n) = (0.0f64, 0usize, 0.0f64, 0usize);
        for r in &zero.records {
            let dti = scorer.score(tag, r.node);
            if r.correct {
                s_sum += dti;
                s_n += 1;
            } else {
                n_sum += dti;
                n_n += 1;
            }
        }
        let (sat, nonsat) = (s_sum / s_n.max(1) as f64, n_sum / n_n.max(1) as f64);
        rows.push(vec![
            id.name().to_string(),
            format!("{sat:.3}"),
            format!("{nonsat:.3}"),
            format!("{:+.3}", nonsat - sat),
            format!("{:.3} / {:.3}", PAPER[d].0, PAPER[d].1),
        ]);
        artifacts.push(json!({
            "dataset": id.name(),
            "saturated_mean_D": sat,
            "non_saturated_mean_D": nonsat,
            "gap": nonsat - sat,
            "paper": {"saturated": PAPER[d].0, "non_saturated": PAPER[d].1},
            "n_saturated": s_n,
            "n_non_saturated": n_n,
        }));
    }
    print_table(
        "Table VI — mean text inadequacy D(t_i): saturated vs non-saturated",
        &["dataset", "saturated", "non-saturated", "gap", "paper (sat / non-sat)"],
        &rows,
    );
    println!("\nExpected shape: saturated mean < non-saturated mean on every dataset,");
    println!("with a modest gap (the paper calls its measure a simple heuristic).");
    write_json("table6_inadequacy", &json!(artifacts));
}
