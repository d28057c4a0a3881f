//! Table IX (Q8): the strategies applied to six instruction-tuned
//! (instructGLM-style) backbones on Cora. Five configurations per
//! backbone: Base / w/ boost / w/ random prune / w/ our prune / w/ both,
//! with 30% of queries pruned in the pruning variants.

use mqo_bench::harness::{setup, surrogate_for, SEED};
use mqo_bench::report::{print_table, write_json};
use mqo_core::boosting::{BoostConfig, DegradePolicy};
use mqo_core::joint::run_joint;
use mqo_core::pruning::{run_with_pruning, PrunePlan};
use mqo_core::tuned::{instructglm_backbones, tuned_profile, TunedPredictor};
use mqo_core::{Executor, InadequacyScorer, LabelStore, Labels, SchedulePolicy, Scheduler};
use mqo_data::DatasetId;
use serde_json::json;

fn main() {
    let tau = 0.3;
    let boost = BoostConfig { gamma1: 3, gamma2: 2 };
    let mut rows = Vec::new();
    let mut artifacts = Vec::new();
    for backbone in instructglm_backbones() {
        eprintln!("[table9] {}…", backbone.name);
        let profile = tuned_profile(&backbone);
        let ctx = setup(DatasetId::Cora, profile.clone());
        let tag = &ctx.bundle.tag;
        let exec = Executor::new(tag, &ctx.llm, 4, SEED);
        let predictor = TunedPredictor::new(backbone, tag.num_nodes());
        let scorer = InadequacyScorer::build(
            &exec,
            &ctx.split,
            &surrogate_for(DatasetId::Cora),
            10,
            SEED,
        )
        .unwrap();
        let queries = ctx.split.queries();

        let labels = LabelStore::from_split(tag, &ctx.split);
        let base = exec.run_all(&predictor, &labels, queries, |_| false).unwrap();

        let mut bl = LabelStore::from_split(tag, &ctx.split);
        let boosted = Scheduler::new(
            &exec,
            SchedulePolicy::CueGated {
                config: boost,
                policy: DegradePolicy::default(),
                threads: 1,
                deterministic: true,
            },
        )
        .run(&predictor, Labels::Boosting(&mut bl), queries, |_| false)
        .unwrap()
        .outcome;

        let random_plan = PrunePlan::random(queries, tau, SEED);
        let random =
            run_with_pruning(&exec, &predictor, &labels, queries, &random_plan).unwrap();

        let our_plan = PrunePlan::by_inadequacy(&scorer, tag, queries, tau);
        let ours = run_with_pruning(&exec, &predictor, &labels, queries, &our_plan).unwrap();

        let mut jl = LabelStore::from_split(tag, &ctx.split);
        let (both, _) =
            run_joint(&exec, &predictor, &mut jl, queries, &scorer, tau, boost).unwrap();

        let accs = [
            base.accuracy(),
            boosted.accuracy(),
            random.accuracy(),
            ours.accuracy(),
            both.accuracy(),
        ];
        rows.push(
            std::iter::once(backbone.name.to_string())
                .chain(accs.iter().map(|a| format!("{:.1}", a * 100.0)))
                .collect(),
        );
        artifacts.push(json!({
            "backbone": backbone.name,
            "tau": tau,
            "accuracy": {
                "base": accs[0] * 100.0,
                "w_boost": accs[1] * 100.0,
                "w_random": accs[2] * 100.0,
                "w_prune": accs[3] * 100.0,
                "w_both": accs[4] * 100.0,
            },
        }));
    }
    print_table(
        "Table IX — strategies on instruction-tuned backbones (Cora, 30% pruned)",
        &["backbone", "Base", "w/ boost", "w/ random", "w/ prune", "w/ both"],
        &rows,
    );
    println!("\nExpected shape (paper): w/ prune ≫ w/ random (trade-off advantage);");
    println!("w/ boost > Base; w/ both > w/ prune.");
    write_json("table9_instruct", &json!(artifacts));
}
