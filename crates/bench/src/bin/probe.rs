//! Developer diagnostic: what does the `D(t_i)` ranking actually capture?
//! Prints the surrogate's out-of-fold accuracy, the estimated bias vector
//! `w`, the fitted merger coefficients, the saturated fraction per ranking
//! quintile, and the latent composition of the pruned set. Used when
//! recalibrating the simulator or generator knobs (see DESIGN.md §4b).
use mqo_bench::harness::{setup, SEED};
use mqo_core::predictor::ZeroShot;
use mqo_core::{Executor, InadequacyScorer, LabelStore};
use mqo_data::DatasetId;
use mqo_llm::ModelProfile;
use mqo_serve::run::surrogate_config;

fn main() {
    let ctx = setup(DatasetId::Cora, ModelProfile::gpt35());
    let tag = &ctx.bundle.tag;
    let labels = LabelStore::from_split(tag, &ctx.split);
    let exec = Executor::new(tag, &ctx.llm, 4, SEED);
    let surrogate = surrogate_config(&ctx.bundle, SEED);
    let scorer = InadequacyScorer::build(&exec, &ctx.split, &surrogate, 10, SEED).unwrap();
    println!("surrogate oof acc: {:.3}", scorer.surrogate().oof_accuracy);
    println!(
        "bias weights w: {:?}",
        scorer.bias_weights().iter().map(|x| (x * 100.0).round() / 100.0).collect::<Vec<_>>()
    );
    println!("merger coeffs (H, b, bias): {:?}", scorer.merger_coefficients());

    let zero = exec.run_all(&ZeroShot, &labels, ctx.split.queries(), |_| false).unwrap();
    let ranked = scorer.rank_ascending(tag, ctx.split.queries());
    let correct: std::collections::HashSet<_> =
        zero.records.iter().filter(|r| r.correct).map(|r| r.node).collect();
    // In each ranking decile, what fraction is zero-shot-correct (saturated)?
    let n = ranked.len();
    for d in 0..5 {
        let lo = d * n / 5;
        let hi = (d + 1) * n / 5;
        let frac = ranked[lo..hi].iter().filter(|v| correct.contains(v)).count() as f64
            / (hi - lo) as f64;
        println!("quintile {d}: saturated frac {:.3}", frac);
    }
    // alpha composition of pruned top-40%
    let cut = (n as f64 * 0.4) as usize;
    let (mut adv, mut weak, mut strong) = (0, 0, 0);
    for v in &ranked[..cut] {
        if ctx.bundle.adversarial[v.index()] {
            adv += 1;
        } else if ctx.bundle.alphas[v.index()] < 0.15 {
            weak += 1;
        } else {
            strong += 1;
        }
    }
    println!("top-40% pruned: adversarial {adv}, weak {weak}, strong {strong}");
}
