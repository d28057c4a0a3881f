//! Streaming classification: queries arrive over time (the dynamic-node
//! scenario from the paper's introduction), and each window of 64
//! arrivals runs through cue-gated scheduling, in waves, on one label
//! store that evolves across windows — weakly-supported arrivals wait
//! inside their window until pseudo-labels accumulate around them, and
//! every window starts from what earlier windows learned.
//!
//! ```text
//! cargo run --release --example online_stream
//! ```

use mqo_core::boosting::{BoostConfig, DegradePolicy};
use mqo_core::predictor::KhopRandom;
use mqo_core::{Executor, LabelStore, Labels, SchedulePolicy, Scheduler};
use mqo_data::{dataset, DatasetId};
use mqo_graph::{LabeledSplit, SplitConfig};
use mqo_llm::{ModelProfile, SimLlm};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Arrivals per window.
const WINDOW: usize = 64;

fn main() {
    let bundle = dataset(DatasetId::Cora, None, 17);
    let tag = &bundle.tag;
    let split = LabeledSplit::generate(
        tag,
        SplitConfig::PerClass { per_class: 20, num_queries: 400 },
        &mut StdRng::seed_from_u64(6),
    )
    .expect("split");
    let llm =
        SimLlm::new(bundle.lexicon.clone(), tag.class_names().to_vec(), ModelProfile::gpt35());
    let exec = Executor::new(tag, &llm, 4, 42);
    let predictor = KhopRandom::new(2, tag.num_nodes());

    // --- Arm 1: classify each arrival immediately. -----------------------
    let labels = LabelStore::from_split(tag, &split);
    let immediate = exec.run_all(&predictor, &labels, split.queries(), |_| false).expect("run");

    // --- Arm 2: online boosting, one window of arrivals at a time. -------
    let scheduler = Scheduler::new(
        &exec,
        SchedulePolicy::cue_gated(
            BoostConfig { gamma1: 3, gamma2: 2 },
            DegradePolicy::default(),
            2,
        ),
    );
    let mut labels = LabelStore::from_split(tag, &split);
    let mut records = Vec::new();
    for window in split.queries().chunks(WINDOW) {
        let report = scheduler
            .run(&predictor, Labels::Boosting(&mut labels), window, |_| false)
            .expect("window");
        records.extend(report.outcome.records);
    }
    let online_acc = records.iter().filter(|r| r.correct).count() as f64 / records.len() as f64;
    let pseudo_uses: usize = records.iter().map(|r| r.pseudo_neighbors).sum();

    println!("stream of {} arrivals on {}:", split.queries().len(), tag.name());
    println!("  immediate execution : accuracy {:.1}%", immediate.accuracy() * 100.0);
    println!(
        "  online boosting     : accuracy {:.1}%  (windows of {WINDOW}, \
         {pseudo_uses} pseudo-label uses)",
        online_acc * 100.0
    );
    println!("\nHolding weakly-supported arrivals until their neighborhoods fill with");
    println!("pseudo-labels boosts without ever seeing the full query set.");
}
