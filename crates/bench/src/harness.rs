//! Standard experiment setup shared by every table/figure binary.

use mqo_data::{dataset, DatasetBundle, DatasetId};
use mqo_graph::LabeledSplit;
use mqo_llm::{ModelProfile, SimLlm};

/// The workspace-wide experiment seed (reruns are bit-identical).
pub const SEED: u64 = 20_250_704;

/// Whether the CI fast preset is on.
pub fn fast_mode() -> bool {
    std::env::var("MQO_FAST").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Query-set size: the paper uses 1,000 per dataset.
pub fn num_queries() -> usize {
    if let Ok(v) = std::env::var("MQO_QUERIES") {
        if let Ok(n) = v.parse() {
            return n;
        }
    }
    if fast_mode() {
        200
    } else {
        1000
    }
}

/// Generation scale for a dataset, honoring `MQO_SCALE_<NAME>` overrides
/// and the fast preset.
pub fn scale_for(id: DatasetId) -> f64 {
    let key = format!("MQO_SCALE_{}", id.name().to_uppercase().replace('-', "_"));
    if let Ok(v) = std::env::var(&key) {
        if let Ok(s) = v.parse() {
            return s;
        }
    }
    let base = id.default_scale();
    if fast_mode() {
        match id {
            DatasetId::OgbnArxiv => 0.05,
            DatasetId::OgbnProducts => 0.005,
            _ => base.min(0.5),
        }
    } else {
        base
    }
}

/// A fully-prepared experiment context for one dataset × model pair.
pub struct ExperimentCtx {
    /// The generated dataset.
    pub bundle: DatasetBundle,
    /// `V_L` / `V_Q` split (query count from [`num_queries`]).
    pub split: LabeledSplit,
    /// The simulated model.
    pub llm: SimLlm,
    /// The dataset id.
    pub id: DatasetId,
}

/// Generate dataset, split, and model for an experiment.
pub fn setup(id: DatasetId, profile: ModelProfile) -> ExperimentCtx {
    let bundle = dataset(id, Some(scale_for(id)), SEED);
    let split = mqo_serve::run::split(&bundle, num_queries(), SEED ^ 0x511)
        .expect("standard splits are feasible on generated datasets");
    let llm = SimLlm::new(bundle.lexicon.clone(), bundle.tag.class_names().to_vec(), profile);
    ExperimentCtx { bundle, split, llm, id }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_produces_consistent_context() {
        std::env::set_var("MQO_QUERIES", "50");
        let ctx = setup(DatasetId::Cora, ModelProfile::gpt35());
        assert_eq!(ctx.split.queries().len(), 50);
        assert_eq!(ctx.bundle.tag.num_classes(), 7);
        std::env::remove_var("MQO_QUERIES");
    }
}
