//! Model behaviour profiles for the simulated LLM.
//!
//! A profile captures everything that differs between "GPT-3.5-0125" and
//! "GPT-4o-mini" in the paper's experiments: how much of each class's
//! discriminative vocabulary the model recognizes, how noisy its decisions
//! are, how strongly it weighs target text vs. neighbor text vs. neighbor
//! labels, and its per-class prior bias (the `w` the token-pruning
//! strategy estimates on `V_L^c`).
//!
//! Footnote 1 of the paper: "the specific nodes identified as saturated may
//! differ as the performance of different LLMs may vary" — profiles make
//! that concrete: knowledge masks and biases are seeded per model, so the
//! two models disagree on which borderline nodes they get right.

use mqo_obs::splitmix64;

/// Behavioural parameters of one simulated model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelProfile {
    /// Display name.
    pub name: String,
    /// Base fraction of each class's discriminative words the model
    /// recognizes (modulated per class by the seed).
    pub knowledge: f64,
    /// Gumbel decision-noise scale: higher = noisier answers.
    pub temperature: f64,
    /// Weight on log-count of recognized class words in the *target* text.
    pub target_weight: f64,
    /// Weight on log-count of recognized class words in *neighbor titles*.
    pub neighbor_text_weight: f64,
    /// Additive weight per neighbor `Category:` cue (the homophily prior).
    pub neighbor_label_weight: f64,
    /// Scale of the per-class prior bias (category bias of §V-A1).
    pub bias_strength: f64,
    /// Probability of a chatty / drifting response format.
    pub chatty: f64,
    /// Fraction by which long neighbor context *dilutes* attention to the
    /// target text (the "lost in the middle" effect): with neighbor text
    /// present, the target-evidence weight is multiplied by
    /// `1 - context_dilution`. This is what makes neighbor text a net
    /// negative on datasets where most nodes are already saturated
    /// (the Pubmed / Ogbn-Arxiv endpoint inversion of Fig. 7).
    pub context_dilution: f64,
    /// Seed for knowledge masks, biases, and decision noise.
    pub seed: u64,
}

impl ModelProfile {
    /// The paper's default model: GPT-3.5-turbo-0125.
    pub fn gpt35() -> Self {
        ModelProfile {
            name: "gpt-3.5-turbo-0125".into(),
            knowledge: 0.65,
            temperature: 1.0,
            target_weight: 2.2,
            neighbor_text_weight: 0.55,
            neighbor_label_weight: 1.3,
            bias_strength: 0.8,
            chatty: 0.2,
            context_dilution: 0.12,
            seed: 0x6e35,
        }
    }

    /// The paper's second black-box model: GPT-4o-mini. On these datasets
    /// the paper measures it *below* GPT-3.5 (Tables VII/VIII), so its
    /// profile recognizes less vocabulary and decides more noisily.
    pub fn gpt4o_mini() -> Self {
        ModelProfile {
            name: "gpt-4o-mini".into(),
            knowledge: 0.55,
            temperature: 1.3,
            target_weight: 2.2,
            neighbor_text_weight: 0.5,
            neighbor_label_weight: 1.2,
            bias_strength: 1.1,
            chatty: 0.3,
            context_dilution: 0.15,
            seed: 0x40ae,
        }
    }

    /// GPT-4 — the intro's premium model ($0.03 / 1k input, 60× GPT-3.5):
    /// broader vocabulary knowledge, steadier decisions, less distractable.
    pub fn gpt4() -> Self {
        ModelProfile {
            name: "gpt-4".into(),
            knowledge: 0.80,
            temperature: 0.8,
            target_weight: 2.3,
            neighbor_text_weight: 0.6,
            neighbor_label_weight: 1.3,
            bias_strength: 0.5,
            chatty: 0.1,
            context_dilution: 0.07,
            seed: 0x6004,
        }
    }

    /// An instruction-tuned backbone (Table IX): tuning on the dataset
    /// sharpens vocabulary knowledge and reduces decision noise relative
    /// to the black-box models.
    pub fn instruction_tuned(name: impl Into<String>, seed: u64) -> Self {
        ModelProfile {
            name: name.into(),
            knowledge: 0.85,
            temperature: 0.8,
            target_weight: 2.4,
            neighbor_text_weight: 0.7,
            neighbor_label_weight: 1.4,
            bias_strength: 0.5,
            chatty: 0.0,
            context_dilution: 0.05,
            seed,
        }
    }
}

/// Uniform `[0, 1)` from a seed/key pair.
#[inline]
pub(crate) fn hash01(seed: u64, key: u64) -> f64 {
    (splitmix64(seed ^ splitmix64(key)) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_differ() {
        let a = ModelProfile::gpt35();
        let b = ModelProfile::gpt4o_mini();
        assert_ne!(a.name, b.name);
        assert!(b.knowledge < a.knowledge);
        assert!(b.temperature > a.temperature);
    }

    #[test]
    fn tuned_profile_is_sharper() {
        let t = ModelProfile::instruction_tuned("instructGLM-1hop", 1);
        assert!(t.knowledge > ModelProfile::gpt35().knowledge);
        assert!(t.temperature < ModelProfile::gpt35().temperature);
    }

    #[test]
    fn hash01_in_range_and_deterministic() {
        for k in 0..1000u64 {
            let v = hash01(42, k);
            assert!((0.0..1.0).contains(&v));
            assert_eq!(v, hash01(42, k));
        }
    }

    #[test]
    fn hash01_spreads_uniformly() {
        let n = 10_000;
        let mean: f64 = (0..n).map(|k| hash01(7, k)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
