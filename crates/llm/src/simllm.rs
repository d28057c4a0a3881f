//! The simulated black-box LLM.
//!
//! `SimLlm` implements [`LanguageModel`] by actually *reading the prompt*:
//!
//! 1. split the prompt into target text, neighbor blocks, and task section
//!    using the Table III markers from [`crate::prompt`];
//! 2. decode every word against the dataset's [`Lexicon`]; a class word is
//!    *recognized* only if it falls inside the model's per-class knowledge
//!    mask (seeded, deterministic — this is the model's imperfect
//!    pre-training knowledge);
//! 3. score each class as the weighted sum of target-text evidence
//!    (`target_weight·ln(1 + n_target)`), neighbor-title evidence
//!    (`neighbor_text_weight·ln(1 + n_neigh)`), the sublinear label cue,
//!    and the per-class prior bias (the `w` that token pruning later
//!    estimates) — then add Gumbel noise scaled by the profile's
//!    temperature (Gumbel-argmax ≡ softmax sampling);
//! 4. render the winning class name in one of several answer formats,
//!    including the chatty drift real models exhibit.
//!
//! Responses are deterministic per (prompt, profile) — like a temperature-0
//! API call — but differ across prompts, models, and datasets. Crucially,
//! nothing here looks at ground-truth labels: correctness emerges from how
//! much class signal the prompt actually carries, which is exactly the
//! property the paper's saturation analysis (Definition 2) is about.

use crate::error::Result;
use crate::model::{Completion, LanguageModel};
use crate::profile::{hash01, splitmix64, ModelProfile};
use crate::prompt::{CATEGORY_PREFIX, NEIGHBOR_HEADER, TASK_HEADER, TITLE_PREFIX};
use mqo_text::{Lexicon, WordKind};
use mqo_token::{Tokenizer, Usage, UsageMeter};
use std::sync::Arc;

/// Stack buffer for lowercasing a prompt word in [`SimLlm::scan`]: the
/// lexicon's words are a few syllables, far shorter than this.
const WORD_BUF: usize = 16;

/// Parsed view of a node-classification prompt.
#[derive(Debug, Default)]
struct ParsedPrompt<'a> {
    target: &'a str,
    neighbor_titles: Vec<&'a str>,
    neighbor_labels: Vec<&'a str>,
}

/// The simulated LLM for node-classification prompts.
pub struct SimLlm {
    lexicon: Arc<Lexicon>,
    class_names: Vec<String>,
    profile: ModelProfile,
    /// Per-class knowledge fractions κ_c.
    kappa: Vec<f64>,
    /// Per-class prior offsets (≤ 0), the category bias.
    prior: Vec<f64>,
    meter: UsageMeter,
}

impl SimLlm {
    /// Build a simulated model for one dataset's lexicon and label space.
    pub fn new(lexicon: Arc<Lexicon>, class_names: Vec<String>, profile: ModelProfile) -> Self {
        assert_eq!(
            class_names.len(),
            lexicon.num_classes() as usize,
            "class names must match the lexicon's class count"
        );
        let k = class_names.len();
        // κ_c = knowledge · (0.7 + 0.6·u_c), capped: some classes the
        // model knows better than others.
        let kappa: Vec<f64> = (0..k)
            .map(|c| {
                (profile.knowledge * (0.7 + 0.6 * hash01(profile.seed, c as u64))).min(0.95)
            })
            .collect();
        let prior: Vec<f64> = (0..k)
            .map(|c| -profile.bias_strength * hash01(profile.seed ^ 0xb1a5, c as u64))
            .collect();
        SimLlm { lexicon, class_names, profile, kappa, prior, meter: UsageMeter::new() }
    }

    /// The model's behaviour profile.
    pub fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    /// Whether the model recognizes discriminative word `word_id`
    /// (deterministic knowledge mask).
    fn knows(&self, word_id: u32, class: u16) -> bool {
        hash01(self.profile.seed ^ 0x5eed, word_id as u64) < self.kappa[class as usize]
    }

    /// Count recognized class words in `text`, accumulating into `counts`.
    /// Each word is lowercased into a stack buffer and decoded once; a
    /// word longer than the buffer takes the allocating path, since
    /// `decode` accepts zero-padded syllables and so any length can decode.
    fn scan(&self, text: &str, counts: &mut [f64], weight: f64) {
        let mut buf = [0u8; WORD_BUF];
        for w in Tokenizer.words(text) {
            let id = if w.len() <= WORD_BUF {
                let lower = &mut buf[..w.len()];
                lower.copy_from_slice(w.as_bytes());
                lower.make_ascii_lowercase();
                // ASCII lowercasing keeps UTF-8 valid.
                std::str::from_utf8(lower).ok().and_then(|l| self.lexicon.decode(l))
            } else {
                self.lexicon.decode(&w.to_ascii_lowercase())
            };
            let Some(id) = id else { continue };
            if let Some(WordKind::Class(c)) = self.lexicon.kind_of(id) {
                if self.knows(id, c) {
                    counts[c as usize] += weight;
                }
            }
        }
    }

    fn parse<'a>(&self, prompt: &'a str) -> ParsedPrompt<'a> {
        let mut out = ParsedPrompt::default();
        let (head, rest) = match prompt.split_once(NEIGHBOR_HEADER) {
            Some((h, r)) => (h, Some(r)),
            None => (prompt, None),
        };
        // Target text: everything before the task section in the head.
        out.target = head.split(TASK_HEADER).next().unwrap_or(head);
        if let Some(rest) = rest {
            let neighbor_section = rest.split(TASK_HEADER).next().unwrap_or(rest);
            for block in neighbor_section.split("Neighbor Paper").skip(1) {
                for line in block.lines() {
                    let line = line.trim();
                    if let Some(title) = line.strip_prefix(TITLE_PREFIX) {
                        out.neighbor_titles.push(title.trim());
                    } else if let Some(label) = line.strip_prefix(CATEGORY_PREFIX) {
                        out.neighbor_labels.push(label.trim());
                    }
                }
            }
        }
        out
    }

    /// Resolve a label string to a class index (case-insensitive).
    fn class_index(&self, name: &str) -> Option<usize> {
        let needle = name.trim();
        self.class_names.iter().position(|c| c.eq_ignore_ascii_case(needle))
    }

    /// Decide the answer class for `prompt`, whose `fnv64` is
    /// `prompt_hash`.
    fn decide(&self, prompt: &str, prompt_hash: u64) -> usize {
        let parsed = self.parse(prompt);
        let k = self.class_names.len();
        let mut n_target = vec![0.0f64; k];
        let mut n_neigh = vec![0.0f64; k];
        let mut n_labels = vec![0.0f64; k];
        self.scan(parsed.target, &mut n_target, 1.0);
        for t in &parsed.neighbor_titles {
            self.scan(t, &mut n_neigh, 1.0);
        }
        for l in &parsed.neighbor_labels {
            if let Some(c) = self.class_index(l) {
                n_labels[c] += 1.0;
            }
        }
        let noise_seed = self.profile.seed ^ prompt_hash;
        // Decision noise is calibrated as a *pairwise-margin* noise: the
        // expected max of K independent Gumbels grows like ln K, but a real
        // model's logit noise does not scale with the size of the label
        // space, so normalize the temperature for large K.
        let temp = self.profile.temperature / (1.0 + (k as f64 / 8.0).ln().max(0.0));
        // Long neighbor context dilutes attention to the target text.
        let has_neighbors = !parsed.neighbor_titles.is_empty();
        let tw = self.profile.target_weight
            * if has_neighbors { 1.0 - self.profile.context_dilution } else { 1.0 };
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for c in 0..k {
            let u = hash01(noise_seed, c as u64).clamp(1e-12, 1.0 - 1e-12);
            let gumbel = -(-(u.ln())).ln();
            // Label cues aggregate sublinearly (normalized so one label
            // contributes exactly `neighbor_label_weight`): real models
            // treat a stack of identical hints with diminishing trust, and
            // without this, label-dense graphs (e.g. 54%-labeled
            // Ogbn-Arxiv) would be solved by cues alone.
            let label_cue = (1.0 + n_labels[c]).ln() / std::f64::consts::LN_2;
            let score = tw * (1.0 + n_target[c]).ln()
                + self.profile.neighbor_text_weight * (1.0 + n_neigh[c]).ln()
                + self.profile.neighbor_label_weight * label_cue
                + self.prior[c]
                + temp * gumbel;
            if score > best_score {
                best_score = score;
                best = c;
            }
        }
        best
    }

    fn render_answer(&self, class: usize, prompt_hash: u64) -> String {
        let name = &self.class_names[class];
        let style = hash01(self.profile.seed ^ 0xc4a7, prompt_hash);
        if style < 1.0 - self.profile.chatty {
            format!("Category: ['{name}'].")
        } else if style < 1.0 - self.profile.chatty / 2.0 {
            format!(
                "Based on the title and abstract, the target paper belongs to \
                 Category: [\"{name}\"]."
            )
        } else {
            format!("The most likely category for the target paper is {name}.")
        }
    }
}

impl LanguageModel for SimLlm {
    fn name(&self) -> &str {
        &self.profile.name
    }

    fn complete(&self, prompt: &str) -> Result<Completion> {
        let prompt_hash = fnv64(prompt.as_bytes());
        let class = self.decide(prompt, prompt_hash);
        let text = self.render_answer(class, prompt_hash);
        let usage = Usage {
            prompt_tokens: Tokenizer.count(prompt) as u64,
            completion_tokens: Tokenizer.count(&text) as u64,
        };
        self.meter.record(usage);
        Ok(Completion::billed(text, usage))
    }

    fn meter(&self) -> &UsageMeter {
        &self.meter
    }
}

/// FNV-1a over bytes, used to derive per-prompt decision noise.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    splitmix64(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_category;
    use crate::prompt::{NeighborEntry, NodePromptSpec};
    use mqo_graph::ClassId;
    use mqo_text::{DocumentSpec, TextSampler};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Arc<Lexicon>, Vec<String>, SimLlm) {
        let lex = Arc::new(Lexicon::new(11, 4, 150, 1200));
        let names: Vec<String> =
            ["Theory", "Database", "Agents", "Networks"].map(String::from).to_vec();
        let llm = SimLlm::new(lex.clone(), names.clone(), ModelProfile::gpt35());
        (lex, names, llm)
    }

    fn prompt_for(
        lex: &Lexicon,
        names: &[String],
        class: u16,
        informativeness: f64,
        neighbors: &[NeighborEntry],
        seed: u64,
    ) -> String {
        let sampler = TextSampler::new(lex, DocumentSpec::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let title = sampler.sample_title(ClassId(class), informativeness, &mut rng);
        let body = sampler.sample_body(ClassId(class), informativeness, &mut rng);
        NodePromptSpec {
            title: &title,
            abstract_text: &body,
            neighbors,
            categories: names,
            ranked: false,
        }
        .render()
    }

    #[test]
    fn informative_text_is_classified_correctly() {
        let (lex, names, llm) = setup();
        let mut correct = 0;
        for seed in 0..40 {
            let class = (seed % 4) as u16;
            let p = prompt_for(&lex, &names, class, 0.7, &[], seed);
            let resp = llm.complete(&p).unwrap();
            if parse_category(&resp.text, &names) == Some(class as usize) {
                correct += 1;
            }
        }
        assert!(correct >= 36, "only {correct}/40 informative prompts classified correctly");
    }

    #[test]
    fn uninformative_text_is_near_chance() {
        let (lex, names, llm) = setup();
        let mut correct = 0;
        for seed in 0..60 {
            let class = (seed % 4) as u16;
            let p = prompt_for(&lex, &names, class, 0.0, &[], seed + 1000);
            let resp = llm.complete(&p).unwrap();
            if parse_category(&resp.text, &names) == Some(class as usize) {
                correct += 1;
            }
        }
        // Chance is 15/60; allow generous slack but far below the
        // informative case.
        assert!(correct <= 30, "{correct}/60 uninformative prompts correct — too easy");
    }

    #[test]
    fn neighbor_labels_rescue_uninformative_nodes() {
        let (lex, names, llm) = setup();
        let mut plain = 0;
        let mut cued = 0;
        for seed in 0..60 {
            let class = (seed % 4) as u16;
            let neighbors: Vec<NeighborEntry> = (0..3)
                .map(|_| NeighborEntry {
                    title: "xx yy".into(),
                    label: Some(names[class as usize].clone()),
                })
                .collect();
            let p0 = prompt_for(&lex, &names, class, 0.02, &[], seed + 2000);
            let p1 = prompt_for(&lex, &names, class, 0.02, &neighbors, seed + 2000);
            let r0 = llm.complete(&p0).unwrap();
            let r1 = llm.complete(&p1).unwrap();
            if parse_category(&r0.text, &names) == Some(class as usize) {
                plain += 1;
            }
            if parse_category(&r1.text, &names) == Some(class as usize) {
                cued += 1;
            }
        }
        assert!(cued >= plain + 15, "labels did not help enough: plain {plain}, cued {cued}");
    }

    #[test]
    fn informative_neighbor_titles_help() {
        let (lex, names, llm) = setup();
        let sampler = TextSampler::new(&lex, DocumentSpec::default());
        let mut plain = 0;
        let mut cued = 0;
        for seed in 0..60 {
            let class = (seed % 4) as u16;
            let mut rng = StdRng::seed_from_u64(seed + 31);
            let neighbors: Vec<NeighborEntry> = (0..4)
                .map(|_| NeighborEntry {
                    title: sampler.sample_title(ClassId(class), 0.8, &mut rng),
                    label: None,
                })
                .collect();
            let p0 = prompt_for(&lex, &names, class, 0.04, &[], seed + 3000);
            let p1 = prompt_for(&lex, &names, class, 0.04, &neighbors, seed + 3000);
            if parse_category(&llm.complete(&p0).unwrap().text, &names) == Some(class as usize)
            {
                plain += 1;
            }
            if parse_category(&llm.complete(&p1).unwrap().text, &names) == Some(class as usize)
            {
                cued += 1;
            }
        }
        assert!(cued > plain, "neighbor titles did not help: plain {plain}, cued {cued}");
    }

    #[test]
    fn deterministic_per_prompt() {
        let (lex, names, llm) = setup();
        let p = prompt_for(&lex, &names, 1, 0.3, &[], 77);
        assert_eq!(llm.complete(&p).unwrap().text, llm.complete(&p).unwrap().text);
    }

    #[test]
    fn usage_is_metered() {
        let (lex, names, llm) = setup();
        let p = prompt_for(&lex, &names, 0, 0.5, &[], 5);
        let c = llm.complete(&p).unwrap();
        assert!(c.usage.prompt_tokens > 50);
        assert!(c.usage.completion_tokens > 0);
        assert_eq!(llm.meter().totals().prompt_tokens, c.usage.prompt_tokens);
    }

    #[test]
    fn responses_parse_under_all_styles() {
        let (lex, names, llm) = setup();
        for seed in 0..200 {
            let class = (seed % 4) as u16;
            let p = prompt_for(&lex, &names, class, 0.6, &[], seed + 9000);
            let r = llm.complete(&p).unwrap();
            assert!(
                parse_category(&r.text, &names).is_some(),
                "unparseable response: {}",
                r.text
            );
        }
    }

    /// `SimLlm`'s prompt reader before the single-hash, stack-buffer scan:
    /// the oracle `complete` must agree with on every prompt.
    fn reference_answer(llm: &SimLlm, prompt: &str) -> String {
        let scan = |text: &str, counts: &mut [f64]| {
            for w in Tokenizer.words(text) {
                if let Some(WordKind::Class(c)) =
                    llm.lexicon.kind_of_word(&w.to_ascii_lowercase())
                {
                    if let Some(id) = llm.lexicon.decode(&w.to_ascii_lowercase()) {
                        if llm.knows(id, c) {
                            counts[c as usize] += 1.0;
                        }
                    }
                }
            }
        };
        let class_index = |name: &str| {
            let needle = name.trim().to_ascii_lowercase();
            llm.class_names.iter().position(|c| c.to_ascii_lowercase() == needle)
        };
        let parsed = llm.parse(prompt);
        let k = llm.class_names.len();
        let (mut n_target, mut n_neigh, mut n_labels) =
            (vec![0.0f64; k], vec![0.0f64; k], vec![0.0f64; k]);
        scan(parsed.target, &mut n_target);
        for t in &parsed.neighbor_titles {
            scan(t, &mut n_neigh);
        }
        for l in &parsed.neighbor_labels {
            if let Some(c) = class_index(l) {
                n_labels[c] += 1.0;
            }
        }
        let noise_seed = llm.profile.seed ^ fnv64(prompt.as_bytes());
        let temp = llm.profile.temperature / (1.0 + (k as f64 / 8.0).ln().max(0.0));
        let tw = llm.profile.target_weight
            * if parsed.neighbor_titles.is_empty() {
                1.0
            } else {
                1.0 - llm.profile.context_dilution
            };
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for c in 0..k {
            let u = hash01(noise_seed, c as u64).clamp(1e-12, 1.0 - 1e-12);
            let gumbel = -(-(u.ln())).ln();
            let label_cue = (1.0 + n_labels[c]).ln() / std::f64::consts::LN_2;
            let score = tw * (1.0 + n_target[c]).ln()
                + llm.profile.neighbor_text_weight * (1.0 + n_neigh[c]).ln()
                + llm.profile.neighbor_label_weight * label_cue
                + llm.prior[c]
                + temp * gumbel;
            if score > best_score {
                best_score = score;
                best = c;
            }
        }
        llm.render_answer(best, fnv64(prompt.as_bytes()))
    }

    /// Word `pick` of a generated prompt, in one of the spellings the
    /// reader must treat as before: as generated, upper case, capitalized,
    /// zero-padded past the 16-byte stack buffer (`decode` reads trailing
    /// zero syllables as no-ops), padded past it with a nonzero syllable
    /// at the end (no lexicon word), or with a non-ASCII letter attached.
    /// Class words are over-represented; some ids lie past the lexicon.
    fn spelled(lex: &Lexicon, pick: u32, style: u8) -> String {
        let id = match pick % 4 {
            0 => pick / 4 % lex.total_words(),
            1 => lex.total_words() + pick / 4,
            _ => lex.class_id((pick / 4 % 4) as u16, pick / 16 % lex.class_size()),
        };
        let w = lex.word(id);
        match style {
            0 => w,
            1 => w.to_ascii_uppercase(),
            2 => w[..1].to_ascii_uppercase() + &w[1..],
            3 => w + &lex.word(0)[..2].repeat(8),
            4 => (w + &lex.word(0)[..2].repeat(8)).to_ascii_uppercase(),
            5 => format!("{w}{}{w}", &lex.word(0)[..2].repeat(8)),
            6 => w + "é",
            _ => format!("ß{w}"),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        #[test]
        fn complete_matches_the_reference_reader(
            words in proptest::prop::collection::vec((0u32..1 << 20, 0u8..8), 0..40),
            neighbors in proptest::prop::collection::vec(
                (proptest::prop::collection::vec((0u32..1 << 20, 0u8..8), 0..6), 0usize..6, 0u8..4),
                0..5,
            ),
        ) {
            let (lex, names, llm) = setup();
            let text = |ws: &[(u32, u8)]| {
                ws.iter()
                    .map(|&(pick, style)| spelled(&lex, pick, style))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            let (title, body) = words.split_at(words.len().min(6));
            let neighbors: Vec<NeighborEntry> = neighbors
                .iter()
                .map(|(ws, label, case)| NeighborEntry {
                    title: text(ws),
                    // Labels in any case, padded, or naming no class.
                    label: names.get(*label).map(|n| match case {
                        0 => n.clone(),
                        1 => n.to_ascii_uppercase(),
                        2 => format!(" {} ", n.to_ascii_lowercase()),
                        _ => format!("{n}é"),
                    }),
                })
                .collect();
            let prompt = NodePromptSpec {
                title: &text(title),
                abstract_text: &text(body),
                neighbors: &neighbors,
                categories: &names,
                ranked: false,
            }
            .render();
            let got = llm.complete(&prompt).unwrap();
            proptest::prop_assert_eq!(got.text, reference_answer(&llm, &prompt));
            proptest::prop_assert_eq!(got.usage.prompt_tokens, Tokenizer.count(&prompt) as u64);
        }
    }

    #[test]
    fn models_disagree_on_borderline_nodes() {
        let (lex, names, _) = setup();
        let gpt35 = SimLlm::new(lex.clone(), names.clone(), ModelProfile::gpt35());
        let mini = SimLlm::new(lex.clone(), names.clone(), ModelProfile::gpt4o_mini());
        let mut differ = 0;
        for seed in 0..60 {
            let class = (seed % 4) as u16;
            let p = prompt_for(&lex, &names, class, 0.08, &[], seed + 4000);
            let a = parse_category(&gpt35.complete(&p).unwrap().text, &names);
            let b = parse_category(&mini.complete(&p).unwrap().text, &names);
            if a != b {
                differ += 1;
            }
        }
        assert!(differ > 5, "profiles behave identically on borderline prompts");
    }
}
