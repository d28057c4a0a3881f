//! The TAG generator: degree-skewed planted-partition graph + calibrated
//! class-conditioned text.

use crate::spec::DatasetSpec;
use mqo_graph::{ClassId, GraphBuilder, NodeText, Tag};
use mqo_obs::splitmix64;
use mqo_text::{Lexicon, TextSampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A generated dataset: the TAG plus the generation artifacts experiments
/// and analyses need (the lexicon for the simulated LLM; the latent
/// informativeness for calibration tests only).
#[derive(Debug, Clone)]
pub struct DatasetBundle {
    /// The text-attributed graph.
    pub tag: Tag,
    /// The generative lexicon (needed to build an `mqo_llm`-style reader).
    pub lexicon: Arc<Lexicon>,
    /// Latent per-node text informativeness; negative values mark
    /// adversarial nodes. **Analysis/tests only** — the pipeline must never
    /// read this.
    pub alphas: Vec<f32>,
    /// Latent adversarial flags, parallel to `alphas`. Analysis/tests only.
    pub adversarial: Vec<bool>,
    /// The spec this bundle was generated from.
    pub spec: DatasetSpec,
    /// The scale factor used.
    pub scale: f64,
}

/// Weighted sampler over nodes grouped by class, using cumulative weights
/// and binary search (O(log n) per draw).
struct ClassSampler {
    /// Per class: (node ids, cumulative weights).
    per_class: Vec<(Vec<u32>, Vec<f64>)>,
    /// Global: all node ids with cumulative weights.
    global_nodes: Vec<u32>,
    global_cum: Vec<f64>,
}

impl ClassSampler {
    fn new(labels: &[ClassId], weights: &[f64], num_classes: usize) -> Self {
        let mut per_class: Vec<(Vec<u32>, Vec<f64>)> =
            (0..num_classes).map(|_| (Vec::new(), Vec::new())).collect();
        let mut global_nodes = Vec::with_capacity(labels.len());
        let mut global_cum = Vec::with_capacity(labels.len());
        let mut gacc = 0.0;
        for (i, (&l, &w)) in labels.iter().zip(weights).enumerate() {
            let (nodes, cum) = &mut per_class[l.index()];
            let acc = cum.last().copied().unwrap_or(0.0) + w;
            nodes.push(i as u32);
            cum.push(acc);
            gacc += w;
            global_nodes.push(i as u32);
            global_cum.push(gacc);
        }
        ClassSampler { per_class, global_nodes, global_cum }
    }

    fn draw(nodes: &[u32], cum: &[f64], rng: &mut StdRng) -> u32 {
        let total = *cum.last().expect("non-empty sampler");
        let u = rng.gen::<f64>() * total;
        let idx = match cum.binary_search_by(|c| c.partial_cmp(&u).expect("finite")) {
            Ok(i) | Err(i) => i.min(nodes.len() - 1),
        };
        nodes[idx]
    }

    fn sample_global(&self, rng: &mut StdRng) -> u32 {
        Self::draw(&self.global_nodes, &self.global_cum, rng)
    }

    fn sample_class(&self, c: usize, rng: &mut StdRng) -> u32 {
        let (nodes, cum) = &self.per_class[c];
        Self::draw(nodes, cum, rng)
    }
}

/// Generate a dataset at the given `scale` (1.0 = paper-size) and `seed`.
#[allow(clippy::needless_range_loop)] // node index drives several parallel arrays
pub fn generate(spec: &DatasetSpec, scale: f64, seed: u64) -> DatasetBundle {
    if let Err(e) = spec.validate() {
        panic!("invalid dataset spec '{}': {e}", spec.name);
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0da7_a5e7);
    let n = spec.scaled_nodes(scale);
    let m = spec.scaled_edges(scale);
    let k = spec.num_classes();

    // --- labels: mildly imbalanced class proportions ------------------
    let class_weights: Vec<f64> = (0..k).map(|_| 0.6 + rng.gen::<f64>()).collect();
    let wsum: f64 = class_weights.iter().sum();
    let labels: Vec<ClassId> = (0..n)
        .map(|_| {
            let u = rng.gen::<f64>() * wsum;
            let mut acc = 0.0;
            for (c, &w) in class_weights.iter().enumerate() {
                acc += w;
                if u < acc {
                    return ClassId::from(c);
                }
            }
            ClassId::from(k - 1)
        })
        .collect();

    // --- degree weights: Pareto tail ----------------------------------
    let weights: Vec<f64> = (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(1e-6..1.0);
            u.powf(-1.0 / spec.degree_tail).min(1e4)
        })
        .collect();
    let sampler = ClassSampler::new(&labels, &weights, k);

    // --- edges: planted partition with homophily ----------------------
    // Phase 1 draws a (1 − closure_frac) share of edges from the
    // homophilous configuration model; phase 2 closes random wedges of
    // the phase-1 graph, giving the triangle structure real citation /
    // co-purchase graphs have. Oversampling compensates for rejected
    // self-loops and duplicates collapsed by the builder.
    let closure = spec.closure_frac.clamp(0.0, 0.9);
    let m_base = ((m as f64) * (1.0 - closure)) as u64;
    let mut builder = GraphBuilder::with_capacity(n, m as usize);
    let attempts = (m_base as f64 * 1.25) as u64;
    for _ in 0..attempts {
        let u = sampler.sample_global(&mut rng);
        let cu = labels[u as usize].index();
        let v = if rng.gen::<f64>() < spec.homophily {
            sampler.sample_class(cu, &mut rng)
        } else if k > 1 {
            // A different class, weighted by class mass.
            loop {
                let cand = sampler.sample_global(&mut rng);
                if labels[cand as usize].index() != cu {
                    break cand;
                }
            }
        } else {
            sampler.sample_global(&mut rng)
        };
        if u != v {
            builder.add_edge(u, v).expect("generator node ids in range");
        }
        if builder.queued_edges() as u64 >= attempts {
            break;
        }
    }
    let base_graph = builder.build();

    // Phase 2: triadic closure over random wedges u–v–w.
    let mut builder = GraphBuilder::with_capacity(n, m as usize);
    for (u, v) in base_graph.edges() {
        builder.add_edge(u.0, v.0).expect("in range");
    }
    let closure_target = m - base_graph.num_edges().min(m);
    let mut added = 0u64;
    let mut tries = 0u64;
    let max_tries = closure_target * 8 + 16;
    while added < closure_target && tries < max_tries {
        tries += 1;
        let v = sampler.sample_global(&mut rng);
        let neigh = base_graph.neighbors(mqo_graph::NodeId(v));
        if neigh.len() < 2 {
            continue;
        }
        let u = neigh[rng.gen_range(0..neigh.len())];
        let w = neigh[rng.gen_range(0..neigh.len())];
        if u != w && !base_graph.has_edge(mqo_graph::NodeId(u), mqo_graph::NodeId(w)) {
            builder.add_edge(u, w).expect("in range");
            added += 1;
        }
    }
    let graph = builder.build();

    // --- informativeness + text ---------------------------------------
    let lexicon = Arc::new(Lexicon::with_markers(
        seed ^ 0x1e81c09,
        k as u16,
        spec.lexicon_per_class,
        spec.lexicon_shared,
        spec.lexicon_markers,
    ));
    let text_sampler = TextSampler::new(&lexicon, spec.doc);
    let mut alphas = Vec::with_capacity(n);
    let mut adversarial = Vec::with_capacity(n);
    let mut texts = Vec::with_capacity(n);
    for i in 0..n {
        // Three-component informativeness mixture: saturated (own-class
        // signal), adversarial (strong *wrong*-class signal — boundary
        // nodes no cue can rescue), weak (little signal at all).
        let u: f64 = rng.gen();
        let (alpha, text_class, adv) = if u < spec.saturated_frac {
            (rng.gen_range(spec.alpha_high.0..spec.alpha_high.1), labels[i], false)
        } else if u < spec.saturated_frac + spec.adversarial_frac && k > 1 {
            // Deterministic confusable class per node.
            let wrong =
                (labels[i].index() + 1 + (splitmix64(i as u64 ^ seed) as usize % (k - 1))) % k;
            (rng.gen_range(spec.alpha_high.0..spec.alpha_high.1), ClassId::from(wrong), true)
        } else {
            (rng.gen_range(spec.alpha_low.0..spec.alpha_low.1), labels[i], false)
        };
        alphas.push(if adv { -(alpha as f32) } else { alpha as f32 });
        adversarial.push(adv);
        texts.push(NodeText::new(
            text_sampler.sample_title(text_class, alpha, &mut rng),
            text_sampler.sample_body(text_class, alpha, &mut rng),
        ));
    }

    // --- link markers ---------------------------------------------------
    // "Citing papers quote each other's terms": marked edges plant two
    // marker words into both endpoint texts. Markers carry no class signal
    // (node classification ignores them) but give link prediction genuine
    // pair-level evidence. Capped per node so hubs don't balloon.
    if spec.lexicon_markers > 0 && spec.link_marker_prob > 0.0 {
        const MARKERS_PER_EDGE: u32 = 2;
        const MAX_MARKED_EDGES_PER_NODE: u32 = 8;
        let mut marked = vec![0u32; n];
        for (u, v) in graph.edges() {
            if u == v
                || marked[u.index()] >= MAX_MARKED_EDGES_PER_NODE
                || marked[v.index()] >= MAX_MARKED_EDGES_PER_NODE
                || rng.gen::<f64>() >= spec.link_marker_prob
            {
                continue;
            }
            marked[u.index()] += 1;
            marked[v.index()] += 1;
            for j in 0..MARKERS_PER_EDGE {
                // Deterministic per (edge, j) so regeneration is stable.
                let h = (u.0 as u64) << 40 | (v.0 as u64) << 8 | j as u64;
                let id = lexicon
                    .marker_id((splitmix64(h ^ seed) % spec.lexicon_markers as u64) as u32);
                let w = lexicon.word(id);
                for node in [u, v] {
                    let body = &mut texts[node.index()].body;
                    body.push(' ');
                    body.push_str(&w);
                }
            }
        }
    }

    let tag = Tag::new(spec.name, graph, texts, labels, spec.class_names.clone())
        .expect("generator produces consistent arrays");
    DatasetBundle { tag, lexicon, alphas, adversarial, spec: spec.clone(), scale }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqo_graph::stats;
    use mqo_graph::SplitConfig;
    use mqo_text::DocumentSpec;

    fn small_spec() -> DatasetSpec {
        DatasetSpec {
            name: "unit",
            nodes: 1500,
            edges: 6000,
            class_names: (0..5).map(|c| format!("Class {c}")).collect(),
            homophily: 0.78,
            saturated_frac: 0.6,
            adversarial_frac: 0.0,
            alpha_high: (0.3, 0.7),
            alpha_low: (0.0, 0.1),
            doc: DocumentSpec { title_words: 8, body_words: 40, ..DocumentSpec::default() },
            degree_tail: 2.5,
            closure_frac: 0.25,
            lexicon_per_class: 120,
            lexicon_shared: 1200,
            lexicon_markers: 600,
            link_marker_prob: 0.6,
            split: SplitConfig::PerClass { per_class: 20, num_queries: 200 },
        }
    }

    #[test]
    fn counts_near_targets() {
        let b = generate(&small_spec(), 1.0, 1);
        assert_eq!(b.tag.num_nodes(), 1500);
        let e = b.tag.num_edges() as f64;
        assert!((5000.0..=7500.0).contains(&e), "edges {e}");
        b.tag.graph().validate().unwrap();
    }

    #[test]
    fn homophily_near_target() {
        let b = generate(&small_spec(), 1.0, 2);
        let h = stats::edge_homophily(b.tag.graph(), b.tag.labels());
        // Homophilous draws can still land on a same-class node via the
        // "other class" branch never triggering; tolerance ±0.08.
        assert!((h - 0.78).abs() < 0.08, "homophily {h}");
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let b = generate(&small_spec(), 1.0, 3);
        let mean = stats::mean_degree(b.tag.graph());
        let max = stats::max_degree(b.tag.graph()) as f64;
        assert!(max > mean * 5.0, "max {max} vs mean {mean} — no skew");
    }

    #[test]
    fn informativeness_mixture_matches_fraction() {
        let b = generate(&small_spec(), 1.0, 4);
        let high = b.alphas.iter().filter(|&&a| a >= 0.3).count() as f64;
        let frac = high / b.alphas.len() as f64;
        assert!((frac - 0.6).abs() < 0.06, "high fraction {frac}");
    }

    #[test]
    fn text_lengths_follow_doc_spec() {
        let b = generate(&small_spec(), 1.0, 5);
        let t = b.tag.text(mqo_graph::NodeId(0));
        assert_eq!(t.title.split_whitespace().count(), 8);
        // Body = spec words plus up to 8 marked edges x 2 marker words.
        let body_words = t.body.split_whitespace().count();
        assert!((40..=40 + 16).contains(&body_words), "body words {body_words}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&small_spec(), 1.0, 9);
        let b = generate(&small_spec(), 1.0, 9);
        assert_eq!(a.tag.num_edges(), b.tag.num_edges());
        assert_eq!(a.tag.text(mqo_graph::NodeId(7)), b.tag.text(mqo_graph::NodeId(7)));
        assert_eq!(a.alphas, b.alphas);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&small_spec(), 1.0, 10);
        let b = generate(&small_spec(), 1.0, 11);
        assert_ne!(a.tag.text(mqo_graph::NodeId(0)), b.tag.text(mqo_graph::NodeId(0)));
    }

    #[test]
    fn scaling_shrinks_graph() {
        let b = generate(&small_spec(), 0.2, 12);
        assert_eq!(b.tag.num_nodes(), 300);
        let mean = stats::mean_degree(b.tag.graph());
        assert!(mean > 2.0, "scaled graph too sparse: mean degree {mean}");
    }

    #[test]
    fn class_conditioned_text_carries_signal() {
        // Words of a node's own class vocabulary should dominate over any
        // single other class's vocabulary for high-alpha nodes.
        let b = generate(&small_spec(), 1.0, 13);
        let lex = &b.lexicon;
        let mut checked = 0;
        for v in b.tag.node_ids() {
            if b.alphas[v.index()] < 0.5 {
                continue;
            }
            let own = b.tag.label(v).0;
            let text = b.tag.text(v).full();
            let mut counts = [0usize; 5];
            for w in text.split_whitespace() {
                if let Some(mqo_text::WordKind::Class(c)) = lex.kind_of_word(w) {
                    counts[c as usize] += 1;
                }
            }
            let best = counts.iter().enumerate().max_by_key(|(_, &c)| c).unwrap().0;
            assert_eq!(best as u16, own, "node {v} text signal mismatched");
            checked += 1;
            if checked > 30 {
                break;
            }
        }
        assert!(checked > 10);
    }
}
