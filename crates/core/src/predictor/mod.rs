//! Benchmark "LLMs as predictors" methods (Table I).
//!
//! A [`Predictor`] is *only* a neighbor-selection rule; prompt rendering,
//! LLM calls, and answer parsing are shared by the [`crate::executor`].
//! That factoring is what makes the paper's strategies plug-and-play: token
//! pruning empties the selection, query boosting changes the label
//! knowledge the selection sees — neither touches the method itself.

mod khop;
mod llm_ranked;
mod sns;
mod zero_shot;

pub use khop::KhopRandom;
pub use llm_ranked::LlmRanked;
pub use sns::Sns;
pub use zero_shot::ZeroShot;

use crate::labels::LabelStore;
use mqo_graph::{ClassId, NodeId, Tag};
use rand::rngs::StdRng;

/// Read-only context handed to neighbor selection.
pub struct SelectCtx<'a> {
    /// The graph being queried.
    pub tag: &'a Tag,
    /// Current label knowledge (`V_L` plus accumulated pseudo-labels).
    pub labels: &'a LabelStore,
    /// Maximum neighbors per prompt (the paper's `M`).
    pub max_neighbors: usize,
}

/// A neighbor-selection method.
pub trait Predictor: Send + Sync {
    /// Method display name, e.g. `"1-hop random"`.
    fn name(&self) -> &str;

    /// Whether the method ranks neighbors by relevance (SNS adds the
    /// "most related to least related" clause to the prompt).
    fn ranked(&self) -> bool {
        false
    }

    /// Select up to `ctx.max_neighbors` neighbors for query node `v` given
    /// the current label knowledge.
    fn select_neighbors(&self, ctx: &SelectCtx<'_>, v: NodeId, rng: &mut StdRng)
        -> Vec<NodeId>;

    /// The label support of `v`'s selection, `(|N_i^L|, LC_i)`: how many
    /// of `select_neighbors(ctx, v, rng)` carry a label, and how many
    /// distinct classes those labels span. The readiness pass of query
    /// boosting counts it for every pending query it re-checks. `kinds`
    /// is scratch for the distinct classes.
    ///
    /// The default selects, then counts. An override must return the
    /// same pair for the same `rng` seed, and may leave `rng` in any
    /// state: the readiness pass draws a fresh rng for every count.
    fn label_support(
        &self,
        ctx: &SelectCtx<'_>,
        v: NodeId,
        rng: &mut StdRng,
        kinds: &mut Vec<ClassId>,
    ) -> (usize, usize) {
        select_then_count(self, ctx, v, rng, kinds)
    }

    /// How far label knowledge reaches this method's selection: a label
    /// added or changed on a node more than `r` hops from `v` changes
    /// neither `select_neighbors(v)` (for the same rng) nor the label
    /// support counted over it. The cue-gated scheduler re-checks a
    /// pending query's readiness only after a label changes within this
    /// radius.
    ///
    /// `None` — the default, and the safe choice for any new or wrapping
    /// predictor — claims nothing: every label change re-checks every
    /// pending query. Override only with a radius the selection provably
    /// respects.
    fn label_radius(&self) -> Option<u8> {
        None
    }

    /// Render one selected neighbor as a prompt entry. The default uses the
    /// neighbor's full title plus its known label; instruction-tuned
    /// variants override this (e.g. graph-token backbones compress the raw
    /// text away, §VI-I).
    fn entry_for(&self, ctx: &SelectCtx<'_>, n: NodeId) -> mqo_llm::NeighborEntry {
        mqo_llm::NeighborEntry {
            title: ctx.tag.text(n).title.clone(),
            label: ctx.labels.get(n).map(|c| ctx.tag.class_name(c).to_string()),
        }
    }
}

/// [`Predictor::label_support`] by its definition: select `v`'s
/// neighbors, then count the labeled ones and their classes.
pub(crate) fn select_then_count<P: Predictor + ?Sized>(
    predictor: &P,
    ctx: &SelectCtx<'_>,
    v: NodeId,
    rng: &mut StdRng,
    kinds: &mut Vec<ClassId>,
) -> (usize, usize) {
    let selected = predictor.select_neighbors(ctx, v, rng);
    count_classes(selected.into_iter().filter_map(|n| ctx.labels.get(n)), kinds)
}

/// `(labels, distinct classes)` over the classes of a selection's labeled
/// nodes. At most `M` labels, so a linear scan of `kinds` beats hashing.
fn count_classes(
    classes: impl Iterator<Item = ClassId>,
    kinds: &mut Vec<ClassId>,
) -> (usize, usize) {
    kinds.clear();
    let mut count = 0usize;
    for c in classes {
        count += 1;
        if !kinds.contains(&c) {
            kinds.push(c);
        }
    }
    (count, kinds.len())
}

#[cfg(test)]
pub(crate) mod test_fixtures {
    //! Shared fixtures for predictor and executor tests.
    use mqo_graph::{ClassId, GraphBuilder, NodeText, Tag};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random TAG: `n` nodes, `edges` random edge draws (self-loops
    /// skipped), `k` classes.
    pub fn random_tag(seed: u64, n: usize, k: usize, edges: usize) -> Tag {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n);
        for _ in 0..edges {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u != v {
                let _ = b.add_edge(u, v);
            }
        }
        let texts = (0..n)
            .map(|i| NodeText::new(format!("paper {i}"), format!("about topic {}", i % k)))
            .collect();
        let labels = (0..n).map(|i| ClassId((i % k) as u16)).collect();
        let class_names = (0..k).map(|c| format!("Topic{c}")).collect();
        Tag::new("random", b.build(), texts, labels, class_names).unwrap()
    }

    /// A 12-node, 2-class graph: two 6-cliques joined by one bridge edge.
    /// Nodes 0-5 class 0, nodes 6-11 class 1.
    pub fn two_cliques() -> Tag {
        let mut b = GraphBuilder::new(12);
        for base in [0u32, 6] {
            for i in base..base + 6 {
                for j in i + 1..base + 6 {
                    b.add_edge(i, j).unwrap();
                }
            }
        }
        b.add_edge(5, 6).unwrap();
        let texts = (0..12)
            .map(|i| NodeText::new(format!("title node{i}"), format!("body of node {i}")))
            .collect();
        let labels = (0..12).map(|i| ClassId::from((i >= 6) as usize)).collect();
        Tag::new("cliques", b.build(), texts, labels, vec!["Alpha".into(), "Beta".into()])
            .unwrap()
    }
}

/// The [`Predictor::label_radius`] contract, one proptest per predictor
/// that claims a radius: labels added or overwritten only beyond the
/// radius of `v` leave `select_neighbors(v)` and its label support
/// unchanged under the same rng.
#[cfg(test)]
mod radius_contract {
    use super::test_fixtures::random_tag;
    use super::*;
    use crate::tuned::{instructglm_backbones, TunedPredictor};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use std::collections::VecDeque;

    /// Hop distance from `v` to every node (`usize::MAX` if unreachable).
    fn distances(tag: &Tag, v: NodeId) -> Vec<usize> {
        let mut dist = vec![usize::MAX; tag.num_nodes()];
        dist[v.index()] = 0;
        let mut queue = VecDeque::from([v]);
        while let Some(u) = queue.pop_front() {
            for &w in tag.graph().neighbors(u) {
                if dist[w as usize] == usize::MAX {
                    dist[w as usize] = dist[u.index()] + 1;
                    queue.push_back(NodeId(w));
                }
            }
        }
        dist
    }

    /// One case: graph seed, node count, edge draws, query node,
    /// neighbor cap `M`, and the `(node, class)` label changes to try.
    type Case = (u64, usize, usize, usize, usize, Vec<(usize, u16)>);

    fn cases() -> impl Strategy<Value = Case> {
        (
            0u64..10_000,
            2usize..40,
            0usize..50,
            any::<usize>(),
            1usize..6,
            prop::collection::vec((any::<usize>(), 0u16..3), 1..16),
        )
    }

    /// Select and count for the case's query node before and after
    /// applying the label changes that fall beyond the predictor's
    /// radius, and require both to agree.
    fn check(make: impl Fn(&Tag) -> Box<dyn Predictor>, case: Case) {
        let (seed, n, edges, v, m, changes) = case;
        let tag = random_tag(seed, n, 3, edges);
        let predictor = make(&tag);
        let radius = predictor.label_radius().expect("predictor claims a radius") as usize;
        let v = NodeId((v % n) as u32);
        let dist = distances(&tag, v);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1abe1);
        let mut labels = LabelStore::empty(n);
        for u in 0..n {
            if rng.gen_bool(0.4) {
                labels.add_pseudo(NodeId(u as u32), ClassId(rng.gen_range(0..3)));
            }
        }
        let observe = |labels: &LabelStore| {
            let ctx = SelectCtx { tag: &tag, labels, max_neighbors: m };
            let rng = || StdRng::seed_from_u64(seed.rotate_left(7) ^ v.0 as u64);
            let selected = predictor.select_neighbors(&ctx, v, &mut rng());
            let support = predictor.label_support(&ctx, v, &mut rng(), &mut Vec::new());
            (selected, support)
        };
        let before = observe(&labels);
        let mut changed = 0;
        for (u, class) in changes {
            let u = u % n;
            if dist[u] > radius {
                labels.add_pseudo(NodeId(u as u32), ClassId(class));
                changed += 1;
            }
        }
        prop_assert_eq!(before, observe(&labels), "{changed} labels changed beyond {radius}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn khop1_ignores_labels_beyond_one_hop(case in cases()) {
            check(|t| Box::new(KhopRandom::new(1, t.num_nodes())), case);
        }

        #[test]
        fn khop2_ignores_labels_beyond_two_hops(case in cases()) {
            check(|t| Box::new(KhopRandom::new(2, t.num_nodes())), case);
        }

        #[test]
        fn llm_ranked_ignores_labels_beyond_its_hops(case in cases(), k in 1u8..3) {
            check(|t| Box::new(LlmRanked::fit(t, k)), case);
        }

        #[test]
        fn sns_ignores_labels_beyond_its_hop_limit(case in cases()) {
            check(|t| Box::new(Sns::fit(t)), case);
        }

        #[test]
        fn zero_shot_ignores_every_label(case in cases()) {
            check(|_| Box::new(ZeroShot), case);
        }

        #[test]
        fn tuned_ignores_labels_beyond_its_backbone_hops(
            case in cases(),
            pick in any::<usize>(),
        ) {
            let backbones = instructglm_backbones();
            let b = backbones[pick % backbones.len()];
            check(|t| Box::new(TunedPredictor::new(b, t.num_nodes())), case);
        }
    }
}

/// The [`Predictor::label_support`] contract: every predictor's hook
/// returns what selecting and then counting returns for the same rng
/// seed, whatever the neighbor cap and label density.
#[cfg(test)]
mod support_contract {
    use super::test_fixtures::random_tag;
    use super::*;
    use crate::tuned::{instructglm_backbones, TunedPredictor};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn every_predictor(tag: &Tag) -> Vec<Box<dyn Predictor>> {
        let n = tag.num_nodes();
        let mut all: Vec<Box<dyn Predictor>> = vec![
            Box::new(ZeroShot),
            Box::new(KhopRandom::new(1, n)),
            Box::new(KhopRandom::new(2, n)),
            Box::new(KhopRandom::new(3, n)),
            Box::new(LlmRanked::fit(tag, 1)),
            Box::new(LlmRanked::fit(tag, 2)),
            Box::new(Sns::fit(tag)),
        ];
        for b in instructglm_backbones() {
            all.push(Box::new(TunedPredictor::new(b, n)));
        }
        all
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn hook_equals_select_then_count(
            seed in 0u64..10_000,
            n in 2usize..40,
            edges in 0usize..80,
            m in 0usize..12,
            density in 0.0f64..1.0,
        ) {
            let tag = random_tag(seed, n, 3, edges);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5e1ec7);
            let mut labels = LabelStore::empty(n);
            for u in 0..n {
                if rng.gen_bool(density) {
                    labels.add_pseudo(NodeId(u as u32), ClassId(rng.gen_range(0..3)));
                }
            }
            let ctx = SelectCtx { tag: &tag, labels: &labels, max_neighbors: m };
            for p in every_predictor(&tag) {
                for v in tag.node_ids() {
                    let rng = || StdRng::seed_from_u64(seed.rotate_left(11) ^ v.0 as u64);
                    let hook = p.label_support(&ctx, v, &mut rng(), &mut Vec::new());
                    let want = select_then_count(&*p, &ctx, v, &mut rng(), &mut Vec::new());
                    prop_assert_eq!(hook, want, "{} at {:?}", p.name(), v);
                }
            }
        }
    }
}
