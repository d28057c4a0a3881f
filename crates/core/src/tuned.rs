//! Instruction-tuned backbones (§VI-I, Table IX).
//!
//! instructGLM-style methods align graph tokens with language tokens by
//! dataset-specific tuning. We reproduce the *shape* the experiment needs:
//! six backbones that differ in hop range, whether raw neighbor text is
//! kept, and whether path descriptions are added — all behind the same
//! [`Predictor`] interface, so token pruning and query boosting compose
//! with them unchanged ("the type of token — whether graph or language —
//! does not alter the pruning process").
//!
//! The "no raw" variants replace each neighbor's title with a compressed
//! graph-token digest (its leading title words), mirroring how aligned
//! graph tokens carry less surface text than raw titles; "w/ path" widens
//! the neighbor budget slightly, as path descriptions add context.

use crate::predictor::{KhopRandom, Predictor, SelectCtx};
use mqo_graph::{ClassId, NodeId};
use mqo_llm::{ModelProfile, NeighborEntry};
use rand::rngs::StdRng;

/// One instructGLM backbone configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backbone {
    /// Display name, e.g. `"1-hop, w/ raw, no path"`.
    pub name: &'static str,
    /// Hop range of neighbor aggregation.
    pub hops: u8,
    /// Whether raw neighbor text is included.
    pub raw_text: bool,
    /// Whether neighbor path descriptions are used.
    pub path: bool,
}

/// The six backbones evaluated in Table IX.
pub fn instructglm_backbones() -> Vec<Backbone> {
    vec![
        Backbone { name: "1-hop, w/ raw, no path", hops: 1, raw_text: true, path: false },
        Backbone { name: "2-hop, w/ raw, no path", hops: 2, raw_text: true, path: false },
        Backbone { name: "2-hop, w/ raw, w/ path", hops: 2, raw_text: true, path: true },
        Backbone { name: "1-hop, no raw, no path", hops: 1, raw_text: false, path: false },
        Backbone { name: "2-hop, no raw, no path", hops: 2, raw_text: false, path: false },
        Backbone { name: "2-hop, no raw, w/ path", hops: 2, raw_text: false, path: true },
    ]
}

/// The tuned model profile used with a backbone (instruction tuning
/// sharpens knowledge relative to the black-box models).
pub fn tuned_profile(backbone: &Backbone) -> ModelProfile {
    // Distinct seeds so backbones develop individual quirks, as distinct
    // fine-tunes would.
    let seed = 0x717e
        ^ ((backbone.hops as u64) << 8)
        ^ ((backbone.raw_text as u64) << 16)
        ^ ((backbone.path as u64) << 24);
    ModelProfile::instruction_tuned(backbone.name, seed)
}

/// A tuned predictor: k-hop selection with backbone-specific neighbor
/// rendering.
pub struct TunedPredictor {
    backbone: Backbone,
    khop: KhopRandom,
}

impl TunedPredictor {
    /// Build for one backbone over a graph with `num_nodes` nodes.
    pub fn new(backbone: Backbone, num_nodes: usize) -> Self {
        TunedPredictor { backbone, khop: KhopRandom::new(backbone.hops, num_nodes) }
    }

    /// The backbone configuration.
    pub fn backbone(&self) -> &Backbone {
        &self.backbone
    }

    /// `ctx` with the backbone's neighbor cap: path descriptions let the
    /// backbone reference one extra neighbor of context per prompt.
    fn widened<'a>(&self, ctx: &SelectCtx<'a>) -> SelectCtx<'a> {
        SelectCtx {
            tag: ctx.tag,
            labels: ctx.labels,
            max_neighbors: ctx.max_neighbors + usize::from(self.backbone.path),
        }
    }
}

/// Words kept from a neighbor title by the graph-token digest.
const GRAPH_TOKEN_WORDS: usize = 3;

impl Predictor for TunedPredictor {
    fn name(&self) -> &str {
        self.backbone.name
    }

    fn select_neighbors(
        &self,
        ctx: &SelectCtx<'_>,
        v: NodeId,
        rng: &mut StdRng,
    ) -> Vec<NodeId> {
        self.khop.select_neighbors(&self.widened(ctx), v, rng)
    }

    fn label_support(
        &self,
        ctx: &SelectCtx<'_>,
        v: NodeId,
        rng: &mut StdRng,
        kinds: &mut Vec<ClassId>,
    ) -> (usize, usize) {
        self.khop.label_support(&self.widened(ctx), v, rng, kinds)
    }

    fn label_radius(&self) -> Option<u8> {
        self.khop.label_radius()
    }

    fn entry_for(&self, ctx: &SelectCtx<'_>, n: NodeId) -> NeighborEntry {
        let label = ctx.labels.get(n).map(|c| ctx.tag.class_name(c).to_string());
        let title = if self.backbone.raw_text {
            ctx.tag.text(n).title.clone()
        } else {
            // Graph-token digest: a compressed representation of the
            // neighbor, far fewer surface tokens than the raw title.
            ctx.tag
                .text(n)
                .title
                .split_whitespace()
                .take(GRAPH_TOKEN_WORDS)
                .collect::<Vec<_>>()
                .join(" ")
        };
        NeighborEntry { title, label }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::LabelStore;
    use crate::predictor::test_fixtures::two_cliques;
    use mqo_graph::ClassId;
    use rand::SeedableRng;

    #[test]
    fn there_are_six_backbones_matching_table9() {
        let bs = instructglm_backbones();
        assert_eq!(bs.len(), 6);
        let names: Vec<&str> = bs.iter().map(|b| b.name).collect();
        assert!(names.contains(&"1-hop, no raw, no path"));
        assert!(names.contains(&"2-hop, w/ raw, w/ path"));
    }

    #[test]
    fn no_raw_backbone_compresses_titles() {
        let tag = two_cliques();
        let mut labels = LabelStore::empty(tag.num_nodes());
        labels.add_pseudo(NodeId(1), ClassId(0));
        let ctx = SelectCtx { tag: &tag, labels: &labels, max_neighbors: 4 };
        let raw = TunedPredictor::new(instructglm_backbones()[0], tag.num_nodes());
        let noraw = TunedPredictor::new(instructglm_backbones()[3], tag.num_nodes());
        let e_raw = raw.entry_for(&ctx, NodeId(1));
        let e_noraw = noraw.entry_for(&ctx, NodeId(1));
        assert_eq!(e_raw.title, "title node1");
        assert!(e_noraw.title.split_whitespace().count() <= GRAPH_TOKEN_WORDS);
        assert_eq!(e_raw.label.as_deref(), Some("Alpha"));
        assert_eq!(e_noraw.label.as_deref(), Some("Alpha"));
    }

    #[test]
    fn path_backbone_selects_one_extra_neighbor() {
        let tag = two_cliques();
        let labels = LabelStore::empty(tag.num_nodes());
        let ctx = SelectCtx { tag: &tag, labels: &labels, max_neighbors: 3 };
        let nopath = TunedPredictor::new(instructglm_backbones()[1], tag.num_nodes());
        let withpath = TunedPredictor::new(instructglm_backbones()[2], tag.num_nodes());
        let mut rng = StdRng::seed_from_u64(0);
        let a = nopath.select_neighbors(&ctx, NodeId(0), &mut rng);
        let b = withpath.select_neighbors(&ctx, NodeId(0), &mut rng);
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 4);
    }

    #[test]
    fn tuned_profiles_differ_across_backbones() {
        let bs = instructglm_backbones();
        let p0 = tuned_profile(&bs[0]);
        let p3 = tuned_profile(&bs[3]);
        assert_ne!(p0.seed, p3.seed);
        assert!(p0.knowledge > 0.8); // tuned models know the dataset well
    }
}
