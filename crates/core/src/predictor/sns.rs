//! SNS: similarity-based neighbor selection (Table I, [27]).
//!
//! "Progressively explores from closer to farther hops to find enough
//! labeled neighbors or until reaching five hops. It then uses SimCSE to
//! measure and rank the similarity between the query node's text and the
//! identified labeled neighbors. The top-ranking neighbors are selected in
//! order, up to a limit of M."
//!
//! SimCSE is replaced by cosine similarity over hashed bag-of-words
//! embeddings (see `mqo-encoder`) — both are dense sentence encoders whose
//! inner product tracks topical similarity, which is the only property SNS
//! consumes.

use super::{Predictor, SelectCtx};
use mqo_encoder::{HashedEncoder, TextEncoder};
use mqo_graph::traversal::{collect_labeled_progressive, KhopBuffer};
use mqo_graph::{NodeId, Tag};
use parking_lot::Mutex;
use rand::rngs::StdRng;

/// SNS over precomputed node embeddings.
pub struct Sns {
    /// Per-node embedding, indexed by node id.
    embeddings: Vec<Vec<f32>>,
    /// Hop limit of the progressive exploration (paper: 5).
    max_hop: u8,
    buf: Mutex<KhopBuffer>,
}

impl Sns {
    /// Default embedding dimensionality (hashed BoW).
    pub const DEFAULT_DIM: usize = 256;

    /// Build SNS for a graph, encoding every node's full text.
    pub fn fit(tag: &Tag) -> Self {
        Self::fit_with_dim(tag, Self::DEFAULT_DIM)
    }

    /// Build with an explicit embedding dimension.
    pub fn fit_with_dim(tag: &Tag, dim: usize) -> Self {
        let encoder = HashedEncoder::new(dim);
        let embeddings = tag.node_ids().map(|v| encoder.encode(&tag.text(v).full())).collect();
        Sns { embeddings, max_hop: 5, buf: Mutex::new(KhopBuffer::new(tag.num_nodes())) }
    }

    /// Cosine similarity between two stored embeddings.
    fn sim(&self, a: NodeId, b: NodeId) -> f32 {
        mqo_encoder::cosine(&self.embeddings[a.index()], &self.embeddings[b.index()])
    }
}

impl Predictor for Sns {
    fn name(&self) -> &str {
        "SNS"
    }

    fn ranked(&self) -> bool {
        true
    }

    fn select_neighbors(
        &self,
        ctx: &SelectCtx<'_>,
        v: NodeId,
        _rng: &mut StdRng,
    ) -> Vec<NodeId> {
        let mut buf = self.buf.lock();
        let candidates = collect_labeled_progressive(
            ctx.tag.graph(),
            v,
            ctx.max_neighbors,
            self.max_hop,
            |n| ctx.labels.is_labeled(n),
            &mut buf,
        );
        drop(buf);
        let mut scored: Vec<(NodeId, f32)> =
            candidates.iter().map(|h| (h.node, self.sim(v, h.node))).collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
        });
        scored.truncate(ctx.max_neighbors);
        scored.into_iter().map(|(n, _)| n).collect()
    }

    /// The progressive exploration stops at `max_hop`.
    fn label_radius(&self) -> Option<u8> {
        Some(self.max_hop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::LabelStore;
    use mqo_graph::{ClassId, GraphBuilder, NodeText, Tag};
    use rand::SeedableRng;

    /// Star: center 0 linked to 1..=4. Node 1 and 2 share vocabulary with
    /// the center; 3 and 4 are off-topic.
    fn star() -> Tag {
        let mut b = GraphBuilder::new(5);
        for v in 1..5 {
            b.add_edge(0, v).unwrap();
        }
        let texts = vec![
            NodeText::new("database systems transactions", "query planner index"),
            NodeText::new("database transactions logging", "query index recovery"),
            NodeText::new("database query planner", "index systems"),
            NodeText::new("reinforcement policy gradient", "agent reward"),
            NodeText::new("protein folding dynamics", "molecular simulation"),
        ];
        let labels = vec![ClassId(0); 5];
        Tag::new("star", b.build(), texts, labels, vec!["x".into()]).unwrap()
    }

    #[test]
    fn ranks_textually_similar_labeled_neighbors_first() {
        let tag = star();
        let mut labels = LabelStore::empty(5);
        for v in 1..5 {
            labels.add_pseudo(NodeId(v), ClassId(0));
        }
        let sns = Sns::fit(&tag);
        let ctx = SelectCtx { tag: &tag, labels: &labels, max_neighbors: 2 };
        let mut rng = StdRng::seed_from_u64(0);
        let picked = sns.select_neighbors(&ctx, NodeId(0), &mut rng);
        assert_eq!(picked.len(), 2);
        assert!(
            picked.contains(&NodeId(1)) && picked.contains(&NodeId(2)),
            "similarity ranking failed: {picked:?}"
        );
    }

    #[test]
    fn only_labeled_candidates_are_considered() {
        let tag = star();
        let mut labels = LabelStore::empty(5);
        labels.add_pseudo(NodeId(4), ClassId(0)); // only the off-topic one
        let sns = Sns::fit(&tag);
        let ctx = SelectCtx { tag: &tag, labels: &labels, max_neighbors: 3 };
        let mut rng = StdRng::seed_from_u64(0);
        let picked = sns.select_neighbors(&ctx, NodeId(0), &mut rng);
        assert_eq!(picked, vec![NodeId(4)]);
    }

    #[test]
    fn unlabeled_graph_yields_empty_selection() {
        let tag = star();
        let labels = LabelStore::empty(5);
        let sns = Sns::fit(&tag);
        let ctx = SelectCtx { tag: &tag, labels: &labels, max_neighbors: 3 };
        let mut rng = StdRng::seed_from_u64(0);
        assert!(sns.select_neighbors(&ctx, NodeId(0), &mut rng).is_empty());
    }

    #[test]
    fn is_marked_ranked() {
        assert!(Sns::fit(&star()).ranked());
    }

    #[test]
    fn deterministic_selection() {
        let tag = star();
        let mut labels = LabelStore::empty(5);
        for v in 1..5 {
            labels.add_pseudo(NodeId(v), ClassId(0));
        }
        let sns = Sns::fit(&tag);
        let ctx = SelectCtx { tag: &tag, labels: &labels, max_neighbors: 4 };
        let a = sns.select_neighbors(&ctx, NodeId(0), &mut StdRng::seed_from_u64(1));
        let b = sns.select_neighbors(&ctx, NodeId(0), &mut StdRng::seed_from_u64(99));
        assert_eq!(a, b, "SNS must not depend on the rng");
    }
}
