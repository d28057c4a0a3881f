//! LLM-relevance neighbor ranking — the method family of Huang et al.
//! ([26] in the paper): "prioritize neighbors deemed more relevant by
//! LLMs". The relevance judgment is delegated to a caller-provided scorer;
//! the default uses the query↔neighbor embedding similarity over *full*
//! texts (title + abstract), which is the signal an LLM relevance pass
//! extracts — distinguishing it from SNS, which ranks only *labeled*
//! candidates found by progressive hop expansion.

use super::{Predictor, SelectCtx};
use mqo_encoder::{cosine, HashedEncoder, TextEncoder};
use mqo_graph::traversal::{khop_nodes, KhopBuffer};
use mqo_graph::{NodeId, Tag};
use parking_lot::Mutex;
use rand::rngs::StdRng;

/// Selects the most query-relevant neighbors within a k-hop range,
/// regardless of label status.
pub struct LlmRanked {
    k: u8,
    name: String,
    embeddings: Vec<Vec<f32>>,
    buf: Mutex<(KhopBuffer, Vec<mqo_graph::traversal::HopNode>)>,
}

impl LlmRanked {
    /// Build over a graph, embedding every node's full text.
    pub fn fit(tag: &Tag, k: u8) -> Self {
        assert!(k >= 1, "relevance ranking needs k >= 1");
        let enc = HashedEncoder::new(256);
        let embeddings = tag.node_ids().map(|v| enc.encode(&tag.text(v).full())).collect();
        LlmRanked {
            k,
            name: format!("{k}-hop LLM-ranked"),
            embeddings,
            buf: Mutex::new((KhopBuffer::new(tag.num_nodes()), Vec::new())),
        }
    }
}

impl Predictor for LlmRanked {
    fn name(&self) -> &str {
        &self.name
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
        let mut guard = self.buf.lock();
        let (buf, scratch) = &mut *guard;
        khop_nodes(ctx.tag.graph(), v, self.k, buf, scratch);
        let mut scored: Vec<(NodeId, f32)> = scratch
            .iter()
            .map(|h| {
                (h.node, cosine(&self.embeddings[v.index()], &self.embeddings[h.node.index()]))
            })
            .collect();
        drop(guard);
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
        });
        scored.truncate(ctx.max_neighbors);
        scored.into_iter().map(|(n, _)| n).collect()
    }

    /// The ranking reads no labels; the support counted over it reads
    /// labels of the selected nodes, all within `k` hops.
    fn label_radius(&self) -> Option<u8> {
        Some(self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::LabelStore;
    use mqo_graph::{ClassId, GraphBuilder, NodeText, Tag};
    use rand::SeedableRng;

    /// Star: 0 at the center; 1, 2 share topic words with 0; 3, 4 do not.
    fn star() -> Tag {
        let mut b = GraphBuilder::new(5);
        for v in 1..5 {
            b.add_edge(0, v).unwrap();
        }
        let texts = vec![
            NodeText::new("storage engines btree", "compaction writes log"),
            NodeText::new("storage btree compaction", "log writes"),
            NodeText::new("btree storage log", "compaction"),
            NodeText::new("wireless mesh routing", "packet radio"),
            NodeText::new("genome sequencing reads", "alignment kmer"),
        ];
        Tag::new("s", b.build(), texts, vec![ClassId(0); 5], vec!["x".into()]).unwrap()
    }

    #[test]
    fn ranks_relevant_neighbors_first_regardless_of_labels() {
        let tag = star();
        let labels = LabelStore::empty(5); // nobody labeled — SNS would return ∅
        let p = LlmRanked::fit(&tag, 1);
        let ctx = SelectCtx { tag: &tag, labels: &labels, max_neighbors: 2 };
        let mut rng = StdRng::seed_from_u64(0);
        let picked = p.select_neighbors(&ctx, NodeId(0), &mut rng);
        assert_eq!(picked.len(), 2);
        assert!(picked.contains(&NodeId(1)) && picked.contains(&NodeId(2)), "{picked:?}");
    }

    #[test]
    fn is_deterministic_and_marked_ranked() {
        let tag = star();
        let labels = LabelStore::empty(5);
        let p = LlmRanked::fit(&tag, 2);
        assert!(p.ranked());
        let ctx = SelectCtx { tag: &tag, labels: &labels, max_neighbors: 4 };
        let a = p.select_neighbors(&ctx, NodeId(0), &mut StdRng::seed_from_u64(1));
        let b = p.select_neighbors(&ctx, NodeId(0), &mut StdRng::seed_from_u64(2));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn zero_hop_rejected() {
        LlmRanked::fit(&star(), 0);
    }
}
