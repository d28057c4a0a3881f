//! Vanilla zero-shot: no neighbor text at all (`N_i = ∅`).

use super::{Predictor, SelectCtx};
use mqo_graph::NodeId;
use rand::rngs::StdRng;

/// The vanilla zero-shot method of Table I.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZeroShot;

impl Predictor for ZeroShot {
    fn name(&self) -> &str {
        "vanilla zero-shot"
    }

    fn select_neighbors(
        &self,
        _ctx: &SelectCtx<'_>,
        _v: NodeId,
        _rng: &mut StdRng,
    ) -> Vec<NodeId> {
        Vec::new()
    }

    /// The empty selection reads no labels at all.
    fn label_radius(&self) -> Option<u8> {
        Some(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::LabelStore;
    use crate::predictor::test_fixtures::two_cliques;
    use rand::SeedableRng;

    #[test]
    fn always_selects_nothing() {
        let tag = two_cliques();
        let labels = LabelStore::empty(tag.num_nodes());
        let ctx = SelectCtx { tag: &tag, labels: &labels, max_neighbors: 10 };
        let mut rng = StdRng::seed_from_u64(0);
        assert!(ZeroShot.select_neighbors(&ctx, NodeId(0), &mut rng).is_empty());
        assert!(!ZeroShot.ranked());
        assert_eq!(ZeroShot.name(), "vanilla zero-shot");
    }
}
