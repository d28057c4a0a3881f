//! The evolving label store: ground truth on `V_L` plus pseudo-labels.
//!
//! Query boosting (Algorithm 2, step 3) grows the labeled set with LLM
//! responses: "Add `v_i` to `V_L`, add `ŷ_i` to `Y_L`". The store keeps
//! ground-truth and pseudo entries distinguishable so the utilization
//! analysis (Fig. 8) can count how often pseudo-labels actually enrich
//! later prompts.

use mqo_graph::{ClassId, LabeledSplit, NodeId, Tag};

/// Where a stored label came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelSource {
    /// Ground-truth label of a `V_L` node.
    GroundTruth,
    /// Pseudo-label from an earlier LLM query.
    Pseudo,
}

/// Per-node label knowledge at a point in the execution.
#[derive(Debug, Clone)]
pub struct LabelStore {
    entries: Vec<Option<(ClassId, LabelSource)>>,
    /// Pseudo entries that arrived from another shard over the label
    /// exchange rather than from a locally executed query. Tracked apart
    /// from [`LabelSource`] so every existing `Pseudo` consumer (prompt
    /// cues, utilization analysis) treats remote cues identically, while
    /// the sharding layer can still attribute γ readiness to the
    /// exchange.
    remote: Vec<bool>,
    num_ground_truth: usize,
    num_pseudo: usize,
    num_remote: usize,
}

impl LabelStore {
    /// Initialize from a split: only `V_L` nodes carry labels.
    pub fn from_split(tag: &Tag, split: &LabeledSplit) -> Self {
        let mut entries = vec![None; tag.num_nodes()];
        for &v in split.labeled() {
            entries[v.index()] = Some((tag.label(v), LabelSource::GroundTruth));
        }
        LabelStore {
            entries,
            remote: vec![false; tag.num_nodes()],
            num_ground_truth: split.num_labeled(),
            num_pseudo: 0,
            num_remote: 0,
        }
    }

    /// An empty store (no node labeled) for `n` nodes.
    pub fn empty(n: usize) -> Self {
        LabelStore {
            entries: vec![None; n],
            remote: vec![false; n],
            num_ground_truth: 0,
            num_pseudo: 0,
            num_remote: 0,
        }
    }

    /// Current label of `v`, if known.
    #[inline]
    pub fn get(&self, v: NodeId) -> Option<ClassId> {
        self.entries[v.index()].map(|(c, _)| c)
    }

    /// Whether `v` currently has any label.
    #[inline]
    pub fn is_labeled(&self, v: NodeId) -> bool {
        self.entries[v.index()].is_some()
    }

    /// Whether `v` carries a pseudo-label.
    #[inline]
    pub fn is_pseudo(&self, v: NodeId) -> bool {
        matches!(self.entries[v.index()], Some((_, LabelSource::Pseudo)))
    }

    /// Record a pseudo-label for `v`. Pseudo-labels never overwrite ground
    /// truth; re-labeling a pseudo node updates it in place.
    pub fn add_pseudo(&mut self, v: NodeId, label: ClassId) {
        match self.entries[v.index()] {
            Some((_, LabelSource::GroundTruth)) => {}
            Some((_, LabelSource::Pseudo)) => {
                self.entries[v.index()] = Some((label, LabelSource::Pseudo));
                // A locally executed query supersedes an exchanged label.
                if std::mem::replace(&mut self.remote[v.index()], false) {
                    self.num_remote -= 1;
                }
            }
            None => {
                self.entries[v.index()] = Some((label, LabelSource::Pseudo));
                self.num_pseudo += 1;
            }
        }
    }

    /// Ingest a pseudo-label pushed from another shard over the label
    /// exchange. Same precedence as [`LabelStore::add_pseudo`] — ground
    /// truth is never overwritten — but the entry is tagged remote, so
    /// the serving layer can report how many cues the γ₁/γ₂ readiness
    /// rule owed to the exchange rather than to local execution. A local
    /// pseudo-label, if one exists, wins over the snapshot (the local
    /// shard executed the query itself; the exchanged copy is stale by
    /// definition). Returns whether the label took effect (fresh insert
    /// or remote-over-remote update).
    pub fn ingest_remote(&mut self, v: NodeId, label: ClassId) -> bool {
        if self.entries[v.index()].is_none() {
            self.entries[v.index()] = Some((label, LabelSource::Pseudo));
            self.num_pseudo += 1;
            self.remote[v.index()] = true;
            self.num_remote += 1;
            true
        } else if self.remote[v.index()] {
            // Remote-over-remote: later snapshot wins (same node may be
            // re-labeled upstream, mirroring pseudo relabel-in-place).
            self.entries[v.index()] = Some((label, LabelSource::Pseudo));
            true
        } else {
            false
        }
    }

    /// Whether `v`'s label arrived over the cross-shard exchange.
    #[inline]
    pub fn is_remote(&self, v: NodeId) -> bool {
        self.remote[v.index()]
    }

    /// Number of labels ingested from other shards.
    pub fn num_remote(&self) -> usize {
        self.num_remote
    }

    /// Number of ground-truth labels.
    pub fn num_ground_truth(&self) -> usize {
        self.num_ground_truth
    }

    /// Number of pseudo-labels.
    pub fn num_pseudo(&self) -> usize {
        self.num_pseudo
    }

    /// Total labeled nodes.
    pub fn num_labeled(&self) -> usize {
        self.num_ground_truth + self.num_pseudo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqo_graph::{GraphBuilder, NodeText, SplitConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture() -> (Tag, LabeledSplit) {
        let g = GraphBuilder::new(20).build();
        let texts = (0..20).map(|i| NodeText::new(format!("t{i}"), "")).collect();
        let labels = (0..20).map(|i| ClassId::from((i % 2) as usize)).collect();
        let tag = Tag::new("t", g, texts, labels, vec!["a".into(), "b".into()]).unwrap();
        let split = LabeledSplit::generate(
            &tag,
            SplitConfig::PerClass { per_class: 3, num_queries: 10 },
            &mut StdRng::seed_from_u64(0),
        )
        .unwrap();
        (tag, split)
    }

    #[test]
    fn initializes_from_split() {
        let (tag, split) = fixture();
        let store = LabelStore::from_split(&tag, &split);
        assert_eq!(store.num_ground_truth(), 6);
        assert_eq!(store.num_pseudo(), 0);
        for &v in split.labeled() {
            assert_eq!(store.get(v), Some(tag.label(v)));
            assert!(!store.is_pseudo(v));
        }
        for &v in split.queries() {
            assert_eq!(store.get(v), None);
        }
    }

    #[test]
    fn pseudo_labels_accumulate_without_touching_ground_truth() {
        let (tag, split) = fixture();
        let mut store = LabelStore::from_split(&tag, &split);
        let q = split.queries()[0];
        store.add_pseudo(q, ClassId(1));
        assert_eq!(store.get(q), Some(ClassId(1)));
        assert!(store.is_pseudo(q));
        assert_eq!(store.num_pseudo(), 1);
        // Ground truth survives attempted overwrite.
        let l = split.labeled()[0];
        let truth = store.get(l).unwrap();
        store.add_pseudo(l, ClassId(1 - truth.0));
        assert_eq!(store.get(l), Some(truth));
        assert_eq!(store.num_pseudo(), 1);
    }

    #[test]
    fn pseudo_relabel_updates_in_place() {
        let (tag, split) = fixture();
        let mut store = LabelStore::from_split(&tag, &split);
        let q = split.queries()[0];
        store.add_pseudo(q, ClassId(0));
        store.add_pseudo(q, ClassId(1));
        assert_eq!(store.get(q), Some(ClassId(1)));
        assert_eq!(store.num_pseudo(), 1);
    }

    #[test]
    fn empty_store_has_no_labels() {
        let store = LabelStore::empty(5);
        assert_eq!(store.num_labeled(), 0);
        assert!(!store.is_labeled(NodeId(3)));
    }

    #[test]
    fn remote_ingest_tags_provenance_and_respects_precedence() {
        let (tag, split) = fixture();
        let mut store = LabelStore::from_split(&tag, &split);
        let q = split.queries()[0];
        // Remote label lands on an unlabeled node: counted, tagged.
        store.ingest_remote(q, ClassId(1));
        assert_eq!(store.get(q), Some(ClassId(1)));
        assert!(store.is_pseudo(q) && store.is_remote(q));
        assert_eq!((store.num_pseudo(), store.num_remote()), (1, 1));
        // Remote-over-remote updates in place.
        store.ingest_remote(q, ClassId(0));
        assert_eq!(store.get(q), Some(ClassId(0)));
        assert_eq!(store.num_remote(), 1);
        // Ground truth is never overwritten by an exchanged label.
        let l = split.labeled()[0];
        let truth = store.get(l).unwrap();
        store.ingest_remote(l, ClassId(1 - truth.0));
        assert_eq!(store.get(l), Some(truth));
        assert!(!store.is_remote(l));
        // A local pseudo-label supersedes the remote snapshot.
        store.add_pseudo(q, ClassId(1));
        assert_eq!(store.get(q), Some(ClassId(1)));
        assert!(!store.is_remote(q));
        assert_eq!(store.num_remote(), 0);
        // And a remote arriving after a local pseudo does not clobber it.
        let q2 = split.queries()[1];
        store.add_pseudo(q2, ClassId(0));
        store.ingest_remote(q2, ClassId(1));
        assert_eq!(store.get(q2), Some(ClassId(0)));
        assert!(!store.is_remote(q2));
    }
}
