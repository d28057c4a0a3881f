//! Evaluation metrics over execution outcomes: confusion matrices,
//! per-class precision/recall/F1, and macro aggregates. The paper reports
//! plain accuracy; per-class views are what a deployment reviews to spot
//! the category-bias effects the `w` estimate (§V-A1) quantifies.

use crate::executor::ExecOutcome;
use mqo_graph::Tag;

/// A K×K confusion matrix: `counts[truth][predicted]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    counts: Vec<Vec<u64>>,
}

impl ConfusionMatrix {
    /// Build from an outcome (ground truth read from the tag).
    pub fn from_outcome(tag: &Tag, outcome: &ExecOutcome) -> Self {
        let k = tag.num_classes();
        let mut counts = vec![vec![0u64; k]; k];
        for r in &outcome.records {
            counts[tag.label(r.node).index()][r.predicted.index()] += 1;
        }
        ConfusionMatrix { counts }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.counts.len()
    }

    /// Count of (truth `t`, predicted `p`).
    pub fn get(&self, t: usize, p: usize) -> u64 {
        self.counts[t][p]
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }

    /// Overall accuracy.
    pub fn accuracy(&self) -> f64 {
        let correct: u64 = (0..self.num_classes()).map(|c| self.counts[c][c]).sum();
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
    }

    /// Per-class precision (0 when the class was never predicted).
    pub fn precision(&self, c: usize) -> f64 {
        let predicted: u64 = (0..self.num_classes()).map(|t| self.counts[t][c]).sum();
        if predicted == 0 {
            0.0
        } else {
            self.counts[c][c] as f64 / predicted as f64
        }
    }

    /// Per-class recall (0 when the class never occurred).
    pub fn recall(&self, c: usize) -> f64 {
        let actual: u64 = self.counts[c].iter().sum();
        if actual == 0 {
            0.0
        } else {
            self.counts[c][c] as f64 / actual as f64
        }
    }

    /// Per-class F1.
    pub fn f1(&self, c: usize) -> f64 {
        let (p, r) = (self.precision(c), self.recall(c));
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Unweighted mean F1 over classes.
    pub fn macro_f1(&self) -> f64 {
        let k = self.num_classes();
        (0..k).map(|c| self.f1(c)).sum::<f64>() / k as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::QueryRecord;
    use mqo_graph::{ClassId, GraphBuilder, NodeId, NodeText};

    fn tag() -> Tag {
        let g = GraphBuilder::new(6).build();
        let texts = (0..6).map(|i| NodeText::new(format!("t{i}"), "")).collect();
        // Truth: 0,0,0,1,1,1.
        let labels = (0..6).map(|i| ClassId::from((i >= 3) as usize)).collect();
        Tag::new("m", g, texts, labels, vec!["a".into(), "b".into()]).unwrap()
    }

    fn outcome(preds: &[(u32, u16)]) -> ExecOutcome {
        ExecOutcome {
            records: preds
                .iter()
                .map(|&(node, pred)| QueryRecord {
                    node: NodeId(node),
                    predicted: ClassId(pred),
                    correct: false, // unused by the matrix
                    neighbors_included: 0,
                    labeled_neighbors: 0,
                    pseudo_neighbors: 0,
                    remote_neighbors: 0,
                    prompt_tokens: 0,
                    pruned: false,
                    parse_failed: false,
                    budget_starved: false,
                    failure: None,
                })
                .collect(),
        }
    }

    #[test]
    fn matrix_counts_and_accuracy() {
        let t = tag();
        // Truth 0→preds: 0,0,1 ; truth 1→preds: 1,1,0.
        let out = outcome(&[(0, 0), (1, 0), (2, 1), (3, 1), (4, 1), (5, 0)]);
        let m = ConfusionMatrix::from_outcome(&t, &out);
        assert_eq!(m.get(0, 0), 2);
        assert_eq!(m.get(0, 1), 1);
        assert_eq!(m.get(1, 1), 2);
        assert_eq!(m.get(1, 0), 1);
        assert_eq!(m.total(), 6);
        assert!((m.accuracy() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn precision_recall_f1() {
        let t = tag();
        let out = outcome(&[(0, 0), (1, 0), (2, 1), (3, 1), (4, 1), (5, 0)]);
        let m = ConfusionMatrix::from_outcome(&t, &out);
        // Class 0: predicted 3 times, 2 correct; actual 3, 2 recalled.
        assert!((m.precision(0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.recall(0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.f1(0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.macro_f1() - 2.0 / 3.0).abs() < 1e-12);
        for c in 0..m.num_classes() {
            assert!((m.recall(c) - 2.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn degenerate_cases_are_zero_not_nan() {
        let t = tag();
        // Everything predicted class 0.
        let out = outcome(&[(0, 0), (3, 0)]);
        let m = ConfusionMatrix::from_outcome(&t, &out);
        assert_eq!(m.precision(1), 0.0);
        assert_eq!(m.f1(1), 0.0);
        assert!(m.accuracy().is_finite());
        let empty = ConfusionMatrix::from_outcome(&t, &ExecOutcome::default());
        assert_eq!(empty.accuracy(), 0.0);
    }
}
