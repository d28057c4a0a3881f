//! The text-attributed graph container.

use crate::csr::Csr;
use crate::{ClassId, Error, NodeId, Result};

/// Text attribute of a node: a short `title` and a longer `body`
/// (abstract for citation graphs, product description for co-purchase
/// graphs). Prompt templates (Table III) choose which parts to include.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NodeText {
    /// Short headline text (paper title / product name).
    pub title: String,
    /// Long-form text (abstract / description).
    pub body: String,
}

impl NodeText {
    /// Create a node text from owned parts.
    pub fn new(title: impl Into<String>, body: impl Into<String>) -> Self {
        NodeText { title: title.into(), body: body.into() }
    }

    /// Title and body concatenated with a separating space, as used by the
    /// bag-of-words encoders.
    pub fn full(&self) -> String {
        if self.body.is_empty() {
            self.title.clone()
        } else {
            format!("{} {}", self.title, self.body)
        }
    }
}

/// A text-attributed graph `G = (V, E, T)` with ground-truth labels.
///
/// Ground-truth labels for *all* nodes are stored because the synthetic
/// generators know them and the evaluation harness needs them; the library
/// code in `mqo-core` only ever reads labels of nodes in the labeled set
/// `V_L` plus, at evaluation time, of query nodes for scoring. Input
/// features `X` are derived on demand by `mqo-encoder`.
#[derive(Debug, Clone)]
pub struct Tag {
    name: String,
    graph: Csr,
    texts: Vec<NodeText>,
    labels: Vec<ClassId>,
    class_names: Vec<String>,
}

impl Tag {
    /// Assemble a TAG, validating that all per-node arrays agree in length
    /// and that labels are within range.
    pub fn new(
        name: impl Into<String>,
        graph: Csr,
        texts: Vec<NodeText>,
        labels: Vec<ClassId>,
        class_names: Vec<String>,
    ) -> Result<Self> {
        let n = graph.num_nodes();
        if texts.len() != n {
            return Err(Error::LengthMismatch {
                what: "texts",
                expected: n,
                actual: texts.len(),
            });
        }
        if labels.len() != n {
            return Err(Error::LengthMismatch {
                what: "labels",
                expected: n,
                actual: labels.len(),
            });
        }
        let k = class_names.len() as u16;
        for &l in &labels {
            if l.0 >= k {
                return Err(Error::ClassOutOfRange { class: l.0, num_classes: k });
            }
        }
        Ok(Tag { name: name.into(), graph, texts, labels, class_names })
    }

    /// Dataset name, e.g. `"cora"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The adjacency structure.
    #[inline]
    pub fn graph(&self) -> &Csr {
        &self.graph
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.graph.num_edges()
    }

    /// Number of classes.
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.class_names.len()
    }

    /// Text attribute of `v`.
    #[inline]
    pub fn text(&self, v: NodeId) -> &NodeText {
        &self.texts[v.index()]
    }

    /// Ground-truth label of `v`. Library strategies must only call this for
    /// nodes in `V_L`; evaluation harnesses may call it freely.
    #[inline]
    pub fn label(&self, v: NodeId) -> ClassId {
        self.labels[v.index()]
    }

    /// All ground-truth labels (evaluation/ generation use only).
    pub fn labels(&self) -> &[ClassId] {
        &self.labels
    }

    /// Human-readable class name for `c`.
    #[inline]
    pub fn class_name(&self, c: ClassId) -> &str {
        &self.class_names[c.index()]
    }

    /// All class names in class-id order.
    pub fn class_names(&self) -> &[String] {
        &self.class_names
    }

    /// Iterate all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes() as u32).map(NodeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn tiny() -> Tag {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 2).unwrap();
        Tag::new(
            "tiny",
            b.build(),
            vec![
                NodeText::new("Paper A", "about databases"),
                NodeText::new("Paper B", "about agents"),
                NodeText::new("Paper C", ""),
            ],
            vec![ClassId(0), ClassId(1), ClassId(0)],
            vec!["Database".into(), "Agents".into()],
        )
        .unwrap()
    }

    #[test]
    fn accessors() {
        let t = tiny();
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.num_edges(), 2);
        assert_eq!(t.num_classes(), 2);
        assert_eq!(t.text(NodeId(0)).title, "Paper A");
        assert_eq!(t.label(NodeId(1)), ClassId(1));
        assert_eq!(t.class_name(ClassId(1)), "Agents");
    }

    #[test]
    fn full_text_joins_title_and_body() {
        let t = tiny();
        assert_eq!(t.text(NodeId(0)).full(), "Paper A about databases");
        assert_eq!(t.text(NodeId(2)).full(), "Paper C");
    }

    #[test]
    fn rejects_mismatched_lengths() {
        let g = GraphBuilder::new(2).build();
        let err =
            Tag::new("x", g, vec![NodeText::default()], vec![ClassId(0); 2], vec!["a".into()]);
        assert!(matches!(err, Err(Error::LengthMismatch { what: "texts", .. })));
    }

    #[test]
    fn rejects_label_out_of_range() {
        let g = GraphBuilder::new(1).build();
        let err =
            Tag::new("x", g, vec![NodeText::default()], vec![ClassId(5)], vec!["a".into()]);
        assert!(matches!(err, Err(Error::ClassOutOfRange { class: 5, .. })));
    }
}
