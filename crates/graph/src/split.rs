//! Labeled / query node splits.
//!
//! The paper's protocol: for Cora/Citeseer/Pubmed, `V_L` is 20 labeled nodes
//! per class and `V_Q` is 1,000 unlabeled nodes sampled at random; for the
//! OGB datasets, `V_L` follows the official train split (here: a configured
//! fraction) and `V_Q` is 1,000 nodes from the test partition.

use crate::tag::Tag;
use crate::{ClassId, Error, NodeId, Result};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashSet;

/// How to carve `V_L` and `V_Q` out of a [`Tag`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SplitConfig {
    /// Planetoid style: `per_class` labeled nodes per class, then
    /// `num_queries` query nodes sampled from the remainder.
    PerClass {
        /// Labeled nodes per class (paper: 20).
        per_class: usize,
        /// Query set size (paper: 1,000).
        num_queries: usize,
    },
    /// OGB style: a fraction of all nodes is "training" (labeled); queries
    /// are sampled from the complement.
    Fraction {
        /// Fraction of nodes that are labeled, in `(0, 1)`.
        labeled_fraction: f64,
        /// Query set size (paper: 1,000).
        num_queries: usize,
    },
}

impl SplitConfig {
    /// The same labeled-set rule with a query set of `num_queries`: how a
    /// run sizes a dataset's standard split to its own query count.
    pub fn with_queries(self, num_queries: usize) -> SplitConfig {
        match self {
            SplitConfig::PerClass { per_class, .. } => {
                SplitConfig::PerClass { per_class, num_queries }
            }
            SplitConfig::Fraction { labeled_fraction, .. } => {
                SplitConfig::Fraction { labeled_fraction, num_queries }
            }
        }
    }
}

/// The result of splitting: the labeled set `V_L` and the query set `V_Q`.
#[derive(Debug, Clone)]
pub struct LabeledSplit {
    labeled: Vec<NodeId>,
    labeled_mask: Vec<bool>,
    queries: Vec<NodeId>,
}

impl LabeledSplit {
    /// Carve a split from `tag` according to `config`, using `rng` for all
    /// sampling decisions.
    pub fn generate<R: Rng>(tag: &Tag, config: SplitConfig, rng: &mut R) -> Result<Self> {
        let n = tag.num_nodes();
        let mut labeled: Vec<NodeId> = Vec::new();
        match config {
            SplitConfig::PerClass { per_class, num_queries } => {
                let k = tag.num_classes();
                let mut by_class: Vec<Vec<NodeId>> = vec![Vec::new(); k];
                for v in tag.node_ids() {
                    by_class[tag.label(v).index()].push(v);
                }
                for (c, pool) in by_class.iter_mut().enumerate() {
                    if pool.len() < per_class {
                        return Err(Error::InfeasibleSplit {
                            detail: format!(
                                "class {} has {} nodes, need {} labeled",
                                ClassId::from(c),
                                pool.len(),
                                per_class
                            ),
                        });
                    }
                    pool.shuffle(rng);
                    labeled.extend(pool.iter().take(per_class));
                }
                Self::finish(n, labeled, num_queries, rng)
            }
            SplitConfig::Fraction { labeled_fraction, num_queries } => {
                if !(0.0..1.0).contains(&labeled_fraction) || labeled_fraction <= 0.0 {
                    return Err(Error::InfeasibleSplit {
                        detail: format!("labeled_fraction {labeled_fraction} not in (0,1)"),
                    });
                }
                let want = ((n as f64) * labeled_fraction).round().max(1.0) as usize;
                let mut all: Vec<NodeId> = tag.node_ids().collect();
                all.shuffle(rng);
                labeled.extend(all.iter().take(want));
                Self::finish(n, labeled, num_queries, rng)
            }
        }
    }

    fn finish<R: Rng>(
        n: usize,
        labeled: Vec<NodeId>,
        num_queries: usize,
        rng: &mut R,
    ) -> Result<Self> {
        let mut labeled_mask = vec![false; n];
        for &v in &labeled {
            labeled_mask[v.index()] = true;
        }
        let mut pool: Vec<NodeId> =
            (0..n as u32).map(NodeId).filter(|v| !labeled_mask[v.index()]).collect();
        if pool.len() < num_queries {
            return Err(Error::InfeasibleSplit {
                detail: format!("{} unlabeled nodes, need {} queries", pool.len(), num_queries),
            });
        }
        pool.shuffle(rng);
        pool.truncate(num_queries);
        Ok(LabeledSplit { labeled, labeled_mask, queries: pool })
    }

    /// The labeled set `V_L`.
    pub fn labeled(&self) -> &[NodeId] {
        &self.labeled
    }

    /// The query set `V_Q`.
    pub fn queries(&self) -> &[NodeId] {
        &self.queries
    }

    /// O(1) membership test for `V_L`.
    #[inline]
    pub fn is_labeled(&self, v: NodeId) -> bool {
        self.labeled_mask[v.index()]
    }

    /// Number of labeled nodes.
    pub fn num_labeled(&self) -> usize {
        self.labeled.len()
    }

    /// Check the structural invariant that `V_L` and `V_Q` are disjoint and
    /// duplicate-free; used by property tests.
    pub fn validate(&self) -> Result<()> {
        let l: HashSet<_> = self.labeled.iter().collect();
        let q: HashSet<_> = self.queries.iter().collect();
        if l.len() != self.labeled.len() || q.len() != self.queries.len() {
            return Err(Error::InfeasibleSplit { detail: "duplicate nodes in split".into() });
        }
        if l.intersection(&q).next().is_some() {
            return Err(Error::InfeasibleSplit { detail: "V_L and V_Q overlap".into() });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphBuilder, NodeText, Tag};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tag(n: usize, k: usize) -> Tag {
        let g = GraphBuilder::new(n).build();
        let texts = (0..n).map(|i| NodeText::new(format!("t{i}"), "")).collect();
        let labels = (0..n).map(|i| ClassId::from(i % k)).collect();
        let names = (0..k).map(|c| format!("class{c}")).collect();
        Tag::new("t", g, texts, labels, names).unwrap()
    }

    #[test]
    fn per_class_split_counts() {
        let t = tag(100, 5);
        let mut rng = StdRng::seed_from_u64(1);
        let s = LabeledSplit::generate(
            &t,
            SplitConfig::PerClass { per_class: 3, num_queries: 50 },
            &mut rng,
        )
        .unwrap();
        assert_eq!(s.num_labeled(), 15);
        assert_eq!(s.queries().len(), 50);
        s.validate().unwrap();
        // Exactly 3 labeled per class.
        let mut per = [0; 5];
        for &v in s.labeled() {
            per[t.label(v).index()] += 1;
        }
        assert!(per.iter().all(|&c| c == 3));
    }

    #[test]
    fn with_queries_keeps_the_labeled_rule() {
        let per = SplitConfig::PerClass { per_class: 20, num_queries: 1000 };
        assert_eq!(
            per.with_queries(60),
            SplitConfig::PerClass { per_class: 20, num_queries: 60 }
        );
        let frac = SplitConfig::Fraction { labeled_fraction: 0.3, num_queries: 1000 };
        assert_eq!(
            frac.with_queries(7),
            SplitConfig::Fraction { labeled_fraction: 0.3, num_queries: 7 }
        );
    }

    #[test]
    fn fraction_split_counts() {
        let t = tag(200, 4);
        let mut rng = StdRng::seed_from_u64(2);
        let s = LabeledSplit::generate(
            &t,
            SplitConfig::Fraction { labeled_fraction: 0.25, num_queries: 100 },
            &mut rng,
        )
        .unwrap();
        assert_eq!(s.num_labeled(), 50);
        assert_eq!(s.queries().len(), 100);
        s.validate().unwrap();
    }

    #[test]
    fn infeasible_when_class_too_small() {
        let t = tag(10, 5); // 2 nodes per class
        let mut rng = StdRng::seed_from_u64(3);
        let r = LabeledSplit::generate(
            &t,
            SplitConfig::PerClass { per_class: 5, num_queries: 1 },
            &mut rng,
        );
        assert!(matches!(r, Err(Error::InfeasibleSplit { .. })));
    }

    #[test]
    fn infeasible_when_queries_exceed_pool() {
        let t = tag(20, 2);
        let mut rng = StdRng::seed_from_u64(4);
        let r = LabeledSplit::generate(
            &t,
            SplitConfig::PerClass { per_class: 5, num_queries: 15 },
            &mut rng,
        );
        assert!(matches!(r, Err(Error::InfeasibleSplit { .. })));
    }

    #[test]
    fn deterministic_under_seed() {
        let t = tag(60, 3);
        let cfg = SplitConfig::PerClass { per_class: 4, num_queries: 20 };
        let a = LabeledSplit::generate(&t, cfg, &mut StdRng::seed_from_u64(9)).unwrap();
        let b = LabeledSplit::generate(&t, cfg, &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(a.labeled(), b.labeled());
        assert_eq!(a.queries(), b.queries());
    }

    #[test]
    fn mask_agrees_with_list() {
        let t = tag(60, 3);
        let mut rng = StdRng::seed_from_u64(5);
        let s = LabeledSplit::generate(
            &t,
            SplitConfig::PerClass { per_class: 4, num_queries: 20 },
            &mut rng,
        )
        .unwrap();
        for v in t.node_ids() {
            assert_eq!(s.is_labeled(v), s.labeled().contains(&v));
        }
    }
}
