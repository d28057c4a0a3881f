//! # mqo-graph — text-attributed graph (TAG) substrate
//!
//! This crate provides the graph data structures that every other crate in
//! the workspace builds on:
//!
//! * [`Csr`] — a compact, immutable compressed-sparse-row adjacency
//!   structure for undirected graphs, built once via [`GraphBuilder`] and
//!   then queried with zero allocation on the hot path.
//! * [`Tag`] — a text-attributed graph: the adjacency plus per-node text
//!   attributes, class labels, and class names, matching the paper's
//!   `G = (V, E, T, X)` (the feature set `X` is derived from `T` by the
//!   `mqo-encoder` crate and is deliberately *not* stored here).
//! * [`traversal`] — bounded k-hop BFS and neighbor-sampling utilities used
//!   by the "LLMs as predictors" neighbor-selection methods.
//! * [`split`] — labeled/query splits (`V_L`, `V_Q`) following the paper's
//!   protocol (20 labeled nodes per class for the Planetoid-style datasets,
//!   plus a 1,000-node query sample).
//! * [`stats`] — homophily, degree, and class-balance statistics used for
//!   dataset calibration and reporting (Table II).
//!
//! All randomized operations take an explicit `&mut impl Rng`, so every
//! experiment is reproducible from its seed. The one read of ambient
//! entropy is the key of [`Csr::validate`]'s symmetry check, which
//! decides only whether a malformed adjacency is refused, never a result.
//!
//! ```
//! use mqo_graph::{GraphBuilder, NodeId, traversal};
//!
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1)?;
//! b.add_edge(1, 2)?;
//! b.add_edge(2, 3)?;
//! let g = b.build();
//! assert_eq!(g.degree(NodeId(1)), 2);
//! assert!(g.has_edge(NodeId(2), NodeId(1)));
//! let two_hop = traversal::khop_nodes_alloc(&g, NodeId(0), 2);
//! assert_eq!(two_hop.len(), 2); // nodes 1 and 2
//! # Ok::<(), mqo_graph::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod csr;
pub mod error;
pub mod ids;
pub mod split;
pub mod stats;
pub mod tag;
pub mod traversal;

pub use builder::GraphBuilder;
pub use csr::Csr;
pub use error::{Error, Result};
pub use ids::{ClassId, NodeId};
pub use split::{LabeledSplit, SplitConfig};
pub use tag::{NodeText, Tag};
