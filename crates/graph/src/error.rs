//! Error type for graph construction and queries.

use std::fmt;

/// Errors produced by this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// An edge referenced a node id outside `0..num_nodes`.
    NodeOutOfRange {
        /// The offending node id.
        node: u32,
        /// The number of nodes in the graph.
        num_nodes: u32,
    },
    /// A label referenced a class id outside `0..num_classes`.
    ClassOutOfRange {
        /// The offending class id.
        class: u16,
        /// The number of classes.
        num_classes: u16,
    },
    /// Mismatched lengths between parallel per-node arrays.
    LengthMismatch {
        /// What the arrays describe, e.g. `"labels"`.
        what: &'static str,
        /// Expected length (number of nodes).
        expected: usize,
        /// Actual length supplied.
        actual: usize,
    },
    /// CSR offsets that do not frame the targets: the first is not 0,
    /// one falls below its predecessor, or the last is not the number of
    /// targets.
    BadOffsets {
        /// Which of the three rules the offsets break.
        detail: &'static str,
    },
    /// A neighbor run that is not ascending.
    UnsortedRun {
        /// The node whose run it is.
        node: u32,
    },
    /// A neighbor run that lists the same neighbor twice.
    DuplicateNeighbor {
        /// The node whose run it is.
        node: u32,
        /// The neighbor listed twice.
        neighbor: u32,
    },
    /// An adjacency in which some `v ∈ N(u)` has no matching `u ∈ N(v)`.
    AsymmetricAdjacency,
    /// A split was requested that cannot be satisfied, e.g. more labeled
    /// nodes per class than the class contains.
    InfeasibleSplit {
        /// Human-readable description of the infeasibility.
        detail: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node id {node} out of range (graph has {num_nodes} nodes)")
            }
            Error::ClassOutOfRange { class, num_classes } => {
                write!(f, "class id {class} out of range (graph has {num_classes} classes)")
            }
            Error::LengthMismatch { what, expected, actual } => {
                write!(f, "{what}: expected {expected} entries, got {actual}")
            }
            Error::BadOffsets { detail } => write!(f, "bad CSR offsets: {detail}"),
            Error::UnsortedRun { node } => write!(f, "neighbor run of v{node} is not sorted"),
            Error::DuplicateNeighbor { node, neighbor } => {
                write!(f, "neighbor run of v{node} lists v{neighbor} twice")
            }
            Error::AsymmetricAdjacency => write!(f, "adjacency is not symmetric"),
            Error::InfeasibleSplit { detail } => write!(f, "infeasible split: {detail}"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;
