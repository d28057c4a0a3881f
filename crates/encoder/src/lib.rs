//! # mqo-encoder — text feature encoders
//!
//! The paper derives each node's input feature `x_i ∈ R^d` from its text
//! `t_i` "through methods like BoW", and SNS ranks neighbors by SimCSE
//! sentence similarity. This crate supplies both roles from scratch:
//!
//! * [`Vocabulary`] — corpus-fitted word → feature-index map with document
//!   frequency statistics and a `max_features` cap (keep the most frequent
//!   words, mirroring sklearn's `CountVectorizer`).
//! * [`TfIdfEncoder`] — smoothed TF-IDF with L2 normalization; its encoded
//!   vectors power the cosine-similarity ranking that replaces SimCSE for
//!   the SNS method (both are dense sentence representations whose inner
//!   product tracks topical similarity, which is all SNS consumes).
//! * [`HashedEncoder`] — feature hashing into a fixed dimension, used for
//!   the larger datasets where a full vocabulary would be wasteful.
//! * [`similarity`] — cosine similarity helpers.
//!
//! All encoders implement the common [`TextEncoder`] trait so downstream
//! code (surrogate classifier training, SNS) is encoder-agnostic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hashed;
pub mod similarity;
pub mod tfidf;
pub mod vocab;

pub use hashed::HashedEncoder;
pub use similarity::cosine;
pub use tfidf::TfIdfEncoder;
pub use vocab::Vocabulary;

/// A fitted text encoder: maps a document to a dense feature vector of a
/// fixed dimension.
pub trait TextEncoder {
    /// Output dimensionality.
    fn dim(&self) -> usize;
    /// Encode a document into `out` (must be `dim()` long; zeroed first).
    fn encode_into(&self, text: &str, out: &mut [f32]);
    /// Convenience: allocate and encode.
    fn encode(&self, text: &str) -> Vec<f32> {
        let mut v = vec![0.0; self.dim()];
        self.encode_into(text, &mut v);
        v
    }
}
