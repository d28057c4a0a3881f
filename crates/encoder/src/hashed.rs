//! Feature hashing ("hashing trick") into a fixed dimension.
//!
//! Used for the large datasets (Ogbn-Arxiv/Products analogues) where a
//! corpus-fitted vocabulary over hundreds of thousands of documents would
//! cost memory without improving the surrogate classifier. A signed hash
//! (second hash bit decides ±1) keeps collisions unbiased, as in Vowpal
//! Wabbit / sklearn's `HashingVectorizer`.

use crate::vocab::words;
use crate::TextEncoder;

/// FNV-1a 64-bit — tiny, fast, good enough for feature hashing. It picks
/// each word's feature bucket, so it stays FNV-1a (not the workspace's
/// XXH64): a new hash would change every trained surrogate.
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Signed feature-hashing encoder with L2 normalization.
#[derive(Debug, Clone, Copy)]
pub struct HashedEncoder {
    dim: usize,
}

impl HashedEncoder {
    /// Encoder with `dim` output features (must be > 0).
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "hashed encoder needs a positive dimension");
        HashedEncoder { dim }
    }
}

impl TextEncoder for HashedEncoder {
    fn dim(&self) -> usize {
        self.dim
    }

    fn encode_into(&self, text: &str, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.dim);
        out.iter_mut().for_each(|x| *x = 0.0);
        for w in words(text) {
            let h = fnv1a(w.as_bytes());
            let idx = (h % self.dim as u64) as usize;
            let sign = if (h >> 63) == 0 { 1.0 } else { -1.0 };
            out[idx] += sign;
        }
        let norm_sq: f32 = out.iter().map(|x| x * x).sum();
        if norm_sq > 0.0 {
            let inv = norm_sq.sqrt().recip();
            out.iter_mut().for_each(|x| *x *= inv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_dimension() {
        let e = HashedEncoder::new(64);
        assert_eq!(e.encode("whatever text").len(), 64);
    }

    #[test]
    fn deterministic() {
        let e = HashedEncoder::new(32);
        assert_eq!(e.encode("same text"), e.encode("same text"));
    }

    #[test]
    fn different_texts_differ() {
        let e = HashedEncoder::new(256);
        assert_ne!(e.encode("alpha beta gamma"), e.encode("delta epsilon zeta"));
    }

    #[test]
    fn unit_norm_when_nonempty() {
        let e = HashedEncoder::new(128);
        let v = e.encode("some words to hash");
        let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((n - 1.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "positive dimension")]
    fn zero_dim_rejected() {
        HashedEncoder::new(0);
    }
}
