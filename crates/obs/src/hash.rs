//! XXH64, the workspace's one fast non-cryptographic hash.
//!
//! Seed 0, four 64-bit lanes over 32-byte stripes, as specified by the
//! xxHash project. It keys the response cache (`mqo_cache::fingerprint`)
//! and fingerprints every binary image (`mqo_data::persist` and the
//! shard formats built on it), so it lives in this dependency-free crate
//! that both sides reach without a cycle. It reads eight bytes per
//! multiply where FNV-1a reads one, which is what lets an image load
//! hash at memory speed.
//!
//! [`Xxh64`] streams: any split of an input into [`Xxh64::update`] calls
//! yields the digest [`xxh64`] gives for the whole.
//!
//! Beside it sits SplitMix64 ([`splitmix64`], its finalizer [`mix64`] and
//! its increment [`SPLITMIX64_GAMMA`]): the workspace's one mixer for
//! deterministic per-(seed, item) draws — per-query rngs, fault
//! schedules, trace ids, ring positions, simulated-model noise.

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

const STRIPE: usize = 32;

/// SplitMix64's state increment: the odd 64-bit golden-ratio constant.
pub const SPLITMIX64_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64's finalizer: a bijective avalanche of one `u64`.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// SplitMix64 of `x`: one [`SPLITMIX64_GAMMA`] step, then [`mix64`]. A
/// generator whose state advances by the gamma draws `splitmix64(state)`
/// before each step.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    mix64(x.wrapping_add(SPLITMIX64_GAMMA))
}

#[inline(always)]
fn round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
}

#[inline(always)]
fn merge(acc: u64, lane: u64) -> u64 {
    (acc ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

#[inline(always)]
fn le64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// A streaming XXH64 hasher with seed 0.
#[derive(Debug, Clone)]
pub struct Xxh64 {
    lanes: [u64; 4],
    /// Bytes of an incomplete stripe, waiting for the next `update`.
    tail: [u8; STRIPE],
    tail_len: usize,
    total: u64,
}

impl Default for Xxh64 {
    fn default() -> Self {
        Xxh64::new()
    }
}

impl Xxh64 {
    /// A hasher that has seen no bytes.
    pub fn new() -> Self {
        Xxh64 {
            lanes: [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()],
            tail: [0; STRIPE],
            tail_len: 0,
            total: 0,
        }
    }

    #[inline(always)]
    fn stripes(lanes: &mut [u64; 4], bytes: &[u8]) {
        let [mut a, mut b, mut c, mut d] = *lanes;
        for s in bytes.chunks_exact(STRIPE) {
            a = round(a, le64(&s[0..8]));
            b = round(b, le64(&s[8..16]));
            c = round(c, le64(&s[16..24]));
            d = round(d, le64(&s[24..32]));
        }
        *lanes = [a, b, c, d];
    }

    /// Feed `bytes`.
    pub fn update(&mut self, mut bytes: &[u8]) -> &mut Self {
        self.total = self.total.wrapping_add(bytes.len() as u64);
        if self.tail_len > 0 {
            let take = bytes.len().min(STRIPE - self.tail_len);
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < STRIPE {
                return self;
            }
            Xxh64::stripes(&mut self.lanes, &self.tail);
            self.tail_len = 0;
        }
        let whole = bytes.len() - bytes.len() % STRIPE;
        Xxh64::stripes(&mut self.lanes, &bytes[..whole]);
        let rest = &bytes[whole..];
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
        self
    }

    /// The digest of every byte fed so far. The hasher stays usable.
    pub fn finish(&self) -> u64 {
        let [a, b, c, d] = self.lanes;
        let mut h = if self.total >= STRIPE as u64 {
            let h = a
                .rotate_left(1)
                .wrapping_add(b.rotate_left(7))
                .wrapping_add(c.rotate_left(12))
                .wrapping_add(d.rotate_left(18));
            merge(merge(merge(merge(h, a), b), c), d)
        } else {
            P5 // seed 0 + P5
        };
        h = h.wrapping_add(self.total);
        let mut rest = &self.tail[..self.tail_len];
        while rest.len() >= 8 {
            h = (h ^ round(0, le64(rest))).rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
            rest = &rest[8..];
        }
        if rest.len() >= 4 {
            let word = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
            h = (h ^ u64::from(word).wrapping_mul(P1))
                .rotate_left(23)
                .wrapping_mul(P2)
                .wrapping_add(P3);
            rest = &rest[4..];
        }
        for &byte in rest {
            h = (h ^ u64::from(byte).wrapping_mul(P5)).rotate_left(11).wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

/// XXH64 (seed 0) of `bytes`.
pub fn xxh64(bytes: &[u8]) -> u64 {
    Xxh64::new().update(bytes).finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_answers() {
        assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
        // 39 bytes: one full stripe, then an 8-, a 4- and three 1-byte tails.
        assert_eq!(xxh64(b"Nobody inspects the spammish repetition"), 0xfbce_a83c_8a37_8bf1);
    }

    /// Inputs of every length up to three stripes, so each tail shape and
    /// the stripe boundary are covered.
    fn input() -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec(any::<u8>(), 0..3 * STRIPE + 8)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn any_split_gives_the_one_shot_digest(
            bytes in input(),
            cuts in prop::collection::vec(any::<u16>(), 0..6),
        ) {
            let mut at: Vec<usize> = cuts.iter().map(|&c| c as usize % (bytes.len() + 1)).collect();
            at.sort_unstable();
            let mut h = Xxh64::new();
            let mut from = 0;
            for &cut in &at {
                h.update(&bytes[from..cut]);
                from = cut;
            }
            h.update(&bytes[from..]);
            prop_assert_eq!(h.finish(), xxh64(&bytes), "cuts {:?}", at);
        }

        #[test]
        fn a_split_at_the_stripe_boundary_gives_the_one_shot_digest(bytes in input()) {
            for cut in [STRIPE - 1, STRIPE, STRIPE + 1, 2 * STRIPE] {
                let cut = cut.min(bytes.len());
                let mut h = Xxh64::new();
                h.update(&bytes[..cut]).update(&bytes[cut..]);
                prop_assert_eq!(h.finish(), xxh64(&bytes), "cut {}", cut);
            }
        }
    }

    #[test]
    fn byte_at_a_time_gives_the_one_shot_digest() {
        let bytes: Vec<u8> = (0..200u32).map(|i| (i * 37 % 251) as u8).collect();
        for len in 0..bytes.len() {
            let mut h = Xxh64::new();
            for b in &bytes[..len] {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finish(), xxh64(&bytes[..len]), "len {len}");
        }
    }
}
