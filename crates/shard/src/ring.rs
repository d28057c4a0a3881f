//! Consistent-hash ring over shard ids.
//!
//! The alternative ownership rule to the edge-cut range partition: each
//! shard contributes a fixed number of seeded virtual points on a u64
//! ring, and a node is owned by the shard whose point is the first at or
//! clockwise-after the node's hash. Ownership is stable under shard-set
//! growth (adding a shard moves only the keys landing in its new arcs),
//! which is what a deployment that reshards in place cares about; the
//! price is that graph edges are scattered uniformly across shard pairs,
//! so nearly every edge is cut. The partitioner offers both and the
//! [`crate::ShardMap`] records which rule is in force.

use mqo_obs::splitmix64;

/// A seeded consistent-hash ring mapping `u64` keys to shard ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRing {
    /// `(position, shard)` points sorted by position.
    points: Vec<(u64, u32)>,
}

/// Virtual points per shard. Enough that the largest arc imbalance stays
/// within a few percent at 4–64 shards; small enough that ring lookup
/// stays a cache-resident binary search.
pub const VNODES_PER_SHARD: u32 = 64;

impl HashRing {
    /// Build the ring for `num_shards` shards with `seed`. Deterministic:
    /// same inputs, same ring. Positions collide with negligible
    /// probability; ties break toward the lower shard id via the sort.
    pub fn new(seed: u64, num_shards: u32) -> Self {
        // Pre-mix the seed: xoring a *raw* small seed into the small
        // `(shard, vnode)` ids would only permute them within the same
        // set, yielding the identical ring for every seed below 2⁶.
        let base = splitmix64(seed);
        let mut points = Vec::with_capacity((num_shards * VNODES_PER_SHARD) as usize);
        for shard in 0..num_shards {
            for v in 0..VNODES_PER_SHARD {
                let pos = splitmix64(base ^ ((u64::from(shard) << 32) | u64::from(v)));
                points.push((pos, shard));
            }
        }
        points.sort_unstable();
        HashRing { points }
    }

    /// The shard owning `key`: first point at or clockwise-after
    /// `hash(key)`, wrapping past the top of the ring.
    #[inline]
    pub fn owner(&self, key: u64) -> u32 {
        let h = splitmix64(key);
        let i = self.points.partition_point(|&(pos, _)| pos < h);
        self.points[if i == self.points.len() { 0 } else { i }].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_complete() {
        let a = HashRing::new(7, 4);
        let b = HashRing::new(7, 4);
        assert_eq!(a, b);
        for key in 0..10_000u64 {
            assert!(a.owner(key) < 4);
            assert_eq!(a.owner(key), b.owner(key));
        }
    }

    #[test]
    fn seed_changes_the_assignment() {
        let a = HashRing::new(1, 4);
        let b = HashRing::new(2, 4);
        let moved = (0..10_000u64).filter(|&k| a.owner(k) != b.owner(k)).count();
        assert!(moved > 5_000, "different seeds must shuffle ownership, moved {moved}");
    }

    #[test]
    fn balance_is_reasonable() {
        let ring = HashRing::new(42, 4);
        let mut counts = [0usize; 4];
        for key in 0..40_000u64 {
            counts[ring.owner(key) as usize] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                (5_000..=15_000).contains(&c),
                "shard {s} owns {c} of 40000 keys — ring badly unbalanced"
            );
        }
    }

    #[test]
    fn growth_moves_few_keys() {
        // The consistent-hashing contract: adding a shard re-homes only
        // the keys the new shard captures, not an arbitrary reshuffle.
        let four = HashRing::new(42, 4);
        let five = HashRing::new(42, 5);
        let keys = 40_000u64;
        let moved =
            (0..keys).filter(|&k| four.owner(k) != five.owner(k) && five.owner(k) != 4).count();
        assert!(
            moved < (keys as usize) / 50,
            "keys moving between surviving shards: {moved} (expected ~0)"
        );
    }
}
