//! Vehicle → shard routing by hash.
//!
//! Fleet ids are often assigned sequentially (fleetsim's certainly are),
//! so routing by `id % n_shards` would stripe models/usage groups across
//! shards in lockstep. The router instead finalises the id through a
//! SplitMix64-style avalanche so consecutive ids land on effectively
//! independent shards, then reduces modulo the shard count. Stateless and
//! pure: the same id always routes to the same shard, which is what keeps
//! each vehicle's pipeline confined to exactly one shard.

/// Routes vehicle ids to one of `n_shards` shards.
#[derive(Debug, Clone, Copy)]
pub struct ShardRouter {
    n_shards: u64,
}

impl ShardRouter {
    /// Creates a router over `n_shards` (≥ 1) shards.
    pub fn new(n_shards: usize) -> Self {
        assert!(n_shards >= 1, "need at least one shard");
        ShardRouter { n_shards: n_shards as u64 }
    }

    /// The shard owning `vehicle`. Always `< n_shards`.
    pub fn route(&self, vehicle: u32) -> usize {
        // SplitMix64 finaliser: full 64-bit avalanche in three rounds.
        let mut z = u64::from(vehicle).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z % self.n_shards) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_stay_in_range_and_are_stable() {
        for n in [1usize, 2, 3, 8, 13] {
            let r = ShardRouter::new(n);
            for v in 0..500u32 {
                let s = r.route(v);
                assert!(s < n, "shard {s} out of range for {n} shards");
                assert_eq!(s, r.route(v), "routing must be deterministic");
            }
        }
    }

    #[test]
    fn single_shard_takes_everything() {
        let r = ShardRouter::new(1);
        assert!((0..100).all(|v| r.route(v) == 0));
    }

    #[test]
    fn sequential_ids_spread_over_shards() {
        // 40 sequential ids (a fleetsim fleet) over 4 shards: every shard
        // must see some traffic — the avalanche breaks the stripe pattern.
        let r = ShardRouter::new(4);
        let mut seen = [0usize; 4];
        for v in 0..40u32 {
            seen[r.route(v)] += 1;
        }
        assert!(seen.iter().all(|&c| c > 0), "empty shard in {seen:?}");
    }
}
