//! Consistent-hash partitioning of the equivalence-class space.
//!
//! The shard coordinator splits the FEC space across N backend verifiers by
//! hashing each class's packet-set onto a consistent-hash ring. The ring
//! (not a plain `hash % N`) is deliberate: adding or removing a shard moves
//! only ~1/N of the classes, so a warm backend fleet keeps most of its
//! per-class solver state useful across re-sharding.
//!
//! Everything here is deterministic and process-independent: the class key
//! is an FNV-1a hash of the class's *canonical cube rendering* (field
//! values only, no addresses), and the ring points are FNV-1a hashes of
//! `(shard index, virtual node)` pairs. Coordinator and backends therefore
//! agree on ownership by construction — no ownership table crosses the
//! wire.
//!
//! Ownership is **total and disjoint**: every key has exactly one owner,
//! so for any shard count the per-shard candidate subsets partition the
//! global candidate list. That is the property the byte-identity merge
//! contract (and the ruler's `shard.duplication_ratio` of 1) rests on.

use crate::set::PacketSet;

/// Virtual nodes per shard on the ring. Enough to keep the largest/smallest
/// shard load within a few percent of each other at small shard counts,
/// cheap enough to rebuild on every [`ShardSpec::new`].
pub const VNODES_PER_SHARD: usize = 40;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte string, seeded so distinct key spaces (ring points
/// vs. class keys) cannot collide structurally. The raw FNV state is run
/// through an avalanche finalizer: short zero-padded inputs (shard/vnode
/// indices) otherwise land within a narrow band of the u64 space and the
/// ring degenerates to a single owner.
fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET ^ seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    mix(h)
}

/// 64-bit avalanche finalizer (the murmur3/splitmix constants): every input
/// bit flips about half the output bits, spreading ring points and keys
/// uniformly over the full u64 circle.
fn mix(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// The stable hash key of an equivalence class: FNV-1a over the canonical
/// rendering of the class's cube list. `PacketSet`s are kept in canonical
/// cube order by the set algebra, so equal sets hash equally in every
/// process.
pub fn class_key(set: &PacketSet) -> u64 {
    let mut h = FNV_OFFSET ^ 0x636c_6173_735f_6b65; // "class_ke"
    for cube in set.cubes() {
        h = fnv1a(h, format!("{cube:?}").as_bytes());
    }
    h
}

/// The stable hash key of an arbitrary string (used to distribute per-slot
/// and per-tenant lint work the same way classes are distributed).
pub fn str_key(s: &str) -> u64 {
    fnv1a(0x6c69_6e74_5f6b_6579, s.as_bytes())
}

/// One shard's identity within an N-shard partition, plus the shared ring.
///
/// Cloning is cheap-ish (the ring is `VNODES_PER_SHARD · count` points);
/// configs that embed a spec clone it per run, not per class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    index: usize,
    count: usize,
    /// `(point, shard)` sorted by point; ties broken by shard index so the
    /// ring is a total order.
    ring: Vec<(u64, usize)>,
}

impl ShardSpec {
    /// The spec for shard `index` of `count`. Panics if `index >= count`
    /// or `count == 0` — shard topology is operator input validated at the
    /// CLI/HTTP boundary, so an out-of-range spec here is a programming
    /// error.
    pub fn new(index: usize, count: usize) -> ShardSpec {
        assert!(count > 0, "shard count must be positive");
        assert!(
            index < count,
            "shard index {index} out of range for {count} shard(s)"
        );
        let mut ring = Vec::with_capacity(count * VNODES_PER_SHARD);
        for shard in 0..count {
            for vnode in 0..VNODES_PER_SHARD {
                let mut bytes = [0u8; 16];
                bytes[..8].copy_from_slice(&(shard as u64).to_be_bytes());
                bytes[8..].copy_from_slice(&(vnode as u64).to_be_bytes());
                ring.push((fnv1a(0x7269_6e67_5f70_7431, &bytes), shard));
            }
        }
        ring.sort_unstable();
        ShardSpec { index, count, ring }
    }

    /// This shard's index (0-based).
    pub fn index(&self) -> usize {
        self.index
    }

    /// Total shards in the partition.
    pub fn count(&self) -> usize {
        self.count
    }

    /// `true` for shard 0 — the shard that owns partition-global work
    /// (program-level lint passes, network-wide findings) which must run
    /// exactly once.
    pub fn is_primary(&self) -> bool {
        self.index == 0
    }

    /// The shard that owns `key`: the first ring point clockwise from the
    /// key (wrapping).
    pub fn owner_of(&self, key: u64) -> usize {
        let i = self.ring.partition_point(|&(p, _)| p < key);
        let (_, shard) = self.ring[if i == self.ring.len() { 0 } else { i }];
        shard
    }

    /// Does this shard own the class with the given packet-set?
    pub fn owns_class(&self, set: &PacketSet) -> bool {
        self.owner_of(class_key(set)) == self.index
    }

    /// Does this shard own the work keyed by the given string (slot
    /// location, tenant name, tenant pair)?
    pub fn owns_str(&self, s: &str) -> bool {
        self.owner_of(str_key(s)) == self.index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_rule;
    use crate::set::PacketSet;

    fn set_of(rule: &str) -> PacketSet {
        PacketSet::from_cube(parse_rule(rule).unwrap().matches.cube())
    }

    #[test]
    fn single_shard_owns_everything() {
        let s = ShardSpec::new(0, 1);
        for key in [0u64, 1, u64::MAX, 0xdead_beef] {
            assert_eq!(s.owner_of(key), 0);
        }
        assert!(s.owns_class(&set_of("deny dst 1.0.0.0/8")));
        assert!(s.owns_str("A:1-in"));
        assert!(s.is_primary());
    }

    #[test]
    fn ownership_is_total_and_disjoint() {
        let count = 4;
        let specs: Vec<ShardSpec> = (0..count).map(|i| ShardSpec::new(i, count)).collect();
        let sets: Vec<PacketSet> = (0..32)
            .map(|i| set_of(&format!("deny dst {}.0.0.0/8", i + 1)))
            .collect();
        for set in &sets {
            let owners: Vec<usize> = specs
                .iter()
                .filter(|s| s.owns_class(set))
                .map(ShardSpec::index)
                .collect();
            assert_eq!(owners.len(), 1, "exactly one owner per class: {owners:?}");
        }
    }

    #[test]
    fn all_shards_agree_on_the_ring() {
        let a = ShardSpec::new(0, 3);
        let b = ShardSpec::new(2, 3);
        for key in [0u64, 42, u64::MAX / 2, u64::MAX] {
            assert_eq!(a.owner_of(key), b.owner_of(key));
        }
    }

    #[test]
    fn load_spreads_across_shards() {
        let count = 4;
        let spec = ShardSpec::new(0, count);
        let mut loads = vec![0usize; count];
        for i in 0..200u64 {
            loads[spec.owner_of(fnv1a(7, &i.to_be_bytes()))] += 1;
        }
        for (shard, &n) in loads.iter().enumerate() {
            assert!(n > 0, "shard {shard} owns nothing: {loads:?}");
        }
    }

    #[test]
    fn class_key_is_content_based() {
        let a = set_of("deny dst 1.0.0.0/8");
        let b = set_of("deny dst 1.0.0.0/8");
        let c = set_of("deny dst 2.0.0.0/8");
        assert_eq!(class_key(&a), class_key(&b));
        assert_ne!(class_key(&a), class_key(&c));
    }

    #[test]
    fn growing_the_ring_moves_a_minority_of_keys() {
        let four = ShardSpec::new(0, 4);
        let five = ShardSpec::new(0, 5);
        let total = 500u64;
        let moved = (0..total)
            .filter(|i| {
                let k = fnv1a(99, &i.to_be_bytes());
                four.owner_of(k) != five.owner_of(k)
            })
            .count();
        // Consistent hashing: ~1/5 of keys move; a modulo partition would
        // move ~4/5. Allow generous slack.
        assert!(
            moved * 2 < total as usize,
            "{moved}/{total} keys moved — not consistent"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        let _ = ShardSpec::new(3, 3);
    }
}
