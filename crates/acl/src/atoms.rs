//! Predicate-refinement partitioning: the engine behind FEC, AEC and DEC
//! derivation.
//!
//! Given a universe of traffic and a family of predicates (each an exact
//! [`PacketSet`]), [`refine`] computes the partition of the universe into
//! *atoms*: maximal sets on which every predicate is constant. Two packets
//! land in the same atom iff every predicate agrees on them — exactly the
//! equivalence classes of §4.1 (predicates = forwarding models `g`), §5.1
//! (predicates = ACL permit-sets) and §5.3 (both together).
//!
//! The worst case is `2^n` atoms, but — as §9 of the paper observes — real
//! (and realistic synthetic) rule sets are convergent and the growth stays
//! polynomial; we additionally expose [`RefineLimits`] so callers can bound
//! the work and fail loudly rather than melt.

use crate::set::PacketSet;

/// Caps on the refinement computation.
#[derive(Debug, Clone, Copy)]
pub struct RefineLimits {
    /// Maximum number of atoms before giving up.
    pub max_classes: usize,
}

impl Default for RefineLimits {
    fn default() -> RefineLimits {
        RefineLimits {
            max_classes: 1_000_000,
        }
    }
}

/// Error: the class count exceeded [`RefineLimits::max_classes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassExplosion {
    /// The limit that was exceeded.
    pub limit: usize,
    /// How many predicates had been applied when the limit tripped.
    pub predicates_done: usize,
}

impl std::fmt::Display for ClassExplosion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "equivalence class explosion: more than {} classes after {} predicates",
            self.limit, self.predicates_done
        )
    }
}

impl std::error::Error for ClassExplosion {}

/// One equivalence class: the packets on which every supplied predicate is
/// constant.
#[derive(Debug, Clone)]
pub struct AtomClass {
    /// The packets in the class.
    pub set: PacketSet,
}

/// Drop duplicate predicates (syntactically identical cube lists). Two
/// equal predicates refine identically, so deduplication preserves the atom
/// partition while skipping whole refinement passes — FIB-derived
/// forwarding predicates in symmetric topologies are frequently identical
/// across devices.
pub fn dedupe_predicates(predicates: Vec<PacketSet>) -> Vec<PacketSet> {
    use std::collections::HashSet;
    let mut seen: HashSet<Vec<crate::cube::Cube>> = HashSet::new();
    let mut out = Vec::with_capacity(predicates.len());
    for p in predicates {
        let mut key = p.cubes().to_vec();
        key.sort_unstable();
        if seen.insert(key) {
            out.push(p);
        }
    }
    out
}

/// Partition `universe` into atoms of the given predicates.
///
/// Every returned class is non-empty; classes are pairwise disjoint and
/// cover `universe`; each predicate is constant on each class.
pub fn refine(
    universe: &PacketSet,
    predicates: &[PacketSet],
    limits: RefineLimits,
) -> Result<Vec<AtomClass>, ClassExplosion> {
    let mut classes: Vec<AtomClass> = Vec::new();
    if universe.is_empty() {
        return Ok(classes);
    }
    classes.push(AtomClass {
        set: universe.clone(),
    });
    for (pi, pred) in predicates.iter().enumerate() {
        let mut next: Vec<AtomClass> = Vec::with_capacity(classes.len());
        for class in classes {
            let inside = class.set.intersect(pred);
            if inside.is_empty() {
                next.push(class);
                continue;
            }
            let outside = class.set.subtract(pred);
            if outside.is_empty() {
                next.push(class);
            } else {
                // Splitting fragments representations; keep them compact
                // (coalesce is exact) so later passes and consumers stay
                // fast.
                next.push(AtomClass {
                    set: compact(inside),
                });
                next.push(AtomClass {
                    set: compact(outside),
                });
            }
            if next.len() > limits.max_classes {
                return Err(ClassExplosion {
                    limit: limits.max_classes,
                    predicates_done: pi + 1,
                });
            }
        }
        classes = next;
    }
    Ok(classes)
}

/// Re-compress a class representation when it has fragmented.
fn compact(set: PacketSet) -> PacketSet {
    if set.cube_count() > 24 {
        set.coalesce()
    } else {
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::Cube;
    use crate::interval::Interval;
    use crate::packet::Field;

    fn dst(lo: u64, hi: u64) -> PacketSet {
        PacketSet::from_cube(Cube::full().with(Field::DstIp, Interval::new(lo, hi)))
    }

    #[test]
    fn no_predicates_yields_universe() {
        let u = dst(0, 100);
        let classes = refine(&u, &[], RefineLimits::default()).unwrap();
        assert_eq!(classes.len(), 1);
        assert!(classes[0].set.same_set(&u));
    }

    #[test]
    fn single_predicate_splits_in_two() {
        let u = dst(0, 100);
        let p = dst(30, 60);
        let classes = refine(&u, std::slice::from_ref(&p), RefineLimits::default()).unwrap();
        assert_eq!(classes.len(), 2);
        let inside = classes.iter().find(|c| c.set.is_subset(&p)).unwrap();
        let outside = classes.iter().find(|c| !c.set.intersects(&p)).unwrap();
        assert!(inside.set.same_set(&dst(30, 60)));
        assert!(outside.set.same_set(&dst(0, 29).union(&dst(61, 100))));
    }

    #[test]
    fn partition_properties_hold() {
        let u = dst(0, 1000);
        let preds = vec![dst(0, 499), dst(250, 750), dst(900, 2000)];
        let classes = refine(&u, &preds, RefineLimits::default()).unwrap();
        // Non-empty, pairwise disjoint, covering, predicate-constant.
        let mut cover = PacketSet::empty();
        for (i, c) in classes.iter().enumerate() {
            assert!(!c.set.is_empty());
            for d in &classes[i + 1..] {
                assert!(!c.set.intersects(&d.set));
            }
            cover = cover.union(&c.set);
            for p in &preds {
                assert!(c.set.is_subset(p) || !c.set.intersects(p));
            }
        }
        assert!(cover.same_set(&u));
    }

    #[test]
    fn figure1_fec_class_structure() {
        // Figure 1: traffic 1..7 (dst prefixes 1/8..7/8); the forwarding
        // predicates collapse {2,3} and {5,6}. We model the g predicates
        // loosely: the refinement must produce the five FECs of §4.1.
        let block = |n: u64| dst(n << 24, ((n + 1) << 24) - 1);
        let universe = dst(1 << 24, (8 << 24) - 1);
        // Predicates distinguishing the classes as in the example:
        let preds = vec![
            block(1),                  // traffic 1 routes alone
            block(2).union(&block(3)), // 2,3 share all forwarding
            block(4),
            block(5).union(&block(6)),
            block(7),
        ];
        let classes = refine(&universe, &preds, RefineLimits::default()).unwrap();
        assert_eq!(classes.len(), 5);
    }

    #[test]
    fn explosion_guard_trips() {
        // Predicate k = "bit (31-k) of dst is set": 6 independent bits give
        // 2^6 atoms, tripping a limit of 10.
        let u = PacketSet::full();
        let preds: Vec<PacketSet> = (0..6u32)
            .map(|k| {
                // Union of all prefixes of length k+1 whose (k+1)-th bit is 1.
                let cubes: Vec<Cube> = (0..(1u64 << k))
                    .map(|upper| {
                        let addr = (upper << (32 - k)) | (1u64 << (31 - k));
                        Cube::full().with(Field::DstIp, Interval::from_prefix(addr, k + 1, 32))
                    })
                    .collect();
                PacketSet::from_cubes(cubes)
            })
            .collect();
        let err = refine(&u, &preds, RefineLimits { max_classes: 10 }).unwrap_err();
        assert_eq!(err.limit, 10);
    }

    #[test]
    fn empty_universe_yields_no_classes() {
        let classes = refine(&PacketSet::empty(), &[dst(0, 5)], RefineLimits::default()).unwrap();
        assert!(classes.is_empty());
    }

    #[test]
    fn refine_class_subdivides() {
        // How DECs are carved out of an unsolved AEC (§5.3): the class is
        // the universe of a second refinement.
        let class = dst(0, 99);
        let sub = refine(&class, &[dst(0, 49)], RefineLimits::default()).unwrap();
        assert_eq!(sub.len(), 2);
    }
}
