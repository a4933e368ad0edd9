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
//!
//! **Refinement on a projection.** A predicate pass asks, per class, one
//! question: is the predicate constant on it, and if not, what are the two
//! halves? Most predicates constrain one field only — every forwarding
//! predicate is `D × full` with `D` a set of destination intervals, because
//! FIBs route on the destination. For such a predicate the question is
//! decided on that field alone: `D` is built once as its sorted maximal
//! runs, and a class cube meets the predicate iff its interval meets a run
//! and lies inside it iff its interval lies inside one run — one binary
//! search per class cube, exact for class cubes of any shape. Only the
//! classes that split are carved, by the same intersect / subtract /
//! compact steps every other predicate takes, so the partition — classes,
//! their order and their cube lists — is the one the plain loop derives.

use crate::interval::Interval;
use crate::packet::Field;
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
        let projection = Projection::of(pred);
        let mut next: Vec<AtomClass> = Vec::with_capacity(classes.len());
        for class in classes {
            match projection.as_ref().map(|d| d.relation(&class.set)) {
                Some(Relation::Disjoint) => {
                    next.push(class);
                    continue;
                }
                Some(Relation::Inside) => next.push(class),
                Some(Relation::Split) | None => {
                    let inside = class.set.intersect(pred);
                    if inside.is_empty() {
                        next.push(class);
                        continue;
                    }
                    let outside = class.set.subtract(pred);
                    if outside.is_empty() {
                        next.push(class);
                    } else {
                        // Splitting fragments representations; keep them
                        // compact (coalesce is exact) so later passes and
                        // consumers stay fast.
                        next.push(AtomClass {
                            set: compact(inside),
                        });
                        next.push(AtomClass {
                            set: compact(outside),
                        });
                    }
                }
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

/// How a predicate relates to one class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Relation {
    /// No packet of the class satisfies the predicate.
    Disjoint,
    /// Every packet of the class satisfies the predicate.
    Inside,
    /// The predicate is not constant on the class.
    Split,
}

/// A predicate of the shape `D × full`: every cube is full in every field
/// but `field`, and `runs` are the maximal intervals of `D`.
#[derive(Debug)]
struct Projection {
    field: Field,
    runs: Vec<Interval>,
}

impl Projection {
    /// The projection of `pred`, or `None` when it constrains two or more
    /// fields. A predicate constraining no field (empty, or full) projects
    /// onto the destination.
    fn of(pred: &PacketSet) -> Option<Projection> {
        let mut field = None;
        for c in pred.cubes() {
            for f in Field::ALL {
                if !c.get(f).is_full(f) && *field.get_or_insert(f) != f {
                    return None;
                }
            }
        }
        let field = field.unwrap_or(Field::DstIp);
        let runs = Interval::runs(pred.cubes().iter().map(|c| c.get(field)).collect());
        Some(Projection { field, runs })
    }

    /// The predicate's relation to `class`, decided on `field` alone: a
    /// class cube meets `D × full` iff its interval meets a run, and lies
    /// inside it iff its interval lies inside one run (runs are maximal).
    fn relation(&self, class: &PacketSet) -> Relation {
        let (mut meets, mut inside) = (false, true);
        for c in class.cubes() {
            let iv = c.get(self.field);
            // Only the last run starting at or before the interval's end
            // can meet it or hold it; every earlier run ends before it.
            let at = self.runs.partition_point(|r| r.lo() <= iv.hi());
            match at.checked_sub(1).map(|i| self.runs[i]) {
                Some(run) if run.hi() >= iv.lo() => {
                    meets = true;
                    inside &= iv.is_subset(&run);
                }
                _ => inside = false,
            }
            if meets && !inside {
                return Relation::Split;
            }
        }
        if meets {
            Relation::Inside
        } else {
            Relation::Disjoint
        }
    }
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

    fn dst(lo: u64, hi: u64) -> PacketSet {
        PacketSet::from_cube(Cube::full().with(Field::DstIp, Interval::new(lo, hi)))
    }

    fn cubes(cubes: Vec<Cube>) -> PacketSet {
        PacketSet::from_cubes_raw(cubes)
    }

    /// The relation `pred` projects to, checked against the set algebra.
    fn relation(pred: &PacketSet, class: &PacketSet) -> Relation {
        let got = Projection::of(pred)
            .expect("a one-field predicate")
            .relation(class);
        let exact = if !class.intersects(pred) {
            Relation::Disjoint
        } else if class.is_subset(pred) {
            Relation::Inside
        } else {
            Relation::Split
        };
        assert_eq!(got, exact, "{pred} vs class {class}");
        got
    }

    #[test]
    fn adjacent_predicate_cubes_merge_into_one_run() {
        let pred = dst(10, 19).union(&dst(20, 29));
        assert_eq!(pred.cube_count(), 2);
        let d = Projection::of(&pred).unwrap();
        assert_eq!(
            (d.field, d.runs),
            (Field::DstIp, vec![Interval::new(10, 29)])
        );
        assert_eq!(relation(&pred, &dst(15, 25)), Relation::Inside);
        assert_eq!(relation(&pred, &dst(10, 29)), Relation::Inside);
        assert_eq!(relation(&pred, &dst(5, 25)), Relation::Split);
        assert_eq!(relation(&pred, &dst(30, 40)), Relation::Disjoint);
    }

    #[test]
    fn runs_touching_both_ends_of_the_field() {
        let max = Field::DstIp.max_value();
        let pred = dst(max - 9, max).union(&dst(0, 9));
        let d = Projection::of(&pred).unwrap();
        assert_eq!(
            d.runs,
            vec![Interval::new(0, 9), Interval::new(max - 9, max)]
        );
        assert_eq!(relation(&pred, &dst(0, 0)), Relation::Inside);
        assert_eq!(relation(&pred, &dst(max, max)), Relation::Inside);
        assert_eq!(relation(&pred, &dst(10, max - 10)), Relation::Disjoint);
        assert_eq!(relation(&pred, &dst(0, max)), Relation::Split);
        assert_eq!(relation(&pred, &dst(max - 10, max)), Relation::Split);
        let full = Projection::of(&PacketSet::full()).unwrap();
        assert_eq!(full.runs, vec![Interval::full(Field::DstIp)]);
        assert_eq!(relation(&PacketSet::full(), &dst(0, max)), Relation::Inside);
    }

    #[test]
    fn a_class_straddling_a_gap_splits() {
        let pred = dst(0, 9).union(&dst(20, 29));
        assert_eq!(relation(&pred, &dst(5, 25)), Relation::Split);
        assert_eq!(relation(&pred, &dst(9, 20)), Relation::Split);
        assert_eq!(relation(&pred, &dst(10, 19)), Relation::Disjoint);
        // Each cube inside its own run: the class is inside the predicate.
        assert_eq!(
            relation(&pred, &dst(0, 9).union(&dst(20, 29))),
            Relation::Inside
        );
        // One cube inside, one outside.
        assert_eq!(
            relation(&pred, &dst(0, 9).union(&dst(12, 15))),
            Relation::Split
        );
    }

    #[test]
    fn multi_field_class_cubes_under_a_one_field_predicate() {
        let web = Cube::full()
            .with(Field::DstIp, Interval::new(0, 9))
            .with(Field::DstPort, Interval::singleton(80))
            .with(Field::Proto, Interval::singleton(6));
        let class = cubes(vec![web, web.with(Field::SrcPort, Interval::new(0, 1023))]);
        assert_eq!(relation(&dst(0, 49), &class), Relation::Inside);
        assert_eq!(relation(&dst(5, 49), &class), Relation::Split);
        assert_eq!(relation(&dst(10, 49), &class), Relation::Disjoint);
        // The projection follows whichever field the predicate constrains.
        let sport = |lo, hi| {
            cubes(vec![
                Cube::full().with(Field::SrcPort, Interval::new(lo, hi))
            ])
        };
        assert_eq!(Projection::of(&sport(0, 1)).unwrap().field, Field::SrcPort);
        assert_eq!(relation(&sport(0, 1023), &class), Relation::Split);
        assert_eq!(relation(&sport(1024, 2047), &class), Relation::Split);
        let low = cubes(vec![web.with(Field::SrcPort, Interval::new(0, 1023))]);
        assert_eq!(relation(&sport(0, 1023), &low), Relation::Inside);
        assert_eq!(relation(&sport(1024, 2047), &low), Relation::Disjoint);
    }

    #[test]
    fn predicates_on_two_fields_do_not_project() {
        let both = Cube::full()
            .with(Field::DstIp, Interval::new(0, 9))
            .with(Field::DstPort, Interval::singleton(80));
        assert!(Projection::of(&cubes(vec![both])).is_none());
        let across = cubes(vec![
            Cube::full().with(Field::DstIp, Interval::new(0, 9)),
            Cube::full().with(Field::SrcPort, Interval::new(0, 9)),
        ]);
        assert!(Projection::of(&across).is_none());
    }

    #[test]
    fn an_empty_predicate_is_disjoint_from_every_class() {
        let d = Projection::of(&PacketSet::empty()).unwrap();
        assert!(d.runs.is_empty());
        assert_eq!(
            relation(&PacketSet::empty(), &dst(0, 9)),
            Relation::Disjoint
        );
        let u = dst(0, 100);
        let classes = refine(&u, &[PacketSet::empty()], RefineLimits::default()).unwrap();
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].set, u);
    }

    #[test]
    fn the_guard_trips_at_the_same_predicate_index_on_both_paths() {
        // Limit 2. The second predicate splits the first class and misses
        // the second, so the pass ends with three classes — the guard is
        // not consulted after a disjoint class. The third predicate holds
        // every class and trips it on the third push.
        let u = cubes(vec![Cube::full()
            .with(Field::DstIp, Interval::new(0, 99))
            .with(Field::SrcPort, Interval::new(0, 999))]);
        let one_field = vec![dst(50, 99), dst(50, 59), dst(0, 99)];
        let two_fields: Vec<PacketSet> = one_field
            .iter()
            .map(|p| p.intersect(&u))
            .inspect(|p| assert!(Projection::of(p).is_none()))
            .collect();
        for family in [one_field, two_fields] {
            let err = refine(&u, &family, RefineLimits { max_classes: 2 }).unwrap_err();
            assert_eq!(err.predicates_done, 3);
        }
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
        // 8 classes after three passes; the fourth trips on its third split.
        assert_eq!(err.predicates_done, 4);
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
