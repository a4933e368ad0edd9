//! Property tests for the exact packet-set algebra — the foundation every
//! primitive builds on. The generators produce structured cubes (prefix-
//! and range-shaped, like real rules) as well as arbitrary intervals.

mod cases;
mod refine_reference;

use jinjing_acl::atoms::{refine, RefineLimits};
use jinjing_acl::cube::Cube;
use jinjing_acl::decompose::{matchspecs_to_set, set_to_matchspecs};
use jinjing_acl::interval::Interval;
use jinjing_acl::packet::{Field, Packet};
use jinjing_acl::set::PacketSet;
use rand::rngs::StdRng;
use rand::RngExt;

const SUITE: &str = "prop_set_algebra";
const CASES: u64 = 48;

/// An arbitrary interval within a field's domain.
fn interval(rng: &mut StdRng, field: Field) -> Interval {
    let lo = rng.random_range(0..=field.max_value());
    Interval::new(lo, rng.random_range(lo..=field.max_value()))
}

/// A biased interval: often the full domain (like real rules).
fn field_interval(rng: &mut StdRng, field: Field) -> Interval {
    if rng.random_range(0..5u32) < 3 {
        Interval::full(field)
    } else {
        interval(rng, field)
    }
}

fn cube(rng: &mut StdRng) -> Cube {
    let fields = [
        Field::SrcIp,
        Field::DstIp,
        Field::SrcPort,
        Field::DstPort,
        Field::Proto,
    ];
    Cube::from_fields(fields.map(|f| field_interval(rng, f)))
}

fn packet_set(rng: &mut StdRng) -> PacketSet {
    let cubes = rng.random_range(0..3usize);
    PacketSet::from_cubes((0..cubes).map(|_| cube(rng)).collect())
}

fn packet(rng: &mut StdRng) -> Packet {
    Packet::new(
        rng.random_range(0..=u32::MAX),
        rng.random_range(0..=u32::MAX),
        rng.random_range(0..=u32::from(u16::MAX)) as u16,
        rng.random_range(0..=u32::from(u16::MAX)) as u16,
        rng.random_range(0..=u32::from(u8::MAX)) as u8,
    )
}

fn two_sets(rng: &mut StdRng) -> (PacketSet, PacketSet) {
    (packet_set(rng), packet_set(rng))
}

/// Membership distributes over the boolean operations.
#[test]
fn membership_laws() {
    let generate = |rng: &mut StdRng| (packet_set(rng), packet_set(rng), packet(rng));
    cases::run(SUITE, "membership_laws", CASES, generate, |(a, b, p)| {
        let in_a = a.contains(p);
        let in_b = b.contains(p);
        assert_eq!(a.union(b).contains(p), in_a || in_b);
        assert_eq!(a.intersect(b).contains(p), in_a && in_b);
        assert_eq!(a.subtract(b).contains(p), in_a && !in_b);
        assert_eq!(a.complement().contains(p), !in_a);
    });
}

/// De Morgan over the exact representation.
#[test]
fn de_morgan() {
    cases::run(SUITE, "de_morgan", CASES, two_sets, |(a, b)| {
        let lhs = a.union(b).complement();
        let rhs = a.complement().intersect(&b.complement());
        assert!(lhs.same_set(&rhs));
    });
}

/// |A| + |B| = |A ∪ B| + |A ∩ B|.
#[test]
fn inclusion_exclusion() {
    cases::run(SUITE, "inclusion_exclusion", CASES, two_sets, |(a, b)| {
        let union = a.union(b).count();
        let inter = a.intersect(b).count();
        assert_eq!(a.count() + b.count(), union + inter);
    });
}

/// Subtraction partitions: A = (A∖B) ⊎ (A∩B).
#[test]
fn subtract_partitions() {
    cases::run(SUITE, "subtract_partitions", CASES, two_sets, |(a, b)| {
        let diff = a.subtract(b);
        let inter = a.intersect(b);
        assert!(!diff.intersects(&inter) || inter.is_empty());
        assert!(diff.union(&inter).same_set(a));
        assert_eq!(diff.count() + inter.count(), a.count());
    });
}

/// Subset is a partial order consistent with subtraction emptiness.
#[test]
fn subset_consistency() {
    cases::run(SUITE, "subset_consistency", CASES, two_sets, |(a, b)| {
        assert_eq!(a.is_subset(b), a.subtract(b).is_empty());
        assert!(a.intersect(b).is_subset(a));
        assert!(a.is_subset(&a.union(b)));
        // The single-cube forms answer as the set forms do, also against a
        // representation no single cube of which covers the candidate.
        let shattered = a.subtract(b).union(&a.intersect(b));
        for c in a.cubes() {
            let alone = PacketSet::from_cube(*c);
            assert_eq!(b.covers(c), alone.is_subset(b));
            assert_eq!(b.meets(c), alone.intersects(b));
            assert!(shattered.covers(c));
        }
        assert!(a.subtract(b).cubes().iter().all(|c| !b.meets(c)));
    });
}

/// A non-empty set yields a witness that is a member.
#[test]
fn sample_soundness() {
    cases::run(SUITE, "sample_soundness", CASES, packet_set, |a| {
        match a.sample() {
            Some(p) => assert!(a.contains(&p)),
            None => assert!(a.is_empty()),
        }
    });
}

/// Coalescing never changes the denoted set and never grows it.
#[test]
fn coalesce_preserves() {
    cases::run(SUITE, "coalesce_preserves", CASES, packet_set, |a| {
        let c = a.coalesce();
        assert!(c.same_set(a));
        assert!(
            c.cube_count()
                <= a.subtract(&PacketSet::empty())
                    .cube_count()
                    .max(a.cube_count())
        );
    });
}

/// Decomposing into rule tuples and reassembling is the identity.
#[test]
fn decompose_roundtrip() {
    cases::run(SUITE, "decompose_roundtrip", CASES, packet_set, |a| {
        let specs = set_to_matchspecs(a);
        assert!(matchspecs_to_set(&specs).same_set(a));
    });
}

/// Double complement is the identity.
#[test]
fn double_complement() {
    cases::run(SUITE, "double_complement", CASES, packet_set, |a| {
        assert!(a.complement().complement().same_set(a));
    });
}

/// An interval whose ends are drawn from a few landmarks of the field (its
/// ends, its middle and their neighbours), so that random intervals often
/// touch, abut, nest and coincide.
fn landmark_interval(rng: &mut StdRng, field: Field) -> Interval {
    let max = field.max_value();
    let marks = [
        0,
        1,
        max / 4,
        max / 4 + 1,
        max / 2,
        max / 2 + 1,
        max - 1,
        max,
    ];
    let (a, b) = (
        marks[rng.random_range(0..marks.len())],
        marks[rng.random_range(0..marks.len())],
    );
    Interval::new(a.min(b), a.max(b))
}

/// A cube constraining a random subset of the fields on landmarks.
fn landmark_cube(rng: &mut StdRng) -> Cube {
    Field::ALL.iter().fold(Cube::full(), |c, &f| {
        if rng.random_range(0..2u32) == 0 {
            c.with(f, landmark_interval(rng, f))
        } else {
            c
        }
    })
}

/// A predicate of the shape `D × full` on one field: dst like a forwarding
/// predicate, but also sport or proto.
fn one_field_predicate(rng: &mut StdRng) -> PacketSet {
    let field = [Field::DstIp, Field::SrcPort, Field::Proto][rng.random_range(0..3usize)];
    let n = rng.random_range(0..4usize);
    PacketSet::from_cubes(
        (0..n)
            .map(|_| Cube::full().with(field, landmark_interval(rng, field)))
            .collect(),
    )
}

/// A universe over several fields and a family mixing one-field predicates
/// with predicates on several fields, and a class limit that is sometimes
/// small enough to trip.
fn refinement(rng: &mut StdRng) -> (PacketSet, Vec<PacketSet>, usize) {
    let universe = (0..rng.random_range(1..4usize))
        .map(|_| landmark_cube(rng).with(Field::DstIp, landmark_interval(rng, Field::DstIp)))
        .collect();
    let family = (0..rng.random_range(1..9usize))
        .map(|_| {
            if rng.random_range(0..3u32) == 0 {
                PacketSet::from_cubes(
                    (0..rng.random_range(1..3usize))
                        .map(|_| landmark_cube(rng))
                        .collect(),
                )
            } else {
                one_field_predicate(rng)
            }
        })
        .collect();
    let limit = if rng.random_range(0..2u32) == 0 {
        rng.random_range(1..12usize)
    } else {
        usize::MAX
    };
    (PacketSet::from_cubes(universe), family, limit)
}

/// Refinement derives the plain loop's partition: the same classes in the
/// same order with the same cube lists, and the same guard trip.
#[test]
fn refinement_is_the_plain_loop() {
    cases::run(
        SUITE,
        "refinement_is_the_plain_loop",
        CASES * 8,
        refinement,
        |(u, family, limit)| {
            let limits = RefineLimits {
                max_classes: *limit,
            };
            let got = refine(u, family, limits)
                .map(|classes| classes.into_iter().map(|c| c.set).collect::<Vec<_>>())
                .map_err(|e| e.predicates_done);
            assert_eq!(got, refine_reference::refine(u, family, *limit));
        },
    );
}

/// `Cube::subtract` as it was written before `subtract_into`: per field, the
/// parts of the carry inside the field complement of `other`.
fn reference_subtract(a: &Cube, b: &Cube) -> Vec<Cube> {
    if a.intersect(b).is_none() {
        return vec![*a];
    }
    let mut out = Vec::new();
    let mut carry = *a;
    for f in Field::ALL {
        for outside in b.get(f).complement(f) {
            if let Some(piece) = carry.get(f).intersect(&outside) {
                out.push(carry.with(f, piece));
            }
        }
        carry = carry.with(f, carry.get(f).intersect(&b.get(f)).unwrap());
    }
    out
}

/// `subtract_into` appends exactly the pieces `subtract` returns, which are
/// the pieces of the complement-based carve.
#[test]
fn subtract_into_is_subtract() {
    let generate = |rng: &mut StdRng| (landmark_cube(rng), landmark_cube(rng), cube(rng));
    cases::run(
        SUITE,
        "subtract_into_is_subtract",
        CASES * 4,
        generate,
        |(a, b, before)| {
            let pieces = a.subtract(b);
            assert_eq!(pieces, reference_subtract(a, b));
            let mut out = vec![*before];
            a.subtract_into(b, &mut out);
            assert_eq!(out[0], *before);
            assert_eq!(out[1..], pieces[..]);
        },
    );
}

/// A cube inside `c`: some fields narrowed to a random sub-interval.
fn sub_cube(rng: &mut StdRng, c: &Cube) -> Cube {
    Field::ALL.iter().fold(*c, |acc, &f| {
        if rng.random_range(0..2u32) == 0 {
            let iv = c.get(f);
            let lo = rng.random_range(iv.lo()..=iv.hi());
            acc.with(f, Interval::new(lo, rng.random_range(lo..=iv.hi())))
        } else {
            acc
        }
    })
}

/// Unpruned cube lists over several fields whose cubes often repeat, nest
/// inside or swallow earlier ones, and which often repeat a whole earlier
/// set.
fn union_operands(rng: &mut StdRng) -> Vec<PacketSet> {
    let mut sets: Vec<PacketSet> = Vec::new();
    let mut drawn: Vec<Cube> = Vec::new();
    for _ in 0..rng.random_range(0..8usize) {
        if !sets.is_empty() && rng.random_range(0..4u32) == 0 {
            let again = sets[rng.random_range(0..sets.len())].clone();
            sets.push(again);
            continue;
        }
        let mut cubes = Vec::new();
        for _ in 0..rng.random_range(0..5usize) {
            let earlier = (!drawn.is_empty()).then(|| drawn[rng.random_range(0..drawn.len())]);
            let c = match (rng.random_range(0..4u32), earlier) {
                (0, Some(e)) => e,
                (1, Some(e)) => sub_cube(rng, &e),
                (2, Some(e)) => {
                    let f = Field::ALL[rng.random_range(0..Field::ALL.len())];
                    e.with(f, Interval::full(f))
                }
                _ => landmark_cube(rng),
            };
            drawn.push(c);
            cubes.push(c);
        }
        sets.push(PacketSet::from_cubes_raw(cubes));
    }
    sets
}

/// `from_cubes` of the concatenated cube lists is the `union` fold from
/// empty, cube for cube, and stays so when every set equal to an earlier
/// one is left out of the concatenation.
#[test]
fn from_cubes_is_the_union_fold() {
    cases::run(
        SUITE,
        "from_cubes_is_the_union_fold",
        CASES * 16,
        union_operands,
        |sets| {
            let fold = sets.iter().fold(PacketSet::empty(), |acc, s| acc.union(s));
            let concat = |sets: &[&PacketSet]| {
                PacketSet::from_cubes(sets.iter().flat_map(|s| s.cubes()).copied().collect())
            };
            assert_eq!(concat(&sets.iter().collect::<Vec<_>>()), fold);
            let mut distinct: Vec<&PacketSet> = Vec::new();
            for s in sets {
                if !distinct.contains(&s) {
                    distinct.push(s);
                }
            }
            assert_eq!(concat(&distinct), fold);
        },
    );
}
