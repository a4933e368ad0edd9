//! Property tests for the exact packet-set algebra — the foundation every
//! primitive builds on. The generators produce structured cubes (prefix-
//! and range-shaped, like real rules) as well as arbitrary intervals.

mod cases;

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
