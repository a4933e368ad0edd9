//! Exact packet-set algebra: finite unions of cubes.
//!
//! A [`PacketSet`] denotes an arbitrary subset of the 2^104 header space as a
//! union of cubes. The representation is *not* canonical (two different cube
//! lists may denote the same set) but every operation — union, intersection,
//! difference, complement, subset, equality, emptiness, witness, cardinality —
//! is exact. Difference keeps the result in **pairwise-disjoint** form, and
//! [`PacketSet::count`] disjoins internally, so cardinality is always the
//! true cardinality.
//!
//! This algebra is the workhorse behind everything the paper would hand to
//! Z3 when an *exact set* answer is needed rather than a single witness:
//! FEC/AEC/DEC derivation, neighborhood validation (Eq. 6), simplification
//! proofs and all cross-checks of the SAT path.

use crate::cube::Cube;
use crate::packet::Packet;
use std::fmt;

/// A subset of header space, represented as a union of cubes.
///
/// ```
/// use jinjing_acl::{AclBuilder, PacketSet, Packet};
/// let acl = AclBuilder::default_permit().deny_dst("6.0.0.0/8").build();
/// let permitted = acl.permit_set();
/// assert!(!permitted.contains(&Packet::to_dst(6 << 24)));
/// assert!(permitted.contains(&Packet::to_dst(7 << 24)));
/// // Exact complement: the denied traffic is exactly the 6/8 block.
/// assert_eq!(permitted.complement().count(), 1u128 << (104 - 8));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PacketSet {
    cubes: Vec<Cube>,
}

impl PacketSet {
    /// The empty set.
    pub fn empty() -> PacketSet {
        PacketSet { cubes: Vec::new() }
    }

    /// The full header space.
    pub fn full() -> PacketSet {
        PacketSet {
            cubes: vec![Cube::full()],
        }
    }

    /// A set holding exactly one packet.
    pub fn singleton(p: &Packet) -> PacketSet {
        PacketSet {
            cubes: vec![Cube::singleton(p)],
        }
    }

    /// A set from a single cube.
    pub fn from_cube(c: Cube) -> PacketSet {
        PacketSet { cubes: vec![c] }
    }

    /// A set from a list of cubes (deduplicating subsumed duplicates lazily).
    ///
    /// One pass of the prune: a cube covered by a kept one is dropped, and
    /// a cube that covers kept ones replaces them. So the fold
    /// `sets.fold(empty, |a, s| a.union(s))` equals `from_cubes` of the
    /// sets' concatenated cube lists, cube for cube: the pass leaves its kept
    /// list pruned, a pruned list passes through the prune unchanged, and
    /// each later cube then meets the same kept list in both. A set equal to
    /// one already taken may be left out of the concatenation: each of its
    /// cubes is covered by a kept cube and coverage only grows, and kept
    /// cubes never cover one another, so the pass would drop all of them
    /// without touching the kept list.
    pub fn from_cubes(cubes: Vec<Cube>) -> PacketSet {
        let mut s = PacketSet { cubes };
        s.prune();
        s
    }

    /// A set from a list of cubes without the (quadratic) subsumption
    /// prune. Use when assembling very large unions whose parts are known
    /// to be (mostly) disjoint — e.g. unions of equivalence classes — and
    /// follow with [`PacketSet::coalesce`] if a compact form is needed.
    pub fn from_cubes_raw(cubes: Vec<Cube>) -> PacketSet {
        PacketSet { cubes }
    }

    /// Borrow the underlying cubes. The union of these cubes is the set; the
    /// cubes are not guaranteed disjoint.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Number of cubes in the current representation (a size/perf metric,
    /// not a semantic property).
    pub fn cube_count(&self) -> usize {
        self.cubes.len()
    }

    /// Membership test.
    pub fn contains(&self, p: &Packet) -> bool {
        self.cubes.iter().any(|c| c.contains(p))
    }

    /// `true` iff the set has no packets.
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// Union. Cheap: concatenates representations and prunes subsumed cubes.
    pub fn union(&self, other: &PacketSet) -> PacketSet {
        let mut cubes = self.cubes.clone();
        cubes.extend(other.cubes.iter().copied());
        PacketSet::from_cubes(cubes)
    }

    /// Intersection: pairwise cube intersections.
    pub fn intersect(&self, other: &PacketSet) -> PacketSet {
        let mut cubes = Vec::new();
        for a in &self.cubes {
            for b in &other.cubes {
                if let Some(i) = a.intersect(b) {
                    cubes.push(i);
                }
            }
        }
        PacketSet::from_cubes(cubes)
    }

    /// `self \ other`. The result's cubes are pairwise disjoint.
    pub fn subtract(&self, other: &PacketSet) -> PacketSet {
        let mut current: Vec<Cube> = disjoin(&self.cubes);
        let mut next = Vec::with_capacity(current.len());
        for b in &other.cubes {
            for a in &current {
                a.subtract_into(b, &mut next);
            }
            std::mem::swap(&mut current, &mut next);
            next.clear();
            if current.is_empty() {
                break;
            }
        }
        PacketSet { cubes: current }
    }

    /// Complement within the full header space.
    pub fn complement(&self) -> PacketSet {
        PacketSet::full().subtract(self)
    }

    /// `true` iff every packet of `self` is in `other`.
    pub fn is_subset(&self, other: &PacketSet) -> bool {
        // Quick syntactic check first: every cube subsumed by some cube.
        if self
            .cubes
            .iter()
            .all(|a| other.cubes.iter().any(|b| a.is_subset(b)))
        {
            return true;
        }
        self.subtract(other).is_empty()
    }

    /// Semantic equality (the `PartialEq` impl is representation equality).
    pub fn same_set(&self, other: &PacketSet) -> bool {
        self.is_subset(other) && other.is_subset(self)
    }

    /// `true` iff the two sets share at least one packet.
    pub fn intersects(&self, other: &PacketSet) -> bool {
        self.cubes
            .iter()
            .any(|a| other.cubes.iter().any(|b| a.intersect(b).is_some()))
    }

    /// `true` iff `cube` shares at least one packet with the set.
    pub fn meets(&self, cube: &Cube) -> bool {
        self.cubes.iter().any(|c| c.intersect(cube).is_some())
    }

    /// `true` iff every packet of `cube` is in the set: `is_subset` for one
    /// cube, without building a set. The cube is carved by the first cube
    /// of the representation it meets and every piece left over must be
    /// covered by the cubes after that one; the answer is `false` as soon
    /// as a piece meets none. Nothing is allocated while one cube of the
    /// representation covers what is left.
    pub fn covers(&self, cube: &Cube) -> bool {
        // Pieces still to cover, each with the index of the first cube of
        // the representation it has not been shown disjoint from.
        let mut pending: Vec<(Cube, usize)> = Vec::new();
        let (mut piece, mut from) = (*cube, 0);
        loop {
            let Some(i) =
                (from..self.cubes.len()).find(|&i| piece.intersect(&self.cubes[i]).is_some())
            else {
                return false;
            };
            if !piece.is_subset(&self.cubes[i]) {
                let rest = piece.subtract(&self.cubes[i]);
                pending.extend(rest.into_iter().map(|r| (r, i + 1)));
            }
            match pending.pop() {
                Some(job) => (piece, from) = job,
                None => return true,
            }
        }
    }

    /// An arbitrary member, if any.
    pub fn sample(&self) -> Option<Packet> {
        self.cubes.first().map(Cube::sample)
    }

    /// Exact cardinality.
    pub fn count(&self) -> u128 {
        disjoin(&self.cubes).iter().map(Cube::count).sum()
    }

    /// Merge cubes that agree on four fields and have adjacent or
    /// overlapping intervals in the fifth. Runs sort-and-sweep passes per
    /// field to a fixpoint — O(n log n) per pass — so it stays cheap even on
    /// heavily fragmented sets (tens of thousands of cubes). The result
    /// denotes the same set with (often far) fewer cubes; useful before
    /// decomposing a set back into ACL rules.
    ///
    /// The output cube order is a *deterministic* function of the input set
    /// (groups are folded in key order): synthesized rule order, witness
    /// sampling and every other order-sensitive consumer downstream stay
    /// byte-identical across runs, processes and thread counts.
    pub fn coalesce(&self) -> PacketSet {
        use crate::interval::Interval;
        use crate::packet::Field;
        use std::collections::BTreeMap;
        let mut cubes = self.cubes.clone();
        loop {
            let before = cubes.len();
            for f in Field::ALL {
                // Group by the other four fields; merge intervals in `f`.
                let mut groups: BTreeMap<[Interval; 4], Vec<Interval>> = BTreeMap::new();
                for c in &cubes {
                    let mut key: [Interval; 4] = [c.get(Field::SrcIp); 4];
                    let mut ki = 0;
                    for g in Field::ALL {
                        if g != f {
                            key[ki] = c.get(g);
                            ki += 1;
                        }
                    }
                    groups.entry(key).or_default().push(c.get(f));
                }
                let mut next = Vec::with_capacity(cubes.len());
                for (key, ivs) in groups {
                    for iv in Interval::runs(ivs) {
                        let mut c = Cube::full().with(f, iv);
                        let mut ki = 0;
                        for g in Field::ALL {
                            if g != f {
                                c = c.with(g, key[ki]);
                                ki += 1;
                            }
                        }
                        next.push(c);
                    }
                }
                cubes = next;
            }
            if cubes.len() >= before {
                break;
            }
        }
        PacketSet { cubes }
    }

    /// Drop cubes fully contained in another cube of the representation.
    fn prune(&mut self) {
        if self.cubes.len() < 2 {
            return;
        }
        let cubes = std::mem::take(&mut self.cubes);
        let mut kept: Vec<Cube> = Vec::with_capacity(cubes.len());
        'outer: for c in cubes {
            let mut i = 0;
            while i < kept.len() {
                if c.is_subset(&kept[i]) {
                    continue 'outer;
                }
                if kept[i].is_subset(&c) {
                    kept.swap_remove(i);
                } else {
                    i += 1;
                }
            }
            kept.push(c);
        }
        self.cubes = kept;
    }
}

/// Rewrite a cube union into an equivalent pairwise-disjoint union.
fn disjoin(cubes: &[Cube]) -> Vec<Cube> {
    let mut out: Vec<Cube> = Vec::with_capacity(cubes.len());
    let (mut pieces, mut next) = (Vec::new(), Vec::new());
    for c in cubes {
        pieces.push(*c);
        for seen in &out {
            for p in &pieces {
                p.subtract_into(seen, &mut next);
            }
            std::mem::swap(&mut pieces, &mut next);
            next.clear();
            if pieces.is_empty() {
                break;
            }
        }
        out.append(&mut pieces);
    }
    out
}

impl fmt::Display for PacketSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cubes.is_empty() {
            return write!(f, "{{}}");
        }
        for (i, c) in self.cubes.iter().enumerate() {
            if i > 0 {
                write!(f, " ∪ ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;
    use crate::packet::Field;

    fn dst(lo: u64, hi: u64) -> PacketSet {
        PacketSet::from_cube(Cube::full().with(Field::DstIp, Interval::new(lo, hi)))
    }

    #[test]
    fn empty_and_full() {
        assert!(PacketSet::empty().is_empty());
        assert!(!PacketSet::full().is_empty());
        assert_eq!(PacketSet::full().count(), 1u128 << 104);
        assert_eq!(PacketSet::empty().count(), 0);
    }

    #[test]
    fn union_counts() {
        let a = dst(0, 9);
        let b = dst(5, 14);
        let u = a.union(&b);
        // Overlap [5,9] must not be double counted.
        assert_eq!(u.count(), dst(0, 14).count());
        assert!(u.same_set(&dst(0, 14)));
    }

    #[test]
    fn intersect_and_subtract_partition() {
        let a = dst(0, 99);
        let b = dst(50, 149);
        let i = a.intersect(&b);
        let d = a.subtract(&b);
        assert!(i.same_set(&dst(50, 99)));
        assert!(d.same_set(&dst(0, 49)));
        assert_eq!(i.count() + d.count(), a.count());
        assert!(!i.intersects(&d));
    }

    #[test]
    fn complement_laws() {
        let a = dst(1000, 2000);
        let c = a.complement();
        assert!(!a.intersects(&c));
        assert!(a.union(&c).same_set(&PacketSet::full()));
        assert!(c.complement().same_set(&a));
    }

    #[test]
    fn subset_and_equality() {
        let small = dst(10, 20);
        let big = dst(0, 100);
        assert!(small.is_subset(&big));
        assert!(!big.is_subset(&small));
        assert!(small.same_set(&small.clone()));
        // Two different representations of the same set.
        let split = dst(10, 15).union(&dst(16, 20));
        assert!(split.same_set(&small));
    }

    #[test]
    fn single_cube_covers_and_meets_agree_with_the_set_operations() {
        let port = |lo, hi| Cube::full().with(Field::DstPort, Interval::new(lo, hi));
        let at = |c: Cube, lo, hi| c.with(Field::DstIp, Interval::new(lo, hi));
        // Overlapping, non-disjoint representation with a hole at dst 50..59
        // for ports above 1023.
        let s = PacketSet::from_cubes_raw(vec![
            at(Cube::full(), 0, 49),
            at(port(0, 1023), 40, 99),
            at(port(512, 65535), 60, 99),
        ]);
        let candidates = [
            at(Cube::full(), 0, 49),
            at(Cube::full(), 0, 50),
            at(port(0, 80), 0, 99),
            at(port(0, 2000), 45, 70),
            at(port(0, 2000), 60, 70),
            at(port(1024, 1024), 50, 59),
            at(port(1024, 1024), 49, 60),
            at(Cube::full(), 100, 200),
            Cube::full(),
        ];
        for c in candidates {
            let as_set = PacketSet::from_cube(c);
            assert_eq!(s.covers(&c), as_set.is_subset(&s), "covers {c}");
            assert_eq!(s.meets(&c), as_set.intersects(&s), "meets {c}");
        }
        assert!(!PacketSet::empty().covers(&Cube::full()));
        assert!(!PacketSet::empty().meets(&Cube::full()));
    }

    #[test]
    fn sample_is_member() {
        let a = dst(42, 42);
        let p = a.sample().unwrap();
        assert!(a.contains(&p));
        assert_eq!(p.dip, 42);
        assert!(PacketSet::empty().sample().is_none());
    }

    #[test]
    fn multi_field_difference() {
        let web = PacketSet::from_cube(
            Cube::full()
                .with(Field::DstPort, Interval::new(80, 80))
                .with(Field::Proto, Interval::singleton(6)),
        );
        let some_dst = dst(0, 0xffff);
        let only_web_elsewhere = web.subtract(&some_dst);
        assert!(only_web_elsewhere.is_subset(&web));
        assert!(!only_web_elsewhere.intersects(&some_dst));
        assert_eq!(
            only_web_elsewhere.count() + web.intersect(&some_dst).count(),
            web.count()
        );
    }

    #[test]
    fn prune_removes_subsumed() {
        let s = PacketSet::from_cubes(vec![
            Cube::full(),
            Cube::full().with(Field::Proto, Interval::singleton(6)),
        ]);
        assert_eq!(s.cube_count(), 1);
    }

    #[test]
    fn singleton_membership() {
        let p = Packet::new(1, 2, 3, 4, 5);
        let s = PacketSet::singleton(&p);
        assert!(s.contains(&p));
        assert_eq!(s.count(), 1);
        assert!(!s.contains(&Packet::new(0, 2, 3, 4, 5)));
    }
}

#[cfg(test)]
mod coalesce_tests {
    use super::*;
    use crate::interval::Interval;
    use crate::packet::Field;

    fn dst(lo: u64, hi: u64) -> Cube {
        Cube::full().with(Field::DstIp, Interval::new(lo, hi))
    }

    #[test]
    fn adjacent_cubes_merge() {
        let s = PacketSet::from_cubes(vec![dst(0, 9), dst(10, 19), dst(20, 29)]);
        let c = s.coalesce();
        assert_eq!(c.cube_count(), 1);
        assert!(c.same_set(&s));
    }

    #[test]
    fn disjoint_nonadjacent_stay_separate() {
        let s = PacketSet::from_cubes(vec![dst(0, 9), dst(11, 19)]);
        let c = s.coalesce();
        assert_eq!(c.cube_count(), 2);
        assert!(c.same_set(&s));
    }

    #[test]
    fn multi_field_fragmentation_remerges() {
        // Carve a hole and fill it back: coalesce should recover one cube.
        let base = PacketSet::from_cube(dst(0, 999));
        let hole = PacketSet::from_cube(dst(100, 199).with(Field::Proto, Interval::new(6, 6)));
        let carved = base.subtract(&hole);
        let refilled = carved.union(&hole);
        let c = refilled.coalesce();
        assert!(c.same_set(&base));
        assert!(c.cube_count() <= 3, "got {}", c.cube_count());
    }

    #[test]
    fn coalesce_preserves_semantics_on_overlaps() {
        let s = PacketSet::from_cubes(vec![dst(0, 50), dst(25, 100)]);
        let c = s.coalesce();
        assert!(c.same_set(&s));
        assert_eq!(c.cube_count(), 1);
    }
}
