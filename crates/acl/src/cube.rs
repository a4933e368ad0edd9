//! Header-space cubes: the product of one interval per field.
//!
//! A cube is exactly the region matched by one ACL-rule-shaped tuple
//! `(sip-prefix, dip-prefix, sport-range, dport-range, proto)`. Cubes are
//! closed under intersection; complements and differences produce small sets
//! of disjoint cubes (at most two new cubes per field), which is what
//! [`crate::set::PacketSet`] builds on.

use crate::interval::Interval;
use crate::packet::{Field, Packet};
use std::fmt;

/// A non-empty product of five intervals, one per header field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cube {
    fields: [Interval; 5],
}

impl Cube {
    /// The full header space.
    pub fn full() -> Cube {
        Cube {
            fields: [
                Interval::full(Field::SrcIp),
                Interval::full(Field::DstIp),
                Interval::full(Field::SrcPort),
                Interval::full(Field::DstPort),
                Interval::full(Field::Proto),
            ],
        }
    }

    /// Build from explicit per-field intervals (in [`Field::ALL`] order).
    pub fn from_fields(fields: [Interval; 5]) -> Cube {
        Cube { fields }
    }

    /// The cube containing exactly one packet.
    pub fn singleton(p: &Packet) -> Cube {
        let mut c = Cube::full();
        for f in Field::ALL {
            c.fields[f.index()] = Interval::singleton(p.field(f));
        }
        c
    }

    /// Read the interval of one field.
    pub fn get(&self, f: Field) -> Interval {
        self.fields[f.index()]
    }

    /// Replace the interval of one field.
    pub fn with(&self, f: Field, iv: Interval) -> Cube {
        let mut c = *self;
        c.fields[f.index()] = iv;
        c
    }

    /// `true` if the packet lies inside the cube.
    pub fn contains(&self, p: &Packet) -> bool {
        Field::ALL.iter().all(|&f| self.get(f).contains(p.field(f)))
    }

    /// `true` if every packet of `self` is in `other`.
    pub fn is_subset(&self, other: &Cube) -> bool {
        Field::ALL
            .iter()
            .all(|&f| self.get(f).is_subset(&other.get(f)))
    }

    /// Intersection, `None` if disjoint in any dimension.
    pub fn intersect(&self, other: &Cube) -> Option<Cube> {
        let mut fields = self.fields;
        for f in Field::ALL {
            fields[f.index()] = self.get(f).intersect(&other.get(f))?;
        }
        Some(Cube { fields })
    }

    /// `self \ other` as a set of **pairwise disjoint** cubes.
    ///
    /// Uses the standard carve: for each field in order, emit the parts of
    /// `self` that fall outside `other` in that field while being inside
    /// `other` in all previous fields. Produces at most 2 cubes per field
    /// (10 total); returns `vec![self]` untouched when the cubes are
    /// disjoint. See [`Cube::subtract_into`] for the allocation-free form.
    pub fn subtract(&self, other: &Cube) -> Vec<Cube> {
        let mut out = Vec::new();
        self.subtract_into(other, &mut out);
        out
    }

    /// Append the pieces of [`Cube::subtract`] to `out`, in the same order.
    /// A disjoint pair pushes `self` and allocates nothing else.
    pub fn subtract_into(&self, other: &Cube, out: &mut Vec<Cube>) {
        let Some(overlap) = self.intersect(other) else {
            out.push(*self);
            return;
        };
        // `carry` is the portion of `self` that matches `other` on all
        // fields processed so far. The cubes overlap in every field, so the
        // parts of `self` outside `other` in `f` are at most one interval
        // below `other` and one above it.
        let mut carry = *self;
        for f in Field::ALL {
            let (mine, theirs) = (self.get(f), other.get(f));
            if mine.lo() < theirs.lo() {
                out.push(carry.with(f, Interval::new(mine.lo(), theirs.lo() - 1)));
            }
            if mine.hi() > theirs.hi() {
                out.push(carry.with(f, Interval::new(theirs.hi() + 1, mine.hi())));
            }
            carry = carry.with(f, overlap.get(f));
        }
        debug_assert_eq!(carry, overlap);
    }

    /// Exact number of packets in the cube.
    pub fn count(&self) -> u128 {
        Field::ALL.iter().map(|&f| self.get(f).len()).product()
    }

    /// An arbitrary packet inside the cube (the per-field lower bounds).
    pub fn sample(&self) -> Packet {
        let mut p = Packet::new(0, 0, 0, 0, 0);
        for f in Field::ALL {
            p.set_field(f, self.get(f).lo());
        }
        p
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for fld in Field::ALL {
            let iv = self.get(fld);
            if iv.is_full(fld) {
                continue;
            }
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{fld}={iv}")?;
            first = false;
        }
        if first {
            write!(f, "all")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dst_cube(lo: u64, hi: u64) -> Cube {
        Cube::full().with(Field::DstIp, Interval::new(lo, hi))
    }

    #[test]
    fn full_cube_contains_everything() {
        let c = Cube::full();
        assert!(c.contains(&Packet::new(0, 0, 0, 0, 0)));
        assert!(c.contains(&Packet::new(
            u32::MAX,
            u32::MAX,
            u16::MAX,
            u16::MAX,
            u8::MAX
        )));
        assert_eq!(c.count(), 1u128 << 104);
    }

    #[test]
    fn singleton_contains_only_its_packet() {
        let p = Packet::new(1, 2, 3, 4, 5);
        let c = Cube::singleton(&p);
        assert!(c.contains(&p));
        assert!(!c.contains(&Packet::new(1, 2, 3, 4, 6)));
        assert_eq!(c.count(), 1);
        assert_eq!(c.sample(), p);
    }

    #[test]
    fn subtract_disjoint_returns_self() {
        let a = dst_cube(0, 9);
        let b = dst_cube(10, 20);
        assert_eq!(a.subtract(&b), vec![a]);
    }

    #[test]
    fn subtract_contained_removes_everything() {
        let a = dst_cube(5, 9);
        assert!(a.subtract(&Cube::full()).is_empty());
    }

    #[test]
    fn subtract_partial_counts_add_up() {
        let a = dst_cube(0, 99);
        let b = dst_cube(50, 149);
        let pieces = a.subtract(&b);
        let total: u128 = pieces.iter().map(Cube::count).sum();
        let expected = a.count() - a.intersect(&b).unwrap().count();
        assert_eq!(total, expected);
        // Pieces must be disjoint from `b` and from each other.
        for p in &pieces {
            assert!(p.intersect(&b).is_none());
        }
        for (i, p) in pieces.iter().enumerate() {
            for q in &pieces[i + 1..] {
                assert!(p.intersect(q).is_none());
            }
        }
    }

    #[test]
    fn subtract_multi_dimensional_is_disjoint_partition() {
        let a = Cube::full()
            .with(Field::DstIp, Interval::new(0, 255))
            .with(Field::DstPort, Interval::new(0, 1023));
        let b = Cube::full()
            .with(Field::DstIp, Interval::new(100, 300))
            .with(Field::DstPort, Interval::new(80, 80))
            .with(Field::Proto, Interval::singleton(6));
        let pieces = a.subtract(&b);
        let inter = a.intersect(&b).unwrap();
        let total: u128 = pieces.iter().map(Cube::count).sum();
        assert_eq!(total + inter.count(), a.count());
        for (i, p) in pieces.iter().enumerate() {
            assert!(p.intersect(&b).is_none());
            for q in &pieces[i + 1..] {
                assert!(p.intersect(q).is_none(), "{p} overlaps {q}");
            }
        }
    }

    #[test]
    fn intersect_narrows_all_fields() {
        let a = Cube::full().with(Field::SrcPort, Interval::new(0, 100));
        let b = Cube::full().with(Field::SrcPort, Interval::new(50, 200));
        let i = a.intersect(&b).unwrap();
        assert_eq!(i.get(Field::SrcPort), Interval::new(50, 100));
    }

    #[test]
    fn display_elides_full_fields() {
        assert_eq!(Cube::full().to_string(), "{all}");
        let c = Cube::full().with(Field::Proto, Interval::singleton(6));
        assert_eq!(c.to_string(), "{proto=6}");
    }
}
