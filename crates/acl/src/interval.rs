//! Closed integer intervals `[lo, hi]` over a field domain.
//!
//! Intervals are the one-dimensional building block of [`crate::cube::Cube`].
//! IP prefixes, port ranges and protocol selections all denote intervals, so
//! a product of five intervals represents exactly one rule-shaped region of
//! header space.

use crate::packet::Field;
use std::fmt;

/// A non-empty closed interval `[lo, hi]` with `lo <= hi`.
///
/// Emptiness is represented at the call-site by `Option<Interval>` — an
/// `Interval` value is always non-empty, which keeps cube code free of
/// degenerate cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Interval {
    lo: u64,
    hi: u64,
}

impl Interval {
    /// `[lo, hi]`; panics if `lo > hi`.
    pub fn new(lo: u64, hi: u64) -> Interval {
        assert!(lo <= hi, "empty interval [{lo}, {hi}]");
        Interval { lo, hi }
    }

    /// The full domain of a field.
    pub fn full(field: Field) -> Interval {
        Interval {
            lo: 0,
            hi: field.max_value(),
        }
    }

    /// A single value.
    pub fn singleton(v: u64) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// The interval denoted by a bit prefix: `value` with the top `len` bits
    /// significant out of a `width`-bit field. A `/0` prefix is the full
    /// field domain.
    pub fn from_prefix(value: u64, len: u32, width: u32) -> Interval {
        assert!(len <= width, "prefix length {len} exceeds width {width}");
        let span = width - len;
        let base = if len == 0 {
            0
        } else {
            value & (!0u64 << span) & ((1u64 << width) - 1)
        };
        let hi = base | ((1u64 << span) - 1).min((1u64 << width) - 1);
        Interval { lo: base, hi }
    }

    /// Inclusive lower bound.
    pub fn lo(&self) -> u64 {
        self.lo
    }

    /// Inclusive upper bound.
    pub fn hi(&self) -> u64 {
        self.hi
    }

    /// Number of values contained (as u128 to survive full 64-bit domains;
    /// our widest field is 32 bits so u64 would suffice, but this is free).
    /// Intervals are non-empty by construction, so there is no `is_empty`.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u128 {
        (self.hi - self.lo) as u128 + 1
    }

    /// `true` if `v` lies inside.
    pub fn contains(&self, v: u64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// `true` if `self` is entirely inside `other`.
    pub fn is_subset(&self, other: &Interval) -> bool {
        other.lo <= self.lo && self.hi <= other.hi
    }

    /// Intersection, or `None` if disjoint.
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo <= hi {
            Some(Interval { lo, hi })
        } else {
            None
        }
    }

    /// The (up to two) maximal intervals of `domain \ self`, where `domain`
    /// is the full range of `field`.
    pub fn complement(&self, field: Field) -> Vec<Interval> {
        let mut out = Vec::with_capacity(2);
        if self.lo > 0 {
            out.push(Interval::new(0, self.lo - 1));
        }
        if self.hi < field.max_value() {
            out.push(Interval::new(self.hi + 1, field.max_value()));
        }
        out
    }

    /// `true` when this interval covers the whole domain of `field`.
    pub fn is_full(&self, field: Field) -> bool {
        self.lo == 0 && self.hi == field.max_value()
    }

    /// The maximal runs of a union of intervals: sorted, pairwise disjoint
    /// and non-adjacent (overlapping and adjacent inputs are merged).
    pub(crate) fn runs(mut ivs: Vec<Interval>) -> Vec<Interval> {
        ivs.sort_unstable();
        let mut runs: Vec<Interval> = Vec::with_capacity(ivs.len());
        for iv in ivs {
            match runs.last_mut() {
                Some(last) if iv.lo <= last.hi.saturating_add(1) => last.hi = last.hi.max(iv.hi),
                _ => runs.push(iv),
            }
        }
        runs
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lo == self.hi {
            write!(f, "{}", self.lo)
        } else {
            write!(f, "[{}, {}]", self.lo, self.hi)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_interval_full() {
        let i = Interval::from_prefix(0, 0, 32);
        assert_eq!(i, Interval::new(0, u32::MAX as u64));
    }

    #[test]
    fn prefix_interval_slash8() {
        // 1.0.0.0/8 = [0x01000000, 0x01ffffff]
        let i = Interval::from_prefix(0x0100_0000, 8, 32);
        assert_eq!(i.lo(), 0x0100_0000);
        assert_eq!(i.hi(), 0x01ff_ffff);
    }

    #[test]
    fn prefix_interval_host_route() {
        let i = Interval::from_prefix(0x0a00_0001, 32, 32);
        assert_eq!(i, Interval::singleton(0x0a00_0001));
    }

    #[test]
    fn prefix_masks_low_bits() {
        // Low bits below the prefix length are ignored.
        let a = Interval::from_prefix(0x0102_0304, 16, 32);
        let b = Interval::from_prefix(0x0102_0000, 16, 32);
        assert_eq!(a, b);
    }

    #[test]
    fn intersect_overlap_and_disjoint() {
        let a = Interval::new(0, 10);
        let b = Interval::new(5, 20);
        assert_eq!(a.intersect(&b), Some(Interval::new(5, 10)));
        let c = Interval::new(11, 12);
        assert_eq!(a.intersect(&c), None);
    }

    #[test]
    fn complement_middle() {
        let a = Interval::new(10, 20);
        let c = a.complement(Field::Proto);
        assert_eq!(c, vec![Interval::new(0, 9), Interval::new(21, 255)]);
    }

    #[test]
    fn complement_edges() {
        assert_eq!(
            Interval::new(0, 5).complement(Field::Proto),
            vec![Interval::new(6, 255)]
        );
        assert_eq!(
            Interval::new(200, 255).complement(Field::Proto),
            vec![Interval::new(0, 199)]
        );
        assert!(Interval::full(Field::Proto)
            .complement(Field::Proto)
            .is_empty());
    }

    #[test]
    fn subset_and_contains() {
        let a = Interval::new(5, 10);
        assert!(a.is_subset(&Interval::new(0, 10)));
        assert!(!a.is_subset(&Interval::new(6, 10)));
        assert!(a.contains(5) && a.contains(10) && !a.contains(11));
    }

    #[test]
    fn len_counts_inclusive() {
        assert_eq!(Interval::new(3, 5).len(), 3);
        assert_eq!(Interval::singleton(7).len(), 1);
        assert_eq!(Interval::full(Field::SrcIp).len(), 1u128 << 32);
    }

    #[test]
    #[should_panic(expected = "empty interval")]
    fn empty_interval_panics() {
        let _ = Interval::new(5, 4);
    }
}
