//! Per-device forwarding tables and their forwarding predicates.
//!
//! A [`Fib`] is a longest-prefix-match table mapping destination prefixes to
//! output interfaces (multiple outputs for one prefix = ECMP). From the FIB
//! we compile the *forwarding predicates* of §4.1: for each output interface
//! `j` of the device, the exact set of packets the device forwards out of
//! `j`. Since our routing is destination-based, these predicates carve only
//! the `dst` dimension of header space — which is exactly why FEC counts
//! stay small in practice (§9).
//!
//! Compiling a FIB is one sweep over its prefixes, longest first: prefixes
//! form a laminar family, so the region a prefix owns is the gaps between
//! the longer prefixes already swept inside it, and those gaps are read off
//! an ordered map of the maximal prefixes swept so far. The cost is
//! O(E log E) for E entries; see [`Fib::forwarding_predicates`] for why
//! the cube lists are the ones the plain subtract-and-union loop builds.

use crate::ids::IfaceId;
use jinjing_acl::cube::Cube;
use jinjing_acl::interval::Interval;
use jinjing_acl::packet::Field;
use jinjing_acl::{IpPrefix, Packet, PacketSet};
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

/// One FIB entry: a destination prefix routed to one output interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FibEntry {
    /// Destination prefix.
    pub prefix: IpPrefix,
    /// Output interface.
    pub out: IfaceId,
}

/// A device's forwarding table.
#[derive(Debug, Clone, Default)]
pub struct Fib {
    entries: Vec<FibEntry>,
}

impl Fib {
    /// Empty table (drops everything).
    pub fn new() -> Fib {
        Fib::default()
    }

    /// Add an entry. Duplicate (prefix, out) pairs are ignored; the same
    /// prefix with different outputs forms an ECMP group.
    pub fn add(&mut self, prefix: IpPrefix, out: IfaceId) {
        let e = FibEntry { prefix, out };
        if !self.entries.contains(&e) {
            self.entries.push(e);
        }
    }

    /// Append an entry its caller knows is new (see
    /// [`Network::compute_routes`](crate::Network::compute_routes)).
    pub(crate) fn push(&mut self, e: FibEntry) {
        self.entries.push(e);
    }

    /// Make room for `additional` more entries, and no more.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.entries.reserve_exact(additional);
    }

    /// The raw entries.
    pub fn entries(&self) -> &[FibEntry] {
        &self.entries
    }

    /// Longest-prefix-match lookup: all output interfaces for a packet
    /// (several under ECMP; empty when the destination is unrouted).
    pub fn lookup(&self, p: &Packet) -> Vec<IfaceId> {
        let mut best_len: Option<u32> = None;
        let mut outs: Vec<IfaceId> = Vec::new();
        for e in &self.entries {
            if !e.prefix.contains(p.dip) {
                continue;
            }
            match best_len {
                Some(l) if e.prefix.len() < l => {}
                Some(l) if e.prefix.len() == l => {
                    if !outs.contains(&e.out) {
                        outs.push(e.out);
                    }
                }
                _ => {
                    best_len = Some(e.prefix.len());
                    outs.clear();
                    outs.push(e.out);
                }
            }
        }
        outs
    }

    /// Compile the forwarding predicates: for each output interface, the
    /// exact packet set the device sends there under LPM semantics.
    ///
    /// Prefixes are swept from most to least specific (ties by address).
    /// Each prefix `P`'s *effective* region — `P` minus what longer
    /// prefixes already claimed — is credited to every ECMP output of `P`,
    /// and each output's cube list is the concatenation of its effective
    /// regions in sweep order. The claimed space is kept as an ordered map
    /// `lo → hi` of the maximal prefixes swept so far, which makes the
    /// sweep O(E log E) and yields exactly the cube lists of the plain loop
    /// `effective = P.subtract(claimed); claimed = claimed.union(P);
    /// pred[out] = pred[out].union(effective)`:
    ///
    /// 1. Prefixes form a laminar family: two are nested or disjoint.
    /// 2. Longest first, every claimed prefix that meets `P` lies inside
    ///    `P`, so the map entries whose `lo` falls in `P` are exactly the
    ///    claimed cubes that meet `P`. They are removed and `P` is inserted.
    /// 3. [`Cube::subtract_into`] pushes a disjoint cube unchanged and
    ///    emits the part below a cut before the part above it, so
    ///    `P \ claimed` is `P`'s gaps between those entries in address
    ///    order, whatever order `claimed` lists its cubes in.
    /// 4. Effective regions are pairwise disjoint, so each `union` into a
    ///    predicate prunes nothing and reorders nothing: it concatenates.
    ///
    /// Each predicate's cube list is allocated once, at its exact size.
    pub fn forwarding_predicates(&self) -> HashMap<IfaceId, PacketSet> {
        // Group outputs per prefix.
        let mut by_prefix: HashMap<IpPrefix, Vec<IfaceId>> = HashMap::new();
        for e in &self.entries {
            by_prefix.entry(e.prefix).or_default().push(e.out);
        }
        let mut prefixes: Vec<IpPrefix> = by_prefix.keys().copied().collect();
        // Longest first; ties ordered deterministically by address.
        prefixes.sort_by(|a, b| b.len().cmp(&a.len()).then(a.addr().cmp(&b.addr())));
        let mut claimed: BTreeMap<u64, u64> = BTreeMap::new();
        let mut inside: Vec<u64> = Vec::new();
        // Every effective region in sweep order, and each prefix's part.
        let mut effective: Vec<Cube> = Vec::new();
        let mut parts: Vec<(IpPrefix, Range<usize>)> = Vec::new();
        for pfx in prefixes {
            let start = effective.len();
            let (lo, hi) = (pfx.interval().lo(), pfx.interval().hi());
            let mut next = lo;
            for (&child_lo, &child_hi) in claimed.range(lo..=hi) {
                if child_lo > next {
                    effective.push(dst_cube(Interval::new(next, child_lo - 1)));
                }
                next = child_hi + 1;
                inside.push(child_lo);
            }
            if next <= hi {
                effective.push(dst_cube(Interval::new(next, hi)));
            }
            for child_lo in inside.drain(..) {
                claimed.remove(&child_lo);
            }
            claimed.insert(lo, hi);
            if effective.len() > start {
                parts.push((pfx, start..effective.len()));
            }
        }
        let mut sizes: HashMap<IfaceId, usize> = HashMap::new();
        for (pfx, part) in &parts {
            for out in &by_prefix[pfx] {
                *sizes.entry(*out).or_default() += part.len();
            }
        }
        let mut runs: HashMap<IfaceId, Vec<Cube>> = HashMap::new();
        for (pfx, part) in parts {
            for out in &by_prefix[&pfx] {
                runs.entry(*out)
                    .or_insert_with(|| Vec::with_capacity(sizes[out]))
                    .extend_from_slice(&effective[part.clone()]);
            }
        }
        runs.into_iter()
            .map(|(out, cubes)| (out, PacketSet::from_cubes_raw(cubes)))
            .collect()
    }
}

/// The cube of the destinations in `dst` (all other fields unconstrained).
pub(crate) fn dst_cube(dst: Interval) -> Cube {
    Cube::full().with(Field::DstIp, dst)
}

/// The packet set whose destination lies in `prefix` (all other fields
/// unconstrained).
pub fn prefix_set(prefix: &IpPrefix) -> PacketSet {
    PacketSet::from_cube(dst_cube(prefix.interval()))
}

/// The packet set whose *source* lies in `prefix`.
pub fn src_prefix_set(prefix: &IpPrefix) -> PacketSet {
    PacketSet::from_cube(Cube::full().with(Field::SrcIp, prefix.interval()))
}

/// Parse helper for tests and generators: `"1.0.0.0/8"` → [`IpPrefix`].
pub fn pfx(s: &str) -> IpPrefix {
    jinjing_acl::parse::parse_prefix(s).expect("invalid prefix literal")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dpkt(s: &str) -> Packet {
        Packet::to_dst(jinjing_acl::packet::parse_ip(s).unwrap())
    }

    #[test]
    fn lpm_prefers_longest() {
        let mut f = Fib::new();
        f.add(pfx("10.0.0.0/8"), IfaceId(1));
        f.add(pfx("10.1.0.0/16"), IfaceId(2));
        assert_eq!(f.lookup(&dpkt("10.1.2.3")), vec![IfaceId(2)]);
        assert_eq!(f.lookup(&dpkt("10.2.2.3")), vec![IfaceId(1)]);
        assert!(f.lookup(&dpkt("11.0.0.1")).is_empty());
    }

    #[test]
    fn ecmp_returns_all_equal_length_matches() {
        let mut f = Fib::new();
        f.add(pfx("10.0.0.0/8"), IfaceId(1));
        f.add(pfx("10.0.0.0/8"), IfaceId(2));
        let mut outs = f.lookup(&dpkt("10.1.2.3"));
        outs.sort();
        assert_eq!(outs, vec![IfaceId(1), IfaceId(2)]);
    }

    #[test]
    fn duplicate_entries_deduplicated() {
        let mut f = Fib::new();
        f.add(pfx("10.0.0.0/8"), IfaceId(1));
        f.add(pfx("10.0.0.0/8"), IfaceId(1));
        assert_eq!(f.entries().len(), 1);
    }

    #[test]
    fn predicates_respect_lpm_carving() {
        let mut f = Fib::new();
        f.add(pfx("10.0.0.0/8"), IfaceId(1));
        f.add(pfx("10.1.0.0/16"), IfaceId(2));
        let preds = f.forwarding_predicates();
        let g1 = &preds[&IfaceId(1)];
        let g2 = &preds[&IfaceId(2)];
        assert!(g2.contains(&dpkt("10.1.9.9")));
        assert!(!g1.contains(&dpkt("10.1.9.9"))); // stolen by the /16
        assert!(g1.contains(&dpkt("10.2.9.9")));
        assert!(!g2.contains(&dpkt("10.2.9.9")));
        assert!(!g1.contains(&dpkt("11.0.0.1")));
    }

    #[test]
    fn predicates_agree_with_lookup_on_samples() {
        let mut f = Fib::new();
        f.add(pfx("10.0.0.0/8"), IfaceId(1));
        f.add(pfx("10.1.0.0/16"), IfaceId(2));
        f.add(pfx("10.1.2.0/24"), IfaceId(1));
        f.add(pfx("0.0.0.0/0"), IfaceId(3));
        let preds = f.forwarding_predicates();
        for s in [
            "10.1.2.3",
            "10.1.9.9",
            "10.9.9.9",
            "11.0.0.1",
            "192.168.1.1",
        ] {
            let p = dpkt(s);
            let outs = f.lookup(&p);
            for (iface, set) in &preds {
                assert_eq!(
                    set.contains(&p),
                    outs.contains(iface),
                    "dst {s} iface {iface:?}"
                );
            }
        }
    }

    #[test]
    fn ecmp_predicates_overlap() {
        let mut f = Fib::new();
        f.add(pfx("10.0.0.0/8"), IfaceId(1));
        f.add(pfx("10.0.0.0/8"), IfaceId(2));
        let preds = f.forwarding_predicates();
        assert!(preds[&IfaceId(1)].same_set(&preds[&IfaceId(2)]));
    }

    #[test]
    fn prefix_set_constrains_only_dst() {
        let s = prefix_set(&pfx("1.0.0.0/8"));
        assert!(s.contains(&Packet::new(0xffff_ffff, 0x0101_0101, 9, 9, 9)));
        assert!(!s.contains(&Packet::new(0x0101_0101, 0xffff_ffff, 9, 9, 9)));
        let s2 = src_prefix_set(&pfx("1.0.0.0/8"));
        assert!(s2.contains(&Packet::new(0x0101_0101, 0xffff_ffff, 9, 9, 9)));
    }
}
