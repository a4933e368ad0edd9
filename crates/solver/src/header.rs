//! Bit-blasting of the 104-bit packet header.
//!
//! [`HeaderVars`] allocates one solver variable per header bit (MSB-first
//! within each field) and provides circuits for the predicates ACL rules
//! need: prefix matches, value equality, unsigned range comparisons, full
//! [`MatchSpec`] matches, and membership in a [`PacketSet`]. After a `Sat`
//! answer the assignment decodes back into a concrete [`Packet`] — the
//! counterexample `h` the fix primitive starts from.

use crate::circuit::CircuitBuilder;
use crate::lit::Lit;
use jinjing_acl::set::PacketSet;
use jinjing_acl::{Field, MatchSpec, Packet};

/// One packet worth of header bits inside a solver.
#[derive(Debug, Clone)]
pub struct HeaderVars {
    /// `bits[field.index()]` = MSB-first literals for that field.
    bits: [Vec<Lit>; 5],
}

impl HeaderVars {
    /// Allocate fresh variables for every header bit.
    pub fn new(c: &mut CircuitBuilder) -> HeaderVars {
        let mut bits: [Vec<Lit>; 5] = Default::default();
        for f in Field::ALL {
            bits[f.index()] = (0..f.width()).map(|_| c.input()).collect();
        }
        HeaderVars { bits }
    }

    /// The MSB-first bit literals of one field.
    pub fn field_bits(&self, f: Field) -> &[Lit] {
        &self.bits[f.index()]
    }

    /// Circuit: field equals the constant `value`.
    pub fn field_eq(&self, c: &mut CircuitBuilder, f: Field, value: u64) -> Lit {
        self.field_prefix(c, f, value, f.width())
    }

    /// Circuit: the top `len` bits of the field equal those of `value`
    /// (an IP-prefix match; `len == 0` is `true`).
    pub fn field_prefix(&self, c: &mut CircuitBuilder, f: Field, value: u64, len: u32) -> Lit {
        let w = f.width();
        assert!(len <= w);
        let lits: Vec<Lit> = (0..len)
            .map(|i| {
                let bit = (value >> (w - 1 - i)) & 1 == 1;
                let l = self.bits[f.index()][i as usize];
                if bit {
                    l
                } else {
                    !l
                }
            })
            .collect();
        c.and(&lits)
    }

    /// Circuit: unsigned `field <= k`.
    ///
    /// Built LSB→MSB with the comparator recurrence
    /// `acc' = if k_i { ¬x_i ∨ acc } else { ¬x_i ∧ acc }`.
    pub fn field_leq(&self, c: &mut CircuitBuilder, f: Field, k: u64) -> Lit {
        if k >= f.max_value() {
            return c.t();
        }
        let w = f.width();
        let mut acc = c.t();
        for i in (0..w).rev() {
            // i counts from MSB=0; process LSB first.
            let bit_pos = i as usize;
            let k_bit = (k >> (w - 1 - i)) & 1 == 1;
            let x = self.bits[f.index()][bit_pos];
            acc = if k_bit {
                c.or(&[!x, acc])
            } else {
                c.and(&[!x, acc])
            };
        }
        acc
    }

    /// Circuit: unsigned `field >= k`.
    pub fn field_geq(&self, c: &mut CircuitBuilder, f: Field, k: u64) -> Lit {
        if k == 0 {
            return c.t();
        }
        let w = f.width();
        let mut acc = c.t();
        for i in (0..w).rev() {
            let bit_pos = i as usize;
            let k_bit = (k >> (w - 1 - i)) & 1 == 1;
            let x = self.bits[f.index()][bit_pos];
            acc = if k_bit {
                c.and(&[x, acc])
            } else {
                c.or(&[x, acc])
            };
        }
        acc
    }

    /// Circuit: `lo <= field <= hi`.
    ///
    /// A 2ᵏ-aligned block (one value and the whole field included) is the
    /// prefix conjunction it is, so a port match, an `in_set` cube and a
    /// [`field_prefix`](Self::field_prefix) naming the same block are one
    /// gate; only ragged ranges pay for the two comparator ladders.
    pub fn field_range(&self, c: &mut CircuitBuilder, f: Field, lo: u64, hi: u64) -> Lit {
        if lo <= hi && hi <= f.max_value() {
            let size = hi - lo + 1;
            if size.is_power_of_two() && lo % size == 0 {
                return self.field_prefix(c, f, lo, f.width() - size.trailing_zeros());
            }
        }
        let ge = self.field_geq(c, f, lo);
        let le = self.field_leq(c, f, hi);
        c.and(&[ge, le])
    }

    /// Circuit: the packet matches an ACL rule's [`MatchSpec`] — the `m_j(h)`
    /// predicate of the paper.
    pub fn matches(&self, c: &mut CircuitBuilder, m: &MatchSpec) -> Lit {
        let mut parts = Vec::with_capacity(5);
        if !m.src.is_any() {
            parts.push(self.field_prefix(c, Field::SrcIp, m.src.addr() as u64, m.src.len()));
        }
        if !m.dst.is_any() {
            parts.push(self.field_prefix(c, Field::DstIp, m.dst.addr() as u64, m.dst.len()));
        }
        if !m.sport.is_any() {
            parts.push(self.field_range(
                c,
                Field::SrcPort,
                m.sport.lo() as u64,
                m.sport.hi() as u64,
            ));
        }
        if !m.dport.is_any() {
            parts.push(self.field_range(
                c,
                Field::DstPort,
                m.dport.lo() as u64,
                m.dport.hi() as u64,
            ));
        }
        if let Some(p) = m.proto {
            parts.push(self.field_eq(c, Field::Proto, p.number() as u64));
        }
        c.and(&parts)
    }

    /// Circuit: the packet lies in `set` (disjunction over its cubes, each
    /// cube a conjunction of per-field ranges). This is the `ψ` predicate
    /// used to pin the solver inside one equivalence class in Eq. 3.
    pub fn in_set(&self, c: &mut CircuitBuilder, set: &PacketSet) -> Lit {
        let mut cubes = Vec::with_capacity(set.cubes().len());
        for cube in set.cubes() {
            let mut fields = Vec::with_capacity(5);
            for f in Field::ALL {
                let iv = cube.get(f);
                if iv.is_full(f) {
                    continue;
                }
                fields.push(self.field_range(c, f, iv.lo(), iv.hi()));
            }
            cubes.push(c.and(&fields));
        }
        c.or(&cubes)
    }

    /// Decode the model of the last `Sat` answer into a packet.
    pub fn decode(&self, c: &CircuitBuilder) -> Packet {
        let mut p = Packet::new(0, 0, 0, 0, 0);
        for f in Field::ALL {
            let w = f.width();
            let mut v: u64 = 0;
            for i in 0..w as usize {
                v = (v << 1) | (c.model_value(self.bits[f.index()][i]) as u64);
            }
            debug_assert!(v <= f.max_value());
            p.set_field(f, v);
        }
        p
    }

    /// Assert that the header equals a concrete packet (useful in tests and
    /// for per-packet queries).
    pub fn assert_packet(&self, c: &mut CircuitBuilder, p: &Packet) {
        for f in Field::ALL {
            let eq = self.field_eq(c, f, p.field(f));
            c.assert(eq);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdcl::SolveResult;
    use jinjing_acl::parse::parse_rule;
    use jinjing_acl::{Cube, Interval};

    /// Check a predicate circuit against its concrete semantics for a
    /// specific packet.
    fn agree_on(
        build: impl Fn(&mut CircuitBuilder, &HeaderVars) -> Lit,
        concrete: impl Fn(&Packet) -> bool,
        packets: &[Packet],
    ) {
        for p in packets {
            let mut c = CircuitBuilder::new();
            let h = HeaderVars::new(&mut c);
            let g = build(&mut c, &h);
            h.assert_packet(&mut c, p);
            assert_eq!(c.solve(), SolveResult::Sat);
            assert_eq!(c.model_value(g), concrete(p), "packet {p}");
        }
    }

    fn probe_packets() -> Vec<Packet> {
        vec![
            Packet::new(0, 0, 0, 0, 0),
            Packet::new(u32::MAX, u32::MAX, u16::MAX, u16::MAX, u8::MAX),
            Packet::new(0x0a00_0001, 0x0102_0304, 1024, 80, 6),
            Packet::new(0x0aff_ffff, 0x01ff_ffff, 1023, 81, 17),
            Packet::new(0x0b00_0000, 0x0200_0000, 5353, 443, 1),
        ]
    }

    #[test]
    fn prefix_circuit_matches_semantics() {
        agree_on(
            |c, h| h.field_prefix(c, Field::DstIp, 0x0100_0000, 8),
            |p| (p.dip >> 24) == 1,
            &probe_packets(),
        );
    }

    #[test]
    fn range_circuit_matches_semantics() {
        agree_on(
            |c, h| h.field_range(c, Field::DstPort, 80, 443),
            |p| (80..=443).contains(&p.dport),
            &probe_packets(),
        );
        // Exhaustive small-range check on the 8-bit proto field.
        for lo in [0u64, 5, 200] {
            for hi in [lo, lo + 7, 255] {
                for v in [0u8, 4, 5, 6, 12, 199, 200, 207, 208, 255] {
                    let p = Packet::new(0, 0, 0, 0, v);
                    agree_on(
                        |c, h| h.field_range(c, Field::Proto, lo, hi),
                        |p| (p.proto as u64) >= lo && (p.proto as u64) <= hi,
                        &[p],
                    );
                }
            }
        }
    }

    #[test]
    fn eq_circuit_matches_semantics() {
        agree_on(
            |c, h| h.field_eq(c, Field::Proto, 6),
            |p| p.proto == 6,
            &probe_packets(),
        );
    }

    #[test]
    fn matchspec_circuit_matches_semantics() {
        let rule =
            parse_rule("permit src 10.0.0.0/8 dst 1.0.0.0/8 sport 1024-65535 dport 80 proto tcp")
                .unwrap();
        agree_on(
            |c, h| h.matches(c, &rule.matches),
            |p| rule.matches.matches(p),
            &probe_packets(),
        );
    }

    #[test]
    fn in_set_circuit_matches_semantics() {
        let set = PacketSet::from_cubes(vec![
            Cube::full().with(Field::DstIp, Interval::new(0x0100_0000, 0x01ff_ffff)),
            Cube::full()
                .with(Field::DstPort, Interval::new(53, 53))
                .with(Field::Proto, Interval::new(17, 17)),
        ]);
        agree_on(
            |c, h| h.in_set(c, &set),
            |p| set.contains(p),
            &probe_packets(),
        );
        // Empty set is the constant false.
        let mut c = CircuitBuilder::new();
        let h = HeaderVars::new(&mut c);
        let g = h.in_set(&mut c, &PacketSet::empty());
        assert_eq!(g, c.f());
    }

    #[test]
    fn decode_finds_member_of_constrained_set() {
        let mut c = CircuitBuilder::new();
        let h = HeaderVars::new(&mut c);
        let rule = parse_rule("deny dst 6.0.0.0/8 dport 400-500").unwrap();
        let m = h.matches(&mut c, &rule.matches);
        c.assert(m);
        assert_eq!(c.solve(), SolveResult::Sat);
        let p = h.decode(&c);
        assert!(rule.matches.matches(&p), "decoded {p} should match");
    }

    #[test]
    fn solver_proves_prefix_range_equivalence() {
        // dst ∈ 1.0.0.0/8 ⇔ 0x01000000 <= dst <= 0x01ffffff; negation unsat.
        let mut c = CircuitBuilder::new();
        let h = HeaderVars::new(&mut c);
        let a = h.field_prefix(&mut c, Field::DstIp, 0x0100_0000, 8);
        let b = h.field_range(&mut c, Field::DstIp, 0x0100_0000, 0x01ff_ffff);
        let eq = c.iff(a, b);
        c.assert(!eq);
        assert_eq!(c.solve(), SolveResult::Unsat);
    }

    /// An aligned block is the prefix gate, whoever asks for it: a range, a
    /// single value, a rule's match or the same rule's cube in a set.
    #[test]
    fn aligned_blocks_are_the_prefix_gate() {
        let mut c = CircuitBuilder::new();
        let h = HeaderVars::new(&mut c);
        let slash8 = h.field_prefix(&mut c, Field::DstIp, 0x0100_0000, 8);
        let block = h.field_range(&mut c, Field::DstIp, 0x0100_0000, 0x01ff_ffff);
        assert_eq!(block, slash8);
        let low_ports = h.field_range(&mut c, Field::SrcPort, 0, 1023);
        assert_eq!(low_ports, h.field_prefix(&mut c, Field::SrcPort, 0, 6));
        let port = h.field_range(&mut c, Field::DstPort, 80, 80);
        assert_eq!(port, h.field_eq(&mut c, Field::DstPort, 80));
        assert_eq!(h.field_range(&mut c, Field::Proto, 0, 255), c.t());

        let rule =
            parse_rule("permit src 10.0.0.0/8 dst 1.0.0.0/8 sport 0-1023 dport 80 proto tcp")
                .unwrap();
        let matched = h.matches(&mut c, &rule.matches);
        let size = (c.solver().num_vars(), c.solver().num_clauses());
        let member = h.in_set(&mut c, &PacketSet::from_cube(rule.matches.cube()));
        assert_eq!(member, matched);
        assert_eq!((c.solver().num_vars(), c.solver().num_clauses()), size);
    }

    #[test]
    fn full_and_empty_bounds_fold_to_constants() {
        let mut c = CircuitBuilder::new();
        let h = HeaderVars::new(&mut c);
        let all = h.field_leq(&mut c, Field::SrcPort, u16::MAX as u64);
        assert_eq!(all, c.t());
        let all2 = h.field_geq(&mut c, Field::SrcPort, 0);
        assert_eq!(all2, c.t());
    }
}
