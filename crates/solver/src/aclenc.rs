//! ACL decision-model encodings.
//!
//! Two circuit encodings of `f_ξ(h)` — the boolean "does ACL `L` permit
//! packet `h`" function:
//!
//! - [`encode_sequential`]: the direct first-match chain
//!   `ite(m_1, a_1, ite(m_2, a_2, …, default))`. Faithful to rule priority
//!   but gives the solver an O(n)-deep dependency spine.
//! - [`encode_tree`]: the paper's §4.1 "ACL decision model optimization".
//!   Each rule becomes a `(hit, decision)` pair and pairs combine as in a
//!   tournament: `hit = hit_l ∨ hit_r`, `dec = ite(hit_l, dec_l, dec_r)`.
//!   The balanced reduction keeps the circuit O(log n) deep, trading DPLL
//!   search depth for width exactly as §9 describes.
//!
//! Both encodings are proven equivalent by the property tests below and by
//! the solver itself (`tree ⇎ sequential` is unsat).

use crate::circuit::CircuitBuilder;
use crate::header::HeaderVars;
use crate::lit::Lit;
use jinjing_acl::{Acl, Field};

/// Which decision-model encoding to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Encoding {
    /// Sequential first-match chain (the "prior decision model" of §4.1).
    Sequential,
    /// Balanced tournament tree (the paper's optimization; default).
    #[default]
    Tree,
}

/// Encode with the chosen strategy.
pub fn encode(c: &mut CircuitBuilder, h: &HeaderVars, acl: &Acl, enc: Encoding) -> Lit {
    match enc {
        Encoding::Sequential => encode_sequential(c, h, acl),
        Encoding::Tree => encode_tree(c, h, acl),
    }
}

/// Sequential encoding: fold the rule list from the bottom up into an
/// if-then-else chain.
pub fn encode_sequential(c: &mut CircuitBuilder, h: &HeaderVars, acl: &Acl) -> Lit {
    let mut dec = if acl.default_action().permits() {
        c.t()
    } else {
        c.f()
    };
    for rule in acl.rules().iter().rev() {
        let m = h.matches(c, &rule.matches);
        let action = if rule.action.permits() { c.t() } else { c.f() };
        dec = c.ite(m, action, dec);
    }
    dec
}

/// Tree encoding: combine `(hit, decision)` leaves in a balanced binary
/// tree, then fall back to the default action when nothing hit.
pub fn encode_tree(c: &mut CircuitBuilder, h: &HeaderVars, acl: &Acl) -> Lit {
    let default = if acl.default_action().permits() {
        c.t()
    } else {
        c.f()
    };
    if acl.rules().is_empty() {
        return default;
    }
    // Leaves, in priority order.
    let mut layer: Vec<(Lit, Lit)> = acl
        .rules()
        .iter()
        .map(|r| {
            let hit = h.matches(c, &r.matches);
            let dec = if r.action.permits() { c.t() } else { c.f() };
            (hit, dec)
        })
        .collect();
    // Balanced pairwise reduction. Combining (l, r) where l has priority:
    // the combined node hits if either hits and decides by the leftmost hit.
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        let mut it = layer.into_iter();
        while let Some(left) = it.next() {
            match it.next() {
                Some(right) => {
                    let hit = c.or(&[left.0, right.0]);
                    let dec = c.ite(left.0, left.1, right.1);
                    next.push((hit, dec));
                }
                None => next.push(left),
            }
        }
        layer = next;
    }
    let (hit, dec) = layer[0];
    c.ite(hit, dec, default)
}

/// A cheap, stable, order-sensitive fingerprint of an ACL's decision
/// model, for use as a (pre)key in cross-query encoding caches.
///
/// FNV-1a over the default action and every rule's `(action, match cube)`
/// in priority order. Two ACLs that encode to the same circuit (identical
/// rule list + default) always get the same fingerprint; the converse is
/// only probabilistic, which is why cache keys must *also* store the full
/// ACLs and compare them on lookup (see `jinjing-core::qcache`). Stable
/// across processes (no `DefaultHasher` seed), so fingerprints are safe to
/// surface in logs and bench output.
#[must_use]
pub fn acl_fingerprint(acl: &Acl) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    mix(u64::from(acl.default_action().permits()));
    mix(acl.rules().len() as u64);
    for rule in acl.rules() {
        mix(u64::from(rule.action.permits()));
        let cube = rule.matches.cube();
        for f in Field::ALL {
            let iv = cube.get(f);
            mix(iv.lo());
            mix(iv.hi());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdcl::SolveResult;
    use jinjing_acl::{AclBuilder, Packet};

    fn sample_acl() -> Acl {
        AclBuilder::default_permit()
            .deny_dst("1.0.0.0/8")
            .permit_dst("1.2.0.0/16") // shadowed
            .deny_dst("6.0.0.0/8")
            .deny_src("10.0.0.0/8")
            .permit_dst("7.0.0.0/8")
            .build()
    }

    fn probes() -> Vec<Packet> {
        vec![
            Packet::to_dst(0x0102_0304),
            Packet::to_dst(0x0600_0001),
            Packet::to_dst(0x0700_0001),
            Packet::new(0x0a00_0001, 0x0700_0001, 0, 0, 0),
            Packet::new(0x0b00_0001, 0x0800_0001, 0, 0, 0),
        ]
    }

    fn check_encoding_on_packets(enc: Encoding) {
        let acl = sample_acl();
        for p in probes() {
            let mut c = CircuitBuilder::new();
            let h = HeaderVars::new(&mut c);
            let g = encode(&mut c, &h, &acl, enc);
            h.assert_packet(&mut c, &p);
            assert_eq!(c.solve(), SolveResult::Sat);
            assert_eq!(c.model_value(g), acl.permits(&p), "{enc:?} on {p}");
        }
    }

    #[test]
    fn sequential_matches_concrete_eval() {
        check_encoding_on_packets(Encoding::Sequential);
    }

    #[test]
    fn tree_matches_concrete_eval() {
        check_encoding_on_packets(Encoding::Tree);
    }

    #[test]
    fn encodings_are_equivalent_by_solver_proof() {
        let acl = sample_acl();
        let mut c = CircuitBuilder::new();
        let h = HeaderVars::new(&mut c);
        let a = encode_sequential(&mut c, &h, &acl);
        let b = encode_tree(&mut c, &h, &acl);
        let eq = c.iff(a, b);
        c.assert(!eq);
        assert_eq!(c.solve(), SolveResult::Unsat);
    }

    /// Two same-action neighbours swapped inside one tree pair leave the
    /// circuit untouched: both sides are one literal and Eq. 3's miter is
    /// the constant, no solver call needed.
    #[test]
    fn swap_inside_a_tree_pair_folds_the_miter() {
        let before = sample_acl();
        let mut rules = before.rules().to_vec();
        assert_eq!(rules[2].action, rules[3].action);
        rules.swap(2, 3);
        let after = Acl::new(rules, before.default_action());
        assert_ne!(before, after);

        let mut c = CircuitBuilder::new();
        let h = HeaderVars::new(&mut c);
        let a = encode_tree(&mut c, &h, &before);
        let size = (c.solver().num_vars(), c.solver().num_clauses());
        let b = encode_tree(&mut c, &h, &after);
        assert_eq!(a, b);
        assert_eq!(c.iff(a, b), c.t());
        assert_eq!((c.solver().num_vars(), c.solver().num_clauses()), size);
    }

    #[test]
    fn empty_acl_encodes_to_default_constant() {
        for (acl, expect_true) in [(Acl::permit_all(), true), (Acl::deny_all(), false)] {
            for enc in [Encoding::Sequential, Encoding::Tree] {
                let mut c = CircuitBuilder::new();
                let h = HeaderVars::new(&mut c);
                let g = encode(&mut c, &h, &acl, enc);
                assert_eq!(g, if expect_true { c.t() } else { c.f() });
            }
        }
    }

    #[test]
    fn single_rule_acl() {
        let acl = AclBuilder::default_deny().permit_dst("9.0.0.0/8").build();
        for enc in [Encoding::Sequential, Encoding::Tree] {
            let mut c = CircuitBuilder::new();
            let h = HeaderVars::new(&mut c);
            let g = encode(&mut c, &h, &acl, enc);
            c.assert(g);
            assert_eq!(c.solve(), SolveResult::Sat);
            let p = h.decode(&c);
            assert!(acl.permits(&p));
            assert_eq!(p.dip >> 24, 9);
        }
    }

    #[test]
    fn fingerprint_is_stable_and_order_sensitive() {
        let a = sample_acl();
        let b = sample_acl();
        assert_eq!(acl_fingerprint(&a), acl_fingerprint(&b), "deterministic");
        // Rule order matters (priority is semantic).
        let fwd = AclBuilder::default_deny()
            .permit_dst("1.0.0.0/8")
            .deny_dst("1.2.0.0/16")
            .build();
        let rev = AclBuilder::default_deny()
            .deny_dst("1.2.0.0/16")
            .permit_dst("1.0.0.0/8")
            .build();
        assert_ne!(acl_fingerprint(&fwd), acl_fingerprint(&rev));
        // Default action matters.
        assert_ne!(
            acl_fingerprint(&Acl::permit_all()),
            acl_fingerprint(&Acl::deny_all())
        );
        // Action on an otherwise identical rule matters.
        let p = AclBuilder::default_deny().permit_dst("9.0.0.0/8").build();
        let d = AclBuilder::default_deny().deny_dst("9.0.0.0/8").build();
        assert_ne!(acl_fingerprint(&p), acl_fingerprint(&d));
    }

    #[test]
    fn priority_respected_in_tree_encoding() {
        // A shadowing permit above a deny: the tree combine must keep
        // left-priority.
        let acl = AclBuilder::default_deny()
            .permit_dst("5.0.0.0/8")
            .deny_dst("5.5.0.0/16")
            .permit_dst("5.5.5.0/24")
            .build();
        let probes = [
            Packet::to_dst(0x0505_0501), // hits rule 0 (permit 5/8)
            Packet::to_dst(0x0505_0000),
            Packet::to_dst(0x0500_0000),
            Packet::to_dst(0x0600_0000),
        ];
        for p in probes {
            let mut c = CircuitBuilder::new();
            let h = HeaderVars::new(&mut c);
            let g = encode_tree(&mut c, &h, &acl);
            h.assert_packet(&mut c, &p);
            assert_eq!(c.solve(), SolveResult::Sat);
            assert_eq!(c.model_value(g), acl.permits(&p), "{p}");
        }
    }
}
