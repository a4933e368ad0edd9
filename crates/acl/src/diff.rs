//! Differential and related rules — Definitions 4.1 / 4.2 and Theorem 4.1.
//!
//! The check primitive's headline optimization: instead of encoding whole
//! ACLs into the solver, identify the rules an update actually touched
//! (the *differential rules*, computed against the longest common
//! subsequence of the two rule lists) plus every rule overlapping them (the
//! *related rules*), and reason only about those. Theorem 4.1 guarantees the
//! reduction is sound: if the related-rule sub-ACLs are equivalent, so are
//! the full ACLs.
//!
//! We additionally expose the packet cover `H` (all packets matched by some
//! differential rule): a packet outside `H` meets the *same* rule
//! subsequence in `L` and `L'`, so it cannot witness an inconsistency.
//! Conjoining `h ∈ H` to the check formula is therefore sound *and*
//! complete, and further shrinks the solver's search space.

use crate::acl::Acl;
use crate::rule::Rule;
use crate::set::PacketSet;

/// Longest common subsequence of two rule lists, as index pairs
/// `(i, j)` with `a[i] == b[j]`, strictly increasing in both components.
pub fn lcs_pairs(a: &[Rule], b: &[Rule]) -> Vec<(usize, usize)> {
    let (n, m) = (a.len(), b.len());
    // Classic O(n·m) DP. ACLs are at most a few thousand rules, so this is
    // fine; the table is u32 to keep it compact.
    let mut dp = vec![0u32; (n + 1) * (m + 1)];
    let idx = |i: usize, j: usize| i * (m + 1) + j;
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            dp[idx(i, j)] = if a[i] == b[j] {
                dp[idx(i + 1, j + 1)] + 1
            } else {
                dp[idx(i + 1, j)].max(dp[idx(i, j + 1)])
            };
        }
    }
    let mut out = Vec::with_capacity(dp[idx(0, 0)] as usize);
    let (mut i, mut j) = (0, 0);
    while i < n && j < m {
        if a[i] == b[j] {
            out.push((i, j));
            i += 1;
            j += 1;
        } else if dp[idx(i + 1, j)] >= dp[idx(i, j + 1)] {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

/// The differential rules `D_{L,L'}` of Definition 4.1: rules of either list
/// that are not part of the longest common subsequence (i.e. were added,
/// removed, or moved by the update).
pub fn differential_rules(l: &Acl, l2: &Acl) -> Vec<Rule> {
    let pairs = lcs_pairs(l.rules(), l2.rules());
    let in_a: Vec<bool> = {
        let mut v = vec![false; l.len()];
        for &(i, _) in &pairs {
            v[i] = true;
        }
        v
    };
    let in_b: Vec<bool> = {
        let mut v = vec![false; l2.len()];
        for &(_, j) in &pairs {
            v[j] = true;
        }
        v
    };
    let mut out: Vec<Rule> = Vec::new();
    for (i, r) in l.rules().iter().enumerate() {
        if !in_a[i] {
            out.push(*r);
        }
    }
    for (j, r) in l2.rules().iter().enumerate() {
        if !in_b[j] && !out.contains(r) {
            out.push(*r);
        }
    }
    out
}

/// The related rules `R(L, S)` of Definition 4.2: the sub-ACL of `L` keeping
/// only rules that overlap some rule in `S` (satisfiable `m_k ∧ m_k'`).
/// Order and the default action are preserved, so the result is itself a
/// well-formed ACL.
pub fn related_rules(l: &Acl, s: &[Rule]) -> Acl {
    // Index the probe set once (the §5.5 search tree) so relatedness is
    // O(|L| log |S|) instead of O(|L|·|S|).
    let tree = crate::rtree::RuleTree::build(s.iter().map(|r| r.matches).collect());
    let kept: Vec<Rule> = l
        .rules()
        .iter()
        .filter(|k| tree.overlaps_any(&k.matches))
        .copied()
        .collect();
    Acl::new(kept, l.default_action())
}

/// The packet cover `H` from the proof of Theorem 4.1: every packet matched
/// by at least one differential rule. Inconsistencies can only live in `H`.
pub fn differential_cover(diff: &[Rule]) -> PacketSet {
    PacketSet::from_cubes(diff.iter().map(|r| r.matches.cube()).collect())
}

/// Convenience bundle: everything check's preprocessing needs for one
/// `(L, L')` pair.
#[derive(Debug, Clone)]
pub struct AclDiff {
    /// The differential rules `D_{L,L'} ∪ D_{L',L}`.
    pub diff: Vec<Rule>,
    /// `R(L, diff)` — reduced "before" ACL.
    pub reduced_before: Acl,
    /// `R(L', diff)` — reduced "after" ACL.
    pub reduced_after: Acl,
    /// The packet cover of the differential rules.
    pub cover: PacketSet,
}

impl AclDiff {
    /// Diff one ACL pair. When `l == l'` the diff is empty and the reduced
    /// ACLs have no rules.
    ///
    /// A changed *default action* is a change to the implicit trailing
    /// match-all rule, so it contributes a match-all differential rule —
    /// every packet can then witness a difference and every rule is
    /// related (the reduction degenerates gracefully to the full ACLs).
    pub fn compute(l: &Acl, l2: &Acl) -> AclDiff {
        let mut diff = differential_rules(l, l2);
        if l.default_action() != l2.default_action() {
            diff.push(crate::rule::Rule::all(l2.default_action()));
        }
        let reduced_before = related_rules(l, &diff);
        let reduced_after = related_rules(l2, &diff);
        let cover = differential_cover(&diff);
        AclDiff {
            diff,
            reduced_before,
            reduced_after,
            cover,
        }
    }

    /// `true` when the update did not touch this ACL at all.
    pub fn is_unchanged(&self) -> bool {
        self.diff.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acl::AclBuilder;
    use crate::packet::Packet;

    fn pkt(dst: u32) -> Packet {
        Packet::to_dst(dst)
    }

    #[test]
    fn lcs_of_identical_lists_is_everything() {
        let a = AclBuilder::default_permit()
            .deny_dst("1.0.0.0/8")
            .deny_dst("2.0.0.0/8")
            .build();
        let pairs = lcs_pairs(a.rules(), a.rules());
        assert_eq!(pairs, vec![(0, 0), (1, 1)]);
        assert!(differential_rules(&a, &a).is_empty());
    }

    #[test]
    fn differential_cover_is_the_union_fold() {
        let rules = AclBuilder::default_permit()
            .deny_dst("1.2.0.0/16")
            .deny_dst("1.0.0.0/8")
            .permit_dst("2.0.0.0/8")
            .deny_dst("1.0.0.0/8")
            .build();
        let fold = rules.rules().iter().fold(PacketSet::empty(), |h, r| {
            h.union(&PacketSet::from_cube(r.matches.cube()))
        });
        let cover = differential_cover(rules.rules());
        assert_eq!(cover, fold);
        assert_eq!(cover.cube_count(), 2);
    }

    #[test]
    fn diff_detects_insertion() {
        let before = AclBuilder::default_permit().deny_dst("6.0.0.0/8").build();
        let after = AclBuilder::default_permit()
            .deny_dst("1.0.0.0/8")
            .deny_dst("2.0.0.0/8")
            .deny_dst("6.0.0.0/8")
            .build();
        let d = differential_rules(&before, &after);
        assert_eq!(d.len(), 2);
        assert!(d.iter().all(|r| r.to_string().starts_with("deny dst")));
    }

    #[test]
    fn diff_detects_removal_and_reorder() {
        let before = AclBuilder::default_permit()
            .deny_dst("1.0.0.0/8")
            .permit_dst("2.0.0.0/8")
            .build();
        let after = AclBuilder::default_permit()
            .permit_dst("2.0.0.0/8")
            .deny_dst("1.0.0.0/8")
            .build();
        // A swap keeps one rule in the LCS; the other shows up from both
        // sides but is deduplicated.
        let d = differential_rules(&before, &after);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn related_rules_keep_order_and_default() {
        let acl = AclBuilder::default_deny()
            .deny_dst("1.0.0.0/8")
            .permit_dst("9.0.0.0/8")
            .permit_dst("1.2.0.0/16")
            .build();
        let probe = vec![Rule::on_dst(
            crate::rule::Action::Deny,
            crate::parse::parse_prefix("1.0.0.0/8").unwrap(),
        )];
        let r = related_rules(&acl, &probe);
        assert_eq!(r.len(), 2); // 1/8 rule and the nested 1.2/16, not 9/8
        assert_eq!(r.default_action(), crate::rule::Action::Deny);
        assert_eq!(r.rules()[0].to_string(), "deny dst 1.0.0.0/8");
        assert_eq!(r.rules()[1].to_string(), "permit dst 1.2.0.0/16");
    }

    #[test]
    fn theorem_4_1_on_the_running_example() {
        // Moving "deny dst 1/8, deny dst 2/8" off D2: reduced ACLs must
        // still disagree exactly where the originals disagree.
        let before = AclBuilder::default_permit()
            .deny_dst("1.0.0.0/8")
            .deny_dst("2.0.0.0/8")
            .build();
        let after = Acl::permit_all();
        let d = AclDiff::compute(&before, &after);
        assert_eq!(d.diff.len(), 2);
        // Every packet where before/after disagree lies in the cover.
        for dst in [0x0100_0001u32, 0x0200_0001, 0x0300_0001] {
            let p = pkt(dst);
            if before.permits(&p) != after.permits(&p) {
                assert!(d.cover.contains(&p));
            }
        }
        // And the reduced pair disagrees exactly like the full pair inside
        // the cover.
        for dst in [0x0100_0001u32, 0x0200_0001] {
            let p = pkt(dst);
            assert_eq!(
                d.reduced_before.permits(&p) == d.reduced_after.permits(&p),
                before.permits(&p) == after.permits(&p)
            );
        }
    }

    #[test]
    fn packets_outside_cover_never_disagree() {
        // Randomized-ish structural case: swap a deep rule, check that the
        // full ACLs agree outside H (the completeness half of our H
        // conjunct).
        let before = AclBuilder::default_permit()
            .deny_dst("10.0.0.0/8")
            .permit_dst("10.1.0.0/16")
            .deny_dst("172.16.0.0/12")
            .build();
        let after = AclBuilder::default_permit()
            .deny_dst("10.0.0.0/8")
            .deny_dst("172.16.0.0/12")
            .build();
        let d = AclDiff::compute(&before, &after);
        for dst in (0u32..0xff00_0000).step_by(0x0100_0000 / 4) {
            let p = pkt(dst);
            if !d.cover.contains(&p) {
                assert_eq!(before.permits(&p), after.permits(&p), "dst {dst:#x}");
            }
        }
    }

    #[test]
    fn unchanged_acl_has_empty_diff() {
        let acl = AclBuilder::default_permit().deny_dst("6.0.0.0/8").build();
        let d = AclDiff::compute(&acl, &acl.clone());
        assert!(d.is_unchanged());
        assert!(d.cover.is_empty());
        assert!(d.reduced_before.is_empty());
    }
}

/// Property-style tests over a deterministic xorshift stream (this crate
/// has no dependencies, `rand` included).
#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::acl::AclBuilder;
    use crate::packet::Packet;
    use crate::rule::Action;

    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            // Same generator the rtree tests use.
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    /// A random ACL over a deliberately small, heavily overlapping prefix
    /// universe (src and dst rules, both actions, both defaults).
    fn random_acl(rng: &mut Rng) -> Acl {
        let n = (rng.next() % 10) as usize;
        let mut b = if rng.next() % 2 == 0 {
            AclBuilder::default_permit()
        } else {
            AclBuilder::default_deny()
        };
        for _ in 0..n {
            let p = format!(
                "{}.{}.0.0/{}",
                rng.next() % 3,
                rng.next() % 3,
                8 + rng.next() % 17
            );
            b = match rng.next() % 4 {
                0 => b.permit_dst(&p),
                1 => b.deny_dst(&p),
                2 => b.permit_src(&p),
                _ => b.deny_src(&p),
            };
        }
        b.build()
    }

    /// A random small mutation of `acl`: drop a rule, duplicate-and-move a
    /// rule, or flip the default.
    fn mutate(rng: &mut Rng, acl: &Acl) -> Acl {
        let mut rules: Vec<Rule> = acl.rules().to_vec();
        let mut default = acl.default_action();
        match rng.next() % 3 {
            0 if !rules.is_empty() => {
                let i = (rng.next() as usize) % rules.len();
                rules.remove(i);
            }
            1 if !rules.is_empty() => {
                let i = (rng.next() as usize) % rules.len();
                let r = rules[i];
                let j = (rng.next() as usize) % (rules.len() + 1);
                rules.insert(j, r);
            }
            _ => {
                default = match default {
                    Action::Permit => Action::Deny,
                    Action::Deny => Action::Permit,
                };
            }
        }
        Acl::new(rules, default)
    }

    fn random_packet(rng: &mut Rng) -> Packet {
        // Addresses concentrated where the rule universe lives, so packets
        // actually exercise the rules.
        let ip = |r: &mut Rng| ((r.next() % 3) as u32) << 24 | (((r.next() % 3) as u32) << 16);
        Packet::new(
            ip(rng),
            ip(rng),
            (rng.next() % 1024) as u16,
            (rng.next() % 1024) as u16,
            6,
        )
    }

    #[test]
    fn diff_of_an_acl_with_itself_is_empty() {
        let mut rng = Rng(0x5eed_0001);
        for _ in 0..50 {
            let acl = random_acl(&mut rng);
            assert!(differential_rules(&acl, &acl).is_empty(), "{acl}");
            let d = AclDiff::compute(&acl, &acl.clone());
            assert!(d.is_unchanged());
            assert!(d.cover.is_empty());
            assert!(d.reduced_before.is_empty() && d.reduced_after.is_empty());
        }
    }

    #[test]
    fn cover_over_approximates_the_symmetric_difference() {
        // Theorem 4.1's `H`: any packet the two ACLs decide differently
        // must be matched by some differential rule.
        let mut rng = Rng(0x5eed_0002);
        for case in 0..50 {
            let before = random_acl(&mut rng);
            let after = mutate(&mut rng, &before);
            let d = AclDiff::compute(&before, &after);
            for _ in 0..200 {
                let p = random_packet(&mut rng);
                if before.permits(&p) != after.permits(&p) {
                    assert!(
                        d.cover.contains(&p),
                        "case {case}: disagreement on {p} escaped the cover\nbefore: {before}\nafter: {after}"
                    );
                }
            }
        }
    }

    #[test]
    fn unchanged_iff_rule_lists_and_defaults_equal() {
        let mut rng = Rng(0x5eed_0003);
        for _ in 0..50 {
            let before = random_acl(&mut rng);
            let after = if rng.next() % 2 == 0 {
                before.clone()
            } else {
                mutate(&mut rng, &before)
            };
            let d = AclDiff::compute(&before, &after);
            let same = before.rules() == after.rules()
                && before.default_action() == after.default_action();
            assert_eq!(d.is_unchanged(), same, "\nbefore: {before}\nafter: {after}");
        }
    }

    /// A shrunken `tests/prop_acl_semantics.rs` failure, pinned: two *empty* ACLs
    /// whose only difference is the default action. There are no rule
    /// pairs to relate, so the default-action flip must be covered
    /// explicitly — the cover is all of header space and the reduced pair
    /// reproduces the disagreement on the shrunken witness (and, being
    /// rule-free, everywhere else).
    #[test]
    fn default_action_only_diff_covers_everything() {
        let a = Acl::new(vec![], Action::Permit);
        let b = Acl::new(vec![], Action::Deny);
        let d = AclDiff::compute(&a, &b);
        assert!(!d.is_unchanged());
        assert!(d.cover.same_set(&PacketSet::full()));
        let p = Packet::new(0, 0, 0, 0, 6); // the shrunken witness
        assert!(d.cover.contains(&p), "disagreement outside cover");
        assert_eq!(d.reduced_before.permits(&p), a.permits(&p));
        assert_eq!(d.reduced_after.permits(&p), b.permits(&p));
    }

    #[test]
    fn reduced_pair_disagrees_exactly_like_the_full_pair_inside_the_cover() {
        // The other half of Theorem 4.1 (sampled): within `H`, the
        // related-rule sub-ACLs witness the same (in)equivalence as the
        // full ACLs.
        let mut rng = Rng(0x5eed_0004);
        for case in 0..30 {
            let before = random_acl(&mut rng);
            let after = mutate(&mut rng, &before);
            let d = AclDiff::compute(&before, &after);
            for _ in 0..200 {
                let p = random_packet(&mut rng);
                if !d.cover.contains(&p) {
                    continue;
                }
                assert_eq!(
                    d.reduced_before.permits(&p) == d.reduced_after.permits(&p),
                    before.permits(&p) == after.permits(&p),
                    "case {case}: {p}\nbefore: {before}\nafter: {after}"
                );
            }
        }
    }
}
