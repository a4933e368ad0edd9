//! Ordered ACLs with first-match semantics and set-algebra compilation.
//!
//! An [`Acl`] is the `L_ξ` of the paper: a prioritized rule list evaluated
//! top to bottom, with a configurable default action when nothing matches
//! (the examples in the paper carry an explicit trailing `permit all`; real
//! devices usually default-deny — both styles are expressible).
//!
//! [`Acl::permit_set`] compiles the whole list into the exact set of
//! permitted packets, which *is* the decision model `f_ξ` in set form:
//! `f_ξ(h) ⇔ h ∈ permit_set(L_ξ)`. It is a fold over [`Acl::walk`], the one
//! first-match walk that hands out each rule's effective region, which is
//! also what synthesis groups into sequence-encoding rows (§5.4/§5.5).

use crate::cube::Cube;
use crate::packet::Packet;
use crate::rule::{Action, MatchSpec, Rule};
use crate::set::PacketSet;
use std::fmt;

/// A sequential access control list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Acl {
    rules: Vec<Rule>,
    default_action: Action,
}

impl Acl {
    /// An ACL with the given rules and a default action for packets that
    /// fall off the end of the list.
    pub fn new(rules: Vec<Rule>, default_action: Action) -> Acl {
        Acl {
            rules,
            default_action,
        }
    }

    /// The "no ACL configured" ACL: permits everything. Interfaces without
    /// ACLs behave exactly like this.
    pub fn permit_all() -> Acl {
        Acl::new(Vec::new(), Action::Permit)
    }

    /// An ACL that denies everything.
    pub fn deny_all() -> Acl {
        Acl::new(Vec::new(), Action::Deny)
    }

    /// The rules, in priority order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The fall-through action.
    pub fn default_action(&self) -> Action {
        self.default_action
    }

    /// Number of explicit rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// `true` when there are no explicit rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// First-match evaluation: the decision model `f_ξ(h)` as an [`Action`].
    pub fn eval(&self, p: &Packet) -> Action {
        for r in &self.rules {
            if r.matches.matches(p) {
                return r.action;
            }
        }
        self.default_action
    }

    /// `true` iff the packet is permitted (the boolean `f_ξ(h)`).
    pub fn permits(&self, p: &Packet) -> bool {
        self.eval(p).permits()
    }

    /// Index of the first rule matching `p`, or `None` for default.
    pub fn first_match(&self, p: &Packet) -> Option<usize> {
        self.rules.iter().position(|r| r.matches.matches(p))
    }

    /// All rule indices whose *effective region* intersects `set` — i.e.
    /// the rules some packet of `set` actually hits first. Used by the
    /// synthesis sequence encoding (§5.4 Step 1) where one class may hit
    /// several rules of the same ACL.
    pub fn hit_rules(&self, set: &PacketSet) -> Vec<usize> {
        let mut out = Vec::new();
        let mut remaining = set.clone();
        for (i, r) in self.rules.iter().enumerate() {
            if remaining.is_empty() {
                break;
            }
            let m = PacketSet::from_cube(r.matches.cube());
            if remaining.intersects(&m) {
                out.push(i);
                remaining = remaining.subtract(&m);
            }
        }
        out
    }

    /// The first-match walk: `visit(index, action, region)` for every rule
    /// whose *effective region* — the packets it matches that no earlier
    /// rule matched — is non-empty, in priority order. Returns the packets
    /// that fall through to the default action. The regions and the
    /// remainder are pairwise disjoint and together make up the header
    /// space.
    ///
    /// What is left to walk is always a pairwise-disjoint cube list (the
    /// full space, then carve results), so each rule splits it cube by cube
    /// in one pass: the pieces are exactly, cube for cube,
    /// `remaining.intersect(m)` and `remaining.subtract(m)`, without the
    /// subsumption prune and the disjoining pass those two spend on a
    /// general representation.
    pub fn walk(&self, mut visit: impl FnMut(usize, Action, PacketSet)) -> PacketSet {
        let mut remaining = vec![Cube::full()];
        let mut rest = Vec::new();
        for (i, r) in self.rules.iter().enumerate() {
            if remaining.is_empty() {
                break;
            }
            let m = r.matches.cube();
            let mut region = Vec::new();
            for c in &remaining {
                if let Some(inside) = c.intersect(&m) {
                    region.push(inside);
                }
                c.subtract_into(&m, &mut rest);
            }
            std::mem::swap(&mut remaining, &mut rest);
            rest.clear();
            if !region.is_empty() {
                visit(i, r.action, PacketSet::from_cubes_raw(region));
            }
        }
        PacketSet::from_cubes_raw(remaining)
    }

    /// The exact set of packets this ACL permits.
    pub fn permit_set(&self) -> PacketSet {
        self.permit_set_visiting(|_, _, _| {})
    }

    /// [`Acl::permit_set`] from one [`Acl::walk`] whose regions are also
    /// handed on to `visit`, for a caller that needs both from one pass
    /// over the rules. The permitted regions and then the remainder (under
    /// a permitting default) are folded by `union` in priority order.
    pub fn permit_set_visiting(
        &self,
        mut visit: impl FnMut(usize, Action, PacketSet),
    ) -> PacketSet {
        let mut permitted = PacketSet::empty();
        let remaining = self.walk(|i, action, region| {
            if action.permits() {
                permitted = permitted.union(&region);
            }
            visit(i, action, region);
        });
        if self.default_action.permits() {
            permitted = permitted.union(&remaining);
        }
        permitted
    }

    /// Decide whether `set` gets a uniform decision from this ACL, and if so
    /// which. Returns `None` when the ACL splits the set.
    pub fn uniform_decision(&self, set: &PacketSet) -> Option<Action> {
        if set.is_empty() {
            return Some(self.default_action);
        }
        let permits = self.permit_set();
        let inside = set.intersect(&permits);
        if inside.is_empty() {
            Some(Action::Deny)
        } else if set.is_subset(&permits) {
            Some(Action::Permit)
        } else {
            None
        }
    }

    /// Semantic equivalence: same decision on every packet.
    pub fn equivalent(&self, other: &Acl) -> bool {
        self.permit_set().same_set(&other.permit_set())
    }

    /// A new ACL with `rules` stacked on top (higher priority), as the fix
    /// primitive does ("fix the given ACLs by adding rules on top").
    pub fn with_prepended(&self, rules: &[Rule]) -> Acl {
        let mut all = rules.to_vec();
        all.extend(self.rules.iter().copied());
        Acl::new(all, self.default_action)
    }

    /// `true` when this ACL permits every packet (e.g. after "clean up").
    pub fn is_permit_all(&self) -> bool {
        self.permit_set().same_set(&PacketSet::full())
    }

    /// The ACL as text lines: one rule per line in priority order, then
    /// `default <action>` — the form [`crate::parse::parse_acl`] reads
    /// back, and what every plan, spec and delta script carries.
    pub fn lines(&self) -> Vec<String> {
        let mut lines: Vec<String> = self.rules.iter().map(ToString::to_string).collect();
        lines.push(format!("default {}", self.default_action));
        lines
    }
}

impl fmt::Display for Acl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        write!(f, "(default {})", self.default_action)
    }
}

/// Fluent construction helper used pervasively by tests and examples.
///
/// ```
/// use jinjing_acl::{AclBuilder, Action};
/// let acl = AclBuilder::default_permit()
///     .deny_dst("6.0.0.0/8")
///     .build();
/// assert_eq!(acl.len(), 1);
/// assert_eq!(acl.default_action(), Action::Permit);
/// ```
#[derive(Debug, Clone)]
pub struct AclBuilder {
    rules: Vec<Rule>,
    default_action: Action,
}

impl AclBuilder {
    /// Builder with a trailing implicit `permit all`.
    pub fn default_permit() -> AclBuilder {
        AclBuilder {
            rules: Vec::new(),
            default_action: Action::Permit,
        }
    }

    /// Builder with a trailing implicit `deny all`.
    pub fn default_deny() -> AclBuilder {
        AclBuilder {
            rules: Vec::new(),
            default_action: Action::Deny,
        }
    }

    /// Append an arbitrary rule.
    pub fn rule(mut self, r: Rule) -> AclBuilder {
        self.rules.push(r);
        self
    }

    /// Append `deny dst <prefix>`; the prefix is parsed from `"a.b.c.d/len"`.
    pub fn deny_dst(self, prefix: &str) -> AclBuilder {
        let p = crate::parse::parse_prefix(prefix).expect("invalid prefix literal");
        self.rule(Rule::on_dst(Action::Deny, p))
    }

    /// Append `permit dst <prefix>`.
    pub fn permit_dst(self, prefix: &str) -> AclBuilder {
        let p = crate::parse::parse_prefix(prefix).expect("invalid prefix literal");
        self.rule(Rule::on_dst(Action::Permit, p))
    }

    /// Append `deny src <prefix>`.
    pub fn deny_src(self, prefix: &str) -> AclBuilder {
        let p = crate::parse::parse_prefix(prefix).expect("invalid prefix literal");
        self.rule(Rule::new(Action::Deny, MatchSpec::src(p)))
    }

    /// Append `permit src <prefix>`.
    pub fn permit_src(self, prefix: &str) -> AclBuilder {
        let p = crate::parse::parse_prefix(prefix).expect("invalid prefix literal");
        self.rule(Rule::new(Action::Permit, MatchSpec::src(p)))
    }

    /// Finish.
    pub fn build(self) -> Acl {
        Acl::new(self.rules, self.default_action)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::parse_ip;
    use crate::rule::IpPrefix;

    fn dstpkt(s: &str) -> Packet {
        Packet::to_dst(parse_ip(s).unwrap())
    }

    /// The `A1` ACL from Figure 1: deny dst 6/8, permit all.
    fn a1() -> Acl {
        AclBuilder::default_permit().deny_dst("6.0.0.0/8").build()
    }

    #[test]
    fn first_match_wins() {
        let acl = AclBuilder::default_permit()
            .deny_dst("1.0.0.0/8")
            .permit_dst("1.2.0.0/16") // shadowed by the deny above
            .build();
        assert_eq!(acl.eval(&dstpkt("1.2.3.4")), Action::Deny);
    }

    #[test]
    fn default_applies_when_nothing_matches() {
        let acl = a1();
        assert_eq!(acl.eval(&dstpkt("6.1.2.3")), Action::Deny);
        assert_eq!(acl.eval(&dstpkt("7.1.2.3")), Action::Permit);
        assert!(Acl::permit_all().permits(&dstpkt("6.1.2.3")));
        assert!(!Acl::deny_all().permits(&dstpkt("6.1.2.3")));
    }

    #[test]
    fn permit_set_matches_eval_exhaustively_on_a_slice() {
        let acl = AclBuilder::default_deny()
            .permit_dst("10.0.0.0/30")
            .deny_dst("10.0.0.0/31")
            .build();
        let ps = acl.permit_set();
        for dip in 0x0a00_0000u32..0x0a00_0010 {
            let p = Packet::to_dst(dip);
            assert_eq!(acl.permits(&p), ps.contains(&p), "dip={dip:#x}");
        }
    }

    #[test]
    fn uniform_decision_detects_splits() {
        let acl = a1();
        let six = PacketSet::from_cube(MatchSpec::dst(pfx("6.0.0.0/8")).cube());
        let seven = PacketSet::from_cube(MatchSpec::dst(pfx("7.0.0.0/8")).cube());
        assert_eq!(acl.uniform_decision(&six), Some(Action::Deny));
        assert_eq!(acl.uniform_decision(&seven), Some(Action::Permit));
        let both = six.union(&seven);
        assert_eq!(acl.uniform_decision(&both), None);
        assert_eq!(
            acl.uniform_decision(&PacketSet::empty()),
            Some(Action::Permit)
        );
    }

    #[test]
    fn equivalence_is_semantic() {
        // deny 6/8 ; permit all   ==   permit 7/8 upfront then same
        let a = a1();
        let b = AclBuilder::default_permit()
            .permit_dst("7.0.0.0/8")
            .deny_dst("6.0.0.0/8")
            .build();
        assert!(a.equivalent(&b));
        let c = AclBuilder::default_permit().deny_dst("5.0.0.0/8").build();
        assert!(!a.equivalent(&c));
    }

    #[test]
    fn prepend_overrides() {
        let fixed = a1().with_prepended(&[Rule::on_dst(Action::Permit, pfx("6.1.0.0/16"))]);
        assert!(fixed.permits(&dstpkt("6.1.2.3")));
        assert!(!fixed.permits(&dstpkt("6.2.0.0")));
    }

    #[test]
    fn hit_rules_reports_every_first_match_rule() {
        // Class covering 1/8 and 2/8 against an ACL with separate rules.
        let acl = AclBuilder::default_permit()
            .deny_dst("1.0.0.0/8")
            .deny_dst("2.0.0.0/8")
            .build();
        let class = PacketSet::from_cube(MatchSpec::dst(pfx("1.0.0.0/8")).cube()).union(
            &PacketSet::from_cube(MatchSpec::dst(pfx("2.0.0.0/8")).cube()),
        );
        assert_eq!(acl.hit_rules(&class), vec![0, 1]);
        let one_only = PacketSet::from_cube(MatchSpec::dst(pfx("1.0.0.0/8")).cube());
        assert_eq!(acl.hit_rules(&one_only), vec![0]);
    }

    #[test]
    fn is_permit_all_sees_through_rules() {
        let acl = AclBuilder::default_permit().permit_dst("1.0.0.0/8").build();
        assert!(acl.is_permit_all());
        assert!(!a1().is_permit_all());
    }

    fn pfx(s: &str) -> IpPrefix {
        crate::parse::parse_prefix(s).unwrap()
    }
}
