//! ACL rules: 5-tuple match specifications plus a permit/deny action.
//!
//! A [`MatchSpec`] is the "ACL rule tuple ⟨sip, dip, sport, dport, proto⟩" of
//! the paper: per-field constraints, each of which denotes an interval, so a
//! match is exactly one [`Cube`] of header space. The fix primitive's
//! neighborhoods are also `MatchSpec`s — this is what makes fixing rules
//! "well-formed ACL rules" by construction.

use crate::cube::Cube;
use crate::interval::Interval;
use crate::packet::{fmt_ip, Field, Packet, Proto};
use std::fmt;

/// An IPv4 prefix `a.b.c.d/len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IpPrefix {
    addr: u32,
    len: u32,
}

impl IpPrefix {
    /// Construct, canonicalizing the address by masking host bits.
    pub fn new(addr: u32, len: u32) -> IpPrefix {
        assert!(len <= 32, "prefix length {len} > 32");
        let masked = if len == 0 {
            0
        } else {
            addr & (u32::MAX << (32 - len))
        };
        IpPrefix { addr: masked, len }
    }

    /// The whole IPv4 space (`0.0.0.0/0`).
    pub fn any() -> IpPrefix {
        IpPrefix { addr: 0, len: 0 }
    }

    /// A single host (`/32`).
    pub fn host(addr: u32) -> IpPrefix {
        IpPrefix { addr, len: 32 }
    }

    /// Network address (host bits zero).
    pub fn addr(&self) -> u32 {
        self.addr
    }

    /// Prefix length (the `/len` part; not a container length).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// `true` for the /0 prefix.
    pub fn is_any(&self) -> bool {
        self.len == 0
    }

    /// The address interval this prefix covers.
    pub fn interval(&self) -> Interval {
        Interval::from_prefix(self.addr as u64, self.len, 32)
    }

    /// `true` if `ip` is inside the prefix.
    pub fn contains(&self, ip: u32) -> bool {
        self.interval().contains(ip as u64)
    }

    /// `true` if `other` is an equal-or-more-specific prefix inside `self`.
    pub fn covers(&self, other: &IpPrefix) -> bool {
        self.len <= other.len && self.contains(other.addr)
    }

    /// `true` if the prefixes share an address. Prefixes nest or are
    /// disjoint, so they meet iff they agree on the shorter one's bits.
    pub fn overlaps(&self, other: &IpPrefix) -> bool {
        let len = self.len.min(other.len);
        len == 0 || (self.addr ^ other.addr) >> (32 - len) == 0
    }

    /// Intersection of two prefixes: the longer one if nested, else `None`
    /// (prefixes are laminar — they nest or are disjoint).
    pub fn intersect(&self, other: &IpPrefix) -> Option<IpPrefix> {
        if self.covers(other) {
            Some(*other)
        } else if other.covers(self) {
            Some(*self)
        } else {
            None
        }
    }

    /// The parent prefix (one bit shorter); `None` at /0.
    pub fn parent(&self) -> Option<IpPrefix> {
        if self.len == 0 {
            None
        } else {
            Some(IpPrefix::new(self.addr, self.len - 1))
        }
    }
}

impl fmt::Display for IpPrefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", fmt_ip(self.addr), self.len)
    }
}

/// An inclusive transport-port range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortRange {
    lo: u16,
    hi: u16,
}

impl PortRange {
    /// `[lo, hi]`; panics if inverted.
    pub fn new(lo: u16, hi: u16) -> PortRange {
        assert!(lo <= hi, "empty port range {lo}-{hi}");
        PortRange { lo, hi }
    }

    /// All ports.
    pub fn any() -> PortRange {
        PortRange {
            lo: 0,
            hi: u16::MAX,
        }
    }

    /// One port.
    pub fn single(p: u16) -> PortRange {
        PortRange { lo: p, hi: p }
    }

    /// Lower bound.
    pub fn lo(&self) -> u16 {
        self.lo
    }

    /// Upper bound.
    pub fn hi(&self) -> u16 {
        self.hi
    }

    /// `true` for the full 0-65535 range.
    pub fn is_any(&self) -> bool {
        self.lo == 0 && self.hi == u16::MAX
    }

    /// As an interval.
    pub fn interval(&self) -> Interval {
        Interval::new(self.lo as u64, self.hi as u64)
    }

    /// Intersection, `None` if disjoint.
    pub fn intersect(&self, other: &PortRange) -> Option<PortRange> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo <= hi {
            Some(PortRange { lo, hi })
        } else {
            None
        }
    }

    /// `true` if `p` is inside.
    pub fn contains(&self, p: u16) -> bool {
        self.lo <= p && p <= self.hi
    }
}

impl fmt::Display for PortRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lo == self.hi {
            write!(f, "{}", self.lo)
        } else {
            write!(f, "{}-{}", self.lo, self.hi)
        }
    }
}

/// Permit or deny — the two ACL actions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Let the packet through (decision model returns TRUE).
    Permit,
    /// Drop the packet (decision model returns FALSE).
    Deny,
}

impl Action {
    /// The other action.
    pub fn flip(self) -> Action {
        match self {
            Action::Permit => Action::Deny,
            Action::Deny => Action::Permit,
        }
    }

    /// Boolean view: permit = `true`.
    pub fn permits(self) -> bool {
        matches!(self, Action::Permit)
    }

    /// From the boolean view.
    pub fn from_bool(permit: bool) -> Action {
        if permit {
            Action::Permit
        } else {
            Action::Deny
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Permit => write!(f, "permit"),
            Action::Deny => write!(f, "deny"),
        }
    }
}

/// A 5-tuple match: the `m_j` predicate of the paper. Every constrained
/// field narrows the match; an unconstrained field matches anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatchSpec {
    /// Source prefix constraint.
    pub src: IpPrefix,
    /// Destination prefix constraint.
    pub dst: IpPrefix,
    /// Source port constraint.
    pub sport: PortRange,
    /// Destination port constraint.
    pub dport: PortRange,
    /// Protocol constraint (`None` = any protocol).
    pub proto: Option<Proto>,
}

impl MatchSpec {
    /// Match-all (the `all` of `permit all`).
    pub fn any() -> MatchSpec {
        MatchSpec {
            src: IpPrefix::any(),
            dst: IpPrefix::any(),
            sport: PortRange::any(),
            dport: PortRange::any(),
            proto: None,
        }
    }

    /// Match on destination prefix only.
    pub fn dst(prefix: IpPrefix) -> MatchSpec {
        MatchSpec {
            dst: prefix,
            ..MatchSpec::any()
        }
    }

    /// Match on source prefix only.
    pub fn src(prefix: IpPrefix) -> MatchSpec {
        MatchSpec {
            src: prefix,
            ..MatchSpec::any()
        }
    }

    /// `true` when no field is constrained.
    pub fn is_any(&self) -> bool {
        self.src.is_any()
            && self.dst.is_any()
            && self.sport.is_any()
            && self.dport.is_any()
            && self.proto.is_none()
    }

    /// The concrete m(h) predicate.
    pub fn matches(&self, p: &Packet) -> bool {
        self.src.contains(p.sip)
            && self.dst.contains(p.dip)
            && self.sport.contains(p.sport)
            && self.dport.contains(p.dport)
            && self.proto.map_or(true, |pr| pr.number() == p.proto)
    }

    /// The region of header space matched, as a cube.
    pub fn cube(&self) -> Cube {
        let mut c = Cube::full()
            .with(Field::SrcIp, self.src.interval())
            .with(Field::DstIp, self.dst.interval())
            .with(Field::SrcPort, self.sport.interval())
            .with(Field::DstPort, self.dport.interval());
        if let Some(pr) = self.proto {
            c = c.with(Field::Proto, Interval::singleton(pr.number() as u64));
        }
        c
    }

    /// `true` if some packet matches both specs — the satisfiability of
    /// `m_k ∧ m_k'` from Definition 4.2. Decided field by field, with the
    /// truth table of intersecting the two [`MatchSpec::cube`]s: every field
    /// must meet, and an unconstrained protocol meets every protocol.
    pub fn overlaps(&self, other: &MatchSpec) -> bool {
        self.dst.overlaps(&other.dst)
            && self.src.overlaps(&other.src)
            && self.dport.intersect(&other.dport).is_some()
            && self.sport.intersect(&other.sport).is_some()
            && match (self.proto, other.proto) {
                (Some(a), Some(b)) => a.number() == b.number(),
                _ => true,
            }
    }

    /// Field-wise intersection, if non-empty (used by the synthesis "overlap
    /// field" computation in §5.4 Step 2).
    pub fn intersect(&self, other: &MatchSpec) -> Option<MatchSpec> {
        let proto = match (self.proto, other.proto) {
            (None, p) | (p, None) => p,
            (Some(a), Some(b)) if a.number() == b.number() => Some(a),
            _ => return None,
        };
        Some(MatchSpec {
            src: self.src.intersect(&other.src)?,
            dst: self.dst.intersect(&other.dst)?,
            sport: self.sport.intersect(&other.sport)?,
            dport: self.dport.intersect(&other.dport)?,
            proto,
        })
    }
}

impl fmt::Display for MatchSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_any() {
            return write!(f, "all");
        }
        let mut first = true;
        let mut part = |f: &mut fmt::Formatter<'_>, s: String| -> fmt::Result {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            write!(f, "{s}")
        };
        if !self.src.is_any() {
            part(f, format!("src {}", self.src))?;
        }
        if !self.dst.is_any() {
            part(f, format!("dst {}", self.dst))?;
        }
        if !self.sport.is_any() {
            part(f, format!("sport {}", self.sport))?;
        }
        if !self.dport.is_any() {
            part(f, format!("dport {}", self.dport))?;
        }
        if let Some(p) = self.proto {
            part(f, format!("proto {p}"))?;
        }
        Ok(())
    }
}

/// One ACL rule: a match plus an action. Priority is positional (rules live
/// in an ordered [`crate::acl::Acl`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rule {
    /// What the rule matches.
    pub matches: MatchSpec,
    /// What happens on a match.
    pub action: Action,
}

impl Rule {
    /// Construct a rule.
    pub fn new(action: Action, matches: MatchSpec) -> Rule {
        Rule { matches, action }
    }

    /// `permit all` / `deny all`.
    pub fn all(action: Action) -> Rule {
        Rule::new(action, MatchSpec::any())
    }

    /// Shorthand: act on a destination prefix.
    pub fn on_dst(action: Action, prefix: IpPrefix) -> Rule {
        Rule::new(action, MatchSpec::dst(prefix))
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.action, self.matches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::parse_ip;

    fn pfx(s: &str) -> IpPrefix {
        let (ip, len) = s.split_once('/').unwrap();
        IpPrefix::new(parse_ip(ip).unwrap(), len.parse().unwrap())
    }

    #[test]
    fn prefix_canonicalizes_host_bits() {
        let p = IpPrefix::new(parse_ip("1.2.3.4").unwrap(), 16);
        assert_eq!(p.to_string(), "1.2.0.0/16");
    }

    #[test]
    fn prefix_cover_and_intersect() {
        let a = pfx("10.0.0.0/8");
        let b = pfx("10.1.0.0/16");
        let c = pfx("11.0.0.0/8");
        assert!(a.covers(&b));
        assert!(!b.covers(&a));
        assert_eq!(a.intersect(&b), Some(b));
        assert_eq!(b.intersect(&a), Some(b));
        assert_eq!(a.intersect(&c), None);
        assert!(IpPrefix::any().covers(&a));
    }

    #[test]
    fn prefix_parent_chain_reaches_root() {
        let mut p = pfx("10.1.2.0/24");
        let mut steps = 0;
        while let Some(q) = p.parent() {
            assert!(q.covers(&p));
            p = q;
            steps += 1;
        }
        assert_eq!(steps, 24);
        assert!(p.is_any());
    }

    #[test]
    fn port_range_ops() {
        let a = PortRange::new(0, 1023);
        let b = PortRange::new(80, 8080);
        assert_eq!(a.intersect(&b), Some(PortRange::new(80, 1023)));
        assert_eq!(
            PortRange::single(22).intersect(&PortRange::new(23, 25)),
            None
        );
        assert!(PortRange::any().is_any());
    }

    #[test]
    fn matchspec_semantics_agree_with_cube() {
        let m = MatchSpec {
            src: pfx("10.0.0.0/8"),
            dst: pfx("1.0.0.0/8"),
            sport: PortRange::any(),
            dport: PortRange::new(80, 443),
            proto: Some(Proto::Tcp),
        };
        let inside = Packet::new(
            parse_ip("10.9.9.9").unwrap(),
            parse_ip("1.2.3.4").unwrap(),
            5555,
            100,
            6,
        );
        let outside_port = Packet {
            dport: 444,
            ..inside
        };
        let outside_proto = Packet {
            proto: 17,
            ..inside
        };
        for p in [inside, outside_port, outside_proto] {
            assert_eq!(m.matches(&p), m.cube().contains(&p), "{p}");
        }
        assert!(m.matches(&inside));
        assert!(!m.matches(&outside_port));
        assert!(!m.matches(&outside_proto));
    }

    #[test]
    fn overlap_detection() {
        let a = MatchSpec::dst(pfx("1.0.0.0/8"));
        let b = MatchSpec::dst(pfx("1.2.0.0/16"));
        let c = MatchSpec::dst(pfx("2.0.0.0/8"));
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(MatchSpec::any().overlaps(&c));
    }

    #[test]
    fn prefix_overlap_is_nesting() {
        let any = IpPrefix::any();
        let host = IpPrefix::host(u32::MAX);
        for (a, b, want) in [
            (pfx("10.0.0.0/8"), pfx("10.1.0.0/16"), true),
            (pfx("10.0.0.0/8"), pfx("11.0.0.0/8"), false),
            (pfx("10.0.0.0/9"), pfx("10.128.0.0/9"), false),
            (any, host, true),
            (host, IpPrefix::host(u32::MAX - 1), false),
            (host, host, true),
        ] {
            assert_eq!(a.overlaps(&b), want, "{a} ~ {b}");
            assert_eq!(b.overlaps(&a), want, "{b} ~ {a}");
            assert_eq!(a.overlaps(&b), a.intersect(&b).is_some());
        }
    }

    /// The field-wise test against the cube-based one it replaced, on
    /// random specs: `/0` through `/32` prefixes (near the ends of the
    /// address space too), full, single and ragged port ranges, and every
    /// `None`/`Some` mix of protocols.
    #[test]
    fn overlaps_matches_the_cube_test() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let mut spec = || {
            let mut prefix = || {
                let len = [0, 1, 8, 16, 31, 32][next(6) as usize];
                let addr = match next(3) {
                    0 => 0,
                    1 => u32::MAX,
                    // Few distinct high bits, so nesting is common.
                    _ => ((next(4) as u32) << 30) | next(2) as u32,
                };
                IpPrefix::new(addr, len)
            };
            let (src, dst) = (prefix(), prefix());
            let mut ports = || match next(3) {
                0 => PortRange::any(),
                1 => PortRange::single(next(4) as u16 * 1000),
                _ => {
                    let lo = next(3000) as u16;
                    PortRange::new(lo, lo + next(3000) as u16)
                }
            };
            let (sport, dport) = (ports(), ports());
            let proto = [
                None,
                Some(Proto::Tcp),
                Some(Proto::Udp),
                Some(Proto::Other(6)),
            ][next(4) as usize];
            MatchSpec {
                src,
                dst,
                sport,
                dport,
                proto,
            }
        };
        let (mut met, mut missed) = (0, 0);
        for _ in 0..4000 {
            let (a, b) = (spec(), spec());
            let want = a.cube().intersect(&b.cube()).is_some();
            assert_eq!(a.overlaps(&b), want, "{a} ~ {b}");
            assert_eq!(b.overlaps(&a), want, "{b} ~ {a}");
            if want {
                met += 1;
            } else {
                missed += 1;
            }
        }
        assert!(met > 200 && missed > 200, "{met} met, {missed} missed");
    }

    #[test]
    fn matchspec_intersect_narrows() {
        let a = MatchSpec {
            dport: PortRange::new(0, 100),
            ..MatchSpec::dst(pfx("1.0.0.0/8"))
        };
        let b = MatchSpec {
            dport: PortRange::new(50, 150),
            proto: Some(Proto::Udp),
            ..MatchSpec::any()
        };
        let i = a.intersect(&b).unwrap();
        assert_eq!(i.dst, pfx("1.0.0.0/8"));
        assert_eq!(i.dport, PortRange::new(50, 100));
        assert_eq!(i.proto, Some(Proto::Udp));
        // Conflicting protocols do not intersect.
        let c = MatchSpec {
            proto: Some(Proto::Tcp),
            ..MatchSpec::any()
        };
        assert!(b.intersect(&c).is_none());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Rule::all(Action::Permit).to_string(), "permit all");
        let r = Rule::on_dst(Action::Deny, pfx("6.0.0.0/8"));
        assert_eq!(r.to_string(), "deny dst 6.0.0.0/8");
    }

    #[test]
    fn action_flip() {
        assert_eq!(Action::Permit.flip(), Action::Deny);
        assert!(Action::from_bool(true).permits());
        assert!(!Action::Deny.permits());
    }
}
