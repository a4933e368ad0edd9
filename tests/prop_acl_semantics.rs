//! Property tests over ACL semantics: parsing, evaluation vs compiled
//! permit-sets, simplification, the differential-rule machinery (Theorem
//! 4.1), and both solver encodings against concrete evaluation.

mod cases;
mod first_match_reference;

use jinjing_acl::diff::AclDiff;
use jinjing_acl::packet::Field;
use jinjing_acl::parse::{parse_acl, parse_rule};
use jinjing_acl::simplify::simplify;
use jinjing_acl::{Acl, Action, IpPrefix, MatchSpec, Packet, PacketSet, PortRange, Proto, Rule};
use jinjing_solver::aclenc::{encode, Encoding};
use jinjing_solver::cdcl::SolveResult;
use jinjing_solver::{CircuitBuilder, HeaderVars};
use rand::rngs::StdRng;
use rand::RngExt;

const SUITE: &str = "prop_acl_semantics";
const CASES: u64 = 64;

/// True `weight` times out of `total`.
fn chance(rng: &mut StdRng, weight: u32, total: u32) -> bool {
    rng.random_range(0..total) < weight
}

/// Prefixes clustered in a small space so rules overlap (like real ACLs).
fn clustered_prefix(rng: &mut StdRng) -> IpPrefix {
    let n = rng.random_range(0..16u32);
    IpPrefix::new(n << 24 | 0x0001_0000, rng.random_range(8..=24u32))
}

fn match_spec(rng: &mut StdRng) -> MatchSpec {
    MatchSpec {
        src: if chance(rng, 3, 4) {
            IpPrefix::any()
        } else {
            clustered_prefix(rng)
        },
        dst: if chance(rng, 1, 4) {
            IpPrefix::any()
        } else {
            clustered_prefix(rng)
        },
        sport: if chance(rng, 3, 4) {
            PortRange::any()
        } else {
            let lo = rng.random_range(0..100u32) as u16;
            PortRange::new(lo, lo + 900)
        },
        dport: if chance(rng, 3, 4) {
            PortRange::any()
        } else {
            let lo = rng.random_range(0..1000u32) as u16;
            PortRange::new(lo, lo + 23)
        },
        proto: match rng.random_range(0..6u32) {
            0 => Some(Proto::Tcp),
            1 => Some(Proto::Udp),
            _ => None,
        },
    }
}

fn rule(rng: &mut StdRng) -> Rule {
    Rule::new(Action::from_bool(rng.random()), match_spec(rng))
}

fn acl(rng: &mut StdRng) -> Acl {
    let rules = rng.random_range(0..8usize);
    let rules = (0..rules).map(|_| rule(rng)).collect();
    Acl::new(rules, Action::from_bool(rng.random()))
}

/// An address biased into the clustered space so it actually hits rules.
fn address(rng: &mut StdRng) -> u32 {
    if chance(rng, 1, 3) {
        rng.random_range(0..=u32::MAX)
    } else {
        rng.random_range(0..16u32) << 24 | 0x0001_0000 | rng.random_range(0..=0xffffu32)
    }
}

/// Packets biased into the clustered space so they actually hit rules.
fn packet(rng: &mut StdRng) -> Packet {
    Packet::new(
        address(rng),
        address(rng),
        rng.random_range(0..=0xffffu32) as u16,
        rng.random_range(0..1100u32) as u16,
        match rng.random_range(0..3u32) {
            0 => 6,
            1 => 17,
            _ => rng.random_range(0..=0xffu32) as u8,
        },
    )
}

fn acl_and_packet(rng: &mut StdRng) -> (Acl, Packet) {
    (acl(rng), packet(rng))
}

/// Display → parse is the identity for rules.
#[test]
fn rule_roundtrip() {
    cases::run(SUITE, "rule_roundtrip", CASES, rule, |r| {
        let printed = r.to_string();
        let back = parse_rule(&printed).expect("printed rule parses");
        assert_eq!(&back, r, "{printed}");
    });
}

/// Display → parse is the identity for whole ACLs.
#[test]
fn acl_roundtrip() {
    cases::run(SUITE, "acl_roundtrip", CASES, acl, |a| {
        let printed = a
            .to_string()
            .replace("(default ", "default ")
            .replace(')', "");
        let back = parse_acl(&printed).expect("printed acl parses");
        assert_eq!(back.rules(), a.rules());
        assert_eq!(back.default_action(), a.default_action());
    });
}

/// The compiled permit-set agrees with first-match evaluation.
#[test]
fn permit_set_matches_eval() {
    let name = "permit_set_matches_eval";
    cases::run(SUITE, name, CASES, acl_and_packet, |(a, p)| {
        assert_eq!(a.permit_set().contains(p), a.permits(p));
    });
}

/// An ACL with its first-match walk: each visited rule's index, action and
/// effective region, then the remainder.
type Walked = (Vec<(usize, Action, PacketSet)>, PacketSet);

fn walked(a: &Acl) -> Walked {
    let mut regions = Vec::new();
    let rest = a.walk(|i, action, region| regions.push((i, action, region)));
    (regions, rest)
}

/// An ACL and a handful of packets biased into its clustered space.
fn acl_and_packets(rng: &mut StdRng) -> (Acl, Vec<Packet>) {
    let a = acl(rng);
    let packets = (0..8).map(|_| packet(rng)).collect();
    (a, packets)
}

/// The lowest and the highest packet of every cube of `set`.
fn corners(set: &PacketSet) -> Vec<Packet> {
    let mut out = Vec::new();
    for c in set.cubes() {
        let mut hi = c.sample();
        for f in Field::ALL {
            hi.set_field(f, c.get(f).hi());
        }
        out.extend([c.sample(), hi]);
    }
    out
}

/// The walk's regions are non-empty, visited in rule order, pairwise
/// disjoint, disjoint from the remainder, and together with it make up the
/// whole header space.
#[test]
fn walk_partitions_the_space() {
    cases::run(SUITE, "walk_partitions_the_space", CASES, acl, |a| {
        let (regions, rest) = walked(a);
        assert!(regions.windows(2).all(|w| w[0].0 < w[1].0), "rule order");
        let mut parts: Vec<&PacketSet> = regions.iter().map(|(_, _, r)| r).collect();
        assert!(parts.iter().all(|r| !r.is_empty()), "an empty region");
        parts.push(&rest);
        for (i, x) in parts.iter().enumerate() {
            for y in &parts[i + 1..] {
                assert!(!x.intersects(y), "overlapping parts");
            }
        }
        let whole = parts.iter().fold(PacketSet::empty(), |u, r| u.union(r));
        assert!(whole.same_set(&PacketSet::full()), "parts miss packets");
        let total: u128 = parts.iter().map(|r| r.count()).sum();
        assert_eq!(total, 1u128 << 104);
    });
}

/// Every packet of a region — each cube's corners, and the random packets
/// that land in it — gets that rule's action from `eval` and its index from
/// `first_match`; a packet of the remainder gets the default and no rule.
#[test]
fn walk_regions_decide_like_eval() {
    let name = "walk_regions_decide_like_eval";
    cases::run(SUITE, name, CASES, acl_and_packets, |(a, packets)| {
        let (regions, rest) = walked(a);
        for (i, action, region) in &regions {
            let landed = packets.iter().filter(|p| region.contains(p));
            for p in corners(region).iter().chain(landed) {
                assert_eq!(a.eval(p), *action, "{p} in rule {i}'s region");
                assert_eq!(a.first_match(p), Some(*i), "{p} in rule {i}'s region");
            }
        }
        let landed = packets.iter().filter(|p| rest.contains(p));
        for p in corners(&rest).iter().chain(landed) {
            assert_eq!(a.eval(p), a.default_action(), "{p} falls through");
            assert_eq!(a.first_match(p), None, "{p} falls through");
        }
    });
}

/// `permit_set` — a fold over the walk — is the plain whole-set loop cube
/// for cube, and so are the walk's regions, grouped or not.
#[test]
fn walk_is_the_plain_loop_cube_for_cube() {
    let name = "walk_is_the_plain_loop_cube_for_cube";
    cases::run(SUITE, name, CASES, acl, |a| {
        assert_eq!(a.permit_set(), first_match_reference::permit_set(a));
        let (regions, _) = walked(a);
        let regions: Vec<PacketSet> = regions.into_iter().map(|(_, _, r)| r).collect();
        assert_eq!(regions, first_match_reference::effective_regions(a, false));
        let mut grouped: Vec<PacketSet> = Vec::new();
        let mut last = None;
        let permit = a.permit_set_visiting(|_, action, region| match grouped.last_mut() {
            Some(g) if last == Some(action) => *g = g.union(&region),
            _ => {
                grouped.push(region);
                last = Some(action);
            }
        });
        assert_eq!(permit, a.permit_set());
        assert_eq!(grouped, first_match_reference::effective_regions(a, true));
    });
}

/// Simplification preserves the decision model and never grows.
#[test]
fn simplify_preserves_semantics() {
    let name = "simplify_preserves_semantics";
    cases::run(SUITE, name, CASES, acl_and_packet, |(a, p)| {
        let (s, stats) = simplify(a);
        assert!(s.len() <= a.len());
        assert_eq!(stats.after, s.len());
        assert_eq!(s.eval(p), a.eval(p));
        assert!(s.equivalent(a));
    });
}

/// Simplification is idempotent.
#[test]
fn simplify_idempotent() {
    cases::run(SUITE, "simplify_idempotent", CASES, acl, |a| {
        let (s1, _) = simplify(a);
        let (s2, _) = simplify(&s1);
        assert_eq!(s1.rules(), s2.rules());
    });
}

/// Theorem 4.1, concretely: wherever the full pair disagrees, the
/// packet lies in the differential cover, and the reduced pair
/// reproduces the disagreement pattern on the cover.
#[test]
fn theorem_4_1() {
    let generate = |rng: &mut StdRng| (acl(rng), acl(rng), packet(rng));
    cases::run(SUITE, "theorem_4_1", CASES, generate, |(a, b, p)| {
        let d = AclDiff::compute(a, b);
        let full_agree = a.permits(p) == b.permits(p);
        if !full_agree {
            assert!(d.cover.contains(p), "disagreement outside cover");
        }
        if d.cover.contains(p) {
            // Inside the cover, reduced decisions equal full decisions.
            assert_eq!(d.reduced_before.permits(p), a.permits(p));
            assert_eq!(d.reduced_after.permits(p), b.permits(p));
        } else {
            // Outside, the reduced pair agrees with itself.
            assert_eq!(d.reduced_before.permits(p), d.reduced_after.permits(p));
        }
    });
}

/// An ACL diffed with itself is unchanged.
#[test]
fn self_diff_is_empty() {
    cases::run(SUITE, "self_diff_is_empty", CASES, acl, |a| {
        let d = AclDiff::compute(a, &a.clone());
        assert!(d.is_unchanged());
        assert!(d.cover.is_empty());
    });
}

/// Both circuit encodings agree with concrete evaluation.
#[test]
fn encodings_match_eval() {
    let name = "encodings_match_eval";
    cases::run(SUITE, name, CASES, acl_and_packet, |(a, p)| {
        for enc in [Encoding::Sequential, Encoding::Tree] {
            let mut c = CircuitBuilder::new();
            let h = HeaderVars::new(&mut c);
            let g = encode(&mut c, &h, a, enc);
            h.assert_packet(&mut c, p);
            assert_eq!(c.solve(), SolveResult::Sat);
            assert_eq!(c.model_value(g), a.permits(p), "{enc:?} on {p}");
        }
    });
}

/// The two encodings are equisatisfiable (solver-proved equivalence).
#[test]
fn encodings_equivalent() {
    cases::run(SUITE, "encodings_equivalent", CASES, acl, |a| {
        let mut c = CircuitBuilder::new();
        let h = HeaderVars::new(&mut c);
        let s = jinjing_solver::aclenc::encode_sequential(&mut c, &h, a);
        let t = jinjing_solver::aclenc::encode_tree(&mut c, &h, a);
        let eq = c.iff(s, t);
        c.assert(!eq);
        assert_eq!(c.solve(), SolveResult::Unsat);
    });
}

/// `hit_rules` returns exactly the first-match rules of the members.
#[test]
fn hit_rules_sound() {
    cases::run(SUITE, "hit_rules_sound", CASES, acl_and_packet, |(a, p)| {
        let hits = a.hit_rules(&jinjing_acl::PacketSet::singleton(p));
        match a.first_match(p) {
            Some(i) => assert_eq!(hits, vec![i]),
            None => assert!(hits.is_empty()),
        }
    });
}
