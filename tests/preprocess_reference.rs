//! The differential preprocessing against its clone-and-filter reference.
//!
//! `check::preprocess` decides once per slot whether an update touched it
//! (`AclConfig::same_at`: a pointer compare for shared ACLs), diffs only
//! touched slots, reduces an untouched slot once for both sides, and asks
//! the rule tree with a run filter. [`reference`] below is the earlier
//! body: clone both sides of every slot, compare them, diff the changed
//! ones, filter every rule of both sides by scanning `Diff_Ω` with the
//! cube intersection test. Over
//! random session streams — each step's delta applied to the previous
//! step's configuration, both memos kept across steps — the two must
//! return the same reduced pairs, the same cover (cube for cube), the same
//! `encoded_rules` and the same `cover_rebuilds`, with and without the
//! reduction. Each pair must also carry the store's fingerprint of its two
//! ACLs.
//!
//! The edits are drawn to hit the cases where "same ACL" is subtle: an
//! unconfigured slot against a configured `permit all`, an ACL that permits
//! everything through explicit rules (semantically, not structurally,
//! `permit all`), and a slot re-set to equal content in a fresh allocation.
//! Half the streams carry `isolate`/`open` (and `maintain`) controls.

mod cases;

use jinjing_acl::diff::AclDiff;
use jinjing_acl::{Acl, Action, IpPrefix, MatchSpec, PacketSet, PortRange, Proto, Rule};
use jinjing_core::check::{preprocess, CoverMemo};
use jinjing_core::control::ResolvedControl;
use jinjing_core::{Delta, QueryCache};
use jinjing_lai::ControlVerb;
use jinjing_net::{AclConfig, Dir, IfaceId, Slot};
use rand::rngs::StdRng;
use rand::RngExt;
use std::collections::{HashMap, HashSet};

const SUITE: &str = "preprocess_reference";

/// The reference preprocessing: `(pairs, cover, encoded_rules,
/// cover_rebuilds)`, with its own per-slot diff memo (the last pair seen).
type Reference = (HashMap<Slot, (Acl, Acl)>, PacketSet, usize, usize);
type RefMemo = HashMap<Slot, (Acl, Acl, AclDiff)>;

fn reference(
    before: &AclConfig,
    after: &AclConfig,
    controls: &[ResolvedControl],
    differential: bool,
    memo: &mut RefMemo,
) -> Reference {
    let mut slots: Vec<Slot> = before.slots();
    for s in after.slots() {
        if !slots.contains(&s) {
            slots.push(s);
        }
    }
    let acl_at = |cfg: &AclConfig, s: Slot| cfg.get(s).cloned().unwrap_or_else(Acl::permit_all);
    let mut pairs = HashMap::new();
    let mut encoded_rules = 0;
    let mut cover_rebuilds = 0;
    if !differential {
        for slot in slots {
            let (b, a) = (acl_at(before, slot), acl_at(after, slot));
            encoded_rules += b.len() + a.len();
            pairs.insert(slot, (b, a));
        }
        return (pairs, PacketSet::full(), encoded_rules, cover_rebuilds);
    }
    let mut global_diff: Vec<Rule> = Vec::new();
    let mut cover = PacketSet::empty();
    for &slot in &slots {
        let (b, a) = (acl_at(before, slot), acl_at(after, slot));
        if b == a {
            continue;
        }
        let hit = matches!(memo.get(&slot), Some((mb, ma, _)) if *mb == b && *ma == a);
        if !hit {
            cover_rebuilds += 1;
            let d = AclDiff::compute(&b, &a);
            memo.insert(slot, (b, a, d));
        }
        let d = &memo[&slot].2;
        cover = cover.union(&d.cover);
        for r in &d.diff {
            if !global_diff.contains(r) {
                global_diff.push(*r);
            }
        }
    }
    let mut control_sets: Vec<PacketSet> = Vec::new();
    for c in controls {
        if matches!(c.verb, ControlVerb::Isolate | ControlVerb::Open) {
            cover = cover.union(&c.region);
            control_sets.push(c.region.clone());
        }
    }
    // The plain scan the tree and the field-wise overlap stand for.
    let keep = |rule: &Rule| {
        let cube = rule.matches.cube();
        global_diff
            .iter()
            .any(|d| d.matches.cube().intersect(&cube).is_some())
            || control_sets
                .iter()
                .any(|s| s.intersects(&PacketSet::from_cube(rule.matches.cube())))
    };
    for slot in slots {
        let (b, a) = (acl_at(before, slot), acl_at(after, slot));
        let rb: Vec<Rule> = b.rules().iter().filter(|r| keep(r)).copied().collect();
        let ra: Vec<Rule> = a.rules().iter().filter(|r| keep(r)).copied().collect();
        encoded_rules += rb.len() + ra.len();
        pairs.insert(
            slot,
            (
                Acl::new(rb, b.default_action()),
                Acl::new(ra, a.default_action()),
            ),
        );
    }
    (pairs, cover, encoded_rules, cover_rebuilds)
}

fn slot(i: u32) -> Slot {
    Slot {
        iface: IfaceId(i / 2),
        dir: if i % 2 == 0 { Dir::In } else { Dir::Out },
    }
}

const SLOTS: u32 = 8;

/// A rule over a small prefix pool (so rules nest and collide), sometimes
/// narrowed by protocol or destination port.
fn random_rule(rng: &mut StdRng) -> Rule {
    let a = rng.random_range(0..4u32);
    let len = [0, 8, 16, 24][rng.random_range(0..4usize)];
    let mut m = MatchSpec::dst(IpPrefix::new(
        (10 + a) << 24 | rng.random_range(0..3u32) << 16,
        len,
    ));
    match rng.random_range(0..4u32) {
        0 => m.proto = Some([Proto::Tcp, Proto::Udp][rng.random_range(0..2usize)]),
        1 => {
            let lo = [22u16, 80, 443][rng.random_range(0..3usize)];
            m.dport = PortRange::new(lo, lo + rng.random_range(0..2u32) as u16);
        }
        _ => {}
    }
    Rule::new(Action::from_bool(rng.random()), m)
}

fn random_acl(rng: &mut StdRng) -> Acl {
    let rules = (0..rng.random_range(0..6usize))
        .map(|_| random_rule(rng))
        .collect();
    Acl::new(rules, Action::from_bool(rng.random_range(0..4u32) > 0))
}

/// An ACL that permits every packet through explicit rules: semantically
/// `permit all`, structurally not.
fn wide_open(rng: &mut StdRng) -> Acl {
    let rules = (0..1 + rng.random_range(0..3usize))
        .map(|_| Rule::new(Action::Permit, random_rule(rng).matches))
        .collect();
    Acl::new(rules, Action::Permit)
}

#[derive(Debug)]
struct Stream {
    base: AclConfig,
    deltas: Vec<Delta>,
    controls: Vec<ResolvedControl>,
}

fn stream(rng: &mut StdRng) -> Stream {
    let mut base = AclConfig::new();
    for i in 0..SLOTS {
        match rng.random_range(0..5u32) {
            0 => {}
            1 => base.set(slot(i), Acl::permit_all()),
            _ => base.set(slot(i), random_acl(rng)),
        }
    }
    let mut current = base.clone();
    let mut deltas = Vec::new();
    for _ in 0..6 {
        let mut d = Delta::new();
        for _ in 0..rng.random_range(0..4usize) {
            let s = slot(rng.random_range(0..SLOTS));
            d = match rng.random_range(0..6u32) {
                0 => d.clear(s),
                1 => d.set(s, Acl::permit_all()),
                2 => d.set(s, wide_open(rng)),
                // Equal content, fresh allocation.
                3 => d.set(s, current.get(s).cloned().unwrap_or_else(Acl::permit_all)),
                _ => d.set(s, random_acl(rng)),
            };
        }
        current = d.applied_to(&current);
        deltas.push(d);
    }
    let verbs = [
        ControlVerb::Isolate,
        ControlVerb::Open,
        ControlVerb::Maintain,
    ];
    let controls = if rng.random() {
        (0..1 + rng.random_range(0..2usize))
            .map(|_| ResolvedControl {
                from: HashSet::new(),
                to: HashSet::new(),
                verb: verbs[rng.random_range(0..3usize)],
                region: PacketSet::from_cube(random_rule(rng).matches.cube()),
            })
            .collect()
    } else {
        Vec::new()
    };
    Stream {
        base,
        deltas,
        controls,
    }
}

/// Step the stream through both preprocessings, memos kept across steps.
fn agree(st: &Stream, differential: bool, cache: &QueryCache) {
    let covers = CoverMemo::default();
    let mut memo = RefMemo::new();
    let mut before = st.base.clone();
    for (step, delta) in st.deltas.iter().enumerate() {
        let after = delta.applied_to(&before);
        let got = preprocess(&before, &after, &st.controls, differential, &covers, cache);
        let (pairs, cover, encoded_rules, cover_rebuilds) =
            reference(&before, &after, &st.controls, differential, &mut memo);
        let at = format!("step {step}, differential {differential}");
        assert_eq!(got.cover, cover, "{at}: cover");
        assert_eq!(got.encoded_rules, encoded_rules, "{at}: encoded_rules");
        assert_eq!(got.cover_rebuilds, cover_rebuilds, "{at}: cover_rebuilds");
        assert_eq!(got.pairs.len(), pairs.len(), "{at}: slots");
        for (s, (b, a)) in &pairs {
            let pair = &got.pairs[s];
            assert_eq!((&pair.before, &pair.after), (b, a), "{at}: slot {s:?}");
            assert_eq!(pair.fingerprint, cache.pair_fingerprint(b, a), "{at}");
        }
        before = after;
    }
}

#[test]
fn preprocess_matches_the_clone_and_filter_reference() {
    let name = "preprocess_matches_the_clone_and_filter_reference";
    let cache = QueryCache::new();
    cases::run(SUITE, name, 64, stream, |st| {
        for differential in [true, false] {
            agree(st, differential, &cache);
        }
    });
}

/// The same under a degenerate fingerprint: pair words come from the
/// store they will key, whatever its function.
#[test]
fn preprocess_fingerprints_through_the_store() {
    let name = "preprocess_fingerprints_through_the_store";
    let colliding = QueryCache::with_fingerprint(|_| 0);
    cases::run(SUITE, name, 8, stream, |st| agree(st, true, &colliding));
}

/// The subtle "same ACL" cases, pinned one by one: none is touched except
/// the explicit permit-everything rewrite, whose diff is real.
#[test]
fn subtle_sameness_cases() {
    let cache = QueryCache::new();
    let (s0, s1, s2) = (slot(0), slot(1), slot(2));
    let acl = Acl::new(
        vec![Rule::on_dst(Action::Deny, IpPrefix::new(10 << 24, 8))],
        Action::Permit,
    );
    let mut before = AclConfig::new();
    before.set(s1, acl.clone());
    before.set(s2, Acl::permit_all());
    let after = Delta::new()
        .set(s0, Acl::permit_all()) // unconfigured → configured permit all
        .set(s1, acl.clone()) // equal content, fresh allocation
        .clear(s2) // configured permit all → unconfigured
        .applied_to(&before);
    let got = preprocess(&before, &after, &[], true, &CoverMemo::default(), &cache);
    assert_eq!(got.cover_rebuilds, 0, "nothing touched");
    assert!(got.cover.is_empty());
    let open = Delta::new()
        .set(
            s0,
            Acl::new(vec![Rule::all(Action::Permit)], Action::Permit),
        )
        .applied_to(&before);
    let got = preprocess(&before, &open, &[], true, &CoverMemo::default(), &cache);
    assert_eq!(got.cover_rebuilds, 1, "structurally different: diffed");
    let mut memo = RefMemo::new();
    let want = reference(&before, &open, &[], true, &mut memo);
    assert_eq!((got.cover, got.encoded_rules), (want.1, want.2));
}
