//! Differential oracle suite for the incremental re-check engine
//! (`jinjing_core::incr`): the strongest evidence for the session
//! engine's equivalence contract.
//!
//! Three oracles, in increasing strictness:
//!
//! 1. **Cold-check oracle.** On xorshift-random diamond networks, apply
//!    50-step random edit sequences and assert every
//!    [`CheckSession::recheck`] report is *byte-identical* (modulo
//!    wall-clock) to a cold [`check_configs`] of the same before/after
//!    pair — across threads {1, 4} × query store {private to the
//!    session, one shared by two sessions}, all four variants fed the
//!    same delta stream.
//! 2. **Witness certification.** Every inconsistent verdict's witness is
//!    replayed concretely: the packet really does flip its decision on
//!    the reported path.
//! 3. **Brute-force packet sampling.** On tiny configurations whose rules
//!    live on a known /8–/16 lattice, a sample hitting every lattice cell
//!    is *exhaustive*, so the sampled verdict must equal the engine's in
//!    both directions.
//!
//! A fourth test pins the observability contract: a session re-check
//! emits the same span tree as a cold check modulo the `incr.*` spans,
//! plus the `check.incr_*` counters.

use jinjing_acl::{Acl, Action, IpPrefix, Packet, PacketSet, Rule};
use jinjing_core::check::{check_configs, CheckConfig, CheckOutcome, CheckReport};
use jinjing_core::{CheckSession, Delta, QueryCache};
use jinjing_net::fib::{pfx, prefix_set};
use jinjing_net::{AclConfig, Network, Scope, Slot, TopologyBuilder};
use jinjing_obs::SpanSnapshot;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Deterministic randomness: xorshift64* (std-only, seed-stable).
// ---------------------------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `0..n` (n > 0).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// True with probability `pct`%.
    fn chance(&mut self, pct: u64) -> bool {
        self.next() % 100 < pct
    }
}

// ---------------------------------------------------------------------------
// Random diamond networks: S ─{M1,M2}─ T with per-prefix routing choice.
// ---------------------------------------------------------------------------

/// A generated scenario: the network, the ACL-candidate slots, and the
/// announced /8 prefixes `1..=prefixes`.
struct Scenario {
    net: Network,
    slots: Vec<Slot>,
    prefixes: u32,
}

/// Build a diamond S→{M1,M2}→T. Each announced prefix is routed through
/// the upper branch, the lower branch or both (ECMP) — giving the FEC
/// refinement and the path enumeration something to chew on.
fn diamond(rng: &mut Rng) -> Scenario {
    let mut tb = TopologyBuilder::new();
    let s = tb.device("S");
    let m1 = tb.device("M1");
    let m2 = tb.device("M2");
    let t = tb.device("T");
    let s_ext = tb.iface(s, "ext");
    let s_u = tb.iface(s, "u");
    let s_d = tb.iface(s, "d");
    let m1_l = tb.iface(m1, "l");
    let m1_r = tb.iface(m1, "r");
    let m2_l = tb.iface(m2, "l");
    let m2_r = tb.iface(m2, "r");
    let t_u = tb.iface(t, "u");
    let t_d = tb.iface(t, "d");
    let t_ext = tb.iface(t, "ext");
    tb.link(s_u, m1_l);
    tb.link(m1_r, t_u);
    tb.link(s_d, m2_l);
    tb.link(m2_r, t_d);
    let mut net = Network::new(tb.build());

    let prefixes = 2 + rng.below(3) as u32; // 2..=4 announced /8s
    let p = |n: u32| pfx(&format!("{n}.0.0.0/8"));
    let mut entering = PacketSet::empty();
    for n in 1..=prefixes {
        // Route the prefix up, down, or both ways out of S.
        match rng.below(3) {
            0 => {
                net.fib_mut(s).add(p(n), s_u);
            }
            1 => {
                net.fib_mut(s).add(p(n), s_d);
            }
            _ => {
                net.fib_mut(s).add(p(n), s_u);
                net.fib_mut(s).add(p(n), s_d);
            }
        }
        net.fib_mut(m1).add(p(n), m1_r);
        net.fib_mut(m2).add(p(n), m2_r);
        net.fib_mut(t).add(p(n), t_ext);
        net.announce(p(n), t_ext);
        entering = entering.union(&prefix_set(&p(n)));
    }
    net.set_entering(s_ext, entering);

    let slots = vec![
        Slot::ingress(s_ext),
        Slot::egress(s_u),
        Slot::egress(s_d),
        Slot::ingress(m1_l),
        Slot::ingress(m2_l),
        Slot::ingress(t_u),
        Slot::ingress(t_d),
        Slot::egress(t_ext),
    ];
    Scenario {
        net,
        slots,
        prefixes,
    }
}

/// A random destination-prefix rule on the /8–/16 lattice: `n.0.0.0/8`
/// or `n.sub.0.0/16` with `sub < 4`.
fn random_rule(rng: &mut Rng, prefixes: u32) -> Rule {
    let n = 1 + rng.below(prefixes as usize) as u32;
    let permit = rng.chance(50);
    if rng.chance(50) {
        Rule::on_dst(Action::from_bool(permit), IpPrefix::new(n << 24, 8))
    } else {
        let sub = rng.below(4) as u32;
        Rule::on_dst(
            Action::from_bool(permit),
            IpPrefix::new(n << 24 | sub << 16, 16),
        )
    }
}

fn random_acl(rng: &mut Rng, prefixes: u32) -> Acl {
    let n_rules = 1 + rng.below(3);
    let rules = (0..n_rules).map(|_| random_rule(rng, prefixes)).collect();
    let default = Action::from_bool(rng.chance(80));
    Acl::new(rules, default)
}

fn random_config(rng: &mut Rng, sc: &Scenario) -> AclConfig {
    let mut cfg = AclConfig::new();
    for &slot in &sc.slots {
        if rng.chance(40) {
            cfg.set(slot, random_acl(rng, sc.prefixes));
        }
    }
    cfg
}

/// A random 1–2-edit delta: mostly rewrites, some clears.
fn random_delta(rng: &mut Rng, sc: &Scenario) -> Delta {
    let mut d = Delta::new();
    for _ in 0..1 + rng.below(2) {
        let slot = sc.slots[rng.below(sc.slots.len())];
        if rng.chance(25) {
            d = d.clear(slot);
        } else {
            d = d.set(slot, random_acl(rng, sc.prefixes));
        }
    }
    d
}

// ---------------------------------------------------------------------------
// Canonical report rendering: everything but wall-clock.
// ---------------------------------------------------------------------------

fn canon(r: &CheckReport) -> String {
    format!(
        "{:?}|{}|{}|{:?}|{}|{}",
        r.outcome, r.fec_count, r.paths_checked, r.solver_stats, r.encoded_rules, r.total_rules
    )
}

/// Certify an inconsistency witness concretely: the packet really flips
/// on the reported path (no controls, so "desired" is the before-decision).
fn certify_witness(r: &CheckReport, before: &AclConfig, after: &AclConfig) {
    if let CheckOutcome::Inconsistent(v) = &r.outcome {
        assert_eq!(
            before.path_permits(&v.path, &v.packet),
            v.desired,
            "witness `desired` must be the before-decision"
        );
        assert_eq!(
            after.path_permits(&v.path, &v.packet),
            v.actual,
            "witness `actual` must be the after-decision"
        );
        assert_ne!(v.desired, v.actual, "witness must actually disagree");
    }
}

// ---------------------------------------------------------------------------
// Oracle 1+2: 50-step random edit sequences, four session variants each
// byte-identical to a per-step cold check, all witnesses certified.
// ---------------------------------------------------------------------------

const STEPS: usize = 50;

#[test]
fn random_edit_sequences_match_cold_checks() {
    for seed in [1u64, 7, 42] {
        let mut rng = Rng::new(seed);
        let sc = diamond(&mut rng);
        let scope = Scope::whole(sc.net.topology());
        let base0 = random_config(&mut rng, &sc);

        // threads {1, 4} × store {private, shared}: the same delta stream
        // drives all four sessions. The two `shared` sessions replay each
        // other's entries and tick (and evict on) one generation counter.
        let store = Arc::new(QueryCache::new());
        let mut sessions = Vec::new();
        let mut labels = Vec::new();
        for threads in [1usize, 4] {
            for shared in [false, true] {
                let cfg = CheckConfig {
                    threads,
                    cache: if shared {
                        Arc::clone(&store)
                    } else {
                        Arc::new(QueryCache::new())
                    },
                    ..CheckConfig::default()
                };
                sessions.push(
                    CheckSession::with_configs(
                        &sc.net,
                        scope.clone(),
                        Vec::new(),
                        base0.clone(),
                        cfg,
                    )
                    .expect("session opens"),
                );
                labels.push(format!("threads={threads} shared={shared}"));
            }
        }

        let mut base = base0;
        let mut inconsistent_steps = 0usize;
        for step in 0..STEPS {
            let delta = random_delta(&mut rng, &sc);
            let after = delta.applied_to(&base);
            // The definition of "cold": a fresh default config (fresh
            // store) with no session state at all.
            let want = check_configs(&sc.net, &scope, &base, &after, &[], &CheckConfig::default())
                .expect("cold check");
            certify_witness(&want, &base, &after);
            let want_canon = canon(&want);
            let consistent = want.outcome.is_consistent();
            if !consistent {
                inconsistent_steps += 1;
            }
            for (vi, session) in sessions.iter_mut().enumerate() {
                let got = session.recheck(&delta).expect("recheck");
                assert_eq!(
                    canon(&got.report),
                    want_canon,
                    "seed {seed} step {step} [{}] diverged from cold check",
                    labels[vi]
                );
                assert_eq!(
                    got.applied, consistent,
                    "seed {seed} step {step} [{}]: default policy applies consistent deltas only",
                    labels[vi]
                );
                assert_eq!(
                    got.incr.dirty_classes + got.incr.clean_classes,
                    if got.report.fec_count == 0 {
                        got.incr.clean_classes
                    } else {
                        session.class_count()
                    },
                    "seed {seed} step {step} [{}]: class ledger adds up",
                    labels[vi]
                );
            }
            // The cold oracle's base advances exactly when the sessions'
            // bases do (consistent deltas only).
            if consistent {
                base = after;
            }
        }
        // The generator must exercise both verdicts, or the oracle is vacuous.
        assert!(
            inconsistent_steps > 0 && inconsistent_steps < STEPS,
            "seed {seed}: degenerate sequence ({inconsistent_steps}/{STEPS} inconsistent)"
        );
        for (vi, session) in sessions.iter().enumerate() {
            assert_eq!(session.steps(), STEPS as u64, "[{}]", labels[vi]);
            assert_eq!(session.base(), &base, "[{}] bases converge", labels[vi]);
        }
    }
}

// ---------------------------------------------------------------------------
// Oracle 3: brute-force packet sampling on tiny configs. Rules live on
// the /8–/16 lattice with second octet < 4, so sampling second octets
// 0..=4 hits every decision region — the sample is exhaustive and the
// verdicts must agree in BOTH directions.
// ---------------------------------------------------------------------------

fn sample_packets(prefixes: u32) -> Vec<Packet> {
    let mut v = Vec::new();
    for n in 1..=prefixes {
        for sub in 0..=4u32 {
            v.push(Packet::to_dst(n << 24 | sub << 16 | 0x0001));
        }
    }
    v
}

/// Brute force: does any sampled packet flip its decision on any path
/// that carries it?
fn sampled_inconsistent(
    net: &Network,
    scope: &Scope,
    before: &AclConfig,
    after: &AclConfig,
    samples: &[Packet],
) -> bool {
    samples.iter().any(|p| {
        let single = PacketSet::singleton(p);
        net.all_paths_for_class(scope, &single)
            .iter()
            .filter(|path| path.carried.contains(p))
            .any(|path| before.path_permits(path, p) != after.path_permits(path, p))
    })
}

#[test]
fn packet_sampling_oracle_agrees_on_tiny_configs() {
    for seed in [3u64, 11] {
        let mut rng = Rng::new(seed);
        let sc = diamond(&mut rng);
        let scope = Scope::whole(sc.net.topology());
        let samples = sample_packets(sc.prefixes);
        let mut session = CheckSession::with_configs(
            &sc.net,
            scope.clone(),
            Vec::new(),
            random_config(&mut rng, &sc),
            CheckConfig::default(),
        )
        .expect("session opens");

        for step in 0..20 {
            let delta = random_delta(&mut rng, &sc);
            let before = session.base().clone();
            let after = delta.applied_to(&before);
            let brute = sampled_inconsistent(&sc.net, &scope, &before, &after, &samples);
            let got = session.recheck(&delta).expect("recheck");
            assert_eq!(
                !got.report.outcome.is_consistent(),
                brute,
                "seed {seed} step {step}: engine verdict vs exhaustive packet sampling"
            );
            certify_witness(&got.report, &before, &after);
        }
    }
}

// ---------------------------------------------------------------------------
// Observability contract: a session re-check's span tree equals a cold
// check's modulo the `incr.*` spans, and the incremental counters exist
// only on the session side.
// ---------------------------------------------------------------------------

/// Flatten a span tree to `depth:name:count` lines, dropping `incr.*`
/// subtrees (session bookkeeping) wherever they appear.
fn span_shape(span: &SpanSnapshot, depth: usize, out: &mut Vec<String>) {
    if span.name.starts_with("incr.") {
        return;
    }
    out.push(format!("{depth}:{}:{}", span.name, span.count));
    for child in &span.children {
        span_shape(child, depth + 1, out);
    }
}

#[test]
fn session_span_tree_matches_cold_check_modulo_incr() {
    let mut rng = Rng::new(99);
    let sc = diamond(&mut rng);
    let scope = Scope::whole(sc.net.topology());
    let base = random_config(&mut rng, &sc);
    let delta = random_delta(&mut rng, &sc);
    let after = delta.applied_to(&base);

    let cold_cfg = CheckConfig::default();
    let _ = check_configs(&sc.net, &scope, &base, &after, &[], &cold_cfg).expect("cold");
    let cold_snap = cold_cfg.obs.snapshot();

    let warm_cfg = CheckConfig::default();
    let mut session =
        CheckSession::with_configs(&sc.net, scope, Vec::new(), base, warm_cfg.clone())
            .expect("session opens");
    let _ = session.recheck(&delta).expect("recheck");
    let warm_snap = warm_cfg.obs.snapshot();

    let mut cold_shape = Vec::new();
    span_shape(&cold_snap.spans, 0, &mut cold_shape);
    let mut warm_shape = Vec::new();
    span_shape(&warm_snap.spans, 0, &mut warm_shape);
    assert_eq!(
        warm_shape, cold_shape,
        "session span tree must equal the cold check's modulo incr.* spans"
    );

    // Incremental counters: session-only, and consistent with the ledger.
    assert_eq!(cold_snap.counter("check.incr_dirty"), 0);
    assert_eq!(cold_snap.counter("check.incr_clean"), 0);
    let dirty = warm_snap.counter("check.incr_dirty");
    let clean = warm_snap.counter("check.incr_clean");
    assert_eq!(
        dirty + clean,
        session.class_count() as u64,
        "incr counters partition the class set"
    );
    assert!(
        warm_snap.counter("check.incr_dirty_pairs") >= dirty,
        "every dirty class contributes at least one (class, path) pair"
    );
}

// ---------------------------------------------------------------------------
// Cover-memo contract: per-slot differential covers are hoisted into the
// session (`CoverMemo`), so re-probing a state with the same per-slot
// `(before, after)` ACL pairs must not recompute any diff — pinned by the
// session-only `incr.cover_rebuilds` counter.
// ---------------------------------------------------------------------------

#[test]
fn probe_covers_are_hoisted_into_the_session() {
    let mut rng = Rng::new(123);
    let sc = diamond(&mut rng);
    let scope = Scope::whole(sc.net.topology());
    let base = random_config(&mut rng, &sc);
    let after = loop {
        let d = random_delta(&mut rng, &sc);
        let a = d.applied_to(&base);
        if a != base {
            break a;
        }
    };

    let cfg = CheckConfig::default();
    let session = CheckSession::with_configs(
        &sc.net,
        scope.clone(),
        Vec::new(),
        base.clone(),
        cfg.clone(),
    )
    .expect("session opens");

    let (r1, _) = session.probe(&after).expect("first probe");
    let first = cfg.obs.snapshot().counter("incr.cover_rebuilds");
    assert!(first > 0, "the first probe must compute per-slot covers");

    // Same state again: every (slot, before, after) pair hits the memo.
    let (r2, _) = session.probe(&after).expect("second probe");
    let second = cfg.obs.snapshot().counter("incr.cover_rebuilds");
    assert_eq!(
        second, first,
        "re-probing the same state must replay hoisted covers, not rebuild them"
    );
    assert_eq!(canon(&r1), canon(&r2), "probe reports are deterministic");

    // Cold snapshots stay free of the incr counter family entirely.
    let cold_cfg = CheckConfig::default();
    let _ = check_configs(&sc.net, &scope, &base, &after, &[], &cold_cfg).expect("cold");
    assert_eq!(
        cold_cfg.obs.snapshot().counter("incr.cover_rebuilds"),
        0,
        "cold checks never emit incr.cover_rebuilds"
    );
}
