//! Oracle suite for the rollout planner (`jinjing_core::plan`): the
//! strongest evidence for the synthesis contract.
//!
//! Four oracles, in increasing strictness:
//!
//! 1. **Cold prefix replay.** On xorshift-random diamond networks with
//!    random base→target edits, every prefix state of a feasible plan's
//!    chain is replayed through a *cold* [`check_configs`] and through a
//!    fresh session probe, and the two reports must be byte-identical
//!    (modulo wall-clock) — the probe-soundness claim the planner's
//!    certificates rest on.
//! 2. **Wave commutation.** For every wave of every feasible plan, every
//!    permutation of the wave's members is applied step-by-step: states
//!    reached with the same applied *set* must be identical configs, and
//!    every partial interleaving state must be cold-consistent — the
//!    [`WaveCertificate::commuting`] claim, tested literally.
//! 3. **Exhaustive infeasibility.** Every infeasible verdict (all
//!    instances here have ≤ 5 steps) is verified by exhaustively
//!    enumerating monotone chains in the subset lattice with cold checks
//!    as the safety oracle: the full step set admits no safe ordering,
//!    the reported core admits none on its own, and dropping any single
//!    core member admits one (deletion-minimality).
//! 4. **Variant agreement.** Each instance is synthesized under threads
//!    {1, 4} × query store {private, one shared across every instance};
//!    all four plans (waves, certificates, cores, search stats) must be
//!    identical.

use jinjing_acl::{Acl, Action, IpPrefix, PacketSet, Rule};
use jinjing_core::check::{check_configs, CheckConfig, CheckReport};
use jinjing_core::plan::{
    apply_steps, decompose, synthesize, PlanConfig, PlanOutcome, PlanStep, RolloutPlan,
};
use jinjing_core::{CheckSession, QueryCache};
use jinjing_net::fib::{pfx, prefix_set};
use jinjing_net::{AclConfig, Network, Scope, Slot, TopologyBuilder};
use std::collections::{HashMap, HashSet};
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
// Four devices ⇒ the per-device decomposition yields ≤ 4 steps, so the
// subset lattice is small enough to enumerate exhaustively.
// ---------------------------------------------------------------------------

struct Scenario {
    net: Network,
    slots: Vec<Slot>,
    prefixes: u32,
}

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

/// A random base→target campaign: 1–3 slot rewrites/clears on top of base.
fn random_target(rng: &mut Rng, sc: &Scenario, base: &AclConfig) -> AclConfig {
    let mut target = base.clone();
    for _ in 0..1 + rng.below(3) {
        let slot = sc.slots[rng.below(sc.slots.len())];
        if rng.chance(30) {
            target.clear(slot);
        } else {
            target.set(slot, random_acl(rng, sc.prefixes));
        }
    }
    target
}

// ---------------------------------------------------------------------------
// Canonical renderings: everything but wall-clock.
// ---------------------------------------------------------------------------

fn canon_report(r: &CheckReport) -> String {
    format!(
        "{:?}|{}|{}|{:?}|{}|{}",
        r.outcome, r.fec_count, r.paths_checked, r.solver_stats, r.encoded_rules, r.total_rules
    )
}

/// Canonical plan rendering: steps, waves/core by device name, full
/// certificates, full search stats. Two plans with equal canon are
/// operationally the same artifact.
fn canon_plan(plan: &RolloutPlan) -> String {
    let mut out = String::new();
    for s in &plan.steps {
        out.push_str(&format!("step {} edits={};", s.device, s.edits.len()));
    }
    match &plan.outcome {
        PlanOutcome::Feasible {
            waves,
            certificates,
        } => {
            for (w, c) in waves.iter().zip(certificates) {
                let devs: Vec<&str> = w.iter().map(|&i| plan.steps[i].device.as_str()).collect();
                out.push_str(&format!(
                    "wave [{}] commuting={} fec={} paths={} dirty={} state={:?};",
                    devs.join(","),
                    c.commuting,
                    c.fec_count,
                    c.paths_checked,
                    c.dirty_pairs,
                    c.state
                ));
            }
        }
        PlanOutcome::Infeasible { core } => {
            let devs: Vec<&str> = core
                .iter()
                .map(|&i| plan.steps[i].device.as_str())
                .collect();
            out.push_str(&format!("core [{}];", devs.join(",")));
        }
    }
    out.push_str(&format!("{:?}", plan.stats));
    out
}

// ---------------------------------------------------------------------------
// The exhaustive safety lattice: cold checks memoized per applied SET
// (state depends only on the set), monotone-chain reachability by DFS.
// This is the brute-force ground truth the planner must agree with.
// ---------------------------------------------------------------------------

struct Lattice<'a> {
    net: &'a Network,
    scope: &'a Scope,
    base: &'a AclConfig,
    steps: &'a [PlanStep],
    memo: HashMap<u32, bool>,
}

impl Lattice<'_> {
    fn safe(&mut self, mask: u32) -> bool {
        if mask == 0 {
            return true;
        }
        if let Some(&v) = self.memo.get(&mask) {
            return v;
        }
        let idx: Vec<usize> = (0..self.steps.len())
            .filter(|&i| mask & (1 << i) != 0)
            .collect();
        let state = apply_steps(self.base, self.steps, &idx);
        let report = check_configs(
            self.net,
            self.scope,
            self.base,
            &state,
            &[],
            &CheckConfig::default(),
        )
        .expect("cold lattice check");
        let v = report.outcome.is_consistent();
        self.memo.insert(mask, v);
        v
    }

    /// Does ANY ordering of the steps in `universe` pass only through
    /// safe states? Every ordering is a monotone chain adding one step at
    /// a time, so DFS over the lattice is an exhaustive enumeration.
    fn feasible(&mut self, universe: u32) -> bool {
        let mut dead = HashSet::new();
        self.dfs(universe, 0, &mut dead)
    }

    fn dfs(&mut self, universe: u32, applied: u32, dead: &mut HashSet<u32>) -> bool {
        if applied == universe {
            return true;
        }
        if dead.contains(&applied) {
            return false;
        }
        for i in 0..self.steps.len() {
            let bit = 1u32 << i;
            if universe & bit == 0 || applied & bit != 0 {
                continue;
            }
            if self.safe(applied | bit) && self.dfs(universe, applied | bit, dead) {
                return true;
            }
        }
        dead.insert(applied);
        false
    }
}

/// All permutations of `items` (small: waves have ≤ 4 members here).
fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
    if items.is_empty() {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for (i, &x) in items.iter().enumerate() {
        let mut rest: Vec<usize> = items.to_vec();
        rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, x);
            out.push(tail);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// The main oracle: ≥3 seeds × random campaigns, four synthesis variants,
// cold replay of every prefix state, wave permutation testing, and
// exhaustive verification of every infeasibility core.
// ---------------------------------------------------------------------------

const TRIALS: usize = 8;

#[test]
fn random_campaigns_replay_cold_and_verify_exhaustively() {
    let mut feasible_nontrivial = 0usize;
    let mut infeasible_seen = 0usize;
    let mut multi_wave_seen = 0usize;
    let store = Arc::new(QueryCache::new());

    for seed in [1u64, 7, 42] {
        let mut rng = Rng::new(seed);
        let sc = diamond(&mut rng);
        let scope = Scope::whole(sc.net.topology());

        for trial in 0..TRIALS {
            let base = random_config(&mut rng, &sc);
            let target = random_target(&mut rng, &sc, &base);
            let steps = decompose(&sc.net, &base, &target);
            if steps.is_empty() {
                continue;
            }
            assert!(
                steps.len() <= 5,
                "seed {seed} trial {trial}: diamond campaigns stay exhaustively checkable"
            );
            let tag = format!("seed {seed} trial {trial}");

            // Variant agreement: threads {1, 4} × store {private, shared}
            // must produce the identical plan artifact.
            let mut plans: Vec<(String, RolloutPlan)> = Vec::new();
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
                    let plan = synthesize(
                        &sc.net,
                        &scope,
                        &[],
                        &base,
                        &target,
                        &cfg,
                        &PlanConfig::default(),
                    )
                    .expect("synthesize");
                    plans.push((format!("threads={threads} shared={shared}"), plan));
                }
            }
            let want_canon = canon_plan(&plans[0].1);
            for (label, plan) in &plans[1..] {
                assert_eq!(
                    canon_plan(plan),
                    want_canon,
                    "{tag} [{label}] diverged from [{}]",
                    plans[0].0
                );
            }
            let plan = &plans[0].1;

            match &plan.outcome {
                PlanOutcome::Feasible {
                    waves,
                    certificates,
                } => {
                    if plan.steps.len() >= 2 {
                        feasible_nontrivial += 1;
                    }
                    if waves.len() >= 2 {
                        multi_wave_seen += 1;
                    }
                    assert_eq!(certificates.len(), waves.len(), "{tag}");
                    replay_feasible_plan(&sc.net, &scope, &base, plan, waves, certificates, &tag);
                }
                PlanOutcome::Infeasible { core } => {
                    infeasible_seen += 1;
                    verify_core_exhaustively(&sc.net, &scope, &base, plan, core, &tag);
                }
            }
        }
    }

    // The generator must exercise both verdicts and real ordering
    // constraints, or the oracle is vacuous.
    assert!(
        feasible_nontrivial > 0,
        "no multi-step feasible campaign generated"
    );
    assert!(infeasible_seen > 0, "no infeasible campaign generated");
    assert!(multi_wave_seen > 0, "no multi-wave plan generated");
}

/// Oracles 1 + 2 for one feasible plan: cold replay of every prefix
/// state (byte-compared against a fresh session probe), certificate
/// cross-check at wave boundaries, and full wave-permutation testing.
fn replay_feasible_plan(
    net: &Network,
    scope: &Scope,
    base: &AclConfig,
    plan: &RolloutPlan,
    waves: &[Vec<usize>],
    certificates: &[jinjing_core::plan::WaveCertificate],
    tag: &str,
) {
    // A fresh probe session over the same base: its report for any state
    // must be byte-identical to the cold check of that state.
    let session = CheckSession::with_configs(
        net,
        scope.clone(),
        Vec::new(),
        base.clone(),
        CheckConfig::default(),
    )
    .expect("probe session opens");

    let mut applied: Vec<usize> = Vec::new();
    for (wi, wave) in waves.iter().enumerate() {
        // Every prefix state of the flattened chain replays cold.
        for &i in wave {
            applied.push(i);
            let state = apply_steps(base, &plan.steps, &applied);
            let cold = check_configs(net, scope, base, &state, &[], &CheckConfig::default())
                .expect("cold replay");
            assert!(
                cold.outcome.is_consistent(),
                "{tag}: prefix state {applied:?} failed its cold replay"
            );
            let (probed, _) = session.probe(&state).expect("probe");
            assert_eq!(
                canon_report(&probed),
                canon_report(&cold),
                "{tag}: probe of {applied:?} not byte-identical to cold check"
            );
        }
        // Wave-boundary certificate matches the cold report's workload
        // fields and the cumulative device set.
        let state = apply_steps(base, &plan.steps, &applied);
        let cold = check_configs(net, scope, base, &state, &[], &CheckConfig::default())
            .expect("cold boundary");
        let cert = &certificates[wi];
        assert!(cert.commuting, "{tag}: wave {wi} certificate");
        assert_eq!(cert.fec_count, cold.fec_count, "{tag}: wave {wi} fec");
        assert_eq!(
            cert.paths_checked, cold.paths_checked,
            "{tag}: wave {wi} paths"
        );
        let mut devs: Vec<String> = applied
            .iter()
            .map(|&i| plan.steps[i].device.clone())
            .collect();
        devs.sort();
        assert_eq!(cert.state, devs, "{tag}: wave {wi} cumulative state");

        // Oracle 2: every wave-internal interleaving yields the same
        // intermediate states (keyed by applied set) and passes only
        // through cold-consistent states.
        let pre: Vec<usize> = applied[..applied.len() - wave.len()].to_vec();
        let mut states_by_set: HashMap<u32, AclConfig> = HashMap::new();
        for perm in permutations(wave) {
            let mut cur = pre.clone();
            for &i in &perm {
                cur.push(i);
                let mask: u32 = cur.iter().map(|&j| 1u32 << j).sum();
                let state = apply_steps(base, &plan.steps, &cur);
                match states_by_set.get(&mask) {
                    Some(prev) => assert_eq!(
                        prev, &state,
                        "{tag}: wave {wi} interleaving {perm:?} reached a different \
                         config for the same applied set"
                    ),
                    None => {
                        let cold =
                            check_configs(net, scope, base, &state, &[], &CheckConfig::default())
                                .expect("cold interleaving");
                        assert!(
                            cold.outcome.is_consistent(),
                            "{tag}: wave {wi} interleaving {perm:?} passed through an \
                             unsafe state at {cur:?}"
                        );
                        states_by_set.insert(mask, state);
                    }
                }
            }
        }
    }
    // The full chain lands exactly on the target diff.
    assert_eq!(applied.len(), plan.steps.len(), "{tag}: all steps applied");
}

/// Oracle 3 for one infeasible verdict: exhaustive lattice enumeration
/// confirms no safe ordering of the full step set, none of the core on
/// its own, and one for every core-minus-one-member subset.
fn verify_core_exhaustively(
    net: &Network,
    scope: &Scope,
    base: &AclConfig,
    plan: &RolloutPlan,
    core: &[usize],
    tag: &str,
) {
    assert!(!core.is_empty(), "{tag}: empty infeasibility core");
    let mut lattice = Lattice {
        net,
        scope,
        base,
        steps: &plan.steps,
        memo: HashMap::new(),
    };
    let universe: u32 = (0..plan.steps.len()).map(|i| 1u32 << i).sum();
    assert!(
        !lattice.feasible(universe),
        "{tag}: planner said infeasible but exhaustive enumeration found a safe ordering"
    );
    let core_mask: u32 = core.iter().map(|&i| 1u32 << i).sum();
    assert!(
        !lattice.feasible(core_mask),
        "{tag}: core {core:?} admits a safe ordering on its own"
    );
    for &i in core {
        let without = core_mask & !(1u32 << i);
        assert!(
            lattice.feasible(without),
            "{tag}: core not deletion-minimal — dropping step {i} ({}) is still infeasible",
            plan.steps[i].device
        );
    }
}

// ---------------------------------------------------------------------------
// Determinism across repeated synthesis: same inputs, same artifact —
// including the stats block (the search itself is deterministic).
// ---------------------------------------------------------------------------

#[test]
fn synthesis_is_deterministic() {
    let mut rng = Rng::new(1729);
    let sc = diamond(&mut rng);
    let scope = Scope::whole(sc.net.topology());
    let base = random_config(&mut rng, &sc);
    let target = random_target(&mut rng, &sc, &base);
    let run = || {
        synthesize(
            &sc.net,
            &scope,
            &[],
            &base,
            &target,
            &CheckConfig::default(),
            &PlanConfig::default(),
        )
        .expect("synthesize")
    };
    let a = run();
    let b = run();
    assert_eq!(canon_plan(&a), canon_plan(&b));
    // pairs_ceiling dominates the dirty-pair work by the ≥2× margin the
    // BENCH gate enforces (differential sessions beat cold replay).
    if a.stats.prefix_checks > 0 {
        assert!(
            a.stats.dirty_pairs * 2 <= a.stats.pairs_ceiling,
            "dirty {} ceiling {}",
            a.stats.dirty_pairs,
            a.stats.pairs_ceiling
        );
    }
}
