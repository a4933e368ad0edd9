//! Rollout-plan scenario generation: seeded base→target configuration
//! pairs whose safe orderings the planner (`jinjing_core::plan`) must
//! discover — or prove absent.
//!
//! Three shapes, mirroring the update campaigns §7 motivates:
//!
//! - [`RolloutKind::Drain`] — a maintenance-window drain: denies for a
//!   handful of customer prefixes move from the aggregation layer up to
//!   the core uplink ingress, so the aggregation layer can be serviced.
//!   Feasible, but order-constrained: every core must filter at the edge
//!   of the network *before* any aggregation deny is withdrawn.
//! - [`RolloutKind::StagedSwap`] — a staged rule swap: one prefix drains
//!   aggregation→core while another simultaneously undrains core→
//!   aggregation. The core devices sit in the middle of both chains, so
//!   any safe plan is forced through three stages (new aggregation
//!   denies, then the core swaps, then the old aggregation withdrawals).
//! - [`RolloutKind::NoOrder`] — a deny swap between the single core and
//!   the single edge of a minimal WAN. Whichever device moves first
//!   opens one of the isolated prefixes, so *no* monotone ordering is
//!   safe and the planner must return an infeasibility core.
//!
//! Every scenario also carries the equivalent LAI program (scope +
//! `isolate` controls + `check`), so the front ends can drive the same
//! plan through `jinjing plan` / `POST /v1/plan`.

use crate::build::{build_wan, Wan};
use crate::params::{NetSize, WanParams};
use jinjing_acl::parse::parse_rule;
use jinjing_acl::{Acl, Action, IpPrefix, Rule};
use jinjing_core::control::ResolvedControl;
use jinjing_lai::{Command, ControlStmt, ControlVerb, HeaderSel, Program};
use jinjing_net::fib::prefix_set;
use jinjing_net::{AclConfig, Slot};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashSet;

/// The rollout campaign shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RolloutKind {
    /// Maintenance-window drain: aggregation denies move to the cores.
    Drain,
    /// Staged swap: one prefix drains upward while another undrains.
    StagedSwap,
    /// Deny swap with no safe ordering (expects an infeasibility core).
    NoOrder,
}

impl RolloutKind {
    /// All kinds, feasible first.
    pub const ALL: [RolloutKind; 3] = [
        RolloutKind::Drain,
        RolloutKind::StagedSwap,
        RolloutKind::NoOrder,
    ];

    /// Display label used by the figures harness.
    pub fn label(self) -> &'static str {
        match self {
            RolloutKind::Drain => "drain",
            RolloutKind::StagedSwap => "staged_swap",
            RolloutKind::NoOrder => "no_order",
        }
    }
}

/// A generated rollout scenario: the WAN, the base and target
/// configurations, the safety intent, and the equivalent LAI program.
#[derive(Debug, Clone)]
pub struct RolloutScenario {
    /// The generated WAN (its `config` is untouched; use `base`).
    pub wan: Wan,
    /// The configuration the rollout starts from.
    pub base: AclConfig,
    /// The configuration the rollout must reach.
    pub target: AclConfig,
    /// The safety intent every intermediate state must satisfy.
    pub controls: Vec<ResolvedControl>,
    /// Equivalent LAI program (scope + isolate controls + check).
    pub program: Program,
    /// Whether a safe ordering exists by construction.
    pub feasible: bool,
}

fn deny_rule(p: IpPrefix) -> Rule {
    parse_rule(&format!("deny dst {p}")).expect("generated rule must parse")
}

/// An isolate control + its LAI statement for edge prefix `p` of flat
/// edge index `ei`.
fn isolate(wan: &Wan, ei: usize, p: IpPrefix) -> (ResolvedControl, ControlStmt) {
    let ctl = ResolvedControl {
        from: wan.uplinks.iter().copied().collect(),
        to: HashSet::from([wan.downlinks[ei]]),
        verb: ControlVerb::Isolate,
        region: prefix_set(&p),
    };
    let stmt = ControlStmt {
        from: wan
            .uplinks
            .iter()
            .map(|&u| crate::scenarios::pattern_for_iface(wan, u, None))
            .collect(),
        to: vec![crate::scenarios::pattern_for_iface(
            wan,
            wan.downlinks[ei],
            None,
        )],
        verb: ControlVerb::Isolate,
        header: HeaderSel::Dst(p),
    };
    (ctl, stmt)
}

/// Remove every rule that could match one of `regions` from all
/// configured policies. The generated aggregation policies are random,
/// so without this a baseline rule may already deny a drained prefix —
/// making the scenario's explicit deny partially redundant and the
/// intended ordering constraint vacuous.
fn scrub_config(cfg: &AclConfig, regions: &[IpPrefix]) -> AclConfig {
    let mut out = AclConfig::new();
    for slot in cfg.slots() {
        let acl = cfg.get(slot).unwrap();
        let hit: HashSet<usize> = regions
            .iter()
            .flat_map(|p| acl.hit_rules(&prefix_set(p)))
            .collect();
        let rules: Vec<Rule> = acl
            .rules()
            .iter()
            .enumerate()
            .filter(|(i, _)| !hit.contains(i))
            .map(|(_, r)| *r)
            .collect();
        out.set(slot, Acl::new(rules, acl.default_action()));
    }
    out
}

/// Prepend `deny dst p` (for each prefix) to the policy group of the
/// flat aggregation index `ai`, preserving the one-policy-per-device
/// invariant across its core-facing slots.
fn prepend_on_agg(wan: &Wan, cfg: &mut AclConfig, ai: usize, prefixes: &[IpPrefix]) {
    let slots = &wan.acl_slots[ai];
    let denies: Vec<Rule> = prefixes.iter().map(|&p| deny_rule(p)).collect();
    let acl = cfg
        .get(slots[0])
        .cloned()
        .unwrap_or_else(Acl::permit_all)
        .with_prepended(&denies);
    for &s in slots {
        cfg.set(s, acl.clone());
    }
}

/// Build the scenario: seed drives which prefixes drain (the topology
/// itself stays on the preset seed, perturbed by `seed`, so a
/// (size, kind, seed) triple is fully deterministic).
pub fn rollout_scenario(size: NetSize, kind: RolloutKind, seed: u64) -> RolloutScenario {
    match kind {
        RolloutKind::Drain => drain(size, seed),
        RolloutKind::StagedSwap => staged_swap(size, seed),
        RolloutKind::NoOrder => no_order(seed),
    }
}

fn program_for(wan: &Wan, stmts: Vec<ControlStmt>) -> Program {
    Program {
        scope: crate::scenarios::scope_patterns(wan),
        controls: stmts,
        command: Some(Command::Check),
        ..Program::default()
    }
}

/// Flat aggregation indices of cell `c`.
fn cell_aggs(wan: &Wan, c: usize) -> std::ops::Range<usize> {
    let per = wan.params.aggs_per_cell;
    c * per..(c + 1) * per
}

fn drain(size: NetSize, seed: u64) -> RolloutScenario {
    let mut params = WanParams::preset(size);
    params.seed ^= seed.rotate_left(17);
    let wan = build_wan(&params);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);

    // Drain denies for one prefix of each of up to three distinct edges.
    let edge_count = wan.downlinks.len();
    let drained = edge_count.min(3);
    let mut picked: Vec<(usize, IpPrefix)> = Vec::new();
    while picked.len() < drained {
        let ei = rng.random_range(0..edge_count);
        if picked.iter().any(|&(e, _)| e == ei) {
            continue;
        }
        let ps = &wan.edge_prefixes[ei];
        picked.push((ei, ps[rng.random_range(0..ps.len())]));
    }
    picked.sort_by_key(|&(ei, _)| ei);
    let regions: Vec<IpPrefix> = picked.iter().map(|&(_, p)| p).collect();
    let baseline = scrub_config(&wan.config, &regions);

    // Base: every aggregation device of a drained edge's cell denies the
    // drained prefixes of that cell (all paths cross the cell's aggs).
    let mut base = baseline.clone();
    for c in 0..wan.params.cells {
        let in_cell: Vec<IpPrefix> = picked
            .iter()
            .filter(|&&(ei, _)| ei / wan.params.edges_per_cell == c)
            .map(|&(_, p)| p)
            .collect();
        if in_cell.is_empty() {
            continue;
        }
        for ai in cell_aggs(&wan, c) {
            prepend_on_agg(&wan, &mut base, ai, &in_cell);
        }
    }

    // Target: the aggregation layer reverts to the baseline policies and
    // every core uplink ingress filters the drained prefixes at entry.
    let mut target = baseline;
    let entry_denies: Vec<Rule> = picked.iter().map(|&(_, p)| deny_rule(p)).collect();
    for &up in &wan.uplinks {
        target.set(
            Slot::ingress(up),
            Acl::new(entry_denies.clone(), Action::Permit),
        );
    }

    let (controls, stmts) = picked
        .iter()
        .map(|&(ei, p)| isolate(&wan, ei, p))
        .unzip::<_, _, Vec<_>, Vec<_>>();
    let program = program_for(&wan, stmts);
    RolloutScenario {
        wan,
        base,
        target,
        controls,
        program,
        feasible: true,
    }
}

fn staged_swap(size: NetSize, seed: u64) -> RolloutScenario {
    let mut params = WanParams::preset(size);
    assert!(params.cells >= 2, "staged swap wants two cells");
    params.seed ^= seed.rotate_left(17);
    let wan = build_wan(&params);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x517c_c1b7_2722_0a95);

    // One prefix per cell: `a` (cell 0) drains aggregation→core while
    // `b` (cell 1) undrains core→aggregation.
    let per = wan.params.edges_per_cell;
    let ei_a = rng.random_range(0..per);
    let ei_b = per + rng.random_range(0..per);
    let t_a = wan.edge_prefixes[ei_a][rng.random_range(0..wan.edge_prefixes[ei_a].len())];
    let t_b = wan.edge_prefixes[ei_b][rng.random_range(0..wan.edge_prefixes[ei_b].len())];
    let baseline = scrub_config(&wan.config, &[t_a, t_b]);

    // Base: cell-0 aggs deny `a`; every core uplink denies `b` at entry.
    let mut base = baseline.clone();
    for ai in cell_aggs(&wan, 0) {
        prepend_on_agg(&wan, &mut base, ai, &[t_a]);
    }
    for &up in &wan.uplinks {
        base.set(
            Slot::ingress(up),
            Acl::new(vec![deny_rule(t_b)], Action::Permit),
        );
    }

    // Target: the mirror image — cell-1 aggs deny `b`, cores deny `a`.
    let mut target = baseline;
    for ai in cell_aggs(&wan, 1) {
        prepend_on_agg(&wan, &mut target, ai, &[t_b]);
    }
    for &up in &wan.uplinks {
        target.set(
            Slot::ingress(up),
            Acl::new(vec![deny_rule(t_a)], Action::Permit),
        );
    }

    let (controls, stmts) = [(ei_a, t_a), (ei_b, t_b)]
        .iter()
        .map(|&(ei, p)| isolate(&wan, ei, p))
        .unzip::<_, _, Vec<_>, Vec<_>>();
    let program = program_for(&wan, stmts);
    RolloutScenario {
        wan,
        base,
        target,
        controls,
        program,
        feasible: true,
    }
}

fn no_order(seed: u64) -> RolloutScenario {
    // A minimal WAN: one core, one cell, one agg, one edge — and a
    // rule-free aggregation layer so nothing filters but the two slots
    // the swap touches.
    let params = WanParams {
        cores: 1,
        cells: 1,
        aggs_per_cell: 1,
        edges_per_cell: 1,
        prefixes_per_edge: 2,
        external_per_uplink: 1,
        rules_per_slot: 0,
        seed: 0x5eed_0100 ^ seed,
    };
    let wan = build_wan(&params);
    let t_a = wan.edge_prefixes[0][0];
    let t_b = wan.edge_prefixes[0][1];

    // Base: the core denies `a` at entry, the edge denies `b`. Target
    // swaps them. Moving either device first opens the other prefix, so
    // no monotone ordering is safe — only an atomic swap would be.
    let core_slot = Slot::ingress(wan.uplinks[0]);
    let edge_slot = wan.edge_slots[0];
    let mut base = wan.config.clone();
    base.set(core_slot, Acl::new(vec![deny_rule(t_a)], Action::Permit));
    base.set(edge_slot, Acl::new(vec![deny_rule(t_b)], Action::Permit));
    let mut target = wan.config.clone();
    target.set(core_slot, Acl::new(vec![deny_rule(t_b)], Action::Permit));
    target.set(edge_slot, Acl::new(vec![deny_rule(t_a)], Action::Permit));

    let (controls, stmts) = [(0, t_a), (0, t_b)]
        .iter()
        .map(|&(ei, p)| isolate(&wan, ei, p))
        .unzip::<_, _, Vec<_>, Vec<_>>();
    let program = program_for(&wan, stmts);
    RolloutScenario {
        wan,
        base,
        target,
        controls,
        program,
        feasible: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jinjing_core::check::CheckConfig;
    use jinjing_core::plan::{synthesize, PlanConfig, PlanOutcome};

    fn plan(sc: &RolloutScenario) -> jinjing_core::plan::RolloutPlan {
        synthesize(
            &sc.wan.net,
            &sc.wan.scope(),
            &sc.controls,
            &sc.base,
            &sc.target,
            &CheckConfig::default(),
            &PlanConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn drain_is_feasible_and_cores_precede_aggs() {
        let sc = rollout_scenario(NetSize::Small, RolloutKind::Drain, 7);
        assert!(sc.feasible);
        let rp = plan(&sc);
        let PlanOutcome::Feasible { waves, .. } = &rp.outcome else {
            panic!("drain must be feasible: {:?}", rp.outcome);
        };
        // The on-path agg for the last-swapped core can only be drained
        // after that core filters at entry: some agg wave follows every
        // core wave. (Off-path aggs may legally float earlier — routing
        // pins each (core, prefix) to one next-hop.)
        let wave_of = |dev: &str| {
            waves
                .iter()
                .position(|w| w.iter().any(|&i| rp.steps[i].device == dev))
                .unwrap_or_else(|| panic!("device {dev} not planned"))
        };
        let last_core = (0..sc.wan.params.cores)
            .map(|i| wave_of(&format!("core{i}")))
            .max()
            .unwrap();
        let last_agg = rp
            .steps
            .iter()
            .filter(|s| s.device.contains("agg"))
            .map(|s| wave_of(&s.device))
            .max()
            .unwrap();
        assert!(last_core < last_agg, "cores {last_core} aggs {last_agg}");
    }

    #[test]
    fn staged_swap_is_feasible_with_cores_in_the_middle() {
        let sc = rollout_scenario(NetSize::Small, RolloutKind::StagedSwap, 3);
        let rp = plan(&sc);
        let PlanOutcome::Feasible { waves, .. } = &rp.outcome else {
            panic!("staged swap must be feasible: {:?}", rp.outcome);
        };
        // The swap is staged: before the first core swaps, its on-path
        // cell-1 agg must already deny `b`; after the last core swaps,
        // its on-path cell-0 agg may finally drop `a`. Off-path aggs may
        // float, so assert over the forced extremes.
        let wave_of = |dev: &str| {
            waves
                .iter()
                .position(|w| w.iter().any(|&i| rp.steps[i].device == dev))
                .unwrap()
        };
        let core_waves: Vec<usize> = (0..sc.wan.params.cores)
            .map(|i| wave_of(&format!("core{i}")))
            .collect();
        let agg_waves = |prefix: &str| {
            rp.steps
                .iter()
                .filter(|s| s.device.starts_with(prefix))
                .map(|s| wave_of(&s.device))
                .collect::<Vec<_>>()
        };
        let first_add = agg_waves("cell1-agg").into_iter().min().unwrap();
        let last_drop = agg_waves("cell0-agg").into_iter().max().unwrap();
        assert!(first_add < *core_waves.iter().min().unwrap());
        assert!(last_drop > *core_waves.iter().max().unwrap());
    }

    #[test]
    fn no_order_is_infeasible() {
        let sc = rollout_scenario(NetSize::Small, RolloutKind::NoOrder, 11);
        assert!(!sc.feasible);
        let rp = plan(&sc);
        let PlanOutcome::Infeasible { core } = &rp.outcome else {
            panic!("no_order must be infeasible: {:?}", rp.outcome);
        };
        assert!(!core.is_empty());
    }

    #[test]
    fn scenarios_are_deterministic_and_programs_validate() {
        for kind in RolloutKind::ALL {
            let a = rollout_scenario(NetSize::Small, kind, 5);
            let b = rollout_scenario(NetSize::Small, kind, 5);
            for slot in a.base.slots() {
                assert_eq!(a.base.get(slot), b.base.get(slot));
            }
            for slot in a.target.slots() {
                assert_eq!(a.target.get(slot), b.target.get(slot));
            }
            let printed = jinjing_lai::print_program(&a.program);
            let reparsed =
                jinjing_lai::validate(jinjing_lai::parse_program(&printed).unwrap()).unwrap();
            let task = jinjing_core::resolve::resolve(&a.wan.net, &reparsed, &a.base).unwrap();
            assert_eq!(task.controls.len(), a.controls.len());
            for (x, y) in task.controls.iter().zip(&a.controls) {
                assert!(x.region.same_set(&y.region));
                assert_eq!(x.verb, y.verb);
                assert_eq!(x.from, y.from);
                assert_eq!(x.to, y.to);
            }
        }
    }
}
