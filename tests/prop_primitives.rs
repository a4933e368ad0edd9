//! Property tests for the three primitives, run over the Figure 1
//! substrate with randomized ACL configurations and intents:
//!
//! - **check** (all four optimization variants) always agrees with the
//!   exact set-algebra oracle;
//! - **fix** either produces a plan that the oracle certifies, or reports
//!   the task unfixable;
//! - **generate** (optimized and not) preserves the desired reachability
//!   whenever it returns a plan.

mod cases;

use jinjing_acl::{Acl, Action, IpPrefix, Rule};
use jinjing_core::check::{check_configs, check_exact, CheckConfig};
use jinjing_core::control::ResolvedControl;
use jinjing_core::figure1::Figure1;
use jinjing_core::fix::{fix, FixConfig, FixError};
use jinjing_core::generate::{generate, GenerateConfig};
use jinjing_core::{Encoding, Task};
use jinjing_lai::{Command, ControlVerb};
use jinjing_net::fib::prefix_set;
use jinjing_net::{AclConfig, Slot};
use rand::rngs::StdRng;
use rand::RngExt;
use std::collections::HashSet;

const SUITE: &str = "prop_primitives";
const CASES: u64 = 24;

/// A rule over the example's traffic space: dst n.0.0.0/8 or a /16 subset.
fn fig_rule(rng: &mut StdRng) -> Rule {
    let n = rng.random_range(1..=8u32);
    let (permit, narrow): (bool, bool) = (rng.random(), rng.random());
    let sub = rng.random_range(0..4u32);
    let prefix = if narrow {
        IpPrefix::new(n << 24 | sub << 16, 16)
    } else {
        IpPrefix::new(n << 24, 8)
    };
    Rule::on_dst(Action::from_bool(permit), prefix)
}

fn fig_acl(rng: &mut StdRng) -> Acl {
    let rules = rng.random_range(0..5usize);
    Acl::new((0..rules).map(|_| fig_rule(rng)).collect(), Action::Permit)
}

/// Raw configuration material: one optional ACL per filtering slot of the
/// example (A1-in, C1-in, D2-in, B1-in, A3-out).
fn fig_config_raw(rng: &mut StdRng) -> Vec<Option<Acl>> {
    (0..5)
        .map(|_| rng.random::<bool>().then(|| fig_acl(rng)))
        .collect()
}

fn two_configs(rng: &mut StdRng) -> (Vec<Option<Acl>>, Vec<Option<Acl>>) {
    (fig_config_raw(rng), fig_config_raw(rng))
}

/// The example's slots raw material binds to, in order.
fn bind_slots(fig: &Figure1) -> Vec<Slot> {
    vec![
        fig.slot("A1"),
        fig.slot("C1"),
        fig.slot("D2"),
        fig.slot("B1"),
        Slot::egress(fig.iface("A3")),
    ]
}

/// Bind raw material to the example's slots.
fn bind_config(fig: &Figure1, acls: &[Option<Acl>]) -> AclConfig {
    let mut cfg = AclConfig::new();
    for (slot, acl) in bind_slots(fig).iter().zip(acls) {
        if let Some(a) = acl {
            cfg.set(*slot, a.clone());
        }
    }
    cfg
}

fn all_check_configs() -> Vec<CheckConfig> {
    let mut out = Vec::new();
    for differential in [false, true] {
        for encoding in [Encoding::Sequential, Encoding::Tree] {
            out.push(CheckConfig {
                differential,
                encoding,
                ..CheckConfig::default()
            });
        }
    }
    out
}

/// All four check variants agree with the exact oracle on arbitrary
/// configuration pairs.
#[test]
fn check_agrees_with_oracle() {
    let name = "check_agrees_with_oracle";
    cases::run(SUITE, name, CASES, two_configs, |(b, a)| {
        let fig = Figure1::new();
        let before = bind_config(&fig, b);
        let after = bind_config(&fig, a);
        let oracle = check_exact(&fig.net, &fig.scope(), &before, &after, &[]).is_consistent();
        for cfg in all_check_configs() {
            let got = check_configs(&fig.net, &fig.scope(), &before, &after, &[], &cfg)
                .expect("check")
                .outcome
                .is_consistent();
            assert_eq!(got, oracle, "{cfg:?}");
        }
    });
}

/// Fix either repairs (oracle-certified) or declares unfixability.
#[test]
fn fix_repairs_or_reports() {
    let name = "fix_repairs_or_reports";
    cases::run(SUITE, name, CASES, two_configs, |(b, a)| {
        let fig = Figure1::new();
        let before = bind_config(&fig, b);
        let after = bind_config(&fig, a);
        let mut allow = Vec::new();
        for name in ["A1", "A2", "A3", "A4", "B1", "B2", "C1", "D2"] {
            allow.push(Slot::ingress(fig.iface(name)));
            allow.push(Slot::egress(fig.iface(name)));
        }
        let task = Task {
            scope: fig.scope(),
            allow,
            before: before.clone(),
            after,
            modified: Vec::new(),
            controls: Vec::new(),
            command: Command::Fix,
        };
        match fix(
            &fig.net,
            &task,
            &CheckConfig::default(),
            &FixConfig::default(),
        ) {
            Ok(plan) => {
                let verdict = check_exact(&fig.net, &fig.scope(), &before, &plan.fixed, &[]);
                assert!(verdict.is_consistent(), "plan not consistent");
                // Added rules stay within the allow list.
                for (slot, _) in &plan.added_rules {
                    assert!(task.allow.contains(slot));
                }
                // Neighborhoods pairwise disjoint.
                for (i, a) in plan.neighborhoods.iter().enumerate() {
                    for b in &plan.neighborhoods[i + 1..] {
                        assert!(!a.overlaps(b));
                    }
                }
            }
            Err(FixError::Unfixable { .. }) => {}
            Err(e) => panic!("{e}"),
        }
    });
}

/// A migration: raw before-configuration material and, for some cases, a
/// mask per slot of the rules its migration keeps. A slot without a mask is
/// migrated to `permit all`; one with a mask keeps those of its own rules,
/// with the same default action, so the update installs a new ACL that can
/// cut the before-configuration's classes.
type Migration = (Vec<Option<Acl>>, Vec<Option<Vec<bool>>>);

fn migration(rng: &mut StdRng) -> Migration {
    let raw = fig_config_raw(rng);
    let partial: bool = rng.random();
    let keep = raw
        .iter()
        .map(|acl| match acl {
            Some(acl) if partial && rng.random::<bool>() => {
                Some(acl.rules().iter().map(|_| rng.random()).collect())
            }
            _ => None,
        })
        .collect();
    (raw, keep)
}

/// Generate preserves reachability in both optimization modes, and the
/// two modes produce semantically equivalent plans. A kept subset cuts a
/// class in few cases, so this property draws four times the suite's count.
#[test]
fn generate_preserves_reachability() {
    let name = "generate_preserves_reachability";
    cases::run(SUITE, name, 4 * CASES, migration, |(b, keep)| {
        let fig = Figure1::new();
        let before = bind_config(&fig, b);
        let allow = vec![
            fig.slot("C1"),
            fig.slot("C2"),
            fig.slot("C4"),
            fig.slot("D1"),
        ];
        // Migrate everything off the configured slots onto C/D ingress,
        // keeping some of a non-target slot's rules where the case says so.
        let mut after = AclConfig::new();
        for (slot, acl) in bind_slots(&fig).into_iter().zip(b.iter().zip(keep)) {
            let migrated = match acl {
                (Some(acl), Some(keep)) if !allow.contains(&slot) => {
                    let kept = acl.rules().iter().zip(keep).filter(|(_, &k)| k);
                    Acl::new(kept.map(|(r, _)| *r).collect(), acl.default_action())
                }
                (Some(_), _) => Acl::permit_all(),
                (None, _) => continue,
            };
            after.set(slot, migrated);
        }
        let task = Task {
            scope: fig.scope(),
            allow,
            before: before.clone(),
            after,
            modified: before.slots(),
            controls: Vec::new(),
            command: Command::Generate,
        };
        let mut results = Vec::new();
        for optimize in [true, false] {
            let cfg = GenerateConfig { optimize };
            match generate(&fig.net, &task, &CheckConfig::default(), &cfg) {
                Ok(report) => {
                    let verdict =
                        check_exact(&fig.net, &fig.scope(), &before, &report.generated, &[]);
                    assert!(verdict.is_consistent(), "optimize={optimize}: {verdict:?}");
                    results.push(Some(report));
                }
                Err(_) => results.push(None),
            }
        }
        // Both modes agree on feasibility.
        assert_eq!(results[0].is_some(), results[1].is_some());
    });
}

/// Generate under random isolate/open controls achieves the desired
/// reachability whenever it succeeds.
#[test]
fn generate_achieves_controls() {
    let generate_input = |rng: &mut StdRng| -> (u32, bool, bool) {
        (rng.random_range(1..=8u32), rng.random(), rng.random())
    };
    let name = "generate_achieves_controls";
    cases::run(
        SUITE,
        name,
        CASES,
        generate_input,
        |&(n, isolate, to_c3)| {
            let fig = Figure1::new();
            let to = if to_c3 {
                fig.iface("C3")
            } else {
                fig.iface("D3")
            };
            let controls = vec![ResolvedControl {
                from: HashSet::from([fig.iface("A1")]),
                to: HashSet::from([to]),
                verb: if isolate {
                    ControlVerb::Isolate
                } else {
                    ControlVerb::Open
                },
                region: prefix_set(&IpPrefix::new(n << 24, 8)),
            }];
            // Allow every ingress slot inside the scope (maximal freedom).
            let mut allow = Vec::new();
            for name in [
                "A1", "A2", "A3", "A4", "B1", "B2", "C1", "C2", "C4", "D1", "D2",
            ] {
                allow.push(Slot::ingress(fig.iface(name)));
                allow.push(Slot::egress(fig.iface(name)));
            }
            let task = Task {
                scope: fig.scope(),
                allow,
                before: fig.config.clone(),
                after: fig.config.clone(),
                modified: Vec::new(),
                controls: controls.clone(),
                command: Command::Generate,
            };
            if let Ok(report) = generate(
                &fig.net,
                &task,
                &CheckConfig::default(),
                &GenerateConfig::default(),
            ) {
                let verdict = check_exact(
                    &fig.net,
                    &fig.scope(),
                    &fig.config,
                    &report.generated,
                    &controls,
                );
                assert!(verdict.is_consistent(), "{verdict:?}");
            }
        },
    );
}
