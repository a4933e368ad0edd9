//! Primitive properties over *randomized topologies* (chains with optional
//! diamond branches), randomized routing and randomized ACLs — the
//! strongest correctness evidence in the suite: every solver-path verdict
//! is compared against the exact set-algebra oracle, and every produced
//! plan is oracle-certified.

mod cases;

use jinjing_acl::{Acl, Action, IpPrefix, Rule};
use jinjing_core::check::{check_configs, check_exact, CheckConfig};
use jinjing_core::fix::{fix, FixConfig, FixError, FixStrategy};
use jinjing_core::{Encoding, Task};
use jinjing_lai::Command;
use jinjing_net::spec::{AnnouncementSpec, DeviceSpec, NetworkSpec};
use jinjing_net::{AclConfig, Network, Scope, Slot};
use rand::rngs::StdRng;
use rand::RngExt;

const SUITE: &str = "prop_random_networks";
const CASES: u64 = 32;

/// Parameters of a generated scenario.
#[derive(Debug, Clone)]
struct ScenarioSpec {
    /// Devices in the chain (2..=4).
    chain: usize,
    /// Add a parallel branch between the first and last chain device?
    diamond: bool,
    /// Announced /8 prefixes (1..=4), all at the tail.
    prefixes: usize,
    /// Per-slot ACL material: (slot choice, rules).
    acls: Vec<(usize, Vec<Rule>)>,
    /// Perturbations: (acl index, mutation kind, rule seed).
    mutations: Vec<(usize, u8, u32)>,
}

fn rule(rng: &mut StdRng) -> Rule {
    let n = rng.random_range(1..=4u32);
    let permit: bool = rng.random();
    let len = if rng.random() { 8 } else { 16 };
    let sub = rng.random_range(0..4u32);
    let addr = if len == 8 {
        n << 24
    } else {
        n << 24 | sub << 16
    };
    Rule::on_dst(Action::from_bool(permit), IpPrefix::new(addr, len))
}

fn scenario(rng: &mut StdRng) -> ScenarioSpec {
    let acls = rng.random_range(1..4usize);
    let mutations = rng.random_range(0..4usize);
    ScenarioSpec {
        chain: rng.random_range(2..=4usize),
        diamond: rng.random(),
        prefixes: rng.random_range(1..=4usize),
        acls: (0..acls)
            .map(|_| {
                let rules = rng.random_range(1..4usize);
                let slot = rng.random_range(0..8usize);
                (slot, (0..rules).map(|_| rule(rng)).collect())
            })
            .collect(),
        mutations: (0..mutations)
            .map(|_| {
                let acl = rng.random_range(0..3usize);
                let kind = rng.random_range(0..3u32) as u8;
                (acl, kind, rng.random_range(0..=u32::MAX))
            })
            .collect(),
    }
}

/// Materialize the scenario: network, before-config, after-config.
fn build(spec: &ScenarioSpec) -> (Network, AclConfig, AclConfig) {
    let mut net_spec = NetworkSpec::default();
    for i in 0..spec.chain {
        net_spec.devices.push(DeviceSpec {
            name: format!("R{i}"),
            interfaces: vec!["l".into(), "r".into(), "x".into(), "b1".into(), "b2".into()],
        });
    }
    for i in 0..spec.chain - 1 {
        net_spec
            .links
            .push((format!("R{i}:r"), format!("R{}:l", i + 1)));
    }
    if spec.diamond {
        // Extra device bridging head and tail.
        net_spec.devices.push(DeviceSpec {
            name: "Br".into(),
            interfaces: vec!["a".into(), "b".into()],
        });
        net_spec.links.push(("R0:b1".into(), "Br:a".into()));
        net_spec
            .links
            .push((format!("R{}:b2", spec.chain - 1), "Br:b".into()));
    }
    for k in 0..spec.prefixes {
        net_spec.announcements.push(AnnouncementSpec {
            prefix: format!("{}.0.0.0/8", k + 1),
            interface: format!("R{}:x", spec.chain - 1),
        });
    }
    net_spec.entering.push(jinjing_net::spec::EnteringSpec {
        interface: "R0:l".into(),
        dst_prefixes: (0..spec.prefixes)
            .map(|k| format!("{}.0.0.0/8", k + 1))
            .collect(),
    });
    let net = net_spec.build().expect("generated spec is valid");

    // Candidate ACL slots: every ingress of every chain device's l/r plus
    // the bridge.
    let mut candidates: Vec<Slot> = Vec::new();
    for i in 0..spec.chain {
        for ifname in ["l", "r"] {
            let iface = net
                .topology()
                .iface_by_name(&format!("R{i}"), ifname)
                .unwrap();
            candidates.push(Slot::ingress(iface));
        }
    }
    if spec.diamond {
        let a = net.topology().iface_by_name("Br", "a").unwrap();
        candidates.push(Slot::ingress(a));
    }
    let mut before = AclConfig::new();
    for (slot_choice, rules) in &spec.acls {
        let slot = candidates[slot_choice % candidates.len()];
        before.set(slot, Acl::new(rules.clone(), Action::Permit));
    }
    // Mutations produce the after-config.
    let mut after = before.clone();
    let slots = before.slots();
    if !slots.is_empty() {
        for &(ai, kind, seed) in &spec.mutations {
            let slot = slots[ai % slots.len()];
            let acl = after.get(slot).unwrap().clone();
            let mut rules = acl.rules().to_vec();
            match kind {
                0 if !rules.is_empty() => {
                    rules.remove(seed as usize % rules.len());
                }
                1 if !rules.is_empty() => {
                    let i = seed as usize % rules.len();
                    rules[i].action = rules[i].action.flip();
                }
                _ => {
                    let n = (seed % 4) + 1;
                    rules.insert(
                        seed as usize % (rules.len() + 1),
                        Rule::on_dst(Action::Deny, IpPrefix::new(n << 24, 8)),
                    );
                }
            }
            after.set(slot, Acl::new(rules, acl.default_action()));
        }
    }
    (net, before, after)
}

/// Check (all four variants) agrees with the oracle on random networks.
#[test]
fn check_matches_oracle() {
    cases::run(SUITE, "check_matches_oracle", CASES, scenario, |spec| {
        let (net, before, after) = build(spec);
        let scope = Scope::whole(net.topology());
        let oracle = check_exact(&net, &scope, &before, &after, &[]).is_consistent();
        for differential in [false, true] {
            for encoding in [Encoding::Sequential, Encoding::Tree] {
                let cfg = CheckConfig {
                    differential,
                    encoding,
                    ..CheckConfig::default()
                };
                let got = check_configs(&net, &scope, &before, &after, &[], &cfg)
                    .expect("check")
                    .outcome
                    .is_consistent();
                assert_eq!(got, oracle, "diff={differential} enc={encoding:?}");
            }
        }
    });
}

/// Both fix strategies repair (oracle-certified) or report unfixable,
/// and they agree on feasibility.
#[test]
fn fix_strategies_agree() {
    cases::run(SUITE, "fix_strategies_agree", CASES, scenario, |spec| {
        let (net, before, after) = build(spec);
        let scope = Scope::whole(net.topology());
        // Allow every ingress/egress slot of every device: maximal freedom.
        let mut allow = Vec::new();
        for d in net.topology().devices() {
            for &i in net.topology().device_ifaces(d) {
                allow.push(Slot::ingress(i));
                allow.push(Slot::egress(i));
            }
        }
        let task = Task {
            scope: scope.clone(),
            allow,
            before: before.clone(),
            after,
            modified: Vec::new(),
            controls: Vec::new(),
            command: Command::Fix,
        };
        let mut feasibility = Vec::new();
        for strategy in [FixStrategy::IterativeCegis, FixStrategy::ExactBatch] {
            let cfg = FixConfig {
                strategy,
                ..FixConfig::default()
            };
            match fix(&net, &task, &CheckConfig::default(), &cfg) {
                Ok(plan) => {
                    let verdict = check_exact(&net, &scope, &before, &plan.fixed, &[]);
                    assert!(verdict.is_consistent(), "{strategy:?}");
                    feasibility.push(true);
                }
                Err(FixError::Unfixable { .. }) => feasibility.push(false),
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(
            feasibility[0], feasibility[1],
            "strategies disagree on feasibility"
        );
    });
}
