//! Network-level analysis (JL2xx) over a *built* network and its ACL
//! configuration: rule-level lint of every configured slot, plus the
//! silent-allow surface — traffic that crosses the whole scope without
//! traversing a single ACL.
//!
//! (The dangling-reference checks over raw JSON specs live in
//! [`crate::spec`], because a dangling reference by definition prevents
//! the network from being built at all.)

use crate::diag::{record, Diagnostic, LintReport, Severity};
use crate::rules::lint_acl;
use crate::LintConfig;
use jinjing_net::{AclConfig, Network, Scope};
use std::collections::BTreeSet;

/// Lint a built network + configuration.
///
/// Emits:
/// - All **JL0xx** rule-level findings for every configured slot (located
///   at `{device}:{iface}-{dir}:rule:{i}`).
/// - **JL203** (warning) — a path some entering traffic can take from an
///   ingress border interface to an egress border interface that traverses
///   *no configured ACL slot at all*: every packet the matrix admits there
///   is silently allowed. One finding per (ingress, egress) pair. The path
///   enumeration unions over the (possibly coarse) entering class, so this
///   is a sound over-approximation of the silent-allow surface.
pub fn lint_config(net: &Network, config: &AclConfig, cfg: &LintConfig) -> LintReport {
    let span = cfg.obs.span("lint.config");
    let mut report = LintReport::new();
    let topo = net.topology();

    // Rule-level lint of every configured slot, in deterministic slot
    // order. Under a shard spec each slot is linted by exactly the shard
    // that owns its name, so the per-shard reports partition this pass.
    for slot in config.slots() {
        if let Some(acl) = config.get(slot) {
            let name = format!("{}-{}", topo.iface_name(slot.iface), slot.dir);
            if cfg.shard.as_ref().map_or(true, |s| s.owns_str(&name)) {
                report.merge(lint_acl(&name, acl, cfg));
            }
        }
    }

    // JL203: silent-allow paths across the whole-network scope. A
    // network-wide pass: under a shard spec only the primary emits it,
    // so the merged report carries each finding exactly once.
    if cfg.shard.as_ref().is_some_and(|s| !s.is_primary()) {
        span.finish();
        return report;
    }
    let scope = Scope::whole(topo);
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    for (iface, traffic) in net.entering_traffic(&scope) {
        for path in net.paths_for_class(&scope, iface, &traffic) {
            if !config.configured_slots_on(&path).is_empty() {
                continue;
            }
            let ingress = topo.iface_name(path.ingress());
            let egress = topo.iface_name(path.egress());
            if !seen.insert((ingress.clone(), egress.clone())) {
                continue;
            }
            let d = Diagnostic::new(
                "JL203",
                Severity::Warning,
                format!("path:{ingress}->{egress}"),
                format!(
                    "traffic entering at {ingress} reaches {egress} along {} without traversing any ACL",
                    path.display(topo)
                ),
            )
            .with_suggestion(
                "attach an ACL to a slot on this path if the traffic must be controlled",
            );
            record(&cfg.obs, &d);
            report.push(d);
        }
    }

    span.finish();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use jinjing_acl::{Acl, AclBuilder};
    use jinjing_net::{Dir, Slot, TopologyBuilder};

    /// A -0in-> A -1-> B -0-> B:1 out, with 1.0.0.0/8 announced behind B:1.
    fn chain() -> (Network, Slot, Slot) {
        let mut tb = TopologyBuilder::new();
        let a = tb.device("A");
        let a0 = tb.iface(a, "0");
        let a1 = tb.iface(a, "1");
        let b = tb.device("B");
        let b0 = tb.iface(b, "0");
        let b1 = tb.iface(b, "1");
        tb.link(a1, b0);
        let mut net = Network::new(tb.build());
        net.announce(jinjing_acl::parse::parse_prefix("1.0.0.0/8").unwrap(), b1);
        net.compute_routes();
        (
            net,
            Slot {
                iface: a0,
                dir: Dir::In,
            },
            Slot {
                iface: b1,
                dir: Dir::Out,
            },
        )
    }

    #[test]
    fn unguarded_path_is_jl203() {
        let (net, _, _) = chain();
        let config = AclConfig::new();
        let mut r = lint_config(&net, &config, &LintConfig::default());
        r.sort();
        let d = r.diagnostics().iter().find(|d| d.code == "JL203").unwrap();
        assert_eq!(d.location, "path:A:0->B:1");
        assert!(d.message.contains("without traversing any ACL"));
    }

    #[test]
    fn any_acl_on_the_path_silences_jl203() {
        let (net, ingress, _) = chain();
        let mut config = AclConfig::new();
        config.set(
            ingress,
            AclBuilder::default_permit().deny_dst("9.9.0.0/16").build(),
        );
        let r = lint_config(&net, &config, &LintConfig::default());
        assert!(!r.has_code("JL203"), "{:?}", r.diagnostics());
    }

    #[test]
    fn configured_slots_are_rule_linted_with_slot_locations() {
        let (net, ingress, _) = chain();
        let mut config = AclConfig::new();
        config.set(
            ingress,
            AclBuilder::default_permit()
                .deny_dst("1.0.0.0/8")
                .deny_dst("1.2.0.0/16")
                .build(),
        );
        let mut r = lint_config(&net, &config, &LintConfig::default());
        r.sort();
        let d = r.diagnostics().iter().find(|d| d.code == "JL001").unwrap();
        assert_eq!(d.location, "A:0-in:rule:1");
    }

    #[test]
    fn permit_all_slot_counts_as_an_acl() {
        // An explicitly configured (even if vacuous) ACL still means the
        // path is not *silently* allowed — the operator wrote something.
        let (net, ingress, _) = chain();
        let mut config = AclConfig::new();
        config.set(ingress, Acl::permit_all());
        let r = lint_config(&net, &config, &LintConfig::default());
        assert!(!r.has_code("JL203"));
    }
}
