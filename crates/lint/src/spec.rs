//! Spec-level analysis (JL201/JL202) over *raw* JSON specifications, before
//! any network is built.
//!
//! [`jinjing_net::spec::NetworkSpec::build`] fails fast on the first
//! problem; the linter instead walks the whole spec and collects **every**
//! dangling reference and invalid binding, so an operator fixes the file in
//! one round trip instead of one error per attempt.

use crate::diag::{record, Diagnostic, LintReport, Severity};
use crate::LintConfig;
use jinjing_acl::parse::{parse_acl, parse_prefix};
use jinjing_net::spec::{AclConfigSpec, NetworkSpec};
use std::collections::{BTreeMap, BTreeSet};

fn dangling(loc: String, message: String) -> Diagnostic {
    Diagnostic::new("JL201", Severity::Error, loc, message)
        .with_suggestion("fix the reference or declare the missing device/interface")
}

fn invalid(loc: String, message: String) -> Diagnostic {
    Diagnostic::new("JL202", Severity::Error, loc, message)
}

/// Lint a network spec and ACL spec pair without building them.
///
/// Emits:
/// - **JL201** (error) — dangling references: links, announcements, routes,
///   traffic-matrix entries, or ACL slots naming a device or interface the
///   spec never declares (or malformed `device:iface` references).
/// - **JL202** (error) — invalid bindings and values: duplicate
///   device/interface names, an interface in more than one link, an
///   announcement on an internal (linked) interface, a route whose output
///   interface belongs to another device, bad directions, duplicate ACL
///   slots, and unparsable prefixes or ACL text.
///
/// Every problem in the pair is reported; `build()` would stop at the
/// first.
pub fn lint_specs(net: &NetworkSpec, acls: &AclConfigSpec, cfg: &LintConfig) -> LintReport {
    let span = cfg.obs.span("lint.spec");
    let mut report = LintReport::new();
    let push = |report: &mut LintReport, d: Diagnostic| {
        record(&cfg.obs, &d);
        report.push(d);
    };

    // Symbol tables (+ duplicate detection).
    let mut devices: BTreeSet<&str> = BTreeSet::new();
    let mut ifaces: BTreeMap<String, &str> = BTreeMap::new(); // "dev:iface" -> dev
    for (k, d) in net.devices.iter().enumerate() {
        if !devices.insert(&d.name) {
            push(
                &mut report,
                invalid(
                    format!("spec:devices[{k}]"),
                    format!("duplicate device name {:?}", d.name),
                ),
            );
        }
        for i in &d.interfaces {
            let full = format!("{}:{}", d.name, i);
            if ifaces.insert(full.clone(), &d.name).is_some() {
                push(
                    &mut report,
                    invalid(
                        format!("spec:devices[{k}]"),
                        format!("duplicate interface {full:?}"),
                    ),
                );
            }
        }
    }

    // Links: both ends must exist; an interface joins at most one link.
    let mut linked: BTreeSet<&str> = BTreeSet::new();
    for (k, (a, b)) in net.links.iter().enumerate() {
        for end in [a, b] {
            if !ifaces.contains_key(end) {
                push(
                    &mut report,
                    dangling(
                        format!("spec:links[{k}]"),
                        format!("link references unknown interface {end:?}"),
                    ),
                );
            } else if !linked.insert(end) {
                push(
                    &mut report,
                    invalid(
                        format!("spec:links[{k}]"),
                        format!("interface {end:?} appears in more than one link"),
                    ),
                );
            }
        }
    }

    // Announcements: known, *external* (unlinked) interface, parsable
    // prefix.
    for (k, a) in net.announcements.iter().enumerate() {
        let loc = || format!("spec:announcements[{k}]");
        if !ifaces.contains_key(&a.interface) {
            push(
                &mut report,
                dangling(
                    loc(),
                    format!(
                        "announcement references unknown interface {:?}",
                        a.interface
                    ),
                ),
            );
        } else if linked.contains(a.interface.as_str()) {
            push(
                &mut report,
                invalid(
                    loc(),
                    format!(
                        "announcement binds to internal (linked) interface {:?}; announcements belong on border interfaces",
                        a.interface
                    ),
                ),
            );
        }
        if let Err(e) = parse_prefix(&a.prefix) {
            push(
                &mut report,
                invalid(loc(), format!("unparsable prefix {:?}: {e}", a.prefix)),
            );
        }
    }

    // Static routes: known device, known output interface owned by that
    // device, parsable prefix.
    for (k, r) in net.routes.iter().enumerate() {
        let loc = || format!("spec:routes[{k}]");
        if !devices.contains(r.device.as_str()) {
            push(
                &mut report,
                dangling(
                    loc(),
                    format!("route references unknown device {:?}", r.device),
                ),
            );
        }
        match ifaces.get(&r.out) {
            None => push(
                &mut report,
                dangling(
                    loc(),
                    format!("route references unknown output interface {:?}", r.out),
                ),
            ),
            Some(owner) if devices.contains(r.device.as_str()) && *owner != r.device => push(
                &mut report,
                invalid(
                    loc(),
                    format!(
                        "route output {:?} belongs to device {owner:?}, not {:?}",
                        r.out, r.device
                    ),
                ),
            ),
            Some(_) => {}
        }
        if let Err(e) = parse_prefix(&r.prefix) {
            push(
                &mut report,
                invalid(loc(), format!("unparsable prefix {:?}: {e}", r.prefix)),
            );
        }
    }

    // Traffic matrix: known interface, parsable prefixes.
    for (k, e) in net.entering.iter().enumerate() {
        let loc = || format!("spec:entering[{k}]");
        if !ifaces.contains_key(&e.interface) {
            push(
                &mut report,
                dangling(
                    loc(),
                    format!(
                        "traffic-matrix entry references unknown interface {:?}",
                        e.interface
                    ),
                ),
            );
        }
        for p in &e.dst_prefixes {
            if let Err(err) = parse_prefix(p) {
                push(
                    &mut report,
                    invalid(loc(), format!("unparsable prefix {p:?}: {err}")),
                );
            }
        }
    }

    // ACL slots: known interface, valid direction, parsable ACL text, no
    // duplicate (interface, direction) bindings.
    let mut bound: BTreeSet<(String, String)> = BTreeSet::new();
    for (k, s) in acls.slots.iter().enumerate() {
        let loc = || format!("acls:slots[{k}]");
        if !ifaces.contains_key(&s.interface) {
            push(
                &mut report,
                dangling(
                    loc(),
                    format!("ACL slot references unknown interface {:?}", s.interface),
                ),
            );
        }
        if s.direction != "in" && s.direction != "out" {
            push(
                &mut report,
                invalid(
                    loc(),
                    format!("direction must be \"in\" or \"out\", got {:?}", s.direction),
                ),
            );
        }
        if !bound.insert((s.interface.clone(), s.direction.clone())) {
            push(
                &mut report,
                invalid(
                    loc(),
                    format!(
                        "duplicate ACL binding for {}-{} (an earlier slot already configured it)",
                        s.interface, s.direction
                    ),
                ),
            );
        }
        if let Err(e) = parse_acl(&s.acl.join("\n")) {
            push(
                &mut report,
                invalid(loc(), format!("unparsable ACL at {}: {e}", s.interface)),
            );
        }
    }

    span.finish();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use jinjing_net::spec::{AclSlotSpec, AnnouncementSpec, DeviceSpec, EnteringSpec, RouteSpec};

    fn base() -> NetworkSpec {
        NetworkSpec {
            devices: vec![
                DeviceSpec {
                    name: "A".into(),
                    interfaces: vec!["0".into(), "1".into()],
                },
                DeviceSpec {
                    name: "B".into(),
                    interfaces: vec!["0".into(), "1".into()],
                },
            ],
            links: vec![("A:1".into(), "B:0".into())],
            announcements: vec![AnnouncementSpec {
                prefix: "1.0.0.0/8".into(),
                interface: "B:1".into(),
            }],
            routes: Vec::new(),
            entering: vec![EnteringSpec {
                interface: "A:0".into(),
                dst_prefixes: vec!["1.0.0.0/8".into()],
            }],
        }
    }

    fn acl_slot(interface: &str, dir: &str) -> AclSlotSpec {
        AclSlotSpec {
            interface: interface.into(),
            direction: dir.into(),
            acl: vec!["deny dst 1.2.0.0/16".into(), "default permit".into()],
        }
    }

    fn lint(net: &NetworkSpec, acls: &AclConfigSpec) -> LintReport {
        let mut r = lint_specs(net, acls, &LintConfig::default());
        r.sort();
        r
    }

    #[test]
    fn clean_specs_are_clean() {
        let acls = AclConfigSpec {
            slots: vec![acl_slot("A:0", "in")],
        };
        let r = lint(&base(), &acls);
        assert!(r.is_empty(), "{:?}", r.diagnostics());
    }

    #[test]
    fn all_dangling_references_are_collected_at_once() {
        let mut net = base();
        net.links.push(("A:9".into(), "B:9".into()));
        net.announcements.push(AnnouncementSpec {
            prefix: "2.0.0.0/8".into(),
            interface: "C:0".into(),
        });
        net.entering.push(EnteringSpec {
            interface: "Z:0".into(),
            dst_prefixes: vec!["3.0.0.0/8".into()],
        });
        let acls = AclConfigSpec {
            slots: vec![acl_slot("A:7", "in")],
        };
        let r = lint(&net, &acls);
        // build() would stop at the first; the linter reports all five.
        assert_eq!(
            r.diagnostics().iter().filter(|d| d.code == "JL201").count(),
            5
        );
        assert!(r.has_errors());
    }

    #[test]
    fn invalid_bindings_are_jl202() {
        let mut net = base();
        net.routes.push(RouteSpec {
            device: "A".into(),
            prefix: "9.0.0.0/8".into(),
            out: "B:1".into(), // wrong device
        });
        net.announcements.push(AnnouncementSpec {
            prefix: "4.0.0.0/8".into(),
            interface: "A:1".into(), // internal (linked)
        });
        let acls = AclConfigSpec {
            slots: vec![
                acl_slot("A:0", "in"),
                acl_slot("A:0", "in"), // duplicate binding
                acl_slot("B:0", "sideways"),
            ],
        };
        let r = lint(&net, &acls);
        let jl202: Vec<&str> = r
            .diagnostics()
            .iter()
            .filter(|d| d.code == "JL202")
            .map(|d| d.location.as_str())
            .collect();
        assert_eq!(
            jl202,
            vec![
                "acls:slots[1]",
                "acls:slots[2]",
                "spec:announcements[1]",
                "spec:routes[0]"
            ]
        );
    }

    #[test]
    fn unparsable_text_is_reported_per_site() {
        let mut net = base();
        net.announcements[0].prefix = "not-a-prefix".into();
        let acls = AclConfigSpec {
            slots: vec![AclSlotSpec {
                interface: "A:0".into(),
                direction: "in".into(),
                acl: vec!["frobnicate everything".into()],
            }],
        };
        let r = lint(&net, &acls);
        assert_eq!(
            r.diagnostics().iter().filter(|d| d.code == "JL202").count(),
            2
        );
    }

    #[test]
    fn duplicate_names_are_jl202() {
        let mut net = base();
        net.devices.push(DeviceSpec {
            name: "A".into(),
            interfaces: vec!["0".into()],
        });
        let r = lint(&net, &AclConfigSpec { slots: Vec::new() });
        // Duplicate device A and (via it) duplicate interface A:0.
        assert_eq!(
            r.diagnostics().iter().filter(|d| d.code == "JL202").count(),
            2
        );
    }
}
