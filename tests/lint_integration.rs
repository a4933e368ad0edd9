//! Cross-crate integration tests for jinjing-lint: at least one fixture per
//! diagnostic code, byte-stable JSON, solver-confirmed vs heuristic shadow
//! findings, and the engine/CLI packaging.

use jinjing_acl::AclBuilder;
use jinjing_core::engine::ReportKind;
use jinjing_lint::{lint_acl, lint_config, lint_program, Certainty, LintConfig, Severity};
use jinjing_net::{AclConfig, Dir, Network, Slot, TopologyBuilder};

/// A -0in-> A -1-> B -0-> B:1 out, with 1.0.0.0/8 announced behind B:1.
fn chain() -> (Network, Slot) {
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
    )
}

fn program(src: &str) -> jinjing_lai::Program {
    jinjing_lai::validate(jinjing_lai::parse_program(src).unwrap()).unwrap()
}

// ---------------------------------------------------------------- rule layer

#[test]
fn jl001_full_shadow_is_solver_confirmed_by_default() {
    let acl = AclBuilder::default_permit()
        .deny_dst("1.0.0.0/8")
        .deny_dst("1.2.0.0/16")
        .build();
    let r = lint_acl("t", &acl, &LintConfig::default());
    let d = r.diagnostics().iter().find(|d| d.code == "JL001").unwrap();
    assert_eq!(d.location, "t:rule:1");
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.certainty, Some(Certainty::SolverConfirmed));
}

#[test]
fn jl001_is_heuristic_when_solver_confirm_is_off() {
    let acl = AclBuilder::default_permit()
        .deny_dst("1.0.0.0/8")
        .deny_dst("1.2.0.0/16")
        .build();
    let cfg = LintConfig {
        solver_confirm: false,
        ..LintConfig::default()
    };
    let r = lint_acl("t", &acl, &cfg);
    let d = r.diagnostics().iter().find(|d| d.code == "JL001").unwrap();
    assert_eq!(d.certainty, Some(Certainty::Heuristic));
}

#[test]
fn jl002_partial_shadow() {
    let acl = AclBuilder::default_permit()
        .deny_dst("1.0.0.0/8")
        .deny_dst("1.0.0.0/7") // half pre-empted by the /8 above
        .build();
    let r = lint_acl("t", &acl, &LintConfig::default());
    let d = r.diagnostics().iter().find(|d| d.code == "JL002").unwrap();
    assert_eq!(d.location, "t:rule:1");
    assert_eq!(d.severity, Severity::Note);
}

#[test]
fn jl003_redundant_rule() {
    let acl = AclBuilder::default_permit().permit_dst("9.0.0.0/8").build();
    let r = lint_acl("t", &acl, &LintConfig::default());
    let d = r.diagnostics().iter().find(|d| d.code == "JL003").unwrap();
    assert_eq!(d.location, "t:rule:0");
}

#[test]
fn jl004_conflict_between_opposite_actions() {
    // src-constrained permit vs dst-constrained deny: a genuine partial
    // overlap (src 10/8 ∧ dst 1/8), opposite actions, neither shadowed.
    let acl = AclBuilder::default_deny()
        .deny_dst("1.0.0.0/8")
        .permit_src("10.0.0.0/8")
        .build();
    let r = lint_acl("t", &acl, &LintConfig::default());
    assert!(r.has_code("JL004"), "{}", r.render_text());
}

// -------------------------------------------------------------- intent layer

#[test]
fn jl101_contradictory_controls() {
    let p = program(
        "acl X { deny dst 9.0.0.0/8 }\nscope A:*, B:*\nallow A:*\nmodify A:1 to X\n\
         control A:* -> B:* isolate dst 1.0.0.0/8\n\
         control A:1 -> B:* open dst 1.2.0.0/16\ncheck\n",
    );
    let r = lint_program(&p, &LintConfig::default());
    let d = r.diagnostics().iter().find(|d| d.code == "JL101").unwrap();
    assert_eq!(d.severity, Severity::Warning);
}

#[test]
fn jl102_vacuous_clause() {
    let p = program(
        "acl X { deny dst 9.0.0.0/8 }\nscope A:*, B:*\nallow A:*\nmodify A:1 to X\n\
         control A:* -> B:* isolate dst 1.0.0.0/9\n\
         control A:* -> B:* isolate dst 1.128.0.0/9\n\
         control A:1 -> B:* isolate dst 1.0.0.0/8\ncheck\n",
    );
    let r = lint_program(&p, &LintConfig::default());
    assert!(r.has_code("JL102"), "{}", r.render_text());
}

#[test]
fn jl103_subsumed_clause() {
    let p = program(
        "acl X { deny dst 9.0.0.0/8 }\nscope A:*, B:*\nallow A:*\nmodify A:1 to X\n\
         control A:* -> B:* isolate dst 1.0.0.0/8\n\
         control A:1 -> B:2 isolate dst 1.2.0.0/16\ncheck\n",
    );
    let r = lint_program(&p, &LintConfig::default());
    assert!(r.has_code("JL103"), "{}", r.render_text());
}

#[test]
fn jl104_unused_acl_definition() {
    let p = program(
        "acl X { deny dst 9.0.0.0/8 }\nacl Unused { permit all }\n\
         scope A:*\nallow A:*\nmodify A:1 to X\ncheck\n",
    );
    let r = lint_program(&p, &LintConfig::default());
    let d = r.diagnostics().iter().find(|d| d.code == "JL104").unwrap();
    assert_eq!(d.location, "lai:acl:Unused");
}

// ------------------------------------------------------------- network layer

#[test]
fn jl203_silent_allow_path() {
    let (net, _) = chain();
    let r = lint_config(&net, &AclConfig::new(), &LintConfig::default());
    let d = r.diagnostics().iter().find(|d| d.code == "JL203").unwrap();
    assert_eq!(d.location, "path:A:0->B:1");
    assert_eq!(d.severity, Severity::Warning);
}

#[test]
fn configured_slot_is_rule_linted_under_its_slot_name() {
    let (net, ingress) = chain();
    let mut config = AclConfig::new();
    config.set(
        ingress,
        AclBuilder::default_permit()
            .deny_dst("1.0.0.0/8")
            .deny_dst("1.2.0.0/16")
            .build(),
    );
    let r = lint_config(&net, &config, &LintConfig::default());
    let d = r.diagnostics().iter().find(|d| d.code == "JL001").unwrap();
    assert_eq!(d.location, "A:0-in:rule:1");
}

// ---------------------------------------------------------------- spec layer

mod spec_layer {
    use super::*;
    use jinjing_lint::lint_specs;
    use jinjing_net::spec::{AclConfigSpec, NetworkSpec};

    const NET_JSON: &str = r#"{
        "devices": [
            {"name": "A", "interfaces": ["0", "1"]},
            {"name": "B", "interfaces": ["0", "1"]}
        ],
        "links": [["A:1", "B:0"]],
        "announcements": [{"prefix": "1.0.0.0/8", "interface": "B:1"}],
        "entering": [{"interface": "A:0", "dst_prefixes": ["1.0.0.0/8"]}]
    }"#;

    #[test]
    fn jl201_dangling_reference() {
        let net = NetworkSpec::from_json(NET_JSON).unwrap();
        let acls = AclConfigSpec::from_json(
            r#"{"slots": [{"interface": "Z:9", "acl": ["default permit"]}]}"#,
        )
        .unwrap();
        let r = lint_specs(&net, &acls, &LintConfig::default());
        let d = r.diagnostics().iter().find(|d| d.code == "JL201").unwrap();
        assert_eq!(d.severity, Severity::Error);
        assert!(r.has_errors());
    }

    #[test]
    fn jl202_invalid_binding() {
        let net = NetworkSpec::from_json(NET_JSON).unwrap();
        let acls = AclConfigSpec::from_json(
            r#"{"slots": [
                {"interface": "A:0", "direction": "sideways", "acl": ["default permit"]}
            ]}"#,
        )
        .unwrap();
        let r = lint_specs(&net, &acls, &LintConfig::default());
        assert!(r.has_code("JL202"), "{}", r.render_text());
    }
}

// ----------------------------------------------------- engine + determinism

#[test]
fn engine_lint_merges_all_layers_deterministically() {
    let (net, ingress) = chain();
    let mut config = AclConfig::new();
    config.set(
        ingress,
        AclBuilder::default_permit()
            .deny_dst("1.0.0.0/8")
            .deny_dst("1.2.0.0/16")
            .build(),
    );
    let p = program(
        "acl X { deny dst 9.0.0.0/8 }\nacl Unused { permit all }\n\
         scope A:*\nallow A:*\nmodify A:1 to X\ncheck\n",
    );
    let run = || {
        let cfg = LintConfig::default();
        jinjing_core::engine::lint(&net, &config, Some(&p), &cfg)
    };
    let a = run();
    let b = run();
    let ReportKind::Lint(ra) = &a.kind else {
        panic!("expected lint report")
    };
    let ReportKind::Lint(rb) = &b.kind else {
        panic!("expected lint report")
    };
    // Byte-stable machine output across runs.
    assert_eq!(ra.to_json(), rb.to_json());
    assert!(ra.has_code("JL001"));
    assert!(ra.has_code("JL104"));
    // Observability: the lint counters reconcile with the report.
    assert_eq!(
        a.obs.counter("lint.diagnostics"),
        ra.len() as u64,
        "every diagnostic is counted"
    );
}

#[test]
fn diagnostics_json_shape_is_stable() {
    let acl = AclBuilder::default_permit()
        .deny_dst("1.0.0.0/8")
        .deny_dst("1.2.0.0/16")
        .build();
    let mut r = lint_acl("t", &acl, &LintConfig::default());
    r.sort();
    let json = r.to_json();
    // Keys are emitted in a fixed (alphabetical) order with a summary.
    assert!(json.starts_with("{\"diagnostics\":["), "{json}");
    assert!(json.contains("\"summary\":{"), "{json}");
    assert!(
        json.contains("\"certainty\":\"solver-confirmed\""),
        "{json}"
    );
    // And it parses as strict JSON.
    let v = jinjing_obs::json::parse(&json).expect("strict JSON");
    assert_eq!(v.get("diagnostics").unwrap().elements().len(), r.len());
    let total = v.get("summary").unwrap().get("total").unwrap();
    assert_eq!(total.as_u64().unwrap(), r.len() as u64);
}
