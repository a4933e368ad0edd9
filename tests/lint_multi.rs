//! Integration tests for the cross-tenant lint layer (`JL301`–`JL304`):
//! fixtures per diagnostic code, witness-packet properties for certified
//! conflicts, byte-determinism of the JSON and SARIF renderings across
//! thread counts and tenant input orders, a seeded random-program sweep,
//! and the committed two-tenant examples under `examples/data/`.

use jinjing_core::engine::{lint_multi as engine_lint_multi, ReportKind};
use jinjing_core::figure1::Figure1;
use jinjing_lai::{ControlVerb, HeaderSel, Program};
use jinjing_lint::{
    cross_conflicts, lint_multi, to_sarif, Certainty, LintConfig, Severity, TenantIntent,
};
use std::path::PathBuf;

fn program(src: &str) -> Program {
    jinjing_lai::validate(jinjing_lai::parse_program(src).expect("parse")).expect("validate")
}

/// Tenant quarantining 1.0.0.0/8 between the A and D edges.
const ISOLATE: &str = "scope A:*, B:*, D:*\ncontrol A:* -> D:* isolate dst 1.0.0.0/8\ncheck\n";

/// Tenant opening a slice of the same space on an overlapping endpoint
/// pair — contests `ISOLATE` (JL301).
const OPEN: &str = "scope A:*, D:*\ncontrol A:1 -> D:* open dst 1.2.0.0/16\ncheck\n";

/// Tenant on disjoint traffic: clean against both of the above.
const DISJOINT: &str = "scope B:*, C:*\ncontrol B:* -> C:* isolate dst 2.0.0.0/8\ncheck\n";

fn tenants(pairs: &[(&str, &str)]) -> Vec<TenantIntent> {
    pairs
        .iter()
        .map(|(name, src)| TenantIntent::new(*name, program(src)))
        .collect()
}

fn cfg_with_threads(threads: usize) -> LintConfig {
    LintConfig {
        threads,
        ..LintConfig::default()
    }
}

/// Does the witness packet match a control statement's traffic selector?
fn header_matches(sel: &HeaderSel, w: &jinjing_acl::Packet) -> bool {
    match sel {
        HeaderSel::Src(p) => p.contains(w.sip),
        HeaderSel::Dst(p) => p.contains(w.dip),
        HeaderSel::All => true,
    }
}

// ---------------------------------------------------------------- fixtures

#[test]
fn jl301_conflict_is_certified_with_witness_and_both_spans() {
    let ts = tenants(&[("alpha", ISOLATE), ("beta", OPEN)]);
    let conflicts = cross_conflicts(&ts, &LintConfig::default());
    assert_eq!(conflicts.len(), 1);
    let c = &conflicts[0];
    assert!(c.certified, "solver confirmation is on by default");
    assert!(c.region.contains(&c.witness));
    assert_eq!(
        (c.verb_a, c.verb_b),
        (ControlVerb::Isolate, ControlVerb::Open)
    );

    let report = lint_multi(&ts, &[], &LintConfig::default());
    assert!(report.has_code("JL301"));
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == "JL301")
        .expect("JL301 present");
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.tenant.as_deref(), Some("alpha,beta"));
    assert!(d.location.contains("alpha:control:0"));
    assert!(d.location.contains("beta:control:0"));
    assert_eq!(d.certainty, Some(Certainty::SolverConfirmed));
    assert!(d.message.contains("witness"), "message: {}", d.message);
}

#[test]
fn jl302_cross_tenant_subsumption_is_a_note() {
    let wide = "scope A:*, D:*\ncontrol A:* -> D:* isolate dst 1.0.0.0/8\ncheck\n";
    let narrow = "scope A:*, D:*\ncontrol A:1 -> D:* isolate dst 1.2.0.0/16\ncheck\n";
    let ts = tenants(&[("big", wide), ("small", narrow)]);
    let report = lint_multi(&ts, &[], &LintConfig::default());
    assert!(report.has_code("JL302"));
    assert!(!report.has_code("JL301"), "same verb is not a conflict");
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == "JL302")
        .expect("JL302 present");
    assert_eq!(d.severity, Severity::Note);
    assert_eq!(d.tenant.as_deref(), Some("small"));
}

#[test]
fn jl303_priority_preview_resolves_the_merge() {
    let ts = tenants(&[("alpha", ISOLATE), ("beta", OPEN)]);
    let prio = vec!["alpha".to_string(), "beta".to_string()];
    let report = lint_multi(&ts, &prio, &LintConfig::default());
    assert!(report.has_code("JL303"));
    assert!(!report.has_code("JL304"));
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == "JL303")
        .expect("JL303 present");
    assert!(
        d.message.contains("`alpha`"),
        "the higher-priority tenant wins: {}",
        d.message
    );
    // The summary line declares totality.
    let summary = report
        .diagnostics()
        .iter()
        .find(|d| d.location == "multi:priority")
        .expect("merge summary present");
    assert!(summary.message.contains("the merge is total"));
    assert_eq!(summary.severity, Severity::Note);
}

#[test]
fn jl304_unresolved_contest_without_priority() {
    let ts = tenants(&[("alpha", ISOLATE), ("beta", OPEN)]);
    let report = lint_multi(&ts, &[], &LintConfig::default());
    assert!(report.has_code("JL304"));
    // The only JL303 line is the merge summary — no per-conflict preview.
    assert!(report
        .diagnostics()
        .iter()
        .filter(|d| d.code == "JL303")
        .all(|d| d.location == "multi:priority"));
    let summary = report
        .diagnostics()
        .iter()
        .find(|d| d.location == "multi:priority")
        .expect("merge summary present");
    assert!(summary.message.contains("not total"));
    assert_eq!(summary.severity, Severity::Warning);
}

#[test]
fn disjoint_pair_is_clean_of_cross_tenant_findings() {
    let ts = tenants(&[("alpha", ISOLATE), ("gamma", DISJOINT)]);
    let report = lint_multi(&ts, &[], &LintConfig::default());
    for code in ["JL301", "JL302", "JL303", "JL304"] {
        assert!(!report.has_code(code), "unexpected {code}");
    }
}

// ------------------------------------------------------ witness properties

#[test]
fn jl301_witness_is_classified_differently_by_both_intents() {
    let ts = tenants(&[("alpha", ISOLATE), ("beta", OPEN)]);
    for cfg in [
        LintConfig::default(),
        LintConfig {
            solver_confirm: false,
            ..LintConfig::default()
        },
    ] {
        let conflicts = cross_conflicts(&ts, &cfg);
        assert_eq!(conflicts.len(), 1);
        let c = &conflicts[0];
        assert_eq!(c.certified, cfg.solver_confirm);
        // The witness sits in the contested region and matches both
        // statements' traffic selectors, on which the verbs disagree.
        assert!(c.region.contains(&c.witness));
        let sa = &ts[0].program.controls[c.stmt_a];
        let sb = &ts[1].program.controls[c.stmt_b];
        assert!(header_matches(&sa.header, &c.witness));
        assert!(header_matches(&sb.header, &c.witness));
        assert_ne!(sa.verb, sb.verb);
    }
}

// ------------------------------------------------------------- determinism

#[test]
fn json_and_sarif_are_byte_identical_across_threads_and_orders() {
    let forward = tenants(&[("alpha", ISOLATE), ("beta", OPEN), ("gamma", DISJOINT)]);
    let backward = tenants(&[("gamma", DISJOINT), ("beta", OPEN), ("alpha", ISOLATE)]);
    let prio = vec!["beta".to_string(), "alpha".to_string()];

    let base = lint_multi(&forward, &prio, &cfg_with_threads(1));
    let (base_json, base_sarif) = (base.to_json(), to_sarif(&base));
    assert!(base.has_code("JL301"));

    for ts in [&forward, &backward] {
        for threads in [1usize, 4] {
            let report = lint_multi(ts, &prio, &cfg_with_threads(threads));
            assert_eq!(report.to_json(), base_json, "threads={threads}");
            assert_eq!(to_sarif(&report), base_sarif, "threads={threads}");
        }
    }
}

// --------------------------------------------------------- property sweep

/// Minimal xorshift64* generator so the sweep needs no external crates.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[(self.next() % items.len() as u64) as usize]
    }
}

fn random_tenant(rng: &mut XorShift, controls: usize) -> Program {
    let endpoints = ["A:*", "A:1", "B:*", "D:*", "D:2"];
    let verbs = ["isolate", "open"];
    let headers = [
        "dst 1.0.0.0/8",
        "dst 1.2.0.0/16",
        "dst 2.0.0.0/8",
        "src 10.0.0.0/8",
        "all",
    ];
    let mut src = String::from("scope A:*, B:*, D:*\n");
    for _ in 0..controls {
        src.push_str(&format!(
            "control {} -> {} {} {}\n",
            rng.pick(&endpoints),
            rng.pick(&endpoints),
            rng.pick(&verbs),
            rng.pick(&headers)
        ));
    }
    src.push_str("check\n");
    program(&src)
}

#[test]
fn random_programs_always_yield_witnessed_deterministic_conflicts() {
    for seed in 1..=12u64 {
        let mut rng = XorShift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let ts: Vec<TenantIntent> = (0..3)
            .map(|k| TenantIntent::new(format!("t{k}"), random_tenant(&mut rng, 3)))
            .collect();
        let conflicts = cross_conflicts(&ts, &LintConfig::default());
        for c in &conflicts {
            assert!(c.certified, "seed {seed}: conflict not solver-certified");
            assert!(c.region.contains(&c.witness), "seed {seed}");
            let ta = ts.iter().find(|t| t.tenant == c.tenant_a).unwrap();
            let tb = ts.iter().find(|t| t.tenant == c.tenant_b).unwrap();
            let sa = &ta.program.controls[c.stmt_a];
            let sb = &tb.program.controls[c.stmt_b];
            assert!(header_matches(&sa.header, &c.witness), "seed {seed}");
            assert!(header_matches(&sb.header, &c.witness), "seed {seed}");
            assert_ne!(sa.verb, sb.verb, "seed {seed}");
        }
        // Thread count never changes the rendered bytes.
        let one = lint_multi(&ts, &[], &cfg_with_threads(1)).to_json();
        let four = lint_multi(&ts, &[], &cfg_with_threads(4)).to_json();
        assert_eq!(one, four, "seed {seed}");
    }
}

// ------------------------------------------------------- committed examples

/// Locate `examples/data/` from the repo root or the `crates/tests`
/// package dir (where cargo runs this suite).
fn examples_dir() -> PathBuf {
    for cand in ["examples/data", "../../examples/data"] {
        let p = PathBuf::from(cand);
        if p.is_dir() {
            return p;
        }
    }
    panic!("examples/data not found from {:?}", std::env::current_dir());
}

fn example_tenant(name: &str) -> TenantIntent {
    let path = examples_dir().join(format!("tenant-{name}.lai"));
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    TenantIntent::new(name, program(&text))
}

#[test]
fn committed_example_pair_conflicts_through_the_engine() {
    let fig = Figure1::new();
    let ts = vec![example_tenant("alpha"), example_tenant("beta")];
    let prio = vec!["alpha".to_string(), "beta".to_string()];
    let out = engine_lint_multi(&fig.net, &fig.config, &ts, &prio, &LintConfig::default());
    let ReportKind::Lint(report) = out.kind else {
        panic!("expected a lint report")
    };
    assert!(report.has_code("JL301"));
    assert!(report.has_code("JL303"));
    assert!(!report.has_code("JL304"));
}

#[test]
fn committed_clean_pair_stays_clean() {
    let fig = Figure1::new();
    let ts = vec![example_tenant("alpha"), example_tenant("gamma")];
    let out = engine_lint_multi(&fig.net, &fig.config, &ts, &[], &LintConfig::default());
    let ReportKind::Lint(report) = out.kind else {
        panic!("expected a lint report")
    };
    assert!(!report.has_code("JL301"));
    assert!(!report.has_code("JL304"));
}
