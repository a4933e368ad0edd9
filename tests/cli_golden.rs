//! Golden-file tests for the CLI's machine-readable output: the canonical
//! JSON emitted by `jinjing run --format json` (check / fix / generate),
//! `jinjing lint --format json` and `jinjing watch --format json` on the
//! Figure 1 running example is pinned byte-for-byte against committed
//! files in `tests/golden/`.
//!
//! The canonical renderings are deliberately hand-rolled (sorted keys, no
//! timestamps, trailing newline — see `jinjing_obs::json::JsonWriter`), so
//! any drift in verdicts, witnesses, plans, diagnostics or the incremental
//! session counters shows up as a one-line diff here. Determinism across
//! thread counts is part of the contract: the same goldens must hold under
//! `JINJING_THREADS=4` (CI runs both).
//!
//! Regenerate after an *intentional* change with:
//!
//! ```text
//! JINJING_BLESS=1 cargo test --test cli_golden
//! ```
//!
//! and review the diff like any other code change.

use jinjing_cli::{plan_command, run_command_with, watch_command, RunOptions};
use jinjing_core::engine::{lint, lint_multi, ReportKind};
use jinjing_core::figure1::Figure1;
use jinjing_lai::{parse_program, validate};
use jinjing_lint::TenantIntent;
use std::path::PathBuf;

/// The paper's running-example update (§3.2): opens traffic 1 and 2 on
/// D2/C1 while A1 is supposed to keep denying them — `check` says
/// inconsistent, `fix` repairs it.
const RUNNING_EXAMPLE_BODY: &str = r#"
acl PermitAll { permit all }
acl A1' {
    deny dst 1.0.0.0/8
    deny dst 2.0.0.0/8
    deny dst 6.0.0.0/8
    permit all
}
acl A3' {
    deny dst 7.0.0.0/8
    permit all
}
scope A:*, B:*, C:*, D:*
allow A:*, B:*
modify D:2 to PermitAll
modify C:1 to PermitAll
modify A:1 to A1'
modify A:3-out to A3'
"#;

/// §5's migration scenario, the generate path of Tables 3–4.
const GENERATE_SRC: &str = r#"
acl PermitAll { permit all }
scope A:*, B:*, C:*, D:*
allow C:1-in, C:2-in, D:1-in
modify A:1 to PermitAll
modify D:2 to PermitAll
generate
"#;

/// A three-step delta stream for the watch session: a consistent
/// tightening, an inconsistent opening (rejected), and a no-op.
const WATCH_DELTAS: &str = r#"
# rewrite A1 with a redundant /16 shadowed by its /8: same packet set,
# different rules — a consistent (applied) edit that still dirties classes
step rewrite-a1
set A:1 deny dst 6.0.0.0/8; deny dst 6.1.0.0/16; default permit

# drop D2's denies entirely: opens traffic 1/2 end to end, rejected
step open-d2
set D:2 default permit

# empty delta: the fast path
step noop
"#;

/// Locate `tests/golden/` from either the repo root or the `crates/tests`
/// package dir (where cargo runs this suite).
fn golden_dir() -> PathBuf {
    for cand in ["tests/golden", "../../tests/golden"] {
        let p = PathBuf::from(cand);
        if p.is_dir() {
            return p;
        }
    }
    // Last resort: resolve relative to this source file.
    PathBuf::from(file!())
        .parent()
        .expect("source file has a parent")
        .join("golden")
}

/// Compare `got` against the committed golden file, or rewrite the file
/// when `JINJING_BLESS` is set.
fn assert_golden(name: &str, got: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("JINJING_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("mkdir golden");
        std::fs::write(&path, got).expect("bless golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with JINJING_BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "{name} drifted from its golden file; if the change is intentional, \
         re-bless with JINJING_BLESS=1 and review the diff"
    );
}

fn run_json(src: &str) -> String {
    let fig = Figure1::new();
    let out =
        run_command_with(&fig.net, &fig.config, src, &RunOptions::default()).expect("run_command");
    out.plan.to_canonical_json()
}

#[test]
fn check_plan_json_is_golden() {
    assert_golden(
        "check.json",
        &run_json(&format!("{RUNNING_EXAMPLE_BODY}check\n")),
    );
}

#[test]
fn fix_plan_json_is_golden() {
    assert_golden(
        "fix.json",
        &run_json(&format!("{RUNNING_EXAMPLE_BODY}fix\n")),
    );
}

#[test]
fn generate_plan_json_is_golden() {
    assert_golden("generate.json", &run_json(GENERATE_SRC));
}

#[test]
fn lint_report_json_is_golden() {
    // Mirrors `jinjing lint --format json` on a built network: the spec
    // layer is vacuous here (Figure 1 is constructed, not parsed), the
    // rule/intent/network layers run exactly as the CLI drives them.
    let fig = Figure1::new();
    let program = validate(parse_program(&format!("{RUNNING_EXAMPLE_BODY}check\n")).unwrap())
        .expect("validate");
    let out = lint(
        &fig.net,
        &fig.config,
        Some(&program),
        &jinjing_lint::LintConfig::default(),
    );
    let ReportKind::Lint(report) = out.kind else {
        panic!("expected a lint report")
    };
    let mut json = report.to_json();
    json.push('\n');
    assert_golden("lint.json", &json);
}

/// Locate `examples/data/` alongside `tests/golden/` (both layouts).
fn examples_dir() -> PathBuf {
    for cand in ["examples/data", "../../examples/data"] {
        let p = PathBuf::from(cand);
        if p.is_dir() {
            return p;
        }
    }
    panic!("examples/data not found from {:?}", std::env::current_dir());
}

/// The committed two-tenant example (`tenant-alpha.lai` + `tenant-beta.lai`)
/// rendered through the multi-tenant engine entry point — the same report
/// `jinjing lint --intent alpha=… --intent beta=… --priority alpha,beta`
/// and `POST /v1/lint/multi` must produce byte-for-byte.
fn multi_lint_report(threads: usize) -> jinjing_lint::LintReport {
    let fig = Figure1::new();
    let tenants: Vec<TenantIntent> = ["alpha", "beta"]
        .iter()
        .map(|name| {
            let path = examples_dir().join(format!("tenant-{name}.lai"));
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            let program = validate(parse_program(&text).expect("parse")).expect("validate");
            TenantIntent::new(*name, program)
        })
        .collect();
    let priority = vec!["alpha".to_string(), "beta".to_string()];
    let cfg = jinjing_lint::LintConfig {
        threads,
        ..jinjing_lint::LintConfig::default()
    };
    let out = lint_multi(&fig.net, &fig.config, &tenants, &priority, &cfg);
    let ReportKind::Lint(report) = out.kind else {
        panic!("expected a lint report")
    };
    report
}

#[test]
fn multi_lint_report_json_is_golden() {
    let mut json = multi_lint_report(0).to_json();
    json.push('\n');
    assert_golden("lint_multi.json", &json);
}

#[test]
fn multi_lint_report_sarif_is_golden() {
    let mut sarif = jinjing_lint::to_sarif(&multi_lint_report(0));
    sarif.push('\n');
    assert_golden("lint_multi.sarif", &sarif);
}

/// Intent for the `jinjing plan` goldens: pure scope + check, the target
/// comes from a committed delta script (`--target`).
const PLAN_INTENT: &str = "scope A:*, B:*, C:*, D:*\ncheck\n";

/// Render `jinjing plan --format json` for a committed target script.
fn plan_json(target_file: &str, expect_feasible: bool) -> String {
    let fig = Figure1::new();
    let path = examples_dir().join(target_file);
    let target =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let out = plan_command(
        &fig.net,
        &fig.config,
        PLAN_INTENT,
        Some(&target),
        0,
        &RunOptions::default(),
    )
    .expect("plan_command");
    assert_eq!(
        out.feasible, expect_feasible,
        "{target_file}: unexpected feasibility"
    );
    out.json
}

#[test]
fn plan_feasible_json_is_golden() {
    assert_golden(
        "plan_feasible.json",
        &plan_json("rollout-target.deltas", true),
    );
}

#[test]
fn plan_infeasible_json_is_golden() {
    assert_golden(
        "plan_infeasible.json",
        &plan_json("rollout-impossible.deltas", false),
    );
}

#[test]
fn watch_session_json_is_golden() {
    let fig = Figure1::new();
    let out = watch_command(
        &fig.net,
        &fig.config,
        &format!("{RUNNING_EXAMPLE_BODY}check\n"),
        WATCH_DELTAS,
        &RunOptions::default(),
    )
    .expect("watch_command");
    assert_eq!(out.rejected, 1, "the open-d2 step must be rejected");
    assert_golden("watch.json", &out.to_canonical_json());
}

/// The goldens are thread-count independent (the determinism contract):
/// re-render everything at 4 threads and compare against the same files.
#[test]
fn goldens_hold_at_four_threads() {
    if std::env::var_os("JINJING_BLESS").is_some() {
        return; // bless once, from the default-thread tests
    }
    let fig = Figure1::new();
    let opts = RunOptions {
        threads: 4,
        ..RunOptions::default()
    };
    for (name, src) in [
        ("check.json", format!("{RUNNING_EXAMPLE_BODY}check\n")),
        ("fix.json", format!("{RUNNING_EXAMPLE_BODY}fix\n")),
        ("generate.json", GENERATE_SRC.to_string()),
    ] {
        let out = run_command_with(&fig.net, &fig.config, &src, &opts).expect("run_command");
        assert_golden(name, &out.plan.to_canonical_json());
    }
    let out = watch_command(
        &fig.net,
        &fig.config,
        &format!("{RUNNING_EXAMPLE_BODY}check\n"),
        WATCH_DELTAS,
        &opts,
    )
    .expect("watch_command");
    assert_golden("watch.json", &out.to_canonical_json());

    let mut json = multi_lint_report(4).to_json();
    json.push('\n');
    assert_golden("lint_multi.json", &json);
    let mut sarif = jinjing_lint::to_sarif(&multi_lint_report(4));
    sarif.push('\n');
    assert_golden("lint_multi.sarif", &sarif);

    for (name, file, feasible) in [
        ("plan_feasible.json", "rollout-target.deltas", true),
        ("plan_infeasible.json", "rollout-impossible.deltas", false),
    ] {
        let path = examples_dir().join(file);
        let target = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let out = plan_command(&fig.net, &fig.config, PLAN_INTENT, Some(&target), 0, &opts)
            .expect("plan_command");
        assert_eq!(out.feasible, feasible);
        assert_golden(name, &out.json);
    }
}
