//! Integration tests for the observability subsystem on the Figure 1
//! running example: the engine's span tree has the expected shape, the
//! solver counters are consistent with `CheckReport::solver_stats`, and the
//! `--metrics-out` JSON is strict enough for the RFC 8259 reader to parse.

use jinjing_core::check::CheckOutcome;
use jinjing_core::engine::{run, EngineConfig, ReportKind};
use jinjing_core::figure1::Figure1;
use jinjing_core::resolve::resolve;
use jinjing_lai::{parse_program, validate};
use jinjing_obs::json::{self, Json};

const RUNNING_EXAMPLE_BODY: &str = r#"
acl PermitAll { permit all }
acl A1' {
    deny dst 1.0.0.0/8
    deny dst 2.0.0.0/8
    deny dst 6.0.0.0/8
}
acl A3' { deny dst 7.0.0.0/8 }
scope A:*, B:*, C:*, D:*
allow A:*, B:*
modify D:2 to PermitAll
modify C:1 to PermitAll
modify A:1 to A1'
modify A:3-out to A3'
"#;

fn run_with_obs(src: &str) -> jinjing_core::engine::Report {
    let fig = Figure1::new();
    let program = validate(parse_program(src).expect("parse")).expect("validate");
    let task = resolve(&fig.net, &program, &fig.config).expect("resolve");
    run(&fig.net, &task, &EngineConfig::default()).expect("engine")
}

#[test]
fn check_snapshot_has_span_tree_and_solver_metrics() {
    let report = run_with_obs(&format!("{RUNNING_EXAMPLE_BODY}check\n"));
    let snap = &report.obs;

    // Span tree shape: root → engine.run → check → {preprocess, refine,
    // paths, solve}.
    let engine = snap
        .spans
        .child("engine.run")
        .expect("engine.run span present");
    assert_eq!(engine.count, 1);
    let check = engine.child("check").expect("check under engine.run");
    assert_eq!(check.count, 1);
    for phase in [
        "check.preprocess",
        "check.refine",
        "check.paths",
        "check.solve",
    ] {
        assert!(
            check.child(phase).is_some(),
            "missing child span {phase}; got {:?}",
            check.children.iter().map(|c| &c.name).collect::<Vec<_>>()
        );
    }

    // The Figure 1 check does real solver work: non-zero check.solve time.
    let solve = check.child("check.solve").unwrap();
    assert!(solve.count >= 1);
    assert!(solve.total_ns > 0, "check.solve must record elapsed time");
    // Parent spans cover their children.
    let child_total: u64 = check.children.iter().map(|c| c.total_ns).sum();
    assert!(
        check.total_ns >= child_total,
        "span nesting is hierarchical"
    );

    // Solver counters are consistent with the report's aggregate stats:
    // every CircuitBuilder query ran with the collector attached, so the
    // histogram sums equal the merged per-class totals.
    let ReportKind::Check(r) = &report.kind else {
        panic!("expected check")
    };
    assert!(matches!(r.outcome, CheckOutcome::Inconsistent(_)));
    assert!(snap.counter("solver.queries") >= 1);
    let hist_sum = |name: &str| snap.histogram(name).map_or(0, |h| h.sum);
    assert_eq!(hist_sum("solver.decisions"), r.solver_stats.decisions);
    assert_eq!(hist_sum("solver.propagations"), r.solver_stats.propagations);
    assert_eq!(hist_sum("solver.conflicts"), r.solver_stats.conflicts);
    assert_eq!(hist_sum("solver.learned"), r.solver_stats.learned);
    let depth_hist = snap.histogram("solver.max_depth").expect("depth histogram");
    assert_eq!(depth_hist.max, r.solver_stats.max_depth);

    // Report durations come from the same spans.
    assert_eq!(solve.total_ns, r.t_solve.as_nanos() as u64);
    assert_eq!(snap.counter("check.runs"), 1);
}

#[test]
fn fix_snapshot_nests_certification_check_and_times_phases() {
    let report = run_with_obs(&format!("{RUNNING_EXAMPLE_BODY}fix\n"));
    let snap = &report.obs;
    let engine = snap.spans.child("engine.run").expect("engine.run");
    let fix = engine.child("fix").expect("fix under engine.run");
    // The certification check nests *inside* the fix span.
    assert!(fix.child("check").is_some(), "nested certification check");
    for phase in ["fix.enumerate", "fix.enlarge", "fix.place", "fix.simplify"] {
        assert!(fix.child(phase).is_some(), "missing {phase}");
    }

    let ReportKind::Fix(plan) = &report.kind else {
        panic!("expected fix")
    };
    // FixPlan phase durations mirror the span totals exactly (same guard).
    let span_ns = |name: &str| fix.child(name).map_or(0, |s| s.total_ns);
    assert_eq!(
        span_ns("fix.enumerate"),
        plan.phases.enumerate.as_nanos() as u64
    );
    assert_eq!(
        span_ns("fix.enlarge"),
        plan.phases.enlarge.as_nanos() as u64
    );
    assert_eq!(span_ns("fix.place"), plan.phases.place.as_nanos() as u64);
    assert_eq!(
        span_ns("fix.simplify"),
        plan.phases.simplify.as_nanos() as u64
    );
    assert!(plan.phases.enumerate.as_nanos() > 0, "enumeration did work");
    assert!(plan.phases.place.as_nanos() > 0, "placement did work");
    assert_eq!(
        snap.counter("fix.neighborhoods"),
        plan.neighborhoods.len() as u64
    );
    assert_eq!(
        snap.counter("fix.added_rules"),
        plan.added_rules.len() as u64
    );
}

#[test]
fn generate_snapshot_has_phase_spans_matching_report() {
    let src = r#"
acl PermitAll { permit all }
scope A:*, B:*, C:*, D:*
allow C:1-in, C:2-in, D:1-in
modify A:1 to PermitAll
modify D:2 to PermitAll
generate
"#;
    let report = run_with_obs(src);
    let snap = &report.obs;
    let gen = snap
        .spans
        .child("engine.run")
        .and_then(|e| e.child("generate"))
        .expect("generate span");
    let ReportKind::Generate(g) = &report.kind else {
        panic!("expected generate")
    };
    let span_ns = |name: &str| gen.child(name).map_or(0, |s| s.total_ns);
    assert_eq!(
        span_ns("generate.aec"),
        g.phases.derive_aec.as_nanos() as u64
    );
    assert_eq!(span_ns("generate.solve"), g.phases.solve.as_nanos() as u64);
    assert_eq!(
        span_ns("generate.synthesize"),
        g.phases.synthesize.as_nanos() as u64
    );
    let aec_hist = snap.histogram("generate.aec_count").expect("aec histogram");
    assert_eq!(aec_hist.sum, g.aec_count as u64);
}

#[test]
fn snapshot_json_is_strict_and_complete() {
    let report = run_with_obs(&format!("{RUNNING_EXAMPLE_BODY}check\n"));
    let text = report.obs.to_json();
    let name_of = |v: &Json| v.get("name").and_then(Json::as_str).map(str::to_string);
    let children = |v: &Json| v.get("children").expect("children key").elements().to_vec();

    // The acceptance bar: the strict reader accepts the hand-rolled
    // writer's output and finds the full span tree in it.
    let v = json::parse(&text).expect("valid JSON");
    let spans = v.get("spans").expect("spans key");
    assert_eq!(name_of(spans).as_deref(), Some("root"));
    let engine = &children(spans)[0];
    assert_eq!(name_of(engine).as_deref(), Some("engine.run"));
    assert_eq!(engine.get("count").and_then(Json::as_u64), Some(1));
    let check = children(engine)
        .into_iter()
        .find(|c| name_of(c).as_deref() == Some("check"))
        .expect("check span in JSON");
    let names: Vec<String> = children(&check).iter().filter_map(name_of).collect();
    assert!(names.iter().any(|n| n == "check.solve"), "{names:?}");

    // Metric sections exist with the documented shapes.
    let section = |name: &str, key: &str| v.get(name).and_then(|s| s.get(key)).cloned();
    let queries = section("counters", "solver.queries").expect("solver.queries");
    assert!(queries.as_u64().unwrap() >= 1);
    let dec = section("histograms", "solver.decisions").expect("solver.decisions");
    assert!(dec.get("count").and_then(Json::as_u64).unwrap() >= 1);
    assert!(dec.get("p50").and_then(Json::as_f64).is_some());
    let events = v.get("events").expect("events key");
    assert!(matches!(events, Json::Array(_)));
    // Events carry the check verdict.
    assert!(events
        .elements()
        .iter()
        .any(|e| name_of(e).as_deref() == Some("check.verdict")));

    // Stable output: serializing the same snapshot twice is byte-identical.
    assert_eq!(text, report.obs.to_json());
}

/// Duration-accounting regression: the old per-iteration loop `+=`-ed path
/// and solve time into the report *and* opened a fresh span guard per
/// iteration, so the two books could drift apart. Both now derive from one
/// fold of the same worker-measured aggregates, so report durations and
/// span totals must be byte-equal — serial or parallel.
#[test]
fn check_durations_are_span_derived_for_every_thread_count() {
    for threads in [1usize, 4] {
        let fig = Figure1::new();
        let src = format!("{RUNNING_EXAMPLE_BODY}check\n");
        let program = validate(parse_program(&src).expect("parse")).expect("validate");
        let task = resolve(&fig.net, &program, &fig.config).expect("resolve");
        let cfg = EngineConfig {
            threads,
            ..EngineConfig::default()
        };
        let report = run(&fig.net, &task, &cfg).expect("engine");
        let snap = &report.obs;
        let check = snap
            .spans
            .child("engine.run")
            .and_then(|e| e.child("check"))
            .expect("check span");
        let ReportKind::Check(r) = &report.kind else {
            panic!("expected check")
        };
        let span = |name: &str| {
            check
                .child(name)
                .unwrap_or_else(|| panic!("missing {name} (threads={threads})"))
        };
        assert_eq!(
            span("check.preprocess").total_ns,
            r.t_preprocess.as_nanos() as u64,
            "threads={threads}"
        );
        assert_eq!(
            span("check.refine").total_ns,
            r.t_refine.as_nanos() as u64,
            "threads={threads}"
        );
        assert_eq!(
            span("check.paths").total_ns,
            r.t_paths.as_nanos() as u64,
            "threads={threads}"
        );
        assert_eq!(
            span("check.solve").total_ns,
            r.t_solve.as_nanos() as u64,
            "threads={threads}"
        );
        // Span counts carry the fold sizes: one entry per folded class /
        // query, never the speculative overshoot.
        let paths = span("check.paths");
        assert!(
            paths.count >= 1 && paths.count <= r.fec_count as u64,
            "threads={threads}: {} classes folded of {}",
            paths.count,
            r.fec_count
        );
        assert!(span("check.solve").count >= 1);
        // A fresh per-run cache starts cold: the first stage-1 query is a
        // miss, and the hit/miss split covers every cached lookup.
        assert!(
            snap.counter("check.cache_miss") >= 1,
            "threads={threads}: cold cache must miss first"
        );
    }
}

#[test]
fn collectors_are_isolated_between_runs() {
    // Two engine runs with default configs must not share state: each
    // EngineConfig::default() makes a fresh collector.
    let a = run_with_obs(&format!("{RUNNING_EXAMPLE_BODY}check\n"));
    let b = run_with_obs(&format!("{RUNNING_EXAMPLE_BODY}check\n"));
    assert_eq!(a.obs.counter("check.runs"), 1);
    assert_eq!(b.obs.counter("check.runs"), 1);
}
