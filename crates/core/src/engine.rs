//! The engine front door: run a resolved task end to end.
//!
//! `run` dispatches on the program's command and packages the primitive
//! outputs as a [`Report`] — the "update plan" Jinjing hands back to the
//! operator, including the concrete ACL texts to install.

use crate::check::{check, CheckConfig, CheckOutcome, CheckReport};
use crate::fix::{fix, FixConfig, FixError, FixPlan};
use crate::generate::{generate, GenerateConfig, GenerateError, GenerateReport};
use crate::incr::CheckSession;
use crate::plan::{PlanConfig, PlanError, RolloutPlan};
use crate::task::Task;
use jinjing_acl::atoms::ClassExplosion;
use jinjing_lai::Command;
use jinjing_net::{AclConfig, Network, Slot};
use std::fmt;

/// Engine-level configuration. Each setting is held once: `check` is the
/// run's one check configuration, and every primitive runs under it — fix's
/// search and its certification check, generate's refinements, a session's
/// re-checks and every rollout-prefix probe. Its collector (`check.obs`)
/// is the run's, so one span tree and one metric store describe the whole
/// run, and its query store is shared by every phase of the run.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// The run's check configuration.
    pub check: CheckConfig,
    /// What only fix reads: the search strategy and its budget.
    pub fix: FixConfig,
    /// What only generate reads: the §5.5 emission switch.
    pub generate: GenerateConfig,
    /// What only [`plan`] reads: the wave budget.
    pub plan: PlanConfig,
    /// Run-level worker-thread override. When non-zero it replaces
    /// `check.threads` (check's query fan-out, batch fix's placement
    /// fan-out). `0` leaves `check.threads` alone
    /// (whose own `0` means "consult `JINJING_THREADS`, default serial").
    pub threads: usize,
}

impl EngineConfig {
    /// The run's check configuration with the thread override applied.
    fn run_check(&self) -> CheckConfig {
        let mut check = self.check.clone();
        if self.threads != 0 {
            check.threads = self.threads;
        }
        check
    }
}

/// What the engine produced: the primitive's report plus the run's
/// observability snapshot (span tree, metrics, events).
#[derive(Debug)]
pub struct Report {
    /// The primitive output.
    pub kind: ReportKind,
    /// Frozen observability data for the run (serialize with
    /// [`jinjing_obs::Snapshot::to_json`]).
    pub obs: jinjing_obs::Snapshot,
}

/// Which primitive ran, and what it produced.
#[derive(Debug)]
pub enum ReportKind {
    /// `check` ran.
    Check(CheckReport),
    /// `fix` ran (check + repair).
    Fix(FixPlan),
    /// `generate` ran.
    Generate(GenerateReport),
    /// `lint` ran (static analysis; produces diagnostics, never a plan).
    Lint(jinjing_lint::LintReport),
    /// `plan` ran (safe update sequencing; produces a certified rollout
    /// ordering, or a minimal infeasibility core).
    Plan(RolloutPlan),
}

impl Report {
    /// The configuration the operator should deploy, when one exists
    /// (`fix`/`generate`; a consistent `check` means "deploy the update
    /// as written", returned as `None`).
    pub fn deployable(&self) -> Option<&AclConfig> {
        match &self.kind {
            // A plan sequences a target the operator already holds; it
            // does not introduce a new configuration.
            ReportKind::Check(_) | ReportKind::Lint(_) | ReportKind::Plan(_) => None,
            ReportKind::Fix(p) => Some(&p.fixed),
            ReportKind::Generate(g) => Some(&g.generated),
        }
    }

    /// One-line verdict for logs.
    pub fn verdict(&self) -> String {
        match &self.kind {
            ReportKind::Check(r) => match &r.outcome {
                CheckOutcome::Consistent => "consistent".to_string(),
                CheckOutcome::Inconsistent(v) => {
                    format!("inconsistent (witness {})", v.packet)
                }
            },
            ReportKind::Fix(p) => format!(
                "fixed: {} rules added across {} neighborhoods",
                p.added_rules.len(),
                p.neighborhoods.len()
            ),
            ReportKind::Generate(g) => format!(
                "generated {} rules over {} classes ({} DEC-split)",
                g.rules_final, g.aec_count, g.aecs_split
            ),
            ReportKind::Lint(r) => {
                if r.is_empty() {
                    "lint: clean".to_string()
                } else {
                    use jinjing_lint::Severity;
                    format!(
                        "lint: {} diagnostic(s) ({} error(s), {} warning(s), {} note(s))",
                        r.len(),
                        r.count(Severity::Error),
                        r.count(Severity::Warning),
                        r.count(Severity::Note)
                    )
                }
            }
            ReportKind::Plan(p) => p.verdict(),
        }
    }
}

/// Engine failures.
#[derive(Debug)]
pub enum EngineError {
    /// Equivalence-class explosion during check.
    Classes(ClassExplosion),
    /// The shard fan-out behind a delegated check failed.
    Shard(String),
    /// Fix failed.
    Fix(FixError),
    /// Generate failed.
    Generate(GenerateError),
    /// Plan synthesis failed (infeasibility is a *result*, not an error).
    Plan(PlanError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Classes(e) => write!(f, "{e}"),
            EngineError::Shard(msg) => write!(f, "shard fan-out failed: {msg}"),
            EngineError::Fix(e) => write!(f, "{e}"),
            EngineError::Generate(e) => write!(f, "{e}"),
            EngineError::Plan(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<crate::check::CheckError> for EngineError {
    fn from(e: crate::check::CheckError) -> EngineError {
        match e {
            crate::check::CheckError::Classes(c) => EngineError::Classes(c),
            crate::check::CheckError::Shard(msg) => EngineError::Shard(msg),
        }
    }
}

/// Execute a task.
///
/// Every primitive runs under the run's one check configuration
/// ([`EngineConfig::check`]), so the whole run — including the nested
/// certification `check` inside `fix` — lands in one span tree and shares
/// one query store. The frozen [`jinjing_obs::Snapshot`] rides back on the
/// [`Report`].
pub fn run(net: &Network, task: &Task, cfg: &EngineConfig) -> Result<Report, EngineError> {
    let check_cfg = cfg.run_check();
    let obs = &check_cfg.obs;
    obs.event(
        jinjing_obs::Level::Info,
        "engine.start",
        &format!("running {:?}", task.command),
    );
    let run_span = obs.span("engine.run");
    let kind = match task.command {
        Command::Check => check(net, task, &check_cfg)
            .map(ReportKind::Check)
            .map_err(EngineError::from),
        Command::Fix => fix(net, task, &check_cfg, &cfg.fix)
            .map(ReportKind::Fix)
            .map_err(EngineError::Fix),
        Command::Generate => generate(net, task, &check_cfg, &cfg.generate)
            .map(ReportKind::Generate)
            .map_err(EngineError::Generate),
    };
    run_span.finish();
    match kind {
        Ok(kind) => Ok(Report {
            kind,
            obs: obs.snapshot(),
        }),
        Err(e) => {
            obs.event(jinjing_obs::Level::Error, "engine.error", &e.to_string());
            Err(e)
        }
    }
}

/// Open an incremental [`CheckSession`] for a resolved task under the
/// run's check configuration, as [`run`] does: its collector, thread
/// override and query store — which becomes the session's persistent
/// generation-tagged cache. The task's scope, controls and *current*
/// configuration (`task.before`) seed the session; its update
/// (`task.after`) is ignored — deltas arrive through
/// [`CheckSession::recheck`].
pub fn open_session<'n>(
    net: &'n Network,
    task: &Task,
    cfg: &EngineConfig,
) -> Result<CheckSession<'n>, EngineError> {
    CheckSession::for_task(net, task, cfg.run_check()).map_err(EngineError::Classes)
}

/// Synthesize a certified rollout plan from the task's current
/// configuration (`task.before`) to `target`, under the task's scope and
/// controls, packaged like every other primitive: a [`Report`] carrying a
/// [`RolloutPlan`] plus the run's observability snapshot.
///
/// Every prefix-state probe runs under the run's check configuration, as
/// [`run`] does: its collector, thread override and query store. The
/// target usually comes from the task's own update (`task.after`) or from
/// a delta script applied on top of it.
pub fn plan(
    net: &Network,
    task: &Task,
    target: &AclConfig,
    cfg: &EngineConfig,
) -> Result<Report, EngineError> {
    let check_cfg = cfg.run_check();
    let obs = &check_cfg.obs;
    obs.event(jinjing_obs::Level::Info, "engine.start", "running plan");
    let rollout = crate::plan::synthesize(
        net,
        &task.scope,
        &task.controls,
        &task.before,
        target,
        &check_cfg,
        &cfg.plan,
    )
    .map_err(EngineError::Plan)?;
    Ok(Report {
        kind: ReportKind::Plan(rollout),
        obs: obs.snapshot(),
    })
}

/// Run the static analysis pass (jinjing-lint) over a built network, its
/// ACL configuration, and optionally an LAI program, packaged like every
/// other primitive: a [`Report`] with a sorted
/// [`jinjing_lint::LintReport`] inside and the run's observability
/// snapshot alongside.
///
/// Unlike `check`/`fix`/`generate`, lint needs no resolved [`Task`]: it
/// inspects what already exists rather than what an update would do, so it
/// can run before any update is even proposed.
pub fn lint(
    net: &Network,
    config: &AclConfig,
    program: Option<&jinjing_lai::Program>,
    cfg: &jinjing_lint::LintConfig,
) -> Report {
    let obs = cfg.obs.clone();
    obs.event(jinjing_obs::Level::Info, "engine.start", "running lint");
    let run_span = obs.span("lint.run");
    let mut report = jinjing_lint::lint_config(net, config, cfg);
    if let Some(p) = program {
        report.merge(jinjing_lint::lint_program(p, cfg));
    }
    report.sort();
    run_span.finish();
    Report {
        kind: ReportKind::Lint(report),
        obs: obs.snapshot(),
    }
}

/// Run the multi-tenant static analysis pass: single-program lint for each
/// tenant's intent (findings attributed to that tenant) plus the
/// cross-tenant JL3xx layer ([`jinjing_lint::lint_multi`]) — solver-
/// certified conflicts with witness packets, cross-tenant subsumption, and
/// the priority-merge preview for the given tenant `priority` order.
/// Network/config findings are reported once, unattributed. The merged
/// report is sorted, so the bytes are independent of tenant input order
/// and thread count.
pub fn lint_multi(
    net: &Network,
    config: &AclConfig,
    tenants: &[jinjing_lint::TenantIntent],
    priority: &[String],
    cfg: &jinjing_lint::LintConfig,
) -> Report {
    let obs = cfg.obs.clone();
    obs.event(
        jinjing_obs::Level::Info,
        "engine.start",
        "running multi-tenant lint",
    );
    let run_span = obs.span("lint.run");
    let mut report = jinjing_lint::lint_config(net, config, cfg);
    for t in tenants {
        let mut r = jinjing_lint::lint_program(&t.program, cfg);
        r.attribute_tenant(&t.tenant);
        report.merge(r);
    }
    report.merge(jinjing_lint::lint_multi(tenants, priority, cfg));
    report.sort();
    run_span.finish();
    Report {
        kind: ReportKind::Lint(report),
        obs: obs.snapshot(),
    }
}

/// The roll-back plan for an applied update: the inverse rendering that
/// restores `from` after `to` was deployed. §1 notes operators spend weeks
/// preparing "migration and roll-back plans"; with declarative configs the
/// roll-back is just the plan in the other direction.
pub fn rollback_plan(
    net: &Network,
    from: &AclConfig,
    to: &AclConfig,
) -> Vec<(Slot, String, String)> {
    render_plan(net, to, from)
}

/// Render the difference between two configurations as deployable ACL text
/// (per changed slot), for operator review.
pub fn render_plan(net: &Network, from: &AclConfig, to: &AclConfig) -> Vec<(Slot, String, String)> {
    let mut slots: Vec<Slot> = from.slots();
    for s in to.slots() {
        if !slots.contains(&s) {
            slots.push(s);
        }
    }
    slots.sort();
    let mut out = Vec::new();
    for slot in slots {
        let before = from
            .get(slot)
            .map_or_else(|| "(no acl)".to_string(), ToString::to_string);
        let after = to
            .get(slot)
            .map_or_else(|| "(no acl)".to_string(), ToString::to_string);
        if before != after {
            let name = format!("{}-{}", net.topology().iface_name(slot.iface), slot.dir);
            out.push((slot, name, after));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figure1::Figure1;
    use crate::resolve::resolve;
    use jinjing_lai::{parse_program, validate};

    fn run_src(f: &Figure1, src: &str) -> Result<Report, EngineError> {
        let prog = validate(parse_program(src).unwrap()).unwrap();
        let task = resolve(&f.net, &prog, &f.config).unwrap();
        run(&f.net, &task, &EngineConfig::default())
    }

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

    #[test]
    fn end_to_end_check_then_fix() {
        let f = Figure1::new();
        // check reports inconsistent (as in Figure 3).
        let report = run_src(&f, &format!("{RUNNING_EXAMPLE_BODY}check\n")).unwrap();
        assert!(
            report.verdict().starts_with("inconsistent"),
            "{}",
            report.verdict()
        );
        assert!(report.deployable().is_none());
        // fix produces a deployable, consistent plan.
        let report = run_src(&f, &format!("{RUNNING_EXAMPLE_BODY}fix\n")).unwrap();
        let fixed = report.deployable().expect("fix yields a config");
        let verdict = crate::check::check_exact(&f.net, &f.scope(), &f.config, fixed, &[]);
        assert!(verdict.is_consistent());
    }

    #[test]
    fn end_to_end_generate_migration() {
        let f = Figure1::new();
        let src = r#"
acl PermitAll { permit all }
scope A:*, B:*, C:*, D:*
allow C:1-in, C:2-in, D:1-in
modify A:1 to PermitAll
modify D:2 to PermitAll
generate
"#;
        let report = run_src(&f, src).unwrap();
        let generated = report.deployable().unwrap();
        // Reachability preserved relative to the original config.
        let verdict = crate::check::check_exact(&f.net, &f.scope(), &f.config, generated, &[]);
        assert!(verdict.is_consistent(), "{verdict:?}");
        assert!(report.verdict().starts_with("generated"));
    }

    #[test]
    fn engine_lint_packages_a_sorted_report() {
        let f = Figure1::new();
        let cfg = jinjing_lint::LintConfig::default();
        let report = lint(&f.net, &f.config, None, &cfg);
        assert!(report.deployable().is_none());
        assert!(
            report.verdict().starts_with("lint:"),
            "{}",
            report.verdict()
        );
        let ReportKind::Lint(r) = &report.kind else {
            panic!("expected a lint report")
        };
        // Sorted: locations are non-decreasing.
        let locs: Vec<&str> = r
            .diagnostics()
            .iter()
            .map(|d| d.location.as_str())
            .collect();
        let mut sorted = locs.clone();
        sorted.sort_unstable();
        assert_eq!(locs, sorted);
        // The run's spans landed in the snapshot under lint.run.
        assert!(report.obs.to_json().contains("lint.run"));
    }

    #[test]
    fn engine_lint_multi_attributes_and_cross_checks() {
        let f = Figure1::new();
        let alpha = "acl Unused { permit all }\nscope A:*, D:*\n\
                     control A:* -> D:* isolate dst 1.0.0.0/8\ncheck\n";
        let beta = "scope A:*, D:*\ncontrol A:1 -> D:* open dst 1.2.0.0/16\ncheck\n";
        let tenants = [
            jinjing_lint::TenantIntent::new(
                "alpha",
                validate(parse_program(alpha).unwrap()).unwrap(),
            ),
            jinjing_lint::TenantIntent::new(
                "beta",
                validate(parse_program(beta).unwrap()).unwrap(),
            ),
        ];
        let cfg = jinjing_lint::LintConfig::default();
        let report = lint_multi(
            &f.net,
            &f.config,
            &tenants,
            &["alpha".into(), "beta".into()],
            &cfg,
        );
        let ReportKind::Lint(r) = &report.kind else {
            panic!("expected a lint report")
        };
        // Cross-tenant conflict, solver-certified, with both spans.
        let conflict = r
            .diagnostics()
            .iter()
            .find(|d| d.code == "JL301")
            .expect("JL301 present");
        assert_eq!(conflict.tenant.as_deref(), Some("alpha,beta"));
        assert!(conflict.location.contains("alpha:control:0"));
        assert!(conflict.location.contains("beta:control:0"));
        // Alpha's single-program finding is attributed to alpha.
        let unused = r
            .diagnostics()
            .iter()
            .find(|d| d.code == "JL104")
            .expect("JL104 present");
        assert_eq!(unused.tenant.as_deref(), Some("alpha"));
        // Priority order covers both tenants: merge is total.
        assert!(r.has_code("JL303"));
        assert!(!r.has_code("JL304"));
        // Input order does not change the bytes.
        let swapped = [tenants[1].clone(), tenants[0].clone()];
        let report2 = lint_multi(
            &f.net,
            &f.config,
            &swapped,
            &["alpha".into(), "beta".into()],
            &jinjing_lint::LintConfig::default(),
        );
        let ReportKind::Lint(r2) = &report2.kind else {
            panic!("expected a lint report")
        };
        assert_eq!(r.to_json(), r2.to_json());
    }

    #[test]
    fn engine_lint_includes_program_findings() {
        let f = Figure1::new();
        let src = "acl Unused { permit all }\nacl X { deny dst 9.0.0.0/8 }\n\
                   scope A:*\nallow A:*\nmodify A:1 to X\ncheck\n";
        let prog = validate(parse_program(src).unwrap()).unwrap();
        let cfg = jinjing_lint::LintConfig::default();
        let report = lint(&f.net, &f.config, Some(&prog), &cfg);
        let ReportKind::Lint(r) = &report.kind else {
            panic!("expected a lint report")
        };
        assert!(r.has_code("JL104"), "{}", r.render_text());
    }

    #[test]
    fn open_session_matches_the_one_shot_check() {
        use crate::incr::Delta;
        let f = Figure1::new();
        let prog =
            validate(parse_program(&format!("{RUNNING_EXAMPLE_BODY}check\n")).unwrap()).unwrap();
        let task = resolve(&f.net, &prog, &f.config).unwrap();
        let cfg = EngineConfig::default();
        // The one-shot engine run of the same update.
        let one_shot = run(&f.net, &task, &cfg).unwrap();
        // A session seeded from the task, fed the update as a delta.
        let mut session = open_session(&f.net, &task, &cfg).unwrap();
        let mut delta = Delta::new();
        for slot in task.after.slots() {
            delta = delta.set(slot, task.after.get(slot).unwrap().clone());
        }
        for slot in task.before.slots() {
            if task.after.get(slot).is_none() {
                delta = delta.clear(slot);
            }
        }
        let step = session.recheck(&delta).unwrap();
        let ReportKind::Check(want) = &one_shot.kind else {
            panic!("check task yields a check report")
        };
        assert_eq!(
            format!("{:?}", step.report.outcome),
            format!("{:?}", want.outcome)
        );
        assert_eq!(step.report.fec_count, want.fec_count);
        assert_eq!(step.report.paths_checked, want.paths_checked);
        assert!(!step.applied, "inconsistent update must be rejected");
    }

    #[test]
    fn rollback_is_the_inverse_plan() {
        let f = Figure1::new();
        let mut to = f.config.clone();
        to.set(f.slot("D2"), jinjing_acl::Acl::permit_all());
        let forward = render_plan(&f.net, &f.config, &to);
        let backward = rollback_plan(&f.net, &f.config, &to);
        assert_eq!(forward.len(), 1);
        assert_eq!(backward.len(), 1);
        assert_eq!(forward[0].1, backward[0].1); // same slot
                                                 // Applying the rollback text restores the original rules.
        assert!(backward[0].2.contains("deny dst 1.0.0.0/8"));
        assert!(forward[0].2.contains("default permit"));
    }

    #[test]
    fn render_plan_lists_changed_slots_only() {
        let f = Figure1::new();
        let mut to = f.config.clone();
        to.set(f.slot("D2"), jinjing_acl::Acl::permit_all());
        let plan = render_plan(&f.net, &f.config, &to);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].1, "D:2-in");
    }
}

#[cfg(test)]
mod error_path_tests {
    use super::*;
    use crate::figure1::Figure1;
    use crate::Task;
    use jinjing_lai::Command;

    #[test]
    fn engine_surfaces_unfixable() {
        let f = Figure1::new();
        let task = Task {
            scope: f.scope(),
            allow: Vec::new(), // nothing may change → unfixable
            before: f.config.clone(),
            after: f.bad_update(),
            modified: Vec::new(),
            controls: Vec::new(),
            command: Command::Fix,
        };
        let err = run(&f.net, &task, &EngineConfig::default()).unwrap_err();
        assert!(matches!(err, EngineError::Fix(_)), "{err}");
        assert!(err.to_string().contains("no consistent placement"), "{err}");
    }

    #[test]
    fn engine_surfaces_generate_no_solution() {
        use crate::control::ResolvedControl;
        use jinjing_lai::ControlVerb;
        use std::collections::HashSet;
        let f = Figure1::new();
        let task = Task {
            scope: f.scope(),
            allow: vec![f.slot("C1")], // traffic 3 never crosses C1
            before: f.config.clone(),
            after: f.config.clone(),
            modified: Vec::new(),
            controls: vec![ResolvedControl {
                from: HashSet::from([f.iface("A1")]),
                to: HashSet::from([f.iface("D3")]),
                verb: ControlVerb::Isolate,
                region: f.traffic(3),
            }],
            command: Command::Generate,
        };
        let err = run(&f.net, &task, &EngineConfig::default()).unwrap_err();
        assert!(matches!(err, EngineError::Generate(_)));
        assert!(err.to_string().contains("no valid ACL placement"), "{err}");
    }

    /// The run's refinement cap reaches every primitive: check's FEC
    /// partition, fix's search and generate's AECs all explode under it.
    #[test]
    fn class_explosion_is_reported_not_panicked() {
        use jinjing_acl::atoms::RefineLimits;
        let f = Figure1::new();
        let mut cfg = EngineConfig::default();
        cfg.check.refine_limits = RefineLimits { max_classes: 1 };
        let task = |command, after, allow| Task {
            scope: f.scope(),
            allow,
            before: f.config.clone(),
            after,
            modified: Vec::new(),
            controls: Vec::new(),
            command,
        };
        // The running example's update, fixed on A and B; the §5 migration
        // off A1 and D2, generated at C1, C2 and D1.
        let a_and_b = ["A1", "A2", "A3", "A4", "B1", "B2"]
            .into_iter()
            .flat_map(|n| [Slot::ingress(f.iface(n)), Slot::egress(f.iface(n))])
            .collect();
        let mut migrated = f.config.clone();
        migrated.set(f.slot("A1"), jinjing_acl::Acl::permit_all());
        migrated.set(f.slot("D2"), jinjing_acl::Acl::permit_all());
        let targets = vec![f.slot("C1"), f.slot("C2"), f.slot("D1")];
        let check = task(Command::Check, f.bad_update(), Vec::new());
        let fix = task(Command::Fix, f.bad_update(), a_and_b);
        let generate = task(Command::Generate, migrated, targets);

        let err = run(&f.net, &check, &cfg).unwrap_err();
        assert!(matches!(err, EngineError::Classes(_)), "{err}");
        assert!(err.to_string().contains("explosion"), "{err}");
        let err = run(&f.net, &fix, &cfg).unwrap_err();
        assert!(
            matches!(err, EngineError::Fix(FixError::Classes(_))),
            "{err}"
        );
        let err = run(&f.net, &generate, &cfg).unwrap_err();
        assert!(
            matches!(err, EngineError::Generate(GenerateError::Classes(_))),
            "{err}"
        );
        // Under the default cap both succeed: the cap is what failed them.
        for task in [&fix, &generate] {
            run(&f.net, task, &EngineConfig::default()).unwrap();
        }
    }
}
