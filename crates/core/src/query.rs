//! The **query layer**: one engine invocation packaged as a canonical,
//! byte-stable document.
//!
//! Historically this lived in `jinjing-cli`, but the CLI is only one
//! front end: the `jinjing-serve` daemon answers the same questions over
//! HTTP and its contract is that a response body is *byte-identical* to
//! the corresponding CLI output. Sharing one renderer is the only honest
//! way to keep that promise (goldens are shared, not duplicated), so the
//! output structs ([`PlanDocument`], [`WatchOutput`], [`LintOutput`]) and
//! the functions that produce them ([`run_query`], [`plan_query`],
//! [`watch_query`], [`lint_query`], [`lint_multi_query`]) live here,
//! beneath every front end.
//!
//! Canonical JSON means: strict JSON through
//! [`jinjing_obs::json::JsonWriter`], keys in sorted order, no
//! wall-clock, trailing newline — byte-stable across runs, thread counts
//! and query-store contents, so golden tests can pin every byte.
//!
//! The session half ([`open_intent_session`], [`recheck_steps`],
//! [`WatchOutput::from_steps`]) is the serving hook: a daemon keeps a
//! [`CheckSession`] resident and replays the `watch` protocol one delta
//! batch per request, rendering each batch with the same writer the CLI
//! uses for a whole script.
//!
//! Every front door hands back the same two shapes: an [`Answer`] — the
//! canonical body plus the exit code a pipeline gates on, decided here on
//! the outputs and nowhere else — or a [`QueryError`], which a server
//! turns into a typed [`Reject`] (400 for a request at fault, 502 for a
//! failed shard fan-out) and the CLI into exit 1.

use crate::check::CheckOutcome;
use crate::engine::{open_session, render_plan, run, EngineConfig, EngineError, ReportKind};
use crate::incr::{CheckSession, Delta};
use jinjing_lai::{parse_program, validate};
use jinjing_lint::{LintConfig, LintReport, TenantIntent};
use jinjing_net::{AclConfig, Network};
use jinjing_obs::json::JsonWriter;

/// Everything that can go wrong executing a query, as a printable
/// message plus *whose* fault it is — the one distinction a front end
/// needs (see [`Reject`]).
#[derive(Debug)]
pub enum QueryError {
    /// The request is at fault: unparsable or invalid intent, unknown
    /// interface, a bad delta script, an engine budget exceeded.
    Invalid(String),
    /// The shard fan-out behind a delegated check failed — a gateway
    /// fault, not the caller's.
    Shard(String),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (QueryError::Invalid(msg) | QueryError::Shard(msg)) = self;
        write!(f, "{msg}")
    }
}

impl std::error::Error for QueryError {}

fn err(e: impl std::fmt::Display) -> QueryError {
    QueryError::Invalid(e.to_string())
}

impl From<EngineError> for QueryError {
    fn from(e: EngineError) -> QueryError {
        use crate::{fix::FixError, plan::PlanError};
        let msg = e.to_string();
        match e {
            EngineError::Shard(_)
            | EngineError::Fix(FixError::Shard(_))
            | EngineError::Plan(PlanError::Shard(_)) => QueryError::Shard(msg),
            EngineError::Classes(_)
            | EngineError::Fix(_)
            | EngineError::Generate(_)
            | EngineError::Plan(_) => QueryError::Invalid(msg),
        }
    }
}

/// What every front door answers a served query with. The CLI prints
/// `body` and exits with `exit`; the daemon and the coordinator send
/// `body` with `exit` in `X-Jinjing-Exit`. The exit policy lives on the
/// outputs and nowhere else: 3 for an inconsistent check, an infeasible
/// plan or a rejected delta ([`RunOutput::answer`],
/// [`PlanRunOutput::answer`], [`WatchOutput::answer`]), 4 for lint errors
/// ([`LintReport::exit_code`]), otherwise 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// Canonical JSON, newline-terminated.
    pub body: String,
    /// Process exit code / `X-Jinjing-Exit` value.
    pub exit: i32,
}

impl Answer {
    /// The answer to a lint run: the report's JSON and its gate.
    pub fn of_lint(report: &LintReport) -> Answer {
        let mut body = report.to_json();
        body.push('\n');
        Answer {
            body,
            exit: report.exit_code(),
        }
    }
}

/// A query refused: the HTTP status a server answers with (the CLI exits
/// 1 on any of them) and the message for the canonical error document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reject {
    /// HTTP status: 400 for a request at fault, 502 for a failed shard
    /// fan-out, 404 / 408 / 413 from the serving layers.
    pub status: u16,
    /// Human-readable cause.
    pub message: String,
}

impl Reject {
    /// A 400: the request itself is at fault.
    pub fn bad_request(message: impl std::fmt::Display) -> Reject {
        Reject {
            status: 400,
            message: message.to_string(),
        }
    }
}

impl From<QueryError> for Reject {
    fn from(e: QueryError) -> Reject {
        Reject {
            status: match e {
                QueryError::Invalid(_) => 400,
                QueryError::Shard(_) => 502,
            },
            message: e.to_string(),
        }
    }
}

/// One changed slot in the machine-readable plan.
#[derive(Debug, Clone)]
pub struct PlanEntry {
    /// `"device:interface"`.
    pub interface: String,
    /// `"in"` / `"out"`.
    pub direction: String,
    /// The new ACL, one rule per line plus a trailing `default …`.
    pub acl: Vec<String>,
}

/// The machine-readable output of a run.
#[derive(Debug, Clone)]
pub struct PlanDocument {
    /// The command that produced the plan.
    pub command: String,
    /// One-line verdict.
    pub verdict: String,
    /// Changed slots (empty for a bare check).
    pub changes: Vec<PlanEntry>,
}

impl PlanDocument {
    /// Canonical JSON rendering (the `run --format json` output and the
    /// `POST /v1/check|fix|generate` response body): strict JSON, keys in
    /// sorted order, no timings — byte-stable across runs, thread counts
    /// and query-store contents, so golden tests can pin it.
    pub fn to_canonical_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("changes");
        w.begin_array();
        for e in &self.changes {
            w.begin_object();
            w.key("acl");
            w.begin_array();
            for line in &e.acl {
                w.string(line);
            }
            w.end_array();
            w.key("direction");
            w.string(&e.direction);
            w.key("interface");
            w.string(&e.interface);
            w.end_object();
        }
        w.end_array();
        w.key("command");
        w.string(&self.command);
        w.key("verdict");
        w.string(&self.verdict);
        w.end_object();
        let mut out = w.finish();
        out.push('\n');
        out
    }
}

/// Everything one engine query produces.
#[derive(Debug)]
pub struct RunOutput {
    /// Human-readable report text.
    pub text: String,
    /// Machine-readable plan.
    pub plan: PlanDocument,
    /// The run's observability snapshot (spans, metrics, events);
    /// serialize with [`jinjing_obs::Snapshot::to_json`] for
    /// `--metrics-out`.
    pub obs: jinjing_obs::Snapshot,
}

impl RunOutput {
    /// The canonical plan document; a failed bare `check` gates with 3.
    pub fn answer(&self) -> Answer {
        let failed_check =
            self.plan.command == "check" && self.plan.verdict.starts_with("inconsistent");
        Answer {
            body: self.plan.to_canonical_json(),
            exit: if failed_check { 3 } else { 0 },
        }
    }
}

/// Run an LAI program against a network + configuration under an explicit
/// [`EngineConfig`] (thread override, shared query cache, observability
/// collector). This is the one code path behind `jinjing run` and the
/// daemon's one-shot query endpoints.
pub fn run_query(
    net: &Network,
    config: &AclConfig,
    intent_text: &str,
    cfg: &EngineConfig,
) -> Result<RunOutput, QueryError> {
    let intent = ResolvedIntent::new(net, config, intent_text)?;
    run_resolved(net, config, &intent, cfg)
}

/// A parsed, validated and resolved intent program: everything
/// [`run_query`] does before it needs an [`EngineConfig`]. A front door
/// can refuse the intent here (say, one whose command its endpoint does
/// not serve) without building a configuration or running the engine.
pub struct ResolvedIntent {
    command: jinjing_lai::Command,
    task: crate::task::Task,
}

impl ResolvedIntent {
    /// Parse, validate and resolve `intent_text` against `net` / `config`.
    pub fn new(
        net: &Network,
        config: &AclConfig,
        intent_text: &str,
    ) -> Result<ResolvedIntent, QueryError> {
        let program = validate(parse_program(intent_text).map_err(err)?).map_err(err)?;
        let command = program.command.expect("validated programs have a command");
        let task = crate::resolve::resolve(net, &program, config).map_err(err)?;
        Ok(ResolvedIntent { command, task })
    }

    /// The command the program names.
    pub fn command(&self) -> jinjing_lai::Command {
        self.command
    }
}

/// The engine half of [`run_query`], on an intent resolved against the
/// same `net` and `config`.
pub fn run_resolved(
    net: &Network,
    config: &AclConfig,
    intent: &ResolvedIntent,
    cfg: &EngineConfig,
) -> Result<RunOutput, QueryError> {
    let command = intent.command;
    let report = run(net, &intent.task, cfg)?;

    let mut text = String::new();
    use std::fmt::Write;
    let _ = writeln!(text, "command : {command}");
    let _ = writeln!(text, "verdict : {}", report.verdict());
    match &report.kind {
        ReportKind::Check(r) => {
            let _ = writeln!(
                text,
                "classes : {} examined, {} (class,path) pairs",
                r.fec_count, r.paths_checked
            );
            if let CheckOutcome::Inconsistent(v) = &r.outcome {
                let _ = writeln!(text, "witness : {}", v.packet);
                let _ = writeln!(text, "path    : {}", v.path.display(net.topology()));
                let _ = writeln!(
                    text,
                    "decision: desired {}, got {}",
                    if v.desired { "permit" } else { "deny" },
                    if v.actual { "permit" } else { "deny" }
                );
            }
        }
        ReportKind::Fix(p) => {
            for (slot, rule) in &p.added_rules {
                let _ = writeln!(
                    text,
                    "add     : {}-{} ← {}",
                    net.topology().iface_name(slot.iface),
                    slot.dir,
                    rule
                );
            }
        }
        ReportKind::Generate(g) => {
            let _ = writeln!(
                text,
                "classes : {} AECs ({} DEC-split into {}), {} rows",
                g.aec_count, g.aecs_split, g.dec_count, g.rows
            );
        }
        // `engine::run` never yields a lint or plan report (both have
        // their own entry points), but the match must stay exhaustive.
        ReportKind::Lint(_) | ReportKind::Plan(_) => {}
    }

    let changes = match report.deployable() {
        None => Vec::new(),
        Some(to) => render_plan(net, config, to)
            .into_iter()
            .map(|(slot, _, _)| PlanEntry {
                interface: net.topology().iface_name(slot.iface),
                direction: slot.dir.to_string(),
                // Fix and generate only ever set slots; an absent one
                // would behave as permit-all, as in a rollout step.
                acl: to
                    .get(slot)
                    .cloned()
                    .unwrap_or_else(jinjing_acl::Acl::permit_all)
                    .lines(),
            })
            .collect(),
    };
    let plan = PlanDocument {
        command: command.to_string(),
        verdict: report.verdict(),
        changes,
    };
    Ok(RunOutput {
        text,
        plan,
        obs: report.obs,
    })
}

/// Everything one rollout-plan query produces.
#[derive(Debug)]
pub struct PlanRunOutput {
    /// Human-readable report text.
    pub text: String,
    /// Canonical JSON body (the `jinjing plan --format json` output and
    /// the `POST /v1/plan` response, byte-identical).
    pub json: String,
    /// `false` when no safe ordering exists (CLI exit 3, and the
    /// daemon's `X-Jinjing-Exit: 3`).
    pub feasible: bool,
    /// The run's observability snapshot (`plan.*` spans and counters).
    pub obs: jinjing_obs::Snapshot,
}

impl PlanRunOutput {
    /// The canonical rollout document; an unorderable update gates with 3.
    pub fn answer(&self) -> Answer {
        Answer {
            body: self.json.clone(),
            exit: if self.feasible { 0 } else { 3 },
        }
    }
}

/// Render a [`RolloutPlan`](crate::plan::RolloutPlan) as canonical JSON:
/// strict JSON, keys in sorted order, no wall-clock — byte-stable across
/// runs, thread counts and query-store contents.
pub fn render_rollout_json(net: &Network, rollout: &crate::plan::RolloutPlan) -> String {
    use crate::plan::PlanOutcome;
    let topo = net.topology();
    let (waves, certificates, core): (&[Vec<usize>], &[crate::plan::WaveCertificate], &[usize]) =
        match &rollout.outcome {
            PlanOutcome::Feasible {
                waves,
                certificates,
            } => (waves, certificates, &[]),
            PlanOutcome::Infeasible { core } => (&[], &[], core),
        };
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("certificates");
    w.begin_array();
    for c in certificates {
        w.begin_object();
        w.key("commuting");
        w.bool(c.commuting);
        w.key("dirty_pairs");
        w.u64(c.dirty_pairs as u64);
        w.key("fec_count");
        w.u64(c.fec_count as u64);
        w.key("paths_checked");
        w.u64(c.paths_checked as u64);
        w.key("state");
        w.begin_array();
        for d in &c.state {
            w.string(d);
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.key("command");
    w.string("plan");
    w.key("core");
    w.begin_array();
    for &i in core {
        w.string(&rollout.steps[i].device);
    }
    w.end_array();
    w.key("stats");
    w.begin_object();
    w.key("dirty_pairs");
    w.u64(rollout.stats.dirty_pairs as u64);
    w.key("pairs_ceiling");
    w.u64(rollout.stats.pairs_ceiling as u64);
    w.key("prefix_attempts");
    w.u64(rollout.stats.prefix_attempts as u64);
    w.key("prefix_checks");
    w.u64(rollout.stats.prefix_checks as u64);
    w.key("pruned_memo");
    w.u64(rollout.stats.pruned_memo as u64);
    w.key("pruned_witness");
    w.u64(rollout.stats.pruned_witness as u64);
    w.end_object();
    w.key("steps");
    w.begin_array();
    for s in &rollout.steps {
        w.begin_object();
        w.key("device");
        w.string(&s.device);
        w.key("slots");
        w.begin_array();
        for (slot, acl) in &s.edits {
            w.begin_object();
            w.key("acl");
            w.begin_array();
            let effective = acl.clone().unwrap_or_else(jinjing_acl::Acl::permit_all);
            for line in effective.lines() {
                w.string(&line);
            }
            w.end_array();
            w.key("direction");
            w.string(&slot.dir.to_string());
            w.key("interface");
            w.string(&topo.iface_name(slot.iface));
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.key("verdict");
    w.string(&rollout.verdict());
    w.key("waves");
    w.begin_array();
    for wave in waves {
        w.begin_array();
        for &i in wave {
            w.string(&rollout.steps[i].device);
        }
        w.end_array();
    }
    w.end_array();
    w.end_object();
    let mut out = w.finish();
    out.push('\n');
    out
}

/// Synthesize a certified rollout plan from an LAI intent: parse +
/// validate the program, resolve it, derive the target configuration —
/// the current configuration with `target_text` (a delta script) applied,
/// or the intent's own update when `target_text` is `None` — and run
/// [`engine::plan`](crate::engine::plan). The one code path behind
/// `jinjing plan` and the daemon's `POST /v1/plan`.
pub fn plan_query(
    net: &Network,
    config: &AclConfig,
    intent_text: &str,
    target_text: Option<&str>,
    cfg: &EngineConfig,
) -> Result<PlanRunOutput, QueryError> {
    use crate::plan::PlanOutcome;
    // With an explicit target the intent may be a bare scope (+controls):
    // the update arrives as a delta script, not as modifies.
    let parsed = parse_program(intent_text).map_err(err)?;
    let program = match target_text {
        Some(_) => jinjing_lai::validate_plan_intent(parsed).map_err(err)?,
        None => validate(parsed).map_err(err)?,
    };
    let task = crate::resolve::resolve(net, &program, config).map_err(err)?;
    let target = match target_text {
        Some(text) => {
            let deltas = crate::incr::parse_delta_script(net, text).map_err(err)?;
            let mut t = config.clone();
            for (_label, d) in &deltas {
                t = d.applied_to(&t);
            }
            t
        }
        None => task.after.clone(),
    };
    let report = crate::engine::plan(net, &task, &target, cfg)?;
    let ReportKind::Plan(rollout) = &report.kind else {
        unreachable!("engine::plan yields a plan report")
    };

    use std::fmt::Write;
    let mut text = String::new();
    let _ = writeln!(text, "command : plan");
    let _ = writeln!(text, "verdict : {}", rollout.verdict());
    for s in &rollout.steps {
        let _ = writeln!(text, "step    : {} — {} slot(s)", s.device, s.edits.len());
    }
    match &rollout.outcome {
        PlanOutcome::Feasible { waves, .. } => {
            for (k, wave) in waves.iter().enumerate() {
                let devices: Vec<&str> = wave
                    .iter()
                    .map(|&i| rollout.steps[i].device.as_str())
                    .collect();
                let _ = writeln!(text, "wave {:<3}: {}", k + 1, devices.join(", "));
            }
        }
        PlanOutcome::Infeasible { core } => {
            let devices: Vec<&str> = core
                .iter()
                .map(|&i| rollout.steps[i].device.as_str())
                .collect();
            let _ = writeln!(text, "core    : {}", devices.join(", "));
        }
    }
    let _ = writeln!(
        text,
        "checks  : {} probed / {} attempted, {} dirty pairs vs ceiling {}",
        rollout.stats.prefix_checks,
        rollout.stats.prefix_attempts,
        rollout.stats.dirty_pairs,
        rollout.stats.pairs_ceiling
    );

    Ok(PlanRunOutput {
        text,
        json: render_rollout_json(net, rollout),
        feasible: rollout.is_feasible(),
        obs: report.obs,
    })
}

/// One step of a watch session (one delta's re-check).
#[derive(Debug, Clone)]
pub struct WatchStep {
    /// The delta's label from the script (`step <label>`).
    pub label: String,
    /// `"consistent"` or `"inconsistent (witness …)"`.
    pub verdict: String,
    /// Whether the delta was folded into the session base.
    pub applied: bool,
    /// FEC classes whose cubes intersect this delta's differential cover.
    pub dirty_classes: usize,
    /// FEC classes untouched by the delta (verdicts reused).
    pub clean_classes: usize,
    /// `(class, path)` pairs dispatched to the solver.
    pub dirty_pairs: usize,
    /// FECs examined (0 on the empty-cover fast path).
    pub fec_count: usize,
    /// Pairs folded into the report.
    pub paths_checked: usize,
    /// Query-store generation the step ran under.
    pub generation: u64,
    /// Stale cache entries evicted after the step.
    pub evicted: usize,
}

/// Everything a watch session (or one daemon delta batch) produces.
#[derive(Debug)]
pub struct WatchOutput {
    /// Human-readable transcript.
    pub text: String,
    /// Per-delta summaries, in script order.
    pub steps: Vec<WatchStep>,
    /// How many deltas were rejected (inconsistent).
    pub rejected: usize,
    /// FEC classes in the session partition.
    pub class_count: usize,
    /// The session's observability snapshot (`incr.*` spans/counters plus
    /// one `check` span tree per step).
    pub obs: jinjing_obs::Snapshot,
}

impl WatchOutput {
    /// Package an already-executed step batch. `rejected` and the
    /// transcript are derived from the steps, so a daemon rendering one
    /// delta request and the CLI rendering a whole script produce the
    /// same bytes for the same steps.
    pub fn from_steps(
        class_count: usize,
        delta_count: usize,
        steps: Vec<WatchStep>,
        obs: jinjing_obs::Snapshot,
    ) -> WatchOutput {
        use std::fmt::Write;
        let mut text = String::new();
        let _ = writeln!(
            text,
            "session : {class_count} classes, {delta_count} delta(s)"
        );
        for s in &steps {
            let _ = writeln!(
                text,
                "step    : {}: {}{} — {} dirty / {} clean classes, {} pairs",
                s.label,
                s.verdict,
                if s.applied { "" } else { " [rejected]" },
                s.dirty_classes,
                s.clean_classes,
                s.dirty_pairs
            );
        }
        let rejected = steps.iter().filter(|s| !s.applied).count();
        let _ = writeln!(
            text,
            "steps   : {} total, {} rejected",
            steps.len(),
            rejected
        );
        WatchOutput {
            text,
            steps,
            rejected,
            class_count,
            obs,
        }
    }

    /// The canonical watch document; any rejected delta gates with 3.
    pub fn answer(&self) -> Answer {
        Answer {
            body: self.to_canonical_json(),
            exit: if self.rejected > 0 { 3 } else { 0 },
        }
    }

    /// Canonical JSON rendering (the `watch --format json` output and the
    /// daemon's session-delta response body): strict JSON, sorted keys,
    /// no timings — byte-stable across runs, thread counts and cache
    /// settings.
    pub fn to_canonical_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("class_count");
        w.u64(self.class_count as u64);
        w.key("rejected");
        w.u64(self.rejected as u64);
        w.key("steps");
        w.begin_array();
        for s in &self.steps {
            w.begin_object();
            w.key("applied");
            w.bool(s.applied);
            w.key("clean_classes");
            w.u64(s.clean_classes as u64);
            w.key("dirty_classes");
            w.u64(s.dirty_classes as u64);
            w.key("dirty_pairs");
            w.u64(s.dirty_pairs as u64);
            w.key("evicted");
            w.u64(s.evicted as u64);
            w.key("fec_count");
            w.u64(s.fec_count as u64);
            w.key("generation");
            w.u64(s.generation);
            w.key("label");
            w.string(&s.label);
            w.key("paths_checked");
            w.u64(s.paths_checked as u64);
            w.key("verdict");
            w.string(&s.verdict);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        let mut out = w.finish();
        out.push('\n');
        out
    }
}

/// Open a [`CheckSession`] from an LAI intent: parse + validate the
/// program, resolve it against the current configuration, and seed the
/// session from the task's scope, controls and *current* configuration
/// (the update in the program body, if any, is ignored — deltas arrive
/// through [`recheck_steps`]). The daemon's `POST /v1/sessions` hook.
pub fn open_intent_session<'n>(
    net: &'n Network,
    config: &AclConfig,
    intent_text: &str,
    cfg: &EngineConfig,
) -> Result<CheckSession<'n>, QueryError> {
    let program = validate(parse_program(intent_text).map_err(err)?).map_err(err)?;
    let task = crate::resolve::resolve(net, &program, config).map_err(err)?;
    Ok(open_session(net, &task, cfg)?)
}

/// Run a batch of labeled deltas through a session, one
/// [`CheckSession::recheck`] per delta, returning the per-step summaries
/// in script order. Consistent deltas advance the session base;
/// inconsistent ones are rejected and leave it untouched. The daemon's
/// `POST /v1/sessions/{id}/delta` hook, and the loop inside
/// [`watch_query`].
pub fn recheck_steps(
    session: &mut CheckSession<'_>,
    deltas: &[(String, Delta)],
) -> Result<Vec<WatchStep>, QueryError> {
    let mut steps = Vec::with_capacity(deltas.len());
    for (label, delta) in deltas {
        let r = session.recheck(delta).map_err(EngineError::from)?;
        let verdict = match &r.report.outcome {
            CheckOutcome::Consistent => "consistent".to_string(),
            CheckOutcome::Inconsistent(v) => format!("inconsistent (witness {})", v.packet),
        };
        steps.push(WatchStep {
            label: label.clone(),
            verdict,
            applied: r.applied,
            dirty_classes: r.incr.dirty_classes,
            clean_classes: r.incr.clean_classes,
            dirty_pairs: r.incr.dirty_pairs,
            fec_count: r.report.fec_count,
            paths_checked: r.report.paths_checked,
            generation: r.generation,
            evicted: r.evicted,
        });
    }
    Ok(steps)
}

/// Run an incremental check session over a whole delta script (the
/// `jinjing watch` / `run --session` path): open the session, parse the
/// script, feed every delta through [`recheck_steps`] and package the
/// result. Verdicts are byte-identical to cold per-step checks.
pub fn watch_query(
    net: &Network,
    config: &AclConfig,
    intent_text: &str,
    deltas_text: &str,
    cfg: &EngineConfig,
) -> Result<WatchOutput, QueryError> {
    let deltas = crate::incr::parse_delta_script(net, deltas_text).map_err(err)?;
    let mut session = open_intent_session(net, config, intent_text, cfg)?;
    let class_count = session.class_count();
    let steps = recheck_steps(&mut session, &deltas)?;
    Ok(WatchOutput::from_steps(
        class_count,
        deltas.len(),
        steps,
        cfg.check.obs.snapshot(),
    ))
}

/// Everything a lint run produces.
#[derive(Debug)]
pub struct LintOutput {
    /// The merged, sorted diagnostics from every analysis layer.
    pub report: LintReport,
    /// The run's observability snapshot (`lint.*` spans and counters).
    pub obs: jinjing_obs::Snapshot,
}

fn lint_output(out: crate::engine::Report) -> LintOutput {
    let ReportKind::Lint(report) = out.kind else {
        unreachable!("engine::lint yields a lint report")
    };
    LintOutput {
        report,
        obs: out.obs,
    }
}

/// Lint a network + configuration and, when given, one LAI intent: parse
/// and validate the program, then run
/// [`engine::lint`](crate::engine::lint). The one code path behind
/// `jinjing lint` and the daemon's `POST /v1/lint`; [`Answer::of_lint`]
/// renders the report.
pub fn lint_query(
    net: &Network,
    config: &AclConfig,
    intent_text: Option<&str>,
    cfg: &LintConfig,
) -> Result<LintOutput, QueryError> {
    let program = match intent_text {
        Some(text) => Some(validate(parse_program(text).map_err(err)?).map_err(err)?),
        None => None,
    };
    let out = crate::engine::lint(net, config, program.as_ref(), cfg);
    Ok(lint_output(out))
}

/// The cross-tenant lint pass over `(tenant, intent text)` pairs: parse
/// and validate each program (errors name the tenant), then run
/// [`engine::lint_multi`](crate::engine::lint_multi) under the given
/// `priority` order. The one code path behind
/// `jinjing lint --intent tenant=FILE ...` and `POST /v1/lint/multi`.
pub fn lint_multi_query(
    net: &Network,
    config: &AclConfig,
    tenants: &[(String, String)],
    priority: &[String],
    cfg: &LintConfig,
) -> Result<LintOutput, QueryError> {
    let mut intents = Vec::with_capacity(tenants.len());
    for (name, text) in tenants {
        let program = parse_program(text)
            .map_err(err)
            .and_then(|p| validate(p).map_err(err))
            .map_err(|e| QueryError::Invalid(format!("tenant {name}: {e}")))?;
        intents.push(TenantIntent::new(name.clone(), program));
    }
    let out = crate::engine::lint_multi(net, config, &intents, priority, cfg);
    Ok(lint_output(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figure1::Figure1;

    const CHECK_INTENT: &str = "\
acl PermitAll { permit all }
scope A:*, B:*, C:*, D:*
allow A:*, B:*
modify D:2 to PermitAll
check
";

    #[test]
    fn run_query_is_byte_stable() {
        let f = Figure1::new();
        let render = || {
            run_query(&f.net, &f.config, CHECK_INTENT, &EngineConfig::default())
                .unwrap()
                .plan
                .to_canonical_json()
        };
        let json = render();
        assert!(json.starts_with("{\"changes\":["), "{json}");
        assert!(json.contains("\"command\":\"check\""), "{json}");
        assert!(json.ends_with("}\n"));
        assert_eq!(json, render());
    }

    #[test]
    fn watch_query_batches_equal_one_shot_script() {
        // The serving contract in miniature: a daemon replaying the same
        // deltas in two batches must concatenate to the same steps as the
        // CLI's one-shot script run.
        let f = Figure1::new();
        let script = "step a\nset D:2 deny dst 2.0.0.0/8; deny dst 1.0.0.0/8\nstep b\n";
        let whole = watch_query(
            &f.net,
            &f.config,
            CHECK_INTENT,
            script,
            &EngineConfig::default(),
        )
        .unwrap();

        let cfg = EngineConfig::default();
        let mut session = open_intent_session(&f.net, &f.config, CHECK_INTENT, &cfg).unwrap();
        let class_count = session.class_count();
        let deltas = crate::incr::parse_delta_script(&f.net, script).unwrap();
        let first = recheck_steps(&mut session, &deltas[..1]).unwrap();
        let second = recheck_steps(&mut session, &deltas[1..]).unwrap();
        let batch1 = WatchOutput::from_steps(class_count, 1, first, cfg.check.obs.snapshot());
        let batch2 = WatchOutput::from_steps(class_count, 1, second, cfg.check.obs.snapshot());
        let mut merged: Vec<WatchStep> = batch1.steps;
        merged.extend(batch2.steps);
        let merged = WatchOutput::from_steps(class_count, 2, merged, cfg.check.obs.snapshot());
        assert_eq!(merged.to_canonical_json(), whole.to_canonical_json());
    }

    /// A semantically invisible update (D:2's denies reordered).
    const CONSISTENT_INTENT: &str = "\
acl D2r {
    deny dst 2.0.0.0/8
    deny dst 1.0.0.0/8
    permit all
}
scope A:*, B:*, C:*, D:*
allow D:*
modify D:2 to D2r
check
";

    #[test]
    fn the_exit_policy_lives_on_the_outputs() {
        let f = Figure1::new();
        let cfg = EngineConfig::default();
        let run = |intent: &str| run_query(&f.net, &f.config, intent, &cfg).unwrap().answer();
        assert_eq!(run(CONSISTENT_INTENT).exit, 0);
        let failed = run(CHECK_INTENT);
        assert_eq!(failed.exit, 3, "a failed bare check gates");
        assert!(failed.body.ends_with("}\n"), "{}", failed.body);
        // Only `check` gates on its verdict: fix of the same update repairs it.
        assert_eq!(run(&CHECK_INTENT.replace("\ncheck\n", "\nfix\n")).exit, 0);

        let watch = |script: &str| {
            watch_query(&f.net, &f.config, CHECK_INTENT, script, &cfg)
                .unwrap()
                .answer()
        };
        assert_eq!(watch("step noop\n").exit, 0);
        assert_eq!(watch("step open\nset D:2 permit all\n").exit, 3);

        let plan = |target: &str| {
            let scope = "scope A:*, B:*, C:*, D:*\ncheck\n";
            let out = plan_query(&f.net, &f.config, scope, Some(target), &cfg).unwrap();
            assert_eq!(out.answer().body, out.json);
            out.answer().exit
        };
        assert_eq!(plan("step noop\n"), 0);
        assert_eq!(plan("step open\nclear D:2\n"), 3, "no safe ordering");

        use jinjing_lint::{Diagnostic, Severity};
        let mut report = LintReport::new();
        report.push(Diagnostic::new("JL301", Severity::Warning, "multi:x", "m"));
        assert_eq!(Answer::of_lint(&report).exit, 0);
        report.push(Diagnostic::new("JL201", Severity::Error, "spec:x", "m"));
        let gated = Answer::of_lint(&report);
        assert_eq!(gated.exit, 4);
        assert_eq!(gated.body, report.to_json() + "\n");
    }

    #[test]
    fn a_failed_fan_out_rejects_with_502_and_a_bad_request_with_400() {
        #[derive(Debug)]
        struct DeadBackend;
        impl crate::check::CheckDelegate for DeadBackend {
            fn check(
                &self,
                _: &AclConfig,
                _: &AclConfig,
            ) -> Result<Option<(usize, usize)>, String> {
                Err("shard 1/2: backend down".to_string())
            }
        }
        let f = Figure1::new();
        let mut cfg = EngineConfig::default();
        cfg.check.delegate = Some(std::sync::Arc::new(DeadBackend));
        let script = "step a\nset D:2 deny dst 2.0.0.0/8; deny dst 1.0.0.0/8\n";
        // Fix's search is local, but its certification check is the run's
        // check, delegate included: it fails through `FixError::Shard`.
        let fix_intent = CHECK_INTENT.replace("\ncheck\n", "\nfix\n");
        let failures = [
            run_query(&f.net, &f.config, CHECK_INTENT, &cfg).map(|_| ()),
            run_query(&f.net, &f.config, &fix_intent, &cfg).map(|_| ()),
            plan_query(&f.net, &f.config, CHECK_INTENT, None, &cfg).map(|_| ()),
            watch_query(&f.net, &f.config, CHECK_INTENT, script, &cfg).map(|_| ()),
        ];
        for failure in failures {
            let reject = Reject::from(failure.unwrap_err());
            assert_eq!(reject.status, 502, "{}", reject.message);
            assert_eq!(
                reject.message,
                "shard fan-out failed: shard 1/2: backend down"
            );
        }
        // The same queries at fault themselves are the caller's problem.
        let bad = run_query(&f.net, &f.config, "scope Z:*\ncheck\n", &cfg).unwrap_err();
        assert_eq!(Reject::from(bad).status, 400);
        let bad = lint_multi_query(
            &f.net,
            &f.config,
            &[("alpha".to_string(), "scope Z:*".to_string())],
            &[],
            &LintConfig::default(),
        )
        .unwrap_err();
        let reject = Reject::from(bad);
        assert_eq!(reject.status, 400);
        assert!(
            reject.message.starts_with("tenant alpha: "),
            "{}",
            reject.message
        );
    }

    #[test]
    fn query_errors_are_messages_not_panics() {
        let f = Figure1::new();
        let e = run_query(
            &f.net,
            &f.config,
            "scope Z:*\ncheck\n",
            &EngineConfig::default(),
        )
        .unwrap_err();
        assert!(!e.to_string().is_empty());
        let e = watch_query(
            &f.net,
            &f.config,
            CHECK_INTENT,
            "set Z:9 permit all\n",
            &EngineConfig::default(),
        )
        .unwrap_err();
        assert!(e.to_string().contains("unknown interface"), "{e}");
    }
}
