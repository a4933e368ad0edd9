//! The **incremental re-check engine**: Theorem 4.1 applied across *time*.
//!
//! The paper's target workload is a stream of small ACL edits against a
//! mostly-stable WAN. A cold [`check_configs`](crate::check::check_configs)
//! re-derives the FEC partition, re-enumerates every class's paths and
//! re-solves every `(class, path)` query on each invocation — even though
//! consecutive edits touch a handful of slots and their differential covers
//! miss almost every class. [`CheckSession`] keeps the config-independent
//! work alive between invocations:
//!
//! 1. **Dirty-set derivation.** Each delta's differential rules (Def. 4.1
//!    computed against the session base) yield a packet cover `H`; a class
//!    is *dirty* iff its cube intersects `H`. Clean classes meet identical
//!    rule subsequences before and after the delta, so their verdicts are
//!    reused without any solver work — the same theorem that prunes a
//!    single check, applied across the edit stream.
//! 2. **Persistent query reuse.** Stage-1 queries land in a
//!    generation-tagged [`QueryCache`] that survives across re-checks;
//!    each `recheck` advances the generation and evicts entries unused for
//!    [`KEEP_GENERATIONS`] steps, so the cache tracks the
//!    *live* decision models of the evolving configuration instead of
//!    growing without bound.
//! 3. **Structural memoization.** The FEC partition and per-class path
//!    sets are pure functions of `(net, scope, controls)`; the session
//!    holds the one [`ScopeModel`] that derives them (paths lazily, per
//!    class) and probes it per delta, where a cold check builds a fresh
//!    model for its single probe.
//!
//! **Equivalence contract.** `session.recheck(delta)` produces a
//! [`CheckReport`] *byte-identical* to a cold
//! `check_configs(net, scope, base, base ⊕ delta, controls, cfg)` —
//! same verdict and witness, same FEC/path/rule counts, same folded solver
//! statistics — because both run the same [`mod@crate::check`] body on a
//! scope model; the session's model merely already holds what the cold
//! one derives. Wall-clock splits differ (that is the point), and the
//! session adds the `check.incr_dirty` / `check.incr_clean` /
//! `check.incr_dirty_pairs` / `incr.cover_rebuilds` counters to the obs
//! stream from the ledger the body returns.
//! `tests/incr_oracle.rs` pins the contract over random 50-step edit
//! sequences across thread counts, with a private and a shared store.
//!
//! Topology or routing changes invalidate the memoized partition: drop
//! the session and build a new one (the query cache can be shared across
//! sessions via [`CheckSession::config`]'s `cache` handle, since its keys
//! are structural over ACL chains, not over the topology).

use crate::check::{
    check_inner, scope_model, CheckConfig, CheckError, CheckReport, CoverMemo, IncrStats,
};
use crate::control::ResolvedControl;
use crate::qcache::QueryCache;
use crate::task::Task;
use jinjing_acl::atoms::ClassExplosion;
use jinjing_acl::Acl;
use jinjing_net::{AclConfig, Dir, Network, Scope, ScopeModel, Slot};
use std::fmt;

/// Cache-eviction window: after each re-check, query-store entries whose
/// last use is more than this many generations old are dropped.
pub const KEEP_GENERATIONS: u64 = 8;

/// One edit inside a [`Delta`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaEdit {
    /// Install (or replace) the ACL at a slot.
    Set(Slot, Acl),
    /// Remove the ACL at a slot (reverting it to implicit permit-all).
    Clear(Slot),
}

impl DeltaEdit {
    /// The slot this edit touches.
    pub fn slot(&self) -> Slot {
        match self {
            DeltaEdit::Set(s, _) | DeltaEdit::Clear(s) => *s,
        }
    }
}

/// A configuration delta: an ordered list of slot edits. Applying a delta
/// is last-writer-wins per slot, mirroring how an operator pushes ACL
/// updates device by device.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Delta {
    edits: Vec<DeltaEdit>,
}

impl Delta {
    /// The empty delta.
    pub fn new() -> Delta {
        Delta::default()
    }

    /// Append "install `acl` at `slot`".
    pub fn set(mut self, slot: Slot, acl: Acl) -> Delta {
        self.edits.push(DeltaEdit::Set(slot, acl));
        self
    }

    /// Append "clear the ACL at `slot`".
    pub fn clear(mut self, slot: Slot) -> Delta {
        self.edits.push(DeltaEdit::Clear(slot));
        self
    }

    /// The edits, in application order.
    pub fn edits(&self) -> &[DeltaEdit] {
        &self.edits
    }

    /// `true` when there are no edits.
    pub fn is_empty(&self) -> bool {
        self.edits.is_empty()
    }

    /// Number of edits.
    pub fn len(&self) -> usize {
        self.edits.len()
    }

    /// The configuration obtained by applying this delta to `base`.
    pub fn applied_to(&self, base: &AclConfig) -> AclConfig {
        let mut out = base.clone();
        for e in &self.edits {
            match e {
                DeltaEdit::Set(slot, acl) => out.set(*slot, acl.clone()),
                DeltaEdit::Clear(slot) => {
                    out.clear(*slot);
                }
            }
        }
        out
    }
}

/// What one [`CheckSession::recheck`] step produced.
#[derive(Debug, Clone)]
pub struct RecheckReport {
    /// The check report — byte-identical to a cold check of
    /// `(base, base ⊕ delta)` (see the module-level equivalence contract).
    pub report: CheckReport,
    /// The incremental ledger: dirty/clean class split and dispatched
    /// pair count for this delta.
    pub incr: IncrStats,
    /// The query-store generation this step ran under.
    pub generation: u64,
    /// Stale cache entries evicted after this step.
    pub evicted: usize,
    /// Whether the delta was folded into the session base: the paper's
    /// workflow applies a consistent delta and rejects a violating one,
    /// so the next delta is checked against the same deployed base.
    pub applied: bool,
}

/// A long-lived incremental checking session over a fixed network, scope
/// and control set. See the module docs for the reuse structure and the
/// equivalence contract.
pub struct CheckSession<'n> {
    model: ScopeModel<'n>,
    covers: CoverMemo,
    controls: Vec<ResolvedControl>,
    base: AclConfig,
    cfg: CheckConfig,
    steps: u64,
}

impl<'n> CheckSession<'n> {
    /// Open a session with the default check configuration (no controls).
    pub fn new(
        net: &'n Network,
        scope: Scope,
        base: AclConfig,
    ) -> Result<CheckSession<'n>, ClassExplosion> {
        CheckSession::with_configs(net, scope, Vec::new(), base, CheckConfig::default())
    }

    /// Open a session for a resolved check task: scope, controls and the
    /// *current* configuration (`task.before`) seed the session.
    pub fn for_task(
        net: &'n Network,
        task: &Task,
        cfg: CheckConfig,
    ) -> Result<CheckSession<'n>, ClassExplosion> {
        CheckSession::with_configs(
            net,
            task.scope.clone(),
            task.controls.clone(),
            task.before.clone(),
            cfg,
        )
    }

    /// Open a fully configured session. Derives the FEC partition up
    /// front (the one-off cost a cold check pays on *every* invocation);
    /// per-class paths are enumerated lazily as deltas dirty them.
    pub fn with_configs(
        net: &'n Network,
        scope: Scope,
        controls: Vec<ResolvedControl>,
        base: AclConfig,
        cfg: CheckConfig,
    ) -> Result<CheckSession<'n>, ClassExplosion> {
        let sp = cfg.obs.span("incr.init");
        let model = scope_model(net, scope, &controls, cfg.refine_limits);
        let classes = model.classes()?.len();
        sp.finish();
        cfg.obs.event(
            jinjing_obs::Level::Info,
            "incr.open",
            &format!("session open: {classes} classes"),
        );
        Ok(CheckSession {
            model,
            covers: CoverMemo::default(),
            controls,
            base,
            cfg,
            steps: 0,
        })
    }

    /// The current session base configuration.
    pub fn base(&self) -> &AclConfig {
        &self.base
    }

    /// The session's check configuration (its `cache` handle is the
    /// persistent generation-tagged cache).
    pub fn config(&self) -> &CheckConfig {
        &self.cfg
    }

    /// Number of `recheck` steps taken so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Number of FEC classes in the memoized partition.
    pub fn class_count(&self) -> usize {
        self.model.known_classes()
    }

    /// Total `(class, path)` pairs over *all* classes — the full workload
    /// a cold check would consider before Theorem 4.1 pruning. Forces (and
    /// memoizes) path enumeration for every class; the dirty-pair counts
    /// in [`RecheckReport::incr`] are measured against this ceiling.
    pub fn total_pairs(&self) -> usize {
        (0..self.class_count())
            .map(|i| self.model.paths_for(i).len())
            .sum()
    }

    /// Re-check the session base against `base ⊕ delta`.
    ///
    /// Advances the cache generation, runs the shared check body on the
    /// session's model (clean classes replayed, dirty stage-1 queries served
    /// from the persistent cache where possible), evicts stale cache
    /// entries, and — when the delta is consistent — folds it into the
    /// base so the next `recheck` is measured against it.
    pub fn recheck(&mut self, delta: &Delta) -> Result<RecheckReport, CheckError> {
        let after = delta.applied_to(&self.base);
        let generation = self.cfg.cache.advance_generation();
        let (report, incr) = self.probe(&after)?;
        let evicted = self.cfg.cache.evict_stale(KEEP_GENERATIONS);
        let applied = report.outcome.is_consistent();
        if applied {
            self.base = after;
        }
        self.steps += 1;
        self.cfg.obs.event(
            jinjing_obs::Level::Info,
            "incr.step",
            &format!(
                "step {}: {} ({} dirty / {} clean classes, {} pairs, {} evicted)",
                self.steps,
                if applied { "accepted" } else { "rejected" },
                incr.dirty_classes,
                incr.clean_classes,
                incr.dirty_pairs,
                evicted
            ),
        );
        Ok(RecheckReport {
            report,
            incr,
            generation,
            evicted,
            applied,
        })
    }

    /// Check the session base against an arbitrary candidate configuration
    /// **without advancing the session**: the base is never folded, the
    /// step counter and store generation stay put, and nothing is
    /// evicted. The report is byte-identical to a cold
    /// `check_configs(net, scope, base, after, controls, cfg)` — the same
    /// shared body runs, merely on a model that already holds the
    /// partition — which is the contract `crate::plan`'s prefix-state certification leans on: every
    /// intermediate rollout state is judged against the *fixed* deployed
    /// base, not against a previously probed candidate.
    ///
    /// Sound to interleave freely with [`CheckSession::recheck`]: the query
    /// store keys on ACL-chain *content*, so entries recorded under one
    /// candidate configuration can never answer for a different one.
    pub fn probe(&self, after: &AclConfig) -> Result<(CheckReport, IncrStats), CheckError> {
        let checked = check_inner(
            &self.model,
            &self.base,
            after,
            &self.controls,
            &self.cfg,
            &self.covers,
        )?;
        // The session-only ledger in the obs stream. A cold run never emits
        // these, so a cold snapshot and a session one differ by exactly this
        // family (plus cache hit/miss counts) — the shape contract
        // `tests/incr_oracle.rs` pins.
        let obs = &self.cfg.obs;
        let incr = checked.incr;
        obs.counter_add("incr.cover_rebuilds", checked.cover_rebuilds as u64);
        obs.counter_add("check.incr_dirty", incr.dirty_classes as u64);
        obs.counter_add("check.incr_clean", incr.clean_classes as u64);
        obs.counter_add("check.incr_dirty_pairs", incr.dirty_pairs as u64);
        Ok((checked.report, incr))
    }

    /// Handle to the persistent query store.
    pub fn cache(&self) -> &std::sync::Arc<QueryCache> {
        &self.cfg.cache
    }
}

// ---------------------------------------------------------------------------
// Delta scripts (the `jinjing watch` input format)
// ---------------------------------------------------------------------------

/// A parse failure in a delta script.
#[derive(Debug, Clone)]
pub struct DeltaScriptError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for DeltaScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "delta script line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for DeltaScriptError {}

fn script_err(line: usize, message: impl Into<String>) -> DeltaScriptError {
    DeltaScriptError {
        line,
        message: message.into(),
    }
}

/// Resolve `DEV:IFACE[-in|-out]` (direction defaults to `in`, matching
/// LAI's `modify`) to a concrete slot.
fn parse_slot(net: &Network, line: usize, token: &str) -> Result<Slot, DeltaScriptError> {
    let (name, dir) = match token.rsplit_once('-') {
        Some((n, "in")) => (n, Dir::In),
        Some((n, "out")) => (n, Dir::Out),
        _ => (token, Dir::In),
    };
    let (dev, iface) = name
        .split_once(':')
        .ok_or_else(|| script_err(line, format!("slot {token:?} is not DEV:IFACE[-in|-out]")))?;
    let id = net
        .topology()
        .iface_by_name(dev, iface)
        .ok_or_else(|| script_err(line, format!("unknown interface {dev}:{iface}")))?;
    Ok(Slot { iface: id, dir })
}

/// Parse a delta script: a sequence of labeled deltas for
/// [`CheckSession::recheck`], one edit per line.
///
/// ```text
/// # comment (blank lines ignored)
/// step tighten-D2                  # begins a new delta
/// set D:2 deny dst 1.0.0.0/8; deny dst 2.0.0.0/8
/// set A:3-out deny dst 7.0.0.0/8; default permit
/// clear C:1
/// step revert
/// clear A:3-out
/// ```
///
/// `set` takes a slot and a one-line ACL — rules separated by `;`, the
/// grammar of [`jinjing_acl::parse::parse_acl`] (including a trailing
/// `default permit|deny`). Edits before any `step` form an implicit first
/// delta labeled `step-1`.
pub fn parse_delta_script(
    net: &Network,
    text: &str,
) -> Result<Vec<(String, Delta)>, DeltaScriptError> {
    let mut out: Vec<(String, Delta)> = Vec::new();
    let mut current: Option<(String, Delta)> = None;
    for (i, raw) in text.lines().enumerate() {
        let ln = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("step") {
            if rest.is_empty() || rest.starts_with(char::is_whitespace) {
                if let Some(done) = current.take() {
                    out.push(done);
                }
                let label = rest.trim();
                let label = if label.is_empty() {
                    format!("step-{}", out.len() + 1)
                } else {
                    label.to_string()
                };
                current = Some((label, Delta::new()));
                continue;
            }
        }
        let (keyword, rest) = line.split_once(char::is_whitespace).ok_or_else(|| {
            script_err(ln, format!("expected `set`/`clear`/`step`, got {line:?}"))
        })?;
        let rest = rest.trim();
        let entry =
            current.get_or_insert_with(|| (format!("step-{}", out.len() + 1), Delta::new()));
        match keyword {
            "set" => {
                let (slot_tok, acl_text) = rest
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| script_err(ln, "`set` needs a slot and an ACL"))?;
                let slot = parse_slot(net, ln, slot_tok)?;
                let acl_text = acl_text.replace(';', "\n");
                let acl = jinjing_acl::parse::parse_acl(&acl_text)
                    .map_err(|e| script_err(ln, format!("bad ACL: {e}")))?;
                entry.1 = std::mem::take(&mut entry.1).set(slot, acl);
            }
            "clear" => {
                let slot = parse_slot(net, ln, rest)?;
                entry.1 = std::mem::take(&mut entry.1).clear(slot);
            }
            other => {
                return Err(script_err(
                    ln,
                    format!("expected `set`/`clear`/`step`, got {other:?}"),
                ));
            }
        }
    }
    if let Some(done) = current.take() {
        out.push(done);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check_configs, CheckOutcome};
    use crate::figure1::Figure1;
    use jinjing_acl::AclBuilder;
    use std::sync::Arc;

    /// Canonical rendering of a report minus wall-clock.
    fn canon(r: &CheckReport) -> String {
        format!(
            "{:?}|{}|{}|{:?}|{}|{}",
            r.outcome, r.fec_count, r.paths_checked, r.solver_stats, r.encoded_rules, r.total_rules
        )
    }

    fn cold(f: &Figure1, before: &AclConfig, after: &AclConfig) -> CheckReport {
        // A *fresh* cache per invocation: the definition of "cold".
        let cfg = CheckConfig::default();
        check_configs(&f.net, &f.scope(), before, after, &[], &cfg).unwrap()
    }

    #[test]
    fn recheck_matches_cold_check_step_by_step() {
        let f = Figure1::new();
        let mut session = CheckSession::new(&f.net, f.scope(), f.config.clone()).unwrap();
        let deltas = [
            // Consistent: identical rewrite of D2.
            Delta::new().set(
                f.slot("D2"),
                AclBuilder::default_permit()
                    .deny_dst("2.0.0.0/8")
                    .deny_dst("1.0.0.0/8")
                    .build(),
            ),
            // Inconsistent: drop D2's denies entirely (opens 1/8, 2/8).
            Delta::new().set(f.slot("D2"), Acl::permit_all()),
            // Empty delta: the fast path.
            Delta::new(),
            // Consistent again: tighten an untouched prefix end to end.
            Delta::new().set(
                f.slot("A1"),
                AclBuilder::default_permit()
                    .deny_dst("6.0.0.0/8")
                    .deny_dst("9.0.0.0/8")
                    .build(),
            ),
        ];
        let mut base = f.config.clone();
        for (i, d) in deltas.iter().enumerate() {
            let after = d.applied_to(&base);
            let want = cold(&f, &base, &after);
            let got = session.recheck(d).unwrap();
            assert_eq!(canon(&got.report), canon(&want), "step {i} diverged");
            assert_eq!(
                got.incr.dirty_classes + got.incr.clean_classes,
                if got.report.fec_count == 0 {
                    got.incr.clean_classes
                } else {
                    session.class_count()
                },
                "step {i}: class ledger adds up"
            );
            // The oracle's base-advance mirrors the session's policy.
            if got.applied {
                base = after;
            }
            assert_eq!(
                got.applied,
                got.report.outcome.is_consistent(),
                "default policy applies consistent deltas only"
            );
        }
        assert_eq!(session.steps(), deltas.len() as u64);
    }

    #[test]
    fn rejected_delta_leaves_the_base_untouched() {
        let f = Figure1::new();
        let mut session = CheckSession::new(&f.net, f.scope(), f.config.clone()).unwrap();
        let bad = Delta::new().set(f.slot("D2"), Acl::permit_all());
        let r = session.recheck(&bad).unwrap();
        assert!(!r.applied);
        assert!(matches!(r.report.outcome, CheckOutcome::Inconsistent(_)));
        assert_eq!(session.base(), &f.config);
        // The same delta against the same base reproduces the same report.
        let r2 = session.recheck(&bad).unwrap();
        assert_eq!(canon(&r.report), canon(&r2.report));
    }

    #[test]
    fn empty_delta_takes_the_fast_path_with_zero_dirty() {
        let f = Figure1::new();
        let mut session = CheckSession::new(&f.net, f.scope(), f.config.clone()).unwrap();
        let r = session.recheck(&Delta::new()).unwrap();
        assert!(r.report.outcome.is_consistent());
        assert_eq!(r.report.fec_count, 0, "fast path skips refinement");
        assert_eq!(r.incr.dirty_classes, 0);
        assert_eq!(r.incr.dirty_pairs, 0);
        assert_eq!(r.incr.clean_classes, session.class_count());
    }

    #[test]
    fn generations_advance_and_stale_entries_evict() {
        let f = Figure1::new();
        let cfg = CheckConfig::default();
        let cache = Arc::clone(&cfg.cache);
        let mut session =
            CheckSession::with_configs(&f.net, f.scope(), Vec::new(), f.config.clone(), cfg)
                .unwrap();
        // Step 1 populates the cache for D2's rewrite.
        let rewrite = Delta::new().set(
            f.slot("D2"),
            AclBuilder::default_permit()
                .deny_dst("2.0.0.0/8")
                .deny_dst("1.0.0.0/8")
                .build(),
        );
        let r1 = session.recheck(&rewrite).unwrap();
        assert_eq!(r1.generation, 1);
        assert!(!cache.is_empty());
        // Steps touching a *different* region leave D2's entries unused:
        // they survive `KEEP_GENERATIONS` more steps and the next one
        // evicts them.
        let elsewhere = Delta::new().set(
            f.slot("A1"),
            AclBuilder::default_permit().deny_dst("6.0.0.0/8").build(),
        );
        let restore = Delta::new().set(f.slot("A1"), f.config.get(f.slot("A1")).unwrap().clone());
        let mut evicted = Vec::new();
        for step in 0..=KEEP_GENERATIONS {
            // Alternate so each step has a non-empty cover.
            let delta = if step % 2 == 0 { &elsewhere } else { &restore };
            evicted.push(session.recheck(delta).unwrap().evicted);
        }
        let (last, kept) = evicted.split_last().unwrap();
        assert!(kept.iter().all(|&n| n == 0), "{evicted:?}");
        assert!(*last > 0, "stale entries must evict: {evicted:?}");
        assert_eq!(cache.generation(), session.steps());
    }

    #[test]
    fn session_memoizes_paths_and_total_pairs_is_stable() {
        let f = Figure1::new();
        let session = CheckSession::new(&f.net, f.scope(), f.config.clone()).unwrap();
        let total = session.total_pairs();
        assert!(total > 0);
        assert_eq!(total, session.total_pairs(), "memoized, not re-enumerated");
        assert!(session.class_count() > 0);
    }

    #[test]
    fn delta_script_round_trips() {
        let f = Figure1::new();
        let script = "\
# tighten then revert
step tighten
set D:2 deny dst 1.0.0.0/8; deny dst 2.0.0.0/8; default permit
set A:3-out deny dst 7.0.0.0/8
step revert
clear A:3-out
";
        let deltas = parse_delta_script(&f.net, script).unwrap();
        assert_eq!(deltas.len(), 2);
        assert_eq!(deltas[0].0, "tighten");
        assert_eq!(deltas[0].1.len(), 2);
        assert_eq!(deltas[1].0, "revert");
        let DeltaEdit::Set(slot, acl) = &deltas[0].1.edits()[0] else {
            panic!("expected a set edit");
        };
        assert_eq!(*slot, f.slot("D2"));
        assert_eq!(acl.len(), 2);
        let DeltaEdit::Set(slot, _) = &deltas[0].1.edits()[1] else {
            panic!("expected a set edit");
        };
        assert_eq!(*slot, Slot::egress(f.iface("A3")));
        assert_eq!(
            deltas[1].1.edits()[0],
            DeltaEdit::Clear(Slot::egress(f.iface("A3")))
        );
    }

    #[test]
    fn delta_script_implicit_first_step_and_errors() {
        let f = Figure1::new();
        let deltas = parse_delta_script(&f.net, "clear D:2\n").unwrap();
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].0, "step-1");
        for (bad, needle) in [
            ("set D:2\n", "needs a slot and an ACL"),
            ("set Z:9 permit all\n", "unknown interface"),
            ("frobnicate D:2\n", "expected `set`"),
            ("set D2 permit all\n", "not DEV:IFACE"),
            ("set D:2 permit dst banana\n", "bad ACL"),
        ] {
            let err = parse_delta_script(&f.net, bad).unwrap_err();
            assert!(err.to_string().contains(needle), "{bad:?} → {err}");
        }
    }
}
