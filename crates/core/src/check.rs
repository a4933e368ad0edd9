//! The **check** primitive (§4.1, Algorithm 1).
//!
//! Verifies that an updated configuration `L'_Ω` achieves the desired
//! reachability: for every forwarding equivalence class entering the scope
//! and every path that class can take, the updated path decision must equal
//! the desired one (the original decision, transformed by any `control`
//! statements). The per-class query is Eq. 3, solved by the CDCL engine
//! after circuit compilation.
//!
//! Optimizations (both on by default, both switchable for the Figure 4a
//! ablation):
//!
//! - **Differential rules** (Definitions 4.1/4.2, Theorem 4.1): each ACL is
//!   reduced to the rules related to the update's differential rules, and
//!   the solver is additionally confined to the differential packet cover
//!   `H` (packets outside `H` meet identical rule subsequences before and
//!   after, so they cannot witness an inconsistency; `control`ed regions
//!   join the cover per §6). [`preprocess`] costs per edited slot: only
//!   slots whose ACL an update touched ([`AclConfig::same_at`], a pointer
//!   compare for the ACLs an update shares with its base) are diffed, an
//!   untouched slot is reduced once for both sides, and each rule's
//!   relatedness is mostly one binary search. Each [`SlotPair`] carries
//!   its fingerprint and the cover is fingerprinted once per run, so a
//!   query key mixes words it already has.
//! - **Tree decision-model encoding** (§4.1 "ACL decision model
//!   optimization"): balanced tournament-tree circuits instead of the
//!   sequential first-match chain.
//!
//! **Parallel query engine.** The per-`(class, path)` queries are
//! independent SAT instances, dispatched through `jinjing-par`'s
//! work-stealing pool (`CheckConfig::threads` / `JINJING_THREADS`; the
//! default is the exact serial path). Each pair runs a *two-stage* query:
//! stage 1 asks for a disagreeing packet anywhere in the differential
//! cover — a class-independent question keyed and cached in
//! [`crate::qcache`] so FECs sharing an ACL chain solve it once — and
//! stage 2 (only when stage 1's model misses the class) pins the witness
//! inside the class. Results fold in class-major order, stopping at the
//! first violation, so reports are byte-identical across thread counts
//! and whatever the query store already holds.
//!
//! [`check_exact`] is the set-algebra reference oracle: slower but purely
//! exact, used to cross-validate the solver path in tests.
//!
//! **One scope model.** Everything check derives from the scope rather
//! than from the configurations — the entering-traffic universe, the
//! forwarding family, the FEC partition and each class's paths — is read
//! from a [`ScopeModel`], which derives each part on first use and replays
//! it afterwards. [`check_configs`] builds a fresh model and probes it
//! once; [`crate::incr`]'s `CheckSession` keeps one model alive across a
//! stream of deltas and probes it per delta. Both run the same body on the
//! same kind of model, so a session re-check is byte-identical to a cold
//! check of the same pair of configurations.

use crate::control::{control_regions, desired_decision, desired_permit_set, ResolvedControl};
use crate::qcache::{region_fingerprint, CachedSolve, QueryCache};
use crate::task::Task;
use jinjing_acl::atoms::{AtomClass, ClassExplosion, RefineLimits};
use jinjing_acl::diff::AclDiff;
use jinjing_acl::{Acl, Packet, PacketSet};
use jinjing_lai::ControlVerb;
use jinjing_net::{AclConfig, Network, Path, Scope, ScopeModel, Slot};
use jinjing_par::{Cancel, Pool};
use jinjing_solver::aclenc::{encode, Encoding};
use jinjing_solver::cdcl::SolveResult;
use jinjing_solver::{CircuitBuilder, HeaderVars, SolverStats};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Tunables for check.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Apply the differential-rule reduction (Theorem 4.1). Decided in
    /// [`preprocess`] alone: without it every slot is encoded whole and the
    /// cover is the full space, which the rest of a check (and fix's
    /// search) treats like any other cover.
    pub differential: bool,
    /// Decision-model encoding for the solver circuits.
    pub encoding: Encoding,
    /// Equivalence-class caps, for every refinement of a run: the FEC
    /// partition, fix's batch neighbourhoods, generate's AECs and DECs.
    pub refine_limits: RefineLimits,
    /// Worker threads for the per-`(class, path)` query fan-out (and for
    /// fix's batch placements). `0` means
    /// "auto": consult `JINJING_THREADS`, defaulting to 1 (serial — the
    /// exact historical code path). Reports are byte-identical for every
    /// value (see `jinjing-par`'s determinism contract).
    pub threads: usize,
    /// The per-scope query store: identical decision-model comparisons
    /// across paths/FECs (and across engine phases and session re-checks,
    /// when shared) are solved once. Replaying a hit is observationally
    /// identical to re-solving, so reports do not depend on what the
    /// store already holds.
    pub cache: Arc<QueryCache>,
    /// Observability sink: phase spans, solver histograms, events. A fresh
    /// (private) collector by default. Under the engine it is the run's
    /// collector: fix and generate record into it too.
    pub obs: jinjing_obs::Collector,
    /// Restrict this run to the equivalence classes owned by one shard of
    /// a consistent-hash partition (see [`jinjing_acl::shard`]). `None` —
    /// the default — checks every class. The filter composes *after*
    /// candidate enumeration, so per-class indices stay global and
    /// per-shard verdicts are directly comparable across shards.
    pub shard: Option<jinjing_acl::shard::ShardSpec>,
    /// Distributed solving hook: when set, the per-pair solver fan-out is
    /// replaced by one [`CheckDelegate::check`] call (the shard
    /// coordinator's remote fan-out). Everything else — preprocessing,
    /// refinement, path enumeration, violation materialization — still
    /// runs locally, which is what makes the delegated report
    /// byte-identical to a single-process run.
    pub delegate: Option<Arc<dyn CheckDelegate>>,
}

impl Default for CheckConfig {
    fn default() -> CheckConfig {
        CheckConfig {
            differential: true,
            encoding: Encoding::Tree,
            refine_limits: RefineLimits::default(),
            threads: 0,
            cache: Arc::new(QueryCache::new()),
            obs: jinjing_obs::Collector::new(),
            shard: None,
            delegate: None,
        }
    }
}

/// A remote solving backend for check: given the exact before/after
/// configurations, return the **global** `(class index, path index)` of
/// the minimal violating pair, or `None` when every pair is consistent.
///
/// The contract mirrors the deterministic fold: "minimal" means first in
/// class-major, path-minor order over the global candidate list, which is
/// exactly what a coordinator gets by taking the lexicographic minimum of
/// per-shard minima (shard filters preserve global indices and order).
/// The caller re-solves the named pair locally to materialize the witness
/// packet, so a delegate never ships packets or models — only indices.
pub trait CheckDelegate: std::fmt::Debug + Send + Sync {
    /// Solve the fan-out for `before → after`; `Err` strings surface as
    /// [`CheckError::Shard`].
    fn check(
        &self,
        before: &AclConfig,
        after: &AclConfig,
    ) -> Result<Option<(usize, usize)>, String>;
}

/// Why a check run failed to produce a verdict.
#[derive(Debug, Clone)]
pub enum CheckError {
    /// Equivalence-class refinement exceeded its configured caps.
    Classes(ClassExplosion),
    /// The shard fan-out failed: a backend was unreachable, replied with a
    /// malformed shard report, or named a verdict that did not reproduce
    /// locally. Never a partial result — a failed fan-out fails the run.
    Shard(String),
}

impl From<ClassExplosion> for CheckError {
    fn from(e: ClassExplosion) -> CheckError {
        CheckError::Classes(e)
    }
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::Classes(e) => write!(f, "{e}"),
            CheckError::Shard(msg) => write!(f, "shard fan-out failed: {msg}"),
        }
    }
}

impl std::error::Error for CheckError {}

/// One witnessed inconsistency.
#[derive(Debug, Clone)]
pub struct Violation {
    /// A packet whose decision changed.
    pub packet: Packet,
    /// A path on which it changed.
    pub path: Path,
    /// The desired decision on that path.
    pub desired: bool,
    /// The decision the updated configuration actually takes.
    pub actual: bool,
}

/// The verdict.
#[derive(Debug, Clone)]
pub enum CheckOutcome {
    /// Desired reachability holds for all classes and paths.
    Consistent,
    /// At least one packet/path pair changed decision.
    Inconsistent(Violation),
}

impl CheckOutcome {
    /// `true` for [`CheckOutcome::Consistent`].
    pub fn is_consistent(&self) -> bool {
        matches!(self, CheckOutcome::Consistent)
    }
}

/// The result of a check run, with workload metrics.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Verdict.
    pub outcome: CheckOutcome,
    /// Number of forwarding equivalence classes examined.
    pub fec_count: usize,
    /// Total (class, path) pairs encoded.
    pub paths_checked: usize,
    /// Aggregated solver statistics across all per-class queries.
    pub solver_stats: SolverStats,
    /// ACL rules fed to the encoder after (or without) reduction.
    pub encoded_rules: usize,
    /// ACL rules in the original configurations.
    pub total_rules: usize,
    /// Wall-clock split: differential preprocessing.
    pub t_preprocess: std::time::Duration,
    /// Wall-clock split: FEC derivation.
    pub t_refine: std::time::Duration,
    /// Wall-clock split: path enumeration.
    pub t_paths: std::time::Duration,
    /// Wall-clock split: circuit construction + solving.
    pub t_solve: std::time::Duration,
    /// The violating pair's **global** `(class index, path index)`, when
    /// inconsistent. This is the coordinate a shard backend reports over
    /// the wire (the witness packet is re-derived locally by whoever needs
    /// it), and it is `None` for [`check_per_acl`], whose synthetic paths
    /// have no global coordinates.
    pub violation_pair: Option<(usize, usize)>,
}

/// One slot's encoding inputs: its before/after ACLs — reduced to the rules
/// related to `Diff_Ω`, or whole without the differential reduction — and
/// the pair's fingerprint under the run's query store, computed here once
/// and mixed into every key whose path crosses the slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotPair {
    /// The ACL before the update, as encoded.
    pub before: Acl,
    /// The ACL after the update, as encoded.
    pub after: Acl,
    /// [`QueryCache::pair_fingerprint`] of `(before, after)`.
    pub fingerprint: u64,
}

impl SlotPair {
    fn new(before: Acl, after: Acl, cache: &QueryCache) -> SlotPair {
        let fingerprint = cache.pair_fingerprint(&before, &after);
        SlotPair {
            before,
            after,
            fingerprint,
        }
    }

    /// The pair of an untouched slot: one ACL on both sides, fingerprinted
    /// once.
    fn same(acl: Acl, cache: &QueryCache) -> SlotPair {
        let fingerprint = cache.pair_fingerprint(&acl, &acl);
        SlotPair {
            before: acl.clone(),
            after: acl,
            fingerprint,
        }
    }
}

/// What [`preprocess`] hands the rest of a check.
#[derive(Debug, Clone)]
pub struct Preprocessed {
    /// Encoding inputs of every slot configured before or after.
    pub pairs: HashMap<Slot, SlotPair>,
    /// The differential packet cover `H` (the full space without the
    /// reduction).
    pub cover: PacketSet,
    /// ACL rules fed to the encoder, summed over both sides of every pair.
    pub encoded_rules: usize,
    /// `AclDiff::compute` invocations pass 1 actually performed.
    pub cover_rebuilds: usize,
}

impl Preprocessed {
    fn add(&mut self, slot: Slot, pair: SlotPair) {
        self.encoded_rules += pair.before.len() + pair.after.len();
        self.pairs.insert(slot, pair);
    }
}

/// Every slot configured in `before` or `after`: `before`'s in order, then
/// the ones only `after` configures, in order — one merge of the two sorted
/// slot lists.
pub(crate) fn slots_union(before: &AclConfig, after: &AclConfig) -> Vec<Slot> {
    let mut slots = before.slots();
    let mut at = 0;
    let mut after_only = Vec::new();
    for s in after.slots() {
        while at < slots.len() && slots[at] < s {
            at += 1;
        }
        if slots.get(at) != Some(&s) {
            after_only.push(s);
        }
    }
    slots.extend(after_only);
    slots
}

/// Preprocess the configurations: per-slot diffs are unioned into the
/// *global* `Diff_Ω` (as §4.1 prescribes — "taking the union over all the
/// differential rules gives us a set Diff_Ω"), every slot's before/after
/// ACLs are reduced to the rules related to that global set, and the
/// differential packet cover `H` is assembled.
///
/// Using the global set is what makes the reduction sound across *path
/// conjunctions*: for any packet in `H`, every rule it can match anywhere
/// in the scope overlaps a differential rule, so every slot's reduced
/// decision equals its full decision on `H` — the encoded path models are
/// exact precisely where counterexamples can live.
///
/// Per §6, `isolate`/`open` control regions join both the relatedness test
/// and the cover (their packets can be inconsistent without any ACL edit).
///
/// **In proportion to the edit.** Whether a slot is *touched* — its ACL
/// differs structurally between the two configurations
/// ([`AclConfig::same_at`], a pointer compare for the ACLs an update
/// shares with its base) — is decided once per slot. Only touched slots
/// are diffed (pass 1). An untouched slot is reduced once, and that one
/// reduced ACL serves both sides (pass 2). Nothing is cloned but the
/// reduced ACLs, and each rule's relatedness is mostly one binary search
/// ([`jinjing_acl::rtree::RuleTree::overlaps_any`]).
///
/// The per-slot diffs are memoized in `covers` (keyed by the exact ACL
/// pair), so a stream of re-checks or plan probes touching the same
/// `(before, after)` pair at a slot diffs it once; under a session
/// [`Preprocessed::cover_rebuilds`] surfaces as the `incr.cover_rebuilds`
/// counter. Each pair is fingerprinted with `cache`'s ACL fingerprint.
pub fn preprocess(
    before: &AclConfig,
    after: &AclConfig,
    controls: &[ResolvedControl],
    differential: bool,
    covers: &CoverMemo,
    cache: &QueryCache,
) -> Preprocessed {
    let permit_all = Acl::permit_all();
    let acl_at = |cfg: &AclConfig, slot| cfg.get(slot).unwrap_or(&permit_all).clone();
    let slots = slots_union(before, after);
    let mut out = Preprocessed {
        pairs: HashMap::with_capacity(slots.len()),
        cover: PacketSet::full(),
        encoded_rules: 0,
        cover_rebuilds: 0,
    };
    if !differential {
        for slot in slots {
            let pair = SlotPair::new(acl_at(before, slot), acl_at(after, slot), cache);
            out.add(slot, pair);
        }
        return out;
    }
    let touched: Vec<bool> = slots.iter().map(|&s| !before.same_at(after, s)).collect();
    // Pass 1: global differential rules and their packet cover, from the
    // touched slots only — an untouched slot's self-diff has no
    // differential rules and an empty cover.
    let mut global_diff: Vec<jinjing_acl::Rule> = Vec::new();
    let mut cover = PacketSet::empty();
    for (&slot, _) in slots.iter().zip(&touched).filter(|(_, &t)| t) {
        let b = before.get(slot).unwrap_or(&permit_all);
        let a = after.get(slot).unwrap_or(&permit_all);
        let d = covers.diff_for(slot, b, a, &mut out.cover_rebuilds);
        cover = cover.union(&d.cover);
        for r in &d.diff {
            if !global_diff.contains(r) {
                global_diff.push(*r);
            }
        }
    }
    // §6: isolate/open regions participate in relatedness and the cover.
    let mut control_sets: Vec<&PacketSet> = Vec::new();
    for c in controls {
        if matches!(c.verb, ControlVerb::Isolate | ControlVerb::Open) {
            cover = cover.union(&c.region);
            control_sets.push(&c.region);
        }
    }
    // Pass 2: reduce every slot against the global set, via the §5.5
    // search tree over the differential rules.
    let diff_tree =
        jinjing_acl::rtree::RuleTree::build(global_diff.iter().map(|r| r.matches).collect());
    let keep = |rule: &jinjing_acl::Rule| -> bool {
        diff_tree.overlaps_any(&rule.matches)
            || control_sets.iter().any(|s| s.meets(&rule.matches.cube()))
    };
    let reduce = |cfg: &AclConfig, slot| {
        let acl = cfg.get(slot).unwrap_or(&permit_all);
        let kept = acl.rules().iter().filter(|r| keep(r)).copied().collect();
        Acl::new(kept, acl.default_action())
    };
    for (slot, touched) in slots.into_iter().zip(touched) {
        let pair = if touched {
            SlotPair::new(reduce(before, slot), reduce(after, slot), cache)
        } else {
            SlotPair::same(reduce(before, slot), cache)
        };
        out.add(slot, pair);
    }
    out.cover = cover;
    out
}

/// Run check on a resolved task.
pub fn check(net: &Network, task: &Task, cfg: &CheckConfig) -> Result<CheckReport, CheckError> {
    check_configs(
        net,
        &task.scope,
        &task.before,
        &task.after,
        &task.controls,
        cfg,
    )
}

/// Run check on explicit before/after configurations.
pub fn check_configs(
    net: &Network,
    scope: &Scope,
    before: &AclConfig,
    after: &AclConfig,
    controls: &[ResolvedControl],
    cfg: &CheckConfig,
) -> Result<CheckReport, CheckError> {
    let model = scope_model(net, scope.clone(), controls, cfg.refine_limits);
    check_inner(&model, before, after, controls, cfg, &CoverMemo::default()).map(|c| c.report)
}

/// The model of `scope` every primitive reads: `control` regions join the
/// forwarding family, so classes are control-uniform (§6).
pub(crate) fn scope_model<'n>(
    net: &'n Network,
    scope: Scope,
    controls: &[ResolvedControl],
    limits: RefineLimits,
) -> ScopeModel<'n> {
    ScopeModel::new(net, scope, control_regions(controls), limits)
}

/// Dirty/clean workload split of one check run.
///
/// For a session re-check ([`crate::incr`]) this is the incremental
/// ledger: `dirty_*` is the work actually (re-)done under the delta,
/// `clean_classes` the FECs whose verdicts were reused wholesale because
/// their packet cubes miss the delta's differential cover (Theorem 4.1
/// applied across time). A cold run reports the same split — there the
/// "clean" classes are the ordinary Theorem 4.1 skips.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrStats {
    /// FEC classes intersecting the differential cover (queries ran).
    pub dirty_classes: usize,
    /// FEC classes disjoint from the cover (verdict reused, no queries).
    pub clean_classes: usize,
    /// `(class, path)` pairs actually dispatched to the solver fan-out.
    pub dirty_pairs: usize,
}

/// One memoized per-slot differential: the exact ACL pair it was computed
/// for, and the shared diff.
struct CoverEntry {
    before: Acl,
    after: Acl,
    diff: Arc<AclDiff>,
}

/// Per-slot `AclDiff` memo (one entry per slot: the last pair seen). A
/// re-check stream — and, above all, a plan search probing many subsets of
/// the same step set — diffs the same `(before, after)` pair at a slot over
/// and over; this collapses those to one compute. Keyed by ACL content (the
/// exact pair diffed), so a lookup only ever replays the diff of the very
/// ACLs being preprocessed. A cold check brings an empty one.
#[derive(Default)]
pub struct CoverMemo(Mutex<HashMap<Slot, CoverEntry>>);

impl CoverMemo {
    /// The differential of `(b, a)` at `slot`, replayed from the memo when
    /// the exact pair was diffed before; `rebuilds` counts actual computes,
    /// and only a compute clones the pair.
    fn diff_for(&self, slot: Slot, b: &Acl, a: &Acl, rebuilds: &mut usize) -> Arc<AclDiff> {
        let mut map = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(e) = map.get(&slot) {
            if e.before == *b && e.after == *a {
                return Arc::clone(&e.diff);
            }
        }
        *rebuilds += 1;
        let diff = Arc::new(AclDiff::compute(b, a));
        map.insert(
            slot,
            CoverEntry {
                before: b.clone(),
                after: a.clone(),
                diff: Arc::clone(&diff),
            },
        );
        diff
    }
}

/// What one run of the check body produced.
pub(crate) struct Checked {
    pub(crate) report: CheckReport,
    pub(crate) incr: IncrStats,
    /// Per-slot diffs computed rather than replayed from the [`CoverMemo`].
    pub(crate) cover_rebuilds: usize,
}

/// The body of every check: [`check_configs`] runs it once on a fresh model
/// and an empty cover memo, [`crate::incr::CheckSession`] runs it per delta
/// on the model and memo it keeps, fix runs it to certify on the model it
/// searched. Same preprocessing, same Theorem 4.1 class filter, same
/// two-stage queries, same deterministic fold: what the model and the memo
/// already hold only decides what is replayed instead of recomputed, never
/// the returned [`CheckReport`].
pub(crate) fn check_inner(
    model: &ScopeModel<'_>,
    before: &AclConfig,
    after: &AclConfig,
    controls: &[ResolvedControl],
    cfg: &CheckConfig,
    covers: &CoverMemo,
) -> Result<Checked, CheckError> {
    let total_rules = before.total_rules() + after.total_rules();
    let _check_span = cfg.obs.span("check");
    let sp = cfg.obs.span("check.preprocess");
    let Preprocessed {
        pairs,
        cover,
        encoded_rules,
        cover_rebuilds,
    } = preprocess(
        before,
        after,
        controls,
        cfg.differential,
        covers,
        &cfg.cache,
    );
    let t_preprocess = sp.finish();
    let checked = |report, incr| Checked {
        report,
        incr,
        cover_rebuilds,
    };
    cfg.obs.counter_add("check.runs", 1);
    cfg.obs
        .histogram_record("check.encoded_rules", encoded_rules as u64);
    let mut report = CheckReport {
        outcome: CheckOutcome::Consistent,
        fec_count: 0,
        paths_checked: 0,
        solver_stats: SolverStats::default(),
        encoded_rules,
        total_rules,
        t_preprocess,
        t_refine: Default::default(),
        t_paths: Default::default(),
        t_solve: Default::default(),
        violation_pair: None,
    };
    // Fast path: nothing changed and nothing is controlled (without the
    // reduction the cover is the full space, never empty). Nothing is
    // derived for it: every class the model already knows is clean.
    if cover.is_empty() {
        cfg.obs.event(
            jinjing_obs::Level::Debug,
            "check.fastpath",
            "empty differential cover; trivially consistent",
        );
        let incr = IncrStats {
            dirty_classes: 0,
            clean_classes: model.known_classes(),
            dirty_pairs: 0,
        };
        return Ok(checked(report, incr));
    }

    // FEC partition: derived by the model on first use, replayed after.
    let sp = cfg.obs.span("check.refine");
    let classes = model.classes()?;
    report.t_refine = sp.finish();
    report.fec_count = classes.len();
    cfg.obs
        .histogram_record("check.fec_count", classes.len() as u64);

    // Theorem 4.1: classes disjoint from the differential cover meet
    // identical rule subsequences before and after — skip them outright.
    // Across a stream of deltas these are the *clean* classes of each.
    //
    // The shard filter composes after enumeration, so the `usize` in each
    // candidate stays the *global* class index whatever slice this process
    // owns — per-shard verdicts therefore name coordinates every other
    // shard (and the coordinator) agrees on.
    let candidates: Vec<(usize, &AtomClass)> = classes
        .iter()
        .enumerate()
        .filter(|(_, class)| class.set.intersects(&cover))
        .filter(|(_, class)| {
            cfg.shard
                .as_ref()
                .map_or(true, |s| s.owns_class(&class.set))
        })
        .collect();

    let pool = Pool::new(cfg.threads);

    // Phase A: enumerate paths per candidate (dirty) class — the model
    // replays an enumeration it already holds. Workers time their own
    // lookups; the driver folds the measurements below.
    let enumerated: Vec<(&[Path], Duration)> = pool.par_map(&candidates, |_, &(gi, _)| {
        let t0 = Instant::now();
        (model.paths_for(gi), t0.elapsed())
    });

    // Phase B: one two-stage solver query per (class, path) pair, in
    // class-major order. Stage 1 is class-independent (and cacheable
    // across FECs sharing an ACL chain); stage 2 pins the witness inside
    // the class. `Cancel` lets workers skip pairs beyond the first
    // violation without ever skipping the minimal violating index.
    struct PairJob<'a> {
        class_idx: usize,
        path_idx: usize,
        verb: Option<ControlVerb>,
        class_set: &'a PacketSet,
    }
    let mut jobs: Vec<PairJob<'_>> = Vec::new();
    for (ci, (_, class)) in candidates.iter().enumerate() {
        let paths = enumerated[ci].0;
        if paths.is_empty() {
            continue;
        }
        let class_controls = crate::control::ClassControls::new(controls, &class.set);
        for (pi, path) in paths.iter().enumerate() {
            jobs.push(PairJob {
                class_idx: ci,
                path_idx: pi,
                verb: class_controls.verb_for(path),
                class_set: &class.set,
            });
        }
    }

    let incr = IncrStats {
        dirty_classes: candidates.len(),
        clean_classes: classes.len() - candidates.len(),
        dirty_pairs: jobs.len(),
    };
    // The cover is fingerprinted once per run; every key mixes the word.
    let region = (&cover, region_fingerprint(&cover));
    // Flight recorder: workers emit onto their own track (`1 + slot`; the
    // serial path uses track 1) so a trace shows per-worker solver
    // timelines. A disabled context makes every call below a no-op.
    let tr = cfg.obs.trace_ctx();
    // The two-stage query for one pair, shared verbatim by the local pool
    // fan-out and the delegate path's single re-solve — which is why a
    // remote verdict materializes into the exact witness a single-process
    // run would have found.
    let solve_pair = |job: &PairJob<'_>, tid: u64| -> (Vec<CachedSolve>, Option<Packet>) {
        let pair_span = tr.span_with(
            tid,
            "check.pair",
            &[
                ("class", job.class_idx as u64),
                ("path", job.path_idx as u64),
            ],
        );
        let path = &enumerated[job.class_idx].0[job.path_idx];
        let links: Vec<&SlotPair> = path.slots.iter().filter_map(|s| pairs.get(s)).collect();
        let chain: Vec<(&Acl, &Acl)> = links.iter().map(|p| (&p.before, &p.after)).collect();
        let words: Vec<u64> = links.iter().map(|p| p.fingerprint).collect();
        let mut queries: Vec<CachedSolve> = Vec::new();
        // Stage 1: ∃h (∈ cover): desired chain ≠ updated chain. The
        // class constraint is deliberately absent so the query is shared
        // verbatim by every FEC routed through the same ACL chain.
        let s1_span = tr.span_with(tid, "solver.query", &[("stage", 1)]);
        let stage1 = keyed_query(cfg, &chain, &words, job.verb, region);
        stage1
            .stats
            .trace_query(s1_span, stage1.vars, stage1.clauses);
        let witness = match stage1.result {
            SolveResult::Unsat => {
                // No disagreeing packet anywhere in the cover ⇒ none in
                // class ∩ cover either.
                queries.push(stage1);
                None
            }
            SolveResult::Sat => {
                let m = stage1.model.expect("Sat query stores its model");
                queries.push(stage1);
                if job.class_set.contains(&m) {
                    // The shared model already lies in this class: it is a
                    // witness outright. (Deterministic on replay because
                    // the model itself is stored.)
                    Some(m)
                } else {
                    // Stage 2: re-ask with the witness pinned inside the
                    // class. Never cached (class sets rarely recur).
                    let s2_span = tr.span_with(tid, "solver.query", &[("stage", 2)]);
                    let s2 = run_query(&chain, job.verb, cfg.encoding, &cover, Some(job.class_set));
                    s2.stats.trace_query(s2_span, s2.vars, s2.clauses);
                    let w = match s2.result {
                        SolveResult::Sat => Some(s2.model.expect("Sat query stores its model")),
                        SolveResult::Unsat => None,
                    };
                    queries.push(s2);
                    w
                }
            }
        };
        drop(pair_span);
        (queries, witness)
    };

    // Delegate path: one remote fan-out call stands in for the whole pool
    // dispatch. The verdict comes back as a *global* (class, path)
    // coordinate; everything observable about the run — the witness, the
    // violation, the verdict rendering — is still produced by this
    // process's own deterministic machinery.
    if let Some(delegate) = &cfg.delegate {
        let sp = cfg.obs.span("check.fanout");
        let verdict = delegate.check(before, after).map_err(CheckError::Shard)?;
        sp.finish();
        match verdict {
            None => {
                for (paths, t) in &enumerated {
                    report.t_paths += *t;
                    report.paths_checked += paths.len();
                }
                cfg.obs
                    .event(jinjing_obs::Level::Info, "check.verdict", "consistent");
                return Ok(checked(report, incr));
            }
            Some((gi, pi)) => {
                let i = jobs
                    .iter()
                    .position(|j| candidates[j.class_idx].0 == gi && j.path_idx == pi)
                    .ok_or_else(|| {
                        CheckError::Shard(format!(
                            "remote verdict names unknown pair (class {gi}, path {pi})"
                        ))
                    })?;
                let t0 = Instant::now();
                let (queries, witness) = solve_pair(&jobs[i], 1);
                for q in &queries {
                    report.solver_stats.merge(&q.stats);
                    q.stats.record_query(&cfg.obs, q.vars, q.clauses);
                }
                report.t_solve = t0.elapsed();
                let packet = witness.ok_or_else(|| {
                    CheckError::Shard(format!(
                        "remote verdict (class {gi}, path {pi}) did not reproduce locally"
                    ))
                })?;
                for (paths, t) in enumerated.iter().take(jobs[i].class_idx + 1) {
                    report.t_paths += *t;
                    report.paths_checked += paths.len();
                }
                let paths = enumerated[jobs[i].class_idx].0;
                let violation = locate_violation(before, after, controls, paths, &packet)
                    .expect("solver model must correspond to a concrete violation");
                cfg.obs.event(
                    jinjing_obs::Level::Info,
                    "check.verdict",
                    &format!("inconsistent: witness {}", violation.packet),
                );
                report.violation_pair = Some((gi, pi));
                report.outcome = CheckOutcome::Inconsistent(violation);
                return Ok(checked(report, incr));
            }
        }
    }

    let cancel = Cancel::new();
    let results = pool.par_map_cancel(&jobs, &cancel, |i, job| {
        let t0 = Instant::now();
        let tid = 1 + jinjing_par::current_worker().unwrap_or(0) as u64;
        let (queries, witness) = solve_pair(job, tid);
        if witness.is_some() {
            cancel.cut(i);
        }
        PairResult {
            queries,
            t_solve: t0.elapsed(),
            witness,
        }
    });

    // Deterministic fold, in class-major pair order, stopping at the
    // first violation — exactly what the serial loop observed. Durations
    // and span aggregates are derived from the same folded measurements,
    // so the report and the span tree cannot disagree.
    let mut t_solve = Duration::ZERO;
    let mut folded_queries = 0u64;
    let mut violation_at: Option<(usize, Packet)> = None;
    for (i, slot) in results.iter().enumerate() {
        let res = slot
            .as_ref()
            .expect("pairs at or before the first violation are never skipped");
        for q in &res.queries {
            report.solver_stats.merge(&q.stats);
            q.stats.record_query(&cfg.obs, q.vars, q.clauses);
            folded_queries += 1;
        }
        t_solve += res.t_solve;
        if let Some(p) = res.witness {
            violation_at = Some((i, p));
            break;
        }
    }
    // Classes the serial loop would have entered: all candidates up to and
    // including the violating pair's class (every candidate otherwise).
    let folded_classes = match violation_at {
        Some((i, _)) => jobs[i].class_idx + 1,
        None => candidates.len(),
    };
    let mut t_paths = Duration::ZERO;
    for (paths, t) in enumerated.iter().take(folded_classes) {
        t_paths += *t;
        report.paths_checked += paths.len();
    }
    if folded_classes > 0 {
        cfg.obs
            .record_span("check.paths", folded_classes as u64, t_paths);
    }
    if folded_queries > 0 {
        cfg.obs.record_span("check.solve", folded_queries, t_solve);
    }
    report.t_paths = t_paths;
    report.t_solve = t_solve;

    if let Some((i, packet)) = violation_at {
        let paths = enumerated[jobs[i].class_idx].0;
        let violation = locate_violation(before, after, controls, paths, &packet)
            .expect("solver model must correspond to a concrete violation");
        cfg.obs.event(
            jinjing_obs::Level::Info,
            "check.verdict",
            &format!("inconsistent: witness {}", violation.packet),
        );
        report.violation_pair = Some((candidates[jobs[i].class_idx].0, jobs[i].path_idx));
        report.outcome = CheckOutcome::Inconsistent(violation);
        return Ok(checked(report, incr));
    }
    cfg.obs
        .event(jinjing_obs::Level::Info, "check.verdict", "consistent");
    Ok(checked(report, incr))
}

/// Per-`(class, path)` worker result.
struct PairResult {
    /// Every solver query executed (or replayed from cache), in order.
    queries: Vec<CachedSolve>,
    /// Worker-measured wall clock for this pair's solving.
    t_solve: Duration,
    /// Violating packet, if the pair is inconsistent.
    witness: Option<Packet>,
}

/// Run one class-free decision-model comparison through the query store,
/// bumping the `check.cache_hit` / `check.cache_miss` counters; a miss
/// builds and solves the circuit ([`run_query`]) and remembers the result.
/// The key is built from words computed once per run: `words[i]` is the
/// [`SlotPair::fingerprint`] of `chain[i]`, and `region` comes with its
/// [`region_fingerprint`]. Class-pinned questions are not part of the key,
/// so they never come through here (stage 2 calls [`run_query`] directly).
fn keyed_query(
    cfg: &CheckConfig,
    chain: &[(&Acl, &Acl)],
    words: &[u64],
    verb: Option<ControlVerb>,
    region: (&PacketSet, u64),
) -> CachedSolve {
    let key = cfg
        .cache
        .key_fingerprinted(chain, words, verb, cfg.encoding, region);
    let (v, hit) = cfg
        .cache
        .get_or_solve(key, || run_query(chain, verb, cfg.encoding, region.0, None));
    cfg.obs.counter_add(
        if hit {
            "check.cache_hit"
        } else {
            "check.cache_miss"
        },
        1,
    );
    v
}

/// Build and solve one Eq. 3 query: does the desired decision of the
/// `chain` (rewritten by `verb`) disagree with the updated decision for
/// some packet in `region ∩ class_set`? A full `region` (the cover without
/// the differential reduction) folds to the constant `true` and adds
/// nothing to the circuit.
///
/// Uses a fresh [`CircuitBuilder`] *without* an obs sink: the caller folds
/// the returned stats in deterministic order and replays them into the
/// collector, so speculative parallel work never pollutes the metrics.
fn run_query(
    chain: &[(&Acl, &Acl)],
    verb: Option<ControlVerb>,
    encoding: Encoding,
    region: &PacketSet,
    class_set: Option<&PacketSet>,
) -> CachedSolve {
    let mut builder = CircuitBuilder::new();
    let h = HeaderVars::new(&mut builder);
    let mut c_before = Vec::with_capacity(chain.len());
    let mut c_after = Vec::with_capacity(chain.len());
    for (b, a) in chain {
        c_before.push(encode(&mut builder, &h, b, encoding));
        c_after.push(encode(&mut builder, &h, a, encoding));
    }
    let cp = builder.and(&c_before);
    let cp2 = builder.and(&c_after);
    // Desired side: the applicable control rewrites cp.
    let desired = match verb {
        Some(ControlVerb::Isolate) => builder.f(),
        Some(ControlVerb::Open) => builder.t(),
        Some(ControlVerb::Maintain) | None => cp,
    };
    let eq = builder.iff(desired, cp2);
    builder.assert(!eq);
    let in_region = h.in_set(&mut builder, region);
    builder.assert(in_region);
    if let Some(set) = class_set {
        let in_class = h.in_set(&mut builder, set);
        builder.assert(in_class);
    }
    let result = builder.solve();
    let model = (result == SolveResult::Sat).then(|| h.decode(&builder));
    CachedSolve {
        result,
        model,
        stats: builder.solver().stats(),
        vars: builder.solver().num_vars(),
        clauses: builder.solver().num_clauses(),
    }
}

/// Evaluate a concrete packet against every path to find the violated one.
fn locate_violation(
    before: &AclConfig,
    after: &AclConfig,
    controls: &[ResolvedControl],
    paths: &[Path],
    packet: &Packet,
) -> Option<Violation> {
    for path in paths {
        if !path.carried.contains(packet) {
            continue;
        }
        let original = before.path_permits(path, packet);
        let desired = desired_decision(controls, path, &PacketSet::singleton(packet), original);
        let actual = after.path_permits(path, packet);
        if desired != actual {
            return Some(Violation {
                packet: *packet,
                path: path.clone(),
                desired,
                actual,
            });
        }
    }
    None
}

/// The §9 fallback: verify **per-ACL equivalence** instead of per-path
/// reachability ("we can directly verify all traffic, i.e. 0.0.0.0/0, on
/// each ACL individually, which is a sufficient condition (but much
/// stronger) for the reachability consistency").
///
/// No forwarding classes, paths, routing or traffic data are consulted —
/// this works when the traffic matrix / FECs are unknown. It never misses
/// a real inconsistency, but it *can* report false positives: an update
/// that moves a deny between two slots of the same path changes both ACLs
/// while leaving every path decision intact. Control statements cannot be
/// expressed at this granularity and are rejected.
pub fn check_per_acl(before: &AclConfig, after: &AclConfig, cfg: &CheckConfig) -> CheckReport {
    let total_rules = before.total_rules() + after.total_rules();
    let _check_span = cfg.obs.span("check");
    let sp = cfg.obs.span("check.preprocess");
    let Preprocessed {
        pairs,
        cover,
        encoded_rules,
        ..
    } = preprocess(
        before,
        after,
        &[],
        cfg.differential,
        &CoverMemo::default(),
        &cfg.cache,
    );
    let t_preprocess = sp.finish();
    let mut report = CheckReport {
        outcome: CheckOutcome::Consistent,
        fec_count: 0,
        paths_checked: 0,
        solver_stats: SolverStats::default(),
        encoded_rules,
        total_rules,
        t_preprocess,
        t_refine: Default::default(),
        t_paths: Default::default(),
        t_solve: Default::default(),
        violation_pair: None,
    };
    if cover.is_empty() {
        return report;
    }
    let mut slots: Vec<Slot> = pairs.keys().copied().collect();
    slots.sort();
    let pool = Pool::new(cfg.threads);
    let cancel = Cancel::new();
    let region = (&cover, region_fingerprint(&cover));
    // One per-slot equivalence query per work item; identical ACL
    // templates on different slots share a cache entry.
    let tr = cfg.obs.trace_ctx();
    let results = pool.par_map_cancel(&slots, &cancel, |i, slot| {
        let pair = &pairs[slot];
        let t0 = Instant::now();
        let tid = 1 + jinjing_par::current_worker().unwrap_or(0) as u64;
        let q_span = tr.span_with(tid, "solver.query", &[("slot", i as u64)]);
        let chain = [(&pair.before, &pair.after)];
        let solved = keyed_query(cfg, &chain, &[pair.fingerprint], None, region);
        solved
            .stats
            .trace_query(q_span, solved.vars, solved.clauses);
        if solved.result == SolveResult::Sat {
            cancel.cut(i);
        }
        (solved, t0.elapsed())
    });
    // Deterministic fold in slot order, stopping at the first violating
    // slot — the serial semantics.
    let mut t_solve = Duration::ZERO;
    let mut folded = 0u64;
    for (i, res) in results.iter().enumerate() {
        let (solved, elapsed) = res
            .as_ref()
            .expect("slots at or before the first violation are never skipped");
        report.solver_stats.merge(&solved.stats);
        solved
            .stats
            .record_query(&cfg.obs, solved.vars, solved.clauses);
        t_solve += *elapsed;
        folded += 1;
        report.paths_checked += 1;
        if solved.result == SolveResult::Sat {
            let packet = solved.model.expect("Sat query stores its model");
            let desired = pairs[&slots[i]].before.permits(&packet);
            report.outcome = CheckOutcome::Inconsistent(Violation {
                packet,
                // A synthetic single-slot "path" naming the offending ACL.
                path: Path {
                    slots: vec![slots[i]],
                    carried: PacketSet::full(),
                },
                desired,
                actual: !desired,
            });
            break;
        }
    }
    if folded > 0 {
        cfg.obs.record_span("check.solve", folded, t_solve);
    }
    report.t_solve = t_solve;
    report
}

/// Exact reference checker: compares desired and updated permit sets path
/// by path using the packet-set algebra only. Returns the first violation.
pub fn check_exact(
    net: &Network,
    scope: &Scope,
    before: &AclConfig,
    after: &AclConfig,
    controls: &[ResolvedControl],
) -> CheckOutcome {
    let mut universe = PacketSet::empty();
    for (_, t) in net.entering_traffic(scope) {
        universe = universe.union(&t);
    }
    let paths = net.all_paths_for_class(scope, &universe);
    for path in &paths {
        let relevant = path.carried.clone();
        let original = before.path_permit_set(path);
        let desired = desired_permit_set(controls, path, &original);
        let actual = after.path_permit_set(path);
        // Violations: packets carried by the path where desired ≠ actual.
        let wrong = desired
            .subtract(&actual)
            .union(&actual.subtract(&desired))
            .intersect(&relevant);
        if let Some(packet) = wrong.sample() {
            let desired_dec = desired.contains(&packet);
            return CheckOutcome::Inconsistent(Violation {
                packet,
                path: path.clone(),
                desired: desired_dec,
                actual: !desired_dec,
            });
        }
    }
    CheckOutcome::Consistent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figure1::Figure1;
    use jinjing_lai::Command;

    fn task_for(f: &Figure1, after: AclConfig) -> Task {
        Task {
            scope: f.scope(),
            allow: Vec::new(),
            before: f.config.clone(),
            after,
            modified: Vec::new(),
            controls: Vec::new(),
            command: Command::Check,
        }
    }

    fn all_configs() -> Vec<CheckConfig> {
        let mut out = Vec::new();
        for differential in [false, true] {
            for encoding in [Encoding::Sequential, Encoding::Tree] {
                out.push(CheckConfig {
                    differential,
                    encoding,
                    ..CheckConfig::default()
                });
            }
        }
        out
    }

    #[test]
    fn identical_configs_are_consistent() {
        let f = Figure1::new();
        let task = task_for(&f, f.config.clone());
        for cfg in all_configs() {
            let r = check(&f.net, &task, &cfg).unwrap();
            assert!(r.outcome.is_consistent(), "{cfg:?}");
        }
    }

    #[test]
    fn running_example_update_is_inconsistent() {
        let f = Figure1::new();
        let task = task_for(&f, f.bad_update());
        for cfg in all_configs() {
            let r = check(&f.net, &task, &cfg).unwrap();
            match &r.outcome {
                CheckOutcome::Inconsistent(v) => {
                    // The witness must be traffic 1 or 2 on the direct path
                    // p0 (the only decisions that changed).
                    let top = v.packet.dip >> 24;
                    assert!(top == 1 || top == 2, "witness {0}", v.packet);
                    assert_eq!(v.path.slots.len(), 4, "violation on p0");
                    assert!(v.desired, "was permitted");
                    assert!(!v.actual, "now denied");
                }
                CheckOutcome::Consistent => panic!("must be inconsistent ({cfg:?})"),
            }
        }
    }

    #[test]
    fn solver_and_exact_checker_agree() {
        let f = Figure1::new();
        for after in [f.config.clone(), f.bad_update()] {
            let task = task_for(&f, after.clone());
            let solver_verdict = check(&f.net, &task, &CheckConfig::default())
                .unwrap()
                .outcome
                .is_consistent();
            let exact_verdict =
                check_exact(&f.net, &f.scope(), &f.config, &after, &[]).is_consistent();
            assert_eq!(solver_verdict, exact_verdict);
        }
    }

    #[test]
    fn equivalent_rewrite_is_consistent() {
        // Replacing D2's ACL with a semantically equal one must pass.
        let f = Figure1::new();
        let mut after = f.config.clone();
        after.set(
            f.slot("D2"),
            jinjing_acl::AclBuilder::default_permit()
                .deny_dst("2.0.0.0/8") // reordered
                .deny_dst("1.0.0.0/8")
                .permit_dst("3.0.0.0/8") // redundant
                .build(),
        );
        let task = task_for(&f, after);
        for cfg in all_configs() {
            let r = check(&f.net, &task, &cfg).unwrap();
            assert!(r.outcome.is_consistent(), "{cfg:?}");
        }
    }

    #[test]
    fn differential_reduces_encoded_rules() {
        let f = Figure1::new();
        // Add a pile of irrelevant rules that the update never touches.
        let mut before = f.config.clone();
        let mut padded = jinjing_acl::AclBuilder::default_permit();
        for i in 0..20 {
            padded = padded.deny_dst(&format!("200.{i}.0.0/16"));
        }
        padded = padded.deny_dst("6.0.0.0/8");
        before.set(f.slot("A1"), padded.build());
        let mut after = before.clone();
        after.set(f.slot("D2"), jinjing_acl::Acl::permit_all());

        let base = CheckConfig {
            differential: false,
            ..CheckConfig::default()
        };
        let opt = CheckConfig::default();
        let r_base = check_configs(&f.net, &f.scope(), &before, &after, &[], &base).unwrap();
        let r_opt = check_configs(&f.net, &f.scope(), &before, &after, &[], &opt).unwrap();
        assert_eq!(
            r_base.outcome.is_consistent(),
            r_opt.outcome.is_consistent()
        );
        assert!(
            r_opt.encoded_rules * 4 < r_base.encoded_rules,
            "reduction should drop most rules: {} vs {}",
            r_opt.encoded_rules,
            r_base.encoded_rules
        );
    }

    #[test]
    fn control_isolate_flags_unchanged_config() {
        use std::collections::HashSet;
        // Desired reachability changed (isolate traffic 3 on A1→D3), but the
        // config did not: check must report inconsistency.
        let f = Figure1::new();
        let controls = vec![ResolvedControl {
            from: HashSet::from([f.iface("A1")]),
            to: HashSet::from([f.iface("D3")]),
            verb: ControlVerb::Isolate,
            region: f.traffic(3),
        }];
        let mut task = task_for(&f, f.config.clone());
        task.controls = controls.clone();
        for cfg in all_configs() {
            let r = check(&f.net, &task, &cfg).unwrap();
            match &r.outcome {
                CheckOutcome::Inconsistent(v) => {
                    assert_eq!(v.packet.dip >> 24, 3);
                    assert!(!v.desired && v.actual);
                }
                CheckOutcome::Consistent => panic!("isolate unmet ({cfg:?})"),
            }
            let exact = check_exact(&f.net, &f.scope(), &f.config, &f.config, &controls);
            assert!(!exact.is_consistent());
        }
    }

    #[test]
    fn control_open_satisfied_by_matching_update() {
        use std::collections::HashSet;
        // Open traffic 6 from A1 to D3; update A1 to permit 6/8 again.
        let f = Figure1::new();
        let controls = vec![ResolvedControl {
            from: HashSet::from([f.iface("A1")]),
            to: HashSet::from([f.iface("D3")]),
            verb: ControlVerb::Open,
            region: f.traffic(6),
        }];
        let mut after = f.config.clone();
        after.set(f.slot("A1"), jinjing_acl::Acl::permit_all());
        let mut task = task_for(&f, after);
        task.controls = controls;
        let r = check(&f.net, &task, &CheckConfig::default()).unwrap();
        assert!(r.outcome.is_consistent(), "{:?}", r.outcome);
    }

    #[test]
    fn report_counts_are_populated() {
        let f = Figure1::new();
        let task = task_for(&f, f.bad_update());
        let r = check(
            &f.net,
            &task,
            &CheckConfig {
                differential: false,
                ..CheckConfig::default()
            },
        )
        .unwrap();
        assert!(r.fec_count >= 1);
        assert!(r.paths_checked >= 1);
        assert!(r.total_rules > 0);
    }
}

#[cfg(test)]
mod per_acl_tests {
    use super::*;
    use crate::figure1::Figure1;

    #[test]
    fn per_acl_accepts_equivalent_rewrites() {
        let f = Figure1::new();
        let mut after = f.config.clone();
        after.set(
            f.slot("D2"),
            jinjing_acl::AclBuilder::default_permit()
                .deny_dst("2.0.0.0/8")
                .deny_dst("1.0.0.0/8")
                .build(),
        );
        let r = check_per_acl(&f.config, &after, &CheckConfig::default());
        assert!(r.outcome.is_consistent());
    }

    #[test]
    fn per_acl_catches_real_changes() {
        let f = Figure1::new();
        let r = check_per_acl(&f.config, &f.bad_update(), &CheckConfig::default());
        assert!(!r.outcome.is_consistent());
    }

    #[test]
    fn per_acl_is_stricter_than_per_path() {
        // §9: moving a deny between two slots of the same path is a false
        // positive for the per-ACL fallback. Traffic 7's only path crosses
        // both A3-out and C1-in; moving the deny from C1 to A3 preserves
        // reachability (per-path consistent) but changes both ACLs.
        let f = Figure1::new();
        let mut after = f.config.clone();
        after.set(f.slot("C1"), jinjing_acl::Acl::permit_all());
        after.set(
            jinjing_net::Slot::egress(f.iface("A3")),
            jinjing_acl::AclBuilder::default_permit()
                .deny_dst("7.0.0.0/8")
                .build(),
        );
        let per_path = check_exact(&f.net, &f.scope(), &f.config, &after, &[]);
        assert!(per_path.is_consistent(), "{per_path:?}");
        let per_acl = check_per_acl(&f.config, &after, &CheckConfig::default());
        assert!(
            !per_acl.outcome.is_consistent(),
            "the fallback must (conservatively) flag this"
        );
    }

    #[test]
    fn per_acl_identical_configs_trivially_consistent() {
        let f = Figure1::new();
        let r = check_per_acl(&f.config, &f.config, &CheckConfig::default());
        assert!(r.outcome.is_consistent());
        assert_eq!(r.paths_checked, 0, "empty diff short-circuits");
    }

    /// Canonical rendering of a report minus wall-clock (fuzz comparator).
    fn canon(r: &CheckReport) -> String {
        format!(
            "{:?}|{}|{}|{:?}|{}|{}",
            r.outcome, r.fec_count, r.paths_checked, r.solver_stats, r.encoded_rules, r.total_rules
        )
    }

    /// Tiny xorshift64* PRNG for the fuzz below.
    struct XorShift(u64);
    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A small random ACL: 0–4 deny/permit rules over /6–/10 dst prefixes.
    fn random_acl(rng: &mut XorShift) -> Acl {
        let mut rules = Vec::new();
        for _ in 0..rng.below(5) {
            let len = 6 + rng.below(5) as u32;
            let addr = (rng.next() as u32) & (u32::MAX << (32 - len));
            let action = if rng.below(2) == 0 {
                jinjing_acl::Action::Deny
            } else {
                jinjing_acl::Action::Permit
            };
            rules.push(jinjing_acl::Rule::new(
                action,
                jinjing_acl::MatchSpec::dst(jinjing_acl::IpPrefix::new(addr, len)),
            ));
        }
        Acl::new(rules, jinjing_acl::Action::Permit)
    }

    /// [`keyed_query`] with the key words computed from the ACLs.
    fn cached_query(
        cfg: &CheckConfig,
        chain: &[(&Acl, &Acl)],
        verb: Option<ControlVerb>,
        region: &PacketSet,
    ) -> CachedSolve {
        let words: Vec<u64> = chain
            .iter()
            .map(|(b, a)| cfg.cache.pair_fingerprint(b, a))
            .collect();
        let region = (region, region_fingerprint(region));
        keyed_query(cfg, chain, &words, verb, region)
    }

    /// Every field of a [`CachedSolve`], for field-for-field comparison.
    fn fields(v: &CachedSolve) -> (SolveResult, Option<Packet>, SolverStats, usize, usize) {
        (v.result, v.model, v.stats, v.vars, v.clauses)
    }

    /// The store against its reference: over random ACL chains × verbs ×
    /// regions, `cached_query` — first call (a miss) and replay (a hit),
    /// with the real and with a *degenerate* fingerprint (every key hashes
    /// alike, so lookups fall back to full structural equality) — returns
    /// field for field what a direct `run_query` returns. The stores are
    /// shared across cases, so a wrong replay of an earlier case's entry
    /// would show.
    #[test]
    fn store_returns_what_run_query_returns() {
        let mut rng = XorShift(0x0123_4567_89AB_CDEF);
        let stores = [
            Arc::new(QueryCache::new()),
            Arc::new(QueryCache::with_fingerprint(|_| 0)),
        ];
        let verbs = [
            None,
            Some(ControlVerb::Maintain),
            Some(ControlVerb::Isolate),
            Some(ControlVerb::Open),
        ];
        for case in 0..60 {
            let acls: Vec<(Acl, Acl)> = (0..1 + rng.below(3))
                .map(|_| (random_acl(&mut rng), random_acl(&mut rng)))
                .collect();
            let chain: Vec<(&Acl, &Acl)> = acls.iter().map(|(b, a)| (b, a)).collect();
            let verb = verbs[rng.below(4) as usize];
            let encoding = [Encoding::Sequential, Encoding::Tree][rng.below(2) as usize];
            let cover = PacketSet::from_cube(
                jinjing_acl::MatchSpec::dst(jinjing_acl::IpPrefix::new(
                    (rng.next() as u32) & 0xFC00_0000,
                    6,
                ))
                .cube(),
            );
            let full = PacketSet::full();
            let region = [&full, &cover][rng.below(2) as usize];
            let direct = fields(&run_query(&chain, verb, encoding, region, None));
            for store in &stores {
                let cfg = CheckConfig {
                    cache: Arc::clone(store),
                    encoding,
                    ..CheckConfig::default()
                };
                let known = store
                    .get(&store.key(&chain, verb, encoding, region))
                    .is_some();
                for call in 0..2 {
                    let got = cached_query(&cfg, &chain, verb, region);
                    assert_eq!(fields(&got), direct, "case {case} call {call}");
                }
                let misses = cfg.obs.counter_get("check.cache_miss");
                assert_eq!(misses, u64::from(!known), "case {case}: one solve per key");
                assert_eq!(cfg.obs.counter_get("check.cache_hit"), 2 - misses);
            }
        }
        assert!(stores
            .iter()
            .all(|s| s.len() == stores[0].len() && !s.is_empty()));
    }

    /// The circuit sharing, pinned by the solver's own deterministic
    /// counters: an Eq. 3 query over a two-hop chain whose first hop swaps
    /// two disjoint neighbours across a tree-pair boundary (an equivalent
    /// rewrite) and whose second hop is untouched, inside the swapped
    /// rules' cover. With one hash-consed builder the sides differ in a
    /// handful of gates. Before gates were shared and aligned blocks were
    /// prefixes the same call read vars 6483, clauses 23551, conflicts 15.
    #[test]
    fn equivalent_rewrite_counters_are_pinned() {
        use jinjing_acl::parse::parse_rule;
        let ladder = |third_octet: u32| -> Vec<jinjing_acl::Rule> {
            (0..48u32)
                .map(|i| {
                    let action = if i % 3 == 0 { "permit" } else { "deny" };
                    let (lo, hi) = (1000 + 10 * i, 2000 + 10 * i);
                    let text = format!("{action} dst 10.{i}.{third_octet}.0/24 dport {lo}-{hi}");
                    parse_rule(&text).unwrap()
                })
                .collect()
        };
        let rules = ladder(0);
        let mut swapped = rules.clone();
        swapped.swap(5, 6);
        let cover = PacketSet::from_cubes(vec![rules[5].matches.cube(), rules[6].matches.cube()]);
        let permit = jinjing_acl::Action::Permit;
        let (before, after) = (Acl::new(rules, permit), Acl::new(swapped, permit));
        let untouched = Acl::new(ladder(1), permit);
        let chain = [(&before, &after), (&untouched, &untouched)];

        let solved = run_query(&chain, None, Encoding::Tree, &cover, None);
        assert_eq!(solved.result, SolveResult::Unsat);
        assert_eq!(
            (solved.vars, solved.clauses, solved.stats.conflicts),
            (1575, 6625, 3)
        );
    }

    /// Fuzz the store at report level: for random before/after config
    /// pairs, `check_per_acl` with a private store per run (every query
    /// solved), with one store shared across cases (so cross-case replays
    /// happen) and with a shared *degenerate*-fingerprint store must
    /// produce identical reports.
    #[test]
    fn fuzz_private_and_shared_store_per_acl_agree() {
        let f = Figure1::new();
        let slots: Vec<jinjing_net::Slot> = f.config.slots();
        let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
        let shared = Arc::new(QueryCache::new());
        let colliding = Arc::new(QueryCache::with_fingerprint(|_| 0));
        for case in 0..40 {
            let mut before = AclConfig::new();
            let mut after = AclConfig::new();
            for &slot in &slots {
                if rng.below(2) == 0 {
                    before.set(slot, random_acl(&mut rng));
                }
                if rng.below(2) == 0 {
                    after.set(slot, random_acl(&mut rng));
                }
            }
            let run = |cache: Arc<QueryCache>| {
                let cfg = CheckConfig {
                    cache,
                    ..CheckConfig::default()
                };
                canon(&check_per_acl(&before, &after, &cfg))
            };
            let private = run(Arc::new(QueryCache::new()));
            assert_eq!(
                private,
                run(Arc::clone(&shared)),
                "case {case}: shared store diverged"
            );
            assert_eq!(
                private,
                run(Arc::clone(&colliding)),
                "case {case}: colliding-fingerprint store diverged"
            );
        }
        assert!(
            !shared.is_empty(),
            "the fuzz must actually populate the shared store"
        );
    }

    /// Same fuzz for the full path-sensitive checker on Figure 1: random
    /// updates to the running-example network, private store vs shared and
    /// colliding stores, across serial and parallel execution.
    #[test]
    fn fuzz_private_and_shared_store_check_agree() {
        let f = Figure1::new();
        let slots: Vec<jinjing_net::Slot> = f.config.slots();
        let mut rng = XorShift(0xDEAD_BEEF_CAFE_F00D);
        let shared = Arc::new(QueryCache::new());
        let colliding = Arc::new(QueryCache::with_fingerprint(|_| 0));
        for case in 0..12 {
            let mut after = f.config.clone();
            for &slot in &slots {
                if rng.below(3) == 0 {
                    after.set(slot, random_acl(&mut rng));
                }
            }
            let task = Task {
                scope: f.scope(),
                allow: Vec::new(),
                before: f.config.clone(),
                after,
                modified: Vec::new(),
                controls: Vec::new(),
                command: jinjing_lai::Command::Check,
            };
            let run = |cache: Arc<QueryCache>, threads: usize| {
                let cfg = CheckConfig {
                    cache,
                    threads,
                    ..CheckConfig::default()
                };
                canon(&check(&f.net, &task, &cfg).expect("figure 1 never explodes"))
            };
            let private = run(Arc::new(QueryCache::new()), 1);
            assert_eq!(
                private,
                run(Arc::clone(&shared), 2),
                "case {case}: shared store (parallel) diverged"
            );
            assert_eq!(
                private,
                run(Arc::clone(&colliding), 1),
                "case {case}: colliding-fingerprint store diverged"
            );
        }
        assert!(!shared.is_empty());
    }
}
