//! The **fix** primitive (§4.2).
//!
//! When check reports an inconsistency, fix repairs the update by adding
//! high-priority rules on allowed slots. Two interchangeable engines are
//! provided ([`FixStrategy`]): the paper's iterative
//! counterexample-guided loop (default, described below) and a batch
//! variant that harvests every violation with the exact set algebra in a
//! single pass before solving placements (a consistent repair like §4.2's,
//! reached without per-counterexample solver round-trips — not the same
//! rules). Both read the scope from one [`ScopeModel`] and end in the same
//! certification check on it.
//!
//! The iterative engine:
//!
//! 1. **Seeking neighborhoods** — each counterexample `h` from check is
//!    *enlarged* into a maximal rule-shaped tuple (Eq. 6): the largest
//!    per-field bit-prefix expansion whose packets all share `h`'s
//!    forwarding class, every ACL decision (before *and* after), and every
//!    control region. The expansion is found by binary search on each
//!    field's prefix length. A candidate cube is accepted iff it is
//!    *uniform* under every predicate — inside the predicate when `h` is,
//!    disjoint from it otherwise — and disjoint from every earlier
//!    neighborhood: exact cube-against-cube-list tests
//!    ([`PacketSet::covers`], [`PacketSet::meets`]) that build no set. That
//!    is membership in `h`'s equivalence region (the intersection of `h`'s
//!    side of every predicate, minus the earlier neighborhoods) without the
//!    region. The permit sets tested are those of `before` and of the
//!    *original* update, each distinct ACL compiled once per request:
//!    fixing rules match their own — excluded — neighborhood only, so on
//!    any cube clear of the earlier neighborhoods the repaired
//!    configuration decides exactly as the update did. The neighborhood is
//!    excluded and check re-runs until no counterexample remains.
//! 2. **Fixing plan generation** — per neighborhood, a boolean placement
//!    problem (Eq. 7 within Eq. 3's schema): one decision variable `D(ξ)`
//!    per slot on the neighborhood's paths, constrained so every path's
//!    conjunction equals the desired decision; non-`allow`ed slots are
//!    pinned to the updated configuration's decision. The *minimal changes*
//!    objective is a linear search over a sequential-counter cardinality
//!    bound on the change indicators.
//! 3. Rules `(action = D(ξ), match = neighborhood)` are prepended where the
//!    solved decision differs from the updated ACL's, and the touched ACLs
//!    are simplified (§4.2 extensions).

use crate::check::{
    check_inner, preprocess, scope_model, slots_union, CheckConfig, CheckOutcome, CheckReport,
    CoverMemo, Preprocessed,
};
use crate::control::desired_decision;
use crate::task::Task;
use jinjing_acl::atoms::ClassExplosion;
use jinjing_acl::cube::Cube;
use jinjing_acl::interval::Interval;
use jinjing_acl::packet::Field;
use jinjing_acl::simplify::simplify;
use jinjing_acl::{Acl, Action, IpPrefix, MatchSpec, Packet, PacketSet, PortRange, Rule};
use jinjing_net::{AclConfig, DistinctAcls, Network, Path, ScopeModel, Slot};
use jinjing_par::Pool;
use jinjing_solver::card::{at_most_assumption, counter_outputs};
use jinjing_solver::cdcl::SolveResult;
use jinjing_solver::lit::Lit;
use jinjing_solver::CircuitBuilder;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// How fix hunts for violations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FixStrategy {
    /// The paper's loop: solver counterexample → neighborhood expansion →
    /// placement → block → repeat (§4.2). Default; scales like the paper
    /// (minutes on the large network).
    #[default]
    IterativeCegis,
    /// Reproduction extension: compute the complete violation set with the
    /// exact packet-set algebra, partition it into maximal uniform
    /// neighborhoods in one refinement pass, and solve placements per
    /// class. Two orders of magnitude faster on large inputs (26 s → 0.2 s
    /// on the medium WAN's 3 % perturbation), and every repair certifies
    /// consistent, but the repairs are *not* the iterative engine's: its
    /// neighborhoods are refinement atoms rather than prefix enlargements
    /// of counterexamples, so it typically answers with fewer, differently
    /// shaped rules (3 where the default emits 72 on the ruler's
    /// `fix-medium` requests).
    ExactBatch,
}

/// Tunables only fix reads (the check settings are the caller's
/// [`CheckConfig`]). The placement always minimizes the slots changed and
/// the touched ACLs are always simplified (§4.2 extensions).
#[derive(Debug, Clone)]
pub struct FixConfig {
    /// Violation-hunting strategy.
    pub strategy: FixStrategy,
    /// Abort after this many neighborhoods (safety valve; the paper notes
    /// unexpanded enumeration could run 10^31 iterations).
    pub max_neighborhoods: usize,
}

impl Default for FixConfig {
    fn default() -> FixConfig {
        FixConfig {
            strategy: FixStrategy::default(),
            max_neighborhoods: 10_000,
        }
    }
}

/// Why fix failed.
#[derive(Debug)]
pub enum FixError {
    /// A neighborhood admits no consistent placement within `allow`.
    Unfixable {
        /// The neighborhood that cannot be repaired.
        neighborhood: MatchSpec,
    },
    /// Too many neighborhoods (see [`FixConfig::max_neighborhoods`]).
    TooManyNeighborhoods,
    /// Equivalence-class explosion during checking.
    Classes(ClassExplosion),
    /// A nested check's shard fan-out failed (delegated solving).
    Shard(String),
    /// The repaired configuration failed its certification check: the
    /// engine has a bug, and the plan is withheld rather than reported as
    /// fixed.
    NotCertified {
        /// A packet whose decision still differs from the desired one.
        witness: Packet,
    },
}

impl std::fmt::Display for FixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FixError::Unfixable { neighborhood } => {
                write!(f, "no consistent placement for neighborhood {neighborhood}")
            }
            FixError::TooManyNeighborhoods => write!(f, "neighborhood budget exhausted"),
            FixError::Classes(e) => write!(f, "{e}"),
            FixError::Shard(msg) => write!(f, "shard fan-out failed: {msg}"),
            FixError::NotCertified { witness } => write!(
                f,
                "fix left an inconsistency behind: the repaired configuration fails its final check at {witness}"
            ),
        }
    }
}

impl std::error::Error for FixError {}

impl From<ClassExplosion> for FixError {
    fn from(e: ClassExplosion) -> FixError {
        FixError::Classes(e)
    }
}

impl From<crate::check::CheckError> for FixError {
    fn from(e: crate::check::CheckError) -> FixError {
        match e {
            crate::check::CheckError::Classes(c) => FixError::Classes(c),
            crate::check::CheckError::Shard(msg) => FixError::Shard(msg),
        }
    }
}

/// Wall-clock split of a fix run, mirroring the `fix.*` span tree. Each
/// field is the summed duration of the matching span across the whole run.
#[derive(Debug, Clone, Copy, Default)]
pub struct FixPhases {
    /// Counterexample hunting: per-class solver enumeration (iterative
    /// engine) or the exact violation sweep (batch engine).
    pub enumerate: std::time::Duration,
    /// Neighborhood enlargement (Eq. 6) / batch partitioning into maximal
    /// uniform neighborhoods.
    pub enlarge: std::time::Duration,
    /// Placement solving (Eq. 7) including fixing-rule emission.
    pub place: std::time::Duration,
    /// Final ACL simplification (§4.2 extension).
    pub simplify: std::time::Duration,
}

/// The produced fixing plan.
#[derive(Debug, Clone)]
pub struct FixPlan {
    /// Rules added, in application order, per slot.
    pub added_rules: Vec<(Slot, Rule)>,
    /// The repaired configuration (update + fixes, simplified).
    pub fixed: AclConfig,
    /// The neighborhoods that were repaired.
    pub neighborhoods: Vec<MatchSpec>,
    /// The final (consistent) check report.
    pub final_check: CheckReport,
    /// Per-phase wall-clock, sourced from the same spans the collector
    /// aggregates.
    pub phases: FixPhases,
}

/// Run fix on a resolved task. `check` is the run's check configuration:
/// the counterexample search encodes, caches and records under it, and
/// the repaired configuration must pass a check under it (its delegate
/// included) before the plan is returned.
pub fn fix(
    net: &Network,
    task: &Task,
    check: &CheckConfig,
    cfg: &FixConfig,
) -> Result<FixPlan, FixError> {
    let model = scope_model(net, task.scope.clone(), &task.controls, check.refine_limits);
    fix_in(&model, task, check, cfg)
}

/// [`fix`] on the caller's model of `task.scope` under `task.controls`: the
/// search reads classes and paths from it and the certification check
/// replays them, so one request refines the scope once.
pub(crate) fn fix_in(
    model: &ScopeModel<'_>,
    task: &Task,
    check: &CheckConfig,
    cfg: &FixConfig,
) -> Result<FixPlan, FixError> {
    let _fix_span = check.obs.span("fix");
    let repair = match cfg.strategy {
        FixStrategy::IterativeCegis => fix_iterative(model, task, check, cfg)?,
        FixStrategy::ExactBatch => fix_batch(model, task, check, cfg)?,
    };
    certify(model, task, check, repair)
}

/// What either engine hands to [`certify`]: the update with every fixing
/// rule prepended, and how it got there.
struct Repair {
    current: AclConfig,
    neighborhoods: Vec<MatchSpec>,
    added_rules: Vec<(Slot, Rule)>,
    phases: FixPhases,
}

/// The tail both engines share: the repaired configuration must pass a
/// check before anyone hears "fixed" — a witness is an error, in every
/// build — and only then are the touched ACLs simplified and the plan
/// assembled.
fn certify(
    model: &ScopeModel<'_>,
    task: &Task,
    check: &CheckConfig,
    repair: Repair,
) -> Result<FixPlan, FixError> {
    let Repair {
        current,
        neighborhoods,
        added_rules,
        mut phases,
    } = repair;
    let obs = &check.obs;
    let final_check = check_inner(
        model,
        &task.before,
        &current,
        &task.controls,
        check,
        &CoverMemo::default(),
    )?
    .report;
    if let CheckOutcome::Inconsistent(v) = &final_check.outcome {
        return Err(FixError::NotCertified { witness: v.packet });
    }
    let mut fixed = current;
    let sp = obs.span("fix.simplify");
    for slot in fixed.slots() {
        if let Some(acl) = fixed.get(slot) {
            if acl.len() <= 128 {
                let (s, _) = simplify(acl);
                fixed.set(slot, s);
            }
        }
    }
    phases.simplify = sp.finish();
    obs.counter_add("fix.neighborhoods", neighborhoods.len() as u64);
    obs.counter_add("fix.added_rules", added_rules.len() as u64);
    Ok(FixPlan {
        added_rules,
        fixed,
        neighborhoods,
        final_check,
        phases,
    })
}

/// The [`FixStrategy::IterativeCegis`] engine (see the module docs).
fn fix_iterative(
    model: &ScopeModel<'_>,
    task: &Task,
    check: &CheckConfig,
    cfg: &FixConfig,
) -> Result<Repair, FixError> {
    let obs = &check.obs;
    let (before, controls) = (&task.before, &task.controls);
    let mut phases = FixPhases::default();
    let mut current = task.after.clone();
    // The cubes of `neighborhoods`: pairwise disjoint.
    let mut excluded: Vec<Cube> = Vec::new();
    let mut neighborhoods: Vec<MatchSpec> = Vec::new();
    let mut added_rules: Vec<(Slot, Rule)> = Vec::new();
    // The ACL predicates of Eq. 6, compiled at the first counterexample (a
    // consistent update pays nothing) and good for the whole run: `before`
    // never changes, and `current` departs from `task.after` only inside
    // `excluded`, where no candidate reaches (see `expand_neighborhood`).
    let mut acl_sets: Option<Vec<PacketSet>> = None;

    // Preprocess ONCE against the original update: Theorem 4.1 confines
    // violations to the differential cover, and fixing rules only ever
    // rewrite decisions inside already-repaired (blocked) neighborhoods, so
    // the cover never grows during the loop.
    let Preprocessed { pairs, cover, .. } = preprocess(
        before,
        &task.after,
        controls,
        check.differential,
        &CoverMemo::default(),
        &check.cache,
    );

    for (ci, class) in model.classes()?.iter().enumerate() {
        if !class.set.intersects(&cover) {
            continue;
        }
        let paths = model.paths_for(ci);
        if paths.is_empty() {
            continue;
        }
        // One incremental solver per class: counterexamples are enumerated
        // by blocking each repaired neighborhood and re-solving, so the
        // expensive class setup (FECs, circuit encodings) is paid once.
        let mut builder = CircuitBuilder::new();
        builder.set_obs(obs.clone());
        let hvars = jinjing_solver::HeaderVars::new(&mut builder);
        let mut lits_before: HashMap<Slot, Lit> = HashMap::new();
        let mut lits_after: HashMap<Slot, Lit> = HashMap::new();
        let mut disagreements: Vec<Lit> = Vec::new();
        let class_controls = crate::control::ClassControls::new(controls, &class.set);
        for path in paths {
            let mut c_before: Vec<Lit> = Vec::new();
            let mut c_after: Vec<Lit> = Vec::new();
            for &slot in &path.slots {
                if let Some(pair) = pairs.get(&slot) {
                    let lb = *lits_before.entry(slot).or_insert_with(|| {
                        jinjing_solver::aclenc::encode(
                            &mut builder,
                            &hvars,
                            &pair.before,
                            check.encoding,
                        )
                    });
                    let la = *lits_after.entry(slot).or_insert_with(|| {
                        jinjing_solver::aclenc::encode(
                            &mut builder,
                            &hvars,
                            &pair.after,
                            check.encoding,
                        )
                    });
                    c_before.push(lb);
                    c_after.push(la);
                }
            }
            let cp = builder.and(&c_before);
            let cp2 = builder.and(&c_after);
            let desired = match class_controls.verb_for(path) {
                Some(jinjing_lai::ControlVerb::Isolate) => builder.f(),
                Some(jinjing_lai::ControlVerb::Open) => builder.t(),
                Some(jinjing_lai::ControlVerb::Maintain) | None => cp,
            };
            let eq = builder.iff(desired, cp2);
            disagreements.push(!eq);
        }
        let any = builder.or(&disagreements);
        let in_class = hvars.in_set(&mut builder, &class.set);
        builder.assert(any);
        builder.assert(in_class);
        let in_cover = hvars.in_set(&mut builder, &cover);
        builder.assert(in_cover);

        // --- Counterexample enumeration for this class. ---
        loop {
            let sp = obs.span("fix.enumerate");
            let found = builder.solve() == SolveResult::Sat;
            phases.enumerate += sp.finish();
            if !found {
                break;
            }
            if neighborhoods.len() >= cfg.max_neighborhoods {
                return Err(FixError::TooManyNeighborhoods);
            }
            let h = hvars.decode(&builder);

            // Phase 1: enlarge h into its neighborhood (Eq. 6).
            let sp = obs.span("fix.enlarge");
            let sets = acl_sets.get_or_insert_with(|| distinct_permit_sets(before, &task.after));
            let m = expand_neighborhood(sets.iter().chain(model.family()), &excluded, &h);
            phases.enlarge += sp.finish();
            #[cfg(test)]
            tests::check_enlargement(model, task, &current, &excluded, &h, &m);
            obs.event(
                jinjing_obs::Level::Debug,
                "fix.neighborhood",
                &format!("counterexample {h} enlarged to {m}"),
            );
            let cube = m.cube();
            let region = PacketSet::from_cube(cube);
            excluded.push(cube);
            neighborhoods.push(m);

            // Phase 2: placement solve for this neighborhood (§4.2 "Fixing
            // plan generation"), its rules prepended to `current`.
            let sp = obs.span("fix.place");
            let adds = solve_placement(model, task, &current, obs, &[m], &region, &h)?;
            apply_placement(&mut current, &mut added_rules, &adds);
            phases.place += sp.finish();
            // What keeps `acl_sets` current: a placement rewrites decisions
            // inside its own neighborhood and nowhere else.
            debug_assert!(adds.iter().all(|&(slot, rule)| {
                rule.matches == m && agree_outside(&current, &task.after, slot, &excluded)
            }));

            // Exclude the repaired region from further enumeration.
            let blocked = hvars.in_set(&mut builder, &region);
            builder.assert(!blocked);
        }
    }
    Ok(Repair {
        current,
        neighborhoods,
        added_rules,
        phases,
    })
}

/// Solve the placement problem for one neighborhood (§4.2 "Fixing plan
/// generation", with the `allow` constraints and the minimal-change
/// objective), pure with respect to `base`: the fixing rules are
/// *returned*, not applied. Because neighborhoods are pairwise disjoint and
/// fixing rules only match their own neighborhood, `base`'s decision on any
/// *other* neighborhood's packets is unchanged by applying a placement — so
/// solving every placement against the pre-placement configuration and
/// applying the results serially in neighborhood order is bit-for-bit the
/// sequential repair. That is what lets the batch engine fan placements out
/// across worker threads.
fn solve_placement(
    model: &ScopeModel<'_>,
    task: &Task,
    base: &AclConfig,
    obs: &jinjing_obs::Collector,
    specs: &[MatchSpec],
    region: &PacketSet,
    h: &Packet,
) -> Result<Vec<(Slot, Rule)>, FixError> {
    let current = base;
    let allow = &task.allow;
    let paths = model.net().all_paths_for_class(model.scope(), region);
    let mut builder = CircuitBuilder::new();
    // Solver telemetry lands in the shared collector directly from the
    // worker: counters and histograms are commutative aggregates, so the
    // totals are schedule-independent (unlike spans, which workers never
    // open).
    builder.set_obs(obs.clone());
    // One decision variable per slot appearing on any carrying path.
    let mut vars: HashMap<Slot, Lit> = HashMap::new();
    for p in &paths {
        for &s in &p.slots {
            vars.entry(s).or_insert_with(|| builder.input());
        }
    }
    // Pin slots we may not change to the current configuration's decision
    // on the neighborhood.
    let mut order: Vec<Slot> = vars.keys().copied().collect();
    order.sort();
    for &slot in &order {
        if !allow.contains(&slot) {
            let pinned = current.slot_permits(slot, h);
            let v = vars[&slot];
            builder.assert(if pinned { v } else { !v });
        }
    }
    // Path constraints: conjunction of D over the path ⇔ desired.
    for p in &paths {
        if !region.is_subset(&p.carried) {
            // The neighborhood only partially flows here; it is still
            // decision-uniform (expansion included forwarding), so this
            // path carries none of it.
            continue;
        }
        let original = task.before.path_permits(p, h);
        let desired = desired_decision(&task.controls, p, region, original);
        let lits: Vec<Lit> = p.slots.iter().map(|s| vars[s]).collect();
        let conj = builder.and(&lits);
        builder.assert(if desired { conj } else { !conj });
    }
    // Change indicators (w.r.t. the current/updated config).
    let changeable: Vec<Slot> = order
        .iter()
        .copied()
        .filter(|s| allow.contains(s))
        .collect();
    let indicators: Vec<Lit> = changeable
        .iter()
        .map(|&s| {
            let now = current.slot_permits(s, h);
            let v = vars[&s];
            let now_lit = if now { builder.t() } else { builder.f() };
            builder.xor(v, now_lit)
        })
        .collect();
    // Minimal changes: ascend k = 0, 1, 2, … over sequential-counter
    // outputs, by assumption on the one solver instance (learned clauses
    // survive each bound), until the first `Sat`: that k is minimal. The
    // fix goldens pin the placement this search surfaces.
    let outputs = counter_outputs(&mut builder, &indicators);
    let mut solves = 0u64;
    let mut sat = false;
    for k in 0..=indicators.len() {
        let assumptions: Vec<Lit> = at_most_assumption(&outputs, k).into_iter().collect();
        solves += 1;
        if builder.solve_with(&assumptions) == SolveResult::Sat {
            sat = true;
            break;
        }
    }
    obs.counter_add("fix.place_solves", solves);
    if !sat {
        return Err(FixError::Unfixable {
            neighborhood: specs[0],
        });
    }
    // Emit fixing rules where the solved decision differs from the base
    // ACL's decision on the neighborhood (one rule per covering tuple).
    let mut adds: Vec<(Slot, Rule)> = Vec::new();
    for &slot in &changeable {
        let want = builder.model_value(vars[&slot]);
        let now = current.slot_permits(slot, h);
        if want != now {
            for &m in specs {
                adds.push((slot, Rule::new(Action::from_bool(want), m)));
            }
        }
    }
    Ok(adds)
}

/// `true` iff `slot` decides every packet outside `excluded` alike in both
/// configurations.
fn agree_outside(a: &AclConfig, b: &AclConfig, slot: Slot, excluded: &[Cube]) -> bool {
    let (a, b) = (a.slot_permit_set(slot), b.slot_permit_set(slot));
    let differ = a.subtract(&b).union(&b.subtract(&a));
    differ.is_subset(&PacketSet::from_cubes_raw(excluded.to_vec()))
}

/// Apply a solved placement: prepend each slot's fixing rules (in spec
/// order, as one batch per slot). `adds` is slot-major as produced by
/// [`solve_placement`].
fn apply_placement(
    current: &mut AclConfig,
    added_rules: &mut Vec<(Slot, Rule)>,
    adds: &[(Slot, Rule)],
) {
    let mut i = 0;
    while i < adds.len() {
        let slot = adds[i].0;
        let mut j = i;
        while j < adds.len() && adds[j].0 == slot {
            j += 1;
        }
        let rules: Vec<Rule> = adds[i..j].iter().map(|&(_, r)| r).collect();
        let acl = current.get(slot).cloned().unwrap_or_else(Acl::permit_all);
        current.set(slot, acl.with_prepended(&rules));
        added_rules.extend_from_slice(&adds[i..j]);
        i = j;
    }
}

/// The [`FixStrategy::ExactBatch`] engine: one exact pass computes every
/// violation, one refinement pass partitions them into maximal uniform
/// neighborhoods, then placements are solved per neighborhood.
fn fix_batch(
    model: &ScopeModel<'_>,
    task: &Task,
    check: &CheckConfig,
    cfg: &FixConfig,
) -> Result<Repair, FixError> {
    let obs = &check.obs;
    let controls = &task.controls;
    let mut phases = FixPhases::default();
    let mut current = task.after.clone();
    let mut neighborhoods: Vec<MatchSpec> = Vec::new();
    let mut added_rules: Vec<(Slot, Rule)> = Vec::new();

    // One permit set per distinct ACL of either side, and a full set last
    // for a slot one side leaves unconfigured; each slot either side fills
    // maps to its set on both sides.
    let slots_union = slots_union(&task.before, &task.after);
    let distinct = DistinctAcls::of(&[&task.before, &task.after]);
    let mut sets: Vec<PacketSet> = distinct.acls().iter().map(|a| a.permit_set()).collect();
    let unconfigured = sets.len();
    sets.push(PacketSet::full());
    let set_of = |side: usize| -> HashMap<Slot, usize> {
        (slots_union.iter())
            .map(|&s| (s, distinct.index_at(side, s).unwrap_or(unconfigured)))
            .collect()
    };
    let (before_of, after_of) = (set_of(0), set_of(1));
    let path_set = |set_of: &HashMap<Slot, usize>, path: &Path| -> PacketSet {
        let mut out = PacketSet::full();
        for slot in &path.slots {
            if let Some(&i) = set_of.get(slot) {
                out = out.intersect(&sets[i]);
                if out.is_empty() {
                    break;
                }
            }
        }
        out
    };

    // The complete violation set.
    let sp = obs.span("fix.enumerate");
    let mut violation_cubes = Vec::new();
    for path in model.topological_paths() {
        let original = path_set(&before_of, path);
        let desired = crate::control::desired_permit_set(controls, path, &original);
        let actual = path_set(&after_of, path);
        let wrong = desired
            .subtract(&actual)
            .union(&actual.subtract(&desired))
            .intersect(&path.carried);
        violation_cubes.extend(wrong.cubes().iter().copied());
    }
    let violations = PacketSet::from_cubes_raw(violation_cubes).coalesce();
    phases.enumerate = sp.finish();

    if !violations.is_empty() {
        // Partition into maximal uniform neighborhoods (the batch analogue
        // of Eq. 6: every predicate of Eq. 6's conjunction refines).
        let sp = obs.span("fix.enlarge");
        let mut preds: Vec<PacketSet> = model.forwarding().to_vec();
        for slot in &slots_union {
            preds.push(sets[before_of[slot]].clone());
            preds.push(sets[after_of[slot]].clone());
        }
        preds.extend(crate::control::control_regions(controls));
        let preds = jinjing_acl::atoms::dedupe_predicates(preds);
        let atoms = jinjing_acl::atoms::refine(&violations, &preds, check.refine_limits)
            .map_err(FixError::Classes)?;
        phases.enlarge = sp.finish();
        if atoms.len() > cfg.max_neighborhoods {
            return Err(FixError::TooManyNeighborhoods);
        }
        // Per-atom placement jobs. Atoms are pairwise disjoint, so every
        // placement is solved against the pristine updated configuration —
        // in parallel — and the resulting rules are applied serially in
        // atom order, which is bit-for-bit the sequential repair (see
        // `solve_placement`). Workers measure their own solve time; the
        // driver folds the sum into `phases.place` and the `fix.place`
        // span, so the phase split stays a single timing source whatever
        // the thread count.
        struct AtomJob {
            region: PacketSet,
            h: Packet,
            specs: Vec<MatchSpec>,
        }
        let jobs: Vec<AtomJob> = atoms
            .into_iter()
            .map(|atom| {
                let region = atom.set;
                let h = region.sample().expect("atoms are non-empty");
                let specs = jinjing_acl::decompose::set_to_matchspecs(&region);
                AtomJob { region, h, specs }
            })
            .collect();
        let pool = Pool::new(jinjing_par::resolve_threads(check.threads));
        let base = &current;
        let solved = pool.par_map(&jobs, |_, job| {
            let t0 = Instant::now();
            let r = solve_placement(model, task, base, obs, &job.specs, &job.region, &job.h);
            (r, t0.elapsed())
        });
        let mut t_place = Duration::ZERO;
        let mut folded = 0u64;
        let mut first_err = None;
        for (job, (result, dt)) in jobs.iter().zip(solved) {
            t_place += dt;
            folded += 1;
            match result {
                Ok(adds) => {
                    neighborhoods.extend(job.specs.iter().copied());
                    apply_placement(&mut current, &mut added_rules, &adds);
                }
                Err(e) => {
                    first_err = Some(e);
                    break;
                }
            }
        }
        phases.place = t_place;
        if folded > 0 {
            obs.record_span("fix.place", folded, t_place);
        }
        if let Some(e) = first_err {
            return Err(e);
        }
    }
    Ok(Repair {
        current,
        neighborhoods,
        added_rules,
        phases,
    })
}

/// The permit set of every distinct ACL of `before` and of the update, each
/// compiled once: slots that share an ACL (one policy on many interfaces,
/// or a slot the update left alone) ask Eq. 6 the same question.
fn distinct_permit_sets(before: &AclConfig, after: &AclConfig) -> Vec<PacketSet> {
    let distinct = DistinctAcls::of(&[before, after]);
    distinct.acls().iter().map(|acl| acl.permit_set()).collect()
}

/// Enlarge a counterexample into its neighborhood (Eq. 6): the largest
/// per-field prefix expansion whose packets all behave exactly like `h` —
/// on `h`'s side of every predicate of `preds` — and that avoids the
/// `excluded` earlier neighborhoods (keeping neighborhoods pairwise
/// disjoint). `preds` is the scope's predicate family (forwarding
/// everywhere in scope, and the control regions: §6, r functions participate
/// in neighborhoods) and the permit set of every ACL of `before` and of the
/// update.
///
/// The update's sets stand in for the repaired configuration's: the two
/// decide alike outside `excluded`, a candidate that touches `excluded` is
/// rejected on that ground alone, and `h` — a fresh counterexample — lies
/// outside it. No set is built: each candidate cube is tested against the
/// cube lists as they are, first failure wins.
fn expand_neighborhood<'a>(
    preds: impl Iterator<Item = &'a PacketSet>,
    excluded: &[Cube],
    h: &Packet,
) -> MatchSpec {
    let sides: Vec<(&PacketSet, bool)> = preds.map(|p| (p, p.contains(h))).collect();
    let behaves_like_h = |c: &Cube| {
        excluded.iter().all(|e| e.intersect(c).is_none())
            && sides
                .iter()
                .all(|&(p, inside)| if inside { p.covers(c) } else { !p.meets(c) })
    };

    // Binary-search the largest prefix expansion per field.
    let mut cube = Cube::singleton(h);
    debug_assert!(behaves_like_h(&cube), "{h} is a fresh counterexample");
    for f in Field::ALL {
        let w = f.width();
        let value = h.field(f);
        // Smallest prefix length (= widest interval) that stays uniform.
        let mut lo = 0u32; // candidate length (widest)
        let mut hi = w; // current known-good length (narrowest)
        while lo < hi {
            let mid = (lo + hi) / 2;
            if behaves_like_h(&cube.with(f, Interval::from_prefix(value, mid, w))) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        cube = cube.with(f, Interval::from_prefix(value, rule_shaped(f, hi), w));
    }
    cube_to_matchspec(&cube, h)
}

/// The prefix length Eq. 6's search on `f` may end at: any for addresses and
/// ports, but a rule names one protocol or all of them, so a protocol block
/// in between (ACLs name some protocols, `h` carries another) narrows to
/// `h`'s protocol alone — always uniform, `h` is one packet.
fn rule_shaped(f: Field, len: u32) -> u32 {
    if f == Field::Proto && len != 0 {
        f.width()
    } else {
        len
    }
}

/// Convert a prefix-aligned cube back into a rule tuple. `h` supplies the
/// concrete bits for the prefix fields.
fn cube_to_matchspec(cube: &Cube, h: &Packet) -> MatchSpec {
    let prefix_len = |f: Field| -> u32 {
        let iv = cube.get(f);
        let span = iv.hi() - iv.lo() + 1;
        f.width() - span.trailing_zeros()
    };
    let src = IpPrefix::new(h.sip, prefix_len(Field::SrcIp));
    let dst = IpPrefix::new(h.dip, prefix_len(Field::DstIp));
    let sp = cube.get(Field::SrcPort);
    let dp = cube.get(Field::DstPort);
    let pr = cube.get(Field::Proto);
    MatchSpec {
        src,
        dst,
        sport: PortRange::new(sp.lo() as u16, sp.hi() as u16),
        dport: PortRange::new(dp.lo() as u16, dp.hi() as u16),
        proto: (!pr.is_full(Field::Proto)).then(|| jinjing_acl::Proto::from_number(h.proto)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_exact;
    use crate::figure1::Figure1;
    use jinjing_lai::Command;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn fig1_task() -> (Figure1, Task) {
        let f = Figure1::new();
        // allow A:* and B:* in both directions (the paper's program).
        let mut allow = Vec::new();
        for name in ["A1", "A2", "A3", "A4", "B1", "B2"] {
            allow.push(Slot::ingress(f.iface(name)));
            allow.push(Slot::egress(f.iface(name)));
        }
        let task = Task {
            scope: f.scope(),
            allow,
            before: f.config.clone(),
            after: f.bad_update(),
            modified: Vec::new(),
            controls: Vec::new(),
            command: Command::Fix,
        };
        (f, task)
    }

    /// [`fix`] under the default check and fix configurations.
    fn fix_default(net: &Network, task: &Task) -> Result<FixPlan, FixError> {
        fix(net, task, &CheckConfig::default(), &FixConfig::default())
    }

    /// Eq. 6 as the engine computed it before it stopped building sets,
    /// kept as the reference [`expand_neighborhood`] must agree with: build
    /// `h`'s equivalence region — `h`'s side of every slot's permit set in
    /// both configurations and of every family predicate, minus the earlier
    /// neighborhoods — then binary-search prefix lengths by `is_subset`.
    fn expand_by_region(
        family: &[PacketSet],
        slots: &[Slot],
        before_sets: &HashMap<Slot, PacketSet>,
        after_sets: &HashMap<Slot, PacketSet>,
        excluded: &PacketSet,
        h: &Packet,
    ) -> MatchSpec {
        let compact = |r: PacketSet| if r.cube_count() > 48 { r.coalesce() } else { r };
        let side_of = |region: PacketSet, pred: &PacketSet| {
            compact(if pred.contains(h) {
                region.intersect(pred)
            } else {
                region.subtract(pred)
            })
        };
        let mut region = PacketSet::full();
        for slot in slots {
            region = side_of(region, &before_sets[slot]);
            region = side_of(region, &after_sets[slot]);
        }
        for g in family {
            region = side_of(region, g);
        }
        region = compact(region.subtract(excluded));
        assert!(region.contains(h));

        let mut cube = Cube::singleton(h);
        for f in Field::ALL {
            let w = f.width();
            let value = h.field(f);
            let mut lo = 0u32;
            let mut hi = w;
            while lo < hi {
                let mid = (lo + hi) / 2;
                let candidate = cube.with(f, Interval::from_prefix(value, mid, w));
                if PacketSet::from_cube(candidate).is_subset(&region) {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            cube = cube.with(f, Interval::from_prefix(value, rule_shaped(f, hi), w));
        }
        cube_to_matchspec(&cube, h)
    }

    /// [`expand_by_region`] with every permit set compiled afresh, over
    /// every slot either configuration fills.
    fn reference(
        family: &[PacketSet],
        before: &AclConfig,
        current: &AclConfig,
        excluded: &[Cube],
        h: &Packet,
    ) -> MatchSpec {
        let mut slots = before.slots();
        slots.extend(current.slots());
        slots.sort();
        slots.dedup();
        let compile = |config: &AclConfig| -> HashMap<Slot, PacketSet> {
            (slots.iter().map(|&s| (s, config.slot_permit_set(s)))).collect()
        };
        let earlier = excluded.iter().fold(PacketSet::empty(), |set, c| {
            set.union(&PacketSet::from_cube(*c))
        });
        expand_by_region(
            family,
            &slots,
            &compile(before),
            &compile(current),
            &earlier,
            h,
        )
    }

    /// The 32 corners of `cube` and `interior` packets drawn inside it.
    fn probes(cube: &Cube, interior: usize, rng: &mut StdRng) -> Vec<Packet> {
        let mut out = Vec::new();
        for corner in 0..32u32 {
            let mut p = cube.sample();
            for f in Field::ALL {
                if corner >> f.index() & 1 == 1 {
                    p.set_field(f, cube.get(f).hi());
                }
            }
            out.push(p);
        }
        for _ in 0..interior {
            let mut p = cube.sample();
            for f in Field::ALL {
                let iv = cube.get(f);
                p.set_field(f, rng.random_range(iv.lo()..=iv.hi()));
            }
            out.push(p);
        }
        out
    }

    /// Called by `fix_iterative` on every counterexample of every unit test
    /// in this crate, before the placement: `m` is what the reference
    /// returns with every permit set — the repaired configuration's
    /// included — compiled afresh; and, packet by packet with first-match
    /// evaluation only, `m`'s corners and some interior packets get `h`'s
    /// decision from every ACL of `before` and of `current`, sit on `h`'s
    /// side of every family predicate and in no earlier neighborhood.
    pub(super) fn check_enlargement(
        model: &ScopeModel<'_>,
        task: &Task,
        current: &AclConfig,
        excluded: &[Cube],
        h: &Packet,
        m: &MatchSpec,
    ) {
        let reference = reference(model.family(), &task.before, current, excluded, h);
        assert_eq!(*m, reference, "enlarging {h}");

        let mut rng = StdRng::seed_from_u64(u64::from(h.sip) << 32 | u64::from(h.dip));
        for p in probes(&m.cube(), 8, &mut rng) {
            for config in [&task.before, current] {
                for slot in config.slots() {
                    assert_eq!(
                        config.slot_permits(slot, &p),
                        config.slot_permits(slot, h),
                        "{p} in {m} leaves {h} at {slot:?}"
                    );
                }
            }
            for g in model.family() {
                assert_eq!(g.contains(&p), g.contains(h), "{p} in {m} leaves {h}");
            }
            assert!(!excluded.iter().any(|e| e.contains(&p)), "{p} in {m}");
        }
    }

    /// Rules name one of the first three; packets carry any of the four.
    const PROTOS: [u8; 4] = [1, 6, 17, 47];

    /// A rule-shaped tuple over a handful of prefixes and port ranges, so
    /// that independently drawn tuples nest and overlap. Protocols are named
    /// too, so Eq. 6's search on the protocol field can stop at a block that
    /// is neither one protocol nor all of them.
    fn random_match(rng: &mut StdRng) -> MatchSpec {
        const NETS: [u32; 4] = [0x0a00_0000, 0x0a01_0000, 0x0a01_0200, 0xc0a8_0000];
        const PORTS: [(u16, u16); 4] = [(0, 1023), (80, 80), (443, 8080), (1024, 65535)];
        let prefix = |rng: &mut StdRng| {
            let len = [0, 8, 16, 24][rng.random_range(0..4usize)];
            IpPrefix::new(NETS[rng.random_range(0..4usize)], len)
        };
        let ports = |rng: &mut StdRng| {
            if rng.random() {
                PortRange::any()
            } else {
                let (lo, hi) = PORTS[rng.random_range(0..4usize)];
                PortRange::new(lo, hi)
            }
        };
        MatchSpec {
            src: prefix(rng),
            dst: prefix(rng),
            sport: ports(rng),
            dport: ports(rng),
            proto: rng
                .random::<bool>()
                .then(|| jinjing_acl::Proto::from_number(PROTOS[rng.random_range(0..3usize)])),
        }
    }

    fn random_acl(rng: &mut StdRng) -> Acl {
        let rules = (0..rng.random_range(0..6usize))
            .map(|_| Rule::new(Action::from_bool(rng.random()), random_match(rng)))
            .collect();
        Acl::new(rules, Action::from_bool(rng.random()))
    }

    /// A packet on or next to the boundaries [`random_match`] draws, of a
    /// protocol the rules name or of one they never do.
    fn random_packet(rng: &mut StdRng) -> Packet {
        let m = random_match(rng);
        let mut p = probes(&m.cube(), 0, rng)[rng.random_range(0..32usize)];
        if rng.random() {
            let f = Field::ALL[rng.random_range(0..4usize)];
            p.set_field(f, (p.field(f) + 1) & f.max_value());
        }
        p.proto = PROTOS[rng.random_range(0..4usize)];
        p
    }

    /// Old and new enlargement agree on random instances — ACL pairs per
    /// slot (some slots untouched by the update, some sharing an ACL), a
    /// predicate family, and a run of counterexamples each enlarged against
    /// the neighborhoods before it, with fixing rules prepended in between
    /// as a placement would.
    #[test]
    fn enlargement_matches_the_region_reference_on_random_instances() {
        let mut enlarged = 0;
        for case in 0..300u64 {
            let rng = &mut StdRng::seed_from_u64(0x0e96_0000 + case);
            let slots: Vec<Slot> = (0..rng.random_range(1..4u32))
                .map(|i| Slot::ingress(jinjing_net::IfaceId(i)))
                .collect();
            let mut before = AclConfig::new();
            let mut after = AclConfig::new();
            let shared = random_acl(rng);
            for &slot in &slots {
                let acl = if rng.random() {
                    shared.clone()
                } else {
                    random_acl(rng)
                };
                after.set(
                    slot,
                    if rng.random() {
                        acl.clone()
                    } else {
                        random_acl(rng)
                    },
                );
                before.set(slot, acl);
            }
            let family: Vec<PacketSet> = (0..rng.random_range(0..3usize))
                .map(|_| {
                    let cubes = (0..rng.random_range(1..4usize)).map(|_| random_match(rng).cube());
                    PacketSet::from_cubes(cubes.collect())
                })
                .collect();

            let acl_sets = distinct_permit_sets(&before, &after);
            let mut current = after.clone();
            let mut excluded: Vec<Cube> = Vec::new();
            for _ in 0..6 {
                let h = random_packet(rng);
                if excluded.iter().any(|e| e.contains(&h)) {
                    continue;
                }
                let m = expand_neighborhood(acl_sets.iter().chain(&family), &excluded, &h);
                let expected = reference(&family, &before, &current, &excluded, &h);
                assert_eq!(m, expected, "case {case}: enlarging {h} after {excluded:?}");
                assert!(m.matches(&h), "case {case}: {m} lost {h}");
                enlarged += 1;
                excluded.push(m.cube());
                let adds: Vec<(Slot, Rule)> = slots
                    .iter()
                    .filter_map(|&slot| {
                        let action = Action::from_bool(rng.random());
                        rng.random::<bool>().then(|| (slot, Rule::new(action, m)))
                    })
                    .collect();
                apply_placement(&mut current, &mut Vec::new(), &adds);
            }
        }
        assert!(enlarged > 1000, "only {enlarged} enlargements compared");
    }

    /// [`check_enlargement`] on every counterexample of a generated WAN's
    /// repair (Figure 1's are covered by every other test of this module).
    #[test]
    fn small_wan_enlargements_match_the_region_reference() {
        use jinjing_wan::{build_wan, scenarios, NetSize, WanParams};
        let wan = build_wan(&WanParams::preset(NetSize::Small));
        // The scenario carries the library build's `Task`; this test build
        // has its own, made of the same `jinjing-net` / `jinjing-lai` parts.
        let t = scenarios::checkfix(&wan, 0.05, 11, Command::Fix).task;
        let task = Task {
            scope: t.scope,
            allow: t.allow,
            before: t.before,
            after: t.after,
            modified: t.modified,
            controls: Vec::new(),
            command: t.command,
        };
        let plan = fix_default(&wan.net, &task).unwrap();
        assert!(plan.neighborhoods.len() > 10, "{:?}", plan.neighborhoods);
        for (i, a) in plan.neighborhoods.iter().enumerate() {
            for b in &plan.neighborhoods[i + 1..] {
                assert!(!a.overlaps(b), "{a} overlaps {b}");
            }
        }
    }

    #[test]
    fn running_example_fix_restores_consistency() {
        let (f, task) = fig1_task();
        let plan = fix_default(&f.net, &task).unwrap();
        // The repaired config must pass the exact checker.
        let verdict = check_exact(&f.net, &task.scope, &task.before, &plan.fixed, &[]);
        assert!(verdict.is_consistent(), "{verdict:?}");
        // The paper finds two neighborhoods: Traffic 1 and Traffic 2.
        assert_eq!(plan.neighborhoods.len(), 2, "{:?}", plan.neighborhoods);
        let mut tops: Vec<u32> = plan
            .neighborhoods
            .iter()
            .map(|m| m.dst.addr() >> 24)
            .collect();
        tops.sort();
        assert_eq!(tops, vec![1, 2]);
        for m in &plan.neighborhoods {
            assert_eq!(m.dst.len(), 8, "entire /8 identified: {m}");
            assert!(m.src.is_any());
            assert!(m.sport.is_any() && m.dport.is_any());
            assert!(m.proto.is_none());
        }
    }

    #[test]
    fn fix_only_touches_allowed_slots() {
        let (f, task) = fig1_task();
        let plan = fix_default(&f.net, &task).unwrap();
        for (slot, _) in &plan.added_rules {
            assert!(task.allow.contains(slot), "rule outside allow: {slot:?}");
        }
        // C and D keep their updated (permit-all) ACLs untouched.
        for name in ["C1", "D2"] {
            let slot = f.slot(name);
            assert!(plan
                .fixed
                .get(slot)
                .map_or(true, jinjing_acl::Acl::is_permit_all));
        }
    }

    #[test]
    fn minimal_change_touches_at_most_two_slots_per_neighborhood() {
        let (f, task) = fig1_task();
        let plan = fix_default(&f.net, &task).unwrap();
        // Traffic 1 needs one change (permit at A1); traffic 2 needs two
        // (permit at A1, deny on the B-branch or A2): ≤ 3 rules total.
        assert!(
            plan.added_rules.len() <= 3,
            "expected minimal plan, got {:?}",
            plan.added_rules
        );
    }

    #[test]
    fn simplify_shrinks_fixed_acls() {
        let (f, task) = fig1_task();
        let plan = fix_default(&f.net, &task).unwrap();
        // The unsimplified repair: the update with every fixing rule
        // prepended at its slot.
        let mut unsimplified = task.after.clone();
        apply_placement(&mut unsimplified, &mut Vec::new(), &plan.added_rules);
        assert!(plan.fixed.total_rules() <= unsimplified.total_rules());
        for slot in plan.fixed.slots() {
            let acl = plan.fixed.get(slot).unwrap();
            assert_eq!(simplify(acl).0, *acl, "{slot:?} is left simplified");
        }
        // Both are consistent.
        for config in [&unsimplified, &plan.fixed] {
            assert!(check_exact(&f.net, &task.scope, &task.before, config, &[]).is_consistent());
        }
    }

    #[test]
    fn consistent_update_needs_no_fixes() {
        let f = Figure1::new();
        let task = Task {
            scope: f.scope(),
            allow: vec![Slot::ingress(f.iface("A1"))],
            before: f.config.clone(),
            after: f.config.clone(),
            modified: Vec::new(),
            controls: Vec::new(),
            command: Command::Fix,
        };
        let plan = fix_default(&f.net, &task).unwrap();
        assert!(plan.added_rules.is_empty());
        assert!(plan.neighborhoods.is_empty());
    }

    #[test]
    fn unfixable_when_allow_is_empty() {
        let (f, mut task) = fig1_task();
        task.allow.clear();
        let err = fix_default(&f.net, &task).unwrap_err();
        assert!(matches!(err, FixError::Unfixable { .. }), "{err}");
    }

    /// The shared tail refuses an unrepaired configuration in every build:
    /// a fix that leaves a witness behind is an error, never "fixed".
    #[test]
    fn an_unrepaired_configuration_is_not_certified() {
        let (f, task) = fig1_task();
        let check = CheckConfig::default();
        let model = scope_model(
            &f.net,
            task.scope.clone(),
            &task.controls,
            check.refine_limits,
        );
        let unrepaired = Repair {
            current: task.after.clone(),
            neighborhoods: Vec::new(),
            added_rules: Vec::new(),
            phases: FixPhases::default(),
        };
        match certify(&model, &task, &check, unrepaired) {
            Err(FixError::NotCertified { witness }) => {
                let top = witness.dip >> 24;
                assert!(top == 1 || top == 2, "witness {witness}");
            }
            other => panic!("an unrepaired update must not certify: {other:?}"),
        }
        // What the engine produces does certify.
        let repaired = fix_iterative(&model, &task, &check, &FixConfig::default()).unwrap();
        assert!(certify(&model, &task, &check, repaired).is_ok());
    }

    /// One fix request refines the scope once: search and certification
    /// both read the model's partition. With a class cap of zero in the
    /// check configuration, any partition derived apart from the model's
    /// would explode — as the front door, which builds its model under that
    /// cap, shows.
    #[test]
    fn search_and_certification_read_one_partition() {
        use jinjing_acl::atoms::RefineLimits;
        let (f, task) = fig1_task();
        let model = scope_model(
            &f.net,
            task.scope.clone(),
            &task.controls,
            RefineLimits::default(),
        );
        let classes = model.classes().unwrap();
        let check = CheckConfig {
            refine_limits: RefineLimits { max_classes: 0 },
            ..CheckConfig::default()
        };
        let cfg = FixConfig::default();
        let plan = fix_in(&model, &task, &check, &cfg).unwrap();
        assert_eq!(plan.neighborhoods.len(), 2);
        assert_eq!(plan.final_check.fec_count, classes.len());
        assert!(std::ptr::eq(classes, model.classes().unwrap()));
        assert!(matches!(
            fix(&f.net, &task, &check, &cfg),
            Err(FixError::Classes(_))
        ));
    }

    #[test]
    fn neighborhoods_are_pairwise_disjoint() {
        let (f, task) = fig1_task();
        let plan = fix_default(&f.net, &task).unwrap();
        for (i, a) in plan.neighborhoods.iter().enumerate() {
            for b in &plan.neighborhoods[i + 1..] {
                assert!(!a.overlaps(b), "{a} overlaps {b}");
            }
        }
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use crate::check::check_exact;
    use crate::figure1::Figure1;
    use jinjing_lai::Command;

    fn fig1_task() -> (Figure1, Task) {
        let f = Figure1::new();
        let mut allow = Vec::new();
        for name in ["A1", "A2", "A3", "A4", "B1", "B2"] {
            allow.push(Slot::ingress(f.iface(name)));
            allow.push(Slot::egress(f.iface(name)));
        }
        let task = Task {
            scope: f.scope(),
            allow,
            before: f.config.clone(),
            after: f.bad_update(),
            modified: Vec::new(),
            controls: Vec::new(),
            command: Command::Fix,
        };
        (f, task)
    }

    #[test]
    fn batch_fix_repairs_the_running_example() {
        let (f, task) = fig1_task();
        let cfg = FixConfig {
            strategy: FixStrategy::ExactBatch,
            ..FixConfig::default()
        };
        let plan = fix(&f.net, &task, &CheckConfig::default(), &cfg).unwrap();
        let verdict = check_exact(&f.net, &task.scope, &task.before, &plan.fixed, &[]);
        assert!(verdict.is_consistent(), "{verdict:?}");
        // Same two traffic classes identified (possibly as tuple lists).
        let mut tops: Vec<u32> = plan
            .neighborhoods
            .iter()
            .map(|m| m.dst.addr() >> 24)
            .collect();
        tops.sort();
        tops.dedup();
        assert_eq!(tops, vec![1, 2]);
    }

    #[test]
    fn batch_and_cegis_agree_on_consistency_and_allow() {
        let (f, task) = fig1_task();
        for strategy in [FixStrategy::IterativeCegis, FixStrategy::ExactBatch] {
            let cfg = FixConfig {
                strategy,
                ..FixConfig::default()
            };
            let plan = fix(&f.net, &task, &CheckConfig::default(), &cfg).unwrap();
            assert!(plan.final_check.outcome.is_consistent(), "{strategy:?}");
            for (slot, _) in &plan.added_rules {
                assert!(task.allow.contains(slot), "{strategy:?} broke allow");
            }
        }
    }

    #[test]
    fn batch_reports_unfixable() {
        let (f, mut task) = fig1_task();
        task.allow.clear();
        let cfg = FixConfig {
            strategy: FixStrategy::ExactBatch,
            ..FixConfig::default()
        };
        let err = fix(&f.net, &task, &CheckConfig::default(), &cfg).unwrap_err();
        assert!(matches!(err, FixError::Unfixable { .. }), "{err}");
    }

    #[test]
    fn batch_on_consistent_update_is_a_no_op() {
        let (f, mut task) = fig1_task();
        task.after = task.before.clone();
        let cfg = FixConfig {
            strategy: FixStrategy::ExactBatch,
            ..FixConfig::default()
        };
        let plan = fix(&f.net, &task, &CheckConfig::default(), &cfg).unwrap();
        assert!(plan.added_rules.is_empty());
        assert!(plan.neighborhoods.is_empty());
    }
}
