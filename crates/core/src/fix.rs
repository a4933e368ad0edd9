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
//!    field's prefix length, validated exactly with the set algebra. The
//!    neighborhood is excluded and check re-runs until no counterexample
//!    remains.
//! 2. **Fixing plan generation** — per neighborhood, a boolean placement
//!    problem (Eq. 7 within Eq. 3's schema): one decision variable `D(ξ)`
//!    per slot on the neighborhood's paths, constrained so every path's
//!    conjunction equals the desired decision; non-`allow`ed slots are
//!    pinned to the updated configuration's decision. The *minimal changes*
//!    objective is a linear search over a sequential-counter cardinality
//!    bound on the change indicators.
//! 3. Rules `(action = D(ξ), match = neighborhood)` are prepended where the
//!    solved decision differs from the updated ACL's, and the touched ACLs
//!    are optionally simplified (§4.2 extensions).

use crate::check::{
    check_inner, preprocess, scope_model, CheckConfig, CheckOutcome, CheckReport, CoverMemo,
};
use crate::control::desired_decision;
use crate::task::Task;
use jinjing_acl::atoms::ClassExplosion;
use jinjing_acl::cube::Cube;
use jinjing_acl::interval::Interval;
use jinjing_acl::packet::Field;
use jinjing_acl::simplify::simplify;
use jinjing_acl::{Action, IpPrefix, MatchSpec, Packet, PacketSet, PortRange, Rule};
use jinjing_net::{AclConfig, Network, Path, ScopeModel, Slot};
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

/// Tunables for fix.
#[derive(Debug, Clone)]
pub struct FixConfig {
    /// Violation-hunting strategy.
    pub strategy: FixStrategy,
    /// Check configuration used for counterexample search. Its `threads`
    /// setting also sizes the batch engine's placement fan-out, and its
    /// `cache` is shared with the final certification check.
    pub check: CheckConfig,
    /// Minimize the number of slots changed per neighborhood (§4.2
    /// "Optimization for minimal changes").
    pub minimize_changes: bool,
    /// Simplify the final ACLs (§4.2 "Simplifying the final ACL").
    pub simplify: bool,
    /// Abort after this many neighborhoods (safety valve; the paper notes
    /// unexpanded enumeration could run 10^31 iterations).
    pub max_neighborhoods: usize,
}

impl Default for FixConfig {
    fn default() -> FixConfig {
        FixConfig {
            strategy: FixStrategy::default(),
            check: CheckConfig::default(),
            minimize_changes: true,
            simplify: true,
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
    /// The repaired configuration (update + fixes, simplified if enabled).
    pub fixed: AclConfig,
    /// The neighborhoods that were repaired.
    pub neighborhoods: Vec<MatchSpec>,
    /// The final (consistent) check report.
    pub final_check: CheckReport,
    /// Per-phase wall-clock, sourced from the same spans the collector
    /// aggregates.
    pub phases: FixPhases,
}

/// Run fix on a resolved task.
pub fn fix(net: &Network, task: &Task, cfg: &FixConfig) -> Result<FixPlan, FixError> {
    let model = scope_model(
        net,
        task.scope.clone(),
        &task.controls,
        cfg.check.refine_limits,
    );
    fix_in(&model, task, cfg)
}

/// [`fix`] on the caller's model of `task.scope` under `task.controls`: the
/// search reads classes and paths from it and the certification check
/// replays them, so one request refines the scope once.
pub(crate) fn fix_in(
    model: &ScopeModel<'_>,
    task: &Task,
    cfg: &FixConfig,
) -> Result<FixPlan, FixError> {
    let _fix_span = cfg.check.obs.span("fix");
    let repair = match cfg.strategy {
        FixStrategy::IterativeCegis => fix_iterative(model, task, cfg)?,
        FixStrategy::ExactBatch => fix_batch(model, task, cfg)?,
    };
    certify(model, task, cfg, repair)
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
    cfg: &FixConfig,
    repair: Repair,
) -> Result<FixPlan, FixError> {
    let Repair {
        current,
        neighborhoods,
        added_rules,
        mut phases,
    } = repair;
    let obs = &cfg.check.obs;
    let final_check = check_inner(
        model,
        &task.before,
        &current,
        &task.controls,
        &cfg.check,
        &CoverMemo::default(),
    )?
    .report;
    if let CheckOutcome::Inconsistent(v) = &final_check.outcome {
        return Err(FixError::NotCertified { witness: v.packet });
    }
    let mut fixed = current;
    if cfg.simplify {
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
    }
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

/// Every slot configured before or after the update, `before`'s first.
fn slots_union(task: &Task) -> Vec<Slot> {
    let mut slots = task.before.slots();
    for s in task.after.slots() {
        if !slots.contains(&s) {
            slots.push(s);
        }
    }
    slots
}

/// The [`FixStrategy::IterativeCegis`] engine (see the module docs).
fn fix_iterative(model: &ScopeModel<'_>, task: &Task, cfg: &FixConfig) -> Result<Repair, FixError> {
    let obs = &cfg.check.obs;
    let (before, controls) = (&task.before, &task.controls);
    let mut phases = FixPhases::default();
    let mut current = task.after.clone();
    let mut excluded = PacketSet::empty();
    let mut neighborhoods: Vec<MatchSpec> = Vec::new();
    let mut added_rules: Vec<(Slot, Rule)> = Vec::new();
    // Permit-set caches: compiling an ACL into its exact permit set is the
    // dominant cost of neighborhood expansion, and the `before` side never
    // changes; the `current` side is invalidated per repaired slot.
    let mut before_sets: HashMap<Slot, PacketSet> = HashMap::new();
    let mut current_sets: HashMap<Slot, PacketSet> = HashMap::new();

    // Preprocess ONCE against the original update: Theorem 4.1 confines
    // violations to the differential cover, and fixing rules only ever
    // rewrite decisions inside already-repaired (blocked) neighborhoods, so
    // the cover never grows during the loop.
    let (pairs, cover, _, _) = preprocess(
        before,
        &task.after,
        controls,
        cfg.check.differential,
        &CoverMemo::default(),
    );
    let slots_union = slots_union(task);

    let skip_cover = |class: &PacketSet| cfg.check.differential && !class.intersects(&cover);
    for (ci, class) in model.classes()?.iter().enumerate() {
        if skip_cover(&class.set) {
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
                            cfg.check.encoding,
                        )
                    });
                    let la = *lits_after.entry(slot).or_insert_with(|| {
                        jinjing_solver::aclenc::encode(
                            &mut builder,
                            &hvars,
                            &pair.after,
                            cfg.check.encoding,
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
        if cfg.check.differential {
            let in_cover = hvars.in_set(&mut builder, &cover);
            builder.assert(in_cover);
        }

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
            for &slot in &slots_union {
                before_sets
                    .entry(slot)
                    .or_insert_with(|| before.slot_permit_set(slot));
                current_sets
                    .entry(slot)
                    .or_insert_with(|| current.slot_permit_set(slot));
            }
            let m = expand_neighborhood(
                model.family(),
                &slots_union,
                &before_sets,
                &current_sets,
                &excluded,
                &h,
            );
            phases.enlarge += sp.finish();
            obs.event(
                jinjing_obs::Level::Debug,
                "fix.neighborhood",
                &format!("counterexample {h} enlarged to {m}"),
            );
            let region = PacketSet::from_cube(m.cube());
            excluded = excluded.union(&region);
            neighborhoods.push(m);

            // Phase 2: placement solve for this neighborhood (§4.2 "Fixing
            // plan generation"), its rules prepended to `current`.
            let sp = obs.span("fix.place");
            let adds = solve_placement(model, task, &current, cfg, &[m], &region, &h)?;
            apply_placement(&mut current, &mut current_sets, &mut added_rules, &adds);
            phases.place += sp.finish();

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
    cfg: &FixConfig,
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
    builder.set_obs(cfg.check.obs.clone());
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
    let mut solves = 0u64;
    let sat = if cfg.minimize_changes {
        // Ascend k = 0, 1, 2, … over sequential-counter outputs, by
        // assumption on the one solver instance (learned clauses survive
        // each bound), until the first `Sat`: that k is minimal. The fix
        // goldens pin the placement this search surfaces.
        let outputs = counter_outputs(&mut builder, &indicators);
        let mut found = false;
        for k in 0..=indicators.len() {
            let assumptions: Vec<Lit> = at_most_assumption(&outputs, k).into_iter().collect();
            solves += 1;
            if builder.solve_with(&assumptions) == SolveResult::Sat {
                found = true;
                break;
            }
        }
        found
    } else {
        solves += 1;
        builder.solve() == SolveResult::Sat
    };
    cfg.check.obs.counter_add("fix.place_solves", solves);
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

/// Apply a solved placement: prepend each slot's fixing rules (in spec
/// order, as one batch per slot) and invalidate the slot's permit-set
/// cache. `adds` is slot-major as produced by [`solve_placement`].
fn apply_placement(
    current: &mut AclConfig,
    current_sets: &mut HashMap<Slot, PacketSet>,
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
        let acl = current
            .get(slot)
            .cloned()
            .unwrap_or_else(jinjing_acl::Acl::permit_all);
        current.set(slot, acl.with_prepended(&rules));
        current_sets.remove(&slot);
        added_rules.extend_from_slice(&adds[i..j]);
        i = j;
    }
}

/// The [`FixStrategy::ExactBatch`] engine: one exact pass computes every
/// violation, one refinement pass partitions them into maximal uniform
/// neighborhoods, then placements are solved per neighborhood.
fn fix_batch(model: &ScopeModel<'_>, task: &Task, cfg: &FixConfig) -> Result<Repair, FixError> {
    let obs = &cfg.check.obs;
    let controls = &task.controls;
    let mut phases = FixPhases::default();
    let mut current = task.after.clone();
    let mut neighborhoods: Vec<MatchSpec> = Vec::new();
    let mut added_rules: Vec<(Slot, Rule)> = Vec::new();
    let mut current_sets: HashMap<Slot, PacketSet> = HashMap::new();

    // Slot permit-set caches for cheap path-set evaluation.
    let slots_union = slots_union(task);
    let mut before_sets: HashMap<Slot, PacketSet> = HashMap::new();
    let mut after_sets: HashMap<Slot, PacketSet> = HashMap::new();
    for &slot in &slots_union {
        before_sets.insert(slot, task.before.slot_permit_set(slot));
        after_sets.insert(slot, task.after.slot_permit_set(slot));
    }
    let path_set = |sets: &HashMap<Slot, PacketSet>, path: &Path| -> PacketSet {
        let mut out = PacketSet::full();
        for slot in &path.slots {
            if let Some(s) = sets.get(slot) {
                out = out.intersect(s);
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
        let original = path_set(&before_sets, path);
        let desired = crate::control::desired_permit_set(controls, path, &original);
        let actual = path_set(&after_sets, path);
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
        for &slot in &slots_union {
            preds.push(before_sets[&slot].clone());
            preds.push(after_sets[&slot].clone());
        }
        preds.extend(crate::control::control_regions(controls));
        let preds = jinjing_acl::atoms::dedupe_predicates(preds);
        let atoms = jinjing_acl::atoms::refine(&violations, &preds, cfg.check.refine_limits)
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
        let pool = Pool::new(jinjing_par::resolve_threads(cfg.check.threads));
        let base = &current;
        let solved = pool.par_map(&jobs, |_, job| {
            let t0 = Instant::now();
            let r = solve_placement(model, task, base, cfg, &job.specs, &job.region, &job.h);
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
                    apply_placement(&mut current, &mut current_sets, &mut added_rules, &adds);
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

/// Enlarge a counterexample into its neighborhood (Eq. 6): the largest
/// per-field prefix expansion whose packets all behave exactly like `h` —
/// same side of every member of the scope's predicate `family` (forwarding
/// everywhere in scope, and the control regions: §6, r functions
/// participate in neighborhoods), same decision under every ACL of both
/// configurations (supplied as precompiled permit sets) — and that avoids
/// previously excluded neighborhoods (keeping neighborhoods pairwise
/// disjoint).
fn expand_neighborhood(
    family: &[PacketSet],
    slots: &[Slot],
    before_sets: &HashMap<Slot, PacketSet>,
    after_sets: &HashMap<Slot, PacketSet>,
    excluded: &PacketSet,
    h: &Packet,
) -> MatchSpec {
    // Keep the region representation compact: side_of fragments it, and
    // with dozens of predicates the fragmentation compounds quadratically.
    let compact = |r: PacketSet| if r.cube_count() > 48 { r.coalesce() } else { r };
    // The equivalence region E of h. Refine from the full space first —
    // the ACL predicates shrink E to rule-sized regions quickly — and only
    // subtract the (potentially very fragmented) exclusion set at the end.
    let mut region = PacketSet::full();
    // ACL decision models of both configurations.
    for slot in slots {
        region = compact(side_of(region, &before_sets[slot], h));
        region = compact(side_of(region, &after_sets[slot], h));
    }
    // Forwarding predicates and control regions.
    for g in family {
        region = compact(side_of(region, g, h));
        debug_assert!(region.contains(h));
    }
    // Exclude already-repaired neighborhoods last (keeps neighborhoods
    // pairwise disjoint); counterexamples never lie inside them.
    region = compact(region.subtract(excluded));
    debug_assert!(region.contains(h));

    // Binary-search the largest prefix expansion per field.
    let mut cube = Cube::singleton(h);
    for f in Field::ALL {
        let w = f.width();
        let value = h.field(f);
        // Smallest prefix length (= widest interval) that stays within E.
        let mut lo = 0u32; // candidate length (widest)
        let mut hi = w; // current known-good length (narrowest)
        while lo < hi {
            let mid = (lo + hi) / 2;
            let candidate = cube.with(f, Interval::from_prefix(value, mid, w));
            if PacketSet::from_cube(candidate).is_subset(&region) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        cube = cube.with(f, Interval::from_prefix(value, hi, w));
    }
    cube_to_matchspec(&cube, h)
}

/// Keep the side of `pred` that contains `h`.
fn side_of(region: PacketSet, pred: &PacketSet, h: &Packet) -> PacketSet {
    if pred.contains(h) {
        region.intersect(pred)
    } else {
        region.subtract(pred)
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
        proto: if pr.is_full(Field::Proto) {
            None
        } else {
            debug_assert_eq!(pr.lo(), pr.hi());
            Some(jinjing_acl::Proto::from_number(pr.lo() as u8))
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_exact;
    use crate::figure1::Figure1;
    use jinjing_lai::Command;

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

    #[test]
    fn running_example_fix_restores_consistency() {
        let (f, task) = fig1_task();
        let plan = fix(&f.net, &task, &FixConfig::default()).unwrap();
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
        let plan = fix(&f.net, &task, &FixConfig::default()).unwrap();
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
        let plan = fix(&f.net, &task, &FixConfig::default()).unwrap();
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
        let unsimplified = fix(
            &f.net,
            &task,
            &FixConfig {
                simplify: false,
                ..FixConfig::default()
            },
        )
        .unwrap();
        let simplified = fix(&f.net, &task, &FixConfig::default()).unwrap();
        let total = |c: &AclConfig| c.total_rules();
        assert!(total(&simplified.fixed) <= total(&unsimplified.fixed));
        // Both are consistent.
        for plan in [&unsimplified, &simplified] {
            assert!(
                check_exact(&f.net, &task.scope, &task.before, &plan.fixed, &[]).is_consistent()
            );
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
        let plan = fix(&f.net, &task, &FixConfig::default()).unwrap();
        assert!(plan.added_rules.is_empty());
        assert!(plan.neighborhoods.is_empty());
    }

    #[test]
    fn unfixable_when_allow_is_empty() {
        let (f, mut task) = fig1_task();
        task.allow.clear();
        let err = fix(&f.net, &task, &FixConfig::default()).unwrap_err();
        assert!(matches!(err, FixError::Unfixable { .. }), "{err}");
    }

    #[test]
    fn without_minimize_still_consistent() {
        let (f, task) = fig1_task();
        let plan = fix(
            &f.net,
            &task,
            &FixConfig {
                minimize_changes: false,
                ..FixConfig::default()
            },
        )
        .unwrap();
        assert!(check_exact(&f.net, &task.scope, &task.before, &plan.fixed, &[]).is_consistent());
    }

    /// The shared tail refuses an unrepaired configuration in every build:
    /// a fix that leaves a witness behind is an error, never "fixed".
    #[test]
    fn an_unrepaired_configuration_is_not_certified() {
        let (f, task) = fig1_task();
        let cfg = FixConfig::default();
        let model = scope_model(
            &f.net,
            task.scope.clone(),
            &task.controls,
            cfg.check.refine_limits,
        );
        let unrepaired = Repair {
            current: task.after.clone(),
            neighborhoods: Vec::new(),
            added_rules: Vec::new(),
            phases: FixPhases::default(),
        };
        match certify(&model, &task, &cfg, unrepaired) {
            Err(FixError::NotCertified { witness }) => {
                let top = witness.dip >> 24;
                assert!(top == 1 || top == 2, "witness {witness}");
            }
            other => panic!("an unrepaired update must not certify: {other:?}"),
        }
        // What the engine produces does certify.
        let repaired = fix_iterative(&model, &task, &cfg).unwrap();
        assert!(certify(&model, &task, &cfg, repaired).is_ok());
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
        let cfg = FixConfig {
            check: CheckConfig {
                refine_limits: RefineLimits { max_classes: 0 },
                ..CheckConfig::default()
            },
            ..FixConfig::default()
        };
        let plan = fix_in(&model, &task, &cfg).unwrap();
        assert_eq!(plan.neighborhoods.len(), 2);
        assert_eq!(plan.final_check.fec_count, classes.len());
        assert!(std::ptr::eq(classes, model.classes().unwrap()));
        assert!(matches!(
            fix(&f.net, &task, &cfg),
            Err(FixError::Classes(_))
        ));
    }

    #[test]
    fn neighborhoods_are_pairwise_disjoint() {
        let (f, task) = fig1_task();
        let plan = fix(&f.net, &task, &FixConfig::default()).unwrap();
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
        let plan = fix(&f.net, &task, &cfg).unwrap();
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
            let plan = fix(&f.net, &task, &cfg).unwrap();
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
        let err = fix(&f.net, &task, &cfg).unwrap_err();
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
        let plan = fix(&f.net, &task, &cfg).unwrap();
        assert!(plan.added_rules.is_empty());
        assert!(plan.neighborhoods.is_empty());
    }
}
