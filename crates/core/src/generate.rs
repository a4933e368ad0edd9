//! The **generate** primitive (§5): synthesizing ACLs from scratch.
//!
//! Pipeline, following the paper's workflow:
//!
//! 1. **Derive ACL equivalence classes** (§5.1): refine the entering
//!    traffic by the permit-set of every ACL in the scope (plus control
//!    regions, §6, and the ACLs the update installs away from the
//!    targets). All packets of an AEC receive identical decisions from
//!    every ACL step 2 reads, before and after the update.
//! 2. **Decide AECs** (§5.2, Eq. 10): per AEC, one decision per target
//!    slot, one constraint per *topological* path in the scope
//!    (`c'_p ⇔ desired c_p`). A path's decision is the AND of its slots',
//!    so the instance is Horn: a path that must permit forces its targets
//!    to permit, one that must deny needs one of its targets to deny.
//!    `decide` answers it in closed form, with the model the paper's solver
//!    route picks (each sorted target permits when some model allows it);
//!    no solver runs and the AECs are decided one after another, on the
//!    caller's thread.
//! 3. **Split undecidable AECs into DECs** (§5.3): refine the AEC by the
//!    forwarding predicates and decide each DEC with the constraints
//!    restricted to the paths actually carrying that DEC.
//! 4. **Synthesize ACLs** (§5.4): sequence-encode each AEC against the
//!    existing ACLs' (optionally grouped, §5.5) rule lists, sort rows,
//!    compute overlap regions, fill in the solved decisions, and emit
//!    well-formed prefix/range rules (with per-DEC insertions where an AEC
//!    was split). With [`GenerateConfig::optimize`], rule grouping shrinks
//!    the row count and the final ACLs are simplified
//!    (decision-preserving), reproducing the §5.5 run-time/length savings.
//!
//! **Per distinct ACL.** One policy usually sits on many interfaces, so
//! steps 1, 2 and 4 run over the distinct ACLs of the `before` and `after`
//! configurations ([`DistinctAcls`]), not over their slots. Step 2 asks each
//! of them once per class, on a sampled packet, and reads a slot's decision
//! through its index; `before`'s are the list's prefix and the only ones
//! steps 1 and 4 encode. Each of those is compiled by one first-match walk
//! ([`Acl::permit_set_visiting`]) that yields both its permit set (step 1)
//! and its encoding groups (step 4). The AEC predicates
//! are unchanged: equal ACLs have equal permit sets, which the predicate
//! de-duplication dropped anyway. So are the rows and their order. A slot
//! repeating an earlier slot's ACL never splits a row: each partial region
//! already lies inside one of that ACL's groups or inside its remainder, so
//! it would only copy the earlier slot's digit. And two per-slot encodings
//! first differ at a slot whose ACL occurs there for the first time, which
//! is where the per-ACL encodings first differ too, so sorting rows
//! lexicographically orders them the same way. `tests/generate_reference.rs`
//! keeps the per-slot synthesis and pins both emissions to it line for line.

use crate::check::{scope_model, CheckConfig};
use crate::control::{control_regions, ClassControls, ResolvedControl};
use crate::task::Task;
use jinjing_acl::atoms::{refine, ClassExplosion};
use jinjing_acl::decompose::set_to_matchspecs;
use jinjing_acl::simplify::simplify;
use jinjing_acl::{Acl, Action, PacketSet, Rule};
use jinjing_net::{AclConfig, DistinctAcls, Network, Path, ScopeModel, Slot};
use std::collections::HashMap;
use std::time::Duration;

/// Tunables for generate. Refinement caps and the collector come from the
/// caller's [`CheckConfig`], the run's one check.
#[derive(Debug, Clone)]
pub struct GenerateConfig {
    /// Apply the §5.5 optimizations (rule grouping before sequence
    /// encoding; decision-preserving simplification of the output).
    pub optimize: bool,
}

impl Default for GenerateConfig {
    fn default() -> GenerateConfig {
        GenerateConfig { optimize: true }
    }
}

/// Why generate failed.
#[derive(Debug)]
pub enum GenerateError {
    /// Even at DEC granularity no decision assignment satisfies the intent.
    NoSolution {
        /// A witness packet of the unsolvable class.
        witness: jinjing_acl::Packet,
    },
    /// Equivalence-class explosion.
    Classes(ClassExplosion),
}

impl std::fmt::Display for GenerateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenerateError::NoSolution { witness } => {
                write!(f, "no valid ACL placement for the class of {witness}")
            }
            GenerateError::Classes(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for GenerateError {}

impl From<ClassExplosion> for GenerateError {
    fn from(e: ClassExplosion) -> GenerateError {
        GenerateError::Classes(e)
    }
}

/// Per-phase wall-clock split (the three bars of Figure 4c/4d).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimes {
    /// Deriving ACL equivalence classes.
    pub derive_aec: Duration,
    /// Solving AECs (and DECs where needed).
    pub solve: Duration,
    /// Emitting ACL rules.
    pub synthesize: Duration,
}

/// Result of a generate run.
#[derive(Debug, Clone)]
pub struct GenerateReport {
    /// The configuration with synthesized ACLs installed at the targets.
    pub generated: AclConfig,
    /// Number of ACL equivalence classes.
    pub aec_count: usize,
    /// AECs that had to be split into DECs.
    pub aecs_split: usize,
    /// Total dataplane equivalence classes created.
    pub dec_count: usize,
    /// Sequence-encoding rows produced (the §5.5 grouping metric): one
    /// encoding digit per distinct ACL of the `before` configuration.
    pub rows: usize,
    /// Rules emitted before simplification.
    pub rules_emitted: usize,
    /// Rules in the final ACLs.
    pub rules_final: usize,
    /// Wall-clock per phase.
    pub phases: PhaseTimes,
}

/// One decided unit: a class and its decision per sorted target slot.
struct Unit {
    region: PacketSet,
    decisions: Vec<bool>,
}

/// Run generate on a resolved task. Targets are the task's `allow` slots;
/// the task's `after` configuration (modifies applied — e.g. migration
/// sources already cleaned) is the baseline the synthesized ACLs extend.
pub fn generate(
    net: &Network,
    task: &Task,
    check: &CheckConfig,
    cfg: &GenerateConfig,
) -> Result<GenerateReport, GenerateError> {
    let model = scope_model(net, task.scope.clone(), &task.controls, check.refine_limits);
    generate_in(&model, task, check, cfg)
}

/// [`generate`] on the caller's model of `task.scope`: the universe, the
/// forwarding family and the topological paths are read from it; its FEC
/// partition is never asked for.
pub(crate) fn generate_in(
    model: &ScopeModel<'_>,
    task: &Task,
    check: &CheckConfig,
    cfg: &GenerateConfig,
) -> Result<GenerateReport, GenerateError> {
    let targets: Vec<Slot> = {
        let mut t = task.allow.clone();
        t.sort();
        t.dedup();
        t
    };
    let obs = &check.obs;

    let _gen_span = obs.span("generate");

    // ---- Phase 1: derive AECs. ----
    let sp = obs.span("generate.aec");
    // Every distinct ACL Eq. 10 reads: `before`'s first (the encoding ACLs
    // of Table 4, "source interfaces"), then those `after` newly installs.
    // Each encoding ACL is walked once, for its permit set (an AEC
    // predicate) and its encoding groups (phase 3).
    let distinct = DistinctAcls::of(&[&task.before, &task.after]);
    // `before`'s distinct ACLs are the list's prefix, in the same order.
    let encoding = DistinctAcls::of(&[&task.before]).acls().len();
    let mut acl_groups: Vec<Vec<PacketSet>> = Vec::with_capacity(encoding);
    let mut predicates: Vec<PacketSet> = distinct.acls()[..encoding]
        .iter()
        .map(|acl| {
            let (permit, groups) = walk_acl(acl, cfg.optimize);
            acl_groups.push(groups);
            permit
        })
        .collect();
    predicates.extend(control_regions(&task.controls));
    // Eq. 10 reads the after-configuration on every non-target slot, one
    // sampled packet per class, so a class must be uniform under the ACLs
    // an update installs there too. Appended last: one that cuts nothing
    // (`permit all`, a migration's usual source) changes no class.
    let mut installed: Vec<usize> = task
        .after
        .slots()
        .into_iter()
        .filter(|s| targets.binary_search(s).is_err())
        .filter_map(|s| distinct.index_at(1, s))
        .filter(|&i| i >= encoding)
        .collect();
    installed.sort_unstable();
    installed.dedup();
    predicates.extend(installed.iter().map(|&i| distinct.acls()[i].permit_set()));
    let predicates = jinjing_acl::atoms::dedupe_predicates(predicates);
    let aecs = refine(model.universe(), &predicates, check.refine_limits)?;
    let derive_aec = sp.finish();
    obs.histogram_record("generate.aec_count", aecs.len() as u64);

    // ---- Phase 2: decide AECs (DEC-split when undecidable). ----
    let sp = obs.span("generate.solve");
    // Topological paths (every path some entering packet can take), each
    // read once as the distinct ACLs deciding it.
    let paths: Vec<PathAcls<'_>> = model
        .topological_paths()
        .iter()
        .map(|path| PathAcls::new(path, &distinct, &targets))
        .collect();
    let class = |set: &PacketSet, restrict_paths| {
        solve_class(
            &distinct,
            &task.controls,
            &paths,
            targets.len(),
            set,
            restrict_paths,
        )
    };
    let mut units: Vec<(usize, Vec<Unit>)> = Vec::new(); // (aec index, units)
    let mut aecs_split = 0usize;
    let mut dec_count = 0usize;
    for (ai, aec) in aecs.iter().enumerate() {
        if let Some(decisions) = class(&aec.set, false) {
            units.push((
                ai,
                vec![Unit {
                    region: aec.set.clone(),
                    decisions,
                }],
            ));
            continue;
        }
        // DEC refinement (§5.3).
        aecs_split += 1;
        let decs = refine(&aec.set, model.forwarding(), check.refine_limits)?;
        let mut dec_units = Vec::with_capacity(decs.len());
        for dec in decs {
            dec_count += 1;
            match class(&dec.set, true) {
                Some(decisions) => dec_units.push(Unit {
                    region: dec.set,
                    decisions,
                }),
                None => {
                    return Err(GenerateError::NoSolution {
                        witness: dec.set.sample().expect("classes are non-empty"),
                    })
                }
            }
        }
        units.push((ai, dec_units));
    }
    let solve = sp.finish();

    // ---- Phase 3+4: sequence encoding and rule emission. ----
    let sp = obs.span("generate.synthesize");
    // Rows (§5.4 Step 1): per AEC, the cartesian combinations of hit
    // groups per distinct encoding ACL (see the module docs for why a slot
    // repeating an earlier slot's ACL adds nothing); row regions partition
    // each AEC.
    struct Row {
        encoding: Vec<usize>,
        region: PacketSet,
        aec_index: usize,
    }
    let mut rows: Vec<Row> = Vec::new();
    for (ai, aec) in aecs.iter().enumerate() {
        let mut partial: Vec<(Vec<usize>, PacketSet)> = vec![(Vec::new(), aec.set.clone())];
        for groups in &acl_groups {
            let mut next = Vec::new();
            for (enc, region) in partial {
                for (gi, g) in groups.iter().enumerate() {
                    let inter = region.intersect(g);
                    if inter.is_empty() {
                        continue;
                    }
                    let mut e = enc.clone();
                    e.push(gi);
                    next.push((e, inter));
                }
                // Packets falling through to the default action form a
                // virtual last group.
                let mut rest = region.clone();
                for g in groups {
                    rest = rest.subtract(g);
                    if rest.is_empty() {
                        break;
                    }
                }
                if !rest.is_empty() {
                    let mut e = enc;
                    e.push(groups.len());
                    next.push((e, rest));
                }
            }
            partial = next;
        }
        for (encoding, region) in partial {
            rows.push(Row {
                encoding,
                region,
                aec_index: ai,
            });
        }
    }
    rows.sort_by(|a, b| a.encoding.cmp(&b.encoding));
    let row_count = rows.len();

    // Emit per-target ACLs.
    //
    // Unoptimized (paper-table) mode emits one rule batch per sorted row ×
    // decision unit — including the redundant explicit permits of Table 4b.
    // Optimized mode exploits that the decision units partition the
    // universe: only the *deny* side needs rules (the ACL default is
    // permit), and the whole deny region is coalesced before decomposition,
    // which is what collapses the rule count by orders of magnitude (§5.5
    // "generating fewer ACL rules"). Both modes are exact; the equivalence
    // is asserted by the property tests.
    let mut generated = task.after.clone();
    let mut rules_emitted = 0usize;
    let mut rules_final = 0usize;
    let unit_map: HashMap<usize, &Vec<Unit>> = units.iter().map(|(ai, us)| (*ai, us)).collect();
    for (ti, &target) in targets.iter().enumerate() {
        let mut acl = if cfg.optimize {
            // Units are pairwise disjoint (they partition the universe), so
            // assemble the deny region without quadratic union pruning.
            let mut deny_cubes = Vec::new();
            for (_, us) in &units {
                for unit in us {
                    if !unit.decisions[ti] {
                        deny_cubes.extend(unit.region.cubes().iter().copied());
                    }
                }
            }
            let deny = PacketSet::from_cubes_raw(deny_cubes);
            let rules: Vec<Rule> = set_to_matchspecs(&deny)
                .into_iter()
                .map(|m| Rule::new(Action::Deny, m))
                .collect();
            Acl::new(rules, Action::Permit)
        } else {
            let mut rules: Vec<Rule> = Vec::new();
            for row in &rows {
                let row_units = unit_map[&row.aec_index];
                for unit in row_units {
                    let region = if row_units.len() == 1 {
                        row.region.clone()
                    } else {
                        row.region.intersect(&unit.region)
                    };
                    if region.is_empty() {
                        continue;
                    }
                    let action = Action::from_bool(unit.decisions[ti]);
                    for m in set_to_matchspecs(&region) {
                        rules.push(Rule::new(action, m));
                    }
                }
            }
            Acl::new(rules, Action::Permit)
        };
        rules_emitted += acl.len();
        // Final decision-preserving cleanup. The coalesced deny-set
        // emission is already near-minimal, so the exact (quadratic)
        // redundancy elimination is only worth running on short ACLs.
        if cfg.optimize && acl.len() <= 24 {
            let (s, _) = simplify(&acl);
            acl = s;
        }
        rules_final += acl.len();
        generated.set(target, acl);
    }
    let synthesize = sp.finish();
    obs.event(
        jinjing_obs::Level::Info,
        "generate.done",
        &format!(
            "{} AECs ({} split, {} DECs), {} rows over {} distinct ACLs of {} encoding slots, {} rules emitted, {} final",
            aecs.len(),
            aecs_split,
            dec_count,
            row_count,
            acl_groups.len(),
            task.before.len(),
            rules_emitted,
            rules_final
        ),
    );

    Ok(GenerateReport {
        generated,
        aec_count: aecs.len(),
        aecs_split,
        dec_count,
        rows: row_count,
        rules_emitted,
        rules_final,
        phases: PhaseTimes {
            derive_aec,
            solve,
            synthesize,
        },
    })
}

/// One topological path as Eq. 10 reads it: the distinct ACLs deciding it
/// before the update, those deciding its non-target slots after it, and the
/// positions of its target slots among the sorted targets.
struct PathAcls<'p> {
    path: &'p Path,
    before: Vec<usize>,
    after: Vec<usize>,
    targets: Vec<usize>,
}

impl<'p> PathAcls<'p> {
    fn new(path: &'p Path, distinct: &DistinctAcls<'_>, targets: &[Slot]) -> PathAcls<'p> {
        let mut acls = PathAcls {
            path,
            before: Vec::new(),
            after: Vec::new(),
            targets: Vec::new(),
        };
        for &slot in &path.slots {
            acls.before.extend(distinct.index_at(0, slot));
            match targets.binary_search(&slot) {
                Ok(t) => acls.targets.push(t),
                Err(_) => acls.after.extend(distinct.index_at(1, slot)),
            }
        }
        acls
    }
}

/// The placement problem (Eq. 10) for one class, decided by [`decide`]. At
/// AEC level (`restrict_paths == false`) every topological path constrains
/// the class; at DEC level only the paths carrying it do. Each distinct ACL
/// decides the class once, on a sampled packet (the class is uniform under
/// every ACL the instance reads, phase 1). Returns the decision per sorted
/// target, or `None` when unsatisfiable.
fn solve_class(
    distinct: &DistinctAcls<'_>,
    controls: &[ResolvedControl],
    paths: &[PathAcls<'_>],
    targets: usize,
    class: &PacketSet,
    restrict_paths: bool,
) -> Option<Vec<bool>> {
    let h = class.sample().expect("non-empty class");
    let permits: Vec<bool> = distinct.acls().iter().map(|acl| acl.permits(&h)).collect();
    let all_permit = |acls: &[usize]| acls.iter().all(|&i| permits[i]);
    let class_controls = ClassControls::new(controls, class);
    let mut must_permit: Vec<&[usize]> = Vec::new();
    let mut must_deny: Vec<&[usize]> = Vec::new();
    for p in paths {
        if restrict_paths && !class.intersects(&p.path.carried) {
            continue;
        }
        let desired = class_controls.desired(p.path, all_permit(&p.before));
        if !all_permit(&p.after) {
            if desired {
                return None; // a non-target slot denies a path that must permit
            }
            continue; // already denied as desired
        }
        if desired {
            must_permit.push(&p.targets);
        } else {
            must_deny.push(&p.targets);
        }
    }
    decide(targets, &must_permit, &must_deny)
}

/// Eq. 10 in closed form. A path's decision is the AND of its slots', so
/// each path whose non-target slots all permit constrains only its targets
/// (positions in `0..targets`): one that must permit forces every target on
/// it to permit, one that must deny needs some target on it to deny. With
/// `F` the forced targets, the instance is unsatisfiable iff some must-deny
/// path has all its targets in `F` (an empty one included).
///
/// Otherwise the answer is the model the greedy "pin each sorted target to
/// permit when some model still allows it" picks, so the unconstrained
/// decisions lean to permit (what operators, and Table 4b, prefer). Walking
/// the targets in order, a target outside `F` permits unless that leaves
/// some must-deny path with every target permitting. This is exactly the
/// greedy's test: a target not yet decided and outside `F` can always
/// deny, and denying only helps a must-deny path, so some model extends
/// the decisions so far iff denying every undecided target outside `F`
/// satisfies every must-deny path.
fn decide(targets: usize, must_permit: &[&[usize]], must_deny: &[&[usize]]) -> Option<Vec<bool>> {
    let mut permits = vec![false; targets];
    for path in must_permit {
        for &t in *path {
            permits[t] = true;
        }
    }
    let a_deny_path_permits = |permits: &[bool]| {
        must_deny
            .iter()
            .any(|path| path.iter().all(|&t| permits[t]))
    };
    if a_deny_path_permits(&permits) {
        return None;
    }
    for t in 0..targets {
        if !permits[t] {
            permits[t] = true;
            permits[t] = !a_deny_path_permits(&permits);
        }
    }
    Some(permits)
}

/// One encoding ACL through one first-match walk ([`Acl::permit_set_visiting`]):
/// its permit set (an AEC predicate, §5.1) and the effective regions of its
/// rules in priority order, consecutive same-action rules grouped when
/// `group` (§5.5 "Grouping ACL rules before sequence encoding"). The groups
/// are disjoint; the default action's region is *not* among them (it is the
/// virtual last group).
fn walk_acl(acl: &Acl, group: bool) -> (PacketSet, Vec<PacketSet>) {
    let mut groups: Vec<PacketSet> = Vec::new();
    let mut last_action: Option<Action> = None;
    let permit = acl.permit_set_visiting(|_, action, region| {
        if group && last_action == Some(action) {
            let last = groups.last_mut().expect("grouping onto existing region");
            *last = last.union(&region);
        } else {
            groups.push(region);
            last_action = Some(action);
        }
    });
    (permit, groups)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_exact;
    use crate::figure1::Figure1;
    use jinjing_lai::Command;

    /// The §5 migration task: remove ACLs from S = {A1, D2}, generate at
    /// T = {C1, C2, D1}.
    pub(super) fn migration_task(f: &Figure1) -> Task {
        let mut after = f.config.clone();
        after.set(f.slot("A1"), Acl::permit_all());
        after.set(f.slot("D2"), Acl::permit_all());
        Task {
            scope: f.scope(),
            allow: vec![f.slot("C1"), f.slot("C2"), f.slot("D1")],
            before: f.config.clone(),
            after,
            modified: vec![f.slot("A1"), f.slot("D2")],
            controls: Vec::new(),
            command: Command::Generate,
        }
    }

    /// [`generate`] under the default check configuration.
    pub(super) fn generate_with(
        net: &Network,
        task: &Task,
        optimize: bool,
    ) -> Result<GenerateReport, GenerateError> {
        generate(
            net,
            task,
            &CheckConfig::default(),
            &GenerateConfig { optimize },
        )
    }

    #[test]
    fn table3_aec_structure() {
        // Four AECs: {1,2}, {3,4,5}, {6}, {7}.
        let f = Figure1::new();
        let task = migration_task(&f);
        let report = generate_with(&f.net, &task, true).unwrap();
        assert_eq!(report.aec_count, 4, "Table 3 has four classes");
    }

    #[test]
    fn migration_preserves_reachability() {
        let f = Figure1::new();
        let task = migration_task(&f);
        for optimize in [false, true] {
            let report = generate_with(&f.net, &task, optimize).unwrap();
            let verdict = check_exact(&f.net, &task.scope, &task.before, &report.generated, &[]);
            assert!(verdict.is_consistent(), "optimize={optimize}: {verdict:?}");
        }
    }

    /// A `modify` away from the targets that installs a new ACL cuts the
    /// before-configuration's classes: D2 keeps only `deny dst 1.0.0.0/8`,
    /// so traffic 2 now reaches D2 and must be denied at a target, while
    /// the rest of its AEC (3–5) must not be. Eq. 10 reads D2's new ACL on
    /// one sampled packet per class, so the class has to be uniform under
    /// it too.
    #[test]
    fn a_new_acl_away_from_the_targets_cuts_the_classes() {
        let f = Figure1::new();
        let mut task = migration_task(&f);
        task.after.set(
            f.slot("D2"),
            jinjing_acl::AclBuilder::default_permit()
                .deny_dst("1.0.0.0/8")
                .build(),
        );
        for optimize in [false, true] {
            let report = generate_with(&f.net, &task, optimize).unwrap();
            let verdict = check_exact(&f.net, &task.scope, &task.before, &report.generated, &[]);
            assert!(verdict.is_consistent(), "optimize={optimize}: {verdict:?}");
        }
    }

    #[test]
    fn aec_1_requires_dec_split() {
        // §5.3: [1]AEC (traffic 1-2) has no AEC-level solution because of
        // the ⟨A1,A3,C1,C3⟩ vs ⟨A1,A3,C1,C4,D2,D3⟩ conflict at C1.
        let f = Figure1::new();
        let task = migration_task(&f);
        let report = generate_with(&f.net, &task, true).unwrap();
        assert!(report.aecs_split >= 1, "at least [1]AEC splits");
        assert!(
            report.dec_count >= 2,
            "[1]AEC splits into [1]DEC and [2]DEC"
        );
    }

    #[test]
    fn synthesized_decisions_match_table_4b() {
        use jinjing_acl::Packet;
        let f = Figure1::new();
        let task = migration_task(&f);
        let report = generate_with(&f.net, &task, true).unwrap();
        let g = &report.generated;
        let pkt = |n: u32| Packet::to_dst(n << 24 | 1);
        // C1: deny 6, deny 7, permit 1, permit 2, permit rest.
        let c1 = g.get(f.slot("C1")).unwrap();
        assert!(!c1.permits(&pkt(6)));
        assert!(!c1.permits(&pkt(7)));
        for n in [1, 2, 3, 4, 5] {
            assert!(c1.permits(&pkt(n)), "C1 permits traffic {n}");
        }
        // D1: deny 6, permit everything else.
        let d1 = g.get(f.slot("D1")).unwrap();
        assert!(!d1.permits(&pkt(6)));
        for n in [1, 2, 3, 4, 5, 7] {
            assert!(d1.permits(&pkt(n)), "D1 permits traffic {n}");
        }
        // C2: deny 6 and deny traffic 2 (the [2]DEC insertion); permit 1.
        let c2 = g.get(f.slot("C2")).unwrap();
        assert!(!c2.permits(&pkt(6)));
        assert!(!c2.permits(&pkt(2)), "C2 must deny the [2]DEC");
        assert!(c2.permits(&pkt(1)));
    }

    #[test]
    fn optimization_reduces_rule_count() {
        let f = Figure1::new();
        let task = migration_task(&f);
        let base = generate_with(&f.net, &task, false).unwrap();
        let opt = generate_with(&f.net, &task, true).unwrap();
        assert!(
            opt.rules_final <= base.rules_final,
            "optimized {} vs base {}",
            opt.rules_final,
            base.rules_final
        );
        assert!(opt.rows <= base.rows);
    }

    #[test]
    fn generate_with_isolate_control() {
        use crate::control::ResolvedControl;
        use jinjing_lai::ControlVerb;
        use std::collections::HashSet;
        // Scenario-1 style: isolate traffic 3 between A1 and D3 by
        // generating at D1 (the only hop on its path we allow).
        let f = Figure1::new();
        let controls = vec![ResolvedControl {
            from: HashSet::from([f.iface("A1")]),
            to: HashSet::from([f.iface("D3")]),
            verb: ControlVerb::Isolate,
            region: f.traffic(3),
        }];
        let task = Task {
            scope: f.scope(),
            allow: vec![f.slot("D1"), f.slot("D2")],
            before: f.config.clone(),
            after: f.config.clone(),
            modified: Vec::new(),
            controls: controls.clone(),
            command: Command::Generate,
        };
        let report = generate_with(&f.net, &task, true).unwrap();
        let verdict = check_exact(
            &f.net,
            &task.scope,
            &task.before,
            &report.generated,
            &controls,
        );
        assert!(verdict.is_consistent(), "{verdict:?}");
        // Traffic 3 is now denied at D1.
        let d1 = report.generated.get(f.slot("D1")).unwrap();
        assert!(!d1.permits(&jinjing_acl::Packet::to_dst(3 << 24)));
    }

    #[test]
    fn impossible_intent_reports_no_solution() {
        use crate::control::ResolvedControl;
        use jinjing_lai::ControlVerb;
        use std::collections::HashSet;
        // Isolate traffic 3 A1→D3 but only allow changes at C1 — traffic 3
        // never crosses C1 (it flows A1→A4→D1→D3), so no placement works.
        let f = Figure1::new();
        let controls = vec![ResolvedControl {
            from: HashSet::from([f.iface("A1")]),
            to: HashSet::from([f.iface("D3")]),
            verb: ControlVerb::Isolate,
            region: f.traffic(3),
        }];
        let task = Task {
            scope: f.scope(),
            allow: vec![f.slot("C1")],
            before: f.config.clone(),
            after: f.config.clone(),
            modified: Vec::new(),
            controls,
            command: Command::Generate,
        };
        let err = generate_with(&f.net, &task, true).unwrap_err();
        match err {
            GenerateError::NoSolution { witness } => {
                assert_eq!(witness.dip >> 24, 3);
            }
            other => panic!("unexpected error {other}"),
        }
    }

    /// The solver route Eq. 10 took before its closed form: one variable
    /// per target, each path's AND asserted (must permit) or its NAND (must
    /// deny), then each sorted target pinned to permit iff some model still
    /// allows it.
    fn solver_route(
        targets: usize,
        must_permit: &[&[usize]],
        must_deny: &[&[usize]],
    ) -> Option<Vec<bool>> {
        use jinjing_solver::cdcl::SolveResult;
        use jinjing_solver::lit::Lit;
        let mut builder = jinjing_solver::CircuitBuilder::new();
        let vars: Vec<Lit> = (0..targets).map(|_| builder.input()).collect();
        for (paths, desired) in [(must_permit, true), (must_deny, false)] {
            for path in paths {
                let lits: Vec<Lit> = path.iter().map(|&t| vars[t]).collect();
                let conj = builder.and(&lits);
                builder.assert(if desired { conj } else { !conj });
            }
        }
        if builder.solve() != SolveResult::Sat {
            return None;
        }
        let mut pinned: Vec<Lit> = Vec::new();
        for &v in &vars {
            let mut attempt = pinned.clone();
            attempt.push(v);
            let allowed = builder.solve_with(&attempt) == SolveResult::Sat;
            pinned.push(if allowed { v } else { !v });
        }
        assert_eq!(builder.solve_with(&pinned), SolveResult::Sat);
        Some(vars.iter().map(|&v| builder.model_value(v)).collect())
    }

    /// [`decide`] answers what the solver route answers, model for model,
    /// on random instances: satisfiable and not, with must-deny paths that
    /// carry no target and targets that lie on no path.
    #[test]
    fn decide_is_the_solver_route() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let (mut sat, mut unsat, mut empty_deny, mut pathless) = (0, 0, 0, 0);
        for case in 0..4_000u64 {
            let rng = &mut StdRng::seed_from_u64(0xe910_0000 + case);
            let targets = rng.random_range(0..=6usize);
            let mut must_permit: Vec<Vec<usize>> = Vec::new();
            let mut must_deny: Vec<Vec<usize>> = Vec::new();
            for _ in 0..rng.random_range(0..=8usize) {
                let path: Vec<usize> = (0..targets)
                    .filter(|_| rng.random_range(0..3u32) == 0)
                    .collect();
                if rng.random_range(0..3u32) == 0 {
                    must_permit.push(path);
                } else {
                    must_deny.push(path);
                }
            }
            let must_permit: Vec<&[usize]> = must_permit.iter().map(Vec::as_slice).collect();
            let must_deny: Vec<&[usize]> = must_deny.iter().map(Vec::as_slice).collect();
            let got = decide(targets, &must_permit, &must_deny);
            let want = solver_route(targets, &must_permit, &must_deny);
            assert_eq!(
                got, want,
                "case {case}: {targets} targets, permit {must_permit:?}, deny {must_deny:?}"
            );
            match got {
                Some(_) => sat += 1,
                None => unsat += 1,
            }
            empty_deny += usize::from(must_deny.iter().any(|p| p.is_empty()));
            let on_path = |t: &usize| must_permit.iter().chain(&must_deny).any(|p| p.contains(t));
            pathless += usize::from((0..targets).any(|t| !on_path(&t)));
        }
        assert!(sat >= 100 && unsat >= 100, "{sat} satisfiable, {unsat} not");
        assert!(
            empty_deny >= 100 && pathless >= 100,
            "{empty_deny} empty must-deny, {pathless} with a pathless target"
        );
    }

    #[test]
    fn grouping_merges_consecutive_same_action_rules() {
        let acl = jinjing_acl::AclBuilder::default_permit()
            .deny_dst("1.0.0.0/8")
            .deny_dst("2.0.0.0/8")
            .permit_dst("3.0.0.0/8")
            .deny_dst("4.0.0.0/8")
            .build();
        let (permit, grouped) = walk_acl(&acl, true);
        let (_, plain) = walk_acl(&acl, false);
        assert_eq!(permit, acl.permit_set());
        assert_eq!(grouped.len(), 3); // {1,2} | {3} | {4}
        assert_eq!(plain.len(), 4);
        // Same coverage either way.
        let cover = |rs: &[PacketSet]| rs.iter().fold(PacketSet::empty(), |a, b| a.union(b));
        assert!(cover(&grouped).same_set(&cover(&plain)));
    }
}

#[cfg(test)]
mod table4_rows {
    use super::tests::{generate_with, migration_task};
    use crate::figure1::Figure1;

    /// §5.4 Table 4a/4b: without grouping, the sequence encoding of the
    /// Figure 1 migration produces exactly the paper's five rows —
    /// `[6]` = 123, `[7]` = 213, `[1]` = 221 and 222 (two rows, one per
    /// hit rule in D2), `[3]` = 223.
    #[test]
    fn figure1_migration_has_five_ungrouped_rows() {
        let f = Figure1::new();
        let task = migration_task(&f);
        let report = generate_with(&f.net, &task, false).unwrap();
        assert_eq!(report.rows, 5, "Table 4 lists five sequence-encoding rows");
        // Grouping (the §5.5 optimization) merges D2's two denies: 4 rows.
        let opt = generate_with(&f.net, &task, true).unwrap();
        assert_eq!(opt.rows, 4);
    }
}
