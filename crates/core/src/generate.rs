//! The **generate** primitive (§5): synthesizing ACLs from scratch.
//!
//! Pipeline, following the paper's workflow:
//!
//! 1. **Derive ACL equivalence classes** (§5.1): refine the entering
//!    traffic by the permit-set of every ACL in the scope (plus control
//!    regions, §6). All packets of an AEC receive identical decisions from
//!    every existing ACL.
//! 2. **Solve AECs** (§5.2, Eq. 10): per AEC, one boolean decision variable
//!    per target slot, one constraint per *topological* path in the scope
//!    (`c'_p ⇔ desired c_p`), solved by the CDCL engine.
//! 3. **Split unsolved AECs into DECs** (§5.3): refine the AEC by the
//!    forwarding predicates and re-solve per DEC with the constraints
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
//! steps 1 and 4 run over the distinct ACLs of the `before` configuration
//! ([`DistinctAcls`]), not over its slots. Each is compiled by one
//! first-match walk ([`Acl::permit_set_visiting`]) that yields both its
//! permit set (step 1) and its encoding groups (step 4). The AEC predicates
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
use crate::control::control_regions;
use crate::task::Task;
use jinjing_acl::atoms::{refine, ClassExplosion};
use jinjing_acl::decompose::set_to_matchspecs;
use jinjing_acl::simplify::simplify;
use jinjing_acl::{Acl, Action, PacketSet, Rule};
use jinjing_net::{AclConfig, DistinctAcls, Network, Path, ScopeModel, Slot};
use jinjing_solver::cdcl::SolveResult;
use jinjing_solver::lit::Lit;
use jinjing_solver::CircuitBuilder;
use std::collections::HashMap;
use std::time::Duration;

/// Tunables for generate. Refinement caps, worker threads (the per-AEC
/// solve fan-out of Eq. 10) and the collector come from the caller's
/// [`CheckConfig`], the run's one check.
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

/// One solved decision unit: a class and its decision per target slot.
struct Unit {
    region: PacketSet,
    decisions: HashMap<Slot, bool>,
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
    // Encoding slots: every slot holding an ACL before the update (the
    // "source interfaces" of Table 4's sequence encoding). Each distinct ACL
    // among them is walked once, for its permit set (an AEC predicate) and
    // its encoding groups (phase 3).
    let distinct = DistinctAcls::of(&[&task.before]);
    let mut acl_groups: Vec<Vec<PacketSet>> = Vec::with_capacity(distinct.acls().len());
    let mut predicates: Vec<PacketSet> = distinct
        .acls()
        .iter()
        .map(|acl| {
            let (permit, groups) = walk_acl(acl, cfg.optimize);
            acl_groups.push(groups);
            permit
        })
        .collect();
    predicates.extend(control_regions(&task.controls));
    let predicates = jinjing_acl::atoms::dedupe_predicates(predicates);
    let aecs = refine(model.universe(), &predicates, check.refine_limits)?;
    let derive_aec = sp.finish();
    obs.histogram_record("generate.aec_count", aecs.len() as u64);

    // ---- Phase 2: solve AECs (DEC-split on unsat). ----
    let sp = obs.span("generate.solve");
    // Topological paths: every path some entering packet can take.
    let all_paths = model.topological_paths();
    // AEC-level solves are independent of one another (Eq. 10 constrains
    // each class in isolation), so the sweep fans out across the worker
    // pool; results fold back in AEC order. Each worker's solver telemetry
    // lands in the shared collector directly — counters and histograms are
    // commutative aggregates, so the totals are schedule-independent. DEC
    // refinement of the unsat residue (§5.3) stays serial: splits are rare
    // and each is cheap relative to the AEC sweep.
    let pool = jinjing_par::Pool::new(jinjing_par::resolve_threads(check.threads));
    let aec_solutions: Vec<Option<HashMap<Slot, bool>>> = pool.par_map(&aecs, |_, aec| {
        solve_class(task, obs, &targets, all_paths, &aec.set, false)
    });
    let mut units: Vec<(usize, Vec<Unit>)> = Vec::new(); // (aec index, units)
    let mut aecs_split = 0usize;
    let mut dec_count = 0usize;
    for (ai, (aec, solution)) in aecs.iter().zip(aec_solutions).enumerate() {
        match solution {
            Some(decisions) => units.push((
                ai,
                vec![Unit {
                    region: aec.set.clone(),
                    decisions,
                }],
            )),
            None => {
                // DEC refinement (§5.3).
                aecs_split += 1;
                let decs = refine(&aec.set, model.forwarding(), check.refine_limits)?;
                let mut dec_units = Vec::with_capacity(decs.len());
                for dec in decs {
                    dec_count += 1;
                    match solve_class(task, obs, &targets, all_paths, &dec.set, true) {
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
        }
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
    for &target in &targets {
        let mut acl = if cfg.optimize {
            // Units are pairwise disjoint (they partition the universe), so
            // assemble the deny region without quadratic union pruning.
            let mut deny_cubes = Vec::new();
            for (_, us) in &units {
                for unit in us {
                    if !unit.decisions[&target] {
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
                    let action = Action::from_bool(unit.decisions[&target]);
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

/// Solve the placement problem (Eq. 10) for one class. At AEC level
/// (`restrict_paths == false`) every topological path constrains the class;
/// at DEC level only the paths carrying it do. Returns the decision per
/// target slot, or `None` when unsatisfiable.
fn solve_class(
    task: &Task,
    obs: &jinjing_obs::Collector,
    targets: &[Slot],
    all_paths: &[Path],
    class: &PacketSet,
    restrict_paths: bool,
) -> Option<HashMap<Slot, bool>> {
    let h = class.sample().expect("non-empty class");
    let mut builder = CircuitBuilder::new();
    builder.set_obs(obs.clone());
    let vars: HashMap<Slot, Lit> = targets.iter().map(|&s| (s, builder.input())).collect();
    let class_controls = crate::control::ClassControls::new(&task.controls, class);
    for p in all_paths {
        if restrict_paths && !class.intersects(&p.carried) {
            continue;
        }
        let original = task.before.path_permits(p, &h);
        let desired = class_controls.desired(p, original);
        // c'_p: constants for non-target slots, variables for targets.
        let mut lits: Vec<Lit> = Vec::new();
        let mut const_false = false;
        for &slot in &p.slots {
            if let Some(&v) = vars.get(&slot) {
                lits.push(v);
            } else if !task.after.slot_permits(slot, &h) {
                const_false = true;
                break;
            }
        }
        if const_false {
            if desired {
                return None; // path is forced deny but must permit
            }
            continue; // already denied as desired
        }
        let conj = builder.and(&lits);
        builder.assert(if desired { conj } else { !conj });
    }
    if builder.solve() != SolveResult::Sat {
        return None;
    }
    // Bias unconstrained decisions toward permit (what operators — and
    // Table 4b — prefer): greedily pin each target to permit when some
    // model still allows it.
    let mut pinned: Vec<Lit> = Vec::new();
    let mut sorted_targets = targets.to_vec();
    sorted_targets.sort();
    for &s in &sorted_targets {
        let v = vars[&s];
        let mut attempt = pinned.clone();
        attempt.push(v);
        if builder.solve_with(&attempt) == SolveResult::Sat {
            pinned.push(v);
        } else {
            pinned.push(!v);
        }
    }
    let r = builder.solve_with(&pinned);
    debug_assert_eq!(r, SolveResult::Sat);
    Some(
        sorted_targets
            .iter()
            .map(|&s| (s, builder.model_value(vars[&s])))
            .collect(),
    )
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
