//! Generate against its per-slot reference.
//!
//! `generate` derives AECs (§5.1) and sequence-encodes rows (§5.4) per
//! distinct ACL of the `before` configuration, each compiled by one
//! first-match walk. [`reference`] below is the earlier body: one permit set
//! per encoding slot, one grouping per encoding slot, and a row sweep with
//! one encoding digit per slot, every step on whole packet sets. The two
//! must agree on every count of the report and on every generated ACL line
//! for line, under both emissions, on the small WAN's migration and
//! control-open tasks and on a Figure-1 configuration whose slots share ACLs
//! (one shared allocation, or structurally equal copies).

mod first_match_reference;

use jinjing_acl::atoms::{dedupe_predicates, refine};
use jinjing_acl::decompose::set_to_matchspecs;
use jinjing_acl::simplify::simplify;
use jinjing_acl::{Acl, Action, PacketSet, Rule};
use jinjing_core::check::CheckConfig;
use jinjing_core::control::{control_regions, ClassControls};
use jinjing_core::figure1::Figure1;
use jinjing_core::generate::{generate, GenerateConfig, GenerateReport};
use jinjing_core::Task;
use jinjing_lai::Command;
use jinjing_net::{AclConfig, DistinctAcls, Network, Path, ScopeModel, Slot};
use jinjing_solver::cdcl::SolveResult;
use jinjing_solver::lit::Lit;
use jinjing_solver::CircuitBuilder;
use jinjing_wan::{build_wan, scenarios, NetSize, WanParams};
use std::collections::HashMap;
use std::sync::Arc;

/// What the reference reports: the counts of [`GenerateReport`] and the
/// generated configuration.
#[derive(Debug)]
struct Reference {
    generated: AclConfig,
    aec_count: usize,
    aecs_split: usize,
    dec_count: usize,
    rows: usize,
    rules_emitted: usize,
    rules_final: usize,
}

/// One solved decision unit: a class and its decision per target slot.
struct Unit {
    region: PacketSet,
    decisions: HashMap<Slot, bool>,
}

/// The per-slot synthesis, solving serially.
fn reference(net: &Network, task: &Task, optimize: bool) -> Reference {
    let limits = CheckConfig::default().refine_limits;
    let model = ScopeModel::new(
        net,
        task.scope.clone(),
        control_regions(&task.controls),
        limits,
    );
    let mut targets = task.allow.clone();
    targets.sort();
    targets.dedup();

    // AECs from the permit set of every encoding slot.
    let encoding_slots = task.before.slots();
    let acl_at = |s: Slot| task.before.get(s).expect("configured slot");
    let mut predicates: Vec<PacketSet> = encoding_slots
        .iter()
        .map(|&s| first_match_reference::permit_set(acl_at(s)))
        .collect();
    predicates.extend(control_regions(&task.controls));
    let predicates = dedupe_predicates(predicates);
    let aecs = refine(model.universe(), &predicates, limits).expect("no explosion");

    // Solve AECs, DEC-splitting the unsolvable ones.
    let all_paths = model.topological_paths();
    let mut units: Vec<(usize, Vec<Unit>)> = Vec::new();
    let (mut aecs_split, mut dec_count) = (0, 0);
    for (ai, aec) in aecs.iter().enumerate() {
        match solve_class(task, &targets, all_paths, &aec.set, false) {
            Some(decisions) => units.push((
                ai,
                vec![Unit {
                    region: aec.set.clone(),
                    decisions,
                }],
            )),
            None => {
                aecs_split += 1;
                let decs = refine(&aec.set, model.forwarding(), limits).expect("no explosion");
                let mut dec_units = Vec::new();
                for dec in decs {
                    dec_count += 1;
                    let decisions = solve_class(task, &targets, all_paths, &dec.set, true)
                        .expect("every DEC solves");
                    dec_units.push(Unit {
                        region: dec.set,
                        decisions,
                    });
                }
                units.push((ai, dec_units));
            }
        }
    }

    // Rows: one encoding digit per encoding slot.
    let slot_groups: Vec<Vec<PacketSet>> = encoding_slots
        .iter()
        .map(|&s| first_match_reference::effective_regions(acl_at(s), optimize))
        .collect();
    let mut rows: Vec<(Vec<usize>, PacketSet, usize)> = Vec::new();
    for (ai, aec) in aecs.iter().enumerate() {
        let mut partial: Vec<(Vec<usize>, PacketSet)> = vec![(Vec::new(), aec.set.clone())];
        for groups in &slot_groups {
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
        rows.extend(partial.into_iter().map(|(e, r)| (e, r, ai)));
    }
    rows.sort_by(|a, b| a.0.cmp(&b.0));

    // Emission.
    let mut generated = task.after.clone();
    let (mut rules_emitted, mut rules_final) = (0, 0);
    let unit_map: HashMap<usize, &Vec<Unit>> = units.iter().map(|(ai, us)| (*ai, us)).collect();
    for &target in &targets {
        let mut acl = if optimize {
            let mut deny_cubes = Vec::new();
            for (_, us) in &units {
                for unit in us {
                    if !unit.decisions[&target] {
                        deny_cubes.extend(unit.region.cubes().iter().copied());
                    }
                }
            }
            let deny = PacketSet::from_cubes_raw(deny_cubes);
            let rules = set_to_matchspecs(&deny)
                .into_iter()
                .map(|m| Rule::new(Action::Deny, m))
                .collect();
            Acl::new(rules, Action::Permit)
        } else {
            let mut rules: Vec<Rule> = Vec::new();
            for (_, region, ai) in &rows {
                let row_units = unit_map[ai];
                for unit in row_units {
                    let region = if row_units.len() == 1 {
                        region.clone()
                    } else {
                        region.intersect(&unit.region)
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
        if optimize && acl.len() <= 24 {
            acl = simplify(&acl).0;
        }
        rules_final += acl.len();
        generated.set(target, acl);
    }
    Reference {
        generated,
        aec_count: aecs.len(),
        aecs_split,
        dec_count,
        rows: rows.len(),
        rules_emitted,
        rules_final,
    }
}

/// Eq. 10 for one class, with the decisions biased toward permit.
fn solve_class(
    task: &Task,
    targets: &[Slot],
    all_paths: &[Path],
    class: &PacketSet,
    restrict_paths: bool,
) -> Option<HashMap<Slot, bool>> {
    let h = class.sample().expect("non-empty class");
    let mut builder = CircuitBuilder::new();
    let vars: HashMap<Slot, Lit> = targets.iter().map(|&s| (s, builder.input())).collect();
    let class_controls = ClassControls::new(&task.controls, class);
    for p in all_paths {
        if restrict_paths && !class.intersects(&p.carried) {
            continue;
        }
        let desired = class_controls.desired(p, task.before.path_permits(p, &h));
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
                return None;
            }
            continue;
        }
        let conj = builder.and(&lits);
        builder.assert(if desired { conj } else { !conj });
    }
    if builder.solve() != SolveResult::Sat {
        return None;
    }
    let mut pinned: Vec<Lit> = Vec::new();
    for s in targets {
        let v = vars[s];
        let mut attempt = pinned.clone();
        attempt.push(v);
        pinned.push(if builder.solve_with(&attempt) == SolveResult::Sat {
            v
        } else {
            !v
        });
    }
    assert_eq!(builder.solve_with(&pinned), SolveResult::Sat);
    Some(
        targets
            .iter()
            .map(|&s| (s, builder.model_value(vars[&s])))
            .collect(),
    )
}

/// `generate` and the reference agree on `task` under both emissions.
fn agree(net: &Network, task: &Task, label: &str) -> [GenerateReport; 2] {
    [false, true].map(|optimize| {
        let at = format!("{label}, optimize {optimize}");
        let got = generate(
            net,
            task,
            &CheckConfig::default(),
            &GenerateConfig { optimize },
        )
        .unwrap_or_else(|e| panic!("{at}: {e}"));
        let want = reference(net, task, optimize);
        assert_eq!(
            (got.aec_count, got.aecs_split, got.dec_count, got.rows),
            (want.aec_count, want.aecs_split, want.dec_count, want.rows),
            "{at}: AECs, splits, DECs, rows"
        );
        assert_eq!(
            (got.rules_emitted, got.rules_final),
            (want.rules_emitted, want.rules_final),
            "{at}: rules"
        );
        let mut slots = got.generated.slots();
        slots.extend(want.generated.slots());
        slots.sort();
        slots.dedup();
        for s in slots {
            let lines = |c: &AclConfig| c.get(s).map(Acl::lines);
            assert_eq!(lines(&got.generated), lines(&want.generated), "{at}: {s:?}");
        }
        got
    })
}

#[test]
fn small_wan_migration_matches_the_per_slot_reference() {
    let wan = build_wan(&WanParams::preset(NetSize::Small));
    let task = scenarios::migration(&wan).task;
    let distinct = DistinctAcls::of(&[&task.before]).acls().len();
    assert!(distinct < task.before.len(), "slots share ACLs");
    agree(&wan.net, &task, "migration");
}

#[test]
fn small_wan_control_open_matches_the_per_slot_reference() {
    let wan = build_wan(&WanParams::preset(NetSize::Small));
    for k in [1, 2] {
        let task = scenarios::control_open(&wan, k, 11).task;
        agree(&wan.net, &task, &format!("control-open k={k}"));
    }
}

/// Figure 1's migration (drain A1 and D2, generate at C1, C2 and D1) with
/// A1's ACL also on C2 and D1 and D2's on B1: six encoding slots, three
/// distinct ACLs.
fn shared_figure1(f: &Figure1, share: bool) -> Task {
    let a1 = Arc::new(f.config.get(f.slot("A1")).expect("A1").clone());
    let d2 = Arc::new(f.config.get(f.slot("D2")).expect("D2").clone());
    let mut before = f.config.clone();
    for (name, acl) in [("C2", &a1), ("D1", &a1), ("B1", &d2)] {
        if share {
            before.set_shared(f.slot(name), acl.clone());
        } else {
            before.set(f.slot(name), Acl::clone(acl));
        }
    }
    let mut after = before.clone();
    after.set(f.slot("A1"), Acl::permit_all());
    after.set(f.slot("D2"), Acl::permit_all());
    Task {
        scope: f.scope(),
        allow: vec![f.slot("C1"), f.slot("C2"), f.slot("D1")],
        before,
        after,
        modified: vec![f.slot("A1"), f.slot("D2")],
        controls: Vec::new(),
        command: Command::Generate,
    }
}

#[test]
fn figure1_with_shared_acls_matches_the_per_slot_reference() {
    let f = Figure1::new();
    let mut answers = Vec::new();
    for share in [true, false] {
        let task = shared_figure1(&f, share);
        assert_eq!(task.before.len(), 6);
        assert_eq!(DistinctAcls::of(&[&task.before]).acls().len(), 3);
        answers.push(agree(&f.net, &task, &format!("shared {share}")));
    }
    // Sharing is invisible: one allocation or equal copies, same answers.
    for (shared, copied) in answers[0].iter().zip(&answers[1]) {
        assert_eq!(shared.generated, copied.generated);
        assert_eq!(shared.rows, copied.rows);
    }
}
