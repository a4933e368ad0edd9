//! End-to-end integration over the synthetic WAN (the §8 substrate): every
//! experiment scenario runs through the public API on the small preset and
//! its result is certified by the exact checker.

mod refine_reference;

use jinjing_acl::atoms::RefineLimits;
use jinjing_core::check::{
    check, check_configs, check_exact, CheckConfig, CheckOutcome, CheckReport,
};
use jinjing_core::fix::{fix, FixConfig};
use jinjing_core::generate::{generate, GenerateConfig};
use jinjing_core::{CheckSession, Delta, Encoding};
use jinjing_lai::printer::statement_count;
use jinjing_lai::Command;
use jinjing_net::ScopeModel;
use jinjing_wan::{build_wan, scenarios, NetSize, WanParams};

fn small() -> jinjing_wan::Wan {
    build_wan(&WanParams::preset(NetSize::Small))
}

#[test]
fn perturbed_update_check_agrees_with_oracle() {
    let wan = small();
    for seed in [1u64, 2, 3] {
        for fraction in [0.01, 0.05] {
            let sc = scenarios::checkfix(&wan, fraction, seed, Command::Check);
            let oracle = check_exact(
                &wan.net,
                &sc.task.scope,
                &sc.task.before,
                &sc.task.after,
                &[],
            )
            .is_consistent();
            for differential in [false, true] {
                let cfg = CheckConfig {
                    differential,
                    encoding: Encoding::Tree,
                    ..CheckConfig::default()
                };
                let got = check(&wan.net, &sc.task, &cfg)
                    .expect("check")
                    .outcome
                    .is_consistent();
                assert_eq!(
                    got, oracle,
                    "seed {seed} fraction {fraction} diff {differential}"
                );
            }
        }
    }
}

#[test]
fn perturbation_is_usually_inconsistent_and_fix_repairs_it() {
    let wan = small();
    // Some seeds only hit redundant rules (a perturbation that happens to
    // be a semantic no-op); scan a few until one actually breaks
    // reachability — deterministically the same one every run.
    let sc = (7u64..32)
        .map(|seed| scenarios::checkfix(&wan, 0.05, seed, Command::Fix))
        .find(|sc| {
            let report = check(&wan.net, &sc.task, &CheckConfig::default()).expect("check");
            matches!(report.outcome, CheckOutcome::Inconsistent(_))
        })
        .expect("some 5% perturbation breaks reachability");
    let plan = fix(
        &wan.net,
        &sc.task,
        &CheckConfig::default(),
        &FixConfig::default(),
    )
    .expect("fix");
    assert!(!plan.added_rules.is_empty());
    let verdict = check_exact(&wan.net, &sc.task.scope, &sc.task.before, &plan.fixed, &[]);
    assert!(verdict.is_consistent(), "{verdict:?}");
}

#[test]
fn migration_scenario_preserves_reachability() {
    let wan = small();
    let sc = scenarios::migration(&wan);
    let report = generate(
        &wan.net,
        &sc.task,
        &CheckConfig::default(),
        &GenerateConfig::default(),
    )
    .expect("generate");
    // Sources drained, targets populated.
    for group in &wan.acl_slots {
        for &s in group {
            assert!(report
                .generated
                .get(s)
                .map_or(true, jinjing_acl::Acl::is_permit_all));
        }
    }
    assert!(report.rules_final > 0);
    let verdict = check_exact(
        &wan.net,
        &sc.task.scope,
        &sc.task.before,
        &report.generated,
        &[],
    );
    assert!(verdict.is_consistent(), "{verdict:?}");
}

#[test]
fn migration_optimization_reduces_rules_dramatically() {
    let wan = small();
    let sc = scenarios::migration(&wan);
    let opt = generate(
        &wan.net,
        &sc.task,
        &CheckConfig::default(),
        &GenerateConfig::default(),
    )
    .expect("generate");
    let base = generate(
        &wan.net,
        &sc.task,
        &CheckConfig::default(),
        &GenerateConfig { optimize: false },
    )
    .expect("generate");
    // §5.5: the optimizations shrink the generated ACLs by orders of
    // magnitude (the paper reports ~2 orders; we assert at least 5×).
    assert!(
        opt.rules_final * 5 < base.rules_final,
        "optimized {} vs base {}",
        opt.rules_final,
        base.rules_final
    );
    // Both are consistent.
    for r in [&opt, &base] {
        let verdict = check_exact(&wan.net, &sc.task.scope, &sc.task.before, &r.generated, &[]);
        assert!(verdict.is_consistent());
    }
}

#[test]
fn control_open_achieves_desired_reachability() {
    let wan = small();
    for k in [1usize, 2] {
        let sc = scenarios::control_open(&wan, k, 11);
        let report = generate(
            &wan.net,
            &sc.task,
            &CheckConfig::default(),
            &GenerateConfig::default(),
        )
        .expect("generate");
        let verdict = check_exact(
            &wan.net,
            &sc.task.scope,
            &sc.task.before,
            &report.generated,
            &sc.task.controls,
        );
        assert!(verdict.is_consistent(), "k={k}: {verdict:?}");
        // Every opened prefix actually flows end to end.
        for c in &sc.task.controls {
            let class = c.region.clone();
            let scope = sc.task.scope.clone();
            let mut reached = false;
            for path in wan.net.all_paths_for_class(&scope, &class) {
                if !c.applies_to(&path) {
                    continue;
                }
                let sample = path.carried.intersect(&class).sample();
                if let Some(pkt) = sample {
                    if report.generated.path_permits(&path, &pkt) {
                        reached = true;
                    }
                }
            }
            assert!(reached, "an opened prefix stayed blocked");
        }
    }
}

#[test]
fn table5_shapes_hold_across_sizes() {
    // Program sizes stay compact for check/fix and migration, and grow
    // linearly in k for control-open (Table 5's shape).
    for size in NetSize::ALL {
        let wan = build_wan(&WanParams::preset(size));
        let check_sc = scenarios::checkfix(&wan, 0.01, 5, Command::Check);
        let mig_sc = scenarios::migration(&wan);
        let open1 = scenarios::control_open(&wan, 1, 5);
        let open2 = scenarios::control_open(&wan, 2, 5);
        let edges = wan.all_edges().len();
        assert!(statement_count(&check_sc.program) <= 4 + wan.installed_rules() / 10);
        assert!(statement_count(&mig_sc.program) <= 3 + wan.all_acl_slots().len());
        assert_eq!(
            statement_count(&open2.program) - statement_count(&open1.program),
            edges
        );
    }
}

#[test]
fn differential_reduction_shrinks_encoded_rules() {
    let wan = small();
    let sc = scenarios::checkfix(&wan, 0.01, 9, Command::Check);
    let basic = check(
        &wan.net,
        &sc.task,
        &CheckConfig {
            differential: false,
            ..CheckConfig::default()
        },
    )
    .expect("check");
    let diff = check(&wan.net, &sc.task, &CheckConfig::default()).expect("check");
    assert!(
        diff.encoded_rules * 2 < basic.encoded_rules,
        "differential {} vs basic {}",
        diff.encoded_rules,
        basic.encoded_rules
    );
    assert_eq!(diff.outcome.is_consistent(), basic.outcome.is_consistent());
}

#[test]
fn session_replay_matches_cold_checks_and_prunes_most_pairs() {
    // A 3% perturbation deployed one slot at a time through a resident
    // session. Every step must report what a cold check of the same
    // before/after pair reports, and over the stream the session must solve
    // fewer than half the (class, path) pairs the cold checks consider.
    fn canon(r: &CheckReport) -> String {
        format!(
            "{:?} fec={} paths={} stats={:?} encoded={} total={}",
            r.outcome, r.fec_count, r.paths_checked, r.solver_stats, r.encoded_rules, r.total_rules
        )
    }
    let wan = small();
    let task =
        scenarios::checkfix(&wan, 0.03, 0xBE7C_0000 ^ 0.03f64.to_bits(), Command::Check).task;
    let mut slots = task.before.slots();
    slots.extend(task.after.slots());
    slots.sort();
    slots.dedup();
    let deltas: Vec<Delta> = slots
        .into_iter()
        .filter(|&s| task.before.get(s) != task.after.get(s))
        .map(|s| match task.after.get(s) {
            Some(acl) => Delta::new().set(s, acl.clone()),
            None => Delta::new().clear(s),
        })
        .collect();
    assert!(deltas.len() >= 2, "the perturbation touches several slots");

    let mut session = CheckSession::with_configs(
        &wan.net,
        task.scope.clone(),
        task.controls.clone(),
        task.before.clone(),
        CheckConfig::default(),
    )
    .expect("session opens");
    let pairs_ceiling = deltas.len() * session.total_pairs();
    let mut base = task.before.clone();
    let mut dirty_pairs = 0;
    for (i, delta) in deltas.iter().enumerate() {
        let after = delta.applied_to(&base);
        let cold = check_configs(
            &wan.net,
            &task.scope,
            &base,
            &after,
            &task.controls,
            &CheckConfig::default(),
        )
        .expect("cold check");
        let step = session.recheck(delta).expect("recheck");
        assert_eq!(canon(&step.report), canon(&cold), "step {i}");
        assert_eq!(step.applied, cold.outcome.is_consistent(), "step {i}");
        if step.applied {
            base = after;
        }
        dirty_pairs += step.incr.dirty_pairs;
    }
    assert_eq!(session.base(), &base, "bases converge across the stream");
    assert!(
        dirty_pairs * 2 < pairs_ceiling,
        "incremental pruning regressed: {dirty_pairs} dirty pairs vs ceiling {pairs_ceiling}"
    );
}

/// The pin that keeps refinement work byte-identical: the FEC partition of
/// the medium preset is the plain loop's, cube for cube and in order. Class
/// order and cube lists reach shard ownership, the stage-2 class constraint
/// and every witness, so any future refinement must keep this green.
#[test]
fn medium_partition_is_the_plain_loop_cube_for_cube() {
    let wan = build_wan(&WanParams::preset(NetSize::Medium));
    let model = ScopeModel::new(&wan.net, wan.scope(), Vec::new(), RefineLimits::default());
    let classes: Vec<_> = model
        .classes()
        .expect("partition")
        .iter()
        .map(|c| c.set.clone())
        .collect();
    let reference =
        refine_reference::refine(model.universe(), model.family(), usize::MAX).expect("no limit");
    assert!(classes.len() > 1, "{} classes", classes.len());
    assert_eq!(classes, reference);
}
