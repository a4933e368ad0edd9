//! Determinism regression suite for the parallel query engine.
//!
//! `jinjing-par`'s contract is that every fan-out folds its results in a
//! deterministic order, and `jinjing-core`'s query store replays hits
//! observationally identically to re-solving. Together they promise:
//! **reports are byte-identical for every thread count, whether each run
//! owns a private (empty) store or all runs share one** — including the
//! *choice* of counterexample, the order of emitted fixing rules, and the
//! aggregated solver statistics. This suite pins that promise on the
//! paper's running example for all three primitives, comparing canonical
//! renderings that include everything except wall-clock durations (the
//! one field that legitimately varies).

use jinjing_core::check::{check, check_per_acl, CheckConfig, CheckReport};
use jinjing_core::figure1::Figure1;
use jinjing_core::fix::{fix, FixConfig, FixPlan, FixStrategy};
use jinjing_core::generate::{generate, GenerateConfig, GenerateReport};
use jinjing_core::qcache::QueryCache;
use jinjing_core::Task;
use jinjing_lai::Command;
use jinjing_net::{AclConfig, Slot};
use std::sync::Arc;

/// The thread counts the contract is pinned on (serial, small, oversubscribed).
const THREADS: [usize; 3] = [1, 2, 8];

/// A check configuration on `shared` when given (runs after the first
/// replay what earlier runs stored), on a private empty store otherwise
/// (every query is solved).
fn check_cfg(threads: usize, shared: Option<&Arc<QueryCache>>) -> CheckConfig {
    CheckConfig {
        threads,
        cache: shared.map_or_else(|| Arc::new(QueryCache::new()), Arc::clone),
        ..CheckConfig::default()
    }
}

/// Canonical rendering of a configuration: sorted slots, Display'd ACLs.
fn canon_config(c: &AclConfig) -> String {
    let mut s = String::new();
    for slot in c.slots() {
        let acl = c.get(slot).expect("listed slot is configured");
        s.push_str(&format!("{slot:?} => {acl}\n"));
    }
    s
}

/// Everything in a check report except the wall-clock splits.
fn canon_check(r: &CheckReport) -> String {
    format!(
        "outcome={:?} fec={} paths={} stats={:?} encoded={} total={}",
        r.outcome, r.fec_count, r.paths_checked, r.solver_stats, r.encoded_rules, r.total_rules
    )
}

/// Everything in a fix plan except the wall-clock phase splits.
fn canon_fix(p: &FixPlan) -> String {
    format!(
        "rules={:?}\nhoods={:?}\nfinal={}\nconfig:\n{}",
        p.added_rules,
        p.neighborhoods,
        canon_check(&p.final_check),
        canon_config(&p.fixed)
    )
}

/// Everything in a generate report except the wall-clock phase splits.
fn canon_generate(g: &GenerateReport) -> String {
    format!(
        "aecs={} split={} decs={} rows={} emitted={} final={}\nconfig:\n{}",
        g.aec_count,
        g.aecs_split,
        g.dec_count,
        g.rows,
        g.rules_emitted,
        g.rules_final,
        canon_config(&g.generated)
    )
}

fn fix_task(f: &Figure1) -> Task {
    let mut allow = Vec::new();
    for name in ["A1", "A2", "A3", "A4", "B1", "B2"] {
        allow.push(Slot::ingress(f.iface(name)));
        allow.push(Slot::egress(f.iface(name)));
    }
    Task {
        scope: f.scope(),
        allow,
        before: f.config.clone(),
        after: f.bad_update(),
        modified: Vec::new(),
        controls: Vec::new(),
        command: Command::Fix,
    }
}

fn migration_task(f: &Figure1) -> Task {
    let mut after = f.config.clone();
    after.set(f.slot("A1"), jinjing_acl::Acl::permit_all());
    after.set(f.slot("D2"), jinjing_acl::Acl::permit_all());
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

#[test]
fn check_reports_are_identical_across_threads_and_stores() {
    let f = Figure1::new();
    let task = fix_task(&f); // inconsistent update: exercises the witness path
    let store = Arc::new(QueryCache::new());
    let mut renderings = Vec::new();
    for shared in [None, Some(&store)] {
        for threads in THREADS {
            let cfg = check_cfg(threads, shared);
            let r = check(&f.net, &task, &cfg).expect("figure 1 never explodes");
            renderings.push((threads, shared.is_some(), canon_check(&r)));
        }
    }
    let (_, _, baseline) = &renderings[0];
    assert!(
        baseline.contains("Inconsistent"),
        "the bad update must be caught: {baseline}"
    );
    for (threads, shared, rendering) in &renderings {
        assert_eq!(
            rendering, baseline,
            "check diverged at threads={threads} shared={shared}"
        );
    }
}

#[test]
fn consistent_check_is_identical_across_threads_and_stores() {
    let f = Figure1::new();
    let mut task = fix_task(&f);
    task.after = task.before.clone();
    let store = Arc::new(QueryCache::new());
    let mut baseline: Option<String> = None;
    for shared in [None, Some(&store)] {
        for threads in THREADS {
            let cfg = check_cfg(threads, shared);
            let r = check(&f.net, &task, &cfg).unwrap();
            let rendering = canon_check(&r);
            assert!(rendering.contains("Consistent"), "{rendering}");
            match &baseline {
                None => baseline = Some(rendering),
                Some(b) => assert_eq!(
                    &rendering,
                    b,
                    "threads={threads} shared={}",
                    shared.is_some()
                ),
            }
        }
    }
}

#[test]
fn fix_plans_are_identical_across_threads_stores_and_both_strategies() {
    let f = Figure1::new();
    let task = fix_task(&f);
    for strategy in [FixStrategy::IterativeCegis, FixStrategy::ExactBatch] {
        let store = Arc::new(QueryCache::new());
        let mut baseline: Option<String> = None;
        for shared in [None, Some(&store)] {
            for threads in THREADS {
                let cfg = FixConfig {
                    strategy,
                    ..FixConfig::default()
                };
                let plan = fix(&f.net, &task, &check_cfg(threads, shared), &cfg)
                    .expect("figure 1 is fixable");
                let rendering = canon_fix(&plan);
                match &baseline {
                    None => baseline = Some(rendering),
                    Some(b) => assert_eq!(
                        &rendering,
                        b,
                        "{strategy:?} diverged at threads={threads} shared={}",
                        shared.is_some()
                    ),
                }
            }
        }
    }
}

#[test]
fn generate_reports_are_identical_across_threads() {
    let f = Figure1::new();
    let task = migration_task(&f);
    for optimize in [true, false] {
        let mut baseline: Option<String> = None;
        for threads in THREADS {
            let g = generate(
                &f.net,
                &task,
                &check_cfg(threads, None),
                &GenerateConfig { optimize },
            )
            .expect("migration generates");
            let rendering = canon_generate(&g);
            match &baseline {
                None => baseline = Some(rendering),
                Some(b) => assert_eq!(
                    &rendering, b,
                    "generate (optimize={optimize}) diverged at threads={threads}"
                ),
            }
        }
    }
}

#[test]
fn per_acl_check_is_identical_across_threads_and_stores() {
    let f = Figure1::new();
    let before = f.config.clone();
    let after = f.bad_update();
    let store = Arc::new(QueryCache::new());
    let mut baseline: Option<String> = None;
    for shared in [None, Some(&store)] {
        for threads in THREADS {
            let cfg = check_cfg(threads, shared);
            let r = check_per_acl(&before, &after, &cfg);
            let rendering = canon_check(&r);
            match &baseline {
                None => baseline = Some(rendering),
                Some(b) => assert_eq!(
                    &rendering,
                    b,
                    "threads={threads} shared={}",
                    shared.is_some()
                ),
            }
        }
    }
}

#[test]
fn shared_cache_across_repeated_checks_changes_nothing_and_hits() {
    // One cache reused for the same query load twice: the second run is
    // served from the cache (hit counters grow) yet reports stay identical.
    // Serial on purpose: which pairs past the first violation a parallel
    // run speculates on is schedule-dependent, so only the serial schedule
    // asks exactly the same queries twice (the threads × shared-store
    // tests above cover parallel replays).
    let f = Figure1::new();
    let task = fix_task(&f);
    let cache = Arc::new(QueryCache::new());
    let cfg = CheckConfig {
        threads: 1,
        cache: Arc::clone(&cache),
        ..CheckConfig::default()
    };
    let first = check(&f.net, &task, &cfg).unwrap();
    assert!(!cache.is_empty(), "the first run must populate the cache");
    let populated = cache.len();
    let second = check(&f.net, &task, &cfg).unwrap();
    assert_eq!(canon_check(&first), canon_check(&second));
    assert_eq!(
        cache.len(),
        populated,
        "the second run re-asks the same queries; no new entries"
    );
}

/// The pool really is exercised through the public API: an oversubscribed
/// pool (more workers than jobs) still folds deterministically.
#[test]
fn oversubscription_beyond_job_count_is_safe() {
    let f = Figure1::new();
    let task = fix_task(&f);
    let serial = check(&f.net, &task, &check_cfg(1, None)).unwrap();
    let wide = check(&f.net, &task, &check_cfg(64, None)).unwrap();
    assert_eq!(canon_check(&serial), canon_check(&wide));
    // And jinjing-par's own primitive agrees on ordering.
    let pool = jinjing_par::Pool::new(64);
    let squares = pool.par_map(&(0..97).collect::<Vec<i64>>(), |_, x| x * x);
    assert_eq!(squares, (0..97).map(|x| x * x).collect::<Vec<i64>>());
}
