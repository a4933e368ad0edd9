#![forbid(unsafe_code)]

//! Regenerate the paper's evaluation tables and series.
//!
//! ```sh
//! cargo run --release -p jinjing-bench --bin figures -- all
//! cargo run --release -p jinjing-bench --bin figures -- fig4a fig4c table5
//! cargo run --release -p jinjing-bench --bin figures -- fig4b --large
//! ```
//!
//! Subcommands: `fig4a` `fig4b` `fig4c` `fig4d` `table5` `depth` `spans`
//! `lint` `par` `incr` `serve` `trace` `plan` `shard` `all`.
//! `--large` additionally runs the large-network fix (minutes, matching the
//! paper's ~10-minute ceiling for check+fix).
//! `par` accepts `--small` (restrict to the small WAN; the CI smoke step)
//! and `--bench-out <path>` (write the machine-readable `BENCH_check.json`).
//! `incr` replays the perturbation as a per-slot edit stream through a
//! [`jinjing_core::incr::CheckSession`] against per-step cold checks and
//! honours the same flags (`--bench-out` writes `BENCH_incr.json`).
//! `serve` stands a loopback `jinjing-serve` daemon up and fires
//! concurrent `/v1/check` load at it, asserting every response
//! byte-identical to the CLI rendering (`--bench-out` writes
//! `BENCH_serve.json`).
//! `plan` synthesizes certified rollout plans for the seeded update
//! campaigns ([`jinjing_wan::rollout`]), asserting the rendered bytes
//! are thread-count-independent (`--bench-out` writes `BENCH_plan.json`).
//! `shard` runs the class-space partition table behind the sharded
//! coordinator: one full-scan check split over 1/2/4/8 consistent-hash
//! shards ([`jinjing_acl::shard::ShardSpec`]), proving the per-shard
//! dirty-pair and solver-query counts sum *exactly* to the single-process
//! baseline — zero duplicated queries at any width (`--bench-out` writes
//! `BENCH_shard.json`).

use jinjing_acl::Acl;
use jinjing_bench::{checkfix_scenario, control_open_task, migration_task, wan, PERTURBATIONS};
use jinjing_core::check::{check, check_configs, CheckConfig, CheckReport};
use jinjing_core::engine::{run as engine_run, EngineConfig};
use jinjing_core::fix::{fix, FixConfig};
use jinjing_core::generate::{generate, GenerateConfig};
use jinjing_core::incr::{CheckSession, Delta, IncrConfig};
use jinjing_core::qcache::QueryCache;
use jinjing_core::Encoding;
use jinjing_lai::printer::statement_count;
use jinjing_lai::Command;
use jinjing_wan::scenarios;
use jinjing_wan::NetSize;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn ms(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e3)
}

/// Median of three runs for sub-second operations; single run otherwise.
fn timed<T>(mut f: impl FnMut() -> T) -> (Duration, T) {
    let t = Instant::now();
    let out = f();
    let first = t.elapsed();
    if first > Duration::from_millis(500) {
        return (first, out);
    }
    let mut times = vec![first];
    let mut last = out;
    for _ in 0..2 {
        let t = Instant::now();
        last = f();
        times.push(t.elapsed());
    }
    times.sort();
    (times[1], last)
}

fn fig4a() {
    println!("\n## Figure 4a — check turnaround (ms), ± differential rules\n");
    println!("| network | perturb | basic ms | basic rules | diff ms | diff rules | verdict |");
    println!("|---------|---------|----------|-------------|---------|------------|---------|");
    for size in NetSize::ALL {
        let net = wan(size);
        for fraction in PERTURBATIONS {
            let sc = checkfix_scenario(&net, fraction, Command::Check);
            let basic_cfg = CheckConfig {
                differential: false,
                ..CheckConfig::default()
            };
            let (tb, rb) = timed(|| check(&net.net, &sc.task, &basic_cfg).expect("check"));
            let diff_cfg = CheckConfig::default();
            let (td, rd) = timed(|| check(&net.net, &sc.task, &diff_cfg).expect("check"));
            assert_eq!(
                rb.outcome.is_consistent(),
                rd.outcome.is_consistent(),
                "variants disagree"
            );
            println!(
                "| {} | {:>2.0}% | {:>8} | {:>11} | {:>7} | {:>10} | {} |",
                size.label(),
                fraction * 100.0,
                ms(tb),
                rb.encoded_rules,
                ms(td),
                rd.encoded_rules,
                if rd.outcome.is_consistent() {
                    "consistent"
                } else {
                    "inconsistent"
                },
            );
        }
    }
}

fn fig4b(include_large: bool) {
    use jinjing_core::FixStrategy;
    println!("\n## Figure 4b — fix turnaround (ms): batch engine vs the paper's iterative loop\n");
    println!("| network | perturb | batch ms | iterative ms | neighborhoods | rules added |");
    println!("|---------|---------|----------|--------------|---------------|-------------|");
    let mut sizes = vec![NetSize::Small, NetSize::Medium];
    if include_large {
        sizes.push(NetSize::Large);
    }
    for size in sizes {
        let net = wan(size);
        for fraction in PERTURBATIONS {
            let sc = checkfix_scenario(&net, fraction, Command::Fix);
            let batch_cfg = FixConfig {
                strategy: FixStrategy::ExactBatch,
                ..FixConfig::default()
            };
            let (tb, plan) = timed(|| fix(&net.net, &sc.task, &batch_cfg).expect("fix"));
            // The paper-faithful CEGIS loop runs minutes at large scale
            // (exactly the paper's ~10-minute ceiling); only time it on the
            // small/medium networks.
            let iterative = if size == NetSize::Large {
                "minutes".to_string()
            } else {
                let (ti, _) =
                    timed(|| fix(&net.net, &sc.task, &FixConfig::default()).expect("fix"));
                ms(ti)
            };
            println!(
                "| {} | {:>2.0}% | {:>8} | {:>12} | {:>13} | {:>11} |",
                size.label(),
                fraction * 100.0,
                ms(tb),
                iterative,
                plan.neighborhoods.len(),
                plan.added_rules.len(),
            );
        }
    }
    if !include_large {
        println!("\n(large omitted — run with --large)");
    }
}

fn fig4c() {
    println!("\n## Figure 4c — generate (migration): phases and output size\n");
    println!("| network | mode | total ms | derive-AEC | solve | synthesize | AECs (split) | rows | rules |");
    println!("|---------|------|----------|------------|-------|------------|--------------|------|-------|");
    for size in NetSize::ALL {
        let net = wan(size);
        let task = migration_task(&net);
        for (label, optimize) in [("optimized", true), ("basic", false)] {
            let cfg = GenerateConfig {
                optimize,
                ..GenerateConfig::default()
            };
            let (t, r) = timed(|| generate(&net.net, &task, &cfg).expect("generate"));
            println!(
                "| {} | {} | {:>8} | {:>10} | {:>5} | {:>10} | {:>4} ({}) | {:>4} | {:>5} |",
                size.label(),
                label,
                ms(t),
                ms(r.phases.derive_aec),
                ms(r.phases.solve),
                ms(r.phases.synthesize),
                r.aec_count,
                r.aecs_split,
                r.rows,
                r.rules_final,
            );
        }
    }
}

fn fig4d() {
    println!("\n## Figure 4d — generate under control-open (k prefixes/device)\n");
    println!("| network | k | total ms | derive-AEC | solve | synthesize | AECs | rules |");
    println!("|---------|---|----------|------------|-------|------------|------|-------|");
    for size in NetSize::ALL {
        let net = wan(size);
        for k in [1usize, 2, 4] {
            let task = control_open_task(&net, k);
            let cfg = GenerateConfig::default();
            let (t, r) = timed(|| generate(&net.net, &task, &cfg).expect("generate"));
            println!(
                "| {} | {} | {:>8} | {:>10} | {:>5} | {:>10} | {:>4} | {:>5} |",
                size.label(),
                k,
                ms(t),
                ms(r.phases.derive_aec),
                ms(r.phases.solve),
                ms(r.phases.synthesize),
                r.aec_count,
                r.rules_final,
            );
        }
    }
}

fn table5() {
    println!("\n## Table 5 — LAI program statement counts\n");
    println!("| network | check&fix | migration | open 1 | open 2 | open 4 |");
    println!("|---------|-----------|-----------|--------|--------|--------|");
    for size in NetSize::ALL {
        let net = wan(size);
        let cf = scenarios::checkfix(&net, 0.03, jinjing_bench::SEED, Command::Check);
        let mig = scenarios::migration(&net);
        let opens: Vec<usize> = [1usize, 2, 4]
            .iter()
            .map(|&k| {
                statement_count(&scenarios::control_open(&net, k, jinjing_bench::SEED).program)
            })
            .collect();
        println!(
            "| {} | {:>9} | {:>9} | {:>6} | {:>6} | {:>6} |",
            size.label(),
            statement_count(&cf.program),
            statement_count(&mig.program),
            opens[0],
            opens[1],
            opens[2],
        );
    }
}

fn depth() {
    println!("\n## §9 — solver effort on the medium check workload\n");
    println!("| encoding | rules | encoded rules | decisions | propagations | conflicts | max depth | ms |");
    println!("|----------|-------|---------------|-----------|--------------|-----------|-----------|----|");
    let net = wan(NetSize::Medium);
    let sc = checkfix_scenario(&net, 0.03, Command::Check);
    for (enc_label, encoding) in [
        ("sequential", Encoding::Sequential),
        ("tree", Encoding::Tree),
    ] {
        for (diff_label, differential) in [("full", false), ("diff", true)] {
            let cfg = CheckConfig {
                differential,
                encoding,
                ..CheckConfig::default()
            };
            let (t, r) = timed(|| check(&net.net, &sc.task, &cfg).expect("check"));
            let s = r.solver_stats;
            println!(
                "| {enc_label}+{diff_label} | {} | {} | {} | {} | {} | {} | {} |",
                r.total_rules,
                r.encoded_rules,
                s.decisions,
                s.propagations,
                s.conflicts,
                s.max_depth,
                ms(t),
            );
        }
    }
}

/// Render one node of the span tree, Figures-9-to-11 style: indented
/// phase labels with entry counts and summed wall-clock.
fn render_span(node: &jinjing_obs::SpanSnapshot, depth: usize, parent_ns: u64) {
    if depth > 0 {
        let pct = if parent_ns > 0 {
            format!("{:>5.1}%", 100.0 * node.total_ns as f64 / parent_ns as f64)
        } else {
            // The synthetic root records no time of its own.
            "     —".to_string()
        };
        println!(
            "{:indent$}{:<28} {:>6}x {:>10.3} ms  {pct}",
            "",
            node.name,
            node.count,
            node.total_ns as f64 / 1e6,
            indent = (depth - 1) * 2,
        );
    }
    let base = if depth == 0 { 0 } else { node.total_ns };
    for c in &node.children {
        render_span(c, depth + 1, base);
    }
}

/// Per-phase breakdown of check + fix + generate on the medium workload,
/// sourced from the observability span tree (the same spans that populate
/// `CheckReport::t_*`, `FixPlan::phases` and `--metrics-out`).
fn spans() {
    println!("\n## Span breakdown — medium workload (one engine run per primitive)\n");
    let net = wan(NetSize::Medium);
    let runs: Vec<(&str, jinjing_core::Task)> = vec![
        ("check", checkfix_scenario(&net, 0.03, Command::Check).task),
        ("fix", checkfix_scenario(&net, 0.03, Command::Fix).task),
        ("generate", migration_task(&net)),
    ];
    for (label, task) in runs {
        let cfg = EngineConfig::default();
        let report = engine_run(&net.net, &task, &cfg).expect(label);
        println!("### {label}\n");
        println!(
            "{:<30} {:>7} {:>13}  {:>6}",
            "span", "count", "total", "of parent"
        );
        render_span(&report.obs.spans, 0, 0);
        let snap = &report.obs;
        if let Some(h) = snap.histogram("solver.decisions") {
            println!(
                "\nsolver: {} queries; decisions p50/p90/p99 = {}/{}/{}, conflicts total = {}",
                snap.counter("solver.queries"),
                h.p50,
                h.p90,
                h.p99,
                snap.histogram("solver.conflicts").map_or(0, |h| h.sum),
            );
        }
        println!();
    }
}

/// Whole-config static analysis throughput on the preset WANs, with and
/// without CDCL confirmation of full-shadow findings.
fn lint() {
    use jinjing_core::engine::ReportKind;
    println!("\n## Static analysis — whole-config lint on the preset WANs\n");
    println!(
        "| network | slots | rules | heuristic ms | +solver ms | diagnostics | solver-confirmed |"
    );
    println!(
        "|---------|-------|-------|--------------|------------|-------------|------------------|"
    );
    for size in NetSize::ALL {
        let net = wan(size);
        let slots = net.config.slots().len();
        let rules: usize = net
            .config
            .slots()
            .iter()
            .filter_map(|&s| net.config.get(s))
            .map(|a| a.rules().len())
            .sum();
        let heuristic_cfg = jinjing_lint::LintConfig {
            solver_confirm: false,
            ..jinjing_lint::LintConfig::default()
        };
        let (th, _) =
            timed(|| jinjing_core::engine::lint(&net.net, &net.config, None, &heuristic_cfg));
        let solver_cfg = jinjing_lint::LintConfig::default();
        let (ts, report) =
            timed(|| jinjing_core::engine::lint(&net.net, &net.config, None, &solver_cfg));
        let ReportKind::Lint(r) = &report.kind else {
            unreachable!("engine::lint returns a lint report")
        };
        println!(
            "| {} | {:>5} | {:>5} | {:>12} | {:>10} | {:>11} | {:>16} |",
            size.label(),
            slots,
            rules,
            ms(th),
            ms(ts),
            r.len(),
            report.obs.counter("lint.solver_confirmed"),
        );
    }

    println!("\n## Cross-tenant lint — 4 seeded tenants, 6 controls each (seed 7)\n");
    println!(
        "| network | stmt pairs | conflicts | certified | resolved | unresolved | wall ms |"
    );
    println!(
        "|---------|------------|-----------|-----------|----------|------------|---------|"
    );
    for size in NetSize::ALL {
        let net = wan(size);
        let tenants: Vec<jinjing_lint::TenantIntent> =
            jinjing_wan::multi_tenant_intents(&net, 4, 6, 7)
                .into_iter()
                .map(|(name, program)| jinjing_lint::TenantIntent::new(name, program))
                .collect();
        // Rank the first two tenants so the preview has both resolved and
        // unresolved contests to report.
        let priority: Vec<String> = tenants.iter().take(2).map(|t| t.tenant.clone()).collect();
        let timing_cfg = jinjing_lint::LintConfig::default();
        let (t, _) = timed(|| jinjing_lint::lint_multi(&tenants, &priority, &timing_cfg));
        // Fresh collector for the counters: `timed` may rerun its closure,
        // which would multiply them.
        let cfg = jinjing_lint::LintConfig::default();
        let mut report = jinjing_lint::lint_multi(&tenants, &priority, &cfg);
        report.sort();
        let snap = cfg.obs.snapshot();
        println!(
            "| {} | {:>10} | {:>9} | {:>9} | {:>8} | {:>10} | {:>7} |",
            size.label(),
            snap.counter("lint.multi.stmt_pairs"),
            snap.counter("lint.multi.conflicts"),
            snap.counter("lint.multi.certified"),
            snap.counter("lint.multi.resolved"),
            snap.counter("lint.multi.unresolved"),
            ms(t),
        );
    }
}

/// Everything in a check report except wall-clock durations. The scaling
/// table asserts this rendering is byte-identical across every (threads,
/// cache-temperature) cell — the same contract `tests/par_determinism.rs`
/// pins on the running example, here enforced on the synthetic WANs.
fn canon_check(r: &CheckReport) -> String {
    format!(
        "outcome={:?} fec={} paths={} stats={:?} encoded={} total={}",
        r.outcome, r.fec_count, r.paths_checked, r.solver_stats, r.encoded_rules, r.total_rules
    )
}

/// One measured cell of the scaling table.
struct ParRun {
    threads: usize,
    cold: Duration,
    warm: Duration,
    cold_hits: u64,
    cold_misses: u64,
    warm_hits: u64,
    warm_misses: u64,
    /// Cold-run span totals in ns: `check.preprocess`, `check.refine`,
    /// `check.paths`, `check.solve` — the encode-vs-solve split that
    /// explains the scaling curve (only the solve stage fans out).
    stage_ns: [u64; 4],
}

/// Total ns recorded under spans named `name`, summed over the tree.
fn span_sum(node: &jinjing_obs::SpanSnapshot, name: &str) -> u64 {
    let own = if node.name == name { node.total_ns } else { 0 };
    own + node.children.iter().map(|c| span_sum(c, name)).sum::<u64>()
}

/// The four check stages of one run's span tree, in table order.
fn stage_split(snap: &jinjing_obs::Snapshot) -> [u64; 4] {
    ["check.preprocess", "check.refine", "check.paths", "check.solve"]
        .map(|n| span_sum(&snap.spans, n))
}

fn hit_rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Serialize the small-WAN scaling runs as `BENCH_check.json`.
///
/// The writer is jinjing-obs's hand-rolled serializer; keys are emitted in
/// sorted order within every object, so two runs of the same build differ
/// only in the `wall_ms` / speedup numbers — the shape is byte-stable and
/// strict-JSON (CI parses it back with `python3 -m json.tool` offline and
/// serde_json online).
fn bench_json(network: &str, report: &CheckReport, runs: &[ParRun]) -> String {
    let mut w = jinjing_obs::json::JsonWriter::new();
    let wall = |d: Duration| (d.as_secs_f64() * 1e6).round() / 1e3; // µs-rounded ms
    w.begin_object();
    w.key("benchmark");
    w.string("check");
    w.key("fec_count");
    w.u64(report.fec_count as u64);
    w.key("network");
    w.string(network);
    w.key("outcome");
    w.string(if report.outcome.is_consistent() {
        "consistent"
    } else {
        "inconsistent"
    });
    w.key("paths_checked");
    w.u64(report.paths_checked as u64);
    w.key("perturbation");
    w.f64(0.03);
    w.key("runs");
    w.begin_array();
    let serial = runs.first().map_or(Duration::ZERO, |r| r.cold);
    for r in runs {
        w.begin_object();
        for (label, wall_ms, hits, misses) in [
            ("cold", wall(r.cold), r.cold_hits, r.cold_misses),
            ("warm", wall(r.warm), r.warm_hits, r.warm_misses),
        ] {
            w.key(label);
            w.begin_object();
            w.key("cache_hit_rate");
            w.f64((hit_rate(hits, misses) * 1e4).round() / 1e4);
            w.key("cache_hits");
            w.u64(hits);
            w.key("cache_misses");
            w.u64(misses);
            w.key("wall_ms");
            w.f64(wall_ms);
            w.end_object();
        }
        w.key("speedup_vs_serial");
        w.f64((serial.as_secs_f64() / r.cold.as_secs_f64().max(1e-9) * 100.0).round() / 100.0);
        w.key("stages");
        w.begin_object();
        let stage_ms = |ns: u64| (ns as f64 / 1e3).round() / 1e3; // µs-rounded ms
        w.key("paths_ms");
        w.f64(stage_ms(r.stage_ns[2]));
        w.key("preprocess_ms");
        w.f64(stage_ms(r.stage_ns[0]));
        w.key("refine_ms");
        w.f64(stage_ms(r.stage_ns[1]));
        w.key("solve_ms");
        w.f64(stage_ms(r.stage_ns[3]));
        w.end_object();
        w.key("threads");
        w.u64(r.threads as u64);
        w.end_object();
    }
    w.end_array();
    w.key("total_rules");
    w.u64(report.total_rules as u64);
    w.end_object();
    let mut json = w.finish();
    json.push('\n');
    json
}

/// Thread-scaling of the parallel check engine plus query-cache behaviour.
///
/// Each preset WAN runs the same 3% perturbation check at 1/2/4/8 worker
/// threads: once against a fresh query cache (*cold* — this is the honest
/// scaling number) and once more against the now-populated cache (*warm* —
/// every stage-1 query replays from the cache). The canonical report must
/// be byte-identical across all cells; only the wall clock may move.
fn par(include_large: bool, small_only: bool, bench_out: Option<&str>) {
    const THREADS: [usize; 4] = [1, 2, 4, 8];
    println!("\n## Parallel scaling — check at 3% perturbation, 1/2/4/8 threads\n");
    println!("| network | threads | cold ms | speedup | warm ms | cold hit rate | warm hit rate |");
    println!("|---------|---------|---------|---------|---------|---------------|---------------|");
    let mut sizes = vec![NetSize::Small];
    if !small_only {
        sizes.push(NetSize::Medium);
        if include_large {
            sizes.push(NetSize::Large);
        }
    }
    for size in sizes {
        let net = wan(size);
        let sc = checkfix_scenario(&net, 0.03, Command::Check);
        let mut baseline: Option<String> = None;
        let mut runs: Vec<ParRun> = Vec::new();
        let mut last_report: Option<CheckReport> = None;
        for threads in THREADS {
            // Cold: a fresh cache per invocation so `timed`'s median-of-3
            // never accidentally measures a warmed run. The cache (and the
            // counters) of the *last* invocation survive for the warm pass.
            let mut kept: Option<(Arc<QueryCache>, u64, u64, [u64; 4])> = None;
            let (t_cold, r_cold) = timed(|| {
                let cache = Arc::new(QueryCache::new());
                let cfg = CheckConfig {
                    threads,
                    cache: Arc::clone(&cache),
                    ..CheckConfig::default()
                };
                let r = check(&net.net, &sc.task, &cfg).expect("check");
                kept = Some((
                    cache,
                    cfg.obs.counter_get("check.cache_hit"),
                    cfg.obs.counter_get("check.cache_miss"),
                    stage_split(&cfg.obs.snapshot()),
                ));
                r
            });
            let (cache, cold_hits, cold_misses, stage_ns) = kept.expect("timed ran at least once");
            // Warm: replay against the populated cache. Counters accumulate
            // per config, so give each invocation a fresh collector and keep
            // the last one's totals.
            let mut warm_counts = (0u64, 0u64);
            let (t_warm, r_warm) = timed(|| {
                let cfg = CheckConfig {
                    threads,
                    cache: Arc::clone(&cache),
                    ..CheckConfig::default()
                };
                let r = check(&net.net, &sc.task, &cfg).expect("check");
                warm_counts = (
                    cfg.obs.counter_get("check.cache_hit"),
                    cfg.obs.counter_get("check.cache_miss"),
                );
                r
            });
            let canon = canon_check(&r_cold);
            assert_eq!(
                canon,
                canon_check(&r_warm),
                "{}: cache replay diverged at {threads} threads",
                size.label()
            );
            match &baseline {
                None => baseline = Some(canon),
                Some(b) => assert_eq!(
                    &canon,
                    b,
                    "{}: report diverged at {threads} threads",
                    size.label()
                ),
            }
            runs.push(ParRun {
                threads,
                cold: t_cold,
                warm: t_warm,
                cold_hits,
                cold_misses,
                warm_hits: warm_counts.0,
                warm_misses: warm_counts.1,
                stage_ns,
            });
            last_report = Some(r_cold);
        }
        let serial = runs[0].cold;
        for r in &runs {
            println!(
                "| {} | {:>7} | {:>7} | {:>6.2}x | {:>7} | {:>12.1}% | {:>12.1}% |",
                size.label(),
                r.threads,
                ms(r.cold),
                serial.as_secs_f64() / r.cold.as_secs_f64().max(1e-9),
                ms(r.warm),
                100.0 * hit_rate(r.cold_hits, r.cold_misses),
                100.0 * hit_rate(r.warm_hits, r.warm_misses),
            );
        }
        // Per-stage split of the cold runs: only the solve stage fans out
        // across workers, so the solve share bounds the achievable speedup
        // (Amdahl) — this is where a sub-1x `speedup_vs_serial` comes from.
        println!("\nper-stage split (cold runs, span totals):\n");
        println!("| network | threads | preprocess ms | refine ms | paths ms | solve ms | solve share |");
        println!("|---------|---------|---------------|-----------|----------|----------|-------------|");
        for r in &runs {
            let total: u64 = r.stage_ns.iter().sum();
            println!(
                "| {} | {:>7} | {:>13.1} | {:>9.1} | {:>8.1} | {:>8.1} | {:>10.1}% |",
                size.label(),
                r.threads,
                r.stage_ns[0] as f64 / 1e6,
                r.stage_ns[1] as f64 / 1e6,
                r.stage_ns[2] as f64 / 1e6,
                r.stage_ns[3] as f64 / 1e6,
                100.0 * r.stage_ns[3] as f64 / (total as f64).max(1.0),
            );
        }
        println!();
        if size == NetSize::Small {
            if let Some(path) = bench_out {
                let report = last_report.expect("at least one run");
                let json = bench_json(size.label(), &report, &runs);
                std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
                println!("\n(wrote {path})");
            }
        }
    }
    if small_only {
        println!("\n(medium/large omitted — drop --small, add --large)");
    } else if !include_large {
        println!("\n(large omitted — run with --large)");
    }
}

/// Aggregates of one incremental replay (one WAN size).
struct IncrRun {
    steps: usize,
    applied: usize,
    class_count: usize,
    total_pairs: usize,
    dirty_pairs_total: usize,
    dirty_pairs_max: usize,
    dirty_classes_total: usize,
    cold: Duration,
    warm: Duration,
}

/// Serialize the small-WAN incremental replay as `BENCH_incr.json`
/// (sorted keys, strict JSON, byte-stable shape — see [`bench_json`]).
fn incr_json(network: &str, r: &IncrRun) -> String {
    let mut w = jinjing_obs::json::JsonWriter::new();
    let wall = |d: Duration| (d.as_secs_f64() * 1e6).round() / 1e3; // µs-rounded ms
    w.begin_object();
    w.key("applied");
    w.u64(r.applied as u64);
    w.key("benchmark");
    w.string("incr");
    w.key("class_count");
    w.u64(r.class_count as u64);
    w.key("cold_wall_ms");
    w.f64(wall(r.cold));
    w.key("dirty_classes_total");
    w.u64(r.dirty_classes_total as u64);
    w.key("dirty_pairs_max");
    w.u64(r.dirty_pairs_max as u64);
    w.key("dirty_pairs_total");
    w.u64(r.dirty_pairs_total as u64);
    w.key("incr_wall_ms");
    w.f64(wall(r.warm));
    w.key("network");
    w.string(network);
    // The full per-step workload a cold check considers before Theorem 4.1
    // pruning: `dirty ≪ pairs_ceiling` is the point of the session engine.
    w.key("pairs_ceiling_total");
    w.u64((r.steps * r.total_pairs) as u64);
    w.key("perturbation");
    w.f64(0.03);
    w.key("rejected");
    w.u64((r.steps - r.applied) as u64);
    w.key("speedup");
    w.f64((r.cold.as_secs_f64() / r.warm.as_secs_f64().max(1e-9) * 100.0).round() / 100.0);
    w.key("steps");
    w.u64(r.steps as u64);
    w.key("total_pairs");
    w.u64(r.total_pairs as u64);
    w.end_object();
    let mut json = w.finish();
    json.push('\n');
    json
}

/// Decompose a before→after perturbation into single-slot deltas, in
/// deterministic (sorted-slot) order — the edit stream an operator would
/// deploy change by change.
fn per_slot_deltas(before: &jinjing_net::AclConfig, after: &jinjing_net::AclConfig) -> Vec<Delta> {
    let mut slots = before.slots();
    slots.extend(after.slots());
    slots.sort();
    slots.dedup();
    let mut deltas = Vec::new();
    for slot in slots {
        match (before.get(slot), after.get(slot)) {
            (b, a) if b == a => {}
            (_, Some(a)) => deltas.push(Delta::new().set(slot, a.clone())),
            (_, None) => deltas.push(Delta::new().clear(slot)),
        }
    }
    deltas
}

/// Incremental re-check vs per-step cold checks on the preset WANs: the
/// 3% perturbation replayed one slot at a time through a persistent
/// [`CheckSession`]. Every step's session report is asserted byte-identical
/// to the cold check of the same before/after pair (the
/// `tests/incr_oracle.rs` contract, enforced here on the synthetic WANs),
/// so the table only ever shows a wall-clock difference.
fn incr(small_only: bool, bench_out: Option<&str>) {
    println!("\n## Incremental re-check — 3% perturbation as a per-slot edit stream\n");
    println!("| network | steps | applied | classes | pairs/step | dirty pairs (max) | cold ms | incr ms | speedup |");
    println!("|---------|-------|---------|---------|------------|-------------------|---------|---------|---------|");
    let mut sizes = vec![NetSize::Small];
    if !small_only {
        sizes.push(NetSize::Medium);
    }
    for size in sizes {
        let net = wan(size);
        let sc = checkfix_scenario(&net, 0.03, Command::Check);
        let deltas = per_slot_deltas(&sc.task.before, &sc.task.after);

        // Cold baseline: a fresh default config (fresh cache) per step,
        // base advancing exactly as the session's default policy does.
        let mut cold_canons = Vec::with_capacity(deltas.len());
        let mut base = sc.task.before.clone();
        let t = Instant::now();
        for delta in &deltas {
            let after = delta.applied_to(&base);
            let r = check_configs(
                &net.net,
                &sc.task.scope,
                &base,
                &after,
                &sc.task.controls,
                &CheckConfig::default(),
            )
            .expect("cold check");
            if r.outcome.is_consistent() {
                base = after;
            }
            cold_canons.push(canon_check(&r));
        }
        let cold = t.elapsed();

        // Incremental: one persistent session over the same stream.
        let mut session = CheckSession::with_configs(
            &net.net,
            sc.task.scope.clone(),
            sc.task.controls.clone(),
            sc.task.before.clone(),
            CheckConfig::default(),
            IncrConfig::default(),
        )
        .expect("session opens");
        let total_pairs = session.total_pairs();
        let mut run = IncrRun {
            steps: deltas.len(),
            applied: 0,
            class_count: session.class_count(),
            total_pairs,
            dirty_pairs_total: 0,
            dirty_pairs_max: 0,
            dirty_classes_total: 0,
            cold,
            warm: Duration::ZERO,
        };
        let t = Instant::now();
        for (i, delta) in deltas.iter().enumerate() {
            let r = session.recheck(delta).expect("recheck");
            assert_eq!(
                canon_check(&r.report),
                cold_canons[i],
                "{}: session step {i} diverged from the cold check",
                size.label()
            );
            if r.applied {
                run.applied += 1;
            }
            run.dirty_pairs_total += r.incr.dirty_pairs;
            run.dirty_pairs_max = run.dirty_pairs_max.max(r.incr.dirty_pairs);
            run.dirty_classes_total += r.incr.dirty_classes;
        }
        run.warm = t.elapsed();
        assert_eq!(session.base(), &base, "bases converge across the stream");
        println!(
            "| {} | {:>5} | {:>7} | {:>7} | {:>10} | {:>11} ({:>3}) | {:>7} | {:>7} | {:>6.2}x |",
            size.label(),
            run.steps,
            run.applied,
            run.class_count,
            run.total_pairs,
            run.dirty_pairs_total,
            run.dirty_pairs_max,
            ms(run.cold),
            ms(run.warm),
            run.cold.as_secs_f64() / run.warm.as_secs_f64().max(1e-9),
        );
        if size == NetSize::Small {
            if let Some(path) = bench_out {
                let json = incr_json(size.label(), &run);
                std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
                println!("\n(wrote {path})");
            }
        }
    }
    if small_only {
        println!("\n(medium omitted — drop --small)");
    }
}

/// Aggregates of one daemon load run.
struct ServeRun {
    clients: usize,
    requests: usize,
    workers: usize,
    bodies_identical: bool,
    shed: u64,
    p50_us: u64,
    p90_us: u64,
    p99_us: u64,
    /// p99 of the flight-recorder pass (`X-Jinjing-Trace: 1` requests);
    /// the tracing overhead budget is judged against `p99_us`.
    p99_traced_us: u64,
    /// How many requests ran with the recorder armed.
    traced_requests: usize,
    throughput_rps: f64,
    session_delta_us: u64,
}

/// `p` in [0,1] over an ascending-sorted slice.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Serialize the daemon load run as `BENCH_serve.json` (sorted keys,
/// strict JSON — see [`incr_json`]). Latencies are machine-dependent;
/// the shape and the `bodies_identical` invariant are not.
fn serve_json(r: &ServeRun) -> String {
    let mut w = jinjing_obs::json::JsonWriter::new();
    w.begin_object();
    w.key("benchmark");
    w.string("serve");
    w.key("bodies_identical");
    w.bool(r.bodies_identical);
    w.key("clients");
    w.u64(r.clients as u64);
    w.key("network");
    w.string("figure1");
    w.key("p50_us");
    w.u64(r.p50_us);
    w.key("p90_us");
    w.u64(r.p90_us);
    w.key("p99_traced_us");
    w.u64(r.p99_traced_us);
    w.key("p99_us");
    w.u64(r.p99_us);
    w.key("requests");
    w.u64(r.requests as u64);
    w.key("session_delta_us");
    w.u64(r.session_delta_us);
    w.key("shed");
    w.u64(r.shed);
    w.key("throughput_rps");
    w.f64((r.throughput_rps * 100.0).round() / 100.0);
    w.key("traced_requests");
    w.u64(r.traced_requests as u64);
    w.key("workers");
    w.u64(r.workers as u64);
    w.end_object();
    let mut json = w.finish();
    json.push('\n');
    json
}

/// Daemon throughput on the Figure 1 running example: K concurrent
/// loopback clients firing `POST /v1/check`, every response asserted
/// byte-identical (the serving contract under concurrency), plus one
/// session open→delta→delete round. `--bench-out` writes
/// `BENCH_serve.json`.
fn serve_bench(bench_out: Option<&str>) {
    use jinjing_serve::{client, ServeConfig, Server};

    const INTENT: &str = "\
acl PermitAll { permit all }
scope A:*, B:*, C:*, D:*
allow A:*, B:*
modify D:2 to PermitAll
check
";
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 25;
    const WORKERS: usize = 4;

    println!("\n## Daemon throughput — concurrent /v1/check on the running example\n");
    let f = jinjing_core::figure1::Figure1::new();
    let cfg = ServeConfig {
        workers: WORKERS,
        queue: 256,
        deadline_ms: 60_000,
        ..ServeConfig::default()
    };
    let srv = Server::bind(f.net, f.config, cfg).expect("bind");
    let addr = srv.local_addr().expect("addr").to_string();
    let handle = std::thread::spawn(move || srv.run().expect("serve"));

    // The reference bytes every response must equal.
    let f2 = jinjing_core::figure1::Figure1::new();
    let want =
        jinjing_core::query::run_query(&f2.net, &f2.config, INTENT, &EngineConfig::default())
            .expect("reference run")
            .plan
            .to_canonical_json();

    let t = Instant::now();
    let mut all_latencies: Vec<u64> = Vec::new();
    let mut bodies_identical = true;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let addr = &addr;
                let want = &want;
                s.spawn(move || {
                    let mut lat = Vec::with_capacity(PER_CLIENT);
                    let mut ok = true;
                    for _ in 0..PER_CLIENT {
                        let t = Instant::now();
                        let r = client::call(
                            addr,
                            "POST",
                            "/v1/check",
                            &[],
                            INTENT.as_bytes(),
                            Duration::from_secs(60),
                        )
                        .expect("call");
                        lat.push(t.elapsed().as_micros() as u64);
                        ok &= r.status == 200 && r.body_text() == *want;
                    }
                    (lat, ok)
                })
            })
            .collect();
        for h in handles {
            let (lat, ok) = h.join().expect("client thread");
            all_latencies.extend(lat);
            bodies_identical &= ok;
        }
    });
    let wall = t.elapsed();
    assert!(
        bodies_identical,
        "a daemon response diverged from the CLI bytes"
    );

    // Traced pass: the same request with the flight recorder armed. The
    // bytes must not move; only the side-channel capture (and a little
    // latency, budgeted in scripts/perf_gate.py) may.
    const TRACED: usize = 25;
    let trace_header = [("X-Jinjing-Trace".to_string(), "1".to_string())];
    let mut traced_latencies: Vec<u64> = Vec::with_capacity(TRACED);
    let mut trace_id = String::new();
    for _ in 0..TRACED {
        let t = Instant::now();
        let r = client::call(
            &addr,
            "POST",
            "/v1/check",
            &trace_header,
            INTENT.as_bytes(),
            Duration::from_secs(60),
        )
        .expect("traced call");
        traced_latencies.push(t.elapsed().as_micros() as u64);
        assert_eq!(r.status, 200);
        assert_eq!(
            r.body_text(),
            want,
            "a traced response diverged from the CLI bytes"
        );
        trace_id = r.header("x-jinjing-trace-id").expect("trace id").to_string();
    }
    let r = client::call(
        &addr,
        "GET",
        &format!("/v1/trace/{trace_id}"),
        &[],
        b"",
        Duration::from_secs(60),
    )
    .expect("trace fetch");
    assert_eq!(r.status, 200, "{}", r.body_text());
    assert!(
        r.body_text().contains("\"traceEvents\""),
        "trace body is not Chrome trace_event JSON"
    );

    // One session round: open → delta batch → delete.
    let t = Instant::now();
    let r = client::call(
        &addr,
        "POST",
        "/v1/sessions",
        &[],
        INTENT.as_bytes(),
        Duration::from_secs(60),
    )
    .expect("session open");
    assert_eq!(r.status, 200, "{}", r.body_text());
    let id = r
        .body_text()
        .split("\"id\":\"")
        .nth(1)
        .and_then(|s| s.split('"').next().map(str::to_string))
        .expect("session id");
    let r = client::call(
        &addr,
        "POST",
        &format!("/v1/sessions/{id}/delta"),
        &[],
        b"step tighten\nset D:2 deny dst 2.0.0.0/8; deny dst 1.0.0.0/8\n",
        Duration::from_secs(60),
    )
    .expect("session delta");
    assert_eq!(r.status, 200, "{}", r.body_text());
    let session_delta_us = t.elapsed().as_micros() as u64;
    client::call(
        &addr,
        "DELETE",
        &format!("/v1/sessions/{id}"),
        &[],
        b"",
        Duration::from_secs(60),
    )
    .expect("session delete");

    client::call(
        &addr,
        "POST",
        "/v1/shutdown",
        &[],
        b"",
        Duration::from_secs(60),
    )
    .expect("shutdown");
    let summary = handle.join().expect("daemon thread");

    all_latencies.sort_unstable();
    traced_latencies.sort_unstable();
    let run = ServeRun {
        clients: CLIENTS,
        requests: CLIENTS * PER_CLIENT,
        workers: WORKERS,
        bodies_identical,
        shed: summary.shed,
        p50_us: percentile(&all_latencies, 0.50),
        p90_us: percentile(&all_latencies, 0.90),
        p99_us: percentile(&all_latencies, 0.99),
        p99_traced_us: percentile(&traced_latencies, 0.99),
        traced_requests: TRACED,
        throughput_rps: (CLIENTS * PER_CLIENT) as f64 / wall.as_secs_f64().max(1e-9),
        session_delta_us,
    };
    println!("| clients | requests | workers | p50 µs | p90 µs | p99 µs | traced p99 µs | rps | shed |");
    println!("|---------|----------|---------|--------|--------|--------|---------------|-----|------|");
    println!(
        "| {} | {} | {} | {} | {} | {} | {} | {:.1} | {} |",
        run.clients,
        run.requests,
        run.workers,
        run.p50_us,
        run.p90_us,
        run.p99_us,
        run.p99_traced_us,
        run.throughput_rps,
        run.shed,
    );
    if let Some(path) = bench_out {
        let json = serve_json(&run);
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("\n(wrote {path})");
    }
}

/// Flight-recorder smoke: run the Figure 1 check with the recorder armed
/// (4-wide), assert the plan bytes match an untraced run, print the span
/// summary, and dump the Chrome `trace_event` JSON to `--trace-out`.
fn trace_dump(out_path: Option<&str>) {
    const INTENT: &str = "\
acl PermitAll { permit all }
scope A:*, B:*, C:*, D:*
allow A:*, B:*
modify D:2 to PermitAll
check
";
    println!("\n## Flight recorder — Figure 1 check capture\n");
    let f = jinjing_core::figure1::Figure1::new();
    let plain =
        jinjing_core::query::run_query(&f.net, &f.config, INTENT, &EngineConfig::default())
            .expect("reference run")
            .plan
            .to_canonical_json();
    let cfg = EngineConfig {
        threads: 4,
        ..EngineConfig::default()
    };
    let tctx = jinjing_obs::TraceCtx::new(&jinjing_obs::trace_id_of(INTENT));
    cfg.obs.attach_trace_ctx(tctx.clone());
    let traced = jinjing_core::query::run_query(&f.net, &f.config, INTENT, &cfg)
        .expect("traced run")
        .plan
        .to_canonical_json();
    assert_eq!(plain, traced, "tracing must not perturb the plan bytes");
    print!("{}", tctx.summary());
    if let Some(path) = out_path {
        std::fs::write(path, tctx.to_chrome_json())
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("\n(wrote {path})");
    }
}

/// Aggregates of one planner run (one rollout scenario).
struct PlanRun {
    kind: &'static str,
    feasible: bool,
    steps: usize,
    waves: usize,
    certificates: usize,
    core: usize,
    prefix_attempts: usize,
    prefix_checks: usize,
    pruned_witness: usize,
    pruned_memo: usize,
    dirty_pairs: usize,
    pairs_ceiling: usize,
    wall: Duration,
}

/// Serialize the planner bench as `BENCH_plan.json` (sorted keys, strict
/// JSON, byte-stable shape — see [`bench_json`]). `plan_wall_ms` is the
/// perf-gate headline; `dirty_pairs_total` vs `pairs_ceiling_total` is
/// the session-probe pruning claim (every prefix state re-verified cold
/// would pay the full ceiling).
fn plan_json(network: &str, runs: &[PlanRun], wall: Duration) -> String {
    let mut w = jinjing_obs::json::JsonWriter::new();
    let wall_ms = |d: Duration| (d.as_secs_f64() * 1e6).round() / 1e3; // µs-rounded ms
    let sum = |f: fn(&PlanRun) -> usize| runs.iter().map(f).sum::<usize>() as u64;
    w.begin_object();
    w.key("benchmark");
    w.string("plan");
    w.key("certificates");
    w.u64(sum(|r| r.certificates));
    w.key("dirty_pairs_total");
    w.u64(sum(|r| r.dirty_pairs));
    w.key("network");
    w.string(network);
    w.key("pairs_ceiling_total");
    w.u64(sum(|r| r.pairs_ceiling));
    w.key("plan_wall_ms");
    w.f64(wall_ms(wall));
    w.key("prefix_attempts_total");
    w.u64(sum(|r| r.prefix_attempts));
    w.key("prefix_checks_total");
    w.u64(sum(|r| r.prefix_checks));
    w.key("pruned_total");
    w.u64(sum(|r| r.pruned_witness + r.pruned_memo));
    w.key("scenarios");
    w.begin_array();
    for r in runs {
        w.begin_object();
        w.key("certificates");
        w.u64(r.certificates as u64);
        w.key("core");
        w.u64(r.core as u64);
        w.key("dirty_pairs");
        w.u64(r.dirty_pairs as u64);
        w.key("feasible");
        w.bool(r.feasible);
        w.key("kind");
        w.string(r.kind);
        w.key("pairs_ceiling");
        w.u64(r.pairs_ceiling as u64);
        w.key("prefix_attempts");
        w.u64(r.prefix_attempts as u64);
        w.key("prefix_checks");
        w.u64(r.prefix_checks as u64);
        w.key("pruned_memo");
        w.u64(r.pruned_memo as u64);
        w.key("pruned_witness");
        w.u64(r.pruned_witness as u64);
        w.key("steps");
        w.u64(r.steps as u64);
        w.key("wall_ms");
        w.f64(wall_ms(r.wall));
        w.key("waves");
        w.u64(r.waves as u64);
        w.end_object();
    }
    w.end_array();
    w.key("steps");
    w.u64(sum(|r| r.steps));
    w.key("waves");
    w.u64(sum(|r| r.waves));
    w.end_object();
    let mut json = w.finish();
    json.push('\n');
    json
}

/// Rollout planning over the seeded update campaigns: synthesize a
/// certified plan for each [`RolloutKind`] on the small WAN, assert the
/// rendered plan bytes are thread-count-independent, and tabulate the
/// search effort (prefix states probed vs attempts pruned by witnesses
/// and the dead-set memo). `--bench-out` writes `BENCH_plan.json`.
fn plan_bench(bench_out: Option<&str>) {
    use jinjing_core::plan::{synthesize, PlanConfig, PlanOutcome};
    use jinjing_wan::{rollout_scenario, RolloutKind};
    println!("\n## Rollout planner — certified waves over the update campaigns\n");
    println!("| scenario | steps | waves | verdict | probes/attempts | pruned | dirty pairs | ceiling | wall ms |");
    println!("|----------|-------|-------|---------|-----------------|--------|-------------|---------|---------|");
    let mut runs = Vec::new();
    let t_all = Instant::now();
    for kind in RolloutKind::ALL {
        let sc = rollout_scenario(NetSize::Small, kind, 17);
        let synth = |threads: usize| {
            let cfg = CheckConfig {
                threads,
                ..CheckConfig::default()
            };
            synthesize(
                &sc.wan.net,
                &sc.wan.scope(),
                &sc.controls,
                &sc.base,
                &sc.target,
                &cfg,
                &PlanConfig::default(),
            )
            .expect("plan")
        };
        let (wall, rp) = timed(|| synth(1));
        let wide = synth(4);
        assert_eq!(
            jinjing_core::query::render_rollout_json(&sc.wan.net, &rp),
            jinjing_core::query::render_rollout_json(&sc.wan.net, &wide),
            "{}: plan bytes diverged at 4 threads",
            kind.label()
        );
        assert_eq!(
            sc.feasible,
            matches!(rp.outcome, PlanOutcome::Feasible { .. }),
            "{}: unexpected verdict",
            kind.label()
        );
        let (waves, certificates, core) = match &rp.outcome {
            PlanOutcome::Feasible {
                waves,
                certificates,
            } => (waves.len(), certificates.len(), 0),
            PlanOutcome::Infeasible { core } => (0, 0, core.len()),
        };
        let run = PlanRun {
            kind: kind.label(),
            feasible: sc.feasible,
            steps: rp.steps.len(),
            waves,
            certificates,
            core,
            prefix_attempts: rp.stats.prefix_attempts,
            prefix_checks: rp.stats.prefix_checks,
            pruned_witness: rp.stats.pruned_witness,
            pruned_memo: rp.stats.pruned_memo,
            dirty_pairs: rp.stats.dirty_pairs,
            pairs_ceiling: rp.stats.pairs_ceiling,
            wall,
        };
        println!(
            "| {} | {:>5} | {:>5} | {} | {:>6}/{:>6} | {:>6} | {:>11} | {:>7} | {:>7} |",
            run.kind,
            run.steps,
            run.waves,
            rp.verdict(),
            run.prefix_checks,
            run.prefix_attempts,
            run.pruned_witness + run.pruned_memo,
            run.dirty_pairs,
            run.pairs_ceiling,
            ms(run.wall),
        );
        runs.push(run);
    }
    let wall = t_all.elapsed();
    if let Some(path) = bench_out {
        let json = plan_json(NetSize::Small.label(), &runs, wall);
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("\n(wrote {path})");
    }
}

/// One fan-out width of the shard partition table: per-shard dirty-pair
/// counts, solver-query counts, and walls.
struct ShardRow {
    shards: usize,
    dirty_pairs: Vec<usize>,
    queries: Vec<u64>,
    walls: Vec<Duration>,
}

/// Serialize the shard partition table as `BENCH_shard.json` (sorted
/// keys, strict JSON — see [`incr_json`]). `shard_wall_ms` — the perf
/// gate's metric — is the slowest shard's wall at width 4: the modeled
/// parallel wall with four backends. The partition counts are
/// machine-independent; the walls are not.
fn shard_json(
    network: &str,
    baseline_pairs: usize,
    baseline_queries: u64,
    baseline_wall: Duration,
    rows: &[ShardRow],
) -> String {
    let wall_ms = |d: Duration| (d.as_secs_f64() * 1e6).round() / 1e3; // µs-rounded ms
    let exact = rows.iter().all(|r| {
        r.dirty_pairs.iter().sum::<usize>() == baseline_pairs
            && r.queries.iter().sum::<u64>() == baseline_queries
    });
    let shard_wall = rows
        .iter()
        .find(|r| r.shards == 4)
        .or_else(|| rows.last())
        .map(|r| r.walls.iter().max().copied().unwrap_or_default())
        .unwrap_or_default();
    let mut w = jinjing_obs::json::JsonWriter::new();
    w.begin_object();
    w.key("baseline");
    w.begin_object();
    w.key("dirty_pairs");
    w.u64(baseline_pairs as u64);
    w.key("queries");
    w.u64(baseline_queries);
    w.key("wall_ms");
    w.f64(wall_ms(baseline_wall));
    w.end_object();
    w.key("benchmark");
    w.string("shard");
    w.key("network");
    w.string(network);
    w.key("partition_exact");
    w.bool(exact);
    w.key("shard_wall_ms");
    w.f64(wall_ms(shard_wall));
    w.key("widths");
    w.begin_array();
    for r in rows {
        w.begin_object();
        w.key("dirty_pairs_max");
        w.u64(r.dirty_pairs.iter().max().copied().unwrap_or(0) as u64);
        w.key("dirty_pairs_sum");
        w.u64(r.dirty_pairs.iter().sum::<usize>() as u64);
        w.key("queries_sum");
        w.u64(r.queries.iter().sum::<u64>());
        w.key("shards");
        w.u64(r.shards as u64);
        w.key("wall_ms_max");
        w.f64(wall_ms(r.walls.iter().max().copied().unwrap_or_default()));
        w.key("wall_ms_sum");
        w.f64(wall_ms(r.walls.iter().sum::<Duration>()));
        w.end_object();
    }
    w.end_array();
    w.end_object();
    let mut json = w.finish();
    json.push('\n');
    json
}

/// A full-scan *consistent* check workload: the perturbation scenario's
/// modified slots rewritten so each differs from `before` syntactically
/// (two adjacent same-action rules swapped — decision-preserving) but not
/// semantically. Consistency matters for the partition proof: an
/// inconsistent check short-circuits at its first violation, so a shard
/// that owns no violation scans *more* of its slice than the unsharded
/// run did and the per-shard sums would not reconcile. A consistent check
/// scans everything everywhere, making the sums exact.
fn shard_workload(net: &jinjing_wan::Wan) -> jinjing_core::Task {
    use jinjing_lai::Command;
    let sc = checkfix_scenario(net, 0.03, Command::Check);
    let mut task = sc.task;
    let mut after = task.before.clone();
    let mut modified = Vec::new();
    for &slot in &task.modified {
        let Some(acl) = task.before.get(slot) else {
            continue;
        };
        let mut rules = acl.rules().to_vec();
        let Some(i) = (1..rules.len()).find(|&i| rules[i - 1].action == rules[i].action) else {
            continue;
        };
        rules.swap(i - 1, i);
        after.set(slot, Acl::new(rules, acl.default_action()));
        modified.push(slot);
    }
    assert!(
        !modified.is_empty(),
        "no modified slot had two adjacent same-action rules to swap"
    );
    task.after = after;
    task.modified = modified;
    task
}

/// The class-space partition table behind `jinjing-shard`: run one
/// full-scan check unsharded, then split the same workload over 1/2/4/8
/// consistent-hash shards (each shard a separate [`CheckConfig`] carrying
/// a [`ShardSpec`], exactly what a backend daemon evaluates) and prove
/// the per-shard dirty-pair and solver-query counts sum to the baseline —
/// the "zero duplicated solver queries" certificate for the coordinator's
/// fan-out. `--bench-out` writes `BENCH_shard.json`.
fn shard_bench(bench_out: Option<&str>) {
    use jinjing_acl::shard::ShardSpec;
    println!("\n## Sharded check — consistent-hash partition of the class space (small WAN)\n");
    let net = wan(NetSize::Small);
    let task = shard_workload(&net);

    let run_one = |shard: Option<ShardSpec>| -> (CheckReport, u64, Duration) {
        let cfg = CheckConfig {
            shard,
            ..CheckConfig::default()
        };
        let t = Instant::now();
        let r = check(&net.net, &task, &cfg).expect("check");
        let wall = t.elapsed();
        assert!(
            r.outcome.is_consistent(),
            "the shard workload must be consistent (full scan)"
        );
        (r, cfg.obs.snapshot().counter("solver.queries"), wall)
    };

    let (base, base_queries, base_wall) = run_one(None);
    assert!(base.paths_checked > 0, "workload dirties no pairs");
    assert!(base_queries > 0, "workload asks no solver queries");
    println!(
        "baseline: {} dirty pairs, {} solver queries, {} FECs, {} ms\n",
        base.paths_checked,
        base_queries,
        base.fec_count,
        ms(base_wall)
    );
    println!("| shards | pairs sum | queries sum | max shard pairs | wall ms (max) | wall ms (sum) |");
    println!("|--------|-----------|-------------|-----------------|---------------|---------------|");

    let mut rows = Vec::new();
    for n in [1usize, 2, 4, 8] {
        let mut row = ShardRow {
            shards: n,
            dirty_pairs: Vec::with_capacity(n),
            queries: Vec::with_capacity(n),
            walls: Vec::with_capacity(n),
        };
        for i in 0..n {
            let (r, q, wall) = run_one(Some(ShardSpec::new(i, n)));
            row.dirty_pairs.push(r.paths_checked);
            row.queries.push(q);
            row.walls.push(wall);
        }
        let pairs_sum: usize = row.dirty_pairs.iter().sum();
        let queries_sum: u64 = row.queries.iter().sum();
        assert_eq!(
            pairs_sum, base.paths_checked,
            "{n} shards: dirty pairs were duplicated or dropped"
        );
        assert_eq!(
            queries_sum, base_queries,
            "{n} shards: solver queries were duplicated or dropped"
        );
        println!(
            "| {:>6} | {:>9} | {:>11} | {:>15} | {:>13} | {:>13} |",
            n,
            pairs_sum,
            queries_sum,
            row.dirty_pairs.iter().max().unwrap(),
            ms(row.walls.iter().max().copied().unwrap()),
            ms(row.walls.iter().sum::<Duration>()),
        );
        rows.push(row);
    }
    println!("\npartition exact at every width: zero duplicated solver queries");
    if let Some(path) = bench_out {
        let json = shard_json(
            NetSize::Small.label(),
            base.paths_checked,
            base_queries,
            base_wall,
            &rows,
        );
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("(wrote {path})");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let include_large = args.iter().any(|a| a == "--large");
    let small_only = args.iter().any(|a| a == "--small");
    let bench_out = args
        .iter()
        .position(|a| a == "--bench-out")
        .map(|i| args.get(i + 1).cloned().expect("--bench-out needs a path"));
    let wants = |name: &str| args.iter().any(|a| a == name) || args.iter().any(|a| a == "all");
    if args.is_empty() {
        eprintln!("usage: figures [fig4a] [fig4b] [fig4c] [fig4d] [table5] [depth] [spans] [lint] [par] [incr] [serve] [trace] [plan] [shard] [all] [--large] [--small] [--bench-out <path>] [--trace-out <path>]");
        std::process::exit(2);
    }
    println!("# Jinjing evaluation — regenerated tables");
    if wants("fig4a") {
        fig4a();
    }
    if wants("fig4b") {
        fig4b(include_large);
    }
    if wants("fig4c") {
        fig4c();
    }
    if wants("fig4d") {
        fig4d();
    }
    if wants("table5") {
        table5();
    }
    if wants("depth") {
        depth();
    }
    if wants("spans") {
        spans();
    }
    if wants("lint") {
        lint();
    }
    if wants("par") {
        par(include_large, small_only, bench_out.as_deref());
    }
    if wants("incr") {
        incr(small_only, bench_out.as_deref());
    }
    if wants("serve") {
        serve_bench(bench_out.as_deref());
    }
    if wants("plan") {
        plan_bench(bench_out.as_deref());
    }
    if wants("shard") {
        shard_bench(bench_out.as_deref());
    }
    if wants("trace") {
        let trace_out = args
            .iter()
            .position(|a| a == "--trace-out")
            .map(|i| args.get(i + 1).cloned().expect("--trace-out needs a path"));
        trace_dump(trace_out.as_deref());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jinjing_core::figure1::Figure1;
    use jinjing_core::Task;

    /// `BENCH_check.json` must parse under a real JSON parser, keep its
    /// sorted-key shape, and serialize byte-identically for the same input
    /// (CI diffs it across runs of the same build).
    #[test]
    fn bench_json_is_strict_and_stable() {
        let f = Figure1::new();
        let task = Task {
            scope: f.scope(),
            allow: Vec::new(),
            before: f.config.clone(),
            after: f.config.clone(),
            modified: Vec::new(),
            controls: Vec::new(),
            command: Command::Check,
        };
        let r = check(&f.net, &task, &CheckConfig::default()).expect("check");
        let runs = vec![
            ParRun {
                threads: 1,
                cold: Duration::from_millis(10),
                warm: Duration::from_millis(5),
                cold_hits: 0,
                cold_misses: 4,
                warm_hits: 4,
                warm_misses: 0,
                stage_ns: [2_000_000, 500_000, 1_500_000, 6_000_000],
            },
            ParRun {
                threads: 4,
                cold: Duration::from_millis(4),
                warm: Duration::from_millis(2),
                cold_hits: 1,
                cold_misses: 3,
                warm_hits: 4,
                warm_misses: 0,
                stage_ns: [2_000_000, 500_000, 1_500_000, 6_000_000],
            },
        ];
        let json = bench_json("small", &r, &runs);
        let v: serde_json::Value = serde_json::from_str(&json).expect("strict JSON");
        assert_eq!(v["benchmark"], "check");
        assert_eq!(v["network"], "small");
        assert_eq!(v["outcome"], "consistent");
        assert_eq!(v["runs"][1]["threads"], 4);
        assert!((v["runs"][1]["speedup_vs_serial"].as_f64().unwrap() - 2.5).abs() < 1e-9);
        assert!(v["runs"][0]["warm"]["cache_hit_rate"].as_f64().unwrap() > 0.0);
        assert!((v["runs"][0]["stages"]["solve_ms"].as_f64().unwrap() - 6.0).abs() < 1e-9);
        assert!((v["runs"][0]["stages"]["preprocess_ms"].as_f64().unwrap() - 2.0).abs() < 1e-9);
        assert_eq!(v["fec_count"].as_u64().unwrap(), r.fec_count as u64);
        assert_eq!(json, bench_json("small", &r, &runs), "byte-stable");
    }

    /// Same contract for `BENCH_incr.json`: strict JSON, sorted keys,
    /// byte-stable, and the ceiling arithmetic is what CI's probe assumes.
    #[test]
    fn incr_json_is_strict_and_stable() {
        let run = IncrRun {
            steps: 12,
            applied: 9,
            class_count: 40,
            total_pairs: 120,
            dirty_pairs_total: 85,
            dirty_pairs_max: 14,
            dirty_classes_total: 31,
            cold: Duration::from_millis(90),
            warm: Duration::from_millis(30),
        };
        let json = incr_json("small", &run);
        let v: serde_json::Value = serde_json::from_str(&json).expect("strict JSON");
        assert_eq!(v["benchmark"], "incr");
        assert_eq!(v["network"], "small");
        assert_eq!(v["steps"].as_u64().unwrap(), 12);
        assert_eq!(v["rejected"].as_u64().unwrap(), 3);
        assert_eq!(v["pairs_ceiling_total"].as_u64().unwrap(), 12 * 120);
        assert!(
            v["dirty_pairs_total"].as_u64().unwrap() < v["pairs_ceiling_total"].as_u64().unwrap()
        );
        assert!((v["speedup"].as_f64().unwrap() - 3.0).abs() < 1e-9);
        assert_eq!(json, incr_json("small", &run), "byte-stable");
    }

    /// Same contract for `BENCH_shard.json`: strict JSON, sorted keys,
    /// byte-stable, and the partition-exactness flag plus the gate metric
    /// (`shard_wall_ms`, slowest shard at width 4) are what CI and
    /// scripts/perf_gate.py assume.
    #[test]
    fn shard_json_is_strict_and_stable() {
        let rows = vec![
            ShardRow {
                shards: 1,
                dirty_pairs: vec![120],
                queries: vec![240],
                walls: vec![Duration::from_millis(100)],
            },
            ShardRow {
                shards: 4,
                dirty_pairs: vec![40, 30, 20, 30],
                queries: vec![80, 60, 40, 60],
                walls: vec![
                    Duration::from_millis(34),
                    Duration::from_millis(25),
                    Duration::from_millis(18),
                    Duration::from_millis(25),
                ],
            },
        ];
        let json = shard_json("small", 120, 240, Duration::from_millis(100), &rows);
        let v: serde_json::Value = serde_json::from_str(&json).expect("strict JSON");
        assert_eq!(v["benchmark"], "shard");
        assert_eq!(v["network"], "small");
        assert_eq!(v["partition_exact"], true);
        assert_eq!(v["baseline"]["dirty_pairs"].as_u64().unwrap(), 120);
        assert_eq!(v["widths"][1]["shards"].as_u64().unwrap(), 4);
        assert_eq!(v["widths"][1]["dirty_pairs_sum"].as_u64().unwrap(), 120);
        assert_eq!(v["widths"][1]["queries_sum"].as_u64().unwrap(), 240);
        assert_eq!(v["widths"][1]["dirty_pairs_max"].as_u64().unwrap(), 40);
        assert!((v["shard_wall_ms"].as_f64().unwrap() - 34.0).abs() < 1e-9);
        assert_eq!(
            json,
            shard_json("small", 120, 240, Duration::from_millis(100), &rows),
            "byte-stable"
        );
        // A duplicated query flips the exactness flag.
        let dup = vec![ShardRow {
            shards: 2,
            dirty_pairs: vec![70, 60],
            queries: vec![140, 120],
            walls: vec![Duration::from_millis(50), Duration::from_millis(40)],
        }];
        let v: serde_json::Value = serde_json::from_str(&shard_json(
            "small",
            120,
            240,
            Duration::from_millis(100),
            &dup,
        ))
        .unwrap();
        assert_eq!(v["partition_exact"], false);
    }

    /// Same contract for `BENCH_plan.json`: strict JSON, sorted keys,
    /// byte-stable, and the aggregate arithmetic is what CI's probe and
    /// the perf gate assume.
    #[test]
    fn plan_json_is_strict_and_stable() {
        let runs = vec![
            PlanRun {
                kind: "drain",
                feasible: true,
                steps: 6,
                waves: 4,
                certificates: 4,
                core: 0,
                prefix_attempts: 30,
                prefix_checks: 12,
                pruned_witness: 14,
                pruned_memo: 4,
                dirty_pairs: 80,
                pairs_ceiling: 3000,
                wall: Duration::from_millis(70),
            },
            PlanRun {
                kind: "no_order",
                feasible: false,
                steps: 2,
                waves: 0,
                certificates: 0,
                core: 1,
                prefix_attempts: 5,
                prefix_checks: 4,
                pruned_witness: 1,
                pruned_memo: 0,
                dirty_pairs: 10,
                pairs_ceiling: 60,
                wall: Duration::from_millis(8),
            },
        ];
        let json = plan_json("small", &runs, Duration::from_millis(78));
        let v: serde_json::Value = serde_json::from_str(&json).expect("strict JSON");
        assert_eq!(v["benchmark"], "plan");
        assert_eq!(v["network"], "small");
        assert_eq!(v["steps"].as_u64().unwrap(), 8);
        assert_eq!(v["waves"].as_u64().unwrap(), 4);
        assert_eq!(v["certificates"].as_u64().unwrap(), 4);
        assert_eq!(v["prefix_checks_total"].as_u64().unwrap(), 16);
        assert_eq!(v["pruned_total"].as_u64().unwrap(), 19);
        assert!((v["plan_wall_ms"].as_f64().unwrap() - 78.0).abs() < 1e-9);
        assert!(
            v["dirty_pairs_total"].as_u64().unwrap() * 2
                <= v["pairs_ceiling_total"].as_u64().unwrap()
        );
        assert_eq!(v["scenarios"][0]["kind"], "drain");
        assert_eq!(v["scenarios"][1]["feasible"], false);
        assert_eq!(v["scenarios"][1]["core"].as_u64().unwrap(), 1);
        assert_eq!(json, plan_json("small", &runs, Duration::from_millis(78)), "byte-stable");
    }
}
