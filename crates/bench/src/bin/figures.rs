#![forbid(unsafe_code)]

//! Regenerate the paper's evaluation tables and series (§8 Fig. 4a–d,
//! Table 5, the §9 encoding-depth ablation).
//!
//! ```sh
//! cargo run --release -p jinjing-bench --bin figures -- all
//! cargo run --release -p jinjing-bench --bin figures -- fig4a fig4c table5
//! cargo run --release -p jinjing-bench --bin figures -- fig4b --large
//! ```
//!
//! Subcommands: `fig4a` `fig4b` `fig4c` `fig4d` `table5` `depth` `scale`
//! `all`.
//! `--large` additionally runs the large-network fix (minutes, matching the
//! paper's ~10-minute ceiling for check+fix). Anything else is a usage
//! error (exit 2). Everything beyond the paper's evaluation — thread
//! scaling, sessions, the daemon, shards, traces — is measured by the
//! repository's ruler, `benchmark/run.sh`.

use jinjing_acl::atoms::RefineLimits;
use jinjing_bench::{
    checkfix_scenario, control_open_task, migration_task, wan, wan_of, PERTURBATIONS,
};
use jinjing_core::check::{check, CheckConfig};
use jinjing_core::fix::{fix, FixConfig};
use jinjing_core::generate::{generate, GenerateConfig};
use jinjing_core::Encoding;
use jinjing_lai::printer::statement_count;
use jinjing_lai::Command;
use jinjing_net::{Network, ScopeModel};
use jinjing_wan::scenarios;
use jinjing_wan::{NetSize, Wan, WanParams};
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
            let batch_check = CheckConfig::default();
            let (tb, plan) =
                timed(|| fix(&net.net, &sc.task, &batch_check, &batch_cfg).expect("fix"));
            // The paper-faithful CEGIS loop runs minutes at large scale
            // (exactly the paper's ~10-minute ceiling); only time it on the
            // small/medium networks.
            let iterative = if size == NetSize::Large {
                "minutes".to_string()
            } else {
                let (ti, _) = timed(|| {
                    let check = CheckConfig::default();
                    fix(&net.net, &sc.task, &check, &FixConfig::default()).expect("fix")
                });
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
            let (check_cfg, cfg) = (CheckConfig::default(), GenerateConfig { optimize });
            let (t, r) = timed(|| generate(&net.net, &task, &check_cfg, &cfg).expect("generate"));
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
            let (check_cfg, cfg) = (CheckConfig::default(), GenerateConfig::default());
            let (t, r) = timed(|| generate(&net.net, &task, &check_cfg, &cfg).expect("generate"));
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

/// The stages of [`scale`], in column order.
const STAGES: [&str; 6] = [
    "routes",
    "predicates",
    "universe",
    "family",
    "refine",
    "paths",
];

/// One run of every stage of loading `wan` and deriving its whole-network
/// scope model: `compute_routes` on a fresh copy of its topology and
/// announcements, every device's FIB compiled, then the model's universe,
/// predicate family, FEC refinement and the paths of every class, each on
/// the one before it. Also the class count.
fn load_stages(wan: &Wan) -> ([Duration; 6], usize) {
    let time = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed()
    };
    let mut net = Network::new(wan.net.topology().clone());
    for &(prefix, ext) in wan.net.announced() {
        net.announce(prefix, ext);
    }
    let routes = time(&mut || net.compute_routes());
    let devices: Vec<_> = wan.net.topology().devices().collect();
    let predicates = time(&mut || {
        for &d in &devices {
            let _ = wan.net.fib(d).forwarding_predicates();
        }
    });
    let model = ScopeModel::new(&wan.net, wan.scope(), Vec::new(), RefineLimits::default());
    let universe = time(&mut || {
        model.universe();
    });
    let family = time(&mut || {
        model.family();
    });
    let refine = time(&mut || {
        model
            .classes()
            .expect("the presets refine within the limits");
    });
    let classes = model.known_classes();
    let paths = time(&mut || {
        for i in 0..classes {
            model.paths_for(i);
        }
    });
    (
        [routes, predicates, universe, family, refine, paths],
        classes,
    )
}

/// `large` grown by cells ×1, ×2, ×4: per stage the median of three runs,
/// and each stage's ratio per doubling of the cells next to the ratio of
/// the FIB entries the network holds.
fn scale() {
    println!("\n## Scale — loading `large` grown by cells (ms, median of 3)\n");
    println!(
        "| cells | devices | FIB entries | classes | {} |",
        STAGES.join(" | ")
    );
    println!(
        "|-------|---------|-------------|---------|{}",
        "------|".repeat(STAGES.len())
    );
    let base = WanParams::preset(NetSize::Large);
    let mut rows: Vec<(usize, [Duration; 6])> = Vec::new();
    for factor in [1, 2, 4] {
        let params = WanParams {
            cells: base.cells * factor,
            ..base
        };
        let wan = wan_of(&params);
        let runs: Vec<([Duration; 6], usize)> = (0..3).map(|_| load_stages(&wan)).collect();
        let classes = runs[0].1;
        let median: [Duration; 6] = std::array::from_fn(|s| {
            let mut times: Vec<Duration> = runs.iter().map(|(t, _)| t[s]).collect();
            times.sort();
            times[1]
        });
        let entries: usize = wan
            .net
            .topology()
            .devices()
            .map(|d| wan.net.fib(d).entries().len())
            .sum();
        let cells: Vec<String> = median.iter().map(|&d| ms(d)).collect();
        println!(
            "| {} | {} | {entries} | {classes} | {} |",
            params.cells,
            params.device_count(),
            cells.join(" | ")
        );
        rows.push((entries, median));
    }
    println!("\nRatio per doubling of the cells:\n");
    println!("| step | FIB entries | {} |", STAGES.join(" | "));
    println!("|------|-------------|{}", "------|".repeat(STAGES.len()));
    for (step, pair) in ["×1 → ×2", "×2 → ×4"].iter().zip(rows.windows(2)) {
        let ((e0, t0), (e1, t1)) = (&pair[0], &pair[1]);
        let ratios: Vec<String> = (0..STAGES.len())
            .map(|s| format!("{:.1}", t1[s].as_secs_f64() / t0[s].as_secs_f64()))
            .collect();
        let entries = *e1 as f64 / *e0 as f64;
        println!("| {step} | {entries:.1} | {} |", ratios.join(" | "));
    }
}

/// A subcommand and what prints it; the flag is `--large` (only `fig4b`
/// reads it).
type Table = (&'static str, fn(bool));

/// Every table, in print order.
const TABLES: [Table; 7] = [
    ("fig4a", |_| fig4a()),
    ("fig4b", fig4b),
    ("fig4c", |_| fig4c()),
    ("fig4d", |_| fig4d()),
    ("table5", |_| table5()),
    ("depth", |_| depth()),
    ("scale", |_| scale()),
];

const USAGE: &str =
    "usage: figures [fig4a] [fig4b] [fig4c] [fig4d] [table5] [depth] [scale] [all] [--large]";

/// One flag per entry of [`TABLES`].
type Selected = [bool; TABLES.len()];

/// Which of [`TABLES`] to print, and whether `--large` was given. `Err`
/// says why the command line selects nothing runnable.
fn parse_args(args: &[String]) -> Result<(Selected, bool), String> {
    let mut selected = [false; TABLES.len()];
    let mut include_large = false;
    for arg in args {
        if arg == "--large" {
            include_large = true;
        } else if arg == "all" {
            selected = [true; TABLES.len()];
        } else if let Some(i) = TABLES.iter().position(|(name, _)| name == arg) {
            selected[i] = true;
        } else {
            return Err(format!("unknown argument `{arg}`"));
        }
    }
    if selected.contains(&true) {
        Ok((selected, include_large))
    } else {
        Err("no table selected".to_string())
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (selected, include_large) = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("figures: {e}\n{USAGE}");
        std::process::exit(2);
    });
    println!("# Jinjing evaluation — regenerated tables");
    for ((_, table), on) in TABLES.iter().zip(selected) {
        if on {
            table(include_large);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(Selected, bool), String> {
        parse_args(&args.iter().map(ToString::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn parse_args_selects_tables_and_rejects_everything_else() {
        assert_eq!(parse(&["all"]), Ok(([true; TABLES.len()], false)));
        assert_eq!(
            parse(&["--large", "fig4b", "depth"]),
            Ok(([false, true, false, false, false, true, false], true))
        );
        // A retired subcommand must not "succeed" by printing nothing.
        assert!(parse(&["par"]).unwrap_err().contains("`par`"));
        assert!(parse(&["fig4a", "--small"])
            .unwrap_err()
            .contains("`--small`"));
        assert!(parse(&[]).is_err());
        assert!(parse(&["--large"]).is_err());
    }
}
