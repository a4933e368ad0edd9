//! The whole benchmark in one command, and the comparison of two result
//! sets.
//!
//! `run` starts every workload in a process of its own (twice: the timed
//! run, then the traced run), prints one `workload metric value unit` line
//! per metric, writes `results.json` and one Chrome trace per workload, and
//! reports failure if any op failed. `compare` reads two `results.json`
//! files and the bounds of `BENCHMARK.json`.

use crate::manifest::{self, Manifest};
use crate::metrics;
use crate::stats::{self, Better, Verdict};
use crate::workloads::{self, Workload, WORKLOADS};
use crate::Args;
use jinjing_obs::json::{self, Json, JsonWriter};
use std::collections::BTreeMap;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// `results.json` layout version.
const SCHEMA_VERSION: u64 = 1;

/// The flags `build.sh` compiles everything with (recorded, not applied).
const OPT_FLAGS: &str = "--edition 2021 -C opt-level=3";

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// One child run's output, parsed back.
struct Line {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
    /// `# fingerprint …` / `# request i class` lines.
    fingerprint: String,
    classes: Vec<String>,
    /// `# untraced name value unit` lines of a traced run.
    untraced_pass: Vec<(String, f64, String)>,
}

fn parse_line(text: &str) -> Result<Line, String> {
    let last = text.lines().last().ok_or("child printed nothing")?;
    let doc = json::parse(last).map_err(|e| format!("child's last line is not JSON: {e}"))?;
    let num = |k: &str| doc.get(k).and_then(Json::as_u64).ok_or(format!("no {k}"));
    let mut metrics = Vec::new();
    for (name, m) in doc.get("metrics").ok_or("no metrics")?.members() {
        metrics.push((
            name.clone(),
            m.get("value")
                .and_then(Json::as_f64)
                .ok_or("metric without value")?,
            m.get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
        ));
    }
    let notes = |prefix: &str| -> Vec<String> {
        text.lines()
            .filter_map(|l| l.strip_prefix(prefix))
            .map(|l| l.trim().to_string())
            .collect()
    };
    Ok(Line {
        attempted: num("attempted")?,
        failed: num("failed")?,
        metrics,
        fingerprint: notes("# fingerprint ").concat(),
        classes: notes("# request "),
        untraced_pass: notes("# untraced ")
            .iter()
            .filter_map(|l| {
                let mut f = l.split(' ');
                Some((
                    f.next()?.to_string(),
                    f.next()?.parse().ok()?,
                    f.next()?.to_string(),
                ))
            })
            .collect(),
    })
}

/// Run one workload in a child process of this same binary.
fn child(w: &Workload, args: &Args, trace: bool, trace_out: Option<&str>) -> Result<Line, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(path) = trace_out {
        cmd.args(["--trace-out", path]);
    }
    let out = cmd.output().map_err(|e| format!("{}: {e}", w.name))?;
    if !out.status.success() {
        return Err(format!(
            "{} (trace {}) exited with {}: {}",
            w.name,
            u8::from(trace),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    parse_line(&String::from_utf8_lossy(&out.stdout))
}

/// Per workload: metric → the value of every repeat.
type Runs = BTreeMap<String, Vec<f64>>;

/// One workload's row of `results.json`.
struct Row {
    workload: &'static Workload,
    attempted: u64,
    failed: u64,
    fingerprint: String,
    classes: Vec<String>,
    runs: Runs,
}

/// One workload, `--repeat` times: the traced run, then the timed run.
/// Prints the first repeat's metric lines as it goes.
fn run_workload(w: &'static Workload, args: &Args, out_dir: &str) -> Result<Row, String> {
    let mut row = Row {
        workload: w,
        attempted: 0,
        failed: 0,
        fingerprint: String::new(),
        classes: Vec::new(),
        runs: Runs::new(),
    };
    let mut lines = String::new();
    for rep in 0..args.repeat.max(1) {
        let trace_path = format!("{out_dir}/trace-{}.json", w.name);
        let traced = child(w, args, true, (rep == 0).then_some(trace_path.as_str()))?;
        row.attempted += traced.attempted;
        row.failed += traced.failed;
        // --quick: the traced run's untraced pass stands in for the timed
        // run.
        let end_to_end = if args.quick {
            traced.untraced_pass
        } else {
            let timed = child(w, args, false, None)?;
            row.attempted += timed.attempted;
            row.failed += timed.failed;
            timed.metrics
        };
        row.fingerprint = traced.fingerprint;
        row.classes = traced.classes;
        for (name, value, unit) in end_to_end.into_iter().chain(traced.metrics) {
            if rep == 0 {
                lines.push_str(&format!("{} {name} {value} {unit}\n", w.name));
            }
            row.runs.entry(name).or_default().push(value);
        }
    }
    // One write, so two workloads' lines never interleave.
    print!(
        "{lines}{} failed_share {} ratio\n",
        w.name,
        row.failed as f64 / row.attempted.max(1) as f64
    );
    Ok(row)
}

/// The suite: every workload (or the one named), `--repeat` times, one
/// after another. `--quick` runs two at a time where there are two cores:
/// its numbers are not comparable anyway, and a smoke test should be short.
pub fn run(args: &Args, manifest: &Manifest) -> Result<bool, String> {
    let selected: Vec<&'static Workload> = match &args.workload {
        Some(name) => {
            vec![workloads::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?]
        }
        None => WORKLOADS.iter().collect(),
    };
    for w in &selected {
        manifest.check(w)?;
    }
    let out_dir = args
        .out
        .clone()
        .unwrap_or_else(|| "target/benchmark/out".to_string());
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{out_dir}: {e}"))?;

    let lanes = if args.quick { nproc().min(2) } else { 1 };
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Result<Row, String>)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..lanes {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(w) = selected.get(i) else { break };
                let row = run_workload(w, args, &out_dir);
                done.lock().expect("a lane panicked").push((i, row));
            });
        }
    });
    let mut done = done.into_inner().expect("a lane panicked");
    done.sort_by_key(|(i, _)| *i);
    let rows: Vec<Row> = done
        .into_iter()
        .map(|(_, row)| row)
        .collect::<Result<_, _>>()?;
    let all_ok = rows.iter().all(|row| row.failed == 0);

    let path = format!("{out_dir}/results.json");
    std::fs::write(&path, results_json(args, &rows)).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("jjbench: wrote {path} and {out_dir}/trace-<workload>.json");
    if args.quick {
        eprintln!("jjbench: --quick numbers are one pass each and not comparable");
    }
    if !all_ok {
        eprintln!("jjbench: FAILED — some ops failed (see the failed_share lines)");
    }
    Ok(all_ok)
}

fn results_json(args: &Args, rows: &[Row]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema_version");
    w.u64(SCHEMA_VERSION);
    w.key("comparable");
    w.bool(!args.quick);
    w.key("seed");
    w.u64(args.seed);
    w.key("seconds");
    w.f64(args.seconds);
    w.key("env");
    w.begin_object();
    w.key("git_commit");
    w.string(&tool_line("git", &["rev-parse", "HEAD"]));
    w.key("rustc");
    w.string(&tool_line("rustc", &["-V"]));
    w.key("opt_flags");
    w.string(OPT_FLAGS);
    w.key("kernel");
    w.string(
        std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .unwrap_or_else(|_| "unknown".to_string())
            .trim(),
    );
    w.key("nproc");
    w.u64(nproc() as u64);
    w.end_object();
    w.key("workloads");
    w.begin_array();
    for row in rows {
        w.begin_object();
        w.key("name");
        w.string(row.workload.name);
        w.key("attempted");
        w.u64(row.attempted);
        w.key("failed");
        w.u64(row.failed);
        w.key("request_fingerprint");
        w.string(&row.fingerprint);
        w.key("verdict_classes");
        w.begin_array();
        for c in &row.classes {
            w.string(c);
        }
        w.end_array();
        w.key("metrics");
        w.begin_object();
        for (name, values) in &row.runs {
            w.key(name);
            w.begin_object();
            w.key("unit");
            w.string(metrics::find(name).map_or("", |d| d.unit));
            w.key("value");
            w.f64(stats::median(values));
            w.key("runs");
            w.begin_array();
            for v in values {
                w.f64(*v);
            }
            w.end_array();
            w.end_object();
        }
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    let mut out = w.finish();
    out.push('\n');
    out
}

// ------------------------------------------------------------- compare

/// workload → metric → (unit, runs)
type ResultSet = BTreeMap<String, BTreeMap<String, (String, Vec<f64>)>>;

fn load_results(path: &str) -> Result<(ResultSet, bool), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema_version").and_then(Json::as_u64) != Some(SCHEMA_VERSION) {
        return Err(format!(
            "{path}: not a schema_version {SCHEMA_VERSION} results file"
        ));
    }
    let comparable = matches!(doc.get("comparable"), Some(Json::Bool(true)));
    let mut set = ResultSet::new();
    for wl in doc.get("workloads").map(Json::elements).unwrap_or_default() {
        let name = wl
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without name")?;
        let mut ms = BTreeMap::new();
        for (metric, m) in wl.get("metrics").map(Json::members).unwrap_or_default() {
            let runs: Vec<f64> = m
                .get("runs")
                .map(Json::elements)
                .unwrap_or_default()
                .iter()
                .filter_map(Json::as_f64)
                .collect();
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            ms.insert(metric.clone(), (unit, runs));
        }
        set.insert(name.to_string(), ms);
    }
    Ok((set, comparable))
}

/// `jjbench compare A.json B.json`: one row per (workload, end-to-end
/// metric) — base, new, ratio, verdict under the manifest's bound — and an
/// exact-equality row for every count. Fails on any `worse` or
/// `unresolved`, and on any changed count.
pub fn compare(argv: &[String]) -> Result<bool, String> {
    let [a, b] = argv else {
        return Err("usage: jjbench compare A.json B.json".to_string());
    };
    let manifest = manifest::load()?;
    let ((base, base_ok), (new, new_ok)) = (load_results(a)?, load_results(b)?);
    if !(base_ok && new_ok) {
        return Err("a --quick result set is not comparable".to_string());
    }
    let mut ok = true;
    println!(
        "{:<24} {:<22} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "base", "new", "ratio"
    );
    for (workload, base_metrics) in &base {
        let Some(new_metrics) = new.get(workload) else {
            println!("{workload:<24} missing from {b}");
            ok = false;
            continue;
        };
        for bound in &manifest.end_to_end {
            let (Some((_, x)), Some((_, y))) =
                (base_metrics.get(&bound.name), new_metrics.get(&bound.name))
            else {
                continue;
            };
            if x.is_empty() || y.is_empty() {
                continue;
            }
            let v = stats::verdict(x, y, bound.better, bound.bound);
            let (mx, my) = (stats::median(x), stats::median(y));
            println!(
                "{workload:<24} {:<22} {mx:>14.4} {my:>14.4} {:>8.4}  {} (bound {:.0} %, {})",
                bound.name,
                my / mx,
                v.label(),
                bound.bound * 100.0,
                if bound.better == Better::Lower {
                    "lower is better"
                } else {
                    "higher is better"
                },
            );
            ok &= matches!(v, Verdict::Better | Verdict::Same);
        }
        for (metric, (unit, x)) in base_metrics {
            if unit != "count" {
                continue;
            }
            let y = new_metrics
                .get(metric)
                .map(|(_, y)| y.as_slice())
                .unwrap_or_default();
            let same = !x.is_empty() && x.iter().chain(y).all(|v| *v == x[0]) && !y.is_empty();
            if !same {
                println!("{workload:<24} {metric:<22} count changed: {x:?} -> {y:?}");
                ok = false;
            }
        }
    }
    println!(
        "{}",
        if ok {
            "compare: every end-to-end metric within its bound, every count identical"
        } else {
            "compare: FAILED — a metric is worse or unresolved, or a count changed"
        }
    );
    Ok(ok)
}
