//! `jjbench` — the repository's benchmark harness.
//!
//! ```text
//! jjbench --workload W --seed N --seconds S --trace 0|1   one run, one JSON line
//! jjbench [--seed N] [--workload W] [--out DIR] [--quick] [--repeat K]
//!                                                          the whole suite
//! jjbench compare A.json B.json                            two result sets
//! jjbench manifest | describe          BENCHMARK.json / the README's tables
//! ```
//!
//! See `benchmark/README.md` for the metrics, the workloads and how they
//! are expected to interact.

mod bench;
mod doors;
mod layers;
mod manifest;
mod metrics;
mod oracle;
mod spans;
mod stats;
mod suite;
mod workloads;

use std::process::ExitCode;

/// How long one run measures; `BENCHMARK.json` repeats it as `run_seconds`.
pub const RUN_SECONDS: u64 = 10;

/// Parsed command line of a run or of the suite.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: Option<bool>,
    pub out: Option<String>,
    pub trace_out: Option<String>,
    pub quick: bool,
    pub repeat: usize,
}

fn parse_seed(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("--seed wants a whole number, got {s:?}"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: workloads::DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: None,
        out: None,
        trace_out: None,
        quick: false,
        repeat: 1,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} wants a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = parse_seed(&value()?)?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds wants a number".to_string())?;
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                });
            }
            "--out" => args.out = Some(value()?),
            "--trace-out" => args.trace_out = Some(value()?),
            "--repeat" => {
                args.repeat = value()?
                    .parse()
                    .map_err(|_| "--repeat wants a whole number".to_string())?;
            }
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.quick {
        args.seconds = 0.0;
    }
    Ok(args)
}

fn real_main() -> Result<bool, String> {
    // No engine knob may leak in from the caller's environment.
    let leaked: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("JINJING_"))
        .collect();
    for k in leaked {
        std::env::remove_var(k);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") => return suite::compare(&argv[1..]),
        Some("manifest") => {
            print!("{}", manifest::render());
            return Ok(true);
        }
        Some("describe") => {
            print!("{}", metrics::describe());
            return Ok(true);
        }
        _ => {}
    }
    let args = parse_args(&argv)?;
    let manifest = manifest::load()?;
    match args.trace {
        Some(trace) => {
            let name = args.workload.as_deref().ok_or("--trace needs --workload")?;
            let w = workloads::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
            manifest.check(w)?;
            let result = bench::run(w, &args, trace)?;
            // For the suite (and the curious): what was asked and what the
            // oracle made of it. The contract only reads the last line.
            println!("# fingerprint {:016x}", result.fingerprint);
            for (i, class) in result.classes.iter().enumerate() {
                println!("# request {i} {class}");
            }
            for (name, value, unit) in &result.untraced_pass {
                println!("# untraced {name} {value} {unit}");
            }
            for note in &result.notes {
                println!("# {note}");
            }
            println!("{}", result.to_json_line());
            // A run that finished reports failed ops in its result line
            // (`correct`, `failed`); only the suite turns them into an exit
            // code.
            Ok(true)
        }
        None => suite::run(&args, &manifest),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("jjbench: {e}");
            ExitCode::from(2)
        }
    }
}
