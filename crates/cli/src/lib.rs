#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # jinjing-cli
//!
//! The `jinjing` command-line tool: the operator-facing front end of the
//! reproduction. It binds a network specification (JSON), the current ACL
//! configuration (JSON) and an LAI intent program (text) and runs the
//! requested primitive, printing a human-readable report and, optionally,
//! a machine-readable plan.
//!
//! ```text
//! jinjing run --network net.json --acls acls.json --intent update.lai
//! jinjing run ... --plan-out plan.json      # write the deployable plan
//! jinjing run ... --metrics-out m.json      # write the observability snapshot
//! jinjing run ... --format json             # canonical machine-readable report
//! jinjing run ... --trace                   # stream events to stderr
//! jinjing watch ... --deltas edits.txt      # incremental session over a stream
//! jinjing show --network net.json           # topology summary
//! jinjing simplify --acl-file acl.txt       # standalone ACL minimization
//! ```
//!
//! The whole tool lives in this library: [`run_cli`] is the dispatcher
//! the binary's `main` forwards to, with the two JSON spec loaders
//! injected ([`Loaders`]) so the flow is unit-testable without spawning
//! processes or parsing spec files. Every subcommand checks its flags
//! against what the usage text lists for it, answers through the query
//! layer shared with the daemon, and returns the exit code of that
//! layer's [`Answer`]. Every error about a spec file names the file and
//! where in the document it is.

use jinjing_core::engine::EngineConfig;
use jinjing_core::query::Answer;
use jinjing_core::query::{lint_multi_query, lint_query, QueryError};
use jinjing_net::spec::{AclConfigSpec, NetworkSpec};
use jinjing_net::{AclConfig, Network};

// The canonical query-output layer (plan/watch/lint documents and the
// functions that produce them) lives in `jinjing_core::query`, shared
// byte-for-byte with the `jinjing-serve` daemon; the CLI re-exports it
// so front-end callers keep one import path.
pub use jinjing_core::query::{
    LintOutput, PlanDocument, PlanEntry, RunOutput, WatchOutput, WatchStep,
};

/// Everything that can go wrong on a CLI run, as a printable message.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> CliError {
        CliError(format!("io error: {e}"))
    }
}

fn err(e: impl std::fmt::Display) -> CliError {
    CliError(e.to_string())
}

/// An error about the file at `path`.
fn in_file(path: &str) -> impl Fn(jinjing_net::spec::SpecError) -> CliError + '_ {
    move |e| CliError(format!("{path}: {e}"))
}

fn read_network_spec(path: &str) -> Result<NetworkSpec, CliError> {
    NetworkSpec::from_json(&read_file(path)?).map_err(in_file(path))
}

fn read_acl_spec(path: &str) -> Result<AclConfigSpec, CliError> {
    AclConfigSpec::from_json(&read_file(path)?).map_err(in_file(path))
}

/// Load a network from a JSON spec file.
pub fn load_network(path: &str) -> Result<Network, CliError> {
    read_network_spec(path)?.build().map_err(in_file(path))
}

/// Load an ACL configuration from a JSON spec file.
pub fn load_acls(path: &str, net: &Network) -> Result<AclConfig, CliError> {
    read_acl_spec(path)?.build(net).map_err(in_file(path))
}

/// How [`run_cli`] turns `--network` / `--acls` paths into a network and
/// its configuration. The binary injects [`load_network`] and
/// [`load_acls`]; a test injects a fixture.
pub struct Loaders {
    /// `--network <path>`.
    pub network: fn(&str) -> Result<Network, CliError>,
    /// `--acls <path>`, bound to the loaded network.
    pub acls: fn(&str, &Network) -> Result<AclConfig, CliError>,
}

/// Observability knobs for a CLI run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Stream events to stderr as they happen (the `--trace` flag). The
    /// `JINJING_TRACE` environment variable enables this too, even when the
    /// flag is absent.
    pub trace: bool,
    /// Worker threads for the engine's query fan-outs (the `--threads`
    /// flag). `0` means "auto": consult `JINJING_THREADS`, defaulting to 1
    /// (serial). Reports are byte-identical for every value.
    pub threads: usize,
}

impl RunOptions {
    /// The [`EngineConfig`] these options describe: run-level thread
    /// override plus a trace-enabled collector when `--trace` was given.
    fn engine_config(&self) -> EngineConfig {
        let mut cfg = EngineConfig {
            threads: self.threads,
            ..EngineConfig::default()
        };
        if self.trace {
            cfg.check.obs = jinjing_obs::Collector::with_trace(true);
        }
        cfg
    }

    /// The same two knobs for a lint run.
    fn lint_config(&self) -> jinjing_lint::LintConfig {
        let mut cfg = jinjing_lint::LintConfig {
            threads: self.threads,
            ..jinjing_lint::LintConfig::default()
        };
        if self.trace {
            cfg.obs = jinjing_obs::Collector::with_trace(true);
        }
        cfg
    }
}

/// Run an LAI program with explicit observability options. Thin wrapper
/// over [`jinjing_core::query::run_query`] — the same code path the
/// `jinjing-serve` daemon answers `POST /v1/check|fix|generate` with, so
/// outputs are byte-identical across front ends.
pub fn run_command_with(
    net: &Network,
    config: &AclConfig,
    intent_text: &str,
    opts: &RunOptions,
) -> Result<RunOutput, CliError> {
    jinjing_core::query::run_query(net, config, intent_text, &opts.engine_config()).map_err(err)
}

/// Everything a `jinjing trace` run produces: the normal run output plus
/// the rendered flight recording.
#[derive(Debug)]
pub struct TraceOutput {
    /// The underlying run (report text, plan, metrics snapshot) —
    /// byte-identical to the same run without tracing.
    pub run: RunOutput,
    /// The capture rendered as Chrome `trace_event` JSON (load it in
    /// `chrome://tracing` or Perfetto).
    pub chrome_json: String,
    /// The human-readable span summary (slowest spans first, with
    /// self-time attribution).
    pub summary: String,
    /// The deterministic trace id (FNV-1a over the intent text).
    pub trace_id: String,
    /// Events the bounded flight-recorder ring could not record.
    pub events_dropped: u64,
}

/// Run an LAI program with the flight recorder armed (`jinjing trace`):
/// the same [`run_command_with`] query path, plus a request-scoped
/// [`jinjing_obs::TraceCtx`] capturing timestamped spans from the engine,
/// the worker pool, and the solver. The report/plan bytes are identical
/// to an untraced run — only the side-channel capture differs.
pub fn trace_command(
    net: &Network,
    config: &AclConfig,
    intent_text: &str,
    opts: &RunOptions,
) -> Result<TraceOutput, CliError> {
    let cfg = opts.engine_config();
    let tctx = jinjing_obs::TraceCtx::new(&jinjing_obs::trace_id_of(intent_text));
    cfg.check.obs.attach_trace_ctx(tctx.clone());
    let root = tctx.span(0, "cli.trace");
    let run = jinjing_core::query::run_query(net, config, intent_text, &cfg).map_err(err)?;
    drop(root);
    Ok(TraceOutput {
        run,
        chrome_json: tctx.to_chrome_json(),
        summary: tctx.summary(),
        trace_id: tctx.id().unwrap_or("").to_string(),
        events_dropped: tctx.events_dropped(),
    })
}

/// Run an incremental check session (`jinjing watch`, a.k.a.
/// `run --session`): bind the intent's scope/controls and the current
/// configuration into a [`jinjing_core::incr::CheckSession`], then feed it
/// the delta script (see
/// [`parse_delta_script`](jinjing_core::incr::parse_delta_script) for the
/// format). Each step re-checks only the FECs its delta dirties; verdicts
/// are byte-identical to cold per-step checks. Thin wrapper over
/// [`jinjing_core::query::watch_query`] — the daemon's session endpoints
/// run the same loop one delta batch at a time.
pub fn watch_command(
    net: &Network,
    config: &AclConfig,
    intent_text: &str,
    deltas_text: &str,
    opts: &RunOptions,
) -> Result<WatchOutput, CliError> {
    jinjing_core::query::watch_query(net, config, intent_text, deltas_text, &opts.engine_config())
        .map_err(err)
}

/// Synthesize a certified rollout plan (`jinjing plan`): decompose the
/// diff between the current configuration and the target into per-device
/// steps, order them so every intermediate state satisfies the intent,
/// and batch provably-commuting steps into waves — or report a minimal
/// infeasibility core. The target is the intent's own update, or the
/// current configuration with `target_text` (a delta script) applied.
/// Thin wrapper over [`jinjing_core::query::plan_query`] — the daemon's
/// `POST /v1/plan` runs the same path, so outputs are byte-identical
/// across front ends.
pub fn plan_command(
    net: &Network,
    config: &AclConfig,
    intent_text: &str,
    target_text: Option<&str>,
    max_waves: usize,
    opts: &RunOptions,
) -> Result<jinjing_core::query::PlanRunOutput, CliError> {
    let mut cfg = opts.engine_config();
    cfg.plan.max_waves = max_waves;
    jinjing_core::query::plan_query(net, config, intent_text, target_text, &cfg).map_err(err)
}

/// Flags that take no value; every other flag consumes the next argument.
const SWITCHES: [&str; 2] = ["--trace", "--drain-on-stdin-eof"];

// What the usage text lists for each subcommand, space-separated.
const RUN_FLAGS: &str = "--network --acls --intent --format --session --plan-out --rollback-out \
                         --metrics-out --trace --threads";
const WATCH_FLAGS: &str =
    "--network --acls --intent --deltas --format --metrics-out --trace --threads";
const TRACE_FLAGS: &str = "--network --acls --intent --trace-out --threads";
const PLAN_FLAGS: &str = "--network --acls --intent --target --max-waves --format --metrics-out \
                          --trace --threads";
const LINT_FLAGS: &str = "--network --acls --intent --priority --format --deny --metrics-out \
                          --trace --threads";
// `--max-body` is the pre-`--max-body-bytes` spelling; it stays accepted.
const SERVE_FLAGS: &str = "--network --acls --addr --workers --queue --deadline-ms \
                           --max-body-bytes --max-body --max-sessions --max-traces --threads \
                           --metrics-out --port-file --drain-on-stdin-eof --trace";
const SHARD_FLAGS: &str = "--network --acls --backends --addr --threads --max-body-bytes \
                           --max-body --timeout-ms --metrics-out --port-file --trace";
const CALL_FLAGS: &str = "--addr --path --method --body-file --body --timeout-ms --header --shards";

/// One subcommand's command line, checked against the flags the usage
/// text lists for it: anything else — a misspelt flag, a stray
/// positional, a valued flag with nothing after it — is an error, never
/// silently ignored.
struct Flags<'a> {
    /// `(flag, value)` in command-line order; switches carry `""`.
    given: Vec<(&'a str, &'a str)>,
}

impl<'a> Flags<'a> {
    /// Parse `args[1..]` (`args[0]` is the subcommand) against `allowed`,
    /// a space-separated flag list.
    fn parse(args: &'a [String], allowed: &str) -> Result<Flags<'a>, CliError> {
        let mut given = Vec::new();
        let mut rest = args.iter().skip(1).map(String::as_str);
        while let Some(flag) = rest.next() {
            if !allowed.split(' ').any(|known| known == flag) {
                return Err(CliError(format!(
                    "unknown flag {flag:?} for `jinjing {}` (see `jinjing help`)",
                    args[0]
                )));
            }
            let value = if SWITCHES.contains(&flag) {
                ""
            } else {
                rest.next()
                    .ok_or_else(|| CliError(format!("flag {flag} wants a value")))?
            };
            given.push((flag, value));
        }
        Ok(Flags { given })
    }

    /// Every value of a repeatable flag, in order.
    fn all(&self, name: &'a str) -> impl Iterator<Item = &'a str> + '_ {
        self.given
            .iter()
            .filter(move |(flag, _)| *flag == name)
            .map(|(_, value)| *value)
    }

    fn get(&self, name: &'a str) -> Option<&'a str> {
        self.all(name).next()
    }

    fn has(&self, switch: &'a str) -> bool {
        self.get(switch).is_some()
    }

    fn require(&self, name: &'a str) -> Result<&'a str, CliError> {
        self.get(name)
            .ok_or_else(|| CliError(format!("missing required flag {name}")))
    }

    fn num<T: std::str::FromStr>(&self, name: &'a str, default: T) -> Result<T, CliError> {
        match self.get(name) {
            Some(v) => v
                .parse()
                .map_err(|_| CliError(format!("{name} wants a number, got {v:?}"))),
            None => Ok(default),
        }
    }

    /// A comma-separated `host:port` list (`--backends`, `--shards`).
    fn addrs(&self, name: &'a str) -> Result<Option<Vec<String>>, CliError> {
        let Some(list) = self.get(name) else {
            return Ok(None);
        };
        let addrs: Vec<String> = list
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        if addrs.is_empty() {
            return Err(CliError(format!("{name} wants host:port[,host:port...]")));
        }
        Ok(Some(addrs))
    }

    fn run_options(&self) -> Result<RunOptions, CliError> {
        Ok(RunOptions {
            trace: self.has("--trace"),
            threads: self.num("--threads", 0)?,
        })
    }
}

fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError(format!("{path}: {e}")))
}

fn write_file(path: &str, contents: &str) -> Result<(), CliError> {
    std::fs::write(path, contents).map_err(|e| CliError(format!("{path}: {e}")))
}

fn load_specs(flags: &Flags<'_>, loaders: &Loaders) -> Result<(Network, AclConfig), CliError> {
    let net = (loaders.network)(flags.require("--network")?)?;
    let config = (loaders.acls)(flags.require("--acls")?, &net)?;
    Ok((net, config))
}

/// What `run`, `watch`, `trace` and `plan` all start from: the network,
/// its configuration, the intent text and the run options.
type Inputs = (Network, AclConfig, String, RunOptions);

fn load_inputs(flags: &Flags<'_>, loaders: &Loaders) -> Result<Inputs, CliError> {
    let (net, config) = load_specs(flags, loaders)?;
    let intent = read_file(flags.require("--intent")?)?;
    Ok((net, config, intent, flags.run_options()?))
}

/// Print a query's output as `--format` asks: the report text, or the
/// answer's canonical JSON.
fn print_formatted(flags: &Flags<'_>, text: &str, answer: &Answer) -> Result<(), CliError> {
    match flags.get("--format") {
        Some("json") => print!("{}", answer.body),
        None | Some("text") => print!("{text}"),
        Some(other) => return Err(CliError(format!("unknown --format {other:?} (text|json)"))),
    }
    Ok(())
}

fn write_metrics(flags: &Flags<'_>, obs: &jinjing_obs::Snapshot) -> Result<(), CliError> {
    if let Some(path) = flags.get("--metrics-out") {
        write_file(path, &obs.to_json())?;
        eprintln!("metrics written to {path}");
    }
    Ok(())
}

/// Run one `jinjing` invocation — `args` without the program name — and
/// return the process exit code: the answer's (0 ok, 3 inconsistent
/// check / rejected delta / infeasible plan, 4 lint gate), or 1 with
/// `error: …` on stderr for anything that could not be answered. `usage`
/// is what `help` prints.
pub fn run_cli(args: &[String], usage: &str, loaders: &Loaders) -> i32 {
    let result = match args.first().map_or("", String::as_str) {
        "run" | "watch" => run_or_watch(args, loaders),
        "trace" => trace(args, loaders),
        "plan" => plan(args, loaders),
        "lint" => lint(args),
        "audit" => Flags::parse(args, "--network --acls").and_then(|flags| {
            let (net, config) = load_specs(&flags, loaders)?;
            print!("{}", audit_report(&net, &config));
            Ok(0)
        }),
        "show" => Flags::parse(args, "--network").and_then(|flags| {
            let net = (loaders.network)(flags.require("--network")?)?;
            print!("{}", show_network(&net));
            Ok(0)
        }),
        "simplify" => Flags::parse(args, "--acl-file").and_then(|flags| {
            let text = read_file(flags.require("--acl-file")?)?;
            print!("{}", simplify_acl_text(&text)?);
            Ok(0)
        }),
        "convert" => convert(args),
        "serve" => Flags::parse(args, SERVE_FLAGS).and_then(|flags| {
            let (net, config) = load_specs(&flags, loaders)?;
            serve_command(net, config, serve_config(&flags)?)?;
            Ok(0)
        }),
        "shard" => Flags::parse(args, SHARD_FLAGS).and_then(|flags| {
            let (net, config) = load_specs(&flags, loaders)?;
            shard_command(net, config, shard_config(&flags)?)?;
            Ok(0)
        }),
        "call" => call_command(args),
        "" | "help" | "--help" | "-h" => {
            println!("{usage}");
            Ok(0)
        }
        other => Err(CliError(format!(
            "unknown command {other:?} (see `jinjing help`)"
        ))),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        1
    })
}

/// `jinjing run` and `jinjing watch`; `run --session <deltas>` is the
/// incremental path too, the same as `watch --deltas`.
fn run_or_watch(args: &[String], loaders: &Loaders) -> Result<i32, CliError> {
    let watch = args[0] == "watch";
    let flags = Flags::parse(args, if watch { WATCH_FLAGS } else { RUN_FLAGS })?;
    let (net, config, intent, opts) = load_inputs(&flags, loaders)?;
    let deltas = if watch {
        Some(flags.require("--deltas")?)
    } else {
        flags.get("--session")
    };
    if let Some(path) = deltas {
        let out = watch_command(&net, &config, &intent, &read_file(path)?, &opts)?;
        let answer = out.answer();
        print_formatted(&flags, &out.text, &answer)?;
        write_metrics(&flags, &out.obs)?;
        return Ok(answer.exit);
    }
    let out = run_command_with(&net, &config, &intent, &opts)?;
    let answer = out.answer();
    print_formatted(&flags, &out.text, &answer)?;
    // `run` reports what it wrote on stdout, after the report.
    if let Some(path) = flags.get("--metrics-out") {
        write_file(path, &out.obs.to_json())?;
        println!("metrics written to {path}");
    }
    if !out.plan.changes.is_empty() {
        println!("changed slots: {}", out.plan.changes.len());
    }
    if let Some(path) = flags.get("--rollback-out") {
        let rollback = rollback_document(&net, &config, &out.plan);
        write_file(path, &rollback.to_canonical_json())?;
        println!("rollback plan written to {path}");
    }
    if let Some(path) = flags.get("--plan-out") {
        write_file(path, &answer.body)?;
        println!("plan written to {path}");
    }
    Ok(answer.exit)
}

/// `jinjing trace`.
fn trace(args: &[String], loaders: &Loaders) -> Result<i32, CliError> {
    let flags = Flags::parse(args, TRACE_FLAGS)?;
    let (net, config, intent, opts) = load_inputs(&flags, loaders)?;
    let out = trace_command(&net, &config, &intent, &opts)?;
    let path = flags.get("--trace-out").unwrap_or("trace.json");
    write_file(path, &out.chrome_json)?;
    print!("{}", out.summary);
    eprintln!("trace {} written to {path}", out.trace_id);
    if out.events_dropped > 0 {
        eprintln!(
            "warning: {} event(s) dropped (flight-recorder ring full)",
            out.events_dropped
        );
    }
    Ok(out.run.answer().exit)
}

/// `jinjing plan`.
fn plan(args: &[String], loaders: &Loaders) -> Result<i32, CliError> {
    let flags = Flags::parse(args, PLAN_FLAGS)?;
    let (net, config, intent, opts) = load_inputs(&flags, loaders)?;
    let target = flags.get("--target").map(read_file).transpose()?;
    let max_waves = flags.num("--max-waves", 0)?;
    let out = plan_command(&net, &config, &intent, target.as_deref(), max_waves, &opts)?;
    let answer = out.answer();
    print_formatted(&flags, &out.text, &answer)?;
    write_metrics(&flags, &out.obs)?;
    Ok(answer.exit)
}

/// `jinjing lint`. A plain `--intent FILE` is a single-program run;
/// repeated `--intent tenant=FILE` values select the cross-tenant pass
/// (every value must then carry a tenant name). Error-severity findings
/// always gate; `--deny` (repeatable: exact `JL301`, family glob `JL3*`,
/// or `all`) escalates codes.
fn lint(args: &[String]) -> Result<i32, CliError> {
    let flags = Flags::parse(args, LINT_FLAGS)?;
    let net_spec = read_network_spec(flags.require("--network")?)?;
    let acl_spec = read_acl_spec(flags.require("--acls")?)?;
    let opts = flags.run_options()?;
    let intents: Vec<&str> = flags.all("--intent").collect();
    let out = if intents.iter().any(|v| v.contains('=')) {
        let mut tenants = Vec::with_capacity(intents.len());
        for v in &intents {
            let Some((tenant, path)) = v.split_once('=') else {
                return Err(CliError(format!(
                    "--intent {v:?}: multi-tenant lint needs tenant=FILE for every intent"
                )));
            };
            if tenant.is_empty() {
                return Err(CliError(format!("--intent {v:?}: empty tenant name")));
            }
            tenants.push((tenant.to_string(), read_file(path)?));
        }
        let priority: Vec<String> = flags
            .get("--priority")
            .map(|p| p.split(',').map(str::to_string).collect())
            .unwrap_or_default();
        lint_multi_command(&net_spec, &acl_spec, &tenants, &priority, &opts)?
    } else {
        if intents.len() > 1 {
            return Err(CliError(
                "multiple --intent flags need tenant=FILE form (multi-tenant lint)".to_string(),
            ));
        }
        let intent_text = intents.first().copied().map(read_file).transpose()?;
        lint_command(&net_spec, &acl_spec, intent_text.as_deref(), &opts)?
    };
    match flags.get("--format") {
        Some("json") => print!("{}", Answer::of_lint(&out.report).body),
        Some("sarif") => println!("{}", jinjing_lint::to_sarif(&out.report)),
        None | Some("text") => print!("{}", out.report.render_text()),
        Some(other) => {
            return Err(CliError(format!(
                "unknown --format {other:?} (text|json|sarif)"
            )))
        }
    }
    write_metrics(&flags, &out.obs)?;
    let denied: Vec<String> = flags.all("--deny").map(str::to_string).collect();
    Ok(if lint_gate(&out.report, &denied) {
        4
    } else {
        0
    })
}

/// `jinjing convert`.
fn convert(args: &[String]) -> Result<i32, CliError> {
    let flags = Flags::parse(args, "--cisco-config --map --out")?;
    let text = read_file(flags.require("--cisco-config")?)?;
    let mut mappings = Vec::new();
    for m in flags.all("--map") {
        let (list, slot) = m
            .split_once('=')
            .ok_or_else(|| CliError(format!("bad --map {m:?}")))?;
        let (iface, dir) = match slot.rsplit_once('-') {
            Some((i, d @ ("in" | "out"))) => (i, d),
            _ => (slot, "in"),
        };
        mappings.push((list.to_string(), iface.to_string(), dir.to_string()));
    }
    if mappings.is_empty() {
        return Err(CliError("convert needs at least one --map".to_string()));
    }
    let json = convert_cisco(&text, &mappings)?;
    match flags.get("--out") {
        Some(path) => {
            write_file(path, &json)?;
            println!("wrote {path}");
        }
        None => println!("{json}"),
    }
    Ok(0)
}

/// The `jinjing serve` flags (listen address, admission-control knobs,
/// drain hooks) as a [`jinjing_serve::ServeConfig`].
fn serve_config(flags: &Flags<'_>) -> Result<jinjing_serve::ServeConfig, CliError> {
    let defaults = jinjing_serve::ServeConfig::default();
    Ok(jinjing_serve::ServeConfig {
        addr: flags.get("--addr").unwrap_or("127.0.0.1:8080").to_string(),
        workers: flags.num("--workers", defaults.workers)?,
        queue: flags.num("--queue", defaults.queue)?,
        deadline_ms: flags.num("--deadline-ms", defaults.deadline_ms)?,
        // `--max-body-bytes` is the documented spelling (coordinator-sized
        // fan-in payloads need the cap raised) and wins over `--max-body`.
        max_body: flags.num(
            "--max-body-bytes",
            flags.num("--max-body", defaults.max_body)?,
        )?,
        max_sessions: flags.num("--max-sessions", defaults.max_sessions)?,
        max_traces: flags.num("--max-traces", defaults.max_traces)?,
        threads: flags.num("--threads", 0)?,
        metrics_out: flags.get("--metrics-out").map(str::to_string),
        port_file: flags.get("--port-file").map(str::to_string),
        drain_on_stdin_eof: flags.has("--drain-on-stdin-eof"),
        // Test-only saturation knob; never a CLI flag.
        allow_test_delay: std::env::var_os("JINJING_SERVE_TEST_DELAY").is_some(),
        trace: flags.has("--trace"),
    })
}

/// Run the verification daemon over an already-loaded network +
/// configuration until drained (`jinjing serve`). Announces the bound
/// address on stderr (stdout stays clean for pipelines).
pub fn serve_command(
    net: Network,
    config: AclConfig,
    cfg: jinjing_serve::ServeConfig,
) -> Result<(), CliError> {
    let srv = jinjing_serve::Server::bind(net, config, cfg).map_err(err)?;
    let addr = srv.local_addr().map_err(err)?;
    eprintln!("jinjing-serve listening on {addr}");
    let summary = srv.run().map_err(err)?;
    eprintln!(
        "jinjing-serve drained: {} request(s), {} shed",
        summary.requests, summary.shed
    );
    Ok(())
}

/// The `jinjing shard` flags as a [`jinjing_shard::ShardConfig`].
fn shard_config(flags: &Flags<'_>) -> Result<jinjing_shard::ShardConfig, CliError> {
    let defaults = jinjing_shard::ShardConfig::default();
    Ok(jinjing_shard::ShardConfig {
        addr: flags.get("--addr").unwrap_or("127.0.0.1:8090").to_string(),
        backends: flags
            .addrs("--backends")?
            .ok_or_else(|| CliError("missing required flag --backends".to_string()))?,
        threads: flags.num("--threads", 0)?,
        max_body: flags.num(
            "--max-body-bytes",
            flags.num("--max-body", defaults.max_body)?,
        )?,
        timeout_ms: flags.num("--timeout-ms", defaults.timeout_ms)?,
        port_file: flags.get("--port-file").map(str::to_string),
        metrics_out: flags.get("--metrics-out").map(str::to_string),
        trace: flags.has("--trace"),
    })
}

/// Run the sharded-verification coordinator over an already-loaded
/// network + configuration until drained (`jinjing shard`). The backends
/// must serve the *same* network and configuration; responses are
/// byte-identical to a single-process run at any backend count.
pub fn shard_command(
    net: Network,
    config: AclConfig,
    cfg: jinjing_shard::ShardConfig,
) -> Result<(), CliError> {
    let backends = cfg.backends.len();
    let coord = jinjing_shard::Coordinator::bind(net, config, cfg).map_err(err)?;
    let addr = coord.local_addr().map_err(err)?;
    eprintln!("jinjing-shard coordinating {backends} backend(s) on {addr}");
    let summary = coord.run().map_err(err)?;
    eprintln!("jinjing-shard drained: {} request(s)", summary.requests);
    Ok(())
}

/// The `jinjing call` subcommand: one HTTP request to a running daemon.
/// Prints the response body to stdout and returns the process exit code —
/// the daemon's `X-Jinjing-Exit` header, falling back to 1 for any
/// undecorated non-2xx status — so pipelines gate on a remote daemon
/// exactly as on a local run. With `--shards a,b,...` a `/v1/lint`
/// request fans out over the listed backends directly
/// ([`jinjing_shard::lint_sharded`]) and the merged report is printed:
/// the same bytes an unsharded `jinjing lint --format json` renders.
pub fn call_command(args: &[String]) -> Result<i32, CliError> {
    let flags = Flags::parse(args, CALL_FLAGS)?;
    let addr = flags.get("--addr").unwrap_or("127.0.0.1:8080");
    let path = flags.require("--path")?;
    let method = flags.get("--method").unwrap_or("POST");
    let timeout = std::time::Duration::from_millis(flags.num("--timeout-ms", 30_000)?);
    let body = match (flags.get("--body-file"), flags.get("--body")) {
        (Some(p), _) => std::fs::read(p).map_err(|e| CliError(format!("{p}: {e}")))?,
        (None, Some(text)) => text.as_bytes().to_vec(),
        (None, None) => Vec::new(),
    };
    let mut headers = Vec::new();
    for h in flags.all("--header") {
        let (name, value) = h
            .split_once(':')
            .ok_or_else(|| CliError(format!("bad --header {h:?} (want `Name: value`)")))?;
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }
    if let Some(backends) = flags.addrs("--shards")? {
        if path != "/v1/lint" {
            return Err(CliError(format!(
                "--shards supports only --path /v1/lint (got {path:?}); \
                 run a `jinjing shard` coordinator for check/plan"
            )));
        }
        let answer = jinjing_shard::lint_sharded(&backends, &body, timeout)
            .map_err(|reject| CliError(reject.message))?;
        print!("{}", answer.body);
        return Ok(answer.exit);
    }
    let resp = jinjing_serve::client::call(addr, method, path, &headers, &body, timeout)
        .map_err(CliError)?;
    print!("{}", resp.body_text());
    if resp.status >= 400 {
        // Surface the daemon's backpressure hint: a shed request (429)
        // carries Retry-After, and scripts deserve to see it.
        match resp.header("retry-after") {
            Some(after) => eprintln!(
                "error: HTTP {} from {addr}{path} (Retry-After: {after}s)",
                resp.status
            ),
            None => eprintln!("error: HTTP {} from {addr}{path}", resp.status),
        }
    }
    Ok(resp.exit_code())
}

/// The spec layer both lint commands start with: JL201/JL202 run first
/// on the unbuilt specs, collecting *every* dangling reference and invalid
/// binding; if any are errors the network cannot be built, so that
/// report is returned alone. Otherwise `analyse` sees the built network +
/// configuration and its report is merged with the spec layer's.
fn lint_from_specs(
    net_spec: &NetworkSpec,
    acl_spec: &AclConfigSpec,
    opts: &RunOptions,
    analyse: impl FnOnce(
        &Network,
        &AclConfig,
        &jinjing_lint::LintConfig,
    ) -> Result<LintOutput, QueryError>,
) -> Result<LintOutput, CliError> {
    let cfg = opts.lint_config();
    let mut spec_report = jinjing_lint::lint_specs(net_spec, acl_spec, &cfg);
    if spec_report.has_errors() {
        spec_report.sort();
        return Ok(LintOutput {
            report: spec_report,
            obs: cfg.obs.snapshot(),
        });
    }
    let net = net_spec.build().map_err(err)?;
    let config = acl_spec.build(&net).map_err(err)?;
    let mut out = analyse(&net, &config, &cfg).map_err(err)?;
    out.report.merge(spec_report); // warning-free here, but keeps the shape honest
    out.report.sort();
    Ok(out)
}

/// Run the static analysis pass (`jinjing lint`) over unbuilt specs and an
/// optional LAI intent program: the spec layer, then the rule, intent and
/// network layers via [`jinjing_core::query::lint_query`] — the path the
/// daemon's `POST /v1/lint` runs.
pub fn lint_command(
    net_spec: &NetworkSpec,
    acl_spec: &AclConfigSpec,
    intent_text: Option<&str>,
    opts: &RunOptions,
) -> Result<LintOutput, CliError> {
    lint_from_specs(net_spec, acl_spec, opts, |net, config, cfg| {
        lint_query(net, config, intent_text, cfg)
    })
}

/// Run the multi-tenant static analysis pass (`jinjing lint --intent
/// tenant=FILE ...`) over unbuilt specs and a set of named tenant
/// intents: the spec layer, then
/// [`jinjing_core::query::lint_multi_query`] — the per-tenant
/// single-program layers plus the cross-tenant JL3xx layer with the given
/// `priority` order. Tenant names must be unique and every name in
/// `priority` must belong to a tenant.
pub fn lint_multi_command(
    net_spec: &NetworkSpec,
    acl_spec: &AclConfigSpec,
    tenants: &[(String, String)],
    priority: &[String],
    opts: &RunOptions,
) -> Result<LintOutput, CliError> {
    for (i, (name, _)) in tenants.iter().enumerate() {
        if tenants[..i].iter().any(|(n, _)| n == name) {
            return Err(CliError(format!("duplicate tenant name {name:?}")));
        }
    }
    for p in priority {
        if !tenants.iter().any(|(n, _)| n == p) {
            return Err(CliError(format!("--priority names unknown tenant {p:?}")));
        }
    }
    lint_from_specs(net_spec, acl_spec, opts, |net, config, cfg| {
        lint_multi_query(net, config, tenants, priority, cfg)
    })
}

/// Does a `--deny` pattern select a diagnostic code? Three forms:
/// `all` selects every code, a trailing `*` makes a prefix glob
/// (`JL3*` selects the whole cross-tenant family), anything else is an
/// exact code match.
pub fn deny_matches(pattern: &str, code: &str) -> bool {
    if pattern == "all" {
        return true;
    }
    match pattern.strip_suffix('*') {
        Some(prefix) => code.starts_with(prefix),
        None => pattern == code,
    }
}

/// Should the lint gate fire (exit 4)? Always on errors; otherwise when
/// any diagnostic's code is selected by any `--deny` pattern.
pub fn lint_gate(report: &jinjing_lint::LintReport, deny: &[String]) -> bool {
    report.has_errors()
        || report
            .diagnostics()
            .iter()
            .any(|d| deny.iter().any(|p| deny_matches(p, d.code)))
}

/// Standalone ACL simplification (the §4.2 extension as a utility).
pub fn simplify_acl_text(text: &str) -> Result<String, CliError> {
    let acl = jinjing_acl::parse::parse_acl(text).map_err(err)?;
    let (s, stats) = jinjing_acl::simplify::simplify(&acl);
    let mut out = String::new();
    use std::fmt::Write;
    for line in s.lines() {
        let _ = writeln!(out, "{line}");
    }
    let _ = writeln!(
        out,
        "# {} rules -> {} rules in {} passes",
        stats.before, stats.after, stats.passes
    );
    Ok(out)
}

/// The roll-back document for a produced plan: for every slot the plan
/// changes, the *original* ACL to restore.
pub fn rollback_document(net: &Network, original: &AclConfig, plan: &PlanDocument) -> PlanDocument {
    let changes = plan
        .changes
        .iter()
        .map(|entry| {
            let iface = net
                .topology()
                .iface_by_name(
                    entry.interface.split(':').next().unwrap_or(""),
                    entry.interface.split(':').nth(1).unwrap_or(""),
                )
                .expect("plan entries name real interfaces");
            let dir = if entry.direction == "out" {
                jinjing_net::Dir::Out
            } else {
                jinjing_net::Dir::In
            };
            let slot = jinjing_net::Slot { iface, dir };
            let acl = original
                .get(slot)
                .cloned()
                .unwrap_or_else(jinjing_acl::Acl::permit_all);
            PlanEntry {
                interface: entry.interface.clone(),
                direction: entry.direction.clone(),
                acl: acl.lines(),
            }
        })
        .collect();
    PlanDocument {
        command: format!("rollback({})", plan.command),
        verdict: "restores the pre-update configuration".to_string(),
        changes,
    }
}

/// Convert a Cisco IOS configuration fragment into an
/// [`AclConfigSpec`] JSON document. `mappings` bind list names to slots:
/// `("EDGE-IN", "A:1", "in")`.
pub fn convert_cisco(
    config_text: &str,
    mappings: &[(String, String, String)],
) -> Result<String, CliError> {
    let lists = jinjing_acl::cisco::parse_config(config_text).map_err(err)?;
    let mut slots = Vec::new();
    for (list_name, iface, dir) in mappings {
        let found = lists
            .iter()
            .find(|l| &l.name == list_name)
            .ok_or_else(|| CliError(format!("no access list named {list_name:?} in the config")))?;
        slots.push(jinjing_net::spec::AclSlotSpec {
            interface: iface.clone(),
            direction: dir.clone(),
            acl: found.acl.lines(),
        });
    }
    Ok(AclConfigSpec { slots }.to_json_pretty())
}

/// Audit the input data (the §7 deployment tool): returns the rendered
/// findings, one per line (empty = clean).
pub fn audit_report(net: &Network, config: &AclConfig) -> String {
    let findings = jinjing_net::audit::audit(net, config);
    if findings.is_empty() {
        return "no findings — data looks consistent\n".to_string();
    }
    let mut out = String::new();
    use std::fmt::Write;
    for f in &findings {
        let _ = writeln!(out, "- {}", f.display(net));
    }
    let _ = writeln!(out, "{} finding(s)", findings.len());
    out
}

/// Topology summary for `jinjing show`.
pub fn show_network(net: &Network) -> String {
    let mut out = format!("{}", net.topology());
    use std::fmt::Write;
    let _ = writeln!(out, "announcements:");
    for (p, i) in net.announced() {
        let _ = writeln!(out, "  {p} @ {}", net.topology().iface_name(*i));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn write_temp(name: &str, contents: &str) -> String {
        let path = std::env::temp_dir().join(format!("jinjing-cli-test-{name}"));
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(contents.as_bytes()).unwrap();
        path.to_string_lossy().into_owned()
    }

    const NET_JSON: &str = r#"{
        "devices": [
            {"name": "A", "interfaces": ["0", "1"]},
            {"name": "B", "interfaces": ["0", "1"]}
        ],
        "links": [["A:1", "B:0"]],
        "announcements": [{"prefix": "1.0.0.0/8", "interface": "B:1"}],
        "entering": [{"interface": "A:0", "dst_prefixes": ["1.0.0.0/8"]}]
    }"#;

    const ACLS_JSON: &str = r#"{"slots": [
        {"interface": "A:0", "acl": ["deny dst 1.2.0.0/16", "default permit"]}
    ]}"#;

    fn lint_texts(net: &str, acls: &str, intent: Option<&str>) -> LintOutput {
        let net = NetworkSpec::from_json(net).unwrap();
        let acls = AclConfigSpec::from_json(acls).unwrap();
        lint_command(&net, &acls, intent, &RunOptions::default()).unwrap()
    }

    #[test]
    fn end_to_end_check_flow() {
        let net_path = write_temp("net.json", NET_JSON);
        let acl_path = write_temp("acls.json", ACLS_JSON);
        let net = load_network(&net_path).unwrap();
        let config = load_acls(&acl_path, &net).unwrap();
        // A consistent no-op modify.
        let intent = "acl Same {\n deny dst 1.2.0.0/16\n permit all\n}\n\
                      scope A:*, B:*\nallow A:*\nmodify A:0 to Same\ncheck\n";
        let out = run_command_with(&net, &config, intent, &RunOptions::default()).unwrap();
        assert!(out.text.contains("consistent"), "{}", out.text);
        assert_eq!(out.plan.command, "check");
        assert!(out.plan.changes.is_empty());
    }

    #[test]
    fn end_to_end_fix_flow_produces_plan() {
        let net = load_network(&write_temp("net2.json", NET_JSON)).unwrap();
        let config = load_acls(&write_temp("acls2.json", ACLS_JSON), &net).unwrap();
        // Dropping the deny breaks consistency; fix must restore it within
        // the allowed slots.
        let intent = "acl Open { permit all }\nscope A:*, B:*\nallow A:*, B:*\n\
                      modify A:0 to Open\nfix\n";
        let plan = run_command_with(&net, &config, intent, &RunOptions::default())
            .unwrap()
            .plan;
        assert!(!plan.changes.is_empty());
        // The plan document renders as canonical JSON.
        let json = plan.to_canonical_json();
        assert!(json.contains("\"command\""));
    }

    #[test]
    fn simplify_utility() {
        let out = simplify_acl_text("permit dst 9.0.0.0/8\ndeny dst 6.0.0.0/8\ndefault permit\n")
            .unwrap();
        assert!(out.contains("deny dst 6.0.0.0/8"));
        assert!(!out.contains("permit dst 9.0.0.0/8"), "{out}");
        assert!(out.contains("2 rules -> 1 rules"));
    }

    #[test]
    fn show_lists_announcements() {
        let net = load_network(&write_temp("net3.json", NET_JSON)).unwrap();
        let out = show_network(&net);
        assert!(out.contains("1.0.0.0/8 @ B:1"));
    }

    #[test]
    fn lint_collects_spec_errors_before_build() {
        // An ACL slot on an undeclared interface: build() would fail fast;
        // lint reports it as JL201 instead.
        let bad_acls = r#"{"slots": [
            {"interface": "Z:9", "acl": ["default permit"]}
        ]}"#;
        let out = lint_texts(NET_JSON, bad_acls, None);
        assert!(out.report.has_errors());
        assert!(out.report.has_code("JL201"), "{}", out.report.render_text());
    }

    #[test]
    fn lint_reports_rule_findings_on_built_config() {
        let shadowed = r#"{"slots": [
            {"interface": "A:0", "acl": [
                "deny dst 1.0.0.0/8", "deny dst 1.2.0.0/16", "default permit"
            ]}
        ]}"#;
        let out = lint_texts(NET_JSON, shadowed, None);
        let d = out
            .report
            .diagnostics()
            .iter()
            .find(|d| d.code == "JL001")
            .expect("full shadow found");
        assert_eq!(d.location, "A:0-in:rule:1");
        assert!(!out.report.has_errors(), "shadows are warnings, not errors");
    }

    #[test]
    fn lint_includes_intent_layer_and_is_byte_stable() {
        let intent = "acl Unused { permit all }\nacl X { deny dst 1.2.0.0/16\n permit all\n}\n\
                      scope A:*, B:*\nallow A:*\nmodify A:0 to X\ncheck\n";
        let run = || {
            lint_texts(NET_JSON, ACLS_JSON, Some(intent))
                .report
                .to_json()
        };
        let json = run();
        assert!(json.contains("JL104"), "{json}");
        assert_eq!(json, run(), "lint JSON must be deterministic");
    }

    #[test]
    fn committed_figure1_files_load_to_the_fixture() {
        use jinjing_core::figure1::Figure1;
        let data =
            |file: &str| format!("{}/../../examples/data/{file}", env!("CARGO_MANIFEST_DIR"));
        let net = load_network(&data("figure1-network.json")).unwrap();
        let config = load_acls(&data("figure1-acls.json"), &net).unwrap();
        let fig = Figure1::new();
        assert_eq!(config, fig.config, "same ACLs on the same slot ids");
        assert_eq!(net.topology().to_string(), fig.net.topology().to_string());
        assert_eq!(net.announced(), fig.net.announced());
        // Packet sets compare as sets (the export merges sibling prefixes).
        for &iface in fig.ifaces.values() {
            assert!(net.entering_at(iface).same_set(&fig.net.entering_at(iface)));
        }
        // Forwarding is the fixture's plus the shortest-path routes `build`
        // computes from the announcements before it applies the static
        // ones — never less.
        for dev in fig.net.topology().devices() {
            let loaded = net.forwarding_predicates(dev);
            for (out, set) in fig.net.forwarding_predicates(dev).iter() {
                assert!(set.is_subset(&loaded[out]), "forwarding out of {out:?}");
            }
        }
        // The same canonical bytes the goldens pin on the fixture.
        let running_example = read_file(&data("running-example.lai")).unwrap();
        let generate = "acl PermitAll { permit all }\nscope A:*, B:*, C:*, D:*\n\
                        allow C:1-in, C:2-in, D:1-in\nmodify A:1 to PermitAll\n\
                        modify D:2 to PermitAll\ngenerate\n";
        let fix = running_example.replace("\ncheck\n", "\nfix\n");
        for intent in [running_example.as_str(), fix.as_str(), generate] {
            let opts = RunOptions::default();
            let loaded = run_command_with(&net, &config, intent, &opts).unwrap();
            let fixture = run_command_with(&fig.net, &fig.config, intent, &opts).unwrap();
            assert_eq!(loaded.answer().body, fixture.answer().body);
        }
    }

    #[test]
    fn spec_file_errors_name_the_file_and_the_place() {
        let bad_type = write_temp("bad-type.json", r#"{"devices": [{"name": "A"}, 7]}"#);
        let e = load_network(&bad_type).unwrap_err().to_string();
        assert_eq!(
            e,
            format!("{bad_type}: devices[0].interfaces: missing field")
        );
        let dangling = NET_JSON.replace("\"B:0\"]]", "\"B:7\"]]");
        let dangling = write_temp("dangling.json", &dangling);
        let e = load_network(&dangling).unwrap_err().to_string();
        assert_eq!(
            e,
            format!("{dangling}: links[0]: unknown interface \"B:7\"")
        );
        let truncated = write_temp("truncated.json", &NET_JSON[..NET_JSON.len() / 2]);
        let e = load_network(&truncated).unwrap_err().to_string();
        assert!(
            e.starts_with(&format!("{truncated}: invalid JSON: ")),
            "{e}"
        );
        assert!(e.contains(" at offset "), "{e}");

        let net = load_network(&write_temp("net5.json", NET_JSON)).unwrap();
        let pasted = write_temp("pasted.json", r#"{"slots": [], "slots": []}"#);
        let e = load_acls(&pasted, &net).unwrap_err().to_string();
        assert_eq!(e, format!("{pasted}: slots: duplicate field"));
        // Not UTF-8 at all: an error about the file, from both loaders and
        // through the dispatcher (`lint` reads the raw specs itself).
        let latin1 = std::env::temp_dir().join("jinjing-cli-test-latin1.json");
        std::fs::write(
            &latin1,
            b"{\"devices\": [{\"name\": \"caf\xe9\", \"interfaces\": []}]}",
        )
        .unwrap();
        let latin1 = latin1.to_string_lossy().into_owned();
        let e = load_network(&latin1).unwrap_err().to_string();
        assert!(
            e.starts_with(&format!("{latin1}: ")) && e.contains("UTF-8"),
            "{e}"
        );
        let e = load_acls(&latin1, &net).unwrap_err().to_string();
        assert!(
            e.starts_with(&format!("{latin1}: ")) && e.contains("UTF-8"),
            "{e}"
        );
        let loaders = Loaders {
            network: load_network,
            acls: load_acls,
        };
        for command in ["lint", "show", "audit", "run"] {
            let args = [
                command,
                "--network",
                &latin1,
                "--acls",
                &pasted,
                "--intent",
                "x",
            ];
            let args: Vec<String> = args.iter().map(ToString::to_string).collect();
            let args = if command == "show" {
                &args[..3]
            } else {
                &args[..]
            };
            assert_eq!(run_cli(args, "usage", &loaders), 1, "{command}");
        }
    }

    #[test]
    fn errors_are_messages_not_panics() {
        assert!(load_network("/nonexistent/net.json").is_err());
        let net = load_network(&write_temp("net4.json", NET_JSON)).unwrap();
        let bad_intent = "scope Z:*\ncheck\n";
        let opts = RunOptions::default();
        assert!(run_command_with(&net, &AclConfig::new(), bad_intent, &opts).is_err());
    }
}

/// Tests over the programmatic Figure 1 fixture (no spec files).
#[cfg(test)]
mod fixture_tests {
    use super::*;
    use jinjing_core::figure1::Figure1;

    const CHECK_INTENT: &str = "\
acl PermitAll { permit all }
scope A:*, B:*, C:*, D:*
allow A:*, B:*
modify D:2 to PermitAll
check
";

    /// A semantically invisible update (D:2's denies reordered).
    const CONSISTENT_INTENT: &str = "\
acl D2r {
    deny dst 2.0.0.0/8
    deny dst 1.0.0.0/8
    permit all
}
scope A:*, B:*, C:*, D:*
allow D:*
modify D:2 to D2r
check
";

    /// The dispatcher with the Figure 1 fixture behind `--network` /
    /// `--acls` (the paths are never opened).
    fn cli(args: &[&str]) -> i32 {
        let loaders = Loaders {
            network: |_| Ok(Figure1::new().net),
            acls: |_, _| Ok(Figure1::new().config),
        };
        let args: Vec<String> = args.iter().map(ToString::to_string).collect();
        run_cli(&args, "usage text", &loaders)
    }

    fn temp_file(name: &str, contents: &str) -> String {
        let path = std::env::temp_dir().join(format!(
            "jinjing-cli-dispatch-{}-{name}",
            std::process::id()
        ));
        std::fs::write(&path, contents).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn dispatcher_exits_with_the_answers_code() {
        fn run<'a>(command: &'a str, rest: &[&'a str]) -> i32 {
            let mut args = vec![command, "--network", "fig1", "--acls", "fig1"];
            args.extend_from_slice(rest);
            cli(&args)
        }
        let consistent = temp_file("consistent.lai", CONSISTENT_INTENT);
        let inconsistent = temp_file("inconsistent.lai", CHECK_INTENT);
        let scope = temp_file("scope.lai", "scope A:*, B:*, C:*, D:*\ncheck\n");
        let open_d2 = temp_file("open-d2.deltas", "step open-d2\nset D:2 permit all\n");
        let clear_d2 = temp_file("clear-d2.deltas", "step open-d2\nclear D:2\n");
        let bad = temp_file("bad.lai", "scope Z:*\ncheck\n");

        for f in ["text", "json"] {
            assert_eq!(run("run", &["--intent", &consistent, "--format", f]), 0);
            // A failed bare check, a rejected delta and an unorderable
            // update all gate with 3 …
            assert_eq!(run("run", &["--intent", &inconsistent, "--format", f]), 3);
            let deltas = [
                "--intent",
                &inconsistent,
                "--deltas",
                &open_d2,
                "--format",
                f,
            ];
            assert_eq!(run("watch", &deltas), 3);
            let session = [
                "--intent",
                &inconsistent,
                "--session",
                &open_d2,
                "--format",
                f,
            ];
            assert_eq!(run("run", &session), 3, "run --session is watch");
            let target = ["--intent", &scope, "--target", &clear_d2, "--format", f];
            assert_eq!(run("plan", &target), 3);
            // … and anything that could not be answered exits 1.
            assert_eq!(run("run", &["--intent", &bad, "--format", f]), 1);
        }
        assert_eq!(
            run("run", &["--intent", &consistent, "--format", "yaml"]),
            1
        );
        assert_eq!(run("run", &["--intent", "/nonexistent/intent.lai"]), 1);
        assert_eq!(run("run", &[]), 1, "missing --intent");
        assert_eq!(run("audit", &[]), 0);
        assert_eq!(cli(&["show", "--network", "fig1"]), 0);
        assert_eq!(cli(&["help"]), 0);
        assert_eq!(cli(&[]), 0, "no arguments prints usage");
        assert_eq!(cli(&["frobnicate"]), 1);

        let trace_out = temp_file("trace.json", "");
        let traced = ["--intent", &inconsistent, "--trace-out", &trace_out];
        assert_eq!(run("trace", &traced), 3, "trace gates like run");
        assert!(std::fs::read_to_string(&trace_out)
            .unwrap()
            .contains("\"traceEvents\""));

        for path in [
            consistent,
            inconsistent,
            scope,
            open_d2,
            clear_d2,
            bad,
            trace_out,
        ] {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn unknown_flags_are_errors_not_ignored() {
        let parse = |args: &[&str], allowed: &str| {
            let args: Vec<String> = args.iter().map(ToString::to_string).collect();
            Flags::parse(&args, allowed).map(|_| ()).map_err(|e| e.0)
        };
        // The three ways the old parser lost input: a misspelt flag, a
        // flag of another subcommand, a value that never came.
        let e = parse(&["serve", "--worker", "4"], SERVE_FLAGS).unwrap_err();
        assert!(e.contains("unknown flag \"--worker\""), "{e}");
        let e = parse(&["run", "--treads", "4"], RUN_FLAGS).unwrap_err();
        assert!(e.contains("unknown flag \"--treads\""), "{e}");
        let e = parse(&["trace", "--format", "json"], TRACE_FLAGS).unwrap_err();
        assert!(e.contains("for `jinjing trace`"), "{e}");
        let e = parse(&["run", "stray"], RUN_FLAGS).unwrap_err();
        assert!(e.contains("unknown flag \"stray\""), "{e}");
        let e = parse(&["run", "--threads"], RUN_FLAGS).unwrap_err();
        assert!(e.contains("--threads wants a value"), "{e}");
        assert_eq!(
            parse(&["serve", "--trace", "--workers", "4"], SERVE_FLAGS),
            Ok(())
        );

        // Through the dispatcher each is `error: …`, exit 1 — before any
        // spec is loaded or any socket is bound or dialled.
        assert_eq!(
            cli(&["serve", "--network", "n", "--acls", "a", "--worker", "4"]),
            1
        );
        assert_eq!(
            cli(&["run", "--network", "n", "--acls", "a", "--treads", "4"]),
            1
        );
        assert_eq!(cli(&["show", "--network", "n", "--acls", "a"]), 1);
        assert_eq!(
            cli(&["call", "--path", "/healthz", "--header", "NoColon"]),
            1
        );
        let e = call_command(&["call", "--path", "/x", "--header", "NoColon"].map(String::from))
            .unwrap_err();
        assert!(e.to_string().contains("bad --header \"NoColon\""), "{e}");
    }

    #[test]
    fn deny_patterns_match_exact_glob_and_all() {
        assert!(deny_matches("JL301", "JL301"));
        assert!(!deny_matches("JL301", "JL302"));
        assert!(deny_matches("JL3*", "JL301"));
        assert!(deny_matches("JL3*", "JL304"));
        assert!(!deny_matches("JL3*", "JL203"));
        assert!(deny_matches("all", "JL001"));
        assert!(deny_matches("*", "JL001"));
        assert!(!deny_matches("", "JL001"));
    }

    #[test]
    fn lint_gate_fires_on_errors_and_denied_codes() {
        use jinjing_lint::{Diagnostic, LintReport, Severity};
        let mut warn = LintReport::new();
        warn.push(Diagnostic::new("JL301", Severity::Warning, "multi:x", "m"));
        assert!(!lint_gate(&warn, &[]));
        assert!(lint_gate(&warn, &["JL301".to_string()]));
        assert!(lint_gate(&warn, &["JL3*".to_string()]));
        assert!(lint_gate(&warn, &["all".to_string()]));
        assert!(!lint_gate(&warn, &["JL0*".to_string()]));
        let mut err = LintReport::new();
        err.push(Diagnostic::new("JL201", Severity::Error, "spec:x", "m"));
        assert!(lint_gate(&err, &[]));
    }

    #[test]
    fn plan_document_canonical_json_is_stable() {
        let f = Figure1::new();
        let render = || {
            run_command_with(&f.net, &f.config, CHECK_INTENT, &RunOptions::default())
                .unwrap()
                .plan
                .to_canonical_json()
        };
        let json = render();
        assert!(json.starts_with("{\"changes\":["), "{json}");
        assert!(json.contains("\"command\":\"check\""), "{json}");
        assert!(json.contains("\"verdict\":\"inconsistent"), "{json}");
        assert!(json.ends_with("}\n"));
        assert_eq!(json, render(), "canonical JSON must be byte-stable");
    }

    #[test]
    fn watch_session_rechecks_a_delta_stream() {
        let f = Figure1::new();
        let script = "\
step rewrite-D2
set D:2 deny dst 2.0.0.0/8; deny dst 1.0.0.0/8
step open-D2
set D:2 permit all
step noop
";
        let out = watch_command(
            &f.net,
            &f.config,
            CHECK_INTENT,
            script,
            &RunOptions::default(),
        )
        .unwrap();
        assert_eq!(out.steps.len(), 3);
        assert_eq!(out.rejected, 1);
        assert_eq!(out.steps[0].verdict, "consistent");
        assert!(out.steps[0].applied);
        assert!(out.steps[1].verdict.starts_with("inconsistent"));
        assert!(!out.steps[1].applied, "violating delta is rejected");
        assert_eq!(out.steps[2].verdict, "consistent");
        assert_eq!(out.steps[2].dirty_classes, 0, "noop takes the fast path");
        assert!(
            out.steps[0].clean_classes > 0,
            "a small edit must leave most classes clean"
        );
        assert!(out.text.contains("[rejected]"), "{}", out.text);
        // Canonical JSON: byte-stable and schema-pinned.
        let json = out.to_canonical_json();
        assert!(json.starts_with("{\"class_count\":"), "{json}");
        assert!(json.contains("\"label\":\"rewrite-D2\""), "{json}");
        let again = watch_command(
            &f.net,
            &f.config,
            CHECK_INTENT,
            script,
            &RunOptions {
                threads: 4,
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            json,
            again.to_canonical_json(),
            "watch JSON must not depend on thread count"
        );
    }

    #[test]
    fn serve_config_parses_flags_and_rejects_garbage() {
        let args: Vec<String> = [
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "3",
            "--queue",
            "5",
            "--deadline-ms",
            "250",
            "--drain-on-stdin-eof",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let cfg = serve_config(&Flags::parse(&args, SERVE_FLAGS).unwrap()).unwrap();
        assert_eq!(cfg.addr, "127.0.0.1:0");
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.queue, 5);
        assert_eq!(cfg.deadline_ms, 250);
        assert!(cfg.drain_on_stdin_eof);
        assert!(!cfg.trace);
        // Unspecified knobs keep the daemon defaults.
        let defaults = jinjing_serve::ServeConfig::default();
        assert_eq!(cfg.max_body, defaults.max_body);
        assert_eq!(cfg.max_sessions, defaults.max_sessions);

        let bad: Vec<String> = ["serve", "--queue", "nope"]
            .iter()
            .map(ToString::to_string)
            .collect();
        assert!(serve_config(&Flags::parse(&bad, SERVE_FLAGS).unwrap()).is_err());
    }

    #[test]
    fn serve_config_accepts_max_body_bytes_spelling() {
        let args: Vec<String> = ["serve", "--max-body-bytes", "4194304"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let parse = |args: &[String]| serve_config(&Flags::parse(args, SERVE_FLAGS).unwrap());
        assert_eq!(parse(&args).unwrap().max_body, 4 << 20);
        // The new spelling wins when both are given.
        let both: Vec<String> = ["serve", "--max-body", "1024", "--max-body-bytes", "2048"]
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(parse(&both).unwrap().max_body, 2048);
    }

    #[test]
    fn shard_config_parses_backends_and_rejects_garbage() {
        let args: Vec<String> = [
            "shard",
            "--addr",
            "127.0.0.1:0",
            "--backends",
            "127.0.0.1:9001, 127.0.0.1:9002",
            "--threads",
            "2",
            "--timeout-ms",
            "5000",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let parse = |args: &[String]| shard_config(&Flags::parse(args, SHARD_FLAGS).unwrap());
        let cfg = parse(&args).unwrap();
        assert_eq!(cfg.addr, "127.0.0.1:0");
        assert_eq!(cfg.backends, vec!["127.0.0.1:9001", "127.0.0.1:9002"]);
        assert_eq!(cfg.threads, 2);
        assert_eq!(cfg.timeout_ms, 5000);
        assert!(!cfg.trace);

        let missing: Vec<String> = ["shard"].iter().map(ToString::to_string).collect();
        assert!(parse(&missing).is_err());
        let empty: Vec<String> = ["shard", "--backends", " , "]
            .iter()
            .map(ToString::to_string)
            .collect();
        assert!(parse(&empty).is_err());
    }

    #[test]
    fn call_shards_merges_lint_and_rejects_other_paths() {
        let mk_backend = || {
            let f = Figure1::new();
            let srv =
                jinjing_serve::Server::bind(f.net, f.config, jinjing_serve::ServeConfig::default())
                    .unwrap();
            let addr = srv.local_addr().unwrap().to_string();
            let h = std::thread::spawn(move || srv.run().unwrap());
            (addr, h)
        };
        let (a1, h1) = mk_backend();
        let (a2, h2) = mk_backend();
        let args: Vec<String> = [
            "call",
            "--path",
            "/v1/lint",
            "--shards",
            &format!("{a1},{a2}"),
            "--timeout-ms",
            "20000",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        assert_eq!(call_command(&args).unwrap(), 0);
        // Verdict-bearing endpoints need the coordinator.
        let bad: Vec<String> = [
            "call",
            "--path",
            "/v1/check",
            "--shards",
            &format!("{a1},{a2}"),
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let e = call_command(&bad).unwrap_err();
        assert!(e.to_string().contains("only --path /v1/lint"), "{e}");
        for (addr, h) in [(a1, h1), (a2, h2)] {
            let _ = jinjing_serve::client::call(
                &addr,
                "POST",
                "/v1/shutdown",
                &[],
                b"",
                std::time::Duration::from_secs(10),
            )
            .unwrap();
            h.join().unwrap();
        }
    }

    #[test]
    fn call_command_maps_daemon_exit_codes() {
        let f = Figure1::new();
        let srv =
            jinjing_serve::Server::bind(f.net, f.config, jinjing_serve::ServeConfig::default())
                .unwrap();
        let addr = srv.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || srv.run().unwrap());
        let args = |path: &str, body: &str| -> Vec<String> {
            [
                "call",
                "--addr",
                &addr,
                "--path",
                path,
                "--body",
                body,
                "--timeout-ms",
                "20000",
            ]
            .iter()
            .map(ToString::to_string)
            .collect()
        };
        // A failing bare check maps to the CLI's exit 3.
        assert_eq!(call_command(&args("/v1/check", CHECK_INTENT)).unwrap(), 3);
        // A malformed intent maps to 1.
        assert_eq!(
            call_command(&args("/v1/check", "scope Z:*\ncheck\n")).unwrap(),
            1
        );
        // Missing --path is a usage error, not a panic.
        assert!(call_command(&["call".to_string()]).is_err());
        assert_eq!(call_command(&args("/v1/shutdown", "")).unwrap(), 0);
        handle.join().unwrap();
    }

    #[test]
    fn trace_command_captures_without_perturbing_output() {
        let f = Figure1::new();
        let plain = run_command_with(&f.net, &f.config, CHECK_INTENT, &RunOptions::default())
            .unwrap()
            .plan
            .to_canonical_json();
        let traced =
            trace_command(&f.net, &f.config, CHECK_INTENT, &RunOptions::default()).unwrap();
        assert_eq!(
            traced.run.plan.to_canonical_json(),
            plain,
            "tracing must not perturb the plan bytes"
        );
        assert_eq!(traced.trace_id, jinjing_obs::trace_id_of(CHECK_INTENT));
        assert_eq!(traced.events_dropped, 0);
        for needle in ["\"traceEvents\"", "cli.trace", "engine.run", "solver.query"] {
            assert!(traced.chrome_json.contains(needle), "missing {needle}");
        }
        assert!(
            traced.summary.contains(&traced.trace_id),
            "{}",
            traced.summary
        );
        // Same bytes when the engine runs 4-wide under the recorder.
        let wide = trace_command(
            &f.net,
            &f.config,
            CHECK_INTENT,
            &RunOptions {
                threads: 4,
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(wide.run.plan.to_canonical_json(), plain);
    }

    #[test]
    fn watch_rejects_bad_scripts_with_messages() {
        let f = Figure1::new();
        let e = watch_command(
            &f.net,
            &f.config,
            CHECK_INTENT,
            "set Z:9 permit all\n",
            &RunOptions::default(),
        )
        .unwrap_err();
        assert!(e.to_string().contains("unknown interface"), "{e}");
    }
}

#[cfg(test)]
mod convert_tests {
    use super::*;

    #[test]
    fn cisco_conversion_binds_lists_to_slots() {
        let cfg = "ip access-list extended EDGE-IN\n deny ip any 10.1.1.0 0.0.0.255\n permit ip any any\n";
        let json = convert_cisco(cfg, &[("EDGE-IN".into(), "A:0".into(), "in".into())]).unwrap();
        let spec = AclConfigSpec::from_json(&json).unwrap();
        assert_eq!(spec.slots.len(), 1);
        assert_eq!(spec.slots[0].interface, "A:0");
        assert!(spec.slots[0].acl.iter().any(|l| l.contains("10.1.1.0/24")));
        assert!(spec.slots[0].acl.last().unwrap().contains("default deny"));
    }

    #[test]
    fn cisco_conversion_rejects_unknown_lists() {
        let e = convert_cisco(
            "access-list 1 permit ip any any\n",
            &[("X".into(), "A:0".into(), "in".into())],
        )
        .unwrap_err();
        assert!(e.to_string().contains("no access list"));
    }
}
