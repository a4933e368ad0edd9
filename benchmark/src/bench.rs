//! One run of one workload: set up (several times, reporting the median),
//! judge the set-up's answer to every distinct request with the oracle,
//! then either the timed passes (tracing off) or the traced passes, and the
//! result line.

use crate::doors::{self, Client, Daemon, Fanout, Session};
use crate::layers::{self, Trace};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::oracle::{self, Class, Paths};
use crate::stats::{median, percentile};
use crate::workloads::{self, Door, Kind, Request, Workload, DEFAULT_SEED};
use crate::Args;
use jinjing_net::Network;
use jinjing_serve::client::Conn;
use jinjing_wan::Wan;
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups per run: at least `MIN_SETUPS`, then more while they are cheap,
/// up to `MAX_SETUPS` or `SETUP_BUDGET_S` in all. `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET_S: f64 = 1.0;

/// What a run reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Why ops failed (first few), for the operator.
    pub failures: Vec<String>,
    /// `(name, value, unit)` in registry order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// A traced run's end-to-end metrics, from its untraced passes: what
    /// `--quick` reports instead of a timed run of its own.
    pub untraced_pass: Vec<(&'static str, f64, &'static str)>,
    /// Per request shape: 10th-percentile and median op, sample count —
    /// printed as `#` lines for whoever reads the run by eye.
    pub notes: Vec<String>,
    pub fingerprint: u64,
    pub classes: Vec<Class>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The contract's result line.
    pub fn to_json_line(&self) -> String {
        use jinjing_obs::json::JsonWriter;
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("correct");
        w.bool(self.correct());
        w.key("attempted");
        w.u64(self.attempted);
        w.key("failed");
        w.u64(self.failed);
        w.key("metrics");
        w.begin_object();
        for (name, value, unit) in &self.metrics {
            w.key(name);
            w.begin_object();
            w.key("value");
            w.f64(*value);
            w.key("unit");
            w.string(unit);
            w.end_object();
        }
        w.end_object();
        w.end_object();
        w.finish()
    }
}

/// Everything a set-up leaves behind for the passes.
struct Bench<'w> {
    w: &'static Workload,
    wan: &'w Wan,
    requests: Vec<Request>,
    clients: Vec<Client<'w>>,
    daemon: Option<Daemon>,
    fanout: Option<Fanout>,
    noop: String,
    /// Layer times observed while setting up.
    setup_ms: BTreeMap<&'static str, f64>,
}

/// A pre-warmed copy of the network for a daemon to own.
fn resident_copy(net: &Network) -> Network {
    let copy = net.clone();
    layers::prewarm(&copy);
    copy
}

impl<'w> Bench<'w> {
    /// Generate the requests and open the workload's door.
    fn open(w: &'static Workload, wan: &'w Wan, seed: u64) -> Result<Bench<'w>, String> {
        let requests = workloads::generate(w, wan, seed);
        let noop = workloads::noop_intent(wan);
        let mut setup_ms = BTreeMap::new();
        let (mut daemon, mut fanout) = (None, None);
        let http = |addr: &str| Conn::new(addr, doors::HTTP_TIMEOUT).map(Client::Http);
        let clients = match w.door {
            Door::Query => vec![Client::Query {
                net: &wan.net,
                config: &wan.config,
            }],
            Door::Session => {
                let t0 = Instant::now();
                let session = Session::open(&wan.net, &wan.config, &noop)?;
                setup_ms.insert("core.incr_open_ms", t0.elapsed().as_secs_f64() * 1e3);
                vec![Client::Session(Box::new(session))]
            }
            Door::Serve => {
                let d = Daemon::start(resident_copy(&wan.net), wan.config.clone(), w.clients)?;
                let clients = (0..w.clients)
                    .map(|_| http(&d.addr))
                    .collect::<Result<_, _>>()?;
                daemon = Some(d);
                clients
            }
            Door::Shard => {
                // Coordinator + 2 backends, each with its own resident,
                // pre-warmed network (warmed side by side: 2 cores).
                let nets: Vec<Network> = (0..3).map(|_| wan.net.clone()).collect();
                std::thread::scope(|s| {
                    for net in &nets {
                        s.spawn(|| layers::prewarm(net));
                    }
                });
                let f = Fanout::start(nets, &wan.config)?;
                let clients = vec![http(&f.addr)?];
                fanout = Some(f);
                clients
            }
        };
        Ok(Bench {
            w,
            wan,
            requests,
            clients,
            daemon,
            fanout,
            noop,
            setup_ms,
        })
    }

    /// The warm-up pass that ends a set-up: every distinct request answered
    /// once through the door (lazy initialisation, first connections and
    /// session memos all happen here, not in a timed op).
    fn first_answers(&mut self) -> Result<Vec<Vec<u8>>, String> {
        let Bench {
            clients, requests, ..
        } = self;
        requests.iter().map(|r| clients[0].call(&r.text)).collect()
    }

    /// Stop every daemon this set-up started and wait for its threads.
    fn close(self) -> Result<(), String> {
        drop(self.clients);
        if let Some(d) = self.daemon {
            d.stop()?;
        }
        if let Some(f) = self.fanout {
            f.stop()?;
        }
        Ok(())
    }

    /// Judge one answer with the oracle.
    fn judge(&self, paths: &Paths, i: usize, bytes: &[u8]) -> Result<Class, String> {
        match self.w.kind {
            Kind::Churn => oracle::judge_watch(&self.requests[i], bytes),
            kind => oracle::judge_plan(kind, self.wan, paths, &self.requests[i], bytes),
        }
    }
}

/// Judges the answer to request `i`, outside the timed section.
type Verify<'a> = dyn Fn(usize, &[u8]) -> Result<(), String> + Sync + 'a;

/// One timed op's outcome.
struct Sample {
    /// Index of the request sent.
    shape: usize,
    ms: f64,
    why: Option<String>,
}

/// What one closed-loop client measured: its ops in the order sent, whole
/// passes over the requests.
struct Timed {
    samples: Vec<Sample>,
}

impl Timed {
    fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| s.why.is_some()).count() as u64
    }

    /// Timed ops ÷ the time they took. The client sends the next request as
    /// soon as it has the answer; judging the answer in between is the
    /// harness's time, not the system's, and is left out.
    fn ops_per_second(&self) -> f64 {
        self.samples.len() as f64 / (self.samples.iter().map(|s| s.ms).sum::<f64>() / 1e3)
    }

    /// Op times of one request shape.
    fn shape(&self, i: usize) -> impl Iterator<Item = f64> + '_ {
        self.samples.iter().filter(move |s| s.shape == i).map(|s| s.ms)
    }
}

/// Closed loop: whole passes over the requests until `seconds` have gone
/// by (at least one pass). `verify` judges each answer outside the timed
/// section.
fn timed_passes(
    client: &mut Client<'_>,
    requests: &[Request],
    first: usize,
    seconds: f64,
    verify: &Verify<'_>,
) -> Timed {
    let start = Instant::now();
    let mut samples = Vec::new();
    loop {
        for k in 0..requests.len() {
            let i = (first + k) % requests.len();
            let t0 = Instant::now();
            let out = client.call(&requests[i].text);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let why = out.and_then(|bytes| verify(i, &bytes)).err();
            samples.push(Sample { shape: i, ms, why });
        }
        if start.elapsed().as_secs_f64() >= seconds {
            return Timed { samples };
        }
    }
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of the timed passes, and a note per request shape.
///
/// Two statistics of the same ops that answer different questions.
/// `latency_ms_p10` is the floor: each request shape's 10th-percentile op,
/// averaged over the shapes. The minimum would do but for lucky ops (on
/// `serve-closed-small` the delayed-ACK stall now and then does not fire and
/// an op takes 2 ms instead of 88); the median would do but for a neighbour
/// on the sibling hyperthread, which slows a 2-core sandbox by up to 1.5× for
/// seconds at a time. `throughput_rps` is what the callers got: every timed
/// op over the time they took, so a stall that hits only some ops (a
/// periodic rebuild, an eviction, a queue) shows there even though the floor
/// does not move — at the price of a wider spread, hence a wider bound.
fn end_to_end(
    per_client: &[Timed],
    shapes: usize,
    setup_s: &[f64],
) -> (BTreeMap<&'static str, f64>, Vec<String>) {
    let by_shape: Vec<Vec<f64>> = (0..shapes)
        .map(|i| per_client.iter().flat_map(|t| t.shape(i)).collect())
        .collect();
    let floor: Vec<f64> = by_shape.iter().map(|ms| percentile(ms, 10.0)).collect();
    let notes = by_shape
        .iter()
        .zip(&floor)
        .enumerate()
        .map(|(i, (ms, p10))| {
            format!(
                "shape {i} p10 {p10:.3} ms median {:.3} ms of {} ops",
                median(ms),
                ms.len()
            )
        })
        .collect();
    let metrics = BTreeMap::from([
        ("latency_ms_p10", floor.iter().sum::<f64>() / shapes as f64),
        (
            "throughput_rps",
            per_client.iter().map(Timed::ops_per_second).sum(),
        ),
        ("setup_s", median(setup_s)),
        ("peak_rss_mib", peak_rss_mib()),
    ]);
    (metrics, notes)
}

/// What `expected/<workload>.txt` pins for the default seed.
fn expected_file(w: &Workload) -> Result<(u64, Vec<Class>), String> {
    let path = format!("benchmark/expected/{}.txt", w.name);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let mut fingerprint = None;
    let mut classes = Vec::new();
    for line in text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        if let Some(hex) = line.strip_prefix("fingerprint ") {
            fingerprint = u64::from_str_radix(hex.trim(), 16).ok();
        } else if let Some(class) = line.strip_prefix("request ") {
            classes.push(
                class
                    .split_once(' ')
                    .map_or("", |(_, c)| c)
                    .trim()
                    .to_string(),
            );
        }
    }
    let fingerprint = fingerprint.ok_or_else(|| format!("{path}: no fingerprint line"))?;
    Ok((fingerprint, classes))
}

/// Run one workload once.
pub fn run(w: &'static Workload, args: &Args, trace: bool) -> Result<RunResult, String> {
    let quick = args.seconds <= 0.0;
    let mut setup_s: Vec<f64> = Vec::new();
    // Set up from scratch several times; the last set-up stays for the passes.
    let mut result = loop {
        let t0 = Instant::now();
        let wan = layers::build_network(w.net);
        let build_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut b = Bench::open(w, &wan, args.seed)?;
        let answers = b.first_answers()?;
        setup_s.push(t0.elapsed().as_secs_f64());
        let enough = quick
            || setup_s.len() >= MAX_SETUPS
            || (setup_s.len() >= MIN_SETUPS && setup_s.iter().sum::<f64>() >= SETUP_BUDGET_S);
        if !enough {
            b.close()?;
            continue;
        }
        b.setup_ms.insert("wan.build_ms", build_ms);
        let result = measure(&mut b, args, trace, &setup_s, answers);
        b.close()?;
        break result?;
    };
    result.failures.truncate(5);
    for why in &result.failures {
        eprintln!("jjbench: {}: failed op: {why}", w.name);
    }
    Ok(result)
}

fn measure(
    b: &mut Bench<'_>,
    args: &Args,
    trace: bool,
    setup_s: &[f64],
    answers: Vec<Vec<u8>>,
) -> Result<RunResult, String> {
    let w = b.w;
    let mut failures: Vec<String> = Vec::new();
    let fingerprint = workloads::fingerprint(&b.requests);

    // Refuse to time anything if the default seed no longer generates the
    // pinned request texts: the numbers would not be comparable.
    let pinned = if args.seed == DEFAULT_SEED {
        let (want, classes) = expected_file(w)?;
        if want != fingerprint {
            return Err(format!(
                "{}: request fingerprint {fingerprint:016x} is not the pinned {want:016x} — \
                 the generator or the WAN changed; re-pin benchmark/expected/ in a change of its own",
                w.name
            ));
        }
        Some(classes)
    } else {
        None
    };

    // Validation: the set-up's answer to every distinct request, judged by
    // the oracle; its bytes become the reference for the passes.
    let paths = Paths::enumerate(b.wan);
    let mut classes: Vec<Class> = Vec::new();
    for (i, bytes) in answers.iter().enumerate() {
        let class = match b.judge(&paths, i, bytes) {
            Ok(c) => c,
            Err(e) => {
                failures.push(format!("request {i}: {e}"));
                "wrong".to_string()
            }
        };
        if matches!(w.door, Door::Serve | Door::Shard) {
            let local = doors::query(&b.wan.net, &b.wan.config, &b.requests[i].text)?;
            if local != *bytes {
                failures.push(format!(
                    "request {i}: body differs from the query door's bytes"
                ));
            }
        }
        classes.push(class);
    }
    let reference = answers;
    if let Some(want) = &pinned {
        if *want != classes {
            failures.push(format!(
                "verdict classes {classes:?} are not the pinned {want:?}"
            ));
        }
    }
    let validation_failed = failures.len() as u64;

    // Judging an answer during the passes: session answers carry a
    // generation counter, so they are re-judged; every other door is
    // deterministic down to the byte.
    let requests = b.requests.clone();
    let churn = w.kind == Kind::Churn;
    let verify = move |i: usize, bytes: &[u8]| -> Result<(), String> {
        if churn {
            oracle::judge_watch(&requests[i], bytes).map(|_| ())
        } else if reference[i] == bytes {
            Ok(())
        } else {
            Err(format!(
                "request {i}: bytes differ from the validated answer"
            ))
        }
    };

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut notes = Vec::new();
    let (attempted, failed);
    if trace {
        let (a, f) = traced(
            b,
            args,
            setup_s,
            &verify,
            &mut values,
            &mut notes,
            &mut failures,
        )?;
        attempted = a + b.requests.len() as u64;
        failed = f + validation_failed;
    } else {
        let requests = &b.requests;
        let per_client: Vec<Timed> = if b.clients.len() == 1 {
            vec![timed_passes(
                &mut b.clients[0],
                requests,
                0,
                args.seconds,
                &verify,
            )]
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = b
                    .clients
                    .iter_mut()
                    .enumerate()
                    .map(|(c, client)| {
                        let verify = &verify;
                        s.spawn(move || timed_passes(client, requests, c, args.seconds, verify))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect()
            })
        };
        let (metrics, shapes) = end_to_end(&per_client, requests.len(), setup_s);
        values.extend(metrics);
        notes = shapes;
        let ops: usize = per_client.iter().map(|t| t.samples.len()).sum();
        attempted = (ops + b.requests.len()) as u64;
        failed = per_client.iter().map(Timed::failed).sum::<u64>() + validation_failed;
        failures.extend(
            per_client
                .into_iter()
                .flat_map(|t| t.samples)
                .filter_map(|s| s.why),
        );
    }

    let listed = |defs: &[crate::metrics::MetricDef]| {
        defs.iter()
            .map(|d| (d.name, values.get(d.name).copied().unwrap_or(0.0), d.unit))
            .collect()
    };
    Ok(RunResult {
        attempted,
        failed,
        failures,
        metrics: listed(if trace { PER_LAYER } else { END_TO_END }),
        untraced_pass: if trace {
            listed(END_TO_END)
        } else {
            Vec::new()
        },
        notes,
        fingerprint,
        classes,
    })
}

/// The spans that are the op itself inside a traced pass — what the timed
/// run measures with tracing off.
fn own_spans(door: Door) -> &'static [&'static str] {
    match door {
        Door::Query => &["door.query"],
        Door::Session => &["core.incr_parse", "core.incr_recheck", "core.render"],
        Door::Serve => &["serve.roundtrip"],
        Door::Shard => &["shard.roundtrip"],
    }
}

/// One traced pass's times, per op: the self time of the spans recorded
/// since `mark`, under their metric names (a layer's time is its spans'
/// duration minus what their child spans cover), and the durations the
/// engine reported about itself.
fn pass_row(t: &Trace, door: Door, mark: usize, ops: usize) -> BTreeMap<&'static str, f64> {
    let totals = t.rec.totals(mark);
    let per_op = |span: &str| totals.get(span).map(|t| t.self_ms / ops as f64);
    let mut row: BTreeMap<&'static str, f64> = BTreeMap::new();
    for d in PER_LAYER.iter().filter(|d| d.unit == "ms") {
        if let Some(ms) = per_op(d.name.trim_end_matches("_ms")) {
            row.insert(d.name, ms);
        }
    }
    // Spans that feed derived rows only.
    for (name, span) in [
        ("serve.roundtrip_traced_ms", "serve.roundtrip_traced"),
        ("shard.slice_ms_sum", "shard.slice"),
    ] {
        if let Some(ms) = per_op(span) {
            row.insert(name, ms);
        }
    }
    // An op's time is its spans' whole duration, children and all.
    let own: f64 = own_spans(door)
        .iter()
        .filter_map(|s| totals.get(s))
        .map(|t| t.total_ms)
        .sum();
    row.insert("trace.op_ms", own / ops as f64);
    for (name, ms) in &t.engine_ms {
        row.insert(name, ms / ops as f64);
    }
    if totals.contains_key("shard.slice") {
        // The slowest slice of each request (spans of one request share its
        // id), averaged over the requests.
        let mut worst: BTreeMap<u64, f64> = BTreeMap::new();
        for s in t.rec.spans()[mark..]
            .iter()
            .filter(|s| s.name == "shard.slice")
        {
            let ms = s.dur_ns() as f64 / 1e6;
            let e = worst.entry(s.request).or_insert(0.0);
            *e = e.max(ms);
        }
        row.insert(
            "shard.slice_ms_max",
            worst.values().sum::<f64>() / ops as f64,
        );
    }
    row
}

/// The rows that are differences of other rows, computed once the fastest
/// pass of each has been picked (the minimum of a difference would pick the
/// pass where the two sides were disturbed most unequally).
fn derived_rows(values: &mut BTreeMap<&'static str, f64>, untraced_op_ms: f64) {
    let v = |name: &str| values.get(name).copied();
    let mut derived = Vec::new();
    if let Some(check) = v("core.check_ms") {
        let replayed: f64 = [
            "acl.diff_ms",
            "acl.reduce_ms",
            "net.predicates_ms",
            "acl.refine_ms",
            "net.paths_ms",
            "solver.encode_ms",
            "solver.solve_ms",
        ]
        .iter()
        .filter_map(|n| v(n))
        .sum();
        derived.push(("core.check_self_ms", check - replayed));
    }
    let query = v("door.query_ms").unwrap_or(0.0);
    if let Some(roundtrip) = v("serve.roundtrip_ms") {
        derived.push(("serve.overhead_ms", roundtrip - query));
        if let Some(armed) = v("serve.roundtrip_traced_ms") {
            derived.push(("obs.recorder_overhead_ms", armed - roundtrip));
        }
    }
    if let Some(roundtrip) = v("shard.roundtrip_ms") {
        derived.push(("shard.overhead_ms", roundtrip - query));
    }
    if let Some(op) = v("trace.op_ms") {
        derived.push((
            "trace.overhead_pct",
            (op - untraced_op_ms) / untraced_op_ms * 100.0,
        ));
    }
    values.extend(derived);
}

/// Share of `--seconds` the traced run spends on passes with tracing off.
const UNTRACED_SHARE: f64 = 0.25;

/// The traced run: passes with tracing off for a quarter of the time (the
/// base of `trace.overhead_pct`, and the samples of `e2e.latency_ms_p50` /
/// `_p90`), then traced passes until the time is up. Times are per op, from
/// the fastest pass; counts come from the first pass and must repeat
/// exactly in every other.
fn traced(
    b: &mut Bench<'_>,
    args: &Args,
    setup_s: &[f64],
    verify: &Verify<'_>,
    values: &mut BTreeMap<&'static str, f64>,
    notes: &mut Vec<String>,
    failures: &mut Vec<String>,
) -> Result<(u64, u64), String> {
    let w = b.w;
    let ops = b.requests.len();
    let (mut attempted, mut failed) = (0u64, 0u64);

    let base = timed_passes(
        &mut b.clients[0],
        &b.requests,
        0,
        args.seconds * UNTRACED_SHARE,
        verify,
    );
    attempted += base.samples.len() as u64;
    failed += base.failed();
    let base_ms: Vec<f64> = base.samples.iter().map(|s| s.ms).collect();
    values.insert("e2e.latency_ms_p50", percentile(&base_ms, 50.0));
    values.insert("e2e.latency_ms_p90", percentile(&base_ms, 90.0));
    // Per op, from the fastest pass — the statistic the traced passes use.
    let untraced_op_ms = base_ms
        .chunks(ops)
        .map(|pass| pass.iter().sum::<f64>() / ops as f64)
        .fold(f64::INFINITY, f64::min);
    let (metrics, shapes) = end_to_end(std::slice::from_ref(&base), ops, setup_s);
    values.extend(metrics);
    *notes = shapes;

    let mut t = Trace::new();
    let mut per_pass: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut first_counts: Option<layers::Counts> = None;
    let start = Instant::now();
    let reference = (&b.wan.net, &b.wan.config);
    let backends = b.fanout.as_ref().map_or(0, |f| f.backends.len());
    loop {
        let mark = t.rec.mark();
        t.counts.clear();
        t.engine_ms.clear();
        for i in 0..ops {
            let text = &b.requests[i].text;
            let out = match &mut b.clients[0] {
                Client::Query { net, config } => layers::traced_query(&mut t, net, config, text),
                Client::Session(s) => layers::traced_session(&mut t, s, text),
                Client::Http(conn) if w.door == Door::Serve => {
                    layers::traced_serve(&mut t, conn, reference, text, &b.noop)
                }
                Client::Http(conn) => layers::traced_shard(&mut t, conn, backends, reference, text),
            };
            attempted += 1;
            if let Err(e) = out.and_then(|bytes| verify(i, &bytes)) {
                failed += 1;
                failures.push(e);
            }
        }
        per_pass.push(pass_row(&t, w.door, mark, ops));

        match &first_counts {
            None => first_counts = Some(t.counts.clone()),
            Some(first) if *first != t.counts => {
                failed += 1;
                failures.push(format!(
                    "counts changed between traced passes: {first:?} then {:?}",
                    t.counts
                ));
            }
            Some(_) => {}
        }
        if start.elapsed().as_secs_f64() >= args.seconds * (1.0 - UNTRACED_SHARE) {
            break;
        }
    }

    // par: the same op at 2 engine threads — a number only from a host
    // that has the cores.
    if w.name == "check-pass-large" {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        if cores >= 2 {
            let mark = t.rec.mark();
            for i in 0..ops {
                let out =
                    layers::traced_query_2t(&mut t, reference.0, reference.1, &b.requests[i].text);
                attempted += 1;
                if let Err(e) = out.and_then(|bytes| verify(i, &bytes)) {
                    failed += 1;
                    failures.push(e);
                }
            }
            let ms = t.rec.totals(mark)["par.check_2t"].self_ms / ops as f64;
            values.insert("par.check_ms_2t", ms);
        }
    }

    // The fastest pass is what repeats (see `end_to_end` on neighbours).
    for row in &per_pass {
        for (name, ms) in row {
            let best = values.entry(name).or_insert(f64::INFINITY);
            *best = best.min(*ms);
        }
    }
    derived_rows(values, untraced_op_ms);
    let counts = first_counts.unwrap_or_default();
    for d in PER_LAYER.iter().filter(|d| d.unit == "count") {
        if let Some(n) = counts.get(d.name) {
            values.insert(d.name, *n as f64);
        }
    }
    if let (Some(&bq), Some(&uq)) = (
        counts.get("shard.backend_queries"),
        counts.get("shard.unsharded_queries"),
    ) {
        values.insert("shard.duplication_ratio", bq as f64 / uq.max(1) as f64);
    }
    for (name, ms) in &b.setup_ms {
        values.insert(name, *ms);
    }
    if let Some(d) = &b.daemon {
        let snap = layers::daemon_snapshot(&d.addr)?;
        if let Some(h) = snap.histogram("serve.latency_us.check") {
            values.insert("serve.latency_ms_p99", h.p99 as f64 / 1e3);
        }
        values.insert("serve.shed", snap.counter("serve.queue_shed_total") as f64);
    }
    for m in &t.mismatched {
        failed += 1;
        failures.push(format!("mismatched: {m}"));
    }
    // Not failed ops: the answers were right, the ruler's own model of the
    // pipeline was not (see layers.rs). `replay.diverged` carries the count.
    t.diverged.sort();
    t.diverged.dedup();
    for d in t.diverged.iter().take(5) {
        eprintln!("jjbench: {}: replay diverged: {d}", w.name);
    }
    if let Some(path) = &args.trace_out {
        std::fs::write(path, t.rec.to_chrome_json(w.name)).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok((attempted, failed))
}
