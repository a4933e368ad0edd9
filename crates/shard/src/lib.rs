#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # jinjing-shard
//!
//! The sharded-verification coordinator: one resident network behind a
//! small HTTP front end, with the solver fan-out distributed over N
//! `jinjing-serve` backends by consistent-hashing the forwarding
//! equivalence classes ([`jinjing_acl::shard::ShardSpec`]).
//!
//! ```text
//! POST /v1/check     LAI intent text → canonical plan JSON
//! POST /v1/lint      optional intent text → lint report JSON
//! POST /v1/plan      intent [+ #target deltas] → rollout plan JSON
//! GET  /healthz      backend count + status, canonical JSON
//! GET  /metrics.json coordinator obs merged with backend snapshots
//! POST /v1/shutdown  stop accepting, return the summary
//! ```
//!
//! **Byte-identity at any shard count.** The coordinator runs the full
//! engine *locally* — parsing, resolution, candidate enumeration, witness
//! materialization, and every byte of rendering — and delegates only the
//! per-`(class, path)` solver fan-out through
//! [`jinjing_core::check::CheckDelegate`]. Each backend evaluates the
//! class slice its [`ShardSpec`](jinjing_acl::shard::ShardSpec) owns and
//! reports the shard-local minimum violating pair in **global**
//! coordinates; the coordinator takes the lexicographic minimum, re-solves
//! that single pair locally to materialize the witness packet, and renders
//! the canonical document. Responses are therefore byte-identical to a
//! single-process run at every shard count — the same contract
//! `--threads` honors, and the same goldens pin both. `/v1/check` and
//! `/v1/plan` *are* the daemon's handler ([`jinjing_serve::answer_query`])
//! run under that delegated engine configuration, so bodies, error
//! documents and `X-Jinjing-Exit` codes cannot drift between the two.
//!
//! **Wire protocol.** Backends expose `POST /v1/shard/check`: the intent
//! text plus `#shard-base` / `#shard-apply` delta-script sections carrying
//! the exact before/after configurations (rendered against the resident
//! configuration both sides hold), and an `X-Jinjing-Shard: i/n` header
//! naming the slice. One kept-alive connection per backend carries every
//! fan-out ([`jinjing_serve::client::Conn`]).
//!
//! **Streaming.** A request carrying `X-Jinjing-Stream` is answered with
//! `Transfer-Encoding: chunked`: each completed backend emits a
//! newline-terminated progress document (`{"done":k,"shards":n}`), and
//! the final chunk is the complete canonical body — byte-identical to the
//! unstreamed response. Streamed responses are always HTTP 200 with no
//! `X-Jinjing-Exit` header; failures arrive as the canonical error
//! document in the final chunk.
//!
//! **No partial results.** A backend that is down, answers non-200, or
//! ships a malformed shard report fails the whole request with the
//! canonical error JSON (HTTP 502) — never a silently partial verdict.
//! One `fan_out` carries both the check delegate and the lint merge, and
//! the 502 comes from the error's type
//! ([`jinjing_core::query::QueryError::Shard`]), not from its text.
//!
//! Std-only like every other crate: `TcpListener` + `jinjing-serve`'s
//! hand-rolled HTTP, no runtime, no TLS.

use std::collections::BTreeSet;
use std::fmt;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use jinjing_core::check::CheckDelegate;
use jinjing_core::engine::EngineConfig;
use jinjing_core::query::{Answer, Reject};
use jinjing_lint::LintReport;
use jinjing_net::{AclConfig, Network, Slot};
use jinjing_obs::json::{self, JsonWriter};
use jinjing_obs::{Collector, Level, Snapshot};
use jinjing_serve::answer_query;
use jinjing_serve::client::Conn;
use jinjing_serve::http::{read_request, ChunkedWriter, HttpError, Request, Response};

/// How long a read on an accepted front-end connection may stall.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Everything that can go wrong standing the coordinator up.
#[derive(Debug)]
pub struct ShardError(pub String);

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ShardError {}

impl From<std::io::Error> for ShardError {
    fn from(e: std::io::Error) -> ShardError {
        ShardError(format!("io error: {e}"))
    }
}

/// Coordinator configuration: where to listen and which backends carry
/// the fan-out.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Listen address, e.g. `127.0.0.1:8090`; port `0` asks the OS for an
    /// ephemeral port (read it back via [`Coordinator::local_addr`] or
    /// `port_file`).
    pub addr: String,
    /// Backend `host:port` addresses, one per shard. Shard `i` of `n` is
    /// `backends[i]`; the fan-out width *is* the backend count.
    pub backends: Vec<String>,
    /// Engine worker threads for the coordinator's local work (candidate
    /// enumeration, witness re-solve). Responses are byte-identical for
    /// every value.
    pub threads: usize,
    /// Largest accepted request body in bytes; larger declares 413.
    pub max_body: usize,
    /// Per-backend call timeout in milliseconds.
    pub timeout_ms: u64,
    /// Write the bound address (`host:port`, one line) here once
    /// listening.
    pub port_file: Option<String>,
    /// Write the final merged observability snapshot here on shutdown.
    pub metrics_out: Option<String>,
    /// Stream observability events to stderr as they happen.
    pub trace: bool,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig {
            addr: "127.0.0.1:0".to_string(),
            backends: Vec::new(),
            threads: 0,
            max_body: 1 << 20,
            timeout_ms: 30_000,
            port_file: None,
            metrics_out: None,
            trace: false,
        }
    }
}

/// What a finished coordinator reports back to its starter.
#[derive(Debug)]
pub struct CoordSummary {
    /// Requests parsed off the wire.
    pub requests: u64,
    /// The coordinator's own snapshot merged with every backend snapshot
    /// it accumulated — the same data `metrics_out` receives.
    pub snapshot: Snapshot,
}

/// One kept-alive connection per backend, shard `i` of `n` behind
/// `conns[i]`; a connection is locked for the duration of one fan-out
/// call, so concurrent requests to the *same* backend serialize on its
/// connection (requests to different backends proceed in parallel).
struct BackendPool {
    conns: Vec<Mutex<Conn>>,
}

impl BackendPool {
    /// Prepare the connections; dialing is lazy.
    fn new(backends: &[String], timeout: Duration) -> Result<BackendPool, String> {
        let conns = backends
            .iter()
            .map(|addr| Conn::new(addr, timeout).map(Mutex::new))
            .collect::<Result<_, _>>()?;
        Ok(BackendPool { conns })
    }

    fn len(&self) -> usize {
        self.conns.len()
    }
}

/// A progress sink for streamed responses: receives newline-terminated
/// JSON documents as backends complete.
pub type Progress = Arc<dyn Fn(String) + Send + Sync>;

/// The one fan-out: post `body` to `path` on every backend at once, each
/// under its `X-Jinjing-Shard: i/n` slice, and read every 200 reply with
/// `parse`. Each finished backend emits a `{"done":k,"shards":n}`
/// progress document. Results come back in shard order with the failing
/// slice and backend named; callers fail the whole request on the first
/// `Err` — never a partial answer.
fn fan_out<T: Send>(
    pool: &BackendPool,
    path: &str,
    body: &[u8],
    progress: Option<&Progress>,
    parse: impl Fn(&str) -> Result<T, String> + Sync,
) -> Vec<Result<T, String>> {
    let n = pool.len();
    let done = AtomicUsize::new(0);
    let call = |i: usize| {
        let mut conn = pool.conns[i].lock().unwrap_or_else(PoisonError::into_inner);
        let slice = [("X-Jinjing-Shard".to_string(), format!("{i}/{n}"))];
        let reply = conn.call("POST", path, &slice, body);
        let addr = conn.addr();
        let result = match reply {
            Err(e) => Err(format!("backend {addr}: {e}")),
            Ok(resp) if resp.status != 200 => Err(format!(
                "backend {addr} answered {}: {}",
                resp.status,
                resp.body_text().trim()
            )),
            Ok(resp) => parse(&resp.body_text()).map_err(|e| format!("backend {addr}: {e}")),
        };
        let k = done.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(p) = progress {
            let mut w = JsonWriter::new();
            w.begin_object();
            w.key("done");
            w.u64(k as u64);
            w.key("shards");
            w.u64(n as u64);
            w.end_object();
            p(w.finish() + "\n");
        }
        result.map_err(|e| format!("shard {i}/{n}: {e}"))
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n).map(|i| s.spawn(move || call(i))).collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("shard worker panicked".to_string()))
            })
            .collect()
    })
}

/// Fan a `/v1/lint` body out and merge the partitioned reports
/// ([`LintReport::merge`] + sort): byte-identical to an unsharded
/// `jinjing lint --format json`. A failed slice is a 502.
fn lint_fan_out(
    pool: &BackendPool,
    body: &[u8],
    progress: Option<&Progress>,
) -> Result<Answer, Reject> {
    let parse =
        |text: &str| LintReport::from_json(text).map_err(|e| format!("bad lint report: {e}"));
    let mut merged = LintReport::new();
    for report in fan_out(pool, "/v1/lint", body, progress, parse) {
        merged.merge(report.map_err(|message| Reject {
            status: 502,
            message,
        })?);
    }
    merged.sort();
    Ok(Answer::of_lint(&merged))
}

/// The `jinjing call --shards` path: [`Coordinator`]'s `/v1/lint` merge
/// without a coordinator — one lint body fanned out over `backends`
/// directly. Only lint is mergeable client-side; verdict-bearing
/// endpoints need the coordinator's local engine.
pub fn lint_sharded(backends: &[String], body: &[u8], timeout: Duration) -> Result<Answer, Reject> {
    let pool = BackendPool::new(backends, timeout).map_err(Reject::bad_request)?;
    lint_fan_out(&pool, body, None)
}

/// Per-request fan-out totals, folded into the coordinator's metrics
/// after the request completes.
struct ShardAccum {
    snapshot: Snapshot,
    dirty_pairs: u64,
    queries: u64,
    fan_outs: u64,
}

impl ShardAccum {
    fn new() -> ShardAccum {
        ShardAccum {
            snapshot: Snapshot::empty(),
            dirty_pairs: 0,
            queries: 0,
            fan_outs: 0,
        }
    }
}

/// One backend's parsed `/v1/shard/check` reply.
struct WireReport {
    dirty_pairs: u64,
    queries: u64,
    pair: Option<(usize, usize)>,
    snapshot: Snapshot,
}

impl WireReport {
    fn parse(text: &str) -> Result<WireReport, String> {
        let doc = json::parse(text.trim()).map_err(|e| format!("malformed shard report: {e}"))?;
        if doc.get("status").and_then(json::Json::as_str) != Some("ok") {
            return Err("shard report without status ok".to_string());
        }
        let grab = |k: &str| {
            doc.get(k)
                .and_then(json::Json::as_u64)
                .ok_or_else(|| format!("shard report missing {k}"))
        };
        let pair = doc.get("pair").and_then(|p| {
            Some((
                p.get("class")?.as_u64()? as usize,
                p.get("path")?.as_u64()? as usize,
            ))
        });
        let snapshot = match doc.get("obs") {
            Some(v) => {
                Snapshot::from_json_value(v).map_err(|e| format!("malformed obs snapshot: {e}"))?
            }
            None => Snapshot::empty(),
        };
        Ok(WireReport {
            dirty_pairs: grab("dirty_pairs")?,
            queries: grab("queries")?,
            pair,
            snapshot,
        })
    }
}

/// The [`CheckDelegate`] that ships each check fan-out to the backends:
/// renders the before/after configurations as delta scripts against the
/// resident configuration, posts one `/v1/shard/check` per backend
/// concurrently, and merges the shard-local minima into the global
/// minimum violating pair. Any backend failure fails the whole fan-out.
struct RemoteDelegate {
    net: Arc<Network>,
    resident: AclConfig,
    intent: String,
    pool: Arc<BackendPool>,
    accum: Arc<Mutex<ShardAccum>>,
    progress: Option<Progress>,
}

impl fmt::Debug for RemoteDelegate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RemoteDelegate")
            .field("backends", &self.pool.len())
            .finish_non_exhaustive()
    }
}

/// Render the slot-wise difference `from → to` as a delta script
/// ([`jinjing_core::incr::parse_delta_script`] grammar): one `set` line
/// per slot whose ACL changed or appeared (its lines joined by `; `), one
/// `clear` per slot that vanished, in sorted slot order. Equal
/// configurations render empty.
fn render_delta(net: &Network, from: &AclConfig, to: &AclConfig) -> String {
    let topo = net.topology();
    let mut slots: BTreeSet<Slot> = from.slots().into_iter().collect();
    slots.extend(to.slots());
    let mut out = String::new();
    for slot in slots {
        let name = || format!("{}-{}", topo.iface_name(slot.iface), slot.dir);
        match (from.get(slot), to.get(slot)) {
            (was, Some(acl)) if was != Some(acl) => {
                out.push_str(&format!("set {} {}\n", name(), acl.lines().join("; ")));
            }
            (Some(_), None) => {
                out.push_str(&format!("clear {}\n", name()));
            }
            _ => {}
        }
    }
    out
}

impl CheckDelegate for RemoteDelegate {
    fn check(
        &self,
        before: &AclConfig,
        after: &AclConfig,
    ) -> Result<Option<(usize, usize)>, String> {
        // The intent plus both section markers (always present, possibly
        // empty), so the backend checks exactly the configurations the
        // coordinator holds.
        let mut body = self.intent.clone();
        if !body.ends_with('\n') {
            body.push('\n');
        }
        body.push_str("#shard-base\n");
        body.push_str(&render_delta(&self.net, &self.resident, before));
        body.push_str("#shard-apply\n");
        body.push_str(&render_delta(&self.net, before, after));
        let reports = fan_out(
            &self.pool,
            "/v1/shard/check",
            body.as_bytes(),
            self.progress.as_ref(),
            WireReport::parse,
        );

        let mut min: Option<(usize, usize)> = None;
        let mut acc = self.accum.lock().unwrap_or_else(PoisonError::into_inner);
        acc.fan_outs += 1;
        for report in reports {
            let rep = report?;
            acc.dirty_pairs += rep.dirty_pairs;
            acc.queries += rep.queries;
            acc.snapshot.merge(&rep.snapshot);
            if let Some(p) = rep.pair {
                if min.map_or(true, |m| p < m) {
                    min = Some(p);
                }
            }
        }
        Ok(min)
    }
}

/// Shared immutable context for the request handlers.
struct Cx<'a> {
    net: &'a Arc<Network>,
    config: &'a AclConfig,
    cfg: &'a ShardConfig,
    obs: &'a Collector,
    pool: &'a Arc<BackendPool>,
    shard_obs: &'a Mutex<Snapshot>,
}

impl<'a> Clone for Cx<'a> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<'a> Copy for Cx<'a> {}

impl<'a> Cx<'a> {
    /// An engine config whose check fan-out is delegated to the backends.
    fn delegated_config(
        &self,
        intent: &str,
        accum: &Arc<Mutex<ShardAccum>>,
        progress: Option<Progress>,
    ) -> EngineConfig {
        let delegate = RemoteDelegate {
            net: self.net.clone(),
            resident: self.config.clone(),
            intent: intent.to_string(),
            pool: self.pool.clone(),
            accum: accum.clone(),
            progress,
        };
        let mut ecfg = EngineConfig {
            threads: self.cfg.threads,
            ..EngineConfig::default()
        };
        ecfg.check.delegate = Some(Arc::new(delegate));
        ecfg
    }

    /// Fold one request's fan-out totals into the coordinator metrics.
    fn absorb(&self, accum: &Arc<Mutex<ShardAccum>>) {
        let acc = accum
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.obs.counter_add("shard.fan_outs", acc.fan_outs);
        self.obs.counter_add("shard.dirty_pairs", acc.dirty_pairs);
        self.obs.counter_add("shard.queries", acc.queries);
        self.shard_obs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .merge(&acc.snapshot);
    }

    /// The coordinator's own snapshot merged with everything the
    /// backends reported — [`Snapshot::merge`] in production.
    fn merged_snapshot(&self) -> Snapshot {
        let mut snap = self.obs.snapshot();
        snap.merge(
            &self
                .shard_obs
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        snap
    }

    /// Send a response, counting the status class.
    fn respond(&self, stream: &mut TcpStream, resp: &Response) {
        self.obs
            .counter_add(&format!("shard.http_{}", resp.status), 1);
        if resp.write_to(stream).is_err() {
            self.obs.counter_add("shard.write_failures", 1);
        }
    }
}

/// `POST /v1/check|plan`: the daemon's own handler
/// ([`jinjing_serve::answer_query`]) run locally, with every check's
/// solver fan-out delegated to the backends. Byte-identical to the
/// single-process answer at any backend count; a failed fan-out
/// surfaces as the 502 [`Reject`] the query layer types it as.
fn query_endpoint(
    cx: Cx<'_>,
    path: &str,
    body: &str,
    progress: Option<Progress>,
) -> Result<Answer, Reject> {
    let accum = Arc::new(Mutex::new(ShardAccum::new()));
    let result = answer_query(cx.net, cx.config, path, body, |intent| {
        cx.delegated_config(intent, &accum, progress)
    });
    cx.absorb(&accum);
    result
}

/// Answer one engine request as a chunked stream: progress documents as
/// backends complete, then the complete canonical body as the final
/// chunk. The status line is always 200 (it is written before the work
/// runs); failures arrive as the canonical error document.
fn respond_streamed(
    cx: Cx<'_>,
    stream: &mut TcpStream,
    work: impl FnOnce(Option<Progress>) -> Response + Send,
) {
    let (tx, rx) = std::sync::mpsc::channel::<String>();
    let tx = Mutex::new(tx);
    let progress: Progress = Arc::new(move |doc: String| {
        if let Ok(tx) = tx.lock() {
            let _ = tx.send(doc);
        }
    });
    let mut writer = match ChunkedWriter::begin(stream, 200, "application/json", &[]) {
        Ok(w) => w,
        Err(_) => {
            cx.obs.counter_add("shard.write_failures", 1);
            return;
        }
    };
    let resp = std::thread::scope(|s| {
        let handle = s.spawn(move || work(Some(progress)));
        // The progress Arc lives inside the delegate; when the work
        // closure returns (dropping its engine config), the channel
        // disconnects and this drain ends.
        for doc in rx {
            let _ = writer.chunk(doc.as_bytes());
        }
        handle
            .join()
            .unwrap_or_else(|_| Response::error(500, "request worker panicked"))
    });
    cx.obs
        .counter_add(&format!("shard.http_{}", resp.status), 1);
    let ok = writer.chunk(&resp.body).is_ok() && writer.finish().is_ok();
    if !ok {
        cx.obs.counter_add("shard.write_failures", 1);
    }
}

/// The coordinator: a resident network + configuration in front of a
/// backend pool. [`Coordinator::bind`] claims the port;
/// [`Coordinator::run`] serves until a `POST /v1/shutdown`.
pub struct Coordinator {
    net: Arc<Network>,
    config: AclConfig,
    cfg: ShardConfig,
    listener: TcpListener,
    obs: Collector,
    pool: Arc<BackendPool>,
}

impl Coordinator {
    /// Bind the listener and prepare one kept-alive connection per
    /// backend (dialing is lazy — a backend may come up later, as long
    /// as it is reachable by the first fan-out).
    pub fn bind(
        net: Network,
        config: AclConfig,
        cfg: ShardConfig,
    ) -> Result<Coordinator, ShardError> {
        if cfg.backends.is_empty() {
            return Err(ShardError("at least one backend is required".to_string()));
        }
        let timeout = Duration::from_millis(cfg.timeout_ms.max(1));
        let pool = Arc::new(BackendPool::new(&cfg.backends, timeout).map_err(ShardError)?);
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| ShardError(format!("bind {}: {e}", cfg.addr)))?;
        let obs = Collector::with_trace(cfg.trace || jinjing_obs::trace_env_enabled());
        Ok(Coordinator {
            net: Arc::new(net),
            config,
            cfg,
            listener,
            obs,
            pool,
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> Result<SocketAddr, ShardError> {
        Ok(self.listener.local_addr()?)
    }

    /// Serve until a `POST /v1/shutdown` arrives. Requests are handled
    /// inline on the accept thread — the concurrency that matters is the
    /// per-request backend fan-out, not front-end parallelism.
    pub fn run(self) -> Result<CoordSummary, ShardError> {
        let Coordinator {
            net,
            config,
            cfg,
            listener,
            obs,
            pool,
        } = self;
        let addr = listener.local_addr()?;
        if let Some(path) = &cfg.port_file {
            std::fs::write(path, format!("{addr}\n"))
                .map_err(|e| ShardError(format!("{path}: {e}")))?;
        }
        let shard_obs: Mutex<Snapshot> = Mutex::new(Snapshot::empty());
        let cx = Cx {
            net: &net,
            config: &config,
            cfg: &cfg,
            obs: &obs,
            pool: &pool,
            shard_obs: &shard_obs,
        };
        obs.event(
            Level::Info,
            "shard.start",
            &format!("coordinating {} backends on {addr}", pool.len()),
        );

        for stream in listener.incoming() {
            let mut stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
            let _ = stream.set_write_timeout(Some(READ_TIMEOUT));
            let req = match read_request(&mut stream, cfg.max_body) {
                Ok(r) => r,
                Err(HttpError::Io(_)) => continue,
                Err(e) => {
                    obs.counter_add("shard.requests_total", 1);
                    cx.respond(&mut stream, &Reject::from(e).into());
                    continue;
                }
            };
            obs.counter_add("shard.requests_total", 1);
            if handle_request(cx, req, &mut stream) == Flow::Shutdown {
                break;
            }
        }

        obs.event(Level::Info, "shard.stop", "drained");
        let snapshot = cx.merged_snapshot();
        if let Some(path) = &cfg.metrics_out {
            std::fs::write(path, snapshot.to_json())
                .map_err(|e| ShardError(format!("{path}: {e}")))?;
        }
        Ok(CoordSummary {
            requests: snapshot.counter("shard.requests_total"),
            snapshot,
        })
    }
}

/// Whether the accept loop keeps serving after a request.
#[derive(PartialEq)]
enum Flow {
    Continue,
    Shutdown,
}

/// Dispatch one parsed front-end request.
fn handle_request(cx: Cx<'_>, req: Request, stream: &mut TcpStream) -> Flow {
    let streamed = req
        .header("x-jinjing-stream")
        .is_some_and(|v| !v.is_empty() && v != "0");
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let mut w = JsonWriter::new();
            w.begin_object();
            w.key("backends");
            w.u64(cx.pool.len() as u64);
            w.key("status");
            w.string("ok");
            w.end_object();
            let mut body = w.finish();
            body.push('\n');
            cx.respond(stream, &Response::json(200, body));
        }
        ("GET", "/metrics.json") => {
            let body = cx.merged_snapshot().to_json();
            cx.respond(stream, &Response::json(200, body));
        }
        ("POST", "/v1/shutdown") => {
            let mut w = JsonWriter::new();
            w.begin_object();
            w.key("status");
            w.string("draining");
            w.end_object();
            let body = w.finish() + "\n";
            cx.respond(stream, &Answer { body, exit: 0 }.into());
            return Flow::Shutdown;
        }
        ("POST", path @ ("/v1/check" | "/v1/plan" | "/v1/lint")) => {
            let Ok(text) = req.body_text() else {
                cx.respond(stream, &Response::error(400, "unreadable body"));
                return Flow::Continue;
            };
            let work = move |progress: Option<Progress>| -> Response {
                let result = match path {
                    "/v1/lint" => lint_fan_out(cx.pool, text.as_bytes(), progress.as_ref()),
                    _ => query_endpoint(cx, path, text, progress),
                };
                match result {
                    Ok(answer) => answer.into(),
                    Err(reject) => reject.into(),
                }
            };
            if streamed {
                respond_streamed(cx, stream, work);
            } else {
                let resp = work(None);
                cx.respond(stream, &resp);
            }
        }
        (method, path) => {
            cx.respond(
                stream,
                &Response::error(404, &format!("no route for {method} {path}")),
            );
        }
    }
    Flow::Continue
}

#[cfg(test)]
mod tests {
    use super::*;
    use jinjing_core::figure1::Figure1;
    use jinjing_core::query::{plan_query, run_query};
    use jinjing_serve::client;
    use jinjing_serve::{ServeConfig, Server};

    const CHECK_INTENT: &str = "\
acl PermitAll { permit all }
scope A:*, B:*, C:*, D:*
allow A:*, B:*
modify D:2 to PermitAll
check
";

    /// Spawn a backend daemon, returning its address and join handle.
    fn backend() -> (String, std::thread::JoinHandle<()>) {
        let f = Figure1::new();
        let srv = Server::bind(f.net, f.config, ServeConfig::default()).unwrap();
        let addr = srv.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            srv.run().unwrap();
        });
        (addr, handle)
    }

    /// Spawn a coordinator over the given backends.
    fn coordinator(backends: Vec<String>) -> (String, std::thread::JoinHandle<CoordSummary>) {
        let f = Figure1::new();
        let cfg = ShardConfig {
            backends,
            ..ShardConfig::default()
        };
        let coord = Coordinator::bind(f.net, f.config, cfg).unwrap();
        let addr = coord.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || coord.run().unwrap());
        (addr, handle)
    }

    fn call(addr: &str, method: &str, path: &str, body: &str) -> client::CallResponse {
        client::call(
            addr,
            method,
            path,
            &[],
            body.as_bytes(),
            Duration::from_secs(30),
        )
        .expect("call")
    }

    fn shutdown(addr: &str) {
        let r = call(addr, "POST", "/v1/shutdown", "");
        assert_eq!(r.status, 200);
    }

    #[test]
    fn acl_renders_to_one_parseable_line() {
        let acl = jinjing_acl::AclBuilder::default_deny()
            .deny_dst("1.0.0.0/8")
            .permit_dst("2.0.0.0/8")
            .build();
        // The `set` payload of a delta script: the ACL's lines on one.
        let line = acl.lines().join("; ");
        assert_eq!(
            line,
            "deny dst 1.0.0.0/8; permit dst 2.0.0.0/8; default deny"
        );
        let parsed = jinjing_acl::parse::parse_acl(&line.replace(';', "\n")).unwrap();
        assert_eq!(parsed, acl);
    }

    #[test]
    fn delta_rendering_round_trips_through_the_script_parser() {
        let f = Figure1::new();
        let mut to = f.config.clone();
        // One edit, one removal, everything else untouched.
        to.set(
            f.slot("A1"),
            jinjing_acl::AclBuilder::default_permit()
                .deny_dst("9.0.0.0/8")
                .build(),
        );
        to.clear(f.slot("C1"));
        let script = render_delta(&f.net, &f.config, &to);
        assert!(script.contains("set A:1-in"), "{script}");
        assert!(script.contains("clear C:1-in"), "{script}");
        let deltas = jinjing_core::incr::parse_delta_script(&f.net, &script).unwrap();
        let mut rebuilt = f.config.clone();
        for (_, d) in &deltas {
            rebuilt = d.applied_to(&rebuilt);
        }
        assert_eq!(rebuilt, to, "script must rebuild the target exactly");
        // Equal configurations render the empty script.
        assert_eq!(render_delta(&f.net, &f.config, &f.config), "");
    }

    #[test]
    fn coordinator_is_byte_identical_to_single_process_at_every_width() {
        // Single-process canonical bytes for check, lint, and plan.
        let f = Figure1::new();
        let ecfg = EngineConfig::default();
        let direct_check = run_query(&f.net, &f.config, CHECK_INTENT, &ecfg)
            .unwrap()
            .plan
            .to_canonical_json();
        let direct_plan = plan_query(&f.net, &f.config, CHECK_INTENT, None, &ecfg)
            .unwrap()
            .json;
        let lint_out = jinjing_core::engine::lint(
            &f.net,
            &f.config,
            None,
            &jinjing_lint::LintConfig::default(),
        );
        let jinjing_core::engine::ReportKind::Lint(lint_report) = lint_out.kind else {
            panic!("lint returned a non-lint report");
        };
        let mut direct_lint = lint_report.to_json();
        direct_lint.push('\n');

        for width in [1usize, 2] {
            let mut backends = Vec::new();
            let mut handles = Vec::new();
            for _ in 0..width {
                let (addr, handle) = backend();
                backends.push(addr);
                handles.push(handle);
            }
            let (coord_addr, coord_handle) = coordinator(backends.clone());

            let r = call(&coord_addr, "POST", "/v1/check", CHECK_INTENT);
            assert_eq!(r.status, 200, "{}", r.body_text());
            assert_eq!(r.exit_code(), 3);
            assert_eq!(
                r.body_text(),
                direct_check,
                "{width}-shard check must render identical bytes"
            );

            let r = call(&coord_addr, "POST", "/v1/lint", "");
            assert_eq!(r.status, 200, "{}", r.body_text());
            assert_eq!(
                r.body_text(),
                direct_lint,
                "{width}-shard lint must render identical bytes"
            );

            let r = call(&coord_addr, "POST", "/v1/plan", CHECK_INTENT);
            assert_eq!(r.status, 200, "{}", r.body_text());
            assert_eq!(
                r.body_text(),
                direct_plan,
                "{width}-shard plan must render identical bytes"
            );

            // The coordinator accumulated backend snapshots: solver work
            // happened remotely and is visible in the merged metrics.
            let r = call(&coord_addr, "GET", "/metrics.json", "");
            assert_eq!(r.status, 200);
            let merged = Snapshot::from_json(&r.body_text()).unwrap();
            assert!(merged.counter("solver.queries") > 0, "backend solver work");
            assert!(merged.counter("shard.fan_outs") > 0);

            shutdown(&coord_addr);
            let summary = coord_handle.join().unwrap();
            assert!(summary.requests >= 4);
            for addr in &backends {
                shutdown(addr);
            }
            for h in handles {
                h.join().unwrap();
            }
        }
    }

    #[test]
    fn a_down_backend_fails_the_request_with_canonical_json() {
        let (live, live_handle) = backend();
        // A dead address: bind an ephemeral port, then drop the listener.
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let (coord_addr, coord_handle) = coordinator(vec![live.clone(), dead]);

        let r = call(&coord_addr, "POST", "/v1/check", CHECK_INTENT);
        assert_eq!(r.status, 502, "{}", r.body_text());
        assert_eq!(r.exit_code(), 1);
        let doc = json::parse(r.body_text().trim()).unwrap();
        assert_eq!(doc.get("status").unwrap().as_u64(), Some(502));
        assert!(
            doc.get("error")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("shard 1/2"),
            "{}",
            r.body_text()
        );

        let r = call(&coord_addr, "POST", "/v1/lint", "");
        assert_eq!(r.status, 502, "lint fan-out must fail too");

        // An intent the endpoint does not serve is refused before its
        // check (here fix's certification) could fan out.
        let fix_intent = CHECK_INTENT.replace("\ncheck\n", "\nfix\n");
        let r = call(&coord_addr, "POST", "/v1/check", &fix_intent);
        assert_eq!(r.status, 400, "{}", r.body_text());
        assert!(
            r.body_text().contains("does not match endpoint /v1/check"),
            "{}",
            r.body_text()
        );

        shutdown(&coord_addr);
        coord_handle.join().unwrap();
        shutdown(&live);
        live_handle.join().unwrap();
    }

    #[test]
    fn streamed_responses_emit_progress_then_identical_bytes() {
        let (b1, h1) = backend();
        let (b2, h2) = backend();
        let (coord_addr, coord_handle) = coordinator(vec![b1.clone(), b2.clone()]);

        let plain = call(&coord_addr, "POST", "/v1/check", CHECK_INTENT);
        assert_eq!(plain.status, 200);

        let mut chunks: Vec<String> = Vec::new();
        let streamed = client::call_stream(
            &coord_addr,
            "POST",
            "/v1/check",
            &[("X-Jinjing-Stream".to_string(), "1".to_string())],
            CHECK_INTENT.as_bytes(),
            Duration::from_secs(30),
            &mut |chunk| chunks.push(String::from_utf8_lossy(chunk).to_string()),
        )
        .expect("streamed call");
        assert_eq!(streamed.status, 200);
        assert!(
            streamed.header("x-jinjing-exit").is_none(),
            "streamed responses carry no exit header"
        );
        assert_eq!(
            streamed.body_text(),
            plain.body_text(),
            "final chunk must be byte-identical to the unstreamed body"
        );
        assert!(
            chunks.len() >= 3,
            "two progress documents + the final body, got {chunks:?}"
        );
        let progress = json::parse(chunks[0].trim()).unwrap();
        assert_eq!(progress.get("shards").unwrap().as_u64(), Some(2));
        assert!(progress.get("done").unwrap().as_u64().unwrap() >= 1);

        shutdown(&coord_addr);
        coord_handle.join().unwrap();
        for (addr, h) in [(b1, h1), (b2, h2)] {
            shutdown(&addr);
            h.join().unwrap();
        }
    }

    #[test]
    fn coordinator_introspection_and_rejects() {
        let (b, bh) = backend();
        let (coord_addr, coord_handle) = coordinator(vec![b.clone()]);

        let r = call(&coord_addr, "GET", "/healthz", "");
        assert_eq!(r.status, 200);
        assert!(
            r.body_text().contains("\"backends\":1"),
            "{}",
            r.body_text()
        );

        let r = call(&coord_addr, "GET", "/nope", "");
        assert_eq!(r.status, 404);

        let r = call(&coord_addr, "POST", "/v1/check", "scope Z:*\ncheck\n");
        assert_eq!(r.status, 400);

        shutdown(&coord_addr);
        coord_handle.join().unwrap();
        shutdown(&b);
        bh.join().unwrap();
    }

    #[test]
    fn bind_rejects_an_empty_backend_list() {
        let f = Figure1::new();
        let Err(err) = Coordinator::bind(f.net, f.config, ShardConfig::default()) else {
            panic!("bind accepted an empty backend list");
        };
        assert!(err.to_string().contains("at least one backend"));
    }
}
