#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # jinjing-serve
//!
//! The long-running verification daemon: the same engine the `jinjing`
//! CLI drives, kept resident behind a small HTTP/1.1 JSON API so a
//! deployment pipeline can ask "is this update safe?" without paying
//! process start-up and network-spec parsing on every question.
//!
//! ```text
//! POST /v1/check                LAI intent text → canonical plan JSON
//! POST /v1/fix                  ditto (fix command)
//! POST /v1/generate             ditto (generate command)
//! POST /v1/lint                 optional intent text → lint report JSON
//! POST /v1/lint/multi           #tenant-sectioned intents → lint report JSON
//! POST /v1/plan                 intent [+ #target deltas] → rollout plan JSON
//! POST /v1/shard/check          shard-scoped check → wire verdict JSON
//! POST /v1/sessions             intent text → {"classes":…,"id":"s1"}
//! POST /v1/sessions/{id}/delta  delta script → watch JSON for the batch
//! DELETE /v1/sessions/{id}      drop a session
//! GET  /healthz                 queue/session gauges, canonical JSON
//! GET  /metrics                 live jinjing-obs snapshot, Prometheus text
//! GET  /metrics.json            the same snapshot, canonical JSON
//! GET  /v1/trace/{id}           captured flight-recorder trace, Chrome JSON
//! POST /v1/shutdown             graceful drain
//! ```
//!
//! **Tracing.** A one-shot request carrying `X-Jinjing-Trace: 1` runs
//! with a per-request flight recorder attached: the response gains an
//! `X-Jinjing-Trace-Id` header (deterministic —
//! [`jinjing_obs::trace_id_of`] over the intent text) and the rendered
//! Chrome `trace_event` JSON is parked in a bounded FIFO
//! ([`store::TraceStore`], capacity [`ServeConfig::max_traces`]) for
//! `GET /v1/trace/{id}`. Tracing is off by default and never changes
//! response bodies — the byte-identity contract below holds with it on.
//!
//! **The byte-identity contract.** A response body is byte-identical to
//! the corresponding CLI output: `/v1/check|fix|generate` return exactly
//! `jinjing run --format json`, `/v1/lint` exactly
//! `jinjing lint --format json`, `/v1/plan` exactly
//! `jinjing plan --format json`, and a session delta batch exactly the
//! `jinjing watch --format json` document for those steps. Both front
//! ends call the same renderers in [`jinjing_core::query`], so the golden
//! files under `tests/golden/` pin the daemon and the CLI at once.
//!
//! **One path, one exit rule.** Every queueable route is a row of one
//! endpoint table and runs through one `dispatch`: queue deadline → body
//! → trace opt-in → handler → response. A handler returns the query
//! layer's [`Answer`] (canonical body + the exit code `jinjing` itself
//! would exit with) or a typed [`Reject`]; `dispatch` alone turns either
//! into a response, the code riding in `X-Jinjing-Exit` (error documents
//! carry 1) for `jinjing call` to exit with.
//!
//! **Admission control.** The accept thread parses each request (with
//! head/body caps → 400/413) and answers the cheap introspection routes
//! inline; engine work is pushed onto a bounded
//! [`jinjing_par::queue::Bounded`] queue. A full queue sheds load
//! immediately — HTTP 429 with `Retry-After` — instead of letting latency
//! grow without bound, and a job that waits past its deadline
//! (`X-Jinjing-Deadline-Ms` or the server default) is answered 408
//! without touching the solver. Queue depth, per-endpoint latency
//! histograms, shed/eviction counters and request events all land in the
//! daemon's [`jinjing_obs::Collector`], which `/metrics` snapshots live.
//!
//! **Sessions.** `POST /v1/sessions` opens a resident
//! [`jinjing_core::incr::CheckSession`] (fresh per-session query cache,
//! so generation counters match the CLI's `watch`); deltas are re-checked
//! incrementally and *rejected* deltas leave the session base untouched —
//! the same policy as the in-process API. The store is LRU-capped:
//! opening past `max_sessions` evicts the least-recently-used session
//! (counted in `serve.sessions_evicted`) and later requests for it get a
//! clean 404.
//!
//! **Drain.** `POST /v1/shutdown` stops accepting, lets the workers
//! finish every admitted job, flushes a final metrics snapshot to
//! `--metrics-out` (when configured) and returns from [`Server::run`].
//! Std can't catch signals, so interactive use gets the same effect from
//! `drain_on_stdin_eof` (the `jinjing serve --drain-on-stdin-eof` flag):
//! closing the daemon's stdin triggers a self-POST of `/v1/shutdown`.
//!
//! **Sharding.** `POST /v1/shard/check` is the backend half of the
//! `jinjing-shard` coordinator: the body carries an intent plus optional
//! `#shard-base` / `#shard-apply` delta-script sections describing the
//! exact before/after configurations, and an `X-Jinjing-Shard: i/n`
//! header restricts the run to the equivalence classes that shard owns
//! (consistent hashing — [`jinjing_acl::shard::ShardSpec`]). The response
//! is a compact wire document (global violating pair, dirty-pair and
//! query counts, mergeable obs snapshot), *not* the canonical plan JSON:
//! the coordinator re-derives the witness and renders canonical bytes
//! locally, which is how byte-identity at any shard count falls out.
//! `/v1/lint` honors the same header by linting only shard-owned slots.
//!
//! **Keep-alive.** A request carrying `Connection: keep-alive` (the
//! crate's own [`client::Conn`] always does) pins its worker to the
//! connection after the response: follow-up requests on that socket skip
//! the admission queue and are served in place until the peer closes,
//! stays idle past [`KEEPALIVE_IDLE`], or [`KEEPALIVE_MAX_REQUESTS`] is
//! reached. Only the queueable engine routes are served on a pinned
//! connection — introspection GETs and `/v1/shutdown` want a dedicated
//! (close-delimited) connection, which is how the CLI issues them.
//!
//! Std-only, like every inner crate: the server is `TcpListener` + the
//! crate's own [`http`] parser; no runtime, no TLS, one request per
//! connection unless the client negotiates keep-alive.

pub mod client;
pub mod http;
pub mod store;

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use jinjing_acl::shard::ShardSpec;
use jinjing_core::engine::EngineConfig;
use jinjing_core::incr::CheckSession;
use jinjing_core::query::{
    lint_multi_query, lint_query, open_intent_session, plan_query, recheck_steps, run_resolved,
    Answer, Reject, ResolvedIntent, WatchOutput,
};
use jinjing_net::{AclConfig, Network};
use jinjing_obs::json::JsonWriter;
use jinjing_obs::{Collector, Level};
use jinjing_par::queue::{Bounded, PushError};

use http::{read_request, HttpError, Request, Response};
use store::{Lru, TraceStore};

/// How long a read on an accepted connection may stall before the
/// connection is dropped. Bounds the damage a trickling client can do to
/// the accept thread.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a pinned keep-alive connection may sit idle between requests
/// before its worker hangs up and returns to the admission queue. Short
/// on purpose: an idle pinned worker serves nobody else.
pub const KEEPALIVE_IDLE: Duration = Duration::from_secs(2);

/// Requests served per pinned connection before the server closes it and
/// makes the client re-enter admission — bounds how long one client can
/// monopolize a worker.
pub const KEEPALIVE_MAX_REQUESTS: usize = 1000;

/// Everything that can go wrong standing the daemon up, as a printable
/// message.
#[derive(Debug)]
pub struct ServeError(pub String);

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> ServeError {
        ServeError(format!("io error: {e}"))
    }
}

/// Daemon configuration: where to listen and how much work to admit.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:8080`; port `0` asks the OS for an
    /// ephemeral port (read it back via [`Server::local_addr`] or
    /// `port_file`).
    pub addr: String,
    /// Worker threads executing queued jobs (minimum 1).
    pub workers: usize,
    /// Bounded-queue capacity; a full queue answers 429.
    pub queue: usize,
    /// Default per-request deadline in milliseconds (0 = none). A job
    /// still queued past its deadline is answered 408 without running.
    /// Clients may override per request with `X-Jinjing-Deadline-Ms`.
    pub deadline_ms: u64,
    /// Largest accepted request body in bytes; larger declares 413.
    pub max_body: usize,
    /// LRU cap on resident check sessions.
    pub max_sessions: usize,
    /// FIFO cap on captured flight-recorder traces (`X-Jinjing-Trace`
    /// opt-in; fetched via `GET /v1/trace/{id}`).
    pub max_traces: usize,
    /// Engine worker threads per request (the CLI's `--threads`; 0 =
    /// consult `JINJING_THREADS`, default serial). Responses are
    /// byte-identical for every value.
    pub threads: usize,
    /// Write the final observability snapshot here on drain.
    pub metrics_out: Option<String>,
    /// Write the bound address (`host:port`, one line) here once
    /// listening — how scripts find an ephemeral port.
    pub port_file: Option<String>,
    /// Drain when stdin reaches EOF (the ctrl-d / supervisor-pipe story;
    /// std cannot catch SIGINT). Off by default so daemons started with
    /// stdin closed don't drain instantly.
    pub drain_on_stdin_eof: bool,
    /// Honor the test-only `X-Jinjing-Test-Delay-Ms` header, which makes
    /// a worker sleep before executing — how the integration tests and
    /// the bench saturate the queue deterministically. Never enable in
    /// production.
    pub allow_test_delay: bool,
    /// Stream observability events to stderr as they happen.
    pub trace: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue: 64,
            deadline_ms: 10_000,
            max_body: 1 << 20,
            max_sessions: 8,
            max_traces: 16,
            threads: 0,
            metrics_out: None,
            port_file: None,
            drain_on_stdin_eof: false,
            allow_test_delay: false,
            trace: false,
        }
    }
}

/// What a finished daemon reports back to its starter.
#[derive(Debug)]
pub struct ServeSummary {
    /// Requests parsed off the wire (including shed and errored ones).
    pub requests: u64,
    /// Jobs refused with 429 because the queue was full.
    pub shed: u64,
    /// The final observability snapshot (the same data `metrics_out`
    /// receives).
    pub snapshot: jinjing_obs::Snapshot,
}

/// The daemon: a resident network + ACL configuration behind a bound
/// listener. [`Server::bind`] claims the port (so callers can read
/// [`Server::local_addr`] before blocking); [`Server::run`] serves until
/// drained.
pub struct Server {
    net: Network,
    config: AclConfig,
    cfg: ServeConfig,
    listener: TcpListener,
    obs: Collector,
}

/// A server-resident check session plus the fields the watch renderer
/// needs that the session itself doesn't expose after opening.
struct SessionCell<'n> {
    session: CheckSession<'n>,
    class_count: usize,
}

/// One admitted request as its handler sees it.
struct Call<'r> {
    req: &'r Request,
    /// The request body as UTF-8 text.
    body: &'r str,
    /// The path's `{id}` capture (empty when the pattern has none).
    id: &'r str,
    /// This request's private engine configuration: a fresh collector
    /// and query store, with a flight recorder attached when traced.
    ecfg: EngineConfig,
}

type Handler = for<'a, 'n> fn(Ctx<'a, 'n>, Call<'_>) -> Result<Answer, Reject>;

/// One row of the endpoint table: everything the daemon knows about a
/// queueable route. GETs and `/v1/shutdown` are answered inline on the
/// accept thread and are not rows.
struct Endpoint {
    /// `METHOD /path`, the path with at most one `{id}` capture.
    route: &'static str,
    /// Metrics key: latencies land in `serve.latency_us.<key>`.
    key: &'static str,
    handler: Handler,
    /// Whether `X-Jinjing-Trace` arms a flight recorder on this route.
    traced: bool,
    /// The 405 message for this path under any other method; `None`
    /// makes that a plain 404.
    wrong_method: Option<&'static str>,
}

impl Endpoint {
    const fn new(route: &'static str, key: &'static str, handler: Handler) -> Endpoint {
        Endpoint {
            route,
            key,
            handler,
            traced: false,
            wrong_method: None,
        }
    }

    const fn traced(mut self) -> Endpoint {
        self.traced = true;
        self
    }

    const fn or_405(mut self, message: &'static str) -> Endpoint {
        self.wrong_method = Some(message);
        self
    }

    /// Match a request against this row: `None` when the path is not
    /// this row's, else whether the method is too and the path's `{id}`
    /// capture (empty for a literal path). A capture that ends the path
    /// is one non-empty segment; one followed by a suffix is whatever
    /// precedes it, so a nonsense id reaches the handler and gets its
    /// "unknown session".
    fn matches<'p>(&self, method: &str, path: &'p str) -> Option<(bool, &'p str)> {
        let (my_method, pattern) = self.route.split_once(' ').expect("METHOD /path");
        let id = match pattern.split_once("{id}") {
            None => (pattern == path).then_some("")?,
            Some((head, tail)) => {
                let id = path.strip_prefix(head)?.strip_suffix(tail)?;
                let one_segment = !id.is_empty() && !id.contains('/');
                (one_segment || !tail.is_empty()).then_some(id)?
            }
        };
        Some((my_method == method, id))
    }
}

/// The endpoint table. [`dispatch`] runs every row the same way — queue
/// deadline, body, optional trace, handler, then the [`Answer`] or
/// [`Reject`] as the response — so a handler is only what differs
/// between endpoints.
static ENDPOINTS: [Endpoint; 10] = [
    Endpoint::new("POST /v1/check", "check", query_endpoint).traced(),
    Endpoint::new("POST /v1/fix", "fix", query_endpoint).traced(),
    Endpoint::new("POST /v1/generate", "generate", query_endpoint).traced(),
    Endpoint::new("POST /v1/lint", "lint", lint_endpoint),
    Endpoint::new("POST /v1/lint/multi", "lint_multi", lint_multi_endpoint),
    Endpoint::new("POST /v1/plan", "plan", query_endpoint),
    Endpoint::new("POST /v1/shard/check", "shard_check", shard_check_endpoint),
    Endpoint::new("POST /v1/sessions", "session_open", session_open),
    Endpoint::new(
        "POST /v1/sessions/{id}/delta",
        "session_delta",
        session_delta,
    )
    .or_405("delta wants POST"),
    Endpoint::new("DELETE /v1/sessions/{id}", "session_delete", session_delete)
        .or_405("session resources want DELETE"),
];

/// Resolve a request to its table row, or the 404 / 405 to answer
/// inline.
fn route(method: &str, path: &str) -> Result<&'static Endpoint, Reject> {
    let mut not_allowed = None;
    for ep in &ENDPOINTS {
        match ep.matches(method, path) {
            Some((true, _)) => return Ok(ep),
            Some((false, _)) => not_allowed = not_allowed.or(ep.wrong_method),
            None => {}
        }
    }
    Err(match not_allowed {
        Some(message) => Reject {
            status: 405,
            message: message.to_string(),
        },
        None => Reject {
            status: 404,
            message: format!("no route for {method} {path}"),
        },
    })
}

/// What travels from the accept thread to a worker: the parsed request,
/// its table row, the socket to answer on, and admission metadata.
struct Job {
    req: Request,
    stream: TcpStream,
    endpoint: &'static Endpoint,
    admitted: Instant,
    id: u64,
}

impl From<Answer> for Response {
    /// A served query: 200, the canonical body, and the exit code a
    /// pipeline gates on in `X-Jinjing-Exit`.
    fn from(answer: Answer) -> Response {
        Response::json(200, answer.body).with_header("X-Jinjing-Exit", &answer.exit.to_string())
    }
}

impl From<Reject> for Response {
    fn from(reject: Reject) -> Response {
        Response::error(reject.status, &reject.message)
    }
}

impl From<HttpError> for Reject {
    /// Hostile bytes on the wire: 413 past the body cap, else 400.
    fn from(e: HttpError) -> Reject {
        match e {
            HttpError::Malformed(message) => Reject::bad_request(message),
            HttpError::TooLarge(message) => Reject {
                status: 413,
                message,
            },
            HttpError::Io(_) => Reject::bad_request("unreadable body"),
        }
    }
}

/// One canonical JSON object, newline-terminated; `members` writes its
/// keys in sorted order.
fn json_object(members: impl FnOnce(&mut JsonWriter)) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    members(&mut w);
    w.end_object();
    let mut out = w.finish();
    out.push('\n');
    out
}

/// Shared immutable context for the accept thread and the workers.
struct Ctx<'a, 'n> {
    net: &'n Network,
    config: &'a AclConfig,
    cfg: &'a ServeConfig,
    obs: &'a Collector,
    queue: &'a Bounded<Job>,
    sessions: &'a Mutex<Lru<SessionCell<'n>>>,
    traces: &'a Mutex<TraceStore>,
    next_request: &'a AtomicU64,
}

impl<'a, 'n> Ctx<'a, 'n> {
    fn engine_config(&self) -> EngineConfig {
        // A *fresh* config (and thus a fresh collector + query cache) per
        // request/session keeps every response byte-identical to a cold
        // CLI run — the contract the goldens pin.
        EngineConfig {
            threads: self.cfg.threads,
            ..EngineConfig::default()
        }
    }

    fn lock_sessions(&self) -> std::sync::MutexGuard<'a, Lru<SessionCell<'n>>> {
        // The store is plain bookkeeping; recover it from a poisoned lock
        // rather than taking the whole daemon down with one panic.
        self.sessions
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn lock_traces(&self) -> std::sync::MutexGuard<'a, TraceStore> {
        self.traces
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Send a response, counting the status class and write failures.
    fn respond(&self, stream: &mut TcpStream, resp: &Response) {
        self.respond_with(stream, resp, false);
    }

    /// [`Ctx::respond`] with an explicit connection disposition: pass
    /// `keep_alive` when the worker intends to keep serving this socket.
    fn respond_with(&self, stream: &mut TcpStream, resp: &Response, keep_alive: bool) {
        self.obs
            .counter_add(&format!("serve.http_{}", resp.status), 1);
        if resp.write_with(stream, keep_alive).is_err() {
            self.obs.counter_add("serve.write_failures", 1);
        }
    }
}

// Every field is a shared reference, so the context can be handed to
// each scoped worker by plain copy.
impl<'a, 'n> Clone for Ctx<'a, 'n> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<'a, 'n> Copy for Ctx<'a, 'n> {}

impl Server {
    /// Bind the listener (so the ephemeral port is knowable) without
    /// serving yet.
    pub fn bind(net: Network, config: AclConfig, cfg: ServeConfig) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| ServeError(format!("bind {}: {e}", cfg.addr)))?;
        let obs = Collector::with_trace(cfg.trace || jinjing_obs::trace_env_enabled());
        Ok(Server {
            net,
            config,
            cfg,
            listener,
            obs,
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> Result<SocketAddr, ServeError> {
        Ok(self.listener.local_addr()?)
    }

    /// Serve until drained: accept + parse on the calling thread, execute
    /// on `workers` scoped threads, answer introspection inline. Returns
    /// once a `POST /v1/shutdown` (or stdin EOF with
    /// [`ServeConfig::drain_on_stdin_eof`]) has been honored and every
    /// admitted job is answered.
    pub fn run(self) -> Result<ServeSummary, ServeError> {
        let Server {
            net,
            config,
            cfg,
            listener,
            obs,
        } = self;
        let addr = listener.local_addr()?;
        if let Some(path) = &cfg.port_file {
            std::fs::write(path, format!("{addr}\n"))
                .map_err(|e| ServeError(format!("{path}: {e}")))?;
        }
        if cfg.drain_on_stdin_eof {
            // Detached on purpose: if stdin never closes, the thread
            // parks until process exit.
            let self_addr = addr.to_string();
            std::thread::spawn(move || {
                use std::io::Read;
                let mut sink = [0u8; 4096];
                let mut stdin = std::io::stdin();
                while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
                let _ = client::call(
                    &self_addr,
                    "POST",
                    "/v1/shutdown",
                    &[],
                    b"",
                    Duration::from_secs(5),
                );
            });
        }

        let queue: Bounded<Job> = Bounded::new(cfg.queue);
        let sessions: Mutex<Lru<SessionCell<'_>>> = Mutex::new(Lru::new(cfg.max_sessions));
        let traces: Mutex<TraceStore> = Mutex::new(TraceStore::new(cfg.max_traces));
        let next_request = AtomicU64::new(0);
        obs.gauge_set("serve.queue_capacity", cfg.queue.max(1) as i64);
        obs.event(Level::Info, "serve.start", &format!("listening on {addr}"));

        std::thread::scope(|s| {
            let ctx = Ctx {
                net: &net,
                config: &config,
                cfg: &cfg,
                obs: &obs,
                queue: &queue,
                sessions: &sessions,
                traces: &traces,
                next_request: &next_request,
            };
            for _ in 0..cfg.workers.max(1) {
                s.spawn(move || worker_loop(ctx));
            }
            accept_loop(&listener, ctx);
            // Shutdown observed: admit nothing more, let the workers
            // drain what's queued and exit on the closed queue.
            queue.close();
        });

        obs.event(Level::Info, "serve.stop", "drained");
        let snapshot = obs.snapshot();
        if let Some(path) = &cfg.metrics_out {
            std::fs::write(path, snapshot.to_json())
                .map_err(|e| ServeError(format!("{path}: {e}")))?;
        }
        Ok(ServeSummary {
            requests: snapshot.counter("serve.requests_total"),
            shed: snapshot.counter("serve.queue_shed_total"),
            snapshot,
        })
    }
}

/// Read the next request off a connection. A malformed or oversized one
/// is counted and answered here (400 / 413); `Err(answered)` says whether
/// that happened or the peer just went away.
fn next_request(ctx: Ctx<'_, '_>, stream: &mut TcpStream) -> Result<Request, bool> {
    match read_request(stream, ctx.cfg.max_body) {
        Ok(req) => Ok(req),
        Err(HttpError::Io(_)) => Err(false),
        Err(e) => {
            ctx.obs.counter_add("serve.requests_total", 1);
            ctx.respond(stream, &Reject::from(e).into());
            Err(true)
        }
    }
}

/// Count a parsed request and give it its number; `note` tags the
/// `serve.request` event.
fn number_request(ctx: Ctx<'_, '_>, req: &Request, note: &str) -> u64 {
    ctx.obs.counter_add("serve.requests_total", 1);
    let id = ctx.next_request.fetch_add(1, Ordering::Relaxed) + 1;
    ctx.obs.event(
        Level::Debug,
        "serve.request",
        &format!("r{id} {} {}{note}", req.method, req.path),
    );
    id
}

/// Accept + parse until a shutdown request arrives.
fn accept_loop(listener: &TcpListener, ctx: Ctx<'_, '_>) {
    for stream in listener.incoming() {
        let mut stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
        let _ = stream.set_write_timeout(Some(READ_TIMEOUT));
        let req = match next_request(ctx, &mut stream) {
            Ok(r) => r,
            Err(answered) => {
                if answered {
                    drain_rejected(&mut stream);
                }
                continue;
            }
        };
        let id = number_request(ctx, &req, "");

        // Introspection and shutdown are answered inline: they must work
        // even when every worker is busy and the queue is full.
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => {
                let body = healthz_body(ctx);
                ctx.respond(&mut stream, &Response::json(200, body));
                continue;
            }
            ("GET", "/metrics") => {
                refresh_gauges(ctx);
                let body = ctx.obs.snapshot().to_prometheus();
                ctx.respond(&mut stream, &Response::text(200, body));
                continue;
            }
            ("GET", "/metrics.json") => {
                refresh_gauges(ctx);
                let body = ctx.obs.snapshot().to_json();
                ctx.respond(&mut stream, &Response::json(200, body));
                continue;
            }
            ("GET", p) if p.starts_with("/v1/trace/") => {
                let id = &p["/v1/trace/".len()..];
                let resp = match ctx.lock_traces().get(id) {
                    Some(body) => Response::json(200, body.to_string()),
                    None => Response::error(404, &format!("unknown trace {id:?}")),
                };
                ctx.respond(&mut stream, &resp);
                continue;
            }
            ("POST", "/v1/shutdown") => {
                let body = json_object(|w| {
                    w.key("status");
                    w.string("draining");
                });
                ctx.respond(&mut stream, &Answer { body, exit: 0 }.into());
                return;
            }
            _ => {}
        }

        let endpoint = match route(&req.method, &req.path) {
            Ok(endpoint) => endpoint,
            Err(reject) => {
                ctx.respond(&mut stream, &reject.into());
                continue;
            }
        };
        let job = Job {
            req,
            stream,
            endpoint,
            admitted: Instant::now(),
            id,
        };
        match ctx.queue.try_push(job) {
            Ok(depth) => ctx.obs.gauge_set("serve.queue_depth", depth as i64),
            Err(PushError::Full(mut job)) => {
                ctx.obs.counter_add("serve.queue_shed_total", 1);
                ctx.respond(
                    &mut job.stream,
                    &Response::error(429, "queue full — retry later")
                        .with_header("Retry-After", "1"),
                );
            }
            Err(PushError::Closed(mut job)) => {
                ctx.respond(&mut job.stream, &Response::error(503, "draining"));
            }
        }
    }
}

/// After an early reject (413, malformed head) the peer may still be
/// writing its body: those unread bytes sit in the kernel buffer, and
/// closing a socket with pending input sends RST — which can destroy the
/// already-written response before the client reads it. Half-close our
/// write side so the client sees EOF, then swallow a bounded amount of
/// whatever the peer still had in flight before dropping the stream.
fn drain_rejected(stream: &mut TcpStream) {
    use std::io::Read;
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut budget: usize = 1 << 20;
    let mut buf = [0u8; 8192];
    while budget > 0 {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => budget = budget.saturating_sub(n),
        }
    }
}

/// Set the live gauges right before a metrics snapshot.
fn refresh_gauges(ctx: Ctx<'_, '_>) {
    ctx.obs
        .gauge_set("serve.queue_depth", ctx.queue.depth() as i64);
    ctx.obs
        .gauge_set("serve.sessions_live", ctx.lock_sessions().len() as i64);
}

/// The `/healthz` body: cheap liveness + pressure gauges, canonical JSON.
fn healthz_body(ctx: Ctx<'_, '_>) -> String {
    let sessions = ctx.lock_sessions().len();
    json_object(|w| {
        w.key("queue_capacity");
        w.u64(ctx.queue.capacity() as u64);
        w.key("queue_depth");
        w.u64(ctx.queue.depth() as u64);
        w.key("sessions");
        w.u64(sessions as u64);
        w.key("status");
        w.string("ok");
    })
}

/// A worker: pop admitted jobs until the queue closes empty. A job whose
/// client negotiated keep-alive pins this worker to the connection after
/// the response (see [`pinned_loop`]).
fn worker_loop(ctx: Ctx<'_, '_>) {
    while let Some(mut job) = ctx.queue.pop() {
        ctx.obs
            .gauge_set("serve.queue_depth", ctx.queue.depth() as i64);
        if serve(
            ctx,
            &mut job.stream,
            &job.req,
            job.endpoint,
            job.id,
            job.admitted,
        ) {
            pinned_loop(ctx, job.stream);
        }
    }
}

/// Serve follow-up requests on a connection whose client negotiated
/// keep-alive. Admission control applied to the connection's *first*
/// request (it flowed through the bounded queue); follow-ups ride the
/// already-pinned worker directly, bounded by [`KEEPALIVE_IDLE`] between
/// requests and [`KEEPALIVE_MAX_REQUESTS`] per connection. Only the
/// table's routes are served here — anything else (including
/// `/v1/shutdown`) is answered and the connection closed.
fn pinned_loop(ctx: Ctx<'_, '_>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(KEEPALIVE_IDLE));
    for _ in 1..KEEPALIVE_MAX_REQUESTS {
        // `Err`: answered 400 / 413, idle timeout, or the peer hung up.
        let Ok(req) = next_request(ctx, &mut stream) else {
            return;
        };
        ctx.obs.counter_add("serve.keepalive_requests", 1);
        let id = number_request(ctx, &req, " (pinned)");
        let endpoint = match route(&req.method, &req.path) {
            Ok(endpoint) => endpoint,
            Err(reject) => {
                ctx.respond(&mut stream, &reject.into());
                return;
            }
        };
        if !serve(ctx, &mut stream, &req, endpoint, id, Instant::now()) {
            return;
        }
    }
    // Request cap reached: drop the stream; the client re-dials and
    // re-enters admission.
    ctx.obs.counter_add("serve.keepalive_capped", 1);
}

/// Run one routed request, record it and answer on `stream`. Returns
/// whether the client negotiated keep-alive (the socket stays open).
fn serve(
    ctx: Ctx<'_, '_>,
    stream: &mut TcpStream,
    req: &Request,
    endpoint: &Endpoint,
    id: u64,
    admitted: Instant,
) -> bool {
    let keep = req.wants_keep_alive();
    let key = endpoint.key;
    let start = Instant::now();
    let resp = dispatch(ctx, req, endpoint, admitted);
    let elapsed = start.elapsed();
    ctx.obs.histogram_record(
        &format!("serve.latency_us.{key}"),
        elapsed.as_micros() as u64,
    );
    ctx.obs.record_span("serve.request", 1, elapsed);
    ctx.obs.event(
        Level::Debug,
        "serve.response",
        &format!("r{id} {key} -> {}", resp.status),
    );
    ctx.respond_with(stream, &resp, keep);
    keep
}

/// The one path every table row takes: queue deadline, optional test
/// delay, body decoding, flight-recorder opt-in, the row's handler, and
/// its [`Answer`] or [`Reject`] as the response.
fn dispatch(ctx: Ctx<'_, '_>, req: &Request, endpoint: &Endpoint, admitted: Instant) -> Response {
    let deadline_ms = req
        .header("x-jinjing-deadline-ms")
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(ctx.cfg.deadline_ms);
    if deadline_ms > 0 && admitted.elapsed() >= Duration::from_millis(deadline_ms) {
        ctx.obs.counter_add("serve.deadline_expired", 1);
        return Response::error(
            408,
            &format!("request queued past its {deadline_ms} ms deadline"),
        );
    }
    if ctx.cfg.allow_test_delay {
        if let Some(ms) = req
            .header("x-jinjing-test-delay-ms")
            .and_then(|v| v.parse::<u64>().ok())
        {
            std::thread::sleep(Duration::from_millis(ms.min(10_000)));
        }
    }
    let body = match req.body_text() {
        Ok(text) => text,
        Err(e) => return Reject::from(e).into(),
    };
    let ecfg = ctx.engine_config();
    // Flight-recorder opt-in: any non-empty, non-"0" header value arms a
    // request-scoped recorder on this request's private collector. The
    // trace id is deterministic in the body text, so re-tracing the same
    // query replaces its old capture rather than duplicating it.
    let tctx = req
        .header("x-jinjing-trace")
        .filter(|v| endpoint.traced && !v.is_empty() && *v != "0")
        .map(|_| {
            let t = jinjing_obs::TraceCtx::new(&jinjing_obs::trace_id_of(body));
            ecfg.check.obs.attach_trace_ctx(t.clone());
            t
        });
    let req_span = tctx.as_ref().map(|t| t.span(0, "serve.request"));
    let call = Call {
        req,
        body,
        id: endpoint
            .matches(&req.method, &req.path)
            .map_or("", |(_, id)| id),
        ecfg,
    };
    let result = (endpoint.handler)(ctx, call);
    drop(req_span);
    let resp: Response = match result {
        Ok(answer) => answer.into(),
        Err(reject) => reject.into(),
    };
    match tctx {
        None => resp,
        Some(t) => {
            let id = t.id().unwrap_or("").to_string();
            ctx.lock_traces().insert(&id, t.to_chrome_json());
            ctx.obs.counter_add("serve.traces_captured", 1);
            let dropped = t.events_dropped();
            if dropped > 0 {
                ctx.obs.counter_add("serve.trace_events_dropped", dropped);
            }
            resp.with_header("X-Jinjing-Trace-Id", &id)
        }
    }
}

/// The stateless engine endpoints as a function of the resident network
/// and the wire body: `/v1/check|fix|generate` refuse an intent whose
/// command does not match the endpoint, then run it; `/v1/plan` splits the body with
/// `parse_plan_body` and synthesizes the rollout. `engine_config`
/// receives the intent text and returns the configuration to run it
/// under — the daemon hands over the request's private one, the
/// `jinjing-shard` coordinator one whose check fan-out ships that intent
/// to its backends. Bodies are byte-identical to `jinjing run|plan
/// --format json`.
pub fn answer_query(
    net: &Network,
    config: &AclConfig,
    path: &str,
    body: &str,
    engine_config: impl FnOnce(&str) -> EngineConfig,
) -> Result<Answer, Reject> {
    if path == "/v1/plan" {
        let (intent, target, max_waves) = parse_plan_body(body).map_err(Reject::bad_request)?;
        let mut ecfg = engine_config(&intent);
        ecfg.plan.max_waves = max_waves;
        return Ok(plan_query(net, config, &intent, target.as_deref(), &ecfg)?.answer());
    }
    // A command the endpoint does not serve is refused before the engine
    // configuration is built, so it never runs (or fans out) at all.
    let intent = ResolvedIntent::new(net, config, body)?;
    let command = intent.command().to_string();
    let endpoint = path.strip_prefix("/v1/").unwrap_or(path);
    if command != endpoint {
        return Err(Reject::bad_request(format!(
            "intent command {command:?} does not match endpoint /v1/{endpoint}"
        )));
    }
    Ok(run_resolved(net, config, &intent, &engine_config(body))?.answer())
}

/// `POST /v1/check|fix|generate|plan`: [`answer_query`] under the
/// request's own engine configuration.
fn query_endpoint(ctx: Ctx<'_, '_>, call: Call<'_>) -> Result<Answer, Reject> {
    let Call {
        req, body, ecfg, ..
    } = call;
    answer_query(ctx.net, ctx.config, &req.path, body, |_| ecfg)
}

/// Parse an `X-Jinjing-Shard: i/n` header into a shard spec. Absent
/// header means "the whole space" (`None`); a malformed or out-of-range
/// value is a 400 — [`ShardSpec::new`] panics on bad input, so validate
/// here first.
fn shard_spec_of(req: &Request) -> Result<Option<ShardSpec>, Reject> {
    let Some(v) = req.header("x-jinjing-shard") else {
        return Ok(None);
    };
    let parsed = v.split_once('/').and_then(|(i, n)| {
        let i: usize = i.trim().parse().ok()?;
        let n: usize = n.trim().parse().ok()?;
        (n > 0 && i < n).then(|| ShardSpec::new(i, n))
    });
    match parsed {
        Some(spec) => Ok(Some(spec)),
        None => Err(Reject::bad_request(format!(
            "X-Jinjing-Shard wants i/n with i < n, got {v:?}"
        ))),
    }
}

/// `POST /v1/lint`: lint the resident network + configuration, with the
/// body (when non-empty) as the intent program. Byte-identical to
/// `jinjing lint --format json` on the same inputs. An
/// `X-Jinjing-Shard: i/n` header restricts the pass to shard-owned slots
/// (network-wide findings come from the primary shard only), so the
/// per-shard reports partition the unsharded one.
fn lint_endpoint(ctx: Ctx<'_, '_>, call: Call<'_>) -> Result<Answer, Reject> {
    let lcfg = jinjing_lint::LintConfig {
        shard: shard_spec_of(call.req)?,
        ..jinjing_lint::LintConfig::default()
    };
    let intent = (!call.body.trim().is_empty()).then_some(call.body);
    let out = lint_query(ctx.net, ctx.config, intent, &lcfg)?;
    Ok(Answer::of_lint(&out.report))
}

/// A `POST /v1/lint/multi` body, parsed: `(tenant, program-text)` pairs
/// and the priority order.
type MultiLintBody = (Vec<(String, String)>, Vec<String>);

/// Parse the `POST /v1/lint/multi` wire body into `(tenant, program-text)`
/// pairs and a priority order.
///
/// The body is plain text sectioned by directives (so a request is LAI
/// text with comments, never a JSON envelope): a `#tenant NAME` line starts
/// that tenant's intent program, and an optional `#priority a,b,c` line
/// (anywhere) gives the tenant priority order. `#` already starts a
/// comment in LAI, so the directives are invisible to the intent parser;
/// everything else is passed through verbatim.
fn parse_multi_lint_body(text: &str) -> Result<MultiLintBody, String> {
    let mut tenants: Vec<(String, String)> = Vec::new();
    let mut priority: Vec<String> = Vec::new();
    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed == "#tenant" {
            return Err("#tenant wants a name".to_string());
        } else if let Some(name) = trimmed.strip_prefix("#tenant ") {
            let name = name.trim();
            if tenants.iter().any(|(n, _)| n == name) {
                return Err(format!("duplicate tenant {name:?}"));
            }
            tenants.push((name.to_string(), String::new()));
        } else if let Some(order) = trimmed.strip_prefix("#priority ") {
            if !priority.is_empty() {
                return Err("more than one #priority line".to_string());
            }
            priority = order
                .split(',')
                .map(|t| t.trim().to_string())
                .filter(|t| !t.is_empty())
                .collect();
            if priority.is_empty() {
                return Err("#priority wants a comma-separated tenant list".to_string());
            }
        } else {
            match tenants.last_mut() {
                Some((_, body)) => {
                    body.push_str(line);
                    body.push('\n');
                }
                None if trimmed.is_empty() => {}
                None => {
                    return Err(format!(
                        "intent text before the first #tenant line: {trimmed:?}"
                    ))
                }
            }
        }
    }
    if tenants.is_empty() {
        return Err("no #tenant sections in body".to_string());
    }
    for p in &priority {
        if !tenants.iter().any(|(n, _)| n == p) {
            return Err(format!("#priority names unknown tenant {p:?}"));
        }
    }
    Ok((tenants, priority))
}

/// `POST /v1/lint/multi`: the cross-tenant lint pass (JL3xx) over a set
/// of tenant intents against the resident network + configuration. The
/// body is sectioned by `#tenant NAME` lines with an optional
/// `#priority a,b,c` order (see [`parse_multi_lint_body`]). Byte-identical
/// to `jinjing lint --intent tenant=FILE ... --format json` on the same
/// inputs.
fn lint_multi_endpoint(ctx: Ctx<'_, '_>, call: Call<'_>) -> Result<Answer, Reject> {
    let (tenants, priority) = parse_multi_lint_body(call.body).map_err(Reject::bad_request)?;
    let lcfg = jinjing_lint::LintConfig::default();
    let out = lint_multi_query(ctx.net, ctx.config, &tenants, &priority, &lcfg)?;
    Ok(Answer::of_lint(&out.report))
}

/// Parse the `POST /v1/plan` wire body into the intent program text and
/// the optional target delta script.
///
/// Like `/v1/lint/multi`, the body is plain text sectioned by
/// directives: everything up to an
/// optional `#target` line is the intent program; everything after it is
/// a delta script describing the target configuration (the same syntax
/// `jinjing plan --target` reads). An optional `#max-waves N` line caps
/// the wave count. `#` already starts a comment in LAI, so the
/// directives are invisible to the intent parser.
fn parse_plan_body(text: &str) -> Result<(String, Option<String>, usize), String> {
    let mut intent = String::new();
    let mut target: Option<String> = None;
    let mut max_waves = 0usize;
    let mut saw_max_waves = false;
    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed == "#target" {
            if target.is_some() {
                return Err("more than one #target line".to_string());
            }
            target = Some(String::new());
        } else if let Some(n) = trimmed.strip_prefix("#max-waves ") {
            if saw_max_waves {
                return Err("more than one #max-waves line".to_string());
            }
            max_waves = n
                .trim()
                .parse()
                .map_err(|_| format!("#max-waves wants a number, got {:?}", n.trim()))?;
            saw_max_waves = true;
        } else {
            let sink = target.as_mut().unwrap_or(&mut intent);
            sink.push_str(line);
            sink.push('\n');
        }
    }
    Ok((intent, target, max_waves))
}

/// Parse the `POST /v1/shard/check` wire body into the intent text and
/// the optional `#shard-base` / `#shard-apply` delta scripts.
///
/// Same directive convention as the other plain-text bodies: everything
/// up to the first marker is the intent program; `#shard-base` starts a
/// delta script carrying the resident→before edits, `#shard-apply` the
/// before→after edits. The coordinator always sends both markers (the
/// sections may be empty); a hand-written probe may omit them, in which
/// case the intent's own before/after stand.
///
/// Public so the coordinator and the backend agree on one grammar.
pub fn parse_shard_body(text: &str) -> Result<(String, Option<String>, Option<String>), String> {
    let mut intent = String::new();
    let mut base: Option<String> = None;
    let mut apply: Option<String> = None;
    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed == "#shard-base" {
            if base.is_some() {
                return Err("more than one #shard-base line".to_string());
            }
            if apply.is_some() {
                return Err("#shard-base after #shard-apply".to_string());
            }
            base = Some(String::new());
        } else if trimmed == "#shard-apply" {
            if apply.is_some() {
                return Err("more than one #shard-apply line".to_string());
            }
            apply = Some(String::new());
        } else {
            let sink = apply.as_mut().or(base.as_mut()).unwrap_or(&mut intent);
            sink.push_str(line);
            sink.push('\n');
        }
    }
    Ok((intent, base, apply))
}

/// `POST /v1/shard/check`: the backend half of sharded verification.
///
/// Resolves the intent against the resident network, folds the
/// `#shard-base` / `#shard-apply` delta scripts into explicit
/// before/after configurations, and checks only the equivalence classes
/// the `X-Jinjing-Shard` spec owns. The response is the compact wire
/// document the coordinator merges (sorted keys, one trailing newline):
///
/// ```text
/// {"dirty_pairs":…,"fec_count":…,"obs":{…},"pair":{"class":…,"path":…}|null,
///  "queries":…,"shard":{"count":…,"index":…},"status":"ok"}
/// ```
///
/// `pair` is the shard-local minimum violating `(class, path)` in
/// **global** coordinates; the coordinator takes the lexicographic
/// minimum across shards, re-solves that one pair locally to materialize
/// the witness packet, and renders the canonical document itself.
fn shard_check_endpoint(ctx: Ctx<'_, '_>, call: Call<'_>) -> Result<Answer, Reject> {
    let shard = shard_spec_of(call.req)?;
    let (intent, base, apply) = parse_shard_body(call.body).map_err(Reject::bad_request)?;
    let program = jinjing_lai::parse_program(&intent).map_err(Reject::bad_request)?;
    // Lax validation: the configurations under test come from the delta
    // scripts, so a modify-less intent (a rollout-planning probe) is
    // legal here. The coordinator already applied the strict rules its
    // own endpoint demands.
    let program = jinjing_lai::validate_plan_intent(program).map_err(Reject::bad_request)?;
    let task = jinjing_core::resolve(ctx.net, &program, ctx.config).map_err(Reject::bad_request)?;

    // Fold the delta scripts into the exact configurations under test.
    // An empty (or absent) script is a no-op, so a plain intent checks
    // its own before/after.
    let fold = |label: &str, start: &AclConfig, script: &str| -> Result<AclConfig, Reject> {
        let deltas = jinjing_core::incr::parse_delta_script(ctx.net, script)
            .map_err(|e| Reject::bad_request(format!("{label}: {e}")))?;
        let mut config = start.clone();
        for (_, delta) in &deltas {
            config = delta.applied_to(&config);
        }
        Ok(config)
    };
    let before = match base {
        Some(script) => fold("#shard-base", &task.before, &script)?,
        None => task.before.clone(),
    };
    let after = match apply {
        // The apply script is relative to the (possibly rebased) before.
        Some(script) => fold("#shard-apply", &before, &script)?,
        None => task.after.clone(),
    };

    let ccfg = jinjing_core::check::CheckConfig {
        threads: ctx.cfg.threads,
        shard: shard.clone(),
        ..jinjing_core::check::CheckConfig::default()
    };
    let report = jinjing_core::check::check_configs(
        ctx.net,
        &task.scope,
        &before,
        &after,
        &task.controls,
        &ccfg,
    )
    .map_err(Reject::bad_request)?;
    let snapshot = ccfg.obs.snapshot();

    let (index, count) = shard.as_ref().map_or((0, 1), |s| (s.index(), s.count()));
    let body = json_object(|w| {
        w.key("dirty_pairs");
        w.u64(report.paths_checked as u64);
        w.key("fec_count");
        w.u64(report.fec_count as u64);
        w.key("obs");
        snapshot.write_json(w);
        w.key("pair");
        match report.violation_pair {
            Some((class, path)) => {
                w.begin_object();
                w.key("class");
                w.u64(class as u64);
                w.key("path");
                w.u64(path as u64);
                w.end_object();
            }
            None => w.null(),
        }
        w.key("queries");
        w.u64(snapshot.counter("solver.queries"));
        w.key("shard");
        w.begin_object();
        w.key("count");
        w.u64(count as u64);
        w.key("index");
        w.u64(index as u64);
        w.end_object();
        w.key("status");
        w.string("ok");
    });
    Ok(Answer { body, exit: 0 })
}

/// `POST /v1/sessions`: open a resident check session over the intent's
/// scope and the daemon's current configuration.
fn session_open(ctx: Ctx<'_, '_>, call: Call<'_>) -> Result<Answer, Reject> {
    let session = open_intent_session(ctx.net, ctx.config, call.body, &call.ecfg)?;
    let class_count = session.class_count();
    let mut store = ctx.lock_sessions();
    let r = store.insert(SessionCell {
        session,
        class_count,
    });
    ctx.obs.counter_add("serve.sessions_opened", 1);
    if let Some(victim) = &r.evicted {
        ctx.obs.counter_add("serve.sessions_evicted", 1);
        ctx.obs.event(
            Level::Info,
            "serve.session_evicted",
            &format!("{victim} evicted by {}", r.id),
        );
    }
    ctx.obs.gauge_set("serve.sessions_live", store.len() as i64);
    drop(store);
    let body = json_object(|w| {
        w.key("classes");
        w.u64(class_count as u64);
        w.key("id");
        w.string(&r.id);
    });
    Ok(Answer { body, exit: 0 })
}

/// `POST /v1/sessions/{id}/delta`: re-check one delta batch against a
/// resident session, answering the canonical watch JSON for the batch.
fn session_delta(ctx: Ctx<'_, '_>, call: Call<'_>) -> Result<Answer, Reject> {
    let deltas =
        jinjing_core::incr::parse_delta_script(ctx.net, call.body).map_err(Reject::bad_request)?;
    let Some(cell) = ctx.lock_sessions().get(call.id) else {
        return Err(Reject {
            status: 404,
            message: format!("unknown session {:?} (expired or evicted?)", call.id),
        });
    };
    // Deltas to the *same* session serialize here; other sessions and
    // one-shot queries proceed in parallel on the other workers.
    let mut cell = cell
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let steps = recheck_steps(&mut cell.session, &deltas)?;
    let out = WatchOutput::from_steps(
        cell.class_count,
        deltas.len(),
        steps,
        jinjing_obs::Snapshot::empty(),
    );
    if out.rejected > 0 {
        ctx.obs
            .counter_add("serve.deltas_rejected", out.rejected as u64);
    }
    Ok(out.answer())
}

/// `DELETE /v1/sessions/{id}`.
fn session_delete(ctx: Ctx<'_, '_>, call: Call<'_>) -> Result<Answer, Reject> {
    let mut store = ctx.lock_sessions();
    if !store.remove(call.id) {
        return Err(Reject {
            status: 404,
            message: format!("unknown session {:?}", call.id),
        });
    }
    ctx.obs.counter_add("serve.sessions_closed", 1);
    ctx.obs.gauge_set("serve.sessions_live", store.len() as i64);
    drop(store);
    let body = json_object(|w| {
        w.key("deleted");
        w.string(call.id);
    });
    Ok(Answer { body, exit: 0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jinjing_core::figure1::Figure1;
    use jinjing_core::query::run_query;

    const CHECK_INTENT: &str = "\
acl PermitAll { permit all }
scope A:*, B:*, C:*, D:*
allow A:*, B:*
modify D:2 to PermitAll
check
";

    fn call(addr: &str, method: &str, path: &str, body: &str) -> client::CallResponse {
        client::call(
            addr,
            method,
            path,
            &[],
            body.as_bytes(),
            Duration::from_secs(20),
        )
        .expect("call")
    }

    #[test]
    fn daemon_round_trip_check_sessions_metrics_drain() {
        let f = Figure1::new();
        let srv = Server::bind(f.net, f.config, ServeConfig::default()).unwrap();
        let addr = srv.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || srv.run().unwrap());

        // One-shot check: inconsistent on the Figure 1 opening → exit 3,
        // canonical plan body.
        let r = call(&addr, "POST", "/v1/check", CHECK_INTENT);
        assert_eq!(r.status, 200);
        assert_eq!(r.exit_code(), 3);
        let body = r.body_text();
        assert!(body.starts_with("{\"changes\":["), "{body}");
        assert!(body.ends_with("}\n"), "{body}");
        // Byte-identity with the in-process query layer.
        let f2 = Figure1::new();
        let direct = run_query(&f2.net, &f2.config, CHECK_INTENT, &EngineConfig::default())
            .unwrap()
            .plan
            .to_canonical_json();
        assert_eq!(
            body, direct,
            "daemon and library must render identical bytes"
        );

        // Command/endpoint mismatch is a 400, not a silent re-dispatch.
        let r = call(&addr, "POST", "/v1/fix", CHECK_INTENT);
        assert_eq!(r.status, 400);
        assert_eq!(r.exit_code(), 1);

        // Session lifecycle: open, delta, delete.
        let r = call(&addr, "POST", "/v1/sessions", CHECK_INTENT);
        assert_eq!(r.status, 200, "{}", r.body_text());
        let body = r.body_text();
        assert!(body.contains("\"id\":\"s1\""), "{body}");
        let r = call(&addr, "POST", "/v1/sessions/s1/delta", "step noop\n");
        assert_eq!(r.status, 200, "{}", r.body_text());
        assert!(r.body_text().contains("\"label\":\"noop\""));
        assert_eq!(r.exit_code(), 0);
        let r = call(&addr, "DELETE", "/v1/sessions/s1", "");
        assert_eq!(r.status, 200);
        let r = call(&addr, "POST", "/v1/sessions/s1/delta", "step x\n");
        assert_eq!(r.status, 404, "deleted sessions are gone");

        // Introspection.
        let r = call(&addr, "GET", "/healthz", "");
        assert_eq!(r.status, 200);
        assert!(r.body_text().contains("\"status\":\"ok\""));
        let r = call(&addr, "GET", "/metrics", "");
        assert_eq!(r.status, 200);
        let metrics = r.body_text();
        assert!(
            metrics.contains("jinjing_serve_requests_total"),
            "{metrics}"
        );
        assert!(
            metrics.contains("jinjing_serve_latency_us_check"),
            "{metrics}"
        );

        // Unknown routes and bad intents.
        let r = call(&addr, "GET", "/nope", "");
        assert_eq!(r.status, 404);
        let r = call(&addr, "POST", "/v1/check", "scope Z:*\ncheck\n");
        assert_eq!(r.status, 400);
        assert_eq!(r.exit_code(), 1);

        // Drain and collect the summary.
        let r = call(&addr, "POST", "/v1/shutdown", "");
        assert_eq!(r.status, 200);
        let summary = handle.join().unwrap();
        assert!(summary.requests >= 10, "{}", summary.requests);
        assert_eq!(summary.shed, 0);
        assert_eq!(summary.snapshot.counter("serve.sessions_opened"), 1);
        assert_eq!(summary.snapshot.counter("serve.sessions_closed"), 1);
    }

    #[test]
    fn traced_request_captures_and_serves_a_flight_record() {
        let f = Figure1::new();
        let srv = Server::bind(f.net, f.config, ServeConfig::default()).unwrap();
        let addr = srv.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || srv.run().unwrap());

        // Baseline body without tracing: no trace id is stamped.
        let plain = call(&addr, "POST", "/v1/check", CHECK_INTENT);
        assert_eq!(plain.status, 200);
        assert!(plain.header("x-jinjing-trace-id").is_none());

        // Opt in via header: identical bytes, plus a deterministic id.
        let traced = client::call(
            &addr,
            "POST",
            "/v1/check",
            &[("X-Jinjing-Trace".to_string(), "1".to_string())],
            CHECK_INTENT.as_bytes(),
            Duration::from_secs(20),
        )
        .expect("traced call");
        assert_eq!(traced.status, 200);
        assert_eq!(
            traced.body_text(),
            plain.body_text(),
            "tracing must not perturb response bytes"
        );
        let id = traced
            .header("x-jinjing-trace-id")
            .expect("trace id")
            .to_string();
        assert_eq!(id, jinjing_obs::trace_id_of(CHECK_INTENT));

        // The capture is fetchable and holds spans from every layer:
        // serve, engine, a pool worker track, and the solver.
        let r = call(&addr, "GET", &format!("/v1/trace/{id}"), "");
        assert_eq!(r.status, 200, "{}", r.body_text());
        let trace = r.body_text();
        for needle in [
            "\"traceEvents\"",
            "serve.request",
            "engine.run",
            "worker-0",
            "solver.query",
        ] {
            assert!(trace.contains(needle), "missing {needle} in {trace}");
        }

        // Unknown ids are a clean 404.
        let r = call(&addr, "GET", "/v1/trace/tdeadbeef", "");
        assert_eq!(r.status, 404);

        let r = call(&addr, "POST", "/v1/shutdown", "");
        assert_eq!(r.status, 200);
        let summary = handle.join().unwrap();
        assert_eq!(summary.snapshot.counter("serve.traces_captured"), 1);
    }

    #[test]
    fn routes_resolve_and_reject() {
        // A route resolves to its row's metrics key and `{id}` capture, or
        // to the status + message answered inline.
        fn resolve<'p>(
            method: &str,
            path: &'p str,
        ) -> Result<(&'static str, &'p str), (u16, String)> {
            route(method, path)
                .map(|ep| (ep.key, ep.matches(method, path).unwrap().1))
                .map_err(|r| (r.status, r.message))
        }
        let no_route =
            |method: &str, path: &str| Err((404, format!("no route for {method} {path}")));
        assert_eq!(resolve("POST", "/v1/check"), Ok(("check", "")));
        assert_eq!(
            resolve("POST", "/v1/sessions/s7/delta"),
            Ok(("session_delta", "s7"))
        );
        assert_eq!(
            resolve("DELETE", "/v1/sessions/s7"),
            Ok(("session_delete", "s7"))
        );
        assert_eq!(resolve("GET", "/v1/check"), no_route("GET", "/v1/check"));
        assert_eq!(
            resolve("GET", "/v1/sessions/s7/delta"),
            Err((405, "delta wants POST".to_string()))
        );
        assert_eq!(
            resolve("PATCH", "/v1/sessions/s7"),
            Err((405, "session resources want DELETE".to_string()))
        );
        assert_eq!(resolve("POST", "/v2/zzz"), no_route("POST", "/v2/zzz"));
        assert_eq!(resolve("POST", "/v1/lint/multi"), Ok(("lint_multi", "")));
        assert_eq!(
            resolve("GET", "/v1/lint/multi"),
            no_route("GET", "/v1/lint/multi")
        );
        assert_eq!(resolve("POST", "/v1/plan"), Ok(("plan", "")));
        assert_eq!(resolve("GET", "/v1/plan"), no_route("GET", "/v1/plan"));
        assert_eq!(resolve("POST", "/v1/shard/check"), Ok(("shard_check", "")));
        assert_eq!(
            resolve("GET", "/v1/shard/check"),
            no_route("GET", "/v1/shard/check")
        );
        // A capture that ends the path is one non-empty segment; a nonsense
        // id before `/delta` reaches the handler's "unknown session".
        assert_eq!(
            resolve("DELETE", "/v1/sessions/a/b"),
            no_route("DELETE", "/v1/sessions/a/b")
        );
        assert_eq!(
            resolve("DELETE", "/v1/sessions/"),
            no_route("DELETE", "/v1/sessions/")
        );
        assert_eq!(
            resolve("POST", "/v1/sessions/a/b/delta"),
            Ok(("session_delta", "a/b"))
        );

        // The metrics keys are a contract: latencies land in
        // `serve.latency_us.<key>` (the benchmark reads `.check`).
        let keys: Vec<&str> = ENDPOINTS.iter().map(|ep| ep.key).collect();
        assert_eq!(
            keys,
            [
                "check",
                "fix",
                "generate",
                "lint",
                "lint_multi",
                "plan",
                "shard_check",
                "session_open",
                "session_delta",
                "session_delete"
            ]
        );
        // Only the one-shot run endpoints arm the flight recorder.
        let traced: Vec<&str> = ENDPOINTS
            .iter()
            .filter(|ep| ep.traced)
            .map(|ep| ep.key)
            .collect();
        assert_eq!(traced, ["check", "fix", "generate"]);
    }

    #[test]
    fn shard_body_parses_sections() {
        let body = "scope A:*\ncheck\n#shard-base\nclear C1 in\n#shard-apply\nclear C2 in\n";
        let (intent, base, apply) = parse_shard_body(body).unwrap();
        assert_eq!(intent, "scope A:*\ncheck\n");
        assert_eq!(base.as_deref(), Some("clear C1 in\n"));
        assert_eq!(apply.as_deref(), Some("clear C2 in\n"));

        // Markers with empty sections: explicit "no rebase, no edits".
        let (intent, base, apply) = parse_shard_body("check\n#shard-base\n#shard-apply\n").unwrap();
        assert_eq!(intent, "check\n");
        assert_eq!(base.as_deref(), Some(""));
        assert_eq!(apply.as_deref(), Some(""));

        // No markers: the whole body is the intent.
        let (intent, base, apply) = parse_shard_body("scope A:*\ncheck\n").unwrap();
        assert_eq!(intent, "scope A:*\ncheck\n");
        assert_eq!(base, None);
        assert_eq!(apply, None);

        assert!(parse_shard_body("check\n#shard-base\n#shard-base\n")
            .unwrap_err()
            .contains("more than one #shard-base"));
        assert!(parse_shard_body("check\n#shard-apply\n#shard-apply\n")
            .unwrap_err()
            .contains("more than one #shard-apply"));
        assert!(parse_shard_body("check\n#shard-apply\n#shard-base\n")
            .unwrap_err()
            .contains("after #shard-apply"));
    }

    #[test]
    fn shard_header_parses_and_rejects() {
        let req = |headers: &[(&str, &str)]| Request {
            method: "POST".to_string(),
            path: "/v1/shard/check".to_string(),
            headers: headers
                .iter()
                .map(|(n, v)| (n.to_string(), v.to_string()))
                .collect(),
            body: Vec::new(),
        };
        assert_eq!(shard_spec_of(&req(&[])).unwrap(), None);
        let spec = shard_spec_of(&req(&[("x-jinjing-shard", "1/4")]))
            .unwrap()
            .unwrap();
        assert_eq!((spec.index(), spec.count()), (1, 4));
        for bad in ["", "4", "4/4", "2/0", "a/b", "-1/4"] {
            assert!(
                shard_spec_of(&req(&[("x-jinjing-shard", bad)])).is_err(),
                "{bad:?} must be rejected"
            );
        }
    }

    /// A semantically invisible update (D:2's denies reordered): every
    /// dirty pair solves to "unchanged", so the scan never short-circuits
    /// — the workload the partition arithmetic is provable on.
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

    #[test]
    fn shard_check_partitions_the_figure1_workload() {
        let f = Figure1::new();
        let srv = Server::bind(f.net, f.config, ServeConfig::default()).unwrap();
        let addr = srv.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || srv.run().unwrap());

        let wire = |intent: &str, shard: Option<(u64, u64)>| {
            let headers: Vec<(String, String)> = shard
                .map(|(i, n)| vec![("X-Jinjing-Shard".to_string(), format!("{i}/{n}"))])
                .unwrap_or_default();
            let r = client::call(
                &addr,
                "POST",
                "/v1/shard/check",
                &headers,
                intent.as_bytes(),
                Duration::from_secs(20),
            )
            .expect("shard call");
            assert_eq!(r.status, 200, "{}", r.body_text());
            jinjing_obs::json::parse(r.body_text().trim()).unwrap()
        };

        // Consistent workload: the full pair space is scanned, so at every
        // width the shards' dirty pairs and solver queries sum *exactly* to
        // the unsharded run — the pair space is partitioned, never duplicated.
        let whole = wire(CONSISTENT_INTENT, None);
        assert_eq!(whole.get("status").unwrap().as_str(), Some("ok"));
        assert!(whole.get("pair").unwrap().as_str().is_none()); // null
        let whole_pairs = whole.get("dirty_pairs").unwrap().as_u64().unwrap();
        let whole_queries = whole.get("queries").unwrap().as_u64().unwrap();
        assert!(whole_pairs > 0);
        assert!(whole_queries > 0);
        for n in [1, 2, 4, 8] {
            let mut pair_sum = 0;
            let mut query_sum = 0;
            for i in 0..n {
                let doc = wire(CONSISTENT_INTENT, Some((i, n)));
                let shard = doc.get("shard").unwrap();
                assert_eq!(shard.get("index").unwrap().as_u64(), Some(i));
                assert_eq!(shard.get("count").unwrap().as_u64(), Some(n));
                pair_sum += doc.get("dirty_pairs").unwrap().as_u64().unwrap();
                query_sum += doc.get("queries").unwrap().as_u64().unwrap();
            }
            assert_eq!(pair_sum, whole_pairs, "{n} shards must partition the pairs");
            assert_eq!(query_sum, whole_queries, "{n} shards duplicated queries");
        }

        // Inconsistent workload: the minimum pair over the shards is the
        // global minimum the unsharded run reports. (Pair *counts* differ
        // here by design — the unsharded scan short-circuits at the first
        // violation, a shard that owns none scans its whole slice.)
        let whole = wire(CHECK_INTENT, None);
        let whole_pair = whole.get("pair").unwrap();
        let min_pair = (
            whole_pair.get("class").unwrap().as_u64().unwrap(),
            whole_pair.get("path").unwrap().as_u64().unwrap(),
        );
        let mut best: Option<(u64, u64)> = None;
        for i in 0..2 {
            let doc = wire(CHECK_INTENT, Some((i, 2)));
            let p = doc.get("pair").unwrap();
            if let (Some(c), Some(pi)) = (
                p.get("class").and_then(jinjing_obs::json::Json::as_u64),
                p.get("path").and_then(jinjing_obs::json::Json::as_u64),
            ) {
                let candidate = (c, pi);
                if best.map_or(true, |b| candidate < b) {
                    best = Some(candidate);
                }
            }
        }
        assert_eq!(best, Some(min_pair), "min over shards is the global min");

        // A malformed shard header is a clean 400.
        let r = client::call(
            &addr,
            "POST",
            "/v1/shard/check",
            &[("X-Jinjing-Shard".to_string(), "3/2".to_string())],
            CHECK_INTENT.as_bytes(),
            Duration::from_secs(20),
        )
        .expect("call");
        assert_eq!(r.status, 400);

        let r = call(&addr, "POST", "/v1/shutdown", "");
        assert_eq!(r.status, 200);
        handle.join().unwrap();
    }

    #[test]
    fn keep_alive_connection_serves_many_requests_on_one_socket() {
        let f = Figure1::new();
        let srv = Server::bind(f.net, f.config, ServeConfig::default()).unwrap();
        let addr = srv.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || srv.run().unwrap());

        let mut conn = client::Conn::new(&addr, Duration::from_secs(20)).expect("conn");
        let one = conn
            .call("POST", "/v1/check", &[], CHECK_INTENT.as_bytes())
            .expect("first");
        let two = conn
            .call("POST", "/v1/check", &[], CHECK_INTENT.as_bytes())
            .expect("second");
        assert_eq!(one.status, 200);
        assert_eq!(two.status, 200);
        assert_eq!(
            one.body_text(),
            two.body_text(),
            "same query, same bytes, same connection"
        );

        let r = call(&addr, "POST", "/v1/shutdown", "");
        assert_eq!(r.status, 200);
        let summary = handle.join().unwrap();
        assert!(
            summary.snapshot.counter("serve.keepalive_requests") >= 1,
            "the second request must ride the pinned connection"
        );
    }

    #[test]
    fn plan_body_parses_sections() {
        let body = "scope A:*\ncheck\n#max-waves 2\n#target\nclear C1 in\n";
        let (intent, target, max_waves) = parse_plan_body(body).unwrap();
        assert_eq!(intent, "scope A:*\ncheck\n");
        assert_eq!(target.as_deref(), Some("clear C1 in\n"));
        assert_eq!(max_waves, 2);

        // No directives: the whole body is the intent, target defaults.
        let (intent, target, max_waves) = parse_plan_body("scope A:*\ncheck\n").unwrap();
        assert_eq!(intent, "scope A:*\ncheck\n");
        assert_eq!(target, None);
        assert_eq!(max_waves, 0);

        assert!(parse_plan_body("check\n#target\n#target\n")
            .unwrap_err()
            .contains("more than one #target"));
        assert!(parse_plan_body("check\n#max-waves 1\n#max-waves 2\n")
            .unwrap_err()
            .contains("more than one #max-waves"));
        assert!(parse_plan_body("check\n#max-waves zebra\n")
            .unwrap_err()
            .contains("wants a number"));
    }

    #[test]
    fn multi_lint_body_parses_sections_and_priority() {
        let body = "#priority alpha,beta\n\
                    #tenant alpha\nscope A:*\ncontrol A:* -> A:* isolate all\ncheck\n\
                    #tenant beta\nscope B:*\ncheck\n";
        let (tenants, priority) = parse_multi_lint_body(body).unwrap();
        assert_eq!(priority, vec!["alpha".to_string(), "beta".to_string()]);
        assert_eq!(tenants.len(), 2);
        assert_eq!(tenants[0].0, "alpha");
        assert!(tenants[0].1.contains("isolate all"));
        assert_eq!(tenants[1].0, "beta");
        assert_eq!(tenants[1].1, "scope B:*\ncheck\n");
    }

    #[test]
    fn multi_lint_body_rejects_malformed_inputs() {
        assert!(parse_multi_lint_body("")
            .unwrap_err()
            .contains("no #tenant"));
        assert!(parse_multi_lint_body("scope A:*\n")
            .unwrap_err()
            .contains("before the first #tenant"));
        assert!(
            parse_multi_lint_body("#tenant a\ncheck\n#tenant a\ncheck\n")
                .unwrap_err()
                .contains("duplicate tenant")
        );
        assert!(parse_multi_lint_body("#tenant a\ncheck\n#priority b\n")
            .unwrap_err()
            .contains("unknown tenant"));
        assert!(parse_multi_lint_body("#tenant\ncheck\n")
            .unwrap_err()
            .contains("wants a name"));
        assert!(
            parse_multi_lint_body("#tenant a\n#priority a\n#priority a\ncheck\n")
                .unwrap_err()
                .contains("more than one")
        );
    }
}
