//! End-to-end tests for the `jinjing-serve` daemon: the byte-identity
//! contract (HTTP response bodies equal the committed CLI goldens under
//! concurrency), the admission-control ladder (429 on a full queue, 408
//! past the deadline, 400/413 for malformed/oversized requests — none of
//! which may wound the daemon), session LRU eviction, rejected-delta
//! parity with the in-process session API, and graceful drain.
//!
//! Everything runs over real loopback sockets against `tests/golden/*`;
//! `scripts/ci.sh` runs it again under `JINJING_THREADS=4` — the goldens
//! must not care.

use std::path::PathBuf;
use std::time::Duration;

use jinjing_core::engine::EngineConfig;
use jinjing_core::figure1::Figure1;
use jinjing_core::query::{open_intent_session, recheck_steps, WatchOutput};
use jinjing_serve::client::{call, CallResponse};
use jinjing_serve::{ServeConfig, ServeSummary, Server};

/// Mirrors `tests/cli_golden.rs` (the goldens are rendered from this
/// exact program — keep the two in sync).
const RUNNING_EXAMPLE_BODY: &str = r#"
acl PermitAll { permit all }
acl A1' {
    deny dst 1.0.0.0/8
    deny dst 2.0.0.0/8
    deny dst 6.0.0.0/8
    permit all
}
acl A3' {
    deny dst 7.0.0.0/8
    permit all
}
scope A:*, B:*, C:*, D:*
allow A:*, B:*
modify D:2 to PermitAll
modify C:1 to PermitAll
modify A:1 to A1'
modify A:3-out to A3'
"#;

/// Mirrors `tests/cli_golden.rs`.
const GENERATE_SRC: &str = r#"
acl PermitAll { permit all }
scope A:*, B:*, C:*, D:*
allow C:1-in, C:2-in, D:1-in
modify A:1 to PermitAll
modify D:2 to PermitAll
generate
"#;

/// Mirrors `tests/cli_golden.rs`.
const WATCH_DELTAS: &str = r#"
# rewrite A1 with a redundant /16 shadowed by its /8: same packet set,
# different rules — a consistent (applied) edit that still dirties classes
step rewrite-a1
set A:1 deny dst 6.0.0.0/8; deny dst 6.1.0.0/16; default permit

# drop D2's denies entirely: opens traffic 1/2 end to end, rejected
step open-d2
set D:2 default permit

# empty delta: the fast path
step noop
"#;

fn golden_dir() -> PathBuf {
    for cand in ["tests/golden", "../../tests/golden"] {
        let p = PathBuf::from(cand);
        if p.is_dir() {
            return p;
        }
    }
    PathBuf::from(file!())
        .parent()
        .expect("source file has a parent")
        .join("golden")
}

fn golden(name: &str) -> String {
    let path = golden_dir().join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e})", path.display()))
}

/// Stand a daemon up on an ephemeral port; returns its address and the
/// join handle for the drained summary.
fn start(cfg: ServeConfig) -> (String, std::thread::JoinHandle<ServeSummary>) {
    let f = Figure1::new();
    let srv = Server::bind(f.net, f.config, cfg).expect("bind");
    let addr = srv.local_addr().expect("addr").to_string();
    let handle = std::thread::spawn(move || srv.run().expect("serve"));
    (addr, handle)
}

fn post(addr: &str, path: &str, body: &str) -> CallResponse {
    call(
        addr,
        "POST",
        path,
        &[],
        body.as_bytes(),
        Duration::from_secs(30),
    )
    .expect("call")
}

fn shutdown(addr: &str, handle: std::thread::JoinHandle<ServeSummary>) -> ServeSummary {
    let r = post(addr, "/v1/shutdown", "");
    assert_eq!(r.status, 200, "{}", r.body_text());
    handle.join().expect("daemon thread")
}

/// The serving contract: four concurrent clients each exercise every
/// endpoint and every response body must be byte-identical to the
/// committed CLI golden — same renderer, same bytes, no matter how many
/// clients race or how many engine threads run (`JINJING_THREADS` is
/// honored daemon-side; `scripts/ci.sh` re-runs this at 4).
#[test]
fn concurrent_clients_render_the_cli_goldens_byte_for_byte() {
    let (addr, handle) = start(ServeConfig {
        workers: 4,
        deadline_ms: 60_000,
        ..ServeConfig::default()
    });
    let check_golden = golden("check.json");
    let fix_golden = golden("fix.json");
    let generate_golden = golden("generate.json");
    let lint_golden = golden("lint.json");
    let watch_golden = golden("watch.json");
    let check_intent = format!("{RUNNING_EXAMPLE_BODY}check\n");
    let fix_intent = format!("{RUNNING_EXAMPLE_BODY}fix\n");

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (addr, check_intent, fix_intent) = (&addr, &check_intent, &fix_intent);
                let (check_golden, fix_golden, generate_golden, lint_golden, watch_golden) = (
                    &check_golden,
                    &fix_golden,
                    &generate_golden,
                    &lint_golden,
                    &watch_golden,
                );
                s.spawn(move || {
                    let r = post(addr, "/v1/check", check_intent);
                    assert_eq!(r.status, 200, "{}", r.body_text());
                    assert_eq!(r.body_text(), *check_golden, "check drifted from golden");
                    assert_eq!(r.exit_code(), 3, "inconsistent check gates with 3");

                    let r = post(addr, "/v1/fix", fix_intent);
                    assert_eq!(r.status, 200, "{}", r.body_text());
                    assert_eq!(r.body_text(), *fix_golden, "fix drifted from golden");
                    assert_eq!(r.exit_code(), 0);

                    let r = post(addr, "/v1/generate", GENERATE_SRC);
                    assert_eq!(r.status, 200, "{}", r.body_text());
                    assert_eq!(
                        r.body_text(),
                        *generate_golden,
                        "generate drifted from golden"
                    );

                    let r = post(addr, "/v1/lint", check_intent);
                    assert_eq!(r.status, 200, "{}", r.body_text());
                    assert_eq!(r.body_text(), *lint_golden, "lint drifted from golden");

                    // Each client gets its own session; a whole-script
                    // delta batch renders the CLI's watch document.
                    let r = post(addr, "/v1/sessions", check_intent);
                    assert_eq!(r.status, 200, "{}", r.body_text());
                    let body = r.body_text();
                    let id = body
                        .split("\"id\":\"")
                        .nth(1)
                        .and_then(|s| s.split('"').next().map(str::to_string))
                        .expect("session id");
                    let r = post(addr, &format!("/v1/sessions/{id}/delta"), WATCH_DELTAS);
                    assert_eq!(r.status, 200, "{}", r.body_text());
                    assert_eq!(r.body_text(), *watch_golden, "watch drifted from golden");
                    assert_eq!(r.exit_code(), 3, "a rejected delta gates with 3");
                    let r = call(
                        addr,
                        "DELETE",
                        &format!("/v1/sessions/{id}"),
                        &[],
                        b"",
                        Duration::from_secs(30),
                    )
                    .expect("delete");
                    assert_eq!(r.status, 200);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
    });

    let summary = shutdown(&addr, handle);
    assert_eq!(summary.snapshot.counter("serve.sessions_opened"), 4);
    assert_eq!(summary.snapshot.counter("serve.sessions_closed"), 4);
    assert_eq!(
        summary.snapshot.counter("serve.deltas_rejected"),
        4,
        "one rejected step per client"
    );
    assert_eq!(summary.shed, 0);
}

/// Backpressure: one worker, one queue slot. While the worker is pinned
/// and the slot is taken, the next request is shed with 429 +
/// `Retry-After` — and both admitted jobs still finish.
#[test]
fn full_queue_sheds_with_429_and_retry_after() {
    let (addr, handle) = start(ServeConfig {
        workers: 1,
        queue: 1,
        deadline_ms: 60_000,
        allow_test_delay: true,
        ..ServeConfig::default()
    });
    let intent = format!("{RUNNING_EXAMPLE_BODY}check\n");
    let delayed = |addr: &str, ms: &str, intent: &str| {
        call(
            addr,
            "POST",
            "/v1/check",
            &[("X-Jinjing-Test-Delay-Ms".to_string(), ms.to_string())],
            intent.as_bytes(),
            Duration::from_secs(30),
        )
        .expect("call")
    };

    std::thread::scope(|s| {
        // Pin the only worker…
        let t1 = s.spawn(|| delayed(&addr, "2000", &intent));
        std::thread::sleep(Duration::from_millis(500));
        // …fill the only queue slot…
        let t2 = s.spawn(|| delayed(&addr, "0", &intent));
        std::thread::sleep(Duration::from_millis(300));
        // …and the third concurrent request must be shed, immediately.
        let r = post(&addr, "/v1/check", &intent);
        assert_eq!(r.status, 429, "{}", r.body_text());
        assert_eq!(r.header("retry-after"), Some("1"));
        assert!(r.body_text().contains("queue full"), "{}", r.body_text());
        assert_eq!(r.exit_code(), 1);
        // Both admitted jobs are still answered in full.
        assert_eq!(t1.join().expect("t1").status, 200);
        assert_eq!(t2.join().expect("t2").status, 200);
    });

    let summary = shutdown(&addr, handle);
    assert_eq!(summary.shed, 1);
    assert_eq!(summary.snapshot.counter("serve.http_429"), 1);
}

/// Deadlines: a job that outwaits its `X-Jinjing-Deadline-Ms` in the
/// queue is answered 408 without ever touching the solver.
#[test]
fn queued_past_deadline_is_answered_408() {
    let (addr, handle) = start(ServeConfig {
        workers: 1,
        queue: 4,
        deadline_ms: 60_000,
        allow_test_delay: true,
        ..ServeConfig::default()
    });
    let intent = format!("{RUNNING_EXAMPLE_BODY}check\n");

    std::thread::scope(|s| {
        // Pin the worker for ~1.5 s.
        let t1 = s.spawn(|| {
            call(
                &addr,
                "POST",
                "/v1/check",
                &[("X-Jinjing-Test-Delay-Ms".to_string(), "1500".to_string())],
                intent.as_bytes(),
                Duration::from_secs(30),
            )
            .expect("call")
        });
        std::thread::sleep(Duration::from_millis(300));
        // This one's deadline expires while it waits behind t1.
        let r = call(
            &addr,
            "POST",
            "/v1/check",
            &[("X-Jinjing-Deadline-Ms".to_string(), "200".to_string())],
            intent.as_bytes(),
            Duration::from_secs(30),
        )
        .expect("call");
        assert_eq!(r.status, 408, "{}", r.body_text());
        assert!(r.body_text().contains("deadline"), "{}", r.body_text());
        assert_eq!(r.exit_code(), 1);
        assert_eq!(t1.join().expect("t1").status, 200);
    });

    let summary = shutdown(&addr, handle);
    assert_eq!(summary.snapshot.counter("serve.deadline_expired"), 1);
    assert_eq!(summary.snapshot.counter("serve.http_408"), 1);
}

/// Hostile input: garbage bytes get 400, an oversized body gets 413 (its
/// payload never read), and the daemon keeps serving afterwards.
#[test]
fn malformed_and_oversized_requests_do_not_wound_the_daemon() {
    use std::io::{Read, Write};

    let (addr, handle) = start(ServeConfig {
        workers: 1,
        max_body: 2048,
        ..ServeConfig::default()
    });

    // Raw garbage on the socket → 400 with the canonical error shape.
    let mut s = std::net::TcpStream::connect(&addr).expect("connect");
    s.write_all(b"NOT-HTTP AT ALL\r\n\r\n").expect("write");
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).expect("read");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 400 "), "{text}");
    assert!(text.contains("\"status\":400"), "{text}");
    drop(s);

    // A body past max_body → 413, rejected on the declared length alone.
    let huge = "x".repeat(4096);
    let r = post(&addr, "/v1/check", &huge);
    assert_eq!(r.status, 413, "{}", r.body_text());
    assert_eq!(r.exit_code(), 1);

    // An unparseable intent → 400 with the engine's message.
    let r = post(&addr, "/v1/check", "scope Z:*\ncheck\n");
    assert_eq!(r.status, 400, "{}", r.body_text());

    // None of that wounded the daemon: a real check still serves.
    let r = post(
        &addr,
        "/v1/check",
        &format!("{RUNNING_EXAMPLE_BODY}check\n"),
    );
    assert_eq!(r.status, 200, "{}", r.body_text());
    assert_eq!(r.exit_code(), 3);

    let summary = shutdown(&addr, handle);
    assert_eq!(summary.snapshot.counter("serve.http_400"), 2);
    assert_eq!(summary.snapshot.counter("serve.http_413"), 1);
}

/// Graceful drain: jobs admitted before the shutdown are still answered;
/// afterwards the listener is gone.
#[test]
fn graceful_drain_answers_admitted_jobs_then_stops_listening() {
    let (addr, handle) = start(ServeConfig {
        workers: 1,
        queue: 4,
        deadline_ms: 60_000,
        allow_test_delay: true,
        ..ServeConfig::default()
    });
    let intent = format!("{RUNNING_EXAMPLE_BODY}check\n");

    std::thread::scope(|s| {
        // Pin the worker, then queue a second job behind it.
        let t1 = s.spawn(|| {
            call(
                &addr,
                "POST",
                "/v1/check",
                &[("X-Jinjing-Test-Delay-Ms".to_string(), "1000".to_string())],
                intent.as_bytes(),
                Duration::from_secs(30),
            )
            .expect("call")
        });
        std::thread::sleep(Duration::from_millis(300));
        let t2 = s.spawn(|| post(&addr, "/v1/check", &intent));
        std::thread::sleep(Duration::from_millis(100));
        // Drain while both are in flight.
        let r = post(&addr, "/v1/shutdown", "");
        assert_eq!(r.status, 200);
        assert!(r.body_text().contains("draining"));
        // Every admitted job is still answered in full.
        assert_eq!(t1.join().expect("t1").status, 200);
        assert_eq!(t2.join().expect("t2").status, 200);
    });

    let summary = handle.join().expect("daemon thread");
    assert!(summary.requests >= 3);
    // The listener is closed: new connections are refused.
    assert!(
        call(
            &addr,
            "GET",
            "/healthz",
            &[],
            b"",
            Duration::from_millis(500)
        )
        .is_err(),
        "a drained daemon must not accept new connections"
    );
}

/// Satellite regression: a delta rejected over HTTP leaves the resident
/// session *byte-identical* to an in-process mirror session fed the same
/// batches — including every later batch, which would diverge if the
/// rejected delta had leaked into the daemon's session base.
#[test]
fn rejected_delta_over_http_leaves_the_session_byte_identical() {
    let (addr, handle) = start(ServeConfig::default());
    let intent = format!("{RUNNING_EXAMPLE_BODY}check\n");

    // The daemon-side session.
    let r = post(&addr, "/v1/sessions", &intent);
    assert_eq!(r.status, 200, "{}", r.body_text());
    let id = r
        .body_text()
        .split("\"id\":\"")
        .nth(1)
        .and_then(|s| s.split('"').next().map(str::to_string))
        .expect("session id");

    // The in-process mirror, fed the same batches through the same
    // query layer the daemon uses.
    let f = Figure1::new();
    let cfg = EngineConfig::default();
    let mut mirror = open_intent_session(&f.net, &f.config, &intent, &cfg).expect("mirror opens");
    let class_count = mirror.class_count();

    let batches = [
        // A consistent tightening (applied).
        "step rewrite-a1\nset A:1 deny dst 6.0.0.0/8; deny dst 6.1.0.0/16; default permit\n",
        // The violating opening (rejected — must NOT advance the base).
        "step open-d2\nset D:2 default permit\n",
        // A post-rejection no-op batch: diverges if the rejection leaked.
        "step noop\n",
        // A second consistent edit on top of the (unchanged) base.
        "step tighten-a3\nset A:3-out deny dst 7.0.0.0/8; default permit\n",
    ];
    for batch in batches {
        let http = post(&addr, &format!("/v1/sessions/{id}/delta"), batch);
        assert_eq!(http.status, 200, "{}", http.body_text());
        let deltas = jinjing_core::incr::parse_delta_script(&f.net, batch).expect("parse batch");
        let steps = recheck_steps(&mut mirror, &deltas).expect("mirror recheck");
        let want = WatchOutput::from_steps(
            class_count,
            deltas.len(),
            steps,
            jinjing_obs::Snapshot::empty(),
        )
        .to_canonical_json();
        assert_eq!(
            http.body_text(),
            want,
            "daemon session diverged from the in-process mirror on {batch:?}"
        );
    }

    let summary = shutdown(&addr, handle);
    assert_eq!(summary.snapshot.counter("serve.deltas_rejected"), 1);
}

/// The LRU cap: opening past `max_sessions` evicts the least-recently
/// used session, which then 404s; the eviction is counted and visible
/// on `/metrics`.
#[test]
fn session_store_evicts_lru_past_the_cap() {
    let (addr, handle) = start(ServeConfig {
        max_sessions: 2,
        ..ServeConfig::default()
    });
    let intent = format!("{RUNNING_EXAMPLE_BODY}check\n");

    let open = |addr: &str| {
        let r = post(addr, "/v1/sessions", &intent);
        assert_eq!(r.status, 200, "{}", r.body_text());
        r.body_text()
            .split("\"id\":\"")
            .nth(1)
            .and_then(|s| s.split('"').next().map(str::to_string))
            .expect("session id")
    };
    let s1 = open(&addr);
    let s2 = open(&addr);
    // Touch s1 so s2 is the LRU victim of the next open.
    let r = post(&addr, &format!("/v1/sessions/{s1}/delta"), "step touch\n");
    assert_eq!(r.status, 200, "{}", r.body_text());
    let s3 = open(&addr);

    let r = post(&addr, &format!("/v1/sessions/{s2}/delta"), "step x\n");
    assert_eq!(r.status, 404, "evicted session must 404, got {}", r.status);
    assert!(r.body_text().contains("evicted"), "{}", r.body_text());
    for alive in [&s1, &s3] {
        let r = post(&addr, &format!("/v1/sessions/{alive}/delta"), "step ok\n");
        assert_eq!(r.status, 200, "{}", r.body_text());
    }

    // The eviction shows on the Prometheus endpoint.
    let metrics = call(&addr, "GET", "/metrics", &[], b"", Duration::from_secs(30))
        .expect("metrics")
        .body_text();
    assert!(
        metrics.contains("jinjing_serve_sessions_evicted 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("jinjing_serve_sessions_live 2"),
        "{metrics}"
    );

    let summary = shutdown(&addr, handle);
    assert_eq!(summary.snapshot.counter("serve.sessions_evicted"), 1);
}

/// `POST /v1/lint/multi` renders the committed multi-tenant golden
/// byte-for-byte from the same example pair the CLI goldens use: the
/// tenant-sectioned wire body is just another front end over
/// `engine::lint_multi`. A conflicting pair gates with exit 4; malformed
/// bodies 400 without wounding the daemon.
#[test]
fn multi_tenant_lint_renders_the_cli_golden_byte_for_byte() {
    let (addr, handle) = start(ServeConfig::default());

    let examples = {
        let mut found = None;
        for cand in ["examples/data", "../../examples/data"] {
            if PathBuf::from(cand).is_dir() {
                found = Some(PathBuf::from(cand));
                break;
            }
        }
        found.expect("examples/data not found")
    };
    let read = |name: &str| {
        let path = examples.join(format!("tenant-{name}.lai"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
    };
    let body = format!(
        "#priority alpha,beta\n#tenant alpha\n{}#tenant beta\n{}",
        read("alpha"),
        read("beta")
    );

    let r = post(&addr, "/v1/lint/multi", &body);
    assert_eq!(r.status, 200, "{}", r.body_text());
    assert_eq!(
        r.body_text(),
        golden("lint_multi.json"),
        "multi-tenant lint drifted from golden"
    );
    // JL301 is a warning, not an error: the report itself exits 0.
    assert_eq!(r.exit_code(), 0);

    // Malformed bodies are a client error, not a daemon wound.
    for bad in [
        "check\n",                                         // content before any #tenant
        "#tenant\ncheck\n",                                // nameless section
        "#tenant a\ncheck\n#tenant a\n",                   // duplicate tenant
        "#priority nosuch\n#tenant a\nscope A:*\ncheck\n", // unknown priority name
    ] {
        let r = post(&addr, "/v1/lint/multi", bad);
        assert_eq!(r.status, 400, "body {bad:?}: {}", r.body_text());
    }

    // The daemon is still healthy afterwards.
    let r = post(&addr, "/v1/lint/multi", &body);
    assert_eq!(r.status, 200, "{}", r.body_text());

    let summary = shutdown(&addr, handle);
    assert_eq!(summary.shed, 0, "nothing should have been shed");
}

/// `POST /v1/plan` is byte-identical to `jinjing plan --format json` on
/// the committed fixtures: the feasible relocation golden with exit 0,
/// the infeasible drop with `X-Jinjing-Exit: 3`, and malformed bodies
/// answered 400 without wounding the daemon.
#[test]
fn plan_endpoint_renders_the_cli_goldens_byte_for_byte() {
    let (addr, handle) = start(ServeConfig::default());

    let examples = {
        let mut found = None;
        for cand in ["examples/data", "../../examples/data"] {
            if PathBuf::from(cand).is_dir() {
                found = Some(PathBuf::from(cand));
                break;
            }
        }
        found.expect("examples/data not found")
    };
    let read = |name: &str| {
        let path = examples.join(name);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
    };
    // Mirrors `tests/cli_golden.rs` (PLAN_INTENT + the --target fixtures).
    let intent = "scope A:*, B:*, C:*, D:*\ncheck\n";

    let body = format!("{intent}#target\n{}", read("rollout-target.deltas"));
    let r = post(&addr, "/v1/plan", &body);
    assert_eq!(r.status, 200, "{}", r.body_text());
    assert_eq!(
        r.body_text(),
        golden("plan_feasible.json"),
        "feasible plan drifted from golden"
    );
    assert_eq!(r.exit_code(), 0);

    let body = format!("{intent}#target\n{}", read("rollout-impossible.deltas"));
    let r = post(&addr, "/v1/plan", &body);
    assert_eq!(r.status, 200, "{}", r.body_text());
    assert_eq!(
        r.body_text(),
        golden("plan_infeasible.json"),
        "infeasible plan drifted from golden"
    );
    assert_eq!(
        r.exit_code(),
        3,
        "unorderable update gates like a failed check"
    );

    // A wave budget is honored: one wave cannot host the ordered pair.
    let body = format!(
        "{intent}#max-waves 1\n#target\n{}",
        read("rollout-target.deltas")
    );
    let r = post(&addr, "/v1/plan", &body);
    assert_eq!(r.status, 200, "{}", r.body_text());
    assert_eq!(r.exit_code(), 3);

    // Malformed bodies are a client error, not a daemon wound.
    for bad in [
        "",                                                         // no intent at all
        "scope A:*\ncheck\n#target\n#target\n",                     // duplicate #target
        "scope A:*\ncheck\n#max-waves x\n",                         // bad number
        "scope A:*\ncheck\n#target\nset nosuch:1 default permit\n", // bad delta
    ] {
        let r = post(&addr, "/v1/plan", bad);
        assert_eq!(r.status, 400, "body {bad:?}: {}", r.body_text());
    }

    // The daemon is still healthy afterwards.
    let body = format!("{intent}#target\n{}", read("rollout-target.deltas"));
    let r = post(&addr, "/v1/plan", &body);
    assert_eq!(r.status, 200, "{}", r.body_text());

    let summary = shutdown(&addr, handle);
    assert_eq!(summary.shed, 0, "nothing should have been shed");
}
