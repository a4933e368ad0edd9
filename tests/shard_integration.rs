//! End-to-end tests for the `jinjing-shard` coordinator: the byte-identity
//! contract (coordinator responses equal the committed single-process CLI
//! goldens at every shard width and engine thread count), the backend-down
//! failure mode (canonical-JSON error, no partial results), and the
//! streaming protocol (progress docs followed by the identical final body).
//!
//! Everything runs over real loopback sockets: one coordinator fronting
//! N `jinjing-serve` backends, all on the Figure 1 network, pinned to
//! `tests/golden/*`; `scripts/ci.sh` runs it again under
//! `JINJING_THREADS=4` — the goldens must not care.

use std::path::PathBuf;
use std::time::Duration;

use jinjing_core::figure1::Figure1;
use jinjing_obs::json;
use jinjing_serve::client::{call, call_stream, CallResponse};
use jinjing_serve::{ServeConfig, ServeSummary, Server};
use jinjing_shard::{CoordSummary, Coordinator, ShardConfig};

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

fn examples_dir() -> PathBuf {
    for cand in ["examples/data", "../../examples/data"] {
        let p = PathBuf::from(cand);
        if p.is_dir() {
            return p;
        }
    }
    panic!("examples/data not found");
}

/// A `jinjing-serve` backend on an ephemeral port.
fn backend() -> (String, std::thread::JoinHandle<ServeSummary>) {
    let f = Figure1::new();
    let srv = Server::bind(f.net, f.config, ServeConfig::default()).expect("backend bind");
    let addr = srv.local_addr().expect("backend addr").to_string();
    let handle = std::thread::spawn(move || srv.run().expect("backend run"));
    (addr, handle)
}

/// A coordinator fronting `backends`, with explicit engine threads.
fn coordinator(
    backends: Vec<String>,
    threads: usize,
) -> (String, std::thread::JoinHandle<CoordSummary>) {
    let f = Figure1::new();
    let coord = Coordinator::bind(
        f.net,
        f.config,
        ShardConfig {
            backends,
            threads,
            ..ShardConfig::default()
        },
    )
    .expect("coordinator bind");
    let addr = coord.local_addr().expect("coordinator addr").to_string();
    let handle = std::thread::spawn(move || coord.run().expect("coordinator run"));
    (addr, handle)
}

fn post(addr: &str, path: &str, body: &str) -> CallResponse {
    call(
        addr,
        "POST",
        path,
        &[],
        body.as_bytes(),
        Duration::from_secs(60),
    )
    .expect("call")
}

fn shutdown<T>(addr: &str, handle: std::thread::JoinHandle<T>) -> T {
    let r = post(addr, "/v1/shutdown", "");
    assert_eq!(r.status, 200, "{}", r.body_text());
    handle.join().expect("server thread")
}

/// The tentpole contract: the coordinator's check / lint / plan responses
/// are byte-identical to the committed single-process CLI goldens at every
/// shard width in {1, 2, 4} and at engine threads {1, 4}. Sharding and
/// threading are pure partitions of the solver work — never of the
/// rendered report.
#[test]
fn coordinator_matches_single_process_goldens_at_every_width_and_thread_count() {
    let check_golden = golden("check.json");
    let lint_golden = golden("lint.json");
    let plan_golden = golden("plan_feasible.json");
    let check_intent = format!("{RUNNING_EXAMPLE_BODY}check\n");
    let target = std::fs::read_to_string(examples_dir().join("rollout-target.deltas"))
        .expect("read rollout-target.deltas");
    let plan_body = format!("scope A:*, B:*, C:*, D:*\ncheck\n#target\n{target}");

    for width in [1usize, 2, 4] {
        for threads in [1usize, 4] {
            let mut backends = Vec::new();
            for _ in 0..width {
                backends.push(backend());
            }
            let addrs: Vec<String> = backends.iter().map(|(a, _)| a.clone()).collect();
            let (coord, coord_handle) = coordinator(addrs, threads);
            let why = format!("width {width}, threads {threads}");

            let r = post(&coord, "/v1/check", &check_intent);
            assert_eq!(r.status, 200, "{why}: {}", r.body_text());
            assert_eq!(r.body_text(), check_golden, "{why}: check drifted");
            assert_eq!(r.exit_code(), 3, "{why}: inconsistent check gates with 3");

            let r = post(&coord, "/v1/lint", &check_intent);
            assert_eq!(r.status, 200, "{why}: {}", r.body_text());
            assert_eq!(r.body_text(), lint_golden, "{why}: lint drifted");
            assert_eq!(r.exit_code(), 0, "{why}");

            let r = post(&coord, "/v1/plan", &plan_body);
            assert_eq!(r.status, 200, "{why}: {}", r.body_text());
            assert_eq!(r.body_text(), plan_golden, "{why}: plan drifted");
            assert_eq!(r.exit_code(), 0, "{why}");

            let summary = shutdown(&coord, coord_handle);
            assert!(summary.requests >= 3, "{why}: {}", summary.requests);
            // The merged snapshot proves a real fan-out happened, and
            // every backend served at least one shard slice of it.
            assert!(
                summary.snapshot.counter("shard.fan_outs") >= 1,
                "{why}: the check must delegate its solver pass"
            );
            for (addr, handle) in backends {
                let s = shutdown(&addr, handle);
                assert!(s.requests >= 1, "{why}: idle backend at {addr}");
            }
        }
    }
}

/// Streaming: with `X-Jinjing-Stream: 1` the coordinator answers in
/// chunked transfer encoding — per-shard progress documents first, then a
/// final chunk that is byte-identical to the plain (unstreamed) response.
#[test]
fn streamed_check_emits_progress_then_the_golden_bytes() {
    let check_golden = golden("check.json");
    let check_intent = format!("{RUNNING_EXAMPLE_BODY}check\n");
    let (b1, h1) = backend();
    let (b2, h2) = backend();
    let (coord, coord_handle) = coordinator(vec![b1.clone(), b2.clone()], 1);

    let mut chunks: Vec<String> = Vec::new();
    let r = call_stream(
        &coord,
        "POST",
        "/v1/check",
        &[("X-Jinjing-Stream".to_string(), "1".to_string())],
        check_intent.as_bytes(),
        Duration::from_secs(60),
        &mut |frame: &[u8]| chunks.push(String::from_utf8_lossy(frame).into_owned()),
    )
    .expect("streamed call");
    assert_eq!(r.status, 200, "{}", r.body_text());
    // Streamed responses carry no exit header: the verdict arrives in the
    // final chunk, after the status line has long been sent.
    assert_eq!(r.header("x-jinjing-exit"), None);
    assert!(
        chunks.len() >= 3,
        "want >=2 progress docs + the final body, got {chunks:?}"
    );
    let last = chunks.last().expect("final chunk");
    assert_eq!(last, &check_golden, "final chunk must be the golden bytes");
    for progress in &chunks[..chunks.len() - 1] {
        assert!(
            progress.contains("\"shards\":2"),
            "progress doc should name the fan-out width: {progress}"
        );
    }

    shutdown(&coord, coord_handle);
    shutdown(&b1, h1);
    shutdown(&b2, h2);
}

/// No partial results: when any backend is down the whole request fails
/// with a canonical-JSON error document naming the dead shard — the
/// coordinator never silently degrades to a narrower fan-out.
#[test]
fn a_dead_backend_fails_the_whole_request_with_canonical_json() {
    let (alive, h1) = backend();
    // Bind then drop: a port that refuses connections.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr").to_string()
    };
    let (coord, coord_handle) = coordinator(vec![alive.clone(), dead], 1);
    let check_intent = format!("{RUNNING_EXAMPLE_BODY}check\n");

    for path in ["/v1/check", "/v1/lint", "/v1/plan"] {
        let r = post(&coord, path, &check_intent);
        assert_eq!(r.status, 502, "{path}: {}", r.body_text());
        assert_eq!(r.exit_code(), 1, "{path}");
        let doc = json::parse(r.body_text().trim()).expect("error body is canonical JSON");
        assert_eq!(
            doc.get("status").and_then(json::Json::as_u64),
            Some(502),
            "{path}: {}",
            r.body_text()
        );
        let msg = doc
            .get("error")
            .and_then(json::Json::as_str)
            .expect("error string");
        assert!(
            msg.contains("shard 1/2"),
            "{path}: error must name the dead shard: {msg}"
        );
    }

    // The healthy backend was untouched by the failure; a full-width
    // coordinator over it alone still renders the golden.
    let (solo, solo_handle) = coordinator(vec![alive.clone()], 1);
    let r = post(&solo, "/v1/check", &check_intent);
    assert_eq!(r.status, 200, "{}", r.body_text());
    assert_eq!(r.body_text(), golden("check.json"));

    shutdown(&solo, solo_handle);
    shutdown(&coord, coord_handle);
    shutdown(&alive, h1);
}
