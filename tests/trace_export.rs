//! Flight-recorder contract tests: deterministic trace ids, valid Chrome
//! `trace_event` export shape (balanced B/E per thread track, monotone
//! timestamps), byte-identity of the report with tracing on vs off at 1
//! and 4 worker threads, and layer coverage (engine, pool worker, solver
//! spans all present in one capture).

use jinjing_core::engine::EngineConfig;
use jinjing_core::figure1::Figure1;
use jinjing_core::query::run_query;
use jinjing_obs::json::{self, Json};
use jinjing_obs::{trace_id_of, TraceCtx};

const INTENT: &str = "\
acl PermitAll { permit all }
scope A:*, B:*, C:*, D:*
allow A:*, B:*
modify D:2 to PermitAll
check
";

/// Run the Figure 1 check with the recorder armed; returns the canonical
/// plan bytes and the Chrome trace JSON.
fn capture(threads: usize) -> (String, String) {
    let f = Figure1::new();
    let cfg = EngineConfig {
        threads,
        ..EngineConfig::default()
    };
    let t = TraceCtx::new(&trace_id_of(INTENT));
    cfg.check.obs.attach_trace_ctx(t.clone());
    let out = run_query(&f.net, &f.config, INTENT, &cfg).expect("traced query");
    (out.plan.to_canonical_json(), t.to_chrome_json())
}

/// Minimal event extraction over the recorder's own writer output: split
/// the `traceEvents` array into objects by brace depth and pull the
/// `ph`/`tid`/`ts` fields. (The writer emits no braces inside strings
/// for these spans, so depth counting is exact.)
fn events(json: &str) -> Vec<(String, u64, Option<f64>)> {
    let marker = "\"traceEvents\":[";
    let start = json.find(marker).expect("traceEvents array") + marker.len();
    let mut objects: Vec<String> = Vec::new();
    let mut depth = 0usize;
    let mut obj = String::new();
    for c in json[start..].chars() {
        match c {
            '{' => {
                depth += 1;
                obj.push(c);
            }
            '}' => {
                depth -= 1;
                obj.push(c);
                if depth == 0 {
                    objects.push(std::mem::take(&mut obj));
                }
            }
            ']' if depth == 0 => break,
            _ if depth > 0 => obj.push(c),
            _ => {}
        }
    }
    objects
        .iter()
        .map(|o| {
            let field = |k: &str| {
                o.split(&format!("\"{k}\":")).nth(1).map(|rest| {
                    rest.split([',', '}'])
                        .next()
                        .expect("field has a value")
                        .trim_matches('"')
                        .to_string()
                })
            };
            (
                field("ph").expect("event has ph"),
                field("tid")
                    .and_then(|v| v.parse().ok())
                    .expect("event has tid"),
                field("ts").and_then(|v| v.parse().ok()),
            )
        })
        .collect()
}

#[test]
fn trace_ids_are_deterministic_and_input_sensitive() {
    // FNV-1a offset basis: the pinned id of the empty input.
    assert_eq!(trace_id_of(""), "tcbf29ce484222325");
    assert_eq!(trace_id_of(INTENT), trace_id_of(INTENT));
    assert_ne!(trace_id_of(INTENT), trace_id_of("check\n"));
    let id = trace_id_of(INTENT);
    assert!(id.starts_with('t'), "{id}");
    assert_eq!(id.len(), 17, "t + 16 hex digits: {id}");
}

#[test]
fn tracing_is_byte_invisible_at_1_and_4_threads() {
    let f = Figure1::new();
    let plain = |threads: usize| {
        let cfg = EngineConfig {
            threads,
            ..EngineConfig::default()
        };
        run_query(&f.net, &f.config, INTENT, &cfg)
            .expect("untraced query")
            .plan
            .to_canonical_json()
    };
    let reference = plain(1);
    assert_eq!(reference, plain(4), "threads alone must not move bytes");
    assert_eq!(reference, capture(1).0, "tracing on, serial");
    assert_eq!(reference, capture(4).0, "tracing on, 4 workers");
}

#[test]
fn chrome_export_is_balanced_and_monotone_per_track() {
    for threads in [1usize, 4] {
        let (_, json) = capture(threads);
        let evs = events(&json);
        assert!(!evs.is_empty(), "capture recorded no events");
        // Balanced B/E per tid: no End without a Begin, nothing left open.
        let mut open: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        // Monotone ts per tid (the recorder stamps under one lock, so
        // the stream is globally ordered; per-track follows).
        let mut last_ts: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
        for (ph, tid, ts) in &evs {
            match ph.as_str() {
                "B" => *open.entry(*tid).or_default() += 1,
                "E" => {
                    let n = open.entry(*tid).or_default();
                    assert!(*n > 0, "E without a B on tid {tid} ({threads} threads)");
                    *n -= 1;
                }
                "i" | "C" | "M" => {}
                other => panic!("unexpected phase {other:?}"),
            }
            if let Some(ts) = ts {
                let prev = last_ts.entry(*tid).or_insert(f64::MIN);
                assert!(
                    *ts >= *prev,
                    "ts went backwards on tid {tid}: {prev} -> {ts} ({threads} threads)"
                );
                *prev = *ts;
            }
            if *ph == *"M" {
                assert!(ts.is_none(), "metadata events carry no ts");
            }
        }
        assert!(
            open.values().all(|&n| n == 0),
            "unbalanced spans left open: {open:?} ({threads} threads)"
        );
    }
}

#[test]
fn capture_contains_every_layer() {
    let (_, json) = capture(4);
    for needle in [
        "\"displayTimeUnit\":\"ms\"",
        "\"dropped_events\":0",
        "engine.run",
        "check.pair",
        "solver.query",
        "worker-0",
        "solver.conflicts",
    ] {
        assert!(
            needle.is_empty() || json.contains(needle),
            "missing {needle}"
        );
    }
    assert!(
        json.contains(&format!("\"trace_id\":\"{}\"", trace_id_of(INTENT))),
        "otherData names the deterministic id"
    );
}

/// Strict-JSON parse of the export: the tests above hold the same shape
/// on the rendered text.
#[test]
fn chrome_export_parses_as_strict_json() {
    let (_, text) = capture(4);
    let v = json::parse(&text).expect("strict JSON");
    let str_at = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).map(str::to_string);
    assert_eq!(str_at(&v, "displayTimeUnit").as_deref(), Some("ms"));
    let dropped = v.get("otherData").and_then(|o| o.get("dropped_events"));
    assert_eq!(dropped.and_then(Json::as_u64), Some(0));
    let Some(Json::Array(evs)) = v.get("traceEvents") else {
        panic!("traceEvents is not an array: {v:?}");
    };
    assert!(!evs.is_empty());
    for e in evs {
        assert_eq!(
            e.get("pid").and_then(Json::as_u64),
            Some(1),
            "one process: {e:?}"
        );
        assert!(str_at(e, "name").is_some(), "{e:?}");
        assert!(str_at(e, "ph").is_some(), "{e:?}");
        assert!(e.get("tid").and_then(Json::as_u64).is_some(), "{e:?}");
    }
    // Metadata names the driver and worker tracks.
    let names: Vec<String> = evs
        .iter()
        .filter(|e| str_at(e, "name").as_deref() == Some("thread_name"))
        .filter_map(|e| str_at(e.get("args")?, "name"))
        .collect();
    assert!(names.iter().any(|n| n == "driver"), "{names:?}");
    assert!(names.iter().any(|n| n.starts_with("worker-")), "{names:?}");
}
