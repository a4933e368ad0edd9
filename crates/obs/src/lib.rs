#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # jinjing-obs
//!
//! Zero-dependency tracing + metrics for the Jinjing reproduction. The
//! paper's whole argument is *measured* safety-at-speed — §6's evaluation
//! reports per-phase wall-clock splits and credits each optimization with
//! order-of-magnitude solver-effort reductions — so the engine needs
//! first-class instrumentation rather than ad-hoc stopwatches.
//!
//! Four pieces, all built on `std` alone (the solver, the network
//! model, the linter and the engine all sit on this crate, so it sits on
//! nothing):
//!
//! - **Spans** ([`SpanGuard`]): RAII guard timers with parent/child
//!   nesting. Same-named spans under the same parent aggregate (count +
//!   total), so per-class solver loops collapse into one stable node.
//! - **Metrics** ([`metrics`]): saturating counters, gauges, and
//!   log₂-bucket [`metrics::Histogram`]s with percentile queries — used for
//!   per-query solver effort distributions (decisions, conflicts, …).
//! - **Events** ([`event`]): a leveled structured log with an optional
//!   stderr sink (`JINJING_TRACE=1` or the CLI's `--trace`).
//! - **Snapshots** ([`Snapshot`]): a point-in-time copy of everything,
//!   rendered to strict JSON by the hand-rolled [`json`] writer with
//!   stable (sorted) key ordering so outputs are diffable.
//!
//! A [`Collector`] is a cheap cloneable handle; every clone shares the same
//! underlying store, which is how one collector threads through
//! `check`/`fix`/`generate`, the CDCL solver, the CLI and the bench
//! harness. Span *nesting* (the [`Collector::span`] guard stack) assumes
//! spans are entered and exited on one thread — the engine's driver
//! thread. Worker threads in the parallel query engine (`jinjing-par`)
//! never open guards; they time their work with bare [`Instant`]s and the
//! driver folds the measurements in deterministic order via
//! [`Collector::record_span`], which merges externally-measured
//! aggregates under the currently open span without touching the stack.
//! Counters, gauges, histograms and events are safe from any thread.

pub mod event;
pub mod json;
pub mod metrics;
pub mod span;
pub mod trace;

pub use event::{Event, Level};
pub use metrics::Histogram;
pub use span::SpanGuard;
pub use trace::{trace_id_of, TraceCtx, TraceSpan};

use json::JsonWriter;
use metrics::{Counter, Gauge};
use span::SpanNode;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Cap on stored events; beyond it events still hit the stderr sink but are
/// dropped from snapshots (counted in the `obs.events_dropped` counter).
const MAX_EVENTS: usize = 4096;

/// `true` when the `JINJING_TRACE` environment variable asks for the
/// stderr event sink (any value except empty / `0`).
pub fn trace_env_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| std::env::var("JINJING_TRACE").is_ok_and(|v| !v.is_empty() && v != "0"))
}

#[derive(Debug)]
struct Inner {
    /// Span arena; index 0 is the synthetic root.
    spans: Vec<SpanNode>,
    /// Stack of open span indices (root is always at the bottom).
    stack: Vec<usize>,
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
    events: Vec<Event>,
    events_dropped: u64,
    /// Mirror events to stderr as they happen.
    trace: bool,
    /// Event-timestamp origin.
    epoch: Instant,
    /// Per-request flight recorder; disabled (no-op) by default. When
    /// enabled, guard spans and events are mirrored onto its driver
    /// track (tid 0).
    trace_ctx: TraceCtx,
}

impl Inner {
    fn new(trace: bool) -> Inner {
        Inner {
            spans: vec![SpanNode::new("root", 0)],
            stack: vec![0],
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            events: Vec::new(),
            events_dropped: 0,
            trace,
            epoch: Instant::now(),
            trace_ctx: TraceCtx::disabled(),
        }
    }
}

/// Shared handle to a tracing + metrics store. Clones share state.
#[derive(Debug, Clone)]
pub struct Collector {
    inner: Arc<Mutex<Inner>>,
}

impl Default for Collector {
    fn default() -> Collector {
        Collector::new()
    }
}

impl Collector {
    /// Fresh collector. The stderr event sink starts enabled iff the
    /// `JINJING_TRACE` environment variable is set (see
    /// [`trace_env_enabled`]).
    pub fn new() -> Collector {
        Collector::with_trace(trace_env_enabled())
    }

    /// Fresh collector with the stderr sink explicitly on or off.
    pub fn with_trace(trace: bool) -> Collector {
        Collector {
            inner: Arc::new(Mutex::new(Inner::new(trace))),
        }
    }

    /// `true` if `self` and `other` share the same underlying store.
    pub fn same_store(&self, other: &Collector) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Never poison-panic inside telemetry: recover the inner value.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Enable or disable the stderr event sink (the CLI's `--trace`).
    pub fn set_trace(&self, on: bool) {
        self.lock().trace = on;
    }

    /// Attach a per-request flight recorder (see [`trace::TraceCtx`]).
    /// Guard spans ([`Collector::span`]) and events mirror onto its
    /// driver track (tid 0) from then on; a disabled context detaches.
    pub fn attach_trace_ctx(&self, ctx: TraceCtx) {
        self.lock().trace_ctx = ctx;
    }

    /// The attached flight-recorder context (disabled no-op by default).
    /// Cloning is cheap; callers hand clones to worker threads to emit
    /// worker-track events.
    pub fn trace_ctx(&self) -> TraceCtx {
        self.lock().trace_ctx.clone()
    }

    // ---- Spans. ----

    /// Enter a span named `name` under the currently open span. Returns the
    /// RAII guard; the span closes (and records) when the guard drops or
    /// [`SpanGuard::finish`] is called.
    pub fn span(&self, name: &str) -> SpanGuard {
        let (idx, tc) = {
            let mut g = self.lock();
            let parent = *g.stack.last().expect("root is never popped");
            let existing = g.spans[parent]
                .children
                .iter()
                .copied()
                .find(|&c| g.spans[c].parent == parent && g.spans[c].name == name);
            let idx = match existing {
                Some(i) => i,
                None => {
                    let i = g.spans.len();
                    g.spans.push(SpanNode::new(name, parent));
                    g.spans[parent].children.push(i);
                    i
                }
            };
            g.spans[idx].open += 1;
            g.stack.push(idx);
            let tc = g.trace_ctx.enabled().then(|| g.trace_ctx.clone());
            (idx, tc)
        };
        if let Some(tc) = tc {
            tc.begin(0, name);
        }
        SpanGuard::new(self.clone(), idx)
    }

    /// Close a span opened by [`Collector::span`] (called by the guard).
    pub(crate) fn exit_span(&self, idx: usize, elapsed: Duration) {
        let tc = {
            let mut g = self.lock();
            g.spans[idx].count = g.spans[idx].count.saturating_add(1);
            g.spans[idx].total += elapsed;
            g.spans[idx].open = g.spans[idx].open.saturating_sub(1);
            // Pop the stack down to (and including) this span. Guards are
            // RAII so this is normally the top entry; tolerate skipped pops
            // from early returns that dropped guards out of declaration
            // order.
            let mut pops = 0u32;
            while let Some(&top) = g.stack.last() {
                if top == 0 {
                    break; // never pop the root
                }
                g.stack.pop();
                pops += 1;
                if top == idx {
                    break;
                }
            }
            (pops > 0 && g.trace_ctx.enabled()).then(|| (g.trace_ctx.clone(), pops))
        };
        if let Some((tc, pops)) = tc {
            // Mirror every popped guard so the recorder's driver-track
            // stack stays aligned with the span stack.
            for _ in 0..pops {
                tc.end(0);
            }
        }
    }

    /// Merge externally-measured span aggregates under the currently open
    /// span, without pushing the guard stack.
    ///
    /// This is the bridge between worker threads and the span tree: a
    /// worker times its unit of work with a bare [`Instant`], the driver
    /// collects `(count, total)` per logical span name and records them
    /// here *in deterministic order*. Same-named entries under the same
    /// parent aggregate exactly like re-entered [`Collector::span`]
    /// guards, so downstream consumers (snapshots, [`Collector::span_total`])
    /// cannot tell merged aggregates from guard-recorded ones.
    ///
    /// `count == 0` still creates the node (with zero totals) so span-tree
    /// shape stays stable across runs that happen to record no work.
    pub fn record_span(&self, name: &str, count: u64, total: Duration) {
        let mut g = self.lock();
        let parent = *g.stack.last().expect("root is never popped");
        let existing = g.spans[parent]
            .children
            .iter()
            .copied()
            .find(|&c| g.spans[c].parent == parent && g.spans[c].name == name);
        let idx = match existing {
            Some(i) => i,
            None => {
                let i = g.spans.len();
                g.spans.push(SpanNode::new(name, parent));
                g.spans[parent].children.push(i);
                i
            }
        };
        g.spans[idx].count = g.spans[idx].count.saturating_add(count);
        g.spans[idx].total += total;
    }

    /// Total recorded wall-clock across all completed entries of the named
    /// span, summed over every position in the tree.
    pub fn span_total(&self, name: &str) -> Duration {
        let g = self.lock();
        g.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.total)
            .sum()
    }

    // ---- Metrics. ----

    /// Increment the named counter (created on first use; saturating).
    pub fn counter_add(&self, name: &str, n: u64) {
        self.lock()
            .counters
            .entry(name.to_string())
            .or_default()
            .add(n);
    }

    /// Read a counter (0 if never touched).
    pub fn counter_get(&self, name: &str) -> u64 {
        self.lock().counters.get(name).map_or(0, Counter::get)
    }

    /// Set the named gauge.
    pub fn gauge_set(&self, name: &str, v: i64) {
        self.lock()
            .gauges
            .entry(name.to_string())
            .or_default()
            .set(v);
    }

    /// Record one sample into the named histogram.
    pub fn histogram_record(&self, name: &str, v: u64) {
        self.lock()
            .histograms
            .entry(name.to_string())
            .or_default()
            .record(v);
    }

    /// Sum of all samples in the named histogram (0 when absent).
    pub fn histogram_sum(&self, name: &str) -> u64 {
        self.lock().histograms.get(name).map_or(0, Histogram::sum)
    }

    /// Sample count of the named histogram (0 when absent).
    pub fn histogram_count(&self, name: &str) -> u64 {
        self.lock().histograms.get(name).map_or(0, Histogram::count)
    }

    // ---- Events. ----

    /// Record a structured event; mirrored to stderr when tracing is on,
    /// and onto the flight recorder's driver track when one is attached.
    pub fn event(&self, level: Level, name: &str, message: &str) {
        let tc = {
            let mut g = self.lock();
            let t_ns = g.epoch.elapsed().as_nanos() as u64;
            if g.trace {
                eprintln!(
                    "[jinjing {:>5} +{:>9.3}ms] {name}: {message}",
                    level,
                    t_ns as f64 / 1e6
                );
            }
            if g.events.len() < MAX_EVENTS {
                g.events.push(Event {
                    t_ns,
                    level,
                    name: name.to_string(),
                    message: message.to_string(),
                });
            } else {
                g.events_dropped = g.events_dropped.saturating_add(1);
            }
            g.trace_ctx.enabled().then(|| g.trace_ctx.clone())
        };
        if let Some(tc) = tc {
            tc.instant_msg(0, name, message);
        }
    }

    // ---- Snapshots. ----

    /// Point-in-time copy of everything recorded so far. Open spans
    /// contribute their completed entries only. Span children are listed by
    /// name, the order [`Snapshot::merge`] keeps, so merging the empty
    /// snapshot into a recording changes nothing.
    pub fn snapshot(&self) -> Snapshot {
        let g = self.lock();
        fn build(spans: &[SpanNode], idx: usize) -> SpanSnapshot {
            let n = &spans[idx];
            let mut children: Vec<SpanSnapshot> =
                n.children.iter().map(|&c| build(spans, c)).collect();
            children.sort_by(|a, b| a.name.cmp(&b.name));
            SpanSnapshot {
                name: n.name.clone(),
                count: n.count,
                total_ns: n.total.as_nanos() as u64,
                children,
            }
        }
        let mut counters: Vec<(String, u64)> = g
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let mut synthetic = false;
        if g.events_dropped > 0 {
            counters.push(("obs.events_dropped".to_string(), g.events_dropped));
            synthetic = true;
        }
        // Same saturation accounting for the flight-recorder ring: a
        // truncated trace must be visible wherever the snapshot lands
        // (`--metrics-out`, the daemon's `/metrics`).
        let trace_dropped = g.trace_ctx.events_dropped();
        if trace_dropped > 0 {
            counters.push(("obs.trace_events_dropped".to_string(), trace_dropped));
            synthetic = true;
        }
        if synthetic {
            counters.sort();
        }
        Snapshot {
            spans: build(&g.spans, 0),
            counters,
            gauges: g.gauges.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: g
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), HistogramSnapshot::of(h)))
                .collect(),
            events: g.events.clone(),
        }
    }
}

/// One node of the snapshot span tree.
#[derive(Debug, Clone)]
pub struct SpanSnapshot {
    /// Span label.
    pub name: String,
    /// Completed entries.
    pub count: u64,
    /// Summed wall-clock of completed entries, in nanoseconds.
    pub total_ns: u64,
    /// Child spans, by name.
    pub children: Vec<SpanSnapshot>,
}

impl SpanSnapshot {
    /// Depth-first search for the first span with the given name.
    pub fn find(&self, name: &str) -> Option<&SpanSnapshot> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Direct child by name.
    pub fn child(&self, name: &str) -> Option<&SpanSnapshot> {
        self.children.iter().find(|c| c.name == name)
    }

    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("children");
        w.begin_array();
        for c in &self.children {
            c.write_json(w);
        }
        w.end_array();
        w.key("count");
        w.u64(self.count);
        w.key("name");
        w.string(&self.name);
        w.key("total_ns");
        w.u64(self.total_ns);
        w.end_object();
    }
}

/// Frozen summary of one histogram.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Sample count.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Mean sample.
    pub mean: f64,
    /// Approximate 50th percentile.
    pub p50: u64,
    /// Approximate 90th percentile.
    pub p90: u64,
    /// Approximate 99th percentile.
    pub p99: u64,
    /// Non-empty log₂ buckets as `(bucket index, count)`.
    pub buckets: Vec<(usize, u64)>,
}

impl HistogramSnapshot {
    fn of(h: &Histogram) -> HistogramSnapshot {
        HistogramSnapshot {
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
            mean: h.mean(),
            p50: h.percentile(0.50),
            p90: h.percentile(0.90),
            p99: h.percentile(0.99),
            buckets: h.nonzero_buckets(),
        }
    }

    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("buckets");
        w.begin_array();
        for &(i, c) in &self.buckets {
            w.begin_array();
            w.u64(i as u64);
            w.u64(c);
            w.end_array();
        }
        w.end_array();
        w.key("count");
        w.u64(self.count);
        w.key("max");
        w.u64(self.max);
        w.key("mean");
        w.f64(self.mean);
        w.key("min");
        w.u64(self.min);
        w.key("p50");
        w.u64(self.p50);
        w.key("p90");
        w.u64(self.p90);
        w.key("p99");
        w.u64(self.p99);
        w.key("sum");
        w.u64(self.sum);
        w.end_object();
    }
}

/// A point-in-time copy of a [`Collector`]'s state.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The span tree (root at the top).
    pub spans: SpanSnapshot,
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Recorded events, oldest first.
    pub events: Vec<Event>,
}

impl Snapshot {
    /// An empty snapshot (no spans entered, no metrics).
    pub fn empty() -> Snapshot {
        Collector::with_trace(false).snapshot()
    }

    /// Depth-first search of the span tree.
    pub fn find_span(&self, name: &str) -> Option<&SpanSnapshot> {
        self.spans.find(name)
    }

    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, h)| h)
    }

    /// Render the snapshot in the Prometheus text exposition format
    /// (version 0.0.4), for a daemon's `GET /metrics` endpoint.
    ///
    /// Mapping:
    /// - counters → `jinjing_<name> <v>` with `# TYPE … counter`;
    /// - gauges → the same with `# TYPE … gauge`;
    /// - histograms → a conformant Prometheus histogram: cumulative
    ///   `_bucket{le="…"}` series derived from the log₂ buckets (each
    ///   `le` is the bucket's inclusive upper bound), a closing
    ///   `_bucket{le="+Inf"}`, then `_sum` and `_count` — so server-side
    ///   quantile functions (`histogram_quantile`) work;
    /// - spans → two metric families, `jinjing_span_seconds_total` and
    ///   `jinjing_span_entries_total`, one sample per tree node with the
    ///   node's `root/…` path as the `path` label.
    ///
    /// Metric names are sanitized (`.` and any other non-alphanumeric
    /// byte become `_`); label values escape `\`, `"` and newlines as
    /// the format requires. Families are emitted in sorted-name order,
    /// so the rendering is as deterministic as the snapshot itself.
    pub fn to_prometheus(&self) -> String {
        fn sanitize(name: &str) -> String {
            let mut out = String::with_capacity(name.len());
            for (i, c) in name.chars().enumerate() {
                let ok = c.is_ascii_alphabetic() || c == '_' || (i > 0 && c.is_ascii_digit());
                out.push(if ok { c } else { '_' });
            }
            out
        }
        fn escape_label(v: &str) -> String {
            v.replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n")
        }
        use std::fmt::Write;
        let mut out = String::new();
        for (k, v) in &self.counters {
            let n = format!("jinjing_{}", sanitize(k));
            let _ = writeln!(out, "# TYPE {n} counter");
            let _ = writeln!(out, "{n} {v}");
        }
        for (k, v) in &self.gauges {
            let n = format!("jinjing_{}", sanitize(k));
            let _ = writeln!(out, "# TYPE {n} gauge");
            let _ = writeln!(out, "{n} {v}");
        }
        for (k, h) in &self.histograms {
            let n = format!("jinjing_{}", sanitize(k));
            let _ = writeln!(out, "# TYPE {n} histogram");
            let mut cumulative = 0u64;
            for &(i, c) in &h.buckets {
                cumulative += c;
                let le = metrics::bucket_upper(i);
                if le == u64::MAX {
                    // The open-ended top bucket folds into +Inf below.
                    continue;
                }
                let _ = writeln!(out, "{n}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{n}_sum {}", h.sum);
            let _ = writeln!(out, "{n}_count {}", h.count);
        }
        // Spans: flatten the tree, one sample per node, path-labeled.
        fn walk(node: &SpanSnapshot, prefix: &str, rows: &mut Vec<(String, u64, u64)>) {
            let path = if prefix.is_empty() {
                node.name.clone()
            } else {
                format!("{prefix}/{}", node.name)
            };
            rows.push((path.clone(), node.count, node.total_ns));
            for c in &node.children {
                walk(c, &path, rows);
            }
        }
        let mut rows = Vec::new();
        walk(&self.spans, "", &mut rows);
        let _ = writeln!(out, "# TYPE jinjing_span_seconds_total counter");
        for (path, _, total_ns) in &rows {
            let _ = writeln!(
                out,
                "jinjing_span_seconds_total{{path=\"{}\"}} {}",
                escape_label(path),
                *total_ns as f64 / 1e9
            );
        }
        let _ = writeln!(out, "# TYPE jinjing_span_entries_total counter");
        for (path, count, _) in &rows {
            let _ = writeln!(
                out,
                "jinjing_span_entries_total{{path=\"{}\"}} {count}",
                escape_label(path)
            );
        }
        out
    }

    /// Render the whole snapshot as strict JSON with stable key ordering.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }

    /// Write the snapshot as one JSON value into `w` — the same bytes as
    /// [`Snapshot::to_json`], for documents that embed a snapshot (the
    /// shard wire report).
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("counters");
        w.begin_object();
        for (k, v) in &self.counters {
            w.key(k);
            w.u64(*v);
        }
        w.end_object();
        w.key("events");
        w.begin_array();
        for e in &self.events {
            w.begin_object();
            w.key("level");
            w.string(e.level.as_str());
            w.key("message");
            w.string(&e.message);
            w.key("name");
            w.string(&e.name);
            w.key("t_ns");
            w.u64(e.t_ns);
            w.end_object();
        }
        w.end_array();
        w.key("gauges");
        w.begin_object();
        for (k, v) in &self.gauges {
            w.key(k);
            w.i64(*v);
        }
        w.end_object();
        w.key("histograms");
        w.begin_object();
        for (k, h) in &self.histograms {
            w.key(k);
            h.write_json(w);
        }
        w.end_object();
        w.key("spans");
        self.spans.write_json(w);
        w.end_object();
    }

    /// Fold `other` into `self`, as if both collectors had recorded into
    /// one store:
    ///
    /// - **counters** add (saturating), union of names;
    /// - **gauges** take the maximum — gauges are last-write-wins level
    ///   readings, and the peak across shards is the only combination
    ///   that stays associative and order-insensitive;
    /// - **histograms** merge bucket-wise (equivalent to replaying every
    ///   sample), with the derived stats (mean, percentiles) recomputed
    ///   from the merged buckets;
    /// - **spans** take the disjoint-union of the trees: same-named
    ///   children under the same parent merge recursively (counts and
    ///   totals add), and children stay in name order, as in every
    ///   [`Collector::snapshot`], so the result does not depend on merge
    ///   order and the empty snapshot is an identity;
    /// - **events** union as a multiset, ordered by `(t_ns, level, name,
    ///   message)`.
    ///
    /// Merge is associative and order-insensitive on the canonical
    /// [`Snapshot::to_json`] rendering — the contract the shard
    /// coordinator's fan-in relies on (and that the integration suite
    /// property-tests).
    pub fn merge(&mut self, other: &Snapshot) {
        fn merge_span(into: &mut SpanSnapshot, from: &SpanSnapshot) {
            into.count = into.count.saturating_add(from.count);
            into.total_ns = into.total_ns.saturating_add(from.total_ns);
            for fc in &from.children {
                match into.children.iter_mut().find(|c| c.name == fc.name) {
                    Some(mine) => merge_span(mine, fc),
                    None => into.children.push(fc.clone()),
                }
            }
        }
        fn sort_all(node: &mut SpanSnapshot) {
            node.children.sort_by(|a, b| a.name.cmp(&b.name));
            for c in &mut node.children {
                sort_all(c);
            }
        }
        merge_span(&mut self.spans, &other.spans);
        // Normalize the whole tree (including subtrees cloned from `other`)
        // so the result is independent of merge order.
        sort_all(&mut self.spans);

        let mut counters: BTreeMap<String, u64> = self.counters.drain(..).collect();
        for (k, v) in &other.counters {
            let slot = counters.entry(k.clone()).or_insert(0);
            *slot = slot.saturating_add(*v);
        }
        self.counters = counters.into_iter().collect();

        let mut gauges: BTreeMap<String, i64> = self.gauges.drain(..).collect();
        for (k, v) in &other.gauges {
            let slot = gauges.entry(k.clone()).or_insert(i64::MIN);
            *slot = (*slot).max(*v);
        }
        self.gauges = gauges.into_iter().collect();

        let mut histograms: BTreeMap<String, Histogram> = self
            .histograms
            .drain(..)
            .map(|(k, h)| (k, Histogram::from_sparse(&h.buckets, h.sum, h.min, h.max)))
            .collect();
        for (k, h) in &other.histograms {
            let theirs = Histogram::from_sparse(&h.buckets, h.sum, h.min, h.max);
            histograms.entry(k.clone()).or_default().merge(&theirs);
        }
        self.histograms = histograms
            .into_iter()
            .map(|(k, h)| (k, HistogramSnapshot::of(&h)))
            .collect();

        self.events.extend(other.events.iter().cloned());
        self.events.sort_by(|a, b| {
            (a.t_ns, a.level, &a.name, &a.message).cmp(&(b.t_ns, b.level, &b.name, &b.message))
        });
    }

    /// Parse a snapshot back from its [`Snapshot::to_json`] rendering.
    ///
    /// The inverse the shard coordinator needs: each backend ships its
    /// snapshot as canonical JSON; the coordinator parses and
    /// [`Snapshot::merge`]s them. Unknown keys are ignored so snapshots
    /// can gain fields without breaking older coordinators.
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        Snapshot::from_json_value(&json::parse(text)?)
    }

    /// [`Snapshot::from_json`] over an already-parsed [`json::Json`]
    /// value — what the shard coordinator uses when the snapshot is
    /// embedded inside a larger wire document.
    pub fn from_json_value(doc: &json::Json) -> Result<Snapshot, String> {
        fn span_of(v: &json::Json) -> Result<SpanSnapshot, String> {
            Ok(SpanSnapshot {
                name: v
                    .get("name")
                    .and_then(|x| x.as_str())
                    .ok_or("span missing name")?
                    .to_string(),
                count: v.get("count").and_then(json::Json::as_u64).unwrap_or(0),
                total_ns: v.get("total_ns").and_then(json::Json::as_u64).unwrap_or(0),
                children: v
                    .get("children")
                    .map(json::Json::elements)
                    .unwrap_or_default()
                    .iter()
                    .map(span_of)
                    .collect::<Result<_, _>>()?,
            })
        }
        let spans = match doc.get("spans") {
            Some(v) => span_of(v)?,
            None => Snapshot::empty().spans,
        };
        let counters = doc
            .get("counters")
            .map(json::Json::members)
            .unwrap_or_default()
            .iter()
            .map(|(k, v)| {
                v.as_u64()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| format!("counter {k} is not a u64"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let gauges = doc
            .get("gauges")
            .map(json::Json::members)
            .unwrap_or_default()
            .iter()
            .map(|(k, v)| {
                v.as_i64()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| format!("gauge {k} is not an i64"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let histograms = doc
            .get("histograms")
            .map(json::Json::members)
            .unwrap_or_default()
            .iter()
            .map(|(k, v)| {
                let buckets = v
                    .get("buckets")
                    .map(json::Json::elements)
                    .unwrap_or_default()
                    .iter()
                    .map(|pair| {
                        let xs = pair.elements();
                        match (
                            xs.first().and_then(json::Json::as_u64),
                            xs.get(1).and_then(json::Json::as_u64),
                        ) {
                            (Some(i), Some(c)) => Ok((i as usize, c)),
                            _ => Err(format!("histogram {k} has a malformed bucket")),
                        }
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                let grab = |key: &str| v.get(key).and_then(json::Json::as_u64).unwrap_or(0);
                let h = Histogram::from_sparse(&buckets, grab("sum"), grab("min"), grab("max"));
                Ok((k.clone(), HistogramSnapshot::of(&h)))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let events = doc
            .get("events")
            .map(json::Json::elements)
            .unwrap_or_default()
            .iter()
            .map(|e| {
                Ok(Event {
                    t_ns: e.get("t_ns").and_then(json::Json::as_u64).unwrap_or(0),
                    level: e
                        .get("level")
                        .and_then(|x| x.as_str())
                        .and_then(Level::parse)
                        .ok_or("event missing level")?,
                    name: e
                        .get("name")
                        .and_then(|x| x.as_str())
                        .unwrap_or_default()
                        .to_string(),
                    message: e
                        .get("message")
                        .and_then(|x| x.as_str())
                        .unwrap_or_default()
                        .to_string(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Snapshot {
            spans,
            counters,
            gauges,
            histograms,
            events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_aggregate() {
        let c = Collector::with_trace(false);
        {
            let _outer = c.span("check");
            for _ in 0..3 {
                let _inner = c.span("check.solve");
            }
            let _other = c.span("check.paths");
        }
        let snap = c.snapshot();
        let root = &snap.spans;
        assert_eq!(root.name, "root");
        assert_eq!(root.children.len(), 1);
        let check = root.child("check").expect("check under root");
        assert_eq!(check.count, 1);
        // Same-named entries aggregate into one node with count 3.
        let solve = check.child("check.solve").expect("solve under check");
        assert_eq!(solve.count, 3);
        assert!(solve.children.is_empty());
        // Siblings are listed by name, whatever order they were entered in.
        let names: Vec<&str> = check.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["check.paths", "check.solve"]);
    }

    #[test]
    fn finish_returns_the_recorded_duration() {
        let c = Collector::with_trace(false);
        let g = c.span("phase");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let d = g.finish();
        assert!(d >= std::time::Duration::from_millis(2));
        assert_eq!(c.span_total("phase"), d, "guard and collector agree");
    }

    #[test]
    fn sibling_spans_after_reentry_attach_to_the_right_parent() {
        let c = Collector::with_trace(false);
        {
            let _a = c.span("a");
            let _b = c.span("b");
        } // both closed
        {
            let _a = c.span("a"); // re-enters the same node
            let _c2 = c.span("c");
        }
        let snap = c.snapshot();
        let a = snap.spans.child("a").unwrap();
        assert_eq!(a.count, 2);
        let names: Vec<&str> = a.children.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, vec!["b", "c"]);
    }

    #[test]
    fn span_total_sums_across_tree_positions() {
        let c = Collector::with_trace(false);
        {
            let _x = c.span("x");
            let _s = c.span("shared");
        }
        {
            let _y = c.span("y");
            let _s = c.span("shared");
        }
        let snap = c.snapshot();
        // Two distinct nodes named "shared"…
        assert_eq!(
            snap.spans
                .child("x")
                .unwrap()
                .child("shared")
                .unwrap()
                .count,
            1
        );
        assert_eq!(
            snap.spans
                .child("y")
                .unwrap()
                .child("shared")
                .unwrap()
                .count,
            1
        );
        // …and span_total sums both.
        assert!(c.span_total("shared") >= Duration::ZERO);
    }

    #[test]
    fn record_span_merges_under_open_span() {
        let c = Collector::with_trace(false);
        {
            let _outer = c.span("check");
            // Driver folds worker-measured aggregates: two batches into the
            // same logical child node.
            c.record_span("check.solve", 3, Duration::from_nanos(300));
            c.record_span("check.solve", 2, Duration::from_nanos(200));
            // Zero-count record: shape only.
            c.record_span("check.paths", 0, Duration::ZERO);
            // A real guard into the same node aggregates with the merged
            // totals.
            c.span("check.solve").finish();
        }
        let snap = c.snapshot();
        let check = snap.spans.child("check").unwrap();
        let solve = check.child("check.solve").unwrap();
        assert_eq!(solve.count, 6);
        assert!(solve.total_ns >= 500);
        let paths = check.child("check.paths").unwrap();
        assert_eq!((paths.count, paths.total_ns), (0, 0));
        // record_span must not disturb the guard stack: "check" closed
        // normally with count 1.
        assert_eq!(check.count, 1);
        assert_eq!(c.span_total("check.solve"), {
            let mut d = Duration::from_nanos(500);
            d += Duration::from_nanos(solve.total_ns - 500);
            d
        });
    }

    #[test]
    fn clones_share_the_store() {
        let a = Collector::with_trace(false);
        let b = a.clone();
        assert!(a.same_store(&b));
        b.counter_add("n", 2);
        a.counter_add("n", 3);
        assert_eq!(a.counter_get("n"), 5);
        assert!(!a.same_store(&Collector::with_trace(false)));
    }

    #[test]
    fn metrics_round_trip_through_snapshot() {
        let c = Collector::with_trace(false);
        c.counter_add("solver.queries", 7);
        c.gauge_set("wan.devices", -1);
        c.gauge_set("wan.devices", 40);
        for v in [1u64, 2, 3, 1000] {
            c.histogram_record("solver.decisions", v);
        }
        let s = c.snapshot();
        assert_eq!(s.counter("solver.queries"), 7);
        assert_eq!(s.gauges, vec![("wan.devices".to_string(), 40)]);
        let h = s.histogram("solver.decisions").unwrap();
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 1006);
        assert_eq!(h.max, 1000);
        assert_eq!(c.histogram_sum("solver.decisions"), 1006);
        assert_eq!(c.histogram_count("solver.decisions"), 4);
    }

    #[test]
    fn json_snapshot_is_stable_and_escaped() {
        let c = Collector::with_trace(false);
        // Insert counters out of order: output must be sorted.
        c.counter_add("zeta", 1);
        c.counter_add("alpha", 2);
        c.event(Level::Info, "note", "quote \" backslash \\ newline \n done");
        {
            let _g = c.span("phase.one");
        }
        let json = c.snapshot().to_json();
        // Stable ordering: top-level keys and counter keys sorted.
        let zi = json.find("\"zeta\"").unwrap();
        let ai = json.find("\"alpha\"").unwrap();
        assert!(ai < zi, "counters must be sorted: {json}");
        let order = [
            "\"counters\"",
            "\"events\"",
            "\"gauges\"",
            "\"histograms\"",
            "\"spans\"",
        ];
        let mut last = 0;
        for k in order {
            let i = json.find(k).unwrap_or_else(|| panic!("{k} missing"));
            assert!(i >= last, "top-level keys out of order");
            last = i;
        }
        // Escaping.
        assert!(json.contains("quote \\\" backslash \\\\ newline \\n done"));
        // Two snapshots of the same collector are byte-identical apart from
        // nothing — fully deterministic.
        assert_eq!(json, c.snapshot().to_json());
    }

    #[test]
    fn events_respect_cap() {
        let c = Collector::with_trace(false);
        for i in 0..(MAX_EVENTS + 10) {
            c.event(Level::Trace, "e", &format!("{i}"));
        }
        let s = c.snapshot();
        assert_eq!(s.events.len(), MAX_EVENTS);
        assert_eq!(s.counter("obs.events_dropped"), 10);
    }

    #[test]
    fn empty_snapshot_renders() {
        let s = Snapshot::empty();
        let json = s.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json
            .contains("\"spans\":{\"children\":[],\"count\":0,\"name\":\"root\",\"total_ns\":0}"));
    }

    #[test]
    fn prometheus_histograms_emit_cumulative_buckets() {
        let c = Collector::with_trace(false);
        // Samples land in log₂ buckets: 0 → bucket 0 (le 0), 1 → bucket
        // 1 (le 1), 5 → bucket 3 (le 7), 1000 → bucket 10 (le 1023).
        for v in [0u64, 1, 5, 1000] {
            c.histogram_record("solver.decisions", v);
        }
        let text = c.snapshot().to_prometheus();
        assert!(text.contains("# TYPE jinjing_solver_decisions histogram"));
        assert!(text.contains("jinjing_solver_decisions_bucket{le=\"0\"} 1"));
        assert!(text.contains("jinjing_solver_decisions_bucket{le=\"1\"} 2"));
        assert!(text.contains("jinjing_solver_decisions_bucket{le=\"7\"} 3"));
        assert!(text.contains("jinjing_solver_decisions_bucket{le=\"1023\"} 4"));
        assert!(text.contains("jinjing_solver_decisions_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("jinjing_solver_decisions_sum 1006"));
        assert!(text.contains("jinjing_solver_decisions_count 4"));
        assert!(
            !text.contains("quantile="),
            "summary quantiles replaced by buckets: {text}"
        );
    }

    #[test]
    fn collector_mirrors_spans_and_events_onto_the_recorder() {
        let c = Collector::with_trace(false);
        let ctx = TraceCtx::new("tmirror");
        c.attach_trace_ctx(ctx.clone());
        assert!(c.trace_ctx().enabled());
        {
            let _outer = c.span("engine.run");
            let _inner = c.span("check");
            c.event(Level::Info, "check.verdict", "consistent");
        }
        c.record_span("check.solve", 3, Duration::from_nanos(30)); // not mirrored
        let json = ctx.to_chrome_json();
        assert!(json.contains("\"name\":\"engine.run\""), "{json}");
        assert!(json.contains("\"name\":\"check\""), "{json}");
        assert!(json.contains("\"check.verdict\""), "{json}");
        assert!(json.contains("\"msg\":\"consistent\""), "{json}");
        assert!(
            !json.contains("check.solve"),
            "record_span is aggregate-only"
        );
        assert_eq!(
            json.matches("\"ph\":\"B\"").count(),
            json.matches("\"ph\":\"E\"").count()
        );
        // The aggregate side is untouched by mirroring.
        let snap = c.snapshot();
        assert_eq!(snap.spans.child("engine.run").unwrap().count, 1);
    }

    #[test]
    fn snapshot_reports_trace_ring_drops() {
        let c = Collector::with_trace(false);
        c.attach_trace_ctx(TraceCtx::with_capacity("tdrop", 2));
        for _ in 0..4 {
            c.span("s").finish();
        }
        // The first span fills the 2-slot ring (B+E); the three later
        // Begins drop (their Ends are skipped, not double-counted).
        let snap = c.snapshot();
        assert_eq!(snap.counter("obs.trace_events_dropped"), 3);
        // And it renders into /metrics like any counter.
        assert!(snap
            .to_prometheus()
            .contains("jinjing_obs_trace_events_dropped 3"));
    }

    #[test]
    fn merge_adds_counters_and_unions_names() {
        let a = Collector::with_trace(false);
        a.counter_add("shared", 2);
        a.counter_add("only_a", 1);
        let b = Collector::with_trace(false);
        b.counter_add("shared", 5);
        b.counter_add("only_b", 7);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.counter("shared"), 7);
        assert_eq!(m.counter("only_a"), 1);
        assert_eq!(m.counter("only_b"), 7);
        // Result stays name-sorted.
        let names: Vec<&str> = m.counters.iter().map(|(k, _)| k.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn merge_gauges_take_the_peak() {
        let a = Collector::with_trace(false);
        a.gauge_set("depth", 3);
        let b = Collector::with_trace(false);
        b.gauge_set("depth", -1);
        b.gauge_set("other", -5);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(
            m.gauges,
            vec![("depth".to_string(), 3), ("other".to_string(), -5)]
        );
    }

    #[test]
    fn merge_histograms_equals_one_collector() {
        let a = Collector::with_trace(false);
        let b = Collector::with_trace(false);
        let all = Collector::with_trace(false);
        for v in [1u64, 5, 9] {
            a.histogram_record("h", v);
            all.histogram_record("h", v);
        }
        for v in [0u64, 1000, 3] {
            b.histogram_record("h", v);
            all.histogram_record("h", v);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        let merged = m.histogram("h").unwrap();
        let expect = all.snapshot();
        let expect = expect.histogram("h").unwrap();
        assert_eq!(merged.buckets, expect.buckets);
        assert_eq!(merged.count, expect.count);
        assert_eq!(merged.sum, expect.sum);
        assert_eq!(merged.min, expect.min);
        assert_eq!(merged.max, expect.max);
        assert_eq!(merged.p99, expect.p99);
        assert!((merged.mean - expect.mean).abs() < 1e-12);
    }

    #[test]
    fn merge_spans_disjoint_union() {
        let a = Collector::with_trace(false);
        {
            let _r = a.span("run");
            a.span("check").finish();
            a.record_span("check.solve", 2, Duration::from_nanos(20));
        }
        let b = Collector::with_trace(false);
        {
            let _r = b.span("run");
            b.span("check").finish();
            b.span("lint").finish();
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        let run = m.spans.child("run").expect("run under root");
        assert_eq!(run.count, 2, "same-named spans aggregate");
        let names: Vec<&str> = run.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["check", "check.solve", "lint"],
            "name-sorted union"
        );
        assert_eq!(run.child("check").unwrap().count, 2);
        assert_eq!(run.child("lint").unwrap().count, 1);
        assert_eq!(run.child("check.solve").unwrap().total_ns, 20);
    }

    #[test]
    fn merge_events_union_in_time_order() {
        let a = Collector::with_trace(false);
        a.event(Level::Info, "a", "first");
        let b = Collector::with_trace(false);
        b.event(Level::Warn, "b", "second");
        let mut ab = a.snapshot();
        ab.merge(&b.snapshot());
        let mut ba = b.snapshot();
        ba.merge(&a.snapshot());
        assert_eq!(ab.events.len(), 2);
        assert_eq!(
            ab.to_json(),
            ba.to_json(),
            "event order is merge-order-free"
        );
    }

    #[test]
    fn snapshot_json_round_trips_through_from_json() {
        let c = Collector::with_trace(false);
        c.counter_add("solver.queries", 7);
        c.gauge_set("wan.devices", 40);
        for v in [1u64, 2, 3, 1000] {
            c.histogram_record("solver.decisions", v);
        }
        c.event(Level::Info, "check.verdict", "consistent \"quoted\"");
        {
            let _g = c.span("engine.run");
            c.span("check").finish();
        }
        let snap = c.snapshot();
        let back = Snapshot::from_json(&snap.to_json()).expect("parse");
        assert_eq!(back.to_json(), snap.to_json(), "byte-exact round trip");
        assert!(Snapshot::from_json("{]").is_err());
    }

    #[test]
    fn merge_with_empty_is_canonical_identity() {
        let c = Collector::with_trace(false);
        {
            let _r = c.span("run");
            // Enter children out of name order: the snapshot lists them by
            // name, so the identity merge moves nothing.
            c.span("zeta").finish();
            c.span("alpha").finish();
        }
        let mut m = c.snapshot();
        m.merge(&Snapshot::empty());
        assert_eq!(m.to_json(), c.snapshot().to_json());
        let run = m.spans.child("run").unwrap();
        let names: Vec<&str> = run.children.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
        // And merging empty the other way around gives the same bytes.
        let mut other = Snapshot::empty();
        other.merge(&c.snapshot());
        assert_eq!(other.to_json(), m.to_json());
    }

    #[test]
    fn detached_collector_records_no_trace() {
        let c = Collector::with_trace(false);
        let ctx = TraceCtx::new("tdetach");
        c.attach_trace_ctx(ctx.clone());
        c.span("a").finish();
        c.attach_trace_ctx(TraceCtx::disabled());
        c.span("b").finish();
        let json = ctx.to_chrome_json();
        assert!(json.contains("\"name\":\"a\""));
        assert!(!json.contains("\"name\":\"b\""));
    }
}
