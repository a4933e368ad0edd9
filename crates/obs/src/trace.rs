//! The **flight recorder**: a bounded ring of timestamped trace events
//! carried on a per-request [`TraceCtx`], exported as Chrome
//! `trace_event` JSON (loadable in `chrome://tracing` / Perfetto).
//!
//! The aggregate side of this crate ([`crate::Collector`]) answers "how
//! much time did phase X take *in total*"; the flight recorder answers
//! "what did *this request* do, in order, on which worker". The two are
//! deliberately decoupled:
//!
//! - A [`TraceCtx`] is **off by default** ([`TraceCtx::disabled`] is a
//!   no-op handle with no allocation behind it), so the hot path pays a
//!   single branch when tracing is not requested. The byte-identity
//!   contract of canonical reports is therefore untouched: trace files
//!   are the *only* artifact allowed to contain wall-clock timestamps.
//! - When enabled, events go into a bounded ring guarded by one mutex;
//!   overflow drops new events (never tears open/close pairing) and is
//!   counted in [`TraceCtx::events_dropped`] so saturation is visible.
//! - The trace id is **deterministic**: [`trace_id_of`] hashes the
//!   request's intent text (FNV-1a, 64-bit), so the same query always
//!   yields the same id and a client can predict where to fetch its
//!   trace (`GET /v1/trace/{id}`).
//!
//! Track layout: `tid 0` is the driver thread (engine phases mirrored
//! from [`crate::Collector::span`]); `tid 1 + w` is pool worker `w` of
//! `jinjing-par` (per-pair and per-solver-query spans). Timestamps are
//! microseconds from the recorder's epoch, assigned *inside* the ring
//! lock, so they are globally monotone — and in particular monotone per
//! track, which is what trace viewers require.

use crate::json::JsonWriter;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default ring capacity (events), sized so a worst-case `fix` on the
/// paper's running example (a few thousand solver queries, two events
/// each) fits with headroom while bounding memory to a few hundred KiB.
pub const DEFAULT_CAPACITY: usize = 8192;

/// Deterministic trace id for a request: 64-bit FNV-1a over the input
/// (the intent text), rendered as `t` + 16 lowercase hex digits. Same
/// input → same id, on every run, platform and thread count.
pub fn trace_id_of(input: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in input.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("t{h:016x}")
}

/// Event kinds, mirroring the Chrome `trace_event` phases we emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Span begin (`ph: "B"`).
    Begin,
    /// Span end (`ph: "E"`).
    End,
    /// Instant event (`ph: "i"`, thread scope).
    Instant,
    /// Counter sample (`ph: "C"`).
    Counter,
}

/// One recorded trace event.
#[derive(Debug, Clone)]
struct TraceEvent {
    /// Nanoseconds since the recorder's epoch.
    t_ns: u64,
    /// Track id: 0 = driver, `1 + w` = pool worker `w`.
    tid: u64,
    phase: Phase,
    name: String,
    /// Numeric arguments (`args` in the Chrome JSON), sorted at render.
    args: Vec<(String, u64)>,
    /// Free-text argument, rendered as `args.msg`.
    msg: Option<String>,
}

/// The mutable ring state.
#[derive(Debug)]
struct Ring {
    events: Vec<TraceEvent>,
    dropped: u64,
    /// Per-track stack of open spans: `(name, recorded)`. `recorded`
    /// is false when the Begin was dropped on overflow, so the matching
    /// End is dropped too and B/E pairs never tear.
    stacks: BTreeMap<u64, Vec<(String, bool)>>,
}

/// The shared recorder behind an enabled [`TraceCtx`].
#[derive(Debug)]
struct Recorder {
    id: String,
    capacity: usize,
    epoch: Instant,
    ring: Mutex<Ring>,
}

impl Recorder {
    fn lock(&self) -> std::sync::MutexGuard<'_, Ring> {
        self.ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// A per-request trace context: a cheap cloneable handle to one flight
/// recorder, or a no-op when tracing was not requested. `Default` is
/// disabled.
#[derive(Debug, Clone, Default)]
pub struct TraceCtx {
    rec: Option<Arc<Recorder>>,
}

impl TraceCtx {
    /// The no-op context: every method is a cheap early return.
    pub fn disabled() -> TraceCtx {
        TraceCtx { rec: None }
    }

    /// An enabled context with the [`DEFAULT_CAPACITY`] ring.
    pub fn new(id: &str) -> TraceCtx {
        TraceCtx::with_capacity(id, DEFAULT_CAPACITY)
    }

    /// An enabled context with an explicit ring capacity (events).
    pub fn with_capacity(id: &str, capacity: usize) -> TraceCtx {
        TraceCtx {
            rec: Some(Arc::new(Recorder {
                id: id.to_string(),
                capacity,
                epoch: Instant::now(),
                ring: Mutex::new(Ring {
                    events: Vec::new(),
                    dropped: 0,
                    stacks: BTreeMap::new(),
                }),
            })),
        }
    }

    /// `true` when events are being recorded.
    pub fn enabled(&self) -> bool {
        self.rec.is_some()
    }

    /// The trace id, when enabled.
    pub fn id(&self) -> Option<&str> {
        self.rec.as_deref().map(|r| r.id.as_str())
    }

    /// Events dropped on ring overflow so far.
    pub fn events_dropped(&self) -> u64 {
        self.rec.as_deref().map_or(0, |r| r.lock().dropped)
    }

    /// Events recorded so far.
    pub fn events_recorded(&self) -> u64 {
        self.rec
            .as_deref()
            .map_or(0, |r| r.lock().events.len() as u64)
    }

    fn push(&self, tid: u64, phase: Phase, name: &str, args: &[(&str, u64)], msg: Option<&str>) {
        let Some(r) = self.rec.as_deref() else { return };
        let t_ns = r.epoch.elapsed().as_nanos() as u64;
        let mut g = r.lock();
        match phase {
            Phase::Begin => {
                let recorded = g.events.len() < r.capacity;
                if recorded {
                    g.events.push(TraceEvent {
                        t_ns,
                        tid,
                        phase,
                        name: name.to_string(),
                        args: args.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
                        msg: msg.map(str::to_string),
                    });
                } else {
                    g.dropped = g.dropped.saturating_add(1);
                }
                g.stacks
                    .entry(tid)
                    .or_default()
                    .push((name.to_string(), recorded));
            }
            Phase::End => {
                // Pop the open span; its End records iff its Begin did,
                // so B/E pairs stay balanced even across overflow. The
                // End itself is exempt from the cap (bounded by the
                // number of open recorded spans).
                let Some((name, recorded)) = g.stacks.entry(tid).or_default().pop() else {
                    return; // unmatched end: ignore
                };
                if recorded {
                    g.events.push(TraceEvent {
                        t_ns,
                        tid,
                        phase,
                        name,
                        args: args.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
                        msg: msg.map(str::to_string),
                    });
                }
            }
            Phase::Instant | Phase::Counter => {
                if g.events.len() < r.capacity {
                    g.events.push(TraceEvent {
                        t_ns,
                        tid,
                        phase,
                        name: name.to_string(),
                        args: args.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
                        msg: msg.map(str::to_string),
                    });
                } else {
                    g.dropped = g.dropped.saturating_add(1);
                }
            }
        }
    }

    /// Open a span on track `tid`.
    pub fn begin(&self, tid: u64, name: &str) {
        self.push(tid, Phase::Begin, name, &[], None);
    }

    /// Open a span on track `tid` with numeric arguments.
    pub fn begin_with(&self, tid: u64, name: &str, args: &[(&str, u64)]) {
        self.push(tid, Phase::Begin, name, args, None);
    }

    /// Close the innermost open span on track `tid`.
    pub fn end(&self, tid: u64) {
        self.push(tid, Phase::End, "", &[], None);
    }

    /// Close the innermost open span on track `tid`, attaching numeric
    /// arguments to the End event (Chrome merges B and E args).
    pub fn end_with(&self, tid: u64, args: &[(&str, u64)]) {
        self.push(tid, Phase::End, "", args, None);
    }

    /// RAII span on track `tid`: closes on drop or [`TraceSpan::end_with`].
    pub fn span(&self, tid: u64, name: &str) -> TraceSpan {
        self.begin(tid, name);
        TraceSpan {
            ctx: self.clone(),
            tid,
            live: self.enabled(),
        }
    }

    /// RAII span with begin-time numeric arguments.
    pub fn span_with(&self, tid: u64, name: &str, args: &[(&str, u64)]) -> TraceSpan {
        self.begin_with(tid, name, args);
        TraceSpan {
            ctx: self.clone(),
            tid,
            live: self.enabled(),
        }
    }

    /// Record an instant event on track `tid`.
    pub fn instant(&self, tid: u64, name: &str) {
        self.push(tid, Phase::Instant, name, &[], None);
    }

    /// Record an instant event with a free-text message (`args.msg`).
    pub fn instant_msg(&self, tid: u64, name: &str, msg: &str) {
        self.push(tid, Phase::Instant, name, &[], Some(msg));
    }

    /// Record a counter sample (`ph: "C"`) on track `tid`; viewers plot
    /// the series over time.
    pub fn counter(&self, tid: u64, name: &str, value: u64) {
        self.push(tid, Phase::Counter, name, &[("value", value)], None);
    }

    /// Render the recorded events as Chrome `trace_event` JSON.
    ///
    /// The document shape is the "JSON Object Format":
    /// `{"displayTimeUnit":"ms","otherData":{…},"traceEvents":[…]}`.
    /// Metadata events (process / thread names) come first, then the
    /// recorded events in ring (i.e. global-timestamp) order; any span
    /// still open at render time gets a synthesized End at the last
    /// recorded timestamp so B/E pairs always balance. Rendering does
    /// not mutate the ring: calling this twice yields identical bytes.
    pub fn to_chrome_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("displayTimeUnit");
        w.string("ms");
        w.key("otherData");
        w.begin_object();
        w.key("dropped_events");
        w.u64(self.events_dropped());
        w.key("trace_id");
        w.string(self.id().unwrap_or(""));
        w.end_object();
        w.key("traceEvents");
        w.begin_array();
        if let Some(r) = self.rec.as_deref() {
            let g = r.lock();
            // Track metadata: every tid that appears, plus the driver.
            let mut tids: Vec<u64> = g.events.iter().map(|e| e.tid).collect();
            tids.push(0);
            tids.sort_unstable();
            tids.dedup();
            meta_event(&mut w, "process_name", 0, "jinjing");
            for &tid in &tids {
                let label = if tid == 0 {
                    "driver".to_string()
                } else {
                    format!("worker-{}", tid - 1)
                };
                meta_event(&mut w, "thread_name", tid, &label);
            }
            let max_ns = g.events.iter().map(|e| e.t_ns).max().unwrap_or(0);
            for e in &g.events {
                write_event(&mut w, e);
            }
            // Balance spans still open at render time.
            for (&tid, stack) in &g.stacks {
                for (name, recorded) in stack.iter().rev() {
                    if *recorded {
                        write_event(
                            &mut w,
                            &TraceEvent {
                                t_ns: max_ns,
                                tid,
                                phase: Phase::End,
                                name: name.clone(),
                                args: Vec::new(),
                                msg: None,
                            },
                        );
                    }
                }
            }
        }
        w.end_array();
        w.end_object();
        let mut out = w.finish();
        out.push('\n');
        out
    }

    /// A `jinjing top`-style text summary of the trace: per-span-name
    /// counts, total and self wall-clock (total minus enclosed child
    /// spans on the same track), slowest first.
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let Some(r) = self.rec.as_deref() else {
            return "trace: disabled\n".to_string();
        };
        let g = r.lock();
        // Replay the event stream per track, accumulating (count,
        // total, self) per span name.
        #[derive(Default)]
        struct Agg {
            count: u64,
            total_ns: u64,
            self_ns: u64,
        }
        let mut agg: BTreeMap<String, Agg> = BTreeMap::new();
        // Per-tid stack of (name, start_ns, child_ns).
        let mut stacks: BTreeMap<u64, Vec<(String, u64, u64)>> = BTreeMap::new();
        for e in &g.events {
            match e.phase {
                Phase::Begin => {
                    stacks
                        .entry(e.tid)
                        .or_default()
                        .push((e.name.clone(), e.t_ns, 0));
                }
                Phase::End => {
                    let stack = stacks.entry(e.tid).or_default();
                    if let Some((name, start, child)) = stack.pop() {
                        let dur = e.t_ns.saturating_sub(start);
                        let a = agg.entry(name).or_default();
                        a.count += 1;
                        a.total_ns += dur;
                        a.self_ns += dur.saturating_sub(child);
                        if let Some(parent) = stack.last_mut() {
                            parent.2 += dur;
                        }
                    }
                }
                Phase::Instant | Phase::Counter => {}
            }
        }
        let mut rows: Vec<(String, Agg)> = agg.into_iter().collect();
        rows.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(&b.0)));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace {} — {} event(s), {} dropped",
            r.id,
            g.events.len(),
            g.dropped
        );
        let _ = writeln!(
            out,
            "{:>12} {:>12} {:>7}  span",
            "total(us)", "self(us)", "count"
        );
        for (name, a) in &rows {
            let _ = writeln!(
                out,
                "{:>12} {:>12} {:>7}  {name}",
                a.total_ns / 1_000,
                a.self_ns / 1_000,
                a.count
            );
        }
        out
    }
}

/// Write one Chrome metadata event (`ph: "M"`).
fn meta_event(w: &mut JsonWriter, name: &str, tid: u64, label: &str) {
    w.begin_object();
    w.key("args");
    w.begin_object();
    w.key("name");
    w.string(label);
    w.end_object();
    w.key("name");
    w.string(name);
    w.key("ph");
    w.string("M");
    w.key("pid");
    w.u64(1);
    w.key("tid");
    w.u64(tid);
    w.end_object();
}

/// Write one recorded event in Chrome `trace_event` shape (keys in
/// sorted order, `ts` in fractional microseconds).
fn write_event(w: &mut JsonWriter, e: &TraceEvent) {
    w.begin_object();
    if !e.args.is_empty() || e.msg.is_some() {
        w.key("args");
        w.begin_object();
        let mut args: Vec<(&str, u64)> = e.args.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        args.sort_unstable();
        for (k, v) in args {
            w.key(k);
            w.u64(v);
        }
        if let Some(m) = &e.msg {
            w.key("msg");
            w.string(m);
        }
        w.end_object();
    }
    w.key("name");
    w.string(&e.name);
    w.key("ph");
    w.string(match e.phase {
        Phase::Begin => "B",
        Phase::End => "E",
        Phase::Instant => "i",
        Phase::Counter => "C",
    });
    w.key("pid");
    w.u64(1);
    if e.phase == Phase::Instant {
        w.key("s");
        w.string("t");
    }
    w.key("tid");
    w.u64(e.tid);
    w.key("ts");
    w.f64(e.t_ns as f64 / 1_000.0);
    w.end_object();
}

/// RAII handle for one open trace span (see [`TraceCtx::span`]). Closes
/// the span on drop; [`TraceSpan::end_with`] closes it with arguments.
#[derive(Debug)]
pub struct TraceSpan {
    ctx: TraceCtx,
    tid: u64,
    live: bool,
}

impl TraceSpan {
    /// The track this span is open on.
    pub fn tid(&self) -> u64 {
        self.tid
    }

    /// The owning context (for emitting sibling events on the same track).
    pub fn ctx(&self) -> &TraceCtx {
        &self.ctx
    }

    /// Close the span, attaching numeric arguments to the End event.
    pub fn end_with(mut self, args: &[(&str, u64)]) {
        if self.live {
            self.live = false;
            self.ctx.end_with(self.tid, args);
        }
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        if self.live {
            self.ctx.end(self.tid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_deterministic_and_distinct() {
        let a = trace_id_of("scope A:*\ncheck\n");
        assert_eq!(a, trace_id_of("scope A:*\ncheck\n"));
        assert_ne!(a, trace_id_of("scope B:*\ncheck\n"));
        assert_eq!(a.len(), 17);
        assert!(a.starts_with('t'));
        assert!(a[1..].chars().all(|c| c.is_ascii_hexdigit()));
        // Pinned value: the id scheme is part of the serve API surface.
        assert_eq!(trace_id_of(""), "tcbf29ce484222325");
    }

    #[test]
    fn disabled_ctx_is_a_no_op() {
        let t = TraceCtx::disabled();
        assert!(!t.enabled());
        assert_eq!(t.id(), None);
        t.begin(0, "x");
        t.end(0);
        t.instant(0, "i");
        t.counter(0, "c", 1);
        let s = t.span(0, "y");
        s.end_with(&[("a", 1)]);
        assert_eq!(t.events_recorded(), 0);
        assert_eq!(t.events_dropped(), 0);
        assert!(t.to_chrome_json().contains("\"traceEvents\":[]"));
    }

    #[test]
    fn spans_balance_and_timestamps_are_monotone() {
        let t = TraceCtx::new("t0");
        {
            let _outer = t.span(0, "outer");
            let _inner = t.span(0, "inner");
            t.instant(0, "tick");
        }
        t.counter(0, "n", 7);
        let json = t.to_chrome_json();
        assert!(json.contains("\"trace_id\":\"t0\""));
        assert!(json.contains("\"name\":\"outer\""));
        let b = json.matches("\"ph\":\"B\"").count();
        let e = json.matches("\"ph\":\"E\"").count();
        assert_eq!(b, 2);
        assert_eq!(b, e, "balanced B/E pairs: {json}");
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"C\"").count(), 1);
        // Repeated renders are byte-identical (rendering never mutates).
        assert_eq!(json, t.to_chrome_json());
        // ts values are non-decreasing in document order (one track).
        let mut last = -1.0f64;
        for part in json.split("\"ts\":").skip(1) {
            let v: f64 = part
                .split(['}', ','])
                .next()
                .unwrap()
                .parse()
                .expect("ts is a number");
            assert!(v >= last, "ts must be monotone: {json}");
            last = v;
        }
    }

    #[test]
    fn open_spans_get_synthesized_ends_at_render() {
        let t = TraceCtx::new("t1");
        t.begin(0, "never-closed");
        t.begin(3, "worker-open");
        let json = t.to_chrome_json();
        assert_eq!(
            json.matches("\"ph\":\"B\"").count(),
            json.matches("\"ph\":\"E\"").count(),
            "{json}"
        );
        // Worker track metadata was emitted for tid 3 (worker-2).
        assert!(json.contains("\"worker-2\""), "{json}");
        assert!(json.contains("\"driver\""), "{json}");
    }

    #[test]
    fn overflow_drops_whole_spans_and_counts_them() {
        let t = TraceCtx::with_capacity("t2", 4);
        for i in 0..6 {
            let s = t.span(0, "s");
            s.end_with(&[("i", i)]);
        }
        // Capacity 4: two whole spans recorded (B+E each), the later
        // Begins dropped along with their Ends.
        assert_eq!(t.events_recorded(), 4);
        assert_eq!(t.events_dropped(), 4);
        let json = t.to_chrome_json();
        assert_eq!(
            json.matches("\"ph\":\"B\"").count(),
            json.matches("\"ph\":\"E\"").count()
        );
        assert!(json.contains("\"dropped_events\":4"));
    }

    #[test]
    fn summary_reports_self_time() {
        let t = TraceCtx::new("t3");
        {
            let _outer = t.span(0, "outer");
            std::thread::sleep(std::time::Duration::from_millis(1));
            {
                let _inner = t.span(0, "inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let s = t.summary();
        assert!(s.starts_with("trace t3"), "{s}");
        assert!(s.contains("outer") && s.contains("inner"), "{s}");
        // outer sorts first (largest total), and its self time is less
        // than its total (inner is subtracted).
        let outer_pos = s.find("outer").unwrap();
        let inner_pos = s.find("inner").unwrap();
        assert!(outer_pos < inner_pos, "slowest-first ordering: {s}");
    }

    #[test]
    fn end_with_attaches_args() {
        let t = TraceCtx::new("t4");
        let s = t.span_with(2, "solver.query", &[("stage", 1)]);
        s.end_with(&[("conflicts", 3), ("decisions", 9)]);
        let json = t.to_chrome_json();
        assert!(json.contains("\"stage\":1"), "{json}");
        assert!(json.contains("\"conflicts\":3,\"decisions\":9"), "{json}");
    }
}
