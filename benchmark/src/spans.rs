//! The harness's own span recorder.
//!
//! Spans are recorded *around* the calls into each layer, from the
//! benchmark's side (`layers.rs`); nothing inside the program under test is
//! touched. They are kept in memory and written once, at exit, as a Chrome
//! `trace_event` file. The timed passes never record: they do not come
//! through `layers.rs` at all.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// The request the span belongs to (spans of one request share it).
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name aggregate over a range of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Total {
    /// Sum of span durations.
    pub total_ms: f64,
    /// Sum of (duration − time covered by child spans).
    pub self_ms: f64,
}

/// Handle of a span that is still open (see [`Recorder::open`]).
#[derive(Debug)]
pub struct Open(usize);

/// In-memory span store with a stack of open spans.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Start a new request: later spans carry the returned identifier.
    pub fn next_request(&mut self) -> u64 {
        self.request += 1;
        self.request
    }

    /// Number of spans recorded so far — a mark for [`Recorder::totals`].
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Open a span; spans opened before it is closed become its children.
    pub fn open(&mut self, name: &'static str) -> Open {
        let idx = self.spans.len();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(idx);
        Open(idx)
    }

    /// Close the innermost open span, which must be `span`.
    pub fn close(&mut self, span: Open) {
        assert_eq!(self.open.pop(), Some(span.0), "spans close innermost first");
        self.spans[span.0].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Run `f` inside a span. Spans opened by `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let span = self.open(name);
        let out = f(self);
        self.close(span);
        out
    }

    /// Per-name totals of the spans recorded since `mark`.
    pub fn totals(&self, mark: usize) -> BTreeMap<&'static str, Total> {
        totals(&self.spans, mark)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The whole store as Chrome `trace_event` JSON ("X" complete events,
    /// microsecond timestamps; `args` carry the request id and the parent
    /// span's index, so the caused-by chain survives the export).
    pub fn to_chrome_json(&self, process_name: &str) -> String {
        use jinjing_obs::json::JsonWriter;
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("displayTimeUnit");
        w.string("ms");
        w.key("traceEvents");
        w.begin_array();
        w.begin_object();
        w.key("args");
        w.begin_object();
        w.key("name");
        w.string(process_name);
        w.end_object();
        w.key("name");
        w.string("process_name");
        w.key("ph");
        w.string("M");
        w.key("pid");
        w.u64(1);
        w.end_object();
        for (i, s) in self.spans.iter().enumerate() {
            w.begin_object();
            w.key("args");
            w.begin_object();
            w.key("id");
            w.u64(i as u64);
            if let Some(p) = s.parent {
                w.key("parent");
                w.u64(p as u64);
            }
            w.key("request");
            w.u64(s.request);
            w.end_object();
            w.key("dur");
            w.f64(s.dur_ns() as f64 / 1e3);
            w.key("name");
            w.string(s.name);
            w.key("ph");
            w.string("X");
            w.key("pid");
            w.u64(1);
            w.key("tid");
            w.u64(1);
            w.key("ts");
            w.f64(s.start_ns as f64 / 1e3);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        let mut out = w.finish();
        out.push('\n');
        out
    }
}

/// Aggregate `spans[mark..]` by name. A span's self time is its duration
/// minus the durations of its direct children (children never overlap: the
/// recorder is a stack).
pub fn totals(spans: &[Span], mark: usize) -> BTreeMap<&'static str, Total> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in &spans[mark..] {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate().skip(mark) {
        let t = out.entry(s.name).or_default();
        t.total_ms += s.dur_ns() as f64 / 1e6;
        t.self_ms += (s.dur_ns() - child_ns[i].min(s.dur_ns())) as f64 / 1e6;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0, 100 ms) ⊃ check [10, 90) ⊃ {refine [20, 50), solve [50, 70)}
        let ms = 1_000_000;
        let spans = vec![
            span("op", 0, 100 * ms, None),
            span("check", 10 * ms, 90 * ms, Some(0)),
            span("refine", 20 * ms, 50 * ms, Some(1)),
            span("solve", 50 * ms, 70 * ms, Some(1)),
        ];
        let t = totals(&spans, 0);
        assert_eq!(t["op"].total_ms, 100.0);
        assert_eq!(t["op"].self_ms, 20.0); // minus check, not its grandchildren
        assert_eq!(t["check"].total_ms, 80.0);
        assert_eq!(t["check"].self_ms, 30.0);
        assert_eq!(t["refine"].self_ms, 30.0);
        assert_eq!(t["solve"].self_ms, 20.0);
    }

    #[test]
    fn totals_sum_repeated_names_and_respect_the_mark() {
        let ms = 1_000_000;
        let spans = vec![
            span("encode", 0, 5 * ms, None),
            span("encode", 5 * ms, 12 * ms, None),
            span("encode", 12 * ms, 13 * ms, None),
        ];
        assert_eq!(totals(&spans, 0)["encode"].total_ms, 13.0);
        assert_eq!(totals(&spans, 1)["encode"].total_ms, 8.0);
    }

    #[test]
    fn recorder_nests_and_exports_strict_json() {
        let mut r = Recorder::new();
        r.next_request();
        let v = r.span("outer", |r| {
            r.span("inner", |_| std::hint::black_box(21) * 2)
        });
        assert_eq!(v, 42);
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert_eq!(r.spans()[1].request, 1);
        let doc = jinjing_obs::json::parse(&r.to_chrome_json("test")).expect("strict JSON");
        assert_eq!(doc.get("traceEvents").unwrap().elements().len(), 3);
    }
}
