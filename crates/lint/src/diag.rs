//! The diagnostic model: severities, certainties, individual findings, and
//! the machine-readable [`LintReport`].
//!
//! Output follows rustc's conventions: every diagnostic carries a stable
//! *code* (`JL0xx` rule-level, `JL1xx` intent-level, `JL2xx` network-level),
//! a severity, a location string, a human message, and an optional suggested
//! fix. Reports render either as rustc-style text or as deterministic JSON
//! (sorted diagnostics, sorted keys) suitable for diffing in CI.

use jinjing_obs::json::JsonWriter;
use std::fmt;

/// Version of the machine-readable lint report format, rendered as the
/// top-level `schema_version` key of [`LintReport::to_json`] so downstream
/// parsers can gate on format changes. Bumped to `"2"` when diagnostics
/// gained the optional `tenant` attribution field and the JL3xx
/// cross-tenant family.
pub const SCHEMA_VERSION: &str = "2";

/// How serious a finding is.
///
/// `Error` means the input is broken (e.g. a dangling reference) and later
/// stages would fail on it; `Warning` flags likely mistakes; `Note` flags
/// hygiene issues that are probably intentional but worth knowing about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: legal and harmless, but worth a look.
    Note,
    /// Likely a mistake; the configuration still builds and runs.
    Warning,
    /// The input is inconsistent; downstream stages would reject it.
    Error,
}

impl Severity {
    /// Stable lowercase name used in JSON and text output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How sure the analysis is about a finding.
///
/// Most checks are exact consequences of the packet-set algebra, but the
/// full-shadow check (JL001) can additionally be *confirmed by the CDCL
/// solver* on the balanced-tree ACL encoding: the solver proves that no
/// packet reaches the shadowed rule. Findings that skipped the solver pass
/// are reported as [`Certainty::Heuristic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Certainty {
    /// The CDCL solver proved the finding (Unsat on its negation).
    SolverConfirmed,
    /// Derived from the set algebra / pattern analysis only.
    Heuristic,
}

impl Certainty {
    /// Stable name used in JSON and text output.
    pub fn as_str(self) -> &'static str {
        match self {
            Certainty::SolverConfirmed => "solver-confirmed",
            Certainty::Heuristic => "heuristic",
        }
    }
}

impl fmt::Display for Certainty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code from the registry (`JL001`, `JL101`, …).
    pub code: &'static str,
    /// How serious the finding is.
    pub severity: Severity,
    /// How sure the analysis is (only set by checks that distinguish
    /// solver-confirmed from heuristic findings).
    pub certainty: Option<Certainty>,
    /// Where the finding points: `"A:1-in:rule:3"`, `"lai:control:2"`,
    /// `"spec:links[0]"`, `"path:A:0->B:1"`, ….
    pub location: String,
    /// Human-readable description.
    pub message: String,
    /// Suggested fix, when one exists.
    pub suggestion: Option<String>,
    /// Tenant attribution for multi-intent runs: which tenant's intent the
    /// finding belongs to, or a comma-joined pair (`"alpha,beta"`) for
    /// cross-tenant findings. `None` on single-program runs.
    pub tenant: Option<String>,
}

impl Diagnostic {
    /// A new diagnostic without certainty or suggestion.
    pub fn new(
        code: &'static str,
        severity: Severity,
        location: impl Into<String>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            certainty: None,
            location: location.into(),
            message: message.into(),
            suggestion: None,
            tenant: None,
        }
    }

    /// Attach a suggested fix.
    pub fn with_suggestion(mut self, s: impl Into<String>) -> Diagnostic {
        self.suggestion = Some(s.into());
        self
    }

    /// Attach a certainty level.
    pub fn with_certainty(mut self, c: Certainty) -> Diagnostic {
        self.certainty = Some(c);
        self
    }

    /// Attach tenant attribution (multi-intent runs).
    pub fn with_tenant(mut self, t: impl Into<String>) -> Diagnostic {
        self.tenant = Some(t.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}\n  --> {}",
            self.severity, self.code, self.message, self.location
        )?;
        if let Some(t) = &self.tenant {
            write!(f, "\n  = note: tenant: {t}")?;
        }
        if let Some(c) = self.certainty {
            write!(f, "\n  = note: certainty: {c}")?;
        }
        if let Some(s) = &self.suggestion {
            write!(f, "\n  = help: {s}")?;
        }
        Ok(())
    }
}

/// Record a freshly emitted diagnostic in the run's metric store. Called at
/// emission time (not on merge) so merged sub-reports are not double
/// counted.
pub(crate) fn record(obs: &jinjing_obs::Collector, d: &Diagnostic) {
    obs.counter_add("lint.diagnostics", 1);
    obs.counter_add(&format!("lint.severity.{}", d.severity), 1);
    obs.counter_add(&format!("lint.code.{}", d.code), 1);
}

/// Intern a code string to its registry `&'static str`. [`Diagnostic`]
/// stores codes as static strings (they come from a closed registry), so
/// anything parsing diagnostics off a wire must map back through this
/// table; an unknown code is a schema violation, not a new finding.
pub fn static_code(code: &str) -> Option<&'static str> {
    const CODES: [&str; 15] = [
        "JL001", "JL002", "JL003", "JL004", "JL101", "JL102", "JL103", "JL104", "JL201", "JL202",
        "JL203", "JL301", "JL302", "JL303", "JL304",
    ];
    CODES.iter().copied().find(|c| *c == code)
}

/// An ordered collection of findings with deterministic serialization.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintReport {
    diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// An empty report.
    pub fn new() -> LintReport {
        LintReport::default()
    }

    /// Append one finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Absorb another report's findings.
    pub fn merge(&mut self, other: LintReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Sort findings by `(location, code, tenant, message)` so output is
    /// stable no matter which analysis layer — or which tenant's program —
    /// ran first. Call once before rendering.
    pub fn sort(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            a.location
                .cmp(&b.location)
                .then_with(|| a.code.cmp(b.code))
                .then_with(|| a.tenant.cmp(&b.tenant))
                .then_with(|| a.message.cmp(&b.message))
        });
    }

    /// Attribute every not-yet-attributed finding to `tenant`. Used by the
    /// multi-intent engine entry point to tag each tenant's single-program
    /// findings before merging the per-tenant reports.
    pub fn attribute_tenant(&mut self, tenant: &str) {
        for d in &mut self.diagnostics {
            if d.tenant.is_none() {
                d.tenant = Some(tenant.to_string());
            }
        }
    }

    /// The findings, in current order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    /// `true` when there are no findings.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of findings at the given severity.
    pub fn count(&self, sev: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == sev)
            .count()
    }

    /// `true` when any finding is an [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// The exit code a lint run gates pipelines with, at every front
    /// door: 4 when any finding is an error, else 0.
    pub fn exit_code(&self) -> i32 {
        if self.has_errors() {
            4
        } else {
            0
        }
    }

    /// `true` when any finding carries the given code.
    pub fn has_code(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Deterministic JSON rendering: diagnostics in report order (sort
    /// first!) with alphabetically ordered keys, plus the
    /// [`SCHEMA_VERSION`] marker and a severity summary. Byte-stable
    /// across runs — no timestamps, no addresses.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("diagnostics");
        w.begin_array();
        for d in &self.diagnostics {
            w.begin_object();
            if let Some(c) = d.certainty {
                w.key("certainty");
                w.string(c.as_str());
            }
            w.key("code");
            w.string(d.code);
            w.key("location");
            w.string(&d.location);
            w.key("message");
            w.string(&d.message);
            w.key("severity");
            w.string(d.severity.as_str());
            if let Some(s) = &d.suggestion {
                w.key("suggestion");
                w.string(s);
            }
            if let Some(t) = &d.tenant {
                w.key("tenant");
                w.string(t);
            }
            w.end_object();
        }
        w.end_array();
        w.key("schema_version");
        w.string(SCHEMA_VERSION);
        w.key("summary");
        w.begin_object();
        w.key("error");
        w.u64(self.count(Severity::Error) as u64);
        w.key("note");
        w.u64(self.count(Severity::Note) as u64);
        w.key("total");
        w.u64(self.len() as u64);
        w.key("warning");
        w.u64(self.count(Severity::Warning) as u64);
        w.end_object();
        w.end_object();
        w.finish()
    }

    /// Parse a report back from its [`LintReport::to_json`] rendering —
    /// the wire format a shard backend returns to the coordinator. The
    /// summary and schema blocks are derived data and are not consulted;
    /// re-rendering the parsed report reproduces them (and the full
    /// document) byte-identically. Unknown codes, severities or
    /// certainties are schema violations and fail the parse.
    pub fn from_json(text: &str) -> Result<LintReport, String> {
        let root = jinjing_obs::json::parse(text)?;
        let diags = root
            .get("diagnostics")
            .ok_or_else(|| "lint report: missing \"diagnostics\"".to_string())?;
        let mut report = LintReport::new();
        for d in diags.elements() {
            let str_field = |key: &str| -> Result<String, String> {
                d.get(key)
                    .and_then(|v| v.as_str())
                    .map(str::to_string)
                    .ok_or_else(|| format!("lint diagnostic: missing \"{key}\""))
            };
            let code_raw = str_field("code")?;
            let code = static_code(&code_raw)
                .ok_or_else(|| format!("lint diagnostic: unknown code {code_raw:?}"))?;
            let severity = match str_field("severity")?.as_str() {
                "note" => Severity::Note,
                "warning" => Severity::Warning,
                "error" => Severity::Error,
                other => return Err(format!("lint diagnostic: unknown severity {other:?}")),
            };
            let mut diag = Diagnostic::new(
                code,
                severity,
                str_field("location")?,
                str_field("message")?,
            );
            match d.get("certainty").and_then(|v| v.as_str()) {
                Some("solver-confirmed") => diag.certainty = Some(Certainty::SolverConfirmed),
                Some("heuristic") => diag.certainty = Some(Certainty::Heuristic),
                Some(other) => return Err(format!("lint diagnostic: unknown certainty {other:?}")),
                None => {}
            }
            if let Some(s) = d.get("suggestion").and_then(|v| v.as_str()) {
                diag.suggestion = Some(s.to_string());
            }
            if let Some(t) = d.get("tenant").and_then(|v| v.as_str()) {
                diag.tenant = Some(t.to_string());
            }
            report.push(diag);
        }
        Ok(report)
    }

    /// Rustc-style text rendering, one block per finding plus a summary
    /// line.
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(out, "{d}");
        }
        if self.is_empty() {
            out.push_str("lint: clean — no diagnostics\n");
        } else {
            let _ = writeln!(
                out,
                "lint: {} diagnostic(s) — {} error(s), {} warning(s), {} note(s)",
                self.len(),
                self.count(Severity::Error),
                self.count(Severity::Warning),
                self.count(Severity::Note)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LintReport {
        let mut r = LintReport::new();
        r.push(
            Diagnostic::new("JL003", Severity::Note, "A:1-in:rule:2", "redundant rule")
                .with_suggestion("delete it"),
        );
        r.push(
            Diagnostic::new("JL001", Severity::Warning, "A:1-in:rule:1", "shadowed rule")
                .with_certainty(Certainty::SolverConfirmed),
        );
        r.push(Diagnostic::new(
            "JL201",
            Severity::Error,
            "spec:links[0]",
            "unknown interface",
        ));
        r
    }

    #[test]
    fn sort_orders_by_location_then_code() {
        let mut r = sample();
        r.sort();
        let codes: Vec<&str> = r.diagnostics().iter().map(|d| d.code).collect();
        assert_eq!(codes, vec!["JL001", "JL003", "JL201"]);
    }

    #[test]
    fn json_is_byte_stable_and_sorted_keys() {
        let mut r = sample();
        r.sort();
        let a = r.to_json();
        let b = r.to_json();
        assert_eq!(a, b);
        assert!(a.starts_with(
            "{\"diagnostics\":[{\"certainty\":\"solver-confirmed\",\"code\":\"JL001\""
        ));
        assert!(a.contains("\"schema_version\":\"2\""));
        assert!(a.ends_with("\"summary\":{\"error\":1,\"note\":1,\"total\":3,\"warning\":1}}"));
    }

    #[test]
    fn text_rendering_is_rustc_style() {
        let mut r = sample();
        r.sort();
        let t = r.render_text();
        assert!(t.contains("warning[JL001]: shadowed rule"));
        assert!(t.contains("  --> A:1-in:rule:1"));
        assert!(t.contains("  = note: certainty: solver-confirmed"));
        assert!(t.contains("  = help: delete it"));
        assert!(t.contains("1 error(s), 1 warning(s), 1 note(s)"));
    }

    #[test]
    fn empty_report_is_clean() {
        let r = LintReport::new();
        assert!(!r.has_errors());
        assert!(r.is_empty());
        assert_eq!(
            r.to_json(),
            "{\"diagnostics\":[],\"schema_version\":\"2\",\
             \"summary\":{\"error\":0,\"note\":0,\"total\":0,\"warning\":0}}"
        );
        assert!(r.render_text().contains("clean"));
    }

    #[test]
    fn tenant_attribution_renders_and_sorts() {
        let mut r = LintReport::new();
        r.push(Diagnostic::new("JL301", Severity::Warning, "multi:x", "conflict").with_tenant("b"));
        r.push(Diagnostic::new("JL301", Severity::Warning, "multi:x", "conflict").with_tenant("a"));
        r.sort();
        assert_eq!(r.diagnostics()[0].tenant.as_deref(), Some("a"));
        let json = r.to_json();
        assert!(json.contains("\"tenant\":\"a\""), "{json}");
        assert!(r.render_text().contains("= note: tenant: a"));
        // attribute_tenant only fills the blanks.
        let mut r = LintReport::new();
        r.push(Diagnostic::new(
            "JL101",
            Severity::Warning,
            "lai:control:0",
            "m",
        ));
        r.push(Diagnostic::new("JL301", Severity::Warning, "multi:x", "m").with_tenant("a,b"));
        r.attribute_tenant("alpha");
        assert_eq!(r.diagnostics()[0].tenant.as_deref(), Some("alpha"));
        assert_eq!(r.diagnostics()[1].tenant.as_deref(), Some("a,b"));
    }

    #[test]
    fn json_round_trips_through_from_json() {
        let mut r = sample();
        r.push(Diagnostic::new("JL301", Severity::Warning, "multi:x", "conflict").with_tenant("a"));
        r.sort();
        let json = r.to_json();
        let back = LintReport::from_json(&json).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_json(), json, "re-render must be byte-identical");
        // Empty reports round-trip too.
        let empty = LintReport::new();
        assert_eq!(
            LintReport::from_json(&empty.to_json()).unwrap().to_json(),
            empty.to_json()
        );
    }

    #[test]
    fn from_json_rejects_schema_violations() {
        assert!(LintReport::from_json("{}").is_err(), "missing diagnostics");
        assert!(
            LintReport::from_json(
                "{\"diagnostics\":[{\"code\":\"JL999\",\"location\":\"x\",\
                 \"message\":\"m\",\"severity\":\"note\"}]}"
            )
            .is_err(),
            "unknown code"
        );
        assert!(
            LintReport::from_json(
                "{\"diagnostics\":[{\"code\":\"JL001\",\"location\":\"x\",\
                 \"message\":\"m\",\"severity\":\"fatal\"}]}"
            )
            .is_err(),
            "unknown severity"
        );
        assert!(LintReport::from_json("not json").is_err());
    }

    #[test]
    fn counts_and_codes() {
        let r = sample();
        assert!(r.has_errors());
        assert!(r.has_code("JL001"));
        assert!(!r.has_code("JL999"));
        assert_eq!(r.count(Severity::Warning), 1);
    }
}
