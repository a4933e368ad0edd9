//! The workspace's JSON: a hand-rolled writer, value type and reader.
//!
//! There is no registry, so nothing here leans on an external crate. The
//! writer produces strict JSON: RFC 8259 string escaping, no trailing
//! commas, and — because snapshots are meant to be diffed in tests and CI —
//! *stable key ordering* (callers insert keys in sorted order; the writer
//! preserves insertion order). [`parse`] is the strict reader behind every
//! document that comes back in: shard reports, snapshots, and the
//! operator's `--network` / `--acls` spec files.

use std::fmt::Write;

/// Append a JSON-escaped string literal (including the surrounding quotes).
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Incremental writer for JSON objects and arrays.
///
/// The caller drives structure (`begin_object` / `end_object`, …); the
/// writer tracks whether a comma is due. Keys are emitted in the order the
/// caller supplies them, so sorted input yields byte-stable output.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Per nesting level: has a first element been written?
    has_elem: Vec<bool>,
}

impl JsonWriter {
    /// Fresh writer.
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    /// Finish and return the accumulated JSON text.
    pub fn finish(self) -> String {
        debug_assert!(self.has_elem.is_empty(), "unbalanced begin/end");
        self.out
    }

    fn comma(&mut self) {
        if let Some(seen) = self.has_elem.last_mut() {
            if *seen {
                self.out.push(',');
            }
            *seen = true;
        }
    }

    /// `{`
    pub fn begin_object(&mut self) {
        self.comma();
        self.out.push('{');
        self.has_elem.push(false);
    }

    /// `}`
    pub fn end_object(&mut self) {
        self.has_elem.pop();
        self.out.push('}');
    }

    /// `[`
    pub fn begin_array(&mut self) {
        self.comma();
        self.out.push('[');
        self.has_elem.push(false);
    }

    /// `]`
    pub fn end_array(&mut self) {
        self.has_elem.pop();
        self.out.push(']');
    }

    /// `"key":` — must be followed by exactly one value.
    pub fn key(&mut self, k: &str) {
        self.comma();
        write_escaped(&mut self.out, k);
        self.out.push(':');
        // The upcoming value must not emit its own comma.
        if let Some(seen) = self.has_elem.last_mut() {
            *seen = false;
        }
    }

    /// A string value.
    pub fn string(&mut self, s: &str) {
        self.comma();
        write_escaped(&mut self.out, s);
    }

    /// An unsigned integer value.
    pub fn u64(&mut self, v: u64) {
        self.comma();
        let _ = write!(self.out, "{v}");
    }

    /// A signed integer value.
    pub fn i64(&mut self, v: i64) {
        self.comma();
        let _ = write!(self.out, "{v}");
    }

    /// A float value (finite; non-finite values are emitted as `null`,
    /// which is what strict JSON requires).
    pub fn f64(&mut self, v: f64) {
        self.comma();
        if v.is_finite() {
            let _ = write!(self.out, "{v}");
        } else {
            self.out.push_str("null");
        }
    }

    /// A boolean value.
    pub fn bool(&mut self, v: bool) {
        self.comma();
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// A `null` value.
    pub fn null(&mut self) {
        self.comma();
        self.out.push_str("null");
    }
}

/// A parsed JSON value.
///
/// Counterpart to [`JsonWriter`] for the places that must *read* JSON back
/// (merging shard snapshots, the coordinator's fan-in, the spec files).
/// Object keys keep document order; numbers keep their raw spelling so a
/// parse → render round-trip of canonical output is byte-exact.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `{…}` — entries in document order.
    Object(Vec<(String, Json)>),
    /// `[…]`
    Array(Vec<Json>),
    /// A string (unescaped).
    Str(String),
    /// A number, kept as its raw source spelling.
    Num(String),
    /// `true` / `false`
    Bool(bool),
    /// `null`
    Null,
}

impl Json {
    /// Object member by key (first match), `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object's members, or an empty slice.
    pub fn members(&self) -> &[(String, Json)] {
        match self {
            Json::Object(m) => m,
            _ => &[],
        }
    }

    /// The array's elements, or an empty slice.
    pub fn elements(&self) -> &[Json] {
        match self {
            Json::Array(xs) => xs,
            _ => &[],
        }
    }

    /// String payload, `None` otherwise.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Number as `u64` (integer spellings only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// Number as `i64` (integer spellings only).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// Number as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// Render for people and diffs: two-space indent, `": "` after keys,
    /// one member or element per line, `{}` / `[]` when empty, no trailing
    /// newline. This is the shape the committed spec files have.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.pretty_into(&mut out, 0);
        out
    }

    fn pretty_into(&self, out: &mut String, indent: usize) {
        /// Start line `i` of a container's body, or its closing line.
        fn line(out: &mut String, i: usize, indent: usize) {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(&"  ".repeat(indent));
        }
        match self {
            Json::Object(members) if !members.is_empty() => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    line(out, i, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.pretty_into(out, indent + 1);
                }
                line(out, 0, indent);
                out.push('}');
            }
            Json::Array(elems) if !elems.is_empty() => {
                out.push('[');
                for (i, elem) in elems.iter().enumerate() {
                    line(out, i, indent + 1);
                    elem.pretty_into(out, indent + 1);
                }
                line(out, 0, indent);
                out.push(']');
            }
            Json::Object(_) => out.push_str("{}"),
            Json::Array(_) => out.push_str("[]"),
            Json::Str(s) => write_escaped(out, s),
            Json::Num(raw) => out.push_str(raw),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Null => out.push_str("null"),
        }
    }
}

/// Deepest container nesting [`parse`] accepts. The parser recurses per
/// level, so without a cap a hostile document (`[[[[…`) overflows the
/// stack and aborts the process; canonical output nests less than 10 deep.
pub const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document, strictly by RFC 8259: no trailing
/// garbage, no malformed numbers (`-`, `01`, `1.`, `1e`), no raw control
/// bytes or lone surrogates in strings, at most [`MAX_DEPTH`] levels of
/// nesting. Every error names the byte offset it was found at.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at offset {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut elems = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(elems));
        }
        loop {
            self.skip_ws();
            elems.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(elems));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        let opened = self.pos;
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // A run of plain bytes. It starts after and ends at an ASCII
            // byte, so both ends are char boundaries of the `str`.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err(format!("unterminated string at offset {opened}")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => {
                    return Err(format!("raw control byte in string at offset {}", self.pos))
                }
            }
        }
    }

    /// The character an escape stands for; `pos` is just past the `\`.
    fn escape(&mut self) -> Result<char, String> {
        let at = self.pos;
        let e = self
            .peek()
            .ok_or_else(|| format!("unterminated escape at offset {at}"))?;
        self.pos += 1;
        Ok(match e {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{08}',
            b'f' => '\u{0c}',
            b'u' => {
                let mut cp = self.hex4()?;
                // A high surrogate is only half a character: the low half
                // must follow as its own `\u` escape.
                if (0xD800..0xDC00).contains(&cp)
                    && self.text.as_bytes()[self.pos..].starts_with(b"\\u")
                {
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if (0xDC00..0xE000).contains(&lo) {
                        cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                    }
                }
                char::from_u32(cp)
                    .ok_or_else(|| format!("lone surrogate in \\u escape at offset {at}"))?
            }
            _ => return Err(format!("bad escape at offset {at}")),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| format!("bad \\u escape at offset {}", self.pos))?;
        self.pos += 4;
        Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
    }

    /// Skip a run of digits; how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let leading_zero = self.peek() == Some(b'0');
        let int_digits = self.digits();
        let mut ok = int_digits == 1 || (int_digits > 1 && !leading_zero);
        if self.peek() == Some(b'.') {
            self.pos += 1;
            ok &= self.digits() > 0;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            ok &= self.digits() > 0;
        }
        if !ok {
            return Err(format!("bad number at offset {start}"));
        }
        Ok(Json::Num(self.text[start..self.pos].to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_quotes_backslashes_and_controls() {
        let mut s = String::new();
        write_escaped(&mut s, "a\"b\\c\nd\te\u{01}f");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\te\\u0001f\"");
    }

    #[test]
    fn nested_structure_with_commas() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("a");
        w.u64(1);
        w.key("b");
        w.begin_array();
        w.string("x");
        w.string("y");
        w.begin_object();
        w.key("n");
        w.i64(-3);
        w.end_object();
        w.end_array();
        w.key("c");
        w.bool(true);
        w.end_object();
        assert_eq!(w.finish(), r#"{"a":1,"b":["x","y",{"n":-3}],"c":true}"#);
    }

    #[test]
    fn empty_containers() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("xs");
        w.begin_array();
        w.end_array();
        w.key("o");
        w.begin_object();
        w.end_object();
        w.end_object();
        assert_eq!(w.finish(), r#"{"xs":[],"o":{}}"#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut w = JsonWriter::new();
        w.begin_array();
        w.f64(1.5);
        w.f64(f64::NAN);
        w.f64(f64::INFINITY);
        w.end_array();
        assert_eq!(w.finish(), "[1.5,null,null]");
    }

    #[test]
    fn parser_round_trips_writer_output() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("a");
        w.u64(1);
        w.key("b");
        w.begin_array();
        w.string("x\n\"y\"");
        w.i64(-3);
        w.f64(2.5);
        w.bool(false);
        w.end_array();
        w.end_object();
        let text = w.finish();
        let v = parse(&text).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        let b = v.get("b").unwrap().elements();
        assert_eq!(b[0].as_str(), Some("x\n\"y\""));
        assert_eq!(b[1].as_i64(), Some(-3));
        assert_eq!(b[2].as_f64(), Some(2.5));
        assert_eq!(b[3], Json::Bool(false));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("{}x").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("tru").is_err());
    }

    #[test]
    fn parser_handles_unicode_and_escapes() {
        let v = parse(r#"{"k":"café → né"}"#).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some("café → né"));
    }

    #[test]
    fn parser_keeps_raw_number_spelling() {
        let v = parse("[1.50, 0, -0.0]").unwrap();
        assert_eq!(v.elements()[0], Json::Num("1.50".to_string()));
        assert_eq!(v.elements()[2].as_f64(), Some(-0.0));
    }

    #[test]
    fn nesting_is_capped_not_recursed_into_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let e = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            e,
            format!("nesting deeper than {MAX_DEPTH} at offset {MAX_DEPTH}")
        );
        // Unclosed, object-shaped and far past any thread's stack: still an
        // `Err`, from a worker-sized (2 MiB) stack as the daemon parses on.
        let worker = std::thread::Builder::new().stack_size(2 << 20);
        let deep = worker.spawn(|| {
            let arrays = parse(&"[".repeat(200_000)).unwrap_err();
            let objects = parse(&"{\"k\":".repeat(200_000)).unwrap_err();
            (arrays, objects)
        });
        let (arrays, objects) = deep.unwrap().join().expect("no overflow, no panic");
        assert!(arrays.starts_with("nesting deeper than"), "{arrays}");
        assert!(objects.starts_with("nesting deeper than"), "{objects}");
        // Siblings do not count as depth.
        assert!(parse(&format!("[{}1]", "[],".repeat(10_000))).is_ok());
    }

    #[test]
    fn numbers_follow_the_rfc_grammar() {
        for ok in [
            "0", "-0", "7", "10", "-12", "0.5", "-0.0", "1.50", "1e5", "1E+5", "2.5e-3", "0e0",
        ] {
            assert_eq!(parse(ok), Ok(Json::Num(ok.to_string())), "{ok}");
        }
        for bad in [
            "-", "01", "-01", "00", "1.", "1.e5", ".5", "1e", "1e+", "1E-", "+1", "0x10", "1.2.3",
            "--1", "1-", "NaN", "Infinity",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
            assert!(
                parse(&format!("[{bad}]")).is_err(),
                "[{bad}] must not parse"
            );
        }
    }

    #[test]
    fn strings_reject_raw_controls_and_lone_surrogates() {
        // (document, the string it holds) — escapes, pairs, plain UTF-8.
        for (doc, want) in [
            (r#""\ud83d\ude00""#, "\u{1f600}"),
            (r#""a\uD83D\uDE00b""#, "a\u{1f600}b"),
            (r#""\u00e9\u2192""#, "é→"),
            (r#""\u0000\u001f""#, "\u{0}\u{1f}"),
            (r#""\"\\\/\b\f\n\r\t""#, "\"\\/\u{8}\u{c}\n\r\t"),
            ("\"😀 é \u{7f}\"", "😀 é \u{7f}"),
        ] {
            assert_eq!(parse(doc), Ok(Json::Str(want.to_string())), "{doc}");
        }
        for bad in [
            "\"a\nb\"",          // raw newline
            "\"a\tb\"",          // raw tab
            "\"\u{0}\"",         // raw NUL
            "\"\u{1f}\"",        // raw unit separator
            r#""\ud83d""#,       // lone high surrogate
            r#""\ud83dx""#,      // high surrogate, then a plain char
            r#""\ude00""#,       // lone low surrogate
            r#""\ud83d\u0041""#, // high surrogate, then a non-surrogate escape
            r#""\ud83d\ud83d""#, // two high surrogates
            r#""\u12""#,         // truncated escape
            r#""\u+123""#,       // sign is not a hex digit
            r#""\u12é4""#,       // multi-byte char inside the escape
            r#""\x41""#,         // unknown escape
            r#""\"#,             // escape at end of input
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn every_truncation_of_a_document_is_an_error() {
        let doc = r#"{"a":[1,-2.5e3,"x\n\ud83d\ude00"],"b":{"c":null,"d":true},"e":false}"#;
        assert!(parse(doc).is_ok());
        for cut in (0..doc.len()).filter(|&i| doc.is_char_boundary(i)) {
            assert!(parse(&doc[..cut]).is_err(), "prefix of {cut} bytes parsed");
        }
    }

    #[test]
    fn pretty_rendering_has_the_committed_spec_shape() {
        let doc = parse(r#"{"a":[1,"x\ny",[]],"o":{},"n":{"t":true,"z":null}}"#).unwrap();
        let pretty = "{\n  \"a\": [\n    1,\n    \"x\\ny\",\n    []\n  ],\n  \"o\": {},\n  \
                      \"n\": {\n    \"t\": true,\n    \"z\": null\n  }\n}";
        assert_eq!(doc.to_pretty(), pretty);
        assert_eq!(parse(pretty), Ok(doc));
        assert_eq!(Json::Array(Vec::new()).to_pretty(), "[]");
    }
}
