//! A hand-rolled JSON writer.
//!
//! The obs crate must stay dependency-free (the build is offline), so the
//! snapshot serializer is written by hand. It produces strict JSON:
//! RFC 8259 string escaping, no trailing commas, and — because snapshots
//! are meant to be diffed in tests and CI — *stable key ordering* (callers
//! insert keys in sorted order; the writer preserves insertion order).

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
/// Counterpart to [`JsonWriter`] for the handful of places that must *read*
/// canonical JSON back (merging shard snapshots, the coordinator's fan-in).
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
}

/// Parse a complete JSON document. Rejects trailing garbage.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
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
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
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
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self
                .peek()
                .ok_or_else(|| "unterminated string".to_string())?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-ascii \\u escape".to_string())?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            self.pos += 4;
                            // Surrogate pairs: canonical snapshots never emit
                            // them (the writer escapes only controls), so a
                            // lone surrogate maps to U+FFFD rather than erroring.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                }
                _ => {
                    // Re-sync to char boundaries for multi-byte UTF-8.
                    let start = self.pos - 1;
                    let s = &self.bytes[start..];
                    let ch_len = utf8_len(b);
                    let chunk = s
                        .get(..ch_len)
                        .ok_or_else(|| "truncated utf-8".to_string())?;
                    let ch = std::str::from_utf8(chunk)
                        .map_err(|_| "invalid utf-8 in string".to_string())?;
                    out.push_str(ch);
                    self.pos = start + ch_len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if self.pos == start {
            return Err(format!("bad number at offset {start}"));
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("digits are ascii")
            .to_string();
        Ok(Json::Num(raw))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
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
}
