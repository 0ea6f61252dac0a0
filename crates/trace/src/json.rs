//! A minimal JSON value model: writer, parser, and the trace-schema
//! validator.
//!
//! Hand-rolled because the workspace builds with zero external crates
//! (offline policy). The writer preserves object key order — the trace
//! schema specifies key order, which is what lets the determinism test
//! compare reports byte-wise — and the parser exists so tests and the
//! `trace_check` CI binary can validate emitted traces without a
//! dependency either.

use crate::metric::{CounterId, HISTOGRAM_BUCKETS};
use crate::report::{SCHEMA_NAME, SCHEMA_VERSION};
use std::fmt::Write as _;

/// A parsed or to-be-written JSON value. Objects preserve insertion
/// order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers are exact up to 2⁵³).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in insertion order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on an object (`None` otherwise).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The object members, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(members) => Some(members),
            _ => None,
        }
    }

    /// Serializes with two-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serializes on one line with no whitespace — the wire form for
    /// line-oriented protocols (`mtk serve` responses), where a literal
    /// newline terminates the message.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => write_number(out, *n),
            JsonValue::String(s) => write_string(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            JsonValue::Object(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => write_number(out, *n),
            JsonValue::String(s) => write_string(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent + 1);
                    item.write(out, indent + 1);
                }
                newline(out, indent);
                out.push(']');
            }
            JsonValue::Object(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                newline(out, indent);
                out.push('}');
            }
        }
    }
}

fn newline(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/inf; clamp to null rather than emit garbage.
        out.push_str("null");
    } else {
        // Rust's shortest-roundtrip Display never uses exponents, so the
        // output is valid JSON and survives a parse round trip exactly.
        let _ = write!(out, "{n}");
    }
}

/// Writes `s` as a JSON string literal. Runs of bytes that need no
/// escape are copied whole: every escaped character is ASCII, so a run
/// ends on a character boundary, and the output is the per-`char`
/// escaping byte for byte (the `write_string_per_char` oracle below).
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Parses a JSON document.
///
/// # Errors
///
/// A human-readable message with the byte offset of the first problem.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
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
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "invalid \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "invalid \\u escape".to_string())?;
                            // Surrogate pairs are not needed by this
                            // schema; map them to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the run up to the next quote or backslash,
                    // validating it once: validating the whole remaining
                    // input per character made parsing quadratic in the
                    // string's length (a `.mtk` design in a serve request
                    // is one string of up to megabytes).
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid utf-8 in string".to_string())?;
                    out.push_str(run);
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("invalid number at byte {start}"))
    }
}

/// Validates a serialized [`crate::TraceReport`] against the documented
/// schema (DESIGN.md §10): schema header, counter registry, histogram
/// shape, quarantine lists, and — for full reports — the timing section.
///
/// # Errors
///
/// The first schema violation found, as a human-readable message.
pub fn validate_report(input: &str) -> Result<(), String> {
    let root = parse(input)?;

    // No key of the trace schema is ever legitimately null — but the
    // writer clamps non-finite numbers to `null` (JSON has no NaN/inf),
    // so a NaN metric would otherwise sail through any check that only
    // looks for *missing* keys. Reject nulls up front, with the path.
    if let Some(path) = first_null(&root, String::new()) {
        return Err(format!(
            "null value at '{path}' — a non-finite number was clamped by the writer"
        ));
    }

    let schema = root.get("schema").ok_or("missing 'schema'")?;
    let name = schema
        .get("name")
        .and_then(JsonValue::as_str)
        .ok_or("missing 'schema.name'")?;
    if name != SCHEMA_NAME {
        return Err(format!("schema.name is '{name}', expected '{SCHEMA_NAME}'"));
    }
    let version = schema
        .get("version")
        .and_then(JsonValue::as_u64)
        .ok_or("missing 'schema.version'")?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "schema.version is {version}, this validator understands {SCHEMA_VERSION}"
        ));
    }

    root.get("tool")
        .and_then(JsonValue::as_str)
        .ok_or("missing 'tool'")?;
    let deterministic = match root.get("deterministic") {
        Some(JsonValue::Bool(b)) => *b,
        _ => return Err("missing 'deterministic'".into()),
    };

    let phases = root
        .get("phases")
        .and_then(JsonValue::as_array)
        .ok_or("missing 'phases'")?;
    for phase in phases {
        validate_phase(phase)?;
    }

    let totals = root.get("totals").ok_or("missing 'totals'")?;
    validate_counters(totals.get("counters").ok_or("missing 'totals.counters'")?)?;

    match root.get("timing") {
        None if deterministic => {}
        None => return Err("full report is missing 'timing'".into()),
        Some(_) if deterministic => {
            return Err("deterministic report must not contain 'timing'".into())
        }
        Some(timing) => validate_timing(timing, phases.len())?,
    }
    Ok(())
}

/// Depth-first search for the first `null` in a document, returning its
/// dotted path (array indices in brackets) when found.
fn first_null(value: &JsonValue, path: String) -> Option<String> {
    match value {
        JsonValue::Null => Some(if path.is_empty() {
            "<root>".into()
        } else {
            path
        }),
        JsonValue::Array(items) => items
            .iter()
            .enumerate()
            .find_map(|(i, v)| first_null(v, format!("{path}[{i}]"))),
        JsonValue::Object(members) => members.iter().find_map(|(k, v)| {
            let sub = if path.is_empty() {
                k.clone()
            } else {
                format!("{path}.{k}")
            };
            first_null(v, sub)
        }),
        _ => None,
    }
}

fn validate_phase(phase: &JsonValue) -> Result<(), String> {
    let name = phase
        .get("name")
        .and_then(JsonValue::as_str)
        .ok_or("phase missing 'name'")?;
    validate_counters(
        phase
            .get("counters")
            .ok_or_else(|| format!("phase '{name}' missing 'counters'"))?,
    )?;
    let hists = phase
        .get("histograms")
        .and_then(JsonValue::as_object)
        .ok_or_else(|| format!("phase '{name}' missing 'histograms'"))?;
    for (hname, h) in hists {
        let buckets = h
            .get("buckets")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("histogram '{hname}' missing 'buckets'"))?;
        if buckets.len() != HISTOGRAM_BUCKETS {
            return Err(format!(
                "histogram '{hname}' has {} buckets, expected {HISTOGRAM_BUCKETS}",
                buckets.len()
            ));
        }
        for b in buckets {
            b.as_u64()
                .ok_or_else(|| format!("histogram '{hname}' has a non-integer bucket"))?;
        }
        h.get("count")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("histogram '{hname}' missing 'count'"))?;
        h.get("sum")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("histogram '{hname}' missing 'sum'"))?;
    }
    let quarantined = phase
        .get("quarantined")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("phase '{name}' missing 'quarantined'"))?;
    for q in quarantined {
        q.as_u64()
            .ok_or_else(|| format!("phase '{name}' has a non-integer quarantine index"))?;
    }
    Ok(())
}

fn validate_counters(counters: &JsonValue) -> Result<(), String> {
    let members = counters.as_object().ok_or("'counters' is not an object")?;
    let expected: Vec<&str> = CounterId::ALL.iter().map(|c| c.name()).collect();
    let got: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    if got != expected {
        return Err(format!(
            "counter keys {got:?} do not match the registry {expected:?}"
        ));
    }
    for (k, v) in members {
        v.as_u64()
            .ok_or_else(|| format!("counter '{k}' is not a non-negative integer"))?;
    }
    Ok(())
}

fn validate_timing(timing: &JsonValue, n_phases: usize) -> Result<(), String> {
    let phases = timing
        .get("phases")
        .and_then(JsonValue::as_array)
        .ok_or("'timing' missing 'phases'")?;
    if phases.len() != n_phases {
        return Err(format!(
            "timing has {} phases, report has {n_phases}",
            phases.len()
        ));
    }
    for phase in phases {
        let name = phase
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("timing phase missing 'name'")?;
        phase
            .get("wall_s")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("timing phase '{name}' missing 'wall_s'"))?;
        let workers = phase
            .get("workers")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("timing phase '{name}' missing 'workers'"))?;
        for w in workers {
            for key in ["worker", "items", "breakpoints"] {
                w.get(key)
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| format!("worker entry missing '{key}'"))?;
            }
            w.get("busy_s")
                .and_then(JsonValue::as_f64)
                .ok_or("worker entry missing 'busy_s'")?;
        }
    }
    let spans = timing
        .get("spans")
        .and_then(JsonValue::as_array)
        .ok_or("'timing' missing 'spans'")?;
    for span in spans {
        validate_span(span)?;
    }
    Ok(())
}

fn validate_span(span: &JsonValue) -> Result<(), String> {
    span.get("name")
        .and_then(JsonValue::as_str)
        .ok_or("span missing 'name'")?;
    span.get("wall_s")
        .and_then(JsonValue::as_f64)
        .ok_or("span missing 'wall_s'")?;
    let children = span
        .get("children")
        .and_then(JsonValue::as_array)
        .ok_or("span missing 'children'")?;
    for child in children {
        validate_span(child)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let text = r#"{"a": [1, 2.5, -3], "b": {"c": "x\n\"y\"", "d": [true, false, null]}}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("b").unwrap().get("c").unwrap().as_str().unwrap(),
            "x\n\"y\""
        );
        let pretty = v.to_pretty();
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn compact_form_is_one_line_and_round_trips() {
        let text = r#"{"a": [1, 2.5, -3], "b": {"c": "x\n\"y\"", "d": [true, false, null]}, "e": [], "f": {}}"#;
        let v = parse(text).unwrap();
        let compact = v.to_compact();
        assert!(!compact.contains('\n'), "compact form must be one line");
        assert!(!compact.contains(": "), "no pretty separators");
        assert_eq!(parse(&compact).unwrap(), v);
        assert_eq!(
            JsonValue::Array(vec![]).to_compact(),
            "[]",
            "empty array compact form"
        );
    }

    #[test]
    fn long_strings_with_multibyte_text_and_escapes_round_trip() {
        let long: String = (0..20_000)
            .map(|i| match i % 7 {
                0 => "Ω≤ ",
                1 => "\"q\"",
                2 => "a\\b",
                3 => "\n",
                4 => "→\u{1F600}",
                5 => "\u{8}\u{c}\t\r",
                _ => "plain text ",
            })
            .collect();
        let v = JsonValue::Object(vec![("design".into(), JsonValue::String(long.clone()))]);
        let parsed = parse(&v.to_compact()).unwrap();
        assert_eq!(
            parsed.get("design").and_then(JsonValue::as_str),
            Some(&long[..])
        );
        assert_eq!(parse(&v.to_pretty()).unwrap(), v);
        assert_eq!(
            parse(r#""éx\/y""#).unwrap(),
            JsonValue::String("éx/y".into())
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "nul", "1 2", "\"abc"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn number_edge_cases() {
        assert_eq!(parse("0.5").unwrap().as_f64(), Some(0.5));
        assert_eq!(parse("-7").unwrap().as_f64(), Some(-7.0));
        assert_eq!(parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("-7").unwrap().as_u64(), None);
        assert_eq!(parse("0.5").unwrap().as_u64(), None);
        let mut s = String::new();
        write_number(&mut s, f64::NAN);
        assert_eq!(s, "null");
    }

    #[test]
    fn validator_flags_null_clamped_numerics_with_their_path() {
        // Build a valid deterministic report, then corrupt one numeric
        // leaf the way the writer would for a NaN (clamp to null).
        let mut phase = crate::PhaseTrace::new("mc");
        phase.counters.add(CounterId::McTrials, 4);
        let mut report = crate::TraceReport::new("t");
        report.push_phase(phase);
        let good = report.to_json(crate::TraceMode::Deterministic);
        validate_report(&good).unwrap();

        let bad = good.replacen("\"mc_trials\": 4", "\"mc_trials\": null", 1);
        let err = validate_report(&bad).unwrap_err();
        assert!(err.contains("null value at"), "{err}");
        assert!(err.contains("mc_trials"), "{err}");
        assert!(err.contains("non-finite"), "{err}");

        // Nulls inside arrays are located too: clamp the first bucket
        // of the first phase histogram in the parsed tree.
        let mut root = parse(&good).unwrap();
        if let JsonValue::Object(members) = &mut root {
            let phases = &mut members.iter_mut().find(|(k, _)| k == "phases").unwrap().1;
            if let JsonValue::Array(items) = phases {
                if let JsonValue::Object(phase) = &mut items[0] {
                    let hists = &mut phase.iter_mut().find(|(k, _)| k == "histograms").unwrap().1;
                    if let JsonValue::Object(hs) = hists {
                        if let JsonValue::Object(h) = &mut hs[0].1 {
                            let buckets =
                                &mut h.iter_mut().find(|(k, _)| k == "buckets").unwrap().1;
                            if let JsonValue::Array(b) = buckets {
                                b[0] = JsonValue::Null;
                            }
                        }
                    }
                }
            }
        }
        let err2 = validate_report(&root.to_pretty()).unwrap_err();
        assert!(err2.contains("buckets[0]"), "{err2}");
    }

    #[test]
    fn unicode_and_escape_round_trip() {
        let v = JsonValue::String("µ → \"x\"\t\u{1}".into());
        let text = v.to_pretty();
        assert_eq!(parse(&text).unwrap(), v);
        assert_eq!(parse("\"\\u00b5\"").unwrap().as_str().unwrap(), "µ");
    }

    /// The per-`char` escaping [`write_string`] replaced: the oracle its
    /// output must match byte for byte.
    fn write_string_per_char(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    #[test]
    fn run_copying_writer_matches_the_per_char_oracle() {
        // Every control byte, the two escaped printables, DEL and
        // multibyte UTF-8, alone, at both ends and inside long unescaped
        // runs.
        let mut alphabet: Vec<char> = (0u8..0x20).map(char::from).collect();
        alphabet.extend(['"', '\\', '\u{7f}', 'a', ' ', 'µ', '→', '😀', '\u{2028}']);
        let mut cases: Vec<String> = alphabet.iter().map(|c| c.to_string()).collect();
        let run = "mtk 1\ncircuit x".repeat(4096).replace('\n', " ");
        cases.push(run.clone());
        cases.push(format!("\"{run}\\"));
        cases.push(format!("µ{run}\u{1f}{run}😀"));
        // Seeded random strings (SplitMix64), mostly unescaped runs.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for _ in 0..500 {
            let len = (next() % 300) as usize;
            let s: String = (0..len)
                .map(|_| match next() % 4 {
                    0 => alphabet[(next() % alphabet.len() as u64) as usize],
                    _ => char::from(b'a' + (next() % 26) as u8),
                })
                .collect();
            cases.push(s);
        }
        for s in &cases {
            let (mut got, mut want) = (String::from("x"), String::from("x"));
            write_string(&mut got, s);
            write_string_per_char(&mut want, s);
            assert_eq!(got, want, "{s:?}");
            assert_eq!(parse(&got[1..]).unwrap().as_str(), Some(s.as_str()));
        }
    }
}
