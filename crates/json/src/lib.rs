//! # nilm_json
//!
//! Minimal, dependency-free JSON for the CamAL reproduction: a deterministic
//! emitter, a strict RFC 8259 validator, and a full parser producing
//! [`JsonValue`] trees.
//!
//! The vendored `serde` stand-in carries no data model (the offline build
//! cannot pull `serde_json`), so every machine-readable artifact of this
//! workspace flows through this crate instead: the serving reports are
//! written with [`JsonValue::to_pretty`] and re-read through [`validate`],
//! while the network gateway (`nilm_serve`) parses request bodies with
//! [`parse`] and emits responses with [`JsonValue::to_compact`]. Objects
//! keep sorted keys, so emission is deterministic and byte-stable —
//! reports diff cleanly and gateway responses can be compared bit-for-bit
//! against locally computed expectations.
//!
//! ## Round-tripping
//!
//! Numbers are emitted with Rust's shortest-roundtrip `f64` formatting and
//! parsed with `str::parse::<f64>`, so `parse(&x.to_pretty()) == Ok(x)` for
//! every tree whose numbers are finite (non-finite numbers are emitted as
//! `null`, which JSON cannot represent otherwise). The property tests pin
//! this round-trip.
//!
//! ```
//! use nilm_json::{parse, JsonValue};
//!
//! let doc = JsonValue::object([
//!     ("requests", JsonValue::Number(128.0)),
//!     ("ok", JsonValue::Bool(true)),
//! ]);
//! let text = doc.to_pretty();
//! assert_eq!(parse(&text).unwrap(), doc);
//! assert_eq!(doc.get("requests").and_then(JsonValue::as_f64), Some(128.0));
//! ```

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value. Objects use a [`BTreeMap`], so emission is deterministic
/// (stable key order) — diffs of committed baselines stay readable.
#[derive(Clone, Debug)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values are emitted as `null`).
    Number(f64),
    /// A string.
    String(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An object with sorted keys.
    Object(BTreeMap<String, JsonValue>),
}

impl PartialEq for JsonValue {
    /// Structural equality; numbers compare by bit pattern, so `-0.0` and
    /// `0.0` are distinct and round-trip checks are exact.
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (JsonValue::Null, JsonValue::Null) => true,
            (JsonValue::Bool(a), JsonValue::Bool(b)) => a == b,
            (JsonValue::Number(a), JsonValue::Number(b)) => a.to_bits() == b.to_bits(),
            (JsonValue::String(a), JsonValue::String(b)) => a == b,
            (JsonValue::Array(a), JsonValue::Array(b)) => a == b,
            (JsonValue::Object(a), JsonValue::Object(b)) => a == b,
            _ => false,
        }
    }
}

impl JsonValue {
    /// Builds an object from key/value pairs.
    pub fn object(pairs: impl IntoIterator<Item = (&'static str, JsonValue)>) -> JsonValue {
        JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Serializes with two-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serializes without any whitespace — the wire format of the gateway.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Looks up `key` when `self` is an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as a finite number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer (rejects fractional numbers).
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= usize::MAX as f64 => {
                Some(*n as usize)
            }
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

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
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

    /// The value as an object map, if it is one.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(map) => Some(map),
            _ => None,
        }
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            JsonValue::Number(n) => write_number(out, *n),
            JsonValue::String(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    let _ = write!(out, "{pad}  ");
                    item.write(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{pad}]");
            }
            JsonValue::Object(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in map.iter().enumerate() {
                    let _ = write!(out, "{pad}  ");
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    out.push_str(if i + 1 < map.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{pad}}}");
            }
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            JsonValue::Number(n) => write_number(out, *n),
            JsonValue::String(s) => write_escaped(out, s),
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
            JsonValue::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }
}

/// Largest magnitude below which every integral `f64` is exact (2^53).
const EXACT_INT_LIMIT: f64 = 9_007_199_254_740_992.0;

/// Emits `n` exactly as `write!("{n}")` would, or `null` when it is not
/// finite. Integral values below 2^53 in magnitude (all but `-0.0`, which
/// `Display` writes as `-0`) take a digit loop instead of the float
/// formatter: for them `Display` prints the plain decimal integer, so the
/// bytes are the same and most numbers of a localize response (0/1
/// statuses, whole watts) skip the formatter entirely.
fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
        return;
    }
    if n.abs() < EXACT_INT_LIMIT && n.trunc() == n && !(n == 0.0 && n.is_sign_negative()) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut v = n.abs() as u64;
        loop {
            at -= 1;
            digits[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        if n < 0.0 {
            out.push('-');
        }
        out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
        return;
    }
    let _ = write!(out, "{n}");
}

fn write_escaped(out: &mut String, s: &str) {
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

/// Maximum array/object nesting depth [`parse`] accepts. The parser
/// recurses per nesting level, and the gateway feeds it untrusted request
/// bodies — without a cap, a few kilobytes of `[[[[...` would overflow
/// the parsing thread's stack and abort the whole process.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document (with nothing but whitespace after it) into a
/// [`JsonValue`]. Duplicate object keys keep the last occurrence;
/// documents nested deeper than [`MAX_DEPTH`] are rejected. Errors carry
/// the byte offset of the first problem.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

/// Checks that `input` is one syntactically valid JSON document (with
/// nothing but whitespace after it). Returns the byte offset of the first
/// error otherwise.
pub fn validate(input: &str) -> Result<(), String> {
    parse(input).map(|_| ())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match b.get(*pos) {
        None => Err(format!("unexpected end of input at byte {pos}")),
        Some(b'{') => parse_object(b, pos, depth),
        Some(b'[') => parse_array(b, pos, depth),
        Some(b'"') => parse_string(b, pos).map(JsonValue::String),
        Some(b't') => parse_lit(b, pos, b"true").map(|_| JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, b"false").map(|_| JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, b"null").map(|_| JsonValue::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte {c:#x} at {pos}")),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    *pos += 1; // opening quote
    let mut out = String::new();
    // Start of the current run of plain (unescaped) bytes, copied en bloc.
    let mut run = *pos;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                out.push_str(plain_run(b, run, *pos));
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                out.push_str(plain_run(b, run, *pos));
                let esc = b.get(*pos + 1).copied();
                match esc {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = parse_hex4(b, *pos + 2)
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        if (0xD800..0xDC00).contains(&hi) {
                            // High surrogate: must be followed by \uDCxx.
                            if b.get(*pos + 6) == Some(&b'\\') && b.get(*pos + 7) == Some(&b'u') {
                                let lo = parse_hex4(b, *pos + 8)
                                    .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(format!("unpaired surrogate at byte {pos}"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                out.push(
                                    char::from_u32(cp)
                                        .ok_or_else(|| format!("bad code point at byte {pos}"))?,
                                );
                                *pos += 12;
                                run = *pos;
                                continue;
                            }
                            return Err(format!("unpaired surrogate at byte {pos}"));
                        }
                        if (0xDC00..0xE000).contains(&hi) {
                            return Err(format!("unpaired surrogate at byte {pos}"));
                        }
                        out.push(
                            char::from_u32(hi)
                                .ok_or_else(|| format!("bad code point at byte {pos}"))?,
                        );
                        *pos += 6;
                        run = *pos;
                        continue;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 2;
                run = *pos;
            }
            c if c < 0x20 => return Err(format!("raw control byte in string at {pos}")),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

/// The input slice `[start, end)` as UTF-8 (always valid: the input is a
/// `&str` and the run contains no escape or quote bytes).
fn plain_run(b: &[u8], start: usize, end: usize) -> &str {
    std::str::from_utf8(&b[start..end]).expect("input is valid UTF-8")
}

fn parse_hex4(b: &[u8], at: usize) -> Option<u32> {
    let h = b.get(at..at + 4)?;
    let mut v = 0u32;
    for &d in h {
        v = v * 16 + (d as char).to_digit(16)?;
    }
    Some(v)
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let first_digit = b.get(*pos).copied();
    let int_digits = eat_digits(b, pos);
    if int_digits == 0 {
        return Err(format!("number without digits at byte {start}"));
    }
    // RFC 8259: int = zero / ( digit1-9 *DIGIT ) — no leading zeros.
    if int_digits > 1 && first_digit == Some(b'0') {
        return Err(format!("leading zero in number at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if eat_digits(b, pos) == 0 {
            return Err(format!("missing fraction digits at byte {pos}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if eat_digits(b, pos) == 0 {
            return Err(format!("missing exponent digits at byte {pos}"));
        }
    }
    let text = plain_run(b, start, *pos);
    let n: f64 = text.parse().map_err(|_| format!("unrepresentable number at byte {start}"))?;
    Ok(JsonValue::Number(n))
}

fn eat_digits(b: &[u8], pos: &mut usize) -> usize {
    let start = *pos;
    while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
        *pos += 1;
    }
    *pos - start
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *pos += 1; // '['
    skip_ws(b, pos);
    let mut items = Vec::new();
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(b, pos, depth + 1)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => {
                *pos += 1;
                skip_ws(b, pos);
            }
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *pos += 1; // '{'
    skip_ws(b, pos);
    let mut map = BTreeMap::new();
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(map));
    }
    loop {
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}"));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        skip_ws(b, pos);
        let value = parse_value(b, pos, depth + 1)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => {
                *pos += 1;
                skip_ws(b, pos);
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitted_documents_validate() {
        let doc = JsonValue::object([
            ("name", JsonValue::String("bench \"x\"\n".into())),
            ("speedup", JsonValue::Number(3.25)),
            ("ok", JsonValue::Bool(true)),
            ("items", JsonValue::Array(vec![JsonValue::Number(1.0), JsonValue::Null])),
            ("empty", JsonValue::Object(BTreeMap::new())),
        ]);
        let text = doc.to_pretty();
        validate(&text).expect("emitted JSON must parse");
        assert_eq!(parse(&text).unwrap(), doc);
        assert_eq!(parse(&doc.to_compact()).unwrap(), doc);
    }

    #[test]
    fn validator_accepts_rfc_examples() {
        for ok in [
            "null",
            " true ",
            "-12.5e+3",
            "[]",
            "[1, 2, [3]]",
            r#"{"a": {"b": [1, "two", null]}, "c": false}"#,
            r#""esc: \" \\ \n é""#,
        ] {
            validate(ok).unwrap_or_else(|e| panic!("{ok:?} rejected: {e}"));
        }
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "01a",
            "01",
            "-012.5",
            "\"unterminated",
            "{\"a\": 1} extra",
            "nul",
            "1. ",
            "\"\\ud800\"",
            "\"\\udc00 lone low\"",
            "\"\\ud800\\u0061\"",
            "\"bad \\x escape\"",
        ] {
            assert!(validate(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn parser_decodes_escapes_and_surrogate_pairs() {
        let v = parse(r#""a\u0041 \ud83d\ude00 \n\t\/ \"q\"""#).unwrap();
        assert_eq!(v.as_str(), Some("aA 😀 \n\t/ \"q\""));
        let v = parse("[-0.5e2, 0, 1e-3]").unwrap();
        let nums: Vec<f64> = v.as_array().unwrap().iter().map(|n| n.as_f64().unwrap()).collect();
        assert_eq!(nums, vec![-50.0, 0.0, 0.001]);
    }

    #[test]
    fn duplicate_keys_keep_the_last_occurrence() {
        let v = parse(r#"{"a": 1, "a": 2}"#).unwrap();
        assert_eq!(v.get("a").and_then(JsonValue::as_f64), Some(2.0));
    }

    #[test]
    fn accessors_select_the_right_variants() {
        let doc = parse(r#"{"n": 3, "s": "x", "b": true, "a": [1], "o": {}, "z": null}"#).unwrap();
        assert_eq!(doc.get("n").and_then(JsonValue::as_usize), Some(3));
        assert_eq!(doc.get("s").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(doc.get("b").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(doc.get("a").and_then(JsonValue::as_array).map(<[_]>::len), Some(1));
        assert!(doc.get("o").and_then(JsonValue::as_object).is_some());
        assert!(doc.get("z").is_some_and(JsonValue::is_null));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(parse("2.5").unwrap().as_usize(), None, "fractional is not an index");
        assert_eq!(parse("-1").unwrap().as_usize(), None, "negative is not an index");
    }

    #[test]
    fn hostile_nesting_is_rejected_not_a_stack_overflow() {
        // Untrusted gateway bodies reach this parser; a depth bomb must be
        // a parse error, never a process-aborting stack overflow.
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let deep = format!("{}1{}", open.repeat(100_000), close.repeat(100_000));
            let err = parse(&deep).expect_err("depth bomb must be rejected");
            assert!(err.contains("nesting"), "{err}");
        }
        // ... while legitimate nesting under the cap still parses.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        parse(&ok).expect("nesting at the cap is fine");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let doc = JsonValue::Number(f64::NAN);
        assert_eq!(doc.to_pretty(), "null\n");
        assert_eq!(doc.to_compact(), "null");
    }
}
