//! Minimal JSON for the line protocol.
//!
//! The workspace builds offline with no serialization crate, so the
//! network layer carries its own tiny JSON value type, parser, and
//! writer. It supports exactly what the protocol
//! needs: objects, arrays, finite numbers, strings with the standard
//! escapes, booleans, and `null`.
//!
//! **Float exactness.** Token values are `f32`s and the loopback test
//! pins *bitwise* equality through the protocol, so the encoding must
//! round-trip every finite `f32` exactly. Numbers are written with Rust's
//! shortest-round-trip `Display` (an `f32` widened to `f64` is exact, and
//! the shortest decimal form of that `f64` re-parses to the identical
//! `f64`, which narrows back to the identical `f32`). The unit tests
//! sweep random bit patterns to pin this.

use std::fmt::Write as _;

/// A parsed JSON value. Objects preserve insertion order and are scanned
/// linearly — protocol frames are small.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also how non-finite floats are written).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer (rejects fractions).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// An array of numbers narrowed to `f32` (the query/token row shape).
    pub fn as_f32s(&self) -> Option<Vec<f32>> {
        match self {
            Json::Arr(items) => items.iter().map(|v| v.as_f64().map(|n| n as f32)).collect(),
            _ => None,
        }
    }
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub pos: usize,
    /// What was expected.
    pub msg: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON value, requiring it to span the whole input (modulo
/// surrounding whitespace) — exactly one frame per line.
pub fn parse(s: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        b: s.as_bytes(),
        i: 0,
    };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(p.err("trailing characters after the value"));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> JsonError {
        JsonError { pos: self.i, msg }
    }

    fn ws(&mut self) {
        while let Some(&c) = self.b.get(self.i) {
            if c == b' ' || c == b'\t' || c == b'\n' || c == b'\r' {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, c: u8, msg: &'static str) -> Result<(), JsonError> {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self
            .b
            .get(self.i..)
            .unwrap_or_default()
            .starts_with(word.as_bytes())
        {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.b.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.eat(b':', "expected ':' after object key")?;
            self.ws();
            let val = self.value()?;
            fields.push((key, val));
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            // BMP only (no surrogate pairs); the protocol
                            // never emits them.
                            out.push(
                                char::from_u32(hex)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                            self.i += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 passes through verbatim.
                    let start = self.i;
                    self.i += 1;
                    while matches!(self.b.get(self.i), Some(c) if (c & 0xC0) == 0x80) {
                        self.i += 1;
                    }
                    let s = std::str::from_utf8(self.b.get(start..self.i).unwrap_or_default())
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        while matches!(
            self.b.get(self.i),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.i += 1;
        }
        // The scanned token is pure ASCII, so from_utf8 cannot fail;
        // an empty fallback just reports "invalid number" below.
        let s = std::str::from_utf8(self.b.get(start..self.i).unwrap_or_default()).unwrap_or("");
        let n: f64 = s.parse().map_err(|_| self.err("invalid number"))?;
        if !n.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(Json::Num(n))
    }
}

/// Appends the JSON encoding of `v` to `out`.
pub fn write(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(n) => push_f64(*n, out),
        Json::Str(s) => push_escaped(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_escaped(k, out);
                out.push(':');
                write(val, out);
            }
            out.push('}');
        }
    }
}

/// The JSON encoding of `v` as a fresh string.
pub fn to_string(v: &Json) -> String {
    let mut s = String::new();
    write(v, &mut s);
    s
}

/// Appends a number using shortest-round-trip `Display`; non-finite
/// values (unrepresentable in JSON) are written as `null`.
pub fn push_f64(n: f64, out: &mut String) {
    if n.is_finite() {
        let _ = write!(out, "{n}");
    } else {
        out.push_str("null");
    }
}

/// Appends an `f32` exactly (shortest decimal form that re-parses to the
/// identical bits); non-finite values become `null`.
pub fn push_f32(v: f32, out: &mut String) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Appends `s` as a quoted, escaped JSON string.
pub fn push_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_protocol_shaped_frame() {
        let v = parse(
            r#"{"verb":"submit","ctx":0,"tenant":7,"query":[0.5,-1.25e2],"gen_tokens":3,"stream":true,"note":"a\"b\\c\nd"}"#,
        )
        .expect("parse");
        assert_eq!(v.get("verb").and_then(Json::as_str), Some("submit"));
        assert_eq!(v.get("tenant").and_then(Json::as_u64), Some(7));
        assert_eq!(
            v.get("query").and_then(Json::as_f32s),
            Some(vec![0.5, -125.0])
        );
        assert_eq!(v.get("stream").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("note").and_then(Json::as_str), Some("a\"b\\c\nd"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn round_trips_through_the_writer() {
        let src = r#"{"a":[1,2.5,null,true,false],"b":{"c":"x y"},"d":-0.125}"#;
        let v = parse(src).expect("parse");
        assert_eq!(to_string(&v), src);
    }

    #[test]
    fn rejects_malformed_frames() {
        for bad in [
            "",
            "{",
            "{\"a\"}",
            "[1,]",
            "{\"a\":1} extra",
            "\"unterminated",
            "nul",
            "1e999",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input {bad:?}");
        }
    }

    #[test]
    fn f32_round_trip_is_bitwise_exact() {
        // Sweep pseudo-random bit patterns: every finite f32 must survive
        // value -> shortest decimal -> f64 parse -> f32 narrow exactly.
        let mut x = 0x2545F491u32;
        let mut tested = 0;
        while tested < 20_000 {
            // xorshift32
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let v = f32::from_bits(x);
            if !v.is_finite() {
                continue;
            }
            tested += 1;
            let mut s = String::new();
            push_f32(v, &mut s);
            let back = parse(&s).expect("number parses").as_f64().expect("number") as f32;
            assert_eq!(
                back.to_bits(),
                v.to_bits(),
                "f32 {v:?} (bits {x:#x}) did not round-trip via {s:?}"
            );
        }
        // The usual suspects, explicitly.
        for v in [
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            f32::MIN,
            f32::MAX,
            f32::MIN_POSITIVE,
            f32::EPSILON,
            1.0e-40, // subnormal
            0.1,
            std::f32::consts::PI,
        ] {
            let mut s = String::new();
            push_f32(v, &mut s);
            let back = parse(&s).expect("parses").as_f64().expect("number") as f32;
            assert_eq!(back.to_bits(), v.to_bits(), "{v:?} via {s:?}");
        }
    }

    #[test]
    fn non_finite_floats_write_as_null() {
        let mut s = String::new();
        push_f32(f32::NAN, &mut s);
        assert_eq!(s, "null");
        let mut s = String::new();
        push_f64(f64::INFINITY, &mut s);
        assert_eq!(s, "null");
    }
}
