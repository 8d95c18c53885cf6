//! `minijson` — a small, dependency-free JSON tree: parse, build, write.
//!
//! The workspace builds hermetically (no network, no registry), so instead
//! of `serde_json` the trace/export/benchmark paths use this crate. It
//! covers exactly what simulation tooling needs:
//!
//! * a [`Value`] tree with order-preserving objects (stable output diffs),
//! * a strict parser with byte-offset error reporting,
//! * compact ([`Value::to_string`]) and pretty ([`Value::pretty`]) writers,
//! * `serde_json`-style indexing: `v["bins"][1]["size"].as_u64()`.
//!
//! Numbers are stored as `f64`. Integers up to 2^53 round-trip exactly —
//! nanosecond timestamps, byte counts, and event counters in this repo all
//! fit (2^53 ns is ~104 days of simulated time); the writer emits them
//! without a fractional part.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (unescaped form).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved on write.
    Obj(Vec<(String, Value)>),
}

/// Build an object from `(key, value)` pairs, preserving order.
pub fn obj<I>(pairs: I) -> Value
where
    I: IntoIterator<Item = (&'static str, Value)>,
{
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Build an array from anything convertible to [`Value`].
pub fn arr<T: Into<Value>, I: IntoIterator<Item = T>>(items: I) -> Value {
    Value::Arr(items.into_iter().map(Into::into).collect())
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Num(n)
    }
}
impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Num(n as f64)
    }
}
impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Num(n as f64)
    }
}
impl From<u32> for Value {
    fn from(n: u32) -> Self {
        Value::Num(n as f64)
    }
}
impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Num(n as f64)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(o: Option<T>) -> Self {
        o.map_or(Value::Null, Into::into)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        arr(v)
    }
}

static NULL: Value = Value::Null;

impl Value {
    /// `true` for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The member list, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(v) => Some(v),
            _ => None,
        }
    }

    /// Object member lookup; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array element lookup; `None` when out of range or not an array.
    pub fn idx(&self, i: usize) -> Option<&Value> {
        match self {
            Value::Arr(v) => v.get(i),
            _ => None,
        }
    }

    /// Parse a JSON document. The whole input must be one value (plus
    /// whitespace); trailing garbage is an error.
    pub fn parse(input: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// Pretty-print with two-space indentation and a trailing newline-free
    /// body, like `serde_json::to_string_pretty`.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(n) => write_number(out, *n),
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent.map(|d| d + 1));
                    item.write(out, indent.map(|d| d + 1));
                }
                newline_indent(out, indent);
                out.push(']');
            }
            Value::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent.map(|d| d + 1));
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent.map(|d| d + 1));
                }
                newline_indent(out, indent);
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Value {
    /// Compact serialization (no whitespace).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    /// Member access; missing keys yield `Null` (like `serde_json`).
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    /// Element access; out-of-range yields `Null` (like `serde_json`).
    fn index(&self, i: usize) -> &Value {
        self.idx(i).unwrap_or(&NULL)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>) {
    if let Some(depth) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no Inf/NaN; null is the conventional fallback.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        // Integral and exactly representable: print without ".0" so
        // counters and byte sizes look like integers.
        let _ = fmt::write(out, format_args!("{}", n as i64));
    } else {
        let _ = fmt::write(out, format_args!("{n}"));
    }
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
                let _ = fmt::write(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: what went wrong and the byte offset where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_owned(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
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
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: JSON escapes astral-plane
                            // characters as two \u units.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid unicode escape"))?);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so this is
                    // always a valid boundary walk).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .expect("input was a valid &str"),
                    );
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number chars are ASCII");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_compact() {
        let v = obj([
            ("name", Value::from("incast")),
            ("n", Value::from(42u64)),
            ("ratio", Value::from(0.5)),
            ("ok", Value::from(true)),
            ("none", Value::from(Option::<u64>::None)),
            ("xs", arr([1u64, 2, 3])),
        ]);
        let text = v.to_string();
        assert_eq!(
            text,
            r#"{"name":"incast","n":42,"ratio":0.5,"ok":true,"none":null,"xs":[1,2,3]}"#
        );
        assert_eq!(Value::parse(&text).unwrap(), v);
    }

    #[test]
    fn pretty_output_is_indented_and_parseable() {
        let v = obj([("a", arr([1u64])), ("b", Value::Obj(vec![]))]);
        let text = v.pretty();
        assert_eq!(text, "{\n  \"a\": [\n    1\n  ],\n  \"b\": {}\n}");
        assert_eq!(Value::parse(&text).unwrap(), v);
    }

    #[test]
    fn indexing_mirrors_serde_json() {
        let v = Value::parse(r#"{"bins":[{"size":1000},{"size":2000000}]}"#).unwrap();
        assert_eq!(v["bins"][1]["size"].as_u64(), Some(2_000_000));
        assert!(v["missing"].is_null());
        assert!(v["bins"][9].is_null());
    }

    #[test]
    fn integers_round_trip_exactly() {
        for n in [0u64, 1, 2_000_000, (1 << 53) - 1] {
            let text = Value::from(n).to_string();
            assert_eq!(text, n.to_string());
            assert_eq!(Value::parse(&text).unwrap().as_u64(), Some(n));
        }
        assert_eq!(Value::from(-5i64).to_string(), "-5");
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "quote\" back\\ newline\n tab\t unicode\u{1F600}control\u{1}";
        let text = Value::from(s).to_string();
        let back = Value::parse(&text).unwrap();
        assert_eq!(back.as_str(), Some(s));
    }

    #[test]
    fn parses_unicode_escapes_and_surrogates() {
        assert_eq!(
            Value::parse(r#""A😀""#).unwrap().as_str(),
            Some("A\u{1F600}")
        );
        assert!(Value::parse(r#""\uD83D""#).is_err());
    }

    #[test]
    fn scientific_notation_parses() {
        assert_eq!(Value::parse("1.5e3").unwrap().as_f64(), Some(1500.0));
        assert_eq!(Value::parse("-2E-2").unwrap().as_f64(), Some(-0.02));
    }

    #[test]
    fn errors_carry_offsets_not_panics() {
        assert!(Value::parse("not json").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("{\"a\":1").is_err());
        assert!(Value::parse("[1] trailing").is_err());
        let err = Value::parse("[1, @]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("byte 4"));
    }

    #[test]
    fn whitespace_everywhere_is_fine() {
        let v = Value::parse(" {\n \"a\" : [ 1 , 2 ] ,\t\"b\" : null } ").unwrap();
        assert_eq!(v["a"][1].as_u64(), Some(2));
        assert!(v["b"].is_null());
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        assert_eq!(Value::from(f64::NAN).to_string(), "null");
        assert_eq!(Value::from(f64::INFINITY).to_string(), "null");
    }
}
