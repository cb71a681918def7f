//! A minimal JSON parser and serializer.
//!
//! The build environment has no registry access, so instead of `serde` /
//! `serde_json` the JSON interface of [`crate::SchedulerConfig`] is
//! deserialized by hand from this parser's [`Json`] values. The grammar
//! is standard JSON (RFC 8259) minus `\u` surrogate-pair pedantry.
//! Integer numbers parse as [`Json::Int`]; fractional or exponent forms
//! parse as [`Json::Float`] (the configuration format itself only ever
//! uses integers, but the benchmark's run files carry fractional metric
//! values). The [`std::fmt::Display`] impl serializes a value back out
//! with two-space indentation.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer number (everything the config format uses).
    Int(i64),
    /// A fractional or exponent-form number (benchmark-report ratios).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order is irrelevant to every consumer, so a
    /// sorted map keeps serialization deterministic.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric payload of either number form.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Object(m) => Some(m),
            _ => None,
        }
    }
}

impl Json {
    /// Serializes on a single line with no whitespace — the framing the
    /// `polytopsd` line-delimited protocol requires (one JSON document
    /// per `\n`-terminated line). Escaping matches [`fmt::Display`], so
    /// `parse(&v.compact())` round-trips exactly like the pretty form,
    /// and objects still print in key order (deterministic output).
    pub fn compact(&self) -> String {
        fn value(out: &mut String, v: &Json) {
            match v {
                Json::Null | Json::Bool(_) | Json::Int(_) | Json::Float(_) | Json::Str(_) => {
                    // Scalars already print without newlines.
                    out.push_str(&v.to_string());
                }
                Json::Array(items) => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        value(out, item);
                    }
                    out.push(']');
                }
                Json::Object(map) => {
                    out.push('{');
                    for (i, (k, v)) in map.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(&Json::Str(k.clone()).to_string());
                        out.push(':');
                        value(out, v);
                    }
                    out.push('}');
                }
            }
        }
        let mut out = String::new();
        value(&mut out, self);
        out
    }
}

impl fmt::Display for Json {
    /// Serializes with two-space indentation and `\n` line ends; objects
    /// print in key order, so output is deterministic.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn indent(f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
            for _ in 0..depth {
                f.write_str("  ")?;
            }
            Ok(())
        }
        fn string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
            f.write_str("\"")?;
            for c in s.chars() {
                match c {
                    '"' => f.write_str("\\\"")?,
                    '\\' => f.write_str("\\\\")?,
                    '\n' => f.write_str("\\n")?,
                    '\r' => f.write_str("\\r")?,
                    '\t' => f.write_str("\\t")?,
                    c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                    c => write!(f, "{c}")?,
                }
            }
            f.write_str("\"")
        }
        fn value(f: &mut fmt::Formatter<'_>, v: &Json, depth: usize) -> fmt::Result {
            match v {
                Json::Null => f.write_str("null"),
                Json::Bool(b) => write!(f, "{b}"),
                Json::Int(n) => write!(f, "{n}"),
                Json::Float(x) if x.is_finite() => {
                    if x.fract() == 0.0 {
                        // Keep the value recognizably fractional so it
                        // round-trips as a Float.
                        write!(f, "{x:.1}")
                    } else {
                        write!(f, "{x}")
                    }
                }
                // JSON has no NaN/Infinity; degrade to null.
                Json::Float(_) => f.write_str("null"),
                Json::Str(s) => string(f, s),
                Json::Array(items) if items.is_empty() => f.write_str("[]"),
                Json::Array(items) => {
                    f.write_str("[\n")?;
                    for (i, item) in items.iter().enumerate() {
                        indent(f, depth + 1)?;
                        value(f, item, depth + 1)?;
                        f.write_str(if i + 1 < items.len() { ",\n" } else { "\n" })?;
                    }
                    indent(f, depth)?;
                    f.write_str("]")
                }
                Json::Object(map) if map.is_empty() => f.write_str("{}"),
                Json::Object(map) => {
                    f.write_str("{\n")?;
                    for (i, (k, v)) in map.iter().enumerate() {
                        indent(f, depth + 1)?;
                        string(f, k)?;
                        f.write_str(": ")?;
                        value(f, v, depth + 1)?;
                        f.write_str(if i + 1 < map.len() { ",\n" } else { "\n" })?;
                    }
                    indent(f, depth)?;
                    f.write_str("}")
                }
            }
        }
        value(f, self, 0)
    }
}

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
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
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad keyword at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        // RFC 8259 (and serde_json) forbid leading zeros: `0` is fine,
        // `007` is not.
        if self.pos - digits > 1 && self.bytes[digits] == b'0' {
            return Err(format!("number with leading zero at byte {start}"));
        }
        let mut fractional = false;
        if self.peek() == Some(b'.') {
            fractional = true;
            self.pos += 1;
            let frac = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac {
                return Err(format!("missing fraction digits at byte {start}"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            fractional = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp {
                return Err(format!("missing exponent digits at byte {start}"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        if fractional {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| format!("bad number `{text}`"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| format!("bad number `{text}`"))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        }
                        other => {
                            return Err(format!("bad escape `\\{}`", char::from(other)));
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    let c = rest.chars().next().expect("nonempty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            if map.insert(key.clone(), value).is_some() {
                // serde's deny_unknown_fields structs rejected duplicate
                // fields; keep that strictness.
                return Err(format!("duplicate field `{key}`"));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(out));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, -2, "x\n"], "b": {"c": true, "d": null}}"#).unwrap();
        let obj = v.as_object().unwrap();
        let a = obj["a"].as_array().unwrap();
        assert_eq!(a[0].as_int(), Some(1));
        assert_eq!(a[1].as_int(), Some(-2));
        assert_eq!(a[2].as_str(), Some("x\n"));
        assert_eq!(obj["b"].as_object().unwrap()["c"].as_bool(), Some(true));
        assert_eq!(obj["b"].as_object().unwrap()["d"], Json::Null);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a": }"#).is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("1.").is_err());
        assert!(parse("1e").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse(r#"{"a": 1, "a": 2}"#).is_err());
    }

    #[test]
    fn fractional_numbers_parse_as_floats() {
        assert_eq!(parse("1.5").unwrap(), Json::Float(1.5));
        assert_eq!(parse("-0.25").unwrap(), Json::Float(-0.25));
        assert_eq!(parse("2e3").unwrap(), Json::Float(2000.0));
        assert_eq!(parse("1.5").unwrap().as_f64(), Some(1.5));
        assert_eq!(parse("3").unwrap().as_f64(), Some(3.0));
        // Integers stay integers: the config interface depends on it.
        assert_eq!(parse("3").unwrap(), Json::Int(3));
    }

    #[test]
    fn display_round_trips() {
        let doc = r#"{"a": [1, -2.5, "x\n"], "b": {"c": true, "d": null}, "e": []}"#;
        let v = parse(doc).unwrap();
        let printed = v.to_string();
        assert_eq!(parse(&printed).unwrap(), v);
        // Whole-valued floats stay recognizably fractional.
        let v = Json::Float(2.0);
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn compact_is_single_line_and_round_trips() {
        let doc = r#"{"a": [1, -2.5, "x\n"], "b": {"c": true, "d": null}, "e": []}"#;
        let v = parse(doc).unwrap();
        let line = v.compact();
        assert!(!line.contains('\n'), "compact form must be one line");
        assert!(!line.contains(": "), "compact form has no padding");
        assert_eq!(parse(&line).unwrap(), v);
        assert_eq!(
            Json::Array(vec![Json::Int(1), Json::Str("x".into())]).compact(),
            r#"[1,"x"]"#
        );
    }

    #[test]
    fn rejects_leading_zero_integers() {
        // serde_json rejects these; the in-tree parser must too.
        assert!(parse("007").is_err());
        assert!(parse("-07").is_err());
        assert!(parse(r#"{"a": 012}"#).is_err());
        // A bare (possibly negative) zero is still fine.
        assert_eq!(parse("0").unwrap().as_int(), Some(0));
        assert_eq!(parse("-0").unwrap().as_int(), Some(0));
        assert_eq!(parse("10").unwrap().as_int(), Some(10));
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = parse(r#""A\t""#).unwrap();
        assert_eq!(v.as_str(), Some("A\t"));
    }
}
