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
//! with two-space indentation; [`Json::compact`] writes the one-line
//! form of the `polytopsd` wire protocol.
//!
//! **Both directions are linear in their bytes.** [`parse`] looks at
//! every input byte a bounded number of times: a string body is copied
//! as whole runs between its `"` / `\` delimiters, which are ASCII and
//! so always end a run on a char boundary of the already-validated
//! `&str` — nothing is re-validated. The serializer writes every value
//! straight into one output, and both printed forms share one string
//! escaper that copies unescaped runs whole, so the pretty and compact
//! forms cannot disagree on how a string is escaped. A request line at
//! the daemon's size limit therefore costs milliseconds, not minutes,
//! on the event-loop thread that parses it.
//!
//! **Nesting is bounded.** [`parse`] rejects a document whose arrays and
//! objects nest deeper than [`MAX_DEPTH`] levels, naming the bound in
//! its error; unbounded, a line of a few thousand `[` overflows the
//! stack of the thread that parses it. This is the one place the
//! accepted grammar is narrower than RFC 8259 (which lets a parser set
//! such a limit). The parser, both printers and the derived `Drop`,
//! `Clone` and `PartialEq` all recurse once per level, and none of them
//! needs an iterative form: `parse` is the only way outside text
//! becomes a [`Json`], so every value built from input is at most
//! `MAX_DEPTH` deep, and the values the program builds itself (the
//! `polytopsd` responses) nest far less.

use std::collections::btree_map::{BTreeMap, Entry};
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
    /// per `\n`-terminated line). Escaping is [`fmt::Display`]'s (one
    /// shared escaper), so `parse(&v.compact())` round-trips exactly
    /// like the pretty form, and objects still print in key order
    /// (deterministic output). Written in one pass into one `String`.
    pub fn compact(&self) -> String {
        let mut out = String::with_capacity(256);
        write_value(&mut out, self, None).expect("writing to a String cannot fail");
        out
    }
}

impl fmt::Display for Json {
    /// Serializes with two-space indentation and `\n` line ends; objects
    /// print in key order, so output is deterministic.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_value(f, self, Some(0))
    }
}

/// Writes `v` in the compact form (`depth` = `None`) or the pretty form
/// indented at `depth` — the one serializer behind [`Json::compact`] and
/// [`fmt::Display`].
fn write_value<W: fmt::Write>(w: &mut W, v: &Json, depth: Option<usize>) -> fmt::Result {
    match v {
        Json::Null => w.write_str("null"),
        Json::Bool(b) => w.write_str(if *b { "true" } else { "false" }),
        Json::Int(n) => write!(w, "{n}"),
        // Keep a whole-valued float recognizably fractional so it
        // round-trips as a Float.
        Json::Float(x) if x.is_finite() && x.fract() == 0.0 => write!(w, "{x:.1}"),
        Json::Float(x) if x.is_finite() => write!(w, "{x}"),
        // JSON has no NaN/Infinity; degrade to null.
        Json::Float(_) => w.write_str("null"),
        Json::Str(s) => write_string(w, s),
        Json::Array(items) => {
            write_container(w, ('[', ']'), items.iter().map(|v| (None, v)), depth)
        }
        Json::Object(map) => write_container(
            w,
            ('{', '}'),
            map.iter().map(|(k, v)| (Some(k.as_str()), v)),
            depth,
        ),
    }
}

/// Writes an array (entries without keys) or an object (entries with
/// keys). Empty containers print as `[]` / `{}` in both forms; the
/// pretty form puts every entry on its own line at `depth + 1`.
fn write_container<'a, W: fmt::Write>(
    w: &mut W,
    (open, close): (char, char),
    entries: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
    depth: Option<usize>,
) -> fmt::Result {
    w.write_char(open)?;
    let inner = depth.map(|d| d + 1);
    let mut empty = true;
    for (key, value) in entries {
        if !empty {
            w.write_char(',')?;
        }
        empty = false;
        if let Some(d) = inner {
            write_line_start(w, d)?;
        }
        if let Some(key) = key {
            write_string(w, key)?;
            w.write_str(if inner.is_some() { ": " } else { ":" })?;
        }
        write_value(w, value, inner)?;
    }
    match depth {
        Some(d) if !empty => write_line_start(w, d)?,
        _ => {}
    }
    w.write_char(close)
}

/// A newline and `depth` levels of two-space indentation.
fn write_line_start<W: fmt::Write>(w: &mut W, depth: usize) -> fmt::Result {
    w.write_char('\n')?;
    for _ in 0..depth {
        w.write_str("  ")?;
    }
    Ok(())
}

/// The one string escaper: `"`, `\`, `\n`, `\r` and `\t` get their short
/// escapes, other control characters `\u00XX`, and every run of bytes
/// between them is copied whole. The bytes escaped are ASCII, so each
/// run ends on a char boundary.
fn write_string<W: fmt::Write>(w: &mut W, s: &str) -> fmt::Result {
    w.write_char('"')?;
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        w.write_str(&s[run..i])?;
        match b {
            b'"' => w.write_str("\\\"")?,
            b'\\' => w.write_str("\\\\")?,
            b'\n' => w.write_str("\\n")?,
            b'\r' => w.write_str("\\r")?,
            b'\t' => w.write_str("\\t")?,
            _ => write!(w, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    w.write_str(&s[run..])?;
    w.write_char('"')
}

/// The deepest nesting of arrays and objects [`parse`] accepts. A
/// document this deep parses, and drops, on a 2 MiB thread stack in
/// either build profile.
pub const MAX_DEPTH: usize = 512;

/// Parses a complete JSON document, in time linear in its length.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error, or
/// of nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
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
    /// The document; every slice taken from it starts and ends next to
    /// an ASCII byte, so on a char boundary.
    text: &'a str,
    /// `text` as bytes, for the scanning.
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
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
            Some(b'{') => self.nested(Parser::object),
            Some(b'[') => self.nested(Parser::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
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
        let text = &self.text[start..self.pos];
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
            // Copy the run up to the next delimiter whole.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            if self.bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(out);
            }
            // A backslash: decode the escape after it.
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
                    let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                    // Parsed, so the four bytes were ASCII: the next run
                    // starts on a char boundary.
                    self.pos += 4;
                    out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                }
                other => {
                    return Err(format!("bad escape `\\{}`", char::from(other)));
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
            match map.entry(key) {
                Entry::Vacant(slot) => {
                    slot.insert(value);
                }
                Entry::Occupied(slot) => {
                    // serde's deny_unknown_fields structs rejected
                    // duplicate fields; keep that strictness.
                    return Err(format!("duplicate field `{}`", slot.key()));
                }
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

    #[test]
    fn error_messages_are_unchanged() {
        // What `rejects_malformed_input` relies on, and every other
        // message the parser can produce, word for word.
        for (doc, message) in [
            ("{", "expected `\"` at byte 1"),
            (r#"{"a": }"#, "unexpected input at byte 6"),
            ("[1, 2,]", "unexpected input at byte 6"),
            ("1.", "missing fraction digits at byte 0"),
            ("1e", "missing exponent digits at byte 0"),
            ("{} trailing", "trailing input at byte 3"),
            (r#"{"a": 1, "a": 2}"#, "duplicate field `a`"),
            (r#"{"é\n": 1, "é\u000a": 2}"#, "duplicate field `é\n`"),
            ("", "unexpected input at byte 0"),
            ("tru", "bad keyword at byte 0"),
            ("007", "number with leading zero at byte 0"),
            ("99999999999999999999", "bad number `99999999999999999999`"),
            ("[1 2]", "expected `,` or `]` at byte 3"),
            (r#"{"a":1 "b":2}"#, "expected `,` or `}` at byte 7"),
            (r#"{"a" 1}"#, "expected `:` at byte 5"),
            (r#""abc"#, "unterminated string"),
            (r#""a\"#, "unterminated escape"),
            (r#""a\q""#, "bad escape `\\q`"),
            ("\"a\\é\"", "bad escape `\\\u{c3}`"),
            (r#""\u12""#, "truncated \\u escape"),
            (r#""\u12G4""#, "bad \\u escape"),
            ("\"\\u0€\"", "bad \\u escape"),
            ("\"\\u00€\"", "bad \\u escape"),
            (r#""\ud83d""#, "bad \\u code point"),
            (r#""😀\ud83d\ude00""#, "bad \\u code point"),
        ] {
            assert_eq!(parse(doc), Err(message.to_string()), "{doc:?}");
        }
    }

    #[test]
    fn escapes_decode_at_every_position_of_a_run() {
        for (doc, want) in [
            (r#""\"start""#, "\"start"),
            (r#""end\\""#, "end\\"),
            (r#""mid\/dle""#, "mid/dle"),
            (r#""\n\"\\\/\u00e9""#, "\n\"\\/é"),
            (r#""\u00e9""#, "é"),
            (r#""a\b\f\r\tz""#, "a\u{8}\u{c}\r\tz"),
            (r#""\u+041""#, "A"),
            (r#""""#, ""),
        ] {
            assert_eq!(parse(doc), Ok(Json::Str(want.to_string())), "{doc:?}");
        }
    }

    #[test]
    fn multi_byte_utf8_beside_quotes_and_escapes() {
        for (doc, want) in [
            (r#""é\"€\\😀""#, "é\"€\\😀"),
            (r#""😀""#, "😀"),
            (r#""€\n€""#, "€\n€"),
            (r#""\u00e9é\u20ac€""#, "éé€€"),
        ] {
            assert_eq!(parse(doc), Ok(Json::Str(want.to_string())), "{doc:?}");
        }
        let v = parse(r#"{"ключ": ["значение", "😀"]}"#).unwrap();
        assert_eq!(
            v.as_object().unwrap()["ключ"].as_array().unwrap()[1].as_str(),
            Some("😀")
        );
    }

    #[test]
    fn raw_control_characters_are_accepted_in_strings() {
        let v = parse("\"a\u{1}b\tc\nd\u{1f}\u{7f}\"").unwrap();
        assert_eq!(v.as_str(), Some("a\u{1}b\tc\nd\u{1f}\u{7f}"));
    }

    /// A value using every escape the serializer knows, every scalar
    /// form and both container forms, empty and not.
    fn escape_document() -> Json {
        let every_escape = "\"\\/\n\r\t\u{0}\u{1}\u{8}\u{c}\u{1f}\u{7f}é€😀".to_string();
        Json::Object(BTreeMap::from([
            ("esc".to_string(), Json::Str(every_escape.clone())),
            (
                every_escape,
                Json::Array(vec![
                    Json::Int(-1),
                    Json::Float(2.0),
                    Json::Float(0.5),
                    Json::Float(f64::NAN),
                    Json::Null,
                    Json::Bool(true),
                    Json::Bool(false),
                    Json::Array(vec![]),
                    Json::Object(BTreeMap::new()),
                ]),
            ),
            (
                "n".to_string(),
                Json::Object(BTreeMap::from([(
                    "a".to_string(),
                    Json::Array(vec![Json::Int(1), Json::Str(String::new())]),
                )])),
            ),
        ]))
    }

    #[test]
    fn compact_bytes_are_pinned() {
        let esc = "\"\\\"\\\\/\\n\\r\\t\\u0000\\u0001\\u0008\\u000c\\u001f\u{7f}é€😀\"";
        let want = format!(
            "{{{esc}:[-1,2.0,0.5,null,null,true,false,[],{{}}],\"esc\":{esc},\"n\":{{\"a\":[1,\"\"]}}}}"
        );
        assert_eq!(escape_document().compact(), want);
        assert_eq!(Json::Str(String::new()).compact(), "\"\"");
        assert_eq!(Json::Float(-0.0).compact(), "-0.0");
        assert_eq!(Json::Float(1e21).compact(), "1000000000000000000000.0");
        assert_eq!(Json::Float(1.5e-7).compact(), "0.00000015");
        assert_eq!(Json::Int(i64::MIN).compact(), "-9223372036854775808");
        assert_eq!(Json::Float(f64::INFINITY).compact(), "null");
    }

    #[test]
    fn display_bytes_are_pinned() {
        let esc = "\"\\\"\\\\/\\n\\r\\t\\u0000\\u0001\\u0008\\u000c\\u001f\u{7f}é€😀\"";
        let want = format!(
            "{{\n  {esc}: [\n    -1,\n    2.0,\n    0.5,\n    null,\n    null,\n    true,\n    \
             false,\n    [],\n    {{}}\n  ],\n  \"esc\": {esc},\n  \"n\": {{\n    \"a\": [\n      \
             1,\n      \"\"\n    ]\n  }}\n}}"
        );
        assert_eq!(escape_document().to_string(), want);
        assert_eq!(Json::Array(vec![]).to_string(), "[]");
        assert_eq!(Json::Str("x\u{1}".into()).to_string(), "\"x\\u0001\"");
    }

    /// A seeded generator of arbitrary [`Json`] trees (finite floats
    /// only: NaN and infinities print as `null` by design).
    struct Trees(u64);

    impl Trees {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn text(&mut self) -> String {
            const POOL: [char; 20] = [
                'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{8}',
                '\u{c}', '\u{1f}', '\u{7f}', 'é', '€', '😀', '\u{ffff}',
            ];
            (0..self.below(12))
                .map(|_| POOL[self.below(POOL.len() as u64) as usize])
                .collect()
        }

        fn tree(&mut self, depth: u32) -> Json {
            match self.below(if depth == 0 { 5 } else { 7 }) {
                0 => Json::Null,
                1 => Json::Bool(self.next() & 1 == 1),
                2 => Json::Int(self.next() as i64 >> self.below(64)),
                3 => match f64::from_bits(self.next()) {
                    x if x.is_finite() => Json::Float(x),
                    _ => Json::Float(self.below(1000) as f64 / 8.0),
                },
                4 => Json::Str(self.text()),
                5 => Json::Array((0..self.below(5)).map(|_| self.tree(depth - 1)).collect()),
                _ => Json::Object(
                    (0..self.below(5))
                        .map(|_| (self.text(), self.tree(depth - 1)))
                        .collect(),
                ),
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn both_printed_forms_round_trip(seed in 0u64..=u64::MAX) {
            let v = Trees(seed | 1).tree(4);
            proptest::prop_assert_eq!(parse(&v.compact()), Ok(v.clone()));
            proptest::prop_assert_eq!(parse(&v.to_string()), Ok(v));
        }
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        // Parse and drop on a thread no bigger than the daemon's event
        // loop: the bound must keep every recursion inside it.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let v = parse(&nest(MAX_DEPTH)).unwrap();
                assert_eq!(v.compact(), nest(MAX_DEPTH));
                assert_eq!(parse(&v.to_string()), Ok(v.clone()));
                drop(v);
                let deep = parse(&format!(
                    "{}1{}",
                    "[".repeat(MAX_DEPTH),
                    "]".repeat(MAX_DEPTH)
                ));
                assert!(deep.is_ok());
                let objects = format!(
                    "{}{{}}{}",
                    "{\"a\":".repeat(MAX_DEPTH - 1),
                    "}".repeat(MAX_DEPTH - 1)
                );
                assert!(parse(&objects).is_ok());
            })
            .unwrap()
            .join()
            .unwrap();
        let too_deep = format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}");
        assert_eq!(parse(&nest(MAX_DEPTH + 1)), Err(too_deep.clone()));
        assert_eq!(parse(&"[".repeat(40_000)), Err(too_deep));
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(parse(&objects)
            .unwrap_err()
            .starts_with("nesting deeper than"));
    }

    #[test]
    fn a_mebibyte_string_parses_in_linear_time() {
        let unit = "ascii é€😀 \\\" \\n ";
        let body = unit.repeat((1 << 20) / unit.len());
        let doc = format!("{{\"pad\":\"{body}\"}}");
        let start = std::time::Instant::now();
        let v = parse(&doc).unwrap();
        let line = v.compact();
        let elapsed = start.elapsed();
        assert_eq!(line, doc);
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "1 MiB took {elapsed:?}"
        );
    }
}
