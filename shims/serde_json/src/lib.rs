//! Offline stand-in for `serde_json`.
//!
//! Implements the subset the workspace uses — a concrete [`Value`] tree, the
//! [`json!`] macro for flat literals, [`Map`], and [`to_string_pretty`] /
//! `Display` — with output byte-compatible with serde_json's default
//! configuration (sorted object keys, 2-space pretty indent, shortest
//! round-trip float formatting with a trailing `.0` for integral floats).
//!
//! Differences from the real crate, by design:
//! * [`from_str`] parses into [`Value`] only (no typed deserialization —
//!   the workspace reads bench JSONs back as trees);
//! * `json!` supports flat `{ "key": expr, ... }` / `[expr, ...]` literals
//!   and plain expressions, not arbitrarily nested bare literals — nest by
//!   passing an inner `json!(...)` as the expression.

use std::collections::BTreeMap;
use std::fmt;

/// Serialization error (the pretty printer is infallible; this exists so
/// call sites written against serde_json's fallible API keep compiling).
#[derive(Debug)]
pub struct Error(());

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("json serialization error")
    }
}

impl std::error::Error for Error {}

/// A JSON number: integer or float, mirroring serde_json's representation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// Signed integer.
    Int(i64),
    /// Unsigned integer (values above `i64::MAX`).
    UInt(u64),
    /// Floating point.
    Float(f64),
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Number::Int(i) => write!(f, "{i}"),
            Number::UInt(u) => write!(f, "{u}"),
            Number::Float(x) => {
                if !x.is_finite() {
                    // serde_json refuses non-finite floats; emitting null
                    // keeps bench output well-formed instead of erroring.
                    f.write_str("null")
                } else if x.fract() == 0.0 && x.abs() < 1e16 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
        }
    }
}

/// Sorted-key JSON object, matching serde_json's default `Map` (BTreeMap).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Map {
    entries: BTreeMap<String, Value>,
}

impl Map {
    /// Empty object.
    #[must_use]
    pub fn new() -> Self {
        Map::default()
    }

    /// Insert a key/value pair, returning any previous value.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        self.entries.insert(key, value)
    }

    /// Value under `key`.
    #[must_use]
    pub(crate) fn get(&self, key: &str) -> Option<&Value> {
        self.entries.get(key)
    }

    /// True when empty.
    #[must_use]
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter()
    }
}

impl FromIterator<(String, Value)> for Map {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        Map {
            entries: iter.into_iter().collect(),
        }
    }
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object with sorted keys.
    Object(Map),
}

impl Value {
    /// The value as an f64 when numeric.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(Number::Int(i)) => Some(*i as f64),
            Value::Number(Number::UInt(u)) => Some(*u as f64),
            Value::Number(Number::Float(x)) => Some(*x),
            _ => None,
        }
    }

    /// The value as a u64 when an unsigned integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(Number::Int(i)) if *i >= 0 => Some(*i as u64),
            Value::Number(Number::UInt(u)) => Some(*u),
            _ => None,
        }
    }

    /// The value as a str when a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Member access: `value["key"]`, returning `Null` when absent.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Number(Number::Int(i64::from(v)))
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Number(Number::Int(v))
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Number(Number::Int(i64::from(v)))
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        if v <= i64::MAX as u64 {
            Value::Number(Number::Int(v as i64))
        } else {
            Value::Number(Number::UInt(v))
        }
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::from(v as u64)
    }
}
impl From<f32> for Value {
    fn from(v: f32) -> Self {
        Value::Number(Number::Float(f64::from(v)))
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Number(Number::Float(v))
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::String(v.to_string())
    }
}
impl From<&String> for Value {
    fn from(v: &String) -> Self {
        Value::String(v.clone())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::String(v)
    }
}
impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::Array(v)
    }
}
impl From<Map> for Value {
    fn from(v: Map) -> Self {
        Value::Object(v)
    }
}
impl<T> From<Option<T>> for Value
where
    Value: From<T>,
{
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Value::from)
    }
}

macro_rules! from_ref {
    ($($t:ty),*) => {
        $(impl From<&$t> for Value {
            fn from(v: &$t) -> Self {
                Value::from(*v)
            }
        })*
    };
}
from_ref!(bool, i32, i64, u32, u64, usize, f32, f64);

/// Build a [`Value`] from a flat literal: `json!({ "k": expr, ... })`,
/// `json!([expr, ...])`, `json!(null)`, or `json!(expr)`.
#[macro_export]
macro_rules! json {
    (null) => {
        $crate::Value::Null
    };
    ([ $($value:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $($crate::Value::from($value)),* ])
    };
    ({ $($key:literal : $value:expr),* $(,)? }) => {{
        #[allow(unused_mut)]
        let mut map = $crate::Map::new();
        $( map.insert(($key).to_string(), $crate::Value::from($value)); )*
        $crate::Value::Object(map)
    }};
    ($other:expr) => {
        $crate::Value::from($other)
    };
}

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_value(out: &mut String, v: &Value, indent: usize, pretty: bool) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => out.push_str(&n.to_string()),
        Value::String(s) => escape_into(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if pretty {
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                }
                write_value(out, item, indent + 1, pretty);
            }
            if pretty {
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
            }
            out.push(']');
        }
        Value::Object(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if pretty {
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                }
                escape_into(out, k);
                out.push(':');
                if pretty {
                    out.push(' ');
                }
                write_value(out, val, indent + 1, pretty);
            }
            if pretty {
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
            }
            out.push('}');
        }
    }
}

/// Render a value as pretty-printed JSON (2-space indent, serde_json style).
pub fn to_string_pretty(value: &Value) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, value, 0, true);
    Ok(out)
}

impl fmt::Display for Value {
    /// Compact JSON rendering (matches serde_json's `Display`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        write_value(&mut out, self, 0, false);
        f.write_str(&out)
    }
}

/// Recursive-descent parser over the full JSON grammar.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn err<T>(&self) -> Result<T, Error> {
        Err(Error(()))
    }

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

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err()
        }
    }

    fn eat_literal(&mut self, lit: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            self.err()
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.eat_literal("null").map(|()| Value::Null),
            Some(b't') => self.eat_literal("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.eat_literal("false").map(|()| Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::String),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => self.err(),
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return self.err(),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.eat(b'{')?;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.eat(b':')?;
            map.insert(key, self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return self.err(),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos.checked_add(4).ok_or(Error(()))?;
        let hex = self.bytes.get(self.pos..end).ok_or(Error(()))?;
        let s = std::str::from_utf8(hex).map_err(|_| Error(()))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| Error(()))?;
        self.pos = end;
        Ok(v)
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Bulk-copy the unescaped run.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| Error(()))?);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or(Error(()))?;
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
                            let hi = self.parse_hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                self.eat(b'\\')?;
                                self.eat(b'u')?;
                                let lo = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return self.err();
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(char::from_u32(cp).ok_or(Error(()))?);
                        }
                        _ => return self.err(),
                    }
                }
                _ => return self.err(),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| Error(()))?;
        if !is_float {
            if let Ok(i) = s.parse::<i64>() {
                return Ok(Value::Number(Number::Int(i)));
            }
            if let Ok(u) = s.parse::<u64>() {
                return Ok(Value::Number(Number::UInt(u)));
            }
        }
        s.parse::<f64>()
            .map(|x| Value::Number(Number::Float(x)))
            .map_err(|_| Error(()))
    }
}

/// Parse a JSON document into a [`Value`] tree. Accepts exactly one
/// top-level value with optional surrounding whitespace.
pub fn from_str(s: &str) -> Result<Value, Error> {
    let mut p = Parser::new(s);
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos == p.bytes.len() {
        Ok(v)
    } else {
        Err(Error(()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_output_matches_serde_json_style() {
        let v = json!({
            "recall": 1.0,
            "ef": 8usize,
            "system": "TigerVector",
            "qps": 23003.858178338847,
        });
        let s = to_string_pretty(&v).unwrap();
        // Keys sorted, 2-space indent, integral float keeps ".0".
        assert_eq!(
            s,
            "{\n  \"ef\": 8,\n  \"qps\": 23003.858178338847,\n  \"recall\": 1.0,\n  \"system\": \"TigerVector\"\n}"
        );
    }

    #[test]
    fn arrays_and_nesting() {
        let inner = json!({ "a": 1 });
        let v = Value::Array(vec![inner, json!(null), json!("x")]);
        assert_eq!(v.to_string(), "[{\"a\":1},null,\"x\"]");
    }

    #[test]
    fn string_escaping() {
        let v = json!("a\"b\\c\nd");
        assert_eq!(v.to_string(), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn accessors() {
        let v = json!({ "n": 3, "s": "hi" });
        assert_eq!(v.get("n").and_then(Value::as_f64), Some(3.0));
        assert_eq!(v.get("s").and_then(Value::as_str), Some("hi"));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parser_roundtrips_own_output() {
        let inner = json!({ "recall": 0.995, "qps": 12345.5, "ef": 64usize, "neg": -3 });
        let v = json!({
            "rows": Value::Array(vec![inner, json!(null)]),
            "label": "quant \"bench\"\n",
            "empty_arr": Value::Array(vec![]),
            "empty_obj": Value::Object(Map::new()),
            "flag": true,
            "big": u64::MAX,
        });
        for render in [to_string_pretty(&v).unwrap(), v.to_string()] {
            let back = from_str(&render).unwrap();
            assert_eq!(back, v, "parse({render}) diverged");
        }
    }

    #[test]
    fn parser_handles_escapes_and_rejects_garbage() {
        let v = from_str(r#"{"u": "\u00e9\ud83d\ude00", "t": "\tx"}"#).unwrap();
        assert_eq!(v.get("u").and_then(Value::as_str), Some("é😀"));
        assert_eq!(v.get("t").and_then(Value::as_str), Some("\tx"));
        for bad in ["{", "[1,]", "{\"a\":}", "tru", "1 2", "\"\\q\"", ""] {
            assert!(from_str(bad).is_err(), "accepted {bad:?}");
        }
        assert_eq!(from_str(" 42 ").unwrap().as_u64(), Some(42));
        assert_eq!(from_str("-7").unwrap().as_f64(), Some(-7.0));
        assert_eq!(from_str("2.5e3").unwrap().as_f64(), Some(2500.0));
    }

    #[test]
    fn display_renders_compact() {
        let v = json!({ "a": 1 });
        assert_eq!(format!("{v}"), "{\"a\":1}");
    }
}
