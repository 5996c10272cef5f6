//! Dependency-free JSON for the UPAQ workspace.
//!
//! The build environment has no registry access (see the top-level README),
//! so instead of `serde`/`serde_json` the workspace serializes through this
//! small crate:
//!
//! * [`Value`] — an order-preserving JSON document model;
//! * [`ToJson`] / [`FromJson`] — conversion traits with impls for the
//!   primitives and containers the workspace persists;
//! * [`json!`] — object/array literal macro mirroring `serde_json::json!`;
//! * [`Value::parse`] — a recursive-descent parser, nesting bounded by
//!   [`MAX_DEPTH`];
//! * [`Value::pretty`] / `Display` — pretty and compact writers.
//!
//! Round-trip guarantee: `Value::parse(&v.pretty())` reproduces `v` for
//! every finite value this workspace writes (floats are emitted with enough
//! precision to round-trip `f64`) and for every value [`Value::parse`]
//! accepts.

use std::collections::HashMap;
use std::fmt;

/// A JSON document. Object member order is preserved (insertion order).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up an object member by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64`, when numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `&str`, when a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice, when an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_num(out, *n),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => write_seq(out, indent, '[', ']', items.iter(), |v, out, ind| {
                v.write(out, ind);
            }),
            Value::Obj(members) => {
                write_seq(out, indent, '{', '}', members.iter(), |(k, v), out, ind| {
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, ind);
                })
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with a byte offset on input RFC 8259 forbids,
    /// on a number that overflows `f64`, and on arrays and objects nested
    /// more than [`MAX_DEPTH`] deep (at the bracket that crosses the bound).
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no Inf/NaN; null is the conventional degradation.
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 1e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        // 17 significant digits round-trip any f64; trim via Display.
        let s = format!("{n}");
        out.push_str(&s);
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    items: impl ExactSizeIterator<Item = T>,
    write_item: impl Fn(T, &mut String, Option<usize>),
) {
    if items.len() == 0 {
        out.push(open);
        out.push(close);
        return;
    }
    out.push(open);
    let inner = indent.map(|i| i + 1);
    let n = items.len();
    for (i, item) in items.enumerate() {
        if let Some(level) = inner {
            out.push('\n');
            out.push_str(&"  ".repeat(level));
        }
        write_item(item, out, inner);
        if i + 1 < n {
            out.push(',');
            if inner.is_none() {
                out.push(' ');
            }
        }
    }
    if let Some(level) = indent {
        out.push('\n');
        out.push_str(&"  ".repeat(level));
    }
    out.push(close);
}

impl fmt::Display for Value {
    /// Compact single-line form.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s, None);
        f.write_str(&s)
    }
}

/// Parse failure: message plus byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest nesting of arrays and objects [`Value::parse`] accepts: far
/// above any report this workspace writes (a handful of levels), and far
/// below the depth at which the recursive-descent parser would exhaust a
/// thread's stack.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    /// Skips RFC 8259 whitespace: space, tab, LF and CR (not form feed).
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses one array or object a level deeper, refusing to pass
    /// [`MAX_DEPTH`]: `value`, `array` and `object` recurse, so unbounded
    /// nesting would overflow the stack.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, JsonError>,
    ) -> Result<Value, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, JsonError> {
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

    fn object(&mut self) -> Result<Value, JsonError> {
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

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let escape = self.pos - 2;
                            let mut code = self.hex4()?;
                            // A high surrogate and the low one after it
                            // encode one character beyond the BMP.
                            if (0xD800..0xDC00).contains(&code)
                                && self.bytes[self.pos..].starts_with(b"\\u")
                            {
                                self.pos += 2;
                                let low = self.hex4()?;
                                if (0xDC00..0xE000).contains(&low) {
                                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                }
                            }
                            // `from_u32` refuses a surrogate left unpaired.
                            s.push(char::from_u32(code).ok_or(JsonError {
                                message: "unpaired surrogate in \\u escape".into(),
                                offset: escape,
                            })?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("unescaped control character in a string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Reads the four hex digits of a `\u` escape (RFC 8259: exactly
    /// four, no sign).
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|c| (c as char).to_digit(16))
                .ok_or_else(|| self.err("expected a hex digit in \\u escape"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    /// Parses a number by the RFC 8259 grammar
    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, refusing one
    /// that overflows `f64`: `pretty` writes a non-finite number as `null`,
    /// so it could not round-trip.
    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
            if self.peek().is_some_and(|c| c.is_ascii_digit()) {
                return Err(self.err("leading zero in a number"));
            }
        } else {
            self.digits()?;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("the number grammar admits only ASCII");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Num(n)),
            _ => Err(JsonError {
                message: format!("number `{text}` out of range"),
                offset: start,
            }),
        }
    }

    /// Consumes one or more ASCII digits.
    fn digits(&mut self) -> Result<(), JsonError> {
        if !self.peek().is_some_and(|c| c.is_ascii_digit()) {
            return Err(self.err("expected a digit"));
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        Ok(())
    }
}

/// Conversion into a [`Value`].
pub trait ToJson {
    /// The JSON representation.
    fn to_json(&self) -> Value;
}

/// Conversion back out of a [`Value`].
pub trait FromJson: Sized {
    /// Reconstructs `Self`, returning `None` on shape mismatch.
    fn from_json(v: &Value) -> Option<Self>;
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl FromJson for Value {
    fn from_json(v: &Value) -> Option<Self> {
        Some(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Value) -> Option<Self> {
        match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

macro_rules! num_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::Num(*self as f64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Value) -> Option<Self> {
                v.as_f64().map(|n| n as $t)
            }
        }
    )*};
}

num_to_json!(f32, f64, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Value) -> Option<Self> {
        v.as_str().map(str::to_string)
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Value {
        Value::Str((*self).to_string())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Option<Self> {
        v.as_arr()?.iter().map(T::from_json).collect()
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(v) => v.to_json(),
            None => Value::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Option<Self> {
        match v {
            Value::Null => Some(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<V: ToJson> ToJson for HashMap<String, V> {
    /// Keys are sorted so the output is deterministic.
    fn to_json(&self) -> Value {
        let mut keys: Vec<&String> = self.keys().collect();
        keys.sort();
        Value::Obj(
            keys.into_iter()
                .map(|k| (k.clone(), self[k].to_json()))
                .collect(),
        )
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Value {
        (*self).to_json()
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

/// Builds a [`Value`] literal, mirroring `serde_json::json!` for the
/// object/array/scalar shapes the workspace uses. Member values are plain
/// expressions converted through [`ToJson`].
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($item:expr),* $(,)? ]) => {
        $crate::Value::Arr(vec![$($crate::ToJson::to_json(&$item)),*])
    };
    ({ $($key:literal : $val:expr),* $(,)? }) => {
        $crate::Value::Obj(vec![$(($key.to_string(), $crate::ToJson::to_json(&$val))),*])
    };
    ($other:expr) => {
        $crate::ToJson::to_json(&$other)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        for text in ["null", "true", "false", "0", "-12.5", "\"hi\\nthere\""] {
            let v = Value::parse(text).unwrap();
            assert_eq!(Value::parse(&v.pretty()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn object_order_preserved() {
        let v = json!({"b": 1, "a": 2});
        assert_eq!(v.to_string(), r#"{"b": 1, "a": 2}"#);
        let parsed = Value::parse(&v.pretty()).unwrap();
        assert_eq!(parsed, v);
    }

    #[test]
    fn nested_macro_shapes() {
        let records = vec![
            json!({"name": "x", "score": 1.25}),
            json!({"name": "y", "score": 2.0}),
        ];
        let v = records.to_json();
        let arr = v.as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("name").unwrap().as_str().unwrap(), "x");
        assert_eq!(arr[1].get("score").unwrap().as_f64().unwrap(), 2.0);
    }

    #[test]
    fn float_precision_roundtrips() {
        let n = 6.849_999_999_999_999e-3;
        let v = Value::Num(n);
        let back = Value::parse(&v.pretty()).unwrap();
        assert_eq!(back.as_f64().unwrap(), n);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Value::parse("{,}").is_err());
        assert!(Value::parse("[1 2]").is_err());
        assert!(Value::parse("tru").is_err());
        assert!(Value::parse("{\"a\": 1} extra").is_err());
        assert!(Value::parse("\"open").is_err());
    }

    #[test]
    fn rejects_what_rfc_8259_forbids() {
        // A signed `\u` escape, leading zeros, a `.` without digits on
        // either side, a number that overflows `f64` (which `pretty` would
        // write back as `null`), whitespace other than space, tab, LF and
        // CR, and a raw control character in a string, each at the
        // offending byte; and a lone or reversed surrogate, at its escape.
        for (text, offset) in [
            (r#""\u+041""#, 3),
            ("01", 1),
            ("00", 1),
            ("-01.5", 2),
            ("1.", 2),
            ("1.e3", 2),
            ("-.5", 1),
            ("1e400", 0),
            ("\u{c}1", 0),
            ("\"a\u{1}b\"", 2),
            (r#""\ud83d""#, 1),
            (r#""\ude00""#, 1),
            (r#""\ud83d\u0041""#, 1),
        ] {
            match Value::parse(text) {
                Err(e) => assert_eq!(e.offset, offset, "{text}: {e}"),
                Ok(v) => panic!("{text} parsed as {v:?}"),
            }
        }
    }

    #[test]
    fn every_prefix_and_byte_substitution_errs_cleanly_or_round_trips() {
        // Every value kind, a `\u` escape, and a number one digit away
        // from overflowing `f64`.
        let doc = r#"{"null": null, "bools": [true, false], "nums": [0, -12.5, 2e307, 1E-3], "s": "a\u00e9\n\"\\/", "nested": {"arr": [[], {}]}}"#;
        let check = |text: &str| match Value::parse(text) {
            Ok(v) => assert_eq!(Value::parse(&v.pretty()), Ok(v), "{text}"),
            Err(e) => assert!(e.offset <= text.len(), "{text}: {e}"),
        };
        assert!(Value::parse(doc).is_ok());
        for end in 0..=doc.len() {
            check(&doc[..end]);
        }
        let mut bytes = doc.as_bytes().to_vec();
        for i in 0..bytes.len() {
            let original = bytes[i];
            for &b in b"\"\\[]{},:-+.eE09u " {
                bytes[i] = b;
                check(std::str::from_utf8(&bytes).expect("an ASCII document"));
            }
            bytes[i] = original;
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for (open, width) in [("[", 1), ("{\"a\":", 5)] {
            let err = Value::parse(&open.repeat(100_000)).unwrap_err();
            assert_eq!(err.offset, MAX_DEPTH * width, "{open}");
            assert!(err.message.contains("nesting"), "{err}");
        }
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let mut v = Value::parse(&nest(MAX_DEPTH)).unwrap();
        for _ in 1..MAX_DEPTH {
            v = v.as_arr().unwrap()[0].clone();
        }
        assert_eq!(v, Value::Arr(Vec::new()));
        assert!(Value::parse(&nest(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn hashmap_keys_sorted() {
        let mut m = HashMap::new();
        m.insert("z".to_string(), 1u32);
        m.insert("a".to_string(), 2u32);
        assert_eq!(m.to_json().to_string(), r#"{"a": 2, "z": 1}"#);
    }

    #[test]
    fn unicode_escapes_parse() {
        let v = Value::parse(r#""a\u0041b""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "aAb");
        // A surrogate pair is one character (U+1F600).
        let v = Value::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "😀");
    }

    #[test]
    fn pretty_output_shape() {
        let v = json!({"rows": [1, 2], "empty": Vec::<u32>::new()});
        let p = v.pretty();
        assert!(p.contains("\"rows\": [\n    1,\n    2\n  ]"), "{p}");
        assert!(p.contains("\"empty\": []"));
    }
}
