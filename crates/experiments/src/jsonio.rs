//! Reading side of the in-tree JSON story: a recursive-descent parser
//! into [`JsonValue`] plus the accessors the resilience layer needs.
//!
//! The workspace has no `serde`; `artifact.rs` writes JSON with a small
//! hand renderer, and this module reads it back. The parser accepts
//! exactly standard JSON (objects, arrays, strings with escapes, numbers,
//! booleans, null) and is **total**: any input yields `Ok` or a typed
//! [`JsonParseError`] with a byte offset — never a panic. Because it also
//! fronts the `phast-serve` wire protocol it is hardened fail-closed:
//! duplicate object keys are rejected rather than resolved by position
//! (last-wins vs first-wins ambiguity is a classic request-smuggling
//! vector on protocol boundaries).
//!
//! Round-trip fidelity matters more than generality here: the `BENCH_*`
//! digest and the journal's per-record digests are verified by
//! *re-rendering* parsed values and comparing CRCs, which works because
//! numbers parse into the same variants the writer renders from
//! (unsigned integers into [`JsonValue::UInt`], everything else into
//! [`JsonValue::Float`]) and Rust's shortest-roundtrip float formatting
//! guarantees `format(parse(s)) == s` for any `s` the writer produced.

use crate::artifact::JsonValue;

/// A JSON syntax error with the byte offset where parsing stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input at which the error was detected.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonParseError {}

/// Parses one JSON document; trailing whitespace is allowed, trailing
/// content is an error.
///
/// # Errors
///
/// [`JsonParseError`] on any syntactically invalid input.
pub fn parse(text: &str) -> Result<JsonValue, JsonParseError> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError { offset: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key_offset = self.pos;
            let key = self.string()?;
            // Duplicate keys are ambiguous (last-wins vs first-wins differs
            // between consumers) and a classic smuggling vector on protocol
            // boundaries — fail closed. The in-tree writer never emits them.
            if fields.iter().any(|(k, _): &(String, JsonValue)| *k == key) {
                return Err(JsonParseError {
                    offset: key_offset,
                    message: format!("duplicate object key '{key}'"),
                });
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonParseError> {
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // The in-tree writer only emits \u for control
                            // characters; reject surrogates rather than
                            // implementing pair recombination nobody emits.
                            match char::from_u32(u32::from(code)) {
                                Some(c) => out.push(c),
                                None => return Err(self.err("unpaired surrogate escape")),
                            }
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so byte
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonParseError> {
        let mut code: u16 = 0;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => c - b'0',
                Some(c @ b'a'..=b'f') => c - b'a' + 10,
                Some(c @ b'A'..=b'F') => c - b'A' + 10,
                _ => return Err(self.err("expected 4 hex digits after \\u")),
            };
            code = code << 4 | u16::from(d);
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if !fractional && !text.starts_with('-') {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(n));
            }
        }
        match text.parse::<f64>() {
            Ok(x) => Ok(JsonValue::Float(x)),
            Err(_) => Err(JsonParseError { offset: start, message: format!("bad number '{text}'") }),
        }
    }
}

impl JsonValue {
    /// Looks up `key` in an object; `None` for missing keys and
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Removes and returns `key` from an object, preserving the order of
    /// the remaining fields; `None` for missing keys and non-objects.
    pub fn remove(&mut self, key: &str) -> Option<JsonValue> {
        match self {
            JsonValue::Object(fields) => {
                let i = fields.iter().position(|(k, _)| k == key)?;
                Some(fields.remove(i).1)
            }
            _ => None,
        }
    }

    /// The value as a u64, if it is an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an f64; integers coerce (the writer renders an
    /// integral float as a bare integer, so readers of float-typed fields
    /// must accept both variants).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Float(x) => Some(*x),
            JsonValue::UInt(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
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

    /// The value as a bool, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// `true` for [`JsonValue::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }
}

// The typed field readers of the codecs built on this parser (artifacts,
// the journal, the wire protocol). Each error names the field.

/// The string field `key` of object `v`.
pub(crate) fn req_str(v: &JsonValue, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string '{key}'"))
}

/// The unsigned integer field `key` of object `v`.
pub(crate) fn req_u64(v: &JsonValue, key: &str) -> Result<u64, String> {
    let n = v.get(key).and_then(JsonValue::as_u64);
    n.ok_or_else(|| format!("missing or non-integer '{key}'"))
}

/// The number field `key` of object `v`.
pub(crate) fn req_f64(v: &JsonValue, key: &str) -> Result<f64, String> {
    v.get(key).and_then(JsonValue::as_f64).ok_or_else(|| format!("missing or non-number '{key}'"))
}

/// The number-or-`null` field `key` of object `v`.
pub(crate) fn opt_f64(v: &JsonValue, key: &str) -> Result<Option<f64>, String> {
    match v.get(key) {
        None => Err(format!("missing '{key}'")),
        Some(x) if x.is_null() => Ok(None),
        Some(x) => x.as_f64().map(Some).ok_or_else(|| format!("non-number '{key}'")),
    }
}

/// The array-of-unsigned-integers field `key` of object `v`.
pub(crate) fn req_u64_array(v: &JsonValue, key: &str) -> Result<Vec<u64>, String> {
    let items = v
        .get(key)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("missing or non-array '{key}'"))?;
    items
        .iter()
        .map(|x| x.as_u64().ok_or_else(|| format!("non-integer element in '{key}'")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert!(matches!(parse("null").unwrap(), JsonValue::Null));
        assert_eq!(parse("true").unwrap().as_bool(), Some(true));
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1.5").unwrap().as_f64(), Some(-1.5));
        assert_eq!(parse("2.75").unwrap().as_f64(), Some(2.75));
        assert_eq!(parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(parse("\"a\\nb\"").unwrap().as_str(), Some("a\nb"));
        assert_eq!(parse("\"\\u0001\"").unwrap().as_str(), Some("\u{1}"));
    }

    #[test]
    fn parses_structures() {
        let v = parse(r#"{ "a": [1, 2, {"b": null}], "c": "x" }"#).unwrap();
        assert_eq!(v.get("c").and_then(JsonValue::as_str), Some("x"));
        let a = v.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(a.len(), 3);
        assert!(a[2].get("b").unwrap().is_null());
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn rejects_malformed_input_with_offsets() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "\"unterminated", "01x", "{}extra"] {
            let e = parse(bad).expect_err(bad);
            assert!(e.offset <= bad.len(), "{bad}: {e}");
        }
    }

    #[test]
    fn writer_output_roundtrips_byte_identically() {
        let v = JsonValue::obj(vec![
            ("s", JsonValue::Str("a\"b\\c\nd\u{1}".into())),
            ("u", JsonValue::UInt(18_446_744_073_709_551_615)),
            ("f", JsonValue::Float(std::f64::consts::PI)),
            ("whole", JsonValue::Float(26.0)),
            ("nested", JsonValue::Array(vec![JsonValue::Bool(false), JsonValue::Null])),
        ]);
        for text in [v.render(), v.render_compact()] {
            let parsed = parse(&text).unwrap();
            assert_eq!(parsed.render(), v.render(), "re-render matches");
            assert_eq!(parsed.render_compact(), v.render_compact());
        }
    }

    #[test]
    fn duplicate_object_keys_are_rejected_fail_closed() {
        for bad in [
            r#"{"a":1,"a":2}"#,
            r#"{"a":1,"b":{"x":1,"x":2}}"#,
            r#"[{"k":true,"k":false}]"#,
        ] {
            let e = parse(bad).expect_err(bad);
            assert!(e.message.contains("duplicate object key"), "{bad}: {e}");
        }
        // Same key at different nesting depths is fine.
        let v = parse(r#"{"a":{"a":1},"b":[{"a":2}]}"#).unwrap();
        assert_eq!(v.get("a").and_then(|x| x.get("a")).and_then(JsonValue::as_u64), Some(1));
    }

    #[test]
    fn remove_preserves_field_order() {
        let mut v = parse(r#"{"a": 1, "b": 2, "c": 3}"#).unwrap();
        assert_eq!(v.remove("b").and_then(|x| x.as_u64()), Some(2));
        assert_eq!(v.render_compact(), r#"{"a":1,"c":3}"#);
        assert!(v.remove("b").is_none());
    }
}
