//! Minimal JSON reader/writer for campaign checkpoints.
//!
//! The workspace is dependency-free, so checkpoints are serialized with this
//! small hand-rolled module instead of serde. It supports exactly the JSON
//! subset the checkpoint format needs — objects, arrays, strings (with
//! escapes), integers, floats, booleans, null — and keeps numbers as raw
//! token text so `u64` values (seeds, trial indices) round-trip without
//! passing through `f64`.
//!
//! The parser also reads frames from untrusted peers, so it recurses at
//! most [`MAX_DEPTH`] containers deep: anything deeper is an `Err`, never a
//! stack overflow.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. BTreeMap keeps key order stable for tests.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as `u64` if it is an unsigned integer token.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Deepest nesting of arrays and objects [`parse`] accepts — far beyond
/// the documents this workspace writes (a checkpoint nests 3 deep), and
/// shallow enough to recurse through on any thread's stack.
pub const MAX_DEPTH: usize = 64;

/// Parse a complete JSON document.
///
/// # Errors
///
/// A human-readable description with the byte offset of the first problem,
/// including nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut p = Parser { text, bytes, pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", b as char))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    /// Parse one container with `parse`, one level deeper.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return self.err(&format!("nesting deeper than {MAX_DEPTH}"));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            self.err(&format!("expected '{word}'"))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        // Validate the token by parsing as f64 (covers int and float forms).
        if raw.parse::<f64>().is_err() {
            return self.err("invalid number");
        }
        Ok(Value::Num(raw.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
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
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            match hex.and_then(char::from_u32) {
                                // Surrogate pairs are not needed for panic
                                // messages; reject rather than mis-decode.
                                Some(c) => {
                                    out.push(c);
                                    self.pos += 4;
                                }
                                None => return self.err("bad \\u escape"),
                            }
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run of plain characters up to the next quote
                    // or escape. Both are ASCII, so the run ends on a char
                    // boundary of the already-validated text.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - self.pos);
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
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
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            map.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

/// Append `s` as a JSON string literal (with escapes) to `out`.
pub fn write_str(out: &mut String, s: &str) {
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
    fn parses_checkpoint_shaped_document() {
        let doc = r#"{
            "version": 1,
            "workload": "dct",
            "config_hash": 18446744073709551615,
            "records": [
                {"trial": 0, "outcome": "sdc", "read": true},
                {"trial": 7, "outcome": "crash", "reason": "index out of bounds"}
            ]
        }"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("version").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("workload").unwrap().as_str(), Some("dct"));
        // u64::MAX survives (would be lossy through f64).
        assert_eq!(v.get("config_hash").unwrap().as_u64(), Some(u64::MAX));
        let recs = v.get("records").unwrap().as_arr().unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].get("reason").unwrap().as_str(), Some("index out of bounds"));
        assert_eq!(recs[0].get("read").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn string_escapes_roundtrip() {
        let nasty = "a \"quoted\" line\nwith\ttabs \\ and unicode λ \u{1}";
        let mut enc = String::new();
        write_str(&mut enc, nasty);
        let v = parse(&enc).unwrap();
        assert_eq!(v.as_str(), Some(nasty));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\" 1}", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn numbers_keep_raw_text() {
        let v = parse("[0, 42, -3, 2.5e3]").unwrap();
        let a = v.as_arr().unwrap();
        assert_eq!(a[1].as_u64(), Some(42));
        assert_eq!(a[2].as_u64(), None); // negative: not a u64
        assert_eq!(a[3], Value::Num("2.5e3".into()));
    }

    /// A megabyte of nesting — the largest frame a peer may send — is an
    /// `Err` on an ordinary 2 MiB thread, not a stack overflow.
    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let parse_on_small_stack = |text: String| {
            let thread = std::thread::Builder::new().stack_size(2 << 20);
            thread.spawn(move || parse(&text).map(drop)).unwrap().join().unwrap()
        };
        for opener in ["[", "{\"a\":"] {
            let deep = opener.repeat((1 << 20) / opener.len());
            let err = parse_on_small_stack(deep).unwrap_err();
            assert!(err.contains("nesting deeper than"), "{err}");
        }
        let nest = |n: usize| format!("{}1{}", "[".repeat(n), "]".repeat(n));
        assert!(parse_on_small_stack(nest(MAX_DEPTH)).is_ok());
        assert!(parse_on_small_stack(nest(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("[]").unwrap(), Value::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Value::Obj(BTreeMap::new()));
    }
}
