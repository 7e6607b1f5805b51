//! Offline shim for `serde_json`: JSON text for the shim serde family.
//!
//! Implements the subset of the real API the workspace uses:
//! [`to_value`], [`from_value`], [`to_string`], [`to_string_pretty`],
//! [`from_str`], and the [`Value`]/[`Number`] types (re-exported from the
//! shim `serde`, where the data model lives). [`to_string`] and
//! [`to_string_pretty`] stream through [`Serialize::write_json`] into
//! the shim's one [`JsonWriter`], without building a [`Value`] tree. The
//! emitted text is deterministic: object keys keep insertion order,
//! floats use Rust's shortest round-trippable formatting.

#![forbid(unsafe_code)]

pub use serde::{Error, JsonWriter, Number, Value};

use serde::{DeserializeOwned, Serialize};

/// Converts any serializable value into a [`Value`] tree.
///
/// # Errors
/// Infallible in the shim; the `Result` mirrors the real API.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    Ok(value.to_value())
}

/// Rebuilds a deserializable type from a [`Value`] tree.
///
/// # Errors
/// Returns an [`Error`] describing the first mismatch between the value
/// tree and the target type.
pub fn from_value<T: DeserializeOwned>(value: Value) -> Result<T, Error> {
    T::from_value(&value)
}

/// Serializes a value to compact JSON text.
///
/// # Errors
/// Infallible in the shim; the `Result` mirrors the real API.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut writer = JsonWriter::compact();
    value.write_json(&mut writer);
    Ok(writer.into_string())
}

/// Serializes a value to pretty-printed JSON text (two-space indent).
///
/// # Errors
/// Infallible in the shim; the `Result` mirrors the real API.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut writer = JsonWriter::pretty();
    value.write_json(&mut writer);
    Ok(writer.into_string())
}

/// Parses JSON text into any deserializable type (including [`Value`]).
///
/// # Errors
/// Returns an [`Error`] with a byte offset on malformed input, or a
/// type-mismatch description if the text parses but does not fit `T`.
pub fn from_str<T: DeserializeOwned>(text: &str) -> Result<T, Error> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    parser.skip_whitespace();
    let value = parser.parse_value(0)?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(Error::custom(format!(
            "trailing characters at byte {}",
            parser.pos
        )));
    }
    T::from_value(&value)
}

// ---------------------------------------------------------------- parser

const MAX_DEPTH: usize = 512;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl std::fmt::Display) -> Error {
        Error::custom(format!("{message} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", byte as char)))
        }
    }

    fn eat_literal(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return Err(self.error("maximum nesting depth exceeded"));
        }
        self.skip_whitespace();
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::String),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_whitespace();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.parse_value(depth + 1)?);
                    self.skip_whitespace();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(self.error("expected `,` or `]`")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_whitespace();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                loop {
                    self.skip_whitespace();
                    let key = self.parse_string()?;
                    self.skip_whitespace();
                    self.expect(b':')?;
                    let value = self.parse_value(depth + 1)?;
                    pairs.push((key, value));
                    self.skip_whitespace();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(pairs));
                        }
                        _ => return Err(self.error("expected `,` or `}`")),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(self.error(format!("unexpected character `{}`", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.error("bad escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'u' => {
                            let first = self.parse_hex4()?;
                            let code = if (0xD800..0xDC00).contains(&first) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if !self.eat_literal("\\u") {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                let second = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&second) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                            } else {
                                first
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid unicode escape"))?,
                            );
                        }
                        other => {
                            return Err(self.error(format!("unknown escape `\\{}`", other as char)))
                        }
                    }
                }
                Some(byte) => {
                    // Bulk-copy the run up to the next quote, escape or
                    // non-ASCII byte. (Validating from the *whole*
                    // remaining input per character — the previous
                    // implementation — made string-heavy documents
                    // quadratic to parse; artifact-sized payloads on the
                    // qssd hot path hit that hard.)
                    if byte < 0x80 {
                        let rest = &self.bytes[self.pos..];
                        let run = rest
                            .iter()
                            .position(|&b| b == b'"' || b == b'\\' || b >= 0x80)
                            .unwrap_or(rest.len());
                        debug_assert!(run > 0, "peeked byte starts the run");
                        out.push_str(
                            std::str::from_utf8(&rest[..run]).expect("ASCII bytes are UTF-8"),
                        );
                        self.pos += run;
                    } else {
                        // One non-ASCII char: decode from a bounded
                        // window (input is a &str, so the bytes are
                        // valid UTF-8 and `pos` sits on a boundary).
                        let end = (self.pos + 4).min(self.bytes.len());
                        let window = &self.bytes[self.pos..end];
                        let c = match std::str::from_utf8(window) {
                            Ok(text) => text.chars().next(),
                            Err(e) if e.valid_up_to() > 0 => {
                                std::str::from_utf8(&window[..e.valid_up_to()])
                                    .expect("validated prefix")
                                    .chars()
                                    .next()
                            }
                            Err(_) => None,
                        }
                        .ok_or_else(|| self.error("invalid UTF-8 in string"))?;
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.error("truncated unicode escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.error("invalid unicode escape"))?;
        let code =
            u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid unicode escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::Number(Number::UInt(v)));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Value::Number(Number::from(v)));
            }
        }
        text.parse::<f64>()
            .map(|v| Value::Number(Number::Float(v)))
            .map_err(|_| self.error(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_containers() {
        let value = Value::Object(vec![
            ("a".into(), Value::Number(Number::UInt(7))),
            ("b".into(), Value::Bool(true)),
            (
                "c".into(),
                Value::Array(vec![Value::Null, Value::String("x\n\"y\"".into())]),
            ),
            ("d".into(), Value::Number(Number::from(-3i64))),
            ("e".into(), Value::Number(Number::Float(1.5))),
        ]);
        let text = to_string(&value).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, value);
        let pretty = to_string_pretty(&value).unwrap();
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(back, value);
    }

    #[test]
    fn floats_stay_floats() {
        let text = to_string(&2.0f64).unwrap();
        assert_eq!(text, "2.0");
        let back: f64 = from_str(&text).unwrap();
        assert_eq!(back, 2.0);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_str::<Value>("{\"a\": ").is_err());
        assert!(from_str::<Value>("[1, 2,]").is_err());
        assert!(from_str::<Value>("nul").is_err());
        assert!(from_str::<Value>("1 2").is_err());
    }

    #[test]
    fn unicode_escapes() {
        let back: Value = from_str("\"\\u00e9\\ud83d\\ude00\"").unwrap();
        assert_eq!(back, Value::String("é😀".into()));
    }
}
