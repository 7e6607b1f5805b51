//! The one JSON text writer of the shim serde family.
//!
//! [`JsonWriter`] renders compact or pretty (two-space indent) JSON into
//! a `String`. Typed values stream through it with
//! [`Serialize::write_json`](crate::Serialize::write_json), and a
//! [`Value`] tree renders through the same calls, so both paths produce
//! the same bytes by construction.
//!
//! The writer tracks only what separators need: the nesting depth,
//! whether the innermost container has had an item yet, and whether a
//! key is waiting for its value. Callers pair every `begin_*` with its
//! `end_*` and write exactly one value after every [`JsonWriter::key`].

use crate::value::{Number, Value};
use crate::Serialize;
use std::fmt::Write as _;

/// Streams JSON text into an owned `String`.
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    /// Spaces per nesting level; `None` writes compact JSON.
    indent: Option<usize>,
    depth: usize,
    /// No item has been written into the innermost open container yet.
    first: bool,
    /// A key was written and its value is next (no separator before it).
    after_key: bool,
}

impl JsonWriter {
    /// A writer of compact JSON (no whitespace).
    pub fn compact() -> Self {
        Self::with_indent(None)
    }

    /// A writer of pretty JSON: one item per line, two-space indent, a
    /// space after every `:`.
    pub fn pretty() -> Self {
        Self::with_indent(Some(2))
    }

    fn with_indent(indent: Option<usize>) -> Self {
        JsonWriter {
            out: String::new(),
            indent,
            depth: 0,
            first: true,
            after_key: false,
        }
    }

    /// The JSON text written so far.
    pub fn into_string(self) -> String {
        self.out
    }

    /// Reserves room for at least `additional` more bytes of text.
    pub fn reserve(&mut self, additional: usize) {
        self.out.reserve(additional);
    }

    /// Writes the separator and line break that precede a value.
    #[inline]
    fn begin_value(&mut self) {
        if self.after_key {
            self.after_key = false;
        } else if self.depth > 0 {
            if !self.first {
                self.out.push(',');
            }
            self.newline();
        }
        self.first = false;
    }

    #[inline]
    fn newline(&mut self) {
        if let Some(width) = self.indent {
            self.out.push('\n');
            let spaces = width * self.depth;
            self.out.extend(std::iter::repeat_n(' ', spaces));
        }
    }

    /// Writes `null`.
    #[inline]
    pub fn null(&mut self) {
        self.begin_value();
        self.out.push_str("null");
    }

    /// Writes `true` or `false`.
    #[inline]
    pub fn bool(&mut self, value: bool) {
        self.begin_value();
        self.out.push_str(if value { "true" } else { "false" });
    }

    /// Writes an unsigned integer.
    #[inline]
    pub fn u64(&mut self, value: u64) {
        self.begin_value();
        push_u64(&mut self.out, value);
    }

    /// Writes a signed integer.
    #[inline]
    pub fn i64(&mut self, value: i64) {
        self.begin_value();
        if value < 0 {
            self.out.push('-');
        }
        push_u64(&mut self.out, value.unsigned_abs());
    }

    /// Writes a float like `serde_json`: always with a `.` or an exponent
    /// (`2.0`, not `2`), and `null` for NaN and the infinities, which
    /// JSON cannot represent.
    pub fn f64(&mut self, value: f64) {
        self.begin_value();
        if value.is_finite() {
            let start = self.out.len();
            write!(self.out, "{value}").expect("writing to a String cannot fail");
            if !self.out[start..].contains(['.', 'e', 'E']) {
                self.out.push_str(".0");
            }
        } else {
            self.out.push_str("null");
        }
    }

    /// Writes a string, escaped.
    #[inline]
    pub fn str(&mut self, value: &str) {
        self.begin_value();
        push_escaped(&mut self.out, value);
    }

    /// Writes compact JSON text that some writer already produced, as one
    /// value. Only a compact writer splices it byte-identically.
    pub fn raw(&mut self, json: &str) {
        self.begin_value();
        self.out.push_str(json);
    }

    /// Opens an array; write its items, then [`JsonWriter::end_array`].
    #[inline]
    pub fn begin_array(&mut self) {
        self.begin_value();
        self.out.push('[');
        self.open();
    }

    /// Closes the innermost array.
    #[inline]
    pub fn end_array(&mut self) {
        self.close(']');
    }

    /// Opens an object; write [`JsonWriter::key`]/value pairs, then
    /// [`JsonWriter::end_object`].
    #[inline]
    pub fn begin_object(&mut self) {
        self.begin_value();
        self.out.push('{');
        self.open();
    }

    /// Closes the innermost object.
    #[inline]
    pub fn end_object(&mut self) {
        self.close('}');
    }

    #[inline]
    fn open(&mut self) {
        self.depth += 1;
        self.first = true;
    }

    /// An empty container closes on its own line: `[]`, `{}`.
    #[inline]
    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if !self.first {
            self.newline();
        }
        self.out.push(bracket);
        self.first = false;
    }

    /// Writes an object key; the next value written is its value.
    #[inline]
    pub fn key(&mut self, key: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.newline();
        self.first = false;
        push_escaped(&mut self.out, key);
        self.out.push(':');
        if self.indent.is_some() {
            self.out.push(' ');
        }
        self.after_key = true;
    }

    /// Writes one `key: value` member of the innermost object.
    #[inline]
    pub fn field<T: Serialize + ?Sized>(&mut self, key: &str, value: &T) {
        self.key(key);
        value.write_json(self);
    }

    /// Writes a [`Value`] tree.
    pub fn value(&mut self, value: &Value) {
        match value {
            Value::Null => self.null(),
            Value::Bool(b) => self.bool(*b),
            Value::Number(Number::UInt(v)) => self.u64(*v),
            Value::Number(Number::Int(v)) => self.i64(*v),
            Value::Number(Number::Float(v)) => self.f64(*v),
            Value::String(s) => self.str(s),
            Value::Array(items) => {
                self.begin_array();
                for item in items {
                    self.value(item);
                }
                self.end_array();
            }
            Value::Object(pairs) => {
                self.begin_object();
                for (key, item) in pairs {
                    self.key(key);
                    self.value(item);
                }
                self.end_object();
            }
        }
    }
}

/// Appends the decimal digits of `value` without an allocation.
#[inline]
fn push_u64(out: &mut String, mut value: u64) {
    if value < 10 {
        out.push(char::from(b'0' + value as u8));
        return;
    }
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    while value > 0 {
        start -= 1;
        digits[start] = b'0' + (value % 10) as u8;
        value /= 10;
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// Appends `s` as a quoted JSON string. Runs that need no escape are
/// copied whole; every escaped byte is ASCII, so the runs split on
/// character boundaries.
fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &byte) in bytes.iter().enumerate() {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0C => "\\f",
            0..=0x1F => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            write!(out, "\\u{byte:04x}").expect("writing to a String cannot fail");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compact(value: &Value) -> String {
        let mut w = JsonWriter::compact();
        w.value(value);
        w.into_string()
    }

    fn pretty(value: &Value) -> String {
        let mut w = JsonWriter::pretty();
        w.value(value);
        w.into_string()
    }

    #[test]
    fn integers_cover_the_full_ranges() {
        for (n, text) in [
            (Number::UInt(0), "0"),
            (Number::UInt(9), "9"),
            (Number::UInt(10), "10"),
            (Number::UInt(u64::MAX), "18446744073709551615"),
            (Number::Int(-1), "-1"),
            (Number::Int(i64::MIN), "-9223372036854775808"),
        ] {
            assert_eq!(compact(&Value::Number(n)), text);
        }
    }

    #[test]
    fn floats_match_serde_json() {
        for (v, text) in [
            (2.0, "2.0"),
            (-0.0, "-0.0"),
            (1.5, "1.5"),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
        ] {
            assert_eq!(compact(&Value::Number(Number::Float(v))), text);
        }
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_control_characters() {
        let text = compact(&Value::String(
            "a\"b\\c\n\r\t\u{8}\u{c}\u{1}\u{1f}é😀".into(),
        ));
        assert_eq!(text, "\"a\\\"b\\\\c\\n\\r\\t\\b\\f\\u0001\\u001fé😀\"");
    }

    #[test]
    fn pretty_output_indents_and_keeps_empty_containers_inline() {
        let value = Value::Object(vec![
            ("a".into(), Value::Array(vec![])),
            ("b".into(), Value::Object(vec![])),
            (
                "c".into(),
                Value::Array(vec![Value::Null, Value::Array(vec![Value::Bool(true)])]),
            ),
        ]);
        assert_eq!(
            pretty(&value),
            "{\n  \"a\": [],\n  \"b\": {},\n  \"c\": [\n    null,\n    [\n      true\n    ]\n  ]\n}"
        );
        assert_eq!(compact(&value), "{\"a\":[],\"b\":{},\"c\":[null,[true]]}");
    }
}
