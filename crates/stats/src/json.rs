//! The harness's one JSON layer: an ordered value type, its reader and its
//! one renderer.
//!
//! The build is offline — no serde — so every document the workspace
//! writes (`tp-bench/speed/v2`, `tp-bench/metrics/v1`, …) is *built* as a
//! [`Json`] value and rendered by [`Json`]'s `Display`, and every document
//! it reads back goes through [`parse`]. Objects keep insertion order and
//! integers stay integers, so `parse(doc).to_string() == doc` for every
//! document the renderer wrote. The reader reports errors with byte
//! positions instead of panicking: `simprof --diff` runs on user-supplied
//! paths.
//!
//! # Layout
//!
//! One rule, decided by structure alone: a container is written one
//! member per line (two-space indent per depth) iff it is not inside an
//! array and it is the root, an array with an object element, or an
//! object with a member that is an array holding an object. Every other
//! container is written inline. Integers are written bare, floats with six
//! decimals (non-finite floats as `0.0`), and a rendered document ends in a
//! newline.

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal (no `.`, `e` or `E`), written bare.
    Int(i128),
    /// A floating-point number, written with six decimals.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` members, in order.
    pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Appends member `key` to an object.
    ///
    /// # Panics
    ///
    /// Panics on a non-object.
    pub fn push(&mut self, key: &str, value: impl Into<Json>) {
        match self {
            Json::Obj(m) => m.push((key.to_string(), value.into())),
            other => panic!("Json::push on a non-object: {other:?}"),
        }
    }

    /// Object member lookup; `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The object members, in order; `None` on non-objects.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The array elements; `None` on non-arrays.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string value; `None` on non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value; `None` on non-numbers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// Member `key` as a number; `None` when absent or mistyped.
    pub fn num(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(Json::as_f64)
    }

    /// Member `key` as a string; `None` when absent or mistyped.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Json::as_str)
    }

    /// Whether this container's shape asks for one member per line (when
    /// it is not inside an array): an array with an object element, or an
    /// object with a member that is such an array.
    fn holds_rows(&self) -> bool {
        let rows = |v: &[Json]| v.iter().any(|e| matches!(e, Json::Obj(_)));
        match self {
            Json::Arr(v) => rows(v),
            Json::Obj(m) => m.iter().any(|(_, v)| matches!(v, Json::Arr(a) if rows(a))),
            _ => false,
        }
    }

    /// Writes this value at nesting `depth`; `in_array` is whether any
    /// ancestor is an array.
    fn write(&self, f: &mut fmt::Formatter<'_>, depth: usize, in_array: bool) -> fmt::Result {
        let lines = !in_array && (depth == 0 || self.holds_rows());
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Num(n) if n.is_finite() => write!(f, "{n:.6}"),
            Json::Num(_) => f.write_str("0.0"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(v) => {
                write_members(f, ('[', ']'), v, depth, lines, |f, e| e.write(f, depth + 1, true))
            }
            Json::Obj(m) => write_members(f, ('{', '}'), m, depth, lines, |f, (k, v)| {
                write_str(f, k)?;
                f.write_str(": ")?;
                v.write(f, depth + 1, in_array)
            }),
        }
    }
}

/// Writes a container's members between `brackets`, one per line when
/// `lines` (indented for `depth`), else inline; empty is always `[]`/`{}`.
fn write_members<T>(
    f: &mut fmt::Formatter<'_>,
    (open, close): (char, char),
    members: &[T],
    depth: usize,
    lines: bool,
    mut member: impl FnMut(&mut fmt::Formatter<'_>, &T) -> fmt::Result,
) -> fmt::Result {
    f.write_char(open)?;
    for (i, m) in members.iter().enumerate() {
        if lines {
            f.write_str(if i == 0 { "\n" } else { ",\n" })?;
            write!(f, "{:1$}", "", 2 * (depth + 1))?;
        } else if i > 0 {
            f.write_str(", ")?;
        }
        member(f, m)?;
    }
    if lines && !members.is_empty() {
        write!(f, "\n{:1$}", "", 2 * depth)?;
    }
    f.write_char(close)
}

/// Writes `s` as a JSON string literal.
fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if c.is_control() => write!(f, "\\u{:04x}", u32::from(c))?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// Renders the value as a document: the layout rule of the module docs,
/// ending in a newline.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0, false)?;
        f.write_char('\n')
    }
}

macro_rules! from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        }
    )*};
}

from! {
    bool => |b| Json::Bool(b),
    f64 => |n| Json::Num(n),
    u32 => |i| Json::Int(i.into()),
    u64 => |i| Json::Int(i.into()),
    usize => |i| Json::Int(i as i128),
    &str => |s| Json::Str(s.to_string()),
    String => |s| Json::Str(s),
    Vec<Json> => |v| Json::Arr(v),
}

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns a message with the byte position on malformed input.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser { text: input, bytes: input.as_bytes(), pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Result<u8, String> {
        self.bytes.get(self.pos).copied().ok_or_else(|| format!("eof at byte {}", self.pos))
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        let got = self.peek()?;
        if got != b {
            return Err(format!(
                "expected {:?} at byte {}, got {:?}",
                b as char, self.pos, got as char
            ));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        let end = self.pos + word.len();
        if self.bytes.get(self.pos..end) != Some(word.as_bytes()) {
            return Err(format!("bad literal at byte {}", self.pos));
        }
        self.pos = end;
        Ok(v)
    }

    /// The members of a `open … close` container, each read by `member`.
    fn members<T>(
        &mut self,
        (open, close): (u8, u8),
        mut member: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.expect(open)?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek()? == close {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            out.push(member(self)?);
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                c if c == close => {
                    self.pos += 1;
                    return Ok(out);
                }
                c => {
                    return Err(format!(
                        "expected ',' or {:?}, got {:?} at byte {}",
                        close as char, c as char, self.pos
                    ))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        let members = self.members((b'{', b'}'), |p| {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            Ok((key, p.value()?))
        })?;
        Ok(Json::Obj(members))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.members((b'[', b']'), Self::value).map(Json::Arr)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            // Copy the run up to the next quote or escape in one piece: both
            // are ASCII, so the run ends on a character boundary.
            let rest = &self.text[self.pos..];
            let run = rest
                .find(['"', '\\'])
                .ok_or_else(|| format!("eof in string at byte {}", self.pos))?;
            s.push_str(&rest[..run]);
            self.pos += run + 1;
            if rest.as_bytes()[run] == b'"' {
                return Ok(s);
            }
            let c = self.peek()?;
            self.pos += 1;
            s.push(match c {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                // Four hex digits: how the renderer escapes other controls.
                b'u' => {
                    let hex = self.text.get(self.pos..self.pos + 4);
                    self.pos += 4;
                    hex.and_then(|h| u32::from_str_radix(h, 16).ok())
                        .and_then(char::from_u32)
                        .ok_or_else(|| format!("bad \\u escape before byte {}", self.pos))?
                }
                other => {
                    return Err(format!(
                        "unsupported escape \\{} at byte {}",
                        other as char, self.pos
                    ))
                }
            });
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        let bad = |e: &dyn fmt::Display| format!("bad number {text:?} at byte {start}: {e}");
        if text.contains(['.', 'e', 'E']) {
            text.parse().map(Json::Num).map_err(|e| bad(&e))
        } else {
            text.parse().map(Json::Int).map_err(|e| bad(&e))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_own_documents() {
        let doc =
            r#"{"schema": "tp-bench/speed/v2", "cells": [{"ipc": 1.5, "ok": true, "x": null}]}"#;
        let v = parse(doc).expect("parses");
        assert_eq!(v.str("schema"), Some("tp-bench/speed/v2"));
        let cells = v.get("cells").and_then(Json::as_array).expect("array");
        assert_eq!(cells[0].num("ipc"), Some(1.5));
        assert_eq!(cells[0].num("missing"), None);
        assert_eq!(parse(&v.to_string()), Ok(v));
        // Integer literals stay integers; anything with `.`/`e` is a float.
        let v = parse("[7, -3, 7.0, 1e3, 18446744073709551615, \"\\u0001\"]").unwrap();
        let max = i128::from(u64::MAX);
        let want = [Json::Int(7), Json::Int(-3), Json::Num(7.0), Json::Num(1e3), Json::Int(max)];
        assert_eq!(v.as_array().unwrap()[..5], want);
        assert_eq!(v.as_array().unwrap()[5].as_str(), Some("\u{1}"));
        let ints: Vec<_> = want.iter().map(Json::as_u64).collect();
        assert_eq!(ints, [Some(7), None, Some(7), Some(1000), Some(u64::MAX)]);
        assert_eq!(want[1].as_f64(), Some(-3.0));
    }

    #[test]
    fn reports_positions_on_malformed_input() {
        assert!(parse("{").unwrap_err().contains("eof"));
        assert!(parse("[1 2]").unwrap_err().contains("byte 3"));
        assert!(parse("{}x").unwrap_err().contains("trailing"));
    }

    #[test]
    fn renderer_layout_escaping_and_numbers() {
        let row = |i: u64| Json::obj([("i", i.into())]);
        let doc = Json::obj([
            ("text", "say \"hi\"\\\n".into()),
            ("nan", f64::NAN.into()),
            ("x", 0.5.into()),
            ("empty_obj", Json::obj([])),
            ("empty_arr", Json::Arr(vec![])),
            ("scalars", Json::Arr(vec![1u64.into(), 2u64.into()])),
            // An array with an object element: one element per line.
            ("rows", Json::Arr(vec![row(1), row(2)])),
            // An object holding such an array: one member per line.
            ("section", Json::obj([("tag", "t".into()), ("rows", Json::Arr(vec![row(3)]))])),
            // Inside an array everything is inline, whatever its shape.
            ("nested", Json::Arr(vec![Json::obj([("rows", Json::Arr(vec![row(4)]))])])),
            // An object without rows stays inline.
            ("flat", Json::obj([("a", 1u64.into()), ("b", Json::Null)])),
        ]);
        let want = r#"{
  "text": "say \"hi\"\\\n",
  "nan": 0.0,
  "x": 0.500000,
  "empty_obj": {},
  "empty_arr": [],
  "scalars": [1, 2],
  "rows": [
    {"i": 1},
    {"i": 2}
  ],
  "section": {
    "tag": "t",
    "rows": [
      {"i": 3}
    ]
  },
  "nested": [
    {"rows": [{"i": 4}]}
  ],
  "flat": {"a": 1, "b": null}
}
"#;
        assert_eq!(doc.to_string(), want);
        assert_eq!(Json::obj([]).to_string(), "{}\n");
        assert_eq!(parse(want).unwrap().str("text"), Some("say \"hi\"\\\n"));
    }
}
