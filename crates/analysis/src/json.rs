//! A minimal, dependency-free JSON value, parser and writer, plus the
//! one-pass writer and pull reader the JSONL record lines go through.
//!
//! The campaign store needs exactly one wire format — flat-ish JSON objects,
//! one per line — and the container this workspace builds in has no network
//! access to the crates registry, so instead of `serde_json` we carry this
//! small subset. It supports the full JSON grammar (objects, arrays,
//! strings with escapes, numbers, booleans, null); object key order is
//! preserved so emitted lines are byte-stable.
//!
//! Two ways in and out share one lexer:
//!
//! * [`Json`] is a tree: [`Json::parse`] builds one and
//!   [`Json::to_string_compact`] prints one. Manifests, request bodies,
//!   reports and events read back by tools use it.
//! * [`ObjectWriter`] writes an object's keys and values straight into one
//!   `String`, and [`Reader`] walks a document field by field, borrowing
//!   keys and unescaped strings from the input. Trial records and trial
//!   events — one line per trial in `trials.jsonl`, `cache.jsonl`, cluster
//!   uploads and `/results` — go through these, with no tree in between.
//!
//! [`Json::parse`] is itself built on [`Reader`], so both accept exactly
//! the same text: the same string, number and literal rules, and the same
//! nesting bound. The lexer reads bytes from sockets and files, so it
//! bounds its recursion: a document nested deeper than [`MAX_DEPTH`]
//! arrays/objects is rejected with an error instead of overflowing the
//! thread's stack (an abort no `catch_unwind` could contain).

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`Json::parse`] and [`Reader`] accept.
/// Every document the workspace writes nests at most a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; the campaign's integer fields are
    /// all well below 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (`None` on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric value as `u64`, if this is a non-negative integer number.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(u64_of)
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Encode a **full-range** `u64` losslessly.
    ///
    /// JSON numbers are `f64` here, which silently rounds integers ≥ 2^53 —
    /// and seeds/fingerprints are uniform 64-bit values, so almost all of
    /// them would corrupt. They are therefore stored as fixed-width hex
    /// strings. [`Json::as_u64_lossless`] is the inverse.
    pub fn from_u64_lossless(v: u64) -> Json {
        Json::Str(format!("{v:016x}"))
    }

    /// Decode a value written by [`Json::from_u64_lossless`]. Plain
    /// non-negative integer numbers are also accepted (hand-written files).
    pub fn as_u64_lossless(&self) -> Option<u64> {
        match self {
            Json::Str(s) => u64_of_hex(s),
            _ => self.as_u64(),
        }
    }

    /// Render as compact JSON (no whitespace).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(v) => write_number(*v, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a complete JSON document (rejects trailing garbage).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut reader = Reader::new(text);
        let value = reader.value(0)?;
        reader.finish()?;
        Ok(value)
    }
}

/// A number as `u64` when it is a non-negative integer — what
/// [`Json::as_u64`] reads from a [`Json::Num`].
fn u64_of(v: f64) -> Option<u64> {
    (v >= 0.0 && v.fract() == 0.0).then_some(v as u64)
}

/// The hex text [`Json::from_u64_lossless`] writes, read back.
fn u64_of_hex(s: &str) -> Option<u64> {
    u64::from_str_radix(s, 16).ok()
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Append a JSON number: integers below 9·10^15 without a decimal point,
/// anything else in Rust's shortest round-trip form.
fn write_number(v: f64, out: &mut String) {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Append `v` as [`write_number`] appends `v as f64`, without the float
/// round trip for the integers it prints exactly.
fn write_u64(v: u64, out: &mut String) {
    if v >= 9_000_000_000_000_000 {
        return write_number(v as f64, out);
    }
    let mut digits = [0u8; 16];
    let mut at = digits.len();
    let mut rest = v;
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    for &d in &digits[at..] {
        out.push(d as char);
    }
}

/// Append `s` as a quoted JSON string.
fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    escape_into(s, out);
    out.push('"');
}

/// Append the `Display` text of `value` as a quoted JSON string, escaped
/// as [`write_escaped`] escapes it but with no intermediate `String`.
fn write_escaped_display(value: impl fmt::Display, out: &mut String) {
    out.push('"');
    let _ = write!(Escaping(out), "{value}");
    out.push('"');
}

/// A `fmt::Write` adapter that escapes everything written through it.
struct Escaping<'a>(&'a mut String);

impl fmt::Write for Escaping<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape_into(s, self.0);
        Ok(())
    }
}

fn escape_into(s: &str, out: &mut String) {
    // Copy runs of plain characters whole; only the rare escapes go one
    // character at a time.
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[plain..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
}

/// Writes one JSON object's keys and values straight into a `String`, in
/// call order: the one-pass form of building a [`Json::Obj`] and printing
/// it with [`Json::to_string_compact`], byte for byte.
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> ObjectWriter<'a> {
    /// Open an object at the end of `out`. [`ObjectWriter::end`] closes it.
    pub fn new(out: &'a mut String) -> ObjectWriter<'a> {
        out.push('{');
        ObjectWriter { out, empty: true }
    }

    fn key(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        write_escaped(key, self.out);
        self.out.push(':');
        self.out
    }

    /// A string field.
    pub fn str(&mut self, key: &str, value: &str) {
        write_escaped(value, self.key(key));
    }

    /// A string field holding `value`'s `Display` text.
    pub fn display(&mut self, key: &str, value: impl fmt::Display) {
        write_escaped_display(value, self.key(key));
    }

    /// An integer field, written as [`Json::Num`] of `value as f64` prints.
    pub fn u64(&mut self, key: &str, value: u64) {
        write_u64(value, self.key(key));
    }

    /// A full-range `u64` field in the [`Json::from_u64_lossless`] form.
    pub fn u64_lossless(&mut self, key: &str, value: u64) {
        let out = self.key(key);
        let _ = write!(out, "\"{value:016x}\"");
    }

    /// A boolean field.
    pub fn bool(&mut self, key: &str, value: bool) {
        self.key(key).push_str(if value { "true" } else { "false" });
    }

    /// An object field: write its fields through the returned writer and
    /// close it with [`ObjectWriter::end`] before writing the next field.
    pub fn object(&mut self, key: &str) -> ObjectWriter<'_> {
        ObjectWriter::new(self.key(key))
    }

    /// Close the object.
    pub fn end(self) {
        self.out.push('}');
    }
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// A leaf value [`Reader::scalar`] read, or the mark of an array or object
/// it checked and skipped. The accessors answer as the [`Json`] ones do for
/// the same text.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string, borrowed from the input unless it held escapes.
    Str(Cow<'a, str>),
    /// An array or object (well-formed, contents not kept).
    Composite,
}

impl Scalar<'_> {
    /// As [`Json::as_f64`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Scalar::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// As [`Json::as_u64`].
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(u64_of)
    }

    /// As [`Json::as_u64_lossless`].
    pub fn as_u64_lossless(&self) -> Option<u64> {
        match self {
            Scalar::Str(s) => u64_of_hex(s),
            _ => self.as_u64(),
        }
    }

    /// As [`Json::as_str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }

    /// As [`Json::as_bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Scalar::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// A pull reader over one JSON document: the caller walks objects key by
/// key and reads each value as the type it expects, and nothing is built
/// that the caller does not keep.
///
/// Every method skips the whitespace before its token. `depth` arguments
/// count the arrays/objects enclosing the value at the cursor (0 for the
/// document itself); a container at depth [`MAX_DEPTH`] is an error, as in
/// [`Json::parse`]. After [`Reader::next_key`] returns a key the caller
/// reads (or [`Reader::skip`]s) exactly one value before asking for the
/// next key.
///
/// ```
/// use disp_analysis::json::Reader;
/// let mut r = Reader::new(r#"{"k": 8, "x": [1, {}], "s": "a\nb"}"#);
/// r.begin_object(0).unwrap();
/// let (mut k, mut s) = (None, None);
/// while let Some(key) = r.next_key().unwrap() {
///     match &*key {
///         "k" => k = r.scalar(1).unwrap().as_u64(),
///         "s" => s = r.scalar(1).unwrap().as_str().map(str::to_owned),
///         _ => r.skip(1).unwrap(),
///     }
/// }
/// r.finish().unwrap();
/// assert_eq!((k, s.as_deref()), (Some(8), Some("a\nb")));
/// ```
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// A container was just opened and has not yielded an entry yet.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            fresh: false,
        }
    }

    /// The next non-whitespace byte, not consumed.
    pub fn peek(&mut self) -> Option<u8> {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
        self.bytes.get(self.pos).copied()
    }

    /// Require the end of the document (trailing whitespace only).
    pub fn finish(mut self) -> Result<(), String> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(format!("trailing characters at byte {}", self.pos)),
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn open(&mut self, depth: usize, b: u8) -> Result<(), String> {
        let next = self.peek();
        if depth >= MAX_DEPTH && matches!(next, Some(b'{' | b'[')) {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.expect(b)?;
        self.fresh = true;
        Ok(())
    }

    /// Whether the container being walked has another entry: consumes the
    /// `,` before it, or the `close` byte after the last one.
    fn more(&mut self, close: u8) -> Result<bool, String> {
        let fresh = std::mem::replace(&mut self.fresh, false);
        match self.peek() {
            Some(b) if b == close => {
                self.pos += 1;
                Ok(false)
            }
            _ if fresh => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(format!(
                "expected ',' or '{}' at byte {}",
                close as char, self.pos
            )),
        }
    }

    /// Open the object at the cursor; walk it with [`Reader::next_key`].
    pub fn begin_object(&mut self, depth: usize) -> Result<(), String> {
        self.open(depth, b'{')
    }

    /// The next key of the object being walked (its value follows at the
    /// cursor), or `None` after the object's closing brace.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        if !self.more(b'}')? {
            return Ok(None);
        }
        let key = self.string()?;
        self.peek();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Open the array at the cursor; walk it with [`Reader::next_item`].
    pub fn begin_array(&mut self, depth: usize) -> Result<(), String> {
        self.open(depth, b'[')
    }

    /// Whether the array being walked has another item (it follows at the
    /// cursor); `false` after the closing bracket.
    pub fn next_item(&mut self) -> Result<bool, String> {
        self.more(b']')
    }

    /// A string value, borrowed from the input when it has no escapes.
    pub fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.peek();
        self.expect(b'"')?;
        let start = self.pos;
        let run = self.bytes[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or("unterminated string")?;
        self.pos += run;
        let plain = self.slice(start)?;
        if self.bytes[self.pos] == b'"' {
            self.pos += 1;
            return Ok(Cow::Borrowed(plain));
        }
        let mut owned = plain.to_owned();
        self.escaped_rest(&mut owned)?;
        Ok(Cow::Owned(owned))
    }

    /// The input from `start` to the cursor. Both ends sit before an ASCII
    /// byte or at the end, so this only fails if a caller breaks that.
    fn slice(&self, start: usize) -> Result<&'a str, String> {
        self.text
            .get(start..self.pos)
            .ok_or_else(|| format!("cut inside a character at byte {}", self.pos))
    }

    /// The rest of a string from an escape at the cursor on.
    fn escaped_rest(&mut self, out: &mut String) -> Result<(), String> {
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let start = self.pos;
                    while !matches!(self.bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(self.slice(start)?);
                }
            }
        }
    }

    /// A number value.
    pub fn number(&mut self) -> Result<f64, String> {
        self.peek();
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
        let digits = &self.bytes[start..self.pos];
        // Up to 15 plain digits are an integer below 2^53: exact as a
        // float, so summing the digits gives what parsing the text would.
        if (1..=15).contains(&digits.len()) && digits.iter().all(u8::is_ascii_digit) {
            let value = digits
                .iter()
                .fold(0u64, |v, d| v * 10 + u64::from(d - b'0'));
            return Ok(value as f64);
        }
        let text = self.slice(start)?;
        text.parse::<f64>()
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }

    fn literal<T>(&mut self, lit: &str, value: T) -> Result<T, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// The value at the cursor as a [`Scalar`]: a leaf is read, an array
    /// or object is checked and skipped like [`Reader::skip`].
    pub fn scalar(&mut self, depth: usize) -> Result<Scalar<'a>, String> {
        match self.peek() {
            None => Err("unexpected end of input".into()),
            Some(b'{' | b'[') => self.skip(depth).map(|()| Scalar::Composite),
            Some(b'"') => self.string().map(Scalar::Str),
            Some(b't') => self.literal("true", Scalar::Bool(true)),
            Some(b'f') => self.literal("false", Scalar::Bool(false)),
            Some(b'n') => self.literal("null", Scalar::Null),
            Some(_) => self.number().map(Scalar::Num),
        }
    }

    /// Check the value at the cursor and move past it, keeping nothing.
    pub fn skip(&mut self, depth: usize) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => {
                self.begin_object(depth)?;
                while self.next_key()?.is_some() {
                    self.skip(depth + 1)?;
                }
            }
            Some(b'[') => {
                self.begin_array(depth)?;
                while self.next_item()? {
                    self.skip(depth + 1)?;
                }
            }
            _ => {
                self.scalar(depth)?;
            }
        }
        Ok(())
    }

    /// The value at the cursor as a [`Json`] tree.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => {
                self.begin_object(depth)?;
                let mut fields = Vec::new();
                while let Some(key) = self.next_key()? {
                    fields.push((key.into_owned(), self.value(depth + 1)?));
                }
                Ok(Json::Obj(fields))
            }
            Some(b'[') => {
                self.begin_array(depth)?;
                let mut items = Vec::new();
                while self.next_item()? {
                    items.push(self.value(depth + 1)?);
                }
                Ok(Json::Arr(items))
            }
            _ => Ok(match self.scalar(depth)? {
                Scalar::Null => Json::Null,
                Scalar::Bool(b) => Json::Bool(b),
                Scalar::Num(v) => Json::Num(v),
                Scalar::Str(s) => Json::Str(s.into_owned()),
                Scalar::Composite => unreachable!("containers are read above"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::Str("campaign \"q\"".into())),
            ("k".into(), Json::Num(128.0)),
            ("occ".into(), Json::Num(0.5)),
            ("ok".into(), Json::Bool(true)),
            ("none".into(), Json::Null),
            ("xs".into(), Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])),
        ]);
        let text = doc.to_string_compact();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        assert!(text.contains("\\\"q\\\""));
    }

    #[test]
    fn integers_are_emitted_without_decimal_point() {
        assert_eq!(Json::Num(128.0).to_string_compact(), "128");
        assert_eq!(Json::Num(0.5).to_string_compact(), "0.5");
        assert_eq!(Json::Num(-3.0).to_string_compact(), "-3");
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = Json::parse(" { \"a\" : [ 1 , \"x\\ny\" , null ] } ").unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Json::Arr(vec![Json::Num(1.0), Json::Str("x\ny".into()), Json::Null,])
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("123 tail").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("truex").is_err());
    }

    fn nested(depth: usize) -> String {
        "[".repeat(depth) + &"]".repeat(depth)
    }

    #[test]
    fn nesting_is_accepted_up_to_the_limit_and_rejected_past_it() {
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&objects).is_err());
    }

    #[test]
    fn a_deeply_nested_document_is_an_error_not_a_stack_overflow() {
        // 20,000 levels overflowed a default 2 MiB thread stack (a process
        // abort) before the parser bounded its recursion.
        let doc = nested(20_000);
        let result = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || Json::parse(&doc))
            .unwrap()
            .join()
            .expect("the parser must not overflow its stack");
        assert!(result.unwrap_err().contains("nesting"));
    }

    #[test]
    fn u64_round_trips_losslessly_above_2_pow_53() {
        for v in [0u64, 42, (1 << 53) + 1, u64::MAX, 0xEA02_16B0_5417_B092] {
            let j = Json::from_u64_lossless(v);
            assert_eq!(j.as_u64_lossless(), Some(v), "{v}");
            let reparsed = Json::parse(&j.to_string_compact()).unwrap();
            assert_eq!(reparsed.as_u64_lossless(), Some(v), "{v}");
        }
        // Plain small numbers are accepted too.
        assert_eq!(Json::Num(7.0).as_u64_lossless(), Some(7));
        assert_eq!(Json::Str("xyz".into()).as_u64_lossless(), None);
    }

    #[test]
    fn the_object_writer_prints_what_the_tree_prints() {
        let tree = Json::Obj(vec![
            ("a\"b".into(), Json::Str("x\\y\n\u{1}\u{7f}é".into())),
            ("n".into(), Json::Num(9_007_199_254_740_993u64 as f64)),
            ("z".into(), Json::Num(0.0)),
            ("t".into(), Json::Bool(true)),
            (
                "inner".into(),
                Json::Obj(vec![("s".into(), Json::from_u64_lossless(u64::MAX))]),
            ),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        let mut line = String::new();
        let mut w = ObjectWriter::new(&mut line);
        w.display("a\"b", "x\\y\n\u{1}\u{7f}é");
        w.u64("n", 9_007_199_254_740_993);
        w.u64("z", 0);
        w.bool("t", true);
        let mut inner = w.object("inner");
        inner.u64_lossless("s", u64::MAX);
        inner.end();
        w.object("empty").end();
        w.end();
        assert_eq!(line, tree.to_string_compact());
    }

    #[test]
    fn integers_print_as_their_float_would() {
        let mut rng = disp_rng::StdRng::seed_from_u64(0x7564);
        let edges = [
            0,
            9,
            10,
            (1 << 53) - 1,
            1 << 53,
            (1 << 53) + 1,
            8_999_999_999_999_999,
            9_000_000_000_000_000,
            u64::MAX,
        ];
        let draws = (0..2000).map(|i| rng.next_u64() >> (i % 64));
        for v in edges.into_iter().chain(draws) {
            let (mut fast, mut float) = (String::new(), String::new());
            write_u64(v, &mut fast);
            write_number(v as f64, &mut float);
            assert_eq!(fast, float, "{v}");
        }
    }

    #[test]
    fn escaping_matches_the_character_rules() {
        for c in (0u32..0x100)
            .filter_map(char::from_u32)
            .chain(['é', '€', '😀'])
        {
            let expected = match c {
                '"' => "\\\"".to_string(),
                '\\' => "\\\\".to_string(),
                '\n' => "\\n".to_string(),
                '\r' => "\\r".to_string(),
                '\t' => "\\t".to_string(),
                c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32),
                c => c.to_string(),
            };
            let text = format!("a{c}b");
            let mut out = String::new();
            write_escaped(&text, &mut out);
            assert_eq!(out, format!("\"a{expected}b\""), "{c:?}");
            assert_eq!(Json::parse(&out).unwrap(), Json::Str(text));
        }
    }

    #[test]
    fn the_reader_borrows_plain_strings_and_walks_in_any_order() {
        let text =
            r#" { "b" : [1, {"x": null}] , "a\u0062" : "p\"q", "a": "plain", "n": -2.5e1 } "#;
        let mut r = Reader::new(text);
        r.begin_object(0).unwrap();
        let mut seen = Vec::new();
        while let Some(key) = r.next_key().unwrap() {
            let value = match &*key {
                "b" => r.skip(1).map(|()| Scalar::Composite).unwrap(),
                _ => r.scalar(1).unwrap(),
            };
            seen.push((key.into_owned(), value));
        }
        r.finish().unwrap();
        assert_eq!(
            seen,
            vec![
                ("b".to_string(), Scalar::Composite),
                ("ab".to_string(), Scalar::Str(Cow::Owned("p\"q".into()))),
                ("a".to_string(), Scalar::Str(Cow::Borrowed("plain"))),
                ("n".to_string(), Scalar::Num(-25.0)),
            ]
        );
    }

    #[test]
    fn skipping_accepts_exactly_what_parsing_accepts() {
        let deep = |d: usize| "[".repeat(d) + &"]".repeat(d);
        let docs = [
            "{}".to_string(),
            "[]".into(),
            "[1,]".into(),
            "{\"a\":1,}".into(),
            "{,}".into(),
            "{\"a\" 1}".into(),
            "[1 2]".into(),
            "\"\\u12\"".into(),
            "\"\\x\"".into(),
            "00012".into(),
            "-".into(),
            "1e999".into(),
            "nul".into(),
            "{\"a\":[{\"b\":[true,false,null,\"s\",-0.5]}]} ".into(),
            deep(MAX_DEPTH),
            deep(MAX_DEPTH + 1),
            format!("{{\"k\":{}}}", deep(MAX_DEPTH - 1)),
            format!("{{\"k\":{}}}", deep(MAX_DEPTH)),
            "{\"a\":1} x".into(),
        ];
        for doc in docs {
            let mut r = Reader::new(&doc);
            let skipped = r.skip(0).and_then(|()| r.finish());
            assert_eq!(skipped.is_ok(), Json::parse(&doc).is_ok(), "{doc}");
        }
    }

    #[test]
    fn accessors_are_typed() {
        let v = Json::parse("{\"n\":3,\"f\":1.5,\"s\":\"x\",\"b\":false}").unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("f").unwrap().as_u64(), None);
        assert_eq!(v.get("f").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("missing"), None);
    }
}
