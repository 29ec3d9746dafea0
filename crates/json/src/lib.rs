//! # tacc-json
//!
//! The workspace's one JSON implementation: one value type ([`Json`]),
//! one parser ([`parse`]), one compact printer ([`Json::write`], and
//! `Display` over it), one pretty printer ([`Json::to_pretty`]), and the
//! string escaper ([`write_escaped`]) and number printer ([`write_num`])
//! both are built on, open to writers that stream a record into a
//! [`TextSink`] without building a tree. A [`Cursor`] reads such a
//! record back the same way. Those writers and readers are not written
//! by hand: [`record!`] generates them, with the tree writer and the
//! tree reader, from one declaration of a record's shape. Standard
//! library only.
//!
//! Two byte formats are contracts. The compact form is the `taccd`
//! journal and socket encoding: a journal written today must re-parse
//! forever. The pretty form is the golden-snapshot and `BENCH_*.json`
//! format that `experiments --check` compares byte for byte. Both keep
//! object keys in insertion order and print floats through `f64`'s
//! `Display`, which is the shortest decimal that `str::parse` reads back
//! to the same bits (both are exactly rounded), so a value survives
//! print → parse → print unchanged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

mod record;

pub use record::{from_text, tags, Field, Named, OrDefault, Plain};

/// A parsed JSON value. Objects keep their key order, so a value built
/// and re-serialized in tree order is byte-stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`; integers up to 2^53 survive).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Wraps a float for a snapshot: a non-finite value (the mean of an
    /// empty sample set, say) becomes the descriptive string `"NaN"`,
    /// `"+inf"` or `"-inf"`.
    pub fn num(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(v)
        } else if v.is_nan() {
            Json::Str("NaN".to_owned())
        } else if v > 0.0 {
            Json::Str("+inf".to_owned())
        } else {
            Json::Str("-inf".to_owned())
        }
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number. The printer spells a non-finite `Num` as
    /// the string `"inf"`, `"-inf"` or `"nan"` (JSON has no such
    /// numbers), so those three strings read back as numbers *here* —
    /// not in [`parse`], where they would turn a job named `inf` into
    /// a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Str(s) => match s.as_str() {
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                "nan" => Some(f64::NAN),
                _ => None,
            },
            _ => None,
        }
    }

    /// The value as an unsigned integer (rejects fractions and negatives).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9.007_199_254_740_992e15 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string in field `key`, or an error naming the field.
    pub fn req_str(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing or non-string field '{key}'"))
    }

    /// Streams the compact text — what `to_string()` prints — into
    /// `out`, for a writer that puts a tree inside text of its own.
    pub fn write<W: TextSink + ?Sized>(&self, out: &mut W) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push_str("[");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",");
                    }
                    item.write(out);
                }
                out.push_str("]");
            }
            Json::Obj(fields) => {
                out.push_str("{");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",");
                    }
                    write_escaped(k, out);
                    out.push_str(":");
                    v.write(out);
                }
                out.push_str("}");
            }
        }
    }

    /// Serializes with 2-space indentation and a trailing newline — the
    /// golden-file format.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                // Arrays of scalars stay on one line; nested structures
                // get one element per line.
                let scalar = items
                    .iter()
                    .all(|i| !matches!(i, Json::Arr(_) | Json::Obj(_)));
                if scalar {
                    self.write(out);
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write_pretty(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str(&"  ".repeat(indent + 1));
                    write_escaped(k, out);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                    if i + 1 < pairs.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

/// `Display` (and thus `.to_string()`) is the byte-stable journal/wire
/// encoding: compact (no whitespace), object keys in insertion order.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = Formatted { f, result: Ok(()) };
        self.write(&mut out);
        out.result
    }
}

/// Where the printers put JSON text: a `String`, or a byte buffer that
/// already holds something else ahead of it (a frame header, say).
pub trait TextSink {
    /// Appends `text`.
    fn push_str(&mut self, text: &str);
}

impl TextSink for String {
    fn push_str(&mut self, text: &str) {
        String::push_str(self, text);
    }
}

impl TextSink for Vec<u8> {
    fn push_str(&mut self, text: &str) {
        self.extend_from_slice(text.as_bytes());
    }
}

/// A formatter as a sink: the first error stops the writing and is what
/// `Display::fmt` returns.
struct Formatted<'a, 'b> {
    f: &'a mut fmt::Formatter<'b>,
    result: fmt::Result,
}

impl TextSink for Formatted<'_, '_> {
    fn push_str(&mut self, text: &str) {
        if self.result.is_ok() {
            self.result = self.f.write_str(text);
        }
    }
}

/// A sink as a `fmt::Write`, for the values `std` formats.
struct Std<'a, W: ?Sized>(&'a mut W);

impl<W: TextSink + ?Sized> fmt::Write for Std<'_, W> {
    fn write_str(&mut self, text: &str) -> fmt::Result {
        self.0.push_str(text);
        Ok(())
    }
}

/// Appends `n` in the crate's one number syntax. A finite value prints
/// as Rust's `Display` for `f64` does: the shortest decimal string that
/// parses back to the same bits, so the journal round-trips timestamps
/// exactly. Non-finite values use the JSON-compatible string spellings
/// `"inf"`/`"-inf"`/`"nan"` — they only appear in open-ended reservation
/// windows.
pub fn write_num<W: TextSink + ?Sized>(n: f64, out: &mut W) {
    use fmt::Write as _;
    // Ids, counts and sizes are integral; up to 2^53 an `i64` prints the
    // same digits without the float formatter. `-0.0` prints as `-0`,
    // which no integer does.
    let int = n as i64;
    if int as f64 == n && int.unsigned_abs() <= 1 << 53 && (int != 0 || n.is_sign_positive()) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut rest = int.unsigned_abs();
        loop {
            at -= 1;
            digits[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        if int < 0 {
            at -= 1;
            digits[at] = b'-';
        }
        out.push_str(std::str::from_utf8(&digits[at..]).unwrap_or_default());
    } else if n.is_nan() {
        out.push_str("\"nan\"");
    } else if n.is_infinite() {
        out.push_str(if n > 0.0 { "\"inf\"" } else { "\"-inf\"" });
    } else {
        let _ = write!(Std(out), "{n}");
    }
}

/// How each control byte is spelled inside a string literal.
#[rustfmt::skip]
const CONTROL_ESCAPES: [&str; 0x20] = [
    "\\u0000", "\\u0001", "\\u0002", "\\u0003", "\\u0004", "\\u0005", "\\u0006", "\\u0007",
    "\\u0008", "\\t", "\\n", "\\u000b", "\\u000c", "\\r", "\\u000e", "\\u000f",
    "\\u0010", "\\u0011", "\\u0012", "\\u0013", "\\u0014", "\\u0015", "\\u0016", "\\u0017",
    "\\u0018", "\\u0019", "\\u001a", "\\u001b", "\\u001c", "\\u001d", "\\u001e", "\\u001f",
];

/// Appends `s` to `out` as a JSON string literal, quoted and escaped.
/// Runs of characters that need no escape are copied whole.
pub fn write_escaped<W: TextSink + ?Sized>(s: &str, out: &mut W) {
    out.push_str("\"");
    // Every escaped byte is ASCII, so `run` and `i` are character
    // boundaries of `s`.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            0x20.. => continue,
            _ => CONTROL_ESCAPES[usize::from(b)],
        };
        out.push_str(&s[run..i]);
        out.push_str(escape);
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push_str("\"");
}

/// Where and why parsing a JSON text failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What the parser expected.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON value from `text` (trailing whitespace allowed,
/// trailing garbage rejected).
///
/// # Errors
///
/// [`JsonError`] with the byte offset of the first problem.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut pos = 0;
    let value = parse_value(text, &mut pos, 0)?;
    skip_ws(text.as_bytes(), &mut pos);
    if pos != text.len() {
        return Err(JsonError {
            at: pos,
            message: "trailing characters after the value",
        });
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Containers may nest this deep and no deeper (`serde_json`'s default):
/// the parser recurses per level, and an unbounded `[[[[…` from a socket
/// would otherwise overflow the stack.
const MAX_DEPTH: usize = 128;

fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    if depth > MAX_DEPTH {
        return Err(JsonError {
            at: *pos,
            message: "nesting deeper than 128 levels",
        });
    }
    skip_ws(bytes, pos);
    let Some(&b) = bytes.get(*pos) else {
        return Err(JsonError {
            at: *pos,
            message: "unexpected end of input",
        });
    };
    match b {
        b'n' => parse_lit(bytes, pos, "null", Json::Null),
        b't' => parse_lit(bytes, pos, "true", Json::Bool(true)),
        b'f' => parse_lit(bytes, pos, "false", Json::Bool(false)),
        b'"' => parse_string(text, pos).map(Json::Str),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => {
                        return Err(JsonError {
                            at: *pos,
                            message: "expected ',' or ']' in array",
                        })
                    }
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b'"') {
                    return Err(JsonError {
                        at: *pos,
                        message: "expected a string key",
                    });
                }
                let key = parse_string(text, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(JsonError {
                        at: *pos,
                        message: "expected ':' after object key",
                    });
                }
                *pos += 1;
                let value = parse_value(text, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => {
                        return Err(JsonError {
                            at: *pos,
                            message: "expected ',' or '}' in object",
                        })
                    }
                }
            }
        }
        b'-' | b'0'..=b'9' => parse_number(bytes, pos),
        _ => Err(JsonError {
            at: *pos,
            message: "unexpected character",
        }),
    }
}

fn parse_lit(
    bytes: &[u8],
    pos: &mut usize,
    lit: &'static str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(JsonError {
            at: *pos,
            message: "invalid literal",
        })
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
        *pos += 1;
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    }
    if matches!(bytes.get(*pos), Some(b'e') | Some(b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+') | Some(b'-')) {
            *pos += 1;
        }
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| JsonError {
        at: start,
        message: "invalid number bytes",
    })?;
    text.parse::<f64>().map(Json::Num).map_err(|_| JsonError {
        at: start,
        message: "invalid number",
    })
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, JsonError> {
    let bytes = text.as_bytes();
    // Caller checked the opening quote.
    *pos += 1;
    let mut out = String::new();
    loop {
        // Everything up to the next quote or backslash is copied at
        // once; both are ASCII, so the run ends on a character boundary.
        let run = *pos;
        while !matches!(bytes.get(*pos), None | Some(b'"' | b'\\')) {
            *pos += 1;
        }
        out.push_str(&text[run..*pos]);
        match bytes.get(*pos) {
            None => {
                return Err(JsonError {
                    at: *pos,
                    message: "unterminated string",
                })
            }
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => *pos += 1, // the backslash
        }
        let Some(&esc) = bytes.get(*pos) else {
            return Err(JsonError {
                at: *pos,
                message: "unterminated escape",
            });
        };
        *pos += 1;
        match esc {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'u' => {
                let hi = parse_hex4(bytes, pos)?;
                // A surrogate pair encodes one astral-plane
                // character; a lone surrogate is no character.
                let code = if (0xD800..0xDC00).contains(&hi) && bytes[*pos..].starts_with(b"\\u") {
                    *pos += 2;
                    match parse_hex4(bytes, pos)? {
                        lo @ 0xDC00..=0xDFFF => 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00),
                        _ => hi, // still lone: rejected below
                    }
                } else {
                    hi
                };
                out.push(char::from_u32(code).ok_or(JsonError {
                    at: *pos,
                    message: "unpaired surrogate in \\u escape",
                })?);
            }
            _ => {
                return Err(JsonError {
                    at: *pos,
                    message: "unknown escape",
                })
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, JsonError> {
    let hex = bytes.get(*pos..*pos + 4).ok_or(JsonError {
        at: *pos,
        message: "short \\u escape",
    })?;
    let hex = std::str::from_utf8(hex).map_err(|_| JsonError {
        at: *pos,
        message: "invalid \\u escape",
    })?;
    let code = u32::from_str_radix(hex, 16).map_err(|_| JsonError {
        at: *pos,
        message: "invalid \\u escape",
    })?;
    *pos += 4;
    Ok(code)
}

/// Reads JSON text back in the one spelling a streaming writer put into
/// a [`TextSink`], with no tree in between: the mirror of those
/// writers, for the readers that must be fast (journal recovery).
///
/// Each step consumes exactly what it names or answers `None`. Whatever
/// a step reads, [`parse`] and the [`Json`] accessors read as the same
/// value, because the steps are built on them; a caller that gets
/// `None` falls back to [`parse`], which reads every spelling.
#[derive(Debug)]
pub struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `text`.
    pub fn new(text: &'a str) -> Cursor<'a> {
        Cursor { text, pos: 0 }
    }

    /// Consumes `lit` if the text goes on with it; says whether it did.
    #[inline]
    pub fn eat(&mut self, lit: &str) -> bool {
        let found = self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes());
        if found {
            self.pos += lit.len();
        }
        found
    }

    /// Consumes `lit`, which the text must go on with.
    #[inline]
    pub fn lit(&mut self, lit: &str) -> Option<()> {
        self.eat(lit).then_some(())
    }

    /// A number as [`write_num`] spells it — a number token, or one of
    /// the three non-finite strings — read as [`Json::as_f64`] reads it.
    pub fn num(&mut self) -> Option<f64> {
        match self.text.as_bytes().get(self.pos) {
            Some(b'"') => Json::Str(self.str()?.to_owned()).as_f64(),
            _ => self.token()?.as_f64(),
        }
    }

    /// A number token read as [`Json::as_u64`] reads it.
    pub fn u64(&mut self) -> Option<u64> {
        self.token()?.as_u64()
    }

    /// [`Cursor::u64`], narrowed to `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        u32::try_from(self.u64()?).ok()
    }

    /// A string literal without escapes, borrowed from the text.
    pub fn str(&mut self) -> Option<&'a str> {
        let bytes = self.text.as_bytes();
        if bytes.get(self.pos) != Some(&b'"') {
            return None;
        }
        let start = self.pos + 1;
        let end = start
            + bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')?;
        if bytes[end] != b'"' {
            return None;
        }
        self.pos = end + 1;
        // Both quotes are ASCII, so the slice ends on character boundaries.
        Some(&self.text[start..end])
    }

    /// How many items the array at the cursor holds, counted without
    /// reading them or moving the cursor: what a reader that fills a
    /// slice of the right length at once needs first. `None` for
    /// anything but an array, closed, whose strings have no escapes —
    /// the spelling [`Cursor::str`] reads.
    pub(crate) fn items(&self) -> Option<usize> {
        let bytes = self.text.as_bytes().get(self.pos..)?;
        if bytes.first() != Some(&b'[') {
            return None;
        }
        let (mut depth, mut commas, mut at) = (0usize, 0usize, 0);
        while let Some(&b) = bytes.get(at) {
            match b {
                b'"' => {
                    let len = bytes[at + 1..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')?;
                    at += len + 1;
                    if bytes[at] != b'"' {
                        return None;
                    }
                }
                b'[' | b'{' => depth += 1,
                b']' | b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(if at == 1 { 0 } else { commas + 1 });
                    }
                }
                b',' if depth == 1 => commas += 1,
                _ => {}
            }
            at += 1;
        }
        None
    }

    /// True once the whole text is consumed.
    pub fn at_end(&self) -> bool {
        self.pos == self.text.len()
    }

    fn token(&mut self) -> Option<Json> {
        match self.text.as_bytes().get(self.pos) {
            Some(b'-' | b'0'..=b'9') => parse_number(self.text.as_bytes(), &mut self.pos).ok(),
            _ => None,
        }
    }
}

/// Convenience: builds an object from key/value pairs in order.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::num(v as f64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        obj(vec![
            ("name", Json::Str("job \"zero\"\n".to_owned())),
            ("n", Json::Num(42.0)),
            ("pi", Json::Num(3.5)),
            ("neg", Json::Num(-0.125)),
            ("big", Json::Num(1e6)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            (
                "list",
                Json::Arr(vec![Json::Num(1.0), Json::Str("two".to_owned())]),
            ),
            ("nested", obj(vec![("deep", Json::Num(-2.25e3))])),
        ])
    }

    #[test]
    fn compact_shapes() {
        let v = obj(vec![
            ("a", Json::num(1.5)),
            ("b", Json::Arr(vec![Json::num(1.0), "x".into()])),
            ("c", Json::Bool(true)),
        ]);
        assert_eq!(v.to_string(), r#"{"a":1.5,"b":[1,"x"],"c":true}"#);
    }

    #[test]
    fn escaping() {
        let v = Json::Str("a\"b\\c\nd\u{1}é".to_owned());
        assert_eq!(v.to_string(), "\"a\\\"b\\\\c\\nd\\u0001é\"");
        let mut streamed = String::new();
        write_escaped("a\"b\\c\nd\u{1}é", &mut streamed);
        assert_eq!(streamed, v.to_string());
    }

    #[test]
    fn round_trips_both_printers() {
        let v = sample();
        let text = v.to_string();
        let back = parse(&text).expect("parses");
        assert_eq!(v, back);
        // Byte-stable: serialize → parse → serialize is the identity.
        assert_eq!(back.to_string(), text);
        assert_eq!(parse(&v.to_pretty()), Ok(v));
    }

    #[test]
    fn every_value_kind_reads_back_through_its_accessor() {
        let back = parse(&sample().to_string()).expect("parses");
        assert_eq!(
            back.get("name").and_then(Json::as_str),
            Some("job \"zero\"\n")
        );
        assert_eq!(back.get("n").and_then(Json::as_u64), Some(42));
        assert_eq!(back.get("pi").and_then(Json::as_f64), Some(3.5));
        assert_eq!(back.get("neg").and_then(Json::as_f64), Some(-0.125));
        assert_eq!(back.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(back.get("none"), Some(&Json::Null));
        let list = back.get("list").and_then(Json::as_arr).expect("array");
        assert_eq!(list[0].as_u64(), Some(1));
        assert_eq!(list[1].as_str(), Some("two"));
        let deep = back.get("nested").and_then(|n| n.get("deep"));
        assert_eq!(deep.and_then(Json::as_f64), Some(-2250.0));
        assert_eq!(back.get("missing"), None);
        assert_eq!(Json::Null.get("name"), None);
        // Fractions and negatives are not unsigned integers.
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-2.0).as_u64(), None);
    }

    #[test]
    fn nonfinite_numbers_print_as_strings_and_stay_strings_when_parsed() {
        for (n, spelled) in [
            (f64::INFINITY, "\"inf\""),
            (f64::NEG_INFINITY, "\"-inf\""),
            (f64::NAN, "\"nan\""),
        ] {
            let text = Json::Num(n).to_string();
            assert_eq!(text, spelled);
            let back = parse(&text).expect("parses");
            // A string on the wire is a string in the tree: a job may be
            // named `inf`.
            assert_eq!(back.as_str(), Some(spelled.trim_matches('"')));
            let read = back.as_f64().expect("numeric reading");
            assert!(read == n || (read.is_nan() && n.is_nan()));
            // …and the bytes are stable through the round trip.
            assert_eq!(back.to_string(), text);
        }
        assert_eq!(Json::Str("infinity".to_owned()).as_f64(), None);
    }

    #[test]
    fn snapshot_constructor_spells_nonfinite_values() {
        assert_eq!(Json::num(f64::NAN), Json::Str("NaN".into()));
        assert_eq!(Json::num(f64::INFINITY), Json::Str("+inf".into()));
        assert_eq!(Json::num(f64::NEG_INFINITY), Json::Str("-inf".into()));
        assert_eq!(Json::from(512usize).to_string(), "512");
    }

    #[test]
    fn floats_print_shortest_and_round_trip_exactly() {
        for (n, text) in [
            (0.1, "0.1".to_owned()),
            (1.0 / 3.0, "0.3333333333333333".to_owned()),
            (512.0, "512".to_owned()),
            (1e21, "1000000000000000000000".to_owned()),
            (-0.0, "-0".to_owned()),
            (5e-324, format!("0.{}5", "0".repeat(323))),
        ] {
            assert_eq!(Json::Num(n).to_string(), text);
            let back = parse(&text).expect("parses").as_f64().expect("number");
            assert_eq!(back.to_bits(), n.to_bits(), "{n} mangled via {text}");
        }
        for n in [123456789.123456, f64::MAX, f64::MIN_POSITIVE] {
            let text = Json::Num(n).to_string();
            let back = parse(&text).expect("parses").as_f64().expect("number");
            assert_eq!(back.to_bits(), n.to_bits(), "{n} mangled via {text}");
        }
    }

    // ----------------------------------------------------------------
    // The character-at-a-time routines the run-copying ones replaced,
    // kept as oracles for the sweeps below.
    // ----------------------------------------------------------------

    fn write_escaped_charwise(s: &str, out: &mut String) {
        use fmt::Write as _;
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    fn parse_string_charwise(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
        let fail = |at: usize, message: &'static str| Err(JsonError { at, message });
        *pos += 1;
        let mut out = String::new();
        loop {
            let Some(&b) = bytes.get(*pos) else {
                return fail(*pos, "unterminated string");
            };
            match b {
                b'"' => {
                    *pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    *pos += 1;
                    let Some(&esc) = bytes.get(*pos) else {
                        return fail(*pos, "unterminated escape");
                    };
                    *pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hi = parse_hex4(bytes, pos)?;
                            let code = if (0xD800..0xDC00).contains(&hi)
                                && bytes[*pos..].starts_with(b"\\u")
                            {
                                *pos += 2;
                                match parse_hex4(bytes, pos)? {
                                    lo @ 0xDC00..=0xDFFF => {
                                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                    }
                                    _ => hi,
                                }
                            } else {
                                hi
                            };
                            let Some(c) = char::from_u32(code) else {
                                return fail(*pos, "unpaired surrogate in \\u escape");
                            };
                            out.push(c);
                        }
                        _ => return fail(*pos, "unknown escape"),
                    }
                }
                first => {
                    let ch_len = match first {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let chunk = bytes.get(*pos..*pos + ch_len);
                    let Some(Ok(ch)) = chunk.map(std::str::from_utf8) else {
                        return fail(*pos, "invalid UTF-8");
                    };
                    out.push_str(ch);
                    *pos += ch_len;
                }
            }
        }
    }

    /// xorshift64: this crate sits below `tacc-sim`, so the sweeps seed
    /// themselves; a failure prints its case number.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
            from[(self.next() % from.len() as u64) as usize]
        }
    }

    #[test]
    fn escaper_matches_the_charwise_oracle_on_hostile_strings() {
        const PIECES: &[&str] = &[
            "a",
            "Zz",
            " ",
            "\"",
            "\\",
            "\n",
            "\r",
            "\t",
            "\u{0}",
            "\u{1}",
            "\u{1f}",
            "\u{7f}",
            "é",
            "→",
            "\u{1f600}",
            "/",
            "inf",
            "nan",
        ];
        let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
        for case in 0..4_000 {
            let s: String = (0..rng.next() % 12).map(|_| rng.pick(PIECES)).collect();
            let mut slow = String::new();
            write_escaped_charwise(&s, &mut slow);
            let mut text = String::new();
            write_escaped(&s, &mut text);
            assert_eq!(text, slow, "case {case}: {s:?}");
            let mut bytes = Vec::new();
            write_escaped(&s, &mut bytes);
            assert_eq!(bytes, slow.as_bytes(), "case {case}: {s:?} into bytes");
            assert_eq!(Json::Str(s.clone()).to_string(), slow, "case {case}: {s:?}");
            assert_eq!(parse(&slow), Ok(Json::Str(s)), "case {case}");
        }
    }

    #[test]
    fn string_parser_matches_the_charwise_oracle_on_hostile_literals() {
        // Raw text between the quotes: escapes of every kind, legal and
        // not, beside bytes that pass through verbatim.
        const PIECES: &[&str] = &[
            "a",
            "Zz",
            " ",
            "\\\"",
            "\\\\",
            "\\/",
            "\\n",
            "\\r",
            "\\t",
            "\\b",
            "\\f",
            "\\u00e9",
            "\\u0041",
            "\\ud83d\\ude00",
            "\\ud800",
            "\\udc00",
            "\\ud83dx",
            "\\q",
            "\\u12",
            "\\uzzzz",
            "\u{1}",
            "\n",
            "\u{7f}",
            "é",
            "→",
            "\u{1f600}",
        ];
        let mut rng = XorShift(0xD1B5_4A32_D192_ED03);
        for case in 0..2_000 {
            let mut literal = String::from("\"");
            for _ in 0..rng.next() % 10 {
                literal.push_str(rng.pick(PIECES));
            }
            literal.push('"');
            // Every prefix too: an unterminated string, a trailing
            // backslash, a \\u escape cut short.
            for cut in (1..=literal.len()).filter(|&cut| literal.is_char_boundary(cut)) {
                let text = &literal[..cut];
                let (mut fast_at, mut slow_at) = (0, 0);
                let fast = parse_string(text, &mut fast_at);
                let slow = parse_string_charwise(text.as_bytes(), &mut slow_at);
                assert_eq!(fast, slow, "case {case}: {text:?}");
                if fast.is_ok() {
                    assert_eq!(fast_at, slow_at, "case {case}: {text:?}");
                }
            }
        }
    }

    #[test]
    fn number_printer_matches_display_at_every_boundary() {
        let two53 = 9_007_199_254_740_992.0_f64;
        let mut cases = vec![
            0.0,
            0.5,
            1.0,
            9.0,
            10.0,
            1e15,
            1e16,
            1e21,
            1e22,
            two53 - 1.0,
            two53,
            two53 + 2.0,
            4_503_599_627_370_496.5,
            i64::MAX as f64,
            u64::MAX as f64,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            5e-324,
            1.0 / 3.0,
            1234.0625,
        ];
        // Both neighbours of every boundary, then both signs of it all.
        for n in cases.clone() {
            cases.push(f64::from_bits(n.to_bits() + 1));
            cases.push(f64::from_bits(n.to_bits().saturating_sub(1)));
        }
        for n in cases.clone() {
            cases.push(-n);
        }
        let mut rng = XorShift(0x2545_F491_4F6C_DD1D);
        for _ in 0..4_000 {
            let bits = rng.next();
            cases.push(f64::from_bits(bits));
            cases.push((bits >> (bits % 64)) as f64);
            cases.push(-((bits >> (bits % 64)) as f64) / 8.0);
        }
        for n in cases.into_iter().filter(|n| n.is_finite()) {
            let mut text = String::new();
            write_num(n, &mut text);
            assert_eq!(text, format!("{n}"), "bits {:#018x}", n.to_bits());
        }
    }

    #[test]
    fn cursor_steps_read_what_parse_and_the_accessors_read() {
        /// One step over the whole of `text`.
        fn whole<'a, T>(
            text: &'a str,
            step: impl FnOnce(&mut Cursor<'a>) -> Option<T>,
        ) -> Option<T> {
            let mut cursor = Cursor::new(text);
            step(&mut cursor).filter(|_| cursor.at_end())
        }
        // A step may leave a text to `parse`; what it does read, `parse`
        // and the accessor read the same.
        for text in [
            "0",
            "-0",
            "007",
            "1.",
            "1e2",
            "-",
            "0.1",
            "1e400",
            "9007199254740993",
            "-1",
            "4294967296",
            "\"inf\"",
            "\"-inf\"",
            "\"nan\"",
            "\"in\\u0066\"",
            "\"x\"",
            "null",
        ] {
            let tree = parse(text).ok();
            let tree = tree.as_ref();
            let num = whole(text, Cursor::num);
            let tree_num = tree.and_then(Json::as_f64);
            assert!(
                num.is_none() || format!("{num:?}") == format!("{tree_num:?}"),
                "{text}"
            );
            let n = whole(text, Cursor::u64);
            assert!(
                n.is_none() || n == tree.and_then(Json::as_u64),
                "u64: {text}"
            );
            let n = whole(text, Cursor::u32).map(u64::from);
            assert!(
                n.is_none() || n == tree.and_then(Json::as_u64),
                "u32: {text}"
            );
            let s = whole(text, Cursor::str);
            assert!(
                s.is_none() || s == tree.and_then(Json::as_str),
                "str: {text}"
            );
        }
        // The spellings the journal writes are read, not left to `parse`.
        assert_eq!(whole("\"-inf\"", Cursor::num), Some(f64::NEG_INFINITY));
        assert_eq!(whole("0.1", Cursor::num), Some(0.1));
        assert_eq!(whole("4294967295", Cursor::u32), Some(u32::MAX));
        assert_eq!(whole("4294967296", Cursor::u32), None);
        assert_eq!(whole("\"x\"", Cursor::str), Some("x"));
        assert_eq!(whole("\"in\\u0066\"", Cursor::str), None);
        let mut cursor = Cursor::new("{\"a\":1}");
        assert!(!cursor.eat("{\"b\""));
        assert_eq!(cursor.lit("{\"a\":"), Some(()));
        assert_eq!(cursor.u64(), Some(1));
        assert!(cursor.eat("}") && cursor.at_end());
    }

    #[test]
    fn pretty_reproduces_a_committed_golden_byte_for_byte() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../bench/golden/t1.json");
        let golden = std::fs::read_to_string(path).expect("golden is committed");
        assert_eq!(parse(&golden).expect("parses").to_pretty(), golden);
    }

    #[test]
    fn pretty_nests_structures_and_inlines_scalar_arrays() {
        let v = obj(vec![(
            "rows",
            Json::Arr(vec![Json::Arr(vec![Json::num(1.0)]), Json::Arr(vec![])]),
        )]);
        assert_eq!(
            v.to_pretty(),
            "{\n  \"rows\": [\n    [1],\n    []\n  ]\n}\n"
        );
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(
            parse(r#""a\u0041\ud83d\ude00b""#),
            Ok(Json::Str("aA\u{1f600}b".to_owned()))
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{bad",
            "[1,",
            "[1,]",
            "{\"a\":}",
            "tru",
            "nul",
            "1.2.3",
            "\"abc",
            "{} extra",
            "\"\\q\"",
            "\"\\ud800x\"",
            "\"\\ud800\\u0041\"",
            "\"\\udc00\"",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed `{bad}`");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 2)).expect_err("too deep");
        assert_eq!(err.message, "nesting deeper than 128 levels");
        // The hostile case: far under any frame cap, never closed.
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&"{\"k\":".repeat(200_000)).is_err());
    }
}
