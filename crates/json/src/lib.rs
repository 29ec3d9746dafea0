//! # tacc-json
//!
//! The workspace's one JSON implementation: one value type ([`Json`]),
//! one parser ([`parse`]), one compact printer (`Display`), one pretty
//! printer ([`Json::to_pretty`]) and one string escaper ([`write_escaped`]).
//! Standard library only.
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

    /// The number in field `key`, or an error naming the field.
    pub fn req_f64(&self, key: &str) -> Result<f64, String> {
        self.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing or non-numeric field '{key}'"))
    }

    /// The unsigned integer in field `key`, or an error naming the field.
    pub fn req_u64(&self, key: &str) -> Result<u64, String> {
        self.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing or non-integer field '{key}'"))
    }

    /// [`Json::req_u64`], narrowed to `u32`.
    pub fn req_u32(&self, key: &str) -> Result<u32, String> {
        u32::try_from(self.req_u64(key)?).map_err(|_| format!("field '{key}' exceeds u32"))
    }

    /// The string in field `key`, or an error naming the field.
    pub fn req_str(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing or non-string field '{key}'"))
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_f64(*n, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
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
                    v.write(out);
                }
                out.push('}');
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
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Shortest-round-trip float syntax: Rust's `Display` for `f64` prints
/// the shortest decimal string that parses back to the same bits, so the
/// journal round-trips timestamps exactly. Non-finite values use the
/// JSON-compatible string spellings `"inf"`/`"-inf"`/`"nan"` — they only
/// appear in open-ended reservation windows.
fn write_f64(n: f64, out: &mut String) {
    use fmt::Write as _;
    if n.is_nan() {
        out.push_str("\"nan\"");
    } else if n.is_infinite() {
        out.push_str(if n > 0.0 { "\"inf\"" } else { "\"-inf\"" });
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Appends `s` to `out` as a JSON string literal, quoted and escaped —
/// for writers that stream records into a buffer without building a
/// [`Json`] tree first.
pub fn write_escaped(s: &str, out: &mut String) {
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
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
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

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
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
        b'"' => parse_string(bytes, pos).map(Json::Str),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
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
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(JsonError {
                        at: *pos,
                        message: "expected ':' after object key",
                    });
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
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

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    // Caller checked the opening quote.
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err(JsonError {
                at: *pos,
                message: "unterminated string",
            });
        };
        match b {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
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
                        let code = if (0xD800..0xDC00).contains(&hi)
                            && bytes[*pos..].starts_with(b"\\u")
                        {
                            *pos += 2;
                            match parse_hex4(bytes, pos)? {
                                lo @ 0xDC00..=0xDFFF => {
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                }
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
            _ => {
                // Multi-byte UTF-8 sequences pass through verbatim.
                let s = &bytes[*pos..];
                let ch_len = utf8_len(s[0]);
                let chunk = s.get(..ch_len).ok_or(JsonError {
                    at: *pos,
                    message: "invalid UTF-8",
                })?;
                let text = std::str::from_utf8(chunk).map_err(|_| JsonError {
                    at: *pos,
                    message: "invalid UTF-8",
                })?;
                out.push_str(text);
                *pos += ch_len;
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

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
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
