//! A minimal JSON value, writer and recursive-descent parser. Hand-rolled
//! because the build is offline (no `serde_json`), and shared by the NDJSON
//! event encoding, the run-manifest writer and the manifest validator, so
//! all three agree on one grammar.
//!
//! Non-finite numbers are not representable in JSON; the writer emits
//! `null` for them, which keeps every produced document parseable by any
//! conforming reader.

use std::fmt::Write as _;

/// A parsed or to-be-serialised JSON value. Objects preserve insertion
/// order (manifests read better when related keys stay adjacent).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as f64, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from pairs.
    pub fn obj(pairs: Vec<(String, Json)>) -> Json {
        Json::Obj(pairs)
    }

    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Serialises compactly (no whitespace) into `out`.
    pub fn write_compact(&self, out: &mut String) {
        self.write_with(out, None, 0);
    }

    /// Serialises with two-space indentation (manifest files are meant to
    /// be diffed and read by humans).
    pub fn write_pretty(&self, out: &mut String) {
        self.write_with(out, Some(2), 0);
    }

    /// Renders to a compact string.
    pub fn to_compact_string(&self) -> String {
        let mut s = String::new();
        self.write_compact(&mut s);
        s
    }

    /// Renders to a pretty string with a trailing newline.
    pub fn to_pretty_string(&self) -> String {
        let mut s = String::new();
        self.write_pretty(&mut s);
        s.push('\n');
        s
    }

    fn write_with(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    v.write_with(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write_with(out, indent, depth + 1);
                }
                if !pairs.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push('}');
            }
        }
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Num(v as f64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}
impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(step) = indent {
        out.push('\n');
        for _ in 0..depth * step {
            out.push(' ');
        }
    }
}

/// Writes a number. Integers in the f64-exact range print without a
/// fractional part; non-finite values (unrepresentable in JSON) print as
/// `null`.
fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
        return;
    }
    if n == n.trunc() && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        // Rust's shortest-round-trip float formatting: parses back exactly.
        let _ = write!(out, "{n}");
    }
}

/// Writes a JSON string literal with the mandatory escapes.
fn write_escaped(out: &mut String, s: &str) {
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

/// Why a document failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

/// Maximum nesting depth accepted by the parser — manifests and events are
/// a few levels deep; a bound keeps adversarial input from exhausting the
/// stack.
const MAX_DEPTH: usize = 64;

/// Parses one JSON document; trailing whitespace is allowed, trailing
/// content is an error.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(text, bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing content after document"));
    }
    Ok(value)
}

fn err(at: usize, message: &str) -> ParseError {
    ParseError { at, message: message.to_string() }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b) = bytes.get(*pos) {
        match b {
            b' ' | b'\t' | b'\n' | b'\r' => *pos += 1,
            _ => break,
        }
    }
}

fn expect(bytes: &[u8], pos: &mut usize, what: u8) -> Result<(), ParseError> {
    if bytes.get(*pos) == Some(&what) {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, &format!("expected '{}'", what as char)))
    }
}

fn parse_value(
    text: &str,
    bytes: &[u8],
    pos: &mut usize,
    depth: usize,
) -> Result<Json, ParseError> {
    if depth > MAX_DEPTH {
        return Err(err(*pos, "nesting too deep"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(text, bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(err(*pos, "expected ',' or ']' in array")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs: Vec<(String, Json)> = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(text, bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(err(*pos, "expected ',' or '}' in object")),
                }
            }
        }
        Some(_) => parse_number(text, bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, ParseError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(err(*pos, &format!("expected `{lit}`")))
    }
}

fn parse_number(text: &str, bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while let Some(b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-' => *pos += 1,
            _ => break,
        }
    }
    let slice = text.get(start..*pos).unwrap_or("");
    match slice.parse::<f64>() {
        Ok(n) if n.is_finite() => Ok(Json::Num(n)),
        _ => Err(err(start, "invalid number")),
    }
}

fn parse_string(text: &str, bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    let mut chars = text.get(*pos..).unwrap_or("").char_indices();
    while let Some((off, c)) = chars.next() {
        match c {
            '"' => {
                *pos += off + 1;
                return Ok(out);
            }
            '\\' => match chars.next() {
                Some((_, 'n')) => out.push('\n'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 't')) => out.push('\t'),
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, '/')) => out.push('/'),
                Some((_, 'b')) => out.push('\u{8}'),
                Some((_, 'f')) => out.push('\u{c}'),
                Some((esc_off, 'u')) => {
                    let hex_start = *pos + esc_off + 1;
                    let hex = text.get(hex_start..hex_start + 4).unwrap_or("");
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| err(hex_start, "invalid \\u escape"))?;
                    // Surrogate pairs are not needed by our own writer;
                    // lone surrogates decode to the replacement character.
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    for _ in 0..4 {
                        chars.next();
                    }
                }
                _ => return Err(err(*pos + off, "invalid escape")),
            },
            c => out.push(c),
        }
    }
    Err(err(*pos, "unterminated string"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_nested_document() {
        let doc = Json::Obj(vec![
            ("a".into(), Json::Num(1.5)),
            ("b".into(), Json::Str("x \"quoted\"\nline".into())),
            ("c".into(), Json::Arr(vec![Json::Null, Json::Bool(true), Json::Num(-3.0)])),
            ("d".into(), Json::Obj(vec![])),
        ]);
        let compact = doc.to_compact_string();
        assert_eq!(parse(&compact).unwrap(), doc);
        let pretty = doc.to_pretty_string();
        assert_eq!(parse(&pretty).unwrap(), doc);
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::Num(42.0).to_compact_string(), "42");
        assert_eq!(Json::Num(-0.25).to_compact_string(), "-0.25");
        assert_eq!(Json::Num(f64::NAN).to_compact_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_compact_string(), "null");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn parse_accepts_whitespace_and_escapes() {
        let v = parse(" { \"k\" : [ 1 , \"a\\tb\\u0041\" ] } ").unwrap();
        assert_eq!(
            v.get("k").unwrap(),
            &Json::Arr(vec![Json::Num(1.0), Json::Str("a\tbA".into())])
        );
    }

    #[test]
    fn depth_is_bounded() {
        let mut deep = String::new();
        for _ in 0..100 {
            deep.push('[');
        }
        deep.push('1');
        for _ in 0..100 {
            deep.push(']');
        }
        assert!(parse(&deep).is_err(), "deep nesting rejected, not a stack overflow");
    }

    #[test]
    fn get_and_accessors() {
        let v = parse("{\"n\": 2, \"s\": \"x\"}").unwrap();
        assert_eq!(v.get("n").and_then(Json::as_num), Some(2.0));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("n"), None);
    }
}
