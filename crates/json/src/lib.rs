//! # flo-json
//!
//! A small, dependency-free JSON value type with a writer and a parser.
//! The experiment harness persists tables, simulation reports and pipeline
//! benchmark results as JSON artifacts; this crate is the whole of the
//! serialization machinery those artifacts need (the container this repo
//! builds in has no registry access, so `serde`/`serde_json` are not
//! available — see DESIGN.md §2.6).
//!
//! Objects preserve insertion order so emitted artifacts are stable and
//! diffable across runs.

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (carried as `f64`; integers up to 2^53 round-trip).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object builder starting point.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append a field to an object (panics on non-objects).
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("Json::set on non-object {other:?}"),
        }
        self
    }

    /// Field lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a number that is
    /// one (exact: rejects fractions, negatives, and values past 2^53,
    /// where `f64` stops round-tripping integers).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 9_007_199_254_740_992.0 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty rendering with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        // fmt::Write into a String is infallible.
        let _ = self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write<W: fmt::Write>(
        &self,
        out: &mut W,
        indent: Option<usize>,
        depth: usize,
    ) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_num(out, *x),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                items[i].write(out, indent, depth + 1)
            }),
            Json::Obj(fields) => write_seq(out, indent, depth, '{', '}', fields.len(), |out, i| {
                write_escaped(out, &fields[i].0)?;
                out.write_char(':')?;
                if indent.is_some() {
                    out.write_char(' ')?;
                }
                fields[i].1.write(out, indent, depth + 1)
            }),
        }
    }
}

impl fmt::Display for Json {
    /// Compact single-line rendering (`to_string()` comes with it),
    /// written straight into the formatter, so `write!` renders into any
    /// [`fmt::Write`] sink without an intermediate `String`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, None, 0)
    }
}

/// Write `[x0,x1,…]` exactly as a `Json` array of `Json::from(x)`
/// values renders, without building it: plain decimal digits below
/// 9e15, the `f64` rendering above (where `Json` numbers stop being
/// exact integers). Digits are formatted into a stack buffer that
/// reaches `out` a few KiB at a time, so a table of millions of entries
/// costs a few thousand sink calls.
pub fn write_u64_array<W: fmt::Write>(
    out: &mut W,
    xs: impl IntoIterator<Item = u64>,
) -> fmt::Result {
    let mut buf = [0u8; 4096];
    buf[0] = b'[';
    let mut len = 1;
    for (i, x) in xs.into_iter().enumerate() {
        // Room for a comma, 20 digits and the closing bracket.
        if len + 22 > buf.len() {
            out.write_str(ascii(&buf[..len])?)?;
            len = 0;
        }
        if i > 0 {
            buf[len] = b',';
            len += 1;
        }
        if x < 9_000_000_000_000_000 {
            len += format_digits(&mut buf[len..], x);
        } else {
            out.write_str(ascii(&buf[..len])?)?;
            len = 0;
            write_num(out, x as f64)?;
        }
    }
    buf[len] = b']';
    out.write_str(ascii(&buf[..=len])?)
}

/// Decimal digits of `x` at the front of `buf`; returns their count.
fn format_digits(buf: &mut [u8], mut x: u64) -> usize {
    let n = x.checked_ilog10().unwrap_or(0) as usize + 1;
    for d in buf[..n].iter_mut().rev() {
        *d = b'0' + (x % 10) as u8;
        x /= 10;
    }
    n
}

fn ascii(bytes: &[u8]) -> Result<&str, fmt::Error> {
    std::str::from_utf8(bytes).map_err(|_| fmt::Error)
}

fn write_num<W: fmt::Write>(out: &mut W, x: f64) -> fmt::Result {
    if !x.is_finite() {
        // JSON has no Inf/NaN; null is the conventional substitute.
        out.write_str("null")
    } else if x == x.trunc() && x.abs() < 9e15 {
        write!(out, "{}", x as i64)
    } else {
        write!(out, "{x}")
    }
}

fn write_escaped<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    // Runs of characters that need no escape go to `out` in one call.
    let mut run = 0;
    for (i, c) in s.char_indices() {
        if c >= ' ' && c != '"' && c != '\\' {
            continue;
        }
        out.write_str(&s[run..i])?;
        // Every escaped character is one byte of ASCII.
        run = i + 1;
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c => write!(out, "\\u{:04x}", c as u32)?,
        }
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

fn write_seq<W: fmt::Write>(
    out: &mut W,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut W, usize) -> fmt::Result,
) -> fmt::Result {
    out.write_char(open)?;
    if len == 0 {
        return out.write_char(close);
    }
    for i in 0..len {
        if let Some(w) = indent {
            out.write_char('\n')?;
            out.write_str(&" ".repeat(w * (depth + 1)))?;
        }
        item(out, i)?;
        if i + 1 < len {
            out.write_char(',')?;
        }
    }
    if let Some(w) = indent {
        out.write_char('\n')?;
        out.write_str(&" ".repeat(w * depth))?;
    }
    out.write_char(close)
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x as f64)
    }
}
impl From<i64> for Json {
    fn from(x: i64) -> Json {
        Json::Num(x as f64)
    }
}
impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x as f64)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// Parse error: byte position and message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub pos: usize,
    /// Human-readable description.
    pub msg: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document (trailing whitespace allowed).
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError { pos: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), ParseError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err("unexpected character"))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self
            .peek()
            .ok_or_else(|| self.err("unexpected end of input"))?
        {
            b'n' => self.literal("null", Json::Null),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'"' => Ok(Json::Str(self.string()?)),
            b'[' => self.array(),
            b'{' => self.object(),
            b'-' | b'0'..=b'9' => self.number(),
            _ => Err(self.err("unexpected character")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek().ok_or_else(|| self.err("unterminated string"))? {
                b'"' => {
                    self.pos += 1;
                    return Ok(s);
                }
                b'\\' => {
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
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by our artifacts;
                            // lone surrogates map to the replacement char.
                            s.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Consume one UTF-8 scalar. The input came in as &str so
                    // this cannot fail, but the parse path stays panic-free
                    // regardless of what bytes it is handed.
                    let rest = &self.bytes[self.pos..];
                    let c = std::str::from_utf8(rest)
                        .ok()
                        .and_then(|t| t.chars().next())
                        .ok_or_else(|| self.err("invalid UTF-8"))?;
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_scalars() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::Bool(true).to_string(), "true");
        assert_eq!(Json::Num(3.0).to_string(), "3");
        assert_eq!(Json::Num(0.5).to_string(), "0.5");
        assert_eq!(Json::Str("a\"b".into()).to_string(), "\"a\\\"b\"");
        assert_eq!(
            Json::Str("tab\t nl\n é \\ \u{1}.".into()).to_string(),
            r#""tab\t nl\n é \\ \u0001.""#
        );
    }

    #[test]
    fn writes_structures() {
        let v = Json::obj()
            .set("name", "swim")
            .set("values", vec![1.0, 2.5])
            .set("ok", true);
        assert_eq!(
            v.to_string(),
            r#"{"name":"swim","values":[1,2.5],"ok":true}"#
        );
    }

    #[test]
    fn typed_accessors() {
        assert_eq!(Json::Bool(true).as_bool(), Some(true));
        assert_eq!(Json::Num(1.0).as_bool(), None);
        assert_eq!(Json::Num(7.0).as_u64(), Some(7));
        assert_eq!(Json::Num(0.0).as_u64(), Some(0));
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Str("7".into()).as_u64(), None);
        assert_eq!(Json::Num(1e16).as_u64(), None, "past 2^53 is rejected");
    }

    #[test]
    fn pretty_is_parseable() {
        let v = Json::obj().set("rows", vec!["a", "b"]).set("n", 4u64);
        let back = parse(&v.pretty()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn parse_roundtrips_compact() {
        let v = Json::Arr(vec![
            Json::Null,
            Json::Bool(false),
            Json::Num(-2.25),
            Json::Str("x\ny".into()),
            Json::obj().set("k", 1u64),
        ]);
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn object_preserves_insertion_order() {
        let v = Json::obj().set("z", 1u64).set("a", 2u64);
        match &v {
            Json::Obj(fields) => {
                assert_eq!(fields[0].0, "z");
                assert_eq!(fields[1].0, "a");
            }
            _ => unreachable!(),
        }
        assert_eq!(v.to_string(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"app": "qio", "norm": 0.75, "cols": [1, 2]}"#).unwrap();
        assert_eq!(v.get("app").and_then(Json::as_str), Some("qio"));
        assert_eq!(v.get("norm").and_then(Json::as_f64), Some(0.75));
        assert_eq!(v.get("cols").and_then(Json::as_arr).unwrap().len(), 2);
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn escapes_roundtrip() {
        let s = "tab\t nl\n quote\" back\\ unicode\u{1}";
        let v = Json::Str(s.into());
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("{\"a\":1} x").is_err());
    }

    #[test]
    fn write_u64_array_renders_like_a_json_array() {
        let mut xs: Vec<u64> = (0..5000).map(|i| i * 7919).collect();
        xs.extend([
            8_999_999_999_999_999,
            9_000_000_000_000_000,
            1 << 53,
            u64::MAX,
            3,
        ]);
        let mut out = String::new();
        write_u64_array(&mut out, xs.iter().copied()).unwrap();
        assert_eq!(out, Json::from(xs).to_string(), "chunked array");
        assert!(out.ends_with(
            ",8999999999999999,9000000000000000,9007199254740992,18446744073709552000,3]"
        ));
        out.clear();
        write_u64_array(&mut out, []).unwrap();
        assert_eq!(out, "[]");
        assert_eq!(Json::Num(-42.0).to_string(), "-42");
        assert_eq!(Json::Num(-0.0).to_string(), "0");
    }

    #[test]
    fn large_integers_round_trip() {
        let x = 9_007_199_254_740_991u64; // 2^53 - 1
        assert_eq!(Json::from(x).to_string(), "9007199254740991");
    }
}
