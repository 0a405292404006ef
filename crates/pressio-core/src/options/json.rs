//! The one JSON form of [`Options`], written and parsed directly:
//! `{"entries":{KEY:{VARIANT:PAYLOAD},...}}`, each [`Value`] externally
//! tagged in key order, a `Bytes` payload as an array of byte numbers.
//!
//! The writer prints no whitespace, floats in Rust's shortest round-trip
//! form with a `.0` when that has no fraction, and strings with `"`, `\`
//! and the C0 controls escaped (`\n \r \t \b \f`, the rest `\u00xx`). A
//! non-finite float has no JSON form: the writer refuses it, naming its
//! key, so no file holds a value its reader cannot take back.
//!
//! The [`Reader`] takes any JSON text of that shape: whitespace anywhere
//! JSON allows it, members in any order, every string escape, and any
//! number form a payload's type converts by [`Value::as_f64`] /
//! [`Value::as_u64`] / [`Value::as_i64`] (a number past `f64`'s range
//! reads as ±inf). Unknown members are skipped but must be JSON; a member
//! named twice keeps its last value, which alone must be of its type (a
//! key named twice in `entries` keeps its last value too, but each is
//! read). Nesting deeper than 128 is refused. Documents that embed an
//! option structure (the wire's frame header, a checkpoint line) read
//! their own members with the same [`Reader`], under the same rules.

use crate::error::{Error, Result};
use crate::options::Options;
use crate::value::Value;
use std::borrow::Cow;
use std::fmt::{self, Display};
use std::io::Write as _;

/// Deepest nesting a document may have, counting its outer value as 0.
const MAX_DEPTH: usize = 128;

// ---- writing ---------------------------------------------------------------

/// Append the JSON of `options` to `out` (what [`Options::to_json`]
/// returns), without its byte values unless `bytes`.
pub fn write(options: &Options, out: &mut Vec<u8>, bytes: bool) -> Result<()> {
    out.extend_from_slice(br#"{"entries":{"#);
    let mut first = true;
    for (key, value) in options.iter() {
        if !bytes && matches!(value, Value::Bytes(_)) {
            continue;
        }
        if !std::mem::take(&mut first) {
            out.push(b',');
        }
        write_str(out, key);
        out.extend_from_slice(b":{\"");
        out.extend_from_slice(variant(value).as_bytes());
        out.extend_from_slice(b"\":");
        payload(out, key, value)?;
        out.push(b'}');
    }
    out.extend_from_slice(b"}}");
    Ok(())
}

fn variant(value: &Value) -> &'static str {
    match value {
        Value::Bool(_) => "Bool",
        Value::I64(_) => "I64",
        Value::U64(_) => "U64",
        Value::F64(_) => "F64",
        Value::Str(_) => "Str",
        Value::F64Vec(_) => "F64Vec",
        Value::U64Vec(_) => "U64Vec",
        Value::StrVec(_) => "StrVec",
        Value::Bytes(_) => "Bytes",
        Value::Opaque(_) => "Opaque",
    }
}

fn payload(out: &mut Vec<u8>, key: &str, value: &Value) -> Result<()> {
    let string = |out: &mut Vec<u8>, s: &String| {
        write_str(out, s);
        Ok(())
    };
    match value {
        Value::Bool(v) => display(out, v),
        Value::I64(v) => display(out, v),
        Value::U64(v) => display(out, v),
        Value::F64(v) => float(out, key, v),
        Value::Str(s) | Value::Opaque(s) => string(out, s),
        Value::F64Vec(xs) => seq(out, xs, |out, x| float(out, key, x)),
        Value::U64Vec(xs) => seq(out, xs, |out, x| display(out, x)),
        Value::StrVec(xs) => seq(out, xs, string),
        Value::Bytes(xs) => seq(out, xs, |out, x| display(out, x)),
    }
}

fn seq<T>(
    out: &mut Vec<u8>,
    items: &[T],
    mut each: impl FnMut(&mut Vec<u8>, &T) -> Result<()>,
) -> Result<()> {
    out.push(b'[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        each(out, item)?;
    }
    out.push(b']');
    Ok(())
}

fn display(out: &mut Vec<u8>, v: impl Display) -> Result<()> {
    Ok(write!(out, "{v}")?)
}

fn float(out: &mut Vec<u8>, key: &str, &v: &f64) -> Result<()> {
    if !v.is_finite() {
        return Err(Error::InvalidValue {
            key: key.to_string(),
            reason: format!("{v} has no JSON form: only finite floats are written"),
        });
    }
    let start = out.len();
    display(out, v)?;
    // a float stays recognizably a float
    if !out[start..].iter().any(|b| matches!(b, b'.' | b'e' | b'E')) {
        out.extend_from_slice(b".0");
    }
    Ok(())
}

/// Append `s` to `out` as a JSON string.
pub fn write_str(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push(b'"');
    let bytes = s.as_bytes();
    let mut copied = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let mut unicode;
        let escape: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0x08 => b"\\b",
            0x0c => b"\\f",
            0..=0x1f => {
                unicode = *b"\\u0000";
                unicode[4] = HEX[usize::from(b >> 4)];
                unicode[5] = HEX[usize::from(b & 15)];
                &unicode
            }
            _ => continue,
        };
        out.extend_from_slice(&bytes[copied..i]);
        out.extend_from_slice(escape);
        copied = i + 1;
    }
    out.extend_from_slice(&bytes[copied..]);
    out.push(b'"');
}

// ---- reading ---------------------------------------------------------------

/// Where a text stopped being the document its reader expected, and why.
#[derive(Clone, Copy, Debug)]
pub struct Fault {
    at: usize,
    what: &'static str,
}

impl Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at byte {}: {}", self.at, self.what)
    }
}

/// The result of one read.
pub type Parsed<T> = std::result::Result<T, Fault>;

/// A cursor over one JSON text. Each method reads one value at a nesting
/// `depth` (the outer value is at 0), starting past any whitespace.
pub struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    /// A fault at the current position.
    #[inline]
    pub fn err(&self, what: &'static str) -> Fault {
        Fault { at: self.pos, what }
    }

    /// Whitespace, then the end of the text: else `trailing` names what
    /// the text should have ended after.
    pub fn end(&mut self, trailing: &'static str) -> Parsed<()> {
        self.ws();
        if self.pos != self.bytes.len() {
            return Err(self.err(trailing));
        }
        Ok(())
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Where a value at `depth` starts: past the whitespace before it.
    #[inline]
    fn enter(&mut self, depth: usize) -> Parsed<()> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.ws();
        Ok(())
    }

    #[inline]
    fn eat(&mut self, b: u8) -> Parsed<()> {
        if self.peek() != Some(b) {
            return Err(self.err(match b {
                b'{' => "expected `{`",
                b'[' => "expected `[`",
                b':' => "expected `:`",
                b'"' => "expected a string",
                _ => "expected a `\\u` escape",
            }));
        }
        self.pos += 1;
        Ok(())
    }

    fn keyword(&mut self, word: &str) -> Parsed<()> {
        if !self.bytes[self.pos..].starts_with(word.as_bytes()) {
            return Err(self.err("expected `null`, `true` or `false`"));
        }
        self.pos += word.len();
        Ok(())
    }

    /// An object at `depth`, each member's value handed to `member` at
    /// `depth + 1`.
    pub fn object(
        &mut self,
        depth: usize,
        mut member: impl FnMut(&mut Self, Cow<'a, str>, usize) -> Parsed<()>,
    ) -> Parsed<()> {
        self.list(depth, *b"{}", |p, depth| {
            p.ws();
            let key = p.chars()?;
            p.ws();
            p.eat(b':')?;
            member(p, key, depth)
        })
    }

    /// An array at `depth`, each element handed to `element` at
    /// `depth + 1`.
    pub fn array(
        &mut self,
        depth: usize,
        element: impl FnMut(&mut Self, usize) -> Parsed<()>,
    ) -> Parsed<()> {
        self.list(depth, *b"[]", element)
    }

    /// The items between `open` and `close`, comma-separated.
    fn list(
        &mut self,
        depth: usize,
        [open, close]: [u8; 2],
        mut item: impl FnMut(&mut Self, usize) -> Parsed<()>,
    ) -> Parsed<()> {
        self.enter(depth)?;
        self.eat(open)?;
        self.ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self, depth + 1)?;
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ if close == b'}' => return Err(self.err("expected `,` or `}`")),
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    /// An array at `depth` whose elements `element` reads.
    pub fn vec<T>(
        &mut self,
        depth: usize,
        mut element: impl FnMut(&mut Self, usize) -> Parsed<T>,
    ) -> Parsed<Vec<T>> {
        let mut out = Vec::new();
        self.array(depth, |p, depth| {
            out.push(element(p, depth)?);
            Ok(())
        })?;
        Ok(out)
    }

    /// Any JSON value at `depth`, checked and dropped.
    pub fn skip(&mut self, depth: usize) -> Parsed<()> {
        self.enter(depth)?;
        match self.peek() {
            Some(b'{') => self.object(depth, |p, _, depth| p.skip(depth)),
            Some(b'[') => self.array(depth, |p, depth| p.skip(depth)),
            Some(b'"') => self.chars().map(drop),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            Some(b'n') => self.keyword("null"),
            Some(b't') => self.keyword("true"),
            Some(b'f') => self.keyword("false"),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// A struct field's value, read by `parse`. The `Err` inside is a
    /// value that is JSON but not the field's type: that fails the
    /// document only if no later member of the same name overrides it.
    pub fn field<T>(
        &mut self,
        depth: usize,
        parse: impl FnOnce(&mut Self, usize) -> Parsed<T>,
    ) -> Parsed<Parsed<T>> {
        let start = self.pos;
        match parse(self, depth) {
            Ok(v) => Ok(Ok(v)),
            Err(e) => {
                self.pos = start;
                self.skip(depth)?;
                Ok(Err(e))
            }
        }
    }

    /// The characters of the string at the cursor.
    fn chars(&mut self) -> Parsed<Cow<'a, str>> {
        self.eat(b'"')?;
        let start = self.pos;
        let run = |p: &Self| {
            p.bytes[p.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .map(|n| p.pos + n)
        };
        let end = run(self).ok_or_else(|| self.err("unterminated string"))?;
        self.pos = end + 1;
        if self.bytes[end] == b'"' {
            return Ok(Cow::Borrowed(&self.text[start..end]));
        }
        let mut out = String::from(&self.text[start..end]);
        loop {
            // at the byte after a backslash
            let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
            self.pos += 1;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'b' => '\u{08}',
                b'f' => '\u{0C}',
                b'u' => self.unicode_escape()?,
                _ => return Err(self.err("unknown escape")),
            });
            let end = run(self).ok_or_else(|| self.err("unterminated string"))?;
            out.push_str(&self.text[self.pos..end]);
            self.pos = end + 1;
            if self.bytes[end] == b'"' {
                return Ok(Cow::Owned(out));
            }
        }
    }

    /// The character of a `\u` escape (a surrogate pair takes two).
    fn unicode_escape(&mut self) -> Parsed<char> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            self.eat(b'\\')?;
            self.eat(b'u')?;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err("invalid low surrogate"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Parsed<u32> {
        let digits = self
            .text
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let v = u32::from_str_radix(digits, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    /// A JSON number as it was written: an integer [`Value`] while it fits
    /// one, else an `F64`.
    fn number(&mut self) -> Parsed<Value> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.err("expected a number"));
        }
        let start = self.pos;
        self.pos += usize::from(self.peek() == Some(b'-'));
        self.digits();
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            self.pos += usize::from(matches!(self.peek(), Some(b'+' | b'-')));
            self.digits();
        }
        let text = &self.text[start..self.pos];
        let int = || {
            text.parse()
                .map(Value::I64)
                .or_else(|_| text.parse().map(Value::U64))
        };
        match (!text.contains(['.', 'e', 'E'])).then(int) {
            Some(Ok(v)) => Ok(v),
            // a float, or an integer past both integer types
            _ => text
                .parse()
                .map(Value::F64)
                .map_err(|_| self.err("invalid number")),
        }
    }

    #[inline]
    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    /// A number at `depth` that `convert` takes.
    fn typed<T>(&mut self, depth: usize, convert: impl FnOnce(&Value) -> Option<T>) -> Parsed<T> {
        self.enter(depth)?;
        let n = self.number()?;
        convert(&n).ok_or_else(|| self.err("number out of range for its type"))
    }

    /// A non-negative integer at `depth`.
    pub fn u64(&mut self, depth: usize) -> Parsed<u64> {
        self.typed(depth, Value::as_u64)
    }

    /// A string at `depth`.
    pub fn string(&mut self, depth: usize) -> Parsed<String> {
        self.enter(depth)?;
        Ok(self.chars()?.into_owned())
    }

    /// An option structure at `depth`: `{"entries": {KEY: VALUE, ...}}`.
    pub fn options(&mut self, depth: usize) -> Parsed<Options> {
        let mut entries = None;
        self.object(depth, |p, key, depth| {
            match &*key {
                "entries" => entries = Some(p.field(depth, Reader::entries)?),
                _ => p.skip(depth)?,
            }
            Ok(())
        })?;
        entries.ok_or_else(|| self.err("missing field `entries`"))?
    }

    fn entries(&mut self, depth: usize) -> Parsed<Options> {
        let mut options = Options::new();
        self.object(depth, |p, key, depth| {
            options.set(key.into_owned(), p.value(depth)?);
            Ok(())
        })?;
        Ok(options)
    }

    /// `{VARIANT: PAYLOAD}`: exactly one member.
    fn value(&mut self, depth: usize) -> Parsed<Value> {
        self.enter(depth)?;
        self.eat(b'{')?;
        self.ws();
        let variant = self.chars()?;
        self.ws();
        self.eat(b':')?;
        let value = self.payload(&variant, depth + 1)?;
        self.ws();
        if self.peek() != Some(b'}') {
            return Err(self.err("a value has exactly one variant"));
        }
        self.pos += 1;
        Ok(value)
    }

    fn payload(&mut self, variant: &str, depth: usize) -> Parsed<Value> {
        let byte = |v: &Value| v.as_u64().and_then(|v| u8::try_from(v).ok());
        Ok(match variant {
            "Bool" => {
                self.enter(depth)?;
                match self.peek() {
                    Some(b't') => self.keyword("true").map(|()| Value::Bool(true))?,
                    _ => self.keyword("false").map(|()| Value::Bool(false))?,
                }
            }
            "I64" => Value::I64(self.typed(depth, Value::as_i64)?),
            "U64" => Value::U64(self.u64(depth)?),
            "F64" => Value::F64(self.typed(depth, Value::as_f64)?),
            "Str" => Value::Str(self.string(depth)?),
            "Opaque" => Value::Opaque(self.string(depth)?),
            "F64Vec" => Value::F64Vec(self.vec(depth, |p, d| p.typed(d, Value::as_f64))?),
            "U64Vec" => Value::U64Vec(self.vec(depth, Reader::u64)?),
            "StrVec" => Value::StrVec(self.vec(depth, Reader::string)?),
            "Bytes" => Value::Bytes(self.vec(depth, |p, d| p.typed(d, byte))?),
            _ => return Err(self.err("unknown variant")),
        })
    }
}
