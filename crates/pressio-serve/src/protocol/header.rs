//! The JSON half of a frame, written and parsed directly.
//!
//! A header is
//!
//! ```text
//! {"options":{"entries":{KEY:{VARIANT:PAYLOAD},...}},"blobs":[[KEY,LEN],...]}
//! ```
//!
//! — the externally tagged JSON form of the message's non-byte [`Value`]s in
//! key order, then the `(key, length)` of each byte value in payload order.
//! The writer prints exactly those bytes: no whitespace, floats in Rust's
//! shortest round-trip form with a `.0` when that has no fraction, strings
//! with `"`, `\`, and the C0 controls escaped (`\n \r \t \b \f`, the rest
//! `\u00xx`). A non-finite float has no JSON form; the writer refuses it,
//! naming its key.
//!
//! The reader takes any JSON text of that shape: whitespace anywhere JSON
//! allows it, members in any order, every string escape, and any number
//! form a payload's type converts (`1` for an `F64`, `1.0` or `1e0` for a
//! `U64`; a number past `f64`'s range reads as ±inf). Unknown members are
//! skipped, but must be JSON; a member named twice keeps its last value,
//! and an overridden value need only be JSON. Nesting deeper than
//! [`MAX_DEPTH`] is refused.

use pressio_core::error::{Error, Result};
use pressio_core::{Options, Value};
use std::borrow::Cow;
use std::fmt::Display;
use std::io::Write as _;

/// Deepest nesting a header may have, counting the outer object as 0.
const MAX_DEPTH: usize = 128;

// ---- writing ---------------------------------------------------------------

/// Append the header of `msg` to `out`.
pub(super) fn write(msg: &Options, out: &mut Vec<u8>) -> Result<()> {
    out.extend_from_slice(br#"{"options":{"entries":{"#);
    let mut first = true;
    for (key, value) in msg.iter() {
        if matches!(value, Value::Bytes(_)) {
            continue;
        }
        if !std::mem::take(&mut first) {
            out.push(b',');
        }
        string(out, key);
        out.extend_from_slice(b":{\"");
        out.extend_from_slice(variant(value).as_bytes());
        out.extend_from_slice(b"\":");
        payload(out, key, value)?;
        out.push(b'}');
    }
    out.extend_from_slice(br#"}},"blobs":["#);
    let mut first = true;
    for (key, value) in msg.iter() {
        let Value::Bytes(bytes) = value else {
            continue;
        };
        if !std::mem::take(&mut first) {
            out.push(b',');
        }
        out.push(b'[');
        string(out, key);
        out.push(b',');
        display(out, bytes.len());
        out.push(b']');
    }
    out.extend_from_slice(b"]}");
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
    match value {
        Value::Bool(b) => out.extend_from_slice(if *b { b"true" } else { b"false" }),
        Value::I64(v) => display(out, v),
        Value::U64(v) => display(out, v),
        Value::F64(v) => float(out, key, *v)?,
        Value::Str(s) | Value::Opaque(s) => string(out, s),
        Value::F64Vec(xs) => seq(out, xs, |out, x| float(out, key, *x))?,
        Value::U64Vec(xs) => seq(out, xs, |out, x| {
            display(out, x);
            Ok(())
        })?,
        Value::StrVec(xs) => seq(out, xs, |out, s| {
            string(out, s);
            Ok(())
        })?,
        Value::Bytes(_) => unreachable!("byte values travel in the payload"),
    }
    Ok(())
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

fn display(out: &mut Vec<u8>, v: impl Display) {
    write!(out, "{v}").expect("writing to a Vec cannot fail");
}

fn float(out: &mut Vec<u8>, key: &str, v: f64) -> Result<()> {
    if !v.is_finite() {
        return Err(Error::InvalidValue {
            key: key.to_string(),
            reason: format!("{v} cannot cross the wire: a frame carries finite floats only"),
        });
    }
    let start = out.len();
    display(out, v);
    // a float stays recognizably a float
    if !out[start..].iter().any(|b| matches!(b, b'.' | b'e' | b'E')) {
        out.extend_from_slice(b".0");
    }
    Ok(())
}

fn string(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push(b'"');
    let bytes = s.as_bytes();
    let mut copied = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let unicode;
        let escape: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0x08 => b"\\b",
            0x0c => b"\\f",
            0..=0x1f => {
                unicode = [
                    b'\\',
                    b'u',
                    b'0',
                    b'0',
                    HEX[(b >> 4) as usize],
                    HEX[(b & 15) as usize],
                ];
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

/// Parse a header: the message without its byte values (inline `Bytes`
/// entries included, for the caller to refuse), and the blob table.
pub(super) fn read(header: &[u8]) -> std::result::Result<(Options, Vec<(String, u64)>), String> {
    let text = std::str::from_utf8(header).map_err(|e| format!("invalid UTF-8: {e}"))?;
    parse(text).map_err(|Fault { at, what }| format!("at byte {at}: {what}"))
}

fn parse(text: &str) -> Parsed<(Options, Vec<(String, u64)>)> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    let (mut options, mut blobs) = (None, None);
    p.object(0, |p, key, depth| {
        match &*key {
            "options" => options = Some(p.field(depth, Parser::options)?),
            "blobs" => blobs = Some(p.field(depth, Parser::blobs)?),
            _ => p.skip(depth)?,
        }
        Ok(())
    })?;
    p.ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the header"));
    }
    let options = options.ok_or_else(|| p.err("missing field `options`"))??;
    let blobs = blobs.ok_or_else(|| p.err("missing field `blobs`"))??;
    Ok((options, blobs))
}

/// Where a text stopped being a header, and why.
#[derive(Clone, Copy, Debug)]
struct Fault {
    at: usize,
    what: &'static str,
}

type Parsed<T> = std::result::Result<T, Fault>;

/// A JSON number as it was written: an integer while it fits one, else a
/// float.
#[derive(Clone, Copy)]
enum Number {
    I64(i64),
    U64(u64),
    F64(f64),
}

impl Number {
    fn i64(self) -> Option<i64> {
        match self {
            Number::I64(v) => Some(v),
            Number::U64(v) => i64::try_from(v).ok(),
            Number::F64(v) if v.fract() == 0.0 && v.abs() < 2f64.powi(63) => Some(v as i64),
            Number::F64(_) => None,
        }
    }

    fn u64(self) -> Option<u64> {
        match self {
            Number::I64(v) => u64::try_from(v).ok(),
            Number::U64(v) => Some(v),
            Number::F64(v) if v.fract() == 0.0 && v >= 0.0 && v < 2f64.powi(64) => Some(v as u64),
            Number::F64(_) => None,
        }
    }

    fn f64(self) -> Option<f64> {
        Some(match self {
            Number::I64(v) => v as f64,
            Number::U64(v) => v as f64,
            Number::F64(v) => v,
        })
    }

    fn u8(self) -> Option<u8> {
        self.u64().and_then(|v| u8::try_from(v).ok())
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &'static str) -> Fault {
        Fault { at: self.pos, what }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Where a value at `depth` starts: past the whitespace before it.
    fn enter(&mut self, depth: usize) -> Parsed<()> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.ws();
        Ok(())
    }

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
    fn object(
        &mut self,
        depth: usize,
        mut member: impl FnMut(&mut Self, Cow<'a, str>, usize) -> Parsed<()>,
    ) -> Parsed<()> {
        self.enter(depth)?;
        self.eat(b'{')?;
        self.ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.eat(b':')?;
            member(self, key, depth + 1)?;
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    /// An array at `depth`, each element handed to `element` at
    /// `depth + 1`.
    fn array(
        &mut self,
        depth: usize,
        mut element: impl FnMut(&mut Self, usize) -> Parsed<()>,
    ) -> Parsed<()> {
        self.enter(depth)?;
        self.eat(b'[')?;
        self.ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            element(self, depth + 1)?;
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    /// Any JSON value at `depth`, checked and dropped.
    fn skip(&mut self, depth: usize) -> Parsed<()> {
        self.enter(depth)?;
        match self.peek() {
            Some(b'{') => self.object(depth, |p, _, depth| p.skip(depth)),
            Some(b'[') => self.array(depth, |p, depth| p.skip(depth)),
            Some(b'"') => self.string().map(drop),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            Some(b'n') => self.keyword("null"),
            Some(b't') => self.keyword("true"),
            Some(b'f') => self.keyword("false"),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// A struct field's value, parsed by `parse`. The `Err` inside is a
    /// value that is JSON but not the field's type: that fails the header
    /// only if no later member of the same name overrides it.
    fn field<T>(
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

    fn string(&mut self) -> Parsed<Cow<'a, str>> {
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

    fn number(&mut self) -> Parsed<Number> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.err("expected a number"));
        }
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        self.pos += usize::from(negative);
        // an integer's value is read as it is scanned; `None` once it
        // passes u64
        let mut magnitude = Some(0u64);
        let mut digits = 0;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            magnitude = magnitude
                .and_then(|m| m.checked_mul(10))
                .and_then(|m| m.checked_add(u64::from(d - b'0')));
            digits += 1;
            self.pos += 1;
        }
        let integer = !matches!(self.peek(), Some(b'.' | b'e' | b'E'));
        match magnitude {
            _ if digits == 0 && integer => return Err(self.err("invalid number")),
            Some(m) if integer && !negative => {
                return Ok(i64::try_from(m).map_or(Number::U64(m), Number::I64));
            }
            Some(m) if integer && m <= 1 << 63 => {
                return Ok(Number::I64((m as i64).wrapping_neg()));
            }
            // a float, or an integer past both integer types
            _ => {}
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        self.text[start..self.pos]
            .parse()
            .map(Number::F64)
            .map_err(|_| self.err("invalid number"))
    }

    /// A number at `depth` that `convert` takes.
    fn typed<T>(&mut self, depth: usize, convert: impl FnOnce(Number) -> Option<T>) -> Parsed<T> {
        self.enter(depth)?;
        let n = self.number()?;
        convert(n).ok_or_else(|| self.err("number out of range for its type"))
    }

    fn owned_string(&mut self, depth: usize) -> Parsed<String> {
        self.enter(depth)?;
        Ok(self.string()?.into_owned())
    }

    fn vec<T>(
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

    /// `{"entries": {KEY: VALUE, ...}}`.
    fn options(&mut self, depth: usize) -> Parsed<Options> {
        let mut entries = None;
        self.object(depth, |p, key, depth| {
            match &*key {
                "entries" => entries = Some(p.field(depth, Parser::entries)?),
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
        let variant = self.string()?;
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
        Ok(match variant {
            "Bool" => {
                self.enter(depth)?;
                match self.peek() {
                    Some(b't') => self.keyword("true").map(|()| Value::Bool(true))?,
                    _ => self.keyword("false").map(|()| Value::Bool(false))?,
                }
            }
            "I64" => Value::I64(self.typed(depth, Number::i64)?),
            "U64" => Value::U64(self.typed(depth, Number::u64)?),
            "F64" => Value::F64(self.typed(depth, Number::f64)?),
            "Str" => Value::Str(self.owned_string(depth)?),
            "Opaque" => Value::Opaque(self.owned_string(depth)?),
            "F64Vec" => Value::F64Vec(self.vec(depth, |p, d| p.typed(d, Number::f64))?),
            "U64Vec" => Value::U64Vec(self.vec(depth, |p, d| p.typed(d, Number::u64))?),
            "StrVec" => Value::StrVec(self.vec(depth, Parser::owned_string)?),
            "Bytes" => Value::Bytes(self.vec(depth, |p, d| p.typed(d, Number::u8))?),
            _ => return Err(self.err("unknown variant")),
        })
    }

    /// `[[KEY, LENGTH], ...]`.
    fn blobs(&mut self, depth: usize) -> Parsed<Vec<(String, u64)>> {
        self.vec(depth, |p, depth| {
            let (mut key, mut len) = (None, None);
            p.array(depth, |p, depth| {
                if key.is_none() {
                    key = Some(p.owned_string(depth)?);
                } else if len.is_none() {
                    len = Some(p.typed(depth, Number::u64)?);
                } else {
                    return Err(p.err("a blob entry is [key, length]"));
                }
                Ok(())
            })?;
            key.zip(len)
                .ok_or_else(|| p.err("a blob entry is [key, length]"))
        })
    }
}
