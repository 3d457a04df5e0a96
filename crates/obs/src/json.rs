//! The workspace's one JSON codec: a strict reader and the string escaper.
//!
//! Traces, checkpoints, confusion matrices and flight-recorder dumps are
//! written with `format!` and [`escape`], and all of them are read back
//! through [`parse`], which follows RFC 8259 and accepts nothing else:
//! the input is exactly one value; numbers match the JSON grammar (no
//! `+`, leading zeros, `NaN` or `inf`) and are kept as text, so a `u64`
//! up to 2^64−1 and a shortest-round-trip `f64` read back bit for bit; a
//! `\u` escape takes exactly four hex digits; an object never repeats a
//! key; and nesting stops at [`MAX_DEPTH`], so a hostile document cannot
//! exhaust the stack. Decoders walk objects with [`Value::object`].

use std::borrow::Cow;
use std::fmt;
use std::fmt::Write as _;

/// Deepest nesting of arrays and objects [`parse`] accepts. The deepest
/// document the workspace writes, a session checkpoint down to a pending
/// stroke's bounding box, nests 7 deep.
pub const MAX_DEPTH: usize = 16;

/// Escapes a string for use between JSON double quotes: `"`, `\` and the
/// control characters (`\n`, `\r`, `\t`, the rest as `\u00XX`).
pub fn escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    for c in value.chars() {
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
    out
}

/// Why a document was rejected: a syntax error at a byte offset, a value
/// of the wrong type or range, or a caller's own check. Errors met inside
/// [`Fields::take`] and [`Value::items`] are prefixed with the key or
/// index they were found under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// An error for a check beyond the JSON grammar (an unknown enum
    /// name, a mask of the wrong length).
    pub fn new(message: impl Into<String>) -> Self {
        Self(message.into())
    }

    fn within(self, path: impl fmt::Display) -> Self {
        Self(format!("{path}: {}", self.0))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// One parsed JSON value, borrowing from the parsed text.
#[derive(Debug)]
pub struct Value<'a> {
    raw: &'a str,
    kind: Kind<'a>,
}

#[derive(Debug)]
enum Kind<'a> {
    Null,
    Bool(bool),
    /// The grammar-checked token is the value's `raw` text.
    Number,
    String(Cow<'a, str>),
    Array(Vec<Value<'a>>),
    /// Entries in document order; keys are unique.
    Object(Vec<(Cow<'a, str>, Value<'a>)>),
}

/// Parses one JSON document, which must be a single value.
///
/// # Errors
///
/// Returns an [`Error`] at the first violation of RFC 8259, a repeated
/// object key, or nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value<'_>, Error> {
    let mut reader = Reader { text, pos: 0 };
    let value = reader.value(0)?;
    reader.skip_ws();
    if reader.pos < text.len() {
        return Err(reader.unexpected("the end"));
    }
    Ok(value)
}

// Each getter returns an `Error` when the value is not of its type or,
// for numbers, out of its range.
impl<'a> Value<'a> {
    /// The value's exact source text.
    pub fn raw(&self) -> &'a str {
        self.raw
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self.kind, Kind::Null)
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Result<bool, Error> {
        match self.kind {
            Kind::Bool(b) => Ok(b),
            _ => Err(self.mismatch("a boolean")),
        }
    }

    /// The value as an unsigned integer of type `T`: a number token with
    /// no sign, fraction or exponent, within `T`'s range.
    pub fn as_uint<T: TryFrom<u64>>(&self) -> Result<T, Error> {
        let digits =
            matches!(self.kind, Kind::Number) && self.raw.bytes().all(|b| b.is_ascii_digit());
        self.raw
            .parse::<u64>()
            .ok()
            .filter(|_| digits)
            .and_then(|n| T::try_from(n).ok())
            .ok_or_else(|| self.mismatch("an unsigned integer in range"))
    }

    /// The value as a finite `f64`, correctly rounded from the token.
    pub fn as_f64(&self) -> Result<f64, Error> {
        self.raw
            .parse::<f64>()
            .ok()
            .filter(|x| matches!(self.kind, Kind::Number) && x.is_finite())
            .ok_or_else(|| self.mismatch("a number within f64 range"))
    }

    /// The value as a decoded string.
    pub fn as_str(&self) -> Result<&str, Error> {
        match &self.kind {
            Kind::String(s) => Ok(s),
            _ => Err(self.mismatch("a string")),
        }
    }

    /// Decodes every item of an array with `get`.
    pub fn items<T>(
        &self,
        mut get: impl FnMut(&Value<'a>) -> Result<T, Error>,
    ) -> Result<Vec<T>, Error> {
        let Kind::Array(items) = &self.kind else {
            return Err(self.mismatch("an array"));
        };
        let item = |(i, v)| get(v).map_err(|e: Error| e.within(format_args!("[{i}]")));
        items.iter().enumerate().map(item).collect()
    }

    /// An object's entries in document order.
    pub fn entries(&self) -> Result<&[(Cow<'a, str>, Value<'a>)], Error> {
        match &self.kind {
            Kind::Object(entries) => Ok(entries),
            _ => Err(self.mismatch("an object")),
        }
    }

    /// Decodes an object with `read`, which takes its fields by key;
    /// then rejects every key `read` did not take.
    pub fn object<'v, T>(
        &'v self,
        read: impl FnOnce(&mut Fields<'v, 'a>) -> Result<T, Error>,
    ) -> Result<T, Error> {
        let entries = self.entries()?;
        let mut fields = Fields {
            entries,
            taken: vec![false; entries.len()],
        };
        let value = read(&mut fields)?;
        match fields.taken.iter().position(|&t| !t) {
            Some(i) => Err(Error(format!("unknown key {:?}", entries[i].0))),
            None => Ok(value),
        }
    }

    fn mismatch(&self, expected: &str) -> Error {
        let shown: String = self.raw.chars().take(40).collect();
        Error(format!("expected {expected}, got {shown}"))
    }
}

/// An object's fields, taken by key with a typed getter (see
/// [`Value::object`]).
#[derive(Debug)]
pub struct Fields<'v, 'a> {
    entries: &'v [(Cow<'a, str>, Value<'a>)],
    taken: Vec<bool>,
}

impl<'v, 'a> Fields<'v, 'a> {
    /// Decodes the value under `key` with `get`.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] naming `key` if it is absent or `get` fails.
    pub fn take<T>(
        &mut self,
        key: &str,
        get: impl FnOnce(&'v Value<'a>) -> Result<T, Error>,
    ) -> Result<T, Error> {
        let i = self
            .entries
            .iter()
            .position(|(k, _)| k == key)
            .ok_or_else(|| Error(format!("missing key {key:?}")))?;
        self.taken[i] = true;
        get(&self.entries[i].1).map_err(|e| e.within(format_args!("{key:?}")))
    }
}

struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes `token` if it comes next.
    fn eat(&mut self, token: &str) -> bool {
        let hit = self.text.as_bytes()[self.pos..].starts_with(token.as_bytes());
        self.pos += if hit { token.len() } else { 0 };
        hit
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn fail(&self, message: impl fmt::Display) -> Error {
        Error(format!("{message} at byte {}", self.pos))
    }

    fn unexpected(&self, expected: &str) -> Error {
        let found = self.text[self.pos..].chars().next();
        let found = found.map_or("the end".into(), |c| format!("{c:?}"));
        self.fail(format_args!("expected {expected}, found {found}"))
    }

    /// Parses the value after any whitespace; `depth` counts the arrays
    /// and objects open around it.
    fn value(&mut self, depth: usize) -> Result<Value<'a>, Error> {
        self.skip_ws();
        let start = self.pos;
        let kind = match self.peek() {
            Some(b'{') => self.object(depth + 1)?,
            Some(b'[') => {
                let mut items = Vec::new();
                self.list(depth + 1, "]", |r| {
                    r.value(depth + 1).map(|v| items.push(v))
                })?;
                Kind::Array(items)
            }
            Some(b'"') => Kind::String(self.string()?),
            Some(b'-' | b'0'..=b'9') => self.number()?,
            _ if self.eat("true") => Kind::Bool(true),
            _ if self.eat("false") => Kind::Bool(false),
            _ if self.eat("null") => Kind::Null,
            _ => return Err(self.unexpected("a value")),
        };
        Ok(Value {
            raw: &self.text[start..self.pos],
            kind,
        })
    }

    /// Parses a `[`/`{`-opened list up to `close`, calling `item` for each
    /// comma-separated element.
    fn list(
        &mut self,
        depth: usize,
        close: &str,
        mut item: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        if depth > MAX_DEPTH {
            return Err(self.fail(format_args!("nesting deeper than {MAX_DEPTH}")));
        }
        self.pos += 1;
        self.skip_ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(",") {
                return Err(self.unexpected(&format!("',' or '{close}'")));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Kind<'a>, Error> {
        let mut entries = Vec::new();
        self.list(depth, "}", |r| {
            r.skip_ws();
            if r.peek() != Some(b'"') {
                return Err(r.unexpected("a quoted key"));
            }
            let key = r.string()?;
            r.skip_ws();
            if !r.eat(":") {
                return Err(r.unexpected("':'"));
            }
            entries.push((key, r.value(depth)?));
            Ok(())
        })?;
        let mut keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_ref()).collect();
        keys.sort_unstable();
        match keys.windows(2).find(|pair| pair[0] == pair[1]) {
            Some(pair) => Err(self.fail(format_args!(
                "duplicate key {:?} in the object ending",
                pair[0]
            ))),
            None => Ok(Kind::Object(entries)),
        }
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`
    fn number(&mut self) -> Result<Kind<'a>, Error> {
        self.eat("-");
        if !self.eat("0") {
            self.digits()?;
        }
        if self.eat(".") {
            self.digits()?;
        }
        if self.eat("e") || self.eat("E") {
            let _sign = self.eat("+") || self.eat("-");
            self.digits()?;
        }
        Ok(Kind::Number)
    }

    /// One or more decimal digits.
    fn digits(&mut self) -> Result<(), Error> {
        let start = self.pos;
        while let Some(b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.unexpected("a digit"));
        }
        Ok(())
    }

    /// Parses a quoted string, borrowing the source when it has no escape.
    /// Scans bytewise: UTF-8 continuation bytes never equal `"` or `\`.
    fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.pos += 1;
        let mut run = self.pos;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    let tail = &self.text[run..self.pos];
                    self.pos += 1;
                    if out.is_empty() {
                        return Ok(Cow::Borrowed(tail));
                    }
                    out.push_str(tail);
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 2;
                    out.push(match self.text.as_bytes().get(self.pos - 1) {
                        Some(b'u') => self.unicode_escape()?,
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        _ => {
                            self.pos -= 1;
                            return Err(self.unexpected("an escape character"));
                        }
                    });
                    run = self.pos;
                }
                Some(0x20..) => {
                    let rest = &self.text.as_bytes()[self.pos..];
                    self.pos += rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(rest.len());
                }
                _ => return Err(self.unexpected("'\"' or an escaped character")),
            }
        }
    }

    /// Decodes the four hex digits after `\u`, pairing a high surrogate
    /// with the `\uXXXX` low surrogate that must follow it.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let mut code = self.hex4()?;
        if (0xd800..0xdc00).contains(&code) {
            let low = if self.text[self.pos..].starts_with("\\u") {
                self.pos += 2;
                self.hex4()?
            } else {
                0
            };
            if !(0xdc00..0xe000).contains(&low) {
                return Err(self.fail("unpaired surrogate escape"));
            }
            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
        }
        char::from_u32(code).ok_or_else(|| self.fail("unpaired surrogate escape"))
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.fail("a \\u escape needs four hex digits"))?;
        self.pos += 4;
        Ok(u32::from_str_radix(digits, 16).expect("four hex digits"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_the_rfc_grammar() {
        for text in [
            "null",
            " true ",
            "false",
            "0",
            "-0",
            "12.5e-3",
            "1E+2",
            "\"\"",
            "\"a\\\"b\\\\c\\/d\\b\\f\\n\\r\\t\\u00e9\\ud83d\\ude00\"",
            "[]",
            "[ 1 , [2] ]",
            "{}",
            "{ \"a\" : { \"b\" : [ null ] } }",
        ] {
            assert!(parse(text).is_ok(), "{text:?} rejected: {:?}", parse(text));
        }
        let s = parse("\"\\u0041\\ud83d\\ude00\\u00e9\"").unwrap();
        assert_eq!(s.as_str().unwrap(), "A\u{1f600}\u{e9}");
    }

    #[test]
    fn rejects_what_is_not_json() {
        for text in [
            "",
            "nul",
            "+1",
            "01",
            "1.",
            ".5",
            "1e",
            "-",
            "NaN",
            "inf",
            "0x10",
            "\"\\u41\"",
            "\"\\u+041\"",
            "\"\\ud83d\"",
            "\"\\ud83d\\u0041\"",
            "\"\\x\"",
            "\"raw\ncontrol\"",
            "\"unterminated",
            "[1,]",
            "[1 2]",
            "{\"a\":1,}",
            "{a:1}",
            "{\"a\" 1}",
            "{\"a\":1,\"a\":2}",
            "{\"a\":1,\"\\u0061\":2}",
            "1 2",
            "{} x",
            "x{}",
        ] {
            assert!(parse(text).is_err(), "{text:?} accepted");
        }
    }

    #[test]
    fn nesting_is_capped_without_recursing_into_the_bomb() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deep).unwrap_err().to_string().contains("nesting"));
        let bomb = "[".repeat(100_000);
        assert!(parse(&bomb).unwrap_err().to_string().contains("nesting"));
        let objects = "{\"k\":".repeat(100_000);
        assert!(parse(&objects).unwrap_err().to_string().contains("nesting"));
    }

    #[test]
    fn numbers_keep_their_exact_bits() {
        assert_eq!(
            parse("18446744073709551615").unwrap().as_uint::<u64>(),
            Ok(u64::MAX)
        );
        assert!(parse("18446744073709551616")
            .unwrap()
            .as_uint::<u64>()
            .is_err());
        assert!(parse("65536").unwrap().as_uint::<u16>().is_err());
        for bad in ["-1", "1.0", "1e3", "\"7\""] {
            assert!(parse(bad).unwrap().as_uint::<u64>().is_err(), "{bad}");
        }
        for x in [0.1 + 0.2, -0.0, 5e-324, f64::MAX, 1e-15] {
            let back = parse(&x.to_string()).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
        assert!(parse("1e999").unwrap().as_f64().is_err());
        assert!(parse("true").unwrap().as_f64().is_err());
    }

    #[test]
    fn raw_is_the_exact_source_slice() {
        let doc = parse("{ \"a\" : [1, {\"b\":2}] , \"c\": \"x\\ny\" }").unwrap();
        let entries = doc.entries().unwrap();
        assert_eq!(entries[0].1.raw(), "[1, {\"b\":2}]");
        assert_eq!(entries[1].1.raw(), "\"x\\ny\"");
        assert_eq!(entries[1].1.as_str().unwrap(), "x\ny");
    }

    #[test]
    fn fields_name_missing_unknown_and_mistyped_keys() {
        let doc = parse("{\"n\":1,\"list\":[1,\"x\"],\"extra\":null}").unwrap();
        let err = doc
            .object(|f| {
                assert_eq!(f.take("n", Value::as_uint::<u8>), Ok(1));
                let err = f.take("gone", Value::as_bool).unwrap_err();
                assert!(err.to_string().contains("\"gone\""), "{err}");
                let err = f
                    .take("list", |v| v.items(Value::as_uint::<u8>))
                    .unwrap_err();
                assert!(err.to_string().starts_with("\"list\": [1]: "), "{err}");
                Ok(())
            })
            .unwrap_err();
        assert!(err.to_string().contains("\"extra\""), "{err}");
    }

    #[test]
    fn escape_covers_controls_and_round_trips() {
        assert_eq!(escape("a\"b\\c\nd\te\r"), "a\\\"b\\\\c\\nd\\te\\r");
        assert_eq!(escape("\u{1}"), "\\u0001");
        let awkward = "he said \"L\"\\ brace}{,:\u{7f}\u{1f}é😀";
        let quoted = format!("\"{}\"", escape(awkward));
        assert_eq!(parse(&quoted).unwrap().as_str().unwrap(), awkward);
    }
}
