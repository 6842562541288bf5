//! The workspace's one JSON codec: the escaper every line renderer
//! appends through, and a strict borrowed [`Cursor`] every line parser
//! reads with.
//!
//! The cursor follows RFC 8259's grammar for numbers, strings and
//! escapes: a surrogate pair decodes, while a lone surrogate, a sign in
//! `\u` digits and a leading `+` or zero on a number are rejected. It
//! reads only what the caller's schema asks for — objects with a fixed
//! field table, arrays, strings, unsigned integers, `f32`s and booleans
//! — so it has no generic descent and nesting cannot recurse. Every
//! rejection is a [`JsonError`]: a [`JsonErrorKind`] and a byte offset.
//!
//! ```
//! use divscrape_httplog::json::{Cursor, JsonErrorKind};
//!
//! let mut c = Cursor::new(r#"{"id":7,"tags":["a🛒"]}"#);
//! let (mut id, mut tags) = (None, None);
//! c.object(&["id", "tags"], |c, field| {
//!     match field {
//!         0 => id = Some(c.uint::<u32>()?),
//!         _ => tags = Some(c.array(|c| c.string())?),
//!     }
//!     Ok(())
//! })?;
//! c.end()?;
//! assert_eq!(c.required(id, "id")?, 7);
//! assert_eq!(c.required(tags, "tags")?, ["a🛒"]);
//!
//! let err = Cursor::new("+5").uint::<u64>().unwrap_err();
//! assert_eq!((err.kind, err.offset), (JsonErrorKind::Expected("a number"), 0));
//! # Ok::<(), divscrape_httplog::json::JsonError>(())
//! ```

use std::borrow::Cow;
use std::fmt;
use std::str::FromStr;

/// Appends `s` to `out` with JSON string escaping: runs of bytes that
/// need none are copied whole.
#[inline]
pub fn push_json_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    // Every byte escaped is ASCII, so each cut falls on a char boundary.
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        let control;
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x00..=0x1f => {
                control = [
                    b'\\',
                    b'u',
                    b'0',
                    b'0',
                    HEX[usize::from(b >> 4)],
                    HEX[usize::from(b & 0xf)],
                ];
                std::str::from_utf8(&control).expect("an ASCII escape")
            }
            _ => continue,
        };
        out.push_str(&s[clean..i]);
        out.push_str(escape);
        clean = i + 1;
    }
    out.push_str(&s[clean..]);
}

/// Appends `s` to `out` as a quoted JSON string.
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    push_json_escaped(out, s);
    out.push('"');
}

/// A formatter target that JSON-escapes whatever is written through it.
pub struct JsonEscaped<'a>(pub &'a mut String);

impl fmt::Write for JsonEscaped<'_> {
    #[inline]
    fn write_str(&mut self, s: &str) -> fmt::Result {
        push_json_escaped(self.0, s);
        Ok(())
    }
}

/// Why the [`Cursor`] rejected its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// The input ended inside a value.
    UnexpectedEnd,
    /// A byte the grammar does not allow here; names what it expected.
    Expected(&'static str),
    /// A raw control character inside a string.
    ControlCharacter,
    /// A backslash escape RFC 8259 does not define, or a `\u` without
    /// four hex digits.
    BadEscape,
    /// A `\u` escape naming one half of a UTF-16 surrogate pair alone.
    LoneSurrogate,
    /// A number the field's type cannot hold.
    NumberOutOfRange,
    /// A string the field's type cannot parse.
    InvalidValue,
    /// A key missing from the object's field table.
    UnknownField,
    /// A key seen twice in one object.
    DuplicateKey,
    /// A required field never appeared.
    MissingField(&'static str),
    /// Bytes after the value.
    TrailingData,
}

impl fmt::Display for JsonErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnexpectedEnd => f.write_str("unexpected end of input"),
            Self::Expected(what) => write!(f, "expected {what}"),
            Self::ControlCharacter => f.write_str("unescaped control character"),
            Self::BadEscape => f.write_str("invalid escape"),
            Self::LoneSurrogate => f.write_str("unpaired surrogate escape"),
            Self::NumberOutOfRange => f.write_str("number out of range"),
            Self::InvalidValue => f.write_str("invalid value"),
            Self::UnknownField => f.write_str("unknown field"),
            Self::DuplicateKey => f.write_str("duplicate key"),
            Self::MissingField(name) => write!(f, "missing field '{name}'"),
            Self::TrailingData => f.write_str("trailing data"),
        }
    }
}

/// A [`Cursor`] rejection: what went wrong, and where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonError {
    /// What the input broke.
    pub kind: JsonErrorKind,
    /// Byte offset into the input where it broke.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (byte offset {})", self.kind, self.offset)
    }
}

impl std::error::Error for JsonError {}

fn fail(kind: JsonErrorKind, offset: usize) -> JsonError {
    JsonError { kind, offset }
}

/// A strict, borrowed reader over one JSON text. Each read skips
/// leading whitespace, consumes one value and stops right after it.
#[derive(Debug)]
pub struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Self { text, pos: 0 }
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// `Expected(what)` here, or `UnexpectedEnd` if the input ran out.
    fn unexpected(&self, what: &'static str) -> JsonError {
        match self.byte() {
            None => fail(JsonErrorKind::UnexpectedEnd, self.pos),
            Some(_) => fail(JsonErrorKind::Expected(what), self.pos),
        }
    }

    /// Skips whitespace and returns the next byte, if any.
    fn peek(&mut self) -> Option<u8> {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.byte() {
            self.pos += 1;
        }
        self.byte()
    }

    /// Consumes `byte` if it is next (after whitespace).
    fn eat(&mut self, byte: u8) -> bool {
        let next = self.peek() == Some(byte);
        self.pos += usize::from(next);
        next
    }

    fn expect(&mut self, byte: u8, what: &'static str) -> Result<(), JsonError> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(self.unexpected(what))
        }
    }

    /// After an element: `true` on `,`, `false` on `close`.
    fn comma_or(&mut self, close: u8, what: &'static str) -> Result<bool, JsonError> {
        if self.eat(b',') {
            Ok(true)
        } else if self.eat(close) {
            Ok(false)
        } else {
            Err(self.unexpected(what))
        }
    }

    /// Reads one object whose keys come from `fields`, handing `value`
    /// each key's index in `fields` to read its value with. A key not in
    /// the table is `UnknownField` and a repeated one `DuplicateKey`,
    /// both at the key; [`required`](Self::required) checks what must
    /// have appeared.
    pub fn object(
        &mut self,
        fields: &[&str],
        mut value: impl FnMut(&mut Self, usize) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        debug_assert!(fields.len() <= 64, "the seen set is one word");
        self.expect(b'{', "'{'")?;
        if self.eat(b'}') {
            return Ok(());
        }
        let mut seen = 0u64;
        loop {
            self.peek();
            let at = self.pos;
            let key = self.string()?;
            let field = fields
                .iter()
                .position(|f| *f == key)
                .ok_or(fail(JsonErrorKind::UnknownField, at))?;
            if seen & 1 << field != 0 {
                return Err(fail(JsonErrorKind::DuplicateKey, at));
            }
            seen |= 1 << field;
            self.expect(b':', "':'")?;
            value(self, field)?;
            if !self.comma_or(b'}', "',' or '}'")? {
                return Ok(());
            }
        }
    }

    /// Reads one array, each element with `element`.
    pub fn array<T>(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        self.expect(b'[', "'['")?;
        let mut out = Vec::new();
        if self.eat(b']') {
            return Ok(out);
        }
        loop {
            out.push(element(self)?);
            if !self.comma_or(b']', "',' or ']'")? {
                return Ok(out);
            }
        }
    }

    /// Reads one string, borrowed from the input when it holds no
    /// escape.
    pub fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"', "a string")?;
        let mut owned: Option<String> = None;
        // Every byte acted on is ASCII, so each cut falls on a char
        // boundary.
        let mut clean = self.pos;
        loop {
            match self.byte() {
                None => return Err(fail(JsonErrorKind::UnexpectedEnd, self.pos)),
                Some(b'"') => {
                    let run = &self.text[clean..self.pos];
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(s) => Cow::Owned(s + run),
                    });
                }
                Some(b'\\') => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(&self.text[clean..self.pos]);
                    out.push(self.escape()?);
                    clean = self.pos;
                }
                Some(0x00..=0x1f) => return Err(fail(JsonErrorKind::ControlCharacter, self.pos)),
                Some(_) => self.pos += 1,
            }
        }
    }

    /// Decodes the escape at the cursor's backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        let at = self.pos;
        self.pos += 1;
        let Some(b) = self.byte() else {
            return Err(fail(JsonErrorKind::UnexpectedEnd, self.pos));
        };
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => return self.unicode_escape(at),
            _ => return Err(fail(JsonErrorKind::BadEscape, at)),
        })
    }

    /// Decodes `\uXXXX` — plus the `\uXXXX` low half a high surrogate
    /// needs — after its backslash at `at`.
    fn unicode_escape(&mut self, at: usize) -> Result<char, JsonError> {
        let lone = fail(JsonErrorKind::LoneSurrogate, at);
        let mut code = self.hex4(at)?;
        if (0xD800..0xDC00).contains(&code) {
            for expected in *b"\\u" {
                match self.byte() {
                    None => return Err(fail(JsonErrorKind::UnexpectedEnd, self.pos)),
                    Some(b) if b == expected => self.pos += 1,
                    Some(_) => return Err(lone),
                }
            }
            let low = self.hex4(self.pos - 2)?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(lone);
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        // A lone low surrogate is the one code left that is not a char.
        char::from_u32(code).ok_or(lone)
    }

    /// Four hex digits of the `\u` escape whose backslash is at `at`.
    fn hex4(&mut self, at: usize) -> Result<u32, JsonError> {
        let mut code = 0;
        for _ in 0..4 {
            let Some(b) = self.byte() else {
                return Err(fail(JsonErrorKind::UnexpectedEnd, self.pos));
            };
            let digit = char::from(b)
                .to_digit(16)
                .ok_or(fail(JsonErrorKind::BadEscape, at))?;
            code = code << 4 | digit;
            self.pos += 1;
        }
        Ok(code)
    }

    /// Reads one string and parses it with `T`'s [`FromStr`]; a string
    /// it rejects is `InvalidValue` at the opening quote.
    pub fn string_as<T: FromStr>(&mut self) -> Result<T, JsonError> {
        self.peek();
        let at = self.pos;
        self.string()?
            .parse()
            .map_err(|_| fail(JsonErrorKind::InvalidValue, at))
    }

    /// Scans one number, `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`,
    /// returning its offset and text.
    fn number(&mut self) -> Result<(usize, &'a str), JsonError> {
        self.peek();
        let start = self.pos;
        let digits = |c: &mut Self| {
            let from = c.pos;
            while c.byte().is_some_and(|b| b.is_ascii_digit()) {
                c.pos += 1;
            }
            if c.pos > from {
                Ok(())
            } else {
                Err(c.unexpected("a digit"))
            }
        };
        self.pos += usize::from(self.byte() == Some(b'-'));
        match self.byte() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => digits(self)?,
            _ => return Err(self.unexpected("a number")),
        }
        if self.byte() == Some(b'.') {
            self.pos += 1;
            digits(self)?;
        }
        if let Some(b'e' | b'E') = self.byte() {
            self.pos += 1;
            self.pos += usize::from(matches!(self.byte(), Some(b'+' | b'-')));
            digits(self)?;
        }
        Ok((start, &self.text[start..self.pos]))
    }

    /// Reads one number as an unsigned integer of type `T`; a sign,
    /// fraction, exponent or overflow is `NumberOutOfRange`.
    pub fn uint<T: TryFrom<u64>>(&mut self) -> Result<T, JsonError> {
        let (start, text) = self.number()?;
        text.parse::<u64>()
            .ok()
            .and_then(|n| T::try_from(n).ok())
            .ok_or(fail(JsonErrorKind::NumberOutOfRange, start))
    }

    /// Reads one number as the nearest `f32`.
    pub fn f32(&mut self) -> Result<f32, JsonError> {
        let (start, text) = self.number()?;
        text.parse()
            .map_err(|_| fail(JsonErrorKind::NumberOutOfRange, start))
    }

    /// Reads `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, JsonError> {
        self.peek();
        let rest = &self.text[self.pos..];
        for (word, value) in [("true", true), ("false", false)] {
            if rest.starts_with(word) {
                self.pos += word.len();
                return Ok(value);
            }
            if word.starts_with(rest) {
                // The input ends inside the word.
                self.pos = self.text.len();
            }
        }
        Err(self.unexpected("true or false"))
    }

    /// Rejects anything but whitespace after the value read last.
    pub fn end(&mut self) -> Result<(), JsonError> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(fail(JsonErrorKind::TrailingData, self.pos)),
        }
    }

    /// Unwraps a field the object must have held: `MissingField(name)`
    /// at the cursor when it did not.
    pub fn required<T>(&self, slot: Option<T>, name: &'static str) -> Result<T, JsonError> {
        slot.ok_or_else(|| fail(JsonErrorKind::MissingField(name), self.pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::{collection, sample};

    /// One line of each format the workspace writes, as its renderer
    /// writes it: an alert, a score record, a dataset label and a
    /// `STATS` reply.
    const LINES: [&str; 4] = [
        r#"{"index":3,"tenant":"shop-eu","time":"11/Mar/2018:06:25:14 +0000","client":"198.51.100.7","agent":"weird \\\"agent\\\" \u0001 é🛒","method":"GET","path":"/search?q=NCE","status":403,"votes":[true,false],"scores":[1.00,0.25]}"#,
        r#"{"index":0,"alerted":false,"votes":[false],"scores":[0.10],"line":"198.51.100.7 - - [11/Mar/2018:06:25:14 +0000] \"GET / HTTP/1.1\" 200 5 \"-\" \"curl/7.58.0\""}"#,
        r#"{"index":0,"actor":"stealth-scraper","malicious":true,"client_id":17,"session_id":3}"#,
        r#"{"entries_processed":30,"entries_pending":0,"alerts":4,"inflight_chunks":0,"live_clients_aggregate":6,"parse_errors":1,"routed_lines":31,"dropped_lines":0,"unrouted_lines":0,"eviction_budget":512,"runtime_updates":{"eviction":1,"adjudication":0},"triage":{"escalations":0,"suppressed":0,"replayed":0,"spilled":0},"drift_alarms":0,"deadline_flushes":2,"max_buffered_age_us":10113,"tenants":[{"tenant":"shop \"quoted\"","shards":2,"entries_processed":30,"alerts":4,"live_clients":6,"parse_errors":1,"triage":{"escalations":0,"suppressed":0,"replayed":0,"spilled":0},"frozen":false}]}"#,
    ];

    /// Every key of the four formats.
    const KEYS: &[&str] = &[
        "index",
        "tenant",
        "time",
        "client",
        "agent",
        "method",
        "path",
        "status",
        "votes",
        "scores",
        "alerted",
        "line",
        "actor",
        "malicious",
        "client_id",
        "session_id",
        "entries_processed",
        "entries_pending",
        "alerts",
        "inflight_chunks",
        "live_clients_aggregate",
        "parse_errors",
        "routed_lines",
        "dropped_lines",
        "unrouted_lines",
        "eviction_budget",
        "runtime_updates",
        "eviction",
        "adjudication",
        "triage",
        "escalations",
        "suppressed",
        "replayed",
        "spilled",
        "drift_alarms",
        "deadline_flushes",
        "max_buffered_age_us",
        "tenants",
        "shards",
        "live_clients",
        "frozen",
    ];

    /// Reads whatever value comes next by its first byte — a schema-free
    /// reader for the tests, recursive only as deep as the input nests.
    fn walk(c: &mut Cursor<'_>) -> Result<(), JsonError> {
        match c.peek() {
            Some(b'{') => c.object(KEYS, |c, _| walk(c)),
            Some(b'[') => c.array(walk).map(drop),
            Some(b'"') => c.string().map(drop),
            Some(b't' | b'f') => c.bool().map(drop),
            _ => c.f32().map(drop),
        }
    }

    fn parse(text: &str) -> Result<(), JsonError> {
        let mut c = Cursor::new(text);
        walk(&mut c)?;
        c.end()
    }

    /// A flat schema in the shape of the line parsers: what the
    /// production callers run.
    fn schema(text: &str) -> Result<(u64, Vec<bool>, String), JsonError> {
        let mut c = Cursor::new(text);
        let (mut index, mut votes, mut agent) = (None, None, None);
        c.object(&["index", "votes", "agent"], |c, field| {
            match field {
                0 => index = Some(c.uint()?),
                1 => votes = Some(c.array(Cursor::bool)?),
                _ => agent = Some(c.string()?.into_owned()),
            }
            Ok(())
        })?;
        c.end()?;
        Ok((
            c.required(index, "index")?,
            c.required(votes, "votes")?,
            c.required(agent, "agent")?,
        ))
    }

    fn string(text: &str) -> Result<Cow<'_, str>, JsonError> {
        let mut c = Cursor::new(text);
        let s = c.string()?;
        c.end().map(|()| s)
    }

    fn kind<T: fmt::Debug>(result: Result<T, JsonError>) -> (JsonErrorKind, usize) {
        let err = result.expect_err("rejected");
        (err.kind, err.offset)
    }

    #[test]
    fn escaper_copies_clean_runs_and_escapes_the_rest() {
        let mut out = String::from("kept:");
        push_json_escaped(&mut out, "plain \"q\" \\ \n\r\t \u{0}\u{1f} é🛒\u{7f} end");
        assert_eq!(
            out,
            "kept:plain \\\"q\\\" \\\\ \\n\\r\\t \\u0000\\u001f é🛒\u{7f} end"
        );
    }

    #[test]
    fn every_written_line_reads_and_every_truncation_ends_early() {
        for line in LINES {
            parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            for (cut, _) in line.char_indices() {
                let prefix = &line[..cut];
                assert_eq!(
                    kind(parse(prefix)),
                    (JsonErrorKind::UnexpectedEnd, cut),
                    "{prefix}"
                );
            }
        }
    }

    #[test]
    fn strings_borrow_unless_escaped_and_decode_surrogate_pairs() {
        assert!(matches!(
            string(r#""plain é""#),
            Ok(Cow::Borrowed("plain é"))
        ));
        // What Python's `json.dumps` writes for a non-ASCII user agent.
        assert_eq!(
            string(r#""cart \ud83d\uded2 \u00e9""#).unwrap(),
            "cart 🛒 é"
        );
        assert_eq!(
            string(r#""\"\\\/\b\f\n\r\t\u0041\u0000""#).unwrap(),
            "\"\\/\u{8}\u{c}\n\r\t\u{41}\u{0}"
        );
    }

    /// Each input is one a JSON writer never emits, with the kind and
    /// offset it is rejected at.
    #[test]
    fn cursor_rejects_what_no_writer_emits() {
        use JsonErrorKind::*;
        for (input, expected) in [
            (r#""\u+041""#, (BadEscape, 1)),
            (r#""\u00G1""#, (BadEscape, 1)),
            (r#""\x""#, (BadEscape, 1)),
            (r#""\ud83d""#, (LoneSurrogate, 1)),
            (r#""\ud83d\u0041""#, (LoneSurrogate, 1)),
            (r#""\ud83dx""#, (LoneSurrogate, 1)),
            (r#""\udc00\ud83d""#, (LoneSurrogate, 1)),
            ("\"raw\nnewline\"", (ControlCharacter, 4)),
            ("+5", (Expected("a number"), 0)),
            ("007", (TrailingData, 1)),
            ("-", (UnexpectedEnd, 1)),
            ("1.", (UnexpectedEnd, 2)),
            ("1.e5", (Expected("a digit"), 2)),
            ("1e+", (UnexpectedEnd, 3)),
            ("tru", (UnexpectedEnd, 3)),
            ("trUe", (Expected("true or false"), 0)),
            ("null", (Expected("a number"), 0)),
            ("{\"index\":1,\"index\":2}", (DuplicateKey, 11)),
            ("{\"bogus\":1}", (UnknownField, 1)),
            ("{\"index\":1 \"votes\":[]}", (Expected("',' or '}'"), 11)),
            ("[true,]", (Expected("a number"), 6)),
            ("{} {}", (TrailingData, 3)),
        ] {
            assert_eq!(kind(parse(input)), expected, "{input}");
        }
        // Through a schema: ranges and required fields.
        for (input, expected) in [
            (
                "{\"index\":-1,\"votes\":[],\"agent\":\"\"}",
                (NumberOutOfRange, 9),
            ),
            (
                "{\"index\":1.5,\"votes\":[],\"agent\":\"\"}",
                (NumberOutOfRange, 9),
            ),
            ("{\"index\":18446744073709551616}", (NumberOutOfRange, 9)),
            ("{\"index\":+5}", (Expected("a number"), 9)),
            ("{\"index\":007}", (Expected("',' or '}'"), 10)),
            ("{\"index\":1,\"votes\":[]}", (MissingField("agent"), 22)),
        ] {
            assert_eq!(kind(schema(input)), expected, "{input}");
        }
        assert_eq!(
            kind(Cursor::new("\"10.0.0.300\"").string_as::<std::net::Ipv4Addr>()),
            (InvalidValue, 0)
        );
        assert_eq!(
            kind(Cursor::new("70000").uint::<u16>()),
            (NumberOutOfRange, 0)
        );
    }

    #[test]
    fn ten_thousand_deep_nesting_is_rejected_without_descending() {
        let deep = |open: &str| open.repeat(10_000);
        for (input, offset) in [
            (deep("["), 0),
            (deep("{"), 1),
            (format!("{{\"votes\":{}", deep("[")), 10),
            (format!("{{\"index\":{}", deep("{\"index\":")), 9),
        ] {
            let err = schema(&input).expect_err("deep nesting");
            assert_eq!(err.offset, offset, "{err}");
            assert!(matches!(err.kind, JsonErrorKind::Expected(_)), "{err}");
        }
    }

    /// Character pool spanning every class the escaper treats specially.
    const CHARS: &[char] = &[
        'a', 'Z', '7', '/', '?', '=', '.', '-', ' ', '"', '\\', '\n', '\r', '\t', '\u{1}',
        '\u{1f}', 'é', 'Ω', '→', '🛒',
    ];

    /// JSON escape bytes: the eight RFC 8259 escapes, `u`, and bytes it
    /// does not define.
    const ESCAPES: &[u8] = b"\"\\/bfnrtuxU0 '\x01";

    proptest! {
        #[test]
        fn arbitrary_bytes_never_panic_the_cursor(
            bytes in collection::vec(any::<u8>(), 0..64),
            splice in collection::vec(sample::select(b"{}[]\",:\\u0123456789-+.eEtrufalsdb ".to_vec()), 0..48),
        ) {
            for input in [String::from_utf8_lossy(&bytes).into_owned(), String::from_utf8_lossy(&splice).into_owned()] {
                for result in [parse(&input), schema(&input).map(drop)] {
                    if let Err(err) = result {
                        prop_assert!(err.offset <= input.len(), "{err} in {input:?}");
                        prop_assert!(err.to_string().contains("byte offset"));
                    }
                }
            }
        }

        #[test]
        fn unicode_escapes_decode_exactly_like_utf16(
            units in collection::vec(sample::select(vec![0x41u16, 0xe9, 0x7f, 0xd7ff, 0xd800, 0xd83d, 0xdbff, 0xdc00, 0xdec2, 0xdfff, 0xe000, 0xffff]), 1..5),
            upper in any::<bool>(),
        ) {
            let mut input = String::from("\"");
            for unit in &units {
                input.push_str(&if upper { format!("\\u{unit:04X}") } else { format!("\\u{unit:04x}") });
            }
            input.push('"');
            let reference: Result<String, _> = char::decode_utf16(units.iter().copied()).collect();
            match (string(&input), reference) {
                (Ok(got), Ok(want)) => prop_assert_eq!(got, want),
                (Err(err), Err(_)) => {
                    prop_assert_eq!(err.kind, JsonErrorKind::LoneSurrogate, "{input}")
                }
                (got, want) => panic!("{input}: cursor {got:?}, UTF-16 {want:?}"),
            }
        }

        #[test]
        fn only_rfc_escapes_are_accepted(
            escape in sample::select(ESCAPES.to_vec()),
            prefix in collection::vec(sample::select(CHARS.to_vec()), 0..6),
        ) {
            let prefix: String = prefix.into_iter().collect();
            let mut input = String::from("\"");
            push_json_escaped(&mut input, &prefix);
            let at = input.len();
            input.push('\\');
            input.push(char::from(escape));
            input.push_str("0041\"");
            match escape {
                b'u' => prop_assert_eq!(string(&input).unwrap(), format!("{prefix}\u{41}")),
                b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => {
                    prop_assert!(string(&input).is_ok(), "{input}")
                }
                _ => prop_assert_eq!(kind(string(&input)), (JsonErrorKind::BadEscape, at)),
            }
        }

        #[test]
        fn the_escaper_round_trips_through_the_cursor(
            chars in collection::vec(sample::select(CHARS.to_vec()), 0..32),
        ) {
            let text: String = chars.into_iter().collect();
            let mut line = String::new();
            push_json_string(&mut line, &text);
            prop_assert!(!line.bytes().any(|b| b < 0x20), "{line:?}");
            prop_assert_eq!(string(&line).unwrap_or_else(|e| panic!("{e}: {line}")), text);
        }
    }
}
