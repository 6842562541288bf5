//! One Combined Log Format record.

use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::error::{BuildLogEntryError, ParseLogError, ParseLogErrorKind};
use crate::{ClfTimestamp, HttpStatus, RequestLine, UserAgent};

/// A single Apache **Combined Log Format** record:
///
/// ```text
/// host ident authuser [timestamp] "request" status bytes "referer" "user-agent"
/// ```
///
/// This is exactly the information the paper's detectors observed — both
/// Distil-style and in-house tools in the study consume application-layer
/// HTTP access logs, nothing deeper.
///
/// Construction goes through [`LogEntry::builder`] (programmatic) or
/// [`LogEntry::parse`] (from a log line); `Display` renders the canonical
/// line, and `parse ∘ to_string` is the identity for every entry this
/// workspace produces.
///
/// ```
/// use divscrape_httplog::{ClfTimestamp, HttpMethod, LogEntry};
/// use std::net::Ipv4Addr;
///
/// let entry = LogEntry::builder()
///     .addr(Ipv4Addr::new(198, 51, 100, 7))
///     .timestamp(ClfTimestamp::PAPER_WINDOW_START)
///     .request("GET /search?q=NCE-LHR HTTP/1.1".parse()?)
///     .status(divscrape_httplog::HttpStatus::OK)
///     .bytes(Some(5123))
///     .user_agent("curl/7.58.0")
///     .build()?;
/// assert_eq!(entry.request().method(), HttpMethod::Get);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogEntry {
    addr: Ipv4Addr,
    ident: Option<String>,
    user: Option<String>,
    timestamp: ClfTimestamp,
    request: RequestLine,
    status: HttpStatus,
    bytes: Option<u64>,
    referrer: Option<String>,
    user_agent: UserAgent,
}

impl LogEntry {
    /// Starts building an entry. See [`LogEntryBuilder`].
    pub fn builder() -> LogEntryBuilder {
        LogEntryBuilder::default()
    }

    /// The client address.
    pub fn addr(&self) -> Ipv4Addr {
        self.addr
    }

    /// RFC 1413 identity (`-` in practice).
    pub fn ident(&self) -> Option<&str> {
        self.ident.as_deref()
    }

    /// Authenticated user, if any.
    pub fn user(&self) -> Option<&str> {
        self.user.as_deref()
    }

    /// When the request completed.
    pub fn timestamp(&self) -> ClfTimestamp {
        self.timestamp
    }

    /// The request line.
    pub fn request(&self) -> &RequestLine {
        &self.request
    }

    /// The response status.
    pub fn status(&self) -> HttpStatus {
        self.status
    }

    /// Response body size in bytes; `None` renders as `-` (no body).
    pub fn bytes(&self) -> Option<u64> {
        self.bytes
    }

    /// The `Referer` header, if sent.
    pub fn referrer(&self) -> Option<&str> {
        self.referrer.as_deref()
    }

    /// The `User-Agent` header (possibly [empty](UserAgent::is_empty)).
    pub fn user_agent(&self) -> &UserAgent {
        &self.user_agent
    }

    /// Key identifying the *client* this entry belongs to: the address plus
    /// the user-agent fingerprint. Sessionizers and reputation caches key on
    /// this, mirroring how real tools separate distinct clients behind
    /// shared NAT addresses.
    pub fn client_key(&self) -> (Ipv4Addr, u64) {
        (self.addr, self.user_agent.fingerprint())
    }

    /// Parses a Combined Log Format line.
    ///
    /// # Errors
    ///
    /// Returns [`ParseLogError`] with the failing field kind and byte offset.
    pub fn parse(line: &str) -> Result<Self, ParseLogError> {
        parse_line(line)
    }
}

impl fmt::Display for LogEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} [{}] \"{}\" {} ",
            self.addr,
            self.ident.as_deref().unwrap_or("-"),
            self.user.as_deref().unwrap_or("-"),
            self.timestamp,
            self.request,
            self.status,
        )?;
        match self.bytes {
            Some(n) => write!(f, "{n}")?,
            None => f.write_str("-")?,
        }
        write!(
            f,
            " \"{}\" \"{}\"",
            self.referrer.as_deref().unwrap_or("-"),
            self.user_agent
        )
    }
}

impl FromStr for LogEntry {
    type Err = ParseLogError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        LogEntry::parse(s)
    }
}

/// Builder for [`LogEntry`].
///
/// Mandatory fields: `addr`, `timestamp`, `request`, `status`. Everything
/// else defaults to the CLF "absent" marker.
#[derive(Debug, Clone, Default)]
pub struct LogEntryBuilder {
    addr: Option<Ipv4Addr>,
    ident: Option<String>,
    user: Option<String>,
    timestamp: Option<ClfTimestamp>,
    request: Option<RequestLine>,
    status: Option<HttpStatus>,
    bytes: Option<u64>,
    referrer: Option<String>,
    user_agent: Option<UserAgent>,
}

impl LogEntryBuilder {
    /// Sets the client address (mandatory).
    pub fn addr(mut self, addr: Ipv4Addr) -> Self {
        self.addr = Some(addr);
        self
    }

    /// Sets the RFC 1413 identity (defaults to absent).
    pub fn ident(mut self, ident: impl Into<String>) -> Self {
        self.ident = Some(ident.into());
        self
    }

    /// Sets the authenticated user (defaults to absent).
    pub fn user(mut self, user: impl Into<String>) -> Self {
        self.user = Some(user.into());
        self
    }

    /// Sets the timestamp (mandatory).
    pub fn timestamp(mut self, t: ClfTimestamp) -> Self {
        self.timestamp = Some(t);
        self
    }

    /// Sets the request line (mandatory).
    pub fn request(mut self, r: RequestLine) -> Self {
        self.request = Some(r);
        self
    }

    /// Sets the response status (mandatory).
    pub fn status(mut self, s: HttpStatus) -> Self {
        self.status = Some(s);
        self
    }

    /// Sets the response size (`None` renders as `-`).
    pub fn bytes(mut self, bytes: Option<u64>) -> Self {
        self.bytes = bytes;
        self
    }

    /// Sets the referrer (defaults to absent).
    pub fn referrer(mut self, referrer: impl Into<String>) -> Self {
        self.referrer = Some(referrer.into());
        self
    }

    /// Sets the user agent (defaults to absent).
    pub fn user_agent(mut self, ua: impl Into<UserAgent>) -> Self {
        self.user_agent = Some(ua.into());
        self
    }

    /// Builds the entry.
    ///
    /// # Errors
    ///
    /// Returns [`BuildLogEntryError`] naming the first missing mandatory
    /// field.
    pub fn build(self) -> Result<LogEntry, BuildLogEntryError> {
        Ok(LogEntry {
            addr: self.addr.ok_or_else(|| BuildLogEntryError::new("addr"))?,
            ident: self.ident,
            user: self.user,
            timestamp: self
                .timestamp
                .ok_or_else(|| BuildLogEntryError::new("timestamp"))?,
            request: self
                .request
                .ok_or_else(|| BuildLogEntryError::new("request"))?,
            status: self
                .status
                .ok_or_else(|| BuildLogEntryError::new("status"))?,
            bytes: self.bytes,
            referrer: self.referrer,
            user_agent: self.user_agent.unwrap_or_else(UserAgent::empty),
        })
    }
}

struct Cursor<'a> {
    line: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(line: &'a str) -> Self {
        Self { line, pos: 0 }
    }

    fn rest(&self) -> &'a str {
        &self.line[self.pos..]
    }

    fn err(&self, kind: ParseLogErrorKind) -> ParseLogError {
        ParseLogError::new(kind, self.pos)
    }

    /// Consumes up to (not including) the next space; advances past it.
    fn take_token(&mut self) -> Result<&'a str, ParseLogError> {
        let rest = self.rest();
        if rest.is_empty() {
            return Err(self.err(ParseLogErrorKind::UnexpectedEnd));
        }
        match rest.find(' ') {
            Some(i) => {
                let tok = &rest[..i];
                self.pos += i + 1;
                Ok(tok)
            }
            None => {
                let tok = rest;
                self.pos = self.line.len();
                Ok(tok)
            }
        }
    }

    /// Expects `open` at the cursor, consumes through the matching `close`,
    /// returning the content between. No escape handling (used for `[..]`).
    fn take_bracketed(&mut self) -> Result<&'a str, ParseLogError> {
        let rest = self.rest();
        if !rest.starts_with('[') {
            return Err(self.err(ParseLogErrorKind::MissingDelimiter("timestamp")));
        }
        match rest.find(']') {
            Some(i) => {
                let inner = &rest[1..i];
                self.pos += i + 1;
                Ok(inner)
            }
            None => Err(self.err(ParseLogErrorKind::MissingDelimiter("timestamp"))),
        }
    }

    /// Expects `"` at the cursor; consumes through the closing quote,
    /// honouring `\"` escapes (Apache escapes quotes inside logged headers).
    /// Returns the raw content with escapes left intact — the workspace's
    /// own generator never emits them, and detectors treat the field as an
    /// opaque token.
    fn take_quoted(&mut self) -> Result<&'a str, ParseLogError> {
        let rest = self.rest();
        if !rest.starts_with('"') {
            return Err(self.err(ParseLogErrorKind::MissingDelimiter("quoted field")));
        }
        // Fast path — no escape before the closing quote (every line the
        // workspace generator or a stock Apache emits): two vectorized
        // scans instead of the byte-at-a-time escape walk below.
        let body = &rest[1..];
        if let Some(close) = body.find('"') {
            if !body[..close].contains('\\') {
                self.pos += close + 2;
                return Ok(&body[..close]);
            }
        }
        let bytes = rest.as_bytes();
        let mut i = 1;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 2,
                b'"' => {
                    let inner = &rest[1..i];
                    self.pos += i + 1;
                    return Ok(inner);
                }
                _ => i += 1,
            }
        }
        Err(self.err(ParseLogErrorKind::UnterminatedQuote))
    }

    /// Consumes a single expected space.
    fn expect_space(&mut self, before: &'static str) -> Result<(), ParseLogError> {
        if self.rest().starts_with(' ') {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(ParseLogErrorKind::MissingDelimiter(before)))
        }
    }
}

fn dash_to_none(tok: &str) -> Option<&str> {
    (tok != "-").then_some(tok)
}

/// The fields of one Combined Log Format line, borrowed from the input —
/// the shared parse core behind both [`LogEntry::parse`] (which
/// materialises owned `String`s) and the zero-copy
/// [`EntryRef`](crate::EntryRef) / [`EntryBlock`](crate::EntryBlock)
/// spine (which keeps the borrows). One implementation means the two
/// paths accept and reject exactly the same inputs with exactly the same
/// [`ParseLogError`]s, by construction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RawParts<'s> {
    pub(crate) addr: Ipv4Addr,
    pub(crate) ident: Option<&'s str>,
    pub(crate) user: Option<&'s str>,
    pub(crate) timestamp: ClfTimestamp,
    pub(crate) method: crate::HttpMethod,
    pub(crate) target: &'s str,
    pub(crate) version: crate::HttpVersion,
    pub(crate) status: HttpStatus,
    pub(crate) bytes: Option<u64>,
    pub(crate) referrer: Option<&'s str>,
    /// Raw user-agent field; `"-"` (CLF absent) is **not** yet
    /// normalised, and a plain Common Log Format line yields `""`.
    pub(crate) ua: &'s str,
}

/// Parses one CLF line into borrowed [`RawParts`]. The caller is
/// expected to have stripped the line terminator (`parse_parts` of a
/// string with trailing `\r`/`\n` fails on the final field).
pub(crate) fn parse_parts(line: &str) -> Result<RawParts<'_>, ParseLogError> {
    let mut cur = Cursor::new(line);

    let addr_tok = cur.take_token()?;
    let addr = crate::ip::parse_ipv4(addr_tok)
        .ok_or_else(|| ParseLogError::new(ParseLogErrorKind::InvalidAddr, 0))?;

    let ident = dash_to_none(cur.take_token()?);
    let user = dash_to_none(cur.take_token()?);

    let ts_raw = cur.take_bracketed()?;
    let timestamp: ClfTimestamp = ts_raw
        .parse()
        .map_err(|_| cur.err(ParseLogErrorKind::InvalidTimestamp(ts_raw.to_owned())))?;
    cur.expect_space("request")?;

    let req_raw = cur.take_quoted()?;
    let (method, target, version) = parse_request_parts(req_raw)
        .ok_or_else(|| cur.err(ParseLogErrorKind::InvalidRequestLine(req_raw.to_owned())))?;
    cur.expect_space("status")?;

    let status_tok = cur.take_token()?;
    let status = status_tok
        .parse::<u16>()
        .ok()
        .and_then(HttpStatus::new)
        .ok_or_else(|| cur.err(ParseLogErrorKind::InvalidStatus(status_tok.to_owned())))?;

    let size_tok = cur.take_token()?;
    let bytes = if size_tok == "-" {
        None
    } else {
        Some(
            size_tok
                .parse::<u64>()
                .map_err(|_| cur.err(ParseLogErrorKind::InvalidSize(size_tok.to_owned())))?,
        )
    };

    // Plain Common Log Format ends here; Combined adds the two quoted
    // fields. Both occur in the wild (and the format is per-vhost
    // configuration), so accept either.
    if cur.rest().is_empty() {
        return Ok(RawParts {
            addr,
            ident,
            user,
            timestamp,
            method,
            target,
            version,
            status,
            bytes,
            referrer: None,
            ua: "",
        });
    }

    let referrer_raw = cur.take_quoted()?;
    let referrer = dash_to_none(referrer_raw);
    cur.expect_space("user agent")?;

    let ua = cur.take_quoted()?;

    if !cur.rest().is_empty() {
        return Err(cur.err(ParseLogErrorKind::MissingDelimiter("end of line")));
    }

    Ok(RawParts {
        addr,
        ident,
        user,
        timestamp,
        method,
        target,
        version,
        status,
        bytes,
        referrer,
        ua,
    })
}

/// Splits a quoted request field into (method, target, version) without
/// allocating — the same validation `RequestLine::from_str` applies
/// (known method, non-empty target, known version, no trailing parts).
fn parse_request_parts(raw: &str) -> Option<(crate::HttpMethod, &str, crate::HttpVersion)> {
    let mut parts = raw.split(' ');
    let method: crate::HttpMethod = parts.next()?.parse().ok()?;
    let target = parts.next()?;
    if target.is_empty() {
        return None;
    }
    let version: crate::HttpVersion = parts.next()?.parse().ok()?;
    if parts.next().is_some() {
        return None;
    }
    Some((method, target, version))
}

fn parse_line(line: &str) -> Result<LogEntry, ParseLogError> {
    let parts = parse_parts(line.trim_end_matches(['\r', '\n']))?;
    let mut entry = LogEntry::blank();
    entry.refill(&parts);
    Ok(entry)
}

impl LogEntry {
    /// An entry holding no text and no heap buffer — what
    /// [`refill`](Self::refill) starts from. Not a valid record (its
    /// empty target does not re-parse), so it never leaves the crate
    /// unfilled.
    pub(crate) fn blank() -> Self {
        LogEntry {
            addr: Ipv4Addr::UNSPECIFIED,
            ident: None,
            user: None,
            timestamp: ClfTimestamp::PAPER_WINDOW_START,
            request: RequestLine::new(
                crate::HttpMethod::Get,
                crate::RequestPath::parse(""),
                crate::HttpVersion::Http11,
            ),
            status: HttpStatus::OK,
            bytes: None,
            referrer: None,
            user_agent: UserAgent::empty(),
        }
    }

    /// Overwrites **every** field from parsed parts — the one place an
    /// owned entry is assembled, shared by [`LogEntry::parse`] (from a
    /// blank entry) and [`EntryBlock::fill_entry`](crate::EntryBlock::fill_entry)
    /// (over the previous entry of a reused slot, whose `String` buffers
    /// are kept). The destructuring is exhaustive on purpose: a field
    /// added to `LogEntry` and not assigned here would survive from one
    /// entry of a reused slot into the next.
    pub(crate) fn refill(&mut self, parts: &RawParts<'_>) {
        let LogEntry {
            addr,
            ident,
            user,
            timestamp,
            request,
            status,
            bytes,
            referrer,
            user_agent,
        } = self;
        *addr = parts.addr;
        set_text(ident, parts.ident);
        set_text(user, parts.user);
        *timestamp = parts.timestamp;
        request.set(parts.method, parts.target, parts.version);
        *status = parts.status;
        *bytes = parts.bytes;
        set_text(referrer, parts.referrer);
        user_agent.set(parts.ua);
    }
}

/// Overwrites an optional text field, reusing its buffer when it stays
/// present.
fn set_text(slot: &mut Option<String>, value: Option<&str>) {
    match (slot.as_mut(), value) {
        (Some(text), Some(value)) => {
            text.clear();
            text.push_str(value);
        }
        _ => *slot = value.map(str::to_owned),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HttpMethod;
    use proptest::prelude::*;

    const SAMPLE: &str = r#"198.51.100.7 - - [11/Mar/2018:06:25:14 +0000] "GET /search?q=NCE-LHR HTTP/1.1" 200 5123 "https://shop.example/" "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36""#;

    #[test]
    fn parses_a_full_combined_line() {
        let e = LogEntry::parse(SAMPLE).unwrap();
        assert_eq!(e.addr(), Ipv4Addr::new(198, 51, 100, 7));
        assert_eq!(e.ident(), None);
        assert_eq!(e.user(), None);
        assert_eq!(e.timestamp().hour(), 6);
        assert_eq!(e.request().method(), HttpMethod::Get);
        assert_eq!(e.status(), HttpStatus::OK);
        assert_eq!(e.bytes(), Some(5123));
        assert_eq!(e.referrer(), Some("https://shop.example/"));
        assert!(e.user_agent().as_str().starts_with("Mozilla/5.0"));
    }

    #[test]
    fn display_round_trips() {
        let e = LogEntry::parse(SAMPLE).unwrap();
        assert_eq!(e.to_string(), SAMPLE);
    }

    #[test]
    fn handles_absent_fields() {
        let line = r#"10.0.0.1 - - [11/Mar/2018:00:00:00 +0000] "HEAD / HTTP/1.0" 204 - "-" "-""#;
        let e = LogEntry::parse(line).unwrap();
        assert_eq!(e.bytes(), None);
        assert_eq!(e.referrer(), None);
        assert!(e.user_agent().is_empty());
        assert_eq!(e.to_string(), line);
    }

    #[test]
    fn handles_ident_and_user() {
        let line = r#"10.0.0.1 ident alice [11/Mar/2018:00:00:00 +0000] "GET / HTTP/1.1" 200 1 "-" "curl/7.58.0""#;
        let e = LogEntry::parse(line).unwrap();
        assert_eq!(e.ident(), Some("ident"));
        assert_eq!(e.user(), Some("alice"));
        assert_eq!(e.to_string(), line);
    }

    #[test]
    fn accepts_plain_common_log_format() {
        // No referrer / user-agent fields at all (plain CLF).
        let line =
            r#"10.0.0.1 - frank [11/Mar/2018:10:00:00 +0000] "GET /offers/3 HTTP/1.0" 200 2326"#;
        let e = LogEntry::parse(line).unwrap();
        assert_eq!(e.user(), Some("frank"));
        assert_eq!(e.bytes(), Some(2326));
        assert_eq!(e.referrer(), None);
        assert!(e.user_agent().is_empty());
        // Display normalises to Combined with `-` placeholders; the result
        // re-parses to the same entry.
        let rendered = e.to_string();
        assert!(rendered.ends_with(r#"2326 "-" "-""#), "{rendered}");
        assert_eq!(LogEntry::parse(&rendered).unwrap(), e);
    }

    #[test]
    fn common_format_with_dash_size() {
        let line = r#"10.0.0.1 - - [11/Mar/2018:10:00:00 +0000] "HEAD / HTTP/1.0" 304 -"#;
        let e = LogEntry::parse(line).unwrap();
        assert_eq!(e.bytes(), None);
        assert_eq!(e.status(), HttpStatus::NOT_MODIFIED);
    }

    #[test]
    fn tolerates_trailing_newline() {
        let line = format!("{SAMPLE}\n");
        assert!(LogEntry::parse(&line).is_ok());
        let line = format!("{SAMPLE}\r\n");
        assert!(LogEntry::parse(&line).is_ok());
    }

    #[test]
    fn escaped_quote_in_user_agent() {
        let line = r#"10.0.0.1 - - [11/Mar/2018:00:00:00 +0000] "GET / HTTP/1.1" 200 1 "-" "weird \"agent\"""#;
        let e = LogEntry::parse(line).unwrap();
        assert_eq!(e.user_agent().as_str(), r#"weird \"agent\""#);
    }

    #[test]
    fn error_offsets_point_at_the_failing_field() {
        let line = r#"not-an-ip - - [11/Mar/2018:00:00:00 +0000] "GET / HTTP/1.1" 200 1 "-" "-""#;
        let err = LogEntry::parse(line).unwrap_err();
        assert_eq!(*err.kind(), ParseLogErrorKind::InvalidAddr);

        let line = r#"10.0.0.1 - - [bogus] "GET / HTTP/1.1" 200 1 "-" "-""#;
        let err = LogEntry::parse(line).unwrap_err();
        assert!(matches!(err.kind(), ParseLogErrorKind::InvalidTimestamp(_)));

        let line = r#"10.0.0.1 - - [11/Mar/2018:00:00:00 +0000] "FETCH / HTTP/1.1" 200 1 "-" "-""#;
        let err = LogEntry::parse(line).unwrap_err();
        assert!(matches!(
            err.kind(),
            ParseLogErrorKind::InvalidRequestLine(_)
        ));

        let line = r#"10.0.0.1 - - [11/Mar/2018:00:00:00 +0000] "GET / HTTP/1.1" 999 1 "-" "-""#;
        let err = LogEntry::parse(line).unwrap_err();
        assert!(matches!(err.kind(), ParseLogErrorKind::InvalidStatus(_)));

        let line = r#"10.0.0.1 - - [11/Mar/2018:00:00:00 +0000] "GET / HTTP/1.1" 200 -7 "-" "-""#;
        let err = LogEntry::parse(line).unwrap_err();
        assert!(matches!(err.kind(), ParseLogErrorKind::InvalidSize(_)));
    }

    #[test]
    fn rejects_truncated_lines() {
        let full = SAMPLE;
        // Chopping the line anywhere before the final quote must fail.
        for cut in [10, 20, 40, 60, full.len() - 5] {
            let partial = &full[..cut];
            assert!(
                LogEntry::parse(partial).is_err(),
                "accepted truncation at {cut}: `{partial}`"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let line = format!("{SAMPLE} junk");
        assert!(LogEntry::parse(&line).is_err());
    }

    #[test]
    fn builder_requires_mandatory_fields() {
        let err = LogEntry::builder().build().unwrap_err();
        assert_eq!(err.missing_field(), "addr");
        let err = LogEntry::builder()
            .addr(Ipv4Addr::LOCALHOST)
            .build()
            .unwrap_err();
        assert_eq!(err.missing_field(), "timestamp");
    }

    #[test]
    fn builder_defaults_render_as_dashes() {
        let e = LogEntry::builder()
            .addr(Ipv4Addr::new(10, 0, 0, 1))
            .timestamp(ClfTimestamp::PAPER_WINDOW_START)
            .request("GET / HTTP/1.1".parse().unwrap())
            .status(HttpStatus::OK)
            .build()
            .unwrap();
        let line = e.to_string();
        assert!(line.ends_with(r#"200 - "-" "-""#), "line: {line}");
        let re = LogEntry::parse(&line).unwrap();
        assert_eq!(re, e);
    }

    #[test]
    fn client_key_distinguishes_agents_behind_one_address() {
        let base = LogEntry::builder()
            .addr(Ipv4Addr::new(10, 0, 0, 1))
            .timestamp(ClfTimestamp::PAPER_WINDOW_START)
            .request("GET / HTTP/1.1".parse().unwrap())
            .status(HttpStatus::OK);
        let a = base.clone().user_agent("curl/7.58.0").build().unwrap();
        let b = base.clone().user_agent("Wget/1.19.4").build().unwrap();
        assert_ne!(a.client_key(), b.client_key());
        assert_eq!(a.client_key().0, b.client_key().0);
    }

    proptest! {
        #[test]
        fn round_trip_for_generated_entries(
            a in 1u8..=254, b in 0u8..=255, c in 0u8..=255, d in 1u8..=254,
            secs in 0i64..(8 * crate::SECONDS_PER_DAY),
            status_idx in 0usize..8,
            bytes in proptest::option::of(0u64..10_000_000),
            depth in 0usize..4,
            q in proptest::option::of(0u32..1000),
        ) {
            let mut path = String::from("/");
            for i in 0..depth {
                path.push_str(&format!("seg{i}/"));
            }
            if let Some(q) = q {
                path.push_str(&format!("?page={q}"));
            }
            let entry = LogEntry::builder()
                .addr(Ipv4Addr::new(a, b, c, d))
                .timestamp(ClfTimestamp::PAPER_WINDOW_START.plus_seconds(secs))
                .request(format!("GET {path} HTTP/1.1").parse().unwrap())
                .status(HttpStatus::PAPER_STATUSES[status_idx])
                .bytes(bytes)
                .referrer("https://shop.example/")
                .user_agent("Mozilla/5.0 (X11; Linux x86_64)")
                .build()
                .unwrap();
            let line = entry.to_string();
            let reparsed = LogEntry::parse(&line).unwrap();
            prop_assert_eq!(reparsed, entry);
        }
    }
}
