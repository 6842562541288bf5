//! Owned, parseable forms of the sink line formats.
//!
//! The sinks render borrowed [`Alert`](crate::Alert)s and
//! [`ScoredEntry`](crate::ScoredEntry)s straight to JSON lines; this
//! module holds their owned inverses — [`AlertRecord`] and
//! [`ScoreRecord`] — parsed back with [`Alert::from_json`] /
//! [`ScoreRecord::from_json`] so collectors and the retro-scoring tool
//! can consume stored or streamed sink output.

use std::net::Ipv4Addr;

use divscrape_detect::TenantId;
use divscrape_httplog::{LogEntry, ParseLogError};

use crate::sink::{push_display, push_head, push_ipv4, push_json_escaped, push_scores, push_votes};

/// Why a JSON alert/score line failed to parse.
///
/// ```
/// use divscrape_pipeline::Alert;
///
/// let err = Alert::from_json("{\"index\":oops}").unwrap_err();
/// assert!(err.to_string().contains("offset"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertParseError {
    message: String,
    at: usize,
}

impl std::fmt::Display for AlertParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (byte offset {})", self.message, self.at)
    }
}

impl std::error::Error for AlertParseError {}

/// An owned alert, as parsed from one [`Alert::to_json`](crate::Alert::to_json) line.
///
/// [`AlertRecord::to_json`] renders the exact same line format, so
/// `to_json → from_json → to_json` round-trips byte-for-byte.
///
/// ```
/// use divscrape_pipeline::Alert;
///
/// let line = r#"{"index":3,"tenant":"shop-eu","time":"11/Mar/2018:06:25:14 +0000","client":"198.51.100.7","agent":"curl/7.58.0","method":"GET","path":"/search","status":403,"votes":[true,false],"scores":[1.00,0.25]}"#;
/// let record = Alert::from_json(line)?;
/// assert_eq!(record.index, 3);
/// assert_eq!(record.tenant.as_ref().map(|t| t.as_str()), Some("shop-eu"));
/// assert_eq!(record.votes, vec![true, false]);
/// assert_eq!(record.to_json(), line);
/// # Ok::<(), divscrape_pipeline::AlertParseError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRecord {
    /// Feed-order entry index.
    pub index: u64,
    /// Originating tenant, when the pipeline was tenant-labelled.
    pub tenant: Option<TenantId>,
    /// CLF timestamp of the alerting entry.
    pub time: String,
    /// Client address.
    pub client: Ipv4Addr,
    /// User-agent string (raw, unescaped).
    pub agent: String,
    /// HTTP method.
    pub method: String,
    /// Request path (with query string).
    pub path: String,
    /// HTTP status code.
    pub status: u16,
    /// Per-member votes, in composition order.
    pub votes: Vec<bool>,
    /// Per-member confidence scores, parallel to `votes`.
    pub scores: Vec<f32>,
}

impl AlertRecord {
    /// Renders the record back to the exact [`Alert::to_json`](crate::Alert::to_json) line
    /// format (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(160);
        push_head(&mut out, self.index, self.tenant.as_ref());
        out.push_str(",\"time\":\"");
        push_json_escaped(&mut out, &self.time);
        out.push_str("\",\"client\":\"");
        push_ipv4(&mut out, self.client);
        out.push_str("\",\"agent\":\"");
        push_json_escaped(&mut out, &self.agent);
        out.push_str("\",\"method\":\"");
        push_json_escaped(&mut out, &self.method);
        out.push_str("\",\"path\":\"");
        push_json_escaped(&mut out, &self.path);
        out.push_str("\",\"status\":");
        push_display(&mut out, &self.status);
        out.push_str(",\"votes\":");
        push_votes(&mut out, &self.votes);
        out.push_str(",\"scores\":");
        push_scores(&mut out, &self.scores);
        out.push('}');
        out
    }
}

/// An owned per-entry score record, as written by
/// [`StoreSink`](crate::StoreSink) score records and rendered by
/// [`ScoredEntry::to_json`](crate::ScoredEntry::to_json).
///
/// Carries the full CLF `line`, so offline tooling can re-parse the
/// entry and re-run candidate detectors over stored history.
///
/// ```
/// use divscrape_pipeline::ScoreRecord;
///
/// let line = r#"{"index":0,"alerted":false,"votes":[false],"scores":[0.10],"line":"198.51.100.7 - - [11/Mar/2018:06:25:14 +0000] \"GET / HTTP/1.1\" 200 5 \"-\" \"curl/7.58.0\""}"#;
/// let record = ScoreRecord::from_json(line)?;
/// assert!(!record.alerted);
/// assert_eq!(record.entry().unwrap().status().as_u16(), 200);
/// assert_eq!(record.to_json(), line);
/// # Ok::<(), divscrape_pipeline::AlertParseError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreRecord {
    /// Feed-order entry index.
    pub index: u64,
    /// Originating tenant, when the pipeline was tenant-labelled.
    pub tenant: Option<TenantId>,
    /// Whether the live adjudication rule alerted on this entry.
    pub alerted: bool,
    /// Per-member votes, in composition order.
    pub votes: Vec<bool>,
    /// Per-member confidence scores, parallel to `votes`.
    pub scores: Vec<f32>,
    /// The entry's raw CLF line.
    pub line: String,
}

impl ScoreRecord {
    /// Parses one score-record JSON line.
    ///
    /// # Errors
    ///
    /// Returns [`AlertParseError`] on malformed JSON, unknown fields or
    /// missing required fields.
    pub fn from_json(json: &str) -> Result<Self, AlertParseError> {
        Parser::new(json).parse_score_record()
    }

    /// Renders the record back to the exact
    /// [`ScoredEntry::to_json`](crate::ScoredEntry::to_json) line format.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(200);
        push_head(&mut out, self.index, self.tenant.as_ref());
        out.push_str(",\"alerted\":");
        out.push_str(if self.alerted { "true" } else { "false" });
        out.push_str(",\"votes\":");
        push_votes(&mut out, &self.votes);
        out.push_str(",\"scores\":");
        push_scores(&mut out, &self.scores);
        out.push_str(",\"line\":\"");
        push_json_escaped(&mut out, &self.line);
        out.push_str("\"}");
        out
    }

    /// Re-parses the stored CLF line into a [`LogEntry`].
    ///
    /// # Errors
    ///
    /// Returns the underlying CLF parse error if the stored line is not
    /// valid Combined Log Format.
    pub fn entry(&self) -> Result<LogEntry, ParseLogError> {
        LogEntry::parse(&self.line)
    }
}

pub(crate) fn parse_alert_record(json: &str) -> Result<AlertRecord, AlertParseError> {
    Parser::new(json).parse_alert_record()
}

/// A strict, allocation-light parser for the two sink line formats.
/// Accepts fields in any order but rejects unknown fields, duplicate
/// syntax errors and trailing garbage.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(json: &'a str) -> Self {
        Self {
            bytes: json.as_bytes(),
            pos: 0,
        }
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, AlertParseError> {
        Err(AlertParseError {
            message: message.into(),
            at: self.pos,
        })
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), AlertParseError> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    fn parse_string(&mut self) -> Result<String, AlertParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            let Some(code) = hex.and_then(char::from_u32) else {
                                return self.err("bad \\u escape");
                            };
                            out.push(code);
                            self.pos += 4;
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (the input is a &str,
                    // so boundaries are trustworthy).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .expect("input was a valid &str");
                    let c = rest.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number_token(&mut self) -> Result<&'a str, AlertParseError> {
        self.skip_ws();
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        if start == self.pos {
            return self.err("expected a number");
        }
        Ok(std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number token"))
    }

    fn parse_u64(&mut self) -> Result<u64, AlertParseError> {
        let token = self.number_token()?;
        match token.parse() {
            Ok(v) => Ok(v),
            Err(_) => self.err(format!("bad integer '{token}'")),
        }
    }

    fn parse_u16(&mut self) -> Result<u16, AlertParseError> {
        let token = self.number_token()?;
        match token.parse() {
            Ok(v) => Ok(v),
            Err(_) => self.err(format!("bad status '{token}'")),
        }
    }

    fn parse_f32(&mut self) -> Result<f32, AlertParseError> {
        let token = self.number_token()?;
        match token.parse() {
            Ok(v) => Ok(v),
            Err(_) => self.err(format!("bad score '{token}'")),
        }
    }

    fn parse_bool(&mut self) -> Result<bool, AlertParseError> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(b"true") {
            self.pos += 4;
            Ok(true)
        } else if self.bytes[self.pos..].starts_with(b"false") {
            self.pos += 5;
            Ok(false)
        } else {
            self.err("expected true/false")
        }
    }

    fn parse_array<T>(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<T, AlertParseError>,
    ) -> Result<Vec<T>, AlertParseError> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            out.push(element(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    /// Drives `{ "key": value, ... }` iteration, calling `field` per key.
    fn parse_object(
        &mut self,
        mut field: impl FnMut(&mut Self, &str) -> Result<(), AlertParseError>,
    ) -> Result<(), AlertParseError> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
        } else {
            loop {
                let key = self.parse_string()?;
                self.expect(b':')?;
                field(self, &key)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return self.err("expected ',' or '}'"),
                }
            }
        }
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return self.err("trailing data after object");
        }
        Ok(())
    }

    fn parse_alert_record(&mut self) -> Result<AlertRecord, AlertParseError> {
        let mut index = None;
        let mut tenant = None;
        let mut time = None;
        let mut client = None;
        let mut agent = None;
        let mut method = None;
        let mut path = None;
        let mut status = None;
        let mut votes = None;
        let mut scores = None;
        self.parse_object(|p, key| {
            match key {
                "index" => index = Some(p.parse_u64()?),
                "tenant" => tenant = Some(TenantId::new(p.parse_string()?)),
                "time" => time = Some(p.parse_string()?),
                "client" => {
                    let raw = p.parse_string()?;
                    match raw.parse() {
                        Ok(ip) => client = Some(ip),
                        Err(_) => return p.err(format!("bad client address '{raw}'")),
                    }
                }
                "agent" => agent = Some(p.parse_string()?),
                "method" => method = Some(p.parse_string()?),
                "path" => path = Some(p.parse_string()?),
                "status" => status = Some(p.parse_u16()?),
                "votes" => votes = Some(p.parse_array(Self::parse_bool)?),
                "scores" => scores = Some(p.parse_array(Self::parse_f32)?),
                other => return p.err(format!("unknown alert field '{other}'")),
            }
            Ok(())
        })?;
        let require = |name: &str, missing: bool| {
            if missing {
                self.err::<()>(format!("missing field '{name}'"))
            } else {
                Ok(())
            }
        };
        require("index", index.is_none())?;
        require("time", time.is_none())?;
        require("client", client.is_none())?;
        require("agent", agent.is_none())?;
        require("method", method.is_none())?;
        require("path", path.is_none())?;
        require("status", status.is_none())?;
        require("votes", votes.is_none())?;
        require("scores", scores.is_none())?;
        Ok(AlertRecord {
            index: index.expect("checked"),
            tenant,
            time: time.expect("checked"),
            client: client.expect("checked"),
            agent: agent.expect("checked"),
            method: method.expect("checked"),
            path: path.expect("checked"),
            status: status.expect("checked"),
            votes: votes.expect("checked"),
            scores: scores.expect("checked"),
        })
    }

    fn parse_score_record(&mut self) -> Result<ScoreRecord, AlertParseError> {
        let mut index = None;
        let mut tenant = None;
        let mut alerted = None;
        let mut votes = None;
        let mut scores = None;
        let mut line = None;
        self.parse_object(|p, key| {
            match key {
                "index" => index = Some(p.parse_u64()?),
                "tenant" => tenant = Some(TenantId::new(p.parse_string()?)),
                "alerted" => alerted = Some(p.parse_bool()?),
                "votes" => votes = Some(p.parse_array(Self::parse_bool)?),
                "scores" => scores = Some(p.parse_array(Self::parse_f32)?),
                "line" => line = Some(p.parse_string()?),
                other => return p.err(format!("unknown score field '{other}'")),
            }
            Ok(())
        })?;
        let require = |name: &str, missing: bool| {
            if missing {
                self.err::<()>(format!("missing field '{name}'"))
            } else {
                Ok(())
            }
        };
        require("index", index.is_none())?;
        require("alerted", alerted.is_none())?;
        require("votes", votes.is_none())?;
        require("scores", scores.is_none())?;
        require("line", line.is_none())?;
        Ok(ScoreRecord {
            index: index.expect("checked"),
            tenant,
            alerted: alerted.expect("checked"),
            votes: votes.expect("checked"),
            scores: scores.expect("checked"),
            line: line.expect("checked"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::Alert;

    fn entry() -> LogEntry {
        LogEntry::parse(
            r#"198.51.100.7 - - [11/Mar/2018:06:25:14 +0000] "GET /search?q=NCE HTTP/1.1" 403 17 "-" "weird \"agent\"""#,
        )
        .unwrap()
    }

    #[test]
    fn alert_json_round_trips_through_the_record() {
        let entry = entry();
        let tenant = TenantId::new("shop\"eu");
        let alert = Alert {
            index: 99,
            tenant: Some(&tenant),
            entry: &entry,
            votes: &[true, false, true],
            scores: &[1.0, 0.25, 0.5],
        };
        let json = alert.to_json();
        let record = Alert::from_json(&json).unwrap();
        assert_eq!(record.index, 99);
        assert_eq!(record.tenant.as_ref().map(|t| t.as_str()), Some("shop\"eu"));
        assert_eq!(record.agent, r#"weird \"agent\""#);
        assert_eq!(record.status, 403);
        assert_eq!(record.votes, vec![true, false, true]);
        assert_eq!(record.scores, vec![1.0, 0.25, 0.5]);
        assert_eq!(record.to_json(), json);
    }

    #[test]
    fn score_record_round_trips_and_reparses_its_entry() {
        let entry = entry();
        let scored = crate::sink::ScoredEntry {
            index: 4,
            tenant: None,
            entry: &entry,
            alerted: true,
            votes: &[true, true],
            scores: &[0.75, 1.0],
        };
        let json = scored.to_json();
        let record = ScoreRecord::from_json(&json).unwrap();
        assert!(record.alerted);
        assert_eq!(record.votes, vec![true, true]);
        assert_eq!(record.entry().unwrap().to_string(), entry.to_string());
        assert_eq!(record.to_json(), json);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        for bad in [
            "",
            "{",
            "{\"index\":}",
            "{\"index\":1}",             // missing fields
            "{\"index\":1,\"bogus\":2}", // unknown field
            "not json at all",
            "{\"index\":1} trailing",
        ] {
            assert!(Alert::from_json(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn parser_handles_control_char_escapes() {
        let json = "{\"index\":0,\"time\":\"t\",\"client\":\"10.0.0.1\",\"agent\":\"a\\u0001b\",\"method\":\"GET\",\"path\":\"/\",\"status\":200,\"votes\":[],\"scores\":[]}";
        let record = Alert::from_json(json).unwrap();
        assert_eq!(record.agent, "a\u{1}b");
    }

    #[test]
    fn fields_parse_in_any_order() {
        let json = "{\"status\":200,\"index\":5,\"scores\":[0.50],\"votes\":[true],\"path\":\"/\",\"method\":\"GET\",\"agent\":\"x\",\"client\":\"10.0.0.1\",\"time\":\"t\"}";
        let record = Alert::from_json(json).unwrap();
        assert_eq!(record.index, 5);
        assert_eq!(record.scores, vec![0.5]);
    }
}
