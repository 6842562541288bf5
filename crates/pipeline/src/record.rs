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
use divscrape_httplog::json::{push_json_escaped, Cursor, JsonError};
use divscrape_httplog::{LogEntry, ParseLogError};

use crate::sink::{push_display, push_head, push_ipv4, push_scores, push_votes};

/// Why a JSON alert/score line failed to parse.
///
/// ```
/// use divscrape_pipeline::Alert;
///
/// let err = Alert::from_json("{\"index\":oops}").unwrap_err();
/// assert!(err.to_string().contains("offset"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertParseError(JsonError);

impl std::fmt::Display for AlertParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
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
        score_record(&mut Cursor::new(json)).map_err(AlertParseError)
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
    alert_record(&mut Cursor::new(json)).map_err(AlertParseError)
}

/// Reads one alert line: fields in any order, none unknown or repeated.
fn alert_record(c: &mut Cursor<'_>) -> Result<AlertRecord, JsonError> {
    let (mut index, mut tenant, mut time, mut client, mut agent) = (None, None, None, None, None);
    let (mut method, mut path, mut status, mut votes, mut scores) = (None, None, None, None, None);
    let fields = [
        "index", "tenant", "time", "client", "agent", "method", "path", "status", "votes", "scores",
    ];
    c.object(&fields, |c, field| {
        match field {
            0 => index = Some(c.uint()?),
            1 => tenant = Some(TenantId::new(c.string()?)),
            2 => time = Some(c.string()?.into_owned()),
            3 => client = Some(c.string_as()?),
            4 => agent = Some(c.string()?.into_owned()),
            5 => method = Some(c.string()?.into_owned()),
            6 => path = Some(c.string()?.into_owned()),
            7 => status = Some(c.uint()?),
            8 => votes = Some(c.array(Cursor::bool)?),
            _ => scores = Some(c.array(Cursor::f32)?),
        }
        Ok(())
    })?;
    c.end()?;
    Ok(AlertRecord {
        index: c.required(index, "index")?,
        tenant,
        time: c.required(time, "time")?,
        client: c.required(client, "client")?,
        agent: c.required(agent, "agent")?,
        method: c.required(method, "method")?,
        path: c.required(path, "path")?,
        status: c.required(status, "status")?,
        votes: c.required(votes, "votes")?,
        scores: c.required(scores, "scores")?,
    })
}

/// Reads one score line, as strictly as [`alert_record`].
fn score_record(c: &mut Cursor<'_>) -> Result<ScoreRecord, JsonError> {
    let (mut index, mut tenant, mut alerted, mut votes, mut scores, mut line) =
        (None, None, None, None, None, None);
    let fields = ["index", "tenant", "alerted", "votes", "scores", "line"];
    c.object(&fields, |c, field| {
        match field {
            0 => index = Some(c.uint()?),
            1 => tenant = Some(TenantId::new(c.string()?)),
            2 => alerted = Some(c.bool()?),
            3 => votes = Some(c.array(Cursor::bool)?),
            4 => scores = Some(c.array(Cursor::f32)?),
            _ => line = Some(c.string()?.into_owned()),
        }
        Ok(())
    })?;
    c.end()?;
    Ok(ScoreRecord {
        index: c.required(index, "index")?,
        tenant,
        alerted: c.required(alerted, "alerted")?,
        votes: c.required(votes, "votes")?,
        scores: c.required(scores, "scores")?,
        line: c.required(line, "line")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::Alert;
    use divscrape_httplog::json::JsonErrorKind;

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
        // Signs on `\u` digits and numbers, leading zeros, lone
        // surrogates, out-of-range statuses: no JSON writer emits them.
        for (field, value) in [
            ("agent", r#""\u+041""#),
            ("index", "+5"),
            ("index", "007"),
            ("status", "+200"),
            ("status", "70000"),
            ("agent", r#""\ud83d""#),
            ("agent", r#""\udc00\ud83d""#),
        ] {
            let line = alert_line(field, value);
            let err = Alert::from_json(&line).expect_err(&line);
            assert!(err.to_string().contains("byte offset"), "{err}");
        }
        let duplicate = alert_line("index", "1").replacen('{', "{\"index\":0,", 1);
        assert_eq!(
            Alert::from_json(&duplicate).unwrap_err().0.kind,
            JsonErrorKind::DuplicateKey
        );
    }

    /// A valid alert line whose `field` holds the raw JSON `value`.
    fn alert_line(field: &str, value: &str) -> String {
        let fields = [
            ("index", "0"),
            ("time", "\"t\""),
            ("client", "\"10.0.0.1\""),
            ("agent", "\"a\""),
            ("method", "\"GET\""),
            ("path", "\"/\""),
            ("status", "200"),
            ("votes", "[]"),
            ("scores", "[]"),
        ];
        let body: Vec<String> = fields
            .iter()
            .map(|&(k, v)| format!("\"{k}\":{}", if k == field { value } else { v }))
            .collect();
        format!("{{{}}}", body.join(","))
    }

    /// Python's `json.dumps` escapes a 🛒 in a user agent as a surrogate
    /// pair; a collector that re-serializes our lines writes exactly this.
    #[test]
    fn parser_decodes_surrogate_pairs() {
        let record = Alert::from_json(&alert_line("agent", r#""cart \ud83d\uded2""#)).unwrap();
        assert_eq!(record.agent, "cart 🛒");
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
