//! Persisting and reloading labelled datasets.
//!
//! The paper's blocking problem was that its corpus existed only inside
//! Amadeus and without labels. This module makes every generated corpus a
//! shareable artefact: the traffic as a standard Apache access log (so any
//! third-party tool can consume it), and the ground truth as a JSON-lines
//! sidecar keyed by line number.
//!
//! The sidecar records are flat five-field JSON objects, written and
//! read with the workspace's one JSON codec ([`divscrape_httplog::json`]).

use std::fmt::Write as _;
use std::io::{self, BufRead, Write};

use divscrape_httplog::json::{push_json_string, Cursor, JsonError};
use divscrape_httplog::{LogEntry, LogReader};
use divscrape_traffic::{ActorClass, GroundTruth, LabelledLog};
use serde::{Deserialize, Serialize};

/// One label record in the sidecar file (one JSON object per log line).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LabelRecord {
    /// 0-based index of the request in the log file.
    pub index: u64,
    /// Actor-class name (see [`ActorClass::name`]).
    pub actor: String,
    /// Whether the request is malicious.
    pub malicious: bool,
    /// Simulated client id.
    pub client_id: u32,
    /// Simulated session id.
    pub session_id: u32,
}

impl LabelRecord {
    /// Renders the record as one compact JSON object, in stable field
    /// order: `{"index":..,"actor":"..","malicious":..,"client_id":..,"session_id":..}`.
    pub fn to_json_string(&self) -> String {
        let mut out = format!("{{\"index\":{},\"actor\":", self.index);
        push_json_string(&mut out, &self.actor);
        // Formatting into a String cannot fail.
        let _ = write!(
            out,
            ",\"malicious\":{},\"client_id\":{},\"session_id\":{}}}",
            self.malicious, self.client_id, self.session_id
        );
        out
    }

    /// Parses a record rendered by [`to_json_string`](Self::to_json_string)
    /// (fields may appear in any order; unknown or repeated fields are
    /// rejected).
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntactic or semantic problem.
    pub fn from_json_str(s: &str) -> Result<Self, String> {
        Self::read(&mut Cursor::new(s)).map_err(|e| e.to_string())
    }

    fn read(c: &mut Cursor<'_>) -> Result<Self, JsonError> {
        let (mut index, mut actor, mut malicious, mut client_id, mut session_id) =
            (None, None, None, None, None);
        let fields = ["index", "actor", "malicious", "client_id", "session_id"];
        c.object(&fields, |c, field| {
            match field {
                0 => index = Some(c.uint()?),
                1 => actor = Some(c.string()?.into_owned()),
                2 => malicious = Some(c.bool()?),
                3 => client_id = Some(c.uint()?),
                _ => session_id = Some(c.uint()?),
            }
            Ok(())
        })?;
        c.end()?;
        Ok(LabelRecord {
            index: c.required(index, "index")?,
            actor: c.required(actor, "actor")?,
            malicious: c.required(malicious, "malicious")?,
            client_id: c.required(client_id, "client_id")?,
            session_id: c.required(session_id, "session_id")?,
        })
    }
}

/// Error while writing or reading a dataset.
#[derive(Debug)]
pub enum DatasetError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A log line failed to parse at the given 1-based line number.
    Log(String),
    /// A label record is malformed or inconsistent with the log.
    Label(String),
}

impl std::fmt::Display for DatasetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatasetError::Io(e) => write!(f, "dataset i/o failed: {e}"),
            DatasetError::Log(m) => write!(f, "dataset log malformed: {m}"),
            DatasetError::Label(m) => write!(f, "dataset labels malformed: {m}"),
        }
    }
}

impl std::error::Error for DatasetError {}

impl From<io::Error> for DatasetError {
    fn from(e: io::Error) -> Self {
        DatasetError::Io(e)
    }
}

fn actor_by_name(name: &str) -> Option<ActorClass> {
    ActorClass::ALL.into_iter().find(|a| a.name() == name)
}

/// Writes the traffic as Combined Log Format and the labels as JSON lines.
///
/// # Errors
///
/// Propagates the first I/O or serialization failure.
pub fn write_dataset<W1: Write, W2: Write>(
    log: &LabelledLog,
    log_writer: W1,
    mut label_writer: W2,
) -> Result<(), DatasetError> {
    log.write_log(log_writer)?;
    for (i, (_, truth)) in log.iter().enumerate() {
        let record = LabelRecord {
            index: i as u64,
            actor: truth.actor().name().to_owned(),
            malicious: truth.is_malicious(),
            client_id: truth.client_id(),
            session_id: truth.session_id(),
        };
        writeln!(label_writer, "{}", record.to_json_string())?;
    }
    label_writer.flush()?;
    Ok(())
}

/// Reads back a dataset written by [`write_dataset`].
///
/// Returns the entries and the parallel ground truth. The label sidecar
/// must describe exactly the log's lines, in order.
///
/// # Errors
///
/// Fails on unparsable log lines, malformed label records, index
/// mismatches, unknown actor names, or a length mismatch.
pub fn read_dataset<R1: BufRead, R2: BufRead>(
    log_reader: R1,
    label_reader: R2,
) -> Result<(Vec<LogEntry>, Vec<GroundTruth>), DatasetError> {
    let mut entries = Vec::new();
    for item in LogReader::new(log_reader) {
        match item {
            Ok(e) => entries.push(e),
            Err(e) => return Err(DatasetError::Log(e.to_string())),
        }
    }

    let mut truth = Vec::with_capacity(entries.len());
    for (i, line) in label_reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let record = LabelRecord::from_json_str(&line)
            .map_err(|e| DatasetError::Label(format!("line {}: {e}", i + 1)))?;
        if record.index != truth.len() as u64 {
            return Err(DatasetError::Label(format!(
                "label index {} out of order at line {}",
                record.index,
                i + 1
            )));
        }
        let actor = actor_by_name(&record.actor).ok_or_else(|| {
            DatasetError::Label(format!(
                "unknown actor `{}` at line {}",
                record.actor,
                i + 1
            ))
        })?;
        if actor.is_malicious() != record.malicious {
            return Err(DatasetError::Label(format!(
                "label line {}: malicious flag contradicts actor `{}`",
                i + 1,
                record.actor
            )));
        }
        truth.push(GroundTruth::new(actor, record.client_id, record.session_id));
    }

    if truth.len() != entries.len() {
        return Err(DatasetError::Label(format!(
            "{} log lines but {} labels",
            entries.len(),
            truth.len()
        )));
    }
    Ok((entries, truth))
}

#[cfg(test)]
mod tests {
    use super::*;
    use divscrape_traffic::{generate, ScenarioConfig};
    use std::io::Cursor;

    fn roundtrip(seed: u64) -> (LabelledLog, Vec<LogEntry>, Vec<GroundTruth>) {
        let log = generate(&ScenarioConfig::tiny(seed)).unwrap();
        let mut log_buf = Vec::new();
        let mut label_buf = Vec::new();
        write_dataset(&log, &mut log_buf, &mut label_buf).unwrap();
        let (entries, truth) = read_dataset(Cursor::new(log_buf), Cursor::new(label_buf)).unwrap();
        (log, entries, truth)
    }

    #[test]
    fn dataset_round_trips_exactly() {
        let (log, entries, truth) = roundtrip(55);
        assert_eq!(entries.as_slice(), log.entries());
        assert_eq!(truth.as_slice(), log.truth());
    }

    #[test]
    fn labels_are_valid_json_lines() {
        let log = generate(&ScenarioConfig::tiny(56)).unwrap();
        let mut log_buf = Vec::new();
        let mut label_buf = Vec::new();
        write_dataset(&log, &mut log_buf, &mut label_buf).unwrap();
        let text = String::from_utf8(label_buf).unwrap();
        assert_eq!(text.lines().count(), log.len());
        let first = LabelRecord::from_json_str(text.lines().next().unwrap()).unwrap();
        assert_eq!(first.index, 0);
    }

    /// A valid label line whose `field` holds the raw JSON `value`.
    fn label_line(field: &str, value: &str) -> String {
        let fields = [
            ("index", "0"),
            ("actor", "\"human\""),
            ("malicious", "false"),
            ("client_id", "1"),
            ("session_id", "2"),
        ];
        let body: Vec<String> = fields
            .iter()
            .map(|&(k, v)| format!("\"{k}\":{}", if k == field { value } else { v }))
            .collect();
        format!("{{{}}}", body.join(","))
    }

    #[test]
    fn label_parser_rejects_malformed_records() {
        for (field, value) in [
            ("actor", r#""\u+041""#),
            ("actor", r#""\ud83d""#),
            ("index", "+5"),
            ("index", "007"),
            ("client_id", "4294967296"),
            ("session_id", "2.0"),
        ] {
            let line = label_line(field, value);
            let err = LabelRecord::from_json_str(&line).expect_err(&line);
            assert!(err.contains("byte offset"), "{err}");
        }
        let duplicate = label_line("index", "1").replacen('{', "{\"index\":0,", 1);
        assert!(LabelRecord::from_json_str(&duplicate).is_err());
        // A surrogate pair, as an ASCII-escaping writer emits it.
        let record = LabelRecord::from_json_str(&label_line("actor", r#""\ud83d\uded2""#));
        assert_eq!(record.unwrap().actor, "🛒");
    }

    #[test]
    fn detects_index_disorder() {
        let log = generate(&ScenarioConfig::tiny(57)).unwrap();
        let mut log_buf = Vec::new();
        let mut label_buf = Vec::new();
        write_dataset(&log, &mut log_buf, &mut label_buf).unwrap();
        let mut lines: Vec<String> = String::from_utf8(label_buf)
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect();
        lines.swap(0, 1);
        let err = read_dataset(
            Cursor::new(log_buf),
            Cursor::new(lines.join("\n").into_bytes()),
        )
        .unwrap_err();
        assert!(matches!(err, DatasetError::Label(_)), "{err}");
    }

    #[test]
    fn detects_length_mismatch() {
        let log = generate(&ScenarioConfig::tiny(58)).unwrap();
        let mut log_buf = Vec::new();
        let mut label_buf = Vec::new();
        write_dataset(&log, &mut log_buf, &mut label_buf).unwrap();
        let text = String::from_utf8(label_buf).unwrap();
        let truncated: String = text
            .lines()
            .take(log.len() - 1)
            .collect::<Vec<_>>()
            .join("\n");
        let err =
            read_dataset(Cursor::new(log_buf), Cursor::new(truncated.into_bytes())).unwrap_err();
        assert!(matches!(err, DatasetError::Label(_)));
    }

    #[test]
    fn detects_contradictory_malice_flags() {
        let log = generate(&ScenarioConfig::tiny(59)).unwrap();
        let mut log_buf = Vec::new();
        let mut label_buf = Vec::new();
        write_dataset(&log, &mut log_buf, &mut label_buf).unwrap();
        let flipped = String::from_utf8(label_buf)
            .unwrap()
            .lines()
            .map(|l| {
                // Flip the first human record's flag.
                if l.contains("\"human\"") && l.contains("\"malicious\":false") {
                    l.replacen("\"malicious\":false", "\"malicious\":true", 1)
                } else {
                    l.to_owned()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        let err = read_dataset(Cursor::new(log_buf), Cursor::new(flipped.into_bytes()));
        assert!(err.is_err());
    }

    #[test]
    fn detects_corrupt_log_lines() {
        let log = generate(&ScenarioConfig::tiny(60)).unwrap();
        let mut log_buf = Vec::new();
        let mut label_buf = Vec::new();
        write_dataset(&log, &mut log_buf, &mut label_buf).unwrap();
        log_buf.splice(0..0, b"corrupted first line\n".iter().copied());
        let err = read_dataset(Cursor::new(log_buf), Cursor::new(label_buf)).unwrap_err();
        assert!(matches!(err, DatasetError::Log(_)));
    }
}
