//! Bench-trajectory regression gate over the checked-in `BENCH_*.json`
//! records.
//!
//! Every perf PR appends a record to one of the trajectory files
//! (`BENCH_service.json`, `BENCH_triage.json`)
//! instead of overwriting it, so the repo carries the full speedup
//! history. Raw entries/sec numbers are machine-dependent and useless to
//! gate on in CI, but the *speedup ratios* inside one record are
//! measured on a single machine in a single run — those are comparable
//! across records. This test fails when the newest record's headline
//! speedup falls below 85% of the best prior record in the same file,
//! which is how a refactor that quietly erodes the sharding or triage
//! win gets caught without anyone re-reading the JSON.
//! (`docs/history/BENCH_zero_copy.json` is a frozen record: it raced an
//! owned entry path that no longer exists, so nothing appends to it.)
//!
//! A record carrying `"rebaseline": true` restarts its file's history:
//! the comparison only looks at records from the latest such marker
//! onward. That is how a ratio whose *baseline arm* got faster (so the
//! ratio legitimately fell) is re-anchored — with a `"note"` saying why
//! — instead of relaxing the floor for everyone.
//!
//! Files with fewer than two comparable records are skipped (the gate
//! needs a prior to compare against); a file that fails to parse is a
//! hard failure, because an unparseable trajectory would silently
//! disable the gate forever.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// Minimal JSON value — just enough to read the bench trajectories.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

impl Json {
    fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }
}

/// Hand-rolled recursive-descent JSON parser. The workspace deliberately
/// has no serde dependency, and the bench files are small and trusted,
/// so ~100 lines of parser beats a new crate.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn parse(text: &'a str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(value)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        let got = self.peek()?;
        if got != b {
            return Err(format!(
                "expected '{}' at byte {}, found '{}'",
                b as char, self.pos, got as char
            ));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::String(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self.bytes.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self.bytes.get(self.pos).ok_or("bad escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        other => return Err(format!("unsupported escape '\\{}'", other as char)),
                    }
                }
                _ => out.push(b as char),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                other => return Err(format!("expected ',' or ']', found '{}'", other as char)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.peek()?;
            let key = self.string()?;
            self.expect(b':')?;
            map.insert(key, self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                other => return Err(format!("expected ',' or '}}', found '{}'", other as char)),
            }
        }
    }
}

/// The headline speedup of one trajectory record: the top-level
/// `"speedup"` field, or for sweep records the best `"speedup"` across
/// `"points"`. Records with neither (e.g. a seed baseline measured
/// before the optimisation existed) are not comparable and return None.
fn headline_speedup(record: &Json) -> Option<f64> {
    if let Some(v) = record.get("speedup").and_then(Json::as_f64) {
        return Some(v);
    }
    let points = record.get("points")?.as_array()?;
    points
        .iter()
        .filter_map(|p| p.get("speedup").and_then(Json::as_f64))
        .fold(None, |best, v| Some(best.map_or(v, |b: f64| b.max(v))))
}

fn label(record: &Json) -> &str {
    record
        .get("label")
        .and_then(Json::as_str)
        .unwrap_or("<unlabelled>")
}

/// Newest record must hold ≥ this share of the best prior speedup.
const RETAIN_SHARE: f64 = 0.85;

/// The records the gate may compare: everything from the latest
/// `"rebaseline": true` marker onward (the whole file when none has one).
fn since_last_rebaseline(records: &[Json]) -> &[Json] {
    let start = records
        .iter()
        .rposition(|r| r.get("rebaseline") == Some(&Json::Bool(true)))
        .unwrap_or(0);
    &records[start..]
}

/// `(label, headline speedup)` of every comparable record in the
/// current baseline era, oldest first.
fn comparable(records: &[Json]) -> Vec<(&str, f64)> {
    since_last_rebaseline(records)
        .iter()
        .filter_map(|r| headline_speedup(r).map(|v| (label(r), v)))
        .collect()
}

#[test]
fn newest_bench_record_keeps_the_won_speedup() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut gated = 0usize;
    for file in ["BENCH_service.json", "BENCH_triage.json"] {
        let path = root.join(file);
        let text = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{file}: unreadable trajectory: {e}"));
        let doc = Parser::parse(&text).unwrap_or_else(|e| panic!("{file}: bad JSON: {e}"));
        let records = doc
            .as_array()
            .unwrap_or_else(|| panic!("{file}: top level must be an array of records"));
        assert!(!records.is_empty(), "{file}: trajectory has no records");

        let comparable = comparable(records);
        for (who, v) in &comparable {
            assert!(
                v.is_finite() && *v > 0.0,
                "{file}: record {who:?} has nonsense speedup {v}"
            );
        }
        if comparable.len() < 2 {
            println!(
                "{file}: {} comparable record(s), gate skipped",
                comparable.len()
            );
            continue;
        }

        let (newest_label, newest) = *comparable.last().expect("len checked above");
        let (best_label, best_prior) =
            comparable[..comparable.len() - 1]
                .iter()
                .copied()
                .fold(
                    comparable[0],
                    |best, cur| if cur.1 > best.1 { cur } else { best },
                );
        assert!(
            newest >= RETAIN_SHARE * best_prior,
            "{file}: newest record {newest_label:?} speedup {newest:.2} regressed below \
             {RETAIN_SHARE} x the best prior {best_label:?} ({best_prior:.2}); \
             if the loss is intended, say why in the record's \"note\" and mark it \
             \"rebaseline\": true",
        );
        gated += 1;
    }
    // At least the triage trajectory has two comparable records today; if
    // every file ever drops to skip the gate is dead and should be noticed.
    assert!(gated >= 1, "no trajectory had enough records to gate");
}

#[test]
fn trajectory_parser_handles_the_shapes_we_store() {
    let doc = Parser::parse(
        r#"[{"label":"a","speedup":1.5,"note":"x\"y"},
            {"label":"b","points":[{"speedup":2.0},{"speedup":2.5}]},
            {"label":"seed","owned":{"ns_per_entry":1330.2}}]"#,
    )
    .expect("fixture parses");
    let records = doc.as_array().expect("array");
    assert_eq!(headline_speedup(&records[0]), Some(1.5));
    assert_eq!(headline_speedup(&records[1]), Some(2.5));
    assert_eq!(headline_speedup(&records[2]), None);
    assert_eq!(records[0].get("note").and_then(Json::as_str), Some("x\"y"));
    assert!(Parser::parse("[1, 2,]").is_err());
    assert!(Parser::parse("[1] tail").is_err());
}

#[test]
fn gate_only_compares_records_since_the_latest_rebaseline() {
    let doc = Parser::parse(
        r#"[{"label":"old-a","speedup":2.4},
            {"label":"first-era","rebaseline":true,"points":[{"speedup":1.8}]},
            {"label":"old-b","speedup":1.9},
            {"label":"new-era","rebaseline":true,"note":"baseline arm got 3x faster","points":[{"speedup":0.9},{"speedup":0.98}]},
            {"label":"not-a-marker","rebaseline":false,"speedup":0.95}]"#,
    )
    .expect("fixture parses");
    let records = doc.as_array().expect("array");
    // Only the latest marker counts, and the marked record itself is in.
    assert_eq!(
        comparable(records),
        vec![("new-era", 0.98), ("not-a-marker", 0.95)]
    );
    // No marker anywhere: the whole file is one era.
    assert_eq!(comparable(&records[..1]), vec![("old-a", 2.4)]);
    assert_eq!(since_last_rebaseline(&records[..3]).len(), 2);
    assert!(since_last_rebaseline(&[]).is_empty());
}
