//! A run's result: the human-readable metric table and the one-line
//! JSON object the driver reads off the end of standard output.

use std::fmt::Write as _;

use crate::metrics::MetricDef;

/// Everything one run of one workload reports.
#[derive(Debug)]
pub struct RunResult {
    pub workload: &'static str,
    /// Outputs matched the reference routes (and the goldens, where
    /// they apply) and no operation failed.
    pub correct: bool,
    /// Lines offered to the program in the measured phases.
    pub attempted: u64,
    /// Of those: parse errors, refused/dropped/unrouted lines, spilled
    /// or unfinalized entries — or all of them on a reference mismatch.
    pub failed: u64,
    pub metrics: Vec<(MetricDef, f64)>,
    /// Free-form lines for the table's footer (sample counts, notes).
    pub notes: Vec<String>,
}

impl RunResult {
    /// The driver's line: exactly the keys `correct`, `attempted`,
    /// `failed` and `metrics`, every value with all its digits.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.metrics.len() * 64);
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (def, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // `{:?}` keeps a decimal point on whole numbers and prints
            // the shortest digits that read back to the same f64.
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                def.name, def.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Every metric by name with its unit, one per line.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "workload {}: {} ({} attempted, {} failed)",
            self.workload,
            if self.correct { "correct" } else { "INCORRECT" },
            self.attempted,
            self.failed
        );
        for (def, value) in &self.metrics {
            let _ = writeln!(out, "  {:<48} {value:>16.4} {}", def.name, def.unit);
        }
        for note in &self.notes {
            let _ = writeln!(out, "  # {note}");
        }
        out
    }
}

/// A minimal JSON reader in the shape of the hand-rolled parser in the
/// repository's `tests/bench_regression.rs` — enough to check that what
/// [`RunResult::to_json`] writes is what such a reader gets back, and
/// to hold `BENCHMARK.json` and the metric catalogue together.
#[cfg(test)]
pub(crate) mod json {
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        Null,
        Bool(bool),
        Number(f64),
        String(String),
        Array(Vec<Json>),
        Object(BTreeMap<String, Json>),
    }

    impl Json {
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Object(map) => map.get(key),
                _ => None,
            }
        }

        pub fn as_array(&self) -> Option<&[Json]> {
            match self {
                Json::Array(items) => Some(items),
                _ => None,
            }
        }

        pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
            match self {
                Json::Object(map) => Some(map),
                _ => None,
            }
        }

        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Json::Number(n) => Some(*n),
                _ => None,
            }
        }

        pub fn as_str(&self) -> Option<&str> {
            match self {
                Json::String(s) => Some(s),
                _ => None,
            }
        }
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(format!("trailing garbage at byte {}", parser.pos));
        }
        Ok(value)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while self
                .bytes
                .get(self.pos)
                .is_some_and(u8::is_ascii_whitespace)
            {
                self.pos += 1;
            }
        }

        fn peek(&mut self) -> Result<u8, String> {
            self.skip_ws();
            self.bytes
                .get(self.pos)
                .copied()
                .ok_or_else(|| "unexpected end of input".to_owned())
        }

        fn expect(&mut self, byte: u8) -> Result<(), String> {
            let got = self.peek()?;
            if got != byte {
                return Err(format!(
                    "expected '{}' at byte {}, found '{}'",
                    byte as char, self.pos, got as char
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
            while self.bytes.get(self.pos).is_some_and(|b| {
                b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
            }) {
                self.pos += 1;
            }
            let text =
                std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
            text.parse()
                .map(Json::Number)
                .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = Vec::new();
            loop {
                let byte = *self.bytes.get(self.pos).ok_or("unterminated string")?;
                self.pos += 1;
                match byte {
                    b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                    b'\\' => {
                        let escape = *self.bytes.get(self.pos).ok_or("bad escape")?;
                        self.pos += 1;
                        out.push(match escape {
                            b'"' | b'\\' | b'/' => escape,
                            b'n' => b'\n',
                            b't' => b'\t',
                            b'r' => b'\r',
                            other => {
                                return Err(format!("unsupported escape '\\{}'", other as char))
                            }
                        });
                    }
                    _ => out.push(byte),
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
                let key = self.string()?;
                self.expect(b':')?;
                map.insert(key, self.value()?);
                match self.peek()? {
                    b',' => self.pos += 1,
                    b'}' => {
                        self.pos += 1;
                        return Ok(Json::Object(map));
                    }
                    other => {
                        return Err(format!("expected ',' or '}}', found '{}'", other as char))
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::json::{parse, Json};
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use crate::workloads::WORKLOADS;

    #[test]
    fn the_json_line_round_trips_through_the_hand_rolled_parser() {
        let values = [0.8127, 0.27014380127, 9.85, 42.0, 1.0e-7];
        let result = RunResult {
            workload: "ensemble5_mixed",
            correct: true,
            attempted: 1_320_000,
            failed: 0,
            metrics: END_TO_END.iter().copied().zip(values).collect(),
            notes: vec!["a note".to_owned()],
        };
        let line = result.to_json();
        assert!(!line.contains('\n'));
        let parsed = parse(&line).unwrap();
        let top: Vec<&str> = parsed
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(top, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(parsed.get("attempted").unwrap().as_f64(), Some(1_320_000.0));
        assert_eq!(parsed.get("failed").unwrap().as_f64(), Some(0.0));
        let metrics = parsed.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        for (def, value) in &result.metrics {
            let entry = &metrics[def.name];
            // Bit-for-bit: every digit of the measurement survives.
            assert_eq!(entry.get("value").unwrap().as_f64(), Some(*value));
            assert_eq!(entry.get("unit").unwrap().as_str(), Some(def.unit));
            assert_eq!(entry.as_object().unwrap().len(), 2);
        }
        let table = result.to_table();
        for def in &END_TO_END {
            assert!(table.contains(def.name) && table.contains(def.unit));
        }
    }

    /// `BENCHMARK.json` is the contract the driver reads; the catalogue
    /// is what the harness prints. They must name the same things.
    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let contract = parse(include_str!("../../BENCHMARK.json")).unwrap();
        let keys: Vec<&str> = contract
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert_eq!(
            contract.get("paths").unwrap().as_array().unwrap(),
            [Json::String("benchmark".to_owned())]
        );

        let listed = |key: &str, field: &str| -> Vec<String> {
            contract
                .get(key)
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|m| m.get(field).unwrap().as_str().unwrap().to_owned())
                .collect()
        };
        let catalogue = |defs: &[MetricDef], field: fn(&MetricDef) -> &str| -> Vec<String> {
            defs.iter().map(|d| field(d).to_owned()).collect()
        };
        let better = |d: &MetricDef| {
            if d.higher_is_better {
                "higher"
            } else {
                "lower"
            }
        };
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            assert_eq!(
                listed(key, "name"),
                catalogue(defs, |d| d.name),
                "{key} names"
            );
            assert_eq!(
                listed(key, "unit"),
                catalogue(defs, |d| d.unit),
                "{key} units"
            );
            assert_eq!(
                listed(key, "better"),
                catalogue(defs, better),
                "{key} directions"
            );
        }
        for metric in contract.get("end_to_end").unwrap().as_array().unwrap() {
            let bound = metric.get("bound").unwrap().as_f64().unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
        }
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(listed("workloads", "name"), names);
        let whys: Vec<&str> = WORKLOADS.iter().map(|w| w.why).collect();
        assert_eq!(listed("workloads", "why"), whys);
    }
}
