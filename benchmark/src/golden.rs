//! The checked-in goldens under `workloads/`: for the default seed and
//! the full-size log, the digest of the generated lines and the alerts
//! the program must raise on them.
//!
//! The cross-route reference catches a route that disagrees with
//! another route today; the golden catches every route drifting
//! together. A golden only speaks for the exact input it was recorded
//! on: if the generated lines hash differently (another seed, another
//! size, a changed generator) it does not apply, and says so.

use std::fmt::Write as _;

use crate::endtoend::AlertSummary;
use crate::yardstick::{fnv1a, fnv1a_of};

/// One workload's golden record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Golden {
    /// FNV-1a over every generated line, newline-terminated.
    pub input_digest: u64,
    /// Alerts over the closed-loop prefix.
    pub closed: AlertSummary,
    /// Alerts over the whole log (the paced phase).
    pub paced: AlertSummary,
}

/// FNV-1a over `lines`, each followed by a newline.
pub fn input_digest(lines: &[String]) -> u64 {
    lines.iter().fold(fnv1a_of(b""), |hash, line| {
        fnv1a(fnv1a(hash, line.as_bytes()), b"\n")
    })
}

/// The checked-in golden text for `workload`.
fn checked_in(workload: &str) -> Option<&'static str> {
    Some(match workload {
        "spine2_paper" => include_str!("../workloads/spine2_paper.golden"),
        "ensemble5_mixed" => include_str!("../workloads/ensemble5_mixed.golden"),
        "triage_benign" => include_str!("../workloads/triage_benign.golden"),
        "service_durable" => include_str!("../workloads/service_durable.golden"),
        _ => return None,
    })
}

impl Golden {
    /// The golden checked in for `workload`.
    pub fn load(workload: &str) -> Result<Golden, String> {
        let text = checked_in(workload).ok_or_else(|| format!("no golden for {workload}"))?;
        Golden::parse(text).map_err(|e| format!("workloads/{workload}.golden: {e}"))
    }

    /// Parses `key=value` lines; `#` starts a comment.
    pub fn parse(text: &str) -> Result<Golden, String> {
        let field = |key: &str| -> Result<u64, String> {
            let value = text
                .lines()
                .filter(|line| !line.trim_start().starts_with('#'))
                .find_map(|line| line.trim().strip_prefix(key)?.strip_prefix('='))
                .ok_or_else(|| format!("missing {key}"))?;
            match value.trim().strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => value.trim().parse(),
            }
            .map_err(|e| format!("{key}: {e}"))
        };
        Ok(Golden {
            input_digest: field("input_digest")?,
            closed: AlertSummary {
                alerts: field("closed_alerts")?,
                alert_digest: field("closed_alert_digest")?,
            },
            paced: AlertSummary {
                alerts: field("paced_alerts")?,
                alert_digest: field("paced_alert_digest")?,
            },
        })
    }

    /// The file [`parse`](Self::parse) reads back.
    pub fn render(&self, workload: &str, seed: u64, lines: usize, closed_lines: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# {workload}, seed {seed}: {lines} lines, the first {closed_lines} in the closed loop."
        );
        let _ = writeln!(out, "# Recorded with `--print-golden`; digests are FNV-1a.");
        let _ = writeln!(out, "input_digest={:#018x}", self.input_digest);
        let _ = writeln!(out, "closed_alerts={}", self.closed.alerts);
        let _ = writeln!(
            out,
            "closed_alert_digest={:#018x}",
            self.closed.alert_digest
        );
        let _ = writeln!(out, "paced_alerts={}", self.paced.alerts);
        let _ = writeln!(out, "paced_alert_digest={:#018x}", self.paced.alert_digest);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn render_and_parse_are_inverses() {
        let golden = Golden {
            input_digest: 0xdead_beef_0000_0001,
            closed: AlertSummary {
                alerts: 12_413,
                alert_digest: 7,
            },
            paced: AlertSummary {
                alerts: 25_000,
                alert_digest: u64::MAX,
            },
        };
        let text = golden.render("ensemble5_mixed", 2018, 240_000, 120_000);
        assert_eq!(Golden::parse(&text), Ok(golden));
        assert!(Golden::parse("input_digest=1\n")
            .unwrap_err()
            .contains("closed_alerts"));
        assert!(Golden::parse(&text.replace("=12413", "=many")).is_err());
    }

    #[test]
    fn every_workload_has_a_parseable_golden() {
        for workload in &WORKLOADS {
            Golden::load(workload.name).unwrap();
        }
        assert!(Golden::load("nope").is_err());
    }

    #[test]
    fn the_input_digest_depends_on_content_order_and_line_breaks() {
        let ab = input_digest(&["a".to_owned(), "b".to_owned()]);
        assert_eq!(ab, input_digest(&["a".to_owned(), "b".to_owned()]));
        assert_ne!(ab, input_digest(&["ab".to_owned()]));
        assert_ne!(ab, input_digest(&["b".to_owned(), "a".to_owned()]));
    }
}
