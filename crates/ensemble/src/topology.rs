//! Deployment topologies: parallel vs. serial tool composition.
//!
//! Section V of the paper asks about "deploying the tools in parallel (both
//! tools monitor all the traffic) versus serial configurations (one tool
//! monitors and filters the traffic that need to be also analyzed by the
//! second tool)". The trade-off is analysis **cost** (requests each tool
//! must process) against detection quality — and, subtly, a serial second
//! tool sees a *filtered stream*, which changes its session state and
//! therefore its verdicts.

use divscrape_detect::Detector;
use divscrape_httplog::LogEntry;
use serde::{Deserialize, Serialize};

use crate::AlertVector;

/// How the second tool's workload is selected in a serial deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SerialMode {
    /// The second tool **confirms**: it analyzes only the traffic the first
    /// tool alerted on; the final alarm requires both (an AND pipeline that
    /// spares the second tool the bulk of clean traffic).
    Confirm,
    /// The second tool **escalates**: it analyzes only the traffic the
    /// first tool passed; the final alarm is either tool's (an OR pipeline
    /// that gives the second tool only the residue).
    Escalate,
}

/// Outcome of one deployment run: final alerts plus per-stage cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologyOutcome {
    /// Final combined alert decisions.
    pub alerts: AlertVector,
    /// Requests processed by the first tool.
    pub first_processed: u64,
    /// Requests processed by the second tool.
    pub second_processed: u64,
    /// Human-readable topology label.
    pub label: String,
}

impl TopologyOutcome {
    /// Total requests processed across both tools (the cost measure).
    pub fn total_processed(&self) -> u64 {
        self.first_processed + self.second_processed
    }
}

/// Runs both tools over all traffic (the paper's parallel configuration)
/// and combines with 1-out-of-2 (`any`) or 2-out-of-2 (`!any`).
pub fn run_parallel<A, B>(
    first: &mut A,
    second: &mut B,
    entries: &[LogEntry],
    any: bool,
) -> TopologyOutcome
where
    A: Detector + ?Sized,
    B: Detector + ?Sized,
{
    let first_name = first.name().to_owned();
    let second_name = second.name().to_owned();
    let a = AlertVector::from_bools(first_name, &divscrape_detect::run_alerts(first, entries));
    let b = AlertVector::from_bools(second_name, &divscrape_detect::run_alerts(second, entries));
    let alerts = if any { a.or(&b) } else { a.and(&b) };
    TopologyOutcome {
        alerts,
        first_processed: entries.len() as u64,
        second_processed: entries.len() as u64,
        label: format!("parallel/{}", if any { "1oo2" } else { "2oo2" }),
    }
}

/// Runs a serial deployment: the first tool sees everything; the second
/// sees only the subset selected by `mode`.
pub fn run_serial<A, B>(
    first: &mut A,
    second: &mut B,
    entries: &[LogEntry],
    mode: SerialMode,
) -> TopologyOutcome
where
    A: Detector + ?Sized,
    B: Detector + ?Sized,
{
    let first_name = first.name().to_owned();
    let first_alerts =
        AlertVector::from_bools(first_name, &divscrape_detect::run_alerts(first, entries));

    // Select the second stage's workload, preserving original order (the
    // second tool receives a real, time-ordered substream).
    let forwarded: Vec<usize> = (0..entries.len())
        .filter(|&i| match mode {
            SerialMode::Confirm => first_alerts.get(i),
            SerialMode::Escalate => !first_alerts.get(i),
        })
        .collect();

    let mut second_flags = vec![false; entries.len()];
    for &i in &forwarded {
        second_flags[i] = second.observe(&entries[i].view()).alert;
    }
    let second_alerts = AlertVector::from_bools(second.name().to_owned(), &second_flags);

    let alerts = match mode {
        // Confirm: alarm only where both stages fired.
        SerialMode::Confirm => first_alerts.and(&second_alerts),
        // Escalate: the first stage's alarms stand; the second adds its own.
        SerialMode::Escalate => first_alerts.or(&second_alerts),
    };
    TopologyOutcome {
        alerts,
        first_processed: entries.len() as u64,
        second_processed: forwarded.len() as u64,
        label: format!(
            "serial/{}",
            match mode {
                SerialMode::Confirm => "confirm",
                SerialMode::Escalate => "escalate",
            }
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use divscrape_detect::{Arcane, Sentinel};
    use divscrape_traffic::{generate, ScenarioConfig};

    fn log() -> divscrape_traffic::LabelledLog {
        generate(&ScenarioConfig::small(61)).unwrap()
    }

    #[test]
    fn parallel_costs_are_full_for_both_tools() {
        let log = log();
        let out = run_parallel(
            &mut Sentinel::stock(),
            &mut Arcane::stock(),
            log.entries(),
            true,
        );
        assert_eq!(out.first_processed, log.len() as u64);
        assert_eq!(out.second_processed, log.len() as u64);
        assert_eq!(out.total_processed(), 2 * log.len() as u64);
    }

    #[test]
    fn serial_confirm_narrows_and_escalate_widens_the_second_stage() {
        let log = log();
        let confirm = run_serial(
            &mut Sentinel::stock(),
            &mut Arcane::stock(),
            log.entries(),
            SerialMode::Confirm,
        );
        let escalate = run_serial(
            &mut Sentinel::stock(),
            &mut Arcane::stock(),
            log.entries(),
            SerialMode::Escalate,
        );
        // The two second-stage workloads partition the log.
        assert_eq!(
            confirm.second_processed + escalate.second_processed,
            log.len() as u64
        );
        // On bot-heavy traffic, Sentinel alerts on most requests, so
        // Confirm forwards much more than Escalate.
        assert!(confirm.second_processed > escalate.second_processed);
    }

    #[test]
    fn confirm_alerts_subset_of_first_stage() {
        let log = log();
        let mut sentinel = Sentinel::stock();
        let first = AlertVector::from_bools(
            "sentinel",
            &divscrape_detect::run_alerts(&mut sentinel, log.entries()),
        );
        let out = run_serial(
            &mut Sentinel::stock(),
            &mut Arcane::stock(),
            log.entries(),
            SerialMode::Confirm,
        );
        // Confirm can only remove alarms relative to stage one.
        assert_eq!(out.alerts.minus(&first).count(), 0);
        assert!(out.alerts.count() <= first.count());
    }

    #[test]
    fn escalate_alerts_superset_of_first_stage() {
        let log = log();
        let mut sentinel = Sentinel::stock();
        let first = AlertVector::from_bools(
            "sentinel",
            &divscrape_detect::run_alerts(&mut sentinel, log.entries()),
        );
        let out = run_serial(
            &mut Sentinel::stock(),
            &mut Arcane::stock(),
            log.entries(),
            SerialMode::Escalate,
        );
        assert_eq!(first.minus(&out.alerts).count(), 0);
        assert!(out.alerts.count() >= first.count());
    }

    #[test]
    fn filtered_streams_change_the_second_tools_view() {
        // The escalate second stage sees a substream; its verdicts on those
        // requests may legitimately differ from a full-stream run. What must
        // hold: it alerts on a subset of what it would alert on seeing
        // everything is NOT guaranteed — so just verify determinism.
        let log = log();
        let a = run_serial(
            &mut Sentinel::stock(),
            &mut Arcane::stock(),
            log.entries(),
            SerialMode::Escalate,
        );
        let b = run_serial(
            &mut Sentinel::stock(),
            &mut Arcane::stock(),
            log.entries(),
            SerialMode::Escalate,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn labels_identify_the_topology() {
        let log = log();
        let p = run_parallel(
            &mut Sentinel::stock(),
            &mut Arcane::stock(),
            log.entries(),
            false,
        );
        assert_eq!(p.label, "parallel/2oo2");
        let s = run_serial(
            &mut Sentinel::stock(),
            &mut Arcane::stock(),
            log.entries(),
            SerialMode::Confirm,
        );
        assert_eq!(s.label, "serial/confirm");
    }
}
