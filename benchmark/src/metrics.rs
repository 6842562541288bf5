//! The metric catalogue: every name the harness may print, with its
//! unit. `BENCHMARK.json` lists the same names in the same order (a
//! unit test holds the two together); a run's JSON line carries exactly
//! the end-to-end list (`--trace 0`) or the per-layer list (`--trace 1`).

use std::collections::BTreeMap;

use crate::workloads::Member;

/// One catalogue entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` if a higher value is better.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// What a user of the system sees; gated by the bounds in
/// `BENCHMARK.json`. The same five on every workload.
pub const END_TO_END: [MetricDef; 5] = [
    lower("setup_s", "s"),
    higher("speed_vs_scan", "ratio"),
    lower("allocs_per_entry", "allocs/entry"),
    lower("peak_heap_mib", "MiB"),
    lower("alert_latency_p99_ms", "ms"),
];

/// Single-layer metrics from the traced run; recorded, never gated.
pub const PER_LAYER: [MetricDef; 58] = [
    // httplog
    lower("httplog.framing.ns_per_line", "ns/line"),
    lower("httplog.framing.bytes_per_line", "bytes/line"),
    lower("httplog.parse.ns_per_entry", "ns/entry"),
    lower("httplog.parse.allocs_per_entry", "allocs/entry"),
    lower("httplog.parse.failed", "count"),
    // detect
    lower("detect.triage.ns_per_entry", "ns/entry"),
    higher("detect.triage.suppressed_share", "share"),
    lower("detect.triage.escalations", "count"),
    lower("detect.sentinel.ns_per_entry", "ns/entry"),
    lower("detect.sentinel.allocs_per_entry", "allocs/entry"),
    higher("detect.sentinel.vote_share", "share"),
    lower("detect.arcane.ns_per_entry", "ns/entry"),
    lower("detect.arcane.allocs_per_entry", "allocs/entry"),
    higher("detect.arcane.vote_share", "share"),
    lower("detect.trap.ns_per_entry", "ns/entry"),
    lower("detect.trap.allocs_per_entry", "allocs/entry"),
    higher("detect.trap.vote_share", "share"),
    lower("detect.rate_limiter.ns_per_entry", "ns/entry"),
    lower("detect.rate_limiter.allocs_per_entry", "allocs/entry"),
    higher("detect.rate_limiter.vote_share", "share"),
    lower("detect.signature_only.ns_per_entry", "ns/entry"),
    lower("detect.signature_only.allocs_per_entry", "allocs/entry"),
    higher("detect.signature_only.vote_share", "share"),
    // ensemble
    lower("ensemble.adjudicate.ns_per_entry", "ns/entry"),
    higher("ensemble.adjudicate.alert_share", "share"),
    // pipeline
    lower("pipeline.engine.ns_per_entry", "ns/entry"),
    lower("pipeline.engine.self_ns_per_entry", "ns/entry"),
    lower("pipeline.engine.detect_busy_ns_per_entry", "ns/entry"),
    lower("pipeline.engine.adjudicate_busy_ns_per_entry", "ns/entry"),
    lower("pipeline.engine.sink_busy_ns_per_entry", "ns/entry"),
    lower("pipeline.engine.chunks", "count"),
    lower("pipeline.engine.flush_interval_ms", "ms"),
    lower("pipeline.triage.replayed_share", "share"),
    lower("pipeline.sink.json_ns_per_alert", "ns/alert"),
    lower("pipeline.store_sink.ns_per_record", "ns/record"),
    // store
    lower("store.append.ns_per_record", "ns/record"),
    lower("store.append.bytes_per_record", "bytes/record"),
    lower("store.sync.ms", "ms"),
    lower("store.reopen.ms", "ms"),
    lower("store.reappend.ns_per_record", "ns/record"),
    higher("store.dedup.skipped_share", "share"),
    // ingest
    lower("ingest.driver.ns_per_line", "ns/line"),
    lower("ingest.file_tail.ns_per_line", "ns/line"),
    // service
    lower("service.route.ns_per_line", "ns/line"),
    lower("service.ingest.ns_per_line", "ns/line"),
    lower("service.ingest.blocked_share", "share"),
    lower("service.drain.ms", "ms"),
    lower("service.ingest.dropped", "count"),
    lower("service.plane.overhead_ns_per_entry", "ns/entry"),
    // trace / harness
    higher("trace.coverage", "share"),
    lower("trace.overhead_share", "share"),
    lower("harness.yardstick.ns_per_line", "ns/line"),
    higher("harness.entries_per_s", "1/s"),
    lower("harness.cpu_ns_per_entry", "ns/entry"),
    lower("harness.generator.late_p99_ms", "ms"),
    lower("harness.generator.late_max_ms", "ms"),
    higher("harness.latency.samples", "count"),
    // Demoted from the end-to-end list: with few alerts (1–10% suspicious
    // traffic) the median depends on where in its chunk a bot's requests
    // happen to fall, and does not repeat across seeds.
    lower("harness.latency.p50_ms", "ms"),
];

/// `detect.<member>.<what>` as it appears in [`PER_LAYER`].
pub fn member_metric(member: Member, what: &str) -> &'static str {
    let wanted = format!("{}.{what}", member.span_name());
    PER_LAYER
        .iter()
        .map(|m| m.name)
        .find(|name| *name == wanted)
        .unwrap_or_else(|| panic!("{wanted} is not in the catalogue"))
}

/// Values measured by one run, by metric name.
#[derive(Debug, Default)]
pub struct Measured(BTreeMap<&'static str, f64>);

impl Measured {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The values for `catalogue`, in its order. Fails if a metric is
    /// missing or not a finite number, or if a value was set under a
    /// name the catalogue does not list.
    pub fn in_order(&self, catalogue: &[MetricDef]) -> Result<Vec<(MetricDef, f64)>, String> {
        if let Some(stray) = self
            .0
            .keys()
            .find(|name| catalogue.iter().all(|m| m.name != **name))
        {
            return Err(format!("metric {stray} is not in the catalogue"));
        }
        catalogue
            .iter()
            .map(|def| match self.0.get(def.name) {
                Some(value) if value.is_finite() => Ok((*def, *value)),
                Some(value) => Err(format!("metric {} is not finite: {value}", def.name)),
                None => Err(format!("metric {} was not measured", def.name)),
            })
            .collect()
    }
}

/// `numerator / denominator`, or `0` when there was nothing to divide by.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn every_metric_and_workload_name_is_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(well_formed(def.name), "{}", def.name);
            assert!(seen.insert(def.name), "{} is listed twice", def.name);
            assert!(
                !def.unit.is_empty()
                    && def.unit.len() <= 16
                    && def.unit.bytes().all(|b| b.is_ascii_alphanumeric()
                        || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')),
                "unit of {}",
                def.name
            );
        }
        for workload in &WORKLOADS {
            assert!(well_formed(workload.name), "{}", workload.name);
        }
        assert!(!well_formed("has space") && !well_formed(".leading") && !well_formed(""));
    }

    #[test]
    fn every_member_has_its_three_metrics() {
        for member in Member::ALL {
            for what in ["ns_per_entry", "allocs_per_entry", "vote_share"] {
                assert!(member_metric(member, what).ends_with(what));
            }
        }
    }

    #[test]
    fn in_order_rejects_missing_stray_and_non_finite_values() {
        let mut measured = Measured::default();
        for def in &END_TO_END {
            measured.set(def.name, 1.5);
        }
        let ordered = measured.in_order(&END_TO_END).unwrap();
        assert_eq!(ordered.len(), END_TO_END.len());
        assert_eq!(ordered[1].0.name, "speed_vs_scan");

        measured.set("setup_s", f64::NAN);
        assert!(measured
            .in_order(&END_TO_END)
            .unwrap_err()
            .contains("not finite"));
        measured.set("setup_s", 1.0);
        measured.set("trace.coverage", 1.0);
        assert!(measured
            .in_order(&END_TO_END)
            .unwrap_err()
            .contains("not in the catalogue"));
        assert!(Measured::default()
            .in_order(&END_TO_END)
            .unwrap_err()
            .contains("not measured"));
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
