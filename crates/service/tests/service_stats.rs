//! `ServiceStats` aggregation: per-shard merge is exact and the
//! plane-level aggregates are **monotonic across membership churn** (a
//! leaving tenant folds every shard's final counters into the departed
//! totals).

use divscrape_detect::{Sentinel, TenantId};
use divscrape_pipeline::{Adjudication, PipelineBuilder, TriagePolicy};
use divscrape_service::{IngestOutcome, ServicePlane, ServiceStats};
use divscrape_traffic::{generate, ScenarioConfig};

fn factory(_: &TenantId, _: usize) -> PipelineBuilder {
    PipelineBuilder::new()
        .detector(Sentinel::stock())
        .adjudication(Adjudication::k_of_n(1))
        .workers(2)
        .triage(TriagePolicy::fast())
}

fn assert_monotonic(earlier: &ServiceStats, later: &ServiceStats, step: &str) {
    assert!(
        later.entries_processed >= earlier.entries_processed,
        "{step}: entries_processed regressed {} -> {}",
        earlier.entries_processed,
        later.entries_processed
    );
    assert!(
        later.alerts >= earlier.alerts,
        "{step}: alerts regressed {} -> {}",
        earlier.alerts,
        later.alerts
    );
    assert!(
        later.runtime_updates.total() >= earlier.runtime_updates.total(),
        "{step}: runtime_updates regressed"
    );
    assert!(
        later.parse_errors >= earlier.parse_errors,
        "{step}: parse_errors regressed"
    );
    assert!(
        later.routed_lines >= earlier.routed_lines,
        "{step}: routed_lines regressed"
    );
    assert!(
        later.triage_escalations >= earlier.triage_escalations,
        "{step}: triage_escalations regressed {} -> {}",
        earlier.triage_escalations,
        later.triage_escalations
    );
    assert!(
        later.triage_suppressed_entries >= earlier.triage_suppressed_entries,
        "{step}: triage_suppressed_entries regressed {} -> {}",
        earlier.triage_suppressed_entries,
        later.triage_suppressed_entries
    );
    assert!(
        later.triage_replayed_entries >= earlier.triage_replayed_entries,
        "{step}: triage_replayed_entries regressed"
    );
    assert!(
        later.triage_spilled_entries >= earlier.triage_spilled_entries,
        "{step}: triage_spilled_entries regressed"
    );
    assert!(
        later.idle_flushes >= earlier.idle_flushes,
        "{step}: idle_flushes regressed {} -> {}",
        earlier.idle_flushes,
        later.idle_flushes
    );
    assert!(
        later.deadline_flushes >= earlier.deadline_flushes,
        "{step}: deadline_flushes regressed {} -> {}",
        earlier.deadline_flushes,
        later.deadline_flushes
    );
    assert!(
        later.max_buffered_age_us >= earlier.max_buffered_age_us,
        "{step}: max_buffered_age_us is a high-water mark and fell {} -> {}",
        earlier.max_buffered_age_us,
        later.max_buffered_age_us
    );
}

#[test]
fn aggregates_stay_monotonic_across_shard_merge_and_tenant_departure() {
    let eu = TenantId::new("shop-eu");
    let us = TenantId::new("shop-us");
    let plane = ServicePlane::builder()
        .tenant(eu.clone(), 2, factory)
        .tenant(us.clone(), 3, factory)
        .global_eviction_budget(500)
        .build()
        .unwrap();

    let eu_log = generate(&ScenarioConfig::tiny(41)).unwrap();
    let us_log = generate(&ScenarioConfig::tiny(42)).unwrap();
    for entry in eu_log.entries() {
        assert_eq!(plane.ingest(&eu, entry.to_string()), IngestOutcome::Routed);
    }
    for entry in us_log.entries().iter().take(us_log.len() / 2) {
        assert_eq!(plane.ingest(&us, entry.to_string()), IngestOutcome::Routed);
    }
    // One malformed line lands somewhere and must be counted, not fatal.
    plane.ingest(&eu, "definitely not CLF".to_owned());
    let _ = plane.drain_all();

    // Per-shard merge is exact: the plane aggregate equals the sum over
    // every tenant's shard snapshots (no departed totals yet).
    let s1 = plane.stats();
    assert_eq!(s1.tenants.len(), 2);
    assert_eq!(s1.tenants[0].shards.len(), 2);
    assert_eq!(s1.tenants[1].shards.len(), 3);
    let summed_entries: u64 = s1.tenants.iter().map(|t| t.entries_processed()).sum();
    let summed_alerts: u64 = s1.tenants.iter().map(|t| t.alerts()).sum();
    assert_eq!(s1.entries_processed, summed_entries, "shard merge drifted");
    assert_eq!(s1.alerts, summed_alerts, "shard merge drifted");
    let summed_triage = s1
        .tenants
        .iter()
        .map(|t| t.triage_counters())
        .fold((0u64, 0u64, 0u64, 0u64), |acc, t| {
            (acc.0 + t.0, acc.1 + t.1, acc.2 + t.2, acc.3 + t.3)
        });
    assert_eq!(
        (
            s1.triage_escalations,
            s1.triage_suppressed_entries,
            s1.triage_replayed_entries,
            s1.triage_spilled_entries
        ),
        summed_triage,
        "triage shard merge drifted"
    );
    assert!(
        s1.triage_suppressed_entries > 0,
        "triage-enabled tenants must suppress benign traffic for the churn checks to bite"
    );
    assert_eq!(
        s1.entries_processed,
        (eu_log.len() + us_log.len() / 2) as u64
    );
    assert_eq!(s1.parse_errors, 1);
    assert!(s1.alerts > 0, "logs must alert for the comparison to bite");
    assert!(
        s1.runtime_updates.eviction > 0,
        "global budget install must register as runtime updates"
    );
    assert_eq!(s1.eviction_budget, Some(500));
    // The flush counters merge like the rest: a sum and a maximum over
    // the shard snapshots.
    let shards = || s1.tenants.iter().flat_map(|t| t.shards.iter());
    assert_eq!(
        s1.deadline_flushes,
        shards().map(|s| s.deadline_flushes).sum::<u64>()
    );
    assert_eq!(
        s1.idle_flushes,
        shards().map(|s| s.idle_flushes).sum::<u64>()
    );
    assert_eq!(
        s1.max_buffered_age_us,
        shards().map(|s| s.max_buffered_age_us).max().unwrap()
    );
    assert!(
        s1.max_buffered_age_us > 0,
        "every shard buffered something before its first submission"
    );

    // Tenant departure: the eu tenant leaves mid-service. Its work must
    // stay in the aggregates (folded departed totals).
    let eu_final = s1
        .tenants
        .iter()
        .find(|t| t.tenant == eu)
        .map(|t| (t.entries_processed(), t.alerts()))
        .unwrap();
    let reports = plane.leave(&eu).expect("eu was served");
    assert_eq!(reports.len(), 2);
    let s2 = plane.stats();
    assert_monotonic(&s1, &s2, "after leave");
    assert_eq!(s2.tenants.len(), 1);
    assert_eq!(
        s2.entries_processed, s1.entries_processed,
        "departed entries vanished from the aggregate"
    );
    assert_eq!(s2.alerts, s1.alerts, "departed alerts vanished");
    assert_eq!(
        s2.triage_suppressed_entries, s1.triage_suppressed_entries,
        "departed triage counters vanished from the aggregate"
    );
    assert_eq!(s2.triage_escalations, s1.triage_escalations);
    assert!(s2.entries_processed >= eu_final.0);
    assert!(s2.alerts >= eu_final.1);

    // More traffic for the surviving tenant keeps the counters rising.
    for entry in us_log.entries().iter().skip(us_log.len() / 2) {
        assert_eq!(plane.ingest(&us, entry.to_string()), IngestOutcome::Routed);
    }
    let _ = plane.drain(&us);
    let s3 = plane.stats();
    assert_monotonic(&s2, &s3, "after more traffic");
    assert_eq!(s3.entries_processed, (eu_log.len() + us_log.len()) as u64);

    // Full shutdown folds everything; nothing is lost.
    plane.shutdown();
    let s4 = plane.stats();
    assert_monotonic(&s3, &s4, "after shutdown");
    assert!(s4.tenants.is_empty());
    assert_eq!(s4.entries_processed, s3.entries_processed);
    assert_eq!(s4.alerts, s3.alerts);
    assert_eq!(s4.parse_errors, 1);

    // The JSON rendering reflects the same (monotonic) aggregates,
    // triage included.
    let json = s4.to_json();
    assert!(json.contains(&format!("\"entries_processed\":{}", s4.entries_processed)));
    assert!(json.contains("\"tenants\":[]"));
    assert!(json.contains(&format!(
        "\"triage\":{{\"escalations\":{},\"suppressed\":{},\"replayed\":{},\"spilled\":{}}}",
        s4.triage_escalations,
        s4.triage_suppressed_entries,
        s4.triage_replayed_entries,
        s4.triage_spilled_entries
    )));
    assert!(json.contains(&format!(
        "\"deadline_flushes\":{},\"max_buffered_age_us\":{}",
        s4.deadline_flushes, s4.max_buffered_age_us
    )));
    assert!(json.contains(&format!("\"idle_flushes\":{},", s4.idle_flushes)));
}
