//! Temporal isolation: one tenant's stalled sink must not delay another
//! tenant's ingestion or drain.
//!
//! Tenant `stuck` gets a sink that blocks inside the pipeline until the
//! test releases it — the shard driver wedges mid-chunk, its bounded
//! queue fills, and its pump blocks. Meanwhile tenant `fluent` streams a
//! whole log through the same plane and drains, under a wall-clock
//! bound. With one driver thread shared by every tenant this scenario
//! deadlocks; the per-tenant shard threads are what make it pass.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use divscrape_detect::{Sentinel, TenantId};
use divscrape_pipeline::{
    Adjudication, Alert, AlertSink, PipelineBuilder, RecordPolicy, ScoredEntry,
};
use divscrape_service::{IngestOutcome, ServicePlane};
use divscrape_traffic::{generate, ScenarioConfig};

/// Blocks inside the pipeline (on every scored entry, so alerts are not
/// required) until the gate opens.
#[derive(Debug, Clone, Default)]
struct GatedSink {
    gate: Arc<(Mutex<bool>, Condvar)>,
}

impl GatedSink {
    fn open(&self) {
        let (lock, cvar) = &*self.gate;
        *lock.lock().unwrap() = true;
        cvar.notify_all();
    }

    fn wait_until_open(&self) {
        let (lock, cvar) = &*self.gate;
        let mut open = lock.lock().unwrap();
        while !*open {
            open = cvar.wait(open).unwrap();
        }
    }
}

impl AlertSink for GatedSink {
    fn on_alert(&mut self, _alert: &Alert<'_>) {}

    fn on_entry(&mut self, _entry: &ScoredEntry<'_>) {
        self.wait_until_open();
    }

    fn entry_policy(&self) -> RecordPolicy {
        RecordPolicy::AllEntries
    }
}

#[test]
fn stalled_tenant_does_not_delay_another_tenants_ingestion() {
    let stuck = TenantId::new("stuck");
    let fluent = TenantId::new("fluent");
    let gate = GatedSink::default();
    let sink = gate.clone();
    let plane = ServicePlane::builder()
        .queue_depth(8)
        .tenant(stuck.clone(), 1, move |_, _| {
            PipelineBuilder::new()
                .detector(Sentinel::stock())
                .adjudication(Adjudication::k_of_n(1))
                .chunk_capacity(4) // wedge on the very first chunk
                .sink(sink.clone())
        })
        .tenant(fluent.clone(), 2, |_, _| {
            PipelineBuilder::new()
                .detector(Sentinel::stock())
                .adjudication(Adjudication::k_of_n(1))
        })
        .build()
        .unwrap();

    let log = generate(&ScenarioConfig::tiny(99)).unwrap();
    let lines: Vec<String> = log.entries().iter().map(|e| e.to_string()).collect();

    // Wedge the stuck tenant: feed from a helper thread until its pump
    // path blocks (shard queue full, driver stuck in the gated sink).
    let stuck_plane = plane.clone();
    let stuck_lines = lines.clone();
    let stuck_feeder = std::thread::spawn(move || {
        for line in stuck_lines {
            // Blocks once 8 queued + in-flight lines pile up.
            if stuck_plane.ingest(&stuck, line) != IngestOutcome::Routed {
                break;
            }
        }
    });

    // Give the stuck shard time to actually wedge (first chunk reaches
    // the gated sink and stops).
    let wedged_by = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = plane.stats();
        let processed = stats
            .tenants
            .iter()
            .find(|t| t.tenant.as_str() == "stuck")
            .map(|t| t.entries_processed())
            .unwrap_or(0);
        if processed == 0 && Instant::now() > wedged_by {
            break; // sink never finalized an entry: wedged before chunk 1
        }
        if stats.routed_lines >= 8 {
            break; // queue has filled; the feeder is blocking
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        !stuck_feeder.is_finished(),
        "stuck feeder should be blocked"
    );

    // The other tenant streams its whole log and drains, bounded.
    let started = Instant::now();
    for line in &lines {
        assert_eq!(
            plane.ingest(&fluent, line.clone()),
            IngestOutcome::Routed,
            "fluent tenant was refused while another tenant stalled"
        );
    }
    let reports = plane.drain(&fluent).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(
        reports.iter().map(|r| r.requests()).sum::<usize>(),
        log.len(),
        "fluent tenant lost entries"
    );
    assert!(
        elapsed < Duration::from_secs(30),
        "fluent tenant took {elapsed:?} while another tenant stalled"
    );

    // The stuck tenant really was stuck the whole time.
    let stuck_processed = plane
        .stats()
        .tenants
        .iter()
        .find(|t| t.tenant.as_str() == "stuck")
        .map(|t| t.entries_processed())
        .unwrap();
    assert_eq!(stuck_processed, 0, "gated sink let entries finalize");

    // Release the gate: the stalled tenant catches up and every line it
    // accepted is accounted for.
    gate.open();
    stuck_feeder.join().unwrap();
    let stuck = TenantId::new("stuck");
    let reports = plane.drain(&stuck).unwrap();
    let drained: usize = reports.iter().map(|r| r.requests()).sum();
    assert_eq!(
        drained,
        log.len(),
        "stuck tenant lost entries after release"
    );
}
