//! Pins the durable sink path's allocation profile. Once warm (line
//! buffer and frame buffer grown, the tenant's index slot present), a
//! stored record — `StoreSink::on_entry` + `on_alert`, JSON rendering,
//! key, frame, checksum, buffered write — performs **zero heap
//! allocations**. And a `VotedEntries` store sink costs a quiet entry
//! nothing: finalize skips, before materializing it, any entry that did
//! not alert, drew no vote and that no sink asked for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use divscrape_detect::{Detector, TenantId, Verdict};
use divscrape_httplog::{EntryRef, LogEntry};
use divscrape_pipeline::{
    Adjudication, Alert, AlertSink, PipelineBuilder, RecordPolicy, ScoredEntry, StoreSink,
};
use divscrape_traffic::{generate, ScenarioConfig};

/// Counts every allocation (fresh and growing) made by the whole
/// process. The test binary holds exactly one `#[test]`, so nothing
/// but the code under measurement runs inside a counted window.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System`; the counter is a relaxed
// atomic and never influences the returned pointers.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "divscrape-store-sink-allocs-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Score record + alert record for `entry` at `index`, as finalize
/// delivers an alerted entry to the store sink.
fn store_one(sink: &mut StoreSink, tenant: &TenantId, entry: &LogEntry, index: u64) {
    let (votes, scores) = ([true, false, true], [0.93, 0.07, 0.5]);
    sink.on_entry(&ScoredEntry {
        index,
        tenant: Some(tenant),
        entry,
        alerted: true,
        votes: &votes,
        scores: &scores,
    });
    sink.on_alert(&Alert {
        index,
        tenant: Some(tenant),
        entry,
        votes: &votes,
        scores: &scores,
    });
}

fn warm_store_sink_allocates_nothing_per_record() {
    const WARM: u64 = 64;
    const MEASURED: u64 = 2_000;
    let dir = temp_dir("records");
    let mut sink = StoreSink::open(&dir).unwrap();
    let tenant = TenantId::new("shop-eu");
    // Longest line first, so the warm-up grows the buffers for good.
    let entry = LogEntry::parse(
        r#"198.51.100.7 - - [11/Mar/2018:06:25:14 +0000] "GET /search?from=NCE&to=LIS&adults=2&cabin=economy HTTP/1.1" 403 17 "https://shop.example/offers" "weird \"agent\" Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36""#,
    )
    .unwrap();
    for index in 0..WARM {
        store_one(&mut sink, &tenant, &entry, index);
    }

    let before = allocations();
    for index in WARM..WARM + MEASURED {
        store_one(&mut sink, &tenant, &entry, index);
    }
    let allocs = allocations() - before;

    assert_eq!(
        allocs,
        0,
        "{MEASURED} stored entries ({} records) allocated {allocs} times",
        2 * MEASURED
    );
    assert_eq!(sink.telemetry().written(), 2 * (WARM + MEASURED));
    assert_eq!(sink.telemetry().errors(), 0);
    sink.flush();
    drop(sink);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Never votes: every entry it sees is quiet.
#[derive(Debug, Clone, Default)]
struct Quiet;

impl Detector for Quiet {
    fn name(&self) -> &str {
        "quiet"
    }

    fn observe(&mut self, _entry: &EntryRef<'_>) -> Verdict {
        Verdict::new(false, 0.0)
    }

    fn reset(&mut self) {}
}

const CHUNK: usize = 256;

/// Allocations of one warm pass of `lines` through `builder`'s pipeline.
fn warm_pass_allocations(builder: PipelineBuilder, lines: &[String]) -> u64 {
    let mut pipeline = builder
        .detector(Quiet)
        .adjudication(Adjudication::k_of_n(1))
        .workers(1)
        .chunk_capacity(CHUNK)
        // A per-chunk budget needs a known chunk count: fill-only.
        .max_delay(std::time::Duration::MAX)
        .build()
        .unwrap();
    for _ in 0..2 {
        for line in lines {
            pipeline.push_line(line).unwrap();
        }
    }
    let before = allocations();
    for line in lines {
        pipeline.push_line(line).unwrap();
    }
    let allocs = allocations() - before;
    let report = pipeline.drain();
    assert_eq!(report.requests(), lines.len() * 3);
    assert_eq!(report.combined.count(), 0, "the log must stay quiet");
    allocs
}

fn quiet_entries_cost_a_voted_entries_sink_nothing() {
    let log = generate(&ScenarioConfig::tiny(9)).unwrap();
    let lines: Vec<String> = log.entries().iter().map(|e| e.to_string()).collect();
    assert!(lines.len() >= 500, "scenario too small to be meaningful");
    let chunks = lines.len().div_ceil(CHUNK) as u64;

    let bare = warm_pass_allocations(PipelineBuilder::new(), &lines);
    let dir = temp_dir("quiet");
    let sink = StoreSink::open(&dir).unwrap();
    assert_eq!(sink.entry_policy(), RecordPolicy::VotedEntries);
    let store = sink.store();
    let stored = warm_pass_allocations(PipelineBuilder::new().sink(sink), &lines);

    // Having a sink at all costs finalize a few vectors per chunk;
    // per entry it must cost nothing.
    assert!(
        stored <= bare + chunks * 8,
        "a VotedEntries sink made {} quiet entries cost {stored} allocations against {bare} \
         with no sink ({chunks} chunks) — finalize materializes entries nobody keeps",
        lines.len()
    );
    assert_eq!(store.with(|s| s.len()), 0, "nothing quiet is stored");
    std::fs::remove_dir_all(&dir).unwrap();
}

// One `#[test]` for both: the counter is process-global, so they must
// not run on parallel test threads.
#[test]
fn the_durable_sink_path_allocates_per_chunk_not_per_record() {
    warm_store_sink_allocates_nothing_per_record();
    quiet_entries_cost_a_voted_entries_sink_nothing();
}
