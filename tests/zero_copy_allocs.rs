//! Pins the zero-copy spine's allocation profile: once warm (arenas
//! recycled, job queues built, UA interner and per-client detector
//! state populated), `Pipeline::push_line` performs **zero heap
//! allocations per entry** — the only steady-state allocations are
//! per-chunk bookkeeping (shard schedules, result messages,
//! accumulator growth), so the budget here is counted per chunk, not
//! per entry. Held for the paper's two-tool spine and for the full
//! five-detector ensemble: every stock member runs on the borrowed path.
//! Both run with a sink attached that reads the alerting entry, so the
//! budget also covers what finalize does to show a sink its entry — on
//! this traffic most entries alert, and a per-alert allocation is a
//! per-entry one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use divscrape_detect::baselines::{RateLimiter, SignatureOnly};
use divscrape_detect::{Arcane, Sentinel, TrapDetector};
use divscrape_pipeline::{Adjudication, Alert, PipelineBuilder};
use divscrape_traffic::{generate, ScenarioConfig};

/// Counts every allocation (fresh and growing) made by the whole
/// process. The test binary holds exactly one `#[test]`, so nothing
/// but the pipeline under measurement runs inside the counted window.
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

const CHUNK: usize = 256;

/// Warms `builder`'s pipeline with two passes over `lines`, then
/// asserts the third pass stays inside the per-chunk budget.
fn assert_warm_pass_is_sub_per_entry(what: &str, builder: PipelineBuilder, lines: &[String]) {
    let entries = lines.len() as u64;
    let mut pipeline = builder
        .adjudication(Adjudication::k_of_n(1))
        .sink(|alert: &Alert<'_>| {
            std::hint::black_box((alert.entry.status(), alert.entry.user_agent()));
        })
        .workers(1)
        .chunk_capacity(CHUNK)
        // A per-chunk budget needs a known chunk count: fill-only.
        .max_delay(std::time::Duration::MAX)
        .build()
        .unwrap();

    // Warm-up: two full passes grow every arena to capacity,
    // intern every user agent, and build per-client detector state.
    // No drain in between — detector state and recycled blocks carry
    // straight into the measured pass.
    for _ in 0..2 {
        for line in lines {
            pipeline.push_line(line).unwrap();
        }
    }
    std::thread::sleep(std::time::Duration::from_millis(100)); // let the worker go idle

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for line in lines {
        pipeline.push_line(line).unwrap();
    }
    std::thread::sleep(std::time::Duration::from_millis(100)); // let the worker finish the pass
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let chunks = entries.div_ceil(CHUNK as u64);
    // Per-chunk bookkeeping (shard schedule, submit/result messages,
    // accumulator growth) plus a flat slack for amortized Vec doubling.
    let budget = chunks * 64 + 128;
    assert!(
        allocs <= budget,
        "{what}: steady-state pass allocated {allocs} times for {entries} entries \
         ({chunks} chunks; per-chunk budget {budget}) — the zero-copy hot \
         path has grown a per-entry allocation"
    );
    // The headline claim, stated directly: well under one alloc/entry.
    assert!(
        allocs < entries / 4,
        "{what}: allocations ({allocs}) are no longer sub-per-entry ({entries} entries)"
    );

    let report = pipeline.drain();
    assert_eq!(report.requests(), lines.len() * 3);
}

// One `#[test]` for both compositions: the counter is process-global,
// so they must not run on parallel test threads.
#[test]
fn warm_push_line_allocates_per_chunk_not_per_entry() {
    let log = generate(&ScenarioConfig::tiny(9)).unwrap();
    // Render outside the measured window: the whole point is that the
    // pipeline borrows these lines without taking copies of its own.
    let lines: Vec<String> = log.entries().iter().map(|e| e.to_string()).collect();
    assert!(lines.len() >= 500, "scenario too small to be meaningful");

    let spine = PipelineBuilder::new()
        .detector(Sentinel::stock())
        .detector(Arcane::stock());
    assert_warm_pass_is_sub_per_entry("two-tool spine", spine, &lines);

    let ensemble = PipelineBuilder::new()
        .detector(Sentinel::stock())
        .detector(Arcane::stock())
        .detector(TrapDetector::default())
        .detector(RateLimiter::default())
        .detector(SignatureOnly::stock());
    assert_warm_pass_is_sub_per_entry("five-detector ensemble", ensemble, &lines);
}
