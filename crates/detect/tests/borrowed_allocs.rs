//! Pins the cheapest ensemble members to an allocation-free batch path:
//! a warm `observe_batch_refs` pass over `EntryBlock` views performs
//! **zero** heap allocations for the honeytrap and the signature-only
//! baseline — and so does the trait's default batch method (a loop over
//! `observe`) for a third-party detector that implements nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use divscrape_detect::baselines::SignatureOnly;
use divscrape_detect::{Detector, TrapDetector, Verdict};
use divscrape_httplog::{EntryBlock, EntryRef};
use divscrape_traffic::{generate, ScenarioConfig};

/// Counts every allocation (fresh and growing) made by the whole
/// process. The test binary holds exactly one `#[test]`, so nothing but
/// the detector under measurement runs inside the counted window.
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

/// A third-party detector in its smallest form: `observe` only, so every
/// batch goes through the trait's default.
struct NoAgent;

impl Detector for NoAgent {
    fn name(&self) -> &str {
        "no-agent"
    }

    fn observe(&mut self, entry: &EntryRef<'_>) -> Verdict {
        Verdict::new(entry.ua_str().is_empty(), 0.0)
    }

    fn reset(&mut self) {}
}

/// Allocations made by one `observe_batch_refs` pass after one warm-up
/// pass (which trips every wire and sizes `out`).
fn warm_pass_allocs<D: Detector>(mut det: D, views: &[EntryRef<'_>]) -> u64 {
    let mut out: Vec<Verdict> = Vec::with_capacity(views.len());
    det.observe_batch_refs(views, &mut out);
    out.clear();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    det.observe_batch_refs(views, &mut out);
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(out.len(), views.len());
    allocs
}

#[test]
fn warm_borrowed_pass_allocates_nothing_for_trap_and_signature_only() {
    let log = generate(&ScenarioConfig::tiny(14)).unwrap();
    let mut block = EntryBlock::new();
    for entry in log.entries() {
        block.push_line(&entry.to_string()).unwrap();
    }
    let views: Vec<EntryRef<'_>> = (0..block.len()).map(|i| block.view(i)).collect();
    assert!(views.len() >= 500, "scenario too small to be meaningful");

    assert_eq!(
        warm_pass_allocs(TrapDetector::default(), &views),
        0,
        "honeytrap allocated on a warm borrowed pass"
    );
    assert_eq!(
        warm_pass_allocs(SignatureOnly::stock(), &views),
        0,
        "signature-only allocated on a warm borrowed pass"
    );
    assert_eq!(
        warm_pass_allocs(NoAgent, &views),
        0,
        "the default batch method allocated for an observe-only detector"
    );
}
