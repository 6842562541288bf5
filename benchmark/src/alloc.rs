//! The harness's counting global allocator: a pass-through to `System`
//! that counts allocation calls and tracks live and peak heap bytes.
//!
//! `allocs_per_entry` reads [`allocations`] around the timed passes;
//! `peak_heap_mib` calls [`rebase_peak`] at the start of the paced phase
//! and reads [`peak_bytes`] at its end. Counters are process-wide, so a
//! service workload's shard-driver thread is counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Counts `alloc`/`alloc_zeroed`/`realloc` calls and tracks live bytes
/// with a resettable high-water mark.
pub struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

// `Relaxed` throughout: the counters are statistics and publish no
// other data.
fn grew(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns `System`'s pointer unchanged; the counters never influence
// the allocation.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is `System.alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with `layout` — i.e. from `System` — and that `new_size` is
        // valid for `layout.align()`.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        new_ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with `layout`, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls (`alloc` + `alloc_zeroed` + `realloc`) so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Restarts the high-water mark at the current live level and returns
/// that level — the baseline a later [`peak_bytes`] is read against.
pub fn rebase_peak() -> usize {
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live, Ordering::Relaxed);
    live
}

/// Live-bytes high-water mark since the last [`rebase_peak`].
pub fn peak_bytes() -> usize {
    PEAK_BYTES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test, not several: the counters are process-wide and cargo
    // runs tests on parallel threads, so only lower bounds on deltas
    // hold — and a single test keeps this module's own allocations out
    // of each other's windows.
    #[test]
    fn counts_allocations_and_tracks_a_resettable_peak() {
        let before = allocations();
        let base = rebase_peak();
        let big = vec![0u8; 4 << 20];
        std::hint::black_box(&big);
        assert!(allocations() > before);
        // Other tests may free memory meanwhile, but not megabytes of it.
        assert!(peak_bytes() >= base + (3 << 20));
        drop(big);
        let mut grown: Vec<u8> = Vec::with_capacity(16);
        let at_growth = allocations();
        grown.resize(1 << 16, 1);
        std::hint::black_box(&grown);
        assert!(allocations() > at_growth, "realloc is counted");
    }
}
