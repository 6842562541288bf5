//! The scatter kernel for client-sharded detector execution.
//!
//! Every detector in this crate keeps all mutable state *per client*
//! (address + user agent), so a log can be partitioned by client and each
//! shard processed by an independent detector instance without changing any
//! verdict. The `divscrape-pipeline` worker pool is the executor that does
//! so; this module holds the per-shard step it runs on every worker.
//!
//! Each worker sees its shard's entries in the original (timestamp) order
//! and returns `(original_index, verdict)` pairs, so the executor can write
//! verdicts back to the entries' original positions — output bit-identical
//! to a sequential run. Within a shard, maximal runs of consecutive entries
//! are fed through [`Detector::observe_batch_refs`], so detectors with a
//! specialized batch path keep it under sharding.

use divscrape_httplog::EntryRef;

use crate::{Detector, Verdict};

/// Feeds one shard's (sorted) indices into `entries` — a chunk's
/// [`EntryRef`] views — through the detector, batching each maximal run
/// of consecutive indices so the detector's
/// [`observe_batch_refs`](Detector::observe_batch_refs) fast path applies.
/// Returns `(original_index, verdict)` pairs.
///
/// This is the scatter/gather kernel of the `divscrape-pipeline`
/// persistent worker pool — any executor that partitions a log by client
/// and needs verdicts back in original positions.
pub fn run_index_runs<D: Detector + ?Sized>(
    det: &mut D,
    entries: &[EntryRef<'_>],
    indices: &[usize],
) -> Vec<(usize, Verdict)> {
    let mut out = Vec::with_capacity(indices.len());
    let mut buf = Vec::new();
    let mut pos = 0;
    while pos < indices.len() {
        let start = indices[pos];
        let mut end = pos + 1;
        while end < indices.len() && indices[end] == indices[end - 1] + 1 {
            end += 1;
        }
        buf.clear();
        det.observe_batch_refs(&entries[start..start + (end - pos)], &mut buf);
        out.extend(buf.drain(..).enumerate().map(|(k, v)| (start + k, v)));
        pos = end;
    }
    out
}
