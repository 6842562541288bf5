//! The persistent worker pool: what a chunk's shard is, how a crew of
//! detectors runs one, and the long-lived worker thread that does so.
//! The engine owns the pool's handles and the reorder buffer; this
//! module owns what crosses the thread boundary.

use std::sync::mpsc::{self, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use divscrape_detect::parallel::run_index_runs;
use divscrape_detect::{EvictionConfig, EvictionStats, Verdict};
use divscrape_httplog::{EntryBlock, EntryRef};

use crate::triage::{ReplayLoad, RetroVerdict};
use crate::PipelineDetector;

/// Work shipped to a pool worker.
pub(crate) enum Job {
    /// Process this worker's shard of a chunk.
    Chunk {
        /// Feed-order chunk sequence number, echoed back in the result.
        seq: u64,
        /// The whole chunk's arena, shared across the participating
        /// workers.
        block: Arc<EntryBlock>,
        /// Sorted chunk positions owned by this worker's shard, or
        /// `None` when the worker owns the entire chunk (single-worker
        /// pools skip the index bookkeeping entirely).
        indices: Option<Vec<usize>>,
        /// Escalated clients owned by this shard whose buffered history
        /// must replay through the detectors at each client's escalation
        /// point, interleaved with the shard's live entries (triage
        /// only; empty otherwise).
        replays: Vec<ReplayLoad>,
    },
    /// Reset every detector replica (queued in order, so it takes effect
    /// before any chunk submitted after it).
    Reset,
    /// Install a new eviction policy on every detector replica (queued
    /// in order: applies after previously queued chunks, before later
    /// ones — deterministic relative to the chunk sequence). State is
    /// kept; the new bounds apply from the next touch.
    SetEviction(EvictionConfig),
}

/// Per-detector verdicts of one worker's shard.
pub(crate) enum ShardColumns {
    /// The worker owned the whole chunk: one verdict per chunk position,
    /// already in order (no scatter needed).
    Whole(Vec<Vec<Verdict>>),
    /// A proper shard: `(chunk_position, verdict)` pairs per detector.
    Pairs(Vec<Vec<(usize, Verdict)>>),
}

/// One worker's finished shard of one chunk.
pub(crate) struct WorkerResult {
    pub(crate) seq: u64,
    pub(crate) worker: usize,
    pub(crate) columns: ShardColumns,
    /// Verdicts for replayed (previously triage-suppressed) entries,
    /// echoed back for driver-side patching; empty without triage.
    pub(crate) retro: Vec<RetroVerdict>,
    /// Wall time the worker spent in the detectors for this shard.
    pub(crate) busy: Duration,
    /// The worker's client-state footprint after this shard.
    pub(crate) evict: EvictionStats,
}

/// A long-lived pool worker: its bounded job queue and join handle.
pub(crate) struct WorkerHandle {
    /// `None` only during teardown.
    pub(crate) jobs: Option<SyncSender<Job>>,
    pub(crate) thread: Option<JoinHandle<()>>,
}

/// Runs one shard of one chunk through a crew of detectors, producing
/// per-detector verdict columns. Shared by the pool workers and the
/// single-worker inline path.
pub(crate) fn run_shard(
    detectors: &mut [Box<dyn PipelineDetector>],
    block: &EntryBlock,
    indices: Option<&[usize]>,
) -> ShardColumns {
    // One `Copy` view per entry, borrowed from the arena: built once per
    // shard, shared by every detector.
    let refs: Vec<EntryRef<'_>> = (0..block.len()).map(|i| block.view(i)).collect();
    match indices {
        None => ShardColumns::Whole(
            detectors
                .iter_mut()
                .map(|det| {
                    let mut col = Vec::with_capacity(refs.len());
                    det.observe_batch_refs(&refs, &mut col);
                    col
                })
                .collect(),
        ),
        Some(indices) => ShardColumns::Pairs(
            detectors
                .iter_mut()
                .map(|det| run_index_runs(det, &refs, indices))
                .collect(),
        ),
    }
}

/// Replays one escalated client's buffered history through a crew of
/// detectors, appending one [`RetroVerdict`] per replayed entry.
fn replay_one_load(
    detectors: &mut [Box<dyn PipelineDetector>],
    load: ReplayLoad,
    block: &mut EntryBlock,
    out: &mut Vec<RetroVerdict>,
) {
    block.clear();
    for (_, line) in &load.entries {
        block
            .push_line(line)
            .expect("replay lines were copied out of a parsed arena");
    }
    let refs: Vec<EntryRef<'_>> = (0..block.len()).map(|i| block.view(i)).collect();
    let columns: Vec<Vec<Verdict>> = detectors
        .iter_mut()
        .map(|det| {
            let mut col = Vec::with_capacity(refs.len());
            det.observe_batch_refs(&refs, &mut col);
            col
        })
        .collect();
    for (pos, (index, line)) in load.entries.into_iter().enumerate() {
        out.push(RetroVerdict {
            index,
            line,
            verdicts: columns.iter().map(|col| col[pos]).collect(),
        });
    }
}

/// Runs one contiguous live segment of a triaged shard, appending each
/// detector's `(chunk_position, verdict)` pairs.
fn run_live_segment(
    detectors: &mut [Box<dyn PipelineDetector>],
    refs: &[EntryRef<'_>],
    indices: &[usize],
    pairs: &mut [Vec<(usize, Verdict)>],
) {
    if indices.is_empty() {
        return;
    }
    for (det, out) in detectors.iter_mut().zip(pairs.iter_mut()) {
        out.extend(run_index_runs(det, refs, indices));
    }
}

/// Runs a triaged shard: the live entries in feed order, with each
/// escalated client's buffered history replayed through the detectors
/// **at its escalation point** — immediately before the live entry that
/// escalated the client. Interleaving at the trigger (rather than
/// replaying every load up front) keeps the detectors' observation clock
/// consistent with a triage-off run: a client escalating late in the
/// chunk carries late timestamps, and replaying it first would advance
/// TTL eviction past an earlier client's freshly replayed state. Shared
/// by the pool workers and the single-worker inline path.
pub(crate) fn run_shard_with_replays(
    detectors: &mut [Box<dyn PipelineDetector>],
    chunk: &EntryBlock,
    indices: Option<&[usize]>,
    mut loads: Vec<ReplayLoad>,
) -> (ShardColumns, Vec<RetroVerdict>) {
    if loads.is_empty() {
        return (run_shard(detectors, chunk, indices), Vec::new());
    }
    let whole: Vec<usize>;
    let indices = match indices {
        Some(indices) => indices,
        None => {
            whole = (0..chunk.len()).collect();
            &whole
        }
    };
    let refs: Vec<EntryRef<'_>> = (0..chunk.len()).map(|i| chunk.view(i)).collect();
    loads.sort_by_key(|load| load.trigger_pos);
    let mut pairs: Vec<Vec<(usize, Verdict)>> = vec![Vec::new(); detectors.len()];
    let mut retro = Vec::new();
    let mut block = EntryBlock::new();
    let mut start = 0usize;
    for load in loads {
        let cut = start + indices[start..].partition_point(|&pos| pos < load.trigger_pos);
        run_live_segment(detectors, &refs, &indices[start..cut], &mut pairs);
        start = cut;
        replay_one_load(detectors, load, &mut block, &mut retro);
    }
    run_live_segment(detectors, &refs, &indices[start..], &mut pairs);
    (ShardColumns::Pairs(pairs), retro)
}

/// Spawns a pool worker owning `detectors` for the pipeline's lifetime.
pub(crate) fn spawn_worker(
    id: usize,
    mut detectors: Vec<Box<dyn PipelineDetector>>,
    queue_depth: usize,
    results: mpsc::Sender<WorkerResult>,
) -> WorkerHandle {
    let (jobs_tx, jobs_rx) = mpsc::sync_channel::<Job>(queue_depth);
    let thread = std::thread::Builder::new()
        .name(format!("divscrape-pipeline-{id}"))
        .spawn(move || {
            while let Ok(job) = jobs_rx.recv() {
                match job {
                    Job::Chunk {
                        seq,
                        block,
                        indices,
                        replays,
                    } => {
                        let started = Instant::now();
                        let (columns, retro) = run_shard_with_replays(
                            &mut detectors,
                            &block,
                            indices.as_deref(),
                            replays,
                        );
                        let evict = EvictionStats::merge_all(
                            detectors.iter().map(|det| det.eviction_stats()),
                        );
                        // The driver may already be gone during teardown.
                        let _ = results.send(WorkerResult {
                            seq,
                            worker: id,
                            columns,
                            retro,
                            busy: started.elapsed(),
                            evict,
                        });
                    }
                    Job::Reset => {
                        for det in &mut detectors {
                            det.reset();
                        }
                    }
                    Job::SetEviction(cfg) => {
                        for det in &mut detectors {
                            det.set_eviction(cfg);
                        }
                    }
                }
            }
        })
        .expect("failed to spawn pipeline worker thread");
    WorkerHandle {
        jobs: Some(jobs_tx),
        thread: Some(thread),
    }
}
