//! Streaming detection pipeline for the `divscrape` reproduction.
//!
//! The paper's experiments run two detectors over a fully materialized log
//! and adjudicate offline. Production deployments do not get that luxury:
//! entries arrive incrementally, detectors run side by side, and the
//! adjudicated verdict has to come out of one composed system. This crate
//! is that system — the deployable form of the paper's diverse-detector
//! study:
//!
//! * [`PipelineBuilder`] composes any set of [`Detector`]s with an online
//!   adjudication stage ([`Adjudication::k_of_n`] or
//!   [`Adjudication::weighted`], reusing the rules from
//!   `divscrape-ensemble`) and any number of [`AlertSink`]s — in-memory
//!   ([`CountingSink`], [`CollectingSink`]), file ([`JsonLinesSink`]) or
//!   network ([`TcpSink`]) backends, flushed on every drain.
//! * [`Pipeline`] accepts traffic incrementally — [`push`](Pipeline::push)
//!   one entry, [`push_batch`](Pipeline::push_batch) a slice,
//!   [`push_line`](Pipeline::push_line) a raw log line — buffers it into
//!   one chunk arena, and runs each chunk through every detector's
//!   batched fast path ([`Detector::observe_batch_refs`]). A chunk ends
//!   when the arena is full, when the driver feeding it runs out of
//!   input and calls [`poll`](Pipeline::poll) before it parks (group
//!   commit: what arrived while the last chunk ran is the next chunk),
//!   or — bounding only a caller that pushes and never parks — when its
//!   oldest entry has waited [`max_delay`](PipelineBuilder::max_delay)
//!   (10 ms by default). Alert latency is so the cost of the work, not
//!   how long a chunk takes to fill; [`flush`](Pipeline::flush) and
//!   [`poll`](Pipeline::poll) are the two primitives for callers that
//!   want a boundary now, or are about to wait on empty input.
//! * With [`workers(n)`](PipelineBuilder::workers), the pipeline runs a
//!   **persistent worker pool**: `n` long-lived threads, each owning its
//!   own replica of every detector for the pipeline's lifetime. Chunks
//!   are client-sharded across the pool through *bounded* job queues, so
//!   a feed that outruns the detectors blocks in
//!   [`push`](Pipeline::push) (backpressure) instead of buffering
//!   without bound; [`queue_depth`](PipelineBuilder::queue_depth) sets
//!   the bound. Because every stock detector keeps its state per client,
//!   the output is **bit-identical** to a sequential run — the same
//!   invariant `divscrape_detect::parallel` exploits, here with detector
//!   state persisting across chunks and no per-flush thread spawning.
//! * For long-running streams,
//!   [`eviction`](PipelineBuilder::eviction) bounds every detector's
//!   per-client state tables with TTL and LRU-capacity policies
//!   ([`EvictionConfig`], from `divscrape-detect`); off by default and
//!   then bit-identical to the unbounded tables.
//! * With [`triage`](PipelineBuilder::triage), a near-free first-pass
//!   filter ([`FastTriage`], from `divscrape-detect`) classifies each
//!   entry's client *before* sharding: benign-so-far clients' entries are
//!   buffered and skipped by the detectors, and the moment a client
//!   escalates its buffered history is replayed through the full
//!   detector set in feed order — so the verdict stream stays
//!   bit-identical to a triage-off run whenever no replay buffer
//!   spilled, while benign-heavy feeds pay the detectors only for the
//!   suspicious residue.
//! * The adjudication stage can **recalibrate itself online**:
//!   [`recalibration`](PipelineBuilder::recalibration) attaches a
//!   [`Recalibrator`] that observes every member's verdicts against its
//!   peers' (plus any ground truth a
//!   [`recalibration_labels`](PipelineBuilder::recalibration_labels)
//!   oracle supplies) and periodically re-derives the weighted rule's
//!   weights — applied between chunks, in feed order, so the run is
//!   reproducible from its recorded schedule
//!   ([`Pipeline::rule_updates`]). [`Pipeline::set_adjudication`] is the
//!   manual form of the same mechanism.
//! * [`stats`](Pipeline::stats) snapshots the pipeline's operational
//!   counters ([`PipelineStats`]): throughput, queue depth, per-stage
//!   latency, client-state occupancy/evictions, the currently installed
//!   adjudication weights and runtime-reconfiguration tallies.
//! * For a service protecting **many properties at once**, a pipeline
//!   is the per-tenant unit: [`tenant`](PipelineBuilder::tenant) tags
//!   its alerts, and `divscrape-service`'s `ServicePlane` runs one
//!   fully isolated pipeline per tenant shard (detector mix,
//!   adjudication rule, eviction policy and sinks can all differ),
//!   apportioning one global eviction budget through
//!   [`set_eviction_global_capacity`](Pipeline::set_eviction_global_capacity).
//! * [`drain`](Pipeline::drain) flushes and returns a [`PipelineReport`]
//!   with the adjudicated [`AlertVector`]
//!   plus one per member, ready for the contingency/diversity analyses in
//!   `divscrape-ensemble`.
//!
//! # Quickstart: stream a log through the paper's two tools
//!
//! ```
//! use divscrape_detect::{Arcane, Sentinel};
//! use divscrape_pipeline::{Adjudication, PipelineBuilder};
//! use divscrape_traffic::{generate, ScenarioConfig};
//!
//! let log = generate(&ScenarioConfig::tiny(2018))?;
//!
//! let mut pipeline = PipelineBuilder::new()
//!     .detector(Sentinel::stock())
//!     .detector(Arcane::stock())
//!     .adjudication(Adjudication::k_of_n(1)) // alert when either tool does
//!     .workers(2)      // persistent two-thread pool
//!     .queue_depth(2)  // at most 2 chunks queued per worker
//!     .build()
//!     .map_err(|e| e.to_string())?;
//!
//! // Feed incrementally — chunk boundaries never change verdicts.
//! for chunk in log.entries().chunks(257) {
//!     pipeline.push_batch(chunk);
//! }
//! let report = pipeline.drain();
//!
//! assert_eq!(report.combined.len(), log.len());
//! assert_eq!(report.members.len(), 2);
//! // The 1-of-2 union alerts at least as often as either tool alone.
//! assert!(report.combined.count() >= report.members[0].count());
//!
//! // Operational telemetry: throughput, queue depth, stage latency.
//! let stats = pipeline.stats();
//! assert_eq!(stats.entries_processed, log.len() as u64);
//! assert_eq!(stats.inflight_chunks, 0); // drained
//! # Ok::<(), String>(())
//! ```
//!
//! # Bounding memory on endless streams
//!
//! Per-client detector state grows with the number of distinct clients;
//! long-running deployments bound it with an eviction policy:
//!
//! ```
//! use divscrape_detect::Sentinel;
//! use divscrape_pipeline::{EvictionConfig, PipelineBuilder};
//! use divscrape_traffic::{generate, ScenarioConfig};
//!
//! let log = generate(&ScenarioConfig::tiny(7))?;
//! let mut pipeline = PipelineBuilder::new()
//!     .detector(Sentinel::stock())
//!     // Forget clients idle > 1 hour; never track more than 10k.
//!     .eviction(EvictionConfig::ttl(3_600).with_capacity(10_000))
//!     .build()
//!     .map_err(|e| e.to_string())?;
//! pipeline.push_batch(log.entries());
//! let _ = pipeline.drain();
//! assert!(pipeline.stats().max_live_clients <= 10_000);
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod engine;
mod finalize;
mod flush;
mod mux;
mod pool;
mod record;
mod sink;
mod stats;
mod store_sink;
mod triage;

pub use builder::{Adjudication, BuildError, DriftHook, LabelOracle, PipelineBuilder};
pub use engine::{AppliedRuleUpdate, Pipeline, PipelineReport, RuleProvenance};
pub use flush::DEFAULT_MAX_DELAY;
pub use mux::{MuxCollector, MuxCollectorSink};
pub use record::{AlertParseError, AlertRecord, ScoreRecord};
pub use sink::{
    Alert, AlertSink, CollectingSink, CountingSink, JsonLinesSink, ScoredEntry, SinkTelemetry,
    TcpSink,
};
pub use stats::{PipelineStats, RuntimeUpdates};
pub use store_sink::{RecordPolicy, StoreSink};

// Re-exported so pipeline deployments can configure state eviction,
// tenancy and triage without depending on `divscrape-detect` directly.
pub use divscrape_detect::{
    EvictionConfig, EvictionStats, FastTriage, TenantId, TriageFilter, TriagePolicy,
};
// Re-exported so deployments can configure online recalibration and
// post-process [`PipelineReport`]s without depending on
// `divscrape-ensemble` directly.
pub use divscrape_ensemble::{
    AlertVector, DriftAlarm, RecalibrationPolicy, Recalibrator, ThresholdController,
    ThresholdPolicy, WeightUpdate,
};

use divscrape_detect::Detector;

/// An object-safe, replicable detector: what a [`Pipeline`] runs.
///
/// Implemented automatically for every `Detector + Clone + Send` type, so
/// all stock detectors and any user detector deriving `Clone` qualify.
/// Replication is what lets the sharded driver give each worker thread its
/// own instance while presenting one logical detector.
pub trait PipelineDetector: Detector + Send {
    /// Clones this detector behind a box.
    fn clone_boxed(&self) -> Box<dyn PipelineDetector>;
}

impl<D: Detector + Clone + Send + 'static> PipelineDetector for D {
    fn clone_boxed(&self) -> Box<dyn PipelineDetector> {
        Box::new(self.clone())
    }
}
