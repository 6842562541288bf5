//! The pipeline engine: a persistent worker pool running chunked,
//! client-sharded streaming execution with bounded-queue backpressure.
//!
//! # Execution model
//!
//! With `workers > 1`, [`Pipeline::assemble`] spawns one long-lived
//! thread per configured worker. Each thread owns its own replica of
//! every composed detector for the lifetime of the pipeline, so
//! per-client detector state persists across chunk flushes without any
//! re-warming or per-flush thread spawning. A single-worker pipeline
//! runs its detectors inline on the driver thread — there is no
//! parallelism to buy, so a handoff would be pure overhead; ingestion
//! then backpressures maximally (every chunk is fully processed inside
//! `push`). For the pool, work flows through two kinds of channels:
//!
//! * **Jobs** travel over one *bounded*
//!   [`sync_channel`](std::sync::mpsc::sync_channel) per worker, carrying
//!   one message per chunk per worker (a pre-allocated array of
//!   `queue_depth` slots, so the hand-off allocates nothing). When a
//!   target worker's queue is full, or the reorder buffer is at its cap,
//!   [`Pipeline::push`] blocks until the pool catches up — backpressure
//!   instead of unbounded buffering. Entries held driver-side are bounded
//!   by `chunk_capacity × (workers × queue_depth + 1)` in flight, plus up
//!   to one chunk's worth in the ingest buffer.
//! * **Results** return over one shared unbounded MPSC channel. The
//!   driver keeps a reorder buffer keyed by chunk sequence number and
//!   finalizes chunks strictly in feed order: adjudication, sink
//!   delivery and outcome accumulation all happen on the driver thread.
//!   It collects without blocking at every submission, at the flush
//!   policy's clock cadence inside the push calls and in
//!   [`Pipeline::poll`] (which a driver calls whenever its input runs
//!   dry), so a finished chunk does not wait for the next one to fill.
//!
//! Chunks are client-sharded: every entry goes to the worker that owns
//! its client (stable hash), each worker batches maximal runs of
//! consecutive positions through the detectors' fast paths, and verdicts
//! scatter back to chunk positions. Because all stock detectors keep
//! their state per client, the output is bit-identical to a sequential
//! run for any worker count, chunk size or push granularity.
//!
//! # One entry representation
//!
//! Every entry the engine holds lives in an [`EntryBlock`] arena — one
//! contiguous text buffer plus `Copy` metadata per entry, with
//! user-agent classification interned. [`Pipeline::push_line`] parses
//! each raw log line **in place** into the current arena;
//! [`Pipeline::push`]/[`push_batch`](Pipeline::push_batch) render an
//! owned [`LogEntry`]'s canonical line into the same arena and parse it
//! there, so the two can be mixed freely without forcing a chunk
//! boundary. The whole arena ships to the pool when it reaches the chunk
//! capacity, when the driver feeding it runs out of input
//! ([`Pipeline::poll`]: group commit), or — for a caller that pushes
//! and never parks — when its oldest entry reaches the flush deadline
//! (the policy lives in `flush.rs`), and workers run it through the
//! detectors ([`Detector::observe_batch_refs`]) over [`EntryRef`]
//! views, so the steady-state path from line bytes to verdict performs
//! no per-entry heap allocation. An owned `LogEntry` exists only at finalization
//! (`finalize.rs`), for the positions a sink or label oracle actually
//! consumes — one reused entry, re-assembled in place from the arena's
//! metadata ([`EntryBlock::fill_entry`]), never a second parse of the
//! line; finalized arenas are recycled (capacity and warm interner
//! kept) through a small pool.
//!
//! [`Detector::observe_batch_refs`]: divscrape_detect::Detector::observe_batch_refs

use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use divscrape_detect::{EvictionConfig, EvictionStats, Sessionizer, TenantId, Verdict};
use divscrape_ensemble::{AlertVector, Recalibrator, ThresholdController};
use divscrape_httplog::{EntryBlock, LogEntry, ParseLogError};

use crate::builder::{Adjudication, BuildError, DriftHook, LabelOracle, Rule};
use crate::flush::{Cadence, FlushClock, COLLECT_INTERVAL};
use crate::pool::{
    run_shard, run_shard_with_replays, spawn_worker, Job, ShardColumns, WorkerHandle, WorkerResult,
};
use crate::sink::AlertSink;
use crate::stats::{PipelineStats, RuntimeUpdates};
use crate::triage::{EntryAction, ReplayLoad, RetroVerdict, TriageStage};
use crate::PipelineDetector;

/// A submitted chunk waiting for its worker results.
pub(crate) struct PendingChunk {
    /// The chunk's entries; recycled into the block pool at finalization.
    pub(crate) block: Arc<EntryBlock>,
    /// Workers that still owe a result for this chunk.
    awaiting: usize,
    /// Per detector, one verdict per chunk position (scattered in as
    /// results arrive). Triage-suppressed positions stay at their
    /// pre-initialized [`Verdict::CLEAR`].
    pub(crate) columns: Vec<Vec<Verdict>>,
    /// Replayed-history verdicts collected from this chunk's workers,
    /// applied at finalization (empty without triage).
    pub(crate) retro: Vec<RetroVerdict>,
}

/// The triage stage's decision for one chunk, computed serially on the
/// driver before sharding. `None` when every entry processes normally
/// (triage off, or nothing suppressed and nobody escalated with
/// buffered history).
struct TriagePlan {
    /// `true` per suppressed chunk position — skipped by the detectors
    /// (never assigned to a shard), verdicts stay CLEAR.
    mask: Vec<bool>,
    /// Escalated clients' buffered history to replay, routed to each
    /// client's owning shard.
    loads: Vec<ReplayLoad>,
}

/// Driver-side stat accumulators (see [`PipelineStats`] for semantics).
#[derive(Debug, Default)]
pub(crate) struct StatCounters {
    pub(crate) chunks: u64,
    pub(crate) alerts: u64,
    max_inflight: usize,
    detect_busy: Duration,
    pub(crate) adjudicate_busy: Duration,
    pub(crate) sink_busy: Duration,
    max_live_clients: usize,
    pub(crate) drift_alarms: u64,
    pub(crate) updates: RuntimeUpdates,
    deadline_flushes: u64,
    idle_flushes: u64,
    max_buffered_age: Duration,
}

/// Where an [`AppliedRuleUpdate`] came from: a manual operator call, the
/// online weight recalibrator, or the online threshold controller.
///
/// Provenance is telemetry, not semantics — replaying a recorded
/// schedule through [`Pipeline::set_adjudication`] reproduces the run's
/// verdicts bit-for-bit even though the replay's records are all
/// [`Manual`](Self::Manual).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleProvenance {
    /// Installed by an operator via [`Pipeline::set_adjudication`]
    /// (includes schedule replays, which re-apply learned updates
    /// through the same path).
    Manual,
    /// Derived by the online [`Recalibrator`] from the verdict stream
    /// (weights moved, threshold preserved).
    LearnedWeights,
    /// Derived by the online [`ThresholdController`] from the observed
    /// alert rate (threshold moved, weights preserved).
    LearnedThreshold,
}

/// One adjudication-rule install applied by a running pipeline — a
/// recalibrator-derived weight update, a threshold-controller step, or a
/// manual [`Pipeline::set_adjudication`] call. The recorded sequence is
/// the pipeline's **weight-update schedule**: feeding the same stream to
/// a fresh pipeline and re-applying each record at its
/// [`at_entry`](Self::at_entry) position (via `set_adjudication`)
/// reproduces the recalibrating run bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct AppliedRuleUpdate {
    /// Feed-order position the rule took effect at: entries `0 ..
    /// at_entry` were adjudicated under the previous rule, entries from
    /// `at_entry` under this one.
    pub at_entry: u64,
    /// The installed per-member weights, in composition order.
    pub weights: Vec<f64>,
    /// The installed alarm threshold.
    pub threshold: f64,
    /// Who installed this rule (telemetry; see [`RuleProvenance`]).
    pub provenance: RuleProvenance,
}

/// A composed streaming detection pipeline. Built by
/// [`PipelineBuilder`](crate::PipelineBuilder); see the [crate docs](crate)
/// for the model and a quickstart (the engine-module source documents the
/// worker-pool execution model in full).
///
/// Entries are buffered until the chunk capacity is reached, the driver
/// runs out of input and says so through [`poll`](Self::poll) (group
/// commit: whatever arrived while the last chunk ran is the next chunk),
/// **or** — for a caller that pushes and never parks — the oldest of
/// them has waited [`max_delay`](crate::PipelineBuilder::max_delay)
/// (10 ms by default); then the chunk is client-sharded across the
/// persistent worker pool.
/// Finished chunks are finalized strictly in feed order on the driver
/// thread: the adjudication rule combines the member verdicts, sinks
/// fire for every adjudicated alert, and the per-entry outcomes
/// accumulate until [`drain`](Self::drain) collects them. Chunk
/// boundaries, push granularity and worker count never change any
/// verdict; [`flush`](Self::flush) and [`poll`](Self::poll) are the two
/// primitives for a caller that wants a boundary now, or is about to
/// park on empty input.
///
/// # Backpressure
///
/// Each pool worker's job queue is bounded
/// ([`queue_depth`](crate::PipelineBuilder::queue_depth) chunks), and at
/// most `workers × queue_depth + 1` chunks are in flight; when the pool
/// falls behind, [`push`](Self::push) and
/// [`push_batch`](Self::push_batch) block until a slot frees up instead
/// of buffering without bound. A single-worker pipeline processes every
/// chunk inline inside `push` — maximal backpressure by construction.
/// [`stats`](Self::stats) exposes queue depth, per-stage latency and
/// eviction counters.
///
/// # Panics
///
/// A detector that panics kills its worker thread; the next interaction
/// with the pipeline panics with a "worker thread died" message rather
/// than deadlocking.
pub struct Pipeline {
    pub(crate) rule: Rule,
    /// Runtime rule installs not yet applied, as `(first_seq, rule)`:
    /// chunks with sequence >= `first_seq` finalize under `rule`.
    /// Installation happens on the driver at finalization, strictly in
    /// feed order, so a rule change never splits a chunk.
    pub(crate) pending_rules: VecDeque<(u64, Rule)>,
    /// The online recalibrator, when configured
    /// ([`PipelineBuilder::recalibration`](crate::PipelineBuilder::recalibration)).
    pub(crate) recalib: Option<Recalibrator>,
    /// The labeled-feedback oracle for the recalibrator, if any.
    pub(crate) labels: Option<LabelOracle>,
    /// The online alarm-threshold controller, when configured
    /// ([`PipelineBuilder::threshold_control`](crate::PipelineBuilder::threshold_control)).
    pub(crate) thresholds: Option<ThresholdController>,
    /// Optional observer invoked for every recalibrator drift alarm
    /// ([`PipelineBuilder::on_drift`](crate::PipelineBuilder::on_drift)).
    pub(crate) drift_hook: Option<DriftHook>,
    /// Every rule install applied so far, in application order.
    pub(crate) schedule: Vec<AppliedRuleUpdate>,
    /// The tenant this pipeline serves, stamped on every alert; `None`
    /// for classic single-tenant deployments.
    pub(crate) tenant: Option<TenantId>,
    pub(crate) sinks: Vec<Box<dyn AlertSink>>,
    chunk_capacity: usize,
    queue_depth: usize,
    /// The eviction policy currently installed on every replica (post
    /// budget split); base for runtime re-apportionment.
    eviction: EvictionConfig,
    /// The triage stage, when configured
    /// ([`PipelineBuilder::triage`](crate::PipelineBuilder::triage)):
    /// runs serially on the driver ahead of sharding.
    triage: Option<TriageStage>,
    /// The rule in effect at stream start (or since the last
    /// [`reset`](Self::reset)) — the fallback for re-adjudicating
    /// replayed entries that predate every recorded rule install.
    pub(crate) initial_rule: Rule,
    /// The one ingest buffer: the arena every push flavor appends to,
    /// submitted as a chunk when it reaches the chunk capacity, when the
    /// driver goes idle ([`poll`](Self::poll)) or when its oldest entry
    /// reaches the flush deadline.
    block: EntryBlock,
    /// The age of `block`'s oldest entry against
    /// [`max_delay`](crate::PipelineBuilder::max_delay).
    flush_clock: FlushClock,
    /// Finalized arenas ready for reuse — text/meta capacity and the
    /// warm user-agent interner kept, so steady-state `push_line`
    /// traffic allocates nothing per entry.
    pub(crate) block_pool: Vec<EntryBlock>,
    /// The report since the last [`drain`](Self::drain), bit-packed —
    /// so it opens at entry `finalized - acc_combined.len()`: finalize
    /// appends each chunk's words at the current bit offset, a replayed
    /// verdict patches a bit, `drain` moves them out.
    pub(crate) acc_combined: AlertVector,
    pub(crate) acc_members: Vec<AlertVector>,
    /// The chunk being adjudicated: one vote vector per member, named
    /// after its detector, refilled from its verdict column.
    pub(crate) votes: Vec<AlertVector>,
    /// The one owned entry sinks and the label oracle are shown,
    /// re-assembled in place from arena metadata for each position they
    /// consume ([`EntryBlock::fill_entry`]).
    pub(crate) entry_slot: Option<LogEntry>,
    /// `Some` for a single-worker pipeline: the detectors run inline on
    /// the driver and the pool machinery below sits idle.
    inline_crew: Option<Vec<Box<dyn PipelineDetector>>>,
    workers: Vec<WorkerHandle>,
    results: Receiver<WorkerResult>,
    /// Sequence number for the next submitted chunk.
    next_seq: u64,
    /// Reorder buffer: submitted chunks not yet finalized, by sequence.
    inflight: BTreeMap<u64, PendingChunk>,
    /// Entries submitted to the pool (finalized or in flight).
    submitted: u64,
    /// Entries finalized; feed-order index base for the next chunk.
    pub(crate) finalized: u64,
    pub(crate) stats: StatCounters,
    /// Latest eviction snapshot per worker.
    worker_evict: Vec<EvictionStats>,
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("members", &self.member_names())
            .field("rule", &self.rule.label())
            .field("workers", &self.worker_count())
            .field("chunk_capacity", &self.chunk_capacity)
            .field("queue_depth", &self.queue_depth)
            .field("buffered", &self.block.len())
            .field("inflight_chunks", &self.inflight.len())
            .field("processed", &self.finalized)
            .finish()
    }
}

/// What a [`Pipeline::drain`] returns: the adjudicated alert vector and
/// one alert vector per member, all in feed order — directly consumable by
/// the `divscrape-ensemble` contingency, diversity and metric analyses.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// The adjudicated (combined) alerts, labelled with the rule
    /// (`"1oo2"`, `"weighted"`, ...).
    pub combined: AlertVector,
    /// Per-member alerts, labelled with the detector names, in
    /// composition order.
    pub members: Vec<AlertVector>,
}

impl PipelineReport {
    /// Number of requests covered by this report.
    pub fn requests(&self) -> usize {
        self.combined.len()
    }

    /// The member vector with the given detector name, if present.
    pub fn member(&self, name: &str) -> Option<&AlertVector> {
        self.members.iter().find(|m| m.name() == name)
    }
}

impl Pipeline {
    /// Assembles a validated pipeline and spawns its worker pool (called
    /// by the builder). A single-worker pipeline runs its detectors
    /// inline on the driver instead — there is no parallelism to buy, so
    /// the cross-thread handoff would be pure overhead.
    #[allow(clippy::too_many_arguments)] // crate-private: called by the builder only
    pub(crate) fn assemble(
        detectors: Vec<Box<dyn PipelineDetector>>,
        rule: Rule,
        tenant: Option<TenantId>,
        sinks: Vec<Box<dyn AlertSink>>,
        workers: usize,
        chunk_capacity: usize,
        max_delay: Duration,
        queue_depth: usize,
        eviction: EvictionConfig,
        triage: Option<divscrape_detect::TriagePolicy>,
        recalib: Option<Recalibrator>,
        labels: Option<LabelOracle>,
        thresholds: Option<ThresholdController>,
        drift_hook: Option<DriftHook>,
    ) -> Self {
        let votes: Vec<AlertVector> = detectors
            .iter()
            .map(|d| AlertVector::empty(d.name(), 0))
            .collect();
        // The triage filter's per-client state obeys the same eviction
        // policy as the detectors, so both tiers forget clients in
        // lockstep.
        let triage = triage.map(|policy| {
            let (mut filter, cap_bytes) = policy.into_parts();
            if !eviction.is_disabled() {
                filter.set_eviction(eviction);
            }
            TriageStage::new(filter, cap_bytes)
        });

        let (results_tx, results_rx) = mpsc::channel();
        let mut inline_crew = None;
        let handles: Vec<WorkerHandle> = if workers == 1 {
            let mut crew = detectors;
            if !eviction.is_disabled() {
                for det in &mut crew {
                    det.set_eviction(eviction);
                }
            }
            inline_crew = Some(crew);
            Vec::new()
        } else {
            // Worker 0 takes the originals; the others get replicas.
            let mut crews: Vec<Vec<Box<dyn PipelineDetector>>> = Vec::with_capacity(workers);
            for _ in 1..workers {
                crews.push(detectors.iter().map(|d| d.clone_boxed()).collect());
            }
            crews.insert(0, detectors);
            crews
                .into_iter()
                .enumerate()
                .map(|(id, mut crew)| {
                    if !eviction.is_disabled() {
                        for det in &mut crew {
                            det.set_eviction(eviction);
                        }
                    }
                    spawn_worker(id, crew, queue_depth, results_tx.clone())
                })
                .collect()
        };

        let tracked_workers = if inline_crew.is_some() {
            1
        } else {
            handles.len()
        };
        Self {
            initial_rule: rule.clone(),
            rule,
            triage,
            pending_rules: VecDeque::new(),
            recalib,
            labels,
            thresholds,
            drift_hook,
            schedule: Vec::new(),
            tenant,
            sinks,
            chunk_capacity,
            queue_depth,
            eviction,
            block: EntryBlock::new(),
            flush_clock: FlushClock::new(max_delay),
            block_pool: Vec::new(),
            acc_combined: AlertVector::empty("", 0),
            acc_members: votes.clone(),
            votes,
            entry_slot: None,
            worker_evict: vec![EvictionStats::default(); tracked_workers],
            inline_crew,
            workers: handles,
            results: results_rx,
            next_seq: 0,
            inflight: BTreeMap::new(),
            submitted: 0,
            finalized: 0,
            stats: StatCounters::default(),
        }
    }

    /// The composed detector names, in composition order.
    pub fn member_names(&self) -> Vec<&str> {
        self.votes.iter().map(AlertVector::name).collect()
    }

    /// The tenant this pipeline serves
    /// ([`PipelineBuilder::tenant`](crate::PipelineBuilder::tenant)), if
    /// any. Alerts delivered to sinks carry it.
    pub fn tenant(&self) -> Option<&TenantId> {
        self.tenant.as_ref()
    }

    /// Replaces the eviction policy on **every** detector replica at
    /// runtime. State is kept — clients tracked under the old policy
    /// stay tracked; the new bounds apply from each table's next touch.
    ///
    /// The change is queued in feed order: chunks already submitted are
    /// processed under the old policy, chunks pushed afterwards under
    /// the new one, for any worker count — so re-configuration at a
    /// known stream position is deterministic.
    ///
    /// Like any capacity bound, a tighter policy can change subsequent
    /// verdicts (see [`PipelineBuilder::eviction`](crate::PipelineBuilder::eviction));
    /// the point of runtime re-configuration is elasticity — a
    /// multi-tenant service plane re-apportioning one global budget as
    /// tenants come and go.
    pub fn set_eviction(&mut self, eviction: EvictionConfig) {
        // Submit anything still buffered so the policy boundary falls
        // exactly between entries pushed before and after this call
        // (chunk boundaries never change verdicts, so the early flush
        // is otherwise unobservable).
        self.flush();
        self.eviction = eviction;
        self.stats.updates.eviction += 1;
        // The triage filter lives on the driver: its state table swaps
        // policy at the same stream position as every detector replica.
        if let Some(stage) = &mut self.triage {
            stage.filter.set_eviction(eviction);
        }
        if let Some(crew) = &mut self.inline_crew {
            for det in crew {
                det.set_eviction(eviction);
            }
            return;
        }
        for worker in &self.workers {
            worker
                .jobs
                .as_ref()
                .expect("worker pool running")
                .send(Job::SetEviction(eviction))
                .expect("pipeline worker thread died");
        }
    }

    /// Re-bounds the **pipeline-wide** client budget at runtime: the
    /// runtime form of
    /// [`eviction_global_capacity`](crate::PipelineBuilder::eviction_global_capacity).
    /// The budget is split evenly across the worker replicas; a budget
    /// smaller than the worker count is clamped up so every replica
    /// keeps at least one client. Any TTL in the current policy is
    /// preserved. Returns the per-replica share actually installed.
    pub fn set_eviction_global_capacity(&mut self, budget: usize) -> usize {
        let share = (budget / self.worker_count()).max(1);
        self.set_eviction(self.eviction.with_capacity(share));
        share
    }

    /// Replaces the adjudication rule at runtime, validated against the
    /// composition exactly like
    /// [`PipelineBuilder::adjudication`](crate::PipelineBuilder::adjudication)
    /// at build time.
    ///
    /// The change is applied **in feed order at chunk finalization**:
    /// entries pushed before this call are adjudicated under the old
    /// rule, entries pushed after under the new one, for any worker
    /// count and chunk geometry — a rule change never splits a chunk and
    /// never depends on what is currently in flight. (Internally the
    /// install is sequence-gated on the driver, mirroring how
    /// `Job::SetEviction` orders eviction swaps relative to chunks.)
    ///
    /// When an online recalibrator is configured, it adopts the manually
    /// installed rule as its new base at the same stream position
    /// (accumulated evidence is kept), and the install is recorded in
    /// the [`rule_updates`](Self::rule_updates) schedule like any
    /// derived update.
    ///
    /// ```
    /// use divscrape_detect::{Arcane, Sentinel};
    /// use divscrape_pipeline::{Adjudication, PipelineBuilder};
    /// use divscrape_traffic::{generate, ScenarioConfig};
    ///
    /// let log = generate(&ScenarioConfig::tiny(5))?;
    /// let mut pipeline = PipelineBuilder::new()
    ///     .detector(Sentinel::stock())
    ///     .detector(Arcane::stock())
    ///     .build()
    ///     .map_err(|e| e.to_string())?;
    /// pipeline.push_batch(&log.entries()[..600]);
    /// // Tighten to unanimity from this exact stream position onward.
    /// pipeline
    ///     .set_adjudication(Adjudication::k_of_n(2))
    ///     .map_err(|e| e.to_string())?;
    /// pipeline.push_batch(&log.entries()[600..]);
    /// let report = pipeline.drain();
    /// assert_eq!(report.requests(), log.len());
    /// // The install is recorded at its boundary, in weighted form.
    /// assert_eq!(pipeline.rule_updates().len(), 1);
    /// assert_eq!(pipeline.rule_updates()[0].at_entry, 600);
    /// assert_eq!(pipeline.rule_updates()[0].threshold, 2.0);
    /// # Ok::<(), String>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] when the scheme does not fit the
    /// composition (vote count out of range, wrong weight count,
    /// malformed weights).
    pub fn set_adjudication(&mut self, adjudication: Adjudication) -> Result<(), BuildError> {
        let rule = adjudication.resolve(self.votes.len())?;
        // Submit anything still buffered so the rule boundary falls
        // exactly between entries pushed before and after this call
        // (chunk boundaries never change member verdicts, so the early
        // flush is otherwise unobservable).
        self.flush();
        self.pending_rules.push_back((self.next_seq, rule));
        Ok(())
    }

    /// The adjudication-rule installs applied so far — the pipeline's
    /// recorded **weight-update schedule**, in application order. Covers
    /// recalibrator-derived updates and manual
    /// [`set_adjudication`](Self::set_adjudication) calls (a k-out-of-n
    /// install is recorded as its exact weighted equivalent). Replaying
    /// the schedule against the same stream reproduces this run's
    /// output bit-for-bit; cleared by [`reset`](Self::reset).
    pub fn rule_updates(&self) -> &[AppliedRuleUpdate] {
        &self.schedule
    }

    /// The online recalibrator, when one is configured — current
    /// weights, support estimates and update counts.
    pub fn recalibrator(&self) -> Option<&Recalibrator> {
        self.recalib.as_ref()
    }

    /// The online alarm-threshold controller, when one is configured —
    /// observed alert rate and update count.
    pub fn threshold_controller(&self) -> Option<&ThresholdController> {
        self.thresholds.as_ref()
    }

    /// Freezes or thaws the online recalibrator (no-op without one).
    /// Frozen, it keeps observing — the EWMA evidence stays warm — but
    /// derives no updates, so the installed weights hold still; a thaw
    /// resumes from the accumulated evidence. The freeze takes effect
    /// immediately (it does not wait for in-flight chunks, which can
    /// only *finalize* after this call returns).
    pub fn set_recalibration_frozen(&mut self, frozen: bool) {
        if let Some(recal) = &mut self.recalib {
            recal.set_frozen(frozen);
        }
    }

    /// Number of workers running detectors: the pool size, or 1 when the
    /// pipeline runs inline on the driver.
    pub fn worker_count(&self) -> usize {
        if self.inline_crew.is_some() {
            1
        } else {
            self.workers.len()
        }
    }

    /// Bounded job-queue capacity per worker, in chunks.
    pub fn queue_depth(&self) -> usize {
        self.queue_depth
    }

    /// Entries accepted so far (finalized, in flight, or buffered).
    pub fn requests_seen(&self) -> u64 {
        self.submitted + self.pending() as u64
    }

    /// Entries buffered on the driver and not yet submitted to the pool.
    pub fn pending(&self) -> usize {
        self.block.len()
    }

    /// A snapshot of the pipeline's operational counters: throughput,
    /// queue depth, per-stage latency and client-state eviction. Cheap —
    /// reads driver-side accumulators only (worker eviction footprints
    /// are as of each worker's most recently collected result).
    pub fn stats(&self) -> PipelineStats {
        let inflight_entries: usize = self.inflight.values().map(|p| p.block.len()).sum();
        let (current_weights, current_threshold) = match &self.rule {
            Rule::Weighted(rule) => (Some(rule.weights().to_vec()), Some(rule.threshold())),
            Rule::KOutOfN(_) => (None, None),
        };
        let triage = self
            .triage
            .as_ref()
            .map(|stage| stage.counters)
            .unwrap_or_default();
        let mut spool_depth = 0u64;
        let mut spool_bytes_high_water = 0u64;
        let mut replayed_alerts = 0u64;
        for sink in &self.sinks {
            if let Some(telemetry) = sink.sink_telemetry() {
                spool_depth += telemetry.spool_depth();
                spool_bytes_high_water += telemetry.spool_bytes_high_water();
                replayed_alerts += telemetry.replayed();
            }
        }
        PipelineStats {
            current_weights,
            current_threshold,
            runtime_updates: self.stats.updates,
            spool_depth,
            spool_bytes_high_water,
            replayed_alerts,
            entries_processed: self.finalized,
            entries_pending: self.pending() + inflight_entries,
            chunks_processed: self.stats.chunks,
            alerts: self.stats.alerts,
            inflight_chunks: self.inflight.len(),
            max_inflight_chunks: self.stats.max_inflight,
            detect_busy: self.stats.detect_busy,
            adjudicate_busy: self.stats.adjudicate_busy,
            sink_busy: self.stats.sink_busy,
            live_clients: self
                .worker_evict
                .iter()
                .map(|e| e.live_clients)
                .max()
                .unwrap_or(0),
            live_clients_aggregate: self.worker_evict.iter().map(|e| e.live_clients).sum(),
            max_live_clients: self.stats.max_live_clients,
            evicted_clients: self.worker_evict.iter().map(|e| e.evicted_clients).sum(),
            triage_escalations: triage.escalations,
            triage_suppressed_entries: triage.suppressed,
            triage_replayed_entries: triage.replayed,
            triage_spilled_entries: triage.spilled,
            drift_alarms: self.stats.drift_alarms,
            deadline_flushes: self.stats.deadline_flushes,
            idle_flushes: self.stats.idle_flushes,
            max_buffered_age_us: u64::try_from(self.stats.max_buffered_age.as_micros())
                .unwrap_or(u64::MAX),
        }
    }

    /// Feeds one owned entry: its canonical line (`entry.to_string()`)
    /// is rendered into the pipeline's current entry arena and parsed
    /// there, exactly as [`push_line`](Self::push_line) would parse that
    /// text. Submits a chunk to the pool if the arena is full; blocks
    /// (backpressure) when a chunk must be submitted and either a target
    /// worker's job queue is full or the number of in-flight chunks has
    /// reached `workers × queue_depth + 1`.
    ///
    /// # Panics
    ///
    /// Panics, naming the entry's feed-order index and the parse error,
    /// when the entry does not survive its own rendering —
    /// [`LogEntryBuilder`](divscrape_httplog::LogEntryBuilder) validates
    /// no text, so e.g. a space in `ident` or a bare `"` in the referrer
    /// yields an entry whose line does not re-parse. Every entry that
    /// came out of [`LogEntry::parse`] or the traffic generator is fine.
    pub fn push(&mut self, entry: LogEntry) {
        self.push_entry(&entry);
    }

    /// Feeds one raw Combined Log Format line, parsed **in place** into
    /// the pipeline's current entry arena. The line text is copied once
    /// into the arena's contiguous buffer and never again: detectors
    /// observe it through borrowed
    /// [`EntryRef`](divscrape_httplog::EntryRef) views, and the one
    /// owned [`LogEntry`] sinks and the label oracle are shown is
    /// re-assembled from the parse's metadata at finalization, only for
    /// the positions they consume. Arenas are recycled after
    /// finalization, so steady-state ingestion performs no per-entry
    /// heap allocation.
    ///
    /// Verdicts are bit-identical to parsing the line yourself and
    /// calling [`push`](Self::push) — both land in the same arena
    /// through one parser — and the two can be mixed freely on one
    /// stream (feed order is preserved, no chunk boundary is forced).
    /// Blocks exactly like `push` when a chunk must be submitted against
    /// a saturated pool.
    ///
    /// A trailing `"\n"`/`"\r\n"` is accepted and ignored.
    ///
    /// ```
    /// use divscrape_detect::{Arcane, Sentinel};
    /// use divscrape_pipeline::PipelineBuilder;
    ///
    /// let mut pipeline = PipelineBuilder::new()
    ///     .detector(Sentinel::stock())
    ///     .detector(Arcane::stock())
    ///     .build()
    ///     .map_err(|e| e.to_string())?;
    /// let line = r#"198.51.100.7 - - [11/Mar/2018:06:25:14 +0000] "GET /search HTTP/1.1" 200 5123 "-" "curl/7.58.0""#;
    /// pipeline.push_line(line).map_err(|e| e.to_string())?;
    /// assert!(pipeline.push_line("not a log line").is_err());
    /// let report = pipeline.drain();
    /// assert_eq!(report.requests(), 1); // the malformed line never entered
    /// # Ok::<(), String>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns the parse error for a malformed line; nothing is stored
    /// and the stream is unaffected — identical accept/reject behavior
    /// to [`LogEntry::parse`].
    pub fn push_line(&mut self, line: &str) -> Result<(), ParseLogError> {
        self.block.push_line(line)?;
        self.after_push();
        Ok(())
    }

    /// Feeds a batch of entries, submitting chunks as they fill. Any
    /// chunking of a log — including one entry at a time — yields
    /// identical verdicts. The batch is consumed one chunk at a time
    /// (render a chunk's worth into the arena, submit, repeat), so
    /// entries held by the pipeline stay bounded by the configured chunk
    /// capacity and queue depths regardless of the batch size — a batch
    /// larger than the in-flight budget simply blocks in here
    /// (backpressure) while the caller's slice is read in place.
    ///
    /// # Panics
    ///
    /// Panics at the first entry that does not survive its own
    /// rendering (see [`push`](Self::push)); the entries before it have
    /// been accepted.
    pub fn push_batch(&mut self, entries: &[LogEntry]) {
        for entry in entries {
            self.push_entry(entry);
        }
    }

    /// Appends one owned entry to the arena, submitting it when full.
    fn push_entry(&mut self, entry: &LogEntry) {
        if let Err(error) = self.block.push_entry(entry) {
            panic!(
                "entry {} does not survive its own rendering ({error}): `{entry}`",
                self.requests_seen()
            );
        }
        self.after_push();
    }

    /// The flush policy's per-push step: submit the arena when it is
    /// full or — at the amortised clock cadence — when its oldest entry
    /// has reached the deadline; at the same cadence, collect whatever
    /// the pool has finished.
    #[inline]
    fn after_push(&mut self) {
        let buffered = self.block.len();
        if buffered >= self.chunk_capacity {
            self.flush();
            return;
        }
        match self.flush_clock.pushed(buffered) {
            Cadence::Skip => {}
            Cadence::Tick => self.collect_finished(),
            Cadence::Due => self.flush_overdue(),
        }
    }

    /// Submits a residue whose oldest entry reached the deadline.
    fn flush_overdue(&mut self) {
        self.stats.deadline_flushes += 1;
        self.flush();
    }

    /// Processes anything still buffered or in flight and returns
    /// everything accumulated since construction (or the previous
    /// drain).
    ///
    /// Detector state is untouched — the stream can keep going, and
    /// subsequent reports continue from the same per-client evidence.
    ///
    /// The final partial chunk is processed exactly like a full one:
    /// client-sharded across the pool, with workers whose shard is empty
    /// (fewer distinct clients than workers — common at the tail of a
    /// stream) simply not participating. An idle worker cannot change
    /// any verdict, because verdicts only depend on per-client state and
    /// every client's entries still reach its owning worker in feed
    /// order.
    pub fn drain(&mut self) -> PipelineReport {
        self.flush();
        self.wait_for_inflight();
        // A rule change requested after the last pushed entry has no
        // chunk left to gate on: install it now, at the stream's end,
        // so a drained pipeline's stats and recorded schedule always
        // reflect every `set_adjudication` call (entries pushed after
        // this drain are adjudicated under it, exactly as requested).
        self.install_due_rules(self.next_seq);
        // Every alert of the drained stream has been delivered; give
        // buffering sinks (files, sockets) the chance to make it
        // durable before the caller observes the report.
        for sink in &mut self.sinks {
            sink.flush();
        }
        let combined = self.acc_combined.take().renamed(self.rule.label());
        let members = self.acc_members.iter_mut().map(AlertVector::take).collect();
        PipelineReport { combined, members }
    }

    /// Clears all state: detector evidence, buffered entries, accumulated
    /// results, the feed-order counter and the recorded rule-update
    /// schedule. Sinks are kept but see a fresh stream. Configuration
    /// persists: the currently installed adjudication rule (including
    /// recalibrated weights) and eviction policy carry over, and a
    /// configured recalibrator restarts from that rule with its evidence
    /// cleared.
    ///
    /// Chunks already submitted to the pool are finalized first (their
    /// sinks fire, as they would have at flush time in a synchronous
    /// engine); buffered-but-unsubmitted entries are discarded, and any
    /// rule change still queued behind them is applied immediately.
    pub fn reset(&mut self) {
        self.wait_for_inflight();
        // Queued-but-ungated rule installs take effect now: the operator
        // asked for them before the reset, and the stream they were
        // ordered against is gone. (The schedule records they produce
        // are cleared with the rest of the telemetry below.)
        self.install_due_rules(self.next_seq);
        self.schedule.clear();
        if let Some(recal) = &self.recalib {
            self.recalib = Some(
                self.rule
                    .recalibrator(recal.policy().clone())
                    .expect("policy validated at build time"),
            );
        }
        if let Some(ctrl) = &self.thresholds {
            self.thresholds = Some(
                ThresholdController::new(ctrl.policy().clone())
                    .expect("policy validated at build time"),
            );
        }
        if let Some(crew) = &mut self.inline_crew {
            for det in crew {
                det.reset();
            }
        }
        for worker in &self.workers {
            worker
                .jobs
                .as_ref()
                .expect("worker pool running")
                .send(Job::Reset)
                .expect("pipeline worker thread died");
        }
        if let Some(stage) = &mut self.triage {
            stage.reset();
        }
        // The stream restarts under whatever rule is installed now.
        self.initial_rule = self.rule.clone();
        self.block.clear();
        self.flush_clock.clear();
        self.acc_combined.refill([]);
        for acc in &mut self.acc_members {
            acc.refill([]);
        }
        self.next_seq = 0;
        self.submitted = 0;
        self.finalized = 0;
        self.stats = StatCounters::default();
        self.worker_evict = vec![EvictionStats::default(); self.worker_evict.len()];
    }

    /// An explicit chunk boundary: submits whatever is buffered to the
    /// detectors now — without waiting for the arena to fill, the driver
    /// to go idle or the [`max_delay`](crate::PipelineBuilder::max_delay)
    /// deadline — and finalizes every chunk that is ready (adjudication,
    /// sinks' `on_alert`/`on_entry`). It does **not** wait for chunks
    /// still in flight on the pool (a later [`poll`](Self::poll), push or
    /// [`drain`](Self::drain) collects them) and never calls
    /// [`AlertSink::flush`]: durability stays `drain`'s barrier.
    ///
    /// Every push flavor, the idle submit ([`poll`](Self::poll)), the
    /// deadline, `drain`, `set_eviction` and `set_adjudication` go
    /// through this one boundary. What a boundary may and may not change
    /// is listed at [`max_delay`](crate::PipelineBuilder::max_delay).
    ///
    /// ```
    /// use divscrape_detect::Sentinel;
    /// use divscrape_pipeline::PipelineBuilder;
    ///
    /// let mut pipeline = PipelineBuilder::new()
    ///     .detector(Sentinel::stock())
    ///     .build()
    ///     .map_err(|e| e.to_string())?;
    /// let line = r#"198.51.100.7 - - [11/Mar/2018:06:25:14 +0000] "GET /search HTTP/1.1" 200 5123 "-" "curl/7.58.0""#;
    /// pipeline.push_line(line).map_err(|e| e.to_string())?;
    /// assert_eq!(pipeline.pending(), 1);
    /// pipeline.flush();
    /// // Adjudicated, sinks fired; the report still waits for `drain`.
    /// assert_eq!(pipeline.pending(), 0);
    /// assert_eq!(pipeline.stats().entries_processed, 1);
    /// assert_eq!(pipeline.drain().requests(), 1);
    /// # Ok::<(), String>(())
    /// ```
    pub fn flush(&mut self) {
        if self.block.is_empty() {
            self.collect_finished();
            return;
        }
        let age = self.flush_clock.clear();
        self.stats.max_buffered_age = self.stats.max_buffered_age.max(age);
        let fresh = self.block_pool.pop().unwrap_or_default();
        let block = std::mem::replace(&mut self.block, fresh);
        self.submit_block(Arc::new(block));
    }

    /// Group commit, for callers that own a wait: a driver calls this
    /// when its input has run dry, just before it parks on that input
    /// (the service plane's shard drivers and the ingest driver's source
    /// loop do, through [`park_for`](Self::park_for)).
    ///
    /// Submits whatever the arena holds — the entries that arrived while
    /// the previous chunk ran become the next chunk — collects and
    /// finalizes whatever the pool has finished, and returns how soon it
    /// wants to be called again: a short collection interval while chunks
    /// are in flight on the pool (their results come back over a channel
    /// the caller's own wait cannot see), `None` otherwise (park as long
    /// as you like — nothing is left behind).
    ///
    /// Latency at a trickle is then the cost of the work, not a policy:
    /// an entry waits for the lines queued with it, never for a clock.
    /// [`max_delay`](crate::PipelineBuilder::max_delay) still bounds a
    /// caller that pushes and never parks; it plays no part here.
    ///
    /// ```
    /// use std::time::Duration;
    /// use divscrape_detect::Sentinel;
    /// use divscrape_pipeline::PipelineBuilder;
    ///
    /// let mut pipeline = PipelineBuilder::new()
    ///     .detector(Sentinel::stock())
    ///     .max_delay(Duration::from_millis(2))
    ///     .build()
    ///     .map_err(|e| e.to_string())?;
    /// assert_eq!(pipeline.poll(), None); // nothing buffered
    /// let line = r#"198.51.100.7 - - [11/Mar/2018:06:25:14 +0000] "GET / HTTP/1.1" 200 5 "-" "curl/7.58.0""#;
    /// pipeline.push_line(line).map_err(|e| e.to_string())?;
    /// // The source went quiet: wait as `poll` says, then poll again.
    /// while let Some(wait) = pipeline.poll() {
    ///     std::thread::sleep(wait);
    /// }
    /// assert_eq!(pipeline.stats().entries_processed, 1);
    /// assert!(pipeline.stats().idle_flushes >= 1);
    /// # Ok::<(), String>(())
    /// ```
    pub fn poll(&mut self) -> Option<Duration> {
        if !self.block.is_empty() {
            self.stats.idle_flushes += 1;
        }
        self.flush();
        (!self.inflight.is_empty()).then_some(COLLECT_INTERVAL)
    }

    /// [`poll`](Self::poll) as a driver's wait: submits what is buffered
    /// and returns how long to park on the input — the driver's own
    /// `tick`, or less while chunks are in flight on the pool.
    pub fn park_for(&mut self, tick: Duration) -> Duration {
        self.poll().map_or(tick, |collect| collect.min(tick))
    }

    /// Hard cap on chunks in flight. Per-worker queues alone do not
    /// bound the reorder buffer: fast workers could complete chunk after
    /// chunk behind one slow chunk that blocks in-order finalization,
    /// all of them parked in the buffer. The global cap closes that
    /// hole: at most `workers × queue_depth + 1` chunks are in flight,
    /// on top of the (≤ one-chunk) ingest buffer.
    pub(crate) fn inflight_cap(&self) -> usize {
        self.workers.len() * self.queue_depth + 1
    }

    /// Ships one chunk to the pool: client-shards it, enqueues a job per
    /// participating worker (blocking on full queues or a full reorder
    /// buffer — this is where backpressure bites) and opportunistically
    /// finalizes any chunks whose results are already back.
    fn submit_block(&mut self, block: Arc<EntryBlock>) {
        debug_assert!(!block.is_empty(), "never submit an empty chunk");
        // Triage runs serially on the driver, in feed order, before
        // sharding — so a client's escalation point is a deterministic
        // function of its stream position, independent of worker count.
        let plan = self.triage_chunk(&block);
        // Single-worker pipelines run the chunk inline on the driver:
        // maximal backpressure, zero handoff.
        if self.inline_crew.is_some() {
            self.process_chunk_inline(block, plan);
            return;
        }
        // Backpressure, part one: keep the reorder buffer at or under
        // the cap. The oldest in-flight chunk always has an outstanding
        // worker job (anything complete and in order was finalized when
        // its last result was applied), so a result is always coming.
        while self.inflight.len() >= self.inflight_cap() {
            let result = self.next_result();
            self.apply_result(result);
            self.finalize_ready();
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let n = block.len();
        let n_detectors = self.votes.len();
        let shard_count = self.workers.len();

        // A chunk wholly owned by one worker (single-worker pool, or all
        // clients hashing to one shard) skips the index bookkeeping: the
        // worker runs the plain batch path and returns in-order columns.
        // Triaged chunks always carry explicit (live-only) indices, so
        // suppressed positions are simply never assigned to any shard.
        let jobs: Vec<(usize, Option<Vec<usize>>, Vec<ReplayLoad>)> = if let Some(plan) = plan {
            let mut shards: Vec<Vec<usize>> = vec![Vec::new(); shard_count];
            for i in 0..n {
                if !plan.mask[i] {
                    let key = block.view(i).client_key();
                    shards[Sessionizer::shard_of(&key, shard_count)].push(i);
                }
            }
            // A replay load always reaches the worker that owns its
            // client: the escalating entry is live in this very chunk.
            let mut shard_loads: Vec<Vec<ReplayLoad>> =
                (0..shard_count).map(|_| Vec::new()).collect();
            for load in plan.loads {
                shard_loads[Sessionizer::shard_of(&load.key, shard_count)].push(load);
            }
            shards
                .into_iter()
                .zip(shard_loads)
                .enumerate()
                .filter(|(_, (shard, loads))| !shard.is_empty() || !loads.is_empty())
                .map(|(worker, (shard, loads))| (worker, Some(shard), loads))
                .collect()
        } else if shard_count == 1 {
            vec![(0, None, Vec::new())]
        } else {
            let mut shards: Vec<Vec<usize>> = vec![Vec::new(); shard_count];
            for i in 0..n {
                let key = block.view(i).client_key();
                shards[Sessionizer::shard_of(&key, shard_count)].push(i);
            }
            if shards.iter().filter(|shard| !shard.is_empty()).count() == 1 {
                let owner = shards.iter().position(|shard| !shard.is_empty()).unwrap();
                vec![(owner, None, Vec::new())]
            } else {
                shards
                    .into_iter()
                    .enumerate()
                    .filter(|(_, shard)| !shard.is_empty())
                    .map(|(worker, shard)| (worker, Some(shard), Vec::new()))
                    .collect()
            }
        };
        let columns = if matches!(jobs.as_slice(), [(_, None, _)]) {
            Vec::new() // replaced wholesale by the whole-chunk result
        } else {
            // Also covers triaged chunks: suppressed positions keep this
            // CLEAR pre-initialization (a fully suppressed chunk has no
            // jobs at all and finalizes as all-CLEAR).
            vec![vec![Verdict::CLEAR; n]; n_detectors]
        };
        self.inflight.insert(
            seq,
            PendingChunk {
                block: Arc::clone(&block),
                awaiting: jobs.len(),
                columns,
                retro: Vec::new(),
            },
        );
        self.submitted += n as u64;
        self.stats.max_inflight = self.stats.max_inflight.max(self.inflight.len());

        for (worker, indices, replays) in jobs {
            let mut job = Job::Chunk {
                seq,
                block: Arc::clone(&block),
                indices,
                replays,
            };
            loop {
                let sender = self.workers[worker].jobs.as_ref().expect("pool running");
                match sender.try_send(job) {
                    Ok(()) => break,
                    Err(TrySendError::Full(returned)) => {
                        // Backpressure: the worker's queue is full. Absorb
                        // a finished result if one arrives, but retry the
                        // send either way — a full queue usually means
                        // chunk work is outstanding, but it can also hold
                        // result-less `Job::Reset` entries, so blocking
                        // for a result here could wait forever.
                        job = returned;
                        if let Some(result) = self.poll_result() {
                            self.apply_result(result);
                        }
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        panic!("pipeline worker thread died")
                    }
                }
            }
        }

        self.collect_finished();
    }

    /// Absorbs whatever the pool has already finished and finalizes in
    /// feed order, without blocking.
    fn collect_finished(&mut self) {
        if self.inflight.is_empty() {
            return;
        }
        while let Ok(result) = self.results.try_recv() {
            self.apply_result(result);
        }
        self.finalize_ready();
    }

    /// Runs the triage stage over one chunk, in feed order, before it is
    /// sharded. Returns the suppression mask and replay loads, or `None`
    /// when every entry should process normally.
    fn triage_chunk(&mut self, block: &EntryBlock) -> Option<TriagePlan> {
        let base = self.submitted;
        let stage = self.triage.as_mut()?;
        let mut mask = vec![false; block.len()];
        let mut suppressed = 0usize;
        let mut loads = Vec::new();
        for (i, masked) in mask.iter_mut().enumerate() {
            let index = base + i as u64;
            // A buffered line re-parses to the view the detectors would
            // have seen live: it is the arena text that view borrows.
            match stage.admit(&block.view(i), index, block.line(i)) {
                EntryAction::Process => {}
                EntryAction::Suppress => {
                    *masked = true;
                    suppressed += 1;
                }
                EntryAction::Replay(mut load) => {
                    // The escalating entry itself runs live at chunk
                    // position `i`; the load replays right before it.
                    load.trigger_pos = i;
                    loads.push(load);
                }
            }
        }
        if suppressed == 0 && loads.is_empty() {
            return None;
        }
        Some(TriagePlan { mask, loads })
    }

    /// Runs one chunk through the inline crew on the driver thread and
    /// finalizes it immediately — the single-worker execution path.
    fn process_chunk_inline(&mut self, block: Arc<EntryBlock>, plan: Option<TriagePlan>) {
        let started = Instant::now();
        let crew = self.inline_crew.as_mut().expect("inline pipeline");
        let n = block.len();
        let n_detectors = self.votes.len();
        let (columns, retro) = match plan {
            None => {
                let columns = match run_shard(crew, &block, None) {
                    ShardColumns::Whole(columns) => columns,
                    ShardColumns::Pairs(_) => unreachable!("unsharded run returns whole columns"),
                };
                (columns, Vec::new())
            }
            Some(plan) => {
                let live: Vec<usize> = (0..n).filter(|&i| !plan.mask[i]).collect();
                let mut columns = vec![vec![Verdict::CLEAR; n]; n_detectors];
                let (shard, retro) = run_shard_with_replays(crew, &block, Some(&live), plan.loads);
                match shard {
                    ShardColumns::Pairs(per_detector) => {
                        for (det, pairs) in per_detector.into_iter().enumerate() {
                            for (i, v) in pairs {
                                columns[det][i] = v;
                            }
                        }
                    }
                    ShardColumns::Whole(whole) => columns = whole,
                }
                (columns, retro)
            }
        };
        let evict = EvictionStats::merge_all(crew.iter().map(|det| det.eviction_stats()));
        self.stats.detect_busy += started.elapsed();
        self.stats.max_live_clients = self.stats.max_live_clients.max(evict.live_clients);
        self.worker_evict[0] = evict;
        self.submitted += n as u64;
        // Inline chunks share the pool's sequence numbering so rule
        // installs queued by `set_adjudication` gate identically.
        let seq = self.next_seq;
        self.next_seq += 1;
        self.finalize(
            seq,
            PendingChunk {
                block,
                awaiting: 0,
                columns,
                retro,
            },
        );
    }

    /// Waits briefly for a worker result, detecting dead workers.
    /// Returns `None` on a quiet timeout so the caller can retry
    /// whatever it was blocked on.
    fn poll_result(&mut self) -> Option<WorkerResult> {
        match self.results.recv_timeout(Duration::from_millis(5)) {
            Ok(result) => Some(result),
            Err(RecvTimeoutError::Timeout) => {
                let dead = self
                    .workers
                    .iter()
                    .any(|w| w.thread.as_ref().is_some_and(|t| t.is_finished()));
                assert!(!dead, "pipeline worker thread died");
                None
            }
            Err(RecvTimeoutError::Disconnected) => {
                panic!("all pipeline worker threads died")
            }
        }
    }

    /// Blocks for the next worker result, detecting dead workers instead
    /// of hanging. Only sound while a chunk job is outstanding (a result
    /// is guaranteed to arrive).
    fn next_result(&mut self) -> WorkerResult {
        loop {
            if let Some(result) = self.poll_result() {
                return result;
            }
        }
    }

    /// Merges one worker result into its pending chunk and updates the
    /// pool telemetry.
    fn apply_result(&mut self, result: WorkerResult) {
        self.stats.detect_busy += result.busy;
        self.stats.max_live_clients = self.stats.max_live_clients.max(result.evict.live_clients);
        self.worker_evict[result.worker] = result.evict;
        let pending = self
            .inflight
            .get_mut(&result.seq)
            .expect("result for unknown chunk");
        pending.retro.extend(result.retro);
        match result.columns {
            ShardColumns::Whole(columns) => {
                debug_assert_eq!(pending.awaiting, 1, "whole-chunk result shares a chunk");
                pending.columns = columns;
            }
            ShardColumns::Pairs(per_detector) => {
                for (det, pairs) in per_detector.into_iter().enumerate() {
                    for (i, v) in pairs {
                        pending.columns[det][i] = v;
                    }
                }
            }
        }
        pending.awaiting -= 1;
    }

    /// Finalizes every chunk that is complete and next in feed order.
    fn finalize_ready(&mut self) {
        while let Some(entry) = self.inflight.first_entry() {
            if entry.get().awaiting > 0 {
                break;
            }
            let seq = *entry.key();
            let pending = entry.remove();
            self.finalize(seq, pending);
        }
    }

    /// Blocks until every in-flight chunk is finalized.
    fn wait_for_inflight(&mut self) {
        self.finalize_ready();
        while !self.inflight.is_empty() {
            let result = self.next_result();
            self.apply_result(result);
            self.finalize_ready();
        }
    }
}

impl Drop for Pipeline {
    /// Disconnects the job queues (workers exit after finishing what is
    /// already queued) and joins the pool.
    fn drop(&mut self) {
        for worker in &mut self.workers {
            worker.jobs.take();
        }
        for worker in &mut self.workers {
            if let Some(thread) = worker.thread.take() {
                let _ = thread.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Adjudication, CollectingSink, CountingSink, PipelineBuilder};
    use divscrape_detect::baselines::RateLimiter;
    use divscrape_detect::{run_alerts, Arcane, Sentinel, TriageDecision};
    use divscrape_ensemble::KOutOfN;
    use divscrape_traffic::{generate, ScenarioConfig};

    fn offline_kofn(log: &divscrape_traffic::LabelledLog, k: u32) -> Vec<bool> {
        let sentinel = AlertVector::from_bools(
            "sentinel",
            &run_alerts(&mut Sentinel::stock(), log.entries()),
        );
        let arcane =
            AlertVector::from_bools("arcane", &run_alerts(&mut Arcane::stock(), log.entries()));
        KOutOfN::new(k, 2)
            .unwrap()
            .apply(&[&sentinel, &arcane])
            .to_bools()
    }

    #[test]
    fn matches_the_offline_path_for_both_vote_rules() {
        let log = generate(&ScenarioConfig::tiny(11)).unwrap();
        for k in 1..=2u32 {
            let mut pipeline = PipelineBuilder::new()
                .detector(Sentinel::stock())
                .detector(Arcane::stock())
                .adjudication(Adjudication::k_of_n(k))
                .build()
                .unwrap();
            pipeline.push_batch(log.entries());
            let report = pipeline.drain();
            assert_eq!(report.combined.to_bools(), offline_kofn(&log, k), "k={k}");
            assert_eq!(report.requests(), log.len());
        }
    }

    #[test]
    fn single_entry_pushes_and_tiny_chunks_change_nothing() {
        let log = generate(&ScenarioConfig::tiny(12)).unwrap();
        let expected = offline_kofn(&log, 1);
        let mut pipeline = PipelineBuilder::new()
            .detector(Sentinel::stock())
            .detector(Arcane::stock())
            .chunk_capacity(7)
            .build()
            .unwrap();
        for e in log.entries() {
            pipeline.push(e.clone());
        }
        assert_eq!(pipeline.drain().combined.to_bools(), expected);
    }

    #[test]
    fn weighted_rule_runs_online() {
        let log = generate(&ScenarioConfig::tiny(13)).unwrap();
        let mut pipeline = PipelineBuilder::new()
            .detector(Sentinel::stock())
            .detector(Arcane::stock())
            .adjudication(Adjudication::weighted(vec![1.0, 1.0], 2.0))
            .build()
            .unwrap();
        pipeline.push_batch(log.entries());
        let report = pipeline.drain();
        // Unit weights with threshold 2 is exactly 2-out-of-2.
        assert_eq!(report.combined.to_bools(), offline_kofn(&log, 2));
        assert_eq!(report.combined.name(), "weighted");
    }

    #[test]
    fn drain_is_incremental_and_state_persists() {
        let log = generate(&ScenarioConfig::tiny(14)).unwrap();
        let expected = offline_kofn(&log, 1);
        let mut pipeline = PipelineBuilder::new()
            .detector(Sentinel::stock())
            .detector(Arcane::stock())
            .build()
            .unwrap();
        let (a, b) = log.entries().split_at(log.len() / 3);
        pipeline.push_batch(a);
        let first = pipeline.drain();
        pipeline.push_batch(b);
        let second = pipeline.drain();
        let mut all = first.combined.to_bools();
        all.extend(second.combined.to_bools());
        // Two drains still cover one continuous stream: detector evidence
        // carried across the drain boundary.
        assert_eq!(all, expected);
        assert_eq!(pipeline.requests_seen(), log.len() as u64);
    }

    #[test]
    fn the_word_accumulators_take_chunks_at_any_bit_offset() {
        // 257-entry chunks append at offsets that are never a multiple
        // of 64; 4,096-entry chunks always do. Same report either way —
        // vector equality covers the tail bits beyond `len` too.
        let log = generate(&ScenarioConfig::tiny(33)).unwrap();
        let run = |chunk: usize| {
            let mut pipeline = PipelineBuilder::new()
                .detector(Sentinel::stock())
                .detector(Arcane::stock())
                .detector(RateLimiter::new(40))
                .adjudication(Adjudication::k_of_n(2))
                .chunk_capacity(chunk)
                .max_delay(Duration::MAX) // fill-only: pins the offsets
                .build()
                .unwrap();
            pipeline.push_batch(log.entries());
            pipeline.drain()
        };
        let (small, large) = (run(257), run(4_096));
        assert_eq!(small.requests(), log.len());
        assert!(small.combined.count() > 0, "bot-heavy traffic must alert");
        assert_eq!(small.combined, large.combined);
        assert_eq!(small.members, large.members);
    }

    /// Suppresses each client's first `after - 1` entries, then
    /// escalates: a deliberately weak filter, so replayed history
    /// routinely carries verdicts that alert.
    #[derive(Debug, Clone)]
    struct Fuse {
        after: u64,
        seen: std::collections::HashMap<(std::net::Ipv4Addr, u64), u64>,
    }

    impl divscrape_detect::TriageFilter for Fuse {
        fn name(&self) -> &str {
            "fuse"
        }
        fn classify(&mut self, entry: &divscrape_httplog::EntryRef<'_>) -> TriageDecision {
            let seen = self.seen.entry(entry.client_key()).or_insert(0);
            *seen += 1;
            match (*seen).cmp(&self.after) {
                std::cmp::Ordering::Less => TriageDecision::Benign,
                std::cmp::Ordering::Equal => TriageDecision::Escalate,
                std::cmp::Ordering::Greater => TriageDecision::Escalated,
            }
        }
        fn reset(&mut self) {
            self.seen.clear();
        }
        fn set_eviction(&mut self, _cfg: EvictionConfig) {}
        fn eviction_stats(&self) -> EvictionStats {
            EvictionStats::default()
        }
        fn clone_boxed(&self) -> Box<dyn divscrape_detect::TriageFilter> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn a_replayed_verdict_patches_the_right_bit_after_a_mid_stream_drain() {
        // A drain moves the accumulated words out and restarts them at
        // a stream position that is no multiple of 64; escalations after
        // it replay history from earlier chunks of the new window, whose
        // alerting verdicts are patched in bit by bit. Nothing spills,
        // so the triage-off run is the reference for every bit the
        // second drain reports.
        let log = generate(&ScenarioConfig::tiny(77)).unwrap();
        let mid = log.len() / 3 + 7;
        let build = |triage: bool, sink: CountingSink| {
            let mut builder = PipelineBuilder::new()
                .detector(Sentinel::stock())
                .detector(Arcane::stock())
                .sink(sink)
                .chunk_capacity(17)
                .max_delay(Duration::MAX);
            if triage {
                builder = builder.triage(divscrape_detect::TriagePolicy::custom(Fuse {
                    after: 25,
                    seen: Default::default(),
                }));
            }
            builder.build().unwrap()
        };
        let mut reference = build(false, CountingSink::new());
        reference.push_batch(log.entries());
        let reference = reference.drain();

        let counter = CountingSink::new();
        let delivered = counter.handle();
        let mut pipeline = build(true, counter);
        pipeline.push_batch(&log.entries()[..mid]);
        let first = pipeline.drain();
        pipeline.push_batch(&log.entries()[mid..]);
        let second = pipeline.drain();
        assert_eq!(pipeline.stats().triage_spilled_entries, 0);

        assert_eq!(first.requests(), mid);
        assert_eq!(
            second.combined.to_bools(),
            reference.combined.to_bools()[mid..]
        );
        for (got, want) in second.members.iter().zip(&reference.members) {
            assert_eq!(got.to_bools(), want.to_bools()[mid..], "{}", got.name());
        }
        // What a patch after the drain added to the first window went
        // to the sinks only; what the first drain did report is right.
        assert!(first
            .combined
            .iter_alerted()
            .all(|i| reference.combined.get(i)));
        assert_eq!(
            delivered.load(std::sync::atomic::Ordering::Relaxed),
            reference.combined.count(),
            "every alert is delivered once, on time or late"
        );
    }

    #[test]
    fn sinks_fire_once_per_adjudicated_alert_in_feed_order() {
        let log = generate(&ScenarioConfig::tiny(15)).unwrap();
        let counter = CountingSink::new();
        let count = counter.handle();
        let collector = CollectingSink::new();
        let indices = collector.handle();
        let mut pipeline = PipelineBuilder::new()
            .detector(Sentinel::stock())
            .detector(Arcane::stock())
            .sink(counter)
            .sink(collector)
            .chunk_capacity(113)
            .build()
            .unwrap();
        pipeline.push_batch(log.entries());
        let report = pipeline.drain();
        let expected: Vec<u64> = report
            .combined
            .to_bools()
            .iter()
            .enumerate()
            .filter(|(_, alert)| **alert)
            .map(|(i, _)| i as u64)
            .collect();
        assert_eq!(
            count.load(std::sync::atomic::Ordering::Relaxed),
            expected.len() as u64
        );
        assert_eq!(*indices.lock().unwrap(), expected);
        assert_eq!(pipeline.stats().alerts, expected.len() as u64);
    }

    #[test]
    fn closure_sinks_and_extra_members_compose() {
        let log = generate(&ScenarioConfig::tiny(16)).unwrap();
        let mut pipeline = PipelineBuilder::new()
            .detector(Sentinel::stock())
            .detector(Arcane::stock())
            .detector(RateLimiter::new(40))
            .adjudication(Adjudication::k_of_n(2))
            .build()
            .unwrap();
        pipeline.push_batch(log.entries());
        let report = pipeline.drain();
        assert_eq!(report.members.len(), 3);
        assert!(report.member("rate-limiter").is_some());
        assert!(report.member("nonsense").is_none());
    }

    #[test]
    fn reset_restarts_the_stream() {
        let log = generate(&ScenarioConfig::tiny(17)).unwrap();
        let mut pipeline = PipelineBuilder::new()
            .detector(Sentinel::stock())
            .detector(Arcane::stock())
            .build()
            .unwrap();
        pipeline.push_batch(log.entries());
        let first = pipeline.drain();
        pipeline.reset();
        assert_eq!(pipeline.requests_seen(), 0);
        pipeline.push_batch(log.entries());
        let second = pipeline.drain();
        assert_eq!(first.combined.to_bools(), second.combined.to_bools());
    }

    #[test]
    fn empty_drain_is_well_formed() {
        let mut pipeline = PipelineBuilder::new()
            .detector(Sentinel::stock())
            .build()
            .unwrap();
        let report = pipeline.drain();
        assert_eq!(report.requests(), 0);
        assert_eq!(report.members.len(), 1);
    }

    #[test]
    fn small_chunks_keep_memory_bounded_under_backpressure() {
        // A tiny chunk capacity with a deep feed forces many in-flight
        // submissions; the bounded queues must cap the reorder buffer at
        // workers × queue_depth + 1 chunks.
        let log = generate(&ScenarioConfig::tiny(18)).unwrap();
        let expected = offline_kofn(&log, 1);
        let mut pipeline = PipelineBuilder::new()
            .detector(Sentinel::stock())
            .detector(Arcane::stock())
            .workers(2)
            .queue_depth(1)
            .chunk_capacity(13)
            .build()
            .unwrap();
        pipeline.push_batch(log.entries());
        let bound = pipeline.worker_count() * pipeline.queue_depth() + 1;
        assert!(
            pipeline.stats().max_inflight_chunks <= bound,
            "inflight high-water {} exceeds bound {bound}",
            pipeline.stats().max_inflight_chunks
        );
        assert_eq!(pipeline.drain().combined.to_bools(), expected);
    }

    #[test]
    fn drain_flushes_partial_chunks_with_more_workers_than_clients() {
        // The boundary the clamp used to paper over: a final partial
        // chunk with fewer distinct clients than pool workers. Idle
        // workers must not change verdicts or lose entries.
        let log = generate(&ScenarioConfig::tiny(19)).unwrap();
        // A slice short enough to hold only a handful of clients.
        let few = &log.entries()[..5];
        let mut sequential = Sentinel::stock();
        let expected = run_alerts(&mut sequential, few);
        let mut pipeline = PipelineBuilder::new()
            .detector(Sentinel::stock())
            .workers(8)
            .chunk_capacity(4096) // never fills: everything is drain residue
            .max_delay(Duration::MAX) // and no deadline submits it early
            .build()
            .unwrap();
        pipeline.push_batch(few);
        assert_eq!(pipeline.pending(), few.len(), "all residue pre-drain");
        let report = pipeline.drain();
        assert_eq!(report.combined.to_bools(), expected);
        assert_eq!(report.requests(), few.len());
    }

    #[test]
    fn a_pool_pipeline_delivers_after_flush_and_polls_with_no_further_push() {
        // On the pool path a finished chunk used to be collected only by
        // the next submission. With a quiet source there is none:
        // `flush` ships the residue, `poll` alone must bring it home.
        let log = generate(&ScenarioConfig::tiny(32)).unwrap();
        let head = &log.entries()[..300];
        let expected = offline_kofn(&log, 1)[..300]
            .iter()
            .filter(|alert| **alert)
            .count() as u64;
        assert!(expected > 0, "the head of the log must alert");
        let counter = CountingSink::new();
        let count = counter.handle();
        let mut pipeline = PipelineBuilder::new()
            .detector(Sentinel::stock())
            .detector(Arcane::stock())
            .sink(counter)
            .workers(2)
            .max_delay(Duration::MAX) // only the explicit flush submits
            .build()
            .unwrap();
        pipeline.push_batch(head);
        assert_eq!(pipeline.stats().entries_processed, 0);
        pipeline.flush();
        assert_eq!(pipeline.pending(), 0);
        let mut polls = 0;
        while let Some(wait) = pipeline.poll() {
            polls += 1;
            assert!(polls < 10_000, "the pool never returned the chunk");
            assert!(wait <= COLLECT_INTERVAL);
            std::thread::sleep(wait);
        }
        let stats = pipeline.stats();
        assert_eq!(stats.entries_processed, 300);
        assert_eq!(stats.inflight_chunks, 0);
        assert_eq!(stats.deadline_flushes, 0);
        assert_eq!(
            stats.idle_flushes, 0,
            "`flush` shipped it; `poll` found nothing"
        );
        assert_eq!(count.load(std::sync::atomic::Ordering::Relaxed), expected);
    }

    #[test]
    fn stats_track_throughput_queue_depth_and_latency() {
        let log = generate(&ScenarioConfig::tiny(20)).unwrap();
        let mut pipeline = PipelineBuilder::new()
            .detector(Sentinel::stock())
            .detector(Arcane::stock())
            .workers(2)
            .chunk_capacity(100)
            // Pins a chunk count: fill-only.
            .max_delay(Duration::MAX)
            .build()
            .unwrap();
        assert_eq!(pipeline.stats(), PipelineStats::default());
        pipeline.push_batch(log.entries());
        let _ = pipeline.drain();
        let stats = pipeline.stats();
        assert_eq!(stats.entries_processed, log.len() as u64);
        assert_eq!(stats.entries_pending, 0);
        assert_eq!(stats.inflight_chunks, 0);
        assert_eq!(stats.chunks_processed, (log.len() as u64).div_ceil(100));
        assert!(stats.max_inflight_chunks >= 1);
        assert!(stats.detect_busy > Duration::ZERO);
        assert!(stats.alerts > 0, "bot-heavy traffic must alert");
        // No eviction configured: tables grow, nothing is evicted.
        assert!(stats.live_clients > 0);
        assert_eq!(stats.evicted_clients, 0);
        // Reset rewinds the telemetry.
        pipeline.reset();
        assert_eq!(pipeline.stats(), PipelineStats::default());
    }

    #[test]
    fn push_immediately_after_reset_does_not_deadlock() {
        // Regression: `reset` enqueues result-less `Job::Reset` entries;
        // with depth-1 queues a chunk submitted before the workers
        // dequeue them used to block forever waiting for a result that
        // could never come.
        let log = generate(&ScenarioConfig::tiny(22)).unwrap();
        let mut pipeline = PipelineBuilder::new()
            .detector(Sentinel::stock())
            .detector(Arcane::stock())
            .workers(2)
            .queue_depth(1)
            .chunk_capacity(11)
            .build()
            .unwrap();
        pipeline.push_batch(log.entries());
        let first = pipeline.drain();
        pipeline.reset();
        pipeline.push_batch(log.entries()); // races the queued Resets
        let second = pipeline.drain();
        assert_eq!(first.combined.to_bools(), second.combined.to_bools());
    }

    #[test]
    fn one_shot_batch_is_consumed_chunk_by_chunk() {
        // A batch far larger than the chunk capacity must not be staged
        // in the driver buffer wholesale; the buffer never exceeds one
        // chunk and the verdicts are unchanged.
        let log = generate(&ScenarioConfig::tiny(23)).unwrap();
        let expected = offline_kofn(&log, 1);
        let mut pipeline = PipelineBuilder::new()
            .detector(Sentinel::stock())
            .detector(Arcane::stock())
            .chunk_capacity(17)
            .build()
            .unwrap();
        pipeline.push_batch(log.entries()); // one shot, ~70 chunks
        assert!(
            pipeline.pending() < 17,
            "ingest buffer held {} entries, over a chunk",
            pipeline.pending()
        );
        assert_eq!(pipeline.drain().combined.to_bools(), expected);
    }

    #[test]
    #[should_panic(expected = "entry 3 does not survive its own rendering")]
    fn an_entry_that_does_not_survive_its_rendering_fails_at_the_push() {
        // The builder validates no text: a space in `ident` shifts every
        // later field of the rendered line. The offending push itself
        // must fail, not a triage replay or a sink read much later.
        let log = generate(&ScenarioConfig::tiny(31)).unwrap();
        let first = &log.entries()[0];
        let bad = LogEntry::builder()
            .addr(first.addr())
            .ident("two words")
            .timestamp(first.timestamp())
            .request(first.request().clone())
            .status(first.status())
            .build()
            .unwrap();
        let mut pipeline = PipelineBuilder::new()
            .detector(Sentinel::stock())
            .build()
            .unwrap();
        pipeline.push_batch(&log.entries()[..3]);
        pipeline.push(bad);
    }

    #[test]
    fn set_adjudication_applies_between_entries_never_mid_chunk() {
        // The rule swap lands mid-buffer (the chunk capacity is larger
        // than the whole log): entries pushed before it must adjudicate
        // under the old rule, entries after under the new one — the
        // buffered residue is flushed so no chunk straddles the change.
        let log = generate(&ScenarioConfig::tiny(24)).unwrap();
        let split = log.len() / 2;
        for workers in [1usize, 3] {
            let mut pipeline = PipelineBuilder::new()
                .detector(Sentinel::stock())
                .detector(Arcane::stock())
                .adjudication(Adjudication::k_of_n(1))
                .workers(workers)
                .chunk_capacity(100_000)
                .build()
                .unwrap();
            pipeline.push_batch(&log.entries()[..split]);
            pipeline.set_adjudication(Adjudication::k_of_n(2)).unwrap();
            pipeline.push_batch(&log.entries()[split..]);
            let report = pipeline.drain();
            let mut expected = offline_kofn(&log, 1)[..split].to_vec();
            expected.extend_from_slice(&offline_kofn(&log, 2)[split..]);
            assert_eq!(report.combined.to_bools(), expected, "workers={workers}");
            // The manual install is recorded in the schedule, at the
            // exact boundary, as its weighted equivalent.
            let schedule = pipeline.rule_updates();
            assert_eq!(schedule.len(), 1);
            assert_eq!(schedule[0].at_entry, split as u64);
            assert_eq!(schedule[0].weights, vec![1.0, 1.0]);
            assert_eq!(schedule[0].threshold, 2.0);
            assert_eq!(pipeline.stats().runtime_updates.adjudication, 1);
        }
    }

    #[test]
    fn rule_installed_after_the_last_entry_lands_at_drain() {
        // A swap requested at the very end of a stream has no chunk
        // left to gate on; drain() is its quiesce point. Stats and the
        // recorded schedule must reflect it, and entries pushed after
        // the drain adjudicate under it.
        let log = generate(&ScenarioConfig::tiny(30)).unwrap();
        for workers in [1usize, 2] {
            let mut pipeline = PipelineBuilder::new()
                .detector(Sentinel::stock())
                .detector(Arcane::stock())
                .workers(workers)
                .chunk_capacity(64)
                .build()
                .unwrap();
            pipeline.push_batch(log.entries());
            pipeline
                .set_adjudication(Adjudication::weighted(vec![2.0, 3.0], 5.0))
                .unwrap();
            let first = pipeline.drain();
            assert_eq!(first.combined.to_bools(), offline_kofn(&log, 1));
            let stats = pipeline.stats();
            assert_eq!(
                stats.current_weights,
                Some(vec![2.0, 3.0]),
                "workers={workers}"
            );
            assert_eq!(stats.runtime_updates.adjudication, 1);
            let schedule = pipeline.rule_updates();
            assert_eq!(schedule.len(), 1);
            assert_eq!(schedule[0].at_entry, log.len() as u64);
            // The installed rule (2 + 3 >= 5: unanimity) governs the
            // stream's continuation.
            pipeline.push_batch(log.entries());
            let second = pipeline.drain();
            assert_eq!(
                second.combined.to_bools().iter().filter(|a| **a).count(),
                second
                    .members
                    .iter()
                    .map(|m| m.to_bools())
                    .fold(None::<Vec<bool>>, |acc, m| Some(match acc {
                        None => m,
                        Some(acc) => acc.iter().zip(&m).map(|(a, b)| *a && *b).collect(),
                    }))
                    .unwrap()
                    .iter()
                    .filter(|a| **a)
                    .count(),
                "workers={workers}: continuation must run under unanimity"
            );
        }
    }

    #[test]
    fn invalid_runtime_rules_are_rejected_and_change_nothing() {
        let log = generate(&ScenarioConfig::tiny(25)).unwrap();
        let mut pipeline = PipelineBuilder::new()
            .detector(Sentinel::stock())
            .detector(Arcane::stock())
            .build()
            .unwrap();
        assert!(matches!(
            pipeline.set_adjudication(Adjudication::k_of_n(3)),
            Err(crate::BuildError::BadVoteCount { k: 3, n: 2 })
        ));
        assert!(matches!(
            pipeline.set_adjudication(Adjudication::weighted(vec![1.0], 1.0)),
            Err(crate::BuildError::BadWeights(_))
        ));
        pipeline.push_batch(log.entries());
        let report = pipeline.drain();
        assert_eq!(report.combined.to_bools(), offline_kofn(&log, 1));
        assert_eq!(pipeline.stats().runtime_updates.adjudication, 0);
    }

    #[test]
    fn runtime_updates_share_one_telemetry_path() {
        let log = generate(&ScenarioConfig::tiny(26)).unwrap();
        let mut pipeline = PipelineBuilder::new()
            .detector(Sentinel::stock())
            .detector(Arcane::stock())
            .workers(2)
            .build()
            .unwrap();
        assert_eq!(pipeline.stats().runtime_updates.total(), 0);
        pipeline.push_batch(log.entries());
        pipeline.set_eviction(EvictionConfig::ttl(3_600));
        pipeline
            .set_adjudication(Adjudication::weighted(vec![1.0, 1.0], 1.0))
            .unwrap();
        pipeline.push_batch(log.entries());
        let _ = pipeline.drain();
        let updates = pipeline.stats().runtime_updates;
        assert_eq!(updates.eviction, 1);
        assert_eq!(updates.adjudication, 1);
        assert_eq!(updates.total(), 2);
        // The installed weighted rule is visible to operators.
        let stats = pipeline.stats();
        assert_eq!(stats.current_weights, Some(vec![1.0, 1.0]));
        assert_eq!(stats.current_threshold, Some(1.0));
        // k-of-n rules expose no weights.
        pipeline.set_adjudication(Adjudication::k_of_n(1)).unwrap();
        pipeline.push(log.entries()[0].clone());
        let _ = pipeline.drain();
        assert_eq!(pipeline.stats().current_weights, None);
    }

    #[test]
    fn recalibration_derives_updates_at_chunk_boundaries_only() {
        use divscrape_ensemble::RecalibrationPolicy;
        let log = generate(&ScenarioConfig::tiny(27)).unwrap();
        let chunk = 64usize;
        let mut pipeline = PipelineBuilder::new()
            .detector(Sentinel::stock())
            .detector(Arcane::stock())
            .detector(RateLimiter::new(20))
            .adjudication(Adjudication::weighted(vec![1.0, 1.0, 1.0], 1.0))
            // A cadence far below the chunk size: updates must still
            // land only at chunk boundaries, never mid-chunk.
            .recalibration(RecalibrationPolicy::new().window(32).update_every(17))
            .chunk_capacity(chunk)
            // Pins where the boundaries fall: fill-only.
            .max_delay(Duration::MAX)
            .build()
            .unwrap();
        pipeline.push_batch(log.entries());
        let _ = pipeline.drain();
        let schedule = pipeline.rule_updates().to_vec();
        assert!(!schedule.is_empty(), "bot-heavy traffic must drive updates");
        for update in &schedule {
            assert!(
                (update.at_entry as usize).is_multiple_of(chunk)
                    || update.at_entry as usize == log.len(),
                "update at {} not on a chunk boundary",
                update.at_entry
            );
            assert_eq!(update.weights.len(), 3);
        }
        let stats = pipeline.stats();
        assert_eq!(stats.runtime_updates.adjudication, schedule.len() as u64);
        assert_eq!(
            stats.current_weights.as_deref(),
            Some(schedule.last().unwrap().weights.as_slice())
        );
        let recal = pipeline.recalibrator().unwrap();
        assert_eq!(recal.entries_observed(), log.len() as u64);
        assert_eq!(recal.updates(), schedule.len() as u64);
    }

    #[test]
    fn frozen_recalibrators_hold_weights_still() {
        use divscrape_ensemble::RecalibrationPolicy;
        let log = generate(&ScenarioConfig::tiny(28)).unwrap();
        let mut pipeline = PipelineBuilder::new()
            .detector(Sentinel::stock())
            .detector(Arcane::stock())
            .adjudication(Adjudication::weighted(vec![1.0, 1.0], 1.0))
            .recalibration(
                RecalibrationPolicy::new()
                    .window(32)
                    .update_every(50)
                    .freeze(true),
            )
            .chunk_capacity(64)
            .build()
            .unwrap();
        pipeline.push_batch(log.entries());
        let frozen_report = pipeline.drain();
        assert!(pipeline.rule_updates().is_empty());
        assert_eq!(pipeline.stats().runtime_updates.adjudication, 0);
        assert_eq!(pipeline.stats().current_weights, Some(vec![1.0, 1.0]));
        // Frozen recalibration is observationally identical to no
        // recalibration at all.
        assert_eq!(frozen_report.combined.to_bools(), offline_kofn(&log, 1));
        // Thawing at runtime resumes updating from the warm evidence.
        pipeline.set_recalibration_frozen(false);
        pipeline.push_batch(log.entries());
        let _ = pipeline.drain();
        assert!(pipeline.stats().runtime_updates.adjudication > 0);
    }

    #[test]
    fn reset_restarts_recalibration_from_the_installed_rule() {
        use divscrape_ensemble::RecalibrationPolicy;
        let log = generate(&ScenarioConfig::tiny(29)).unwrap();
        let mut pipeline = PipelineBuilder::new()
            .detector(Sentinel::stock())
            .detector(Arcane::stock())
            .detector(RateLimiter::new(20))
            .adjudication(Adjudication::weighted(vec![1.0, 1.0, 1.0], 1.0))
            .recalibration(RecalibrationPolicy::new().window(32).update_every(100))
            .chunk_capacity(64)
            .build()
            .unwrap();
        pipeline.push_batch(log.entries());
        let _ = pipeline.drain();
        let learned = pipeline.stats().current_weights.unwrap();
        pipeline.reset();
        // The schedule and telemetry rewind; the learned rule persists.
        assert!(pipeline.rule_updates().is_empty());
        assert_eq!(pipeline.stats().runtime_updates.adjudication, 0);
        assert_eq!(pipeline.stats().current_weights, Some(learned));
        assert_eq!(pipeline.recalibrator().unwrap().entries_observed(), 0);
    }

    #[test]
    fn eviction_capacity_bounds_live_clients() {
        let log = generate(&ScenarioConfig::tiny(21)).unwrap();
        let cap = 8usize;
        let mut pipeline = PipelineBuilder::new()
            .detector(Sentinel::stock())
            .detector(Arcane::stock())
            .eviction(EvictionConfig::capacity(cap))
            .chunk_capacity(64)
            .build()
            .unwrap();
        pipeline.push_batch(log.entries());
        let _ = pipeline.drain();
        let stats = pipeline.stats();
        assert!(
            stats.max_live_clients <= cap,
            "table occupancy {} exceeded capacity {cap}",
            stats.max_live_clients
        );
        assert!(stats.evicted_clients > 0, "churn must evict");
    }
}
