//! Pipeline observability: the [`Pipeline::stats`](crate::Pipeline::stats)
//! snapshot.

use std::time::Duration;

/// Lifetime tallies of **runtime reconfiguration** applied to a pipeline
/// — the shared telemetry path for every `set_*`-style mutation
/// ([`Pipeline::set_eviction`](crate::Pipeline::set_eviction),
/// [`Pipeline::set_adjudication`](crate::Pipeline::set_adjudication),
/// recalibrator-derived weight updates). Operators read it to tell a
/// frozen recalibrator (adjudication counter flat) from one that is
/// actually updating, and a service plane that is rebalancing eviction
/// budgets from one that is not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeUpdates {
    /// Eviction-policy installs applied over the pipeline's lifetime
    /// (builder-time configuration is not counted).
    pub eviction: u64,
    /// Adjudication-rule installs applied over the pipeline's lifetime:
    /// manual [`set_adjudication`](crate::Pipeline::set_adjudication)
    /// calls plus every weight update the online recalibrator derived
    /// and applied.
    pub adjudication: u64,
}

impl RuntimeUpdates {
    /// Total runtime mutations applied, across all kinds.
    pub fn total(&self) -> u64 {
        self.eviction + self.adjudication
    }
}

/// A point-in-time snapshot of a pipeline's operational counters.
///
/// Returned by [`Pipeline::stats`](crate::Pipeline::stats). Counter
/// semantics:
///
/// * **Throughput** — [`entries_processed`](Self::entries_processed),
///   [`chunks_processed`](Self::chunks_processed) and
///   [`alerts`](Self::alerts) cover finalized work only (adjudicated,
///   sinks fired, outcome accumulated for the next drain).
/// * **Queue depth** — [`inflight_chunks`](Self::inflight_chunks) is the
///   number of chunks currently handed to the worker pool and not yet
///   finalized; [`max_inflight_chunks`](Self::max_inflight_chunks) is its
///   high-water mark. Together with
///   [`entries_pending`](Self::entries_pending) (buffered + in-flight
///   entries) they bound the pipeline's working memory.
/// * **Buffering latency** — [`idle_flushes`](Self::idle_flushes)
///   counts the chunks submitted because their driver ran out of input,
///   [`deadline_flushes`](Self::deadline_flushes) the chunks the flush
///   deadline ended early, and
///   [`max_buffered_age_us`](Self::max_buffered_age_us) is the longest
///   any entry waited in the ingest buffer before its chunk was
///   submitted.
/// * **Per-stage latency** — [`detect_busy`](Self::detect_busy) is summed
///   worker busy time across the pool (it can exceed wall-clock time when
///   several workers run in parallel);
///   [`adjudicate_busy`](Self::adjudicate_busy) and
///   [`sink_busy`](Self::sink_busy) are driver-thread time spent
///   combining verdicts and delivering alerts.
/// * **Adjudication** — [`current_weights`](Self::current_weights) and
///   [`current_threshold`](Self::current_threshold) are the weighted
///   rule currently installed on the adjudication stage (`None` under a
///   k-out-of-n rule), and [`runtime_updates`](Self::runtime_updates)
///   counts the runtime mutations — eviction installs and adjudication
///   updates — applied so far.
/// * **Eviction** — [`live_clients`](Self::live_clients) is the occupancy
///   of the largest single per-client state table across all detector
///   replicas (as of each worker's most recently collected result),
///   [`max_live_clients`](Self::max_live_clients) its high-water mark,
///   and [`evicted_clients`](Self::evicted_clients) the total clients
///   dropped by TTL or capacity eviction. With an eviction capacity `C`
///   configured, `max_live_clients <= C` holds for the whole run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineStats {
    /// Entries finalized: run through the detectors, adjudicated and
    /// accumulated.
    pub entries_processed: u64,
    /// Entries accepted but not yet finalized (driver buffer plus chunks
    /// in flight on the worker pool).
    pub entries_pending: usize,
    /// Chunks finalized.
    pub chunks_processed: u64,
    /// Adjudicated alerts raised so far.
    pub alerts: u64,
    /// Chunks currently in flight on the worker pool.
    pub inflight_chunks: usize,
    /// High-water mark of [`inflight_chunks`](Self::inflight_chunks).
    pub max_inflight_chunks: usize,
    /// Total detector busy time summed across all workers.
    pub detect_busy: Duration,
    /// Driver time spent combining member verdicts.
    pub adjudicate_busy: Duration,
    /// Driver time spent delivering alerts to sinks.
    pub sink_busy: Duration,
    /// Current occupancy of the largest per-client state table across
    /// all detector replicas.
    pub live_clients: usize,
    /// Sum over all worker replicas of each replica's largest per-client
    /// table — the pipeline-wide client-state footprint that
    /// [`eviction_global_capacity`](crate::PipelineBuilder::eviction_global_capacity)
    /// bounds.
    pub live_clients_aggregate: usize,
    /// High-water mark of [`live_clients`](Self::live_clients).
    pub max_live_clients: usize,
    /// Clients evicted from detector state tables (TTL + capacity),
    /// summed across all replicas.
    pub evicted_clients: u64,
    /// The weights of the currently installed weighted adjudication
    /// rule, in composition order; `None` while a k-out-of-n rule is
    /// installed. Under online recalibration this is the live, learned
    /// weight vector.
    pub current_weights: Option<Vec<f64>>,
    /// The currently installed weighted rule's alarm threshold; `None`
    /// while a k-out-of-n rule is installed.
    pub current_threshold: Option<f64>,
    /// Runtime reconfiguration applied so far (eviction installs,
    /// adjudication updates) — see [`RuntimeUpdates`].
    pub runtime_updates: RuntimeUpdates,
    /// Alerts currently queued in sink disk spools (summed over sinks
    /// that report telemetry — see
    /// [`TcpSink::with_spool`](crate::TcpSink::with_spool)). A non-zero
    /// value means a collector is, or recently was, unreachable; watch
    /// it fall to see the backlog drain.
    pub spool_depth: u64,
    /// Largest spooled backlog observed, in payload bytes (per-sink
    /// high-water marks, summed).
    pub spool_bytes_high_water: u64,
    /// Spooled alerts that were later delivered (summed over sinks) — a
    /// rising number while a backlog drains after reconnect.
    pub replayed_alerts: u64,
    /// Clients escalated by the triage filter (zero while triage is
    /// off — see [`PipelineBuilder::triage`](crate::PipelineBuilder::triage)).
    pub triage_escalations: u64,
    /// Entries the triage stage suppressed at admission (buffered and
    /// skipped by the detectors). Each is later replayed, spilled, or
    /// still buffered.
    pub triage_suppressed_entries: u64,
    /// Suppressed entries replayed through the full detector set after
    /// their client escalated.
    pub triage_replayed_entries: u64,
    /// Suppressed entries dropped oldest-first under the replay-buffer
    /// byte cap; a spilled entry is never replayed, so non-zero spills
    /// void the bit-identity guarantee (recall stays bounded: an
    /// escalated client is still scored from its surviving history
    /// onward).
    pub triage_spilled_entries: u64,
    /// Drift alarms raised by the online recalibrator: a per-member
    /// EWMA support estimate moved faster than the policy window
    /// tracks, i.e. the scraper population changed *qualitatively*
    /// rather than the rule merely re-weighting — see
    /// [`DriftAlarm`](divscrape_ensemble::DriftAlarm) and
    /// [`PipelineBuilder::on_drift`](crate::PipelineBuilder::on_drift).
    /// Zero without recalibration.
    pub drift_alarms: u64,
    /// Chunks submitted because their oldest entry had waited
    /// [`max_delay`](crate::PipelineBuilder::max_delay) — not because
    /// the buffer filled, the driver went idle or a caller asked
    /// (`flush`, `drain`, `set_*`). The deadline bounds callers that
    /// push and never park; a driver that parks submits whenever its
    /// input runs dry (see [`idle_flushes`](Self::idle_flushes)) and
    /// meets the deadline only while its input never does.
    pub deadline_flushes: u64,
    /// Chunks submitted by [`Pipeline::poll`](crate::Pipeline::poll) —
    /// a driver about to park on empty input handing over what it held
    /// (group commit). Next to [`chunks_processed`](Self::chunks_processed)
    /// it says which regime a driven pipeline runs in: near zero at
    /// saturation, where chunks fill before the input runs dry, near
    /// every chunk at a trickle.
    pub idle_flushes: u64,
    /// High-water age, in microseconds, of a chunk's oldest entry at
    /// the moment the chunk was submitted — how long buffering has made
    /// an entry wait at worst. Under a parking driver it is about the
    /// time one chunk takes, under a caller that only pushes it stays
    /// near `max_delay`; a value far above both means a stream went
    /// quiet with nobody polling.
    pub max_buffered_age_us: u64,
}
