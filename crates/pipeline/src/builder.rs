//! Pipeline composition.

use divscrape_detect::{EvictionConfig, TenantId, TriagePolicy};
use divscrape_ensemble::{
    AlertVector, DriftAlarm, KOutOfN, RecalibrationPolicy, Recalibrator, ThresholdController,
    ThresholdPolicy, WeightedVote,
};
use std::time::Duration;

use divscrape_httplog::LogEntry;

use crate::engine::Pipeline;
use crate::flush::DEFAULT_MAX_DELAY;
use crate::sink::AlertSink;
use crate::PipelineDetector;

/// Default number of entries buffered before a chunk is processed.
pub(crate) const DEFAULT_CHUNK_CAPACITY: usize = 4_096;

/// Default bounded job-queue capacity per pool worker, in chunks.
pub(crate) const DEFAULT_QUEUE_DEPTH: usize = 2;

/// How member verdicts combine into the pipeline's alert decision.
///
/// Both variants are the schemes of the paper's Section V, applied online;
/// the arithmetic is the `divscrape-ensemble` implementation, so offline
/// analyses and the live pipeline can never disagree about a rule's
/// meaning.
#[derive(Debug, Clone)]
pub enum Adjudication {
    /// Alert when at least `k` of the detectors alert (`1` = union, the
    /// detector count = unanimity).
    KOutOfN {
        /// Required votes.
        k: u32,
    },
    /// Alert when the weighted sum of alerting detectors reaches the
    /// threshold.
    Weighted {
        /// One non-negative finite weight per detector, in composition
        /// order.
        weights: Vec<f64>,
        /// The alarm threshold.
        threshold: f64,
    },
}

impl Adjudication {
    /// The `k`-out-of-`n` rule; `n` is the number of composed detectors.
    pub fn k_of_n(k: u32) -> Self {
        Adjudication::KOutOfN { k }
    }

    /// The weighted-vote rule.
    pub fn weighted(weights: Vec<f64>, threshold: f64) -> Self {
        Adjudication::Weighted { weights, threshold }
    }

    /// Validates this scheme against a composition of `n` detectors and
    /// resolves it into the executable rule — shared by
    /// [`PipelineBuilder::build`] and the runtime
    /// [`Pipeline::set_adjudication`](crate::Pipeline::set_adjudication),
    /// so build-time and runtime installs can never diverge on what is
    /// valid.
    pub(crate) fn resolve(&self, n: usize) -> Result<Rule, BuildError> {
        match self {
            Adjudication::KOutOfN { k } => Ok(Rule::KOutOfN(
                KOutOfN::new(*k, n as u32)
                    .ok_or(BuildError::BadVoteCount { k: *k, n: n as u32 })?,
            )),
            Adjudication::Weighted { weights, threshold } => {
                if weights.len() != n {
                    return Err(BuildError::BadWeights(format!(
                        "{} weights for {n} detectors",
                        weights.len()
                    )));
                }
                Ok(Rule::Weighted(
                    WeightedVote::new(weights.clone(), *threshold)
                        .map_err(BuildError::BadWeights)?,
                ))
            }
        }
    }
}

/// The optional labeled-feedback hook of an online recalibrator: maps an
/// alert-stream position (`feed-order index`, `entry`) to ground truth —
/// `Some(true)` for confirmed-malicious, `Some(false)` for
/// confirmed-benign, `None` when no label is available (the recalibrator
/// falls back to its peer-support proxy for that entry). Labels typically
/// come from analyst triage queues, honeypot hits, or delayed offline
/// labeling jobs.
pub type LabelOracle = Box<dyn FnMut(u64, &LogEntry) -> Option<bool> + Send>;

/// An observer for recalibrator **drift alarms**
/// ([`PipelineBuilder::on_drift`]): invoked on the driver thread, in
/// feed order, for every [`DriftAlarm`] the recalibrator raises —
/// typically to page an operator or log the event to a side channel.
/// Alarm counts also flow through
/// [`PipelineStats::drift_alarms`](crate::PipelineStats::drift_alarms)
/// whether or not a hook is installed.
pub type DriftHook = Box<dyn FnMut(&DriftAlarm) + Send>;

/// A resolved adjudication rule (validated against the detector count).
#[derive(Debug, Clone)]
pub(crate) enum Rule {
    KOutOfN(KOutOfN),
    Weighted(WeightedVote),
}

impl Rule {
    /// Label used for the combined alert vector (`"1oo2"`, `"weighted"`).
    pub(crate) fn label(&self) -> String {
        match self {
            Rule::KOutOfN(rule) => rule.label(),
            Rule::Weighted(_) => "weighted".to_owned(),
        }
    }

    /// Combines the members' votes (one vector per member, in
    /// composition order) with the ensemble rule, verbatim.
    pub(crate) fn apply(&self, members: &[AlertVector]) -> AlertVector {
        let refs: Vec<&AlertVector> = members.iter().collect();
        match self {
            Rule::KOutOfN(rule) => rule.apply(&refs),
            Rule::Weighted(rule) => rule.apply(&refs),
        }
    }

    /// A fresh recalibrator seeded from this rule — the one seeding path
    /// shared by [`PipelineBuilder::build`] and
    /// [`Pipeline::reset`](crate::Pipeline::reset).
    ///
    /// # Errors
    ///
    /// Propagates [`RecalibrationPolicy::validate`].
    pub(crate) fn recalibrator(&self, policy: RecalibrationPolicy) -> Result<Recalibrator, String> {
        match self {
            Rule::KOutOfN(rule) => Recalibrator::from_k_of_n(*rule, policy),
            Rule::Weighted(rule) => Recalibrator::from_weighted(rule, policy),
        }
    }
}

/// Why a [`PipelineBuilder`] refused to build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// No detectors were composed.
    NoDetectors,
    /// `k` is zero or exceeds the number of detectors.
    BadVoteCount {
        /// The requested `k`.
        k: u32,
        /// The number of composed detectors.
        n: u32,
    },
    /// The weighted rule is malformed (weight count, negative or
    /// non-finite values).
    BadWeights(String),
    /// `workers == 0`.
    NoWorkers,
    /// `chunk_capacity == 0`.
    NoChunkCapacity,
    /// `queue_depth == 0`.
    NoQueueDepth,
    /// A global eviction budget smaller than the worker count: it cannot
    /// be split into at least one tracked client per replica.
    BadEvictionBudget {
        /// The requested pipeline-wide client budget.
        budget: usize,
        /// The configured worker count.
        workers: usize,
    },
    /// The recalibration policy is malformed (zero window/cadence, bad
    /// clamps — see
    /// [`RecalibrationPolicy::validate`](divscrape_ensemble::RecalibrationPolicy::validate)).
    BadRecalibration(String),
    /// Triage and online recalibration were both requested. Triage
    /// suppresses benign entries' member verdicts (they reach the
    /// recalibrator as all-CLEAR rows, or late), so the learned weights
    /// would be fit to a different verdict stream than the one a
    /// triage-off pipeline sees — the combination is rejected rather
    /// than silently skewed.
    TriageWithRecalibration,
    /// The threshold-control policy is malformed (target rate outside
    /// (0, 1), zero window/cadence, bad step or bounds — see
    /// [`ThresholdPolicy::validate`](divscrape_ensemble::ThresholdPolicy::validate)).
    BadThresholdControl(String),
    /// Triage and online threshold control were both requested. Triage
    /// retro-flips suppressed entries' combined verdicts at escalation
    /// time, so the alert rate the controller observes live differs
    /// from the rate a triage-off (or schedule-replay) run sees over
    /// the same stream — the combination is rejected rather than
    /// silently skewed.
    TriageWithThresholdControl,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::NoDetectors => write!(f, "pipeline needs at least one detector"),
            BuildError::BadVoteCount { k, n } => {
                write!(
                    f,
                    "k-out-of-n needs 1 <= k <= n, got k={k} with {n} detectors"
                )
            }
            BuildError::BadWeights(msg) => write!(f, "bad weighted vote: {msg}"),
            BuildError::NoWorkers => write!(f, "pipeline needs at least one worker"),
            BuildError::NoChunkCapacity => write!(f, "chunk capacity must be at least 1"),
            BuildError::NoQueueDepth => write!(f, "queue depth must be at least 1"),
            BuildError::BadEvictionBudget { budget, workers } => write!(
                f,
                "global eviction budget {budget} cannot be split across {workers} workers \
                 (needs at least one client per worker)"
            ),
            BuildError::BadRecalibration(msg) => write!(f, "bad recalibration policy: {msg}"),
            BuildError::TriageWithRecalibration => write!(
                f,
                "triage and online recalibration cannot be combined: suppressed entries \
                 would skew the recalibrator's member-verdict evidence"
            ),
            BuildError::BadThresholdControl(msg) => {
                write!(f, "bad threshold-control policy: {msg}")
            }
            BuildError::TriageWithThresholdControl => write!(
                f,
                "triage and online threshold control cannot be combined: retro-flipped \
                 verdicts would skew the controller's observed alert rate"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// Composes detectors, an adjudication rule and alert sinks into a
/// [`Pipeline`].
///
/// See the [crate docs](crate) for a full example.
#[must_use = "a builder does nothing until built"]
pub struct PipelineBuilder {
    detectors: Vec<Box<dyn PipelineDetector>>,
    adjudication: Adjudication,
    tenant: Option<TenantId>,
    sinks: Vec<Box<dyn AlertSink>>,
    workers: usize,
    chunk_capacity: usize,
    max_delay: Duration,
    queue_depth: usize,
    eviction: EvictionConfig,
    eviction_budget: Option<usize>,
    triage: Option<TriagePolicy>,
    recalibration: Option<RecalibrationPolicy>,
    labels: Option<LabelOracle>,
    threshold_control: Option<ThresholdPolicy>,
    drift_hook: Option<DriftHook>,
}

impl Default for PipelineBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for PipelineBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineBuilder")
            .field(
                "detectors",
                &self
                    .detectors
                    .iter()
                    .map(|d| d.name().to_owned())
                    .collect::<Vec<_>>(),
            )
            .field("adjudication", &self.adjudication)
            .field("tenant", &self.tenant)
            .field("sinks", &self.sinks.len())
            .field("workers", &self.workers)
            .field("chunk_capacity", &self.chunk_capacity)
            .field("max_delay", &self.max_delay)
            .field("queue_depth", &self.queue_depth)
            .field("eviction", &self.eviction)
            .field("eviction_budget", &self.eviction_budget)
            .field("triage", &self.triage)
            .field("recalibration", &self.recalibration)
            .field("labels", &self.labels.is_some())
            .field("threshold_control", &self.threshold_control)
            .field("drift_hook", &self.drift_hook.is_some())
            .finish()
    }
}

impl PipelineBuilder {
    /// A builder with no detectors, 1-out-of-n adjudication, one worker,
    /// the default chunk capacity, flush deadline and queue depth, and
    /// eviction disabled.
    pub fn new() -> Self {
        Self {
            detectors: Vec::new(),
            adjudication: Adjudication::k_of_n(1),
            tenant: None,
            sinks: Vec::new(),
            workers: 1,
            chunk_capacity: DEFAULT_CHUNK_CAPACITY,
            max_delay: DEFAULT_MAX_DELAY,
            queue_depth: DEFAULT_QUEUE_DEPTH,
            eviction: EvictionConfig::DISABLED,
            eviction_budget: None,
            triage: None,
            recalibration: None,
            labels: None,
            threshold_control: None,
            drift_hook: None,
        }
    }

    /// Adds a detector stage. Order fixes the member order in reports and
    /// the weight order for [`Adjudication::weighted`].
    pub fn detector<D: PipelineDetector + 'static>(mut self, detector: D) -> Self {
        self.detectors.push(Box::new(detector));
        self
    }

    /// Adds an already-boxed detector stage.
    pub fn boxed_detector(mut self, detector: Box<dyn PipelineDetector>) -> Self {
        self.detectors.push(detector);
        self
    }

    /// Sets the adjudication rule (default: 1-out-of-n).
    pub fn adjudication(mut self, adjudication: Adjudication) -> Self {
        self.adjudication = adjudication;
        self
    }

    /// Labels the pipeline with the tenant it serves (default: none).
    ///
    /// The tenant id is stamped on every adjudicated [`Alert`] delivered
    /// to the sinks — [`Alert::to_json`](crate::Alert::to_json) renders
    /// it, so file and TCP alert streams from many tenants stay
    /// attributable after mixing. `divscrape-service`'s `ServicePlane`
    /// sets this automatically for each tenant shard's pipeline.
    ///
    /// [`Alert`]: crate::Alert
    pub fn tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = Some(tenant);
        self
    }

    /// Adds an alert sink, invoked (in registration order) for every
    /// adjudicated alert.
    pub fn sink<S: AlertSink + 'static>(mut self, sink: S) -> Self {
        self.sinks.push(Box::new(sink));
        self
    }

    /// Sets the number of pool workers (default 1). The pipeline spawns
    /// this many long-lived threads, each holding its own replica of
    /// every detector for the pipeline's lifetime; every chunk is
    /// partitioned by client across them. Verdicts are unchanged for any
    /// worker count thanks to the detectors' client-local state.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets how many entries are buffered before a chunk is processed
    /// (default 4096). Any value produces identical verdicts; larger
    /// chunks amortize dispatch and sharding overhead better. A chunk
    /// also ends early when its driver runs out of input
    /// ([`Pipeline::poll`]) or its oldest entry reaches
    /// [`max_delay`](Self::max_delay).
    pub fn chunk_capacity(mut self, capacity: usize) -> Self {
        self.chunk_capacity = capacity;
        self
    }

    /// Bounds how long a pushed entry may sit in the ingest buffer of a
    /// caller that **pushes and never parks** (default
    /// [`DEFAULT_MAX_DELAY`], 10 ms): the buffer is submitted when it
    /// reaches [`chunk_capacity`](Self::chunk_capacity) **or** when its
    /// oldest entry is this old, whichever comes first. The deadline is
    /// checked inside the push calls only (the clock is read on a
    /// chunk's 1st, 2nd, 4th, 8th and 16th push and every 32nd after,
    /// never on every push).
    ///
    /// A driver that waits on its input does not need it: it calls
    /// [`Pipeline::poll`] (through `park_for`) whenever the input runs
    /// dry, which submits what is buffered there and then — group
    /// commit. The service plane's shard drivers and the ingest driver
    /// do, so for them chunk size adapts by itself, from a few entries
    /// at a trickle to the full capacity at saturation, and alert
    /// latency is the cost of the work; the deadline is met only if
    /// the input never runs dry and never fills a chunk. A caller that
    /// pushes from its own loop and can go quiet should poll the same
    /// way.
    ///
    /// `Duration::MAX` is **fill-only** — the same code with a deadline
    /// that never comes: chunks end exactly at `chunk_capacity`,
    /// [`Pipeline::flush`], [`Pipeline::poll`], `drain` and the `set_*`
    /// calls, so chunk counts are a pure function of the calls made.
    ///
    /// # What flush timing may and may not change
    ///
    /// Invariant under **any** flush schedule (pinned by
    /// `tests/pipeline_equivalence.rs`): every member's verdict for
    /// every entry, the combined verdicts under a static rule or a
    /// replayed schedule, the *set* of alerts every sink sees and — with
    /// triage off — their order.
    ///
    /// Not invariant, which is why fill-only stays expressible:
    ///
    /// * **Where a live learner's installs land.** Recalibrator and
    ///   threshold-controller updates take effect at chunk boundaries,
    ///   so under a deadline or a parking driver the live schedule
    ///   depends on arrival timing.
    ///   Every install is recorded with its
    ///   [`at_entry`](crate::AppliedRuleUpdate::at_entry) position, and
    ///   replaying the recorded schedule through
    ///   [`Pipeline::set_adjudication`] reproduces the run bit for bit
    ///   under any flush timing on either side.
    /// * **The order of triage's late alerts.** An escalated client's
    ///   suppressed history alerts *in feed order* if it sits in the
    ///   chunk being finalized and *late* (ahead of that chunk's own
    ///   alerts) if an earlier chunk already finalized it; where the
    ///   boundary falls decides which.
    /// * **Entry records of suppressed-then-replayed entries.** A sink
    ///   recording under [`RecordPolicy::VotedEntries`](crate::RecordPolicy)
    ///   sees a replayed entry's record only when the replay lands in
    ///   the entry's own chunk; an entry finalized in an earlier chunk
    ///   was offered as all-clear (and skipped), and only its late alert
    ///   follows.
    pub fn max_delay(mut self, max_delay: Duration) -> Self {
        self.max_delay = max_delay;
        self
    }

    /// Sets each pool worker's bounded job-queue capacity, in chunks
    /// (default 2). This is the backpressure knob:
    /// [`push`](Pipeline::push) blocks once a target worker's queue is
    /// full or `workers × queue_depth + 1` chunks are in flight, so
    /// entries held by the pipeline are bounded by
    /// `chunk_capacity × (workers × queue_depth + 1)` in flight plus up
    /// to one chunk buffering for ingest. Deeper queues smooth bursty
    /// feeds at the cost of memory and alert latency. Verdicts never
    /// depend on this value.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Bounds every detector's per-client state tables with the given
    /// eviction policy (default: [`EvictionConfig::DISABLED`]).
    ///
    /// The policy reaches detectors through
    /// [`Detector::set_eviction`](divscrape_detect::Detector::set_eviction),
    /// which every stock detector implements. For a custom detector the
    /// default `set_eviction` is a **no-op**: its own state keeps
    /// growing (and reports zero in [`Pipeline::stats`]) unless it
    /// overrides the hook — e.g. by keeping its per-client state in a
    /// [`ClientStateTable`](divscrape_detect::ClientStateTable).
    ///
    /// With eviction disabled, pipeline output is bit-identical to the
    /// unbounded implementation. With a TTL at least as long as the
    /// detectors' session timeouts, session-scoped state is evicted only
    /// when it would have been restarted anyway; a capacity bound
    /// guarantees no table exceeds `max_clients` entries **per detector
    /// replica** (each pool worker keeps its own tables over its own
    /// client shard), at the cost of forgetting long-idle or
    /// least-recently-seen clients — including, for Sentinel, cached
    /// violators. Under a capacity bound, verdicts can therefore depend
    /// on the worker count.
    pub fn eviction(mut self, eviction: EvictionConfig) -> Self {
        self.eviction = eviction;
        self
    }

    /// Bounds the **pipeline-wide** client-state footprint at `budget`
    /// tracked clients, split evenly across the worker replicas
    /// (`⌊budget / workers⌋` per replica), instead of the per-replica
    /// cap that [`eviction`](Self::eviction)'s `max_clients` sets.
    ///
    /// Because every replica's tables stay at or under its share, the
    /// sum across replicas —
    /// [`live_clients_aggregate`](crate::PipelineStats::live_clients_aggregate)
    /// — never exceeds `budget`, for any worker count: scaling the pool
    /// out no longer multiplies the memory bound. Composes with a TTL
    /// from [`eviction`](Self::eviction); a `max_clients` set there is
    /// overridden by the split budget.
    ///
    /// Like any capacity bound, the split budget can evict still-active
    /// clients, and each worker only sees its own client shard — so with
    /// a budget, verdicts can depend on the worker count (see
    /// [`eviction`](Self::eviction)).
    ///
    /// [`build`](Self::build) rejects a budget smaller than the worker
    /// count ([`BuildError::BadEvictionBudget`]): it cannot grant every
    /// replica even one client.
    pub fn eviction_global_capacity(mut self, budget: usize) -> Self {
        self.eviction_budget = Some(budget);
        self
    }

    /// Puts a **hierarchical triage stage** in front of the detectors
    /// (default: none — every entry pays full detector cost).
    ///
    /// The triage filter classifies each entry's client on the driver,
    /// before sharding, from cheap per-client counters
    /// ([`TriagePolicy::fast`] installs the stock
    /// [`FastTriage`](divscrape_detect::FastTriage)). Benign-so-far
    /// clients' entries are buffered — bounded by the policy's replay
    /// byte cap, spilling oldest-first — and skipped by the detectors;
    /// the moment a client escalates, its buffered history replays
    /// through the full detector set in feed order on the client's
    /// owning worker, so detector state and all subsequent verdicts
    /// match a triage-off run exactly.
    ///
    /// As long as no entry spilled
    /// ([`triage_spilled_entries`](crate::PipelineStats::triage_spilled_entries)
    /// stays 0 — the cap is sized for that), the drained report is
    /// **bit-identical** to the same pipeline without triage, for any
    /// worker count, chunk geometry or push flavor; with the stock
    /// filter and stock detectors the live alert stream is identical
    /// too, because every stock-detector alert implies a triage
    /// escalation at or before the same entry. What triage buys is
    /// skipping the expensive detectors for the benign majority —
    /// multiplicative throughput on benign-heavy traffic.
    ///
    /// Rejected in combination with [`recalibration`](Self::recalibration)
    /// ([`BuildError::TriageWithRecalibration`]): the recalibrator
    /// learns from member-verdict evidence that triage suppresses.
    ///
    /// ```
    /// use divscrape_detect::{Arcane, Sentinel};
    /// use divscrape_pipeline::{PipelineBuilder, TriagePolicy};
    /// use divscrape_traffic::{generate, ScenarioConfig};
    ///
    /// let log = generate(&ScenarioConfig::tiny(3))?;
    /// let run = |triage: bool| {
    ///     let mut builder = PipelineBuilder::new()
    ///         .detector(Sentinel::stock())
    ///         .detector(Arcane::stock());
    ///     if triage {
    ///         builder = builder.triage(TriagePolicy::fast());
    ///     }
    ///     let mut pipeline = builder.build().map_err(|e| e.to_string())?;
    ///     pipeline.push_batch(log.entries());
    ///     Ok::<_, String>((pipeline.drain(), pipeline.stats()))
    /// };
    /// let (off, _) = run(false)?;
    /// let (on, stats) = run(true)?;
    /// assert_eq!(on.combined.to_bools(), off.combined.to_bools());
    /// assert_eq!(stats.triage_spilled_entries, 0);
    /// assert!(stats.triage_suppressed_entries > 0); // detectors skipped work
    /// # Ok::<(), String>(())
    /// ```
    pub fn triage(mut self, policy: TriagePolicy) -> Self {
        self.triage = Some(policy);
        self
    }

    /// Attaches an **online recalibrator** to the adjudication stage
    /// (default: none — weights stay as composed).
    ///
    /// The recalibrator observes every member's verdict against its
    /// peers' at chunk finalization (driver thread, strictly in feed
    /// order) and, every [`update_every`](RecalibrationPolicy::update_every)
    /// entries, re-derives the weighted rule's weights from EWMA
    /// peer-support precision proxies — see
    /// [`Recalibrator`](divscrape_ensemble::Recalibrator). Updates apply
    /// **between** chunks, never mid-chunk, so the rule any entry is
    /// adjudicated under is a deterministic function of its feed-order
    /// position: replaying the recorded schedule through
    /// [`set_adjudication`](Pipeline::set_adjudication) is bit-identical
    /// to the live recalibrating run.
    ///
    /// A k-out-of-n composition is adopted as its exact weighted
    /// equivalent (unit weights, threshold `k`) — the first derived
    /// update turns the rigid vote count into learned weights.
    ///
    /// ```
    /// use divscrape_detect::{Arcane, Sentinel};
    /// use divscrape_pipeline::{Adjudication, PipelineBuilder, RecalibrationPolicy};
    /// use divscrape_traffic::{generate, ScenarioConfig};
    ///
    /// let log = generate(&ScenarioConfig::tiny(6))?;
    /// let mut pipeline = PipelineBuilder::new()
    ///     .detector(Sentinel::stock())
    ///     .detector(Arcane::stock())
    ///     .adjudication(Adjudication::weighted(vec![1.0, 1.0], 0.95))
    ///     .recalibration(RecalibrationPolicy::new().window(64).update_every(256))
    ///     .build()
    ///     .map_err(|e| e.to_string())?;
    /// pipeline.push_batch(log.entries());
    /// let _ = pipeline.drain();
    /// let stats = pipeline.stats();
    /// assert!(stats.runtime_updates.adjudication > 0); // weights moved
    /// assert_eq!(stats.current_weights.as_ref().map(Vec::len), Some(2));
    /// assert_eq!(
    ///     pipeline.rule_updates().len() as u64,
    ///     stats.runtime_updates.adjudication
    /// );
    /// # Ok::<(), String>(())
    /// ```
    pub fn recalibration(mut self, policy: RecalibrationPolicy) -> Self {
        self.recalibration = Some(policy);
        self
    }

    /// Supplies the recalibrator's **labeled-feedback hook** (default:
    /// none — the peer-support proxy is used throughout).
    ///
    /// The oracle is consulted once per finalized entry with the entry's
    /// feed-order index; returning `Some(label)` feeds the recalibrator
    /// true precision evidence for that entry
    /// ([`Recalibrator::observe_labeled`](divscrape_ensemble::Recalibrator::observe_labeled)),
    /// `None` falls back to the proxy. Ignored unless
    /// [`recalibration`](Self::recalibration) is configured.
    pub fn recalibration_labels<F>(mut self, oracle: F) -> Self
    where
        F: FnMut(u64, &LogEntry) -> Option<bool> + Send + 'static,
    {
        self.labels = Some(Box::new(oracle));
        self
    }

    /// Attaches an **online alarm-threshold controller** to the
    /// adjudication stage (default: none — the threshold stays as
    /// composed or as the recalibrator preserves it).
    ///
    /// The controller tracks the pipeline's combined alert rate with an
    /// EWMA and, every [`update_every`](ThresholdPolicy::update_every)
    /// entries, steps the weighted rule's alarm threshold toward the
    /// policy's [`target rate`](ThresholdPolicy::target_rate) — up when
    /// the pipeline over-alerts (spends FP budget), down when it
    /// under-alerts. Steps are clamped and bounded, install **between**
    /// chunks through the same sequence-gated path as every other rule
    /// change, and are recorded in
    /// [`rule_updates`](Pipeline::rule_updates) with
    /// [`LearnedThreshold`](crate::RuleProvenance::LearnedThreshold)
    /// provenance — so replaying the recorded schedule through
    /// [`set_adjudication`](Pipeline::set_adjudication) reproduces the
    /// run bit-for-bit with the controller off.
    ///
    /// Composes with [`recalibration`](Self::recalibration): the
    /// recalibrator moves the weights (threshold preserved), the
    /// controller moves the threshold (weights preserved), and each
    /// adopts the other's installs as its new base. A k-out-of-n
    /// composition is adopted as its exact weighted equivalent on the
    /// first step. Rejected in combination with
    /// [`triage`](Self::triage)
    /// ([`BuildError::TriageWithThresholdControl`]).
    ///
    /// ```
    /// use divscrape_detect::{Arcane, Sentinel};
    /// use divscrape_pipeline::{Adjudication, PipelineBuilder, ThresholdPolicy};
    /// use divscrape_traffic::{generate, ScenarioConfig};
    ///
    /// let log = generate(&ScenarioConfig::tiny(7))?;
    /// let mut pipeline = PipelineBuilder::new()
    ///     .detector(Sentinel::stock())
    ///     .detector(Arcane::stock())
    ///     .adjudication(Adjudication::weighted(vec![1.0, 1.0], 0.95))
    ///     .threshold_control(ThresholdPolicy::new(0.05).window(64).update_every(256))
    ///     .build()
    ///     .map_err(|e| e.to_string())?;
    /// pipeline.push_batch(log.entries());
    /// let _ = pipeline.drain();
    /// let rate = pipeline.threshold_controller().unwrap().observed_rate();
    /// assert!(rate.is_some()); // the controller tracked the stream
    /// # Ok::<(), String>(())
    /// ```
    pub fn threshold_control(mut self, policy: ThresholdPolicy) -> Self {
        self.threshold_control = Some(policy);
        self
    }

    /// Installs an observer invoked for every recalibrator
    /// [`DriftAlarm`] (default: none — alarms still count in
    /// [`PipelineStats::drift_alarms`](crate::PipelineStats::drift_alarms)).
    /// Runs on the driver thread at chunk finalization, in feed order.
    /// Ignored unless [`recalibration`](Self::recalibration) is
    /// configured.
    pub fn on_drift<F>(mut self, hook: F) -> Self
    where
        F: FnMut(&DriftAlarm) + Send + 'static,
    {
        self.drift_hook = Some(Box::new(hook));
        self
    }

    /// Validates the composition and builds the [`Pipeline`].
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] when the composition is empty or the
    /// adjudication rule, worker count, chunk capacity or recalibration
    /// policy is invalid.
    pub fn build(self) -> Result<Pipeline, BuildError> {
        let n = self.detectors.len();
        if n == 0 {
            return Err(BuildError::NoDetectors);
        }
        if self.workers == 0 {
            return Err(BuildError::NoWorkers);
        }
        if self.chunk_capacity == 0 {
            return Err(BuildError::NoChunkCapacity);
        }
        if self.queue_depth == 0 {
            return Err(BuildError::NoQueueDepth);
        }
        let mut eviction = self.eviction;
        if let Some(budget) = self.eviction_budget {
            if budget < self.workers {
                return Err(BuildError::BadEvictionBudget {
                    budget,
                    workers: self.workers,
                });
            }
            eviction = eviction.with_capacity(budget / self.workers);
        }
        if self.triage.is_some() && self.recalibration.is_some() {
            return Err(BuildError::TriageWithRecalibration);
        }
        if self.triage.is_some() && self.threshold_control.is_some() {
            return Err(BuildError::TriageWithThresholdControl);
        }
        let rule = self.adjudication.resolve(n)?;
        let recalibrator = match self.recalibration {
            None => None,
            Some(policy) => Some(
                rule.recalibrator(policy)
                    .map_err(BuildError::BadRecalibration)?,
            ),
        };
        let thresholds = match self.threshold_control {
            None => None,
            Some(policy) => {
                Some(ThresholdController::new(policy).map_err(BuildError::BadThresholdControl)?)
            }
        };
        Ok(Pipeline::assemble(
            self.detectors,
            rule,
            self.tenant,
            self.sinks,
            self.workers,
            self.chunk_capacity,
            self.max_delay,
            self.queue_depth,
            eviction,
            self.triage,
            recalibrator,
            self.labels,
            thresholds,
            self.drift_hook,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use divscrape_detect::{Arcane, Sentinel};

    #[test]
    fn empty_composition_is_rejected() {
        assert!(matches!(
            PipelineBuilder::new().build().unwrap_err(),
            BuildError::NoDetectors
        ));
    }

    #[test]
    fn vote_count_is_validated() {
        let err = PipelineBuilder::new()
            .detector(Sentinel::stock())
            .adjudication(Adjudication::k_of_n(2))
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::BadVoteCount { k: 2, n: 1 });
        assert!(PipelineBuilder::new()
            .detector(Sentinel::stock())
            .adjudication(Adjudication::k_of_n(0))
            .build()
            .is_err());
    }

    #[test]
    fn weights_are_validated() {
        let err = PipelineBuilder::new()
            .detector(Sentinel::stock())
            .detector(Arcane::stock())
            .adjudication(Adjudication::weighted(vec![1.0], 1.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::BadWeights(_)));
        let err = PipelineBuilder::new()
            .detector(Sentinel::stock())
            .adjudication(Adjudication::weighted(vec![-1.0], 1.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::BadWeights(_)));
    }

    #[test]
    fn global_eviction_budget_must_cover_every_worker() {
        let err = PipelineBuilder::new()
            .detector(Sentinel::stock())
            .workers(4)
            .eviction_global_capacity(3)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            BuildError::BadEvictionBudget {
                budget: 3,
                workers: 4
            }
        );
        assert!(PipelineBuilder::new()
            .detector(Sentinel::stock())
            .workers(4)
            .eviction_global_capacity(4)
            .build()
            .is_ok());
    }

    #[test]
    fn triage_and_recalibration_are_mutually_exclusive() {
        let err = PipelineBuilder::new()
            .detector(Sentinel::stock())
            .detector(Arcane::stock())
            .triage(TriagePolicy::fast())
            .recalibration(RecalibrationPolicy::new())
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::TriageWithRecalibration);
        assert!(PipelineBuilder::new()
            .detector(Sentinel::stock())
            .detector(Arcane::stock())
            .triage(TriagePolicy::fast())
            .build()
            .is_ok());
    }

    #[test]
    fn degenerate_runtime_parameters_are_rejected() {
        let base = || PipelineBuilder::new().detector(Sentinel::stock());
        assert_eq!(
            base().workers(0).build().unwrap_err(),
            BuildError::NoWorkers
        );
        assert_eq!(
            base().chunk_capacity(0).build().unwrap_err(),
            BuildError::NoChunkCapacity
        );
        assert_eq!(
            base().queue_depth(0).build().unwrap_err(),
            BuildError::NoQueueDepth
        );
    }
}
