//! The [`IngestDriver`]: couples a [`LogSource`] to a
//! [`Pipeline`], with malformed-line policy and graceful shutdown.

use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use divscrape_httplog::ParseLogError;
use divscrape_pipeline::{Pipeline, PipelineReport, PipelineStats};

use crate::file_tail::FileTail;
use crate::source::{LogSource, SourceEventRef};

/// Default source poll timeout: long enough to sleep efficiently, short
/// enough that a stop request is honoured promptly.
const DEFAULT_TICK: Duration = Duration::from_millis(25);

/// Default commit interval for
/// [`run_checkpointed`](IngestDriver::run_checkpointed): frequent enough
/// that a crash replays little, infrequent enough that drain barriers
/// don't dominate.
const DEFAULT_CHECKPOINT_EVERY: u64 = 1024;

/// What the driver does with a line that fails Combined Log Format
/// parsing (or was discarded as over-long by the source's framer).
///
/// Production logs routinely contain the odd mangled line; which policy
/// is right depends on whether the feed is trusted.
///
/// ```
/// use divscrape_ingest::ErrorPolicy;
///
/// // Count and move on — the default, right for real-world feeds.
/// let policy = ErrorPolicy::Skip;
/// assert!(matches!(policy, ErrorPolicy::Skip));
/// ```
pub enum ErrorPolicy {
    /// Count the line in [`IngestStats::parse_errors`] and continue.
    Skip,
    /// Stop the run with [`IngestError::Malformed`] /
    /// [`IngestError::Oversized`] — for feeds that must be clean.
    Abort,
    /// Append the raw line to the given writer (one line per record,
    /// reprocessable as a log file) and continue. Over-long lines, whose
    /// bytes were already discarded, are recorded as a `#`-prefixed
    /// marker comment instead.
    Quarantine(Box<dyn Write + Send>),
}

impl ErrorPolicy {
    /// Quarantines malformed lines to any writer.
    ///
    /// ```
    /// use divscrape_ingest::ErrorPolicy;
    ///
    /// let policy = ErrorPolicy::quarantine_to(Vec::new());
    /// assert!(matches!(policy, ErrorPolicy::Quarantine(_)));
    /// ```
    pub fn quarantine_to(writer: impl Write + Send + 'static) -> Self {
        ErrorPolicy::Quarantine(Box::new(writer))
    }

    /// Quarantines malformed lines to a file, appending if it exists.
    ///
    /// # Errors
    ///
    /// Fails when the file cannot be opened for append.
    pub fn quarantine_file(path: impl AsRef<std::path::Path>) -> io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(ErrorPolicy::Quarantine(Box::new(io::BufWriter::new(file))))
    }
}

impl std::fmt::Debug for ErrorPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ErrorPolicy::Skip => f.write_str("Skip"),
            ErrorPolicy::Abort => f.write_str("Abort"),
            ErrorPolicy::Quarantine(_) => f.write_str("Quarantine(..)"),
        }
    }
}

/// Counters describing one driver's ingestion so far — the source-side
/// complement of [`PipelineStats`]. Cumulative across
/// [`run`](IngestDriver::run)s of the same driver.
///
/// ```
/// use divscrape_ingest::IngestStats;
///
/// let stats = IngestStats::default();
/// assert_eq!(stats.lines_read, 0);
/// assert_eq!(stats.blocked_in_push, std::time::Duration::ZERO);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Lines received from the source (well-formed or not, including
    /// over-long discards).
    pub lines_read: u64,
    /// Entries parsed and pushed into the pipeline.
    pub entries_ingested: u64,
    /// Lines that failed Combined Log Format parsing.
    pub parse_errors: u64,
    /// Over-long lines the source's framer discarded.
    pub oversized_lines: u64,
    /// Malformed lines written to the quarantine.
    pub quarantined: u64,
    /// High-water mark of the source's reported backlog
    /// ([`LogSource::backlog`]) — how far ingestion lagged the producer,
    /// in source units (bytes for a file tail, entries for a replay).
    /// Sampled (every idle tick and once per 1024 lines), not exact.
    pub max_source_backlog: u64,
    /// Total time spent inside [`Pipeline::push_line`]. Pushes are
    /// cheap in-place parses until the worker pool saturates, so this is
    /// in effect the time ingestion spent blocked on pipeline
    /// backpressure.
    pub blocked_in_push: Duration,
    /// Total time spent waiting on a quiet source.
    pub source_wait: Duration,
}

/// Why an [`IngestDriver::run`] stopped ingesting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndReason {
    /// The source reported [`SourceEvent::Eof`](crate::SourceEvent::Eof).
    SourceExhausted,
    /// A [`StopHandle`] requested shutdown.
    Stopped,
}

/// Everything an [`IngestDriver::run`] produced: the drained pipeline
/// report plus source-side and pipeline-side telemetry.
#[derive(Debug)]
pub struct IngestReport {
    /// The adjudicated alert vectors for every entry ingested by this
    /// run (and any entries pushed since the pipeline's last drain).
    pub report: PipelineReport,
    /// Source-side counters, cumulative for the driver.
    pub stats: IngestStats,
    /// The pipeline's operational counters at drain time.
    pub pipeline: PipelineStats,
    /// Why ingestion ended.
    pub end: EndReason,
}

/// Why an [`IngestDriver::run`] failed.
#[derive(Debug)]
pub enum IngestError {
    /// The source failed unrecoverably.
    Source(io::Error),
    /// A line failed to parse under [`ErrorPolicy::Abort`].
    Malformed {
        /// 1-based position of the line in this driver's feed.
        line_no: u64,
        /// The offending raw line.
        line: String,
        /// The parse failure.
        source: ParseLogError,
    },
    /// The source discarded an over-long line under
    /// [`ErrorPolicy::Abort`].
    Oversized {
        /// 1-based position of the line in this driver's feed.
        line_no: u64,
        /// Bytes of line content discarded.
        dropped_bytes: usize,
    },
    /// The quarantine writer failed.
    Quarantine(io::Error),
    /// The checkpoint sidecar could not be committed during
    /// [`IngestDriver::run_checkpointed`].
    Checkpoint(io::Error),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Source(e) => write!(f, "log source failed: {e}"),
            IngestError::Malformed {
                line_no, source, ..
            } => write!(f, "malformed line {line_no}: {source}"),
            IngestError::Oversized {
                line_no,
                dropped_bytes,
            } => write!(
                f,
                "line {line_no} exceeded the length cap ({dropped_bytes} bytes dropped)"
            ),
            IngestError::Quarantine(e) => write!(f, "quarantine writer failed: {e}"),
            IngestError::Checkpoint(e) => write!(f, "checkpoint commit failed: {e}"),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Source(e) | IngestError::Quarantine(e) | IngestError::Checkpoint(e) => {
                Some(e)
            }
            IngestError::Malformed { source, .. } => Some(source),
            IngestError::Oversized { .. } => None,
        }
    }
}

/// Requests a graceful stop of a running [`IngestDriver`] from another
/// thread: the driver stops pulling from the source, drains the
/// pipeline (every entry already ingested is adjudicated and delivered
/// to the sinks) and returns its [`IngestReport`].
///
/// ```
/// use divscrape_ingest::{IngestDriver, StopHandle};
/// use divscrape_detect::Sentinel;
/// use divscrape_pipeline::PipelineBuilder;
///
/// let pipeline = PipelineBuilder::new().detector(Sentinel::stock()).build()?;
/// let driver = IngestDriver::new(pipeline);
/// let handle: StopHandle = driver.stop_handle();
/// assert!(!handle.is_stopped());
/// handle.stop(); // the next driver tick notices and drains
/// assert!(handle.is_stopped());
/// # Ok::<(), divscrape_pipeline::BuildError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StopHandle(Arc<AtomicBool>);

impl StopHandle {
    /// Wraps a shared stop flag (crate-internal: drivers hand these
    /// out).
    pub(crate) fn from_flag(flag: Arc<AtomicBool>) -> Self {
        StopHandle(flag)
    }

    /// Requests the stop. Idempotent; effective within one driver tick.
    pub fn stop(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether a stop has been requested.
    pub fn is_stopped(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Pumps a [`LogSource`] into a [`Pipeline`]: the composition root of
/// live ingestion. Owns the pipeline; parse failures go through the
/// configured [`ErrorPolicy`], a [`StopHandle`] ends ingestion
/// gracefully (drain, not drop), and [`IngestStats`] accounts for every
/// line on the way through.
///
/// ```
/// use divscrape_detect::{Arcane, Sentinel};
/// use divscrape_ingest::{EndReason, IngestDriver, Replay, ReplayPace};
/// use divscrape_pipeline::{Adjudication, PipelineBuilder};
/// use divscrape_traffic::{generate, ScenarioConfig};
///
/// let log = generate(&ScenarioConfig::tiny(42)).map_err(|e| e.to_string())?;
/// let pipeline = PipelineBuilder::new()
///     .detector(Sentinel::stock())
///     .detector(Arcane::stock())
///     .adjudication(Adjudication::k_of_n(1))
///     .build()
///     .map_err(|e| e.to_string())?;
///
/// let mut driver = IngestDriver::new(pipeline);
/// let mut source = Replay::from_entries(log.entries(), ReplayPace::Unlimited);
/// let outcome = driver.run(&mut source).map_err(|e| e.to_string())?;
///
/// assert_eq!(outcome.end, EndReason::SourceExhausted);
/// assert_eq!(outcome.stats.entries_ingested, log.len() as u64);
/// assert_eq!(outcome.report.requests(), log.len());
/// # Ok::<(), String>(())
/// ```
#[derive(Debug)]
pub struct IngestDriver {
    pipeline: Pipeline,
    policy: ErrorPolicy,
    tick: Duration,
    stop: Arc<AtomicBool>,
    stats: IngestStats,
    checkpoint_every: u64,
}

impl IngestDriver {
    /// A driver over `pipeline` with [`ErrorPolicy::Skip`] and the
    /// default tick.
    pub fn new(pipeline: Pipeline) -> Self {
        Self {
            pipeline,
            policy: ErrorPolicy::Skip,
            tick: DEFAULT_TICK,
            stop: Arc::new(AtomicBool::new(false)),
            stats: IngestStats::default(),
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
        }
    }

    /// Sets the malformed-line policy (default: [`ErrorPolicy::Skip`]).
    #[must_use]
    pub fn error_policy(mut self, policy: ErrorPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the source poll timeout — the upper bound on how long a stop
    /// request can go unnoticed while the source is quiet (default
    /// 25ms). Before each such wait the driver hands the pipeline what
    /// it pushed ([`Pipeline::park_for`]: group commit), so a source
    /// that goes quiet has its last lines adjudicated before the driver
    /// parks, not a tick or a deadline later.
    /// [`max_delay`](divscrape_pipeline::PipelineBuilder::max_delay)
    /// only bounds callers that push and never park; here it matters
    /// only while the source never runs dry. The driver waits for less
    /// than the tick while chunks are in flight on the pipeline's pool.
    #[must_use]
    pub fn tick(mut self, tick: Duration) -> Self {
        self.tick = tick.max(Duration::from_millis(1));
        self
    }

    /// Sets how many ingested entries
    /// [`run_checkpointed`](Self::run_checkpointed) lets accumulate
    /// between commits (default 1024; clamped to at least 1). Smaller
    /// values bound the replay after a crash; larger ones amortize the
    /// drain barrier each commit implies.
    #[must_use]
    pub fn checkpoint_every(mut self, entries: u64) -> Self {
        self.checkpoint_every = entries.max(1);
        self
    }

    /// A handle that stops a [`run`](Self::run) from another thread.
    pub fn stop_handle(&self) -> StopHandle {
        StopHandle::from_flag(Arc::clone(&self.stop))
    }

    /// Source-side counters so far (cumulative across runs).
    pub fn stats(&self) -> IngestStats {
        self.stats.clone()
    }

    /// The driven pipeline.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Mutable access to the driven pipeline (e.g. to
    /// [`reset`](Pipeline::reset) between runs).
    pub fn pipeline_mut(&mut self) -> &mut Pipeline {
        &mut self.pipeline
    }

    /// Releases the pipeline, detector state intact.
    pub fn into_pipeline(self) -> Pipeline {
        self.pipeline
    }

    /// Pumps `source` into the pipeline until the source is exhausted or
    /// a [`StopHandle`] fires, then **drains**: every ingested entry is
    /// adjudicated, delivered to the sinks (which are flushed) and
    /// accounted in the returned [`IngestReport`]. Detector state
    /// persists across runs, so consecutive runs continue one logical
    /// stream. A stop requested while no run is active is not lost: the
    /// next run observes it immediately (each run consumes one stop
    /// request).
    ///
    /// # Errors
    ///
    /// Returns [`IngestError`] when the source fails, the quarantine
    /// writer fails, or a malformed line arrives under
    /// [`ErrorPolicy::Abort`]. Entries ingested before the failure stay
    /// in the pipeline (not drained), so a caller can recover and
    /// continue or drain manually.
    pub fn run<S: LogSource + ?Sized>(
        &mut self,
        source: &mut S,
    ) -> Result<IngestReport, IngestError> {
        let end = self.pump(source);
        // Flush the quarantine on *every* exit, error paths included —
        // the most recent rejected lines are exactly what an operator
        // diagnosing the failure needs to see on disk.
        if let ErrorPolicy::Quarantine(writer) = &mut self.policy {
            writer.flush().map_err(IngestError::Quarantine)?;
        }
        let end = end?;
        let report = self.pipeline.drain();
        Ok(IngestReport {
            report,
            stats: self.stats.clone(),
            pipeline: self.pipeline.stats(),
            end,
        })
    }

    /// Like [`run`](Self::run), but drives a **transactional**
    /// [`FileTail`] (see
    /// [`FileTail::with_transactional_checkpoint`]) with exactly-once
    /// commit ordering: every [`checkpoint_every`](Self::checkpoint_every)
    /// ingested entries — and at every idle tick with uncommitted work,
    /// and once more at the end — the driver first **drains the
    /// pipeline** (all in-flight chunks adjudicated, sinks delivered and
    /// flushed; a `StoreSink`'s records are durable) and only then calls
    /// [`FileTail::checkpoint_now`]. The sidecar therefore never claims
    /// delivery of a line whose records are not on disk, which is the
    /// invariant that makes kill → restart → re-read produce a store
    /// bit-identical to an uninterrupted run.
    ///
    /// The intermediate drains add chunk boundaries, which never change
    /// verdicts under a static adjudication rule (chunking is
    /// verdict-neutral). Under **online recalibration**, weight updates
    /// land between chunks, so extra boundaries can shift *when* an
    /// update takes effect — pin exactly-once claims with a static rule,
    /// or replay the recorded schedule
    /// ([`Pipeline::rule_updates`](divscrape_pipeline::Pipeline::rule_updates)).
    ///
    /// The returned report concatenates the per-commit drains in feed
    /// order, so it covers the whole run exactly like [`run`](Self::run)
    /// would.
    ///
    /// ```
    /// use divscrape_detect::Sentinel;
    /// use divscrape_ingest::{EndReason, FileTail, IngestDriver};
    /// use divscrape_pipeline::{Adjudication, PipelineBuilder};
    ///
    /// let dir = std::env::temp_dir();
    /// let path = dir.join(format!("divscrape-runckpt-doc-{}.log", std::process::id()));
    /// let sidecar = dir.join(format!("divscrape-runckpt-doc-{}.ckpt", std::process::id()));
    /// let line = r#"10.0.0.1 - - [11/Mar/2018:00:00:00 +0000] "GET / HTTP/1.1" 200 12 "-" "curl/7.58.0""#;
    /// std::fs::write(&path, format!("{line}\n{line}\n"))?;
    ///
    /// let pipeline = PipelineBuilder::new()
    ///     .detector(Sentinel::stock())
    ///     .adjudication(Adjudication::k_of_n(1))
    ///     .build()
    ///     .map_err(|e| std::io::Error::other(e.to_string()))?;
    /// let mut driver = IngestDriver::new(pipeline).checkpoint_every(1);
    /// let mut tail = FileTail::read_to_end(&path)?.with_transactional_checkpoint(&sidecar)?;
    ///
    /// let outcome = driver.run_checkpointed(&mut tail)
    ///     .map_err(|e| std::io::Error::other(e.to_string()))?;
    /// assert_eq!(outcome.end, EndReason::SourceExhausted);
    /// assert_eq!(outcome.report.requests(), 2);
    /// assert_eq!(tail.lines_delivered(), 2);
    /// std::fs::remove_file(&path)?;
    /// std::fs::remove_file(&sidecar)?;
    /// # Ok::<(), std::io::Error>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Everything [`run`](Self::run) can return, plus
    /// [`IngestError::Checkpoint`] when a sidecar commit fails. Entries
    /// drained by earlier commits are already accounted and durable;
    /// entries pushed after the last commit stay in the pipeline.
    pub fn run_checkpointed(&mut self, tail: &mut FileTail) -> Result<IngestReport, IngestError> {
        let mut acc = ReportAccumulator::default();
        let end = self.pump_checkpointed(tail, &mut acc);
        // Flush the quarantine on every exit, error paths included (see
        // `run`).
        if let ErrorPolicy::Quarantine(writer) = &mut self.policy {
            writer.flush().map_err(IngestError::Quarantine)?;
        }
        let end = end?;
        // Final commit: drain whatever the last interval left, then
        // record the fully-delivered position.
        self.commit(tail, &mut acc)?;
        Ok(IngestReport {
            report: acc.into_report(),
            stats: self.stats.clone(),
            pipeline: self.pipeline.stats(),
            end,
        })
    }

    /// The ingestion loop of
    /// [`run_checkpointed`](Self::run_checkpointed): [`pump`](Self::pump)
    /// plus periodic drain-then-checkpoint commits.
    fn pump_checkpointed(
        &mut self,
        tail: &mut FileTail,
        acc: &mut ReportAccumulator,
    ) -> Result<EndReason, IngestError> {
        let mut uncommitted: u64 = 0;
        let mut scratch = String::new();
        loop {
            if self.stop.swap(false, Ordering::AcqRel) {
                return Ok(EndReason::Stopped);
            }
            if self.stats.lines_read.is_multiple_of(1024) {
                self.sample_backlog(tail);
            }
            let mut commit_due = false;
            // Group commit, as in `pump`.
            let mut event = tail
                .poll_ref(Duration::ZERO, &mut scratch)
                .map_err(IngestError::Source)?;
            if matches!(event, SourceEventRef::Idle) {
                let wait = self.pipeline.park_for(self.tick);
                let polled = Instant::now();
                event = tail
                    .poll_ref(wait, &mut scratch)
                    .map_err(IngestError::Source)?;
                if matches!(event, SourceEventRef::Idle) {
                    self.stats.source_wait += polled.elapsed();
                }
            }
            match event {
                SourceEventRef::Line(line) => {
                    self.stats.lines_read += 1;
                    let pushed = Instant::now();
                    let outcome = self.pipeline.push_line(line);
                    match outcome {
                        Ok(()) => {
                            self.stats.blocked_in_push += pushed.elapsed();
                            self.stats.entries_ingested += 1;
                            uncommitted += 1;
                            commit_due = uncommitted >= self.checkpoint_every;
                        }
                        Err(err) => {
                            self.stats.parse_errors += 1;
                            // The only owned copy of the line, made on
                            // the error path alone.
                            let line = line.to_owned();
                            handle_malformed(&mut self.policy, &mut self.stats, line, err)?;
                        }
                    }
                }
                SourceEventRef::Truncated { dropped_bytes } => {
                    self.stats.lines_read += 1;
                    self.stats.oversized_lines += 1;
                    handle_oversized(&mut self.policy, &mut self.stats, dropped_bytes)?;
                }
                SourceEventRef::Idle => {
                    self.sample_backlog(tail);
                    // A quiet source is the cheapest moment to commit:
                    // nothing is waiting behind the drain barrier.
                    commit_due = uncommitted > 0;
                }
                SourceEventRef::Eof => return Ok(EndReason::SourceExhausted),
            }
            // Outside the match: the polled line's borrow of `tail` must
            // end before `commit` can checkpoint it.
            if commit_due {
                self.commit(tail, acc)?;
                uncommitted = 0;
            }
        }
    }

    /// One transactional commit: drain the pipeline (records durable),
    /// then persist the tail's position. Strictly in that order — the
    /// sidecar must never run ahead of the store.
    fn commit(
        &mut self,
        tail: &mut FileTail,
        acc: &mut ReportAccumulator,
    ) -> Result<(), IngestError> {
        acc.absorb(self.pipeline.drain());
        tail.checkpoint_now().map_err(IngestError::Checkpoint)
    }

    /// The ingestion loop of [`run`](Self::run): pulls source events
    /// until EOF, a stop request, or a failure.
    fn pump<S: LogSource + ?Sized>(&mut self, source: &mut S) -> Result<EndReason, IngestError> {
        // One scratch buffer serves the whole run: sources without a
        // borrowed fast path land each polled line here instead of the
        // driver copying it onward.
        let mut scratch = String::new();
        loop {
            // `swap` consumes the request: a stop raised before this run
            // even started still ends it (never silently discarded), and
            // the next run starts fresh.
            if self.stop.swap(false, Ordering::AcqRel) {
                return Ok(EndReason::Stopped);
            }
            // `backlog` can cost a syscall (FileTail stats the path), so
            // sample the lag gauge instead of paying it per line: on
            // every idle tick, and once per 1024 lines while busy.
            if self.stats.lines_read.is_multiple_of(1024) {
                self.sample_backlog(&*source);
            }
            // Group commit: a line already waiting is taken at once.
            // Only when the source has nothing does the pipeline get
            // what it buffered (`park_for` submits it), and only then
            // does the driver wait on the source — for the configured
            // tick, or less while chunks are in flight on the pool. A
            // source that goes quiet so has its tail adjudicated before
            // the driver's first wait, whatever `max_delay` says.
            let mut event = source
                .poll_ref(Duration::ZERO, &mut scratch)
                .map_err(IngestError::Source)?;
            if matches!(event, SourceEventRef::Idle) {
                let wait = self.pipeline.park_for(self.tick);
                let polled = Instant::now();
                event = source
                    .poll_ref(wait, &mut scratch)
                    .map_err(IngestError::Source)?;
                if matches!(event, SourceEventRef::Idle) {
                    self.stats.source_wait += polled.elapsed();
                }
            }
            match event {
                SourceEventRef::Line(line) => {
                    self.stats.lines_read += 1;
                    let pushed = Instant::now();
                    // The borrowed line parses in place inside the
                    // pipeline's entry arena — no owned `LogEntry` is
                    // built on the ingest path.
                    let outcome = self.pipeline.push_line(line);
                    match outcome {
                        Ok(()) => {
                            self.stats.blocked_in_push += pushed.elapsed();
                            self.stats.entries_ingested += 1;
                        }
                        Err(err) => {
                            self.stats.parse_errors += 1;
                            // The only owned copy of the line, made on
                            // the error path alone.
                            let line = line.to_owned();
                            handle_malformed(&mut self.policy, &mut self.stats, line, err)?;
                        }
                    }
                }
                SourceEventRef::Truncated { dropped_bytes } => {
                    self.stats.lines_read += 1;
                    self.stats.oversized_lines += 1;
                    handle_oversized(&mut self.policy, &mut self.stats, dropped_bytes)?;
                }
                SourceEventRef::Idle => {
                    self.sample_backlog(&*source);
                }
                SourceEventRef::Eof => return Ok(EndReason::SourceExhausted),
            }
        }
    }

    /// Updates the source-lag high-water mark.
    fn sample_backlog<S: LogSource + ?Sized>(&mut self, source: &S) {
        if let Some(backlog) = source.backlog() {
            self.stats.max_source_backlog = self.stats.max_source_backlog.max(backlog);
        }
    }
}

/// Concatenates the per-commit [`PipelineReport`]s of a
/// [`run_checkpointed`](IngestDriver::run_checkpointed) back into one
/// report covering the whole feed, in feed order. Labels (rule name,
/// detector names) come from the first drain; every pipeline drain of
/// the same pipeline carries the same ones.
#[derive(Default)]
struct ReportAccumulator(Option<PipelineReport>);

impl ReportAccumulator {
    /// Appends one drain's vectors.
    fn absorb(&mut self, report: PipelineReport) {
        let Some(whole) = &mut self.0 else {
            self.0 = Some(report);
            return;
        };
        whole.combined.append(&report.combined);
        for (whole, member) in whole.members.iter_mut().zip(&report.members) {
            whole.append(member);
        }
    }

    /// The concatenated report.
    fn into_report(self) -> PipelineReport {
        self.0
            .expect("the final commit always absorbs at least one drain")
    }
}

/// Applies the [`ErrorPolicy`] to a malformed line.
fn handle_malformed(
    policy: &mut ErrorPolicy,
    stats: &mut IngestStats,
    line: String,
    source: ParseLogError,
) -> Result<(), IngestError> {
    match policy {
        ErrorPolicy::Skip => Ok(()),
        ErrorPolicy::Abort => Err(IngestError::Malformed {
            line_no: stats.lines_read,
            line,
            source,
        }),
        ErrorPolicy::Quarantine(writer) => {
            writeln!(writer, "{line}").map_err(IngestError::Quarantine)?;
            stats.quarantined += 1;
            Ok(())
        }
    }
}

/// Applies the [`ErrorPolicy`] to an oversized-line discard.
fn handle_oversized(
    policy: &mut ErrorPolicy,
    stats: &mut IngestStats,
    dropped_bytes: usize,
) -> Result<(), IngestError> {
    match policy {
        ErrorPolicy::Skip => Ok(()),
        ErrorPolicy::Abort => Err(IngestError::Oversized {
            line_no: stats.lines_read,
            dropped_bytes,
        }),
        ErrorPolicy::Quarantine(writer) => {
            // The bytes are gone; leave a marker that is invisible to
            // a reprocessing run (parse-wise) yet greppable.
            writeln!(
                writer,
                "# divscrape-ingest: oversized line dropped ({dropped_bytes} bytes)"
            )
            .map_err(IngestError::Quarantine)?;
            stats.quarantined += 1;
            Ok(())
        }
    }
}
