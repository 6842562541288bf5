//! Alert sinks: where adjudicated alerts go.
//!
//! Beyond the in-memory [`CountingSink`]/[`CollectingSink`] test
//! helpers, three production backends ship: [`JsonLinesSink`] (append
//! alerts to a file, one JSON object per line), [`TcpSink`] (stream the
//! same lines to a TCP collector, optionally spooling to disk while the
//! collector is down) and [`StoreSink`](crate::StoreSink) (append to the
//! embedded durable store) — so a pipeline can be file/socket in *and*
//! file/socket/store out.

use std::io::{self, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use divscrape_detect::TenantId;
use divscrape_httplog::json::{push_json_escaped, JsonEscaped};
use divscrape_httplog::LogEntry;
use divscrape_store::{SpoolQueue, StoreConfig};

use crate::record::{parse_alert_record, AlertParseError, AlertRecord};
use crate::store_sink::RecordPolicy;

/// One adjudicated alert, borrowed from the chunk being flushed.
#[derive(Debug, Clone, Copy)]
pub struct Alert<'a> {
    /// 0-based position of the entry in the pipeline's feed order
    /// (per-shard feed order, for a tenant shard's pipeline inside a
    /// service plane).
    pub index: u64,
    /// The tenant whose pipeline raised the alert
    /// ([`PipelineBuilder::tenant`](crate::PipelineBuilder::tenant));
    /// `None` for single-tenant deployments.
    pub tenant: Option<&'a TenantId>,
    /// The alerting log entry.
    pub entry: &'a LogEntry,
    /// Which members voted to alert, in composition order.
    pub votes: &'a [bool],
    /// Per-member confidence scores
    /// ([`Verdict::confidence`](divscrape_detect::Verdict::confidence)),
    /// in composition order — the verdict metadata behind the votes, so
    /// downstream triage can rank alerts by how firmly each member held
    /// its position.
    pub scores: &'a [f32],
}

impl Alert<'_> {
    /// Number of members that voted to alert.
    pub fn vote_count(&self) -> usize {
        self.votes.iter().filter(|v| **v).count()
    }

    /// Renders this alert as one self-contained JSON object (no trailing
    /// newline) — the line format of [`JsonLinesSink`] and [`TcpSink`].
    ///
    /// Fields: `index` (feed order), `tenant` (only when the pipeline is
    /// tenant-labelled), `time` (CLF timestamp), `client`, `agent`,
    /// `method`, `path`, `status`, `votes`, `scores` (per-member
    /// confidence, parallel to `votes`).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(160);
        self.write_json(&mut out);
        out
    }

    /// Appends the [`to_json`](Self::to_json) rendering to `out` — what
    /// the I/O sinks call, each into one line buffer it reuses, so a
    /// delivered alert allocates nothing.
    pub fn write_json(&self, out: &mut String) {
        push_head(out, self.index, self.tenant);
        out.push_str(",\"time\":\"");
        // A CLF timestamp, a dotted quad and a method token hold
        // nothing JSON escapes.
        push_display(out, &self.entry.timestamp());
        out.push_str("\",\"client\":\"");
        push_ipv4(out, self.entry.addr());
        out.push_str("\",\"agent\":\"");
        push_json_escaped(out, self.entry.user_agent().as_str());
        out.push_str("\",\"method\":\"");
        out.push_str(self.entry.request().method().as_str());
        out.push_str("\",\"path\":\"");
        push_json_escaped(out, self.entry.request().path().as_str());
        out.push_str("\",\"status\":");
        push_display(out, &self.entry.status().as_u16());
        out.push_str(",\"votes\":");
        push_votes(out, self.votes);
        out.push_str(",\"scores\":");
        push_scores(out, self.scores);
        out.push('}');
    }

    /// Parses one [`to_json`](Self::to_json) line back into an owned
    /// [`AlertRecord`] — the inverse used by collectors and the retro
    /// tool. Round-trips byte-for-byte: `record.to_json()` reproduces
    /// the input line.
    ///
    /// # Errors
    ///
    /// Returns [`AlertParseError`] on malformed JSON, unknown fields or
    /// missing required fields.
    ///
    /// ```
    /// use divscrape_pipeline::Alert;
    ///
    /// let line = r#"{"index":0,"time":"11/Mar/2018:06:25:14 +0000","client":"10.0.0.9","agent":"curl","method":"GET","path":"/","status":200,"votes":[true],"scores":[0.80]}"#;
    /// let record = Alert::from_json(line)?;
    /// assert_eq!(record.scores, vec![0.8]);
    /// assert_eq!(record.to_json(), line);
    /// # Ok::<(), divscrape_pipeline::AlertParseError>(())
    /// ```
    pub fn from_json(json: &str) -> Result<AlertRecord, AlertParseError> {
        parse_alert_record(json)
    }
}

/// Opens a sink line: `{"index":N` plus the tenant field when labelled.
pub(crate) fn push_head(out: &mut String, index: u64, tenant: Option<&TenantId>) {
    out.push_str("{\"index\":");
    push_display(out, &index);
    if let Some(tenant) = tenant {
        out.push_str(",\"tenant\":\"");
        push_json_escaped(out, tenant.as_str());
        out.push('"');
    }
}

/// Appends `value`'s `Display` rendering to `out`, no temporary.
pub(crate) fn push_display(out: &mut String, value: &dyn std::fmt::Display) {
    use std::fmt::Write as _;
    // Formatting into a String cannot fail.
    let _ = write!(out, "{value}");
}

/// Appends `addr` as a dotted quad — `Ipv4Addr`'s `Display`, digit by
/// digit instead of through the formatter.
pub(crate) fn push_ipv4(out: &mut String, addr: std::net::Ipv4Addr) {
    let mut quad = [b'.'; 15];
    let mut len = 0;
    for (i, octet) in addr.octets().into_iter().enumerate() {
        len += usize::from(i > 0); // the dot already there
        if octet >= 100 {
            quad[len] = b'0' + octet / 100;
            len += 1;
        }
        if octet >= 10 {
            quad[len] = b'0' + octet / 10 % 10;
            len += 1;
        }
        quad[len] = b'0' + octet % 10;
        len += 1;
    }
    out.push_str(std::str::from_utf8(&quad[..len]).expect("digits and dots are ASCII"));
}

/// Renders `votes` as a JSON bool array, appending to `out`.
pub(crate) fn push_votes(out: &mut String, votes: &[bool]) {
    out.push('[');
    for (i, vote) in votes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(if *vote { "true" } else { "false" });
    }
    out.push(']');
}

/// Renders `scores` as a JSON number array with two decimals, appending
/// to `out`. Two decimals keep the line compact; confidences live in
/// [0, 1] so nothing is lost that triage would rank by.
pub(crate) fn push_scores(out: &mut String, scores: &[f32]) {
    out.push('[');
    for (i, score) in scores.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_score(out, *score);
    }
    out.push(']');
}

/// Appends `{score:.2}`. Inside [0, 1] — where confidences live — the
/// digits come from integer arithmetic: an `f32` times 100 is exact in
/// `f64` (24 + 7 significant bits), so rounding that product half to
/// even rounds the exact decimal expansion, which is what the formatter
/// does. Everything else (negatives and `-0.0`, values above 1, NaN)
/// takes the formatter.
fn push_score(out: &mut String, score: f32) {
    // Non-negative floats order like their bit patterns, so this is
    // exactly +0.0 ..= 1.0.
    if score.to_bits() > 1.0f32.to_bits() {
        use std::fmt::Write as _;
        // Formatting into a String cannot fail.
        let _ = write!(out, "{score:.2}");
        return;
    }
    let hundredths = (f64::from(score) * 100.0).round_ties_even() as u8;
    let digits = [
        b'0' + hundredths / 100,
        b'.',
        b'0' + hundredths / 10 % 10,
        b'0' + hundredths % 10,
    ];
    out.push_str(std::str::from_utf8(&digits).expect("digits and a dot are ASCII"));
}

/// One finalized entry with its member votes and scores — alerting or
/// not — delivered to sinks that opted in via
/// [`AlertSink::entry_policy`]. This is the full per-entry history the
/// durable store keeps so offline tooling can re-adjudicate it.
#[derive(Debug, Clone, Copy)]
pub struct ScoredEntry<'a> {
    /// 0-based position of the entry in the pipeline's feed order.
    pub index: u64,
    /// The owning tenant, `None` for single-tenant deployments.
    pub tenant: Option<&'a TenantId>,
    /// The finalized log entry.
    pub entry: &'a LogEntry,
    /// Whether the live rule alerted on this entry.
    pub alerted: bool,
    /// Which members voted to alert, in composition order.
    pub votes: &'a [bool],
    /// Per-member confidence scores, parallel to `votes`.
    pub scores: &'a [f32],
}

impl ScoredEntry<'_> {
    /// Renders this record as one self-contained JSON object (no
    /// trailing newline), carrying the entry's full CLF `line` so the
    /// entry can be re-parsed offline. The inverse is
    /// [`ScoreRecord::from_json`](crate::ScoreRecord::from_json).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(200);
        self.write_json(&mut out);
        out
    }

    /// Appends the [`to_json`](Self::to_json) rendering to `out` (see
    /// [`Alert::write_json`]).
    pub fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        push_head(out, self.index, self.tenant);
        out.push_str(",\"alerted\":");
        out.push_str(if self.alerted { "true" } else { "false" });
        out.push_str(",\"votes\":");
        push_votes(out, self.votes);
        out.push_str(",\"scores\":");
        push_scores(out, self.scores);
        out.push_str(",\"line\":\"");
        // The CLF line is escaped as the entry renders it, piece by
        // piece; formatting into a String cannot fail.
        let _ = write!(JsonEscaped(out), "{}", self.entry);
        out.push_str("\"}");
    }
}

/// Renders `alert` plus a newline into the sink's reused line buffer,
/// taken out of its slot so the sink can be borrowed while the line is
/// written; the caller puts it back.
fn render_line(slot: &mut String, alert: &Alert<'_>) -> String {
    let mut line = std::mem::take(slot);
    line.clear();
    alert.write_json(&mut line);
    line.push('\n');
    line
}

/// Receives every adjudicated alert, in feed order.
///
/// Sinks run on the pipeline's driver thread when a finished chunk is
/// finalized (chunks finalize strictly in feed order, so alerts arrive in
/// feed order even under multi-worker execution). A slow sink slows the
/// driver and therefore backpressures the pipeline, which is the honest
/// behavior for an alerting stage. Closures qualify: any
/// `FnMut(&Alert) + Send` is a sink.
pub trait AlertSink: Send {
    /// Called once per adjudicated alert. `alert.entry` is a scratch the
    /// pipeline re-assembles in place for every position it shows a
    /// sink: valid only for this call — a sink that keeps the entry
    /// clones it.
    fn on_alert(&mut self, alert: &Alert<'_>);

    /// Called at the end of every [`Pipeline::drain`](crate::Pipeline::drain),
    /// after the last chunk's alerts were delivered. Buffering sinks
    /// (files, sockets) flush here so a drained pipeline's alerts are
    /// durably out the door; the default is a no-op.
    fn flush(&mut self) {}

    /// Called once per finalized entry this sink asked for through
    /// [`entry_policy`](Self::entry_policy) — alerting or not. The store
    /// sink records these so stored history can be re-adjudicated
    /// offline; the default ignores them. As in
    /// [`on_alert`](Self::on_alert), `record.entry` is a scratch valid
    /// only for this call — a sink that keeps it clones it.
    fn on_entry(&mut self, _record: &ScoredEntry<'_>) {}

    /// Which finalized entries [`on_entry`](Self::on_entry) is shown:
    /// none, those that alerted or drew a member's vote, or all of them.
    /// The pipeline assembles an owned entry only when it alerted or some
    /// sink asked for it, so the default
    /// ([`RecordPolicy::AlertsOnly`]) keeps the common alert-only path
    /// free of the overhead, and a sink that skips quiet entries should
    /// say so here rather than discard them itself.
    fn entry_policy(&self) -> RecordPolicy {
        RecordPolicy::AlertsOnly
    }

    /// This sink's delivery counters, if it keeps any. Lets
    /// [`PipelineStats`](crate::PipelineStats) surface spool depth and
    /// replay progress without knowing concrete sink types.
    fn sink_telemetry(&self) -> Option<SinkTelemetry> {
        None
    }
}

impl<F: FnMut(&Alert<'_>) + Send> AlertSink for F {
    fn on_alert(&mut self, alert: &Alert<'_>) {
        self(alert)
    }
}

/// A sink that counts alerts, observable from outside the pipeline.
///
/// ```
/// use divscrape_pipeline::CountingSink;
///
/// let sink = CountingSink::new();
/// let handle = sink.handle();
/// // ... builder.sink(sink) ... run the pipeline ...
/// assert_eq!(handle.load(std::sync::atomic::Ordering::Relaxed), 0);
/// ```
#[derive(Debug, Default)]
pub struct CountingSink {
    count: Arc<AtomicU64>,
}

impl CountingSink {
    /// A sink with a fresh counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// A handle to the live counter; stays valid after the sink moves into
    /// a pipeline.
    pub fn handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.count)
    }
}

impl AlertSink for CountingSink {
    fn on_alert(&mut self, _alert: &Alert<'_>) {
        self.count.fetch_add(1, Ordering::Relaxed);
    }
}

/// A sink that records the feed-order indices of all alerts.
#[derive(Debug, Default)]
pub struct CollectingSink {
    indices: Arc<Mutex<Vec<u64>>>,
}

impl CollectingSink {
    /// A sink with a fresh store.
    pub fn new() -> Self {
        Self::default()
    }

    /// A handle to the live store; stays valid after the sink moves into a
    /// pipeline.
    pub fn handle(&self) -> Arc<Mutex<Vec<u64>>> {
        Arc::clone(&self.indices)
    }
}

impl AlertSink for CollectingSink {
    fn on_alert(&mut self, alert: &Alert<'_>) {
        self.indices
            .lock()
            .expect("sink store poisoned")
            .push(alert.index);
    }
}

/// Delivery counters shared by the I/O-backed sinks, observable from
/// outside the pipeline through [`SinkTelemetry`].
#[derive(Debug, Default)]
pub(crate) struct SinkCounters {
    pub(crate) written: AtomicU64,
    pub(crate) errors: AtomicU64,
    pub(crate) reconnects: AtomicU64,
    /// Alerts pushed to the disk spool (total, monotonic).
    pub(crate) spooled: AtomicU64,
    /// Current spool backlog depth (gauge).
    pub(crate) spool_depth: AtomicU64,
    /// Largest spool backlog observed, in bytes.
    pub(crate) spool_bytes_hw: AtomicU64,
    /// Spooled alerts later delivered to the collector.
    pub(crate) replayed: AtomicU64,
}

/// A live view of an I/O sink's delivery counters; stays valid after the
/// sink moves into a pipeline.
///
/// ```
/// use divscrape_pipeline::JsonLinesSink;
///
/// let sink = JsonLinesSink::new(Vec::new());
/// let telemetry = sink.telemetry();
/// // ... builder.sink(sink) ... run the pipeline ...
/// assert_eq!(telemetry.written(), 0);
/// assert_eq!(telemetry.errors(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct SinkTelemetry(pub(crate) Arc<SinkCounters>);

impl SinkTelemetry {
    /// Alerts successfully written so far.
    pub fn written(&self) -> u64 {
        self.0.written.load(Ordering::Acquire)
    }

    /// Write or flush failures so far. An I/O sink that fails keeps the
    /// pipeline running (alerting must not take detection down) and
    /// counts here instead.
    pub fn errors(&self) -> u64 {
        self.0.errors.load(Ordering::Acquire)
    }

    /// Successful reconnections so far ([`TcpSink`] only: a broken
    /// collector connection that was re-established).
    pub fn reconnects(&self) -> u64 {
        self.0.reconnects.load(Ordering::Acquire)
    }

    /// Alerts pushed to the disk spool so far ([`TcpSink`] with
    /// [`with_spool`](TcpSink::with_spool) only). Monotonic.
    pub fn spooled(&self) -> u64 {
        self.0.spooled.load(Ordering::Acquire)
    }

    /// Alerts currently queued in the disk spool (a gauge: rises while
    /// the collector is down, drains back to zero after reconnect).
    pub fn spool_depth(&self) -> u64 {
        self.0.spool_depth.load(Ordering::Acquire)
    }

    /// Largest spool backlog observed, in payload bytes (high-water
    /// mark; never decreases).
    pub fn spool_bytes_high_water(&self) -> u64 {
        self.0.spool_bytes_hw.load(Ordering::Acquire)
    }

    /// Spooled alerts that were later delivered to the collector — a
    /// rising number while a backlog drains after reconnect.
    pub fn replayed(&self) -> u64 {
        self.0.replayed.load(Ordering::Acquire)
    }
}

/// A sink that appends every adjudicated alert to a writer as one JSON
/// object per line ([`Alert::to_json`]), flushed on every
/// [`Pipeline::drain`](crate::Pipeline::drain).
///
/// Write failures are counted in [`SinkTelemetry::errors`] and otherwise
/// ignored: a full disk must not stop detection. With
/// [`with_spool`](Self::with_spool), failures *spool* instead of
/// dropping — point the spool at a different filesystem and a full disk
/// or an `EROFS` remount on the primary path costs nothing but latency.
///
/// ```
/// use divscrape_pipeline::JsonLinesSink;
///
/// // Usually a file: JsonLinesSink::append("alerts.jsonl")?. Any writer works:
/// let sink = JsonLinesSink::new(Vec::new());
/// let telemetry = sink.telemetry();
/// assert_eq!(telemetry.written(), 0);
/// ```
#[derive(Debug)]
pub struct JsonLinesSink<W: Write + Send> {
    out: W,
    counters: Arc<SinkCounters>,
    /// A second handle to the backing file (when there is one), kept so
    /// `flush` can `fdatasync` it when `fsync_on_flush` is enabled.
    sync_handle: Option<std::fs::File>,
    fsync_on_flush: bool,
    /// Disk spool ([`with_spool`](Self::with_spool)): lines the primary
    /// writer rejected queue here until a later write or flush succeeds
    /// in replaying them, oldest first.
    spool: Option<SpoolQueue>,
    /// The line being written, rendered here and reused.
    line: String,
}

impl JsonLinesSink<BufWriter<std::fs::File>> {
    /// Appends to the file at `path`, creating it if missing — the
    /// standard deployment (`alerts.jsonl`).
    ///
    /// # Errors
    ///
    /// Fails when the file cannot be opened for append.
    pub fn append(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let sync_handle = file.try_clone().ok();
        let mut sink = Self::new(BufWriter::new(file));
        sink.sync_handle = sync_handle;
        Ok(sink)
    }

    /// Opts in to an `fdatasync` on every [`flush`](AlertSink::flush)
    /// (i.e. every pipeline drain), so a crash after a drain cannot lose
    /// alerts that the OS had only buffered. Off by default: syncing
    /// costs latency and most deployments tolerate losing the final
    /// unsynced window on power failure.
    ///
    /// ```no_run
    /// use divscrape_pipeline::JsonLinesSink;
    ///
    /// let sink = JsonLinesSink::append("alerts.jsonl")?.fsync_on_flush(true);
    /// # Ok::<(), std::io::Error>(())
    /// ```
    pub fn fsync_on_flush(mut self, enabled: bool) -> Self {
        self.fsync_on_flush = enabled;
        self
    }
}

impl<W: Write + Send> JsonLinesSink<W> {
    /// Wraps any writer.
    pub fn new(out: W) -> Self {
        Self {
            out,
            counters: Arc::default(),
            sync_handle: None,
            fsync_on_flush: false,
            spool: None,
            line: String::new(),
        }
    }

    /// A live view of this sink's delivery counters.
    pub fn telemetry(&self) -> SinkTelemetry {
        SinkTelemetry(Arc::clone(&self.counters))
    }

    /// Adds a disk spool at `dir` (created if missing; an existing
    /// backlog is resumed): a line the primary writer rejects — disk
    /// full, `EROFS`, any I/O error — is pushed to the spool instead of
    /// dropped, and replayed oldest-first once writes succeed again.
    /// While a backlog exists, *new* lines also pass through the spool,
    /// so the primary file always receives the original order.
    ///
    /// Telemetry is counted exactly like [`TcpSink::with_spool`]:
    /// [`SinkTelemetry::spooled`]/[`spool_depth`](SinkTelemetry::spool_depth)/
    /// [`replayed`](SinkTelemetry::replayed) track the backlog, and
    /// [`SinkTelemetry::errors`] counts only spool I/O failures — a
    /// rejecting primary path with a healthy spool drops nothing.
    ///
    /// Put the spool on a *different* filesystem than the primary path;
    /// a spool sharing the primary's full disk fails with it.
    ///
    /// # Errors
    ///
    /// Fails when the spool directory cannot be created or its contents
    /// cannot be recovered.
    ///
    /// ```
    /// use divscrape_pipeline::JsonLinesSink;
    ///
    /// let dir = std::env::temp_dir().join(format!("jsonl-spool-doc-{}", std::process::id()));
    /// let sink = JsonLinesSink::new(Vec::new()).with_spool(&dir)?;
    /// assert_eq!(sink.telemetry().spool_depth(), 0);
    /// std::fs::remove_dir_all(&dir)?;
    /// # Ok::<(), std::io::Error>(())
    /// ```
    pub fn with_spool(mut self, dir: impl AsRef<Path>) -> io::Result<Self> {
        let spool = SpoolQueue::open(dir, StoreConfig::default())?;
        self.counters
            .spool_depth
            .store(spool.depth(), Ordering::Release);
        self.counters
            .spool_bytes_hw
            .fetch_max(spool.queued_bytes(), Ordering::AcqRel);
        self.spool = Some(spool);
        Ok(self)
    }

    /// Replays the spooled backlog into the primary writer, oldest
    /// first, stopping at the first write that still fails.
    fn drain_spool(&mut self) {
        let Some(mut spool) = self.spool.take() else {
            return;
        };
        while spool.depth() > 0 {
            let mut line = match spool.front() {
                Ok(Some(line)) => line,
                Ok(None) => break,
                Err(_) => {
                    self.counters.errors.fetch_add(1, Ordering::AcqRel);
                    break;
                }
            };
            line.push(b'\n');
            if self.out.write_all(&line).is_err() {
                // Primary still rejecting; the line stays queued.
                break;
            }
            self.counters.written.fetch_add(1, Ordering::AcqRel);
            self.counters.replayed.fetch_add(1, Ordering::AcqRel);
            if spool.pop_front().is_err() {
                self.counters.errors.fetch_add(1, Ordering::AcqRel);
                break;
            }
        }
        self.counters
            .spool_depth
            .store(spool.depth(), Ordering::Release);
        self.counters
            .spool_bytes_hw
            .fetch_max(spool.queued_bytes(), Ordering::AcqRel);
        self.spool = Some(spool);
    }

    /// Spool-mode line path: replay the backlog first (order!), then
    /// write directly when the backlog is clear, else spool this line.
    fn write_spooled(&mut self, line: &str) {
        self.drain_spool();
        let backlog = self
            .spool
            .as_ref()
            .map(SpoolQueue::depth)
            .unwrap_or_default();
        if backlog == 0 && self.out.write_all(line.as_bytes()).is_ok() {
            self.counters.written.fetch_add(1, Ordering::AcqRel);
            return;
        }
        let spool = self.spool.as_mut().expect("spool mode");
        match spool.push(line.trim_end_matches('\n').as_bytes()) {
            Ok(()) => {
                self.counters.spooled.fetch_add(1, Ordering::AcqRel);
            }
            Err(_) => {
                // Lost only when the spool itself fails too.
                self.counters.errors.fetch_add(1, Ordering::AcqRel);
            }
        }
        let spool = self.spool.as_ref().expect("spool mode");
        self.counters
            .spool_depth
            .store(spool.depth(), Ordering::Release);
        self.counters
            .spool_bytes_hw
            .fetch_max(spool.queued_bytes(), Ordering::AcqRel);
    }
}

impl<W: Write + Send> AlertSink for JsonLinesSink<W> {
    fn on_alert(&mut self, alert: &Alert<'_>) {
        let line = render_line(&mut self.line, alert);
        if self.spool.is_some() {
            self.write_spooled(&line);
        } else if self.out.write_all(line.as_bytes()).is_ok() {
            self.counters.written.fetch_add(1, Ordering::AcqRel);
        } else {
            self.counters.errors.fetch_add(1, Ordering::AcqRel);
        }
        self.line = line;
    }

    fn flush(&mut self) {
        // A drain is the natural recovery point: retry the backlog
        // before flushing, so a healed primary catches up at the next
        // pipeline drain even with no new alerts arriving.
        if self.spool.is_some() {
            self.drain_spool();
        }
        if self.out.flush().is_err() {
            self.counters.errors.fetch_add(1, Ordering::AcqRel);
        }
        if self.fsync_on_flush {
            if let Some(file) = &self.sync_handle {
                if file.sync_data().is_err() {
                    self.counters.errors.fetch_add(1, Ordering::AcqRel);
                }
            }
        }
    }

    fn sink_telemetry(&self) -> Option<SinkTelemetry> {
        Some(self.telemetry())
    }
}

/// A sink that streams every adjudicated alert to a TCP collector, one
/// JSON object per line ([`Alert::to_json`]) — the "aggregation
/// service" backend: point it at a log collector, an alert router, or
/// another divscrape instance's `SocketSource` (in `divscrape-ingest`).
///
/// Alerts are latency-sensitive, so each one is written to the socket
/// as it is adjudicated (one line per write, `TCP_NODELAY` set) — a
/// monitoring collector sees them live, not at the next drain.
///
/// A broken connection is survived, never fatal: the sink drops the dead
/// stream and attempts **one bounded-backoff reconnect per alert** — a
/// single [`connect_timeout`](TcpStream::connect_timeout)-bounded attempt
/// (the collector address is re-resolved first, so a DNS fail-over is
/// followed), gated by an exponential backoff window
/// ([`RECONNECT_BACKOFF_INITIAL`](Self::RECONNECT_BACKOFF_INITIAL) …
/// [`RECONNECT_BACKOFF_CAP`](Self::RECONNECT_BACKOFF_CAP)) so a dead
/// collector is not hammered on every alert. Only when the alert still
/// cannot be written — no live stream and no (permitted, successful)
/// reconnect — is it counted as dropped in [`SinkTelemetry::errors`];
/// successful re-establishments count in [`SinkTelemetry::reconnects`].
/// Alerts raised while the collector was down are *not* replayed — the
/// error count is the delivered stream's honest gap record. (TCP can
/// also buffer a handful of writes locally before noticing a dead peer;
/// those alerts are counted written but never arrive — an inherent
/// stream-socket limit.)
///
/// ```no_run
/// use divscrape_pipeline::TcpSink;
///
/// let sink = TcpSink::connect("alerts.internal:6514")?;
/// let telemetry = sink.telemetry();
/// // ... builder.sink(sink) ... later:
/// println!("delivered {} (+{} reconnects, {} dropped)",
///     telemetry.written(), telemetry.reconnects(), telemetry.errors());
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct TcpSink {
    /// Re-resolves the collector's address (captures what `connect` was
    /// given), so reconnection follows DNS fail-over. Shared so the
    /// resolution can run on a throwaway thread with a bounded wait.
    resolve: Arc<dyn Fn() -> std::io::Result<Vec<SocketAddr>> + Send + Sync>,
    /// Most recently resolved addresses — the fallback when a later
    /// re-resolution fails (DNS down along with the collector).
    addrs: Vec<SocketAddr>,
    stream: Option<TcpStream>,
    counters: Arc<SinkCounters>,
    /// Next reconnect delay (doubles per failed attempt, capped).
    backoff: Duration,
    /// No reconnect attempt before this instant.
    retry_at: Option<Instant>,
    /// Disk spool ([`with_spool`](Self::with_spool)): alerts queue here
    /// while the collector is unreachable and replay in order on
    /// reconnect.
    spool: Option<SpoolQueue>,
    /// The line being sent, rendered here and reused.
    line: String,
}

impl std::fmt::Debug for TcpSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpSink")
            .field("addrs", &self.addrs)
            .field("connected", &self.stream.is_some())
            .field("retry_at", &self.retry_at)
            .field("spooling", &self.spool.is_some())
            .finish()
    }
}

impl TcpSink {
    /// First backoff delay after a failed reconnect attempt.
    pub const RECONNECT_BACKOFF_INITIAL: Duration = Duration::from_millis(50);
    /// Upper bound on the backoff delay between reconnect attempts.
    pub const RECONNECT_BACKOFF_CAP: Duration = Duration::from_secs(5);
    /// Per-attempt connection timeout: reconnection may run on the
    /// pipeline's driver thread, so it must return promptly.
    const RECONNECT_TIMEOUT: Duration = Duration::from_millis(250);

    /// Connects to the collector. The address input is kept and
    /// **re-resolved on every reconnect attempt**, so a collector that
    /// fails over behind a DNS name is found again.
    ///
    /// # Errors
    ///
    /// Fails when the address cannot be resolved or the initial
    /// connection cannot be established.
    pub fn connect(addr: impl ToSocketAddrs + Send + Sync + 'static) -> std::io::Result<Self> {
        let resolve: Arc<dyn Fn() -> std::io::Result<Vec<SocketAddr>> + Send + Sync> =
            Arc::new(move || Ok(addr.to_socket_addrs()?.collect()));
        let addrs = resolve()?;
        // std's ToSocketAddrs for &[SocketAddr] tries each address and
        // returns the last error (or a resolution error for an empty
        // list) — exactly the semantics reconnection wants too.
        let stream = TcpStream::connect(&addrs[..])?;
        stream.set_nodelay(true).ok(); // alerts are latency-sensitive
        Ok(Self {
            resolve,
            addrs,
            stream: Some(stream),
            counters: Arc::default(),
            backoff: Self::RECONNECT_BACKOFF_INITIAL,
            retry_at: None,
            spool: None,
            line: String::new(),
        })
    }

    /// Adds a disk spool at `dir` (created if missing), closing the
    /// at-most-once hole: alerts that cannot be delivered are queued in
    /// a durable [`SpoolQueue`] instead of dropped, and the backlog
    /// replays **in order, before newer alerts** once the collector is
    /// reachable again. While a backlog exists every new alert goes
    /// through the spool too, so the collector always sees the original
    /// feed order.
    ///
    /// In spool mode the sink also probes the peer before direct writes
    /// (a closed collector is detected immediately instead of after the
    /// local TCP buffer absorbs a few lines), and
    /// [`SinkTelemetry::errors`] counts only spool I/O failures — a down
    /// collector no longer drops alerts.
    ///
    /// A backlog left on disk by a previous process is picked up on
    /// construction and replayed first (delivery to the collector is
    /// then at-least-once across process restarts — the collector should
    /// dedupe on `index` if that matters, e.g. via [`Alert::from_json`]).
    ///
    /// # Errors
    ///
    /// Fails when the spool directory cannot be created or its contents
    /// are corrupt beyond the recoverable torn tail.
    ///
    /// ```no_run
    /// use divscrape_pipeline::TcpSink;
    ///
    /// let sink = TcpSink::connect("alerts.internal:6514")?.with_spool("alert-spool")?;
    /// let telemetry = sink.telemetry();
    /// // ... later: telemetry.spool_depth() shows the live backlog.
    /// # Ok::<(), std::io::Error>(())
    /// ```
    pub fn with_spool(mut self, dir: impl AsRef<Path>) -> io::Result<Self> {
        let spool = SpoolQueue::open(dir, StoreConfig::default())?;
        self.counters
            .spool_depth
            .store(spool.depth(), Ordering::Release);
        self.counters
            .spool_bytes_hw
            .fetch_max(spool.queued_bytes(), Ordering::AcqRel);
        self.spool = Some(spool);
        Ok(self)
    }

    /// A live view of this sink's delivery counters.
    pub fn telemetry(&self) -> SinkTelemetry {
        SinkTelemetry(Arc::clone(&self.counters))
    }

    /// Attempts one reconnect if the backoff window allows it. On
    /// success the stream is live again, the reconnect is counted and
    /// the backoff resets; on failure the next window opens later.
    fn try_reconnect(&mut self) {
        if let Some(retry_at) = self.retry_at {
            if Instant::now() < retry_at {
                return; // inside the backoff window: do not hammer
            }
        }
        // Follow DNS: the collector may have moved since the last look.
        // Resolution can block far longer than this path may (it runs
        // on the pipeline's driver thread), so it gets a throwaway
        // thread and a bounded wait; a hung or failed resolver is
        // abandoned (the thread exits on its own once the OS call
        // returns) and the last known addresses are used instead.
        let resolve = Arc::clone(&self.resolve);
        let (tx, rx) = std::sync::mpsc::channel();
        let spawned = std::thread::Builder::new()
            .name("divscrape-tcpsink-resolve".to_owned())
            .spawn(move || {
                let _ = tx.send(resolve());
            })
            .is_ok();
        if spawned {
            if let Ok(Ok(addrs)) = rx.recv_timeout(Self::RECONNECT_TIMEOUT) {
                if !addrs.is_empty() {
                    self.addrs = addrs;
                }
            }
        }
        for addr in &self.addrs {
            if let Ok(stream) = TcpStream::connect_timeout(addr, Self::RECONNECT_TIMEOUT) {
                stream.set_nodelay(true).ok();
                self.stream = Some(stream);
                self.counters.reconnects.fetch_add(1, Ordering::AcqRel);
                // The backoff is NOT reset here: a collector that
                // accepts and immediately closes (crash loop, LB
                // health-check port) "succeeds" every connect. Only a
                // successful *write* proves the connection useful and
                // earns the reset (see `on_alert`).
                self.retry_at = None;
                return;
            }
        }
        self.open_backoff_window();
    }

    /// Starts (or widens) the backoff window after a failed reconnect
    /// or a connection that died before carrying a single write.
    fn open_backoff_window(&mut self) {
        self.retry_at = Some(Instant::now() + self.backoff);
        self.backoff = (self.backoff * 2).min(Self::RECONNECT_BACKOFF_CAP);
    }

    /// Writes one line to the live stream; on failure the stream is
    /// dropped. Returns whether the write succeeded.
    fn write_line(&mut self, line: &[u8]) -> bool {
        let Some(stream) = &mut self.stream else {
            return false;
        };
        if stream.write_all(line).is_ok() {
            true
        } else {
            self.stream = None;
            false
        }
    }

    /// True when the peer has closed or reset the connection. A
    /// non-blocking `peek` sees a pending FIN (`Ok(0)`) or error
    /// immediately, where a `write` would succeed into the local buffer
    /// and lose the line — this is what lets spool mode detect a downed
    /// collector *before* handing it an alert.
    fn peer_gone(stream: &TcpStream) -> bool {
        if stream.set_nonblocking(true).is_err() {
            return true;
        }
        let mut probe = [0u8; 1];
        let gone = match stream.peek(&mut probe) {
            Ok(0) => true,                                            // FIN: peer closed
            Ok(_) => false,                                           // unread data: alive
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => false, // quiet: alive
            Err(_) => true,                                           // RST or worse
        };
        stream.set_nonblocking(false).is_err() || gone
    }

    /// Ensures a live, probed-healthy stream, spending at most
    /// `reconnects` reconnect attempts (backoff-gated). Returns whether
    /// a write can be attempted.
    fn stream_usable(&mut self, reconnects: &mut u32) -> bool {
        if let Some(stream) = &self.stream {
            if !Self::peer_gone(stream) {
                return true;
            }
            self.stream = None;
        }
        if *reconnects == 0 {
            return false;
        }
        *reconnects -= 1;
        self.try_reconnect();
        match &self.stream {
            Some(stream) if !Self::peer_gone(stream) => true,
            Some(_) => {
                // Reconnected straight into a dead peer (crash loop):
                // drop it and back off.
                self.stream = None;
                if self.retry_at.is_none() {
                    self.open_backoff_window();
                }
                false
            }
            None => false,
        }
    }

    /// Copies the spool's live backlog figures into the shared counters.
    fn publish_spool_gauges(&self, spool: &SpoolQueue) {
        self.counters
            .spool_depth
            .store(spool.depth(), Ordering::Release);
        self.counters
            .spool_bytes_hw
            .fetch_max(spool.queued_bytes(), Ordering::AcqRel);
    }

    /// Delivers spooled alerts oldest-first while the stream stays
    /// healthy, spending at most `reconnects` reconnect attempts.
    fn drain_spool(&mut self, reconnects: &mut u32) {
        let Some(mut spool) = self.spool.take() else {
            return;
        };
        while spool.depth() > 0 {
            if !self.stream_usable(reconnects) {
                break;
            }
            let mut line = match spool.front() {
                Ok(Some(line)) => line,
                Ok(None) => break,
                Err(_) => {
                    self.counters.errors.fetch_add(1, Ordering::AcqRel);
                    break;
                }
            };
            line.push(b'\n');
            if !self.write_line(&line) {
                // The write broke the stream; leave the alert queued for
                // the next attempt.
                if self.retry_at.is_none() {
                    self.open_backoff_window();
                }
                continue;
            }
            self.backoff = Self::RECONNECT_BACKOFF_INITIAL;
            self.counters.written.fetch_add(1, Ordering::AcqRel);
            self.counters.replayed.fetch_add(1, Ordering::AcqRel);
            if spool.pop_front().is_err() {
                self.counters.errors.fetch_add(1, Ordering::AcqRel);
                break;
            }
        }
        self.publish_spool_gauges(&spool);
        self.spool = Some(spool);
    }

    /// Spool-mode alert path: deliver directly when there is no backlog
    /// and the peer looks alive; otherwise enqueue (order preserved) and
    /// try to drain.
    fn on_alert_spooled(&mut self, line: &str) {
        // One backoff-gated reconnect attempt per alert, shared by every
        // stage of this call — same budget as the spool-less path.
        let mut reconnects = 1u32;
        self.drain_spool(&mut reconnects);
        let backlog = self
            .spool
            .as_ref()
            .map(SpoolQueue::depth)
            .unwrap_or_default();
        if backlog == 0 && self.stream_usable(&mut reconnects) && self.write_line(line.as_bytes()) {
            self.counters.written.fetch_add(1, Ordering::AcqRel);
            self.backoff = Self::RECONNECT_BACKOFF_INITIAL;
            return;
        }
        let spool = self.spool.as_mut().expect("spool mode");
        match spool.push(line.trim_end_matches('\n').as_bytes()) {
            Ok(()) => {
                self.counters.spooled.fetch_add(1, Ordering::AcqRel);
            }
            Err(_) => {
                // The alert is genuinely lost only when the spool itself
                // fails.
                self.counters.errors.fetch_add(1, Ordering::AcqRel);
            }
        }
        let spool = self.spool.as_ref().expect("spool mode");
        self.publish_spool_gauges(spool);
        // The push may have happened while the collector is healthy
        // (e.g. the direct write broke the stream just now): drain what
        // we can immediately so a transient blip doesn't strand lines.
        self.drain_spool(&mut reconnects);
    }

    /// Spool-less alert path: write the line, reconnecting at most once.
    fn send_or_count_dropped(&mut self, line: &str) {
        // At most ONE reconnect attempt per alert: up front when the
        // stream is already down, or after this write breaks a
        // previously live stream — never both.
        let had_stream = self.stream.is_some();
        if !had_stream {
            self.try_reconnect();
        }
        if self.write_line(line.as_bytes()) {
            self.counters.written.fetch_add(1, Ordering::AcqRel);
            // A delivered alert is the proof the connection works;
            // earn the backoff reset here, not on mere connect success.
            self.backoff = Self::RECONNECT_BACKOFF_INITIAL;
            return;
        }
        if had_stream && self.retry_at.is_none() {
            // The write broke a live stream just now: one reconnect
            // attempt, then one retry of this alert, before giving it
            // up as dropped.
            self.try_reconnect();
            if self.write_line(line.as_bytes()) {
                self.counters.written.fetch_add(1, Ordering::AcqRel);
                self.backoff = Self::RECONNECT_BACKOFF_INITIAL;
                return;
            }
        }
        // Undelivered despite a (permitted) reconnect: if the failure
        // was a dead-on-arrival connection rather than a failed dial,
        // open the window ourselves so the next alert does not redial
        // immediately.
        if self.retry_at.is_none() {
            self.open_backoff_window();
        }
        self.counters.errors.fetch_add(1, Ordering::AcqRel);
    }
}

impl AlertSink for TcpSink {
    fn on_alert(&mut self, alert: &Alert<'_>) {
        let line = render_line(&mut self.line, alert);
        if self.spool.is_some() {
            self.on_alert_spooled(&line);
        } else {
            self.send_or_count_dropped(&line);
        }
        self.line = line;
    }

    // Every alert already went straight to the socket in `on_alert`;
    // flush only gives a spool backlog another drain opportunity and
    // persists the spool's read cursor.
    fn flush(&mut self) {
        if self.spool.is_some() {
            let mut reconnects = 1u32;
            self.drain_spool(&mut reconnects);
            if let Some(spool) = &mut self.spool {
                if spool.flush().is_err() {
                    self.counters.errors.fetch_add(1, Ordering::AcqRel);
                }
            }
        }
    }

    fn sink_telemetry(&self) -> Option<SinkTelemetry> {
        Some(self.telemetry())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    fn entry() -> LogEntry {
        // The user agent carries a CLF-escaped quote: its raw form is
        // `weird \"agent\"`, which JSON rendering must re-escape.
        LogEntry::parse(
            r#"198.51.100.7 - - [11/Mar/2018:06:25:14 +0000] "GET /search?q=NCE HTTP/1.1" 403 17 "-" "weird \"agent\"""#,
        )
        .unwrap()
    }

    #[test]
    fn alert_json_is_one_escaped_object() {
        let entry = entry();
        let alert = Alert {
            index: 41,
            tenant: None,
            entry: &entry,
            votes: &[true, false],
            scores: &[1.0, 0.25],
        };
        let json = alert.to_json();
        assert!(json.starts_with("{\"index\":41,"));
        assert!(json.contains("\"client\":\"198.51.100.7\""));
        assert!(json.contains("\"path\":\"/search?q=NCE\""));
        assert!(json.contains("\"status\":403"));
        assert!(json.contains("\"votes\":[true,false]"));
        assert!(json.contains("\"scores\":[1.00,0.25]"), "{json}");
        // The agent's backslashes and quotes are escaped, keeping the
        // object well-formed: `weird \"agent\"` → `weird \\\"agent\\\"`.
        assert!(json.contains(r#"weird \\\"agent\\\""#), "{json}");
        assert!(!json.contains('\n'));
        // Untagged pipelines emit no tenant field at all.
        assert!(!json.contains("tenant"));
    }

    /// The two-decimal kernel against the formatter it replaces: a
    /// prime stride through every `f32` bit pattern in [0, 1] (about a
    /// million values), every rounding tie `k/200` with its neighbours,
    /// and what falls outside the kernel's range.
    #[test]
    fn score_kernel_equals_the_formatter() {
        fn check(score: f32) {
            let mut out = String::new();
            push_score(&mut out, score);
            assert_eq!(out, format!("{score:.2}"), "bits {:#010x}", score.to_bits());
        }
        for bits in (0..=1.0f32.to_bits()).step_by(1061) {
            check(f32::from_bits(bits));
        }
        for k in 0..=200u32 {
            let tie = (k as f32 / 200.0).to_bits();
            for bits in tie.saturating_sub(2)..=tie + 2 {
                check(f32::from_bits(bits));
            }
        }
        for outside in [-0.0, -0.004, -0.5, 1.004, 1.005, 17.125, f32::MAX] {
            check(outside);
        }
        for unordered in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            check(unordered);
        }
    }

    #[test]
    fn ipv4_kernel_equals_display_for_every_octet_value() {
        for position in 0..4 {
            for value in 0..=255u8 {
                // 7 and 213 around it: one- and three-digit neighbours.
                let mut octets = [7, 213, 7, 213];
                octets[position] = value;
                let addr = std::net::Ipv4Addr::from(octets);
                let mut out = String::new();
                push_ipv4(&mut out, addr);
                assert_eq!(out, addr.to_string());
            }
        }
    }

    #[test]
    fn tenant_tag_travels_in_the_json() {
        let entry = entry();
        let tenant = TenantId::new("shop\"eu"); // hostile name: must escape
        let alert = Alert {
            index: 7,
            tenant: Some(&tenant),
            entry: &entry,
            votes: &[true],
            scores: &[0.5],
        };
        let json = alert.to_json();
        assert!(
            json.starts_with("{\"index\":7,\"tenant\":\"shop\\\"eu\","),
            "{json}"
        );
    }

    #[test]
    fn json_lines_sink_appends_and_flushes() {
        let entry = entry();
        let mut sink = JsonLinesSink::new(Vec::new());
        let telemetry = sink.telemetry();
        for index in 0..3 {
            sink.on_alert(&Alert {
                index,
                tenant: None,
                entry: &entry,
                votes: &[true],
                scores: &[0.5],
            });
        }
        sink.flush();
        assert_eq!(telemetry.written(), 3);
        assert_eq!(telemetry.errors(), 0);
        let lines: Vec<&str> = std::str::from_utf8(&sink.out).unwrap().lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[2].starts_with("{\"index\":2,"));
    }

    /// A writer that can be flipped between healthy and "disk full",
    /// recording what actually lands — the deterministic stand-in for a
    /// primary path going `ENOSPC`/`EROFS` and later healing.
    #[derive(Clone)]
    struct FlakyDisk {
        healthy: Arc<std::sync::atomic::AtomicBool>,
        landed: Arc<Mutex<Vec<u8>>>,
    }

    impl FlakyDisk {
        fn new(healthy: bool) -> Self {
            Self {
                healthy: Arc::new(std::sync::atomic::AtomicBool::new(healthy)),
                landed: Arc::default(),
            }
        }

        fn set_healthy(&self, healthy: bool) {
            self.healthy.store(healthy, Ordering::Release);
        }

        fn lines(&self) -> Vec<String> {
            let bytes = self.landed.lock().unwrap();
            std::str::from_utf8(&bytes)
                .unwrap()
                .lines()
                .map(str::to_owned)
                .collect()
        }
    }

    impl Write for FlakyDisk {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if !self.healthy.load(Ordering::Acquire) {
                return Err(std::io::Error::other("no space left on device"));
            }
            self.landed.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Spool mode: a rejecting primary path spools instead of dropping,
    /// and a healed path replays the backlog in original order —
    /// telemetry counted like `TcpSink`'s (errors stay zero throughout).
    #[test]
    fn json_lines_spool_survives_full_disk_and_replays_in_order() {
        let dir = std::env::temp_dir().join(format!(
            "jsonl-spool-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let entry = entry();
        let disk = FlakyDisk::new(true);
        let mut sink = JsonLinesSink::new(disk.clone()).with_spool(&dir).unwrap();
        let telemetry = sink.telemetry();
        let alert = |index| Alert {
            index,
            tenant: None,
            entry: &entry,
            votes: &[true],
            scores: &[0.5],
        };

        // Healthy: straight through, nothing spooled.
        sink.on_alert(&alert(0));
        assert_eq!(telemetry.written(), 1);
        assert_eq!(telemetry.spooled(), 0);

        // Disk full: everything spools, nothing is dropped or errored.
        disk.set_healthy(false);
        for index in 1..4 {
            sink.on_alert(&alert(index));
        }
        sink.flush(); // drain attempt fails quietly; backlog intact
        assert_eq!(telemetry.written(), 1);
        assert_eq!(telemetry.spooled(), 3);
        assert_eq!(telemetry.spool_depth(), 3);
        assert_eq!(telemetry.errors(), 0, "healthy spool means zero losses");

        // Healed: the next alert replays the backlog first, then itself.
        disk.set_healthy(true);
        sink.on_alert(&alert(4));
        assert_eq!(telemetry.written(), 5);
        assert_eq!(telemetry.replayed(), 3);
        assert_eq!(telemetry.spool_depth(), 0);
        assert_eq!(telemetry.errors(), 0);
        let lines = disk.lines();
        assert_eq!(lines.len(), 5);
        for (i, line) in lines.iter().enumerate() {
            assert!(
                line.starts_with(&format!("{{\"index\":{i},")),
                "order violated at {i}: {line}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// With no new alerts arriving, a pipeline drain (sink flush) is
    /// enough to push a spooled backlog through a healed primary.
    #[test]
    fn json_lines_spool_drains_on_flush_alone() {
        let dir = std::env::temp_dir().join(format!(
            "jsonl-spool-flush-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let entry = entry();
        let disk = FlakyDisk::new(false);
        let mut sink = JsonLinesSink::new(disk.clone()).with_spool(&dir).unwrap();
        let telemetry = sink.telemetry();
        for index in 0..2 {
            sink.on_alert(&Alert {
                index,
                tenant: None,
                entry: &entry,
                votes: &[true],
                scores: &[0.5],
            });
        }
        assert_eq!(telemetry.spool_depth(), 2);

        disk.set_healthy(true);
        sink.flush();
        assert_eq!(telemetry.written(), 2);
        assert_eq!(telemetry.replayed(), 2);
        assert_eq!(telemetry.spool_depth(), 0);
        assert_eq!(disk.lines().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failing_writer_counts_errors_without_panicking() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::Error::other("disk full"))
            }
        }
        let entry = entry();
        let mut sink = JsonLinesSink::new(Broken);
        let telemetry = sink.telemetry();
        sink.on_alert(&Alert {
            index: 0,
            tenant: None,
            entry: &entry,
            votes: &[true],
            scores: &[0.5],
        });
        sink.flush();
        assert_eq!(telemetry.written(), 0);
        assert_eq!(telemetry.errors(), 2);
    }

    #[test]
    fn tcp_sink_delivers_line_delimited_json() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (conn, _) = listener.accept().unwrap();
            let mut lines = Vec::new();
            for line in BufReader::new(conn).lines() {
                lines.push(line.unwrap());
            }
            lines
        });

        let entry = entry();
        let mut sink = TcpSink::connect(addr).unwrap();
        let telemetry = sink.telemetry();
        for index in 0..2 {
            sink.on_alert(&Alert {
                index,
                tenant: None,
                entry: &entry,
                votes: &[false, true],
                scores: &[0.5],
            });
        }
        sink.flush();
        drop(sink); // closes the connection, ending the server's read
        let received = server.join().unwrap();
        assert_eq!(telemetry.written(), 2);
        assert_eq!(received.len(), 2);
        assert!(received[0].starts_with("{\"index\":0,"));
        assert!(received[1].contains("\"votes\":[false,true]"));
    }

    #[test]
    fn tcp_sink_reconnects_after_collector_restart() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut sink = TcpSink::connect(addr).unwrap();
        let telemetry = sink.telemetry();
        // Accept and immediately drop the first connection: the
        // collector "restarted". The listener stays bound, so the
        // sink's reconnect attempt can land.
        let (conn, _) = listener.accept().unwrap();
        drop(conn);

        let entry = entry();
        // The local TCP buffer can absorb a few writes before the dead
        // peer is noticed; keep alerting until the failure surfaces and
        // the sink re-establishes the stream.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut index = 0u64;
        while telemetry.reconnects() == 0 {
            assert!(Instant::now() < deadline, "sink never reconnected");
            sink.on_alert(&Alert {
                index,
                tenant: None,
                entry: &entry,
                votes: &[true],
                scores: &[0.5],
            });
            index += 1;
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(telemetry.reconnects(), 1);
        // The replacement connection carries alerts end to end — the
        // alert whose write failed was retried onto it, not dropped.
        let (conn, _) = listener.accept().unwrap();
        let mut first = String::new();
        BufReader::new(conn).read_line(&mut first).unwrap();
        assert!(first.starts_with("{\"index\":"), "{first}");
    }

    #[test]
    fn dead_collector_counts_drops_without_reconnecting() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut sink = TcpSink::connect(addr).unwrap();
        let telemetry = sink.telemetry();
        let (conn, _) = listener.accept().unwrap();
        drop(conn);
        drop(listener); // the collector is gone for good

        let entry = entry();
        for index in 0..20 {
            sink.on_alert(&Alert {
                index,
                tenant: None,
                entry: &entry,
                votes: &[true],
                scores: &[0.5],
            });
        }
        // Never fatal: every alert was either absorbed by the dying
        // socket's local buffer or counted dropped; no reconnection
        // succeeded and detection kept running.
        assert_eq!(telemetry.reconnects(), 0);
        assert!(telemetry.errors() > 0, "drops must be counted");
        assert_eq!(telemetry.written() + telemetry.errors(), 20);
    }

    /// A unique temp dir per test (tests run concurrently).
    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "divscrape-sink-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    struct CleanupDir(std::path::PathBuf);
    impl Drop for CleanupDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Rebinds a just-released local address, riding out TIME_WAIT.
    fn rebind(addr: std::net::SocketAddr) -> TcpListener {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match TcpListener::bind(addr) {
                Ok(l) => return l,
                Err(e) => assert!(Instant::now() < deadline, "rebind failed: {e}"),
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    fn fire(sink: &mut TcpSink, entry: &LogEntry, index: u64) {
        sink.on_alert(&Alert {
            index,
            tenant: None,
            entry,
            votes: &[true],
            scores: &[0.5],
        });
    }

    fn read_index(line: &str) -> u64 {
        let rest = line.strip_prefix("{\"index\":").expect("alert json");
        rest[..rest.find(',').unwrap()].parse().unwrap()
    }

    #[test]
    fn spooling_sink_replays_collector_outage_in_order_exactly_once() {
        let dir = temp_dir("spool-replay");
        let _cleanup = CleanupDir(dir.clone());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut sink = TcpSink::connect(addr).unwrap().with_spool(&dir).unwrap();
        let telemetry = sink.telemetry();
        let entry = entry();

        // Healthy collector: alerts 0..2 flow straight through.
        let (conn1, _) = listener.accept().unwrap();
        let mut delivered = Vec::new();
        fire(&mut sink, &entry, 0);
        fire(&mut sink, &entry, 1);
        let mut reader = BufReader::new(conn1);
        for _ in 0..2 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            delivered.push(read_index(&line));
        }

        // The collector goes away mid-window: connection closed AND the
        // port unbound, so both the probe and any reconnect attempt fail.
        drop(reader);
        drop(listener);
        std::thread::sleep(Duration::from_millis(50)); // let the FIN land
        for index in 2..5 {
            fire(&mut sink, &entry, index);
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(telemetry.spooled(), 3, "outage alerts must be queued");
        assert_eq!(telemetry.spool_depth(), 3);
        assert_eq!(telemetry.errors(), 0, "a spooled alert is not an error");
        assert!(telemetry.spool_bytes_high_water() > 0);

        // The collector returns. Keep alerting: once the backoff window
        // opens, the sink reconnects, replays the backlog in order, and
        // only then delivers the new alerts.
        let listener = rebind(addr);
        let mut index = 5u64;
        let deadline = Instant::now() + Duration::from_secs(30);
        while telemetry.replayed() < 3 || telemetry.spool_depth() > 0 {
            assert!(Instant::now() < deadline, "backlog never drained");
            fire(&mut sink, &entry, index);
            index += 1;
            std::thread::sleep(Duration::from_millis(5));
        }
        sink.flush();
        let last = index - 1;
        drop(sink); // close the stream so the read below terminates

        let (conn2, _) = listener.accept().unwrap();
        for line in BufReader::new(conn2).lines() {
            delivered.push(read_index(&line.unwrap()));
        }
        // Exactly once, in feed order, across the outage: every index
        // 0..=last appears once, sorted — no loss, no duplicates, no
        // reordering of the replayed backlog against the new alerts.
        assert_eq!(delivered, (0..=last).collect::<Vec<_>>());
        assert_eq!(telemetry.errors(), 0);
        // At least the 3 outage alerts went through the spool; alerts
        // fired while the reconnect backoff window was still closed may
        // have joined them (also replayed, also in order).
        assert!(telemetry.replayed() >= 3, "{}", telemetry.replayed());
    }

    #[test]
    fn spool_backlog_survives_sink_restart() {
        let dir = temp_dir("spool-restart");
        let _cleanup = CleanupDir(dir.clone());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut sink = TcpSink::connect(addr).unwrap().with_spool(&dir).unwrap();
        let entry = entry();
        let (conn, _) = listener.accept().unwrap();
        drop(conn);
        drop(listener);
        std::thread::sleep(Duration::from_millis(50));
        for index in 0..3 {
            fire(&mut sink, &entry, index);
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(sink.telemetry().spool_depth(), 3);
        drop(sink); // process "restart": the backlog stays on disk

        let listener = rebind(addr);
        let mut sink = TcpSink::connect(addr).unwrap().with_spool(&dir).unwrap();
        let telemetry = sink.telemetry();
        assert_eq!(telemetry.spool_depth(), 3, "backlog picked up from disk");
        let (conn2, _) = listener.accept().unwrap();
        sink.flush(); // a healthy stream: flush drains the backlog
        assert_eq!(telemetry.replayed(), 3);
        assert_eq!(telemetry.spool_depth(), 0);
        let mut reader = BufReader::new(conn2);
        for expected in 0..3 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(read_index(&line), expected);
        }
    }

    #[test]
    fn json_lines_sink_fsync_on_flush_is_durable_and_clean() {
        let dir = temp_dir("fsync");
        let _cleanup = CleanupDir(dir.clone());
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("alerts.jsonl");
        let entry = entry();
        let mut sink = JsonLinesSink::append(&path).unwrap().fsync_on_flush(true);
        let telemetry = sink.telemetry();
        for index in 0..2 {
            sink.on_alert(&Alert {
                index,
                tenant: None,
                entry: &entry,
                votes: &[true],
                scores: &[0.5],
            });
        }
        sink.flush();
        assert_eq!(telemetry.written(), 2);
        assert_eq!(telemetry.errors(), 0, "fdatasync must succeed cleanly");
        let content = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].starts_with("{\"index\":1,"));
    }
}
