//! The end-to-end runs: closed-loop passes bracketed by the yardstick,
//! and the open-loop paced phase.
//!
//! This file touches the program only through `PipelineBuilder`,
//! `Pipeline::{push_line, drain, stats}`, `ServicePlane::{builder,
//! ingest, drain_all, stats, shutdown}`, `StoreSink::open` and closure
//! sinks that read only `alert.index` — the side of each duplicated API
//! pair the roadmap keeps. Direct calls into single layers live in
//! `layers.rs`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use divscrape_ensemble::AlertVector;
use divscrape_pipeline::{
    Alert, Pipeline, PipelineBuilder, PipelineStats, SinkTelemetry, StoreSink, TenantId,
};
use divscrape_service::{IngestOutcome, ServicePlane};

use crate::alloc;
use crate::stats::{self, Clock};
use crate::trace::Tracer;
use crate::workloads::{Workload, PACED_RATE_PER_S};
use crate::yardstick::{fnv1a_of, Yardstick};

/// Alert arrival times of one paced phase, indexed by feed position.
/// Allocated before the phase so recording an alert allocates nothing.
pub struct Stamps {
    origin: Instant,
    /// Nanoseconds since `origin`, plus one; `0` = no alert.
    arrivals: Box<[AtomicU64]>,
}

impl Stamps {
    pub fn new(entries: usize) -> Arc<Self> {
        Arc::new(Self {
            origin: Instant::now(),
            arrivals: (0..entries).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// What the harness's closure sink does with each alert. Either way it
/// reads nothing but `alert.index`.
#[derive(Clone)]
pub enum Probe {
    /// Count alerts (closed-loop passes).
    Count(Arc<AtomicU64>),
    /// Stamp each alert's arrival time (paced phase).
    Stamp(Arc<Stamps>),
}

impl Probe {
    fn sink(&self) -> Box<dyn FnMut(&Alert<'_>) + Send> {
        match self.clone() {
            // `Relaxed`: a statistic, read after the pass's drain.
            Probe::Count(count) => Box::new(move |_alert| {
                count.fetch_add(1, Ordering::Relaxed);
            }),
            // `Relaxed`: read only after `drain`/`drain_all` returned,
            // which synchronises with the shard driver.
            Probe::Stamp(stamps) => Box::new(move |alert| {
                if let Some(slot) = stamps.arrivals.get(alert.index as usize) {
                    slot.store(stamps.now_ns() + 1, Ordering::Relaxed);
                }
            }),
        }
    }
}

/// A workload's runtime, built fresh for every pass: re-feeding one
/// pipeline would replay the same time window and turn every human
/// into a flooder.
pub struct Engine {
    runtime: Runtime,
    /// The `StoreSink`'s counters and directory, for a durable workload.
    store: Option<(SinkTelemetry, PathBuf)>,
}

enum Runtime {
    Bare(Box<Pipeline>),
    Plane {
        plane: ServicePlane,
        tenant: TenantId,
    },
}

/// The spans a traced pass records, named after the runtime's layer.
#[derive(Clone, Copy)]
pub struct SpanNames {
    pub pass: &'static str,
    pub block: &'static str,
    pub drain: &'static str,
}

/// What the runtime says about itself after a drain.
pub struct EngineStats {
    pub pipeline: PipelineStats,
    /// Offered lines lost on the way: parse errors, drops, unrouted
    /// lines, store write errors.
    pub lost: u64,
    /// Of `lost`, lines a full shard queue dropped.
    pub dropped: u64,
}

/// The workload's composition with the probe — and, for a durable
/// workload, a `StoreSink` into `store_dir` — attached. The store goes
/// first, so an alert's stamp includes its own append.
fn compose(
    workload: &Workload,
    probe: &Probe,
    store_dir: &Path,
    telemetry: &Mutex<Option<SinkTelemetry>>,
) -> Result<PipelineBuilder, String> {
    let mut builder = workload.builder();
    if workload.service {
        let store =
            StoreSink::open(store_dir).map_err(|e| format!("{}: {e}", store_dir.display()))?;
        *telemetry.lock().map_err(|e| e.to_string())? = Some(store.telemetry());
        builder = builder.sink(store);
    }
    Ok(builder.sink(probe.sink()))
}

impl Engine {
    /// Builds the workload's composition — as a bare pipeline, or behind
    /// a one-tenant, one-shard `ServicePlane` when `plane` is set — with
    /// the probe attached. A durable workload stores into `scratch`.
    pub fn build(
        workload: &'static Workload,
        plane: bool,
        probe: &Probe,
        scratch: &Path,
    ) -> Result<Self, String> {
        let telemetry = Arc::new(Mutex::new(None));
        let runtime = if plane {
            let tenant = TenantId::new("bench");
            let (slot, dir, probe) = (Arc::clone(&telemetry), scratch.to_path_buf(), probe.clone());
            let plane = ServicePlane::builder()
                .tenant(tenant.clone(), 1, move |_, _| {
                    // A tenant factory cannot fail; losing the scratch
                    // directory mid-run is beyond what the harness survives.
                    compose(workload, &probe, &dir, &slot).expect("scratch store opens")
                })
                .build()
                .map_err(|e| e.to_string())?;
            Runtime::Plane { plane, tenant }
        } else {
            let pipeline = compose(workload, probe, scratch, &telemetry)?
                .build()
                .map_err(|e| e.to_string())?;
            Runtime::Bare(Box::new(pipeline))
        };
        let store = telemetry
            .lock()
            .map_err(|e| e.to_string())?
            .take()
            .map(|telemetry| (telemetry, scratch.to_path_buf()));
        Ok(Engine { runtime, store })
    }

    /// Offers one line; `false` if the runtime refused it outright.
    #[inline]
    pub fn offer(&mut self, line: &str) -> bool {
        match &mut self.runtime {
            Runtime::Bare(pipeline) => pipeline.push_line(line).is_ok(),
            Runtime::Plane { plane, tenant } => {
                plane.ingest(tenant, line.to_owned()) == IngestOutcome::Routed
            }
        }
    }

    /// Drains; returns the combined alert vector.
    fn drain(&mut self) -> Option<AlertVector> {
        match &mut self.runtime {
            Runtime::Bare(pipeline) => Some(pipeline.drain().combined),
            Runtime::Plane { plane, .. } => {
                let mut tenants = plane.drain_all();
                let mut shards = tenants.pop()?.1;
                shards.pop().map(|report| report.combined)
            }
        }
    }

    /// The runtime's counters; exact once a drain has returned.
    fn stats(&self) -> EngineStats {
        let store_errors = self
            .store
            .as_ref()
            .map_or(0, |(telemetry, _)| telemetry.errors());
        match &self.runtime {
            Runtime::Bare(pipeline) => EngineStats {
                pipeline: pipeline.stats(),
                lost: store_errors,
                dropped: 0,
            },
            Runtime::Plane { plane, .. } => {
                let stats = plane.stats();
                EngineStats {
                    lost: stats.parse_errors
                        + stats.dropped_lines
                        + stats.unrouted_lines
                        + store_errors,
                    dropped: stats.dropped_lines,
                    pipeline: stats
                        .tenants
                        .into_iter()
                        .next()
                        .and_then(|t| t.shards.into_iter().next())
                        .unwrap_or_default(),
                }
            }
        }
    }

    fn span_names(&self) -> SpanNames {
        match self.runtime {
            Runtime::Bare(_) => SpanNames {
                pass: "pipeline.pass",
                block: "pipeline.push_block",
                drain: "pipeline.drain",
            },
            Runtime::Plane { .. } => SpanNames {
                pass: "service.pass",
                block: "service.ingest_block",
                drain: "service.drain",
            },
        }
    }

    /// Stops the runtime and removes what it stored.
    pub fn close(self) {
        match self.runtime {
            Runtime::Bare(pipeline) => drop(pipeline),
            Runtime::Plane { plane, .. } => plane.shutdown(),
        }
        if let Some((_, dir)) = self.store {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// One feed-and-drain pass.
pub struct PassOutcome {
    pub elapsed_ns: u64,
    /// Of `elapsed_ns`, the part spent in the final drain.
    pub drain_ns: u64,
    pub allocs: u64,
    pub cpu_ticks: u64,
    pub offered: u64,
    /// Offered lines that were refused, dropped, spilled, or not
    /// finalized by the drain.
    pub failed: u64,
    /// Of `failed`, lines a full shard queue dropped.
    pub dropped: u64,
    /// The combined alerts the drain reported.
    pub alerts: AlertSummary,
    pub stats: PipelineStats,
}

impl PassOutcome {
    pub fn ns_per_entry(&self) -> f64 {
        self.elapsed_ns as f64 / self.offered.max(1) as f64
    }
}

/// Alert count and FNV-1a digest (one byte per entry) of a combined
/// alert bit-vector — what a pass produced, or what a second route over
/// the same lines says it must produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlertSummary {
    pub alerts: u64,
    pub alert_digest: u64,
}

impl AlertSummary {
    /// The summary of the first `len` entries of `alerts`.
    pub fn of(alerts: &AlertVector, len: usize) -> Self {
        let bytes: Vec<u8> = (0..len.min(alerts.len()))
            .map(|i| u8::from(alerts.get(i)))
            .collect();
        Self {
            alerts: bytes.iter().map(|&b| u64::from(b)).sum(),
            alert_digest: fnv1a_of(&bytes),
        }
    }
}

/// Lines per traced block — the pipeline's default chunk capacity, so a
/// block's span brackets one chunk's worth of work.
pub const BLOCK_LINES: usize = 4_096;

/// Closed loop: the next line goes in as soon as the previous call
/// returns. Feed **and** drain are timed; the engine was built outside.
pub fn run_pass(engine: &mut Engine, lines: &[String]) -> PassOutcome {
    run_pass_traced(engine, lines, None)
}

/// [`run_pass`], with a span around each [`BLOCK_LINES`]-line block of
/// offers and around the drain when a tracer is given.
pub fn run_pass_traced(
    engine: &mut Engine,
    lines: &[String],
    mut tracer: Option<&mut Tracer>,
) -> PassOutcome {
    let names = engine.span_names();
    let cpu_before = cpu_ticks();
    let allocs_before = alloc::allocations();
    let started = Instant::now();
    let root = tracer.as_deref_mut().map(|t| t.begin(names.pass, None, 0));
    let mut refused = 0u64;
    for (block, chunk) in lines.chunks(BLOCK_LINES).enumerate() {
        let span = tracer
            .as_deref_mut()
            .map(|t| t.begin(names.block, root, block as u32));
        for line in chunk {
            refused += u64::from(!engine.offer(line));
        }
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
            t.end(id);
        }
    }
    let span = tracer.as_deref_mut().map(|t| t.begin(names.drain, root, 0));
    let pass = finish_pass(
        engine,
        lines.len() as u64,
        refused,
        started,
        allocs_before,
        cpu_before,
    );
    if let Some(t) = tracer {
        span.into_iter().chain(root).for_each(|id| t.end(id));
    }
    pass
}

/// Drains and closes the books on a pass whose offers began at
/// `started`.
fn finish_pass(
    engine: &mut Engine,
    offered: u64,
    refused: u64,
    started: Instant,
    allocs_before: u64,
    cpu_before: u64,
) -> PassOutcome {
    let drain_started = Instant::now();
    let combined = engine.drain();
    let elapsed_ns = started.elapsed().as_nanos() as u64;
    let drain_ns = drain_started.elapsed().as_nanos() as u64;
    let allocs = alloc::allocations() - allocs_before;
    let cpu_ticks = cpu_ticks().saturating_sub(cpu_before);
    let EngineStats {
        pipeline: stats,
        lost,
        dropped,
    } = engine.stats();
    let unfinalized = offered.saturating_sub(refused + lost + stats.entries_processed);
    let combined = combined.unwrap_or_else(|| AlertVector::empty("missing", 0));
    PassOutcome {
        elapsed_ns,
        drain_ns,
        allocs,
        cpu_ticks,
        offered,
        // A plane counts a refused line as unrouted too; never report
        // more failures than offers.
        failed: (refused + lost + unfinalized + stats.triage_spilled_entries).min(offered),
        dropped,
        alerts: AlertSummary::of(&combined, combined.len()),
        stats,
    }
}

/// Runs the workload's reference route (no sink, no triage or another
/// chunking) over `lines` and returns its combined alerts.
pub fn reference_alerts(workload: &Workload, lines: &[String]) -> Result<AlertVector, String> {
    let mut pipeline = workload
        .reference_builder()
        .build()
        .map_err(|e| e.to_string())?;
    for line in lines {
        pipeline.push_line(line).map_err(|e| e.to_string())?;
    }
    Ok(pipeline.drain().combined)
}

/// One untimed pass through a throwaway engine — the last step of a
/// set-up, so the first timed pass does not pay for cold caches.
pub fn warm_up(
    workload: &'static Workload,
    lines: &[String],
    scratch: &Path,
) -> Result<(), String> {
    let probe = Probe::Count(Arc::new(AtomicU64::new(0)));
    let mut engine = Engine::build(workload, workload.service, &probe, scratch)?;
    run_pass(&mut engine, lines);
    engine.close();
    Ok(())
}

/// The closed-loop phase's raw material.
#[derive(Default)]
pub struct ClosedLoop {
    /// Per pass: mean of the bracketing yardstick sides' ns/line over
    /// the pass's ns/entry.
    pub speed_vs_scan: Vec<f64>,
    pub pass_ns_per_entry: Vec<f64>,
    pub yardstick_ns_per_line: Vec<f64>,
    pub offered: u64,
    pub failed: u64,
    pub allocs: u64,
    pub cpu_ticks: u64,
    /// Passes whose alerts differed from the reference route's.
    pub mismatches: u64,
}

/// Runs (yardstick, pass, yardstick) triples — consecutive triples
/// share the yardstick side between them — for as many whole triples as
/// fit in `window`, and at least `min_passes`.
pub fn closed_loop(
    workload: &'static Workload,
    lines: &[String],
    expected: &AlertSummary,
    window: Duration,
    min_passes: usize,
    scratch: &Path,
) -> Result<ClosedLoop, String> {
    let mut out = ClosedLoop::default();
    let mut yardstick = Yardstick::new(lines);
    let count = Arc::new(AtomicU64::new(0));
    let probe = Probe::Count(Arc::clone(&count));
    let started = Instant::now();
    let mut before = yardstick.ns_per_line(workload.yardstick_reps);
    out.yardstick_ns_per_line.push(before);
    loop {
        let triple_started = Instant::now();
        let pass_dir = scratch.join(format!("pass-{}", out.speed_vs_scan.len()));
        let mut engine = Engine::build(workload, workload.service, &probe, &pass_dir)?;
        count.store(0, Ordering::Relaxed);
        let pass = run_pass(&mut engine, lines);
        let after = yardstick.ns_per_line(workload.yardstick_reps);
        engine.close();

        out.speed_vs_scan
            .push((before + after) / 2.0 / pass.ns_per_entry());
        out.pass_ns_per_entry.push(pass.ns_per_entry());
        out.yardstick_ns_per_line.push(after);
        out.offered += pass.offered;
        out.failed += pass.failed;
        out.allocs += pass.allocs;
        out.cpu_ticks += pass.cpu_ticks;
        // The sink must have seen exactly the alerts the report holds.
        let sink_alerts = count.load(Ordering::Relaxed);
        out.mismatches += u64::from(pass.alerts != *expected || sink_alerts != pass.alerts.alerts);
        before = after;
        // Stop before a triple that would overrun the window.
        let enough = out.speed_vs_scan.len() >= min_passes;
        if enough && started.elapsed() + triple_started.elapsed() > window {
            return Ok(out);
        }
    }
}

struct RealClock(Instant);

impl Clock for RealClock {
    fn now_ns(&mut self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn wait_until(&mut self, due_ns: u64) {
        loop {
            let now = self.now_ns();
            if now >= due_ns {
                return;
            }
            // Sleep through long gaps, spin through the last stretch:
            // a sleep's wake-up is far coarser than a 20 µs line gap.
            if due_ns - now > 2_000_000 {
                std::thread::sleep(Duration::from_nanos(due_ns - now - 1_000_000));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// The paced phase's results.
pub struct Paced {
    pub pass: PassOutcome,
    /// Alerts delivered before the final drain began — the latency
    /// sample; alerts only the drain flushed are excluded.
    pub samples: usize,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Highest percentile the sample supports (ten samples beyond it).
    pub supported_percentile: Option<f64>,
    /// Median gap between alert bursts: how long work waits for a chunk.
    pub flush_interval_ms: f64,
    pub late_p99_ms: f64,
    pub late_max_ms: f64,
    /// Live-heap high-water over the phase, above its starting level.
    pub peak_heap_bytes: usize,
}

/// An alert arriving more than this after the previous one starts a
/// new burst (a chunk's alerts arrive microseconds apart; chunks fill
/// tens of milliseconds apart at the paced rate).
const BURST_GAP_NS: u64 = 5_000_000;

/// Open loop: line `i` is due at `i / PACED_RATE_PER_S` seconds and
/// latency counts from when the line was **due**, not when it was sent.
pub fn paced_phase(
    workload: &'static Workload,
    lines: &[String],
    scratch: &Path,
) -> Result<Paced, String> {
    let stamps = Stamps::new(lines.len());
    let probe = Probe::Stamp(Arc::clone(&stamps));
    let mut engine = Engine::build(workload, workload.service, &probe, scratch)?;
    let mut late = Vec::with_capacity(lines.len());

    let heap_before = alloc::rebase_peak();
    let cpu_before = cpu_ticks();
    let allocs_before = alloc::allocations();
    let started = Instant::now();
    let phase_offset_ns = stamps.now_ns();
    let mut refused = 0u64;
    stats::run_paced(
        lines.len(),
        PACED_RATE_PER_S,
        &mut RealClock(started),
        &mut late,
        |index| refused += u64::from(!engine.offer(&lines[index])),
    );
    let drain_began_ns = stamps.now_ns();
    let pass = finish_pass(
        &mut engine,
        lines.len() as u64,
        refused,
        started,
        allocs_before,
        cpu_before,
    );
    let peak_heap_bytes = alloc::peak_bytes().saturating_sub(heap_before);
    engine.close();

    let mut latencies = Vec::new();
    let mut arrivals = Vec::new();
    for (index, slot) in stamps.arrivals.iter().enumerate() {
        let stamp = slot.load(Ordering::Relaxed);
        if stamp == 0 || stamp > drain_began_ns {
            continue;
        }
        let due = phase_offset_ns + stats::due_ns(index as u64, PACED_RATE_PER_S);
        latencies.push((stamp - 1).saturating_sub(due));
        arrivals.push(stamp - 1);
    }
    latencies.sort_unstable();
    arrivals.sort_unstable();
    let mut burst_starts = Vec::new();
    let mut previous = None;
    for &at in &arrivals {
        if previous.is_none_or(|p| at - p > BURST_GAP_NS) {
            burst_starts.push(at);
        }
        previous = Some(at);
    }
    let mut gaps: Vec<f64> = burst_starts
        .windows(2)
        .map(|w| (w[1] - w[0]) as f64 / 1e6)
        .collect();
    late.sort_unstable();
    Ok(Paced {
        pass,
        samples: latencies.len(),
        p50_ms: stats::percentile(&latencies, 50.0) as f64 / 1e6,
        p99_ms: stats::percentile(&latencies, 99.0) as f64 / 1e6,
        supported_percentile: stats::highest_supported_percentile(latencies.len()),
        flush_interval_ms: stats::median(&mut gaps),
        late_p99_ms: stats::percentile(&late, 99.0) as f64 / 1e6,
        late_max_ms: late.last().copied().unwrap_or(0) as f64 / 1e6,
        peak_heap_bytes,
    })
}

/// Process CPU time (user + system, every thread, exited ones too) in
/// clock ticks, from `/proc/self/stat`; `0` where that is unreadable.
pub fn cpu_ticks() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12th and 13th after the ')'.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0;
    };
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    utime + stime
}

/// Nanoseconds per `/proc` clock tick (`USER_HZ`, 100 on every Linux
/// this harness targets).
pub const NS_PER_CPU_TICK: u64 = 10_000_000;
