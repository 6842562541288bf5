//! The shard hand-off: producers stage lines into a per-shard batch and
//! the driver takes the whole batch in one swap. What callers could rely
//! on when every line was a channel message must still hold — exact
//! counts across the `queue_depth` boundary, lossy offers that drop only
//! while the queue is full, per-producer order under contention, stale
//! handles that report the tenant gone, a clean exit when the plane
//! is simply dropped — and, since the driver parks on this queue, that a
//! tenant whose traffic stops still has its last lines adjudicated: the
//! driver hands its pipeline what it holds whenever the queue runs dry
//! (group commit), with or without a flush deadline.
//!
//! Every interleaving is forced with a gate, a barrier or a blocking
//! call; nothing here sleeps.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};

use std::time::Duration;

use divscrape_detect::baselines::RateLimiter;
use divscrape_detect::{Arcane, Detector, Sentinel, TenantId, Verdict};
use divscrape_httplog::EntryRef;
use divscrape_pipeline::{
    Adjudication, Alert, AlertSink, CollectingSink, PipelineBuilder, PipelineReport, RecordPolicy,
    ScoredEntry,
};
use divscrape_service::{shard_of, IngestOutcome, ServicePlane};
use divscrape_traffic::{generate, ScenarioConfig};

const DEPTH: usize = 8;

/// Alerts on every entry, so a sink sees each line the pipeline took.
#[derive(Debug, Clone, Default)]
struct AlertOnAll;

impl Detector for AlertOnAll {
    fn name(&self) -> &str {
        "alert-on-all"
    }

    fn observe(&mut self, _entry: &EntryRef<'_>) -> Verdict {
        Verdict::new(true, 1.0)
    }

    fn reset(&mut self) {}
}

fn alert_on_all() -> PipelineBuilder {
    PipelineBuilder::new()
        .detector(AlertOnAll)
        .adjudication(Adjudication::k_of_n(1))
}

/// Line `seq` of `producer`; the path says which it is.
fn line(producer: usize, seq: usize) -> String {
    format!(
        "10.0.{producer}.1 - - [11/Mar/2018:00:00:00 +0000] \"GET /p{producer}/{seq} HTTP/1.1\" 200 12 \"-\" \"curl/7.58.0\""
    )
}

/// Blocks the shard driver inside its first alert until opened, and says
/// when it got there.
#[derive(Debug, Clone, Default)]
struct GatedSink {
    gate: Arc<(Mutex<Gate>, Condvar)>,
}

#[derive(Debug, Default)]
struct Gate {
    entered: bool,
    open: bool,
}

impl GatedSink {
    fn wait_until_entered(&self) {
        let (lock, cvar) = &*self.gate;
        let mut gate = lock.lock().unwrap();
        while !gate.entered {
            gate = cvar.wait(gate).unwrap();
        }
    }

    fn open(&self) {
        let (lock, cvar) = &*self.gate;
        lock.lock().unwrap().open = true;
        cvar.notify_all();
    }
}

impl AlertSink for GatedSink {
    fn on_alert(&mut self, _alert: &Alert<'_>) {
        let (lock, cvar) = &*self.gate;
        let mut gate = lock.lock().unwrap();
        gate.entered = true;
        cvar.notify_all();
        while !gate.open {
            gate = cvar.wait(gate).unwrap();
        }
    }
}

#[test]
fn drain_after_n_ingests_reports_exactly_n() {
    let shop = TenantId::new("shop");
    let plane = ServicePlane::builder()
        .queue_depth(DEPTH)
        .tenant(shop.clone(), 1, |_, _| alert_on_all())
        .build()
        .unwrap();
    // Below, at and past the depth, and past several swaps; one plane
    // throughout, so nothing may leak from one drain into the next.
    for n in [
        0,
        1,
        DEPTH - 1,
        DEPTH,
        DEPTH + 1,
        3 * DEPTH,
        3 * DEPTH + 1,
        500,
    ] {
        for seq in 0..n {
            assert_eq!(plane.ingest(&shop, line(0, seq)), IngestOutcome::Routed);
        }
        let reports = plane.drain(&shop).unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].requests(), n, "drain after {n} ingests");
    }
}

#[test]
fn offer_drops_exactly_while_the_queue_is_full() {
    let shop = TenantId::new("shop");
    let gate = GatedSink::default();
    let sink = gate.clone();
    let plane = ServicePlane::builder()
        .queue_depth(DEPTH)
        .tenant(shop.clone(), 1, move |_, _| {
            // One-entry chunks: the first line reaches the sink at once.
            alert_on_all().chunk_capacity(1).sink(sink.clone())
        })
        .build()
        .unwrap();

    // The driver takes line 0 and wedges in the sink, queue empty.
    assert_eq!(plane.ingest(&shop, line(0, 0)), IngestOutcome::Routed);
    gate.wait_until_entered();

    for seq in 1..=DEPTH {
        assert_eq!(
            plane.offer(&shop, line(0, seq)),
            IngestOutcome::Routed,
            "offer {seq} of {DEPTH} behind the wedged driver"
        );
    }
    for _ in 0..3 {
        assert_eq!(plane.offer(&shop, line(0, 99)), IngestOutcome::Dropped);
    }
    assert_eq!(plane.stats().dropped_lines, 3);

    // A blocking ingest parks until the driver's next swap makes room —
    // so once it returns, exactly one swap has emptied the queue.
    gate.open();
    assert_eq!(
        plane.ingest(&shop, line(0, DEPTH + 1)),
        IngestOutcome::Routed
    );
    assert_eq!(
        plane.offer(&shop, line(0, DEPTH + 2)),
        IngestOutcome::Routed
    );
    let reports = plane.drain(&shop).unwrap();
    assert_eq!(
        reports[0].requests(),
        DEPTH + 3,
        "dropped offers never land"
    );
    assert_eq!(plane.stats().dropped_lines, 3);
}

#[test]
fn four_producers_lose_nothing_and_keep_their_own_order() {
    const PRODUCERS: usize = 4;
    const LINES: usize = 5_000;
    let shop = TenantId::new("shop");
    let indices = CollectingSink::new();
    let seen_indices = indices.handle();
    let indices = Mutex::new(Some(indices));
    let paths: Arc<Mutex<Vec<String>>> = Arc::default();
    let seen_paths = Arc::clone(&paths);
    let plane = ServicePlane::builder()
        .queue_depth(DEPTH) // shallow: producers park and wake constantly
        .tenant(shop.clone(), 1, move |_, _| {
            let paths = Arc::clone(&paths);
            alert_on_all()
                .sink(indices.lock().unwrap().take().expect("one shard"))
                .sink(move |alert: &Alert<'_>| {
                    let path = alert.entry.request().path().as_str().to_owned();
                    paths.lock().unwrap().push(path);
                })
        })
        .build()
        .unwrap();

    let start = Barrier::new(PRODUCERS);
    std::thread::scope(|scope| {
        for producer in 0..PRODUCERS {
            let (plane, shop, start) = (&plane, &shop, &start);
            scope.spawn(move || {
                start.wait();
                for seq in 0..LINES {
                    assert_eq!(
                        plane.ingest(shop, line(producer, seq)),
                        IngestOutcome::Routed
                    );
                }
            });
        }
    });
    let reports = plane.drain(&shop).unwrap();
    assert_eq!(reports[0].requests(), PRODUCERS * LINES);

    // The pipeline numbered every line once, with no gaps.
    let total = (PRODUCERS * LINES) as u64;
    assert_eq!(
        *seen_indices.lock().unwrap(),
        (0..total).collect::<Vec<_>>()
    );

    // Each producer's lines arrived once each, in the order it sent them.
    let mut next = [0usize; PRODUCERS];
    for path in seen_paths.lock().unwrap().iter() {
        let (producer, seq) = path
            .strip_prefix("/p")
            .and_then(|rest| rest.split_once('/'))
            .unwrap_or_else(|| panic!("unexpected path {path}"));
        let (producer, seq): (usize, usize) = (producer.parse().unwrap(), seq.parse().unwrap());
        assert_eq!(seq, next[producer], "producer {producer} out of order");
        next[producer] += 1;
    }
    assert_eq!(next, [LINES; PRODUCERS]);
}

#[test]
fn a_stale_ingress_reports_the_tenant_gone() {
    let shop = TenantId::new("shop");
    let plane = ServicePlane::builder()
        .tenant(shop.clone(), 2, |_, _| alert_on_all())
        .build()
        .unwrap();
    let ingress = plane.ingress(&shop).unwrap();
    assert_eq!(ingress.send(line(0, 0)), IngestOutcome::Routed);
    let reports = plane.leave(&shop).unwrap();
    assert_eq!(reports.iter().map(|r| r.requests()).sum::<usize>(), 1);

    assert_eq!(ingress.send(line(0, 1)), IngestOutcome::UnknownTenant);
    assert_eq!(ingress.offer(line(0, 2)), IngestOutcome::UnknownTenant);
    assert_eq!(plane.stats().unrouted_lines, 2);
}

#[test]
fn a_tenant_that_goes_quiet_still_gets_its_alerts() {
    // Ten lines, then nothing: no drain, no leave, no further traffic to
    // push them out, and nowhere near a full chunk. The driver running
    // out of input is the only moment left, so it must submit then.
    let shop = TenantId::new("shop");
    let (alert_tx, alert_rx) = std::sync::mpsc::channel::<u64>();
    let alert_tx = Mutex::new(alert_tx);
    let plane = ServicePlane::builder()
        .tenant(shop.clone(), 1, move |_, _| {
            let alert_tx = alert_tx.lock().unwrap().clone();
            alert_on_all().sink(move |alert: &Alert<'_>| {
                let _ = alert_tx.send(alert.index);
            })
        })
        .build()
        .unwrap();
    for seq in 0..10 {
        assert_eq!(plane.ingest(&shop, line(0, seq)), IngestOutcome::Routed);
    }
    let delivered: Vec<u64> = (0..10)
        .map(|_| {
            alert_rx
                .recv_timeout(std::time::Duration::from_secs(1))
                .expect("a quiet tenant's alerts must arrive within the second")
        })
        .collect();
    assert_eq!(delivered, (0..10).collect::<Vec<_>>());

    // The idle driver submitted them, and the count survives the tenant.
    let reports = plane.leave(&shop).unwrap();
    assert_eq!(reports[0].requests(), 10);
    let stats = plane.stats();
    assert!(stats.idle_flushes >= 1);
    assert!(stats.max_buffered_age_us > 0);
}

#[test]
fn a_fill_only_tenant_that_goes_quiet_still_gets_its_alerts() {
    // As above, with no flush deadline at all: the ten lines reach the
    // sink only if the driver submits them when its queue runs dry.
    let shop = TenantId::new("shop");
    let (alert_tx, alert_rx) = std::sync::mpsc::channel::<u64>();
    let alert_tx = Mutex::new(alert_tx);
    let plane = ServicePlane::builder()
        .tenant(shop.clone(), 1, move |_, _| {
            let alert_tx = alert_tx.lock().unwrap().clone();
            alert_on_all()
                .max_delay(Duration::MAX)
                .sink(move |alert: &Alert<'_>| {
                    let _ = alert_tx.send(alert.index);
                })
        })
        .build()
        .unwrap();
    for seq in 0..10 {
        assert_eq!(plane.ingest(&shop, line(0, seq)), IngestOutcome::Routed);
    }
    let delivered: Vec<u64> = (0..10)
        .map(|_| {
            alert_rx
                .recv_timeout(Duration::from_secs(1))
                .expect("a fill-only tenant's alerts must arrive within the second")
        })
        .collect();
    assert_eq!(delivered, (0..10).collect::<Vec<_>>());
    let reports = plane.leave(&shop).unwrap();
    assert_eq!(reports[0].requests(), 10);
    assert_eq!(
        plane.stats().deadline_flushes,
        0,
        "fill-only has no deadline"
    );
}

/// Counts every finalized entry it is shown, across shards, and lets a
/// producer wait for a count.
#[derive(Clone, Default)]
struct SeenSink {
    seen: Arc<(Mutex<u64>, Condvar)>,
}

impl SeenSink {
    /// Blocks until `total` entries were finalized; panics after ten
    /// seconds, which only a driver that never submits can take.
    fn wait_for(&self, total: u64) {
        let (lock, cvar) = &*self.seen;
        let seen = *cvar
            .wait_timeout_while(lock.lock().unwrap(), Duration::from_secs(10), |seen| {
                *seen < total
            })
            .unwrap()
            .0;
        assert!(
            seen >= total,
            "only {seen} of {total} entries finalized: a burst was left in the arena"
        );
    }
}

impl AlertSink for SeenSink {
    fn on_alert(&mut self, _alert: &Alert<'_>) {}

    fn on_entry(&mut self, _record: &ScoredEntry<'_>) {
        let (lock, cvar) = &*self.seen;
        *lock.lock().unwrap() += 1;
        cvar.notify_all();
    }

    fn entry_policy(&self) -> RecordPolicy {
        RecordPolicy::AllEntries
    }
}

fn three_tools() -> PipelineBuilder {
    PipelineBuilder::new()
        .detector(Sentinel::stock())
        .detector(RateLimiter::new(40))
        .detector(Arcane::stock())
        .adjudication(Adjudication::k_of_n(1))
        .chunk_capacity(113)
        .workers(2)
        .max_delay(Duration::MAX)
}

fn assert_identical(case: &str, got: &PipelineReport, want: &PipelineReport) {
    assert_eq!(
        got.combined.to_bools(),
        want.combined.to_bools(),
        "{case}: combined alerts diverged from the fill-only pipeline"
    );
    assert_eq!(got.members.len(), want.members.len(), "{case}");
    for (g, w) in got.members.iter().zip(&want.members) {
        assert_eq!(g.name(), w.name(), "{case}");
        assert_eq!(
            g.to_bools(),
            w.to_bools(),
            "{case}: member {} diverged from the fill-only pipeline",
            g.name()
        );
    }
}

#[test]
fn bursts_gated_on_delivery_equal_a_fill_only_pipeline() {
    // The plane's version of a random flush schedule: the producer sends
    // a seeded random-size burst, then stops until the sink has seen
    // every entry of it, so each burst is adjudicated only because the
    // driver ran dry — the tenants have no deadline. Chunk boundaries so
    // fall wherever the bursts end, and the drained report must still
    // equal a standalone fill-only pipeline's over the same shard.
    let log = generate(&ScenarioConfig::tiny(84)).unwrap();
    let lines: Vec<String> = log.entries().iter().map(|e| e.to_string()).collect();
    for (shards, seed) in [
        (1usize, 0x9e37_79b9_7f4a_7c15u64),
        (3, 0xd1b5_4a32_d192_ed03),
    ] {
        let shop = TenantId::new("shop");
        let seen = SeenSink::default();
        let sink = seen.clone();
        let plane = ServicePlane::builder()
            .tenant(shop.clone(), shards, move |_, _| {
                three_tools().sink(sink.clone())
            })
            .build()
            .unwrap();
        let mut state = seed;
        let mut sent = 0usize;
        let mut bursts = 0;
        while sent < lines.len() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let burst = (state % 120 + 1) as usize;
            let end = (sent + burst).min(lines.len());
            for line in &lines[sent..end] {
                assert_eq!(plane.ingest(&shop, line.clone()), IngestOutcome::Routed);
            }
            sent = end;
            bursts += 1;
            seen.wait_for(sent as u64);
        }
        assert!(bursts > 10, "the schedule must cut many bursts");

        let reports = plane.drain(&shop).unwrap();
        assert_eq!(
            plane.stats().deadline_flushes,
            0,
            "fill-only has no deadline"
        );
        for (k, got) in reports.iter().enumerate() {
            let mut alone = three_tools().build().unwrap();
            for line in lines.iter().filter(|line| shard_of(line, shards) == k) {
                alone.push_line(line).unwrap();
            }
            assert_identical(&format!("shards={shards} shard={k}"), got, &alone.drain());
        }
        plane.shutdown();
    }
}

/// Counts what it is shown and records being flushed and dropped.
struct WitnessSink {
    alerts: Arc<AtomicU64>,
    flushed: Arc<AtomicBool>,
    dropped: Arc<AtomicBool>,
}

impl AlertSink for WitnessSink {
    fn on_alert(&mut self, _alert: &Alert<'_>) {
        self.alerts.fetch_add(1, Ordering::SeqCst);
    }

    fn flush(&mut self) {
        self.flushed.store(true, Ordering::SeqCst);
    }
}

impl Drop for WitnessSink {
    fn drop(&mut self) {
        self.dropped.store(true, Ordering::SeqCst);
    }
}

#[test]
fn dropping_the_plane_without_shutdown_flushes_and_joins() {
    let shop = TenantId::new("shop");
    let alerts = Arc::new(AtomicU64::new(0));
    let flushed = Arc::new(AtomicBool::new(false));
    let dropped = Arc::new(AtomicBool::new(false));
    let witness = (
        Arc::clone(&alerts),
        Arc::clone(&flushed),
        Arc::clone(&dropped),
    );
    let plane = ServicePlane::builder()
        .tenant(shop.clone(), 1, move |_, _| {
            alert_on_all().sink(WitnessSink {
                alerts: Arc::clone(&witness.0),
                flushed: Arc::clone(&witness.1),
                dropped: Arc::clone(&witness.2),
            })
        })
        .build()
        .unwrap();
    // Far short of a chunk: the final drain delivers these (unless the
    // flush deadline got to them first).
    for seq in 0..3 {
        assert_eq!(plane.ingest(&shop, line(0, seq)), IngestOutcome::Routed);
    }
    let clone = plane.clone();
    drop(plane);
    assert!(
        !dropped.load(Ordering::SeqCst),
        "a live clone keeps the plane up"
    );
    drop(clone);
    // The driver owns the pipeline, so its sink is gone only once the
    // thread has been joined: all of this is visible the moment the
    // last handle's drop returns.
    assert_eq!(alerts.load(Ordering::SeqCst), 3);
    assert!(flushed.load(Ordering::SeqCst));
    assert!(dropped.load(Ordering::SeqCst));
}
