//! The two benches the ROADMAP asked for on the ingestion side:
//!
//! 1. **`observe` vs `observe_batch_refs`** per stock detector — how much the
//!    specialized batch hot paths (per-client-run amortization of
//!    hashing, whitelist checks, signature/reputation lookups) buy over
//!    the per-entry loop, detector by detector.
//! 2. **Replay-source ingestion throughput** — the full live-ingestion
//!    stack (replay source → line parse → driver → pipeline pool →
//!    adjudication) against bare `push_batch` of pre-parsed entries,
//!    pricing the CLF-line round-trip.
//!
//! Scale defaults to `small` (12k requests); set `DIVSCRAPE_BENCH_SCALE`
//! for paper-scale runs:
//!
//! ```text
//! DIVSCRAPE_BENCH_SCALE=paper cargo bench -p divscrape-bench --bench ingest_benches
//! ```

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use divscrape_bench::scenario_for;
use divscrape_detect::baselines::{RateLimiter, SignatureOnly};
use divscrape_detect::{Arcane, Detector, Sentinel, Verdict};
use divscrape_httplog::{EntryRef, LogEntry};
use divscrape_ingest::{IngestDriver, Replay, ReplayPace};
use divscrape_pipeline::{Adjudication, PipelineBuilder};
use divscrape_traffic::LabelledLog;

fn log() -> LabelledLog {
    let scale = std::env::var("DIVSCRAPE_BENCH_SCALE").unwrap_or_else(|_| "small".to_owned());
    let scenario = scenario_for(&scale, 3).expect("DIVSCRAPE_BENCH_SCALE");
    divscrape_traffic::generate(&scenario).unwrap()
}

/// Benches one detector both ways over the same views of one log: the
/// per-entry `observe` loop against the specialized `observe_batch_refs`
/// fast path.
fn bench_hot_paths<D: Detector + Clone>(
    c: &mut Criterion,
    name: &str,
    proto: &D,
    log: &LabelledLog,
) {
    let entries: Vec<EntryRef<'_>> = log.entries().iter().map(LogEntry::view).collect();

    // The contract the speedup must not break: identical verdicts.
    let mut per_entry = proto.clone();
    let sequential: Vec<Verdict> = entries.iter().map(|e| per_entry.observe(e)).collect();
    let mut batched = proto.clone();
    let mut fast = Vec::new();
    batched.observe_batch_refs(&entries, &mut fast);
    assert_eq!(sequential, fast, "{name}: batch path diverged");

    let mut g = c.benchmark_group(format!("hot_path/{name}"));
    g.sample_size(10);
    g.throughput(Throughput::Elements(entries.len() as u64));
    g.bench_function("observe", |b| {
        b.iter(|| {
            let mut d = proto.clone();
            d.reset();
            let mut alerts = 0usize;
            for e in &entries {
                alerts += usize::from(d.observe(e).alert);
            }
            alerts
        })
    });
    g.bench_function("observe_batch_refs", |b| {
        b.iter(|| {
            let mut d = proto.clone();
            d.reset();
            let mut out = Vec::with_capacity(entries.len());
            d.observe_batch_refs(&entries, &mut out);
            out.iter().filter(|v| v.alert).count()
        })
    });
    g.finish();
}

fn bench_stock_detectors(c: &mut Criterion) {
    let log = log();
    bench_hot_paths(c, "sentinel", &Sentinel::stock(), &log);
    bench_hot_paths(c, "arcane", &Arcane::stock(), &log);
    bench_hot_paths(c, "rate_limiter", &RateLimiter::new(60), &log);
    bench_hot_paths(c, "signature_only", &SignatureOnly::stock(), &log);
}

/// The live-ingestion stack at full tilt: an unlimited-pace replay
/// source (rendered CLF lines, re-parsed per line) driven into the
/// two-tool pipeline, against `push_batch` of the pre-parsed entries —
/// the line-format tax on top of the engine.
fn bench_replay_ingestion(c: &mut Criterion) {
    let log = log();
    let entries = log.entries();
    let lines: Vec<String> = entries.iter().map(ToString::to_string).collect();

    let build = || {
        PipelineBuilder::new()
            .detector(Sentinel::stock())
            .detector(Arcane::stock())
            .adjudication(Adjudication::k_of_n(1))
            .workers(2)
            .build()
            .unwrap()
    };

    let mut g = c.benchmark_group("ingest");
    g.sample_size(10);
    g.throughput(Throughput::Elements(entries.len() as u64));
    g.bench_function("replay_source_driver", |b| {
        b.iter(|| {
            let mut driver = IngestDriver::new(build());
            let mut source = Replay::from_lines(lines.clone(), ReplayPace::Unlimited);
            let outcome = driver.run(&mut source).unwrap();
            assert_eq!(outcome.stats.parse_errors, 0);
            outcome.report.combined.count()
        })
    });
    g.bench_function("push_batch_baseline", |b| {
        b.iter(|| {
            let mut pipeline = build();
            pipeline.push_batch(entries);
            pipeline.drain().combined.count()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_stock_detectors, bench_replay_ingestion);
criterion_main!(benches);
