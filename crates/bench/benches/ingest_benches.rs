//! **`observe` vs `observe_batch_refs`** per stock detector — how much
//! the specialized batch hot paths (per-client-run amortization of
//! hashing, whitelist checks, signature/reputation lookups) buy over the
//! per-entry loop, detector by detector. The `benchmark/` harness only
//! ever drives the batch path (`detect.<member>.ns_per_entry`), so the
//! race itself lives here; the ingest driver's own cost is the harness's
//! `ingest.driver.ns_per_line`.
//!
//! Scale defaults to `small` (12k requests); set `DIVSCRAPE_BENCH_SCALE`
//! for paper-scale runs:
//!
//! ```text
//! DIVSCRAPE_BENCH_SCALE=paper cargo bench -p divscrape-bench --bench ingest_benches
//! ```

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use divscrape_bench::{bench_scale, scenario_for};
use divscrape_detect::baselines::{RateLimiter, SignatureOnly};
use divscrape_detect::{Arcane, Detector, Sentinel, Verdict};
use divscrape_httplog::{EntryRef, LogEntry};
use divscrape_traffic::LabelledLog;

fn log() -> LabelledLog {
    let scenario = scenario_for(&bench_scale(), 3).expect("DIVSCRAPE_BENCH_SCALE");
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

criterion_group!(benches, bench_stock_detectors);
criterion_main!(benches);
