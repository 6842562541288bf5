//! Hierarchical triage: the first-pass filter's per-entry cost and the
//! end-to-end pipeline win it buys on benign-heavy traffic.
//!
//! Two groups:
//!
//! * `triage/classify` — [`FastTriage::classify`] alone over parsed
//!   views, the cost every entry pays before the detectors run. The
//!   triage claim only works if this is nanoseconds, not microseconds.
//! * `triage/pipeline_*` — the full five-detector pipeline with triage
//!   off versus the stock policy, over a benign-heavy log at 1%
//!   suspicious — the `benchmark/` harness's `triage_benign` operating
//!   point, where only the triaged arm is timed (triage-off runs there
//!   as the correctness cross-route). This group is the one place the
//!   two arms race.
//!
//! Scale defaults to `small` (12k requests); set `DIVSCRAPE_BENCH_SCALE`
//! for larger runs:
//!
//! ```text
//! DIVSCRAPE_BENCH_SCALE=paper cargo bench -p divscrape-bench --bench triage_benches
//! ```

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use divscrape_bench::{bench_scale, scenario_for};
use divscrape_detect::baselines::{RateLimiter, SignatureOnly};
use divscrape_detect::triage::{TriageFilter, TriagePolicy};
use divscrape_detect::{Arcane, FastTriage, Sentinel, TrapDetector};
use divscrape_httplog::EntryRef;
use divscrape_pipeline::{Adjudication, Pipeline, PipelineBuilder};
use divscrape_traffic::generate;

fn lines() -> Vec<String> {
    let target = scenario_for(&bench_scale(), 2018)
        .expect("DIVSCRAPE_BENCH_SCALE")
        .target_requests;
    let scenario = divscrape_traffic::ScenarioConfig::benign_heavy(2018, target, 0.01);
    generate(&scenario)
        .unwrap()
        .entries()
        .iter()
        .map(|e| e.to_string())
        .collect()
}

fn build_pipeline(triage: bool) -> Pipeline {
    let mut builder = PipelineBuilder::new()
        .detector(Sentinel::stock())
        .detector(Arcane::stock())
        .detector(TrapDetector::default())
        .detector(RateLimiter::default())
        .detector(SignatureOnly::stock())
        .adjudication(Adjudication::k_of_n(1))
        .workers(1);
    if triage {
        builder = builder.triage(TriagePolicy::fast());
    }
    builder.build().expect("bench pipeline")
}

fn bench_triage(c: &mut Criterion) {
    let lines = lines();
    let entries: Vec<EntryRef<'_>> = lines
        .iter()
        .map(|l| EntryRef::parse(l).expect("generated line parses"))
        .collect();

    let mut g = c.benchmark_group("triage");
    g.sample_size(10);
    g.throughput(Throughput::Elements(entries.len() as u64));

    g.bench_function("classify", |b| {
        b.iter(|| {
            let mut filter = FastTriage::stock();
            let mut escalations = 0u64;
            for e in &entries {
                if matches!(
                    filter.classify(e),
                    divscrape_detect::triage::TriageDecision::Escalate
                ) {
                    escalations += 1;
                }
            }
            escalations
        })
    });

    for (name, triage) in [("pipeline_off", false), ("pipeline_triaged", true)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                // Fresh pipeline per pass: re-feeding one pipeline would
                // replay the same time window and distort the detectors.
                let mut pipeline = build_pipeline(triage);
                for line in &lines {
                    pipeline.push_line(line).expect("generated line parses");
                }
                pipeline.drain().combined.count()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_triage);
criterion_main!(benches);
