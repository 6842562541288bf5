//! Online-recalibration overhead: a recalibrating pipeline versus the
//! same composition with frozen weights.
//!
//! Recalibration adds work on the driver's finalization path only — one
//! EWMA observation per entry plus a periodic weight re-derivation — so
//! the interesting question is how much of the pipeline's throughput
//! that steals. Three variants run the identical detector composition
//! over the identical drifting log (`DriftScenario`, the population
//! shift that makes recalibration worth paying for):
//!
//! * `frozen` — no recalibrator at all (the PR-1 adjudication path).
//! * `recalibrating` — the peer-proxy recalibrator at a production-ish
//!   cadence (window 256, update every 4096 entries).
//! * `recalibrating-hot` — a deliberately absurd cadence (update every
//!   256 entries) to bound the cost of the re-derivation itself.
//!
//! Scale defaults to `small` (12k requests split over the two drift
//! phases) so `cargo bench` stays quick; set `DIVSCRAPE_BENCH_SCALE`
//! for paper-scale runs:
//!
//! ```text
//! DIVSCRAPE_BENCH_SCALE=paper cargo bench -p divscrape-bench --bench recalib_benches
//! ```

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use divscrape_bench::{bench_scale, scenario_for};
use divscrape_detect::baselines::RateLimiter;
use divscrape_detect::{Arcane, Sentinel};
use divscrape_pipeline::{Adjudication, Pipeline, PipelineBuilder, RecalibrationPolicy};
use divscrape_traffic::{DriftScenario, LabelledLog};

fn drift_log() -> LabelledLog {
    let scenario = scenario_for(&bench_scale(), 17).expect("DIVSCRAPE_BENCH_SCALE");
    DriftScenario::new(scenario.clone())
        .then(
            divscrape_traffic::PopulationMix::stealth_shift(),
            scenario.target_requests,
        )
        .generate()
        .unwrap()
}

fn composition(workers: usize) -> PipelineBuilder {
    PipelineBuilder::new()
        .detector(Sentinel::stock())
        .detector(Arcane::stock())
        .detector(RateLimiter::new(8))
        .adjudication(Adjudication::weighted(vec![1.0, 1.0, 1.0], 0.95))
        .workers(workers)
}

fn run_through(mut pipeline: Pipeline, log: &LabelledLog) -> u64 {
    pipeline.push_batch(log.entries());
    let _ = pipeline.drain();
    pipeline.stats().alerts
}

fn bench_recalibration_overhead(c: &mut Criterion) {
    let log = drift_log();
    for workers in [1usize, 4] {
        let mut group = c.benchmark_group(format!("recalibration/{workers}w"));
        group.sample_size(10);
        group.throughput(Throughput::Elements(log.len() as u64));
        group.bench_function("frozen", |b| {
            b.iter_batched(
                || composition(workers).build().unwrap(),
                |pipeline| run_through(pipeline, &log),
                BatchSize::PerIteration,
            );
        });
        group.bench_function("recalibrating", |b| {
            b.iter_batched(
                || {
                    composition(workers)
                        .recalibration(RecalibrationPolicy::new().window(256).update_every(4_096))
                        .build()
                        .unwrap()
                },
                |pipeline| run_through(pipeline, &log),
                BatchSize::PerIteration,
            );
        });
        group.bench_function("recalibrating-hot", |b| {
            b.iter_batched(
                || {
                    composition(workers)
                        .recalibration(RecalibrationPolicy::new().window(256).update_every(256))
                        .build()
                        .unwrap()
                },
                |pipeline| run_through(pipeline, &log),
                BatchSize::PerIteration,
            );
        });
        group.finish();
    }
}

criterion_group!(benches, bench_recalibration_overhead);
criterion_main!(benches);
