//! Worker-pool sweep: the two-tool pipeline at 1, 2 and 4 workers.
//!
//! `workers(1)` runs inline on the driver (no threads); 2 and 4 go
//! through the persistent pool — client-sharded chunks over bounded job
//! queues, results reordered on the driver. Every `benchmark/` workload
//! composes `workers(1)`, so this group is the only place the pool's
//! hand-off cost and scaling are timed.
//!
//! Scale defaults to `small` (12k requests) so `cargo bench` stays
//! quick; set `DIVSCRAPE_BENCH_SCALE` for paper-scale runs:
//!
//! ```text
//! DIVSCRAPE_BENCH_SCALE=paper cargo bench -p divscrape-bench --bench pipeline_benches
//! ```

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use divscrape_bench::{bench_scale, scenario_for};
use divscrape_detect::{Arcane, Sentinel};
use divscrape_pipeline::{Adjudication, PipelineBuilder};

const CHUNK: usize = 4_096;

fn bench_pool(c: &mut Criterion) {
    let scenario = scenario_for(&bench_scale(), 3).expect("DIVSCRAPE_BENCH_SCALE");
    let log = divscrape_traffic::generate(&scenario).unwrap();
    let entries = log.entries();

    let mut g = c.benchmark_group("pipeline");
    g.sample_size(10);
    g.throughput(Throughput::Elements(entries.len() as u64));
    for workers in [1usize, 2, 4] {
        g.bench_function(format!("persistent_pool_{workers}w"), |b| {
            b.iter(|| {
                let mut pipeline = PipelineBuilder::new()
                    .detector(Sentinel::stock())
                    .detector(Arcane::stock())
                    .adjudication(Adjudication::k_of_n(1))
                    .workers(workers)
                    .chunk_capacity(CHUNK)
                    .build()
                    .unwrap();
                for chunk in entries.chunks(997) {
                    pipeline.push_batch(chunk);
                }
                pipeline.drain().combined.count()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_pool);
criterion_main!(benches);
