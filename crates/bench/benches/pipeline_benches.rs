//! Pipeline driver throughput: the persistent worker pool versus the
//! scoped-spawn-per-flush driver it replaced.
//!
//! Both drivers do identical work per chunk — client-shard, run every
//! detector's batched path over each shard, scatter verdicts back,
//! adjudicate 1-of-2 — and both keep per-worker detector replicas alive
//! across flushes. The difference is the thread model: the scoped driver
//! pays a spawn/join per worker on *every* chunk flush, while the pool
//! reuses long-lived workers fed through bounded queues and overlaps the
//! driver's sharding of chunk *n+1* with the detectors on chunk *n*.
//!
//! Scale defaults to `small` (12k requests) so `cargo bench` stays
//! quick; set `DIVSCRAPE_BENCH_SCALE` for paper-scale runs:
//!
//! ```text
//! DIVSCRAPE_BENCH_SCALE=paper cargo bench -p divscrape-bench --bench pipeline_benches
//! ```

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use divscrape_bench::scenario_for;
use divscrape_detect::parallel::run_index_runs;
use divscrape_detect::{Arcane, Detector, Sentinel, Sessionizer, Verdict};
use divscrape_ensemble::{AlertVector, KOutOfN};
use divscrape_httplog::{EntryRef, LogEntry};
use divscrape_pipeline::{Adjudication, PipelineBuilder};
use divscrape_traffic::LabelledLog;

const CHUNK: usize = 4_096;
const MEMBER_NAMES: [&str; 2] = ["sentinel", "arcane"];

fn log() -> LabelledLog {
    let scale = std::env::var("DIVSCRAPE_BENCH_SCALE").unwrap_or_else(|_| "small".to_owned());
    let scenario = scenario_for(&scale, 3).expect("DIVSCRAPE_BENCH_SCALE");
    divscrape_traffic::generate(&scenario).unwrap()
}

/// The pre-pool engine, reproduced faithfully for comparison: entries
/// are buffered and drained into owned chunks exactly as the pipeline
/// does, per-worker detector replicas persist across flushes, workers=1
/// runs inline on the driver — but every multi-worker chunk flush
/// client-shards the chunk and spawns a fresh scoped thread per
/// participating worker, which is the per-flush cost the pool removes.
struct ScopedSpawnDriver {
    crews: Vec<Vec<Box<dyn Detector + Send>>>,
    rule: KOutOfN,
    buffer: Vec<LogEntry>,
    alerts: usize,
}

impl ScopedSpawnDriver {
    fn new(workers: usize) -> Self {
        Self {
            crews: (0..workers)
                .map(|_| {
                    vec![
                        Box::new(Sentinel::stock()) as Box<dyn Detector + Send>,
                        Box::new(Arcane::stock()) as Box<dyn Detector + Send>,
                    ]
                })
                .collect(),
            rule: KOutOfN::new(1, 2).unwrap(),
            buffer: Vec::new(),
            alerts: 0,
        }
    }

    fn push_batch(&mut self, entries: &[LogEntry]) {
        self.buffer.extend_from_slice(entries);
        while self.buffer.len() >= CHUNK {
            let chunk: Vec<LogEntry> = self.buffer.drain(..CHUNK).collect();
            self.process_chunk(chunk);
        }
    }

    fn drain(&mut self) -> usize {
        if !self.buffer.is_empty() {
            let residue = std::mem::take(&mut self.buffer);
            self.process_chunk(residue);
        }
        self.alerts
    }

    fn process_chunk(&mut self, chunk: Vec<LogEntry>) {
        let workers = self.crews.len();
        let n_detectors = MEMBER_NAMES.len();
        let views: Vec<EntryRef<'_>> = chunk.iter().map(LogEntry::view).collect();

        let columns: Vec<Vec<Verdict>> = if workers == 1 {
            self.crews[0]
                .iter_mut()
                .map(|det| {
                    let mut col = Vec::with_capacity(chunk.len());
                    det.observe_batch_refs(&views, &mut col);
                    col
                })
                .collect()
        } else {
            let mut shards: Vec<Vec<usize>> = vec![Vec::new(); workers];
            for (i, e) in views.iter().enumerate() {
                shards[Sessionizer::shard_of(&e.client_key(), workers)].push(i);
            }
            let chunk_ref = &views;
            let results: Vec<Vec<Vec<(usize, Verdict)>>> = std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .crews
                    .iter_mut()
                    .zip(&shards)
                    .filter(|(_, shard)| !shard.is_empty())
                    .map(|(crew, shard)| {
                        scope.spawn(move || {
                            crew.iter_mut()
                                .map(|det| run_index_runs(det, chunk_ref, shard))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("scoped worker panicked"))
                    .collect()
            });
            let mut columns = vec![vec![Verdict::CLEAR; chunk.len()]; n_detectors];
            for per_detector in results {
                for (d, pairs) in per_detector.into_iter().enumerate() {
                    for (i, v) in pairs {
                        columns[d][i] = v;
                    }
                }
            }
            columns
        };

        let vectors: Vec<AlertVector> = columns
            .iter()
            .zip(MEMBER_NAMES)
            .map(|(col, name)| {
                let bools: Vec<bool> = col.iter().map(|v| v.alert).collect();
                AlertVector::from_bools(name, &bools)
            })
            .collect();
        let refs: Vec<&AlertVector> = vectors.iter().collect();
        self.alerts += self.rule.apply(&refs).count() as usize;
    }
}

fn bench_drivers(c: &mut Criterion) {
    let log = log();
    let entries = log.entries();

    // Sanity: both drivers agree before we time them.
    let expected = {
        let mut pipeline = PipelineBuilder::new()
            .detector(Sentinel::stock())
            .detector(Arcane::stock())
            .adjudication(Adjudication::k_of_n(1))
            .workers(2)
            .chunk_capacity(CHUNK)
            .build()
            .unwrap();
        pipeline.push_batch(entries);
        pipeline.drain().combined.count() as usize
    };
    let mut scoped = ScopedSpawnDriver::new(2);
    scoped.push_batch(entries);
    assert_eq!(scoped.drain(), expected, "drivers disagree on alert count");

    let mut g = c.benchmark_group("pipeline");
    g.sample_size(10);
    g.throughput(Throughput::Elements(entries.len() as u64));
    // Both engines run workers=1 inline on the driver (no threads), so
    // 1w is the parity baseline; the drivers differ — and the pool's
    // spawn-amortization and overlap pay off — for workers > 1.
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
        g.bench_function(format!("scoped_spawn_{workers}w"), |b| {
            b.iter(|| {
                let mut driver = ScopedSpawnDriver::new(workers);
                for chunk in entries.chunks(997) {
                    driver.push_batch(chunk);
                }
                driver.drain()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_drivers);
criterion_main!(benches);
