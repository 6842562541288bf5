//! Service-plane sharding throughput: what do per-tenant *driver*
//! threads buy?
//!
//! One interleaved stream of four properties' traffic is rendered to
//! CLF lines and ingested into a single-tenant `ServicePlane` two ways:
//! a 1-shard plane (one driver thread for the tenant) vs a 4-shard
//! plane (client-hash sharding, one driver thread per shard).
//!
//! Scale defaults to `small` (12k requests per generated log); set
//! `DIVSCRAPE_BENCH_SCALE` for paper-scale runs:
//!
//! ```text
//! DIVSCRAPE_BENCH_SCALE=paper cargo bench -p divscrape-bench --bench service_benches
//! ```

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use divscrape_bench::{bench_scale, scenario_for};
use divscrape_detect::{Arcane, Sentinel, TenantId};
use divscrape_httplog::LogEntry;
use divscrape_pipeline::{Adjudication, PipelineBuilder};
use divscrape_service::ServicePlane;

/// Generated logs interleaved into the benchmark stream.
const LOGS: usize = 4;

fn two_tool() -> PipelineBuilder {
    PipelineBuilder::new()
        .detector(Sentinel::stock())
        .detector(Arcane::stock())
        .adjudication(Adjudication::k_of_n(1))
        .workers(2)
}

/// `LOGS` generated logs, round-robin interleaved and rendered to CLF
/// lines (the plane's shard router hashes the client fields straight
/// off the line).
fn interleaved_lines() -> Vec<String> {
    let scale = bench_scale();
    let logs: Vec<Vec<LogEntry>> = (0..LOGS)
        .map(|i| {
            let scenario = scenario_for(&scale, 11 + i as u64).expect("DIVSCRAPE_BENCH_SCALE");
            divscrape_traffic::generate(&scenario)
                .unwrap()
                .entries()
                .to_vec()
        })
        .collect();
    let longest = logs.iter().map(Vec::len).max().unwrap();
    let mut lines = Vec::with_capacity(logs.iter().map(Vec::len).sum());
    for i in 0..longest {
        for log in &logs {
            if let Some(entry) = log.get(i) {
                lines.push(entry.to_string());
            }
        }
    }
    lines
}

fn bench_service_sharding(c: &mut Criterion) {
    let lines = interleaved_lines();

    let mut g = c.benchmark_group("service_sharding");
    g.sample_size(10);
    g.throughput(Throughput::Elements(lines.len() as u64));

    for shards in [1usize, 4] {
        g.bench_function(format!("plane/{shards}_shard_drivers"), |b| {
            b.iter(|| {
                let tenant = TenantId::new("bench");
                let plane = ServicePlane::builder()
                    .queue_depth(4096)
                    .tenant(tenant.clone(), shards, |_, _| two_tool())
                    .build()
                    .unwrap();
                for line in &lines {
                    plane.ingest(&tenant, line.clone());
                }
                let reports = plane.drain_all();
                let alerts: u64 = reports
                    .iter()
                    .flat_map(|(_, rs)| rs.iter())
                    .map(|r| r.combined.count())
                    .sum();
                plane.shutdown();
                alerts
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_service_sharding);
criterion_main!(benches);
