//! Multi-tenant service, end to end: two monitored properties stream
//! CLF lines in over their own TCP sockets; one process pumps each
//! stream into that tenant's own pipeline on the service plane
//! (different adjudication rules); tenant-tagged alerts flow out to one
//! shared TCP collector.
//!
//! ```text
//! shop-eu socket ─► SourcePump ─┐                ┌─ shard[shop-eu] (1oo2) ─► TcpSink ─┐
//!                               ├─ ServicePlane ─┤                                    ├─► collector
//! shop-us socket ─► SourcePump ─┘                └─ shard[shop-us] (2oo2) ─► TcpSink ─┘
//! ```
//!
//! `--smoke` (also the default, and a CI gate): a fully self-driving
//! loopback run — two feeder threads replay per-tenant sample logs over
//! TCP, a collector thread receives the tagged alerts, and the process
//! exits non-zero unless **both** tenants alert, every alert carries
//! the right tenant tag, and neither tenant's pipeline saw the other's
//! traffic.
//!
//! ```text
//! cargo run --release --example multi_tenant -- --smoke
//! ```

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{Ipv4Addr, TcpListener, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use divscrape_detect::{Arcane, Sentinel};
use divscrape_ingest::{SocketSource, SocketSourceConfig};
use divscrape_pipeline::{Adjudication, Alert, PipelineBuilder, TcpSink, TenantId};
use divscrape_service::{PumpMode, ServicePlane, SourcePump};
use divscrape_traffic::{generate, LabelledLog, ScenarioConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("--smoke") => run_smoke(),
        Some("--help" | "-h") => {
            eprintln!("usage: multi_tenant [--smoke]");
            Ok(())
        }
        Some(other) => Err(format!("unknown argument `{other}` (try --help)").into()),
    }
}

fn run_smoke() -> Result<(), Box<dyn std::error::Error>> {
    let started = Instant::now();
    let eu = TenantId::new("shop-eu");
    let us = TenantId::new("shop-us");

    // Per-tenant sample traffic (different seeds: different client
    // populations and bot mixes).
    let eu_log = generate(&ScenarioConfig::tiny(2024))?;
    let us_log = generate(&ScenarioConfig::tiny(4202))?;
    println!(
        "sample logs: {} requests ({eu}), {} requests ({us})",
        eu_log.len(),
        us_log.len()
    );

    // One shared collector for both tenants' alerts: each line must be
    // attributable by its tenant tag alone.
    let collector = TcpListener::bind("127.0.0.1:0")?;
    let collector_addr = collector.local_addr()?;
    let collecting = std::thread::spawn(move || -> std::io::Result<Vec<String>> {
        // One connection per tenant sink, each drained on its own
        // thread: reading them sequentially would leave the second
        // sink's alerts sitting in kernel socket buffers for the whole
        // run — and wedge the pipeline if they outgrow them.
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (conn, _) = collector.accept()?;
                Ok(std::thread::spawn(
                    move || -> std::io::Result<Vec<String>> {
                        BufReader::new(conn).lines().collect()
                    },
                ))
            })
            .collect::<std::io::Result<_>>()?;
        let mut lines = Vec::new();
        for reader in readers {
            lines.extend(reader.join().expect("collector reader panicked")?);
        }
        Ok(lines)
    });

    // Each tenant has its own ingest socket and its own pump thread.
    let socket_config = SocketSourceConfig {
        finish_on_disconnect: true,
        ..Default::default()
    };
    let eu_source = SocketSource::bind_with("127.0.0.1:0", socket_config)?;
    let us_source = SocketSource::bind_with("127.0.0.1:0", socket_config)?;
    let feeders: Vec<_> = [
        (eu_source.local_addr(), &eu_log),
        (us_source.local_addr(), &us_log),
    ]
    .into_iter()
    .map(|(addr, log): (_, &LabelledLog)| {
        let payload: String = log.entries().iter().map(|e| format!("{e}\n")).collect();
        std::thread::spawn(move || -> std::io::Result<()> {
            let mut conn = TcpStream::connect(addr)?;
            for chunk in payload.as_bytes().chunks(8_192) {
                conn.write_all(chunk)?;
            }
            Ok(())
        })
    })
    .collect();

    // The plane: per-tenant calibration. shop-eu alerts on either tool
    // (union); shop-us only when both tools agree. Each tenant runs one
    // shard, so its factory runs once and hands over the tenant's
    // already-connected collector sink.
    let eu_sink = TcpSink::connect(collector_addr)?;
    let us_sink = TcpSink::connect(collector_addr)?;
    let (eu_telemetry, us_telemetry) = (eu_sink.telemetry(), us_sink.telemetry());
    let tenant_factory = |k: u32, sink: TcpSink| {
        let sink = Mutex::new(Some(sink));
        move |_: &TenantId, _: usize| {
            let sink = sink.lock().expect("sink slot").take();
            PipelineBuilder::new()
                .detector(Sentinel::stock())
                .detector(Arcane::stock())
                .workers(2)
                .adjudication(Adjudication::k_of_n(k))
                .sink(sink.expect("one shard per tenant"))
        }
    };
    let plane = ServicePlane::builder()
        .tenant(eu.clone(), 1, tenant_factory(1, eu_sink))
        .tenant(us.clone(), 1, tenant_factory(2, us_sink))
        .build()?;

    // Blocking pumps: a full shard queue slows that tenant's socket
    // down instead of losing lines.
    let pumps = [
        SourcePump::spawn(&plane, &eu, eu_source, PumpMode::Blocking),
        SourcePump::spawn(&plane, &us, us_source, PumpMode::Blocking),
    ];
    for feeder in feeders {
        feeder.join().expect("feeder panicked")?;
    }
    let mut lines_read = 0;
    for pump in pumps {
        assert!(pump.wait(Duration::from_secs(60)), "pump did not finish");
        let pumped = pump.stop();
        assert_eq!(pumped.errors + pumped.truncated, 0, "source trouble");
        lines_read += pumped.lines;
    }
    // One shard per tenant: one report each.
    let eu_report = plane.drain(&eu).expect("served tenant").remove(0);
    let us_report = plane.drain(&us).expect("served tenant").remove(0);
    let stats = plane.stats();
    plane.shutdown(); // closes the TCP sinks → the collector's reads end
    let received = collecting.join().expect("collector panicked")?;

    let eu_alerts = eu_report.combined.count();
    let us_alerts = us_report.combined.count();
    println!(
        "ingested {} entries over {lines_read} lines in {:?}",
        stats.entries_processed,
        started.elapsed(),
    );
    println!(
        "alerts: {eu_alerts} ({eu}, union rule) | {us_alerts} ({us}, unanimity rule) | {} collected",
        received.len()
    );

    // Gate 1: both tenants must alert, under their own rules.
    assert!(eu_alerts > 0, "tenant {eu} produced no alerts");
    assert!(us_alerts > 0, "tenant {us} produced no alerts");

    // Gate 2: isolation. Each pipeline processed exactly its own
    // tenant's traffic, nothing leaked across.
    assert_eq!(stats.unrouted_lines, 0, "stray lines");
    assert_eq!(
        eu_report.requests(),
        eu_log.len(),
        "tenant {eu} did not see exactly its own stream"
    );
    assert_eq!(
        us_report.requests(),
        us_log.len(),
        "tenant {us} did not see exactly its own stream"
    );

    // Gate 3: every collected alert is attributable and consistent:
    // tagged with a served tenant, and its client belongs to that
    // tenant's own stream.
    let clients_of = |log: &LabelledLog| -> HashSet<Ipv4Addr> {
        log.entries().iter().map(|e| e.addr()).collect()
    };
    let eu_clients = clients_of(&eu_log);
    let us_clients = clients_of(&us_log);
    let mut tagged_counts = (0u64, 0u64);
    for line in &received {
        let alert = Alert::from_json(line)?;
        let tenant = alert.tenant.expect("alert without tenant tag");
        let client = alert.client;
        match tenant.as_str() {
            "shop-eu" => {
                tagged_counts.0 += 1;
                assert!(
                    eu_clients.contains(&client),
                    "alert for {eu} names a client it never saw: {client}"
                );
            }
            "shop-us" => {
                tagged_counts.1 += 1;
                assert!(
                    us_clients.contains(&client),
                    "alert for {us} names a client it never saw: {client}"
                );
            }
            other => panic!("alert tagged with unserved tenant `{other}`"),
        }
    }
    assert_eq!(
        tagged_counts,
        (eu_alerts, us_alerts),
        "collected alert counts must match the per-tenant reports"
    );
    assert_eq!(eu_telemetry.written(), eu_alerts);
    assert_eq!(us_telemetry.written(), us_alerts);

    println!("smoke OK");
    Ok(())
}
