//! The sharded service plane, end to end on loopback: syslog-style UDP
//! datagrams and a TCP line stream flow into per-tenant shard drivers,
//! every tenant's alerts ride ONE multiplexed collector connection, and
//! a line-protocol admin socket drives membership, freezing and the
//! eviction budget **live** while traffic is in flight.
//!
//! ```text
//! UDP datagrams ─► UdpSource ──► pump ─┐                                  ┌► collector
//!                                      ├► ServicePlane ─ shard drivers ─► MuxCollector (one TCP conn)
//! TCP stream ───► SocketSource ► pump ─┘        ▲
//!                                               │ STATS / TENANTS / JOIN / LEAVE
//!                                   admin (nc) ─┘ FREEZE / THAW / BUDGET
//! ```
//!
//! `--smoke` (also the default, and a CI gate) exits non-zero unless:
//! every UDP datagram arrives (zero drops at the paced rate), both edge
//! tenants alert, every collector line carries the right tenant tag,
//! the per-tenant telemetry split sums to the shared stream, and the
//! admin socket observably JOINs, FREEZEs, re-budgets and LEAVEs a
//! tenant mid-flight.
//!
//! ```text
//! cargo run --release --example service -- --smoke
//! ```

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream, UdpSocket};
use std::time::{Duration, Instant};

use divscrape_detect::{Arcane, Sentinel};
use divscrape_ingest::{SocketSource, SocketSourceConfig, UdpSource, UdpSourceConfig};
use divscrape_pipeline::{
    Adjudication, Alert, AlertParseError, MuxCollector, PipelineBuilder, TenantId,
};
use divscrape_service::{AdminServer, IngestOutcome, PumpMode, ServicePlane, SourcePump};
use divscrape_traffic::{generate, ScenarioConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => {}
            "--help" | "-h" => {
                eprintln!("usage: service [--smoke]");
                return Ok(());
            }
            other => return Err(format!("unknown argument `{other}` (try --help)").into()),
        }
    }
    run_smoke()
}

/// The pipeline composition every tenant in this example runs: the
/// two-tool 1oo2 ensemble from the paper's deployment sections.
fn two_tool() -> PipelineBuilder {
    PipelineBuilder::new()
        .detector(Sentinel::stock())
        .detector(Arcane::stock())
        .adjudication(Adjudication::k_of_n(1))
        .workers(2)
}

/// A minimal admin-protocol client: one command out, one reply back.
struct AdminClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl AdminClient {
    fn connect(admin: &AdminServer) -> std::io::Result<AdminClient> {
        let stream = TcpStream::connect(admin.local_addr())?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(AdminClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn command(&mut self, line: &str) -> Result<String, Box<dyn std::error::Error>> {
        writeln!(self.writer, "{line}")?;
        let mut reply = String::new();
        self.reader.read_line(&mut reply)?;
        if reply.is_empty() {
            return Err(format!("no reply to {line:?}").into());
        }
        Ok(reply.trim_end().to_owned())
    }
}

fn run_smoke() -> Result<(), Box<dyn std::error::Error>> {
    let started = Instant::now();
    let udp_tenant = TenantId::new("udp-edge");
    let tcp_tenant = TenantId::new("tcp-edge");
    let popup = TenantId::new("popup");

    // The collector: ONE accept — sharing a single connection across
    // every tenant is the point of the mux.
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let collector_addr = listener.local_addr()?;
    let collector = std::thread::spawn(move || -> std::io::Result<Vec<String>> {
        let (stream, _) = listener.accept()?;
        let mut lines = Vec::new();
        for line in BufReader::new(stream).lines() {
            match line {
                Ok(line) => lines.push(line),
                Err(_) => break,
            }
        }
        Ok(lines)
    });

    let mux = MuxCollector::connect(collector_addr)?;
    // One handle per tenant, cloned into each of that tenant's shards:
    // clones share counters, so the telemetry reads per tenant.
    let udp_sink = mux.handle();
    let tcp_sink = mux.handle();
    let (udp_tel, tcp_tel) = (udp_sink.telemetry(), tcp_sink.telemetry());

    let plane = ServicePlane::builder()
        .queue_depth(4096)
        .tenant(udp_tenant.clone(), 2, move |_, _| {
            two_tool().sink(udp_sink.clone())
        })
        .tenant(tcp_tenant.clone(), 2, move |_, _| {
            two_tool().sink(tcp_sink.clone())
        })
        .default_factory({
            let mux = mux.clone();
            move |_, _| two_tool().sink(mux.handle())
        })
        .default_shards(2)
        .build()?;
    let admin = AdminServer::bind("127.0.0.1:0", plane.clone())?;

    // Edge intake: a lossy syslog-style UDP socket and a blocking TCP
    // line stream, each pumped into its tenant's shards.
    let udp_source = UdpSource::bind_with(
        "127.0.0.1:0",
        UdpSourceConfig {
            queue_depth: 8192,
            ..Default::default()
        },
    )?;
    let udp_addr = udp_source.local_addr();
    let udp_pump = SourcePump::spawn(&plane, &udp_tenant, udp_source, PumpMode::Lossy);
    let tcp_source = SocketSource::bind_with(
        "127.0.0.1:0",
        SocketSourceConfig {
            queue_depth: 4096,
            finish_on_disconnect: true,
            ..Default::default()
        },
    )?;
    let tcp_addr = tcp_source.local_addr();
    let tcp_pump = SourcePump::spawn(&plane, &tcp_tenant, tcp_source, PumpMode::Blocking);

    let udp_log = generate(&ScenarioConfig::tiny(81))?;
    let tcp_log = generate(&ScenarioConfig::tiny(82))?;
    let popup_log = generate(&ScenarioConfig::tiny(83))?;
    let udp_lines = udp_log.len() as u64;
    let udp_payload: Vec<String> = udp_log.entries().iter().map(|e| e.to_string()).collect();
    let udp_feeder = std::thread::spawn(move || -> std::io::Result<()> {
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        for (i, line) in udp_payload.iter().enumerate() {
            socket.send_to(line.as_bytes(), udp_addr)?;
            // Paced so the deep source queue absorbs every datagram:
            // the smoke pins the zero-drop case; the lossy accounting
            // under overload is pinned by `udp_edge_cases`.
            if i % 16 == 15 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        Ok(())
    });
    let tcp_payload: Vec<String> = tcp_log.entries().iter().map(|e| e.to_string()).collect();
    let tcp_feeder = std::thread::spawn(move || -> std::io::Result<()> {
        let mut conn = TcpStream::connect(tcp_addr)?;
        for line in &tcp_payload {
            writeln!(conn, "{line}")?;
        }
        Ok(())
    });

    // While traffic is in flight, drive the control plane over the
    // admin socket exactly as an operator with `nc` would.
    let mut client = AdminClient::connect(&admin)?;
    expect(
        client.command("JOIN popup 2")?,
        "OK joined popup shards=2",
        "JOIN",
    )?;
    let tenants = client.command("TENANTS")?;
    if !tenants.contains("\"popup\"") {
        return Err(format!("JOINed tenant missing from TENANTS: {tenants}").into());
    }
    for entry in popup_log.entries() {
        if plane.ingest(&popup, entry.to_string()) != IngestOutcome::Routed {
            return Err("popup line was not routed".into());
        }
    }
    expect(client.command("FREEZE popup")?, "OK frozen popup", "FREEZE")?;
    let stats = client.command("STATS")?;
    if !stats.contains("\"tenant\":\"popup\"") || !stats.contains("\"frozen\":true") {
        return Err(format!("FREEZE not visible in STATS: {stats}").into());
    }
    expect(client.command("THAW popup")?, "OK thawed popup", "THAW")?;
    expect(
        client.command("BUDGET 512")?,
        "OK budget=512 tenants=3",
        "BUDGET",
    )?;
    if !client.command("STATS")?.contains("\"eviction_budget\":512") {
        return Err("BUDGET not visible in STATS".into());
    }

    // Land every line: the feeders finish, the UDP pump reports all
    // datagrams through (no EOF on UDP — stop it explicitly), the TCP
    // pump sees the disconnect.
    udp_feeder.join().expect("udp feeder panicked")?;
    tcp_feeder.join().expect("tcp feeder panicked")?;
    let deadline = Instant::now() + Duration::from_secs(60);
    while udp_pump.stats().lines < udp_lines {
        if Instant::now() > deadline {
            return Err(format!(
                "UDP leg delivered {}/{udp_lines} lines",
                udp_pump.stats().lines
            )
            .into());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let udp_stats = udp_pump.stop();
    if udp_stats.dropped != 0 {
        return Err(format!("UDP intake dropped {} lines", udp_stats.dropped).into());
    }
    if !tcp_pump.wait(Duration::from_secs(60)) {
        return Err("TCP pump did not finish".into());
    }
    tcp_pump.stop();
    let _ = plane.drain(&udp_tenant);
    let _ = plane.drain(&tcp_tenant);

    // LEAVE stops popup's shards, draining them: the reply reports the
    // tenant's full entry count, and its work stays in the monotonic
    // aggregate below.
    expect(
        client.command("LEAVE popup")?,
        &format!("OK left popup entries={}", popup_log.len()),
        "LEAVE",
    )?;

    // The aggregate adds up and both edge tenants alerted.
    let stats = plane.stats();
    let total = udp_lines + tcp_log.len() as u64 + popup_log.len() as u64;
    if stats.entries_processed != total {
        return Err(format!(
            "plane processed {}/{total} entries",
            stats.entries_processed
        )
        .into());
    }
    if stats.parse_errors != 0 || stats.dropped_lines != 0 || stats.unrouted_lines != 0 {
        return Err(format!(
            "lossless run expected: parse_errors={} dropped={} unrouted={}",
            stats.parse_errors, stats.dropped_lines, stats.unrouted_lines
        )
        .into());
    }
    let tenant_alerts = |name: &str| {
        stats
            .tenants
            .iter()
            .find(|t| t.tenant.as_str() == name)
            .map(|t| t.alerts())
            .unwrap_or(0)
    };
    let (udp_alerts, tcp_alerts) = (tenant_alerts("udp-edge"), tenant_alerts("tcp-edge"));
    if udp_alerts == 0 || tcp_alerts == 0 {
        return Err(
            format!("both edge tenants must alert (udp={udp_alerts} tcp={tcp_alerts})").into(),
        );
    }

    let after = client.command("STATS")?;
    if !after.contains(&format!("\"entries_processed\":{total}")) {
        return Err(format!("departed tenant's entries left the aggregate: {after}").into());
    }
    expect(client.command("QUIT")?, "OK bye", "QUIT")?;

    // Tear down: the plane and every mux handle drop, closing the one
    // collector connection, and the reader thread hands back the wire.
    let mux_total = mux.telemetry().written();
    plane.shutdown();
    drop(admin);
    drop(plane);
    drop(mux);
    let wire = collector.join().expect("collector panicked")?;

    // Every alert crossed the single shared connection, tenant-tagged,
    // and the per-tenant telemetry split sums back to the stream.
    if mux_total != wire.len() as u64 {
        return Err(format!(
            "mux wrote {mux_total} alerts but the collector received {}",
            wire.len()
        )
        .into());
    }
    let tags = wire
        .iter()
        .map(|line| {
            Ok(Alert::from_json(line)?
                .tenant
                .map(|t| t.as_str().to_owned()))
        })
        .collect::<Result<Vec<_>, AlertParseError>>()?;
    let tagged = |name: &str| tags.iter().filter(|t| t.as_deref() == Some(name)).count() as u64;
    if tagged("udp-edge") != udp_tel.written() || tagged("udp-edge") != udp_alerts {
        return Err(format!(
            "udp-edge tag/telemetry drift: {} on the wire, {} in telemetry, {} alerts",
            tagged("udp-edge"),
            udp_tel.written(),
            udp_alerts
        )
        .into());
    }
    if tagged("tcp-edge") != tcp_tel.written() || tagged("tcp-edge") != tcp_alerts {
        return Err(format!(
            "tcp-edge tag/telemetry drift: {} on the wire, {} in telemetry, {} alerts",
            tagged("tcp-edge"),
            tcp_tel.written(),
            tcp_alerts
        )
        .into());
    }
    let stray = tags
        .iter()
        .filter(|t| !matches!(t.as_deref(), Some("udp-edge" | "tcp-edge" | "popup")))
        .count();
    if stray != 0 {
        return Err(format!("{stray} collector lines carry an unknown tenant tag").into());
    }
    if tagged("popup") == 0 {
        return Err("the admin-JOINed tenant never alerted across the mux".into());
    }

    println!(
        "smoke OK in {:?}: {total} entries over UDP+TCP through {} shard drivers, \
         {} tenant-tagged alerts on one collector connection \
         (udp-edge={udp_alerts} tcp-edge={tcp_alerts} popup={})",
        started.elapsed(),
        6,
        wire.len(),
        tagged("popup"),
    );
    Ok(())
}

fn expect(got: String, want: &str, what: &str) -> Result<(), Box<dyn std::error::Error>> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: expected {want:?}, got {got:?}").into())
    }
}
