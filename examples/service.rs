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
//! `--bench` races a 1-shard plane (one driver thread per tenant)
//! against a 4-shard plane over the same log and appends one record to
//! `BENCH_service.json` (format in `docs/CI.md`).
//!
//! ```text
//! cargo run --release --example service -- --smoke
//! cargo run --release --example service -- --bench --label pr8
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use divscrape_detect::{Arcane, Sentinel};
use divscrape_ingest::{SocketSource, SocketSourceConfig, UdpSource, UdpSourceConfig};
use divscrape_pipeline::{Adjudication, MuxCollector, PipelineBuilder, TenantId};
use divscrape_service::{AdminServer, IngestOutcome, PumpMode, ServicePlane, SourcePump};
use divscrape_traffic::{generate, ScenarioConfig};

/// Counts every heap allocation so `--bench` can report allocs/entry
/// (pure pass-through to `System`).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System`; the counter never influences
// the returned pointers.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut bench = false;
    let mut label = "smoke".to_owned();
    let mut out = "BENCH_service.json".to_owned();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => bench = false,
            "--bench" => bench = true,
            "--label" => label = it.next().ok_or("--label needs a value")?,
            "--out" => out = it.next().ok_or("--out needs a path")?,
            "--help" | "-h" => {
                eprintln!("usage: service [--smoke | --bench [--label <name>] [--out <path>]]");
                return Ok(());
            }
            other => return Err(format!("unknown argument `{other}` (try --help)").into()),
        }
    }
    if bench {
        run_bench(&label, &out)
    } else {
        run_smoke()
    }
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

/// Pulls a string field out of one alert JSON line (the alert format is
/// flat, so a plain scan suffices for the smoke check).
fn json_field<'a>(line: &'a str, field: &str) -> Option<&'a str> {
    let needle = format!("\"{field}\":\"");
    let start = line.find(&needle)? + needle.len();
    Some(&line[start..start + line[start..].find('"')?])
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
    let tagged = |name: &str| {
        wire.iter()
            .filter(|l| json_field(l, "tenant") == Some(name))
            .count() as u64
    };
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
    let stray = wire
        .iter()
        .filter(|l| {
            !matches!(
                json_field(l, "tenant"),
                Some("udp-edge" | "tcp-edge" | "popup")
            )
        })
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

// ---------------------------------------------------------------------
// --bench: single driver vs sharded drivers
// ---------------------------------------------------------------------

struct ArmResult {
    entries_per_sec: f64,
    ns_per_entry: f64,
    allocs_per_entry: f64,
    alerts: u64,
}

/// One warm-up pass, then `passes` timed passes of the whole log
/// through a plane with `shards` driver threads (workers(1) inside
/// each shard, so the driver count is the variable under test). Each
/// pass ingests every line and drains; the best pass is reported, the
/// allocator delta spans all timed passes.
fn run_arm(lines: &[String], shards: usize, passes: u32) -> ArmResult {
    let tenant = TenantId::new("bench");
    let plane = ServicePlane::builder()
        .queue_depth(4096)
        .tenant(tenant.clone(), shards, |_, _| {
            PipelineBuilder::new()
                .detector(Sentinel::stock())
                .detector(Arcane::stock())
                .adjudication(Adjudication::k_of_n(1))
                .workers(1)
        })
        .build()
        .expect("bench plane");

    let feed_and_drain = |_: u32| {
        for line in lines {
            assert_eq!(
                plane.ingest(&tenant, line.clone()),
                IngestOutcome::Routed,
                "bench line refused"
            );
        }
        let _ = plane.drain_all();
    };
    feed_and_drain(0); // warm-up

    let entries_per_pass = lines.len() as u64;
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut best = f64::INFINITY;
    for pass in 0..passes {
        let started = Instant::now();
        feed_and_drain(pass + 1);
        best = best.min(started.elapsed().as_secs_f64());
    }
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;
    let alerts = plane.stats().alerts;
    plane.shutdown();

    let total_entries = entries_per_pass * u64::from(passes);
    ArmResult {
        entries_per_sec: entries_per_pass as f64 / best,
        ns_per_entry: best * 1e9 / entries_per_pass as f64,
        allocs_per_entry: allocs as f64 / total_entries as f64,
        alerts,
    }
}

const BENCH_SHARDS: usize = 4;

fn record_json(
    label: &str,
    scale: &str,
    n: usize,
    passes: u32,
    single: &ArmResult,
    sharded: &ArmResult,
    speedup: f64,
) -> String {
    let arm_json = |a: &ArmResult| {
        format!(
            "{{ \"entries_per_sec\": {:.0}, \"ns_per_entry\": {:.1}, \"allocs_per_entry\": {:.3} }}",
            a.entries_per_sec, a.ns_per_entry, a.allocs_per_entry
        )
    };
    format!(
        "  {{\n    \"label\": \"{label}\",\n    \"scale\": \"{scale}\",\n    \"entries\": {n},\n    \"passes\": {passes},\n    \"workers\": 1,\n    \"single_driver\": {},\n    \"sharded\": {},\n    \"speedup\": {speedup:.2},\n    \"note\": \"end-to-end ingest+drain through the service plane; sharded = {BENCH_SHARDS} client-hash shard drivers per tenant vs one driver, workers(1) inside each shard\"\n  }}",
        arm_json(single),
        arm_json(sharded)
    )
}

/// Appends one record to the JSON-array trajectory file, creating it
/// (or replacing a non-array file) as a one-record array.
fn append_record(path: &str, record: &str) -> std::io::Result<()> {
    let prefix = match std::fs::read_to_string(path) {
        Ok(existing) => {
            let trimmed = existing.trim_end();
            match trimmed.strip_suffix(']') {
                Some(body) if body.trim_end().is_empty() || body.trim_end() == "[" => {
                    "[\n".to_owned()
                }
                Some(body) => format!("{},\n", body.trim_end()),
                None => "[\n".to_owned(),
            }
        }
        Err(_) => "[\n".to_owned(),
    };
    std::fs::write(path, format!("{prefix}{record}\n]\n"))
}

fn run_bench(label: &str, out: &str) -> Result<(), Box<dyn std::error::Error>> {
    let (scale, passes) = ("small", 3u32);
    let log = generate(&ScenarioConfig::small(2018))?;
    let lines: Vec<String> = log.entries().iter().map(|e| e.to_string()).collect();
    eprintln!(
        "service bench: {} entries × {passes} timed passes, 1 vs {BENCH_SHARDS} shard drivers",
        lines.len()
    );

    let single = run_arm(&lines, 1, passes);
    let sharded = run_arm(&lines, BENCH_SHARDS, passes);
    let speedup = sharded.entries_per_sec / single.entries_per_sec;

    eprintln!(
        "single driver: {:>10.0} entries/s  {:>7.1} ns/entry  {:>6.3} allocs/entry  {} alerts",
        single.entries_per_sec, single.ns_per_entry, single.allocs_per_entry, single.alerts
    );
    eprintln!(
        "{BENCH_SHARDS} shard drivers: {:>8.0} entries/s  {:>7.1} ns/entry  {:>6.3} allocs/entry  {} alerts",
        sharded.entries_per_sec, sharded.ns_per_entry, sharded.allocs_per_entry, sharded.alerts
    );
    eprintln!("speedup:       {speedup:.2}x");

    let record = record_json(
        label,
        scale,
        lines.len(),
        passes,
        &single,
        &sharded,
        speedup,
    );
    append_record(out, &record)?;
    eprintln!("appended record to {out}");

    // Sharding must not change a verdict: the client-hash routing keeps
    // same-client runs on one shard, so the alert totals are identical.
    if single.alerts != sharded.alerts {
        return Err(format!(
            "alert drift: single driver raised {} alerts, sharded plane {}",
            single.alerts, sharded.alerts
        )
        .into());
    }
    Ok(())
}
