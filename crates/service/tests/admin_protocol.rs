//! The admin endpoint end to end: a real TCP client drives the whole
//! command table against a live plane and observes the effects through
//! `STATS` — the same wire path `examples/service.rs --smoke` uses.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use divscrape_detect::{Sentinel, TenantId};
use divscrape_pipeline::{Adjudication, PipelineBuilder};
use divscrape_service::{AdminServer, IngestOutcome, ServicePlane};

fn factory(_: &TenantId, _: usize) -> PipelineBuilder {
    PipelineBuilder::new()
        .detector(Sentinel::stock())
        .adjudication(Adjudication::k_of_n(1))
}

struct AdminClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl AdminClient {
    fn connect(server: &AdminServer) -> AdminClient {
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        AdminClient {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn command(&mut self, line: &str) -> String {
        writeln!(self.writer, "{line}").unwrap();
        let mut reply = String::new();
        self.reader
            .read_line(&mut reply)
            .unwrap_or_else(|e| panic!("no reply to {line:?}: {e}"));
        reply.trim_end().to_owned()
    }
}

#[test]
fn admin_endpoint_drives_membership_freeze_and_budget_live() {
    let shop = TenantId::new("shop");
    let plane = ServicePlane::builder()
        .tenant(shop.clone(), 2, factory)
        .default_factory(factory)
        .default_shards(1)
        .build()
        .unwrap();
    let admin = AdminServer::bind("127.0.0.1:0", plane.clone()).unwrap();
    let mut client = AdminClient::connect(&admin);

    // STATS and TENANTS reflect the boot-time registration.
    let stats = client.command("STATS");
    assert!(stats.starts_with('{') && stats.ends_with('}'), "{stats}");
    assert!(stats.contains("\"tenant\":\"shop\""), "{stats}");
    assert!(stats.contains("\"shards\":2"), "{stats}");
    assert_eq!(client.command("TENANTS"), "[\"shop\"]");

    // JOIN: the new tenant immediately accepts traffic.
    assert_eq!(client.command("JOIN popup 3"), "OK joined popup shards=3");
    let popup = TenantId::new("popup");
    let line =
        r#"10.9.0.1 - - [11/Mar/2018:00:00:00 +0000] "GET / HTTP/1.1" 200 5 "-" "curl/7.58.0""#;
    assert_eq!(
        plane.ingest(&popup, line.to_owned()),
        IngestOutcome::Routed,
        "JOINed tenant must accept traffic"
    );
    assert_eq!(client.command("TENANTS"), "[\"shop\",\"popup\"]");

    // FREEZE/THAW flip the flag visible in STATS.
    assert_eq!(client.command("FREEZE popup"), "OK frozen popup");
    let frozen = client.command("STATS");
    assert!(
        frozen.contains("\"tenant\":\"popup\",\"shards\":3") && frozen.contains("\"frozen\":true"),
        "{frozen}"
    );
    assert_eq!(client.command("THAW popup"), "OK thawed popup");
    assert!(!client.command("STATS").contains("\"frozen\":true"));

    // BUDGET apportions across both tenants and lands in STATS.
    assert_eq!(client.command("BUDGET 400"), "OK budget=400 tenants=2");
    assert!(client.command("STATS").contains("\"eviction_budget\":400"));

    // LEAVE drains and reports the departed tenant's entry count.
    assert_eq!(client.command("LEAVE popup"), "OK left popup entries=1");
    assert_eq!(client.command("TENANTS"), "[\"shop\"]");
    assert!(
        client
            .command("LEAVE popup")
            .starts_with("ERR unknown tenant"),
        "double LEAVE must fail"
    );

    // The departed tenant's entry stays in the monotonic aggregate.
    assert!(client.command("STATS").contains("\"entries_processed\":1"));

    // Errors are replies, not disconnects.
    assert!(client.command("BOGUS").starts_with("ERR unknown command"));
    assert_eq!(client.command("QUIT"), "OK bye");

    // A second client can still connect after the first quit.
    let mut second = AdminClient::connect(&admin);
    assert_eq!(second.command("TENANTS"), "[\"shop\"]");
}

/// `BUDGET` takes external input: a budget the floors alone would
/// exceed (one client per worker replica per shard) is refused with
/// both numbers in the reply and the previous budget left in force — it
/// is never installed-but-exceeded — and `JOIN` is refused the same way
/// when the newcomer would push the floors past the installed budget.
#[test]
fn under_sized_budgets_are_refused_over_the_wire() {
    // 2 tenants × 2 shards × 2 workers: the floors need 8 clients.
    let two_workers = |id: &TenantId, shard: usize| factory(id, shard).workers(2);
    let plane = ServicePlane::builder()
        .tenant(TenantId::new("eu"), 2, two_workers)
        .tenant(TenantId::new("us"), 2, two_workers)
        .default_factory(two_workers)
        .build()
        .unwrap();
    let admin = AdminServer::bind("127.0.0.1:0", plane).unwrap();
    let mut client = AdminClient::connect(&admin);

    let refused = client.command("BUDGET 0");
    assert!(refused.starts_with("ERR "), "{refused}");
    assert!(
        refused.contains("budget 0") && refused.contains("at least 8"),
        "the reply must carry both numbers: {refused}"
    );
    assert!(client.command("STATS").contains("\"eviction_budget\":null"));

    assert_eq!(client.command("BUDGET 8"), "OK budget=8 tenants=2");
    let refused = client.command("BUDGET 7");
    assert!(
        refused.starts_with("ERR ") && refused.contains("budget 7") && refused.contains("least 8"),
        "{refused}"
    );
    assert!(client.command("STATS").contains("\"eviction_budget\":8"));

    // A third 1-shard × 2-worker tenant would need 10.
    let refused = client.command("JOIN late 1");
    assert!(
        refused.starts_with("ERR ") && refused.contains("budget 8") && refused.contains("least 10"),
        "{refused}"
    );
    assert_eq!(client.command("TENANTS"), "[\"eu\",\"us\"]");
    assert_eq!(client.command("BUDGET 10"), "OK budget=10 tenants=2");
    assert_eq!(client.command("JOIN late 1"), "OK joined late shards=1");
}
