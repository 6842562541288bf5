//! The sharded **service plane** for the `divscrape` reproduction: the
//! deployable, multi-tenant form of the streaming pipeline.
//!
//! A shared scraping-defense service protects many properties at once,
//! and each needs its own detector state and calibration — scraper
//! behaviour differs per target site. Giving every tenant its own
//! [`Pipeline`](divscrape_pipeline::Pipeline) isolates them
//! structurally; this crate is the one runtime that hosts those
//! pipelines, and makes the isolation temporal as well:
//!
//! * [`ServicePlane`] gives every tenant its own **driver thread per
//!   shard** behind bounded queues. A stalled tenant fills only its own
//!   queues; every other tenant keeps ingesting (pinned by this
//!   repository's `service_isolation` test).
//! * Within a tenant, [`shard_of`] routes each line by client hash
//!   (source address + user agent), so a client's whole session lands on
//!   one shard and each shard's verdicts stay **bit-identical** to a
//!   standalone pipeline over that client subset (`service_equivalence`
//!   test).
//! * [`SourcePump`] feeds any [`LogSource`](divscrape_ingest::LogSource)
//!   into the plane — blocking for lossless feeds (TCP, replay, file
//!   tail), lossy-and-counted for UDP/syslog intake
//!   ([`UdpSource`](divscrape_ingest::UdpSource)).
//! * [`AdminServer`] exposes a line protocol (`STATS`, `TENANTS`,
//!   `JOIN`, `LEAVE`, `FREEZE`/`THAW`, `BUDGET`) over TCP, serving live
//!   [`ServiceStats`] as JSON lines; drivable with `nc`.
//! * Alert delivery multiplexes over **one** collector connection via
//!   [`MuxCollector`](divscrape_pipeline::MuxCollector) — every tenant's
//!   sink shares the socket (and its disk spool) while per-tenant
//!   telemetry splits back out.
//!
//! # Quickstart: two tenants, sharded, one admin endpoint
//!
//! ```
//! use divscrape_detect::{Sentinel, TenantId};
//! use divscrape_pipeline::PipelineBuilder;
//! use divscrape_service::{AdminServer, ServicePlane};
//!
//! let eu = TenantId::new("shop-eu");
//! let us = TenantId::new("shop-us");
//! let plane = ServicePlane::builder()
//!     .tenant(eu.clone(), 2, |_, _| {
//!         PipelineBuilder::new().detector(Sentinel::stock())
//!     })
//!     .tenant(us.clone(), 1, |_, _| {
//!         PipelineBuilder::new().detector(Sentinel::stock())
//!     })
//!     .build()
//!     .map_err(|e| e.to_string())?;
//! let admin = AdminServer::bind("127.0.0.1:0", plane.clone()).map_err(|e| e.to_string())?;
//!
//! let line = r#"10.0.0.1 - - [11/Mar/2018:00:00:00 +0000] "GET / HTTP/1.1" 200 5 "-" "curl/7.58.0""#;
//! plane.ingest(&eu, line.to_owned());
//! plane.ingest(&us, line.to_owned());
//! let _ = plane.drain_all();
//! assert_eq!(plane.stats().entries_processed, 2);
//! drop(admin);
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admin;
mod plane;
mod pump;
mod shard;

pub use admin::AdminServer;
pub use plane::{
    IngestOutcome, ServiceError, ServicePlane, ServicePlaneBuilder, ServiceStats, TenantFactory,
    TenantIngress, TenantShardStats, DEFAULT_QUEUE_DEPTH,
};
pub use pump::{PumpMode, PumpStats, SourcePump};
pub use shard::shard_of;

// Re-exported so service deployments can name tenants and compose
// pipelines without depending on the lower crates directly.
pub use divscrape_detect::TenantId;
pub use divscrape_pipeline::PipelineBuilder;
