//! Live ingestion for the `divscrape` streaming pipeline.
//!
//! The paper's detectors consume a finished access log; a deployed
//! system watches traffic **as it arrives**. This crate is the source
//! side of that system: it turns live byte streams into
//! [`LogEntry`](divscrape_httplog::LogEntry)s and feeds them through a
//! [`Pipeline`](divscrape_pipeline::Pipeline)'s backpressured `push`
//! path, so the pool/adjudication/sink machinery downstream never knows
//! whether it is replaying history or watching production.
//!
//! * [`LogSource`] is the abstraction: a pull-based line producer with
//!   bounded [`poll`](LogSource::poll)s and a zero-copy
//!   [`poll_ref`](LogSource::poll_ref) that lends each line instead of
//!   handing out an owned `String` — the driver feeds it straight into
//!   [`Pipeline::push_line`](divscrape_pipeline::Pipeline::push_line),
//!   so no per-line `LogEntry` is materialized on the ingest path.
//!   Three production backends ship:
//!   * [`FileTail`] follows a growing log file through rotation and
//!     truncation (`tail -F` semantics);
//!   * [`SocketSource`] accepts Combined Log Format lines over TCP from
//!     any number of concurrent senders, reassembling lines split
//!     across packets per connection;
//!   * [`Replay`] re-emits a recorded log — as fast as possible, at a
//!     fixed rate, or time-scaled to the recorded inter-arrival gaps —
//!     for load tests, benchmarks and equivalence checks.
//! * [`IngestDriver`] couples any source to a pipeline: malformed lines
//!   go through a configurable [`ErrorPolicy`] (skip / abort /
//!   quarantine), a [`StopHandle`] ends ingestion gracefully by
//!   draining the pipeline, and [`IngestStats`] accounts for every line
//!   (read, parsed, rejected, quarantined, time blocked on
//!   backpressure, source lag) alongside
//!   [`Pipeline::stats`](divscrape_pipeline::Pipeline::stats).
//! * For a **multi-tenant** service, every [`LogSource`] here plugs
//!   into `divscrape-service`'s `SourcePump` — one pump thread per
//!   source, feeding one tenant of a `ServicePlane` — with
//!   [`UdpSource`] as the lossy, drop-and-count syslog-style intake.
//! * [`FileTail`] can persist a **checkpoint** (file identity + byte
//!   offset + delivered count, CRC-protected;
//!   [`FileTail::with_checkpoint`]) so a restarted ingester resumes
//!   exactly where the previous one stopped, across appends and
//!   rotations — a torn sidecar falls back to re-reading the file, never
//!   to skipping it. For **exactly-once** delivery into the durable
//!   store, [`FileTail::with_transactional_checkpoint`] +
//!   [`IngestDriver::run_checkpointed`] commit the sidecar only after
//!   the pipeline has drained and its sinks flushed, and re-read the
//!   file from its start on restart: with a keyed idempotent
//!   `StoreSink` downstream, a kill/restart mid-stream yields store
//!   contents bit-identical to an uninterrupted run.
//!
//! Everything is built on `std` threads and bounded channels — the same
//! idiom as the pipeline's worker pool; no async runtime. Backpressure
//! composes end to end: a slow detector fills the pool queues, which
//! blocks `push`, which stalls the driver, which stops consuming the
//! source, which (for [`SocketSource`]) stalls the senders' TCP windows.
//!
//! # Quickstart: replay a recorded log through the paper's two tools
//!
//! ```
//! use divscrape_detect::{Arcane, Sentinel};
//! use divscrape_ingest::{IngestDriver, Replay, ReplayPace};
//! use divscrape_pipeline::{Adjudication, PipelineBuilder};
//! use divscrape_traffic::{generate, ScenarioConfig};
//!
//! let log = generate(&ScenarioConfig::tiny(2018))?;
//! let pipeline = PipelineBuilder::new()
//!     .detector(Sentinel::stock())
//!     .detector(Arcane::stock())
//!     .adjudication(Adjudication::k_of_n(1))
//!     .workers(2)
//!     .build()
//!     .map_err(|e| e.to_string())?;
//!
//! let mut driver = IngestDriver::new(pipeline);
//! // 50× faster than the traffic originally arrived:
//! let mut source = Replay::from_entries(log.entries(), ReplayPace::Multiplier(50.0));
//! # let mut source = Replay::from_entries(log.entries(), ReplayPace::Unlimited);
//! let outcome = driver.run(&mut source).map_err(|e| e.to_string())?;
//!
//! assert_eq!(outcome.report.requests(), log.len());
//! assert_eq!(outcome.stats.parse_errors, 0);
//! # Ok::<(), String>(())
//! ```
//!
//! The ingested stream is **bit-identical** to batch processing: feeding
//! a log through any of the three sources produces exactly the alerts
//! [`Pipeline::push_batch`](divscrape_pipeline::Pipeline::push_batch)
//! of the same entries would (pinned by this repository's
//! `ingest_equivalence` test).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
mod file_tail;
mod replay;
mod socket;
mod source;
mod udp;

pub use driver::{
    EndReason, ErrorPolicy, IngestDriver, IngestError, IngestReport, IngestStats, StopHandle,
};
pub use file_tail::FileTail;
pub use replay::{Replay, ReplayPace};
pub use socket::{SocketSource, SocketSourceConfig};
pub use source::{LogSource, SourceEvent, SourceEventRef};
pub use udp::{UdpSource, UdpSourceConfig, UdpSourceStats};

// Re-exported so ingestion deployments can tag tenants without
// depending on the detect crate directly.
pub use divscrape_pipeline::TenantId;
