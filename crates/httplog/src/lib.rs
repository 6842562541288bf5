//! Apache HTTP access-log substrate for the `divscrape` reproduction.
//!
//! The paper ("Using Diverse Detectors for Detecting Malicious Web Scraping
//! Activity", DSN 2018) analyses detectors that consume Apache **Combined Log
//! Format** access logs. This crate provides everything the rest of the
//! workspace needs to model such logs faithfully:
//!
//! * [`HttpMethod`] and [`HttpStatus`] — request methods and response
//!   statuses, covering the status set that appears in the paper's Tables 3
//!   and 4 (`200`, `204`, `302`, `304`, `400`, `403`, `404`, `500`).
//! * [`ClfTimestamp`] — the `[11/Mar/2018:06:25:14 +0000]` timestamp format,
//!   with hand-rolled proleptic-Gregorian civil-time arithmetic (no external
//!   time crate is used).
//! * [`RequestPath`] and [`RequestLine`] — a structured model of the request
//!   target, with query handling and a coarse [`ResourceClass`].
//! * [`UserAgent`] — user-agent strings with a coarse [`AgentFamily`]
//!   classification (browsers, well-known crawlers, HTTP tooling).
//! * [`LogEntry`] — one Combined Log Format record, with a builder,
//!   [`parse`](LogEntry::parse) and `Display` round-tripping.
//! * [`LogReader`] / [`LogWriter`] — streaming line-oriented I/O.
//! * [`LineFramer`] — incremental line framing for live byte streams
//!   (file tails, sockets): chunk-boundary reassembly, bounded line
//!   length, terminator/encoding normalization.
//! * [`Cidr`] and [`ip`] helpers — IPv4 subnet utilities used by the traffic
//!   generator (botnet address allocation) and detectors (reputation feeds).
//!
//! # Example
//!
//! ```
//! use divscrape_httplog::LogEntry;
//!
//! let line = r#"198.51.100.7 - - [11/Mar/2018:06:25:14 +0000] "GET /search?q=NCE-LHR HTTP/1.1" 200 5123 "https://shop.example/" "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36""#;
//! let entry = LogEntry::parse(line)?;
//! assert_eq!(entry.status().as_u16(), 200);
//! assert_eq!(entry.request().path().path(), "/search");
//! assert_eq!(entry.to_string(), line);
//! # Ok::<(), divscrape_httplog::ParseLogError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ascii;
mod entry;
mod error;
mod framing;
mod io;
pub mod ip;
mod method;
mod path;
mod request;
mod status;
mod timestamp;
mod useragent;
pub mod view;

pub use entry::{LogEntry, LogEntryBuilder};
pub use error::{BuildLogEntryError, ParseLogError, ParseLogErrorKind};
pub use framing::{FramedLine, FramedLineRef, LineFramer, DEFAULT_MAX_LINE};
pub use io::{LogReader, LogWriter};
pub use ip::Cidr;
pub use method::{HttpMethod, ParseMethodError};
pub use path::{RequestPath, ResourceClass};
pub use request::{HttpVersion, RequestLine};
pub use status::{HttpStatus, StatusClass};
pub use timestamp::{ClfTimestamp, ParseTimestampError, SECONDS_PER_DAY};
pub use useragent::{AgentFamily, UserAgent};
pub use view::{fnv1a, EntryBlock, EntryRef, UaInterner};
