//! Diverse web-scraping detectors for the `divscrape` reproduction.
//!
//! The paper runs two independently designed tools over the same access
//! logs: Distil Networks (commercial) and Arcane (in-house). Both are
//! closed; this crate implements functional equivalents plus the
//! related-work baselines:
//!
//! * [`Sentinel`] — the commercial-style tool: user-agent signatures, an IP
//!   reputation feed, a request-rate monitor, JavaScript-challenge
//!   emulation, a known-violator cache, and a verified-operator whitelist.
//! * [`Arcane`] — the in-house-style tool: sessionization plus weighted
//!   behavioural heuristics (asset starvation, machine pacing, error and
//!   beacon anomalies, probing, repetition).
//! * [`baselines`] — a naive rate limiter, signature-only matching, and
//!   hand-rolled ML baselines (Gaussian naive Bayes, logistic regression,
//!   CART) over the Stevanovic-style session features.
//!
//! All detectors implement the streaming [`Detector`] trait: one
//! [`Verdict`] per HTTP request — exactly the unit the paper's tables
//! count. They all read the same record representation, the borrowed
//! [`EntryRef`](divscrape_httplog::EntryRef) view, delivered either one
//! entry at a time ([`Detector::observe`]) or over a batch
//! ([`Detector::observe_batch_refs`]). Every stock detector ships a
//! specialized batch path that amortizes its per-entry identity work
//! (user-agent hashing, whitelist checks, signature and reputation
//! lookups, state-table probes) over runs of same-client entries, with
//! verdicts guaranteed identical to the per-entry loop. [`run`] views an
//! owned log once and routes through it automatically, and the
//! `divscrape-pipeline` worker pool spreads any detector across
//! client-sharded worker threads with verdict-identical output (the
//! [`parallel`] module is its per-shard scatter kernel).
//!
//! Detectors compose in the `divscrape-pipeline` crate: `Detector` is
//! implemented for `Box<D>` and `&mut D` so members can be owned or
//! borrowed, and a `PipelineBuilder` with a k-out-of-n adjudication is
//! the deployable committee — incremental ingestion, client-sharded
//! workers, per-member alert columns and alert sinks on top of this
//! trait.
//!
//! For long-running streams, every stateful stock detector can bound its
//! per-client tables with TTL and LRU-capacity eviction (the [`evict`]
//! module): [`Detector::set_eviction`] installs an [`EvictionConfig`],
//! [`Detector::eviction_stats`] reports occupancy and eviction counts.
//! Eviction is off by default, in which case output is bit-identical to
//! the unbounded tables.
//!
//! For deployments where almost all traffic is benign, the [`triage`]
//! module provides a near-free first-pass filter ([`TriageFilter`] /
//! [`FastTriage`]) that classifies clients as benign-so-far or
//! escalated, so a pipeline can skip the detectors for the benign pool
//! and lazily replay a client's history the moment it escalates.
//!
//! # Streaming quickstart
//!
//! ```
//! use divscrape_detect::{run_alerts, Detector, Sentinel};
//! use divscrape_httplog::{EntryRef, LogEntry};
//! use divscrape_traffic::{generate, ScenarioConfig};
//!
//! let log = generate(&ScenarioConfig::tiny(2018))?;
//!
//! // Entries arrive over time; feed them in whatever batches show up.
//! // Batch boundaries never change a verdict.
//! let mut sentinel = Sentinel::stock();
//! let mut verdicts = Vec::new();
//! for batch in log.entries().chunks(500) {
//!     let views: Vec<EntryRef<'_>> = batch.iter().map(LogEntry::view).collect();
//!     sentinel.observe_batch_refs(&views, &mut verdicts);
//! }
//! let alerts = verdicts.iter().filter(|v| v.alert).count();
//!
//! // Identical to an offline run over the whole log.
//! let offline = run_alerts(&mut Sentinel::stock(), log.entries());
//! assert_eq!(alerts, offline.iter().filter(|a| **a).count());
//! # Ok::<(), String>(())
//! ```
//!
//! # Offline example: the diversity the paper measures
//!
//! ```
//! use divscrape_detect::{run_alerts, Arcane, Sentinel};
//! use divscrape_traffic::{generate, ScenarioConfig};
//!
//! let log = generate(&ScenarioConfig::tiny(2018))?;
//! let sentinel_alerts = run_alerts(&mut Sentinel::stock(), log.entries());
//! let arcane_alerts = run_alerts(&mut Arcane::stock(), log.entries());
//!
//! // The two tools agree on most requests but not all — the diversity the
//! // paper measures.
//! let disagreements = sentinel_alerts
//!     .iter()
//!     .zip(&arcane_alerts)
//!     .filter(|(s, a)| s != a)
//!     .count();
//! assert!(disagreements < log.len() / 2);
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arcane;
pub mod baselines;
mod detector;
pub mod evict;
pub mod parallel;
mod sentinel;
mod session;
pub mod tenant;
mod trap;
pub mod triage;

pub use arcane::{Arcane, ArcaneConfig};
pub use detector::{run, run_alerts, Detector, Verdict};
pub use evict::{ClientStateTable, EvictionConfig, EvictionStats, StateTable, TenantStateTable};
pub use sentinel::{ReputationFeed, Sentinel, SentinelConfig, SentinelSignal, SignatureEngine};
pub use session::{ClientKey, SessionFeatures, Sessionizer, SessionizerConfig};
pub use tenant::{TenantClientKey, TenantId};
pub use trap::TrapDetector;
pub use triage::{FastTriage, TriageCalibration, TriageDecision, TriageFilter, TriagePolicy};
