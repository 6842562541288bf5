//! One arena, one answer: feeding a log as raw lines —
//! `Pipeline::push_line` directly, or `FileTail` / `Replay` through the
//! `IngestDriver`'s `poll_ref` pump — produces **bit-identical** output
//! to `push_batch` of the same entries parsed up front (which renders
//! each entry into the same arena, so this pins `EntryBlock::push_entry`
//! ≡ `push_line`): the combined verdicts, every member's verdicts, and every
//! sink-delivered `Alert::to_json` line, across worker counts {1, 4}
//! and with eviction off and on (TTL + capacity) — for the paper's two
//! tools and for the full five-detector ensemble.

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use divscrape_detect::baselines::{RateLimiter, SignatureOnly};
use divscrape_detect::{Arcane, EvictionConfig, Sentinel, TrapDetector};
use divscrape_httplog::{LogEntry, LogWriter};
use divscrape_ingest::{EndReason, FileTail, IngestDriver, Replay, ReplayPace};
use divscrape_pipeline::{Adjudication, Alert, Pipeline, PipelineBuilder, PipelineReport};
use divscrape_traffic::{generate, ScenarioConfig};

/// Everything one run produces that the equivalence pins: the report's
/// alert vectors plus the exact JSON rendering of every alert a sink
/// received, in delivery order.
struct RunOutput {
    report: PipelineReport,
    alert_jsons: Vec<String>,
}

/// Which detectors a run composes.
#[derive(Clone, Copy)]
enum Members {
    /// Sentinel + Arcane, the paper's pair.
    Spine2,
    /// The pair plus the honeytrap, the rate limiter and the
    /// signature-only baseline.
    Ensemble5,
}

/// A pipeline with a JSON-collecting closure sink attached; the handle
/// stays valid after the sink moves into the pipeline.
fn build_pipeline(
    members: Members,
    workers: usize,
    eviction: Option<EvictionConfig>,
) -> (Pipeline, Arc<Mutex<Vec<String>>>) {
    let (builder, jsons) = compose(members, workers, eviction);
    (builder.build().unwrap(), jsons)
}

/// [`build_pipeline`], one step short of `build`.
fn compose(
    members: Members,
    workers: usize,
    eviction: Option<EvictionConfig>,
) -> (PipelineBuilder, Arc<Mutex<Vec<String>>>) {
    let jsons: Arc<Mutex<Vec<String>>> = Arc::default();
    let sink_jsons = Arc::clone(&jsons);
    let mut builder = PipelineBuilder::new()
        .detector(Sentinel::stock())
        .detector(Arcane::stock());
    if let Members::Ensemble5 = members {
        builder = builder
            .detector(TrapDetector::default())
            // Below the stock 60/min so the limiter alerts at tiny scale.
            .detector(RateLimiter::new(20))
            .detector(SignatureOnly::stock());
    }
    let mut builder = builder
        .adjudication(Adjudication::k_of_n(1))
        .workers(workers)
        .chunk_capacity(257) // never aligns with the log size
        .sink(move |alert: &Alert<'_>| {
            sink_jsons
                .lock()
                .expect("sink store poisoned")
                .push(alert.to_json());
        });
    if let Some(eviction) = eviction {
        builder = builder.eviction(eviction);
    }
    (builder, jsons)
}

/// The reference: entries parsed up front and fed through `push_batch`.
fn run_push_batch(
    members: Members,
    entries: &[LogEntry],
    workers: usize,
    eviction: Option<EvictionConfig>,
) -> RunOutput {
    let (mut pipeline, jsons) = build_pipeline(members, workers, eviction);
    pipeline.push_batch(entries);
    let report = pipeline.drain();
    let alert_jsons = std::mem::take(&mut *jsons.lock().unwrap());
    RunOutput {
        report,
        alert_jsons,
    }
}

/// Raw lines parsed in place inside the pipeline's entry arena.
fn run_push_line(
    members: Members,
    entries: &[LogEntry],
    workers: usize,
    eviction: Option<EvictionConfig>,
) -> RunOutput {
    let (mut pipeline, jsons) = build_pipeline(members, workers, eviction);
    for entry in entries {
        pipeline.push_line(&entry.to_string()).unwrap();
    }
    let report = pipeline.drain();
    let alert_jsons = std::mem::take(&mut *jsons.lock().unwrap());
    RunOutput {
        report,
        alert_jsons,
    }
}

/// The borrowed path end to end: a `Replay` pumped through the driver's
/// `poll_ref` loop (no owned `String` or `LogEntry` per line).
fn run_replay(
    members: Members,
    entries: &[LogEntry],
    workers: usize,
    eviction: Option<EvictionConfig>,
) -> RunOutput {
    let (pipeline, jsons) = build_pipeline(members, workers, eviction);
    let mut driver = IngestDriver::new(pipeline);
    let outcome = driver
        .run(&mut Replay::from_entries(entries, ReplayPace::Unlimited))
        .unwrap();
    assert_eq!(outcome.end, EndReason::SourceExhausted);
    assert_eq!(outcome.stats.parse_errors, 0);
    let alert_jsons = std::mem::take(&mut *jsons.lock().unwrap());
    RunOutput {
        report: outcome.report,
        alert_jsons,
    }
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "divscrape-zc-equiv-{tag}-{}-{:?}.log",
        std::process::id(),
        std::thread::current().id()
    ))
}

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The borrowed path from disk: a `FileTail` batch read through the
/// driver's `poll_ref` pump.
fn run_file_tail(
    members: Members,
    entries: &[LogEntry],
    workers: usize,
    eviction: Option<EvictionConfig>,
) -> RunOutput {
    let path = temp_path(&format!("w{workers}-e{}", eviction.is_some()));
    let _cleanup = Cleanup(path.clone());
    let mut writer = LogWriter::new(std::io::BufWriter::new(
        std::fs::File::create(&path).unwrap(),
    ));
    writer.write_all(entries).unwrap();
    writer.finish().unwrap().flush().unwrap();

    let (pipeline, jsons) = build_pipeline(members, workers, eviction);
    let mut driver = IngestDriver::new(pipeline);
    let mut source = FileTail::read_to_end(&path).unwrap();
    let outcome = driver.run(&mut source).unwrap();
    assert_eq!(outcome.stats.entries_ingested, entries.len() as u64);
    let alert_jsons = std::mem::take(&mut *jsons.lock().unwrap());
    RunOutput {
        report: outcome.report,
        alert_jsons,
    }
}

fn assert_identical(case: &str, got: &RunOutput, want: &RunOutput) {
    assert_eq!(
        got.report.combined.to_bools(),
        want.report.combined.to_bools(),
        "{case}: combined alerts diverged from the owned path"
    );
    assert_eq!(
        got.report.members.len(),
        want.report.members.len(),
        "{case}"
    );
    for (g, w) in got.report.members.iter().zip(&want.report.members) {
        assert_eq!(g.name(), w.name(), "{case}");
        assert_eq!(
            g.to_bools(),
            w.to_bools(),
            "{case}: member {} diverged from the owned path",
            g.name()
        );
    }
    assert_eq!(
        got.alert_jsons, want.alert_jsons,
        "{case}: sink-delivered alert JSON diverged from the owned path"
    );
}

/// The wall itself: every borrowed source ≡ `push_batch`, across workers
/// {1, 4} × eviction {off, on}, for one detector composition.
fn assert_borrowed_paths_match_owned(members: Members, member_count: usize) {
    let log = generate(&ScenarioConfig::tiny(2025)).unwrap();
    let entries = log.entries();
    // TTL + capacity: both eviction mechanisms active during the run.
    let eviction = EvictionConfig::ttl(3_600).with_capacity(64);

    for workers in [1usize, 4] {
        for evict in [None, Some(eviction)] {
            let case_base = format!(
                "members={member_count} workers={workers} eviction={}",
                evict.is_some()
            );
            let want = run_push_batch(members, entries, workers, evict);
            assert_eq!(want.report.members.len(), member_count, "{case_base}");
            for member in &want.report.members {
                assert!(
                    member.count() > 0,
                    "{case_base}: member {} must alert for the wall to bite",
                    member.name()
                );
            }
            assert_eq!(
                want.alert_jsons.len() as u64,
                want.report.combined.count(),
                "{case_base}: every combined alert reaches the sink once"
            );

            assert_identical(
                &format!("{case_base} source=push_line"),
                &run_push_line(members, entries, workers, evict),
                &want,
            );
            assert_identical(
                &format!("{case_base} source=replay"),
                &run_replay(members, entries, workers, evict),
                &want,
            );
            assert_identical(
                &format!("{case_base} source=file_tail"),
                &run_file_tail(members, entries, workers, evict),
                &want,
            );
        }
    }
}

#[test]
fn borrowed_spine_is_bit_identical_to_the_owned_path() {
    assert_borrowed_paths_match_owned(Members::Spine2, 2);
}

#[test]
fn five_detector_ensemble_is_bit_identical_on_every_path() {
    // The honeytrap, rate limiter and signature-only baseline run their
    // own borrowed cores, so the same wall must hold with them composed.
    assert_borrowed_paths_match_owned(Members::Ensemble5, 5);
}

#[test]
fn mixed_owned_and_borrowed_feeding_preserves_order_and_verdicts() {
    // Interleave push (owned), push_batch (owned slice) and push_line
    // (raw text) on one pipeline: all three append to one arena, so
    // feed order holds and switching flavors forces no chunk boundary.
    let log = generate(&ScenarioConfig::tiny(77)).unwrap();
    let entries = log.entries();
    let want = run_push_batch(Members::Spine2, entries, 2, None);

    // Fill-only: the chunk count below is a pure function of the pushes
    // only when no deadline can end a chunk early.
    let (builder, jsons) = compose(Members::Spine2, 2, None);
    let mut pipeline = builder.max_delay(Duration::MAX).build().unwrap();
    for (i, chunk) in entries.chunks(61).enumerate() {
        match i % 3 {
            0 => pipeline.push_batch(chunk),
            1 => {
                for entry in chunk {
                    pipeline.push_line(&entry.to_string()).unwrap();
                }
            }
            _ => {
                for entry in chunk {
                    pipeline.push(entry.clone());
                }
            }
        }
    }
    let report = pipeline.drain();
    assert_eq!(
        pipeline.stats().chunks_processed,
        entries.len().div_ceil(257) as u64,
        "alternating push flavors split chunks"
    );
    let alert_jsons = std::mem::take(&mut *jsons.lock().unwrap());
    assert_identical(
        "mixed feeding",
        &RunOutput {
            report,
            alert_jsons,
        },
        &want,
    );
}
