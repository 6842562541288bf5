//! The streaming pipeline's headline guarantee: a `Pipeline` built from
//! Sentinel + Arcane with 1-of-2 adjudication, fed the log incrementally
//! in arbitrary chunk sizes (including one entry at a time) across 1, 2
//! and 4 workers, produces alert vectors identical to the sequential
//! `run_alerts` + `KOutOfN` path.
//!
//! And what *flush timing* may and may not change
//! (`PipelineBuilder::max_delay`): under a seeded random
//! `Pipeline::flush` schedule, with the default deadline on, the
//! combined and member vectors and the multiset of sink-delivered alerts
//! equal a fill-only run's, for workers {1, 2, 4} with triage off and
//! on — and with triage off the sinks see the same JSON lines in the
//! same order.

mod common;

use std::sync::{Arc, Mutex};
use std::time::Duration;

use divscrape_detect::{run_alerts, Arcane, Sentinel};
use divscrape_ensemble::{AlertVector, KOutOfN};
use divscrape_httplog::LogEntry;
use divscrape_pipeline::{
    Adjudication, Alert, PipelineBuilder, PipelineReport, PipelineStats, TriagePolicy,
};
use divscrape_traffic::{generate, LabelledLog, ScenarioConfig};

struct Sequential {
    sentinel: Vec<bool>,
    arcane: Vec<bool>,
    union: Vec<bool>,
}

fn sequential_reference(log: &LabelledLog) -> Sequential {
    let sentinel = run_alerts(&mut Sentinel::stock(), log.entries());
    let arcane = run_alerts(&mut Arcane::stock(), log.entries());
    let union = KOutOfN::any(2)
        .apply(&[
            &AlertVector::from_bools("sentinel", &sentinel),
            &AlertVector::from_bools("arcane", &arcane),
        ])
        .to_bools();
    Sequential {
        sentinel,
        arcane,
        union,
    }
}

#[test]
fn incremental_sharded_pipeline_matches_sequential_adjudication() {
    let log = generate(&ScenarioConfig::small(2018)).unwrap();
    let expected = sequential_reference(&log);

    // Chunk sizes cover the degenerate single-entry feed, a prime that
    // never aligns with the flush capacity, and one-shot ingestion.
    for workers in [1usize, 2, 4] {
        for chunk in [1usize, 613, log.len()] {
            let mut pipeline = PipelineBuilder::new()
                .detector(Sentinel::stock())
                .detector(Arcane::stock())
                .adjudication(Adjudication::k_of_n(1))
                .workers(workers)
                .chunk_capacity(1024)
                .build()
                .unwrap();
            for part in log.entries().chunks(chunk) {
                pipeline.push_batch(part);
            }
            let report = pipeline.drain();
            assert_eq!(
                report.combined.to_bools(),
                expected.union,
                "union diverged: workers={workers} chunk={chunk}"
            );
            assert_eq!(
                report.members[0].to_bools(),
                expected.sentinel,
                "sentinel diverged: workers={workers} chunk={chunk}"
            );
            assert_eq!(
                report.members[1].to_bools(),
                expected.arcane,
                "arcane diverged: workers={workers} chunk={chunk}"
            );
        }
    }
}

#[test]
fn push_and_push_batch_feeds_are_interchangeable() {
    let log = generate(&ScenarioConfig::tiny(99)).unwrap();
    let expected = sequential_reference(&log);

    let mut pipeline = PipelineBuilder::new()
        .detector(Sentinel::stock())
        .detector(Arcane::stock())
        .adjudication(Adjudication::k_of_n(1))
        .workers(2)
        .chunk_capacity(97)
        .build()
        .unwrap();
    // Mix single-entry pushes with slice pushes of irregular sizes.
    let mut rest = log.entries();
    let mut toggle = true;
    while !rest.is_empty() {
        if toggle {
            pipeline.push(rest[0].clone());
            rest = &rest[1..];
        } else {
            let take = rest.len().min(37);
            pipeline.push_batch(&rest[..take]);
            rest = &rest[take..];
        }
        toggle = !toggle;
    }
    assert_eq!(pipeline.drain().combined.to_bools(), expected.union);
}

#[test]
fn unanimity_pipeline_matches_sequential_two_out_of_two() {
    let log = generate(&ScenarioConfig::tiny(2019)).unwrap();
    let sentinel = run_alerts(&mut Sentinel::stock(), log.entries());
    let arcane = run_alerts(&mut Arcane::stock(), log.entries());
    let both = KOutOfN::all(2)
        .apply(&[
            &AlertVector::from_bools("sentinel", &sentinel),
            &AlertVector::from_bools("arcane", &arcane),
        ])
        .to_bools();

    let mut pipeline = PipelineBuilder::new()
        .detector(Sentinel::stock())
        .detector(Arcane::stock())
        .adjudication(Adjudication::k_of_n(2))
        .workers(4)
        .build()
        .unwrap();
    for part in log.entries().chunks(41) {
        pipeline.push_batch(part);
    }
    assert_eq!(pipeline.drain().combined.to_bools(), both);
}

struct Flushed {
    report: PipelineReport,
    alert_jsons: Vec<String>,
    stats: PipelineStats,
}

/// Feeds `entries` through the pair with a JSON-collecting sink. With no
/// seed: one `push_batch`, fill-only — chunk boundaries exactly every
/// 257 entries. With a seed: the default deadline on, and
/// [`common::push_with_random_flushes`] in slices of 1..=150 entries.
fn run_flushed(
    entries: &[LogEntry],
    workers: usize,
    triage: bool,
    flush_seed: Option<u64>,
) -> Flushed {
    let jsons: Arc<Mutex<Vec<String>>> = Arc::default();
    let sink_jsons = Arc::clone(&jsons);
    let mut builder = PipelineBuilder::new()
        .detector(Sentinel::stock())
        .detector(Arcane::stock())
        .adjudication(Adjudication::k_of_n(1))
        .workers(workers)
        .chunk_capacity(257)
        .sink(move |alert: &Alert<'_>| sink_jsons.lock().unwrap().push(alert.to_json()));
    if triage {
        // The stock filter never suppresses an alerting entry; the weak
        // one does, so its late alerts can show a reordering.
        builder = builder.triage(TriagePolicy::custom(common::SlowFuse::new(12)));
    }
    let mut pipeline = match flush_seed {
        None => {
            let mut pipeline = builder.max_delay(Duration::MAX).build().unwrap();
            pipeline.push_batch(entries);
            pipeline
        }
        Some(seed) => {
            let mut pipeline = builder.build().unwrap();
            common::push_with_random_flushes(&mut pipeline, entries, seed, 150);
            pipeline
        }
    };
    let report = pipeline.drain();
    let stats = pipeline.stats();
    let alert_jsons = std::mem::take(&mut *jsons.lock().unwrap());
    Flushed {
        report,
        alert_jsons,
        stats,
    }
}

#[test]
fn a_random_flush_schedule_changes_no_verdict_and_no_delivered_alert() {
    let log = generate(&ScenarioConfig::tiny(2018)).unwrap();
    let entries = log.entries();
    for workers in [1usize, 2, 4] {
        for triage in [false, true] {
            let want = run_flushed(entries, workers, triage, None);
            assert!(want.report.combined.count() > 0, "the log must alert");
            assert_eq!(
                want.stats.chunks_processed,
                entries.len().div_ceil(257) as u64,
                "fill-only chunk boundaries are a function of the pushes"
            );
            assert_eq!(want.stats.deadline_flushes, 0);
            if triage {
                assert!(want.stats.triage_replayed_entries > 0, "triage must bite");
                assert_eq!(want.stats.triage_spilled_entries, 0);
            }
            for seed in [0x5EED_u64, 0xD15C_0B01] {
                let case = format!("workers={workers} triage={triage} seed={seed:#x}");
                let got = run_flushed(entries, workers, triage, Some(seed));
                assert!(
                    got.stats.chunks_processed > 2 * want.stats.chunks_processed,
                    "{case}: the schedule must actually move the boundaries"
                );
                assert_eq!(
                    got.report.combined.to_bools(),
                    want.report.combined.to_bools(),
                    "{case}: combined verdicts moved with the flush schedule"
                );
                for (g, w) in got.report.members.iter().zip(&want.report.members) {
                    assert_eq!(g.to_bools(), w.to_bools(), "{case}: member {}", g.name());
                }
                if triage {
                    // Late alerts land where the boundaries put them;
                    // the delivered multiset may not change. (The JSON
                    // embeds the feed index: sorted equality is exact.)
                    let (mut g, mut w) = (got.alert_jsons.clone(), want.alert_jsons.clone());
                    g.sort();
                    w.sort();
                    assert_eq!(g, w, "{case}: delivered alert multiset moved");
                } else {
                    assert_eq!(
                        got.alert_jsons, want.alert_jsons,
                        "{case}: delivered alert sequence moved"
                    );
                }
            }
        }
    }
}

#[test]
fn fill_only_ignores_the_clock_and_the_default_deadline_does_not() {
    let log = generate(&ScenarioConfig::tiny(7)).unwrap();
    let entries = &log.entries()[..250];
    let run = |max_delay: Option<Duration>| {
        let mut builder = PipelineBuilder::new()
            .detector(Sentinel::stock())
            .chunk_capacity(100);
        if let Some(max_delay) = max_delay {
            builder = builder.max_delay(max_delay);
        }
        let mut pipeline = builder.build().unwrap();
        // A pause well past the default deadline, mid-chunk.
        pipeline.push_batch(&entries[..30]);
        std::thread::sleep(3 * divscrape_pipeline::DEFAULT_MAX_DELAY);
        pipeline.push_batch(&entries[30..]);
        let report = pipeline.drain();
        (report, pipeline.stats())
    };
    // Fill-only: exactly the chunks the parent engine cut — every 100
    // entries and the drain residue — however long the feed paused.
    let (fill_report, fill_only) = run(Some(Duration::MAX));
    assert_eq!(fill_only.chunks_processed, 3);
    assert_eq!(fill_only.deadline_flushes, 0);
    assert!(
        fill_only.max_buffered_age_us >= 30_000,
        "the pause was buffered"
    );
    // Default: the first push after the pause finds the 30 entries
    // overdue and submits them — one more chunk, same verdicts.
    let (report, default) = run(None);
    assert!(default.deadline_flushes >= 1);
    assert!(default.chunks_processed > fill_only.chunks_processed);
    assert_eq!(report.combined.to_bools(), fill_report.combined.to_bools());
}
