//! Retro-scoring against the durable store: stored per-member score
//! records plus the recorded recalibration schedule
//! ([`Pipeline::rule_updates`]) are a **complete** account of a live
//! run. Re-adjudicating the stored votes offline with the recorded
//! weight schedule must reproduce the live recalibrated rule's alert
//! set *exactly* — the same invariant `examples/retro.rs` exposes as a
//! tool, pinned here as a test.
//!
//! A second offline pass holds the initial (frozen) rule over the same
//! stored votes, which is what a candidate-rule evaluation looks like:
//! on the drift stream the frozen rule's post-shift precision rots
//! while the recalibrated rule's holds, and the retro pass measures
//! that gap from the store alone — no re-run of the detectors.

mod common;

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Duration;

use divscrape_detect::baselines::RateLimiter;
use divscrape_detect::{Arcane, Sentinel};
use divscrape_ensemble::{ConfusionMatrix, RecalibrationPolicy};
use divscrape_pipeline::{
    Adjudication, CollectingSink, PipelineBuilder, RecordPolicy, ScoreRecord, StoreSink,
};
use divscrape_store::{AlertStore, RecordKind, StoreConfig};
use divscrape_traffic::{DriftScenario, LabelledLog};

/// Same trio + rule as the recalibration acceptance tests: two
/// corroborating detectors and a noisy rate-threshold member the
/// recalibrator will demote after the population shift.
const INITIAL_WEIGHTS: [f64; 3] = [1.0, 1.0, 1.0];
const ALARM: f64 = 0.95;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "divscrape-retro-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The engine's weighted rule, reapplied offline: alert when the summed
/// weight of voting members reaches the threshold (member order, same
/// as [`divscrape_ensemble`]'s `WeightedVote`).
fn weighted_alert(votes: &[bool], weights: &[f64], threshold: f64) -> bool {
    let sum: f64 = votes
        .iter()
        .zip(weights)
        .filter(|(v, _)| **v)
        .map(|(_, w)| *w)
        .sum();
    sum >= threshold
}

/// What the store alone says about one live run.
struct Retro {
    /// Stored votes re-adjudicated under the recorded schedule.
    retro_flags: Vec<bool>,
    /// Stored votes under the initial rule, frozen.
    frozen_flags: Vec<bool>,
}

/// One live recalibrating run over `log` into a fresh store, then the
/// retro identity: stored votes + recorded schedule = the live alert
/// set, three ways. Without a seed the live run is fill-only (chunk
/// boundaries every 256 entries, the schedule the precision claim below
/// is calibrated against); with one it runs under the default flush
/// deadline and is also flushed on a seeded random schedule, so the
/// learner's installs land wherever that puts them.
fn live_run_then_retro(tag: &str, log: &LabelledLog, flush_seed: Option<u64>) -> Retro {
    let dir = temp_dir(tag);
    let _cleanup = Cleanup(dir.clone());

    // Live run: recalibrating pipeline, every finalized entry's votes
    // and scores recorded to the durable store, alerts collected
    // in-memory for the cross-check.
    let collector = CollectingSink::new();
    let live_alerts = collector.handle();
    let store_sink = StoreSink::with_config(&dir, StoreConfig::default())
        .unwrap()
        .record_policy(RecordPolicy::AllEntries);
    let mut builder = PipelineBuilder::new()
        .detector(Sentinel::stock())
        .detector(Arcane::stock())
        .detector(RateLimiter::new(8))
        .adjudication(Adjudication::weighted(INITIAL_WEIGHTS.to_vec(), ALARM))
        .chunk_capacity(256)
        .recalibration(RecalibrationPolicy::new().window(256).update_every(512))
        .sink(store_sink)
        .sink(collector);
    if flush_seed.is_none() {
        builder = builder.max_delay(Duration::MAX);
    }
    let mut live = builder.build().unwrap();
    common::feed_live(&mut live, log.entries(), flush_seed);
    let live_report = live.drain();
    let schedule = live.rule_updates().to_vec();
    assert!(
        schedule.len() >= 3,
        "{tag}: the drift stream must drive several updates, got {}",
        schedule.len()
    );
    drop(live);

    let live_set: BTreeSet<u64> = live_alerts.lock().unwrap().iter().copied().collect();

    // Read the history back: one Score record per entry, plus one Alert
    // record per live alert.
    let mut store = AlertStore::open(&dir, StoreConfig::default()).unwrap();
    let records = store.records().unwrap();
    let mut scored: Vec<ScoreRecord> = records
        .iter()
        .filter(|r| r.kind == RecordKind::Score)
        .map(|r| ScoreRecord::from_json(std::str::from_utf8(&r.payload).unwrap()).unwrap())
        .collect();
    scored.sort_by_key(|r| r.index);
    assert_eq!(scored.len(), log.len(), "{tag}: one score record per entry");
    let stored_alerts: BTreeSet<u64> = records
        .iter()
        .filter(|r| r.kind == RecordKind::Alert)
        .map(|r| r.key.offset)
        .collect();

    // The recorded schedule: each entry adjudicated under the rule that
    // was live at its feed position (an update at `at_entry` governs
    // that entry onward).
    let mut predicted = BTreeSet::new();
    let mut retro_flags = vec![false; scored.len()];
    for record in &scored {
        let mut weights: &[f64] = &INITIAL_WEIGHTS;
        let mut threshold = ALARM;
        for update in &schedule {
            if update.at_entry <= record.index {
                weights = &update.weights;
                threshold = update.threshold;
            }
        }
        let alert = weighted_alert(&record.votes, weights, threshold);
        assert_eq!(
            alert, record.alerted,
            "{tag}: entry {}: stored verdict disagrees with the recorded schedule",
            record.index
        );
        if alert {
            predicted.insert(record.index);
            retro_flags[record.index as usize] = true;
        }
    }

    // The three views of "what alerted" — retro-scored, stored alert
    // records, live sink — are one set.
    assert_eq!(
        predicted, stored_alerts,
        "{tag}: retro vs stored alert records"
    );
    assert_eq!(predicted, live_set, "{tag}: retro vs live collecting sink");
    assert_eq!(
        retro_flags,
        live_report.combined.to_bools(),
        "{tag}: retro vs live combined vector"
    );

    let frozen_flags = scored
        .iter()
        .map(|r| weighted_alert(&r.votes, &INITIAL_WEIGHTS, ALARM))
        .collect();
    Retro {
        retro_flags,
        frozen_flags,
    }
}

#[test]
fn stored_votes_plus_recorded_schedule_reproduce_the_live_alert_set() {
    let scenario = DriftScenario::scraper_population_shift(2024, 3_000);
    let shift = scenario.phase_boundaries()[1];
    let log = scenario.generate().unwrap();
    let truth: Vec<bool> = log.truth().iter().map(|t| t.is_malicious()).collect();

    // Retro pass 1 — the recorded schedule reproduces the live run,
    // wherever flush timing made the learner's installs land.
    let Retro {
        retro_flags,
        frozen_flags,
    } = live_run_then_retro("schedule", &log, None);
    live_run_then_retro("schedule-flushed", &log, Some(0x5EED));

    // Retro pass 2 — a candidate rule (here: the initial rule, frozen)
    // over the same stored votes. Post-shift, the recalibrated rule
    // must beat the frozen one on precision — measured entirely from
    // the store. (How well a live learner does depends on where its
    // installs land, so this is claimed for the fill-only run, whose
    // schedule is a function of the log alone.)
    let live_post = ConfusionMatrix::from_flags(&retro_flags[shift..], &truth[shift..]);
    let frozen_post = ConfusionMatrix::from_flags(&frozen_flags[shift..], &truth[shift..]);
    assert!(
        live_post.precision() > frozen_post.precision(),
        "post-shift: recalibrated {:.3} should beat frozen {:.3}",
        live_post.precision(),
        frozen_post.precision()
    );
    // Both passes see the same malicious traffic, so recall stays
    // comparable (the demoted member only ever added false alarms).
    assert!(
        live_post.sensitivity() >= frozen_post.sensitivity() - 0.05,
        "post-shift sensitivity: recalibrated {:.3} vs frozen {:.3}",
        live_post.sensitivity(),
        frozen_post.sensitivity()
    );
}
