//! Online adjudication recalibration, end to end.
//!
//! Two pinned properties:
//!
//! * **Recorded-schedule equivalence** — a live recalibrating pipeline
//!   records every weight update it applies
//!   ([`Pipeline::rule_updates`]); replaying that schedule through
//!   manual [`Pipeline::set_adjudication`] calls at the recorded
//!   feed-order positions, with recalibration off, reproduces the live
//!   run **bit-identically** (combined + members), for workers {1, 4} ×
//!   eviction {off, TTL+capacity} × the live run {filling its chunks,
//!   flushed on a seeded random schedule} and a different chunk
//!   geometry. *Where* a live learner's updates land moves with the
//!   flush timing; each one is still a pure, position-deterministic rule
//!   swap — no hidden coupling to pool scheduling or chunk boundaries.
//! * **The drift scenario** — on a stream whose scraper population
//!   shifts mid-way ([`DriftScenario::scraper_population_shift`]), a
//!   frozen weighted rule carrying a noisy rate-threshold member loses
//!   precision after the shift; the recalibrating pipeline demotes the
//!   member whose alerts stop being corroborated and recovers it.
//!
//! Plus runtime edge cases for the weighted rules a recalibrator can now
//! install while streaming: zero/floor weights, all-weights-equal
//! degeneracy, thresholds landing exactly on the boundary, and updates
//! requested mid-chunk (they apply at chunk finalization, never inside a
//! chunk — `crates/pipeline` engine tests pin the same property at the
//! unit level).

mod common;

use divscrape_detect::baselines::RateLimiter;
use divscrape_detect::{run_alerts, Arcane, Detector, EvictionConfig, Sentinel};
use divscrape_ensemble::{ConfusionMatrix, RecalibrationPolicy};
use divscrape_pipeline::{Adjudication, PipelineBuilder, PipelineReport, RuleProvenance};
use divscrape_traffic::{DriftScenario, LabelledLog};

/// Aggressive enough that the paper-mix botnet keeps it honest while the
/// post-shift human population trips it — the "offline calibration rots"
/// member (see `PopulationMix::stealth_shift`).
const RL_THRESHOLD: u32 = 8;

/// Alarm threshold of the weighted rule: below the neutral weight 1, so
/// the composed rule starts as a plain union, with headroom for learned
/// weights to hold a precise member above it.
const ALARM: f64 = 0.95;

fn drift_log(per_phase: u64) -> (LabelledLog, usize) {
    let scenario = DriftScenario::scraper_population_shift(2024, per_phase);
    let shift = scenario.phase_boundaries()[1];
    (scenario.generate().unwrap(), shift)
}

fn noisy_trio() -> PipelineBuilder {
    PipelineBuilder::new()
        .detector(Sentinel::stock())
        .detector(Arcane::stock())
        .detector(RateLimiter::new(RL_THRESHOLD))
        .adjudication(Adjudication::weighted(vec![1.0, 1.0, 1.0], ALARM))
        .chunk_capacity(256)
}

fn policy() -> RecalibrationPolicy {
    RecalibrationPolicy::new().window(256).update_every(512)
}

fn assert_identical(case: &str, got: &PipelineReport, want: &PipelineReport) {
    assert_eq!(
        got.combined.to_bools(),
        want.combined.to_bools(),
        "{case}: combined alerts drifted"
    );
    for (g, w) in got.members.iter().zip(&want.members) {
        assert_eq!(g.to_bools(), w.to_bools(), "{case}: member {}", g.name());
    }
}

/// The headline determinism invariant: live recalibration ≡ recorded
/// schedule replayed through `set_adjudication`, bit for bit.
#[test]
fn recorded_schedule_replay_is_bit_identical() {
    let (log, _) = drift_log(3_000);
    let evictions = [
        ("off", EvictionConfig::DISABLED),
        ("ttl+cap", EvictionConfig::ttl(3_600).with_capacity(512)),
    ];
    for workers in [1usize, 4] {
        for (evlabel, eviction) in evictions {
            // The live run either fills its chunks or is flushed on a
            // seeded random schedule; its recorded schedule must replay
            // bit for bit either way.
            for flush_seed in [None, Some(0x5EED_u64)] {
                let case = format!(
                    "workers={workers} eviction={evlabel} flushed={}",
                    flush_seed.is_some()
                );

                let mut live = noisy_trio()
                    .workers(workers)
                    .eviction(eviction)
                    .recalibration(policy())
                    .build()
                    .unwrap();
                common::feed_live(&mut live, log.entries(), flush_seed);
                let live_report = live.drain();
                let schedule = live.rule_updates().to_vec();
                if flush_seed.is_some() {
                    assert!(
                        schedule.iter().any(|u| !u.at_entry.is_multiple_of(256)),
                        "{case}: the flush schedule must move where installs land"
                    );
                }
                assert!(
                    schedule.len() >= 3,
                    "{case}: the drift stream must drive several updates, got {}",
                    schedule.len()
                );

                // Replay: no recalibrator, a different chunk geometry and
                // push granularity, the recorded updates applied manually at
                // their positions.
                let mut replay = noisy_trio()
                    .workers(workers)
                    .eviction(eviction)
                    .chunk_capacity(101)
                    .build()
                    .unwrap();
                let mut pos = 0usize;
                for update in &schedule {
                    replay.push_batch(&log.entries()[pos..update.at_entry as usize]);
                    replay
                        .set_adjudication(Adjudication::weighted(
                            update.weights.clone(),
                            update.threshold,
                        ))
                        .unwrap();
                    pos = update.at_entry as usize;
                }
                replay.push_batch(&log.entries()[pos..]);
                let replay_report = replay.drain();

                assert_identical(&case, &replay_report, &live_report);
                // The replay's own recorded schedule is the one it was fed:
                // same positions, same parameters. Provenance differs by
                // design — the live records are learned, the replay applied
                // them manually — so compare the rule content field-wise.
                let replayed = replay.rule_updates();
                assert_eq!(replayed.len(), schedule.len(), "{case}");
                for (got, want) in replayed.iter().zip(&schedule) {
                    assert_eq!(got.at_entry, want.at_entry, "{case}");
                    assert_eq!(got.weights, want.weights, "{case}");
                    assert_eq!(got.threshold, want.threshold, "{case}");
                    assert_eq!(got.provenance, RuleProvenance::Manual, "{case}");
                    assert_eq!(want.provenance, RuleProvenance::LearnedWeights, "{case}");
                }
            }
        }
    }
}

/// The drift scenario the recalibrator exists for: post-shift precision
/// is recovered, at the cost of the demoted member's solo detections.
#[test]
fn recalibration_recovers_post_shift_precision() {
    let (log, shift) = drift_log(6_000);
    let truth: Vec<bool> = log.truth().iter().map(|t| t.is_malicious()).collect();

    let mut frozen = noisy_trio().build().unwrap();
    frozen.push_batch(log.entries());
    let frozen_report = frozen.drain();

    let mut live = noisy_trio().recalibration(policy()).build().unwrap();
    live.push_batch(log.entries());
    let live_report = live.drain();

    let post = |report: &PipelineReport| {
        ConfusionMatrix::from_flags(&report.combined.to_bools()[shift..], &truth[shift..])
    };
    let pre = |report: &PipelineReport| {
        ConfusionMatrix::from_flags(&report.combined.to_bools()[..shift], &truth[..shift])
    };

    // Pre-shift, recalibration changes nothing material: the members
    // corroborate each other and the weights hover around neutral.
    assert!(
        (pre(&live_report).precision() - pre(&frozen_report).precision()).abs() < 0.02,
        "pre-shift: live {} vs frozen {}",
        pre(&live_report).precision(),
        pre(&frozen_report).precision()
    );

    // Post-shift, the frozen union demonstrably rots (the noisy member
    // fires on hyperactive humans)...
    let frozen_post = post(&frozen_report);
    let live_post = post(&live_report);
    assert!(
        frozen_post.precision() < 0.90,
        "the drift scenario must hurt the frozen rule, got {}",
        frozen_post.precision()
    );
    // ...and the recalibrated rule recovers what the frozen rule loses.
    assert!(
        live_post.precision() > frozen_post.precision() + 0.05,
        "recalibrated {} must beat frozen {} post-shift",
        live_post.precision(),
        frozen_post.precision()
    );
    // Precision is not bought by silencing detection wholesale: the
    // corroborated members keep the bulk of the recall.
    assert!(
        live_post.sensitivity() > 0.5 * frozen_post.sensitivity(),
        "recalibrated recall {} collapsed vs frozen {}",
        live_post.sensitivity(),
        frozen_post.sensitivity()
    );

    // The learned weights tell the story: the rate limiter is demoted
    // below the alarm threshold (it can no longer alert alone), the
    // corroborated members are not.
    let weights = live.stats().current_weights.unwrap();
    assert!(
        weights[2] < ALARM,
        "the noisy member must lose its solo vote: {weights:?}"
    );
    assert!(
        weights[0] > weights[2] && weights[1] > weights[2],
        "the corroborated members must outweigh it: {weights:?}"
    );
    assert!(
        live.stats().runtime_updates.adjudication >= 3,
        "the shift must drive repeated updates"
    );
}

/// The labeled-feedback hook, end to end: the oracle is consulted once
/// per entry, in feed order, with the right feed-order index — and its
/// labels (true precision evidence) steer the weights instead of the
/// peer proxy, keeping the unique-but-precise members at full weight.
#[test]
fn labeled_feedback_oracle_runs_in_feed_order_and_steers_weights() {
    use std::sync::{Arc, Mutex};
    let (log, _) = drift_log(3_000);
    let truth: Vec<bool> = log.truth().iter().map(|t| t.is_malicious()).collect();
    let consulted = Arc::new(Mutex::new(Vec::<u64>::new()));
    let recorder = Arc::clone(&consulted);
    let labels = truth.clone();
    let mut pipeline = noisy_trio()
        .workers(2)
        .recalibration(policy())
        .recalibration_labels(move |index, _entry| {
            recorder.lock().unwrap().push(index);
            Some(labels[usize::try_from(index).unwrap()])
        })
        .build()
        .unwrap();
    pipeline.push_batch(log.entries());
    let _ = pipeline.drain();

    // Exactly one consultation per entry, strictly in feed order, even
    // under multi-worker execution (the oracle runs on the driver at
    // chunk finalization).
    let consulted = consulted.lock().unwrap();
    assert_eq!(consulted.len(), log.len());
    assert!(
        consulted
            .iter()
            .enumerate()
            .all(|(i, idx)| *idx == i as u64),
        "oracle indices must be the feed order"
    );

    // With ground truth in the loop, support is true precision: the
    // signature/behaviour members (whose alerts are all true positives
    // in this scenario) hold the neutral weight or better, while the
    // noisy rate-threshold member is demoted by its measured false
    // positives — no peer-agreement proxy involved.
    let weights = pipeline.stats().current_weights.unwrap();
    assert!(
        weights[0] >= 1.0 && weights[1] >= 1.0,
        "fully precise members must not lose weight under labels: {weights:?}"
    );
    assert!(
        weights[2] < weights[0] && weights[2] < weights[1],
        "the imprecise member must rank below them: {weights:?}"
    );
    assert!(pipeline.stats().runtime_updates.adjudication >= 3);
}

/// Member verdicts over the whole log, one vector per composed detector
/// (the pipeline never changes member verdicts, only their combination).
fn member_alerts(log: &LabelledLog) -> Vec<Vec<bool>> {
    let mut detectors: Vec<Box<dyn Detector>> = vec![
        Box::new(Sentinel::stock()),
        Box::new(Arcane::stock()),
        Box::new(RateLimiter::new(RL_THRESHOLD)),
    ];
    detectors
        .iter_mut()
        .map(|d| run_alerts(d.as_mut(), log.entries()))
        .collect()
}

/// Applies a weighted rule offline to one feed-order segment.
fn offline_weighted(
    members: &[Vec<bool>],
    weights: &[f64],
    threshold: f64,
    lo: usize,
    hi: usize,
) -> Vec<bool> {
    (lo..hi)
        .map(|i| {
            let sum: f64 = members
                .iter()
                .zip(weights)
                .filter(|(m, _)| m[i])
                .map(|(_, w)| *w)
                .sum();
            sum >= threshold
        })
        .collect()
}

/// Runtime installs of the weighted rules a recalibrator can emit:
/// zero/floor weights, all-weights-equal degeneracy and exact-boundary
/// thresholds, landing mid-stream (and mid-chunk: the buffered residue
/// is flushed so every chunk adjudicates under exactly one rule).
#[test]
fn runtime_weighted_edge_cases_apply_segment_exact() {
    let (log, _) = drift_log(1_200);
    let members = member_alerts(&log);
    // (weights, threshold) per segment; the last lands mid-chunk.
    let rules: Vec<(Vec<f64>, f64)> = vec![
        (vec![1.0, 1.0, 1.0], ALARM), // union to start
        (vec![0.0, 0.0, 0.0], 0.5),   // zero weights: silence
        (vec![0.8, 0.8, 0.8], 1.6),   // all-equal ≡ 2-out-of-3
        (vec![0.5, 0.5, 0.05], 1.0),  // exact boundary: 0.5 + 0.5 >= 1,
        // the floor-weight member moot
        (vec![0.05, 0.05, 0.05], 0.15), // floor weights, boundary: 3oo3
    ];
    let bounds = [0usize, 600, 1_100, 1_700, 2_150, log.len()];

    let mut pipeline = noisy_trio()
        .workers(2)
        .chunk_capacity(237) // no boundary is a chunk multiple
        .build()
        .unwrap();
    let mut expected = Vec::new();
    for (seg, (weights, threshold)) in rules.iter().enumerate() {
        if seg > 0 {
            pipeline
                .set_adjudication(Adjudication::weighted(weights.clone(), *threshold))
                .unwrap();
        }
        pipeline.push_batch(&log.entries()[bounds[seg]..bounds[seg + 1]]);
        expected.extend(offline_weighted(
            &members,
            weights,
            *threshold,
            bounds[seg],
            bounds[seg + 1],
        ));
    }
    let report = pipeline.drain();
    assert_eq!(report.combined.to_bools(), expected);

    // The zero-weight segment is fully silent, the all-equal segment
    // matches its k-of-n twin — spot-check the degeneracies directly.
    assert!(expected[600..1_100].iter().all(|alert| !alert));
    let two_of_three: Vec<bool> = (1_100..1_700)
        .map(|i| members.iter().filter(|m| m[i]).count() >= 2)
        .collect();
    assert_eq!(&expected[1_100..1_700], two_of_three.as_slice());
    let unanimity: Vec<bool> = (2_150..log.len())
        .map(|i| members.iter().all(|m| m[i]))
        .collect();
    assert_eq!(&expected[2_150..], unanimity.as_slice());
}
