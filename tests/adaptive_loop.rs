//! The adaptation loop, closed end to end.
//!
//! Three pinned properties:
//!
//! * **The arms race is won by adapting** — an [`AdaptiveScenario`]
//!   adversary escalates its tradecraft *because* the defence catches
//!   it. On the resulting log, a pipeline that learns both its member
//!   weights (recalibration) and its alarm threshold
//!   ([`PipelineBuilder::threshold_control`]) holds the false-positive
//!   budget (precision ≥ 0.95) through every post-escalation regime,
//!   while the same trio under the frozen launch rule measurably rots.
//! * **Learned thresholds replay bit-identically** — the live run's
//!   recorded schedule ([`Pipeline::rule_updates`], now carrying
//!   [`RuleProvenance`]) reproduces the run exactly through manual
//!   [`Pipeline::set_adjudication`] calls with all learning off, for
//!   workers {1, 4} × eviction {off, TTL+capacity} × the live run
//!   {filling its chunks, flushed on a seeded random schedule} and a
//!   different chunk geometry. Threshold learning is therefore a pure,
//!   position-deterministic rule swap like weight learning before it,
//!   wherever the flush timing made it land.
//! * **Drift alarms** — the recalibrator's support tracking surfaces a
//!   population shift as a [`DriftAlarm`]: it fires on the
//!   [`DriftScenario::scraper_population_shift`] preset (on the member
//!   whose calibration the shift rots, after the shift), stays silent
//!   on a stationary log of equal length, and the counts flow through
//!   [`PipelineStats`] into the service plane's [`ServiceStats`] and
//!   STATS JSON.

mod common;

use std::sync::{Arc, Mutex, OnceLock};

use divscrape_detect::baselines::RateLimiter;
use divscrape_detect::{Arcane, EvictionConfig, Sentinel};
use divscrape_ensemble::{ConfusionMatrix, DriftAlarm, RecalibrationPolicy, ThresholdPolicy};
use divscrape_pipeline::{
    Adjudication, AppliedRuleUpdate, PipelineBuilder, PipelineReport, RuleProvenance, TenantId,
};
use divscrape_service::ServicePlane;
use divscrape_traffic::{
    generate, AdaptiveOutcome, AdaptiveScenario, DriftScenario, ScenarioConfig,
};

/// Launch threshold of the weighted trio: below the neutral weight 1,
/// so the rule starts as a plain union — the configuration the paper's
/// FP numbers show you cannot keep once the population adapts.
const ALARM: f64 = 0.95;

/// Where the learned threshold is allowed to wander: never below the
/// launch union, never above unanimity-with-headroom for three members.
const THRESHOLD_CEILING: f64 = 2.5;

/// Noisy third member, as in `tests/recalibration.rs`: aggressive
/// enough that bots keep it honest while quiet-regime humans trip it.
const RL_THRESHOLD: u32 = 8;

fn trio() -> PipelineBuilder {
    PipelineBuilder::new()
        .detector(Sentinel::stock())
        .detector(Arcane::stock())
        .detector(RateLimiter::new(RL_THRESHOLD))
        .adjudication(Adjudication::weighted(vec![1.0, 1.0, 1.0], ALARM))
        .chunk_capacity(256)
}

fn recalibration() -> RecalibrationPolicy {
    RecalibrationPolicy::new().window(256).update_every(512)
}

/// The full adaptation stack: weight recalibration plus learned alarm
/// threshold. The alert-rate target sits well under the opening
/// regime's bot-heavy alert share, so the controller has to raise the
/// threshold toward corroboration as the adversary goes quiet.
fn adaptive_stack() -> PipelineBuilder {
    trio().recalibration(recalibration()).threshold_control(
        ThresholdPolicy::new(0.20)
            .window(512)
            .update_every(1024)
            .bounds(ALARM, THRESHOLD_CEILING)
            .max_step(0.35)
            .dead_band(0.25),
    )
}

struct Fixture {
    outcome: AdaptiveOutcome,
    /// Schedule recorded by the closed-loop feedback pipeline itself.
    closed_schedule: Vec<AppliedRuleUpdate>,
    closed_drift_alarms: u64,
}

/// Runs the arms race once per process: four rounds of 3 000 requests,
/// the adaptation stack in the feedback seat (pushing each round,
/// draining for the per-entry flags the adversary reacts to).
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut feedback = adaptive_stack().build().unwrap();
        let outcome = AdaptiveScenario::arms_race(2024, 4, 3_000)
            .run(|round| {
                feedback.push_batch(round.entries());
                feedback.drain().combined.to_bools()
            })
            .unwrap();
        Fixture {
            outcome,
            closed_schedule: feedback.rule_updates().to_vec(),
            closed_drift_alarms: feedback.stats().drift_alarms,
        }
    })
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

/// The headline closed-loop pin: adapting holds the FP budget the
/// frozen launch rule cannot, on traffic that moved *because* the
/// defence caught it.
#[test]
fn learned_thresholds_hold_the_fp_budget_while_frozen_rots() {
    let fx = fixture();
    let rounds = fx.outcome.rounds();

    // The loop actually closed: the noisy opening population is caught
    // (escalation), tradecraft compounds for at least two rounds, and
    // by the end the adversary has gone quiet enough to stop reacting —
    // visibly less of it is caught than in round zero.
    assert!(rounds[0].escalated, "the opening bot wave must be caught");
    assert!(
        fx.outcome.escalations() >= 2,
        "escalation must compound: {rounds:?}"
    );
    let last = rounds.last().unwrap();
    assert!(
        last.alerted_share < rounds[0].alerted_share,
        "the arms race must drive the adversary quiet: {rounds:?}"
    );
    // The feedback pipeline learned its threshold while in the loop —
    // and its recalibrator flagged the engineered shifts as drift.
    assert!(
        fx.closed_schedule
            .iter()
            .any(|u| u.provenance == RuleProvenance::LearnedThreshold),
        "the closed loop must include learned-threshold installs"
    );
    assert!(
        fx.closed_drift_alarms >= 1,
        "adaptation is drift, and must alarm"
    );

    // Arms over the fixed combined log: same entries, same feed order.
    let log = fx.outcome.log();
    let truth: Vec<bool> = log.truth().iter().map(|t| t.is_malicious()).collect();

    let mut frozen = trio().build().unwrap();
    frozen.push_batch(log.entries());
    let frozen_flags = frozen.drain().combined.to_bools();

    let mut learned = adaptive_stack().build().unwrap();
    learned.push_batch(log.entries());
    let learned_flags = learned.drain().combined.to_bools();

    // Post-escalation rounds (every round after the first reaction).
    for round in &rounds[1..] {
        let seg = round.start..round.start + round.len;
        let f = ConfusionMatrix::from_flags(&frozen_flags[seg.clone()], &truth[seg.clone()]);
        let l = ConfusionMatrix::from_flags(&learned_flags[seg.clone()], &truth[seg.clone()]);
        assert!(
            l.precision() >= 0.95,
            "learned rule must hold the FP budget in the round at {}: {}",
            round.start,
            l.precision()
        );
        assert!(
            f.precision() < 0.90,
            "the frozen union must visibly rot at {}: {}",
            round.start,
            f.precision()
        );
        assert!(
            l.precision() > f.precision() + 0.05,
            "learned {} must beat frozen {} at {}",
            l.precision(),
            f.precision(),
            round.start
        );
    }
    // Precision is not bought by going deaf: aggregate post-escalation
    // recall stays material under a threshold that now demands
    // corroboration.
    let post = rounds[1].start;
    let l = ConfusionMatrix::from_flags(&learned_flags[post..], &truth[post..]);
    assert!(
        l.sensitivity() > 0.5,
        "learned recall collapsed post-escalation: {}",
        l.sensitivity()
    );

    // The threshold genuinely moved, stayed inside its mandate, and
    // every install is attributed to the controller that made it.
    let schedule = learned.rule_updates();
    let threshold_installs: Vec<&AppliedRuleUpdate> = schedule
        .iter()
        .filter(|u| u.provenance == RuleProvenance::LearnedThreshold)
        .collect();
    assert!(
        !threshold_installs.is_empty(),
        "the fixed-log run must also learn its threshold"
    );
    for install in &threshold_installs {
        assert!(
            (ALARM..=THRESHOLD_CEILING).contains(&install.threshold),
            "threshold {} escaped its bounds",
            install.threshold
        );
        assert!(
            (install.threshold - ALARM).abs() > f64::EPSILON,
            "a proposed threshold equal to the current one must not install"
        );
    }
    let final_threshold = schedule.last().unwrap().threshold;
    assert!(
        final_threshold > ALARM,
        "the quiet-regime threshold must end above the launch union, got {final_threshold}"
    );
}

/// Learned thresholds are replayable: the recorded schedule, applied
/// manually with every learner off, reproduces the live run bit for
/// bit — across worker counts, eviction, and a different chunk
/// geometry.
#[test]
fn learned_threshold_replay_is_bit_identical() {
    let log = fixture().outcome.log();
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

                let mut live = adaptive_stack()
                    .workers(workers)
                    .eviction(eviction)
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
                    schedule
                        .iter()
                        .any(|u| u.provenance == RuleProvenance::LearnedThreshold),
                    "{case}: the adaptive log must drive threshold installs"
                );

                let mut replay = trio()
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
                // Same installs at the same positions; only the provenance
                // differs (the replay applied them manually).
                let replayed = replay.rule_updates();
                assert_eq!(replayed.len(), schedule.len(), "{case}");
                for (got, want) in replayed.iter().zip(&schedule) {
                    assert_eq!(got.at_entry, want.at_entry, "{case}");
                    assert_eq!(got.weights, want.weights, "{case}");
                    assert_eq!(got.threshold, want.threshold, "{case}");
                    assert_eq!(got.provenance, RuleProvenance::Manual, "{case}");
                }
            }
        }
    }
}

/// Drift alarms: fire on the engineered population shift, on the right
/// member, after the shift — and never on stationary traffic of the
/// same length.
#[test]
fn drift_alarms_fire_on_the_shift_and_never_on_stationary_traffic() {
    let scenario = DriftScenario::scraper_population_shift(2024, 3_000);
    let shift = scenario.phase_boundaries()[1];
    let shifted = scenario.generate().unwrap();
    let stationary = generate(&ScenarioConfig::with_target(2024, shifted.len() as u64)).unwrap();
    assert_eq!(shifted.len(), stationary.len());

    let run = |log: &divscrape_traffic::LabelledLog| {
        let seen: Arc<Mutex<Vec<DriftAlarm>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let mut pipeline = trio()
            .recalibration(recalibration())
            .on_drift(move |alarm| sink.lock().unwrap().push(alarm.clone()))
            .build()
            .unwrap();
        pipeline.push_batch(log.entries());
        let _ = pipeline.drain();
        let alarms = seen.lock().unwrap().clone();
        (pipeline.stats(), alarms)
    };

    let (stats, alarms) = run(&shifted);
    assert!(
        stats.drift_alarms >= 1,
        "the population shift must raise a drift alarm"
    );
    assert_eq!(
        stats.drift_alarms,
        alarms.len() as u64,
        "hook sees every alarm"
    );
    for alarm in &alarms {
        // Member 2 is the rate limiter — the detector whose offline
        // calibration the stealth shift rots (`stealth_shift` turns the
        // humans hyperactive). Sentinel and Arcane stay corroborated.
        assert_eq!(alarm.member, 2, "the noisy member must be the one flagged");
        assert!(
            (alarm.at_entry as usize) > shift,
            "alarm at {} cannot precede the shift at {shift}",
            alarm.at_entry
        );
        assert!(
            alarm.fast < alarm.slow,
            "support must have fallen, not risen"
        );
    }

    let (quiet_stats, quiet_alarms) = run(&stationary);
    assert_eq!(
        quiet_stats.drift_alarms, 0,
        "stationary traffic of equal length must stay silent"
    );
    assert!(quiet_alarms.is_empty());
}

/// The alarm counts flow through every aggregation layer: pipeline
/// stats into the service plane's typed stats (surviving tenant
/// removal) and its STATS JSON.
#[test]
fn drift_alarm_counts_flow_through_service_aggregates() {
    let shifted = DriftScenario::scraper_population_shift(2024, 3_000)
        .generate()
        .unwrap();

    // Reference count from a solo pipeline over the same feed order.
    let mut solo = trio().recalibration(recalibration()).build().unwrap();
    solo.push_batch(shifted.entries());
    let _ = solo.drain();
    let expected = solo.stats().drift_alarms;
    assert!(expected >= 1);

    let acme = TenantId::new("acme");

    // Service plane: same single-shard feed order, surfaced in both the
    // typed stats and the STATS JSON the admin socket serves.
    let plane = ServicePlane::builder()
        .tenant(acme.clone(), 1, |_, _| {
            trio().recalibration(recalibration())
        })
        .build()
        .unwrap();
    for entry in shifted.entries() {
        plane.ingest(&acme, entry.to_string());
    }
    let _ = plane.drain(&acme);
    let stats = plane.stats();
    assert_eq!(stats.drift_alarms, expected);
    let json = stats.to_json();
    assert!(
        json.contains(&format!("\"drift_alarms\":{expected}")),
        "STATS JSON must carry the count: {json}"
    );
    let _ = plane.leave(&acme);
    assert_eq!(
        plane.stats().drift_alarms,
        expected,
        "a departed tenant's alarms stay in the service aggregate"
    );
    plane.shutdown();
}
