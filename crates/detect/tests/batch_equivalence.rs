//! The `observe_batch_refs` contract: every stock detector's specialized
//! batch path must be verdict-identical to the per-entry `observe` loop
//! (the trait's default), for any chunking of the log, whichever source
//! the views come from — `LogEntry::view()` of the owned entries or
//! `EntryBlock` views of their rendered lines — with eviction off and on.

use divscrape_detect::baselines::{
    Cart, CartParams, Logistic, LogisticParams, NaiveBayes, RateLimiter, SessionModelDetector,
    SignatureOnly, TrainingSet,
};
use divscrape_detect::{Arcane, Detector, EvictionConfig, Sentinel, TrapDetector, Verdict};
use divscrape_httplog::{EntryBlock, EntryRef, LogEntry};
use divscrape_traffic::{generate, LabelledLog, ScenarioConfig};

fn log() -> LabelledLog {
    generate(&ScenarioConfig::small(20_240)).unwrap()
}

/// Per-entry observation — exactly what the trait's default
/// `observe_batch_refs` does, used as the reference behavior.
fn reference<D: Detector>(det: &mut D, log: &LabelledLog) -> Vec<Verdict> {
    log.entries()
        .iter()
        .map(|e| det.observe(&e.view()))
        .collect()
}

/// The batch path over views of the owned entries, fed in the given
/// chunk sizes (what `run` does with one whole-log chunk).
fn batched<D: Detector>(det: &mut D, log: &LabelledLog, chunk: usize) -> Vec<Verdict> {
    let mut out = Vec::new();
    for part in log.entries().chunks(chunk) {
        let views: Vec<EntryRef<'_>> = part.iter().map(LogEntry::view).collect();
        det.observe_batch_refs(&views, &mut out);
    }
    out
}

/// The batch path over arena views: each chunk of rendered lines is
/// parsed in place into a recycled `EntryBlock` (as the pipeline does).
fn arena<D: Detector>(det: &mut D, lines: &[String], chunk: usize) -> Vec<Verdict> {
    let mut out = Vec::new();
    let mut block = EntryBlock::new();
    for part in lines.chunks(chunk) {
        block.clear();
        for line in part {
            block.push_line(line).expect("rendered line parses");
        }
        let views: Vec<EntryRef<'_>> = (0..block.len()).map(|i| block.view(i)).collect();
        det.observe_batch_refs(&views, &mut out);
    }
    out
}

fn assert_same_verdicts(name: &str, case: &str, got: &[Verdict], expected: &[Verdict]) {
    assert_eq!(got.len(), expected.len(), "{name}: length ({case})");
    for (i, (g, e)) in got.iter().zip(expected).enumerate() {
        assert_eq!(
            g.alert, e.alert,
            "{name}: alert diverged at entry {i} ({case})"
        );
        assert!(
            (g.score - e.score).abs() < 1e-6,
            "{name}: score diverged at entry {i} ({case}): {} vs {}",
            g.score,
            e.score
        );
    }
}

/// TTL + capacity, tight enough that both mechanisms fire mid-log.
fn eviction() -> EvictionConfig {
    EvictionConfig::ttl(900).with_capacity(48)
}

/// Holds detectors built by `fresh` to the contract: every chunking of
/// both view sources, with eviction off and on, against a per-entry
/// `observe` loop under the same policy — verdicts and eviction
/// accounting alike.
fn assert_paths_equivalent<D: Detector>(fresh: impl Fn() -> D) {
    let log = log();
    let lines: Vec<String> = log.entries().iter().map(|e| e.to_string()).collect();
    for evict in [None, Some(eviction())] {
        let build = || {
            let mut det = fresh();
            if let Some(cfg) = evict {
                det.set_eviction(cfg);
            }
            det
        };
        let mut per_entry = build();
        let expected = reference(&mut per_entry, &log);
        let name = per_entry.name().to_owned();
        let check = |source: &str, chunk: usize, det: &D, got: &[Verdict]| {
            let case = format!("{source}, chunk {chunk}, eviction {}", evict.is_some());
            assert_same_verdicts(&name, &case, got, &expected);
            assert_eq!(
                det.eviction_stats(),
                per_entry.eviction_stats(),
                "{name}: eviction accounting diverged ({case})"
            );
        };
        // Single-entry, prime-sized and whole-log chunking must all agree.
        for chunk in [1, 7, 311, log.len()] {
            let mut det = build();
            let got = batched(&mut det, &log, chunk);
            check("entry views", chunk, &det, &got);
            let mut det = build();
            let got = arena(&mut det, &lines, chunk);
            check("arena views", chunk, &det, &got);
        }
    }
}

fn assert_batch_equivalent<D: Detector + Clone>(proto: D) {
    assert_paths_equivalent(|| proto.clone());
}

#[test]
fn sentinel_batch_path_is_equivalent() {
    assert_batch_equivalent(Sentinel::stock());
}

#[test]
fn arcane_batch_path_is_equivalent() {
    assert_batch_equivalent(Arcane::stock());
}

#[test]
fn rate_limiter_batch_path_is_equivalent() {
    assert_batch_equivalent(RateLimiter::new(30));
}

#[test]
fn signature_only_batch_path_is_equivalent() {
    assert_batch_equivalent(SignatureOnly::stock());
}

#[test]
fn trap_detector_batch_path_is_equivalent() {
    assert_batch_equivalent(TrapDetector::default());
}

#[test]
fn session_model_batch_paths_are_equivalent() {
    let training_log = generate(&ScenarioConfig::small(7)).unwrap();
    let training = TrainingSet::from_log(&training_log, 5);
    assert_batch_equivalent(SessionModelDetector::new(
        NaiveBayes::train(&training).unwrap(),
        0.5,
        3,
    ));
    assert_batch_equivalent(SessionModelDetector::new(
        Logistic::train(&training, LogisticParams::default()).unwrap(),
        0.5,
        3,
    ));
    assert_batch_equivalent(SessionModelDetector::new(
        Cart::train(&training, CartParams::default()).unwrap(),
        0.5,
        3,
    ));
}

#[test]
fn batch_path_amortization_preserves_introspection_counters() {
    // The batched Sentinel/Arcane paths memoize identity lookups; the
    // side-band counters (violator cache, rule hits) must still match the
    // per-entry path exactly.
    let log = log();
    let mut a = Sentinel::stock();
    let _ = reference(&mut a, &log);
    let mut b = Sentinel::stock();
    let _ = batched(&mut b, &log, 311);
    assert_eq!(a.flagged_clients(), b.flagged_clients());
    assert_eq!(a.trip_counts(), b.trip_counts());

    let mut a = Arcane::stock();
    let _ = reference(&mut a, &log);
    let mut b = Arcane::stock();
    let _ = batched(&mut b, &log, 311);
    assert_eq!(a.rule_hits(), b.rule_hits());
}
