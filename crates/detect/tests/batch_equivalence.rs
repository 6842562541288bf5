//! The `observe_batch` contract: every stock detector's specialized batch
//! path must be verdict-identical to the per-entry `observe` loop (the
//! trait's default), for any chunking of the log — and so must its
//! borrowed twin, `observe_batch_refs` over `EntryBlock` views of the
//! rendered lines, with eviction off and on.

use divscrape_detect::baselines::{
    Cart, CartParams, Logistic, LogisticParams, NaiveBayes, RateLimiter, SessionModelDetector,
    SignatureOnly, TrainingSet,
};
use divscrape_detect::{
    Arcane, Committee, Detector, EvictionConfig, Sentinel, TrapDetector, Verdict,
};
use divscrape_httplog::{EntryBlock, EntryRef};
use divscrape_traffic::{generate, LabelledLog, ScenarioConfig};

fn log() -> LabelledLog {
    generate(&ScenarioConfig::small(20_240)).unwrap()
}

/// Per-entry observation — exactly what the trait's default
/// `observe_batch` does, used as the reference behavior.
fn reference<D: Detector>(det: &mut D, log: &LabelledLog) -> Vec<Verdict> {
    log.entries().iter().map(|e| det.observe(e)).collect()
}

/// The specialized batch path, fed in the given chunk sizes.
fn batched<D: Detector>(det: &mut D, log: &LabelledLog, chunk: usize) -> Vec<Verdict> {
    let mut out = Vec::new();
    for part in log.entries().chunks(chunk) {
        det.observe_batch(part, &mut out);
    }
    out
}

/// The borrowed path: each chunk of rendered lines is parsed in place
/// into a recycled `EntryBlock` (as the pipeline's arena does) and its
/// views fed to `observe_batch_refs`.
fn borrowed<D: Detector>(det: &mut D, lines: &[String], chunk: usize) -> Vec<Verdict> {
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

/// Holds detectors built by `fresh` to the contract on both batch paths:
/// owned chunks with eviction off, borrowed chunks with eviction off and
/// on, each against a per-entry `observe` loop under the same policy.
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
        if evict.is_none() {
            // Whole-log, prime-sized, and single-entry chunking must all agree.
            for chunk in [log.len(), 257, 1] {
                let got = batched(&mut build(), &log, chunk);
                assert_same_verdicts(&name, &format!("owned chunk {chunk}"), &got, &expected);
            }
        }
        for chunk in [1, 7, 311, lines.len()] {
            let mut det = build();
            let got = borrowed(&mut det, &lines, chunk);
            let case = format!("borrowed chunk {chunk}, eviction {}", evict.is_some());
            assert_same_verdicts(&name, &case, &got, &expected);
            assert_eq!(
                det.eviction_stats(),
                per_entry.eviction_stats(),
                "{name}: eviction accounting diverged ({case})"
            );
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
fn committee_batch_path_is_equivalent() {
    // Committee is not Clone (boxed members), so compare two fresh builds.
    let log = log();
    let mut per_entry = Committee::stock_pair(1);
    let expected = reference(&mut per_entry, &log);
    for chunk in [log.len(), 257, 1] {
        let mut committee = Committee::stock_pair(1);
        let got = batched(&mut committee, &log, chunk);
        assert_eq!(got.len(), expected.len());
        assert!(
            got.iter()
                .zip(&expected)
                .all(|(g, e)| g.alert == e.alert && (g.score - e.score).abs() < 1e-6),
            "committee diverged with chunk {chunk}"
        );
        // Member accounting must match the per-entry path too.
        assert_eq!(committee.requests_seen(), per_entry.requests_seen());
        assert_eq!(
            committee.member_alert_counts(),
            per_entry.member_alert_counts()
        );
    }
}

#[test]
fn five_member_committee_paths_are_equivalent() {
    // The full diverse ensemble as one detector: `Committee` forwards
    // each batch path to the same path of every member.
    assert_paths_equivalent(|| {
        Committee::new(
            vec![
                Box::new(Sentinel::stock()),
                Box::new(Arcane::stock()),
                Box::new(TrapDetector::default()),
                Box::new(RateLimiter::default()),
                Box::new(SignatureOnly::stock()),
            ],
            1,
        )
        .expect("five members, k = 1")
    });
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
