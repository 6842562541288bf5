//! Failure injection: the detectors must degrade gracefully, never panic,
//! on the kinds of malformed or adversarial input real deployments see.

use divscrape_detect::{run_alerts, Arcane, Detector, Sentinel, Verdict};
use divscrape_ensemble::{AlertVector, ConfusionMatrix};
use divscrape_httplog::{ClfTimestamp, EntryRef, HttpStatus, LogEntry};
use divscrape_pipeline::{Adjudication, Pipeline, PipelineBuilder};
use divscrape_traffic::{generate, ScenarioConfig};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// The two stock tools behind a 1-out-of-2 vote — the deployable
/// committee.
fn stock_pair_1oo2() -> Pipeline {
    PipelineBuilder::new()
        .detector(Sentinel::stock())
        .detector(Arcane::stock())
        .adjudication(Adjudication::k_of_n(1))
        .build()
        .unwrap()
}

fn weird_entries() -> Vec<LogEntry> {
    let mk = |secs: i64, path: &str, status: u16, ua: &str| {
        LogEntry::builder()
            .addr(Ipv4Addr::new(10, 0, 0, 1))
            .timestamp(ClfTimestamp::PAPER_WINDOW_START.plus_seconds(secs))
            .request(format!("GET {path} HTTP/1.1").parse().unwrap())
            .status(HttpStatus::new(status).unwrap())
            .user_agent(ua)
            .build()
            .unwrap()
    };
    vec![
        // Empty-ish and pathological targets.
        mk(0, "/", 200, ""),
        mk(1, "/?", 200, "x"),
        mk(2, "/%00%00%00", 400, "x"),
        mk(3, &format!("/{}", "a/".repeat(200)), 404, "x"),
        mk(4, &format!("/search?q={}", "A".repeat(4_000)), 400, "x"),
        // Exotic statuses the traffic model never emits.
        mk(5, "/x", 199, "x"),
        mk(6, "/x", 599, "x"),
        // A user agent full of quotes-adjacent characters.
        mk(7, "/x", 200, "Mozilla/5.0 \\\\ weird \\t agent"),
    ]
}

#[test]
fn detectors_survive_pathological_entries() {
    for make in [
        || Box::new(Sentinel::stock()) as Box<dyn Detector>,
        || Box::new(Arcane::stock()) as Box<dyn Detector>,
    ] {
        let mut det = make();
        for e in weird_entries() {
            let v = det.observe(&e.view());
            assert!(v.score.is_finite());
        }
    }
    // And so does the pair as a pipeline: every entry is accepted (each
    // survives its own rendering) and adjudicated.
    let mut pipeline = stock_pair_1oo2();
    pipeline.push_batch(&weird_entries());
    assert_eq!(pipeline.drain().requests(), weird_entries().len());
}

#[test]
fn out_of_order_logs_degrade_gracefully_not_catastrophically() {
    // Real log shippers reorder within small windows. Shuffle entries
    // inside 64-entry blocks and verify detection quality stays high.
    let log = generate(&ScenarioConfig::small(21)).unwrap();
    let mut shuffled: Vec<LogEntry> = log.entries().to_vec();
    for block in shuffled.chunks_mut(64) {
        block.reverse();
    }

    let ordered = {
        let alerts = run_alerts(&mut Sentinel::stock(), log.entries());
        ConfusionMatrix::of(&AlertVector::from_bools("s", &alerts), log.truth())
    };
    // Truth order no longer matches entry order after shuffling, so only
    // aggregate alert volume is comparable.
    let mut det = Sentinel::stock();
    let shuffled_alerts = run_alerts(&mut det, &shuffled);
    let shuffled_count = shuffled_alerts.iter().filter(|a| **a).count() as f64;
    let ordered_count = (ordered.tp + ordered.fp) as f64;
    let drift = (shuffled_count - ordered_count).abs() / ordered_count;
    assert!(
        drift < 0.05,
        "alert volume drifted {:.1}% under reordering",
        drift * 100.0
    );
}

#[test]
fn duplicate_entries_do_not_double_flag_clients() {
    // Log duplication (at-least-once shipping) must not change per-client
    // conclusions: a flagged client stays flagged, a clean one stays clean.
    let log = generate(&ScenarioConfig::tiny(22)).unwrap();
    let mut duplicated = Vec::with_capacity(log.len() * 2);
    for e in log.entries() {
        duplicated.push(e.clone());
        duplicated.push(e.clone());
    }
    let mut det = Sentinel::stock();
    let alerts = run_alerts(&mut det, &duplicated);
    // Every duplicated pair must agree with itself or escalate (an alert on
    // copy one implies an alert on copy two via the violator cache).
    for pair in alerts.chunks(2) {
        assert!(
            !pair[0] || pair[1],
            "alert retracted between duplicate entries"
        );
    }
}

#[test]
fn empty_and_single_entry_logs_are_fine() {
    let empty: Vec<LogEntry> = Vec::new();
    assert!(run_alerts(&mut Sentinel::stock(), &empty).is_empty());
    assert!(run_alerts(&mut Arcane::stock(), &empty).is_empty());

    let log = generate(&ScenarioConfig::tiny(23)).unwrap();
    let one = &log.entries()[..1];
    assert_eq!(run_alerts(&mut Sentinel::stock(), one).len(), 1);
    assert_eq!(run_alerts(&mut Arcane::stock(), one).len(), 1);
}

#[test]
fn adversarial_whitelist_spoofing_is_contained() {
    // A scraper claiming to be Googlebot from outside the crawler ranges
    // must NOT inherit the whitelist in Sentinel (it verifies the source
    // range). Arcane trusts identity alone — a deliberate design diversity
    // — so the pair at 1oo2 still catches the impostor.
    use divscrape_traffic::useragents::GOOGLEBOT;
    let mk = |i: i64| {
        LogEntry::builder()
            .addr(Ipv4Addr::new(81, 2, 44, 44)) // residential, not crawler range
            .timestamp(ClfTimestamp::PAPER_WINDOW_START.plus_seconds(i * 2))
            .request(format!("GET /offers/{i} HTTP/1.1").parse().unwrap())
            .status(HttpStatus::OK)
            .user_agent(GOOGLEBOT)
            .build()
            .unwrap()
    };
    let entries: Vec<LogEntry> = (0..60).map(mk).collect();
    let sentinel_alerts = run_alerts(&mut Sentinel::stock(), &entries);
    assert!(
        sentinel_alerts.iter().any(|a| *a),
        "sentinel must catch the fake crawler"
    );
    let mut pipeline = stock_pair_1oo2();
    pipeline.push_batch(&entries);
    assert!(pipeline.drain().combined.iter_alerted().next().is_some());
}

/// Panics on the 300th `observe` — a detector bug striking mid-stream.
/// The count is shared by every replica, so exactly one pool worker dies
/// and the others keep answering: the driver has to notice the gap, not
/// just a fully disconnected result channel.
#[derive(Clone, Default)]
struct PanicsOnThe300thCall {
    calls: Arc<AtomicU32>,
}

impl Detector for PanicsOnThe300thCall {
    fn name(&self) -> &str {
        "panics-on-the-300th-call"
    }

    fn observe(&mut self, _entry: &EntryRef<'_>) -> Verdict {
        assert_ne!(
            self.calls.fetch_add(1, Ordering::Relaxed),
            299,
            "detector bug"
        );
        Verdict::CLEAR
    }

    fn reset(&mut self) {}
}

#[test]
#[should_panic(expected = "worker thread died")]
fn a_dead_pool_worker_fails_the_driver_instead_of_hanging_it() {
    let log = generate(&ScenarioConfig::small(29)).unwrap();
    let mut pipeline = PipelineBuilder::new()
        .detector(Sentinel::stock())
        .detector(PanicsOnThe300thCall::default())
        .adjudication(Adjudication::k_of_n(1))
        .workers(2)
        .chunk_capacity(128)
        .build()
        .unwrap();
    pipeline.push_batch(log.entries());
    pipeline.drain();
}
