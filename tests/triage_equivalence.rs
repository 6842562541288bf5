//! The triage fast path's headline guarantee: with the stock
//! [`FastTriage`] filter in front of the stock Sentinel + Arcane pair,
//! a triage-on run is **bit-identical** to a triage-off run whenever
//! nothing spilled — the combined verdicts, every member's verdicts,
//! and every sink-delivered `Alert::to_json` line, across worker
//! counts {1, 4}, eviction off and on (TTL), and all three entry
//! points (`push`, `push_batch`, `push_line`).
//!
//! Beyond the stock pair, the *drain report* stays bit-identical for
//! arbitrary (even deliberately weak) filters: suppressed entries that
//! would have alerted are re-scored at escalation from the replayed
//! history and patched into the report, with their alerts delivered
//! late. And a property test pins the replay machinery's ordering
//! invariant: the detectors see each escalated client's entries exactly
//! once, in feed order — benign clients' entries never.
//!
//! The spill path is pinned separately: a tiny replay cap loses
//! buffered history (counted, recall-bounded) but never changes who
//! escalates.

mod common;

use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};

use divscrape_detect::{
    Arcane, Detector, EvictionConfig, EvictionStats, Sentinel, TriageDecision, TriageFilter,
    Verdict,
};
use divscrape_httplog::{EntryRef, LogEntry};
use divscrape_pipeline::{
    Adjudication, Alert, Pipeline, PipelineBuilder, PipelineReport, PipelineStats, TriagePolicy,
};
use divscrape_traffic::{generate, ScenarioConfig};
use proptest::prelude::*;

/// How entries are fed into the pipeline.
#[derive(Debug, Clone, Copy)]
enum Feed {
    /// One owned entry at a time.
    Push,
    /// The whole log as one owned slice.
    PushBatch,
    /// One raw CLF line at a time (arena-parsed borrowed path).
    PushLine,
}

/// Everything one run produces that the equivalence pins: the report's
/// alert vectors, the exact JSON of every sink-delivered alert in
/// delivery order, and the pipeline's counter snapshot.
struct RunOutput {
    report: PipelineReport,
    alert_jsons: Vec<String>,
    stats: PipelineStats,
}

fn build_pipeline(
    workers: usize,
    eviction: Option<EvictionConfig>,
    triage: Option<TriagePolicy>,
) -> (Pipeline, Arc<Mutex<Vec<String>>>) {
    let jsons: Arc<Mutex<Vec<String>>> = Arc::default();
    let sink_jsons = Arc::clone(&jsons);
    let mut builder = PipelineBuilder::new()
        .detector(Sentinel::stock())
        .detector(Arcane::stock())
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
    if let Some(policy) = triage {
        builder = builder.triage(policy);
    }
    (builder.build().unwrap(), jsons)
}

fn run(
    entries: &[LogEntry],
    workers: usize,
    eviction: Option<EvictionConfig>,
    triage: Option<TriagePolicy>,
    feed: Feed,
) -> RunOutput {
    let (mut pipeline, jsons) = build_pipeline(workers, eviction, triage);
    match feed {
        Feed::Push => {
            for entry in entries {
                pipeline.push(entry.clone());
            }
        }
        Feed::PushBatch => pipeline.push_batch(entries),
        Feed::PushLine => {
            for entry in entries {
                pipeline.push_line(&entry.to_string()).unwrap();
            }
        }
    }
    let report = pipeline.drain();
    let stats = pipeline.stats();
    let alert_jsons = std::mem::take(&mut *jsons.lock().unwrap());
    RunOutput {
        report,
        alert_jsons,
        stats,
    }
}

fn assert_reports_identical(case: &str, got: &RunOutput, want: &RunOutput) {
    assert_eq!(
        got.report.combined.to_bools(),
        want.report.combined.to_bools(),
        "{case}: combined alerts diverged from the triage-off run"
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
            "{case}: member {} diverged from the triage-off run",
            g.name()
        );
    }
}

#[test]
fn stock_triage_is_bit_identical_to_triage_off_in_the_no_spill_regime() {
    let log = generate(&ScenarioConfig::tiny(2026)).unwrap();
    let entries = log.entries();
    // TTL-only: the filter forgets in lockstep with the detectors.
    // Capacity-LRU is deliberately outside the wall — occupancy-driven
    // forgetting is verdict-affecting with or without triage.
    let eviction = EvictionConfig::ttl(3_600);

    for workers in [1usize, 4] {
        for evict in [None, Some(eviction)] {
            let case_base = format!("workers={workers} eviction={}", evict.is_some());
            let want = run(entries, workers, evict, None, Feed::PushBatch);
            assert!(
                want.report.combined.count() > 0,
                "{case_base}: reference must alert"
            );

            for feed in [Feed::Push, Feed::PushBatch, Feed::PushLine] {
                let case = format!("{case_base} feed={feed:?}");
                let got = run(entries, workers, evict, Some(TriagePolicy::fast()), feed);
                assert_reports_identical(&case, &got, &want);
                // The stock filter is a superset trigger for the stock
                // pair, so no suppressed entry ever alerts and even the
                // live sink stream is identical — no late deliveries.
                assert_eq!(
                    got.alert_jsons, want.alert_jsons,
                    "{case}: sink-delivered alert JSON diverged from the triage-off run"
                );
                assert_eq!(got.stats.triage_spilled_entries, 0, "{case}: spilled");
                assert!(
                    got.stats.triage_suppressed_entries > 0,
                    "{case}: triage must suppress benign traffic for the wall to bite"
                );
                assert!(
                    got.stats.triage_escalations > 0,
                    "{case}: the log's scrapers must escalate"
                );
                assert!(
                    got.stats.triage_replayed_entries > 0,
                    "{case}: behavioural escalations must replay buffered history"
                );
            }
        }
    }
}

#[test]
fn weak_custom_filter_keeps_the_drain_report_identical_with_late_alerts() {
    let log = generate(&ScenarioConfig::tiny(77)).unwrap();
    let entries = log.entries();

    for workers in [1usize, 4] {
        let case = format!("workers={workers}");
        let want = run(entries, workers, None, None, Feed::PushBatch);
        let got = run(
            entries,
            workers,
            None,
            Some(TriagePolicy::custom(common::SlowFuse::new(12))),
            Feed::PushBatch,
        );
        // The report is patched from the replayed history: bit-identical
        // even though the filter is not a superset trigger.
        assert_reports_identical(&case, &got, &want);
        assert_eq!(got.stats.triage_spilled_entries, 0, "{case}");
        assert!(got.stats.triage_suppressed_entries > 0, "{case}");
        // Every alert still reaches the sinks exactly once — some of
        // them late (at escalation), so delivery order may differ but
        // the delivered set may not. Alert JSON embeds the feed index,
        // so sorted comparison is an exact per-entry match.
        let mut got_sorted = got.alert_jsons.clone();
        let mut want_sorted = want.alert_jsons.clone();
        got_sorted.sort();
        want_sorted.sort();
        assert_eq!(
            got_sorted, want_sorted,
            "{case}: late-delivered alerts diverged from the triage-off run"
        );
    }
}

#[test]
fn tiny_replay_cap_spills_history_but_never_changes_who_escalates() {
    let log = generate(&ScenarioConfig::tiny(909)).unwrap();
    let entries = log.entries();

    let off = run(entries, 2, None, None, Feed::PushBatch);
    let full = run(
        entries,
        2,
        None,
        Some(TriagePolicy::fast()),
        Feed::PushBatch,
    );
    let capped = run(
        entries,
        2,
        None,
        Some(TriagePolicy::fast().replay_cap_bytes(512)),
        Feed::PushBatch,
    );

    assert!(
        capped.stats.triage_spilled_entries > 0,
        "a 512-byte cap must spill on this log"
    );
    assert_eq!(
        full.stats.triage_spilled_entries, 0,
        "64 MiB default cap must not spill"
    );
    // Escalation decisions depend only on the filter's per-client state,
    // never on the buffer: the capped run escalates exactly the same.
    assert_eq!(
        capped.stats.triage_escalations, full.stats.triage_escalations,
        "spilling changed escalation decisions"
    );
    assert_eq!(
        capped.stats.triage_suppressed_entries, full.stats.triage_suppressed_entries,
        "spilling changed suppression decisions"
    );
    // Recall is bounded, not lost: every entry still gets a verdict slot
    // and the scrapers still alert — spilled history can only cost the
    // alerts that depended on it.
    assert_eq!(
        capped.report.combined.to_bools().len(),
        entries.len(),
        "spills must not drop verdict slots"
    );
    assert!(
        capped.report.combined.count() > 0,
        "sustained scrapers must still be flagged despite spills"
    );
    let alerted_addrs = |out: &RunOutput| -> HashSet<Ipv4Addr> {
        out.report
            .combined
            .to_bools()
            .iter()
            .zip(entries)
            .filter(|(alerted, _)| **alerted)
            .map(|(_, e)| e.addr())
            .collect()
    };
    let off_addrs = alerted_addrs(&off);
    let capped_addrs = alerted_addrs(&capped);
    assert!(
        capped_addrs.is_subset(&off_addrs),
        "spills must never invent alerts on clients the full ensemble clears"
    );
    assert!(
        !capped_addrs.is_empty() && capped_addrs.len() >= off_addrs.len() / 2,
        "recall collapsed: {} of {} alerting clients survived the cap",
        capped_addrs.len(),
        off_addrs.len()
    );
}

/// Records every entry the detector set actually observes, live or
/// replayed, as `(client octet, global feed sequence)` — the sequence is
/// smuggled through the request path.
#[derive(Debug, Clone)]
struct Recorder {
    seen: Arc<Mutex<Vec<(u8, u64)>>>,
}

impl Detector for Recorder {
    fn name(&self) -> &str {
        "recorder"
    }
    fn observe(&mut self, entry: &EntryRef<'_>) -> Verdict {
        let seq: u64 = entry
            .path()
            .trim_start_matches("/item/")
            .parse()
            .expect("paths encode the feed sequence");
        self.seen
            .lock()
            .expect("recorder poisoned")
            .push((entry.addr().octets()[3], seq));
        Verdict::CLEAR
    }
    fn reset(&mut self) {}
}

/// Escalates client octet `c` at its `thresholds[c]`-th request; a
/// threshold of 0 means the client never escalates.
#[derive(Debug, Clone)]
struct PerClientFuse {
    thresholds: Vec<u64>,
    counts: HashMap<(Ipv4Addr, u64), u64>,
}

impl TriageFilter for PerClientFuse {
    fn name(&self) -> &str {
        "per-client-fuse"
    }
    fn classify(&mut self, entry: &EntryRef<'_>) -> TriageDecision {
        let at = self.thresholds[entry.addr().octets()[3] as usize];
        let seen = self.counts.entry(entry.client_key()).or_insert(0);
        *seen += 1;
        if at == 0 || *seen < at {
            TriageDecision::Benign
        } else if *seen == at {
            TriageDecision::Escalate
        } else {
            TriageDecision::Escalated
        }
    }
    fn reset(&mut self) {
        self.counts.clear();
    }
    fn set_eviction(&mut self, _cfg: EvictionConfig) {}
    fn eviction_stats(&self) -> EvictionStats {
        EvictionStats::default()
    }
    fn clone_boxed(&self) -> Box<dyn TriageFilter> {
        Box::new(PerClientFuse {
            thresholds: self.thresholds.clone(),
            counts: HashMap::new(),
        })
    }
}

const BROWSER_UA: &str = "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/64.0.3282.140 Safari/537.36";

// For every interleaving of clients and every escalation point, the
// detectors observe exactly the escalated clients' entries, each exactly
// once, in feed order — replay neither reorders, drops, nor duplicates
// history, and suppression is total for benign clients.
proptest! {
    #[test]
    fn replay_preserves_per_client_feed_order(
        steps in proptest::collection::vec((0u8..6, 1i64..45), 1..180),
        thresholds in proptest::collection::vec(0u64..14, 6..7),
    ) {
        let mut entries = Vec::with_capacity(steps.len());
        let mut clock = 0i64;
        for (seq, (client, gap)) in steps.iter().enumerate() {
            clock += gap;
            let (h, m, s) = (clock / 3_600, (clock / 60) % 60, clock % 60);
            let line = format!(
                "10.0.0.{client} - - [11/Mar/2018:{h:02}:{m:02}:{s:02} +0000] \
                 \"GET /item/{seq} HTTP/1.1\" 200 77 \"http://site/\" \"{BROWSER_UA}\""
            );
            entries.push(LogEntry::parse(&line).expect("generated line parses"));
        }

        let seen: Arc<Mutex<Vec<(u8, u64)>>> = Arc::default();
        let mut pipeline = PipelineBuilder::new()
            .detector(Recorder { seen: Arc::clone(&seen) })
            .adjudication(Adjudication::k_of_n(1))
            .workers(2)
            .chunk_capacity(16) // many small chunks: cross-chunk replays
            .triage(TriagePolicy::custom(PerClientFuse {
                thresholds: thresholds.clone(),
                counts: HashMap::new(),
            }))
            .build()
            .unwrap();
        pipeline.push_batch(&entries);
        let _ = pipeline.drain();

        // Expected: escalated clients' full history in feed order,
        // benign clients fully suppressed.
        let mut expected: HashMap<u8, Vec<u64>> = HashMap::new();
        let mut totals: HashMap<u8, u64> = HashMap::new();
        for (seq, (client, _)) in steps.iter().enumerate() {
            *totals.entry(*client).or_insert(0) += 1;
            expected.entry(*client).or_default().push(seq as u64);
        }
        expected.retain(|client, _| {
            let at = thresholds[*client as usize];
            at != 0 && totals[client] >= at
        });

        let mut observed: HashMap<u8, Vec<u64>> = HashMap::new();
        for (client, seq) in seen.lock().unwrap().iter() {
            observed.entry(*client).or_default().push(*seq);
        }
        prop_assert_eq!(observed, expected);
    }
}
