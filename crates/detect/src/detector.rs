//! The detector abstraction.
//!
//! Both tools in the paper — and every baseline here — consume the same
//! stream of access-log records and decide, per HTTP request, whether to
//! alert. Diversity lives in the detectors, not in how a record is held
//! in memory: every detector reads one representation, the borrowed
//! [`EntryRef`] view, whether it came from a parsed line, an owned
//! [`LogEntry`] or a pipeline's chunk arena. The per-request decision is
//! exactly what the paper counts in its tables, so the one *required*
//! decision method is minimal: [`observe`](Detector::observe) one entry,
//! return a [`Verdict`]. [`observe_batch_refs`](Detector::observe_batch_refs)
//! rides on top of it with a default that loops — correct and
//! allocation-free for any detector; the stock detectors override it to
//! amortize per-client work over runs of same-client entries (see
//! `examples/custom_detector.rs` for the pattern).

use divscrape_httplog::{EntryRef, LogEntry};

use crate::evict::{EvictionConfig, EvictionStats};

/// A per-request decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// Whether the tool alerts on this request.
    pub alert: bool,
    /// A monotone suspicion score (higher = more suspicious). The alert
    /// decision is `score >= threshold` for threshold-style detectors, which
    /// makes ROC sweeps possible; detectors without a natural score report
    /// `1.0`/`0.0`.
    pub score: f32,
}

impl Verdict {
    /// A non-alerting verdict with zero score.
    pub const CLEAR: Verdict = Verdict {
        alert: false,
        score: 0.0,
    };

    /// An alerting verdict with maximal confidence.
    pub const ALERT: Verdict = Verdict {
        alert: true,
        score: 1.0,
    };

    /// A verdict that alerts iff `alert`, with the given score.
    pub fn new(alert: bool, score: f32) -> Self {
        Self { alert, score }
    }

    /// The verdict's confidence metadata: the suspicion score clamped to
    /// the unit interval (NaN maps to `0`).
    ///
    /// Raw [`score`](Self::score)s are tool-local — a rate limiter
    /// reports load factors that sail past `1`, threshold detectors
    /// report margins — so consumers that mix tools (alert sinks
    /// rendering per-member scores, adjudication-weight recalibration)
    /// read this normalized form instead.
    ///
    /// ```
    /// use divscrape_detect::Verdict;
    ///
    /// assert_eq!(Verdict::new(true, 2.5).confidence(), 1.0);
    /// assert_eq!(Verdict::new(false, 0.3).confidence(), 0.3);
    /// assert_eq!(Verdict::new(false, -1.0).confidence(), 0.0);
    /// ```
    pub fn confidence(self) -> f32 {
        if self.score.is_nan() {
            0.0
        } else {
            self.score.clamp(0.0, 1.0)
        }
    }
}

/// A streaming per-request scraping detector.
///
/// Detectors are stateful: they accumulate per-client and per-session
/// evidence as entries arrive **in timestamp order**. Feeding entries out of
/// order is not an error but degrades the detector exactly as it would a
/// real tool.
///
/// # Implementing
///
/// ```
/// use divscrape_detect::{Detector, Verdict};
/// use divscrape_httplog::EntryRef;
///
/// /// Alerts on every request whose user agent is empty.
/// #[derive(Debug, Clone, Default)]
/// struct NoAgentDetector;
///
/// impl Detector for NoAgentDetector {
///     fn name(&self) -> &str {
///         "no-agent"
///     }
///     fn observe(&mut self, entry: &EntryRef<'_>) -> Verdict {
///         Verdict::new(entry.ua_str().is_empty(), 0.0)
///     }
///     fn reset(&mut self) {}
/// }
/// ```
pub trait Detector {
    /// A short stable name used in reports (`"sentinel"`, `"arcane"`, ...).
    fn name(&self) -> &str;

    /// Consumes one log entry and returns the tool's verdict for it.
    fn observe(&mut self, entry: &EntryRef<'_>) -> Verdict;

    /// Consumes a batch of log entries, appending one verdict per entry to
    /// `out` in order — what the pipeline's workers and [`run`] call.
    ///
    /// The default implementation loops over [`observe`](Self::observe);
    /// detectors with per-entry overheads worth amortizing (hashing, state
    /// table lookups) override it with a batched hot path. Overrides must
    /// stay **verdict-equivalent** to the default: feeding a log in any
    /// sequence of batches — including one entry at a time — must produce
    /// exactly the verdicts a sequential `observe` loop would. The
    /// equivalence tests in this crate hold every stock detector to that
    /// contract.
    fn observe_batch_refs(&mut self, entries: &[EntryRef<'_>], out: &mut Vec<Verdict>) {
        out.reserve(entries.len());
        for entry in entries {
            out.push(self.observe(entry));
        }
    }

    /// Clears all accumulated state, as if freshly constructed.
    fn reset(&mut self);

    /// Installs a per-client state eviction policy (see
    /// [`EvictionConfig`]). Stateful stock detectors bound their client
    /// tables with it; the default implementation ignores the policy,
    /// which is correct for stateless detectors. Call before streaming
    /// begins — the policy applies from the next observed entry.
    fn set_eviction(&mut self, cfg: EvictionConfig) {
        let _ = cfg;
    }

    /// A snapshot of this detector's client-state footprint: occupancy
    /// of its largest per-client table and total evictions so far.
    /// Stateless detectors report the default (all zeros).
    fn eviction_stats(&self) -> EvictionStats {
        EvictionStats::default()
    }
}

impl<D: Detector + ?Sized> Detector for Box<D> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn observe(&mut self, entry: &EntryRef<'_>) -> Verdict {
        (**self).observe(entry)
    }

    fn observe_batch_refs(&mut self, entries: &[EntryRef<'_>], out: &mut Vec<Verdict>) {
        (**self).observe_batch_refs(entries, out)
    }

    fn reset(&mut self) {
        (**self).reset()
    }

    fn set_eviction(&mut self, cfg: EvictionConfig) {
        (**self).set_eviction(cfg)
    }

    fn eviction_stats(&self) -> EvictionStats {
        (**self).eviction_stats()
    }
}

impl<D: Detector + ?Sized> Detector for &mut D {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn observe(&mut self, entry: &EntryRef<'_>) -> Verdict {
        (**self).observe(entry)
    }

    fn observe_batch_refs(&mut self, entries: &[EntryRef<'_>], out: &mut Vec<Verdict>) {
        (**self).observe_batch_refs(entries, out)
    }

    fn reset(&mut self) {
        (**self).reset()
    }

    fn set_eviction(&mut self, cfg: EvictionConfig) {
        (**self).set_eviction(cfg)
    }

    fn eviction_stats(&self) -> EvictionStats {
        (**self).eviction_stats()
    }
}

/// Length of the longest prefix of `entries` coming from a single client
/// (same address and user-agent string).
///
/// The stock detectors' batch overrides amortize per-client work — key
/// hashing, whitelist checks, signature and reputation lookups,
/// state-table probes — over such runs, which real access logs are full of
/// (bots burst, page views tow their asset fetches).
pub(crate) fn client_span(entries: &[EntryRef<'_>]) -> usize {
    let Some(first) = entries.first() else {
        return 0;
    };
    let addr = first.addr();
    let agent = first.ua_str();
    1 + entries[1..]
        .iter()
        .take_while(|e| e.addr() == addr && e.ua_str() == agent)
        .count()
}

/// Splits `entries` into maximal single-client runs (see [`client_span`]),
/// in order. The shared skeleton of every specialized batch override:
/// detectors iterate the runs and hoist their client-constant work out of
/// the per-entry loop.
pub(crate) fn client_runs<'a, 's>(
    entries: &'a [EntryRef<'s>],
) -> impl Iterator<Item = &'a [EntryRef<'s>]> {
    let mut rest = entries;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let (run, tail) = rest.split_at(client_span(rest));
        rest = tail;
        Some(run)
    })
}

/// Runs a detector over an entire log, returning one verdict per entry.
///
/// Views every entry once ([`LogEntry::view`]) and routes through
/// [`Detector::observe_batch_refs`], so detectors with a specialized
/// batch path get it automatically.
pub fn run<D: Detector + ?Sized>(detector: &mut D, entries: &[LogEntry]) -> Vec<Verdict> {
    let views: Vec<EntryRef<'_>> = entries.iter().map(LogEntry::view).collect();
    let mut out = Vec::with_capacity(views.len());
    detector.observe_batch_refs(&views, &mut out);
    out
}

/// Runs a detector and returns only the per-request alert flags.
pub fn run_alerts<D: Detector + ?Sized>(detector: &mut D, entries: &[LogEntry]) -> Vec<bool> {
    run(detector, entries)
        .into_iter()
        .map(|v| v.alert)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use divscrape_traffic::{generate, ScenarioConfig};

    #[derive(Debug, Clone, Default)]
    struct CountingDetector {
        seen: u64,
    }

    impl Detector for CountingDetector {
        fn name(&self) -> &str {
            "counting"
        }
        fn observe(&mut self, _entry: &EntryRef<'_>) -> Verdict {
            self.seen += 1;
            Verdict::new(self.seen.is_multiple_of(2), self.seen as f32)
        }
        fn reset(&mut self) {
            self.seen = 0;
        }
    }

    #[test]
    fn run_visits_every_entry_in_order() {
        let log = generate(&ScenarioConfig::tiny(1)).unwrap();
        let mut det = CountingDetector::default();
        let verdicts = run(&mut det, log.entries());
        assert_eq!(verdicts.len(), log.len());
        assert_eq!(det.seen, log.len() as u64);
        assert!(!verdicts[0].alert);
        assert!(verdicts[1].alert);
        assert_eq!(verdicts.last().unwrap().score, log.len() as f32);
    }

    #[test]
    fn reset_restores_initial_behaviour() {
        let log = generate(&ScenarioConfig::tiny(2)).unwrap();
        let mut det = CountingDetector::default();
        let first = run_alerts(&mut det, log.entries());
        det.reset();
        let second = run_alerts(&mut det, log.entries());
        assert_eq!(first, second);
    }

    #[test]
    fn boxed_detectors_delegate() {
        let log = generate(&ScenarioConfig::tiny(3)).unwrap();
        let mut boxed: Box<dyn Detector> = Box::new(CountingDetector::default());
        assert_eq!(boxed.name(), "counting");
        let verdicts = run(&mut boxed, log.entries());
        assert_eq!(verdicts.len(), log.len());
        boxed.reset();
    }

    #[test]
    fn mutable_references_are_detectors_too() {
        // Pipelines can borrow a member for a while without boxing it and
        // hand it back with its accumulated state intact.
        let log = generate(&ScenarioConfig::tiny(4)).unwrap();
        let mut det = CountingDetector::default();
        let (a, b) = log.entries().split_at(log.len() / 2);

        let mut borrowed: &mut CountingDetector = &mut det;
        // `run::<&mut CountingDetector>` — the detector is the reference.
        let first = run(&mut borrowed, a);
        assert_eq!(first.len(), a.len());

        // State accumulated through the borrow is visible on the owner.
        assert_eq!(det.seen, a.len() as u64);
        let second = run(&mut det, b);
        assert_eq!(second.last().unwrap().score, log.len() as f32);

        // And a &mut works through the batch path as well.
        let views: Vec<EntryRef<'_>> = log.entries().iter().map(LogEntry::view).collect();
        let mut fresh = CountingDetector::default();
        let mut out = Vec::new();
        Detector::observe_batch_refs(&mut (&mut fresh), &views, &mut out);
        assert_eq!(out.len(), log.len());
        assert_eq!(fresh.seen, log.len() as u64);
    }

    #[test]
    fn default_observe_batch_loops_in_order() {
        let log = generate(&ScenarioConfig::tiny(5)).unwrap();
        let views: Vec<EntryRef<'_>> = log.entries().iter().map(LogEntry::view).collect();
        let mut det = CountingDetector::default();
        let mut out = Vec::new();
        det.observe_batch_refs(&views[..10], &mut out);
        det.observe_batch_refs(&views[10..], &mut out);
        assert_eq!(out.len(), log.len());
        let mut again = CountingDetector::default();
        let reference: Vec<Verdict> = views.iter().map(|e| again.observe(e)).collect();
        assert_eq!(out, reference);
    }

    #[test]
    fn client_span_groups_same_client_prefixes() {
        let log = generate(&ScenarioConfig::tiny(6)).unwrap();
        let entries: Vec<EntryRef<'_>> = log.entries().iter().map(LogEntry::view).collect();
        let mut i = 0;
        let mut spans = 0usize;
        while i < entries.len() {
            let span = client_span(&entries[i..]);
            assert!(span >= 1);
            let key = entries[i].client_key();
            assert!(entries[i..i + span].iter().all(|e| e.client_key() == key));
            if i + span < entries.len() {
                assert_ne!(
                    entries[i + span].client_key(),
                    key,
                    "span ended early at {i}+{span}"
                );
            }
            i += span;
            spans += 1;
        }
        assert!(spans < entries.len(), "log should contain client bursts");
        assert_eq!(client_span(&[]), 0);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn verdict_constants_are_sane() {
        assert!(!Verdict::CLEAR.alert);
        assert!(Verdict::ALERT.alert);
        assert!(Verdict::ALERT.score > Verdict::CLEAR.score);
    }
}
