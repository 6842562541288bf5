//! The naive rate-threshold baseline.

use std::collections::VecDeque;

use divscrape_httplog::EntryRef;

use crate::evict::{ClientStateTable, EvictionConfig, EvictionStats};
use crate::{ClientKey, Detector, Verdict};

/// Alerts whenever a client exceeds a fixed request rate.
///
/// This is the baseline every operations team deploys first — and the one
/// sophisticated scrapers calibrate against, which is why the stealth
/// population sails under it.
#[derive(Debug, Clone)]
pub struct RateLimiter {
    threshold_per_min: u32,
    windows: ClientStateTable<VecDeque<i64>>,
}

impl RateLimiter {
    /// A limiter alerting at `threshold_per_min` requests per minute from
    /// one client.
    ///
    /// # Panics
    ///
    /// Panics if `threshold_per_min == 0`.
    pub fn new(threshold_per_min: u32) -> Self {
        assert!(threshold_per_min > 0, "threshold must be positive");
        Self {
            threshold_per_min,
            windows: ClientStateTable::new(EvictionConfig::DISABLED),
        }
    }

    /// The configured threshold.
    pub fn threshold(&self) -> u32 {
        self.threshold_per_min
    }

    /// The per-entry step with the client key precomputed.
    fn observe_keyed(&mut self, key: ClientKey, ts: i64) -> Verdict {
        let (window, _) = self.windows.upsert_with(key, ts, VecDeque::new);
        slide_and_score(window, ts, self.threshold_per_min)
    }
}

impl Default for RateLimiter {
    /// 60 requests/minute — a common production default.
    fn default() -> Self {
        Self::new(60)
    }
}

impl Detector for RateLimiter {
    fn name(&self) -> &str {
        "rate-limiter"
    }

    fn observe(&mut self, entry: &EntryRef<'_>) -> Verdict {
        self.observe_keyed(entry.client_key(), entry.epoch_seconds())
    }

    fn observe_batch_refs(&mut self, entries: &[EntryRef<'_>], out: &mut Vec<Verdict>) {
        out.reserve(entries.len());
        let evicting = !self.windows.config().is_disabled();
        for run in crate::detector::client_runs(entries) {
            // One key hash per client run; with eviction off, one window
            // lookup per run is exact (the table is a plain map then).
            let key = run[0].client_key();
            if evicting {
                // Under eviction, touch the table per entry so mid-run
                // idle gaps expire state exactly as in the per-entry path.
                out.extend(
                    run.iter()
                        .map(|entry| self.observe_keyed(key, entry.epoch_seconds())),
                );
                continue;
            }
            let ts0 = run[0].epoch_seconds();
            let (window, _) = self.windows.upsert_with(key, ts0, VecDeque::new);
            for entry in run {
                let ts = entry.epoch_seconds();
                out.push(slide_and_score(window, ts, self.threshold_per_min));
            }
        }
    }

    fn reset(&mut self) {
        self.windows.clear();
    }

    fn set_eviction(&mut self, cfg: EvictionConfig) {
        self.windows.set_config(cfg);
    }

    fn eviction_stats(&self) -> EvictionStats {
        self.windows.stats()
    }
}

/// Slides `window` to `ts`, records the request and scores it against
/// `threshold` — the rate limiter's per-entry kernel, shared by both
/// observe paths.
fn slide_and_score(window: &mut VecDeque<i64>, ts: i64, threshold: u32) -> Verdict {
    while let Some(&front) = window.front() {
        if ts - front >= 60 {
            window.pop_front();
        } else {
            break;
        }
    }
    window.push_back(ts);
    let count = window.len() as u32;
    Verdict::new(count >= threshold, count as f32 / threshold as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use divscrape_httplog::{ClfTimestamp, HttpStatus, LogEntry};
    use std::net::Ipv4Addr;

    fn entry(secs: i64) -> LogEntry {
        LogEntry::builder()
            .addr(Ipv4Addr::new(10, 0, 0, 1))
            .timestamp(ClfTimestamp::PAPER_WINDOW_START.plus_seconds(secs))
            .request("GET /x HTTP/1.1".parse().unwrap())
            .status(HttpStatus::OK)
            .user_agent("u")
            .build()
            .unwrap()
    }

    #[test]
    fn trips_exactly_at_the_threshold() {
        let mut rl = RateLimiter::new(10);
        for i in 0..9 {
            assert!(!rl.observe(&entry(i).view()).alert, "request {i}");
        }
        assert!(rl.observe(&entry(9).view()).alert);
    }

    #[test]
    fn window_slides() {
        let mut rl = RateLimiter::new(10);
        for i in 0..9 {
            rl.observe(&entry(i).view());
        }
        // 61 seconds later the window has drained; no alert.
        assert!(!rl.observe(&entry(70).view()).alert);
    }

    #[test]
    fn score_is_proportional_to_rate() {
        let mut rl = RateLimiter::new(10);
        let v = rl.observe(&entry(0).view());
        assert!((v.score - 0.1).abs() < 1e-6);
        for i in 1..5 {
            rl.observe(&entry(i).view());
        }
        let v = rl.observe(&entry(5).view());
        assert!((v.score - 0.6).abs() < 1e-6);
    }

    #[test]
    #[should_panic]
    fn zero_threshold_is_rejected() {
        let _ = RateLimiter::new(0);
    }
}
