//! The honeytrap detector.
//!
//! Trap-based robot detection is one of the classic techniques in the
//! paper's related-work space: plant a link no human can see (CSS-hidden)
//! and no compliant crawler will follow (robots.txt-disallowed). Anything
//! that fetches it is a link-enumerating machine, and every subsequent
//! request from that client can be flagged with near-zero false positives.
//!
//! As a third detector it is maximally *diverse* from both Sentinel and
//! Arcane: zero behavioural modelling, zero identity intelligence — just a
//! tripwire. Its weakness is coverage (a bot that never enumerates hidden
//! links is invisible) and latency (nothing is flagged until the tripwire
//! fires), which the committee analyses in `exp_three_tools` quantify.

use divscrape_httplog::EntryRef;

use crate::evict::{ClientStateTable, EvictionConfig, EvictionStats};
use crate::{ClientKey, Detector, Verdict};

/// The honeytrap detector: flags any client that ever fetches a trap
/// path (CSS-hidden, robots.txt-disallowed), from the tripwire onwards.
///
/// ```
/// use divscrape_detect::{Detector, TrapDetector};
/// use divscrape_traffic::SiteModel;
///
/// let site = SiteModel::default();
/// let mut trap = TrapDetector::for_site(&site);
/// assert_eq!(trap.name(), "honeytrap");
/// ```
#[derive(Debug, Clone)]
pub struct TrapDetector {
    trap_paths: Vec<String>,
    trapped: ClientStateTable<()>,
}

impl TrapDetector {
    /// A detector watching the given trap paths (path component only,
    /// query ignored).
    pub fn new(trap_paths: Vec<String>) -> Self {
        Self {
            trap_paths,
            trapped: ClientStateTable::new(EvictionConfig::DISABLED),
        }
    }

    /// A detector watching the standard trap page of a site model.
    pub fn for_site(site: &divscrape_traffic::SiteModel) -> Self {
        Self::new(vec![site.trap_path()])
    }

    /// Number of clients caught so far.
    pub fn trapped_clients(&self) -> usize {
        self.trapped.len()
    }

    fn is_trap(&self, entry: &EntryRef<'_>) -> bool {
        let path = entry.path();
        self.trap_paths.iter().any(|t| t == path)
    }

    /// The per-entry step with the client key precomputed: trip the wire
    /// if this is a trap fetch, then report whether the client is caught.
    fn observe_keyed(&mut self, key: ClientKey, entry: &EntryRef<'_>) -> Verdict {
        let ts = entry.epoch_seconds();
        if self.is_trap(entry) {
            self.trapped.insert(key, ts, ());
        }
        if self.trapped.get_refresh(&key, ts).is_some() {
            Verdict::ALERT
        } else {
            Verdict::CLEAR
        }
    }
}

impl Default for TrapDetector {
    /// Watches the default site model's trap page.
    fn default() -> Self {
        Self::for_site(&divscrape_traffic::SiteModel::default())
    }
}

impl Detector for TrapDetector {
    fn name(&self) -> &str {
        "honeytrap"
    }

    fn observe(&mut self, entry: &EntryRef<'_>) -> Verdict {
        self.observe_keyed(entry.client_key(), entry)
    }

    fn observe_batch_refs(&mut self, entries: &[EntryRef<'_>], out: &mut Vec<Verdict>) {
        out.reserve(entries.len());
        let evicting = !self.trapped.config().is_disabled();
        for run in crate::detector::client_runs(entries) {
            let key = run[0].client_key();
            if evicting {
                // Per-entry probes under eviction: a mid-run idle gap can
                // release a trapped client exactly as the per-entry path
                // would (only key hashing is amortized over the run).
                out.extend(run.iter().map(|entry| self.observe_keyed(key, entry)));
                continue;
            }
            // One key hash and one set probe per client run; within the
            // run only the tripwire itself can change the client's fate.
            let ts0 = run[0].epoch_seconds();
            let mut caught = self.trapped.get_refresh(&key, ts0).is_some();
            for entry in run {
                if !caught && self.is_trap(entry) {
                    self.trapped.insert(key, entry.epoch_seconds(), ());
                    caught = true;
                }
                out.push(if caught {
                    Verdict::ALERT
                } else {
                    Verdict::CLEAR
                });
            }
        }
    }

    fn reset(&mut self) {
        self.trapped.clear();
    }

    fn set_eviction(&mut self, cfg: EvictionConfig) {
        self.trapped.set_config(cfg);
    }

    fn eviction_stats(&self) -> EvictionStats {
        self.trapped.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::run_alerts;
    use divscrape_traffic::{generate, ActorClass, ScenarioConfig};

    #[test]
    fn trap_flags_from_the_tripwire_onwards() {
        use divscrape_httplog::{ClfTimestamp, HttpStatus, LogEntry};
        use std::net::Ipv4Addr;
        let mk = |secs: i64, path: &str| {
            LogEntry::builder()
                .addr(Ipv4Addr::new(10, 0, 0, 9))
                .timestamp(ClfTimestamp::PAPER_WINDOW_START.plus_seconds(secs))
                .request(format!("GET {path} HTTP/1.1").parse().unwrap())
                .status(HttpStatus::OK)
                .user_agent("x")
                .build()
                .unwrap()
        };
        let mut trap = TrapDetector::new(vec!["/deals/unlisted-crossings".into()]);
        assert!(!trap.observe(&mk(0, "/offers/1").view()).alert);
        assert!(
            trap.observe(&mk(1, "/deals/unlisted-crossings").view())
                .alert
        );
        assert!(
            trap.observe(&mk(2, "/offers/2").view()).alert,
            "stays flagged"
        );
        assert_eq!(trap.trapped_clients(), 1);
    }

    #[test]
    fn never_flags_humans_or_benign_bots() {
        let log = generate(&ScenarioConfig::small(81)).unwrap();
        let mut trap = TrapDetector::default();
        let alerts = run_alerts(&mut trap, log.entries());
        for ((_, truth), alert) in log.iter().zip(&alerts) {
            if !truth.is_malicious() {
                assert!(!alert, "{} request trapped", truth.actor());
            }
        }
    }

    #[test]
    fn catches_a_meaningful_share_of_the_botnet() {
        let log = generate(&ScenarioConfig::small(82)).unwrap();
        let mut trap = TrapDetector::default();
        let alerts = run_alerts(&mut trap, log.entries());
        let mut bot_alerted = 0u64;
        let mut bot_total = 0u64;
        for ((_, truth), alert) in log.iter().zip(&alerts) {
            if truth.actor() == ActorClass::PriceScraperBot {
                bot_total += 1;
                bot_alerted += u64::from(*alert);
            }
        }
        let rate = bot_alerted as f64 / bot_total as f64;
        // Nodes trip the wire once per ~250 requests, then stay flagged:
        // coverage is high but well below the purpose-built tools.
        assert!(rate > 0.3, "trap coverage {rate}");
        assert!(rate < 0.999, "trap should not be a perfect oracle");
    }

    #[test]
    fn reset_releases_trapped_clients() {
        let log = generate(&ScenarioConfig::tiny(83)).unwrap();
        let mut trap = TrapDetector::default();
        let _ = run_alerts(&mut trap, log.entries());
        trap.reset();
        assert_eq!(trap.trapped_clients(), 0);
    }

    #[test]
    fn query_strings_do_not_evade_the_trap() {
        use divscrape_httplog::{ClfTimestamp, HttpStatus, LogEntry};
        use std::net::Ipv4Addr;
        let e = LogEntry::builder()
            .addr(Ipv4Addr::new(10, 0, 0, 1))
            .timestamp(ClfTimestamp::PAPER_WINDOW_START)
            .request(
                "GET /deals/unlisted-crossings?utm=x HTTP/1.1"
                    .parse()
                    .unwrap(),
            )
            .status(HttpStatus::OK)
            .user_agent("x")
            .build()
            .unwrap();
        let mut trap = TrapDetector::new(vec!["/deals/unlisted-crossings".into()]);
        assert!(trap.observe(&e.view()).alert);
    }
}
