//! **Arcane** — the in-house-style behavioural detector.
//!
//! The reproduction's stand-in for Amadeus's in-house tool of the same name.
//! Where [`Sentinel`](crate::Sentinel) leans on *identity* (signatures,
//! reputation, challenges), Arcane leans on *behaviour*: it sessionizes the
//! log and scores each session against a set of weighted heuristics — tool
//! user agents, asset starvation, machine pacing, error and beacon
//! anomalies, probing, repetition. A request alerts when its session's
//! score reaches the threshold.
//!
//! The two designs fail differently, which is precisely the diversity the
//! paper measures: Arcane needs a dozen requests of behavioural evidence
//! before it can condemn a session (its misses are warm-up and low-and-slow
//! clients), while Sentinel's identity checks are instant but blind to
//! clean-looking automation.

mod config;

pub use config::ArcaneConfig;

use std::collections::BTreeMap;

use divscrape_httplog::{AgentFamily, EntryRef};

use crate::session::{SessionFeatures, Sessionizer, SessionizerConfig};
use crate::{Detector, Verdict};

/// Partner clients present this agent prefix (from the API contract).
const PARTNER_UA_PREFIX: &str = "FareConnect-Partner-Client";

/// The Arcane detector: the in-house-style behavioural tool —
/// sessionization plus weighted heuristics over each session's conduct.
///
/// ```
/// use divscrape_detect::{run_alerts, Arcane, Detector};
/// use divscrape_traffic::{generate, ScenarioConfig};
///
/// let log = generate(&ScenarioConfig::tiny(7))?;
/// let mut arcane = Arcane::stock();
/// let alerts = run_alerts(&mut arcane, log.entries());
/// assert_eq!(alerts.len(), log.len());
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone)]
pub struct Arcane {
    cfg: ArcaneConfig,
    sessions: Sessionizer,
    hit_counts: [u64; RULE_COUNT],
}

impl Arcane {
    /// Arcane with default rules and a 30-minute session timeout.
    ///
    /// Per-client state is the sessionizer's table; installing an
    /// eviction policy with a TTL of at least the 30-minute idle timeout
    /// (via [`Detector::set_eviction`]) bounds it without changing any
    /// verdict — an evicted client's session would have restarted on
    /// return anyway.
    pub fn stock() -> Self {
        Self::new(ArcaneConfig::default())
    }

    /// Arcane with explicit configuration.
    pub fn new(cfg: ArcaneConfig) -> Self {
        Self {
            cfg,
            sessions: Sessionizer::new(SessionizerConfig::default()),
            hit_counts: [0; RULE_COUNT],
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ArcaneConfig {
        &self.cfg
    }

    /// Requests on which each rule contributed score, since construction or
    /// [`reset`](Detector::reset). Rules that never fired are absent.
    ///
    /// Built on demand: the hot path tallies into a fixed per-rule
    /// counter array (indexed by rule-name position), not a map.
    pub fn rule_hits(&self) -> BTreeMap<&'static str, u64> {
        RULE_NAMES
            .iter()
            .zip(self.hit_counts)
            .filter(|&(_, count)| count > 0)
            .map(|(&name, count)| (name, count))
            .collect()
    }

    fn is_whitelisted(&self, entry: &EntryRef<'_>) -> bool {
        if !self.cfg.enable_whitelist {
            return false;
        }
        // The in-house tool trusts identity alone (it has no address
        // intelligence) — a deliberate design difference from Sentinel.
        matches!(
            entry.agent_family(),
            AgentFamily::KnownCrawler | AgentFamily::Monitor
        ) || entry.ua_str().starts_with(PARTNER_UA_PREFIX)
    }

    /// Scores the session this entry belongs to (after incorporating it).
    ///
    /// `family` is the entry's user-agent family — client-constant, so the
    /// batch path classifies it once per client run.
    fn score(cfg: &ArcaneConfig, f: &SessionFeatures, family: AgentFamily) -> (u32, RuleHits) {
        let mut score = 0u32;
        let mut hits = RuleHits::default();
        let mut apply = |w: u32, rule: usize, cond: bool| {
            if w > 0 && cond {
                score += w;
                hits.set(rule);
            }
        };

        apply(
            cfg.w_tool_agent,
            0, // tool_agent
            matches!(family, AgentFamily::HttpTool | AgentFamily::Empty),
        );
        apply(
            cfg.w_nonbrowsing_method,
            1, // nonbrowsing_method
            f.nonbrowsing_methods > 0,
        );
        apply(
            cfg.w_probe_path,
            2, // probe_path
            f.probes > 0,
        );
        apply(
            cfg.w_asset_starvation,
            3, // asset_starvation
            f.pages >= cfg.starvation_min_pages && f.assets == 0,
        );
        apply(
            cfg.w_beacon_anomaly,
            4, // beacon_anomaly
            f.requests >= cfg.beacon_min_requests
                && f.no_content >= cfg.beacon_min_count
                && f.no_content_ratio() >= cfg.beacon_min_ratio,
        );
        apply(
            cfg.w_burst,
            5, // burst
            f.current_burst() >= cfg.burst_threshold,
        );
        apply(
            cfg.w_sustained_rate,
            6, // sustained_rate
            f.requests >= cfg.sustained_min_requests && f.mean_gap_secs() < cfg.sustained_gap_secs,
        );
        apply(
            cfg.w_error_ratio,
            7, // error_ratio
            f.requests >= cfg.error_min_requests && f.error_ratio() >= cfg.error_ratio_threshold,
        );
        apply(
            cfg.w_bad_requests,
            8, // bad_requests
            f.bad_requests >= cfg.bad_request_min,
        );
        apply(
            cfg.w_repetition,
            9, // repetition
            f.offer_hits >= cfg.repetition_min_offers,
        );
        apply(
            cfg.w_robots_fetch,
            10, // robots_fetch
            f.robots_fetches > 0 && family != AgentFamily::KnownCrawler,
        );
        apply(
            cfg.w_no_referrer,
            11, // no_referrer
            f.requests >= cfg.referrer_min_requests && f.referrer_ratio() < cfg.referrer_max_ratio,
        );
        (score, hits)
    }
}

/// The rules one entry tripped, as a bitmask over rule ids (indices
/// into [`RULE_NAMES`]). `score` runs once per entry on the hot path,
/// so this must not heap-allocate.
#[derive(Debug, Clone, Copy, Default)]
struct RuleHits(u16);

/// How many weighted rules `score` can trip for a single entry.
const RULE_COUNT: usize = 12;

/// Display names for the rules, indexed by the rule ids `score` uses.
const RULE_NAMES: [&str; RULE_COUNT] = [
    "tool_agent",
    "nonbrowsing_method",
    "probe_path",
    "asset_starvation",
    "beacon_anomaly",
    "burst",
    "sustained_rate",
    "error_ratio",
    "bad_requests",
    "repetition",
    "robots_fetch",
    "no_referrer",
];

impl RuleHits {
    fn set(&mut self, rule: usize) {
        self.0 |= 1 << rule;
    }

    fn iter(self) -> impl Iterator<Item = usize> {
        (0..RULE_COUNT).filter(move |rule| self.0 & (1 << rule) != 0)
    }
}

impl Detector for Arcane {
    fn name(&self) -> &str {
        "arcane"
    }

    fn observe(&mut self, entry: &EntryRef<'_>) -> Verdict {
        if self.is_whitelisted(entry) {
            return Verdict::CLEAR;
        }
        let family = entry.agent_family();
        let features = self.sessions.observe(entry);
        let (score, hits) = Self::score(&self.cfg, features, family);
        let alert = score >= self.cfg.alert_threshold;
        if alert {
            for rule in hits.iter() {
                self.hit_counts[rule] += 1;
            }
        }
        Verdict::new(alert, score as f32)
    }

    /// Whitelisting, the key hash and the agent-family classification are
    /// identity-derived: once per client run.
    fn observe_batch_refs(&mut self, entries: &[EntryRef<'_>], out: &mut Vec<Verdict>) {
        out.reserve(entries.len());
        for run in crate::detector::client_runs(entries) {
            let first = &run[0];

            if self.is_whitelisted(first) {
                out.extend(std::iter::repeat_n(Verdict::CLEAR, run.len()));
                continue;
            }
            let key = first.client_key();
            let family = first.agent_family();

            for entry in run {
                let features = self.sessions.observe_with_key(key, entry);
                let (score, hits) = Self::score(&self.cfg, features, family);
                let alert = score >= self.cfg.alert_threshold;
                if alert {
                    for rule in hits.iter() {
                        self.hit_counts[rule] += 1;
                    }
                }
                out.push(Verdict::new(alert, score as f32));
            }
        }
    }

    fn reset(&mut self) {
        self.sessions.reset();
        self.hit_counts = [0; RULE_COUNT];
    }

    fn set_eviction(&mut self, cfg: crate::EvictionConfig) {
        self.sessions.set_eviction(cfg);
    }

    fn eviction_stats(&self) -> crate::EvictionStats {
        self.sessions.eviction_stats()
    }
}

impl Default for Arcane {
    fn default() -> Self {
        Self::stock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::run_alerts;
    use divscrape_httplog::{ClfTimestamp, HttpStatus, LogEntry};
    use std::net::Ipv4Addr;

    const BROWSER: &str =
        "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/64.0.3282.186 Safari/537.36";

    fn entry(secs: i64, path: &str, status: u16, ua: &str) -> LogEntry {
        LogEntry::builder()
            .addr(Ipv4Addr::new(81, 2, 10, 20))
            .timestamp(ClfTimestamp::PAPER_WINDOW_START.plus_seconds(secs))
            .request(format!("GET {path} HTTP/1.1").parse().unwrap())
            .status(HttpStatus::new(status).unwrap())
            .bytes(Some(1000))
            .user_agent(ua)
            .build()
            .unwrap()
    }

    #[test]
    fn tool_agents_alert_from_the_first_request() {
        let mut a = Arcane::stock();
        let v = a.observe(&entry(0, "/search?q=x", 200, "python-requests/2.18.4").view());
        assert!(v.alert);
        assert!(a.rule_hits().contains_key("tool_agent"));
    }

    #[test]
    fn asset_starvation_trips_after_a_dozen_bare_pages() {
        let mut a = Arcane::stock();
        let mut tripped_at = None;
        for i in 0..20 {
            // Slow enough that rate rules stay silent.
            let v = a.observe(&entry(i * 30, &format!("/offers/{i}"), 200, BROWSER).view());
            if v.alert && tripped_at.is_none() {
                tripped_at = Some(i + 1);
            }
        }
        assert_eq!(tripped_at, Some(12));
        assert!(a.rule_hits().contains_key("asset_starvation"));
    }

    #[test]
    fn asset_fetching_clients_do_not_starve() {
        let mut a = Arcane::stock();
        for i in 0..30 {
            let v = a.observe(&entry(i * 60, &format!("/offers/{i}"), 200, BROWSER).view());
            assert!(!v.alert, "page {i}");
            let v = a.observe(&entry(i * 60 + 2, "/static/css/main.css", 200, BROWSER).view());
            assert!(!v.alert);
        }
    }

    #[test]
    fn beacon_anomaly_catches_scanner_like_polling() {
        let mut a = Arcane::stock();
        let mut alerted = false;
        for i in 0..40 {
            // Every 8th request is a 204 beacon; the rest are pages with an
            // asset each (so starvation can't be the trigger).
            let (path, status) = if i % 8 == 0 {
                ("/api/v1/changes?route=NCE-LHR".to_owned(), 204)
            } else if i % 2 == 0 {
                (format!("/offers/{i}"), 200)
            } else {
                ("/static/css/main.css".to_owned(), 200)
            };
            alerted |= a
                .observe(&entry(i * 20, &path, status, BROWSER).view())
                .alert;
        }
        assert!(alerted, "beacon anomaly should trip");
        assert!(a.rule_hits().contains_key("beacon_anomaly"));
    }

    #[test]
    fn burst_plus_sustained_rate_catch_fast_sessions() {
        let mut a = Arcane::stock();
        let mut alerted_at = None;
        for i in 0..80 {
            // One request per second, pages with assets mixed in so only
            // the pacing rules can fire.
            let path = if i % 2 == 0 {
                format!("/offers/{i}")
            } else {
                "/static/img/hero.jpg".to_owned()
            };
            let v = a.observe(&entry(i, &path, 200, BROWSER).view());
            if v.alert && alerted_at.is_none() {
                alerted_at = Some(i);
            }
        }
        // Burst (+2) alone is below threshold; the referrer-absence rule
        // (+1) corroborates once 15 requests have accumulated, so the trip
        // lands when the 60 s window first holds 25 requests.
        let at = alerted_at.expect("pacing rules should trip");
        assert!((20..=40).contains(&at), "tripped at {at}");
    }

    #[test]
    fn probe_paths_alert_immediately() {
        let mut a = Arcane::stock();
        let v = a.observe(&entry(0, "/wp-admin/setup.php", 404, BROWSER).view());
        assert!(v.alert);
        assert!(a.rule_hits().contains_key("probe_path"));
    }

    #[test]
    fn whitelisted_operators_never_alert() {
        use divscrape_traffic::useragents::{GOOGLEBOT, PARTNER_AGGREGATOR, PINGDOM};
        let mut a = Arcane::stock();
        for (i, ua) in [GOOGLEBOT, PINGDOM, PARTNER_AGGREGATOR].iter().enumerate() {
            for j in 0..30 {
                let v = a.observe(
                    &entry((i as i64) * 10_000 + j, &format!("/offers/{j}"), 200, ua).view(),
                );
                assert!(!v.alert, "{ua} alerted");
            }
        }
    }

    #[test]
    fn slow_human_like_sessions_stay_clean() {
        let mut a = Arcane::stock();
        for i in 0..15 {
            let base = i * 45;
            let v = a.observe(&entry(base, &format!("/offers/{i}"), 200, BROWSER).view());
            assert!(!v.alert, "page {i} alerted");
            for j in 0..3 {
                let asset = [
                    "/static/css/main.css",
                    "/static/js/app.js",
                    "/static/img/x.jpg",
                ][j];
                let v = a.observe(&entry(base + 1 + j as i64, asset, 200, BROWSER).view());
                assert!(!v.alert);
            }
        }
    }

    #[test]
    fn session_timeout_resets_the_score() {
        let mut a = Arcane::stock();
        for i in 0..12 {
            a.observe(&entry(i * 30, &format!("/offers/{i}"), 200, BROWSER).view());
        }
        // Next request far beyond the 30-minute timeout: fresh session.
        let v = a.observe(&entry(12 * 30 + 7_200, "/offers/99", 200, BROWSER).view());
        assert!(!v.alert, "new session inherited stale score");
    }

    #[test]
    fn ablation_removes_a_rules_contribution() {
        let cfg = ArcaneConfig::default().without("asset_starvation");
        let mut a = Arcane::new(cfg);
        for i in 0..25 {
            let v = a.observe(&entry(i * 30, &format!("/offers/{i}"), 200, BROWSER).view());
            assert!(!v.alert, "alerted at {i} without the starvation rule");
        }
    }

    #[test]
    fn alerts_heavily_on_synthetic_bot_traffic() {
        use divscrape_traffic::{generate, ScenarioConfig};
        let log = generate(&ScenarioConfig::small(5)).unwrap();
        let mut a = Arcane::stock();
        let alerts = run_alerts(&mut a, log.entries());
        let rate = alerts.iter().filter(|x| **x).count() as f64 / alerts.len() as f64;
        assert!((0.65..0.95).contains(&rate), "alert rate {rate}");
    }
}
