//! Streaming sessionization and per-session features.
//!
//! Both the in-house-style detector and the data-mining baselines from the
//! related work ([1] Stevanovic et al., [2] Stassopoulou & Dikaiakos) work
//! on *sessions*: all requests from one client (address + user-agent) with
//! no idle gap longer than a timeout. The feature set here follows the
//! web-robot-detection literature: request mix by resource class, error and
//! beacon ratios, pacing statistics, breadth and repetition measures.

use std::collections::VecDeque;
use std::net::Ipv4Addr;

use divscrape_httplog::{fnv1a, ip::addr_hash, EntryRef, HttpMethod, ResourceClass};

use crate::evict::{ClientStateTable, EvictionConfig, EvictionStats};

/// Sessionizer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionizerConfig {
    /// Idle gap that ends a session, seconds. The conventional value in the
    /// crawler-detection literature is 30 minutes.
    pub idle_timeout_secs: i64,
}

impl Default for SessionizerConfig {
    fn default() -> Self {
        Self {
            idle_timeout_secs: 1_800,
        }
    }
}

/// Number of entries the burst window retains (60 seconds of timestamps).
const BURST_WINDOW_SECS: i64 = 60;

/// Incrementally maintained features of one client session.
#[derive(Debug, Clone, Default)]
pub struct SessionFeatures {
    /// Total requests.
    pub requests: u32,
    /// Page-class requests.
    pub pages: u32,
    /// Asset-class requests.
    pub assets: u32,
    /// Script assets (`.js`) — the proxy for JavaScript execution.
    pub js_assets: u32,
    /// API-class requests.
    pub apis: u32,
    /// Probe-class requests (vulnerability paths).
    pub probes: u32,
    /// `4xx`/`5xx` responses.
    pub errors: u32,
    /// `400` responses specifically (malformed requests).
    pub bad_requests: u32,
    /// `204` responses (beacon polling).
    pub no_content: u32,
    /// `304` responses (conditional revalidation).
    pub not_modified: u32,
    /// `robots.txt` fetches.
    pub robots_fetches: u32,
    /// `HEAD` requests.
    pub heads: u32,
    /// `POST` requests.
    pub posts: u32,
    /// Requests with a method outside GET/HEAD/POST.
    pub nonbrowsing_methods: u32,
    /// Requests carrying a referrer.
    pub with_referrer: u32,
    /// Requests to offer pages (`/offers/..`) — the scraped commodity.
    pub offer_hits: u32,
    /// Requests to search pages.
    pub search_hits: u32,
    /// Distinct request paths (by 64-bit hash).
    distinct: std::collections::HashSet<u64>,
    /// Epoch second of the first/last request in the session.
    pub first_ts: i64,
    /// Epoch second of the most recent request.
    pub last_ts: i64,
    /// Timestamps (epoch seconds) of requests in the trailing 60 s window.
    burst_window: VecDeque<i64>,
    /// Largest number of requests ever seen in one 60 s window.
    pub max_burst: u32,
}

impl SessionFeatures {
    fn start(entry: &EntryRef<'_>) -> Self {
        let mut f = SessionFeatures {
            first_ts: entry.epoch_seconds(),
            last_ts: entry.epoch_seconds(),
            ..SessionFeatures::default()
        };
        f.update(entry);
        f
    }

    fn update(&mut self, entry: &EntryRef<'_>) {
        let ts = entry.epoch_seconds();
        self.requests += 1;
        self.last_ts = ts;

        let path = entry.path();
        match entry.resource_class() {
            ResourceClass::Page => self.pages += 1,
            ResourceClass::Asset => {
                self.assets += 1;
                if path.ends_with(".js") {
                    self.js_assets += 1;
                }
            }
            ResourceClass::Api => self.apis += 1,
            ResourceClass::Probe => self.probes += 1,
            ResourceClass::RobotsTxt => self.robots_fetches += 1,
            _ => {}
        }
        if path.starts_with("/offers/") {
            self.offer_hits += 1;
        }
        if path.starts_with("/search") {
            self.search_hits += 1;
        }

        let status = entry.status();
        if status.is_error() {
            self.errors += 1;
        }
        match status.as_u16() {
            400 => self.bad_requests += 1,
            204 => self.no_content += 1,
            304 => self.not_modified += 1,
            _ => {}
        }

        match entry.method() {
            HttpMethod::Head => self.heads += 1,
            HttpMethod::Post => self.posts += 1,
            HttpMethod::Get => {}
            _ => self.nonbrowsing_methods += 1,
        }
        if entry.has_referrer() {
            self.with_referrer += 1;
        }

        self.distinct.insert(fnv1a(entry.target().as_bytes()));

        while let Some(&front) = self.burst_window.front() {
            if ts - front >= BURST_WINDOW_SECS {
                self.burst_window.pop_front();
            } else {
                break;
            }
        }
        self.burst_window.push_back(ts);
        self.max_burst = self.max_burst.max(self.burst_window.len() as u32);
    }

    /// Session duration in seconds (0 for a single request).
    pub fn duration_secs(&self) -> i64 {
        self.last_ts - self.first_ts
    }

    /// Mean seconds between consecutive requests.
    pub fn mean_gap_secs(&self) -> f64 {
        if self.requests <= 1 {
            f64::INFINITY
        } else {
            self.duration_secs() as f64 / f64::from(self.requests - 1)
        }
    }

    /// Share of requests that returned `4xx`/`5xx`.
    pub fn error_ratio(&self) -> f64 {
        f64::from(self.errors) / f64::from(self.requests.max(1))
    }

    /// Share of requests that returned `204`.
    pub fn no_content_ratio(&self) -> f64 {
        f64::from(self.no_content) / f64::from(self.requests.max(1))
    }

    /// Assets fetched per page viewed (∞ pages with no assets → 0).
    pub fn assets_per_page(&self) -> f64 {
        if self.pages == 0 {
            0.0
        } else {
            f64::from(self.assets) / f64::from(self.pages)
        }
    }

    /// Share of requests carrying a referrer.
    pub fn referrer_ratio(&self) -> f64 {
        f64::from(self.with_referrer) / f64::from(self.requests.max(1))
    }

    /// Number of distinct paths requested.
    pub fn distinct_paths(&self) -> u32 {
        self.distinct.len() as u32
    }

    /// Distinct paths / total requests.
    pub fn distinct_ratio(&self) -> f64 {
        f64::from(self.distinct_paths()) / f64::from(self.requests.max(1))
    }

    /// Requests in the trailing 60-second window ending at the last request.
    pub fn current_burst(&self) -> u32 {
        self.burst_window.len() as u32
    }

    /// Names of the numeric features exported by
    /// [`feature_vector`](Self::feature_vector), in order.
    pub const FEATURE_NAMES: [&'static str; 14] = [
        "log_requests",
        "mean_gap_secs",
        "error_ratio",
        "no_content_ratio",
        "assets_per_page",
        "js_asset_share",
        "referrer_ratio",
        "distinct_ratio",
        "max_burst",
        "head_share",
        "post_share",
        "probe_share",
        "offer_share",
        "robots_fetched",
    ];

    /// A fixed-width numeric snapshot for the ML baselines, following the
    /// feature families evaluated by Stevanovic et al. All components are
    /// finite and roughly unit-scaled.
    pub fn feature_vector(&self) -> [f64; 14] {
        let n = f64::from(self.requests.max(1));
        [
            f64::from(self.requests).ln_1p() / 8.0,
            self.mean_gap_secs().min(600.0) / 600.0,
            self.error_ratio(),
            self.no_content_ratio(),
            (self.assets_per_page() / 8.0).min(1.0),
            f64::from(self.js_assets) / n,
            self.referrer_ratio(),
            self.distinct_ratio(),
            f64::from(self.max_burst).min(120.0) / 120.0,
            f64::from(self.heads) / n,
            f64::from(self.posts) / n,
            f64::from(self.probes) / n,
            f64::from(self.offer_hits) / n,
            f64::from(self.robots_fetches.min(1)),
        ]
    }
}

/// Key identifying a client: address + user-agent fingerprint.
pub type ClientKey = (Ipv4Addr, u64);

/// Streaming sessionizer: groups entries into per-client sessions and keeps
/// the current session's features for each client.
///
/// ```
/// use divscrape_detect::{Sessionizer, SessionizerConfig};
/// use divscrape_traffic::{generate, ScenarioConfig};
///
/// let log = generate(&ScenarioConfig::tiny(1))?;
/// let mut sess = Sessionizer::new(SessionizerConfig::default());
/// for entry in log.entries() {
///     let features = sess.observe(&entry.view());
///     assert!(features.requests >= 1);
/// }
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone)]
pub struct Sessionizer {
    cfg: SessionizerConfig,
    sessions: ClientStateTable<SessionFeatures>,
    completed: u64,
}

impl Sessionizer {
    /// Creates a sessionizer.
    pub fn new(cfg: SessionizerConfig) -> Self {
        Self {
            cfg,
            sessions: ClientStateTable::new(EvictionConfig::DISABLED),
            completed: 0,
        }
    }

    /// Bounds the session table with the given eviction policy (see
    /// [`ClientStateTable`]). With a TTL at least as long as the idle
    /// timeout, eviction never changes the features any session reports:
    /// an evicted client would have restarted its session on return
    /// anyway. A capacity bound can evict a *live* session, whose client
    /// then restarts fresh on its next request.
    pub fn set_eviction(&mut self, cfg: EvictionConfig) {
        self.sessions.set_config(cfg);
    }

    /// Occupancy and eviction counters of the session table.
    pub fn eviction_stats(&self) -> EvictionStats {
        self.sessions.stats()
    }

    /// Feeds one entry; returns the features of the session it belongs to
    /// (after incorporating the entry).
    pub fn observe(&mut self, entry: &EntryRef<'_>) -> &SessionFeatures {
        let key = entry.client_key();
        self.observe_with_key(key, entry)
    }

    /// Like [`observe`](Self::observe) with the client key supplied by the
    /// caller, so batch paths that process a run of same-client entries can
    /// compute the key (an FNV hash of the full user-agent string) once per
    /// run instead of once per entry.
    ///
    /// `key` must equal `entry.client_key()`; feeding a mismatched key
    /// files the entry under the wrong client.
    pub fn observe_with_key(&mut self, key: ClientKey, entry: &EntryRef<'_>) -> &SessionFeatures {
        let ts = entry.epoch_seconds();
        let timeout = self.cfg.idle_timeout_secs;
        let completed = &mut self.completed;
        let (features, existed) = self
            .sessions
            .upsert_with(key, ts, || SessionFeatures::start(entry));
        if existed {
            if ts - features.last_ts > timeout {
                *completed += 1;
                *features = SessionFeatures::start(entry);
            } else {
                features.update(entry);
            }
        }
        features
    }

    /// Features of a client's current session, if any (a non-touching
    /// read: does not refresh eviction recency).
    pub fn current(&self, key: &ClientKey) -> Option<&SessionFeatures> {
        self.sessions.get(key)
    }

    /// Number of clients with live session state. Bounded by the
    /// capacity of the policy installed via
    /// [`set_eviction`](Self::set_eviction), if any.
    pub fn active_clients(&self) -> usize {
        self.sessions.len()
    }

    /// Number of sessions ended so far: closed by the idle timeout on the
    /// client's return, or reaped by TTL eviction (both mean the client
    /// went idle past a deadline). Live sessions are not counted, nor are
    /// sessions truncated by a *capacity* eviction — those were cut short
    /// for memory, not ended by idleness.
    ///
    /// Without eviction this counter is lazy: a session that times out is
    /// only counted when its client returns. TTL eviction counts the reap
    /// instead, so with a TTL equal to the idle timeout the total can
    /// exceed the eviction-off count by the clients that went idle and
    /// never came back.
    pub fn completed_sessions(&self) -> u64 {
        self.completed + self.sessions.evicted_ttl()
    }

    /// Drops all state (the eviction policy is kept).
    pub fn reset(&mut self) {
        self.sessions.clear();
        self.completed = 0;
    }

    /// Deterministic shard assignment for a client under `shards` workers.
    pub fn shard_of(key: &ClientKey, shards: usize) -> usize {
        (addr_hash(key.0, key.1) % shards as u64) as usize
    }
}

impl Default for Sessionizer {
    fn default() -> Self {
        Self::new(SessionizerConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use divscrape_httplog::{ClfTimestamp, HttpStatus, LogEntry};
    use std::net::Ipv4Addr;

    fn entry(addr: [u8; 4], secs: i64, path: &str, status: u16, ua: &str) -> LogEntry {
        LogEntry::builder()
            .addr(Ipv4Addr::new(addr[0], addr[1], addr[2], addr[3]))
            .timestamp(ClfTimestamp::PAPER_WINDOW_START.plus_seconds(secs))
            .request(format!("GET {path} HTTP/1.1").parse().unwrap())
            .status(HttpStatus::new(status).unwrap())
            .bytes(Some(100))
            .user_agent(ua)
            .build()
            .unwrap()
    }

    #[test]
    fn counts_accumulate_within_a_session() {
        let mut s = Sessionizer::default();
        s.observe(&entry([10, 0, 0, 1], 0, "/search?q=a", 200, "x").view());
        s.observe(&entry([10, 0, 0, 1], 5, "/static/css/main.css", 200, "x").view());
        s.observe(&entry([10, 0, 0, 1], 9, "/static/js/app.js", 200, "x").view());
        let f = s.observe(&entry([10, 0, 0, 1], 15, "/offers/3", 404, "x").view());
        assert_eq!(f.requests, 4);
        assert_eq!(f.pages, 2);
        assert_eq!(f.assets, 2);
        assert_eq!(f.js_assets, 1);
        assert_eq!(f.errors, 1);
        assert_eq!(f.offer_hits, 1);
        assert_eq!(f.search_hits, 1);
        assert_eq!(f.distinct_paths(), 4);
        assert_eq!(f.duration_secs(), 15);
        assert!((f.mean_gap_secs() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn idle_timeout_starts_a_new_session() {
        let mut s = Sessionizer::new(SessionizerConfig {
            idle_timeout_secs: 100,
        });
        s.observe(&entry([10, 0, 0, 1], 0, "/a", 200, "x").view());
        s.observe(&entry([10, 0, 0, 1], 99, "/b", 200, "x").view());
        let f = s.observe(&entry([10, 0, 0, 1], 300, "/c", 200, "x").view());
        assert_eq!(f.requests, 1, "session should have reset");
        assert_eq!(s.completed_sessions(), 1);
    }

    #[test]
    fn clients_are_separated_by_address_and_agent() {
        let mut s = Sessionizer::default();
        s.observe(&entry([10, 0, 0, 1], 0, "/a", 200, "agent-one").view());
        s.observe(&entry([10, 0, 0, 1], 1, "/b", 200, "agent-two").view());
        let f1 = s
            .current(&(Ipv4Addr::new(10, 0, 0, 1), {
                divscrape_httplog::UserAgent::new("agent-one").fingerprint()
            }))
            .unwrap();
        assert_eq!(f1.requests, 1);
        assert_eq!(s.active_clients(), 2);
    }

    #[test]
    fn burst_window_tracks_trailing_sixty_seconds() {
        let mut s = Sessionizer::default();
        for i in 0..30 {
            s.observe(&entry([10, 0, 0, 1], i, "/a", 200, "x").view());
        }
        let key = (
            Ipv4Addr::new(10, 0, 0, 1),
            divscrape_httplog::UserAgent::new("x").fingerprint(),
        );
        assert_eq!(s.current(&key).unwrap().current_burst(), 30);
        // A request 10 minutes later (same session only if timeout allows —
        // use a long timeout) sees the window drained.
        let mut s = Sessionizer::new(SessionizerConfig {
            idle_timeout_secs: 10_000,
        });
        for i in 0..30 {
            s.observe(&entry([10, 0, 0, 1], i, "/a", 200, "x").view());
        }
        let f = s.observe(&entry([10, 0, 0, 1], 700, "/a", 200, "x").view());
        assert_eq!(f.current_burst(), 1);
        assert_eq!(f.max_burst, 30);
    }

    #[test]
    fn ratios_behave_at_the_edges() {
        let f = SessionFeatures::start(&entry([1, 1, 1, 1], 0, "/a", 400, "x").view());
        assert_eq!(f.error_ratio(), 1.0);
        assert_eq!(f.mean_gap_secs(), f64::INFINITY);
        assert_eq!(f.assets_per_page(), 0.0);
        assert_eq!(f.distinct_ratio(), 1.0);
    }

    #[test]
    fn feature_vector_is_finite_and_bounded() {
        let mut s = Sessionizer::default();
        let mut f = None;
        for i in 0..200 {
            let path = format!("/offers/{}", i % 37);
            let status = if i % 13 == 0 { 400 } else { 200 };
            f = Some(
                s.observe(&entry([10, 0, 0, 2], i * 2, &path, status, "x").view())
                    .clone(),
            );
        }
        let v = f.unwrap().feature_vector();
        assert_eq!(v.len(), SessionFeatures::FEATURE_NAMES.len());
        for (name, x) in SessionFeatures::FEATURE_NAMES.iter().zip(v) {
            assert!(x.is_finite(), "{name} not finite");
            assert!((-0.001..=1.5).contains(&x), "{name} = {x} out of range");
        }
    }

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        let key = (Ipv4Addr::new(10, 9, 8, 7), 12345u64);
        let s1 = Sessionizer::shard_of(&key, 8);
        let s2 = Sessionizer::shard_of(&key, 8);
        assert_eq!(s1, s2);
        assert!(s1 < 8);
    }

    #[test]
    fn reset_clears_everything() {
        let mut s = Sessionizer::default();
        s.observe(&entry([10, 0, 0, 1], 0, "/a", 200, "x").view());
        s.reset();
        assert_eq!(s.active_clients(), 0);
        assert_eq!(s.completed_sessions(), 0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arbitrary_entry() -> impl Strategy<Value = (u8, i64, u16, u8)> {
            // (client discriminator, gap seconds, status, path kind)
            (
                0u8..4,
                0i64..4_000,
                proptest::sample::select(vec![200u16, 204, 302, 304, 400, 404, 500]),
                0u8..6,
            )
        }

        proptest! {
            #[test]
            fn counters_partition_and_ratios_stay_in_unit_range(
                steps in proptest::collection::vec(arbitrary_entry(), 1..120)
            ) {
                let mut s = Sessionizer::default();
                let mut clock = 0i64;
                for (client, gap, status, kind) in steps {
                    clock += gap;
                    let path = match kind {
                        0 => "/offers/7".to_owned(),
                        1 => "/static/js/app.js".to_owned(),
                        2 => "/static/css/main.css".to_owned(),
                        3 => "/api/v1/fares?route=X".to_owned(),
                        4 => "/robots.txt".to_owned(),
                        _ => "/search?q=Y".to_owned(),
                    };
                    let f = s.observe(&entry([10, 0, 0, client], clock, &path, status, "ua").view());
                    // Class counters never exceed the total.
                    prop_assert!(f.pages + f.assets + f.apis + f.probes + f.robots_fetches <= f.requests);
                    prop_assert!(f.js_assets <= f.assets);
                    prop_assert!(f.bad_requests <= f.errors);
                    prop_assert!(f.distinct_paths() <= f.requests);
                    prop_assert!(f.current_burst() <= f.requests);
                    prop_assert!(f.max_burst >= f.current_burst());
                    for ratio in [f.error_ratio(), f.no_content_ratio(), f.referrer_ratio(), f.distinct_ratio()] {
                        prop_assert!((0.0..=1.0).contains(&ratio), "ratio {ratio}");
                    }
                    prop_assert!(f.duration_secs() >= 0);
                    // The feature vector stays finite whatever arrives.
                    prop_assert!(f.feature_vector().iter().all(|v| v.is_finite()));
                }
            }

            #[test]
            fn completed_plus_active_is_total_session_count(
                gaps in proptest::collection::vec(0i64..5_000, 1..100)
            ) {
                let timeout = 1_800i64;
                let mut s = Sessionizer::default();
                let mut clock = 0i64;
                let mut expected_sessions = 1u64;
                let mut last = None::<i64>;
                for gap in gaps {
                    clock += gap;
                    if let Some(prev) = last {
                        if clock - prev > timeout {
                            expected_sessions += 1;
                        }
                    }
                    last = Some(clock);
                    s.observe(&entry([10, 0, 0, 1], clock, "/a", 200, "ua").view());
                }
                prop_assert_eq!(s.completed_sessions() + 1, expected_sessions);
                prop_assert_eq!(s.active_clients(), 1);
            }
        }
    }
}
