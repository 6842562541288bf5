//! **Sentinel** — the commercial-style, multi-signal detector.
//!
//! This is the reproduction's stand-in for the Distil Networks product used
//! in the paper. Public descriptions of that product class list the signal
//! families implemented here:
//!
//! 1. **Signature** ([`SignatureEngine`]) — user-agent blocklist and browser
//!    fingerprint database.
//! 2. **Reputation** ([`ReputationFeed`]) — curated bad-address ranges.
//! 3. **Rate** — a per-client page/API request-rate monitor.
//! 4. **Challenge** — JavaScript-challenge emulation: a client that renders
//!    page after page without ever fetching a script asset can never have
//!    passed the injected challenge.
//! 5. **Known-violator cache** — once flagged, a client stays flagged; all
//!    its subsequent requests alert. This is why the paper sees the
//!    commercial tool alerting on 86.8% of *all* requests. (Bounded
//!    deployments can forget idle or least-recently-seen violators via
//!    [`Detector::set_eviction`](crate::Detector::set_eviction), trading
//!    this long-horizon memory for bounded tables.)
//! 6. **Verified-operator whitelist** — search crawlers, uptime monitors and
//!    contracted partners verified by identity *and* source range.

mod config;
mod reputation;
mod signature;

pub use config::SentinelConfig;
pub use reputation::ReputationFeed;
pub use signature::SignatureEngine;

use std::collections::{BTreeMap, VecDeque};

use divscrape_httplog::{AgentFamily, EntryRef, ResourceClass};
use divscrape_traffic::network::{self, IpPool};

use crate::evict::{ClientStateTable, EvictionConfig, EvictionStats};
use crate::session::ClientKey;
use crate::{Detector, Verdict};

/// Partner clients must present this agent prefix from the contract range.
const PARTNER_UA_PREFIX: &str = "FareConnect-Partner-Client";

/// Why Sentinel first flagged a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SentinelSignal {
    /// User-agent signature match.
    Signature,
    /// Address listed in the reputation feed.
    Reputation,
    /// Request-rate threshold exceeded.
    Rate,
    /// JavaScript challenge failed.
    Challenge,
}

impl SentinelSignal {
    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            SentinelSignal::Signature => "signature",
            SentinelSignal::Reputation => "reputation",
            SentinelSignal::Rate => "rate",
            SentinelSignal::Challenge => "challenge",
        }
    }
}

#[derive(Debug, Clone, Default)]
struct ClientState {
    last_ts: i64,
    pages_in_session: u32,
    js_in_session: u32,
    page_window: VecDeque<i64>,
}

/// The Sentinel detector: the commercial-style multi-signal tool —
/// signatures, reputation, rate, JS-challenge, violator cache and
/// whitelist.
///
/// ```
/// use divscrape_detect::{run_alerts, Detector, Sentinel};
/// use divscrape_traffic::{generate, ScenarioConfig};
///
/// let log = generate(&ScenarioConfig::tiny(7))?;
/// let mut sentinel = Sentinel::stock();
/// let alerts = run_alerts(&mut sentinel, log.entries());
/// let alerted = alerts.iter().filter(|a| **a).count();
/// assert!(alerted > log.len() / 2); // bot-dominated traffic
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone)]
pub struct Sentinel {
    cfg: SentinelConfig,
    signatures: SignatureEngine,
    reputation: ReputationFeed,
    crawler_ranges: Vec<IpPool>,
    monitor_range: IpPool,
    partner_range: IpPool,
    clients: ClientStateTable<ClientState>,
    violators: ClientStateTable<SentinelSignal>,
    trip_counts: BTreeMap<&'static str, u64>,
}

impl Sentinel {
    /// Sentinel with the stock signature rules, stock reputation feed and
    /// default thresholds.
    pub fn stock() -> Self {
        Self::new(
            SentinelConfig::default(),
            SignatureEngine::stock(),
            ReputationFeed::stock(),
        )
    }

    /// Sentinel with explicit configuration and rule sets.
    pub fn new(
        cfg: SentinelConfig,
        signatures: SignatureEngine,
        reputation: ReputationFeed,
    ) -> Self {
        Self {
            cfg,
            signatures,
            reputation,
            crawler_ranges: vec![network::crawler_google(), network::crawler_bing()],
            monitor_range: network::monitor_range(),
            partner_range: network::partner_range(),
            clients: ClientStateTable::new(EvictionConfig::DISABLED),
            violators: ClientStateTable::new(EvictionConfig::DISABLED),
            trip_counts: BTreeMap::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SentinelConfig {
        &self.cfg
    }

    /// Number of clients *currently* in the violator cache. Without
    /// eviction this equals "clients ever flagged"; with eviction it
    /// shrinks as idle or least-recently-seen violators are forgotten.
    pub fn flagged_clients(&self) -> usize {
        self.violators.len()
    }

    /// Whether eviction is active on the client tables.
    fn eviction_enabled(&self) -> bool {
        !self.clients.config().is_disabled()
    }

    /// How many cache-entering flag *events* each signal produced.
    /// Without eviction that is exactly "clients first flagged by the
    /// signal" (one event per client, ever); with eviction, a violator
    /// that is evicted and trips again is counted again, so the totals
    /// count flag episodes rather than distinct clients.
    pub fn trip_counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.trip_counts
    }

    fn is_whitelisted(&self, entry: &EntryRef<'_>) -> bool {
        if !self.cfg.enable_whitelist {
            return false;
        }
        let family = entry.agent_family();
        let addr = entry.addr();
        match family {
            AgentFamily::KnownCrawler => self.crawler_ranges.iter().any(|r| r.contains(addr)),
            AgentFamily::Monitor => self.monitor_range.contains(addr),
            _ => entry.ua_str().starts_with(PARTNER_UA_PREFIX) && self.partner_range.contains(addr),
        }
    }

    /// Updates `state` with this entry and evaluates all signals, returning
    /// the first match in priority order and the number of active signals.
    ///
    /// The identity signals — signature and reputation — depend only on the
    /// client, so callers evaluate them once per client run and pass the
    /// results in; this is what the batch path amortizes.
    fn update_and_signal(
        cfg: &SentinelConfig,
        state: &mut ClientState,
        entry: &EntryRef<'_>,
        signature_hit: bool,
        reputation_hit: bool,
    ) -> (Option<SentinelSignal>, u32) {
        let ts = entry.epoch_seconds();

        // Session-scoped challenge counters reset on idle.
        if state.last_ts != 0 && ts - state.last_ts > cfg.session_idle_secs {
            state.pages_in_session = 0;
            state.js_in_session = 0;
            state.page_window.clear();
        }
        state.last_ts = ts;

        let class = entry.resource_class();
        match class {
            ResourceClass::Page => state.pages_in_session += 1,
            ResourceClass::Asset if entry.path().ends_with(".js") => {
                state.js_in_session += 1;
            }
            _ => {}
        }
        if matches!(class, ResourceClass::Page | ResourceClass::Api) {
            while let Some(&front) = state.page_window.front() {
                if ts - front >= 60 {
                    state.page_window.pop_front();
                } else {
                    break;
                }
            }
            state.page_window.push_back(ts);
        }

        let mut active = 0u32;
        let mut first: Option<SentinelSignal> = None;
        let mut hit = |signal: SentinelSignal, active: &mut u32| {
            *active += 1;
            if first.is_none() {
                first = Some(signal);
            }
        };

        if signature_hit {
            hit(SentinelSignal::Signature, &mut active);
        }
        if reputation_hit {
            hit(SentinelSignal::Reputation, &mut active);
        }
        if cfg.enable_rate && state.page_window.len() as u32 >= cfg.rate_threshold_per_min {
            hit(SentinelSignal::Rate, &mut active);
        }
        if cfg.enable_challenge
            && state.pages_in_session >= cfg.challenge_page_threshold
            && state.js_in_session == 0
        {
            hit(SentinelSignal::Challenge, &mut active);
        }
        (first, active)
    }

    /// Evaluates the client-constant identity signals for an entry.
    fn identity_hits(&self, entry: &EntryRef<'_>) -> (bool, bool) {
        (
            self.cfg.enable_signature
                && self
                    .signatures
                    .matches_parts(entry.agent_family(), entry.ua_str()),
            self.cfg.enable_reputation && self.reputation.is_listed(entry.addr()),
        )
    }

    /// The shared per-entry tail of both observe paths: update the
    /// client's state, evaluate the signals, maintain the violator cache
    /// and build the verdict. `cached_before` is whether the violator
    /// cache held this client before the entry; the second return value
    /// is whether it holds the client after.
    #[allow(clippy::too_many_arguments)]
    fn decide(
        cfg: &SentinelConfig,
        violators: &mut ClientStateTable<SentinelSignal>,
        trip_counts: &mut BTreeMap<&'static str, u64>,
        state: &mut ClientState,
        entry: &EntryRef<'_>,
        key: ClientKey,
        ts: i64,
        cached_before: bool,
        signature_hit: bool,
        reputation_hit: bool,
    ) -> (Verdict, bool) {
        let (signal, active) =
            Self::update_and_signal(cfg, state, entry, signature_hit, reputation_hit);
        if let Some(signal) = signal {
            let mut cached = cached_before;
            if cfg.enable_violator_cache && !cached_before {
                violators.insert(key, ts, signal);
                *trip_counts.entry(signal.name()).or_insert(0) += 1;
                cached = true;
            }
            (
                Verdict::new(true, (active + u32::from(cached_before)) as f32),
                cached,
            )
        } else if cached_before {
            (Verdict::new(true, 1.0), true)
        } else {
            (Verdict::CLEAR, false)
        }
    }
}

impl Detector for Sentinel {
    fn name(&self) -> &str {
        "sentinel"
    }

    fn observe(&mut self, entry: &EntryRef<'_>) -> Verdict {
        if self.is_whitelisted(entry) {
            return Verdict::CLEAR;
        }
        let key = entry.client_key();
        let ts = entry.epoch_seconds();
        let cached =
            self.cfg.enable_violator_cache && self.violators.get_refresh(&key, ts).is_some();
        let (signature_hit, reputation_hit) = self.identity_hits(entry);
        let (state, _) = self.clients.upsert_with(key, ts, ClientState::default);
        let (verdict, _) = Self::decide(
            &self.cfg,
            &mut self.violators,
            &mut self.trip_counts,
            state,
            entry,
            key,
            ts,
            cached,
            signature_hit,
            reputation_hit,
        );
        verdict
    }

    /// Hoists identity-derived work (whitelist, key hash, signature,
    /// reputation) out of each single-client run.
    fn observe_batch_refs(&mut self, entries: &[EntryRef<'_>], out: &mut Vec<Verdict>) {
        out.reserve(entries.len());
        let evicting = self.eviction_enabled();
        for run in crate::detector::client_runs(entries) {
            let first = &run[0];

            // Everything identity-derived is constant across the run:
            // whitelisting, the client key hash, signature and reputation.
            if self.is_whitelisted(first) {
                out.extend(std::iter::repeat_n(Verdict::CLEAR, run.len()));
                continue;
            }
            let key = first.client_key();
            let (signature_hit, reputation_hit) = self.identity_hits(first);

            if evicting {
                // With eviction enabled the state tables must be touched
                // per entry — a large idle gap *inside* a client run (the
                // log held no other traffic in between) can expire state
                // mid-run, and the per-entry path would see that. The
                // identity work above stays amortized over the run.
                for entry in run {
                    let ts = entry.epoch_seconds();
                    let cached = self.cfg.enable_violator_cache
                        && self.violators.get_refresh(&key, ts).is_some();
                    let (state, _) = self.clients.upsert_with(key, ts, ClientState::default);
                    let (verdict, _) = Self::decide(
                        &self.cfg,
                        &mut self.violators,
                        &mut self.trip_counts,
                        state,
                        entry,
                        key,
                        ts,
                        cached,
                        signature_hit,
                        reputation_hit,
                    );
                    out.push(verdict);
                }
                continue;
            }

            // Eviction off: the tables behave like plain maps, so one
            // probe per run is exact (what the batch path amortizes).
            let ts0 = run[0].epoch_seconds();
            let mut cached =
                self.cfg.enable_violator_cache && self.violators.get_refresh(&key, ts0).is_some();
            let (state, _) = self.clients.upsert_with(key, ts0, ClientState::default);

            for entry in run {
                let ts = entry.epoch_seconds();
                // `cached` reflects the violator cache *before* this entry,
                // exactly as the per-entry path's lookup sees it.
                let (verdict, now_cached) = Self::decide(
                    &self.cfg,
                    &mut self.violators,
                    &mut self.trip_counts,
                    state,
                    entry,
                    key,
                    ts,
                    cached,
                    signature_hit,
                    reputation_hit,
                );
                cached = now_cached;
                out.push(verdict);
            }
        }
    }

    fn reset(&mut self) {
        self.clients.clear();
        self.violators.clear();
        self.trip_counts.clear();
    }

    fn set_eviction(&mut self, cfg: EvictionConfig) {
        self.clients.set_config(cfg);
        self.violators.set_config(cfg);
    }

    fn eviction_stats(&self) -> EvictionStats {
        self.clients.stats().merge(self.violators.stats())
    }
}

impl Default for Sentinel {
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

    fn entry(addr: Ipv4Addr, secs: i64, path: &str, ua: &str) -> LogEntry {
        LogEntry::builder()
            .addr(addr)
            .timestamp(ClfTimestamp::PAPER_WINDOW_START.plus_seconds(secs))
            .request(format!("GET {path} HTTP/1.1").parse().unwrap())
            .status(HttpStatus::OK)
            .bytes(Some(1000))
            .user_agent(ua)
            .build()
            .unwrap()
    }

    fn clean_addr() -> Ipv4Addr {
        // Residential, outside the contaminated block.
        Ipv4Addr::new(81, 2, 10, 10)
    }

    #[test]
    fn signature_flags_tools_immediately() {
        let mut s = Sentinel::stock();
        let v = s.observe(&entry(clean_addr(), 0, "/search?q=a", "curl/7.58.0").view());
        assert!(v.alert);
        assert_eq!(s.trip_counts().get("signature"), Some(&1));
    }

    #[test]
    fn reputation_flags_datacenter_sources() {
        let mut s = Sentinel::stock();
        let dc = Ipv4Addr::new(45, 76, 1, 2);
        assert!(s.observe(&entry(dc, 0, "/offers/1", BROWSER).view()).alert);
        assert_eq!(s.trip_counts().get("reputation"), Some(&1));
    }

    #[test]
    fn rate_monitor_trips_on_fast_page_streams() {
        let mut s = Sentinel::stock();
        let addr = clean_addr();
        let mut tripped_at = None;
        for i in 0..40 {
            // One page every two seconds with script assets so the
            // challenge cannot be the signal that fires.
            let v = s.observe(&entry(addr, i * 2, "/static/js/app.js", BROWSER).view());
            if tripped_at.is_none() {
                // Before the rate trips, asset requests must stay clean;
                // afterwards the violator cache rightly alerts on them too.
                assert!(!v.alert, "asset request {i} alerted before the trip");
            }
            let v = s.observe(&entry(addr, i * 2 + 1, &format!("/offers/{i}"), BROWSER).view());
            if v.alert && tripped_at.is_none() {
                tripped_at = Some(i);
            }
        }
        let at = tripped_at.expect("rate monitor should trip");
        assert!((25..=35).contains(&at), "tripped at page {at}");
        assert_eq!(s.trip_counts().get("rate"), Some(&1));
    }

    #[test]
    fn challenge_fails_clients_that_never_fetch_scripts() {
        let mut s = Sentinel::stock();
        let addr = clean_addr();
        let mut tripped_at = None;
        for i in 0..10 {
            // Slow pages (40s apart → rate can't trip), no scripts.
            let v = s.observe(&entry(addr, i * 40, &format!("/offers/{i}"), BROWSER).view());
            if v.alert && tripped_at.is_none() {
                tripped_at = Some(i + 1);
            }
        }
        assert_eq!(tripped_at, Some(6), "challenge threshold is 6 pages");
        assert_eq!(s.trip_counts().get("challenge"), Some(&1));
    }

    #[test]
    fn challenge_passes_clients_that_execute_javascript() {
        let mut s = Sentinel::stock();
        let addr = clean_addr();
        for i in 0..12 {
            let v = s.observe(&entry(addr, i * 80, &format!("/offers/{i}"), BROWSER).view());
            assert!(!v.alert, "page {i} alerted");
            let v = s.observe(&entry(addr, i * 80 + 2, "/static/js/app.js", BROWSER).view());
            assert!(!v.alert);
        }
    }

    #[test]
    fn violator_cache_keeps_alerting_after_the_trip() {
        let mut s = Sentinel::stock();
        let addr = clean_addr();
        // Trip via challenge...
        for i in 0..8 {
            s.observe(&entry(addr, i * 40, &format!("/offers/{i}"), BROWSER).view());
        }
        assert_eq!(s.flagged_clients(), 1);
        // ...then a perfectly innocuous request hours later still alerts.
        let v = s.observe(&entry(addr, 50_000, "/static/js/app.js", BROWSER).view());
        assert!(v.alert, "violator cache should persist");
    }

    #[test]
    fn whitelist_protects_verified_crawlers_but_not_impostors() {
        use divscrape_traffic::useragents::GOOGLEBOT;
        let mut s = Sentinel::stock();
        let real = Ipv4Addr::new(66, 249, 66, 5);
        for i in 0..20 {
            let v = s.observe(&entry(real, i, &format!("/offers/{i}"), GOOGLEBOT).view());
            assert!(!v.alert, "real Googlebot alerted at {i}");
        }
        // The same identity from a residential address is an impostor: no
        // whitelist, and the challenge eventually catches the page stream.
        let fake = clean_addr();
        let mut alerted = false;
        for i in 0..20 {
            alerted |= s
                .observe(&entry(fake, 100_000 + i * 40, &format!("/offers/{i}"), GOOGLEBOT).view())
                .alert;
        }
        assert!(alerted, "fake Googlebot escaped");
    }

    #[test]
    fn contaminated_reputation_block_causes_false_positives() {
        let mut s = Sentinel::stock();
        let unlucky = Ipv4Addr::new(92, 143, 3, 9);
        let v = s.observe(&entry(unlucky, 0, "/search?q=NCE-LHR", BROWSER).view());
        assert!(v.alert, "contaminated block should alert");
    }

    #[test]
    fn ablated_sentinel_misses_what_the_signal_caught() {
        let cfg = SentinelConfig::default().without("reputation");
        let mut s = Sentinel::new(cfg, SignatureEngine::stock(), ReputationFeed::stock());
        let dc = Ipv4Addr::new(45, 76, 1, 2);
        let v = s.observe(&entry(dc, 0, "/offers/1", BROWSER).view());
        assert!(!v.alert, "reputation disabled but still alerted");
    }

    #[test]
    fn reset_clears_the_cache() {
        let mut s = Sentinel::stock();
        s.observe(&entry(clean_addr(), 0, "/a", "curl/7.58.0").view());
        assert_eq!(s.flagged_clients(), 1);
        s.reset();
        assert_eq!(s.flagged_clients(), 0);
        assert!(s.trip_counts().is_empty());
    }

    #[test]
    fn alerts_heavily_on_synthetic_bot_traffic() {
        use divscrape_traffic::{generate, ScenarioConfig};
        let log = generate(&ScenarioConfig::small(5)).unwrap();
        let mut s = Sentinel::stock();
        let alerts = run_alerts(&mut s, log.entries());
        let rate = alerts.iter().filter(|a| **a).count() as f64 / alerts.len() as f64;
        assert!((0.70..0.95).contains(&rate), "alert rate {rate}");
    }
}
