//! Hierarchical triage: a near-free first-pass filter in front of the
//! session detectors.
//!
//! The overwhelming majority of real traffic is benign and could be
//! dismissed for a few dozen nanoseconds per entry; only the suspicious
//! residue deserves the full detector ensemble (BOTracle-style
//! hierarchical detection). A [`TriageFilter`] classifies every entry's
//! client as *benign-so-far* or *escalated*:
//!
//! * **Escalated** clients are processed by the full detector set, live.
//! * **Benign-so-far** clients skip the detectors; the pipeline buffers
//!   their entries instead, and the moment the client escalates its
//!   buffered history is replayed through the detectors in feed order —
//!   so the verdict stream is bit-identical to a triage-off run whenever
//!   nothing spilled (see `divscrape-pipeline`'s `triage` knob).
//!
//! The stock filter, [`FastTriage`], maintains only cheap per-client
//! counters computable from an [`EntryRef`] without allocation, with
//! state held in the same evictable [`StateTable`](crate::StateTable)
//! machinery the detectors use. Its escalation ruleset is deliberately a
//! **superset trigger** for the stock [`Sentinel`](crate::Sentinel) +
//! [`Arcane`](crate::Arcane) pair: whenever either stock detector would
//! alert on an entry of some client, that client has already escalated
//! at — or strictly before — that entry, so no suppressed entry ever had
//! an alerting verdict and replayed history is provably all-clear.

use std::collections::HashMap;

use divscrape_httplog::{AgentFamily, EntryRef, HttpMethod, ResourceClass};

use crate::evict::{ClientStateTable, EvictionConfig, EvictionStats};
use crate::sentinel::{ReputationFeed, SignatureEngine};

/// What a [`TriageFilter`] decided about one entry's client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriageDecision {
    /// The client still looks benign: the entry may be suppressed
    /// (buffered for potential replay) instead of run through the
    /// detectors.
    Benign,
    /// This entry escalated the client: replay its buffered history
    /// through the detectors, then process this entry live.
    Escalate,
    /// The client escalated earlier: process the entry live.
    Escalated,
}

/// A first-pass classifier deciding which clients the expensive
/// detectors must see.
///
/// Implementations must be **sticky**: once a client escalates, every
/// later entry of that client must return [`TriageDecision::Escalated`]
/// (until the state is forgotten by eviction — which is exactly the
/// lockstep forgetting the detectors themselves apply).
pub trait TriageFilter: Send {
    /// Stable name for reports and debugging.
    fn name(&self) -> &str;

    /// Classifies one entry's client, updating per-client state.
    fn classify(&mut self, entry: &EntryRef<'_>) -> TriageDecision;

    /// Drops all per-client state.
    fn reset(&mut self);

    /// Installs an eviction policy on the filter's client table. Using
    /// the same policy as the detectors keeps forgetting in lockstep:
    /// a client idle past the TTL restarts everywhere at once.
    fn set_eviction(&mut self, cfg: EvictionConfig);

    /// Occupancy and eviction counters of the filter's client table.
    fn eviction_stats(&self) -> EvictionStats;

    /// A fresh boxed copy with empty state.
    fn clone_boxed(&self) -> Box<dyn TriageFilter>;
}

/// Requests two adjacent aligned minutes must jointly reach for the
/// burst rule to escalate. 25 is Arcane's one-minute burst threshold:
/// any 60-second sliding window holding ≥ 25 requests spans at most two
/// aligned minutes, so the pair over those minutes counts at least the
/// whole window. Sentinel's rate signal (30 pages/min) is covered by the
/// same check, since its window is a subset of all requests.
const BURST_PAIR_THRESHOLD: u32 = 25;

/// Session requests before the sustained-pacing rule can escalate —
/// Arcane's `sustained_min_requests`.
const SUSTAINED_MIN_REQUESTS: u32 = 30;

/// Mean inter-request gap (seconds) below which a session paces like a
/// machine — Arcane's `sustained_gap_secs`.
const SUSTAINED_GAP_SECS: f64 = 2.5;

/// Idle gap that rolls a client over into a fresh session — Arcane's
/// sessionizer default. Mirrored here so the sustained-pacing rule
/// evaluates the *same* session the detector would score.
const SESSION_IDLE_SECS: i64 = 1_800;

/// Lifetime requests before a seen error escalates. Arcane's error-ratio
/// rule is gated at `error_min_requests` (10), and its bad-request rule
/// (weight 2 of an alert threshold of 3) never alerts without a
/// companion signal that is either covered by another rule here or
/// itself implies ≥ 10 session requests — so an error only matters once
/// the client has enough history for the detector to act on it.
const ERROR_MIN_REQUESTS: u64 = 10;

/// Page views without an intervening `.js` fetch that escalate —
/// Sentinel's challenge threshold.
const PAGES_WITHOUT_JS: u32 = 6;

/// `204` responses that escalate (Arcane's beacon threshold).
const NO_CONTENT_LIMIT: u32 = 3;

/// Hard ceiling on requests a client may make without escalating; also
/// bounds how much history the pipeline can buffer per client. Safe for
/// the stock pair: every scoring path that could alert later is covered
/// by a dedicated rule long before this many requests.
const MAX_QUIET_REQUESTS: u64 = 256;

/// Capacity bound of the per-agent identity cache (distinct agents per
/// generation) — same figure as the httplog interner's default.
const UA_CACHE_CAP: usize = 4096;

/// The cover thresholds of the stock [`FastTriage`] rules, exposed for
/// calibration audits ([`FastTriage::calibration`]).
///
/// Each field mirrors one private rule constant. The superset-cover
/// property — every stock-detector alert implies a triage escalation at
/// or before the same entry — only holds while each threshold here
/// covers (is at least as eager as) the corresponding detector config
/// value; a detector config change that outruns these numbers silently
/// breaks bit-identity. The repository's `triage_calibration` test
/// derives the required bounds from [`SentinelConfig`] and
/// [`ArcaneConfig`] defaults and fails the build-out when a threshold
/// drifts out of cover.
///
/// [`SentinelConfig`]: crate::SentinelConfig
/// [`ArcaneConfig`]: crate::ArcaneConfig
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TriageCalibration {
    /// Joint request count over two adjacent aligned minutes that
    /// escalates — must cover Arcane's burst threshold and Sentinel's
    /// per-minute page-rate threshold.
    pub burst_pair_threshold: u32,
    /// Session requests before sustained-pacing can escalate — must
    /// cover Arcane's `sustained_min_requests`.
    pub sustained_min_requests: u32,
    /// Mean inter-request gap (seconds) below which a session paces
    /// like a machine — must cover Arcane's `sustained_gap_secs` (be at
    /// least as large: a larger gap escalates more sessions).
    pub sustained_gap_secs: f64,
    /// Idle gap that rolls a client into a fresh session — must equal
    /// the detectors' sessionizer idle timeout exactly, so the pacing
    /// rule evaluates the same session the detector scores.
    pub session_idle_secs: i64,
    /// Lifetime requests before a seen error escalates — must cover
    /// Arcane's `error_min_requests`.
    pub error_min_requests: u64,
    /// Page views without a `.js` fetch that escalate — must cover
    /// Sentinel's challenge-page threshold.
    pub pages_without_js: u32,
    /// `204` responses that escalate — must cover Arcane's beacon
    /// count threshold.
    pub no_content_limit: u32,
    /// Hard ceiling on requests a client may make without escalating.
    pub max_quiet_requests: u64,
}

/// Caches the UA-derived identity verdict (non-browser family or a
/// signature match) per distinct agent string.
///
/// Real traffic repeats a small pool of agent strings across thousands
/// of clients, but the signature scan is priced per *string*: without a
/// cache every new client pays a full pattern sweep over its (long,
/// browser) UA, and that sweep — not the counter updates — dominates
/// triage cost on benign-heavy traffic. Growth is bounded by the same
/// generation-swap idiom as `divscrape_httplog`'s `UaInterner`: a full
/// current generation demotes to the previous one (dropping *its*
/// contents), a miss promotes a previous-generation hit back, so at most
/// `2 × cap` agents are ever cached and a hostile feed of unique agents
/// costs re-scanning, never unbounded memory. Cached verdicts are
/// content-derived, so a re-scan after eviction returns the same answer.
#[derive(Debug, Clone)]
struct UaIdentityCache {
    map: HashMap<String, bool>,
    prev: HashMap<String, bool>,
    cap: usize,
}

impl UaIdentityCache {
    fn new(cap: usize) -> Self {
        Self {
            map: HashMap::new(),
            prev: HashMap::new(),
            cap: cap.max(1),
        }
    }

    /// The cached verdict for `ua`, computing (and caching) it on first
    /// sight. The fast path is one borrowed-key lookup — no allocation.
    fn resolve(&mut self, ua: &str, compute: impl FnOnce(&str) -> bool) -> bool {
        if let Some(&cached) = self.map.get(ua) {
            return cached;
        }
        let (owned, flagged) = match self.prev.remove_entry(ua) {
            Some(hit) => hit,
            None => (ua.to_owned(), compute(ua)),
        };
        if self.map.len() >= self.cap {
            self.prev.clear();
            std::mem::swap(&mut self.map, &mut self.prev);
        }
        self.map.insert(owned, flagged);
        flagged
    }

    fn clear(&mut self) {
        self.map.clear();
        self.prev.clear();
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.map.len() + self.prev.len()
    }
}

/// Per-client triage counters — everything the stock ruleset needs, in
/// a few dozen bytes, updated allocation-free.
#[derive(Debug, Clone, Default)]
struct FastState {
    /// Sticky escalation flag.
    escalated: bool,
    /// Identity (UA family, signature, reputation) evaluated once.
    identity_checked: bool,
    identity_flagged: bool,
    /// Lifetime request count (never reset).
    requests: u64,
    /// Lifetime `204` responses.
    no_content: u32,
    /// Page views since the last `.js` asset fetch.
    pages_since_js: u32,
    /// Sticky: some response was a `4xx`/`5xx`.
    error_seen: bool,
    /// Burst: two aligned 60-second buckets.
    minute: i64,
    cur: u32,
    prev: u32,
    /// Sustained pacing: the current session's bounds and size, rolled
    /// over after [`SESSION_IDLE_SECS`] of idleness exactly like the
    /// detectors' sessionizer.
    session_first: i64,
    session_last: i64,
    session_requests: u32,
}

/// The stock [`TriageFilter`]: per-client counters + identity checks,
/// calibrated as a superset trigger for the stock
/// [`Sentinel`](crate::Sentinel)/[`Arcane`](crate::Arcane) pair.
///
/// Escalation rules, each a strict over-approximation of a detector
/// signal (evaluated after incorporating the entry, like the detectors):
///
/// 1. non-`Browser` agent family, a stock signature/fingerprint match,
///    or a reputation-listed address — once per client;
/// 2. a request method outside GET/HEAD/POST;
/// 3. a vulnerability-probe or `robots.txt` path;
/// 4. a `4xx`/`5xx` response seen, once the client has ≥ 10 lifetime
///    requests (the detectors' error rules are gated on session size);
/// 5. three `204` responses;
/// 6. six page views without a `.js` fetch (the JS challenge can no
///    longer pass);
/// 7. a burst: an adjacent aligned-minute pair totalling ≥ 25 requests
///    (Arcane's one-minute burst, Sentinel's per-minute rate);
/// 8. sustained machine pacing: a session of ≥ 30 requests whose mean
///    inter-request gap is under 2.5 seconds, over the same
///    idle-rollover sessions the detectors score;
/// 9. a safety valve at 256 lifetime requests.
///
/// ```
/// use divscrape_detect::triage::{FastTriage, TriageDecision, TriageFilter};
/// use divscrape_httplog::LogEntry;
///
/// let mut triage = FastTriage::stock();
/// let human = LogEntry::parse(
///     r#"10.0.0.9 - - [11/Mar/2018:00:00:05 +0000] "GET /offers HTTP/1.1" 200 77 "http://x/" "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/64.0.3282.140 Safari/537.36""#,
/// ).map_err(|e| e.to_string())?;
/// let tool = LogEntry::parse(
///     r#"10.0.0.7 - - [11/Mar/2018:00:00:05 +0000] "GET /offers HTTP/1.1" 200 77 "-" "curl/7.58.0""#,
/// ).map_err(|e| e.to_string())?;
/// assert_eq!(triage.classify(&human.view()), TriageDecision::Benign);
/// assert_eq!(triage.classify(&tool.view()), TriageDecision::Escalate);
/// assert_eq!(triage.classify(&tool.view()), TriageDecision::Escalated);
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone)]
pub struct FastTriage {
    signatures: SignatureEngine,
    reputation: ReputationFeed,
    clients: ClientStateTable<FastState>,
    ua_cache: UaIdentityCache,
}

impl Default for FastTriage {
    fn default() -> Self {
        Self::stock()
    }
}

impl FastTriage {
    /// The stock filter: stock signature rules and reputation feed.
    pub fn stock() -> Self {
        Self::with_rules(SignatureEngine::stock(), ReputationFeed::stock())
    }

    /// A filter with explicit identity rule sets — use the same sets the
    /// deployed Sentinel uses so identity escalation stays a superset of
    /// its identity signals.
    pub fn with_rules(signatures: SignatureEngine, reputation: ReputationFeed) -> Self {
        Self {
            signatures,
            reputation,
            clients: ClientStateTable::new(EvictionConfig::DISABLED),
            ua_cache: UaIdentityCache::new(UA_CACHE_CAP),
        }
    }

    /// The stock rules' cover thresholds, for calibration audits
    /// against the deployed detector configs — see
    /// [`TriageCalibration`].
    pub fn calibration() -> TriageCalibration {
        TriageCalibration {
            burst_pair_threshold: BURST_PAIR_THRESHOLD,
            sustained_min_requests: SUSTAINED_MIN_REQUESTS,
            sustained_gap_secs: SUSTAINED_GAP_SECS,
            session_idle_secs: SESSION_IDLE_SECS,
            error_min_requests: ERROR_MIN_REQUESTS,
            pages_without_js: PAGES_WITHOUT_JS,
            no_content_limit: NO_CONTENT_LIMIT,
            max_quiet_requests: MAX_QUIET_REQUESTS,
        }
    }

    /// The UA-derived half of the identity check, cached per distinct
    /// agent string (the signature sweep is the expensive part of the
    /// whole filter; real traffic repeats a small agent pool).
    fn ua_flagged(
        ua_cache: &mut UaIdentityCache,
        signatures: &SignatureEngine,
        family: AgentFamily,
        ua: &str,
    ) -> bool {
        ua_cache.resolve(ua, |ua| {
            family != AgentFamily::Browser || signatures.matches_parts(family, ua)
        })
    }
}

impl TriageFilter for FastTriage {
    fn name(&self) -> &str {
        "fast-triage"
    }

    fn classify(&mut self, entry: &EntryRef<'_>) -> TriageDecision {
        let ts = entry.epoch_seconds();
        let key = entry.client_key();
        let (state, _) = self.clients.upsert_with(key, ts, FastState::default);
        if state.escalated {
            return TriageDecision::Escalated;
        }
        state.requests += 1;

        // Identity is client-constant: evaluate once, on first sight —
        // and the UA half is cached across clients, so the signature
        // sweep runs once per distinct agent string, not per client.
        if !state.identity_checked {
            state.identity_checked = true;
            state.identity_flagged = Self::ua_flagged(
                &mut self.ua_cache,
                &self.signatures,
                entry.agent_family(),
                entry.ua_str(),
            ) || self.reputation.is_listed(entry.addr());
        }

        // JS-challenge proxy: pages since the last script fetch.
        let class = entry.resource_class();
        match class {
            ResourceClass::Page => state.pages_since_js += 1,
            ResourceClass::Asset if entry.path().ends_with(".js") => state.pages_since_js = 0,
            _ => {}
        }

        let status = entry.status();
        if status.as_u16() == 204 {
            state.no_content += 1;
        }
        state.error_seen |= status.is_error();

        // Burst: two aligned 60-second buckets, advanced by timestamp.
        let minute = ts.div_euclid(60);
        if state.requests == 1 {
            state.minute = minute;
            state.cur = 1;
        } else if minute == state.minute {
            state.cur += 1;
        } else if minute == state.minute + 1 {
            state.prev = state.cur;
            state.cur = 1;
            state.minute = minute;
        } else if minute > state.minute {
            state.prev = 0;
            state.cur = 1;
            state.minute = minute;
        } else {
            // Clock skew backwards: count into the current bucket rather
            // than lose the request.
            state.cur += 1;
        }

        // Sustained pacing: mirror the detectors' idle-rollover sessions
        // so the mean-gap test scores the same span Arcane would.
        if state.requests == 1 || ts - state.session_last > SESSION_IDLE_SECS {
            state.session_first = ts;
            state.session_requests = 1;
        } else {
            state.session_requests += 1;
        }
        state.session_last = ts;
        let sustained = state.session_requests >= SUSTAINED_MIN_REQUESTS
            && ((state.session_last - state.session_first) as f64)
                / f64::from(state.session_requests - 1)
                < SUSTAINED_GAP_SECS;

        let escalate = state.identity_flagged
            || !matches!(
                entry.method(),
                HttpMethod::Get | HttpMethod::Head | HttpMethod::Post
            )
            || matches!(class, ResourceClass::Probe | ResourceClass::RobotsTxt)
            || (state.error_seen && state.requests >= ERROR_MIN_REQUESTS)
            || state.no_content >= NO_CONTENT_LIMIT
            || state.pages_since_js >= PAGES_WITHOUT_JS
            || state.prev + state.cur >= BURST_PAIR_THRESHOLD
            || sustained
            || state.requests >= MAX_QUIET_REQUESTS;

        if escalate {
            state.escalated = true;
            TriageDecision::Escalate
        } else {
            TriageDecision::Benign
        }
    }

    fn reset(&mut self) {
        self.clients.clear();
        self.ua_cache.clear();
    }

    fn set_eviction(&mut self, cfg: EvictionConfig) {
        self.clients.set_config(cfg);
    }

    fn eviction_stats(&self) -> EvictionStats {
        self.clients.stats()
    }

    fn clone_boxed(&self) -> Box<dyn TriageFilter> {
        Box::new(FastTriage::with_rules(
            self.signatures.clone(),
            self.reputation.clone(),
        ))
    }
}

/// Default replay-buffer memory cap: 64 MiB of buffered line bytes.
const DEFAULT_REPLAY_CAP_BYTES: usize = 64 << 20;

/// A triage configuration for the pipeline: which filter classifies
/// clients, and how much suppressed history may be buffered for replay.
///
/// Consumed by `divscrape-pipeline`'s `PipelineBuilder::triage`.
pub struct TriagePolicy {
    filter: Box<dyn TriageFilter>,
    replay_cap_bytes: usize,
}

impl TriagePolicy {
    /// The stock policy: [`FastTriage`] with a 64 MiB replay cap.
    pub fn fast() -> Self {
        Self::custom(FastTriage::stock())
    }

    /// A policy around a custom filter, with the default replay cap.
    ///
    /// Bit-identity of the suppressed stream only holds if the filter is
    /// a superset trigger for the composed detectors (see the
    /// [module docs](self)); a weaker filter still never loses an
    /// escalated client's history, but alerts on suppressed entries are
    /// delivered late (at escalation) and entries spilled past the
    /// replay cap are lost to the detectors.
    pub fn custom(filter: impl TriageFilter + 'static) -> Self {
        Self {
            filter: Box::new(filter),
            replay_cap_bytes: DEFAULT_REPLAY_CAP_BYTES,
        }
    }

    /// Caps the total bytes of buffered suppressed lines. When the cap
    /// is exceeded the globally oldest buffered entries spill (counted
    /// in `PipelineStats::triage_spilled_entries`) and are never
    /// replayed.
    #[must_use]
    pub fn replay_cap_bytes(mut self, bytes: usize) -> Self {
        self.replay_cap_bytes = bytes.max(1);
        self
    }

    /// Decomposes the policy into its filter and replay cap.
    pub fn into_parts(self) -> (Box<dyn TriageFilter>, usize) {
        (self.filter, self.replay_cap_bytes)
    }
}

impl std::fmt::Debug for TriagePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TriagePolicy")
            .field("filter", &self.filter.name())
            .field("replay_cap_bytes", &self.replay_cap_bytes)
            .finish()
    }
}

impl Clone for TriagePolicy {
    fn clone(&self) -> Self {
        Self {
            filter: self.filter.clone_boxed(),
            replay_cap_bytes: self.replay_cap_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use divscrape_httplog::LogEntry;

    const BROWSER_UA: &str = "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/64.0.3282.140 Safari/537.36";

    fn entry(ip: &str, secs: i64, method: &str, path: &str, status: u16, ua: &str) -> LogEntry {
        let (hour, min, sec) = (secs / 3_600, (secs / 60) % 60, secs % 60);
        let line = format!(
            "{ip} - - [11/Mar/2018:{hour:02}:{min:02}:{sec:02} +0000] \"{method} {path} HTTP/1.1\" {status} 77 \"http://site/\" \"{ua}\""
        );
        LogEntry::parse(&line).expect("test line parses")
    }

    fn decide(triage: &mut FastTriage, e: &LogEntry) -> TriageDecision {
        triage.classify(&e.view())
    }

    #[test]
    fn browsing_human_stays_benign() {
        let mut triage = FastTriage::stock();
        for page in 0..5 {
            let t = page * 30;
            let e = entry("10.0.0.9", t, "GET", "/offers/1", 200, BROWSER_UA);
            assert_eq!(decide(&mut triage, &e), TriageDecision::Benign);
            let js = entry("10.0.0.9", t + 1, "GET", "/static/app.js", 200, BROWSER_UA);
            assert_eq!(decide(&mut triage, &js), TriageDecision::Benign);
        }
    }

    #[test]
    fn identity_rules_escalate_on_first_sight() {
        let mut triage = FastTriage::stock();
        let tool = entry("10.0.1.1", 0, "GET", "/offers/1", 200, "curl/7.58.0");
        assert_eq!(decide(&mut triage, &tool), TriageDecision::Escalate);
        assert_eq!(decide(&mut triage, &tool), TriageDecision::Escalated);
        // Stale-browser fingerprint: Browser family, signature-listed.
        let stale = entry(
            "10.0.1.2",
            0,
            "GET",
            "/offers/1",
            200,
            "Mozilla/5.0 (Windows NT 6.1) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/41.0.2272.89 Safari/537.36",
        );
        assert_eq!(decide(&mut triage, &stale), TriageDecision::Escalate);
    }

    #[test]
    fn behavioural_rules_escalate_before_the_detectors_could_alert() {
        // Probe path.
        let mut triage = FastTriage::stock();
        let probe = entry("10.0.2.1", 0, "GET", "/wp-admin/setup.php", 404, BROWSER_UA);
        assert_eq!(decide(&mut triage, &probe), TriageDecision::Escalate);

        // Non-browsing method.
        let mut triage = FastTriage::stock();
        let put = entry("10.0.2.2", 0, "PUT", "/offers/1", 200, BROWSER_UA);
        assert_eq!(decide(&mut triage, &put), TriageDecision::Escalate);

        // An error escalates once the client reaches the detectors'
        // error-rule gate (10 session requests) — not on first sight,
        // since the gated rules cannot act before then.
        let mut triage = FastTriage::stock();
        let err = entry("10.0.2.3", 0, "GET", "/offers/404", 404, BROWSER_UA);
        assert_eq!(decide(&mut triage, &err), TriageDecision::Benign);
        for i in 1..ERROR_MIN_REQUESTS {
            let path = if i % 2 == 0 {
                "/offers/1"
            } else {
                "/static/app.js"
            };
            let e = entry("10.0.2.3", i as i64 * 30, "GET", path, 200, BROWSER_UA);
            let want = if i + 1 >= ERROR_MIN_REQUESTS {
                TriageDecision::Escalate
            } else {
                TriageDecision::Benign
            };
            assert_eq!(decide(&mut triage, &e), want, "request {i}");
        }

        // robots.txt fetch.
        let mut triage = FastTriage::stock();
        let robots = entry("10.0.2.4", 0, "GET", "/robots.txt", 200, BROWSER_UA);
        assert_eq!(decide(&mut triage, &robots), TriageDecision::Escalate);

        // Pages without any .js fetch: escalates at the challenge
        // threshold, before Sentinel's challenge signal needs it.
        let mut triage = FastTriage::stock();
        for page in 0..PAGES_WITHOUT_JS {
            let e = entry(
                "10.0.2.5",
                i64::from(page) * 30,
                "GET",
                "/offers/2",
                200,
                BROWSER_UA,
            );
            let want = if page + 1 >= PAGES_WITHOUT_JS {
                TriageDecision::Escalate
            } else {
                TriageDecision::Benign
            };
            assert_eq!(decide(&mut triage, &e), want, "page {page}");
        }
    }

    #[test]
    fn machine_pacing_escalates_before_burst_or_sustained_rules() {
        // 30 requests at 2-second spacing (js interleaved to dodge the
        // challenge rule): must escalate no later than request 30, where
        // Arcane's sustained-rate rule (n>=30, mean gap < 2.5s) arms.
        let mut triage = FastTriage::stock();
        let mut escalated_at = None;
        for i in 0..30i64 {
            let (path, _) = if i % 2 == 0 {
                ("/offers/3", ())
            } else {
                ("/static/app.js", ())
            };
            let e = entry("10.0.3.1", i * 2, "GET", path, 200, BROWSER_UA);
            match decide(&mut triage, &e) {
                TriageDecision::Benign => {}
                _ => {
                    escalated_at = Some(i + 1);
                    break;
                }
            }
        }
        let at = escalated_at.expect("sustained machine pacing must escalate");
        assert!(at <= 30, "escalated only at request {at}");
    }

    #[test]
    fn bursty_human_session_stays_benign() {
        // Three page loads of a dozen fetches each, one per minute: the
        // old sticky pair latch would have escalated this very ordinary
        // human at its 30th request, but no detector pacing rule can
        // fire on it — each minute stays under the burst threshold and
        // the session mean gap is well above machine pacing.
        let mut triage = FastTriage::stock();
        let mut n = 0i64;
        for load in 0..3i64 {
            for i in 0..12i64 {
                let path = match i {
                    0 => "/offers/7",
                    1 => "/static/app.js",
                    _ => "/static/hero.png",
                };
                let e = entry("10.0.3.3", load * 75 + i, "GET", path, 200, BROWSER_UA);
                n += 1;
                assert_eq!(
                    decide(&mut triage, &e),
                    TriageDecision::Benign,
                    "request {n}"
                );
            }
        }
    }

    #[test]
    fn slow_client_with_js_never_trips_pacing() {
        // One page + one js per minute: no burst pair, human mean gap.
        let mut triage = FastTriage::stock();
        for i in 0..60i64 {
            let path = if i % 2 == 0 {
                "/offers/4"
            } else {
                "/static/app.js"
            };
            let e = entry("10.0.3.2", i * 31, "GET", path, 200, BROWSER_UA);
            if i + 1 >= MAX_QUIET_REQUESTS as i64 {
                break;
            }
            assert_eq!(
                decide(&mut triage, &e),
                TriageDecision::Benign,
                "request {i}"
            );
        }
    }

    #[test]
    fn safety_valve_bounds_quiet_clients() {
        let mut triage = FastTriage::stock();
        let mut decisions = Vec::new();
        for i in 0..(MAX_QUIET_REQUESTS + 2) {
            let path = if i % 2 == 0 {
                "/offers/5"
            } else {
                "/static/app.js"
            };
            // Spread far apart so no pacing pair arms.
            let e = entry("10.0.4.1", i as i64 * 120, "GET", path, 200, BROWSER_UA);
            decisions.push(decide(&mut triage, &e));
        }
        let first_escalation = decisions
            .iter()
            .position(|d| *d == TriageDecision::Escalate)
            .expect("safety valve fires");
        assert_eq!(first_escalation as u64 + 1, MAX_QUIET_REQUESTS);
        assert!(decisions[first_escalation + 1..]
            .iter()
            .all(|d| *d == TriageDecision::Escalated));
    }

    #[test]
    fn eviction_forgets_escalation_in_lockstep() {
        let mut triage = FastTriage::stock();
        triage.set_eviction(EvictionConfig::ttl(1_800));
        let tool = entry("10.0.5.1", 0, "GET", "/offers/1", 200, "curl/7.58.0");
        assert_eq!(decide(&mut triage, &tool), TriageDecision::Escalate);
        // Returning within the TTL: still remembered.
        let soon = entry("10.0.5.1", 60, "GET", "/offers/2", 200, "curl/7.58.0");
        assert_eq!(decide(&mut triage, &soon), TriageDecision::Escalated);
        // Long idle: state evicted, identity re-escalates fresh.
        let later = entry(
            "10.0.5.1",
            60 + 1_801 + 1_801,
            "GET",
            "/offers/3",
            200,
            "curl/7.58.0",
        );
        assert_eq!(decide(&mut triage, &later), TriageDecision::Escalate);
        assert!(triage.eviction_stats().evicted_clients > 0);
    }

    #[test]
    fn policy_clone_starts_with_fresh_state() {
        let mut triage = FastTriage::stock();
        let tool = entry("10.0.6.1", 0, "GET", "/offers/1", 200, "curl/7.58.0");
        assert_eq!(decide(&mut triage, &tool), TriageDecision::Escalate);
        let mut copy = triage.clone_boxed();
        assert_eq!(copy.classify(&tool.view()), TriageDecision::Escalate);
    }

    #[test]
    fn ua_cache_computes_once_per_distinct_agent() {
        let mut cache = UaIdentityCache::new(8);
        let mut scans = 0u32;
        for _ in 0..100 {
            for ua in ["agent-a", "agent-b"] {
                let flagged = cache.resolve(ua, |ua| {
                    scans += 1;
                    ua == "agent-b"
                });
                assert_eq!(flagged, ua == "agent-b");
            }
        }
        assert_eq!(scans, 2, "one signature sweep per distinct agent");
    }

    #[test]
    fn ua_cache_growth_is_bounded_and_stays_correct() {
        let cap = 8;
        let mut cache = UaIdentityCache::new(cap);
        // A hostile stream of unique agents never exceeds two generations.
        for i in 0..10 * cap {
            let ua = format!("one-off/{i}");
            assert!(cache.resolve(&ua, |ua| ua.ends_with('7')) == ua.ends_with('7'));
            assert!(cache.len() <= 2 * cap, "cache grew past 2x cap");
        }
        // A popular agent keeps resolving correctly (re-scanned or
        // promoted across swaps, never stale) amid the churn.
        for i in 0..4 * cap {
            assert!(cache.resolve("popular", |_| true));
            let ua = format!("churn/{i}");
            let _ = cache.resolve(&ua, |_| false);
        }
        assert!(cache.len() <= 2 * cap);
    }

    #[test]
    fn distinct_agent_churn_does_not_leak_filter_memory() {
        // End-to-end: one client per unique agent string, far past the
        // cache cap — the filter's UA cache must stay bounded.
        let mut triage = FastTriage::stock();
        for i in 0..(UA_CACHE_CAP / 2) {
            let ip = format!("10.{}.{}.{}", i / 65536 % 256, i / 256 % 256, i % 256);
            let e = entry(
                &ip,
                i as i64,
                "GET",
                "/offers/1",
                200,
                &format!("curl/{i}.0"),
            );
            assert_eq!(decide(&mut triage, &e), TriageDecision::Escalate);
        }
        assert!(triage.ua_cache.len() <= 2 * UA_CACHE_CAP);
    }
}
