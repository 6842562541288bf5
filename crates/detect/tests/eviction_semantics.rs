//! Eviction-layer semantics, held across detectors:
//!
//! 1. **Fresh-session**: a client evicted by TTL returns and is treated
//!    as a brand-new session (the paper-aligned session-timeout
//!    behaviour).
//! 2. **Capacity bound**: a long synthetic stream over many clients
//!    never pushes any state table past the configured capacity.
//! 3. **Verdict preservation**: with a TTL at least as long as a
//!    detector's own session timeout, eviction changes no verdict for
//!    session-scoped detectors.
//! 4. **Batch equivalence**: the amortized `observe_batch_refs` paths remain
//!    verdict-identical to the per-entry loop with eviction enabled.

use std::net::Ipv4Addr;

use divscrape_detect::baselines::RateLimiter;
use divscrape_detect::{
    run, run_alerts, Arcane, Detector, EvictionConfig, Sentinel, Sessionizer, SessionizerConfig,
    TrapDetector,
};
use divscrape_httplog::{ClfTimestamp, HttpStatus, LogEntry};
use divscrape_traffic::{generate, ScenarioConfig};

const BROWSER: &str = "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/64.0.3282.186 Safari/537.36";

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

/// A long synthetic stream cycling through many distinct clients — far
/// more than any capacity bound under test — in timestamp order.
fn many_client_stream(clients: u32, requests: u32) -> Vec<LogEntry> {
    (0..requests)
        .map(|i| {
            let c = i % clients;
            entry(
                Ipv4Addr::new(81, 3, (c / 256) as u8, (c % 256) as u8),
                i64::from(i),
                &format!("/offers/{}", i % 37),
                BROWSER,
            )
        })
        .collect()
}

#[test]
fn ttl_evicted_client_returns_as_a_fresh_session() {
    // TTL shorter than the sessionizer's idle timeout, so eviction (not
    // the idle restart) is what forgets the client.
    let mut sessions = Sessionizer::new(SessionizerConfig {
        idle_timeout_secs: 10_000,
    });
    sessions.set_eviction(EvictionConfig::ttl(600));
    let addr = Ipv4Addr::new(81, 2, 10, 30);
    for i in 0..8 {
        sessions.observe(&entry(addr, i * 30, &format!("/offers/{i}"), BROWSER).view());
    }
    // Another client's traffic after the TTL reaps the idle session.
    sessions.observe(&entry(Ipv4Addr::new(81, 2, 10, 31), 2_000, "/a", BROWSER).view());
    assert_eq!(sessions.eviction_stats().evicted_clients, 1);
    // The original client returns inside its (long) idle timeout, but
    // after eviction: a fresh session, not request #9.
    let f = sessions.observe(&entry(addr, 2_100, "/offers/9", BROWSER).view());
    assert_eq!(f.requests, 1, "evicted client must restart fresh");
}

#[test]
fn arcane_warmup_restarts_after_ttl_eviction() {
    // Arcane needs ~a dozen bare pages to condemn a session; an evicted
    // client restarts that warm-up from zero.
    let mut arcane = Arcane::stock();
    arcane.set_eviction(EvictionConfig::ttl(600));
    let addr = Ipv4Addr::new(81, 2, 10, 40);
    let mut alerted = false;
    for i in 0..10 {
        alerted |= arcane
            .observe(&entry(addr, i * 30, &format!("/offers/{i}"), BROWSER).view())
            .alert;
    }
    assert!(!alerted, "ten slow bare pages stay under the threshold");
    // Idle past the TTL (kept visible to the table by other traffic),
    // then ten more bare pages: still no alert, because the evicted
    // session's evidence is gone.
    arcane.observe(&entry(Ipv4Addr::new(81, 2, 10, 41), 2_000, "/a", BROWSER).view());
    for i in 0..10 {
        let v =
            arcane.observe(&entry(addr, 2_100 + i * 30, &format!("/offers/{i}"), BROWSER).view());
        assert!(!v.alert, "fresh session inherited evicted evidence at {i}");
    }
}

#[test]
fn capacity_bound_holds_on_a_long_many_client_stream() {
    let cap = 64usize;
    let stream = many_client_stream(5_000, 60_000);
    // (name, detector, whether this stream even populates its table —
    // the honeytrap only tracks clients that hit the tripwire, which
    // this stream never does, so its table stays empty.)
    for (name, mut det, expect_evictions) in [
        (
            "sentinel",
            Box::new(Sentinel::stock()) as Box<dyn Detector>,
            true,
        ),
        ("arcane", Box::new(Arcane::stock()), true),
        ("rate-limiter", Box::new(RateLimiter::new(60)), true),
        ("honeytrap", Box::new(TrapDetector::default()), false),
    ] {
        det.set_eviction(EvictionConfig::capacity(cap));
        for (i, e) in stream.iter().enumerate() {
            det.observe(&e.view());
            // The bound is an invariant, not an end-state property.
            if i % 997 == 0 {
                assert!(
                    det.eviction_stats().live_clients <= cap,
                    "{name}: table exceeded capacity at entry {i}"
                );
            }
        }
        let stats = det.eviction_stats();
        assert!(
            stats.live_clients <= cap,
            "{name}: final occupancy {} over capacity {cap}",
            stats.live_clients
        );
        assert_eq!(
            stats.evicted_clients > 0,
            expect_evictions,
            "{name}: eviction count {} unexpected",
            stats.evicted_clients
        );
    }
}

#[test]
fn ttl_at_session_timeout_preserves_session_scoped_verdicts() {
    // For detectors whose state naturally expires at the session
    // timeout, a TTL >= that timeout only drops state the detector
    // would have restarted anyway: verdicts are bit-identical.
    let log = generate(&ScenarioConfig::small(2026)).unwrap();

    let mut plain = Arcane::stock();
    let mut bounded = Arcane::stock();
    bounded.set_eviction(EvictionConfig::ttl(1_800)); // == idle timeout
    assert_eq!(
        run_alerts(&mut plain, log.entries()),
        run_alerts(&mut bounded, log.entries()),
        "arcane verdicts changed under session-timeout TTL"
    );
    assert!(
        bounded.eviction_stats().evicted_clients > 0,
        "the TTL should actually have reaped idle sessions"
    );

    // The rate limiter's window drains after 60 s, so any TTL >= 60 s
    // is verdict-preserving too.
    let mut plain = RateLimiter::new(60);
    let mut bounded = RateLimiter::new(60);
    bounded.set_eviction(EvictionConfig::ttl(60));
    assert_eq!(
        run_alerts(&mut plain, log.entries()),
        run_alerts(&mut bounded, log.entries()),
        "rate limiter verdicts changed under >=60s TTL"
    );
}

#[test]
fn batch_path_stays_equivalent_to_per_entry_under_eviction() {
    let log = generate(&ScenarioConfig::small(2027)).unwrap();
    let cfg = EvictionConfig::ttl(900).with_capacity(48);
    for (name, proto) in [
        ("sentinel", Box::new(Sentinel::stock()) as Box<dyn Detector>),
        ("arcane", Box::new(Arcane::stock())),
        ("rate-limiter", Box::new(RateLimiter::new(60))),
        ("honeytrap", Box::new(TrapDetector::default())),
    ] {
        let mut batched = proto;
        batched.set_eviction(cfg);
        let via_batch = run(&mut batched, log.entries());
        batched.reset();
        // Per-entry loop on the *same* (reset) detector instance.
        let via_entries: Vec<_> = log
            .entries()
            .iter()
            .map(|e| batched.observe(&e.view()))
            .collect();
        let diverged = via_batch
            .iter()
            .zip(&via_entries)
            .filter(|(a, b)| a.alert != b.alert)
            .count();
        assert_eq!(diverged, 0, "{name}: batch path diverged under eviction");
    }
}

#[test]
fn disabled_eviction_is_bit_identical_to_untouched_detectors() {
    let log = generate(&ScenarioConfig::tiny(2028)).unwrap();
    let mut plain = Sentinel::stock();
    let mut configured = Sentinel::stock();
    configured.set_eviction(EvictionConfig::DISABLED);
    assert_eq!(
        run_alerts(&mut plain, log.entries()),
        run_alerts(&mut configured, log.entries()),
    );
    assert_eq!(configured.eviction_stats().evicted_clients, 0);
}

#[test]
fn sentinel_violator_cache_forgets_idle_violators_under_ttl() {
    // The documented trade-off: bounded memory forgives violators that
    // go quiet for longer than the TTL.
    let mut unbounded = Sentinel::stock();
    let mut bounded = Sentinel::stock();
    bounded.set_eviction(EvictionConfig::ttl(3_600));
    let addr = Ipv4Addr::new(81, 2, 10, 50);
    // Trip the challenge signal (slow bare pages, no scripts) so the
    // violator entry is behavioural, keyed on a clean browser identity.
    for s in [&mut unbounded, &mut bounded] {
        for i in 0..8 {
            s.observe(&entry(addr, i * 40, &format!("/offers/{i}"), BROWSER).view());
        }
        assert_eq!(s.flagged_clients(), 1, "challenge should have tripped");
    }
    // An innocuous request from the same client, hours past the TTL:
    let probe = entry(addr, 50_000, "/static/js/app.js", BROWSER);
    assert!(
        unbounded.observe(&probe.view()).alert,
        "unbounded violator cache alerts forever"
    );
    assert!(
        !bounded.observe(&probe.view()).alert,
        "TTL-bounded cache forgives an idle violator"
    );
}
