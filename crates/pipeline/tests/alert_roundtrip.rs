//! Property test: [`Alert::from_json`] inverts the alert JSON
//! rendering. Every field — hostile strings included — must survive
//! `render → parse → render` with the second rendering byte-identical
//! to the first, so stored alert history ([`divscrape_store`]) and
//! retro-scoring tools can trust the parsed form completely.
//!
//! The borrowed renderers ([`Alert::write_json`],
//! [`ScoredEntry::write_json`]) are held to the same strings: they must
//! produce, appended to whatever the buffer already holds, exactly what
//! a formatter-and-temporaries rendering of the same fields produces.

use std::net::Ipv4Addr;

use divscrape_httplog::{
    ClfTimestamp, HttpMethod, HttpStatus, HttpVersion, LogEntry, RequestLine, RequestPath,
};
use divscrape_pipeline::{Alert, AlertRecord, ScoreRecord, ScoredEntry, TenantId};
use proptest::prelude::*;
use proptest::{collection, option, sample};

/// Character pool spanning every class the JSON escaper treats
/// specially: plain ASCII, the two mandatory escapes (`"`, `\`), the
/// named control escapes, arbitrary control characters (`\u` escapes on
/// output), and multi-byte UTF-8 up to a non-BMP emoji.
const CHARS: &[char] = &[
    'a', 'Z', '7', '/', '?', '=', '.', '-', ' ', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}',
    'é', 'Ω', '→', '🛒',
];

/// Strategy for a string drawn from the hostile pool.
fn hostile(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<char>> {
    collection::vec(sample::select(CHARS.to_vec()), len)
}

/// JSON string escaping, one `char` at a time through the formatter —
/// the plain statement of what the sinks' run-copying escaper must do.
fn escaped(s: &str) -> String {
    let mut out = String::new();
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// `{"index":N[,"tenant":"T"]`, then `,"votes":[..],"scores":[..]` —
/// the pieces both line formats share, rendered through `format!`.
fn head(index: u64, tenant: Option<&TenantId>) -> String {
    match tenant {
        Some(tenant) => format!(
            "{{\"index\":{index},\"tenant\":\"{}\"",
            escaped(tenant.as_str())
        ),
        None => format!("{{\"index\":{index}"),
    }
}

fn verdicts(votes: &[bool], scores: &[f32]) -> String {
    let votes: Vec<String> = votes.iter().map(bool::to_string).collect();
    let scores: Vec<String> = scores.iter().map(|s| format!("{s:.2}")).collect();
    format!(
        ",\"votes\":[{}],\"scores\":[{}]",
        votes.join(","),
        scores.join(",")
    )
}

proptest! {
    #[test]
    fn borrowed_renderers_append_the_reference_rendering(
        index in 0u64..u64::MAX,
        tenant in option::of(hostile(1..10)),
        epoch in -70_000_000_000i64..300_000_000_000,
        octets in (0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255),
        agent in hostile(0..16),
        path in hostile(1..24),
        status in 100u16..600,
        alerted in any::<bool>(),
        votes in collection::vec(any::<bool>(), 0..6),
        score_cents in collection::vec(-200i32..1_200, 0..6),
        prefix in hostile(0..12),
    ) {
        let tenant = tenant.map(|name| TenantId::new(name.into_iter().collect::<String>()));
        let agent: String = agent.into_iter().collect();
        let path: String = path.into_iter().collect();
        let prefix: String = prefix.into_iter().collect();
        // Off-grid scores too: thousandths land on and around ties.
        let scores: Vec<f32> = score_cents.iter().map(|&c| c as f32 / 1000.0).collect();
        let entry = LogEntry::builder()
            .addr(Ipv4Addr::new(octets.0, octets.1, octets.2, octets.3))
            .timestamp(ClfTimestamp::from_epoch_seconds(epoch))
            .request(RequestLine::new(
                HttpMethod::Get,
                RequestPath::parse(&path),
                HttpVersion::Http11,
            ))
            .status(HttpStatus::new(status).expect("status in range"))
            .user_agent(agent.as_str())
            .build()
            .expect("mandatory fields set");

        let alert = Alert {
            index,
            tenant: tenant.as_ref(),
            entry: &entry,
            votes: &votes,
            scores: &scores,
        };
        let expected = format!(
            "{},\"time\":\"{}\",\"client\":\"{}\",\"agent\":\"{}\",\"method\":\"GET\",\"path\":\"{}\",\"status\":{status}{}}}",
            head(index, tenant.as_ref()),
            entry.timestamp(),
            entry.addr(),
            // `UserAgent` normalises the CLF empty marker to absent.
            escaped(if agent == "-" { "" } else { &agent }),
            escaped(&path),
            verdicts(&votes, &scores),
        );
        prop_assert_eq!(alert.to_json(), expected.as_str());
        let mut buffer = prefix.clone();
        alert.write_json(&mut buffer);
        prop_assert_eq!(buffer, format!("{prefix}{expected}"));
        // The owned form renders through the same helpers.
        let parsed = Alert::from_json(&expected).unwrap_or_else(|e| panic!("{e}: {expected}"));
        prop_assert_eq!(parsed.to_json(), expected);

        let scored = ScoredEntry {
            index,
            tenant: tenant.as_ref(),
            entry: &entry,
            alerted,
            votes: &votes,
            scores: &scores,
        };
        let expected = format!(
            "{},\"alerted\":{alerted}{},\"line\":\"{}\"}}",
            head(index, tenant.as_ref()),
            verdicts(&votes, &scores),
            escaped(&entry.to_string()),
        );
        prop_assert_eq!(scored.to_json(), expected.as_str());
        let mut buffer = prefix.clone();
        scored.write_json(&mut buffer);
        prop_assert_eq!(buffer, format!("{prefix}{expected}"));
        let parsed = ScoreRecord::from_json(&expected).unwrap_or_else(|e| panic!("{e}: {expected}"));
        prop_assert_eq!(parsed.to_json(), expected);
    }

    #[test]
    fn alert_json_round_trips(
        index in 0u64..u64::MAX,
        tenant in option::of(hostile(1..10)),
        time in hostile(0..24),
        octets in (0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255),
        agent in hostile(0..16),
        method in hostile(0..8),
        path in hostile(0..24),
        status in 100u16..1000,
        votes in collection::vec(any::<bool>(), 0..6),
        score_cents in collection::vec(-10_000i32..10_000, 0..6),
    ) {
        let record = AlertRecord {
            index,
            tenant: tenant.map(|name| TenantId::new(name.into_iter().collect::<String>())),
            time: time.into_iter().collect(),
            client: Ipv4Addr::new(octets.0, octets.1, octets.2, octets.3),
            agent: agent.into_iter().collect(),
            method: method.into_iter().collect(),
            path: path.into_iter().collect(),
            status,
            // Scores render with two decimals, so only grid values can
            // round-trip the in-memory form exactly; the JSON form
            // round-trips regardless.
            scores: score_cents.iter().map(|&c| c as f32 / 100.0).collect(),
            votes,
        };
        let json = record.to_json();
        let parsed = Alert::from_json(&json).unwrap_or_else(|e| panic!("{e}: {json}"));
        prop_assert_eq!(&parsed, &record);
        prop_assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn garbage_never_panics_the_parser(
        bytes in collection::vec(sample::select(CHARS.to_vec()), 0..40),
    ) {
        // Arbitrary non-JSON input must come back as a structured error
        // (or, vanishingly unlikely from this pool, a valid alert) —
        // never a panic.
        let input: String = bytes.into_iter().collect();
        let _ = Alert::from_json(&input);
    }
}
