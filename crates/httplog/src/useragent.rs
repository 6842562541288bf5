//! User-agent strings and their coarse classification.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Coarse family of a user-agent string.
///
/// This mirrors what signature-based detectors actually key on: not the exact
/// browser build, but whether the string claims to be a mainstream browser, a
/// self-identified crawler, an HTTP library, or something empty/garbled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AgentFamily {
    /// A mainstream browser (Chrome/Firefox/Safari/Edge/MSIE lineage).
    Browser,
    /// A self-identified well-known crawler (Googlebot, Bingbot, ...).
    KnownCrawler,
    /// A generic HTTP tool or library (curl, wget, python-requests, Go, Java...).
    HttpTool,
    /// A self-identified monitoring agent (Pingdom, UptimeRobot, ...).
    Monitor,
    /// Empty user-agent field (`-` in the log).
    Empty,
    /// Anything else.
    Unknown,
}

const CRAWLER_MARKERS: [&str; 8] = [
    "googlebot",
    "bingbot",
    "yandexbot",
    "duckduckbot",
    "baiduspider",
    "slurp",
    "applebot",
    "facebookexternalhit",
];

const TOOL_MARKERS: [&str; 12] = [
    "curl/",
    "wget/",
    "python-requests",
    "python-urllib",
    "scrapy",
    "go-http-client",
    "java/",
    "okhttp",
    "libwww-perl",
    "httpclient",
    "aiohttp",
    "node-fetch",
];

const MONITOR_MARKERS: [&str; 4] = ["pingdom", "uptimerobot", "statuscake", "site24x7"];

impl AgentFamily {
    /// Classifies a raw user-agent string **without allocating** —
    /// byte-for-byte the same answer as
    /// [`UserAgent::family`] on the same (already `-`-normalised)
    /// string. This is the hot-path form used by the borrowed-entry
    /// spine ([`EntryRef`](crate::EntryRef)); the equivalence is pinned
    /// by property tests in [`view`](crate::view).
    pub fn classify(raw: &str) -> AgentFamily {
        use crate::ascii::{contains_ignore_case, starts_with_ignore_case};
        if raw.is_empty() {
            return AgentFamily::Empty;
        }
        if CRAWLER_MARKERS.iter().any(|m| contains_ignore_case(raw, m)) {
            return AgentFamily::KnownCrawler;
        }
        if MONITOR_MARKERS.iter().any(|m| contains_ignore_case(raw, m)) {
            return AgentFamily::Monitor;
        }
        if TOOL_MARKERS.iter().any(|m| contains_ignore_case(raw, m)) {
            return AgentFamily::HttpTool;
        }
        if starts_with_ignore_case(raw, "mozilla/") {
            return AgentFamily::Browser;
        }
        AgentFamily::Unknown
    }
}

/// A user-agent string as logged, with lazy classification.
///
/// ```
/// use divscrape_httplog::{AgentFamily, UserAgent};
///
/// let ua = UserAgent::new("Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36");
/// assert_eq!(ua.family(), AgentFamily::Browser);
/// assert!(!ua.is_empty());
///
/// let bot = UserAgent::new("Mozilla/5.0 (compatible; Googlebot/2.1)");
/// assert_eq!(bot.family(), AgentFamily::KnownCrawler);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct UserAgent {
    raw: String,
}

impl UserAgent {
    /// Wraps a raw user-agent string. `"-"` (the CLF empty marker) is
    /// normalised to the empty string so that all absent agents compare
    /// equal.
    pub fn new(raw: impl Into<String>) -> Self {
        let raw = raw.into();
        Self {
            raw: if raw == "-" { String::new() } else { raw },
        }
    }

    /// Overwrites the string in place with [`new`](Self::new)'s
    /// normalisation, reusing the buffer.
    pub(crate) fn set(&mut self, raw: &str) {
        self.raw.clear();
        if raw != "-" {
            self.raw.push_str(raw);
        }
    }

    /// The absent user agent.
    pub fn empty() -> Self {
        Self { raw: String::new() }
    }

    /// The raw string (empty for an absent agent).
    pub fn as_str(&self) -> &str {
        &self.raw
    }

    /// Whether the user-agent field was absent.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Classifies the agent string. See [`AgentFamily`].
    pub fn family(&self) -> AgentFamily {
        if self.is_empty() {
            return AgentFamily::Empty;
        }
        let lower = self.raw.to_ascii_lowercase();
        if CRAWLER_MARKERS.iter().any(|m| lower.contains(m)) {
            return AgentFamily::KnownCrawler;
        }
        if MONITOR_MARKERS.iter().any(|m| lower.contains(m)) {
            return AgentFamily::Monitor;
        }
        if TOOL_MARKERS.iter().any(|m| lower.contains(m)) {
            return AgentFamily::HttpTool;
        }
        if lower.starts_with("mozilla/") {
            return AgentFamily::Browser;
        }
        AgentFamily::Unknown
    }

    /// A stable 64-bit hash of the raw string (FNV-1a). Used to key session
    /// state on (address, agent) pairs without storing the string twice.
    pub fn fingerprint(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self.raw.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
        hash
    }
}

impl fmt::Display for UserAgent {
    /// Renders in log form: `-` when absent, the raw string otherwise.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            f.write_str("-")
        } else {
            f.write_str(&self.raw)
        }
    }
}

impl From<&str> for UserAgent {
    fn from(raw: &str) -> Self {
        UserAgent::new(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_browsers() {
        for ua in [
            "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/64.0 Safari/537.36",
            "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_13) AppleWebKit/604.5.6 Version/11.0 Safari/604.5.6",
            "Mozilla/5.0 (X11; Ubuntu; Linux x86_64; rv:58.0) Gecko/20100101 Firefox/58.0",
        ] {
            assert_eq!(UserAgent::new(ua).family(), AgentFamily::Browser, "{ua}");
        }
    }

    #[test]
    fn classifies_crawlers_even_with_mozilla_prefix() {
        let ua = UserAgent::new(
            "Mozilla/5.0 (compatible; bingbot/2.0; +http://www.bing.com/bingbot.htm)",
        );
        assert_eq!(ua.family(), AgentFamily::KnownCrawler);
    }

    #[test]
    fn classifies_tools() {
        for ua in [
            "curl/7.58.0",
            "Wget/1.19.4 (linux-gnu)",
            "python-requests/2.18.4",
            "Go-http-client/1.1",
            "Java/1.8.0_151",
            "Scrapy/1.5.0 (+https://scrapy.org)",
        ] {
            assert_eq!(UserAgent::new(ua).family(), AgentFamily::HttpTool, "{ua}");
        }
    }

    #[test]
    fn classifies_monitors() {
        let ua = UserAgent::new("Pingdom.com_bot_version_1.4_(http://www.pingdom.com/)");
        assert_eq!(ua.family(), AgentFamily::Monitor);
    }

    #[test]
    fn empty_forms() {
        assert_eq!(UserAgent::new("").family(), AgentFamily::Empty);
        assert_eq!(UserAgent::new("-").family(), AgentFamily::Empty);
        assert_eq!(UserAgent::empty().family(), AgentFamily::Empty);
        assert_eq!(UserAgent::empty().to_string(), "-");
        assert!(UserAgent::new("-").is_empty());
    }

    #[test]
    fn unknown_is_the_fallback() {
        assert_eq!(
            UserAgent::new("TotallyCustomAgent/0.1").family(),
            AgentFamily::Unknown
        );
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        let a = UserAgent::new("curl/7.58.0");
        let b = UserAgent::new("curl/7.58.0");
        let c = UserAgent::new("curl/7.58.1");
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn display_round_trips_nonempty() {
        let raw = "Mozilla/5.0 (X11; Linux x86_64)";
        assert_eq!(UserAgent::new(raw).to_string(), raw);
    }
}
