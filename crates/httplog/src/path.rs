//! Request-target paths.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Coarse classification of what a request target is for.
///
/// Detectors care about the *mix* of resource classes in a session far more
/// than about individual URLs: humans interleave page views with asset loads,
/// scrapers fetch page after page with no assets, and scanners hit probe
/// paths that legitimate navigation never touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ResourceClass {
    /// An HTML page (`/`, `/search`, `/offers/..`, `/booking/..`).
    Page,
    /// A static asset (css/js/images/fonts).
    Asset,
    /// A JSON/XML API endpoint (`/api/..`).
    Api,
    /// `robots.txt` — fetched by well-behaved crawlers, ignored by most bots.
    RobotsTxt,
    /// Site map (`/sitemap.xml`).
    Sitemap,
    /// Favicon.
    Favicon,
    /// A health/monitoring endpoint (`/health`, `/ping`, `/status`).
    Health,
    /// Anything that looks like vulnerability probing (`/wp-admin`,
    /// `/.env`, `/phpmyadmin`, traversal sequences, ...).
    Probe,
    /// None of the above.
    Other,
}

impl ResourceClass {
    /// Classifies a path component (everything before `?`) **without
    /// allocating** — byte-for-byte the same answer as
    /// [`RequestPath::resource_class`] on a target with the same path
    /// component. This is the hot-path form used by the borrowed-entry
    /// spine ([`EntryRef`](crate::EntryRef)); the equivalence is pinned
    /// by property tests in [`view`](crate::view).
    pub fn classify(path: &str) -> ResourceClass {
        use crate::ascii::{ends_with_ignore_case, eq_ignore_case, starts_with_ignore_case};
        if contains_probe_marker(path) {
            return ResourceClass::Probe;
        }
        if eq_ignore_case(path, "/robots.txt") {
            return ResourceClass::RobotsTxt;
        }
        if eq_ignore_case(path, "/sitemap.xml")
            || starts_with_ignore_case(path, "/sitemap") && ends_with_ignore_case(path, ".xml")
        {
            return ResourceClass::Sitemap;
        }
        if eq_ignore_case(path, "/favicon.ico") {
            return ResourceClass::Favicon;
        }
        if eq_ignore_case(path, "/health")
            || eq_ignore_case(path, "/ping")
            || eq_ignore_case(path, "/status")
        {
            return ResourceClass::Health;
        }
        if has_asset_suffix(path) {
            return ResourceClass::Asset;
        }
        if starts_with_ignore_case(path, "/api/") || eq_ignore_case(path, "/api") {
            return ResourceClass::Api;
        }
        if eq_ignore_case(path, "/")
            || starts_with_ignore_case(path, "/search")
            || starts_with_ignore_case(path, "/offers")
            || starts_with_ignore_case(path, "/booking")
            || starts_with_ignore_case(path, "/deals")
            || starts_with_ignore_case(path, "/destinations")
            || ends_with_ignore_case(path, ".html")
        {
            return ResourceClass::Page;
        }
        ResourceClass::Other
    }

    /// Whether requests of this class are normally produced by a browser
    /// rendering a page (pages and the subresources they pull in).
    pub fn is_browser_initiated(self) -> bool {
        matches!(
            self,
            ResourceClass::Page
                | ResourceClass::Asset
                | ResourceClass::Favicon
                | ResourceClass::Api
        )
    }
}

const ASSET_SUFFIXES: [&str; 12] = [
    ".css", ".js", ".png", ".jpg", ".jpeg", ".gif", ".svg", ".woff", ".woff2", ".ico", ".ttf",
    ".map",
];

const PROBE_MARKERS: [&str; 12] = [
    "/wp-admin",
    "/wp-login",
    "/.env",
    "/phpmyadmin",
    "/.git",
    "/etc/passwd",
    "..%2f",
    "/cgi-bin",
    "/admin.php",
    "/config.php",
    "/vendor/phpunit",
    "/shell",
];

/// Single pass over `path` testing every probe marker at once — the
/// same answer as running `contains_ignore_case(path, m)` for each `m`
/// in [`PROBE_MARKERS`] (pinned by [`tests::probe_scan_matches_marker_loop`]).
/// Every marker starts with `/` or `.` and those anchor bytes have no
/// case, so each candidate window begins at an anchor byte; the scan
/// dispatches on the lowercased byte after the anchor instead of
/// re-walking the haystack once per marker.
fn contains_probe_marker(path: &str) -> bool {
    let b = path.as_bytes();
    let tail = |i: usize, needle: &str| {
        let n = needle.as_bytes();
        b.len() - i >= n.len() && b[i..i + n.len()].eq_ignore_ascii_case(n)
    };
    for i in 0..b.len() {
        match b[i] {
            b'/' => {
                let Some(next) = b.get(i + 1) else { break };
                let hit = match next.to_ascii_lowercase() {
                    b'w' => tail(i, "/wp-admin") || tail(i, "/wp-login"),
                    b'.' => tail(i, "/.env") || tail(i, "/.git"),
                    b'p' => tail(i, "/phpmyadmin"),
                    b'e' => tail(i, "/etc/passwd"),
                    b'c' => tail(i, "/cgi-bin") || tail(i, "/config.php"),
                    b'a' => tail(i, "/admin.php"),
                    b'v' => tail(i, "/vendor/phpunit"),
                    b's' => tail(i, "/shell"),
                    _ => false,
                };
                if hit {
                    return true;
                }
            }
            b'.' if tail(i, "..%2f") => return true,
            _ => {}
        }
    }
    false
}

/// `ends_with_ignore_case(path, s)` for any `s` in [`ASSET_SUFFIXES`],
/// dispatching on the lowercased final byte instead of testing all
/// twelve suffixes (pinned by [`tests::asset_suffix_scan_matches_suffix_loop`]).
fn has_asset_suffix(path: &str) -> bool {
    use crate::ascii::ends_with_ignore_case;
    let Some(last) = path.as_bytes().last() else {
        return false;
    };
    let ends = |s: &str| ends_with_ignore_case(path, s);
    match last.to_ascii_lowercase() {
        b's' => ends(".css") || ends(".js"),
        b'g' => ends(".png") || ends(".jpg") || ends(".jpeg") || ends(".svg"),
        b'f' => ends(".gif") || ends(".woff") || ends(".ttf"),
        b'2' => ends(".woff2"),
        b'o' => ends(".ico"),
        b'p' => ends(".map"),
        _ => false,
    }
}

/// A parsed request target: path plus optional query string.
///
/// ```
/// use divscrape_httplog::{RequestPath, ResourceClass};
///
/// let p = RequestPath::parse("/search?q=NCE-LHR&page=2");
/// assert_eq!(p.path(), "/search");
/// assert_eq!(p.query(), Some("q=NCE-LHR&page=2"));
/// assert_eq!(p.query_param("page"), Some("2"));
/// assert_eq!(p.resource_class(), ResourceClass::Page);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RequestPath {
    raw: String,
    query_start: Option<usize>,
}

impl RequestPath {
    /// Parses a request target. Never fails: malformed targets are preserved
    /// verbatim (real access logs contain plenty), classified as
    /// [`ResourceClass::Other`] or [`ResourceClass::Probe`] as appropriate.
    pub fn parse(raw: &str) -> Self {
        let mut path = Self {
            raw: String::new(),
            query_start: None,
        };
        path.set(raw);
        path
    }

    /// Re-parses `raw` into this value, reusing its text buffer.
    pub(crate) fn set(&mut self, raw: &str) {
        self.raw.clear();
        self.raw.push_str(raw);
        self.query_start = raw.find('?');
    }

    /// The full raw target, exactly as logged.
    pub fn as_str(&self) -> &str {
        &self.raw
    }

    /// The path component (everything before `?`).
    pub fn path(&self) -> &str {
        match self.query_start {
            Some(i) => &self.raw[..i],
            None => &self.raw,
        }
    }

    /// The query string (everything after `?`), if present.
    pub fn query(&self) -> Option<&str> {
        self.query_start.map(|i| &self.raw[i + 1..])
    }

    /// Looks up a query parameter by exact key. Returns the first match.
    /// A key present without `=` yields `Some("")`.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query()?.split('&').find_map(|pair| {
            let (k, v) = match pair.split_once('=') {
                Some((k, v)) => (k, v),
                None => (pair, ""),
            };
            (k == key).then_some(v)
        })
    }

    /// Number of query parameters (0 when there is no query string).
    pub fn query_param_count(&self) -> usize {
        self.query().map_or(0, |q| {
            if q.is_empty() {
                0
            } else {
                q.split('&').count()
            }
        })
    }

    /// Path segments, excluding empty ones: `/a/b/` → `["a", "b"]`.
    pub fn segments(&self) -> impl Iterator<Item = &str> {
        self.path().split('/').filter(|s| !s.is_empty())
    }

    /// Path depth (number of non-empty segments).
    pub fn depth(&self) -> usize {
        self.segments().count()
    }

    /// Classifies the target. See [`ResourceClass`].
    pub fn resource_class(&self) -> ResourceClass {
        let path = self.path();
        let lower = path.to_ascii_lowercase();

        for marker in PROBE_MARKERS {
            if lower.contains(marker) {
                return ResourceClass::Probe;
            }
        }
        if lower == "/robots.txt" {
            return ResourceClass::RobotsTxt;
        }
        if lower == "/sitemap.xml" || lower.starts_with("/sitemap") && lower.ends_with(".xml") {
            return ResourceClass::Sitemap;
        }
        if lower == "/favicon.ico" {
            return ResourceClass::Favicon;
        }
        if lower == "/health" || lower == "/ping" || lower == "/status" {
            return ResourceClass::Health;
        }
        if ASSET_SUFFIXES.iter().any(|s| lower.ends_with(s)) {
            return ResourceClass::Asset;
        }
        if lower.starts_with("/api/") || lower == "/api" {
            return ResourceClass::Api;
        }
        if lower == "/"
            || lower.starts_with("/search")
            || lower.starts_with("/offers")
            || lower.starts_with("/booking")
            || lower.starts_with("/deals")
            || lower.starts_with("/destinations")
            || lower.ends_with(".html")
        {
            return ResourceClass::Page;
        }
        ResourceClass::Other
    }
}

impl fmt::Display for RequestPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.raw)
    }
}

impl From<&str> for RequestPath {
    fn from(raw: &str) -> Self {
        RequestPath::parse(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_path_and_query() {
        let p = RequestPath::parse("/offers/123?currency=EUR&lang=en");
        assert_eq!(p.path(), "/offers/123");
        assert_eq!(p.query(), Some("currency=EUR&lang=en"));
        assert_eq!(p.query_param("currency"), Some("EUR"));
        assert_eq!(p.query_param("lang"), Some("en"));
        assert_eq!(p.query_param("missing"), None);
        assert_eq!(p.query_param_count(), 2);
    }

    #[test]
    fn handles_no_query() {
        let p = RequestPath::parse("/");
        assert_eq!(p.path(), "/");
        assert_eq!(p.query(), None);
        assert_eq!(p.query_param_count(), 0);
        assert_eq!(p.depth(), 0);
    }

    #[test]
    fn handles_empty_query_and_flag_params() {
        let p = RequestPath::parse("/search?");
        assert_eq!(p.query(), Some(""));
        assert_eq!(p.query_param_count(), 0);
        let q = RequestPath::parse("/search?debug&x=1");
        assert_eq!(q.query_param("debug"), Some(""));
        assert_eq!(q.query_param("x"), Some("1"));
    }

    #[test]
    fn segments_skip_empties() {
        let p = RequestPath::parse("//offers//123/");
        let segs: Vec<_> = p.segments().collect();
        assert_eq!(segs, vec!["offers", "123"]);
        assert_eq!(p.depth(), 2);
    }

    #[test]
    fn classification_covers_the_site_model() {
        let cases = [
            ("/", ResourceClass::Page),
            ("/search?q=x", ResourceClass::Page),
            ("/offers/42", ResourceClass::Page),
            ("/booking/checkout", ResourceClass::Page),
            ("/static/app.js", ResourceClass::Asset),
            ("/img/logo.png?v=3", ResourceClass::Asset),
            ("/api/v1/fares", ResourceClass::Api),
            ("/robots.txt", ResourceClass::RobotsTxt),
            ("/sitemap.xml", ResourceClass::Sitemap),
            ("/sitemap-offers.xml", ResourceClass::Sitemap),
            ("/favicon.ico", ResourceClass::Favicon),
            ("/health", ResourceClass::Health),
            ("/wp-admin/setup.php", ResourceClass::Probe),
            ("/.env", ResourceClass::Probe),
            ("/a/..%2f..%2fetc/passwd", ResourceClass::Probe),
            ("/something-else", ResourceClass::Other),
        ];
        for (raw, expected) in cases {
            assert_eq!(
                RequestPath::parse(raw).resource_class(),
                expected,
                "misclassified {raw}"
            );
        }
    }

    #[test]
    fn probe_detection_beats_asset_suffix() {
        // `.env` probes should never be classified as assets even with
        // suffix-looking names.
        let p = RequestPath::parse("/.git/config.js");
        assert_eq!(p.resource_class(), ResourceClass::Probe);
    }

    #[test]
    fn display_round_trips_raw() {
        let raw = "/offers/99?x=1&y=2";
        assert_eq!(RequestPath::parse(raw).to_string(), raw);
        assert_eq!(RequestPath::from(raw).as_str(), raw);
    }

    /// Exhaustive-ish corpus for the scan-vs-loop equivalence tests:
    /// every marker/suffix verbatim, uppercased, embedded mid-path,
    /// truncated, and near-miss variants.
    fn scan_corpus() -> Vec<String> {
        let mut corpus: Vec<String> = [
            "",
            "/",
            "/offers/42",
            "/search?q=x",
            "/static/app.js",
            "/A/B/C",
            "/.",
            "/..",
            "/wp",
            "/wp-",
            "/wp-admi",
            "/shel",
            "/shellx",
            "/x/shell",
            "/conf.php",
            "/a/..%2",
            "..%2f",
            "..%2F",
            "/a/..%2f/etc/passwd",
            "/.envy",
            "/.gitignore",
            "/file.jpg",
            "/file.JPEG?x=1",
            "/file.jpgx",
            "/woff2",
            ".css",
            "/a.tar.css",
            "/a.css.bak",
            "/x.ph",
            "/etc/passw",
            "/vendor/phpuni",
        ]
        .into_iter()
        .map(str::to_owned)
        .collect();
        for marker in PROBE_MARKERS {
            corpus.push(marker.to_owned());
            corpus.push(marker.to_ascii_uppercase());
            corpus.push(format!("/pre{marker}/post"));
            corpus.push(marker[..marker.len() - 1].to_owned());
        }
        for suffix in ASSET_SUFFIXES {
            corpus.push(format!("/static/app{suffix}"));
            corpus.push(format!("/static/app{}", suffix.to_ascii_uppercase()));
            corpus.push(format!("/static/app{suffix}.bak"));
            corpus.push(suffix.to_owned());
        }
        corpus
    }

    #[test]
    fn probe_scan_matches_marker_loop() {
        use crate::ascii::contains_ignore_case;
        for path in scan_corpus() {
            let reference = PROBE_MARKERS.iter().any(|m| contains_ignore_case(&path, m));
            assert_eq!(
                contains_probe_marker(&path),
                reference,
                "probe scan diverged on {path:?}"
            );
        }
    }

    #[test]
    fn asset_suffix_scan_matches_suffix_loop() {
        use crate::ascii::ends_with_ignore_case;
        for path in scan_corpus() {
            let reference = ASSET_SUFFIXES
                .iter()
                .any(|s| ends_with_ignore_case(&path, s));
            assert_eq!(
                has_asset_suffix(&path),
                reference,
                "asset suffix scan diverged on {path:?}"
            );
        }
    }

    #[test]
    fn browser_initiated_predicate() {
        assert!(ResourceClass::Page.is_browser_initiated());
        assert!(ResourceClass::Asset.is_browser_initiated());
        assert!(!ResourceClass::Probe.is_browser_initiated());
        assert!(!ResourceClass::RobotsTxt.is_browser_initiated());
    }
}
