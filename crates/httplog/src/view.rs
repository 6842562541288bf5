//! The one entry representation on the decision path: borrowed
//! log-entry views, the per-chunk text arena, and the user-agent
//! interner.
//!
//! [`LogEntry`] owns heap `String`s for every text field, which is the
//! right shape for serialization, sinks and long-lived storage. Detectors
//! never see it: everything that decides reads an [`EntryRef`].
//!
//! * [`EntryRef`] is a `Copy` view of one record, borrowing its text
//!   from wherever the record lives — a parsed line
//!   ([`EntryRef::parse`]), an owned entry ([`LogEntry::view`]) or an
//!   [`EntryBlock`] arena. Classification (resource class, agent family,
//!   fingerprint) is computed **once per view** with the allocation-free
//!   classifiers ([`AgentFamily::classify`], [`ResourceClass::classify`])
//!   instead of per detector per entry.
//! * [`EntryBlock`] is the per-chunk arena: lines
//!   ([`push_line`](EntryBlock::push_line)) and owned entries
//!   ([`push_entry`](EntryBlock::push_entry), which renders the canonical
//!   line and parses it like any other) are appended to one contiguous
//!   text buffer with compact per-entry metadata, so a whole chunk of
//!   entries is freed (and the buffers reused) in O(1) when the chunk
//!   finalizes. The metadata holds everything the parse found, so the
//!   owned form of an entry is assembled back out of it
//!   ([`fill_entry`](EntryBlock::fill_entry)) without tokenizing the
//!   line a second time.
//! * [`UaInterner`] caches `(fingerprint, family)` per distinct
//!   user-agent string, so repeated agents — the overwhelmingly common
//!   case — cost one hash lookup instead of a classify pass.
//!
//! Every parse shares one core (`parse_parts` in the entry module), so
//! [`EntryRef::parse`], [`EntryBlock::push_line`] and [`LogEntry::parse`]
//! accept and reject exactly the same lines with exactly the same
//! errors, by construction; the property tests at the bottom of this
//! module pin that, the agreement of the three view sources, and the
//! classifier equivalences on hostile inputs.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::net::Ipv4Addr;

use crate::entry::{parse_parts, RawParts};
use crate::error::ParseLogError;
use crate::{
    AgentFamily, ClfTimestamp, HttpMethod, HttpStatus, HttpVersion, LogEntry, ResourceClass,
};

/// FNV-1a over raw bytes — the same stable 64-bit hash as
/// [`UserAgent::fingerprint`](crate::UserAgent::fingerprint), usable
/// without materialising a [`UserAgent`](crate::UserAgent).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// A borrowed, `Copy` view of one Combined Log Format record — what
/// every detector and triage filter reads.
///
/// Text fields borrow from the parsed line, the viewed [`LogEntry`] or an
/// [`EntryBlock`]'s arena; classification is precomputed when the view
/// is made. Fields detectors never read (ident, user, referrer text,
/// response size) are not carried.
///
/// ```
/// use divscrape_httplog::{EntryRef, LogEntry, ResourceClass};
///
/// let line = r#"10.0.0.9 - - [11/Mar/2018:00:00:05 +0000] "GET /offers?p=2 HTTP/1.1" 200 77 "-" "curl/7.58.0""#;
/// let view = EntryRef::parse(line)?;
/// assert_eq!(view.path(), "/offers");
/// assert_eq!(view.resource_class(), ResourceClass::Page);
/// assert_eq!(view, LogEntry::parse(line)?.view());
/// # Ok::<(), divscrape_httplog::ParseLogError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EntryRef<'s> {
    addr: Ipv4Addr,
    timestamp: ClfTimestamp,
    method: HttpMethod,
    target: &'s str,
    /// Bytes of `target` before `?` (the whole target when no query).
    path_len: u32,
    status: HttpStatus,
    has_referrer: bool,
    ua: &'s str,
    ua_fp: u64,
    family: AgentFamily,
    resource: ResourceClass,
}

impl<'s> EntryRef<'s> {
    /// Parses a Combined Log Format line in place — no allocation, same
    /// accept/reject behaviour and [`ParseLogError`]s as
    /// [`LogEntry::parse`] (both delegate to one shared core).
    pub fn parse(line: &'s str) -> Result<Self, ParseLogError> {
        let parts = parse_parts(line.trim_end_matches(['\r', '\n']))?;
        let ua = normalize_ua(parts.ua);
        Ok(Self::from_parts(
            &parts,
            ua,
            fnv1a(ua.as_bytes()),
            AgentFamily::classify(ua),
        ))
    }

    /// Assembles the view from parsed parts plus precomputed (possibly
    /// interned) agent identity.
    fn from_parts(parts: &RawParts<'s>, ua: &'s str, ua_fp: u64, family: AgentFamily) -> Self {
        let path_len = parts.target.find('?').unwrap_or(parts.target.len());
        EntryRef {
            addr: parts.addr,
            timestamp: parts.timestamp,
            method: parts.method,
            target: parts.target,
            path_len: path_len as u32,
            status: parts.status,
            has_referrer: parts.referrer.is_some(),
            ua,
            ua_fp,
            family,
            resource: ResourceClass::classify(&parts.target[..path_len]),
        }
    }

    /// The client address.
    pub fn addr(&self) -> Ipv4Addr {
        self.addr
    }

    /// When the request completed.
    pub fn timestamp(&self) -> ClfTimestamp {
        self.timestamp
    }

    /// When the request completed, as Unix epoch seconds.
    pub fn epoch_seconds(&self) -> i64 {
        self.timestamp.epoch_seconds()
    }

    /// The request method.
    pub fn method(&self) -> HttpMethod {
        self.method
    }

    /// The full request target, query string included.
    pub fn target(&self) -> &'s str {
        self.target
    }

    /// The path component of the target (everything before `?`).
    pub fn path(&self) -> &'s str {
        &self.target[..self.path_len as usize]
    }

    /// The response status.
    pub fn status(&self) -> HttpStatus {
        self.status
    }

    /// Whether a `Referer` header was sent.
    pub fn has_referrer(&self) -> bool {
        self.has_referrer
    }

    /// The user-agent string (empty when absent; `-` is normalised away).
    pub fn ua_str(&self) -> &'s str {
        self.ua
    }

    /// The user agent's coarse family.
    pub fn agent_family(&self) -> AgentFamily {
        self.family
    }

    /// The user agent's stable 64-bit fingerprint.
    pub fn ua_fingerprint(&self) -> u64 {
        self.ua_fp
    }

    /// The target's resource class.
    pub fn resource_class(&self) -> ResourceClass {
        self.resource
    }

    /// Key identifying the client: address plus user-agent fingerprint
    /// (see [`LogEntry::client_key`]).
    pub fn client_key(&self) -> (Ipv4Addr, u64) {
        (self.addr, self.ua_fp)
    }
}

impl LogEntry {
    /// This entry as the borrowed view detectors read — no allocation;
    /// the agent and target are classified here, once, with the same
    /// classifiers the line parser uses, so the view equals
    /// [`EntryRef::parse`] of the line this entry was parsed from.
    pub fn view(&self) -> EntryRef<'_> {
        let target = self.request().path().as_str();
        let path = self.request().path().path();
        let ua = self.user_agent().as_str();
        EntryRef {
            addr: self.addr(),
            timestamp: self.timestamp(),
            method: self.request().method(),
            target,
            path_len: path.len() as u32,
            status: self.status(),
            has_referrer: self.referrer().is_some(),
            ua,
            ua_fp: fnv1a(ua.as_bytes()),
            family: AgentFamily::classify(ua),
            resource: ResourceClass::classify(path),
        }
    }
}

/// The CLF absent marker normalised away, mirroring [`UserAgent::new`].
fn normalize_ua(raw: &str) -> &str {
    if raw == "-" {
        ""
    } else {
        raw
    }
}

/// Default capacity bound of a [`UaInterner`] (distinct agents).
const DEFAULT_INTERNER_CAP: usize = 4096;

/// Caches `(fingerprint, family)` per distinct user-agent string.
///
/// Real traffic repeats a small set of agent strings millions of times;
/// interning turns the per-entry classify-and-hash into one map lookup
/// (allocation-free: the probe borrows the candidate string). Growth is
/// bounded by **generation swap**: when the current generation reaches
/// its capacity bound it is demoted to the previous generation (whose
/// contents are dropped) instead of being cleared outright, and a miss
/// in the current generation promotes a previous-generation hit back.
/// A hostile feed of unique agents therefore costs re-classification,
/// never unbounded memory — at most `2 × cap` agents are ever cached —
/// while the popular agents of real traffic survive the swap. Cached
/// identities are content-derived (FNV-1a over the agent bytes), so an
/// interned fingerprint never changes across swaps.
#[derive(Debug, Clone)]
pub struct UaInterner {
    map: HashMap<String, (u64, AgentFamily)>,
    prev: HashMap<String, (u64, AgentFamily)>,
    cap: usize,
}

impl Default for UaInterner {
    fn default() -> Self {
        Self::new()
    }
}

impl UaInterner {
    /// An interner with the default capacity bound.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_INTERNER_CAP)
    }

    /// An interner holding at most `cap` distinct agents (≥ 1) per
    /// generation before swapping generations.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            map: HashMap::new(),
            prev: HashMap::new(),
            cap: cap.max(1),
        }
    }

    /// The agent's `(fingerprint, family)`, computed on first sight and
    /// cached. `ua` must already be `-`-normalised (empty when absent).
    pub fn resolve(&mut self, ua: &str) -> (u64, AgentFamily) {
        if let Some(&cached) = self.map.get(ua) {
            return cached;
        }
        // Promote a previous-generation hit instead of re-classifying:
        // popular agents survive the swap, churny one-offs age out.
        let identity = match self.prev.remove_entry(ua) {
            Some((owned, identity)) => {
                if self.map.len() >= self.cap {
                    self.prev.clear();
                    std::mem::swap(&mut self.map, &mut self.prev);
                }
                self.map.insert(owned, identity);
                return identity;
            }
            None => (fnv1a(ua.as_bytes()), AgentFamily::classify(ua)),
        };
        if self.map.len() >= self.cap {
            self.prev.clear();
            std::mem::swap(&mut self.map, &mut self.prev);
        }
        self.map.insert(ua.to_owned(), identity);
        identity
    }

    /// Distinct agents currently cached across both generations.
    pub fn len(&self) -> usize {
        self.map.len() + self.prev.len()
    }

    /// Whether nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty() && self.prev.is_empty()
    }
}

/// Per-entry metadata inside an [`EntryBlock`]: `Copy` scalars plus byte
/// ranges into the block's text arena. Everything [`parse_parts`] found
/// is here, so neither a view nor an owned entry re-reads the line.
#[derive(Debug, Clone, Copy)]
struct EntryMeta {
    line: (u32, u32),
    addr: Ipv4Addr,
    timestamp: ClfTimestamp,
    method: HttpMethod,
    target: (u32, u32),
    path_len: u32,
    status: HttpStatus,
    ua: (u32, u32),
    ua_fp: u64,
    family: AgentFamily,
    resource: ResourceClass,
    // `None` is the CLF absent marker; a present field can be empty (an
    // empty quoted referrer, an empty token between two spaces).
    referrer: Option<(u32, u32)>,
    // What only the owned entry carries.
    ident: Option<(u32, u32)>,
    user: Option<(u32, u32)>,
    version: HttpVersion,
    bytes: Option<u64>,
}

/// A chunk-sized arena of parsed entries: one contiguous text buffer
/// plus compact per-entry metadata.
///
/// A record is appended to the text buffer's tail and parsed there; one
/// that does not parse is truncated away again, so every stored entry is
/// valid by construction and [`view`](Self::view) is infallible.
/// Finalizing a chunk frees all of its entries at once —
/// [`clear`](Self::clear) keeps the buffers' capacity, so a recycled
/// block's steady state performs **zero heap allocations per entry**
/// (pinned by the repository's counting-allocator test).
///
/// ```
/// use divscrape_httplog::EntryBlock;
///
/// let mut block = EntryBlock::new();
/// block.push_line(r#"10.0.0.9 - - [11/Mar/2018:00:00:05 +0000] "GET /offers HTTP/1.1" 200 77 "-" "curl/7.58.0""#)?;
/// assert_eq!(block.len(), 1);
/// assert_eq!(block.view(0).path(), "/offers");
/// # Ok::<(), divscrape_httplog::ParseLogError>(())
/// ```
#[derive(Debug, Default, Clone)]
pub struct EntryBlock {
    text: String,
    metas: Vec<EntryMeta>,
    interner: UaInterner,
}

impl EntryBlock {
    /// An empty block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses one CLF line and appends it to the arena (a trailing
    /// `"\n"`/`"\r\n"` is ignored). On error nothing is stored and the
    /// error is exactly what [`LogEntry::parse`] would report for the
    /// same line.
    ///
    /// # Errors
    ///
    /// Returns [`ParseLogError`] with the failing field kind and byte
    /// offset.
    pub fn push_line(&mut self, line: &str) -> Result<(), ParseLogError> {
        let base = self.text.len();
        self.text.push_str(line.trim_end_matches(['\r', '\n']));
        self.parse_tail(base)
    }

    /// Appends an owned entry: renders its canonical line
    /// (`entry.to_string()`) into the arena and parses it like any other
    /// line, so the stored view is the one [`push_line`](Self::push_line)
    /// would store for that text.
    ///
    /// # Errors
    ///
    /// [`LogEntryBuilder`](crate::LogEntryBuilder) validates no text, so
    /// an entry can hold fields its own rendering does not survive (a
    /// space in `ident`, a bare `"` in the referrer). Such an entry is
    /// refused here, with the error its rendered line parses to; nothing
    /// is stored.
    pub fn push_entry(&mut self, entry: &LogEntry) -> Result<(), ParseLogError> {
        let base = self.text.len();
        write!(self.text, "{entry}").expect("writing to a String cannot fail");
        self.parse_tail(base)
    }

    /// Parses the text appended at `base..` as one entry and records its
    /// metadata; on a parse error truncates the text back to `base`.
    fn parse_tail(&mut self, base: usize) -> Result<(), ParseLogError> {
        let tail = &self.text[base..];
        let parts = match parse_parts(tail) {
            Ok(parts) => parts,
            Err(error) => {
                self.text.truncate(base);
                return Err(error);
            }
        };
        let ua = normalize_ua(parts.ua);
        let (ua_fp, family) = self.interner.resolve(ua);
        let range = |s: &str| -> (u32, u32) {
            if s.is_empty() {
                return (0, 0);
            }
            let start = base + (s.as_ptr() as usize - tail.as_ptr() as usize);
            (start as u32, (start + s.len()) as u32)
        };
        let path_len = parts.target.find('?').unwrap_or(parts.target.len());
        self.metas.push(EntryMeta {
            line: (base as u32, self.text.len() as u32),
            addr: parts.addr,
            timestamp: parts.timestamp,
            method: parts.method,
            target: range(parts.target),
            path_len: path_len as u32,
            status: parts.status,
            ua: range(ua),
            ua_fp,
            family,
            resource: ResourceClass::classify(&parts.target[..path_len]),
            referrer: parts.referrer.map(range),
            ident: parts.ident.map(range),
            user: parts.user.map(range),
            version: parts.version,
            bytes: parts.bytes,
        });
        Ok(())
    }

    /// The `i`-th entry as a borrowed view.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub fn view(&self, i: usize) -> EntryRef<'_> {
        let m = &self.metas[i];
        let slice = |r: (u32, u32)| &self.text[r.0 as usize..r.1 as usize];
        EntryRef {
            addr: m.addr,
            timestamp: m.timestamp,
            method: m.method,
            target: slice(m.target),
            path_len: m.path_len,
            status: m.status,
            has_referrer: m.referrer.is_some(),
            ua: slice(m.ua),
            ua_fp: m.ua_fp,
            family: m.family,
            resource: m.resource,
        }
    }

    /// Assembles the `i`-th entry as an owned [`LogEntry`] in `slot` —
    /// equal to [`LogEntry::parse`] of [`line(i)`](Self::line) — from
    /// the metadata recorded when the line was pushed: nothing is
    /// tokenized again. A slot that already holds an entry is
    /// overwritten field by field and its `String` buffers are reused,
    /// so filling one slot entry after entry allocates only where a
    /// text outgrows its buffer or an absent `ident`/`user`/referrer
    /// turns present.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub fn fill_entry<'a>(&self, i: usize, slot: &'a mut Option<LogEntry>) -> &'a LogEntry {
        let m = &self.metas[i];
        let slice = |r: (u32, u32)| &self.text[r.0 as usize..r.1 as usize];
        let entry = slot.get_or_insert_with(LogEntry::blank);
        entry.refill(&RawParts {
            addr: m.addr,
            ident: m.ident.map(slice),
            user: m.user.map(slice),
            timestamp: m.timestamp,
            method: m.method,
            target: slice(m.target),
            version: m.version,
            status: m.status,
            bytes: m.bytes,
            referrer: m.referrer.map(slice),
            ua: slice(m.ua),
        });
        entry
    }

    /// The `i`-th entry's full original line (terminator stripped).
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub fn line(&self, i: usize) -> &str {
        let (start, end) = self.metas[i].line;
        &self.text[start as usize..end as usize]
    }

    /// Entries stored.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// Whether the block holds no entries.
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// Bytes of line text stored.
    pub fn text_bytes(&self) -> usize {
        self.text.len()
    }

    /// Drops every entry at once, keeping the text and metadata buffers'
    /// capacity **and** the warm interner — the recycling step that makes
    /// a steady-state chunk allocation-free.
    pub fn clear(&mut self) {
        self.text.clear();
        self.metas.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FramedLine, FramedLineRef, LineFramer, RequestPath, UserAgent};
    use proptest::prelude::*;

    const SAMPLE: &str = r#"198.51.100.7 - - [11/Mar/2018:06:25:14 +0000] "GET /search?q=NCE-LHR HTTP/1.1" 200 5123 "https://shop.example/" "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36""#;

    /// A pool of line fragments property tests mutate and splice —
    /// valid lines, truncations, and hostile garbage.
    fn fragment_pool() -> Vec<String> {
        vec![
            SAMPLE.to_owned(),
            r#"10.0.0.1 - - [11/Mar/2018:00:00:00 +0000] "HEAD / HTTP/1.0" 204 - "-" "-""#.to_owned(),
            r#"10.0.0.1 ident alice [11/Mar/2018:00:00:00 +0000] "GET /api/v1 HTTP/1.1" 200 1 "-" "curl/7.58.0""#
                .to_owned(),
            r#"10.0.0.1 - frank [11/Mar/2018:10:00:00 +0000] "GET /offers/3 HTTP/1.0" 200 2326"#
                .to_owned(),
            r#"10.0.0.1 - - [11/Mar/2018:00:00:00 +0000] "GET / HTTP/1.1" 200 1 "-" "weird \"agent\"""#
                .to_owned(),
            "not a log line at all".to_owned(),
            String::new(),
            "\u{0}\u{0}\u{0}".to_owned(),
        ]
    }

    /// Agreement of the borrowed and owned parsers on one input: same
    /// accept/reject, same error kind and offset, and on success the
    /// parsed view equals the owned entry's view field for field — and
    /// every field equals the owned entry's own (allocating) accessor.
    fn assert_parsers_agree(line: &str) {
        let owned = LogEntry::parse(line);
        let borrowed = EntryRef::parse(line);
        match (owned, borrowed) {
            (Ok(o), Ok(b)) => {
                assert_eq!(o.view(), b, "view mismatch on {line:?}");
                assert_eq!(b.addr(), o.addr());
                assert_eq!(b.timestamp(), o.timestamp());
                assert_eq!(b.epoch_seconds(), o.timestamp().epoch_seconds());
                assert_eq!(b.method(), o.request().method());
                assert_eq!(b.target(), o.request().path().as_str());
                assert_eq!(b.path(), o.request().path().path());
                assert_eq!(b.status(), o.status());
                assert_eq!(b.has_referrer(), o.referrer().is_some());
                assert_eq!(b.ua_str(), o.user_agent().as_str());
                assert_eq!(b.agent_family(), o.user_agent().family());
                assert_eq!(b.ua_fingerprint(), o.user_agent().fingerprint());
                assert_eq!(b.resource_class(), o.request().path().resource_class());
                assert_eq!(b.client_key(), o.client_key());
                assert_push_entry_agrees(&o);
            }
            (Err(oe), Err(be)) => {
                assert_eq!(oe, be, "error mismatch on {line:?}");
            }
            (o, b) => panic!("accept/reject mismatch on {line:?}: owned {o:?} vs borrowed {b:?}"),
        }
    }

    /// `push_entry` against its contract on one entry: an entry that
    /// survives its own rendering is stored as exactly its own view; any
    /// other outcome of the rendering stores what `push_line` stores for
    /// that text, or nothing.
    fn assert_push_entry_agrees(entry: &LogEntry) {
        let rendered = entry.to_string();
        let mut block = EntryBlock::new();
        block.push_line(SAMPLE).unwrap();
        let before = (block.len(), block.text_bytes());
        match (block.push_entry(entry), LogEntry::parse(&rendered)) {
            (Ok(()), Ok(reparsed)) => {
                assert_eq!(block.line(1), rendered);
                assert_eq!(block.view(1), reparsed.view());
                if reparsed == *entry {
                    assert_eq!(block.view(1), entry.view(), "view drifted on {rendered:?}");
                }
            }
            (Err(pushed), Err(parsed)) => {
                assert_eq!(pushed, parsed);
                assert_eq!((block.len(), block.text_bytes()), before);
            }
            (pushed, parsed) => panic!("{rendered:?}: pushed {pushed:?} vs parsed {parsed:?}"),
        }
        assert_eq!(block.view(0), EntryRef::parse(SAMPLE).unwrap());
    }

    /// [`fragment_pool`] plus the lines a reused owned-entry slot must
    /// not carry anything across: every optional field present, then
    /// absent, an empty quoted referrer, `HTTP/2.0`, plain Common format.
    fn slot_pool() -> Vec<String> {
        let mut pool = fragment_pool();
        pool.extend(
            [
                r#"10.0.0.2 ident alice [11/Mar/2018:00:00:01 +0000] "POST /booking/7?step=2 HTTP/2.0" 302 0 "https://shop.example/offers/7" "Mozilla/5.0 (Windows NT 10.0) Chrome/64.0""#,
                r#"10.0.0.3 - - [11/Mar/2018:00:00:02 +0000] "GET /offers/3 HTTP/1.1" 200 2326 "" "curl/7.58.0""#,
                r#"10.0.0.4 - - [11/Mar/2018:00:00:03 +0000] "GET /a HTTP/1.0" 304 - "-" "-""#,
                r#"10.0.0.5 - bob [11/Mar/2018:00:00:04 +0000] "HEAD /robots.txt HTTP/1.1" 404 -"#,
                r#"10.0.0.6  - [11/Mar/2018:00:00:05 +0000] "GET / HTTP/1.1" 200 18446744073709551615 "-" "x""#,
            ]
            .map(str::to_owned),
        );
        pool
    }

    #[test]
    fn a_reused_slot_renders_every_pool_line_back() {
        let lines: Vec<String> = slot_pool()
            .into_iter()
            .filter(|l| LogEntry::parse(l).is_ok())
            .collect();
        let mut block = EntryBlock::new();
        for line in &lines {
            block.push_line(line).unwrap();
        }
        let mut slot = None;
        // Forwards then backwards: every neighbouring pair of lines
        // fills the slot in both orders.
        for i in (0..lines.len()).chain((0..lines.len()).rev()) {
            let filled = block.fill_entry(i, &mut slot);
            assert_eq!(filled, &LogEntry::parse(&lines[i]).unwrap(), "entry {i}");
            // Display normalises plain Common format to Combined.
            let canonical = if lines[i].ends_with('"') {
                lines[i].clone()
            } else {
                format!(r#"{} "-" "-""#, lines[i])
            };
            assert_eq!(filled.to_string(), canonical, "entry {i}");
        }
    }

    #[test]
    fn borrowed_parse_agrees_on_fixtures() {
        for line in fragment_pool() {
            assert_parsers_agree(&line);
        }
    }

    #[test]
    fn block_views_match_standalone_parse() {
        let mut block = EntryBlock::new();
        let lines: Vec<String> = fragment_pool()
            .into_iter()
            .filter(|l| LogEntry::parse(l).is_ok())
            .collect();
        for line in &lines {
            block.push_line(line).unwrap();
        }
        assert_eq!(block.len(), lines.len());
        for (i, line) in lines.iter().enumerate() {
            assert_eq!(block.line(i), line.trim_end_matches(['\r', '\n']));
            let from_block = block.view(i);
            let standalone = EntryRef::parse(line).unwrap();
            assert_eq!(from_block, standalone, "view {i} diverged");
        }
    }

    #[test]
    fn block_rejects_malformed_lines_without_storing() {
        let mut block = EntryBlock::new();
        block.push_line(SAMPLE).unwrap();
        let before = (block.len(), block.text_bytes());
        assert!(block.push_line("garbage").is_err());
        assert_eq!((block.len(), block.text_bytes()), before);
        // The good entry is still intact after the rejected push.
        assert_eq!(block.view(0), EntryRef::parse(SAMPLE).unwrap());
        assert_eq!(block.line(0), SAMPLE);
    }

    #[test]
    fn block_refuses_entries_that_do_not_survive_their_rendering() {
        let base = LogEntry::builder()
            .addr(Ipv4Addr::new(10, 0, 0, 1))
            .timestamp(ClfTimestamp::PAPER_WINDOW_START)
            .request("GET /offers HTTP/1.1".parse().unwrap())
            .status(HttpStatus::OK);
        let mut block = EntryBlock::new();
        block.push_entry(&base.clone().build().unwrap()).unwrap();
        let before = (block.len(), block.text_bytes(), block.line(0).to_owned());
        for bad in [
            base.clone().ident("two words").build().unwrap(),
            base.clone().referrer("say \"hi").build().unwrap(),
        ] {
            let expected = LogEntry::parse(&bad.to_string()).unwrap_err();
            assert_eq!(block.push_entry(&bad), Err(expected));
            assert_eq!(
                (block.len(), block.text_bytes(), block.line(0).to_owned()),
                before,
                "a refused entry left something behind"
            );
        }
        // The block keeps working after a refusal.
        block.push_line(SAMPLE).unwrap();
        assert_eq!(block.view(1), EntryRef::parse(SAMPLE).unwrap());
    }

    #[test]
    fn block_clear_keeps_capacity_and_interner() {
        let mut block = EntryBlock::new();
        block.push_line(SAMPLE).unwrap();
        let interned = block.interner.len();
        assert!(interned > 0);
        block.clear();
        assert!(block.is_empty());
        assert_eq!(block.interner.len(), interned, "interner was cleared");
        block.push_line(SAMPLE).unwrap();
        assert_eq!(block.view(0), EntryRef::parse(SAMPLE).unwrap());
    }

    #[test]
    fn interner_clears_at_capacity_and_stays_correct() {
        let mut interner = UaInterner::with_capacity(4);
        for i in 0..40 {
            let ua = format!("agent/{i}");
            let (fp, family) = interner.resolve(&ua);
            assert_eq!(fp, fnv1a(ua.as_bytes()));
            assert_eq!(family, AgentFamily::classify(&ua));
            // Two generations of at most `cap` agents each.
            assert!(interner.len() <= 8, "interner grew past both generations");
        }
        // Cached answers equal fresh answers.
        assert_eq!(
            interner.resolve("agent/39"),
            (fnv1a(b"agent/39"), AgentFamily::classify("agent/39"))
        );
    }

    #[test]
    fn interner_ids_are_stable_across_generation_swaps() {
        // Adversarial churn: a popular agent interleaved with unique
        // one-offs that force generation swaps. The popular agent's
        // interned id must never change — within a chunk or across the
        // whole churn — because ids are content-derived.
        let mut interner = UaInterner::with_capacity(4);
        let popular = "Mozilla/5.0 (Windows NT 10.0) Chrome/64.0";
        let (first_fp, first_family) = interner.resolve(popular);
        for i in 0..200 {
            let churn = format!("hostile-bot/{i}");
            interner.resolve(&churn);
            assert_eq!(
                interner.resolve(popular),
                (first_fp, first_family),
                "interned id drifted after {i} churn agents"
            );
            assert!(interner.len() <= 8);
        }
        // A block fed the same churn keeps every stored entry's
        // fingerprint equal to the standalone parse.
        let mut block = EntryBlock::new();
        let mut lines = Vec::new();
        for i in 0..200 {
            let ua = if i % 3 == 0 {
                popular.to_owned()
            } else {
                format!("hostile-bot/{i}")
            };
            lines.push(format!(
                "10.0.0.9 - - [11/Mar/2018:00:00:05 +0000] \"GET /offers HTTP/1.1\" 200 77 \"-\" \"{ua}\""
            ));
        }
        for line in &lines {
            block.push_line(line).unwrap();
        }
        for (i, line) in lines.iter().enumerate() {
            let standalone = EntryRef::parse(line).unwrap();
            assert_eq!(
                block.view(i).ua_fingerprint(),
                standalone.ua_fingerprint(),
                "fingerprint {i} diverged under interner churn"
            );
        }
    }

    proptest! {
        // Borrowed parse == owned parse on arbitrary hostile bytes
        // (lossily decoded, as a framer would deliver them).
        #[test]
        fn parsers_agree_on_hostile_bytes(
            bytes in proptest::collection::vec(0u8..=255, 0..200),
        ) {
            let line = String::from_utf8_lossy(&bytes);
            assert_parsers_agree(&line);
        }

        // Borrowed parse == owned parse on mutated valid lines:
        // truncations, byte flips and splices of real CLF fragments.
        #[test]
        fn parsers_agree_on_mutated_lines(
            which in 0usize..8,
            cut in 0usize..200,
            flip_at in 0usize..200,
            flip_to in 0u8..=255,
            splice in 0usize..8,
        ) {
            let pool = fragment_pool();
            let mut line = pool[which % pool.len()].clone();
            line.push_str(&pool[splice % pool.len()]);
            let cut = cut.min(line.len());
            if !line.is_char_boundary(cut) {
                // reject cuts landing mid-character so truncate is valid
                return Err(proptest::TestCaseError::Reject);
            }
            line.truncate(cut);
            let mut bytes = line.into_bytes();
            if !bytes.is_empty() {
                let at = flip_at % bytes.len();
                bytes[at] = flip_to;
            }
            let line = String::from_utf8_lossy(&bytes).into_owned();
            assert_parsers_agree(&line);
        }

        // One reused slot, filled line after line from an arena of pool
        // lines and byte-flipped pool lines, equals a fresh parse of
        // each line every time: no `Some` ident, user, referrer or size
        // survives from the previous entry, in either direction.
        #[test]
        fn a_reused_slot_equals_a_fresh_parse_every_time(
            picks in proptest::collection::vec(
                (0usize..64, any::<bool>(), 0usize..200, 0u8..=255),
                1..24,
            ),
        ) {
            let pool = slot_pool();
            let mut block = EntryBlock::new();
            let mut expected = Vec::new();
            let mut slot = None;
            for (which, mutate, flip_at, flip_to) in picks {
                let mut bytes = pool[which % pool.len()].clone().into_bytes();
                if mutate && !bytes.is_empty() {
                    let at = flip_at % bytes.len();
                    bytes[at] = flip_to;
                }
                let line = String::from_utf8_lossy(&bytes).into_owned();
                match LogEntry::parse(&line) {
                    Ok(entry) => {
                        block.push_line(&line).unwrap();
                        let filled = block.fill_entry(block.len() - 1, &mut slot);
                        assert_eq!(filled, &entry, "slot diverged on {line:?}");
                        expected.push(entry);
                    }
                    Err(error) => assert_eq!(block.push_line(&line), Err(error)),
                }
            }
            // And again out of push order, from the finished arena.
            for (i, entry) in expected.iter().enumerate().rev() {
                assert_eq!(block.fill_entry(i, &mut slot), entry, "entry {i}");
            }
        }

        // The three view sources agree on builder-made entries whose
        // text fields come from a pool with hostile members (spaces,
        // bare and escaped quotes, the absent marker): `push_entry`
        // stores the entry's own view when the entry survives its
        // rendering and stores nothing when the rendering does not
        // parse; what the rendering parses to agrees across
        // `LogEntry::view`, `EntryRef::parse` and the block.
        #[test]
        fn view_sources_agree_on_generated_entries(
            addr in (1u8..=254, 0u8..=255, 0u8..=255, 1u8..=254),
            secs in 0i64..(8 * crate::SECONDS_PER_DAY),
            method in proptest::sample::select(vec![HttpMethod::Get, HttpMethod::Head, HttpMethod::Post]),
            target in proptest::sample::select(vec![
                "/", "/offers?p=2", "/search?q=a?b", "/wp-admin/x.php", "/style.css",
                "/robots.txt", "/two words", "/q\"uote", "/api/v1/ünï",
            ]),
            status_idx in 0usize..8,
            bytes in proptest::option::of(0u64..10_000_000),
            texts in (0usize..12, 0usize..12, 0usize..12, 0usize..12),
        ) {
            const TEXTS: [Option<&str>; 12] = [
                None, None, None, Some("-"), Some(""), Some("alice"), Some("two words"),
                Some("say \"hi"), Some("esc\\\"aped"), Some("https://shop.example/"),
                Some("Mozilla/5.0 (X11; Linux x86_64)"), Some("Googlebot/2.1 ünï"),
            ];
            let mut builder = LogEntry::builder()
                .addr(Ipv4Addr::new(addr.0, addr.1, addr.2, addr.3))
                .timestamp(ClfTimestamp::PAPER_WINDOW_START.plus_seconds(secs))
                .request(crate::RequestLine::new(
                    method,
                    RequestPath::parse(target),
                    crate::HttpVersion::Http11,
                ))
                .status(HttpStatus::PAPER_STATUSES[status_idx])
                .bytes(bytes);
            if let Some(ident) = TEXTS[texts.0] {
                builder = builder.ident(ident);
            }
            if let Some(user) = TEXTS[texts.1] {
                builder = builder.user(user);
            }
            if let Some(referrer) = TEXTS[texts.2] {
                builder = builder.referrer(referrer);
            }
            if let Some(ua) = TEXTS[texts.3] {
                builder = builder.user_agent(ua);
            }
            let entry = builder.build().unwrap();
            assert_push_entry_agrees(&entry);
            assert_parsers_agree(&entry.to_string());
        }

        // The allocation-free classifiers equal their allocating forms
        // on arbitrary (lossily decoded) strings.
        #[test]
        fn classifiers_match_allocating_forms(
            bytes in proptest::collection::vec(0u8..=255, 0..64),
        ) {
            let s = String::from_utf8_lossy(&bytes).into_owned();
            assert_eq!(
                AgentFamily::classify(&s),
                UserAgent::new(s.clone()).family(),
                "family mismatch on {s:?}"
            );
            let target = format!("/{s}");
            let p = RequestPath::parse(&target);
            assert_eq!(
                ResourceClass::classify(p.path()),
                p.resource_class(),
                "resource mismatch on {target:?}"
            );
            assert_eq!(fnv1a(s.as_bytes()), UserAgent::new(s).fingerprint());
        }

        // The framer never panics on hostile bytes, the borrowed and
        // owned line streams are identical, chunking is invisible, and
        // framed lines respect the cap.
        #[test]
        fn framer_is_hostile_input_safe(
            bytes in proptest::collection::vec(0u8..=255, 0..400),
            chunk in 1usize..17,
            max_line in 1usize..64,
        ) {
            // Owned stream, fed whole.
            let mut whole = LineFramer::with_max_line(max_line);
            whole.push(&bytes);
            let mut from_whole = Vec::new();
            while let Some(line) = whole.next_line() {
                from_whole.push(line);
            }
            if let Some(line) = whole.finish() {
                from_whole.push(line);
            }

            // Borrowed stream, fed in chunks (boundaries land anywhere,
            // including mid-escape and mid-UTF-8-sequence).
            let mut chunked = LineFramer::with_max_line(max_line);
            let mut from_chunks = Vec::new();
            for piece in bytes.chunks(chunk) {
                chunked.push(piece);
                while let Some(line) = chunked.next_line_ref() {
                    from_chunks.push(line.to_owned_line());
                }
            }
            if let Some(line) = chunked.finish() {
                from_chunks.push(line);
            }

            assert_eq!(from_whole, from_chunks);
            for framed in &from_whole {
                if let FramedLine::Complete(line) = framed {
                    assert!(!line.is_empty());
                    // Raw byte length is capped by the framer; lossy
                    // decoding maps each raw byte to at most one char.
                    assert!(
                        line.chars().count() <= max_line,
                        "line exceeds cap: {line:?}"
                    );
                    // Every framed line parses the same way on both paths.
                    assert_parsers_agree(line);
                }
            }
        }

        // `next_line_ref` and `next_line` yield identical sequences.
        #[test]
        fn borrowed_and_owned_framing_agree(
            bytes in proptest::collection::vec(0u8..=255, 0..300),
            max_line in 4usize..80,
        ) {
            let mut owned = LineFramer::with_max_line(max_line);
            let mut borrowed = LineFramer::with_max_line(max_line);
            owned.push(&bytes);
            borrowed.push(&bytes);
            loop {
                let o = owned.next_line();
                let b = borrowed.next_line_ref().map(|l| l.to_owned_line());
                assert_eq!(o, b);
                if o.is_none() {
                    break;
                }
            }
            assert_eq!(owned.finish(), borrowed.finish());
            assert_eq!(owned.lines_framed(), borrowed.lines_framed());
            assert_eq!(owned.lines_oversized(), borrowed.lines_oversized());
        }
    }

    #[test]
    fn framed_ref_survives_truncated_final_record() {
        let mut framer = LineFramer::new();
        framer.push(SAMPLE.as_bytes()); // no terminator
        assert!(framer.next_line_ref().is_none());
        match framer.finish() {
            Some(FramedLine::Complete(line)) => assert_parsers_agree(&line),
            other => panic!("expected the partial line, got {other:?}"),
        }
    }

    #[test]
    fn framed_ref_handles_invalid_utf8_and_nuls() {
        let mut framer = LineFramer::new();
        framer.push(b"ok \xff\xfe\x00 bytes\nplain\n");
        match framer.next_line_ref() {
            Some(FramedLineRef::Complete(line)) => {
                assert!(line.contains('\u{FFFD}'));
                assert!(line.contains('\u{0}'));
            }
            other => panic!("expected lossy line, got {other:?}"),
        }
        assert_eq!(
            framer.next_line_ref(),
            Some(FramedLineRef::Complete("plain"))
        );
    }
}
