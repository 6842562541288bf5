//! The embedded alert/score store: a segmented append log plus an
//! in-memory key index making appends idempotent.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime};

use divscrape_detect::TenantId;

use crate::frame::{begin_frame, encode_frame, finish_frame, FrameScanner, ScanStep};

/// When the store calls `fsync` (well, `fdatasync`) on segment files.
///
/// # Examples
///
/// ```
/// use divscrape_store::FsyncPolicy;
/// assert_eq!(FsyncPolicy::default(), FsyncPolicy::OnFlush);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Never sync explicitly; durability is left to the OS. Fastest, and
    /// still torn-tail safe (an unsynced tail truncates cleanly on open).
    Never,
    /// Sync on [`AlertStore::flush`] / [`SpoolQueue::flush`] — the
    /// pipeline flushes sinks on drain, so this bounds loss to one batch.
    ///
    /// [`SpoolQueue::flush`]: crate::SpoolQueue::flush
    #[default]
    OnFlush,
    /// Sync after every append. Maximum durability, slowest.
    Always,
}

/// Tuning knobs for [`AlertStore`] and [`SpoolQueue`](crate::SpoolQueue).
///
/// # Examples
///
/// ```
/// use divscrape_store::{FsyncPolicy, StoreConfig};
///
/// let config = StoreConfig::default()
///     .segment_max_bytes(1 << 20)
///     .fsync(FsyncPolicy::Always);
/// assert_eq!(config.segment_max_bytes, 1 << 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreConfig {
    /// Rotate to a fresh segment once the current one would exceed this
    /// many bytes (default 8 MiB). A single record larger than the limit
    /// still gets written — a segment always holds at least one frame.
    pub segment_max_bytes: u64,
    /// Sync policy for segment writes (default [`FsyncPolicy::OnFlush`]).
    pub fsync: FsyncPolicy,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            segment_max_bytes: 8 * 1024 * 1024,
            fsync: FsyncPolicy::OnFlush,
        }
    }
}

impl StoreConfig {
    /// Sets the segment rotation threshold in bytes.
    pub fn segment_max_bytes(mut self, bytes: u64) -> Self {
        self.segment_max_bytes = bytes;
        self
    }

    /// Sets the fsync policy.
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }
}

/// What a stored record holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordKind {
    /// An emitted alert (one JSON line, as produced by the alert sinks).
    Alert,
    /// Per-member votes and scores for one finalized entry, kept so stored
    /// history can be re-adjudicated offline.
    Score,
}

impl RecordKind {
    fn to_byte(self) -> u8 {
        match self {
            RecordKind::Alert => b'A',
            RecordKind::Score => b'S',
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            b'A' => Some(RecordKind::Alert),
            b'S' => Some(RecordKind::Score),
            _ => None,
        }
    }
}

/// The identity of a stored record: `(tenant, client, feed-order offset)`.
///
/// `offset` is the entry's position in the tenant's feed order (the
/// pipeline's alert `index`), which is what makes replayed appends
/// detectable: re-inserting an already-stored offset is a no-op.
///
/// # Examples
///
/// ```
/// use divscrape_store::RecordKey;
/// use std::net::Ipv4Addr;
///
/// let key = RecordKey {
///     tenant: None,
///     client: (Ipv4Addr::new(10, 0, 0, 7), 42),
///     offset: 1234,
/// };
/// assert_eq!(key.offset, 1234);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordKey {
    /// Owning tenant, or `None` for a single-tenant pipeline.
    pub tenant: Option<TenantId>,
    /// The client the entry belonged to: `(ip, user-agent fingerprint)`,
    /// as returned by `LogEntry::client_key`.
    pub client: (Ipv4Addr, u64),
    /// Feed-order entry offset (the pipeline's finalized-entry index).
    pub offset: u64,
}

/// One stored record: a [`RecordKey`], a [`RecordKind`], and an opaque
/// payload (by convention a single JSON line without the trailing newline).
///
/// # Examples
///
/// ```
/// use divscrape_store::{Record, RecordKey, RecordKind};
/// use std::net::Ipv4Addr;
///
/// let record = Record {
///     key: RecordKey { tenant: None, client: (Ipv4Addr::LOCALHOST, 1), offset: 0 },
///     kind: RecordKind::Alert,
///     payload: br#"{"index":0}"#.to_vec(),
/// };
/// assert_eq!(record.kind, RecordKind::Alert);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Identity used for idempotence.
    pub key: RecordKey,
    /// Alert or score record.
    pub kind: RecordKind,
    /// Record body (a JSON line, by convention).
    pub payload: Vec<u8>,
}

impl Record {
    /// Appends a record's frame payload — kind, key, tenant, body — to
    /// `out`, from borrowed parts. The inverse of [`decode`](Self::decode).
    fn encode_into(key: &RecordKey, kind: RecordKind, payload: &[u8], out: &mut Vec<u8>) {
        let tenant = key.tenant.as_ref().map(TenantId::as_str).unwrap_or("");
        debug_assert!(tenant.len() <= u16::MAX as usize);
        out.push(kind.to_byte());
        out.extend_from_slice(&key.client.0.octets());
        out.extend_from_slice(&key.client.1.to_le_bytes());
        out.extend_from_slice(&key.offset.to_le_bytes());
        out.extend_from_slice(&(tenant.len() as u16).to_le_bytes());
        out.extend_from_slice(tenant.as_bytes());
        out.extend_from_slice(payload);
    }

    /// Parses a record from a frame payload.
    fn decode(payload: &[u8]) -> Option<Self> {
        if payload.len() < 23 {
            return None;
        }
        let kind = RecordKind::from_byte(payload[0])?;
        let ip = Ipv4Addr::new(payload[1], payload[2], payload[3], payload[4]);
        let fp = u64::from_le_bytes(payload[5..13].try_into().ok()?);
        let offset = u64::from_le_bytes(payload[13..21].try_into().ok()?);
        let tenant_len = u16::from_le_bytes([payload[21], payload[22]]) as usize;
        let body = payload.get(23..)?;
        if body.len() < tenant_len {
            return None;
        }
        let tenant = if tenant_len == 0 {
            None
        } else {
            Some(TenantId::new(
                std::str::from_utf8(&body[..tenant_len]).ok()?,
            ))
        };
        Some(Record {
            key: RecordKey {
                tenant,
                client: (ip, fp),
                offset,
            },
            kind,
            payload: body[tenant_len..].to_vec(),
        })
    }
}

/// Sorted, disjoint inclusive offset ranges — the per-`(tenant, kind)`
/// index. Feed-order appends extend the last range in O(1); membership is
/// a binary search.
#[derive(Debug, Default, Clone)]
struct OffsetRanges(Vec<(u64, u64)>);

impl OffsetRanges {
    fn contains(&self, v: u64) -> bool {
        let i = self.0.partition_point(|&(_, hi)| hi < v);
        matches!(self.0.get(i), Some(&(lo, _)) if lo <= v)
    }

    /// Inserts `v`; returns `false` if it was already present.
    fn insert(&mut self, v: u64) -> bool {
        let i = self.0.partition_point(|&(_, hi)| hi < v);
        if let Some(&(lo, _)) = self.0.get(i) {
            if lo <= v {
                return false;
            }
        }
        let joins_left = i > 0 && self.0[i - 1].1.checked_add(1) == Some(v);
        let joins_right = matches!(self.0.get(i), Some(&(lo, _)) if v.checked_add(1) == Some(lo));
        match (joins_left, joins_right) {
            (true, true) => {
                self.0[i - 1].1 = self.0[i].1;
                self.0.remove(i);
            }
            (true, false) => self.0[i - 1].1 = v,
            (false, true) => self.0[i].0 = v,
            (false, false) => self.0.insert(i, (v, v)),
        }
        true
    }

    fn last(&self) -> Option<u64> {
        self.0.last().map(|&(_, hi)| hi)
    }

    /// Merges an inclusive range wholesale (used when re-loading the
    /// retained-key sidecar), coalescing overlaps and adjacency.
    fn insert_range(&mut self, lo: u64, hi: u64) {
        debug_assert!(lo <= hi);
        self.0.push((lo, hi));
        self.0.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(self.0.len());
        for &(lo, hi) in &self.0 {
            match merged.last_mut() {
                Some(last) if lo <= last.1.saturating_add(1) => last.1 = last.1.max(hi),
                _ => merged.push((lo, hi)),
            }
        }
        self.0 = merged;
    }

    fn ranges(&self) -> &[(u64, u64)] {
        &self.0
    }
}

/// Outcome of [`AlertStore::append_batch`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppendSummary {
    /// Records actually written.
    pub appended: u64,
    /// Records skipped because their key was already stored.
    pub skipped: u64,
}

/// Counters describing an open store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Live records across all segments.
    pub records: u64,
    /// Appends skipped as duplicates (both found on open and skipped live).
    pub duplicates_skipped: u64,
    /// Segment files currently on disk.
    pub segments: u64,
    /// Total bytes across all segments.
    pub bytes: u64,
    /// Bytes dropped by torn-tail truncation on open.
    pub torn_bytes_truncated: u64,
}

/// How much history [`AlertStore::retain_segments`] keeps.
///
/// Retention drops whole **closed** segments, oldest first — the active
/// segment is never dropped — while preserving the dropped records'
/// idempotence keys (see the method docs).
///
/// # Examples
///
/// ```
/// use divscrape_store::RetentionPolicy;
/// use std::time::Duration;
///
/// let by_size = RetentionPolicy::KeepBytes(64 * 1024 * 1024);
/// let by_age = RetentionPolicy::KeepDuration(Duration::from_secs(7 * 24 * 3600));
/// assert_ne!(by_size, by_age);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetentionPolicy {
    /// Drop the oldest closed segments until total on-disk bytes fit
    /// under this budget (the active segment always survives, even if
    /// it alone exceeds the budget).
    KeepBytes(u64),
    /// Drop closed segments whose file modification time is at least
    /// this old.
    KeepDuration(Duration),
}

/// Outcome of one [`AlertStore::retain_segments`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetentionSummary {
    /// Segment files unlinked.
    pub segments_dropped: u64,
    /// Bytes reclaimed.
    pub bytes_dropped: u64,
    /// Records that lived in the dropped segments (their keys stay
    /// indexed — re-appending them remains a no-op).
    pub records_dropped: u64,
}

/// Write buffer in front of the active segment: one `write(2)` per
/// couple of hundred records rather than per couple of dozen.
const SEGMENT_BUFFER_BYTES: usize = 64 * 1024;

fn segment_path(dir: &Path, n: u64) -> PathBuf {
    dir.join(format!("seg-{n:08}.log"))
}

/// The retained-key sidecar: written atomically whenever retention
/// drops segments, so the dropped records' `(tenant, kind, offset)`
/// keys survive a reopen even though their frames are gone.
fn retained_index_path(dir: &Path) -> PathBuf {
    dir.join("retained.idx")
}

/// Serializes the whole key index into sidecar frames: one frame per
/// `(tenant, kind)` slot, each listing its inclusive offset ranges.
fn encode_retained_index(index: &HashMap<(Option<TenantId>, RecordKind), OffsetRanges>) -> Vec<u8> {
    let mut out = Vec::new();
    // Deterministic file bytes: sort slots by (tenant, kind byte).
    let mut slots: Vec<_> = index.iter().collect();
    slots.sort_by_key(|((tenant, kind), _)| {
        (
            tenant
                .as_ref()
                .map(TenantId::as_str)
                .unwrap_or("")
                .to_owned(),
            kind.to_byte(),
        )
    });
    for ((tenant, kind), ranges) in slots {
        let tenant = tenant.as_ref().map(TenantId::as_str).unwrap_or("");
        let mut payload = Vec::with_capacity(7 + tenant.len() + ranges.ranges().len() * 16);
        payload.push(kind.to_byte());
        payload.extend_from_slice(&(tenant.len() as u16).to_le_bytes());
        payload.extend_from_slice(tenant.as_bytes());
        payload.extend_from_slice(&(ranges.ranges().len() as u32).to_le_bytes());
        for &(lo, hi) in ranges.ranges() {
            payload.extend_from_slice(&lo.to_le_bytes());
            payload.extend_from_slice(&hi.to_le_bytes());
        }
        encode_frame(&payload, &mut out);
    }
    out
}

/// One decoded sidecar slot: the `(tenant, kind)` pair and its
/// retained `(lo, hi)` offset ranges.
type RetainedSlot = ((Option<TenantId>, RecordKind), Vec<(u64, u64)>);

/// Parses one sidecar frame back into a `(tenant, kind)` slot plus its
/// ranges.
fn decode_retained_slot(payload: &[u8]) -> Option<RetainedSlot> {
    if payload.len() < 7 {
        return None;
    }
    let kind = RecordKind::from_byte(payload[0])?;
    let tenant_len = u16::from_le_bytes([payload[1], payload[2]]) as usize;
    let rest = payload.get(3..)?;
    if rest.len() < tenant_len + 4 {
        return None;
    }
    let tenant = if tenant_len == 0 {
        None
    } else {
        Some(TenantId::new(
            std::str::from_utf8(&rest[..tenant_len]).ok()?,
        ))
    };
    let rest = &rest[tenant_len..];
    let count = u32::from_le_bytes(rest[..4].try_into().ok()?) as usize;
    let body = rest.get(4..)?;
    if body.len() != count * 16 {
        return None;
    }
    let mut ranges = Vec::with_capacity(count);
    for chunk in body.chunks_exact(16) {
        let lo = u64::from_le_bytes(chunk[..8].try_into().ok()?);
        let hi = u64::from_le_bytes(chunk[8..].try_into().ok()?);
        if lo > hi {
            return None;
        }
        ranges.push((lo, hi));
    }
    Some(((tenant, kind), ranges))
}

fn list_segments(dir: &Path) -> io::Result<Vec<u64>> {
    let mut nums = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(num) = name
            .strip_prefix("seg-")
            .and_then(|rest| rest.strip_suffix(".log"))
        {
            if let Ok(n) = num.parse::<u64>() {
                nums.push(n);
            }
        }
    }
    nums.sort_unstable();
    Ok(nums)
}

fn corrupt(path: &Path, what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{}: {what}", path.display()),
    )
}

/// An embedded, append-optimized store for alerts and per-member score
/// records, keyed by `(tenant, client, feed-order offset)`.
///
/// * **Segmented log** — records are CRC-framed and appended to
///   `seg-NNNNNNNN.log` files that rotate at
///   [`StoreConfig::segment_max_bytes`].
/// * **Torn-tail truncation** — on open, a partial frame at the tail of
///   the *last* segment (a crash mid-write) is silently truncated away;
///   corruption anywhere else is an [`io::ErrorKind::InvalidData`] error.
/// * **Idempotent appends** — the in-memory index (rebuilt on open)
///   makes re-appending an already-stored key a cheap no-op, so replaying
///   an input prefix after a restart cannot duplicate records.
///
/// # Examples
///
/// ```
/// use divscrape_store::{AlertStore, Record, RecordKey, RecordKind, StoreConfig};
/// use std::net::Ipv4Addr;
///
/// let dir = std::env::temp_dir().join(format!("divscrape-store-doc-{}", std::process::id()));
/// let record = Record {
///     key: RecordKey { tenant: None, client: (Ipv4Addr::LOCALHOST, 9), offset: 0 },
///     kind: RecordKind::Alert,
///     payload: br#"{"index":0}"#.to_vec(),
/// };
///
/// let mut store = AlertStore::open(&dir, StoreConfig::default())?;
/// assert!(store.append(record.clone())?);       // written
/// assert!(!store.append(record.clone())?);      // duplicate: no-op
/// store.flush()?;
/// drop(store);
///
/// let mut reopened = AlertStore::open(&dir, StoreConfig::default())?;
/// assert_eq!(reopened.len(), 1);
/// assert_eq!(reopened.records()?, vec![record]);
/// std::fs::remove_dir_all(&dir)?;
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct AlertStore {
    dir: PathBuf,
    config: StoreConfig,
    segments: Vec<u64>,
    writer: BufWriter<File>,
    /// The frame being appended, assembled here once and reused.
    frame: Vec<u8>,
    seg_len: u64,
    closed_bytes: u64,
    index: HashMap<(Option<TenantId>, RecordKind), OffsetRanges>,
    records: u64,
    duplicates: u64,
    torn_truncated: u64,
}

impl AlertStore {
    /// Opens (or creates) the store rooted at `dir`, scanning every
    /// segment to rebuild the key index and truncating a torn tail.
    ///
    /// # Errors
    ///
    /// I/O errors, plus [`io::ErrorKind::InvalidData`] if corruption is
    /// found anywhere other than the removable tail of the last segment.
    pub fn open(dir: impl AsRef<Path>, config: StoreConfig) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut segments = list_segments(&dir)?;
        if segments.is_empty() {
            File::create(segment_path(&dir, 0))?;
            segments.push(0);
        }

        let mut index: HashMap<(Option<TenantId>, RecordKind), OffsetRanges> = HashMap::new();
        let mut records = 0u64;
        let mut duplicates = 0u64;
        let mut torn_truncated = 0u64;
        let mut closed_bytes = 0u64;
        let mut seg_len = 0u64;
        let last = *segments.last().expect("at least one segment");

        for &n in &segments {
            let path = segment_path(&dir, n);
            let bytes = fs::read(&path)?;
            let mut scanner = FrameScanner::new(&bytes);
            loop {
                match scanner.next_frame() {
                    ScanStep::Frame(payload) => {
                        let record = Record::decode(payload)
                            .ok_or_else(|| corrupt(&path, "undecodable record"))?;
                        let slot = index
                            .entry((record.key.tenant.clone(), record.kind))
                            .or_default();
                        if slot.insert(record.key.offset) {
                            records += 1;
                        } else {
                            duplicates += 1;
                        }
                    }
                    ScanStep::End => break,
                    ScanStep::Torn if n == last => {
                        let keep = scanner.valid_len();
                        torn_truncated = bytes.len() as u64 - keep;
                        OpenOptions::new().write(true).open(&path)?.set_len(keep)?;
                        break;
                    }
                    ScanStep::Torn => {
                        return Err(corrupt(&path, "corrupt frame in interior segment"));
                    }
                }
            }
            if n == last {
                seg_len = scanner.valid_len();
            } else {
                closed_bytes += bytes.len() as u64;
            }
        }

        // Merge the retained-key sidecar (if any): keys whose segments a
        // past retention pass dropped. They don't count as live records
        // — they only keep re-appends idempotent.
        let sidecar = retained_index_path(&dir);
        if sidecar.exists() {
            let bytes = fs::read(&sidecar)?;
            let mut scanner = FrameScanner::new(&bytes);
            loop {
                match scanner.next_frame() {
                    ScanStep::Frame(payload) => {
                        let (slot, ranges) = decode_retained_slot(payload)
                            .ok_or_else(|| corrupt(&sidecar, "undecodable retained-key slot"))?;
                        let entry = index.entry(slot).or_default();
                        for (lo, hi) in ranges {
                            entry.insert_range(lo, hi);
                        }
                    }
                    ScanStep::End => break,
                    // The sidecar is written whole via temp-file +
                    // rename, so a torn frame means real corruption,
                    // not a crash mid-append.
                    ScanStep::Torn => {
                        return Err(corrupt(&sidecar, "corrupt retained-key sidecar"));
                    }
                }
            }
        }

        let writer = BufWriter::with_capacity(
            SEGMENT_BUFFER_BYTES,
            OpenOptions::new()
                .append(true)
                .open(segment_path(&dir, last))?,
        );
        Ok(Self {
            dir,
            config,
            segments,
            writer,
            frame: Vec::new(),
            seg_len,
            closed_bytes,
            index,
            records,
            duplicates,
            torn_truncated,
        })
    }

    /// Appends one record. Returns `Ok(true)` if it was written and
    /// `Ok(false)` if its key was already stored (idempotent no-op).
    pub fn append(&mut self, record: Record) -> io::Result<bool> {
        self.append_ref(&record.key, record.kind, &record.payload)
    }

    /// [`append`](Self::append) from borrowed parts, for callers that
    /// render each payload into a buffer they reuse.
    pub fn append_ref(
        &mut self,
        key: &RecordKey,
        kind: RecordKind,
        payload: &[u8],
    ) -> io::Result<bool> {
        let wrote = self.append_inner(key, kind, payload)?;
        if wrote && self.config.fsync == FsyncPolicy::Always {
            self.sync()?;
        }
        Ok(wrote)
    }

    /// Appends a batch, skipping already-stored keys. Under
    /// [`FsyncPolicy::Always`] the batch is synced once at the end.
    pub fn append_batch(
        &mut self,
        records: impl IntoIterator<Item = Record>,
    ) -> io::Result<AppendSummary> {
        let mut summary = AppendSummary::default();
        for record in records {
            if self.append_inner(&record.key, record.kind, &record.payload)? {
                summary.appended += 1;
            } else {
                summary.skipped += 1;
            }
        }
        if summary.appended > 0 && self.config.fsync == FsyncPolicy::Always {
            self.sync()?;
        }
        Ok(summary)
    }

    /// The one append path: dedupe on the key, assemble the frame once
    /// in the reused buffer (header, key, payload; checksummed in
    /// place), rotate if it would not fit, write it whole.
    fn append_inner(
        &mut self,
        key: &RecordKey,
        kind: RecordKind,
        payload: &[u8],
    ) -> io::Result<bool> {
        let slot = (key.tenant.clone(), kind);
        if self
            .index
            .get(&slot)
            .is_some_and(|set| set.contains(key.offset))
        {
            self.duplicates += 1;
            return Ok(false);
        }
        self.frame.clear();
        let at = begin_frame(&mut self.frame);
        Record::encode_into(key, kind, payload, &mut self.frame);
        finish_frame(&mut self.frame, at);
        let framed = self.frame.len() as u64;
        if self.seg_len > 0 && self.seg_len + framed > self.config.segment_max_bytes {
            self.rotate()?;
        }
        self.writer.write_all(&self.frame)?;
        self.seg_len += framed;
        self.records += 1;
        self.index.entry(slot).or_default().insert(key.offset);
        Ok(true)
    }

    fn rotate(&mut self) -> io::Result<()> {
        self.writer.flush()?;
        if self.config.fsync != FsyncPolicy::Never {
            self.writer.get_ref().sync_data()?;
        }
        let next = self.segments.last().expect("at least one segment") + 1;
        let file = OpenOptions::new()
            .append(true)
            .create_new(true)
            .open(segment_path(&self.dir, next))?;
        self.closed_bytes += self.seg_len;
        self.writer = BufWriter::with_capacity(SEGMENT_BUFFER_BYTES, file);
        self.seg_len = 0;
        self.segments.push(next);
        Ok(())
    }

    /// Drops old, fully-indexed **closed** segments according to
    /// `policy`, reclaiming disk while **preserving idempotence**: the
    /// dropped records' keys are first persisted to a `retained.idx`
    /// sidecar (written atomically via temp file + rename), which
    /// [`open`](Self::open) merges back into the key index — so
    /// re-appending a record whose segment retention removed is still a
    /// no-op, even across a reopen.
    ///
    /// The active segment is never dropped, and segments are only ever
    /// dropped oldest-first, so the surviving log remains a contiguous
    /// suffix of write order.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from flushing, sidecar writing, or
    /// unlinking; the sidecar is durable *before* the first unlink, so
    /// a crash mid-retention can leave extra segments but never lose
    /// keys.
    ///
    /// # Examples
    ///
    /// ```
    /// use divscrape_store::{AlertStore, RetentionPolicy, StoreConfig};
    ///
    /// let dir = std::env::temp_dir().join(format!("divscrape-retain-doc-{}", std::process::id()));
    /// let mut store = AlertStore::open(&dir, StoreConfig::default())?;
    /// // Nothing to drop in a fresh store; the call is a cheap no-op.
    /// let summary = store.retain_segments(RetentionPolicy::KeepBytes(1024))?;
    /// assert_eq!(summary.segments_dropped, 0);
    /// std::fs::remove_dir_all(&dir)?;
    /// # Ok::<(), std::io::Error>(())
    /// ```
    pub fn retain_segments(&mut self, policy: RetentionPolicy) -> io::Result<RetentionSummary> {
        self.writer.flush()?;
        let closed = &self.segments[..self.segments.len() - 1];

        // Decide the drop set: a prefix of the closed segments.
        let mut drop_until = 0usize; // index into `closed`, exclusive
        match policy {
            RetentionPolicy::KeepBytes(keep) => {
                let mut total = self.closed_bytes + self.seg_len;
                for &n in closed {
                    if total <= keep {
                        break;
                    }
                    total -= fs::metadata(segment_path(&self.dir, n))?.len();
                    drop_until += 1;
                }
            }
            RetentionPolicy::KeepDuration(age) => {
                let now = SystemTime::now();
                for &n in closed {
                    let modified = fs::metadata(segment_path(&self.dir, n))?.modified()?;
                    let old_enough = now
                        .duration_since(modified)
                        .map(|elapsed| elapsed >= age)
                        .unwrap_or(false);
                    if !old_enough {
                        break;
                    }
                    drop_until += 1;
                }
            }
        }
        if drop_until == 0 {
            return Ok(RetentionSummary::default());
        }

        // Persist every key (live + already-retained) before unlinking
        // anything: crash-safe ordering — worst case is extra segments
        // plus a sidecar that over-covers them, which open() merges
        // harmlessly.
        let sidecar = retained_index_path(&self.dir);
        let tmp = self.dir.join("retained.idx.tmp");
        let bytes = encode_retained_index(&self.index);
        {
            let mut file = File::create(&tmp)?;
            file.write_all(&bytes)?;
            if self.config.fsync != FsyncPolicy::Never {
                file.sync_data()?;
            }
        }
        fs::rename(&tmp, &sidecar)?;

        let mut summary = RetentionSummary::default();
        for &n in &self.segments[..drop_until] {
            let path = segment_path(&self.dir, n);
            // Count the records being retired (the file is going away;
            // one last scan is cheap relative to the unlink).
            let bytes = fs::read(&path)?;
            let mut scanner = FrameScanner::new(&bytes);
            while let ScanStep::Frame(_) = scanner.next_frame() {
                summary.records_dropped += 1;
            }
            summary.bytes_dropped += bytes.len() as u64;
            fs::remove_file(&path)?;
            summary.segments_dropped += 1;
        }
        self.segments.drain(..drop_until);
        self.closed_bytes -= summary.bytes_dropped;
        // Saturating: after a crash mid-retention, reopened frames whose
        // keys the sidecar already covered were counted as duplicates,
        // not live records.
        self.records = self.records.saturating_sub(summary.records_dropped);
        Ok(summary)
    }

    /// Flushes buffered writes; under [`FsyncPolicy::OnFlush`] (or
    /// stricter) also syncs the active segment to disk.
    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()?;
        if self.config.fsync != FsyncPolicy::Never {
            self.writer.get_ref().sync_data()?;
        }
        Ok(())
    }

    /// Flushes and syncs the active segment regardless of policy.
    pub fn sync(&mut self) -> io::Result<()> {
        self.writer.flush()?;
        self.writer.get_ref().sync_data()
    }

    /// True if `(tenant, kind, offset)` is already stored.
    pub fn contains(&self, tenant: Option<&TenantId>, kind: RecordKind, offset: u64) -> bool {
        self.index
            .get(&(tenant.cloned(), kind))
            .is_some_and(|set| set.contains(offset))
    }

    /// Highest stored offset for `(tenant, kind)`, if any.
    pub fn last_offset(&self, tenant: Option<&TenantId>, kind: RecordKind) -> Option<u64> {
        self.index.get(&(tenant.cloned(), kind))?.last()
    }

    /// Number of live records.
    pub fn len(&self) -> u64 {
        self.records
    }

    /// True if no records are stored.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Reads back every stored record in write order (flushes first).
    pub fn records(&mut self) -> io::Result<Vec<Record>> {
        self.writer.flush()?;
        let mut out = Vec::with_capacity(self.records as usize);
        for &n in &self.segments {
            let path = segment_path(&self.dir, n);
            let bytes = fs::read(&path)?;
            let mut scanner = FrameScanner::new(&bytes);
            loop {
                match scanner.next_frame() {
                    ScanStep::Frame(payload) => out.push(
                        Record::decode(payload)
                            .ok_or_else(|| corrupt(&path, "undecodable record"))?,
                    ),
                    ScanStep::End => break,
                    ScanStep::Torn => return Err(corrupt(&path, "corrupt frame")),
                }
            }
        }
        Ok(out)
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Paths of all segment files, in write order (useful for byte-level
    /// comparisons in tests and tooling).
    pub fn segment_paths(&self) -> Vec<PathBuf> {
        self.segments
            .iter()
            .map(|&n| segment_path(&self.dir, n))
            .collect()
    }

    /// Current counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            records: self.records,
            duplicates_skipped: self.duplicates,
            segments: self.segments.len() as u64,
            bytes: self.closed_bytes + self.seg_len,
            torn_bytes_truncated: self.torn_truncated,
        }
    }
}

/// A cloneable, mutex-guarded handle to one [`AlertStore`], so a
/// `StoreSink` inside a pipeline and an offline reader (e.g. the retro
/// tool) can share the store.
///
/// # Examples
///
/// ```
/// use divscrape_store::{SharedAlertStore, StoreConfig};
///
/// let dir = std::env::temp_dir().join(format!("divscrape-shared-doc-{}", std::process::id()));
/// let store = SharedAlertStore::open(&dir, StoreConfig::default())?;
/// let handle = store.clone();
/// assert_eq!(handle.with(|s| s.len()), 0);
/// std::fs::remove_dir_all(&dir)?;
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct SharedAlertStore {
    inner: Arc<Mutex<AlertStore>>,
}

impl SharedAlertStore {
    /// Wraps an already-open store.
    pub fn new(store: AlertStore) -> Self {
        Self {
            inner: Arc::new(Mutex::new(store)),
        }
    }

    /// Opens (or creates) a store at `dir` and wraps it.
    pub fn open(dir: impl AsRef<Path>, config: StoreConfig) -> io::Result<Self> {
        Ok(Self::new(AlertStore::open(dir, config)?))
    }

    /// Runs `f` with exclusive access to the store.
    ///
    /// # Panics
    ///
    /// Panics if a previous holder panicked while holding the lock.
    pub fn with<R>(&self, f: impl FnOnce(&mut AlertStore) -> R) -> R {
        f(&mut self.inner.lock().expect("alert store lock poisoned"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::frame_len;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "divscrape-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn record(offset: u64, kind: RecordKind, tenant: Option<&str>) -> Record {
        Record {
            key: RecordKey {
                tenant: tenant.map(TenantId::new),
                client: (Ipv4Addr::new(10, 0, 0, 1), 7),
                offset,
            },
            kind,
            payload: format!("{{\"index\":{offset}}}").into_bytes(),
        }
    }

    #[test]
    fn offset_ranges_merge_and_dedupe() {
        let mut set = OffsetRanges::default();
        assert!(set.insert(5));
        assert!(set.insert(6));
        assert!(set.insert(4));
        assert!(!set.insert(5));
        assert_eq!(set.0, vec![(4, 6)]);
        assert!(set.insert(10));
        assert!(set.insert(8));
        assert_eq!(set.0, vec![(4, 6), (8, 8), (10, 10)]);
        assert!(set.insert(9));
        assert_eq!(set.0, vec![(4, 6), (8, 10)]);
        assert!(set.insert(7));
        assert_eq!(set.0, vec![(4, 10)]);
        assert!(set.contains(4) && set.contains(10) && !set.contains(11));
        assert_eq!(set.last(), Some(10));
    }

    #[test]
    fn appends_persist_across_reopen() {
        let dir = temp_dir("reopen");
        let mut store = AlertStore::open(&dir, StoreConfig::default()).unwrap();
        for i in 0..50 {
            assert!(store.append(record(i, RecordKind::Alert, None)).unwrap());
        }
        store.flush().unwrap();
        drop(store);

        let mut store = AlertStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(store.len(), 50);
        assert!(store.contains(None, RecordKind::Alert, 49));
        assert_eq!(store.last_offset(None, RecordKind::Alert), Some(49));
        let records = store.records().unwrap();
        assert_eq!(records.len(), 50);
        assert_eq!(records[17], record(17, RecordKind::Alert, None));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_keys_are_noops_even_across_reopen() {
        let dir = temp_dir("dupes");
        let mut store = AlertStore::open(&dir, StoreConfig::default()).unwrap();
        let summary = store
            .append_batch((0..20).map(|i| record(i, RecordKind::Alert, None)))
            .unwrap();
        assert_eq!(
            summary,
            AppendSummary {
                appended: 20,
                skipped: 0
            }
        );
        store.flush().unwrap();
        drop(store);

        let mut store = AlertStore::open(&dir, StoreConfig::default()).unwrap();
        let replay = store
            .append_batch((0..25).map(|i| record(i, RecordKind::Alert, None)))
            .unwrap();
        assert_eq!(
            replay,
            AppendSummary {
                appended: 5,
                skipped: 20
            }
        );
        assert_eq!(store.len(), 25);
        assert_eq!(store.records().unwrap().len(), 25);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn alert_and_score_offsets_index_independently() {
        let dir = temp_dir("kinds");
        let mut store = AlertStore::open(&dir, StoreConfig::default()).unwrap();
        assert!(store.append(record(3, RecordKind::Score, None)).unwrap());
        assert!(store.append(record(3, RecordKind::Alert, None)).unwrap());
        assert!(!store.append(record(3, RecordKind::Alert, None)).unwrap());
        assert_eq!(store.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tenants_partition_the_key_space() {
        let dir = temp_dir("tenants");
        let mut store = AlertStore::open(&dir, StoreConfig::default()).unwrap();
        assert!(store
            .append(record(0, RecordKind::Alert, Some("acme")))
            .unwrap());
        assert!(store
            .append(record(0, RecordKind::Alert, Some("globex")))
            .unwrap());
        assert!(store.append(record(0, RecordKind::Alert, None)).unwrap());
        assert!(!store
            .append(record(0, RecordKind::Alert, Some("acme")))
            .unwrap());
        let acme = TenantId::new("acme");
        assert!(store.contains(Some(&acme), RecordKind::Alert, 0));
        assert_eq!(store.len(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_rotate_at_the_size_limit() {
        let dir = temp_dir("rotate");
        let config = StoreConfig::default().segment_max_bytes(256);
        let mut store = AlertStore::open(&dir, config).unwrap();
        for i in 0..40 {
            store.append(record(i, RecordKind::Alert, None)).unwrap();
        }
        store.flush().unwrap();
        let stats = store.stats();
        assert!(stats.segments > 1, "expected rotation, got {stats:?}");
        assert_eq!(store.records().unwrap().len(), 40);
        drop(store);

        let mut store = AlertStore::open(&dir, config).unwrap();
        assert_eq!(store.len(), 40);
        assert_eq!(store.records().unwrap().len(), 40);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The retention headline: after dropping old segments *and
    /// reopening*, re-appending the dropped records is still an
    /// idempotent no-op — the keys outlive the frames via the sidecar.
    #[test]
    fn reopening_after_retention_preserves_idempotent_append_keys() {
        let dir = temp_dir("retain-reopen");
        let config = StoreConfig::default().segment_max_bytes(256);
        let mut store = AlertStore::open(&dir, config).unwrap();
        for i in 0..40 {
            store.append(record(i, RecordKind::Alert, None)).unwrap();
        }
        store.flush().unwrap();
        let before = store.stats();
        assert!(before.segments > 2, "need several segments: {before:?}");

        // Keep only the newest bytes; at least one closed segment goes.
        let summary = store
            .retain_segments(RetentionPolicy::KeepBytes(before.bytes / 2))
            .unwrap();
        assert!(summary.segments_dropped > 0, "{summary:?}");
        assert!(summary.records_dropped > 0);
        let after = store.stats();
        assert_eq!(after.segments, before.segments - summary.segments_dropped);
        assert_eq!(after.bytes, before.bytes - summary.bytes_dropped);
        assert_eq!(after.records, 40 - summary.records_dropped);
        // Keys survive in-process too.
        assert!(store.contains(None, RecordKind::Alert, 0));
        drop(store);

        let mut store = AlertStore::open(&dir, config).unwrap();
        assert_eq!(store.len(), 40 - summary.records_dropped);
        // The headline: every original key — including those whose
        // segments are gone — still dedupes after the reopen.
        let replay = store
            .append_batch((0..40).map(|i| record(i, RecordKind::Alert, None)))
            .unwrap();
        assert_eq!(
            replay,
            AppendSummary {
                appended: 0,
                skipped: 40
            }
        );
        assert_eq!(store.last_offset(None, RecordKind::Alert), Some(39));
        // Surviving records read back intact, as a contiguous suffix.
        let records = store.records().unwrap();
        assert_eq!(records.len() as u64, 40 - summary.records_dropped);
        assert_eq!(records.last().unwrap().key.offset, 39);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `KeepDuration(0)` retires every closed segment; the active one
    /// always survives, and tenant-partitioned keys stay partitioned in
    /// the sidecar.
    #[test]
    fn keep_duration_drops_aged_segments_and_keeps_tenant_keys() {
        let dir = temp_dir("retain-age");
        let config = StoreConfig::default().segment_max_bytes(256);
        let mut store = AlertStore::open(&dir, config).unwrap();
        for i in 0..20 {
            store
                .append(record(i, RecordKind::Alert, Some("eu")))
                .unwrap();
            store
                .append(record(i, RecordKind::Alert, Some("us")))
                .unwrap();
        }
        store.flush().unwrap();
        let closed = store.stats().segments - 1;
        assert!(closed > 0);

        let summary = store
            .retain_segments(RetentionPolicy::KeepDuration(Duration::ZERO))
            .unwrap();
        assert_eq!(summary.segments_dropped, closed);
        assert_eq!(store.stats().segments, 1);
        drop(store);

        let mut store = AlertStore::open(&dir, config).unwrap();
        let eu = TenantId::new("eu");
        let us = TenantId::new("us");
        for i in 0..20 {
            assert!(store.contains(Some(&eu), RecordKind::Alert, i), "eu {i}");
            assert!(store.contains(Some(&us), RecordKind::Alert, i), "us {i}");
        }
        assert!(!store.contains(Some(&eu), RecordKind::Score, 0));
        // A genuinely new offset still appends.
        assert!(store
            .append(record(20, RecordKind::Alert, Some("eu")))
            .unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Retention is a no-op when everything fits the budget, and never
    /// touches the active segment.
    #[test]
    fn retention_never_drops_the_active_segment() {
        let dir = temp_dir("retain-active");
        let mut store = AlertStore::open(&dir, StoreConfig::default()).unwrap();
        for i in 0..10 {
            store.append(record(i, RecordKind::Alert, None)).unwrap();
        }
        store.flush().unwrap();
        assert_eq!(store.stats().segments, 1);
        // Budget zero, but the only segment is active: nothing to drop.
        let summary = store
            .retain_segments(RetentionPolicy::KeepBytes(0))
            .unwrap();
        assert_eq!(summary, RetentionSummary::default());
        assert_eq!(store.len(), 10);
        assert_eq!(store.records().unwrap().len(), 10);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_truncates_on_open() {
        let dir = temp_dir("torn");
        let mut store = AlertStore::open(&dir, StoreConfig::default()).unwrap();
        for i in 0..10 {
            store.append(record(i, RecordKind::Alert, None)).unwrap();
        }
        store.flush().unwrap();
        let path = store.segment_paths().pop().unwrap();
        drop(store);

        // Simulate a crash mid-write: append half a frame.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&[0x55; 7]).unwrap();
        drop(file);

        let mut store = AlertStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(store.len(), 10);
        assert_eq!(store.stats().torn_bytes_truncated, 7);
        // The torn bytes are gone from disk, so appends continue cleanly.
        assert!(store.append(record(10, RecordKind::Alert, None)).unwrap());
        store.flush().unwrap();
        drop(store);
        let store = AlertStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(store.len(), 11);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interior_corruption_is_an_error_not_a_truncation() {
        let dir = temp_dir("interior");
        let config = StoreConfig::default().segment_max_bytes(128);
        let mut store = AlertStore::open(&dir, config).unwrap();
        for i in 0..20 {
            store.append(record(i, RecordKind::Alert, None)).unwrap();
        }
        store.flush().unwrap();
        let first = store.segment_paths().remove(0);
        assert!(store.stats().segments > 1);
        drop(store);

        let mut bytes = fs::read(&first).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&first, bytes).unwrap();

        let err = AlertStore::open(&dir, config).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shared_handle_gives_both_holders_the_same_store() {
        let dir = temp_dir("shared");
        let shared = SharedAlertStore::open(&dir, StoreConfig::default()).unwrap();
        let clone = shared.clone();
        clone
            .with(|s| s.append(record(1, RecordKind::Alert, None)))
            .unwrap();
        assert_eq!(shared.with(|s| s.len()), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_record_still_lands_in_its_own_segment() {
        let dir = temp_dir("oversize");
        let config = StoreConfig::default().segment_max_bytes(64);
        let mut store = AlertStore::open(&dir, config).unwrap();
        let mut big = record(0, RecordKind::Alert, None);
        big.payload = vec![b'x'; 500];
        store.append(big.clone()).unwrap();
        store.append(record(1, RecordKind::Alert, None)).unwrap();
        store.flush().unwrap();
        drop(store);
        let mut store = AlertStore::open(&dir, config).unwrap();
        assert_eq!(store.records().unwrap()[0], big);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn frame_len_matches_encoding() {
        let mut framed = Vec::new();
        encode_frame(b"abc", &mut framed);
        assert_eq!(frame_len(3), framed.len() as u64);
    }
}
