//! [`StoreSink`]: the durable-store alert sink.

use std::io;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use divscrape_detect::TenantId;
use divscrape_httplog::LogEntry;
use divscrape_store::{RecordKey, RecordKind, SharedAlertStore, StoreConfig};

use crate::sink::{Alert, AlertSink, ScoredEntry, SinkCounters, SinkTelemetry};

/// Which records a [`StoreSink`] persists per finalized entry, besides
/// every alert — and, as [`AlertSink::entry_policy`]'s answer, which
/// finalized entries any sink asks the pipeline to show it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecordPolicy {
    /// Only alerts. Smallest store; history cannot be re-adjudicated.
    AlertsOnly,
    /// Alerts plus a score record for every entry where **at least one
    /// member voted** (or that alerted). Enough to replay any positive
    /// adjudication rule offline — an entry with zero votes cannot alert
    /// under a positive-weight rule — at a fraction of the bytes of full
    /// history.
    #[default]
    VotedEntries,
    /// Alerts plus a score record for **every** finalized entry,
    /// carrying the raw CLF line — what the retro tool needs to re-run a
    /// *candidate detector* (not just a candidate rule) over history.
    AllEntries,
}

impl RecordPolicy {
    /// Whether a finalized entry is kept, given whether it alerted and
    /// whether any member voted on it.
    pub(crate) fn keeps(self, alerted: bool, voted: bool) -> bool {
        match self {
            RecordPolicy::AlertsOnly => false,
            RecordPolicy::VotedEntries => alerted || voted,
            RecordPolicy::AllEntries => true,
        }
    }
}

/// An [`AlertSink`] that appends alerts (and, per [`RecordPolicy`],
/// per-entry score records) to an embedded [`AlertStore`]
/// (`divscrape-store`), keyed by `(tenant, client, feed-order offset)`.
///
/// Because store appends are idempotent on that key, feeding the sink an
/// already-stored prefix — exactly what happens when ingestion restarts
/// and re-reads its input — is a cheap no-op, which is what makes the
/// checkpointed end-to-end path exactly-once.
///
/// [`AlertStore`]: divscrape_store::AlertStore
///
/// # Examples
///
/// ```
/// use divscrape_pipeline::{RecordPolicy, StoreSink};
///
/// let dir = std::env::temp_dir().join(format!("divscrape-sink-doc-{}", std::process::id()));
/// let sink = StoreSink::open(&dir)?.record_policy(RecordPolicy::AllEntries);
/// let store = sink.store();
/// // ... builder.sink(sink) ... run the pipeline ... then read back:
/// assert_eq!(store.with(|s| s.len()), 0);
/// std::fs::remove_dir_all(&dir)?;
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct StoreSink {
    store: SharedAlertStore,
    policy: RecordPolicy,
    counters: Arc<SinkCounters>,
    /// The JSON payload of the record being appended, rendered here
    /// and reused.
    line: String,
}

impl StoreSink {
    /// Opens (or creates) a store at `dir` with default
    /// [`StoreConfig`] and wraps it. Policy defaults to
    /// [`RecordPolicy::VotedEntries`].
    ///
    /// # Errors
    ///
    /// Propagates [`AlertStore::open`](divscrape_store::AlertStore::open)
    /// failures.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        Self::with_config(dir, StoreConfig::default())
    }

    /// Like [`open`](Self::open) with explicit store tuning.
    pub fn with_config(dir: impl AsRef<Path>, config: StoreConfig) -> io::Result<Self> {
        Ok(Self::shared(SharedAlertStore::open(dir, config)?))
    }

    /// Wraps an already-open shared store — use this to point several
    /// sinks (e.g. one per tenant shard of a service plane) at one store; the
    /// tenant tag keeps their key spaces disjoint.
    pub fn shared(store: SharedAlertStore) -> Self {
        Self {
            store,
            policy: RecordPolicy::default(),
            counters: Arc::default(),
            line: String::new(),
        }
    }

    /// Sets which per-entry records are kept (see [`RecordPolicy`]).
    pub fn record_policy(mut self, policy: RecordPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// A handle to the underlying store, valid after the sink moves into
    /// a pipeline.
    pub fn store(&self) -> SharedAlertStore {
        self.store.clone()
    }

    /// A live view of this sink's delivery counters (`written` counts
    /// appended records, `errors` counts store I/O failures; duplicate
    /// no-ops count as neither).
    pub fn telemetry(&self) -> SinkTelemetry {
        SinkTelemetry(Arc::clone(&self.counters))
    }

    /// Appends the payload rendered into `self.line`, keyed by tenant,
    /// `entry`'s client and `offset`.
    fn append(
        &mut self,
        tenant: Option<&TenantId>,
        entry: &LogEntry,
        offset: u64,
        kind: RecordKind,
    ) {
        let key = RecordKey {
            tenant: tenant.cloned(),
            client: entry.client_key(),
            offset,
        };
        let payload = self.line.as_bytes();
        match self
            .store
            .with(|store| store.append_ref(&key, kind, payload))
        {
            Ok(true) => {
                self.counters.written.fetch_add(1, Ordering::AcqRel);
            }
            Ok(false) => {} // idempotent duplicate: the store counts it
            Err(_) => {
                self.counters.errors.fetch_add(1, Ordering::AcqRel);
            }
        }
    }
}

impl AlertSink for StoreSink {
    fn on_alert(&mut self, alert: &Alert<'_>) {
        self.line.clear();
        alert.write_json(&mut self.line);
        self.append(alert.tenant, alert.entry, alert.index, RecordKind::Alert);
    }

    fn on_entry(&mut self, record: &ScoredEntry<'_>) {
        // The pipeline already skips what `entry_policy` rules out; the
        // guard stays for callers that hand entries over directly.
        if !self
            .policy
            .keeps(record.alerted, record.votes.contains(&true))
        {
            return;
        }
        self.line.clear();
        record.write_json(&mut self.line);
        self.append(record.tenant, record.entry, record.index, RecordKind::Score);
    }

    fn entry_policy(&self) -> RecordPolicy {
        self.policy
    }

    fn flush(&mut self) {
        if self.store.with(|store| store.flush()).is_err() {
            self.counters.errors.fetch_add(1, Ordering::AcqRel);
        }
    }

    fn sink_telemetry(&self) -> Option<SinkTelemetry> {
        Some(self.telemetry())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "divscrape-storesink-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn entry() -> LogEntry {
        LogEntry::parse(
            r#"198.51.100.7 - - [11/Mar/2018:06:25:14 +0000] "GET /search HTTP/1.1" 403 17 "-" "curl/7.58.0""#,
        )
        .unwrap()
    }

    #[test]
    fn alerts_and_voted_entries_are_stored_idempotently() {
        let dir = temp_dir("idempotent");
        let mut sink = StoreSink::open(&dir).unwrap();
        assert_eq!(sink.entry_policy(), RecordPolicy::VotedEntries);
        let entry = entry();
        let alert = Alert {
            index: 3,
            tenant: None,
            entry: &entry,
            votes: &[true, false],
            scores: &[0.9, 0.1],
        };
        let scored = ScoredEntry {
            index: 3,
            tenant: None,
            entry: &entry,
            alerted: true,
            votes: &[true, false],
            scores: &[0.9, 0.1],
        };
        let quiet = ScoredEntry {
            index: 4,
            alerted: false,
            votes: &[false, false],
            ..scored
        };
        for _ in 0..2 {
            sink.on_entry(&scored);
            sink.on_alert(&alert);
            sink.on_entry(&quiet); // no votes: dropped by VotedEntries
        }
        sink.flush();
        let store = sink.store();
        assert_eq!(store.with(|s| s.len()), 2); // one alert + one score
        assert_eq!(sink.telemetry().written(), 2);
        assert_eq!(sink.telemetry().errors(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn all_entries_policy_keeps_quiet_entries_too() {
        let dir = temp_dir("all");
        let mut sink = StoreSink::open(&dir)
            .unwrap()
            .record_policy(RecordPolicy::AllEntries);
        let entry = entry();
        sink.on_entry(&ScoredEntry {
            index: 0,
            tenant: None,
            entry: &entry,
            alerted: false,
            votes: &[false],
            scores: &[0.0],
        });
        assert_eq!(sink.store().with(|s| s.len()), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn alerts_only_policy_opts_out_of_entry_callbacks() {
        let dir = temp_dir("alerts-only");
        let sink = StoreSink::open(&dir)
            .unwrap()
            .record_policy(RecordPolicy::AlertsOnly);
        assert_eq!(sink.entry_policy(), RecordPolicy::AlertsOnly);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
