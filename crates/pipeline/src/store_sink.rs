//! [`StoreSink`]: the durable-store alert sink.

use std::io;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use divscrape_store::{Record, RecordKey, RecordKind, SharedAlertStore, StoreConfig};

use crate::sink::{Alert, AlertSink, ScoredEntry, SinkCounters, SinkTelemetry};

/// Which records a [`StoreSink`] persists per finalized entry, besides
/// every alert.
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

    fn append(&mut self, record: Record) {
        match self.store.with(|store| store.append(record)) {
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
        self.append(Record {
            key: RecordKey {
                tenant: alert.tenant.cloned(),
                client: alert.entry.client_key(),
                offset: alert.index,
            },
            kind: RecordKind::Alert,
            payload: alert.to_json().into_bytes(),
        });
    }

    fn on_entry(&mut self, record: &ScoredEntry<'_>) {
        let keep = match self.policy {
            RecordPolicy::AlertsOnly => false,
            RecordPolicy::VotedEntries => record.alerted || record.votes.contains(&true),
            RecordPolicy::AllEntries => true,
        };
        if !keep {
            return;
        }
        self.append(Record {
            key: RecordKey {
                tenant: record.tenant.cloned(),
                client: record.entry.client_key(),
                offset: record.index,
            },
            kind: RecordKind::Score,
            payload: record.to_json().into_bytes(),
        });
    }

    fn wants_entries(&self) -> bool {
        self.policy != RecordPolicy::AlertsOnly
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
    use divscrape_httplog::LogEntry;
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
        assert!(sink.wants_entries());
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
        assert!(!sink.wants_entries());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
