//! The driver-side triage stage: classifies every submitted entry
//! *before* client-sharding, buffers benign-so-far clients' entries for
//! potential replay, and hands the engine a per-chunk suppression plan.
//!
//! Classification runs serially on the driver in feed order — the same
//! place adjudication and rule installs already live — so a client's
//! escalation point is a deterministic function of its stream position,
//! independent of worker count. The expensive work the stage *saves*
//! (the detectors) still happens on the workers: suppressed entries are
//! simply never assigned to any shard, and an escalated client's
//! buffered history ships to its owning worker as a [`ReplayLoad`] to be
//! run through the detectors at the client's escalation point, in feed
//! order relative to the shard's live entries.
//!
//! Buffered history is bounded by a global byte cap over the raw line
//! text. When the cap is exceeded, the globally **oldest** buffered
//! entries spill first (tracked per entry in
//! [`TriageCounters::spilled`]); a spilled entry is never replayed, so
//! its member verdicts stay clear — the documented recall trade of an
//! undersized replay buffer.

use std::collections::{BTreeMap, HashMap, VecDeque};

use divscrape_detect::triage::{TriageDecision, TriageFilter};
use divscrape_detect::{ClientKey, Verdict};
use divscrape_httplog::EntryRef;

/// One escalated client's buffered history, in feed order — shipped to
/// the worker owning the client's shard.
pub(crate) struct ReplayLoad {
    /// The escalated client; routes the load to its shard.
    pub key: ClientKey,
    /// `(feed-order index, raw CLF line)` per buffered entry, oldest
    /// first.
    pub entries: Vec<(u64, String)>,
    /// Chunk position of the escalating entry, filled in by the engine
    /// when the chunk is planned. The worker replays the load immediately
    /// before this live position, so the detectors' observation clock
    /// matches a triage-off run (a late client's buffered history must
    /// not advance TTL eviction past an earlier client's replayed state).
    pub trigger_pos: usize,
}

/// The detectors' verdicts for one replayed entry, echoed back to the
/// driver so finalization can patch the entry's verdict row (and deliver
/// a late alert if the combined verdict flips).
pub(crate) struct RetroVerdict {
    /// The replayed entry's feed-order index.
    pub index: u64,
    /// The raw line, so a late alert can materialize the entry.
    pub line: String,
    /// One verdict per detector, in composition order.
    pub verdicts: Vec<Verdict>,
}

/// What the stage decided for one admitted entry.
pub(crate) enum EntryAction {
    /// Run the entry through the detectors (client already escalated, or
    /// its buffer was fully spilled).
    Process,
    /// Entry buffered; skip the detectors.
    Suppress,
    /// This entry escalated its client: replay the load, then process
    /// the entry live.
    Replay(ReplayLoad),
}

/// Lifetime triage counters, surfaced through `PipelineStats`.
///
/// `suppressed` counts entries that skipped the detectors at admission;
/// each of them is eventually either replayed, spilled, or still
/// buffered awaiting its client's fate.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TriageCounters {
    /// Clients escalated (including re-escalations after eviction).
    pub escalations: u64,
    /// Entries suppressed at admission.
    pub suppressed: u64,
    /// Suppressed entries replayed through the detectors.
    pub replayed: u64,
    /// Suppressed entries dropped under the replay-buffer byte cap.
    pub spilled: u64,
}

/// One benign-so-far client's buffered entries.
#[derive(Default)]
struct ReplayBuffer {
    entries: VecDeque<(u64, String)>,
    bytes: usize,
}

/// The driver's triage state: the filter plus the replay buffers.
pub(crate) struct TriageStage {
    pub filter: Box<dyn TriageFilter>,
    cap_bytes: usize,
    buffers: HashMap<ClientKey, ReplayBuffer>,
    /// Spill order: each buffered client keyed by its **oldest** entry's
    /// feed index (feed indices are unique, so this is a total order
    /// over buffers by age).
    order: BTreeMap<u64, ClientKey>,
    /// Total buffered line bytes across all clients.
    bytes: usize,
    pub counters: TriageCounters,
}

impl TriageStage {
    pub fn new(filter: Box<dyn TriageFilter>, cap_bytes: usize) -> Self {
        Self {
            filter,
            cap_bytes,
            buffers: HashMap::new(),
            order: BTreeMap::new(),
            bytes: 0,
            counters: TriageCounters::default(),
        }
    }

    /// Admits one entry in feed order. `line` (the entry's arena text)
    /// is only copied when the entry is actually buffered.
    pub fn admit(&mut self, entry: &EntryRef<'_>, index: u64, line: &str) -> EntryAction {
        match self.filter.classify(entry) {
            TriageDecision::Escalated => EntryAction::Process,
            TriageDecision::Benign => {
                let key = entry.client_key();
                let text = line.to_owned();
                self.bytes += text.len();
                let buffer = self.buffers.entry(key).or_default();
                if buffer.entries.is_empty() {
                    self.order.insert(index, key);
                }
                buffer.bytes += text.len();
                buffer.entries.push_back((index, text));
                self.counters.suppressed += 1;
                self.spill_to_cap();
                EntryAction::Suppress
            }
            TriageDecision::Escalate => {
                self.counters.escalations += 1;
                let key = entry.client_key();
                match self.buffers.remove(&key) {
                    Some(buffer) if !buffer.entries.is_empty() => {
                        let front = buffer.entries.front().expect("checked non-empty").0;
                        self.order.remove(&front);
                        self.bytes -= buffer.bytes;
                        self.counters.replayed += buffer.entries.len() as u64;
                        EntryAction::Replay(ReplayLoad {
                            key,
                            entries: buffer.entries.into(),
                            trigger_pos: 0,
                        })
                    }
                    _ => EntryAction::Process,
                }
            }
        }
    }

    /// Spills the globally oldest buffered entries until the byte cap
    /// holds again.
    fn spill_to_cap(&mut self) {
        while self.bytes > self.cap_bytes {
            let Some((&front, &key)) = self.order.iter().next() else {
                break;
            };
            self.order.remove(&front);
            let buffer = self.buffers.get_mut(&key).expect("ordered buffer exists");
            let (index, text) = buffer
                .entries
                .pop_front()
                .expect("ordered buffer non-empty");
            debug_assert_eq!(index, front, "order index tracks buffer front");
            self.bytes -= text.len();
            buffer.bytes -= text.len();
            self.counters.spilled += 1;
            match buffer.entries.front() {
                Some(&(next, _)) => {
                    self.order.insert(next, key);
                }
                None => {
                    self.buffers.remove(&key);
                }
            }
        }
    }

    /// Drops all triage state: filter evidence, buffers and counters.
    pub fn reset(&mut self) {
        self.filter.reset();
        self.buffers.clear();
        self.order.clear();
        self.bytes = 0;
        self.counters = TriageCounters::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use divscrape_detect::FastTriage;
    use divscrape_httplog::LogEntry;

    const BROWSER_UA: &str = "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/64.0.3282.140 Safari/537.36";

    fn line(ip: &str, sec: i64, path: &str, ua: &str) -> String {
        format!(
            "{ip} - - [11/Mar/2018:00:00:{sec:02} +0000] \"GET {path} HTTP/1.1\" 200 77 \"http://site/\" \"{ua}\""
        )
    }

    fn stage(cap: usize) -> TriageStage {
        TriageStage::new(Box::new(FastTriage::stock()), cap)
    }

    #[test]
    fn escalation_releases_the_full_buffer_in_feed_order() {
        let mut stage = stage(1 << 20);
        let mut lines = Vec::new();
        for i in 0..4 {
            // Page then js, so the client stays benign.
            let path = if i % 2 == 0 {
                "/offers/1"
            } else {
                "/static/app.js"
            };
            lines.push(line("10.0.0.9", i, path, BROWSER_UA));
        }
        for (i, l) in lines.iter().enumerate() {
            let entry = LogEntry::parse(l).unwrap();
            assert!(matches!(
                stage.admit(&entry.view(), i as u64, l),
                EntryAction::Suppress
            ));
        }
        // A probe path escalates; the buffered history comes back whole.
        let trigger = line("10.0.0.9", 10, "/wp-admin/setup.php", BROWSER_UA);
        let entry = LogEntry::parse(&trigger).unwrap();
        match stage.admit(&entry.view(), 4, &trigger) {
            EntryAction::Replay(load) => {
                assert_eq!(load.entries.len(), 4);
                let indices: Vec<u64> = load.entries.iter().map(|(i, _)| *i).collect();
                assert_eq!(indices, vec![0, 1, 2, 3]);
                for ((_, got), want) in load.entries.iter().zip(&lines) {
                    assert_eq!(got, want);
                }
            }
            _ => panic!("expected replay"),
        }
        assert_eq!(stage.counters.escalations, 1);
        assert_eq!(stage.counters.suppressed, 4);
        assert_eq!(stage.counters.replayed, 4);
        assert_eq!(stage.bytes, 0);
    }

    #[test]
    fn cap_spills_the_globally_oldest_entries_first() {
        let a = line("10.0.0.1", 0, "/offers/1", BROWSER_UA);
        let b = line("10.0.0.2", 1, "/offers/1", BROWSER_UA);
        // Cap below two lines: buffering the second spills the first.
        let mut stage = stage(a.len() + b.len() - 1);
        let ea = LogEntry::parse(&a).unwrap();
        let eb = LogEntry::parse(&b).unwrap();
        assert!(matches!(
            stage.admit(&ea.view(), 0, &a),
            EntryAction::Suppress
        ));
        assert!(matches!(
            stage.admit(&eb.view(), 1, &b),
            EntryAction::Suppress
        ));
        assert_eq!(stage.counters.spilled, 1);
        // Client A's buffer is gone: its escalation has nothing to replay.
        let trigger_a = line("10.0.0.1", 5, "/robots.txt", BROWSER_UA);
        let et = LogEntry::parse(&trigger_a).unwrap();
        assert!(matches!(
            stage.admit(&et.view(), 2, &trigger_a),
            EntryAction::Process
        ));
        // Client B's buffer survived intact.
        let trigger_b = line("10.0.0.2", 6, "/robots.txt", BROWSER_UA);
        let et = LogEntry::parse(&trigger_b).unwrap();
        match stage.admit(&et.view(), 3, &trigger_b) {
            EntryAction::Replay(load) => assert_eq!(load.entries.len(), 1),
            _ => panic!("expected replay"),
        }
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut stage = stage(1 << 20);
        let l = line("10.0.0.3", 0, "/offers/1", BROWSER_UA);
        let e = LogEntry::parse(&l).unwrap();
        stage.admit(&e.view(), 0, &l);
        stage.reset();
        assert_eq!(stage.bytes, 0);
        assert_eq!(stage.counters.suppressed, 0);
        assert!(stage.buffers.is_empty());
        // After reset the same entry is classified fresh.
        assert!(matches!(
            stage.admit(&e.view(), 0, &l),
            EntryAction::Suppress
        ));
    }
}
