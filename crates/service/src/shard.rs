//! Client-hash sharding and the per-shard driver thread.
//!
//! A tenant's traffic is split across `n` shards by [`shard_of`], a pure
//! function of the line's client identity (source address + user agent).
//! Every stock detector keys its state per client, so pinning a client to
//! one shard preserves run affinity: the shard sees the client's complete
//! request sequence and its verdicts are bit-identical to a standalone
//! pipeline fed only that shard's clients.

use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use divscrape_pipeline::{Pipeline, PipelineReport, PipelineStats};

/// How long a shard driver waits for input before ticking (publishing
/// stats, observing shutdown).
const TICK: Duration = Duration::from_millis(25);

/// Lines between stats publications while input is flowing.
const PUBLISH_EVERY: u64 = 256;

/// Picks the shard that owns a log line, by hashing the line's client
/// identity — the source address (first CLF token) and the user agent
/// (last quoted CLF field) — with FNV-1a.
///
/// The function is pure: equal `(address, user-agent)` pairs always map
/// to the same shard, so a client's whole session lands on one shard and
/// per-client detector state never splits. Malformed lines still map
/// deterministically — whichever shard receives one rejects it in CLF
/// parsing and counts a parse error.
///
/// ```
/// use divscrape_service::shard_of;
///
/// let line = r#"10.0.0.9 - - [11/Mar/2018:00:00:00 +0000] "GET / HTTP/1.1" 200 5 "-" "curl/7.58.0""#;
/// let shard = shard_of(line, 4);
/// assert!(shard < 4);
/// // Same client, different request: same shard.
/// let later = line.replace("GET /", "GET /checkout");
/// assert_eq!(shard_of(&later, 4), shard);
/// // One shard is no sharding at all.
/// assert_eq!(shard_of(line, 1), 0);
/// ```
pub fn shard_of(line: &str, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let bytes = line.as_bytes();
    let addr_end = bytes.iter().position(|&b| b == b' ').unwrap_or(bytes.len());
    let addr = &bytes[..addr_end];
    // The user agent is the last quoted CLF field; hash whatever sits
    // between the final quote pair (empty when the line has no quotes).
    let agent = match line.rfind('"') {
        Some(close) if close > 0 => match line[..close].rfind('"') {
            Some(open) => &bytes[open + 1..close],
            None => &[][..],
        },
        _ => &[][..],
    };
    let mut hash = fnv1a(FNV_OFFSET, addr);
    hash = fnv1a(hash, &[0xff]);
    hash = fnv1a(hash, agent);
    (hash % shards as u64) as usize
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut hash = seed;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Everything a shard driver accepts over its queue. Lines and control
/// share one bounded channel, so control operations are ordered with the
/// traffic they follow.
pub(crate) enum ShardMsg {
    /// One raw log line to parse and push.
    Line(String),
    /// Flush the pipeline and reply with its report.
    Drain(SyncSender<PipelineReport>),
    /// Freeze (`true`) or thaw (`false`) the online recalibrator.
    Freeze(bool),
    /// Install a new global eviction capacity for this shard's pool.
    Budget(usize),
    /// Final drain: reply with the report plus closing counters, then
    /// exit the driver thread.
    Stop(SyncSender<ShardFinal>),
}

/// A stopped shard's parting state, folded into the plane's departed
/// totals so aggregates stay monotonic across tenant churn.
pub(crate) struct ShardFinal {
    pub report: PipelineReport,
    pub stats: PipelineStats,
    pub parse_errors: u64,
}

/// The driver's most recently published snapshot. Readers (`STATS`, the
/// plane's aggregation) never touch the pipeline itself, so a stalled
/// shard serves stale-but-instant numbers instead of blocking the admin
/// plane.
#[derive(Default)]
pub(crate) struct ShardPublished {
    pub stats: PipelineStats,
    pub parse_errors: u64,
}

/// One shard of one tenant: a bounded queue feeding a dedicated driver
/// thread that owns the shard's [`Pipeline`].
pub(crate) struct ShardHandle {
    tx: SyncSender<ShardMsg>,
    thread: Option<JoinHandle<()>>,
    published: Arc<Mutex<ShardPublished>>,
    worker_count: usize,
}

/// What became of a lossy line offer.
pub(crate) enum Offer {
    Accepted,
    Full,
    Gone,
}

impl ShardHandle {
    /// Spawns the driver thread for `pipeline` behind a queue of
    /// `queue_depth` messages.
    pub(crate) fn spawn(pipeline: Pipeline, queue_depth: usize) -> ShardHandle {
        // One multi-producer queue: any thread may call
        // `ingest`/`offer`, and source pumps and the admin plane's
        // control messages (drain, freeze, budget, stop) share it so
        // control stays ordered with the traffic it follows.
        let (tx, rx) = sync_channel(queue_depth.max(1));
        let published = Arc::new(Mutex::new(ShardPublished {
            stats: pipeline.stats(),
            parse_errors: 0,
        }));
        let worker_count = pipeline.worker_count();
        let board = Arc::clone(&published);
        let thread = thread::Builder::new()
            .name("divscrape-shard".into())
            .spawn(move || run_shard(pipeline, rx, board))
            .expect("spawn shard driver");
        ShardHandle {
            tx,
            thread: Some(thread),
            published,
            worker_count,
        }
    }

    /// A clone of the shard's input queue, for sending outside any
    /// registry lock (a blocking send while holding the lock would let
    /// one stalled tenant wedge every other tenant's ingestion).
    pub(crate) fn sender(&self) -> SyncSender<ShardMsg> {
        self.tx.clone()
    }

    pub(crate) fn worker_count(&self) -> usize {
        self.worker_count
    }

    /// Snapshot of the driver's last published counters.
    pub(crate) fn published(&self) -> (PipelineStats, u64) {
        let board = self
            .published
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        (board.stats.clone(), board.parse_errors)
    }

    /// Stops the driver: final drain, parting counters, thread joined.
    pub(crate) fn stop(mut self) -> Option<ShardFinal> {
        // One-shot reply channels (here and in the plane's drain) carry
        // one message per control request, off the per-line path.
        let (reply_tx, reply_rx) = sync_channel(1);
        let sent = self.tx.send(ShardMsg::Stop(reply_tx)).is_ok();
        let fin = if sent { reply_rx.recv().ok() } else { None };
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        fin
    }
}

pub(crate) fn send_line(tx: &SyncSender<ShardMsg>, line: String) -> bool {
    tx.send(ShardMsg::Line(line)).is_ok()
}

pub(crate) fn offer_line(tx: &SyncSender<ShardMsg>, line: String) -> Offer {
    match tx.try_send(ShardMsg::Line(line)) {
        Ok(()) => Offer::Accepted,
        Err(TrySendError::Full(_)) => Offer::Full,
        Err(TrySendError::Disconnected(_)) => Offer::Gone,
    }
}

fn publish(pipeline: &Pipeline, parse_errors: u64, board: &Mutex<ShardPublished>) {
    let mut slot = board
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    slot.stats = pipeline.stats();
    slot.parse_errors = parse_errors;
}

fn run_shard(mut pipeline: Pipeline, rx: Receiver<ShardMsg>, board: Arc<Mutex<ShardPublished>>) {
    let mut parse_errors = 0u64;
    let mut since_publish = 0u64;
    loop {
        match rx.recv_timeout(TICK) {
            Ok(ShardMsg::Line(line)) => {
                if pipeline.push_line(&line).is_err() {
                    parse_errors += 1;
                }
                since_publish += 1;
                if since_publish >= PUBLISH_EVERY {
                    publish(&pipeline, parse_errors, &board);
                    since_publish = 0;
                }
            }
            Ok(ShardMsg::Drain(reply)) => {
                let report = pipeline.drain();
                publish(&pipeline, parse_errors, &board);
                since_publish = 0;
                let _ = reply.send(report);
            }
            Ok(ShardMsg::Freeze(frozen)) => {
                pipeline.set_recalibration_frozen(frozen);
                publish(&pipeline, parse_errors, &board);
            }
            Ok(ShardMsg::Budget(capacity)) => {
                pipeline.set_eviction_global_capacity(capacity);
                publish(&pipeline, parse_errors, &board);
            }
            Ok(ShardMsg::Stop(reply)) => {
                let report = pipeline.drain();
                let stats = pipeline.stats();
                publish(&pipeline, parse_errors, &board);
                let _ = reply.send(ShardFinal {
                    report,
                    stats,
                    parse_errors,
                });
                return;
            }
            Err(RecvTimeoutError::Timeout) => {
                publish(&pipeline, parse_errors, &board);
                since_publish = 0;
            }
            Err(RecvTimeoutError::Disconnected) => {
                // Plane dropped without an orderly stop: flush and exit.
                let _ = pipeline.drain();
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_for(ip: &str, agent: &str) -> String {
        format!(
            "{ip} - - [11/Mar/2018:00:00:00 +0000] \"GET /item HTTP/1.1\" 200 12 \"-\" \"{agent}\""
        )
    }

    #[test]
    fn same_client_always_lands_on_the_same_shard() {
        for shards in [2usize, 3, 4, 7] {
            for i in 0..50u32 {
                let ip = format!("10.1.{}.{}", i / 8, i % 8 + 1);
                let a = shard_of(&line_for(&ip, "curl/7.58.0"), shards);
                let b = shard_of(
                    &line_for(&ip, "curl/7.58.0").replace("/item", "/cart"),
                    shards,
                );
                assert_eq!(a, b, "client {ip} split across shards");
                assert!(a < shards);
            }
        }
    }

    #[test]
    fn distinct_agents_on_one_address_can_diverge() {
        // Different UA = different client identity; over many agents the
        // hash must use the agent bytes (not collapse to address-only).
        let spread: std::collections::HashSet<usize> = (0..32)
            .map(|i| shard_of(&line_for("10.0.0.1", &format!("bot/{i}.0")), 4))
            .collect();
        assert!(spread.len() > 1, "agent bytes ignored by shard_of");
    }

    #[test]
    fn hash_spreads_clients_across_shards() {
        let mut counts = [0usize; 4];
        for i in 0..400u32 {
            let ip = format!("10.{}.{}.{}", i % 200, (i / 20) % 250 + 1, i % 250 + 1);
            counts[shard_of(&line_for(&ip, "Mozilla/5.0"), 4)] += 1;
        }
        for (shard, &count) in counts.iter().enumerate() {
            assert!(count > 40, "shard {shard} starved: {counts:?}");
        }
    }

    #[test]
    fn malformed_lines_stay_in_range_and_map_deterministically() {
        for junk in ["", "garbage-without-quotes", "\"", "a \"b"] {
            let shard = shard_of(junk, 4);
            assert!(shard < 4);
            assert_eq!(shard_of(junk, 4), shard);
        }
    }
}
