//! Client-hash sharding and the per-shard driver thread.
//!
//! A tenant's traffic is split across `n` shards by [`shard_of`], a pure
//! function of the line's client identity (source address + user agent).
//! Every stock detector keys its state per client, so pinning a client to
//! one shard preserves run affinity: the shard sees the client's complete
//! request sequence and its verdicts are bit-identical to a standalone
//! pipeline fed only that shard's clients.

use std::ops::Range;
use std::sync::mpsc::{self, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use divscrape_pipeline::{Pipeline, PipelineReport, PipelineStats};

/// The longest a shard driver parks waiting for input before ticking
/// (publishing stats). Before it parks it hands its pipeline whatever
/// it pushed ([`Pipeline::park_for`]: group commit), so a tenant's
/// lines are adjudicated as soon as its queue runs dry — which is also
/// what delivers a tenant's last lines when its traffic stops.
/// [`max_delay`](divscrape_pipeline::PipelineBuilder::max_delay) only
/// bounds callers that push and never park; here it matters only while
/// the queue never runs dry. The driver parks for less than the tick
/// while chunks are in flight on the pipeline's pool.
const TICK: Duration = Duration::from_millis(25);

/// Lines between stats publications while input is flowing.
const PUBLISH_EVERY: u64 = 256;

/// Text-arena capacity a drained batch keeps for its next fill. An
/// ordinary batch (`queue_depth` lines) fits many times over; what one
/// oversized line grew beyond this is given back.
const ARENA_KEEP_BYTES: usize = 64 * 1024;

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

/// The control messages a shard driver accepts. They are staged in the
/// same bounded batch as the lines, so a control operation is ordered
/// with the traffic it follows.
pub(crate) enum ShardMsg {
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

/// One staged message: a line is the span of its bytes in the batch's
/// text arena, a control message keeps its place among the lines.
enum Staged {
    Line(Range<usize>),
    Control(ShardMsg),
}

/// What producers fill and the driver empties: one text arena holding
/// every staged line back to back, and the messages in arrival order.
#[derive(Default)]
struct Batch {
    text: String,
    staged: Vec<Staged>,
}

impl Batch {
    fn stage_line(&mut self, line: &str) {
        let start = self.text.len();
        self.text.push_str(line);
        self.staged.push(Staged::Line(start..self.text.len()));
    }

    /// Empties a drained batch for its next fill, giving back arena
    /// capacity beyond [`ARENA_KEEP_BYTES`].
    fn recycle(&mut self) {
        self.staged.clear();
        self.text.clear();
        self.text.shrink_to(ARENA_KEEP_BYTES);
    }
}

struct QueueState {
    batch: Batch,
    /// The driver is parked on `ready`; staging into an empty batch
    /// must wake it.
    driver_parked: bool,
    /// Producers parked on `space`; a swap must wake them.
    producers_parked: usize,
    /// The driver has exited; nothing is accepted any more.
    closed: bool,
}

/// The hand-off between any number of producers and one shard driver: a
/// double buffer. Producers append to the staging [`Batch`] under the
/// mutex; the driver swaps the whole batch for its own drained spare, so
/// a line costs a copy into a warm arena rather than a channel message,
/// and both arenas recycle without a return path.
struct ShardQueue {
    /// Staged messages before `send` parks and `offer_line` refuses.
    depth: usize,
    state: Mutex<QueueState>,
    /// The driver parks here while nothing is staged.
    ready: Condvar,
    /// Producers park here while `depth` messages are staged.
    space: Condvar,
}

impl ShardQueue {
    // A panicking holder cannot leave the state torn: a line's text
    // lands before the span that refers to it, and spans are absolute.
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Stages one message through `stage` once there is room, parking
    /// while the batch is full if `wait` is set.
    fn push(&self, wait: bool, stage: impl FnOnce(&mut Batch)) -> Offer {
        let mut state = self.lock();
        loop {
            if state.closed {
                return Offer::Gone;
            }
            if state.batch.staged.len() < self.depth {
                break;
            }
            if !wait {
                return Offer::Full;
            }
            state.producers_parked += 1;
            state = self
                .space
                .wait(state)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            state.producers_parked -= 1;
        }
        // Only the first message into an empty batch wakes the driver;
        // it takes everything staged by the time it runs.
        let wake = state.driver_parked && state.batch.staged.is_empty();
        stage(&mut state.batch);
        drop(state);
        if wake {
            self.ready.notify_one();
        }
        Offer::Accepted
    }

    /// Swaps the staged batch into `spare` (which must be empty),
    /// parking up to `tick` while nothing is staged. Returns `false` if
    /// there is still nothing. Parked producers are woken once per swap.
    fn take(&self, spare: &mut Batch, tick: Duration) -> bool {
        let mut state = self.lock();
        if state.batch.staged.is_empty() {
            state.driver_parked = true;
            state = self
                .ready
                .wait_timeout(state, tick)
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .0;
            state.driver_parked = false;
        }
        self.swap_out(state, spare)
    }

    /// [`take`](Self::take) without parking: `false` at once if nothing
    /// is staged.
    fn try_take(&self, spare: &mut Batch) -> bool {
        self.swap_out(self.lock(), spare)
    }

    fn swap_out(&self, mut state: MutexGuard<'_, QueueState>, spare: &mut Batch) -> bool {
        if state.batch.staged.is_empty() {
            return false;
        }
        std::mem::swap(&mut state.batch, spare);
        let wake = state.producers_parked > 0;
        drop(state);
        if wake {
            self.space.notify_all();
        }
        true
    }
}

/// Closes the queue when the driver exits — by `Stop` or by a panic in
/// the pipeline — so producers report the shard gone instead of parking
/// forever, and staged reply channels hang up.
struct CloseOnExit<'a>(&'a ShardQueue);

impl Drop for CloseOnExit<'_> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.closed = true;
        state.batch.recycle();
        drop(state);
        self.0.space.notify_all();
    }
}

/// A cloneable producer handle onto one shard's queue, for sending
/// outside any registry lock (a blocking send while holding the lock
/// would let one stalled tenant wedge every other tenant's ingestion).
#[derive(Clone)]
pub(crate) struct ShardSender(Arc<ShardQueue>);

/// What became of a lossy line offer.
pub(crate) enum Offer {
    Accepted,
    Full,
    Gone,
}

impl ShardSender {
    /// Stages one line, blocking while the queue is full. `false` if
    /// the shard has stopped.
    pub(crate) fn send_line(&self, line: &str) -> bool {
        matches!(
            self.0.push(true, |batch| batch.stage_line(line)),
            Offer::Accepted
        )
    }

    /// Stages one line unless the queue is full.
    pub(crate) fn offer_line(&self, line: &str) -> Offer {
        self.0.push(false, |batch| batch.stage_line(line))
    }

    /// Stages one control message behind everything already staged,
    /// blocking while the queue is full. `false` if the shard has
    /// stopped.
    pub(crate) fn send(&self, msg: ShardMsg) -> bool {
        matches!(
            self.0
                .push(true, |batch| batch.staged.push(Staged::Control(msg))),
            Offer::Accepted
        )
    }
}

/// One shard of one tenant: a bounded queue feeding a dedicated driver
/// thread that owns the shard's [`Pipeline`].
pub(crate) struct ShardHandle {
    tx: ShardSender,
    thread: Option<JoinHandle<()>>,
    published: Arc<Mutex<ShardPublished>>,
    worker_count: usize,
}

impl ShardHandle {
    /// Spawns the driver thread for `pipeline` behind a queue of
    /// `queue_depth` messages.
    pub(crate) fn spawn(pipeline: Pipeline, queue_depth: usize) -> ShardHandle {
        // One multi-producer queue: any thread may call
        // `ingest`/`offer`, and source pumps and the admin plane's
        // control messages (drain, freeze, budget, stop) share it so
        // control stays ordered with the traffic it follows.
        let queue = Arc::new(ShardQueue {
            depth: queue_depth.max(1),
            state: Mutex::new(QueueState {
                batch: Batch::default(),
                driver_parked: false,
                producers_parked: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
        });
        let published = Arc::new(Mutex::new(ShardPublished {
            stats: pipeline.stats(),
            parse_errors: 0,
        }));
        let worker_count = pipeline.worker_count();
        let board = Arc::clone(&published);
        let driver_end = Arc::clone(&queue);
        let thread = thread::Builder::new()
            .name("divscrape-shard".into())
            .spawn(move || run_shard(pipeline, driver_end, board))
            .expect("spawn shard driver");
        ShardHandle {
            tx: ShardSender(queue),
            thread: Some(thread),
            published,
            worker_count,
        }
    }

    /// A producer handle onto the shard's input queue.
    pub(crate) fn sender(&self) -> ShardSender {
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
        self.stop_and_join()
    }

    fn stop_and_join(&mut self) -> Option<ShardFinal> {
        let thread = self.thread.take()?;
        // One-shot reply channels (here and in the plane's drain) carry
        // one message per control request, off the per-line path.
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        let sent = self.tx.send(ShardMsg::Stop(reply_tx));
        let fin = if sent { reply_rx.recv().ok() } else { None };
        let _ = thread.join();
        fin
    }
}

impl Drop for ShardHandle {
    /// A handle dropped without [`stop`](ShardHandle::stop) (a tenant
    /// build backing out half-way) still drains and joins its driver.
    fn drop(&mut self) {
        let _ = self.stop_and_join();
    }
}

fn publish(pipeline: &Pipeline, parse_errors: u64, board: &Mutex<ShardPublished>) {
    let mut slot = board
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    slot.stats = pipeline.stats();
    slot.parse_errors = parse_errors;
}

fn run_shard(mut pipeline: Pipeline, queue: Arc<ShardQueue>, board: Arc<Mutex<ShardPublished>>) {
    let _close = CloseOnExit(&queue);
    let mut batch = Batch::default();
    let mut parse_errors = 0u64;
    let mut since_publish = 0u64;
    loop {
        // Group commit: only when nothing is staged does the pipeline
        // get what it holds, and the driver parks after that.
        if !queue.try_take(&mut batch) {
            let park = pipeline.park_for(TICK);
            if !queue.take(&mut batch, park) {
                publish(&pipeline, parse_errors, &board);
                since_publish = 0;
                continue;
            }
        }
        let Batch { text, staged } = &mut batch;
        for message in staged.drain(..) {
            match message {
                Staged::Line(span) => {
                    if pipeline.push_line(&text[span]).is_err() {
                        parse_errors += 1;
                    }
                    since_publish += 1;
                }
                Staged::Control(ShardMsg::Drain(reply)) => {
                    let report = pipeline.drain();
                    publish(&pipeline, parse_errors, &board);
                    since_publish = 0;
                    let _ = reply.send(report);
                }
                Staged::Control(ShardMsg::Freeze(frozen)) => {
                    pipeline.set_recalibration_frozen(frozen);
                    publish(&pipeline, parse_errors, &board);
                }
                Staged::Control(ShardMsg::Budget(capacity)) => {
                    pipeline.set_eviction_global_capacity(capacity);
                    publish(&pipeline, parse_errors, &board);
                }
                Staged::Control(ShardMsg::Stop(reply)) => {
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
            }
        }
        batch.recycle();
        if since_publish >= PUBLISH_EVERY {
            publish(&pipeline, parse_errors, &board);
            since_publish = 0;
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
    fn an_oversized_line_does_not_pin_its_arena() {
        let huge = "x".repeat(1 << 20);
        let mut batch = Batch::default();
        batch.stage_line(&huge);
        assert!(batch.text.capacity() >= huge.len());
        batch.recycle();
        assert!(batch.text.capacity() <= ARENA_KEEP_BYTES);

        // And through a live shard: after the line has been handed over,
        // each buffer of the pair comes back trimmed. A drain's reply
        // precedes its batch's recycling, so it is the *next* swap that
        // shows a buffer; three drains show both.
        let pipeline = divscrape_pipeline::PipelineBuilder::new()
            .detector(divscrape_detect::Sentinel::stock())
            .build()
            .expect("pipeline builds");
        let shard = ShardHandle::spawn(pipeline, 4);
        let tx = shard.sender();
        assert!(tx.send_line(&huge)); // not a log line: counted, not fatal
        for _ in 0..3 {
            let (reply_tx, reply_rx) = mpsc::sync_channel(1);
            assert!(tx.send(ShardMsg::Drain(reply_tx)));
            reply_rx.recv().expect("driver replies");
            let staged = tx.0.lock().batch.text.capacity();
            assert!(
                staged <= ARENA_KEEP_BYTES,
                "staging arena kept {staged} bytes"
            );
        }
        let parting = shard.stop().expect("driver stops");
        assert_eq!(parting.parse_errors, 1);
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
