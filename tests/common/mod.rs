//! Shared by the suites that pin what flush timing may and may not
//! change (`PipelineBuilder::max_delay`).

// Each suite uses its own subset.
#![allow(dead_code)]

use std::collections::HashMap;
use std::net::Ipv4Addr;

use divscrape_detect::{EvictionConfig, EvictionStats, TriageDecision, TriageFilter};
use divscrape_httplog::{EntryRef, LogEntry};
use divscrape_pipeline::Pipeline;

/// Pushes `entries` in random slices of 1..=`max_slice` entries
/// (xorshift64 from `seed`, which must be non-zero) with an explicit
/// `flush()` after each — and a `poll()` after some, as a driver would —
/// so chunk boundaries land wherever the schedule puts them.
pub fn push_with_random_flushes(
    pipeline: &mut Pipeline,
    entries: &[LogEntry],
    seed: u64,
    max_slice: u64,
) {
    let mut state = seed;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut rest = entries;
    while !rest.is_empty() {
        let take = (next() % max_slice + 1).min(rest.len() as u64) as usize;
        let (slice, tail) = rest.split_at(take);
        pipeline.push_batch(slice);
        pipeline.flush();
        if next().is_multiple_of(4) {
            pipeline.poll();
        }
        rest = tail;
    }
}

/// Feeds a live learner's run: `push_batch` in 613-entry slices, or —
/// given a seed — [`push_with_random_flushes`] in slices of 1..=400, so
/// chunk boundaries, and with them the learner's installs, land wherever
/// the schedule puts them.
pub fn feed_live(pipeline: &mut Pipeline, entries: &[LogEntry], flush_seed: Option<u64>) {
    match flush_seed {
        None => {
            for chunk in entries.chunks(613) {
                pipeline.push_batch(chunk);
            }
        }
        Some(seed) => push_with_random_flushes(pipeline, entries, seed, 400),
    }
}

/// A deliberately weak triage filter: escalates every client only at
/// its N-th request, regardless of behaviour — so suppressed entries
/// routinely carry verdicts that would have alerted, exercising the
/// late re-scoring path that stock triage provably never needs (and
/// whose alerts arrive late or in place depending on where the chunk
/// boundaries fall).
#[derive(Debug, Clone)]
pub struct SlowFuse {
    after: u64,
    counts: HashMap<(Ipv4Addr, u64), u64>,
}

impl SlowFuse {
    pub fn new(after: u64) -> Self {
        Self {
            after,
            counts: HashMap::new(),
        }
    }
}

impl TriageFilter for SlowFuse {
    fn name(&self) -> &str {
        "slow-fuse"
    }
    fn classify(&mut self, entry: &EntryRef<'_>) -> TriageDecision {
        let seen = self.counts.entry(entry.client_key()).or_insert(0);
        *seen += 1;
        match (*seen).cmp(&self.after) {
            std::cmp::Ordering::Less => TriageDecision::Benign,
            std::cmp::Ordering::Equal => TriageDecision::Escalate,
            std::cmp::Ordering::Greater => TriageDecision::Escalated,
        }
    }
    fn reset(&mut self) {
        self.counts.clear();
    }
    fn set_eviction(&mut self, _cfg: EvictionConfig) {}
    fn eviction_stats(&self) -> EvictionStats {
        EvictionStats::default()
    }
    fn clone_boxed(&self) -> Box<dyn TriageFilter> {
        Box::new(SlowFuse::new(self.after))
    }
}
