//! The flush policy: when a buffered entry is handed to the detectors.
//!
//! The engine appends every pushed entry to one ingest arena and
//! submits the arena as a chunk. Three moments do it:
//!
//! - the arena fills (the engine sees that itself);
//! - the driver feeding it runs out of input and is about to park
//!   ([`Pipeline::poll`](crate::Pipeline::poll), through `park_for`).
//!   This is group commit: whatever arrived while the last chunk ran is
//!   the next chunk, so chunk size adapts by itself — a few entries at a
//!   trickle, the full capacity at saturation, where the input never
//!   runs dry and chunks fill first;
//! - the oldest entry has waited
//!   [`max_delay`](crate::PipelineBuilder::max_delay). This deadline
//!   bounds only callers that push and never park: a driver that parks
//!   submits whenever its input runs dry, so it meets the deadline only
//!   while its input never does and no chunk fills in time.
//!
//! This module owns the third. Reading the clock on every push would
//! cost more than parsing some lines, so the read is amortised: the
//! 1st, 2nd, 4th, 8th and 16th push of a chunk (a trickle must not wait
//! for 32 entries to notice its deadline) and every 32nd after — about
//! 130 reads per 4,096-entry chunk, under a nanosecond per entry. The
//! same cadence tells the engine when to collect finished pool results,
//! so a `workers > 1` pipeline does not sit on a finished chunk until
//! the next one fills.
//!
//! The policy holds none of the engine's state: it is told about pushes
//! and submissions and answers with what is owed.

use std::time::{Duration, Instant};

/// The default [`max_delay`](crate::PipelineBuilder::max_delay): for a
/// caller that pushes and never parks, an entry is submitted to the
/// detectors at most this long after it was pushed (plus the time to
/// the next clock read — at most 31 pushes). A driver that parks on its
/// input submits sooner, whenever the input runs dry
/// ([`Pipeline::poll`](crate::Pipeline::poll)).
pub const DEFAULT_MAX_DELAY: Duration = Duration::from_millis(10);

/// Pushes between clock reads once a chunk is past its first 32.
const CHECK_EVERY: usize = 32;

/// What [`Pipeline::poll`](crate::Pipeline::poll) asks to be called
/// again within while chunks are in flight on the pool: results come
/// back over a channel the caller's own wait cannot see.
pub(crate) const COLLECT_INTERVAL: Duration = Duration::from_millis(1);

/// What the engine owes after one push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cadence {
    /// Nothing: no clock was read.
    Skip,
    /// A check point, deadline not reached: collect finished results.
    Tick,
    /// The oldest buffered entry has waited out the deadline: submit.
    Due,
}

/// Tracks the age of the ingest arena's oldest entry against the
/// deadline, reading the clock at the amortised cadence.
pub(crate) struct FlushClock {
    max_delay: Duration,
    /// When the oldest buffered entry was pushed; `None` while nothing
    /// is buffered.
    oldest: Option<Instant>,
}

impl FlushClock {
    /// A clock for an empty arena. `Duration::MAX` never comes due:
    /// fill-only, through the same code.
    pub(crate) fn new(max_delay: Duration) -> Self {
        Self {
            max_delay,
            oldest: None,
        }
    }

    /// Records one push into the arena, which now holds `buffered`
    /// entries (so `buffered` counts the pushes since the last
    /// submission, and the engine's own length is the cadence counter).
    #[inline]
    pub(crate) fn pushed(&mut self, buffered: usize) -> Cadence {
        // Every power of two ≥ 32 is a multiple of 32, so this is
        // "1, 2, 4, 8, 16, then every 32nd".
        if !(buffered.is_power_of_two() || buffered.is_multiple_of(CHECK_EVERY)) {
            return Cadence::Skip;
        }
        let now = Instant::now();
        let oldest = *self.oldest.get_or_insert(now);
        if now.duration_since(oldest) >= self.max_delay {
            Cadence::Due
        } else {
            Cadence::Tick
        }
    }

    /// The arena was submitted (or discarded): returns how long its
    /// oldest entry had waited.
    pub(crate) fn clear(&mut self) -> Duration {
        self.oldest
            .take()
            .map_or(Duration::ZERO, |oldest| oldest.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_clock_is_read_on_the_first_few_pushes_and_every_32nd_after() {
        let mut clock = FlushClock::new(Duration::MAX);
        let checked: Vec<usize> = (1..=130)
            .filter(|&buffered| clock.pushed(buffered) != Cadence::Skip)
            .collect();
        assert_eq!(checked, vec![1, 2, 4, 8, 16, 32, 64, 96, 128]);
    }

    #[test]
    fn an_infinite_deadline_never_comes_due() {
        let mut clock = FlushClock::new(Duration::MAX);
        for buffered in 1..=4_096 {
            assert_ne!(clock.pushed(buffered), Cadence::Due);
        }
        // The age is tracked all the same: fill-only is where it grows.
        std::thread::sleep(Duration::from_millis(1));
        assert!(clock.clear() >= Duration::from_millis(1));
    }

    #[test]
    fn the_deadline_counts_from_the_oldest_push() {
        let mut clock = FlushClock::new(Duration::from_millis(2));
        assert_eq!(clock.pushed(1), Cadence::Tick);
        std::thread::sleep(Duration::from_millis(3));
        assert_eq!(clock.pushed(2), Cadence::Due);
        // Still due until the engine says it submitted.
        assert_eq!(clock.pushed(4), Cadence::Due);
        assert!(clock.clear() >= Duration::from_millis(3));
        assert_eq!(clock.clear(), Duration::ZERO, "nothing was buffered");
    }

    #[test]
    fn a_zero_deadline_submits_every_push() {
        let mut clock = FlushClock::new(Duration::ZERO);
        assert_eq!(clock.pushed(1), Cadence::Due);
        clock.clear();
        assert_eq!(clock.pushed(1), Cadence::Due);
    }
}
