//! The flush policy: how long a buffered entry may wait for company.
//!
//! The engine appends every pushed entry to one ingest arena and
//! submits the arena as a chunk. *When* is decided here: when the arena
//! fills (the engine sees that itself), **or** when the oldest entry in
//! it has waited [`max_delay`](crate::PipelineBuilder::max_delay). Chunk
//! size therefore adapts by itself — a few entries at a trickle, the
//! full capacity at saturation, where a chunk fills long before its
//! deadline and this module costs one test of the buffered count per
//! push.
//!
//! Reading the clock on every push would cost more than parsing some
//! lines, so the read is amortised: the 1st, 2nd, 4th, 8th and 16th push
//! of a chunk (a trickle must not wait for 32 entries to notice its
//! deadline) and every 32nd after — about 130 reads per 4,096-entry
//! chunk, under a nanosecond per entry. The same cadence tells the
//! engine when to collect finished pool results, so a `workers > 1`
//! pipeline does not sit on a finished chunk until the next one fills.
//!
//! The policy holds none of the engine's state: it is told about pushes
//! and submissions and answers with what is owed.

use std::time::{Duration, Instant};

/// The default [`max_delay`](crate::PipelineBuilder::max_delay): an
/// entry is submitted to the detectors at most this long after it was
/// pushed (plus the time to the next clock read — at most 31 pushes, or
/// the caller's next [`Pipeline::poll`](crate::Pipeline::poll)).
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

    /// Time left at `now` until the buffered entries come due: zero
    /// when they already are, `None` while nothing is buffered — or
    /// nothing ever comes due (an infinite deadline leaves no time a
    /// caller could wait out).
    pub(crate) fn remaining(&self, now: Instant) -> Option<Duration> {
        if self.max_delay == Duration::MAX {
            return None;
        }
        self.oldest.map(|oldest| {
            self.max_delay
                .saturating_sub(now.saturating_duration_since(oldest))
        })
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
        assert_eq!(clock.remaining(Instant::now()), None, "nothing buffered");
        for buffered in 1..=4_096 {
            assert_ne!(clock.pushed(buffered), Cadence::Due);
        }
        assert_eq!(
            clock.remaining(Instant::now()),
            None,
            "buffered, but never due"
        );
        // The age is tracked all the same: fill-only is where it grows.
        std::thread::sleep(Duration::from_millis(1));
        assert!(clock.clear() >= Duration::from_millis(1));
    }

    #[test]
    fn the_deadline_counts_from_the_oldest_push() {
        let mut clock = FlushClock::new(Duration::from_millis(2));
        assert_eq!(clock.pushed(1), Cadence::Tick);
        assert!(clock.remaining(Instant::now()).unwrap() <= Duration::from_millis(2));
        std::thread::sleep(Duration::from_millis(3));
        assert_eq!(clock.remaining(Instant::now()), Some(Duration::ZERO));
        assert_eq!(clock.pushed(2), Cadence::Due);
        // Still due until the engine says it submitted.
        assert_eq!(clock.remaining(Instant::now()), Some(Duration::ZERO));
        assert!(clock.clear() >= Duration::from_millis(3));
        assert_eq!(clock.remaining(Instant::now()), None);
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
