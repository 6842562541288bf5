//! Order statistics, the supported-percentile rule and the open-loop
//! pacing schedule.

/// Sorts `values` and returns their median (mean of the middle two for
/// an even count); `0.0` for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Sorts `values` and returns their upper quartile by the nearest-rank
/// rule; `0.0` for an empty slice.
///
/// This is how per-pass `speed_vs_scan` ratios are reduced to one
/// number. Interference from other tenants of the machine is one-sided:
/// it slows the allocation- and cache-heavy workload pass more than the
/// compact yardstick scan, so it only ever pulls a pass's ratio *down*
/// (measured while sizing the harness: six same-seed runs in a noisy
/// hour ranged 7–12% on the median over passes, 1–9% on the upper
/// quartile). The upper quartile still discards the few ratios inflated
/// by a speed change between a pass and its bracketing yardsticks, and
/// holds as long as a quarter of the passes ran undisturbed; the median
/// needs half.
pub fn upper_quartile(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (0.75 * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// The `p`-th percentile (0–100) of an ascending-sorted slice, by the
/// nearest-rank rule; `0` for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles a latency report may quote, ascending, in tenths
/// of a percent (p50, p90, p99, p99.9).
const PERMILLE: [u64; 4] = [500, 900, 990, 999];

/// The highest of p50, p90, p99 and p99.9 that still has at least ten samples
/// beyond it in a sample of `n` (a tail read off fewer than ten samples
/// is one outlier, not a percentile). `None` below twenty samples, where
/// not even the median qualifies.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERMILLE
        .iter()
        .rfind(|&&permille| n as u64 * (1_000 - permille) >= 10 * 1_000)
        .map(|&permille| permille as f64 / 10.0)
}

/// A monotonic nanosecond clock the open-loop feeder runs against —
/// real time in the harness, a scripted clock in the tests.
pub trait Clock {
    /// Nanoseconds since the phase began.
    fn now_ns(&mut self) -> u64;
    /// Returns once `now_ns() >= due_ns`.
    fn wait_until(&mut self, due_ns: u64);
}

/// When line `index` of an open-loop phase at `rate_per_s` is due, in
/// nanoseconds after the phase began.
pub fn due_ns(index: u64, rate_per_s: u64) -> u64 {
    ((u128::from(index) * 1_000_000_000) / u128::from(rate_per_s.max(1))) as u64
}

/// Runs an open-loop feed of `n` lines at `rate_per_s`: waits for each
/// line's due time, then calls `send(index)`. The schedule never slows
/// when `send` does — a line whose due time passed during a stall goes
/// out at once — and lateness is judged against the **due** time, so a
/// stall is charged to every line queued behind it. Appends to `late`
/// how late each line was sent (`sent − due`), in nanoseconds; the
/// caller reserves its capacity so the feed itself allocates nothing.
pub fn run_paced(
    n: usize,
    rate_per_s: u64,
    clock: &mut impl Clock,
    late: &mut Vec<u64>,
    mut send: impl FnMut(usize),
) {
    for index in 0..n {
        let due = due_ns(index as u64, rate_per_s);
        clock.wait_until(due);
        late.push(clock.now_ns().saturating_sub(due));
        send(index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn upper_quartile_is_nearest_rank_and_ignores_low_outliers() {
        assert_eq!(upper_quartile(&mut []), 0.0);
        assert_eq!(upper_quartile(&mut [2.0]), 2.0);
        assert_eq!(upper_quartile(&mut [4.0, 1.0, 3.0, 2.0]), 3.0);
        let mut clean: Vec<f64> = (0..20).map(|i| 0.280 + f64::from(i % 4) * 0.001).collect();
        let undisturbed = upper_quartile(&mut clean.clone());
        // Interference drags half the passes down by a fifth...
        for ratio in clean.iter_mut().take(10) {
            *ratio *= 0.8;
        }
        // ...the median follows, the upper quartile does not.
        assert!(median(&mut clean.clone()) < 0.27);
        assert!((upper_quartile(&mut clean) - undisturbed).abs() <= 0.001);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 50);
        assert_eq!(percentile(&sorted, 99.0), 99);
        assert_eq!(percentile(&sorted, 100.0), 100);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn picks_the_highest_percentile_with_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    /// A clock that only moves when told to: `wait_until` jumps to the
    /// due time, and the shared cell lets `send` simulate a stall.
    struct Scripted(Rc<Cell<u64>>);

    impl Clock for Scripted {
        fn now_ns(&mut self) -> u64 {
            self.0.get()
        }
        fn wait_until(&mut self, due_ns: u64) {
            self.0.set(self.0.get().max(due_ns));
        }
    }

    #[test]
    fn pacing_charges_a_stall_to_the_lines_behind_it() {
        // 1 000 lines/s: one line per millisecond. Sending line 10
        // stalls for 5 ms, so lines 11–14 were due during the stall.
        let time = Rc::new(Cell::new(0u64));
        let stall = Rc::clone(&time);
        let mut late = Vec::new();
        run_paced(
            20,
            1_000,
            &mut Scripted(Rc::clone(&time)),
            &mut late,
            |index| {
                if index == 10 {
                    stall.set(stall.get() + 5_000_000);
                }
            },
        );
        assert!(
            late[..=10].iter().all(|&l| l == 0),
            "on time before the stall"
        );
        assert_eq!(late[11], 4_000_000);
        assert_eq!(late[12], 3_000_000);
        assert_eq!(late[13], 2_000_000);
        assert_eq!(late[14], 1_000_000);
        assert!(late[15..].iter().all(|&l| l == 0), "caught up after it");
        // The schedule itself did not slip: the last line is due (and
        // sent) at 19 ms, stall or no stall.
        assert_eq!(time.get(), due_ns(19, 1_000));
    }
}
