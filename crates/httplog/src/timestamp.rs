//! CLF timestamps (`11/Mar/2018:06:25:14 +0000`) with hand-rolled
//! proleptic-Gregorian civil-time arithmetic.
//!
//! No external time crate is used. The civil⇄epoch conversions follow the
//! well-known `days_from_civil` / `civil_from_days` algorithms (Howard
//! Hinnant), which are exact over the full proleptic Gregorian calendar.

use std::error::Error;
use std::fmt;
use std::ops::{Add, Sub};
use std::str::FromStr;

use serde::{Deserialize, Serialize};

/// Number of seconds in a civil day.
pub const SECONDS_PER_DAY: i64 = 86_400;

const MONTH_ABBREV: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

const WEEKDAY_ABBREV: [&str; 7] = ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"];

/// A point in time as recorded by an Apache access log, stored as seconds
/// since the Unix epoch (UTC).
///
/// Format and parse use the Common/Combined Log Format timestamp layout
/// `dd/Mon/yyyy:HH:MM:SS +0000`. Parsing accepts any numeric zone offset and
/// normalises to UTC; formatting always emits `+0000`, mirroring a server
/// configured for UTC logging (as the paper's 8-day window timestamps are
/// treated throughout the reproduction).
///
/// ```
/// use divscrape_httplog::ClfTimestamp;
///
/// let t: ClfTimestamp = "11/Mar/2018:06:25:14 +0000".parse()?;
/// assert_eq!(t.year(), 2018);
/// assert_eq!(t.hour(), 6);
/// assert_eq!(t.to_string(), "11/Mar/2018:06:25:14 +0000");
/// # Ok::<(), divscrape_httplog::ParseTimestampError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(transparent)]
pub struct ClfTimestamp {
    epoch_seconds: i64,
}

/// Days from civil date to the epoch. Exact for the proleptic Gregorian
/// calendar; `m` is 1-based.
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = i64::from((m + 9) % 12); // Mar=0 .. Feb=11
    let doy = (153 * mp + 2) / 5 + i64::from(d) - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Civil date from days since the epoch. Inverse of [`days_from_civil`].
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

fn is_leap_year(y: i64) -> bool {
    (y % 4 == 0 && y % 100 != 0) || y % 400 == 0
}

fn days_in_month(y: i64, m: u32) -> u32 {
    match m {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap_year(y) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

impl ClfTimestamp {
    /// Midnight, 2018-03-11 UTC — the first instant of the paper's 8-day
    /// observation window (March 11th to March 18th 2018).
    pub const PAPER_WINDOW_START: ClfTimestamp = ClfTimestamp {
        epoch_seconds: 1_520_726_400,
    };

    /// Creates a timestamp from raw epoch seconds (UTC).
    pub fn from_epoch_seconds(epoch_seconds: i64) -> Self {
        Self { epoch_seconds }
    }

    /// Creates a timestamp from a civil date and time-of-day (UTC).
    ///
    /// Returns `None` when any component is out of range (month not in
    /// `1..=12`, day not valid for the month/year, `hour >= 24`,
    /// `minute >= 60`, or `second >= 60`; leap seconds are not representable
    /// in CLF logs).
    pub fn from_ymd_hms(
        year: i64,
        month: u32,
        day: u32,
        hour: u32,
        minute: u32,
        second: u32,
    ) -> Option<Self> {
        if !(1..=12).contains(&month)
            || day == 0
            || day > days_in_month(year, month)
            || hour >= 24
            || minute >= 60
            || second >= 60
        {
            return None;
        }
        let days = days_from_civil(year, month, day);
        let secs = days * SECONDS_PER_DAY
            + i64::from(hour) * 3600
            + i64::from(minute) * 60
            + i64::from(second);
        Some(Self {
            epoch_seconds: secs,
        })
    }

    /// Seconds since the Unix epoch (UTC).
    pub fn epoch_seconds(self) -> i64 {
        self.epoch_seconds
    }

    fn civil(self) -> (i64, u32, u32) {
        civil_from_days(self.epoch_seconds.div_euclid(SECONDS_PER_DAY))
    }

    fn second_of_day(self) -> i64 {
        self.epoch_seconds.rem_euclid(SECONDS_PER_DAY)
    }

    /// Calendar year.
    pub fn year(self) -> i64 {
        self.civil().0
    }

    /// Calendar month, `1..=12`.
    pub fn month(self) -> u32 {
        self.civil().1
    }

    /// Day of month, `1..=31`.
    pub fn day(self) -> u32 {
        self.civil().2
    }

    /// Hour of day, `0..=23`.
    pub fn hour(self) -> u32 {
        (self.second_of_day() / 3600) as u32
    }

    /// Minute of hour, `0..=59`.
    pub fn minute(self) -> u32 {
        ((self.second_of_day() / 60) % 60) as u32
    }

    /// Second of minute, `0..=59`.
    pub fn second(self) -> u32 {
        (self.second_of_day() % 60) as u32
    }

    /// Day of week, `0 = Monday .. 6 = Sunday` (ISO).
    pub fn weekday(self) -> u32 {
        // 1970-01-01 was a Thursday (ISO index 3).
        (self.epoch_seconds.div_euclid(SECONDS_PER_DAY) + 3).rem_euclid(7) as u32
    }

    /// Three-letter English weekday abbreviation (`"Mon"` .. `"Sun"`).
    pub fn weekday_abbrev(self) -> &'static str {
        WEEKDAY_ABBREV[self.weekday() as usize]
    }

    /// Fraction of the day elapsed, in `[0, 1)`. Used by the diurnal traffic
    /// model.
    pub fn day_fraction(self) -> f64 {
        self.second_of_day() as f64 / SECONDS_PER_DAY as f64
    }

    /// A new timestamp `delta` seconds later (or earlier when negative).
    #[must_use]
    pub fn plus_seconds(self, delta: i64) -> Self {
        Self {
            epoch_seconds: self.epoch_seconds + delta,
        }
    }

    /// Whole days (UTC-midnight-aligned) since the other timestamp.
    pub fn days_since(self, earlier: ClfTimestamp) -> i64 {
        self.epoch_seconds.div_euclid(SECONDS_PER_DAY)
            - earlier.epoch_seconds.div_euclid(SECONDS_PER_DAY)
    }
}

impl Add<i64> for ClfTimestamp {
    type Output = ClfTimestamp;

    fn add(self, rhs: i64) -> ClfTimestamp {
        self.plus_seconds(rhs)
    }
}

impl Sub<ClfTimestamp> for ClfTimestamp {
    type Output = i64;

    /// Difference in seconds (`self - rhs`).
    fn sub(self, rhs: ClfTimestamp) -> i64 {
        self.epoch_seconds - rhs.epoch_seconds
    }
}

impl fmt::Display for ClfTimestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.civil();
        let month = MONTH_ABBREV[(m - 1) as usize];
        let (hour, minute, second) = (self.hour(), self.minute(), self.second());
        if !(0..=9999).contains(&y) {
            // Off the fixed shape: the general formatter widens the year.
            return write!(
                f,
                "{d:02}/{month}/{y:04}:{hour:02}:{minute:02}:{second:02} +0000"
            );
        }
        // Every sink line and every rendered CLF line carries one of
        // these, so the 26 fixed-width bytes are filled in directly.
        let mut text = *b"dd/Mon/yyyy:HH:MM:SS +0000";
        let mut two = |at: usize, value: u32| {
            text[at] = b'0' + (value / 10) as u8;
            text[at + 1] = b'0' + (value % 10) as u8;
        };
        two(0, d);
        two(7, y as u32 / 100);
        two(9, y as u32 % 100);
        two(12, hour);
        two(15, minute);
        two(18, second);
        text[3..6].copy_from_slice(month.as_bytes());
        f.write_str(std::str::from_utf8(&text).expect("a CLF timestamp is ASCII"))
    }
}

/// Error returned when a CLF timestamp field cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTimestampError {
    input: String,
    reason: &'static str,
}

impl ParseTimestampError {
    fn new(input: &str, reason: &'static str) -> Self {
        Self {
            input: input.to_owned(),
            reason,
        }
    }

    /// Human-readable reason for the failure.
    pub fn reason(&self) -> &'static str {
        self.reason
    }
}

impl fmt::Display for ParseTimestampError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid CLF timestamp `{}`: {}", self.input, self.reason)
    }
}

impl Error for ParseTimestampError {}

fn month_from_abbrev(abbrev: &str) -> Option<u32> {
    MONTH_ABBREV
        .iter()
        .position(|m| *m == abbrev)
        .map(|i| i as u32 + 1)
}

/// The fixed-width shape Apache always writes (`dd/Mon/yyyy:HH:MM:SS
/// ±zzzz`, exactly 26 bytes), decoded straight from the bytes — the
/// parse-to-verdict hot path runs this once per log line, so it must
/// not pay the general tokenizer's splitting and re-validation.
/// Returns `None` for anything off-shape; the caller falls back to the
/// flexible parser, which accepts the same values, so the two paths
/// decide identically.
fn parse_fixed_width(s: &str) -> Option<ClfTimestamp> {
    let b = s.as_bytes();
    if b.len() != 26
        || b[2] != b'/'
        || b[6] != b'/'
        || b[11] != b':'
        || b[14] != b':'
        || b[17] != b':'
        || b[20] != b' '
    {
        return None;
    }
    // Two decimal digits starting at `i`, already bounds-checked above.
    let two = |i: usize| -> Option<u32> {
        let (hi, lo) = (b[i].wrapping_sub(b'0'), b[i + 1].wrapping_sub(b'0'));
        (hi <= 9 && lo <= 9).then_some(u32::from(hi) * 10 + u32::from(lo))
    };
    let day = two(0)?;
    let month = month_from_abbrev(&s[3..6])?;
    let year = i64::from(two(7)? * 100 + two(9)?);
    let (hour, minute, second) = (two(12)?, two(15)?, two(18)?);
    let sign = match b[21] {
        b'+' => 1i64,
        b'-' => -1i64,
        _ => return None,
    };
    let (zh, zm) = (i64::from(two(22)?), i64::from(two(24)?));
    if zh > 14 || zm > 59 {
        return None;
    }
    let local = ClfTimestamp::from_ymd_hms(year, month, day, hour, minute, second)?;
    Some(local.plus_seconds(-sign * (zh * 3600 + zm * 60)))
}

impl FromStr for ClfTimestamp {
    type Err = ParseTimestampError;

    /// Parses `dd/Mon/yyyy:HH:MM:SS ±zzzz`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(ts) = parse_fixed_width(s) {
            return Ok(ts);
        }
        let err = |reason| ParseTimestampError::new(s, reason);

        let (datetime, zone) = s.split_once(' ').ok_or_else(|| err("missing zone"))?;
        let mut parts = datetime.splitn(3, '/');
        let day: u32 = parts
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| err("bad day"))?;
        let month = parts
            .next()
            .and_then(month_from_abbrev)
            .ok_or_else(|| err("bad month"))?;
        let rest = parts.next().ok_or_else(|| err("missing year"))?;
        let mut ymd = rest.splitn(4, ':');
        let year: i64 = ymd
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| err("bad year"))?;
        let hour: u32 = ymd
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| err("bad hour"))?;
        let minute: u32 = ymd
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| err("bad minute"))?;
        let second: u32 = ymd
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| err("bad second"))?;

        if zone.len() != 5 {
            return Err(err("bad zone length"));
        }
        let sign = match zone.as_bytes()[0] {
            b'+' => 1i64,
            b'-' => -1i64,
            _ => return Err(err("bad zone sign")),
        };
        let zh: i64 = zone[1..3].parse().map_err(|_| err("bad zone hours"))?;
        let zm: i64 = zone[3..5].parse().map_err(|_| err("bad zone minutes"))?;
        if zh > 14 || zm > 59 {
            return Err(err("zone offset out of range"));
        }
        let offset = sign * (zh * 3600 + zm * 60);

        let local = ClfTimestamp::from_ymd_hms(year, month, day, hour, minute, second)
            .ok_or_else(|| err("component out of range"))?;
        // The rendered local time is `utc + offset`, so utc = local - offset.
        Ok(local.plus_seconds(-offset))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn epoch_anchor_is_correct() {
        let t = ClfTimestamp::from_ymd_hms(1970, 1, 1, 0, 0, 0).unwrap();
        assert_eq!(t.epoch_seconds(), 0);
        assert_eq!(t.weekday(), 3); // Thursday
        assert_eq!(t.weekday_abbrev(), "Thu");
    }

    #[test]
    fn paper_window_start_matches_known_epoch() {
        let t = ClfTimestamp::from_ymd_hms(2018, 3, 11, 0, 0, 0).unwrap();
        assert_eq!(t, ClfTimestamp::PAPER_WINDOW_START);
        assert_eq!(t.epoch_seconds(), 1_520_726_400);
        assert_eq!(t.weekday_abbrev(), "Sun"); // 2018-03-11 was a Sunday.
    }

    #[test]
    fn formats_in_clf_layout() {
        let t = ClfTimestamp::from_ymd_hms(2018, 3, 11, 6, 25, 14).unwrap();
        assert_eq!(t.to_string(), "11/Mar/2018:06:25:14 +0000");
    }

    /// What `Display` wrote before it filled the fixed-width bytes in
    /// directly; the two must agree everywhere.
    fn formatter_rendering(t: ClfTimestamp) -> String {
        format!(
            "{:02}/{}/{:04}:{:02}:{:02}:{:02} +0000",
            t.day(),
            MONTH_ABBREV[(t.month() - 1) as usize],
            t.year(),
            t.hour(),
            t.minute(),
            t.second()
        )
    }

    #[test]
    fn fixed_width_display_equals_the_formatter_on_every_day_1970_to_2100() {
        let first = days_from_civil(1970, 1, 1);
        let last = days_from_civil(2100, 12, 31);
        for day in first..=last {
            for second_of_day in [0, 12 * 3600 + 34 * 60 + 56, SECONDS_PER_DAY - 1] {
                let t = ClfTimestamp::from_epoch_seconds(day * SECONDS_PER_DAY + second_of_day);
                assert_eq!(t.to_string(), formatter_rendering(t));
            }
        }
    }

    #[test]
    fn years_off_the_four_digit_shape_fall_back_to_the_formatter() {
        for (year, rendered) in [
            (9999, "31/Dec/9999:23:59:59 +0000"),
            (10_000, "31/Dec/10000:23:59:59 +0000"),
            (0, "31/Dec/0000:23:59:59 +0000"),
            (-1, "31/Dec/-001:23:59:59 +0000"),
            (-12_345, "31/Dec/-12345:23:59:59 +0000"),
        ] {
            let t = ClfTimestamp::from_ymd_hms(year, 12, 31, 23, 59, 59).unwrap();
            assert_eq!(t.to_string(), rendered);
            assert_eq!(t.to_string(), formatter_rendering(t));
        }
    }

    #[test]
    fn parses_and_normalises_offsets() {
        let utc: ClfTimestamp = "11/Mar/2018:06:25:14 +0000".parse().unwrap();
        let cet: ClfTimestamp = "11/Mar/2018:07:25:14 +0100".parse().unwrap();
        let nyc: ClfTimestamp = "11/Mar/2018:01:25:14 -0500".parse().unwrap();
        assert_eq!(utc, cet);
        assert_eq!(utc, nyc);
    }

    #[test]
    fn rejects_malformed_inputs() {
        for bad in [
            "",
            "11/Mar/2018:06:25:14",       // no zone
            "32/Mar/2018:06:25:14 +0000", // bad day
            "11/Mrz/2018:06:25:14 +0000", // bad month
            "11/Mar/2018:24:25:14 +0000", // bad hour
            "11/Mar/2018:06:60:14 +0000", // bad minute
            "11/Mar/2018:06:25:60 +0000", // bad second
            "11/Mar/2018:06:25:14 0000",  // no sign
            "11/Mar/2018:06:25:14 +00",   // short zone
            "11/Mar/2018:06:25:14 +9900", // zone hours out of range
            "29/Feb/2018:00:00:00 +0000", // not a leap year
        ] {
            assert!(bad.parse::<ClfTimestamp>().is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn leap_year_handling() {
        assert!(ClfTimestamp::from_ymd_hms(2016, 2, 29, 0, 0, 0).is_some());
        assert!(ClfTimestamp::from_ymd_hms(2018, 2, 29, 0, 0, 0).is_none());
        assert!(ClfTimestamp::from_ymd_hms(2000, 2, 29, 0, 0, 0).is_some());
        assert!(ClfTimestamp::from_ymd_hms(1900, 2, 29, 0, 0, 0).is_none());
    }

    #[test]
    fn arithmetic_and_accessors_agree() {
        let start = ClfTimestamp::PAPER_WINDOW_START;
        let end = start.plus_seconds(8 * SECONDS_PER_DAY - 1);
        assert_eq!(end.day(), 18);
        assert_eq!(end.month(), 3);
        assert_eq!(end.hour(), 23);
        assert_eq!(end.minute(), 59);
        assert_eq!(end.second(), 59);
        assert_eq!(end - start, 8 * SECONDS_PER_DAY - 1);
        assert_eq!(end.days_since(start), 7);
        assert_eq!((start + 90).second(), 30);
    }

    #[test]
    fn day_fraction_spans_unit_interval() {
        let start = ClfTimestamp::PAPER_WINDOW_START;
        assert_eq!(start.day_fraction(), 0.0);
        let noon = start.plus_seconds(12 * 3600);
        assert!((noon.day_fraction() - 0.5).abs() < 1e-12);
        let last = start.plus_seconds(SECONDS_PER_DAY - 1);
        assert!(last.day_fraction() < 1.0);
    }

    #[test]
    fn negative_epoch_times_work() {
        let t = ClfTimestamp::from_ymd_hms(1969, 12, 31, 23, 59, 59).unwrap();
        assert_eq!(t.epoch_seconds(), -1);
        assert_eq!(t.hour(), 23);
        assert_eq!(t.year(), 1969);
    }

    proptest! {
        #[test]
        fn display_parse_round_trip(secs in -4_000_000_000i64..8_000_000_000i64) {
            let t = ClfTimestamp::from_epoch_seconds(secs);
            let rendered = t.to_string();
            let parsed: ClfTimestamp = rendered.parse().unwrap();
            prop_assert_eq!(parsed, t);
        }

        #[test]
        fn civil_round_trip(
            year in 1900i64..2200,
            month in 1u32..=12,
            day in 1u32..=28,
            hour in 0u32..24,
            minute in 0u32..60,
            second in 0u32..60,
        ) {
            let t = ClfTimestamp::from_ymd_hms(year, month, day, hour, minute, second).unwrap();
            prop_assert_eq!(t.year(), year);
            prop_assert_eq!(t.month(), month);
            prop_assert_eq!(t.day(), day);
            prop_assert_eq!(t.hour(), hour);
            prop_assert_eq!(t.minute(), minute);
            prop_assert_eq!(t.second(), second);
        }

        #[test]
        fn ordering_matches_epoch(a in proptest::num::i64::ANY, b in proptest::num::i64::ANY) {
            let (a, b) = (a % 1_000_000_000, b % 1_000_000_000);
            let ta = ClfTimestamp::from_epoch_seconds(a);
            let tb = ClfTimestamp::from_epoch_seconds(b);
            prop_assert_eq!(ta.cmp(&tb), a.cmp(&b));
        }
    }
}
