//! The fixed external yardstick: a frozen scan kernel that calls
//! nothing in `crates/`.
//!
//! Per line it does what any access-log reader must at minimum — a byte
//! scan, a quote-aware field split, an FNV-1a hash and one `HashMap`
//! counter bump keyed on the first field (the scratch-buffer streaming
//! reader shape of SNIPPETS.md snippet 1). `speed_vs_scan` divides the
//! yardstick's ns/line by a workload pass's ns/entry, pass by pass, so
//! machine-wide slow phases — which move both alike — cancel.
//!
//! **Frozen:** changing this file changes the unit of every
//! `speed_vs_scan` ever recorded. Do not optimise it.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, continuing from `seed`.
pub fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut hash = seed;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a over `bytes` from the standard offset basis.
pub fn fnv1a_of(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

/// Most fields a Combined Log Format line splits into (address, ident,
/// user, `[time]`, `"request"`, status, bytes, `"referrer"`, `"agent"`).
const MAX_FIELDS: usize = 12;

/// Splits `line` on spaces outside `"…"` and `[…]`, writing up to
/// [`MAX_FIELDS`] `(start, end)` ranges; returns how many were written.
fn split_fields(line: &[u8], fields: &mut [(u32, u32); MAX_FIELDS]) -> usize {
    let mut count = 0;
    let mut start = 0usize;
    let mut in_quotes = false;
    let mut in_brackets = false;
    for (i, &byte) in line.iter().enumerate() {
        match byte {
            b'"' if !in_brackets => in_quotes = !in_quotes,
            b'[' if !in_quotes => in_brackets = true,
            b']' if !in_quotes => in_brackets = false,
            b' ' if !in_quotes && !in_brackets => {
                if count < MAX_FIELDS {
                    fields[count] = (start as u32, i as u32);
                    count += 1;
                }
                start = i + 1;
            }
            _ => {}
        }
    }
    if count < MAX_FIELDS && start <= line.len() {
        fields[count] = (start as u32, line.len() as u32);
        count += 1;
    }
    count
}

/// The scan kernel over a fixed set of lines, with its counter table
/// allocated once up front so a run allocates nothing.
pub struct Yardstick<'a> {
    lines: &'a [String],
    counts: HashMap<&'a str, u32>,
}

impl<'a> Yardstick<'a> {
    /// A yardstick over `lines`, its table sized for one key per line.
    pub fn new(lines: &'a [String]) -> Self {
        Self {
            lines,
            counts: HashMap::with_capacity(lines.len()),
        }
    }

    /// Scans every line `reps` times; returns the wall time and a
    /// checksum (folded through `black_box` so no pass is elided).
    pub fn run(&mut self, reps: u32) -> (Duration, u64) {
        let started = Instant::now();
        let mut checksum = 0u64;
        for _ in 0..reps {
            self.counts.clear();
            for line in self.lines {
                checksum = checksum.wrapping_add(self.scan_line(black_box(line)));
            }
            checksum = checksum.wrapping_add(self.counts.len() as u64);
        }
        (started.elapsed(), black_box(checksum))
    }

    /// Nanoseconds per line of one `reps`-repeat run.
    pub fn ns_per_line(&mut self, reps: u32) -> f64 {
        let (elapsed, _) = self.run(reps);
        elapsed.as_nanos() as f64 / (f64::from(reps) * self.lines.len().max(1) as f64)
    }

    fn scan_line(&mut self, line: &'a str) -> u64 {
        let bytes = line.as_bytes();
        // 1. byte scan
        let mut digits = 0u64;
        for &byte in bytes {
            digits += u64::from(byte.is_ascii_digit());
        }
        // 2. quote-aware field split
        let mut fields = [(0u32, 0u32); MAX_FIELDS];
        let n_fields = split_fields(bytes, &mut fields);
        // 3. FNV-1a
        let hash = fnv1a_of(bytes);
        // 4. one counter bump keyed on the first field
        let (start, end) = fields[0];
        let first = &line[start as usize..end as usize];
        let slot = self.counts.entry(first).or_insert(0);
        *slot += 1;
        hash ^ digits ^ (n_fields as u64) ^ u64::from(*slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = r#"198.51.100.7 - - [11/Mar/2018:06:25:14 +0000] "GET /search?q=a b HTTP/1.1" 200 5123 "-" "Mozilla/5.0 (X11; Linux x86_64)""#;

    #[test]
    fn split_is_quote_and_bracket_aware() {
        let mut fields = [(0u32, 0u32); MAX_FIELDS];
        let n = split_fields(LINE.as_bytes(), &mut fields);
        assert_eq!(n, 9);
        let text = |i: usize| &LINE[fields[i].0 as usize..fields[i].1 as usize];
        assert_eq!(text(0), "198.51.100.7");
        assert_eq!(text(3), "[11/Mar/2018:06:25:14 +0000]");
        assert_eq!(text(4), "\"GET /search?q=a b HTTP/1.1\"");
        assert_eq!(text(5), "200");
        assert_eq!(text(8), "\"Mozilla/5.0 (X11; Linux x86_64)\"");
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a_of(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_of(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_of(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn runs_are_deterministic_and_scale_with_reps() {
        let lines: Vec<String> = (0..64)
            .map(|i| LINE.replace("100.7", &format!("100.{}", i % 16)))
            .collect();
        let mut yardstick = Yardstick::new(&lines);
        let (_, one) = yardstick.run(1);
        let (_, again) = yardstick.run(1);
        assert_eq!(one, again);
        assert_eq!(yardstick.counts.len(), 16);
        let (_, three) = yardstick.run(3);
        assert_eq!(three, one.wrapping_mul(3));
    }
}
