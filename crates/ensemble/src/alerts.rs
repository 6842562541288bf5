//! Alert vectors: which requests a tool alerted on.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A tool's per-request alert decisions over one log, as a compact bitset.
///
/// Index `i` corresponds to the `i`-th log entry. All set operations
/// require equal lengths — comparing tools over different logs is a logic
/// error, not a recoverable condition.
///
/// ```
/// use divscrape_ensemble::AlertVector;
///
/// let a = AlertVector::from_bools("a", &[true, true, false, false]);
/// let b = AlertVector::from_bools("b", &[true, false, true, false]);
/// assert_eq!(a.and(&b).count(), 1); // both
/// assert_eq!(a.or(&b).count(), 3);  // either
/// assert_eq!(a.minus(&b).count(), 1); // a only
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AlertVector {
    name: String,
    len: usize,
    words: Vec<u64>,
}

impl AlertVector {
    /// Builds a vector from per-request flags.
    pub fn from_bools(name: impl Into<String>, flags: &[bool]) -> Self {
        let mut words = vec![0u64; flags.len().div_ceil(64)];
        for (i, &f) in flags.iter().enumerate() {
            if f {
                words[i / 64] |= 1 << (i % 64);
            }
        }
        Self {
            name: name.into(),
            len: flags.len(),
            words,
        }
    }

    /// An all-clear vector of the given length.
    pub fn empty(name: impl Into<String>, len: usize) -> Self {
        Self {
            name: name.into(),
            len,
            words: vec![0u64; len.div_ceil(64)],
        }
    }

    /// The tool name this vector belongs to.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the vector (e.g. after a set operation).
    #[must_use]
    pub fn renamed(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Number of requests covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector covers no requests.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether request `i` was alerted.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "index {i} out of range {}", self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of alerted requests.
    pub fn count(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Alerted fraction of all requests.
    pub fn rate(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.count() as f64 / self.len as f64
        }
    }

    fn zip(&self, other: &Self, op: impl Fn(u64, u64) -> u64, name: String) -> Self {
        assert_eq!(
            self.len, other.len,
            "alert vectors cover different logs ({} vs {})",
            self.len, other.len
        );
        Self {
            name,
            len: self.len,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| op(*a, *b))
                .collect(),
        }
    }

    /// Requests alerted by both tools.
    ///
    /// # Panics
    ///
    /// Panics when lengths differ.
    #[must_use]
    pub fn and(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a & b, format!("{}∧{}", self.name, other.name))
    }

    /// Requests alerted by either tool.
    ///
    /// # Panics
    ///
    /// Panics when lengths differ.
    #[must_use]
    pub fn or(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a | b, format!("{}∨{}", self.name, other.name))
    }

    /// Requests alerted by `self` but not `other`.
    ///
    /// # Panics
    ///
    /// Panics when lengths differ.
    #[must_use]
    pub fn minus(&self, other: &Self) -> Self {
        self.zip(
            other,
            |a, b| a & !b,
            format!("{}∖{}", self.name, other.name),
        )
    }

    /// Requests alerted by neither tool.
    ///
    /// # Panics
    ///
    /// Panics when lengths differ.
    #[must_use]
    pub fn neither(&self, other: &Self) -> Self {
        let mut v = self.zip(
            other,
            |a, b| !(a | b),
            format!("¬({}∨{})", self.name, other.name),
        );
        v.mask_tail();
        v
    }

    /// The complement.
    #[must_use]
    pub fn not(&self) -> Self {
        let mut v = Self {
            name: format!("¬{}", self.name),
            len: self.len,
            words: self.words.iter().map(|w| !w).collect(),
        };
        v.mask_tail();
        v
    }

    /// Clears bits beyond `len` (after complement operations).
    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Iterates over the indices of alerted requests, in increasing
    /// order — a word at a time, so a quiet stretch costs one test per
    /// 64 requests.
    pub fn iter_alerted(&self) -> impl Iterator<Item = usize> + '_ {
        set_bits(&self.words)
    }

    /// Materialises the flags.
    pub fn to_bools(&self) -> Vec<bool> {
        let mut flags = vec![false; self.len];
        for i in self.iter_alerted() {
            flags[i] = true;
        }
        flags
    }

    /// Adds `other`'s alerts to this vector's own, in place ([`or`](Self::or)
    /// without a new vector or name).
    ///
    /// # Panics
    ///
    /// Panics when lengths differ.
    pub fn union_with(&mut self, other: &Self) {
        assert_eq!(
            self.len, other.len,
            "alert vectors cover different logs ({} vs {})",
            self.len, other.len
        );
        for (word, more) in self.words.iter_mut().zip(&other.words) {
            *word |= more;
        }
    }

    /// Sets whether request `i` was alerted.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub fn set(&mut self, i: usize, alerted: bool) {
        assert!(i < self.len, "index {i} out of range {}", self.len);
        let bit = 1u64 << (i % 64);
        if alerted {
            self.words[i / 64] |= bit;
        } else {
            self.words[i / 64] &= !bit;
        }
    }

    /// Replaces the flags in place, keeping the name and the word
    /// buffer's capacity — a per-chunk scratch vector is refilled, not
    /// rebuilt.
    pub fn refill(&mut self, flags: impl IntoIterator<Item = bool>) {
        self.words.clear();
        self.len = 0;
        for flag in flags {
            if self.len.is_multiple_of(64) {
                self.words.push(0);
            }
            *self.words.last_mut().expect("a word was just pushed") |=
                u64::from(flag) << (self.len % 64);
            self.len += 1;
        }
    }

    /// Moves the flags out, leaving an empty vector of the same name.
    #[must_use]
    pub fn take(&mut self) -> Self {
        let empty = Self::empty(self.name.as_str(), 0);
        std::mem::replace(self, empty)
    }

    /// Appends `other`'s requests after this vector's own (the name is
    /// kept): `other`'s words are shifted in at this vector's bit
    /// length, which need not be a multiple of 64.
    pub fn append(&mut self, other: &Self) {
        let shift = self.len % 64;
        if shift == 0 {
            self.words.extend_from_slice(&other.words);
        } else {
            for &word in &other.words {
                *self.words.last_mut().expect("a partial last word") |= word << shift;
                self.words.push(word >> (64 - shift));
            }
        }
        self.len += other.len;
        self.words.truncate(self.len.div_ceil(64));
    }
}

/// The indices of the set bits of `words`, in increasing order (bit
/// `i % 64` of word `i / 64` is index `i`).
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + bit
            })
        })
    })
}

impl fmt::Display for AlertVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} of {} requests alerted ({:.2}%)",
            self.name,
            self.count(),
            self.len,
            self.rate() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_counting() {
        let v = AlertVector::from_bools("t", &[true, false, true, true]);
        assert_eq!(v.len(), 4);
        assert_eq!(v.count(), 3);
        assert!(v.get(0) && !v.get(1) && v.get(2) && v.get(3));
        assert!((v.rate() - 0.75).abs() < 1e-12);
        assert_eq!(v.iter_alerted().collect::<Vec<_>>(), vec![0, 2, 3]);
    }

    #[test]
    fn empty_vector_behaviour() {
        let v = AlertVector::empty("t", 0);
        assert!(v.is_empty());
        assert_eq!(v.count(), 0);
        assert_eq!(v.rate(), 0.0);
        let v = AlertVector::empty("t", 100);
        assert_eq!(v.count(), 0);
        assert_eq!(v.len(), 100);
    }

    #[test]
    #[should_panic]
    fn get_bounds_checked() {
        let v = AlertVector::empty("t", 3);
        let _ = v.get(3);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let a = AlertVector::empty("a", 3);
        let b = AlertVector::empty("b", 4);
        let _ = a.and(&b);
    }

    #[test]
    fn complement_masks_the_tail() {
        // Length straddling a word boundary: 65 and 64 and small.
        for len in [1usize, 63, 64, 65, 130] {
            let v = AlertVector::empty("t", len);
            assert_eq!(v.not().count() as usize, len, "len {len}");
        }
    }

    #[test]
    fn display_is_informative() {
        let v = AlertVector::from_bools("distil", &[true, false]);
        let s = v.to_string();
        assert!(s.contains("distil") && s.contains("1 of 2"));
    }

    /// Lengths on both sides of a word boundary, and past one chunk.
    const EDGE_LENS: [usize; 7] = [0, 1, 63, 64, 65, 4_096, 4_097];

    /// `len` flags: a seeded xorshift fill at roughly `density`/8.
    fn fill(len: usize, seed: u64, density: u64) -> Vec<bool> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % 8 < density
            })
            .collect()
    }

    /// Every word-level view of `v` against the naive per-flag
    /// definition, including that no bit beyond `len` is set.
    fn assert_matches_naive(v: &AlertVector, flags: &[bool]) {
        assert_eq!(v.len(), flags.len());
        let alerted: Vec<usize> = (0..flags.len()).filter(|&i| flags[i]).collect();
        assert_eq!(v.iter_alerted().collect::<Vec<_>>(), alerted);
        assert_eq!(v.to_bools(), flags);
        assert_eq!(v.count() as usize, alerted.len());
        assert_eq!(v, &AlertVector::from_bools(v.name(), flags), "tail bits");
    }

    proptest! {
        // The word walks equal the naive definition at every edge
        // length and fill density (0 = all clear, 8 = all set).
        #[test]
        fn word_walks_match_the_naive_definition(seed in any::<u64>(), density in 0u64..9) {
            for len in EDGE_LENS {
                let flags = fill(len, seed, density);
                assert_matches_naive(&AlertVector::from_bools("t", &flags), &flags);
                // A refilled scratch forgets its previous, longer fill.
                let mut scratch = AlertVector::from_bools("t", &fill(len + 70, !seed, 8));
                scratch.refill(flags.iter().copied());
                assert_matches_naive(&scratch, &flags);
            }
        }

        // Appending at a bit offset equals concatenating the flags, for
        // every pairing of edge lengths (offsets that are and are not
        // multiples of 64), and a patched bit lands where it was aimed.
        #[test]
        fn append_and_set_match_the_naive_definition(
            seed in any::<u64>(),
            density in 0u64..9,
            pick in any::<usize>(),
        ) {
            for head in EDGE_LENS {
                for tail in EDGE_LENS {
                    let mut flags = fill(head, seed, density);
                    let mut v = AlertVector::from_bools("t", &flags);
                    let more = fill(tail, seed.rotate_left(17), 8 - density.min(8));
                    v.append(&AlertVector::from_bools("more", &more));
                    flags.extend_from_slice(&more);
                    assert_matches_naive(&v, &flags);
                    let other = fill(flags.len(), !seed, 8 - density.min(8));
                    v.union_with(&AlertVector::from_bools("other", &other));
                    for (flag, more) in flags.iter_mut().zip(&other) {
                        *flag |= more;
                    }
                    assert_matches_naive(&v, &flags);
                    if !flags.is_empty() {
                        let at = pick % flags.len();
                        v.set(at, flags[at]);
                        assert_eq!(v.get(at), flags[at], "a no-op set changed bit {at}");
                        flags[at] = !flags[at];
                        v.set(at, flags[at]);
                        assert_matches_naive(&v, &flags);
                    }
                }
            }
        }

        #[test]
        fn set_algebra_laws(flags_a in proptest::collection::vec(any::<bool>(), 0..300),
                            flags_b in proptest::collection::vec(any::<bool>(), 0..300)) {
            let n = flags_a.len().min(flags_b.len());
            let a = AlertVector::from_bools("a", &flags_a[..n]);
            let b = AlertVector::from_bools("b", &flags_b[..n]);

            // Partition: both + only-a + only-b + neither == n.
            let total = a.and(&b).count()
                + a.minus(&b).count()
                + b.minus(&a).count()
                + a.neither(&b).count();
            prop_assert_eq!(total as usize, n);

            // De Morgan: ¬(a ∨ b) == ¬a ∧ ¬b.
            prop_assert_eq!(a.neither(&b).to_bools(), a.not().and(&b.not()).to_bools());

            // Union counts: |a ∪ b| == |a| + |b| − |a ∧ b|.
            prop_assert_eq!(a.or(&b).count(), a.count() + b.count() - a.and(&b).count());

            // Involution.
            prop_assert_eq!(a.not().not().to_bools(), a.to_bools());

            // Round trip.
            let again = AlertVector::from_bools("a", &a.to_bools());
            prop_assert_eq!(again.count(), a.count());
        }
    }
}
