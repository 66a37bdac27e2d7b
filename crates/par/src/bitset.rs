//! The visited/label set of the parallel runtime.
//!
//! [`AtomicBitset`] is the claim structure every kernel in this crate
//! races on: one bit per vertex, packed 64 to a cache-dense word.
//! Claiming is a compare-exchange loop on the containing word, so the
//! caller learns *exactly* whether it was the thread that flipped the
//! bit — the property top-down BFS needs to assign each vertex one
//! parent and one level.
//!
//! Bottom-up BFS needs no claim: it walks the id space in 64-aligned
//! ranges, one worker per range, so each word has exactly one writer in
//! a sweep. That worker reads a word (`word`), builds its new bits in a
//! local `u64` and publishes them with one plain store (`store_word`) —
//! no read-modify-write at all. `fill_from` and `iter_ones` convert a
//! frontier between queue and bitmap when the traversal switches
//! direction.

use std::sync::atomic::{AtomicU64, Ordering};

/// A concurrently claimable bitset over `0..len` bit indices.
pub struct AtomicBitset {
    words: Vec<AtomicU64>,
    len: usize,
}

impl AtomicBitset {
    /// All-zero bitset covering `len` bits.
    pub fn new(len: usize) -> Self {
        let words = (0..len.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        Self { words, len }
    }

    /// Number of addressable bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitset addresses zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Atomically claims bit `i` with a compare-exchange loop. Returns
    /// `true` iff this call transitioned the bit from 0 to 1 — i.e. the
    /// caller won the race and owns whatever per-vertex state the bit
    /// guards.
    #[inline]
    pub fn claim(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let word = &self.words[i >> 6];
        let mask = 1u64 << (i & 63);
        // ordering: Relaxed (load and CAS) — the CAS's atomicity alone
        // picks one claim winner (invariant 7); claimed-vertex data is
        // published by the level's join barrier, never through the bit
        // (invariant 8).
        let mut cur = word.load(Ordering::Relaxed);
        loop {
            if cur & mask != 0 {
                return false;
            }
            // ordering: Relaxed — covered by the note above.
            match word.compare_exchange_weak(cur, cur | mask, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
    }

    /// Sets bit `i` unconditionally (no claim information needed).
    #[inline]
    pub fn set(&self, i: usize) {
        debug_assert!(i < self.len);
        // ordering: Relaxed — no claim information is taken from the
        // return; the level join publishes the mask (invariant 8).
        self.words[i >> 6].fetch_or(1u64 << (i & 63), Ordering::Relaxed);
    }

    /// Reads bit `i`.
    #[inline]
    pub fn test(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        // ordering: Relaxed — a stale read only routes a kernel to its
        // idempotent claim path; `claim`'s CAS is authoritative.
        self.words[i >> 6].load(Ordering::Relaxed) & (1u64 << (i & 63)) != 0
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words
            .iter()
            // ordering: Relaxed — called between levels, after the join
            // that ordered the sets (invariant 8).
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Word `i`: bits `64 * i .. 64 * i + 64`.
    #[inline]
    pub(crate) fn word(&self, i: usize) -> u64 {
        // ordering: Relaxed — read by the word's only writer, or between
        // sweeps after the join that ordered its store (invariants 7, 8).
        self.words[i].load(Ordering::Relaxed)
    }

    /// Overwrites word `i`. Only for a caller that is the word's one
    /// writer for the sweep (its range owner): a plain store would drop
    /// a concurrent [`AtomicBitset::claim`] or [`AtomicBitset::set`].
    #[inline]
    pub(crate) fn store_word(&self, i: usize, bits: u64) {
        // ordering: Relaxed — one writer per word (invariant 7); the
        // sweep join publishes the store (invariant 8).
        self.words[i].store(bits, Ordering::Relaxed);
    }

    /// Clears every bit, then sets the bits of `ids`. Exclusive access
    /// makes this plain memory writes, no atomics.
    pub(crate) fn fill_from(&mut self, ids: &[u32]) {
        for w in &mut self.words {
            *w.get_mut() = 0;
        }
        for &i in ids {
            debug_assert!((i as usize) < self.len);
            *self.words[i as usize >> 6].get_mut() |= 1u64 << (i & 63);
        }
    }

    /// The set bit indices in increasing order.
    pub(crate) fn iter_ones(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.words.len()).flat_map(move |i| {
            let mut bits = self.word(i);
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    (i as u32) << 6 | b
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn claim_is_exclusive_and_test_observes() {
        let bs = AtomicBitset::new(130);
        assert!(!bs.test(129));
        assert!(bs.claim(129));
        assert!(!bs.claim(129), "second claim must lose");
        assert!(bs.test(129));
    }

    #[test]
    fn concurrent_claims_have_one_winner_per_bit() {
        let bs = AtomicBitset::new(500);
        let wins: usize = (0..4000usize)
            .into_par_iter()
            .map(|i| usize::from(bs.claim(i % 500)))
            .sum();
        assert_eq!(wins, 500);
        assert_eq!(bs.count_ones(), 500);
    }

    #[test]
    fn word_stores_replace_whole_words() {
        let bs = AtomicBitset::new(200);
        bs.set(3);
        assert_eq!(bs.word(0), 1 << 3);
        bs.store_word(0, 0b101);
        assert!(bs.test(0) && !bs.test(1) && bs.test(2) && !bs.test(3));
        bs.store_word(3, 1 << 7);
        assert!(bs.test(199));
        assert_eq!(bs.count_ones(), 3);
    }

    #[test]
    fn fill_from_and_iter_ones_round_trip() {
        let mut bs = AtomicBitset::new(200);
        bs.set(100);
        let ids = [0u32, 63, 64, 130, 199];
        bs.fill_from(&ids);
        assert!(!bs.test(100), "fill_from clears the old bits first");
        assert_eq!(bs.iter_ones().collect::<Vec<_>>(), ids);
    }

    #[test]
    fn empty_bitset() {
        let mut bs = AtomicBitset::new(0);
        assert!(bs.is_empty());
        assert_eq!(bs.count_ones(), 0);
        bs.fill_from(&[]);
        assert_eq!(bs.iter_ones().count(), 0);
    }
}
