//! The visited/label set of the parallel runtime.
//!
//! [`AtomicBitset`] is the claim structure every kernel in this crate
//! races on: one bit per vertex, packed 64 to a cache-dense word.
//! Claiming is a compare-exchange loop on the containing word, so the
//! caller learns *exactly* whether it was the thread that flipped the
//! bit — the property BFS needs to assign each vertex one parent and
//! one level.
//!
//! Beyond claiming, the runtime depends on two more operations: per-bit
//! clearing (the bottom-up frontier mask is recycled across levels by
//! unsetting only the previous frontier's bits) and word-granular unset
//! iteration ([`AtomicBitset::for_each_unset_in`] skips fully-visited
//! words 64 vertices at a time in the bottom-up sweep).

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

    /// Clears bit `i`. Used to recycle the bottom-up frontier mask:
    /// unsetting the previous frontier's bits is O(frontier), not O(n).
    #[inline]
    pub fn clear(&self, i: usize) {
        debug_assert!(i < self.len);
        // ordering: Relaxed — frontier-mask recycling between levels;
        // the level join orders it (invariant 8).
        self.words[i >> 6].fetch_and(!(1u64 << (i & 63)), Ordering::Relaxed);
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

    /// Invokes `f` for every *unset* bit index in `lo..hi`, skipping
    /// fully-set words wholesale. This is the bottom-up BFS scan: once
    /// most of the graph is visited, whole 64-vertex words short-circuit
    /// with one load.
    pub fn for_each_unset_in(&self, lo: usize, hi: usize, mut f: impl FnMut(usize)) {
        debug_assert!(hi <= self.len);
        let mut i = lo;
        while i < hi {
            // ordering: Relaxed — bottom-up scan hint; a stale word
            // only sends extra vertices to the idempotent claim.
            let w = self.words[i >> 6].load(Ordering::Relaxed);
            let word_end = ((i >> 6) + 1) << 6;
            let end = word_end.min(hi);
            if w == u64::MAX {
                i = end;
                continue;
            }
            while i < end {
                if w & (1u64 << (i & 63)) == 0 {
                    f(i);
                }
                i += 1;
            }
        }
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
    fn clear_recycles_bits() {
        let bs = AtomicBitset::new(64);
        assert!(bs.claim(7));
        bs.clear(7);
        assert!(!bs.test(7));
        assert!(bs.claim(7), "cleared bit is claimable again");
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
    fn unset_iteration_skips_full_words_and_respects_bounds() {
        let bs = AtomicBitset::new(200);
        // Fill word 1 (bits 64..128) completely, plus a few stragglers.
        for i in 64..128 {
            bs.set(i);
        }
        bs.set(3);
        bs.set(130);
        let mut seen = Vec::new();
        bs.for_each_unset_in(0, 200, |i| seen.push(i));
        assert!(!seen.contains(&3));
        assert!(!seen.contains(&130));
        assert!(seen.iter().all(|&i| !(64..128).contains(&i)));
        assert_eq!(seen.len(), 200 - 64 - 2);
        // Sub-range iteration.
        let mut sub = Vec::new();
        bs.for_each_unset_in(128, 132, |i| sub.push(i));
        assert_eq!(sub, vec![128, 129, 131]);
    }

    #[test]
    fn empty_bitset() {
        let bs = AtomicBitset::new(0);
        assert!(bs.is_empty());
        assert_eq!(bs.count_ones(), 0);
        bs.for_each_unset_in(0, 0, |_| panic!("no bits to visit"));
    }
}
