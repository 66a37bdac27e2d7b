//! Parallel radix (semi-)sorting of keyed records.
//!
//! Section 2.1.2 of the paper batches updates by *semi-sorting* them on the
//! vertex id: all updates touching the same vertex become contiguous, but
//! order inside a group does not matter. The time to semi-sort is the lower
//! bound on any batched update scheme, and Figure 3 plots exactly that
//! bound. We implement an LSB radix sort over `u32` keys with a parallel
//! counting pass and parallel scatter, which is the standard shared-memory
//! semi-sort.

use crate::prefix::exclusive_scan;
use rayon::prelude::*;

/// Number of key bits consumed per radix pass.
const RADIX_BITS: u32 = 11;
const RADIX: usize = 1 << RADIX_BITS;
const RADIX_MASK: u32 = (RADIX - 1) as u32;

/// Sorts `items` stably by `key(item)` using LSB radix passes over the low
/// `key_bits` bits. Keys must satisfy `key < 2^key_bits`.
///
/// `key_bits` lets callers with small vertex-id spaces (the common case:
/// `n = 2^k`, so keys need exactly `k` bits) skip useless high passes.
pub fn radix_sort_by_key<T, F>(items: &mut Vec<T>, key_bits: u32, key: F)
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> u32 + Send + Sync,
{
    assert!(key_bits <= 32);
    let n = items.len();
    if n <= 1 {
        return;
    }
    let passes = key_bits.div_ceil(RADIX_BITS);
    let mut src: Vec<T> = std::mem::take(items);
    let mut dst: Vec<T> = Vec::with_capacity(n);
    // SAFETY: every element of `dst` is written exactly once per pass by the
    // scatter loop before being read; T: Copy so no drops are at stake.
    #[allow(clippy::uninit_vec)]
    unsafe {
        dst.set_len(n);
    }
    for pass in 0..passes {
        let shift = pass * RADIX_BITS;
        scatter_pass(&src, &mut dst, shift, &key);
        std::mem::swap(&mut src, &mut dst);
    }
    *items = src;
}

/// Semi-sorts `items` by key: after the call, items with equal keys are
/// contiguous and groups appear in ascending key order.
///
/// For a radix sort these are the same operation; the alias exists because
/// call sites care about the *grouped* postcondition, not total order.
pub fn semi_sort_by_key<T, F>(items: &mut Vec<T>, key_bits: u32, key: F)
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> u32 + Send + Sync,
{
    radix_sort_by_key(items, key_bits, key);
}

/// One stable counting pass on `(key >> shift) & RADIX_MASK`.
fn scatter_pass<T, F>(src: &[T], dst: &mut [T], shift: u32, key: &F)
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> u32 + Send + Sync,
{
    let n = src.len();
    let threads = rayon::current_num_threads().max(1);
    let chunk = n.div_ceil(threads).max(1);
    let nchunks = n.div_ceil(chunk);

    // Per-chunk histograms, built in parallel.
    let histograms: Vec<Vec<usize>> = src
        .par_chunks(chunk)
        .map(|c| {
            let mut h = vec![0usize; RADIX];
            for item in c {
                h[((key(item) >> shift) & RADIX_MASK) as usize] += 1;
            }
            h
        })
        .collect();

    // Column-major scan: for each bucket, chunks in order — this preserves
    // stability (chunk i's items precede chunk i+1's within a bucket).
    let mut offsets = vec![0usize; RADIX * nchunks];
    {
        let mut flat: Vec<usize> = Vec::with_capacity(RADIX * nchunks);
        for b in 0..RADIX {
            for h in &histograms {
                flat.push(h[b]);
            }
        }
        exclusive_scan(&mut flat);
        offsets.copy_from_slice(&flat);
    }

    // Parallel scatter: chunk i owns offsets[b * nchunks + i ..] cursors.
    let dst_addr = SendPtr(dst.as_mut_ptr());
    src.par_chunks(chunk).enumerate().for_each(|(ci, c)| {
        let dst_addr = &dst_addr;
        let mut cursors = vec![0usize; RADIX];
        for (b, cur) in cursors.iter_mut().enumerate() {
            *cur = offsets[b * nchunks + ci];
        }
        for item in c {
            let b = ((key(item) >> shift) & RADIX_MASK) as usize;
            // SAFETY: cursor ranges of distinct (bucket, chunk) pairs are
            // disjoint by construction of the column-major scan, so no two
            // threads write the same slot.
            unsafe {
                *dst_addr.0.add(cursors[b]) = *item;
            }
            cursors[b] += 1;
        }
    });
}

/// A raw pointer wrapper asserting cross-thread use is safe because writes
/// are provably disjoint (see the scatter safety comment).
struct SendPtr<T>(*mut T);
// SAFETY: scatter tasks write provably disjoint index ranges (see the
// scatter safety comment at the use site); no two tasks alias.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: as above — shared use is disjoint writes only.
unsafe impl<T: Send> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShift64;

    #[test]
    fn sorts_random_u32_pairs_by_first() {
        let mut rng = XorShift64::new(1);
        let mut v: Vec<(u32, u32)> = (0..50_000)
            .map(|i| (rng.next_bounded(1 << 20) as u32, i))
            .collect();
        let mut expect = v.clone();
        expect.sort_by_key(|p| p.0);
        radix_sort_by_key(&mut v, 20, |p| p.0);
        // Radix sort is stable, std's sort_by_key is stable: exact match.
        assert_eq!(v, expect);
    }

    #[test]
    fn stability_preserved_for_equal_keys() {
        let mut v: Vec<(u32, u32)> = (0..10_000).map(|i| (i % 4, i)).collect();
        radix_sort_by_key(&mut v, 2, |p| p.0);
        for w in v.windows(2) {
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "equal keys out of input order");
            }
        }
    }

    #[test]
    fn empty_and_single_are_noops() {
        let mut e: Vec<(u32, u32)> = vec![];
        radix_sort_by_key(&mut e, 10, |p| p.0);
        assert!(e.is_empty());
        let mut s = vec![(5u32, 6u32)];
        radix_sort_by_key(&mut s, 10, |p| p.0);
        assert_eq!(s, vec![(5, 6)]);
    }

    #[test]
    fn key_bits_smaller_than_radix_pass() {
        // Exercises the single-pass path with few distinct buckets.
        let mut v: Vec<(u32, u32)> = (0..1000).rev().map(|i| (i % 8, i)).collect();
        radix_sort_by_key(&mut v, 3, |p| p.0);
        assert!(v.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn full_32_bit_keys() {
        let mut rng = XorShift64::new(2);
        let mut v: Vec<(u32, u32)> = (0..20_000).map(|i| (rng.next_u64() as u32, i)).collect();
        let mut expect = v.clone();
        expect.sort_by_key(|p| p.0);
        radix_sort_by_key(&mut v, 32, |p| p.0);
        assert_eq!(v, expect);
    }

    #[test]
    fn semi_sort_groups_all_equal_keys() {
        let mut rng = XorShift64::new(3);
        let mut v: Vec<(u32, u32)> = (0..30_000)
            .map(|i| (rng.next_bounded(100) as u32, i))
            .collect();
        semi_sort_by_key(&mut v, 7, |p| p.0);
        let groups: Vec<&[(u32, u32)]> = v.chunk_by(|a, b| a.0 == b.0).collect();
        // Each key appears in exactly one group.
        let mut keys: Vec<u32> = groups.iter().map(|g| g[0].0).collect();
        let before = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), before, "a key appeared in two groups");
        // Groups tile the slice.
        let total: usize = groups.iter().map(|g| g.len()).sum();
        assert_eq!(total, v.len());
    }

    #[test]
    fn sort_is_a_permutation() {
        let mut rng = XorShift64::new(4);
        let v: Vec<(u32, u32)> = (0..10_000)
            .map(|i| (rng.next_bounded(512) as u32, i))
            .collect();
        let mut sorted = v.clone();
        radix_sort_by_key(&mut sorted, 9, |p| p.0);
        let mut a = v;
        let mut b = sorted;
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}
