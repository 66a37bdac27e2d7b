//! Shared HPC utilities for the snap-dynamic workspace.
//!
//! These are the small, performance-sensitive building blocks the rest of
//! the workspace leans on:
//!
//! - [`rng`]: a tiny, seedable, splittable xorshift generator. Workload
//!   generation must be deterministic per seed *and* cheap enough not to
//!   dominate update benchmarks, which rules out heavier generators.
//! - [`sort`]: parallel LSB radix sort and the *semi-sort* (group by key,
//!   order within group irrelevant) the paper uses to batch updates.
//! - [`prefix`]: sequential and parallel exclusive prefix sums, the glue of
//!   every counting-sort-style kernel in the workspace.
//! - [`timer`]: wall-clock timing helpers and the MUPS (millions of updates
//!   per second) metric from the paper.
//! - [`stats`]: summary statistics for experiment reporting.

pub mod prefix;
pub mod rng;
pub mod sort;
pub mod stats;
pub mod timer;

pub use rng::SplitMix64;
pub use rng::XorShift64;
pub use timer::{mups, Timer};

/// Returns a rayon thread pool with exactly `threads` workers.
///
/// Benchmarks sweep thread counts explicitly instead of relying on the
/// global pool, so every figure harness funnels through this constructor.
pub fn thread_pool(threads: usize) -> rayon::ThreadPool {
    // panics: pool construction fails only on OS thread exhaustion;
    // bench/test harness setup has nothing to degrade to.
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads.max(1))
        .build()
        .expect("failed to build rayon pool")
}

/// Splits `len` items into at most `parts` contiguous, near-equal ranges.
///
/// The last range absorbs the remainder. Used by the Vpart/Epart
/// representations and by hand-rolled parallel loops where rayon's adaptive
/// splitting would obscure the ownership structure the paper describes.
pub fn partition_ranges(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.max(1).min(len.max(1));
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let sz = base + usize::from(i < extra);
        out.push(start..start + sz);
        start += sz;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_all_items_without_overlap() {
        for len in [0usize, 1, 7, 64, 1000] {
            for parts in [1usize, 2, 3, 8, 64] {
                let ranges = partition_ranges(len, parts);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "ranges must be contiguous");
                    next = r.end;
                }
                assert_eq!(next, len, "ranges must cover 0..len");
            }
        }
    }

    #[test]
    fn partition_is_balanced_within_one() {
        let ranges = partition_ranges(103, 8);
        let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1, "sizes {sizes:?} differ by more than 1");
    }

    #[test]
    fn partition_never_returns_more_parts_than_items() {
        let ranges = partition_ranges(3, 100);
        assert_eq!(ranges.len(), 3);
    }

    #[test]
    fn thread_pool_runs_with_requested_parallelism() {
        let pool = thread_pool(2);
        assert_eq!(pool.current_num_threads(), 2);
        let sum: u64 = pool.install(|| {
            use rayon::prelude::*;
            (0..1000u64).into_par_iter().sum()
        });
        assert_eq!(sum, 499_500);
    }
}
