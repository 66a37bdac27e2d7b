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
//! - [`stats`]: percentiles, medians and degree histograms for experiment
//!   reporting.

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

#[cfg(test)]
mod tests {
    use super::*;

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
