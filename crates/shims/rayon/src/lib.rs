//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no reachable crates registry, so the
//! workspace vendors this API-compatible subset of rayon instead of the
//! real dependency. Semantics are preserved; the execution strategy
//! mostly is not: lazy adapters and reducing terminals run sequentially
//! on the calling thread, while [`join`], [`scope`], and the `for_each`
//! terminal use real OS threads (`std::thread::scope`) — so code whose
//! *correctness* is exercised under concurrency (per-vertex locking,
//! atomic claim/CAS protocols, the update engines) still runs
//! multi-threaded under the shim.
//!
//! Swapping the real rayon back in is a one-line change in the workspace
//! manifest; no source using `rayon::prelude::*` needs to change.
//!
//! # What the workspace's tests rely on
//!
//! There is no pool: every fork spawns fresh OS threads and joins them
//! before it returns, so each fork pays thread creation (tens of µs).
//!
//! - [`join`] spawns one thread for `b` and runs `a` on the caller.
//! - [`scope`] runs its body on the caller, and each [`Scope::spawn`]
//!   is one new thread.
//! - [`ParIter::for_each`] collects its items and splits them into
//!   `t = min(current_num_threads(), items)` chunks. With `t <= 1` it
//!   runs inline and spawns nothing; otherwise it spawns `t - 1` threads
//!   and runs the last chunk on the caller.
//! - [`ThreadPool::install`] spawns nothing: it runs the closure on the
//!   caller and sets what [`current_num_threads`] returns inside it, which
//!   is how the thread sweeps pick a width.
//! - Every other terminal runs sequentially on the caller.
//!
//! With the `chaos` feature, `chaos::point` may yield at the start of
//! each spawned thread, of each [`join`] arm, and before each item
//! `for_each` hands to `f`. Yields are a pure function of the seed
//! ([`chaos::set_seed`]) and a per-thread call count, so a failing
//! schedule reproduces; [`chaos::yield_count`] proves injection ran.

pub mod chaos;

use std::num::NonZeroUsize;
use std::sync::OnceLock;

pub mod prelude {
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator, ParallelExtend,
        ParallelSliceExt, ParallelSliceMutExt,
    };
}

std::thread_local! {
    /// Thread count requested by the innermost [`ThreadPool::install`]
    /// on this thread (0 = no pool installed: use the machine's
    /// parallelism). Honoring this is what keeps thread-sweep
    /// benchmarks meaningful under the shim.
    static INSTALLED_THREADS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Restores the previously installed thread count on drop (panic-safe).
struct InstallGuard(usize);

impl Drop for InstallGuard {
    fn drop(&mut self) {
        INSTALLED_THREADS.with(|t| t.set(self.0));
    }
}

/// Number of worker threads rayon would use: the innermost installed
/// pool's configured count, or the machine's available parallelism. The
/// latter is read once per process, as real rayon sizes its global pool
/// once: each `available_parallelism` call costs tens of microseconds.
pub fn current_num_threads() -> usize {
    let installed = INSTALLED_THREADS.with(|t| t.get());
    if installed > 0 {
        return installed;
    }
    static MACHINE: OnceLock<usize> = OnceLock::new();
    *MACHINE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Runs both closures, each on its own scoped thread, and returns both
/// results — real fork/join parallelism.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    std::thread::scope(|s| {
        let hb = s.spawn(|| {
            chaos::point();
            b()
        });
        chaos::point();
        let ra = a();
        let rb = hb.join().expect("rayon::join task panicked");
        (ra, rb)
    })
}

/// A fork/join scope backed by `std::thread::scope`.
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns `f` on a real OS thread tied to the scope's lifetime.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope, 'env>) + Send + 'scope,
    {
        let inner = self.inner;
        inner.spawn(move || {
            chaos::point();
            f(&Scope { inner })
        });
    }
}

/// Creates a scope in which spawned tasks run on real threads; returns
/// once every spawned task has finished.
pub fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    std::thread::scope(|s| f(&Scope { inner: s }))
}

/// Thread-pool construction error (never produced by this shim).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Stand-in thread pool: `install` runs the closure on the calling
/// thread, but publishes the pool's configured thread count so
/// [`current_num_threads`] and the parallel `for_each` terminal honor
/// it — thread-sweep benchmarks therefore measure real worker-count
/// differences under the shim.
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let prev = INSTALLED_THREADS.with(|t| t.replace(self.threads));
        let _guard = InstallGuard(prev);
        f()
    }

    pub fn current_num_threads(&self) -> usize {
        self.threads
    }
}

#[derive(Default)]
pub struct ThreadPoolBuilder {
    threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self { threads: 0 }
    }

    pub fn num_threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = if self.threads == 0 {
            current_num_threads()
        } else {
            self.threads
        };
        Ok(ThreadPool { threads })
    }
}

/// The parallel-iterator handle: a thin wrapper over a standard iterator.
/// Adapters are lazy; terminal operations run sequentially except
/// `for_each`, which fans out over real scoped threads.
pub struct ParIter<I> {
    iter: I,
}

impl<I: Iterator> IntoIterator for ParIter<I> {
    type Item = I::Item;
    type IntoIter = I;
    fn into_iter(self) -> I {
        self.iter
    }
}

/// Conversion into a [`ParIter`] (rayon's `IntoParallelIterator`).
/// Blanket-implemented over everything iterable, so ranges, vectors,
/// slices and references all gain `into_par_iter`.
pub trait IntoParallelIterator {
    type Item;
    type Iter: Iterator<Item = Self::Item>;
    fn into_par_iter(self) -> ParIter<Self::Iter>;
}

impl<T: IntoIterator> IntoParallelIterator for T {
    type Item = T::Item;
    type Iter = T::IntoIter;
    fn into_par_iter(self) -> ParIter<T::IntoIter> {
        ParIter {
            iter: self.into_iter(),
        }
    }
}

/// `.par_iter()` on shared references (rayon's `IntoParallelRefIterator`).
pub trait IntoParallelRefIterator<'data> {
    type Item: 'data;
    type Iter: Iterator<Item = Self::Item>;
    fn par_iter(&'data self) -> ParIter<Self::Iter>;
}

impl<'data, T: 'data + ?Sized> IntoParallelRefIterator<'data> for T
where
    &'data T: IntoIterator,
{
    type Item = <&'data T as IntoIterator>::Item;
    type Iter = <&'data T as IntoIterator>::IntoIter;
    fn par_iter(&'data self) -> ParIter<Self::Iter> {
        ParIter {
            iter: self.into_iter(),
        }
    }
}

/// `.par_iter_mut()` on exclusive references.
pub trait IntoParallelRefMutIterator<'data> {
    type Item: 'data;
    type Iter: Iterator<Item = Self::Item>;
    fn par_iter_mut(&'data mut self) -> ParIter<Self::Iter>;
}

impl<'data, T: 'data + ?Sized> IntoParallelRefMutIterator<'data> for T
where
    &'data mut T: IntoIterator,
{
    type Item = <&'data mut T as IntoIterator>::Item;
    type Iter = <&'data mut T as IntoIterator>::IntoIter;
    fn par_iter_mut(&'data mut self) -> ParIter<Self::Iter> {
        ParIter {
            iter: self.into_iter(),
        }
    }
}

/// Slice-only parallel views (`par_chunks`, `par_windows`).
pub trait ParallelSliceExt<T> {
    fn par_chunks(&self, chunk_size: usize) -> ParIter<std::slice::Chunks<'_, T>>;
    fn par_windows(&self, window_size: usize) -> ParIter<std::slice::Windows<'_, T>>;
}

impl<T> ParallelSliceExt<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> ParIter<std::slice::Chunks<'_, T>> {
        ParIter {
            iter: self.chunks(chunk_size),
        }
    }

    fn par_windows(&self, window_size: usize) -> ParIter<std::slice::Windows<'_, T>> {
        ParIter {
            iter: self.windows(window_size),
        }
    }
}

/// Mutable-slice parallel operations (`par_sort_*`).
pub trait ParallelSliceMutExt<T> {
    fn par_sort_unstable(&mut self)
    where
        T: Ord;
    fn par_sort_unstable_by_key<K: Ord, F: FnMut(&T) -> K>(&mut self, f: F);
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<std::slice::ChunksMut<'_, T>>;
}

impl<T> ParallelSliceMutExt<T> for [T] {
    fn par_sort_unstable(&mut self)
    where
        T: Ord,
    {
        self.sort_unstable();
    }

    fn par_sort_unstable_by_key<K: Ord, F: FnMut(&T) -> K>(&mut self, f: F) {
        self.sort_unstable_by_key(f);
    }

    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<std::slice::ChunksMut<'_, T>> {
        ParIter {
            iter: self.chunks_mut(chunk_size),
        }
    }
}

/// `par_extend` (rayon's `ParallelExtend`).
pub trait ParallelExtend<T> {
    fn par_extend<I>(&mut self, par_iter: I)
    where
        I: IntoParallelIterator<Item = T>;
}

impl<T> ParallelExtend<T> for Vec<T> {
    fn par_extend<I>(&mut self, par_iter: I)
    where
        I: IntoParallelIterator<Item = T>,
    {
        self.extend(par_iter.into_par_iter().iter);
    }
}

impl<I: Iterator> ParIter<I> {
    // ---- lazy adapters -------------------------------------------------

    pub fn map<R, F: FnMut(I::Item) -> R>(self, f: F) -> ParIter<std::iter::Map<I, F>> {
        ParIter {
            iter: self.iter.map(f),
        }
    }

    pub fn filter<F: FnMut(&I::Item) -> bool>(self, f: F) -> ParIter<std::iter::Filter<I, F>> {
        ParIter {
            iter: self.iter.filter(f),
        }
    }

    pub fn filter_map<R, F: FnMut(I::Item) -> Option<R>>(
        self,
        f: F,
    ) -> ParIter<std::iter::FilterMap<I, F>> {
        ParIter {
            iter: self.iter.filter_map(f),
        }
    }

    pub fn flat_map<R: IntoIterator, F: FnMut(I::Item) -> R>(
        self,
        f: F,
    ) -> ParIter<std::iter::FlatMap<I, R, F>> {
        ParIter {
            iter: self.iter.flat_map(f),
        }
    }

    /// rayon's `flat_map_iter`: the inner iterator is sequential there
    /// too, so this is the same adapter as [`ParIter::flat_map`].
    pub fn flat_map_iter<R: IntoIterator, F: FnMut(I::Item) -> R>(
        self,
        f: F,
    ) -> ParIter<std::iter::FlatMap<I, R, F>> {
        ParIter {
            iter: self.iter.flat_map(f),
        }
    }

    pub fn flatten(self) -> ParIter<std::iter::Flatten<I>>
    where
        I::Item: IntoIterator,
    {
        ParIter {
            iter: self.iter.flatten(),
        }
    }

    pub fn enumerate(self) -> ParIter<std::iter::Enumerate<I>> {
        ParIter {
            iter: self.iter.enumerate(),
        }
    }

    pub fn zip<J: IntoParallelIterator>(self, other: J) -> ParIter<std::iter::Zip<I, J::Iter>> {
        ParIter {
            iter: self.iter.zip(other.into_par_iter().iter),
        }
    }

    pub fn copied<'a, T: 'a + Copy>(self) -> ParIter<std::iter::Copied<I>>
    where
        I: Iterator<Item = &'a T>,
    {
        ParIter {
            iter: self.iter.copied(),
        }
    }

    pub fn cloned<'a, T: 'a + Clone>(self) -> ParIter<std::iter::Cloned<I>>
    where
        I: Iterator<Item = &'a T>,
    {
        ParIter {
            iter: self.iter.cloned(),
        }
    }

    pub fn chain<J: IntoParallelIterator<Item = I::Item>>(
        self,
        other: J,
    ) -> ParIter<std::iter::Chain<I, J::Iter>> {
        ParIter {
            iter: self.iter.chain(other.into_par_iter().iter),
        }
    }

    pub fn with_min_len(self, _len: usize) -> Self {
        self
    }

    pub fn with_max_len(self, _len: usize) -> Self {
        self
    }

    /// rayon's split-local fold: here a single accumulator over the whole
    /// sequence, yielded as a one-element iterator for `reduce` to drain.
    pub fn fold<A, ID, F>(self, identity: ID, fold_op: F) -> ParIter<std::iter::Once<A>>
    where
        ID: Fn() -> A,
        F: FnMut(A, I::Item) -> A,
    {
        ParIter {
            iter: std::iter::once(self.iter.fold(identity(), fold_op)),
        }
    }

    // ---- terminal operations -------------------------------------------

    /// The one genuinely parallel terminal operation: items are
    /// materialized, chunked over the machine's cores, and `f` runs on
    /// real scoped threads. This keeps the workspace's concurrency
    /// coverage honest — the update-application engines and their
    /// contention tests all funnel mutation through
    /// `par_iter().for_each(...)`, so the per-vertex spinlock/CAS
    /// protocols still face actual cross-thread interleavings under the
    /// shim. (Bounds mirror real rayon: `Fn + Sync`, `Item: Send`.)
    pub fn for_each<F>(self, f: F)
    where
        I::Item: Send,
        F: Fn(I::Item) + Sync,
    {
        let items: Vec<I::Item> = self.iter.collect();
        let threads = current_num_threads().min(items.len().max(1));
        if threads <= 1 {
            items.into_iter().for_each(f);
            return;
        }
        let chunk = items.len().div_ceil(threads);
        let f = &f;
        std::thread::scope(|s| {
            let mut rest = items;
            while rest.len() > chunk {
                let tail = rest.split_off(rest.len() - chunk);
                s.spawn(move || {
                    tail.into_iter().for_each(|x| {
                        chaos::point();
                        f(x)
                    })
                });
            }
            rest.into_iter().for_each(|x| {
                chaos::point();
                f(x)
            });
        });
    }

    pub fn collect<C: FromIterator<I::Item>>(self) -> C {
        self.iter.collect()
    }

    pub fn unzip<A, B, FromA, FromB>(self) -> (FromA, FromB)
    where
        I: Iterator<Item = (A, B)>,
        FromA: Default + Extend<A>,
        FromB: Default + Extend<B>,
    {
        self.iter.unzip()
    }

    pub fn reduce<ID, F>(self, identity: ID, op: F) -> I::Item
    where
        ID: Fn() -> I::Item,
        F: FnMut(I::Item, I::Item) -> I::Item,
    {
        self.iter.fold(identity(), op)
    }

    pub fn reduce_with<F>(mut self, op: F) -> Option<I::Item>
    where
        F: FnMut(I::Item, I::Item) -> I::Item,
    {
        let first = self.iter.next()?;
        Some(self.iter.fold(first, op))
    }

    pub fn sum<S: std::iter::Sum<I::Item>>(self) -> S {
        self.iter.sum()
    }

    pub fn count(self) -> usize {
        self.iter.count()
    }

    pub fn max(self) -> Option<I::Item>
    where
        I::Item: Ord,
    {
        self.iter.max()
    }

    pub fn min(self) -> Option<I::Item>
    where
        I::Item: Ord,
    {
        self.iter.min()
    }

    pub fn max_by_key<K: Ord, F: FnMut(&I::Item) -> K>(self, f: F) -> Option<I::Item> {
        self.iter.max_by_key(f)
    }

    pub fn min_by_key<K: Ord, F: FnMut(&I::Item) -> K>(self, f: F) -> Option<I::Item> {
        self.iter.min_by_key(f)
    }

    pub fn any<F: FnMut(I::Item) -> bool>(self, f: F) -> bool {
        let mut iter = self.iter;
        let mut f = f;
        iter.any(&mut f)
    }

    pub fn all<F: FnMut(I::Item) -> bool>(self, f: F) -> bool {
        let mut iter = self.iter;
        let mut f = f;
        iter.all(&mut f)
    }

    pub fn find_any<F: FnMut(&I::Item) -> bool>(self, f: F) -> Option<I::Item> {
        let mut iter = self.iter;
        let mut f = f;
        iter.find(&mut f)
    }

    pub fn position_any<F: FnMut(I::Item) -> bool>(self, f: F) -> Option<usize> {
        let mut iter = self.iter;
        let mut f = f;
        iter.position(&mut f)
    }

    pub fn partition<A, B, F>(self, mut f: F) -> (A, B)
    where
        A: Default + Extend<I::Item>,
        B: Default + Extend<I::Item>,
        F: FnMut(&I::Item) -> bool,
    {
        let (mut a, mut b) = (A::default(), B::default());
        for x in self.iter {
            if f(&x) {
                a.extend(std::iter::once(x));
            } else {
                b.extend(std::iter::once(x));
            }
        }
        (a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_matches_sequential() {
        let v: Vec<i32> = (0..10).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(v, (0..10).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn fold_reduce_pipeline() {
        let total: i32 = vec![1, 2, 3, 4]
            .par_iter()
            .fold(|| 0, |acc, &x| acc + x)
            .reduce(|| 0, |a, b| a + b);
        assert_eq!(total, 10);
    }

    #[test]
    fn join_runs_both_sides() {
        let (a, b) = super::join(|| 1 + 1, || 2 + 2);
        assert_eq!((a, b), (2, 4));
    }

    #[test]
    fn scope_spawns_really_run() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = AtomicUsize::new(0);
        super::scope(|s| {
            for _ in 0..4 {
                let n = &n;
                s.spawn(move |_| {
                    n.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(n.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn install_publishes_thread_count() {
        let pool = super::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap();
        let inside = pool.install(super::current_num_threads);
        assert_eq!(inside, 3, "install must expose the pool's configured width");
        assert!(super::current_num_threads() >= 1, "restored after install");
    }

    #[test]
    fn machine_width_is_read_once_and_a_pool_still_overrides_it() {
        let machine = std::thread::available_parallelism().map_or(1, |p| p.get());
        assert_eq!(super::current_num_threads(), machine);
        assert_eq!(super::current_num_threads(), machine, "cached value");
        let pool = super::ThreadPoolBuilder::new()
            .num_threads(machine + 1)
            .build()
            .unwrap();
        assert_eq!(pool.install(super::current_num_threads), machine + 1);
        assert_eq!(super::current_num_threads(), machine, "restored");
    }

    #[test]
    fn scope_spawns_land_on_multiple_os_threads() {
        // The frontier engine in `snap-par` builds its per-level fork on
        // `scope` + per-worker spawns; this stress test pins down the
        // property that engine relies on: spawned workers are *distinct
        // OS threads*, not deferred closures on the caller. Each worker
        // sleeps so the scheduler interleaves them even on one core.
        use std::collections::HashSet;
        use std::sync::Mutex;
        let ids = Mutex::new(HashSet::new());
        let caller = std::thread::current().id();
        super::scope(|s| {
            for _ in 0..4 {
                let ids = &ids;
                s.spawn(move |_| {
                    ids.lock().unwrap().insert(std::thread::current().id());
                    std::thread::sleep(std::time::Duration::from_millis(2));
                });
            }
        });
        let ids = ids.lock().unwrap();
        assert_eq!(ids.len(), 4, "every spawn gets its own OS thread");
        assert!(!ids.contains(&caller), "spawns must not run on the caller");
    }

    #[test]
    fn par_chunks_cover_slices_disjointly() {
        // The BFS live path batches frontier vertices through par_chunks;
        // coverage must be exact and disjoint.
        let data: Vec<u32> = (0..1000).collect();
        let chunks: Vec<Vec<u32>> = data.par_chunks(64).map(|c| c.to_vec()).collect();
        assert_eq!(chunks.concat(), data);
        assert!(chunks[..chunks.len() - 1].iter().all(|c| c.len() == 64));
    }

    #[test]
    fn for_each_runs_on_real_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let ids = Mutex::new(HashSet::new());
        (0..64u32).into_par_iter().for_each(|_| {
            ids.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        // On any multi-core machine at least two distinct worker threads
        // must have participated.
        if super::current_num_threads() > 1 {
            assert!(
                ids.lock().unwrap().len() > 1,
                "for_each stayed single-threaded"
            );
        }
    }

    #[test]
    fn slice_ext_chunks_and_sort() {
        let data = [1u32, 2, 3, 4, 5];
        let sums: Vec<u32> = data.par_chunks(2).map(|c| c.iter().sum()).collect();
        assert_eq!(sums, vec![3, 7, 5]);
        let mut v = vec![3u32, 1, 2];
        v.par_sort_unstable_by_key(|&x| x);
        assert_eq!(v, vec![1, 2, 3]);
    }
}
