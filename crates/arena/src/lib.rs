//! Chunked, thread-safe slab allocation.
//!
//! The paper (Section 2.1.1) sidesteps per-resize `malloc` calls by grabbing
//! one large block up front and letting threads carve it thread-safely.
//! [`SlabPool`] is that allocator: fixed-size slabs, a lock-free reservation
//! fast path, and a mutex only on the cold slab-exhausted path. Allocations
//! are never freed individually — adjacency arrays that grow simply abandon
//! their old block, exactly as the paper's doubling scheme does — so the
//! pool also doubles as the bookkeeping needed to report memory-footprint
//! comparisons (e.g. treaps vs dynamic arrays).
//!
//! Concurrency design: a single `AtomicU64` cursor packs
//! `(slab index, offset within slab)`. A reservation is one CAS that bumps
//! the offset; because slab index and offset move together, a racing slab
//! switch can never hand two threads overlapping ranges (the failure mode of
//! the naive two-atomics design). Slab base pointers are published into a
//! pre-sized table of `AtomicUsize` before the cursor ever points at them.
//!
//! Returned blocks are raw [`NonNull`] pointers valid for the pool's
//! lifetime. Callers (the adjacency representations) own the init/access
//! discipline; the pool guarantees blocks are disjoint and stable.

use parking_lot::Mutex;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Default slab capacity in slots (not bytes).
pub const DEFAULT_SLAB_SLOTS: usize = 1 << 20;

/// Maximum number of slabs a pool may grow to.
pub const MAX_SLABS: usize = 1 << 16;

const OFFSET_BITS: u32 = 40;
const OFFSET_MASK: u64 = (1 << OFFSET_BITS) - 1;

/// A slab: a stable, heap-allocated block of `T` slots.
struct Slab<T> {
    ptr: NonNull<T>,
    cap: usize,
}

// SAFETY: the slab is plain storage; access discipline lives with callers.
unsafe impl<T: Send> Send for Slab<T> {}
// SAFETY: as above — shared access is mediated by the pool's cursor
// protocol, never by &Slab methods (there are none).
unsafe impl<T: Send> Sync for Slab<T> {}

impl<T> Slab<T> {
    fn new(cap: usize) -> Self {
        // panics: a slab whose byte size overflows isize is a
        // misconfigured pool; allocator failure below is likewise
        // unrecoverable for an infallible bump allocator.
        let layout = std::alloc::Layout::array::<T>(cap).expect("slab layout overflow");
        // SAFETY: layout has nonzero size (cap >= 1 and T nonzero-sized are
        // enforced by the pool constructor).
        let raw = unsafe { std::alloc::alloc(layout) } as *mut T;
        // panics: covered by the note above — OOM aborts the build.
        let ptr = NonNull::new(raw).expect("slab allocation failed");
        Self { ptr, cap }
    }
}

impl<T> Drop for Slab<T> {
    fn drop(&mut self) {
        // panics: unreachable — the identical layout was validated in
        // `new`, or the slab would not exist.
        let layout = std::alloc::Layout::array::<T>(self.cap).expect("slab layout overflow");
        // SAFETY: allocated with the identical layout in `new`. T: Copy is
        // required by the pool, so no element drops are owed.
        unsafe { std::alloc::dealloc(self.ptr.as_ptr() as *mut u8, layout) };
    }
}

/// A thread-safe bump allocator over fixed-size slabs of `T`.
///
/// `T: Copy` keeps drop semantics trivial: the pool frees slabs wholesale
/// and never runs element destructors.
pub struct SlabPool<T: Copy> {
    /// All slabs ever created; mutated only under `slabs`' own lock.
    slabs: Mutex<Vec<Slab<T>>>,
    /// Base address of slab `i`, published (Release) before the cursor can
    /// reference slab `i`. Pre-sized to `MAX_SLABS` so reads never lock.
    bases: Box<[AtomicUsize]>,
    /// Packed `(slab << OFFSET_BITS) | offset` reservation cursor.
    cursor: AtomicU64,
    /// Capacity of every slab.
    slab_slots: usize,
    /// Total slots handed out (for footprint reporting).
    allocated: AtomicUsize,
    /// Slots stranded at slab tails when an allocation did not fit.
    wasted: AtomicUsize,
}

impl<T: Copy> SlabPool<T> {
    /// Creates a pool with [`DEFAULT_SLAB_SLOTS`] slots per slab.
    pub fn new() -> Self {
        Self::with_slab_slots(DEFAULT_SLAB_SLOTS)
    }

    /// Creates a pool with `slab_slots` slots per slab.
    ///
    /// # Panics
    /// If `slab_slots == 0`, exceeds the packed-offset range, or `T` is
    /// zero-sized.
    pub fn with_slab_slots(slab_slots: usize) -> Self {
        assert!(slab_slots > 0, "slab capacity must be positive");
        assert!(
            (slab_slots as u64) < OFFSET_MASK,
            "slab capacity too large to pack"
        );
        assert!(
            std::mem::size_of::<T>() > 0,
            "zero-sized slot types are unsupported"
        );
        let first = Slab::new(slab_slots);
        let bases: Box<[AtomicUsize]> = (0..MAX_SLABS).map(|_| AtomicUsize::new(0)).collect();
        // ordering: Release — publishes slab 0's base before any cursor
        // value can reference it, pairing with alloc's Acquire base
        // load (invariant 1: publish-before-reference).
        bases[0].store(first.ptr.as_ptr() as usize, Ordering::Release);
        Self {
            slabs: Mutex::new(vec![first]),
            bases,
            cursor: AtomicU64::new(0),
            slab_slots,
            allocated: AtomicUsize::new(0),
            wasted: AtomicUsize::new(0),
        }
    }

    /// Allocates `len` contiguous uninitialized slots.
    ///
    /// Lock-free in the common case (one CAS); takes the growth lock only
    /// when the current slab cannot fit the request.
    ///
    /// # Panics
    /// If `len` exceeds the slab capacity (a single adjacency block larger
    /// than a slab indicates a misconfigured pool), `len == 0`, or the pool
    /// has grown past [`MAX_SLABS`].
    pub fn alloc(&self, len: usize) -> NonNull<T> {
        assert!(len > 0, "zero-length allocation");
        assert!(
            len <= self.slab_slots,
            "allocation of {len} slots exceeds slab capacity {}",
            self.slab_slots
        );
        loop {
            // ordering: Acquire — a cursor referencing slab i was
            // Release-stored after bases[i], so the base read below
            // sees a live slab (invariant 1).
            let cur = self.cursor.load(Ordering::Acquire);
            let slab = (cur >> OFFSET_BITS) as usize;
            let offset = (cur & OFFSET_MASK) as usize;
            if offset + len <= self.slab_slots {
                // Fast path: bump the offset, same slab.
                // ordering: AcqRel — the successful CAS claims
                // offset..offset+len exclusively (invariant 7); Relaxed
                // on failure, the loop re-reads with Acquire.
                if self
                    .cursor
                    .compare_exchange_weak(
                        cur,
                        cur + len as u64,
                        Ordering::AcqRel,
                        Ordering::Relaxed,
                    )
                    .is_ok()
                {
                    // ordering: Relaxed — footprint counter (invariant 9).
                    self.allocated.fetch_add(len, Ordering::Relaxed);
                    // ordering: Acquire — pairs with the Release base
                    // publication; see the cursor note above.
                    let base = self.bases[slab].load(Ordering::Acquire);
                    debug_assert_ne!(base, 0, "cursor referenced an unpublished slab");
                    // SAFETY: CAS granted us offset..offset+len of a live,
                    // published slab exclusively.
                    let p = unsafe { (base as *mut T).add(offset) };
                    // panics: unreachable — published bases come from
                    // NonNull slab pointers.
                    return NonNull::new(p).expect("slab base is non-null");
                }
                continue;
            }
            // Slow path: this slab cannot fit the request.
            let mut slabs = self.slabs.lock();
            // Re-check under the lock — another thread may have grown.
            // ordering: Acquire — same pairing as the loop-head load.
            let cur2 = self.cursor.load(Ordering::Acquire);
            if cur2 >> OFFSET_BITS != slab as u64 {
                continue;
            }
            let new_slab_idx = slab + 1;
            assert!(
                new_slab_idx < MAX_SLABS,
                "slab pool exceeded MAX_SLABS slabs"
            );
            // ordering: Relaxed — footprint counter (invariant 9).
            self.wasted.fetch_add(
                self.slab_slots - ((cur2 & OFFSET_MASK) as usize).min(self.slab_slots),
                Ordering::Relaxed,
            );
            let new = Slab::new(self.slab_slots);
            // ordering: Release — the base must be visible before any
            // cursor value referencing the new slab (invariant 1).
            self.bases[new_slab_idx].store(new.ptr.as_ptr() as usize, Ordering::Release);
            slabs.push(new);
            // Publish the switched cursor. A plain store is safe: fast-path
            // CAS'ers against the old value will fail their CAS (the packed
            // value changed) and re-read.
            // ordering: Release — pairs with the Acquire cursor loads so
            // the base store above happens-before any use of this value.
            self.cursor
                .store((new_slab_idx as u64) << OFFSET_BITS, Ordering::Release);
        }
    }

    /// Allocates `len` slots and fills them with `value`.
    pub fn alloc_fill(&self, len: usize, value: T) -> NonNull<T> {
        let p = self.alloc(len);
        // SAFETY: p addresses len freshly reserved, disjoint slots.
        unsafe {
            for i in 0..len {
                p.as_ptr().add(i).write(value);
            }
        }
        p
    }

    /// Total slots handed out so far.
    pub fn allocated_slots(&self) -> usize {
        // ordering: Relaxed — footprint counter (invariant 9).
        self.allocated.load(Ordering::Relaxed)
    }

    /// Slots stranded at slab tails.
    pub fn wasted_slots(&self) -> usize {
        // ordering: Relaxed — footprint counter (invariant 9).
        self.wasted.load(Ordering::Relaxed)
    }

    /// Number of slabs currently owned by the pool.
    pub fn slab_count(&self) -> usize {
        self.slabs.lock().len()
    }

    /// Total bytes reserved from the system allocator.
    pub fn reserved_bytes(&self) -> usize {
        self.slab_count() * self.slab_slots * std::mem::size_of::<T>()
    }
}

impl<T: Copy> Default for SlabPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: all shared mutation is via atomics or the mutex; handed-out blocks
// are disjoint.
unsafe impl<T: Copy + Send> Send for SlabPool<T> {}
// SAFETY: as above — &self allocation is the whole point of the pool.
unsafe impl<T: Copy + Send> Sync for SlabPool<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn sequential_allocations_are_disjoint_and_writable() {
        let pool: SlabPool<u64> = SlabPool::with_slab_slots(128);
        let mut blocks = Vec::new();
        for i in 0..50usize {
            let len = (i % 7) + 1;
            let p = pool.alloc_fill(len, i as u64);
            blocks.push((p, len, i as u64));
        }
        for (p, len, v) in &blocks {
            for k in 0..*len {
                // SAFETY: reading back a block this test allocated.
                let got = unsafe { *p.as_ptr().add(k) };
                assert_eq!(got, *v, "block payload clobbered");
            }
        }
    }

    #[test]
    fn growth_across_slabs() {
        let pool: SlabPool<u32> = SlabPool::with_slab_slots(16);
        for _ in 0..100 {
            pool.alloc_fill(5, 7);
        }
        assert!(pool.slab_count() > 1, "must have grown past one slab");
        assert_eq!(pool.allocated_slots(), 500);
        // 16/5 = 3 allocations per slab, 1 wasted slot per full slab.
        assert!(pool.wasted_slots() > 0);
    }

    #[test]
    #[should_panic(expected = "exceeds slab capacity")]
    fn oversized_allocation_panics() {
        let pool: SlabPool<u8> = SlabPool::with_slab_slots(8);
        pool.alloc(9);
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_length_allocation_panics() {
        let pool: SlabPool<u8> = SlabPool::with_slab_slots(8);
        pool.alloc(0);
    }

    #[test]
    fn exact_slab_fill_has_no_waste() {
        let pool: SlabPool<u32> = SlabPool::with_slab_slots(16);
        for _ in 0..8 {
            pool.alloc(8);
        }
        assert_eq!(pool.allocated_slots(), 64);
        assert_eq!(pool.wasted_slots(), 0, "exact fills must not strand slots");
        assert_eq!(pool.slab_count(), 4);
    }

    #[test]
    fn concurrent_allocations_do_not_overlap() {
        let pool: SlabPool<u64> = SlabPool::with_slab_slots(1 << 12);
        let n_tasks = 10_000usize;
        // Each task allocates a small block, stamps it with its id, then
        // verifies the stamp survived all other allocations.
        let ok: usize = (0..n_tasks)
            .into_par_iter()
            .map(|id| {
                let len = (id % 5) + 1;
                let p = pool.alloc_fill(len, id as u64);
                std::hint::black_box(&p);
                // SAFETY: reading back this task's own block.
                let intact = (0..len).all(|k| unsafe { *p.as_ptr().add(k) } == id as u64);
                usize::from(intact)
            })
            .sum();
        assert_eq!(
            ok, n_tasks,
            "some block was clobbered by a racing allocation"
        );
        let expected: usize = (0..n_tasks).map(|id| (id % 5) + 1).sum();
        assert_eq!(pool.allocated_slots(), expected);
    }

    #[test]
    fn concurrent_allocations_with_tiny_slabs_stress_growth() {
        // Tiny slabs force the slow path constantly, hammering the
        // cursor-switch logic the packed CAS exists to protect.
        let pool: SlabPool<u64> = SlabPool::with_slab_slots(8);
        let ok: usize = (0..5_000usize)
            .into_par_iter()
            .map(|id| {
                let len = (id % 3) + 1;
                let p = pool.alloc_fill(len, id as u64);
                // SAFETY: reading back this task's own block.
                let intact = (0..len).all(|k| unsafe { *p.as_ptr().add(k) } == id as u64);
                usize::from(intact)
            })
            .sum();
        assert_eq!(ok, 5_000);
    }

    #[test]
    fn reserved_bytes_accounts_slabs() {
        let pool: SlabPool<u64> = SlabPool::with_slab_slots(32);
        assert_eq!(pool.reserved_bytes(), 32 * 8);
        for _ in 0..10 {
            pool.alloc(32);
        }
        assert_eq!(pool.reserved_bytes(), pool.slab_count() * 32 * 8);
        assert!(pool.slab_count() >= 10);
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;

    /// Tiny deterministic xorshift (local copy: this crate sits below
    /// snap-util in the dependency graph, and no external
    /// property-testing crate is reachable in this build environment).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        fn bounded(&mut self, bound: u64) -> u64 {
            self.next() % bound.max(1)
        }
    }

    /// Any sequence of allocation sizes yields non-overlapping, stable
    /// blocks whose contents survive all later allocations.
    #[test]
    fn random_allocation_sequences_are_disjoint() {
        for case in 0..32u64 {
            let mut rng = Rng(0xA1_10C0 ^ (case + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let slab_slots = rng.bounded(448) as usize + 64;
            let count = rng.bounded(199) as usize + 1;
            let sizes: Vec<usize> = (0..count).map(|_| rng.bounded(63) as usize + 1).collect();
            let pool: SlabPool<u64> = SlabPool::with_slab_slots(slab_slots);
            let blocks: Vec<(NonNull<u64>, usize, u64)> = sizes
                .iter()
                .enumerate()
                .map(|(i, &len)| {
                    let stamp = i as u64 + 1;
                    (pool.alloc_fill(len, stamp), len, stamp)
                })
                .collect();
            for (p, len, stamp) in &blocks {
                for k in 0..*len {
                    // SAFETY: reading back a block this case allocated.
                    let got = unsafe { *p.as_ptr().add(k) };
                    assert_eq!(got, *stamp, "case {case}: block stamped {stamp} corrupted");
                }
            }
            let total: usize = sizes.iter().sum();
            assert_eq!(pool.allocated_slots(), total, "case {case}");
            // Waste can never exceed one slab tail per allocated slab.
            assert!(
                pool.wasted_slots() < pool.slab_count() * slab_slots,
                "case {case}"
            );
        }
    }

    /// Address ranges of all live blocks are pairwise disjoint.
    #[test]
    fn address_ranges_never_overlap() {
        for case in 0..32u64 {
            let mut rng = Rng(0xD15_0177 ^ (case + 1).wrapping_mul(0x2545_F491_4F6C_DD1D));
            let count = rng.bounded(98) as usize + 2;
            let sizes: Vec<usize> = (0..count).map(|_| rng.bounded(31) as usize + 1).collect();
            let pool: SlabPool<u32> = SlabPool::with_slab_slots(128);
            let mut ranges: Vec<(usize, usize)> = Vec::new();
            for &len in &sizes {
                let p = pool.alloc(len).as_ptr() as usize;
                ranges.push((p, p + len * 4));
            }
            ranges.sort_unstable();
            for w in ranges.windows(2) {
                assert!(
                    w[0].1 <= w[1].0,
                    "case {case}: overlapping blocks {:?} {:?}",
                    w[0],
                    w[1]
                );
            }
        }
    }
}
