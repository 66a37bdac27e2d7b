//! The dynamic adjacency abstraction shared by all representations.

use std::mem::MaybeUninit;

/// Reserved neighbor id marking a tombstoned (deleted) slot in array
/// representations. Real vertex ids must stay below this value.
pub const TOMBSTONE: u32 = u32::MAX;

/// One adjacency tuple: the neighbor and the edge's time label λ(e).
///
/// The paper's edges also carry a positive integer weight; unweighted
/// graphs use w(e) = 1, and none of the evaluated kernels need more, so the
/// slot stays two words for cache density.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AdjEntry {
    /// Neighbor vertex id (never [`TOMBSTONE`]).
    pub nbr: u32,
    /// Edge time label λ(e).
    pub ts: u32,
}

impl AdjEntry {
    /// Creates an adjacency entry.
    ///
    /// # Panics
    ///
    /// If `nbr == `[`TOMBSTONE`]. This is a hard invariant, enforced in
    /// release builds too: the array representations mark deleted slots
    /// by writing [`TOMBSTONE`] into the neighbor word, so an entry
    /// carrying that id would be silently skipped by every traversal and
    /// corrupt live-entry counts. Rejecting it at construction keeps the
    /// corruption impossible rather than merely unlikely.
    pub fn new(nbr: u32, ts: u32) -> Self {
        assert_ne!(nbr, TOMBSTONE, "vertex id collides with tombstone sentinel");
        Self { nbr, ts }
    }
}

/// One directed half-update of a batch: `src`'s adjacency gains or loses
/// the neighbor `nbr`. An undirected update is two of them. The one
/// currency between the batch appliers ([`crate::engine`]) and
/// [`DynamicAdjacency::apply_group`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HalfUpdate {
    /// The vertex whose adjacency changes.
    pub src: u32,
    /// The neighbor inserted or deleted.
    pub nbr: u32,
    /// Time label an insert stores (unused by a delete).
    pub ts: u32,
    /// `index << 1 | is_delete`: ascending in batch order.
    tag: u32,
}

impl HalfUpdate {
    /// Batch positions a half-update can carry (the tag's other bit is
    /// the kind).
    pub const MAX_INDEX: usize = 1 << 31;

    /// `src` gains `e`; `index` is the update's position in its batch.
    ///
    /// # Panics
    ///
    /// If `index >= `[`Self::MAX_INDEX`].
    pub fn insert(src: u32, e: AdjEntry, index: usize) -> Self {
        Self::new(src, e.nbr, e.ts, index, false)
    }

    /// `src` loses every entry for `nbr`; `index` as in [`Self::insert`].
    ///
    /// # Panics
    ///
    /// If `index >= `[`Self::MAX_INDEX`].
    pub fn delete(src: u32, nbr: u32, index: usize) -> Self {
        Self::new(src, nbr, 0, index, true)
    }

    pub(crate) fn new(src: u32, nbr: u32, ts: u32, index: usize, is_delete: bool) -> Self {
        assert!(index < Self::MAX_INDEX, "batch position {index} over 2^31");
        Self {
            src,
            nbr,
            ts,
            tag: (index as u32) << 1 | u32::from(is_delete),
        }
    }

    /// True for a delete, false for an insert.
    pub fn is_delete(&self) -> bool {
        self.tag & 1 == 1
    }

    /// The update's position in its batch.
    pub fn index(&self) -> usize {
        (self.tag >> 1) as usize
    }

    /// Applies this half-update alone; true if it changed the adjacency.
    pub fn apply_to<A: DynamicAdjacency + ?Sized>(&self, adj: &A) -> bool {
        if self.is_delete() {
            adj.delete(self.src, self.nbr)
        } else {
            adj.insert(self.src, AdjEntry::new(self.nbr, self.ts))
        }
    }
}

impl snap_treap::GroupOp for HalfUpdate {
    fn key(&self) -> u32 {
        self.nbr
    }
    fn val(&self) -> u32 {
        self.ts
    }
    fn is_delete(&self) -> bool {
        HalfUpdate::is_delete(self)
    }
    fn seq(&self) -> u32 {
        self.tag
    }
}

/// Sizing knobs shared by the representations.
#[derive(Clone, Copy, Debug)]
pub struct CapacityHints {
    /// Expected total edge count (directed slot count); drives the initial
    /// per-vertex capacity `k * m / n` from Section 2.1.1.
    pub expected_edges: usize,
    /// The paper's `k`: initial capacity multiplier over the mean degree.
    /// `k = 2` "performs reasonably well" on R-MAT instances.
    pub initial_capacity_factor: usize,
    /// Degree threshold at which the hybrid representation switches a
    /// vertex from array to treap. The paper settles on 32. The default,
    /// 1024, is the crossover `experiments ablation_degree_thresh`
    /// measures on a current x86 host: below it an array's sequential
    /// scan beats an `O(log d)` descent through cold treap nodes (see
    /// [`crate::hybrid`]).
    pub degree_thresh: u32,
    /// Slot capacity of each slab in the backing pool.
    pub pool_slab_slots: usize,
}

impl CapacityHints {
    /// Defaults for an instance expected to reach `expected_edges`
    /// directed adjacency slots: the paper's `k = 2` and the measured
    /// hybrid threshold (see [`Self::degree_thresh`]).
    pub fn new(expected_edges: usize) -> Self {
        Self {
            expected_edges,
            initial_capacity_factor: 2,
            degree_thresh: 1024,
            pool_slab_slots: snap_arena::DEFAULT_SLAB_SLOTS,
        }
    }

    /// Initial per-vertex capacity for `n` vertices: `max(4, k*m/n)`,
    /// rounded up.
    pub fn initial_capacity(&self, n: usize) -> u32 {
        let mean = self.expected_edges.div_ceil(n.max(1));
        (self.initial_capacity_factor * mean).max(4) as u32
    }

    /// Overrides the hybrid array-to-treap promotion threshold
    /// (clamped to at least 1).
    pub fn with_degree_thresh(mut self, t: u32) -> Self {
        self.degree_thresh = t.max(1);
        self
    }

    /// Overrides the paper's `k`, the initial-capacity multiplier over
    /// the mean degree.
    pub fn with_initial_capacity_factor(mut self, k: usize) -> Self {
        self.initial_capacity_factor = k;
        self
    }
}

impl Default for CapacityHints {
    fn default() -> Self {
        Self::new(0)
    }
}

/// A dynamic adjacency structure: per-vertex neighbor sets under concurrent
/// structural updates.
///
/// All methods take `&self`; implementations provide their own per-vertex
/// synchronization (spinlocks, mutexes, or atomic slot reservation).
pub trait DynamicAdjacency: Send + Sync {
    /// Creates a structure for vertices `0..n`.
    fn new(n: usize, hints: &CapacityHints) -> Self
    where
        Self: Sized;

    /// Number of vertices.
    fn num_vertices(&self) -> usize;

    /// Appends/inserts `e` into `u`'s adjacency. Array representations
    /// append blindly (the paper's constant-time insertion does no
    /// membership check and may store duplicates); tree representations
    /// dedup on the neighbor key. Returns `true` if a new entry was stored.
    fn insert(&self, u: u32, e: AdjEntry) -> bool;

    /// Deletes **every** live occurrence of neighbor `v` from `u`'s
    /// adjacency. Returns `true` if at least one entry was removed.
    ///
    /// Removing the whole key (rather than one occurrence) is what keeps
    /// undirected graphs symmetric: blind array insertion may store
    /// duplicates while tree representations dedup on the key, so the
    /// two endpoints of one logical edge can drift in multiplicity. A
    /// per-occurrence delete could then drop the last copy on one side
    /// but not the other, leaving a half-edge that traversals see in
    /// only one direction. Key-granular deletion makes membership agree
    /// on both sides after any update sequence.
    fn delete(&self, u: u32, v: u32) -> bool;

    /// True if `u`'s adjacency currently holds `v`.
    fn contains(&self, u: u32, v: u32) -> bool;

    /// Number of live (non-deleted) entries in `u`'s adjacency.
    fn degree(&self, u: u32) -> usize;

    /// Invokes `f` on every live entry of `u`'s adjacency.
    fn for_each(&self, u: u32, f: &mut dyn FnMut(AdjEntry));

    /// Removes every live entry of `u` for which `keep` returns `false`,
    /// returning the number removed. Unlike repeated [`Self::delete`]
    /// calls, this discriminates entries with equal neighbors but
    /// different timestamps (needed by the in-place induced-subgraph
    /// kernel).
    fn retain(&self, u: u32, keep: &mut dyn FnMut(AdjEntry) -> bool) -> usize;

    /// Applies `ops` — half-updates of the one source `u`, in batch
    /// order — with the outcome of [`Self::insert`] / [`Self::delete`]
    /// one by one, calling `on_changed` with the [`HalfUpdate::index`] of
    /// each one that changed the adjacency. The slice may be reordered.
    ///
    /// This default *is* the one-by-one loop. Representations whose
    /// per-op cost is a lock plus a tree descent override it to take the
    /// vertex's lock once and, for a group that is large against the
    /// vertex's degree, merge instead of descending.
    fn apply_group(&self, u: u32, ops: &mut [HalfUpdate], on_changed: &mut dyn FnMut(usize)) {
        for h in ops.iter() {
            debug_assert_eq!(h.src, u);
            if h.apply_to(self) {
                on_changed(h.index());
            }
        }
    }

    /// Writes `u`'s live entries, in [`Self::for_each`] order, into
    /// `nbrs` and `ts` (neighbors and timestamps, two slices of one
    /// length) when the row holds exactly that many; returns false, with
    /// nothing written beyond the slices, when it does not. What a CSR
    /// build reads a row with: this default is the [`Self::for_each`]
    /// loop, and representations that can check the length first and
    /// copy without a call per entry override it.
    fn write_row(
        &self,
        u: u32,
        nbrs: &mut [MaybeUninit<u32>],
        ts: &mut [MaybeUninit<u32>],
    ) -> bool {
        let (mut cursor, mut fits) = (0, true);
        self.for_each(u, &mut |e| {
            // A row longer than the slices (say, a writer raced the
            // caller's degree read) drops its surplus rather than write
            // past them.
            if cursor == nbrs.len() {
                fits = false;
                return;
            }
            nbrs[cursor].write(e.nbr);
            ts[cursor].write(e.ts);
            cursor += 1;
        });
        fits && cursor == nbrs.len()
    }

    /// `u`'s length when its row is *keyed* now: sorted by neighbor, one
    /// entry per neighbor, an insert setting its key's timestamp and a
    /// delete removing the key (a tree row). `None` for any other row,
    /// as this default says of every row. A keyed row equals its last
    /// strictly ascending version with the half-updates since applied
    /// key by key, the last op on a key winning, whatever its form was
    /// in between (array pushes and key-granular deletes, promoted with
    /// the last pair of a key winning, compose the same way) — which is
    /// what lets a delta merge it rather than read it.
    fn keyed_len(&self, _u: u32) -> Option<usize> {
        None
    }

    /// Collects `u`'s live entries (convenience over [`Self::for_each`]).
    fn neighbors(&self, u: u32) -> Vec<AdjEntry> {
        let mut out = Vec::with_capacity(self.degree(u));
        self.for_each(u, &mut |e| out.push(e));
        out
    }

    /// Total live entries across all vertices (O(n) unless overridden).
    fn total_entries(&self) -> usize {
        (0..self.num_vertices() as u32)
            .map(|u| self.degree(u))
            .sum()
    }

    /// Approximate resident bytes, for the paper's footprint comparisons.
    fn memory_bytes(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_capacity_follows_k_m_over_n() {
        let h = CapacityHints::new(1000).with_initial_capacity_factor(2);
        // mean degree 10 for n=100 -> capacity 20
        assert_eq!(h.initial_capacity(100), 20);
    }

    #[test]
    fn initial_capacity_has_floor() {
        let h = CapacityHints::new(0);
        assert_eq!(h.initial_capacity(100), 4);
        let h2 = CapacityHints::new(10); // mean degree < 1
        assert_eq!(h2.initial_capacity(1000), 4);
    }

    #[test]
    fn degree_thresh_never_zero() {
        let h = CapacityHints::new(0).with_degree_thresh(0);
        assert_eq!(h.degree_thresh, 1);
    }

    #[test]
    fn adj_entry_construction() {
        let e = AdjEntry::new(5, 17);
        assert_eq!(e.nbr, 5);
        assert_eq!(e.ts, 17);
    }

    #[test]
    #[should_panic(expected = "collides with tombstone sentinel")]
    fn adj_entry_rejects_tombstone_id_in_release_builds_too() {
        // assert_ne!, not debug_assert_ne!: this must fire under
        // --release as well (the test suite runs in both profiles).
        let _ = AdjEntry::new(TOMBSTONE, 0);
    }

    #[test]
    fn max_real_vertex_id_is_accepted() {
        let e = AdjEntry::new(TOMBSTONE - 1, 3);
        assert_eq!(e.nbr, u32::MAX - 1);
    }
}
