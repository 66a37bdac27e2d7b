//! `Hybrid-arr-treap` (Section 2.1.5): the paper's headline representation.
//!
//! Low-degree vertices — the overwhelming majority under a power-law
//! distribution — keep a plain contiguous array: constant-time insertion
//! and cheap scans. Once a vertex's degree crosses `degree-thresh`, its
//! adjacency converts to a treap, making deletions on the few
//! high-degree vertices logarithmic instead of linear. The result is
//! `Dyn-arr`-class insertion speed with `Treaps`-class deletion speed
//! (Figures 4–6).
//!
//! The paper uses 32; the default ([`CapacityHints::new`]) is 1024. At
//! R-MAT's `m = 8n` three quarters of all entries sit past degree 32, so
//! at the paper's value the hybrid behaves like a treap: every insert
//! and delete descends through cold treap nodes. On a current x86 host a
//! sequential scan of a `d × 8 B` array beats that descent up to
//! `d ≈ 1024`; past it, each array delete's scan costs more than the
//! treap's `O(log d)`. `experiments ablation_degree_thresh` prices both
//! sides (serial figs 4–6 rates, one serving cycle's apply, bulk
//! construct + delete, bytes per edge) and marks the default's row.
//!
//! Hysteresis: a treap vertex whose degree falls below `degree_thresh / 4`
//! converts back to an array, so a vertex oscillating around the threshold
//! does not thrash representations.
//!
//! A batch's group ([`DynamicAdjacency::apply_group`]) takes the vertex's
//! lock once. An array deletes by `retain`, so `k` deletes one by one scan
//! a `d`-entry array `k` times. A group that deletes twice or more and
//! cannot promote the array scans it once instead: one `retain` against
//! the group's sorted delete keys, then each op's verdict in stream
//! order, then the inserts no later delete takes. Every other array group
//! runs one by one; a treap's group merges or descends per key
//! ([`Treap::apply_group`]).

use crate::adjacency::{AdjEntry, CapacityHints, DynamicAdjacency, HalfUpdate};
use parking_lot::Mutex;
use snap_treap::Treap;
use std::mem::MaybeUninit;

/// One vertex's adjacency: array while small, treap once hot.
enum Repr {
    Arr(Vec<AdjEntry>),
    Treap(Treap),
}

/// The hybrid array/treap representation.
pub struct HybridAdj {
    adj: Vec<Mutex<Repr>>,
    degree_thresh: u32,
    /// Convert treap back to array below this degree.
    shrink_thresh: u32,
}

impl HybridAdj {
    /// The configured promotion threshold.
    pub fn degree_thresh(&self) -> u32 {
        self.degree_thresh
    }

    /// True if vertex `u` is currently treap-represented (test/metrics
    /// introspection).
    pub fn is_treap(&self, u: u32) -> bool {
        matches!(&*self.adj[u as usize].lock(), Repr::Treap(_))
    }

    /// Number of vertices currently in treap form.
    pub fn treap_vertex_count(&self) -> usize {
        self.adj
            .iter()
            .filter(|m| matches!(&*m.lock(), Repr::Treap(_)))
            .count()
    }

    /// Verifies `u`'s representation invariants (test support): an array
    /// is shorter than the promotion threshold, a treap is a valid one.
    pub fn check_invariants(&self, u: u32) -> Result<(), String> {
        match &*self.adj[u as usize].lock() {
            Repr::Arr(arr) if arr.len() as u32 >= self.degree_thresh => Err(format!(
                "vertex {u}: array of {} at threshold {}",
                arr.len(),
                self.degree_thresh
            )),
            Repr::Arr(_) => Ok(()),
            Repr::Treap(t) => t.check_invariants(),
        }
    }

    fn treap_seed(u: u32) -> u64 {
        0x42b1d ^ (u as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Converts an array to a treap, deduplicating on the neighbor key
    /// (later stream positions win, matching treap insert-overwrite
    /// semantics). Sort + dedup + O(n) bulk build beats n log n
    /// re-insertion on the promotion path, which power-law hubs hit often.
    fn promote(u: u32, arr: &[AdjEntry]) -> Treap {
        Treap::from_unsorted(arr.iter().map(|e| (e.nbr, e.ts)), Self::treap_seed(u))
    }

    /// Converts a treap back to an array.
    fn demote(t: &Treap) -> Vec<AdjEntry> {
        let mut arr = Vec::with_capacity(t.len());
        t.for_each(|nbr, ts| arr.push(AdjEntry { nbr, ts }));
        arr
    }

    /// [`DynamicAdjacency::insert`] on a locked cell.
    fn insert_locked(&self, u: u32, cell: &mut Repr, e: AdjEntry) -> bool {
        match cell {
            Repr::Arr(arr) => {
                arr.push(e);
                if arr.len() as u32 >= self.degree_thresh {
                    *cell = Repr::Treap(Self::promote(u, arr));
                }
                true
            }
            Repr::Treap(t) => t.insert(e.nbr, e.ts),
        }
    }

    /// One half-update on a locked cell.
    fn apply_locked(&self, u: u32, cell: &mut Repr, h: &HalfUpdate) -> bool {
        if h.is_delete() {
            self.delete_locked(cell, h.nbr)
        } else {
            self.insert_locked(u, cell, AdjEntry::new(h.nbr, h.ts))
        }
    }

    /// A group on an array it cannot promote, in one pass over the array
    /// rather than one per delete: the array drops every key the group
    /// deletes, then the ops walk in stream order — an insert changes the
    /// array and is appended unless its key is deleted later in the
    /// group; a delete changes it when its key is there at that point
    /// (stored before the group and not yet deleted, or inserted since).
    /// The array ends as the one-by-one loop leaves it, entry for entry.
    fn apply_array_group(
        arr: &mut Vec<AdjEntry>,
        ops: &[HalfUpdate],
        on_changed: &mut dyn FnMut(usize),
    ) {
        // Each deleted key once, sorted: the group position of its last
        // delete, and whether the array holds it at the walk's point.
        let mut doomed: Vec<(u32, usize, bool)> = ops
            .iter()
            .enumerate()
            .filter(|(_, h)| h.is_delete())
            .map(|(i, h)| (h.nbr, i, false))
            .collect();
        doomed.sort_unstable();
        doomed.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 = later.1;
            }
            same
        });
        arr.retain(|e| match doomed.binary_search_by_key(&e.nbr, |d| d.0) {
            Ok(j) => {
                doomed[j].2 = true;
                false
            }
            Err(_) => true,
        });
        for (i, h) in ops.iter().enumerate() {
            let slot = doomed.binary_search_by_key(&h.nbr, |d| d.0);
            if h.is_delete() {
                // panics: unreachable — every delete's key is in `doomed`.
                let held = &mut doomed[slot.expect("a deleted key")].2;
                if std::mem::take(held) {
                    on_changed(h.index());
                }
            } else {
                on_changed(h.index());
                match slot {
                    Ok(j) if i < doomed[j].1 => doomed[j].2 = true,
                    _ => arr.push(AdjEntry::new(h.nbr, h.ts)),
                }
            }
        }
    }

    /// [`DynamicAdjacency::delete`] on a locked cell.
    fn delete_locked(&self, cell: &mut Repr, v: u32) -> bool {
        match cell {
            Repr::Arr(arr) => {
                // Low degree: a scan is cheap; retain keeps it compact (no
                // tombstones below the threshold) and key-granular — blind
                // insertion may have appended duplicates that must all go.
                let before = arr.len();
                arr.retain(|e| e.nbr != v);
                arr.len() != before
            }
            Repr::Treap(t) => {
                let removed = t.delete(v).is_some();
                if removed && (t.len() as u32) < self.shrink_thresh {
                    *cell = Repr::Arr(Self::demote(t));
                }
                removed
            }
        }
    }
}

impl DynamicAdjacency for HybridAdj {
    fn new(n: usize, hints: &CapacityHints) -> Self {
        let adj = (0..n).map(|_| Mutex::new(Repr::Arr(Vec::new()))).collect();
        Self {
            adj,
            degree_thresh: hints.degree_thresh,
            shrink_thresh: (hints.degree_thresh / 4).max(1),
        }
    }

    fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    fn insert(&self, u: u32, e: AdjEntry) -> bool {
        self.insert_locked(u, &mut self.adj[u as usize].lock(), e)
    }

    fn delete(&self, u: u32, v: u32) -> bool {
        self.delete_locked(&mut self.adj[u as usize].lock(), v)
    }

    /// One lock acquisition for the group. An array group that cannot
    /// promote `u` (its inserts stay below `degree_thresh`) and deletes
    /// at least twice runs in one pass over the array (see the
    /// [module docs](self)). Any other array group runs one by
    /// one (it promotes within `degree_thresh` pushes); what is left once
    /// `u` is a treap goes to [`Treap::apply_group`] whole — a merge and
    /// one rebuild when the group is large against the degree — unless a
    /// delete in it could demote `u` mid-group, which only the one-by-one
    /// loop replays faithfully.
    fn apply_group(&self, u: u32, ops: &mut [HalfUpdate], on_changed: &mut dyn FnMut(usize)) {
        let cell = &mut *self.adj[u as usize].lock();
        let mut done = 0;
        if let Repr::Arr(arr) = cell {
            // Room for what the group appends before a promotion; a
            // group that dominates the array leaves it at exact capacity.
            let room = (self.degree_thresh as usize).saturating_sub(arr.len());
            let inserts = ops.iter().filter(|h| !h.is_delete()).count();
            if inserts.min(room) > arr.capacity() - arr.len() {
                arr.reserve_exact(inserts.min(room).max(arr.len()));
            }
            if inserts < room && ops.len() - inserts >= 2 {
                return Self::apply_array_group(arr, ops, on_changed);
            }
        }
        while let (Repr::Arr(_), Some(h)) = (&*cell, ops.get(done)) {
            done += 1;
            if self.apply_locked(u, cell, h) {
                on_changed(h.index());
            }
        }
        let rest = &mut ops[done..];
        if let Repr::Treap(t) = cell {
            let deletes = rest.iter().filter(|h| h.is_delete()).count();
            if deletes == 0 || t.len() >= deletes + self.shrink_thresh as usize {
                return t.apply_group(rest, |h| on_changed(h.index()));
            }
        }
        for h in rest.iter() {
            if self.apply_locked(u, cell, h) {
                on_changed(h.index());
            }
        }
    }

    fn contains(&self, u: u32, v: u32) -> bool {
        let cell = self.adj[u as usize].lock();
        match &*cell {
            Repr::Arr(arr) => arr.iter().any(|e| e.nbr == v),
            Repr::Treap(t) => t.contains(v),
        }
    }

    fn degree(&self, u: u32) -> usize {
        let cell = self.adj[u as usize].lock();
        match &*cell {
            Repr::Arr(arr) => arr.len(),
            Repr::Treap(t) => t.len(),
        }
    }

    /// A treap row is keyed; an array row is not.
    fn keyed_len(&self, u: u32) -> Option<usize> {
        match &*self.adj[u as usize].lock() {
            Repr::Arr(_) => None,
            Repr::Treap(t) => Some(t.len()),
        }
    }

    fn for_each(&self, u: u32, f: &mut dyn FnMut(AdjEntry)) {
        let cell = self.adj[u as usize].lock();
        match &*cell {
            Repr::Arr(arr) => {
                for e in arr {
                    f(*e);
                }
            }
            Repr::Treap(t) => t.for_each(|nbr, ts| f(AdjEntry { nbr, ts })),
        }
    }

    fn write_row(
        &self,
        u: u32,
        nbrs: &mut [MaybeUninit<u32>],
        ts: &mut [MaybeUninit<u32>],
    ) -> bool {
        let cell = self.adj[u as usize].lock();
        match &*cell {
            Repr::Arr(arr) if arr.len() == nbrs.len() => {
                for ((e, nbr), t) in arr.iter().zip(nbrs).zip(ts) {
                    nbr.write(e.nbr);
                    t.write(e.ts);
                }
                true
            }
            Repr::Treap(t) if t.len() == nbrs.len() => {
                let mut slots = nbrs.iter_mut().zip(ts);
                t.for_each(|nbr, ts| {
                    // The lengths match, so there is a slot per entry.
                    if let Some((a, b)) = slots.next() {
                        a.write(nbr);
                        b.write(ts);
                    }
                });
                true
            }
            _ => false,
        }
    }

    fn retain(&self, u: u32, keep: &mut dyn FnMut(AdjEntry) -> bool) -> usize {
        let mut cell = self.adj[u as usize].lock();
        match &mut *cell {
            Repr::Arr(arr) => {
                let before = arr.len();
                arr.retain(|e| keep(*e));
                before - arr.len()
            }
            Repr::Treap(t) => {
                let mut doomed = Vec::new();
                t.for_each(|nbr, ts| {
                    if !keep(AdjEntry { nbr, ts }) {
                        doomed.push(nbr);
                    }
                });
                for k in &doomed {
                    t.delete(*k);
                }
                if (t.len() as u32) < self.shrink_thresh {
                    *cell = Repr::Arr(Self::demote(t));
                }
                doomed.len()
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        self.adj.len() * std::mem::size_of::<Mutex<Repr>>()
            + self
                .adj
                .iter()
                .map(|m| match &*m.lock() {
                    Repr::Arr(a) => a.capacity() * std::mem::size_of::<AdjEntry>(),
                    Repr::Treap(t) => t.reserved_bytes(),
                })
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    fn hints() -> CapacityHints {
        CapacityHints::new(0).with_degree_thresh(32)
    }

    #[test]
    fn stays_array_below_threshold() {
        let a = HybridAdj::new(2, &hints());
        for k in 0..31u32 {
            a.insert(0, AdjEntry::new(k, k));
        }
        assert!(!a.is_treap(0));
        assert_eq!(a.degree(0), 31);
    }

    #[test]
    fn write_row_copies_a_row_of_the_given_length_and_only_that() {
        let a = HybridAdj::new(2, &hints());
        for k in (0..40u32).rev() {
            a.insert(u32::from(k < 8), AdjEntry::new(k, 100 + k));
        }
        // Vertex 0 became a treap, vertex 1 stays an array.
        assert!(a.is_treap(0) && !a.is_treap(1));
        let csr = crate::CsrGraph::from_dynamic(&a, true);
        for u in 0..2 {
            let want = a.neighbors(u);
            for len in [want.len() - 1, want.len() + 1] {
                let mut nbrs = vec![MaybeUninit::new(7); len];
                let mut ts = vec![MaybeUninit::new(7); len];
                assert!(
                    !a.write_row(u, &mut nbrs, &mut ts),
                    "vertex {u}, {len} slots"
                );
            }
            // The CSR build reads rows with `write_row`.
            let got: Vec<AdjEntry> = csr
                .neighbors(u)
                .iter()
                .zip(csr.timestamps(u))
                .map(|(&nbr, &ts)| AdjEntry::new(nbr, ts))
                .collect();
            assert_eq!(got, want, "vertex {u}");
        }
    }

    #[test]
    fn promotes_at_threshold() {
        let a = HybridAdj::new(2, &hints());
        for k in 0..32u32 {
            a.insert(0, AdjEntry::new(k, k));
        }
        assert!(a.is_treap(0));
        assert_eq!(a.degree(0), 32);
        for k in 0..32u32 {
            assert!(a.contains(0, k), "neighbor {k} lost across promotion");
        }
        assert!(!a.is_treap(1), "other vertices unaffected");
    }

    #[test]
    fn promotion_dedups_duplicates() {
        let a = HybridAdj::new(1, &hints());
        // 16 distinct neighbors inserted twice: array holds 32 slots, treap
        // collapses to 16 keys.
        for pass in 0..2 {
            for k in 0..16u32 {
                a.insert(0, AdjEntry::new(k, pass));
            }
        }
        assert!(a.is_treap(0));
        assert_eq!(a.degree(0), 16);
    }

    #[test]
    fn demotes_with_hysteresis() {
        let a = HybridAdj::new(1, &hints());
        for k in 0..40u32 {
            a.insert(0, AdjEntry::new(k, k));
        }
        assert!(a.is_treap(0));
        // Deleting down to >= shrink threshold (8) keeps the treap...
        for k in 0..31u32 {
            assert!(a.delete(0, k));
        }
        assert!(a.is_treap(0), "degree 9 >= 8: still treap");
        // ...one more crosses below and demotes.
        assert!(a.delete(0, 31));
        assert!(a.delete(0, 32));
        assert!(!a.is_treap(0));
        assert_eq!(a.degree(0), 7);
        for k in 33..40u32 {
            assert!(a.contains(0, k), "neighbor {k} lost across demotion");
        }
    }

    #[test]
    fn delete_in_array_form() {
        let a = HybridAdj::new(1, &hints());
        a.insert(0, AdjEntry::new(1, 0));
        a.insert(0, AdjEntry::new(2, 0));
        assert!(a.delete(0, 1));
        assert!(!a.delete(0, 1));
        assert_eq!(a.degree(0), 1);
        assert!(a.contains(0, 2));
    }

    #[test]
    fn concurrent_power_law_like_storm() {
        // One hot vertex receives most inserts (promotes), the rest stay
        // cold arrays — the exact scenario the hybrid targets.
        let a = HybridAdj::new(64, &hints());
        (0..20_000u32).into_par_iter().for_each(|i| {
            if i % 2 == 0 {
                a.insert(0, AdjEntry::new(i, 0)); // hot vertex
            } else {
                a.insert(1 + (i % 63), AdjEntry::new(i, 0));
            }
        });
        assert!(a.is_treap(0));
        assert_eq!(a.degree(0), 10_000);
        assert!(a.treap_vertex_count() >= 1);
        let total = a.total_entries();
        assert_eq!(total, 20_000);
    }

    #[test]
    fn default_threshold_promotes_at_it_and_demotes_below_a_quarter() {
        let hints = CapacityHints::new(0);
        let thresh = hints.degree_thresh;
        assert!(thresh >= 4, "a quarter of the default is a degree");
        let a = HybridAdj::new(1, &hints);
        for k in 0..thresh - 1 {
            a.insert(0, AdjEntry::new(k, k));
        }
        assert!(!a.is_treap(0), "an array at thresh - 1");
        a.insert(0, AdjEntry::new(thresh - 1, 0));
        assert!(a.is_treap(0), "a treap at thresh");
        // Down to thresh / 4 keys it stays a treap; one fewer demotes.
        let keep = thresh / 4;
        for k in 0..thresh - keep {
            assert!(a.delete(0, k));
        }
        assert!(a.is_treap(0), "a treap at thresh / 4");
        assert!(a.delete(0, thresh - keep));
        assert!(!a.is_treap(0), "an array below thresh / 4");
        assert_eq!(a.degree(0), keep as usize - 1);
    }

    #[test]
    fn threshold_of_one_promotes_immediately() {
        let a = HybridAdj::new(1, &CapacityHints::new(0).with_degree_thresh(1));
        a.insert(0, AdjEntry::new(5, 0));
        assert!(a.is_treap(0));
    }

    #[test]
    fn iteration_covers_both_forms() {
        let a = HybridAdj::new(2, &hints());
        for k in 0..5u32 {
            a.insert(0, AdjEntry::new(k, k));
        }
        for k in 0..50u32 {
            a.insert(1, AdjEntry::new(k, k));
        }
        let mut cold: Vec<u32> = a.neighbors(0).iter().map(|e| e.nbr).collect();
        cold.sort_unstable();
        assert_eq!(cold, (0..5).collect::<Vec<_>>());
        let hot: Vec<u32> = a.neighbors(1).iter().map(|e| e.nbr).collect();
        assert_eq!(
            hot,
            (0..50).collect::<Vec<_>>(),
            "treap iteration is sorted"
        );
    }
}
