//! Treap adjacency representation (Section 2.1.4): every vertex's
//! adjacency list is a randomized treap keyed on the neighbor id.
//!
//! Insertions, deletions and searches are `O(log d)` expected; deletion
//! *actually removes* the node (recycling its slot) instead of
//! tombstoning — the property that makes treaps win on delete-heavy
//! streams (Figure 5). The cost is that insertion does real tree work
//! under a lock ("the granularity of work inside a lock is significantly
//! higher"), which is why construction is slower than `Dyn-arr`
//! (Figure 4), and a 2–4x memory footprint.

use crate::adjacency::{AdjEntry, CapacityHints, DynamicAdjacency, HalfUpdate};
use parking_lot::Mutex;
use snap_treap::Treap;

/// Per-vertex treaps under per-vertex mutexes.
pub struct TreapAdj {
    adj: Vec<Mutex<Treap>>,
}

impl TreapAdj {
    /// Runs `f` with shared access to `u`'s treap (for set-operation
    /// kernels that want the tree itself, not just iteration).
    pub fn with_treap<R>(&self, u: u32, f: impl FnOnce(&Treap) -> R) -> R {
        let t = self.adj[u as usize].lock();
        f(&t)
    }

    /// Clones `u`'s treap out (snapshot for batch set operations).
    pub fn snapshot(&self, u: u32) -> Treap {
        self.adj[u as usize].lock().clone()
    }
}

impl DynamicAdjacency for TreapAdj {
    fn new(n: usize, _hints: &CapacityHints) -> Self {
        // Treaps allocate lazily; a per-vertex seed keeps structure
        // deterministic for tests regardless of thread interleaving.
        let adj = (0..n)
            .map(|u| Mutex::new(Treap::new(0x7EA9 ^ (u as u64).wrapping_mul(0x9E37_79B9))))
            .collect();
        Self { adj }
    }

    fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    fn insert(&self, u: u32, e: AdjEntry) -> bool {
        self.adj[u as usize].lock().insert(e.nbr, e.ts)
    }

    fn delete(&self, u: u32, v: u32) -> bool {
        self.adj[u as usize].lock().delete(v).is_some()
    }

    /// One lock acquisition, then [`Treap::apply_group`]: a merge and
    /// one rebuild when the group is large against the degree.
    fn apply_group(&self, u: u32, ops: &mut [HalfUpdate], on_changed: &mut dyn FnMut(usize)) {
        self.adj[u as usize]
            .lock()
            .apply_group(ops, |h| on_changed(h.index()));
    }

    fn contains(&self, u: u32, v: u32) -> bool {
        self.adj[u as usize].lock().contains(v)
    }

    fn degree(&self, u: u32) -> usize {
        self.adj[u as usize].lock().len()
    }

    /// Every row is a treap, so every row is keyed.
    fn keyed_len(&self, u: u32) -> Option<usize> {
        Some(self.degree(u))
    }

    fn for_each(&self, u: u32, f: &mut dyn FnMut(AdjEntry)) {
        let t = self.adj[u as usize].lock();
        t.for_each(|nbr, ts| f(AdjEntry { nbr, ts }));
    }

    fn retain(&self, u: u32, keep: &mut dyn FnMut(AdjEntry) -> bool) -> usize {
        let mut t = self.adj[u as usize].lock();
        // Keys are unique in a treap, so collect-then-delete is exact.
        let mut doomed = Vec::new();
        t.for_each(|nbr, ts| {
            if !keep(AdjEntry { nbr, ts }) {
                doomed.push(nbr);
            }
        });
        for k in &doomed {
            t.delete(*k);
        }
        doomed.len()
    }

    fn memory_bytes(&self) -> usize {
        self.adj.len() * std::mem::size_of::<Mutex<Treap>>()
            + self
                .adj
                .iter()
                .map(|m| m.lock().reserved_bytes())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    fn hints() -> CapacityHints {
        CapacityHints::new(0)
    }

    #[test]
    fn insert_dedups_on_neighbor() {
        let a = TreapAdj::new(4, &hints());
        assert!(a.insert(0, AdjEntry::new(1, 10)));
        assert!(!a.insert(0, AdjEntry::new(1, 20)), "same neighbor twice");
        assert_eq!(a.degree(0), 1);
        // Timestamp overwritten by the second insert.
        assert_eq!(a.neighbors(0), vec![AdjEntry::new(1, 20)]);
    }

    #[test]
    fn delete_actually_removes() {
        let a = TreapAdj::new(2, &hints());
        for k in 0..100u32 {
            a.insert(1, AdjEntry::new(k, k));
        }
        for k in (0..100u32).step_by(2) {
            assert!(a.delete(1, k));
        }
        assert_eq!(a.degree(1), 50);
        assert!(!a.contains(1, 0));
        assert!(a.contains(1, 1));
        assert!(!a.delete(1, 0), "double delete must fail");
    }

    #[test]
    fn iteration_is_key_ordered() {
        let a = TreapAdj::new(1, &hints());
        for k in [5u32, 1, 9, 3, 7] {
            a.insert(0, AdjEntry::new(k, k));
        }
        let ns = a.neighbors(0);
        assert!(ns.windows(2).all(|w| w[0].nbr < w[1].nbr));
    }

    #[test]
    fn concurrent_updates_across_vertices() {
        let a = TreapAdj::new(32, &hints());
        (0..8_000u32).into_par_iter().for_each(|i| {
            a.insert(i % 32, AdjEntry::new(i / 32, 0));
        });
        assert_eq!(a.total_entries(), 8_000);
        (0..8_000u32).into_par_iter().for_each(|i| {
            assert!(a.delete(i % 32, i / 32));
        });
        assert_eq!(a.total_entries(), 0);
    }

    #[test]
    fn concurrent_hot_vertex_inserts() {
        let a = TreapAdj::new(1, &hints());
        (0..4_000u32).into_par_iter().for_each(|i| {
            a.insert(0, AdjEntry::new(i, i));
        });
        assert_eq!(a.degree(0), 4_000);
        a.with_treap(0, |t| t.check_invariants().unwrap());
    }

    #[test]
    fn snapshot_is_independent() {
        let a = TreapAdj::new(1, &hints());
        a.insert(0, AdjEntry::new(1, 1));
        let snap = a.snapshot(0);
        a.insert(0, AdjEntry::new(2, 2));
        assert_eq!(snap.len(), 1);
        assert_eq!(a.degree(0), 2);
    }
}
