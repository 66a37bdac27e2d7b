//! The read abstraction shared by every analysis kernel.
//!
//! The paper's kernels (Section 3) reformulate dynamic problems on static
//! CSR snapshots. That is the right call for traversal-heavy analytics —
//! but forcing *every* read through a snapshot means a single update batch
//! invalidates O(n + m) of rebuild work even for a one-vertex degree
//! probe. [`GraphView`] decouples the kernels from the storage: a view is
//! anything that can report the vertex count, per-vertex degrees, and
//! enumerate live (neighbor, timestamp) pairs.
//!
//! Two implementations ship here:
//!
//! - [`CsrGraph`] — the frozen snapshot: contiguous adjacency slices,
//!   the fastest iteration, and stability under concurrent updates to
//!   the dynamic graph it was taken from.
//! - [`DynGraph<A>`] — the *live view*: kernels traverse the dynamic
//!   representation in place (tombstone-skipping for the array
//!   representations, in-order walks for treaps), paying per-vertex lock
//!   acquisition and pointer chasing but **zero** snapshot cost.
//!
//! The intended pattern (see [`crate::manager::SnapshotManager`]): serve
//! cheap or latency-critical queries from the live view; amortize one
//! CSR rebuild across bursts of traversal-heavy queries via the epoch
//! cache.
//!
//! # Phase discipline
//!
//! Like snapshot construction, live-view traversal follows the paper's
//! bulk-synchronous pattern: apply a batch, then read. Per-vertex
//! synchronization inside the representations keeps concurrent reads
//! memory-safe, but a kernel racing a writer may observe a mix of old and
//! new entries across vertices.

use crate::adjacency::{AdjEntry, DynamicAdjacency};
use crate::csr::CsrGraph;
use crate::graph::DynGraph;

/// A read-only graph: the input type of every kernel in `snap-kernels`.
///
/// `Sync` is a supertrait because the kernels traverse views from many
/// threads; `&V` must be shareable.
pub trait GraphView: Sync {
    /// Number of vertices (ids are `0..num_vertices()`).
    fn num_vertices(&self) -> usize;

    /// True for directed edge semantics. Undirected views store both
    /// orientations of every edge, so symmetric traversal needs no
    /// special casing.
    fn is_directed(&self) -> bool;

    /// Number of live out-entries of `u`.
    fn degree(&self, u: u32) -> usize;

    /// Invokes `f` with `(neighbor, timestamp)` for every live out-edge
    /// of `u`. Tombstoned slots are skipped.
    fn for_each_edge<F: FnMut(u32, u32)>(&self, u: u32, f: F);

    /// Collects `u`'s live out-edges. Kernels use this where they need a
    /// materialized slice (e.g. chunked parallel scans of a hub's
    /// adjacency); contiguous views override it to a cheap copy.
    fn edges_of(&self, u: u32) -> Vec<AdjEntry> {
        let mut out = Vec::with_capacity(self.degree(u));
        self.for_each_edge(u, |nbr, ts| out.push(AdjEntry { nbr, ts }));
        out
    }

    /// Total live entries (each undirected edge counts twice).
    fn num_entries(&self) -> usize {
        (0..self.num_vertices() as u32)
            .map(|u| self.degree(u))
            .sum()
    }

    /// Maximum out-degree over all vertices.
    fn max_degree(&self) -> usize {
        (0..self.num_vertices() as u32)
            .map(|u| self.degree(u))
            .max()
            .unwrap_or(0)
    }

    /// Materializes every `(u, v, ts)` entry (what a global edge sweep
    /// reads; the read-path equivalence tests compare these).
    fn collect_entries(&self) -> Vec<(u32, u32, u32)> {
        let mut out = Vec::with_capacity(self.num_entries());
        for u in 0..self.num_vertices() as u32 {
            self.for_each_edge(u, |v, ts| out.push((u, v, ts)));
        }
        out
    }

    /// First live out-edge of `u` whose `(neighbor, timestamp)` satisfies
    /// `pred`, or `None`. Contiguous views stop scanning at the match;
    /// callback-driven live views may visit the full adjacency (the
    /// underlying [`crate::adjacency::DynamicAdjacency::for_each`] has no
    /// early exit) but still return only the first hit. Bottom-up BFS
    /// leans on this: an unvisited vertex only needs *one* frontier
    /// neighbor to be claimed.
    fn find_edge<P: FnMut(u32, u32) -> bool>(&self, u: u32, mut pred: P) -> Option<(u32, u32)> {
        let mut found = None;
        self.for_each_edge(u, |v, ts| {
            if found.is_none() && pred(v, ts) {
                found = Some((v, ts));
            }
        });
        found
    }

    /// Splits the vertex id space `0..num_vertices()` into contiguous
    /// ranges of at most `chunk` ids, as a non-allocating iterator.
    ///
    /// This is the unit of work for every whole-graph parallel sweep
    /// (bottom-up BFS, label propagation, distance initialization):
    /// workers pull ranges instead of single vertices, so live-view
    /// traversal pays one dispatch per range rather than one allocation
    /// or virtual call per vertex.
    fn vertex_chunks(&self, chunk: usize) -> VertexChunks {
        VertexChunks {
            next: 0,
            n: self.num_vertices() as u32,
            chunk: chunk.clamp(1, u32::MAX as usize) as u32,
        }
    }

    /// Downcast hook: views backed by a CSR snapshot expose it so the
    /// hottest kernels (BFS-family inner loops) can take a
    /// zero-allocation slice path instead of callback iteration. Live
    /// views return `None` and go through [`GraphView::for_each_edge`].
    fn as_csr(&self) -> Option<&CsrGraph> {
        None
    }
}

/// Non-allocating iterator over contiguous vertex-id ranges; see
/// [`GraphView::vertex_chunks`].
#[derive(Clone, Debug)]
pub struct VertexChunks {
    next: u32,
    n: u32,
    chunk: u32,
}

impl Iterator for VertexChunks {
    type Item = std::ops::Range<u32>;

    fn next(&mut self) -> Option<std::ops::Range<u32>> {
        if self.next >= self.n {
            return None;
        }
        let lo = self.next;
        let hi = lo.saturating_add(self.chunk).min(self.n);
        self.next = hi;
        Some(lo..hi)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = ((self.n - self.next.min(self.n)) as usize).div_ceil(self.chunk as usize);
        (left, Some(left))
    }
}

impl ExactSizeIterator for VertexChunks {}

impl GraphView for CsrGraph {
    #[inline]
    fn num_vertices(&self) -> usize {
        CsrGraph::num_vertices(self)
    }

    #[inline]
    fn is_directed(&self) -> bool {
        CsrGraph::is_directed(self)
    }

    #[inline]
    fn degree(&self, u: u32) -> usize {
        self.out_degree(u)
    }

    #[inline]
    fn for_each_edge<F: FnMut(u32, u32)>(&self, u: u32, mut f: F) {
        for (&w, &t) in self.neighbors(u).iter().zip(self.timestamps(u)) {
            f(w, t);
        }
    }

    fn edges_of(&self, u: u32) -> Vec<AdjEntry> {
        self.neighbors(u)
            .iter()
            .zip(self.timestamps(u))
            .map(|(&nbr, &ts)| AdjEntry { nbr, ts })
            .collect()
    }

    #[inline]
    fn find_edge<P: FnMut(u32, u32) -> bool>(&self, u: u32, mut pred: P) -> Option<(u32, u32)> {
        self.neighbors(u)
            .iter()
            .zip(self.timestamps(u))
            .find(|&(&v, &ts)| pred(v, ts))
            .map(|(&v, &ts)| (v, ts))
    }

    #[inline]
    fn num_entries(&self) -> usize {
        CsrGraph::num_entries(self)
    }

    fn max_degree(&self) -> usize {
        CsrGraph::max_degree(self)
    }

    fn collect_entries(&self) -> Vec<(u32, u32, u32)> {
        self.iter_entries().collect()
    }

    #[inline]
    fn as_csr(&self) -> Option<&CsrGraph> {
        Some(self)
    }
}

/// The live view: traverse the dynamic representation in place, skipping
/// tombstones, with no snapshot cost. See the module docs for the
/// consistency contract under concurrent mutation.
impl<A: DynamicAdjacency> GraphView for DynGraph<A> {
    #[inline]
    fn num_vertices(&self) -> usize {
        DynGraph::num_vertices(self)
    }

    #[inline]
    fn is_directed(&self) -> bool {
        DynGraph::is_directed(self)
    }

    #[inline]
    fn degree(&self, u: u32) -> usize {
        DynGraph::degree(self, u)
    }

    #[inline]
    fn for_each_edge<F: FnMut(u32, u32)>(&self, u: u32, mut f: F) {
        self.adjacency()
            .for_each(u, &mut |e: AdjEntry| f(e.nbr, e.ts));
    }

    fn edges_of(&self, u: u32) -> Vec<AdjEntry> {
        self.adjacency().neighbors(u)
    }

    #[inline]
    fn num_entries(&self) -> usize {
        self.total_entries()
    }
}

/// Test support: a view over another one that records whose adjacency
/// each `for_each_edge` call read — how the index tests watch a repair's
/// reads.
#[cfg(test)]
pub(crate) mod probe {
    use super::GraphView;
    use parking_lot::Mutex;

    pub(crate) struct ProbeView<'a, V> {
        inner: &'a V,
        reads: Mutex<Vec<u32>>,
    }

    impl<'a, V: GraphView> ProbeView<'a, V> {
        pub(crate) fn new(inner: &'a V) -> Self {
            Self {
                inner,
                reads: Mutex::new(Vec::new()),
            }
        }

        /// The vertices whose adjacency was read, ascending, once each.
        pub(crate) fn read_set(&self) -> Vec<u32> {
            let mut set = self.reads.lock().clone();
            set.sort_unstable();
            set.dedup();
            set
        }

        /// Number of adjacency reads so far.
        pub(crate) fn read_count(&self) -> usize {
            self.reads.lock().len()
        }
    }

    impl<V: GraphView> GraphView for ProbeView<'_, V> {
        fn num_vertices(&self) -> usize {
            self.inner.num_vertices()
        }

        fn is_directed(&self) -> bool {
            self.inner.is_directed()
        }

        fn degree(&self, u: u32) -> usize {
            self.inner.degree(u)
        }

        fn for_each_edge<F: FnMut(u32, u32)>(&self, u: u32, f: F) {
            self.reads.lock().push(u);
            self.inner.for_each_edge(u, f)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::CapacityHints;
    use crate::dynarr::DynArr;
    use crate::hybrid::HybridAdj;
    use crate::treapadj::TreapAdj;
    use snap_rmat::TimedEdge;

    fn edges() -> Vec<TimedEdge> {
        vec![
            TimedEdge::new(0, 1, 10),
            TimedEdge::new(0, 2, 20),
            TimedEdge::new(1, 2, 30),
            TimedEdge::new(3, 0, 40),
        ]
    }

    /// Sorted (nbr, ts) pairs of one vertex under any view.
    fn sorted_edges<V: GraphView>(v: &V, u: u32) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        v.for_each_edge(u, |w, t| out.push((w, t)));
        out.sort_unstable();
        out
    }

    #[test]
    fn csr_view_matches_inherent_accessors() {
        let csr = CsrGraph::from_edges_undirected(4, &edges());
        assert_eq!(GraphView::num_vertices(&csr), 4);
        assert_eq!(GraphView::num_entries(&csr), 8);
        assert!(!GraphView::is_directed(&csr));
        for u in 0..4u32 {
            assert_eq!(GraphView::degree(&csr, u), csr.out_degree(u));
            let via_trait = sorted_edges(&csr, u);
            let mut via_slices: Vec<(u32, u32)> = csr
                .neighbors(u)
                .iter()
                .copied()
                .zip(csr.timestamps(u).iter().copied())
                .collect();
            via_slices.sort_unstable();
            assert_eq!(via_trait, via_slices);
        }
    }

    fn live_matches_snapshot<A: DynamicAdjacency>() {
        let hints = CapacityHints::new(32).with_degree_thresh(2);
        let g: DynGraph<A> = DynGraph::undirected(4, &hints);
        for e in edges() {
            g.insert_edge(e);
        }
        g.delete_edge(0, 2);
        let csr = g.to_csr();
        assert_eq!(GraphView::num_vertices(&g), GraphView::num_vertices(&csr));
        assert_eq!(GraphView::num_entries(&g), GraphView::num_entries(&csr));
        assert_eq!(GraphView::max_degree(&g), GraphView::max_degree(&csr));
        for u in 0..4u32 {
            assert_eq!(sorted_edges(&g, u), sorted_edges(&csr, u), "vertex {u}");
            assert_eq!(
                g.adjacency().neighbors(u).len(),
                GraphView::edges_of(&g, u).len()
            );
        }
        let mut live: Vec<_> = g.collect_entries();
        let mut snap: Vec<_> = csr.collect_entries();
        live.sort_unstable();
        snap.sort_unstable();
        assert_eq!(live, snap);
    }

    #[test]
    fn live_view_equals_snapshot_after_deletions_dynarr() {
        live_matches_snapshot::<DynArr>();
    }

    #[test]
    fn live_view_equals_snapshot_after_deletions_treap() {
        live_matches_snapshot::<TreapAdj>();
    }

    #[test]
    fn live_view_equals_snapshot_after_deletions_hybrid() {
        // degree_thresh 2 forces treap promotion, covering both arms.
        live_matches_snapshot::<HybridAdj>();
    }

    #[test]
    fn directedness_flows_through_views() {
        let hints = CapacityHints::new(8);
        let g: DynGraph<DynArr> = DynGraph::directed(3, &hints);
        g.insert_edge(TimedEdge::new(0, 1, 1));
        assert!(GraphView::is_directed(&g));
        assert!(GraphView::is_directed(&g.to_csr()));
        let u: DynGraph<DynArr> = DynGraph::undirected(3, &hints);
        u.insert_edge(TimedEdge::new(0, 1, 1));
        assert!(!GraphView::is_directed(&u));
        assert!(!GraphView::is_directed(&u.to_csr()));
    }

    #[test]
    fn vertex_chunks_cover_id_space_exactly() {
        let csr = CsrGraph::from_edges_undirected(10, &edges());
        for chunk in [1usize, 3, 10, 64] {
            let ranges: Vec<_> = csr.vertex_chunks(chunk).collect();
            assert_eq!(ranges.len(), csr.vertex_chunks(chunk).len());
            let mut next = 0u32;
            for r in &ranges {
                assert_eq!(r.start, next, "chunks must be contiguous");
                assert!(r.len() <= chunk);
                next = r.end;
            }
            assert_eq!(next, 10);
        }
        let empty = CsrGraph::from_edges_undirected(0, &[]);
        assert_eq!(empty.vertex_chunks(8).count(), 0);
    }

    #[test]
    fn find_edge_agrees_across_views() {
        let hints = CapacityHints::new(32).with_degree_thresh(2);
        let g: DynGraph<HybridAdj> = DynGraph::undirected(4, &hints);
        for e in edges() {
            g.insert_edge(e);
        }
        let csr = g.to_csr();
        // Existing target: both views find it, with the same timestamp.
        let live = GraphView::find_edge(&g, 0, |v, _| v == 2);
        let snap = csr.find_edge(0, |v, _| v == 2);
        assert_eq!(live, Some((2, 20)));
        assert_eq!(live, snap);
        // Missing target: both views report None.
        assert_eq!(GraphView::find_edge(&g, 1, |v, _| v == 3), None);
        assert_eq!(csr.find_edge(1, |v, _| v == 3), None);
        // Timestamp predicate.
        assert_eq!(csr.find_edge(3, |_, ts| ts >= 40), Some((0, 40)));
    }

    #[test]
    fn default_collect_entries_covers_all_orientations() {
        let hints = CapacityHints::new(8);
        let g: DynGraph<DynArr> = DynGraph::undirected(3, &hints);
        g.insert_edge(TimedEdge::new(0, 1, 7));
        let mut got = g.collect_entries();
        got.sort_unstable();
        assert_eq!(got, vec![(0, 1, 7), (1, 0, 7)]);
    }
}
