//! The dynamic temporal graph: vertex space + a pluggable adjacency
//! representation, with directed or undirected edge semantics.
//!
//! Undirected graphs store both orientations (the standard adjacency-list
//! convention the paper's R-MAT experiments use), so one structural update
//! touches two adjacency lists.

use crate::adjacency::{AdjEntry, CapacityHints, DynamicAdjacency};
use crate::csr::CsrGraph;
use snap_rmat::{TimedEdge, Update, UpdateKind};

/// A dynamic graph over representation `A`.
pub struct DynGraph<A: DynamicAdjacency> {
    adj: A,
    directed: bool,
}

impl<A: DynamicAdjacency> DynGraph<A> {
    /// Creates an empty directed graph with `n` vertices.
    pub fn directed(n: usize, hints: &CapacityHints) -> Self {
        Self {
            adj: A::new(n, hints),
            directed: true,
        }
    }

    /// Creates an empty undirected graph with `n` vertices.
    pub fn undirected(n: usize, hints: &CapacityHints) -> Self {
        Self {
            adj: A::new(n, hints),
            directed: false,
        }
    }

    /// Wraps a pre-built adjacency structure (used for [`crate::FixedDynArr`],
    /// whose capacities come from an oracle rather than hints).
    pub fn from_adjacency(adj: A, directed: bool) -> Self {
        Self { adj, directed }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.adj.num_vertices()
    }

    /// True for directed edge semantics.
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// The underlying representation.
    pub fn adjacency(&self) -> &A {
        &self.adj
    }

    /// Inserts a timestamped edge (both orientations when undirected).
    /// Thread-safe.
    ///
    /// Returns `true` if *either* orientation stored a new entry. On a
    /// consistent undirected graph the two orientations agree; they can
    /// diverge only if the adjacency was mutated asymmetrically through
    /// [`DynGraph::adjacency`], and reporting the OR keeps such repairs
    /// visible instead of silently dropping the second orientation's
    /// outcome.
    pub fn insert_edge(&self, e: TimedEdge) -> bool {
        let a = self.adj.insert(e.u, AdjEntry::new(e.v, e.timestamp));
        if !self.directed && e.u != e.v {
            let b = self.adj.insert(e.v, AdjEntry::new(e.u, e.timestamp));
            return a | b;
        }
        a
    }

    /// Deletes one occurrence of edge `(u, v)` (both orientations when
    /// undirected). Thread-safe.
    ///
    /// Returns `true` if *either* orientation removed an entry (see
    /// [`DynGraph::insert_edge`] for why the second orientation's outcome
    /// participates).
    pub fn delete_edge(&self, u: u32, v: u32) -> bool {
        let a = self.adj.delete(u, v);
        if !self.directed && u != v {
            let b = self.adj.delete(v, u);
            return a | b;
        }
        a
    }

    /// Applies a single structural update. Thread-safe.
    pub fn apply(&self, upd: &Update) -> bool {
        match upd.kind {
            UpdateKind::Insert => self.insert_edge(upd.edge),
            UpdateKind::Delete => self.delete_edge(upd.edge.u, upd.edge.v),
        }
    }

    /// True if `u`'s adjacency holds `v`.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.adj.contains(u, v)
    }

    /// Out-degree (live entries) of `u`.
    pub fn degree(&self, u: u32) -> usize {
        self.adj.degree(u)
    }

    /// Iterates `u`'s live adjacency entries.
    pub fn for_each_neighbor(&self, u: u32, f: &mut dyn FnMut(AdjEntry)) {
        self.adj.for_each(u, f)
    }

    /// Total live adjacency entries (each undirected edge counts twice).
    pub fn total_entries(&self) -> usize {
        self.adj.total_entries()
    }

    /// Snapshots the live adjacency into a static CSR for the analysis
    /// kernels (Section 3 reformulates dynamic problems on snapshots).
    ///
    /// # Panics
    ///
    /// If a writer races the build (bulk-synchronous discipline
    /// violated; see [`CsrGraph::from_dynamic`]).
    pub fn to_csr(&self) -> CsrGraph {
        CsrGraph::from_dynamic(&self.adj, self.directed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynarr::DynArr;
    use crate::hybrid::HybridAdj;
    use crate::treapadj::TreapAdj;

    fn hints() -> CapacityHints {
        CapacityHints::new(64)
    }

    #[test]
    fn undirected_insert_stores_both_orientations() {
        let g: DynGraph<DynArr> = DynGraph::undirected(4, &hints());
        g.insert_edge(TimedEdge::new(0, 1, 5));
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert_eq!(g.total_entries(), 2);
    }

    #[test]
    fn directed_insert_stores_one_orientation() {
        let g: DynGraph<DynArr> = DynGraph::directed(4, &hints());
        g.insert_edge(TimedEdge::new(0, 1, 5));
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert_eq!(g.total_entries(), 1);
    }

    #[test]
    fn self_loop_stored_once_even_undirected() {
        let g: DynGraph<DynArr> = DynGraph::undirected(2, &hints());
        g.insert_edge(TimedEdge::new(1, 1, 0));
        assert_eq!(g.degree(1), 1);
        assert!(g.delete_edge(1, 1));
        assert_eq!(g.degree(1), 0);
    }

    #[test]
    fn undirected_delete_removes_both_orientations() {
        let g: DynGraph<TreapAdj> = DynGraph::undirected(3, &hints());
        g.insert_edge(TimedEdge::new(0, 2, 1));
        assert!(g.delete_edge(0, 2));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(2, 0));
    }

    #[test]
    fn apply_dispatches_on_kind() {
        let g: DynGraph<HybridAdj> = DynGraph::undirected(3, &hints());
        let e = TimedEdge::new(0, 1, 9);
        g.apply(&Update::insert(e));
        assert!(g.has_edge(0, 1));
        g.apply(&Update::delete(e));
        assert!(!g.has_edge(0, 1));
    }

    #[test]
    fn asymmetric_states_report_both_orientations() {
        // Mutate one orientation behind the graph's back; the undirected
        // wrappers must still report that *something* changed.
        let g: DynGraph<TreapAdj> = DynGraph::undirected(4, &hints());
        g.adjacency().insert(0, AdjEntry::new(1, 7));
        assert!(
            g.delete_edge(0, 1),
            "half-present edge: the stored orientation's removal must surface"
        );
        assert!(!g.has_edge(0, 1));
        // Same for insertion: (2,3) present only as 3->2, so inserting the
        // full edge stores a new 2->3 entry and must say so.
        g.adjacency().insert(3, AdjEntry::new(2, 9));
        assert!(g.insert_edge(TimedEdge::new(2, 3, 9)));
        assert!(g.has_edge(2, 3));
        assert!(g.has_edge(3, 2));
    }

    #[test]
    fn degrees_track_updates() {
        let g: DynGraph<HybridAdj> = DynGraph::undirected(5, &hints());
        for v in 1..5u32 {
            g.insert_edge(TimedEdge::new(0, v, v));
        }
        assert_eq!(g.degree(0), 4);
        for v in 1..5u32 {
            assert_eq!(g.degree(v), 1);
        }
        g.delete_edge(0, 3);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(3), 0);
    }
}
