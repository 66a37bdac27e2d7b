//! The link-cut forest for connectivity queries (Section 3.1).
//!
//! The paper deliberately uses the *simple* implementation of the
//! Sleator–Tarjan structure: every vertex stores one parent pointer.
//! `link`, `cut` and `parent` are O(1); `findroot` walks to the root,
//! which costs O(diameter) hops — small by construction on small-world
//! networks, so a connectivity query (two findroots) is just a couple of
//! pointer chases.
//!
//! The structure itself — parent pointers, `reroot` / `link` / `cut` and
//! the lock-step replacement search — lives once, in
//! [`snap_core::forest`], where the serving path's `ConnectivityIndex`
//! uses it as the certificate of its labels. This module adds what the
//! paper's figures 7–8 measure on top of it: construction by parallel
//! BFS and batched parallel queries.
//!
//! Construction follows the paper exactly: a lock-free level-synchronous
//! parallel BFS yields the tree of the largest component, and connected
//! components seed BFS trees for the rest, producing a spanning forest.
//!
//! Queries are read-only memory walks and are processed in parallel
//! batches (Figure 8). Structural maintenance (`link_edge` on insertions,
//! `cut_with_replacement` on deletions — the latter an extension beyond
//! the paper) takes `&mut self` and runs between query phases.

use crate::bfs::{self, UNREACHED};
use rayon::prelude::*;
use snap_core::forest::{Forest, Reconnect, Search};
use snap_core::GraphView;

pub use snap_core::forest::ROOT;

/// A spanning forest of rooted trees over a graph's vertices: the core
/// [`Forest`] plus the scratch its replacement search reuses.
#[derive(Clone, Debug)]
pub struct LinkCutForest {
    forest: Forest,
    search: Search,
}

impl LinkCutForest {
    /// An n-vertex forest of singletons.
    pub fn new(n: usize) -> Self {
        Self::from_parents(vec![ROOT; n])
    }

    fn from_parents(parent: Vec<u32>) -> Self {
        Self {
            forest: Forest::from_parents(parent),
            search: Search::new(),
        }
    }

    /// Builds the spanning forest of any [`GraphView`] via parallel BFS
    /// per component (largest components dominate and parallelize well;
    /// the stragglers are tiny by the small-world degree skew).
    pub fn from_view<V: GraphView>(view: &V) -> Self {
        let n = view.num_vertices();
        let mut parent = vec![ROOT; n];
        let mut visited = vec![false; n];
        if n == 0 {
            return Self::from_parents(parent);
        }
        // Giant component first: parallel BFS from the max-degree vertex
        // (on R-MAT graphs that vertex sits in the giant component).
        let first = (0..n as u32).max_by_key(|&u| view.degree(u)).unwrap_or(0);
        let res = bfs::bfs(view, first);
        for v in 0..n {
            if res.dist[v] != UNREACHED {
                visited[v] = true;
                if res.parent[v] != UNREACHED {
                    parent[v] = res.parent[v];
                }
            }
        }
        // Remaining components are small by the power-law skew: sweep a
        // forward-only cursor and run a cheap sequential traversal per
        // component (total cost O(n + m), no per-component allocations).
        let mut stack: Vec<u32> = Vec::new();
        for s in 0..n as u32 {
            if visited[s as usize] {
                continue;
            }
            visited[s as usize] = true;
            stack.push(s);
            while let Some(v) = stack.pop() {
                view.for_each_edge(v, |w, _| {
                    if !visited[w as usize] {
                        visited[w as usize] = true;
                        parent[w as usize] = v;
                        stack.push(w);
                    }
                });
            }
        }
        Self::from_parents(parent)
    }

    /// [`LinkCutForest::from_view`] under its historical name (every
    /// snapshot is a view).
    pub fn from_csr<V: GraphView>(view: &V) -> Self {
        Self::from_view(view)
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.forest.len()
    }

    /// The parent of `v`, or [`ROOT`].
    #[inline]
    pub fn parent(&self, v: u32) -> u32 {
        self.forest.parent(v)
    }

    /// Walks parent pointers to the root of `v`'s tree — O(tree height).
    #[inline]
    pub fn findroot(&self, v: u32) -> u32 {
        self.forest.findroot(v)
    }

    /// Hop count from `v` to its root (diagnostics: the paper's query cost
    /// is proportional to this).
    pub fn depth(&self, v: u32) -> u32 {
        self.forest.depth(v)
    }

    /// Connectivity query: are `u` and `v` in the same tree?
    #[inline]
    pub fn connected(&self, u: u32, v: u32) -> bool {
        self.forest.connected(u, v)
    }

    /// Processes a batch of connectivity queries in parallel (queries only
    /// read, so they need no synchronization) — the Figure 8 workload.
    pub fn connected_batch(&self, pairs: &[(u32, u32)]) -> Vec<bool> {
        pairs
            .par_iter()
            .map(|&(u, v)| self.connected(u, v))
            .collect()
    }

    /// Structural `link(v, w)`: makes `w` the parent of root `v`.
    ///
    /// # Panics
    /// If `v` is not a root (the Sleator–Tarjan precondition).
    pub fn link(&mut self, v: u32, w: u32) {
        self.forest.link(v, w);
    }

    /// Structural `cut(v)`: deletes the arc from `v` to its parent,
    /// splitting the tree. No-op if `v` is a root.
    pub fn cut(&mut self, v: u32) {
        self.forest.cut(v);
    }

    /// Reroots `v`'s tree at `v` by reversing the path to the old root —
    /// O(depth), needed before linking two arbitrary vertices.
    pub fn reroot(&mut self, v: u32) {
        self.forest.reroot(v);
    }

    /// Maintains the forest across an edge insertion: if `(u, v)` connects
    /// two trees it becomes a tree edge (reroot + link) and `true` is
    /// returned; otherwise it is a non-tree edge and the forest is
    /// untouched.
    pub fn link_edge(&mut self, u: u32, v: u32) -> bool {
        self.forest.link_edge(u, v)
    }

    /// Maintains the forest across the deletion of edge `(u, v)`
    /// *(extension beyond the paper)*: a non-tree edge costs two pointer
    /// reads; a tree edge is cut and the remaining graph (`view`, which
    /// must already exclude the deleted edge — a live
    /// [`snap_core::DynGraph`] right after the delete works directly) is
    /// searched for a replacement by growing both sides of the cut in
    /// lock-step ([`Forest::reconnect`]), so the work is bounded by the
    /// smaller side. Returns `true` if the components stayed connected.
    ///
    /// The forest must span `view`'s components (as
    /// [`LinkCutForest::from_view`] builds it and `link_edge` /
    /// `cut_with_replacement` keep it), so the two sides of the cut are
    /// the only trees a replacement can join.
    pub fn cut_with_replacement<V: GraphView>(&mut self, view: &V, u: u32, v: u32) -> bool {
        if !self.forest.cut_edge(u, v) {
            // Not a tree edge: connectivity is unaffected.
            return true;
        }
        self.forest.reconnect(view, u, v, &mut self.search) == Reconnect::Linked
    }

    /// Mean and max depth over all vertices (query-cost diagnostics).
    pub fn depth_stats(&self) -> (f64, u32) {
        let n = self.num_vertices();
        let depths: Vec<u32> = (0..n as u32)
            .into_par_iter()
            .map(|v| self.depth(v))
            .collect();
        let max = depths.iter().copied().max().unwrap_or(0);
        let mean = depths.iter().map(|&d| d as f64).sum::<f64>() / n.max(1) as f64;
        (mean, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::{connected_components, union_find_components};
    use snap_core::CsrGraph;
    use snap_rmat::{Rmat, RmatParams, TimedEdge};

    fn path_graph(k: u32) -> CsrGraph {
        let edges: Vec<TimedEdge> = (0..k - 1).map(|i| TimedEdge::new(i, i + 1, 1)).collect();
        CsrGraph::from_edges_undirected(k as usize, &edges)
    }

    #[test]
    fn construction_matches_components() {
        let rm = Rmat::new(RmatParams::paper(10, 4), 9);
        let g = CsrGraph::from_edges_undirected(1 << 10, &rm.edges());
        let f = LinkCutForest::from_csr(&g);
        let labels = connected_components(&g);
        for u in (0..1u32 << 10).step_by(7) {
            for v in (0..1u32 << 10).step_by(11) {
                assert_eq!(
                    f.connected(u, v),
                    labels[u as usize] == labels[v as usize],
                    "forest connectivity differs from components for ({u},{v})"
                );
            }
        }
    }

    #[test]
    fn forest_has_one_root_per_component() {
        let rm = Rmat::new(RmatParams::paper(9, 4), 10);
        let g = CsrGraph::from_edges_undirected(1 << 9, &rm.edges());
        let f = LinkCutForest::from_csr(&g);
        let labels = connected_components(&g);
        let comp_count = crate::cc::component_count(&labels);
        let roots = (0..f.num_vertices() as u32)
            .filter(|&v| f.parent(v) == ROOT)
            .count();
        assert_eq!(roots, comp_count);
    }

    #[test]
    fn findroot_and_depth_on_path() {
        let g = path_graph(50);
        let f = LinkCutForest::from_csr(&g);
        let r0 = f.findroot(0);
        assert!((0..50u32).all(|v| f.findroot(v) == r0));
        let (_, max) = f.depth_stats();
        assert!(max <= 49);
    }

    #[test]
    fn link_and_cut_roundtrip() {
        let mut f = LinkCutForest::new(4);
        assert!(!f.connected(0, 1));
        f.link(0, 1);
        assert!(f.connected(0, 1));
        f.link(2, 1);
        assert!(f.connected(0, 2));
        f.cut(0);
        assert!(!f.connected(0, 2));
        assert!(f.connected(1, 2));
    }

    #[test]
    #[should_panic(expected = "link requires v to be a root")]
    fn link_non_root_panics() {
        let mut f = LinkCutForest::new(3);
        f.link(0, 1);
        f.link(0, 2);
    }

    #[test]
    fn reroot_preserves_connectivity_and_makes_root() {
        let g = path_graph(20);
        let mut f = LinkCutForest::from_csr(&g);
        f.reroot(7);
        assert_eq!(f.findroot(0), 7);
        assert_eq!(f.parent(7), ROOT);
        assert!((0..20u32).all(|v| f.findroot(v) == 7));
    }

    #[test]
    fn link_edge_distinguishes_tree_and_nontree() {
        let mut f = LinkCutForest::new(4);
        assert!(f.link_edge(0, 1), "first edge joins two singletons");
        assert!(f.link_edge(2, 1));
        assert!(
            !f.link_edge(0, 2),
            "0 and 2 already connected: non-tree edge"
        );
        assert!(f.link_edge(3, 0));
        assert!(f.connected(3, 2));
    }

    #[test]
    fn incremental_links_match_union_find() {
        let rm = Rmat::new(RmatParams::paper(9, 2), 12);
        let edges = rm.edges();
        let n = 1 << 9;
        let mut f = LinkCutForest::new(n);
        for e in &edges {
            if e.u != e.v {
                f.link_edge(e.u, e.v);
            }
        }
        let oracle = union_find_components(n, edges.iter().map(|e| (e.u, e.v)));
        for u in (0..n as u32).step_by(5) {
            for v in (0..n as u32).step_by(13) {
                assert_eq!(
                    f.connected(u, v),
                    oracle[u as usize] == oracle[v as usize],
                    "({u},{v})"
                );
            }
        }
    }

    #[test]
    fn cut_with_replacement_reconnects_cycle() {
        // Cycle 0-1-2-3-0: cutting any tree edge must find the replacement.
        let edges = vec![
            TimedEdge::new(0, 1, 1),
            TimedEdge::new(1, 2, 1),
            TimedEdge::new(2, 3, 1),
            TimedEdge::new(3, 0, 1),
        ];
        let g = CsrGraph::from_edges_undirected(4, &edges);
        let mut f = LinkCutForest::from_csr(&g);
        // Find a tree edge to delete: some (v, parent(v)).
        let v = (0..4u32).find(|&v| f.parent(v) != ROOT).unwrap();
        let p = f.parent(v);
        // Updated graph without (v, p).
        let remaining: Vec<TimedEdge> = edges
            .iter()
            .copied()
            .filter(|e| !((e.u == v && e.v == p) || (e.u == p && e.v == v)))
            .collect();
        let g2 = CsrGraph::from_edges_undirected(4, &remaining);
        assert!(
            f.cut_with_replacement(&g2, v, p),
            "cycle keeps connectivity"
        );
        assert!((0..4u32).all(|x| f.connected(0, x)));
    }

    #[test]
    fn cut_with_replacement_reports_disconnection() {
        let g = path_graph(6);
        let mut f = LinkCutForest::from_csr(&g);
        // Remove the middle edge 2-3 from both graph and forest.
        let remaining: Vec<TimedEdge> = (0..5u32)
            .filter(|&i| i != 2)
            .map(|i| TimedEdge::new(i, i + 1, 1))
            .collect();
        let g2 = CsrGraph::from_edges_undirected(6, &remaining);
        assert!(!f.cut_with_replacement(&g2, 2, 3), "path splits for good");
        assert!(!f.connected(0, 5));
        assert!(f.connected(0, 2));
        assert!(f.connected(3, 5));
    }

    #[test]
    fn batch_queries_match_single_queries() {
        let rm = Rmat::new(RmatParams::paper(9, 4), 14);
        let g = CsrGraph::from_edges_undirected(1 << 9, &rm.edges());
        let f = LinkCutForest::from_csr(&g);
        let pairs: Vec<(u32, u32)> = (0..200u32).map(|i| (i * 2 % 512, i * 7 % 512)).collect();
        let batch = f.connected_batch(&pairs);
        for (i, &(u, v)) in pairs.iter().enumerate() {
            assert_eq!(batch[i], f.connected(u, v));
        }
    }
}
