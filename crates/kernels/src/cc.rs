//! Connected components: the serial union-find kernel.
//!
//! The standalone kernel, and the oracle that `snap_par::par_cc` and
//! the incremental `ConnectivityIndex` are checked against. The view's live edges stream once, in order,
//! through a union-find that hooks the larger root under the smaller.
//! `par_cc` is union-find too (Afforest's sampled CAS linking), so
//! `tests/parallel_equivalence.rs` also checks both against min-id
//! labels built from `serial_bfs`, a traversal that shares neither's
//! code.
//!
//! A directed view yields its weakly connected components (every entry
//! joins its two endpoints), whether it is a CSR snapshot or a live
//! dynamic graph.

use snap_core::GraphView;

/// Computes a component label per vertex over the live edges of `view`.
/// Labels are the minimum vertex id of the component, so they are
/// canonical and comparable across runs and with `par_cc`, the
/// incremental `ConnectivityIndex`, and [`union_find_components`].
pub fn connected_components<V: GraphView>(view: &V) -> Vec<u32> {
    let n = view.num_vertices();
    let mut uf = MinUnionFind::new(n);
    for u in 0..n as u32 {
        view.for_each_edge(u, |v, _| uf.union(u, v));
    }
    uf.labels()
}

/// Number of distinct components given a label array.
pub fn component_count(labels: &[u32]) -> usize {
    let mut roots: Vec<u32> = labels
        .iter()
        .enumerate()
        .filter(|&(i, &l)| i as u32 == l)
        .map(|(_, &l)| l)
        .collect();
    roots.sort_unstable();
    roots.len()
}

/// Sequential union-find over an edge list (tests and benches).
pub fn union_find_components(n: usize, edges: impl Iterator<Item = (u32, u32)>) -> Vec<u32> {
    let mut uf = MinUnionFind::new(n);
    for (u, v) in edges {
        uf.union(u, v);
    }
    uf.labels()
}

/// Union-find whose roots are always their set's minimum: a union hooks
/// the larger root under the smaller, and `find` splits paths.
struct MinUnionFind {
    parent: Vec<u32>,
}

impl MinUnionFind {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let g = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = g;
            x = g;
        }
        x
    }

    fn union(&mut self, u: u32, v: u32) {
        let (ru, rv) = (self.find(u), self.find(v));
        if ru != rv {
            self.parent[ru.max(rv) as usize] = ru.min(rv);
        }
    }

    /// Each vertex's root, i.e. its set's minimum id.
    fn labels(mut self) -> Vec<u32> {
        (0..self.parent.len() as u32)
            .map(|v| self.find(v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_core::CsrGraph;
    use snap_rmat::{Rmat, RmatParams, TimedEdge};

    #[test]
    fn two_triangles_and_an_isolate() {
        let edges = vec![
            TimedEdge::new(0, 1, 1),
            TimedEdge::new(1, 2, 1),
            TimedEdge::new(2, 0, 1),
            TimedEdge::new(3, 4, 1),
            TimedEdge::new(4, 5, 1),
            TimedEdge::new(5, 3, 1),
        ];
        let g = CsrGraph::from_edges_undirected(7, &edges);
        let labels = connected_components(&g);
        assert_eq!(labels[0..3], [0, 0, 0]);
        assert_eq!(labels[3..6], [3, 3, 3]);
        assert_eq!(labels[6], 6);
        assert_eq!(component_count(&labels), 3);
    }

    #[test]
    fn empty_graph_all_singletons() {
        let g = CsrGraph::from_edges_undirected(5, &[]);
        let labels = connected_components(&g);
        assert_eq!(labels, vec![0, 1, 2, 3, 4]);
        assert_eq!(component_count(&labels), 5);
    }

    #[test]
    fn long_path_converges() {
        // A 1000-vertex path: the longest chains a union can build.
        let edges: Vec<TimedEdge> = (0..999).map(|i| TimedEdge::new(i, i + 1, 1)).collect();
        let g = CsrGraph::from_edges_undirected(1000, &edges);
        let labels = connected_components(&g);
        assert!(labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn matches_union_find_on_rmat() {
        let rm = Rmat::new(RmatParams::paper(11, 4), 17);
        let edges = rm.edges();
        let g = CsrGraph::from_edges_undirected(1 << 11, &edges);
        let labels = connected_components(&g);
        let oracle = union_find_components(1 << 11, edges.iter().map(|e| (e.u, e.v)));
        // Canonical min-labels must agree exactly.
        assert_eq!(labels, oracle);
    }

    #[test]
    fn labels_are_canonical_min_ids() {
        let edges = vec![TimedEdge::new(7, 3, 1), TimedEdge::new(3, 9, 1)];
        let g = CsrGraph::from_edges_undirected(10, &edges);
        let labels = connected_components(&g);
        assert_eq!(labels[7], 3);
        assert_eq!(labels[3], 3);
        assert_eq!(labels[9], 3);
    }
}
