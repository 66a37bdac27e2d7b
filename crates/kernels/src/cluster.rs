//! Triangle counting and clustering coefficients.
//!
//! The paper motivates SNAP with topology analysis — "analyzing
//! topological characteristics of the network, such as the vertex degree
//! distribution, centrality and community structure". The local
//! clustering coefficient (triangles over wedges per vertex) is the
//! standard community-structure primitive; we implement the sorted
//! merge-intersection algorithm, parallel over vertices.

use rayon::prelude::*;
use snap_core::GraphView;

/// Per-vertex sorted, dedup'd, self-loop-free neighbor lists — the shape
/// intersection counting wants. Duplicate stored entries (a live
/// multi-representation view, or a CSR built from a duplicated edge
/// list) collapse to one neighbor, matching the key-granular delete
/// contract: an edge key is either present or absent, however many
/// times its representation was stored.
fn sorted_neighborhoods<V: GraphView>(view: &V) -> Vec<Vec<u32>> {
    let n = view.num_vertices();
    let mut ns: Vec<Vec<u32>> = (0..n as u32)
        .into_par_iter()
        .map(|u| {
            let mut out: Vec<u32> = Vec::with_capacity(view.degree(u));
            view.for_each_edge(u, |v, _| {
                if v != u {
                    out.push(v);
                }
            });
            out
        })
        .collect();
    // A triangle is a property of the underlying undirected
    // simplification. Directed views expose only out-arcs, so their raw
    // neighborhoods are asymmetric (`u` may list `v` while `v` omits
    // `u`) and the wedge/triangle double-counting identities below
    // silently truncate; mirror every arc first so `w ∈ N(u)` iff
    // `u ∈ N(w)`.
    if view.is_directed() {
        let mut rev: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (u, out) in ns.iter().enumerate() {
            for &v in out {
                rev[v as usize].push(u as u32);
            }
        }
        for (out, back) in ns.iter_mut().zip(rev) {
            out.extend(back);
        }
    }
    ns.par_iter_mut().for_each(|l| {
        l.sort_unstable();
        l.dedup();
    });
    ns
}

/// Size of the sorted-list intersection.
fn intersection_count(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut c) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
        }
    }
    c
}

/// Number of triangles incident to each vertex (each triangle counted
/// once per member vertex).
pub(crate) fn triangles_per_vertex<V: GraphView>(view: &V) -> Vec<u64> {
    let nbrs = sorted_neighborhoods(view);
    (0..view.num_vertices())
        .into_par_iter()
        .map(|u| {
            let nu = &nbrs[u];
            let mut t = 0u64;
            for &v in nu {
                // Count common neighbors; each triangle {u, v, w} is seen
                // twice from u (once via v, once via w).
                t += intersection_count(nu, &nbrs[v as usize]) as u64;
            }
            t / 2
        })
        .collect()
}

/// Total number of distinct triangles in the graph.
pub fn triangle_count<V: GraphView>(view: &V) -> u64 {
    triangles_per_vertex(view).iter().sum::<u64>() / 3
}

/// Local clustering coefficient per vertex: triangles / wedges, zero for
/// degree < 2.
pub fn local_clustering<V: GraphView>(view: &V) -> Vec<f64> {
    let nbrs = sorted_neighborhoods(view);
    let tri = triangles_per_vertex(view);
    (0..view.num_vertices())
        .map(|u| {
            let d = nbrs[u].len() as u64;
            if d < 2 {
                0.0
            } else {
                2.0 * tri[u] as f64 / (d * (d - 1)) as f64
            }
        })
        .collect()
}

/// Mean of the local clustering coefficients (the Watts–Strogatz global
/// clustering measure — the quantity that defines "small-world").
pub fn average_clustering<V: GraphView>(view: &V) -> f64 {
    let lc = local_clustering(view);
    if lc.is_empty() {
        return 0.0;
    }
    lc.iter().sum::<f64>() / lc.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_core::CsrGraph;
    use snap_rmat::TimedEdge;

    fn undirected(n: usize, edges: &[(u32, u32)]) -> CsrGraph {
        let e: Vec<TimedEdge> = edges
            .iter()
            .map(|&(u, v)| TimedEdge::new(u, v, 1))
            .collect();
        CsrGraph::from_edges_undirected(n, &e)
    }

    #[test]
    fn single_triangle() {
        let g = undirected(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(triangle_count(&g), 1);
        assert_eq!(triangles_per_vertex(&g), vec![1, 1, 1]);
        assert_eq!(local_clustering(&g), vec![1.0, 1.0, 1.0]);
        assert!((average_clustering(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn path_has_no_triangles() {
        let g = undirected(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(triangle_count(&g), 0);
        assert!(local_clustering(&g).iter().all(|&c| c == 0.0));
    }

    #[test]
    fn k4_counts() {
        let g = undirected(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert_eq!(triangle_count(&g), 4);
        // Every vertex: 3 incident triangles over C(3,2)=3 wedges.
        assert_eq!(triangles_per_vertex(&g), vec![3, 3, 3, 3]);
        assert!(local_clustering(&g)
            .iter()
            .all(|&c| (c - 1.0).abs() < 1e-12));
    }

    #[test]
    fn triangle_plus_pendant() {
        // Triangle 0-1-2 plus pendant 3 on vertex 0.
        let g = undirected(4, &[(0, 1), (1, 2), (2, 0), (0, 3)]);
        assert_eq!(triangle_count(&g), 1);
        let lc = local_clustering(&g);
        // Vertex 0: degree 3 -> 1 triangle / 3 wedges.
        assert!((lc[0] - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(lc[3], 0.0, "degree-1 vertex");
    }

    #[test]
    fn duplicates_and_self_loops_ignored() {
        let g = undirected(3, &[(0, 1), (0, 1), (1, 2), (2, 0), (1, 1)]);
        assert_eq!(triangle_count(&g), 1);
    }

    #[test]
    fn directed_view_counts_underlying_undirected_triangles() {
        use snap_core::adjacency::CapacityHints;
        use snap_core::{DynArr, DynGraph};
        // A directed 3-cycle stores each edge once, in one direction:
        // the raw out-neighborhoods are asymmetric, but the underlying
        // undirected graph is a single triangle.
        let g: DynGraph<DynArr> = DynGraph::directed(3, &CapacityHints::new(8));
        for (u, v) in [(0, 1), (1, 2), (2, 0)] {
            g.insert_edge(TimedEdge::new(u, v, 1));
        }
        assert_eq!(triangle_count(&g), 1);
        assert_eq!(triangles_per_vertex(&g), vec![1, 1, 1]);
        assert_eq!(local_clustering(&g), vec![1.0, 1.0, 1.0]);
        // Anti-parallel arcs are one undirected edge, not two.
        g.insert_edge(TimedEdge::new(1, 0, 2));
        assert_eq!(triangle_count(&g), 1);
        // The directed view and its undirected CSR simplification agree.
        let csr = undirected(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(triangles_per_vertex(&g), triangles_per_vertex(&csr));
        assert_eq!(average_clustering(&g), average_clustering(&csr));
    }

    #[test]
    fn live_multi_rep_matches_csr_simplification() {
        use snap_core::adjacency::CapacityHints;
        use snap_core::{DynArr, DynGraph};
        // DynArr keeps duplicate representations of the same key until a
        // key-granular delete removes them all; triangle counts must see
        // the simple graph either way.
        let g: DynGraph<DynArr> = DynGraph::undirected(4, &CapacityHints::new(32));
        for (u, v, t) in [
            (0, 1, 1),
            (0, 1, 7), // duplicate representation
            (1, 2, 1),
            (2, 0, 1),
            (2, 0, 9), // duplicate representation
            (0, 3, 1),
            (1, 1, 3), // self-loop
            (3, 3, 4), // self-loop
        ] {
            g.insert_edge(TimedEdge::new(u, v, t));
        }
        let csr = undirected(4, &[(0, 1), (1, 2), (2, 0), (0, 3)]);
        assert_eq!(triangles_per_vertex(&g), triangles_per_vertex(&csr));
        assert_eq!(local_clustering(&g), local_clustering(&csr));
        assert_eq!(average_clustering(&g), average_clustering(&csr));
        // Key-granular delete drops *all* representations of (0, 1):
        // the triangle is gone from the live view in one call.
        g.delete_edge(0, 1);
        assert_eq!(triangle_count(&g), 0);
        assert!(!g.is_directed());
    }

    #[test]
    fn self_loops_never_make_wedges() {
        // A lone self-loop on an otherwise degree-1 vertex must not
        // promote it to degree >= 2 (which would fabricate a wedge
        // denominator), and an all-self-loop graph has no triangles.
        let g = undirected(2, &[(0, 1), (0, 0), (1, 1)]);
        assert_eq!(triangle_count(&g), 0);
        assert_eq!(local_clustering(&g), vec![0.0, 0.0]);
        let loops = undirected(3, &[(0, 0), (1, 1), (2, 2)]);
        assert_eq!(triangles_per_vertex(&loops), vec![0, 0, 0]);
        assert_eq!(average_clustering(&loops), 0.0);
    }

    #[test]
    fn brute_force_agreement_on_random_graph() {
        use snap_rmat::{Rmat, RmatParams};
        let rm = Rmat::new(RmatParams::paper(7, 6), 4);
        let g = CsrGraph::from_edges_undirected(1 << 7, &rm.edges());
        let fast = triangle_count(&g);
        // O(n^3) oracle on the adjacency matrix.
        let n = g.num_vertices();
        let mut adj = vec![false; n * n];
        for (u, v, _) in g.iter_entries() {
            if u != v {
                adj[u as usize * n + v as usize] = true;
                adj[v as usize * n + u as usize] = true;
            }
        }
        let mut slow = 0u64;
        for a in 0..n {
            for b in a + 1..n {
                if !adj[a * n + b] {
                    continue;
                }
                for c in b + 1..n {
                    if adj[a * n + c] && adj[b * n + c] {
                        slow += 1;
                    }
                }
            }
        }
        assert_eq!(fast, slow);
    }
}
