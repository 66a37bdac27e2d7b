//! Single-source shortest paths: the sequential Dijkstra oracle.
//!
//! The paper's future-work section singles out SSSP on arbitrarily
//! weighted graphs as "challenging to parallelize efficiently", citing
//! the authors' own Δ-stepping study (Madduri, Bader, Berry, Crobak,
//! ALENEX 2007). That algorithm lives in `snap_par::par_sssp`; this
//! module holds the binary-heap Dijkstra it falls back to and is checked
//! against, and the weight convention both share.
//!
//! Edge weights are the paper's positive integer w(e); we reuse the
//! timestamp field as the weight, matching the weighted-graph definition
//! in Section 2 (unweighted graphs simply carry w(e) = 1).

use snap_core::GraphView;

/// Distance of unreachable vertices.
pub const INF: u64 = u64::MAX;

/// Edge weight of a timestamp: `max(ts, 1)` (zero weights would break
/// Δ-stepping's bucket monotonicity, so both kernels lift them to 1).
#[inline]
fn weight(ts: u32) -> u64 {
    (ts as u64).max(1)
}

/// Sequential Dijkstra oracle (binary heap).
pub fn dijkstra<V: GraphView>(view: &V, src: u32) -> Vec<u64> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let n = view.num_vertices();
    let mut dist = vec![INF; n];
    dist[src as usize] = 0;
    let mut heap = BinaryHeap::new();
    heap.push(Reverse((0u64, src)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        view.for_each_edge(v, |u, w| {
            let nd = d.saturating_add(weight(w));
            if nd < dist[u as usize] {
                dist[u as usize] = nd;
                heap.push(Reverse((nd, u)));
            }
        });
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_core::CsrGraph;
    use snap_rmat::TimedEdge;

    fn weighted(n: usize, edges: &[(u32, u32, u32)]) -> CsrGraph {
        let e: Vec<TimedEdge> = edges
            .iter()
            .map(|&(u, v, w)| TimedEdge::new(u, v, w))
            .collect();
        CsrGraph::from_edges_undirected(n, &e)
    }

    #[test]
    fn weighted_path() {
        let g = weighted(4, &[(0, 1, 2), (1, 2, 3), (2, 3, 4)]);
        assert_eq!(dijkstra(&g, 0), vec![0, 2, 5, 9]);
    }

    #[test]
    fn unreachable_is_inf() {
        let g = weighted(4, &[(0, 1, 1)]);
        let d = dijkstra(&g, 0);
        assert_eq!(d[2], INF);
        assert_eq!(d[3], INF);
    }
}
