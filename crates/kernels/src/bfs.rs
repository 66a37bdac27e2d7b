//! Lock-free level-synchronous parallel breadth-first search (Section 3.3).
//!
//! The PRAM formulation from the paper's prior work (\[4\]): expand the
//! frontier one level at a time; every thread claims unvisited neighbors
//! with a compare-and-swap on the distance word, so no locks are held
//! anywhere. Small-world diameters are O(log n) or effectively constant,
//! so the number of synchronization barriers is tiny.
//!
//! The *unbalanced-degree optimization* ("we process the high-degree and
//! low-degree vertices differently in a parallel phase to ensure balanced
//! partitioning of work to threads"): frontier vertices above a degree
//! threshold have their adjacency arrays scanned by parallel chunks,
//! instead of one thread scanning O(n^0.6) entries while its peers idle.
//!
//! [`temporal_bfs`] is the Figure 10 kernel: identical traversal, but an
//! edge participates only if its timestamp passes the window predicate —
//! dynamic-graph BFS reformulated on a static snapshot "with no additional
//! memory".
//!
//! All entry points are generic over [`GraphView`], so the same traversal
//! runs on a frozen [`snap_core::CsrGraph`] snapshot or directly on a live
//! [`snap_core::DynGraph`] without rebuilding anything.

use rayon::prelude::*;
use snap_core::GraphView;
use std::sync::atomic::{AtomicU32, Ordering};

/// Distance value for unreached vertices.
pub const UNREACHED: u32 = u32::MAX;

/// Frontier vertices with at least this many neighbors get chunked
/// parallel adjacency scans.
const HEAVY_DEGREE: usize = 1 << 12;

/// Live-view frontier chunk: one claim buffer per this many vertices.
const LIVE_CHUNK: usize = 64;

/// Output of a BFS run.
#[derive(Clone, Debug)]
pub struct BfsResult {
    /// Hop distance from the source ([`UNREACHED`] if not reachable).
    pub dist: Vec<u32>,
    /// BFS-tree parent ([`UNREACHED`] for the source and unreached).
    pub parent: Vec<u32>,
}

impl BfsResult {
    /// Number of vertices reached (including the source).
    pub fn reached(&self) -> usize {
        self.dist.iter().filter(|&&d| d != UNREACHED).count()
    }

    /// Maximum finite distance (the eccentricity of the source).
    pub fn max_distance(&self) -> u32 {
        self.dist
            .iter()
            .copied()
            .filter(|&d| d != UNREACHED)
            .max()
            .unwrap_or(0)
    }
}

/// Parallel BFS from `src` over all edges of any [`GraphView`].
pub fn bfs<V: GraphView>(view: &V, src: u32) -> BfsResult {
    bfs_filtered(view, src, |_| true)
}

/// Parallel BFS from `src` using only edges whose timestamp satisfies
/// `pred` — the paper's augmented BFS "with a check for time-stamps".
pub fn temporal_bfs<V: GraphView>(
    view: &V,
    src: u32,
    pred: impl Fn(u32) -> bool + Sync,
) -> BfsResult {
    bfs_filtered(view, src, pred)
}

fn bfs_filtered<V: GraphView>(view: &V, src: u32, pred: impl Fn(u32) -> bool + Sync) -> BfsResult {
    let pred = &pred;
    let n = view.num_vertices();
    assert!((src as usize) < n, "source out of range");
    let dist: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNREACHED)).collect();
    let parent: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNREACHED)).collect();
    // ordering: Relaxed — pre-parallel initialization; the first
    // level's spawn barrier publishes it (invariant 8).
    dist[src as usize].store(0, Ordering::Relaxed);
    let mut frontier = vec![src];
    let mut level = 0u32;
    while !frontier.is_empty() {
        level += 1;
        // Unbalanced-degree optimization: split the frontier by degree.
        let (heavy, light): (Vec<u32>, Vec<u32>) = frontier
            .iter()
            .partition(|&&v| view.degree(v) >= HEAVY_DEGREE);
        // Light vertices: one task per vertex, scanning its whole list.
        // CSR-backed views take the zero-allocation slice path (this is
        // the hottest loop of the BFS family); live views buffer claims
        // per vertex through the callback API.
        let dist_ref = &dist;
        let parent_ref = &parent;
        let mut next: Vec<u32> = if let Some(csr) = view.as_csr() {
            light
                .par_iter()
                .flat_map_iter(|&v| {
                    let ns = csr.neighbors(v);
                    let ts = csr.timestamps(v);
                    ns.iter().zip(ts).filter_map(move |(&w, &t)| {
                        claim(dist_ref, parent_ref, v, w, t, level, pred)
                    })
                })
                .collect()
        } else {
            // Live views buffer claims per *chunk* of frontier vertices,
            // not per vertex: one allocation amortized over up to
            // LIVE_CHUNK whole adjacencies instead of one per vertex.
            light
                .par_chunks(LIVE_CHUNK)
                .flat_map_iter(|chunk| {
                    let mut claimed = Vec::new();
                    for &v in chunk {
                        view.for_each_edge(v, |w, t| {
                            if let Some(w) = claim(dist_ref, parent_ref, v, w, t, level, pred) {
                                claimed.push(w);
                            }
                        });
                    }
                    claimed
                })
                .collect()
        };
        // Heavy vertices: their adjacency arrays are themselves the unit
        // of parallelism (CSR hubs scan their slices in place; live-view
        // hubs materialize once so chunks can be scanned concurrently).
        for &v in &heavy {
            let claimed: Vec<u32> = if let Some(csr) = view.as_csr() {
                csr.neighbors(v)
                    .par_iter()
                    .zip(csr.timestamps(v).par_iter())
                    .filter_map(|(&w, &t)| claim(&dist, &parent, v, w, t, level, pred))
                    .collect()
            } else {
                // Live hubs cannot be range-addressed, so scan through
                // the callback API into one buffer — no `edges_of`
                // materialization. Intra-hub parallelism on live views
                // is the job of `snap-par`'s frontier engine.
                let mut claimed = Vec::new();
                view.for_each_edge(v, |w, t| {
                    if let Some(w) = claim(&dist, &parent, v, w, t, level, pred) {
                        claimed.push(w);
                    }
                });
                claimed
            };
            next.extend(claimed);
        }
        frontier = next;
    }
    BfsResult {
        dist: dist.into_iter().map(|d| d.into_inner()).collect(),
        parent: parent.into_iter().map(|p| p.into_inner()).collect(),
    }
}

/// CAS-claims `w` at `level` through edge `(v, w, t)`; returns `Some(w)` if
/// this call won the race.
#[inline]
fn claim(
    dist: &[AtomicU32],
    parent: &[AtomicU32],
    v: u32,
    w: u32,
    t: u32,
    level: u32,
    pred: &(impl Fn(u32) -> bool + Sync),
) -> Option<u32> {
    if !pred(t) {
        return None;
    }
    // ordering: Relaxed — cheap pre-check; the CAS below is the
    // authoritative claim.
    if dist[w as usize].load(Ordering::Relaxed) != UNREACHED {
        return None;
    }
    // ordering: Relaxed — the CAS's atomicity alone grants the claim
    // (invariant 7); the level value rides in the claimed word and the
    // level join publishes it.
    if dist[w as usize]
        .compare_exchange(UNREACHED, level, Ordering::Relaxed, Ordering::Relaxed)
        .is_ok()
    {
        // ordering: Relaxed — only the claim winner writes w's parent
        // (invariant 7); readers consume it after the BFS completes.
        parent[w as usize].store(v, Ordering::Relaxed);
        Some(w)
    } else {
        None
    }
}

/// Sequential reference BFS (oracle for tests and tiny graphs).
pub fn serial_bfs<V: GraphView>(view: &V, src: u32) -> BfsResult {
    let n = view.num_vertices();
    let mut dist = vec![UNREACHED; n];
    let mut parent = vec![UNREACHED; n];
    let mut queue = std::collections::VecDeque::new();
    dist[src as usize] = 0;
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        view.for_each_edge(v, |w, _| {
            if dist[w as usize] == UNREACHED {
                dist[w as usize] = dist[v as usize] + 1;
                parent[w as usize] = v;
                queue.push_back(w);
            }
        });
    }
    BfsResult { dist, parent }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_core::CsrGraph;
    use snap_rmat::{Rmat, RmatParams, TimedEdge};

    fn line_graph(k: u32) -> CsrGraph {
        let edges: Vec<TimedEdge> = (0..k - 1)
            .map(|i| TimedEdge::new(i, i + 1, i + 1))
            .collect();
        CsrGraph::from_edges_undirected(k as usize, &edges)
    }

    #[test]
    fn line_graph_distances() {
        let g = line_graph(10);
        let r = bfs(&g, 0);
        for v in 0..10u32 {
            assert_eq!(r.dist[v as usize], v);
        }
        assert_eq!(r.max_distance(), 9);
        assert_eq!(r.reached(), 10);
    }

    #[test]
    fn parents_form_a_valid_tree() {
        let g = line_graph(6);
        let r = bfs(&g, 2);
        assert_eq!(r.parent[2], UNREACHED);
        for v in 0..6u32 {
            if v != 2 {
                let p = r.parent[v as usize];
                assert_eq!(r.dist[p as usize] + 1, r.dist[v as usize]);
            }
        }
    }

    #[test]
    fn disconnected_vertices_stay_unreached() {
        let edges = vec![TimedEdge::new(0, 1, 1)];
        let g = CsrGraph::from_edges_undirected(4, &edges);
        let r = bfs(&g, 0);
        assert_eq!(r.dist[1], 1);
        assert_eq!(r.dist[2], UNREACHED);
        assert_eq!(r.dist[3], UNREACHED);
        assert_eq!(r.reached(), 2);
    }

    #[test]
    fn parallel_matches_serial_on_rmat() {
        let rm = Rmat::new(RmatParams::paper(11, 8), 3);
        let g = CsrGraph::from_edges_undirected(1 << 11, &rm.edges());
        let p = bfs(&g, 0);
        let s = serial_bfs(&g, 0);
        assert_eq!(p.dist, s.dist, "parallel BFS distances diverge from oracle");
    }

    #[test]
    fn temporal_filter_prunes_edges() {
        // 0 -(ts 5)- 1 -(ts 50)- 2: window excluding 50 cuts vertex 2 off.
        let edges = vec![TimedEdge::new(0, 1, 5), TimedEdge::new(1, 2, 50)];
        let g = CsrGraph::from_edges_undirected(3, &edges);
        let r = temporal_bfs(&g, 0, |t| t < 10);
        assert_eq!(r.dist[1], 1);
        assert_eq!(r.dist[2], UNREACHED);
        let all = temporal_bfs(&g, 0, |_| true);
        assert_eq!(all.dist[2], 2);
    }

    #[test]
    fn temporal_filter_may_lengthen_paths() {
        // Direct edge 0-2 is out of window; detour 0-1-2 is in window.
        let edges = vec![
            TimedEdge::new(0, 2, 99),
            TimedEdge::new(0, 1, 5),
            TimedEdge::new(1, 2, 6),
        ];
        let g = CsrGraph::from_edges_undirected(3, &edges);
        let r = temporal_bfs(&g, 0, |t| t < 50);
        assert_eq!(r.dist[2], 2, "must route around the filtered edge");
    }

    #[test]
    fn star_exercises_heavy_vertex_path() {
        // A star bigger than HEAVY_DEGREE forces the chunked-scan phase.
        let hub_deg = super::HEAVY_DEGREE as u32 + 100;
        let edges: Vec<TimedEdge> = (1..=hub_deg).map(|v| TimedEdge::new(0, v, 1)).collect();
        let g = CsrGraph::from_edges_undirected(hub_deg as usize + 1, &edges);
        let r = bfs(&g, 0);
        assert_eq!(r.reached(), hub_deg as usize + 1);
        assert!((1..=hub_deg).all(|v| r.dist[v as usize] == 1));
    }

    #[test]
    fn source_only_graph() {
        let g = CsrGraph::from_edges_undirected(1, &[]);
        let r = bfs(&g, 0);
        assert_eq!(r.dist, vec![0]);
        assert_eq!(r.reached(), 1);
    }

    #[test]
    #[should_panic(expected = "source out of range")]
    fn invalid_source_panics() {
        let g = CsrGraph::from_edges_undirected(2, &[]);
        bfs(&g, 5);
    }
}
