//! Incremental triangle counting: per-vertex triangle counts and the
//! global clustering coefficient, maintained through edge insertions
//! and deletions by delta-counting — never recomputed.
//!
//! An edge `(u, v)` participates in exactly one triangle per common
//! neighbor of `u` and `v`. Inserting it therefore adds one triangle
//! per common neighbor `w` (bumping `u`, `v`, and each `w`); deleting
//! it subtracts the same. Each update costs one sorted-list
//! intersection — `O(min(deg(u), deg(v)))`, the same primitive the
//! static kernel (`snap_kernels::triangles_per_vertex`) runs per
//! *wedge*, here paid once per *update*. The index keeps its own
//! sorted, deduplicated, self-loop-free adjacency (the simple
//! undirected simplification, matching the key-granular delete
//! contract), so duplicate representations in the underlying dynamic
//! graph never double-count.
//!
//! Following the [`crate::connectivity::ConnectivityIndex`] template:
//! deltas are the incremental fast path; a full recount
//! ([`IncrementalIndex::resync`]) exists only as the sticky fallback
//! for out-of-band mutation ([`crate::indexes`]).
//!
//! # Concurrency contract
//!
//! The adjacency and the counters are plain data behind one lock
//! ([`crate::indexes`]). An [`IncrementalIndex::absorb`] applies all its
//! deltas under the write lock and reads take the read lock, so a read
//! sees every delta of an absorb or none of them. Deltas are complete,
//! so the index never owes a settle, and its reads take no view.

use crate::indexes::{IncrementalIndex, IndexCore};
use crate::view::GraphView;
use parking_lot::RwLock;
use snap_rmat::{Update, UpdateKind};
use std::sync::OnceLock;

/// Triangle-index instrumentation, shared process-wide (ZST no-ops
/// without the `obs` feature).
struct TriMetrics {
    deltas: snap_obs::Counter,
    full_rebuilds: snap_obs::Counter,
}

fn tri_metrics() -> &'static TriMetrics {
    static M: OnceLock<TriMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = snap_obs::MetricsRegistry::global();
        TriMetrics {
            deltas: r.counter(
                "snap_tri_deltas_total",
                "Triangle-count delta applications (one per effective edge update)",
            ),
            full_rebuilds: r.counter(
                "snap_tri_full_rebuilds_total",
                "Full triangle recounts (delta maintenance keeps this at zero)",
            ),
        }
    })
}

/// Size of the sorted-list intersection, collecting the common
/// elements (the triangle-closing third vertices).
fn common_neighbors(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Incrementally maintained per-vertex triangle counts, global triangle
/// count, and average clustering coefficient. See the
/// [module docs](self) for the delta algorithm and the concurrency
/// contract.
///
/// # Examples
///
/// ```
/// use snap_core::adjacency::CapacityHints;
/// use snap_core::{DynGraph, HybridAdj, IncrementalIndex, TriangleIndex};
/// use snap_rmat::{TimedEdge, Update};
///
/// let g: DynGraph<HybridAdj> = DynGraph::undirected(4, &CapacityHints::new(16));
/// for (u, v) in [(0, 1), (1, 2), (2, 0), (0, 3)] {
///     g.insert_edge(TimedEdge::new(u, v, 1));
/// }
/// let idx = TriangleIndex::from_view(&g);
/// assert_eq!(idx.triangle_count(), 1);
///
/// // Inserting (1, 3) closes a second triangle through 0 — one
/// // intersection, no recount.
/// let chord = Update::insert(TimedEdge::new(1, 3, 2));
/// assert!(g.apply(&chord));
/// idx.absorb(&g, [&chord]);
/// assert_eq!(idx.triangle_count(), 2);
/// assert_eq!(idx.triangles_of(0), 2);
///
/// // Deleting (0, 1) breaks both triangles.
/// let cut = Update::delete(TimedEdge::new(0, 1, 0));
/// assert!(g.apply(&cut));
/// idx.absorb(&g, [&cut]);
/// assert_eq!(idx.triangle_count(), 0);
/// assert_eq!(idx.full_rebuild_count(), 0, "pure delta maintenance");
/// ```
pub struct TriangleIndex {
    n: usize,
    state: RwLock<Counts>,
    /// Epoch coupling and the `full_rebuild_count` counter (invariant
    /// 6; the index derefs to it).
    core: IndexCore,
}

/// Everything a [`TriangleIndex`] maintains, behind its lock.
struct Counts {
    /// The index's own sorted simple adjacency — authoritative for
    /// presence (duplicate graph representations collapse here); a
    /// list's length is the vertex's simple degree, the wedge
    /// denominator of its clustering coefficient.
    adj: Vec<Vec<u32>>,
    /// Per-vertex incident-triangle counts (each triangle counted once
    /// per member), matching `snap_kernels::triangles_per_vertex`.
    tri: Vec<u64>,
    /// Global distinct-triangle count.
    total: u64,
    /// Delta applications so far.
    deltas: usize,
}

impl Counts {
    /// `n` isolated vertices.
    fn new(n: usize) -> Self {
        Self {
            adj: vec![Vec::new(); n],
            tri: vec![0; n],
            total: 0,
            deltas: 0,
        }
    }

    /// Takes an edge insertion: one sorted intersection, then `±1`
    /// deltas on the endpoints and every common neighbor. Self-loops and
    /// keys already in the simple graph are no-ops, which makes inserts
    /// idempotent against duplicate representations. The graph is not
    /// consulted.
    fn insert(&mut self, u: u32, v: u32) {
        let n = self.adj.len();
        if u == v || (u as usize) >= n || (v as usize) >= n {
            return;
        }
        let i = match self.adj[u as usize].binary_search(&v) {
            Ok(_) => return, // already present in the simple graph
            Err(i) => i,
        };
        self.adj[u as usize].insert(i, v);
        let j = self.adj[v as usize]
            .binary_search(&u)
            .expect_err("adjacency symmetry"); // panics: internal invariant — lists are mirrored under the lock
        self.adj[v as usize].insert(j, u);
        let common = common_neighbors(&self.adj[u as usize], &self.adj[v as usize]);
        self.apply_delta(u, v, &common, true);
    }

    /// Takes an edge deletion: the mirror of [`Counts::insert`], applied
    /// only once no representation of the key survives in `view` (the
    /// key-granular delete contract).
    fn delete<V: GraphView>(&mut self, view: &V, u: u32, v: u32) {
        let n = self.adj.len();
        if u == v || (u as usize) >= n || (v as usize) >= n {
            return;
        }
        let i = match self.adj[u as usize].binary_search(&v) {
            Ok(i) => i,
            Err(_) => return, // never present in the simple graph
        };
        // Key-granular contract: only an edge actually gone from the
        // live view changes the simple graph.
        if view.find_edge(u, |w, _| w == v).is_some() {
            return;
        }
        // Intersect *before* unlinking: the dying triangles are exactly
        // the common neighbors while the edge still stands.
        let common = common_neighbors(&self.adj[u as usize], &self.adj[v as usize]);
        self.adj[u as usize].remove(i);
        let j = self.adj[v as usize]
            .binary_search(&u)
            .expect("adjacency symmetry"); // panics: internal invariant — lists are mirrored under the lock
        self.adj[v as usize].remove(j);
        self.apply_delta(u, v, &common, false);
    }

    /// Applies one edge's triangle delta; the lists are already updated.
    fn apply_delta(&mut self, u: u32, v: u32, common: &[u32], add: bool) {
        // Subtraction is the wrapping add of the negation.
        let signed = |c: u64| if add { c } else { c.wrapping_neg() };
        let c = common.len() as u64;
        for x in [u, v] {
            self.tri[x as usize] = self.tri[x as usize].wrapping_add(signed(c));
        }
        for &w in common {
            self.tri[w as usize] = self.tri[w as usize].wrapping_add(signed(1));
        }
        self.total = self.total.wrapping_add(signed(c));
        self.deltas += 1;
        tri_metrics().deltas.inc();
    }

    /// Rebuilds the simple adjacency from the view and recounts every
    /// triangle counter.
    fn recount<V: GraphView>(&mut self, view: &V) {
        let n = self.adj.len();
        for l in self.adj.iter_mut() {
            l.clear();
        }
        for u in 0..n as u32 {
            view.for_each_edge(u, |v, _| {
                if v != u {
                    self.adj[u as usize].push(v);
                }
            });
        }
        // Directed views expose only out-arcs; mirror them so triangles
        // of the undirected simplification are counted (the static
        // kernels do the same).
        if view.is_directed() {
            let mut rev: Vec<Vec<u32>> = vec![Vec::new(); n];
            for (u, out) in self.adj.iter().enumerate() {
                for &v in out {
                    rev[v as usize].push(u as u32);
                }
            }
            for (out, back) in self.adj.iter_mut().zip(rev) {
                out.extend(back);
            }
        }
        for l in self.adj.iter_mut() {
            l.sort_unstable();
            l.dedup();
        }
        let mut total = 0u64;
        for u in 0..n {
            let nu = &self.adj[u];
            // Each incident triangle {u, v, w} is seen twice from u —
            // once via v, once via w (the static kernel's identity).
            let t = nu
                .iter()
                .map(|&v| common_neighbors(nu, &self.adj[v as usize]).len() as u64)
                .sum::<u64>()
                / 2;
            total += t;
            self.tri[u] = t;
        }
        self.total = total / 3;
    }
}

impl TriangleIndex {
    /// An index over `n` isolated vertices (zero triangles everywhere).
    pub fn new(n: usize) -> Self {
        Self {
            n,
            state: RwLock::new(Counts::new(n)),
            core: IndexCore::default(),
        }
    }

    /// Builds the index from a view (one static count; not recorded as
    /// a rebuild). Directed views are counted over their undirected
    /// simplification, matching the static kernels.
    pub fn from_view<V: GraphView>(view: &V) -> Self {
        let idx = Self::new(view.num_vertices());
        idx.state.write().recount(view);
        idx
    }

    // ---- reads ---------------------------------------------------------

    /// Triangles incident to vertex `u` (each triangle counted once per
    /// member vertex) — row `u` of `snap_kernels::triangles_per_vertex`.
    pub fn triangles_of(&self, u: u32) -> u64 {
        self.state.read().tri[u as usize]
    }

    /// The full per-vertex triangle-count vector — bit-comparable with
    /// `snap_kernels::triangles_per_vertex` on the same view.
    pub fn per_vertex(&self) -> Vec<u64> {
        self.state.read().tri.clone()
    }

    /// Total number of distinct triangles — `snap_kernels::triangle_count`.
    pub fn triangle_count(&self) -> u64 {
        self.state.read().total
    }

    /// Average clustering coefficient (the Watts–Strogatz global
    /// measure), computed from the maintained counters with exactly the
    /// static kernel's summation: per-vertex `2·tri / (d·(d−1))` in
    /// vertex order, then the mean — bit-identical to
    /// `snap_kernels::average_clustering`.
    pub fn average_clustering(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let st = self.state.read();
        let sum: f64 = st
            .tri
            .iter()
            .zip(&st.adj)
            .map(|(&t, nbrs)| {
                let d = nbrs.len() as u64;
                if d < 2 {
                    0.0
                } else {
                    2.0 * t as f64 / (d * (d - 1)) as f64
                }
            })
            .sum();
        sum / self.n as f64
    }

    /// Simple degree (deduplicated, self-loop-free) of `u` as the index
    /// sees it — the wedge denominator of its clustering coefficient.
    pub fn degree_of(&self, u: u32) -> u32 {
        self.state.read().adj[u as usize].len() as u32
    }

    /// Number of delta applications (one per effective edge update).
    pub fn delta_count(&self) -> usize {
        self.state.read().deltas
    }
}

impl std::ops::Deref for TriangleIndex {
    type Target = IndexCore;

    fn deref(&self) -> &IndexCore {
        &self.core
    }
}

impl IncrementalIndex for TriangleIndex {
    // Deltas are complete: there is nothing to settle after them.
    fn absorb<'u, V: GraphView>(&self, view: &V, changes: impl IntoIterator<Item = &'u Update>) {
        let mut st = self.state.write();
        for upd in changes {
            let (u, v) = (upd.edge.u, upd.edge.v);
            match upd.kind {
                UpdateKind::Insert => st.insert(u, v),
                UpdateKind::Delete => st.delete(view, u, v),
            }
        }
    }

    // Discards all counters and recounts from the view.
    fn resync<V: GraphView>(&self, view: &V, epoch: u64) {
        self.core.resync(epoch, &self.state, |st| {
            assert_eq!(view.num_vertices(), self.n, "vertex count moved");
            tri_metrics().full_rebuilds.inc();
            st.recount(view);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::{CapacityHints, DynamicAdjacency};
    use crate::dynarr::DynArr;
    use crate::graph::DynGraph;
    use crate::hybrid::HybridAdj;
    use snap_rmat::TimedEdge;

    fn graph<A: DynamicAdjacency>(n: usize, edges: &[(u32, u32)]) -> DynGraph<A> {
        let g = DynGraph::undirected(n, &CapacityHints::new(edges.len() * 2 + 8));
        for &(u, v) in edges {
            g.insert_edge(TimedEdge::new(u, v, 1));
        }
        g
    }

    fn ins(u: u32, v: u32, ts: u32) -> Update {
        Update::insert(TimedEdge::new(u, v, ts))
    }

    fn del(u: u32, v: u32) -> Update {
        Update::delete(TimedEdge::new(u, v, 0))
    }

    /// Applies `upd` to `g`, which it must change, then absorbs it into
    /// `idx`, as an engine's cycle does. Returns whether the index took
    /// a delta.
    fn absorb<A: DynamicAdjacency>(g: &DynGraph<A>, idx: &TriangleIndex, upd: Update) -> bool {
        assert!(g.apply(&upd), "{upd:?} must change the graph");
        let before = idx.delta_count();
        idx.absorb(g, [&upd]);
        idx.delta_count() > before
    }

    /// O(n^3) oracle over the simple undirected simplification.
    fn oracle<V: GraphView>(view: &V) -> (Vec<u64>, u64) {
        let n = view.num_vertices();
        let mut adj = vec![false; n * n];
        for u in 0..n as u32 {
            view.for_each_edge(u, |v, _| {
                if u != v {
                    adj[u as usize * n + v as usize] = true;
                    adj[v as usize * n + u as usize] = true;
                }
            });
        }
        let mut per = vec![0u64; n];
        let mut total = 0u64;
        for a in 0..n {
            for b in a + 1..n {
                if !adj[a * n + b] {
                    continue;
                }
                for c in b + 1..n {
                    if adj[a * n + c] && adj[b * n + c] {
                        per[a] += 1;
                        per[b] += 1;
                        per[c] += 1;
                        total += 1;
                    }
                }
            }
        }
        (per, total)
    }

    #[test]
    fn from_view_matches_oracle() {
        let g: DynGraph<HybridAdj> =
            graph(6, &[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0), (5, 5)]);
        let idx = TriangleIndex::from_view(&g);
        let (per, total) = oracle(&g);
        assert_eq!(idx.per_vertex(), per);
        assert_eq!(idx.triangle_count(), total);
        assert_eq!(idx.triangles_of(0), 2);
        assert_eq!(idx.full_rebuild_count(), 0, "initial count is free");
    }

    #[test]
    fn insert_deltas_count_new_triangles() {
        let g: DynGraph<DynArr> = graph(4, &[(0, 1), (1, 2), (2, 0), (0, 3)]);
        let idx = TriangleIndex::from_view(&g);
        assert_eq!(idx.triangle_count(), 1);
        assert!(absorb(&g, &idx, ins(1, 3, 2)));
        assert_eq!(idx.triangle_count(), 2);
        assert_eq!(idx.per_vertex(), oracle(&g).0);
        assert!(absorb(&g, &idx, ins(2, 3, 3)));
        // K4 now: 4 triangles, 3 per vertex.
        assert_eq!(idx.triangle_count(), 4);
        assert_eq!(idx.per_vertex(), vec![3, 3, 3, 3]);
        assert_eq!(idx.delta_count(), 2);
    }

    #[test]
    fn delete_deltas_remove_dead_triangles() {
        let g: DynGraph<DynArr> = graph(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let idx = TriangleIndex::from_view(&g);
        assert_eq!(idx.triangle_count(), 4);
        assert!(absorb(&g, &idx, del(0, 1)));
        assert_eq!(idx.triangle_count(), 2);
        assert_eq!(idx.per_vertex(), oracle(&g).0);
        assert!(absorb(&g, &idx, del(2, 3)));
        assert_eq!(idx.triangle_count(), 0);
        assert_eq!(idx.per_vertex(), vec![0, 0, 0, 0]);
    }

    #[test]
    fn self_loops_and_duplicates_are_noops() {
        let g: DynGraph<DynArr> = graph(3, &[(0, 1), (1, 2), (2, 0)]);
        let idx = TriangleIndex::from_view(&g);
        assert!(!absorb(&g, &idx, ins(1, 1, 1)), "self-loop");
        assert!(
            !absorb(&g, &idx, ins(0, 1, 9)), // a duplicate representation
            "already present in the simple graph"
        );
        assert_eq!(idx.triangle_count(), 1);
        assert_eq!(idx.delta_count(), 0);
        // Two representations of (0, 1) live in the view, but a delete
        // is key-granular and removes both at once:
        assert!(absorb(&g, &idx, del(0, 1)));
        assert_eq!(idx.triangle_count(), 0);
    }

    #[test]
    fn surviving_representation_blocks_the_delete_delta() {
        // Absorb a delete without removing the edge from the view: the
        // delta must be refused while a representation survives.
        let g: DynGraph<DynArr> = graph(3, &[(0, 1), (1, 2), (2, 0)]);
        let idx = TriangleIndex::from_view(&g);
        idx.absorb(&g, [&del(0, 1)]);
        assert_eq!(idx.delta_count(), 0, "edge still lives in the view");
        assert_eq!(idx.triangle_count(), 1);
        assert_eq!(idx.degree_of(0), 2);
    }

    #[test]
    fn clustering_matches_manual_values() {
        // Triangle 0-1-2 plus pendant 3 on vertex 0: lc = [1/3, 1, 1, 0].
        let g: DynGraph<HybridAdj> = graph(4, &[(0, 1), (1, 2), (2, 0), (0, 3)]);
        let idx = TriangleIndex::from_view(&g);
        let want = (1.0 / 3.0 + 1.0 + 1.0 + 0.0) / 4.0;
        assert!((idx.average_clustering() - want).abs() < 1e-12);
        assert_eq!(idx.degree_of(0), 3);
        // Empty graph edge case.
        let idx = TriangleIndex::new(0);
        assert_eq!(idx.average_clustering(), 0.0);
    }

    #[test]
    fn mixed_stream_tracks_the_oracle() {
        let n = 48usize;
        let g: DynGraph<HybridAdj> = graph(n, &[]);
        let idx = TriangleIndex::from_view(&g);
        let mut rng = snap_util::rng::XorShift64::new(0x7121);
        let mut live: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
        for step in 0..600u32 {
            let u = rng.next_bounded(n as u64) as u32;
            let v = rng.next_bounded(n as u64) as u32;
            if u == v {
                continue;
            }
            let key = (u.min(v), u.max(v));
            if live.contains(&key) {
                live.remove(&key);
                assert!(absorb(&g, &idx, del(key.0, key.1)));
            } else {
                live.insert(key);
                assert!(absorb(&g, &idx, ins(key.0, key.1, 1 + step % 90)));
            }
            if step % 53 == 0 {
                let (per, total) = oracle(&g);
                assert_eq!(idx.per_vertex(), per, "step {step}");
                assert_eq!(idx.triangle_count(), total, "step {step}");
            }
        }
        let (per, total) = oracle(&g);
        assert_eq!(idx.per_vertex(), per);
        assert_eq!(idx.triangle_count(), total);
        assert_eq!(idx.full_rebuild_count(), 0, "never recounted from scratch");
    }

    #[test]
    fn rebuild_absorbs_out_of_band_mutation() {
        let g: DynGraph<DynArr> = graph(4, &[(0, 1), (1, 2)]);
        let idx = TriangleIndex::from_view(&g);
        assert_eq!(idx.triangle_count(), 0);
        g.insert_edge(TimedEdge::new(2, 0, 5)); // the index never hears of it
        idx.resync(&g, 1);
        assert_eq!(idx.triangle_count(), 1);
        assert_eq!(idx.full_rebuild_count(), 1);
        // And absorbs keep working against the rebuilt adjacency.
        assert!(absorb(&g, &idx, ins(0, 3, 6)));
        assert!(absorb(&g, &idx, ins(1, 3, 6)));
        assert_eq!(idx.triangle_count(), 2);
    }

    #[test]
    fn directed_views_count_the_undirected_simplification() {
        let g: DynGraph<DynArr> = DynGraph::directed(3, &CapacityHints::new(8));
        for (u, v) in [(0, 1), (1, 2), (2, 0)] {
            g.insert_edge(TimedEdge::new(u, v, 1));
        }
        let idx = TriangleIndex::from_view(&g);
        assert_eq!(idx.triangle_count(), 1);
        assert_eq!(idx.per_vertex(), vec![1, 1, 1]);
        assert_eq!(idx.degree_of(0), 2, "mirrored arcs, deduplicated");
    }

    #[test]
    fn concurrent_absorbs_serialize_to_the_oracle() {
        use rayon::prelude::*;
        // Build a K16 in the graph first, then race one absorb per
        // insert: the lock serializes the deltas, and idempotence makes
        // the outcome schedule-independent.
        let n = 16usize;
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in u + 1..n as u32 {
                edges.push((u, v));
            }
        }
        let g: DynGraph<HybridAdj> = graph(n, &edges);
        let idx = TriangleIndex::new(n);
        edges
            .par_iter()
            .for_each(|&(u, v)| idx.absorb(&g, [&ins(u, v, 1)]));
        assert_eq!(idx.delta_count(), edges.len());
        let (per, total) = oracle(&g);
        assert_eq!(idx.per_vertex(), per);
        assert_eq!(idx.triangle_count(), total);
        // Now race the deletes of a disjoint half of the edges.
        let victims: Vec<(u32, u32)> = edges.iter().copied().step_by(2).collect();
        for &(u, v) in &victims {
            g.delete_edge(u, v);
        }
        victims
            .par_iter()
            .for_each(|&(u, v)| idx.absorb(&g, [&del(u, v)]));
        assert_eq!(idx.delta_count(), edges.len() + victims.len());
        let (per, total) = oracle(&g);
        assert_eq!(idx.per_vertex(), per);
        assert_eq!(idx.triangle_count(), total);
        assert_eq!(idx.full_rebuild_count(), 0);
    }

    #[test]
    fn concurrent_reads_during_rebuild_never_see_the_reset() {
        // A rebuild resets counters wholesale; racing readers must
        // never observe a half-reset total.
        let g: DynGraph<HybridAdj> = graph(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let idx = std::sync::Arc::new(TriangleIndex::from_view(&g));
        std::thread::scope(|s| {
            let i2 = idx.clone();
            let gr = &g;
            s.spawn(move || {
                for epoch in 1..=50 {
                    i2.resync(gr, epoch);
                }
            });
            for _ in 0..200 {
                // The graph never changes, so every stable answer is 4.
                assert_eq!(idx.triangle_count(), 4);
            }
        });
        assert_eq!(idx.per_vertex(), vec![3, 3, 3, 3]);
        assert_eq!(idx.full_rebuild_count(), 50);
    }
}
