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
//! deltas are the incremental fast path; a full rebuild
//! ([`IncrementalIndex::rebuild_from`]) exists only as the sticky
//! fallback for out-of-band mutation ([`crate::indexes`]), behind a
//! shield flag so racing readers never observe the half-reset state.
//!
//! # Concurrency contract
//!
//! Update notes serialize on the internal adjacency lock and are
//! thread-safe. Reads are lock-free and exact at quiescence
//! (bit-identical to the static kernels on the same view); a read
//! racing in-flight deltas may observe a transient mid-delta state —
//! the workspace's bulk-synchronous discipline (apply, then query)
//! gives exact answers, and the serving layer documents racing reads
//! as transient for every index.

use crate::indexes::{IncrementalIndex, IndexCore};
use crate::view::GraphView;
use parking_lot::Mutex;
use snap_rmat::{Update, UpdateKind};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Triangle-index instrumentation, shared process-wide (ZST no-ops
/// without the `obs` feature).
struct TriMetrics {
    deltas: snap_obs::Counter,
    full_rebuilds: snap_obs::Counter,
    shield_events: snap_obs::Counter,
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
            shield_events: r.counter(
                "snap_tri_shield_events_total",
                "Vertices recounted under the rebuild shield",
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
/// use snap_core::{DynGraph, HybridAdj, TriangleIndex};
/// use snap_rmat::TimedEdge;
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
/// g.insert_edge(TimedEdge::new(1, 3, 2));
/// idx.note_insert(1, 3);
/// assert_eq!(idx.triangle_count(), 2);
/// assert_eq!(idx.triangles_of(0), 2);
///
/// // Deleting (0, 1) breaks both triangles.
/// g.delete_edge(0, 1);
/// idx.note_delete(&g, 0, 1);
/// assert_eq!(idx.triangle_count(), 0);
/// assert_eq!(idx.full_rebuild_count(), 0, "pure delta maintenance");
/// ```
pub struct TriangleIndex {
    n: usize,
    /// Per-vertex incident-triangle counts (each triangle counted once
    /// per member), matching `snap_kernels::triangles_per_vertex`.
    tri: Vec<AtomicU64>,
    /// Simple degrees (deduplicated, self-loop-free) — the wedge
    /// denominators for clustering coefficients.
    deg: Vec<AtomicU32>,
    /// Global distinct-triangle count.
    total: AtomicU64,
    /// The index's own sorted simple adjacency — authoritative for
    /// presence (duplicate graph representations collapse here) and the
    /// serialization point for all deltas and rebuilds.
    adj: Mutex<Vec<Vec<u32>>>,
    /// Rebuild shield: raised (under the lock) while counters are being
    /// recomputed wholesale, so lock-free readers re-route around the
    /// half-reset state.
    rebuilding: AtomicBool,
    /// Epoch coupling, note generation and the `full_rebuild_count`
    /// counter (invariant 6; the index derefs to it). Notes bump the generation before they take the
    /// lock, so a rebuild whose view scan races a note's graph mutation
    /// retries.
    core: IndexCore,
    deltas: AtomicUsize,
}

impl TriangleIndex {
    /// Stable-read passes attempted before a racing reader settles for
    /// its latest pass (exactness is only promised at quiescence, where
    /// the first pass is already stable).
    const STABLE_RETRIES: usize = 16;

    /// An index over `n` isolated vertices (zero triangles everywhere).
    pub fn new(n: usize) -> Self {
        Self {
            n,
            tri: (0..n).map(|_| AtomicU64::new(0)).collect(),
            deg: (0..n).map(|_| AtomicU32::new(0)).collect(),
            total: AtomicU64::new(0),
            adj: Mutex::new(vec![Vec::new(); n]),
            rebuilding: AtomicBool::new(false),
            core: IndexCore::default(),
            deltas: AtomicUsize::new(0),
        }
    }

    /// Builds the index from a view (one static count; not recorded as
    /// a rebuild). Directed views are counted over their undirected
    /// simplification, matching the static kernels.
    pub fn from_view<V: GraphView>(view: &V) -> Self {
        let idx = Self::new(view.num_vertices());
        {
            let mut guard = idx.adj.lock();
            idx.recount_locked(&mut guard, view);
        }
        idx
    }

    // ---- update notifications ------------------------------------------

    /// Records an edge insertion: one sorted intersection, then `±1`
    /// deltas on the endpoints and every common neighbor. Returns
    /// `true` if the edge was new to the simple graph (self-loops and
    /// already-present keys are no-ops, which makes notes idempotent
    /// against duplicate representations and rebuild absorption). The
    /// underlying graph does not need to be consulted.
    pub fn note_insert(&self, u: u32, v: u32) -> bool {
        if u == v || (u as usize) >= self.n || (v as usize) >= self.n {
            return false;
        }
        // Bump-before-lock: a rebuild scanning the view concurrently
        // with the caller's graph mutation sees the moved generation
        // and retries; this note then applies idempotently against the
        // rebuilt adjacency once the lock frees (invariant 6).
        self.core.begin_note();
        let mut adj = self.adj.lock();
        let i = match adj[u as usize].binary_search(&v) {
            Ok(_) => return false, // already present in the simple graph
            Err(i) => i,
        };
        adj[u as usize].insert(i, v);
        let j = adj[v as usize]
            .binary_search(&u)
            .expect_err("adjacency symmetry"); // panics: internal invariant — lists are mirrored under the lock
        adj[v as usize].insert(j, u);
        let common = common_neighbors(&adj[u as usize], &adj[v as usize]);
        self.apply_delta(&adj, u, v, &common, true);
        true
    }

    /// Records an edge deletion: the mirror of
    /// [`TriangleIndex::note_insert`]. The caller must have already
    /// removed the edge from `view`; if a representation of the key
    /// still survives there (the routed no-op case), the note does
    /// nothing — the simple graph hasn't changed. Returns `true` if the
    /// edge actually left the simple graph.
    pub fn note_delete<V: GraphView>(&self, view: &V, u: u32, v: u32) -> bool {
        if u == v || (u as usize) >= self.n || (v as usize) >= self.n {
            return false;
        }
        // Bump-before-lock: see `note_insert` (invariant 6).
        self.core.begin_note();
        let mut adj = self.adj.lock();
        let i = match adj[u as usize].binary_search(&v) {
            Ok(i) => i,
            Err(_) => return false, // never present in the simple graph
        };
        // Key-granular contract: only an edge actually gone from the
        // live view changes the simple graph.
        let mut survives = false;
        view.for_each_edge(u, |w, _| {
            if w == v {
                survives = true;
            }
        });
        if survives {
            return false;
        }
        // Intersect *before* unlinking: the dying triangles are exactly
        // the common neighbors while the edge still stands.
        let common = common_neighbors(&adj[u as usize], &adj[v as usize]);
        adj[u as usize].remove(i);
        let j = adj[v as usize]
            .binary_search(&u)
            .expect("adjacency symmetry"); // panics: internal invariant — lists are mirrored under the lock
        adj[v as usize].remove(j);
        self.apply_delta(&adj, u, v, &common, false);
        true
    }

    /// Publishes one edge's triangle delta. Caller holds the adjacency
    /// lock with the lists already updated.
    fn apply_delta(&self, adj: &[Vec<u32>], u: u32, v: u32, common: &[u32], add: bool) {
        // Subtraction is the wrapping add of the negation.
        let signed = |c: u64| if add { c } else { c.wrapping_neg() };
        let c = common.len() as u64;
        // ordering: Release (all stores/RMWs below) — counter
        // publication; paired with the Acquire loads in the read path
        // so a reader that sees a later marker also sees these. Readers
        // racing the group observe a documented transient; exactness is
        // a quiescence property (module docs).
        self.deg[u as usize].store(adj[u as usize].len() as u32, Ordering::Release);
        // ordering: Release — see the group note above.
        self.deg[v as usize].store(adj[v as usize].len() as u32, Ordering::Release);
        // ordering: Release — see the group note above.
        self.tri[u as usize].fetch_add(signed(c), Ordering::Release);
        // ordering: Release — see the group note above.
        self.tri[v as usize].fetch_add(signed(c), Ordering::Release);
        for &w in common {
            // ordering: Release — see the group note above.
            self.tri[w as usize].fetch_add(signed(1), Ordering::Release);
        }
        // ordering: Release — see the group note above.
        self.total.fetch_add(signed(c), Ordering::Release);
        // ordering: Relaxed — statistics counter, no ordering consumed.
        self.deltas.fetch_add(1, Ordering::Relaxed);
        tri_metrics().deltas.inc();
    }

    // ---- reads ---------------------------------------------------------

    /// A read pass that is stable across the rebuild shield: waits out
    /// a rebuild in progress, runs `pass` twice, and returns the second
    /// result once two passes agree (bounded retries — see
    /// [`Self::STABLE_RETRIES`]; under racing deltas the latest pass is
    /// returned as the documented transient).
    fn stable_read<T: PartialEq>(&self, mut pass: impl FnMut(&Self) -> T) -> T {
        let mut last = None;
        for _ in 0..Self::STABLE_RETRIES {
            // ordering: Acquire — pairs with the rebuild's Release flag
            // stores; a clean observation means the counters are not
            // mid-reset (invariant 4: shield publication).
            if self.rebuilding.load(Ordering::Acquire) {
                // The rebuild holds the adjacency lock; queue on it
                // instead of spinning.
                drop(self.adj.lock());
                continue;
            }
            let a = pass(self);
            // ordering: Acquire — double-read stability (invariant 5):
            // if a rebuild raced pass `a`, either this flag is still
            // raised (retry) or the re-read below confirms the final
            // values.
            if self.rebuilding.load(Ordering::Acquire) {
                continue;
            }
            let b = pass(self);
            if a == b {
                return b;
            }
            last = Some(b);
        }
        // panics: unreachable — the loop above always seeds `last`
        // before falling through.
        last.expect("stable_read retries at least once")
    }

    /// Triangles incident to vertex `u` (each triangle counted once per
    /// member vertex) — row `u` of `snap_kernels::triangles_per_vertex`
    /// at quiescence.
    pub fn triangles_of(&self, u: u32) -> u64 {
        // ordering: Acquire — pairs with the delta/rebuild Release
        // publications (see `apply_delta`).
        self.stable_read(|idx| idx.tri[u as usize].load(Ordering::Acquire))
    }

    /// The full per-vertex triangle-count vector — bit-comparable with
    /// `snap_kernels::triangles_per_vertex` on the same view at
    /// quiescence.
    pub fn per_vertex(&self) -> Vec<u64> {
        self.stable_read(|idx| {
            idx.tri
                .iter()
                // ordering: Acquire — see `triangles_of`.
                .map(|t| t.load(Ordering::Acquire))
                .collect()
        })
    }

    /// Total number of distinct triangles — `snap_kernels::triangle_count`
    /// at quiescence.
    pub fn triangle_count(&self) -> u64 {
        // ordering: Acquire — see `triangles_of`.
        self.stable_read(|idx| idx.total.load(Ordering::Acquire))
    }

    /// Average clustering coefficient (the Watts–Strogatz global
    /// measure), computed from the maintained counters with exactly the
    /// static kernel's summation: per-vertex `2·tri / (d·(d−1))` in
    /// vertex order, then the mean — bit-identical to
    /// `snap_kernels::average_clustering` at quiescence.
    pub fn average_clustering(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let (tri, deg) = self.stable_read(|idx| {
            let tri: Vec<u64> = idx
                .tri
                .iter()
                // ordering: Acquire — see `triangles_of`.
                .map(|t| t.load(Ordering::Acquire))
                .collect();
            let deg: Vec<u32> = idx
                .deg
                .iter()
                // ordering: Acquire — see `triangles_of`.
                .map(|d| d.load(Ordering::Acquire))
                .collect();
            (tri, deg)
        });
        let sum: f64 = tri
            .iter()
            .zip(&deg)
            .map(|(&t, &d)| {
                let d = d as u64;
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
        // ordering: Acquire — see `triangles_of`.
        self.stable_read(|idx| idx.deg[u as usize].load(Ordering::Acquire))
    }

    // ---- full rebuild --------------------------------------------------

    /// Rebuilds the internal simple adjacency from the view and
    /// recounts every triangle counter. Caller holds the lock (and the
    /// shield, when readers may race).
    fn recount_locked<V: GraphView>(&self, adj: &mut [Vec<u32>], view: &V) {
        let n = self.n;
        for l in adj.iter_mut() {
            l.clear();
        }
        for u in 0..n as u32 {
            view.for_each_edge(u, |v, _| {
                if v != u {
                    adj[u as usize].push(v);
                }
            });
        }
        // Directed views expose only out-arcs; mirror them so triangles
        // of the undirected simplification are counted (the static
        // kernels do the same).
        if view.is_directed() {
            let mut rev: Vec<Vec<u32>> = vec![Vec::new(); n];
            for (u, out) in adj.iter().enumerate() {
                for &v in out {
                    rev[v as usize].push(u as u32);
                }
            }
            for (out, back) in adj.iter_mut().zip(rev) {
                out.extend(back);
            }
        }
        for l in adj.iter_mut() {
            l.sort_unstable();
            l.dedup();
        }
        let mut total = 0u64;
        for u in 0..n {
            let nu = &adj[u];
            let mut t = 0u64;
            for &v in nu {
                // Each incident triangle {u, v, w} is seen twice from
                // u — once via v, once via w (the static kernel's
                // identity).
                t += common_neighbors(nu, &adj[v as usize]).len() as u64;
            }
            t /= 2;
            total += t;
            // ordering: Release — counter publication under the shield
            // (invariant 4).
            self.tri[u].store(t, Ordering::Release);
            // ordering: Release — see the store above.
            self.deg[u].store(nu.len() as u32, Ordering::Release);
        }
        // ordering: Release — see the stores above.
        self.total.store(total / 3, Ordering::Release);
    }

    // ---- counters ------------------------------------------------------

    /// Number of delta applications (one per effective edge update).
    pub fn delta_count(&self) -> usize {
        // ordering: Relaxed — statistics counter, no ordering consumed.
        self.deltas.load(Ordering::Relaxed)
    }
}

impl std::ops::Deref for TriangleIndex {
    type Target = IndexCore;

    fn deref(&self) -> &IndexCore {
        &self.core
    }
}

impl IncrementalIndex for TriangleIndex {
    fn note<V: GraphView>(&self, view: &V, upd: &Update) {
        match upd.kind {
            UpdateKind::Insert => self.note_insert(upd.edge.u, upd.edge.v),
            UpdateKind::Delete => self.note_delete(view, upd.edge.u, upd.edge.v),
        };
    }

    // Discards all counters and recounts from the view. On `false` the
    // count is a best-effort transient: the notes blocked behind the
    // lock re-apply idempotently against the rebuilt adjacency, and the
    // unrecorded epoch keeps the debt sticky.
    fn rebuild_from<V: GraphView>(&self, view: &V) -> bool {
        assert_eq!(view.num_vertices(), self.n, "vertex count moved");
        let adj = &mut *self.adj.lock();
        let m = tri_metrics();
        m.full_rebuilds.inc();
        // ordering: Release (both stores of the flag) — raised before the
        // counters are touched, so lock-free readers re-route around the
        // reset, and lowered as the recount's publication point whether
        // or not a pass converged (invariant 4). Pairs with the Acquire
        // loads in `stable_read`.
        self.rebuilding.store(true, Ordering::Release); // ordering: see above
        let converged = self.core.rebuild_until_stable(&[], || {
            self.recount_locked(adj, view);
            m.shield_events.add(self.n as u64);
        });
        self.rebuilding.store(false, Ordering::Release); // ordering: see above
        converged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::CapacityHints;
    use crate::dynarr::DynArr;
    use crate::graph::DynGraph;
    use crate::hybrid::HybridAdj;
    use snap_rmat::TimedEdge;

    fn graph<A: crate::adjacency::DynamicAdjacency>(n: usize, edges: &[(u32, u32)]) -> DynGraph<A> {
        let g = DynGraph::undirected(n, &CapacityHints::new(edges.len() * 2 + 8));
        for &(u, v) in edges {
            g.insert_edge(TimedEdge::new(u, v, 1));
        }
        g
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
        g.insert_edge(TimedEdge::new(1, 3, 2));
        assert!(idx.note_insert(1, 3));
        assert_eq!(idx.triangle_count(), 2);
        assert_eq!(idx.per_vertex(), oracle(&g).0);
        g.insert_edge(TimedEdge::new(2, 3, 3));
        assert!(idx.note_insert(2, 3));
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
        g.delete_edge(0, 1);
        assert!(idx.note_delete(&g, 0, 1));
        assert_eq!(idx.triangle_count(), 2);
        assert_eq!(idx.per_vertex(), oracle(&g).0);
        g.delete_edge(2, 3);
        assert!(idx.note_delete(&g, 2, 3));
        assert_eq!(idx.triangle_count(), 0);
        assert_eq!(idx.per_vertex(), vec![0, 0, 0, 0]);
    }

    #[test]
    fn self_loops_and_duplicates_are_noops() {
        let g: DynGraph<DynArr> = graph(3, &[(0, 1), (1, 2), (2, 0)]);
        let idx = TriangleIndex::from_view(&g);
        assert!(!idx.note_insert(1, 1), "self-loop");
        g.insert_edge(TimedEdge::new(0, 1, 9)); // duplicate representation
        assert!(
            !idx.note_insert(0, 1),
            "already present in the simple graph"
        );
        assert_eq!(idx.triangle_count(), 1);
        assert_eq!(idx.delta_count(), 0);
        // The duplicate representation still lives in the view, so the
        // simple edge survives this delete note... but delete_edge is
        // key-granular and removes all representations at once:
        g.delete_edge(0, 1);
        assert!(idx.note_delete(&g, 0, 1));
        assert_eq!(idx.triangle_count(), 0);
    }

    #[test]
    fn surviving_representation_blocks_the_delete_delta() {
        // Drive note_delete without actually removing the edge from the
        // view — the routed-no-op case: the note must refuse the delta.
        let g: DynGraph<DynArr> = graph(3, &[(0, 1), (1, 2), (2, 0)]);
        let idx = TriangleIndex::from_view(&g);
        assert!(!idx.note_delete(&g, 0, 1), "edge still lives in the view");
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
                g.delete_edge(key.0, key.1);
                assert!(idx.note_delete(&g, key.0, key.1));
            } else {
                live.insert(key);
                g.insert_edge(TimedEdge::new(key.0, key.1, 1 + step % 90));
                assert!(idx.note_insert(key.0, key.1));
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
        assert!(idx.rebuild_from(&g));
        assert_eq!(idx.triangle_count(), 1);
        assert_eq!(idx.full_rebuild_count(), 1);
        // And notes keep working against the rebuilt adjacency.
        g.insert_edge(TimedEdge::new(0, 3, 6));
        g.insert_edge(TimedEdge::new(1, 3, 6));
        assert!(idx.note_insert(0, 3));
        assert!(idx.note_insert(1, 3));
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
    fn concurrent_notes_serialize_to_the_oracle() {
        use rayon::prelude::*;
        // Build a K16 in the graph first, then race all the insert
        // notes: the lock serializes the deltas, and idempotence makes
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
        edges.par_iter().for_each(|&(u, v)| {
            assert!(idx.note_insert(u, v));
        });
        let (per, total) = oracle(&g);
        assert_eq!(idx.per_vertex(), per);
        assert_eq!(idx.triangle_count(), total);
        // Now race the deletes of a disjoint half of the edges.
        let victims: Vec<(u32, u32)> = edges.iter().copied().step_by(2).collect();
        for &(u, v) in &victims {
            g.delete_edge(u, v);
        }
        victims.par_iter().for_each(|&(u, v)| {
            assert!(idx.note_delete(&g, u, v));
        });
        let (per, total) = oracle(&g);
        assert_eq!(idx.per_vertex(), per);
        assert_eq!(idx.triangle_count(), total);
        assert_eq!(idx.full_rebuild_count(), 0);
    }

    #[test]
    fn concurrent_reads_during_rebuild_never_see_the_reset() {
        // A rebuild resets counters wholesale; racing readers must
        // either wait it out or double-read to a stable pair — never
        // observe a half-reset total that undercounts below the final
        // value of either side of the race.
        let g: DynGraph<HybridAdj> = graph(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let idx = std::sync::Arc::new(TriangleIndex::from_view(&g));
        std::thread::scope(|s| {
            let i2 = idx.clone();
            let gr = &g;
            s.spawn(move || {
                for _ in 0..50 {
                    i2.rebuild_from(gr);
                }
            });
            for _ in 0..200 {
                // The graph never changes, so every stable answer is 4.
                assert_eq!(idx.triangle_count(), 4);
            }
        });
        assert_eq!(idx.per_vertex(), vec![3, 3, 3, 3]);
    }
}
