//! Incremental hop-distance serving: exact BFS distances from pinned
//! sources, maintained through edge insertions and deletions.
//!
//! The paper's dynamic-analysis thesis is that answers should be
//! *maintained* through the update stream, not recomputed per query.
//! [`crate::connectivity::ConnectivityIndex`] does that for
//! reachability; this module does it for the next query up the ladder —
//! *how far is `v` from source `s` right now?* — without paying a BFS
//! per query or per batch:
//!
//! - **Insertions relax a bounded wavefront.** An inserted edge
//!   `(u, v)` can only *shorten* distances, and only for vertices whose
//!   new best path runs through it. An absorbed insertion compares the
//!   stored endpoint distances and, when one side improves,
//!   pushes the improvement outward over the live view — vertices whose
//!   distance does not improve are never touched, so the wavefront is
//!   bounded by the size of the improved region.
//! - **Deletions dirty the severed shortest-path subtree, not the
//!   index.** Each maintained distance carries its *certificate*: the
//!   parent edge of a shortest-path tree. Deleting an edge can only
//!   invalidate vertices whose certificate chain used it, and the
//!   chain's first casualty is an endpoint whose parent **is** the other
//!   endpoint. An absorbed deletion therefore marks just those seed
//!   vertices and flags the source dirty; every clean source keeps its
//!   row as it is.
//! - **Repair is targeted.** The settle that ends every
//!   [`IncrementalIndex::absorb`] collects a dirty source's seeds,
//!   closes them over the stored parent tree (every possibly-stale
//!   vertex is a descendant of a seed), folds the intact frontier into
//!   per-vertex external seed distances, and runs a *restricted* BFS over
//!   just the affected set ([`restricted_hop_distances`]).
//!
//! Distances are canonical (the unique BFS fixpoint), so they are
//! bit-comparable with `serial_bfs` / `par_bfs` on the same view once
//! settled. Parents are one valid certificate among possibly many and
//! are *not* canonical across schedules.
//!
//! # Concurrency contract
//!
//! The rows, their certificates and the seed / dirty marks are plain
//! data behind one lock ([`crate::indexes`]). Absorbs and rebuilds take
//! it for writing and leave nothing owed, so a query is a plain read
//! under the read lock and takes no view. An absorb reads the view, so
//! it must not race a mutation of it; both engines absorb on their one
//! writer, after the cycle's mutation.

use crate::csr::RowSet;
use crate::indexes::{IncrementalIndex, IndexCore};
use crate::view::GraphView;
use parking_lot::RwLock;
use snap_rmat::{Update, UpdateKind};
use std::sync::OnceLock;

/// Distance value for unreached vertices (mirrors the kernels' BFS
/// convention).
pub const UNREACHED: u32 = u32::MAX;

/// Distance-index instrumentation, shared by every index in the process
/// (ZST no-ops without the `obs` feature). The per-index counters in
/// [`IndexCore`] stay authoritative for the public API; these aggregate
/// across indexes for scraping.
struct DistMetrics {
    dirty_marks: snap_obs::Counter,
    repairs: snap_obs::Counter,
    full_rebuilds: snap_obs::Counter,
}

fn dist_metrics() -> &'static DistMetrics {
    static M: OnceLock<DistMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = snap_obs::MetricsRegistry::global();
        DistMetrics {
            dirty_marks: r.counter(
                "snap_dist_dirty_marks_total",
                "Shortest-path-tree vertices seed-marked by deletions",
            ),
            repairs: r.counter(
                "snap_dist_repairs_total",
                "Targeted distance repairs (one dirty source each)",
            ),
            full_rebuilds: r.counter(
                "snap_dist_full_rebuilds_total",
                "Full distance rebuilds (incremental maintenance keeps this at zero)",
            ),
        }
    })
}

/// Incrementally maintained exact hop distances from `k` pinned sources
/// over a dynamic graph. See the [module docs](self) for the design and
/// the concurrency contract.
///
/// # Examples
///
/// ```
/// use snap_core::adjacency::CapacityHints;
/// use snap_core::{DistanceIndex, DynGraph, HybridAdj, IncrementalIndex};
/// use snap_rmat::{TimedEdge, Update};
///
/// let g: DynGraph<HybridAdj> = DynGraph::undirected(6, &CapacityHints::new(16));
/// for (u, v) in [(0, 1), (1, 2), (2, 3)] {
///     g.insert_edge(TimedEdge::new(u, v, 1));
/// }
/// let idx = DistanceIndex::from_view(&g, &[0]);
/// assert_eq!(idx.distance(0, 3), Some(3));
/// assert_eq!(idx.distance(0, 5), None, "isolated vertex");
///
/// // An insertion relaxes a bounded wavefront — no recompute.
/// let shortcut = Update::insert(TimedEdge::new(0, 3, 5));
/// assert!(g.apply(&shortcut));
/// idx.absorb(&g, [&shortcut]);
/// assert_eq!(idx.distance(0, 3), Some(1));
/// assert_eq!(idx.distance(0, 2), Some(2), "improvement propagates");
///
/// // A deletion dirty-marks the severed subtree, and the absorb
/// // repairs just that over the live view.
/// let cut = Update::delete(TimedEdge::new(0, 3, 0));
/// assert!(g.apply(&cut));
/// idx.absorb(&g, [&cut]);
/// assert_eq!(idx.distance(0, 3), Some(3));
/// assert_eq!(idx.repair_count(), 1);
/// assert_eq!(idx.full_rebuild_count(), 0);
/// ```
pub struct DistanceIndex {
    /// The pinned sources, in construction order; row `si` of the state
    /// serves `sources[si]`.
    sources: Vec<u32>,
    n: usize,
    state: RwLock<Rows>,
    /// Epoch coupling and the `repair_count` / `full_rebuild_count`
    /// counters (invariant 6; the index derefs to it).
    core: IndexCore,
}

/// Everything a [`DistanceIndex`] maintains, behind its lock: one row of
/// `n` entries per source.
struct Rows {
    n: usize,
    /// `dist[si * n + v]`: `v`'s hop distance from source `si`
    /// ([`UNREACHED`] when unreached).
    dist: Vec<u32>,
    /// `parent[si * n + v]`: `v`'s certificate, its parent in source
    /// `si`'s shortest-path tree (the source is its own parent;
    /// [`UNREACHED`] when unreached).
    parent: Vec<u32>,
    /// Per source: the vertices whose certificate edge died, which the
    /// source's repair re-seeds from.
    seeds: Vec<RowSet>,
    /// The sources owing a repair.
    dirty: RowSet,
}

impl Rows {
    /// Rows for `sources` over `n` isolated vertices.
    fn new(n: usize, sources: &[u32]) -> Self {
        let k = sources.len();
        let mut rows = Self {
            n,
            dist: vec![UNREACHED; k * n],
            parent: vec![UNREACHED; k * n],
            seeds: (0..k).map(|_| RowSet::new(n)).collect(),
            dirty: RowSet::new(k),
        };
        for (si, &s) in sources.iter().enumerate() {
            rows.dist[si * n + s as usize] = 0;
            rows.parent[si * n + s as usize] = s;
        }
        rows
    }

    /// Every row recomputed from `view` by a serial BFS, nothing owed.
    fn rebuild<V: GraphView>(&mut self, view: &V, sources: &[u32]) {
        *self = Self::new(self.n, sources);
        for (si, &src) in sources.iter().enumerate() {
            let base = si * self.n;
            let mut queue = std::collections::VecDeque::from([src]);
            while let Some(x) = queue.pop_front() {
                let dx = self.dist[base + x as usize];
                view.for_each_edge(x, |w, _| {
                    if self.dist[base + w as usize] == UNREACHED {
                        self.dist[base + w as usize] = dx + 1;
                        self.parent[base + w as usize] = x;
                        queue.push_back(w);
                    }
                });
            }
        }
    }

    /// Takes one confirmed change (self-loops are distance no-ops).
    fn take<V: GraphView>(&mut self, view: &V, upd: &Update) {
        let (u, v) = (upd.edge.u, upd.edge.v);
        if u == v {
            return;
        }
        match upd.kind {
            UpdateKind::Insert => {
                for si in 0..self.seeds.len() {
                    self.relax_from_edge(view, si, u, v);
                }
            }
            UpdateKind::Delete => self.mark_cut(u, v),
        }
    }

    /// Seed-marks, per source, the endpoints whose certificate *is* the
    /// deleted edge `(u, v)` — the only ones it can invalidate directly —
    /// and flags that source dirty (the repair closes over their
    /// descendants).
    fn mark_cut(&mut self, u: u32, v: u32) {
        for si in 0..self.seeds.len() {
            let base = si * self.n;
            if self.parent[base + v as usize] == u {
                self.mark_seed(si, v);
            }
            if self.parent[base + u as usize] == v {
                self.mark_seed(si, u);
            }
        }
    }

    fn mark_seed(&mut self, si: usize, v: u32) {
        dist_metrics().dirty_marks.inc();
        self.seeds[si].insert(v);
        self.dirty.insert(si as u32);
    }

    /// Relaxation outward from an inserted edge `(u, v)`, which `view`
    /// already holds: take the better certificate for whichever endpoint
    /// improves, then push the improvement through the live view until
    /// no vertex improves further.
    fn relax_from_edge<V: GraphView>(&mut self, view: &V, si: usize, u: u32, v: u32) {
        let base = si * self.n;
        let mut queue = std::collections::VecDeque::new();
        let (du, dv) = (self.dist[base + u as usize], self.dist[base + v as usize]);
        if du != UNREACHED && du + 1 < dv {
            self.dist[base + v as usize] = du + 1;
            self.parent[base + v as usize] = u;
            queue.push_back(v);
        }
        if dv != UNREACHED && dv + 1 < du {
            self.dist[base + u as usize] = dv + 1;
            self.parent[base + u as usize] = v;
            queue.push_back(u);
        }
        while let Some(x) = queue.pop_front() {
            let nd = self.dist[base + x as usize] + 1;
            view.for_each_edge(x, |w, _| {
                if nd < self.dist[base + w as usize] {
                    self.dist[base + w as usize] = nd;
                    self.parent[base + w as usize] = x;
                    queue.push_back(w);
                }
            });
        }
    }

    /// Repairs every dirty source.
    fn settle<V: GraphView>(&mut self, view: &V, sources: &[u32], core: &IndexCore) {
        let dirty: Vec<u32> = self.dirty.iter().collect();
        for si in dirty {
            self.repair_row(view, si as usize, sources[si as usize]);
            core.count_repairs(1);
            dist_metrics().repairs.inc();
        }
        self.dirty.clear();
    }

    /// Targeted repair of row `si`: closes the dead certificates' seeds
    /// over the stored parent tree, seeds each affected vertex with the
    /// best distance it can claim through its *unaffected* neighbors,
    /// recomputes the affected set with [`restricted_hop_distances`],
    /// and re-derives certificate parents from the result.
    fn repair_row<V: GraphView>(&mut self, view: &V, si: usize, source: u32) {
        let n = self.n;
        let base = si * n;
        let seed_list: Vec<u32> = self.seeds[si].iter().collect();
        self.seeds[si].clear();
        // Close the seeds over the stored parent tree: every vertex
        // whose certificate chain passes through a dead edge is a
        // descendant of a seed. Everything else holds an intact chain of
        // live edges and is exact (invariant 3: the repair is targeted).
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
        for v in 0..n as u32 {
            let p = self.parent[base + v as usize];
            if p != UNREACHED && p != v {
                children[p as usize].push(v);
            }
        }
        let mut affected = vec![false; n];
        let mut stack = seed_list.clone();
        for &s in &seed_list {
            affected[s as usize] = true;
        }
        while let Some(x) = stack.pop() {
            for &c in &children[x as usize] {
                if !affected[c as usize] {
                    affected[c as usize] = true;
                    stack.push(c);
                }
            }
        }
        let verts: Vec<u32> = (0..n as u32).filter(|&v| affected[v as usize]).collect();
        let dist = &self.dist[base..base + n];
        // External seed distances: the best claim each affected vertex
        // has through the intact frontier (and the source its own zero).
        let ext: Vec<u32> = verts
            .iter()
            .map(|&a| {
                if a == source {
                    return 0;
                }
                let mut best = UNREACHED;
                view.for_each_edge(a, |w, _| {
                    let dw = dist[w as usize];
                    if w != a && !affected[w as usize] && dw != UNREACHED && dw + 1 < best {
                        best = dw + 1;
                    }
                });
                best
            })
            .collect();
        let dists = restricted_hop_distances(view, &verts, &ext);
        // Position lookup for in-set neighbors during parent recompute.
        let mut pos = vec![u32::MAX; n];
        for (i, &a) in verts.iter().enumerate() {
            pos[a as usize] = i as u32;
        }
        // Certificates first, from the distances as they stand (an
        // affected neighbour's new one is looked up), then the stores.
        let parents: Vec<u32> = verts
            .iter()
            .zip(&dists)
            .map(|(&a, &d)| {
                match d {
                    UNREACHED => return UNREACHED,
                    0 => return a,
                    _ => {}
                }
                // The smallest neighbour one hop closer; a finite
                // distance always has one, since the view cannot change
                // under the lock.
                let mut parent = UNREACHED;
                view.for_each_edge(a, |w, _| {
                    let dw = if affected[w as usize] {
                        dists[pos[w as usize] as usize]
                    } else {
                        dist[w as usize]
                    };
                    if w != a && w < parent && dw != UNREACHED && dw + 1 == d {
                        parent = w;
                    }
                });
                debug_assert_ne!(parent, UNREACHED, "a finite distance has a certificate");
                parent
            })
            .collect();
        for ((&a, &d), &p) in verts.iter().zip(&dists).zip(&parents) {
            self.dist[base + a as usize] = d;
            self.parent[base + a as usize] = p;
        }
    }
}

impl DistanceIndex {
    /// An index over `n` isolated vertices with the given pinned
    /// sources (each source at distance 0 from itself). Sources must be
    /// in range and duplicate-free.
    pub fn new(n: usize, sources: &[u32]) -> Self {
        assert!(
            sources.iter().all(|&s| (s as usize) < n),
            "source out of range"
        );
        let mut dedup = sources.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), sources.len(), "duplicate source");
        Self {
            sources: sources.to_vec(),
            n,
            state: RwLock::new(Rows::new(n, sources)),
            core: IndexCore::default(),
        }
    }

    /// Builds the index from a view: one full BFS per source (the
    /// initial build is not counted as a rebuild).
    pub fn from_view<V: GraphView>(view: &V, sources: &[u32]) -> Self {
        let idx = Self::new(view.num_vertices(), sources);
        idx.state.write().rebuild(view, sources);
        idx
    }

    /// The pinned sources, in construction order.
    pub fn sources(&self) -> &[u32] {
        &self.sources
    }

    /// Row slot of a pinned source.
    ///
    /// # Panics
    ///
    /// Panics if `source` was not pinned at construction — distance
    /// queries for unpinned sources have no maintained row to serve
    /// from.
    fn slot(&self, source: u32) -> usize {
        // panics: documented API contract — the message names the fix.
        self.sources
            .iter()
            .position(|&s| s == source)
            .expect("source not pinned; pass it to DistanceIndex::new/from_view")
    }

    /// Row `source`, read under the read lock: nothing is ever owed
    /// outside an absorb.
    fn read_row<R>(&self, source: u32, read: impl Fn(&[u32]) -> R) -> R {
        let si = self.slot(source);
        read(&self.state.read().dist[si * self.n..(si + 1) * self.n])
    }

    /// Exact hop distance from pinned `source` to `v` (`None` when
    /// unreachable).
    ///
    /// # Panics
    ///
    /// If `source` was not pinned (see [`DistanceIndex::sources`]) or
    /// `v` is not a vertex of the index.
    pub fn distance(&self, source: u32, v: u32) -> Option<u32> {
        assert!(
            (v as usize) < self.n,
            "vertex {v} out of range for a distance index over {} vertices",
            self.n
        );
        let d = self.read_row(source, |row| row[v as usize]);
        (d != UNREACHED).then_some(d)
    }

    /// The full distance row for pinned `source` ([`UNREACHED`] for
    /// unreachable vertices) — bit-comparable with
    /// `serial_bfs(view, source).dist` on the view it last absorbed.
    pub fn distances(&self, source: u32) -> Vec<u32> {
        self.read_row(source, <[u32]>::to_vec)
    }
}

impl std::ops::Deref for DistanceIndex {
    type Target = IndexCore;

    fn deref(&self) -> &IndexCore {
        &self.core
    }
}

impl IncrementalIndex for DistanceIndex {
    fn absorb<'u, V: GraphView>(&self, view: &V, changes: impl IntoIterator<Item = &'u Update>) {
        let mut rows = self.state.write();
        for upd in changes {
            rows.take(view, upd);
        }
        rows.settle(view, &self.sources, &self.core);
    }

    // Discards every row and recomputes all sources from the view.
    fn resync<V: GraphView>(&self, view: &V, epoch: u64) {
        self.core.resync(epoch, &self.state, |rows| {
            assert_eq!(view.num_vertices(), self.n, "vertex count moved");
            dist_metrics().full_rebuilds.inc();
            rows.rebuild(view, &self.sources);
        });
    }
}

/// Serial restricted multi-seed BFS: the fixpoint of
///
/// `d[i] = min(ext[i], min over in-set neighbors j of d[j] + 1)`
///
/// over `verts` (ascending) with external seed distances `ext`
/// ([`UNREACHED`] = no claim from outside the set). Edges leaving
/// `verts` are ignored — the caller folds the intact frontier into
/// `ext`. This is the relabeler of the index's targeted repair.
pub fn restricted_hop_distances<V: GraphView>(view: &V, verts: &[u32], ext: &[u32]) -> Vec<u32> {
    assert_eq!(verts.len(), ext.len(), "one seed distance per member");
    debug_assert!(
        verts.windows(2).all(|w| w[0] < w[1]),
        "verts must be ascending"
    );
    // Dial's bucket queue: unit weights advance one bucket at a time,
    // and finite distances are bounded by max(ext) + |verts|.
    let mut dist = ext.to_vec();
    let mut buckets: Vec<Vec<u32>> = Vec::new();
    for (i, &d) in dist.iter().enumerate() {
        if d != UNREACHED {
            if buckets.len() <= d as usize {
                buckets.resize(d as usize + 1, Vec::new());
            }
            buckets[d as usize].push(i as u32);
        }
    }
    let mut cur = 0usize;
    while cur < buckets.len() {
        while let Some(i) = buckets[cur].pop() {
            if (dist[i as usize] as usize) < cur {
                continue; // superseded entry
            }
            let nd = cur as u32 + 1;
            view.for_each_edge(verts[i as usize], |w, _| {
                if let Ok(j) = verts.binary_search(&w) {
                    if nd < dist[j] {
                        dist[j] = nd;
                        if buckets.len() <= nd as usize {
                            buckets.resize(nd as usize + 1, Vec::new());
                        }
                        buckets[nd as usize].push(j as u32);
                    }
                }
            });
        }
        cur += 1;
    }
    dist
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::adjacency::{CapacityHints, DynamicAdjacency};
    use crate::dynarr::DynArr;
    use crate::graph::DynGraph;
    use crate::hybrid::HybridAdj;
    use crate::view::probe::ProbeView;
    use snap_rmat::TimedEdge;

    fn graph<A: DynamicAdjacency>(n: usize, edges: &[(u32, u32)]) -> DynGraph<A> {
        let g = DynGraph::undirected(n, &CapacityHints::new(edges.len() * 2 + 8));
        for &(u, v) in edges {
            g.insert_edge(TimedEdge::new(u, v, 1));
        }
        g
    }

    fn ins(u: u32, v: u32) -> Update {
        Update::insert(TimedEdge::new(u, v, 1))
    }

    fn del(u: u32, v: u32) -> Update {
        Update::delete(TimedEdge::new(u, v, 0))
    }

    /// Applies `upd` to `g`, which it must change, and absorbs it into
    /// `idx`, as an engine's cycle does.
    fn absorb<A: DynamicAdjacency>(g: &DynGraph<A>, idx: &DistanceIndex, upd: Update) {
        assert!(g.apply(&upd), "{upd:?} must change the graph");
        idx.absorb(g, [&upd]);
    }

    /// Serial BFS oracle row (no kernels dependency from core).
    pub(crate) fn bfs_oracle<V: GraphView>(view: &V, src: u32) -> Vec<u32> {
        let n = view.num_vertices();
        let mut dist = vec![UNREACHED; n];
        dist[src as usize] = 0;
        let mut q = std::collections::VecDeque::new();
        q.push_back(src);
        while let Some(x) = q.pop_front() {
            let dx = dist[x as usize];
            view.for_each_edge(x, |w, _| {
                if dist[w as usize] == UNREACHED {
                    dist[w as usize] = dx + 1;
                    q.push_back(w);
                }
            });
        }
        dist
    }

    #[test]
    fn from_view_matches_bfs_per_source() {
        let g: DynGraph<HybridAdj> = graph(10, &[(0, 1), (1, 2), (2, 3), (5, 6), (6, 7)]);
        let idx = DistanceIndex::from_view(&g, &[0, 5]);
        assert_eq!(idx.distances(0), bfs_oracle(&g, 0));
        assert_eq!(idx.distances(5), bfs_oracle(&g, 5));
        assert_eq!(idx.distance(0, 3), Some(3));
        assert_eq!(idx.distance(0, 7), None, "other component");
        assert_eq!(idx.distance(5, 7), Some(2));
        assert_eq!(idx.full_rebuild_count(), 0, "initial build is free");
    }

    #[test]
    fn insert_wavefront_improves_exactly_the_shortened_region() {
        let g: DynGraph<DynArr> = graph(8, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let idx = DistanceIndex::from_view(&g, &[0]);
        assert_eq!(idx.distance(0, 5), Some(5));
        absorb(&g, &idx, Update::insert(TimedEdge::new(0, 4, 9)));
        assert_eq!(idx.distance(0, 4), Some(1));
        assert_eq!(idx.distance(0, 5), Some(2));
        assert_eq!(idx.distance(0, 3), Some(2), "improves via 4 too");
        assert_eq!(idx.distance(0, 1), Some(1), "untouched prefix");
        assert_eq!(idx.distances(0), bfs_oracle(&g, 0));
        assert_eq!(idx.repair_count(), 0, "insertions never need repair");
    }

    #[test]
    fn insert_reaching_new_vertices_extends_the_row() {
        let g: DynGraph<DynArr> = graph(6, &[(0, 1), (3, 4)]);
        let idx = DistanceIndex::from_view(&g, &[0]);
        assert_eq!(idx.distance(0, 3), None);
        absorb(&g, &idx, Update::insert(TimedEdge::new(1, 3, 2)));
        assert_eq!(idx.distance(0, 3), Some(2));
        assert_eq!(idx.distance(0, 4), Some(3), "reaches the tail");
        assert_eq!(idx.distances(0), bfs_oracle(&g, 0));
    }

    #[test]
    fn self_loops_are_distance_noops() {
        let g: DynGraph<DynArr> = graph(4, &[(0, 1), (2, 2)]);
        let idx = DistanceIndex::from_view(&g, &[0]);
        absorb(&g, &idx, ins(1, 1));
        absorb(&g, &idx, del(2, 2));
        assert_eq!(idx.distances(0), bfs_oracle(&g, 0));
        assert_eq!(idx.repair_count(), 0, "self-loops never dirty a source");
    }

    #[test]
    fn deletion_dirties_only_sources_whose_tree_used_the_edge() {
        // Path 0-1-2-3 and a separate pair 5-6: deleting (5, 6) cannot
        // touch source 0's tree.
        let g: DynGraph<HybridAdj> = graph(8, &[(0, 1), (1, 2), (2, 3), (5, 6)]);
        let idx = DistanceIndex::from_view(&g, &[0, 5]);
        absorb(&g, &idx, del(5, 6));
        assert_eq!(idx.distance(5, 6), None);
        assert_eq!(idx.distances(0), bfs_oracle(&g, 0));
        assert_eq!(idx.repair_count(), 1, "only source 5 repaired");
    }

    #[test]
    fn deletion_with_detour_repairs_to_the_longer_path() {
        // 0-1-2 chain plus chord 0-3-2: deleting (1, 2) reroutes 2
        // through the detour at distance 2.
        let g: DynGraph<DynArr> = graph(5, &[(0, 1), (1, 2), (0, 3), (3, 2)]);
        let idx = DistanceIndex::from_view(&g, &[0]);
        assert_eq!(idx.distance(0, 2), Some(2));
        absorb(&g, &idx, del(1, 2));
        assert_eq!(idx.distance(0, 2), Some(2), "via the detour");
        assert_eq!(idx.distance(0, 1), Some(1), "kept certificate");
        assert_eq!(idx.distances(0), bfs_oracle(&g, 0));
        assert!(idx.repair_count() >= 1);
        assert_eq!(idx.full_rebuild_count(), 0);
    }

    #[test]
    fn deletion_disconnecting_a_subtree_marks_it_unreached() {
        let g: DynGraph<DynArr> = graph(6, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let idx = DistanceIndex::from_view(&g, &[0]);
        absorb(&g, &idx, del(1, 2));
        assert_eq!(idx.distance(0, 2), None);
        assert_eq!(idx.distance(0, 4), None, "whole subtree cut off");
        assert_eq!(idx.distance(0, 1), Some(1));
        assert_eq!(idx.distances(0), bfs_oracle(&g, 0));
    }

    #[test]
    fn deletion_of_non_tree_edge_is_repaired_cheaply() {
        // Triangle 0-1-2: one of the two unit paths to 2 survives
        // whichever edge was the certificate.
        let g: DynGraph<DynArr> = graph(3, &[(0, 1), (1, 2), (0, 2)]);
        let idx = DistanceIndex::from_view(&g, &[0]);
        absorb(&g, &idx, del(0, 2));
        assert_eq!(idx.distance(0, 2), Some(2), "via 1 now");
        assert_eq!(idx.distances(0), bfs_oracle(&g, 0));
    }

    #[test]
    fn clean_query_burst_triggers_no_repairs() {
        let g: DynGraph<DynArr> = graph(16, &[(0, 1), (1, 2), (4, 5)]);
        let idx = DistanceIndex::from_view(&g, &[0, 4]);
        for _ in 0..64 {
            assert_eq!(idx.distance(0, 2), Some(2));
            assert_eq!(idx.distance(4, 5), Some(1));
            assert_eq!(idx.distance(0, 4), None);
        }
        assert_eq!(idx.repair_count(), 0);
        assert_eq!(idx.full_rebuild_count(), 0);
    }

    #[test]
    fn mixed_stream_tracks_the_oracle() {
        let n = 64usize;
        let g: DynGraph<HybridAdj> = graph(n, &[]);
        let idx = DistanceIndex::from_view(&g, &[0, 17]);
        let mut rng = snap_util::rng::XorShift64::new(0xD157);
        let mut live: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
        for step in 0..400u32 {
            let u = rng.next_bounded(n as u64) as u32;
            let v = rng.next_bounded(n as u64) as u32;
            if u == v {
                continue;
            }
            let key = (u.min(v), u.max(v));
            if live.contains(&key) {
                live.remove(&key);
                absorb(&g, &idx, del(key.0, key.1));
            } else {
                live.insert(key);
                let e = TimedEdge::new(key.0, key.1, 1 + step % 90);
                absorb(&g, &idx, Update::insert(e));
            }
            if step % 37 == 0 {
                assert_eq!(idx.distances(0), bfs_oracle(&g, 0), "step {step}");
                assert_eq!(idx.distances(17), bfs_oracle(&g, 17), "step {step}");
            }
        }
        assert_eq!(idx.distances(0), bfs_oracle(&g, 0));
        assert_eq!(idx.distances(17), bfs_oracle(&g, 17));
        assert_eq!(idx.full_rebuild_count(), 0, "never recomputed from scratch");
    }

    #[test]
    fn repair_reads_only_the_affected_set() {
        let g: DynGraph<DynArr> = graph(5, &[(0, 1), (1, 2), (2, 3)]);
        let idx = DistanceIndex::from_view(&g, &[0]);
        let cut = del(1, 2);
        assert!(g.apply(&cut));
        // The affected set is the severed subtree {2, 3}; nothing else's
        // adjacency is read.
        let view = ProbeView::new(&g);
        idx.absorb(&view, [&cut]);
        assert_eq!(view.read_set(), [2, 3]);
        assert_eq!(idx.distance(0, 3), None);
        assert_eq!(idx.distance(0, 2), None);
        assert_eq!(idx.repair_count(), 1);
    }

    #[test]
    fn resync_rebuilds_and_counts() {
        let g: DynGraph<DynArr> = graph(4, &[(0, 1)]);
        let idx = DistanceIndex::from_view(&g, &[0]);
        // Out-of-band mutation the index never saw:
        g.insert_edge(TimedEdge::new(1, 2, 1));
        idx.resync(&g, 1);
        assert_eq!(idx.distance(0, 2), Some(2));
        assert_eq!(idx.full_rebuild_count(), 1);
        assert_eq!(idx.distances(0), bfs_oracle(&g, 0));
    }

    #[test]
    fn restricted_distances_match_oracle_on_closed_sets() {
        let g: DynGraph<HybridAdj> = graph(10, &[(2, 4), (4, 6), (6, 8), (3, 5)]);
        // Whole component with the root seeded at zero = its BFS row.
        let got =
            restricted_hop_distances(&g, &[2, 4, 6, 8], &[0, UNREACHED, UNREACHED, UNREACHED]);
        assert_eq!(got, vec![0, 1, 2, 3]);
        // External claims compete with in-set relaxation.
        let got = restricted_hop_distances(&g, &[4, 6, 8], &[1, UNREACHED, 2]);
        assert_eq!(got, vec![1, 2, 2]);
        // No seeds: nothing is reachable.
        let got = restricted_hop_distances(&g, &[3, 5], &[UNREACHED, UNREACHED]);
        assert_eq!(got, vec![UNREACHED, UNREACHED]);
    }

    #[test]
    fn concurrent_insert_wavefronts_converge() {
        use rayon::prelude::*;
        let n = 1024usize;
        let g: DynGraph<HybridAdj> = graph(n, &[]);
        // Build the whole path first (graph mutations), then race one
        // absorb per edge: the write lock serializes the wavefronts,
        // which must reach the BFS fixpoint in any order.
        let path: Vec<Update> = (0..n as u32 - 1).map(|i| ins(i, i + 1)).collect();
        for upd in &path {
            assert!(g.apply(upd));
        }
        let idx = DistanceIndex::new(n, &[0]);
        path.par_iter().for_each(|upd| idx.absorb(&g, [upd]));
        assert_eq!(idx.distances(0), bfs_oracle(&g, 0));
        assert_eq!(idx.repair_count(), 0);
    }

    #[test]
    fn concurrent_queries_with_repair_agree() {
        use rayon::prelude::*;
        // Two chains joined by a bridge; cut the bridge, then query
        // from many threads: every answer must see the split, and the
        // one repair ran inside the absorb.
        let n = 256usize;
        let mut edges: Vec<(u32, u32)> = (0..127).map(|i| (i, i + 1)).collect();
        edges.extend((128..255).map(|i| (i, i + 1)));
        edges.push((0, 128)); // the bridge
        let g: DynGraph<DynArr> = graph(n, &edges);
        let idx = DistanceIndex::from_view(&g, &[0]);
        assert_eq!(idx.distance(0, 255), Some(128));
        absorb(&g, &idx, del(0, 128));
        (0..64u32).into_par_iter().for_each(|q| {
            assert_eq!(idx.distance(0, 128 + (q % 128)), None, "cut off");
            assert_eq!(idx.distance(0, q % 128), Some(q % 128));
        });
        assert_eq!(idx.repair_count(), 1, "one repair, in the absorb");
        assert_eq!(idx.full_rebuild_count(), 0);
    }

    #[test]
    fn empty_and_sourceless_indexes() {
        let g: DynGraph<DynArr> = graph(0, &[]);
        let idx = DistanceIndex::from_view(&g, &[]);
        idx.absorb(&g, &[]);
        assert_eq!(idx.repair_count(), 0);
        let g: DynGraph<DynArr> = graph(4, &[(0, 1)]);
        let idx = DistanceIndex::from_view(&g, &[]);
        absorb(&g, &idx, ins(1, 2));
        absorb(&g, &idx, del(0, 1));
        assert_eq!(idx.repair_count(), 0, "no sources, no debt");
        assert_eq!(idx.sources(), &[] as &[u32]);
    }

    #[test]
    #[should_panic(expected = "vertex 6 out of range for a distance index over 6 vertices")]
    fn out_of_range_vertex_panics() {
        // Row 0 ends where row 1 (source 5) begins: an unchecked index
        // would read source 5's distance to vertex 0.
        let path: Vec<(u32, u32)> = (0..5).map(|i| (i, i + 1)).collect();
        let g: DynGraph<DynArr> = graph(6, &path);
        let idx = DistanceIndex::from_view(&g, &[0, 5]);
        idx.distance(0, 6);
    }

    #[test]
    #[should_panic(expected = "source not pinned")]
    fn unpinned_source_panics() {
        let g: DynGraph<DynArr> = graph(4, &[(0, 1)]);
        let idx = DistanceIndex::from_view(&g, &[0]);
        idx.distance(3, 0);
    }
}
