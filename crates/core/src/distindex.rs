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
//!   new best path runs through it. [`DistanceIndex::note_insert`]
//!   compares the stored endpoint distances and, when one side improves,
//!   pushes the improvement outward with CAS-min claims over the live
//!   view — vertices whose distance does not improve are never touched,
//!   so the wavefront is bounded by the size of the improved region.
//! - **Deletions dirty the severed shortest-path subtree, not the
//!   index.** Each maintained distance carries its *certificate*: the
//!   parent edge of a shortest-path tree, packed into the same atomic
//!   word. Deleting an edge can only invalidate vertices whose
//!   certificate chain used it, and the chain's first casualty is an
//!   endpoint whose packed parent **is** the other endpoint.
//!   [`DistanceIndex::note_delete`] therefore marks just those seed
//!   vertices and flags the source dirty; every clean source keeps
//!   serving lock-free.
//! - **Repair is targeted.** The first query touching a dirty source
//!   collects the seeds, closes them over the stored parent tree (every
//!   possibly-stale vertex is a descendant of a seed), folds the intact
//!   frontier into per-vertex external seed distances, and runs a
//!   *restricted* BFS over just the affected set
//!   ([`restricted_hop_distances`]).
//!
//! Distances are canonical (the unique BFS fixpoint), so they are
//! bit-comparable with `serial_bfs` / `par_bfs` on the same view at
//! quiescence. Parents are one valid certificate among possibly many
//! and are *not* canonical across schedules.
//!
//! # Concurrency contract
//!
//! Mutation notes (`note_insert` / `note_delete`) take `&self` and are
//! thread-safe. Queries are safe concurrently with each other,
//! including the repairs they trigger: repairs serialize on an internal
//! lock, a dirty source's shield covers its whole row until the new
//! distances are fully published (invariant 4), and clean answers are
//! double-read for stability. Queries racing *mutations* follow the
//! workspace's bulk-synchronous discipline (apply the batch, then
//! query); see [`crate::indexes`] for the shield protocol and the epoch
//! bookkeeping that detects out-of-band mutation and falls back to a
//! full rebuild.

use crate::indexes::{IncrementalIndex, IndexCore, Shields};
use crate::view::GraphView;
use parking_lot::Mutex;
use snap_rmat::{Update, UpdateKind};
use std::sync::atomic::{AtomicU64, Ordering};
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
    shield_events: snap_obs::Counter,
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
            shield_events: r.counter(
                "snap_dist_shield_events_total",
                "Vertices relabeled under a source shield during repairs and rebuilds",
            ),
        }
    })
}

/// Packs a `(distance, parent)` certificate into one atomic word:
/// distance in the high 32 bits, parent in the low. Unreached is all
/// ones, so the numeric CAS-min order is exactly "shorter distance
/// first". Keeping both halves in one word is what makes the
/// certificate *atomic*: a reader can never observe a new distance with
/// a stale parent or vice versa.
#[inline]
fn pack(dist: u32, parent: u32) -> u64 {
    ((dist as u64) << 32) | parent as u64
}

#[inline]
fn unpack(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

/// Incrementally maintained exact hop distances from `k` pinned sources
/// over a dynamic graph. See the [module docs](self) for the design and
/// the concurrency contract.
///
/// # Examples
///
/// ```
/// use snap_core::adjacency::CapacityHints;
/// use snap_core::{DistanceIndex, DynGraph, HybridAdj};
/// use snap_rmat::TimedEdge;
///
/// let g: DynGraph<HybridAdj> = DynGraph::undirected(6, &CapacityHints::new(16));
/// for (u, v) in [(0, 1), (1, 2), (2, 3)] {
///     g.insert_edge(TimedEdge::new(u, v, 1));
/// }
/// let idx = DistanceIndex::from_view(&g, &[0]);
/// assert_eq!(idx.distance(&g, 0, 3), Some(3));
/// assert_eq!(idx.distance(&g, 0, 5), None, "isolated vertex");
///
/// // An insertion relaxes a bounded wavefront — no recompute.
/// g.insert_edge(TimedEdge::new(0, 3, 5));
/// idx.note_insert(&g, 0, 3);
/// assert_eq!(idx.distance(&g, 0, 3), Some(1));
/// assert_eq!(idx.distance(&g, 0, 2), Some(2), "improvement propagates");
///
/// // A deletion dirty-marks the severed subtree; the next query
/// // triggers a targeted repair over the live view.
/// g.delete_edge(0, 3);
/// idx.note_delete(0, 3);
/// assert_eq!(idx.distance(&g, 0, 3), Some(3));
/// assert_eq!(idx.repair_count(), 1);
/// assert_eq!(idx.full_rebuild_count(), 0);
/// ```
pub struct DistanceIndex {
    /// The pinned sources, in construction order; row `si` of `state`
    /// serves `sources[si]`.
    sources: Vec<u32>,
    n: usize,
    /// `state[si * n + v]` holds `v`'s packed `(distance, parent)`
    /// certificate for source `si` (see [`pack`]). The source's own
    /// entry is `pack(0, source)`; unreached entries are all ones.
    state: Vec<AtomicU64>,
    /// One row per source, one bit per vertex: a raised bit records that
    /// the vertex's certificate edge died and a repair must re-seed
    /// from it (the hint is unused).
    seeds: Shields,
    /// One shield per source: marked by every seed mark, lowered only
    /// when a repair fully publishes the source's new distances.
    /// Queries on a shielded source re-route into the repair path.
    dirty: Shields,
    /// Epoch coupling, note generation and the `repair_count` /
    /// `full_rebuild_count` counters (invariant 6; the index derefs to
    /// it). A repair that sees the generation move across its scan must not
    /// publish as clean: the debt stays sticky.
    core: IndexCore,
    /// Serializes repairs and full rebuilds; clean-source queries never
    /// take it.
    repair_lock: Mutex<()>,
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
        let k = sources.len();
        let state: Vec<AtomicU64> = (0..k * n).map(|_| AtomicU64::new(u64::MAX)).collect();
        for (si, &s) in sources.iter().enumerate() {
            // ordering: Relaxed — single-threaded construction; the
            // caller publishes the index itself.
            state[si * n + s as usize].store(pack(0, s), Ordering::Relaxed);
        }
        Self {
            sources: sources.to_vec(),
            n,
            state,
            seeds: Shields::new(k, n),
            dirty: Shields::new(1, k),
            core: IndexCore::default(),
            repair_lock: Mutex::new(()),
        }
    }

    /// Builds the index from a view: one full BFS per source (the
    /// initial build is not counted as a rebuild).
    pub fn from_view<V: GraphView>(view: &V, sources: &[u32]) -> Self {
        let idx = Self::new(view.num_vertices(), sources);
        for si in 0..idx.sources.len() {
            idx.bfs_row(view, si);
        }
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

    #[inline]
    fn load(&self, si: usize, v: u32) -> (u32, u32) {
        // ordering: Acquire — a read that observes a repair-published
        // certificate must also observe every store that preceded its
        // publication (invariant 4: shield publication; the packed word
        // keeps the certificate internally consistent).
        unpack(self.state[si * self.n + v as usize].load(Ordering::Acquire))
    }

    // ---- update notifications ------------------------------------------

    /// Records an edge insertion by relaxing a bounded wavefront from
    /// whichever endpoint improved, per source, over the live `view`
    /// (which must already contain the edge). Self-loops are distance
    /// no-ops.
    pub fn note_insert<V: GraphView>(&self, view: &V, u: u32, v: u32) {
        if u == v || self.sources.is_empty() {
            return;
        }
        self.core.begin_note();
        for si in 0..self.sources.len() {
            self.relax_from_edge(view, si, u, v);
        }
    }

    /// Records an edge deletion. Per source, the only vertices whose
    /// stored certificate the deletion can invalidate directly are the
    /// endpoints whose packed parent *is* the other endpoint; each such
    /// endpoint is seed-marked and the source flagged dirty (its
    /// descendants are closed over at repair time). Self-loops are
    /// ignored. The caller must have already removed the edge from the
    /// graph.
    pub fn note_delete(&self, u: u32, v: u32) {
        if u == v || self.sources.is_empty() {
            return;
        }
        self.core.begin_note();
        for si in 0..self.sources.len() {
            let (_, pu) = self.load(si, u);
            let (_, pv) = self.load(si, v);
            if pv == u {
                self.mark_seed(si, v);
            }
            if pu == v {
                self.mark_seed(si, u);
            }
        }
    }

    /// Seed-marks `(si, v)` and marks the source shield — in that order,
    /// so a repair entering through the shield finds its seed.
    fn mark_seed(&self, si: usize, v: u32) {
        dist_metrics().dirty_marks.inc();
        self.seeds.raise(self.seeds.at(si, v as usize));
        self.dirty.mark(si);
    }

    /// Chaotic CAS-min relaxation outward from an inserted edge: claim
    /// the better certificate for whichever endpoint improves, then
    /// push the improvement through the live view until no vertex
    /// improves further. Concurrent wavefronts compose: distances only
    /// decrease, and whichever thread lowers a vertex re-scans its
    /// neighborhood with the value it wrote.
    fn relax_from_edge<V: GraphView>(&self, view: &V, si: usize, u: u32, v: u32) {
        let mut queue = std::collections::VecDeque::new();
        let (du, _) = self.load(si, u);
        let (dv, _) = self.load(si, v);
        if du != UNREACHED && du.saturating_add(1) < dv && self.try_improve(si, v, du + 1, u) {
            queue.push_back(v);
        }
        if dv != UNREACHED && dv.saturating_add(1) < du && self.try_improve(si, u, dv + 1, v) {
            queue.push_back(u);
        }
        while let Some(x) = queue.pop_front() {
            let (dx, _) = self.load(si, x);
            if dx == UNREACHED {
                continue;
            }
            view.for_each_edge(x, |w, _| {
                if w != x && self.try_improve(si, w, dx + 1, x) {
                    queue.push_back(w);
                }
            });
        }
    }

    /// CAS-min claim of a shorter certificate for `(si, v)`. Returns
    /// `true` if this call lowered the stored distance.
    fn try_improve(&self, si: usize, v: u32, nd: u32, np: u32) -> bool {
        let slot = &self.state[si * self.n + v as usize];
        let cand = pack(nd, np);
        loop {
            // ordering: Acquire — the claim must compare against the
            // freshest published certificate (invariant 5).
            let cur = slot.load(Ordering::Acquire);
            if nd >= unpack(cur).0 {
                return false;
            }
            // ordering: AcqRel on success — the winning claim is the
            // relaxation's publication point; Relaxed on failure — the
            // loop re-reads through the Acquire load above.
            match slot.compare_exchange_weak(cur, cand, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(_) => return true,
                Err(_) => continue,
            }
        }
    }

    // ---- queries (self-repairing) --------------------------------------

    /// Exact hop distance from pinned `source` to `v` (`None` when
    /// unreachable), repairing the source's row first if a deletion
    /// left it dirty. Panics if `source` was not pinned (see
    /// [`DistanceIndex::sources`]).
    pub fn distance<V: GraphView>(&self, view: &V, source: u32, v: u32) -> Option<u32> {
        let d = self.stable_read(view, source, |si| self.load(si, v).0);
        (d != UNREACHED).then_some(d)
    }

    /// The full distance row for pinned `source` ([`UNREACHED`] for
    /// unreachable vertices), after repairing it if dirty —
    /// bit-comparable with `serial_bfs(view, source).dist` at
    /// quiescence.
    pub fn distances<V: GraphView>(&self, view: &V, source: u32) -> Vec<u32> {
        self.stable_read(view, source, |si| {
            (0..self.n as u32).map(|v| self.load(si, v).0).collect()
        })
    }

    /// Reads from `source`'s row once it is clean (repairing it first if
    /// dirty), returning only a value a second read confirms.
    fn stable_read<V: GraphView, T: PartialEq>(
        &self,
        view: &V,
        source: u32,
        read: impl Fn(usize) -> T,
    ) -> T {
        let si = self.slot(source);
        loop {
            if self.dirty.is_raised(si) {
                self.repair_slot(view, si);
                continue;
            }
            let a = read(si);
            if self.dirty.is_raised(si) {
                continue; // a repair raced the read; retry
            }
            // Double-read stability (invariant 5): observing the shield
            // lowered synchronizes with the repair's publication, so the
            // re-read below sees final certificates; returning only a
            // value the re-read confirms excludes a half-published mix.
            if a == read(si) {
                return a;
            }
        }
    }

    /// True if `source`'s row has pending deletion debt to repair.
    pub fn is_source_dirty(&self, source: u32) -> bool {
        self.dirty.is_raised(self.slot(source))
    }

    /// True if any source may be awaiting repair (the hint may stay
    /// `true` until the next [`IncrementalIndex::repair_all`]).
    pub fn has_dirty(&self) -> bool {
        self.dirty.any_marked()
    }

    // ---- repair --------------------------------------------------------

    /// Targeted repair of row `si`: closes the dead certificates' seeds
    /// over the stored parent tree, seeds each affected vertex with the
    /// best distance it can claim through its *unaffected* neighbors,
    /// recomputes the affected set with [`restricted_hop_distances`],
    /// and re-derives certificate parents from the result. Returns
    /// whether a repair ran (false = the row was already clean).
    /// Repairs serialize on the internal lock, so concurrent queries on
    /// the same dirty source coalesce into one repair.
    fn repair_slot<V: GraphView>(&self, view: &V, si: usize) -> bool {
        let _guard = self.repair_lock.lock();
        if !self.dirty.is_raised(si) {
            // A racing query already repaired this source.
            return false;
        }
        // A note bumping after this read is caught by the re-check after
        // the lower; one counted here may still be marking seeds, which
        // `finish_repair_locked` finds after the lower.
        let gen_at_scan = self.core.generation();
        let n = self.n;
        let source = self.sources[si];
        // Take the seeds (vertices whose certificate edge died). One
        // marked after this point is not this repair's to cover.
        let mut seed_list: Vec<u32> = Vec::new();
        self.seeds.take_row(si, |v| seed_list.push(v as u32));
        if seed_list.is_empty() {
            // Shield without seeds: nothing to recompute; lower it
            // through the guarded lower.
            self.finish_repair_locked(si, Some(gen_at_scan), 0);
            return true;
        }
        // Close the seeds over the stored parent tree: every vertex
        // whose certificate chain passes through a dead edge is a
        // descendant of a seed (parents are published atomically with
        // their distances, so contaminated relaxations are descendants
        // too). Everything else holds an intact chain of live edges and
        // is exact (invariant 3: the repair is targeted).
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
        for v in 0..n as u32 {
            let (_, p) = self.load(si, v);
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
        // External seed distances: the best claim each affected vertex
        // has through the intact frontier (plus the source's own zero,
        // in case a conservative re-shield swept it into the set).
        let ext: Vec<u32> = verts
            .iter()
            .map(|&a| {
                if a == source {
                    return 0;
                }
                let mut best = UNREACHED;
                view.for_each_edge(a, |w, _| {
                    if w != a && !affected[w as usize] {
                        let (dw, _) = self.load(si, w);
                        if dw != UNREACHED && dw.saturating_add(1) < best {
                            best = dw + 1;
                        }
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
        let mut racy = false;
        for (i, &a) in verts.iter().enumerate() {
            let d = dists[i];
            if d == UNREACHED {
                // ordering: Release — certificate publication under the
                // source shield (invariant 4): it is still raised, so a
                // reader either re-routes through the repair path or its
                // Acquire double-read confirms the final value.
                self.state[si * n + a as usize].store(u64::MAX, Ordering::Release);
                continue;
            }
            let mut parent = if d == 0 { a } else { UNREACHED };
            if d > 0 {
                view.for_each_edge(a, |w, _| {
                    if w == a || w >= parent {
                        return;
                    }
                    let dw = if affected[w as usize] {
                        dists[pos[w as usize] as usize]
                    } else {
                        self.load(si, w).0
                    };
                    if dw != UNREACHED && dw + 1 == d {
                        parent = w;
                    }
                });
            }
            if parent == UNREACHED {
                // A finite distance with no certificate edge means the
                // view moved between the relabel and this pass (a racing
                // writer deleted the edge that justified `d`; its note
                // is routed after the graph mutation, so the generation
                // recheck below may not have seen it yet). Publish
                // nothing for this vertex and force the conservative
                // re-shield: the next query recomputes the whole row
                // from the settled view (invariant 6: sticky, never
                // wrong).
                racy = true;
                continue;
            }
            // ordering: Release — certificate publication under the
            // source shield; see the store above (invariant 4).
            self.state[si * n + a as usize].store(pack(d, parent), Ordering::Release);
        }
        self.finish_repair_locked(si, if racy { None } else { Some(gen_at_scan) }, verts.len());
        true
    }

    /// Publishes the repair of source `si` by lowering its shield through
    /// the guarded lower. If a note raced the repair — or `gen_at_scan`
    /// is `None`, when the repair already saw the view move under it —
    /// every vertex becomes a seed, so the next repair recomputes the
    /// whole row (sticky, invariant 6); a race seen before the lower
    /// keeps the shield up. Any seed left then — including one marked
    /// after the repair took its own, which the re-check cannot see —
    /// marks the source again: read after the lower, it includes the
    /// seed of every mark whose shield the lower wiped. Caller holds the
    /// repair lock.
    fn finish_repair_locked(&self, si: usize, gen_at_scan: Option<u64>, relabeled: usize) {
        let raced = gen_at_scan.is_none_or(|gen| {
            self.core.generation() != gen || self.core.lower_guarded(gen, || self.dirty.lower(si))
        });
        if raced {
            self.seeds.raise_row(si);
        }
        let mut owed = false;
        self.seeds.for_each_raised(si, |_| owed = true);
        if owed {
            self.dirty.mark(si);
        }
        self.core.count_repairs(1);
        let m = dist_metrics();
        m.repairs.inc();
        m.shield_events.add(relabeled as u64);
    }

    /// Serial BFS recompute of one source row (stores are
    /// Release-published; callers raise the shield first when readers
    /// may race).
    fn bfs_row<V: GraphView>(&self, view: &V, si: usize) {
        let n = self.n;
        let base = si * n;
        for v in 0..n {
            // ordering: Release — row reset under the caller's shield
            // (invariant 4); construction has no concurrent readers.
            self.state[base + v].store(u64::MAX, Ordering::Release);
        }
        let src = self.sources[si];
        // ordering: Release — see the row reset above.
        self.state[base + src as usize].store(pack(0, src), Ordering::Release);
        let mut dist = vec![UNREACHED; n];
        dist[src as usize] = 0;
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(src);
        while let Some(x) = queue.pop_front() {
            let dx = dist[x as usize];
            view.for_each_edge(x, |w, _| {
                if dist[w as usize] == UNREACHED {
                    dist[w as usize] = dx + 1;
                    // ordering: Release — see the row reset above.
                    self.state[base + w as usize].store(pack(dx + 1, x), Ordering::Release);
                    queue.push_back(w);
                }
            });
        }
    }
}

impl std::ops::Deref for DistanceIndex {
    type Target = IndexCore;

    fn deref(&self) -> &IndexCore {
        &self.core
    }
}

impl IncrementalIndex for DistanceIndex {
    fn note<V: GraphView>(&self, view: &V, upd: &Update) {
        match upd.kind {
            UpdateKind::Insert => self.note_insert(view, upd.edge.u, upd.edge.v),
            UpdateKind::Delete => self.note_delete(upd.edge.u, upd.edge.v),
        }
    }

    // Repairs every dirty source (serial restricted BFS per source).
    fn repair_all<V: GraphView>(&self, view: &V) {
        // Take the hint first: a mark racing this loop sets it again.
        if !self.dirty.take_marks() {
            return;
        }
        self.dirty.for_each_raised(0, |si| {
            self.repair_slot(view, si);
        });
    }

    // Discards every row and recomputes all sources from the view, with
    // every seed and then every source shield raised, so lock-free
    // readers re-route into the (locked) repair path instead of
    // observing the half-reset state. On `false` every source is left
    // marked with a full seed row, so queries recompute from the live
    // view on demand.
    fn rebuild_from<V: GraphView>(&self, view: &V) -> bool {
        assert_eq!(view.num_vertices(), self.n, "vertex count moved");
        let _guard = self.repair_lock.lock();
        let m = dist_metrics();
        m.full_rebuilds.inc();
        self.core
            .rebuild_until_stable(&[&self.seeds, &self.dirty], || {
                for si in 0..self.sources.len() {
                    self.bfs_row(view, si);
                }
                m.shield_events.add((self.sources.len() * self.n) as u64);
            })
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
mod tests {
    use super::*;
    use crate::adjacency::CapacityHints;
    use crate::dynarr::DynArr;
    use crate::graph::DynGraph;
    use crate::hybrid::HybridAdj;
    use crate::view::probe::ProbeView;
    use snap_rmat::TimedEdge;
    use std::sync::atomic::AtomicU32;
    use std::sync::Barrier;

    fn graph<A: crate::adjacency::DynamicAdjacency>(n: usize, edges: &[(u32, u32)]) -> DynGraph<A> {
        let g = DynGraph::undirected(n, &CapacityHints::new(edges.len() * 2 + 8));
        for &(u, v) in edges {
            g.insert_edge(TimedEdge::new(u, v, 1));
        }
        g
    }

    /// Serial BFS oracle row (no kernels dependency from core).
    fn bfs_oracle<V: GraphView>(view: &V, src: u32) -> Vec<u32> {
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
        assert_eq!(idx.distances(&g, 0), bfs_oracle(&g, 0));
        assert_eq!(idx.distances(&g, 5), bfs_oracle(&g, 5));
        assert_eq!(idx.distance(&g, 0, 3), Some(3));
        assert_eq!(idx.distance(&g, 0, 7), None, "other component");
        assert_eq!(idx.distance(&g, 5, 7), Some(2));
        assert_eq!(idx.full_rebuild_count(), 0, "initial build is free");
    }

    #[test]
    fn insert_wavefront_improves_exactly_the_shortened_region() {
        let g: DynGraph<DynArr> = graph(8, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let idx = DistanceIndex::from_view(&g, &[0]);
        assert_eq!(idx.distance(&g, 0, 5), Some(5));
        g.insert_edge(TimedEdge::new(0, 4, 9));
        idx.note_insert(&g, 0, 4);
        assert_eq!(idx.distance(&g, 0, 4), Some(1));
        assert_eq!(idx.distance(&g, 0, 5), Some(2));
        assert_eq!(idx.distance(&g, 0, 3), Some(2), "improves via 4 too");
        assert_eq!(idx.distance(&g, 0, 1), Some(1), "untouched prefix");
        assert_eq!(idx.distances(&g, 0), bfs_oracle(&g, 0));
        assert_eq!(idx.repair_count(), 0, "insertions never need repair");
    }

    #[test]
    fn insert_reaching_new_vertices_extends_the_row() {
        let g: DynGraph<DynArr> = graph(6, &[(0, 1), (3, 4)]);
        let idx = DistanceIndex::from_view(&g, &[0]);
        assert_eq!(idx.distance(&g, 0, 3), None);
        g.insert_edge(TimedEdge::new(1, 3, 2));
        idx.note_insert(&g, 1, 3);
        assert_eq!(idx.distance(&g, 0, 3), Some(2));
        assert_eq!(idx.distance(&g, 0, 4), Some(3), "reaches the tail");
        assert_eq!(idx.distances(&g, 0), bfs_oracle(&g, 0));
    }

    #[test]
    fn self_loops_are_distance_noops() {
        let g: DynGraph<DynArr> = graph(4, &[(0, 1), (2, 2)]);
        let idx = DistanceIndex::from_view(&g, &[0]);
        idx.note_insert(&g, 1, 1);
        idx.note_delete(2, 2);
        assert!(!idx.has_dirty(), "self-loops never dirty a source");
        assert_eq!(idx.distances(&g, 0), bfs_oracle(&g, 0));
        assert_eq!(idx.repair_count(), 0);
    }

    #[test]
    fn deletion_dirties_only_sources_whose_tree_used_the_edge() {
        // Path 0-1-2-3 and a separate pair 5-6: deleting (5, 6) cannot
        // touch source 0's tree.
        let g: DynGraph<HybridAdj> = graph(8, &[(0, 1), (1, 2), (2, 3), (5, 6)]);
        let idx = DistanceIndex::from_view(&g, &[0, 5]);
        g.delete_edge(5, 6);
        idx.note_delete(5, 6);
        assert!(!idx.is_source_dirty(0), "source 0's tree is intact");
        assert!(idx.is_source_dirty(5));
        assert_eq!(idx.distance(&g, 5, 6), None);
        assert_eq!(idx.distances(&g, 0), bfs_oracle(&g, 0));
        assert_eq!(idx.repair_count(), 1, "only source 5 repaired");
    }

    #[test]
    fn deletion_with_detour_repairs_to_the_longer_path() {
        // 0-1-2 chain plus chord 0-3-2: deleting (1, 2) reroutes 2
        // through the detour at distance 2.
        let g: DynGraph<DynArr> = graph(5, &[(0, 1), (1, 2), (0, 3), (3, 2)]);
        let idx = DistanceIndex::from_view(&g, &[0]);
        assert_eq!(idx.distance(&g, 0, 2), Some(2));
        g.delete_edge(1, 2);
        idx.note_delete(1, 2);
        assert_eq!(idx.distance(&g, 0, 2), Some(2), "via the detour");
        assert_eq!(idx.distance(&g, 0, 1), Some(1), "kept certificate");
        assert_eq!(idx.distances(&g, 0), bfs_oracle(&g, 0));
        assert!(idx.repair_count() >= 1);
        assert_eq!(idx.full_rebuild_count(), 0);
    }

    #[test]
    fn deletion_disconnecting_a_subtree_marks_it_unreached() {
        let g: DynGraph<DynArr> = graph(6, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let idx = DistanceIndex::from_view(&g, &[0]);
        g.delete_edge(1, 2);
        idx.note_delete(1, 2);
        assert_eq!(idx.distance(&g, 0, 2), None);
        assert_eq!(idx.distance(&g, 0, 4), None, "whole subtree cut off");
        assert_eq!(idx.distance(&g, 0, 1), Some(1));
        assert_eq!(idx.distances(&g, 0), bfs_oracle(&g, 0));
    }

    #[test]
    fn deletion_of_non_tree_edge_is_repaired_cheaply() {
        // Triangle 0-1-2: one of the two unit paths to 2 survives
        // whichever edge was the certificate.
        let g: DynGraph<DynArr> = graph(3, &[(0, 1), (1, 2), (0, 2)]);
        let idx = DistanceIndex::from_view(&g, &[0]);
        g.delete_edge(0, 2);
        idx.note_delete(0, 2);
        assert_eq!(idx.distance(&g, 0, 2), Some(2), "via 1 now");
        assert_eq!(idx.distances(&g, 0), bfs_oracle(&g, 0));
    }

    #[test]
    fn clean_query_burst_triggers_no_repairs() {
        let g: DynGraph<DynArr> = graph(16, &[(0, 1), (1, 2), (4, 5)]);
        let idx = DistanceIndex::from_view(&g, &[0, 4]);
        for _ in 0..64 {
            assert_eq!(idx.distance(&g, 0, 2), Some(2));
            assert_eq!(idx.distance(&g, 4, 5), Some(1));
            assert_eq!(idx.distance(&g, 0, 4), None);
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
                g.delete_edge(key.0, key.1);
                idx.note_delete(key.0, key.1);
            } else {
                live.insert(key);
                g.insert_edge(TimedEdge::new(key.0, key.1, 1 + step % 90));
                idx.note_insert(&g, key.0, key.1);
            }
            if step % 37 == 0 {
                assert_eq!(idx.distances(&g, 0), bfs_oracle(&g, 0), "step {step}");
                assert_eq!(idx.distances(&g, 17), bfs_oracle(&g, 17), "step {step}");
            }
        }
        assert_eq!(idx.distances(&g, 0), bfs_oracle(&g, 0));
        assert_eq!(idx.distances(&g, 17), bfs_oracle(&g, 17));
        assert_eq!(idx.full_rebuild_count(), 0, "never recomputed from scratch");
    }

    #[test]
    fn repair_reads_only_the_affected_set() {
        let g: DynGraph<DynArr> = graph(5, &[(0, 1), (1, 2), (2, 3)]);
        let idx = DistanceIndex::from_view(&g, &[0]);
        g.delete_edge(1, 2);
        idx.note_delete(1, 2);
        // The affected set is the severed subtree {2, 3}; nothing else's
        // adjacency is read.
        let view = ProbeView::new(&g);
        assert!(idx.repair_slot(&view, 0));
        assert_eq!(view.read_set(), [2, 3]);
        assert!(!idx.is_source_dirty(0));
        assert_eq!(idx.distance(&g, 0, 3), None);
        let view = ProbeView::new(&g);
        assert!(!idx.repair_slot(&view, 0), "already clean");
        assert_eq!(view.read_count(), 0);
    }

    #[test]
    fn rebuild_from_resets_and_counts() {
        let g: DynGraph<DynArr> = graph(4, &[(0, 1)]);
        let idx = DistanceIndex::from_view(&g, &[0]);
        // Out-of-band mutation the index never saw:
        g.insert_edge(TimedEdge::new(1, 2, 1));
        assert!(idx.rebuild_from(&g));
        assert_eq!(idx.distance(&g, 0, 2), Some(2));
        assert_eq!(idx.full_rebuild_count(), 1);
        assert_eq!(idx.distances(&g, 0), bfs_oracle(&g, 0));
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
        // Build the whole path first (graph mutations), then race all
        // the index notifications: CAS-min wavefronts must converge to
        // the BFS fixpoint whatever the interleaving.
        for i in 0..n as u32 - 1 {
            g.insert_edge(TimedEdge::new(i, i + 1, 1));
        }
        let idx = DistanceIndex::new(n, &[0]);
        (0..n as u32 - 1).into_par_iter().for_each(|i| {
            idx.note_insert(&g, i, i + 1);
        });
        assert_eq!(idx.distances(&g, 0), bfs_oracle(&g, 0));
        assert_eq!(idx.repair_count(), 0);
    }

    #[test]
    fn concurrent_queries_with_repair_agree() {
        use rayon::prelude::*;
        // Two chains joined by a bridge; cut the bridge, then query
        // from many threads: every post-quiescence answer must see the
        // split, and the repairs coalesce.
        let n = 256usize;
        let mut edges: Vec<(u32, u32)> = (0..127).map(|i| (i, i + 1)).collect();
        edges.extend((128..255).map(|i| (i, i + 1)));
        edges.push((0, 128)); // the bridge
        let g: DynGraph<DynArr> = graph(n, &edges);
        let idx = DistanceIndex::from_view(&g, &[0]);
        assert_eq!(idx.distance(&g, 0, 255), Some(128));
        g.delete_edge(0, 128);
        idx.note_delete(0, 128);
        (0..64u32).into_par_iter().for_each(|q| {
            assert_eq!(idx.distance(&g, 0, 128 + (q % 128)), None, "cut off");
            assert_eq!(idx.distance(&g, 0, q % 128), Some(q % 128));
        });
        assert_eq!(idx.repair_count(), 1, "queries coalesce into one repair");
        assert_eq!(idx.full_rebuild_count(), 0);
    }

    #[test]
    fn racing_deletes_and_repairs_leave_no_stale_row() {
        // Regression: a repair lowered a source shield over seed marks it
        // never covered — one landing between its generation re-check and
        // its lower, or one whose note bumped before the repair's sample
        // but marked after its seed collection — and the row stayed
        // stale. Each round releases, at once, one deleting thread per
        // spoke (graph first, then note) and as many more; all query, and
        // so repair, until every spoke is deleted.
        const SPOKES: u32 = 4;
        const ROUNDS: u32 = 2000;
        // The hub 0 is every spoke's certificate parent; the spokes sit
        // on a path whose last one also reaches the hub through `far`.
        let far = SPOKES + 1;
        let mut edges: Vec<(u32, u32)> = (1..=SPOKES).map(|s| (0, s)).collect();
        edges.extend((1..SPOKES).map(|s| (s, s + 1)));
        edges.extend([(0, far), (far, SPOKES)]);
        let g: DynGraph<DynArr> = graph(far as usize + 1, &edges);
        let idx = DistanceIndex::from_view(&g, &[0]);
        let threads = 2 * SPOKES as usize + 1;
        let (start, end) = (Barrier::new(threads), Barrier::new(threads));
        let deleted = AtomicU32::new(0);
        // Recorded, not asserted, inside the scope: a panic there would
        // leave the other threads waiting at the barrier for good.
        let mut stale = None;
        std::thread::scope(|s| {
            for t in 0..2 * SPOKES {
                let (g, idx, start, end, deleted) = (&g, &idx, &start, &end, &deleted);
                let spoke = 1 + t % SPOKES;
                s.spawn(move || {
                    for _ in 0..ROUNDS {
                        start.wait();
                        if t < SPOKES {
                            assert!(g.delete_edge(0, spoke));
                            idx.note_delete(0, spoke);
                            // ordering: Relaxed — a progress count; the
                            // barriers order everything the check reads.
                            deleted.fetch_add(1, Ordering::Relaxed);
                        }
                        // ordering: Relaxed — see the count above.
                        while deleted.load(Ordering::Relaxed) < SPOKES {
                            idx.distance(g, 0, spoke);
                            std::thread::yield_now();
                        }
                        end.wait();
                        end.wait(); // the checker restores the spokes
                    }
                });
            }
            for round in 0..ROUNDS {
                start.wait();
                end.wait();
                idx.repair_all(&g);
                if idx.has_dirty() || idx.distances(&g, 0) != bfs_oracle(&g, 0) {
                    stale.get_or_insert(round);
                }
                for spoke in 1..=SPOKES {
                    g.insert_edge(TimedEdge::new(0, spoke, 1));
                    idx.note_insert(&g, 0, spoke);
                }
                // ordering: Relaxed — reset between the barriers.
                deleted.store(0, Ordering::Relaxed);
                end.wait();
            }
        });
        assert_eq!(stale, None, "the first round that left a stale row");
        assert_eq!(idx.full_rebuild_count(), 0);
    }

    #[test]
    fn empty_and_sourceless_indexes() {
        let g: DynGraph<DynArr> = graph(0, &[]);
        let idx = DistanceIndex::from_view(&g, &[]);
        assert!(!idx.has_dirty());
        let g: DynGraph<DynArr> = graph(4, &[(0, 1)]);
        let idx = DistanceIndex::from_view(&g, &[]);
        idx.note_insert(&g, 1, 2);
        idx.note_delete(0, 1);
        assert!(!idx.has_dirty(), "no sources, no debt");
        assert_eq!(idx.sources(), &[] as &[u32]);
    }

    #[test]
    #[should_panic(expected = "source not pinned")]
    fn unpinned_source_panics() {
        let g: DynGraph<DynArr> = graph(4, &[(0, 1)]);
        let idx = DistanceIndex::from_view(&g, &[0]);
        idx.distance(&g, 3, 0);
    }
}
