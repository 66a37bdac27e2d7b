//! The epoch-tagged snapshot cache over one dynamic graph
//! ([`SnapshotManager`]): every mutation goes through the one batch
//! applier ([`crate::engine`]), bumps the epoch only on actual change,
//! and routes into the attached index family ([`crate::indexes`]); a CSR
//! snapshot is rebuilt lazily, at most once per epoch.

use crate::adjacency::DynamicAdjacency;
use crate::connectivity::ConnectivityIndex;
use crate::csr::{CsrGraph, SnapshotRace};
use crate::distindex::DistanceIndex;
use crate::engine::apply_vpart_indexed;
use crate::graph::DynGraph;
use crate::indexes::{IndexFamily, IndexQuery, IndexRoutes};
use crate::triindex::TriangleIndex;
use parking_lot::Mutex;
use snap_rmat::{TimedEdge, Update};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Epoch-tagged snapshot cache over a dynamic graph.
///
/// The paper's kernels run on CSR snapshots; rebuilding one costs
/// O(n + m). A serving workload interleaves update batches with *bursts*
/// of queries, so paying that rebuild per query (or even per batch when
/// no query arrives) is pure waste. `SnapshotManager` makes the rebuild
/// lazy and amortized:
///
/// - every mutation (single update or batch) bumps a monotone *epoch*;
/// - [`SnapshotManager::snapshot`] returns a cached [`Arc<CsrGraph>`]
///   and rebuilds only when the epoch moved since the cached build —
///   a burst of traversal-heavy queries between batches pays for at
///   most one rebuild;
/// - cheap queries skip CSR entirely by reading the
///   [live view](crate::view::GraphView) via [`SnapshotManager::live`].
///
/// # Consistency
///
/// Mutations take `&self` and are thread-safe, like the underlying
/// representations. `snapshot()` performs best between batches (the
/// paper's bulk-synchronous discipline), but it is safe concurrently
/// with writers: a detected race ([`SnapshotRace`]) makes
/// [`SnapshotManager::try_snapshot`] return `Err` and
/// [`SnapshotManager::snapshot`] retry — never a panic. Workloads where
/// writers never quiesce should serve reads from the multi-version
/// publication path in [`crate::serve`] instead of retrying here.
///
/// # Index serving
///
/// [`SnapshotManager::enable_connectivity`],
/// [`SnapshotManager::enable_distances`] and
/// [`SnapshotManager::enable_triangles`] attach members of the
/// incremental index family ([`crate::indexes`]): from then on every
/// update routed through the manager also maintains them, and
/// [`SnapshotManager::indexes`] answers `same_component`,
/// `hop_distance`, `triangle_count` and friends with **no CSR rebuild
/// and no full recompute**. Validity is epoch-coupled: mutations applied
/// behind the manager's back (via [`SnapshotManager::live`] +
/// [`SnapshotManager::mark_dirty`]) leave an index's absorbed epoch
/// behind, and its next query detects the gap and pays one counted full
/// rebuild.
///
/// # Examples
///
/// ```
/// use snap_core::adjacency::CapacityHints;
/// use snap_core::{DynGraph, HybridAdj, SnapshotManager};
/// use snap_rmat::{StreamBuilder, TimedEdge};
///
/// let edges = vec![TimedEdge::new(0, 1, 1), TimedEdge::new(1, 2, 2)];
/// let hints = CapacityHints::new(edges.len() * 2);
/// let mgr = SnapshotManager::new(DynGraph::<HybridAdj>::undirected(3, &hints));
/// mgr.apply_batch(&StreamBuilder::new(&edges, 1).construction());
///
/// // Cheap live probes never build a snapshot ...
/// assert_eq!(mgr.live().degree(1), 2);
/// assert_eq!(mgr.rebuild_count(), 0);
///
/// // ... and a burst of snapshot reads pays for exactly one rebuild.
/// let csr = mgr.snapshot();
/// assert_eq!(csr.num_entries(), 4);
/// let again = mgr.snapshot();
/// assert_eq!(mgr.rebuild_count(), 1);
///
/// // Index queries need neither.
/// mgr.enable_connectivity();
/// assert!(mgr.indexes().same_component(0, 2));
/// assert_eq!(mgr.rebuild_count(), 1);
/// ```
pub struct SnapshotManager<A: DynamicAdjacency> {
    graph: DynGraph<A>,
    /// Monotone mutation counter; `snapshot` compares it to the cached
    /// build's epoch to decide whether a rebuild is due, and every index
    /// query compares it to the index's absorbed epoch.
    epoch: AtomicU64,
    /// Held across "step every attached index, then publish the epoch",
    /// so racing routed changes step in epoch order (invariant 6).
    epoch_lock: Mutex<()>,
    cache: Mutex<SnapshotCache>,
    rebuilds: AtomicUsize,
    indexes: IndexFamily,
}

struct SnapshotCache {
    epoch: u64,
    csr: Option<Arc<CsrGraph>>,
}

impl<A: DynamicAdjacency> SnapshotManager<A> {
    /// Wraps a dynamic graph. The first [`SnapshotManager::snapshot`]
    /// call builds the initial CSR.
    pub fn new(graph: DynGraph<A>) -> Self {
        Self {
            graph,
            epoch: AtomicU64::new(0),
            epoch_lock: Mutex::new(()),
            cache: Mutex::new(SnapshotCache {
                epoch: 0,
                csr: None,
            }),
            rebuilds: AtomicUsize::new(0),
            indexes: IndexFamily::default(),
        }
    }

    /// The live graph, for direct queries through
    /// [`crate::view::GraphView`] with zero snapshot cost.
    pub fn live(&self) -> &DynGraph<A> {
        &self.graph
    }

    /// Consumes the manager, returning the wrapped graph.
    pub fn into_inner(self) -> DynGraph<A> {
        self.graph
    }

    /// Current mutation epoch.
    pub fn epoch(&self) -> u64 {
        // ordering: Acquire — pairs with the Release epoch publications
        // so a reader that observes epoch e also observes the mutations
        // it covers (invariant 1: epoch-coupled validity).
        self.epoch.load(Ordering::Acquire)
    }

    /// True when the cached snapshot (if any) reflects every applied
    /// update — i.e. the next [`SnapshotManager::snapshot`] is free.
    pub fn is_clean(&self) -> bool {
        let cache = self.cache.lock();
        cache.csr.is_some() && cache.epoch == self.epoch()
    }

    /// Number of CSR rebuilds performed so far (the quantity the epoch
    /// cache exists to minimize).
    pub fn rebuild_count(&self) -> usize {
        // ordering: Relaxed — statistics counter (invariant 9).
        self.rebuilds.load(Ordering::Relaxed)
    }

    /// Marks the graph dirty without going through the manager's update
    /// methods (escape hatch for callers mutating `live()` directly).
    /// The attached indexes are *not* stepped, so the next query on each
    /// pays one full rebuild: that is the detection mechanism.
    pub fn mark_dirty(&self) {
        self.publish_epoch(IndexRoutes::default());
    }

    /// Publishes the next epoch as one ordered action: under the epoch
    /// lock, step every index in `routes` to it, then store it. Racing
    /// routed changes therefore step in epoch order — without the lock
    /// the later epoch's exact step could run first, fail, and leave
    /// every index one epoch behind for good. `mark_dirty` passes no
    /// routes, so its gap stays open under every later step. `routes`
    /// must be the bundle captured at the *start* of the mutation: a
    /// change was not routed into an index attached after that, and
    /// stepping its epoch anyway would hide exactly that gap.
    fn publish_epoch(&self, routes: IndexRoutes<'_>) {
        let _order = self.epoch_lock.lock();
        let e = self.epoch() + 1;
        routes.sync_change(e);
        // ordering: Release — publishes the mutation (and the index
        // steps above) to Acquire `epoch()` readers (invariants 1, 2, 6).
        self.epoch.store(e, Ordering::Release);
    }

    /// Inserts a timestamped edge, bumping the epoch only if an entry
    /// was actually stored (a deduplicated re-insert leaves the cached
    /// snapshot valid). Thread-safe.
    pub fn insert_edge(&self, e: TimedEdge) -> bool {
        self.apply(&Update::insert(e))
    }

    /// Deletes one occurrence of `(u, v)`, bumping the epoch only if an
    /// entry was actually removed (deleting an absent edge leaves the
    /// cached snapshot valid). Thread-safe.
    pub fn delete_edge(&self, u: u32, v: u32) -> bool {
        self.apply(&Update::delete(TimedEdge::new(u, v, 0)))
    }

    /// Applies a single structural update, bumping the epoch only if it
    /// changed the graph. Thread-safe.
    pub fn apply(&self, upd: &Update) -> bool {
        let routes = self.indexes.routes();
        let changed = self.graph.apply(upd);
        if changed {
            routes.route(&self.graph, upd);
            self.publish_epoch(routes);
        }
        changed
    }

    /// Applies a whole batch in parallel ([`apply_vpart_indexed`] on
    /// the installed pool), bumping the epoch **at most once** and only
    /// if some update actually changed the graph — the paper's
    /// bulk-synchronous pattern. A burst of no-op batches (deletes of
    /// absent edges, deduplicated re-inserts) leaves the cached snapshot
    /// and the indexes untouched; confirmed changes are routed to the
    /// attached indexes after the barrier, in stream order. Returns
    /// whether the batch changed anything.
    ///
    /// # Panics
    ///
    /// Before anything is applied, if an update names a vertex outside
    /// the graph.
    pub fn apply_batch(&self, updates: &[Update]) -> bool {
        let routes = self.indexes.routes();
        let changed = apply_vpart_indexed(&self.graph, updates, 0, routes) > 0;
        if changed {
            self.publish_epoch(routes);
        }
        changed
    }

    /// Attaches (or returns) the incremental [`ConnectivityIndex`],
    /// building it from the current live graph on first call. From then
    /// on, updates routed through the manager maintain it; query through
    /// [`SnapshotManager::indexes`].
    pub fn enable_connectivity(&self) -> &ConnectivityIndex {
        self.indexes.attach_connectivity(&self.graph, self.epoch())
    }

    /// Attaches (or returns) the incremental [`DistanceIndex`] over the
    /// given pinned sources (honored only by the attaching call).
    pub fn enable_distances(&self, sources: &[u32]) -> &DistanceIndex {
        self.indexes
            .attach_distances(&self.graph, sources, self.epoch())
    }

    /// Attaches (or returns) the incremental [`TriangleIndex`].
    pub fn enable_triangles(&self) -> &TriangleIndex {
        self.indexes.attach_triangles(&self.graph, self.epoch())
    }

    /// The query surface of the attached indexes over the live graph
    /// ([`IndexQuery`]); every query checks the index against the
    /// manager's epoch first.
    pub fn indexes(&self) -> IndexQuery<'_, DynGraph<A>> {
        self.indexes.query(&self.graph, &self.epoch)
    }

    /// The CSR snapshot of the current state. Returns the cached build
    /// when the epoch has not moved; otherwise rebuilds, caches, and
    /// returns the fresh snapshot. The `Arc` keeps earlier snapshots
    /// alive for readers that are still traversing them.
    ///
    /// Never panics on a racing writer: a detected race
    /// ([`SnapshotRace`]) yields and retries until a consistent build
    /// lands. Under *sustained* concurrent ingest that retry loop may
    /// spin for a long time — serving workloads that never quiesce
    /// should read published versions from
    /// [`crate::serve::ServeEngine`] instead, where a race is impossible
    /// by construction.
    pub fn snapshot(&self) -> Arc<CsrGraph> {
        loop {
            match self.try_snapshot() {
                Ok(csr) => return csr,
                Err(SnapshotRace) => std::thread::yield_now(),
            }
        }
    }

    /// One snapshot attempt: returns `Err(`[`SnapshotRace`]`)` instead
    /// of blocking or panicking when a writer races the build — either
    /// the CSR builder detected torn per-vertex state, or the epoch
    /// moved while the build ran (a structurally consistent build that
    /// can no longer be stamped with the epoch it was meant for).
    /// On `Ok`, the returned snapshot is cached and exactly reflects the
    /// epoch read at entry.
    pub fn try_snapshot(&self) -> Result<Arc<CsrGraph>, SnapshotRace> {
        let mut cache = self.cache.lock();
        // Read the epoch under the lock: a concurrent mutation between an
        // earlier read and the build would otherwise stamp the fresh CSR
        // with a stale tag and force a spurious rebuild later.
        let target = self.epoch();
        if let Some(csr) = &cache.csr {
            if cache.epoch == target {
                snapshot_metrics().cache_hits.inc();
                return Ok(Arc::clone(csr));
            }
        }
        let csr = Arc::new(self.graph.try_to_csr()?);
        if self.epoch() != target {
            // The build is internally consistent but a writer landed
            // mid-build; it may contain a prefix of that writer's batch,
            // so it represents neither `target` nor the new epoch.
            return Err(SnapshotRace);
        }
        // ordering: Relaxed — statistics counter (invariant 9); the
        // cache itself is published by the mutex.
        self.rebuilds.fetch_add(1, Ordering::Relaxed);
        snapshot_metrics().rebuilds.inc();
        cache.epoch = target;
        cache.csr = Some(Arc::clone(&csr));
        Ok(csr)
    }
}

/// Snapshot-cache instrumentation, shared by every [`SnapshotManager`]
/// in the process (ZST no-ops without the `obs` feature).
struct SnapshotMetrics {
    cache_hits: snap_obs::Counter,
    rebuilds: snap_obs::Counter,
}

fn snapshot_metrics() -> &'static SnapshotMetrics {
    static M: OnceLock<SnapshotMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = snap_obs::MetricsRegistry::global();
        SnapshotMetrics {
            cache_hits: r.counter(
                "snap_snapshot_cache_hits_total",
                "Snapshot requests served from the epoch-tagged CSR cache",
            ),
            rebuilds: r.counter(
                "snap_snapshot_rebuilds_total",
                "CSR rebuilds performed by snapshot managers",
            ),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::CapacityHints;
    use crate::dynarr::DynArr;
    use crate::engine::tests::{non_commuting_stream, workload};
    use crate::hybrid::HybridAdj;
    use crate::treapadj::TreapAdj;
    use snap_rmat::{Rmat, RmatParams, StreamBuilder};

    #[test]
    fn snapshot_manager_caches_until_epoch_moves() {
        let (n, s) = workload();
        let g: DynGraph<HybridAdj> = DynGraph::undirected(n, &CapacityHints::new(s.len() * 2));
        let mgr = SnapshotManager::new(g);
        assert!(!mgr.is_clean(), "no snapshot built yet");
        mgr.apply_batch(&s);
        assert_eq!(mgr.rebuild_count(), 0, "updates alone must not rebuild");
        let s1 = mgr.snapshot();
        assert_eq!(mgr.rebuild_count(), 1);
        assert!(mgr.is_clean());
        // A burst of queries between batches: all hit the cache.
        for _ in 0..32 {
            let again = mgr.snapshot();
            assert!(
                Arc::ptr_eq(&s1, &again),
                "clean epoch must reuse the cached Arc"
            );
        }
        assert_eq!(mgr.rebuild_count(), 1, "zero rebuilds across the burst");
        // One more batch dirties the epoch; the next snapshot rebuilds once.
        mgr.apply_batch(&s[..4]);
        assert!(!mgr.is_clean());
        let s2 = mgr.snapshot();
        assert!(!Arc::ptr_eq(&s1, &s2));
        assert_eq!(mgr.rebuild_count(), 2);
    }

    #[test]
    fn snapshot_manager_single_updates_dirty_the_cache() {
        let g: DynGraph<DynArr> = DynGraph::undirected(8, &CapacityHints::new(16));
        let mgr = SnapshotManager::new(g);
        assert!(mgr.insert_edge(snap_rmat::TimedEdge::new(0, 1, 5)));
        let s1 = mgr.snapshot();
        assert_eq!(s1.num_entries(), 2);
        assert!(mgr.delete_edge(0, 1));
        let s2 = mgr.snapshot();
        assert_eq!(s2.num_entries(), 0);
        // The old Arc is still alive and unchanged for in-flight readers.
        assert_eq!(s1.num_entries(), 2);
        assert_eq!(mgr.rebuild_count(), 2);
    }

    #[test]
    fn snapshot_manager_noop_batch_keeps_cache_clean() {
        // Regression: apply_batch used to bump the epoch unconditionally,
        // so a burst of no-op delete batches forced spurious rebuilds.
        let g: DynGraph<DynArr> = DynGraph::undirected(8, &CapacityHints::new(16));
        let mgr = SnapshotManager::new(g);
        let real: Vec<Update> = vec![
            Update::insert(snap_rmat::TimedEdge::new(0, 1, 1)),
            Update::insert(snap_rmat::TimedEdge::new(1, 2, 2)),
        ];
        assert!(mgr.apply_batch(&real));
        let s1 = mgr.snapshot();
        assert_eq!(mgr.rebuild_count(), 1);
        // A burst of batches that change nothing: deletes of absent
        // edges. The epoch must not move and the cache must survive.
        let noop: Vec<Update> = (0..4u32)
            .map(|i| Update::delete(snap_rmat::TimedEdge::new(4 + i, 7, 0)))
            .collect();
        let epoch_before = mgr.epoch();
        for _ in 0..8 {
            assert!(!mgr.apply_batch(&noop), "no-op batch must report false");
        }
        assert_eq!(mgr.epoch(), epoch_before, "no-op batches must not dirty");
        assert!(mgr.is_clean());
        let s2 = mgr.snapshot();
        assert!(Arc::ptr_eq(&s1, &s2));
        assert_eq!(mgr.rebuild_count(), 1, "rebuild count stays flat");
        // Empty batch: same story.
        assert!(!mgr.apply_batch(&[]));
        assert_eq!(mgr.rebuild_count(), 1);
    }

    #[test]
    fn manager_serves_connectivity_without_rebuilds() {
        let g: DynGraph<HybridAdj> = DynGraph::undirected(64, &CapacityHints::new(256));
        let mgr = SnapshotManager::new(g);
        let batch: Vec<Update> = (0..31u32)
            .map(|i| Update::insert(snap_rmat::TimedEdge::new(i, i + 1, 1)))
            .collect();
        mgr.apply_batch(&batch);
        let idx = mgr.enable_connectivity();
        assert_eq!(idx.full_rebuild_count(), 0);
        // Clean query burst: zero CSR rebuilds, zero repairs, zero full
        // recomputes — the acceptance check of the serving path.
        for _ in 0..128 {
            assert!(mgr.indexes().same_component(0, 31));
            assert!(!mgr.indexes().same_component(0, 40));
            assert_eq!(mgr.indexes().component(17), 0);
        }
        assert_eq!(mgr.rebuild_count(), 0, "no CSR was ever built");
        assert_eq!(idx.repair_count(), 0);
        assert_eq!(idx.full_rebuild_count(), 0);
        // Incremental inserts through the manager keep serving cheaply.
        mgr.insert_edge(snap_rmat::TimedEdge::new(31, 40, 2));
        assert!(mgr.indexes().same_component(0, 40));
        assert_eq!(idx.repair_count(), 0, "insertions never need repair");
        // A bridge deletion splits its component; the next query finds
        // out and relabels one side.
        mgr.delete_edge(15, 16);
        assert!(!mgr.indexes().same_component(0, 31));
        assert!(mgr.indexes().same_component(16, 40));
        assert_eq!(idx.repair_count(), 1);
        assert_eq!(mgr.rebuild_count(), 0, "still no CSR");
        // 33 vertices were in the path+40 component, now split in two;
        // the other 31 vertices are isolates.
        assert_eq!(mgr.indexes().component_count(), 31 + 2);
    }

    #[test]
    fn out_of_band_mutation_costs_one_full_resync() {
        let g: DynGraph<DynArr> = DynGraph::undirected(8, &CapacityHints::new(16));
        let mgr = SnapshotManager::new(g);
        let idx = mgr.enable_connectivity();
        assert!(!mgr.indexes().same_component(2, 3));
        // Mutate behind the manager's back, then mark dirty: the next
        // connectivity query must notice and resync exactly once.
        mgr.live().insert_edge(snap_rmat::TimedEdge::new(2, 3, 1));
        mgr.mark_dirty();
        assert!(mgr.indexes().same_component(2, 3));
        assert_eq!(idx.full_rebuild_count(), 1);
        assert!(mgr.indexes().same_component(2, 3));
        assert_eq!(
            idx.full_rebuild_count(),
            1,
            "resync paid once, not per query"
        );
    }

    #[test]
    fn routed_updates_do_not_absorb_an_out_of_band_gap() {
        // Regression: the epoch sync used a monotone max, so a routed
        // update arriving *after* an unsynced mark_dirty fast-forwarded
        // the index past the gap and the stale-detection never fired.
        let g: DynGraph<DynArr> = DynGraph::undirected(8, &CapacityHints::new(16));
        let mgr = SnapshotManager::new(g);
        let idx = mgr.enable_connectivity();
        mgr.live().insert_edge(snap_rmat::TimedEdge::new(2, 3, 1));
        mgr.mark_dirty(); // gap: epoch moved, index did not absorb it
                          // A routed update lands before any query. It must not paper
                          // over the gap...
        assert!(mgr.insert_edge(snap_rmat::TimedEdge::new(5, 6, 1)));
        assert!(
            idx.synced_epoch() < mgr.epoch(),
            "the out-of-band gap must stay sticky"
        );
        // ...so the next query still detects staleness and resyncs.
        assert!(
            mgr.indexes().same_component(2, 3),
            "out-of-band edge must be seen"
        );
        assert!(mgr.indexes().same_component(5, 6));
        assert_eq!(idx.full_rebuild_count(), 1);
        assert_eq!(idx.synced_epoch(), mgr.epoch());
        // Lockstep resumes after the resync: further routed updates
        // keep the index fresh with no more rebuilds.
        assert!(mgr.insert_edge(snap_rmat::TimedEdge::new(3, 5, 2)));
        assert!(mgr.indexes().same_component(2, 6));
        assert_eq!(idx.full_rebuild_count(), 1);
    }

    #[test]
    fn racing_routed_changes_leave_no_epoch_gap() {
        // Regression (the 1-in-25 chaos flake): two threads in the
        // epoch bump took epochs e and e + 1; when the exact step to
        // e + 1 ran before the step to e it failed, the step to e then
        // succeeded, and the index sat one epoch behind for good — the
        // next query paid a full rebuild although every change had been
        // routed. Each round releases every thread into the bump at
        // once (far more threads than cores, so wake-ups preempt inside
        // the window); one inversion in any round fails the test.
        const THREADS: u32 = 32;
        const ROUNDS: u32 = 2000;
        let n = (THREADS * ROUNDS + 1) as usize;
        let g: DynGraph<DynArr> = DynGraph::undirected(n, &CapacityHints::new(n * 2));
        let mgr = SnapshotManager::new(g);
        let cores: [&crate::indexes::IndexCore; 3] = [
            mgr.enable_connectivity(),
            mgr.enable_distances(&[0]),
            mgr.enable_triangles(),
        ];
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (mgr, start) = (&mgr, &start);
                s.spawn(move || {
                    for r in 0..ROUNDS {
                        start.wait();
                        assert!(mgr.insert_edge(TimedEdge::new(0, 1 + r * THREADS + t, 1)));
                    }
                });
            }
        });
        assert_eq!(mgr.epoch(), u64::from(THREADS * ROUNDS));
        let q = mgr.indexes();
        assert_eq!(q.component_count(), 1);
        assert_eq!(q.hop_distance(0, n as u32 - 1), Some(1));
        assert_eq!(q.triangle_count(), 0);
        for core in cores {
            assert_eq!(core.synced_epoch(), mgr.epoch(), "stepped in lockstep");
            assert_eq!(core.full_rebuild_count(), 0, "so nothing to resync");
        }
    }

    #[test]
    fn batched_deletes_route_into_the_index() {
        let g: DynGraph<DynArr> = DynGraph::undirected(8, &CapacityHints::new(32));
        let mgr = SnapshotManager::new(g);
        let idx = mgr.enable_connectivity();
        let ins: Vec<Update> = [(0, 1), (1, 2), (2, 3), (1, 3)]
            .iter()
            .map(|&(u, v)| Update::insert(snap_rmat::TimedEdge::new(u, v, 1)))
            .collect();
        assert!(mgr.apply_batch(&ins));
        assert!(mgr.indexes().same_component(0, 3));
        // Delete the only bridge to 0 in one batch with a redundant edge.
        let dels = vec![
            Update::delete(snap_rmat::TimedEdge::new(0, 1, 0)),
            Update::delete(snap_rmat::TimedEdge::new(1, 3, 0)),
        ];
        assert!(mgr.apply_batch(&dels));
        assert!(!mgr.indexes().same_component(0, 3), "0 split off");
        assert!(
            mgr.indexes().same_component(1, 3),
            "1-2-3 still connected via 2"
        );
        assert_eq!(idx.full_rebuild_count(), 0);
    }

    #[test]
    fn snapshot_manager_noop_mutations_keep_cache_clean() {
        let g: DynGraph<TreapAdj> = DynGraph::undirected(4, &CapacityHints::new(8));
        let mgr = SnapshotManager::new(g);
        mgr.insert_edge(snap_rmat::TimedEdge::new(0, 1, 3));
        let s1 = mgr.snapshot();
        // Deleting an absent edge and re-inserting a deduplicated one
        // change nothing, so the cached snapshot must survive both.
        assert!(!mgr.delete_edge(2, 3));
        assert!(!mgr.insert_edge(snap_rmat::TimedEdge::new(0, 1, 3)));
        assert!(mgr.is_clean());
        let s2 = mgr.snapshot();
        assert!(Arc::ptr_eq(&s1, &s2), "no-op mutations must not invalidate");
        assert_eq!(mgr.rebuild_count(), 1);
    }

    #[test]
    fn snapshot_manager_mark_dirty_forces_rebuild() {
        let g: DynGraph<TreapAdj> = DynGraph::undirected(4, &CapacityHints::new(8));
        let mgr = SnapshotManager::new(g);
        let _ = mgr.snapshot();
        // Mutate through the live graph, bypassing the manager.
        mgr.live().insert_edge(snap_rmat::TimedEdge::new(1, 2, 3));
        mgr.mark_dirty();
        let s = mgr.snapshot();
        assert_eq!(s.num_entries(), 2);
        assert_eq!(mgr.rebuild_count(), 2);
    }

    #[test]
    fn apply_batch_is_one_applier_call_with_or_without_an_index() {
        let n = 48u32;
        let hints = CapacityHints::new(64).with_degree_thresh(4);
        let stream = non_commuting_stream(n, 3000, 21);
        let plain = SnapshotManager::new(DynGraph::<HybridAdj>::undirected(n as usize, &hints));
        let indexed = SnapshotManager::new(DynGraph::<HybridAdj>::undirected(n as usize, &hints));
        let conn = indexed.enable_connectivity();
        indexed.enable_triangles();
        let noop = [Update::delete(TimedEdge::new(0, 1, 0))];
        for batch in [&noop[..], &stream[..2000], &stream[2000..], &[]] {
            let epochs = (plain.epoch(), indexed.epoch());
            let changed = plain.apply_batch(batch);
            assert_eq!(indexed.apply_batch(batch), changed, "same return value");
            let step = u64::from(changed);
            assert_eq!(plain.epoch(), epochs.0 + step, "one epoch step");
            assert_eq!(indexed.epoch(), epochs.1 + step, "one epoch step");
        }
        for u in 0..n {
            assert_eq!(
                plain.live().adjacency().neighbors(u),
                indexed.live().adjacency().neighbors(u)
            );
        }
        let labels = crate::connectivity::ConnectivityIndex::from_view(plain.live());
        for u in 0..n {
            assert_eq!(
                indexed.indexes().component(u),
                labels.component(plain.live(), u)
            );
        }
        assert_eq!(conn.full_rebuild_count(), 0, "routed, never rebuilt");
    }

    #[test]
    fn manager_serves_distances_without_rebuilds() {
        let g: DynGraph<HybridAdj> = DynGraph::undirected(64, &CapacityHints::new(256));
        let mgr = SnapshotManager::new(g);
        let path: Vec<Update> = (0..31u32)
            .map(|i| Update::insert(TimedEdge::new(i, i + 1, 1)))
            .collect();
        mgr.apply_batch(&path);
        let idx = mgr.enable_distances(&[0]);
        assert_eq!(idx.full_rebuild_count(), 0);
        for _ in 0..64 {
            assert_eq!(mgr.indexes().hop_distance(0, 31), Some(31));
            assert_eq!(mgr.indexes().hop_distance(0, 40), None);
        }
        assert_eq!(mgr.rebuild_count(), 0, "no CSR was ever built");
        assert_eq!(idx.repair_count(), 0);
        // A routed insert shortens the path with no repair ...
        mgr.insert_edge(TimedEdge::new(0, 30, 2));
        assert_eq!(mgr.indexes().hop_distance(0, 31), Some(2));
        assert_eq!(idx.repair_count(), 0, "insertions never need repair");
        // ... and a routed delete dirties + repairs on the next query.
        mgr.delete_edge(0, 30);
        assert_eq!(mgr.indexes().hop_distance(0, 31), Some(31));
        assert_eq!(idx.repair_count(), 1);
        assert_eq!(idx.full_rebuild_count(), 0);
        assert_eq!(mgr.rebuild_count(), 0, "still no CSR");
    }

    #[test]
    fn manager_serves_triangles_without_recounts() {
        let g: DynGraph<HybridAdj> = DynGraph::undirected(8, &CapacityHints::new(64));
        let mgr = SnapshotManager::new(g);
        let tri: Vec<Update> = [(0, 1), (1, 2), (2, 0), (0, 3)]
            .iter()
            .map(|&(u, v)| Update::insert(TimedEdge::new(u, v, 1)))
            .collect();
        mgr.apply_batch(&tri);
        let idx = mgr.enable_triangles();
        assert_eq!(mgr.indexes().triangle_count(), 1);
        assert_eq!(mgr.indexes().triangles_of(0), 1);
        // Routed single updates apply deltas, never recounts.
        mgr.insert_edge(TimedEdge::new(1, 3, 2));
        assert_eq!(mgr.indexes().triangle_count(), 2);
        mgr.delete_edge(0, 1);
        assert_eq!(mgr.indexes().triangle_count(), 0);
        assert_eq!(idx.full_rebuild_count(), 0);
        assert!(idx.delta_count() >= 2);
        assert_eq!(mgr.rebuild_count(), 0, "no CSR was ever built");
    }

    #[test]
    fn out_of_band_mutation_resyncs_distance_and_triangle_indexes() {
        let g: DynGraph<DynArr> = DynGraph::undirected(8, &CapacityHints::new(32));
        let mgr = SnapshotManager::new(g);
        mgr.apply_batch(&[
            Update::insert(TimedEdge::new(0, 1, 1)),
            Update::insert(TimedEdge::new(1, 2, 1)),
        ]);
        let dist = mgr.enable_distances(&[0]);
        let tri = mgr.enable_triangles();
        assert_eq!(mgr.indexes().hop_distance(0, 2), Some(2));
        assert_eq!(mgr.indexes().triangle_count(), 0);
        // Mutate behind the manager's back: both indexes must detect
        // the gap on their next query and pay exactly one rebuild.
        mgr.live().insert_edge(TimedEdge::new(2, 0, 5));
        mgr.mark_dirty();
        assert_eq!(mgr.indexes().hop_distance(0, 2), Some(1));
        assert_eq!(mgr.indexes().triangle_count(), 1);
        assert_eq!(dist.full_rebuild_count(), 1);
        assert_eq!(tri.full_rebuild_count(), 1);
        // Paid once, not per query.
        assert_eq!(mgr.indexes().hop_distance(0, 2), Some(1));
        assert_eq!(mgr.indexes().triangle_count(), 1);
        assert_eq!(dist.full_rebuild_count(), 1);
        assert_eq!(tri.full_rebuild_count(), 1);
        // Routed updates resume incremental maintenance afterwards.
        mgr.insert_edge(TimedEdge::new(2, 3, 6));
        assert_eq!(mgr.indexes().hop_distance(0, 3), Some(2));
        assert_eq!(dist.full_rebuild_count(), 1);
    }

    #[test]
    fn batched_updates_route_into_all_indexes_in_stream_order() {
        // A batch that inserts an edge and deletes it again: the settled
        // view no longer has it, and stream-order routing must leave
        // every index exact (the insert's stale distance certificate is
        // caught by the later-routed delete note).
        let g: DynGraph<DynArr> = DynGraph::undirected(8, &CapacityHints::new(64));
        let mgr = SnapshotManager::new(g);
        mgr.apply_batch(&[
            Update::insert(TimedEdge::new(0, 1, 1)),
            Update::insert(TimedEdge::new(1, 2, 1)),
            Update::insert(TimedEdge::new(2, 3, 1)),
        ]);
        let dist = mgr.enable_distances(&[0]);
        let tri = mgr.enable_triangles();
        mgr.enable_connectivity();
        let churn = vec![
            Update::insert(TimedEdge::new(0, 3, 2)), // shortcut ...
            Update::insert(TimedEdge::new(1, 3, 2)), // ... and a triangle 1-2-3
            Update::delete(TimedEdge::new(0, 3, 0)), // shortcut gone again
        ];
        assert!(mgr.apply_batch(&churn));
        assert_eq!(mgr.indexes().hop_distance(0, 3), Some(2), "via 1-3 now");
        assert_eq!(mgr.indexes().triangle_count(), 1, "triangle 1-2-3 stands");
        assert!(mgr.indexes().same_component(0, 3));
        assert_eq!(dist.full_rebuild_count(), 0);
        assert_eq!(tri.full_rebuild_count(), 0);
    }

    #[test]
    fn try_snapshot_succeeds_and_caches_when_quiescent() {
        let (n, s) = workload();
        let g: DynGraph<HybridAdj> = DynGraph::undirected(n, &CapacityHints::new(s.len() * 2));
        let mgr = SnapshotManager::new(g);
        mgr.apply_batch(&s);
        let s1 = mgr.try_snapshot().expect("no writer, no race");
        let s2 = mgr.try_snapshot().expect("cached");
        assert!(Arc::ptr_eq(&s1, &s2));
        assert_eq!(mgr.rebuild_count(), 1);
    }

    #[test]
    fn snapshot_never_panics_under_racing_writer() {
        // The satellite regression: a writer streams real batches while a
        // reader hammers snapshot(). Pre-PR this panicked in the CSR
        // builder ("adjacency mutated during snapshot"); now every
        // snapshot call must return a structurally consistent CSR.
        let n = 1usize << 8;
        let r = Rmat::new(RmatParams::paper(8, 8), 17);
        let edges = r.edges();
        let g: DynGraph<HybridAdj> = DynGraph::undirected(n, &CapacityHints::new(edges.len() * 3));
        let mgr = SnapshotManager::new(g);
        mgr.apply_batch(&StreamBuilder::new(&edges, 3).construction_shuffled());
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let mut stream = StreamBuilder::new(&edges, 1000);
                for _ in 0..60 {
                    mgr.apply_batch(&stream.mixed(64, 0.5));
                }
            });
            let reader = scope.spawn(|| {
                let mut races = 0usize;
                for _ in 0..200 {
                    let csr = mgr.snapshot();
                    // Structural consistency of whatever epoch we got.
                    assert_eq!(csr.offsets().len(), n + 1);
                    assert_eq!(csr.num_entries(), *csr.offsets().last().unwrap());
                    if mgr.try_snapshot().is_err() {
                        races += 1;
                    }
                }
                races
            });
            writer.join().unwrap();
            let _races = reader.join().unwrap();
            // After the writer quiesces, one attempt must succeed.
            assert!(mgr.try_snapshot().is_ok());
        });
    }
}
