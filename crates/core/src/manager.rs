//! The bulk-synchronous engine ([`SnapshotManager`]): a dynamic graph and
//! its connectivity index ([`crate::indexes`]), written through the serving
//! writer's cycle run inline behind one lock.

use crate::adjacency::DynamicAdjacency;
use crate::connectivity::ConnectivityIndex;
use crate::csr::CsrGraph;
use crate::cycle::Cycle;
use crate::graph::DynGraph;
use crate::indexes::{IndexFamily, IndexQuery};
use crate::view::GraphView;
use parking_lot::Mutex;
use snap_rmat::{TimedEdge, Update};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A dynamic graph, its connectivity index and a CSR snapshot cached
/// between changes: the paper's bulk-synchronous engine.
///
/// The kernels run on CSR snapshots, and a build costs O(n + m). A
/// serving workload interleaves update batches with bursts of queries, so
/// the build is lazy: [`SnapshotManager::snapshot`] returns the cached
/// [`Arc<CsrGraph>`] while no update changed the graph, and otherwise
/// patches it, re-reading only the rows updates named. Cheap queries skip
/// CSR entirely through the read-only [`SnapshotManager::live`].
///
/// Mutations take `&self` from any thread but run one call at a time:
/// they, `snapshot` and `enable_connectivity` take one lock, and a batch
/// is applied in parallel inside its call. A snapshot is therefore the
/// graph after a prefix of the calls, and the manager is the graph's only
/// mutator. Readers that must not wait behind a batch belong on
/// [`crate::serve::ServeEngine`].
///
/// [`SnapshotManager::enable_connectivity`] attaches the incremental
/// connectivity index ([`crate::indexes`]): every later mutation call
/// absorbs its changes into it and settles it before it returns, and
/// [`SnapshotManager::indexes`] answers its queries as of the last call
/// — under the index's read lock, never the manager's, with no CSR build
/// and no full recompute.
///
/// # Examples
///
/// ```
/// use snap_core::adjacency::CapacityHints;
/// use snap_core::{DynGraph, GraphView, HybridAdj, SnapshotManager};
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
/// // ... and a burst of snapshot reads pays for exactly one build.
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
    indexes: IndexFamily,
    /// The cycle's epoch, published after every run for the readers
    /// that do not take the lock: `epoch()` and the index queries'
    /// freshness check.
    epoch: AtomicU64,
    /// The one lock: every mutation, snapshot and attach takes it.
    cycle: Mutex<Cycle>,
}

impl<A: DynamicAdjacency> SnapshotManager<A> {
    /// Wraps a dynamic graph; the first snapshot builds every row.
    pub fn new(graph: DynGraph<A>) -> Self {
        let cycle = Mutex::new(Cycle::new(graph.num_vertices()));
        Self {
            graph,
            indexes: IndexFamily::default(),
            epoch: AtomicU64::new(0),
            cycle,
        }
    }

    /// The live graph, read-only: queries through [`GraphView`] at zero
    /// snapshot cost.
    pub fn live(&self) -> &impl GraphView {
        &self.graph
    }

    /// Consumes the manager, returning the wrapped graph.
    pub fn into_inner(self) -> DynGraph<A> {
        self.graph
    }

    /// Current mutation epoch: the number of mutation calls so far.
    pub fn epoch(&self) -> u64 {
        // ordering: Acquire — pairs with the Release publication in
        // `apply_batch` so a reader that observes epoch e also observes the
        // mutations it covers (invariant 1: epoch-coupled validity).
        self.epoch.load(Ordering::Acquire)
    }

    /// True when the next [`SnapshotManager::snapshot`] is the cached one.
    pub fn is_clean(&self) -> bool {
        self.cycle.lock().is_clean()
    }

    /// CSR builds so far, patched or full (what the cache minimizes).
    pub fn rebuild_count(&self) -> usize {
        self.cycle.lock().builds()
    }

    /// [`SnapshotManager::apply`] of an insert.
    pub fn insert_edge(&self, e: TimedEdge) -> bool {
        self.apply(&Update::insert(e))
    }

    /// [`SnapshotManager::apply`] of a delete of one `(u, v)`.
    pub fn delete_edge(&self, u: u32, v: u32) -> bool {
        self.apply(&Update::delete(TimedEdge::new(u, v, 0)))
    }

    /// Applies one update in O(degree), stepping the epoch; returns
    /// whether it changed the graph. Panics like
    /// [`SnapshotManager::apply_batch`].
    pub fn apply(&self, upd: &Update) -> bool {
        self.apply_batch(std::slice::from_ref(upd))
    }

    /// Applies a batch in parallel ([`crate::engine::apply_vpart_indexed`]
    /// on the installed pool), which absorbs its changes into the attached
    /// indexes in stream order and settles them, then steps the epoch
    /// **once**. A batch that changes nothing keeps the cached snapshot.
    /// Returns whether it changed anything.
    ///
    /// # Panics
    ///
    /// Before anything is applied, if an update names a vertex outside
    /// the graph.
    pub fn apply_batch(&self, updates: &[Update]) -> bool {
        let mut cycle = self.cycle.lock();
        let changed = cycle.run(&self.graph, self.indexes.routes(), updates, 0) > 0;
        // ordering: Release — publishes the mutation and the index
        // settles and steps `run` made before it to Acquire `epoch()`
        // readers (invariants 1, 6).
        self.epoch.store(cycle.epoch(), Ordering::Release);
        changed
    }

    /// Attaches (or returns) the incremental [`ConnectivityIndex`], built
    /// from the live graph on the first call.
    pub fn enable_connectivity(&self) -> &ConnectivityIndex {
        let _cycle = self.cycle.lock();
        self.indexes.attach_connectivity(&self.graph, self.epoch())
    }

    /// The query surface of the connectivity index over the live graph
    /// ([`IndexQuery`]); every query checks the index against the
    /// manager's epoch first and answers as of the last cycle (the last
    /// completed mutation call).
    pub fn indexes(&self) -> IndexQuery<'_, DynGraph<A>> {
        self.indexes.query(&self.graph, &self.epoch)
    }

    /// The CSR of the current state: the cached one while no update
    /// changed the graph, otherwise that one patched with the rows named
    /// since. Waits for a running mutation call, so it is never torn; the
    /// `Arc` keeps earlier snapshots alive for their readers.
    pub fn snapshot(&self) -> Arc<CsrGraph> {
        let m = snapshot_metrics();
        let mut cycle = self.cycle.lock();
        if cycle.is_clean() {
            m.cache_hits.inc();
        } else {
            m.rebuilds.inc();
        }
        cycle.freeze(&self.graph)
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
                "CSR builds performed by snapshot managers, patched or full",
            ),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::CapacityHints;
    use crate::dynarr::DynArr;
    use crate::engine::apply_vpart;
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
        // edges. The epoch steps once per run, but the cache survives.
        let noop: Vec<Update> = (0..4u32)
            .map(|i| Update::delete(snap_rmat::TimedEdge::new(4 + i, 7, 0)))
            .collect();
        let epoch_before = mgr.epoch();
        for _ in 0..8 {
            assert!(!mgr.apply_batch(&noop), "no-op batch must report false");
        }
        assert_eq!(mgr.epoch(), epoch_before + 8, "one epoch per run");
        assert!(mgr.is_clean(), "no-op batches must not dirty");
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
    fn racing_routed_changes_leave_no_epoch_gap() {
        // Regression (the 1-in-25 chaos flake): two racing mutations took
        // epochs e and e + 1; when the exact step to e + 1 ran before the
        // step to e it failed, and the index sat one epoch behind for
        // good. Each round releases every thread into `apply_batch` at
        // once (far more threads than cores, so wake-ups preempt at the
        // lock); each call inserts a triangle on vertex 0 of its own, so
        // the calls commute and the oracle is their union.
        const THREADS: u32 = 32;
        const ROUNDS: u32 = 250;
        let calls = THREADS * ROUNDS;
        let n = (2 * calls + 1) as usize;
        let triangle = |call: u32| {
            let x = 1 + 2 * call;
            [(0, x), (x, x + 1), (x + 1, 0)].map(|(u, v)| Update::insert(TimedEdge::new(u, v, 1)))
        };
        let hints = CapacityHints::new(n * 3);
        let mgr = SnapshotManager::new(DynGraph::<DynArr>::undirected(n, &hints));
        let conn = mgr.enable_connectivity();
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (mgr, start) = (&mgr, &start);
                s.spawn(move || {
                    for r in 0..ROUNDS {
                        start.wait();
                        assert!(mgr.apply_batch(&triangle(r * THREADS + t)));
                    }
                });
            }
        });
        assert_eq!(mgr.epoch(), u64::from(calls), "one epoch per call");
        let oracle = DynGraph::<DynArr>::undirected(n, &hints);
        for u in (0..calls).flat_map(triangle) {
            oracle.apply(&u);
        }
        let all: Vec<u32> = (0..n as u32).collect();
        let labels = crate::connectivity::restricted_component_labels(&oracle, &all);
        let q = mgr.indexes();
        for &u in &all {
            assert_eq!(q.component(u), labels[u as usize], "vertex {u}");
        }
        assert_eq!(conn.synced_epoch(), mgr.epoch(), "stepped in lockstep");
        assert_eq!(conn.full_rebuild_count(), 0, "so nothing to resync");
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
    fn apply_batch_is_one_applier_call_with_or_without_an_index() {
        let n = 48u32;
        let hints = CapacityHints::new(64).with_degree_thresh(4);
        let stream = non_commuting_stream(n, 3000, 21);
        let plain = SnapshotManager::new(DynGraph::<HybridAdj>::undirected(n as usize, &hints));
        let indexed = SnapshotManager::new(DynGraph::<HybridAdj>::undirected(n as usize, &hints));
        let conn = indexed.enable_connectivity();
        let noop = [Update::delete(TimedEdge::new(0, 1, 0))];
        for batch in [&noop[..], &stream[..2000], &stream[2000..], &[]] {
            let epochs = (plain.epoch(), indexed.epoch());
            let changed = plain.apply_batch(batch);
            assert_eq!(indexed.apply_batch(batch), changed, "same return value");
            assert_eq!(plain.epoch(), epochs.0 + 1, "one epoch step");
            assert_eq!(indexed.epoch(), epochs.1 + 1, "one epoch step");
        }
        for u in 0..n {
            assert_eq!(
                plain.graph.adjacency().neighbors(u),
                indexed.graph.adjacency().neighbors(u)
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
    fn batched_updates_route_into_the_index_in_stream_order() {
        // A batch that inserts an edge and deletes it again: the settled
        // view no longer has it, and a stream-order absorb must leave
        // the index exact (the insert's link names an edge the later
        // delete in the same absorb removes).
        let g: DynGraph<DynArr> = DynGraph::undirected(8, &CapacityHints::new(64));
        let mgr = SnapshotManager::new(g);
        mgr.apply_batch(&[
            Update::insert(TimedEdge::new(0, 1, 1)),
            Update::insert(TimedEdge::new(1, 2, 1)),
            Update::insert(TimedEdge::new(4, 5, 1)),
        ]);
        let conn = mgr.enable_connectivity();
        let churn = vec![
            Update::insert(TimedEdge::new(2, 4, 2)), // a merge ...
            Update::insert(TimedEdge::new(1, 3, 2)), // ... another ...
            Update::delete(TimedEdge::new(2, 4, 0)), // ... and the first gone again
        ];
        assert!(mgr.apply_batch(&churn));
        assert!(mgr.indexes().same_component(0, 3), "via 1-3 now");
        assert!(!mgr.indexes().same_component(0, 4), "2-4 came and went");
        assert_eq!(mgr.indexes().component_count(), 4);
        assert_eq!(conn.full_rebuild_count(), 0);
    }

    #[test]
    fn snapshots_racing_apply_batch_are_batch_prefixes() {
        // A writer streams real batches while a reader hammers
        // `snapshot`: every snapshot must be the graph after some prefix
        // of the writer's batches — never a torn mix — and one reader's
        // prefixes never go backwards.
        let n = 1usize << 8;
        let edges = Rmat::new(RmatParams::paper(8, 8), 17).edges();
        let hints = CapacityHints::new(edges.len() * 3);
        let base = StreamBuilder::new(&edges, 3).construction_shuffled();
        let mut stream = StreamBuilder::new(&edges, 1000);
        let batches: Vec<Vec<Update>> = (0..60).map(|_| stream.mixed(64, 0.5)).collect();
        // The oracle of every prefix: the same applier, batch by batch,
        // on a graph nobody races.
        let oracle: DynGraph<HybridAdj> = DynGraph::undirected(n, &hints);
        apply_vpart(&oracle, &base, 0);
        let mut prefixes = vec![oracle.to_csr()];
        for b in &batches {
            apply_vpart(&oracle, b, 0);
            prefixes.push(oracle.to_csr());
        }
        let mgr = SnapshotManager::new(DynGraph::<HybridAdj>::undirected(n, &hints));
        mgr.apply_batch(&base);
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                for b in &batches {
                    mgr.apply_batch(b);
                }
            });
            let reader = scope.spawn(|| {
                let mut at = 0;
                for _ in 0..200 {
                    let csr = mgr.snapshot();
                    at += prefixes[at..]
                        .iter()
                        .position(|p| *p == *csr)
                        .expect("a snapshot is a batch prefix no older than the last");
                }
            });
            writer.join().expect("writer must not panic");
            reader.join().expect("reader must not panic");
        });
        // Quiescent: one more build at most, then the cache.
        let (s1, s2) = (mgr.snapshot(), mgr.snapshot());
        assert!(Arc::ptr_eq(&s1, &s2));
        assert_eq!(*s1, prefixes[batches.len()]);
    }

    #[test]
    fn patched_snapshots_follow_a_hub_through_promotion_and_demotion() {
        // Every snapshot after the first patches the previous one, and
        // must equal a fresh build of the graph row for row — through
        // the one-update path (odd rounds) and the batch path (even).
        let (n, hints) = (32, CapacityHints::new(256).with_degree_thresh(8));
        let mgr = SnapshotManager::new(DynGraph::<HybridAdj>::undirected(n, &hints));
        let mut rng = snap_util::rng::XorShift64::new(5);
        let mut seen = Vec::new();
        for round in 0..32u32 {
            // Grow the hub past the threshold, then tear it down below a
            // quarter of it; the other half of each batch churns elsewhere.
            let insert_share = if round < 12 { 0.9 } else { 0.05 };
            let batch: Vec<Update> = (0..8u32)
                .map(|i| {
                    let (u, v) = if i % 2 == 0 {
                        (0, rng.next_bounded(16) as u32)
                    } else {
                        let u = rng.next_bounded(n as u64) as u32;
                        (u, rng.next_bounded(n as u64) as u32)
                    };
                    let e = TimedEdge::new(u, v, round * 8 + i);
                    if rng.next_bool(insert_share) {
                        Update::insert(e)
                    } else {
                        Update::delete(e)
                    }
                })
                .collect();
            if round % 2 == 0 {
                mgr.apply_batch(&batch);
            } else {
                for u in &batch {
                    mgr.apply(u);
                }
            }
            assert_eq!(*mgr.snapshot(), mgr.graph.to_csr(), "round {round}");
            seen.push(mgr.graph.adjacency().is_treap(0));
        }
        let flips = |from, to| seen.windows(2).any(|w| w == [from, to]);
        assert!(flips(false, true) && flips(true, false), "{seen:?}");
    }

    #[test]
    fn an_out_of_range_single_update_leaves_the_manager_untouched() {
        // Regression: `insert_edge(0, 99)` on 8 vertices stored 0→99,
        // then panicked inside the representation, leaving the graph
        // changed behind a clean cache and an unmoved epoch.
        let mgr = SnapshotManager::new(DynGraph::<HybridAdj>::undirected(
            8,
            &CapacityHints::new(16),
        ));
        let conn = mgr.enable_connectivity();
        assert!(mgr.insert_edge(TimedEdge::new(1, 2, 1)));
        let before = mgr.snapshot();
        for bad in [
            Update::insert(TimedEdge::new(0, 99, 1)),
            Update::delete(TimedEdge::new(99, 0, 0)),
        ] {
            let refused =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| mgr.apply(&bad)));
            let msg = refused.expect_err("an out-of-range vertex must be refused");
            assert_eq!(
                msg.downcast_ref::<String>().map(String::as_str),
                Some("update 0 names vertex 99, but the graph has 8 vertices")
            );
        }
        assert_eq!(mgr.live().degree(0), 0);
        assert_eq!(mgr.epoch(), 1);
        let oracle = DynGraph::<HybridAdj>::undirected(8, &CapacityHints::new(16));
        oracle.insert_edge(TimedEdge::new(1, 2, 1));
        let after = mgr.snapshot();
        assert_eq!(*after, oracle.to_csr());
        assert!(Arc::ptr_eq(&before, &after), "nothing to rebuild");
        assert!(mgr.indexes().same_component(1, 2));
        assert_eq!(conn.full_rebuild_count(), 0);
    }
}
