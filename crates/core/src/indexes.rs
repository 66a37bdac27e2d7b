//! The incremental index family: one epoch protocol ([`IndexCore`]), one
//! contract an index joins it by ([`IncrementalIndex`]), one owner both
//! engines hold ([`IndexFamily`]), one borrowed bundle the applier
//! absorbs into ([`IndexRoutes`]) and one query surface ([`IndexQuery`]).
//! The index files ([`crate::connectivity`], [`crate::distindex`],
//! [`crate::triindex`]) keep only their state and delta rules.
//!
//! # Concurrency contract
//!
//! Each index keeps its mutable state as plain data behind one
//! `RwLock`; [`IndexCore`] holds only the absorbed epoch and the
//! statistics counters. A change enters an index one way,
//! [`IncrementalIndex::absorb`]: after an applier call's graph mutation,
//! `crate::engine::apply_vpart_indexed` hands it every change the call
//! made, in stream order, and the index settles what they owe against
//! the settled graph, all in one hold of its write lock. An engine then
//! steps the index and publishes the cycle's epoch. Readers take the
//! read lock and find a settled index, so an [`IndexQuery`] answer is
//! the index as of a cycle boundary, and no repair ever overlaps a graph
//! mutation. Whoever absorbs against a view must not mutate it
//! meanwhile; the engines guarantee that by construction.
//!
//! The epoch contract is ARCHITECTURE.md's invariant 6: an index is
//! attached with the engine epoch read **before** its build scan, a
//! cycle steps it by exactly one before the engine publishes the new
//! epoch, and a query first compares the two — an index left behind
//! (an out-of-band mutation, an update that raced its attachment) pays
//! one counted full rebuild. A gap is never stepped over.

use crate::connectivity::ConnectivityIndex;
use crate::distindex::DistanceIndex;
use crate::triindex::TriangleIndex;
use crate::view::GraphView;
use parking_lot::RwLock;
use snap_rmat::Update;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// What every index embeds: the absorbed epoch and the counters.
#[derive(Default)]
pub struct IndexCore {
    /// Epoch of the owning engine this index has absorbed.
    synced_epoch: AtomicU64,
    repairs: AtomicUsize,
    full_rebuilds: AtomicUsize,
}

impl IndexCore {
    /// Engine epoch this index has absorbed (monotone).
    pub fn synced_epoch(&self) -> u64 {
        // ordering: Acquire — pairs with the AcqRel epoch stores so an
        // observed epoch implies the updates it covers (invariant 6).
        self.synced_epoch.load(Ordering::Acquire)
    }

    /// Advances the absorbed epoch (monotone max, so racing threads
    /// cannot move it backwards). Only for an index that provably
    /// reflects everything up to `epoch`: at build time and after a
    /// rebuild. A cycle steps it through [`IndexCore::sync_change`].
    pub fn sync_to(&self, epoch: u64) {
        // ordering: AcqRel — monotone epoch publication (invariant 6).
        self.synced_epoch.fetch_max(epoch, Ordering::AcqRel);
    }

    /// Absorbs exactly one cycle's epoch bump: steps the absorbed epoch
    /// from `new_epoch - 1` to `new_epoch`, and *only* that step. A
    /// failed step means an unabsorbed epoch sits below, and the gap
    /// stays open so the next query resyncs instead of being
    /// fast-forwarded over it. The engine must step in epoch order and
    /// before it publishes `new_epoch`.
    pub fn sync_change(&self, new_epoch: u64) {
        // ordering: AcqRel on the exact step (invariant 6); Relaxed on
        // failure — the gap itself is the signal, no data is read
        // through the failed exchange.
        let _ = self.synced_epoch.compare_exchange(
            new_epoch.wrapping_sub(1),
            new_epoch,
            Ordering::AcqRel,
            Ordering::Relaxed,
        );
    }

    /// If the absorbed epoch is behind `epoch`, runs `rebuild` on the
    /// state behind `lock` under its write lock — one counted full
    /// rebuild — and records `epoch`. The check is repeated under the
    /// lock, so concurrent stale queries coalesce into one rebuild.
    pub(crate) fn resync<S>(&self, epoch: u64, lock: &RwLock<S>, rebuild: impl FnOnce(&mut S)) {
        if self.synced_epoch() >= epoch {
            return;
        }
        let mut state = lock.write();
        if self.synced_epoch() < epoch {
            // ordering: Relaxed — statistics counter, no ordering consumed.
            self.full_rebuilds.fetch_add(1, Ordering::Relaxed);
            rebuild(&mut state);
            self.sync_to(epoch);
        }
    }

    /// Counts `n` repairs.
    pub(crate) fn count_repairs(&self, n: usize) {
        // ordering: Relaxed — statistics counter, no ordering consumed.
        self.repairs.fetch_add(n, Ordering::Relaxed);
    }

    /// Targeted repairs so far: connectivity counts one per split side
    /// relabelled through the certificate and one per whole-component
    /// relabel, distances one per dirty source row. A clean query burst
    /// leaves this flat.
    pub fn repair_count(&self) -> usize {
        // ordering: Relaxed — statistics counter, no ordering consumed.
        self.repairs.load(Ordering::Relaxed)
    }

    /// Full rebuilds run so far — the quantity incremental maintenance
    /// exists to keep at zero.
    pub fn full_rebuild_count(&self) -> usize {
        // ordering: Relaxed — statistics counter, no ordering consumed.
        self.full_rebuilds.load(Ordering::Relaxed)
    }
}

/// What an index supplies to join the family, beside its own state and
/// query methods: it embeds an [`IndexCore`] and derefs to it (so
/// `synced_epoch`, `repair_count`, `full_rebuild_count` read the same on
/// every index), and it implements the two operations below, each under
/// its write lock.
pub trait IncrementalIndex: Deref<Target = IndexCore> {
    /// Takes `changes` in order and settles every debt they leave
    /// against `view`, all in one hold of the write lock: the one way a
    /// change enters an index. `view` must already reflect exactly these
    /// changes (mutate first, then absorb), and an update that did not
    /// change the graph must not be among them.
    fn absorb<'u, V: GraphView>(&self, view: &V, changes: impl IntoIterator<Item = &'u Update>);

    /// If this index is behind `epoch`, discards everything, recomputes
    /// from `view` — one counted full rebuild — and records `epoch`
    /// ([`IndexCore::full_rebuild_count`]).
    fn resync<V: GraphView>(&self, view: &V, epoch: u64);
}

/// Borrowed bundle of the incremental indexes attached to a graph. All
/// slots are optional; an empty bundle absorbs nothing.
#[derive(Clone, Copy, Default)]
pub struct IndexRoutes<'a> {
    /// Incremental connectivity (union on insert, certificate check on
    /// delete).
    pub conn: Option<&'a ConnectivityIndex>,
    /// Incremental hop distances (wavefront on insert, seed-mark on
    /// delete).
    pub dist: Option<&'a DistanceIndex>,
    /// Incremental triangle counts (delta per effective update).
    pub tri: Option<&'a TriangleIndex>,
}

impl IndexRoutes<'_> {
    /// True when no index is attached.
    pub fn is_empty(&self) -> bool {
        self.conn.is_none() && self.dist.is_none() && self.tri.is_none()
    }

    /// Absorbs one applier call's confirmed changes, in stream order,
    /// into every attached index and settles them
    /// ([`IncrementalIndex::absorb`]: one write-lock hold per index);
    /// `view` already reflects them all.
    pub fn absorb<'u, V, I>(&self, view: &V, changes: I)
    where
        V: GraphView,
        I: IntoIterator<Item = &'u Update>,
        I::IntoIter: Clone,
    {
        let changes = changes.into_iter();
        if let Some(c) = self.conn {
            c.absorb(view, changes.clone());
        }
        if let Some(d) = self.dist {
            d.absorb(view, changes.clone());
        }
        if let Some(t) = self.tri {
            t.absorb(view, changes);
        }
    }

    /// Steps every attached index's absorbed epoch by exactly one
    /// ([`IndexCore::sync_change`]).
    pub fn sync_change(&self, new_epoch: u64) {
        if let Some(c) = self.conn {
            c.sync_change(new_epoch);
        }
        if let Some(d) = self.dist {
            d.sync_change(new_epoch);
        }
        if let Some(t) = self.tri {
            t.sync_change(new_epoch);
        }
    }
}

/// The indexes an engine owns; each slot is attached at most once.
#[derive(Default)]
pub struct IndexFamily {
    conn: OnceLock<ConnectivityIndex>,
    dist: OnceLock<DistanceIndex>,
    tri: OnceLock<TriangleIndex>,
}

/// Stamps a fresh index with the epoch read before its build scan: an
/// update racing the build is not absorbed into it but does bump the
/// epoch, so its first query finds it behind and resyncs.
fn stamped<I: IncrementalIndex>(idx: I, epoch_before: u64) -> I {
    idx.sync_to(epoch_before);
    idx
}

impl IndexFamily {
    /// Attaches (or returns) the connectivity index, built from `view`.
    /// `epoch_before` must have been read before this call.
    pub fn attach_connectivity<V: GraphView>(
        &self,
        view: &V,
        epoch_before: u64,
    ) -> &ConnectivityIndex {
        self.conn
            .get_or_init(|| stamped(ConnectivityIndex::from_view(view), epoch_before))
    }

    /// Attaches (or returns) the distance index over `sources`, built
    /// from `view`. `sources` is honored only by the attaching call.
    pub fn attach_distances<V: GraphView>(
        &self,
        view: &V,
        sources: &[u32],
        epoch_before: u64,
    ) -> &DistanceIndex {
        self.dist
            .get_or_init(|| stamped(DistanceIndex::from_view(view, sources), epoch_before))
    }

    /// Attaches (or returns) the triangle index, built from `view`.
    pub fn attach_triangles<V: GraphView>(&self, view: &V, epoch_before: u64) -> &TriangleIndex {
        self.tri
            .get_or_init(|| stamped(TriangleIndex::from_view(view), epoch_before))
    }

    /// The indexes attached *right now*, captured by an engine once per
    /// mutation: an index attached mid-mutation is neither absorbed into
    /// nor stepped, so it stays behind and its first query resyncs.
    pub fn routes(&self) -> IndexRoutes<'_> {
        IndexRoutes {
            conn: self.conn.get(),
            dist: self.dist.get(),
            tri: self.tri.get(),
        }
    }

    /// The query surface over `view`, checking freshness against
    /// `epoch` (the owning engine's published epoch) on every query.
    pub fn query<'a, V>(&'a self, view: &'a V, epoch: &'a AtomicU64) -> IndexQuery<'a, V> {
        let routes = self.routes();
        IndexQuery {
            routes,
            view,
            epoch,
        }
    }
}

/// Panic message of a connectivity query without the index (shared with
/// the serving engine's label-array queries).
pub(crate) const NO_CONNECTIVITY: &str = "connectivity index not enabled";

/// The one query surface of the index family, handed out by
/// `SnapshotManager::indexes` and `ServeEngine::indexes`. Every query
/// first checks the index against the engine's epoch (a stale index pays
/// one counted full rebuild) and then answers from the maintained state
/// under the index's read lock: both engines settle every cycle before
/// they publish its epoch, so an answer is the index as of the last
/// cycle. A query on an index the engine never enabled panics, naming
/// the index.
pub struct IndexQuery<'a, V> {
    routes: IndexRoutes<'a>,
    view: &'a V,
    epoch: &'a AtomicU64,
}

impl<'a, V: GraphView> IndexQuery<'a, V> {
    /// The attached indexes themselves (`None` when not enabled), for
    /// their counters.
    pub fn routes(&self) -> IndexRoutes<'a> {
        self.routes
    }

    /// `slot`'s index, resynced if it is behind the engine's epoch.
    fn fresh<I: IncrementalIndex>(&self, slot: Option<&'a I>, not_enabled: &str) -> &'a I {
        // panics: documented API contract — the query names an index
        // the engine never enabled; the message says which.
        let idx = slot.expect(not_enabled);
        // ordering: Acquire — pairs with the engine's epoch publication,
        // which follows the cycle's step of every attached index.
        let epoch = self.epoch.load(Ordering::Acquire);
        idx.resync(self.view, epoch);
        idx
    }

    fn conn(&self) -> &'a ConnectivityIndex {
        self.fresh(self.routes.conn, NO_CONNECTIVITY)
    }

    fn dist(&self) -> &'a DistanceIndex {
        self.fresh(self.routes.dist, "distance index not enabled")
    }

    fn tri(&self) -> &'a TriangleIndex {
        self.fresh(self.routes.tri, "triangle index not enabled")
    }

    /// Canonical component label (minimum member id) of `u`: a
    /// union-find walk, no traversal.
    pub fn component(&self, u: u32) -> u32 {
        self.conn().component(self.view, u)
    }

    /// True if `u` and `v` are connected.
    pub fn same_component(&self, u: u32, v: u32) -> bool {
        self.conn().same_component(self.view, u, v)
    }

    /// Number of connected components.
    pub fn component_count(&self) -> usize {
        self.conn().component_count(self.view)
    }

    /// Exact hop distance from pinned `source` to `v` (`None` when
    /// unreachable). Panics if `source` is not pinned.
    pub fn hop_distance(&self, source: u32, v: u32) -> Option<u32> {
        self.dist().distance(source, v)
    }

    /// The full distance row from pinned `source`
    /// ([`crate::distindex::UNREACHED`] for unreachable vertices).
    pub fn hop_distances(&self, source: u32) -> Vec<u32> {
        self.dist().distances(source)
    }

    /// Triangles incident to `u`, from the delta-maintained counters.
    pub fn triangles_of(&self, u: u32) -> u64 {
        self.tri().triangles_of(u)
    }

    /// Total distinct triangles.
    pub fn triangle_count(&self) -> u64 {
        self.tri().triangle_count()
    }

    /// Average clustering coefficient — bit-identical to
    /// `snap_kernels::average_clustering` on the view at quiescence.
    pub fn average_clustering(&self) -> f64 {
        self.tri().average_clustering()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::CapacityHints;
    use crate::dynarr::DynArr;
    use crate::graph::DynGraph;
    use snap_rmat::TimedEdge;
    use std::sync::Barrier;

    #[test]
    fn sticky_gap_survives_routed_steps() {
        let core = IndexCore::default();
        let state = RwLock::new(());
        core.sync_to(5);
        core.sync_change(6); // the exact step absorbs
        assert_eq!(core.synced_epoch(), 6);
        // Epoch 7 was an out-of-band bump: nobody stepped to it, so the
        // routed steps above it must not absorb the gap.
        core.sync_change(8);
        core.sync_change(9);
        assert_eq!(core.synced_epoch(), 6, "the gap stays open");
        core.resync(9, &state, |_| {});
        assert_eq!(core.synced_epoch(), 9);
        assert_eq!(core.full_rebuild_count(), 1);
        core.sync_change(10);
        assert_eq!(core.synced_epoch(), 10, "lockstep resumes after the resync");
    }

    #[test]
    fn sync_to_is_a_monotone_max() {
        let core = IndexCore::default();
        core.sync_to(7);
        core.sync_to(3);
        assert_eq!(core.synced_epoch(), 7);
        core.resync(5, &RwLock::new(()), |_| unreachable!("already past 5"));
        assert_eq!(core.synced_epoch(), 7);
    }

    #[test]
    fn concurrent_stale_queries_coalesce_into_one_rebuild() {
        const THREADS: usize = 8;
        let core = IndexCore::default();
        let state = RwLock::new(0usize);
        let start = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    start.wait();
                    core.resync(4, &state, |passes| *passes += 1);
                });
            }
        });
        assert_eq!(*state.read(), 1, "one rebuild ran");
        assert_eq!(core.full_rebuild_count(), 1);
        assert_eq!(core.synced_epoch(), 4);
    }

    fn path(n: usize) -> DynGraph<DynArr> {
        let g = DynGraph::undirected(n, &CapacityHints::new(n * 2));
        for i in 0..n as u32 - 1 {
            g.insert_edge(TimedEdge::new(i, i + 1, 1));
        }
        g
    }

    #[test]
    fn stale_index_resyncs_once_through_the_query_surface() {
        let g = path(4);
        let family = IndexFamily::default();
        let epoch = AtomicU64::new(0);
        family.attach_connectivity(&g, 0);
        family.attach_distances(&g, &[0], 0);
        family.attach_triangles(&g, 0);
        let q = family.query(&g, &epoch);
        assert_eq!(q.hop_distance(0, 3), Some(3));
        assert_eq!(q.triangle_count(), 0);
        assert_eq!(q.component_count(), 1);
        // A routed change: absorb, step, publish. Nothing rebuilds.
        let upd = Update::insert(TimedEdge::new(0, 2, 1));
        assert!(g.apply(&upd));
        let routes = family.routes();
        routes.absorb(&g, [&upd]);
        routes.sync_change(1);
        // ordering: Release — the test's epoch publication.
        epoch.store(1, Ordering::Release);
        assert_eq!(q.hop_distance(0, 3), Some(2));
        assert_eq!(q.triangle_count(), 1);
        // An out-of-band change: the epoch moves, the indexes do not.
        g.insert_edge(TimedEdge::new(1, 3, 1));
        // ordering: Release — the test's epoch publication.
        epoch.store(2, Ordering::Release);
        assert_eq!(q.triangle_count(), 2);
        assert_eq!(q.triangle_count(), 2);
        assert_eq!(q.hop_distance(0, 3), Some(2));
        assert!(q.same_component(0, 3));
        let cores: [&IndexCore; 3] = [
            routes.conn.unwrap(),
            routes.dist.unwrap(),
            routes.tri.unwrap(),
        ];
        for core in cores {
            assert_eq!(core.full_rebuild_count(), 1, "paid once, not per query");
            assert_eq!(core.synced_epoch(), 2);
        }
    }

    #[test]
    #[should_panic(expected = "triangle index not enabled")]
    fn query_on_a_missing_index_names_it() {
        let g = path(2);
        let family = IndexFamily::default();
        let epoch = AtomicU64::new(0);
        family.query(&g, &epoch).triangle_count();
    }
}
