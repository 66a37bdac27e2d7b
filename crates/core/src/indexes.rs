//! The connectivity index's protocol with the engines: one epoch
//! protocol ([`IndexCore`]), one slot both engines hold
//! ([`IndexFamily`]), the borrowed index the applier absorbs into
//! ([`IndexRoutes`]) and one query surface ([`IndexQuery`]).
//! [`crate::connectivity`] keeps the state and the delta rules.
//!
//! # Concurrency contract
//!
//! The index keeps its mutable state as plain data behind one
//! `RwLock`; [`IndexCore`] holds only the absorbed epoch and the
//! statistics counters. A change enters the index one way,
//! [`ConnectivityIndex::absorb`]: after an applier call's graph
//! mutation, `crate::engine::apply_vpart_indexed` hands it every change
//! the call made, in stream order, and the index settles what they owe
//! against the settled graph, all in one hold of its write lock. An
//! engine then steps the index and publishes the cycle's epoch. Readers
//! take the read lock and find a settled index, so an [`IndexQuery`]
//! answer is the index as of a cycle boundary, and no repair ever
//! overlaps a graph mutation. Whoever absorbs against a view must not
//! mutate it meanwhile; the engines guarantee that by construction.
//!
//! The epoch contract is ARCHITECTURE.md's invariant 6: the index is
//! attached with the engine epoch read **before** its build scan, a
//! cycle steps it by exactly one before the engine publishes the new
//! epoch, and a query first compares the two — an index left behind
//! (an out-of-band mutation, an update that raced its attachment) pays
//! one counted full rebuild. A gap is never stepped over.

use crate::connectivity::ConnectivityIndex;
use crate::view::GraphView;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// What the index embeds: the absorbed epoch and the counters.
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

    /// Targeted repairs so far: one per split side relabelled through
    /// the certificate and one per whole-component relabel. A clean
    /// query burst leaves this flat.
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

/// The connectivity index attached to a graph, borrowed for one applier
/// call: `None` absorbs nothing.
pub type IndexRoutes<'a> = Option<&'a ConnectivityIndex>;

/// The index an engine owns, attached at most once.
#[derive(Default)]
pub struct IndexFamily {
    conn: OnceLock<ConnectivityIndex>,
}

impl IndexFamily {
    /// Attaches (or returns) the connectivity index, built from `view`.
    /// `epoch_before` must have been read before this call: the index is
    /// stamped with it, so an update racing the build is not absorbed
    /// into it but does bump the epoch, and its first query finds it
    /// behind and resyncs.
    pub fn attach_connectivity<V: GraphView>(
        &self,
        view: &V,
        epoch_before: u64,
    ) -> &ConnectivityIndex {
        self.conn.get_or_init(|| {
            let idx = ConnectivityIndex::from_view(view);
            idx.sync_to(epoch_before);
            idx
        })
    }

    /// The index attached *right now*, captured by an engine once per
    /// mutation: an index attached mid-mutation is neither absorbed into
    /// nor stepped, so it stays behind and its first query resyncs.
    pub fn routes(&self) -> IndexRoutes<'_> {
        self.conn.get()
    }

    /// The query surface over `view`, checking freshness against
    /// `epoch` (the owning engine's published epoch) on every query.
    pub fn query<'a, V>(&'a self, view: &'a V, epoch: &'a AtomicU64) -> IndexQuery<'a, V> {
        IndexQuery {
            conn: self.routes(),
            view,
            epoch,
        }
    }
}

/// Panic message of a connectivity query without the index (shared with
/// the serving engine's label-array queries).
pub(crate) const NO_CONNECTIVITY: &str = "connectivity index not enabled";

/// The one query surface of the connectivity index, handed out by
/// `SnapshotManager::indexes` and `ServeEngine::indexes`. Every query
/// first checks the index against the engine's epoch (a stale index pays
/// one counted full rebuild) and then answers from the maintained state
/// under the index's read lock: both engines settle every cycle before
/// they publish its epoch, so an answer is the index as of the last
/// cycle. A query on an engine that never enabled the index panics.
pub struct IndexQuery<'a, V> {
    conn: Option<&'a ConnectivityIndex>,
    view: &'a V,
    epoch: &'a AtomicU64,
}

impl<'a, V: GraphView> IndexQuery<'a, V> {
    /// The attached index itself (`None` when not enabled), for its
    /// counters.
    pub fn connectivity(&self) -> Option<&'a ConnectivityIndex> {
        self.conn
    }

    /// The index, resynced if it is behind the engine's epoch.
    fn conn(&self) -> &'a ConnectivityIndex {
        // panics: documented API contract — the engine never enabled the
        // index.
        let idx = self.conn.expect(NO_CONNECTIVITY);
        // ordering: Acquire — pairs with the engine's epoch publication,
        // which follows the cycle's step of the index.
        let epoch = self.epoch.load(Ordering::Acquire);
        idx.resync(self.view, epoch);
        idx
    }

    /// Canonical component label (minimum member id) of `u`: one label
    /// read, no traversal.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::CapacityHints;
    use crate::dynarr::DynArr;
    use crate::graph::DynGraph;
    use snap_rmat::{TimedEdge, Update};
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
        let q = family.query(&g, &epoch);
        assert_eq!(q.component_count(), 1);
        // A routed change: absorb, step, publish. Nothing rebuilds.
        let conn = family.routes().expect("attached");
        let upd = Update::delete(TimedEdge::new(2, 3, 1));
        assert!(g.apply(&upd));
        conn.absorb(&g, [&upd]);
        conn.sync_change(1);
        // ordering: Release — the test's epoch publication.
        epoch.store(1, Ordering::Release);
        assert_eq!(q.component_count(), 2);
        assert_eq!(conn.full_rebuild_count(), 0);
        // An out-of-band change: the epoch moves, the index does not.
        g.insert_edge(TimedEdge::new(1, 3, 1));
        // ordering: Release — the test's epoch publication.
        epoch.store(2, Ordering::Release);
        assert_eq!(q.component_count(), 1);
        assert_eq!(q.component_count(), 1);
        assert!(q.same_component(0, 3));
        assert_eq!(conn.full_rebuild_count(), 1, "paid once, not per query");
        assert_eq!(conn.synced_epoch(), 2);
    }

    #[test]
    #[should_panic(expected = "connectivity index not enabled")]
    fn query_on_a_missing_index_names_it() {
        let g = path(2);
        let family = IndexFamily::default();
        let epoch = AtomicU64::new(0);
        family.query(&g, &epoch).same_component(0, 1);
    }
}
