//! The incremental index family: one epoch / generation protocol
//! ([`IndexCore`]), one shield set (`Shields`), one contract an index
//! joins it by ([`IncrementalIndex`]), one owner both engines hold
//! ([`IndexFamily`]), one borrowed bundle the appliers route into
//! ([`IndexRoutes`]) and one query surface ([`IndexQuery`]). The index
//! files ([`crate::connectivity`], [`crate::distindex`],
//! [`crate::triindex`]) keep only their state and delta rules.
//!
//! The epoch contract is ARCHITECTURE.md's invariant 6: an index is
//! attached with the engine epoch read **before** its build scan, a
//! routed change steps it by exactly one before the engine publishes the
//! new epoch, and a query first compares the two — an index left behind
//! (an out-of-band mutation, an update that raced its attachment) pays
//! one counted full rebuild, which records the epoch only if no note
//! raced its scan. A gap is never stepped over.
//! The shield protocol, invariant 4, is `Shields` and the one guarded
//! lower, `IndexCore::lower_guarded`: raise before the first store, lower
//! after the last, then re-check the generation and re-mark if it moved.

use crate::connectivity::ConnectivityIndex;
use crate::distindex::DistanceIndex;
use crate::triindex::TriangleIndex;
use crate::view::GraphView;
use parking_lot::Mutex;
use snap_rmat::Update;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Shield bits (invariant 4): one per unit — a vertex, a source, or a
/// cell of a source × vertex row — plus the hint that some unit is
/// *marked*. A raised unit sends a lock-free reader into the index's
/// locked repair path. A mark is a raise that also records debt for the
/// next [`IncrementalIndex::repair_all`]; publication shields are plain
/// raises, so a split never costs the writer a pass. Every lower is an
/// AcqRel read-modify-write: a lower that wipes a racing note's raise has
/// read it, so the note's earlier generation bump is visible to the
/// re-check in [`IndexCore::lower_guarded`].
pub(crate) struct Shields {
    words: Vec<AtomicU64>,
    /// `rows` word-aligned rows of `row_len` units in `row_words` words.
    rows: usize,
    row_len: usize,
    row_words: usize,
    /// Set by every mark, taken by `take_marks`; the bits are
    /// authoritative.
    marked: AtomicBool,
}

impl Shields {
    /// `rows` rows of `row_len` shields each, all lowered.
    pub(crate) fn new(rows: usize, row_len: usize) -> Self {
        let row_words = row_len.div_ceil(64);
        Self {
            words: (0..rows * row_words).map(|_| AtomicU64::new(0)).collect(),
            rows,
            row_len,
            row_words,
            marked: AtomicBool::new(false),
        }
    }

    /// The unit of `col` in row `row`.
    pub(crate) fn at(&self, row: usize, col: usize) -> usize {
        row * self.row_words * 64 + col
    }

    #[inline]
    pub(crate) fn raise(&self, i: usize) {
        // ordering: AcqRel — before the stores it shields (invariant 4).
        self.words[i >> 6].fetch_or(1 << (i & 63), Ordering::AcqRel);
    }

    #[inline]
    pub(crate) fn lower(&self, i: usize) {
        // ordering: AcqRel — the publication point: its release carries
        // the label stores before it to a reader that acquires the word,
        // its acquire a raise it wipes to the re-check (invariant 4).
        self.words[i >> 6].fetch_and(!(1u64 << (i & 63)), Ordering::AcqRel);
    }

    #[inline]
    pub(crate) fn is_raised(&self, i: usize) -> bool {
        // ordering: Acquire — pairs with `raise` and `lower` (invariant 4).
        self.words[i >> 6].load(Ordering::Acquire) & (1 << (i & 63)) != 0
    }

    fn hint(&self, marked: bool) {
        // ordering: Release — after the bits it reports, so whoever takes
        // it (AcqRel in `take_marks`) sees them (invariant 4).
        self.marked.store(marked, Ordering::Release);
    }

    /// Raises unit `i` and records the debt.
    pub(crate) fn mark(&self, i: usize) {
        self.raise(i);
        self.hint(true);
    }

    /// True if some unit may be marked; the hint can outlive its marks
    /// until the next `take_marks`.
    pub(crate) fn any_marked(&self) -> bool {
        // ordering: Acquire — pairs with `hint` (invariant 4).
        self.marked.load(Ordering::Acquire)
    }

    /// Takes the hint. A mark racing the caller's scan sets it again.
    pub(crate) fn take_marks(&self) -> bool {
        // ordering: AcqRel — acquires the marks it takes (invariant 4).
        self.marked.swap(false, Ordering::AcqRel)
    }

    /// Raises every unit of `row`.
    pub(crate) fn raise_row(&self, row: usize) {
        for w in &self.words[row * self.row_words..(row + 1) * self.row_words] {
            // ordering: Release — as in `raise` (invariant 4).
            w.store(u64::MAX, Ordering::Release);
        }
    }

    /// Raises every unit and records the debt.
    pub(crate) fn mark_all(&self) {
        (0..self.rows).for_each(|r| self.raise_row(r));
        self.hint(true);
    }

    /// Lowers every unit and drops the hint: every debt is settled.
    pub(crate) fn lower_all(&self) {
        (0..self.rows).for_each(|r| self.take_row(r, |_| {}));
        self.hint(false);
    }

    /// Calls `f` with the column of every raised unit of `row`, in
    /// ascending order.
    pub(crate) fn for_each_raised(&self, row: usize, f: impl FnMut(usize)) {
        // ordering: Acquire — as in `is_raised` (invariant 4).
        self.scan_row(row, |w| w.load(Ordering::Acquire), f);
    }

    /// [`Shields::for_each_raised`], lowering the row as it goes; a unit
    /// raised after its word was taken stays raised.
    pub(crate) fn take_row(&self, row: usize, f: impl FnMut(usize)) {
        // ordering: AcqRel — as in `lower` (invariant 4).
        self.scan_row(row, |w| w.swap(0, Ordering::AcqRel), f);
    }

    fn scan_row(&self, row: usize, read: impl Fn(&AtomicU64) -> u64, mut f: impl FnMut(usize)) {
        let words = &self.words[row * self.row_words..(row + 1) * self.row_words];
        for (w, word) in words.iter().enumerate() {
            let mut bits = read(word);
            while bits != 0 {
                let col = (w << 6) + bits.trailing_zeros() as usize;
                if col < self.row_len {
                    f(col);
                }
                bits &= bits - 1;
            }
        }
    }
}

/// What every index embeds: the absorbed epoch, the note generation that
/// guards repairs and rebuilds, the rebuild loop and the counters.
#[derive(Default)]
pub struct IndexCore {
    /// Epoch of the owning engine this index has absorbed.
    synced_epoch: AtomicU64,
    /// Bumped at the *start* of every routed note, before the index is
    /// touched. A repair or rebuild samples it before its view scan and
    /// again after lowering its shields: movement means a note raced it —
    /// its graph mutation may have been missed by the scan, or its mark
    /// wiped by the lower — so the result must not be trusted.
    note_gen: AtomicU64,
    repairs: AtomicUsize,
    full_rebuilds: AtomicUsize,
    /// Serializes resyncs, so concurrent stale queries coalesce into
    /// one rebuild.
    resync_lock: Mutex<()>,
    /// Test hook: the next this-many guarded lowers each have a note
    /// land between the lower and the re-check.
    #[cfg(test)]
    notes_on_lower: AtomicUsize,
}

impl IndexCore {
    /// Rebuild passes attempted before giving up on a generation-stable
    /// scan.
    const REBUILD_RETRIES: usize = 4;

    /// Engine epoch this index has absorbed (monotone).
    pub fn synced_epoch(&self) -> u64 {
        // ordering: Acquire — pairs with the AcqRel epoch stores so an
        // observed epoch implies the updates it covers (invariant 6).
        self.synced_epoch.load(Ordering::Acquire)
    }

    /// Advances the absorbed epoch (monotone max, so racing threads
    /// cannot move it backwards). Only for an index that provably
    /// reflects everything up to `epoch`: at build time and after a
    /// rebuild. Routed changes go through [`IndexCore::sync_change`].
    pub fn sync_to(&self, epoch: u64) {
        // ordering: AcqRel — monotone epoch publication (invariant 6).
        self.synced_epoch.fetch_max(epoch, Ordering::AcqRel);
    }

    /// Absorbs exactly one routed epoch bump: steps the absorbed epoch
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

    /// Runs `rebuild` if the absorbed epoch is behind `epoch` —
    /// re-checked under the resync lock, so concurrent stale queries
    /// coalesce into one rebuild — and records `epoch` only if it
    /// reports convergence: a rebuild raced by notes leaves the gap open
    /// for the next query.
    pub(crate) fn resync(&self, epoch: u64, rebuild: impl FnOnce() -> bool) {
        if self.synced_epoch() >= epoch {
            return;
        }
        let _guard = self.resync_lock.lock();
        if self.synced_epoch() < epoch && rebuild() {
            self.sync_to(epoch);
        }
    }

    /// Bump-before-touch: the first act of every routed note. A rebuild
    /// whose scan-start read includes the bump also sees the note's
    /// graph mutation; one that misses it observes the moved generation
    /// afterwards and refuses to publish.
    pub(crate) fn begin_note(&self) {
        // ordering: Release — pairs with the Acquire reads in
        // `generation`.
        self.note_gen.fetch_add(1, Ordering::Release);
    }

    /// The note generation, for a repair to compare before its view
    /// scan and after its publication.
    pub(crate) fn generation(&self) -> u64 {
        // ordering: Acquire — pairs with the Release bump in
        // `begin_note` (invariant 6).
        self.note_gen.load(Ordering::Acquire)
    }

    /// The one guarded shield-lower (invariant 4): runs `lower`, which
    /// ends with every shield the caller raised lowered again, and only
    /// then compares the generation with `gen_at_scan`, sampled before
    /// the caller's view scan. Returns whether it moved — a note raced
    /// the scan, or had its mark wiped by the lower — so the caller must
    /// re-mark what it touched. A mark after the check finds its shield
    /// already down and stays.
    pub(crate) fn lower_guarded(&self, gen_at_scan: u64, lower: impl FnOnce()) -> bool {
        lower();
        #[cfg(test)]
        {
            // ordering: Relaxed — a test-only countdown on the lowering
            // thread; the note it stages is ordered by `begin_note`
            // (invariant 4).
            let take =
                self.notes_on_lower
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |k| k.checked_sub(1));
            if take.is_ok() {
                self.begin_note();
            }
        }
        self.generation() != gen_at_scan
    }

    /// The full-rebuild loop, counted once. Each pass marks every set of
    /// `shields` in order, runs `scan` (recompute everything from the
    /// view) and, if no note moved the generation across it, lowers them
    /// in order through [`IndexCore::lower_guarded`]; a race re-runs the
    /// pass. Returns whether a pass converged; on `false` every shield
    /// is left marked and no epoch may be recorded.
    pub(crate) fn rebuild_until_stable(
        &self,
        shields: &[&Shields],
        mut scan: impl FnMut(),
    ) -> bool {
        // ordering: Relaxed — statistics counter, no ordering consumed.
        self.full_rebuilds.fetch_add(1, Ordering::Relaxed);
        for _attempt in 0..Self::REBUILD_RETRIES {
            let gen_at_scan = self.generation();
            shields.iter().for_each(|s| s.mark_all());
            scan();
            if self.generation() != gen_at_scan {
                continue;
            }
            if !self.lower_guarded(gen_at_scan, || shields.iter().for_each(|s| s.lower_all())) {
                return true;
            }
        }
        shields.iter().for_each(|s| s.mark_all());
        false
    }

    /// Counts `n` published repairs.
    pub(crate) fn count_repairs(&self, n: usize) {
        // ordering: Relaxed — statistics counter, no ordering consumed.
        self.repairs.fetch_add(n, Ordering::Relaxed);
    }

    /// Targeted repairs published so far: connectivity counts one per
    /// split side relabelled through the certificate and one per
    /// whole-component relabel, distances one per dirty source row. A
    /// clean query burst leaves this flat.
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
/// every index), and it implements the three operations below.
pub trait IncrementalIndex: Deref<Target = IndexCore> {
    /// Absorbs one confirmed change. `view` already reflects it (mutate
    /// first, then note), and an update that did not change the graph is
    /// never noted.
    fn note<V: GraphView>(&self, view: &V, upd: &Update);

    /// Settles every dirty region the notes left, against `view`.
    fn repair_all<V: GraphView>(&self, _view: &V) {}

    /// Discards everything and recomputes from `view`, counted as one
    /// full rebuild. Returns whether the rebuild converged (no note
    /// raced its scan); on `false` the index stays shielded.
    fn rebuild_from<V: GraphView>(&self, view: &V) -> bool;
}

/// Borrowed bundle of the incremental indexes attached to a graph. All
/// slots are optional; an empty bundle routes nothing.
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

    /// Routes one confirmed change into every attached index
    /// ([`IncrementalIndex::note`]'s contract: `view` already reflects
    /// it).
    pub fn route<V: GraphView>(&self, view: &V, upd: &Update) {
        if let Some(c) = self.conn {
            c.note(view, upd);
        }
        if let Some(d) = self.dist {
            d.note(view, upd);
        }
        if let Some(t) = self.tri {
            t.note(view, upd);
        }
    }

    /// Settles every attached index's dirty regions against `view` — the
    /// writer-side repair phase, after which queries read clean state.
    pub fn repair_all<V: GraphView>(&self, view: &V) {
        if let Some(c) = self.conn {
            c.repair_all(view);
        }
        if let Some(d) = self.dist {
            d.repair_all(view);
        }
        if let Some(t) = self.tri {
            t.repair_all(view);
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
/// update racing the build is not routed into it but does bump the
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
    /// mutation: an index attached mid-mutation is neither routed into
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
/// one counted full rebuild) and then answers from the maintained state,
/// repairing dirty regions lazily against the engine's live graph. A
/// query on an index the engine never enabled panics, naming the index.
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
        // which follows the routed step of every attached index.
        let epoch = self.epoch.load(Ordering::Acquire);
        idx.resync(epoch, || idx.rebuild_from(self.view));
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

    /// Canonical component label (minimum member id) of `u`: no
    /// traversal unless a pending deletion cut a certificate edge.
    pub fn component(&self, u: u32) -> u32 {
        self.conn().component(self.view, u)
    }

    /// True if `u` and `v` are connected.
    pub fn same_component(&self, u: u32, v: u32) -> bool {
        self.conn().same_component(self.view, u, v)
    }

    /// Number of connected components, settling pending deletions first.
    pub fn component_count(&self) -> usize {
        self.conn().component_count(self.view)
    }

    /// Exact hop distance from pinned `source` to `v` (`None` when
    /// unreachable). Panics if `source` is not pinned.
    pub fn hop_distance(&self, source: u32, v: u32) -> Option<u32> {
        self.dist().distance(self.view, source, v)
    }

    /// The full distance row from pinned `source`
    /// ([`crate::distindex::UNREACHED`] for unreachable vertices).
    pub fn hop_distances(&self, source: u32) -> Vec<u32> {
        self.dist().distances(self.view, source)
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
    use crate::connectivity::restricted_component_labels;
    use crate::distindex::{restricted_hop_distances, UNREACHED};
    use crate::dynarr::DynArr;
    use crate::graph::DynGraph;
    use crate::view::probe::ProbeView;
    use snap_rmat::TimedEdge;
    use std::sync::Barrier;

    #[test]
    fn sticky_gap_survives_routed_steps() {
        let core = IndexCore::default();
        core.sync_to(5);
        core.sync_change(6); // the exact step absorbs
        assert_eq!(core.synced_epoch(), 6);
        // Epoch 7 was an out-of-band bump: nobody stepped to it, so the
        // routed steps above it must not absorb the gap.
        core.sync_change(8);
        core.sync_change(9);
        assert_eq!(core.synced_epoch(), 6, "the gap stays open");
        core.resync(9, || true);
        assert_eq!(core.synced_epoch(), 9);
        core.sync_change(10);
        assert_eq!(core.synced_epoch(), 10, "lockstep resumes after the resync");
    }

    #[test]
    fn sync_to_is_a_monotone_max() {
        let core = IndexCore::default();
        core.sync_to(7);
        core.sync_to(3);
        assert_eq!(core.synced_epoch(), 7);
        core.resync(5, || unreachable!("already past 5"));
        assert_eq!(core.synced_epoch(), 7);
    }

    #[test]
    fn concurrent_stale_queries_coalesce_into_one_rebuild() {
        const THREADS: usize = 8;
        let core = IndexCore::default();
        let start = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    start.wait();
                    core.resync(4, || core.rebuild_until_stable(&[], || {}));
                });
            }
        });
        assert_eq!(core.full_rebuild_count(), 1);
        assert_eq!(core.synced_epoch(), 4);
    }

    #[test]
    fn rebuild_raced_by_a_note_does_not_record_the_epoch() {
        let core = IndexCore::default();
        let shields = Shields::new(2, 70);
        let mut passes = 0;
        // A note lands during every scan: no pass may publish.
        core.resync(3, || {
            core.rebuild_until_stable(&[&shields], || {
                passes += 1;
                core.begin_note();
            })
        });
        assert_eq!(passes, IndexCore::REBUILD_RETRIES);
        assert!(shields.any_marked() && shields.is_raised(shields.at(1, 69)));
        assert_eq!(core.synced_epoch(), 0, "the gap stays open");
        assert_eq!(
            core.full_rebuild_count(),
            1,
            "one rebuild, however many passes"
        );
        // A note landing on the publication's lower re-runs the pass; the
        // second pass is quiet and converges with every shield down.
        // ordering: Relaxed — arms the test hook on this thread
        // (invariant 4).
        core.notes_on_lower.store(1, Ordering::Relaxed);
        let mut passes = 0;
        core.resync(3, || core.rebuild_until_stable(&[&shields], || passes += 1));
        assert_eq!(passes, 2, "the raced lower re-runs the pass");
        assert_eq!(core.synced_epoch(), 3);
        assert_eq!(core.full_rebuild_count(), 2);
        assert!(!shields.any_marked() && !shields.is_raised(shields.at(1, 69)));
        // A note landing on every lower: no pass converges, the shields
        // go back up and the gap stays open.
        // ordering: Relaxed — arms the test hook on this thread
        // (invariant 4).
        core.notes_on_lower.store(usize::MAX, Ordering::Relaxed);
        core.resync(4, || core.rebuild_until_stable(&[&shields], || {}));
        assert_eq!(core.synced_epoch(), 3, "the gap stays open");
        assert!(shields.any_marked() && shields.is_raised(shields.at(1, 69)));
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
        // A routed change: note, step, publish. Nothing rebuilds.
        let upd = Update::insert(TimedEdge::new(0, 2, 1));
        assert!(g.apply(&upd));
        let routes = family.routes();
        routes.route(&g, &upd);
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
    fn rebuild_that_never_converges_leaves_both_indexes_shielded() {
        let g = path(6);
        assert!(g.delete_edge(3, 4));
        let all: Vec<u32> = (0..6).collect();
        let conn = ConnectivityIndex::from_view(&g);
        let dist = DistanceIndex::from_view(&g, &[0, 5]);
        // A note races every adjacency read, so no rebuild pass scans a
        // quiet generation. Each re-inserts a parallel (0, 1): the graph
        // changes, neither oracle's answer does.
        let parallel_edge = || assert!(g.insert_edge(TimedEdge::new(0, 1, 1)));
        let racing = ProbeView::with_hook(&g, 1, || {
            parallel_edge();
            conn.note_insert(0, 1);
        });
        assert!(!conn.rebuild_from(&racing));
        let racing = ProbeView::with_hook(&g, 1, || {
            parallel_edge();
            dist.note_insert(&g, 0, 1);
        });
        assert!(!dist.rebuild_from(&racing));
        // Every component and every source is owed a repair ...
        assert!(conn.has_dirty() && all.iter().all(|&v| conn.is_component_dirty(v)));
        assert!(dist.has_dirty() && dist.is_source_dirty(0) && dist.is_source_dirty(5));
        // ... a source its whole row, not just its shield: the repair
        // reads every vertex, the other component's too ...
        let reads = ProbeView::new(&g);
        dist.distances(&reads, 5);
        assert_eq!(reads.read_set(), all);
        // ... and the next quiet queries answer like the oracles.
        let labels = restricted_component_labels(&g, &all);
        assert!(all
            .iter()
            .all(|&v| conn.component(&g, v) == labels[v as usize]));
        for s in [0, 5] {
            let ext: Vec<u32> = all
                .iter()
                .map(|&v| if v == s { 0 } else { UNREACHED })
                .collect();
            assert_eq!(
                dist.distances(&g, s),
                restricted_hop_distances(&g, &all, &ext)
            );
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
