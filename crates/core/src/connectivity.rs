//! Incremental connectivity serving: a concurrent union-find index over
//! the dynamic graph, certified by the paper's link-cut forest.
//!
//! The paper's motivating workload is *serving connectivity queries on a
//! massive graph under a stream of updates*. The kernels answer those
//! queries by traversal (BFS / Shiloach–Vishkin) over a snapshot — an
//! O(n + m) recompute per batch, or worse, per query. This module is the
//! subsystem that makes the query path cheap:
//!
//! - **Insertions are free to index.** [`ConnectivityIndex`] maintains a
//!   lock-free union-find (`u32` parent forest, CAS hooking, path
//!   splitting). An edge insertion is one [`ConnectivityIndex::union`];
//!   `component(u)` / `same_component(u, v)` are then near-O(α) pointer
//!   chases with **zero traversals and zero CSR rebuilds**.
//! - **Every merge leaves a certificate edge.** Beside the union-find
//!   the index keeps the paper's spanning forest (§3.1; one parent
//!   pointer per vertex, [`crate::forest::Forest`]): the edge whose
//!   insertion merged two components becomes a tree edge, so at
//!   quiescence the forest spans exactly the components the labels
//!   name.
//! - **A deletion costs the smaller side of the cut, or nothing.**
//!   Union-find cannot un-union, but an edge that is *not* in the forest
//!   cannot disconnect anything: its deletion is an O(1) no-op — no
//!   traversal, no relabel. Deleting a certificate edge cuts it and
//!   searches the **live** [`GraphView`] for a replacement by growing
//!   both sides of the cut in lock-step
//!   ([`crate::forest::Forest::reconnect`]); the work is bounded by the
//!   smaller side. Only a true split relabels, and only the members of
//!   the side the search exhausted.
//! - **Notes are cheap, the forest is serialized.**
//!   [`ConnectivityIndex::note_insert`] / [`ConnectivityIndex::note_delete`]
//!   never touch the forest: a merging insert and every delete append to
//!   a pending log, and the next query (or
//!   [`ConnectivityIndex::labels`]) drains it under the repair lock —
//!   links first, then cuts, then one replacement search per cut, all
//!   against the view as it is *then*. Log entries are hints checked
//!   against the view, so the order racing notes land in does not
//!   matter.
//! - **The whole-component relabel is the fallback.** A serial restricted
//!   connected-components pass over a component's members
//!   ([`restricted_component_labels`]) still runs — and re-derives that
//!   component's certificate — in exactly these cases: the exhausted
//!   side of a split holds the component's minimum id (the other side
//!   then needs a new minimum, hence an enumeration); a caller marked
//!   the component with [`ConnectivityIndex::mark_component_dirty`]; a
//!   note raced the drain (the generation guard, invariant 6); the view
//!   is directed (its out-adjacency cannot be searched from both
//!   sides). Out-of-band resync rebuilds labels and certificate
//!   together.
//! - **Self-loops never matter**: deleting `(u, u)` cannot disconnect,
//!   so it is ignored outright.
//!
//! Canonical labels: unions always hook the higher-id root under the
//! lower one and every relabel assigns the minimum member id, so every
//! stable label is the component's minimum vertex id — bit-comparable
//! with `connected_components`, `par_cc`, and the union-find test oracle.
//!
//! # Concurrency contract
//!
//! Mutations (`union` / `note_insert` / `note_delete`) take `&self` and
//! are thread-safe, like the rest of the workspace. Queries are safe to
//! run concurrently with each other, including the repairs they trigger:
//! repairs serialize on an internal lock (which also owns the forest),
//! members being relabeled are shielded (invariant 4, see
//! [`crate::indexes`]), and
//! [`ConnectivityIndex::component`] re-checks root stability before
//! answering. Queries racing *mutations* follow the workspace's
//! bulk-synchronous discipline (apply the batch, then query); see
//! [`crate::indexes`] for the epoch bookkeeping that detects
//! out-of-band mutation and falls back to a full rebuild.

use crate::forest::{Forest, Reconnect, Search, ROOT};
use crate::indexes::{IncrementalIndex, IndexCore, Shields};
use crate::view::GraphView;
use parking_lot::Mutex;
use snap_rmat::{Update, UpdateKind};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Connectivity-index instrumentation, shared by every index in the
/// process (ZST no-ops without the `obs` feature). The per-index
/// counters in [`IndexCore`] stay authoritative for the public API;
/// these aggregate across indexes for scraping.
struct ConnMetrics {
    dirty_marks: snap_obs::Counter,
    repairs: snap_obs::Counter,
    full_rebuilds: snap_obs::Counter,
    shield_events: snap_obs::Counter,
    cert_deletes: snap_obs::Counter,
    noncert_deletes: snap_obs::Counter,
    replacements: snap_obs::Counter,
    splits: snap_obs::Counter,
    fallbacks: snap_obs::Counter,
    search_scanned: snap_obs::Histogram,
    relabel_members: snap_obs::Histogram,
}

fn conn_metrics() -> &'static ConnMetrics {
    static M: OnceLock<ConnMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = snap_obs::MetricsRegistry::global();
        ConnMetrics {
            dirty_marks: r.counter(
                "snap_conn_dirty_marks_total",
                "Components marked for a whole-component relabel",
            ),
            repairs: r.counter(
                "snap_conn_repairs_total",
                "Relabels published (one split side or one whole component each)",
            ),
            full_rebuilds: r.counter(
                "snap_conn_full_rebuilds_total",
                "Full index rebuilds (incremental maintenance keeps this at zero)",
            ),
            shield_events: r.counter(
                "snap_conn_shield_events_total",
                "Vertices shielded during repairs and rebuilds",
            ),
            cert_deletes: r.counter(
                "snap_conn_certificate_deletes_total",
                "Deletions that cut a certificate (spanning-forest) edge",
            ),
            noncert_deletes: r.counter(
                "snap_conn_noncertificate_deletes_total",
                "Deletions that missed the certificate: O(1), no traversal",
            ),
            replacements: r.counter(
                "snap_conn_replacements_total",
                "Replacement edges found by the lock-step search",
            ),
            splits: r.counter(
                "snap_conn_splits_total",
                "Searches that exhausted one side: true component splits",
            ),
            fallbacks: r.counter(
                "snap_conn_fallback_relabels_total",
                "Whole-component relabels (the fallback of the certificate path)",
            ),
            search_scanned: r.histogram(
                "snap_conn_search_scanned_entries",
                "Adjacency entries scanned per replacement search (both sides)",
            ),
            relabel_members: r.histogram(
                "snap_conn_relabel_members",
                "Members relabelled per repair (split side or whole component)",
            ),
        }
    })
}

/// One pending notification, recorded by the note path and applied to
/// the certificate by the next drain.
#[derive(Clone, Copy, Debug)]
enum Note {
    /// Inserting `(u, v)` merged two components: a certificate edge.
    Link(u32, u32),
    /// `(u, v)` was deleted.
    Cut(u32, u32),
}

/// Everything only a repair touches; the repair lock owns it.
struct Certificate {
    /// Spanning forest of the indexed graph: at quiescence its trees are
    /// exactly the components the union-find labels name.
    forest: Forest,
    search: Search,
    /// Drain scratch, zero between uses: 1-based id of the split set
    /// that claimed the vertex (sized on first use).
    split_of: Vec<u32>,
}

/// Incrementally maintained connectivity over a dynamic graph: concurrent
/// union-find certified by a spanning forest, so deletions cost the
/// smaller side of the cut. See the [module docs](self) for the design
/// and the concurrency contract.
///
/// # Examples
///
/// ```
/// use snap_core::adjacency::CapacityHints;
/// use snap_core::{ConnectivityIndex, DynGraph, HybridAdj};
/// use snap_rmat::TimedEdge;
///
/// let g: DynGraph<HybridAdj> = DynGraph::undirected(5, &CapacityHints::new(16));
/// for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4)] {
///     g.insert_edge(TimedEdge::new(u, v, 1));
/// }
/// let idx = ConnectivityIndex::from_view(&g);
/// assert!(idx.same_component(&g, 0, 2));
/// assert!(!idx.same_component(&g, 0, 3));
/// assert_eq!(idx.component_count(&g), 2);
///
/// // Whichever edge of the triangle goes first, 0-1-2 stays connected:
/// // either the edge was no certificate edge (nothing to do) or the
/// // search finds the way round. Nothing is relabelled.
/// g.delete_edge(0, 2);
/// idx.note_delete(0, 2);
/// assert!(idx.same_component(&g, 0, 2));
/// assert_eq!(idx.repair_count(), 0);
///
/// // A bridge splits its component; only the side the search
/// // exhausted is relabelled.
/// g.delete_edge(3, 4);
/// idx.note_delete(3, 4);
/// assert!(!idx.same_component(&g, 3, 4));
/// assert_eq!(idx.repair_count(), 1);
/// ```
pub struct ConnectivityIndex {
    /// Union-find forest. Roots satisfy `parent[r] == r`; every hook
    /// points a higher id at a lower one, so a component's root is its
    /// minimum vertex id.
    parent: Vec<AtomicU32>,
    /// One shield per vertex. A mark on a *root* owes its component a
    /// whole-component relabel; during any relabel the shields of every
    /// vertex whose label changes are raised, so concurrent readers
    /// re-route into the repair path until the new labels are fully
    /// published (invariant 4).
    shields: Shields,
    /// Notes not yet applied to the certificate, in arrival order. The
    /// lock is held for one push or one swap, never across a traversal.
    log: Mutex<Vec<Note>>,
    /// Hint that notes are logged or being drained, so clean queries
    /// skip the lock. Raised and lowered under the `log` lock.
    pending: AtomicBool,
    /// Live component count (successful unions decrement, repairs add
    /// back the splits they discover).
    components: AtomicUsize,
    /// Epoch coupling, note generation and the `repair_count` /
    /// `full_rebuild_count` counters (invariant 6; the index derefs to
    /// it). A repair that sees the generation move across its view reads
    /// re-marks the components involved instead of trusting its result.
    core: IndexCore,
    /// Serializes repairs and full rebuilds and owns the certificate;
    /// clean-component queries never take it.
    repair_lock: Mutex<Certificate>,
}

impl ConnectivityIndex {
    /// An index over `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).map(AtomicU32::new).collect(),
            shields: Shields::new(1, n),
            log: Mutex::new(Vec::new()),
            pending: AtomicBool::new(false),
            components: AtomicUsize::new(n),
            core: IndexCore::default(),
            repair_lock: Mutex::new(Certificate {
                forest: Forest::new(n),
                search: Search::new(),
                split_of: Vec::new(),
            }),
        }
    }

    /// Builds labels and certificate from the live edges of a view in
    /// one breadth-first pass (the initial build is not counted as a
    /// rebuild).
    pub fn from_view<V: GraphView>(view: &V) -> Self {
        let idx = Self::new(view.num_vertices());
        idx.absorb(view, &mut idx.repair_lock.lock());
        idx
    }

    /// Labels and spans every component of `view`. Expects identity
    /// labels and a forest of singletons. Sweeping start vertices in
    /// ascending order makes each start the minimum of its component, so
    /// the labels come out canonical and flat, and the BFS tree is the
    /// certificate (shallow, so `reroot` and the search's walks stay
    /// short).
    fn absorb<V: GraphView>(&self, view: &V, cert: &mut Certificate) {
        if view.is_directed() {
            // Components are weak: a BFS over out-edges would miss
            // in-neighbours, so union per stored entry. (No certificate
            // is kept for directed views; see `settle_locked`.)
            for u in 0..self.parent.len() as u32 {
                view.for_each_edge(u, |w, _| {
                    self.union(u, w);
                });
            }
            return;
        }
        let n = self.parent.len();
        let mut merged = 0usize;
        grow_trees(view, 0..n as u32, &mut vec![true; n], |s, y, x| {
            // ordering: Release — same publication rule as the union
            // hook (invariant 5); `s < y`, so labels only ever decrease.
            self.parent[y as usize].store(s, Ordering::Release);
            cert.forest.link(y, x);
            merged += 1;
        });
        // ordering: AcqRel — pairs with the Acquire load in
        // `component_count`, like the per-union decrement.
        self.components.fetch_sub(merged, Ordering::AcqRel);
    }

    // ---- the concurrent union-find core --------------------------------

    /// Walk depth past which [`ConnectivityIndex::find`] tries to
    /// flatten the chain (under the repair lock).
    const FIND_COMPRESS_DEPTH: usize = 16;

    /// Current root of `x`'s tree. The walk itself is **read-only**:
    /// a query must not path-split lock-free, because a repair can
    /// *raise* parent values when it publishes a split, and a racing
    /// splitting CAS whose expected value coincides with the freshly
    /// published one (ABA on vertex ids) would overwrite the repair
    /// with a stale ancestor. Mutations compress through
    /// `ConnectivityIndex::find_compress` and repairs flatten what they
    /// relabel, which keeps typical walks short; if an
    /// adversarial insertion order still builds a deep chain (union by
    /// min-id has no rank), the walk flattens it opportunistically —
    /// but only under the repair lock, which excludes the repair
    /// publication the read-only rule exists to avoid, via `try_lock`
    /// so the query never blocks and never deadlocks from locked
    /// contexts.
    pub fn find(&self, x: u32) -> u32 {
        let mut cur = x;
        let mut steps = 0usize;
        loop {
            // ordering: Acquire — a walk that reads a repair-published
            // parent must also see every label store that preceded its
            // publication (invariant 5: the query walk is read-only and
            // leans on publication order, not locks).
            let p = self.parent[cur as usize].load(Ordering::Acquire);
            if p == cur {
                break;
            }
            cur = p;
            steps += 1;
        }
        if steps > Self::FIND_COMPRESS_DEPTH {
            if let Some(_guard) = self.repair_lock.try_lock() {
                self.find_compress(x);
            }
        }
        cur
    }

    /// [`ConnectivityIndex::find`] with path splitting: every visited
    /// vertex is CAS-pointed at its grandparent, halving the path for
    /// later walks. Only the mutation side uses it — during a mutation
    /// phase parents only ever decrease, so a stale split write is still
    /// a valid ancestor; concurrent *repairs* (query side) can raise
    /// parents, which is why queries use the read-only walk.
    fn find_compress(&self, mut x: u32) -> u32 {
        loop {
            // ordering: Acquire (both loads) — grandparent chasing must
            // observe hooks published by racing unions (invariant 5).
            let p = self.parent[x as usize].load(Ordering::Acquire);
            if p == x {
                return x;
            }
            let gp = self.parent[p as usize].load(Ordering::Acquire); // ordering: see above
            if gp == p {
                return p;
            }
            // ordering: AcqRel on success — the split write publishes a
            // still-valid ancestor to later walks; Relaxed on failure —
            // the retry re-reads through the Acquire loads above.
            let _ = self.parent[x as usize].compare_exchange_weak(
                p,
                gp,
                Ordering::AcqRel,
                Ordering::Relaxed,
            );
            x = gp;
        }
    }

    /// Merges the components of `u` and `v`; returns `true` if they were
    /// distinct, in which case `(u, v)` is recorded as the merge's
    /// certificate edge. Always hooks the higher root under the lower,
    /// so labels only ever decrease and settle on the component minimum.
    /// If either side was marked dirty, the merged component is.
    pub fn union(&self, u: u32, v: u32) -> bool {
        loop {
            let ru = self.find_compress(u);
            let rv = self.find_compress(v);
            if ru == rv {
                return false;
            }
            let (lo, hi) = (ru.min(rv), ru.max(rv));
            // ordering: AcqRel — a successful hook is the union's
            // publication point (invariant 5: mutation-side labels only
            // ever decrease); Relaxed on failure — the loop re-finds
            // both roots before retrying.
            if self.parent[hi as usize]
                .compare_exchange(hi, lo, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                // ordering: AcqRel — the decrement is ordered after the
                // winning hook, pairing with the Acquire load in
                // `component_count` so a published merge is counted
                // exactly once.
                self.components.fetch_sub(1, Ordering::AcqRel);
                if self.shields.is_raised(hi as usize) {
                    // The absorbed component was awaiting repair; the
                    // merged one inherits that debt.
                    self.mark_component_dirty(lo);
                }
                // An edge that merged two components but is missing
                // from the forest would make its later delete look free.
                self.log_note(Note::Link(u, v));
                return true;
            }
            // Lost the hook race; re-resolve both roots and retry.
        }
    }

    // ---- update notifications ------------------------------------------

    /// Appends to the pending log. The forest is a multi-word structure
    /// owned by the repair lock; notes run concurrently (the manager's
    /// parallel batch path, racing writers), so they only record what
    /// happened and the next drain applies it.
    fn log_note(&self, note: Note) {
        let mut log = self.log.lock();
        log.push(note);
        // Set under the log lock, like the drain's clear, so the hint
        // can never read "empty" while an entry sits in the log.
        //
        // ordering: Release — pairs with the Acquire loads in
        // `has_dirty` / `component`: a query that follows the note
        // (bulk-synchronous discipline) sees the hint and drains.
        self.pending.store(true, Ordering::Release);
    }

    /// Records an edge insertion. Returns `true` if it merged two
    /// components. Self-loops are connectivity no-ops.
    pub fn note_insert(&self, u: u32, v: u32) -> bool {
        if u == v {
            return false;
        }
        self.core.begin_note();
        self.union(u, v)
    }

    /// Records an edge deletion: O(1), whatever the edge. Whether it was
    /// a certificate edge — and, if so, whether the graph still connects
    /// its endpoints — is settled by the next query against the view as
    /// it is then. Deleting a self-loop cannot disconnect anything and
    /// is ignored. (The caller guarantees the edge existed.)
    pub fn note_delete(&self, u: u32, v: u32) {
        if u == v {
            return;
        }
        self.core.begin_note();
        self.log_note(Note::Cut(u, v));
    }

    /// Marks `x`'s component for a whole-component relabel (which also
    /// re-derives its certificate), chasing concurrent unions: after
    /// marking a root the root is re-resolved, so a hook racing with the
    /// mark cannot strand it on a non-root (the union path propagates
    /// marks it sees; this loop covers the mark-after-hook
    /// interleaving). For callers that changed the graph in ways the
    /// notes did not describe.
    pub fn mark_component_dirty(&self, x: u32) {
        conn_metrics().dirty_marks.inc();
        let mut r = self.find(x);
        loop {
            self.shields.mark(r as usize);
            let r2 = self.find(r);
            if r2 == r {
                return;
            }
            r = r2;
        }
    }

    /// True if `x`'s component is marked for a whole-component relabel.
    /// (Pending notes are not marks: see [`ConnectivityIndex::has_dirty`].)
    pub fn is_component_dirty(&self, x: u32) -> bool {
        self.shields.is_raised(self.find(x) as usize)
    }

    /// True if the next query may have work to do: notes are pending or
    /// a component is marked (the mark hint may stay `true` until the
    /// next [`IncrementalIndex::repair_all`]).
    pub fn has_dirty(&self) -> bool {
        // ordering: Acquire — pairs with the Release stores of the
        // pending hint (invariant 4: hints only, the log and the shields
        // are authoritative).
        self.pending.load(Ordering::Acquire) || self.shields.any_marked()
    }

    // ---- queries (self-repairing) --------------------------------------

    /// True if `u` and `v` are connected in `view`, settling pending
    /// notes and repairing any marked component the query touches.
    pub fn same_component<V: GraphView>(&self, view: &V, u: u32, v: u32) -> bool {
        self.component(view, u) == self.component(view, v)
    }

    /// Number of components, after settling and repairing everything.
    pub fn component_count<V: GraphView>(&self, view: &V) -> usize {
        self.repair_all(view);
        // ordering: Acquire (downgraded from SeqCst by the PR 9 audit)
        // — pairs with the AcqRel counter updates, so the count read
        // after `repair_all` reflects every published merge and split.
        self.components.load(Ordering::Acquire)
    }

    /// Canonical labels for every vertex, after settling and repairing
    /// everything — directly comparable with `connected_components` /
    /// `par_cc` output on the same view.
    pub fn labels<V: GraphView>(&self, view: &V) -> Vec<u32> {
        self.repair_all(view);
        (0..self.parent.len() as u32)
            .map(|v| self.find(v))
            .collect()
    }

    /// True if `(u, v)` is a certificate edge once everything pending is
    /// settled against `view` — i.e. whether deleting it next would
    /// trigger a replacement search (diagnostics and tests).
    pub fn is_certificate_edge<V: GraphView>(&self, view: &V, u: u32, v: u32) -> bool {
        self.repair_all(view);
        self.repair_lock.lock().forest.is_tree_edge(u, v)
    }

    /// Canonical component label (minimum member id) of `u`, clean
    /// *and stable*: pending notes are settled and a marked component is
    /// repaired first, and a clean answer is re-checked against a second
    /// `find` so a reader overlapping a repair's publication window
    /// re-routes instead of mixing old and new labels.
    pub fn component<V: GraphView>(&self, view: &V, u: u32) -> u32 {
        loop {
            // ordering: Acquire — pairs with the note path's Release
            // store; see `log_note`.
            if self.pending.load(Ordering::Acquire) {
                self.settle_locked(&mut self.repair_lock.lock(), view);
            }
            let r = self.find(u);
            if self.shields.is_raised(r as usize) {
                self.repair(view, u);
                continue;
            }
            if self.find(u) == r {
                return r;
            }
        }
    }

    // ---- the certificate path ------------------------------------------

    /// Drains the pending log into the certificate and publishes the
    /// splits it finds. Caller holds the repair lock.
    fn settle_locked<V: GraphView>(&self, cert: &mut Certificate, view: &V) {
        // The hint stays up for the whole drain: a query arriving while
        // splits are still being worked out must find its way to the
        // repair lock (and wait there), not read labels the drain is
        // about to change.
        //
        // ordering: Acquire — pairs with the Release store in `log_note`.
        if !self.pending.load(Ordering::Acquire) {
            return;
        }
        let gen_at_scan = self.core.generation();
        let notes = std::mem::take(&mut *self.log.lock());
        // A note that raced this drain may have changed the view under
        // the searches, or had its union overwritten by the relabel
        // (generation guard, invariant 6): hand every component this
        // drain touched to the whole-component path, which reads the
        // truth off the view.
        let drain = || self.apply_notes(cert, view, &notes);
        if self.core.lower_guarded(gen_at_scan, drain) {
            for note in &notes {
                let (Note::Link(u, v) | Note::Cut(u, v)) = *note;
                self.mark_component_dirty(u);
                self.mark_component_dirty(v);
            }
        }
        // Everything drained is published (or marked): lower the hint,
        // unless a racing note has logged more in the meantime — checked
        // and cleared under the log lock, where `log_note` raises it.
        let log = self.log.lock();
        if log.is_empty() {
            // ordering: Release — pairs with the Acquire loads of the
            // hint; a query that sees it down also sees the labels
            // published above.
            self.pending.store(false, Ordering::Release);
        }
    }

    /// Applies drained notes to the certificate and publishes the splits
    /// they cause, returning with every shield it raised lowered again.
    ///
    /// Links are applied first, then every cut, and only then does the
    /// search run: the view already lacks *all* the deleted edges, so a
    /// tree that still held one of them would make "this side has no
    /// edge left to scan" mean less than "this side is a whole tree".
    /// With every stale edge cut first, each tree is connected in the
    /// view and an exhausted side is exactly one tree and one component.
    fn apply_notes<V: GraphView>(&self, cert: &mut Certificate, view: &V, notes: &[Note]) {
        let m = conn_metrics();
        if view.is_directed() {
            // Out-adjacency cannot be searched from both sides of a cut:
            // every deletion takes the whole-component path, as before
            // the certificate existed.
            for note in notes {
                if let Note::Cut(u, _) = *note {
                    self.mark_component_dirty(u);
                }
            }
            return;
        }
        let Certificate {
            forest,
            search,
            split_of,
        } = cert;
        split_of.resize(self.parent.len(), 0);
        // Vertices whose trees are not yet known to be whole components.
        let mut open: Vec<u32> = Vec::new();
        for note in notes {
            if let Note::Link(u, v) = *note {
                if forest.connected(u, v) {
                    continue;
                }
                if has_edge(view, u, v) {
                    forest.reroot(u);
                    forest.link(u, v);
                } else {
                    // Merged by an edge that is already gone again (its
                    // delete may have been settled before this note
                    // arrived): whether anything else joins the two
                    // trees is the same question a cut asks.
                    open.extend([u, v]);
                }
            }
        }
        for note in notes {
            if let Note::Cut(u, v) = *note {
                if forest.cut_edge(u, v) {
                    m.cert_deletes.inc();
                    open.extend([u, v]);
                } else {
                    m.noncert_deletes.inc();
                }
            }
        }
        let splits = self.resolve(forest, search, split_of, view, open);
        self.publish_splits(forest, split_of, &splits);
    }

    /// Runs replacement searches until, in every component, at most one
    /// tree is not known to be a whole component of the view — and that
    /// one then is too, since no live edge can lead into the others.
    /// Returns the exhausted sides (each marked in `split_of` with its
    /// 1-based position).
    fn resolve<V: GraphView>(
        &self,
        forest: &mut Forest,
        search: &mut Search,
        split_of: &mut [u32],
        view: &V,
        mut open: Vec<u32>,
    ) -> Vec<Vec<u32>> {
        let m = conn_metrics();
        let mut splits: Vec<Vec<u32>> = Vec::new();
        // The union-find has not been touched yet, so `find` still names
        // the components as they were before the cuts; sorted by it, the
        // open vertices of one component sit together on the stack.
        open.sort_by_cached_key(|&v| self.find(v));
        while let Some(a) = open.pop() {
            if split_of[a as usize] != 0 {
                continue;
            }
            let label = self.find(a);
            let tree = forest.findroot(a);
            // `a` stands for its whole tree from here on (trees only
            // merge): drop what it already covers, so the next vertex of
            // this component, if any, is in another open tree.
            while open.last().is_some_and(|&b| {
                self.find(b) == label && (split_of[b as usize] != 0 || forest.findroot(b) == tree)
            }) {
                open.pop();
            }
            let Some(b) = open.last().copied().filter(|&b| self.find(b) == label) else {
                // The last open tree of its component keeps the label,
                // so it must hold the label's vertex (unless a split
                // side does; `publish_splits` handles that). Anything
                // else means the forest and the labels disagree — a
                // note raced an earlier drain — and only the view can
                // say who is right.
                if split_of[label as usize] == 0 && forest.findroot(label) != tree {
                    self.mark_component_dirty(label);
                }
                continue;
            };
            let outcome = forest.reconnect(view, a, b, search);
            m.search_scanned.record(search.scanned() as u64);
            match outcome {
                Reconnect::Linked => m.replacements.inc(),
                Reconnect::Split => {
                    m.splits.inc();
                    let id = splits.len() as u32 + 1;
                    let side = search.exhausted().to_vec();
                    for &v in &side {
                        split_of[v as usize] = id;
                    }
                    splits.push(side);
                }
            }
            open.push(a);
        }
        splits
    }

    /// Publishes the splits a drain found: each exhausted side `S` is
    /// relabelled to `min(S)` under its members' shields (invariant 4),
    /// unless `S` holds its component's label — then the *other* side
    /// needs a new minimum, which takes an enumeration, and the
    /// component goes to the whole-component path instead. Clears
    /// `split_of`.
    fn publish_splits(&self, forest: &Forest, split_of: &mut [u32], splits: &[Vec<u32>]) {
        let m = conn_metrics();
        // Per split: (label before, label after), or None for the
        // whole-component path.
        let plan: Vec<Option<(u32, u32)>> = splits
            .iter()
            .zip(1u32..)
            .map(|(side, id)| {
                if split_of[side[0] as usize] != id {
                    // Swallowed by a later side: a search found an edge
                    // into this one after it had been exhausted, which
                    // only a view changing under the drain can produce
                    // (the generation guard then hands the components
                    // to the whole-component path). The later side
                    // carries these members now.
                    return None;
                }
                let old = self.find(side[0]);
                if split_of[old as usize] == id {
                    self.mark_component_dirty(old);
                    return None;
                }
                side.iter().min().map(|&new| (old, new))
            })
            .collect();
        let relabelled = plan.iter().flatten().count();
        if relabelled > 0 {
            // (side, its new label) of every split relabelled here.
            let planned = || {
                splits
                    .iter()
                    .zip(&plan)
                    .filter_map(|(side, p)| p.map(|(_, new)| (side, new)))
            };
            // Shield phase, as in `relabel_members_locked`: a reader
            // resolving into a side mid-publication sees a raised shield
            // and waits on the lock.
            for (side, _) in planned() {
                for &v in side {
                    self.shields.raise(v as usize);
                }
            }
            // The plan of the split a `split_of` id names (0 = none).
            let plan_of = |id: u32| id.checked_sub(1).and_then(|i| plan[i as usize]);
            let mut stale: Vec<u32> = Vec::new();
            for v in 0..self.parent.len() {
                let id = split_of[v];
                // A vertex staying behind whose union-find parent sits
                // in a departing side (path splitting and root-to-root
                // hooks make this common) must not follow the side to
                // its new label: point it at the label it keeps.
                //
                // ordering: Acquire / Release — label reads and stores
                // of a repair, as in `relabel_members_locked`.
                let p = self.parent[v].load(Ordering::Acquire);
                let pid = split_of[p as usize];
                if pid != id && plan_of(id).is_none() {
                    if let Some((old, _)) = plan_of(pid) {
                        self.parent[v].store(old, Ordering::Release); // ordering: see above
                    }
                }
                // A tree pointer crossing a side's boundary is an edge
                // the view no longer has (the side is closed under the
                // view's adjacency) whose delete has not been logged
                // yet: a note is racing. Let the view decide.
                let t = forest.parent(v as u32);
                if t != ROOT && split_of[t as usize] != id {
                    stale.push(v as u32);
                }
            }
            for (side, new) in planned() {
                for &v in side {
                    // ordering: Release — label publication under the
                    // shield (invariant 4), as in
                    // `relabel_members_locked`.
                    self.parent[v as usize].store(new, Ordering::Release);
                }
                m.relabel_members.record(side.len() as u64);
                m.shield_events.add(side.len() as u64);
            }
            // Publish: shields drop only after every label store.
            for (side, _) in planned() {
                for &v in side {
                    self.shields.lower(v as usize);
                }
            }
            // ordering: AcqRel — split accounting published together
            // with the labels; pairs with the Acquire in
            // `component_count`.
            self.components.fetch_add(relabelled, Ordering::AcqRel);
            self.core.count_repairs(relabelled);
            m.repairs.add(relabelled as u64);
            for v in stale {
                self.mark_component_dirty(v);
                self.mark_component_dirty(forest.parent(v));
            }
        }
        for side in splits {
            for &v in side {
                split_of[v as usize] = 0;
            }
        }
    }

    // ---- the whole-component path --------------------------------------

    /// Settles pending notes through the certificate, then — only if
    /// `u`'s component is (still) marked for the whole-component path —
    /// relabels its members. Returns the post-repair root of `u`.
    /// Repairs serialize on the internal lock and re-check dirtiness
    /// under it, so concurrent queries on the same dirty component
    /// coalesce into one repair.
    fn repair<V: GraphView>(&self, view: &V, u: u32) -> u32 {
        let mut cert = self.repair_lock.lock();
        self.settle_locked(&mut cert, view);
        let root = self.find(u);
        if !self.shields.is_raised(root as usize) {
            // Settled by the certificate, or a racing query already
            // repaired this component.
            return root;
        }
        // One `find` per vertex: collecting the members is O(n·α)
        // whatever the component's size (`repair_all` groups every
        // dirty component in a single pass instead).
        let verts: Vec<u32> = (0..self.parent.len() as u32)
            .filter(|&v| self.find(v) == root)
            .collect();
        self.relabel_members_locked(&mut cert, view, &verts);
        self.find(u)
    }

    /// Shield, relabel, and publish one component's members, and
    /// re-derive their certificate. Caller holds `repair_lock` and has
    /// confirmed the component is dirty.
    fn relabel_members_locked<V: GraphView>(
        &self,
        cert: &mut Certificate,
        view: &V,
        verts: &[u32],
    ) {
        let gen_at_scan = self.core.generation();
        // Shield phase: with every member shielded, any concurrent
        // reader resolving into this component sees "dirty" and waits on
        // the lock instead of consuming half-published labels.
        for &v in verts {
            self.shields.raise(v as usize);
        }
        let labels = restricted_component_labels(view, verts);
        // Labels and certificate come from two passes over the view. A
        // change routed after its batch's barrier mutates the graph long
        // before its note bumps the generation, so the check below
        // cannot see it land between the passes; the two results
        // disagreeing can. `respan` roots every tree at its minimum, so
        // they agree exactly when every tree root is its own label and
        // every tree edge stays within one label.
        let mut view_moved = false;
        if !view.is_directed() {
            respan(&mut cert.forest, view, verts);
            view_moved = verts.iter().zip(&labels).any(|(&v, &l)| {
                let p = cert.forest.parent(v);
                let want = if p == ROOT {
                    v
                } else {
                    // panics: `respan` links members to members only.
                    labels[verts
                        .binary_search(&p)
                        .expect("tree edges stay among the members")]
                };
                l != want
            });
        }
        let mut new_roots = 0usize;
        for (&v, &l) in verts.iter().zip(&labels) {
            // ordering: Release (downgraded from SeqCst by the PR 9
            // audit) — label publication under the shield (invariant 4):
            // every member is still shielded, so a reader either sees the
            // shield and re-routes into the locked repair path, or its
            // Acquire walk synchronizes with this store.
            self.parent[v as usize].store(l, Ordering::Release);
            if l == v {
                new_roots += 1;
            }
        }
        // Publish: the shields come down *after* every parent store, so a
        // reader that observes a lowered shield also observes final
        // labels. The lower may have wiped the mark of a note that raced
        // this repair, and the view reads may have missed its mutation
        // (generation guard, invariant 6): re-dirty the repaired
        // component(s) and let the next query repair again.
        let raced = self.core.lower_guarded(gen_at_scan, || {
            for &v in verts {
                self.shields.lower(v as usize);
            }
        });
        if view_moved || raced {
            for (&v, &l) in verts.iter().zip(&labels) {
                if l == v {
                    self.mark_component_dirty(v);
                }
            }
        }
        // ordering: AcqRel — split accounting published together with
        // the labels; pairs with the Acquire in `component_count`.
        self.components
            .fetch_add(new_roots.saturating_sub(1), Ordering::AcqRel);
        self.core.count_repairs(1);
        let m = conn_metrics();
        m.repairs.inc();
        m.fallbacks.inc();
        m.relabel_members.record(verts.len() as u64);
        m.shield_events.add(verts.len() as u64);
    }
}

impl std::ops::Deref for ConnectivityIndex {
    type Target = IndexCore;

    fn deref(&self) -> &IndexCore {
        &self.core
    }
}

impl IncrementalIndex for ConnectivityIndex {
    fn note<V: GraphView>(&self, _view: &V, upd: &Update) {
        match upd.kind {
            UpdateKind::Insert => {
                self.note_insert(upd.edge.u, upd.edge.v);
            }
            UpdateKind::Delete => self.note_delete(upd.edge.u, upd.edge.v),
        }
    }

    // Settles pending notes, then repairs every marked component
    // (serial relabeling). One O(n·α) grouping pass collects every
    // dirty component's members at once.
    fn repair_all<V: GraphView>(&self, view: &V) {
        if !self.has_dirty() {
            return;
        }
        let mut cert = self.repair_lock.lock();
        self.settle_locked(&mut cert, view);
        // Take the hint before scanning: a mark racing this scan sets it
        // again and the next repair_all picks the component up.
        if !self.shields.take_marks() {
            return;
        }
        let mut groups: std::collections::BTreeMap<u32, Vec<u32>> =
            std::collections::BTreeMap::new();
        for v in 0..self.parent.len() as u32 {
            let r = self.find(v);
            if self.shields.is_raised(r as usize) {
                groups.entry(r).or_default().push(v);
            }
        }
        for verts in groups.values() {
            self.relabel_members_locked(&mut cert, view, verts);
        }
    }

    // Discards labels and certificate and re-absorbs the view, every
    // vertex shielded; the lower settles all debt, pre-rebuild dirt
    // included. On `false` every vertex is left marked, so queries keep
    // repairing from the live view until a later rebuild converges.
    fn rebuild_from<V: GraphView>(&self, view: &V) -> bool {
        assert_eq!(view.num_vertices(), self.parent.len(), "vertex count moved");
        let cert = &mut *self.repair_lock.lock();
        let m = conn_metrics();
        m.full_rebuilds.inc();
        self.core.rebuild_until_stable(&[&self.shields], || {
            // ordering: Release on every store in this scan (downgraded
            // from SeqCst by the PR 9 audit). The protocol needs no
            // total order: a reader whose walk acquires ANY value
            // written below synchronizes with that store and therefore
            // also sees the shields raised before it (invariant 4), so
            // it re-routes into the locked repair path; a reader that
            // saw only pre-rebuild values linearizes before the rebuild;
            // and a mixed walk is caught by `component`'s stability
            // re-check.
            for v in 0..self.parent.len() {
                self.parent[v].store(v as u32, Ordering::Release); // ordering: see above
            }
            // ordering: Release — rebuild publication, see above.
            self.components.store(self.parent.len(), Ordering::Release);
            // The scan absorbs everything the pending notes describe
            // (their mutations precede their generation bumps). An
            // entry that slips in after this clear is a hint like any
            // other: the next drain checks it against the view.
            {
                let mut log = self.log.lock();
                log.clear();
                // ordering: Release — hint store under the log lock, as
                // in `log_note` and `settle_locked`.
                self.pending.store(false, Ordering::Release);
            }
            cert.forest = Forest::new(self.parent.len());
            self.absorb(view, cert);
            m.shield_events.add(self.parent.len() as u64);
        })
    }
}

/// True if `view` holds a live edge `(u, v)`; scans the shorter of the
/// two adjacencies.
fn has_edge<V: GraphView>(view: &V, u: u32, v: u32) -> bool {
    let (a, b) = if view.degree(u) <= view.degree(v) {
        (u, v)
    } else {
        (v, u)
    };
    view.find_edge(a, |w, _| w == b).is_some()
}

/// Breadth-first trees over the live edges of `view` among the vertices
/// still marked in `fresh`, one tree per start vertex that is still
/// fresh when its turn comes. `tree_edge(root, child, parent)` is called
/// once per vertex a tree reaches (not for the roots).
fn grow_trees<V: GraphView>(
    view: &V,
    starts: impl IntoIterator<Item = u32>,
    fresh: &mut [bool],
    mut tree_edge: impl FnMut(u32, u32, u32),
) {
    let mut queue: Vec<u32> = Vec::new();
    for s in starts {
        if !std::mem::take(&mut fresh[s as usize]) {
            continue;
        }
        queue.clear();
        queue.push(s);
        let mut head = 0;
        while head < queue.len() {
            let x = queue[head];
            head += 1;
            view.for_each_edge(x, |y, _| {
                if std::mem::take(&mut fresh[y as usize]) {
                    tree_edge(s, y, x);
                    queue.push(y);
                }
            });
        }
    }
}

/// Re-derives the certificate of `verts` (a whole component's members)
/// from the view: every member is detached, then breadth-first trees are
/// grown over the live edges between members.
fn respan<V: GraphView>(forest: &mut Forest, view: &V, verts: &[u32]) {
    let mut member = vec![false; forest.len()];
    for &v in verts {
        member[v as usize] = true;
        forest.cut(v);
    }
    grow_trees(view, verts.iter().copied(), &mut member, |_, y, x| {
        forest.link(y, x)
    });
}

/// Serial restricted connected components: canonical (minimum-id) labels
/// for `verts` — a component's member list, ascending — over the live
/// edges of `view`. Edges leaving `verts` are ignored (a repair's member
/// set is closed, since cross-component insertions union eagerly). This
/// is the relabeler of the index's whole-component path.
pub fn restricted_component_labels<V: GraphView>(view: &V, verts: &[u32]) -> Vec<u32> {
    // Position-indexed union-find; positions are id-ordered because
    // `verts` is ascending, so min-position roots are min-id labels.
    let k = verts.len();
    let mut parent: Vec<u32> = (0..k as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            let g = parent[parent[x as usize] as usize];
            parent[x as usize] = g;
            x = g;
        }
        x
    }
    for (i, &v) in verts.iter().enumerate() {
        view.for_each_edge(v, |w, _| {
            if let Ok(j) = verts.binary_search(&w) {
                let ri = find(&mut parent, i as u32);
                let rj = find(&mut parent, j as u32);
                if ri != rj {
                    let (lo, hi) = (ri.min(rj), ri.max(rj));
                    parent[hi as usize] = lo;
                }
            }
        });
    }
    (0..k as u32)
        .map(|i| verts[find(&mut parent, i) as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::CapacityHints;
    use crate::dynarr::DynArr;
    use crate::graph::DynGraph;
    use crate::hybrid::HybridAdj;
    use crate::treapadj::TreapAdj;
    use crate::view::probe::ProbeView;
    use snap_rmat::TimedEdge;

    fn graph<A: crate::adjacency::DynamicAdjacency>(n: usize, edges: &[(u32, u32)]) -> DynGraph<A> {
        let g = DynGraph::undirected(n, &CapacityHints::new(edges.len() * 2 + 8));
        for &(u, v) in edges {
            g.insert_edge(TimedEdge::new(u, v, 1));
        }
        g
    }

    /// Deletes `(u, v)` from graph and index, as the engine routes it.
    fn delete<A: crate::adjacency::DynamicAdjacency>(
        g: &DynGraph<A>,
        idx: &ConnectivityIndex,
        u: u32,
        v: u32,
    ) {
        assert!(g.delete_edge(u, v), "({u}, {v}) must be live");
        idx.note_delete(u, v);
    }

    /// Inserts `(u, v)` into graph and index, as the engine routes it.
    fn insert<A: crate::adjacency::DynamicAdjacency>(
        g: &DynGraph<A>,
        idx: &ConnectivityIndex,
        u: u32,
        v: u32,
    ) -> bool {
        assert!(g.insert_edge(TimedEdge::new(u, v, 1)), "({u}, {v}) is new");
        idx.note_insert(u, v)
    }

    /// Min-id labels of `g` by a plain serial union-find (the oracle).
    fn oracle<A: crate::adjacency::DynamicAdjacency>(g: &DynGraph<A>) -> Vec<u32> {
        let all: Vec<u32> = (0..g.num_vertices() as u32).collect();
        restricted_component_labels(g, &all)
    }

    #[test]
    fn unions_settle_on_min_id_labels() {
        let idx = ConnectivityIndex::new(8);
        assert!(idx.note_insert(5, 3));
        assert!(idx.note_insert(3, 7));
        assert!(!idx.note_insert(7, 5), "already connected");
        assert_eq!(idx.find(5), 3);
        assert_eq!(idx.find(7), 3);
        assert_eq!(idx.find(3), 3);
        assert_eq!(idx.find(0), 0);
        let g: DynGraph<DynArr> = graph(8, &[(5, 3), (3, 7), (7, 5)]);
        assert_eq!(idx.component_count(&g), 6);
        assert_eq!(idx.repair_count(), 0, "insertions never relabel");
    }

    #[test]
    fn self_loops_are_connectivity_noops() {
        let idx = ConnectivityIndex::new(4);
        assert!(!idx.note_insert(2, 2));
        idx.note_delete(2, 2);
        assert!(!idx.has_dirty(), "self-loop delete must not log anything");
        assert!(!idx.is_component_dirty(2));
    }

    #[test]
    fn from_view_matches_incremental() {
        let edges = [(0, 1), (1, 2), (4, 5)];
        let g: DynGraph<HybridAdj> = graph(8, &edges);
        let built = ConnectivityIndex::from_view(&g);
        let inc = ConnectivityIndex::new(8);
        for &(u, v) in &edges {
            inc.note_insert(u, v);
        }
        assert_eq!(built.labels(&g), inc.labels(&g));
        assert_eq!(built.component_count(&g), 5);
        assert_eq!(
            built.full_rebuild_count(),
            0,
            "initial build is not a rebuild"
        );
        // Both ways of building leave every merge's edge in the forest.
        for idx in [&built, &inc] {
            for &(u, v) in &edges {
                assert!(idx.is_certificate_edge(&g, u, v), "({u}, {v})");
            }
        }
    }

    #[test]
    fn bridge_delete_relabels_only_the_exhausted_side() {
        let g: DynGraph<TreapAdj> = graph(8, &[(0, 1), (1, 2), (4, 5)]);
        let idx = ConnectivityIndex::from_view(&g);
        delete(&g, &idx, 1, 2);
        assert!(idx.has_dirty(), "the note is pending until a query");
        assert!(
            !idx.is_component_dirty(0) && !idx.is_component_dirty(4),
            "a note marks nothing for the whole-component path"
        );
        assert!(!idx.same_component(&g, 1, 2));
        assert!(idx.same_component(&g, 0, 1));
        assert_eq!(idx.labels(&g), vec![0, 0, 2, 3, 4, 4, 6, 7]);
        assert_eq!(idx.repair_count(), 1, "one side, one relabel");
        assert!(!idx.has_dirty());
    }

    #[test]
    fn repair_splits_the_component() {
        let g: DynGraph<DynArr> = graph(6, &[(0, 1), (1, 2), (2, 3)]);
        let idx = ConnectivityIndex::from_view(&g);
        assert_eq!(idx.component_count(&g), 3); // {0..3}, {4}, {5}
        delete(&g, &idx, 1, 2);
        assert!(idx.same_component(&g, 0, 1));
        assert!(idx.same_component(&g, 2, 3));
        assert!(!idx.same_component(&g, 1, 2), "split must be observed");
        assert_eq!(idx.component(&g, 3), 2);
        assert_eq!(idx.component_count(&g), 4);
        assert_eq!(idx.repair_count(), 1);
        assert!(!idx.has_dirty());
    }

    #[test]
    fn cycle_edge_deletes_never_relabel() {
        // Square 0-1-2-3-0: exactly one edge is outside the forest.
        let square = [(0, 1), (1, 2), (2, 3), (3, 0)];
        let g: DynGraph<HybridAdj> = graph(5, &square);
        let idx = ConnectivityIndex::from_view(&g);
        let spare: Vec<(u32, u32)> = square
            .iter()
            .copied()
            .filter(|&(u, v)| !idx.is_certificate_edge(&g, u, v))
            .collect();
        assert_eq!(spare.len(), 1, "a 4-cycle spans with 3 edges");
        // The non-certificate edge: settled without relabelling.
        let (u, v) = spare[0];
        delete(&g, &idx, u, v);
        assert!(idx.same_component(&g, u, v));
        assert!(!idx.has_dirty());
        assert_eq!(idx.repair_count(), 0);
        // Put it back (no merge, so no certificate edge), then delete a
        // certificate edge: the search finds the way round the cycle.
        assert!(!insert(&g, &idx, u, v));
        let (a, b) = square
            .iter()
            .copied()
            .find(|&(a, b)| idx.is_certificate_edge(&g, a, b))
            .expect("three of them");
        delete(&g, &idx, a, b);
        assert!(idx.same_component(&g, a, b), "still connected the long way");
        assert!(idx.is_certificate_edge(&g, u, v), "the replacement");
        assert_eq!(idx.repair_count(), 0);
        assert_eq!(idx.component_count(&g), 2); // the square, {4}
    }

    #[test]
    fn clean_query_burst_triggers_no_repairs() {
        let g: DynGraph<DynArr> = graph(16, &[(0, 1), (2, 3), (4, 5)]);
        let idx = ConnectivityIndex::from_view(&g);
        for _ in 0..64 {
            assert!(idx.same_component(&g, 0, 1));
            assert!(!idx.same_component(&g, 0, 2));
        }
        assert_eq!(idx.repair_count(), 0);
        assert_eq!(idx.full_rebuild_count(), 0);
    }

    #[test]
    fn split_whose_small_side_holds_the_minimum_relabels_the_rest() {
        // 0 hangs off a 5-clique on 1..=5 by one bridge: the exhausted
        // side {0} holds the label, so {1..5} needs a new minimum.
        let mut edges = vec![(0, 1)];
        for u in 1..=5u32 {
            for v in u + 1..=5 {
                edges.push((u, v));
            }
        }
        let g: DynGraph<HybridAdj> = graph(6, &edges);
        let idx = ConnectivityIndex::from_view(&g);
        delete(&g, &idx, 0, 1);
        assert_eq!(idx.labels(&g), vec![0, 1, 1, 1, 1, 1]);
        assert_eq!(idx.repair_count(), 1, "the whole-component path, once");
        assert_eq!(idx.component_count(&g), 2);
        // The fallback re-derived the certificate: a later clique edge
        // delete is still handled through it.
        let (a, b) = (1..=5u32)
            .flat_map(|u| (u + 1..=5).map(move |v| (u, v)))
            .find(|&(a, b)| idx.is_certificate_edge(&g, a, b))
            .expect("the clique is spanned");
        delete(&g, &idx, a, b);
        assert!(idx.same_component(&g, a, b));
        assert_eq!(idx.repair_count(), 1);
    }

    #[test]
    fn large_side_vertex_parented_into_the_small_side_keeps_its_label() {
        // Insertion order makes 7's union-find parent 3 (then 2, by path
        // splitting): both sit in what will be the small side {2, 3}.
        let g: DynGraph<DynArr> = graph(9, &[]);
        let idx = ConnectivityIndex::new(9);
        for (u, v) in [(3, 7), (2, 3), (0, 2), (0, 7), (0, 5), (5, 6), (0, 8)] {
            insert(&g, &idx, u, v);
        }
        // ordering: Relaxed — single-threaded test peeking at one cell.
        let parent_of_7 = idx.parent[7].load(Ordering::Relaxed);
        assert!(
            [2, 3].contains(&parent_of_7),
            "the setup this test is about"
        );
        assert_eq!(idx.labels(&g), vec![0, 1, 0, 0, 4, 0, 0, 0, 0]);
        // Both merge edges go: {2, 3} leaves, 7 stays with 0 via (0, 7).
        delete(&g, &idx, 3, 7);
        delete(&g, &idx, 0, 2);
        assert_eq!(idx.labels(&g), vec![0, 1, 2, 2, 4, 0, 0, 0, 0]);
        assert_eq!(idx.labels(&g), oracle(&g));
        assert_eq!(idx.repair_count(), 1, "only {{2, 3}} is relabelled");
    }

    #[test]
    fn edge_merged_through_bare_union_is_a_certificate_edge() {
        let g: DynGraph<DynArr> = graph(4, &[(0, 1), (2, 3)]);
        let idx = ConnectivityIndex::from_view(&g);
        g.insert_edge(TimedEdge::new(1, 2, 1));
        assert!(idx.union(1, 2), "`union` is public: it must certify too");
        assert!(idx.is_certificate_edge(&g, 1, 2));
        delete(&g, &idx, 1, 2);
        assert!(!idx.same_component(&g, 0, 3), "its delete is not free");
        assert_eq!(idx.labels(&g), vec![0, 0, 2, 2]);
    }

    #[test]
    fn certificate_edge_deleted_then_reinserted_in_consecutive_batches() {
        let g: DynGraph<HybridAdj> = graph(6, &[(0, 1), (1, 2), (2, 3), (4, 5)]);
        let idx = ConnectivityIndex::from_view(&g);
        for round in 0..3 {
            delete(&g, &idx, 1, 2);
            assert_eq!(idx.labels(&g), vec![0, 0, 2, 2, 4, 4], "round {round}");
            assert!(insert(&g, &idx, 1, 2), "re-insert merges again");
            assert_eq!(idx.labels(&g), vec![0, 0, 0, 0, 4, 4], "round {round}");
            assert!(idx.is_certificate_edge(&g, 1, 2));
        }
        // Same pair inside one batch (no query in between): the drain
        // sees link-then-cut as cut-then-search and finds the edge.
        delete(&g, &idx, 1, 2);
        insert(&g, &idx, 1, 2);
        assert_eq!(idx.labels(&g), vec![0, 0, 0, 0, 4, 4]);
        assert_eq!(idx.repair_count(), 3, "one relabel per real split");
        assert_eq!(idx.full_rebuild_count(), 0);
    }

    #[test]
    fn path_cut_in_the_middle_and_star_centre_removal() {
        // Path: the worst case for the lock-step search (both sides as
        // long as each other).
        let n = 257u32;
        let path: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g: DynGraph<DynArr> = graph(n as usize, &path);
        let idx = ConnectivityIndex::from_view(&g);
        delete(&g, &idx, 128, 129);
        let labels = idx.labels(&g);
        assert!(labels[..=128].iter().all(|&l| l == 0));
        assert!(labels[129..].iter().all(|&l| l == 129));
        assert_eq!(idx.repair_count(), 1);
        // Star: every spoke is a certificate edge and every delete a
        // split, each leaving one leaf behind.
        let star: Vec<(u32, u32)> = (0..64u32).filter(|&i| i != 9).map(|i| (9, i)).collect();
        let g: DynGraph<HybridAdj> = graph(64, &star);
        let idx = ConnectivityIndex::from_view(&g);
        for &(c, leaf) in &star {
            delete(&g, &idx, c, leaf);
        }
        assert_eq!(idx.labels(&g), (0..64).collect::<Vec<u32>>());
        assert_eq!(idx.component_count(&g), 64);
        assert_eq!(idx.full_rebuild_count(), 0);
    }

    #[test]
    fn several_cuts_in_one_component_settle_together() {
        // x - z - y in the forest, plus the non-tree edge (x, y): cutting
        // both tree edges in one batch isolates z and must leave x and y
        // joined by a *new* certificate edge, though no cut edge runs
        // between their two trees.
        let (x, z, y) = (1u32, 0u32, 2u32);
        let g: DynGraph<DynArr> = graph(4, &[]);
        let idx = ConnectivityIndex::new(4);
        insert(&g, &idx, x, z);
        insert(&g, &idx, z, y);
        assert!(!insert(&g, &idx, x, y));
        delete(&g, &idx, x, z);
        delete(&g, &idx, z, y);
        assert_eq!(idx.labels(&g), vec![0, 1, 1, 3]);
        assert!(idx.is_certificate_edge(&g, x, y));
        // ...so its delete is not mistaken for a free one.
        delete(&g, &idx, x, y);
        assert_eq!(idx.labels(&g), vec![0, 1, 2, 3]);
    }

    #[test]
    fn merge_whose_edge_is_already_gone_does_not_certify() {
        // What racing notes can produce: the delete of an edge is
        // settled (as a non-certificate no-op) before the note of the
        // insert that merged through it arrives. The view has the last
        // word: no edge, no merge.
        let g: DynGraph<DynArr> = graph(4, &[(0, 1), (2, 3)]);
        let idx = ConnectivityIndex::from_view(&g);
        idx.note_delete(1, 2);
        assert!(!idx.same_component(&g, 1, 2));
        assert!(idx.note_insert(1, 2), "the late note still merges labels");
        assert!(!idx.same_component(&g, 0, 3), "but the view has no (1, 2)");
        assert_eq!(idx.labels(&g), vec![0, 0, 2, 2]);
        assert_eq!(idx.component_count(&g), 2);
    }

    #[test]
    fn insert_into_a_component_with_a_pending_cut() {
        let g: DynGraph<DynArr> = graph(6, &[(0, 1), (1, 2), (4, 5)]);
        let idx = ConnectivityIndex::from_view(&g);
        delete(&g, &idx, 0, 1);
        // Merge {0,1,2} (cut pending) with {4,5} before any query: the
        // drain must still find the split at (0, 1).
        insert(&g, &idx, 2, 4);
        assert!(!idx.same_component(&g, 0, 1));
        assert!(idx.same_component(&g, 1, 4));
        assert_eq!(idx.labels(&g), vec![0, 1, 1, 3, 1, 1]);
    }

    #[test]
    fn marked_component_keeps_its_debt_across_a_merge() {
        let g: DynGraph<DynArr> = graph(6, &[(0, 1), (1, 2), (4, 5)]);
        let idx = ConnectivityIndex::from_view(&g);
        // A change the notes do not describe, flagged the blunt way.
        g.delete_edge(0, 1);
        idx.mark_component_dirty(1);
        assert!(idx.is_component_dirty(2));
        assert!(!idx.is_component_dirty(4), "other components stay clean");
        insert(&g, &idx, 2, 4);
        assert!(idx.is_component_dirty(4), "merged component inherits dirt");
        assert!(!idx.same_component(&g, 0, 1));
        assert!(idx.same_component(&g, 1, 4));
        assert_eq!(idx.repair_count(), 1, "one whole-component relabel");
        // ...which re-derived the certificate of what it relabelled.
        assert!(idx.is_certificate_edge(&g, 1, 2));
        assert!(!idx.is_certificate_edge(&g, 0, 1));
    }

    #[test]
    fn whole_component_repair_reads_only_the_members() {
        let g: DynGraph<DynArr> = graph(5, &[(0, 1), (1, 2)]);
        let idx = ConnectivityIndex::from_view(&g);
        g.delete_edge(0, 1);
        idx.mark_component_dirty(0);
        let view = ProbeView::new(&g);
        assert_eq!(idx.repair(&view, 0), 0);
        assert_eq!(
            view.read_set(),
            [0, 1, 2],
            "exactly the component's members"
        );
        assert_eq!(idx.component(&g, 2), 1);
        assert_eq!(idx.component_count(&g), 4);
        // A noted delete is settled by the certificate: its search reads
        // each side at most once, where the whole-component path would
        // read every member twice (relabel, then respan).
        delete(&g, &idx, 1, 2);
        let view = ProbeView::new(&g);
        assert_eq!(idx.repair(&view, 2), 2);
        assert!(view.read_set().iter().all(|&v| v == 1 || v == 2));
        assert_eq!(view.read_count(), view.read_set().len(), "no relabel");
        assert_eq!(idx.labels(&g), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn edge_deleted_between_the_relabel_and_the_respan_is_not_lost() {
        // What a batch whose notes are routed after its barrier can do
        // to a racing query: the bridge goes while the whole-component
        // repair is between its two passes over the view, and the note
        // (with its generation bump) only arrives afterwards.
        let g: DynGraph<DynArr> = graph(4, &[(0, 1), (1, 2), (2, 3)]);
        let idx = ConnectivityIndex::from_view(&g);
        idx.mark_component_dirty(0);
        // The relabel reads each of the 4 members once; the next read is
        // the respan's first. The hook runs again every 5 reads, so it
        // must be idempotent.
        let view = ProbeView::with_hook(&g, 4 + 1, || {
            g.delete_edge(1, 2);
        });
        idx.repair(&view, 0);
        assert!(!g.has_edge(1, 2), "the hook ran");
        assert!(idx.is_component_dirty(0), "the two passes disagree");
        idx.note_delete(1, 2);
        assert_eq!(idx.labels(&g), vec![0, 0, 2, 2]);
        assert_eq!(idx.component_count(&g), 2);
    }

    #[test]
    fn rebuild_from_resets_and_counts() {
        let g: DynGraph<DynArr> = graph(4, &[(0, 1)]);
        let idx = ConnectivityIndex::from_view(&g);
        // Out-of-band mutation the index never saw:
        g.insert_edge(TimedEdge::new(2, 3, 1));
        idx.rebuild_from(&g);
        assert!(idx.same_component(&g, 2, 3));
        assert_eq!(idx.full_rebuild_count(), 1);
        assert_eq!(idx.component_count(&g), 2);
        assert!(idx.is_certificate_edge(&g, 2, 3), "certificate rebuilt too");
    }

    #[test]
    fn directed_views_take_the_whole_component_path() {
        let g: DynGraph<DynArr> = DynGraph::directed(4, &CapacityHints::new(8));
        for (u, v) in [(0, 1), (2, 1), (2, 3)] {
            g.insert_edge(TimedEdge::new(u, v, 1));
        }
        let idx = ConnectivityIndex::from_view(&g);
        assert_eq!(idx.labels(&g), vec![0, 0, 0, 0], "weak components");
        assert!(g.delete_edge(2, 1));
        idx.note_delete(2, 1);
        assert_eq!(idx.labels(&g), vec![0, 0, 2, 2]);
        assert_eq!(idx.repair_count(), 1);
    }

    #[test]
    fn restricted_labels_match_on_closed_sets() {
        let g: DynGraph<HybridAdj> = graph(10, &[(2, 4), (4, 6), (3, 5), (8, 9)]);
        let labels = restricted_component_labels(&g, &[2, 3, 4, 5, 6]);
        assert_eq!(labels, vec![2, 3, 2, 3, 2]);
        // Edges leaving the set are ignored:
        let labels = restricted_component_labels(&g, &[4, 6]);
        assert_eq!(labels, vec![4, 4]);
    }

    #[test]
    fn concurrent_unions_converge() {
        use rayon::prelude::*;
        let n = 2048usize;
        let path: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        let g: DynGraph<DynArr> = graph(n, &path);
        let idx = ConnectivityIndex::new(n);
        // A path built from racing threads: whatever the interleaving,
        // the fixed point is one component labeled 0.
        (0..n as u32 - 1).into_par_iter().for_each(|i| {
            idx.note_insert(i, i + 1);
        });
        for v in 0..n as u32 {
            assert_eq!(idx.find(v), 0);
        }
        assert_eq!(idx.component_count(&g), 1);
        // Every one of the racing merges left its certificate edge.
        assert!(path.iter().all(|&(u, v)| idx.is_certificate_edge(&g, u, v)));
    }

    #[test]
    fn concurrent_queries_with_repair_agree() {
        use rayon::prelude::*;
        // Two halves joined by a bridge; delete the bridge, then query
        // from many threads at once. Every query must see the split and
        // exactly one repair must run.
        let n = 256usize;
        let mut edges: Vec<(u32, u32)> = (0..127).map(|i| (i, i + 1)).collect();
        edges.extend((128..255).map(|i| (i, i + 1)));
        edges.push((10, 200)); // the bridge
        let g: DynGraph<DynArr> = graph(n, &edges);
        let idx = ConnectivityIndex::from_view(&g);
        assert!(idx.same_component(&g, 0, 255));
        delete(&g, &idx, 10, 200);
        (0..64u32).into_par_iter().for_each(|q| {
            let lo = q % 128;
            let hi = 128 + (q % 128);
            assert!(!idx.same_component(&g, lo, hi), "bridge is gone");
            assert!(idx.same_component(&g, lo, (lo + 1) % 128));
        });
        assert_eq!(idx.repair_count(), 1, "queries coalesce into one repair");
        assert_eq!(idx.component_count(&g), 2);
    }

    #[test]
    fn adversarial_chain_queries_flatten_and_stay_correct() {
        // Hooking high-to-low builds a deep parent chain (union by
        // min-id has no rank, and every union here touches two fresh
        // roots, so find_compress never splits anything). The read-only
        // query walk must still answer correctly and trigger the
        // opportunistic locked flatten so repeat queries are shallow.
        let n = 4096u32;
        let idx = ConnectivityIndex::new(n as usize);
        for i in (0..n - 1).rev() {
            idx.note_insert(i, i + 1);
        }
        assert_eq!(idx.find(n - 1), 0);
        assert_eq!(idx.find(n - 1), 0);
        assert_eq!(idx.find(n / 2), 0);
        let path: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g: DynGraph<DynArr> = graph(n as usize, &path);
        assert_eq!(idx.component_count(&g), 1);
    }

    #[test]
    fn empty_index() {
        let idx = ConnectivityIndex::new(0);
        let g: DynGraph<DynArr> = graph(0, &[]);
        assert_eq!(idx.component_count(&g), 0);
        assert_eq!(idx.labels(&g), Vec::<u32>::new());
    }
}
