//! Incremental connectivity serving: flat component labels over the
//! dynamic graph, certified by the paper's link-cut forest.
//!
//! The paper's motivating workload is *serving connectivity queries on a
//! massive graph under a stream of updates*. The kernels answer those
//! queries by traversal (BFS / Shiloach–Vishkin) over a snapshot — an
//! O(n + m) recompute per batch, or worse, per query. This module is the
//! subsystem that makes the query path cheap:
//!
//! - **Insertions are free to index.** [`ConnectivityIndex`] keeps one
//!   `u32` label per vertex, flat at every settle (`parent[v]` is `v`'s
//!   label), and each component's members on a ring (`labels`). An edge
//!   insertion that merges two components hooks one root under the
//!   other; the settle relabels the hooked component's members
//!   off its ring, so `component(u)` / `same_component(u, v)` are one
//!   array read with **zero traversals and zero CSR rebuilds**, and the
//!   engine publishes the labels as one copy of the array.
//! - **Every merge leaves a certificate edge.** Beside the labels
//!   the index keeps the paper's spanning forest (§3.1; one parent
//!   pointer per vertex, [`crate::forest::Forest`]): the edge whose
//!   insertion merged two components becomes a tree edge, so once
//!   settled the forest spans exactly the components the labels name.
//! - **A deletion costs the smaller side of the cut, or nothing.**
//!   A merge cannot be undone, but an edge that is *not* in the forest
//!   cannot disconnect anything: its deletion is an O(1) no-op — no
//!   traversal, no relabel. Deleting a certificate edge cuts it and
//!   searches the **live** [`GraphView`] for a replacement by growing
//!   both sides of the cut in lock-step
//!   ([`crate::forest::Forest::reconnect`]); the work is bounded by the
//!   smaller side. Only a true split relabels, and only the members of
//!   the side the search exhausted, in O(side) (`drain`).
//! - **Changes are cheap to take; the certificate settles once.** Taking
//!   a change never touches the forest: a merging insert and every delete
//!   append to a pending log, and the settle drains it — links first,
//!   then cuts, then one replacement search per cut, all against the view
//!   as it is *then*. [`ConnectivityIndex::absorb`] takes an applier
//!   call's changes and settles them in one write-lock hold. The
//!   per-update [`ConnectivityIndex::note_insert`] /
//!   [`ConnectivityIndex::note_delete`] leave the log for the next
//!   view-taking query to settle. Log entries are checked against the
//!   view: an edge inserted and deleted again in one cycle leaves a link
//!   whose edge is gone.
//! - **The whole-component relabel is the fallback.** A serial restricted
//!   connected-components pass over a component's members
//!   ([`restricted_component_labels`]) still runs — and re-derives that
//!   component's certificate — in exactly these cases: the exhausted
//!   side of a split holds the component's minimum id (the other side
//!   then needs a new minimum, hence an enumeration); the changes did not
//!   describe the view (a side the search proves stale marks its
//!   component); the view is directed (its out-adjacency cannot be
//!   searched from both sides). Out-of-band resync rebuilds labels and
//!   certificate together.
//! - **Self-loops never matter**: deleting `(u, u)` cannot disconnect,
//!   so it is ignored outright.
//!
//! Canonical labels: unions always hook the higher-id root under the
//! lower one and every relabel assigns the minimum member id, so every
//! settled label is the component's minimum vertex id — bit-comparable
//! with `connected_components`, `par_cc`, and the union-find test oracle.
//!
//! # Concurrency contract
//!
//! All mutable state — labels and rings, spanning forest, pending log and
//! debt marks — is plain data behind one lock ([`crate::indexes`]).
//! Absorbs, notes, settles and rebuilds take it for writing; queries
//! take it for reading, and settle first under the write lock only when
//! the state owes something their answer depends on, which after an
//! absorb it never does. A settle reads the view, so it must not race a
//! mutation of the view; both engines absorb on their one writer, after
//! the cycle's mutation.

mod drain;
mod labels;

use crate::csr::RowSet;
use crate::forest::{Forest, Search};
use crate::indexes::IndexCore;
use crate::view::GraphView;
use parking_lot::RwLock;
use snap_rmat::{Update, UpdateKind};
use std::sync::OnceLock;

/// Connectivity-index instrumentation, shared by every index in the
/// process (ZST no-ops without the `obs` feature). The per-index
/// counters in [`IndexCore`] stay authoritative for the public API;
/// these aggregate across indexes for scraping.
struct ConnMetrics {
    dirty_marks: snap_obs::Counter,
    repairs: snap_obs::Counter,
    full_rebuilds: snap_obs::Counter,
    cert_deletes: snap_obs::Counter,
    noncert_deletes: snap_obs::Counter,
    replacements: snap_obs::Counter,
    splits: snap_obs::Counter,
    fallbacks: snap_obs::Counter,
    search_scanned: snap_obs::Histogram,
    relabel_members: snap_obs::Histogram,
    relabeled: snap_obs::Histogram,
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
            relabeled: r.histogram(
                "snap_conn_relabeled_vertices",
                "Vertices whose label changed per settle (merged, split off or relabelled whole): a settle's whole label work",
            ),
        }
    })
}

/// One pending change, logged when taken and applied to the certificate
/// by the next settle.
#[derive(Clone, Copy, Debug)]
enum Note {
    /// Inserting `(u, v)` merged two components: a certificate edge.
    Link(u32, u32),
    /// `(u, v)` was deleted.
    Cut(u32, u32),
}

/// Incrementally maintained connectivity over a dynamic graph: flat
/// labels certified by a spanning forest, so deletions cost the smaller
/// side of the cut. See the [module docs](self) for the design and the
/// concurrency contract.
///
/// # Examples
///
/// ```
/// use snap_core::adjacency::CapacityHints;
/// use snap_core::{ConnectivityIndex, DynGraph, HybridAdj};
/// use snap_rmat::{TimedEdge, Update};
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
/// let gone = Update::delete(TimedEdge::new(0, 2, 0));
/// assert!(g.apply(&gone));
/// idx.absorb(&g, [&gone]);
/// assert!(idx.same_component(&g, 0, 2));
/// assert_eq!(idx.repair_count(), 0);
///
/// // A bridge splits its component; only the side the search
/// // exhausted is relabelled.
/// let bridge = Update::delete(TimedEdge::new(3, 4, 0));
/// assert!(g.apply(&bridge));
/// idx.absorb(&g, [&bridge]);
/// assert!(!idx.same_component(&g, 3, 4));
/// assert_eq!(idx.repair_count(), 1);
/// ```
pub struct ConnectivityIndex {
    state: RwLock<State>,
    /// Epoch coupling and the `repair_count` / `full_rebuild_count`
    /// counters (invariant 6; the index derefs to it).
    core: IndexCore,
}

/// Everything a [`ConnectivityIndex`] maintains, behind its lock.
struct State {
    /// Component labels, flat at every settle boundary: `parent[v]` is
    /// `v`'s label, its component's minimum id. Between settles a merge
    /// hooks the higher root under the lower one (so every root is its
    /// component's minimum), and the next settle flattens that again.
    parent: Vec<u32>,
    /// Member rings: each component's members on one circular
    /// doubly-linked list ([`labels`]). A root hooked since the last
    /// settle keeps its own ring until the settle splices it in.
    next: Vec<u32>,
    prev: Vec<u32>,
    /// Roots hooked since the last settle, in hook order.
    hooked: Vec<u32>,
    /// Roots whose component owes a whole-component relabel.
    marked: RowSet,
    /// The roots marked since the last settle, in mark order: what the
    /// settle pays. (A merge or a relabel may have paid one already.)
    debts: Vec<u32>,
    /// Changes not yet applied to the certificate, in arrival order.
    log: Vec<Note>,
    /// Live component count (merges decrement, splits add back).
    components: usize,
    /// Vertices relabelled over the index's life, counted as each settle
    /// changes them: unchanged, every label is.
    relabeled: u64,
    /// Spanning forest of the indexed graph: once settled its trees are
    /// exactly the components the labels name.
    forest: Forest,
    search: Search,
    /// Settle scratch, zero between uses: 1-based id of the split set
    /// that claimed the vertex (sized on first use).
    split_of: Vec<u32>,
    /// Whole-component scratch, false between uses (sized on first use).
    fresh: Vec<bool>,
}

impl State {
    /// `n` isolated vertices.
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
            next: (0..n as u32).collect(),
            prev: (0..n as u32).collect(),
            hooked: Vec::new(),
            marked: RowSet::new(n),
            debts: Vec::new(),
            log: Vec::new(),
            components: n,
            relabeled: 0,
            forest: Forest::new(n),
            search: Search::new(),
            split_of: Vec::new(),
            fresh: Vec::new(),
        }
    }

    /// `view`'s labels and certificate, from one breadth-first pass.
    /// Sweeping start vertices in ascending order makes each start the
    /// minimum of its component, so the labels come out canonical and
    /// flat, and the BFS tree is the certificate (shallow, so `reroot`
    /// and the search's walks stay short).
    fn from_view<V: GraphView>(view: &V) -> Self {
        let n = view.num_vertices();
        let mut st = Self::new(n);
        if view.is_directed() {
            // Components are weak: a BFS over out-edges would miss
            // in-neighbours, so hook per stored entry. (No certificate
            // is kept for directed views; see `apply_notes`.)
            for u in 0..n as u32 {
                view.for_each_edge(u, |w, _| {
                    st.hook(u, w);
                });
            }
            st.hooked.clear();
        } else {
            grow_trees(view, 0..n as u32, &mut vec![true; n], |s, y, x| {
                st.parent[y as usize] = s;
                st.forest.link(y, x);
                st.components -= 1;
            });
        }
        st.flatten_all();
        st
    }

    /// True if the state owes a settle that could change `x`'s label:
    /// changes are pending, or `x`'s component is marked.
    fn owes_for(&self, x: u32) -> bool {
        !self.log.is_empty() || self.marked.contains(self.find(x))
    }

    fn owes(&self) -> bool {
        !self.log.is_empty() || !self.debts.is_empty()
    }

    /// Merges the components of `u` and `v`; returns `true` if they were
    /// distinct, in which case `(u, v)` is logged as the merge's
    /// certificate edge. Always hooks the higher root under the lower,
    /// so labels only ever decrease and settle on the component minimum.
    /// If either side was marked dirty, the merged component is.
    fn union(&mut self, u: u32, v: u32) -> bool {
        if !self.hook(u, v) {
            return false;
        }
        // An edge that merged two components but is missing from the
        // forest would make its later delete look free.
        self.log.push(Note::Link(u, v));
        true
    }

    /// Takes one confirmed change into the log (self-loops cannot change
    /// connectivity).
    fn take(&mut self, upd: &Update) {
        let (u, v) = (upd.edge.u, upd.edge.v);
        if u == v {
            return;
        }
        match upd.kind {
            UpdateKind::Insert => {
                self.union(u, v);
            }
            UpdateKind::Delete => self.log.push(Note::Cut(u, v)),
        }
    }

    /// Marks `x`'s component for a whole-component relabel (which also
    /// re-derives its certificate).
    fn mark(&mut self, x: u32) {
        conn_metrics().dirty_marks.inc();
        let r = self.find(x);
        self.owe(r);
    }

    /// Marks root `r`'s component for a whole-component relabel.
    fn owe(&mut self, r: u32) {
        if !self.marked.contains(r) {
            self.marked.insert(r);
            self.debts.push(r);
        }
    }

    /// Pays everything owed against `view`, in O(what changed): flattens
    /// the merges, drains the log through the certificate, then relabels
    /// every marked component whole, its members read off its ring.
    fn settle<V: GraphView>(&mut self, view: &V, core: &IndexCore) {
        if !self.owes() {
            return;
        }
        let before = self.relabeled;
        self.flatten();
        if !self.log.is_empty() {
            let notes = std::mem::take(&mut self.log);
            self.apply_notes(view, &notes, core);
        }
        for r in std::mem::take(&mut self.debts) {
            if !self.marked.contains(r) {
                continue;
            }
            let verts = self.members(r);
            self.relabel_members(view, &verts, core);
        }
        conn_metrics().relabeled.record(self.relabeled - before);
    }
}

impl ConnectivityIndex {
    /// An index over `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        Self::from_state(State::new(n))
    }

    /// Builds labels and certificate from the live edges of a view in
    /// one breadth-first pass (the initial build is not counted as a
    /// rebuild).
    pub fn from_view<V: GraphView>(view: &V) -> Self {
        Self::from_state(State::from_view(view))
    }

    fn from_state(state: State) -> Self {
        Self {
            state: RwLock::new(state),
            core: IndexCore::default(),
        }
    }

    /// Current root of `x`: its label, followed through the merges taken
    /// since the last settle — its canonical label once everything taken
    /// is settled (see [`ConnectivityIndex::component`]).
    pub fn find(&self, x: u32) -> u32 {
        self.state.read().find(x)
    }

    /// Takes `changes` in order and settles every debt they leave
    /// against `view`, all in one hold of the write lock: the way the
    /// engines' applier hands the index a cycle's changes. `view` must
    /// already reflect exactly these changes (mutate first, then
    /// absorb), and an update that did not change the graph must not be
    /// among them.
    pub fn absorb<'u, V: GraphView>(
        &self,
        view: &V,
        changes: impl IntoIterator<Item = &'u Update>,
    ) {
        let mut st = self.state.write();
        for upd in changes {
            st.take(upd);
        }
        st.settle(view, &self.core);
    }

    /// If the index is behind `epoch`, discards labels and certificate
    /// and re-absorbs `view` — one counted full rebuild
    /// ([`IndexCore::full_rebuild_count`]) — and records `epoch`.
    pub fn resync<V: GraphView>(&self, view: &V, epoch: u64) {
        self.core.resync(epoch, &self.state, |st| {
            assert_eq!(view.num_vertices(), st.parent.len(), "vertex count moved");
            conn_metrics().full_rebuilds.inc();
            // Every label may have changed: move the generation on.
            let relabeled = st.relabeled + st.parent.len() as u64;
            *st = State::from_view(view);
            st.relabeled = relabeled;
        });
    }

    // ---- per-update notes (settled by the next query) ----------------

    /// Records an edge insertion, as [`ConnectivityIndex::absorb`] takes
    /// one, without settling. Returns `true` if it merged two
    /// components. Self-loops are connectivity no-ops.
    pub fn note_insert(&self, u: u32, v: u32) -> bool {
        u != v && self.state.write().union(u, v)
    }

    /// Records an edge deletion: O(1), whatever the edge. Whether it was
    /// a certificate edge — and, if so, whether the graph still connects
    /// its endpoints — is settled by the next query against the view as
    /// it is then. Deleting a self-loop cannot disconnect anything and
    /// is ignored. (The caller guarantees the edge existed.)
    pub fn note_delete(&self, u: u32, v: u32) {
        if u != v {
            self.state.write().log.push(Note::Cut(u, v));
        }
    }

    /// Marks `x`'s component for a whole-component relabel, as a
    /// settle does when the changes did not describe the view.
    #[cfg(test)]
    pub(crate) fn mark_component_dirty(&self, x: u32) {
        self.state.write().mark(x);
    }

    /// True if `x`'s component is marked for a whole-component relabel.
    /// (Pending changes are not marks: see [`ConnectivityIndex::has_dirty`].)
    #[cfg(test)]
    pub(crate) fn is_component_dirty(&self, x: u32) -> bool {
        let st = self.state.read();
        st.marked.contains(st.find(x))
    }

    /// True if the next query has work to do: changes are pending or a
    /// component is marked. Never after an absorb.
    pub fn has_dirty(&self) -> bool {
        self.state.read().owes()
    }

    // ---- queries (settling first) --------------------------------------

    /// Runs `read` on the state with nothing owed that `owes` cares
    /// about: under the read lock when there is no such debt, otherwise
    /// under the write lock once a settle against `view` has paid it.
    fn read_settled<V: GraphView, R>(
        &self,
        view: &V,
        owes: impl Fn(&State) -> bool,
        read: impl Fn(&State) -> R,
    ) -> R {
        {
            let st = self.state.read();
            if !owes(&st) {
                return read(&st);
            }
        }
        let mut st = self.state.write();
        st.settle(view, &self.core);
        read(&st)
    }

    /// True if `u` and `v` are connected in `view`, settling first if
    /// pending changes or a marked component could change the answer.
    pub fn same_component<V: GraphView>(&self, view: &V, u: u32, v: u32) -> bool {
        self.read_settled(
            view,
            |st| st.owes_for(u) || st.owes_for(v),
            |st| st.find(u) == st.find(v),
        )
    }

    /// Number of components, after settling everything.
    pub fn component_count<V: GraphView>(&self, view: &V) -> usize {
        self.read_settled(view, State::owes, |st| st.components)
    }

    /// Canonical labels for every vertex, after settling everything —
    /// directly comparable with `connected_components` / `par_cc` output
    /// on the same view. A settled index is flat, so this is one copy.
    pub fn labels<V: GraphView>(&self, view: &V) -> Vec<u32> {
        let mut out = Vec::new();
        self.labels_since(view, None, &mut out);
        out
    }

    /// [`ConnectivityIndex::labels`] into a caller's buffer, and only if
    /// a label changed: settles against `view`, then, unless the labels
    /// are still those of generation `seen` (a value this method
    /// returned), copies them into `out` (replacing its contents) and
    /// returns their generation. `None` leaves `out` untouched.
    pub(crate) fn labels_since<V: GraphView>(
        &self,
        view: &V,
        seen: Option<u64>,
        out: &mut Vec<u32>,
    ) -> Option<u64> {
        let mut st = self.state.write();
        st.settle(view, &self.core);
        if seen == Some(st.relabeled) {
            return None;
        }
        out.clear();
        out.extend_from_slice(&st.parent);
        Some(st.relabeled)
    }

    /// True if `(u, v)` is a certificate edge once everything pending is
    /// settled against `view` — i.e. whether deleting it next would
    /// trigger a replacement search (diagnostics and tests).
    pub fn is_certificate_edge<V: GraphView>(&self, view: &V, u: u32, v: u32) -> bool {
        self.read_settled(view, State::owes, |st| st.forest.is_tree_edge(u, v))
    }

    /// Canonical component label (minimum member id) of `u`, settling
    /// first if pending changes or a marked component could change it.
    pub fn component<V: GraphView>(&self, view: &V, u: u32) -> u32 {
        self.read_settled(view, |st| st.owes_for(u), |st| st.find(u))
    }
}

impl std::ops::Deref for ConnectivityIndex {
    type Target = IndexCore;

    fn deref(&self) -> &IndexCore {
        &self.core
    }
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
/// grown over the live edges between members. `member` is all false, and
/// is again after.
fn respan<V: GraphView>(forest: &mut Forest, member: &mut [bool], view: &V, verts: &[u32]) {
    for &v in verts {
        member[v as usize] = true;
        forest.cut(v);
    }
    grow_trees(view, verts.iter().copied(), member, |_, y, x| {
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
        let parent_of_7 = idx.state.read().parent[7];
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
        assert_eq!(idx.component(&view, 0), 0);
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
        assert_eq!(idx.component(&view, 2), 2);
        assert!(view.read_set().iter().all(|&v| v == 1 || v == 2));
        assert_eq!(view.read_count(), view.read_set().len(), "no relabel");
        assert_eq!(idx.labels(&g), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn resync_rebuilds_and_counts() {
        let g: DynGraph<DynArr> = graph(4, &[(0, 1)]);
        let idx = ConnectivityIndex::from_view(&g);
        // Out-of-band mutation the index never saw:
        g.insert_edge(TimedEdge::new(2, 3, 1));
        idx.resync(&g, 1);
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
        // roots, so find_compress never halves anything). The query walk
        // must still answer correctly, and `labels` flattens it.
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
        assert!(idx.labels(&g).iter().all(|&l| l == 0));
        assert!(idx.state.read().parent.iter().all(|&p| p == 0), "flat");
    }

    #[test]
    fn unnoted_delete_under_a_split_side_marks_both_components() {
        // The forest is the BFS tree 4 → 3 → 2 → 1 → 0 (plus 5..8 under
        // 0). (3, 4) leaves the view with no note, so when the noted
        // bridge (1, 2) splits {2, 3} off, 4 still hangs from 3 by a tree
        // pointer no live edge backs: only the view can say where 4 is.
        let edges = [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (0, 5),
            (5, 6),
            (6, 7),
            (0, 8),
        ];
        let g: DynGraph<DynArr> = graph(9, &edges);
        let idx = ConnectivityIndex::from_view(&g);
        assert!(g.delete_edge(3, 4), "out of band");
        delete(&g, &idx, 1, 2);
        assert_eq!(idx.labels(&g), vec![0, 0, 2, 2, 4, 0, 0, 0, 0]);
        assert_eq!(idx.labels(&g), oracle(&g));
        assert_eq!(
            idx.repair_count(),
            3,
            "the split, then both components it touched relabelled whole"
        );
        assert!(!idx.has_dirty());
        assert_eq!(idx.component_count(&g), 3);
    }

    #[test]
    fn chain_of_merges_and_a_cut_in_one_settle() {
        // 64 pairs {2i, 2i + 1}; one settle sees each pair merged into
        // the pair below it (every hook points a root at a lower one, a
        // chain 64 deep), then the middle link cut again.
        let pairs: Vec<(u32, u32)> = (0..64).map(|i| (2 * i, 2 * i + 1)).collect();
        let g: DynGraph<HybridAdj> = graph(130, &pairs);
        let idx = ConnectivityIndex::from_view(&g);
        for i in (0..63u32).rev() {
            assert!(insert(&g, &idx, 2 * i + 1, 2 * i + 2), "merges pair {i}");
        }
        delete(&g, &idx, 63, 64);
        let labels = idx.labels(&g);
        assert_eq!(labels, oracle(&g));
        assert!(labels[..64].iter().all(|&l| l == 0));
        assert!(labels[64..128].iter().all(|&l| l == 64));
        assert_eq!(idx.component_count(&g), 4);
        assert_eq!(idx.full_rebuild_count(), 0);
    }

    #[test]
    fn split_side_holding_a_root_hooked_in_the_same_settle() {
        // {2, 3, 7} (label 2) merges into {0, 5, 6, 8} through (0, 7),
        // and (3, 7) goes in the same settle: the side {2, 3} leaves
        // holding the root that was just hooked, and 7, whose label was
        // 2, stays behind with 0.
        let g: DynGraph<DynArr> = graph(9, &[(2, 3), (3, 7), (0, 5), (5, 6), (0, 8)]);
        let idx = ConnectivityIndex::from_view(&g);
        assert!(insert(&g, &idx, 0, 7));
        delete(&g, &idx, 3, 7);
        assert_eq!(idx.labels(&g), vec![0, 1, 2, 2, 4, 0, 0, 0, 0]);
        assert_eq!(idx.labels(&g), oracle(&g));
        assert_eq!(idx.repair_count(), 1, "only {{2, 3}} is relabelled");
    }

    #[test]
    fn empty_index() {
        let idx = ConnectivityIndex::new(0);
        let g: DynGraph<DynArr> = graph(0, &[]);
        assert_eq!(idx.component_count(&g), 0);
        assert_eq!(idx.labels(&g), Vec::<u32>::new());
    }
}
