//! `snap-serve`: the multi-version concurrent serving engine.
//!
//! The paper targets *massive dynamic* network analysis: updates stream
//! in while analysts query. The rest of this crate follows the paper's
//! bulk-synchronous discipline (apply a batch, then read); this module
//! removes that restriction for serving workloads with a whole-graph
//! publication protocol:
//!
//! 1. **Single writer, single queue, backlog-sized cycles.** All
//!    mutations enter through [`ServeEngine::submit`] as batches on one
//!    FIFO ingest queue. A dedicated writer thread drains it in
//!    *cycles*: it takes the first queued batch, then keeps taking queued
//!    batches while the cycle's stream holds fewer half-updates than one
//!    range of the applier (2^17, about 65,536 undirected updates), and
//!    applies the stream with **one** call of the vertex-ranged,
//!    sort-then-grouped applier
//!    ([`crate::engine::apply_vpart_indexed`]): the vertex space is cut
//!    into ranges of that half-update budget that up to
//!    [`ServeConfig::shards`] workers claim, each vertex's half-updates
//!    applied as one group in stream order — zero cross-worker
//!    conflicts, final state identical to sequential application. A
//!    batch is never split, so one larger than the budget is a cycle by
//!    itself. When the writer keeps up, a cycle holds what was queued —
//!    usually one batch; when it falls behind, cycles grow to one range,
//!    so hubs get their updates as groups large enough to merge rather
//!    than descend per key, and the per-cycle costs below are paid once
//!    per range instead of once per batch. The lag a backlog adds is
//!    bounded by the budget, not by a setting. (A cycle whose stream fits
//!    one range runs on the writer thread itself, no spawn.)
//! 2. **Labels every cycle, a version when the writer is caught up, in
//!    O(rows touched).** After applying, the writer settles the
//!    connectivity index and publishes the cycle's component labels with
//!    one pointer swap, so [`ServeEngine::same_component`],
//!    [`ServeEngine::component`] and [`ServeEngine::epoch`] are fresh
//!    after every cycle. That costs the index's repair work plus, when a
//!    label changed, one copy of the index's flat labels into a recycled
//!    array. The rows that traversals read are *frozen* by a rule of the
//!    writer's own: never wait for a batch with a cycle unfrozen (so an
//!    idle engine is always frozen), and under a backlog freeze at least
//!    every fourth cycle. A version is the last compacted CSR (its
//!    *base*) plus an immutable *delta* of the rows touched since: a
//!    freeze reads the rows touched since the last freeze — a hub's
//!    treap row merged from its last version with the cycle's
//!    half-updates, any other row re-read — and copies the last delta's
//!    other rows, so its cost follows the cycle, not the graph. Only
//!    when the delta would hold more than a quarter of the base's entries
//!    (a backlog's drain) does it patch a new base instead. Either way
//!    the version is published as an immutable [`EpochSnapshot`] with
//!    **one** pointer swap: `pin` returns the newest frozen version in
//!    nanoseconds, with its true epoch, batch count and labels, never
//!    blocks on a build, and the handle is valid forever.
//! 3. **Compaction when idle, and epoch-based reclamation.** Once the
//!    queue has stayed empty for a millisecond, or before a
//!    [`ServeEngine::flush`] acknowledges, the writer *folds* the newest
//!    version's base and delta into a fresh base, off every lag path,
//!    and republishes that version compacted: same epoch, batch count
//!    and labels (a fold is not a freeze and is not counted as one). The
//!    engine retains the last [`ServeConfig::retain`] versions in a ring
//!    (a compacted republication takes its overlay's place); older
//!    versions are dropped from the ring but stay alive as long as any
//!    pinned handle references them (`Arc` reference counting is the
//!    reclamation mechanism — a `par_bc` run that pins a version for
//!    hundreds of milliseconds keeps exactly that version, its base and
//!    its delta alive, nothing else). The oldest version leaves the ring
//!    just before a freeze, and if no handle holds its arrays, the next
//!    fold, patch or delta writes into them instead of faulting in fresh
//!    ones.
//!
//! Because every cycle's labels are extracted *after* the index settled
//! that cycle's updates, [`ServeEngine::same_component`] stays
//! incremental under concurrent ingest: queries are two array reads on
//! the published labels (wait-free), repairs happen only on the writer
//! thread (a deletion costs a replacement search of the smaller side of
//! the cut if it hit the index's spanning-forest certificate and nothing
//! otherwise; no full rebuilds), and a frozen version's labels are
//! bit-identical to `connected_components` on its CSR.
//!
//! # Consistency contract
//!
//! A pinned [`EpochSnapshot`] is immutable and *linearizable per epoch*:
//! its rows (base and delta alike) and labels correspond exactly to the
//! graph after the first [`EpochSnapshot::batches`] submitted batches,
//! in queue order. Kernel results computed on a pinned version are
//! therefore bit-identical to a bulk-synchronous replay of that prefix
//! (the stress suite in `tests/serving_concurrency.rs` proves this
//! across thread counts). Epochs count writer cycles, so the epochs of
//! successive pins may skip numbers (the cycles that froze nothing),
//! and two successive pins may share one (a version and its compacted
//! republication, equal in everything they read). The engine-level label
//! queries are never older than a pin taken before them.
//! [`ServeEngine::flush`] returning, or [`ServeEngine::pending_batches`]
//! reading 0, means the next pin includes every batch submitted before.
//!
//! # Example
//!
//! ```
//! use snap_core::adjacency::CapacityHints;
//! use snap_core::serve::{ServeConfig, ServeEngine};
//! use snap_core::{DynGraph, GraphView, HybridAdj};
//! use snap_rmat::{TimedEdge, Update};
//!
//! let hints = CapacityHints::new(64);
//! let g = DynGraph::<HybridAdj>::undirected(8, &hints);
//! g.insert_edge(TimedEdge::new(0, 1, 1));
//! let engine = ServeEngine::new(g, ServeConfig::default().with_shards(2));
//!
//! // Readers pin the published version; writers stream through submit().
//! let v0 = engine.pin();
//! engine.submit(vec![Update::insert(TimedEdge::new(1, 2, 2))]);
//! engine.flush(); // barrier: wait until everything submitted is published
//! let v1 = engine.pin();
//! assert_eq!(v0.num_entries(), 2, "the pinned version never moves");
//! assert_eq!(v1.num_entries(), 4);
//! assert!(engine.same_component(0, 2));
//! assert_eq!(engine.full_rebuild_count(), Some(0));
//! ```

use crate::adjacency::{AdjEntry, DynamicAdjacency};
use crate::csr::{CsrGraph, RowDelta};
use crate::cycle::{Cycle, Frozen};
use crate::engine::{check_endpoints, resolve_workers, RANGE_BUDGET};
use crate::graph::DynGraph;
use crate::indexes::{IndexFamily, IndexQuery, NO_CONNECTIVITY};
use crate::view::GraphView;
use parking_lot::{Mutex, RwLock};
use snap_obs::{Counter, Gauge, Histogram, MetricsRegistry, Sampler, Stamp};
use snap_rmat::Update;
use snap_util::timer::Timer;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, SyncSender, TryRecvError};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning knobs for [`ServeEngine`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Number of frozen versions kept in the retention ring (>= 1).
    /// Versions evicted from the ring survive while pinned handles
    /// reference them; `retain` only bounds how many *unpinned* old
    /// versions stay warm for late readers.
    pub retain: usize,
    /// Most workers the writer's applier lets claim vertex ranges; follows
    /// the [`crate::engine::resolve_workers`] convention (0 = adopt the
    /// installed rayon pool / `SNAP_THREADS`), resolved once at engine
    /// construction.
    pub shards: usize,
    /// Maintain a connectivity index and publish per-version component
    /// labels, making [`ServeEngine::same_component`] wait-free array
    /// reads.
    pub connectivity: bool,
    /// Record every applied batch in submission order, exposed via
    /// [`ServeEngine::history`] so tests can replay any published
    /// version's prefix against a bulk-synchronous oracle. Off by
    /// default (unbounded memory under sustained ingest).
    pub history: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            retain: 4,
            shards: 0,
            connectivity: true,
            history: false,
        }
    }
}

impl ServeConfig {
    /// Sets the retention-ring depth (clamped to >= 1).
    pub fn with_retain(mut self, retain: usize) -> Self {
        self.retain = retain.max(1);
        self
    }

    /// Sets the writer shard count (0 = adopt the installed pool).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Enables or disables the connectivity index.
    pub fn with_connectivity(mut self, on: bool) -> Self {
        self.connectivity = on;
        self
    }

    /// Does nothing. A writer cycle used to be capped at a number of
    /// batches; it is now sized by the queue and the applier's range
    /// budget (see the [module docs](crate::serve)), so there is no cap
    /// to set. Kept so that callers written against the cap still build.
    #[deprecated(
        note = "writer cycles are sized by the queued backlog and the applier's range budget; this is a no-op"
    )]
    pub fn with_coalesce(self, _coalesce: usize) -> Self {
        self
    }

    /// Enables applied-batch recording for oracle-replay testing.
    pub fn with_history(mut self, on: bool) -> Self {
        self.history = on;
        self
    }
}

/// One frozen, immutable version of the graph: what
/// [`ServeEngine::pin`] hands out.
///
/// A version is the last compacted CSR when it froze (its base) plus,
/// unless it is compacted itself, an immutable delta of the rows that
/// changed since: the writer publishes that in O(rows touched) and
/// compacts base and delta into the next base once it is idle,
/// republishing the same epoch compacted. Either way the version never
/// changes.
///
/// Implements [`GraphView`], so every kernel runs directly on a pinned
/// handle (`par_bfs(&*handle, src)`): each row is read from the delta or
/// the base by one bitset test. A compacted version also offers the CSR
/// fast path through [`GraphView::as_csr`].
pub struct EpochSnapshot {
    epoch: u64,
    batches: u64,
    /// The last compacted CSR when this version froze.
    base: Arc<CsrGraph>,
    /// The rows changed since `base`; `None` for a compacted version.
    delta: Option<Arc<RowDelta>>,
    /// Entries of the version: `base`'s, the delta's rows counted from
    /// the delta.
    entries: usize,
    /// An overlay version's CSR, compacted by the first
    /// [`EpochSnapshot::csr`] call.
    compacted: OnceLock<Arc<CsrGraph>>,
    labels: Option<Arc<Vec<u32>>>,
}

impl EpochSnapshot {
    fn new(epoch: u64, batches: u64, graph: Frozen, labels: Option<Arc<Vec<u32>>>) -> Self {
        let (base, delta) = graph;
        let entries = match &delta {
            None => base.num_entries(),
            Some(d) => {
                let replaced: usize = d.held().iter().map(|u| base.out_degree(u)).sum();
                base.num_entries() + d.num_entries() - replaced
            }
        };
        Self {
            epoch,
            batches,
            base,
            delta,
            entries,
            compacted: OnceLock::new(),
            labels,
        }
    }

    /// The writer cycle this version froze (0 = the construction
    /// snapshot; +1 per cycle, frozen or not — so consecutive versions'
    /// epochs may differ by more than one). A compacted republication
    /// keeps the epoch of the version it compacts.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of submitted batches included in this version, in queue
    /// order — the replay key for the oracle-equivalence contract (see
    /// the module docs).
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// This version as one CSR. Free for a compacted version; a version
    /// still held as base plus delta compacts them on the caller's
    /// thread the first time, which costs O(n + m), and keeps the result.
    pub fn csr(&self) -> &Arc<CsrGraph> {
        match &self.delta {
            None => &self.base,
            Some(delta) => self
                .compacted
                .get_or_init(|| Arc::new(CsrGraph::folded(&self.base, delta, None))),
        }
    }

    /// Canonical min-id component labels for this version, if the
    /// engine maintains connectivity — bit-identical to
    /// `connected_components` / `par_cc` on [`EpochSnapshot::csr`].
    pub fn component_labels(&self) -> Option<&Arc<Vec<u32>>> {
        self.labels.as_ref()
    }

    /// True if `u` and `v` are connected *in this version*; `None` when
    /// the engine runs without connectivity. Two array reads, wait-free.
    pub fn same_component(&self, u: u32, v: u32) -> Option<bool> {
        self.labels.as_ref().map(|l| l[u as usize] == l[v as usize])
    }

    /// This version's label for `u` (see
    /// [`EpochSnapshot::component_labels`]).
    pub fn component(&self, u: u32) -> Option<u32> {
        self.labels.as_ref().map(|l| l[u as usize])
    }

    /// `u`'s neighbors and their timestamps in this version.
    #[inline]
    fn row(&self, u: u32) -> (&[u32], &[u32]) {
        match &self.delta {
            Some(delta) if delta.holds(u) => held_row(delta, u),
            _ => (self.base.neighbors(u), self.base.timestamps(u)),
        }
    }
}

/// A row of `delta`, kept out of line: the readers' hot loops inline
/// [`EpochSnapshot::row`], and a compacted version never calls this.
#[inline(never)]
fn held_row(delta: &RowDelta, u: u32) -> (&[u32], &[u32]) {
    delta.row(u)
}

impl GraphView for EpochSnapshot {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.base.num_vertices()
    }

    #[inline]
    fn is_directed(&self) -> bool {
        self.base.is_directed()
    }

    #[inline]
    fn degree(&self, u: u32) -> usize {
        match &self.delta {
            Some(delta) if delta.holds(u) => held_row(delta, u).0.len(),
            _ => self.base.out_degree(u),
        }
    }

    #[inline]
    fn for_each_edge<F: FnMut(u32, u32)>(&self, u: u32, mut f: F) {
        let (nbrs, ts) = self.row(u);
        for (&v, &t) in nbrs.iter().zip(ts) {
            f(v, t);
        }
    }

    fn edges_of(&self, u: u32) -> Vec<AdjEntry> {
        let (nbrs, ts) = self.row(u);
        nbrs.iter()
            .zip(ts)
            .map(|(&nbr, &ts)| AdjEntry { nbr, ts })
            .collect()
    }

    #[inline]
    fn num_entries(&self) -> usize {
        self.entries
    }

    fn max_degree(&self) -> usize {
        match &self.delta {
            None => self.base.max_degree(),
            Some(_) => (0..self.num_vertices() as u32)
                .map(|u| self.degree(u))
                .max()
                .unwrap_or(0),
        }
    }

    #[inline]
    fn find_edge<P: FnMut(u32, u32) -> bool>(&self, u: u32, mut pred: P) -> Option<(u32, u32)> {
        let (nbrs, ts) = self.row(u);
        nbrs.iter()
            .zip(ts)
            .find(|&(&v, &t)| pred(v, t))
            .map(|(&v, &t)| (v, t))
    }

    /// The base, when the version is compacted; `None` while it holds a
    /// delta (kernels then read rows through [`GraphView::for_each_edge`]).
    #[inline]
    fn as_csr(&self) -> Option<&CsrGraph> {
        self.delta.is_none().then_some(&*self.base)
    }
}

/// A pinned version: clones are cheap, the version lives while any
/// handle does, and dropping the handle releases the pin.
pub type SnapshotHandle = Arc<EpochSnapshot>;

enum Ingest {
    /// A batch plus its submission stamp, so publication lag (submit →
    /// visible-to-pins) can be recorded where the epoch publishes. The
    /// stamp is a ZST when observability is compiled out.
    Batch(Vec<Update>, Stamp),
    Flush(SyncSender<()>),
    Stop,
}

/// The serve engine's instrumentation handles, registered once in the
/// process-wide [`MetricsRegistry`] (engines share cells by name). All
/// ZSTs without the `obs` feature — every recording site below
/// compiles to nothing (ARCHITECTURE.md invariant 9).
struct ServeMetrics {
    queue_depth: Gauge,
    coalesced: Histogram,
    cycle_updates: Histogram,
    apply_ns: Histogram,
    labels_ns: Histogram,
    freeze_ns: Histogram,
    freeze_rows_reread: Histogram,
    freeze_rows_merged: Histogram,
    freeze_entries_reread: Histogram,
    freeze_entries_merged: Histogram,
    overlay_ns: Histogram,
    overlay_entries: Histogram,
    fold_ns: Histogram,
    folds: Counter,
    publish_ns: Histogram,
    publish_lag_ns: Histogram,
    epochs: Counter,
    freezes: Counter,
    pin_staleness: Histogram,
    updates_applied: Counter,
    updates_changed: Counter,
    retained: Gauge,
    pins: Counter,
    queries: Counter,
    query_ns: Histogram,
    query_sampler: Sampler,
}

impl ServeMetrics {
    /// Fraction of connectivity queries whose latency is recorded: the
    /// query path is two array reads (~100ns), so timing every call
    /// would measure the clock, not the engine.
    const QUERY_SAMPLE_PERIOD: u64 = 64;

    fn new() -> Self {
        let r = MetricsRegistry::global();
        Self {
            queue_depth: r.gauge(
                "snap_serve_queue_depth",
                "Update batches submitted but not yet taken into a writer cycle",
            ),
            coalesced: r.histogram(
                "snap_serve_coalesced_batches",
                "Batches drained per ingest cycle (coalescing width)",
            ),
            cycle_updates: r.histogram(
                "snap_serve_cycle_updates",
                "Updates applied per ingest cycle (up to one applier range under a backlog)",
            ),
            apply_ns: r.histogram(
                "snap_serve_apply_ns",
                "Per-cycle sharded update application time, index absorbs and settles included (ns)",
            ),
            labels_ns: r.histogram(
                "snap_serve_labels_ns",
                "Per-cycle component-label publication (ns): one copy of the settled index's flat labels into a recycled array, or none when no label changed; the index absorbs and settles inside snap_serve_apply_ns",
            ),
            freeze_ns: r.histogram(
                "snap_serve_freeze_ns",
                "Freeze time of the freezes that built a version: a delta of the rows touched since the base, or past a quarter of the base's entries the base patched with them (ns)",
            ),
            freeze_rows_reread: r.histogram(
                "snap_serve_freeze_rows_reread",
                "Rows a freeze re-read from the live graph: a delta's rows touched since the last freeze that it did not merge, a patch's rows touched since the base (0 when it shared the previous version)",
            ),
            freeze_rows_merged: r.histogram(
                "snap_serve_freeze_rows_merged",
                "Rows a freeze merged instead: a delta's keyed (treap) rows touched since the last freeze, each its last version with the half-updates since applied",
            ),
            freeze_entries_reread: r.histogram(
                "snap_serve_freeze_entries_reread",
                "Entries in the rows of snap_serve_freeze_rows_reread",
            ),
            freeze_entries_merged: r.histogram(
                "snap_serve_freeze_entries_merged",
                "Entries in the rows of snap_serve_freeze_rows_merged",
            ),
            overlay_ns: r.histogram(
                "snap_serve_overlay_ns",
                "Freeze time of the freezes that published a delta over the base (ns)",
            ),
            overlay_entries: r.histogram(
                "snap_serve_overlay_entries",
                "Entries in the delta each such freeze built",
            ),
            fold_ns: r.histogram(
                "snap_serve_fold_ns",
                "Per fold of a base and its delta into the next base, run when the writer idles or flushes (ns)",
            ),
            folds: r.counter(
                "snap_serve_folds_total",
                "Compacted republications of a version held as base plus delta (not freezes)",
            ),
            publish_ns: r.histogram(
                "snap_serve_publish_ns",
                "Per-freeze publication time: pointer swap + ring maintenance (ns)",
            ),
            publish_lag_ns: r.histogram(
                "snap_serve_publish_lag_ns",
                "Per-batch latency from submit() to visible-to-pins (ns)",
            ),
            epochs: r.counter(
                "snap_serve_epochs_published_total",
                "Writer cycles completed (label publications, excluding version 0)",
            ),
            freezes: r.counter(
                "snap_serve_freezes_total",
                "Frozen versions published to pins (excluding version 0)",
            ),
            pin_staleness: r.histogram(
                "snap_serve_pin_staleness_epochs",
                "Newest cycle epoch minus the epoch of the version a pin returned",
            ),
            updates_applied: r.counter(
                "snap_serve_updates_applied_total",
                "Updates applied by the writer, including no-ops",
            ),
            updates_changed: r.counter(
                "snap_serve_updates_changed_total",
                "Updates that changed the graph (applied minus no-ops)",
            ),
            retained: r.gauge(
                "snap_serve_versions_retained",
                "Versions currently held in retention rings",
            ),
            pins: r.counter("snap_serve_pins_total", "Snapshot handles pinned"),
            queries: r.counter(
                "snap_serve_queries_total",
                "same_component/component queries served",
            ),
            query_ns: r.histogram(
                "snap_serve_query_ns",
                "Sampled connectivity query latency (ns, 1/64 sampling)",
            ),
            query_sampler: Sampler::new(Self::QUERY_SAMPLE_PERIOD),
        }
    }
}

struct Shared<A: DynamicAdjacency> {
    /// The live graph. Mutated **only** by the writer thread after
    /// construction — that exclusivity is what makes index repairs and
    /// CSR builds race-free without a graph-wide lock.
    graph: DynGraph<A>,
    /// The connectivity index, if [`ServeConfig`] asked for it:
    /// absorbed into, settled and epoch-stepped by the writer only.
    indexes: IndexFamily,
    /// The newest *frozen* version — what pins get. The write lock is
    /// held only for the pointer swap (never during a build), so
    /// readers pin in O(1).
    current: RwLock<Arc<EpochSnapshot>>,
    /// The newest *cycle's* component labels, swapped in every cycle
    /// that changed the graph — what the engine-level label queries
    /// read. Never older than `current`'s labels.
    labels: RwLock<Option<Arc<Vec<u32>>>>,
    /// The newest cycle's epoch; runs ahead of `current.epoch` while
    /// cycles skip their freeze.
    cycle_epoch: AtomicU64,
    /// Last `retain` frozen versions, newest at the back.
    ring: Mutex<VecDeque<Arc<EpochSnapshot>>>,
    history: Mutex<Vec<Vec<Update>>>,
    /// Batches submitted but not yet covered by a frozen version.
    pending: AtomicUsize,
    freezes: AtomicU64,
    updates_applied: AtomicU64,
    updates_changed: AtomicU64,
    retired: AtomicU64,
    retain: usize,
    shards: usize,
    record_history: bool,
    metrics: ServeMetrics,
}

/// The concurrent serving engine: multi-version snapshots over a sharded
/// single-queue writer. See the [module docs](self) for the protocol.
pub struct ServeEngine<A: DynamicAdjacency + 'static> {
    shared: Arc<Shared<A>>,
    tx: Sender<Ingest>,
    writer: Mutex<Option<JoinHandle<()>>>,
}

impl<A: DynamicAdjacency + 'static> ServeEngine<A> {
    /// Takes ownership of a dynamic graph, publishes version 0 (one CSR
    /// build, plus one index build and label extraction when
    /// [`ServeConfig::connectivity`] is on), and starts the writer
    /// thread.
    pub fn new(graph: DynGraph<A>, cfg: ServeConfig) -> Self {
        let shards = resolve_workers(cfg.shards);
        let indexes = IndexFamily::default();
        let conn = cfg
            .connectivity
            .then(|| indexes.attach_connectivity(&graph, 0));
        // Version 0 is the writer's cycle's first freeze: a full build.
        let mut cycle = Cycle::publishing(graph.num_vertices());
        let mut labels_seen = None;
        let labels = conn.map(|c| {
            let mut labels = Vec::new();
            labels_seen = c.labels_since(&graph, None, &mut labels);
            Arc::new(labels)
        });
        let v0 = Arc::new(EpochSnapshot::new(
            0,
            0,
            (cycle.freeze(&graph), None),
            labels.clone(),
        ));
        let shared = Arc::new(Shared {
            graph,
            indexes,
            current: RwLock::new(Arc::clone(&v0)),
            labels: RwLock::new(labels),
            cycle_epoch: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::from([v0])),
            history: Mutex::new(Vec::new()),
            pending: AtomicUsize::new(0),
            freezes: AtomicU64::new(0),
            updates_applied: AtomicU64::new(0),
            updates_changed: AtomicU64::new(0),
            retired: AtomicU64::new(0),
            retain: cfg.retain.max(1),
            shards,
            record_history: cfg.history,
            metrics: ServeMetrics::new(),
        });
        // Version 0 sits in the ring already.
        shared.metrics.retained.inc();
        let (tx, rx) = mpsc::channel();
        let writer = {
            let shared = Arc::clone(&shared);
            // panics: thread spawn fails only on OS resource
            // exhaustion at construction time; there is no engine to
            // return an error from yet, and the message names the cause.
            std::thread::Builder::new()
                .name("snap-serve-writer".into())
                .spawn(move || Writer::new(&shared, cycle, labels_seen).run(&rx))
                .expect("spawn serve writer thread")
        };
        Self {
            shared,
            tx,
            writer: Mutex::new(Some(writer)),
        }
    }

    /// Pins the newest *frozen* version. Never blocks on the writer (the
    /// publication lock is held only for a pointer swap) and never
    /// fails; the handle stays valid and immutable until dropped, even
    /// if the version is later evicted from the retention ring.
    ///
    /// On an idle engine that version includes every submitted batch.
    /// While the writer works through a backlog it may trail the newest
    /// cycle (its [`EpochSnapshot::epoch`] / [`EpochSnapshot::batches`]
    /// say by how much: the version is always internally consistent), by
    /// at most four cycles: the writer freezes at least once every four.
    pub fn pin(&self) -> SnapshotHandle {
        let s = &*self.shared;
        s.metrics.pins.inc();
        let snap = Arc::clone(&s.current.read());
        // ordering: Relaxed — a staleness sample only; the read lock above
        // already orders the store of this version's epoch before it.
        let newest = s.cycle_epoch.load(Ordering::Relaxed);
        s.metrics.pin_staleness.record(newest - snap.epoch);
        snap
    }

    /// Enqueues a batch for the writer. Returns immediately; the label
    /// queries reflect the batch once the cycle applying it ends, pins
    /// once a version including it freezes (all earlier submissions
    /// included first — the queue is FIFO). Call [`ServeEngine::flush`]
    /// for a publication barrier.
    ///
    /// # Panics
    ///
    /// If an update names a vertex outside the graph (`update {i} names
    /// vertex {v}, but the graph has {n} vertices`, the applier's own
    /// wording). The check runs on the caller's thread before anything
    /// is counted or queued, so a rejected batch leaves the engine, its
    /// queue and every other client's batches untouched.
    pub fn submit(&self, batch: Vec<Update>) {
        let n = self.shared.graph.num_vertices();
        for (idx, u) in batch.iter().enumerate() {
            check_endpoints(idx, u, n);
        }
        // ordering: Relaxed — the channel send below orders it before the
        // writer's decrement for this batch, so the count never drops
        // below the batches not yet published; visibility rides on that
        // decrement's Release (invariant 1).
        self.shared.pending.fetch_add(1, Ordering::Relaxed);
        self.shared.metrics.queue_depth.inc();
        // panics: the writer thread owns `rx` for the whole engine
        // lifetime and exits only via Drop/shutdown (which consume the
        // engine) — a send error here means the writer itself panicked,
        // and surfacing that panic to the submitter is intended.
        self.tx
            .send(Ingest::Batch(batch, Stamp::now()))
            .expect("serve writer thread terminated");
    }

    /// Publication barrier: blocks until every batch submitted before
    /// this call has been applied *and frozen* into the version the next
    /// [`ServeEngine::pin`] returns, and that version is compacted (its
    /// [`GraphView::as_csr`] is the CSR).
    pub fn flush(&self) {
        let (ack_tx, ack_rx) = mpsc::sync_channel(1);
        // panics: as in `submit` — the writer outlives every `&self`
        // call, so a send/recv failure means it panicked, and the
        // barrier cannot be honored except by propagating that panic.
        self.tx
            .send(Ingest::Flush(ack_tx))
            .expect("serve writer thread terminated");
        // panics: same reasoning — the ack sender is dropped unsent
        // only if the writer unwound mid-cycle.
        ack_rx.recv().expect("serve writer dropped flush ack");
    }

    /// Epoch of the newest writer cycle — the state the label queries
    /// answer from. At least the epoch of any version pinned earlier.
    pub fn epoch(&self) -> u64 {
        // ordering: Acquire — pairs with the writer's end-of-cycle
        // store, which follows the cycle's label swap (invariant 1).
        self.shared.cycle_epoch.load(Ordering::Acquire)
    }

    /// True if `u` and `v` are connected as of the newest writer cycle:
    /// two array reads under the label pointer's read lock, wait-free
    /// with respect to the writer, and never older than a version
    /// pinned before the call.
    ///
    /// # Panics
    ///
    /// Panics when the engine runs with
    /// [`ServeConfig::connectivity`] `= false`.
    pub fn same_component(&self, u: u32, v: u32) -> bool {
        let m = &self.shared.metrics;
        m.queries.inc();
        let sampled = m.query_sampler.tick().then(Stamp::now);
        let res = self.with_labels(|l| l[u as usize] == l[v as usize]);
        if let Some(t) = sampled {
            m.query_ns.record(t.elapsed_ns());
        }
        res
    }

    /// Component label of `u` as of the newest writer cycle (see
    /// [`ServeEngine::same_component`] for the cost and panic contract).
    pub fn component(&self, u: u32) -> u32 {
        self.shared.metrics.queries.inc();
        self.with_labels(|l| l[u as usize])
    }

    /// Reads the newest cycle's labels under the pointer's read lock.
    fn with_labels<R>(&self, read: impl FnOnce(&[u32]) -> R) -> R {
        let labels = self.shared.labels.read();
        // panics: documented contract (see `same_component`) — the
        // engine was built with connectivity disabled.
        read(labels.as_ref().expect(NO_CONNECTIVITY))
    }

    /// Batches submitted but not yet visible to pins (queued, or applied
    /// in a cycle that has not been frozen yet).
    pub fn pending_batches(&self) -> usize {
        // ordering: Acquire — pairs with the writer's post-freeze
        // Release fetch_sub: observing 0 here means every submitted
        // batch is visible to a subsequent pin (invariant 1).
        self.shared.pending.load(Ordering::Acquire)
    }

    /// Updates applied by the writer so far (including no-ops): counts
    /// submissions, whatever they did.
    pub fn updates_applied(&self) -> u64 {
        // ordering: Relaxed — statistics counter (invariant 9).
        self.shared.updates_applied.load(Ordering::Relaxed)
    }

    /// Updates that changed the graph so far — [`ServeEngine::updates_applied`]
    /// minus the no-ops (re-inserts of live edges, deletes of absent
    /// ones), summed from the applier's per-update change flags.
    pub fn updates_changed(&self) -> u64 {
        // ordering: Relaxed — statistics counter (invariant 9).
        self.shared.updates_changed.load(Ordering::Relaxed)
    }

    /// Frozen versions published so far, version 0 excluded — at most
    /// [`ServeEngine::epoch`], at least a quarter of it once the writer
    /// idles, and fewer than it when cycles ran with batches still
    /// queued. A compacted republication of a version (a fold) is not a
    /// freeze.
    pub fn freezes(&self) -> u64 {
        // ordering: Relaxed — statistics counter (invariant 9).
        self.shared.freezes.load(Ordering::Relaxed)
    }

    /// Versions currently held in the retention ring.
    pub fn retained(&self) -> usize {
        self.shared.ring.lock().len()
    }

    /// Versions evicted from the retention ring so far (they stay alive
    /// while pinned; this counts ring departures, not deallocations).
    pub fn retired(&self) -> u64 {
        // ordering: Relaxed — statistics counter (invariant 9).
        self.shared.retired.load(Ordering::Relaxed)
    }

    /// Full connectivity rebuilds performed, or `None` without the
    /// index. The serving path keeps this at **zero**: insertions union
    /// incrementally and deletions go through the certificate.
    pub fn full_rebuild_count(&self) -> Option<usize> {
        let conn = self.shared.indexes.routes();
        conn.map(|c| c.full_rebuild_count())
    }

    /// The query surface of the connectivity index this engine
    /// maintains ([`IndexQuery`], and the index's own counters through
    /// [`IndexQuery::connectivity`]). Queries read the writer's index
    /// under its read lock, as of the last cycle: the writer absorbs and
    /// settles a cycle's changes under the index's write lock, so an
    /// answer is the graph after some prefix of the submitted batches,
    /// never older than a version pinned before the call — prefer the
    /// wait-free [`ServeEngine::same_component`]. The writer steps the
    /// index before it publishes a cycle's epoch, so no query here ever
    /// pays a rebuild. Do not absorb into the index.
    pub fn indexes(&self) -> IndexQuery<'_, DynGraph<A>> {
        let s = &*self.shared;
        s.indexes.query(&s.graph, &s.cycle_epoch)
    }

    /// Applied batches in application (= submission) order. Empty unless
    /// [`ServeConfig::history`] is on. The first
    /// [`EpochSnapshot::batches`] entries replay any published version.
    pub fn history(&self) -> Vec<Vec<Update>> {
        self.shared.history.lock().clone()
    }

    /// Stops the writer and waits for it to exit. The queue is FIFO, so
    /// every batch submitted before this call is still applied first.
    /// Equivalent to dropping the engine, but explicit.
    pub fn shutdown(self) {}
}

impl<A: DynamicAdjacency + 'static> Drop for ServeEngine<A> {
    fn drop(&mut self) {
        // A send error just means the writer already exited.
        let _ = self.tx.send(Ingest::Stop);
        if let Some(h) = self.writer.lock().take() {
            let _ = h.join();
        }
        // The registry outlives the engine: release this engine's ring
        // contribution so `snap_serve_versions_retained` tracks live
        // engines (bench sweeps construct many in sequence).
        let remaining = self.shared.ring.lock().len();
        self.shared.metrics.retained.sub(remaining as i64);
    }
}

/// How long the writer's queue must stay empty before it folds the
/// newest version's delta into its base. Long enough that a client
/// submitting as soon as it sees its last batch never waits behind a
/// fold (O(n + m)); short beside the gaps between a reader's analyses.
const FOLD_IDLE: Duration = Duration::from_millis(1);

/// Cycles the writer runs in a row without a freeze before the last of
/// them freezes, however many batches wait: a reader's staleness bound
/// under a backlog. Not 1, because a backlog cycle touches most rows, so
/// freezing each would cost about a full patch.
const FREEZE_EVERY: u64 = 4;

/// The writer thread's own state.
struct Writer<'a, A: DynamicAdjacency> {
    shared: &'a Shared<A>,
    /// The cycle's coalesced batches as one stream (reused every cycle).
    stream: Vec<Update>,
    /// Submission stamps of the batches applied since the last freeze —
    /// as many entries as `pending` still counts on their behalf. (The
    /// stamps are ZSTs without the `obs` feature; the length is real.)
    uncovered: Vec<Stamp>,
    /// Its epoch is what `Shared::cycle_epoch` publishes.
    cycle: Cycle,
    /// The connectivity index's label generation behind
    /// `Shared::labels` ([`crate::ConnectivityIndex::labels_since`]).
    labels_seen: Option<u64>,
    /// A label array nobody reads any more: the next publication copies
    /// into it instead of allocating (and faulting in) a fresh one.
    spare_labels: Option<Vec<u32>>,
}

impl<'a, A: DynamicAdjacency> Writer<'a, A> {
    fn new(shared: &'a Shared<A>, cycle: Cycle, labels_seen: Option<u64>) -> Self {
        Self {
            shared,
            stream: Vec::new(),
            uncovered: Vec::new(),
            cycle,
            labels_seen,
            spare_labels: None,
        }
    }

    fn run(mut self, rx: &Receiver<Ingest>) {
        // A non-batch message pulled while coalescing is handled after
        // the cycle of the batches ahead of it: a Flush acks only once
        // they are visible, and a Stop never drops them.
        let mut stash: Option<Ingest> = None;
        loop {
            let msg = match stash.take().map_or_else(|| rx.try_recv(), Ok) {
                Ok(m) => m,
                Err(TryRecvError::Disconnected) => return, // engine dropped
                // Never wait with a cycle unfrozen. A version held as base
                // plus delta is compacted once the queue stays empty for
                // `FOLD_IDLE`, off every lag path.
                Err(TryRecvError::Empty) => {
                    self.freeze();
                    let next = if self.cycle.has_delta() {
                        rx.recv_timeout(FOLD_IDLE)
                    } else {
                        rx.recv().map_err(RecvTimeoutError::from)
                    };
                    match next {
                        Ok(m) => m,
                        Err(RecvTimeoutError::Timeout) => {
                            self.fold();
                            continue;
                        }
                        Err(RecvTimeoutError::Disconnected) => return, // engine dropped
                    }
                }
            };
            match msg {
                Ingest::Stop => return,
                Ingest::Flush(ack) => {
                    self.freeze();
                    // The barrier leaves a compacted version behind.
                    self.fold();
                    // Receiver may have timed out / gone away; ignore.
                    let _ = ack.send(());
                }
                Ingest::Batch(first, stamp) => stash = self.cycle(first, stamp, rx),
            }
        }
    }

    /// One ingest cycle: coalesce the queued batches, up to one applier
    /// range of half-updates, into one stream, apply it with one sharded
    /// applier call, settle the index, publish the cycle's labels with
    /// a single pointer swap — and freeze if it is the `FREEZE_EVERY`-th
    /// cycle since the last freeze. Returns the non-batch message that
    /// ended the coalescing, if any.
    fn cycle(&mut self, first: Vec<Update>, stamp: Stamp, rx: &Receiver<Ingest>) -> Option<Ingest> {
        let shared = self.shared;
        let m = &shared.metrics;
        let mut stash = None;
        // Half-updates per update, as the applier counts its budget: one
        // per adjacency list the update touches.
        let per_update = if shared.graph.is_directed() { 1 } else { 2 };
        let mut halves = first.len() * per_update;
        let mut batches = vec![first];
        self.uncovered.push(stamp);
        // Backlog buys group size: whatever is queued joins the cycle
        // until the stream fills one applier range. Batches stay whole,
        // so a cycle holds less than the budget plus its last batch.
        while halves < RANGE_BUDGET {
            match rx.try_recv() {
                Ok(Ingest::Batch(b, s)) => {
                    halves += b.len() * per_update;
                    batches.push(b);
                    self.uncovered.push(s);
                }
                Ok(other) => {
                    stash = Some(other);
                    break;
                }
                Err(TryRecvError::Empty | TryRecvError::Disconnected) => break,
            }
        }
        m.coalesced.record(batches.len() as u64);
        m.queue_depth.sub(batches.len() as i64);
        self.stream.clear();
        for b in &batches {
            self.stream.extend_from_slice(b);
        }
        let applied = self.stream.len() as u64;
        m.cycle_updates.record(applied);
        let conn = shared.indexes.routes();
        // Absorbs the cycle's changes into the index, settles it and
        // steps it, all before `cycle_epoch` publishes (invariant 6).
        let changed = {
            let _t = Timer::scope(&m.apply_ns);
            self.cycle
                .run(&shared.graph, conn, &self.stream, shared.shards) as u64
        };
        if shared.record_history {
            shared.history.lock().extend(batches);
        }
        // ordering: Relaxed — statistics counter (invariant 9); readers
        // never infer visibility from it.
        shared.updates_applied.fetch_add(applied, Ordering::Relaxed);
        // ordering: Relaxed — statistics counter, as above.
        shared.updates_changed.fetch_add(changed, Ordering::Relaxed);
        m.updates_applied.add(applied);
        m.updates_changed.add(changed);

        // A cycle that changes no key set (deletes of absent edges,
        // re-inserts of live ones) keeps the previous labels; unless a
        // re-insert rewrote a timestamp, it leaves the graph clean, so a
        // freeze after it shares the previous version.
        if changed > 0 {
            // The index settled inside the run (the certificate
            // searched the smaller side per cut tree edge — never a full
            // rebuild), which left the labels flat: publish a copy, or
            // keep the previous array when no label changed.
            if let Some(c) = conn {
                let _t = Timer::scope(&m.labels_ns);
                let mut labels = self.spare_labels.take().unwrap_or_default();
                match c.labels_since(&shared.graph, self.labels_seen, &mut labels) {
                    Some(seen) => {
                        self.labels_seen = Some(seen);
                        let old = shared.labels.write().replace(Arc::new(labels));
                        self.recycle_labels(old);
                    }
                    None => self.spare_labels = Some(labels),
                }
            }
        }
        // ordering: Release — after the label swap, so an epoch read
        // (Acquire) implies labels at least that new.
        shared
            .cycle_epoch
            .store(self.cycle.epoch(), Ordering::Release);
        m.epochs.inc();
        // Under a backlog, a freeze every `FREEZE_EVERY` cycles; the run
        // loop freezes the rest before it waits for a batch.
        if self.cycle.epoch() - shared.current.read().epoch >= FREEZE_EVERY {
            self.freeze();
        }
        stash
    }

    /// Freezes the current state ([`Cycle::publish`]: the base plus a
    /// delta of the rows touched since, or a patched base), publishes it
    /// with the newest cycle's epoch, batch count and labels by a single
    /// pointer swap, hands the covered batches' `pending` counts and lag
    /// stamps over, and retires ring overflow. A no-op when every applied
    /// batch is frozen already.
    fn freeze(&mut self) {
        if self.uncovered.is_empty() {
            return;
        }
        let shared = self.shared;
        let m = &shared.metrics;
        // The oldest version goes before the build, not after it, so the
        // build may write into its arrays; the newest (`current`) stays,
        // and the ring holds the `retain` newest again once this one is
        // in.
        self.retire((shared.retain - 1).max(1));
        let builds = self.cycle.builds();
        let built = Stamp::now();
        let graph = self.cycle.publish(&shared.graph);
        let read = self.cycle.read();
        m.freeze_rows_reread.record(read.reread_rows as u64);
        m.freeze_rows_merged.record(read.merged_rows as u64);
        m.freeze_entries_reread.record(read.reread_entries as u64);
        m.freeze_entries_merged.record(read.merged_entries as u64);
        if self.cycle.builds() > builds {
            let ns = built.elapsed_ns();
            m.freeze_ns.record(ns);
            if let Some(delta) = &graph.1 {
                m.overlay_ns.record(ns);
                m.overlay_entries.record(delta.num_entries() as u64);
            }
        }
        // Every batch applied since the last freeze is now visible to
        // pins.
        let covered = self.uncovered.len();
        let batches = shared.current.read().batches + covered as u64;
        // Only this thread swaps the label pointer, so this is the newest
        // cycle's.
        let labels = shared.labels.read().clone();
        let snap = Arc::new(EpochSnapshot::new(
            self.cycle.epoch(),
            batches,
            graph,
            labels,
        ));
        // Publication: everything above is complete before the swap, so
        // a reader pinning after it sees graph, labels, epoch and batch
        // count of one state. The write lock guards only this swap.
        let _t = Timer::scope(&m.publish_ns);
        *shared.current.write() = Arc::clone(&snap);
        for s in self.uncovered.drain(..) {
            m.publish_lag_ns.record(s.elapsed_ns());
        }
        // Decrement pending only after publication so `pending_batches()
        // == 0` implies every submitted batch is visible to new pins.
        // ordering: Release — pairs with pending_batches' Acquire load;
        // the decrement is the post-publication signal (invariant 1).
        shared.pending.fetch_sub(covered, Ordering::Release);
        // ordering: Relaxed — statistics counter (invariant 9).
        shared.freezes.fetch_add(1, Ordering::Relaxed);
        m.freezes.inc();
        shared.ring.lock().push_back(snap);
        m.retained.inc();
        self.retire(shared.retain);
    }

    /// Compacts the newest version's base and delta into the next base
    /// ([`Cycle::fold`]) and republishes the newest version compacted:
    /// same epoch, batch count and labels, so pins see no change but the
    /// CSR fast path. The compacted version takes the overlay's place in
    /// the ring. Not a freeze: nothing new becomes visible. A no-op when
    /// the newest version is compacted already.
    fn fold(&mut self) {
        let shared = self.shared;
        let m = &shared.metrics;
        let started = Stamp::now();
        let Some(base) = self.cycle.fold() else {
            return;
        };
        m.fold_ns.record(started.elapsed_ns());
        m.folds.inc();
        let current = Arc::clone(&shared.current.read());
        let snap = Arc::new(EpochSnapshot::new(
            current.epoch,
            current.batches,
            (base, None),
            current.labels.clone(),
        ));
        *shared.current.write() = Arc::clone(&snap);
        // The overlay is unpinned once only the ring holds it: then its
        // delta (and a base nobody else shares) can be recycled below.
        drop(current);
        let overlay = shared
            .ring
            .lock()
            .back_mut()
            .map(|newest| std::mem::replace(newest, snap));
        if let Some(Ok(overlay)) = overlay.map(Arc::try_unwrap) {
            self.cycle.recycle((overlay.base, overlay.delta));
        }
    }

    /// Drops ring versions, oldest first, until `keep` remain. One that
    /// no reader holds lends its arrays to the next build.
    fn retire(&mut self, keep: usize) {
        let shared = self.shared;
        let mut ring = shared.ring.lock();
        while ring.len() > keep {
            if let Some(Ok(old)) = ring.pop_front().map(Arc::try_unwrap) {
                self.cycle.recycle((old.base, old.delta));
                self.recycle_labels(old.labels);
            }
            // ordering: Relaxed — statistics counter (invariant 9); the
            // ring itself is guarded by its mutex.
            shared.retired.fetch_add(1, Ordering::Relaxed);
            shared.metrics.retained.dec();
        }
    }

    /// Keeps a label array nobody else holds as the next publication's
    /// buffer.
    fn recycle_labels(&mut self, labels: Option<Arc<Vec<u32>>>) {
        if self.spare_labels.is_none() {
            self.spare_labels = labels.and_then(|l| Arc::try_unwrap(l).ok());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::CapacityHints;
    use crate::dynarr::DynArr;
    use crate::hybrid::HybridAdj;
    use snap_rmat::TimedEdge;

    fn engine(n: usize, cfg: ServeConfig) -> ServeEngine<HybridAdj> {
        let hints = CapacityHints::new(n * 4);
        ServeEngine::new(DynGraph::<HybridAdj>::undirected(n, &hints), cfg)
    }

    fn ins(u: u32, v: u32, ts: u32) -> Update {
        Update::insert(TimedEdge::new(u, v, ts))
    }

    fn del(u: u32, v: u32) -> Update {
        Update::delete(TimedEdge::new(u, v, 0))
    }

    fn conn(e: &ServeEngine<HybridAdj>) -> &crate::ConnectivityIndex {
        e.indexes().connectivity().expect("connectivity on")
    }

    /// A check to call on every turn of a loop that waits on the writer:
    /// it fails, naming `what`, once 120 s have passed since this call,
    /// so a dead writer fails the test instead of hanging it.
    fn writer_deadline(what: &'static str) -> impl Fn() {
        let start = std::time::Instant::now();
        move || {
            assert!(
                start.elapsed().as_secs() < 120,
                "timed out waiting for {what}"
            )
        }
    }

    #[test]
    fn publishes_versions_in_submission_order() {
        let e = engine(8, ServeConfig::default().with_shards(2));
        assert_eq!(e.epoch(), 0);
        e.submit(vec![ins(0, 1, 1)]);
        e.submit(vec![ins(1, 2, 2)]);
        e.submit(vec![del(0, 1)]);
        e.flush();
        let v = e.pin();
        assert_eq!(v.batches(), 3);
        assert_eq!(v.num_entries(), 2, "only (1,2) survives");
        assert!(e.same_component(1, 2));
        assert!(!e.same_component(0, 2));
        assert_eq!(e.pending_batches(), 0);
        assert_eq!(e.updates_applied(), 3);
        assert_eq!(e.updates_changed(), 3);
        assert_eq!(e.full_rebuild_count(), Some(0));
    }

    #[test]
    fn pinned_versions_survive_ring_eviction() {
        let e = engine(8, ServeConfig::default().with_retain(2));
        e.submit(vec![ins(0, 1, 1)]);
        e.flush();
        let old = e.pin();
        let (old_epoch, old_entries) = (old.epoch(), old.num_entries());
        // A flush per batch demands a frozen version per batch (a
        // back-to-back burst may freeze once every four cycles).
        for i in 0..10u32 {
            e.submit(vec![ins(i % 7, (i + 1) % 7, 10 + i)]);
            e.flush();
        }
        assert!(e.retained() <= 2);
        assert!(e.retired() > 0);
        assert!(e.epoch() > old_epoch);
        // The evicted version is still fully readable through the pin.
        assert_eq!(old.epoch(), old_epoch);
        assert_eq!(old.num_entries(), old_entries);
        assert_eq!(old.degree(0), 1);
    }

    #[test]
    fn a_retired_version_nobody_pins_lends_its_arrays_to_a_later_freeze() {
        let row0 = |e: &ServeEngine<HybridAdj>| e.pin().csr().neighbors(0).as_ptr();
        // Each batch moves one edge between 0-1 and 0-7, so every
        // version fits the arrays of any other.
        let step = |e: &ServeEngine<HybridAdj>, i: u32| {
            let (gone, back) = if i.is_multiple_of(2) { (1, 7) } else { (7, 1) };
            e.submit(vec![del(0, gone), ins(0, back, i)]);
            e.flush();
            assert_eq!(**e.pin().csr(), e.shared.graph.to_csr(), "batch {i}");
            assert!(e.retained() <= e.shared.retain);
        };
        for retain in 1..=3 {
            let e = engine(8, ServeConfig::default().with_retain(retain));
            e.submit(vec![ins(0, 1, 0), ins(1, 2, 0), ins(0, 3, 0)]);
            e.flush();
            let first = row0(&e);
            // The oldest of `retain` versions leaves the ring before the
            // next build (the newest one stays), so that build writes
            // into its arrays.
            for i in 0..retain.max(2) as u32 {
                step(&e, i);
            }
            assert_eq!(row0(&e), first, "retain {retain}");
            // A pinned version is never written into, retired or not.
            let held = e.pin();
            let kept = (**held.csr()).clone();
            for i in 2..8 {
                step(&e, i);
                assert_ne!(row0(&e), held.csr().neighbors(0).as_ptr());
            }
            assert_eq!(**held.csr(), kept);
        }
    }

    #[test]
    fn noop_cycles_share_the_previous_csr() {
        let e = engine(8, ServeConfig::default());
        e.submit(vec![ins(0, 1, 1)]);
        e.flush();
        let v1 = e.pin();
        // Deleting an absent edge changes nothing: a new epoch is
        // published but the CSR and labels are shared, not rebuilt.
        e.submit(vec![del(5, 6)]);
        e.flush();
        let v2 = e.pin();
        assert!(v2.epoch() > v1.epoch());
        assert!(Arc::ptr_eq(v1.csr(), v2.csr()));
        assert_eq!((e.updates_applied(), e.updates_changed()), (2, 1));
    }

    #[test]
    fn labels_match_serial_kernel_per_version() {
        let e = engine(16, ServeConfig::default().with_shards(3));
        e.submit((0..7u32).map(|i| ins(i, i + 1, 1)).collect());
        e.submit(vec![del(3, 4)]);
        e.flush();
        let v = e.pin();
        let labels = v.component_labels().expect("connectivity on");
        // 0-1-2-3 | 4-5-6-7 | isolates.
        for u in 0..4u32 {
            assert_eq!(labels[u as usize], 0);
        }
        for u in 4..8u32 {
            assert_eq!(labels[u as usize], 4);
        }
        for u in 8..16u32 {
            assert_eq!(labels[u as usize], u);
        }
        assert_eq!(v.same_component(0, 3), Some(true));
        assert_eq!(v.same_component(3, 4), Some(false));
        assert_eq!(conn(&e).repair_count(), 1, "one targeted repair");
        assert_eq!(e.full_rebuild_count(), Some(0));
    }

    #[test]
    fn connectivity_disabled_serves_none() {
        let e = engine(8, ServeConfig::default().with_connectivity(false));
        e.submit(vec![ins(0, 1, 1)]);
        e.flush();
        let v = e.pin();
        assert!(v.component_labels().is_none());
        assert_eq!(v.same_component(0, 1), None);
        assert_eq!(e.full_rebuild_count(), None);
        assert!(e.indexes().connectivity().is_none());
    }

    #[test]
    #[should_panic(expected = "connectivity index not enabled")]
    fn a_label_query_without_the_index_names_it() {
        let e = engine(8, ServeConfig::default().with_connectivity(false));
        e.same_component(0, 1);
    }

    #[test]
    fn history_replays_any_version_prefix() {
        let e = engine(8, ServeConfig::default().with_history(true));
        let b0 = vec![ins(0, 1, 1), ins(1, 2, 2)];
        let b1 = vec![del(0, 1)];
        e.submit(b0.clone());
        e.submit(b1.clone());
        e.flush();
        let v = e.pin();
        let hist = e.history();
        assert_eq!(hist.len(), 2);
        assert_eq!(hist[0], b0);
        assert_eq!(hist[1], b1);
        // Bulk-synchronous replay of the prefix reproduces the version.
        let hints = CapacityHints::new(16);
        let oracle: DynGraph<DynArr> = DynGraph::undirected(8, &hints);
        for batch in &hist[..v.batches() as usize] {
            for u in batch {
                oracle.apply(u);
            }
        }
        assert_eq!(oracle.to_csr().num_entries(), v.num_entries());
    }

    #[test]
    fn graphview_impl_delegates_to_the_csr() {
        let e = engine(8, ServeConfig::default());
        e.submit(vec![ins(0, 1, 7), ins(0, 2, 9)]);
        e.flush();
        let v = e.pin();
        assert_eq!(GraphView::num_vertices(&*v), 8);
        assert!(!GraphView::is_directed(&*v));
        assert_eq!(GraphView::degree(&*v, 0), 2);
        assert_eq!(GraphView::max_degree(&*v), 2);
        let mut seen = Vec::new();
        v.for_each_edge(0, |nbr, ts| seen.push((nbr, ts)));
        seen.sort_unstable();
        assert_eq!(seen, vec![(1, 7), (2, 9)]);
        assert_eq!(v.edges_of(0).len(), 2);
        assert_eq!(v.find_edge(0, |nbr, _| nbr == 2), Some((2, 9)));
        assert!(v.as_csr().is_some());
        let mut all = v.collect_entries();
        all.sort_unstable();
        assert_eq!(all, vec![(0, 1, 7), (0, 2, 9), (1, 0, 7), (2, 0, 9)]);
    }

    #[test]
    fn coalescing_bounds_publications() {
        // Batches queued while the writer is busy share a cycle, so many
        // may share one publication — but correctness never depends on
        // how they group: the final state and batch count are exact.
        let e = engine(8, ServeConfig::default());
        for i in 0..40u32 {
            e.submit(vec![ins(i % 7, (i + 1) % 7, i + 1)]);
        }
        e.flush();
        let v = e.pin();
        assert_eq!(v.batches(), 40);
        assert!(v.epoch() >= 1 && v.epoch() <= 40);
        assert_eq!(e.pending_batches(), 0);
    }

    /// `batches` batches of `len` updates over `n` vertices from one
    /// seeded stream, a third of them deletes (mostly of present edges,
    /// at this density).
    fn churn(n: usize, batches: usize, len: usize, seed: u64) -> Vec<Vec<Update>> {
        let mut rng = snap_util::rng::XorShift64::new(seed);
        let mut ts = 0;
        (0..batches)
            .map(|_| {
                (0..len)
                    .map(|_| {
                        let u = rng.next_bounded(n as u64) as u32;
                        let v = rng.next_bounded(n as u64) as u32;
                        ts += 1;
                        if rng.next_bool(2.0 / 3.0) {
                            ins(u, v, ts)
                        } else {
                            del(u, v)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Sorted entries of `batches` replayed one update at a time on the
    /// engine's representation.
    fn oracle_entries(n: usize, batches: &[Vec<Update>]) -> Vec<(u32, u32, u32)> {
        let g = DynGraph::<HybridAdj>::undirected(n, &CapacityHints::new(n * 4));
        for u in batches.iter().flatten() {
            g.apply(u);
        }
        sorted_entries(&g.to_csr())
    }

    fn sorted_entries<V: GraphView>(view: &V) -> Vec<(u32, u32, u32)> {
        let mut all = view.collect_entries();
        all.sort_unstable();
        all
    }

    #[test]
    fn a_backlog_drains_in_cycles_of_one_applier_range() {
        // More than three ranges' worth of half-updates, queued back to
        // back with nobody pinning.
        let (n, len) = (64, 4096);
        let batches = churn(n, 3 * RANGE_BUDGET / (2 * len) + 2, len, 7);
        let halves: usize = batches.iter().map(|b| 2 * b.len()).sum();
        assert!(halves > 3 * RANGE_BUDGET);
        let e = engine(n, ServeConfig::default().with_shards(2));
        for b in &batches {
            e.submit(b.clone());
        }
        e.flush();
        let v = e.pin();
        assert_eq!(v.batches(), batches.len() as u64, "flush is a barrier");
        // A cycle takes batches only while it holds less than the
        // budget, and whole: it ends below the budget plus one batch.
        let fewest = halves.div_ceil(RANGE_BUDGET + 2 * len) as u64;
        assert!(
            (fewest..=batches.len() as u64).contains(&e.epoch()),
            "{} cycles for {} batches ({halves} half-updates)",
            e.epoch(),
            batches.len()
        );
        assert_eq!(e.updates_applied(), (halves / 2) as u64);
        assert_eq!(sorted_entries(&*v), oracle_entries(n, &batches));
        assert_eq!(e.full_rebuild_count(), Some(0));
    }

    #[test]
    fn an_over_budget_batch_is_a_cycle_by_itself() {
        let n = 64;
        let big = churn(n, 1, RANGE_BUDGET / 2 + 1, 11).remove(0);
        let small = churn(n, 1, 8, 12).remove(0);
        let e = engine(n, ServeConfig::default().with_shards(2));
        // The big batch fills its cycle alone, however fast the small
        // one is queued behind it; the small one is the next cycle.
        e.submit(big.clone());
        e.submit(small.clone());
        e.flush();
        assert_eq!(e.epoch(), 2);
        let v = e.pin();
        assert_eq!((v.epoch(), v.batches()), (2, 2));
        assert_eq!(sorted_entries(&*v), oracle_entries(n, &[big, small]));
    }

    #[test]
    fn a_malformed_batch_is_rejected_at_the_door() {
        let e = engine(8, ServeConfig::default().with_history(true));
        let first = vec![ins(0, 1, 1)];
        e.submit(first.clone());
        let bad = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.submit(vec![ins(1, 2, 2), ins(3, 8, 3)]);
        }));
        let msg = bad.expect_err("an out-of-range vertex must be refused");
        assert_eq!(
            msg.downcast_ref::<String>().map(String::as_str),
            Some("update 1 names vertex 8, but the graph has 8 vertices")
        );
        assert!(e.pending_batches() <= 1, "the refused batch is not counted");
        // The writer never saw it: later batches apply and flush.
        let last = vec![ins(1, 2, 4)];
        e.submit(last.clone());
        e.flush();
        assert_eq!(e.pending_batches(), 0);
        let v = e.pin();
        assert_eq!(v.batches(), 2);
        assert_eq!(e.history(), vec![first.clone(), last.clone()]);
        assert_eq!(sorted_entries(&*v), oracle_entries(8, &[first, last]));
        assert!(e.same_component(0, 2));
    }

    /// The version a pin gets after a flush is the fresh build of the
    /// live graph, row for row: the freezes that patched it forward from
    /// version 0 re-read every row that changed.
    fn assert_patched_exactly<A: DynamicAdjacency>(e: &ServeEngine<A>) {
        let v = e.pin();
        assert_eq!(**v.csr(), e.shared.graph.to_csr(), "epoch {}", v.epoch());
    }

    #[test]
    fn patched_freezes_follow_a_hub_through_promotion_and_demotion() {
        let (n, hints) = (32, CapacityHints::new(256).with_degree_thresh(8));
        let e = ServeEngine::new(
            DynGraph::<HybridAdj>::undirected(n, &hints),
            ServeConfig::default().with_shards(2),
        );
        let hub_is_treap = |e: &ServeEngine<HybridAdj>| e.shared.graph.adjacency().is_treap(0);
        let mut rng = snap_util::rng::XorShift64::new(5);
        let mut seen = Vec::new();
        for round in 0..32u32 {
            // Grow the hub past the threshold, then tear it down below a
            // quarter of it; the other half of each batch churns elsewhere.
            let insert_share = if round < 12 { 0.9 } else { 0.05 };
            let batch = (0..8u32)
                .map(|i| {
                    let (u, v) = if i % 2 == 0 {
                        (0, rng.next_bounded(16) as u32)
                    } else {
                        let u = rng.next_bounded(n as u64) as u32;
                        (u, rng.next_bounded(n as u64) as u32)
                    };
                    if rng.next_bool(insert_share) {
                        ins(u, v, round * 8 + i)
                    } else {
                        del(u, v)
                    }
                })
                .collect();
            e.submit(batch);
            e.flush();
            assert_patched_exactly(&e);
            seen.push(hub_is_treap(&e));
        }
        let flips = |from, to| seen.windows(2).any(|w| w == [from, to]);
        assert!(flips(false, true) && flips(true, false), "{seen:?}");
    }

    #[test]
    fn a_backlog_freezes_every_fourth_cycle_and_patches_every_row_it_touched() {
        // Each batch fills an applier range in its own 16-vertex slice, so
        // each is a cycle, and all are queued long before the writer drains
        // them: every cycle but the last finds batches waiting, and a freeze
        // re-reads every slice the cycles it covers touched.
        let (cycles, slice) = (3 * FREEZE_EVERY as u32, 16);
        let n = (cycles * slice) as usize;
        let cfg = ServeConfig::default().with_shards(2).with_history(true);
        let e = engine(n, cfg.with_retain(cycles as usize + 1));
        for lo in (0..cycles).map(|b| b * slice) {
            let mut batch = churn(slice as usize, 1, RANGE_BUDGET / 2, 9 + lo as u64).remove(0);
            for u in &mut batch {
                (u.edge.u, u.edge.v) = (u.edge.u + lo, u.edge.v + lo);
            }
            e.submit(batch);
        }
        e.flush();
        assert_patched_exactly(&e);
        assert_eq!(e.epoch(), cycles as u64);
        assert!(
            (e.epoch().div_ceil(FREEZE_EVERY)..e.epoch()).contains(&e.freezes()),
            "{} freezes in {} cycles",
            e.freezes(),
            e.epoch()
        );
        // The ring holds every version: each is its prefix, and no two
        // frozen epochs are more than `FREEZE_EVERY` apart.
        let versions: Vec<_> = e.shared.ring.lock().iter().cloned().collect();
        assert_eq!(versions.len() as u64, e.freezes() + 1);
        let (history, mut last) = (e.history(), (0, 0));
        let oracle = DynGraph::<HybridAdj>::undirected(n, &CapacityHints::new(n * 4));
        for v in &versions {
            assert!(v.epoch() - last.0 <= FREEZE_EVERY, "epoch {}", v.epoch());
            for u in history[last.1..v.batches() as usize].iter().flatten() {
                oracle.apply(u);
            }
            last = (v.epoch(), v.batches() as usize);
            let want = sorted_entries(&oracle.to_csr());
            assert_eq!(sorted_entries(&**v), want, "epoch {}", v.epoch());
        }
    }

    #[test]
    fn a_budget_cycle_before_an_empty_queue_shows_unasked() {
        // The cycle ends because its stream filled the budget, not because
        // the queue ran dry; nobody pins or flushes, yet it freezes.
        let batch = churn(16, 1, RANGE_BUDGET / 2, 17).remove(0);
        let e = engine(16, ServeConfig::default());
        e.submit(batch.clone());
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while e.pending_batches() > 0 {
            assert!(std::time::Instant::now() < deadline, "never frozen");
            std::thread::yield_now();
        }
        assert_eq!((e.epoch(), e.freezes(), e.pin().batches()), (1, 1, 1));
        assert_eq!(sorted_entries(&*e.pin()), oracle_entries(16, &[batch]));
    }

    #[test]
    fn noop_cycles_around_patched_freezes_stay_exact() {
        let e = engine(8, ServeConfig::default());
        e.submit(vec![ins(0, 1, 1), ins(2, 3, 2)]);
        e.flush();
        assert_patched_exactly(&e);
        let v1 = e.pin();
        // A no-op cycle names rows it does not change: the freeze shares
        // the CSR, and the next patch starts from a clean touched set.
        e.submit(vec![del(4, 5), del(0, 2)]);
        e.flush();
        assert!(Arc::ptr_eq(v1.csr(), e.pin().csr()));
        e.submit(vec![ins(5, 6, 3), del(2, 3)]);
        e.submit(vec![del(6, 7)]);
        e.flush();
        assert_patched_exactly(&e);
    }

    /// An engine over `n` vertices that already holds `edges` random
    /// edges (so a small batch's rows stay under the overlay limit), with
    /// history on; returns it with its base stream.
    fn seeded(n: usize, edges: usize, cfg: ServeConfig) -> (ServeEngine<HybridAdj>, Vec<Update>) {
        let base: Vec<Update> = churn(n, 1, edges, 41)
            .remove(0)
            .into_iter()
            .map(|u| Update::insert(u.edge))
            .collect();
        let g = DynGraph::<HybridAdj>::undirected(n, &CapacityHints::new(n * 4));
        for u in &base {
            g.apply(u);
        }
        (ServeEngine::new(g, cfg.with_history(true)), base)
    }

    /// The CSR of `base` and then `batches` replayed one update at a time.
    fn replay(n: usize, base: &[Update], batches: &[Vec<Update>]) -> CsrGraph {
        let g = DynGraph::<HybridAdj>::undirected(n, &CapacityHints::new(n * 4));
        for u in base.iter().chain(batches.iter().flatten()) {
            g.apply(u);
        }
        g.to_csr()
    }

    /// `v` read through its own rows equals `v` compacted, entry for
    /// entry and in order.
    fn assert_view_equals_csr(v: &EpochSnapshot) {
        let csr = v.csr();
        assert_eq!(v.collect_entries(), GraphView::collect_entries(&**csr));
        assert_eq!(v.num_entries(), csr.num_entries());
        assert_eq!(GraphView::max_degree(v), csr.max_degree());
        let third = |w: u32, _| w.is_multiple_of(3);
        for u in 0..csr.num_vertices() as u32 {
            assert_eq!(v.degree(u), csr.out_degree(u), "vertex {u}");
            assert_eq!(
                v.find_edge(u, third),
                GraphView::find_edge(&**csr, u, third)
            );
            assert_eq!(v.edges_of(u), GraphView::edges_of(&**csr, u));
        }
    }

    #[test]
    fn every_pinned_version_reads_as_its_replayed_prefix() {
        let n = 128;
        let (e, base) = seeded(n, 1200, ServeConfig::default().with_shards(2));
        let batches = churn(n, 32, 6, 42);
        // The producer pauses at random: back to back, deltas pile up
        // over one base; after a pause past the idle delay, the writer
        // folds. The reader keeps every distinct version it pins.
        let mut versions: Vec<SnapshotHandle> = vec![e.pin()];
        std::thread::scope(|s| {
            let producer = s.spawn(|| {
                let mut rng = snap_util::rng::XorShift64::new(43);
                for b in &batches {
                    e.submit(b.clone());
                    let pause = rng.next_bounded(3000);
                    std::thread::sleep(std::time::Duration::from_micros(pause));
                }
            });
            let overdue = writer_deadline("the producer's batches to publish");
            while !producer.is_finished() || e.pending_batches() > 0 {
                overdue();
                let v = e.pin();
                if !versions.last().is_some_and(|last| Arc::ptr_eq(last, &v)) {
                    versions.push(v);
                }
            }
        });
        e.flush();
        versions.push(e.pin());
        let history = e.history();
        let mut overlays = 0;
        for v in &versions {
            overlays += usize::from(v.as_csr().is_none());
            let want = replay(n, &base, &history[..v.batches() as usize]);
            assert_eq!(**v.csr(), want, "epoch {}", v.epoch());
            assert_view_equals_csr(v);
        }
        assert!(overlays > 0, "no overlay among {} versions", versions.len());
        assert!(
            e.pin().as_csr().is_some(),
            "a flush leaves a compacted version"
        );
        assert_eq!(e.full_rebuild_count(), Some(0));
    }

    #[test]
    fn a_pinned_overlay_outlives_its_fold_and_the_ring() {
        let n = 128;
        let (e, base) = seeded(n, 1200, ServeConfig::default().with_retain(2));
        let batches = churn(n, 48, 4, 51);
        let mut fed = 0;
        // Pin each batch as soon as it shows; the writer folds only
        // after a millisecond idle, so that version is an overlay unless
        // this thread was descheduled that long.
        let held = batches
            .iter()
            .find_map(|b| {
                e.submit(b.clone());
                fed += 1;
                let overdue = writer_deadline("a submitted batch to show");
                let v = std::iter::repeat_with(|| e.pin())
                    .inspect(|_| overdue())
                    .find(|v| v.batches() == fed as u64)
                    .expect("an endless iterator");
                v.as_csr().is_none().then_some(v)
            })
            .expect("an overlay version was pinned");
        let want = replay(n, &base, &batches[..fed]);
        let entries = held.collect_entries();
        e.flush();
        assert!(e.pin().as_csr().is_some(), "the flush folded");
        for b in &batches[fed..fed + 6] {
            e.submit(b.clone());
            e.flush();
        }
        assert!(e.pin().batches() > held.batches() + 2, "out of the ring");
        assert!(held.as_csr().is_none());
        assert_eq!(held.collect_entries(), entries);
        assert_eq!(**held.csr(), want);
        assert_view_equals_csr(&held);
    }

    #[test]
    fn a_batch_past_the_overlay_limit_publishes_a_patched_base() {
        let n = 128;
        let (e, base) = seeded(n, 600, ServeConfig::default());
        // Inserts on every vertex: their rows hold all the entries.
        let big: Vec<Update> = (0..n as u32)
            .map(|u| ins(u, (u + 1) % n as u32, 7))
            .collect();
        let before = e.pin();
        e.submit(big.clone());
        let overdue = writer_deadline("the batch to show");
        let v = std::iter::repeat_with(|| e.pin())
            .inspect(|_| overdue())
            .find(|v| v.batches() == 1)
            .expect("an endless iterator");
        // Published compacted at once, not after an idle fold.
        assert!(v.as_csr().is_some());
        assert!(!Arc::ptr_eq(v.csr(), before.csr()));
        assert_eq!(**v.csr(), replay(n, &base, &[big]));
    }

    #[test]
    fn drop_joins_the_writer() {
        let e = engine(8, ServeConfig::default());
        e.submit(vec![ins(0, 1, 1)]);
        e.shutdown(); // must not hang or panic
    }
}
