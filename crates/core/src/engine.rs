//! Parallel update-application strategies (Sections 2.1.1–2.1.3).
//!
//! The representation decides *where* an update lands; the engine decides
//! *how* a batch of updates is driven across threads:
//!
//! - [`apply_stream`] — the default: a parallel iterator over the stream,
//!   every thread applying updates directly (per-vertex synchronization
//!   inside the representation resolves conflicts). This is what the
//!   `Dyn-arr` / `Treaps` / `Hybrid` MUPS figures measure.
//! - [`apply_vpart`] — `Vpart`: the vertex space is range-partitioned over
//!   workers and each applies only the orientations whose source vertex
//!   it owns. Zero cross-thread conflicts. The paper's version has every
//!   worker scan the whole stream (`threads x stream` reads, the
//!   trade-off Figure 3 quantifies); here one pass buckets the
//!   half-updates by owner first, so each worker reads only its share.
//! - [`apply_epart`] — `Epart`: updates touching discovered-hot vertices
//!   are diverted to per-worker private buffers and merged in a second
//!   phase, avoiding the hot-vertex contention of the direct path at the
//!   cost of buffer space and a merge step.
//! - [`apply_batched`] — semi-sort the stream by source vertex and apply
//!   each group as a unit. [`semi_sort_bound`] measures just the sort,
//!   the paper's upper bound on any batched scheme's MUPS.
//!
//! # Worker-count convention
//!
//! Every applier taking a `workers: usize` follows the same rule as
//! `snap_par::ParConfig::threads`: **0 adopts the installed rayon pool**
//! (`rayon::current_num_threads()`, which honors
//! `snap_util::thread_pool(t).install(..)` and therefore `SNAP_THREADS`
//! sweeps), while any non-zero value pins the count explicitly.
//! [`resolve_workers`] implements the rule once for all of them.

use crate::adjacency::{AdjEntry, DynamicAdjacency};
use crate::connectivity::ConnectivityIndex;
use crate::csr::{CsrGraph, SnapshotRace};
use crate::distindex::DistanceIndex;
use crate::graph::DynGraph;
pub use crate::indexes::IndexRoutes;
use crate::indexes::{IndexFamily, IndexQuery};
use crate::triindex::TriangleIndex;
use parking_lot::Mutex;
use rayon::prelude::*;
use snap_rmat::{TimedEdge, Update, UpdateKind};
use snap_util::partition_ranges;
use snap_util::sort::semi_sort_by_key;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Applies every update via a parallel iterator (the streaming default).
/// Returns `true` if any update actually changed the graph — a batch of
/// deduplicated re-inserts or deletes of absent edges reports `false`,
/// which is what lets [`SnapshotManager::apply_batch`] keep a clean
/// cached snapshot valid across no-op batches. (The tracking is one
/// relaxed load per update and a rare store, so the MUPS hot path is
/// unaffected.)
pub fn apply_stream<A: DynamicAdjacency>(g: &DynGraph<A>, updates: &[Update]) -> bool {
    let changed = AtomicBool::new(false);
    updates.par_iter().for_each(|u| {
        // ordering: Relaxed (load and store) — a monotonic flag joined
        // at the scope barrier below (`into_inner`); no data is
        // published through it (invariant 9: instrumentation-grade).
        if g.apply(u) && !changed.load(Ordering::Relaxed) {
            // ordering: Relaxed — covered by the flag note above.
            changed.store(true, Ordering::Relaxed);
        }
    });
    changed.into_inner()
}

/// [`apply_stream`] with wall-clock timing.
pub fn apply_stream_timed<A: DynamicAdjacency>(g: &DynGraph<A>, updates: &[Update]) -> Duration {
    let (_, d) = snap_util::timer::time(|| apply_stream(g, updates));
    d
}

/// One directed half-update: `src`'s adjacency gains/loses `entry`.
#[derive(Clone, Copy)]
struct HalfUpdate {
    src: u32,
    entry: AdjEntry,
    kind: UpdateKind,
}

/// Feeds `f` the directed half-updates of a stream in stream order (two
/// per update for undirected graphs), each with its update's stream
/// index, so that partitioned strategies can assign each half to the
/// worker owning its source vertex and report per-update outcomes.
fn for_each_half(updates: &[Update], directed: bool, mut f: impl FnMut(usize, HalfUpdate)) {
    for (idx, u) in updates.iter().enumerate() {
        let (e, kind) = (u.edge, u.kind);
        let half = |src, nbr| HalfUpdate {
            src,
            entry: AdjEntry::new(nbr, e.timestamp),
            kind,
        };
        f(idx, half(e.u, e.v));
        if !directed && e.u != e.v {
            f(idx, half(e.v, e.u));
        }
    }
}

/// The stream's half-updates as one vector, in stream order.
fn expand_half_updates(updates: &[Update], directed: bool) -> Vec<HalfUpdate> {
    let mut out = Vec::with_capacity(updates.len() * if directed { 1 } else { 2 });
    for_each_half(updates, directed, |_, h| out.push(h));
    out
}

/// Applies one half-update, reporting whether it changed the adjacency
/// (new entry stored / live entry removed).
fn apply_half<A: DynamicAdjacency>(adj: &A, h: &HalfUpdate) -> bool {
    match h.kind {
        UpdateKind::Insert => adj.insert(h.src, h.entry),
        UpdateKind::Delete => adj.delete(h.src, h.entry.nbr),
    }
}

/// Resolves a `workers` argument to a concrete thread count (>= 1): `0`
/// adopts `rayon::current_num_threads()` — the installed pool, and thus
/// `SNAP_THREADS` sweeps — exactly like `snap_par::ParConfig::threads`;
/// any other value is returned as-is.
pub fn resolve_workers(workers: usize) -> usize {
    if workers == 0 {
        rayon::current_num_threads().max(1)
    } else {
        workers
    }
}

/// `Vpart`: vertices are range-partitioned over
/// [`resolve_workers`]`(workers)` shards (0 = adopt the installed pool);
/// the stream's half-updates are bucketed by owning shard once, and every
/// worker applies its own bucket. Because each vertex's half-updates are
/// applied by exactly one worker *in stream order*, the final adjacency
/// state is identical to sequential application, for any stream.
/// ([`apply_vpart_indexed`] with nothing to route into.)
pub fn apply_vpart<A: DynamicAdjacency>(g: &DynGraph<A>, updates: &[Update], workers: usize) {
    apply_vpart_indexed(g, updates, workers, IndexRoutes::default());
}

/// The `Vpart` applier with per-update change tracking and routing into
/// the index family — the sharded writer of the serving engine
/// ([`crate::serve::ServeEngine`]), which hands it a whole ingest cycle
/// as one stream.
///
/// Half-updates are expanded once and bucketed by owning shard in
/// stream order; each shard walks only its bucket (a single shard runs
/// on the calling thread, no spawn). An update's "did it change the
/// graph" verdict is the OR of its halves' outcomes (matching
/// [`DynGraph::insert_edge`] / [`DynGraph::delete_edge`]). After the
/// parallel phase's barrier, confirmed changes are fed to every index
/// in [`IndexRoutes`] **in stream order** against the settled graph —
/// so no-op updates (deduplicated re-inserts, deletes of absent edges)
/// never touch an index, and view-consuming notes (distance wavefronts,
/// triangle delete checks) observe exactly the state their deltas
/// describe. An update deleted later in the same stream may relax a
/// distance certificate through an edge the final view no longer has;
/// the later-routed delete note sees that certificate and dirty-marks
/// it, so stream-order routing keeps the indexes exact at quiescence.
/// Returns how many updates changed the graph (the per-update change
/// flags, summed).
///
/// # Panics
///
/// Panics if an update names a source vertex outside the graph (no
/// shard owns it), like [`DynGraph::apply`] does.
pub fn apply_vpart_indexed<A: DynamicAdjacency>(
    g: &DynGraph<A>,
    updates: &[Update],
    workers: usize,
    routes: IndexRoutes<'_>,
) -> usize {
    assert!(
        updates.len() <= u32::MAX as usize,
        "stream too large for u32 stream indices"
    );
    let ranges = partition_ranges(g.num_vertices(), resolve_workers(workers));
    let shard_of = |src: u32| ranges.partition_point(|r| r.end <= src as usize);
    // Counting pass, then a stable scatter: every bucket keeps stream
    // order, which is all the bit-identity argument needs.
    let mut sizes = vec![0usize; ranges.len()];
    for_each_half(updates, g.is_directed(), |_, h| sizes[shard_of(h.src)] += 1);
    let mut buckets: Vec<Vec<(u32, HalfUpdate)>> =
        sizes.into_iter().map(Vec::with_capacity).collect();
    for_each_half(updates, g.is_directed(), |idx, h| {
        buckets[shard_of(h.src)].push((idx as u32, h));
    });
    let adj = g.adjacency();
    let changed: Vec<AtomicBool> = updates.iter().map(|_| AtomicBool::new(false)).collect();
    let walk = |bucket: &[(u32, HalfUpdate)]| {
        for (idx, h) in bucket {
            if apply_half(adj, h) {
                // ordering: Relaxed — per-update outcome flags joined at
                // the scope barrier; the scope's own synchronization
                // publishes them (invariant 8: scheduling never leaks
                // into results).
                changed[*idx as usize].store(true, Ordering::Relaxed);
            }
        }
    };
    match buckets.as_slice() {
        [only] => walk(only),
        many => rayon::scope(|s| {
            for bucket in many {
                let walk = &walk;
                s.spawn(move |_| walk(bucket));
            }
        }),
    }
    let mut count = 0;
    for (u, c) in updates.iter().zip(&changed) {
        // ordering: Relaxed — read after the scope barrier above; the
        // barrier already ordered the stores.
        if c.load(Ordering::Relaxed) {
            count += 1;
            routes.route(g, u);
        }
    }
    count
}

/// `Epart` configuration: a vertex is "hot" if the current batch contains
/// at least this many half-updates for it.
pub const EPART_HOT_THRESHOLD: usize = 256;

/// `Epart`: cold half-updates apply directly; hot-vertex half-updates are
/// buffered per worker chunk and merged per hot vertex in a second phase.
/// `workers` follows the [`resolve_workers`] convention (0 = adopt the
/// installed pool).
pub fn apply_epart<A: DynamicAdjacency>(g: &DynGraph<A>, updates: &[Update], workers: usize) {
    let n = g.num_vertices();
    let halves = expand_half_updates(updates, g.is_directed());
    // Discover hot vertices from the batch itself.
    let mut counts = vec![0u32; n];
    for h in &halves {
        counts[h.src as usize] += 1;
    }
    let hot: Vec<bool> = counts
        .iter()
        .map(|&c| c as usize >= EPART_HOT_THRESHOLD)
        .collect();
    let adj = g.adjacency();
    // Phase 1: apply cold directly; buffer hot per chunk.
    let chunk = halves.len().div_ceil(resolve_workers(workers)).max(1);
    let buffers: Vec<Vec<HalfUpdate>> = halves
        .par_chunks(chunk)
        .map(|c| {
            let mut buf = Vec::new();
            for h in c {
                if hot[h.src as usize] {
                    buf.push(*h);
                } else {
                    apply_half(adj, h);
                }
            }
            buf
        })
        .collect();
    // Phase 2: merge — flatten, group by vertex, apply groups in parallel.
    let mut hot_halves: Vec<HalfUpdate> = buffers.into_iter().flatten().collect();
    let key_bits = (usize::BITS - n.saturating_sub(1).leading_zeros()).max(1);
    semi_sort_by_key(&mut hot_halves, key_bits, |h| h.src);
    apply_grouped(adj, &hot_halves);
}

/// Applies semi-sorted half-updates group-by-group in parallel.
fn apply_grouped<A: DynamicAdjacency>(adj: &A, sorted: &[HalfUpdate]) {
    // Find group boundaries, then parallelize over groups: each vertex's
    // updates apply on one worker, in stream order.
    let mut starts = Vec::new();
    let mut i = 0;
    while i < sorted.len() {
        starts.push(i);
        let src = sorted[i].src;
        while i < sorted.len() && sorted[i].src == src {
            i += 1;
        }
    }
    starts.push(sorted.len());
    starts.par_windows(2).for_each(|w| {
        for h in &sorted[w[0]..w[1]] {
            apply_half(adj, h);
        }
    });
}

/// Batched processing: semi-sort the stream by source vertex, then apply
/// each vertex's group as a unit.
pub fn apply_batched<A: DynamicAdjacency>(g: &DynGraph<A>, updates: &[Update]) {
    let mut halves = expand_half_updates(updates, g.is_directed());
    let n = g.num_vertices();
    let key_bits = (usize::BITS - n.saturating_sub(1).leading_zeros()).max(1);
    semi_sort_by_key(&mut halves, key_bits, |h| h.src);
    apply_grouped(g.adjacency(), &halves);
}

/// Measures only the semi-sort of the expanded stream — the lower bound on
/// batched processing time (Figure 3's "upper bound on batched MUPS").
pub fn semi_sort_bound(updates: &[Update], n: usize, directed: bool) -> Duration {
    let mut halves = expand_half_updates(updates, directed);
    let key_bits = (usize::BITS - n.saturating_sub(1).leading_zeros()).max(1);
    let (_, d) = snap_util::timer::time(|| {
        semi_sort_by_key(&mut halves, key_bits, |h| h.src);
        std::hint::black_box(&halves);
    });
    d
}

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

    /// Applies a whole batch in parallel, bumping the epoch **at most
    /// once** and only if some update actually changed the graph — the
    /// paper's bulk-synchronous pattern. A burst of no-op batches
    /// (deletes of absent edges, deduplicated re-inserts) leaves the
    /// cached snapshot and the indexes untouched. With an index
    /// attached the batch goes through [`apply_vpart_indexed`], which
    /// routes the confirmed changes after the barrier, in stream order.
    /// Returns whether the batch changed anything.
    pub fn apply_batch(&self, updates: &[Update]) -> bool {
        let routes = self.indexes.routes();
        let changed = if routes.is_empty() {
            apply_stream(&self.graph, updates)
        } else {
            apply_vpart_indexed(&self.graph, updates, 0, routes) > 0
        };
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
    use crate::hybrid::HybridAdj;
    use crate::treapadj::TreapAdj;
    use snap_rmat::{Rmat, RmatParams, StreamBuilder};
    use std::collections::HashSet;

    fn workload() -> (usize, Vec<Update>) {
        let r = Rmat::new(RmatParams::paper(9, 8), 5);
        let edges = r.edges();
        let s = StreamBuilder::new(&edges, 1).construction_shuffled();
        (1 << 9, s)
    }

    /// Live (u, v) pairs after applying updates, as a multiset-insensitive
    /// set (duplicate R-MAT edges collapse).
    fn live_set<A: DynamicAdjacency>(g: &DynGraph<A>) -> HashSet<(u32, u32)> {
        let mut set = HashSet::new();
        for u in 0..g.num_vertices() as u32 {
            g.for_each_neighbor(u, &mut |e| {
                set.insert((u, e.nbr));
            });
        }
        set
    }

    fn reference_set(n: usize, updates: &[Update], directed: bool) -> HashSet<(u32, u32)> {
        // Sequential oracle with set semantics.
        let mut set = HashSet::new();
        let _ = n;
        for u in updates {
            let (a, b) = (u.edge.u, u.edge.v);
            match u.kind {
                UpdateKind::Insert => {
                    set.insert((a, b));
                    if !directed {
                        set.insert((b, a));
                    }
                }
                UpdateKind::Delete => {
                    set.remove(&(a, b));
                    if !directed {
                        set.remove(&(b, a));
                    }
                }
            }
        }
        set
    }

    #[test]
    fn stream_applies_all_insertions() {
        let (n, s) = workload();
        let g: DynGraph<DynArr> = DynGraph::directed(n, &CapacityHints::new(s.len()));
        apply_stream(&g, &s);
        assert_eq!(g.total_entries(), s.len());
        assert_eq!(live_set(&g), reference_set(n, &s, true));
    }

    #[test]
    fn vpart_matches_stream_semantics() {
        let (n, s) = workload();
        let g: DynGraph<DynArr> = DynGraph::undirected(n, &CapacityHints::new(s.len() * 2));
        apply_vpart(&g, &s, 4);
        assert_eq!(g.total_entries(), count_expected_halves(&s));
        assert_eq!(live_set(&g), reference_set(n, &s, false));
    }

    #[test]
    fn epart_matches_stream_semantics() {
        let (n, s) = workload();
        let g: DynGraph<DynArr> = DynGraph::undirected(n, &CapacityHints::new(s.len() * 2));
        apply_epart(&g, &s, 4);
        assert_eq!(g.total_entries(), count_expected_halves(&s));
        assert_eq!(live_set(&g), reference_set(n, &s, false));
    }

    #[test]
    fn batched_matches_stream_semantics() {
        let (n, s) = workload();
        let g: DynGraph<DynArr> = DynGraph::undirected(n, &CapacityHints::new(s.len() * 2));
        apply_batched(&g, &s);
        assert_eq!(g.total_entries(), count_expected_halves(&s));
        assert_eq!(live_set(&g), reference_set(n, &s, false));
    }

    fn count_expected_halves(s: &[Update]) -> usize {
        s.iter()
            .map(|u| if u.edge.u == u.edge.v { 1 } else { 2 })
            .sum()
    }

    #[test]
    fn mixed_stream_consistent_across_representations() {
        // Duplicate-free mixed workload so set semantics are well-defined
        // for all three representations.
        let n = 256usize;
        let mut updates = Vec::new();
        let mut present: HashSet<(u32, u32)> = HashSet::new();
        let mut rng = snap_util::rng::XorShift64::new(42);
        for _ in 0..20_000 {
            let u = rng.next_bounded(n as u64) as u32;
            let v = rng.next_bounded(n as u64) as u32;
            if u == v {
                continue;
            }
            let key = (u.min(v), u.max(v));
            if present.contains(&key) {
                present.remove(&key);
                updates.push(Update::delete(snap_rmat::TimedEdge::new(key.0, key.1, 0)));
            } else {
                present.insert(key);
                updates.push(Update::insert(snap_rmat::TimedEdge::new(key.0, key.1, 1)));
            }
        }
        let reference = reference_set(n, &updates, false);

        let hints = CapacityHints::new(updates.len() * 2);
        let da: DynGraph<DynArr> = DynGraph::undirected(n, &hints);
        let tr: DynGraph<TreapAdj> = DynGraph::undirected(n, &hints);
        let hy: DynGraph<HybridAdj> = DynGraph::undirected(n, &hints);
        // NOTE: sequential application here — the stream has ordering
        // dependencies (delete after its insert), which parallel semantics
        // do not guarantee. Parallel equivalence is tested on commuting
        // streams in the integration suite.
        for u in &updates {
            da.apply(u);
            tr.apply(u);
            hy.apply(u);
        }
        assert_eq!(live_set(&da), reference);
        assert_eq!(live_set(&tr), reference);
        assert_eq!(live_set(&hy), reference);
    }

    #[test]
    fn semi_sort_bound_returns_nonzero_duration() {
        let (n, s) = workload();
        let d = semi_sort_bound(&s, n, false);
        assert!(d.as_nanos() > 0);
    }

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
    fn apply_stream_reports_whether_anything_changed() {
        let g: DynGraph<TreapAdj> = DynGraph::undirected(8, &CapacityHints::new(16));
        let ins = vec![Update::insert(snap_rmat::TimedEdge::new(0, 1, 1))];
        assert!(apply_stream(&g, &ins), "a real insert changes the graph");
        assert!(
            !apply_stream(&g, &ins),
            "treap dedup: re-insert changes nothing"
        );
        let absent = vec![Update::delete(snap_rmat::TimedEdge::new(5, 6, 0))];
        assert!(!apply_stream(&g, &absent));
        let del = vec![Update::delete(snap_rmat::TimedEdge::new(0, 1, 0))];
        assert!(apply_stream(&g, &del));
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
        // recomputes — the acceptance criterion of the serving path.
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
    fn vpart_single_worker_equals_sequential() {
        let (n, s) = workload();
        let g1: DynGraph<DynArr> = DynGraph::directed(n, &CapacityHints::new(s.len()));
        apply_vpart(&g1, &s, 1);
        let g2: DynGraph<DynArr> = DynGraph::directed(n, &CapacityHints::new(s.len()));
        for u in &s {
            g2.apply(u);
        }
        assert_eq!(live_set(&g1), live_set(&g2));
        assert_eq!(g1.total_entries(), g2.total_entries());
    }

    #[test]
    fn resolve_workers_adopts_installed_pool() {
        // 0 = adopt, same convention as ParConfig::threads.
        let inside = snap_util::thread_pool(3).install(|| resolve_workers(0));
        assert_eq!(inside, 3);
        assert_eq!(resolve_workers(5), 5);
        assert!(resolve_workers(0) >= 1);
    }

    #[test]
    fn vpart_workers_zero_adopts_pool_and_matches_semantics() {
        let (n, s) = workload();
        let g: DynGraph<DynArr> = DynGraph::undirected(n, &CapacityHints::new(s.len() * 2));
        snap_util::thread_pool(4).install(|| apply_vpart(&g, &s, 0));
        assert_eq!(g.total_entries(), count_expected_halves(&s));
        assert_eq!(live_set(&g), reference_set(n, &s, false));
    }

    #[test]
    fn vpart_indexed_matches_vpart_and_counts_changes() {
        let none = IndexRoutes::default();
        let (n, s) = workload();
        let g1: DynGraph<DynArr> = DynGraph::undirected(n, &CapacityHints::new(s.len() * 2));
        assert_eq!(apply_vpart_indexed(&g1, &s, 4, none), s.len());
        let g2: DynGraph<DynArr> = DynGraph::undirected(n, &CapacityHints::new(s.len() * 2));
        apply_vpart(&g2, &s, 4);
        assert_eq!(live_set(&g1), live_set(&g2));
        assert_eq!(g1.total_entries(), g2.total_entries());
        // Deleting from an empty graph is a no-op batch.
        let empty: DynGraph<DynArr> = DynGraph::undirected(n, &CapacityHints::new(8));
        let absent: Vec<Update> = (0..8u32)
            .map(|i| Update::delete(TimedEdge::new(i, i + 1, 0)))
            .collect();
        assert_eq!(apply_vpart_indexed(&empty, &absent, 4, none), 0);
    }

    #[test]
    fn vpart_indexed_keeps_connectivity_index_incremental() {
        let n = 64usize;
        let g: DynGraph<HybridAdj> = DynGraph::undirected(n, &CapacityHints::new(256));
        let conn = ConnectivityIndex::from_view(&g);
        let routes = IndexRoutes {
            conn: Some(&conn),
            ..IndexRoutes::default()
        };
        let path: Vec<Update> = (0..31u32)
            .map(|i| Update::insert(TimedEdge::new(i, i + 1, 1)))
            .collect();
        assert_eq!(apply_vpart_indexed(&g, &path, 4, routes), path.len());
        assert!(conn.same_component(&g, 0, 31));
        assert_eq!(conn.repair_count(), 0, "insertions never need repair");
        // A real bridge deletion: the next query relabels one side.
        let del = vec![Update::delete(TimedEdge::new(15, 16, 0))];
        assert_eq!(apply_vpart_indexed(&g, &del, 4, routes), 1);
        assert!(!conn.same_component(&g, 0, 31));
        assert_eq!(conn.repair_count(), 1);
        // A no-op delete batch must not reach the index at all.
        let noop = vec![Update::delete(TimedEdge::new(40, 41, 0))];
        assert_eq!(apply_vpart_indexed(&g, &noop, 4, routes), 0);
        assert_eq!(conn.full_rebuild_count(), 0);
        // Labels agree with the serial kernel on the same state.
        let mut expect: Vec<u32> = (0..n as u32).collect();
        for i in 0..15u32 {
            expect[i as usize + 1] = 0;
        }
        for i in 16..31u32 {
            expect[i as usize + 1] = 16;
        }
        assert_eq!(conn.labels(&g), expect);
        assert_eq!(conn.repair_count(), 1, "no-op deletes never add repairs");
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
    fn vpart_indexed_routes_the_whole_family() {
        let n = 64usize;
        let g: DynGraph<HybridAdj> = DynGraph::undirected(n, &CapacityHints::new(256));
        let conn = ConnectivityIndex::from_view(&g);
        let dist = DistanceIndex::from_view(&g, &[0]);
        let tri = TriangleIndex::from_view(&g);
        let routes = IndexRoutes {
            conn: Some(&conn),
            dist: Some(&dist),
            tri: Some(&tri),
        };
        assert!(!routes.is_empty());
        let mut batch: Vec<Update> = (0..31u32)
            .map(|i| Update::insert(TimedEdge::new(i, i + 1, 1)))
            .collect();
        batch.push(Update::insert(TimedEdge::new(0, 2, 1))); // triangle 0-1-2
        assert_eq!(apply_vpart_indexed(&g, &batch, 4, routes), batch.len());
        assert!(conn.same_component(&g, 0, 31));
        assert_eq!(dist.distance(&g, 0, 31), Some(30), "0-2 shortcut");
        assert_eq!(tri.triangle_count(), 1);
        // Delete the shortcut: distance must repair back, triangle dies.
        let del = vec![Update::delete(TimedEdge::new(0, 2, 0))];
        assert_eq!(apply_vpart_indexed(&g, &del, 4, routes), del.len());
        assert_eq!(dist.distance(&g, 0, 31), Some(31));
        assert_eq!(tri.triangle_count(), 0);
        assert!(conn.same_component(&g, 0, 2), "still connected via 1");
        // A no-op batch routes nothing.
        let noop = vec![Update::delete(TimedEdge::new(40, 41, 0))];
        assert_eq!(apply_vpart_indexed(&g, &noop, 4, routes), 0);
        assert_eq!(dist.full_rebuild_count(), 0);
        assert_eq!(tri.full_rebuild_count(), 0);
        assert_eq!(conn.full_rebuild_count(), 0);
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
