//! Parallel update-application strategies (Sections 2.1.1–2.1.3).
//!
//! The representation decides *where* an update lands; the engine decides
//! *how* a batch of updates is driven across threads. There is one batch
//! applier, [`apply_vpart_indexed`], and it is the paper's `Vpart` and
//! its batched scheme at once:
//!
//! 1. a coarse histogram over source vertices cuts the vertex space into
//!    ranges of about a fixed number of half-updates each (one or two for
//!    a serving cycle, a dozen or so for a million-update batch);
//! 2. workers claim ranges from a shared counter; for its range a worker
//!    scans the stream once, keeps the half-updates whose source falls in
//!    the range (the paper's "every worker scans the stream" — scratch
//!    stays bounded by the range, whatever the batch size), and
//!    counting-sorts them by source, stably, in buffers it reuses;
//! 3. each vertex's group goes to
//!    [`DynamicAdjacency::apply_group`] as a unit: one lock acquisition,
//!    and for treap-backed vertices a merge and one rebuild when the
//!    group is large against the degree, per-key descents when it is not.
//!
//! A vertex belongs to exactly one range and its group keeps stream
//! order, so the final adjacency state and every update's "did it change
//! the graph" verdict equal those of a sequential [`DynGraph::apply`]
//! loop, for any stream and any worker count. Cutting the *vertex space*
//! keeps each hub's whole group together; cutting the stream would
//! re-touch every hub cold once per piece.
//!
//! [`SnapshotManager::apply_batch`] and the serving writer
//! ([`crate::serve::ServeEngine`]) call it directly; [`apply_vpart`] and
//! [`apply_batched`] are its two Figure 3 names. The other rows of that
//! figure stay what they were:
//!
//! - [`apply_stream`] — a parallel iterator over the stream, every
//!   thread applying updates one by one (per-vertex synchronization
//!   inside the representation resolves conflicts). This is what the
//!   per-representation `Dyn-arr` / `Treaps` / `Hybrid` MUPS figures
//!   measure, and it is only order-preserving for commuting streams.
//! - [`apply_epart`] — `Epart`: updates touching discovered-hot vertices
//!   are diverted to per-worker private buffers and merged in a second
//!   phase, avoiding the hot-vertex contention of the direct path at the
//!   cost of buffer space and a merge step.
//! - [`semi_sort_bound`] measures just a whole-stream semi-sort, the
//!   paper's upper bound on any batched scheme's MUPS.
//!
//! # Worker-count convention
//!
//! Every applier taking a `workers: usize` follows the same rule as
//! `snap_par::ParConfig::threads`: **0 adopts the installed rayon pool**
//! (`rayon::current_num_threads()`, which honors
//! `snap_util::thread_pool(t).install(..)` and therefore `SNAP_THREADS`
//! sweeps), while any non-zero value pins the count explicitly.
//! [`resolve_workers`] implements the rule once for all of them.

use crate::adjacency::{DynamicAdjacency, HalfUpdate};
use crate::csr::RowSet;
use crate::graph::DynGraph;
pub use crate::indexes::IndexRoutes;
pub use crate::manager::SnapshotManager;
use parking_lot::Mutex;
use rayon::prelude::*;
use snap_rmat::{Update, UpdateKind};
use snap_util::sort::semi_sort_by_key;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

/// Applies every update via a parallel iterator (the streaming default).
/// Returns `true` if any update actually changed the graph — a batch of
/// deduplicated re-inserts or deletes of absent edges reports `false`.
/// (The tracking is one relaxed load per update and a rare store, so the
/// MUPS hot path is unaffected.)
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

/// The directed half-updates of the stream's `idx`-th update: one per
/// adjacency list it touches (two for an undirected non-loop edge), so
/// that each can go to whoever owns its source vertex.
fn halves(idx: usize, u: &Update, directed: bool) -> (HalfUpdate, Option<HalfUpdate>) {
    let (e, is_delete) = (u.edge, u.kind == UpdateKind::Delete);
    let half = |src, nbr| HalfUpdate::new(src, nbr, e.timestamp, idx, is_delete);
    let back = (!directed && e.u != e.v).then(|| half(e.v, e.u));
    (half(e.u, e.v), back)
}

/// The stream's [`checked_halves`] as one vector, in stream order.
fn expand_half_updates(updates: &[Update], n: usize, directed: bool) -> Vec<HalfUpdate> {
    let mut out = Vec::with_capacity(updates.len() * if directed { 1 } else { 2 });
    checked_halves(updates, n, directed, |there, back| {
        out.push(there);
        out.extend(back);
    });
    out
}

/// Feeds `f` the [`halves`] of every update, in stream order, after
/// checking the contract the batch appliers hold a stream to before they
/// touch the graph: it fits the half-update tag and names only vertices
/// below `n`.
///
/// # Panics
///
/// Otherwise, naming the offending update.
fn checked_halves(
    updates: &[Update],
    n: usize,
    directed: bool,
    mut f: impl FnMut(HalfUpdate, Option<HalfUpdate>),
) {
    assert!(
        updates.len() <= HalfUpdate::MAX_INDEX,
        "a batch holds at most 2^31 updates, not {}",
        updates.len()
    );
    for (idx, u) in updates.iter().enumerate() {
        check_endpoints(idx, u, n);
        let (there, back) = halves(idx, u, directed);
        f(there, back);
    }
}

/// Panics unless both endpoints of `u`, the `idx`-th update of its batch,
/// are vertices of a graph with `n` of them. One wording for every door a
/// batch comes through: the appliers and `ServeEngine::submit`.
#[inline]
pub(crate) fn check_endpoints(idx: usize, u: &Update, n: usize) {
    for vertex in [u.edge.u, u.edge.v] {
        assert!(
            (vertex as usize) < n,
            "update {idx} names vertex {vertex}, but the graph has {n} vertices"
        );
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

/// `Vpart`: [`apply_vpart_indexed`] with nothing to route into.
pub fn apply_vpart<A: DynamicAdjacency>(g: &DynGraph<A>, updates: &[Update], workers: usize) {
    apply_vpart_indexed(g, updates, workers, IndexRoutes::default());
}

/// Batched processing (semi-sort the stream by source vertex, apply each
/// vertex's group as a unit): [`apply_vpart`] on the installed pool.
pub fn apply_batched<A: DynamicAdjacency>(g: &DynGraph<A>, updates: &[Update]) {
    apply_vpart(g, updates, 0);
}

/// Half-updates one vertex range holds, about: what a worker gathers,
/// sorts and applies at a time. Large enough that a hub's whole group
/// fits one range; small enough that the two scratch buffers (16 B per
/// half-update each) stay at a few MB per worker and a million-update
/// batch still splits into more ranges than workers. The serving writer
/// sizes its cycles by it too: under a backlog it takes queued batches
/// until the cycle's stream fills one range.
pub(crate) const RANGE_BUDGET: usize = 1 << 17;

/// Log2 of the buckets in the coarse source-vertex histogram the ranges
/// are cut along.
const HISTOGRAM_BITS: u32 = 12;

/// The one batch applier (see the [module docs](self)): vertex-ranged,
/// sort-then-grouped, with per-update change tracking and routing into
/// the index family. `workers` follows the [`resolve_workers`]
/// convention; a batch that fits one range runs on the calling thread,
/// no spawn.
///
/// An update's "did it change the graph" verdict is the OR of its
/// halves' outcomes (matching [`DynGraph::insert_edge`] /
/// [`DynGraph::delete_edge`]). After the parallel phase's barrier,
/// confirmed changes are noted into every index in [`IndexRoutes`]
/// **in stream order** against the settled graph ([`IndexRoutes::route`];
/// the engines' cycle absorbs and settles them instead,
/// [`IndexRoutes::absorb`]) — so no-op updates (deduplicated
/// re-inserts, deletes of absent edges) never touch an index, and
/// view-consuming notes (distance wavefronts, triangle delete checks)
/// observe exactly the state their deltas describe. An update deleted
/// later in the same stream may relax a distance certificate through an
/// edge the final view no longer has; the later-routed delete note sees
/// that certificate and dirty-marks it, so stream-order routing keeps
/// the indexes exact once settled. Returns how many updates changed the
/// graph.
///
/// # Panics
///
/// Before the first half-update is applied, if the stream holds more
/// than 2^31 updates or one names a vertex outside the graph (the
/// message says which).
pub fn apply_vpart_indexed<A: DynamicAdjacency>(
    g: &DynGraph<A>,
    updates: &[Update],
    workers: usize,
    routes: IndexRoutes<'_>,
) -> usize {
    let changed = apply_ranged(g, updates, workers, RANGE_BUDGET);
    if !routes.is_empty() {
        for i in changed.iter() {
            routes.route(g, &updates[i as usize]);
        }
    }
    changed.count()
}

/// The applier of [`apply_vpart_indexed`], routing nothing and with the
/// range budget as a parameter (so tests can make small inputs span many
/// ranges). Returns the positions of the updates that changed the graph.
pub(crate) fn apply_ranged<A: DynamicAdjacency>(
    g: &DynGraph<A>,
    updates: &[Update],
    workers: usize,
    budget: usize,
) -> RowSet {
    let ranges = cut_ranges(g, updates, budget);
    let next = AtomicUsize::new(0);
    let work = || {
        let mut worker = RangeWorker::new(updates.len());
        // ordering: Relaxed — a claim counter: the RMW alone hands each
        // range to exactly one worker (invariant 8), and what a worker
        // writes is published by the scope barrier, not through it.
        while let Some(range) = ranges.get(next.fetch_add(1, Ordering::Relaxed)) {
            worker.walk(g, updates, range);
        }
        worker.changed
    };
    let changed = match resolve_workers(workers).min(ranges.len()) {
        0 | 1 => work(),
        workers => {
            let others = Mutex::new(Vec::new());
            let mine = rayon::scope(|s| {
                for _ in 1..workers {
                    s.spawn(|_| {
                        let bits = work();
                        others.lock().push(bits);
                    });
                }
                work()
            });
            others.into_inner().into_iter().fold(mine, |mut all, bits| {
                all.union_with(&bits);
                all
            })
        }
    };
    changed
}

/// Checks the stream ([`checked_halves`]) and cuts the vertex space into
/// consecutive ranges holding about `budget` half-updates each, along a
/// coarse histogram of their sources. Vertices past the last update's
/// bucket are in no range.
fn cut_ranges<A: DynamicAdjacency>(
    g: &DynGraph<A>,
    updates: &[Update],
    budget: usize,
) -> Vec<Range<usize>> {
    let n = g.num_vertices();
    let shift = source_bits(n).saturating_sub(HISTOGRAM_BITS);
    let mut histogram = vec![0usize; (n >> shift) + 1];
    checked_halves(updates, n, g.is_directed(), |there, back| {
        for h in [Some(there), back].into_iter().flatten() {
            histogram[h.src as usize >> shift] += 1;
        }
    });
    let mut ranges = Vec::new();
    let (mut start, mut load) = (0, 0);
    for (bucket, count) in histogram.into_iter().enumerate() {
        load += count;
        if load >= budget {
            let end = ((bucket + 1) << shift).min(n);
            ranges.push(start..end);
            (start, load) = (end, 0);
        }
    }
    if load > 0 {
        ranges.push(start..n);
    }
    ranges
}

/// One worker of [`apply_ranged`]: the buffers it reuses from range to
/// range, and the updates it saw change the graph.
struct RangeWorker {
    /// The range's half-updates in stream order, then sorted by source.
    kept: Vec<HalfUpdate>,
    sorted: Vec<HalfUpdate>,
    /// Per vertex of the range: where its group starts in `sorted`
    /// (after the scatter: where it ends).
    cursors: Vec<usize>,
    /// One bit per update of the stream. Worker-local, so no atomics; an
    /// update's verdict is the OR over workers, taken after the barrier.
    changed: RowSet,
}

impl RangeWorker {
    fn new(updates: usize) -> Self {
        Self {
            kept: Vec::new(),
            sorted: Vec::new(),
            cursors: Vec::new(),
            changed: RowSet::new(updates),
        }
    }

    /// Applies every half-update whose source lies in `range`: gather
    /// from one scan of the stream, counting-sort by source (stable, so
    /// a vertex's group keeps stream order), one
    /// [`DynamicAdjacency::apply_group`] per vertex.
    fn walk<A: DynamicAdjacency>(
        &mut self,
        g: &DynGraph<A>,
        updates: &[Update],
        range: &Range<usize>,
    ) {
        let Self {
            kept,
            sorted,
            cursors,
            changed,
        } = self;
        kept.clear();
        cursors.clear();
        cursors.resize(range.len(), 0);
        let inside = |vertex: u32| range.contains(&(vertex as usize));
        for (idx, u) in updates.iter().enumerate() {
            // Most of the stream lies outside the range: one test per
            // update rejects it before its halves are formed.
            if !(inside(u.edge.u) | inside(u.edge.v)) {
                continue;
            }
            let (there, back) = halves(idx, u, g.is_directed());
            for h in [Some(there), back].into_iter().flatten() {
                if inside(h.src) {
                    cursors[h.src as usize - range.start] += 1;
                    kept.push(h);
                }
            }
        }
        let mut start = 0;
        for cursor in cursors.iter_mut() {
            start += std::mem::replace(cursor, start);
        }
        sorted.clear();
        sorted.extend_from_slice(kept);
        for h in kept.iter() {
            let cursor = &mut cursors[h.src as usize - range.start];
            sorted[*cursor] = *h;
            *cursor += 1;
        }
        let mut start = 0;
        for (vertex, &end) in range.clone().zip(cursors.iter()) {
            if end > start {
                g.adjacency()
                    .apply_group(vertex as u32, &mut sorted[start..end], &mut |idx| {
                        changed.insert(idx as u32);
                    });
                start = end;
            }
        }
    }
}

/// `Epart` configuration: a vertex is "hot" if the current batch contains
/// at least this many half-updates for it.
pub const EPART_HOT_THRESHOLD: usize = 256;

/// `Epart`: cold half-updates apply directly; hot-vertex half-updates are
/// buffered per worker chunk and merged per hot vertex in a second phase.
/// `workers` follows the [`resolve_workers`] convention (0 = adopt the
/// installed pool).
///
/// # Panics
///
/// Like [`apply_vpart_indexed`], before anything is applied.
pub fn apply_epart<A: DynamicAdjacency>(g: &DynGraph<A>, updates: &[Update], workers: usize) {
    let n = g.num_vertices();
    let halves = expand_half_updates(updates, n, g.is_directed());
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
                    h.apply_to(adj);
                }
            }
            buf
        })
        .collect();
    // Phase 2: merge — flatten, group by vertex (stable, so each group
    // keeps stream order), one `apply_group` per hot vertex, in parallel.
    let mut hot_halves: Vec<HalfUpdate> = buffers.into_iter().flatten().collect();
    semi_sort_by_key(&mut hot_halves, source_bits(n), |h| h.src);
    let groups: Vec<&mut [HalfUpdate]> = hot_halves.chunk_by_mut(|a, b| a.src == b.src).collect();
    groups
        .into_par_iter()
        .for_each(|group| adj.apply_group(group[0].src, group, &mut |_| {}));
}

/// Bits of a source-vertex key on `n` vertices (at least one).
fn source_bits(n: usize) -> u32 {
    (usize::BITS - n.saturating_sub(1).leading_zeros()).max(1)
}

/// Measures only the semi-sort of the expanded stream — the lower bound on
/// batched processing time (Figure 3's "upper bound on batched MUPS").
///
/// # Panics
///
/// If an update names a vertex that is not below `n`.
pub fn semi_sort_bound(updates: &[Update], n: usize, directed: bool) -> Duration {
    let mut halves = expand_half_updates(updates, n, directed);
    let (_, d) = snap_util::timer::time(|| {
        semi_sort_by_key(&mut halves, source_bits(n), |h| h.src);
        std::hint::black_box(&halves);
    });
    d
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::adjacency::CapacityHints;
    use crate::connectivity::ConnectivityIndex;
    use crate::distindex::DistanceIndex;
    use crate::dynarr::DynArr;
    use crate::hybrid::HybridAdj;
    use crate::treapadj::TreapAdj;
    use crate::triindex::TriangleIndex;
    use snap_rmat::{Rmat, RmatParams, StreamBuilder, TimedEdge};
    use std::collections::HashSet;

    pub(crate) fn workload() -> (usize, Vec<Update>) {
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

    /// A stream that does not commute: few vertices, so one edge is
    /// inserted, deleted and re-inserted, inserted twice, and looped on
    /// itself within one batch.
    pub(crate) fn non_commuting_stream(n: u32, len: usize, seed: u64) -> Vec<Update> {
        let mut rng = snap_util::rng::XorShift64::new(seed);
        (0..len)
            .map(|i| {
                let u = rng.next_bounded(n as u64) as u32;
                // One endpoint in eight repeats the other: self-loops.
                let v = match rng.next_bounded(8) {
                    0 => u,
                    _ => rng.next_bounded(n as u64) as u32,
                };
                let e = TimedEdge::new(u, v, i as u32 + 1);
                if rng.next_bool(0.6) {
                    Update::insert(e)
                } else {
                    Update::delete(e)
                }
            })
            .collect()
    }

    /// The applier at 1 / 2 / 8 workers, at the real range budget and at
    /// tiny ones (many ranges, claimed in any order), against a
    /// sequential `DynGraph::apply` loop: same per-vertex entry
    /// sequences (and whatever else `state` reads off a vertex), same
    /// count of updates that changed the graph.
    fn check_applier_equals_sequential_loop<A: DynamicAdjacency, S: PartialEq + std::fmt::Debug>(
        directed: bool,
        thresh: u32,
        state: impl Fn(&A, u32) -> S,
    ) {
        let n = 48u32;
        let hints = CapacityHints::new(64).with_degree_thresh(thresh);
        let graph = || DynGraph::<A>::from_adjacency(A::new(n as usize, &hints), directed);
        for seed in 0..4 {
            // Two batches, so the second meets treaps, tombstones and
            // duplicates the first left behind.
            let stream = non_commuting_stream(n, 3000, seed);
            let batches = [&stream[..2000], &stream[2000..]];
            let want = graph();
            let want_changed = batches.map(|b| b.iter().filter(|u| want.apply(u)).count());
            for workers in [1, 2, 8] {
                for budget in [RANGE_BUDGET, 64, 1] {
                    let got = graph();
                    let changed = batches.map(|b| apply_ranged(&got, b, workers, budget).count());
                    assert_eq!(changed, want_changed, "{workers} workers, budget {budget}");
                    for u in 0..n {
                        let (got, want) = (got.adjacency(), want.adjacency());
                        assert_eq!(
                            (got.neighbors(u), state(got, u)),
                            (want.neighbors(u), state(want, u)),
                            "vertex {u}: {workers} workers, budget {budget}, seed {seed}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn applier_equals_sequential_loop_dynarr() {
        check_applier_equals_sequential_loop(false, 32, |_: &DynArr, _| ());
        check_applier_equals_sequential_loop(true, 32, |_: &DynArr, _| ());
    }

    #[test]
    fn applier_equals_sequential_loop_treap() {
        check_applier_equals_sequential_loop(false, 32, |_: &TreapAdj, _| ());
        check_applier_equals_sequential_loop(true, 32, |_: &TreapAdj, _| ());
    }

    #[test]
    fn applier_equals_sequential_loop_hybrid() {
        // Thresholds low enough that vertices promote, demote and
        // promote again inside one batch; which form each ends in is
        // part of the state.
        for thresh in [1, 2, 4, 32] {
            check_applier_equals_sequential_loop(false, thresh, HybridAdj::is_treap);
            check_applier_equals_sequential_loop(true, thresh, HybridAdj::is_treap);
        }
    }

    #[test]
    fn applier_cuts_ranges_by_budget_and_covers_every_update() {
        let (n, s) = workload();
        let g: DynGraph<DynArr> = DynGraph::undirected(n, &CapacityHints::new(s.len() * 2));
        let halves = count_expected_halves(&s);
        assert_eq!(cut_ranges(&g, &s, halves).len(), 1, "a batch within budget");
        let ranges = cut_ranges(&g, &s, halves / 8);
        assert!((4..=8).contains(&ranges.len()), "{} ranges", ranges.len());
        assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
        assert_eq!((ranges[0].start, ranges[ranges.len() - 1].end), (0, n));
        assert!(cut_ranges(&g, &[], 1).is_empty());
    }

    #[test]
    #[should_panic(expected = "update 2 names vertex 8, but the graph has 8 vertices")]
    fn applier_rejects_an_out_of_range_endpoint() {
        let g: DynGraph<DynArr> = DynGraph::undirected(8, &CapacityHints::new(16));
        let batch = [(0, 1), (1, 2), (3, 8)].map(|(u, v)| Update::insert(TimedEdge::new(u, v, 1)));
        apply_vpart(&g, &batch, 2);
    }

    #[test]
    fn applier_panics_before_the_first_half_update_is_applied() {
        // The bad update comes last, as source and as neighbor, directed
        // and not: whatever the appliers did before it must be nothing.
        for (directed, bad) in [
            (false, (0, 9)),
            (false, (9, 0)),
            (true, (0, 9)),
            (true, (9, 0)),
        ] {
            let g = DynGraph::<HybridAdj>::from_adjacency(
                HybridAdj::new(8, &CapacityHints::new(16)),
                directed,
            );
            let mut batch: Vec<Update> = (0..7u32)
                .map(|i| Update::insert(TimedEdge::new(i, i + 1, 1)))
                .collect();
            batch.push(Update::insert(TimedEdge::new(bad.0, bad.1, 1)));
            let appliers: [&(dyn Fn() + Sync); 4] = [
                &|| apply_vpart(&g, &batch, 2),
                &|| apply_batched(&g, &batch),
                &|| apply_epart(&g, &batch, 2),
                &|| {
                    apply_ranged(&g, &batch, 2, 1);
                },
            ];
            for applier in appliers {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(applier));
                assert!(outcome.is_err(), "vertex 9 of 8 must be refused");
                assert_eq!(g.total_entries(), 0, "graph untouched after the panic");
            }
        }
    }

    #[test]
    fn vpart_indexed_counts_changes() {
        let none = IndexRoutes::default();
        let (n, s) = workload();
        let g1: DynGraph<DynArr> = DynGraph::undirected(n, &CapacityHints::new(s.len() * 2));
        assert_eq!(apply_vpart_indexed(&g1, &s, 4, none), s.len());
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
}
