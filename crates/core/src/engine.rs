//! Parallel update-application strategies (Sections 2.1.1–2.1.3).
//!
//! The representation decides *where* an update lands; the engine decides
//! *how* a batch of updates is driven across threads. There is one batch
//! applier, [`apply_vpart_indexed`], and it is the paper's `Vpart` and
//! its batched scheme at once:
//!
//! 1. one parallel pass over the stream, a chunk per worker, counts its
//!    half-updates in a coarse histogram over source vertices, and the
//!    summed histogram cuts the vertex space into ranges of about a fixed
//!    number of half-updates each (one for a serving cycle, a dozen or so
//!    for a million-update batch);
//! 2. a second parallel pass writes every half-update once into a buffer
//!    laid out range-major, then chunk-minor (16 B per half-update, freed
//!    when the call returns), so each range's slice keeps stream order —
//!    the stream is read twice, whatever the number of ranges; workers
//!    then claim ranges from a shared counter and counting-sort their
//!    range's slice by source, stably, in buffers they reuse;
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
use crate::connectivity::ConnectivityIndex;
use crate::csr::RowSet;
use crate::graph::DynGraph;
pub use crate::manager::SnapshotManager;
use rayon::prelude::*;
use snap_rmat::{Update, UpdateKind};
use snap_util::sort::semi_sort_by_key;
use snap_util::timer::Timer;
use std::mem::MaybeUninit;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
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
pub(crate) fn halves(idx: usize, u: &Update, directed: bool) -> (HalfUpdate, Option<HalfUpdate>) {
    let (e, is_delete) = (u.edge, u.kind == UpdateKind::Delete);
    let half = |src, nbr| HalfUpdate::new(src, nbr, e.timestamp, idx, is_delete);
    let back = (!directed && e.u != e.v).then(|| half(e.v, e.u));
    (half(e.u, e.v), back)
}

/// The [`halves`] of every update, in stream order, after checking the
/// contract the batch appliers hold a stream to before they touch the
/// graph: it fits the half-update tag and names only vertices below `n`.
///
/// # Panics
///
/// Otherwise, naming the offending update.
fn expand_half_updates(updates: &[Update], n: usize, directed: bool) -> Vec<HalfUpdate> {
    check_len(updates);
    let mut out = Vec::with_capacity(updates.len() * if directed { 1 } else { 2 });
    for (idx, u) in updates.iter().enumerate() {
        check_endpoints(idx, u, n);
        let (there, back) = halves(idx, u, directed);
        out.push(there);
        out.extend(back);
    }
    out
}

/// Panics unless the stream fits the half-update tag.
fn check_len(updates: &[Update]) {
    assert!(
        updates.len() <= HalfUpdate::MAX_INDEX,
        "a batch holds at most 2^31 updates, not {}",
        updates.len()
    );
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

/// `Vpart`: [`apply_vpart_indexed`] with no index to absorb into.
pub fn apply_vpart<A: DynamicAdjacency>(g: &DynGraph<A>, updates: &[Update], workers: usize) {
    apply_vpart_indexed(g, updates, workers, IndexRoutes::default());
}

/// Batched processing (semi-sort the stream by source vertex, apply each
/// vertex's group as a unit): [`apply_vpart`] on the installed pool.
pub fn apply_batched<A: DynamicAdjacency>(g: &DynGraph<A>, updates: &[Update]) {
    apply_vpart(g, updates, 0);
}

/// Half-updates one vertex range holds, about: what a worker sorts and
/// applies at a time. Large enough that a hub's whole group fits one
/// range; small enough that a million-update batch still splits into
/// more ranges than workers and a range's sort runs in cache. The
/// serving writer sizes its cycles by it too: under a backlog it takes
/// queued batches until the cycle's stream fills one range.
pub(crate) const RANGE_BUDGET: usize = 1 << 17;

/// Log2 of the buckets in the coarse source-vertex histogram the ranges
/// are cut along.
const HISTOGRAM_BITS: u32 = 12;

/// The connectivity index attached to a graph, borrowed for one applier
/// call: `None` absorbs nothing.
pub type IndexRoutes<'a> = Option<&'a ConnectivityIndex>;

/// The one batch applier (see the [module docs](self)): vertex-ranged,
/// sort-then-grouped, with per-update change tracking, and the one way
/// changes reach the connectivity index. `workers` follows the
/// [`resolve_workers`] convention; a batch that fits one range runs on
/// the calling thread, no spawn, and a one-update batch goes through
/// [`DynGraph::apply`], O(degree) where the range cut is O(n).
///
/// An update's "did it change the graph" verdict is the OR of its
/// halves' outcomes (matching [`DynGraph::insert_edge`] /
/// [`DynGraph::delete_edge`]). After the parallel phase's barrier, the
/// confirmed changes are absorbed into the connectivity index, if one
/// is given, **in stream order** against the settled graph, and settled,
/// in one write-lock hold ([`ConnectivityIndex::absorb`]) — so
/// no-op updates (deduplicated re-inserts, deletes of absent edges)
/// never touch the index, and it is settled when the call returns.
/// Returns how many updates changed the graph.
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
    index: IndexRoutes<'_>,
) -> usize {
    let changed = match updates {
        [upd] => {
            check_endpoints(0, upd, g.num_vertices());
            let mut changed = RowSet::new(1);
            if g.apply(upd) {
                changed.insert(0);
            }
            changed
        }
        _ => apply_ranged(g, updates, workers, RANGE_BUDGET),
    };
    if let Some(c) = index {
        let _t = Timer::scope(&apply_metrics().absorb_ns);
        c.absorb(g, changed.iter().map(|i| &updates[i as usize]));
    }
    changed.count()
}

/// The ranged applier of [`apply_vpart_indexed`], absorbing nothing and
/// with the range budget as a parameter (so tests can make small inputs
/// span many ranges). Returns the positions of the updates that changed
/// the graph.
fn apply_ranged<A: DynamicAdjacency>(
    g: &DynGraph<A>,
    updates: &[Update],
    workers: usize,
    budget: usize,
) -> RowSet {
    let metrics = apply_metrics();
    let part = {
        let _t = Timer::scope(&metrics.partition_ns);
        Partition::new(g, updates, workers, budget)
    };
    let next = AtomicUsize::new(0);
    let walkers = resolve_workers(workers).min(part.ranges.len()).max(1);
    let changed = fork_each((0..walkers).collect(), |_| {
        let mut worker = RangeWorker::new(updates.len());
        loop {
            // ordering: Relaxed — a claim counter: the RMW alone hands
            // each range to exactly one worker (invariant 8), and what a
            // worker writes is published by the scope barrier, not
            // through it.
            let r = next.fetch_add(1, Ordering::Relaxed);
            let Some(range) = part.ranges.get(r) else {
                break worker.changed;
            };
            worker.walk(g, range, part.slice(r), metrics);
        }
    });
    changed
        .into_iter()
        .reduce(|mut all, bits| {
            all.union_with(&bits);
            all
        })
        .unwrap_or_else(|| RowSet::new(updates.len()))
}

/// The stream of one [`apply_ranged`] call, semi-sorted by source
/// vertex: the vertex space cut into consecutive ranges of about
/// `budget` half-updates each, and every half-update of the stream
/// written once into its range's slice, in stream order.
struct Partition {
    /// Consecutive vertex ranges from 0 to n; none for an empty stream.
    ranges: Vec<Range<usize>>,
    /// Range `r`'s half-updates are `halves[starts[r]..starts[r + 1]]`.
    starts: Vec<usize>,
    halves: Vec<HalfUpdate>,
}

impl Partition {
    /// Reads the stream twice, one chunk per worker each time (one chunk
    /// when the stream fits one range: a serving cycle partitions
    /// inline). The first pass checks the stream ([`check_endpoints`])
    /// and counts each chunk's half-updates per bucket of a coarse
    /// source histogram; the ranges are cut along the summed counts. The
    /// second pass writes every half-update into a buffer laid out
    /// range-major, then chunk-minor, each chunk into slices of its own,
    /// so a range's slice keeps stream order.
    ///
    /// # Panics
    ///
    /// Before anything is written, if the stream holds more than 2^31
    /// updates or one names a vertex outside the graph (the first such
    /// update, whatever the chunking).
    fn new<A: DynamicAdjacency>(
        g: &DynGraph<A>,
        updates: &[Update],
        workers: usize,
        budget: usize,
    ) -> Self {
        check_len(updates);
        let (n, directed) = (g.num_vertices(), g.is_directed());
        let shift = source_bits(n).saturating_sub(HISTOGRAM_BITS);
        let buckets = (n >> shift) + 1;
        let len = chunk_len(updates.len(), directed, workers, budget);
        let chunks: Vec<(usize, &[Update])> = updates
            .chunks(len)
            .enumerate()
            .map(|(c, chunk)| (c * len, chunk))
            .collect();

        let histograms = fork_each(chunks.clone(), |(first, chunk)| {
            let mut histogram = vec![0usize; buckets];
            for (i, u) in chunk.iter().enumerate() {
                let (a, b) = (u.edge.u as usize, u.edge.v as usize);
                if a.max(b) >= n {
                    return Err(first + i);
                }
                histogram[a >> shift] += 1;
                if !directed && a != b {
                    histogram[b >> shift] += 1;
                }
            }
            Ok(histogram)
        });
        // Chunks in stream order: the first refusal names the first
        // offending update.
        let histograms: Vec<Vec<usize>> = histograms
            .into_iter()
            .map(|h| {
                h.unwrap_or_else(|idx| {
                    check_endpoints(idx, &updates[idx], n);
                    unreachable!("update {idx} passed its endpoint check twice")
                })
            })
            .collect();

        let bounds = cut(&histograms, buckets, budget);
        let ranges: Vec<Range<usize>> = bounds
            .windows(2)
            .map(|w| (w[0] << shift).min(n)..(w[1] << shift).min(n))
            .collect();
        let mut range_of = vec![0; buckets];
        for (r, w) in bounds.windows(2).enumerate() {
            range_of[w[0]..w[1]].fill(r);
        }

        // Carve the buffer into (range, chunk) slices, range-major.
        let sizes: Vec<Vec<usize>> = histograms
            .iter()
            .map(|h| {
                bounds
                    .windows(2)
                    .map(|w| h[w[0]..w[1]].iter().sum())
                    .collect()
            })
            .collect();
        let total = sizes.iter().flatten().sum();
        let mut buffer: Vec<HalfUpdate> = Vec::with_capacity(total);
        let mut starts = Vec::with_capacity(ranges.len() + 1);
        let mut slices: Vec<Vec<&mut [MaybeUninit<HalfUpdate>]>> =
            chunks.iter().map(|_| Vec::new()).collect();
        let (mut rest, mut start) = (&mut buffer.spare_capacity_mut()[..total], 0);
        for r in 0..ranges.len() {
            starts.push(start);
            for (mine, size) in slices.iter_mut().zip(&sizes) {
                let (slice, tail) = std::mem::take(&mut rest).split_at_mut(size[r]);
                mine.push(slice);
                (rest, start) = (tail, start + size[r]);
            }
        }
        starts.push(start);

        fork_each(
            chunks.into_iter().zip(slices).collect(),
            |((first, chunk), mut slices)| {
                let mut cursors = vec![0; slices.len()];
                for (i, u) in chunk.iter().enumerate() {
                    let (there, back) = halves(first + i, u, directed);
                    for h in [Some(there), back].into_iter().flatten() {
                        let r = range_of[h.src as usize >> shift];
                        slices[r][cursors[r]].write(h);
                        cursors[r] += 1;
                    }
                }
                // The chunk's counts came from the same halves, so this
                // holds; it is what makes `set_len` below sound.
                assert!(
                    slices.iter().zip(&cursors).all(|(s, &c)| s.len() == c),
                    "a chunk's scatter left a slot of its slices unwritten"
                );
            },
        );
        // SAFETY: the slices partition slots 0..total, and every chunk
        // wrote each slot of its own slices (the assert above, joined
        // before this line; a panicking chunk never gets here).
        unsafe { buffer.set_len(total) };
        Self {
            ranges,
            starts,
            halves: buffer,
        }
    }

    /// Range `r`'s half-updates, in stream order.
    fn slice(&self, r: usize) -> &[HalfUpdate] {
        &self.halves[self.starts[r]..self.starts[r + 1]]
    }
}

/// Bucket bounds of the ranges along the chunks' summed `histograms`:
/// each range closes once it holds `budget` half-updates, and the last
/// one runs to the end. Just `[0]` for an empty stream.
fn cut(histograms: &[Vec<usize>], buckets: usize, budget: usize) -> Vec<usize> {
    let mut bounds = vec![0];
    let mut load = 0;
    for bucket in 0..buckets {
        load += histograms.iter().map(|h| h[bucket]).sum::<usize>();
        if load >= budget {
            bounds.push(bucket + 1);
            load = 0;
        }
    }
    if load > 0 {
        bounds.push(buckets);
    } else if bounds.len() > 1 {
        let last = bounds.len() - 1;
        bounds[last] = buckets;
    }
    bounds
}

/// Updates per chunk of a stream [`Partition::new`] reads: one chunk per
/// worker, and a single chunk when the stream fits one range.
fn chunk_len(updates: usize, directed: bool, workers: usize, budget: usize) -> usize {
    let most = updates << usize::from(!directed);
    let chunks = resolve_workers(workers).min(most.div_ceil(budget.max(1)));
    updates.div_ceil(chunks.max(1)).max(1)
}

/// Runs `f` on every item at once, a thread each (the calling thread
/// takes the first, so one item spawns nothing), and returns the results
/// in item order.
fn fork_each<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let mut results: Vec<Option<R>> = items.iter().map(|_| None).collect();
    rayon::scope(|s| {
        let f = &f;
        let mut jobs = items.into_iter().zip(results.iter_mut());
        let mine = jobs.next();
        for (item, slot) in jobs {
            s.spawn(move |_| *slot = Some(f(item)));
        }
        if let Some((item, slot)) = mine {
            *slot = Some(f(item));
        }
    });
    // panics: unreachable — the scope joined every job, and each job
    // filled its slot.
    results
        .into_iter()
        .map(|r| r.expect("a joined job"))
        .collect()
}

/// A range whose vertices outnumber its half-updates this many times
/// over is sorted by comparison, not counting: the counting sort clears
/// and scans one cursor per vertex of the range, so a small serving
/// cycle (256 updates over 65,536 vertices) would pay O(range) for
/// O(halves) of work. A bulk range holds more half-updates than
/// vertices and keeps the counting sort.
const COMPARISON_SORT_SPREAD: usize = 16;

/// One worker of [`apply_ranged`]: the buffers it reuses from range to
/// range, and the updates it saw change the graph.
struct RangeWorker {
    /// The range's half-updates sorted by source, in a prefix: the
    /// buffer only grows, so the sort writes each slot once.
    sorted: Vec<HalfUpdate>,
    /// Per vertex of the range, for the counting sort: where its group
    /// starts in `sorted`.
    cursors: Vec<usize>,
    /// One bit per update of the stream. Worker-local, so no atomics; an
    /// update's verdict is the OR over workers, taken after the barrier.
    changed: RowSet,
}

impl RangeWorker {
    fn new(updates: usize) -> Self {
        Self {
            sorted: Vec::new(),
            cursors: Vec::new(),
            changed: RowSet::new(updates),
        }
    }

    /// Applies `halves`, the half-updates whose source lies in `range`
    /// in stream order: sorts them by source, stably so a vertex's group
    /// keeps stream order, then one [`DynamicAdjacency::apply_group`] per
    /// run of one source.
    fn walk<A: DynamicAdjacency>(
        &mut self,
        g: &DynGraph<A>,
        range: &Range<usize>,
        halves: &[HalfUpdate],
        metrics: &ApplyMetrics,
    ) {
        {
            let _t = Timer::scope(&metrics.sort_ns);
            let by_comparison = range.len() > COMPARISON_SORT_SPREAD * halves.len();
            self.sort(range, halves, by_comparison);
        }
        let _t = Timer::scope(&metrics.groups_ns);
        self.apply_groups(g, halves.len());
    }

    /// Writes `halves` into `sorted[..halves.len()]`, stably sorted by
    /// source: by comparison, O(h log h), or by counting, O(h + range).
    fn sort(&mut self, range: &Range<usize>, halves: &[HalfUpdate], by_comparison: bool) {
        let Some(&first) = halves.first() else {
            return;
        };
        let sorted = &mut self.sorted;
        sorted.resize(sorted.len().max(halves.len()), first);
        let sorted = &mut sorted[..halves.len()];
        if by_comparison {
            sorted.copy_from_slice(halves);
            sorted.sort_by_key(|h| h.src);
            return;
        }
        let cursors = &mut self.cursors;
        cursors.clear();
        cursors.resize(range.len(), 0);
        for h in halves {
            cursors[h.src as usize - range.start] += 1;
        }
        let mut start = 0;
        for cursor in cursors.iter_mut() {
            start += std::mem::replace(cursor, start);
        }
        for h in halves {
            let cursor = &mut cursors[h.src as usize - range.start];
            sorted[*cursor] = *h;
            *cursor += 1;
        }
    }

    /// One [`DynamicAdjacency::apply_group`] per run of one source in
    /// `sorted[..len]`, noting the updates that changed the graph.
    fn apply_groups<A: DynamicAdjacency>(&mut self, g: &DynGraph<A>, len: usize) {
        let changed = &mut self.changed;
        for group in self.sorted[..len].chunk_by_mut(|a, b| a.src == b.src) {
            g.adjacency()
                .apply_group(group[0].src, group, &mut |idx| changed.insert(idx as u32));
        }
    }
}

/// Applier instrumentation, shared by every call in the process (ZST
/// no-ops without the `obs` feature): where an [`apply_vpart_indexed`]
/// call's time goes. Timed per call and per range, never per group: a
/// clock read costs as much as a small group.
struct ApplyMetrics {
    partition_ns: snap_obs::Histogram,
    sort_ns: snap_obs::Histogram,
    groups_ns: snap_obs::Histogram,
    /// The index half of a call, the absorb: recorded only when an
    /// index is attached.
    absorb_ns: snap_obs::Histogram,
}

fn apply_metrics() -> &'static ApplyMetrics {
    static M: OnceLock<ApplyMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = snap_obs::MetricsRegistry::global();
        ApplyMetrics {
            partition_ns: r.histogram(
                "snap_apply_partition_ns",
                "Per applier call: the stream's two reads, histogram and stable scatter by vertex range (ns)",
            ),
            sort_ns: r.histogram(
                "snap_apply_sort_ns",
                "Per applier range: counting sort of the range's half-updates by source (ns)",
            ),
            groups_ns: r.histogram(
                "snap_apply_groups_ns",
                "Per applier range: the per-vertex group applies (ns)",
            ),
            absorb_ns: r.histogram(
                "snap_cycle_absorb_ns",
                "Per absorb of a cycle run: noting its changes into the connectivity index and settling it (ns)",
            ),
        }
    })
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
    use crate::dynarr::DynArr;
    use crate::hybrid::HybridAdj;
    use crate::treapadj::TreapAdj;
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
    /// tiny ones (many ranges, claimed in any order), and through
    /// [`apply_vpart_indexed`] (budget 0 below), against a sequential
    /// `DynGraph::apply` loop: same per-vertex entry sequences (and
    /// whatever else `state` reads off a vertex), same count of updates
    /// that changed the graph per batch. Length-1 batches after the two
    /// long ones take [`apply_vpart_indexed`]'s one-update path, so
    /// that path is checked against the ranged one too.
    fn check_applier_equals_sequential_loop<A: DynamicAdjacency, S: PartialEq + std::fmt::Debug>(
        directed: bool,
        thresh: u32,
        state: impl Fn(&A, u32) -> S,
    ) {
        let n = 48u32;
        let hints = CapacityHints::new(64).with_degree_thresh(thresh);
        let graph = || DynGraph::<A>::from_adjacency(A::new(n as usize, &hints), directed);
        for seed in 0..4 {
            // Two long batches, so the second meets treaps, tombstones
            // and duplicates the first left behind, then 64 of length 1.
            let stream = non_commuting_stream(n, 3064, seed);
            let mut batches = vec![&stream[..2000], &stream[2000..3000]];
            batches.extend(stream[3000..].chunks(1));
            let want = graph();
            let want_changed: Vec<usize> = (batches.iter())
                .map(|b| b.iter().filter(|u| want.apply(u)).count())
                .collect();
            for workers in [1, 2, 8] {
                for budget in [RANGE_BUDGET, 64, 1, 0] {
                    let got = graph();
                    let changed: Vec<usize> = (batches.iter())
                        .map(|b| match budget {
                            0 => apply_vpart_indexed(&got, b, workers, IndexRoutes::default()),
                            _ => apply_ranged(&got, b, workers, budget).count(),
                        })
                        .collect();
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

    /// Partitions `s` on `workers` and checks the result: contiguous
    /// ranges from 0 to n, and each range's slice exactly the stream's
    /// half-updates with a source in it, in stream order. Returns the
    /// range count.
    fn check_partition<A: DynamicAdjacency>(
        g: &DynGraph<A>,
        s: &[Update],
        workers: usize,
        budget: usize,
    ) -> usize {
        let n = g.num_vertices();
        let part = Partition::new(g, s, workers, budget);
        let ranges = &part.ranges;
        if let (Some(first), Some(last)) = (ranges.first(), ranges.last()) {
            assert_eq!((first.start, last.end), (0, n));
        }
        assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
        let stream = expand_half_updates(s, n, g.is_directed());
        assert_eq!(part.halves.len(), stream.len());
        for (r, range) in ranges.iter().enumerate() {
            let want: Vec<HalfUpdate> = stream
                .iter()
                .filter(|h| range.contains(&(h.src as usize)))
                .copied()
                .collect();
            assert_eq!(
                part.slice(r),
                want,
                "range {r} of {workers} workers, budget {budget}"
            );
        }
        ranges.len()
    }

    #[test]
    fn applier_partitions_the_stream_by_range_in_stream_order() {
        let (n, s) = workload();
        let g: DynGraph<DynArr> = DynGraph::undirected(n, &CapacityHints::new(s.len() * 2));
        let halves = count_expected_halves(&s);
        // Vertex 0 in every update: each chunk boundary falls inside its
        // run of half-updates. Directed and not, on ranges of one bucket.
        let hub: Vec<Update> = non_commuting_stream(48, 3000, 3)
            .into_iter()
            .map(|mut u| {
                u.edge.u = 0;
                u
            })
            .collect();
        let star = |directed| {
            DynGraph::<DynArr>::from_adjacency(DynArr::new(48, &CapacityHints::new(64)), directed)
        };
        for workers in [1, 2, 8] {
            assert_eq!(
                check_partition(&g, &s, workers, halves),
                1,
                "a batch within budget"
            );
            let ranges = check_partition(&g, &s, workers, halves / 8);
            assert!((4..=8).contains(&ranges), "{ranges} ranges");
            assert_eq!(check_partition(&g, &[], workers, 1), 0);
            assert_eq!(
                chunk_len(hub.len(), false, workers, 1),
                hub.len().div_ceil(workers)
            );
            for directed in [false, true] {
                let ranges = check_partition(&star(directed), &hub, workers, 1);
                assert_eq!(ranges == 1, directed, "the hub is the one directed source");
            }
        }
    }

    #[test]
    fn applier_sorts_by_comparison_and_by_counting_alike() {
        // One range over a graph much wider than the stream: the spread
        // that picks the comparison sort. Both sorts must give the same
        // order, and the same change bits and graph once applied.
        let n = 1u32 << 14;
        let hints = CapacityHints::new(64).with_degree_thresh(4);
        let stream: Vec<Update> = non_commuting_stream(48, 200, 5)
            .into_iter()
            .map(|mut u| {
                // Spread the 48 endpoints over the wide id space.
                u.edge.u *= 83;
                u.edge.v *= 83;
                u
            })
            .collect();
        for directed in [false, true] {
            let graph = || {
                DynGraph::<HybridAdj>::from_adjacency(HybridAdj::new(n as usize, &hints), directed)
            };
            let (a, b) = (graph(), graph());
            let part = Partition::new(&a, &stream, 1, RANGE_BUDGET);
            assert_eq!(part.ranges.len(), 1);
            let (range, halves) = (&part.ranges[0], part.slice(0));
            assert!(range.len() > COMPARISON_SORT_SPREAD * halves.len());
            let (mut by_count, mut by_comparison) = (
                RangeWorker::new(stream.len()),
                RangeWorker::new(stream.len()),
            );
            by_count.sort(range, halves, false);
            by_comparison.sort(range, halves, true);
            let len = halves.len();
            assert_eq!(by_count.sorted[..len], by_comparison.sorted[..len]);
            by_count.apply_groups(&a, len);
            by_comparison.apply_groups(&b, len);
            let bits = |w: &RangeWorker| w.changed.iter().collect::<Vec<_>>();
            assert_eq!(bits(&by_count), bits(&by_comparison));
            assert!(!by_count.changed.is_empty());
            for u in 0..n {
                assert_eq!(
                    a.adjacency().neighbors(u),
                    b.adjacency().neighbors(u),
                    "vertex {u}"
                );
            }
        }
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
        let index = Some(&conn);
        let path: Vec<Update> = (0..31u32)
            .map(|i| Update::insert(TimedEdge::new(i, i + 1, 1)))
            .collect();
        assert_eq!(apply_vpart_indexed(&g, &path, 4, index), path.len());
        assert!(conn.same_component(&g, 0, 31));
        assert_eq!(conn.repair_count(), 0, "insertions never need repair");
        // A real bridge deletion: the call relabels one side.
        let del = vec![Update::delete(TimedEdge::new(15, 16, 0))];
        assert_eq!(apply_vpart_indexed(&g, &del, 4, index), 1);
        assert!(!conn.same_component(&g, 0, 31));
        assert_eq!(conn.repair_count(), 1);
        // A no-op delete batch must not reach the index at all.
        let noop = vec![Update::delete(TimedEdge::new(40, 41, 0))];
        assert_eq!(apply_vpart_indexed(&g, &noop, 4, index), 0);
        assert_eq!(conn.repair_count(), 1, "the no-op repaired nothing");
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
    fn vpart_indexed_returns_with_the_index_settled() {
        // A band of path edges and skip-one chords, half of them live at
        // a time: batches with splits, replacements and no-ops, then
        // one-update batches. After every call, at every worker count,
        // no debt is left.
        let mut rng = snap_util::rng::XorShift64::new(11);
        let stream: Vec<Update> = (0..1200)
            .map(|i| {
                let u = rng.next_bounded(62) as u32;
                let e = TimedEdge::new(u, u + 1 + rng.next_bounded(2) as u32, i + 1);
                match rng.next_bool(0.5) {
                    true => Update::insert(e),
                    false => Update::delete(e),
                }
            })
            .collect();
        let mut batches: Vec<&[Update]> = stream[..1000].chunks(100).collect();
        batches.extend(stream[1000..].chunks(1));
        for workers in [1, 2, 8] {
            let g: DynGraph<HybridAdj> = DynGraph::undirected(64, &CapacityHints::new(256));
            let conn = ConnectivityIndex::from_view(&g);
            for (b, batch) in batches.iter().enumerate() {
                apply_vpart_indexed(&g, batch, workers, Some(&conn));
                assert!(!conn.has_dirty(), "{workers} workers, batch {b}");
            }
            assert!(conn.repair_count() > 0);
            let fresh = ConnectivityIndex::from_view(&g);
            assert_eq!(conn.labels(&g), fresh.labels(&g));
        }
    }
}
