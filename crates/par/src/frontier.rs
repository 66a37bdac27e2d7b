//! The chunked frontier engine: the work-distribution core of every
//! kernel in this crate.
//!
//! Level-synchronous traversal has a classic load-balance hazard on
//! power-law graphs: one frontier vertex can carry O(n^0.6) edges, so
//! per-vertex work division leaves a single thread grinding through a
//! hub while its peers idle. The engine therefore splits the frontier
//! into **edge-budgeted chunks**: runs of low-degree vertices are packed
//! until their cumulative degree reaches the budget, and a hub whose
//! degree exceeds the budget is split into adjacency sub-ranges (CSR
//! views only — callback-driven live views cannot be range-addressed, so
//! a live hub becomes one chunk and the dynamic chunk queue absorbs the
//! imbalance).
//!
//! # Adaptive granularity
//!
//! Forking a level costs real money — the scoped workers here are OS
//! threads — so the runtime only pays when a level can cover the bill:
//!
//! - **Volume gating.** Each level's frontier edge volume is computed
//!   (or supplied by the kernel, which often already tracks it) and
//!   compared against a serial gate; a level at or below the gate runs
//!   inline on the caller with zero spawns and zero barriers. Above the
//!   gate, the fork width is *proportional to the volume* — one worker
//!   per gate's worth of edges — not a fixed thread count, so a level
//!   barely over the line forks two workers, not eight.
//! - **Per-worker deals with stealing.** A forked level deals the chunk
//!   queue out as contiguous per-worker *deals* (cache-line aligned, so
//!   claim traffic on one deal never invalidates a peer's line); a worker
//!   whose deal drains steals from its neighbors' deals round-robin.
//!   Low-chunk-count levels therefore neither serialize on one contended
//!   cursor nor strand work behind a slow worker.
//! - **Allocation-free steady state.** The chunk vector, the deal
//!   descriptors, and the per-worker next-frontier buffers persist inside
//!   the [`FrontierEngine`] across levels, so a traversal allocates each
//!   buffer once.
//! - **Level fusion.** Consecutive serial levels are processed *in
//!   place*: discoveries append past the live level's end of the same
//!   buffer and a head index advances over the consumed prefix — no
//!   buffer swap, no re-chunking, no merge. Compaction happens only on
//!   the transition to a forked level.
//!
//! Every decision is counted in [`ParStats`] so granularity behavior is
//! observable (`experiments parallel` prints the counters), and none of
//! it affects results: claims are the same compare-exchange protocol
//! either way, so serial, forked, and steal-heavy schedules are
//! bit-identical (see ARCHITECTURE.md, concurrency invariant 8).

use snap_core::engine::resolve_workers;
use snap_core::GraphView;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Per-run adaptive-scheduling counters: how the runtime actually spent
/// the traversal. Returned by the `*_stats` kernel entry points and
/// printed by `experiments parallel`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParStats {
    /// Levels (or sweeps) run inline on the caller — no spawns.
    pub serial_levels: u64,
    /// Levels (or sweeps) fanned out over scoped workers.
    pub forked_levels: u64,
    /// Chunks built for forked levels (serial levels build none).
    pub chunks_built: u64,
    /// Chunks a worker claimed from another worker's deal.
    pub steals: u64,
    /// Adjacency entries the kernel examined: every entry of a top-down
    /// frontier, every entry a bottom-up probe read before it found a
    /// frontier parent (or ran out), every entry a linking sweep hooked.
    pub edges_scanned: u64,
}

impl ParStats {
    /// Folds another run's counters into this one.
    pub fn absorb(&mut self, other: ParStats) {
        self.serial_levels += other.serial_levels;
        self.forked_levels += other.forked_levels;
        self.chunks_built += other.chunks_built;
        self.steals += other.steals;
        self.edges_scanned += other.edges_scanned;
    }

    /// Total levels/sweeps, serial and forked.
    pub fn levels(&self) -> u64 {
        self.serial_levels + self.forked_levels
    }
}

/// Fork width for a level carrying `volume` edges under serial gate
/// `gate`, capped at `cap` workers: 1 (run inline) when the volume is at
/// or below the gate, else proportional to the volume — one worker per
/// gate's worth of edges — clamped to `2..=cap`. A gate of 0 always
/// forks; a gate of `usize::MAX` never does.
pub(crate) fn fork_width(volume: usize, gate: usize, cap: usize) -> usize {
    if cap <= 1 || volume == 0 || volume <= gate {
        return 1;
    }
    (volume / gate.max(1)).clamp(2, cap)
}

/// A unit of frontier work (see module docs).
enum Chunk {
    /// `frontier[range]`, each vertex scanned whole-adjacency.
    Run(Range<usize>),
    /// Adjacency sub-range `lo..hi` of the hub at `frontier[pos]`.
    Hub { pos: usize, lo: usize, hi: usize },
}

/// Splits `frontier` into edge-budgeted chunks appended to `out`
/// (cleared first — callers keep the vector across levels so the steady
/// state reallocates nothing). Hubs (degree >= budget) are split into
/// sub-ranges when the view supports random access to adjacency (CSR),
/// else isolated as single-vertex chunks.
fn build_chunks_into<V: GraphView>(
    view: &V,
    frontier: &[u32],
    budget: usize,
    out: &mut Vec<Chunk>,
) {
    let budget = budget.max(1);
    let split_hubs = view.as_csr().is_some();
    out.clear();
    let mut run_start = 0usize;
    let mut run_edges = 0usize;
    for (pos, &u) in frontier.iter().enumerate() {
        let d = view.degree(u);
        if d >= budget {
            if pos > run_start {
                out.push(Chunk::Run(run_start..pos));
            }
            if split_hubs {
                let mut lo = 0usize;
                while lo < d {
                    let hi = (lo + budget).min(d);
                    out.push(Chunk::Hub { pos, lo, hi });
                    lo = hi;
                }
            } else {
                out.push(Chunk::Run(pos..pos + 1));
            }
            run_start = pos + 1;
            run_edges = 0;
            continue;
        }
        run_edges += d;
        if run_edges >= budget {
            out.push(Chunk::Run(run_start..pos + 1));
            run_start = pos + 1;
            run_edges = 0;
        }
    }
    if run_start < frontier.len() {
        out.push(Chunk::Run(run_start..frontier.len()));
    }
}

/// Expands one chunk, pushing every vertex `claim` wins onto `sink`.
fn process_chunk<V, F>(view: &V, frontier: &[u32], chunk: &Chunk, claim: &F, sink: &mut Vec<u32>)
where
    V: GraphView,
    F: Fn(u32, u32, u32) -> bool + Sync,
{
    let mut visit = |u, v, ts| {
        if claim(u, v, ts) {
            sink.push(v);
        }
    };
    match *chunk {
        Chunk::Run(ref r) => {
            for &u in &frontier[r.clone()] {
                view.for_each_edge(u, |v, ts| visit(u, v, ts));
            }
        }
        Chunk::Hub { pos, lo, hi } => {
            let u = frontier[pos];
            // panics: unreachable — the chunk builder only emits Hub
            // chunks when `view.as_csr()` returned Some.
            let csr = view.as_csr().expect("hub splitting requires a CSR view");
            for (&v, &ts) in csr.neighbors(u)[lo..hi]
                .iter()
                .zip(&csr.timestamps(u)[lo..hi])
            {
                visit(u, v, ts);
            }
        }
    }
}

/// One worker's contiguous share of a chunk (or range) queue. Cache-line
/// aligned so claim traffic on one deal never invalidates a neighbor's
/// line — the fix for low-chunk levels serializing on a single cursor.
#[repr(align(64))]
struct Deal {
    next: AtomicUsize,
    end: usize,
}

/// Re-deals `items` queue slots contiguously over `width` workers,
/// reusing `deals`' allocation.
fn fill_deals(deals: &mut Vec<Deal>, items: usize, width: usize) {
    deals.clear();
    for w in 0..width {
        deals.push(Deal {
            next: AtomicUsize::new(items * w / width),
            end: items * (w + 1) / width,
        });
    }
}

/// Worker `home`'s execution loop: drain the home deal, then steal from
/// the other deals round-robin. The load pre-check keeps a drained deal's
/// cursor from being bumped unboundedly by circling thieves; the
/// `fetch_add` claim makes each slot execute exactly once.
fn drain_deals(deals: &[Deal], home: usize, mut work: impl FnMut(usize), steals: &AtomicU64) {
    let mut stolen = 0u64;
    for k in 0..deals.len() {
        let d = &deals[(home + k) % deals.len()];
        loop {
            // ordering: Relaxed — pre-check hint only; the fetch_add
            // below is the authoritative claim.
            if d.next.load(Ordering::Relaxed) >= d.end {
                break;
            }
            // ordering: Relaxed — the RMW's atomicity alone hands slot
            // i to exactly one worker (invariant 7); chunk data is
            // immutable during the level and the scope join publishes
            // results (invariant 8: stealing never leaks into them).
            let i = d.next.fetch_add(1, Ordering::Relaxed);
            if i >= d.end {
                break;
            }
            if k > 0 {
                stolen += 1;
            }
            work(i);
        }
    }
    if stolen > 0 {
        // ordering: Relaxed — statistics counter (invariant 9).
        steals.fetch_add(stolen, Ordering::Relaxed);
    }
}

/// Vertex-range grain for whole-graph sweeps (bottom-up BFS, component
/// linking): enough chunks for dynamic balance (8 per worker) without
/// drowning in claim traffic. Always a multiple of 64, so the ranges of
/// [`GraphView::vertex_chunks`] start on [`AtomicBitset`](crate::bitset::AtomicBitset) word
/// boundaries and each word belongs to one range.
pub(crate) fn sweep_grain(n: usize, threads: usize) -> usize {
    (n / (threads * 8).max(1))
        .clamp(64, 1 << 16)
        .next_multiple_of(64)
}

/// Runs `f` over contiguous sub-ranges of `ranges` (a pre-chunked vertex
/// id space, typically from [`GraphView::vertex_chunks`]) on `width`
/// scoped workers with per-worker deals and stealing. `width <= 1` runs
/// inline; callers derive a volume-gated width with [`fork_width`].
/// Whole-graph sweeps (bottom-up scans, component linking and
/// compression) are built on this. The sweep is recorded in `stats`.
pub(crate) fn par_for_ranges_stats<F>(
    ranges: &[Range<u32>],
    width: usize,
    f: F,
    stats: &mut ParStats,
) where
    F: Fn(Range<u32>) + Sync,
{
    if ranges.is_empty() {
        return;
    }
    let width = width.min(ranges.len());
    if width <= 1 {
        for r in ranges {
            f(r.clone());
        }
        stats.serial_levels += 1;
        return;
    }
    let mut deals = Vec::new();
    fill_deals(&mut deals, ranges.len(), width);
    let steals = AtomicU64::new(0);
    {
        let (deals, f, steals) = (&deals, &f, &steals);
        rayon::scope(|s| {
            for w in 0..width {
                s.spawn(move |_| drain_deals(deals, w, |i| f(ranges[i].clone()), steals));
            }
        });
    }
    stats.forked_levels += 1;
    stats.chunks_built += ranges.len() as u64;
    // ordering: Relaxed — statistics read after the scope join.
    stats.steals += steals.load(Ordering::Relaxed);
}

/// Double-buffered frontier state for level-synchronous traversal.
///
/// The current frontier, the per-worker next-frontier buffers, the chunk
/// vector, the deal descriptors and the decision counters persist across
/// levels, so a full BFS allocates each buffer once and then only moves
/// vertex ids. [`FrontierEngine::advance_hinted`] is one top-down level —
/// inline and *fused in place* at or below the volume gate, forked above
/// it; a kernel that discovered a frontier by other means (a bottom-up
/// sweep) hands it over with [`FrontierEngine::seed`].
pub(crate) struct FrontierEngine {
    chunk_edges: usize,
    /// The per-level serial gate in frontier edge volume (see
    /// [`fork_width`]).
    gate: usize,
    current: Vec<u32>,
    /// Start of the live frontier inside `current`: fused serial levels
    /// append discoveries past the level's end and advance this index
    /// instead of swapping buffers.
    head: usize,
    /// One next-frontier buffer per worker; their count caps a level's
    /// fork width.
    next: Vec<Vec<u32>>,
    chunks: Vec<Chunk>,
    deals: Vec<Deal>,
    stats: ParStats,
}

impl FrontierEngine {
    /// An empty engine with `threads` worker buffers (0 adopts the
    /// installed pool via [`resolve_workers`], matching
    /// `ParConfig::threads`), the given per-chunk edge budget, and a
    /// per-level serial `gate` in frontier edge volume (0 = always fork,
    /// `usize::MAX` = never fork; kernels pass `ParConfig::level_gate`).
    pub(crate) fn new(threads: usize, chunk_edges: usize, gate: usize) -> Self {
        Self {
            chunk_edges: chunk_edges.max(1),
            gate,
            current: Vec::new(),
            head: 0,
            next: (0..resolve_workers(threads)).map(|_| Vec::new()).collect(),
            chunks: Vec::new(),
            deals: Vec::new(),
            stats: ParStats::default(),
        }
    }

    /// Returns and resets the accumulated counters.
    pub(crate) fn take_stats(&mut self) -> ParStats {
        std::mem::take(&mut self.stats)
    }

    /// Replaces the current frontier with `vs`.
    pub(crate) fn seed(&mut self, vs: impl IntoIterator<Item = u32>) {
        self.current.clear();
        self.head = 0;
        self.current.extend(vs);
    }

    /// The current frontier.
    pub(crate) fn current(&self) -> &[u32] {
        &self.current[self.head..]
    }

    /// Number of vertices in the current frontier.
    pub(crate) fn len(&self) -> usize {
        self.current.len() - self.head
    }

    /// True when the current frontier is empty (traversal finished).
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One top-down level: expands every edge out of the current
    /// frontier, whose out-degree sum the caller supplies as `volume`
    /// (BFS tracks it for the direction heuristic); `claim(u, v, ts)`
    /// returns `true` when it won vertex `v`, which then joins the next
    /// frontier. Returns the new frontier size.
    pub(crate) fn advance_hinted<V, F>(&mut self, view: &V, volume: u64, claim: F) -> usize
    where
        V: GraphView,
        F: Fn(u32, u32, u32) -> bool + Sync,
    {
        if self.is_empty() {
            return 0;
        }
        let vol = volume.min(usize::MAX as u64) as usize;
        let mut width = fork_width(vol, self.gate, self.next.len());
        if width > 1 {
            self.compact();
            build_chunks_into(view, &self.current, self.chunk_edges, &mut self.chunks);
            width = width.min(self.chunks.len());
        }
        self.stats.edges_scanned += volume;
        if width <= 1 {
            // Fused serial level: expand in place on the caller — no
            // spawns, no buffer swap. Discoveries append past `end`; the
            // consumed prefix stays in the buffer until a forked level
            // compacts it.
            let end = self.current.len();
            let mut i = self.head;
            while i < end {
                let u = self.current[i];
                let cur = &mut self.current;
                view.for_each_edge(u, |v, ts| {
                    if claim(u, v, ts) {
                        cur.push(v);
                    }
                });
                i += 1;
            }
            self.head = end;
            self.stats.serial_levels += 1;
            return self.current.len() - end;
        }
        fill_deals(&mut self.deals, self.chunks.len(), width);
        self.stats.forked_levels += 1;
        self.stats.chunks_built += self.chunks.len() as u64;
        let steals = AtomicU64::new(0);
        {
            let (frontier, chunks, deals) = (&self.current, &self.chunks, &self.deals);
            let (claim, steals) = (&claim, &steals);
            rayon::scope(|s| {
                for (w, sink) in self.next.iter_mut().take(width).enumerate() {
                    s.spawn(move |_| {
                        drain_deals(
                            deals,
                            w,
                            |i| process_chunk(view, frontier, &chunks[i], claim, sink),
                            steals,
                        );
                    });
                }
            });
        }
        // ordering: Relaxed — statistics read after the scope join.
        self.stats.steals += steals.load(Ordering::Relaxed);
        self.swap_in_next();
        self.len()
    }

    /// Drops the consumed prefix left behind by fused serial levels so
    /// the chunker sees one contiguous frontier.
    fn compact(&mut self) {
        if self.head > 0 {
            let len = self.current.len();
            self.current.copy_within(self.head..len, 0);
            self.current.truncate(len - self.head);
            self.head = 0;
        }
    }

    fn swap_in_next(&mut self) {
        self.current.clear();
        self.head = 0;
        for buf in &mut self.next {
            self.current.extend_from_slice(buf);
            buf.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::AtomicBitset;
    use snap_core::CsrGraph;
    use snap_rmat::TimedEdge;
    use std::collections::HashSet;
    use std::sync::Mutex;

    fn star(leaves: u32) -> CsrGraph {
        let edges: Vec<TimedEdge> = (1..=leaves).map(|v| TimedEdge::new(0, v, 1)).collect();
        CsrGraph::from_edges_undirected(leaves as usize + 1, &edges)
    }

    /// One top-down level claiming into `claimed`, with the frontier's
    /// edge volume summed here as BFS tracks it.
    fn advance(eng: &mut FrontierEngine, g: &CsrGraph, claimed: &AtomicBitset) -> usize {
        let volume = eng.current().iter().map(|&u| g.out_degree(u) as u64).sum();
        eng.advance_hinted(g, volume, |_, v, _| claimed.claim(v as usize))
    }

    #[test]
    fn chunks_split_hubs_and_pack_runs() {
        let g = star(100);
        // Frontier = the hub + all leaves; budget 16 forces a hub split
        // into ceil(100/16) = 7 sub-ranges and packs leaves 16 per run.
        let frontier: Vec<u32> = (0..101).collect();
        let mut chunks = Vec::new();
        build_chunks_into(&g, &frontier, 16, &mut chunks);
        let hubs = chunks
            .iter()
            .filter(|c| matches!(c, Chunk::Hub { .. }))
            .count();
        assert_eq!(hubs, 7);
        // Every edge is covered exactly once.
        let mut seen = 0usize;
        for c in &chunks {
            match *c {
                Chunk::Run(ref r) => {
                    seen += frontier[r.clone()]
                        .iter()
                        .map(|&u| g.out_degree(u))
                        .sum::<usize>()
                }
                Chunk::Hub { lo, hi, .. } => seen += hi - lo,
            }
        }
        assert_eq!(seen, g.num_entries());
    }

    #[test]
    fn edge_map_covers_every_edge_once() {
        let g = star(300);
        let seen = Mutex::new(Vec::new());
        let mut eng = FrontierEngine::new(4, 32, 0);
        eng.seed(0..301);
        eng.advance_hinted(&g, g.num_entries() as u64, |u, v, _| {
            seen.lock().unwrap().push((u, v));
            false
        });
        assert_eq!(eng.take_stats().forked_levels, 1);
        let mut all: Vec<(u32, u32)> = seen.into_inner().unwrap();
        all.sort_unstable();
        let mut want: Vec<(u32, u32)> = g.iter_entries().map(|(u, v, _)| (u, v)).collect();
        want.sort_unstable();
        assert_eq!(all, want);
    }

    #[test]
    fn edge_map_really_fans_out_over_os_threads() {
        // The engine's whole point: chunk processing must land on more
        // than one OS thread. One short sleep at each chunk's first edge
        // (hub chunks see leaves in slice order, so boundaries fall at
        // (v - 1) % 100 == 0) keeps every worker's chunk in flight long
        // enough that the OS schedules its peers onto the queue — the
        // same technique as the rayon shim's own for_each stress test,
        // and robust on single-core hosts.
        let g = star(2000);
        let ids = Mutex::new(HashSet::new());
        let mut eng = FrontierEngine::new(4, 100, 0);
        eng.seed([0]); // hub only: 20 hub chunks @ 100
        let next = eng.advance_hinted(&g, 2000, |_, v, _| {
            ids.lock().unwrap().insert(std::thread::current().id());
            if (v - 1) % 100 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(500));
            }
            true
        });
        assert_eq!(next, 2000, "every hub edge visited");
        assert!(
            ids.lock().unwrap().len() > 1,
            "frontier expansion stayed on one OS thread"
        );
    }

    #[test]
    fn advance_claims_each_vertex_once() {
        let g = star(500);
        let claimed = AtomicBitset::new(501);
        let mut engine = FrontierEngine::new(4, 32, 0);
        engine.seed([0]);
        claimed.set(0);
        let next = advance(&mut engine, &g, &claimed);
        assert_eq!(next, 500, "every leaf claimed exactly once");
        let mut got: Vec<u32> = engine.current().to_vec();
        got.sort_unstable();
        assert_eq!(got, (1..=500).collect::<Vec<u32>>());
        // Second level: leaves all point back at the visited hub.
        let next = advance(&mut engine, &g, &claimed);
        assert_eq!(next, 0);
        assert!(engine.is_empty());
    }

    #[test]
    fn par_for_ranges_covers_ranges_exactly_once() {
        let ranges: Vec<Range<u32>> = (0..40).map(|i| (i * 10)..((i + 1) * 10)).collect();
        let hits = Mutex::new(vec![0u32; 400]);
        let mut stats = ParStats::default();
        par_for_ranges_stats(
            &ranges,
            4,
            |r| {
                let mut h = hits.lock().unwrap();
                for i in r {
                    h[i as usize] += 1;
                }
            },
            &mut stats,
        );
        assert!(hits.lock().unwrap().iter().all(|&c| c == 1));
    }

    #[test]
    fn zero_threads_adopts_the_installed_pool() {
        let width = snap_util::thread_pool(3).install(|| FrontierEngine::new(0, 64, 0).next.len());
        assert_eq!(width, 3, "threads = 0 must adopt the installed pool");
        assert_eq!(FrontierEngine::new(5, 64, 0).next.len(), 5);
    }

    #[test]
    fn sweep_grain_bounds() {
        // Tiny n clamps to the floor, huge n to the ceiling.
        assert_eq!(sweep_grain(0, 4), 64);
        assert_eq!(sweep_grain(1 << 26, 1), 1 << 16);
        // In between: n / (8 * threads), rounded up to whole words.
        assert_eq!(sweep_grain(6400, 4), 256);
        assert_eq!(sweep_grain(8192, 4), 256);
        assert_eq!(sweep_grain(1000, 1), 128);
        // threads = 0 degrades to one giant (clamped) chunk.
        assert_eq!(sweep_grain(100_000, 0), 1 << 16);
    }

    #[test]
    fn fork_width_gate_boundaries() {
        // Empty frontier: zero volume never forks, whatever the gate.
        assert_eq!(fork_width(0, 0, 8), 1);
        assert_eq!(fork_width(0, usize::MAX, 8), 1);
        // Exact-budget frontier: volume == gate stays inline; one more
        // edge forks the minimum width of two.
        assert_eq!(fork_width(4096, 4096, 8), 1);
        assert_eq!(fork_width(4097, 4096, 8), 2);
        // Width is proportional to volume, capped at the worker count.
        assert_eq!(fork_width(3 * 4096, 4096, 8), 3);
        assert_eq!(fork_width(100 * 4096, 4096, 8), 8);
        // Gate extremes: 0 always forks, MAX never does.
        assert_eq!(fork_width(1, 0, 8), 2);
        assert_eq!(fork_width(usize::MAX, usize::MAX, 8), 1);
        // A single worker can never usefully fork.
        assert_eq!(fork_width(usize::MAX, 0, 1), 1);
    }

    #[test]
    fn volume_gate_singles_out_hub_levels() {
        let g = star(600);
        // The hub level carries exactly 600 edges; a gate of 600 keeps
        // it inline (volume <= gate is the serial side of the boundary).
        let claimed = AtomicBitset::new(601);
        claimed.set(0);
        let mut eng = FrontierEngine::new(4, 32, 600);
        eng.seed([0]);
        assert_eq!(advance(&mut eng, &g, &claimed), 600);
        let s = eng.take_stats();
        assert_eq!((s.serial_levels, s.forked_levels), (1, 0));
        assert_eq!(s.edges_scanned, 600);
        assert_eq!(s.chunks_built, 0, "serial levels never chunk");
        // One below the volume: the same level forks.
        let claimed = AtomicBitset::new(601);
        claimed.set(0);
        let mut eng = FrontierEngine::new(4, 32, 599);
        eng.seed([0]);
        assert_eq!(advance(&mut eng, &g, &claimed), 600);
        let s = eng.take_stats();
        assert_eq!((s.serial_levels, s.forked_levels), (0, 1));
        assert!(s.chunks_built > 0);
        assert_eq!(s.edges_scanned, 600);
    }

    #[test]
    fn fused_serial_levels_share_the_buffer() {
        // A line graph under a never-fork gate: every level is fused in
        // place, so the whole traversal is one growing buffer with an
        // advancing head and zero spawns.
        let edges: Vec<TimedEdge> = (0..99).map(|i| TimedEdge::new(i, i + 1, 1)).collect();
        let g = CsrGraph::from_edges_undirected(100, &edges);
        let claimed = AtomicBitset::new(100);
        claimed.set(0);
        let mut eng = FrontierEngine::new(4, 32, usize::MAX);
        eng.seed([0]);
        let mut levels = 0u32;
        while !eng.is_empty() {
            advance(&mut eng, &g, &claimed);
            levels += 1;
        }
        assert_eq!(levels, 100);
        let s = eng.take_stats();
        assert_eq!(s.serial_levels, 100);
        assert_eq!(s.forked_levels, 0);
        assert_eq!(s.edges_scanned, 2 * 99, "every edge scanned once per side");
        for v in 0..100 {
            assert!(claimed.test(v), "vertex {v} never claimed");
        }
    }

    #[test]
    fn fusion_compacts_before_a_forked_level() {
        // 0 - 1, then a 299-leaf fan at 1: the first level runs fused
        // (head advances past the consumed seed), then dropping the gate
        // forces the fan level through the forked path, which must
        // compact the buffer before chunking.
        let mut edges = vec![TimedEdge::new(0, 1, 1)];
        edges.extend((2..301).map(|v| TimedEdge::new(1, v, 1)));
        let g = CsrGraph::from_edges_undirected(301, &edges);
        let claimed = AtomicBitset::new(301);
        claimed.set(0);
        let mut eng = FrontierEngine::new(4, 32, usize::MAX);
        eng.seed([0]);
        assert_eq!(advance(&mut eng, &g, &claimed), 1);
        assert_eq!(eng.current(), &[1]);
        eng.gate = 0;
        assert_eq!(advance(&mut eng, &g, &claimed), 299);
        let mut got = eng.current().to_vec();
        got.sort_unstable();
        assert_eq!(got, (2..301).collect::<Vec<u32>>());
        let s = eng.take_stats();
        assert_eq!((s.serial_levels, s.forked_levels), (1, 1));
    }

    #[test]
    fn drain_deals_counts_steals_deterministically() {
        // One caller drains both deals: its home deal's five slots are
        // owned work, the neighbor's five are steals.
        let mut deals = Vec::new();
        fill_deals(&mut deals, 10, 2);
        let steals = AtomicU64::new(0);
        let mut seen = Vec::new();
        drain_deals(&deals, 1, |i| seen.push(i), &steals);
        assert_eq!(seen, vec![5, 6, 7, 8, 9, 0, 1, 2, 3, 4]);
        // ordering: Relaxed — single-threaded test read.
        assert_eq!(steals.load(Ordering::Relaxed), 5);
    }
}
