//! Direction-optimizing parallel BFS over any [`GraphView`].
//!
//! Top-down levels run through the crate's frontier engine: edge-budgeted
//! chunks, per-worker next buffers, and a compare-exchange claim per
//! discovered vertex in an atomic bitset. When the frontier gets
//! dense, the traversal flips to **bottom-up** (Beamer et al., SC'12):
//! instead of expanding frontier edges, every *unvisited* vertex scans
//! its own adjacency for any frontier neighbor, and on small-world
//! graphs the scan stops after a handful of entries because almost
//! everything neighbors the dense frontier.
//!
//! Bottom-up levels keep the frontier as a bitmap: two bitsets, this
//! level's and the next, swapped after each level. The sweep walks the
//! vertex ids in ranges aligned to 64-vertex words (the sweep grain is a
//! multiple of 64), so the worker holding a range
//! is the only writer of its words. It builds a word's discoveries in a
//! local `u64` and publishes them to `visited` and to the next frontier
//! with one plain store each — no claim, no read-modify-write — and it
//! sums the count and degree of what it found, so the direction switch
//! needs no pass over the frontier. The frontier converts between the
//! engine's queue and the bitmap only when the direction switches.
//!
//! The switch heuristic is the standard one:
//!
//! - top-down -> bottom-up when `m_f * alpha > m_u` (the frontier's
//!   out-edge count approaches the unvisited edge count), and
//! - bottom-up -> top-down when `n_f * beta < n` (the frontier thins
//!   back out).
//!
//! Bottom-up requires in-edge = out-edge symmetry, so it is gated to
//! undirected views; directed graphs traverse pure top-down.
//!
//! A small graph takes the same path: its levels carry less edge volume
//! than [`ParConfig::level_gate`], so they run inline on the caller.

use crate::bitset::AtomicBitset;
use crate::frontier::{par_for_ranges_stats, sweep_grain, FrontierEngine, ParStats};
use crate::ParConfig;
use snap_core::GraphView;
use snap_kernels::bfs::{BfsResult, UNREACHED};
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Per-run traversal counters, exposed for tests and tuning.
#[derive(Clone, Copy, Debug, Default)]
pub struct BfsStats {
    /// Levels expanded top-down.
    pub top_down_levels: u32,
    /// Levels expanded bottom-up.
    pub bottom_up_levels: u32,
    /// Adaptive-scheduling counters (top-down levels through the engine
    /// plus bottom-up sweeps).
    pub runtime: ParStats,
}

/// Parallel BFS from `src` with the default [`ParConfig`].
///
/// # Examples
///
/// ```
/// use snap_core::CsrGraph;
/// use snap_par::par_bfs;
/// use snap_rmat::TimedEdge;
///
/// let edges: Vec<TimedEdge> = (0..99).map(|i| TimedEdge::new(i, i + 1, 1)).collect();
/// let g = CsrGraph::from_edges_undirected(100, &edges);
/// let r = par_bfs(&g, 0);
/// assert_eq!(r.dist[99], 99);
/// assert_eq!(r.parent[99], 98);
/// ```
pub fn par_bfs<V: GraphView>(view: &V, src: u32) -> BfsResult {
    par_bfs_with(view, src, &ParConfig::default())
}

/// Parallel BFS from `src` under an explicit configuration.
pub fn par_bfs_with<V: GraphView>(view: &V, src: u32, cfg: &ParConfig) -> BfsResult {
    par_bfs_stats(view, src, cfg).0
}

/// Like [`par_bfs_with`], also returning direction-switch counters.
/// A view backed by a CSR ([`GraphView::as_csr`], e.g. a compacted
/// serving version) runs the kernel monomorphised for that CSR, so every
/// `degree` / `find_edge` of a level is a slice read, not a call through
/// the view.
pub fn par_bfs_stats<V: GraphView>(view: &V, src: u32, cfg: &ParConfig) -> (BfsResult, BfsStats) {
    match view.as_csr() {
        Some(csr) => bfs_stats(csr, src, cfg),
        None => bfs_stats(view, src, cfg),
    }
}

fn bfs_stats<V: GraphView>(view: &V, src: u32, cfg: &ParConfig) -> (BfsResult, BfsStats) {
    let n = view.num_vertices();
    assert!((src as usize) < n, "source out of range");
    let m = view.num_entries();
    let threads = cfg.worker_count();
    let work = n + m;
    let mut stats = BfsStats::default();
    let mut sweep_stats = ParStats::default();

    let dist: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNREACHED)).collect();
    let parent: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNREACHED)).collect();
    let visited = AtomicBitset::new(n);
    // ordering: Relaxed — pre-parallel seeding; the first level's
    // spawn barrier publishes it (invariant 8).
    dist[src as usize].store(0, Ordering::Relaxed);
    visited.set(src as usize);

    let mut engine = FrontierEngine::new(threads, cfg.chunk_edges, cfg.level_gate(work));
    engine.seed([src]);

    // Direction bookkeeping: size and out-degree mass of the current
    // frontier, and the degree mass of the still-unvisited remainder.
    let mut frontier_len: u64 = 1;
    let mut frontier_deg: u64 = view.degree(src) as u64;
    let mut prev_frontier_deg: u64 = 0;
    let mut unexplored: u64 = (m as u64).saturating_sub(frontier_deg);
    let bottom_up_allowed = !view.is_directed() && cfg.beta > 0;
    // The bottom-up frontier as a bitmap pair, swapped after each level.
    let (mut front, mut next) = (AtomicBitset::new(n), AtomicBitset::new(n));
    let ranges: Vec<Range<u32>> = view.vertex_chunks(sweep_grain(n, threads)).collect();
    let mut in_bottom_up = false;

    let mut level = 0u32;
    while frontier_len > 0 {
        level += 1;
        let bottom_up = bottom_up_allowed
            && if in_bottom_up {
                // Stay bottom-up while the frontier is still dense:
                // n_f * beta >= n.
                frontier_len.saturating_mul(cfg.beta as u64) >= n as u64
            } else {
                // Switch when the frontier is still growing and its edge
                // mass rivals the unvisited edge mass: m_f * alpha > m_u.
                // The growth test keeps high-diameter tails (line-like
                // graphs draining their last edges) in top-down mode.
                frontier_deg > prev_frontier_deg
                    && frontier_deg.saturating_mul(cfg.alpha as u64) > unexplored
            };
        let found_deg;
        if bottom_up {
            stats.bottom_up_levels += 1;
            if !in_bottom_up {
                front.fill_from(engine.current());
            }
            // The sweep's cost is the unexplored adjacency mass, so that
            // is the volume the gate weighs.
            let width = cfg.fork_width(unexplored.min(usize::MAX as u64) as usize, work);
            let sweep = Sweep {
                view,
                visited: &visited,
                front: &front,
                next: &next,
                dist: &dist,
                parent: &parent,
                level,
            };
            (frontier_len, found_deg) = sweep.run(&ranges, width, &mut sweep_stats);
            std::mem::swap(&mut front, &mut next);
        } else {
            stats.top_down_levels += 1;
            if in_bottom_up {
                engine.seed(front.iter_ones());
            }
            let (dist, parent, visited) = (&dist, &parent, &visited);
            engine.advance_hinted(view, frontier_deg, |u, v, _| {
                if visited.claim(v as usize) {
                    // ordering: Relaxed (both stores) — only the claim
                    // winner writes v's words (invariant 7); the level
                    // join publishes them (invariant 8).
                    dist[v as usize].store(level, Ordering::Relaxed);
                    // ordering: Relaxed — see above.
                    parent[v as usize].store(u, Ordering::Relaxed);
                    true
                } else {
                    false
                }
            });
            frontier_len = engine.len() as u64;
            found_deg = engine
                .current()
                .iter()
                .map(|&u| view.degree(u) as u64)
                .sum();
        }
        in_bottom_up = bottom_up;
        prev_frontier_deg = frontier_deg;
        frontier_deg = found_deg;
        unexplored = unexplored.saturating_sub(frontier_deg);
    }
    let result = BfsResult {
        dist: dist.into_iter().map(|d| d.into_inner()).collect(),
        parent: parent.into_iter().map(|p| p.into_inner()).collect(),
    };
    stats.runtime = engine.take_stats();
    stats.runtime.absorb(sweep_stats);
    crate::metrics::publish(&stats.runtime);
    (result, stats)
}

/// One bottom-up level's shared state.
struct Sweep<'a, V> {
    view: &'a V,
    visited: &'a AtomicBitset,
    /// This level's frontier, read-only during the sweep.
    front: &'a AtomicBitset,
    /// The next frontier: every word is overwritten by its range owner.
    next: &'a AtomicBitset,
    dist: &'a [AtomicU32],
    parent: &'a [AtomicU32],
    level: u32,
}

impl<V: GraphView> Sweep<'_, V> {
    /// Every unvisited vertex looks for a frontier neighbor and, on a
    /// hit, joins the next frontier. A vertex with no entries can never
    /// be reached, so it is marked visited (its level stays
    /// `UNREACHED`) and later sweeps skip it with its word. Returns how
    /// many vertices joined and their total degree; adds the entries
    /// examined to `stats`.
    fn run(&self, ranges: &[Range<u32>], width: usize, stats: &mut ParStats) -> (u64, u64) {
        let totals: [AtomicU64; 3] = Default::default();
        par_for_ranges_stats(
            ranges,
            width,
            |r| {
                let sums = self.range(r);
                for (total, sum) in totals.iter().zip(sums) {
                    // ordering: Relaxed — one add per range of a
                    // range-local sum, read after the sweep join
                    // (invariant 8).
                    total.fetch_add(sum, Ordering::Relaxed);
                }
            },
            stats,
        );
        let [found, degree, scanned] = totals.map(AtomicU64::into_inner);
        stats.edges_scanned += scanned;
        (found, degree)
    }

    /// One word-aligned range: `[found, degree, scanned]` sums.
    fn range(&self, r: Range<u32>) -> [u64; 3] {
        let (lo, hi) = (r.start as usize, r.end as usize);
        debug_assert_eq!(lo % 64, 0, "sweep ranges start on word boundaries");
        let (mut found, mut degree, mut scanned) = (0u64, 0u64, 0u64);
        for word in lo / 64..hi.div_ceil(64) {
            let base = word * 64;
            let live = if hi - base >= 64 {
                u64::MAX
            } else {
                (1u64 << (hi - base)) - 1
            };
            let seen = self.visited.word(word);
            let mut todo = !seen & live;
            let mut new = 0u64;
            let mut isolated = 0u64;
            while todo != 0 {
                let bit = todo.trailing_zeros();
                todo &= todo - 1;
                let w = (base as u32) | bit;
                let before = scanned;
                let hit = self.view.find_edge(w, |v, _| {
                    scanned += 1;
                    self.front.test(v as usize)
                });
                if scanned == before {
                    isolated |= 1u64 << bit;
                }
                if let Some((v, _)) = hit {
                    new |= 1u64 << bit;
                    // ordering: Relaxed (both) — w's range owner is its
                    // only writer this level (invariant 7); the level
                    // join publishes (invariant 8).
                    self.dist[w as usize].store(self.level, Ordering::Relaxed);
                    // ordering: Relaxed — see above.
                    self.parent[w as usize].store(v, Ordering::Relaxed);
                    found += 1;
                    degree += self.view.degree(w) as u64;
                }
            }
            if new | isolated != 0 {
                self.visited.store_word(word, seen | new | isolated);
            }
            self.next.store_word(word, new);
        }
        [found, degree, scanned]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_core::adjacency::CapacityHints;
    use snap_core::{CsrGraph, DynGraph, HybridAdj};
    use snap_kernels::bfs::serial_bfs;
    use snap_rmat::{Rmat, RmatParams, TimedEdge};

    // Force the parallel path at full width (gate 0 = always fork), so
    // these tests exercise forked levels even on single-core hosts where
    // Grain::Auto would keep everything inline.
    fn force() -> ParConfig {
        ParConfig::default()
            .with_threads(4)
            .with_level_grain(crate::Grain::Edges(0))
    }

    #[test]
    fn line_graph_stays_top_down_and_is_exact() {
        let edges: Vec<TimedEdge> = (0..999).map(|i| TimedEdge::new(i, i + 1, 1)).collect();
        let g = CsrGraph::from_edges_undirected(1000, &edges);
        let (r, stats) = par_bfs_stats(&g, 0, &force());
        assert_eq!(stats.bottom_up_levels, 0, "sparse frontier must not flip");
        for v in 0..1000 {
            assert_eq!(r.dist[v], v as u32);
        }
    }

    #[test]
    fn rmat_flips_to_bottom_up_and_matches_serial() {
        let rm = Rmat::new(RmatParams::paper(12, 8), 9);
        let g = CsrGraph::from_edges_undirected(1 << 12, &rm.edges());
        let (r, stats) = par_bfs_stats(&g, 0, &force());
        assert!(
            stats.bottom_up_levels >= 1,
            "dense small-world frontier must trigger the switch: {stats:?}"
        );
        let s = serial_bfs(&g, 0);
        assert_eq!(r.dist, s.dist);
    }

    #[test]
    fn forced_bottom_up_still_exact_on_star() {
        let hub_deg = 4000u32;
        let edges: Vec<TimedEdge> = (1..=hub_deg).map(|v| TimedEdge::new(0, v, 1)).collect();
        let g = CsrGraph::from_edges_undirected(hub_deg as usize + 1, &edges);
        // alpha huge => flip to bottom-up as soon as possible.
        let cfg = force().with_alpha(usize::MAX).with_beta(1);
        let (r, stats) = par_bfs_stats(&g, 0, &cfg);
        assert!(stats.bottom_up_levels >= 1);
        assert_eq!(serial_bfs(&g, 0).dist, r.dist);
    }

    #[test]
    fn bottom_up_levels_count_the_entries_they_examine() {
        // Level 1 is bottom-up: every leaf reads its one entry, the hub.
        // Level 2 thins out (4000 * beta < n) and expands top-down.
        let edges: Vec<TimedEdge> = (1..=4000).map(|v| TimedEdge::new(0, v, 1)).collect();
        let g = CsrGraph::from_edges_undirected(4001, &edges);
        let cfg = force().with_alpha(usize::MAX).with_beta(1);
        let (_, stats) = par_bfs_stats(&g, 0, &cfg);
        assert_eq!((stats.bottom_up_levels, stats.top_down_levels), (1, 1));
        assert!(stats.runtime.edges_scanned >= 4000, "{:?}", stats.runtime);
        assert_eq!(stats.runtime.edges_scanned, 4000 + 4000);
    }

    #[test]
    fn directed_graphs_never_go_bottom_up() {
        let rm = Rmat::new(RmatParams::paper(11, 8), 4);
        let g = CsrGraph::from_edges_directed(1 << 11, &rm.edges());
        let cfg = force().with_alpha(usize::MAX);
        let (r, stats) = par_bfs_stats(&g, 0, &cfg);
        assert_eq!(stats.bottom_up_levels, 0);
        assert_eq!(serial_bfs(&g, 0).dist, r.dist);
    }

    #[test]
    fn live_view_matches_snapshot() {
        let rm = Rmat::new(RmatParams::paper(10, 8), 21);
        let hints = CapacityHints::new(rm.edges().len() * 2);
        let g: DynGraph<HybridAdj> = DynGraph::undirected(1 << 10, &hints);
        for e in rm.edges() {
            g.insert_edge(e);
        }
        let csr = g.to_csr();
        let live = par_bfs_with(&g, 5, &force());
        let snap = par_bfs_with(&csr, 5, &force());
        assert_eq!(live.dist, snap.dist);
        assert_eq!(live.dist, serial_bfs(&csr, 5).dist);
    }

    #[test]
    fn parents_form_a_valid_bfs_tree() {
        let rm = Rmat::new(RmatParams::paper(11, 8), 33);
        let g = CsrGraph::from_edges_undirected(1 << 11, &rm.edges());
        let r = par_bfs_with(&g, 0, &force());
        assert_eq!(r.parent[0], UNREACHED);
        for v in 0..r.dist.len() {
            if v == 0 || r.dist[v] == UNREACHED {
                continue;
            }
            let p = r.parent[v] as usize;
            assert_eq!(r.dist[p] + 1, r.dist[v], "parent of {v} is off-level");
            assert!(
                g.neighbors(p as u32).contains(&(v as u32)),
                "parent edge {p}->{v} does not exist"
            );
        }
    }

    #[test]
    #[should_panic(expected = "source out of range")]
    fn invalid_source_panics() {
        let g = CsrGraph::from_edges_undirected(2, &[]);
        par_bfs(&g, 9);
    }

    #[test]
    fn runtime_counters_track_levels() {
        // Line at gate 0: every level is one chunk, so even forced
        // forking collapses to inline — all levels count as serial and
        // every edge is scanned once per direction.
        let edges: Vec<TimedEdge> = (0..999).map(|i| TimedEdge::new(i, i + 1, 1)).collect();
        let g = CsrGraph::from_edges_undirected(1000, &edges);
        let (_, s) = par_bfs_stats(&g, 0, &force());
        assert_eq!(s.runtime.levels(), 1000);
        assert_eq!(s.runtime.forked_levels, 0);
        assert_eq!(s.runtime.edges_scanned, 2 * 999);
        // Star at gate 0 (bottom-up disabled): the hub level splits into
        // multiple chunks and genuinely forks.
        let star: Vec<TimedEdge> = (1..=4000).map(|v| TimedEdge::new(0, v, 1)).collect();
        let star = CsrGraph::from_edges_undirected(4001, &star);
        let (_, s) = par_bfs_stats(&star, 0, &force().with_beta(0));
        assert!(s.runtime.forked_levels >= 1, "{:?}", s.runtime);
        assert!(s.runtime.chunks_built > 0);
        // Auto grain with one pinned worker: nothing ever forks.
        let auto = ParConfig::default().with_threads(1);
        let (_, s) = par_bfs_stats(&star, 0, &auto);
        assert_eq!(s.runtime.forked_levels, 0, "{:?}", s.runtime);
    }
}
