//! Parallel single-source shortest paths: Δ-stepping with parallel
//! bucket relaxation — the paper's future-work SSSP, after the authors'
//! own Δ-stepping study (Madduri, Bader, Berry, Crobak, ALENEX 2007).
//!
//! Vertices are bucketed by `dist / Δ`; each bucket is settled to a
//! fixed point over its light edges (weight <= Δ, which can re-queue
//! into the same bucket) before one heavy-edge pass (weight > Δ, which
//! always targets later buckets). The parallel part is the relaxation:
//! each bucket's frontier fans out through one persistent
//! [`LevelRunner`] — edge-budgeted chunks dealt to workers with
//! stealing, volume-gated so the many tiny buckets a Δ-stepping run
//! produces relax inline instead of paying a fork/join barrier each —
//! and every edge applies a CAS-min directly to the shared atomic
//! distance array. Workers record which vertices they
//! improved in per-worker buffers; the (cheap, frontier-sized) bucket
//! insertion happens sequentially after the join. A vertex improved
//! twice in one round is pushed twice — a stale queued entry re-relaxes
//! harmlessly.
//!
//! When the [`Grain::Auto`] gate resolves at or above the whole view's
//! size, *no* level could ever fork (single effective core, or a tiny
//! view): the kernel dispatches to serial Dijkstra outright, because
//! without parallelism Δ-stepping's redundant relaxations are pure loss
//! against the binary heap. Both are exact, so the answer is identical.
//! [`Grain::Edges`] pins the Δ-stepping path; `Edges(usize::MAX)` at one
//! thread runs it inline, start to finish.
//!
//! Edge weight is `max(timestamp, 1)`, matching `snap_kernels::dijkstra`,
//! so results are comparable bit-for-bit (both are exact).

use crate::frontier::{LevelRunner, ParStats};
use crate::{Grain, ParConfig};
use snap_core::GraphView;
use snap_kernels::sssp::INF;
use std::sync::atomic::{AtomicU64, Ordering};

/// Parallel Δ-stepping from `src` with the default [`ParConfig`].
///
/// # Examples
///
/// ```
/// use snap_core::CsrGraph;
/// use snap_par::par_sssp;
/// use snap_rmat::TimedEdge;
///
/// // Edge weight is max(timestamp, 1), matching Dijkstra.
/// let edges = vec![TimedEdge::new(0, 1, 2), TimedEdge::new(1, 2, 3)];
/// let g = CsrGraph::from_edges_undirected(3, &edges);
/// assert_eq!(par_sssp(&g, 0, 4), vec![0, 2, 5]);
/// ```
pub fn par_sssp<V: GraphView>(view: &V, src: u32, delta: u64) -> Vec<u64> {
    par_sssp_with(view, src, delta, &ParConfig::default())
}

/// Parallel Δ-stepping from `src` under an explicit configuration.
/// Falls back to the serial Dijkstra oracle below the size threshold,
/// and dispatches to Dijkstra whenever the [`Grain::Auto`] gate says no
/// level could ever fork (see the module docs).
pub fn par_sssp_with<V: GraphView>(view: &V, src: u32, delta: u64, cfg: &ParConfig) -> Vec<u64> {
    par_sssp_stats(view, src, delta, cfg).0
}

/// Like [`par_sssp_with`], also returning the runtime's scheduling
/// counters (zeroed when the kernel dispatched to Dijkstra).
pub fn par_sssp_stats<V: GraphView>(
    view: &V,
    src: u32,
    delta: u64,
    cfg: &ParConfig,
) -> (Vec<u64>, ParStats) {
    let n = view.num_vertices();
    assert!((src as usize) < n, "source out of range");
    let work = n + view.num_entries();
    if work <= cfg.serial_threshold {
        crate::metrics::publish(&ParStats::default());
        return (snap_kernels::dijkstra(view, src), ParStats::default());
    }
    // Auto grain, gate >= whole view: no bucket can ever fork, so the
    // serial heap beats serial Δ-stepping outright. Edges(..) pins the
    // Δ-stepping path for the equivalence and scheduling tests.
    if matches!(cfg.level_grain, Grain::Auto) && cfg.level_gate(work) >= work {
        crate::metrics::publish(&ParStats::default());
        return (snap_kernels::dijkstra(view, src), ParStats::default());
    }
    let delta = delta.max(1);
    let mut runner = LevelRunner::new(cfg.worker_count(), cfg.chunk_edges, cfg.level_gate(work));
    let mut sinks: Vec<Vec<(u32, u64)>> = (0..runner.workers()).map(|_| Vec::new()).collect();
    let dist: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(INF)).collect();
    // ordering: Relaxed — pre-parallel seeding; the first relax pass's
    // spawn barrier publishes it (invariant 8).
    dist[src as usize].store(0, Ordering::Relaxed);
    let mut buckets: Vec<Vec<u32>> = vec![vec![src]];
    let mut current = 0usize;
    while current < buckets.len() {
        // Settle the current bucket over light edges to a fixed point.
        let mut deleted: Vec<u32> = Vec::new();
        loop {
            let frontier: Vec<u32> = std::mem::take(&mut buckets[current]);
            if frontier.is_empty() {
                break;
            }
            deleted.extend_from_slice(&frontier);
            relax_frontier(
                view,
                &frontier,
                &dist,
                &mut runner,
                |w| w <= delta,
                &mut sinks,
            );
            enqueue_improved(&mut sinks, delta, &mut buckets, current);
        }
        // One heavy-edge pass over everything settled in this bucket.
        // `deleted` holds one entry per *settlement*, and a vertex
        // improved across inner rounds re-enters the frontier each time —
        // without dedup its heavy edges would be re-relaxed once per
        // re-settlement (harmless but pure waste, and the frontier handed
        // to the chunker is larger than the vertex set it covers).
        deleted.sort_unstable();
        deleted.dedup();
        relax_frontier(
            view,
            &deleted,
            &dist,
            &mut runner,
            |w| w > delta,
            &mut sinks,
        );
        enqueue_improved(&mut sinks, delta, &mut buckets, current);
        current += 1;
    }
    let dist = dist.into_iter().map(|d| d.into_inner()).collect();
    let stats = runner.take_stats();
    crate::metrics::publish(&stats);
    (dist, stats)
}

#[inline]
fn weight(ts: u32) -> u64 {
    (ts as u64).max(1)
}

/// Chunked relaxation of every qualifying edge out of `frontier`,
/// inline or forked per the runner's volume gate: CAS-min on the shared
/// distances, improvements recorded in per-worker sinks.
fn relax_frontier<V: GraphView>(
    view: &V,
    frontier: &[u32],
    dist: &[AtomicU64],
    runner: &mut LevelRunner,
    qualifies: impl Fn(u64) -> bool + Sync,
    sinks: &mut [Vec<(u32, u64)>],
) {
    runner.edge_map(
        view,
        frontier,
        |u, v, ts, sink: &mut Vec<(u32, u64)>| {
            let w = weight(ts);
            if !qualifies(w) {
                return;
            }
            // ordering: Relaxed — u settled in an earlier pass whose
            // join published its distance (invariant 8).
            let du = dist[u as usize].load(Ordering::Relaxed);
            let nd = du.saturating_add(w);
            // ordering: Relaxed (load and CAS) — monotone-decreasing
            // distance minimum; the CAS is the claim (invariant 7) and
            // the pass join publishes results.
            let mut cur = dist[v as usize].load(Ordering::Relaxed);
            while nd < cur {
                // ordering: Relaxed — covered by the note above.
                match dist[v as usize].compare_exchange_weak(
                    cur,
                    nd,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        sink.push((v, nd));
                        return;
                    }
                    Err(now) => cur = now,
                }
            }
        },
        sinks,
    );
}

/// Drains the worker sinks into their target buckets (never before
/// `floor`: edge weights are positive).
fn enqueue_improved(
    sinks: &mut [Vec<(u32, u64)>],
    delta: u64,
    buckets: &mut Vec<Vec<u32>>,
    floor: usize,
) {
    for sink in sinks {
        for &(v, nd) in sink.iter() {
            let b = ((nd / delta) as usize).max(floor);
            if b >= buckets.len() {
                buckets.resize(b + 1, Vec::new());
            }
            buckets[b].push(v);
        }
        sink.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_core::CsrGraph;
    use snap_kernels::dijkstra;
    use snap_rmat::{Rmat, RmatParams, TimedEdge};

    // Gate 0 pins the Δ-stepping path (and its forked levels) even on
    // single-core hosts, where Auto would dispatch to Dijkstra.
    fn force() -> ParConfig {
        ParConfig::default()
            .with_serial_threshold(0)
            .with_threads(4)
            .with_level_grain(Grain::Edges(0))
    }

    #[test]
    fn weighted_path_is_exact() {
        let edges = vec![
            TimedEdge::new(0, 1, 2),
            TimedEdge::new(1, 2, 3),
            TimedEdge::new(2, 3, 4),
        ];
        let g = CsrGraph::from_edges_undirected(4, &edges);
        for delta in [1u64, 3, 100] {
            assert_eq!(par_sssp_with(&g, 0, delta, &force()), vec![0, 2, 5, 9]);
        }
    }

    #[test]
    fn shortcut_beats_direct_heavy_edge() {
        // 0-2 costs 10 direct, 2+3 = 5 via 1.
        let edges = vec![
            TimedEdge::new(0, 2, 10),
            TimedEdge::new(0, 1, 2),
            TimedEdge::new(1, 2, 3),
        ];
        let g = CsrGraph::from_edges_undirected(3, &edges);
        assert_eq!(par_sssp_with(&g, 0, 4, &force())[2], 5);
    }

    #[test]
    fn zero_timestamps_treated_as_unit_weights() {
        let edges = vec![TimedEdge::new(0, 1, 0), TimedEdge::new(1, 2, 0)];
        let g = CsrGraph::from_edges_undirected(3, &edges);
        assert_eq!(par_sssp_with(&g, 0, 1, &force()), vec![0, 1, 2]);
    }

    #[test]
    fn unit_weights_reduce_to_bfs() {
        let rm = Rmat::new(RmatParams::paper(9, 8).with_max_timestamp(0), 7);
        let g = CsrGraph::from_edges_undirected(1 << 9, &rm.edges());
        let d = par_sssp_with(&g, 0, 1, &force());
        let b = snap_kernels::serial_bfs(&g, 0);
        for (v, &dv) in d.iter().enumerate() {
            if b.dist[v] == snap_kernels::UNREACHED {
                assert_eq!(dv, INF);
            } else {
                assert_eq!(dv, b.dist[v] as u64);
            }
        }
    }

    #[test]
    fn matches_dijkstra_on_rmat_across_deltas() {
        let rm = Rmat::new(RmatParams::paper(10, 8).with_max_timestamp(100), 5);
        let g = CsrGraph::from_edges_undirected(1 << 10, &rm.edges());
        let oracle = dijkstra(&g, 0);
        // Δ = 1 buckets every distance apart; Δ = huge is one bucket of
        // chaotic relaxation to a fixed point. Both must stay exact.
        for delta in [1u64, 8, 32, 1 << 20, u64::MAX / 4] {
            let par = par_sssp_with(&g, 0, delta, &force());
            assert_eq!(par, oracle, "delta {delta} diverged from Dijkstra");
        }
    }

    #[test]
    fn directed_weighted_graph_is_exact() {
        let rm = Rmat::new(RmatParams::paper(10, 8).with_max_timestamp(50), 11);
        let g = CsrGraph::from_edges_directed(1 << 10, &rm.edges());
        assert_eq!(par_sssp_with(&g, 0, 16, &force()), dijkstra(&g, 0));
    }

    #[test]
    fn unreachable_vertices_stay_inf() {
        let g = CsrGraph::from_edges_undirected(4, &[TimedEdge::new(0, 1, 1)]);
        let d = par_sssp_with(&g, 0, 2, &force());
        assert_eq!(d[2], INF);
        assert_eq!(d[3], INF);
    }

    #[test]
    fn small_graph_falls_back_to_dijkstra() {
        let g = CsrGraph::from_edges_undirected(3, &[TimedEdge::new(0, 1, 5)]);
        assert_eq!(par_sssp(&g, 0, 4), dijkstra(&g, 0));
    }

    /// Counts [`GraphView::for_each_edge`] invocations, so a test can pin
    /// down exactly how many frontier entries each pass scanned.
    struct CountingView<'a> {
        inner: &'a CsrGraph,
        visits: std::sync::atomic::AtomicUsize,
    }

    impl GraphView for CountingView<'_> {
        fn num_vertices(&self) -> usize {
            self.inner.num_vertices()
        }
        fn is_directed(&self) -> bool {
            self.inner.is_directed()
        }
        fn degree(&self, u: u32) -> usize {
            self.inner.out_degree(u)
        }
        fn for_each_edge<F: FnMut(u32, u32)>(&self, u: u32, f: F) {
            // ordering: Relaxed — test visit counter.
            self.visits.fetch_add(1, Ordering::Relaxed);
            GraphView::for_each_edge(self.inner, u, f)
        }
    }

    #[test]
    fn heavy_pass_dedups_multi_settled_vertices() {
        // Vertex 2 settles twice inside bucket 0: first at 3 via the
        // direct (0,2) edge, then improved to 2 via 0-1-2. Before the
        // dedup fix the heavy pass scanned it once per settlement.
        let edges = vec![
            TimedEdge::new(0, 1, 1),
            TimedEdge::new(1, 2, 1),
            TimedEdge::new(0, 2, 3),
            TimedEdge::new(2, 3, 50), // the heavy edge duplicates would re-relax
        ];
        let csr = CsrGraph::from_edges_undirected(4, &edges);
        let view = CountingView {
            inner: &csr,
            visits: std::sync::atomic::AtomicUsize::new(0),
        };
        // Edges(0) pins the Δ-stepping path: under Auto a width-1 gate
        // would dispatch this straight to Dijkstra.
        let cfg = ParConfig::default()
            .with_serial_threshold(0)
            .with_threads(1)
            .with_level_grain(Grain::Edges(0));
        let d = par_sssp_with(&view, 0, 10, &cfg);
        assert_eq!(d, dijkstra(&csr, 0));
        assert_eq!(d, vec![0, 1, 2, 52]);
        // Hand-traced frontier scans with a deduped heavy pass:
        // light passes [0], [1,2], [2] = 4; heavy pass over the deduped
        // {0,1,2} = 3; bucket 5 light [3] + heavy [3] = 2. A duplicated
        // heavy frontier would make this 10.
        assert_eq!(view.visits.into_inner(), 9, "heavy pass must be deduped");
    }

    #[test]
    fn auto_gate_dispatches_small_or_serial_runs_to_dijkstra() {
        let rm = Rmat::new(RmatParams::paper(10, 8).with_max_timestamp(100), 5);
        let g = CsrGraph::from_edges_undirected(1 << 10, &rm.edges());
        let oracle = dijkstra(&g, 0);
        // One pinned worker under Auto: the gate is usize::MAX, so the
        // kernel takes the Dijkstra dispatch — zeroed counters prove it
        // never entered the bucket loop.
        let auto1 = ParConfig::default()
            .with_serial_threshold(0)
            .with_threads(1);
        let (d, stats) = par_sssp_stats(&g, 0, 16, &auto1);
        assert_eq!(d, oracle);
        assert_eq!(stats, ParStats::default());
        // A pinned never-fork gate stays on Δ-stepping: every relaxation
        // runs inline, counted as a serial level.
        let never = force().with_level_grain(Grain::Edges(usize::MAX));
        let (d, stats) = par_sssp_stats(&g, 0, 16, &never);
        assert_eq!(d, oracle);
        assert_eq!(stats.forked_levels, 0);
        assert!(stats.serial_levels > 0);
        assert!(stats.edges_scanned > 0);
    }

    #[test]
    fn multi_settlement_stream_matches_dijkstra() {
        // A ladder of shortcut edges: every rung offers a long direct
        // light edge first and a shorter multi-hop path second, forcing
        // re-settlement churn inside each bucket at several deltas.
        let mut edges = Vec::new();
        for i in 0..64u32 {
            edges.push(TimedEdge::new(i, i + 1, 1));
            edges.push(TimedEdge::new(i, (i + 2).min(65), 7));
        }
        let g = CsrGraph::from_edges_undirected(66, &edges);
        let oracle = dijkstra(&g, 0);
        for delta in [2u64, 8, 16, 1 << 20] {
            for threads in [1usize, 2, 4] {
                let cfg = ParConfig::default()
                    .with_serial_threshold(0)
                    .with_threads(threads)
                    .with_level_grain(Grain::Edges(0));
                assert_eq!(par_sssp_with(&g, 0, delta, &cfg), oracle);
            }
        }
    }
}
