//! Parallel connected components: Shiloach–Vishkin label propagation
//! with pointer jumping, executed over real worker threads.
//!
//! The algorithm alternates *grafting* (hook a vertex's label chain
//! under any smaller label seen across an edge) and *shortcutting*
//! (pointer-jump every label to its chain's root) until a fixed point.
//! Labels only ever decrease and every intermediate label names a vertex
//! inside the same component, so the fixed point is the component's
//! minimum vertex id: the output is canonical and comparable bit-for-bit,
//! at any thread count, with the serial union-find in `snap_kernels::cc`
//! — an independent algorithm, so the two cannot share a bug.
//!
//! Work distribution: the vertex id space is cut into
//! [`GraphView::vertex_chunks`] ranges and both phases run through
//! [`crate::frontier::par_for_ranges_stats`] — per-worker range deals
//! with stealing, so a range hiding a power-law hub delays one chunk,
//! not one thread's entire static share. The sweep width is
//! volume-gated by [`ParConfig::fork_width`] over the whole view
//! (`n + m`): on an effective width of 1 every sweep runs inline and the
//! fork/join barrier disappears. The input view must be symmetric
//! (undirected), as for the serial kernel.

use crate::frontier::{par_for_ranges_stats, sweep_grain, ParStats};
use crate::ParConfig;
use snap_core::GraphView;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// Parallel connected components with the default [`ParConfig`].
/// Returns the canonical min-id label per vertex.
///
/// # Examples
///
/// ```
/// use snap_core::CsrGraph;
/// use snap_par::par_cc;
/// use snap_rmat::TimedEdge;
///
/// let edges = vec![TimedEdge::new(0, 1, 1), TimedEdge::new(2, 3, 1)];
/// let g = CsrGraph::from_edges_undirected(4, &edges);
/// // Canonical min-id labels, identical to the serial union-find.
/// assert_eq!(par_cc(&g), vec![0, 0, 2, 2]);
/// ```
pub fn par_cc<V: GraphView>(view: &V) -> Vec<u32> {
    par_cc_with(view, &ParConfig::default())
}

/// Parallel connected components under an explicit configuration.
pub fn par_cc_with<V: GraphView>(view: &V, cfg: &ParConfig) -> Vec<u32> {
    par_cc_stats(view, cfg).0
}

/// Like [`par_cc_with`], also returning the runtime's scheduling
/// counters (every graft and shortcut sweep counts as one level).
pub fn par_cc_stats<V: GraphView>(view: &V, cfg: &ParConfig) -> (Vec<u32>, ParStats) {
    let n = view.num_vertices();
    let m = view.num_entries();
    if n + m <= cfg.serial_threshold {
        crate::metrics::publish(&ParStats::default());
        return (
            snap_kernels::connected_components(view),
            ParStats::default(),
        );
    }
    // Every sweep scans the whole view, so the level volume *is* the
    // view: the gate decides once whether this host forks at all.
    let work = n + m;
    let width = cfg.fork_width(work, work);
    let mut stats = ParStats::default();
    let ranges: Vec<Range<u32>> = view.vertex_chunks(sweep_grain(n, width)).collect();
    let label: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
    let changed = AtomicBool::new(true);
    // ordering: Relaxed — read between sweeps; each sweep's join
    // barrier publishes the stores (invariant 8) and the fixed point
    // re-checks.
    while changed.swap(false, Ordering::Relaxed) {
        // Graft: relaxed racy hooking is convergent — the outer loop
        // re-checks until a fixed point and labels only decrease.
        par_for_ranges_stats(
            &ranges,
            width,
            |r| {
                for u in r {
                    // ordering: Relaxed — labels are monotone minima;
                    // stale reads only delay the fixed point; the
                    // sweep join publishes the stores (invariant 8).
                    let lu = label[u as usize].load(Ordering::Relaxed);
                    view.for_each_edge(u, |v, _| {
                        // ordering: Relaxed — as above.
                        let lv = label[v as usize].load(Ordering::Relaxed);
                        if lv < lu {
                            if try_lower(&label, u, lv) {
                                // ordering: Relaxed — progress flag
                                // read after the sweep join.
                                changed.store(true, Ordering::Relaxed);
                            }
                        } else if lu < lv && try_lower(&label, v, lu) {
                            // ordering: Relaxed — as above.
                            changed.store(true, Ordering::Relaxed);
                        }
                    });
                }
            },
            &mut stats,
        );
        stats.edges_scanned += m as u64;
        // Shortcut: pointer-jump every label chain to its root.
        par_for_ranges_stats(
            &ranges,
            width,
            |r| {
                for u in r {
                    // ordering: Relaxed (all) — pointer jumping over
                    // monotone labels; racy jumps land on valid roots
                    // and the outer fixed point absorbs staleness.
                    let mut l = label[u as usize].load(Ordering::Relaxed);
                    loop {
                        // ordering: Relaxed — see above.
                        let ll = label[l as usize].load(Ordering::Relaxed);
                        if ll == l {
                            break;
                        }
                        l = ll;
                    }
                    // ordering: Relaxed — see above.
                    label[u as usize].store(l, Ordering::Relaxed);
                }
            },
            &mut stats,
        );
    }
    crate::metrics::publish(&stats);
    (label.into_iter().map(|l| l.into_inner()).collect(), stats)
}

/// CAS-lowers `x`'s label to `to` if smaller; true if changed.
fn try_lower(label: &[AtomicU32], x: u32, to: u32) -> bool {
    // ordering: Relaxed (load and CAS) — the CAS only lowers the
    // monotone label; sweep joins publish results (invariant 8).
    let mut cur = label[x as usize].load(Ordering::Relaxed);
    while to < cur {
        // ordering: Relaxed — covered by the note above.
        match label[x as usize].compare_exchange_weak(cur, to, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => return true,
            Err(now) => cur = now,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_core::CsrGraph;
    use snap_kernels::cc::union_find_components;
    use snap_kernels::{component_count, connected_components};
    use snap_rmat::{Rmat, RmatParams, TimedEdge};

    // Gate 0 keeps the forked path exercised even on single-core hosts,
    // where the Auto grain would (correctly) run everything inline.
    fn force() -> ParConfig {
        ParConfig::default()
            .with_serial_threshold(0)
            .with_threads(4)
            .with_level_grain(crate::Grain::Edges(0))
    }

    #[test]
    fn matches_serial_kernel_and_union_find_on_rmat() {
        let rm = Rmat::new(RmatParams::paper(11, 4), 17);
        let edges = rm.edges();
        let g = CsrGraph::from_edges_undirected(1 << 11, &edges);
        let par = par_cc_with(&g, &force());
        assert_eq!(par, connected_components(&g));
        assert_eq!(
            par,
            union_find_components(1 << 11, edges.iter().map(|e| (e.u, e.v)))
        );
    }

    #[test]
    fn long_path_converges_to_min_label() {
        let edges: Vec<TimedEdge> = (0..1999).map(|i| TimedEdge::new(i, i + 1, 1)).collect();
        let g = CsrGraph::from_edges_undirected(2000, &edges);
        let labels = par_cc_with(&g, &force());
        assert!(labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn components_and_isolates() {
        let edges = vec![
            TimedEdge::new(0, 1, 1),
            TimedEdge::new(1, 2, 1),
            TimedEdge::new(5, 6, 1),
        ];
        let g = CsrGraph::from_edges_undirected(8, &edges);
        let labels = par_cc_with(&g, &force());
        assert_eq!(labels, vec![0, 0, 0, 3, 4, 5, 5, 7]);
        assert_eq!(component_count(&labels), 5);
    }

    #[test]
    fn small_graph_falls_back_to_serial() {
        let g = CsrGraph::from_edges_undirected(4, &[TimedEdge::new(1, 2, 1)]);
        assert_eq!(par_cc(&g), connected_components(&g));
    }

    #[test]
    fn stats_count_sweeps_and_edges() {
        let edges: Vec<TimedEdge> = (0..1999).map(|i| TimedEdge::new(i, i + 1, 1)).collect();
        let g = CsrGraph::from_edges_undirected(2000, &edges);
        let (labels, stats) = par_cc_stats(&g, &force());
        assert!(labels.iter().all(|&l| l == 0));
        // Each round is one graft + one shortcut sweep, and each graft
        // scans every directed entry once.
        assert!(stats.levels() >= 2 && stats.levels() % 2 == 0);
        assert_eq!(stats.edges_scanned, (stats.levels() / 2) * 2 * 1999);
        // Auto grain at one pinned worker: every sweep stays inline.
        let auto = ParConfig::default()
            .with_serial_threshold(0)
            .with_threads(1);
        let (l2, s2) = par_cc_stats(&g, &auto);
        assert_eq!(l2, labels);
        assert_eq!(s2.forked_levels, 0);
        assert_eq!(s2.chunks_built, 0);
    }
}
