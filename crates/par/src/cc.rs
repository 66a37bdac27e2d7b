//! Parallel connected components: Shiloach–Vishkin label propagation
//! with pointer jumping, executed over real worker threads.
//!
//! The algorithm matches the serial kernel in `snap_kernels::cc` —
//! alternate *grafting* (hook a vertex's label chain under any smaller
//! label seen across an edge) and *shortcutting* (pointer-jump every
//! label to its chain's root) until a fixed point. Labels only ever
//! decrease and every intermediate label names a vertex inside the same
//! component, so the fixed point is the component's minimum vertex id:
//! the output is canonical and comparable with the serial kernel
//! bit-for-bit, at any thread count.
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

use crate::frontier::{self, par_for_ranges_stats, sweep_grain, ParStats};
use crate::ParConfig;
use snap_core::connectivity::{restricted_component_labels, ConnectivityIndex};
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
/// // Canonical min-id labels, identical to the serial kernel.
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
                    // stale reads only delay the fixed point, as in
                    // the kernels::cc sweep (invariant 8).
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

/// Parallel connected components **restricted to a vertex subset**:
/// canonical minimum-id labels for `verts` (ascending) over the live
/// edges of `view`, ignoring edges that leave the subset. Same
/// grafting-and-pointer-jumping scheme as [`par_cc_with`], but label
/// state is
/// position-indexed over `verts`, so the cost scales with the subset —
/// this is the relabeler of the dynamic-connectivity index's
/// whole-component fallback (see [`par_repair`]). Falls back to the serial restricted
/// kernel below the size threshold.
pub fn par_cc_restricted<V: GraphView>(view: &V, verts: &[u32], cfg: &ParConfig) -> Vec<u32> {
    debug_assert!(verts.windows(2).all(|w| w[0] < w[1]), "verts must ascend");
    let k = verts.len();
    // The repair volume is the subset plus its incident edges — a small
    // dirtied component should never pay a fork/join barrier.
    let vol = k + verts.iter().map(|&u| view.degree(u)).sum::<usize>();
    let width = frontier::fork_width(vol, cfg.level_gate(vol), cfg.worker_count());
    if k <= cfg.serial_threshold || width <= 1 {
        return restricted_component_labels(view, verts);
    }
    let ranges: Vec<Range<u32>> = chunk_positions(k, sweep_grain(k, width));
    // label[i] is a *position* into verts; positions are id-ordered, so
    // the min-position fixed point is the min-id label.
    let label: Vec<AtomicU32> = (0..k as u32).map(AtomicU32::new).collect();
    let changed = AtomicBool::new(true);
    // ordering: Relaxed — same sweep-join discipline as `par_cc` above
    // (invariant 8); every site in this restricted pass mirrors the
    // full-graph pass.
    while changed.swap(false, Ordering::Relaxed) {
        frontier::par_for_ranges(&ranges, width, |r| {
            for i in r {
                // ordering: Relaxed — monotone label, as in par_cc.
                let li = label[i as usize].load(Ordering::Relaxed);
                view.for_each_edge(verts[i as usize], |w, _| {
                    let Ok(j) = verts.binary_search(&w) else {
                        return; // edge leaves the subset
                    };
                    // ordering: Relaxed — as above.
                    let lj = label[j].load(Ordering::Relaxed);
                    if lj < li {
                        if try_lower(&label, i, lj) {
                            // ordering: Relaxed — progress flag.
                            changed.store(true, Ordering::Relaxed);
                        }
                    } else if li < lj && try_lower(&label, j as u32, li) {
                        // ordering: Relaxed — progress flag.
                        changed.store(true, Ordering::Relaxed);
                    }
                });
            }
        });
        frontier::par_for_ranges(&ranges, width, |r| {
            for i in r {
                // ordering: Relaxed (all) — pointer jumping, as in
                // par_cc's shortcut sweep.
                let mut l = label[i as usize].load(Ordering::Relaxed);
                loop {
                    // ordering: Relaxed — see above.
                    let ll = label[l as usize].load(Ordering::Relaxed);
                    if ll == l {
                        break;
                    }
                    l = ll;
                }
                // ordering: Relaxed — see above.
                label[i as usize].store(l, Ordering::Relaxed);
            }
        });
    }
    label
        .into_iter()
        .map(|l| verts[l.into_inner() as usize])
        .collect()
}

/// Settles `u`'s component in a [`ConnectivityIndex`] with
/// [`par_cc_restricted`] as the relabeler of the whole-component
/// fallback — the parallel counterpart of the index's own lazy,
/// serial repair. Pending deletions go through the
/// index's certificate first (a replacement search bounded by the
/// smaller side of the cut); the parallel kernel runs only if the
/// component is still marked for a whole relabel after that. Returns
/// the post-repair root of `u`. A no-op (beyond one find) when nothing
/// is pending.
pub fn par_repair<V: GraphView>(
    index: &ConnectivityIndex,
    view: &V,
    u: u32,
    cfg: &ParConfig,
) -> u32 {
    if !index.has_dirty() {
        return index.find(u);
    }
    index.repair_with(view, u, |v, verts| par_cc_restricted(v, verts, cfg))
}

/// Contiguous position ranges `0..k` of at most `grain` each.
pub(crate) fn chunk_positions(k: usize, grain: usize) -> Vec<Range<u32>> {
    let grain = grain.max(1);
    (0..k)
        .step_by(grain)
        .map(|lo| lo as u32..((lo + grain).min(k)) as u32)
        .collect()
}

/// CAS-lowers `x`'s label to `to` if smaller; true if changed.
pub(crate) fn try_lower(label: &[AtomicU32], x: u32, to: u32) -> bool {
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

    #[test]
    fn restricted_matches_serial_restricted_on_rmat() {
        use snap_core::connectivity::restricted_component_labels;
        let rm = Rmat::new(RmatParams::paper(11, 4), 23);
        let g = CsrGraph::from_edges_undirected(1 << 11, &rm.edges());
        // Restrict to every third vertex: edges leaving the subset must
        // be ignored identically by both kernels.
        let verts: Vec<u32> = (0..1u32 << 11).step_by(3).collect();
        let par = par_cc_restricted(&g, &verts, &force());
        let serial = restricted_component_labels(&g, &verts);
        assert_eq!(par, serial);
        // Full vertex set: restricted == unrestricted.
        let all: Vec<u32> = (0..1u32 << 11).collect();
        assert_eq!(
            par_cc_restricted(&g, &all, &force()),
            par_cc_with(&g, &force())
        );
    }

    #[test]
    fn par_repair_fixes_a_deletion_split() {
        use snap_core::adjacency::CapacityHints;
        use snap_core::{ConnectivityIndex, DynGraph, HybridAdj};
        let n = 4096usize;
        let g: DynGraph<HybridAdj> = DynGraph::undirected(n, &CapacityHints::new(2 * n));
        for i in 0..n as u32 - 1 {
            g.insert_edge(TimedEdge::new(i, i + 1, 1));
        }
        let idx = ConnectivityIndex::from_view(&g);
        g.delete_edge(2000, 2001);
        idx.note_delete(2000, 2001);
        let root = par_repair(&idx, &g, 3000, &force());
        assert_eq!(root, 2001, "upper half relabels to its min id");
        assert_eq!(idx.repair_count(), 1);
        assert!(!idx.same_component(&g, 0, 4095));
        assert!(idx.same_component(&g, 2001, 4095));
        assert_eq!(idx.repair_count(), 1, "queries after repair are free");
        // Clean component: par_repair is a no-op find.
        assert_eq!(par_repair(&idx, &g, 0, &force()), 0);
        assert_eq!(idx.repair_count(), 1);
        // The repaired labels are canonical: oracle agreement.
        let surviving: Vec<(u32, u32)> = (0..n as u32 - 1)
            .filter(|&i| i != 2000)
            .map(|i| (i, i + 1))
            .collect();
        assert_eq!(
            idx.labels(&g),
            union_find_components(n, surviving.into_iter())
        );
    }
}
