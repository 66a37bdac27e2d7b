//! Parallel restricted hop-distance relabeling: the repair kernel the
//! incremental [`DistanceIndex`] plugs in when a deletion-dirtied
//! region is too big for the serial bucket queue.
//!
//! The problem mirrors `par_cc_restricted`: given an ascending vertex
//! subset `verts` and per-position external seeds `ext` (the best
//! distance reachable through a neighbor *outside* the subset, or the
//! source's own 0), compute the unique fixed point
//!
//! ```text
//! d[i] = min(ext[i], min over in-subset neighbors j of d[j] + 1)
//! ```
//!
//! Distances only ever decrease from their `ext` seeds and the fixed
//! point is the exact hop distance over paths confined to the subset —
//! a unique value, so the chaotic parallel relaxation below is
//! **bit-identical** to the serial Dial's-bucket kernel
//! ([`restricted_hop_distances`]) at any thread count.
//!
//! Work distribution follows the `cc` sweeps: position ranges over
//! `verts` run through [`frontier::par_for_ranges`], with the fork
//! width volume-gated by [`ParConfig`] over the subset plus its
//! incident edges. A small dirtied region never pays a fork/join
//! barrier — it falls through to the serial kernel.

use crate::cc::{chunk_positions, try_lower};
use crate::frontier::{self, sweep_grain};
use crate::ParConfig;
use snap_core::distindex::{restricted_hop_distances, DistanceIndex, UNREACHED};
use snap_core::GraphView;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// Parallel restricted hop distances over the subset `verts`
/// (ascending) with external seeds `ext` (position-indexed;
/// [`UNREACHED`] = no external path). Bit-identical to
/// [`restricted_hop_distances`] at any thread count; falls back to it
/// below the size threshold.
///
/// # Examples
///
/// ```
/// use snap_core::CsrGraph;
/// use snap_par::{par_restricted_bfs, ParConfig};
/// use snap_rmat::TimedEdge;
///
/// // Path 0-1-2-3; repair the tail {2, 3} with 2 seeded at distance 2.
/// let edges: Vec<TimedEdge> = (0..3).map(|i| TimedEdge::new(i, i + 1, 1)).collect();
/// let g = CsrGraph::from_edges_undirected(4, &edges);
/// let d = par_restricted_bfs(&g, &[2, 3], &[2, u32::MAX], &ParConfig::default());
/// assert_eq!(d, vec![2, 3]);
/// ```
pub fn par_restricted_bfs<V: GraphView>(
    view: &V,
    verts: &[u32],
    ext: &[u32],
    cfg: &ParConfig,
) -> Vec<u32> {
    debug_assert_eq!(verts.len(), ext.len());
    debug_assert!(verts.windows(2).all(|w| w[0] < w[1]), "verts must ascend");
    let k = verts.len();
    // Repair volume = subset + incident edges; small regions run serial.
    let vol = k + verts.iter().map(|&u| view.degree(u)).sum::<usize>();
    let width = frontier::fork_width(vol, cfg.level_gate(vol), cfg.worker_count());
    if k <= cfg.serial_threshold || width <= 1 {
        return restricted_hop_distances(view, verts, ext);
    }
    let ranges: Vec<Range<u32>> = chunk_positions(k, sweep_grain(k, width));
    let dist: Vec<AtomicU32> = ext.iter().map(|&d| AtomicU32::new(d)).collect();
    let changed = AtomicBool::new(true);
    // ordering: Relaxed — same sweep-join discipline as the cc sweeps
    // (invariant 8): the join barrier publishes each sweep's stores and
    // the fixed point re-checks.
    while changed.swap(false, Ordering::Relaxed) {
        frontier::par_for_ranges(&ranges, width, |r| {
            for i in r {
                // ordering: Relaxed — distances are monotone minima;
                // a stale read only delays the fixed point.
                let di = dist[i as usize].load(Ordering::Relaxed);
                if di == UNREACHED {
                    continue; // cannot lower any neighbor yet
                }
                view.for_each_edge(verts[i as usize], |w, _| {
                    let Ok(j) = verts.binary_search(&w) else {
                        return; // edge leaves the subset: ext covers it
                    };
                    if try_lower(&dist, j as u32, di + 1) {
                        // ordering: Relaxed — progress flag read after
                        // the sweep join.
                        changed.store(true, Ordering::Relaxed);
                    }
                });
            }
        });
    }
    dist.into_iter().map(AtomicU32::into_inner).collect()
}

/// Repairs one deletion-dirtied source row of a [`DistanceIndex`] using
/// [`par_restricted_bfs`] as the relabeler — the parallel counterpart
/// of the index's own lazy, serial repair. Returns whether a repair ran
/// (false = the row was already clean).
pub fn par_dist_repair<V: GraphView>(
    index: &DistanceIndex,
    view: &V,
    source: u32,
    cfg: &ParConfig,
) -> bool {
    if !index.is_source_dirty(source) {
        return false;
    }
    index.repair_source_with(view, source, |v, verts, ext| {
        par_restricted_bfs(v, verts, ext, cfg)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_core::CsrGraph;
    use snap_rmat::{Rmat, RmatParams, TimedEdge};

    // Force the forked path even on single-core hosts.
    fn force() -> ParConfig {
        ParConfig::default()
            .with_serial_threshold(0)
            .with_threads(4)
            .with_level_grain(crate::Grain::Edges(0))
    }

    #[test]
    fn matches_serial_restricted_on_rmat_subsets() {
        let rm = Rmat::new(RmatParams::paper(11, 4), 29);
        let g = CsrGraph::from_edges_undirected(1 << 11, &rm.edges());
        // Every third vertex, seeded by a sparse external pattern.
        let verts: Vec<u32> = (0..1u32 << 11).step_by(3).collect();
        let ext: Vec<u32> = verts
            .iter()
            .map(|&u| if u % 17 == 0 { u % 5 } else { UNREACHED })
            .collect();
        let par = par_restricted_bfs(&g, &verts, &ext, &force());
        let serial = restricted_hop_distances(&g, &verts, &ext);
        assert_eq!(par, serial);
    }

    #[test]
    fn all_unreachable_seeds_stay_unreachable() {
        let edges: Vec<TimedEdge> = (0..99).map(|i| TimedEdge::new(i, i + 1, 1)).collect();
        let g = CsrGraph::from_edges_undirected(100, &edges);
        let verts: Vec<u32> = (0..100).collect();
        let ext = vec![UNREACHED; 100];
        let d = par_restricted_bfs(&g, &verts, &ext, &force());
        assert!(d.iter().all(|&x| x == UNREACHED));
    }

    #[test]
    fn long_path_converges_from_one_seed() {
        let n = 3000u32;
        let edges: Vec<TimedEdge> = (0..n - 1).map(|i| TimedEdge::new(i, i + 1, 1)).collect();
        let g = CsrGraph::from_edges_undirected(n as usize, &edges);
        let verts: Vec<u32> = (0..n).collect();
        let mut ext = vec![UNREACHED; n as usize];
        ext[0] = 0;
        let d = par_restricted_bfs(&g, &verts, &ext, &force());
        assert_eq!(d, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn par_dist_repair_fixes_a_deletion_split() {
        use snap_core::adjacency::CapacityHints;
        use snap_core::{DistanceIndex, DynGraph, HybridAdj};
        let n = 4096usize;
        let g: DynGraph<HybridAdj> = DynGraph::undirected(n, &CapacityHints::new(2 * n));
        for i in 0..n as u32 - 1 {
            g.insert_edge(TimedEdge::new(i, i + 1, 1));
        }
        // A shortcut keeps the tail reachable after the path snaps.
        g.insert_edge(TimedEdge::new(0, 3000, 1));
        let idx = DistanceIndex::from_view(&g, &[0]);
        g.delete_edge(2000, 2001);
        idx.note_delete(2000, 2001);
        assert!(idx.is_source_dirty(0));
        assert!(par_dist_repair(&idx, &g, 0, &force()));
        assert!(!idx.is_source_dirty(0));
        assert_eq!(idx.repair_count(), 1);
        assert_eq!(idx.full_rebuild_count(), 0);
        // Bit-identical to a from-scratch oracle over the live graph.
        let oracle = DistanceIndex::from_view(&g, &[0]);
        assert_eq!(idx.distances(&g, 0), oracle.distances(&g, 0));
        // Clean row: repair is a no-op.
        assert!(!par_dist_repair(&idx, &g, 0, &force()));
        assert_eq!(idx.repair_count(), 1);
    }
}
