//! Parallel connected components: Afforest (Sutton, Ben-Nun and Barak,
//! IPDPS'18) — union-find by CAS linking, with subgraph sampling to skip
//! most of the largest component's edges.
//!
//! Every vertex starts as its own root in a parent array. A *link*
//! joins the trees of an edge's endpoints by hooking the larger root
//! under the smaller with one compare-exchange, so a vertex only ever
//! points at a smaller id, every root is its tree's minimum, and the
//! final roots are the component minima under any interleaving. A
//! *compress* sweep then points every vertex straight at its root. The
//! kernel runs four sweeps:
//!
//! 1. link every vertex to its first two entries in adjacency order
//!    (the sampled subgraph, which already joins most of the largest
//!    component);
//! 2. compress, then sample 1024 vertices and take the most frequent
//!    root — almost surely the largest component's;
//! 3. link every entry after the first two of each vertex *not* under
//!    that root: an edge from a skipped vertex to another tree is linked
//!    from the other side, since the view is symmetric;
//! 4. compress again.
//!
//! The output is the canonical min-id label per vertex, bit-identical
//! at any thread count to the serial union-find in `snap_kernels::cc`.
//! Both are union-find, so `tests/parallel_equivalence.rs` also checks
//! them against min-id labels built from `serial_bfs`.
//!
//! Every sweep walks [`GraphView::vertex_chunks`] ranges, with the width
//! gated by [`ParConfig::fork_width`] over the whole view (`n + m`): on
//! an effective width of 1, or a view at or below the gate, every sweep
//! runs inline and nothing is spawned.
//! A directed view skips no vertex, so every entry is linked and the
//! labels are its weakly connected components, as for the serial kernel.

use crate::frontier::{par_for_ranges_stats, sweep_grain, ParStats};
use crate::ParConfig;
use snap_core::GraphView;
use snap_util::rng::SplitMix64;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Entries per vertex the first link sweep takes (Afforest's neighbor
/// rounds).
const NEIGHBOR_ROUNDS: usize = 2;

/// Vertices sampled to find the largest component's root.
const SAMPLES: usize = 1024;

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
/// counters (every link and compress sweep counts as one level). A view
/// backed by a CSR ([`GraphView::as_csr`]) runs the kernel monomorphised
/// for that CSR.
pub fn par_cc_stats<V: GraphView>(view: &V, cfg: &ParConfig) -> (Vec<u32>, ParStats) {
    match view.as_csr() {
        Some(csr) => cc_stats(csr, cfg),
        None => cc_stats(view, cfg),
    }
}

fn cc_stats<V: GraphView>(view: &V, cfg: &ParConfig) -> (Vec<u32>, ParStats) {
    let n = view.num_vertices();
    let m = view.num_entries();
    // Every sweep scans the whole view, so the level volume *is* the
    // view: the gate decides once whether this host forks at all.
    let work = n + m;
    let width = cfg.fork_width(work, work);
    let mut stats = ParStats::default();
    let ranges: Vec<Range<u32>> = view.vertex_chunks(sweep_grain(n, width)).collect();
    let parent: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
    let scanned = AtomicU64::new(0);
    // 1. The sampled subgraph: each vertex's first entries.
    par_for_ranges_stats(
        &ranges,
        width,
        |r| {
            let mut seen = 0u64;
            for u in r {
                let mut k = 0;
                view.find_edge(u, |v, _| {
                    link(&parent, u, v);
                    k += 1;
                    k == NEIGHBOR_ROUNDS
                });
                seen += k as u64;
            }
            // ordering: Relaxed — a statistic, read after the joins.
            scanned.fetch_add(seen, Ordering::Relaxed);
        },
        &mut stats,
    );
    compress(&parent, &ranges, width, &mut stats);
    // 2. Skip the most frequent root's vertices (none on a directed
    // view, whose entries are not mirrored).
    let skip = (n > 0 && !view.is_directed()).then(|| most_frequent_root(&parent));
    // 3. The rest of every other vertex's entries, in the same order.
    par_for_ranges_stats(
        &ranges,
        width,
        |r| {
            let mut seen = 0u64;
            for u in r {
                // ordering: Relaxed — a stale parent only sends u through
                // the link loop, which is always safe.
                if skip == Some(parent[u as usize].load(Ordering::Relaxed)) {
                    continue;
                }
                let mut k = 0;
                view.for_each_edge(u, |v, _| {
                    if k >= NEIGHBOR_ROUNDS {
                        link(&parent, u, v);
                        seen += 1;
                    }
                    k += 1;
                });
            }
            // ordering: Relaxed — a statistic, read after the joins.
            scanned.fetch_add(seen, Ordering::Relaxed);
        },
        &mut stats,
    );
    compress(&parent, &ranges, width, &mut stats);
    stats.edges_scanned += scanned.into_inner();
    crate::metrics::publish(&stats);
    (parent.into_iter().map(|p| p.into_inner()).collect(), stats)
}

/// Joins the trees of `u` and `v` (Afforest's `Link`). Only a root is
/// ever rewritten, and only to a smaller id: the compare-exchange hooks
/// root `high` under `low` unless another link moved `high` first, in
/// which case both sides climb and retry.
fn link(parent: &[AtomicU32], u: u32, v: u32) {
    // ordering: Relaxed (all loads and the CAS) — the parent words carry
    // no other data; each only decreases, so a stale read is an older
    // ancestor and the loop retries from it; the sweep join publishes
    // the final trees (invariants 7, 8).
    let get = |x: u32| parent[x as usize].load(Ordering::Relaxed);
    let (mut a, mut b) = (get(u), get(v));
    while a != b {
        let (high, low) = (a.max(b), a.min(b));
        let up = get(high);
        if up == low
            || (up == high
                && parent[high as usize]
                    // ordering: Relaxed — see above.
                    .compare_exchange(high, low, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok())
        {
            return;
        }
        a = get(up);
        b = get(low);
    }
}

/// Points every vertex straight at its root. No link runs during the
/// sweep, so roots stay roots and each vertex's word has one writer.
fn compress(parent: &[AtomicU32], ranges: &[Range<u32>], width: usize, stats: &mut ParStats) {
    par_for_ranges_stats(
        ranges,
        width,
        |r| {
            for u in r {
                // ordering: Relaxed (all) — u's range owner is its only
                // writer; an ancestor read stale is still an ancestor;
                // the sweep join publishes (invariants 7, 8).
                let get = |x: u32| parent[x as usize].load(Ordering::Relaxed);
                let mut p = get(u);
                let mut up = get(p);
                if p != up {
                    while p != up {
                        p = up;
                        up = get(p);
                    }
                    // ordering: Relaxed — see above.
                    parent[u as usize].store(p, Ordering::Relaxed);
                }
            }
        },
        stats,
    );
}

/// The root most of [`SAMPLES`] seeded random vertices sit under; a tie
/// goes to the smaller root. Call after a compress.
fn most_frequent_root(parent: &[AtomicU32]) -> u32 {
    let mut rng = SplitMix64::new(0x5eed_af0e);
    let n = parent.len() as u64;
    let mut roots: Vec<u32> = (0..SAMPLES)
        // ordering: Relaxed — read after the compress sweep's join.
        .map(|_| parent[(rng.next() % n) as usize].load(Ordering::Relaxed))
        .collect();
    roots.sort_unstable();
    roots
        .chunk_by(|a, b| a == b)
        .max_by_key(|run| (run.len(), std::cmp::Reverse(run[0])))
        .map_or(0, |run| run[0])
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
    fn small_graph_matches_serial() {
        let g = CsrGraph::from_edges_undirected(4, &[TimedEdge::new(1, 2, 1)]);
        assert_eq!(par_cc(&g), connected_components(&g));
    }

    #[test]
    fn stats_count_sweeps_and_edges() {
        let edges: Vec<TimedEdge> = (0..1999).map(|i| TimedEdge::new(i, i + 1, 1)).collect();
        let g = CsrGraph::from_edges_undirected(2000, &edges);
        let (labels, stats) = par_cc_stats(&g, &force());
        assert!(labels.iter().all(|&l| l == 0));
        // Four sweeps: link, compress, link the rest, compress. No path
        // vertex has more than two entries, so the first sweep links
        // every entry once and the third finds none left.
        assert_eq!(stats.levels(), 4);
        assert_eq!(stats.edges_scanned, 2 * 1999);
        // A star: the first sweep joins every leaf under the hub, the
        // sample finds the hub's root, and the third sweep skips every
        // vertex — the hub's other 3998 entries are never read.
        let star: Vec<TimedEdge> = (1..=4000).map(|v| TimedEdge::new(0, v, 1)).collect();
        let star = CsrGraph::from_edges_undirected(4001, &star);
        let (star_labels, star_stats) = par_cc_stats(&star, &force());
        assert!(star_labels.iter().all(|&l| l == 0));
        assert_eq!(star_stats.edges_scanned, 4000 + 2);
        // Auto grain at one pinned worker: every sweep stays inline.
        let auto = ParConfig::default().with_threads(1);
        let (l2, s2) = par_cc_stats(&g, &auto);
        assert_eq!(l2, labels);
        assert_eq!(s2.forked_levels, 0);
        assert_eq!(s2.chunks_built, 0);
    }
}
