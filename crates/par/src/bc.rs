//! Parallel betweenness centrality: multi-source Brandes over the
//! runtime's work-distribution machinery, bit-identical to the serial
//! kernel at any thread count.
//!
//! Betweenness is the paper lineage's flagship workload (Madduri &
//! Bader's prior SNAP work is best known for lock-free parallel BC on
//! massive small-world graphs). This kernel runs Brandes' algorithm from
//! many sources — all of them ([`BcSources::Exact`]) or a uniform sample
//! extrapolated by `n / k` ([`BcSources::Sample`], the paper samples 256
//! sources) — with one parallelization granularity: whole
//! [`SOURCE_BLOCK`]-sized blocks of sources are distributed over
//! workers, and each worker runs an optimized serial Brandes per source
//! into a per-worker partial score vector (scratch buffers reused across
//! its sources, and a CSR fast path that scans the neighbor array alone —
//! static BC never reads timestamps). Nothing is shared inside a source,
//! so nothing is synchronized there. Fewer sources than one block run as
//! one block on the calling thread.
//!
//! # Determinism and bit-reproducibility
//!
//! Scores reproduce `snap_kernels::betweenness_exact` /
//! `betweenness_approx` **bit-for-bit at any thread count** — the
//! equivalence suite asserts literal `f64` equality, not tolerance. Two
//! properties make that possible (shared with the serial kernel; see
//! `snap_kernels::bc` for the full contract):
//!
//! - each source's traversal is the serial kernel's, in the same
//!   adjacency order: integer-exact path counts (`sigma`) forward, and
//!   dependency sums (`delta`) in *gather* form backward — each vertex
//!   pulls from its DAG successors in its own adjacency order;
//! - cross-source accumulation folds fixed [`SOURCE_BLOCK`]-sized
//!   partial vectors in ascending block order, a grouping independent of
//!   the thread count.
//!
//! # Serial fallback
//!
//! Graphs with `n + m <=` [`ParConfig::serial_threshold`] dispatch to the
//! serial kernel directly, like every kernel in this crate.

use crate::frontier::ParStats;
use crate::ParConfig;
use snap_core::GraphView;
use snap_kernels::bc::{sample_sources, SOURCE_BLOCK};
use snap_kernels::{betweenness_approx, betweenness_exact, UNREACHED};

/// Which vertices to run Brandes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BcSources {
    /// Every vertex: exact betweenness.
    Exact,
    /// `k` sources sampled uniformly (seeded, reproducible); scores are
    /// extrapolated by `n / k` — the paper's approximation scheme.
    Sample {
        /// Number of sampled sources (clamped to `n`).
        k: usize,
        /// Seed for the sampling shuffle.
        seed: u64,
    },
}

/// Exact parallel betweenness centrality with the default configuration.
///
/// # Examples
///
/// ```
/// use snap_core::CsrGraph;
/// use snap_par::{par_bc, par_bc_with, BcSources, ParConfig};
/// use snap_rmat::TimedEdge;
///
/// // Path 0-1-2-3: the two middle vertices carry all transit pairs.
/// let edges: Vec<TimedEdge> = (0..3).map(|i| TimedEdge::new(i, i + 1, 1)).collect();
/// let g = CsrGraph::from_edges_undirected(4, &edges);
/// let bc = par_bc(&g);
/// assert_eq!(bc, vec![0.0, 4.0, 4.0, 0.0]);
///
/// // The parallel path (forced below the serial threshold) must agree
/// // with the serial kernel bit-for-bit.
/// let cfg = ParConfig::default().with_serial_threshold(0).with_threads(2);
/// let par = par_bc_with(&g, BcSources::Exact, &cfg);
/// assert_eq!(par, snap_kernels::betweenness_exact(&g));
/// ```
pub fn par_bc<V: GraphView>(view: &V) -> Vec<f64> {
    par_bc_with(view, BcSources::Exact, &ParConfig::default())
}

/// Parallel betweenness centrality from `sources` under an explicit
/// runtime configuration. Returns one score per vertex; see the module
/// docs for the exactness and determinism contract.
pub fn par_bc_with<V: GraphView>(view: &V, sources: BcSources, cfg: &ParConfig) -> Vec<f64> {
    let n = view.num_vertices();
    if n + view.num_entries() <= cfg.serial_threshold {
        crate::metrics::publish(&ParStats::default());
        return match sources {
            BcSources::Exact => betweenness_exact(view),
            BcSources::Sample { k, seed } => betweenness_approx(view, &sample_sources(n, k, seed)),
        };
    }
    let (sources, scale) = match sources {
        BcSources::Exact => ((0..n as u32).collect::<Vec<u32>>(), 1.0),
        BcSources::Sample { k, seed } => {
            let s = sample_sources(n, k, seed);
            let scale = n as f64 / s.len().max(1) as f64;
            (s, scale)
        }
    };
    let mut stats = ParStats::default();
    let mut scores = bc_source_parallel(view, &sources, cfg, &mut stats);
    crate::metrics::publish(&stats);
    if scale != 1.0 {
        for x in scores.iter_mut() {
            *x *= scale;
        }
    }
    scores
}

/// Per-worker Brandes state, reused across every source the worker runs:
/// a full reset would cost O(n) per source, so [`Scratch::reset`] undoes
/// only the vertices the previous traversal reached (recorded in
/// `order`).
struct Scratch {
    dist: Vec<u32>,
    sigma: Vec<f64>,
    delta: Vec<f64>,
    /// Reached vertices in discovery order, level-contiguous.
    order: Vec<u32>,
    /// `bounds[l]` = start of level `l` in `order`; a trailing entry
    /// equal to `order.len()` closes the deepest level.
    bounds: Vec<usize>,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Self {
            dist: vec![UNREACHED; n],
            sigma: vec![0.0; n],
            delta: vec![0.0; n],
            order: Vec::new(),
            bounds: Vec::new(),
        }
    }

    fn reset(&mut self) {
        for &v in &self.order {
            let v = v as usize;
            self.dist[v] = UNREACHED;
            self.sigma[v] = 0.0;
            self.delta[v] = 0.0;
        }
        self.order.clear();
        self.bounds.clear();
    }
}

/// Distributes [`SOURCE_BLOCK`]-sized blocks of `sources` over the
/// volume-gated worker count in waves; block partials fold into the
/// total in ascending block order regardless of which worker computed
/// them (the bit-reproducibility contract). The volume here is the full
/// run — one traversal of the view per source — so on any real multicore
/// host the gate opens wide, while an effective width of 1 keeps the
/// whole run inline with zero spawns. Each wave counts as one level in
/// `stats`, and each block of a forked wave as one chunk.
fn bc_source_parallel<V: GraphView>(
    view: &V,
    sources: &[u32],
    cfg: &ParConfig,
    stats: &mut ParStats,
) -> Vec<f64> {
    let n = view.num_vertices();
    let mut bc = vec![0.0f64; n];
    let blocks: Vec<&[u32]> = sources.chunks(SOURCE_BLOCK).collect();
    let work = n + view.num_entries();
    let volume = sources.len().saturating_mul(work.max(1));
    let workers = cfg.fork_width(volume, work).clamp(1, blocks.len().max(1));
    let mut scratch: Vec<Scratch> = (0..workers).map(|_| Scratch::new(n)).collect();
    let mut partials: Vec<Vec<f64>> = (0..workers).map(|_| vec![0.0f64; n]).collect();
    for wave in blocks.chunks(workers) {
        if wave.len() <= 1 || workers <= 1 {
            for (i, block) in wave.iter().enumerate() {
                compute_block(view, block, &mut scratch[i], &mut partials[i]);
            }
            stats.serial_levels += 1;
        } else {
            stats.forked_levels += 1;
            stats.chunks_built += wave.len() as u64;
            rayon::scope(|s| {
                for ((block, st), part) in
                    wave.iter().zip(scratch.iter_mut()).zip(partials.iter_mut())
                {
                    s.spawn(move |_| compute_block(view, block, st, part));
                }
            });
        }
        // Ascending block order: wave slots are already block-ordered.
        for part in partials.iter_mut().take(wave.len()) {
            for (b, p) in bc.iter_mut().zip(part.iter()) {
                *b += *p;
            }
            part.fill(0.0);
        }
    }
    bc
}

fn compute_block<V: GraphView>(view: &V, block: &[u32], sc: &mut Scratch, part: &mut [f64]) {
    for &s in block {
        brandes_source_into(view, s, sc, part);
    }
}

/// One serial Brandes source into `acc`, with scratch reuse and a CSR
/// neighbor-array fast path. Bit-identical to the serial kernel's
/// per-source accumulation: integer-exact `sigma` sums forward, gather
/// order `delta` sums backward (see `snap_kernels::bc`).
fn brandes_source_into<V: GraphView>(view: &V, s: u32, sc: &mut Scratch, acc: &mut [f64]) {
    sc.reset();
    let Scratch {
        dist,
        sigma,
        delta,
        order,
        bounds,
    } = sc;
    dist[s as usize] = 0;
    sigma[s as usize] = 1.0;
    order.push(s);
    bounds.push(0);
    let csr = view.as_csr();
    let mut lo = 0usize;
    let mut level = 0u32;
    while lo < order.len() {
        let hi = order.len();
        level += 1;
        for i in lo..hi {
            let v = order[i];
            let sv = sigma[v as usize];
            if let Some(c) = csr {
                for &w in c.neighbors(v) {
                    let wi = w as usize;
                    if dist[wi] == UNREACHED {
                        dist[wi] = level;
                        sigma[wi] = sv;
                        order.push(w);
                    } else if dist[wi] == level {
                        sigma[wi] += sv;
                    }
                }
            } else {
                view.for_each_edge(v, |w, _| {
                    let wi = w as usize;
                    if dist[wi] == UNREACHED {
                        dist[wi] = level;
                        sigma[wi] = sv;
                        order.push(w);
                    } else if dist[wi] == level {
                        sigma[wi] += sv;
                    }
                });
            }
        }
        bounds.push(hi);
        lo = hi;
    }
    // `bounds` now holds each level's start plus a trailing end: level
    // `l` is `order[bounds[l]..bounds[l + 1]]`. Gather dependencies from
    // the deepest level up, skipping the source level.
    for l in (1..bounds.len() - 1).rev() {
        for &v in &order[bounds[l]..bounds[l + 1]] {
            let dv = dist[v as usize];
            let sv = sigma[v as usize];
            let mut dsum = 0.0f64;
            if let Some(c) = csr {
                for &w in c.neighbors(v) {
                    if dist[w as usize] == dv + 1 {
                        dsum += sv * ((1.0 + delta[w as usize]) / sigma[w as usize]);
                    }
                }
            } else {
                view.for_each_edge(v, |w, _| {
                    if dist[w as usize] == dv + 1 {
                        dsum += sv * ((1.0 + delta[w as usize]) / sigma[w as usize]);
                    }
                });
            }
            delta[v as usize] = dsum;
            acc[v as usize] += dsum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_core::adjacency::CapacityHints;
    use snap_core::{CsrGraph, DynGraph, HybridAdj};
    use snap_rmat::{Rmat, RmatParams, TimedEdge};

    // Gate 0 keeps the forked paths exercised even on single-core
    // hosts, where the Auto grain would (correctly) run inline.
    fn force(threads: usize) -> ParConfig {
        ParConfig::default()
            .with_serial_threshold(0)
            .with_threads(threads)
            .with_level_grain(crate::Grain::Edges(0))
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn path_and_star_known_values_forced_parallel() {
        let edges: Vec<TimedEdge> = (0..4).map(|i| TimedEdge::new(i, i + 1, 1)).collect();
        let path = CsrGraph::from_edges_undirected(5, &edges);
        let star_edges: Vec<TimedEdge> = (1..=4).map(|v| TimedEdge::new(0, v, 1)).collect();
        let star = CsrGraph::from_edges_undirected(5, &star_edges);
        let bc = par_bc_with(&path, BcSources::Exact, &force(4));
        assert_eq!(bc, vec![0.0, 6.0, 8.0, 6.0, 0.0]);
        let bc = par_bc_with(&star, BcSources::Exact, &force(4));
        assert_eq!(bc, vec![12.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn exact_matches_serial_bitwise_on_rmat() {
        let rm = Rmat::new(RmatParams::paper(9, 8), 31);
        let g = CsrGraph::from_edges_undirected(1 << 9, &rm.edges());
        let serial = betweenness_exact(&g);
        for threads in [1usize, 2, 4] {
            let par = par_bc_with(&g, BcSources::Exact, &force(threads));
            assert_eq!(bits(&par), bits(&serial), "{threads}t diverged from serial");
        }
    }

    #[test]
    fn exact_matches_serial_bitwise_on_directed_rmat() {
        let rm = Rmat::new(RmatParams::paper(9, 8), 47);
        let g = CsrGraph::from_edges_directed(1 << 9, &rm.edges());
        let serial = betweenness_exact(&g);
        let par = par_bc_with(&g, BcSources::Exact, &force(4));
        assert_eq!(bits(&par), bits(&serial), "directed");
    }

    #[test]
    fn sampled_matches_serial_bitwise() {
        let rm = Rmat::new(RmatParams::paper(9, 8), 77);
        let n = 1usize << 9;
        let g = CsrGraph::from_edges_undirected(n, &rm.edges());
        let sources = sample_sources(n, 100, 5);
        let serial = betweenness_approx(&g, &sources);
        for threads in [1usize, 2, 8] {
            let par = par_bc_with(&g, BcSources::Sample { k: 100, seed: 5 }, &force(threads));
            assert_eq!(bits(&par), bits(&serial), "{threads}t");
        }
    }

    #[test]
    fn live_view_matches_serial_on_the_same_view() {
        let rm = Rmat::new(RmatParams::paper(8, 8), 21);
        let hints = CapacityHints::new(rm.edges().len() * 2).with_degree_thresh(8);
        let g: DynGraph<HybridAdj> = DynGraph::undirected(1 << 8, &hints);
        for e in rm.edges() {
            g.insert_edge(e);
        }
        let serial = betweenness_exact(&g);
        let par = par_bc_with(&g, BcSources::Exact, &force(4));
        assert_eq!(bits(&par), bits(&serial), "live view");
    }

    #[test]
    fn thread_counts_agree_bitwise() {
        let rm = Rmat::new(RmatParams::paper(9, 8), 63);
        let g = CsrGraph::from_edges_undirected(1 << 9, &rm.edges());
        let one = par_bc_with(&g, BcSources::Exact, &force(1));
        for threads in [2usize, 8] {
            let t = par_bc_with(&g, BcSources::Exact, &force(threads));
            assert_eq!(bits(&t), bits(&one), "{threads}t vs 1t");
        }
    }

    #[test]
    fn small_graph_takes_the_serial_fallback() {
        let g = CsrGraph::from_edges_undirected(4, &[TimedEdge::new(0, 1, 1)]);
        assert_eq!(par_bc(&g), betweenness_exact(&g));
        let sampled = par_bc_with(
            &g,
            BcSources::Sample { k: 2, seed: 9 },
            &ParConfig::default(),
        );
        assert_eq!(sampled, betweenness_approx(&g, &sample_sources(4, 2, 9)));
    }

    #[test]
    fn sampling_more_sources_than_vertices_clamps_to_exact() {
        let rm = Rmat::new(RmatParams::paper(8, 6), 3);
        let n = 1usize << 8;
        let g = CsrGraph::from_edges_undirected(n, &rm.edges());
        // k >= n: every vertex sampled, scale = 1 -> identical to exact
        // up to source order, which the blocked accumulation pins.
        let all = par_bc_with(&g, BcSources::Sample { k: n * 2, seed: 1 }, &force(2));
        let serial = betweenness_approx(&g, &sample_sources(n, n * 2, 1));
        assert_eq!(bits(&all), bits(&serial));
    }
}
