//! Parallel betweenness centrality: multi-source Brandes over the
//! runtime's work-distribution machinery, bit-identical to the serial
//! kernel at any thread count.
//!
//! Betweenness is the paper lineage's flagship workload (Madduri &
//! Bader's prior SNAP work is best known for lock-free parallel BC on
//! massive small-world graphs). This kernel runs Brandes' algorithm from
//! many sources — all of them ([`BcSources::Exact`]) or a uniform sample
//! extrapolated by `n / k` ([`BcSources::Sample`], the paper samples 256
//! sources) — and exposes **two parallelization granularities**, chosen
//! per call by [`BcStrategy`]:
//!
//! - [`BcStrategy::SourceParallel`] — whole [`SOURCE_BLOCK`]-sized
//!   blocks of sources are distributed over workers; each worker runs an
//!   optimized serial Brandes per source into a per-worker partial score
//!   vector (scratch buffers reused across its sources, and a CSR fast
//!   path that scans the neighbor array alone — static BC never reads
//!   timestamps). Block partials merge into the total in ascending block
//!   order. The right default when sources outnumber workers: zero
//!   synchronization inside a source.
//! - [`BcStrategy::FrontierParallel`] — one source at a time, parallel
//!   *inside* the traversal: the forward phase runs level-synchronously
//!   through the [`FrontierEngine`] (edge-budgeted chunks, per-worker
//!   next buffers), with a compare-exchange on the shared distance array
//!   as the claim protocol and CAS-loop `f64` additions building the
//!   shortest-path counts; the backward phase processes each DAG level
//!   with workers pulling dependency sums in *gather* form. The right
//!   choice when sources are few (or the graph enormous) and a single
//!   traversal must span every core.
//!
//! [`BcStrategy::Auto`] (the default) picks `SourceParallel` once the
//! source list is at least twice the worker count.
//!
//! # Determinism and bit-reproducibility
//!
//! Both strategies reproduce `snap_kernels::betweenness_exact` /
//! `betweenness_approx` **bit-for-bit at any thread count** — the
//! equivalence suite asserts literal `f64` equality, not tolerance. Three
//! properties make that possible (shared with the serial kernel; see
//! `snap_kernels::bc` for the full contract):
//!
//! - path counts (`sigma`) are integers stored in `f64`, so their
//!   accumulation is exact and therefore order-independent — atomic
//!   CAS-add races do not perturb them (exactness holds while counts
//!   stay below `2^53`; beyond that all implementations round, and
//!   racing summation order could differ in the last ulp);
//! - dependency sums (`delta`, genuinely fractional) are accumulated in
//!   *gather* form — each vertex pulls from its DAG successors in its
//!   own adjacency order, a schedule no worker interleaving can perturb
//!   — and stored by exactly one owner, never atomically added;
//! - cross-source accumulation folds fixed [`SOURCE_BLOCK`]-sized
//!   partial vectors in ascending block order, a grouping independent of
//!   the thread count.
//!
//! # Serial fallback
//!
//! Graphs with `n + m <=` [`ParConfig::serial_threshold`] dispatch to the
//! serial kernel directly, like every kernel in this crate.

use crate::frontier::{par_for_ranges_stats, sweep_grain, FrontierEngine, ParStats};
use crate::ParConfig;
use snap_core::GraphView;
use snap_kernels::bc::{sample_sources, SOURCE_BLOCK};
use snap_kernels::{betweenness_approx, betweenness_exact, UNREACHED};
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

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

/// Parallelization granularity (see the module docs for the trade-off).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BcStrategy {
    /// `SourceParallel` when sources >= 2x workers, else
    /// `FrontierParallel`.
    #[default]
    Auto,
    /// Blocks of sources distributed over workers; serial Brandes inside.
    SourceParallel,
    /// One source at a time; the traversal itself fans out over workers.
    FrontierParallel,
}

/// Configuration of a [`par_bc_with`] run.
#[derive(Clone, Copy, Debug)]
pub struct BcConfig {
    /// Source selection: exact or sampled-approximate.
    pub sources: BcSources,
    /// Parallelization granularity.
    pub strategy: BcStrategy,
}

impl Default for BcConfig {
    fn default() -> Self {
        Self {
            sources: BcSources::Exact,
            strategy: BcStrategy::Auto,
        }
    }
}

impl BcConfig {
    /// Exact betweenness from every source (the default).
    pub fn exact() -> Self {
        Self::default()
    }

    /// Approximate betweenness from `k` sampled sources.
    pub fn sampled(k: usize, seed: u64) -> Self {
        Self {
            sources: BcSources::Sample { k, seed },
            ..Self::default()
        }
    }

    /// Overrides the parallelization strategy.
    pub fn with_strategy(mut self, strategy: BcStrategy) -> Self {
        self.strategy = strategy;
        self
    }
}

/// Exact parallel betweenness centrality with default configurations.
///
/// # Examples
///
/// ```
/// use snap_core::CsrGraph;
/// use snap_par::{par_bc, par_bc_with, BcConfig, ParConfig};
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
/// let par = par_bc_with(&g, &BcConfig::exact(), &cfg);
/// assert_eq!(par, snap_kernels::betweenness_exact(&g));
/// ```
pub fn par_bc<V: GraphView>(view: &V) -> Vec<f64> {
    par_bc_with(view, &BcConfig::default(), &ParConfig::default())
}

/// Parallel betweenness centrality under explicit configurations.
/// Returns one score per vertex; see the module docs for the exactness
/// and determinism contract.
pub fn par_bc_with<V: GraphView>(view: &V, bc: &BcConfig, cfg: &ParConfig) -> Vec<f64> {
    let n = view.num_vertices();
    if n + view.num_entries() <= cfg.serial_threshold {
        crate::metrics::publish(&ParStats::default());
        return match bc.sources {
            BcSources::Exact => betweenness_exact(view),
            BcSources::Sample { k, seed } => betweenness_approx(view, &sample_sources(n, k, seed)),
        };
    }
    let (sources, scale) = match bc.sources {
        BcSources::Exact => ((0..n as u32).collect::<Vec<u32>>(), 1.0),
        BcSources::Sample { k, seed } => {
            let s = sample_sources(n, k, seed);
            let scale = n as f64 / s.len().max(1) as f64;
            (s, scale)
        }
    };
    let threads = cfg.worker_count();
    let coarse = match bc.strategy {
        BcStrategy::Auto => sources.len() >= 2 * threads.max(1),
        BcStrategy::SourceParallel => true,
        BcStrategy::FrontierParallel => false,
    };
    let mut stats = ParStats::default();
    let mut scores = if coarse {
        bc_source_parallel(view, &sources, cfg, &mut stats)
    } else {
        bc_frontier_parallel(view, &sources, cfg, &mut stats)
    };
    crate::metrics::publish(&stats);
    if scale != 1.0 {
        for x in scores.iter_mut() {
            *x *= scale;
        }
    }
    scores
}

// ---------------------------------------------------------------------
// Source-parallel strategy
// ---------------------------------------------------------------------

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

// ---------------------------------------------------------------------
// Frontier-parallel strategy
// ---------------------------------------------------------------------

/// CAS-loop `f64` addition on bit-stored atomics. Only used for `sigma`
/// path counts, whose integer values make the sum order-independent.
#[inline]
fn atomic_f64_add(cell: &AtomicU64, add: f64) {
    // ordering: Relaxed (load and CAS) — a pure accumulator: the CAS
    // guarantees atomicity of each add and the level join publishes
    // the total (invariant 8); order of adds is immaterial because
    // sigma values are integral.
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let new = (f64::from_bits(cur) + add).to_bits();
        // ordering: Relaxed — covered by the note above.
        match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(now) => cur = now,
        }
    }
}

/// One source at a time, each traversal spanning all workers: forward
/// levels through the [`FrontierEngine`] with a distance-CAS claim (the
/// usual `AtomicBitset` claim cannot work here — a losing claimer still
/// needs to know whether the contested vertex sits on *this* level to
/// contribute its path counts, so the level-stamped distance array is
/// the claim word), backward levels through [`par_for_ranges_stats`] in
/// gather form. State is reset per source by walking the recorded
/// levels, not O(n). `stats` gathers the engine's forward levels and the
/// backward sweeps.
fn bc_frontier_parallel<V: GraphView>(
    view: &V,
    sources: &[u32],
    cfg: &ParConfig,
    stats: &mut ParStats,
) -> Vec<f64> {
    let n = view.num_vertices();
    let threads = cfg.worker_count();
    let work = n + view.num_entries();
    let dist: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNREACHED)).collect();
    let sigma: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let delta: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let mut engine =
        FrontierEngine::new(threads, cfg.chunk_edges).with_level_gate(cfg.level_gate(work));
    let mut levels: Vec<Vec<u32>> = Vec::new();
    let mut bc = vec![0.0f64; n];
    let mut part = vec![0.0f64; n];
    for (si, &s) in sources.iter().enumerate() {
        for lvl in &levels {
            for &v in lvl {
                // ordering: Relaxed (all three) — sequential per-source
                // reset between traversals; the next forward level's
                // spawn barrier publishes it (invariant 8).
                dist[v as usize].store(UNREACHED, Ordering::Relaxed);
                // ordering: Relaxed — see above.
                sigma[v as usize].store(0, Ordering::Relaxed);
                // ordering: Relaxed — see above.
                delta[v as usize].store(0, Ordering::Relaxed);
            }
        }
        levels.clear();
        // ordering: Relaxed (both) — sequential seeding, published by
        // the first level's spawn barrier.
        dist[s as usize].store(0, Ordering::Relaxed);
        // ordering: Relaxed — see above.
        sigma[s as usize].store(1.0f64.to_bits(), Ordering::Relaxed);
        engine.seed([s]);
        levels.push(vec![s]);
        let mut level = 0u32;
        loop {
            level += 1;
            let (dist_r, sigma_r) = (&dist, &sigma);
            let found = engine.advance(view, |u, v, _| {
                // ordering: Relaxed — u's sigma settled on the previous
                // level, published by that level's join.
                let su = f64::from_bits(sigma_r[u as usize].load(Ordering::Relaxed));
                // ordering: Relaxed — the level-stamped distance CAS is
                // the claim word (invariant 7): winners and same-level
                // losers both contribute sigma; the join publishes.
                match dist_r[v as usize].compare_exchange(
                    UNREACHED,
                    level,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        atomic_f64_add(&sigma_r[v as usize], su);
                        true
                    }
                    Err(cur) if cur == level => {
                        atomic_f64_add(&sigma_r[v as usize], su);
                        false
                    }
                    Err(_) => false,
                }
            });
            if found == 0 {
                break;
            }
            levels.push(engine.current().to_vec());
        }
        // Backward: one fork-join per DAG level, deepest first. Workers
        // own disjoint position ranges of the level, so every delta is
        // written by exactly one thread; the scope join publishes each
        // level's stores before the next level reads them.
        for l in (1..levels.len()).rev() {
            let lvl: &[u32] = &levels[l];
            // Gate the backward pass on the level's gather volume, just
            // like the forward pass: a thin DAG level runs inline.
            let vol: usize = lvl.iter().map(|&v| view.degree(v)).sum();
            let width = cfg.fork_width(lvl.len() + vol, work);
            let ranges: Vec<Range<u32>> = chunk_positions(lvl.len(), sweep_grain(lvl.len(), width));
            let (dist_r, sigma_r, delta_r) = (&dist, &sigma, &delta);
            par_for_ranges_stats(
                &ranges,
                width,
                |r| {
                    for i in r {
                        let v = lvl[i as usize];
                        // ordering: Relaxed (all loads here) — dist/sigma
                        // settled in the forward pass and deeper levels'
                        // deltas in earlier backward iterations; each
                        // fork-join barrier published them (invariant 8).
                        let dv = dist_r[v as usize].load(Ordering::Relaxed);
                        // ordering: Relaxed — see above.
                        let sv = f64::from_bits(sigma_r[v as usize].load(Ordering::Relaxed));
                        let mut dsum = 0.0f64;
                        view.for_each_edge(v, |w, _| {
                            // ordering: Relaxed — see above.
                            if dist_r[w as usize].load(Ordering::Relaxed) != dv + 1 {
                                return;
                            }
                            // ordering: Relaxed — see above.
                            let dw = f64::from_bits(delta_r[w as usize].load(Ordering::Relaxed));
                            // ordering: Relaxed — see above.
                            let sw = f64::from_bits(sigma_r[w as usize].load(Ordering::Relaxed));
                            dsum += sv * ((1.0 + dw) / sw);
                        });
                        // ordering: Relaxed — v's delta is written by the
                        // one worker owning v's position (invariant 7);
                        // the level join publishes it.
                        delta_r[v as usize].store(dsum.to_bits(), Ordering::Relaxed);
                    }
                },
                stats,
            );
        }
        for lvl in levels.iter().skip(1) {
            for &v in lvl {
                // ordering: Relaxed — sequential accumulation after the
                // backward pass's final join.
                part[v as usize] += f64::from_bits(delta[v as usize].load(Ordering::Relaxed));
            }
        }
        if (si + 1) % SOURCE_BLOCK == 0 || si + 1 == sources.len() {
            for (b, p) in bc.iter_mut().zip(part.iter()) {
                *b += *p;
            }
            part.fill(0.0);
        }
    }
    stats.absorb(engine.take_stats());
    bc
}

/// Contiguous position ranges `0..k` of at most `grain` each.
fn chunk_positions(k: usize, grain: usize) -> Vec<Range<u32>> {
    let grain = grain.max(1);
    (0..k)
        .step_by(grain)
        .map(|lo| lo as u32..((lo + grain).min(k)) as u32)
        .collect()
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

    fn strategies() -> [BcStrategy; 2] {
        [BcStrategy::SourceParallel, BcStrategy::FrontierParallel]
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
        for strat in strategies() {
            let cfg = BcConfig::exact().with_strategy(strat);
            let bc = par_bc_with(&path, &cfg, &force(4));
            assert_eq!(bc, vec![0.0, 6.0, 8.0, 6.0, 0.0], "{strat:?}");
            let bc = par_bc_with(&star, &cfg, &force(4));
            assert_eq!(bc, vec![12.0, 0.0, 0.0, 0.0, 0.0], "{strat:?}");
        }
    }

    #[test]
    fn exact_matches_serial_bitwise_on_rmat() {
        let rm = Rmat::new(RmatParams::paper(9, 8), 31);
        let g = CsrGraph::from_edges_undirected(1 << 9, &rm.edges());
        let serial = betweenness_exact(&g);
        for strat in strategies() {
            for threads in [1usize, 2, 4] {
                let cfg = BcConfig::exact().with_strategy(strat);
                let par = par_bc_with(&g, &cfg, &force(threads));
                assert_eq!(
                    bits(&par),
                    bits(&serial),
                    "{strat:?} @ {threads}t diverged from serial"
                );
            }
        }
    }

    #[test]
    fn exact_matches_serial_bitwise_on_directed_rmat() {
        let rm = Rmat::new(RmatParams::paper(9, 8), 47);
        let g = CsrGraph::from_edges_directed(1 << 9, &rm.edges());
        let serial = betweenness_exact(&g);
        for strat in strategies() {
            let cfg = BcConfig::exact().with_strategy(strat);
            let par = par_bc_with(&g, &cfg, &force(4));
            assert_eq!(bits(&par), bits(&serial), "{strat:?} directed");
        }
    }

    #[test]
    fn sampled_matches_serial_bitwise() {
        let rm = Rmat::new(RmatParams::paper(9, 8), 77);
        let n = 1usize << 9;
        let g = CsrGraph::from_edges_undirected(n, &rm.edges());
        let sources = sample_sources(n, 100, 5);
        let serial = betweenness_approx(&g, &sources);
        for strat in strategies() {
            for threads in [1usize, 2, 8] {
                let cfg = BcConfig::sampled(100, 5).with_strategy(strat);
                let par = par_bc_with(&g, &cfg, &force(threads));
                assert_eq!(bits(&par), bits(&serial), "{strat:?} @ {threads}t");
            }
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
        for strat in strategies() {
            let cfg = BcConfig::exact().with_strategy(strat);
            let par = par_bc_with(&g, &cfg, &force(4));
            assert_eq!(bits(&par), bits(&serial), "{strat:?} live view");
        }
    }

    #[test]
    fn thread_counts_agree_bitwise() {
        let rm = Rmat::new(RmatParams::paper(9, 8), 63);
        let g = CsrGraph::from_edges_undirected(1 << 9, &rm.edges());
        for strat in strategies() {
            let cfg = BcConfig::exact().with_strategy(strat);
            let one = par_bc_with(&g, &cfg, &force(1));
            for threads in [2usize, 8] {
                let t = par_bc_with(&g, &cfg, &force(threads));
                assert_eq!(bits(&t), bits(&one), "{strat:?}: {threads}t vs 1t");
            }
        }
    }

    #[test]
    fn small_graph_takes_the_serial_fallback() {
        let g = CsrGraph::from_edges_undirected(4, &[TimedEdge::new(0, 1, 1)]);
        assert_eq!(par_bc(&g), betweenness_exact(&g));
        let sampled = par_bc_with(&g, &BcConfig::sampled(2, 9), &ParConfig::default());
        assert_eq!(sampled, betweenness_approx(&g, &sample_sources(4, 2, 9)));
    }

    #[test]
    fn sampling_more_sources_than_vertices_clamps_to_exact() {
        let rm = Rmat::new(RmatParams::paper(8, 6), 3);
        let n = 1usize << 8;
        let g = CsrGraph::from_edges_undirected(n, &rm.edges());
        // k >= n: every vertex sampled, scale = 1 -> identical to exact
        // up to source order, which the blocked accumulation pins.
        let all = par_bc_with(&g, &BcConfig::sampled(n * 2, 1), &force(2));
        let serial = betweenness_approx(&g, &sample_sources(n, n * 2, 1));
        assert_eq!(bits(&all), bits(&serial));
    }

    #[test]
    fn auto_strategy_is_exact_too() {
        let rm = Rmat::new(RmatParams::paper(9, 8), 90);
        let g = CsrGraph::from_edges_undirected(1 << 9, &rm.edges());
        let serial = betweenness_exact(&g);
        // Auto resolves to SourceParallel here (512 sources >> workers);
        // either way the scores must be the serial scores.
        let par = par_bc_with(&g, &BcConfig::exact(), &force(4));
        assert_eq!(bits(&par), bits(&serial));
    }
}
