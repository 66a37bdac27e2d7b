//! `snap-par`: the parallel graph kernels.
//!
//! The paper's thesis is that dynamic small-world graphs should be
//! analyzed by *parallel* connectivity kernels. This crate holds one
//! parallel implementation of each, generic over any
//! [`snap_core::GraphView`] (live dynamic graphs and CSR snapshots
//! alike), and runs it at every graph size:
//!
//! - [`par_bfs`] — direction-optimizing BFS. Top-down levels run through
//!   a crate-private frontier engine: edge-budgeted chunks (a power-law
//!   hub is split across workers instead of serializing one), per-worker
//!   chunk deals with stealing over scoped OS threads, per-worker
//!   next-frontier buffers merged by swap, and a compare-exchange claim
//!   per discovered vertex in an atomic bitset. Once the frontier is
//!   dense, levels run bottom-up over 64-aligned vertex ranges on a
//!   bitmap frontier (see [`bfs`] for the switch heuristic).
//! - [`par_cc`] — Afforest: CAS linking where the lower id wins, over a
//!   sampled subgraph first, then every edge outside the most frequent
//!   component; canonical min-id labels, bit-identical to the serial
//!   union-find kernel at any thread count.
//! - [`par_bc`] — multi-source Brandes betweenness centrality, exact or
//!   source-sampled ([`BcSources`]), with blocks of sources spread over
//!   workers; scores are bit-identical to the serial kernel at any
//!   thread count.
//!
//! The serial kernels (`snap_kernels::serial_bfs`,
//! `connected_components`, `betweenness_exact` / `_approx`) are the
//! paper's figures and these kernels' oracles; no `par_*` call runs
//! them.
//!
//! # Thread-count configuration
//!
//! [`ParConfig::threads`] = 0 (the default) adopts
//! `rayon::current_num_threads()`, so running a kernel inside
//! `snap_util::thread_pool(t).install(..)` sweeps thread counts exactly
//! like every other benchmark in the workspace; a non-zero value pins
//! the worker count explicitly.
//!
//! # Adaptive granularity
//!
//! Work forks only where it pays: [`ParConfig::level_grain`] resolves
//! to a per-level serial gate in frontier edge volume
//! ([`ParConfig::level_gate`]), derived under [`Grain::Auto`] from the
//! view size and the *effective* width (`min(threads, hardware
//! threads)`). A level at or below the gate runs inline on the caller,
//! consecutive inline BFS levels fuse in place without buffer swaps, and
//! a forked level's width is proportional to its volume. On a
//! single-core host, or on a small graph, every level runs inline. Every
//! decision is counted in [`ParStats`]. Results are bit-identical on
//! every schedule; [`Grain::Edges`] pins the gate for tests and tuning.

#![deny(missing_docs)]

pub mod bc;
pub mod bfs;
mod bitset;
pub mod cc;
mod frontier;
mod metrics;

pub use bc::{par_bc, par_bc_with, BcSources};
pub use bfs::{par_bfs, par_bfs_stats, par_bfs_with, BfsStats};
pub use cc::{par_cc, par_cc_stats, par_cc_with};
pub use frontier::ParStats;

use std::sync::OnceLock;

/// Edge volume per worker the [`Grain::Auto`] gate asks a level to carry
/// before forking: a scoped OS-thread spawn plus its share of the join
/// barrier costs on the order of 10–20 µs, and edge relaxation runs at a
/// few ns per edge, so ~8k edges is where a worker starts paying for
/// itself with margin.
const FORK_EDGES_PER_WORKER: usize = 8 * 1024;

/// Per-level work granularity: when does a frontier level fork?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Grain {
    /// Derive the serial gate from the view size and the effective
    /// worker count (see [`ParConfig::level_gate`]). When the effective
    /// width is 1 — a single worker requested, or a single hardware
    /// core available — the gate is `usize::MAX`: forking can never
    /// help, so no level ever does.
    Auto,
    /// An explicit per-level serial gate in frontier edge volume: a
    /// level forks only when it carries *more* than this many edges.
    /// `Edges(0)` always forks, `Edges(usize::MAX)` never does.
    Edges(usize),
}

/// Tuning knobs shared by every parallel kernel.
#[derive(Clone, Debug)]
pub struct ParConfig {
    /// Worker thread count; 0 = adopt `rayon::current_num_threads()`
    /// (which honors the innermost installed pool).
    pub threads: usize,
    /// Top-down -> bottom-up when `frontier_edges * alpha >
    /// unvisited_edges` (Beamer's alpha; larger switches earlier).
    pub alpha: usize,
    /// Bottom-up -> top-down when `frontier_size * beta < n`; 0 disables
    /// bottom-up entirely.
    pub beta: usize,
    /// Edge budget per frontier chunk: the work-granularity / hub-split
    /// threshold of `par_bfs`'s top-down levels.
    pub chunk_edges: usize,
    /// Per-level fork gate (see [`Grain`] and [`ParConfig::level_gate`]).
    pub level_grain: Grain,
}

impl Default for ParConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            alpha: 14,
            beta: 24,
            chunk_edges: 2048,
            level_grain: Grain::Auto,
        }
    }
}

impl ParConfig {
    /// Resolved worker count (>= 1).
    pub fn worker_count(&self) -> usize {
        if self.threads == 0 {
            rayon::current_num_threads().max(1)
        } else {
            self.threads
        }
    }

    /// Pins the worker count (0 = adopt the installed rayon pool).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Overrides Beamer's alpha (top-down to bottom-up switch).
    pub fn with_alpha(mut self, alpha: usize) -> Self {
        self.alpha = alpha;
        self
    }

    /// Overrides Beamer's beta (bottom-up to top-down switch; 0 disables
    /// bottom-up).
    pub fn with_beta(mut self, beta: usize) -> Self {
        self.beta = beta;
        self
    }

    /// Overrides the per-chunk edge budget (clamped to at least 1).
    pub fn with_chunk_edges(mut self, chunk_edges: usize) -> Self {
        self.chunk_edges = chunk_edges.max(1);
        self
    }

    /// Overrides the per-level fork gate.
    pub fn with_level_grain(mut self, grain: Grain) -> Self {
        self.level_grain = grain;
        self
    }

    /// Resolves the per-level serial gate in frontier edge volume for a
    /// view of total size `work` (= n + m). [`Grain::Edges`] is returned
    /// verbatim; [`Grain::Auto`] derives the gate from the effective
    /// worker count `w = min(worker_count, hardware threads)`:
    ///
    /// - `w <= 1` → `usize::MAX` (never fork — without a second core an
    ///   extra OS thread is pure overhead);
    /// - else `clamp(work / 4, 2 * chunk_edges, w * 8192)`: small views
    ///   keep more levels inline, big views stop at one spawn-amortizing
    ///   deal of edges per worker.
    pub fn level_gate(&self, work: usize) -> usize {
        match self.level_grain {
            Grain::Edges(gate) => gate,
            Grain::Auto => {
                let w = self.worker_count().min(hardware_threads());
                if w <= 1 {
                    return usize::MAX;
                }
                let lo = 2 * self.chunk_edges;
                let hi = (w * FORK_EDGES_PER_WORKER).max(lo);
                (work / 4).clamp(lo, hi)
            }
        }
    }

    /// Volume-gated fork width for a level of `volume` edges on a view
    /// of total size `work`: 1 (inline) at or below
    /// [`ParConfig::level_gate`], else proportional to the volume and
    /// capped at [`ParConfig::worker_count`].
    pub fn fork_width(&self, volume: usize, work: usize) -> usize {
        frontier::fork_width(volume, self.level_gate(work), self.worker_count())
    }
}

/// The host's hardware thread count, read once per process: each
/// `available_parallelism` call costs tens of microseconds, and every
/// [`Grain::Auto`] gate asks for it.
fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_count_honors_installed_pool() {
        let cfg = ParConfig::default();
        let inside = snap_util::thread_pool(3).install(|| cfg.worker_count());
        assert_eq!(inside, 3);
        assert_eq!(cfg.with_threads(5).worker_count(), 5);
    }

    #[test]
    fn hardware_threads_is_cached_and_an_installed_pool_overrides_it() {
        let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
        assert_eq!(hardware_threads(), hw);
        assert_eq!(hardware_threads(), hw, "the cached count is stable");
        // A one-thread pool narrows the effective width to 1 on any
        // host, so the Auto gate never forks inside it.
        let cfg = ParConfig::default();
        let gate = snap_util::thread_pool(1).install(|| cfg.level_gate(1 << 20));
        assert_eq!(gate, usize::MAX);
        // A two-thread pool forks wherever a second hardware thread exists.
        let gate = snap_util::thread_pool(2).install(|| cfg.level_gate(1 << 20));
        assert_eq!(gate == usize::MAX, hw <= 1);
    }

    #[test]
    fn defaults_are_sane() {
        let cfg = ParConfig::default();
        assert!(cfg.worker_count() >= 1);
        assert!(cfg.chunk_edges >= 1);
        assert!(cfg.alpha > 0 && cfg.beta > 0);
        assert_eq!(cfg.level_grain, Grain::Auto);
    }

    #[test]
    fn grain_edges_pins_the_gate() {
        let cfg = ParConfig::default().with_level_grain(Grain::Edges(7));
        assert_eq!(cfg.level_gate(1 << 20), 7);
        let never = ParConfig::default().with_level_grain(Grain::Edges(usize::MAX));
        assert_eq!(never.fork_width(usize::MAX, 1 << 20), 1);
        let always = ParConfig::default()
            .with_level_grain(Grain::Edges(0))
            .with_threads(4);
        assert_eq!(always.fork_width(10, 1 << 20), 4);
    }

    #[test]
    fn auto_gate_never_forks_at_width_one() {
        // One pinned worker: forking cannot help, whatever the volume.
        let cfg = ParConfig::default().with_threads(1);
        assert_eq!(cfg.level_gate(1 << 20), usize::MAX);
        assert_eq!(cfg.fork_width(1 << 30, 1 << 20), 1);
    }

    #[test]
    fn auto_gate_scales_with_view_and_width() {
        let cfg = ParConfig::default().with_threads(4);
        let hw = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        let gate = cfg.level_gate(1 << 20);
        if hw <= 1 {
            assert_eq!(gate, usize::MAX, "no second core, never fork");
        } else {
            let w = 4usize.min(hw);
            assert!(gate >= 2 * cfg.chunk_edges);
            assert!(gate <= (w * 8 * 1024).max(2 * cfg.chunk_edges));
            // A tiny view tempers the gate down to the chunk floor.
            assert_eq!(cfg.level_gate(0), 2 * cfg.chunk_edges);
        }
    }
}
