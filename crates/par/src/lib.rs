//! `snap-par`: the parallel graph-traversal runtime.
//!
//! The paper's thesis is that dynamic small-world graphs should be
//! analyzed by *parallel* connectivity kernels; this crate supplies the
//! reusable machinery those kernels share, generic over any
//! [`snap_core::GraphView`] (live dynamic graphs and CSR snapshots
//! alike):
//!
//! - [`FrontierEngine`] — double-buffered level-synchronous frontiers:
//!   edge-budgeted chunk splitting (a power-law hub is split across
//!   workers instead of serializing one), per-worker chunk deals with
//!   stealing over scoped OS threads, and per-worker next-frontier
//!   buffers merged by swap — no locks anywhere on the hot path.
//!   Scheduling is **adaptive**: each level forks only when its frontier
//!   edge volume exceeds a serial gate ([`Grain`], with fork width
//!   proportional to the volume), consecutive serial levels fuse in
//!   place without buffer swaps, and every decision is counted in
//!   [`ParStats`].
//! - [`AtomicBitset`] — the visited set and the bottom-up frontier: a
//!   top-down claim is one compare-exchange per discovered vertex; a
//!   bottom-up sweep has one writer per 64-vertex word, which publishes
//!   the word with one plain store.
//! - [`par_bfs`] — direction-optimizing BFS (top-down through the
//!   engine, bottom-up over 64-aligned vertex ranges on a bitmap
//!   frontier once the frontier is dense; see [`bfs`] for the switch
//!   heuristic).
//! - [`par_cc`] — Afforest: CAS linking where the lower id wins, over a
//!   sampled subgraph first, then every edge outside the most frequent
//!   component; canonical min-id labels, bit-identical to the serial
//!   union-find kernel at any thread count.
//! - [`par_bc`] — multi-source Brandes betweenness centrality, exact or
//!   source-sampled ([`BcSources`]), with blocks of sources spread over
//!   workers; scores are bit-identical to the serial kernel at any
//!   thread count.
//!
//! # Thread-count configuration
//!
//! [`ParConfig::threads`] = 0 (the default) adopts
//! `rayon::current_num_threads()`, so running a kernel inside
//! `snap_util::thread_pool(t).install(..)` sweeps thread counts exactly
//! like every other benchmark in the workspace; a non-zero value pins
//! the worker count explicitly.
//!
//! # Serial fallback and adaptive granularity
//!
//! Each kernel falls back to its serial counterpart
//! (`snap_kernels::serial_bfs`, `connected_components`,
//! `betweenness_exact`) when
//! `n + m <= serial_threshold` (default 4096): a fork-join barrier per
//! BFS level cannot pay for itself on a graph that fits in one core's
//! cache. Set [`ParConfig::with_serial_threshold`] to 0 to force the
//! parallel path (the equivalence suites do).
//!
//! Above the threshold, work still forks only where it pays:
//! [`ParConfig::level_grain`] resolves to a per-level serial gate in
//! frontier edge volume ([`ParConfig::level_gate`]), derived under
//! [`Grain::Auto`] from the view size and the *effective* width
//! (`min(threads, available_parallelism)`) — on a single-core host every
//! level runs inline, because a second OS thread can only add overhead.
//! Results are bit-identical on every path; [`Grain::Edges`] pins the
//! gate for tests and tuning.

#![deny(missing_docs)]

pub mod bc;
pub mod bfs;
pub mod bitset;
pub mod cc;
pub mod frontier;
mod metrics;

pub use bc::{par_bc, par_bc_with, BcSources};
pub use bfs::{par_bfs, par_bfs_stats, par_bfs_with, BfsStats};
pub use bitset::AtomicBitset;
pub use cc::{par_cc, par_cc_stats, par_cc_with};
pub use frontier::{FrontierEngine, ParStats};

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
    /// Run the serial kernel when `n + m` is at or below this.
    pub serial_threshold: usize,
    /// Top-down -> bottom-up when `frontier_edges * alpha >
    /// unvisited_edges` (Beamer's alpha; larger switches earlier).
    pub alpha: usize,
    /// Bottom-up -> top-down when `frontier_size * beta < n`; 0 disables
    /// bottom-up entirely.
    pub beta: usize,
    /// Edge budget per frontier chunk: the work-granularity / hub-split
    /// threshold of the [`FrontierEngine`].
    pub chunk_edges: usize,
    /// Per-level fork gate (see [`Grain`] and [`ParConfig::level_gate`]).
    pub level_grain: Grain,
}

impl Default for ParConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            serial_threshold: 1 << 12,
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

    /// Overrides the serial-fallback threshold (0 forces the parallel
    /// path, as the equivalence suites do).
    pub fn with_serial_threshold(mut self, t: usize) -> Self {
        self.serial_threshold = t;
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
    /// worker count `w = min(worker_count, available_parallelism)`:
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
                let hw = std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(1);
                let w = self.worker_count().min(hw);
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
    /// capped at [`ParConfig::worker_count`]. See
    /// [`frontier::fork_width`].
    pub fn fork_width(&self, volume: usize, work: usize) -> usize {
        frontier::fork_width(volume, self.level_gate(work), self.worker_count())
    }
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
