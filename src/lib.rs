//! # snap-dynamic
//!
//! A Rust reproduction of *"Compact Graph Representations and Parallel
//! Connectivity Algorithms for Massive Dynamic Network Analysis"*
//! (Madduri & Bader, IPDPS 2009): dynamic adjacency structures for
//! power-law graphs under parallel streams of edge insertions/deletions,
//! plus the connectivity, traversal, and centrality kernels built on them.
//!
//! This facade crate re-exports the workspace so applications need one
//! dependency:
//!
//! - [`rmat`] — R-MAT workload generation and update streams,
//! - [`arena`] — the chunked slab allocator,
//! - [`treap`] — the randomized treap,
//! - [`core`] — the dynamic graph representations, the [`GraphView`]
//!   read abstraction, and the update engines,
//! - [`kernels`] — BFS, connected components, link-cut forest, induced
//!   subgraphs, betweenness centrality, and clustering coefficients,
//! - [`par`] — the parallel traversal runtime: the chunked frontier
//!   engine, atomic visited sets, and multi-threaded
//!   [`par_bfs`](snap_par::par_bfs) / [`par_cc`](snap_par::par_cc) /
//!   [`par_bc`](snap_par::par_bc).
//!
//! ## The read model
//!
//! Every kernel is generic over [`GraphView`], so the same call runs on
//! two read paths with opposite trade-offs:
//!
//! - **live view** — pass the [`DynGraph`] itself; the kernel traverses
//!   the dynamic representation in place (skipping tombstones), sees
//!   every applied update instantly, and pays zero snapshot cost;
//! - **snapshot** — pass a [`CsrGraph`]; fastest iteration, frozen
//!   state, O(n + m) to build.
//!
//! [`SnapshotManager`] ties the two together for serving workloads: it
//! runs every mutation through one write cycle and freezes its cached CSR
//! lazily, patching the previous one, so a burst of queries between
//! update batches pays for at most one build, and cheap probes bypass CSR
//! entirely via the read-only [`SnapshotManager::live`].
//!
//! ## Connectivity serving
//!
//! For the paper's headline query — *are `u` and `v` in the same
//! component right now?* — even one traversal per batch is too much.
//! [`ConnectivityIndex`] (attach it with
//! [`SnapshotManager::enable_connectivity`]) maintains a concurrent
//! union-find incrementally, certified by the paper's link-cut forest:
//! insertions union in near-O(α) (a merging one becomes a forest edge),
//! a deletion that misses the forest is an O(1) no-op, and one that
//! hits it searches the live view for a replacement edge from both
//! sides of the cut in lock-step — work bounded by the smaller side,
//! with only a true split relabelled. A serial whole-component relabel
//! is the fallback. Between batches, `mgr.indexes().same_component(u, v)`
//! costs zero traversals and zero CSR rebuilds.
//!
//! It is the one index, as in the paper. It also attaches to the
//! concurrent [`ServeEngine`] ([`ServeConfig::with_connectivity`], on by
//! default), whose wait-free [`ServeEngine::same_component`] reads the
//! labels the writer publishes each cycle. Either engine also answers
//! through one query surface: [`SnapshotManager::indexes`] /
//! [`ServeEngine::indexes`] hand out an
//! [`IndexQuery`](snap_core::IndexQuery) (`same_component`,
//! `component`, `component_count`). Each engine is its graph's only
//! mutator and steps the index before it publishes an epoch, so a query
//! never finds the index behind; the freshness check it makes first
//! still turns an unabsorbed change into one full rebuild instead of a
//! stale answer.
//!
//! ## Observability
//!
//! The serving stack is instrumented end to end through [`obs`]
//! (`snap-obs`): queue depth, per-phase writer timings, publication
//! lag, query latency, repair/rebuild counters, and the parallel
//! runtime's scheduling decisions, all scrapeable via
//! [`MetricsRegistry::global()`](snap_obs::MetricsRegistry::global)
//! as Prometheus text, JSON, or programmatic snapshots. Without the
//! `obs` cargo feature every instrumentation site binds to no-op ZSTs
//! and compiles to nothing; with it, overhead stays small because hot
//! paths use sharded relaxed atomics and sampled clock reads. Results
//! are bit-identical either way (invariant 9 in ARCHITECTURE.md).
//!
//! ## The parallel runtime
//!
//! `snap::par` scales BFS, connected components and betweenness over
//! worker threads,
//! generic over the same [`GraphView`] inputs:
//!
//! - **Thread count**: [`ParConfig::threads`](snap_par::ParConfig) = 0
//!   (default) adopts `rayon::current_num_threads()`, so
//!   `snap::util::thread_pool(t).install(|| par_bfs(&g, src))` sweeps
//!   worker counts; a non-zero value pins it. Benchmarks honor the
//!   `SNAP_THREADS` environment variable the same way.
//! - **One path at every size**: each kernel has one parallel
//!   implementation; the serial kernels are figures and oracles only.
//! - **Adaptive granularity**: each frontier level or sweep forks only
//!   when its edge volume clears a serial gate
//!   ([`Grain`](snap_par::Grain), default `Auto` — derived from the view
//!   size and the effective core count), with fork width proportional to
//!   the volume, so a small graph runs inline on the caller; consecutive
//!   serial levels fuse in place, and
//!   [`ParStats`](snap_par::ParStats) counts every scheduling decision.
//! - **Direction-optimizing BFS**: top-down levels expand the frontier
//!   through edge-budgeted chunks (hubs split across workers); once the
//!   frontier is *growing* and carries `alpha`× more edges than remain
//!   unvisited, undirected traversals flip bottom-up (each unvisited
//!   vertex scans for any frontier neighbor and claims itself), flipping
//!   back when the frontier thins below `n / beta`. Directed views stay
//!   top-down.
//!
//! Results are bit-comparable with the serial kernels: identical BFS
//! levels (parents form a valid tree), identical canonical min-id
//! component labels, bit-identical betweenness scores.
//!
//! ## Quickstart
//!
//! ```
//! use snap::prelude::*;
//!
//! // A small-world workload: n = 2^12 vertices, m = 8n timestamped edges.
//! let rmat = Rmat::new(RmatParams::paper(12, 8), 42);
//! let edges = rmat.edges();
//! let n = 1 << 12;
//!
//! // Ingest it as a parallel insertion stream into the hybrid structure,
//! // managed by the epoch-tagged snapshot cache.
//! let hints = CapacityHints::new(edges.len() * 2);
//! let mgr = SnapshotManager::new(DynGraph::<HybridAdj>::undirected(n, &hints));
//! let stream = StreamBuilder::new(&edges, 1).construction_shuffled();
//! mgr.apply_batch(&stream);
//!
//! // Cheap, freshness-critical reads hit the live view: no rebuild.
//! let live = mgr.live();
//! let hub = (0..n as u32).max_by_key(|&u| live.degree(u)).unwrap();
//! assert!(live.degree(hub) > 0);
//! assert_eq!(mgr.rebuild_count(), 0);
//!
//! // Traversal-heavy kernels take any GraphView — the live graph works...
//! let live_bfs = bfs(live, hub);
//!
//! // ...and a burst of snapshot queries pays for exactly one rebuild.
//! let csr = mgr.snapshot();
//! let snap_bfs = bfs(&*csr, hub);
//! assert_eq!(live_bfs.dist, snap_bfs.dist);
//! let forest = LinkCutForest::from_view(&*csr);
//! assert!(forest.connected(hub, forest.findroot(hub)));
//! assert_eq!(mgr.rebuild_count(), 1);
//!
//! // The parallel runtime consumes the same views and must agree with
//! // the serial kernels bit-for-bit.
//! let par = par_bfs(&*csr, hub);
//! assert_eq!(par.dist, snap_bfs.dist);
//! let labels = par_cc(&*csr);
//! assert_eq!(labels, connected_components(&*csr));
//!
//! // Betweenness rides the same runtime: sampled multi-source Brandes,
//! // bit-identical to the serial kernel at any thread count.
//! let bc = par_bc_with(&*csr, BcSources::Sample { k: 16, seed: 7 }, &ParConfig::default());
//! let sources = snap::kernels::bc::sample_sources(n, 16, 7);
//! assert_eq!(bc, betweenness_approx(&*csr, &sources));
//!
//! // Connectivity queries skip traversal entirely: the incremental
//! // union-find index answers them in near-O(alpha), and agrees with
//! // the kernel labels bit-for-bit.
//! mgr.enable_connectivity();
//! let nb = csr.neighbors(hub)[0];
//! assert!(mgr.indexes().same_component(hub, nb));
//! assert_eq!(mgr.indexes().component(hub), labels[hub as usize]);
//! assert_eq!(mgr.rebuild_count(), 1, "the index never built a snapshot");
//! ```

pub use snap_arena as arena;
pub use snap_core as core;
pub use snap_kernels as kernels;
pub use snap_obs as obs;
pub use snap_par as par;
pub use snap_rmat as rmat;
pub use snap_treap as treap;
pub use snap_util as util;

// Lift the read abstraction to the facade root: it is the vocabulary
// every kernel call site speaks.
pub use snap_core::{
    ConnectivityIndex, CsrGraph, DynGraph, EpochSnapshot, GraphView, ServeConfig, ServeEngine,
    SnapshotHandle, SnapshotManager,
};

/// One-stop imports for applications.
pub mod prelude {
    pub use snap_core::adjacency::{AdjEntry, CapacityHints, DynamicAdjacency, HalfUpdate};
    pub use snap_core::engine;
    pub use snap_core::{
        ConnectivityIndex, CsrGraph, DynArr, DynGraph, EpochSnapshot, FixedDynArr, GraphView,
        HybridAdj, ServeConfig, ServeEngine, SnapshotHandle, SnapshotManager, TimedEdge, TreapAdj,
        Update, UpdateKind,
    };
    pub use snap_kernels::{
        average_clustering, betweenness_approx, betweenness_exact, bfs, connected_components,
        induced_subgraph_csr, induced_subgraph_vertices, induced_subgraph_view,
        temporal_betweenness_approx, temporal_bfs, triangle_count, LinkCutForest, TimeWindow,
    };
    pub use snap_obs::MetricsRegistry;
    pub use snap_par::{
        par_bc, par_bc_with, par_bfs, par_cc, BcSources, Grain, ParConfig, ParStats,
    };
    pub use snap_rmat::{Rmat, RmatParams, StreamBuilder};
}
