//! Parallel graph-analysis kernels for dynamic networks (Section 3).
//!
//! Every kernel is generic over [`snap_core::GraphView`], the read
//! abstraction of the workspace. The same entry point therefore runs on
//! either read path:
//!
//! - a frozen [`snap_core::CsrGraph`] snapshot — the paper's pattern of
//!   reformulating dynamic problems on static instances (via
//!   timestamps), fastest for traversal-heavy analytics; or
//! - a live [`snap_core::DynGraph`] — tombstone-skipping traversal of
//!   the dynamic representation in place, paying per-vertex locks but no
//!   snapshot rebuild, right for fresh or one-shot queries.
//!
//! `snap_core::engine::SnapshotManager` arbitrates between the two with
//! an epoch-tagged snapshot cache. The link-cut forest is the exception
//! that proves the rule: it is maintained *across* updates for O(diameter)
//! connectivity queries, and only its (re)construction consumes a view.
//!
//! - [`bfs`](mod@bfs) — lock-free level-synchronous parallel BFS with the
//!   unbalanced-degree optimization, and its temporal (timestamp-filtered)
//!   variant (Figure 10).
//! - [`cc`] — serial union-find connected components (the oracle of
//!   `par_cc`'s Afforest linking).
//! - [`lcf`] — the parent-pointer link-cut forest: construction via
//!   parallel BFS, `link`/`cut`/`findroot`, batch connectivity queries
//!   (Figures 7–8), and replacement-edge search on deletions (extension).
//! - [`subgraph`] — the temporal induced-subgraph kernel (Figure 9),
//!   from edge lists, views, or in place on a dynamic graph.
//! - [`bc`] — Brandes-style betweenness centrality, static and temporal,
//!   exact and source-sampled approximate (Figure 11).
//! - [`cluster`] — triangle counts and clustering coefficients, the
//!   community-structure half of a topology profile (the
//!   `network_profile` example).
//!
//! The multi-threaded runtime lives one layer up in `snap-par`
//! (`par_bfs` / `par_cc` / `par_bc`): it shares this crate's result
//! vocabulary ([`BfsResult`], [`UNREACHED`], the canonical min-id
//! component labels, the deterministic betweenness summation order of
//! [`bc`]) and never calls the serial kernels here ([`serial_bfs`],
//! [`connected_components`], [`betweenness_exact`]), which are its
//! oracles: the two layers are interchangeable in call sites and
//! comparable bit-for-bit in tests.

#![deny(missing_docs)]

pub mod bc;
pub mod bfs;
pub mod cc;
pub mod cluster;
pub mod lcf;
pub mod subgraph;

pub use bc::{betweenness_approx, betweenness_exact, temporal_betweenness_approx};
pub use bfs::{bfs, serial_bfs, temporal_bfs, BfsResult, UNREACHED};
pub use cc::{component_count, connected_components};
pub use cluster::{average_clustering, local_clustering, triangle_count};
pub use lcf::LinkCutForest;
pub use subgraph::{
    induced_subgraph_csr, induced_subgraph_edges, induced_subgraph_vertices, induced_subgraph_view,
    TimeWindow,
};
