//! Dynamic graph representations for massive small-world networks.
//!
//! This crate is the paper's primary contribution (Section 2): data
//! structures that ingest parallel streams of edge insertions and deletions
//! on power-law graphs, and the execution strategies that drive them.
//!
//! # Representations
//!
//! | Type | Insert | Delete | Notes |
//! |---|---|---|---|
//! | [`DynArr`] | O(1) amortized | O(d) scan + tombstone | resizable adjacency arrays in a slab pool |
//! | [`FixedDynArr`] | O(1) lock-free | O(d) scan + tombstone | `Dyn-arr-nr`: capacities known a priori |
//! | [`TreapAdj`] | O(log d) | O(log d), real removal | every adjacency is a treap |
//! | [`HybridAdj`] | O(1)/O(log d) | O(d≤thresh)/O(log d) | arrays below `degree-thresh`, treaps above |
//!
//! # Read paths: snapshot vs live view
//!
//! Every kernel consumes a [`view::GraphView`], which two read paths
//! implement with opposite trade-offs:
//!
//! | Read path | Setup cost | Per-edge cost | Consistency |
//! |---|---|---|---|
//! | [`CsrGraph`] snapshot | O(n + m) rebuild | contiguous slice scan (fastest) | frozen at build time |
//! | [`DynGraph`] live view | zero | per-vertex lock + pointer chase | tracks updates instantly |
//!
//! Rule of thumb: traversal-heavy analytics (BC, diameter, repeated BFS
//! bursts) want the snapshot; cheap point queries (degree probes, one
//! s-t check) and freshness-critical reads want the live view. The
//! [`manager::SnapshotManager`] automates the choice's bookkeeping: it
//! runs every mutation through one write cycle — the one the serving
//! writer runs — and freezes the cached snapshot lazily by patching the
//! previous one, so a burst of queries between update batches pays for
//! one build.
//!
//! Connectivity queries get a third, cheaper path:
//! [`connectivity::ConnectivityIndex`] is a union-find maintained
//! incrementally on every insert and certified by the
//! paper's link-cut forest ([`forest::Forest`]): a deletion that misses
//! the forest is free, one that hits it searches the smaller side of
//! the cut for a replacement edge — `same_component(u, v)` between
//! batches costs neither a traversal nor a snapshot. It is the one
//! index, as in the paper. [`indexes`] holds its protocol with the
//! engines: the engine's applier absorbs into it and settles it, the
//! epoch protocol ([`IndexCore`]) couples it to the engine, and one
//! query surface ([`IndexQuery`]) is what [`SnapshotManager::indexes`]
//! and [`ServeEngine::indexes`] both hand out.
//!
//! Under *concurrent* ingest — writers that never quiesce — the
//! [`serve::ServeEngine`] generalizes all three: a sharded single-queue
//! writer publishes immutable epoch-tagged versions
//! ([`serve::EpochSnapshot`], CSR + component labels) by pointer swap,
//! so readers pin a consistent snapshot in O(1) while updates stream
//! and a race is impossible by construction.
//!
//! # Execution strategies (Section 2.1.2–2.1.3)
//!
//! [`engine`] implements the strategies the paper compares in Figure 3:
//! one batch applier that is `Vpart` (vertex-partitioned) and the
//! batched (semi-sorted, grouped per vertex) scheme at once — what
//! [`SnapshotManager::apply_batch`] and the serving writer run — beside
//! the one-by-one streaming applier and `Epart` (edge-partitioned).
//!
//! # Phase discipline
//!
//! The representations' mutation methods take `&self` and are safe to
//! call from many threads; their read methods
//! ([`DynamicAdjacency::degree`], traversal) are too, but the MUPS
//! experiments follow the paper's bulk-synchronous pattern: apply a
//! batch in parallel, then read. A CSR snapshot ([`DynGraph::to_csr`])
//! built while a writer mutates the same graph panics rather than return
//! a torn CSR. Both engines are their graph's only mutator —
//! `SnapshotManager` runs one mutation call at a time behind its lock,
//! `ServeEngine` one writer thread — so their snapshots never race.

#![deny(missing_docs)]

pub mod adjacency;
pub mod compressed;
pub mod connectivity;
pub mod csr;
mod cycle;
pub mod dynarr;
pub mod engine;
pub mod forest;
pub mod graph;
pub mod hybrid;
pub mod indexes;
pub mod manager;
pub mod serve;
pub mod treapadj;
pub mod view;
pub mod vlabels;

pub use adjacency::{AdjEntry, CapacityHints, DynamicAdjacency, HalfUpdate, TOMBSTONE};
pub use connectivity::ConnectivityIndex;
pub use csr::CsrGraph;
pub use dynarr::{DynArr, FixedDynArr};
pub use graph::DynGraph;
pub use hybrid::HybridAdj;
pub use indexes::{IndexCore, IndexFamily, IndexQuery, IndexRoutes};
pub use manager::SnapshotManager;
pub use serve::{EpochSnapshot, ServeConfig, ServeEngine, SnapshotHandle};
pub use treapadj::TreapAdj;
pub use view::{GraphView, VertexChunks};
pub use vlabels::VertexLabels;

// Re-export the shared workload types so downstream users need one import.
pub use snap_rmat::{TimedEdge, Update, UpdateKind};
