//! Reusable differential-testing harness for incremental indexes.
//!
//! The pattern every dynamic-index suite shares: generate a **seeded
//! R-MAT update stream** (mixed inserts and deletes at a configurable
//! delete ratio, duplicate-free at any instant — an edge is never
//! inserted twice while live nor deleted while absent, but deleted
//! edges may be re-inserted later), drive it through an update
//! strategy (`stream` / `vpart` / `epart`) at a given thread count,
//! hand every update to the maintained index in stream order (one
//! `absorb` per batch as the engines' write cycle does, or per update;
//! connectivity takes single updates through its `note_*` methods), and
//! assert — mid-stream and at the end — that the index's state is
//! **bit-identical** to a from-scratch oracle computed on the settled
//! view, with the incremental path never once falling back to a full
//! rebuild.
//!
//! A suite instantiates the harness by picking a [`DifferentialPair`]
//! ([`ConnPair`], [`DistPair`], [`TriPair`]) and calling
//! [`run_differential`] over [`STRATEGIES`] × thread counts.

use snap::core::IncrementalIndex;
use snap::prelude::*;
use snap::util::thread_pool;
use snap_kernels::serial_bfs;

use super::{hints, rng_for};

/// A generated differential workload: mixed batches plus the edge set
/// that survives them (for external oracles).
pub struct Workload {
    /// Vertex count.
    pub n: u32,
    /// Update batches, applied in order.
    pub batches: Vec<Vec<Update>>,
    /// Undirected keys live after the whole stream, ascending.
    pub surviving: Vec<(u32, u32)>,
    /// The differential check runs after every `check_every`-th batch
    /// (and always after the last).
    pub check_every: usize,
}

impl Workload {
    /// Total updates across all batches.
    pub fn len(&self) -> usize {
        self.batches.iter().map(Vec::len).sum()
    }
}

/// Builds a seeded R-MAT mixed update stream over `n = 2^scale`
/// vertices: the R-MAT edge pool (deduplicated to undirected keys,
/// self-loops kept) is drained by inserts while roughly `delete_pct`%
/// of operations delete a random live edge; once the pool runs dry,
/// inserts resurrect previously deleted edges, so tombstone reuse and
/// re-insert-after-delete are always exercised. Deterministic in
/// `(suite, case)`.
pub fn rmat_workload(
    suite: u64,
    case: u64,
    scale: u32,
    edge_factor: usize,
    delete_pct: u64,
    batch_size: usize,
) -> Workload {
    let n = 1u32 << scale;
    let mut rng = rng_for(suite, 0xD1FF, case);
    let rm = Rmat::new(
        RmatParams::paper(scale, edge_factor),
        rng.next_bounded(u64::MAX >> 1),
    );
    let mut seen = std::collections::HashSet::new();
    let mut pool: Vec<(u32, u32)> = Vec::new();
    for e in rm.edges() {
        let key = (e.u.min(e.v), e.u.max(e.v));
        if seen.insert(key) {
            pool.push(key);
        }
    }
    let total_ops = pool.len() * 2;
    let mut pool = pool.into_iter();
    let mut live: Vec<(u32, u32)> = Vec::new();
    let mut dead: Vec<(u32, u32)> = Vec::new();
    let mut batches = Vec::new();
    let mut batch = Vec::with_capacity(batch_size);
    // Updates within one batch are applied in parallel, so a batch must
    // be a set of *independent* updates: never touch the same edge key
    // twice in one batch (re-insert-after-delete still happens — in a
    // later batch).
    let mut touched: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
    for _ in 0..total_ops {
        let deleting = rng.next_bounded(100) < delete_pct && !live.is_empty();
        let op = if deleting {
            // Find a live edge this batch has not touched yet.
            (0..8)
                .map(|_| rng.next_bounded(live.len() as u64) as usize)
                .find(|&i| !touched.contains(&live[i]))
                .map(|i| (live.swap_remove(i), true))
        } else {
            None
        };
        let op = op.or_else(|| {
            // Fresh pool edges first (never live, so never touched);
            // then resurrect a deleted edge untouched this batch.
            pool.next()
                .or_else(|| {
                    (0..8)
                        .map(|_| rng.next_bounded(dead.len().max(1) as u64) as usize)
                        .find(|&i| i < dead.len() && !touched.contains(&dead[i]))
                        .map(|i| dead.swap_remove(i))
                })
                .map(|key| (key, false))
        });
        let Some(((u, v), is_delete)) = op else {
            continue;
        };
        touched.insert((u, v));
        if is_delete {
            dead.push((u, v));
            batch.push(Update::delete(TimedEdge::new(u, v, 0)));
        } else {
            live.push((u, v));
            batch.push(Update::insert(TimedEdge::new(u, v, 1 + (u + v) % 90)));
        }
        if batch.len() == batch_size {
            batches.push(std::mem::take(&mut batch));
            touched.clear();
        }
    }
    if !batch.is_empty() {
        batches.push(batch);
    }
    live.sort_unstable();
    Workload {
        n,
        batches,
        surviving: live,
        // Differential checks are the expensive part: probe a few
        // quiescent points mid-stream.
        check_every: 5,
    }
}

/// A hand-written workload: `batches` of `(u, v, is_insert)` over `n`
/// vertices, checked after every batch. Each batch must be a set of
/// independent updates, like [`rmat_workload`]'s (batches are applied
/// in parallel): no edge key twice in one batch.
pub fn scripted_workload(n: u32, batches: &[&[(u32, u32, bool)]]) -> Workload {
    let mut live = std::collections::BTreeSet::new();
    let batches = batches
        .iter()
        .map(|batch| {
            let mut touched = std::collections::HashSet::new();
            batch
                .iter()
                .map(|&(u, v, is_insert)| {
                    let key = (u.min(v), u.max(v));
                    assert!(touched.insert(key), "{key:?} twice in one batch");
                    if is_insert {
                        assert!(live.insert(key), "{key:?} inserted while live");
                        Update::insert(TimedEdge::new(u, v, 1 + (u + v) % 90))
                    } else {
                        assert!(live.remove(&key), "{key:?} deleted while absent");
                        Update::delete(TimedEdge::new(u, v, 0))
                    }
                })
                .collect()
        })
        .collect();
    Workload {
        n,
        batches,
        surviving: live.into_iter().collect(),
        check_every: 1,
    }
}

/// How a batch reaches the graph and the maintained index (always in
/// stream order, over the settled view).
#[derive(Clone, Copy, Debug)]
pub enum Strategy {
    /// One update at a time; the index takes each after its apply
    /// ([`DifferentialPair::absorb_one`]).
    Stream,
    /// Vertex-partitioned parallel apply, then one absorb of the batch.
    Vpart,
    /// Edge-partitioned parallel apply, then one absorb of the batch.
    Epart,
}

/// Every strategy the harness drives.
pub const STRATEGIES: [Strategy; 3] = [Strategy::Stream, Strategy::Vpart, Strategy::Epart];

/// An {incremental index, from-scratch oracle} pair under differential
/// test. `state` may trigger the index's own lazy targeted repairs —
/// that is the path under test; `oracle` must recompute from the view
/// alone.
pub trait DifferentialPair {
    /// Bit-comparable extracted state.
    type State: PartialEq + std::fmt::Debug;
    /// The maintained index.
    type Index: IncrementalIndex;
    /// The index under test.
    fn index(&self) -> &Self::Index;
    /// Hands one applied update to the maintained index: by default one
    /// [`IncrementalIndex::absorb`] of it alone.
    fn absorb_one<V: GraphView>(&self, view: &V, upd: &Update) {
        self.index().absorb(view, std::slice::from_ref(upd));
    }
    /// Extracts the maintained state (lazy repairs allowed).
    fn state<V: GraphView>(&self, view: &V) -> Self::State;
    /// Recomputes the same state from scratch off the view.
    fn oracle<V: GraphView>(&self, view: &V) -> Self::State;
    /// Full-rebuild counter; the harness asserts it stays zero.
    fn full_rebuilds(&self) -> usize {
        self.index().full_rebuild_count()
    }
}

/// Drives `w` through `strategy` at `threads` workers, differentially
/// checking the pair built by `make` against its oracle mid-stream and
/// at the end, and asserting the incremental path never fully rebuilt.
pub fn run_differential<A, P, F>(w: &Workload, strategy: Strategy, threads: usize, make: F)
where
    A: DynamicAdjacency,
    P: DifferentialPair,
    F: FnOnce(&DynGraph<A>) -> P,
{
    let what = format!("{strategy:?} @ {threads} threads");
    let hints = hints(w.len() * 2);
    let g: DynGraph<A> = DynGraph::undirected(w.n as usize, &hints);
    let pair = make(&g);
    let pool = thread_pool(threads);
    let last = w.batches.len() - 1;
    for (bi, batch) in w.batches.iter().enumerate() {
        match strategy {
            Strategy::Stream => {
                for u in batch {
                    g.apply(u);
                    pair.absorb_one(&g, u);
                }
            }
            Strategy::Vpart => {
                pool.install(|| engine::apply_vpart(&g, batch, threads));
                pair.index().absorb(&g, batch);
            }
            Strategy::Epart => {
                pool.install(|| engine::apply_epart(&g, batch, threads));
                pair.index().absorb(&g, batch);
            }
        }
        if bi == last || (bi + 1) % w.check_every == 0 {
            assert_eq!(
                pair.state(&g),
                pair.oracle(&g),
                "{what}: diverged after batch {bi}"
            );
        }
    }
    assert_eq!(
        pair.full_rebuilds(),
        0,
        "{what}: the incremental path must never fully rebuild"
    );
}

/// [`ConnectivityIndex`] vs the union-find oracle on the live view.
pub struct ConnPair {
    idx: ConnectivityIndex,
}

impl ConnPair {
    /// Builds the index from the (typically empty) starting view.
    pub fn new<V: GraphView>(view: &V) -> Self {
        Self {
            idx: ConnectivityIndex::from_view(view),
        }
    }
}

impl DifferentialPair for ConnPair {
    type State = Vec<u32>;
    type Index = ConnectivityIndex;

    fn index(&self) -> &ConnectivityIndex {
        &self.idx
    }

    /// Through the per-update `note_insert` / `note_delete`, settled by
    /// the next query: the path the benchmark's replay runs.
    fn absorb_one<V: GraphView>(&self, _view: &V, upd: &Update) {
        let (u, v) = (upd.edge.u, upd.edge.v);
        match upd.kind {
            UpdateKind::Insert => {
                self.idx.note_insert(u, v);
            }
            UpdateKind::Delete => self.idx.note_delete(u, v),
        }
    }

    fn state<V: GraphView>(&self, view: &V) -> Vec<u32> {
        self.idx.labels(view)
    }

    fn oracle<V: GraphView>(&self, view: &V) -> Vec<u32> {
        connected_components(view)
    }
}

/// [`DistanceIndex`] vs a fresh serial BFS per pinned source.
pub struct DistPair {
    idx: DistanceIndex,
    sources: Vec<u32>,
}

impl DistPair {
    /// Pins `sources` over the starting view.
    pub fn new<V: GraphView>(view: &V, sources: &[u32]) -> Self {
        Self {
            idx: DistanceIndex::from_view(view, sources),
            sources: sources.to_vec(),
        }
    }
}

impl DifferentialPair for DistPair {
    type State = Vec<Vec<u32>>;
    type Index = DistanceIndex;

    fn index(&self) -> &DistanceIndex {
        &self.idx
    }

    fn state<V: GraphView>(&self, _view: &V) -> Vec<Vec<u32>> {
        self.sources
            .iter()
            .map(|&s| self.idx.distances(s))
            .collect()
    }

    fn oracle<V: GraphView>(&self, view: &V) -> Vec<Vec<u32>> {
        self.sources
            .iter()
            .map(|&s| serial_bfs(view, s).dist)
            .collect()
    }
}

/// [`TriangleIndex`] vs the kernels-side recount (per-vertex counts,
/// global count, and the clustering coefficient to the bit).
pub struct TriPair {
    idx: TriangleIndex,
}

impl TriPair {
    /// Builds the index from the starting view.
    pub fn new<V: GraphView>(view: &V) -> Self {
        Self {
            idx: TriangleIndex::from_view(view),
        }
    }
}

impl DifferentialPair for TriPair {
    type State = (Vec<u64>, u64, u64);
    type Index = TriangleIndex;

    fn index(&self) -> &TriangleIndex {
        &self.idx
    }

    fn state<V: GraphView>(&self, _view: &V) -> (Vec<u64>, u64, u64) {
        (
            self.idx.per_vertex(),
            self.idx.triangle_count(),
            self.idx.average_clustering().to_bits(),
        )
    }

    fn oracle<V: GraphView>(&self, view: &V) -> (Vec<u64>, u64, u64) {
        let per = snap_kernels::triangles_per_vertex(view);
        let total = per.iter().sum::<u64>() / 3;
        (per, total, average_clustering(view).to_bits())
    }
}
