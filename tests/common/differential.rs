//! Differential-testing harness for the connectivity index.
//!
//! Generate a **seeded R-MAT update stream** (mixed inserts and deletes
//! at a configurable delete ratio, duplicate-free at any instant — an
//! edge is never inserted twice while live nor deleted while absent, but
//! deleted edges may be re-inserted later), drive it through an update
//! strategy (`stream` / `vpart` / `epart`) at a given thread count, hand
//! every update to the index in stream order (one `absorb` per batch as
//! the engines' write cycle does, or per update through the `note_*`
//! methods), and assert — mid-stream and at the end — that the index's
//! labels are **bit-identical** to `connected_components` on the settled
//! view, with the incremental path never once falling back to a full
//! rebuild.
//!
//! A suite calls [`run_differential`] over [`STRATEGIES`] × thread
//! counts.

use snap::prelude::*;
use snap::util::thread_pool;

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

/// How a batch reaches the graph and the index (always in stream
/// order, over the settled view).
#[derive(Clone, Copy, Debug)]
pub enum Strategy {
    /// One update at a time; the index takes each after its apply
    /// through the per-update `note_insert` / `note_delete`, settled by
    /// the next query: the path the benchmark's replay runs.
    Stream,
    /// Vertex-partitioned parallel apply, then one absorb of the batch.
    Vpart,
    /// Edge-partitioned parallel apply, then one absorb of the batch.
    Epart,
}

/// Every strategy the harness drives.
pub const STRATEGIES: [Strategy; 3] = [Strategy::Stream, Strategy::Vpart, Strategy::Epart];

/// Drives `w` through `strategy` at `threads` workers into a
/// [`ConnectivityIndex`] built over the empty graph, checking its labels
/// against `connected_components` mid-stream and at the end, and
/// asserting the incremental path never fully rebuilt.
pub fn run_differential<A: DynamicAdjacency>(w: &Workload, strategy: Strategy, threads: usize) {
    let what = format!("{strategy:?} @ {threads} threads");
    let hints = hints(w.len() * 2);
    let g: DynGraph<A> = DynGraph::undirected(w.n as usize, &hints);
    let idx = ConnectivityIndex::from_view(&g);
    let pool = thread_pool(threads);
    let last = w.batches.len() - 1;
    for (bi, batch) in w.batches.iter().enumerate() {
        match strategy {
            Strategy::Stream => {
                for u in batch {
                    g.apply(u);
                    let (a, b) = (u.edge.u, u.edge.v);
                    match u.kind {
                        UpdateKind::Insert => {
                            idx.note_insert(a, b);
                        }
                        UpdateKind::Delete => idx.note_delete(a, b),
                    }
                }
            }
            Strategy::Vpart => {
                pool.install(|| engine::apply_vpart(&g, batch, threads));
                idx.absorb(&g, batch);
            }
            Strategy::Epart => {
                pool.install(|| engine::apply_epart(&g, batch, threads));
                idx.absorb(&g, batch);
            }
        }
        if bi == last || (bi + 1) % w.check_every == 0 {
            assert_eq!(
                idx.labels(&g),
                connected_components(&g),
                "{what}: diverged after batch {bi}"
            );
        }
    }
}
