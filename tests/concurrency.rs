//! Concurrency validation: parallel application of commuting update
//! streams must produce exactly the state sequential application does,
//! for every representation and every engine strategy — and the batch
//! appliers (vertex-ranged, so each vertex's updates keep stream order)
//! must do so for streams that do not commute, too.

mod common;

use common::hints;
use snap::prelude::*;
use std::collections::HashSet;

const SCALE: u32 = 9;
const N: usize = 1 << SCALE;

fn edges() -> Vec<TimedEdge> {
    Rmat::new(RmatParams::paper(SCALE, 8), 77).edges()
}

fn live_set<A: DynamicAdjacency>(g: &DynGraph<A>) -> HashSet<(u32, u32)> {
    let mut s = HashSet::new();
    for u in 0..g.num_vertices() as u32 {
        g.for_each_neighbor(u, &mut |e| {
            s.insert((u, e.nbr));
        });
    }
    s
}

fn sequential_reference(stream: &[Update]) -> HashSet<(u32, u32)> {
    let g: DynGraph<DynArr> = DynGraph::undirected(N, &CapacityHints::new(stream.len() * 2));
    for u in stream {
        g.apply(u);
    }
    live_set(&g)
}

/// Insert-only streams commute: any parallel interleaving must match
/// sequential application. Returns the last parallel build.
fn check_parallel_insertions<A: DynamicAdjacency>() -> DynGraph<A> {
    let e = edges();
    let stream = StreamBuilder::new(&e, 1).construction_shuffled();
    let want = sequential_reference(&stream);
    let mut last = None;
    for threads in [1usize, 2, 4] {
        let g: DynGraph<A> = DynGraph::undirected(N, &hints(stream.len() * 2));
        snap::util::thread_pool(threads).install(|| engine::apply_stream(&g, &stream));
        assert_eq!(live_set(&g), want, "{threads}-thread insert run diverged");
        assert!(
            g.total_entries() > 0,
            "graph unexpectedly empty after parallel build"
        );
        last = Some(g);
    }
    last.expect("three thread counts")
}

#[test]
fn parallel_insertions_dynarr() {
    check_parallel_insertions::<DynArr>();
}

#[test]
fn parallel_insertions_treap() {
    check_parallel_insertions::<TreapAdj>();
}

#[test]
fn parallel_insertions_hybrid() {
    let g = check_parallel_insertions::<HybridAdj>();
    assert!(g.adjacency().treap_vertex_count() > 0, "both hybrid arms");
}

/// Mixed streams where every delete targets a *distinct pre-existing*
/// edge and no edge is touched twice also commute.
fn commuting_mixed_stream() -> (Vec<TimedEdge>, Vec<Update>) {
    let base = edges();
    let mut seen = HashSet::new();
    let mut unique: Vec<TimedEdge> = Vec::new();
    for e in &base {
        let k = (e.u.min(e.v), e.u.max(e.v));
        if e.u != e.v && seen.insert(k) {
            unique.push(*e);
        }
    }
    // First half of the unique edges stay; the second half gets deleted.
    let half = unique.len() / 2;
    let dels: Vec<Update> = unique[half..].iter().map(|e| Update::delete(*e)).collect();
    (unique, dels)
}

fn check_parallel_mixed<A: DynamicAdjacency>() {
    let (unique, dels) = commuting_mixed_stream();
    let build: Vec<Update> = unique.iter().copied().map(Update::insert).collect();
    // Sequential reference.
    let seq: DynGraph<A> = DynGraph::undirected(N, &hints(unique.len() * 2));
    for u in build.iter().chain(&dels) {
        seq.apply(u);
    }
    let want = live_set(&seq);
    for threads in [2usize, 4] {
        let g: DynGraph<A> = DynGraph::undirected(N, &hints(unique.len() * 2));
        snap::util::thread_pool(threads).install(|| {
            engine::apply_stream(&g, &build);
            engine::apply_stream(&g, &dels);
        });
        assert_eq!(live_set(&g), want, "{threads}-thread mixed run diverged");
    }
}

#[test]
fn parallel_mixed_dynarr() {
    check_parallel_mixed::<DynArr>();
}

#[test]
fn parallel_mixed_treap() {
    check_parallel_mixed::<TreapAdj>();
}

#[test]
fn parallel_mixed_hybrid() {
    check_parallel_mixed::<HybridAdj>();
}

/// All four engine strategies must produce the same final state.
#[test]
fn engine_strategies_agree() {
    let e = edges();
    let stream = StreamBuilder::new(&e, 5).construction_shuffled();
    let hints = CapacityHints::new(stream.len() * 2);
    let want = sequential_reference(&stream);

    let g1: DynGraph<DynArr> = DynGraph::undirected(N, &hints);
    engine::apply_stream(&g1, &stream);
    assert_eq!(live_set(&g1), want, "apply_stream");

    let g2: DynGraph<DynArr> = DynGraph::undirected(N, &hints);
    engine::apply_vpart(&g2, &stream, 4);
    assert_eq!(live_set(&g2), want, "apply_vpart");

    let g3: DynGraph<DynArr> = DynGraph::undirected(N, &hints);
    engine::apply_epart(&g3, &stream, 4);
    assert_eq!(live_set(&g3), want, "apply_epart");

    let g4: DynGraph<DynArr> = DynGraph::undirected(N, &hints);
    engine::apply_batched(&g4, &stream);
    assert_eq!(live_set(&g4), want, "apply_batched");

    // Entry counts (multiset cardinality) must match too.
    assert_eq!(g1.total_entries(), g2.total_entries());
    assert_eq!(g1.total_entries(), g3.total_entries());
    assert_eq!(g1.total_entries(), g4.total_entries());
}

/// A stream that does not commute: every vertex draws its neighbours
/// from the six ids at and after its own, so within one batch an edge is
/// inserted, deleted and re-inserted, inserted twice, and looped on
/// itself, and any reordering inside a vertex's updates shows.
fn non_commuting_stream(len: usize, seed: u64) -> Vec<Update> {
    let mut rng = snap::util::XorShift64::new(seed);
    (0..len)
        .map(|i| {
            let u = rng.next_bounded(N as u64) as u32;
            let v = (u + rng.next_bounded(6) as u32) % N as u32;
            let e = TimedEdge::new(u, v, i as u32 + 1);
            if rng.next_bool(0.6) {
                Update::insert(e)
            } else {
                Update::delete(e)
            }
        })
        .collect()
}

/// Every batch applier, at 1 / 2 / 8 workers, leaves each vertex with the
/// entry sequence a sequential `DynGraph::apply` loop leaves.
fn check_batch_appliers_on_non_commuting_streams<A: DynamicAdjacency>(directed: bool) {
    // Threshold 4: hybrid vertices promote and demote inside a batch.
    let hints = CapacityHints::new(64).with_degree_thresh(4);
    let graph = || DynGraph::<A>::from_adjacency(A::new(N, &hints), directed);
    // The first batch is long enough that the appliers cut the vertex
    // space into several ranges for their workers to claim; the second
    // is one range over what the first left behind.
    let stream = non_commuting_stream(160_000, if directed { 3 } else { 4 });
    let batches = [&stream[..150_000], &stream[150_000..]];
    let want = graph();
    for u in &stream {
        want.apply(u);
    }
    let check = |name: &str, workers: usize, got: DynGraph<A>| {
        for u in 0..N as u32 {
            assert_eq!(
                got.adjacency().neighbors(u),
                want.adjacency().neighbors(u),
                "{name} at {workers} workers: vertex {u}"
            );
        }
    };
    for workers in [1usize, 2, 8] {
        let g = graph();
        for b in batches {
            engine::apply_vpart(&g, b, workers);
        }
        check("apply_vpart", workers, g);

        let pool = snap::util::thread_pool(workers);
        let g = graph();
        pool.install(|| batches.map(|b| engine::apply_batched(&g, b)));
        check("apply_batched", workers, g);

        let mgr = SnapshotManager::new(graph());
        pool.install(|| batches.map(|b| mgr.apply_batch(b)));
        assert_eq!(mgr.epoch(), 2, "one epoch step per batch");
        check("SnapshotManager::apply_batch", workers, mgr.into_inner());
    }
}

#[test]
fn batch_appliers_keep_stream_order_dynarr() {
    check_batch_appliers_on_non_commuting_streams::<DynArr>(false);
    check_batch_appliers_on_non_commuting_streams::<DynArr>(true);
}

#[test]
fn batch_appliers_keep_stream_order_treap() {
    check_batch_appliers_on_non_commuting_streams::<TreapAdj>(false);
    check_batch_appliers_on_non_commuting_streams::<TreapAdj>(true);
}

#[test]
fn batch_appliers_keep_stream_order_hybrid() {
    check_batch_appliers_on_non_commuting_streams::<HybridAdj>(false);
    check_batch_appliers_on_non_commuting_streams::<HybridAdj>(true);
}

/// Concurrent connectivity queries during no mutation are safe and
/// consistent (read-only phase discipline).
#[test]
fn parallel_queries_are_stable() {
    let e = edges();
    let csr = CsrGraph::from_edges_undirected(N, &e);
    let forest = LinkCutForest::from_csr(&csr);
    let pairs: Vec<(u32, u32)> = (0..2000u32)
        .map(|i| ((i * 37) % N as u32, (i * 101) % N as u32))
        .collect();
    let first = forest.connected_batch(&pairs);
    for _ in 0..3 {
        assert_eq!(forest.connected_batch(&pairs), first);
    }
}
