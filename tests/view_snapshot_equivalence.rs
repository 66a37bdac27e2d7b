//! The tentpole guarantee of the `GraphView` refactor: every kernel
//! observes the *same graph* whether it reads the live `DynGraph` or a
//! fresh `CsrGraph` snapshot of it.
//!
//! Property tests drive randomized insert/delete streams into each
//! representation, then assert that BFS levels, component labels, and
//! degree sequences agree exactly between the two read paths; plus the
//! `SnapshotManager` contract: clean epochs never rebuild.
//!
//! Randomized cases come from the workspace's seeded
//! [`snap::util::rng::XorShift64`]; failures reproduce per seed.

use snap::core::SnapshotManager;
use snap::kernels::{local_clustering, triangle_count};
use snap::prelude::*;
use snap::util::rng::XorShift64;
use std::collections::HashSet;
use std::sync::Arc;

const N: usize = 96;
const CASES: u64 = 24;

/// Builds a graph state from a randomized insert/delete stream (applied
/// sequentially: the stream has ordering dependencies) and returns it.
fn random_graph<A: DynamicAdjacency>(case: u64, salt: u64) -> DynGraph<A> {
    let mut rng = XorShift64::new(0xE9_01 ^ salt.wrapping_mul(0xBF58_476D).wrapping_add(case));
    let hints = CapacityHints::new(2048).with_degree_thresh(8);
    let g: DynGraph<A> = DynGraph::undirected(N, &hints);
    let mut present: HashSet<(u32, u32)> = HashSet::new();
    let ops = 600 + rng.next_bounded(600) as usize;
    for _ in 0..ops {
        let u = rng.next_bounded(N as u64) as u32;
        let v = rng.next_bounded(N as u64) as u32;
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if present.contains(&key) && rng.next_bool(0.6) {
            present.remove(&key);
            g.delete_edge(key.0, key.1);
        } else if !present.contains(&key) {
            present.insert(key);
            g.insert_edge(TimedEdge::new(
                key.0,
                key.1,
                rng.next_bounded(90) as u32 + 1,
            ));
        }
    }
    g
}

/// The core property: identical BFS levels, component labels, and degree
/// sequences on the live view and its snapshot.
fn assert_view_snapshot_equivalent<A: DynamicAdjacency>(case: u64, salt: u64) {
    let g: DynGraph<A> = random_graph(case, salt);
    let csr = g.to_csr();

    // Degree sequences.
    let live_degrees: Vec<usize> = (0..N as u32).map(|u| g.degree(u)).collect();
    let snap_degrees: Vec<usize> = (0..N as u32).map(|u| csr.out_degree(u)).collect();
    assert_eq!(
        live_degrees, snap_degrees,
        "case {case}: degree sequences diverge"
    );

    // BFS levels from several sources (parallel kernel on both paths).
    for src in [0u32, (N / 2) as u32, (N - 1) as u32] {
        let live = bfs(&g, src);
        let snap = bfs(&csr, src);
        assert_eq!(
            live.dist, snap.dist,
            "case {case}: BFS levels diverge from {src}"
        );
    }

    // Component labels (canonical min-ids, so exact equality applies).
    let live_cc = connected_components(&g);
    let snap_cc = connected_components(&csr);
    assert_eq!(live_cc, snap_cc, "case {case}: component labels diverge");
}

#[test]
fn live_view_equals_snapshot_dynarr() {
    for case in 0..CASES {
        assert_view_snapshot_equivalent::<DynArr>(case, 1);
    }
}

#[test]
fn live_view_equals_snapshot_treap() {
    for case in 0..CASES {
        assert_view_snapshot_equivalent::<TreapAdj>(case, 2);
    }
}

#[test]
fn live_view_equals_snapshot_hybrid() {
    for case in 0..CASES {
        assert_view_snapshot_equivalent::<HybridAdj>(case, 3);
    }
}

/// Self-loop consistency audit: a self-loop is stored **once** even on
/// undirected graphs (`DynGraph::insert_edge` skips the mirror
/// orientation), and every snapshot path must agree — `to_csr`
/// (`CsrGraph::from_dynamic`) copies entries verbatim and
/// `CsrGraph::from_edges_undirected` counts a loop once in its degree
/// pass. This pins the invariant across all three representations, for
/// degrees, traversal, and deletion.
fn assert_self_loop_equivalence<A: DynamicAdjacency>(repr: &str) {
    let hints = CapacityHints::new(64).with_degree_thresh(2);
    let g: DynGraph<A> = DynGraph::undirected(6, &hints);
    let edges = vec![
        TimedEdge::new(0, 1, 10),
        TimedEdge::new(1, 1, 20), // self-loop on a connected vertex
        TimedEdge::new(3, 3, 30), // self-loop on an otherwise isolated vertex
        TimedEdge::new(1, 2, 40),
        TimedEdge::new(4, 5, 50),
    ];
    for e in &edges {
        g.insert_edge(*e);
    }
    // Live view: loops count once in the degree.
    assert_eq!(g.degree(1), 3, "{repr}: nbrs 0, 2 and one loop entry");
    assert_eq!(g.degree(3), 1, "{repr}: loop only");
    // Snapshot of the dynamic state agrees entry-for-entry.
    let from_dyn = g.to_csr();
    // Direct build from the undirected edge list agrees too.
    let from_edges = CsrGraph::from_edges_undirected(6, &edges);
    for u in 0..6u32 {
        assert_eq!(
            g.degree(u),
            from_dyn.out_degree(u),
            "{repr}: live vs from_dynamic degree at {u}"
        );
        assert_eq!(
            from_dyn.out_degree(u),
            from_edges.out_degree(u),
            "{repr}: from_dynamic vs from_edges_undirected degree at {u}"
        );
        let mut live: Vec<(u32, u32)> = Vec::new();
        g.for_each_neighbor(u, &mut |e| live.push((e.nbr, e.ts)));
        live.sort_unstable();
        let mut snap: Vec<(u32, u32)> = from_dyn
            .neighbors(u)
            .iter()
            .copied()
            .zip(from_dyn.timestamps(u).iter().copied())
            .collect();
        snap.sort_unstable();
        assert_eq!(live, snap, "{repr}: traversal diverges at {u}");
    }
    assert_eq!(from_dyn.num_entries(), from_edges.num_entries());
    assert_eq!(
        GraphView::num_entries(&g),
        8, // 3 plain edges twice + 2 loops once
        "{repr}: loops stored once, plain edges twice"
    );
    // Deleting a self-loop removes exactly the single stored entry, on
    // both read paths.
    assert!(g.delete_edge(1, 1), "{repr}: loop delete must report");
    assert!(!g.delete_edge(1, 1), "{repr}: loop already gone");
    assert_eq!(g.degree(1), 2);
    assert_eq!(g.to_csr().out_degree(1), 2);
    assert_eq!(GraphView::num_entries(&g), 7);
    // Kernels see identical structure either way (loops never change
    // connectivity).
    assert_eq!(connected_components(&g), connected_components(&g.to_csr()));
}

#[test]
fn self_loops_agree_live_vs_csr_dynarr() {
    assert_self_loop_equivalence::<DynArr>("DynArr");
}

#[test]
fn self_loops_agree_live_vs_csr_treap() {
    assert_self_loop_equivalence::<TreapAdj>("TreapAdj");
}

#[test]
fn self_loops_agree_live_vs_csr_hybrid() {
    // degree_thresh 2 promotes vertex 1 to a treap, covering both arms.
    assert_self_loop_equivalence::<HybridAdj>("HybridAdj");
}

/// The wider kernel suite agrees across read paths on one fixed workload
/// per representation (cheaper kernels only; BFS/CC cover the traversal
/// core above).
#[test]
fn extended_kernels_agree_across_read_paths() {
    let g: DynGraph<HybridAdj> = random_graph(7, 4);
    let csr = g.to_csr();
    assert_eq!(triangle_count(&g), triangle_count(&csr));
    let cl = local_clustering(&g);
    let cs = local_clustering(&csr);
    for v in 0..N {
        assert!(
            (cl[v] - cs[v]).abs() < 1e-9,
            "local clustering diverges at {v}"
        );
    }
}

/// The serving leg: a version the engine publishes as its last compacted
/// CSR plus a delta of the rows changed since (an overlay, read row by
/// row with no CSR fast path) gives the kernels exactly what its own
/// compaction gives them.
#[test]
fn kernels_agree_on_an_overlay_version_and_its_csr() {
    let mut overlays = 0;
    for case in 0..6 {
        let engine = ServeEngine::new(
            random_graph::<HybridAdj>(case, 5),
            ServeConfig::default().with_shards(2),
        );
        let mut rng = XorShift64::new(0x0E7A ^ case);
        for batch in 1..=6u64 {
            // A few edges: their rows stay far below the quarter of the
            // entries past which the writer patches a new base instead.
            let updates = (0..3)
                .map(|_| {
                    let u = rng.next_bounded(N as u64) as u32;
                    let v = rng.next_bounded(N as u64) as u32;
                    Update::insert(TimedEdge::new(u, v, 100 + batch as u32))
                })
                .collect();
            engine.submit(updates);
            // Pinned as soon as it shows: the writer compacts a version
            // only after its queue idled for a millisecond.
            let pin = std::iter::repeat_with(|| engine.pin())
                .find(|p| p.batches() == batch)
                .expect("an endless iterator");
            if pin.as_csr().is_some() {
                continue;
            }
            overlays += 1;
            let csr = pin.csr();
            for src in [0u32, (N / 2) as u32, (N - 1) as u32] {
                assert_eq!(par_bfs(&*pin, src).dist, par_bfs(&**csr, src).dist);
            }
            assert_eq!(par_cc(&*pin), par_cc(&**csr), "case {case}");
            let bits = |bc: Vec<f64>| bc.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(
                bits(betweenness_exact(&*pin)),
                bits(betweenness_exact(&**csr)),
                "case {case}"
            );
        }
    }
    assert!(overlays > 0, "no overlay version was pinned");
}

/// The SnapshotManager contract from the acceptance criteria: repeated
/// queries between update batches reuse one cached snapshot — zero
/// additional rebuilds — and the live view stays queryable throughout.
#[test]
fn snapshot_manager_amortizes_rebuilds_across_query_bursts() {
    let mut rng = XorShift64::new(0xCAFE);
    let hints = CapacityHints::new(4096);
    let mgr = SnapshotManager::new(DynGraph::<HybridAdj>::undirected(N, &hints));
    let mut total_queries = 0usize;
    for batch in 0..10 {
        // One update batch...
        let updates: Vec<Update> = (0..200)
            .filter_map(|_| {
                let u = rng.next_bounded(N as u64) as u32;
                let v = rng.next_bounded(N as u64) as u32;
                (u != v)
                    .then(|| Update::insert(TimedEdge::new(u, v, rng.next_bounded(50) as u32 + 1)))
            })
            .collect();
        mgr.apply_batch(&updates);
        assert!(
            !mgr.is_clean(),
            "batch {batch}: epoch must be dirty after updates"
        );
        // ...then a burst of snapshot-consuming queries.
        let first: Arc<CsrGraph> = mgr.snapshot();
        for q in 0..25 {
            let s = mgr.snapshot();
            assert!(
                Arc::ptr_eq(&first, &s),
                "batch {batch} query {q}: cache miss"
            );
            let r = bfs(&*s, 0);
            total_queries += r.reached();
            // Cheap freshness-critical probes hit the live view instead.
            let _ = mgr.live().degree((q % N) as u32);
        }
        assert_eq!(
            mgr.rebuild_count(),
            batch + 1,
            "exactly one rebuild per batch, zero per query"
        );
    }
    assert!(total_queries > 0);
    // Final sanity: the last snapshot matches the live state exactly.
    let csr = mgr.snapshot();
    for u in 0..N as u32 {
        assert_eq!(csr.out_degree(u), mgr.live().degree(u));
    }
}
