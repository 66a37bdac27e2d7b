//! Deletion-heavy dynamic connectivity: every engine strategy, every
//! read path, one oracle — driven by the reusable differential harness
//! (`common::differential`).
//!
//! A seeded R-MAT mixed update stream (40% deletes, re-inserts after
//! deletion) is applied through `stream` / `vpart` / `epart` at 1/2/8
//! worker threads, with the incrementally maintained
//! [`ConnectivityIndex`] differentially checked against the union-find
//! oracle mid-stream and at the end — zero full rebuilds allowed. A
//! second test cross-checks every read path (the serial union-find
//! kernel, the parallel kernel, a from-scratch index, and the
//! [`SnapshotManager`]-maintained index with its targeted repairs) on
//! the surviving edge set. The certificate's edge
//! cases run through the same harness as scripted streams, and a
//! counting view pins the cost contract: a non-certificate delete reads
//! no adjacency at all, a certificate delete at most twice the smaller
//! side of the cut.

mod common;

use common::differential::{
    rmat_workload, run_differential, scripted_workload, Strategy, Workload, STRATEGIES,
};
use common::{hints, rng_for, CountingView};
use snap::prelude::*;
use snap::util::thread_pool;
use snap_kernels::cc::union_find_components;

const SUITE: u64 = 0xD15C0;

#[test]
fn index_tracks_the_oracle_across_strategies_and_threads() {
    for case in 0..2 {
        let w = rmat_workload(SUITE, case, 9, 3, 40, 256);
        for threads in [1usize, 2, 8] {
            // One adjacency representation per strategy keeps the
            // original suite's representation coverage.
            run_differential::<DynArr>(&w, Strategy::Stream, threads);
            run_differential::<HybridAdj>(&w, Strategy::Vpart, threads);
            run_differential::<TreapAdj>(&w, Strategy::Epart, threads);
        }
    }
}

/// The certificate's edge cases as scripted streams: `(u, v, true)`
/// inserts, `(u, v, false)` deletes, checked against the oracle after
/// every batch. Updates are taken in batch order, so the first edge to
/// join two components is the certificate edge.
fn certificate_edge_cases() -> Vec<(&'static str, Workload)> {
    type Batch = Vec<(u32, u32, bool)>;
    let ins =
        |edges: &[(u32, u32)]| -> Batch { edges.iter().map(|&(u, v)| (u, v, true)).collect() };
    let del =
        |edges: &[(u32, u32)]| -> Batch { edges.iter().map(|&(u, v)| (u, v, false)).collect() };
    let path = |lo: u32, hi: u32| -> Vec<(u32, u32)> { (lo..hi).map(|i| (i, i + 1)).collect() };
    let script = |n: u32, batches: &[Batch]| {
        let refs: Vec<&[(u32, u32, bool)]> = batches.iter().map(Vec::as_slice).collect();
        scripted_workload(n, &refs)
    };
    let clique: Vec<(u32, u32)> = (10..20u32)
        .flat_map(|u| (u + 1..20).map(move |v| (u, v)))
        .collect();
    let spokes: Vec<(u32, u32)> = (0..64u32).filter(|&i| i != 9).map(|i| (9, i)).collect();
    vec![
        (
            "bridge",
            script(
                16,
                &[
                    ins(&[path(0, 3), path(4, 6), vec![(3, 4)]].concat()),
                    del(&[(3, 4)]),
                ],
            ),
        ),
        (
            // (7, 0) closes the cycle, so it is the one non-tree edge;
            // with it gone, (3, 4) has no replacement left.
            "cycle: non-tree edge, then a tree edge",
            script(
                16,
                &[
                    ins(&[path(0, 7), vec![(7, 0)]].concat()),
                    del(&[(7, 0)]),
                    del(&[(3, 4)]),
                ],
            ),
        ),
        (
            "cycle: tree edge with a replacement",
            script(
                16,
                &[
                    ins(&[path(0, 7), vec![(7, 0)]].concat()),
                    del(&[(3, 4)]),
                    del(&[(7, 0)]),
                ],
            ),
        ),
        (
            "small side holds the component minimum",
            script(
                32,
                &[
                    ins(&[vec![(0, 10)], clique.clone()].concat()),
                    del(&[(0, 10)]),
                ],
            ),
        ),
        (
            // 7 hooks under 3, 3 under 2, 2 under 0: when {2, 3} leaves,
            // 7 (kept by (0, 7)) still points into it.
            "large-side vertex parented into the small side",
            script(
                16,
                &[
                    ins(&[(3, 7), (2, 3), (0, 2), (0, 7), (0, 5), (5, 6), (0, 8)]),
                    del(&[(3, 7), (0, 2)]),
                ],
            ),
        ),
        (
            "certificate edge deleted and re-inserted in consecutive batches",
            script(
                16,
                &[
                    ins(&path(0, 5)),
                    del(&[(2, 3)]),
                    ins(&[(2, 3)]),
                    del(&[(2, 3)]),
                    ins(&[(2, 3)]),
                    del(&[(1, 2), (3, 4)]),
                ],
            ),
        ),
        (
            "path cut in the middle, then at the quarters",
            script(
                1024,
                &[
                    ins(&path(0, 1000)),
                    del(&[(500, 501)]),
                    del(&[(250, 251), (750, 751)]),
                ],
            ),
        ),
        (
            "star centre removal",
            script(64, &[ins(&spokes), del(&spokes)]),
        ),
        (
            // Two tree edges of one component cut in one batch, with a
            // non-tree edge joining the two outer pieces.
            "several cuts settle together",
            script(
                8,
                &[
                    ins(&[(1, 0), (0, 2), (1, 2), (2, 3)]),
                    del(&[(1, 0), (0, 2)]),
                    del(&[(1, 2)]),
                ],
            ),
        ),
    ]
}

#[test]
fn certificate_edge_cases_track_the_oracle_across_strategies_and_threads() {
    for (what, w) in certificate_edge_cases() {
        for strategy in STRATEGIES {
            for threads in [1usize, 2, 8] {
                eprintln!("{what}: {strategy:?} @ {threads}");
                run_differential::<HybridAdj>(&w, strategy, threads);
            }
        }
    }
}

/// Vertices reachable from `from` over `adj`.
fn reach(adj: &[Vec<u32>], from: u32) -> Vec<u32> {
    let mut seen = vec![false; adj.len()];
    seen[from as usize] = true;
    let mut out = vec![from];
    let mut head = 0;
    while head < out.len() {
        for &y in &adj[out[head] as usize] {
            if !seen[y as usize] {
                seen[y as usize] = true;
                out.push(y);
            }
        }
        head += 1;
    }
    out
}

/// The cost contract on a 2^14 R-MAT graph, in adjacency entries read
/// through the view: a non-certificate delete reads none; a certificate
/// delete reads at most 2 × (entries of the smaller side of the cut)
/// plus one vertex's adjacency on the larger side — whatever the size of
/// the larger side, hubs included.
#[test]
fn deletes_scan_nothing_or_at_most_twice_the_smaller_side() {
    const SCALE: u32 = 14;
    let n = 1usize << SCALE;
    let mut seen = std::collections::HashSet::new();
    let mut edges: Vec<(u32, u32)> = Rmat::new(RmatParams::paper(SCALE, 8), 0xCE27)
        .edges()
        .iter()
        .map(|e| (e.u.min(e.v), e.u.max(e.v)))
        .filter(|&(u, v)| u != v && seen.insert((u, v)))
        .collect();
    rng_for(SUITE, 77, 0).shuffle(&mut edges);
    let g: DynGraph<HybridAdj> = DynGraph::undirected(n, &hints(edges.len() * 2));
    for &(u, v) in &edges {
        g.insert_edge(TimedEdge::new(u, v, 1));
    }
    let idx = ConnectivityIndex::from_view(&g);
    let entries = |side: &[u32]| side.iter().map(|&x| g.degree(x)).sum::<usize>();

    // Non-certificate deletes: settled by two pointer reads each.
    let spare: Vec<(u32, u32)> = edges
        .iter()
        .copied()
        .filter(|&(u, v)| !idx.is_certificate_edge(&g, u, v))
        .take(64)
        .collect();
    assert_eq!(spare.len(), 64, "m is about 7n: most edges are non-tree");
    for &(u, v) in &spare {
        assert!(g.delete_edge(u, v));
        idx.note_delete(u, v);
        assert!(idx.has_dirty());
        let view = CountingView::new(&g);
        assert!(idx.same_component(&view, u, v));
        assert_eq!(view.scanned(), 0, "non-certificate delete ({u}, {v})");
        assert!(!idx.has_dirty(), "cleared without a traversal");
    }
    assert_eq!(idx.repair_count(), 0);

    // Certificate deletes, the sides read off the certificate itself.
    let live = |g: &DynGraph<HybridAdj>| -> Vec<(u32, u32)> {
        edges
            .iter()
            .copied()
            .filter(|&(u, v)| g.has_edge(u, v))
            .collect()
    };
    let (mut splits, mut replaced) = (0, 0);
    for trial in 0..24usize {
        let live = live(&g);
        let tree: Vec<(u32, u32)> = live
            .iter()
            .copied()
            .filter(|&(u, v)| idx.is_certificate_edge(&g, u, v))
            .collect();
        // Alternate leaf-ish and random tree edges: pendant vertices
        // exercise true splits next to hubs, the rest mostly
        // replacements deep inside the giant component.
        let (u, v) = if trial % 2 == 0 {
            tree.iter()
                .copied()
                .find(|&(u, v)| g.degree(u).min(g.degree(v)) == 1 + trial / 2 % 3)
                .unwrap_or(tree[trial])
        } else {
            tree[(trial * 7919) % tree.len()]
        };
        let mut forest_adj = vec![Vec::new(); n];
        for &(a, b) in tree.iter().filter(|&&e| e != (u, v)) {
            forest_adj[a as usize].push(b);
            forest_adj[b as usize].push(a);
        }
        let (side_u, side_v) = (reach(&forest_adj, u), reach(&forest_adj, v));
        assert!(g.delete_edge(u, v));
        idx.note_delete(u, v);
        let (small, large_end) = if entries(&side_u) <= entries(&side_v) {
            (entries(&side_u), v)
        } else {
            (entries(&side_v), u)
        };
        let repairs_before = idx.repair_count();
        let view = CountingView::new(&g);
        let still = idx.same_component(&view, u, v);
        assert!(
            view.scanned() <= 2 * small + g.degree(large_end),
            "certificate delete ({u}, {v}): scanned {} with a smaller side of {small} entries",
            view.scanned()
        );
        if still {
            replaced += 1;
            assert_eq!(
                idx.repair_count(),
                repairs_before,
                "a replacement relabels nothing"
            );
        } else {
            splits += 1;
        }
    }
    assert!(
        splits > 0 && replaced > 0,
        "{splits} splits, {replaced} replacements"
    );
    assert_eq!(idx.labels(&g), connected_components(&g));
    assert_eq!(idx.full_rebuild_count(), 0);
}

/// Asserts every read path over the final live graph against the oracle.
fn check_all_paths<V: GraphView>(g: &V, want: &[u32], what: &str) {
    assert_eq!(&connected_components(g), want, "{what}: serial union-find");
    for threads in [1usize, 2, 8] {
        assert_eq!(
            &snap::par::par_cc_with(g, &ParConfig::default().with_threads(threads)),
            want,
            "{what}: par_cc @ {threads} threads"
        );
    }
    let idx = ConnectivityIndex::from_view(g);
    assert_eq!(&idx.labels(g), want, "{what}: ConnectivityIndex::from_view");
    assert_eq!(
        idx.component_count(g),
        snap::kernels::component_count(want),
        "{what}: component count"
    );
}

#[test]
fn incremental_index_tracks_mixed_batches_without_rebuilds() {
    for case in 0..3 {
        let w = rmat_workload(SUITE, 10 + case, 9, 3, 60, 256);
        let n = w.n as usize;
        let want = union_find_components(n, w.surviving.iter().copied());
        for &threads in &[1usize, 2, 8] {
            let g: DynGraph<HybridAdj> = DynGraph::undirected(n, &hints(w.len() * 2));
            let mgr = SnapshotManager::new(g);
            let idx = mgr.enable_connectivity();
            thread_pool(threads).install(|| {
                for batch in &w.batches {
                    mgr.apply_batch(batch);
                }
            });
            check_all_paths(mgr.live(), &want, "final view");
            // The deletion-heavy phase left dirty components; queries
            // repair them on demand — spot-check pairs first.
            let mut rng = rng_for(SUITE, 2, case * 10 + threads as u64);
            for _ in 0..200 {
                let u = rng.next_bounded(n as u64) as u32;
                let v = rng.next_bounded(n as u64) as u32;
                assert_eq!(
                    mgr.indexes().same_component(u, v),
                    want[u as usize] == want[v as usize],
                    "pair ({u}, {v}) @ {threads} threads"
                );
            }
            // Then the full label array, bit-for-bit.
            assert_eq!(idx.labels(mgr.live()), want);
            assert_eq!(
                mgr.indexes().component_count(),
                snap::kernels::component_count(&want)
            );
            // The whole run was served incrementally: no CSR snapshot,
            // no full index rebuild — only targeted repairs.
            assert_eq!(mgr.rebuild_count(), 0, "no CSR rebuild");
            assert_eq!(idx.full_rebuild_count(), 0, "no full recompute");
            assert!(idx.repair_count() >= 1, "deletions must repair lazily");
            let g = mgr.into_inner();
            assert!(g.adjacency().treap_vertex_count() > 0, "both hybrid arms");
        }
    }
}

/// The serving writer hands `apply_vpart_indexed` a whole cycle — its
/// coalesced batches concatenated — in one call. That must be the same
/// thing as one call per batch: the same final adjacency, the same
/// number of changed updates, and the index exact when the call
/// returns. Each call absorbs its changes in stream order and settles
/// them against the view as it is then — the end of the cycle rather
/// than of the batch — so the labels of both sides are checked against
/// a from-scratch oracle, and each side's certificate against its
/// components.
#[test]
fn one_applier_call_per_cycle_equals_one_per_batch() {
    use snap::core::engine::apply_vpart_indexed;
    const N: u32 = 256;
    let ins = |u, v| Update::insert(TimedEdge::new(u, v, 1 + (u + v) % 50));
    let del = |u, v| Update::delete(TimedEdge::new(u, v, 0));
    // Six seeded batches over a small pair pool, so re-inserts of live
    // edges, deletes of absent ones and delete-then-re-insert all occur.
    let mut rng = rng_for(SUITE, 9, 0);
    let mut batches: Vec<Vec<Update>> = (0..6)
        .map(|_| {
            (0..300)
                .map(|_| {
                    let u = rng.next_bounded(N as u64 / 2) as u32;
                    let v = rng.next_bounded(N as u64) as u32;
                    if rng.next_bounded(10) < 7 {
                        ins(u, v)
                    } else {
                        del(u, v)
                    }
                })
                .collect()
        })
        .collect();
    // And, pinned: a duplicate insert and a delete-then-re-insert of one
    // edge, each straddling a batch boundary.
    batches[0].push(ins(200, 201));
    batches[1].insert(0, ins(200, 201));
    batches[2].extend([ins(210, 211), ins(211, 212), ins(210, 212)]);
    batches[3].push(del(210, 211));
    batches[4].insert(0, ins(210, 211));
    let cycle: Vec<Update> = batches.concat();

    struct Side {
        g: DynGraph<HybridAdj>,
        conn: ConnectivityIndex,
    }
    impl Side {
        fn new(hints: &CapacityHints) -> Self {
            let g = DynGraph::undirected(N as usize, hints);
            let conn = ConnectivityIndex::from_view(&g);
            Side { g, conn }
        }
        fn apply(&self, updates: &[Update], shards: usize) -> usize {
            apply_vpart_indexed(&self.g, updates, shards, Some(&self.conn))
        }
    }
    let hints = hints(cycle.len() * 2);
    for shards in [1usize, 2, 8] {
        let (per_batch, per_cycle) = (Side::new(&hints), Side::new(&hints));
        let changed: usize = batches.iter().map(|b| per_batch.apply(b, shards)).sum();
        assert_eq!(per_cycle.apply(&cycle, shards), changed, "changed count");
        assert!(changed < cycle.len(), "the stream must hold no-ops");
        // Bit-identical adjacency, per-vertex order included.
        assert_eq!(
            per_cycle.g.collect_entries(),
            per_batch.g.collect_entries(),
            "{shards} shards: adjacency"
        );
        let csr = per_cycle.g.to_csr();
        for s in [&per_batch, &per_cycle] {
            assert_eq!(s.conn.labels(&s.g), connected_components(&csr));
            assert_eq!(s.conn.full_rebuild_count(), 0);
        }
        // Each side settles on its own schedule (per batch, or once), so
        // their certificates may hold different replacement edges; each
        // must still span its components with live edges only.
        let live: std::collections::BTreeSet<(u32, u32)> = (csr.collect_entries().into_iter())
            .filter(|&(u, v, _)| u < v)
            .map(|(u, v, _)| (u, v))
            .collect();
        for s in [&per_batch, &per_cycle] {
            let tree = (live.iter())
                .filter(|&&(u, v)| s.conn.is_certificate_edge(&s.g, u, v))
                .count();
            assert_eq!(
                tree,
                N as usize - s.conn.component_count(&s.g),
                "{shards} shards: a certificate of live edges spanning every component"
            );
        }
    }
}
