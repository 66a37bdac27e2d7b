//! Incremental hop distances under mixed update streams: the
//! [`DistanceIndex`] differentially checked against a from-scratch
//! serial BFS per pinned source, through the reusable harness
//! (`common::differential`).
//!
//! Insertions must be absorbed by bounded relaxation wavefronts and
//! deletions by dirty-marks plus lazy targeted repairs — the
//! zero-full-rebuild assertion in the harness pins that the incremental
//! path, not a rebuild, produced every bit-identical row. The
//! SnapshotManager-level test additionally checks the rows the manager's
//! query surface repairs on demand, in full and by spot queries.

mod common;

use common::differential::{rmat_workload, run_differential, DistPair, Strategy};
use common::{hints, rng_for};
use snap::prelude::*;
use snap::util::thread_pool;
use snap_kernels::serial_bfs;

const SUITE: u64 = 0xD157A;

const SOURCES: [u32; 4] = [0, 17, 255, 511];

#[test]
fn index_tracks_bfs_across_strategies_and_threads() {
    for case in 0..2 {
        let w = rmat_workload(SUITE, case, 9, 3, 40, 256);
        for threads in [1usize, 2, 8] {
            run_differential::<DynArr, _, _>(&w, Strategy::Stream, threads, |g| {
                DistPair::new(g, &SOURCES)
            });
            run_differential::<HybridAdj, _, _>(&w, Strategy::Vpart, threads, |g| {
                DistPair::new(g, &SOURCES)
            });
            run_differential::<TreapAdj, _, _>(&w, Strategy::Epart, threads, |g| {
                DistPair::new(g, &SOURCES)
            });
        }
    }
}

#[test]
fn deletion_heavy_streams_stay_on_the_targeted_repair_path() {
    for case in 0..2 {
        let w = rmat_workload(SUITE, 10 + case, 9, 3, 60, 128);
        for threads in [1usize, 2, 8] {
            run_differential::<HybridAdj, _, _>(&w, Strategy::Vpart, threads, |g| {
                DistPair::new(g, &SOURCES)
            });
        }
    }
}

#[test]
fn manager_repairs_agree_with_the_oracle() {
    for case in 0..2 {
        let w = rmat_workload(SUITE, 20 + case, 9, 3, 50, 256);
        let n = w.n as usize;
        for &threads in &[1usize, 2, 8] {
            let mgr =
                SnapshotManager::new(DynGraph::<HybridAdj>::undirected(n, &hints(w.len() * 2)));
            let idx = mgr.enable_distances(&SOURCES);
            thread_pool(threads).install(|| {
                for batch in &w.batches {
                    mgr.apply_batch(batch);
                }
            });
            // The first query of each dirtied row repairs it; compare
            // bit-for-bit.
            for &s in &SOURCES {
                assert_eq!(
                    mgr.indexes().hop_distances(s),
                    serial_bfs(mgr.live(), s).dist,
                    "source {s} @ {threads} threads"
                );
            }
            // Spot queries against the oracle rows.
            let mut rng = rng_for(SUITE, 3, case * 10 + threads as u64);
            let oracle = serial_bfs(mgr.live(), SOURCES[0]).dist;
            for _ in 0..200 {
                let v = rng.next_bounded(n as u64) as u32;
                let want = (oracle[v as usize] != u32::MAX).then_some(oracle[v as usize]);
                assert_eq!(
                    mgr.indexes().hop_distance(SOURCES[0], v),
                    want,
                    "vertex {v}"
                );
            }
            assert_eq!(mgr.rebuild_count(), 0, "no CSR rebuild");
            assert_eq!(idx.full_rebuild_count(), 0, "no full recompute");
            let g = mgr.into_inner();
            assert!(g.adjacency().treap_vertex_count() > 0, "both hybrid arms");
        }
    }
}
