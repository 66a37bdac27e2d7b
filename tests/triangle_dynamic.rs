//! Incremental triangle counting under mixed update streams: the
//! [`TriangleIndex`] differentially checked against the kernels-side
//! recount (per-vertex counts, global count, and the clustering
//! coefficient to the bit), through the reusable harness
//! (`common::differential`).
//!
//! Every insert and delete must be absorbed as an O(min-degree) delta;
//! the harness's zero-full-rebuild assertion pins that no recount ever
//! happened on the incremental path.

mod common;

use common::differential::{rmat_workload, run_differential, Strategy, TriPair};
use common::hints;
use snap::prelude::*;
use snap::util::thread_pool;

const SUITE: u64 = 0x7121A;

#[test]
fn index_tracks_the_recount_across_strategies_and_threads() {
    for case in 0..2 {
        let w = rmat_workload(SUITE, case, 9, 3, 40, 256);
        for threads in [1usize, 2, 8] {
            run_differential::<DynArr, _, _>(&w, Strategy::Stream, threads, TriPair::new);
            run_differential::<HybridAdj, _, _>(&w, Strategy::Vpart, threads, TriPair::new);
            run_differential::<TreapAdj, _, _>(&w, Strategy::Epart, threads, TriPair::new);
        }
    }
}

#[test]
fn deletion_heavy_streams_stay_on_the_delta_path() {
    for case in 0..2 {
        let w = rmat_workload(SUITE, 10 + case, 9, 3, 60, 128);
        for threads in [1usize, 2, 8] {
            run_differential::<HybridAdj, _, _>(&w, Strategy::Vpart, threads, TriPair::new);
        }
    }
}

#[test]
fn manager_queries_agree_with_the_kernels_oracle() {
    for case in 0..2 {
        let w = rmat_workload(SUITE, 20 + case, 9, 3, 50, 256);
        let n = w.n as usize;
        for &threads in &[1usize, 2, 8] {
            let mgr =
                SnapshotManager::new(DynGraph::<HybridAdj>::undirected(n, &hints(w.len() * 2)));
            let idx = mgr.enable_triangles();
            thread_pool(threads).install(|| {
                for batch in &w.batches {
                    mgr.apply_batch(batch);
                }
            });
            let per = snap_kernels::triangles_per_vertex(mgr.live());
            for (u, &want) in per.iter().enumerate() {
                assert_eq!(mgr.indexes().triangles_of(u as u32), want, "vertex {u}");
            }
            assert_eq!(mgr.indexes().triangle_count(), per.iter().sum::<u64>() / 3);
            assert_eq!(
                mgr.indexes().average_clustering().to_bits(),
                average_clustering(mgr.live()).to_bits(),
                "clustering must match the kernel bit-for-bit"
            );
            assert_eq!(mgr.rebuild_count(), 0, "no CSR rebuild");
            assert_eq!(idx.full_rebuild_count(), 0, "no recount");
            assert!(idx.delta_count() >= w.len() / 2, "deltas did the work");
            let g = mgr.into_inner();
            assert!(g.adjacency().treap_vertex_count() > 0, "both hybrid arms");
        }
    }
}
