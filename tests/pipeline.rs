//! End-to-end integration: R-MAT workload -> parallel ingestion into every
//! representation -> identical graph state -> CSR snapshot -> kernels
//! agree with each other and with oracles.

mod common;

use snap::prelude::*;
use std::collections::HashSet;

const SCALE: u32 = 10;
const N: usize = 1 << SCALE;

fn live_set<A: DynamicAdjacency>(g: &DynGraph<A>) -> HashSet<(u32, u32)> {
    let mut set = HashSet::new();
    for u in 0..g.num_vertices() as u32 {
        g.for_each_neighbor(u, &mut |e| {
            set.insert((u, e.nbr));
        });
    }
    set
}

fn build<A: DynamicAdjacency>(edges: &[TimedEdge]) -> DynGraph<A> {
    let g: DynGraph<A> = DynGraph::undirected(N, &common::hints(edges.len() * 2));
    let stream = StreamBuilder::new(edges, 3).construction_shuffled();
    engine::apply_stream(&g, &stream);
    g
}

#[test]
fn all_representations_agree_after_parallel_construction() {
    let edges = Rmat::new(RmatParams::paper(SCALE, 8), 1).edges();
    let arr: DynGraph<DynArr> = build(&edges);
    let tre: DynGraph<TreapAdj> = build(&edges);
    let hyb: DynGraph<HybridAdj> = build(&edges);
    let sa = live_set(&arr);
    let st = live_set(&tre);
    let sh = live_set(&hyb);
    assert!(
        hyb.adjacency().treap_vertex_count() > 0,
        "both hybrid arms built"
    );
    assert_eq!(sa, st, "Dyn-arr vs Treaps live sets differ");
    assert_eq!(sa, sh, "Dyn-arr vs Hybrid live sets differ");
    // Ground truth from the edge list itself.
    let mut want = HashSet::new();
    for e in &edges {
        want.insert((e.u, e.v));
        want.insert((e.v, e.u));
    }
    assert_eq!(sa, want);
}

#[test]
fn csr_snapshots_are_equivalent_across_representations() {
    let edges = Rmat::new(RmatParams::paper(SCALE, 8), 2).edges();
    let arr: DynGraph<DynArr> = build(&edges);
    let hyb: DynGraph<HybridAdj> = build(&edges);
    let ca = arr.to_csr();
    let ch = hyb.to_csr();
    // Dyn-arr keeps duplicate parallel edges; hybrid treap vertices dedup,
    // so entry counts differ but dedup'd neighborhoods must agree.
    assert!(ca.num_entries() >= ch.num_entries());
    for u in 0..N as u32 {
        let mut na: Vec<u32> = ca.neighbors(u).to_vec();
        let mut nh: Vec<u32> = ch.neighbors(u).to_vec();
        na.sort_unstable();
        nh.sort_unstable();
        // Hybrid dedups treap vertices' duplicates; Dyn-arr keeps them.
        na.dedup();
        nh.dedup();
        assert_eq!(na, nh, "neighborhood of {u} differs across representations");
    }
}

#[test]
fn kernels_agree_on_the_same_snapshot() {
    let edges = Rmat::new(RmatParams::paper(SCALE, 8), 3).edges();
    let csr = CsrGraph::from_edges_undirected(N, &edges);
    let labels = connected_components(&csr);
    let forest = LinkCutForest::from_csr(&csr);
    let hub = (0..N as u32).max_by_key(|&u| csr.out_degree(u)).unwrap();
    let traversal = bfs(&csr, hub);
    for v in (0..N as u32).step_by(13) {
        let reach_bfs = traversal.dist[v as usize] != snap::kernels::UNREACHED;
        let reach_cc = labels[v as usize] == labels[hub as usize];
        let reach_lcf = forest.connected(v, hub);
        assert_eq!(reach_bfs, reach_cc, "BFS vs components for {v}");
        assert_eq!(reach_cc, reach_lcf, "components vs forest for {v}");
    }
}

#[test]
fn induced_subgraph_consistent_between_static_and_dynamic_paths() {
    let edges = Rmat::new(RmatParams::paper(SCALE, 8), 4).edges();
    let w = TimeWindow::open(20, 70);
    // Static path.
    let sub = induced_subgraph_csr(N, &edges, w);
    // Dynamic path: build then restrict in place. Dyn-arr keeps the full
    // multiset of parallel edges, so per-entry timestamp filtering matches
    // the static filter exactly (treap vertices would collapse duplicate
    // edges to their last timestamp, a set-semantics difference).
    let g: DynGraph<DynArr> = build(&edges);
    snap::kernels::subgraph::restrict_in_place(&g, w);
    let dynamic = g.to_csr();
    for u in 0..N as u32 {
        let mut a: Vec<u32> = sub.neighbors(u).to_vec();
        let mut b: Vec<u32> = dynamic.neighbors(u).to_vec();
        a.sort_unstable();
        a.dedup();
        b.sort_unstable();
        b.dedup();
        assert_eq!(a, b, "window subgraph differs at vertex {u}");
    }
}

#[test]
fn temporal_bfs_respects_window_on_snapshot_of_dynamic_graph() {
    let edges = Rmat::new(RmatParams::paper(SCALE, 8), 5).edges();
    let g: DynGraph<DynArr> = build(&edges);
    let csr = g.to_csr();
    let w = TimeWindow::open(30, 60);
    let hub = (0..N as u32).max_by_key(|&u| csr.out_degree(u)).unwrap();
    let filtered = temporal_bfs(&csr, hub, |ts| w.contains(ts));
    let full = bfs(&csr, hub);
    // The filtered traversal can never reach more vertices, and both reach
    // the source.
    assert!(filtered.reached() <= full.reached());
    assert!(filtered.reached() >= 1);
    // Every filtered-reached vertex must also be statically reachable.
    for v in 0..N {
        if filtered.dist[v] != snap::kernels::UNREACHED {
            assert_ne!(full.dist[v], snap::kernels::UNREACHED);
            assert!(
                filtered.dist[v] >= full.dist[v],
                "filtering cannot shorten paths"
            );
        }
    }
}

#[test]
fn fixed_dynarr_matches_dynarr_on_insert_only_stream() {
    let edges = Rmat::new(RmatParams::paper(SCALE, 8), 6).edges();
    let stream = StreamBuilder::new(&edges, 8).construction_shuffled();
    // Oracle-sized Dyn-arr-nr.
    let sources = stream.iter().flat_map(|u| [u.edge.u, u.edge.v]);
    let caps = FixedDynArr::capacities_for_inserts(N, sources);
    let nr = DynGraph::from_adjacency(FixedDynArr::with_capacities(&caps), false);
    engine::apply_stream(&nr, &stream);
    let arr: DynGraph<DynArr> = build(&edges);
    assert_eq!(live_set(&nr), live_set(&arr));
    assert_eq!(nr.total_entries(), arr.total_entries());
}
