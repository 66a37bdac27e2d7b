//! Quickstart: generate a small-world network, ingest it as a parallel
//! update stream, and run the basic kernels on both read paths — the
//! live dynamic graph and the epoch-cached CSR snapshot.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use snap::prelude::*;

fn main() {
    // 1. Workload: the paper's R-MAT configuration (a,b,c,d =
    //    0.6/0.15/0.15/0.10), n = 2^14 vertices, m = 8n edges, uniform
    //    random timestamps in 1..=100.
    let scale = 14u32;
    let n = 1usize << scale;
    let rmat = Rmat::new(RmatParams::paper(scale, 8), 42);
    let edges = rmat.edges();
    println!("generated R-MAT: n = {n}, m = {}", edges.len());

    // 2. Ingest: the hybrid array/treap representation, shuffled stream,
    //    applied by every rayon worker concurrently.
    let hints = CapacityHints::new(edges.len() * 2);
    let graph: DynGraph<HybridAdj> = DynGraph::undirected(n, &hints);
    let stream = StreamBuilder::new(&edges, 1).construction_shuffled();
    let elapsed = engine::apply_stream_timed(&graph, &stream);
    println!(
        "ingested {} insertions in {:.3} s ({:.2} MUPS); {} vertices promoted to treaps",
        stream.len(),
        elapsed.as_secs_f64(),
        stream.len() as f64 / elapsed.as_secs_f64() / 1e6,
        graph.adjacency().treap_vertex_count(),
    );

    // 3. Mutate through the snapshot manager: it tracks a dirty epoch so
    //    snapshots rebuild only when updates actually landed.
    let mgr = SnapshotManager::new(graph);
    let deletions = StreamBuilder::new(&edges, 2).deletions(edges.len() / 20);
    mgr.apply_batch(&deletions);
    println!(
        "applied {} deletions; {} live entries",
        deletions.len(),
        mgr.live().num_entries()
    );

    // 4a. Query the LIVE view: kernels run directly on the dynamic
    //     representation, no snapshot cost, always fresh.
    let live = mgr.live();
    let hub = (0..n as u32)
        .max_by_key(|&u| live.degree(u))
        .expect("non-empty");
    let live_traversal = bfs(live, hub);
    println!(
        "live view: hub {} reaches {} vertices (ecc {}), zero rebuilds so far: {}",
        hub,
        live_traversal.reached(),
        live_traversal.max_distance(),
        mgr.rebuild_count() == 0,
    );

    // 4b. Burst of snapshot queries: one rebuild amortized across all.
    let csr = mgr.snapshot();
    let labels = connected_components(&*csr);
    let components = snap::kernels::component_count(&labels);
    let traversal = bfs(&*csr, hub);
    assert_eq!(traversal.dist, live_traversal.dist, "read paths must agree");
    println!(
        "snapshot: {} entries, {} components, {} rebuild(s) for {} queries",
        csr.num_entries(),
        components,
        mgr.rebuild_count(),
        2 + 1, // components + bfs above, forest below, one rebuild total
    );

    // 5. Connectivity queries via the link-cut forest: O(diameter) each.
    let forest = LinkCutForest::from_view(&*mgr.snapshot());
    let (mean_depth, max_depth) = forest.depth_stats();
    let sample: Vec<(u32, u32)> = (0..8u32).map(|i| (i, hub)).collect();
    let answers = forest.connected_batch(&sample);
    println!("forest depths: mean {mean_depth:.2}, max {max_depth}");
    for ((u, v), c) in sample.iter().zip(&answers) {
        println!("  connected({u}, {v}) = {c}");
    }

    // 6. The parallel runtime: same views, multi-threaded traversal,
    //    bit-identical results. threads = 0 in ParConfig adopts the
    //    installed pool, so thread_pool(t).install(..) sweeps widths;
    //    graphs below the serial threshold transparently run the serial
    //    kernels instead.
    let threads = 4;
    let par_traversal = snap::util::thread_pool(threads).install(|| par_bfs(&*csr, hub));
    assert_eq!(
        par_traversal.dist, traversal.dist,
        "parallel BFS must agree"
    );
    let par_labels = snap::util::thread_pool(threads).install(|| par_cc(&*csr));
    assert_eq!(par_labels, labels, "parallel CC must agree");
    println!(
        "parallel runtime @ {threads} threads: BFS + CC agree with serial \
         (BFS reached {} vertices)",
        par_traversal.reached()
    );

    // 7. Betweenness centrality on the same runtime: 64 sampled sources
    //    (the paper samples 256 at scale), scores extrapolated by n/k and
    //    bit-identical to the serial kernel at any thread count.
    let sampled = BcSources::Sample { k: 64, seed: 7 };
    let bc = snap::util::thread_pool(threads)
        .install(|| par_bc_with(&*csr, sampled, &ParConfig::default()));
    let top = (0..n)
        .max_by(|&a, &b| bc[a].total_cmp(&bc[b]))
        .expect("non-empty");
    println!(
        "parallel sampled betweenness @ {threads} threads: top vertex {top} \
         (score {:.1}, degree {})",
        bc[top],
        (*csr).out_degree(top as u32),
    );
}
