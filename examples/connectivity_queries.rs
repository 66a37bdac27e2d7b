//! Dynamic connectivity service: answer `same_component` queries across
//! edge insertions and deletions — the paper's Section 3.1 scenario
//! (e.g. "are these two accounts in the same interaction cluster right
//! now?") — two ways:
//!
//! 1. the incremental [`ConnectivityIndex`] behind [`SnapshotManager`]:
//!    unions on insert, deletions settled through its spanning-forest
//!    certificate on the first query after them (free unless a forest
//!    edge was hit), zero traversals and zero snapshots on the clean
//!    path;
//! 2. the link-cut forest with replacement-edge search (the structure
//!    the paper proposes, and the same `snap::core::forest` the index
//!    stands on), driven by hand for comparison.
//!
//! ```text
//! cargo run --release --example connectivity_queries
//! ```

use snap::prelude::*;
use snap::util::rng::XorShift64;
use std::time::Instant;

fn main() {
    let scale = 14u32;
    let n = 1usize << scale;
    let rmat = Rmat::new(RmatParams::paper(scale, 8), 99);
    let edges = rmat.edges();
    serve_with_index(n, &edges);

    // Maintain the graph itself dynamically: the replacement-edge search
    // below reads the LIVE view right after each delete, so no snapshot
    // rebuild sits on the deletion path.
    let hints = CapacityHints::new(edges.len() * 2);
    let graph: DynGraph<HybridAdj> = DynGraph::undirected(n, &hints);
    let stream = StreamBuilder::new(&edges, 1).construction_shuffled();
    engine::apply_stream(&graph, &stream);
    let mut live = edges;

    // Build one snapshot and its spanning forest.
    let csr = graph.to_csr();
    let mut forest = LinkCutForest::from_view(&csr);
    let labels = connected_components(&csr);
    println!(
        "initial graph: n = {n}, m = {}, components = {}",
        live.len(),
        snap::kernels::component_count(&labels)
    );

    // Query throughput on the static forest (Figure 8's workload).
    let mut rng = XorShift64::new(5);
    let queries: Vec<(u32, u32)> = (0..500_000)
        .map(|_| {
            (
                rng.next_bounded(n as u64) as u32,
                rng.next_bounded(n as u64) as u32,
            )
        })
        .collect();
    let t = Instant::now();
    let answers = forest.connected_batch(&queries);
    let secs = t.elapsed().as_secs_f64();
    let connected = answers.iter().filter(|&&b| b).count();
    println!(
        "{} queries in {:.3} s = {:.2} M queries/s ({:.1}% connected)",
        queries.len(),
        secs,
        queries.len() as f64 / secs / 1e6,
        100.0 * connected as f64 / queries.len() as f64,
    );

    // Incremental maintenance: insertions just link components...
    let fresh = Rmat::new(RmatParams::paper(scale, 1), 123).edges();
    let mut tree_edges = 0;
    for e in &fresh {
        graph.insert_edge(*e);
        if e.u != e.v && forest.link_edge(e.u, e.v) {
            tree_edges += 1;
        }
    }
    live.extend_from_slice(&fresh);
    println!(
        "inserted {} edges: {} became tree edges (merged components)",
        fresh.len(),
        tree_edges
    );

    // ...deletions cut and search for a replacement (extension). The
    // search runs over the live DynGraph view — before the GraphView
    // refactor this path rebuilt a full CSR per deletion.
    let mut reconnected = 0;
    let mut split = 0;
    for _ in 0..50 {
        let i = rng.next_bounded(live.len() as u64) as usize;
        let e = live.swap_remove(i);
        graph.delete_edge(e.u, e.v);
        if forest.cut_with_replacement(&graph, e.u, e.v) {
            reconnected += 1;
        } else {
            split += 1;
        }
    }
    println!("deleted 50 edges: {reconnected} reconnected via replacement, {split} splits");

    // The forest must still agree with ground-truth components, computed
    // here straight off the live view.
    let truth = connected_components(&graph);
    let mut checked = 0;
    let mut ok = 0;
    for i in (0..n as u32).step_by(97) {
        for j in (0..n as u32).step_by(101) {
            checked += 1;
            if forest.connected(i, j) == (truth[i as usize] == truth[j as usize]) {
                ok += 1;
            }
        }
    }
    println!("verification: {ok}/{checked} sampled pairs agree with recomputed components");
    assert_eq!(ok, checked, "forest diverged from ground truth");
}

/// The serving path this repo now ships: an incremental union-find index
/// maintained by the [`SnapshotManager`] on every update, answering
/// queries with no traversal at all between batches.
fn serve_with_index(n: usize, edges: &[TimedEdge]) {
    let hints = CapacityHints::new(edges.len() * 2);
    let mgr = SnapshotManager::new(DynGraph::<HybridAdj>::undirected(n, &hints));
    let idx = mgr.enable_connectivity();
    let stream = StreamBuilder::new(edges, 1).construction_shuffled();
    mgr.apply_batch(&stream);
    let index = mgr.indexes();

    // A clean query burst: every answer is a couple of pointer chases.
    let mut rng = XorShift64::new(5);
    let queries: Vec<(u32, u32)> = (0..500_000)
        .map(|_| {
            (
                rng.next_bounded(n as u64) as u32,
                rng.next_bounded(n as u64) as u32,
            )
        })
        .collect();
    let t = Instant::now();
    let connected = queries
        .iter()
        .filter(|&&(u, v)| index.same_component(u, v))
        .count();
    let secs = t.elapsed().as_secs_f64();
    println!(
        "index: {} queries in {:.3} s = {:.2} M queries/s ({:.1}% connected, {} CSR rebuilds, {} repairs)",
        queries.len(),
        secs,
        queries.len() as f64 / secs / 1e6,
        100.0 * connected as f64 / queries.len() as f64,
        mgr.rebuild_count(),
        idx.repair_count(),
    );
    assert_eq!(mgr.rebuild_count(), 0, "serving must not build snapshots");

    // Deletions are logged; the first query after settles them through
    // the certificate (a replacement search per forest edge hit, a
    // serial relabel only for the whole-component fallback), the rest
    // are cheap again. `labels` settles everything at once.
    let mut removed = 0usize;
    for e in edges.iter().step_by(edges.len() / 64) {
        removed += usize::from(mgr.delete_edge(e.u, e.v));
    }
    let t = Instant::now();
    let labels = idx.labels(mgr.live());
    let secs = t.elapsed().as_secs_f64();
    println!(
        "after {removed} deletions: {} relabels, {secs:.3} s to a clean {}-component index",
        idx.repair_count(),
        index.component_count(),
    );
    // Ground truth: the index must match a fresh traversal exactly.
    let truth = connected_components(mgr.live());
    assert_eq!(labels, truth, "index diverged from kernel");
    assert_eq!(idx.full_rebuild_count(), 0, "everything stayed incremental");
    println!("index verified against a full recompute\n");
}
