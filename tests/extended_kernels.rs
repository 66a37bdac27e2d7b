//! Cross-crate integration tests for the extended kernel set: centrality
//! on the hub, temporal vertex lifecycles, and topology statistics on
//! generated workloads.

use snap::kernels::bc::sample_sources;
use snap::kernels::{average_clustering, triangle_count, UNREACHED};
use snap::prelude::*;

fn rmat_csr(scale: u32, ef: usize, seed: u64) -> CsrGraph {
    let edges = Rmat::new(RmatParams::paper(scale, ef), seed).edges();
    CsrGraph::from_edges_undirected(1 << scale, &edges)
}

#[test]
fn centrality_family_agrees_on_the_hub() {
    // On a hub-dominated R-MAT instance, exact and source-sampled
    // betweenness must both rank the max-degree vertex at (or near) the
    // top.
    let csr = rmat_csr(9, 8, 41);
    let n = csr.num_vertices();
    let hub = (0..n as u32).max_by_key(|&u| csr.out_degree(u)).unwrap();
    let exact = betweenness_exact(&csr);
    let sampled = betweenness_approx(&csr, &sample_sources(n, 128, 1));
    for (name, scores) in [("exact", &exact), ("sampled", &sampled)] {
        let better = (0..n).filter(|&v| scores[v] > scores[hub as usize]).count();
        assert!(better <= 3, "{name}: hub outranked by {better} vertices");
    }
}

#[test]
fn clustering_and_triangles_on_generated_graph() {
    let csr = rmat_csr(8, 8, 47);
    let tri = triangle_count(&csr);
    let avg = average_clustering(&csr);
    // R-MAT with the paper's skew produces triangles around hubs.
    assert!(tri > 0, "expected triangles in a dense R-MAT instance");
    assert!((0.0..=1.0).contains(&avg));
}

#[test]
fn temporal_pipeline_with_vertex_labels() {
    // Full pipeline: generate -> assign vertex lifecycles -> vertex-induced
    // temporal subgraph -> kernel answers shrink monotonically.
    use snap::core::VertexLabels;
    use snap::kernels::induced_subgraph_vertices;
    let scale = 9u32;
    let n = 1usize << scale;
    let edges = Rmat::new(RmatParams::paper(scale, 8), 48).edges();
    let w = TimeWindow::open(10, 90);
    let all_alive = VertexLabels::new(n);
    let full = induced_subgraph_vertices(n, &edges, &all_alive, w);
    // Kill half the vertices at time 50.
    let mut labels = VertexLabels::new(n);
    for v in (0..n as u32).step_by(2) {
        labels.set_removed(v, 50);
    }
    let culled = induced_subgraph_vertices(n, &edges, &labels, w);
    assert!(culled.num_entries() < full.num_entries());
    // Every surviving edge respects the lifecycle.
    for (u, v, t) in culled.iter_entries() {
        assert!(labels.alive_at(u, t) && labels.alive_at(v, t));
    }
}

#[test]
fn edge_list_io_round_trips_a_workload() {
    use snap::rmat::io;
    let edges = Rmat::new(RmatParams::paper(9, 4), 49).edges();
    let path = std::env::temp_dir().join("snap_integration_io.txt");
    io::save_edge_list(&path, &edges).unwrap();
    let back = io::load_edge_list(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(back, edges);
    assert_eq!(io::vertex_bound(&back), io::vertex_bound(&edges));
    // And the loaded graph is structurally identical.
    let a = CsrGraph::from_edges_undirected(1 << 9, &edges);
    let b = CsrGraph::from_edges_undirected(1 << 9, &back);
    assert_eq!(a.num_entries(), b.num_entries());
}

#[test]
fn bfs_distance_reductions_are_everywhere_sound() {
    // dist labels from parallel BFS satisfy the triangle property:
    // adjacent vertices differ by at most 1.
    let csr = rmat_csr(10, 8, 50);
    let hub = (0..csr.num_vertices() as u32)
        .max_by_key(|&u| csr.out_degree(u))
        .unwrap();
    let r = bfs(&csr, hub);
    for (u, v, _) in csr.iter_entries() {
        let (du, dv) = (r.dist[u as usize], r.dist[v as usize]);
        if du != UNREACHED && dv != UNREACHED {
            assert!(du.abs_diff(dv) <= 1, "edge ({u},{v}): dist {du} vs {dv}");
        } else {
            assert_eq!(du, dv, "edge endpoints must share reachability");
        }
    }
}
