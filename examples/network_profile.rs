//! Full topology profile of a network — the "characterize this data set"
//! workflow the paper's introduction motivates: degree distribution,
//! clustering, diameter, components, and central entities, all from one
//! snapshot. Reads an edge-list file if given one, otherwise
//! profiles a synthetic R-MAT instance (and round-trips it through the
//! edge-list format to exercise I/O).
//!
//! ```text
//! cargo run --release --example network_profile [edge_list.txt]
//! ```

use snap::kernels::bc::sample_sources;
use snap::kernels::{average_clustering, serial_bfs, UNREACHED};
use snap::prelude::*;
use snap::rmat::io;
use snap::util::stats::log2_histogram;

fn main() {
    let edges = match std::env::args().nth(1) {
        Some(path) => {
            println!("loading {path}");
            io::load_edge_list(&path).expect("failed to load edge list")
        }
        None => {
            let rmat = Rmat::new(RmatParams::paper(13, 8), 11);
            let generated = rmat.edges();
            // Round-trip through the text format to prove the I/O path.
            let tmp = std::env::temp_dir().join("snap_profile_demo.txt");
            io::save_edge_list(&tmp, &generated).expect("save failed");
            let loaded = io::load_edge_list(&tmp).expect("reload failed");
            std::fs::remove_file(&tmp).ok();
            assert_eq!(loaded, generated, "edge-list round trip");
            println!("profiling synthetic R-MAT (round-tripped through edge-list I/O)");
            loaded
        }
    };
    let n = io::vertex_bound(&edges);
    let csr = CsrGraph::from_edges_undirected(n, &edges);
    println!(
        "n = {n}, m = {} (directed entries {})",
        edges.len(),
        csr.num_entries()
    );

    // Degree distribution (log2 buckets) — the power-law signature.
    let degrees = (0..n as u32).map(|u| csr.out_degree(u));
    let hist = log2_histogram(degrees);
    println!("degree histogram (bucket i = degrees in [2^i, 2^(i+1))):");
    for (i, c) in hist.iter().enumerate() {
        if *c > 0 {
            println!(
                "  2^{i:<2} {c:>8}  {}",
                "#".repeat(1 + (*c as f64).log2() as usize)
            );
        }
    }
    let max_deg = csr.max_degree();
    println!(
        "max degree {max_deg} vs mean {:.1}",
        csr.num_entries() as f64 / n as f64
    );

    // Small-world signature: clustering + diameter.
    let cc = average_clustering(&csr);
    let hub = (0..n as u32)
        .max_by_key(|&u| csr.out_degree(u))
        .expect("non-empty");
    // Double sweep: the eccentricity of the vertex farthest from the
    // hub bounds the diameter from below.
    let from_hub = serial_bfs(&csr, hub).dist;
    let far = (0..n as u32)
        .filter(|&v| from_hub[v as usize] != UNREACHED)
        .max_by_key(|&v| from_hub[v as usize])
        .unwrap_or(hub);
    let diam_lb = serial_bfs(&csr, far).max_distance();
    println!("average clustering {cc:.4}, diameter lower bound {diam_lb}");

    // Components.
    let labels = connected_components(&csr);
    let comps = snap::kernels::component_count(&labels);
    println!("{comps} components");

    // Central entities.
    let bc = betweenness_approx(&csr, &sample_sources(n, 128, 5));
    let mut idx: Vec<u32> = (0..n as u32).collect();
    idx.sort_unstable_by(|&a, &b| bc[b as usize].total_cmp(&bc[a as usize]));
    println!(
        "top-5 by betweenness (128 sampled sources): {:?}",
        &idx[..5.min(idx.len())]
    );
}
