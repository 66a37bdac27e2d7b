//! Temporal network analysis: time-windowed subgraphs, timestamp-aware
//! traversal, and temporal betweenness — the paper's Sections 3.2-3.4
//! applied to an "interaction log" scenario: which entities were central
//! during a given activity window, respecting the arrow of time?
//!
//! ```text
//! cargo run --release --example temporal_analysis
//! ```

use snap::kernels::bc::sample_sources;
use snap::prelude::*;

fn main() {
    let scale = 13u32;
    let n = 1usize << scale;
    // Interactions with timestamps 1..=100 (think: days of activity).
    let rmat = Rmat::new(RmatParams::paper(scale, 8), 2024);
    let edges = rmat.edges();
    println!(
        "interaction log: n = {n}, {} timestamped interactions",
        edges.len()
    );

    // --- Induced subgraph: activity in the middle of the log. ---
    let window = TimeWindow::open(20, 70);
    let sub = induced_subgraph_csr(n, &edges, window);
    // Both orientations of every in-window interaction; a self-loop is
    // stored once.
    let (inside, loops) = edges
        .iter()
        .filter(|e| window.contains(e.timestamp))
        .fold((0, 0), |(all, loops), e| {
            (all + 1, loops + usize::from(e.u == e.v))
        });
    assert_eq!(sub.num_entries(), 2 * inside - loops, "window subgraph");
    println!(
        "window ({}, {}): {} interactions ({:.1}% of the log)",
        window.lo,
        window.hi,
        sub.num_entries() / 2,
        100.0 * (sub.num_entries() / 2) as f64 / edges.len() as f64,
    );

    // --- Temporal BFS: who is reachable respecting time order vs not. ---
    let csr = CsrGraph::from_edges_undirected(n, &edges);
    let hub = (0..n as u32)
        .max_by_key(|&u| csr.out_degree(u))
        .expect("non-empty");
    let static_reach = bfs(&csr, hub).reached();
    let early = temporal_bfs(&csr, hub, |ts| ts < 30).reached();
    let windowed = temporal_bfs(&csr, hub, |ts| window.contains(ts)).reached();
    // A timestamp filter only removes edges: it cannot reach further.
    assert!(early <= static_reach && windowed <= static_reach);
    println!(
        "reachability from hub {hub}: static {static_reach}, first-month edges {early}, window {windowed}"
    );

    // --- Temporal betweenness: central brokers under time ordering. ---
    let sources = sample_sources(n, 256, 9);
    let bc_t = temporal_betweenness_approx(&csr, &sources);
    let bc_s = betweenness_approx(&csr, &sources);
    for (name, scores) in [("temporal", &bc_t), ("static", &bc_s)] {
        let bad = scores.iter().position(|s| !(s.is_finite() && *s >= 0.0));
        assert_eq!(bad, None, "{name} betweenness must be finite and >= 0");
    }
    let top = |scores: &[f64]| -> Vec<u32> {
        let mut idx: Vec<u32> = (0..n as u32).collect();
        idx.sort_unstable_by(|&a, &b| scores[b as usize].total_cmp(&scores[a as usize]));
        idx.truncate(5);
        idx
    };
    println!("top-5 static brokers   : {:?}", top(&bc_s));
    println!("top-5 temporal brokers : {:?}", top(&bc_t));
}
