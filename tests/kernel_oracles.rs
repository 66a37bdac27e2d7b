//! Kernel correctness against independent oracles on workloads that cross
//! crate boundaries (generator -> dynamic graph -> snapshot -> kernel).
//!
//! Randomized cases come from the workspace's seeded
//! [`snap::util::rng::XorShift64`] (no external property-testing crate is
//! reachable in this build environment); failures reproduce per seed.

use snap::kernels::cc::union_find_components;
use snap::kernels::{component_count, serial_bfs, UNREACHED};
use snap::prelude::*;
use snap::util::rng::XorShift64;

mod common;

const CASES: u64 = 48;

/// Arbitrary small edge lists (possibly with self-loops and duplicates).
fn edge_list(n: u32, rng: &mut XorShift64) -> Vec<TimedEdge> {
    common::edge_list(rng, n, 200, 50)
}

fn rng_for(case: u64, salt: u64) -> XorShift64 {
    common::rng_for(0x0BAC, salt, case)
}

#[test]
fn parallel_bfs_equals_serial_bfs() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 1);
        let edges = edge_list(48, &mut rng);
        let src = rng.next_bounded(48) as u32;
        let csr = CsrGraph::from_edges_undirected(48, &edges);
        let p = bfs(&csr, src);
        let s = serial_bfs(&csr, src);
        assert_eq!(p.dist, s.dist, "case {case}");
    }
}

#[test]
fn components_equal_union_find() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 2);
        let edges = edge_list(48, &mut rng);
        let csr = CsrGraph::from_edges_undirected(48, &edges);
        let labels = connected_components(&csr);
        let oracle = union_find_components(48, edges.iter().map(|e| (e.u, e.v)));
        assert_eq!(labels, oracle, "case {case}");
    }
}

#[test]
fn forest_connectivity_equals_components() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 3);
        let edges = edge_list(48, &mut rng);
        let csr = CsrGraph::from_edges_undirected(48, &edges);
        let labels = connected_components(&csr);
        let forest = LinkCutForest::from_csr(&csr);
        for u in 0..48u32 {
            for v in 0..48u32 {
                assert_eq!(
                    forest.connected(u, v),
                    labels[u as usize] == labels[v as usize],
                    "case {case}: ({u}, {v})"
                );
            }
        }
    }
}

#[test]
fn forest_roots_count_components() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 4);
        let edges = edge_list(48, &mut rng);
        let csr = CsrGraph::from_edges_undirected(48, &edges);
        let labels = connected_components(&csr);
        let forest = LinkCutForest::from_csr(&csr);
        let roots = (0..48u32)
            .filter(|&v| forest.parent(v) == snap::kernels::lcf::ROOT)
            .count();
        assert_eq!(roots, component_count(&labels), "case {case}");
    }
}

#[test]
fn temporal_bfs_is_a_restriction_of_bfs() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 6);
        let edges = edge_list(48, &mut rng);
        let src = rng.next_bounded(48) as u32;
        let lo = rng.next_bounded(40) as u32;
        let hi = lo + 10;
        let csr = CsrGraph::from_edges_undirected(48, &edges);
        let filtered = temporal_bfs(&csr, src, |ts| ts > lo && ts < hi);
        let full = bfs(&csr, src);
        for v in 0..48usize {
            if filtered.dist[v] != UNREACHED {
                assert!(full.dist[v] != UNREACHED, "case {case}");
                assert!(filtered.dist[v] >= full.dist[v], "case {case}");
            }
        }
        // And it must be exact on the explicitly filtered edge list.
        let kept: Vec<TimedEdge> = edges
            .iter()
            .copied()
            .filter(|e| e.timestamp > lo && e.timestamp < hi)
            .collect();
        let sub = CsrGraph::from_edges_undirected(48, &kept);
        let oracle = serial_bfs(&sub, src);
        assert_eq!(filtered.dist, oracle.dist, "case {case}");
    }
}

#[test]
fn static_bc_nonnegative_and_zero_on_leaves() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 7);
        let edges = edge_list(32, &mut rng);
        let csr = CsrGraph::from_edges_undirected(32, &edges);
        let bc = betweenness_exact(&csr);
        for v in 0..32u32 {
            assert!(bc[v as usize] >= -1e-9, "case {case}");
            // A vertex with at most one distinct neighbor lies on no
            // shortest path interior.
            let mut ns: Vec<u32> = csr
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&w| w != v)
                .collect();
            ns.sort_unstable();
            ns.dedup();
            if ns.len() <= 1 {
                assert!(
                    bc[v as usize].abs() < 1e-9,
                    "case {case}: leaf {v} has bc {}",
                    bc[v as usize]
                );
            }
        }
    }
}

#[test]
fn induced_subgraph_extraction_is_exact() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 8);
        let edges = edge_list(48, &mut rng);
        let lo = rng.next_bounded(40) as u32;
        let hi = lo + 8;
        let w = TimeWindow::open(lo, hi);
        let (kept, count) = snap::kernels::induced_subgraph_edges(&edges, w);
        assert_eq!(count, kept.len(), "case {case}");
        let expect: Vec<TimedEdge> = edges
            .iter()
            .copied()
            .filter(|e| e.timestamp > lo && e.timestamp < hi)
            .collect();
        assert_eq!(kept, expect, "case {case}");
    }
}

/// Link-cut maintenance fuzz: random link_edge/cut_with_replacement
/// sequences tracked against recomputed components.
#[test]
fn forest_maintenance_matches_recomputation() {
    let mut rng = snap::util::rng::XorShift64::new(42);
    let n = 64usize;
    let mut live: Vec<TimedEdge> = Vec::new();
    let mut forest = LinkCutForest::new(n);
    for step in 0..300 {
        if live.is_empty() || rng.next_bool(0.65) {
            // Insert a random edge.
            let u = rng.next_bounded(n as u64) as u32;
            let v = rng.next_bounded(n as u64) as u32;
            if u == v {
                continue;
            }
            live.push(TimedEdge::new(u, v, 1));
            forest.link_edge(u, v);
        } else {
            // Delete a random live edge.
            let i = rng.next_bounded(live.len() as u64) as usize;
            let e = live.swap_remove(i);
            let csr = CsrGraph::from_edges_undirected(n, &live);
            forest.cut_with_replacement(&csr, e.u, e.v);
        }
        // Invariant: forest connectivity == recomputed components.
        let csr = CsrGraph::from_edges_undirected(n, &live);
        let labels = connected_components(&csr);
        for a in (0..n as u32).step_by(7) {
            for b in (0..n as u32).step_by(11) {
                assert_eq!(
                    forest.connected(a, b),
                    labels[a as usize] == labels[b as usize],
                    "step {step}: pair ({a},{b}) diverged"
                );
            }
        }
    }
}
