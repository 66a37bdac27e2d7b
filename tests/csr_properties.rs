//! Property tests for the CSR snapshot layer: construction paths agree
//! and the snapshot faithfully mirrors the dynamic state.
//!
//! Randomized cases are generated with the workspace's seeded
//! [`snap::util::rng::XorShift64`] (no external property-testing
//! dependency is reachable in this build environment); every case is
//! deterministic per seed, so failures reproduce exactly.

use snap::prelude::*;

mod common;

const N: usize = 48;
const CASES: u64 = 48;

fn edge_list(seed: u64) -> Vec<TimedEdge> {
    let mut rng = common::rng_for(0xC5A_0001, 1, seed);
    common::edge_list(&mut rng, N as u32, 250, 60)
}

/// Building a CSR from the edge list directly equals snapshotting a
/// DynArr graph populated with the same edges (multisets per vertex).
#[test]
fn from_edges_equals_from_dynamic() {
    for case in 0..CASES {
        let edges = edge_list(case);
        let direct = CsrGraph::from_edges_undirected(N, &edges);
        let g: DynGraph<DynArr> = DynGraph::undirected(N, &CapacityHints::new(edges.len() * 2));
        for e in &edges {
            g.insert_edge(*e);
        }
        let snap = g.to_csr();
        assert_eq!(direct.num_entries(), snap.num_entries(), "case {case}");
        for u in 0..N as u32 {
            let mut a: Vec<(u32, u32)> = direct
                .neighbors(u)
                .iter()
                .copied()
                .zip(direct.timestamps(u).iter().copied())
                .collect();
            let mut b: Vec<(u32, u32)> = snap
                .neighbors(u)
                .iter()
                .copied()
                .zip(snap.timestamps(u).iter().copied())
                .collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "case {case}: vertex {u} differs");
        }
    }
}

/// Degrees sum to entries; offsets are monotone; directed CSR stores
/// exactly the input edge multiset.
#[test]
fn directed_csr_is_exact() {
    for case in 0..CASES {
        let edges = edge_list(case);
        let csr = CsrGraph::from_edges_directed(N, &edges);
        assert_eq!(csr.num_entries(), edges.len(), "case {case}");
        let degree_sum: usize = (0..N as u32).map(|u| csr.out_degree(u)).sum();
        assert_eq!(degree_sum, edges.len(), "case {case}");
        assert!(
            csr.offsets().windows(2).all(|w| w[0] <= w[1]),
            "case {case}"
        );
        let mut got: Vec<(u32, u32, u32)> = csr.iter_entries().collect();
        let mut want: Vec<(u32, u32, u32)> =
            edges.iter().map(|e| (e.u, e.v, e.timestamp)).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "case {case}");
    }
}

/// Compressed snapshots decode to the sorted neighbor multiset.
#[test]
fn compressed_round_trip() {
    use snap::core::compressed::CompressedCsr;
    for case in 0..CASES {
        let edges = edge_list(case);
        let csr = CsrGraph::from_edges_undirected(N, &edges);
        let comp = CompressedCsr::from_csr(&csr);
        for u in 0..N as u32 {
            let mut want = csr.neighbors(u).to_vec();
            want.sort_unstable();
            assert_eq!(comp.neighbors(u), want, "case {case}: vertex {u}");
        }
        if csr.num_entries() > 0 {
            assert!(comp.memory_bytes() > 0, "case {case}");
        }
    }
}
