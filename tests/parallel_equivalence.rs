//! Parallel-vs-serial kernel equivalence.
//!
//! Every parallel kernel in `snap-par` must reproduce its serial
//! counterpart exactly — BFS levels, component partitions (canonical
//! min-id labels, so "up to relabeling" is literal equality), and
//! betweenness scores — on directed and undirected line/star/cycle graphs
//! and seeded R-MAT instances, across 1, 2, and 8 worker threads (plus any
//! counts named in `SNAP_THREADS`), on both read paths: live
//! [`DynGraph`] views and CSR snapshots.
//!
//! `par_cc` and `connected_components` are both union-find, so
//! components are also checked against min-id labels built from
//! `serial_bfs`, a traversal that shares no code with either — among
//! them on the shapes Afforest's skip rule must get right: a largest
//! component without vertex 0, a tie for largest, isolated vertices and
//! `n % 64 != 0`.
//!
//! The parallel path is forced (`serial_threshold = 0`) so these graphs
//! exercise the frontier engine, the atomic claim protocol, and the
//! direction-optimizing switch rather than the serial fallback — and the
//! adaptive scheduler is pinned to each of its extremes
//! (`Grain::Edges(0)` always forks, `Edges(usize::MAX)` never does, and
//! a 1-edge chunk budget floods the steal path) to prove the schedule
//! cannot leak into the results.

use snap::kernels::bc::sample_sources;
use snap::kernels::{
    betweenness_approx, betweenness_exact, connected_components, serial_bfs, UNREACHED,
};
use snap::par::{
    par_bc_with, par_bfs_stats, par_bfs_with, par_cc_with, BcSources, Grain, ParConfig,
};
use snap::prelude::*;
use snap::util::thread_pool;

/// Thread counts under test: always {1, 2, 8}, plus `SNAP_THREADS`.
fn thread_sweep() -> Vec<usize> {
    let mut sweep = vec![1usize, 2, 8];
    if let Ok(s) = std::env::var("SNAP_THREADS") {
        sweep.extend(s.split(',').filter_map(|x| x.trim().parse::<usize>().ok()));
    }
    sweep.sort_unstable();
    sweep.dedup();
    sweep
}

fn force() -> ParConfig {
    ParConfig::default().with_serial_threshold(0)
}

/// The adaptive scheduler pinned to each extreme. `steal-stress` makes
/// every edge its own chunk, so forked levels have far more chunks than
/// workers and the deal/steal path runs hot.
fn adaptive_configs() -> Vec<(&'static str, ParConfig)> {
    vec![
        ("always-fork", force().with_level_grain(Grain::Edges(0))),
        (
            "never-fork",
            force().with_level_grain(Grain::Edges(usize::MAX)),
        ),
        (
            "steal-stress",
            force()
                .with_level_grain(Grain::Edges(0))
                .with_chunk_edges(1),
        ),
    ]
}

struct Case {
    name: &'static str,
    n: usize,
    edges: Vec<TimedEdge>,
    directed: bool,
}

fn line(n: u32, directed: bool) -> Vec<TimedEdge> {
    let _ = directed;
    (0..n - 1)
        .map(|i| TimedEdge::new(i, i + 1, i % 90 + 1))
        .collect()
}

fn star(leaves: u32) -> Vec<TimedEdge> {
    (1..=leaves)
        .map(|v| TimedEdge::new(0, v, v % 90 + 1))
        .collect()
}

fn cycle(n: u32) -> Vec<TimedEdge> {
    (0..n)
        .map(|i| TimedEdge::new(i, (i + 1) % n, i % 90 + 1))
        .collect()
}

fn rmat(scale: u32, seed: u64) -> Vec<TimedEdge> {
    Rmat::new(RmatParams::paper(scale, 8), seed).edges()
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "line-und",
            n: 700,
            edges: line(700, false),
            directed: false,
        },
        Case {
            name: "line-dir",
            n: 700,
            edges: line(700, true),
            directed: true,
        },
        Case {
            name: "star-und",
            n: 1501,
            edges: star(1500),
            directed: false,
        },
        Case {
            name: "cycle-und",
            n: 900,
            edges: cycle(900),
            directed: false,
        },
        Case {
            name: "cycle-dir",
            n: 900,
            edges: cycle(900),
            directed: true,
        },
        Case {
            name: "rmat-und",
            n: 1 << 10,
            edges: rmat(10, 42),
            directed: false,
        },
        Case {
            name: "rmat-dir",
            n: 1 << 10,
            edges: rmat(10, 77),
            directed: true,
        },
    ]
}

fn csr_of(case: &Case) -> CsrGraph {
    if case.directed {
        CsrGraph::from_edges_directed(case.n, &case.edges)
    } else {
        CsrGraph::from_edges_undirected(case.n, &case.edges)
    }
}

fn live_of(case: &Case) -> DynGraph<HybridAdj> {
    let hints = CapacityHints::new(case.edges.len() * 2 + 16).with_degree_thresh(8);
    let g = if case.directed {
        DynGraph::<HybridAdj>::directed(case.n, &hints)
    } else {
        DynGraph::<HybridAdj>::undirected(case.n, &hints)
    };
    for &e in &case.edges {
        g.insert_edge(e);
    }
    g
}

/// Asserts the parallel parent array encodes a valid BFS tree for the
/// given exact distances.
fn assert_valid_parents<V: GraphView>(view: &V, src: u32, dist: &[u32], parent: &[u32]) {
    assert_eq!(parent[src as usize], UNREACHED);
    for v in 0..dist.len() {
        if v as u32 == src || dist[v] == UNREACHED {
            assert_eq!(parent[v], UNREACHED, "unreached vertex {v} has a parent");
            continue;
        }
        let p = parent[v];
        assert_eq!(
            dist[p as usize] + 1,
            dist[v],
            "parent of {v} is not one level up"
        );
        assert!(
            view.find_edge(p, |w, _| w == v as u32).is_some(),
            "parent edge {p}->{v} does not exist"
        );
    }
}

fn check_bfs<V: GraphView>(view: &V, label: &str, threads: usize) {
    let serial = serial_bfs(view, 0);
    let par = thread_pool(threads).install(|| par_bfs_with(view, 0, &force()));
    assert_eq!(par.dist, serial.dist, "{label}: BFS levels @ {threads}t");
    assert_valid_parents(view, 0, &par.dist, &par.parent);
}

/// Canonical min-id component labels from serial BFS: sources in
/// increasing id order, so each component is labeled by its minimum.
fn bfs_labels<V: GraphView>(view: &V) -> Vec<u32> {
    let n = view.num_vertices();
    let mut labels = vec![UNREACHED; n];
    for s in 0..n as u32 {
        if labels[s as usize] != UNREACHED {
            continue;
        }
        for (v, &d) in serial_bfs(view, s).dist.iter().enumerate() {
            if d != UNREACHED {
                labels[v] = s;
            }
        }
    }
    labels
}

fn check_cc<V: GraphView>(view: &V, label: &str, threads: usize) {
    let serial = connected_components(view);
    let par = thread_pool(threads).install(|| par_cc_with(view, &force()));
    assert_eq!(par, serial, "{label}: component labels @ {threads}t");
    assert_eq!(par, bfs_labels(view), "{label}: BFS labels @ {threads}t");
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Betweenness must be *bit*-identical to the serial kernel — literal
/// `f64` equality, not tolerance — on every view, at every thread count
/// (see `snap_par::bc` for the determinism contract that makes this
/// assertable).
fn check_bc<V: GraphView>(view: &V, serial: &[f64], label: &str, threads: usize) {
    let par = thread_pool(threads).install(|| par_bc_with(view, BcSources::Exact, &force()));
    assert_eq!(
        bits(&par),
        bits(serial),
        "{label}: BC @ {threads}t diverged from serial"
    );
}

#[test]
fn par_bc_matches_serial_bitwise_everywhere() {
    for case in &cases() {
        let csr = csr_of(case);
        let live = live_of(case);
        let serial_csr = betweenness_exact(&csr);
        let serial_live = betweenness_exact(&live);
        for &t in &thread_sweep() {
            check_bc(&csr, &serial_csr, &format!("{} (csr)", case.name), t);
            check_bc(&live, &serial_live, &format!("{} (live)", case.name), t);
        }
    }
}

#[test]
fn par_bc_sampled_matches_serial_bitwise() {
    // Sampled approximation: same sampled source list (seeded), same
    // n/k extrapolation, bit-identical scores on both read paths. k = 3
    // is fewer sources than one block, so the block runs on the calling
    // thread.
    let case = &cases()[5]; // rmat-und
    let csr = csr_of(case);
    let live = live_of(case);
    for k in [128usize, 3] {
        let sources = sample_sources(case.n, k, 11);
        let serial_csr = betweenness_approx(&csr, &sources);
        let serial_live = betweenness_approx(&live, &sources);
        let sampled = BcSources::Sample { k, seed: 11 };
        for &t in &thread_sweep() {
            let par = thread_pool(t).install(|| par_bc_with(&csr, sampled, &force()));
            assert_eq!(bits(&par), bits(&serial_csr), "sampled k={k} csr @ {t}t");
            let par = thread_pool(t).install(|| par_bc_with(&live, sampled, &force()));
            assert_eq!(bits(&par), bits(&serial_live), "sampled k={k} live @ {t}t");
        }
    }
}

#[test]
fn par_bfs_matches_serial_everywhere() {
    for case in &cases() {
        let csr = csr_of(case);
        let live = live_of(case);
        for &t in &thread_sweep() {
            check_bfs(&csr, &format!("{} (csr)", case.name), t);
            check_bfs(&live, &format!("{} (live)", case.name), t);
        }
    }
}

#[test]
fn par_cc_matches_serial_everywhere() {
    let undirected = cases().into_iter().filter(|c| !c.directed);
    for case in undirected.chain(component_cases()) {
        let csr = csr_of(&case);
        let live = live_of(&case);
        for &t in &thread_sweep() {
            check_cc(&csr, &format!("{} (csr)", case.name), t);
            check_cc(&live, &format!("{} (live)", case.name), t);
        }
    }
}

/// Undirected shapes for Afforest's skip rule: its sampled root must be
/// skipped safely wherever it lands. Every `n` is off a 64-multiple.
fn component_cases() -> Vec<Case> {
    let dense = |lo: u32, hi: u32| -> Vec<TimedEdge> {
        // Every vertex to its next three: one dense component.
        (lo..hi)
            .flat_map(|u| (u + 1..(u + 4).min(hi)).map(move |v| TimedEdge::new(u, v, 1)))
            .collect()
    };
    // Path 0..40, largest component 100..400, cycle 450..520, two
    // triangles 530..536 bridged by each end's third entry (only the
    // link sweep after sampling joins them), the rest isolated.
    let mut several = line(40, false);
    several.extend(dense(100, 400));
    several.extend((450..520).map(|i| TimedEdge::new(i, if i == 519 { 450 } else { i + 1 }, 1)));
    for t in [530, 533] {
        several
            .extend([(t, t + 1), (t + 1, t + 2), (t, t + 2)].map(|(u, v)| TimedEdge::new(u, v, 1)));
    }
    several.push(TimedEdge::new(530, 533, 1));
    // Two equal stars (a sampler tie) and isolated vertices between.
    let mut tie: Vec<TimedEdge> = (11..=210).map(|v| TimedEdge::new(10, v, 1)).collect();
    tie.extend((301..=500).map(|v| TimedEdge::new(300, v, 1)));
    vec![
        Case {
            name: "several-components",
            n: 600,
            edges: several,
            directed: false,
        },
        Case {
            name: "tied-largest",
            n: 700,
            edges: tie,
            directed: false,
        },
        Case {
            name: "isolates-only",
            n: 130,
            edges: Vec::new(),
            directed: false,
        },
    ]
}

#[test]
fn forced_bottom_up_from_a_small_component() {
    // Source 460 sits on the 70-vertex cycle, not in the largest
    // component; every sweep walks all 600 ids, isolated ones included.
    let cfg = force().with_alpha(usize::MAX).with_beta(1);
    let case = &component_cases()[0];
    let csr = csr_of(case);
    let live = live_of(case);
    let serial = serial_bfs(&csr, 460);
    for &t in &thread_sweep() {
        let (p_csr, s_csr) = thread_pool(t).install(|| par_bfs_stats(&csr, 460, &cfg));
        let (p_live, _) = thread_pool(t).install(|| par_bfs_stats(&live, 460, &cfg));
        assert!(s_csr.bottom_up_levels > 0, "never went bottom-up @ {t}t");
        assert_eq!(p_csr.dist, serial.dist, "csr bottom-up @ {t}t");
        assert_eq!(p_live.dist, serial.dist, "live bottom-up @ {t}t");
        assert_valid_parents(&csr, 460, &p_csr.dist, &p_csr.parent);
        assert_valid_parents(&live, 460, &p_live.dist, &p_live.parent);
    }
}

/// BFS and CC (undirected) under one pinned adaptive config.
fn check_adaptive<V: GraphView>(view: &V, cfg: &ParConfig, label: &str, t: usize, directed: bool) {
    let serial = serial_bfs(view, 0);
    let par = thread_pool(t).install(|| par_bfs_with(view, 0, cfg));
    assert_eq!(par.dist, serial.dist, "{label}: BFS @ {t}t");
    assert_valid_parents(view, 0, &par.dist, &par.parent);
    if !directed {
        let labels = connected_components(view);
        let par = thread_pool(t).install(|| par_cc_with(view, cfg));
        assert_eq!(par, labels, "{label}: CC @ {t}t");
        assert_eq!(par, bfs_labels(view), "{label}: CC vs BFS labels @ {t}t");
    }
}

#[test]
fn forced_adaptive_configs_match_serial_everywhere() {
    let all = cases();
    for (cfg_name, cfg) in adaptive_configs() {
        // The steal-stress config spawns per-edge chunks; bound its CI
        // cost to the two shapes that exercise stealing hardest (one
        // giant hub level, one power-law mix).
        let stress = cfg_name == "steal-stress";
        for case in all
            .iter()
            .filter(|c| !stress || c.name == "star-und" || c.name == "rmat-und")
        {
            let csr = csr_of(case);
            let live = live_of(case);
            for &t in &thread_sweep() {
                let label = format!("{} [{cfg_name}] (csr)", case.name);
                check_adaptive(&csr, &cfg, &label, t, case.directed);
                let label = format!("{} [{cfg_name}] (live)", case.name);
                check_adaptive(&live, &cfg, &label, t, case.directed);
            }
        }
    }
}

#[test]
fn forced_adaptive_bc_matches_serial_bitwise() {
    // BC under the always-fork gate (the other extremes reduce to paths
    // already covered): still bit-identical.
    let case = &cases()[5]; // rmat-und
    let csr = csr_of(case);
    let serial_bits = bits(&betweenness_exact(&csr));
    let cfg = force().with_level_grain(Grain::Edges(0));
    for &t in &thread_sweep() {
        let par = thread_pool(t).install(|| par_bc_with(&csr, BcSources::Exact, &cfg));
        assert_eq!(bits(&par), serial_bits, "BC [always-fork] @ {t}t");
    }
}

#[test]
fn forced_bottom_up_matches_serial_on_both_views() {
    // alpha = MAX flips undirected traversals to bottom-up immediately
    // after the first growing level; results must not change.
    let cfg = force().with_alpha(usize::MAX).with_beta(1);
    for case in cases().iter().filter(|c| !c.directed) {
        let csr = csr_of(case);
        let live = live_of(case);
        for &t in &thread_sweep() {
            let serial = serial_bfs(&csr, 0);
            let (p_csr, s_csr) = thread_pool(t).install(|| par_bfs_stats(&csr, 0, &cfg));
            let (p_live, _) = thread_pool(t).install(|| par_bfs_stats(&live, 0, &cfg));
            assert_eq!(
                p_csr.dist, serial.dist,
                "{} csr bottom-up @ {t}t",
                case.name
            );
            assert_eq!(
                p_live.dist, serial.dist,
                "{} live bottom-up @ {t}t",
                case.name
            );
            if case.name.starts_with("star") || case.name.starts_with("rmat") {
                assert!(
                    s_csr.bottom_up_levels > 0,
                    "{}: dense graph never went bottom-up",
                    case.name
                );
            }
        }
    }
}

#[test]
fn default_threshold_falls_back_to_serial_on_small_graphs() {
    let case = Case {
        name: "tiny",
        n: 10,
        edges: line(10, false),
        directed: false,
    };
    let csr = csr_of(&case);
    let (_, stats) = par_bfs_stats(&csr, 0, &ParConfig::default());
    assert!(
        stats.serial_fallback,
        "tiny graph must take the serial path"
    );
    // And the fallback results still agree, trivially.
    assert_eq!(
        par_bfs_with(&csr, 0, &ParConfig::default()).dist,
        serial_bfs(&csr, 0).dist
    );
}

#[test]
fn unreachable_and_weight_sentinels_agree() {
    // Disconnected RMAT-ish fragment: sentinel values must match the
    // serial kernel's (UNREACHED for BFS).
    let edges = vec![TimedEdge::new(0, 1, 3), TimedEdge::new(2, 3, 5)];
    let csr = CsrGraph::from_edges_undirected(6, &edges);
    let cfg = force();
    let b = par_bfs_with(&csr, 0, &cfg);
    assert_eq!(b.dist[4], UNREACHED);
}
