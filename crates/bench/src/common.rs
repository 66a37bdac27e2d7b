//! Workload builders and measurement plumbing for the figure tables.

use snap_core::adjacency::{CapacityHints, DynamicAdjacency};
use snap_core::engine;
use snap_core::{DynGraph, FixedDynArr};
use snap_rmat::{Rmat, RmatParams, StreamBuilder, TimedEdge, Update};
use snap_util::timer::{mups, time};

/// Global benchmark configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// log2 of the default vertex count.
    pub scale: u32,
    /// Edges per vertex (the paper uses 8 for the update figures, 10 for
    /// the size sweep).
    pub edge_factor: usize,
    /// Thread counts to sweep.
    pub threads: Vec<usize>,
    /// Workload seed.
    pub seed: u64,
}

impl Config {
    /// Reads `SNAP_SCALE` / `SNAP_THREADS` / `SNAP_SEED` from the
    /// environment, defaulting to a laptop-sized instance (`n = 2^16`) and
    /// a 1-2-4-8 thread sweep.
    pub fn from_env() -> Self {
        let scale = std::env::var("SNAP_SCALE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(16);
        let threads = std::env::var("SNAP_THREADS")
            .ok()
            .map(|s| {
                s.split(',')
                    .filter_map(|x| x.trim().parse().ok())
                    .collect::<Vec<usize>>()
            })
            .filter(|v| !v.is_empty())
            .unwrap_or_else(|| vec![1, 2, 4, 8]);
        let seed = std::env::var("SNAP_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0xC0FFEE);
        Self {
            scale,
            edge_factor: 8,
            threads,
            seed,
        }
    }

    pub fn vertices(&self) -> usize {
        1 << self.scale
    }
}

/// Generates the paper's R-MAT edge list for `n = 2^scale`,
/// `m = edge_factor * n`, timestamps uniform in 1..=100.
pub fn build_edges(scale: u32, edge_factor: usize, seed: u64) -> Vec<TimedEdge> {
    Rmat::new(RmatParams::paper(scale, edge_factor), seed).edges()
}

/// Construction workload: the full edge list as shuffled insertions.
pub fn construction_stream(edges: &[TimedEdge], seed: u64) -> Vec<Update> {
    StreamBuilder::new(edges, seed).construction_shuffled()
}

/// Runs `f` inside a fresh rayon pool of `threads` workers.
pub fn in_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    snap_util::thread_pool(threads).install(f)
}

/// The canonical traversal source of a kernel bench: a maximum-degree
/// hub, so BFS-family measurements start from the densest neighborhood
/// instead of a possibly isolated vertex.
pub fn hub_source(csr: &snap_core::CsrGraph) -> u32 {
    (0..csr.num_vertices() as u32)
        .max_by_key(|&u| csr.out_degree(u))
        .unwrap_or(0)
}

/// Times the parallel application of `updates` to a fresh graph of
/// representation `A`, returning achieved MUPS.
pub fn construction_mups<A: DynamicAdjacency>(n: usize, updates: &[Update], threads: usize) -> f64 {
    let hints = CapacityHints::new(updates.len() * 2);
    let g: DynGraph<A> = DynGraph::undirected(n, &hints);
    let d = in_pool(threads, || engine::apply_stream_timed(&g, updates));
    mups(updates.len(), d)
}

/// Like [`construction_mups`] but with custom hints.
pub fn construction_mups_hints<A: DynamicAdjacency>(
    n: usize,
    updates: &[Update],
    threads: usize,
    hints: &CapacityHints,
) -> f64 {
    let g: DynGraph<A> = DynGraph::undirected(n, hints);
    let d = in_pool(threads, || engine::apply_stream_timed(&g, updates));
    mups(updates.len(), d)
}

/// `Dyn-arr-nr` construction: capacities precomputed from the stream (the
/// oracle), then timed lock-free insertion.
pub fn fixed_construction_mups(n: usize, updates: &[Update], threads: usize) -> f64 {
    let g = build_fixed_graph(n, updates);
    let d = in_pool(threads, || engine::apply_stream_timed(&g, updates));
    mups(updates.len(), d)
}

/// Builds an empty `Dyn-arr-nr` graph sized exactly for `updates`.
fn build_fixed_graph(n: usize, updates: &[Update]) -> DynGraph<FixedDynArr> {
    let sources = updates.iter().flat_map(|u| {
        let e = u.edge;
        let second = if e.u == e.v { None } else { Some(e.v) };
        std::iter::once(e.u).chain(second)
    });
    let caps = FixedDynArr::capacities_for_inserts(n, sources);
    DynGraph::from_adjacency(FixedDynArr::with_capacities(&caps), false)
}

/// Builds a populated graph (untimed), for deletion/mixed/query phases.
pub fn build_graph<A: DynamicAdjacency>(n: usize, edges: &[TimedEdge]) -> DynGraph<A> {
    let hints = CapacityHints::new(edges.len() * 2);
    let g: DynGraph<A> = DynGraph::undirected(n, &hints);
    let stream = StreamBuilder::new(edges, 7).construction();
    engine::apply_stream(&g, &stream);
    g
}

/// Times application of a pre-built stream to a pre-built graph.
pub fn apply_mups<A: DynamicAdjacency>(g: &DynGraph<A>, updates: &[Update], threads: usize) -> f64 {
    let d = in_pool(threads, || engine::apply_stream_timed(g, updates));
    mups(updates.len(), d)
}

/// Times `f` and returns seconds.
pub fn seconds<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let (r, d) = time(f);
    (r, d.as_secs_f64())
}

/// Markdown-ish table printer for the experiments binary.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    pub fn print(&self, title: &str) {
        println!("\n## {title}\n");
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            let body: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            format!("| {} |", body.join(" | "))
        };
        println!("{}", fmt_row(&self.headers));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        println!("{}", fmt_row(&sep));
        for row in &self.rows {
            println!("{}", fmt_row(row));
        }
    }
}

/// Formats a float with 3 significant decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}
