//! Streaming ingestion benchmark in miniature: compares how the three
//! dynamic representations absorb a live mix of insertions and deletions,
//! the scenario motivating the paper's hybrid structure (think: a social
//! network's edge stream, where friendships form and dissolve
//! continuously) — then keeps the stream running and serves queries
//! *concurrently* through the [`ServeEngine`]: a background writer
//! ingests batches and publishes immutable epoch-tagged versions while
//! the foreground pins snapshots, runs BFS on them, and answers
//! `same_component` probes from the published labels.
//!
//! ```text
//! cargo run --release --example streaming_updates [scale]
//! ```

use snap::prelude::*;
use std::time::Instant;

fn ingest<A: DynamicAdjacency>(name: &str, n: usize, base: &[Update], batches: &[Vec<Update>]) {
    let hints = CapacityHints::new(base.len() * 3);
    let graph: DynGraph<A> = DynGraph::undirected(n, &hints);
    engine::apply_stream(&graph, base);
    let t = Instant::now();
    let mut applied = 0usize;
    for batch in batches {
        engine::apply_stream(&graph, batch);
        applied += batch.len();
    }
    let secs = t.elapsed().as_secs_f64();
    println!(
        "{name:>8}: {applied} updates in {secs:.3} s = {:.2} MUPS, {} live entries, {:.1} MB",
        applied as f64 / secs / 1e6,
        graph.total_entries(),
        graph.adjacency().memory_bytes() as f64 / (1 << 20) as f64,
    );
}

fn main() {
    let scale: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(14);
    let n = 1usize << scale;
    let rmat = Rmat::new(RmatParams::paper(scale, 8), 7);
    let edges = rmat.edges();
    let builder = StreamBuilder::new(&edges, 7);
    let base = builder.construction_shuffled();

    // Ten arriving batches, each 75% insertions / 25% deletions — the
    // Figure 6 mix, delivered incrementally as a stream would be.
    let mut stream = StreamBuilder::new(&edges, 100);
    let batches: Vec<Vec<Update>> = (0..10)
        .map(|_| stream.mixed(edges.len() / 50, 0.75))
        .collect();

    println!(
        "stream scenario: n = {n}, base graph m = {}, {} batches of {} updates",
        edges.len(),
        batches.len(),
        batches[0].len()
    );
    ingest::<DynArr>("Dyn-arr", n, &base, &batches);
    ingest::<TreapAdj>("Treaps", n, &base, &batches);
    ingest::<HybridAdj>("Hybrid", n, &base, &batches);

    serve_concurrently(n, &edges, &base, &batches);
}

/// The serving path: ingest never stops, queries never wait. The engine's
/// writer thread drains the submitted batches in the background, applies
/// each cycle's batches with one sharded applier call, repairs the
/// connectivity index incrementally and publishes fresh labels every
/// cycle; the CSR is frozen only when a reader asks — each `pin()` below
/// that comes back behind the writer makes the next cycle freeze — and a
/// frozen version is published by a single pointer swap, so every
/// foreground read runs against one consistent epoch, pinned in O(1),
/// while newer epochs keep landing.
fn serve_concurrently(n: usize, edges: &[TimedEdge], base: &[Update], batches: &[Vec<Update>]) {
    let hints = CapacityHints::new(base.len() * 3);
    let graph: DynGraph<HybridAdj> = DynGraph::undirected(n, &hints);
    engine::apply_stream(&graph, base);
    let engine = ServeEngine::new(graph, ServeConfig::default());

    println!("\nconcurrent serving: background ingest + foreground queries");
    // Background: stream every batch into the ingest queue (returns
    // immediately; the writer thread applies and publishes).
    for batch in batches {
        engine.submit(batch.clone());
    }

    // Foreground, concurrently: pin whatever version is current and query
    // it. The pinned snapshot is immutable — a long traversal sees one
    // epoch even as the writer publishes newer ones mid-flight.
    let src = edges[0].u;
    let t = Instant::now();
    let mut sampled = 0usize;
    let mut hits = 0usize;
    while engine.pending_batches() > 0 {
        let version = engine.pin();
        let dist = bfs(&*version, src).dist;
        assert_eq!(dist.len(), n);
        let v = (sampled as u32 * 131) % n as u32;
        if engine.same_component(src, v) {
            hits += 1;
        }
        sampled += 1;
        drop(version); // release the pin: old epochs reclaim once unpinned
    }
    engine.flush(); // barrier: every submitted batch is now published
    let final_version = engine.pin();
    println!(
        "  ran {sampled} BFS traversals on pinned mid-stream versions ({hits} \
         probe hits) in {:.3} s while ingesting; final epoch {} \
         ({} updates applied, {} connectivity repairs)",
        t.elapsed().as_secs_f64(),
        final_version.epoch(),
        engine.updates_applied(),
        engine.repair_count().expect("connectivity enabled"),
    );
    println!(
        "  final version: {} entries, src {} reaches {} vertices",
        final_version.num_entries(),
        src,
        bfs(&*final_version, src)
            .dist
            .iter()
            .filter(|&&d| d != u32::MAX)
            .count(),
    );
}
