//! Concurrent serving stress suite (the acceptance gate of the
//! multi-version protocol).
//!
//! Writer threads stream mixed R-MAT update batches through the
//! [`ServeEngine`] while reader threads pin published versions and run
//! parallel kernels against them. Every sampled result must be
//! **bit-identical** to a bulk-synchronous oracle: a fresh graph
//! replaying exactly the first [`EpochSnapshot::batches`] submitted
//! batches in queue order, then read with the serial kernels. The
//! incremental connectivity path must finish with **zero** full index
//! rebuilds, at every shard count (1 / 2 / 8).
//!
//! Linearizability per epoch falls out of the comparison: a version's
//! CSR, its published component labels, and the kernel outputs computed
//! on it all correspond to one prefix of the submission order — never a
//! torn mix of batches.
//!
//! The second half of the file pins the writer's freeze rule: it
//! freezes before it waits on an empty queue, and under a backlog at
//! least once every four cycles, and none of the contracts above may
//! notice. It ends with the backlog-sized cycle: behind a queue deeper
//! than one applier range, a cycle takes batches until its stream fills
//! that range, so a cycle spans two ranges and up to `shards` workers —
//! with every index on, the same oracles hold.

mod common;

use common::{writer_deadline, FREEZE_EVERY};
use snap::par::{par_bfs_with, par_cc_with};
use snap::prelude::*;

const SCALE: u32 = 9;
const EDGE_FACTOR: usize = 8;
const BATCH: usize = 128;
const BATCHES_PER_PRODUCER: usize = 15;
const PRODUCERS: usize = 2;
const READERS: usize = 2;
const SAMPLES_PER_READER: usize = 6;

fn base_edges(seed: u64) -> Vec<TimedEdge> {
    Rmat::new(RmatParams::paper(SCALE, EDGE_FACTOR), seed).edges()
}

/// How much of the edge list the engine's starting graph holds. The
/// rest is what the mixed streams insert: their cursors start here and
/// carry across batches, so inserts are edges the graph does not have
/// yet, while deletes draw from the whole list (mostly live edges).
fn base_len(edges: &[TimedEdge]) -> usize {
    edges.len() * 3 / 4
}

/// The starting graph's construction stream.
fn base_stream(edges: &[TimedEdge], seed: u64) -> Vec<Update> {
    StreamBuilder::new(&edges[..base_len(edges)], seed).construction_shuffled()
}

/// How many of `history`'s updates change the graph when replayed in
/// order on top of `base` — the oracle for `updates_changed`.
fn oracle_changed(base: &[Update], history: &[Vec<Update>]) -> u64 {
    let g = seeded_graph(base);
    history.iter().flatten().filter(|u| g.apply(u)).count() as u64
}

/// Builds the engine's starting graph: base construction stream applied
/// bulk-synchronously (sequentially, so the oracle can reproduce the
/// exact same per-vertex state).
fn seeded_graph(base: &[Update]) -> DynGraph<HybridAdj> {
    let n = 1usize << SCALE;
    let g: DynGraph<HybridAdj> = DynGraph::undirected(n, &common::hints(base.len() * 3));
    for u in base {
        g.apply(u);
    }
    assert!(
        g.adjacency().treap_vertex_count() > 0,
        "the engine must serve treap vertices too"
    );
    g
}

/// The bulk-synchronous oracle: replay base + the first `batches`
/// submitted batches on a fresh graph of the same representation, then
/// freeze to CSR. This is the state every version with that batch count
/// must serve.
fn oracle_csr(base: &[Update], history: &[Vec<Update>], batches: usize) -> CsrGraph {
    let g = seeded_graph(base);
    for batch in &history[..batches] {
        for u in batch {
            g.apply(u);
        }
    }
    g.to_csr()
}

struct Sample {
    handle: SnapshotHandle,
    dist: Vec<u32>,
    labels: Vec<u32>,
    /// (u, v, answer) probes served from the published labels.
    probes: Vec<(u32, u32, bool)>,
}

fn stress(shards: usize) {
    let n = 1usize << SCALE;
    let edges = base_edges(11 + shards as u64);
    let base = base_stream(&edges, 7);
    let engine = ServeEngine::new(
        seeded_graph(&base),
        ServeConfig::default()
            .with_shards(shards)
            .with_retain(3)
            .with_history(true),
    );
    let engine = &engine;
    let kcfg = ParConfig::default().with_threads(shards);
    let src = edges[0].u;

    let samples: Vec<Sample> = std::thread::scope(|scope| {
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let edges = &edges;
                scope.spawn(move || {
                    // One generator per producer, each inserting its
                    // own stretch of the edge list's tail.
                    let mut stream = StreamBuilder::new(edges, 1000 + p as u64)
                        .inserting_from(base_len(edges) + p * BATCHES_PER_PRODUCER * BATCH);
                    for _ in 0..BATCHES_PER_PRODUCER {
                        engine.submit(stream.mixed(BATCH, 0.7));
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let kcfg = kcfg.clone();
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(SAMPLES_PER_READER);
                    for i in 0..SAMPLES_PER_READER {
                        let handle = engine.pin();
                        // Long-running kernels on the pinned version while
                        // the writer keeps publishing newer epochs.
                        let dist = par_bfs_with(&*handle, src, &kcfg).dist;
                        let labels = par_cc_with(&*handle, &kcfg);
                        let probes: Vec<(u32, u32, bool)> = (0..16u64)
                            .map(|k| {
                                let u = ((r as u64 * 31 + i as u64 * 7 + k * 13) % n as u64) as u32;
                                let v = ((k * 29 + i as u64 * 3) % n as u64) as u32;
                                (u, v, handle.same_component(u, v).expect("conn on"))
                            })
                            .collect();
                        out.push(Sample {
                            handle,
                            dist,
                            labels,
                            probes,
                        });
                    }
                    out
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        engine.flush();
        let mut samples = Vec::new();
        for r in readers {
            samples.extend(r.join().unwrap());
        }
        // One more sample after full quiescence: the final epoch.
        let handle = engine.pin();
        assert_eq!(
            handle.batches(),
            (PRODUCERS * BATCHES_PER_PRODUCER) as u64,
            "flush is a publication barrier"
        );
        samples.push(Sample {
            dist: par_bfs_with(&*handle, src, &kcfg).dist,
            labels: par_cc_with(&*handle, &kcfg),
            probes: Vec::new(),
            handle,
        });
        samples
    });

    // The incremental-path acceptance check: the writer repaired
    // deletions targetedly, never a full union-find rebuild.
    assert_eq!(engine.full_rebuild_count(), Some(0));
    assert_eq!(engine.pending_batches(), 0);

    let history = engine.history();
    assert_eq!(history.len(), PRODUCERS * BATCHES_PER_PRODUCER);
    // Submissions vs changes: `updates_applied` counts the former,
    // `updates_changed` exactly what an in-order replay changes.
    assert_eq!(
        engine.updates_applied(),
        (PRODUCERS * BATCHES_PER_PRODUCER * BATCH) as u64
    );
    let changed = oracle_changed(&base, &history);
    assert_eq!(engine.updates_changed(), changed);
    assert!(changed <= engine.updates_applied());
    assert!(
        changed * 2 > engine.updates_applied(),
        "the stream must mostly do real work, not re-insert live edges ({changed} changes)"
    );

    for (k, s) in samples.iter().enumerate() {
        let batches = s.handle.batches() as usize;
        let oracle = oracle_csr(&base, &history, batches);
        // Same entries, timestamps included (an entry count alone would
        // pass a stale row whose insert and delete cancelled out)...
        assert_eq!(
            entries(&*s.handle),
            entries(&oracle),
            "sample {k} (epoch {}, {batches} batches): entries",
            s.handle.epoch()
        );
        // ...same parallel-kernel outputs as the serial kernels on the
        // bulk-synchronous oracle, bit for bit.
        let oracle_dist = bfs(&oracle, src).dist;
        assert_eq!(s.dist, oracle_dist, "sample {k}: BFS distances");
        let oracle_labels = connected_components(&oracle);
        assert_eq!(s.labels, oracle_labels, "sample {k}: component labels");
        // ...and the published labels agree with both.
        let published = s.handle.component_labels().expect("conn on");
        assert_eq!(**published, oracle_labels, "sample {k}: published labels");
        for &(u, v, ans) in &s.probes {
            assert_eq!(
                ans,
                oracle_labels[u as usize] == oracle_labels[v as usize],
                "sample {k}: probe ({u}, {v})"
            );
        }
    }
}

#[test]
fn serving_matches_oracle_one_shard() {
    stress(1);
}

#[test]
fn serving_matches_oracle_two_shards() {
    stress(2);
}

#[test]
fn serving_matches_oracle_eight_shards() {
    stress(8);
}

#[test]
fn pinned_handles_outlive_heavy_churn() {
    // A reader pins one version, then the writer publishes far more
    // epochs than the retention ring holds; the pinned version must stay
    // identical (epoch-based reclamation frees only unpinned versions).
    let edges = base_edges(42);
    let base = base_stream(&edges, 9);
    let engine = ServeEngine::new(
        seeded_graph(&base),
        ServeConfig::default().with_retain(2).with_history(true),
    );
    let pinned = engine.pin();
    let before_entries = pinned.num_entries();
    let before_dist = bfs(&*pinned, edges[0].u).dist;
    let mut stream = StreamBuilder::new(&edges, 500).inserting_from(base_len(&edges));
    // A flush per batch freezes every cycle (a back-to-back burst may
    // freeze as little as once every four cycles).
    for _ in 0..12 {
        engine.submit(stream.mixed(64, 0.5));
        engine.flush();
        let _ = engine.pin();
    }
    assert_eq!(
        engine.updates_changed(),
        oracle_changed(&base, &engine.history())
    );
    assert!(engine.retired() >= 10, "churn must evict ring entries");
    assert!(engine.retained() <= 2);
    assert_eq!(pinned.epoch(), 0, "the pin still names its epoch");
    assert_eq!(pinned.num_entries(), before_entries);
    assert_eq!(bfs(&*pinned, edges[0].u).dist, before_dist);
    // And the pinned state is exactly the zero-batch oracle.
    let oracle = oracle_csr(&base, &engine.history(), 0);
    assert_eq!(pinned.num_entries(), oracle.num_entries());
}

#[test]
fn same_component_stays_incremental_under_concurrent_ingest() {
    // The headline serving query: reader threads hammer same_component
    // while writers stream; afterwards, zero full rebuilds and the final
    // answers match the serial kernel.
    let edges = base_edges(77);
    let base = base_stream(&edges, 3);
    let engine = ServeEngine::new(seeded_graph(&base), ServeConfig::default().with_shards(2));
    let engine = &engine;
    let n = 1usize << SCALE;
    std::thread::scope(|scope| {
        let writer = scope.spawn(move || {
            let mut stream = StreamBuilder::new(&edges, 2000).inserting_from(base_len(&edges));
            for _ in 0..20 {
                engine.submit(stream.mixed(96, 0.6));
            }
        });
        let q: Vec<_> = (0..2)
            .map(|r| {
                scope.spawn(move || {
                    let mut hits = 0usize;
                    for k in 0..2000u64 {
                        let u = ((k * 17 + r * 911) % n as u64) as u32;
                        let v = ((k * 23 + 5) % n as u64) as u32;
                        if engine.same_component(u, v) {
                            hits += 1;
                        }
                    }
                    hits
                })
            })
            .collect();
        writer.join().unwrap();
        for h in q {
            let _ = h.join().unwrap();
        }
    });
    engine.flush();
    assert_eq!(engine.full_rebuild_count(), Some(0));
    assert!(engine.updates_changed() <= engine.updates_applied());
    let handle = engine.pin();
    let labels = connected_components(&*handle);
    for u in (0..n as u32).step_by(37) {
        for v in (1..n as u32).step_by(53) {
            assert_eq!(
                engine.same_component(u, v),
                labels[u as usize] == labels[v as usize]
            );
        }
    }
}

/// Sorted `(u, v, timestamp)` entries: two views are the same graph iff
/// these are equal.
fn entries<V: GraphView>(view: &V) -> Vec<(u32, u32, u32)> {
    let mut all = view.collect_entries();
    all.sort_unstable();
    all
}

/// A pinned version is one prefix of the submission order: its CSR and
/// its labels both equal the oracle replay of its own `batches()`.
fn assert_is_its_own_prefix(base: &[Update], history: &[Vec<Update>], v: &EpochSnapshot) {
    let oracle = oracle_csr(base, history, v.batches() as usize);
    assert_eq!(
        entries(v),
        entries(&oracle),
        "epoch {} ({} batches): CSR",
        v.epoch(),
        v.batches()
    );
    assert_eq!(
        **v.component_labels().expect("conn on"),
        connected_components(&oracle),
        "epoch {} ({} batches): labels",
        v.epoch(),
        v.batches()
    );
}

/// Half-updates one range of the batch applier holds (`RANGE_BUDGET` in
/// `snap_core::engine`): under a backlog, a writer cycle takes queued
/// batches until its stream holds this many.
const RANGE_BUDGET: usize = 1 << 17;

/// Updates per batch of the backlog tests. 2,000 half-updates do not
/// divide the budget, so a cycle that fills up holds a little more than
/// one range and the applier cuts it in two.
const BACKLOG_BATCH: usize = 1000;

/// Fewest cycles `halves` half-updates in batches of at most `largest`
/// half-updates can drain in: a cycle takes another batch only while it
/// holds less than the budget, so it ends below budget + `largest`.
fn fewest_cycles(halves: usize, largest: usize) -> u64 {
    halves.div_ceil(RANGE_BUDGET + largest) as u64
}

/// A burst of backlog batches holding more than `ranges` applier
/// ranges of half-updates.
fn backlog(
    stream: &mut StreamBuilder<'_>,
    ranges: usize,
    insert_fraction: f64,
) -> Vec<Vec<Update>> {
    let count = ranges * RANGE_BUDGET / (2 * BACKLOG_BATCH) + 1;
    (0..count)
        .map(|_| stream.mixed(BACKLOG_BATCH, insert_fraction))
        .collect()
}

/// The bulk-synchronous oracle walked forward through the history, so
/// checks at increasing prefixes cost one replay in all.
struct Oracle {
    graph: DynGraph<HybridAdj>,
    batches: usize,
}

impl Oracle {
    fn new(base: &[Update]) -> Self {
        Self {
            graph: seeded_graph(base),
            batches: 0,
        }
    }

    /// The graph after base + the first `batches` of `history` (at least
    /// as many as the previous call asked for).
    fn at(&mut self, history: &[Vec<Update>], batches: usize) -> &DynGraph<HybridAdj> {
        for u in history[self.batches..batches].iter().flatten() {
            self.graph.apply(u);
        }
        self.batches = batches;
        &self.graph
    }
}

#[test]
fn unpinned_drain_skips_freezes_and_flush_still_publishes_everything() {
    // Nobody pins while bursts drain. Each burst holds more than three
    // applier ranges of half-updates and is queued in microseconds, far
    // faster than a cycle applies, so the cycles after the first fill to
    // the budget with batches still waiting behind them: the rule makes
    // all but every fourth of those skip their freeze.
    let edges = base_edges(5);
    let base = base_stream(&edges, 13);
    let engine = ServeEngine::new(
        seeded_graph(&base),
        ServeConfig::default().with_history(true),
    );
    let mut stream = StreamBuilder::new(&edges, 900).inserting_from(base_len(&edges));
    let mut oracle = Oracle::new(&base);
    let (mut submitted, mut fewest) = (0u64, 0u64);
    for _ in 0..3 {
        let burst = backlog(&mut stream, 3, 0.7);
        let halves = burst.len() * 2 * BACKLOG_BATCH;
        assert!(halves > 3 * RANGE_BUDGET);
        fewest += fewest_cycles(halves, 2 * BACKLOG_BATCH);
        for batch in burst {
            engine.submit(batch);
            submitted += 1;
        }
        engine.flush();
        assert_eq!(engine.pending_batches(), 0);
        let v = engine.pin();
        assert_eq!(v.batches(), submitted, "flush is a publication barrier");
        assert_eq!(v.epoch(), engine.epoch(), "an idle engine is frozen");
        let want = oracle.at(&engine.history(), submitted as usize);
        assert_eq!(entries(&*v), entries(want), "{submitted} batches: CSR");
        assert_eq!(
            **v.component_labels().expect("conn on"),
            connected_components(want),
            "{submitted} batches: labels"
        );
    }
    assert!(
        (fewest..=submitted).contains(&engine.epoch()),
        "{} cycles for {submitted} batches: at least {fewest} budget-sized ones",
        engine.epoch()
    );
    assert!(
        engine.freezes() < engine.epoch(),
        "{} freezes in {} cycles: an unpinned drain must skip some",
        engine.freezes(),
        engine.epoch()
    );
    assert_eq!(engine.full_rebuild_count(), Some(0));
}

/// Appends `v` unless it is the version pinned last.
fn keep_new(pins: &mut Vec<SnapshotHandle>, v: SnapshotHandle) {
    if pins.last().is_none_or(|last| last.epoch() != v.epoch()) {
        pins.push(v);
    }
}

/// One index answer read while the writer ran.
#[derive(Debug, PartialEq, Eq, Hash)]
enum Answer {
    /// `component(v)`.
    Component(u32, u32),
}

/// Asserts that each racing answer equals the oracle's at some batch
/// prefix at least as long as its pinned count: the index answers as of
/// a cycle boundary, and no older than a version pinned before the read.
fn assert_prefix_answers(
    base: &[Update],
    history: &[Vec<Update>],
    mut open: Vec<(usize, Answer)>,
    at: &str,
) {
    let Some(from) = open.iter().map(|&(before, _)| before).min() else {
        return;
    };
    let mut oracle = Oracle::new(base);
    for prefix in from..=history.len() {
        let g = oracle.at(history, prefix);
        let mut labels = None;
        open.retain(|(before, answer)| {
            if *before > prefix {
                return true;
            }
            let matches = match *answer {
                Answer::Component(v, got) => {
                    let labels = labels.get_or_insert_with(|| connected_components(g));
                    got == labels[v as usize]
                }
            };
            !matches
        });
    }
    assert!(
        open.is_empty(),
        "{at}: {} racing answers match no prefix at or after their pin, first {:?}",
        open.len(),
        open.first()
    );
}

/// A backlog deep enough that the writer's cycles fill one applier range
/// and span two, drained at `shards` writer shards with connectivity
/// maintained, while the submitting thread pins versions and queries
/// the live index until the queue is dry. Every version pinned on the
/// way equals the oracle replay of its own `batches()` prefix — CSR and
/// labels — every racing index answer is some prefix's no older than
/// the pin before it, and after each burst's `flush` every live
/// component query equals the oracle's too, with the index never
/// rebuilt in full.
fn multi_range_backlog(shards: usize) {
    let n = 1u32 << SCALE;
    let edges = base_edges(40 + shards as u64);
    let base = base_stream(&edges, 19);
    let engine = ServeEngine::new(
        seeded_graph(&base),
        ServeConfig::default()
            .with_shards(shards)
            .with_history(true),
    );
    let mut stream =
        StreamBuilder::new(&edges, 4000 + shards as u64).inserting_from(base_len(&edges));
    let mut oracle = Oracle::new(&base);
    let mut pins = Vec::new();
    let (mut submitted, mut fewest) = (0, 0);
    for burst in 0..2 {
        let batches = backlog(&mut stream, 2, 0.7);
        submitted += batches.len();
        fewest += fewest_cycles(batches.len() * 2 * BACKLOG_BATCH, 2 * BACKLOG_BATCH);
        for batch in batches {
            engine.submit(batch);
        }
        let mut k = 0u32;
        // A set: a repeated answer is checked once, and a stalled writer
        // cannot grow it past the distinct answers.
        let mut racing = std::collections::HashSet::new();
        let overdue = writer_deadline("the burst to drain");
        while engine.pending_batches() > 0 {
            overdue();
            // Racing the writer: each answer is recorded with the batch
            // count of a version pinned before it was read.
            let pinned = engine.pin();
            let before = pinned.batches() as usize;
            keep_new(&mut pins, pinned);
            let index = engine.indexes();
            k = k.wrapping_mul(31).wrapping_add(7);
            let v = k % n;
            racing.insert((before, Answer::Component(v, index.component(v))));
            std::thread::yield_now();
        }
        engine.flush();
        let at = format!("{shards} shards, burst {burst}");
        let history = engine.history();
        assert_eq!(history.len(), submitted, "{at}: flush is a barrier");
        assert_prefix_answers(&base, &history, racing.into_iter().collect(), &at);
        let want = oracle.at(&history, submitted);
        let index = engine.indexes();
        let labels = connected_components(want);
        for (u, &label) in labels.iter().enumerate() {
            assert_eq!(index.component(u as u32), label, "{at}: vertex {u}");
        }
        keep_new(&mut pins, engine.pin());
    }
    assert!(
        (fewest..=submitted as u64).contains(&engine.epoch()),
        "{shards} shards: {} cycles for {submitted} batches",
        engine.epoch()
    );
    assert_eq!(
        engine.full_rebuild_count(),
        Some(0),
        "{shards} shards: the index stayed incremental"
    );
    // Each distinct version once, in prefix order (a later pin never
    // gets an older version), against one oracle walked forward.
    let history = engine.history();
    let mut oracle = Oracle::new(&base);
    for v in &pins {
        let want = oracle.at(&history, v.batches() as usize);
        let at = format!(
            "{shards} shards, epoch {} ({} batches)",
            v.epoch(),
            v.batches()
        );
        assert_eq!(entries(&**v), entries(want), "{at}: CSR");
        assert_eq!(
            **v.component_labels().expect("conn on"),
            connected_components(want),
            "{at}: labels"
        );
    }
}

#[test]
fn multi_range_backlog_matches_oracle_one_shard() {
    multi_range_backlog(1);
}

#[test]
fn multi_range_backlog_matches_oracle_two_shards() {
    multi_range_backlog(2);
}

#[test]
fn multi_range_backlog_matches_oracle_eight_shards() {
    multi_range_backlog(8);
}

#[test]
fn pins_during_a_backlog_are_consistent_and_get_the_next_cycle_frozen() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    // The burst holds 327,680 half-updates, past two applier ranges, so
    // its drain takes at least three cycles. It queues behind one batch
    // over the range budget, a cycle by itself, which keeps the writer
    // busy while the producer submits the burst back to back.
    const BURST: usize = 160;
    const BURST_BATCH: usize = 1024;
    const FIRST_BATCH: usize = RANGE_BUDGET / 2 + 4096;
    const { assert!(BURST * 2 * BURST_BATCH > 2 * RANGE_BUDGET) };
    let edges = base_edges(23);
    let base = base_stream(&edges, 31);
    let mut stream = StreamBuilder::new(&edges, 77).inserting_from(base_len(&edges));
    let first = stream.mixed(FIRST_BATCH, 0.7);
    let halves: usize = (first.iter())
        .map(|u| 1 + usize::from(u.edge.u != u.edge.v))
        .sum();
    assert!(halves >= RANGE_BUDGET, "the first batch is over budget");
    let burst: Vec<Vec<Update>> = (0..BURST).map(|_| stream.mixed(BURST_BATCH, 0.7)).collect();
    let engine = ServeEngine::new(
        seeded_graph(&base),
        ServeConfig::default().with_shards(2).with_history(true),
    );
    let engine = &engine;
    let done = AtomicBool::new(false);
    let submitted = AtomicU64::new(0);
    let (done, submitted) = (&done, &submitted);
    let pins: Vec<SnapshotHandle> = std::thread::scope(|scope| {
        let producer = scope.spawn(|| {
            for batch in std::iter::once(first).chain(burst) {
                engine.submit(batch);
                // ordering: SeqCst — test-side bookkeeping: counts a
                // batch only once its submit() has returned.
                submitted.fetch_add(1, Ordering::SeqCst);
            }
            engine.flush();
            // ordering: SeqCst — test-side stop flag.
            done.store(true, Ordering::SeqCst);
        });
        // The pinning reader. A pin behind the cycle epoch read before it
        // trails by at most `FREEZE_EVERY` cycles: once `FREEZE_EVERY + 1`
        // more have published (one of the first `FREEZE_EVERY` froze before
        // the last began), a pin is at least that new.
        let reader = scope.spawn(|| {
            let mut pins = Vec::new();
            let overdue = writer_deadline("the producer's flush");
            // ordering: SeqCst — test-side stop flag.
            while !done.load(Ordering::SeqCst) {
                overdue();
                let asked_at = engine.epoch();
                let v = engine.pin();
                let after = engine.epoch();
                assert!(v.epoch() <= after, "a version is never from the future");
                if v.epoch() < asked_at {
                    let due = after + FREEZE_EVERY + 1;
                    while engine.epoch() < due && engine.pending_batches() > 0 {
                        overdue();
                        std::thread::yield_now();
                    }
                    let next = engine.pin();
                    assert!(
                        next.epoch() >= asked_at,
                        "pinned epoch {} at cycle {asked_at}; {} cycles on, still epoch {}",
                        v.epoch(),
                        FREEZE_EVERY + 1,
                        next.epoch()
                    );
                    keep_new(&mut pins, next);
                }
                keep_new(&mut pins, v);
                std::thread::yield_now();
            }
            pins
        });
        // `pending_batches() == 0` seen by a third thread: every batch
        // whose submit() had returned by then is in the next pin.
        let watcher = scope.spawn(|| {
            let overdue = writer_deadline("the producer's flush");
            // ordering: SeqCst — test-side stop flag.
            while !done.load(Ordering::SeqCst) {
                overdue();
                // ordering: SeqCst — read before `pending_batches`, so
                // the count is a lower bound on what was submitted by
                // the time 0 was seen.
                let before = submitted.load(Ordering::SeqCst);
                if engine.pending_batches() == 0 {
                    assert!(engine.pin().batches() >= before);
                }
                std::thread::yield_now();
            }
        });
        producer.join().unwrap();
        watcher.join().unwrap();
        reader.join().unwrap()
    });
    assert_eq!(engine.pin().batches(), BURST as u64 + 1);
    assert!(engine.freezes() <= engine.epoch());
    // The first batch's cycle, then the drain's.
    let drain = engine.epoch() - 1;
    assert!(drain >= 3, "the burst drained in {drain} cycles");
    assert!(
        engine.freezes() < engine.epoch(),
        "a backlog skips freezes: {} freezes in {} cycles",
        engine.freezes(),
        engine.epoch()
    );
    assert_eq!(engine.full_rebuild_count(), Some(0));
    // Never a CSR from one prefix with labels or a batch count from
    // another — including the versions frozen mid-backlog.
    let history = engine.history();
    let mut checked = std::collections::HashSet::new();
    for v in pins.iter().filter(|v| checked.insert(v.epoch())) {
        assert_is_its_own_prefix(&base, &history, v);
    }
}

#[test]
fn engine_label_queries_are_never_older_than_a_pin() {
    // Insert-only stream: connectivity only grows, so a pair connected
    // in a pinned version must be connected (and a label no larger) for
    // every engine-level query made after that pin — unless the engine
    // answered from an older state than the pin's.
    let edges = base_edges(61);
    let base = base_stream(&edges, 17);
    let engine = ServeEngine::new(seeded_graph(&base), ServeConfig::default());
    let engine = &engine;
    let n = 1u64 << SCALE;
    std::thread::scope(|scope| {
        let producer = scope.spawn(|| {
            let mut stream = StreamBuilder::new(&edges, 5).inserting_from(base_len(&edges));
            for _ in 0..120 {
                engine.submit(stream.mixed(16, 1.0));
            }
        });
        let mut k = 0u64;
        while !producer.is_finished() {
            let v = engine.pin();
            assert!(engine.epoch() >= v.epoch());
            for _ in 0..64 {
                k += 1;
                let (a, b) = (((k * 37) % n) as u32, ((k * 101 + 7) % n) as u32);
                if v.same_component(a, b) == Some(true) {
                    assert!(engine.same_component(a, b), "({a}, {b}) went backwards");
                }
                // Likewise a component's minimum id only ever drops.
                assert!(Some(engine.component(a)) <= v.component(a));
            }
        }
        producer.join().unwrap();
    });
}
