//! Chaos-schedule sweep over the workspace's concurrency protocols.
//!
//! With the `chaos` feature on (`cargo test --features chaos`), the
//! vendored rayon/parking_lot shims inject seeded yield points at every
//! lock acquisition and fork/join boundary — the exact places where the
//! publication protocols documented in ARCHITECTURE.md must tolerate
//! preemption. Each test here sweeps [`SEEDS`] seeds, and under every
//! schedule the quiesced state must be **bit-identical** to a
//! bulk-synchronous oracle, with zero panics or deadlocks along the way.
//!
//! Eight protocols were swept, one per test; 4 and 5 are retired with
//! the distance and triangle indexes they checked, and the others keep
//! their numbers:
//!
//! 1. **Connectivity under racing queries** (invariants 1, 6):
//!    deletion-heavy batches through `SnapshotManager`, which settles
//!    the index under its write lock, race `same_component` queries that
//!    must never see a half-settled forest.
//! 2. **ServeEngine publish** (invariant 1): every version a reader
//!    pins corresponds to one prefix of the submission order.
//! 3. **Epoch resync** (invariant 6): a mutation the index never
//!    absorbed, published as a bare epoch bump, leaves a sticky epoch gap
//!    that the next query must absorb with a conservative full resync —
//!    never serve stale.
//! 4. *Retired* (distance repair).
//! 5. *Retired* (triangle deltas).
//! 6. **Writer-local freeze** (invariant 1): a drain freezes before the
//!    writer waits and at least every fourth cycle; every version pinned
//!    on the way is one prefix — CSR *and* labels — and
//!    `pending_batches() == 0` means the next pin has everything.
//! 7. **The index under serving** (invariants 1, 6): a `ServeEngine`
//!    maintaining connectivity while readers pin versions and call
//!    every index query; after `flush` the labels equal a from-scratch
//!    oracle on the bulk-synchronous replay, with zero full rebuilds.
//! 8. **Backlog-sized cycles** (invariants 1, 6, 8): a burst queued
//!    faster than the writer drains it, so cycles fill to the applier's
//!    range budget and span two ranges its shards race for, with the
//!    index on; every pinned version is one prefix and the flushed
//!    index equals the replay's.
//!
//! The suite also runs (and must pass) without the feature: the chaos
//! entry points compile to no-ops, so this doubles as a plain stress
//! test in the default build.

mod common;

use common::{hints, rng_for, writer_deadline};
use snap::core::IndexFamily;
use snap::prelude::*;
use snap_kernels::cc::union_find_components;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const SUITE: u64 = 0xC4A05;
const SEEDS: u64 = 16;
const N: u32 = 512;

/// Seeds both shims' chaos streams (no-ops when the feature is off).
fn set_chaos_seed(seed: u64) {
    rayon::chaos::set_seed(seed);
    parking_lot::chaos::set_seed(seed);
}

/// Duplicate-free workload: `inserts` builds the graph, `deletes`
/// removes ~60% of it. Returns `(inserts, deletes, surviving keys)`.
fn workload_edges(case: u64) -> (Vec<Update>, Vec<Update>, Vec<(u32, u32)>) {
    let mut rng = rng_for(SUITE, 1, case);
    let mut pool: Vec<(u32, u32)> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    while pool.len() < 1200 {
        let u = rng.next_bounded(N as u64) as u32;
        let v = rng.next_bounded(N as u64) as u32;
        let key = (u.min(v), u.max(v));
        if seen.insert(key) {
            pool.push(key);
        }
    }
    let inserts: Vec<Update> = pool
        .iter()
        .map(|&(u, v)| Update::insert(TimedEdge::new(u, v, 1 + (u + v) % 90)))
        .collect();
    let mut deletes = Vec::new();
    let mut surviving = Vec::new();
    for &(u, v) in &pool {
        if rng.next_bounded(10) < 6 {
            deletes.push(Update::delete(TimedEdge::new(u, v, 0)));
        } else {
            surviving.push((u, v));
        }
    }
    (inserts, deletes, surviving)
}

/// [`workload_edges`] with the union-find oracle labels precomputed.
fn workload(case: u64) -> (Vec<Update>, Vec<Update>, Vec<u32>) {
    let (inserts, deletes, surviving) = workload_edges(case);
    let want = union_find_components(N as usize, surviving.iter().copied());
    (inserts, deletes, want)
}

/// Protocol 1 — connectivity under racing queries. Two writers stream
/// disjoint (hence commuting) delete batches, each settled under the
/// index's write lock, while readers hammer `same_component` under its
/// read lock. Racing answers are not oracle-checkable (they land
/// between batches), but they must come back without panics; at
/// quiescence the labels must be bit-identical to the union-find oracle
/// over surviving edges.
#[test]
fn shield_repair_matches_oracle_across_seeds() {
    for seed in 0..SEEDS {
        set_chaos_seed(seed);
        let (inserts, deletes, want) = workload(seed);
        let hints = hints(inserts.len() * 2);
        let g: DynGraph<HybridAdj> = DynGraph::undirected(N as usize, &hints);
        let mgr = SnapshotManager::new(g);
        let idx = mgr.enable_connectivity();
        assert!(mgr.apply_batch(&inserts));
        let mid = deletes.len() / 2;
        let mgr = &mgr;
        std::thread::scope(|s| {
            for half in [&deletes[..mid], &deletes[mid..]] {
                s.spawn(move || {
                    for chunk in half.chunks(32) {
                        mgr.apply_batch(chunk);
                    }
                });
            }
            for r in 0..2u64 {
                s.spawn(move || {
                    let mut rng = rng_for(SUITE, 2 + r, seed);
                    for _ in 0..300 {
                        let u = rng.next_bounded(N as u64) as u32;
                        let v = rng.next_bounded(N as u64) as u32;
                        let _ = mgr.indexes().same_component(u, v);
                    }
                });
            }
        });
        // Query through the manager first, then the index directly.
        assert_eq!(
            mgr.indexes().component_count(),
            snap::kernels::component_count(&want),
            "seed {seed}: component count"
        );
        assert_eq!(idx.labels(mgr.live()), want, "seed {seed}: final labels");
    }
}

/// Protocol 2 — ServeEngine publish (invariant 1). A producer streams
/// mixed batches while readers pin versions and probe them; every
/// pinned version's published labels must equal the serial kernel run
/// on a bulk-synchronous replay of exactly `handle.batches()` batches
/// in submission order — never a torn mix.
#[test]
fn serve_publish_matches_oracle_across_seeds() {
    const SCALE: u32 = 8;
    const BATCHES: usize = 6;
    let n = 1usize << SCALE;
    let edges = Rmat::new(RmatParams::paper(SCALE, 8), 321).edges();
    // The engine starts from the first three quarters of the list; the
    // producer's generator inserts the rest, its cursor carried across
    // batches, and deletes from the whole list.
    let base_len = edges.len() * 3 / 4;
    let base = StreamBuilder::new(&edges[..base_len], 7).construction_shuffled();
    for seed in 0..SEEDS {
        set_chaos_seed(seed);
        let g: DynGraph<HybridAdj> = DynGraph::undirected(n, &hints(base.len() * 3));
        for u in &base {
            g.apply(u);
        }
        assert!(
            g.adjacency().treap_vertex_count() > 0,
            "seed {seed}: the engine must serve treap vertices too"
        );
        let engine = ServeEngine::new(
            g,
            ServeConfig::default()
                .with_shards(2)
                .with_retain(3)
                .with_history(true),
        );
        let engine = &engine;
        let edges = &edges;
        // (handle, probes) samples pinned while the producer publishes.
        let samples = std::thread::scope(|scope| {
            let producer = scope.spawn(move || {
                let mut stream =
                    StreamBuilder::new(edges, 1000 + seed * 100).inserting_from(base_len);
                for _ in 0..BATCHES {
                    engine.submit(stream.mixed(64, 0.7));
                }
            });
            let readers: Vec<_> = (0..2u64)
                .map(|r| {
                    scope.spawn(move || {
                        let mut rng = rng_for(SUITE, 10 + r, seed);
                        let mut out = Vec::new();
                        for _ in 0..3 {
                            let handle = engine.pin();
                            let probes: Vec<(u32, u32, bool)> = (0..24)
                                .map(|_| {
                                    let u = rng.next_bounded(n as u64) as u32;
                                    let v = rng.next_bounded(n as u64) as u32;
                                    (u, v, handle.same_component(u, v).expect("conn on"))
                                })
                                .collect();
                            out.push((handle, probes));
                        }
                        out
                    })
                })
                .collect();
            producer.join().expect("producer must not panic");
            let mut samples = Vec::new();
            for r in readers {
                samples.extend(r.join().expect("reader must not panic"));
            }
            samples
        });
        engine.flush();
        let final_handle = engine.pin();
        assert_eq!(
            final_handle.batches(),
            BATCHES as u64,
            "seed {seed}: flush is a publication barrier"
        );
        let history = engine.history();
        for (k, (handle, probes)) in samples.iter().enumerate() {
            // Bulk-synchronous replay of the pinned prefix.
            let g: DynGraph<HybridAdj> = DynGraph::undirected(n, &hints(base.len() * 3));
            for u in &base {
                g.apply(u);
            }
            for batch in &history[..handle.batches() as usize] {
                for u in batch {
                    g.apply(u);
                }
            }
            let oracle = connected_components(&g.to_csr());
            let published = handle.component_labels().expect("conn on");
            assert_eq!(***published, oracle, "seed {seed} sample {k}: labels");
            for &(u, v, ans) in probes {
                assert_eq!(
                    ans,
                    oracle[u as usize] == oracle[v as usize],
                    "seed {seed} sample {k}: probe ({u}, {v})"
                );
            }
        }
    }
}

/// Protocol 3 — sticky out-of-band epochs (invariant 6). Neither engine
/// can open an epoch gap (each is its graph's only mutator), so the test
/// owns the graph, the index and the epoch: a writer
/// mutates the graph directly, bypassing update routing, and publishes
/// a bare epoch bump per chunk, while readers query through
/// `IndexFamily::query`; whatever interleaving the chaos schedule
/// produces, the quiesced index must have resynced — stale answers
/// post-quiescence are a protocol hole, and the forced full rebuild must
/// be observable.
#[test]
fn epoch_resync_matches_oracle_across_seeds() {
    for seed in 0..SEEDS {
        set_chaos_seed(seed);
        let (inserts, deletes, want) = workload(100 + seed);
        let hints = hints(inserts.len() * 2);
        let g: DynGraph<HybridAdj> = DynGraph::undirected(N as usize, &hints);
        let family = IndexFamily::default();
        let epoch = AtomicU64::new(0);
        let idx = family.attach_connectivity(&g, 0);
        // The inserts are applied and absorbed, stepped, then published.
        assert!(engine::apply_vpart_indexed(&g, &inserts, 0, family.routes()) > 0);
        idx.sync_change(1);
        // ordering: Release — the test's epoch publication, after the
        // step (invariant 6).
        epoch.store(1, Ordering::Release);
        let (g, family, epoch, deletes) = (&g, &family, &epoch, &deletes);
        std::thread::scope(|s| {
            s.spawn(move || {
                for chunk in deletes.chunks(64) {
                    for u in chunk {
                        g.apply(u);
                    }
                    // ordering: Release — publishes the chunk's
                    // unrouted mutations with a bare bump (invariant 6).
                    epoch.fetch_add(1, Ordering::Release);
                }
            });
            for r in 0..2u64 {
                s.spawn(move || {
                    let mut rng = rng_for(SUITE, 20 + r, seed);
                    for _ in 0..150 {
                        let u = rng.next_bounded(N as u64) as u32;
                        let v = rng.next_bounded(N as u64) as u32;
                        let _ = family.query(g, epoch).same_component(u, v);
                    }
                });
            }
        });
        // The first post-quiescence query absorbs the final epoch gap.
        assert_eq!(
            family.query(g, epoch).component_count(),
            snap::kernels::component_count(&want),
            "seed {seed}: component count after resync"
        );
        assert_eq!(idx.labels(g), want, "seed {seed}: final labels");
        assert!(
            idx.full_rebuild_count() >= 1,
            "seed {seed}: the out-of-band gap must have forced a resync"
        );
    }
}

/// Protocol 6 — writer-local freeze (invariant 1). A producer submits
/// small batches back to back, yielding between them so the writer runs
/// many short cycles (a cycle takes whatever is queued), and the writer
/// freezes when it finds the queue dry or at the fourth cycle in a row
/// without a freeze, whatever the racing reader pins. The yields land on
/// the label swap and the publication swap; under every schedule a
/// pinned version's CSR and labels both equal the replay of its own
/// `batches()` (never one prefix's CSR with another's labels), a drained
/// queue means a complete pin, and the label queries are never behind a
/// pin. Every distinct version pinned is checked, not every epoch: a
/// compacted republication shares its overlay's epoch.
#[test]
fn writer_local_freeze_matches_oracle_across_seeds() {
    const SCALE: u32 = 8;
    const BATCHES: u64 = 24;
    let n = 1usize << SCALE;
    let edges = Rmat::new(RmatParams::paper(SCALE, 8), 654).edges();
    let base_len = edges.len() * 3 / 4;
    let base = StreamBuilder::new(&edges[..base_len], 7).construction_shuffled();
    // The base graph with `history` replayed on top, bulk-synchronously.
    let replay = |history: &[Vec<Update>]| {
        let g: DynGraph<HybridAdj> = DynGraph::undirected(n, &hints(base.len() * 3));
        for u in base.iter().chain(history.iter().flatten()) {
            g.apply(u);
        }
        g
    };
    for seed in 0..SEEDS {
        set_chaos_seed(seed);
        let engine = ServeEngine::new(
            replay(&[]),
            ServeConfig::default().with_shards(2).with_history(true),
        );
        let engine = &engine;
        let edges = &edges;
        let pins = std::thread::scope(|scope| {
            let producer = scope.spawn(move || {
                let mut stream =
                    StreamBuilder::new(edges, 2000 + seed * 100).inserting_from(base_len);
                for _ in 0..BATCHES {
                    engine.submit(stream.mixed(48, 0.7));
                    std::thread::yield_now();
                }
            });
            let mut pins = Vec::new();
            let overdue = writer_deadline("the queue to drain");
            while !producer.is_finished() || engine.pending_batches() > 0 {
                overdue();
                let handle = engine.pin();
                assert!(engine.epoch() >= handle.epoch(), "seed {seed}");
                if pins.last().is_none_or(|last| !Arc::ptr_eq(last, &handle)) {
                    pins.push(handle);
                }
                std::thread::yield_now();
            }
            producer.join().expect("producer must not panic");
            pins.push(engine.pin());
            pins
        });
        let last = pins.last().expect("pinned at least once");
        assert_eq!(
            last.batches(),
            BATCHES,
            "seed {seed}: a drained queue means the next pin has everything"
        );
        assert!(
            (1..=BATCHES).contains(&engine.epoch()),
            "seed {seed}: a cycle takes at least one batch"
        );
        assert!(engine.freezes() <= engine.epoch(), "seed {seed}");
        let history = engine.history();
        let mut seen = std::collections::HashSet::new();
        for handle in pins.iter().filter(|h| seen.insert(Arc::as_ptr(h))) {
            assert!(handle.epoch() <= handle.batches(), "seed {seed}");
            let oracle = replay(&history[..handle.batches() as usize]).to_csr();
            let (mut got, mut want) = (handle.collect_entries(), oracle.collect_entries());
            got.sort_unstable();
            want.sort_unstable();
            let at = format!("seed {seed} epoch {}", handle.epoch());
            assert_eq!(got, want, "{at}: CSR");
            let published = handle.component_labels().expect("conn on");
            assert_eq!(***published, connected_components(&oracle), "{at}: labels");
        }
    }
}

/// Protocol 7 — the index under serving (invariants 1 and 6). One
/// engine maintains connectivity; a producer streams mixed batches
/// while readers pin versions and call every index query against the
/// live index, racing the writer's cycles. Racing answers merely must
/// not panic. After `flush`, the published labels and every component
/// query must equal a from-scratch oracle on the bulk-synchronous
/// replay of the history — and the index may not have paid a full
/// rebuild (the writer steps it before it publishes a cycle's epoch, so
/// a reader never finds it behind).
#[test]
fn index_family_under_serving_matches_oracles_across_seeds() {
    const SCALE: u32 = 8;
    const BATCHES: usize = 12;
    let n = 1usize << SCALE;
    let edges = Rmat::new(RmatParams::paper(SCALE, 8), 987).edges();
    let base_len = edges.len() * 3 / 4;
    let base = StreamBuilder::new(&edges[..base_len], 7).construction_shuffled();
    let replay = |history: &[Vec<Update>]| {
        let g: DynGraph<HybridAdj> = DynGraph::undirected(n, &hints(base.len() * 3));
        for u in base.iter().chain(history.iter().flatten()) {
            g.apply(u);
        }
        g
    };
    for seed in 0..SEEDS {
        set_chaos_seed(seed);
        let engine = ServeEngine::new(
            replay(&[]),
            ServeConfig::default().with_shards(2).with_history(true),
        );
        let engine = &engine;
        let edges = &edges;
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let mut stream =
                    StreamBuilder::new(edges, 3000 + seed * 100).inserting_from(base_len);
                for _ in 0..BATCHES {
                    engine.submit(stream.mixed(48, 0.7));
                }
            });
            for r in 0..2u64 {
                scope.spawn(move || {
                    let mut rng = rng_for(SUITE, 50 + r, seed);
                    for round in 0..40 {
                        let handle = engine.pin();
                        let u = rng.next_bounded(n as u64) as u32;
                        let v = rng.next_bounded(n as u64) as u32;
                        let w = rng.next_bounded(n as u64) as u32;
                        assert!(handle.same_component(u, v).is_some());
                        let _ = engine.same_component(u, v);
                        let _ = engine.component(u);
                        let index = engine.indexes();
                        let _ = index.same_component(u, v);
                        let _ = index.component(v);
                        let _ = index.same_component(w, v);
                        let _ = index.component(w);
                        if round % 8 == 0 {
                            let _ = index.component_count();
                        }
                    }
                });
            }
        });
        engine.flush();
        let oracle = replay(&engine.history());
        let at = format!("seed {seed}");
        let handle = engine.pin();
        assert_eq!(handle.batches(), BATCHES as u64, "{at}: flush is a barrier");
        let labels = connected_components(&oracle);
        let published = handle.component_labels().expect("conn on");
        assert_eq!(***published, labels, "{at}: published labels");
        let index = engine.indexes();
        for v in 0..n as u32 {
            assert_eq!(index.component(v), labels[v as usize], "{at}: vertex {v}");
        }
        assert_eq!(
            index.component_count(),
            snap::kernels::component_count(&labels),
            "{at}: component count"
        );
        let conn = index.connectivity().expect("conn on");
        assert_eq!(conn.full_rebuild_count(), 0, "{at}: stayed incremental");
    }
}

/// Protocol 8 — backlog-sized cycles (invariants 1, 6, 8). A producer
/// queues about one and a half applier ranges of half-updates at once,
/// so the writer's cycles fill to the range budget and span two ranges,
/// claimed by the writer's 1, 2 or 8 shards (by seed), while the engine
/// maintains connectivity and a reader pins versions and queries the
/// index. Under every schedule each pinned version's CSR and labels
/// equal the replay of its own `batches()`; after `flush` every
/// component query equals the full replay's; and the index never
/// rebuilds in full.
#[test]
fn backlog_cycles_match_oracles_across_seeds() {
    const SCALE: u32 = 8;
    // Half-updates per applier range (`RANGE_BUDGET` in
    // `snap_core::engine`). 100 batches of 2,000 half-updates fill 1.5
    // of them, and 2,000 does not divide one, so a cycle that fills up
    // spans two.
    const RANGE_BUDGET: usize = 1 << 17;
    const BATCHES: u64 = 100;
    const BATCH: usize = 1000;
    let n = 1usize << SCALE;
    let edges = Rmat::new(RmatParams::paper(SCALE, 8), 741).edges();
    let base_len = edges.len() * 3 / 4;
    let base = StreamBuilder::new(&edges[..base_len], 7).construction_shuffled();
    let seeded = || {
        let g: DynGraph<HybridAdj> = DynGraph::undirected(n, &hints(base.len() * 3));
        for u in &base {
            g.apply(u);
        }
        g
    };
    for seed in 0..SEEDS {
        set_chaos_seed(seed);
        let shards = [1, 2, 8][seed as usize % 3];
        let at = format!("seed {seed}, {shards} shards");
        let engine = ServeEngine::new(
            seeded(),
            ServeConfig::default()
                .with_shards(shards)
                .with_history(true),
        );
        let mut stream = StreamBuilder::new(&edges, 4000 + seed * 100).inserting_from(base_len);
        let burst: Vec<Vec<Update>> = (0..BATCHES).map(|_| stream.mixed(BATCH, 0.7)).collect();
        let engine = &engine;
        // Distinct versions in pin order, up to the one holding the
        // whole burst (an idle engine is frozen, so it comes).
        let pins: Vec<SnapshotHandle> = std::thread::scope(|scope| {
            let reader = scope.spawn(move || {
                let mut rng = rng_for(SUITE, 60, seed);
                let mut pins: Vec<SnapshotHandle> = Vec::new();
                let overdue = writer_deadline("a version holding the whole burst");
                loop {
                    overdue();
                    let handle = engine.pin();
                    assert!(engine.epoch() >= handle.epoch());
                    let u = rng.next_bounded(n as u64) as u32;
                    let w = rng.next_bounded(n as u64) as u32;
                    let index = engine.indexes();
                    let _ = index.same_component(u, w);
                    let _ = index.component(u);
                    let done = handle.batches() == BATCHES;
                    if pins
                        .last()
                        .is_none_or(|last| last.epoch() != handle.epoch())
                    {
                        pins.push(handle);
                    }
                    if done {
                        break pins;
                    }
                    std::thread::yield_now();
                }
            });
            for batch in burst {
                engine.submit(batch);
            }
            reader.join().expect("reader must not panic")
        });
        engine.flush();
        let halves = BATCHES as usize * 2 * BATCH;
        let fewest = halves.div_ceil(RANGE_BUDGET + 2 * BATCH) as u64;
        assert!(
            (fewest..=BATCHES).contains(&engine.epoch()),
            "{at}: {} cycles",
            engine.epoch()
        );
        // One oracle walked forward through the pins' prefixes; the
        // last pin holds every batch, so it ends at the flushed state.
        let history = engine.history();
        let oracle = seeded();
        let mut replayed = 0;
        for handle in &pins {
            let batches = handle.batches() as usize;
            for u in history[replayed..batches].iter().flatten() {
                oracle.apply(u);
            }
            replayed = batches;
            let csr = oracle.to_csr();
            let (mut got, mut want) = (handle.collect_entries(), csr.collect_entries());
            got.sort_unstable();
            want.sort_unstable();
            let version = format!("{at}, epoch {} ({batches} batches)", handle.epoch());
            assert_eq!(got, want, "{version}: CSR");
            let published = handle.component_labels().expect("conn on");
            assert_eq!(
                ***published,
                connected_components(&csr),
                "{version}: labels"
            );
        }
        assert_eq!(
            replayed, BATCHES as usize,
            "{at}: the last pin has everything"
        );
        let index = engine.indexes();
        let labels = connected_components(&oracle);
        for v in 0..n as u32 {
            assert_eq!(index.component(v), labels[v as usize], "{at}: vertex {v}");
        }
        let conn = index.connectivity().expect("conn on");
        assert_eq!(conn.full_rebuild_count(), 0, "{at}: stayed incremental");
    }
}

/// When the feature is compiled in, the sweep above must actually have
/// been chaotic: the shims' yield counters prove injection was live.
#[test]
fn chaos_injection_is_live_when_enabled() {
    if !rayon::chaos::enabled() {
        assert!(!parking_lot::chaos::enabled(), "features move together");
        return;
    }
    set_chaos_seed(7);
    let (inserts, _, _) = workload(999);
    let hints = hints(inserts.len() * 2);
    let g: DynGraph<HybridAdj> = DynGraph::undirected(N as usize, &hints);
    let mgr = SnapshotManager::new(g);
    mgr.enable_connectivity();
    mgr.apply_batch(&inserts);
    assert!(
        rayon::chaos::yield_count() + parking_lot::chaos::yield_count() > 0,
        "chaos compiled in but no yields injected"
    );
}
