//! The traced run: every per-layer metric, measured from outside.
//!
//! Layers are the library's modules. Nothing inside them is instrumented
//! (this package may not touch them), so each is priced by timing calls
//! into its public functions with the workload's own inputs:
//!
//! 1. the micro rows — each adjacency representation under serial
//!    `apply_stream`, each applier, the freeze, the compressor and the
//!    kernels, on the workload's construction and deletion streams;
//! 2. the replay — the writer cycle re-enacted on a benchmark-owned
//!    `DynGraph` + `ConnectivityIndex` over the identical stream, cycle by
//!    cycle: the writer's applier (`engine::apply_vpart_indexed`, routing
//!    nothing) → `note_insert`/`note_delete` for the changed updates →
//!    `ConnectivityIndex::labels` → `DynGraph::to_csr`;
//! 3. the real engine draining the same stream, whose wall clock the
//!    replay total is held against (`serve.replay_coverage`);
//! 4. an open-loop phase on the real engine, half of it traced;
//! 5. the workload's repetition with the recorder off and on in turn,
//!    which prices the recorder (`trace.overhead_share`).

use crate::oracle;
use crate::report::Report;
use crate::stats::{median, percentile};
use crate::stream::edge_key;
use crate::trace::Tracer;
use crate::workloads::*;
use snap::core::compressed::CompressedCsr;
use snap::core::engine::IndexRoutes;
use snap::core::DynamicAdjacency;
use snap::prelude::*;
use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Passes over the micro rows at most; each row reports the median of its
/// passes. A further pass starts only while [`MICRO_SHARE`] of the time
/// budget is unspent (one pass at scale 17, two at scale 16).
const MICRO_REPS: usize = 3;
const MICRO_SHARE: f64 = 0.2;
/// Cycles the replay and the engine drain cover at most.
const REPLAY_CYCLES: usize = 64;
/// Versions the replay keeps alive, like the engine's retention ring.
const RETAIN: usize = 4;
/// Share of the time budget the open-loop phase takes.
const PACED_SHARE: f64 = 0.3;

/// A partitioned or batched applier: graph, stream, worker count.
type Applier = fn(&Graph, &[Update], usize);

/// Median over the spans called `name` of their wall time in ms.
fn span_ms(tr: &Tracer, name: &str) -> f64 {
    median(&tr.seconds(name)) * 1e3
}

/// Median over the spans called `name` of `count ÷ wall time`, in millions.
fn span_mups(tr: &Tracer, name: &str) -> f64 {
    median(&tr.rates(name)) / 1e6
}

/// One representation under serial `engine::apply_stream` on a fresh
/// graph (figures 4–6); returns resident bytes per edge after insertion.
fn adjacency_row<A: DynamicAdjacency>(
    tr: &mut Tracer,
    inp: &Inputs,
    insert: &'static str,
    delete: &'static str,
) -> f64 {
    let g = DynGraph::<A>::undirected(inp.n, &inp.hints);
    snap::util::thread_pool(1).install(|| {
        tr.span(insert, inp.construct.len() as u64, |_| {
            engine::apply_stream(&g, &inp.construct)
        });
        let bytes = g.adjacency().memory_bytes() as f64 / inp.construct.len() as f64;
        tr.span(delete, inp.deletions.len() as u64, |_| {
            engine::apply_stream(&g, &inp.deletions)
        });
        bytes
    })
}

/// The micro rows (1). Emits the byte and ratio metrics directly; the
/// timed ones are read back from the spans afterwards.
fn micro_rows(inp: &Inputs, opts: &Options, tr: &mut Tracer, report: &mut Report) {
    let count = inp.construct.len() as u64;
    let mut bytes = [0.0; 3];
    // The last pass's snapshot, its compressed form and its forest, for
    // the size rows and the forest queries after the loop.
    let mut last = None;
    let started = Instant::now();
    for pass in 0..MICRO_REPS {
        if pass > 0 && started.elapsed().as_secs_f64() > opts.seconds * MICRO_SHARE {
            break;
        }
        bytes = [
            adjacency_row::<HybridAdj>(
                tr,
                inp,
                "adjacency.hybrid.insert",
                "adjacency.hybrid.delete",
            ),
            adjacency_row::<DynArr>(
                tr,
                inp,
                "adjacency.dynarr.insert",
                "adjacency.dynarr.delete",
            ),
            adjacency_row::<TreapAdj>(tr, inp, "adjacency.treap.insert", "adjacency.treap.delete"),
        ];
        // The appliers (figure 3), each on a fresh graph at `threads`;
        // each graph is dropped before the next is built.
        let mgr = SnapshotManager::new(fresh_graph(inp));
        tr.span("engine.apply_batch", count, |_| {
            mgr.apply_batch(&inp.construct)
        });
        drop(mgr);
        let appliers: [(&'static str, Applier); 3] = [
            ("engine.apply_vpart", engine::apply_vpart),
            ("engine.apply_epart", engine::apply_epart),
            ("engine.apply_batched", |g, updates, _| {
                engine::apply_batched(g, updates)
            }),
        ];
        for (name, apply) in appliers {
            let g = fresh_graph(inp);
            tr.span(name, count, |_| apply(&g, &inp.construct, opts.threads));
        }
        let g = fresh_graph(inp);
        tr.span("engine.apply_stream", count, |_| {
            engine::apply_stream(&g, &inp.construct)
        });
        // The freeze, the compressor and the kernels on that full graph.
        let (csr, _) = tr.span("csr.freeze", 1, |_| g.to_csr());
        let (compressed, _) = tr.span("compressed.encode", 1, |_| CompressedCsr::from_csr(&csr));
        let source = inp.sources[0];
        tr.span("kernels.bfs", 1, |_| black_box(bfs(&csr, source)));
        tr.span("par.bfs", 1, |_| black_box(par_bfs(&csr, source)));
        tr.span("kernels.cc", 1, |_| black_box(connected_components(&csr)));
        tr.span("par.cc", 1, |_| black_box(par_cc(&csr)));
        let (forest, _) = tr.span("kernels.lcf_build", 1, |_| LinkCutForest::from_view(&csr));
        last = Some((csr, compressed, forest));
    }
    let (csr, compressed, forest) = last.expect("MICRO_REPS is at least 1");
    let edges = csr.num_entries() as f64 / 2.0;
    let lcf_ns = query_blocks(
        &mut Tracer::new(false),
        &inp.pairs,
        64,
        BLOCK_CALLS,
        |u, v| forest.connected(u, v),
    );
    let sort_ms: Vec<f64> = (0..MICRO_REPS)
        .map(|_| engine::semi_sort_bound(&inp.construct, inp.n, false).as_secs_f64() * 1e3)
        .collect();

    for span in [
        "adjacency.hybrid.insert",
        "adjacency.hybrid.delete",
        "adjacency.dynarr.insert",
        "adjacency.dynarr.delete",
        "adjacency.treap.insert",
        "adjacency.treap.delete",
        "engine.apply_batch",
        "engine.apply_stream",
        "engine.apply_vpart",
        "engine.apply_epart",
        "engine.apply_batched",
    ] {
        report.emit(&format!("{span}_mups"), span_mups(tr, span));
    }
    for (repr, bytes) in ["hybrid", "dynarr", "treap"].into_iter().zip(bytes) {
        report.emit(&format!("adjacency.{repr}.bytes_per_edge"), bytes);
    }
    for span in [
        "csr.freeze",
        "compressed.encode",
        "kernels.bfs",
        "par.bfs",
        "kernels.cc",
        "par.cc",
        "kernels.lcf_build",
    ] {
        report.emit(&format!("{span}_ms"), span_ms(tr, span));
    }
    report.emit("engine.semi_sort_bound_ms", median(&sort_ms));
    report.emit("csr.bytes_per_edge", csr.memory_bytes() as f64 / edges);
    report.emit("compressed.ratio_vs_csr", compressed.ratio_vs_csr());
    report.emit("kernels.lcf_query_ns", median(&lcf_ns));
}

/// The batches the replay and the engine drain both cover.
fn replayed<'a>(spec: &Spec, inp: &'a Inputs) -> &'a [Vec<Update>] {
    &inp.batches[..inp.batches.len().min(REPLAY_CYCLES * spec.cycle_batches())]
}

/// The writer cycle re-enacted from outside (2): per cycle, the writer's
/// own applier call for every batch, then the index notes it would have
/// routed, then `labels`, then the freeze.
fn replay(spec: &Spec, opts: &Options, inp: &Inputs, tr: &mut Tracer, report: &mut Report) {
    let g = base_graph(spec, inp);
    let index = ConnectivityIndex::from_view(&g);
    let mut ring = VecDeque::from([(g.to_csr(), index.labels(&g))]);
    let (mut cycles, mut dirty, mut submitted, mut changed_total) = (0u64, 0u64, 0u64, 0u64);
    for cycle in replayed(spec, inp).chunks(spec.cycle_batches()) {
        let updates: u64 = cycle.iter().map(|b| b.len() as u64).sum();
        // Which updates will change the graph, worked out before the
        // cycle: an update changes it when the edge's presence — in the
        // graph, or as left by an earlier update of this cycle — differs
        // from what the update asks for.
        let mut left: HashMap<(u32, u32), bool> = HashMap::new();
        let changed: Vec<&Update> = cycle
            .iter()
            .flatten()
            .filter(|u| {
                let key = edge_key(&u.edge);
                let present = *left.get(&key).unwrap_or(&g.has_edge(key.0, key.1));
                let wanted = u.kind == UpdateKind::Insert;
                left.insert(key, wanted);
                present != wanted
            })
            .collect();
        tr.span("replay.cycle", updates, |tr| {
            tr.span("replay.apply", updates, |_| {
                for batch in cycle {
                    engine::apply_vpart_indexed(&g, batch, opts.shards(), IndexRoutes::default());
                }
            });
            tr.span("replay.note", changed.len() as u64, |_| {
                for u in &changed {
                    match u.kind {
                        UpdateKind::Insert => {
                            index.note_insert(u.edge.u, u.edge.v);
                        }
                        UpdateKind::Delete => index.note_delete(u.edge.u, u.edge.v),
                    }
                }
            });
            dirty += u64::from(index.has_dirty());
            let (labels, _) = tr.span("replay.labels", 1, |_| index.labels(&g));
            let (csr, _) = tr.span("replay.freeze", 1, |_| g.to_csr());
            // Publication: the new version enters the ring, the oldest
            // leaves it — the writer pays that drop too.
            ring.push_back((csr, labels));
            if ring.len() > RETAIN {
                ring.pop_front();
            }
        });
        cycles += 1;
        submitted += updates;
        changed_total += changed.len() as u64;
    }
    let total = tr.total_seconds("replay.cycle");
    for (phase, ms, share) in [
        ("replay.apply", "serve.apply_ms", "serve.apply_share"),
        (
            "replay.note",
            "connectivity.note_ms",
            "connectivity.note_share",
        ),
        (
            "replay.labels",
            "connectivity.labels_ms",
            "connectivity.labels_share",
        ),
        ("replay.freeze", "csr.cycle_freeze_ms", "csr.freeze_share"),
    ] {
        report.emit(ms, span_ms(tr, phase));
        report.emit(share, tr.self_seconds(phase) / total);
    }
    report.emit(
        "engine.changed_ratio",
        changed_total as f64 / submitted as f64,
    );
    report.emit("connectivity.repairs", index.repair_count() as f64);
    report.emit(
        "connectivity.dirty_cycle_ratio",
        dirty as f64 / cycles as f64,
    );
    report.check(
        "replay index never rebuilt in full",
        1,
        index.full_rebuild_count() as u64,
    );
    // The replayed graph must be the one the stream describes, and the
    // replayed index must label it like the serial kernel.
    let csr = &ring.back().expect("the ring is never empty").0;
    let wrong = index
        .labels(&g)
        .iter()
        .zip(connected_components(csr))
        .filter(|(a, b)| *a != b)
        .count();
    report.check(
        "replayed labels equal connected_components",
        inp.n as u64,
        wrong as u64,
    );
}

/// The real engine draining the replayed stream (3), then its pin and
/// submit costs on the drained engine.
fn engine_drain(spec: &Spec, opts: &Options, inp: &Inputs, tr: &mut Tracer, report: &mut Report) {
    let base = base_graph(spec, inp);
    let (engine, new_s) = tr.span("engine.new", 1, |_| {
        ServeEngine::new(base, opts.serve_config())
    });
    let batches = replayed(spec, inp);
    let updates: u64 = batches.iter().map(|b| b.len() as u64).sum();
    // Coalescing cycles come from submitting the whole stream back to
    // back; single-batch cycles from waiting out each batch.
    let together = if spec.cycle_batches() == 1 {
        1
    } else {
        batches.len()
    };
    // Cloned up front: the drain below times the engine, not the copies.
    let feed: Vec<Vec<Update>> = batches.to_vec();
    let mut feed = feed.into_iter().peekable();
    let (_, drain_s) = tr.span("engine.drain", updates, |_| {
        while feed.peek().is_some() {
            for batch in feed.by_ref().take(together) {
                engine.submit(batch);
            }
            engine.flush();
        }
    });
    let cycles = engine.epoch();
    report.emit("serve.cycles", cycles as f64);
    report.emit("serve.updates_per_cycle", updates as f64 / cycles as f64);
    report.emit(
        "serve.replay_coverage",
        tr.total_seconds("replay.cycle") / drain_s,
    );
    report.emit("serve.engine_new_ms", new_s * 1e3);

    let pin_ns: Vec<f64> = (0..64)
        .map(|_| {
            let (_, secs) = tr.span("serve.pin", BLOCK_CALLS as u64, |_| {
                for _ in 0..BLOCK_CALLS {
                    black_box(engine.pin());
                }
            });
            secs * 1e9 / BLOCK_CALLS as f64
        })
        .collect();
    report.emit("serve.pin_ns", median(&pin_ns));
    // Empty batches price `submit` alone: the channel send and the
    // counters, with nothing for the writer to apply.
    let submit_ns: Vec<f64> = (0..8)
        .map(|_| {
            let (_, secs) = tr.span("serve.submit", BATCH as u64, |_| {
                for _ in 0..BATCH {
                    engine.submit(Vec::new());
                }
            });
            engine.flush();
            secs * 1e9 / BATCH as f64
        })
        .collect();
    report.emit("serve.submit_ns", median(&submit_ns));
    let rebuilds = engine.full_rebuild_count().unwrap_or(0);
    report.check("engine index never rebuilt in full", 1, rebuilds as u64);
    report.emit("connectivity.full_rebuilds", rebuilds as f64);
}

/// The open-loop phase (4): a fresh engine over the base, the stream's
/// first batches at the fixed arrival rate, the first half with the
/// recorder off and the second with it on. Returns the median query
/// block of each half, in ns per call.
fn paced_phase(
    spec: &Spec,
    opts: &Options,
    inp: &Inputs,
    tr: &mut Tracer,
    report: &mut Report,
) -> (f64, f64) {
    let engine = ServeEngine::new(base_graph(spec, inp), opts.serve_config());
    let wanted = (opts.seconds * PACED_SHARE / 2.0 / PERIOD.as_secs_f64()).ceil() as usize;
    let half = wanted.min(inp.batches.len() / 2).max(1);
    let mut halves = [Sample::default(), Sample::default()];
    let mut extras = Vec::new();
    for (i, out) in halves.iter_mut().enumerate() {
        tr.set_on(i == 1);
        extras.push(paced_run(
            &engine,
            &inp.batches[i * half..][..half],
            inp,
            tr,
            out,
        ));
    }
    let all = |f: fn(&Sample) -> &Vec<f64>| -> Vec<f64> {
        halves.iter().flat_map(|s| f(s).iter().copied()).collect()
    };
    let late: Vec<f64> = extras
        .iter()
        .flat_map(|e| e.late_ms.iter().copied())
        .collect();
    report.emit(
        "serve.visible_lag_ms_p95",
        percentile(&all(|s| &s.lag_ms), 0.95),
    );
    report.emit("serve.generator_late_ms_p95", percentile(&late, 0.95));
    report.emit(
        "serve.query_block_ns_p99",
        percentile(&all(|s| &s.query_ns), 0.99),
    );
    report.emit(
        "serve.achieved_over_offered",
        extras.iter().map(|e| e.achieved_over_offered).sum::<f64>() / 2.0,
    );
    report.emit(
        "serve.backlog_max",
        extras.iter().map(|e| e.backlog_max).max().unwrap_or(0) as f64,
    );
    (median(&halves[0].query_ns), median(&halves[1].query_ns))
}

/// The workload's repetition with the recorder off and on in turn (5),
/// until the time budget is spent. Returns the median repetition wall of
/// each side and the last repetition's state.
fn alternate_reps(
    spec: &Spec,
    opts: &Options,
    inp: &Inputs,
    started: Instant,
    tr: &mut Tracer,
) -> (f64, f64, oracle::State) {
    let mut sides = [Sample::default(), Sample::default()];
    let mut state = None;
    loop {
        for (i, out) in sides.iter_mut().enumerate() {
            drop(state.take());
            tr.set_on(i == 1);
            state = Some(match spec.kind {
                Kind::Bulk => oracle::State::Bulk(bulk_rep(spec, inp, Size::FULL, tr, out)),
                _ => oracle::State::Serve(drain_rep(spec, opts, inp, Size::FULL, tr, out)),
            });
        }
        if sides[1].rep_s.len() >= MIN_REPS && started.elapsed().as_secs_f64() > opts.seconds {
            let state = state.expect("a repetition ran");
            return (median(&sides[0].rep_s), median(&sides[1].rep_s), state);
        }
    }
}

/// The traced run: every per-layer metric, then the oracle. The recorder
/// is handed back so the caller can write the spans out.
pub fn run_traced(spec: &Spec, opts: &Options) -> (Report, Tracer) {
    let mut tr = Tracer::new(true);
    let mut report = Report::default();
    let (inp, _) = set_up_repeatedly(spec, opts, &mut tr);
    report.emit(
        "rmat.generate_s",
        tr.total_seconds("rmat.generate") / SETUPS as f64,
    );
    report.emit(
        "rmat.stream_build_s",
        tr.total_seconds("rmat.stream_build") / SETUPS as f64,
    );
    let started = Instant::now();
    micro_rows(&inp, opts, &mut tr, &mut report);
    replay(spec, opts, &inp, &mut tr, &mut report);
    engine_drain(spec, opts, &inp, &mut tr, &mut report);
    let (untraced_block, traced_block) = paced_phase(spec, opts, &inp, &mut tr, &mut report);
    let (untraced, traced) = if spec.kind == Kind::Paced {
        // The paced workload is one run, not repetitions: its unit of
        // client work is the query block. The oracle checks a drain.
        let mut sink = Sample::default();
        let state =
            oracle::State::Serve(drain_rep(spec, opts, &inp, Size::FULL, &mut tr, &mut sink));
        oracle::check(spec, &inp, &state, &mut report);
        (untraced_block, traced_block)
    } else {
        let (untraced, traced, state) = alternate_reps(spec, opts, &inp, started, &mut tr);
        oracle::check(spec, &inp, &state, &mut report);
        (untraced, traced)
    };
    tr.set_on(true);
    report.emit("trace.overhead_share", traced / untraced - 1.0);
    (report, tr)
}
