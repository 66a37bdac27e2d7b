//! The four workloads and their end-to-end measurement.
//!
//! Noise rules every workload follows: a repetition is a fixed amount of
//! work, never a fixed duration; every repetition rebuilds its graph or
//! engine to the same state (the rebuild is untimed); repetitions repeat
//! until the run's time budget is spent and every reported figure is a
//! median over them or over their blocks; runnable threads never exceed
//! `threads`. `serve-mixed` is the exception by nature: it is open-loop,
//! so its one paced run lasts the whole budget.

use crate::oracle;
use crate::report::Report;
use crate::stats::median;
use crate::stream::{unique_edges, StreamGen};
use crate::trace::Tracer;
use snap::prelude::*;
use snap::util::XorShift64;
use std::hint::black_box;
use std::time::{Duration, Instant};

pub type Graph = DynGraph<HybridAdj>;
pub type Engine = ServeEngine<HybridAdj>;

/// Updates per serving batch.
pub const BATCH: usize = 256;
/// Updates per `build-bulk` batch when the traced run feeds its stream
/// through the serving cycle.
pub const BULK_BATCH: usize = 4096;
/// Batches the engine coalesces into one publication cycle.
pub const COALESCE: usize = 16;
/// Open-loop arrival: one batch every 200 ms — about half of what one
/// single-batch cycle (repair + freeze at scale 16) sustains.
pub const PERIOD: Duration = Duration::from_millis(200);
/// `same_component` calls per timed block (per `Instant` pair).
pub const BLOCK_CALLS: usize = 4096;
pub const PACED_BLOCK_CALLS: usize = 1024;
/// The paced client runs one analysis unit every this many query blocks.
const PACED_ANALYSIS_EVERY: usize = 4096;
/// Query pairs generated per run; blocks cycle through them.
const PAIRS: usize = 64 * BLOCK_CALLS;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Measured repetitions a run makes however short its time budget.
pub const MIN_REPS: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// `SnapshotManager::apply_batch` of one construction and one deletion
    /// batch, no index.
    Bulk,
    /// `ServeEngine`, closed loop: batches submitted back to back, then
    /// `flush()`.
    Drain,
    /// `ServeEngine`, open loop: one batch due every [`PERIOD`].
    Paced,
}

pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub scale: u32,
    /// Insert share of the timed stream.
    pub insert_fraction: f64,
    /// Timed updates per repetition as a share of `m = 8 << scale`,
    /// in eighths (ignored by `Paced`, whose length is the time budget).
    updates_eighths: usize,
    /// Single-batch visibility probes per repetition (`Drain` only).
    probes: usize,
    /// Query blocks per repetition.
    blocks: usize,
}

/// Analysis units per repetition.
const UNITS: usize = 3;

/// The workload called `name`, one of [`crate::report::WORKLOADS`].
pub fn spec(name: &str, quick: bool) -> Option<Spec> {
    let which = crate::report::WORKLOADS.iter().position(|w| *w == name)?;
    let (kind, scale, insert_fraction, updates_eighths, probes, blocks) = [
        // 8/8 of m inserted, then 2/8 deleted: 0.8 of the updates insert.
        (Kind::Bulk, 17, 0.8, 10, 0, 64),
        (Kind::Drain, 16, 1.0, 2, 16, 256),
        (Kind::Drain, 16, 0.75, 1, 8, 256),
        (Kind::Paced, 16, 0.75, 0, 0, 0),
    ][which];
    Some(Spec {
        name: crate::report::WORKLOADS[which],
        kind,
        scale: if quick { 12 } else { scale },
        insert_fraction,
        updates_eighths,
        probes: if quick { probes.min(2) } else { probes },
        blocks: if quick { blocks / 8 } else { blocks },
    })
}

impl Spec {
    pub fn vertices(&self) -> usize {
        1 << self.scale
    }

    /// The paper's edge count for the scale, `8n`.
    pub fn edges(&self) -> usize {
        8 << self.scale
    }

    /// Batches per publication cycle when the stream is drained: the
    /// open-loop arrival is slower than a cycle, so its cycles hold one.
    pub fn cycle_batches(&self) -> usize {
        if self.kind == Kind::Paced {
            1
        } else {
            COALESCE
        }
    }
}

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub threads: usize,
}

impl Options {
    /// Writer shards, leaving one runnable thread to the client.
    pub fn shards(&self) -> usize {
        self.threads.saturating_sub(1).max(1)
    }

    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig::default()
            .with_shards(self.shards())
            .with_coalesce(COALESCE)
    }
}

/// Everything a workload consumes, made from the seed alone.
pub struct Inputs {
    pub n: usize,
    pub hints: CapacityHints,
    /// `Bulk`: the timed construction stream. Serving: the base graph,
    /// the first 3/4 of `m`, applied before the engine starts.
    pub construct: Vec<Update>,
    /// `Bulk`: the timed deletions. Serving: deletions of base edges for
    /// the per-representation layer rows only.
    pub deletions: Vec<Update>,
    /// Serving: the timed stream. `Bulk`: the same stream cut into
    /// [`BULK_BATCH`] pieces, for the traced run's serving-cycle replay.
    pub batches: Vec<Vec<Update>>,
    /// Single-batch visibility probes, continuing the stream.
    pub probes: Vec<Vec<Update>>,
    pub pairs: Vec<(u32, u32)>,
    /// 16 fixed BFS sources: the highest-degree vertices of the pool,
    /// which sit in the giant component.
    pub sources: Vec<u32>,
}

impl Inputs {
    /// The updates applied before the timed stream starts.
    pub fn base(&self, spec: &Spec) -> &[Update] {
        if spec.kind == Kind::Bulk {
            &[]
        } else {
            &self.construct
        }
    }
}

pub fn prepare(spec: &Spec, opts: &Options, tr: &mut Tracer) -> Inputs {
    let (n, m) = (spec.vertices(), spec.edges());
    // m for the workload's own stream plus a quarter for probes.
    let pool = unique_edges(spec.scale, m + m / 4, opts.seed, tr);
    let (inputs, _) = tr.span("rmat.stream_build", 0, |_| {
        let mut gen = StreamGen::new(&pool, opts.seed);
        let timed = m * spec.updates_eighths / 8;
        let (construct, deletions, batches) = match spec.kind {
            Kind::Bulk => {
                let construct = gen.inserts(m);
                let deletions = gen.deletes(timed - m);
                let batches = construct
                    .chunks(BULK_BATCH)
                    .chain(deletions.chunks(BULK_BATCH))
                    .map(<[Update]>::to_vec)
                    .collect();
                (construct, deletions, batches)
            }
            Kind::Drain | Kind::Paced => {
                let construct = gen.inserts(m * 3 / 4);
                let deletions = gen.clone().deletes(construct.len() / 4);
                let count = if spec.kind == Kind::Paced {
                    (opts.seconds / PERIOD.as_secs_f64()).ceil() as usize
                } else {
                    timed / BATCH
                };
                let batches = gen.mixed_batches(count, BATCH, spec.insert_fraction);
                (construct, deletions, batches)
            }
        };
        let probes = gen.mixed_batches(spec.probes, BATCH, spec.insert_fraction);
        let mut rng = XorShift64::new(opts.seed ^ 0x9A125);
        let mut vertex = || rng.next_bounded(n as u64) as u32;
        let pairs = (0..PAIRS).map(|_| (vertex(), vertex())).collect();
        let degrees = Rmat::undirected_degrees(&pool, n);
        let mut by_degree: Vec<u32> = (0..n as u32).collect();
        by_degree.sort_by_key(|&v| (std::cmp::Reverse(degrees[v as usize]), v));
        by_degree.truncate(16);
        Inputs {
            n,
            hints: CapacityHints::new(2 * m),
            construct,
            deletions,
            batches,
            probes,
            pairs,
            sources: by_degree,
        }
    });
    inputs
}

pub fn fresh_graph(inp: &Inputs) -> Graph {
    DynGraph::undirected(inp.n, &inp.hints)
}

/// A graph holding the workload's base, built in parallel like any bulk
/// load (untimed: repetitions start after it).
pub fn base_graph(spec: &Spec, inp: &Inputs) -> Graph {
    let g = fresh_graph(inp);
    engine::apply_stream(&g, inp.base(spec));
    g
}

/// What one repetition (or one paced run) measured.
#[derive(Default)]
pub struct Sample {
    pub update_mups: Vec<f64>,
    pub lag_ms: Vec<f64>,
    pub query_ns: Vec<f64>,
    pub analysis_ms: Vec<f64>,
    /// Wall time of each repetition's timed sections.
    pub rep_s: Vec<f64>,
}

/// How much of a repetition to run: all of it, or the slice set-up warms
/// up with.
#[derive(Clone, Copy)]
pub struct Size {
    /// Divides the stream, probe, block and unit counts.
    pub shrink: usize,
}

impl Size {
    pub const FULL: Size = Size { shrink: 1 };
    pub const WARM_UP: Size = Size { shrink: 8 };

    fn of(self, count: usize) -> usize {
        if count == 0 {
            0
        } else {
            (count / self.shrink).max(1)
        }
    }
}

/// Timed blocks of `calls` connectivity queries each; ns per call.
pub fn query_blocks(
    tr: &mut Tracer,
    pairs: &[(u32, u32)],
    blocks: usize,
    calls: usize,
    mut connected: impl FnMut(u32, u32) -> bool,
) -> Vec<f64> {
    let chunks = pairs.len() / calls;
    (0..blocks)
        .map(|b| {
            let chunk = &pairs[(b % chunks) * calls..][..calls];
            let (hits, secs) = tr.span("query.block", calls as u64, |_| {
                chunk.iter().filter(|&&(u, v)| connected(u, v)).count()
            });
            black_box(hits);
            secs * 1e9 / calls as f64
        })
        .collect()
}

/// The fixed analysis unit: `par_bfs` from the 16 sources, then `par_cc`.
pub fn analysis_unit<V: GraphView>(tr: &mut Tracer, view: &V, sources: &[u32]) -> f64 {
    let (_, secs) = tr.span("analysis.unit", 1, |tr| {
        for &s in sources {
            tr.span("analysis.bfs", 1, |_| black_box(par_bfs(view, s)));
        }
        tr.span("analysis.cc", 1, |_| black_box(par_cc(view)));
    });
    secs * 1e3
}

/// Submits one batch to an idle engine and spins on `pin()` until a
/// pinned version includes it; ms from submit to visible.
pub fn visibility_probe(tr: &mut Tracer, engine: &Engine, batch: Vec<Update>) -> f64 {
    let target = engine.pin().batches() + 1;
    let (_, secs) = tr.span("lag.probe", batch.len() as u64, |_| {
        engine.submit(batch);
        while engine.pin().batches() < target {
            std::hint::spin_loop();
        }
    });
    secs * 1e3
}

/// One `build-bulk` repetition on a fresh graph. Returns the manager and
/// forest for the oracle.
pub fn bulk_rep(
    spec: &Spec,
    inp: &Inputs,
    size: Size,
    tr: &mut Tracer,
    out: &mut Sample,
) -> (SnapshotManager<HybridAdj>, LinkCutForest) {
    let mgr = SnapshotManager::new(fresh_graph(inp));
    let construct = &inp.construct[..size.of(inp.construct.len())];
    // A warm-up slice inserts only a prefix, so it deletes from that
    // prefix; the full repetition uses the generated deletions.
    let warm_deletes: Vec<Update>;
    let deletions: &[Update] = if size.shrink == 1 {
        &inp.deletions
    } else {
        warm_deletes = construct[..construct.len() / 4]
            .iter()
            .map(|u| Update::delete(u.edge))
            .collect();
        &warm_deletes
    };
    let updates = (construct.len() + deletions.len()) as u64;
    let (forest, rep_s) = tr.span("rep", 1, |tr| {
        let ((_, delete_s), ingest_s) = tr.span("ingest", updates, |tr| {
            tr.span("ingest.construct", construct.len() as u64, |_| {
                mgr.apply_batch(construct)
            });
            tr.span("ingest.delete", deletions.len() as u64, |_| {
                mgr.apply_batch(deletions)
            })
        });
        let (csr, freeze_s) = tr.span("ingest.freeze", 1, |_| mgr.snapshot());
        out.update_mups.push(updates as f64 / ingest_s / 1e6);
        // Visible lag on the bulk path: from handing over the last batch
        // to holding a snapshot that includes it.
        out.lag_ms.push((delete_s + freeze_s) * 1e3);
        let (forest, _) = tr.span("lcf.build", 1, |_| LinkCutForest::from_view(&*csr));
        out.query_ns.extend(query_blocks(
            tr,
            &inp.pairs,
            size.of(spec.blocks),
            BLOCK_CALLS,
            |u, v| forest.connected(u, v),
        ));
        for _ in 0..size.of(UNITS) {
            out.analysis_ms.push(analysis_unit(tr, &*csr, &inp.sources));
        }
        forest
    });
    out.rep_s.push(rep_s);
    (mgr, forest)
}

/// One closed-loop serving repetition on a fresh engine over the base
/// graph. Returns the engine and the batches it was given, in order, for
/// the oracle.
pub fn drain_rep(
    spec: &Spec,
    opts: &Options,
    inp: &Inputs,
    size: Size,
    tr: &mut Tracer,
    out: &mut Sample,
) -> (Engine, Vec<Vec<Update>>) {
    let engine = ServeEngine::new(base_graph(spec, inp), opts.serve_config());
    let count = size.of(inp.batches.len());
    // A warm-up slice skips most of the stream, so some probe deletions
    // miss; harmless there, and full repetitions never skip.
    let submitted: Vec<Vec<Update>> = inp.batches[..count]
        .iter()
        .chain(&inp.probes[..size.of(inp.probes.len())])
        .cloned()
        .collect();
    let updates = (count * BATCH) as u64;
    // Copied up front: `submit` takes ownership, the oracle needs the
    // batches afterwards, and the copies must not be timed.
    let mut feed = submitted.clone().into_iter();
    let (_, rep_s) = tr.span("rep", 1, |tr| {
        let (_, ingest_s) = tr.span("ingest", updates, |_| {
            for batch in feed.by_ref().take(count) {
                engine.submit(batch);
            }
            engine.flush();
        });
        out.update_mups.push(updates as f64 / ingest_s / 1e6);
        for batch in feed {
            out.lag_ms.push(visibility_probe(tr, &engine, batch));
        }
        out.query_ns.extend(query_blocks(
            tr,
            &inp.pairs,
            size.of(spec.blocks),
            BLOCK_CALLS,
            |u, v| engine.same_component(u, v),
        ));
        let pin = engine.pin();
        for _ in 0..size.of(UNITS) {
            out.analysis_ms.push(analysis_unit(tr, &*pin, &inp.sources));
        }
    });
    out.rep_s.push(rep_s);
    (engine, submitted)
}

/// What the open-loop client saw beyond the end-to-end figures.
#[derive(Default)]
pub struct PacedExtras {
    pub late_ms: Vec<f64>,
    pub backlog_max: usize,
    /// Time between the first and last due time ÷ time between the first
    /// and last batch turning visible: 1 when the engine keeps up, below
    /// 1 when the backlog grows.
    pub achieved_over_offered: f64,
}

/// The open-loop run: batch `i` is due at `start + i * PERIOD` whatever
/// the engine is doing. Between due times the one client thread runs
/// blocks of [`PACED_BLOCK_CALLS`] `same_component` calls, polls
/// `pin().batches()` after each block to stamp visibility (lag counts
/// from the *due* time, so a stall charges every batch it delays), and
/// every [`PACED_ANALYSIS_EVERY`]th block pins and runs one
/// single-threaded `par_bfs`.
pub fn paced_run(
    engine: &Engine,
    batches: &[Vec<Update>],
    inp: &Inputs,
    tr: &mut Tracer,
    out: &mut Sample,
) -> PacedExtras {
    let mut extras = PacedExtras::default();
    let one_thread = ParConfig::default().with_threads(1);
    let already = engine.pin().batches();
    let start = Instant::now();
    let due = |i: usize| start + PERIOD * i as u32;
    let chunks = inp.pairs.len() / PACED_BLOCK_CALLS;
    let (mut sent, mut seen, mut blocks) = (0, 0, 0usize);
    let (mut first_visible, mut last_visible) = (start, start);
    while seen < batches.len() {
        if sent < batches.len() && Instant::now() >= due(sent) {
            extras
                .late_ms
                .push((Instant::now() - due(sent)).as_secs_f64() * 1e3);
            engine.submit(batches[sent].clone());
            sent += 1;
        }
        let visible = (engine.pin().batches() - already) as usize;
        if visible > seen {
            last_visible = Instant::now();
            if seen == 0 {
                first_visible = last_visible;
            }
            for i in seen..visible {
                out.lag_ms.push((last_visible - due(i)).as_secs_f64() * 1e3);
            }
            seen = visible;
        }
        let chunk = &inp.pairs[(blocks % chunks) * PACED_BLOCK_CALLS..][..PACED_BLOCK_CALLS];
        let (hits, secs) = tr.span("query.block", PACED_BLOCK_CALLS as u64, |_| {
            chunk
                .iter()
                .filter(|&&(u, v)| engine.same_component(u, v))
                .count()
        });
        black_box(hits);
        out.query_ns.push(secs * 1e9 / PACED_BLOCK_CALLS as f64);
        extras.backlog_max = extras.backlog_max.max(engine.pending_batches());
        blocks += 1;
        if blocks % PACED_ANALYSIS_EVERY == 0 {
            let pin = engine.pin();
            let source = inp.sources[(blocks / PACED_ANALYSIS_EVERY) % inp.sources.len()];
            let (_, secs) = tr.span("analysis.unit", 1, |_| {
                black_box(snap::par::par_bfs_with(&*pin, source, &one_thread))
            });
            out.analysis_ms.push(secs * 1e3);
        }
    }
    let updates: usize = batches.iter().map(Vec::len).sum();
    let wall = (last_visible - start).as_secs_f64();
    out.update_mups.push(updates as f64 / wall / 1e6);
    let offered = PERIOD.as_secs_f64() * (batches.len() - 1) as f64;
    extras.achieved_over_offered = match (last_visible - first_visible).as_secs_f64() {
        achieved if achieved > 0.0 => offered / achieved,
        _ => 1.0,
    };
    extras
}

/// Generation, stream building, the first state build and a warm-up
/// slice of the repetition: everything a run pays before it can measure.
pub fn set_up(spec: &Spec, opts: &Options, tr: &mut Tracer) -> Inputs {
    let inp = prepare(spec, opts, tr);
    let mut sink = Sample::default();
    tr.span("warm_up", 0, |tr| match spec.kind {
        Kind::Bulk => drop(bulk_rep(spec, &inp, Size::WARM_UP, tr, &mut sink)),
        Kind::Drain | Kind::Paced => {
            drop(drain_rep(spec, opts, &inp, Size::WARM_UP, tr, &mut sink))
        }
    });
    inp
}

/// Runs [`set_up`] [`SETUPS`] times; returns the last inputs and every
/// set-up's wall time in seconds.
pub fn set_up_repeatedly(spec: &Spec, opts: &Options, tr: &mut Tracer) -> (Inputs, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let (inp, secs) = tr.span("setup", 0, |tr| set_up(spec, opts, tr));
        times.push(secs);
        last = Some(inp);
    }
    (last.expect("SETUPS is at least 1"), times)
}

/// `VmHWM` of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The untraced run: every end-to-end metric, then the oracle.
pub fn run_end_to_end(spec: &Spec, opts: &Options) -> Report {
    let mut tr = Tracer::new(false);
    let mut report = Report::default();
    let (inp, setups) = set_up_repeatedly(spec, opts, &mut tr);
    let mut sample = Sample::default();
    let mut peak_rss = None;
    let budget = Instant::now();
    match spec.kind {
        Kind::Bulk | Kind::Drain => {
            // Repeat until the next repetition would overrun the budget.
            let mut state = None;
            loop {
                drop(state.take());
                let rep = Instant::now();
                state = Some(match spec.kind {
                    Kind::Bulk => {
                        oracle::State::Bulk(bulk_rep(spec, &inp, Size::FULL, &mut tr, &mut sample))
                    }
                    _ => oracle::State::Serve(drain_rep(
                        spec,
                        opts,
                        &inp,
                        Size::FULL,
                        &mut tr,
                        &mut sample,
                    )),
                });
                // Read before later repetitions and the oracle's hash
                // sets pile allocator slack on top of the library's peak.
                peak_rss.get_or_insert_with(peak_rss_mb);
                if sample.rep_s.len() >= MIN_REPS
                    && (budget.elapsed() + rep.elapsed()).as_secs_f64() > opts.seconds
                {
                    break;
                }
            }
            oracle::check(
                spec,
                &inp,
                state.as_ref().expect("one repetition ran"),
                &mut report,
            );
        }
        Kind::Paced => {
            let engine = ServeEngine::new(base_graph(spec, &inp), opts.serve_config());
            paced_run(&engine, &inp.batches, &inp, &mut tr, &mut sample);
            peak_rss = Some(peak_rss_mb());
            engine.flush();
            let state = oracle::State::Serve((engine, inp.batches.clone()));
            oracle::check(spec, &inp, &state, &mut report);
        }
    }
    eprintln!(
        "{}: {} repetitions, {} lag samples, {} query blocks, {} analysis units",
        spec.name,
        sample.rep_s.len().max(1),
        sample.lag_ms.len(),
        sample.query_ns.len(),
        sample.analysis_ms.len()
    );
    report.emit("update_mups", median(&sample.update_mups));
    report.emit("query_ns", median(&sample.query_ns));
    report.emit("analysis_ms", median(&sample.analysis_ms));
    report.emit("visible_lag_ms_p50", median(&sample.lag_ms));
    report.emit("setup_s", median(&setups));
    report.emit(
        "peak_rss_mb",
        peak_rss.expect("a repetition or the paced run ended"),
    );
    report
}
