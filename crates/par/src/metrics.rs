//! Publishes [`ParStats`] scheduling counters into the process-wide
//! metrics registry, so the parallel runtime's decisions are observable
//! from *inside* a serving run — not only from the bench harness's
//! printed tables. ZST no-ops without the `obs` feature.

use crate::frontier::ParStats;
use std::sync::OnceLock;

struct ParMetrics {
    runs: snap_obs::Counter,
    serial_levels: snap_obs::Counter,
    forked_levels: snap_obs::Counter,
    chunks_built: snap_obs::Counter,
    steals: snap_obs::Counter,
    edges_scanned: snap_obs::Counter,
}

fn par_metrics() -> &'static ParMetrics {
    static M: OnceLock<ParMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = snap_obs::MetricsRegistry::global();
        ParMetrics {
            runs: r.counter("snap_par_runs_total", "Parallel kernel invocations"),
            serial_levels: r.counter(
                "snap_par_serial_levels_total",
                "Frontier levels/sweeps run inline on the caller",
            ),
            forked_levels: r.counter(
                "snap_par_forked_levels_total",
                "Frontier levels/sweeps fanned out over scoped workers",
            ),
            chunks_built: r.counter(
                "snap_par_chunks_built_total",
                "Chunks built for forked levels",
            ),
            steals: r.counter(
                "snap_par_steals_total",
                "Chunks claimed from another worker's deal",
            ),
            edges_scanned: r.counter(
                "snap_par_edges_scanned_total",
                "Adjacency entries examined by kernel levels and sweeps",
            ),
        }
    })
}

/// Folds one finished kernel run's counters into the registry.
pub(crate) fn publish(stats: &ParStats) {
    let m = par_metrics();
    m.runs.inc();
    m.serial_levels.add(stats.serial_levels);
    m.forked_levels.add(stats.forked_levels);
    m.chunks_built.add(stats.chunks_built);
    m.steals.add(stats.steals);
    m.edges_scanned.add(stats.edges_scanned);
}
