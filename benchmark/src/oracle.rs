//! The correctness oracle, run once per run outside every timed section.
//!
//! It compares what the library serves at the end of the last repetition
//! with references computed independently: a serial hash-set replay of
//! the update stream, the serial kernels on the same snapshot, and the
//! serial labels for sampled connectivity answers. Every disagreement
//! counts as a failed operation.

use crate::report::Report;
use crate::stream::edge_key;
use crate::workloads::{Engine, Inputs, Spec};
use snap::kernels::serial_bfs;
use snap::prelude::*;
use std::collections::HashSet;

/// Connectivity answers checked against the serial labels.
const SAMPLED_QUERIES: usize = 4096;

/// The state a workload's last repetition left behind. (One value exists
/// at a time, so the variants' size difference costs nothing.)
#[allow(clippy::large_enum_variant)]
pub enum State {
    Bulk((SnapshotManager<HybridAdj>, LinkCutForest)),
    /// The engine and every batch submitted to it, in order.
    Serve((Engine, Vec<Vec<Update>>)),
}

/// The live undirected edge set after applying `updates` serially.
fn reference_edges<'a>(updates: impl Iterator<Item = &'a Update>) -> HashSet<(u32, u32)> {
    let mut live = HashSet::new();
    for u in updates {
        match u.kind {
            UpdateKind::Insert => live.insert(edge_key(&u.edge)),
            UpdateKind::Delete => live.remove(&edge_key(&u.edge)),
        };
    }
    live
}

/// Checks a snapshot against the reference replay and the serial kernels;
/// returns the serial component labels.
fn check_snapshot(
    csr: &CsrGraph,
    reference: &HashSet<(u32, u32)>,
    sources: &[u32],
    report: &mut Report,
) -> Vec<u32> {
    let served: HashSet<(u32, u32)> = csr
        .iter_entries()
        .map(|(u, v, _)| (u.min(v), u.max(v)))
        .collect();
    let differing = served.symmetric_difference(reference).count();
    report.check(
        "updates visible in the snapshot",
        reference.len() as u64,
        differing as u64,
    );
    let entries_ok = csr.num_entries() == 2 * reference.len();
    report.check(
        "entry count equals the serial replay",
        1,
        u64::from(!entries_ok),
    );

    let labels = connected_components(csr);
    let cc_ok = par_cc(csr) == labels;
    report.check("par_cc equals connected_components", 1, u64::from(!cc_ok));
    let bfs_wrong = sources
        .iter()
        .filter(|&&s| par_bfs(csr, s).dist != serial_bfs(csr, s).dist)
        .count();
    report.check(
        "par_bfs equals serial bfs",
        sources.len() as u64,
        bfs_wrong as u64,
    );
    labels
}

pub fn check(spec: &Spec, inp: &Inputs, state: &State, report: &mut Report) {
    let pairs = &inp.pairs[..SAMPLED_QUERIES.min(inp.pairs.len())];
    match state {
        State::Bulk((mgr, forest)) => {
            let reference = reference_edges(inp.construct.iter().chain(&inp.deletions));
            let labels = check_snapshot(&mgr.snapshot(), &reference, &inp.sources, report);
            let wrong = pairs
                .iter()
                .filter(|&&(u, v)| {
                    forest.connected(u, v) != (labels[u as usize] == labels[v as usize])
                })
                .count();
            report.check(
                "forest answers equal the labels",
                pairs.len() as u64,
                wrong as u64,
            );
        }
        State::Serve((engine, submitted)) => {
            let reference =
                reference_edges(inp.base(spec).iter().chain(submitted.iter().flatten()));
            let pin = engine.pin();
            let visible = pin.batches() == submitted.len() as u64;
            report.check("every submitted batch is published", 1, u64::from(!visible));
            let labels = check_snapshot(pin.csr(), &reference, &inp.sources, report);
            let served = pin.component_labels().map(|l| l.as_slice());
            let wrong = match served {
                Some(served) => served.iter().zip(&labels).filter(|(a, b)| a != b).count(),
                None => labels.len(),
            };
            report.check(
                "pinned labels equal connected_components",
                labels.len() as u64,
                wrong as u64,
            );
            let wrong = pairs
                .iter()
                .filter(|&&(u, v)| {
                    engine.same_component(u, v) != (labels[u as usize] == labels[v as usize])
                })
                .count();
            report.check(
                "same_component answers equal the labels",
                pairs.len() as u64,
                wrong as u64,
            );
            let rebuilt = engine.full_rebuild_count() != Some(0);
            report.check("no full connectivity rebuild", 1, u64::from(rebuilt));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_replay_follows_stream_order() {
        let e = |u, v| TimedEdge::new(u, v, 1);
        let stream = [
            Update::insert(e(0, 1)),
            Update::insert(e(2, 1)),
            Update::delete(e(1, 0)),
            Update::insert(e(3, 4)),
        ];
        let live = reference_edges(stream.iter());
        assert_eq!(live, HashSet::from([(1, 2), (3, 4)]));
    }

    #[test]
    fn a_snapshot_missing_an_edge_fails_the_check() {
        let edges = [TimedEdge::new(0, 1, 1), TimedEdge::new(1, 2, 1)];
        let csr = CsrGraph::from_edges_undirected(4, &edges);
        let mut good = Report::default();
        check_snapshot(&csr, &HashSet::from([(0, 1), (1, 2)]), &[0], &mut good);
        assert_eq!(good.failed, 0);
        assert!(good.attempted > 0);
        let mut bad = Report::default();
        check_snapshot(
            &csr,
            &HashSet::from([(0, 1), (1, 2), (2, 3)]),
            &[0],
            &mut bad,
        );
        assert!(bad.failed >= 2, "one missing edge and the entry count");
    }
}
