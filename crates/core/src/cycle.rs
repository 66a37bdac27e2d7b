//! The write protocol both engines run ([`Cycle`]): apply a stream and
//! absorb its changes into the attached index (one
//! [`crate::engine::apply_vpart_indexed`] call), mark its rows, step the
//! epoch, and freeze the result: a compacted CSR patched from the
//! previous one ([`Cycle::freeze`]), or, for the serving writer, the last
//! compacted CSR plus a delta of the rows touched since
//! ([`Cycle::publish`]), compacted later ([`Cycle::fold`]).

use crate::adjacency::{DynamicAdjacency, HalfUpdate};
use crate::csr::{version_row, CsrGraph, ReadSplit, RowDelta, RowSet};
use crate::engine::{apply_vpart_indexed, halves, IndexRoutes};
use crate::graph::DynGraph;
use snap_rmat::{Update, UpdateKind};
use std::sync::Arc;

/// A [`Cycle::publish`] builds a delta only while its rows hold at most
/// `1 / OVERLAY_SHARE` of the base's entries; past that it patches a new
/// base. The bound is not for the freeze itself: measured at scale 16 on
/// 2 vCPUs, a delta was cheaper to build than a patch at every share
/// tried (0.8 against 1.5 ms at 15 % of the entries, 1.9 against 2.8 ms
/// at 74 %; CHANGES.md). It is for what a delta costs later: every
/// retained version that holds one keeps those entries twice, readers
/// of it have no CSR fast path, and the fold copies them again. A
/// quarter keeps a full ring of deltas (4 by default) within about one
/// CSR of extra memory, and leaves a backlog's drain, which touches
/// most rows, on the single patch.
const OVERLAY_SHARE: usize = 4;

/// A frozen graph: a compacted CSR and, unless the version is compacted,
/// the delta of the rows changed since it.
pub(crate) type Frozen = (Arc<CsrGraph>, Option<Arc<RowDelta>>);

/// One engine's write side: the serving writer thread owns one, and
/// [`crate::manager::SnapshotManager`] holds one behind its lock. Either
/// way the cycle is the graph's only mutator, which is what makes a
/// patched freeze and a delta exact, and the attached index complete.
pub(crate) struct Cycle {
    /// Runs so far, changed or not.
    epoch: u64,
    /// Both endpoints of every update run since the last freeze (marked
    /// only while there is a base): the rows the next freeze re-reads.
    /// No other row changed since.
    touched: RowSet,
    /// The same since `base` was built: `touched` plus the rows `delta`
    /// holds, the rows the next delta holds or a patch re-reads.
    since_base: RowSet,
    /// Whether the graph changed since the last freeze: a key set, or a
    /// timestamp a keyed row overwrote.
    dirty: bool,
    /// Whether the cycle keeps `ops`: the serving writer's does, for
    /// [`Cycle::publish`]; one that only freezes keeps no copy of its
    /// streams.
    keeps_ops: bool,
    /// The half-updates of every update run since the last freeze, in
    /// run order (kept beside `touched`): what the next delta merges its
    /// keyed rows with ([`RowDelta::next`]). `None` when not kept: in a
    /// cycle that only freezes, before the first freeze, and, until the
    /// next freeze, once they would pass `1 / OVERLAY_SHARE` of the
    /// vertices: a delta holds at most that share of the entries, about
    /// as many rows at the mean degree, so more half-updates come from a
    /// backlog whose rows patch, and it pays neither the copy nor the
    /// memory for a merge that would not run.
    ops: Option<Vec<HalfUpdate>>,
    /// The last compacted CSR.
    base: Option<Arc<CsrGraph>>,
    /// The rows changed between `base` and the last freeze, when that
    /// freeze published a delta.
    delta: Option<Arc<RowDelta>>,
    /// Freezes that built something: a CSR, patched or full, or a delta.
    builds: usize,
    /// How the last freeze read its rows: none when it shared the last
    /// version.
    read: ReadSplit,
    /// A retired CSR nobody reads any more ([`Cycle::recycle`]): the
    /// next patch or fold writes into its arrays.
    spare: Option<CsrGraph>,
    /// The same for the next delta.
    spare_delta: Option<RowDelta>,
}

impl Cycle {
    /// Epoch 0 over `n` vertices, nothing frozen, for an engine that
    /// only [`Cycle::freeze`]s.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            epoch: 0,
            touched: RowSet::new(n),
            since_base: RowSet::new(n),
            dirty: false,
            keeps_ops: false,
            ops: None,
            base: None,
            delta: None,
            builds: 0,
            read: ReadSplit::default(),
            spare: None,
            spare_delta: None,
        }
    }

    /// [`Cycle::new`] for an engine that [`Cycle::publish`]es: its runs
    /// keep their half-updates for the next delta's merge.
    pub(crate) fn publishing(n: usize) -> Self {
        Self {
            keeps_ops: true,
            ..Self::new(n)
        }
    }

    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    pub(crate) fn builds(&self) -> usize {
        self.builds
    }

    /// True when the next [`Cycle::freeze`] shares the last CSR.
    pub(crate) fn is_clean(&self) -> bool {
        self.base.is_some() && self.delta.is_none() && !self.dirty
    }

    /// True when the last freeze published a delta, which
    /// [`Cycle::fold`] would compact.
    pub(crate) fn has_delta(&self) -> bool {
        self.delta.is_some()
    }

    /// Rows touched since the last freeze, when the graph changed since.
    #[cfg(test)]
    fn dirty_rows(&self) -> usize {
        if self.dirty {
            self.touched.count()
        } else {
            0
        }
    }

    /// How the last freeze read its rows: re-read from the live graph
    /// (every row of a patch or full build) or merged (a delta's keyed
    /// rows); nothing when it shared the last version.
    pub(crate) fn read(&self) -> ReadSplit {
        self.read
    }

    /// Applies `stream` on up to `workers` and absorbs its changes into
    /// `index`, settled ([`apply_vpart_indexed`]), marks its rows, and
    /// steps the epoch, which the caller publishes after (invariant 1).
    /// Returns how many updates changed the graph's key sets; a run that
    /// changed none still makes the next freeze build when an insert in
    /// it may have overwritten a timestamp.
    ///
    /// # Panics
    ///
    /// Before anything is applied, if an update names a vertex outside
    /// the graph.
    pub(crate) fn run<A: DynamicAdjacency>(
        &mut self,
        graph: &DynGraph<A>,
        index: IndexRoutes<'_>,
        stream: &[Update],
        workers: usize,
    ) -> usize {
        let changed = apply_vpart_indexed(graph, stream, workers, index);
        if self.base.is_some() {
            for u in stream {
                for v in [u.edge.u, u.edge.v] {
                    self.touched.insert(v);
                    self.since_base.insert(v);
                }
            }
            let directed = graph.is_directed();
            let room = graph.num_vertices() / OVERLAY_SHARE;
            if let Some(ops) = &mut self.ops {
                if ops.len() + 2 * stream.len() > room {
                    self.ops = None;
                } else {
                    for (i, u) in stream.iter().enumerate() {
                        let (there, back) = halves(i, u, directed);
                        ops.push(there);
                        ops.extend(back);
                    }
                }
            }
        }
        self.dirty = self.dirty || changed > 0 || self.rewrites_a_timestamp(graph, stream);
        self.epoch += 1;
        changed
    }

    /// True if `stream`, a run that changed no key set, holds an insert
    /// whose timestamp the last freeze does not hold for its edge: a
    /// keyed row overwrites a present key's timestamp and reports no
    /// change. Asked only while the graph is clean, so the last freeze
    /// is the graph before the run. False when nothing is frozen: the
    /// next freeze builds whole anyway.
    fn rewrites_a_timestamp<A: DynamicAdjacency>(
        &self,
        graph: &DynGraph<A>,
        stream: &[Update],
    ) -> bool {
        let Some(base) = &self.base else {
            return false;
        };
        let mut inserts = stream.iter().filter(|u| u.kind == UpdateKind::Insert);
        inserts.any(|u| {
            let (there, back) = halves(0, u, graph.is_directed());
            std::iter::once(there).chain(back).any(|h| {
                let (nbrs, ts) = version_row((base, self.delta.as_deref()), h.src);
                !nbrs.iter().zip(ts).any(|(&v, &t)| (v, t) == (h.nbr, h.ts))
            })
        })
    }

    /// Starts the record of the runs after a freeze: `touched` and `ops`
    /// empty.
    fn froze(&mut self) {
        self.builds += 1;
        self.dirty = false;
        self.touched.clear();
        self.ops = self.keeps_ops.then(|| {
            let mut ops = self.ops.take().unwrap_or_default();
            ops.clear();
            ops
        });
    }

    /// The compacted CSR of `graph` now: the base when nothing changed
    /// since it, that one patched with every row touched since
    /// ([`CsrGraph::patched`]), or a full build when there is none. The
    /// result is the new base.
    pub(crate) fn freeze<A: DynamicAdjacency>(&mut self, graph: &DynGraph<A>) -> Arc<CsrGraph> {
        let csr = match &self.base {
            Some(base) if self.is_clean() => {
                self.read = ReadSplit::default();
                return Arc::clone(base);
            }
            Some(base) => {
                CsrGraph::patched(base, graph.adjacency(), &self.since_base, self.spare.take())
            }
            None => graph.to_csr(),
        };
        let (reread_rows, reread_entries) = match &self.base {
            Some(_) => (self.since_base.iter()).fold((0, 0), |(rows, entries), u| {
                (rows + 1, entries + csr.out_degree(u))
            }),
            None => (csr.num_vertices(), csr.num_entries()),
        };
        self.read = ReadSplit {
            reread_rows,
            reread_entries,
            ..ReadSplit::default()
        };
        self.froze();
        self.since_base.clear();
        self.delta = None;
        Arc::clone(self.base.insert(Arc::new(csr)))
    }

    /// The serving freeze, O(rows touched since the base): the last
    /// version when nothing changed since it; else the base plus a delta
    /// of the rows touched since it, the ones touched since the last
    /// freeze merged with the runs' half-updates (keyed rows) or re-read,
    /// and the rest copied from the last delta ([`RowDelta::next`]).
    /// When that delta would hold more than
    /// `1 / OVERLAY_SHARE` of the base's entries (or there is no base),
    /// a [`Cycle::freeze`] instead, and no delta.
    pub(crate) fn publish<A: DynamicAdjacency>(&mut self, graph: &DynGraph<A>) -> Frozen {
        let Some(base) = self.base.clone() else {
            return (self.freeze(graph), None);
        };
        if !self.dirty {
            self.read = ReadSplit::default();
            return (base, self.delta.clone());
        }
        let next = RowDelta::next(
            (&base, self.delta.as_deref()),
            graph.adjacency(),
            &self.touched,
            &self.since_base,
            self.ops.as_deref_mut(),
            base.num_entries() / OVERLAY_SHARE,
            &mut self.spare_delta,
        );
        let Some(delta) = next else {
            return (self.freeze(graph), None);
        };
        self.read = delta.split();
        self.froze();
        (base, Some(Arc::clone(self.delta.insert(Arc::new(delta)))))
    }

    /// Compacts the last freeze's base and delta into a new base
    /// ([`CsrGraph::folded`], O(n + m), into the spare arrays) and
    /// returns it; `None` when there is no delta. The graph is not read:
    /// the rows touched since the last freeze stay marked for the next.
    pub(crate) fn fold(&mut self) -> Option<Arc<CsrGraph>> {
        let delta = self.delta.take()?;
        // panics: unreachable — a delta is only ever built over a base.
        let base = self.base.as_ref().expect("a delta has a base");
        let folded = Arc::new(CsrGraph::folded(base, &delta, self.spare.take()));
        self.since_base.clear();
        self.since_base.union_with(&self.touched);
        Some(Arc::clone(self.base.insert(folded)))
    }

    /// Hands back the graph of a version its owner retired: the arrays
    /// nobody else holds any more are what the next patch, fold or delta
    /// writes into instead of allocating (and faulting in) fresh ones.
    pub(crate) fn recycle(&mut self, (csr, delta): Frozen) {
        if let Ok(csr) = Arc::try_unwrap(csr) {
            self.spare = Some(csr);
        }
        if let Some(Ok(delta)) = delta.map(Arc::try_unwrap) {
            self.spare_delta = Some(delta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::CapacityHints;
    use crate::connectivity::ConnectivityIndex;
    use crate::dynarr::DynArr;
    use crate::hybrid::HybridAdj;
    use crate::treapadj::TreapAdj;
    use snap_rmat::TimedEdge;
    use snap_util::rng::XorShift64;

    fn ins(u: u32, v: u32) -> Update {
        ins_at(u, v, 1)
    }

    fn ins_at(u: u32, v: u32, ts: u32) -> Update {
        Update::insert(TimedEdge::new(u, v, ts))
    }

    fn del(u: u32, v: u32) -> Update {
        Update::delete(TimedEdge::new(u, v, 0))
    }

    #[test]
    fn epoch_steps_once_per_run_and_a_noop_run_keeps_the_freeze() {
        let g = DynGraph::<DynArr>::undirected(8, &CapacityHints::new(32));
        let conn = ConnectivityIndex::from_view(&g);
        let mut cycle = Cycle::new(8);
        assert_eq!(cycle.run(&g, Some(&conn), &[ins(0, 1), ins(1, 2)], 2), 2);
        let v1 = cycle.freeze(&g);
        assert!(cycle.is_clean());
        for noop in [&[del(5, 6)][..], &[], &[del(0, 2), del(3, 4)]] {
            assert_eq!(cycle.run(&g, Some(&conn), noop, 2), 0);
            assert!(Arc::ptr_eq(&v1, &cycle.freeze(&g)));
        }
        assert_eq!((cycle.epoch(), cycle.builds()), (4, 1));
        assert_eq!(conn.component_count(&g), 6, "0-1-2 and 5 isolates");
    }

    #[test]
    fn the_first_freeze_is_a_full_build_and_later_ones_patch_exactly() {
        let hints = CapacityHints::new(64).with_degree_thresh(4);
        let g = DynGraph::<HybridAdj>::undirected(16, &hints);
        let mut cycle = Cycle::new(16);
        // Nothing frozen yet: the runs mark no rows.
        cycle.run(&g, IndexRoutes::default(), &[ins(0, 1), ins(0, 2)], 1);
        assert_eq!(cycle.dirty_rows(), 0);
        assert_eq!(*cycle.freeze(&g), g.to_csr());
        let hub: Vec<Update> = (1..12).map(|v| ins(0, v)).collect();
        cycle.run(&g, IndexRoutes::default(), &hub, 2);
        cycle.run(&g, IndexRoutes::default(), &[del(0, 3)], 2);
        assert_eq!(cycle.dirty_rows(), 12, "the hub and its 11 neighbours");
        assert_eq!(*cycle.freeze(&g), g.to_csr());
        assert_eq!((cycle.dirty_rows(), cycle.builds()), (0, 2));
    }

    #[test]
    fn publish_builds_deltas_until_a_quarter_of_the_entries_then_patches() {
        let g = DynGraph::<HybridAdj>::undirected(64, &CapacityHints::new(256));
        let ring: Vec<Update> = (0..64).map(|v| ins(v, (v + 1) % 64)).collect();
        let mut cycle = Cycle::new(64);
        cycle.run(&g, IndexRoutes::default(), &ring, 2);
        let v0 = cycle.freeze(&g);
        assert_eq!(v0.num_entries(), 128);
        let publish = |cycle: &mut Cycle, stream: &[Update]| {
            cycle.run(&g, IndexRoutes::default(), stream, 2);
            let (base, delta) = cycle.publish(&g);
            let version = match &delta {
                Some(d) => CsrGraph::folded(&base, d, None),
                None => (*base).clone(),
            };
            assert_eq!(version, g.to_csr());
            (base, delta)
        };
        // A chord: two rows of 3 entries over the base.
        let (base, delta) = publish(&mut cycle, &[ins(0, 32)]);
        assert!(Arc::ptr_eq(&base, &v0));
        assert_eq!(delta.expect("a small change").num_entries(), 6);
        // The next delta keeps those rows (copied) beside its own.
        let (base, delta) = publish(&mut cycle, &[ins(8, 40)]);
        assert!(Arc::ptr_eq(&base, &v0));
        assert_eq!(delta.expect("still small").num_entries(), 12);
        // A no-op shares the last version.
        let (base, same) = publish(&mut cycle, &[del(1, 5)]);
        assert!(Arc::ptr_eq(&base, &v0));
        assert!(Arc::ptr_eq(
            &same.expect("a delta"),
            cycle.delta.as_ref().unwrap()
        ));
        // Past a quarter of the base's 128 entries: a patched base.
        let chords: Vec<Update> = (16..24).map(|v| ins(v, v + 24)).collect();
        let (base, delta) = publish(&mut cycle, &chords);
        assert!(delta.is_none() && !Arc::ptr_eq(&base, &v0));
        assert_eq!((cycle.builds(), cycle.is_clean()), (4, true));
        // A fold compacts the delta; the rows of a run after the last
        // freeze stay marked for the next one.
        publish(&mut cycle, &[del(0, 32)]);
        cycle.run(&g, IndexRoutes::default(), &[ins(2, 50)], 1);
        let folded = cycle.fold().expect("a delta to fold");
        assert!(cycle.fold().is_none());
        let (base, delta) = cycle.publish(&g);
        assert!(Arc::ptr_eq(&base, &folded));
        let delta = delta.expect("the run after the freeze");
        assert!(delta.holds(2) && delta.holds(50) && !delta.holds(0));
        assert_eq!(CsrGraph::folded(&base, &delta, None), g.to_csr());
    }

    #[test]
    fn a_one_update_run_is_checked_before_it_applies() {
        let g = DynGraph::<HybridAdj>::undirected(8, &CapacityHints::new(16));
        let mut cycle = Cycle::new(8);
        let bad = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cycle.run(&g, IndexRoutes::default(), &[ins(0, 99)], 1)
        }));
        let msg = bad.expect_err("an out-of-range vertex must be refused");
        assert_eq!(
            msg.downcast_ref::<String>().map(String::as_str),
            Some("update 0 names vertex 99, but the graph has 8 vertices")
        );
        assert_eq!((g.degree(0), cycle.epoch()), (0, 0));
    }

    #[test]
    fn a_run_that_only_overwrites_treap_timestamps_still_builds() {
        let hints = CapacityHints::new(64).with_degree_thresh(4);
        for publishing in [false, true] {
            let g = DynGraph::<HybridAdj>::undirected(64, &hints);
            // Vertices 0 and 1: adjacent treap hubs.
            let hubs: Vec<Update> = (2..8).flat_map(|v| [ins(0, v), ins(1, v)]).collect();
            let mut cycle = served(&g, &[&hubs[..], &[ins(0, 1)]].concat(), publishing);
            assert!(g.adjacency().is_treap(0) && g.adjacency().is_treap(1));
            let version = |cycle: &mut Cycle| match publishing {
                true => {
                    let (base, delta) = cycle.publish(&g);
                    delta.map_or_else(|| (*base).clone(), |d| CsrGraph::folded(&base, &d, None))
                }
                false => (*cycle.freeze(&g)).clone(),
            };
            // Both halves overwrite a present key: no key set changed,
            // but the next version must show the new timestamp.
            let overwrite = [ins_at(0, 1, 7)];
            assert_eq!(cycle.run(&g, IndexRoutes::default(), &overwrite, 1), 0);
            let v1 = version(&mut cycle);
            assert_eq!((v1.timestamps(0)[0], v1.timestamps(1)[0]), (7, 7));
            assert_eq!(v1, g.to_csr(), "publishing: {publishing}");
            // The same insert again rewrites nothing: the version stays.
            let builds = cycle.builds();
            cycle.run(&g, IndexRoutes::default(), &overwrite, 1);
            assert_eq!((version(&mut cycle), cycle.builds()), (v1, builds));
        }
    }

    /// A graph on `g`'s vertices `8..`, a ring with chords — enough
    /// entries that a delta of a few rows stays under a quarter of them —
    /// plus `setup`, run and frozen by a new cycle, publishing or not.
    fn served<A: DynamicAdjacency>(g: &DynGraph<A>, setup: &[Update], publishing: bool) -> Cycle {
        let n = g.num_vertices() as u32;
        let ring = |v: u32, step: u32| 8 + (v - 8 + step) % (n - 8);
        let mut stream: Vec<Update> = (8..n)
            .flat_map(|v| [ins(v, ring(v, 1)), ins(v, ring(v, 3))])
            .collect();
        stream.extend_from_slice(setup);
        let mut cycle = match publishing {
            true => Cycle::publishing(n as usize),
            false => Cycle::new(n as usize),
        };
        cycle.run(g, IndexRoutes::default(), &stream, 1);
        cycle.freeze(g);
        cycle
    }

    /// `v`'s edges to every vertex of `to`.
    fn star(v: u32, to: std::ops::Range<u32>) -> Vec<Update> {
        to.map(|w| ins(v, w)).collect()
    }

    /// Runs each of `runs`, then publishes: the version, materialized,
    /// must be the fresh build. Returns how the publish read its rows.
    fn publish_runs<A: DynamicAdjacency>(
        g: &DynGraph<A>,
        cycle: &mut Cycle,
        runs: &[&[Update]],
    ) -> ReadSplit {
        for run in runs {
            cycle.run(g, IndexRoutes::default(), run, 1);
        }
        let (base, delta) = cycle.publish(g);
        let version = delta.map_or_else(|| (*base).clone(), |d| CsrGraph::folded(&base, &d, None));
        assert_eq!(version, g.to_csr());
        cycle.read()
    }

    fn hybrid(n: usize, directed: bool) -> DynGraph<HybridAdj> {
        let hints = CapacityHints::new(64).with_degree_thresh(8);
        match directed {
            true => DynGraph::directed(n, &hints),
            false => DynGraph::undirected(n, &hints),
        }
    }

    #[test]
    fn a_hub_that_stays_a_treap_is_merged_through_overwrites_and_deletes() {
        let g = hybrid(256, false);
        let mut cycle = served(&g, &star(0, 1..13), true);
        let rounds: [&[Update]; 4] = [
            // Timestamp overwrites of present keys; a delete of a present
            // key and one of an absent key.
            &[ins_at(0, 3, 50), ins_at(0, 5, 51), del(0, 7), del(0, 40)],
            // Insert-then-delete of a new key, delete-then-insert of a
            // present one.
            &[ins_at(0, 20, 60), del(0, 20), del(0, 4), ins_at(0, 4, 61)],
            // A new key, and a present key overwritten twice.
            &[ins_at(0, 30, 62), ins_at(0, 3, 63), ins_at(0, 3, 64)],
            // One update: the one-update run.
            &[ins_at(0, 5, 70)],
        ];
        for round in rounds {
            let read = publish_runs(&g, &mut cycle, &[round]);
            assert!(g.adjacency().is_treap(0));
            assert_eq!((read.merged_rows, read.merged_entries), (1, g.degree(0)));
        }
    }

    #[test]
    fn a_row_promoted_since_the_last_freeze_is_merged_only_from_an_ascending_row() {
        let g = hybrid(256, false);
        // Row 2 is [0, 60, 9], out of order; row 3 is [0].
        let setup = [star(0, 1..4), vec![ins(2, 60), ins(2, 9)]].concat();
        let mut cycle = served(&g, &setup, true);
        let read = publish_runs(&g, &mut cycle, &[&star(2, 20..26)]);
        assert!(g.adjacency().is_treap(2));
        assert!(cycle.has_delta());
        assert_eq!(read.merged_rows, 0, "row 2 was not ascending: re-read");
        let read = publish_runs(&g, &mut cycle, &[&star(3, 30..37)]);
        assert!(g.adjacency().is_treap(3));
        assert_eq!(read.merged_rows, 1, "row 3 was ascending: merged");
    }

    #[test]
    fn a_row_demoted_and_promoted_again_in_one_window_is_merged_exactly() {
        let g = hybrid(256, false);
        let mut cycle = served(&g, &star(0, 1..13), true);
        // Down to one key: the hub demotes to an array.
        let thin: Vec<Update> = (1..12).map(|v| del(0, v)).collect();
        // Array pushes, key 41 twice, up to the threshold: it promotes
        // (the last 41 wins), then a treap insert and an overwrite.
        let regrow = [
            star(0, 40..41),
            vec![ins_at(0, 41, 5), ins_at(0, 41, 90)],
            star(0, 42..47),
            vec![ins_at(0, 12, 91)],
        ]
        .concat();
        cycle.run(&g, IndexRoutes::default(), &thin, 1);
        assert!(!g.adjacency().is_treap(0));
        let read = publish_runs(&g, &mut cycle, &[&regrow]);
        assert!(g.adjacency().is_treap(0));
        assert_eq!(read.merged_rows, 1);
    }

    #[test]
    fn a_merged_row_comes_from_the_last_delta_or_else_the_base() {
        let g = hybrid(256, false);
        let hubs = [star(0, 2..14), star(1, 2..14)].concat();
        let mut cycle = served(&g, &hubs, true);
        // Hub 0 from the base.
        let read = publish_runs(&g, &mut cycle, &[&[ins_at(0, 3, 50)]]);
        assert_eq!(read.merged_rows, 1);
        // Hub 0 from the last delta (key 3 kept its 50), hub 1 from the
        // base.
        let read = publish_runs(&g, &mut cycle, &[&[ins_at(0, 5, 51), ins_at(1, 3, 52)]]);
        assert_eq!(read.merged_rows, 2);
        // After a fold both come from the new base.
        cycle.fold().expect("a delta to fold");
        let read = publish_runs(&g, &mut cycle, &[&[ins_at(0, 6, 53), ins_at(1, 5, 54)]]);
        assert_eq!(read.merged_rows, 2);
    }

    #[test]
    fn a_directed_hub_and_a_self_loop_on_a_hub_are_merged() {
        for directed in [true, false] {
            let g = hybrid(256, directed);
            let mut cycle = served(&g, &star(0, 1..13), true);
            let rounds: [&[Update]; 4] = [
                &[ins_at(0, 3, 50), del(0, 4), ins_at(0, 0, 51)],
                &[ins_at(0, 0, 52), ins_at(0, 3, 53)],
                &[del(0, 0), ins_at(0, 0, 54), del(0, 0)],
                &[ins_at(0, 0, 55)],
            ];
            for round in rounds {
                let read = publish_runs(&g, &mut cycle, &[round]);
                assert!(g.adjacency().is_treap(0));
                assert_eq!(read.merged_rows, 1, "directed: {directed}");
            }
        }
    }

    /// Random runs on hubs, published one to four at a time and folded
    /// now and then, through `g`: every version must be the fresh build.
    /// Returns the rows merged.
    fn random_windows<A: DynamicAdjacency>(g: &DynGraph<A>, seed: u64) -> usize {
        let n = g.num_vertices() as u64;
        let mut cycle = served(g, &[star(0, 1..12), star(1, 2..10)].concat(), true);
        let mut rng = XorShift64::new(seed);
        let mut merged = 0;
        for window in 0..40 {
            let runs: Vec<Vec<Update>> = (0..rng.next_bounded(4) + 1)
                .map(|_| {
                    (0..rng.next_bounded(5) + 1)
                        .map(|_| {
                            let u = rng.next_bounded(3) as u32;
                            let near = rng.next_bool(0.8);
                            let v = rng.next_bounded(if near { 16 } else { n }) as u32;
                            match rng.next_bool(0.6) {
                                true => ins_at(u, v, rng.next_bounded(4) as u32),
                                false => del(u, v),
                            }
                        })
                        .collect()
                })
                .collect();
            let runs: Vec<&[Update]> = runs.iter().map(Vec::as_slice).collect();
            merged += publish_runs(g, &mut cycle, &runs).merged_rows;
            if window % 4 == 3 {
                cycle.fold();
            }
        }
        merged
    }

    #[test]
    fn random_windows_of_keyed_and_array_rows_publish_exactly() {
        for seed in 1..=4 {
            for directed in [false, true] {
                let g = hybrid(256, directed);
                assert!(random_windows(&g, seed) > 0, "seed {seed}");
            }
            let g = DynGraph::<TreapAdj>::undirected(256, &CapacityHints::new(64));
            assert!(random_windows(&g, seed) > 0, "seed {seed}");
        }
    }
}
