//! The write protocol both engines run ([`Cycle`]): apply a stream,
//! absorb it into the attached indexes and settle them, step their
//! epochs, and freeze the result: a compacted CSR patched from the
//! previous one ([`Cycle::freeze`]), or, for the serving writer, the last
//! compacted CSR plus a delta of the rows touched since
//! ([`Cycle::publish`]), compacted later ([`Cycle::fold`]).

use crate::adjacency::DynamicAdjacency;
use crate::csr::{CsrGraph, RowDelta, RowSet};
use crate::engine::{apply_ranged, check_endpoints, RANGE_BUDGET};
use crate::graph::DynGraph;
use crate::indexes::IndexRoutes;
use snap_rmat::Update;
use snap_util::timer::Timer;
use std::sync::{Arc, OnceLock};

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
/// patched freeze and a delta exact and the epoch steps ordered.
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
    /// Whether the graph changed since the last freeze.
    dirty: bool,
    /// The last compacted CSR.
    base: Option<Arc<CsrGraph>>,
    /// The rows changed between `base` and the last freeze, when that
    /// freeze published a delta.
    delta: Option<Arc<RowDelta>>,
    /// Freezes that built something: a CSR, patched or full, or a delta.
    builds: usize,
    /// A retired CSR nobody reads any more ([`Cycle::recycle`]): the
    /// next patch or fold writes into its arrays.
    spare: Option<CsrGraph>,
    /// The same for the next delta.
    spare_delta: Option<RowDelta>,
}

impl Cycle {
    /// Epoch 0 over `n` vertices, nothing frozen.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            epoch: 0,
            touched: RowSet::new(n),
            since_base: RowSet::new(n),
            dirty: false,
            base: None,
            delta: None,
            builds: 0,
            spare: None,
            spare_delta: None,
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

    /// Rows the next [`Cycle::publish`] re-reads from the live graph when
    /// it builds a delta; 0 when it shares the last version.
    pub(crate) fn dirty_rows(&self) -> usize {
        if self.dirty {
            self.touched.count()
        } else {
            0
        }
    }

    /// Applies `stream` (the applier of
    /// [`crate::engine::apply_vpart_indexed`] on up to `workers`; one
    /// update through [`DynGraph::apply`], O(degree) where the ranged cut
    /// is O(n)), absorbs its changes into `routes` in stream order and
    /// settles them, in one write-lock hold per index
    /// ([`IndexRoutes::absorb`]), marks its rows, and steps
    /// every index in `routes` to the next epoch, which the caller
    /// publishes after (invariant 6). Returns how many updates changed
    /// the graph.
    ///
    /// # Panics
    ///
    /// Before anything is applied, if an update names a vertex outside
    /// the graph.
    pub(crate) fn run<A: DynamicAdjacency>(
        &mut self,
        graph: &DynGraph<A>,
        routes: IndexRoutes<'_>,
        stream: &[Update],
        workers: usize,
    ) -> usize {
        let absorb_ns = absorb_ns();
        let changed = match stream {
            [upd] => {
                check_endpoints(0, upd, graph.num_vertices());
                let changed = graph.apply(upd);
                if changed {
                    let _t = Timer::scope(absorb_ns);
                    routes.absorb(graph, [upd]);
                }
                usize::from(changed)
            }
            _ => {
                let changed = apply_ranged(graph, stream, workers, RANGE_BUDGET);
                let _t = Timer::scope(absorb_ns);
                routes.absorb(graph, changed.iter().map(|i| &stream[i as usize]));
                changed.count()
            }
        };
        if self.base.is_some() {
            for u in stream {
                for v in [u.edge.u, u.edge.v] {
                    self.touched.insert(v);
                    self.since_base.insert(v);
                }
            }
        }
        self.dirty |= changed > 0;
        self.epoch += 1;
        routes.sync_change(self.epoch);
        changed
    }

    /// The compacted CSR of `graph` now: the base when nothing changed
    /// since it, that one patched with every row touched since
    /// ([`CsrGraph::patched`]), or a full build when there is none. The
    /// result is the new base.
    pub(crate) fn freeze<A: DynamicAdjacency>(&mut self, graph: &DynGraph<A>) -> Arc<CsrGraph> {
        let csr = match &self.base {
            Some(base) if self.is_clean() => return Arc::clone(base),
            Some(base) => {
                CsrGraph::patched(base, graph.adjacency(), &self.since_base, self.spare.take())
            }
            None => graph.to_csr(),
        };
        self.builds += 1;
        self.dirty = false;
        self.touched.clear();
        self.since_base.clear();
        self.delta = None;
        Arc::clone(self.base.insert(Arc::new(csr)))
    }

    /// The serving freeze, O(rows touched since the base): the last
    /// version when nothing changed since it; else the base plus a delta
    /// of the rows touched since it, the ones touched since the last
    /// freeze re-read and the rest copied from the last delta
    /// ([`RowDelta::next`]). When that delta would hold more than
    /// `1 / OVERLAY_SHARE` of the base's entries (or there is no base),
    /// a [`Cycle::freeze`] instead, and no delta.
    pub(crate) fn publish<A: DynamicAdjacency>(&mut self, graph: &DynGraph<A>) -> Frozen {
        let Some(base) = self.base.clone() else {
            return (self.freeze(graph), None);
        };
        if !self.dirty {
            return (base, self.delta.clone());
        }
        let next = RowDelta::next(
            self.delta.as_deref(),
            graph.adjacency(),
            &self.touched,
            &self.since_base,
            base.num_entries() / OVERLAY_SHARE,
            &mut self.spare_delta,
        );
        let Some(delta) = next else {
            return (self.freeze(graph), None);
        };
        self.builds += 1;
        self.dirty = false;
        self.touched.clear();
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

/// Per-run time of [`IndexRoutes::absorb`], shared by every cycle in the
/// process (a ZST no-op without the `obs` feature): the index half of a
/// run, beside the applier's own timers in [`crate::engine`].
fn absorb_ns() -> &'static snap_obs::Histogram {
    static H: OnceLock<snap_obs::Histogram> = OnceLock::new();
    H.get_or_init(|| {
        snap_obs::MetricsRegistry::global().histogram(
            "snap_cycle_absorb_ns",
            "Per absorb of a cycle run: noting its changes into the attached indexes and settling them (ns)",
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::CapacityHints;
    use crate::dynarr::DynArr;
    use crate::hybrid::HybridAdj;
    use crate::indexes::IndexFamily;
    use snap_rmat::TimedEdge;

    fn ins(u: u32, v: u32) -> Update {
        Update::insert(TimedEdge::new(u, v, 1))
    }

    fn del(u: u32, v: u32) -> Update {
        Update::delete(TimedEdge::new(u, v, 0))
    }

    #[test]
    fn epoch_steps_once_per_run_and_a_noop_run_keeps_the_freeze() {
        let g = DynGraph::<DynArr>::undirected(8, &CapacityHints::new(32));
        let family = IndexFamily::default();
        let conn = family.attach_connectivity(&g, 0);
        let mut cycle = Cycle::new(8);
        assert_eq!(
            cycle.run(&g, family.routes(), &[ins(0, 1), ins(1, 2)], 2),
            2
        );
        let v1 = cycle.freeze(&g);
        assert!(cycle.is_clean());
        for noop in [&[del(5, 6)][..], &[], &[del(0, 2), del(3, 4)]] {
            assert_eq!(cycle.run(&g, family.routes(), noop, 2), 0);
            assert!(Arc::ptr_eq(&v1, &cycle.freeze(&g)));
        }
        assert_eq!((cycle.epoch(), cycle.builds()), (4, 1));
        assert_eq!(conn.synced_epoch(), 4, "stepped every run");
        assert_eq!(conn.full_rebuild_count(), 0);
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
}
