//! The write protocol both engines run ([`Cycle`]): apply a stream,
//! absorb it into the attached indexes and settle them, step their
//! epochs, and freeze the CSR of the result by patching the previous
//! freeze.

use crate::adjacency::DynamicAdjacency;
use crate::csr::{CsrGraph, RowSet};
use crate::engine::{apply_ranged, check_endpoints, RANGE_BUDGET};
use crate::graph::DynGraph;
use crate::indexes::IndexRoutes;
use snap_rmat::Update;
use snap_util::timer::Timer;
use std::sync::{Arc, OnceLock};

/// One engine's write side: the serving writer thread owns one, and
/// [`crate::manager::SnapshotManager`] holds one behind its lock. Either
/// way the cycle is the graph's only mutator, which is what makes a
/// patched freeze exact and the epoch steps ordered.
pub(crate) struct Cycle {
    /// Runs so far, changed or not.
    epoch: u64,
    /// Both endpoints of every update run since the last freeze (marked
    /// only while there is a freeze to patch): the rows the next freeze
    /// re-reads. No other row changed since.
    touched: RowSet,
    /// Whether the graph changed since the last freeze.
    dirty: bool,
    frozen: Option<Arc<CsrGraph>>,
    /// Freezes that built a CSR, patched or full.
    builds: usize,
    /// A retired freeze nobody reads any more ([`Cycle::recycle`]): the
    /// next patch writes into its arrays.
    spare: Option<CsrGraph>,
}

impl Cycle {
    /// Epoch 0 over `n` vertices, nothing frozen.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            epoch: 0,
            touched: RowSet::new(n),
            dirty: false,
            frozen: None,
            builds: 0,
            spare: None,
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
        self.frozen.is_some() && !self.dirty
    }

    /// Rows the next [`Cycle::freeze`] re-reads into its patch; 0 when it
    /// shares the last CSR.
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
        if self.frozen.is_some() {
            for u in stream {
                self.touched.insert(u.edge.u);
                self.touched.insert(u.edge.v);
            }
        }
        self.dirty |= changed > 0;
        self.epoch += 1;
        routes.sync_change(self.epoch);
        changed
    }

    /// The CSR of `graph` now: the last freeze when nothing changed
    /// since, that one patched with the touched rows
    /// ([`CsrGraph::patched`]), or a full build when there is none.
    pub(crate) fn freeze<A: DynamicAdjacency>(&mut self, graph: &DynGraph<A>) -> Arc<CsrGraph> {
        let csr = match &self.frozen {
            Some(prev) if !self.dirty => return Arc::clone(prev),
            Some(prev) => {
                CsrGraph::patched(prev, graph.adjacency(), &self.touched, self.spare.take())
            }
            None => graph.to_csr(),
        };
        self.builds += 1;
        self.dirty = false;
        self.touched.clear();
        Arc::clone(self.frozen.insert(Arc::new(csr)))
    }

    /// Hands back a freeze its owner retired: when nobody else holds it,
    /// the next patch reuses its arrays instead of allocating (and
    /// faulting in) fresh ones.
    pub(crate) fn recycle(&mut self, csr: Arc<CsrGraph>) {
        if let Ok(csr) = Arc::try_unwrap(csr) {
            self.spare = Some(csr);
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
