//! Structural-update streams: the workloads of Figures 1–6.
//!
//! A stream is a sequence of [`Update`]s (edge insertions / deletions)
//! derived from an R-MAT edge list. The paper evaluates:
//! - *construction*: the whole edge list as insertions (Figures 1–4),
//! - *deletions*: k random existing edges deleted after construction
//!   (Figure 5),
//! - *mixed*: a random interleaving with a given insert fraction
//!   (Figure 6: 75% insertions / 25% deletions),
//! - *shuffled* streams (de-correlating contiguous updates to one vertex,
//!   the paper's load-balancing remedy for Dyn-arr), and
//! - *semi-sorted* streams (batched processing; the sort itself is the
//!   lower bound measured in Figure 3).

use crate::TimedEdge;
use snap_util::rng::XorShift64;
use snap_util::sort::semi_sort_by_key;

/// The kind of structural update.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UpdateKind {
    Insert,
    Delete,
}

/// One structural update to the graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Update {
    pub kind: UpdateKind,
    pub edge: TimedEdge,
}

impl Update {
    pub fn insert(edge: TimedEdge) -> Self {
        Self {
            kind: UpdateKind::Insert,
            edge,
        }
    }

    pub fn delete(edge: TimedEdge) -> Self {
        Self {
            kind: UpdateKind::Delete,
            edge,
        }
    }
}

/// Builds update streams from a base edge list. The construction and
/// deletion streams are pure functions of `(edges, seed)`; the mixed
/// stream is a *generator* — its insert cursor and random state carry
/// across [`StreamBuilder::mixed`] calls, so consecutive batches keep
/// moving through the edge list instead of replaying its head.
pub struct StreamBuilder<'a> {
    edges: &'a [TimedEdge],
    seed: u64,
    /// Position in `edges` of the next edge `mixed` inserts (cyclic).
    next_insert: usize,
    mixed_rng: XorShift64,
}

impl<'a> StreamBuilder<'a> {
    pub fn new(edges: &'a [TimedEdge], seed: u64) -> Self {
        Self {
            edges,
            seed,
            next_insert: 0,
            mixed_rng: XorShift64::new(seed ^ 0x313D),
        }
    }

    /// Starts the mixed stream's insert cursor at `cursor` — for a graph
    /// that already holds `edges[..cursor]`, so that the stream's
    /// inserts are edges the graph does not have yet.
    pub fn inserting_from(mut self, cursor: usize) -> Self {
        self.next_insert = cursor;
        self
    }

    /// The whole edge list as insertions, in generation order.
    pub fn construction(&self) -> Vec<Update> {
        self.edges.iter().copied().map(Update::insert).collect()
    }

    /// The whole edge list as insertions, randomly shuffled — the paper's
    /// fix for hot-vertex contention in streaming insertion workloads.
    pub fn construction_shuffled(&self) -> Vec<Update> {
        let mut v = self.construction();
        XorShift64::new(self.seed ^ 0x5AFE).shuffle(&mut v);
        v
    }

    /// `count` deletions of randomly chosen existing edges (sampled with
    /// replacement, as the paper's "20 million random deletions").
    pub fn deletions(&self, count: usize) -> Vec<Update> {
        assert!(
            !self.edges.is_empty(),
            "cannot delete from an empty edge list"
        );
        let mut rng = XorShift64::new(self.seed ^ 0xDE1E7E);
        (0..count)
            .map(|_| {
                let i = rng.next_bounded(self.edges.len() as u64) as usize;
                Update::delete(self.edges[i])
            })
            .collect()
    }

    /// The next `count` updates of the mixed stream with the given
    /// insert fraction. Inserts take the edge under the insert cursor and
    /// advance it (cyclically), so successive calls insert successive
    /// edges; deletes target uniformly random edges of the list. Figure 6
    /// uses `insert_fraction = 0.75`.
    pub fn mixed(&mut self, count: usize, insert_fraction: f64) -> Vec<Update> {
        assert!((0.0..=1.0).contains(&insert_fraction));
        assert!(!self.edges.is_empty());
        let m = self.edges.len();
        (0..count)
            .map(|_| {
                if self.mixed_rng.next_bool(insert_fraction) {
                    let e = self.edges[self.next_insert % m];
                    self.next_insert += 1;
                    Update::insert(e)
                } else {
                    let i = self.mixed_rng.next_bounded(m as u64) as usize;
                    Update::delete(self.edges[i])
                }
            })
            .collect()
    }

    /// Semi-sorts a stream in place by source vertex id (batched
    /// processing). `scale` bounds the key width: vertex ids < 2^scale.
    pub fn semi_sort(stream: &mut Vec<Update>, scale: u32) {
        semi_sort_by_key(stream, scale, |u| u.edge.u);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{Rmat, RmatParams};

    fn base() -> Vec<TimedEdge> {
        Rmat::new(RmatParams::paper(8, 8), 11).edges()
    }

    #[test]
    fn construction_preserves_order_and_count() {
        let edges = base();
        let s = StreamBuilder::new(&edges, 1).construction();
        assert_eq!(s.len(), edges.len());
        assert!(s.iter().all(|u| u.kind == UpdateKind::Insert));
        assert_eq!(s[0].edge, edges[0]);
        assert_eq!(s[s.len() - 1].edge, edges[edges.len() - 1]);
    }

    #[test]
    fn shuffled_is_permutation_of_construction() {
        let edges = base();
        let b = StreamBuilder::new(&edges, 1);
        let mut plain: Vec<_> = b.construction().iter().map(|u| u.edge).collect();
        let mut shuf: Vec<_> = b.construction_shuffled().iter().map(|u| u.edge).collect();
        assert_ne!(plain, shuf, "shuffle should change order");
        plain.sort_unstable_by_key(|e| (e.u, e.v, e.timestamp));
        shuf.sort_unstable_by_key(|e| (e.u, e.v, e.timestamp));
        assert_eq!(plain, shuf);
    }

    #[test]
    fn deletions_reference_existing_edges() {
        let edges = base();
        let b = StreamBuilder::new(&edges, 2);
        let dels = b.deletions(500);
        assert_eq!(dels.len(), 500);
        let set: std::collections::HashSet<_> = edges.iter().collect();
        for d in &dels {
            assert_eq!(d.kind, UpdateKind::Delete);
            assert!(set.contains(&d.edge), "deletion of a non-existent edge");
        }
    }

    #[test]
    fn mixed_fraction_is_respected() {
        let edges = base();
        let s = StreamBuilder::new(&edges, 3).mixed(20_000, 0.75);
        let ins = s.iter().filter(|u| u.kind == UpdateKind::Insert).count();
        let frac = ins as f64 / s.len() as f64;
        assert!(
            (frac - 0.75).abs() < 0.02,
            "insert fraction {frac} too far from 0.75"
        );
    }

    #[test]
    fn consecutive_mixed_batches_share_no_inserted_edge() {
        // A duplicate-free list, so "the same edge" is unambiguous.
        let edges: Vec<TimedEdge> = (0..4096u32).map(|i| TimedEdge::new(i, i + 1, 1)).collect();
        let mut b = StreamBuilder::new(&edges, 3).inserting_from(1024);
        let mut inserted = std::collections::HashSet::new();
        let mut deleted_patterns = std::collections::HashSet::new();
        for batch in 0..16 {
            let s = b.mixed(64, 0.7);
            for u in s.iter().filter(|u| u.kind == UpdateKind::Insert) {
                assert!(u.edge.u >= 1024, "inserts start at the cursor");
                assert!(
                    inserted.insert(u.edge),
                    "batch {batch} re-inserts {:?}",
                    u.edge
                );
            }
            let dels: Vec<u32> = s
                .iter()
                .filter(|u| u.kind == UpdateKind::Delete)
                .map(|u| u.edge.u)
                .collect();
            assert!(
                deleted_patterns.insert(dels),
                "batch {batch} repeats a batch"
            );
        }
        // One long call and many short ones are the same stream.
        let mut whole = StreamBuilder::new(&edges, 3).inserting_from(1024);
        let mut parts = StreamBuilder::new(&edges, 3).inserting_from(1024);
        let chunks: Vec<Update> = (0..4).flat_map(|_| parts.mixed(50, 0.7)).collect();
        assert_eq!(whole.mixed(200, 0.7), chunks);
    }

    #[test]
    fn mixed_extremes() {
        let edges = base();
        let mut b = StreamBuilder::new(&edges, 4);
        assert!(b
            .mixed(100, 1.0)
            .iter()
            .all(|u| u.kind == UpdateKind::Insert));
        assert!(b
            .mixed(100, 0.0)
            .iter()
            .all(|u| u.kind == UpdateKind::Delete));
    }

    #[test]
    fn semi_sort_groups_by_source() {
        let edges = base();
        let mut s = StreamBuilder::new(&edges, 5).construction_shuffled();
        StreamBuilder::semi_sort(&mut s, 8);
        assert!(s.windows(2).all(|w| w[0].edge.u <= w[1].edge.u));
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let edges = base();
        let a = StreamBuilder::new(&edges, 9).mixed(1000, 0.5);
        let b = StreamBuilder::new(&edges, 9).mixed(1000, 0.5);
        let c = StreamBuilder::new(&edges, 10).mixed(1000, 0.5);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
