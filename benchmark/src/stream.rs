//! The benchmark's own update-stream generator.
//!
//! `snap::rmat::StreamBuilder::mixed` restarts its insert cursor at 0 on
//! every call, so repeated batches re-insert the same edges and most
//! "updates" change nothing. Here the cursor persists for the life of the
//! generator: every insert is an edge never inserted before, every delete
//! removes a uniformly drawn, still live edge of the bulk-loaded part, so
//! every update changes the graph and no operation fails.

use crate::trace::Tracer;
use snap::prelude::{Rmat, RmatParams, TimedEdge, Update};
use snap::util::XorShift64;
use std::collections::HashSet;

/// An undirected edge's identity: its endpoints, smaller first.
pub fn edge_key(e: &TimedEdge) -> (u32, u32) {
    (e.u.min(e.v), e.u.max(e.v))
}

/// `count` distinct undirected non-loop R-MAT edges (paper parameters,
/// edge factor 8), shuffled. R-MAT repeats about a tenth of its draws, so
/// rounds are generated until `count` distinct edges exist; the list is
/// shuffled so the cursor order carries no generation-order locality.
pub fn unique_edges(scale: u32, count: usize, seed: u64, tr: &mut Tracer) -> Vec<TimedEdge> {
    let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(count * 2);
    let mut out = Vec::with_capacity(count);
    for round in 0u64.. {
        let (raw, _) = tr.span("rmat.generate", 0, |_| {
            Rmat::new(RmatParams::paper(scale, 8), seed ^ (round << 40)).edges()
        });
        tr.span("rmat.stream_build", 0, |_| {
            for e in raw {
                if out.len() < count && e.u != e.v && seen.insert(edge_key(&e)) {
                    out.push(e);
                }
            }
        });
        if out.len() == count {
            break;
        }
    }
    tr.span("rmat.stream_build", 0, |_| {
        XorShift64::new(seed ^ 0x5AFE).shuffle(&mut out)
    });
    out
}

/// Cuts updates out of an edge pool with an insert cursor that never
/// restarts. Deletes draw without replacement from the edges
/// [`StreamGen::inserts`] handed out (the bulk-loaded graph); edges a
/// mixed batch inserts are never deleted.
#[derive(Clone)]
pub struct StreamGen<'a> {
    pool: &'a [TimedEdge],
    cursor: usize,
    live: Vec<u32>,
    rng: XorShift64,
}

impl<'a> StreamGen<'a> {
    pub fn new(pool: &'a [TimedEdge], seed: u64) -> Self {
        Self {
            pool,
            cursor: 0,
            live: Vec::new(),
            rng: XorShift64::new(seed ^ 0x57EA),
        }
    }

    fn insert(&mut self) -> Update {
        assert!(
            self.cursor < self.pool.len(),
            "edge pool exhausted: workload sizes exceed the generated pool"
        );
        self.cursor += 1;
        Update::insert(self.pool[self.cursor - 1])
    }

    fn delete(&mut self) -> Update {
        assert!(!self.live.is_empty(), "no live edge to delete");
        let i = self.rng.next_bounded(self.live.len() as u64) as usize;
        Update::delete(self.pool[self.live.swap_remove(i) as usize])
    }

    /// The next `count` fresh edges as insertions; deletes may draw them.
    pub fn inserts(&mut self, count: usize) -> Vec<Update> {
        self.live
            .extend(self.cursor as u32..(self.cursor + count) as u32);
        (0..count).map(|_| self.insert()).collect()
    }

    /// `count` deletions of distinct live bulk-loaded edges, uniformly drawn.
    pub fn deletes(&mut self, count: usize) -> Vec<Update> {
        (0..count).map(|_| self.delete()).collect()
    }

    /// One batch of `len` updates holding exactly `round(len * insert_fraction)`
    /// insertions, randomly interleaved with deletions (figure 6's mix is
    /// 0.75). The insert count is exact so every batch is the same work.
    pub fn mixed(&mut self, len: usize, insert_fraction: f64) -> Vec<Update> {
        let inserts = (len as f64 * insert_fraction).round() as usize;
        let mut is_insert: Vec<bool> = (0..len).map(|i| i < inserts).collect();
        self.rng.shuffle(&mut is_insert);
        is_insert
            .into_iter()
            .map(|ins| if ins { self.insert() } else { self.delete() })
            .collect()
    }

    /// `batches` consecutive [`StreamGen::mixed`] batches.
    pub fn mixed_batches(
        &mut self,
        batches: usize,
        len: usize,
        insert_fraction: f64,
    ) -> Vec<Vec<Update>> {
        (0..batches)
            .map(|_| self.mixed(len, insert_fraction))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap::prelude::{CapacityHints, DynGraph, HybridAdj, UpdateKind};

    fn pool(seed: u64) -> Vec<TimedEdge> {
        unique_edges(10, 8 << 10, seed, &mut Tracer::new(false))
    }

    #[test]
    fn pool_edges_are_distinct_and_loop_free() {
        let p = pool(42);
        assert_eq!(p.len(), 8 << 10);
        let keys: HashSet<_> = p.iter().map(edge_key).collect();
        assert_eq!(keys.len(), p.len());
        assert!(p.iter().all(|e| e.u != e.v));
    }

    #[test]
    fn no_edge_is_inserted_twice_within_a_run() {
        let p = pool(42);
        let mut gen = StreamGen::new(&p, 42);
        let mut stream = gen.inserts(4096);
        for batch in gen.mixed_batches(12, 256, 0.75) {
            stream.extend(batch);
        }
        stream.extend(gen.inserts(512));
        let mut inserted = HashSet::new();
        for u in stream.iter().filter(|u| u.kind == UpdateKind::Insert) {
            assert!(inserted.insert(edge_key(&u.edge)), "edge inserted twice");
        }
        assert_eq!(inserted.len(), 4096 + 12 * 192 + 512);
    }

    #[test]
    fn same_seed_gives_the_identical_stream() {
        let stream = |seed| {
            let p = pool(seed);
            let mut gen = StreamGen::new(&p, seed);
            let mut s = gen.inserts(1000);
            s.extend(gen.mixed(256, 0.75));
            s.extend(gen.deletes(100));
            s
        };
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
    }

    #[test]
    fn mixed_batches_hold_the_exact_insert_count() {
        let p = pool(3);
        let mut gen = StreamGen::new(&p, 3);
        gen.inserts(2048);
        for batch in gen.mixed_batches(8, 256, 0.75) {
            let ins = batch
                .iter()
                .filter(|u| u.kind == UpdateKind::Insert)
                .count();
            assert_eq!((batch.len(), ins), (256, 192));
        }
    }

    /// `engine.changed_ratio` on the serve-churn stream: every update
    /// must change the graph (the issue's floor is 0.9).
    #[test]
    fn every_churn_update_changes_the_graph() {
        let p = pool(42);
        let n = 1 << 10;
        let mut gen = StreamGen::new(&p, 42);
        let g = DynGraph::<HybridAdj>::undirected(n, &CapacityHints::new(p.len() * 2));
        for u in gen.inserts(p.len() * 3 / 4) {
            assert!(g.apply(&u));
        }
        let stream: Vec<Update> = gen.mixed_batches(4, 256, 0.75).concat();
        let changed = stream.iter().filter(|u| g.apply(u)).count();
        assert_eq!(changed, stream.len());
    }
}
