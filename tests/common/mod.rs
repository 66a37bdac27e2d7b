//! Shared scaffolding for the seeded property suites.
//!
//! No external property-testing crate is reachable in this build
//! environment, so the integration suites generate randomized cases
//! with the workspace's own [`XorShift64`]. The helpers live here once
//! so a change to case seeding or edge-list shape propagates to every
//! suite. (The fourth copy of this pattern, in `crates/arena`, is
//! deliberate: that crate sits below `snap-util` in the dependency
//! graph and documents its private generator.)
#![allow(dead_code)] // each test binary uses a subset of these helpers

pub mod differential;

use snap::prelude::{CapacityHints, GraphView, TimedEdge};
use snap::util::rng::XorShift64;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The hybrid promotion threshold the suites pin. The library default
/// is sized for graphs of 2^16 vertices and promotes no vertex of these
/// small ones, so without it the serving, chaos and index suites would
/// not cover treap vertices at all.
pub const DEGREE_THRESH: u32 = 8;

/// Most cycles the serving writer runs in a row without a freeze (private
/// `FREEZE_EVERY` in `snap_core::serve`): a pin's bound under a backlog.
pub const FREEZE_EVERY: u64 = 4;

/// A check to call on every turn of a loop that waits on the serving
/// writer: it fails, naming `what`, once 120 s have passed since this
/// call, so a dead writer fails the suite instead of hanging it.
pub fn writer_deadline(what: &'static str) -> impl Fn() {
    let start = std::time::Instant::now();
    move || {
        assert!(
            start.elapsed().as_secs() < 120,
            "timed out waiting for {what}"
        )
    }
}

/// `CapacityHints::new(expected_edges)` with [`DEGREE_THRESH`] pinned.
pub fn hints(expected_edges: usize) -> CapacityHints {
    CapacityHints::new(expected_edges).with_degree_thresh(DEGREE_THRESH)
}

/// Deterministic per-(suite, test, case) generator: `base` names the
/// suite, `salt` the test, `case` the iteration. Failures reproduce by
/// re-running with the same three values.
pub fn rng_for(base: u64, salt: u64, case: u64) -> XorShift64 {
    XorShift64::new(base ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(case))
}

/// Arbitrary small edge list over vertices `0..n` (possibly with
/// self-loops and duplicates): up to `max_len` edges, timestamps in
/// `1..max_ts`.
pub fn edge_list(rng: &mut XorShift64, n: u32, max_len: u64, max_ts: u64) -> Vec<TimedEdge> {
    let len = rng.next_bounded(max_len) as usize;
    (0..len)
        .map(|_| {
            TimedEdge::new(
                rng.next_bounded(n as u64) as u32,
                rng.next_bounded(n as u64) as u32,
                rng.next_bounded(max_ts - 1) as u32 + 1,
            )
        })
        .collect()
}

/// A view that counts the adjacency entries read through it — the unit
/// the certificate path's cost bounds are stated in.
pub struct CountingView<'a, V> {
    inner: &'a V,
    scanned: AtomicUsize,
}

impl<'a, V: GraphView> CountingView<'a, V> {
    pub fn new(inner: &'a V) -> Self {
        Self {
            inner,
            scanned: AtomicUsize::new(0),
        }
    }

    /// Entries handed to `for_each_edge` / `find_edge` callbacks so far.
    pub fn scanned(&self) -> usize {
        // ordering: Relaxed — test-side statistics counter.
        self.scanned.load(Ordering::Relaxed)
    }
}

impl<V: GraphView> GraphView for CountingView<'_, V> {
    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }

    fn is_directed(&self) -> bool {
        self.inner.is_directed()
    }

    fn degree(&self, u: u32) -> usize {
        self.inner.degree(u)
    }

    fn for_each_edge<F: FnMut(u32, u32)>(&self, u: u32, mut f: F) {
        self.inner.for_each_edge(u, |v, ts| {
            // ordering: Relaxed — test-side statistics counter.
            self.scanned.fetch_add(1, Ordering::Relaxed);
            f(v, ts);
        });
    }
}
