//! Static CSR (compressed sparse row) snapshots.
//!
//! The analysis kernels of Section 3 run on a frozen view of the dynamic
//! graph: cache-friendly adjacency arrays, the representation prior work
//! showed dominates linked structures for static traversal. A snapshot is
//! built in parallel from an edge list, from any [`DynamicAdjacency`]
//! state, or by patching the previous snapshot of that state: copying
//! the rows nothing touched since and re-reading only the rest. A
//! serving version may also be a snapshot plus a `RowDelta`, the rows
//! changed since in CSR form of their own, which `CsrGraph::folded`
//! compacts later. One row builder makes all of them.

use crate::adjacency::{DynamicAdjacency, HalfUpdate};
use rayon::prelude::*;
use snap_rmat::TimedEdge;
use snap_util::prefix::par_exclusive_scan;
use std::mem::MaybeUninit;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A static timestamped graph in CSR form. Two snapshots are equal when
/// their rows hold the same entries in the same order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[u]..offsets[u+1]` delimits `u`'s adjacency.
    offsets: Vec<usize>,
    nbrs: Vec<u32>,
    ts: Vec<u32>,
    /// Edge semantics of the snapshot (undirected snapshots store both
    /// orientations); carried so [`crate::view::GraphView`] can report it.
    directed: bool,
}

/// Raw pointer wrapper for provably disjoint parallel scatters.
struct SendPtr<T>(*mut T);
// SAFETY: SendPtr is only used by the edge-list builder, whose cursor
// protocol hands each slot index to exactly one task — the shared
// pointer is never used for overlapping writes (invariant 7).
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: as above; concurrent &SendPtr use only performs disjoint
// writes through it.
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// CSR offsets (`n + 1` slots) from per-vertex degrees. The exclusive
/// scan leaves the sum of all `n` degrees in the pushed slot, so
/// `offsets[n]` is the entry total.
fn offsets_from_degrees(mut degrees: Vec<usize>) -> Vec<usize> {
    degrees.push(0);
    par_exclusive_scan(&mut degrees);
    degrees
}

/// A build that allocates its entry arrays asks for `1 / HEADROOM` more
/// slots than it fills. Arrays are recycled only by a later version (the
/// `spare` of [`CsrGraph::patched`], [`CsrGraph::folded`] and
/// [`RowDelta::next`]), and the graph may have grown in between: the
/// spare slots let them still fit. Slots never written are never faulted
/// in.
const HEADROOM: usize = 8;

/// A build fills on the calling thread alone below this many entries:
/// a delta of one serving cycle (about 10^5 entries at scale 16) fills
/// in about a millisecond there, less than a second thread's start plus
/// its wait for a core that a busy reader holds.
const PARALLEL_FILL: usize = 1 << 18;

/// `buf` emptied with room for `len` slots: kept when it has the room,
/// else replaced by a fresh allocation with [`HEADROOM`].
fn storage<T>(mut buf: Vec<T>, len: usize) -> Vec<T> {
    buf.clear();
    if buf.capacity() < len {
        // Release the short buffer before asking for the long one.
        buf = Vec::new();
        buf.reserve_exact(len + len / HEADROOM);
    }
    buf
}

/// One fill task of the row builder: a range of the rows it writes and
/// the slots those rows own in the neighbor and timestamp arrays.
type FillChunk<'a> = (
    Range<usize>,
    &'a mut [MaybeUninit<u32>],
    &'a mut [MaybeUninit<u32>],
);

/// Cuts the rows into a few ranges per thread holding about equal entry
/// counts, each with its disjoint share of the output.
fn fill_chunks<'a>(
    offsets: &[usize],
    mut nbrs: &'a mut [MaybeUninit<u32>],
    mut ts: &'a mut [MaybeUninit<u32>],
) -> Vec<FillChunk<'a>> {
    let n = offsets.len() - 1;
    let parts = 4 * rayon::current_num_threads().max(1);
    let mut chunks = Vec::with_capacity(parts);
    let mut lo = 0;
    for i in 1..=parts {
        let hi = if i == parts {
            n
        } else {
            offsets[..n].partition_point(|&o| o < offsets[n] * i / parts)
        };
        let len = offsets[hi] - offsets[lo];
        let (a, rest) = std::mem::take(&mut nbrs).split_at_mut(len);
        nbrs = rest;
        let (b, rest) = std::mem::take(&mut ts).split_at_mut(len);
        ts = rest;
        chunks.push((lo..hi, a, b));
        lo = hi;
    }
    chunks
}

/// A plain bitset over `0..n`: the rows a build re-reads from the live
/// adjacency, the rows a [`RowDelta`] holds, and the debt marks of the
/// incremental indexes.
#[derive(Default)]
pub(crate) struct RowSet {
    words: Vec<u64>,
}

impl RowSet {
    /// An empty set over vertices `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Adds `u`.
    #[inline]
    pub(crate) fn insert(&mut self, u: u32) {
        self.words[u as usize / 64] |= 1 << (u % 64);
    }

    /// Removes `u`.
    #[inline]
    pub(crate) fn remove(&mut self, u: u32) {
        self.words[u as usize / 64] &= !(1 << (u % 64));
    }

    /// True if the set holds nothing.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The members, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u32> + Clone + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    (i * 64) as u32 + b
                })
            })
        })
    }

    /// True if `u` is in the set.
    #[inline]
    pub(crate) fn contains(&self, u: u32) -> bool {
        self.words[u as usize / 64] >> (u % 64) & 1 == 1
    }

    /// Number of vertices in the set.
    pub(crate) fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Empties the set.
    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Adds every member of `other`, a set over the same range.
    pub(crate) fn union_with(&mut self, other: &RowSet) {
        self.words
            .iter_mut()
            .zip(&other.words)
            .for_each(|(a, b)| *a |= b);
    }
}

/// The rows of a serving version that changed since its base, the last
/// compacted [`CsrGraph`]: a dense set of the rows held, a rank index
/// over it, and those rows in CSR form in vertex order. Base and delta
/// together are the version; a reader routes each row to one of them by
/// one bitset test ([`RowDelta::holds`]), and [`CsrGraph::folded`]
/// compacts them into the next base. Immutable once built.
#[derive(Default)]
pub(crate) struct RowDelta {
    rows: RowSet,
    /// Per word of `rows`: how many rows the words before it hold.
    ranks: Vec<u32>,
    /// Held row `r` (in vertex order) is `nbrs[offsets[r]..offsets[r + 1]]`.
    offsets: Vec<usize>,
    nbrs: Vec<u32>,
    ts: Vec<u32>,
    /// How the build read the rows fresh since the last version.
    split: ReadSplit,
}

impl RowDelta {
    /// The delta holding the rows of `held`, built after `last`, the
    /// last version (its base and the delta over it, if any): the rows
    /// in `fresh` read anew, the others copied from `last`'s delta,
    /// which must hold them — a [`crate::cycle::Cycle`] passes the rows
    /// touched since its base as `held` and those touched since its last
    /// freeze as `fresh`, so the build costs the rows of one cycle plus a
    /// copy of the rest. A fresh row that is keyed now
    /// ([`DynamicAdjacency::keyed_len`]) and strictly ascending in
    /// `last` is merged from there with its half-updates in `ops`
    /// ([`merge_keyed`]); every other fresh row is re-read from `adj`.
    /// `ops` holds every half-update applied since `last`, in
    /// application order (it is sorted here); `None` re-reads every
    /// fresh row.
    ///
    /// `None` when the held rows have more than `limit` entries: the
    /// count stops there, so a refusal costs degree reads, not a build.
    /// Writes into `spare`'s arrays where they fit, and takes it only
    /// when it builds. A torn fresh row panics, as in
    /// [`CsrGraph::from_dynamic`]: a re-read one, or a merged one whose
    /// length is not the live row's.
    pub(crate) fn next<A: DynamicAdjacency>(
        last: (&CsrGraph, Option<&RowDelta>),
        adj: &A,
        fresh: &RowSet,
        held: &RowSet,
        ops: Option<&mut [HalfUpdate]>,
        limit: usize,
        spare: &mut Option<RowDelta>,
    ) -> Option<RowDelta> {
        let mut src = DeltaRows {
            live: adj,
            fresh,
            last,
            ops: None,
            split: ReadCounts::default(),
        };
        let mut entries = 0;
        if held.iter().any(|u| {
            entries += src.degree(u);
            entries > limit
        }) {
            return None;
        }
        src.ops = ops.map(|ops| {
            // Stable: a key's ops stay in application order.
            ops.sort_by_key(|h| (h.src, h.nbr));
            &*ops
        });
        let Self {
            mut rows,
            mut ranks,
            offsets,
            nbrs,
            ts,
            ..
        } = spare.take().unwrap_or_default();
        rows.words.clone_from(&held.words);
        ranks.clear();
        let mut before = 0;
        ranks.extend(rows.words.iter().map(|w| {
            let rank = before;
            before += w.count_ones();
            rank
        }));
        let members: Vec<u32> = rows.iter().collect();
        let built = self::rows(Span::Only(&members), &src, None, Rows { offsets, nbrs, ts });
        Some(Self {
            rows,
            ranks,
            offsets: built.offsets,
            nbrs: built.nbrs,
            ts: built.ts,
            split: src.split.into(),
        })
    }

    /// How the build of this delta read its fresh rows.
    pub(crate) fn split(&self) -> ReadSplit {
        self.split
    }

    /// True if the delta holds `u`'s row.
    #[inline]
    pub(crate) fn holds(&self, u: u32) -> bool {
        self.rows.contains(u)
    }

    /// The rows the delta holds.
    pub(crate) fn held(&self) -> &RowSet {
        &self.rows
    }

    /// Position of held row `u` among the held rows.
    #[inline]
    fn rank(&self, u: u32) -> usize {
        let (w, bit) = (u as usize / 64, u % 64);
        self.ranks[w] as usize + (self.rows.words[w] & ((1 << bit) - 1)).count_ones() as usize
    }

    /// Held row `u`: its neighbors and their timestamps.
    #[inline]
    pub(crate) fn row(&self, u: u32) -> (&[u32], &[u32]) {
        let r = self.rank(u);
        let slots = self.offsets[r]..self.offsets[r + 1];
        (&self.nbrs[slots.clone()], &self.ts[slots])
    }

    /// Entries in the held rows.
    pub(crate) fn num_entries(&self) -> usize {
        self.nbrs.len()
    }
}

/// Rows in CSR layout: row `i` is `nbrs[offsets[i]..offsets[i + 1]]`,
/// timestamps parallel. A [`CsrGraph`] holds a row per vertex, a
/// [`RowDelta`] a row per vertex it holds.
#[derive(Default)]
struct Rows {
    offsets: Vec<usize>,
    nbrs: Vec<u32>,
    ts: Vec<u32>,
}

impl From<Option<CsrGraph>> for Rows {
    /// The arrays of a retired snapshot, or none.
    fn from(spare: Option<CsrGraph>) -> Self {
        spare.map_or_else(Rows::default, |s| Rows {
            offsets: s.offsets,
            nbrs: s.nbrs,
            ts: s.ts,
        })
    }
}

/// The rows a build writes, in order.
#[derive(Clone, Copy)]
enum Span<'a> {
    /// Every vertex `0..n`: a CSR.
    All(usize),
    /// These vertices, ascending: a delta.
    Only(&'a [u32]),
}

impl Span<'_> {
    fn len(self) -> usize {
        match self {
            Span::All(n) => n,
            Span::Only(ids) => ids.len(),
        }
    }

    /// The vertex whose row the build writes `i`-th.
    #[inline]
    fn at(self, i: usize) -> u32 {
        match self {
            Span::All(_) => i as u32,
            Span::Only(ids) => ids[i],
        }
    }
}

/// Where a build reads the rows it does not copy from an earlier CSR.
trait RowSource: Sync {
    /// Length of `u`'s row.
    fn degree(&self, u: u32) -> usize;

    /// Writes `u`'s row into `nbrs` / `ts`, which have the length
    /// [`RowSource::degree`] returned. False, with no slot beyond them
    /// written, when the row no longer has that length.
    fn write_row(&self, u: u32, nbrs: &mut [MaybeUninit<u32>], ts: &mut [MaybeUninit<u32>])
        -> bool;
}

/// A live adjacency structure reads its rows itself
/// ([`DynamicAdjacency::write_row`]).
impl<A: DynamicAdjacency> RowSource for A {
    fn degree(&self, u: u32) -> usize {
        DynamicAdjacency::degree(self, u)
    }

    fn write_row(
        &self,
        u: u32,
        nbrs: &mut [MaybeUninit<u32>],
        ts: &mut [MaybeUninit<u32>],
    ) -> bool {
        DynamicAdjacency::write_row(self, u, nbrs, ts)
    }
}

impl RowSource for RowDelta {
    fn degree(&self, u: u32) -> usize {
        self.row(u).0.len()
    }

    fn write_row(
        &self,
        u: u32,
        nbrs: &mut [MaybeUninit<u32>],
        ts: &mut [MaybeUninit<u32>],
    ) -> bool {
        let (held_nbrs, held_ts) = self.row(u);
        nbrs.write_copy_of_slice(held_nbrs);
        ts.write_copy_of_slice(held_ts);
        true
    }
}

/// Writes `last`, a keyed row (neighbors strictly ascending, timestamps
/// parallel), with `ops` applied into `nbrs` / `ts`: `ops` are the row's
/// half-updates sorted by neighbor, in application order per neighbor,
/// and the last op on a neighbor decides it — an insert sets its
/// timestamp, new or not, and a delete removes it. The runs between op
/// keys are copied whole. False, with no slot beyond the slices written,
/// when the result does not fill them exactly.
fn merge_keyed(
    last: (&[u32], &[u32]),
    ops: &[HalfUpdate],
    nbrs: &mut [MaybeUninit<u32>],
    ts: &mut [MaybeUninit<u32>],
) -> bool {
    debug_assert!(last.0.windows(2).all(|w| w[0] < w[1]));
    let mut to = 0;
    // Appends a run; false, writing nothing, when it would pass the slots.
    let mut put = |run_nbrs: &[u32], run_ts: &[u32]| {
        let end = to + run_nbrs.len();
        if end > nbrs.len() {
            return false;
        }
        nbrs[to..end].write_copy_of_slice(run_nbrs);
        ts[to..end].write_copy_of_slice(run_ts);
        to = end;
        true
    };
    let mut from = 0;
    for key_ops in ops.chunk_by(|a, b| a.nbr == b.nbr) {
        // panics: unreachable — `chunk_by` yields no empty chunk.
        let op = key_ops.last().expect("a chunk holds an op");
        let below = from + last.0[from..].partition_point(|&v| v < op.nbr);
        let kept = put(&last.0[from..below], &last.1[from..below]);
        if !(kept && (op.is_delete() || put(&[op.nbr], &[op.ts]))) {
            return false;
        }
        from = below + usize::from(last.0.get(below) == Some(&op.nbr));
    }
    put(&last.0[from..], &last.1[from..]) && to == nbrs.len()
}

/// How a delta build read its fresh rows: re-read whole from the live
/// adjacency, or merged from the last version ([`merge_keyed`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct ReadSplit {
    pub(crate) reread_rows: usize,
    pub(crate) reread_entries: usize,
    pub(crate) merged_rows: usize,
    pub(crate) merged_entries: usize,
}

/// [`ReadSplit`] as a build's fill tasks count it.
#[derive(Default)]
struct ReadCounts {
    reread: [AtomicUsize; 2],
    merged: [AtomicUsize; 2],
}

impl ReadCounts {
    fn add(counts: &[AtomicUsize; 2], entries: usize) {
        // ordering: Relaxed — statistics joined at the fill's barrier,
        // read after the build returns.
        counts[0].fetch_add(1, Ordering::Relaxed);
        // ordering: Relaxed — as above.
        counts[1].fetch_add(entries, Ordering::Relaxed);
    }
}

impl From<ReadCounts> for ReadSplit {
    fn from(c: ReadCounts) -> Self {
        let [reread_rows, reread_entries] = c.reread.map(AtomicUsize::into_inner);
        let [merged_rows, merged_entries] = c.merged.map(AtomicUsize::into_inner);
        Self {
            reread_rows,
            reread_entries,
            merged_rows,
            merged_entries,
        }
    }
}

/// `u`'s row in a version held as a base and the delta over it, if any:
/// neighbors and their timestamps.
pub(crate) fn version_row<'a>(
    (base, delta): (&'a CsrGraph, Option<&'a RowDelta>),
    u: u32,
) -> (&'a [u32], &'a [u32]) {
    match delta {
        Some(delta) if delta.holds(u) => delta.row(u),
        _ => (base.neighbors(u), base.timestamps(u)),
    }
}

/// The rows of the next delta ([`RowDelta::next`]): those outside
/// `fresh` copied from the last delta; a fresh one merged from its last
/// version when it is keyed now and strictly ascending there, else
/// re-read from the live adjacency.
struct DeltaRows<'a, A> {
    live: &'a A,
    fresh: &'a RowSet,
    /// The last version: its base and delta.
    last: (&'a CsrGraph, Option<&'a RowDelta>),
    /// Every half-update since the last version, sorted by (source,
    /// neighbor) and in application order per key; `None` merges nothing.
    ops: Option<&'a [HalfUpdate]>,
    split: ReadCounts,
}

impl<A: DynamicAdjacency> DeltaRows<'_, A> {
    /// The delta to copy `u`'s row from, unless the row is fresh.
    fn copied(&self, u: u32) -> Option<&RowDelta> {
        self.last.1.filter(|_| !self.fresh.contains(u))
    }

    /// Writes fresh row `u` merged into the slices; `None` when it is
    /// not keyed at their length or not ascending in the last version.
    fn merge(
        &self,
        u: u32,
        nbrs: &mut [MaybeUninit<u32>],
        ts: &mut [MaybeUninit<u32>],
    ) -> Option<bool> {
        let ops = self.ops?;
        if self.live.keyed_len(u) != Some(nbrs.len()) {
            return None;
        }
        let last = version_row(self.last, u);
        if !last.0.windows(2).all(|w| w[0] < w[1]) {
            return None;
        }
        let mine = ops.partition_point(|h| h.src < u)..ops.partition_point(|h| h.src <= u);
        Some(merge_keyed(last, &ops[mine], nbrs, ts))
    }
}

impl<A: DynamicAdjacency> RowSource for DeltaRows<'_, A> {
    fn degree(&self, u: u32) -> usize {
        match self.copied(u) {
            Some(delta) => delta.degree(u),
            None => self.live.degree(u),
        }
    }

    fn write_row(
        &self,
        u: u32,
        nbrs: &mut [MaybeUninit<u32>],
        ts: &mut [MaybeUninit<u32>],
    ) -> bool {
        let written = if let Some(delta) = self.copied(u) {
            delta.write_row(u, nbrs, ts)
        } else if let Some(merged) = self.merge(u, nbrs, ts) {
            ReadCounts::add(&self.split.merged, nbrs.len());
            merged
        } else {
            // A re-read row is the live row already.
            ReadCounts::add(&self.split.reread, nbrs.len());
            return self.live.write_row(u, nbrs, ts);
        };
        #[cfg(debug_assertions)]
        if written {
            check_row(self.live, u, nbrs, ts);
        }
        written
    }
}

/// The `RowDelta` checker of debug builds: `u`'s row as a delta wrote it
/// into `nbrs` / `ts`, merged or copied from the last delta, must equal a
/// re-read of the live row.
#[cfg(debug_assertions)]
fn check_row<A: DynamicAdjacency>(
    live: &A,
    u: u32,
    nbrs: &[MaybeUninit<u32>],
    ts: &[MaybeUninit<u32>],
) {
    let written: Vec<(u32, u32)> = nbrs
        .iter()
        .zip(ts)
        // SAFETY: the delta's write returned true, so it filled both
        // slices in full.
        .map(|(v, t)| unsafe { (v.assume_init(), t.assume_init()) })
        .collect();
    let reread: Vec<(u32, u32)> = live.neighbors(u).iter().map(|e| (e.nbr, e.ts)).collect();
    assert_eq!(
        written, reread,
        "vertex {u}: a delta row differs from a re-read"
    );
}

/// The one row builder, behind every CSR and delta build from a dynamic
/// source. It writes the rows of `span` in order. When `keep` names an
/// earlier CSR and a set, a row outside the set is copied from that CSR,
/// one `copy_from_slice` per maximal run (only a [`Span::All`] build
/// keeps rows, so row `i` is vertex `i` on both sides); every other row
/// is read from `src`. Writes into `spare`'s arrays where they fit.
///
/// # Panics
///
/// If a row read from `src` changed length between the degree pass and
/// the fill: a writer raced the build, and a torn CSR must never be
/// returned. The builder never writes out of bounds first.
fn rows<S: RowSource>(
    span: Span<'_>,
    src: &S,
    keep: Option<(&CsrGraph, &RowSet)>,
    spare: Rows,
) -> Rows {
    let len = span.len();
    debug_assert!(
        keep.is_none_or(|(prev, _)| matches!(span, Span::All(n) if n == prev.num_vertices()))
    );
    let Rows {
        offsets: mut degrees,
        nbrs,
        ts,
    } = spare;
    degrees.clear();
    degrees.reserve_exact(len + 1);
    degrees.par_extend((0..len).into_par_iter().map(|i| match keep {
        Some((prev, read)) if !read.contains(i as u32) => prev.out_degree(i as u32),
        _ => src.degree(span.at(i)),
    }));
    let offsets = offsets_from_degrees(degrees);
    let total = offsets[len];
    let mut nbrs = storage(nbrs, total);
    let mut ts = storage(ts, total);
    let torn = AtomicBool::new(false);
    let chunks = fill_chunks(
        &offsets,
        &mut nbrs.spare_capacity_mut()[..total],
        &mut ts.spare_capacity_mut()[..total],
    );
    let fill = |(rows, nbrs, ts): FillChunk<'_>| {
        let slot = |i: usize| offsets[i] - offsets[rows.start];
        let mut i = rows.start;
        while i < rows.end {
            match keep {
                Some((prev, read)) if !read.contains(i as u32) => {
                    // A kept run never changed: copy it whole.
                    let end = (i + 1..rows.end)
                        .find(|&w| read.contains(w as u32))
                        .unwrap_or(rows.end);
                    let src = prev.offsets[i]..prev.offsets[end];
                    let dst = slot(i)..slot(end);
                    nbrs[dst.clone()].write_copy_of_slice(&prev.nbrs[src.clone()]);
                    ts[dst].write_copy_of_slice(&prev.ts[src]);
                    i = end;
                }
                _ => {
                    let dst = slot(i)..slot(i + 1);
                    if !src.write_row(span.at(i), &mut nbrs[dst.clone()], &mut ts[dst]) {
                        // ordering: Relaxed — monotonic torn flag joined
                        // at the par_iter barrier (`into_inner` below).
                        torn.store(true, Ordering::Relaxed);
                    }
                    i += 1;
                }
            }
        }
    };
    if total < PARALLEL_FILL {
        chunks.into_iter().for_each(fill);
    } else {
        chunks.into_par_iter().for_each(fill);
    }
    // panics: documented contract — a writer raced the build.
    assert!(!torn.into_inner(), "adjacency mutated during snapshot");
    // SAFETY: the chunks partition slots 0..total and each wrote every
    // slot of its share: a copied run fills exactly its rows' slots
    // (their degrees came from `prev`), and a row `src` wrote short of
    // its slots returned false, which set the torn flag and panicked
    // above.
    unsafe {
        nbrs.set_len(total);
        ts.set_len(total);
    }
    Rows { offsets, nbrs, ts }
}

impl CsrGraph {
    /// Builds a directed CSR from an edge list.
    pub fn from_edges_directed(n: usize, edges: &[TimedEdge]) -> Self {
        Self::build(n, edges, false)
    }

    /// Builds an undirected CSR (both orientations stored).
    pub fn from_edges_undirected(n: usize, edges: &[TimedEdge]) -> Self {
        Self::build(n, edges, true)
    }

    /// Builds a CSR from *pre-oriented* entries — a list that already
    /// contains both orientations when the source was undirected (e.g.
    /// the output of [`crate::view::GraphView::collect_entries`]) — and
    /// records the given edge semantics. No symmetrization is applied.
    pub fn from_entries(n: usize, entries: &[TimedEdge], directed: bool) -> Self {
        Self {
            directed,
            ..Self::build(n, entries, false)
        }
    }

    fn build(n: usize, edges: &[TimedEdge], symmetric: bool) -> Self {
        // Pass 1: degrees (atomic histogram; contention is amortized by the
        // power-law skew being spread over n counters).
        let degrees: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        edges.par_iter().for_each(|e| {
            // ordering: Relaxed (both) — pure counting; the par_iter
            // barrier publishes the totals before `into_inner` reads
            // them (invariant 8: the join is the synchronization).
            degrees[e.u as usize].fetch_add(1, Ordering::Relaxed);
            if symmetric && e.u != e.v {
                // ordering: Relaxed — covered by the note above.
                degrees[e.v as usize].fetch_add(1, Ordering::Relaxed);
            }
        });
        let offsets = offsets_from_degrees(degrees.into_iter().map(|d| d.into_inner()).collect());
        let total = offsets[n];

        // Pass 2: scatter through per-vertex atomic cursors.
        let cursors: Vec<AtomicUsize> = offsets[..n].iter().map(|&o| AtomicUsize::new(o)).collect();
        let mut nbrs: Vec<u32> = Vec::with_capacity(total);
        let mut ts: Vec<u32> = Vec::with_capacity(total);
        // SAFETY: each slot is written exactly once via the cursor protocol.
        #[allow(clippy::uninit_vec)]
        unsafe {
            nbrs.set_len(total);
            ts.set_len(total);
        }
        let nbrs_ptr = SendPtr(nbrs.as_mut_ptr());
        let ts_ptr = SendPtr(ts.as_mut_ptr());
        edges.par_iter().for_each(|e| {
            let nbrs_ptr = &nbrs_ptr;
            let ts_ptr = &ts_ptr;
            // ordering: Relaxed — the RMW's atomicity alone grants the
            // slot exclusively (invariant 7); the par_iter barrier
            // publishes the written buffers.
            let i = cursors[e.u as usize].fetch_add(1, Ordering::Relaxed);
            // SAFETY: cursor grants slot i exclusively; i < offsets[u+1].
            unsafe {
                *nbrs_ptr.0.add(i) = e.v;
                *ts_ptr.0.add(i) = e.timestamp;
            }
            if symmetric && e.u != e.v {
                // ordering: Relaxed — as for vertex u above.
                let j = cursors[e.v as usize].fetch_add(1, Ordering::Relaxed);
                // SAFETY: as above for vertex v.
                unsafe {
                    *nbrs_ptr.0.add(j) = e.u;
                    *ts_ptr.0.add(j) = e.timestamp;
                }
            }
        });
        Self {
            offsets,
            nbrs,
            ts,
            directed: !symmetric,
        }
    }

    /// Snapshots the live entries of a dynamic adjacency structure.
    /// `directed` records the edge semantics of the source graph (an
    /// undirected dynamic graph already stores both orientations, so the
    /// entries are copied verbatim either way).
    ///
    /// # Panics
    ///
    /// If a racing writer makes the degree pass and the copy pass
    /// disagree (it can never make the builder write out of bounds). A
    /// race that keeps every row's length goes unseen: snapshots under
    /// concurrent ingest are [`crate::serve::ServeEngine`]'s job.
    pub fn from_dynamic<A: DynamicAdjacency>(adj: &A, directed: bool) -> Self {
        let n = adj.num_vertices();
        Self::with_rows(rows(Span::All(n), adj, None, Rows::default()), directed)
    }

    /// Snapshots `adj` by patching `prev`, an earlier snapshot of it: the
    /// rows of vertices outside `touched` are copied from `prev`, one
    /// `copy_from_slice` per maximal run, and only the rows in `touched`
    /// are re-read from `adj`. The result is bit-identical to a fresh
    /// [`CsrGraph::from_dynamic`], row order included, as long as no row
    /// outside `touched` changed since `prev` — the caller's contract (a
    /// [`crate::cycle::Cycle`] marks both endpoints of every update). A
    /// torn re-read row panics, as in `from_dynamic`.
    ///
    /// `spare` is a retired snapshot nobody reads any more: the new one
    /// writes into its arrays when they are long enough, so a steady
    /// stream of patches stops faulting in fresh pages.
    pub(crate) fn patched<A: DynamicAdjacency>(
        prev: &CsrGraph,
        adj: &A,
        touched: &RowSet,
        spare: Option<CsrGraph>,
    ) -> Self {
        let n = adj.num_vertices();
        let built = rows(Span::All(n), adj, Some((prev, touched)), spare.into());
        Self::with_rows(built, prev.directed)
    }

    /// Compacts a version held as `base` plus `delta` (the rows changed
    /// since `base`) into one CSR: `delta`'s rows copied from it, every
    /// other row copied from `base` by runs. Reads no live graph, so it
    /// runs whenever the caller likes; into `spare`'s arrays where they
    /// fit, as in [`CsrGraph::patched`]. O(n + m).
    pub(crate) fn folded(base: &CsrGraph, delta: &RowDelta, spare: Option<CsrGraph>) -> Self {
        let n = base.num_vertices();
        let built = rows(
            Span::All(n),
            delta,
            Some((base, delta.held())),
            spare.into(),
        );
        Self::with_rows(built, base.directed)
    }

    fn with_rows(rows: Rows, directed: bool) -> Self {
        Self {
            offsets: rows.offsets,
            nbrs: rows.nbrs,
            ts: rows.ts,
            directed,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True for directed edge semantics (see the `directed` field).
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Number of stored adjacency entries (directed count).
    pub fn num_entries(&self) -> usize {
        self.nbrs.len()
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: u32) -> usize {
        self.offsets[u as usize + 1] - self.offsets[u as usize]
    }

    /// `u`'s neighbors.
    #[inline]
    pub fn neighbors(&self, u: u32) -> &[u32] {
        &self.nbrs[self.offsets[u as usize]..self.offsets[u as usize + 1]]
    }

    /// Timestamps parallel to [`CsrGraph::neighbors`].
    #[inline]
    pub fn timestamps(&self, u: u32) -> &[u32] {
        &self.ts[self.offsets[u as usize]..self.offsets[u as usize + 1]]
    }

    /// The raw offsets array (length `n + 1`).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Maximum out-degree.
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices() as u32)
            .into_par_iter()
            .map(|u| self.out_degree(u))
            .max()
            .unwrap_or(0)
    }

    /// Iterates all `(u, v, ts)` entries.
    pub fn iter_entries(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        (0..self.num_vertices() as u32).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .zip(self.timestamps(u))
                .map(move |(&v, &t)| (u, v, t))
        })
    }

    /// Resident bytes of the snapshot.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * 8 + self.nbrs.len() * 4 + self.ts.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::{AdjEntry, CapacityHints};
    use crate::dynarr::DynArr;
    use crate::engine::halves;
    use crate::graph::DynGraph;
    use crate::hybrid::HybridAdj;
    use crate::treapadj::TreapAdj;
    use snap_rmat::Update;
    use snap_util::rng::XorShift64;

    fn edges() -> Vec<TimedEdge> {
        vec![
            TimedEdge::new(0, 1, 10),
            TimedEdge::new(0, 2, 20),
            TimedEdge::new(1, 2, 30),
            TimedEdge::new(3, 0, 40),
        ]
    }

    #[test]
    fn directed_build_has_expected_degrees() {
        let g = CsrGraph::from_edges_directed(4, &edges());
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_entries(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(1), 1);
        assert_eq!(g.out_degree(2), 0);
        assert_eq!(g.out_degree(3), 1);
        let mut n0 = g.neighbors(0).to_vec();
        n0.sort_unstable();
        assert_eq!(n0, vec![1, 2]);
    }

    #[test]
    fn undirected_build_symmetrizes() {
        let g = CsrGraph::from_edges_undirected(4, &edges());
        assert_eq!(g.num_entries(), 8);
        assert_eq!(g.out_degree(0), 3); // 1, 2, 3
        assert_eq!(g.out_degree(2), 2); // 0, 1
        assert!(g.neighbors(2).contains(&0));
        assert!(g.neighbors(2).contains(&1));
    }

    #[test]
    fn self_loop_counted_once_in_undirected() {
        let e = vec![TimedEdge::new(1, 1, 5)];
        let g = CsrGraph::from_edges_undirected(3, &e);
        assert_eq!(g.num_entries(), 1);
        assert_eq!(g.neighbors(1), &[1]);
    }

    #[test]
    fn timestamps_travel_with_neighbors() {
        let g = CsrGraph::from_edges_directed(4, &edges());
        let ns = g.neighbors(0);
        let ts = g.timestamps(0);
        for (v, t) in ns.iter().zip(ts) {
            match v {
                1 => assert_eq!(*t, 10),
                2 => assert_eq!(*t, 20),
                _ => panic!("unexpected neighbor"),
            }
        }
    }

    #[test]
    fn from_dynamic_round_trips() {
        let hints = CapacityHints::new(16);
        let g: DynGraph<DynArr> = DynGraph::undirected(4, &hints);
        for e in edges() {
            g.insert_edge(e);
        }
        g.delete_edge(0, 2);
        let csr = g.to_csr();
        assert_eq!(csr.num_entries(), 6); // 4 edges * 2 - deleted * 2
        let mut n0 = csr.neighbors(0).to_vec();
        n0.sort_unstable();
        assert_eq!(n0, vec![1, 3]);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges_directed(5, &[]);
        assert_eq!(g.num_entries(), 0);
        assert_eq!(g.max_degree(), 0);
        for u in 0..5u32 {
            assert!(g.neighbors(u).is_empty());
        }
    }

    #[test]
    fn iter_entries_covers_everything() {
        let g = CsrGraph::from_edges_directed(4, &edges());
        let mut got: Vec<(u32, u32, u32)> = g.iter_entries().collect();
        got.sort_unstable();
        let mut want: Vec<(u32, u32, u32)> =
            edges().iter().map(|e| (e.u, e.v, e.timestamp)).collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    /// Adversarial adjacency simulating a racing writer deterministically:
    /// `degree()` reports one entry fewer (resp. more) than `for_each`
    /// yields, which is exactly what a mutation landing between the degree
    /// pass and the copy pass looks like to the builder.
    struct RacingAdj {
        /// +1: for_each yields one surplus entry on vertex 0 (overrun);
        /// -1: for_each yields one entry short on vertex 0 (underrun).
        skew: i64,
    }

    impl DynamicAdjacency for RacingAdj {
        fn new(_n: usize, _hints: &CapacityHints) -> Self {
            Self { skew: 0 }
        }
        fn num_vertices(&self) -> usize {
            2
        }
        fn insert(&self, _u: u32, _e: crate::adjacency::AdjEntry) -> bool {
            false
        }
        fn delete(&self, _u: u32, _v: u32) -> bool {
            false
        }
        fn contains(&self, _u: u32, _v: u32) -> bool {
            false
        }
        fn degree(&self, u: u32) -> usize {
            if u == 0 {
                2
            } else {
                0
            }
        }
        fn for_each(&self, u: u32, f: &mut dyn FnMut(crate::adjacency::AdjEntry)) {
            if u == 0 {
                let yielded = (2 + self.skew) as usize;
                for i in 0..yielded {
                    f(crate::adjacency::AdjEntry::new(1, i as u32));
                }
            }
        }
        fn retain(
            &self,
            _u: u32,
            _keep: &mut dyn FnMut(crate::adjacency::AdjEntry) -> bool,
        ) -> usize {
            0
        }
        fn memory_bytes(&self) -> usize {
            0
        }
    }

    #[test]
    #[should_panic(expected = "adjacency mutated during snapshot")]
    fn from_dynamic_panics_on_an_overrun() {
        // Surplus entries must be dropped (never written out of bounds)
        // before the race is surfaced.
        let _ = CsrGraph::from_dynamic(&RacingAdj { skew: 1 }, false);
    }

    #[test]
    #[should_panic(expected = "adjacency mutated during snapshot")]
    fn from_dynamic_panics_on_an_underrun() {
        let _ = CsrGraph::from_dynamic(&RacingAdj { skew: -1 }, false);
    }

    #[test]
    fn from_dynamic_matches_the_edge_list_build_when_quiescent() {
        let hints = CapacityHints::new(16);
        let g: DynGraph<DynArr> = DynGraph::undirected(4, &hints);
        for e in edges() {
            g.insert_edge(e);
        }
        let a = CsrGraph::from_edges_undirected(4, &edges());
        let b = CsrGraph::from_dynamic(g.adjacency(), false);
        assert_eq!(a.num_entries(), b.num_entries());
        for u in 0..4u32 {
            let mut x = a.neighbors(u).to_vec();
            let mut y = b.neighbors(u).to_vec();
            x.sort_unstable();
            y.sort_unstable();
            assert_eq!(x, y);
        }
    }

    /// Random insert / delete rounds on `g` over `n` vertices, half of
    /// them on hub 0: after each round, patching the previous snapshot
    /// with the round's endpoints must give the fresh build exactly. The
    /// first half of the rounds mostly inserts, the second mostly deletes,
    /// so a hybrid hub crosses its threshold both ways. `observe` sees
    /// the adjacency after every round.
    fn patch_forward<A: DynamicAdjacency>(g: &DynGraph<A>, seed: u64, mut observe: impl FnMut(&A)) {
        let n = g.num_vertices() as u64;
        let mut rng = XorShift64::new(seed);
        let mut prev = g.to_csr();
        // Each patch writes into the arrays of the version before `prev`
        // where they fit: stale entries must never show through.
        let mut spare = None;
        for round in 0..48u32 {
            let insert_share = if round < 24 { 0.8 } else { 0.05 };
            let mut touched = RowSet::new(n as usize);
            for i in 0..rng.next_bounded(12) + 1 {
                let u = if rng.next_bool(0.5) {
                    0
                } else {
                    rng.next_bounded(n) as u32
                };
                let v = rng.next_bounded(n) as u32;
                let e = TimedEdge::new(u, v, round * 16 + i as u32);
                if rng.next_bool(insert_share) {
                    g.insert_edge(e);
                } else {
                    g.delete_edge(u, v);
                }
                touched.insert(u);
                touched.insert(v);
            }
            let next = CsrGraph::patched(&prev, g.adjacency(), &touched, spare.take());
            assert_eq!(next, g.to_csr(), "round {round}");
            observe(g.adjacency());
            spare = Some(std::mem::replace(&mut prev, next));
        }
    }

    #[test]
    fn patched_equals_a_fresh_build_on_every_representation() {
        let hints = CapacityHints::new(64).with_degree_thresh(8);
        for seed in 1..=4 {
            patch_forward(&DynGraph::<DynArr>::undirected(16, &hints), seed, |_| {});
            patch_forward(&DynGraph::<DynArr>::directed(16, &hints), seed, |_| {});
            patch_forward(&DynGraph::<TreapAdj>::undirected(16, &hints), seed, |_| {});
            let mut hub_was_treap = Vec::new();
            let g = DynGraph::<HybridAdj>::undirected(16, &hints);
            patch_forward(&g, seed, |adj| hub_was_treap.push(adj.is_treap(0)));
            // The hub's row changed order through a promotion and a
            // demotion, and the patches still matched.
            let flips = |from, to| hub_was_treap.windows(2).any(|w| w == [from, to]);
            assert!(
                flips(false, true) && flips(true, false),
                "seed {seed}: {hub_was_treap:?}"
            );
        }
    }

    /// Random rounds on a hybrid graph as in [`patch_forward`], each
    /// published as a delta over one base that reads only the round's
    /// rows (merging the hub's while it is a treap) and copies the rest
    /// from the last delta, folded into a new
    /// base every few rounds. Folding base and delta, and patching the
    /// base with the delta's rows, must both give the fresh build.
    #[test]
    fn deltas_over_a_base_fold_into_a_fresh_build() {
        let hints = CapacityHints::new(64).with_degree_thresh(8);
        let g = DynGraph::<HybridAdj>::undirected(16, &hints);
        let mut rng = XorShift64::new(3);
        let mut base = g.to_csr();
        let (mut delta, mut spare) = (None::<RowDelta>, None);
        let mut held = RowSet::new(16);
        for round in 0..48u32 {
            let insert_share = if round < 24 { 0.8 } else { 0.05 };
            let (mut fresh, mut ops) = (RowSet::new(16), Vec::new());
            for i in 0..rng.next_bounded(6) + 1 {
                let u = if rng.next_bool(0.5) {
                    0
                } else {
                    rng.next_bounded(16) as u32
                };
                let v = rng.next_bounded(16) as u32;
                let e = TimedEdge::new(u, v, round * 16 + i as u32);
                let upd = if rng.next_bool(insert_share) {
                    Update::insert(e)
                } else {
                    Update::delete(e)
                };
                g.apply(&upd);
                let (there, back) = halves(0, &upd, false);
                ops.push(there);
                ops.extend(back);
                for w in [u, v] {
                    fresh.insert(w);
                    held.insert(w);
                }
            }
            let next = RowDelta::next(
                (&base, delta.as_ref()),
                g.adjacency(),
                &fresh,
                &held,
                Some(&mut ops),
                usize::MAX,
                &mut spare,
            )
            .expect("no limit");
            let want = g.to_csr();
            assert_eq!(CsrGraph::folded(&base, &next, None), want, "round {round}");
            assert_eq!(
                CsrGraph::patched(&base, g.adjacency(), next.held(), None),
                want
            );
            for u in held.iter() {
                assert_eq!(next.row(u), (want.neighbors(u), want.timestamps(u)));
            }
            // The retired delta lends its arrays to the next one.
            spare = delta.replace(next);
            if round % 8 == 7 {
                let folded = delta.take().expect("just built");
                base = CsrGraph::folded(&base, &folded, Some(base.clone()));
                held.clear();
            }
        }
    }

    #[test]
    fn a_keyed_merge_takes_the_last_op_per_key_and_fills_its_slots_exactly() {
        let last = ([2, 4, 6, 8], [20, 40, 60, 80]);
        let (ins, del) = (
            |v, ts, i| HalfUpdate::insert(0, AdjEntry::new(v, ts), i),
            |v, i| HalfUpdate::delete(0, v, i),
        );
        // Sorted by neighbor, application order per neighbor: 1 is
        // inserted, 2 deleted, 4 deleted and re-inserted, 5 inserted and
        // deleted, 8 overwritten twice, 9 deleted while absent.
        let ops = [
            ins(1, 11, 0),
            del(2, 1),
            del(4, 2),
            ins(4, 44, 3),
            ins(5, 55, 4),
            del(5, 5),
            ins(8, 81, 6),
            ins(8, 82, 7),
            del(9, 8),
        ];
        let merge = |len: usize| {
            let (mut nbrs, mut ts) = (
                vec![MaybeUninit::new(0); len],
                vec![MaybeUninit::new(0); len],
            );
            let full = merge_keyed((&last.0, &last.1), &ops, &mut nbrs, &mut ts);
            let read = |s: Vec<MaybeUninit<u32>>| -> Vec<u32> {
                // SAFETY: every slot was initialized above.
                s.into_iter().map(|x| unsafe { x.assume_init() }).collect()
            };
            (full, read(nbrs), read(ts))
        };
        assert_eq!(merge(4), (true, vec![1, 4, 6, 8], vec![11, 44, 60, 82]));
        // A slot short or over: refused, with nothing past the slots.
        assert!(!merge(0).0 && !merge(3).0 && !merge(5).0);
    }

    #[test]
    fn a_delta_over_its_limit_is_refused_and_keeps_the_spare() {
        let (g, prev, mutated) = mutated_after_snapshot();
        let mut held = RowSet::new(8);
        mutated.iter().for_each(|&u| held.insert(u));
        let entries: usize = mutated.iter().map(|&u| g.degree(u)).sum();
        let mut spare = Some(RowDelta::default());
        let last = (&prev, None);
        let refused = RowDelta::next(
            last,
            g.adjacency(),
            &held,
            &held,
            None,
            entries - 1,
            &mut spare,
        );
        assert!(refused.is_none() && spare.is_some());
        let delta = RowDelta::next(last, g.adjacency(), &held, &held, None, entries, &mut spare)
            .expect("exactly at the limit");
        assert!(spare.is_none());
        assert_eq!(delta.num_entries(), entries);
        assert!(mutated.iter().all(|&u| delta.holds(u)) && !delta.holds(1));
    }

    /// A graph, its snapshot, and the vertices mutated after it.
    fn mutated_after_snapshot() -> (DynGraph<HybridAdj>, CsrGraph, Vec<u32>) {
        let g = DynGraph::<HybridAdj>::undirected(8, &CapacityHints::new(32).with_degree_thresh(4));
        for e in edges() {
            g.insert_edge(e);
        }
        let prev = g.to_csr();
        g.delete_edge(0, 2);
        g.insert_edge(TimedEdge::new(5, 6, 50));
        (g, prev, vec![0, 2, 5, 6])
    }

    #[test]
    fn patched_with_no_row_touched_is_prev_and_with_every_row_is_fresh() {
        let (g, prev, _) = mutated_after_snapshot();
        let fresh = g.to_csr();
        assert_ne!(prev, fresh);
        let none = RowSet::new(8);
        assert_eq!(CsrGraph::patched(&prev, g.adjacency(), &none, None), prev);
        let mut all = RowSet::new(8);
        (0..8).for_each(|u| all.insert(u));
        assert_eq!(CsrGraph::patched(&prev, g.adjacency(), &all, None), fresh);
    }

    #[test]
    fn a_patch_writes_into_a_spare_with_room_and_only_then() {
        let (g, prev, mutated) = mutated_after_snapshot();
        let mut touched = RowSet::new(8);
        mutated.iter().for_each(|&u| touched.insert(u));
        let fresh = g.to_csr();
        // `prev` holds other entries in exactly as many slots.
        let spare = prev.clone();
        let (nbrs, ts) = (spare.nbrs.as_ptr(), spare.ts.as_ptr());
        let next = CsrGraph::patched(&prev, g.adjacency(), &touched, Some(spare));
        assert_eq!(next, fresh);
        assert_eq!((next.nbrs.as_ptr(), next.ts.as_ptr()), (nbrs, ts));
        // Too short for the entries: fresh arrays, the same result.
        let short = CsrGraph::from_edges_undirected(8, &[]);
        let next = CsrGraph::patched(&prev, g.adjacency(), &touched, Some(short));
        assert_eq!(next, fresh);
    }

    #[test]
    fn a_build_leaves_headroom_for_a_grown_successor() {
        let g = DynGraph::<DynArr>::undirected(32, &CapacityHints::new(64));
        for v in 1..17 {
            g.insert_edge(TimedEdge::new(0, v, v));
        }
        let prev = g.to_csr();
        let outgrown = g.to_csr();
        let nbrs = outgrown.nbrs.as_ptr();
        g.insert_edge(TimedEdge::new(20, 21, 1));
        let mut touched = RowSet::new(32);
        touched.insert(20);
        touched.insert(21);
        let next = CsrGraph::patched(&prev, g.adjacency(), &touched, Some(outgrown));
        assert_eq!(next, g.to_csr());
        assert_eq!(next.nbrs.as_ptr(), nbrs, "34 entries fit 32 + 32 / 8");
    }

    #[test]
    fn a_touched_set_missing_a_mutated_vertex_is_detectably_wrong() {
        // The exactness assertions above can fail: leave any one mutated
        // vertex out and the patch serves its stale row.
        let (g, prev, mutated) = mutated_after_snapshot();
        let fresh = g.to_csr();
        for &skip in &mutated {
            let mut touched = RowSet::new(8);
            mutated
                .iter()
                .filter(|&&u| u != skip)
                .for_each(|&u| touched.insert(u));
            let patched = CsrGraph::patched(&prev, g.adjacency(), &touched, None);
            assert_ne!(patched, fresh, "vertex {skip} left out");
        }
    }

    /// Patches the skew-free snapshot of [`RacingAdj`] over a racing
    /// adjacency with row 1 touched, then with row 0 touched.
    fn patch_a_racing_row(skew: i64) {
        let prev = CsrGraph::from_dynamic(&RacingAdj { skew: 0 }, false);
        let (mut row0, mut row1) = (RowSet::new(2), RowSet::new(2));
        row0.insert(0);
        row1.insert(1);
        let adj = RacingAdj { skew };
        // An untouched row is copied, never read, so its race goes
        // unseen — which is why the cycle must mark every row it changes.
        assert_eq!(CsrGraph::patched(&prev, &adj, &row1, None), prev);
        let _ = CsrGraph::patched(&prev, &adj, &row0, None);
    }

    #[test]
    #[should_panic(expected = "adjacency mutated during snapshot")]
    fn patched_panics_on_a_torn_touched_row_overrun() {
        patch_a_racing_row(1);
    }

    #[test]
    #[should_panic(expected = "adjacency mutated during snapshot")]
    fn patched_panics_on_a_torn_touched_row_underrun() {
        patch_a_racing_row(-1);
    }

    #[test]
    fn large_parallel_build_matches_sequential_reference() {
        use snap_rmat::{Rmat, RmatParams};
        let r = Rmat::new(RmatParams::paper(10, 8), 77);
        let edges = r.edges();
        let n = 1 << 10;
        let g = CsrGraph::from_edges_directed(n, &edges);
        // Reference degrees.
        let mut deg = vec![0usize; n];
        for e in &edges {
            deg[e.u as usize] += 1;
        }
        for u in 0..n as u32 {
            assert_eq!(g.out_degree(u), deg[u as usize]);
        }
        assert_eq!(g.num_entries(), edges.len());
        // Every edge present exactly where it should be.
        let mut got: Vec<(u32, u32)> = g.iter_entries().map(|(u, v, _)| (u, v)).collect();
        let mut want: Vec<(u32, u32)> = edges.iter().map(|e| (e.u, e.v)).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}
