//! Flat min-id labels and the member rings that keep them flat in
//! O(what changed).
//!
//! At every settle boundary `parent[v]` *is* `v`'s canonical label (the
//! minimum id of its component), and every component's members sit on
//! one intrusive circular doubly-linked ring (`next` / `prev`, one `u32`
//! each per vertex). Between settles a merge only hooks the higher root
//! under the lower one and records the hooked root; it touches no ring.
//! So each step of a settle pays for the labels it changes:
//!
//! - **Merges** ([`State::flatten`]): each hooked root's ring still holds
//!   exactly its component as of the last settle. Walked once, its
//!   members point at the root that survives and the ring is spliced
//!   into that root's (O(1)). Taking the hooked roots newest first makes
//!   every `find` two steps: a root hooked earlier points at one that was
//!   a root then and, if hooked since, already points at its survivor.
//! - **Splits** ([`State::split_off`]): a side leaves its ring one member
//!   at a time and forms its own. With the labels flat, no vertex outside
//!   the side can point into it.
//! - **Whole-component relabels** ([`State::members`] /
//!   [`State::relabel_members`]) read the component off its ring and
//!   rebuild the rings of what the view says it became.

use super::{conn_metrics, respan, restricted_component_labels, State};
use crate::indexes::IndexCore;
use crate::view::GraphView;

impl State {
    /// Flat labels and rings from a parent array in which every vertex
    /// points at itself or at a lower id: one ascending pass settles
    /// each label (its parent's is final by then), and each vertex joins
    /// its label's ring at the tail, so rings start ascending.
    pub(super) fn flatten_all(&mut self) {
        for v in 0..self.parent.len() {
            let l = self.parent[self.parent[v] as usize];
            self.parent[v] = l;
            self.enter_ring(v as u32, l);
        }
    }

    /// Puts `v` on the ring of `l` just before `l` (its tail); `v == l`
    /// starts a ring of one. `l`'s ring, unless `l == v`, exists already.
    fn enter_ring(&mut self, v: u32, l: u32) {
        if v == l {
            self.next[v as usize] = v;
            self.prev[v as usize] = v;
            return;
        }
        let tail = self.prev[l as usize];
        self.next[tail as usize] = v;
        self.prev[v as usize] = tail;
        self.next[v as usize] = l;
        self.prev[l as usize] = v;
    }

    /// Takes `v` off its ring, leaving it a ring of one.
    fn leave_ring(&mut self, v: u32) {
        let (p, n) = (self.prev[v as usize], self.next[v as usize]);
        self.next[p as usize] = n;
        self.prev[n as usize] = p;
        self.next[v as usize] = v;
        self.prev[v as usize] = v;
    }

    /// Joins the rings of `a` and `b`, two distinct rings, into one.
    fn splice(&mut self, a: u32, b: u32) {
        let (an, bn) = (self.next[a as usize], self.next[b as usize]);
        self.next[a as usize] = bn;
        self.prev[bn as usize] = a;
        self.next[b as usize] = an;
        self.prev[an as usize] = b;
    }

    /// The members on `r`'s ring, ascending.
    pub(super) fn members(&self, r: u32) -> Vec<u32> {
        let mut out = vec![r];
        let mut v = self.next[r as usize];
        while v != r {
            out.push(v);
            v = self.next[v as usize];
        }
        out.sort_unstable();
        out
    }

    /// The root of `x`: its label once settled. One step while the
    /// labels are flat; between settles, also the hooks made since.
    pub(super) fn find(&self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            x = self.parent[x as usize];
        }
        x
    }

    /// Hooks the higher of the roots of `u` and `v` under the lower one
    /// and records it for [`State::flatten`]; `false` if they share one.
    pub(super) fn hook(&mut self, u: u32, v: u32) -> bool {
        let (ru, rv) = (self.find(u), self.find(v));
        if ru == rv {
            return false;
        }
        let (lo, hi) = (ru.min(rv), ru.max(rv));
        self.parent[hi as usize] = lo;
        self.hooked.push(hi);
        self.components -= 1;
        if self.marked.contains(hi) {
            // The absorbed component was awaiting a relabel; the merged
            // one inherits that debt.
            self.marked.remove(hi);
            self.owe(lo);
        }
        true
    }

    /// Makes the labels flat again after the merges since the last
    /// settle (see the [module docs](self)); O(members relabelled).
    pub(super) fn flatten(&mut self) {
        let mut hooked = std::mem::take(&mut self.hooked);
        for &h in hooked.iter().rev() {
            let r = self.find(h);
            let mut v = h;
            loop {
                self.parent[v as usize] = r;
                self.relabeled += 1;
                v = self.next[v as usize];
                if v == h {
                    break;
                }
            }
            self.splice(r, h);
        }
        hooked.clear();
        self.hooked = hooked;
    }

    /// Relabels `side`, a split side whose members all leave their
    /// component, to `new` and gives it a ring of its own: O(|side|).
    pub(super) fn split_off(&mut self, side: &[u32], new: u32) {
        for &v in side {
            self.leave_ring(v);
        }
        for &v in side {
            self.parent[v as usize] = new;
        }
        for &v in side.iter().filter(|&&v| v != new) {
            self.enter_ring(v, new);
        }
        self.relabeled += side.len() as u64;
    }

    /// Relabels one marked component's members (ascending) from the view,
    /// re-derives their certificate and rebuilds their rings.
    pub(super) fn relabel_members<V: GraphView>(
        &mut self,
        view: &V,
        verts: &[u32],
        core: &IndexCore,
    ) {
        let labels = restricted_component_labels(view, verts);
        if !view.is_directed() {
            self.fresh.resize(self.parent.len(), false);
            respan(&mut self.forest, &mut self.fresh, view, verts);
        }
        let mut new_roots = 0usize;
        // Ascending, so each label's ring exists before its other
        // members join it.
        for (&v, &l) in verts.iter().zip(&labels) {
            self.relabeled += u64::from(self.parent[v as usize] != l);
            self.parent[v as usize] = l;
            self.marked.remove(v);
            self.enter_ring(v, l);
            if l == v {
                new_roots += 1;
            }
        }
        self.components += new_roots.saturating_sub(1);
        core.count_repairs(1);
        let m = conn_metrics();
        m.repairs.inc();
        m.fallbacks.inc();
        m.relabel_members.record(verts.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::super::{restricted_component_labels, ConnectivityIndex};
    use crate::adjacency::CapacityHints;
    use crate::dynarr::DynArr;
    use crate::graph::DynGraph;
    use snap_rmat::TimedEdge;
    use snap_util::rng::XorShift64;

    /// The labels are flat, and every ring holds exactly the vertices its
    /// root labels, linked both ways.
    fn assert_rings(idx: &ConnectivityIndex) {
        let st = idx.state.read();
        let n = st.parent.len() as u32;
        for v in 0..n {
            let r = st.parent[v as usize];
            assert_eq!(st.parent[r as usize], r, "{v}'s label {r} is a root");
            assert_eq!(st.next[st.prev[v as usize] as usize], v, "ring at {v}");
        }
        for r in (0..n).filter(|&r| st.parent[r as usize] == r) {
            let labelled: Vec<u32> = (0..n).filter(|&v| st.parent[v as usize] == r).collect();
            assert_eq!(st.members(r), labelled, "ring of {r}");
        }
        assert!(st.hooked.is_empty());
    }

    #[test]
    fn rings_follow_merges_splits_and_whole_component_relabels() {
        let n = 48u32;
        let g: DynGraph<DynArr> = DynGraph::undirected(n as usize, &CapacityHints::new(512));
        let idx = ConnectivityIndex::new(n as usize);
        let mut rng = XorShift64::new(7);
        let mut live: Vec<(u32, u32)> = Vec::new();
        let mut relabels = 0;
        for round in 0..400 {
            // Several notes per settle: merges chain, cuts cross them.
            for _ in 0..1 + rng.next_bounded(6) {
                if live.is_empty() || rng.next_bool(0.6) {
                    let (u, v) = (
                        rng.next_bounded(n as u64) as u32,
                        rng.next_bounded(n as u64) as u32,
                    );
                    let new = u != v && !live.contains(&(u, v)) && !live.contains(&(v, u));
                    if new && g.insert_edge(TimedEdge::new(u, v, 1)) {
                        idx.note_insert(u, v);
                        live.push((u, v));
                    }
                } else {
                    let (u, v) = live.swap_remove(rng.next_bounded(live.len() as u64) as usize);
                    assert!(g.delete_edge(u, v));
                    if rng.next_bool(0.1) {
                        // Out of band, flagged the blunt way.
                        idx.mark_component_dirty(u);
                        relabels += 1;
                    } else {
                        idx.note_delete(u, v);
                    }
                }
            }
            let all: Vec<u32> = (0..n).collect();
            assert_eq!(
                idx.labels(&g),
                restricted_component_labels(&g, &all),
                "round {round}"
            );
            assert_rings(&idx);
        }
        assert!(relabels > 0 && idx.repair_count() > relabels);
    }

    #[test]
    fn unchanged_labels_are_not_copied_again() {
        let g: DynGraph<DynArr> = DynGraph::undirected(4, &CapacityHints::new(8));
        g.insert_edge(TimedEdge::new(0, 1, 1));
        let idx = ConnectivityIndex::from_view(&g);
        let mut out = Vec::new();
        let seen = idx.labels_since(&g, None, &mut out);
        assert_eq!(out, [0, 0, 2, 3]);
        out.clear();
        assert_eq!(
            idx.labels_since(&g, seen, &mut out),
            None,
            "nothing changed"
        );
        assert!(out.is_empty(), "and nothing was copied");
        // A note that merges nothing changes no label either.
        g.insert_edge(TimedEdge::new(1, 0, 2));
        assert_eq!(idx.labels_since(&g, seen, &mut out), None);
        g.insert_edge(TimedEdge::new(2, 3, 1));
        idx.note_insert(2, 3);
        let next = idx.labels_since(&g, seen, &mut out);
        assert!(next.is_some() && next != seen);
        assert_eq!(out, [0, 0, 2, 2]);
    }
}
