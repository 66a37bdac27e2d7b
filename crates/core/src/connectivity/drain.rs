//! The certificate drain: a settle's notes → links → cuts → replacement
//! searches ([`State::resolve`]) → published splits
//! ([`State::publish_splits`]), all against the view as it is then.

use super::{conn_metrics, Note, State};
use crate::forest::{Reconnect, ROOT};
use crate::view::GraphView;

impl State {
    /// Applies drained notes to the certificate and publishes the splits
    /// they cause. The labels are flat (merges already applied).
    ///
    /// Links are applied first, then every cut, and only then does the
    /// search run: the view already lacks *all* the deleted edges, so a
    /// tree that still held one of them would make "this side has no
    /// edge left to scan" mean less than "this side is a whole tree".
    /// With every stale edge cut first, each tree is connected in the
    /// view and an exhausted side is exactly one tree and one component.
    pub(super) fn apply_notes<V: GraphView>(&mut self, view: &V, notes: &[Note]) {
        let m = conn_metrics();
        if view.is_directed() {
            // Out-adjacency cannot be searched from both sides of a cut:
            // every deletion takes the whole-component path, as before
            // the certificate existed.
            for note in notes {
                if let Note::Cut(u, _) = *note {
                    self.mark(u);
                }
            }
            return;
        }
        // Vertices whose trees are not yet known to be whole components.
        let mut open: Vec<u32> = Vec::new();
        for note in notes {
            if let Note::Link(u, v) = *note {
                if self.forest.connected(u, v) {
                    continue;
                }
                if has_edge(view, u, v) {
                    self.forest.reroot(u);
                    self.forest.link(u, v);
                } else {
                    // Merged by an edge that is already gone again
                    // (deleted later in the same cycle): whether anything
                    // else joins the two trees is the same question a cut
                    // asks.
                    open.extend([u, v]);
                }
            }
        }
        for note in notes {
            if let Note::Cut(u, v) = *note {
                if self.forest.cut_edge(u, v) {
                    m.cert_deletes.inc();
                    open.extend([u, v]);
                } else {
                    m.noncert_deletes.inc();
                }
            }
        }
        self.split_of.resize(self.parent.len(), 0);
        let splits = self.resolve(view, open);
        self.publish_splits(&splits);
    }

    /// Runs replacement searches until, in every component, at most one
    /// tree is not known to be a whole component of the view — and that
    /// one then is too, since no live edge can lead into the others.
    /// Returns the exhausted sides (each marked in `split_of` with its
    /// 1-based position).
    fn resolve<V: GraphView>(&mut self, view: &V, mut open: Vec<u32>) -> Vec<Vec<u32>> {
        let m = conn_metrics();
        let mut splits: Vec<Vec<u32>> = Vec::new();
        // The labels have not been touched by a cut yet, so they still
        // name the components as they were before the cuts; sorted by
        // them, the open vertices of one component sit together on the
        // stack.
        open.sort_by_key(|&v| self.parent[v as usize]);
        while let Some(a) = open.pop() {
            if self.split_of[a as usize] != 0 {
                continue;
            }
            let label = self.parent[a as usize];
            let tree = self.forest.findroot(a);
            // `a` stands for its whole tree from here on (trees only
            // merge): drop what it already covers, so the next vertex of
            // this component, if any, is in another open tree.
            while open.last().is_some_and(|&b| {
                self.parent[b as usize] == label
                    && (self.split_of[b as usize] != 0 || self.forest.findroot(b) == tree)
            }) {
                open.pop();
            }
            let Some(b) = open
                .last()
                .copied()
                .filter(|&b| self.parent[b as usize] == label)
            else {
                // The last open tree of its component keeps the label,
                // so it must hold the label's vertex (unless a split
                // side does; `publish_splits` handles that). Anything
                // else means the notes did not describe the view, and
                // only the view can say who is right.
                if self.split_of[label as usize] == 0 && self.forest.findroot(label) != tree {
                    self.mark(label);
                }
                continue;
            };
            let outcome = self.forest.reconnect(view, a, b, &mut self.search);
            m.search_scanned.record(self.search.scanned() as u64);
            match outcome {
                Reconnect::Linked => m.replacements.inc(),
                Reconnect::Split => {
                    m.splits.inc();
                    let id = splits.len() as u32 + 1;
                    let side = self.search.exhausted().to_vec();
                    for &v in &side {
                        self.split_of[v as usize] = id;
                    }
                    splits.push(side);
                }
            }
            open.push(a);
        }
        splits
    }

    /// Publishes the splits a settle found: each exhausted side `S`
    /// leaves its component with label `min(S)` in O(|S|), unless `S`
    /// holds its component's label — then the *other* side needs a new
    /// minimum, which takes an enumeration, and the component goes to
    /// the whole-component path instead. Clears `split_of`.
    fn publish_splits(&mut self, splits: &[Vec<u32>]) {
        let m = conn_metrics();
        // Per split: (label before, label after), or None for the
        // whole-component path.
        let plan: Vec<Option<(u32, u32)>> = splits
            .iter()
            .zip(1u32..)
            .map(|(side, id)| {
                if self.split_of[side[0] as usize] != id {
                    // Swallowed by a later side: a search found an edge
                    // into this one after it had been exhausted, which
                    // only a view the notes do not describe can produce.
                    // The later side carries these members now.
                    return None;
                }
                let old = self.parent[side[0] as usize];
                if self.split_of[old as usize] == id {
                    self.mark(old);
                    return None;
                }
                side.iter().min().map(|&new| (old, new))
            })
            .collect();
        let relabelled = plan.iter().flatten().count();
        if relabelled > 0 {
            let stale = self.stale_tree_pointers(splits);
            for (side, p) in splits.iter().zip(&plan) {
                let Some((old, new)) = *p else { continue };
                self.split_off(side, new);
                if self.marked.contains(old) {
                    // The side leaves a component that owed a relabel.
                    self.owe(new);
                }
                m.relabel_members.record(side.len() as u64);
            }
            self.components += relabelled;
            self.repairs += relabelled;
            m.repairs.add(relabelled as u64);
            for v in stale {
                self.mark(v);
                self.mark(self.forest.parent(v));
            }
        }
        for side in splits {
            for &v in side {
                self.split_of[v as usize] = 0;
            }
        }
    }

    /// The vertices whose tree pointer crosses a split side's boundary.
    /// Each is an edge the view no longer has (a side is closed under the
    /// view's adjacency) whose delete was never noted, so the view must
    /// decide. A side's own members are checked in O(|S|); whether a
    /// vertex outside points in is read off the child counts: the
    /// children of the members are exactly the members whose parent is
    /// inside, unless one is not. Only then does the O(n) scan run to
    /// find it.
    fn stale_tree_pointers(&self, splits: &[Vec<u32>]) -> Vec<u32> {
        let mut stale = Vec::new();
        let mut closed = true;
        for (side, id) in splits.iter().zip(1u32..) {
            let (mut inside, mut children) = (0u64, 0u64);
            // A member a later side swallowed is checked with that side.
            for &v in side.iter().filter(|&&v| self.split_of[v as usize] == id) {
                children += u64::from(self.forest.children(v));
                let t = self.forest.parent(v);
                if t == ROOT {
                    continue;
                }
                if self.split_of[t as usize] == id {
                    inside += 1;
                } else {
                    stale.push(v);
                }
            }
            closed &= children == inside;
        }
        if !closed {
            stale = (0..self.parent.len() as u32)
                .filter(|&v| {
                    let t = self.forest.parent(v);
                    t != ROOT && self.split_of[t as usize] != self.split_of[v as usize]
                })
                .collect();
        }
        stale
    }
}

/// True if `view` holds a live edge `(u, v)`; scans the shorter of the
/// two adjacencies.
fn has_edge<V: GraphView>(view: &V, u: u32, v: u32) -> bool {
    let (a, b) = if view.degree(u) <= view.degree(v) {
        (u, v)
    } else {
        (v, u)
    };
    view.find_edge(a, |w, _| w == b).is_some()
}
