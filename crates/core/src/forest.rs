//! The paper's link-cut forest (Section 3.1, figures 7–8): a spanning
//! forest encoded as one parent pointer per vertex.
//!
//! The paper deliberately uses the *simple* implementation of the
//! Sleator–Tarjan structure: `link`, `cut` and `parent` are O(1) and
//! `findroot` walks to the root — O(tree height), small by construction
//! on small-world networks. This module is the workspace's single
//! implementation of those operations. Two subsystems stand on it:
//!
//! - [`crate::connectivity::ConnectivityIndex`] keeps a [`Forest`] as the
//!   *certificate* of its component labels: an edge deletion that misses
//!   the forest cannot change connectivity, and one that hits it is
//!   answered by [`Forest::reconnect`];
//! - `snap_kernels::LinkCutForest` wraps it for the paper's batched
//!   connectivity-query workload.
//!
//! # Replacement search
//!
//! After a tree edge is cut its two sides are distinct trees that may
//! still be joined by a non-tree edge of the graph.
//! [`Forest::reconnect`] grows both sides over the view in **lock-step**
//! — always advancing the side that will have scanned fewer adjacency
//! entries — and stops at the first edge leaving a side's tree (the
//! replacement, which becomes a tree edge) or when one side has no
//! vertex left to scan (a true split). The side that finishes first has
//! scanned everything it owns, and the other side never gets ahead of
//! it, so the adjacency entries scanned are at most twice those of the
//! smaller side — independent of the size of the larger one.
//!
//! Which tree a scanned neighbour belongs to is read off the parent
//! pointers: the walk from the neighbour towards its root stops at the
//! first vertex a side has already claimed, and every vertex on a walk
//! that ends inside the scanning side's own tree is claimed (and queued)
//! on the way back, so each vertex is walked over once per search.

use crate::view::GraphView;

/// "No parent" marker: the vertex is a tree root.
pub const ROOT: u32 = u32::MAX;

/// A forest of rooted trees encoded as parent pointers, plus each
/// vertex's child count.
#[derive(Clone, Debug)]
pub struct Forest {
    parent: Vec<u32>,
    /// `children[v]`: the vertices whose parent is `v`. Kept by `link`,
    /// `cut` and `reroot` in O(1) each, so a caller can tell whether a
    /// vertex set holds every child of its members without a scan.
    children: Vec<u32>,
}

/// What [`Forest::reconnect`] found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reconnect {
    /// A live edge left one side's tree; it is now a tree edge and the
    /// two trees it joined are one.
    Linked,
    /// One side ran out of vertices to scan: it is an entire tree *and*
    /// an entire component of the view. Its members are
    /// [`Search::exhausted`].
    Split,
}

impl Forest {
    /// An n-vertex forest of singletons.
    pub fn new(n: usize) -> Self {
        Self {
            parent: vec![ROOT; n],
            children: vec![0; n],
        }
    }

    /// Wraps an existing parent array ([`ROOT`] marks roots). The caller
    /// guarantees it is acyclic.
    pub fn from_parents(parent: Vec<u32>) -> Self {
        let mut children = vec![0; parent.len()];
        for &p in parent.iter().filter(|&&p| p != ROOT) {
            children[p as usize] += 1;
        }
        Self { parent, children }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True for the forest over zero vertices.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The parent of `v`, or [`ROOT`].
    #[inline]
    pub fn parent(&self, v: u32) -> u32 {
        self.parent[v as usize]
    }

    /// Number of vertices whose parent is `v`.
    #[inline]
    pub(crate) fn children(&self, v: u32) -> u32 {
        self.children[v as usize]
    }

    /// Walks parent pointers to the root of `v`'s tree — O(tree height).
    #[inline]
    pub fn findroot(&self, v: u32) -> u32 {
        let mut cur = v;
        loop {
            let p = self.parent[cur as usize];
            if p == ROOT {
                return cur;
            }
            cur = p;
        }
    }

    /// Hop count from `v` to its root (the paper's query cost is
    /// proportional to this).
    pub fn depth(&self, v: u32) -> u32 {
        let mut cur = v;
        let mut d = 0;
        while self.parent[cur as usize] != ROOT {
            cur = self.parent[cur as usize];
            d += 1;
        }
        d
    }

    /// Are `u` and `v` in the same tree?
    #[inline]
    pub fn connected(&self, u: u32, v: u32) -> bool {
        self.findroot(u) == self.findroot(v)
    }

    /// True if `(u, v)` is a tree edge, in either orientation.
    #[inline]
    pub fn is_tree_edge(&self, u: u32, v: u32) -> bool {
        self.parent[u as usize] == v || self.parent[v as usize] == u
    }

    /// Structural `link(v, w)`: makes `w` the parent of root `v`.
    ///
    /// # Panics
    /// If `v` is not a root (the Sleator–Tarjan precondition).
    pub fn link(&mut self, v: u32, w: u32) {
        assert_eq!(
            self.parent[v as usize], ROOT,
            "link requires v to be a root"
        );
        self.parent[v as usize] = w;
        self.children[w as usize] += 1;
    }

    /// Structural `cut(v)`: deletes the arc from `v` to its parent,
    /// splitting the tree. No-op if `v` is a root.
    pub fn cut(&mut self, v: u32) {
        let p = std::mem::replace(&mut self.parent[v as usize], ROOT);
        if p != ROOT {
            self.children[p as usize] -= 1;
        }
    }

    /// Reroots `v`'s tree at `v` by reversing the path to the old root —
    /// O(depth), needed before linking two arbitrary vertices.
    pub fn reroot(&mut self, v: u32) {
        let mut prev = ROOT;
        let mut cur = v;
        while cur != ROOT {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = prev;
            prev = cur;
            cur = next;
        }
        // Every vertex on the path trades the child below it for the one
        // above, except the ends: `v` gains one, the old root loses one.
        if prev != v {
            self.children[v as usize] += 1;
            self.children[prev as usize] -= 1;
        }
    }

    /// Makes `(u, v)` a tree edge if it joins two trees (reroot + link)
    /// and returns `true`; otherwise it is a non-tree edge and the
    /// forest is untouched.
    pub fn link_edge(&mut self, u: u32, v: u32) -> bool {
        if self.connected(u, v) {
            return false;
        }
        self.reroot(u);
        self.link(u, v);
        true
    }

    /// Cuts `(u, v)` if it is a tree edge and returns whether it was.
    /// O(1): a non-tree edge is recognised from the two parent pointers.
    pub fn cut_edge(&mut self, u: u32, v: u32) -> bool {
        if u == v {
            return false;
        }
        if self.parent[u as usize] == v {
            self.cut(u);
            true
        } else if self.parent[v as usize] == u {
            self.cut(v);
            true
        } else {
            false
        }
    }

    /// The lock-step replacement search (see the [module docs](self)).
    /// `a` and `b` must sit in different trees, and every tree edge of
    /// both must be a live edge of `view` — cut deleted edges first.
    ///
    /// On [`Reconnect::Linked`] the edge found is a tree edge already
    /// (it may lead to a third tree, so `a` and `b` need not be
    /// connected yet); on [`Reconnect::Split`] the forest is unchanged
    /// and `search` holds the exhausted side.
    pub fn reconnect<V: GraphView>(
        &mut self,
        view: &V,
        a: u32,
        b: u32,
        search: &mut Search,
    ) -> Reconnect {
        search.begin(self, [a, b]);
        loop {
            let side = search.next_side(view);
            let x = search.sides[side].pop();
            let mut crossing = None;
            let mut scanned = 0usize;
            view.for_each_edge(x, |y, _| {
                scanned += 1;
                if crossing.is_none() && !search.claim(&self.parent, side, y) {
                    crossing = Some(y);
                }
            });
            search.sides[side].scanned += scanned;
            if let Some(y) = crossing {
                self.reroot(x);
                self.link(x, y);
                return Reconnect::Linked;
            }
            if search.sides[side].is_done() {
                search.exhausted = side;
                return Reconnect::Split;
            }
        }
    }
}

/// One side of a lock-step search: the vertices it has claimed (a queue
/// scanned from `head`; at exhaustion, the whole tree).
#[derive(Clone, Debug, Default)]
struct Side {
    queue: Vec<u32>,
    head: usize,
    root: u32,
    scanned: usize,
}

impl Side {
    fn pop(&mut self) -> u32 {
        self.head += 1;
        self.queue[self.head - 1]
    }

    fn is_done(&self) -> bool {
        self.head == self.queue.len()
    }
}

/// Reusable scratch of [`Forest::reconnect`]: one stamp per vertex plus
/// the two sides' queues. Allocated on first use, so holding one costs
/// nothing until a tree edge is actually cut.
#[derive(Clone, Debug, Default)]
pub struct Search {
    /// `stamp + side` on the vertices that side has claimed in the
    /// current search; anything else is unclaimed.
    mark: Vec<u32>,
    stamp: u32,
    sides: [Side; 2],
    exhausted: usize,
    path: Vec<u32>,
}

impl Search {
    /// Scratch for later searches; sized by the first one.
    pub fn new() -> Self {
        Self::default()
    }

    fn begin(&mut self, forest: &Forest, starts: [u32; 2]) {
        if self.mark.len() != forest.len() {
            self.mark = vec![0; forest.len()];
            self.stamp = 0;
        }
        // Two fresh stamps per search; on wrap-around the stale ones
        // are wiped so they can never alias.
        self.stamp = match self.stamp.checked_add(2) {
            Some(s) if s < u32::MAX - 1 => s,
            _ => {
                self.mark.fill(0);
                2
            }
        };
        for (i, &start) in starts.iter().enumerate() {
            let side = &mut self.sides[i];
            side.queue.clear();
            side.queue.push(start);
            side.head = 0;
            side.scanned = 0;
            side.root = forest.findroot(start);
            self.mark[start as usize] = self.stamp + i as u32;
        }
        debug_assert_ne!(
            self.sides[0].root, self.sides[1].root,
            "reconnect needs two distinct trees"
        );
    }

    /// The side to advance: the one that will have scanned fewer entries
    /// after its next vertex. Alternating by entries (not by vertices)
    /// keeps a hub on the large side from being scanned while the small
    /// side still has cheaper work.
    fn next_side<V: GraphView>(&self, view: &V) -> usize {
        let after = |s: &Side| s.scanned + view.degree(s.queue[s.head]);
        usize::from(after(&self.sides[1]) < after(&self.sides[0]))
    }

    /// True if `y` belongs to `side`'s tree, claiming it and the
    /// unclaimed vertices between it and the tree's claimed part.
    fn claim(&mut self, parent: &[u32], side: usize, y: u32) -> bool {
        let mine = self.stamp + side as u32;
        let theirs = self.stamp + 1 - side as u32;
        self.path.clear();
        let mut cur = y;
        loop {
            let m = self.mark[cur as usize];
            if m == mine {
                break;
            }
            if m == theirs {
                return false;
            }
            self.path.push(cur);
            let p = parent[cur as usize];
            if p == ROOT {
                if cur == self.sides[side].root {
                    break;
                }
                return false;
            }
            cur = p;
        }
        for &v in &self.path {
            self.mark[v as usize] = mine;
        }
        self.sides[side].queue.extend_from_slice(&self.path);
        true
    }

    /// Members of the side the last [`Reconnect::Split`] exhausted (an
    /// entire tree), in claim order.
    pub fn exhausted(&self) -> &[u32] {
        &self.sides[self.exhausted].queue
    }

    /// Adjacency entries the last search scanned, both sides together.
    pub fn scanned(&self) -> usize {
        self.sides[0].scanned + self.sides[1].scanned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrGraph;
    use snap_rmat::TimedEdge;

    fn csr(n: usize, edges: &[(u32, u32)]) -> CsrGraph {
        let edges: Vec<TimedEdge> = edges
            .iter()
            .map(|&(u, v)| TimedEdge::new(u, v, 1))
            .collect();
        CsrGraph::from_edges_undirected(n, &edges)
    }

    /// Forest over `edges` taken in order (non-tree edges skipped).
    fn forest_of(n: usize, edges: &[(u32, u32)]) -> Forest {
        let mut f = Forest::new(n);
        for &(u, v) in edges {
            f.link_edge(u, v);
        }
        f
    }

    #[test]
    fn link_and_cut_roundtrip() {
        let mut f = Forest::new(4);
        assert!(!f.connected(0, 1));
        f.link(0, 1);
        f.link(2, 1);
        assert!(f.connected(0, 2));
        assert!(f.is_tree_edge(1, 0) && !f.is_tree_edge(0, 2));
        assert!(!f.cut_edge(0, 2), "not a tree edge");
        assert!(f.cut_edge(1, 0), "either orientation");
        assert!(!f.connected(0, 2));
        assert!(f.connected(1, 2));
        assert!(!f.cut_edge(3, 3), "self-loops are never tree edges");
    }

    #[test]
    #[should_panic(expected = "link requires v to be a root")]
    fn link_non_root_panics() {
        let mut f = Forest::new(3);
        f.link(0, 1);
        f.link(0, 2);
    }

    #[test]
    fn reroot_preserves_connectivity_and_makes_root() {
        let path: Vec<(u32, u32)> = (0..19).map(|i| (i, i + 1)).collect();
        let mut f = forest_of(20, &path);
        f.reroot(7);
        assert_eq!(f.parent(7), ROOT);
        assert!((0..20u32).all(|v| f.findroot(v) == 7));
        assert_eq!(f.depth(19), 12);
    }

    #[test]
    fn reconnect_finds_the_cycle_edge() {
        let cycle = [(0, 1), (1, 2), (2, 3), (3, 0)];
        let mut f = forest_of(4, &cycle);
        assert!(!f.is_tree_edge(3, 0), "closing edge is the non-tree one");
        // Delete tree edge (1, 2) from graph and forest.
        let g = csr(4, &[(0, 1), (2, 3), (3, 0)]);
        assert!(f.cut_edge(1, 2));
        let mut s = Search::new();
        assert_eq!(f.reconnect(&g, 1, 2, &mut s), Reconnect::Linked);
        assert!(f.is_tree_edge(3, 0));
        assert!((0..4u32).all(|v| f.connected(0, v)));
    }

    #[test]
    fn reconnect_reports_the_exhausted_side() {
        // Path 0..9 cut at (6, 7): the short side is {7, 8, 9}.
        let path: Vec<(u32, u32)> = (0..9).map(|i| (i, i + 1)).collect();
        let mut f = forest_of(10, &path);
        let remaining: Vec<(u32, u32)> = path.iter().copied().filter(|&e| e != (6, 7)).collect();
        let g = csr(10, &remaining);
        assert!(f.cut_edge(6, 7));
        let mut s = Search::new();
        assert_eq!(f.reconnect(&g, 6, 7, &mut s), Reconnect::Split);
        let mut side = s.exhausted().to_vec();
        side.sort_unstable();
        assert_eq!(side, vec![7, 8, 9]);
        // Short side: 1 + 2 + 1 entries; the long side never gets ahead.
        assert!(s.scanned() <= 2 * 4, "scanned {}", s.scanned());
        assert!(!f.connected(0, 9));
    }

    #[test]
    fn reconnect_may_link_a_third_tree() {
        // Trees {0,1}, {2}, {3,4}; graph edges (1,3) and (0,1), (3,4).
        let mut f = forest_of(5, &[(0, 1), (3, 4)]);
        let g = csr(5, &[(0, 1), (3, 4), (1, 3)]);
        let mut s = Search::new();
        // Asked about {0,1} vs {2}: {2} has nothing to scan, so its side
        // is exhausted at once...
        assert_eq!(f.reconnect(&g, 0, 2, &mut s), Reconnect::Split);
        assert_eq!(s.exhausted(), &[2]);
        // ...and {0,1} vs {3,4} finds (1,3).
        assert_eq!(f.reconnect(&g, 0, 4, &mut s), Reconnect::Linked);
        assert!(f.connected(0, 4) && !f.connected(0, 2));
    }

    #[test]
    fn lock_step_alternates_by_entries_not_by_vertices() {
        // Small side: the path 1-2-3 (4 entries). Large side: 0, whose
        // two neighbours are hubs with 50 leaves each. Taking turns
        // vertex by vertex would scan a hub while the path still has a
        // cheaper vertex to offer.
        let mut edges = vec![(0, 1), (1, 2), (2, 3), (0, 4), (0, 5)];
        for leaf in 0..50u32 {
            edges.push((4, 6 + leaf));
            edges.push((5, 56 + leaf));
        }
        let mut f = forest_of(106, &edges);
        let g = csr(106, &edges[1..]);
        assert!(f.cut_edge(0, 1));
        let mut s = Search::new();
        for (a, b) in [(0, 1), (1, 0)] {
            assert_eq!(f.reconnect(&g, a, b, &mut s), Reconnect::Split);
            let mut side = s.exhausted().to_vec();
            side.sort_unstable();
            assert_eq!(side, vec![1, 2, 3]);
            assert!(s.scanned() <= 2 * 4, "scanned {}", s.scanned());
        }
    }

    #[test]
    fn child_counts_follow_link_cut_reroot_and_reconnect() {
        let recount = |f: &Forest| {
            let mut c = vec![0u32; f.len()];
            for v in 0..f.len() as u32 {
                if f.parent(v) != ROOT {
                    c[f.parent(v) as usize] += 1;
                }
            }
            c
        };
        let counts = |f: &Forest| {
            (0..f.len() as u32)
                .map(|v| f.children(v))
                .collect::<Vec<_>>()
        };
        let cycle: Vec<(u32, u32)> = (0..12).map(|i| (i, (i + 1) % 12)).collect();
        let mut f = forest_of(12, &cycle);
        assert_eq!(counts(&f), recount(&f));
        f.reroot(6);
        assert_eq!(counts(&f), recount(&f));
        f.cut(6);
        f.cut(3);
        assert_eq!(counts(&f), recount(&f));
        let g = csr(12, &cycle);
        assert!(f.cut_edge(4, 5));
        let mut s = Search::new();
        assert_eq!(f.reconnect(&g, 4, 5, &mut s), Reconnect::Linked);
        assert_eq!(counts(&f), recount(&f));
        assert_eq!(
            Forest::from_parents((0..12).map(|v| f.parent(v)).collect()).children,
            f.children
        );
    }

    #[test]
    fn search_scratch_is_reusable_across_many_searches() {
        let star: Vec<(u32, u32)> = (1..64).map(|i| (0, i)).collect();
        let mut f = forest_of(64, &star);
        let mut s = Search::new();
        let mut live = star.clone();
        // (The last leaf is left out: with the hub's adjacency empty too,
        // the two sides tie and either may finish first.)
        for leaf in 1..63u32 {
            live.retain(|&e| e != (0, leaf));
            let g = csr(64, &live);
            assert!(f.cut_edge(0, leaf));
            assert_eq!(f.reconnect(&g, 0, leaf, &mut s), Reconnect::Split);
            assert_eq!(s.exhausted(), &[leaf], "the leaf side is the small one");
            assert_eq!(s.scanned(), 0, "an isolated leaf has nothing to scan");
        }
    }
}
