//! A randomized treap (Seidel–Aragon, Algorithmica 1996) over `u32` keys
//! with `u32` payloads.
//!
//! The paper (Section 2.1.4) stores the adjacency lists of high-degree
//! vertices as treaps: a binary search tree on the neighbor id with
//! heap-ordered random priorities, giving expected `O(log d)` insertion,
//! deletion, and search.
//!
//! Nodes live in a flat `Vec` addressed by `u32` indices (cache-friendly,
//! borrow-checker-friendly, no per-node allocation); deletions recycle
//! slots through a free list.
//!
//! Batched updates ([`Treap::apply_group`]) that are large against the
//! treap do not descend per key: the group is sorted by key, merged
//! against the in-order contents, and the treap is rebuilt in place with
//! the `O(n)` rightmost-spine construction [`Treap::from_sorted`] uses.

use snap_util::rng::XorShift64;
use std::cell::RefCell;

/// Sentinel for "no child".
const NIL: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Node {
    key: u32,
    val: u32,
    prio: u32,
    left: u32,
    right: u32,
}

/// A treap mapping `u32` keys to `u32` values.
#[derive(Clone, Debug)]
pub struct Treap {
    nodes: Vec<Node>,
    root: u32,
    free: Vec<u32>,
    len: usize,
    rng: XorShift64,
}

/// One operation of a [`Treap::apply_group`] group.
pub trait GroupOp {
    /// The key inserted or deleted.
    fn key(&self) -> u32;
    /// The value an insert stores (unused by a delete).
    fn val(&self) -> u32;
    /// True for a delete, false for an insert.
    fn is_delete(&self) -> bool;
    /// Position in application order; unique within a group.
    fn seq(&self) -> u32;
}

/// A group of at least `len / BULK_RATIO` operations is merged and the
/// treap rebuilt; a smaller one descends per key. The rebuild streams
/// `len + k` entries through sequential memory, a descent pays a cache
/// miss per level on a cold hub — about this ratio apart.
const BULK_RATIO: usize = 8;

/// Node indices a [`NodeStack`] holds inline. A treap's depth and its
/// rightmost spine are `O(log n)` in expectation — about 40 at a million
/// keys — so traversals of adjacency treaps stay off the heap.
const INLINE_DEPTH: usize = 64;

/// The explicit stack of the in-order traversal and the spine build:
/// inline slots first, a heap `Vec` past them, so neither allocates at
/// expected depths and neither overflows at any.
struct NodeStack {
    inline: [u32; INLINE_DEPTH],
    len: usize,
    spill: Vec<u32>,
}

impl NodeStack {
    fn new() -> Self {
        Self {
            inline: [NIL; INLINE_DEPTH],
            len: 0,
            spill: Vec::new(),
        }
    }

    fn push(&mut self, t: u32) {
        if self.len < INLINE_DEPTH {
            self.inline[self.len] = t;
        } else {
            self.spill.push(t);
        }
        self.len += 1;
    }

    fn last(&self) -> Option<u32> {
        match self.len {
            0 => None,
            len if len <= INLINE_DEPTH => Some(self.inline[len - 1]),
            _ => self.spill.last().copied(),
        }
    }

    fn pop(&mut self) -> Option<u32> {
        let top = self.last()?;
        self.len -= 1;
        if self.len >= INLINE_DEPTH {
            self.spill.pop();
        }
        Some(top)
    }
}

/// Buffers of the bulk paths, one set per thread and reused across
/// calls: the contents going in and the contents coming out.
#[derive(Default)]
struct Scratch {
    old: Vec<(u32, u32)>,
    merged: Vec<(u32, u32)>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Runs `f` on the thread's [`Scratch`] — or on a throw-away one when a
/// caller's callback re-entered a bulk path while it is borrowed.
fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut Scratch::default()),
    })
}

impl Treap {
    /// Creates an empty treap. `seed` drives priority generation; two treaps
    /// with the same seed and insertion sequence are structurally identical.
    pub fn new(seed: u64) -> Self {
        Self {
            nodes: Vec::new(),
            root: NIL,
            free: Vec::new(),
            len: 0,
            rng: XorShift64::new(seed),
        }
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes of node storage currently reserved (footprint reporting).
    pub fn reserved_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node>()
    }

    fn alloc_node(&mut self, key: u32, val: u32, prio: u32) -> u32 {
        let node = Node {
            key,
            val,
            prio,
            left: NIL,
            right: NIL,
        };
        if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize] = node;
            idx
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        }
    }

    /// Merges subtrees `l` and `r` where every key in `l` < every key in `r`.
    fn merge(&mut self, l: u32, r: u32) -> u32 {
        if l == NIL {
            return r;
        }
        if r == NIL {
            return l;
        }
        if self.nodes[l as usize].prio >= self.nodes[r as usize].prio {
            let lr = self.nodes[l as usize].right;
            let merged = self.merge(lr, r);
            self.nodes[l as usize].right = merged;
            l
        } else {
            let rl = self.nodes[r as usize].left;
            let merged = self.merge(l, rl);
            self.nodes[r as usize].left = merged;
            r
        }
    }

    /// Looks up `key`, returning its value.
    pub fn get(&self, key: u32) -> Option<u32> {
        let mut cur = self.root;
        while cur != NIL {
            let n = &self.nodes[cur as usize];
            cur = match key.cmp(&n.key) {
                std::cmp::Ordering::Less => n.left,
                std::cmp::Ordering::Greater => n.right,
                std::cmp::Ordering::Equal => return Some(n.val),
            };
        }
        None
    }

    /// True if `key` is present.
    pub fn contains(&self, key: u32) -> bool {
        self.get(key).is_some()
    }

    /// Inserts `key -> val`. Returns `true` if the key was new; an existing
    /// key has its value overwritten and `false` is returned.
    ///
    /// Single descending pass with rotations on the way back up (the
    /// classical Seidel–Aragon insertion) — cheaper than the
    /// search + split + double-merge formulation because the tree is
    /// traversed once.
    pub fn insert(&mut self, key: u32, val: u32) -> bool {
        let root = self.root;
        let (new_root, inserted) = self.insert_rec(root, key, val);
        self.root = new_root;
        if inserted {
            self.len += 1;
        }
        inserted
    }

    fn insert_rec(&mut self, t: u32, key: u32, val: u32) -> (u32, bool) {
        if t == NIL {
            let prio = self.rng.next_u64() as u32;
            return (self.alloc_node(key, val, prio), true);
        }
        let node = self.nodes[t as usize];
        match key.cmp(&node.key) {
            std::cmp::Ordering::Equal => {
                self.nodes[t as usize].val = val;
                (t, false)
            }
            std::cmp::Ordering::Less => {
                let (nl, ins) = self.insert_rec(node.left, key, val);
                self.nodes[t as usize].left = nl;
                if self.nodes[nl as usize].prio > self.nodes[t as usize].prio {
                    (self.rotate_right(t), ins)
                } else {
                    (t, ins)
                }
            }
            std::cmp::Ordering::Greater => {
                let (nr, ins) = self.insert_rec(node.right, key, val);
                self.nodes[t as usize].right = nr;
                if self.nodes[nr as usize].prio > self.nodes[t as usize].prio {
                    (self.rotate_left(t), ins)
                } else {
                    (t, ins)
                }
            }
        }
    }

    /// Right rotation: `t`'s left child becomes the subtree root.
    fn rotate_right(&mut self, t: u32) -> u32 {
        let l = self.nodes[t as usize].left;
        self.nodes[t as usize].left = self.nodes[l as usize].right;
        self.nodes[l as usize].right = t;
        l
    }

    /// Left rotation: `t`'s right child becomes the subtree root.
    fn rotate_left(&mut self, t: u32) -> u32 {
        let r = self.nodes[t as usize].right;
        self.nodes[t as usize].right = self.nodes[r as usize].left;
        self.nodes[r as usize].left = t;
        r
    }

    /// Removes `key`, returning its value if it was present. The node's
    /// slot is recycled — deletion genuinely releases storage, the property
    /// that makes treaps attractive for delete-heavy workloads.
    pub fn delete(&mut self, key: u32) -> Option<u32> {
        let root = self.root;
        let (new_root, removed) = self.delete_rec(root, key);
        self.root = new_root;
        if let Some((idx, val)) = removed {
            self.free.push(idx);
            self.len -= 1;
            Some(val)
        } else {
            None
        }
    }

    fn delete_rec(&mut self, t: u32, key: u32) -> (u32, Option<(u32, u32)>) {
        if t == NIL {
            return (NIL, None);
        }
        let n = self.nodes[t as usize];
        match key.cmp(&n.key) {
            std::cmp::Ordering::Less => {
                let (nl, rem) = self.delete_rec(n.left, key);
                self.nodes[t as usize].left = nl;
                (t, rem)
            }
            std::cmp::Ordering::Greater => {
                let (nr, rem) = self.delete_rec(n.right, key);
                self.nodes[t as usize].right = nr;
                (t, rem)
            }
            std::cmp::Ordering::Equal => {
                let merged = self.merge(n.left, n.right);
                (merged, Some((t, n.val)))
            }
        }
    }

    /// In-order (ascending key) traversal into a vector of `(key, val)`.
    pub fn to_sorted_vec(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.len);
        self.for_each(|key, val| out.push((key, val)));
        out
    }

    /// Calls `f` for every `(key, val)` in ascending key order. The stack
    /// is explicit and inline up to a depth no adjacency treap is expected
    /// to reach: the traversal does not allocate there and cannot overflow
    /// past it.
    pub fn for_each(&self, mut f: impl FnMut(u32, u32)) {
        let mut stack = NodeStack::new();
        let mut cur = self.root;
        loop {
            while cur != NIL {
                stack.push(cur);
                cur = self.nodes[cur as usize].left;
            }
            let Some(t) = stack.pop() else { break };
            let n = &self.nodes[t as usize];
            f(n.key, n.val);
            cur = n.right;
        }
    }

    /// Bulk-builds a treap from strictly ascending `(key, val)` pairs in
    /// `O(n)` using the rightmost-spine (Cartesian tree) construction.
    ///
    /// # Panics
    /// If keys are not strictly ascending.
    pub fn from_sorted(pairs: &[(u32, u32)], seed: u64) -> Self {
        for w in pairs.windows(2) {
            assert!(
                w[0].0 < w[1].0,
                "from_sorted requires strictly ascending keys"
            );
        }
        let mut t = Treap::new(seed);
        t.rebuild_sorted(pairs);
        t
    }

    /// Builds a treap from pairs in any order; of several pairs with one
    /// key the last wins (insert-overwrite semantics). Sort + dedup +
    /// `O(n)` bulk build, in the thread's scratch buffers.
    pub fn from_unsorted(pairs: impl IntoIterator<Item = (u32, u32)>, seed: u64) -> Self {
        with_scratch(|Scratch { old, merged }| {
            old.clear();
            old.extend(pairs);
            // Stable, so the last pair of a key's run is the latest.
            old.sort_by_key(|p| p.0);
            merged.clear();
            for &p in old.iter() {
                match merged.last_mut() {
                    Some(last) if last.0 == p.0 => *last = p,
                    _ => merged.push(p),
                }
            }
            let mut t = Treap::new(seed);
            t.rebuild_sorted(merged);
            t
        })
    }

    /// Replaces the contents with the strictly ascending `pairs`, in
    /// place and at exact capacity: the rightmost spine is a stack,
    /// priorities are random and heap-fixed on push.
    fn rebuild_sorted(&mut self, pairs: &[(u32, u32)]) {
        debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
        self.nodes.clear();
        self.free.clear();
        self.nodes.reserve_exact(pairs.len());
        let mut spine = NodeStack::new();
        for (i, &(key, val)) in pairs.iter().enumerate() {
            let i = i as u32;
            let mut node = Node {
                key,
                val,
                prio: self.rng.next_u64() as u32,
                left: NIL,
                right: NIL,
            };
            // Spine nodes of lower priority become the new node's left
            // subtree; the last one popped is its root.
            while let Some(top) = spine.last() {
                if self.nodes[top as usize].prio >= node.prio {
                    break;
                }
                spine.pop();
                node.left = top;
            }
            if let Some(top) = spine.last() {
                self.nodes[top as usize].right = i;
            }
            self.nodes.push(node);
            spine.push(i);
        }
        self.root = NIL;
        while let Some(top) = spine.pop() {
            self.root = top;
        }
        self.len = pairs.len();
    }

    /// Applies a group of operations on this treap with the outcome of
    /// applying them one by one in [`GroupOp::seq`] order, calling
    /// `on_changed` for every operation that changed the key set (an
    /// insert of an absent key, a delete of a present one; of several
    /// inserts of one key the last value stays).
    ///
    /// A group that is small against the treap descends per key. A large
    /// one is sorted by key (the slice is reordered), merged against the
    /// in-order contents while each key's operations replay in order, and
    /// the treap is rebuilt in place — `O(len + k log k)` over sequential
    /// memory instead of `k` cold descents with rotations. The choice is
    /// made from the two sizes alone.
    pub fn apply_group<O: GroupOp>(&mut self, ops: &mut [O], mut on_changed: impl FnMut(&O)) {
        if ops.len() * BULK_RATIO < self.len {
            for op in ops.iter() {
                let changed = if op.is_delete() {
                    self.delete(op.key()).is_some()
                } else {
                    self.insert(op.key(), op.val())
                };
                if changed {
                    on_changed(op);
                }
            }
            return;
        }
        // `seq` is unique in a group, so this is the stable order by key.
        ops.sort_unstable_by_key(|op| (op.key(), op.seq()));
        with_scratch(|Scratch { old, merged }| {
            old.clear();
            self.for_each(|key, val| old.push((key, val)));
            merged.clear();
            let mut kept = old.iter().copied().peekable();
            let mut ops = ops.iter().peekable();
            while let Some(first) = ops.peek() {
                let key = first.key();
                while let Some(below) = kept.next_if(|p| p.0 < key) {
                    merged.push(below);
                }
                let mut val = kept.next_if(|p| p.0 == key).map(|p| p.1);
                while let Some(op) = ops.next_if(|op| op.key() == key) {
                    let changed = if op.is_delete() {
                        val.take().is_some()
                    } else {
                        val.replace(op.val()).is_none()
                    };
                    if changed {
                        on_changed(op);
                    }
                }
                merged.extend(val.map(|val| (key, val)));
            }
            merged.extend(kept);
            self.rebuild_sorted(merged);
        });
    }

    /// Verifies the BST-order and heap-order invariants (test support).
    pub fn check_invariants(&self) -> Result<(), String> {
        fn walk(
            t: &Treap,
            node: u32,
            lo: Option<u32>,
            hi: Option<u32>,
            count: &mut usize,
        ) -> Result<(), String> {
            if node == NIL {
                return Ok(());
            }
            *count += 1;
            let n = &t.nodes[node as usize];
            if let Some(lo) = lo {
                if n.key <= lo {
                    return Err(format!("BST violation: key {} <= lower bound {lo}", n.key));
                }
            }
            if let Some(hi) = hi {
                if n.key >= hi {
                    return Err(format!("BST violation: key {} >= upper bound {hi}", n.key));
                }
            }
            for child in [n.left, n.right] {
                if child != NIL && t.nodes[child as usize].prio > n.prio {
                    return Err(format!(
                        "heap violation at key {}: child priority exceeds parent",
                        n.key
                    ));
                }
            }
            walk(t, n.left, lo, Some(n.key), count)?;
            walk(t, n.right, Some(n.key), hi, count)
        }
        let mut count = 0;
        walk(self, self.root, None, None, &mut count)?;
        if count != self.len {
            return Err(format!("len {} != reachable nodes {count}", self.len));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_delete_roundtrip() {
        let mut t = Treap::new(1);
        assert!(t.insert(5, 50));
        assert!(t.insert(3, 30));
        assert!(t.insert(8, 80));
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(5), Some(50));
        assert_eq!(t.get(3), Some(30));
        assert_eq!(t.get(9), None);
        assert_eq!(t.delete(3), Some(30));
        assert_eq!(t.get(3), None);
        assert_eq!(t.len(), 2);
        assert_eq!(t.delete(3), None);
        t.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_insert_overwrites() {
        let mut t = Treap::new(2);
        assert!(t.insert(7, 1));
        assert!(!t.insert(7, 2));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(7), Some(2));
    }

    #[test]
    fn sorted_extraction_is_sorted() {
        let mut t = Treap::new(3);
        for k in [9u32, 1, 7, 3, 5, 2, 8, 0, 4, 6] {
            t.insert(k, k * 10);
        }
        let v = t.to_sorted_vec();
        assert_eq!(v.len(), 10);
        assert!(v.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(v[0], (0, 0));
        assert_eq!(v[9], (9, 90));
    }

    #[test]
    fn deleted_slots_are_recycled() {
        let mut t = Treap::new(4);
        for k in 0..100 {
            t.insert(k, k);
        }
        let slots_before = t.nodes.len();
        for k in 0..50 {
            t.delete(k);
        }
        for k in 100..150 {
            t.insert(k, k);
        }
        assert_eq!(
            t.nodes.len(),
            slots_before,
            "free list should recycle slots"
        );
        t.check_invariants().unwrap();
    }

    #[test]
    fn invariants_hold_under_churn() {
        let mut t = Treap::new(5);
        let mut rng = XorShift64::new(99);
        let mut model = std::collections::BTreeMap::new();
        for _ in 0..5000 {
            let k = rng.next_bounded(256) as u32;
            if rng.next_bool(0.6) {
                let v = rng.next_u64() as u32;
                assert_eq!(t.insert(k, v), model.insert(k, v).is_none());
            } else {
                assert_eq!(t.delete(k), model.remove(&k));
            }
        }
        t.check_invariants().unwrap();
        let pairs: Vec<(u32, u32)> = model.into_iter().collect();
        assert_eq!(t.to_sorted_vec(), pairs);
    }

    #[test]
    fn from_sorted_builds_valid_treap() {
        let pairs: Vec<(u32, u32)> = (0..1000).map(|k| (k * 2, k)).collect();
        let t = Treap::from_sorted(&pairs, 6);
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 1000);
        assert_eq!(t.to_sorted_vec(), pairs);
        assert_eq!(t.get(500), Some(250));
        assert_eq!(t.get(501), None);
    }

    #[test]
    fn a_node_is_twenty_bytes() {
        // Key, value, priority and two child links; nothing else.
        let pairs: Vec<(u32, u32)> = (0..1000).map(|k| (k, k)).collect();
        assert_eq!(Treap::from_sorted(&pairs, 12).reserved_bytes(), 20_000);
    }

    #[test]
    fn from_sorted_empty() {
        let t = Treap::from_sorted(&[], 7);
        assert!(t.is_empty());
        t.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn from_sorted_rejects_duplicates() {
        Treap::from_sorted(&[(1, 0), (1, 1)], 8);
    }

    #[test]
    fn expected_logarithmic_depth() {
        // Random priorities keep depth O(log n) in expectation; with n=4096
        // a depth beyond 64 (4.6x the ~13.8 expected) indicates broken
        // priority handling.
        let mut t = Treap::new(9);
        for k in 0..4096u32 {
            t.insert(k, k); // ascending insertion: worst case for a plain BST
        }
        fn depth(t: &Treap, node: u32) -> usize {
            if node == NIL {
                return 0;
            }
            let n = &t.nodes[node as usize];
            1 + depth(t, n.left).max(depth(t, n.right))
        }
        let d = depth(&t, t.root);
        assert!(d < 64, "depth {d} far above expected O(log n)");
    }

    #[test]
    fn for_each_matches_sorted_vec() {
        let mut t = Treap::new(10);
        for k in [5u32, 2, 9, 1] {
            t.insert(k, k + 100);
        }
        let mut collected = Vec::new();
        t.for_each(|k, v| collected.push((k, v)));
        assert_eq!(collected, t.to_sorted_vec());
    }
}

#[cfg(test)]
mod bulk_tests {
    use super::*;
    use std::collections::BTreeMap;

    #[derive(Clone, Copy, Debug, PartialEq)]
    struct Op {
        key: u32,
        val: u32,
        delete: bool,
        seq: u32,
    }

    impl GroupOp for Op {
        fn key(&self) -> u32 {
            self.key
        }
        fn val(&self) -> u32 {
            self.val
        }
        fn is_delete(&self) -> bool {
            self.delete
        }
        fn seq(&self) -> u32 {
            self.seq
        }
    }

    fn random_group(rng: &mut XorShift64, len: usize, keys: u64) -> Vec<Op> {
        (0..len as u32)
            .map(|seq| Op {
                key: rng.next_bounded(keys) as u32,
                val: rng.next_u64() as u32,
                delete: rng.next_bool(0.4),
                seq,
            })
            .collect()
    }

    #[test]
    fn node_stack_spills_past_its_inline_slots_and_back() {
        let mut s = NodeStack::new();
        assert_eq!((s.last(), s.pop()), (None, None));
        let count = 3 * INLINE_DEPTH as u32;
        for i in 0..count {
            s.push(i);
            assert_eq!(s.last(), Some(i));
        }
        for i in (0..count).rev() {
            assert_eq!(s.pop(), Some(i));
        }
        assert_eq!(s.pop(), None);
        assert!(s.spill.is_empty());
    }

    #[test]
    fn apply_group_matches_one_by_one_on_either_side_of_the_ratio() {
        let mut rng = XorShift64::new(77);
        // Few keys: repeats, re-inserts after deletes, deletes of absent
        // keys inside one group. Group sizes on both sides of BULK_RATIO.
        for (prefill, group) in [(0, 1), (0, 40), (200, 3), (200, 30), (200, 400), (30, 64)] {
            for round in 0..8 {
                let mut bulk = Treap::new(round);
                let mut model = BTreeMap::new();
                for op in random_group(&mut rng, prefill, 256) {
                    bulk.insert(op.key, op.val);
                    model.insert(op.key, op.val);
                }
                let mut one_by_one = bulk.clone();
                let ops = random_group(&mut rng, group, 256);
                let mut want = Vec::new();
                for op in &ops {
                    let changed = if op.delete {
                        model.remove(&op.key).is_some()
                    } else {
                        model.insert(op.key, op.val).is_none()
                    };
                    let same = if op.delete {
                        one_by_one.delete(op.key).is_some()
                    } else {
                        one_by_one.insert(op.key, op.val)
                    };
                    assert_eq!(changed, same);
                    if changed {
                        want.push(op.seq);
                    }
                }
                let mut got = Vec::new();
                bulk.apply_group(&mut ops.clone(), |op| got.push(op.seq));
                got.sort_unstable();
                assert_eq!(got, want, "prefill {prefill} group {group}");
                bulk.check_invariants().unwrap();
                let contents: Vec<(u32, u32)> = model.into_iter().collect();
                assert_eq!(bulk.to_sorted_vec(), contents);
                assert_eq!(one_by_one.to_sorted_vec(), contents);
            }
        }
    }

    #[test]
    fn bulk_rebuild_is_in_place_at_exact_capacity() {
        let mut t = Treap::new(3);
        for k in 0..10u32 {
            t.insert(k, 0);
        }
        t.delete(4);
        let mut ops: Vec<Op> = (100..1100u32)
            .map(|k| Op {
                key: k,
                val: k,
                delete: false,
                seq: k,
            })
            .collect();
        t.apply_group(&mut ops, |_| {});
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 1009);
        assert_eq!(t.nodes.capacity(), 1009);
        assert!(t.free.is_empty(), "recycled slots do not survive a rebuild");
        assert_eq!(t.to_sorted_vec()[9], (100, 100));
    }

    #[test]
    fn from_unsorted_keeps_the_last_pair_of_a_key() {
        let t = Treap::from_unsorted([(5, 1), (2, 7), (5, 2), (9, 0), (2, 8), (5, 3)], 11);
        t.check_invariants().unwrap();
        assert_eq!(t.to_sorted_vec(), vec![(2, 8), (5, 3), (9, 0)]);
        assert!(Treap::from_unsorted([], 11).is_empty());
    }

    #[test]
    fn a_callback_may_reenter_the_bulk_path() {
        let mut outer = Treap::new(1);
        let mut ops = random_group(&mut XorShift64::new(5), 32, 1 << 20);
        let mut inner_len = 0;
        outer.apply_group(&mut ops, |_| {
            inner_len = Treap::from_unsorted([(1, 1), (1, 2)], 2).len();
        });
        assert_eq!(inner_len, 1);
        outer.check_invariants().unwrap();
    }
}
