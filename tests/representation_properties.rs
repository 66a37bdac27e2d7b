//! Property-based tests: every dynamic representation must behave like a
//! reference set model under arbitrary (sequential) update sequences, like
//! each other under parallel application of commuting updates, and the
//! same whether a vertex's updates arrive one by one or as a group
//! ([`DynamicAdjacency::apply_group`]).
//!
//! Scripts are generated with the workspace's seeded
//! [`snap::util::rng::XorShift64`] (no external property-testing crate is
//! reachable in this build environment); failures reproduce per seed.

use snap::prelude::*;
use snap::util::rng::XorShift64;
use std::collections::{BTreeMap, HashMap, HashSet};

mod common;

const N: usize = 64;
const CASES: u64 = 64;

/// A scripted operation on a small vertex universe.
#[derive(Clone, Debug)]
enum Op {
    Insert(u32, u32, u32),
    Delete(u32, u32),
    CheckContains(u32, u32),
    CheckDegree(u32),
}

/// Weighted op generation matching the original proptest strategy:
/// 4 inserts : 2 deletes : 1 contains-check : 1 degree-check.
fn random_script(rng: &mut XorShift64) -> Vec<Op> {
    random_script_from(rng, N)
}

/// [`random_script`] with its source vertices drawn from the first
/// `sources` only: few sources make long per-vertex runs.
fn random_script_from(rng: &mut XorShift64, sources: usize) -> Vec<Op> {
    let len = rng.next_bounded(299) as usize + 1;
    (0..len)
        .map(|_| {
            let a = rng.next_bounded(sources as u64) as u32;
            let b = rng.next_bounded(N as u64) as u32;
            match rng.next_bounded(8) {
                0..=3 => Op::Insert(a, b, rng.next_bounded(99) as u32 + 1),
                4..=5 => Op::Delete(a, b),
                6 => Op::CheckContains(a, b),
                _ => Op::CheckDegree(a),
            }
        })
        .collect()
}

fn rng_for(case: u64, salt: u64) -> XorShift64 {
    common::rng_for(0x5E_ED, salt, case)
}

/// Runs the script against a representation and a model simultaneously.
/// The model is a map vertex -> multiset of neighbors; only dedup-free
/// scripts are generated for Treap/Hybrid comparisons (see below), so a
/// set suffices there.
fn run_script<A: DynamicAdjacency>(adj: &A, ops: &[Op], dedup: bool) {
    // Model: neighbor multiset per vertex (Vec with counts).
    let mut model: HashMap<u32, HashMap<u32, usize>> = HashMap::new();
    for op in ops {
        match *op {
            Op::Insert(u, v, t) => {
                let stored_new = adj.insert(u, AdjEntry::new(v, t));
                let slot = model.entry(u).or_default().entry(v).or_insert(0);
                if dedup {
                    let was_new = *slot == 0;
                    *slot = 1;
                    assert_eq!(stored_new, was_new, "insert({u},{v}) newness mismatch");
                } else {
                    *slot += 1;
                    assert!(stored_new);
                }
            }
            Op::Delete(u, v) => {
                // Delete is key-granular: it removes every stored
                // occurrence, so undirected endpoints with drifted
                // multiplicities still agree on membership afterwards.
                let removed = adj.delete(u, v);
                let slot = model.entry(u).or_default().entry(v).or_insert(0);
                assert_eq!(removed, *slot > 0, "delete({u},{v}) mismatch");
                *slot = 0;
            }
            Op::CheckContains(u, v) => {
                let want = model.get(&u).and_then(|m| m.get(&v)).copied().unwrap_or(0) > 0;
                assert_eq!(adj.contains(u, v), want, "contains({u},{v}) mismatch");
            }
            Op::CheckDegree(u) => {
                let want: usize = model.get(&u).map(|m| m.values().sum()).unwrap_or(0);
                assert_eq!(adj.degree(u), want, "degree({u}) mismatch");
            }
        }
    }
    // Final sweep: every vertex's live neighbor set matches the model.
    for u in 0..N as u32 {
        let mut got: Vec<u32> = adj.neighbors(u).iter().map(|e| e.nbr).collect();
        got.sort_unstable();
        if dedup {
            got.dedup();
        }
        let mut want: Vec<u32> = model
            .get(&u)
            .map(|m| {
                m.iter()
                    .flat_map(|(&v, &c)| std::iter::repeat_n(v, c))
                    .collect()
            })
            .unwrap_or_default();
        want.sort_unstable();
        if dedup {
            want.dedup();
        }
        assert_eq!(got, want, "final neighborhood of {u} mismatch");
    }
}

/// Strips duplicate-inserts from a script so set-semantics representations
/// see only fresh inserts (their `insert` returns false on duplicates,
/// which the multiset model cannot express).
fn dedup_script(ops: &[Op]) -> Vec<Op> {
    let mut present: HashSet<(u32, u32)> = HashSet::new();
    let mut out = Vec::new();
    for op in ops {
        match *op {
            Op::Insert(u, v, _) => {
                if present.insert((u, v)) {
                    out.push(op.clone());
                }
            }
            Op::Delete(u, v) => {
                present.remove(&(u, v));
                out.push(op.clone());
            }
            _ => out.push(op.clone()),
        }
    }
    out
}

#[test]
fn dynarr_matches_multiset_model() {
    for case in 0..CASES {
        let ops = random_script(&mut rng_for(case, 1));
        let adj = DynArr::new(N, &CapacityHints::new(128));
        run_script(&adj, &ops, false);
    }
}

#[test]
fn fixed_dynarr_matches_multiset_model() {
    for case in 0..CASES {
        let ops = random_script(&mut rng_for(case, 2));
        // Worst case: every op inserts at the same vertex.
        let caps = vec![300u32; N];
        let adj = FixedDynArr::with_capacities(&caps);
        run_script(&adj, &ops, false);
    }
}

#[test]
fn treap_adj_matches_set_model() {
    for case in 0..CASES {
        let ops = random_script(&mut rng_for(case, 3));
        let adj = TreapAdj::new(N, &CapacityHints::new(128));
        run_script(&adj, &dedup_script(&ops), true);
    }
}

#[test]
fn hybrid_matches_set_model_across_thresholds() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 4);
        let ops = random_script(&mut rng);
        let thresh = rng.next_bounded(63) as u32 + 1;
        let adj = HybridAdj::new(N, &CapacityHints::new(128).with_degree_thresh(thresh));
        run_script(&adj, &dedup_script(&ops), true);
    }
}

#[test]
fn representations_agree_pairwise() {
    for case in 0..CASES {
        let ops = random_script(&mut rng_for(case, 5));
        let script = dedup_script(&ops);
        let a = DynArr::new(N, &CapacityHints::new(128));
        let t = TreapAdj::new(N, &CapacityHints::new(128));
        let h = HybridAdj::new(N, &CapacityHints::new(128).with_degree_thresh(8));
        for op in &script {
            match *op {
                Op::Insert(u, v, ts) => {
                    a.insert(u, AdjEntry::new(v, ts));
                    t.insert(u, AdjEntry::new(v, ts));
                    h.insert(u, AdjEntry::new(v, ts));
                }
                Op::Delete(u, v) => {
                    a.delete(u, v);
                    t.delete(u, v);
                    h.delete(u, v);
                }
                _ => {}
            }
        }
        for u in 0..N as u32 {
            let norm = |adj: &dyn DynamicAdjacency| {
                let mut ns: Vec<u32> = adj.neighbors(u).iter().map(|e| e.nbr).collect();
                ns.sort_unstable();
                ns.dedup();
                ns
            };
            let (na, nt, nh) = (norm(&a), norm(&t), norm(&h));
            assert_eq!(&na, &nt, "case {case}: DynArr vs Treap at {u}");
            assert_eq!(&na, &nh, "case {case}: DynArr vs Hybrid at {u}");
        }
    }
}

/// Applies `ops` to `one` op by op and to `grouped` through
/// `apply_group` — the script cut into chunks at `cuts`, each chunk's
/// ops handed over per source vertex — and checks after every chunk that
/// the same ops changed the adjacency and every vertex is in the same
/// state: entry sequence, degree, and whatever `state` reads (and
/// verifies) beyond them.
fn check_groups_equal_one_by_one<A: DynamicAdjacency, S: PartialEq + std::fmt::Debug>(
    (one, grouped): (&A, &A),
    ops: &[Op],
    cuts: &[usize],
    state: impl Fn(&A, u32) -> S,
) {
    let mut start = 0;
    for &end in cuts.iter().chain([&ops.len()]) {
        let mut want = Vec::new();
        let mut groups: BTreeMap<u32, Vec<HalfUpdate>> = BTreeMap::new();
        for (i, op) in ops[start..end].iter().enumerate() {
            let (changed, half) = match *op {
                Op::Insert(u, v, t) => {
                    let e = AdjEntry::new(v, t);
                    (one.insert(u, e), HalfUpdate::insert(u, e, i))
                }
                Op::Delete(u, v) => (one.delete(u, v), HalfUpdate::delete(u, v, i)),
                Op::CheckContains(..) | Op::CheckDegree(_) => continue,
            };
            if changed {
                want.push(i);
            }
            groups.entry(half.src).or_default().push(half);
        }
        let mut got = Vec::new();
        for (u, group) in &mut groups {
            grouped.apply_group(*u, group, &mut |i| got.push(i));
        }
        got.sort_unstable();
        assert_eq!(got, want, "ops {start}..{end}: which of them changed");
        for u in 0..N as u32 {
            assert_eq!(
                (grouped.neighbors(u), grouped.degree(u), state(grouped, u)),
                (one.neighbors(u), one.degree(u), state(one, u)),
                "vertex {u} after ops {start}..{end}"
            );
        }
        start = end;
    }
}

/// Random scripts — over all sources (groups of an op or two, the
/// serving shape) and over four (groups of dozens, the bulk shape) — cut
/// at random boundaries.
fn check_random_groups<A: DynamicAdjacency, S: PartialEq + std::fmt::Debug>(
    salt: u64,
    make: impl Fn() -> A,
    state: impl Fn(&A, u32) -> S,
) {
    for case in 0..CASES {
        let mut rng = rng_for(case, salt);
        for sources in [N, 4] {
            let ops = random_script_from(&mut rng, sources);
            let mut cuts: Vec<usize> = (0..rng.next_bounded(6))
                .map(|_| rng.next_bounded(ops.len() as u64) as usize)
                .collect();
            cuts.sort_unstable();
            check_groups_equal_one_by_one((&make(), &make()), &ops, &cuts, &state);
        }
    }
}

fn hybrid(thresh: u32) -> HybridAdj {
    HybridAdj::new(N, &CapacityHints::new(128).with_degree_thresh(thresh))
}

/// A hybrid vertex's form, read after its invariants (array below the
/// threshold, valid treap — so after every bulk rebuild) are verified.
fn hybrid_form(a: &HybridAdj, u: u32) -> bool {
    a.check_invariants(u).unwrap();
    a.is_treap(u)
}

#[test]
fn apply_group_equals_one_by_one_on_arrays() {
    check_random_groups(6, || DynArr::new(N, &CapacityHints::new(128)), |_, _| ());
    check_random_groups(7, || FixedDynArr::with_capacities(&[300u32; N]), |_, _| ());
}

#[test]
fn apply_group_equals_one_by_one_on_treaps() {
    check_random_groups(
        8,
        || TreapAdj::new(N, &CapacityHints::new(128)),
        |a, u| a.with_treap(u, |t| t.check_invariants().unwrap()),
    );
}

#[test]
fn apply_group_equals_one_by_one_on_hybrid_across_thresholds() {
    // 32 is the paper's value; the library default is the measured one.
    for thresh in [1, 2, 4, 32, CapacityHints::new(0).degree_thresh] {
        check_random_groups(9 + thresh as u64, || hybrid(thresh), hybrid_form);
    }
}

#[test]
fn apply_group_scripted_edge_cases_on_hybrid() {
    // Threshold 8: arrays promote at 8 entries, treaps demote below 2.
    let inserts = |keys: std::ops::Range<u32>| keys.map(|k| Op::Insert(0, k, k + 1));
    let deletes = |keys: std::ops::Range<u32>| keys.map(|k| Op::Delete(0, k));
    let run = |ops: Vec<Op>, cuts: &[usize]| {
        let (one, grouped) = (hybrid(8), hybrid(8));
        check_groups_equal_one_by_one((&one, &grouped), &ops, cuts, hybrid_form);
        grouped
    };

    // Promotes mid-group: the first 8 inserts fill the array, the other
    // 32 meet a treap of 8 and are merged into it at once.
    let a = run(inserts(0..40).collect(), &[]);
    assert!(a.is_treap(0));
    assert_eq!(a.degree(0), 40);

    // Demotes mid-group: a treap of 9 loses 8 keys (an array again from
    // the 8th delete on), then gains 3 by blind appends.
    let ops = inserts(0..9).chain(deletes(0..8)).chain(inserts(20..23));
    let a = run(ops.collect(), &[9]);
    assert!(!a.is_treap(0));
    let left: Vec<u32> = a.neighbors(0).iter().map(|e| e.nbr).collect();
    assert_eq!(left, [8, 20, 21, 22]);

    // Demotes and promotes again inside one group.
    let ops = inserts(0..9)
        .chain(deletes(0..9))
        .chain(inserts(30..50))
        .chain(deletes(30..35));
    let a = run(ops.collect(), &[9]);
    assert!(a.is_treap(0));
    assert_eq!(a.degree(0), 15);

    // A key deleted and re-inserted in one group: both ops change the
    // adjacency and the later timestamp stays. The group is large
    // against the treap of 12, so this is the merge path.
    let mut ops: Vec<Op> = inserts(0..12).collect();
    ops.extend([Op::Delete(0, 5), Op::Insert(0, 5, 77), Op::Insert(0, 5, 78)]);
    ops.extend(inserts(100..110));
    ops.extend([Op::Delete(0, 105), Op::Delete(0, 105), Op::Delete(0, 999)]);
    let a = run(ops, &[12]);
    assert!(a.neighbors(0).contains(&AdjEntry::new(5, 78)));
    assert_eq!(a.degree(0), 12 + 10 - 1);

    // The same against a treap of 200: a small group, per-key descents.
    let mut ops: Vec<Op> = inserts(0..200).collect();
    ops.extend([
        Op::Delete(0, 5),
        Op::Insert(0, 5, 77),
        Op::Insert(0, 300, 1),
    ]);
    let a = run(ops, &[200]);
    assert!(a.neighbors(0).contains(&AdjEntry::new(5, 77)));
    assert_eq!(a.degree(0), 201);

    // A key repeated below the threshold: the array appends blindly, both
    // ops report a change, and the promotion the group then causes
    // collapses the copies (latest timestamp wins).
    let ops = vec![
        Op::Insert(0, 7, 1),
        Op::Insert(0, 7, 2),
        Op::Insert(0, 3, 3),
    ];
    let a = run(ops, &[]);
    let stored: Vec<(u32, u32)> = a.neighbors(0).iter().map(|e| (e.nbr, e.ts)).collect();
    assert_eq!(stored, [(7, 1), (7, 2), (3, 3)]);
    let ops = vec![Op::Insert(0, 7, 1), Op::Insert(0, 7, 2)];
    let a = run(ops.into_iter().chain(inserts(10..16)).collect(), &[]);
    assert!(a.is_treap(0));
    assert_eq!(a.degree(0), 7, "8 entries, 7 keys");
    assert!(a.neighbors(0).contains(&AdjEntry::new(7, 2)));

    // The one-pass array groups. Each group below meets an array of 3 or
    // 4 entries with two deletes or more and too few inserts to promote
    // it; the last one could promote, so it runs one by one.
    let after_four = |group: &[Op]| {
        let ops = [inserts(0..4).collect(), group.to_vec()].concat();
        let a = run(ops, &[4]);
        let left: Vec<u32> = a.neighbors(0).iter().map(|e| e.nbr).collect();
        (left, a.is_treap(0))
    };

    // A key stored twice by blind appends, deleted twice: the first
    // delete takes both copies, the second changes nothing.
    let mut ops = vec![
        Op::Insert(0, 7, 1),
        Op::Insert(0, 7, 2),
        Op::Insert(0, 3, 3),
    ];
    ops.extend([Op::Delete(0, 7), Op::Delete(0, 7)]);
    assert_eq!(run(ops, &[3]).neighbors(0), [AdjEntry::new(3, 3)]);

    // Delete, insert, delete of one key: all three change the array.
    let group = [Op::Delete(0, 2), Op::Insert(0, 2, 9), Op::Delete(0, 2)];
    assert_eq!(after_four(&group), (vec![0, 1, 3], false));

    // An insert of a new key, then its delete; a later insert survives.
    let group = [
        Op::Insert(0, 50, 1),
        Op::Delete(0, 50),
        Op::Delete(0, 1),
        Op::Insert(0, 50, 2),
    ];
    assert_eq!(after_four(&group), (vec![0, 2, 3, 50], false));

    // A delete of an absent key changes nothing; the other one does.
    let group = [Op::Delete(0, 99), Op::Delete(0, 1)];
    assert_eq!(after_four(&group), (vec![0, 2, 3], false));

    // 4 entries + 4 inserts reach the threshold: the array promotes at
    // the 4th insert and the deletes meet a treap.
    let group: Vec<Op> = inserts(10..14).chain(deletes(0..2)).collect();
    assert_eq!(after_four(&group), (vec![2, 3, 10, 11, 12, 13], true));
}
