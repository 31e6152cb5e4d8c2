//! Property tests for the data-parallel miner and the tree merge operator.
//!
//! The parallel miner partitions the transaction list into contiguous
//! shards, mines each independently, and combines the shard trees with
//! `PrefixTree::merge` (additive cross-shard supports, DESIGN.md §6). These
//! tests pin the whole pipeline against the brute-force reference miner and
//! the sequential `IstaMiner` across shard counts, pruning policies, and a
//! minimum-support sweep, plus the degenerate shapes (empty shards, empty
//! databases, a single transaction).

use fim_core::reference::mine_reference;
use fim_core::{ClosedMiner, Item, MiningResult, RecodedDatabase};
use fim_ista::{IstaMiner, ParallelConfig, ParallelIstaMiner, PrefixTree, PrunePolicy};
use proptest::collection::vec;
use proptest::prelude::*;

/// Shard counts exercised everywhere: sequential fallback, even/odd splits,
/// and more shards than most generated databases have transactions.
const SHARDS: [usize; 4] = [1, 2, 3, 7];

/// Strategy: a database of up to 14 transactions over up to 9 items.
fn small_db() -> impl Strategy<Value = RecodedDatabase> {
    (2u32..=9).prop_flat_map(|num_items| {
        vec(vec(0..num_items, 0..=num_items as usize), 0..14)
            .prop_map(move |txs| RecodedDatabase::from_dense(txs, num_items))
    })
}

/// Strategy: a database whose rows carry explicit multiplicities 1..=3, so
/// coalescing always has duplicates to merge.
fn dup_db() -> impl Strategy<Value = RecodedDatabase> {
    (2u32..=8).prop_flat_map(|num_items| {
        vec(
            (vec(0..num_items, 0..=num_items as usize), 1usize..=3),
            0..8,
        )
        .prop_map(move |rows| {
            let mut txs = Vec::new();
            for (t, mult) in rows {
                for _ in 0..mult {
                    txs.push(t.clone());
                }
            }
            RecodedDatabase::from_dense(txs, num_items)
        })
    })
}

/// Strategy: every pruning-placement policy the miners support.
fn any_policy() -> impl Strategy<Value = PrunePolicy> {
    prop_oneof![
        Just(PrunePolicy::Never),
        Just(PrunePolicy::EveryN(1)),
        Just(PrunePolicy::EveryN(3)),
        Just(PrunePolicy::Growth(1.2)),
        Just(PrunePolicy::Growth(2.0)),
    ]
}

/// Canonical (items, support) view of a mining result, for comparison.
fn canon(r: &MiningResult) -> Vec<(Vec<Item>, u32)> {
    let mut v: Vec<(Vec<Item>, u32)> = r
        .sets
        .iter()
        .map(|f| (f.items.as_slice().to_vec(), f.support))
        .collect();
    v.sort();
    v
}

/// Canonical view of a merged tree's report.
fn canon_tree(t: &PrefixTree, minsupp: u32) -> Vec<(Vec<Item>, u32)> {
    let mut v: Vec<(Vec<Item>, u32)> = t
        .report(minsupp)
        .into_iter()
        .map(|f| (f.items.as_slice().to_vec(), f.support))
        .collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// ParallelIstaMiner == IstaMiner == mine_reference for every shard
    /// count, across a minimum-support sweep, on random rows and on rows
    /// that are certain to repeat (which the shards coalesce).
    #[test]
    fn parallel_matches_sequential_and_reference(
        db in small_db(),
        dups in dup_db(),
        minsupp in 1u32..6,
    ) {
        for db in [db, dups] {
            let want = mine_reference(&db, minsupp).canonicalized();
            let seq = IstaMiner::default().mine(&db, minsupp).canonicalized();
            prop_assert_eq!(&seq, &want);
            for threads in SHARDS {
                let got = ParallelIstaMiner::with_threads(threads)
                    .mine(&db, minsupp)
                    .canonicalized();
                prop_assert_eq!(&got, &want, "threads = {}", threads);
            }
        }
    }

    /// Per-shard item-elimination pruning must not change results under any
    /// pruning-placement policy.
    #[test]
    fn parallel_pruning_policies_match_reference(
        db in small_db(),
        minsupp in 1u32..6,
        policy in any_policy(),
        threads in prop_oneof![Just(2usize), Just(3), Just(7)],
    ) {
        let want = mine_reference(&db, minsupp).canonicalized();
        let got = ParallelIstaMiner::with_config(ParallelConfig {
            threads,
            policy,
        })
        .mine(&db, minsupp)
        .canonicalized();
        prop_assert_eq!(got, want, "threads = {}, policy = {:?}", threads, policy);
    }

    /// The merge operator itself: splitting the transaction list at an
    /// arbitrary point (including empty halves), building one tree per
    /// half, and merging must reproduce the reference on the whole
    /// database: supp over D1 ∪ D2 = supp over D1 + supp over D2.
    #[test]
    fn merge_of_split_halves_matches_reference(
        db in small_db(),
        minsupp in 1u32..6,
        cut_seed in 0usize..16,
    ) {
        let txs = db.transactions();
        let cut = if txs.is_empty() { 0 } else { cut_seed % (txs.len() + 1) };
        let mut left = PrefixTree::new(db.num_items());
        for t in txs.slice(0..cut) {
            left.add_transaction(t);
        }
        let mut right = PrefixTree::new(db.num_items());
        for t in txs.slice(cut..txs.len()) {
            right.add_transaction(t);
        }
        left.merge(&right);
        left.validate_invariants();
        let want = canon(&mine_reference(&db, minsupp));
        prop_assert_eq!(canon_tree(&left, minsupp), want, "cut = {}", cut);
    }

    /// Merge after terminal-preserving pruning of both halves: pruning a
    /// shard tree against (upper-bound) remaining counts must never change
    /// the merged result.
    #[test]
    fn merge_of_pruned_halves_matches_reference(
        db in small_db(),
        minsupp in 1u32..6,
        cut_seed in 0usize..16,
    ) {
        let txs = db.transactions();
        let cut = if txs.is_empty() { 0 } else { cut_seed % (txs.len() + 1) };
        // global per-item supports are a sound upper bound on what any
        // itemset can still gain from the other shard
        let remaining = db.item_supports().to_vec();
        let mut left = PrefixTree::new(db.num_items());
        for t in txs.slice(0..cut) {
            left.add_transaction(t);
            left.prune_keeping_terminals(&remaining, minsupp);
        }
        let mut right = PrefixTree::new(db.num_items());
        for t in txs.slice(cut..txs.len()) {
            right.add_transaction(t);
            right.prune_keeping_terminals(&remaining, minsupp);
        }
        left.merge(&right);
        left.validate_invariants();
        let want = canon(&mine_reference(&db, minsupp));
        prop_assert_eq!(canon_tree(&left, minsupp), want, "cut = {}", cut);
    }
}

#[test]
fn empty_database_all_shard_counts() {
    let db = RecodedDatabase::from_dense(vec![], 4);
    for threads in SHARDS {
        let got = ParallelIstaMiner::with_threads(threads).mine(&db, 1);
        assert!(got.sets.is_empty(), "threads = {threads}");
    }
}

#[test]
fn all_empty_transactions_all_shard_counts() {
    // transactions exist but carry no items: the closed-set lattice is
    // empty, yet shard weights must still add up without panicking
    let db = RecodedDatabase::from_dense(vec![vec![], vec![], vec![]], 4);
    for threads in SHARDS {
        let got = ParallelIstaMiner::with_threads(threads).mine(&db, 1);
        assert!(got.sets.is_empty(), "threads = {threads}");
    }
}

#[test]
fn single_transaction_all_shard_counts() {
    let db = RecodedDatabase::from_dense(vec![vec![0, 2, 3]], 5);
    let want = mine_reference(&db, 1).canonicalized();
    for threads in SHARDS {
        let got = ParallelIstaMiner::with_threads(threads)
            .mine(&db, 1)
            .canonicalized();
        assert_eq!(got, want, "threads = {threads}");
    }
}

#[test]
fn merging_empty_shards_is_identity() {
    // empty shard on either side of the merge (a shard count larger than
    // the transaction count produces these)
    let db = RecodedDatabase::from_dense(vec![vec![0, 1], vec![1, 2]], 3);
    let mut full = PrefixTree::new(3);
    for t in db.transactions() {
        full.add_transaction(t);
    }
    let want = canon_tree(&full, 1);

    let mut left = PrefixTree::new(3);
    for t in db.transactions() {
        left.add_transaction(t);
    }
    left.merge(&PrefixTree::new(3));
    assert_eq!(canon_tree(&left, 1), want.clone());

    let mut empty = PrefixTree::new(3);
    empty.merge(&full);
    assert_eq!(canon_tree(&empty, 1), want);
}
