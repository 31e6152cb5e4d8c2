//! Property tests for the out-of-core shard-spill pipeline and the tree
//! merge it reduces with.
//!
//! Three families, all pinned against the brute-force reference miner:
//!
//! * the whole [`OutOfCoreMiner::mine_stream`] pipeline across arbitrary
//!   byte budgets (from one-transaction shards to everything-resident)
//!   and every pruning policy must reproduce the reference and leave the
//!   spill directory clean;
//! * the merge operator itself — two halves of a split database, plain
//!   or terminal-pruned, merge to the reference (additive supports,
//!   DESIGN.md §17);
//! * **merge-order invariance** — slicing the transaction list into
//!   contiguous shards, building one terminal-pruned tree per shard,
//!   round-tripping every shard *and* every intermediate merge result
//!   through the v2 snapshot format on disk, and reducing the trees
//!   pairwise in an *arbitrary* order must report exactly the same closed
//!   sets as a sequential in-memory mine (DESIGN.md §17: the reduction is
//!   a fold over a commutative, associative merge).

use fim_core::reference::mine_reference;
use fim_core::{Budget, Item, MiningResult, RecodedDatabase};
use fim_ista::{load_spill, spill_tree, OutOfCoreConfig, OutOfCoreMiner, PrefixTree, PrunePolicy};
use proptest::collection::vec;
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Unique spill directory per proptest case (cases of different tests run
/// concurrently in one process).
fn case_dir(tag: &str) -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("fim-oocore-prop-{tag}-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

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

/// Canonical view of a tree's report.
fn canon_tree(t: &PrefixTree, minsupp: u32) -> Vec<(Vec<Item>, u32)> {
    let mut v: Vec<(Vec<Item>, u32)> = t
        .report(minsupp)
        .into_iter()
        .map(|f| (f.items.as_slice().to_vec(), f.support))
        .collect();
    v.sort();
    v
}

/// Spills `tree` to a fresh file in `dir` and reloads it, so every tree
/// handed onward has survived the on-disk snapshot format.
fn round_trip(tree: &mut PrefixTree, dir: &Path, idx: usize) -> PrefixTree {
    let path = dir.join(format!("rt-{idx}.spill"));
    spill_tree(tree, &path).expect("spill");
    let back = load_spill(&path).expect("reload");
    let _ = fs::remove_file(&path);
    back
}

/// Reduces `trees` to one by repeatedly merging two members picked by a
/// seeded LCG — an arbitrary (not necessarily balanced or left-to-right)
/// pairwise reduction order — pruning each intermediate against the global
/// supports (a sound upper bound on what the other trees still hold) and
/// round-tripping it through disk.
fn reduce_in_seeded_order(
    mut trees: Vec<PrefixTree>,
    num_items: u32,
    supports: &[u32],
    minsupp: u32,
    dir: &Path,
    mut seed: u64,
) -> PrefixTree {
    let mut next = || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (seed >> 33) as usize
    };
    let mut idx = 0usize;
    while trees.len() > 1 {
        let right = trees.swap_remove(next() % trees.len());
        let mut left = trees.swap_remove(next() % trees.len());
        left.merge(&right);
        left.prune_keeping_terminals(supports, minsupp);
        left.validate_invariants();
        trees.push(round_trip(&mut left, dir, idx));
        idx += 1;
    }
    trees.pop().unwrap_or_else(|| PrefixTree::new(num_items))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The full pipeline across arbitrary byte budgets and pruning
    /// policies: identical to the reference, spill directory left clean —
    /// on random rows and on rows that are certain to repeat (which each
    /// shard coalesces).
    #[test]
    fn mine_stream_matches_reference_for_any_byte_budget(
        db in small_db(),
        dups in dup_db(),
        minsupp in 1u32..6,
        mem_budget in 1u64..400,
        policy in any_policy(),
    ) {
        for db in [db, dups] {
            let dir = case_dir("stream");
            let mut config = OutOfCoreConfig::new(mem_budget, &dir);
            config.policy = policy;
            let miner = OutOfCoreMiner::with_config(config);
            let txs = db.transactions();
            let mut i = 0usize;
            let (outcome, stats) = miner
                .mine_stream(
                    db.num_items(),
                    db.item_supports(),
                    Some(txs.len() as u64),
                    minsupp,
                    &Budget::unlimited(),
                    |buf| {
                        buf.clear();
                        if i < txs.len() {
                            buf.extend_from_slice(&txs[i]);
                            i += 1;
                            Ok(true)
                        } else {
                            Ok(false)
                        }
                    },
                )
                .expect("pipeline");
            prop_assert!(!outcome.is_interrupted());
            let got = outcome.into_result().canonicalized();
            let want = mine_reference(&db, minsupp).canonicalized();
            prop_assert_eq!(
                got, want,
                "budget={} shards={} policy={:?}", mem_budget, stats.shards, policy
            );
            let leftover = fs::read_dir(&dir).map_or(0, |d| d.count());
            prop_assert_eq!(leftover, 0, "spill dir not clean");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// Merge-order invariance: any pairwise reduction order over disk
    /// round-tripped shard snapshots reports exactly what a sequential
    /// in-memory mine reports.
    #[test]
    fn any_pairwise_merge_order_matches_the_sequential_mine(
        db in small_db(),
        minsupp in 1u32..6,
        chunk in 1usize..5,
        order_seed in any::<u64>(),
    ) {
        let dir = case_dir("order");
        fs::create_dir_all(&dir).unwrap();
        let supports = db.item_supports();
        // one terminal-pruned tree per contiguous shard, each reloaded
        // from its on-disk snapshot before entering the reduction
        let mut trees = Vec::new();
        let rows: Vec<_> = db.transactions().iter().collect();
        for (k, shard) in rows.chunks(chunk).enumerate() {
            let mut t = PrefixTree::new(db.num_items());
            for tx in shard {
                t.add_transaction(tx);
            }
            t.prune_keeping_terminals(supports, minsupp);
            trees.push(round_trip(&mut t, &dir, 1000 + k));
        }
        let reduced = reduce_in_seeded_order(
            trees,
            db.num_items(),
            supports,
            minsupp,
            &dir,
            order_seed,
        );
        let want = canon(&mine_reference(&db, minsupp));
        prop_assert_eq!(
            canon_tree(&reduced, minsupp),
            want,
            "chunk={} seed={}",
            chunk,
            order_seed
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

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
