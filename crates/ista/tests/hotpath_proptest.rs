//! Property tests for the single-core hot path: weighted transaction
//! coalescing and DFS arena compaction.
//!
//! Coalescing rests on the support identity supp_T(S) = Σ w_t over the
//! distinct transactions t ⊇ S, so mining a database with duplicated rows
//! must equal mining its coalesced `(items, weight)` form. Compaction
//! relocates live arena nodes into depth-first order, so a compacted tree
//! must report exactly the same closed sets as the fragmented original.
//! Both are pinned against the brute-force reference across minimum-support
//! sweeps and every pruning-placement policy.

use fim_core::reference::mine_reference;
use fim_core::{coalesce, ClosedMiner, Item, MiningResult, RecodedDatabase};
use fim_ista::{IstaConfig, IstaMiner, PrefixTree, PrunePolicy};
use proptest::collection::vec;
use proptest::prelude::*;

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

/// Strategy: every pruning-placement policy the miner supports.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The miner, which always coalesces and compacts, must reproduce the
    /// reference on duplicated-row databases under every prune policy.
    #[test]
    fn policies_match_reference_on_duplicated_rows(
        db in dup_db(),
        minsupp in 1u32..6,
        policy in any_policy(),
    ) {
        let want = mine_reference(&db, minsupp).canonicalized();
        let got = IstaMiner::with_config(IstaConfig { policy, ..IstaConfig::default() })
            .mine(&db, minsupp)
            .canonicalized();
        prop_assert_eq!(got, want, "policy = {:?}", policy);
    }

    /// The tree-level identity behind coalescing: one weighted insertion
    /// per distinct row builds a tree reporting exactly what per-row
    /// repeated insertion reports.
    #[test]
    fn weighted_insertion_equals_repeated_insertion(
        db in dup_db(),
        minsupp in 1u32..5,
    ) {
        let mut repeated = PrefixTree::new(db.num_items());
        for t in db.transactions() {
            repeated.add_transaction(t);
        }
        let mut weighted = PrefixTree::new(db.num_items());
        for (t, w) in coalesce(db.transactions()) {
            weighted.add_transaction_weighted(t, w);
        }
        weighted.validate_invariants();
        prop_assert_eq!(canon_tree(&weighted, minsupp), canon_tree(&repeated, minsupp));
    }

    /// Coalescing preserves total weight and yields strictly deduplicated,
    /// size-then-lex-ordered rows.
    #[test]
    fn coalesce_weights_sum_to_row_count(db in dup_db()) {
        let rows = coalesce(db.transactions());
        let total: u32 = rows.iter().map(|(_, w)| w).sum();
        prop_assert_eq!(total as usize, db.num_transactions());
        for pair in rows.windows(2) {
            prop_assert_ne!(pair[0].0, pair[1].0, "adjacent duplicates must merge");
        }
    }

    /// Compaction under pruning churn: interleave insertion, exact-bound
    /// pruning, and compaction at an arbitrary cadence — the tree must
    /// stay internally consistent and report the reference result, and a
    /// final compact must not change the report.
    #[test]
    fn compact_preserves_reports_under_churn(
        db in dup_db(),
        minsupp in 1u32..5,
        cadence in 1usize..4,
    ) {
        let mut remaining = db.item_supports().to_vec();
        let mut tree = PrefixTree::new(db.num_items());
        for (i, t) in db.transactions().iter().enumerate() {
            for &item in t {
                remaining[item as usize] -= 1;
            }
            tree.add_transaction(t);
            if i % cadence == 0 {
                tree.prune(&remaining, minsupp);
                if tree.compact_if_fragmented() {
                    tree.validate_invariants();
                }
            }
        }
        let before = canon_tree(&tree, minsupp);
        tree.compact();
        tree.validate_invariants();
        prop_assert_eq!(canon_tree(&tree, minsupp), before.clone());
        prop_assert_eq!(before, canon(&mine_reference(&db, minsupp)));
    }
}

#[test]
fn coalescing_handles_empty_and_all_empty_transactions() {
    // empty databases and item-less rows must survive coalescing
    for db in [
        RecodedDatabase::from_dense(vec![], 4),
        RecodedDatabase::from_dense(vec![vec![], vec![], vec![]], 4),
    ] {
        assert!(IstaMiner::default().mine(&db, 1).sets.is_empty());
    }
}

#[test]
fn compact_is_idempotent() {
    let db = RecodedDatabase::from_dense(
        vec![vec![0, 1, 2], vec![0, 2], vec![1, 2], vec![0, 1, 2]],
        3,
    );
    let mut tree = PrefixTree::new(3);
    for t in db.transactions() {
        tree.add_transaction(t);
    }
    tree.prune(&[0, 0, 0], 2);
    tree.compact();
    let once = canon_tree(&tree, 1);
    let stats = tree.memory_stats();
    assert_eq!(stats.free_slots, 0, "compaction must drop the free list");
    tree.compact();
    assert_eq!(canon_tree(&tree, 1), once);
    assert_eq!(tree.memory_stats(), stats);
}
