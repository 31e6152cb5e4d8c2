//! Property tests for the core substrate: item set algebra, closure and
//! Galois laws, representation consistency, recoding invariants, and the
//! one-pass decode and canonical ordering of mining results.

use fim_core::{
    closure, cover, galois, itemset, BitMatrix, FoundSet, Item, ItemOrder, ItemSet, MiningResult,
    RecodedDatabase, SuffixCountMatrix, TidLists, TransactionDatabase, TransactionOrder,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashSet;

fn itemset_strategy(max_item: u32) -> impl Strategy<Value = ItemSet> {
    vec(0..max_item, 0..max_item as usize).prop_map(ItemSet::new)
}

fn db_strategy() -> impl Strategy<Value = RecodedDatabase> {
    (2u32..=10).prop_flat_map(|m| {
        vec(vec(0..m, 0..=m as usize), 1..12)
            .prop_map(move |txs| RecodedDatabase::from_dense(txs, m))
    })
}

/// A coded mining result over `n` dense codes, with a dense → raw table
/// like the one recoding leaves: injective, with gaps where infrequent
/// items were, and dense order unrelated to raw order. The sets are
/// distinct and include the empty set; each drawn set comes with a
/// sibling that shares its first items in raw order and differs in one.
fn coded_result(n: usize) -> impl Strategy<Value = (Vec<Item>, MiningResult)> {
    let top = n.max(1) as u32;
    (
        vec(1u32..4, n),
        vec(any::<u64>(), n),
        vec(
            (vec(0..top, 0..=n), 0usize..300, 0..top, 1u32..50, 1u32..50),
            0..40usize,
        ),
    )
        .prop_map(move |(gaps, shuffle, draws)| {
            // rank k (the k-th smallest raw code) is raw[k]; dense code d
            // has rank rank_of[d]
            let raw: Vec<Item> = gaps
                .iter()
                .scan(0, |at, gap| {
                    *at += gap;
                    Some(*at)
                })
                .collect();
            let mut rank_of: Vec<usize> = (0..n).collect();
            rank_of.sort_by_key(|&k| shuffle[k]);
            let item_to_old = rank_of.iter().map(|&k| raw[k]).collect();
            let mut dense_of = vec![0; n];
            for (d, &k) in rank_of.iter().enumerate() {
                dense_of[k] = d as Item;
            }
            let coded = |ranks: &[u32]| -> ItemSet {
                ranks
                    .iter()
                    .filter(|&&k| (k as usize) < n)
                    .map(|&k| dense_of[k as usize])
                    .collect()
            };
            let mut seen = HashSet::new();
            let mut sets = Vec::new();
            let mut push = |items: ItemSet, support| {
                if seen.insert(items.clone()) {
                    sets.push(FoundSet::new(items, support));
                }
            };
            push(ItemSet::empty(), 1);
            for (mut base, keep, swap, support, sibling_support) in draws {
                base.sort_unstable();
                base.dedup();
                let mut sibling = base.clone();
                if !sibling.is_empty() {
                    let at = keep % sibling.len();
                    sibling[at] = swap;
                }
                push(coded(&base), support);
                push(coded(&sibling), sibling_support);
            }
            (item_to_old, MiningResult { sets })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn into_canonical_is_decode_then_canonicalize(
        case in prop_oneof![
            // both sides of each mask word and of the 256-item limit
            Just(0usize), Just(1), Just(64), Just(65), Just(255), Just(256), Just(257),
            0usize..=300,
        ]
        .prop_flat_map(coded_result)
    ) {
        let (item_to_old, coded) = case;
        let mut want = coded.clone().into_decoded(&item_to_old);
        want.canonicalize();
        prop_assert_eq!(coded.into_canonical(&item_to_old), want);
    }

    #[test]
    fn itemset_lattice_laws(a in itemset_strategy(12), b in itemset_strategy(12), c in itemset_strategy(12)) {
        // commutativity
        prop_assert_eq!(a.intersect(&b), b.intersect(&a));
        prop_assert_eq!(a.union(&b), b.union(&a));
        // associativity
        prop_assert_eq!(a.intersect(&b).intersect(&c), a.intersect(&b.intersect(&c)));
        prop_assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
        // absorption
        prop_assert_eq!(a.union(&a.intersect(&b)), a.clone());
        prop_assert_eq!(a.intersect(&a.union(&b)), a.clone());
        // difference partition
        let inter = a.intersect(&b);
        let diff = a.minus(&b);
        prop_assert_eq!(inter.union(&diff), a.clone());
        prop_assert!(inter.intersect(&diff).is_empty());
        // subset coherence
        prop_assert!(inter.is_subset_of(&a) && inter.is_subset_of(&b));
        prop_assert!(a.is_subset_of(&a.union(&b)));
    }

    #[test]
    fn closure_operator_laws(db in db_strategy(), raw in vec(0u32..10, 0..6)) {
        let items = ItemSet::new(raw.into_iter().filter(|&i| i < db.num_items()).collect());
        let c = closure(&db, &items);
        // extensive
        prop_assert!(items.is_subset_of(&c));
        // idempotent
        prop_assert_eq!(closure(&db, &c), c.clone());
        // monotone (against a random subset of items)
        let sub: ItemSet = items.iter().step_by(2).collect();
        prop_assert!(closure(&db, &sub).is_subset_of(&closure(&db, &items))
            || db.support(&sub) == 0 // both closures degenerate to item base
        );
    }

    #[test]
    fn galois_adjunction(db in db_strategy(), raw in vec(0u32..10, 0..5), tids_raw in vec(0u32..12, 0..5)) {
        let items = ItemSet::new(raw.into_iter().filter(|&i| i < db.num_items()).collect());
        let mut tids: Vec<u32> = tids_raw
            .into_iter()
            .filter(|&t| (t as usize) < db.num_transactions())
            .collect();
        tids.sort_unstable();
        tids.dedup();
        // K ⊆ f(I) ⇔ I ⊆ g(K)
        let fi = galois::f(&db, &items);
        let lhs = tids.iter().all(|t| fi.contains(t));
        let rhs = items.is_subset_of(&galois::g(&db, &tids));
        prop_assert_eq!(lhs, rhs);
        // closure operators on both sides
        let ci = galois::item_closure(&db, &items);
        prop_assert!(items.is_subset_of(&ci));
        prop_assert_eq!(galois::item_closure(&db, &ci), ci);
        let ck = galois::tid_closure(&db, &tids);
        prop_assert!(tids.iter().all(|t| ck.contains(t)));
        prop_assert_eq!(galois::tid_closure(&db, &ck), ck);
    }

    #[test]
    fn representations_agree(db in db_strategy(), raw in vec(0u32..10, 1..4)) {
        let items = ItemSet::new(raw.into_iter().filter(|&i| i < db.num_items()).collect());
        let lists = TidLists::from_database(&db);
        let bits = BitMatrix::from_database(&db);
        let matrix = SuffixCountMatrix::from_database(&db);
        // support via scan == support via tid lists
        prop_assert_eq!(db.support(&items), lists.support(&items));
        // per-item, per-transaction membership agreement
        for tid in 0..db.num_transactions() {
            for i in 0..db.num_items() {
                let in_tx = db.transaction(tid as u32).contains(&i);
                prop_assert_eq!(bits.get(tid, i as usize), in_tx);
                prop_assert_eq!(matrix.contains(tid as u32, i), in_tx);
            }
        }
        // suffix counts equal remaining() from tid lists
        for tid in 0..db.num_transactions() as u32 {
            for i in 0..db.num_items() {
                if matrix.contains(tid, i) {
                    prop_assert_eq!(matrix.entry(tid, i), lists.remaining(i, tid));
                }
            }
        }
    }

    #[test]
    fn recoding_preserves_supports(
        txs in vec(vec(0u32..9, 0..9usize), 1..10),
        minsupp in 1u32..4,
        io_pick in 0usize..3,
        to_pick in 0usize..3,
    ) {
        let db = TransactionDatabase::from_codes(txs);
        let io = ItemOrder::ALL[io_pick];
        let to = TransactionOrder::ALL[to_pick];
        let recoded = RecodedDatabase::prepare(&db, minsupp, io, to);
        // every surviving item's support is preserved and >= minsupp
        for new_code in 0..recoded.num_items() {
            let old = recoded.recode().item_to_old[new_code as usize];
            let raw_supp = db.support(&ItemSet::from([old]));
            prop_assert_eq!(raw_supp, recoded.item_supports()[new_code as usize]);
            prop_assert!(raw_supp >= minsupp);
        }
        // arbitrary non-empty set supports survive encode/decode (the empty
        // set is excluded: recoding drops empty transactions, which changes
        // only the empty set's support and is irrelevant to mining)
        let probe = ItemSet::new((0..db.num_items() as u32).step_by(2).collect());
        if !probe.is_empty() {
            if let Some(enc) = recoded.recode().encode_items(&probe) {
                prop_assert_eq!(recoded.support(&enc), db.support(&probe));
            }
        }
    }

    #[test]
    fn cover_is_sorted_and_support_consistent(db in db_strategy(), raw in vec(0u32..10, 0..4)) {
        let items = ItemSet::new(raw.into_iter().filter(|&i| i < db.num_items()).collect());
        let txs: Vec<ItemSet> = db
            .transactions()
            .iter()
            .map(|t| ItemSet::from_sorted(t.to_vec()))
            .collect();
        let cov = cover(&txs, &items);
        prop_assert!(cov.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(cov.len() as u32, db.support(&items));
        for &tid in &cov {
            prop_assert!(itemset::is_subset(items.as_slice(), db.transaction(tid)));
        }
    }
}

#[test]
fn into_canonical_orders_by_the_smallest_differing_item() {
    // dense 0, 1, 2, 3 stand for raw 5, 1, 2, 0
    let item_to_old = [5, 1, 2, 0];
    let coded = MiningResult {
        sets: [[0, 1], [1, 2], [0, 3], [2, 3]]
            .into_iter()
            .map(|dense| FoundSet::new(ItemSet::from(dense), 7))
            .collect(),
    };
    let raw: Vec<Vec<Item>> = coded
        .into_canonical(&item_to_old)
        .sets
        .iter()
        .map(|s| s.items.as_slice().to_vec())
        .collect();
    // {0, 5} before {1, 2} fails a key sorted by the mask instead of its
    // complement; {0, 2} before {0, 5} and {1, 2} before {1, 5} fail a
    // mask with rank 0 in its least significant bit
    assert_eq!(raw, [[0, 2], [0, 5], [1, 2], [1, 5]]);
}
