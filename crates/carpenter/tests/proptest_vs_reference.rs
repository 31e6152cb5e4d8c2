//! Property tests: both Carpenter variants must agree with the brute-force
//! reference miner on random databases, under every pruning configuration
//! and every tid-set representation.
//!
//! The sparse strategy (many items, short rows) reaches every way the list
//! variant's nodes find their children: the root reading the rows, sparse
//! nodes reading their tid buckets, dense nodes probing cursors, and both
//! kinds of node passing their horizon after an absorption.

use fim_carpenter::{CarpenterConfig, CarpenterListMiner, CarpenterTableMiner};
use fim_core::reference::mine_reference;
use fim_core::{
    Budget, ClosedMiner, MineOutcome, MineRequest, RecodedDatabase, Representation as KernelRep,
    TripReason,
};
use fim_obs::Obs;
use proptest::collection::vec;
use proptest::prelude::*;

const REPS: [KernelRep; 3] = [KernelRep::Scalar, KernelRep::Bitset, KernelRep::Gallop];

fn small_db() -> impl Strategy<Value = RecodedDatabase> {
    (2u32..=9).prop_flat_map(|num_items| {
        vec(vec(0..num_items, 0..=num_items as usize), 0..12)
            .prop_map(move |txs| RecodedDatabase::from_dense(txs, num_items))
    })
}

/// Many items, short rows: most nodes hold few occurrences for their
/// horizon, so the list variant buckets them.
fn sparse_db() -> impl Strategy<Value = RecodedDatabase> {
    (30u32..=80).prop_flat_map(|num_items| {
        vec(vec(0..num_items, 1..=5), 5..=30)
            .prop_map(move |txs| RecodedDatabase::from_dense(txs, num_items))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn list_variant_matches_reference(db in small_db(), minsupp in 1u32..6) {
        let want = mine_reference(&db, minsupp);
        let got = CarpenterListMiner::default().mine(&db, minsupp).canonicalized();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn table_variant_matches_reference(db in small_db(), minsupp in 1u32..6) {
        let want = mine_reference(&db, minsupp);
        let got = CarpenterTableMiner::default().mine(&db, minsupp).canonicalized();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn every_pruning_combination_matches(
        db in prop_oneof![small_db(), sparse_db()],
        minsupp in 1u32..5,
        pe in any::<bool>(),
        ie in any::<bool>(),
        rp in any::<bool>(),
        es in any::<bool>(),
    ) {
        let config = CarpenterConfig {
            perfect_extension: pe,
            item_elimination: ie,
            repo_prune: rp,
            early_stop: es,
        };
        let want = mine_reference(&db, minsupp);
        for rep in REPS {
            let list = CarpenterListMiner { config, rep }.mine(&db, minsupp).canonicalized();
            prop_assert_eq!(&list, &want, "list variant, {}, config {:?}", rep, config);
        }
        let table = CarpenterTableMiner::with_config(config).mine(&db, minsupp).canonicalized();
        prop_assert_eq!(&table, &want, "table variant, config {:?}", config);
    }

    #[test]
    fn wide_transactions_match(db in (10u32..=20).prop_flat_map(|m| {
        vec(vec(0..m, (m as usize / 2)..=m as usize), 1..8)
            .prop_map(move |txs| RecodedDatabase::from_dense(txs, m))
    }), minsupp in 1u32..4) {
        // the many-items/few-transactions regime Carpenter targets
        let want = mine_reference(&db, minsupp);
        for rep in REPS {
            let got = CarpenterListMiner::with_rep(rep).mine(&db, minsupp).canonicalized();
            prop_assert_eq!(&got, &want, "list variant, {}", rep);
        }
        let got = CarpenterTableMiner::default().mine(&db, minsupp).canonicalized();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn sparse_set_budget_partial_is_a_subset_of_the_answer(
        db in sparse_db(),
        minsupp in 1u32..4,
        cap in 0usize..12,
    ) {
        // every emission is final: a partial holds closed sets of the full
        // database with their exact supports
        let full = mine_reference(&db, minsupp);
        let budget = Budget::unlimited().with_max_closed_sets(cap);
        let req = MineRequest { minsupp, budget: &budget, constraints: None };
        for rep in REPS {
            match CarpenterListMiner::with_rep(rep).mine_with(&db, &req, &mut Obs::new()).0 {
                MineOutcome::Interrupted { partial, reason, progress } => {
                    prop_assert_eq!(reason, TripReason::ClosedSetBudget);
                    prop_assert_eq!(progress.processed, partial.len() as u64);
                    prop_assert!(partial.len() <= cap + 1, "{}: cap {}", rep, cap);
                    for fs in &partial.sets {
                        prop_assert_eq!(
                            full.support_of(&fs.items),
                            Some(fs.support),
                            "{}: {:?} must be a closed set with exact support",
                            rep,
                            fs.items
                        );
                    }
                }
                MineOutcome::Complete { result, .. } => {
                    prop_assert!(full.len() <= cap, "{}: cap {} not reached", rep, cap);
                    prop_assert_eq!(&result.canonicalized(), &full, "{}", rep);
                }
            }
        }
    }
}
