//! Property tests for the constraint engine's exactness contract: for every
//! miner that advertises [`ClosedMiner::supports_constraints`], the pushed
//! path of [`mine_closed_constrained`] must return **byte-identical**
//! (canonicalized) output to the post-filter oracle — the unconstrained
//! mine over the same excluded-projected database followed by
//! [`apply_constraints`]'s predicate pass (`push: false` runs exactly
//! that). Miners without a push (here `lcm`) ride the default post-filter
//! implementation and are included to pin the driver's behaviour for them
//! too.
//!
//! The grid deliberately includes the degenerate corners: contradictions
//! are pre-filtered by `validate()` (the driver's contract), but
//! empty-result constraint sets (min-area no set can reach), all-items
//! excluded (the projection leaves an empty database), and include items
//! that are themselves excluded-by-infrequency all appear under random
//! generation.

use closed_fim::algos::Miner;
use fim_core::{
    mine_closed_constrained, Budget, ConstraintSet, FoundSet, Item, ItemSet, MineOutcome,
    MiningResult, TransactionDatabase,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// Miners exercised by the grid. The first five push constraints; `lcm`
/// takes the trait's default post-filter path.
const MINERS: [&str; 6] = [
    "ista",
    "carpenter-lists",
    "carpenter-table",
    "eclat",
    "declat",
    "lcm",
];

fn small_db() -> impl Strategy<Value = TransactionDatabase> {
    (2u32..=8).prop_flat_map(|num_items| {
        vec(vec(0..num_items as Item, 0..=num_items as usize), 0..10)
            .prop_map(move |txs| TransactionDatabase::from_codes_with_base(txs, num_items as usize))
    })
}

/// A random *valid* constraint set over catalog codes `0..8`: include and
/// exclude are made disjoint, and the size window non-contradictory, so
/// `validate()` always passes (the CLI rejects contradictions with exit
/// code 2 before the driver ever sees them).
fn constraint_set() -> impl Strategy<Value = ConstraintSet> {
    (
        vec(0u32..8, 0..3),
        vec(0u32..8, 0..3),
        0u32..4,
        prop_oneof![Just(None), (1u32..7).prop_map(Some)],
        0u64..40,
    )
        .prop_map(|(inc, exc, min_size, max_size, min_area)| {
            let include: ItemSet = inc.iter().copied().collect();
            let exclude: ItemSet = exc
                .iter()
                .copied()
                .filter(|i| !include.contains(*i))
                .collect();
            let lo = min_size.max(include.len() as u32);
            let max_size = max_size.map(|m| m.max(lo));
            ConstraintSet {
                include,
                exclude,
                min_size,
                max_size,
                min_area,
            }
        })
}

/// The post-filter oracle result: `push: false` through the same driver.
fn oracle(db: &TransactionDatabase, minsupp: u32, miner: &str, cs: &ConstraintSet) -> MiningResult {
    let m = Miner::by_name(miner).unwrap();
    mine_closed_constrained(
        db,
        minsupp,
        m.as_dyn(),
        cs,
        &Budget::unlimited(),
        Default::default(),
        Default::default(),
        false,
    )
    .into_result()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Pushed ≡ post-filtered for every miner on the full random grid.
    #[test]
    fn pushed_equals_postfiltered(db in small_db(), minsupp in 1u32..5, cs in constraint_set()) {
        prop_assert!(cs.validate().is_ok());
        for name in MINERS {
            let m = Miner::by_name(name).unwrap();
            let pushed = mine_closed_constrained(
                &db, minsupp, m.as_dyn(), &cs, &Budget::unlimited(), Default::default(), Default::default(), true,
            ).into_result();
            let want = oracle(&db, minsupp, name, &cs);
            prop_assert_eq!(&pushed, &want, "miner {} under [{}]", name, &cs);
        }
    }

    /// Every reported set actually satisfies the constraints (predicate
    /// re-checked independently of the mining path), and exclusion really
    /// is a projection: no excluded item ever appears.
    #[test]
    fn reported_sets_satisfy(db in small_db(), minsupp in 1u32..5, cs in constraint_set()) {
        let m = Miner::by_name("ista").unwrap();
        let res = mine_closed_constrained(
            &db, minsupp, m.as_dyn(), &cs, &Budget::unlimited(), Default::default(), Default::default(), true,
        ).into_result();
        for FoundSet { items, support } in &res.sets {
            prop_assert!(cs.satisfied_by(items, *support), "[{}] emitted {:?}", &cs, items);
            prop_assert!(*support >= minsupp.max(1));
        }
    }

    /// All-items-excluded projection leaves nothing to mine.
    #[test]
    fn all_excluded_is_empty(db in small_db(), minsupp in 1u32..4) {
        let cs = ConstraintSet {
            exclude: (0u32..8).collect(),
            ..ConstraintSet::none()
        };
        for name in MINERS {
            let m = Miner::by_name(name).unwrap();
            let res = mine_closed_constrained(
                &db, minsupp, m.as_dyn(), &cs, &Budget::unlimited(), Default::default(), Default::default(), true,
            ).into_result();
            prop_assert!(res.sets.is_empty(), "miner {}", name);
        }
    }

    /// Unreachable min-area (support × size can never get there on these
    /// tiny databases) gives the empty result through both paths.
    #[test]
    fn unreachable_area_is_empty(db in small_db(), minsupp in 1u32..4) {
        let cs = ConstraintSet { min_area: 100_000, ..ConstraintSet::none() };
        for name in MINERS {
            let m = Miner::by_name(name).unwrap();
            let pushed = mine_closed_constrained(
                &db, minsupp, m.as_dyn(), &cs, &Budget::unlimited(), Default::default(), Default::default(), true,
            ).into_result();
            prop_assert!(pushed.sets.is_empty(), "miner {}", name);
            prop_assert_eq!(pushed, oracle(&db, minsupp, name, &cs), "miner {}", name);
        }
    }

    /// Governed constrained mining: an unlimited budget completes with the
    /// exact batch result; a tight set budget either completes exactly or
    /// interrupts with a partial that is a subset of the batch result, with
    /// every partial set satisfying the constraints.
    #[test]
    fn governed_partials_are_exact_subsets(
        db in small_db(), minsupp in 1u32..4, cs in constraint_set(), cap in 0usize..4,
    ) {
        let full = oracle(&db, minsupp, "carpenter-lists", &cs);
        for name in ["ista", "carpenter-lists", "eclat"] {
            let m = Miner::by_name(name).unwrap();
            let unlimited = mine_closed_constrained(
                &db, minsupp, m.as_dyn(), &cs, &Budget::unlimited(),
                Default::default(), Default::default(), true,
            );
            match unlimited {
                MineOutcome::Complete { result, .. } =>
                    prop_assert_eq!(&result, &full, "miner {} unlimited", name),
                MineOutcome::Interrupted { .. } =>
                    prop_assert!(false, "miner {} interrupted on unlimited budget", name),
            }
            let tight = Budget { max_closed_sets: Some(cap), ..Budget::unlimited() };
            let outcome = mine_closed_constrained(
                &db, minsupp, m.as_dyn(), &cs, &tight,
                Default::default(), Default::default(), true,
            );
            let partial = match outcome {
                MineOutcome::Complete { result, .. } => result,
                MineOutcome::Interrupted { partial, .. } => partial,
            };
            for fs in &partial.sets {
                prop_assert!(
                    full.sets.contains(fs),
                    "miner {} partial emitted {:?} not in the batch result", name, fs.items
                );
                prop_assert!(cs.satisfied_by(&fs.items, fs.support), "miner {}", name);
            }
        }
    }
}
