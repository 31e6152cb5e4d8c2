//! The relative minimum-support entry point (paper §2.1: the absolute and
//! relative definitions are equivalent).

use fim_core::reference::ReferenceMiner;
use fim_core::{mine_closed, mine_closed_relative, relative_minsupp, ItemSet, TransactionDatabase};

fn db() -> TransactionDatabase {
    TransactionDatabase::from_named(&[
        vec!["a", "b", "c"],
        vec!["a", "d", "e"],
        vec!["b", "c", "d"],
        vec!["a", "b", "c", "d"],
        vec!["b", "c"],
        vec!["a", "b", "d"],
        vec!["d", "e"],
        vec!["c", "d", "e"],
    ])
}

#[test]
fn fraction_maps_to_ceiling_absolute() {
    let db = db();
    // 8 transactions: 0.25 → 2, 0.3 → ceil(2.4) = 3, 0.375 → 3
    for (frac, abs) in [(0.25, 2u32), (0.3, 3), (0.375, 3), (1.0, 8)] {
        let rel = mine_closed_relative(&db, frac, &ReferenceMiner);
        let direct = mine_closed(&db, abs, &ReferenceMiner);
        assert_eq!(rel, direct, "fraction {frac} vs absolute {abs}");
    }
}

#[test]
fn whole_products_are_not_rounded_up() {
    // in f64 both products are 7.000000000000001
    assert_eq!(relative_minsupp(0.07, 100), 7);
    assert_eq!(relative_minsupp(0.14, 50), 7);
    // a product that is not whole still takes its ceiling
    assert_eq!(relative_minsupp(0.071, 100), 8);
    assert_eq!(relative_minsupp(0.3, 8), 3);
    // item 0 in 7 of 100 rows stays frequent at 7%
    let rows: Vec<Vec<u32>> = (0..100).map(|k| vec![u32::from(k >= 7)]).collect();
    let db = TransactionDatabase::from_codes(rows);
    let rel = mine_closed_relative(&db, 0.07, &ReferenceMiner);
    assert_eq!(rel, mine_closed(&db, 7, &ReferenceMiner));
    assert!(rel
        .sets
        .iter()
        .any(|s| s.items == ItemSet::from([0]) && s.support == 7));
}

#[test]
fn zero_fraction_clamps_to_one() {
    let db = db();
    assert_eq!(
        mine_closed_relative(&db, 0.0, &ReferenceMiner),
        mine_closed(&db, 1, &ReferenceMiner)
    );
}

#[test]
#[should_panic(expected = "relative support")]
fn fraction_above_one_rejected() {
    let _ = mine_closed_relative(&db(), 1.5, &ReferenceMiner);
}

#[test]
fn empty_database_is_fine() {
    let db = TransactionDatabase::new();
    assert!(mine_closed_relative(&db, 0.5, &ReferenceMiner).is_empty());
}
