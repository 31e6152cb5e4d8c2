//! The flat-pool recode against the boxed recode it replaced, kept here
//! verbatim as the oracle: on every database, minimum support, exclusion
//! and order pair, both give the same rows in the same order, the same code
//! and transaction mappings, the same supports and the same counts. The
//! recode of a one-pass scan, whose rows arrive unsorted and with repeats
//! dropped as they come, gives the same as well.

use fim_core::{
    cmp_size_then_desc_lex, Item, ItemOrder, ItemSet, RecodedDatabase, ScannedDatabase, Tid,
    TransactionDatabase, TransactionOrder,
};
use proptest::collection::vec;
use proptest::prelude::*;

// ---------------------------------------------------------------- oracle

/// Everything the oracle's `RecodedDatabase` held.
#[derive(Debug, PartialEq)]
struct Oracle {
    transactions: Vec<Box<[Item]>>,
    num_items: u32,
    item_supports: Vec<u32>,
    item_to_new: Vec<Option<Item>>,
    item_to_old: Vec<Item>,
    tx_to_old: Vec<Tid>,
    original_transactions: u32,
    minsupp_used: u32,
}

fn oracle_prepare_excluding(
    db: &TransactionDatabase,
    minsupp: u32,
    item_order: ItemOrder,
    tx_order: TransactionOrder,
    exclude: &ItemSet,
) -> Oracle {
    let minsupp = minsupp.max(1);
    let freq = db.item_frequencies();

    // Select surviving raw codes and order them.
    let mut surviving: Vec<Item> = (0..freq.len() as Item)
        .filter(|&i| freq[i as usize] >= minsupp && !exclude.contains(i))
        .collect();
    match item_order {
        ItemOrder::AscendingFrequency => {
            surviving.sort_by_key(|&i| (freq[i as usize], i));
        }
        ItemOrder::DescendingFrequency => {
            surviving.sort_by_key(|&i| (std::cmp::Reverse(freq[i as usize]), i));
        }
        ItemOrder::Original => { /* already ascending raw code */ }
    }

    let mut item_to_new: Vec<Option<Item>> = vec![None; freq.len()];
    for (new, &old) in surviving.iter().enumerate() {
        item_to_new[old as usize] = Some(new as Item);
    }

    // Map transactions, dropping empties.
    let mut txs: Vec<(Tid, Box<[Item]>)> = Vec::with_capacity(db.num_transactions());
    let mut buf: Vec<Item> = Vec::new();
    for (tid, t) in db.transactions().iter().enumerate() {
        buf.clear();
        for &it in t.iter() {
            if let Some(new) = item_to_new[it as usize] {
                buf.push(new);
            }
        }
        if buf.is_empty() {
            continue;
        }
        buf.sort_unstable();
        txs.push((tid as Tid, buf.clone().into_boxed_slice()));
    }

    match tx_order {
        TransactionOrder::AscendingSize => {
            txs.sort_by(|a, b| cmp_size_then_desc_lex(&a.1, &b.1));
        }
        TransactionOrder::DescendingSize => {
            txs.sort_by(|a, b| cmp_size_then_desc_lex(&b.1, &a.1));
        }
        TransactionOrder::Original => {}
    }

    let mut item_supports = vec![0u32; surviving.len()];
    for (_, t) in &txs {
        for &i in t.iter() {
            item_supports[i as usize] += 1;
        }
    }

    let (tx_to_old, transactions): (Vec<Tid>, Vec<Box<[Item]>>) = txs.into_iter().unzip();

    Oracle {
        transactions,
        num_items: surviving.len() as u32,
        item_supports,
        item_to_new,
        item_to_old: surviving,
        tx_to_old,
        original_transactions: db.num_transactions() as u32,
        minsupp_used: minsupp,
    }
}

// ---------------------------------------------------------------- comparison

/// The flat recode, in the oracle's shape.
fn flat(r: &RecodedDatabase) -> Oracle {
    Oracle {
        transactions: r.transactions().iter().map(Box::from).collect(),
        num_items: r.num_items(),
        item_supports: r.item_supports().to_vec(),
        item_to_new: r.recode().item_to_new.clone(),
        item_to_old: r.recode().item_to_old.clone(),
        tx_to_old: r.recode().tx_to_old.clone(),
        original_transactions: r.original_transactions(),
        minsupp_used: r.minsupp_used(),
    }
}

/// `db` as a reader's one pass would leave it: its catalog, then each row
/// with its items shuffled and its first item pushed again at the end.
fn scanned(db: &TransactionDatabase) -> ScannedDatabase {
    let mut scan = ScannedDatabase::new();
    for (code, name) in db.catalog().iter() {
        assert_eq!(scan.catalog_mut().intern(name), code);
    }
    // a fixed xorshift stream drives the shuffles
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut row: Vec<Item> = Vec::new();
    for t in db.transactions() {
        row.clear();
        row.extend_from_slice(t);
        for k in (1..row.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            row.swap(k, (state % (k as u64 + 1)) as usize);
        }
        row.extend(row.first().copied());
        for &item in &row {
            scan.push_item(item);
        }
        scan.end_row();
    }
    scan
}

/// Both recodes of `db`, and the recode of its scan, under every order
/// pair agree.
fn agree(db: &TransactionDatabase, minsupp: u32, exclude: &ItemSet) {
    let scan = scanned(db);
    assert_eq!(scan.item_frequencies(), db.item_frequencies());
    for io in ItemOrder::ALL {
        for to in TransactionOrder::ALL {
            let want = oracle_prepare_excluding(db, minsupp, io, to, exclude);
            let got = RecodedDatabase::prepare_excluding(db, minsupp, io, to, exclude);
            let what = format!(
                "minsupp {minsupp}, exclude {exclude:?}, {} / {}",
                io.label(),
                to.label()
            );
            assert_eq!(flat(&got), want, "{what}");
            assert_eq!(got.num_transactions(), want.transactions.len());
            assert_eq!(
                got.density().ones,
                want.item_supports.iter().map(|&s| u64::from(s)).sum()
            );
            let (consumed, catalog) =
                RecodedDatabase::prepare_scanned(scan.clone(), minsupp, io, to, exclude);
            assert_eq!(flat(&consumed), want, "scanned, {what}");
            assert_eq!(catalog.len(), db.num_items());
        }
    }
}

/// A database over `items` raw codes from drawn rows, with each row whose
/// copy flag is set appended again at the end: empty rows, duplicate rows
/// far apart, and (under a threshold) rows that lose every item.
fn database(rows: &[(Vec<u32>, bool)], items: usize) -> TransactionDatabase {
    let mut all: Vec<Vec<Item>> = rows.iter().map(|(r, _)| r.clone()).collect();
    all.extend(
        rows.iter()
            .filter(|(_, copy)| *copy)
            .map(|(r, _)| r.clone()),
    );
    TransactionDatabase::from_codes_with_base(all, items)
}

// ---------------------------------------------------------------- cases

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn flat_recode_matches_the_boxed_recode(
        rows in vec((vec(0u32..12, 0..7usize), any::<bool>()), 0..60),
        minsupp in 0u32..6,
        exclude in vec(0u32..14, 0..3usize),
    ) {
        let db = database(&rows, 14);
        agree(&db, minsupp, &ItemSet::new(exclude));
    }

    #[test]
    fn long_databases_of_few_shapes_keep_equal_rows_in_input_order(
        rows in vec((vec(0u32..4, 0..4usize), any::<bool>()), 40..160),
        minsupp in 1u32..20,
    ) {
        // few distinct rows, many copies: every sort sees long runs of
        // equal rows, whose order only a stable sort keeps
        let db = database(&rows, 6);
        agree(&db, minsupp, &ItemSet::empty());
        agree(&db, minsupp, &ItemSet::from([3]));
    }
}

#[test]
fn degenerate_databases() {
    agree(&TransactionDatabase::new(), 1, &ItemSet::empty());
    let blank = TransactionDatabase::from_codes_with_base(vec![vec![], vec![]], 3);
    agree(&blank, 1, &ItemSet::empty());
    // every item excluded or infrequent: every row is dropped
    let db = TransactionDatabase::from_codes(vec![vec![0, 1], vec![1], vec![2]]);
    agree(&db, 1, &ItemSet::from([0, 1, 2]));
    agree(&db, 4, &ItemSet::empty());
}
