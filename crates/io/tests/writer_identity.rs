//! The chunked byte-level writers against the `write!` formulas they
//! replaced: every result and database renders to the same bytes.

use fim_core::{FoundSet, Item, ItemCatalog, ItemSet, MiningResult, TransactionDatabase};
use fim_io::{write_fimi, write_results_named};
use proptest::collection::vec;
use proptest::prelude::*;
use std::io::Write;

/// The result formula the formatter replaced.
fn old_results(result: &MiningResult, catalog: &ItemCatalog) -> Vec<u8> {
    let mut writer = Vec::new();
    for s in &result.sets {
        let mut first = true;
        for item in s.items.iter() {
            let name = catalog.name(item).unwrap();
            if !first {
                write!(writer, " ").unwrap();
            }
            write!(writer, "{name}").unwrap();
            first = false;
        }
        writeln!(writer, " ({})", s.support).unwrap();
    }
    writer
}

/// The FIMI formula the formatter replaced.
fn old_fimi(db: &TransactionDatabase) -> Vec<u8> {
    let mut writer = Vec::new();
    for t in db.transactions() {
        let mut first = true;
        for item in t.iter() {
            let name = db.catalog().name(item).unwrap();
            if !first {
                write!(writer, " ").unwrap();
            }
            write!(writer, "{name}").unwrap();
            first = false;
        }
        writeln!(writer).unwrap();
    }
    writer
}

/// Name fragments: ASCII, two-, three- and four-byte UTF-8, digits.
const PIECES: &[&str] = &["a", "7", "-", "é", "ß", "日本", "🦀", "x_y", "0"];

fn name(pieces: &[usize]) -> String {
    pieces.iter().map(|&p| PIECES[p]).collect()
}

fn catalog(names: &[Vec<usize>]) -> ItemCatalog {
    let mut catalog = ItemCatalog::new();
    for n in names {
        catalog.intern(&name(n));
    }
    catalog
}

/// Picks sets over `catalog`'s codes from raw draws.
fn result(catalog: &ItemCatalog, sets: &[(Vec<u32>, u32)]) -> MiningResult {
    let n = catalog.len() as u32;
    MiningResult {
        sets: sets
            .iter()
            .map(|(items, support)| {
                let codes: Vec<Item> = items.iter().map(|&i| i % n.max(1)).collect();
                let items = if n == 0 {
                    ItemSet::empty()
                } else {
                    ItemSet::new(codes)
                };
                FoundSet::new(items, *support)
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn results_match_the_write_formula(
        names in vec(vec(0..PIECES.len(), 1..5usize), 0..40),
        sets in vec((vec(any::<u32>(), 0..30usize), any::<u32>()), 0..400),
    ) {
        let catalog = catalog(&names);
        let result = result(&catalog, &sets);
        let mut out = Vec::new();
        write_results_named(&result, &catalog, &mut out).unwrap();
        prop_assert_eq!(out, old_results(&result, &catalog));
    }

    #[test]
    fn fimi_matches_the_write_formula(
        txs in vec(vec(vec(0..PIECES.len(), 1..4usize), 0..12usize), 0..300),
    ) {
        let named: Vec<Vec<String>> =
            txs.iter().map(|t| t.iter().map(|n| name(n)).collect()).collect();
        let db = TransactionDatabase::from_named(&named);
        let mut out = Vec::new();
        write_fimi(&db, &mut out).unwrap();
        prop_assert_eq!(out, old_fimi(&db));
    }
}

#[test]
fn multi_chunk_result_matches_the_write_formula() {
    // about 1.3 MB: many chunk boundaries, each inside some line
    let names: Vec<Vec<usize>> = (0..500)
        .map(|k| vec![k % PIECES.len(), (k / 7) % PIECES.len(), k % 5])
        .collect();
    let catalog = catalog(&names);
    let sets: Vec<(Vec<u32>, u32)> = (0..20_000u32)
        .map(|k| {
            (
                (0..(k % 13)).map(|j| k * 31 + j * 97).collect(),
                k.wrapping_mul(2_654_435_761),
            )
        })
        .collect();
    let result = result(&catalog, &sets);
    let mut out = Vec::new();
    write_results_named(&result, &catalog, &mut out).unwrap();
    assert!(out.len() > 1 << 20, "{} bytes", out.len());
    assert_eq!(out, old_results(&result, &catalog));
}

#[test]
fn names_around_the_fixed_copy_width_match_the_write_formulas() {
    // entries (name and separator) of 7, 8 and 9 bytes; multi-byte names
    // that end at byte 7 and byte 8; long names between short ones; and a
    // short name last, whose 8-byte copy reaches into the table's padding
    let names = [
        "abcdef",
        "abcdefg",
        "abcdefgh",
        "abcd日",
        "abcde日",
        "🦀🦀",
        "a_name_far_longer_than_a_word",
        "é",
        "x_y7",
        "abcdefghijklmnop",
        "z",
    ];
    let mut catalog = ItemCatalog::new();
    for name in names {
        catalog.intern(name);
    }
    let n = names.len() as Item;
    let mut sets = vec![FoundSet::new(ItemSet::empty(), 9)];
    sets.push(FoundSet::new((0..n).collect(), 1));
    for a in 0..n {
        sets.push(FoundSet::new(ItemSet::from([a]), a + 2));
        for b in a + 1..n {
            sets.push(FoundSet::new(ItemSet::from([a, b]), a * n + b));
        }
    }
    let result = MiningResult { sets };
    let mut out = Vec::new();
    write_results_named(&result, &catalog, &mut out).unwrap();
    assert_eq!(out, old_results(&result, &catalog));

    let mut txs: Vec<Vec<&str>> = vec![names.to_vec(), vec![]];
    for a in names {
        txs.push(vec![a]);
        txs.extend(names.iter().map(|&b| vec![b, a]));
    }
    let db = TransactionDatabase::from_named(&txs);
    let mut out = Vec::new();
    write_fimi(&db, &mut out).unwrap();
    assert_eq!(out, old_fimi(&db));
}
