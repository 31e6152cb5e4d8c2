//! The chunked byte-level writers against the `write!` formulas they
//! replaced: every result and database renders to the same bytes, and a
//! result in rank-mask form to the bytes of its sets decoded and sorted.

use fim_core::{
    FimError, FoundSet, Item, ItemCatalog, ItemSet, MiningResult, RankTable, RankedResult,
    TransactionDatabase,
};
use fim_io::{write_fimi, write_ranked, write_results_named};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeSet;
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

/// `sets` of dense codes, dense code `d` standing for raw code
/// `item_to_old[d]`, keyed, sorted and written by [`write_ranked`].
fn ranked_bytes(
    catalog: &ItemCatalog,
    item_to_old: &[Item],
    sets: &[(Vec<Item>, u32)],
) -> Result<Vec<u8>, FimError> {
    let table = RankTable::new(item_to_old).expect("at most 256 items");
    let keys = sets.iter().map(|(s, n)| table.key(s, *n)).collect();
    let mut ranked = RankedResult::new(table, keys);
    ranked.canonicalize();
    let mut out = Vec::new();
    write_ranked(&ranked, catalog, &mut out)?;
    Ok(out)
}

/// The same sets decoded to raw codes, sorted by comparison and written
/// by the formula: no code shared with the rank keys.
fn decoded_bytes(
    catalog: &ItemCatalog,
    item_to_old: &[Item],
    sets: &[(Vec<Item>, u32)],
) -> Vec<u8> {
    let result = MiningResult {
        sets: sets
            .iter()
            .map(|(s, n)| {
                let raw: Vec<Item> = s.iter().map(|&d| item_to_old[d as usize]).collect();
                FoundSet::new(ItemSet::new(raw), *n)
            })
            .collect(),
    };
    old_results(&result.canonicalized(), catalog)
}

/// Distinct sets over dense codes `0..n` from raw draws.
fn dense_sets(n: u32, draws: &[(Vec<u32>, u32)]) -> Vec<(Vec<Item>, u32)> {
    let mut seen = BTreeSet::new();
    draws
        .iter()
        .filter_map(|(items, support)| {
            let set: BTreeSet<Item> = items.iter().map(|&i| i % n.max(1)).collect();
            let set: Vec<Item> = if n == 0 {
                Vec::new()
            } else {
                set.into_iter().collect()
            };
            seen.insert(set.clone()).then_some((set, *support))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ranked_results_match_the_write_formula(
        names in vec(vec(0..PIECES.len(), 1..5usize), 0..300),
        picks in vec(any::<u32>(), 0..257usize),
        sets in vec((vec(any::<u32>(), 0..40usize), any::<u32>()), 0..300),
    ) {
        let catalog = catalog(&names);
        // dense codes name distinct catalog codes, in drawn order
        let mut item_to_old: Vec<Item> = Vec::new();
        for p in &picks {
            let code = p % (catalog.len() as u32).max(1);
            if !catalog.is_empty() && !item_to_old.contains(&code) {
                item_to_old.push(code);
            }
        }
        let sets = dense_sets(item_to_old.len() as u32, &sets);
        prop_assert_eq!(
            ranked_bytes(&catalog, &item_to_old, &sets).unwrap(),
            decoded_bytes(&catalog, &item_to_old, &sets)
        );
    }
}

#[test]
fn ranked_names_around_the_fixed_copy_width_match_the_write_formula() {
    // names of 6 to 9 bytes (entries of 7 to 10 with the separator),
    // multi-byte names ending at byte 7 and 8, long names between short
    // ones, and a short name at the last rank
    let names = [
        "abcdef",
        "abcdefg",
        "abcdefgh",
        "abcdefghi",
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
    // dense codes in reverse catalog order
    let item_to_old: Vec<Item> = (0..n).rev().collect();
    let mut sets = vec![(vec![], 5), ((0..n).collect(), 1)];
    for a in 0..n {
        sets.push((vec![a], a + 2));
        for b in a + 1..n {
            sets.push((vec![a, b], a * n + b));
        }
    }
    let out = ranked_bytes(&catalog, &item_to_old, &sets).unwrap();
    assert_eq!(out, decoded_bytes(&catalog, &item_to_old, &sets));
    // the empty set's line keeps its leading space
    assert!(
        out.starts_with(b" (5)\n"),
        "{}",
        String::from_utf8_lossy(&out)
    );
}

#[test]
fn ranked_output_across_chunk_boundaries_matches_the_write_formula() {
    // 256 names of 1 to 20 bytes and about 2 MB of lines: many chunk
    // boundaries, each inside some line, and lines over all four mask
    // words
    let mut catalog = ItemCatalog::new();
    for k in 0..256 {
        let prefix: String = (0..k % 7).map(|j| PIECES[(k + j) % PIECES.len()]).collect();
        catalog.intern(&format!("{prefix}{k}"));
    }
    let item_to_old: Vec<Item> = (0..256).map(|k| (k * 97) % 256).collect();
    let draws: Vec<(Vec<u32>, u32)> = (0..12_000u32)
        .map(|k| {
            (
                (0..(k % 61)).map(|j| k * 31 + j * 89).collect(),
                k.wrapping_mul(2_654_435_761),
            )
        })
        .collect();
    let sets = dense_sets(256, &draws);
    let out = ranked_bytes(&catalog, &item_to_old, &sets).unwrap();
    assert!(out.len() > 1 << 20, "{} bytes", out.len());
    assert_eq!(out, decoded_bytes(&catalog, &item_to_old, &sets));
}

#[test]
fn ranked_code_without_a_name_is_invalid_input() {
    // dense code 1 stands for raw code 3, which a catalog of 3 lacks
    let catalog = ItemCatalog::anonymous(3);
    let table = RankTable::new(&[0, 3]).unwrap();
    let keys = vec![table.key(&[0], 4), table.key(&[0, 1], 2)];
    let ranked = RankedResult::new(table, keys);
    let mut out = Vec::new();
    let got = write_ranked(&ranked, &catalog, &mut out);
    assert!(matches!(got, Err(FimError::InvalidInput(_))), "{got:?}");
    assert!(out.is_empty(), "wrote {} bytes", out.len());
}
