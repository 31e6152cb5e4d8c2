//! Writers for mined closed item sets.
//!
//! The default format matches Borgelt's `ista`/`carpenter` command-line
//! programs: one set per line, item names separated by spaces, followed by
//! the absolute support in parentheses:
//!
//! ```text
//! a b c (4)
//! d e (3)
//! ```

use crate::text::ItemLines;
use fim_core::{FimError, ItemCatalog, MiningResult, RankedResult, TransactionDatabase};
use std::io::Write;

/// Writes a mining result (over raw catalog codes) with item names from
/// `db`'s catalog, in Borgelt's output format.
pub fn write_results<W: Write>(
    result: &MiningResult,
    db: &TransactionDatabase,
    writer: W,
) -> Result<(), FimError> {
    write_results_named(result, db.catalog(), writer)
}

/// Like [`write_results`], naming items from a bare [`ItemCatalog`] — for
/// results whose codes were minted outside a [`TransactionDatabase`], such
/// as a resumed stream checkpoint.
pub fn write_results_named<W: Write>(
    result: &MiningResult,
    catalog: &ItemCatalog,
    writer: W,
) -> Result<(), FimError> {
    let mut out = ItemLines::catalog(catalog, writer);
    for s in &result.sets {
        out.names(s.items.as_slice())?;
        out.text(b" (");
        out.number(s.support);
        out.text(b")");
        out.end_line()?;
    }
    out.finish()
}

/// Like [`write_results_named`], for a result in rank-mask form: each
/// line is written from its key's mask bits, through a name table of the
/// result's ranks, in the keys' order. A rank whose raw code `catalog`
/// does not name is [`FimError::InvalidInput`], before anything is
/// written.
pub fn write_ranked<W: Write>(
    result: &RankedResult,
    catalog: &ItemCatalog,
    writer: W,
) -> Result<(), FimError> {
    let ranks = result.table().rank_to_raw().iter().copied();
    let mut out = ItemLines::new(catalog, ranks, writer)?;
    for key in result.keys() {
        out.ranked(key);
        out.text(b" (");
        out.number(key.support());
        out.text(b")");
        out.end_line()?;
    }
    out.finish()
}

/// Writes a mining result as CSV (`items;support`, items space-separated by
/// code) — the machine-readable companion used by the experiment harness.
pub fn write_results_csv<W: Write>(result: &MiningResult, mut writer: W) -> Result<(), FimError> {
    writeln!(writer, "items;support")?;
    for s in &result.sets {
        let items: Vec<String> = s.items.iter().map(|i| i.to_string()).collect();
        writeln!(writer, "{};{}", items.join(" "), s.support)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fim_core::{FoundSet, ItemSet};

    fn fixture() -> (MiningResult, TransactionDatabase) {
        let db = TransactionDatabase::from_named(&[vec!["a", "b"], vec!["a", "c"]]);
        let result = MiningResult {
            sets: vec![
                FoundSet::new(ItemSet::from([0]), 2),
                FoundSet::new(ItemSet::from([0, 2]), 1),
            ],
        };
        (result, db)
    }

    #[test]
    fn borgelt_format() {
        let (r, db) = fixture();
        let mut out = Vec::new();
        write_results(&r, &db, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text, "a (2)\na c (1)\n");
    }

    #[test]
    fn csv_format() {
        let (r, _) = fixture();
        let mut out = Vec::new();
        write_results_csv(&r, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text, "items;support\n0;2\n0 2;1\n");
    }

    #[test]
    fn empty_set_line_keeps_its_leading_space() {
        let (_, db) = fixture();
        let r = MiningResult {
            sets: vec![FoundSet::new(ItemSet::empty(), 5)],
        };
        let mut out = Vec::new();
        write_results(&r, &db, &mut out).unwrap();
        assert_eq!(out, b" (5)\n");
    }

    #[test]
    fn unknown_code_is_error() {
        let (mut r, db) = fixture();
        r.sets.push(FoundSet::new(ItemSet::from([99]), 1));
        let mut out = Vec::new();
        match write_results(&r, &db, &mut out) {
            Err(FimError::InvalidInput(m)) => assert_eq!(m, "item code 99 has no catalog name"),
            other => panic!("expected InvalidInput, got {other:?}"),
        }
    }
}
