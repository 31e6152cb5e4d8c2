//! A transaction database as one reading pass leaves it.
//!
//! A reader that interns each item as its token ends hands the code to a
//! [`ScannedDatabase`], which keeps each row duplicate-free in input order
//! and counts item frequencies in the same step. The rows are sorted only
//! once, by whichever use comes next: [`into_database`] sorts them by raw
//! code into a [`TransactionDatabase`], and
//! [`RecodedDatabase::prepare_scanned`] maps the pool in place to the
//! recoded codes and sorts each row in their order. A file read in ranges
//! gives one scan per range, which [`append`] joins in file order.
//!
//! [`into_database`]: ScannedDatabase::into_database
//! [`append`]: ScannedDatabase::append
//! [`RecodedDatabase::prepare_scanned`]: crate::RecodedDatabase::prepare_scanned

use crate::{
    catalog::ItemCatalog,
    database::TransactionDatabase,
    ranges::{range_count, row_ranges, run_parts},
    recode::Density,
    rows::ItemRows,
    Item,
};

/// Marks an item no row holds yet in [`ScannedDatabase`]'s row marks.
const NO_ROW: u32 = u32::MAX;

/// The catalog, the rows and the item frequencies of one reading pass.
///
/// Rows are built one at a time: [`push_item`](Self::push_item) adds an
/// item to the open row unless the row holds it already, and
/// [`end_row`](Self::end_row) closes it. An item's frequency is the
/// number of rows that hold it, as
/// [`TransactionDatabase::item_frequencies`] counts it.
#[derive(Clone, Debug)]
pub struct ScannedDatabase {
    catalog: ItemCatalog,
    /// Every row's items in one pool, each row in the order its items were
    /// first pushed.
    items: Vec<Item>,
    /// One more entry than there are closed rows; the last is where the
    /// open row starts.
    offsets: Vec<usize>,
    /// Per item code: the number of the last row it was added to, or
    /// [`NO_ROW`], and the number of rows it was added to.
    stats: Vec<(u32, u32)>,
    /// The open row's number, modulo [`NO_ROW`]: when it wraps, every
    /// mark is cleared, so a mark never names an earlier row.
    open: u32,
}

impl Default for ScannedDatabase {
    fn default() -> Self {
        Self::new()
    }
}

impl ScannedDatabase {
    /// No rows and an empty catalog.
    pub fn new() -> Self {
        ScannedDatabase {
            catalog: ItemCatalog::new(),
            items: Vec::new(),
            offsets: vec![0],
            stats: Vec::new(),
            open: 0,
        }
    }

    /// The item catalog.
    pub fn catalog(&self) -> &ItemCatalog {
        &self.catalog
    }

    /// The item catalog, for a reader that interns names as it reads them.
    pub fn catalog_mut(&mut self) -> &mut ItemCatalog {
        &mut self.catalog
    }

    /// Adds `item`, a code of the catalog, to the open row, unless the
    /// row holds it already.
    #[inline]
    pub fn push_item(&mut self, item: Item) {
        let i = item as usize;
        debug_assert!(
            i < self.catalog.len(),
            "item code out of range for the catalog"
        );
        if i >= self.stats.len() {
            self.stats.resize(i + 1, (NO_ROW, 0));
        }
        let (last_row, frequency) = &mut self.stats[i];
        if *last_row != self.open {
            *last_row = self.open;
            *frequency += 1;
            self.items.push(item);
        }
    }

    /// Closes the open row; an empty row is a row too.
    #[inline]
    pub fn end_row(&mut self) {
        self.offsets.push(self.items.len());
        self.open += 1;
        if self.open == NO_ROW {
            self.open = 0;
            for (last_row, _) in &mut self.stats {
                *last_row = NO_ROW;
            }
        }
    }

    /// Drops the items of the open row, as if none had been pushed.
    pub fn discard_row(&mut self) {
        let start = self.offsets[self.offsets.len() - 1];
        for &i in &self.items[start..] {
            let (last_row, frequency) = &mut self.stats[i as usize];
            *last_row = NO_ROW;
            *frequency -= 1;
        }
        self.items.truncate(start);
    }

    /// Number of closed rows.
    pub fn num_transactions(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of rows holding each catalog item (index = code).
    pub fn item_frequencies(&self) -> Vec<u32> {
        let mut freq: Vec<u32> = self.stats.iter().map(|&(_, f)| f).collect();
        freq.resize(self.catalog.len(), 0);
        freq
    }

    /// The bytes of the rows' pool, whose size sets the number of ranges
    /// a recode of the rows takes.
    pub(crate) fn pool_bytes(&self) -> u64 {
        std::mem::size_of_val(&self.items[..]) as u64
    }

    /// The shape and fill of the rows, every catalog item a column, as
    /// [`TransactionDatabase::density`] gives it for the same rows.
    pub fn density(&self) -> Density {
        let closed = self.offsets[self.num_transactions()];
        Density::new(self.num_transactions(), self.catalog.len(), closed as u64)
    }

    /// Appends the closed rows of `later`, a scan of the lines that follow
    /// this scan's, as one pass over both would have read them. `later`'s
    /// names are interned in its code order, so every code stays in order
    /// of first appearance; its rows are mapped to those codes as they are
    /// appended; and its frequencies are added. Both open rows are dropped.
    pub fn append(&mut self, later: ScannedDatabase) {
        self.discard_row();
        let (catalog, items, offsets, frequencies) = later.into_parts();
        let codes: Vec<Item> = catalog
            .iter()
            .map(|(_, name)| self.catalog.intern(name))
            .collect();
        self.stats.resize(self.catalog.len(), (NO_ROW, 0));
        for (&code, &frequency) in codes.iter().zip(&frequencies) {
            self.stats[code as usize].1 += frequency;
        }
        let base = self.items.len();
        self.items.extend(items.iter().map(|&i| codes[i as usize]));
        self.offsets
            .extend(offsets[1..].iter().map(|&end| base + end));
        // the open row's number jumps past the appended rows, and a mark
        // could name a later row only if that jump wraps; clear them all,
        // as `end_row` does when the number wraps
        for (last_row, _) in &mut self.stats {
            *last_row = NO_ROW;
        }
        self.open = (self.num_transactions() % NO_ROW as usize) as u32;
    }

    /// The closed rows as a [`TransactionDatabase`], each row sorted, the
    /// rows of a large pool in ranges on scoped threads
    /// ([`range_count`]).
    pub fn into_database(self) -> TransactionDatabase {
        let ranges = range_count(self.pool_bytes());
        self.into_database_in_ranges(ranges)
    }

    /// [`into_database`](Self::into_database) with the rows cut into at
    /// most `ranges` ranges; the database is the same for every count.
    pub fn into_database_in_ranges(self, ranges: usize) -> TransactionDatabase {
        let (catalog, mut items, mut offsets, _) = self.into_parts();
        run_parts(row_ranges(&mut items, &mut offsets[1..], ranges), |range| {
            let mut start = 0;
            for &end in range.ends.iter() {
                range.items[start..end - range.base].sort_unstable();
                start = end - range.base;
            }
        });
        TransactionDatabase::from_parts(catalog, ItemRows::from_parts(items, offsets))
    }

    /// The catalog, the closed rows' pool and offsets, and a frequency for
    /// every catalog item.
    pub(crate) fn into_parts(mut self) -> (ItemCatalog, Vec<Item>, Vec<usize>, Vec<u32>) {
        self.discard_row();
        let frequencies = self.item_frequencies();
        (self.catalog, self.items, self.offsets, frequencies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scans rows of names as a reader would: each name interned, then
    /// pushed.
    fn scan(rows: &[&[&str]]) -> ScannedDatabase {
        let mut s = ScannedDatabase::new();
        for row in rows {
            for name in *row {
                let code = s.catalog_mut().intern(name);
                s.push_item(code);
            }
            s.end_row();
        }
        s
    }

    #[test]
    fn rows_drop_repeats_and_count_each_row_once() {
        let s = scan(&[&["c", "a", "c"], &[], &["a", "b", "a"]]);
        assert_eq!(s.num_transactions(), 3);
        assert_eq!(s.item_frequencies(), [1, 2, 1]);
        let d = s.density();
        assert_eq!((d.rows, d.cols, d.ones), (3, 3, 4));
        let db = s.into_database();
        assert_eq!(db.transactions()[0], [0, 1]);
        assert!(db.transactions()[1].is_empty());
        assert_eq!(db.transactions()[2], [1, 2]);
        assert_eq!(db.item_frequencies(), vec![1, 2, 1]);
        assert_eq!(db.density(), d);
    }

    #[test]
    fn row_marks_are_cleared_when_the_row_number_wraps() {
        // `c` is marked by row 0 and untouched until the row number is 0
        // again
        let mut s = scan(&[&["a", "c"]]);
        s.open = NO_ROW - 1;
        for row in [["a", "b"], ["c", "b"]] {
            for name in row {
                let code = s.catalog_mut().intern(name);
                s.push_item(code);
            }
            s.end_row();
        }
        assert_eq!(s.open, 1);
        assert_eq!(s.item_frequencies(), [2, 2, 2]);
        let db = s.into_database();
        assert_eq!(db.transactions()[2], [1, 2]);
    }

    #[test]
    fn appended_scans_read_as_one_pass() {
        let rows: &[&[&str]] = &[&["c", "a"], &[], &["b", "a", "d"], &["d", "e", "c"], &["f"]];
        let whole = scan(rows);
        for split in 0..=rows.len() {
            let mut joined = scan(&rows[..split]);
            // an open row of either side is dropped
            if !joined.catalog().is_empty() {
                joined.push_item(0);
            }
            let mut later = scan(&rows[split..]);
            let code = later.catalog_mut().intern("z");
            later.push_item(code);
            joined.append(later);
            let names: Vec<&str> = joined.catalog().iter().map(|(_, n)| n).collect();
            assert_eq!(names[..5], ["c", "a", "b", "d", "e"], "split at {split}");
            assert_eq!(joined.num_transactions(), 5);
            let mut freq = whole.item_frequencies();
            freq.resize(joined.catalog().len(), 0);
            assert_eq!(joined.item_frequencies(), freq);
            assert_eq!(joined.density().ones, whole.density().ones);
            // a row pushed after the join counts each item once
            for name in ["a", "f", "a"] {
                let code = joined.catalog_mut().intern(name);
                joined.push_item(code);
            }
            joined.end_row();
            let (db, want) = (joined.into_database(), whole.clone().into_database());
            let got: Vec<&[Item]> = db.transactions().iter().take(5).collect();
            assert_eq!(got, want.transactions().iter().collect::<Vec<_>>());
            assert_eq!(db.transactions()[5], [1, 5]);
        }
    }

    #[test]
    fn rows_sort_alike_in_every_range_count() {
        let rows: Vec<Vec<String>> = (0..40)
            .map(|r| {
                (0..r % 7)
                    .map(|k| ((r * 5 + k * 3) % 11).to_string())
                    .collect()
            })
            .collect();
        let rows: Vec<Vec<&str>> = rows
            .iter()
            .map(|r| r.iter().map(String::as_str).collect())
            .collect();
        let rows: Vec<&[&str]> = rows.iter().map(Vec::as_slice).collect();
        let want = scan(&rows).into_database_in_ranges(1);
        for k in [2, 3, 7, 100] {
            let got = scan(&rows).into_database_in_ranges(k);
            assert_eq!(got.transactions(), want.transactions(), "{k} ranges");
        }
    }

    #[test]
    fn a_discarded_row_leaves_no_trace_but_its_names() {
        let mut s = scan(&[&["a", "b"]]);
        for name in ["b", "c", "b"] {
            let code = s.catalog_mut().intern(name);
            s.push_item(code);
        }
        s.discard_row();
        // the same row read again, as a reader that restarts a line does
        for name in ["b", "d"] {
            let code = s.catalog_mut().intern(name);
            s.push_item(code);
        }
        s.end_row();
        assert_eq!(s.item_frequencies(), [1, 2, 0, 1]);
        // an open row is not part of the database
        s.push_item(0);
        let db = s.into_database();
        assert_eq!(db.num_transactions(), 2);
        assert_eq!(db.transactions()[1], [1, 3]);
        assert_eq!(db.item_frequencies(), vec![1, 2, 0, 1]);
    }
}
