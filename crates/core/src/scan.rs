//! A transaction database as one reading pass leaves it.
//!
//! A reader that interns each item as its token ends hands the code to a
//! [`ScannedDatabase`], which keeps each row duplicate-free in input order
//! and counts item frequencies in the same step. The rows are sorted only
//! once, by whichever use comes next: [`into_database`] sorts them by raw
//! code into a [`TransactionDatabase`], and
//! [`RecodedDatabase::prepare_scanned`] maps the pool in place to the
//! recoded codes and sorts each row in their order.
//!
//! [`into_database`]: ScannedDatabase::into_database
//! [`RecodedDatabase::prepare_scanned`]: crate::RecodedDatabase::prepare_scanned

use crate::{
    catalog::ItemCatalog, database::TransactionDatabase, recode::Density, rows::ItemRows, Item,
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

    /// The shape and fill of the rows, every catalog item a column, as
    /// [`TransactionDatabase::density`] gives it for the same rows.
    pub fn density(&self) -> Density {
        let closed = self.offsets[self.num_transactions()];
        Density::new(self.num_transactions(), self.catalog.len(), closed as u64)
    }

    /// The closed rows as a [`TransactionDatabase`], each row sorted.
    pub fn into_database(self) -> TransactionDatabase {
        let (catalog, mut items, offsets, _) = self.into_parts();
        for w in offsets.windows(2) {
            items[w[0]..w[1]].sort_unstable();
        }
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
