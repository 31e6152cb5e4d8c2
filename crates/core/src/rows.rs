//! Flat transaction storage: every row of a database in one item pool,
//! delimited by offsets (compressed sparse rows).
//!
//! Both [`TransactionDatabase`](crate::TransactionDatabase) and
//! [`RecodedDatabase`](crate::RecodedDatabase) keep their transactions in
//! an [`ItemRows`]: building one costs two growing vectors instead of one
//! heap block per transaction, and dropping one frees two blocks. Every
//! row is strictly ascending and duplicate-free, as [`ItemSet::new`]
//! leaves a transaction. Readers see the rows through the [`Rows`] view,
//! whose rows are plain `&[Item]` slices.
//!
//! [`ItemSet::new`]: crate::ItemSet::new

use crate::Item;
use std::fmt;
use std::ops::{Index, Range};

/// Rows of items in one pool plus offsets: row `k` is
/// `items[offsets[k]..offsets[k + 1]]`.
///
/// Offsets are `usize`, so a database past `u32::MAX` item occurrences
/// still indexes every row exactly.
#[derive(Clone)]
pub struct ItemRows {
    items: Vec<Item>,
    /// One more entry than there are rows; the first is 0.
    offsets: Vec<usize>,
}

impl Default for ItemRows {
    fn default() -> Self {
        Self::new()
    }
}

impl ItemRows {
    /// No rows.
    pub fn new() -> Self {
        ItemRows {
            items: Vec::new(),
            offsets: vec![0],
        }
    }

    /// No rows, with room for `rows` rows of `items` item occurrences in
    /// all.
    pub fn with_capacity(rows: usize, items: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        ItemRows {
            items: Vec::with_capacity(items),
            offsets,
        }
    }

    /// Appends the items `items` yields as one row, sorted and
    /// deduplicated in place. An empty row is a row too.
    pub fn push_set<I: IntoIterator<Item = Item>>(&mut self, items: I) {
        self.fill_tail(items);
        self.offsets.push(self.items.len());
    }

    /// Like [`push_set`](Self::push_set), but an empty row is not added.
    /// Returns whether a row was.
    pub fn push_nonempty_set<I: IntoIterator<Item = Item>>(&mut self, items: I) -> bool {
        if self.fill_tail(items) == 0 {
            return false;
        }
        self.offsets.push(self.items.len());
        true
    }

    /// Appends a row that is already strictly ascending.
    pub fn push_sorted(&mut self, row: &[Item]) {
        debug_assert!(
            row.windows(2).all(|w| w[0] < w[1]),
            "row is not strictly ascending"
        );
        self.items.extend_from_slice(row);
        self.offsets.push(self.items.len());
    }

    /// Rows from a pool and its offsets (one more than there are rows,
    /// the first 0, none decreasing), each row strictly ascending.
    pub(crate) fn from_parts(items: Vec<Item>, offsets: Vec<usize>) -> Self {
        debug_assert!(offsets.first() == Some(&0) && offsets.last() == Some(&items.len()));
        let rows = ItemRows { items, offsets };
        debug_assert!(
            rows.view()
                .iter()
                .all(|r| r.windows(2).all(|w| w[0] < w[1])),
            "row is not strictly ascending"
        );
        rows
    }

    /// The pool and the offsets, for a pass that rewrites them in place.
    pub(crate) fn into_parts(self) -> (Vec<Item>, Vec<usize>) {
        (self.items, self.offsets)
    }

    /// Appends `items` to the pool after the last row, sorts and
    /// deduplicates them there, and returns how many are left. They form
    /// no row until the caller pushes their end offset.
    fn fill_tail<I: IntoIterator<Item = Item>>(&mut self, items: I) -> usize {
        let start = self.items.len();
        self.items.extend(items);
        let tail = &mut self.items[start..];
        tail.sort_unstable();
        let mut kept = usize::from(!tail.is_empty());
        for k in 1..tail.len() {
            if tail[k] != tail[kept - 1] {
                tail[kept] = tail[k];
                kept += 1;
            }
        }
        self.items.truncate(start + kept);
        kept
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The rows.
    pub fn view(&self) -> Rows<'_> {
        Rows {
            items: &self.items,
            offsets: &self.offsets,
        }
    }
}

impl fmt::Debug for ItemRows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.view().fmt(f)
    }
}

/// A borrowed run of rows of an [`ItemRows`]: its length, its rows by
/// index, and an iterator over them, each row a `&[Item]`.
#[derive(Clone, Copy)]
pub struct Rows<'a> {
    items: &'a [Item],
    /// One more entry than there are rows. They index `items`, so a
    /// sub-view keeps the whole pool and a window of the offsets.
    offsets: &'a [usize],
}

impl<'a> Rows<'a> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.len()`.
    pub fn row(&self, k: usize) -> &'a [Item] {
        &self.items[self.offsets[k]..self.offsets[k + 1]]
    }

    /// The rows in order.
    pub fn iter(&self) -> RowIter<'a> {
        RowIter {
            items: self.items,
            offsets: self.offsets,
        }
    }

    /// The rows `range`, as a view of their own.
    ///
    /// # Panics
    ///
    /// Panics if `range` does not lie within `0..self.len()`.
    pub fn slice(&self, range: Range<usize>) -> Rows<'a> {
        Rows {
            items: self.items,
            offsets: &self.offsets[range.start..=range.end],
        }
    }

    /// Total item occurrences over the rows.
    pub fn total_items(&self) -> usize {
        self.offsets[self.len()] - self.offsets[0]
    }
}

impl Index<usize> for Rows<'_> {
    type Output = [Item];

    fn index(&self, k: usize) -> &[Item] {
        self.row(k)
    }
}

impl<'a> IntoIterator for Rows<'a> {
    type Item = &'a [Item];
    type IntoIter = RowIter<'a>;

    fn into_iter(self) -> RowIter<'a> {
        self.iter()
    }
}

impl PartialEq for Rows<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Rows<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The iterator of [`Rows::iter`].
#[derive(Clone)]
pub struct RowIter<'a> {
    items: &'a [Item],
    /// The offsets of the rows not yet yielded, as in [`Rows`].
    offsets: &'a [usize],
}

impl<'a> Iterator for RowIter<'a> {
    type Item = &'a [Item];

    fn next(&mut self) -> Option<&'a [Item]> {
        match self.offsets {
            [start, end, ..] => {
                let row = &self.items[*start..*end];
                self.offsets = &self.offsets[1..];
                Some(row)
            }
            _ => None,
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.offsets.len().saturating_sub(1);
        (n, Some(n))
    }
}

impl ExactSizeIterator for RowIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_set_sorts_and_dedups_each_row_in_place() {
        let mut rows = ItemRows::new();
        rows.push_set([3, 1, 3, 2]);
        rows.push_set([]);
        rows.push_set([7, 7]);
        assert!(!rows.push_nonempty_set([]));
        assert!(rows.push_nonempty_set([5, 4]));
        rows.push_sorted(&[0, 9]);
        let view = rows.view();
        assert_eq!(view.len(), 5);
        assert_eq!(view[0], [1, 2, 3]);
        assert!(view[1].is_empty());
        assert_eq!(view.row(2), &[7]);
        assert_eq!(view.row(3), &[4, 5]);
        assert_eq!(view.total_items(), 8);
        assert_eq!(
            view.iter().map(<[Item]>::len).collect::<Vec<_>>(),
            vec![3, 0, 1, 2, 2]
        );
        assert_eq!(format!("{rows:?}"), "[[1, 2, 3], [], [7], [4, 5], [0, 9]]");
    }

    #[test]
    fn slices_index_their_own_rows() {
        let mut rows = ItemRows::with_capacity(4, 8);
        for r in [&[0][..], &[1, 2], &[3], &[4, 5, 6]] {
            rows.push_sorted(r);
        }
        let all = rows.view();
        let mid = all.slice(1..3);
        assert_eq!(mid.len(), 2);
        assert_eq!(mid[0], [1, 2]);
        assert_eq!(mid.iter().len(), 2);
        assert_eq!(mid.total_items(), 3);
        assert!(all.slice(4..4).is_empty());
        assert_eq!(mid, all.slice(1..3));
        assert_ne!(mid, all.slice(0..2));
    }

    #[test]
    fn empty_rows_equal_and_iterate_nothing() {
        let rows = ItemRows::default();
        assert!(rows.is_empty());
        assert_eq!(rows.view().iter().next(), None);
        assert_eq!(rows.view(), ItemRows::new().view());
    }
}
