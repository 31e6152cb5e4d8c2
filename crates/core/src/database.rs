//! Raw transaction databases over named items.

use crate::{
    catalog::ItemCatalog,
    itemset::ItemSet,
    recode::Density,
    rows::{ItemRows, Rows},
    Item, Tid,
};

/// A transaction database: a bag of transactions over an item base
/// (paper §2.1).
///
/// Transactions are stored in insertion order, in one flat [`ItemRows`]
/// pool; duplicates are allowed (the database is a multiset of item sets),
/// and each transaction is strictly ascending, as [`ItemSet::new`] leaves
/// it. Item codes are "raw" catalog codes;
/// mining algorithms operate on a [`RecodedDatabase`](crate::RecodedDatabase)
/// produced by [`RecodedDatabase::prepare`](crate::RecodedDatabase::prepare),
/// which filters infrequent items and applies the item/transaction orders of
/// paper §3.4.
#[derive(Clone, Debug, Default)]
pub struct TransactionDatabase {
    catalog: ItemCatalog,
    transactions: ItemRows,
}

impl TransactionDatabase {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a database from transactions given as item-name slices.
    pub fn from_named<S: AsRef<str>>(transactions: &[Vec<S>]) -> Self {
        let mut db = Self::new();
        for t in transactions {
            db.push_named(t);
        }
        db
    }

    /// Builds a database from transactions given as raw item-code vectors.
    ///
    /// The catalog is filled with anonymous names covering the largest code.
    pub fn from_codes(transactions: Vec<Vec<Item>>) -> Self {
        let max = transactions
            .iter()
            .flat_map(|t| t.iter().copied())
            .max()
            .map_or(0, |m| m as usize + 1);
        Self::from_codes_with_base(transactions, max)
    }

    /// Builds a database from raw item-code vectors over an explicit item
    /// base `0..num_items` (useful when some items never occur).
    ///
    /// # Panics
    ///
    /// Panics if a transaction contains a code `>= num_items`.
    pub fn from_codes_with_base(transactions: Vec<Vec<Item>>, num_items: usize) -> Self {
        let occurrences = transactions.iter().map(Vec::len).sum();
        let mut db = Self {
            catalog: ItemCatalog::anonymous(num_items),
            transactions: ItemRows::with_capacity(transactions.len(), occurrences),
        };
        for t in transactions {
            assert!(
                t.iter().all(|&i| (i as usize) < num_items),
                "item code out of range for the declared item base"
            );
            db.transactions.push_set(t);
        }
        db
    }

    /// Builds a database from a catalog and transactions over its codes,
    /// for readers that intern names themselves.
    ///
    /// # Panics
    ///
    /// Panics if a transaction holds a code the catalog does not name.
    pub fn from_parts(catalog: ItemCatalog, transactions: ItemRows) -> Self {
        assert!(
            transactions
                .view()
                .iter()
                .all(|t| t.last().is_none_or(|&i| (i as usize) < catalog.len())),
            "item code out of range for the catalog"
        );
        Self {
            catalog,
            transactions,
        }
    }

    /// Appends a transaction given by item names, interning new names.
    pub fn push_named<S: AsRef<str>>(&mut self, items: &[S]) {
        let catalog = &mut self.catalog;
        self.transactions
            .push_set(items.iter().map(|s| catalog.intern(s.as_ref())));
    }

    /// Appends a transaction given as an item set over existing codes.
    pub fn push(&mut self, items: ItemSet) {
        self.transactions.push_sorted(items.as_slice());
    }

    /// The item catalog.
    pub fn catalog(&self) -> &ItemCatalog {
        &self.catalog
    }

    /// Number of transactions.
    pub fn num_transactions(&self) -> usize {
        self.transactions.len()
    }

    /// Number of distinct items in the catalog (the item base size).
    pub fn num_items(&self) -> usize {
        self.catalog.len()
    }

    /// Whether the database holds no transactions.
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }

    /// The transactions in insertion order.
    pub fn transactions(&self) -> Rows<'_> {
        self.transactions.view()
    }

    /// The transactions' storage, for a recode that copies it whole.
    pub(crate) fn rows(&self) -> &ItemRows {
        &self.transactions
    }

    /// Occurrence count of every item code (index = code).
    pub fn item_frequencies(&self) -> Vec<u32> {
        let mut freq = vec![0u32; self.num_items()];
        for t in self.transactions() {
            for &it in t {
                freq[it as usize] += 1;
            }
        }
        freq
    }

    /// The cover of `items`: indices of transactions containing the set
    /// (paper §2.1, `K_T(I)`).
    pub fn cover(&self, items: &ItemSet) -> Vec<Tid> {
        crate::cover::cover(self.transactions(), items)
    }

    /// The support of `items`: the size of its cover (paper §2.1, `s_T(I)`).
    pub fn support(&self, items: &ItemSet) -> u32 {
        self.cover(items).len() as u32
    }

    /// Total number of item occurrences over all transactions.
    pub fn total_occurrences(&self) -> usize {
        self.transactions().total_items()
    }

    /// The shape and fill of the raw database, before any recoding: every
    /// catalog item is a column. `fim mine --rep auto` selects its kernel
    /// from this, once, before any miner runs.
    pub fn density(&self) -> Density {
        Density::new(
            self.num_transactions(),
            self.num_items(),
            self.total_occurrences() as u64,
        )
    }

    /// The transposed database: items become transactions and vice versa
    /// (the gene-expression dual of paper §4).
    ///
    /// Transaction `k` of the result contains item `j` iff transaction `j`
    /// of `self` contains item `k`. Item names of the result are the tids of
    /// `self` rendered in decimal.
    pub fn transpose(&self) -> TransactionDatabase {
        let mut rows: Vec<Vec<Item>> = vec![Vec::new(); self.num_items()];
        for (tid, t) in self.transactions().iter().enumerate() {
            for &it in t {
                rows[it as usize].push(tid as Item);
            }
        }
        let mut db = TransactionDatabase {
            catalog: ItemCatalog::anonymous(self.num_transactions()),
            transactions: ItemRows::with_capacity(rows.len(), self.total_occurrences()),
        };
        for row in rows {
            // tids were visited in ascending order, so rows are sorted
            db.transactions.push_sorted(&row);
        }
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The example database of paper Table 1.
    pub(crate) fn paper_db() -> TransactionDatabase {
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
    fn build_from_names() {
        let db = paper_db();
        assert_eq!(db.num_transactions(), 8);
        assert_eq!(db.num_items(), 5);
        assert!(!db.is_empty());
        // a=0 b=1 c=2 d=3 e=4 in order of first appearance
        assert_eq!(db.catalog().code("e"), Some(4));
        assert_eq!(db.transactions()[3], [0, 1, 2, 3]);
    }

    #[test]
    fn frequencies_match_paper_table1_column_heads() {
        let db = paper_db();
        // paper: a occurs 4x, b 5x, c 5x, d 6x, e 3x
        assert_eq!(db.item_frequencies(), vec![4, 5, 5, 6, 3]);
        assert_eq!(db.total_occurrences(), 23);
    }

    #[test]
    fn raw_density_counts_every_catalog_item() {
        let db = paper_db();
        let d = db.density();
        assert_eq!((d.rows, d.cols, d.ones), (8, 5, 23));
        assert!((d.fill - 23.0 / 40.0).abs() < 1e-12);
        // every item is frequent at support 1, so recoding keeps the shape
        let recoded = crate::RecodedDatabase::prepare(
            &db,
            1,
            crate::ItemOrder::default(),
            crate::TransactionOrder::default(),
        );
        assert_eq!(recoded.density(), d);
    }

    #[test]
    fn cover_and_support() {
        let db = paper_db();
        let bc = ItemSet::from([1, 2]);
        assert_eq!(db.cover(&bc), vec![0, 2, 3, 4]);
        assert_eq!(db.support(&bc), 4);
        assert_eq!(db.support(&ItemSet::empty()), 8);
        assert_eq!(db.support(&ItemSet::from([0, 4])), 1); // {a,e} only t2
    }

    #[test]
    fn from_codes_roundtrip() {
        let db = TransactionDatabase::from_codes(vec![vec![2, 0], vec![1]]);
        assert_eq!(db.num_items(), 3);
        assert_eq!(db.transactions()[0], [0, 2]);
        assert_eq!(db.catalog().name(2), Some("2"));
    }

    #[test]
    fn from_parts_keeps_catalog_and_transactions() {
        let db = paper_db();
        let parts = TransactionDatabase::from_parts(db.catalog().clone(), db.transactions.clone());
        assert_eq!(parts.transactions(), db.transactions());
        assert_eq!(parts.catalog().name(4), Some("e"));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_parts_rejects_unnamed_codes() {
        let mut rows = ItemRows::new();
        rows.push_sorted(&[2]);
        TransactionDatabase::from_parts(ItemCatalog::anonymous(2), rows);
    }

    #[test]
    fn transpose_involution() {
        let db = paper_db();
        let tdb = db.transpose();
        assert_eq!(tdb.num_transactions(), db.num_items());
        assert_eq!(tdb.num_items(), db.num_transactions());
        // item a (=0) occurs in t1,t2,t4,t6 → tids 0,1,3,5
        assert_eq!(tdb.transactions()[0], [0, 1, 3, 5]);
        let back = tdb.transpose();
        assert_eq!(back.transactions(), db.transactions());
    }

    #[test]
    fn empty_database() {
        let db = TransactionDatabase::new();
        assert_eq!(db.num_transactions(), 0);
        assert_eq!(db.item_frequencies(), Vec::<u32>::new());
        assert_eq!(db.support(&ItemSet::empty()), 0);
    }
}
