//! Covers, supports, and the vertical (tid-list) representation.
//!
//! Two vertical representations live here: [`TidLists`] (sorted `u32`
//! lists, the scalar reference) and [`BitCover`] (packed bit rows over the
//! transposed [`BitMatrix`], where support counting is word-AND + popcount
//! instead of a per-transaction subset scan).

use crate::{
    itemset::{is_subset, ItemSet},
    matrix::BitMatrix,
    recode::RecodedDatabase,
    Item, Tid,
};

/// The cover `K_T(I)` of an item set: ascending indices of the transactions
/// that contain it (paper §2.1).
pub fn cover<T: AsRef<[Item]>>(
    transactions: impl IntoIterator<Item = T>,
    items: &ItemSet,
) -> Vec<Tid> {
    transactions
        .into_iter()
        .enumerate()
        .filter(|(_, t)| is_subset(items.as_slice(), t.as_ref()))
        .map(|(k, _)| k as Tid)
        .collect()
}

/// The support `s_T(I)` of an item set: the size of its cover.
pub fn support<T: AsRef<[Item]>>(
    transactions: impl IntoIterator<Item = T>,
    items: &ItemSet,
) -> u32 {
    transactions
        .into_iter()
        .filter(|t| is_subset(items.as_slice(), t.as_ref()))
        .count() as u32
}

/// Vertical database representation: for each item, the ascending list of
/// transaction indices containing it (paper §2.2 / §3.1.1).
///
/// This is the core data structure of the list-based Carpenter variant.
#[derive(Clone, Debug)]
pub struct TidLists {
    lists: Vec<Vec<Tid>>,
    num_transactions: u32,
}

impl TidLists {
    /// Builds the vertical representation of a recoded database.
    pub fn from_database(db: &RecodedDatabase) -> Self {
        let mut lists: Vec<Vec<Tid>> = (0..db.num_items())
            .map(|i| Vec::with_capacity(db.item_supports()[i as usize] as usize))
            .collect();
        for (tid, t) in db.transactions().iter().enumerate() {
            for &i in t.iter() {
                lists[i as usize].push(tid as Tid);
            }
        }
        TidLists {
            lists,
            num_transactions: db.num_transactions() as u32,
        }
    }

    /// The tid list of one item.
    pub fn list(&self, item: Item) -> &[Tid] {
        &self.lists[item as usize]
    }

    /// Number of items.
    pub fn num_items(&self) -> u32 {
        self.lists.len() as u32
    }

    /// Number of transactions of the underlying database.
    pub fn num_transactions(&self) -> u32 {
        self.num_transactions
    }

    /// Support of a single item.
    pub fn item_support(&self, item: Item) -> u32 {
        self.lists[item as usize].len() as u32
    }

    /// Number of transactions with index `>= tid` that contain `item`
    /// (the remaining-occurrence counter of paper §3.1.1).
    pub fn remaining(&self, item: Item, tid: Tid) -> u32 {
        let list = &self.lists[item as usize];
        (list.len() - list.partition_point(|&t| t < tid)) as u32
    }

    /// The cover of an item set, computed by intersecting tid lists.
    pub fn cover(&self, items: &ItemSet) -> Vec<Tid> {
        let mut iter = items.iter();
        let Some(first) = iter.next() else {
            return (0..self.num_transactions).collect();
        };
        let mut acc: Vec<Tid> = self.lists[first as usize].clone();
        let mut buf: Vec<Tid> = Vec::with_capacity(acc.len());
        for item in iter {
            crate::itemset::intersect_into(&acc, &self.lists[item as usize], &mut buf);
            std::mem::swap(&mut acc, &mut buf);
            if acc.is_empty() {
                break;
            }
        }
        acc
    }

    /// Support of an item set via tid-list intersection.
    pub fn support(&self, items: &ItemSet) -> u32 {
        self.cover(items).len() as u32
    }
}

/// Dense vertical representation: the transposed membership matrix, one
/// packed bit row (tid set) per item.
///
/// Support of an item set is the popcount of the AND of its rows — exact,
/// because each transaction is exactly one bit, so the popcount of the AND
/// *is* the cover size. One row costs `num_transactions / 8` bytes against
/// `4 × support` for a tid list, so this representation is smaller as well
/// as faster whenever the fill rate exceeds `1/32`.
#[derive(Clone, Debug)]
pub struct BitCover {
    rows: BitMatrix,
    num_transactions: u32,
}

impl BitCover {
    /// Builds the dense vertical representation of a recoded database.
    pub fn from_database(db: &RecodedDatabase) -> Self {
        BitCover {
            rows: BitMatrix::from_database_transposed(db),
            num_transactions: db.num_transactions() as u32,
        }
    }

    /// Number of items.
    pub fn num_items(&self) -> u32 {
        self.rows.rows() as u32
    }

    /// Number of transactions of the underlying database.
    pub fn num_transactions(&self) -> u32 {
        self.num_transactions
    }

    /// Support of a single item (one row popcount).
    pub fn item_support(&self, item: Item) -> u32 {
        self.rows.row_count(item as usize)
    }

    /// Support of an item set: AND its rows, popcount the result, with an
    /// early exit when the running intersection empties.
    pub fn support(&self, items: &ItemSet) -> u32 {
        let mut iter = items.iter();
        let Some(first) = iter.next() else {
            return self.num_transactions;
        };
        let mut acc: Vec<u64> = self.rows.row_words(first as usize).words().to_vec();
        let mut live = self.rows.row_count(first as usize);
        for item in iter {
            live = 0;
            for (a, &b) in acc
                .iter_mut()
                .zip(self.rows.row_words(item as usize).words())
            {
                *a &= b;
                live += a.count_ones();
            }
            if live == 0 {
                break;
            }
        }
        live
    }

    /// The cover of an item set as ascending tids (AND + bit iteration).
    pub fn cover(&self, items: &ItemSet) -> Vec<Tid> {
        let mut iter = items.iter();
        let Some(first) = iter.next() else {
            return (0..self.num_transactions).collect();
        };
        let mut acc: Vec<u64> = self.rows.row_words(first as usize).words().to_vec();
        for item in iter {
            for (a, &b) in acc
                .iter_mut()
                .zip(self.rows.row_words(item as usize).words())
            {
                *a &= b;
            }
        }
        let mut out = Vec::new();
        for (wi, &word) in acc.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                out.push(wi as Tid * 64 + w.trailing_zeros());
                w &= w - 1;
            }
        }
        out
    }

    /// Approximate heap size in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.rows.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::TransactionDatabase;
    use crate::order::{ItemOrder, TransactionOrder};

    fn paper_recoded() -> RecodedDatabase {
        let db = TransactionDatabase::from_named(&[
            vec!["a", "b", "c"],
            vec!["a", "d", "e"],
            vec!["b", "c", "d"],
            vec!["a", "b", "c", "d"],
            vec!["b", "c"],
            vec!["a", "b", "d"],
            vec!["d", "e"],
            vec!["c", "d", "e"],
        ]);
        RecodedDatabase::prepare(&db, 1, ItemOrder::Original, TransactionOrder::Original)
    }

    #[test]
    fn cover_of_slice_db() {
        let txs = vec![
            ItemSet::from([0, 1]),
            ItemSet::from([1, 2]),
            ItemSet::from([0, 1, 2]),
        ];
        assert_eq!(cover(&txs, &ItemSet::from([1])), vec![0, 1, 2]);
        assert_eq!(cover(&txs, &ItemSet::from([0, 2])), vec![2]);
        assert_eq!(support(&txs, &ItemSet::from([0, 1])), 2);
        assert_eq!(cover(&txs, &ItemSet::empty()), vec![0, 1, 2]);
    }

    #[test]
    fn tid_lists_match_scan() {
        let db = paper_recoded();
        let v = TidLists::from_database(&db);
        assert_eq!(v.num_items(), 5);
        assert_eq!(v.num_transactions(), 8);
        // d = code 3: t2,t3,t4,t6,t7,t8 → tids 1,2,3,5,6,7
        assert_eq!(v.list(3), &[1, 2, 3, 5, 6, 7]);
        assert_eq!(v.item_support(3), 6);
        let bc = ItemSet::from([1, 2]);
        assert_eq!(v.cover(&bc), vec![0, 2, 3, 4]);
        assert_eq!(v.support(&bc), db.support(&bc));
    }

    #[test]
    fn empty_set_cover_is_all_tids() {
        let db = paper_recoded();
        let v = TidLists::from_database(&db);
        assert_eq!(v.cover(&ItemSet::empty()).len(), 8);
    }

    #[test]
    fn remaining_counts_match_paper_matrix() {
        // Paper Table 1: matrix entries count transactions t_j, j >= k,
        // containing item i. remaining(i, k) gives exactly that value.
        let db = paper_recoded();
        let v = TidLists::from_database(&db);
        // m[t1][a] = 4, m[t2][a] = 3, m[t4][a] = 2, m[t6][a] = 1
        assert_eq!(v.remaining(0, 0), 4);
        assert_eq!(v.remaining(0, 1), 3);
        assert_eq!(v.remaining(0, 3), 2);
        assert_eq!(v.remaining(0, 5), 1);
        assert_eq!(v.remaining(0, 6), 0);
        // m[t2][e] = 3, m[t7][e] = 2, m[t8][e] = 1
        assert_eq!(v.remaining(4, 1), 3);
        assert_eq!(v.remaining(4, 6), 2);
        assert_eq!(v.remaining(4, 7), 1);
    }

    #[test]
    fn bit_cover_matches_tid_lists() {
        let db = paper_recoded();
        let lists = TidLists::from_database(&db);
        let bits = BitCover::from_database(&db);
        assert_eq!(bits.num_items(), 5);
        assert_eq!(bits.num_transactions(), 8);
        for i in 0..5u32 {
            assert_eq!(bits.item_support(i), lists.item_support(i));
        }
        // all pairs and a few larger sets
        for i in 0..5u32 {
            for j in 0..5u32 {
                let s = ItemSet::from([i, j]);
                assert_eq!(bits.support(&s), lists.support(&s), "{s}");
                assert_eq!(bits.cover(&s), lists.cover(&s), "{s}");
            }
        }
        let abc = ItemSet::from([0, 1, 2]);
        assert_eq!(bits.support(&abc), lists.support(&abc));
        assert_eq!(
            bits.cover(&ItemSet::empty()),
            lists.cover(&ItemSet::empty())
        );
        assert_eq!(bits.support(&ItemSet::empty()), 8);
        assert!(bits.heap_bytes() > 0);
    }

    #[test]
    fn disjoint_cover_short_circuits() {
        let db = paper_recoded();
        let v = TidLists::from_database(&db);
        // {a,e} appears only in t2 (tid 1)
        assert_eq!(v.cover(&ItemSet::from([0, 4])), vec![1]);
        // {b,e} never co-occur... check: b in t1,t3,t4,t5,t6; e in t2,t7,t8
        assert!(v.cover(&ItemSet::from([1, 4])).is_empty());
    }
}
