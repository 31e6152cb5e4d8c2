//! Recoding: the preprocessing pass every miner shares.
//!
//! Virtually all frequent item set mining algorithms start with one pass over
//! the database to count item frequencies, remove infrequent items, choose an
//! item-code order, and reorder the transactions (paper §3.2, §3.4). The
//! result is a [`RecodedDatabase`] with dense item codes `0..num_items` in
//! the requested [`ItemOrder`] and transactions in the requested
//! [`TransactionOrder`]. Mined results are translated back to the raw codes
//! of the source [`TransactionDatabase`] via [`Recode`].
//!
//! Removing items with frequency below the minimum support is lossless for
//! *frequent* closed sets: a closed set containing an infrequent item has at
//! most that item's support and is therefore itself infrequent.

use crate::{
    catalog::ItemCatalog,
    database::TransactionDatabase,
    itemset::ItemSet,
    order::{ItemOrder, TransactionOrder},
    prepare::cmp_size_then_desc_lex,
    ranges::{cut, range_count, row_ranges, run_parts, RowRange},
    rows::{ItemRows, Rows},
    scan::ScannedDatabase,
    Item, Tid,
};

/// The code and transaction mappings produced by recoding.
#[derive(Clone, Debug)]
pub struct Recode {
    /// Raw catalog code → new dense code (`None` for filtered items).
    pub item_to_new: Vec<Option<Item>>,
    /// New dense code → raw catalog code.
    pub item_to_old: Vec<Item>,
    /// New transaction index → original transaction index.
    pub tx_to_old: Vec<Tid>,
}

impl Recode {
    /// Translates an item set over new codes back to raw catalog codes.
    pub fn decode_items(&self, items: &ItemSet) -> ItemSet {
        decode_with(&self.item_to_old, items)
    }

    /// Translates an item set over raw catalog codes to new codes.
    ///
    /// Returns `None` if any item of the set was filtered out.
    pub fn encode_items(&self, items: &ItemSet) -> Option<ItemSet> {
        let mut out = Vec::with_capacity(items.len());
        for i in items.iter() {
            out.push(*self.item_to_new.get(i as usize)?.as_ref()?);
        }
        Some(ItemSet::new(out))
    }
}

/// The streaming half of recoding: everything [`RecodedDatabase::prepare`]
/// derives from the item-frequency histogram, without the transactions.
///
/// The out-of-core pipeline cannot materialize the database, so recoding
/// splits into two passes: pass 1 streams the input once and counts item
/// frequencies (a `Vec<u32>` over raw catalog codes — the only state whose
/// size is bounded by the item universe, not the transaction count); this
/// constructor then fixes the surviving items, their dense codes, and the
/// global support snapshot; pass 2 re-reads the input and feeds each
/// transaction through [`encode_transaction`](Self::encode_transaction).
///
/// The item selection and ordering are exactly `prepare`'s: items with
/// frequency `< minsupp` are dropped (lossless for frequent closed sets),
/// survivors are ordered by `item_order` with the raw code as tie-breaker.
/// Because dropping infrequent items never changes a surviving item's
/// support, the dense-code support snapshot is the raw histogram restricted
/// to the survivors — no second counting pass is needed.
#[derive(Clone, Debug)]
pub struct StreamingRecode {
    /// Raw code → dense code, [`DROPPED`] for filtered items.
    item_to_new: Vec<Item>,
    item_to_old: Vec<Item>,
    item_supports: Vec<u32>,
    minsupp_used: u32,
}

impl StreamingRecode {
    /// Fixes the recoding from a raw item-frequency histogram (indexed by
    /// raw catalog code; the frequency counts each transaction once per
    /// item it contains). `minsupp` is clamped to at least 1.
    pub fn from_counts(freq: &[u32], minsupp: u32, item_order: ItemOrder) -> Self {
        let minsupp = minsupp.max(1);
        let surviving = select_items(freq, minsupp, item_order, &ItemSet::empty());
        let item_to_new = code_table(&surviving, freq.len());
        let item_supports = surviving.iter().map(|&old| freq[old as usize]).collect();
        StreamingRecode {
            item_to_new,
            item_to_old: surviving,
            item_supports,
            minsupp_used: minsupp,
        }
    }

    /// Recodes one transaction of raw catalog codes into sorted dense
    /// codes, dropping filtered items, into `out` (cleared first). Returns
    /// `false` when the transaction became empty (the caller skips it, as
    /// `prepare` drops empties).
    pub fn encode_transaction(&self, raw: &[Item], out: &mut Vec<Item>) -> bool {
        out.clear();
        for &i in raw {
            if let Some(new) = self
                .item_to_new
                .get(i as usize)
                .copied()
                .filter(|&n| n != DROPPED)
            {
                out.push(new);
            }
        }
        out.sort_unstable();
        out.dedup();
        !out.is_empty()
    }

    /// Number of surviving dense item codes.
    pub fn num_items(&self) -> u32 {
        self.item_to_old.len() as u32
    }

    /// Global support of every dense item code over the whole database.
    pub fn item_supports(&self) -> &[u32] {
        &self.item_supports
    }

    /// Dense code → raw catalog code.
    pub fn item_to_old(&self) -> &[Item] {
        &self.item_to_old
    }

    /// The minimum support the recoding was fixed for.
    pub fn minsupp_used(&self) -> u32 {
        self.minsupp_used
    }

    /// Translates an item set over dense codes back to raw catalog codes.
    pub fn decode_items(&self, items: &ItemSet) -> ItemSet {
        decode_with(&self.item_to_old, items)
    }
}

/// The items of `freq` (raw code → frequency) that reach `minsupp` and
/// are not excluded, in `item_order` with the raw code as tie-breaker:
/// the new code of each is its index.
fn select_items(freq: &[u32], minsupp: u32, item_order: ItemOrder, exclude: &ItemSet) -> Vec<Item> {
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
    surviving
}

/// Marks a raw code the recode drops in [`code_table`]'s table.
const DROPPED: Item = Item::MAX;

/// Raw code → new code over `items` raw codes, [`DROPPED`] for the codes
/// `surviving` does not hold.
fn code_table(surviving: &[Item], items: usize) -> Vec<Item> {
    let mut table = vec![DROPPED; items];
    for (new, &old) in surviving.iter().enumerate() {
        table[old as usize] = new as Item;
    }
    table
}

/// The body of both `decode_items`: a copy of `items` translated through
/// a dense → raw code table.
fn decode_with(item_to_old: &[Item], items: &ItemSet) -> ItemSet {
    let mut raw = items.clone();
    raw.translate(item_to_old);
    raw
}

/// The recode loop over one range of rows. It maps each row in place
/// through `table` (raw → new code, [`DROPPED`] for filtered items),
/// keeps the mapped items at the front of the range's items, sorts each
/// kept row, and writes the kept rows' ends (counted from the range's
/// start) and tids to the front of `range.ends` and `tids`. A kept row is
/// written where it or an earlier row was read, and its end where it or
/// an earlier row's end was. Returns the counts of kept rows and items.
fn recode_rows(range: RowRange<'_>, tids: &mut [Tid], table: &[Item]) -> (usize, usize) {
    let RowRange {
        first,
        base,
        items,
        ends,
    } = range;
    let (mut read, mut write, mut kept) = (0, 0, 0);
    for row in 0..ends.len() {
        let (start, end) = (write, ends[row] - base);
        for k in read..end {
            let new = table[items[k] as usize];
            if new != DROPPED {
                items[write] = new;
                write += 1;
            }
        }
        read = end;
        if write > start {
            items[start..write].sort_unstable();
            tids[kept] = (first + row) as Tid;
            ends[kept] = write;
            kept += 1;
        }
    }
    (kept, write)
}

/// Stable-sorts the rows of `rows` by `cmp` into a fresh pool, carrying
/// each row's source tid along: the sort moves `(tid, &[Item])` pairs
/// that borrow the pool, then the rows are gathered in their new order.
fn reorder(
    rows: &ItemRows,
    tx_to_old: &[Tid],
    cmp: impl Fn(&[Item], &[Item]) -> std::cmp::Ordering,
) -> (ItemRows, Vec<Tid>) {
    let view = rows.view();
    let mut pairs: Vec<(Tid, &[Item])> = tx_to_old.iter().copied().zip(view).collect();
    pairs.sort_by(|a, b| cmp(a.1, b.1));
    let mut sorted = ItemRows::with_capacity(pairs.len(), view.total_items());
    for &(_, t) in &pairs {
        sorted.push_sorted(t);
    }
    (sorted, pairs.iter().map(|&(tid, _)| tid).collect())
}

/// A mining-ready database: dense recoded items, ordered transactions in
/// one flat [`ItemRows`] pool.
///
/// All miner implementations in this workspace take a `&RecodedDatabase`.
#[derive(Clone, Debug)]
pub struct RecodedDatabase {
    transactions: ItemRows,
    num_items: u32,
    item_supports: Vec<u32>,
    recode: Recode,
    original_transactions: u32,
    minsupp_used: u32,
}

impl RecodedDatabase {
    /// Recode `db` for mining with minimum support `minsupp`.
    ///
    /// Items with frequency `< minsupp` are removed (`minsupp` is clamped to
    /// at least 1); transactions that become empty are dropped. Item codes
    /// and transaction order follow `item_order` / `tx_order`.
    pub fn prepare(
        db: &TransactionDatabase,
        minsupp: u32,
        item_order: ItemOrder,
        tx_order: TransactionOrder,
    ) -> Self {
        Self::prepare_excluding(db, minsupp, item_order, tx_order, &ItemSet::empty())
    }

    /// Like [`prepare`](Self::prepare), additionally projecting away the
    /// `exclude` items (raw catalog codes): they are dropped from every
    /// transaction exactly as infrequent items are, before transactions are
    /// reordered and empties removed. This is how the must-exclude
    /// constraint is pushed — see the semantics note in
    /// [`crate::constraint`].
    pub fn prepare_excluding(
        db: &TransactionDatabase,
        minsupp: u32,
        item_order: ItemOrder,
        tx_order: TransactionOrder,
        exclude: &ItemSet,
    ) -> Self {
        let (items, offsets) = db.rows().clone().into_parts();
        let freq = db.item_frequencies();
        let ranges = range_count(std::mem::size_of_val(&items[..]) as u64);
        Self::recode_pool(
            items, offsets, &freq, minsupp, item_order, tx_order, exclude, ranges,
        )
    }

    /// [`prepare_excluding`](Self::prepare_excluding) for the rows of one
    /// reading pass, recoded in their own pool, and the catalog that names
    /// their raw codes. The rows need no sort before: each is sorted once,
    /// in the new code order. A large pool is recoded in ranges of rows on
    /// scoped threads ([`range_count`]).
    pub fn prepare_scanned(
        scan: ScannedDatabase,
        minsupp: u32,
        item_order: ItemOrder,
        tx_order: TransactionOrder,
        exclude: &ItemSet,
    ) -> (Self, ItemCatalog) {
        let ranges = range_count(scan.pool_bytes());
        Self::prepare_scanned_in_ranges(scan, minsupp, item_order, tx_order, exclude, ranges)
    }

    /// [`prepare_scanned`](Self::prepare_scanned) with the rows cut into
    /// at most `ranges` ranges; the recode is the same for every count.
    pub fn prepare_scanned_in_ranges(
        scan: ScannedDatabase,
        minsupp: u32,
        item_order: ItemOrder,
        tx_order: TransactionOrder,
        exclude: &ItemSet,
        ranges: usize,
    ) -> (Self, ItemCatalog) {
        let (catalog, items, offsets, freq) = scan.into_parts();
        let recoded = Self::recode_pool(
            items, offsets, &freq, minsupp, item_order, tx_order, exclude, ranges,
        );
        (recoded, catalog)
    }

    /// The one recode: [`recode_rows`] over each of at most `ranges`
    /// ranges of rows, on scoped threads, then one move per later range
    /// closes the gaps its dropped items and rows left. The pool's unused
    /// end is given back before the rows are reordered. Rows must be
    /// duplicate-free, in any order; `freq` counts the rows that hold each
    /// raw code.
    #[allow(clippy::too_many_arguments)]
    fn recode_pool(
        mut items: Vec<Item>,
        mut offsets: Vec<usize>,
        freq: &[u32],
        minsupp: u32,
        item_order: ItemOrder,
        tx_order: TransactionOrder,
        exclude: &ItemSet,
        ranges: usize,
    ) -> Self {
        let minsupp = minsupp.max(1);
        let surviving = select_items(freq, minsupp, item_order, exclude);
        let table = code_table(&surviving, freq.len());
        // a transaction that holds a surviving item keeps it and is not
        // dropped, so each survivor's support is its raw frequency
        let item_supports: Vec<u32> = surviving.iter().map(|&old| freq[old as usize]).collect();

        let rows = offsets.len() - 1;
        let mut tx_to_old: Vec<Tid> = vec![0; rows];
        let parts = row_ranges(&mut items, &mut offsets[1..], ranges);
        let at: Vec<(usize, usize)> = parts.iter().map(|r| (r.first, r.base)).collect();
        let tids = cut(&mut tx_to_old, parts.iter().map(|r| r.ends.len()));
        let kept = run_parts(parts.into_iter().zip(tids).collect(), |(range, tids)| {
            recode_rows(range, tids, &table)
        });
        // the first range's rows are in place; each later range's kept
        // rows move down to follow them, their ends shifted to the pool
        let (mut rows_kept, mut items_kept) = kept.first().copied().unwrap_or((0, 0));
        for (&(first, base), &(n_rows, n_items)) in at.iter().zip(&kept).skip(1) {
            items.copy_within(base..base + n_items, items_kept);
            tx_to_old.copy_within(first..first + n_rows, rows_kept);
            for k in 0..n_rows {
                offsets[1 + rows_kept + k] = offsets[1 + first + k] + items_kept;
            }
            rows_kept += n_rows;
            items_kept += n_items;
        }
        items.truncate(items_kept);
        offsets.truncate(rows_kept + 1);
        tx_to_old.truncate(rows_kept);
        // the raw pool's end would otherwise stay resident through mining
        items.shrink_to_fit();
        offsets.shrink_to_fit();
        let mut transactions = ItemRows::from_parts(items, offsets);
        match tx_order {
            TransactionOrder::AscendingSize => {
                (transactions, tx_to_old) =
                    reorder(&transactions, &tx_to_old, cmp_size_then_desc_lex);
            }
            TransactionOrder::DescendingSize => {
                (transactions, tx_to_old) = reorder(&transactions, &tx_to_old, |a, b| {
                    cmp_size_then_desc_lex(b, a)
                });
            }
            TransactionOrder::Original => {}
        }

        RecodedDatabase {
            transactions,
            num_items: surviving.len() as u32,
            item_supports,
            recode: Recode {
                item_to_new: table
                    .into_iter()
                    .map(|new| (new != DROPPED).then_some(new))
                    .collect(),
                item_to_old: surviving,
                tx_to_old,
            },
            original_transactions: rows as u32,
            minsupp_used: minsupp,
        }
    }

    /// Builds a recoded database directly from dense-code transactions,
    /// without filtering or reordering.
    ///
    /// Intended for tests and for algorithm inputs that are already
    /// preprocessed. Transactions are canonicalized (sorted, deduplicated
    /// within each transaction); empty transactions are kept out.
    pub fn from_dense(transactions: Vec<Vec<Item>>, num_items: u32) -> Self {
        let occurrences = transactions.iter().map(Vec::len).sum();
        let mut txs = ItemRows::with_capacity(transactions.len(), occurrences);
        let mut tx_to_old = Vec::new();
        let original = transactions.len() as u32;
        for (tid, t) in transactions.into_iter().enumerate() {
            assert!(
                t.iter().all(|&i| i < num_items),
                "item code out of range for num_items"
            );
            if txs.push_nonempty_set(t) {
                tx_to_old.push(tid as Tid);
            }
        }
        let mut item_supports = vec![0u32; num_items as usize];
        for t in txs.view() {
            for &i in t {
                item_supports[i as usize] += 1;
            }
        }
        RecodedDatabase {
            transactions: txs,
            num_items,
            item_supports,
            recode: Recode {
                item_to_new: (0..num_items).map(Some).collect(),
                item_to_old: (0..num_items).collect(),
                tx_to_old,
            },
            original_transactions: original,
            minsupp_used: 1,
        }
    }

    /// The transactions, each a strictly ascending slice of dense codes.
    pub fn transactions(&self) -> Rows<'_> {
        self.transactions.view()
    }

    /// One transaction by index.
    pub fn transaction(&self, tid: Tid) -> &[Item] {
        self.transactions.view().row(tid as usize)
    }

    /// Number of (surviving, non-empty) transactions.
    pub fn num_transactions(&self) -> usize {
        self.transactions.len()
    }

    /// Number of transactions in the source database (including dropped).
    pub fn original_transactions(&self) -> u32 {
        self.original_transactions
    }

    /// Number of dense item codes.
    pub fn num_items(&self) -> u32 {
        self.num_items
    }

    /// Support of every dense item code in the recoded database.
    pub fn item_supports(&self) -> &[u32] {
        &self.item_supports
    }

    /// The minimum support the recoding was prepared for.
    pub fn minsupp_used(&self) -> u32 {
        self.minsupp_used
    }

    /// The code/transaction mappings back to the source database.
    pub fn recode(&self) -> &Recode {
        &self.recode
    }

    /// Support of an item set by scanning (used by tests and verification).
    pub fn support(&self, items: &ItemSet) -> u32 {
        crate::cover::support(self.transactions(), items)
    }

    /// Largest transaction size.
    pub fn max_transaction_len(&self) -> usize {
        self.transactions()
            .iter()
            .map(<[Item]>::len)
            .max()
            .unwrap_or(0)
    }

    /// The fill-rate estimate driving representation selection.
    ///
    /// `O(num_items)` — supports are already counted, so no pass over the
    /// transactions is needed.
    pub fn density(&self) -> Density {
        let ones = self.item_supports.iter().map(|&s| s as u64).sum();
        Density::new(self.num_transactions(), self.num_items as usize, ones)
    }
}

/// Shape and fill statistics of a [`RecodedDatabase`], the input to
/// representation selection (`fill` = ones ÷ rows×cols).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Density {
    /// Number of transactions.
    pub rows: usize,
    /// Number of items.
    pub cols: usize,
    /// Total item occurrences (sum of transaction lengths).
    pub ones: u64,
    /// `ones / (rows × cols)`, in `[0, 1]`; `0.0` for a degenerate
    /// (empty) database.
    pub fill: f64,
    /// Mean transaction length (`ones / rows`; `0.0` when empty).
    pub avg_row_len: f64,
}

impl Density {
    /// The statistics of a `rows` × `cols` database holding `ones` item
    /// occurrences.
    pub fn new(rows: usize, cols: usize, ones: u64) -> Self {
        let cells = rows as u64 * cols as u64;
        Density {
            rows,
            cols,
            ones,
            fill: if cells == 0 {
                0.0
            } else {
                ones as f64 / cells as f64
            },
            avg_row_len: if rows == 0 {
                0.0
            } else {
                ones as f64 / rows as f64
            },
        }
    }

    /// Whether the database has no cells at all (no transactions, no
    /// items, or no occurrences).
    pub fn is_degenerate(&self) -> bool {
        self.rows == 0 || self.cols == 0 || self.ones == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_db() -> TransactionDatabase {
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
    fn ascending_frequency_codes() {
        let db = paper_db();
        let r = RecodedDatabase::prepare(
            &db,
            1,
            ItemOrder::AscendingFrequency,
            TransactionOrder::Original,
        );
        // raw freqs: a=4 b=5 c=5 d=6 e=3  → order e(3),a(4),b(5),c(5),d(6)
        assert_eq!(r.recode().item_to_old, vec![4, 0, 1, 2, 3]);
        assert_eq!(r.item_supports(), &[3, 4, 5, 5, 6]);
        assert_eq!(r.num_items(), 5);
        assert_eq!(r.num_transactions(), 8);
    }

    #[test]
    fn infrequent_items_filtered_and_empty_dropped() {
        let db = TransactionDatabase::from_named(&[vec!["x"], vec!["a", "b"], vec!["a", "b", "y"]]);
        let r = RecodedDatabase::prepare(
            &db,
            2,
            ItemOrder::AscendingFrequency,
            TransactionOrder::Original,
        );
        // x and y have freq 1 < 2; transaction {x} becomes empty.
        assert_eq!(r.num_items(), 2);
        assert_eq!(r.num_transactions(), 2);
        assert_eq!(r.original_transactions(), 3);
        assert_eq!(r.recode().tx_to_old, vec![1, 2]);
        for t in r.transactions() {
            assert_eq!(t.len(), 2);
        }
    }

    #[test]
    fn transaction_order_ascending_size() {
        let db = paper_db();
        let r =
            RecodedDatabase::prepare(&db, 1, ItemOrder::Original, TransactionOrder::AscendingSize);
        let sizes: Vec<usize> = r.transactions().iter().map(|t| t.len()).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sizes, sorted);
        assert_eq!(r.transactions()[0].len(), 2);
        assert_eq!(r.transactions().iter().last().unwrap().len(), 4);
    }

    #[test]
    fn transaction_order_descending_size() {
        let db = paper_db();
        let r = RecodedDatabase::prepare(
            &db,
            1,
            ItemOrder::Original,
            TransactionOrder::DescendingSize,
        );
        let sizes: Vec<usize> = r.transactions().iter().map(|t| t.len()).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(sizes, sorted);
    }

    #[test]
    fn decode_roundtrip() {
        let db = paper_db();
        let r = RecodedDatabase::prepare(
            &db,
            1,
            ItemOrder::AscendingFrequency,
            TransactionOrder::AscendingSize,
        );
        let raw = ItemSet::from([1, 2, 3]); // b,c,d
        let enc = r.recode().encode_items(&raw).unwrap();
        let dec = r.recode().decode_items(&enc);
        assert_eq!(dec, raw);
    }

    #[test]
    fn encode_filtered_item_is_none() {
        let db = TransactionDatabase::from_named(&[vec!["a", "b"], vec!["a"]]);
        let r = RecodedDatabase::prepare(&db, 2, ItemOrder::Original, TransactionOrder::Original);
        assert!(r.recode().encode_items(&ItemSet::from([1])).is_none());
        assert!(r.recode().encode_items(&ItemSet::from([0])).is_some());
    }

    #[test]
    fn support_scan_matches_raw_database() {
        let db = paper_db();
        let r = RecodedDatabase::prepare(
            &db,
            1,
            ItemOrder::AscendingFrequency,
            TransactionOrder::AscendingSize,
        );
        // support is invariant under recoding+reordering
        let raw = ItemSet::from([1, 2]); // b,c
        let enc = r.recode().encode_items(&raw).unwrap();
        assert_eq!(r.support(&enc), db.support(&raw));
    }

    #[test]
    fn from_dense_canonicalizes() {
        let r = RecodedDatabase::from_dense(vec![vec![2, 0, 2], vec![], vec![1]], 3);
        assert_eq!(r.num_transactions(), 2);
        assert_eq!(r.transaction(0), &[0, 2]);
        assert_eq!(r.item_supports(), &[1, 1, 1]);
        assert_eq!(r.original_transactions(), 3);
        assert_eq!(r.max_transaction_len(), 2);
    }

    #[test]
    fn density_counts_fill() {
        let r = RecodedDatabase::from_dense(vec![vec![0, 1, 2], vec![0, 1], vec![2]], 4);
        let d = r.density();
        assert_eq!(d.rows, 3);
        assert_eq!(d.cols, 4);
        assert_eq!(d.ones, 6);
        assert!((d.fill - 0.5).abs() < 1e-12);
        assert!((d.avg_row_len - 2.0).abs() < 1e-12);
        assert!(!d.is_degenerate());
        let empty = RecodedDatabase::from_dense(vec![], 5);
        let de = empty.density();
        assert!(de.is_degenerate());
        assert_eq!(de.fill, 0.0);
        assert_eq!(de.avg_row_len, 0.0);
    }

    /// The streaming recode must agree with `prepare` on item selection,
    /// dense codes, per-item supports, and per-transaction encodings.
    #[test]
    fn streaming_recode_matches_prepare() {
        let db = paper_db();
        for minsupp in [1, 2, 4, 5] {
            for order in [
                ItemOrder::AscendingFrequency,
                ItemOrder::DescendingFrequency,
                ItemOrder::Original,
            ] {
                let want =
                    RecodedDatabase::prepare(&db, minsupp, order, TransactionOrder::Original);
                let sr = StreamingRecode::from_counts(&db.item_frequencies(), minsupp, order);
                assert_eq!(sr.num_items(), want.num_items());
                assert_eq!(sr.item_to_old(), &want.recode().item_to_old[..]);
                assert_eq!(sr.item_supports(), want.item_supports());
                assert_eq!(sr.minsupp_used(), want.minsupp_used());
                let mut buf = Vec::new();
                let mut encoded: Vec<Vec<Item>> = Vec::new();
                for t in db.transactions() {
                    if sr.encode_transaction(t, &mut buf) {
                        encoded.push(buf.clone());
                    }
                }
                let want_txs: Vec<Vec<Item>> =
                    want.transactions().iter().map(|t| t.to_vec()).collect();
                assert_eq!(encoded, want_txs, "minsupp={minsupp} order={order:?}");
            }
        }
    }

    #[test]
    fn streaming_recode_decodes_and_handles_out_of_range() {
        let sr = StreamingRecode::from_counts(&[3, 1, 2], 2, ItemOrder::AscendingFrequency);
        // survivors: item 2 (freq 2), item 0 (freq 3) → dense 0 = raw 2
        assert_eq!(sr.num_items(), 2);
        assert_eq!(sr.item_to_old(), &[2, 0]);
        assert_eq!(sr.item_supports(), &[2, 3]);
        let mut buf = Vec::new();
        // raw code 9 is beyond the histogram: treated as filtered, not a panic
        assert!(sr.encode_transaction(&[0, 1, 9], &mut buf));
        assert_eq!(buf, vec![1]);
        assert!(!sr.encode_transaction(&[1, 9], &mut buf));
        assert_eq!(
            sr.decode_items(&ItemSet::from([0, 1])),
            ItemSet::from([0, 2])
        );
    }

    #[test]
    fn minsupp_zero_clamped() {
        let db = paper_db();
        let r = RecodedDatabase::prepare(&db, 0, ItemOrder::Original, TransactionOrder::Original);
        assert_eq!(r.minsupp_used(), 1);
        assert_eq!(r.num_items(), 5);
    }
}
