//! Matrix representations of a transaction database.
//!
//! [`SuffixCountMatrix`] is the `n × |B|` matrix of the table-based Carpenter
//! variant (paper §3.1.2, Table 1):
//!
//! ```text
//! m[k][i] = 0                                   if item i ∉ t_k
//! m[k][i] = |{ j | k ≤ j ≤ n ∧ i ∈ t_j }|       otherwise
//! ```
//!
//! A non-zero entry simultaneously answers the membership test `i ∈ t_k` and
//! provides the remaining-occurrence counter used for item elimination.
//! [`BitMatrix`] is a packed boolean membership matrix used where only the
//! membership test is needed. [`WordSet`] is a single owned packed row — a
//! set of small integers at 64 per `u64` word — with the word-parallel
//! kernels (in-place AND, AND+popcount, bit iteration) shared by the bitset
//! representations of every miner; [`BitsetRow`] is its borrowed view over a
//! [`BitMatrix`] row.

use crate::{recode::RecodedDatabase, Item, Tid};

/// Words [`WordSet::andnot_count_within`] reads between two checks of its
/// budget (1,024 elements).
pub const COUNT_BLOCK_WORDS: usize = 16;

/// A set of small unsigned integers packed 64 per `u64` word.
///
/// Element `x` lives at bit `x % 64` of word `x / 64`. The universe (maximum
/// element + 1) is fixed at construction; all word-parallel operations
/// require both operands to share it. Used as a transaction representation
/// (elements are item codes) by the IsTa bitset path and as a tid-set
/// representation (elements are transaction indices) by the Carpenter and
/// eclat bitset paths.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WordSet {
    words: Vec<u64>,
    universe: usize,
}

impl WordSet {
    /// The empty set over a universe of `universe` elements.
    pub fn new(universe: usize) -> Self {
        WordSet {
            words: vec![0u64; universe.div_ceil(64)],
            universe,
        }
    }

    /// Builds a set from strictly ascending elements, all `< universe`.
    pub fn from_sorted(elems: &[u32], universe: usize) -> Self {
        debug_assert!(elems.windows(2).all(|w| w[0] < w[1]));
        let mut s = WordSet::new(universe);
        for &x in elems {
            s.insert(x);
        }
        s
    }

    /// The universe size fixed at construction.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// The packed words, low elements first.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Inserts an element.
    #[inline]
    pub fn insert(&mut self, x: u32) {
        debug_assert!((x as usize) < self.universe);
        self.words[x as usize / 64] |= 1u64 << (x % 64);
    }

    /// Removes an element.
    #[inline]
    pub fn remove(&mut self, x: u32) {
        debug_assert!((x as usize) < self.universe);
        self.words[x as usize / 64] &= !(1u64 << (x % 64));
    }

    /// Membership test: one shift and mask.
    #[inline]
    pub fn contains(&self, x: u32) -> bool {
        debug_assert!((x as usize) < self.universe);
        self.words[x as usize / 64] >> (x % 64) & 1 != 0
    }

    /// Number of elements (popcount over all words).
    pub fn count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// In-place intersection `self &= other`, returning the surviving
    /// element count. One AND and one popcount per word.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn and_in_place(&mut self, other: &WordSet) -> u32 {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        let mut count = 0u32;
        for (a, &b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= b;
            count += a.count_ones();
        }
        count
    }

    /// `|self ∩ other|` without materialising the intersection: fused
    /// AND+popcount per word. This is the bitset support-counting kernel —
    /// exact because every element is exactly one bit, so the popcount of
    /// the AND *is* the intersection cardinality.
    pub fn and_count(&self, other: &WordSet) -> u32 {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        self.words
            .iter()
            .zip(other.words.iter())
            .map(|(&a, &b)| (a & b).count_ones())
            .sum()
    }

    /// In-place difference `self &= !other`, returning the surviving
    /// element count (the dEclat diffset kernel).
    pub fn andnot_in_place(&mut self, other: &WordSet) -> u32 {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        let mut count = 0u32;
        for (a, &b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= !b;
            count += a.count_ones();
        }
        count
    }

    /// `|self \ other|` without materialising: fused ANDNOT+popcount.
    pub fn andnot_count(&self, other: &WordSet) -> u32 {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        self.words
            .iter()
            .zip(other.words.iter())
            .map(|(&a, &b)| (a & !b).count_ones())
            .sum()
    }

    /// `|self \ other|` if it is at most `budget`: `Ok(count)`, after
    /// reading every word. Otherwise `Err(words)`, where `words` is how
    /// many words of each operand were read. The count is checked once per
    /// [`COUNT_BLOCK_WORDS`] words, so a pair whose count passes the budget
    /// early is read only up to the end of the block where it did.
    ///
    /// This is the minsupp bound of the tid-set kernels: with `self` the
    /// operand of smaller support `s`, `|self ∩ other| = s − |self \
    /// other|`, so a budget of `s − minsupp` stops exactly the pairs whose
    /// intersection cannot reach `minsupp`.
    pub fn andnot_count_within(&self, other: &WordSet, budget: u32) -> Result<u32, usize> {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        let missing = |a: &[u64], b: &[u64]| -> u32 {
            a.iter().zip(b).map(|(&a, &b)| (a & !b).count_ones()).sum()
        };
        let a_blocks = self.words.chunks_exact(COUNT_BLOCK_WORDS);
        let b_blocks = other.words.chunks_exact(COUNT_BLOCK_WORDS);
        let (a_tail, b_tail) = (a_blocks.remainder(), b_blocks.remainder());
        let mut count = 0u32;
        for (read, (a, b)) in (1..).zip(a_blocks.zip(b_blocks)) {
            count += missing(a, b);
            if count > budget {
                return Err(read * COUNT_BLOCK_WORDS);
            }
        }
        count += missing(a_tail, b_tail);
        if count > budget {
            Err(self.words.len())
        } else {
            Ok(count)
        }
    }

    /// Number of elements strictly below `x` (prefix popcount). Linear in
    /// words up to `x`; callers needing O(1) should precompute
    /// [`prefix_ranks`](Self::prefix_ranks).
    pub fn rank(&self, x: u32) -> u32 {
        let (w, b) = (x as usize / 64, x % 64);
        let full: u32 = self.words[..w.min(self.words.len())]
            .iter()
            .map(|w| w.count_ones())
            .sum();
        if w < self.words.len() && b != 0 {
            full + (self.words[w] & ((1u64 << b) - 1)).count_ones()
        } else {
            full
        }
    }

    /// Per-word prefix popcounts: `ranks[w]` = number of elements in words
    /// `0..w`. Combined with a masked popcount of word `w` this gives O(1)
    /// exact rank queries on a frozen set (the Carpenter bitset
    /// remaining-occurrence bound).
    pub fn prefix_ranks(&self) -> Vec<u32> {
        let mut ranks = Vec::with_capacity(self.words.len() + 1);
        let mut acc = 0u32;
        ranks.push(0);
        for w in &self.words {
            acc += w.count_ones();
            ranks.push(acc);
        }
        ranks
    }

    /// Iterates the elements in ascending order (per-word
    /// `trailing_zeros`, clearing the lowest set bit each step).
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            std::iter::successors(if word == 0 { None } else { Some(word) }, |w| {
                let w = w & (w - 1); // clear lowest set bit
                if w == 0 {
                    None
                } else {
                    Some(w)
                }
            })
            .map(move |w| wi as u32 * 64 + w.trailing_zeros())
        })
    }

    /// Iterates the elements in descending order (per-word
    /// `leading_zeros`, clearing the highest set bit each step).
    pub fn iter_desc(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().rev().flat_map(|(wi, &word)| {
            std::iter::successors(if word == 0 { None } else { Some(word) }, |w| {
                let w = w & !(1u64 << (63 - w.leading_zeros())); // clear highest set bit
                if w == 0 {
                    None
                } else {
                    Some(w)
                }
            })
            .map(move |w| wi as u32 * 64 + 63 - w.leading_zeros())
        })
    }

    /// Appends the elements in ascending order to `out` (not cleared).
    pub fn collect_into(&self, out: &mut Vec<u32>) {
        out.extend(self.iter());
    }

    /// Approximate heap size in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * 8
    }
}

/// A borrowed packed bit row: the same probe kernels as [`WordSet`] over
/// words owned elsewhere (typically one [`BitMatrix`] row).
#[derive(Clone, Copy, Debug)]
pub struct BitsetRow<'a> {
    words: &'a [u64],
}

impl<'a> BitsetRow<'a> {
    /// Wraps a word slice (element `x` at bit `x % 64` of word `x / 64`).
    pub fn new(words: &'a [u64]) -> Self {
        BitsetRow { words }
    }

    /// The packed words.
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// Membership test; elements at or beyond the word capacity are absent.
    #[inline]
    pub fn contains(&self, x: u32) -> bool {
        let w = x as usize / 64;
        w < self.words.len() && self.words[w] >> (x % 64) & 1 != 0
    }

    /// Number of elements (popcount over all words).
    pub fn count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Fused AND+popcount against another row (shorter operand wins).
    pub fn and_count(&self, other: &BitsetRow<'_>) -> u32 {
        self.words
            .iter()
            .zip(other.words.iter())
            .map(|(&a, &b)| (a & b).count_ones())
            .sum()
    }
}

/// A packed row-major bit matrix (`rows × cols` bits).
#[derive(Clone, Debug)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    data: Vec<u64>,
}

impl BitMatrix {
    /// Creates an all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let words_per_row = cols.div_ceil(64);
        BitMatrix {
            rows,
            cols,
            words_per_row,
            data: vec![0u64; rows * words_per_row],
        }
    }

    /// Packs every `(tid, item)` pair of a recoded database into a zeroed
    /// matrix through `bit`, which maps the pair to the `(row, col)` to set.
    /// The one packing loop behind both database constructors.
    fn pack_database(
        db: &RecodedDatabase,
        rows: usize,
        cols: usize,
        bit: impl Fn(usize, usize) -> (usize, usize),
    ) -> Self {
        let mut m = BitMatrix::zeros(rows, cols);
        for (tid, t) in db.transactions().iter().enumerate() {
            for &i in t.iter() {
                let (r, c) = bit(tid, i as usize);
                m.set(r, c);
            }
        }
        m
    }

    /// Builds the transaction-membership matrix of a recoded database
    /// (rows = transactions, columns = items).
    pub fn from_database(db: &RecodedDatabase) -> Self {
        Self::pack_database(
            db,
            db.num_transactions(),
            db.num_items() as usize,
            |tid, i| (tid, i),
        )
    }

    /// Builds the transposed (vertical) membership matrix of a recoded
    /// database: rows = items, columns = transactions. Row `i` is the tid
    /// set of item `i` as a packed bit row — the dense counterpart of
    /// [`TidLists`](crate::cover::TidLists).
    pub fn from_database_transposed(db: &RecodedDatabase) -> Self {
        Self::pack_database(
            db,
            db.num_items() as usize,
            db.num_transactions(),
            |tid, i| (i, tid),
        )
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Sets bit `(row, col)`.
    pub fn set(&mut self, row: usize, col: usize) {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.words_per_row + col / 64] |= 1u64 << (col % 64);
    }

    /// Clears bit `(row, col)`.
    pub fn clear(&mut self, row: usize, col: usize) {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.words_per_row + col / 64] &= !(1u64 << (col % 64));
    }

    /// Reads bit `(row, col)`.
    pub fn get(&self, row: usize, col: usize) -> bool {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.words_per_row + col / 64] >> (col % 64) & 1 != 0
    }

    /// Number of set bits in a row.
    pub fn row_count(&self, row: usize) -> u32 {
        self.row_words(row).count()
    }

    /// One row as a borrowed packed bit view.
    pub fn row_words(&self, row: usize) -> BitsetRow<'_> {
        debug_assert!(row < self.rows);
        let start = row * self.words_per_row;
        BitsetRow::new(&self.data[start..start + self.words_per_row])
    }

    /// Approximate heap size in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.data.len() * 8
    }
}

/// The Table-1 matrix: membership plus suffix occurrence counts.
#[derive(Clone, Debug)]
pub struct SuffixCountMatrix {
    num_transactions: usize,
    num_items: usize,
    /// Row-major `num_transactions × num_items`; see module docs.
    counts: Vec<u32>,
}

impl SuffixCountMatrix {
    /// Builds the matrix by one backward pass over the transactions.
    pub fn from_database(db: &RecodedDatabase) -> Self {
        let n = db.num_transactions();
        let m = db.num_items() as usize;
        let mut counts = vec![0u32; n * m];
        let mut running = vec![0u32; m];
        for tid in (0..n).rev() {
            let row = &mut counts[tid * m..(tid + 1) * m];
            for &i in db.transaction(tid as Tid).iter() {
                running[i as usize] += 1;
                row[i as usize] = running[i as usize];
            }
        }
        SuffixCountMatrix {
            num_transactions: n,
            num_items: m,
            counts,
        }
    }

    /// The matrix entry `m[tid][item]` (see module docs).
    pub fn entry(&self, tid: Tid, item: Item) -> u32 {
        self.counts[tid as usize * self.num_items + item as usize]
    }

    /// Membership test: `item ∈ t_tid`.
    pub fn contains(&self, tid: Tid, item: Item) -> bool {
        self.entry(tid, item) != 0
    }

    /// One matrix row (the transaction `tid`, as per-item suffix counts).
    pub fn row(&self, tid: Tid) -> &[u32] {
        let m = self.num_items;
        &self.counts[tid as usize * m..(tid as usize + 1) * m]
    }

    /// Number of transactions (rows).
    pub fn num_transactions(&self) -> usize {
        self.num_transactions
    }

    /// Number of items (columns).
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Approximate heap size in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.counts.len() * 4
    }

    /// Renders the matrix like paper Table 1 (rows `t1..tn`, one column per
    /// item, named through `names`).
    pub fn render(&self, names: &[&str]) -> String {
        use std::fmt::Write;
        assert_eq!(names.len(), self.num_items);
        let mut out = String::new();
        out.push_str("    ");
        for name in names {
            let _ = write!(out, " {name:>3}");
        }
        out.push('\n');
        for tid in 0..self.num_transactions {
            let _ = write!(out, "t{:<3}", tid + 1);
            for i in 0..self.num_items {
                let _ = write!(out, " {:>3}", self.entry(tid as Tid, i as Item));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_db() -> RecodedDatabase {
        RecodedDatabase::from_dense(
            vec![
                vec![0, 1, 2],
                vec![0, 3, 4],
                vec![1, 2, 3],
                vec![0, 1, 2, 3],
                vec![1, 2],
                vec![0, 1, 3],
                vec![3, 4],
                vec![2, 3, 4],
            ],
            5,
        )
    }

    #[test]
    fn suffix_counts_match_paper_table1() {
        // Expected matrix from the paper (a b c d e columns):
        let expected: [[u32; 5]; 8] = [
            [4, 5, 5, 0, 0],
            [3, 0, 0, 6, 3],
            [0, 4, 4, 5, 0],
            [2, 3, 3, 4, 0],
            [0, 2, 2, 0, 0],
            [1, 1, 0, 3, 0],
            [0, 0, 0, 2, 2],
            [0, 0, 1, 1, 1],
        ];
        let m = SuffixCountMatrix::from_database(&paper_db());
        for (tid, row) in expected.iter().enumerate() {
            for (i, &want) in row.iter().enumerate() {
                assert_eq!(
                    m.entry(tid as Tid, i as Item),
                    want,
                    "m[t{}][{}]",
                    tid + 1,
                    i
                );
            }
        }
    }

    #[test]
    fn membership_agrees_with_transactions() {
        let db = paper_db();
        let m = SuffixCountMatrix::from_database(&db);
        for (tid, t) in db.transactions().iter().enumerate() {
            for i in 0..db.num_items() {
                assert_eq!(m.contains(tid as Tid, i), t.contains(&i));
            }
        }
    }

    #[test]
    fn render_contains_values() {
        let m = SuffixCountMatrix::from_database(&paper_db());
        let s = m.render(&["a", "b", "c", "d", "e"]);
        assert!(s.contains('a'));
        assert!(s.lines().count() == 9);
        // first data row: 4 5 5 0 0
        assert!(s.lines().nth(1).unwrap().contains("4   5   5   0   0"));
    }

    #[test]
    fn bit_matrix_roundtrip() {
        let mut m = BitMatrix::zeros(3, 130);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 130);
        m.set(0, 0);
        m.set(1, 64);
        m.set(2, 129);
        assert!(m.get(0, 0));
        assert!(m.get(1, 64));
        assert!(m.get(2, 129));
        assert!(!m.get(0, 1));
        assert_eq!(m.row_count(2), 1);
        m.clear(2, 129);
        assert!(!m.get(2, 129));
        assert_eq!(m.row_count(2), 0);
        assert_eq!(m.heap_bytes(), 3 * 3 * 8);
    }

    #[test]
    fn bit_matrix_from_database() {
        let db = paper_db();
        let m = BitMatrix::from_database(&db);
        for (tid, t) in db.transactions().iter().enumerate() {
            assert_eq!(m.row_count(tid), t.len() as u32);
            for i in 0..db.num_items() {
                assert_eq!(m.get(tid, i as usize), t.contains(&i));
            }
        }
    }

    #[test]
    fn matrix_sizes() {
        let m = SuffixCountMatrix::from_database(&paper_db());
        assert_eq!(m.num_transactions(), 8);
        assert_eq!(m.num_items(), 5);
        assert_eq!(m.heap_bytes(), 8 * 5 * 4);
        assert_eq!(m.row(0), &[4, 5, 5, 0, 0]);
    }

    #[test]
    fn transposed_matrix_is_vertical() {
        let db = paper_db();
        let m = BitMatrix::from_database_transposed(&db);
        assert_eq!(m.rows(), 5);
        assert_eq!(m.cols(), 8);
        for (tid, t) in db.transactions().iter().enumerate() {
            for i in 0..db.num_items() {
                assert_eq!(m.get(i as usize, tid), t.contains(&i));
            }
        }
        // item supports are the row counts of the transpose
        for i in 0..db.num_items() {
            assert_eq!(m.row_count(i as usize), db.item_supports()[i as usize]);
        }
    }

    #[test]
    fn word_set_basic_ops() {
        let mut s = WordSet::new(200);
        assert!(s.is_empty());
        for x in [0u32, 63, 64, 65, 128, 199] {
            s.insert(x);
        }
        assert_eq!(s.count(), 6);
        assert!(s.contains(63));
        assert!(s.contains(64));
        assert!(!s.contains(62));
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.count(), 5);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 65, 128, 199]);
        assert_eq!(s.iter_desc().collect::<Vec<_>>(), vec![199, 128, 65, 63, 0]);
        let mut out = Vec::new();
        s.collect_into(&mut out);
        assert_eq!(out, vec![0, 63, 65, 128, 199]);
        s.clear();
        assert!(s.is_empty());
        assert!(s.heap_bytes() >= 4 * 8);
    }

    #[test]
    fn word_set_and_kernels() {
        let a = WordSet::from_sorted(&[1, 63, 64, 100, 130], 131);
        let b = WordSet::from_sorted(&[0, 63, 100, 129, 130], 131);
        assert_eq!(a.and_count(&b), 3);
        assert_eq!(a.andnot_count(&b), 2);
        let mut c = a.clone();
        assert_eq!(c.and_in_place(&b), 3);
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![63, 100, 130]);
        let mut d = a.clone();
        assert_eq!(d.andnot_in_place(&b), 2);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 64]);
        // empty/single-word edge cases
        let e = WordSet::new(0);
        assert_eq!(e.count(), 0);
        assert_eq!(e.iter().count(), 0);
        let one = WordSet::from_sorted(&[5], 64);
        assert_eq!(one.and_count(&WordSet::from_sorted(&[5], 64)), 1);
    }

    /// The budgeted count over universes at word and block boundaries:
    /// the exact count within the budget, and "over" at the end of the
    /// first block whose running count passes it.
    #[test]
    fn andnot_count_within_is_exact_or_stops_at_the_first_block_over() {
        let block = COUNT_BLOCK_WORDS * 64;
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = |fill_per_256: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % 256 < fill_per_256
        };
        for universe in [1, 63, 64, 65, block - 1, block, block + 1, 3 * block + 5] {
            let sets: Vec<WordSet> = [0, 4, 128, 252, 256]
                .iter()
                .map(|&fill| {
                    let elems: Vec<u32> = (0..universe as u32).filter(|_| draw(fill)).collect();
                    WordSet::from_sorted(&elems, universe)
                })
                .collect();
            for a in &sets {
                for b in &sets {
                    let exact = a.iter().filter(|&x| !b.contains(x)).count() as u32;
                    for budget in [0, exact.saturating_sub(1), exact, exact + 1] {
                        let got = a.andnot_count_within(b, budget);
                        if exact <= budget {
                            assert_eq!(got, Ok(exact), "universe {universe} budget {budget}");
                            continue;
                        }
                        let read = got.expect_err("over the budget");
                        let missing_in = |words: usize| {
                            a.words()[..words]
                                .iter()
                                .zip(b.words())
                                .map(|(&x, &y)| (x & !y).count_ones())
                                .sum::<u32>()
                        };
                        let n = a.words().len();
                        assert!(read == n || read % COUNT_BLOCK_WORDS == 0, "read {read}");
                        assert!(missing_in(read) > budget, "universe {universe}");
                        let before = read.div_ceil(COUNT_BLOCK_WORDS) - 1;
                        assert!(missing_in(before * COUNT_BLOCK_WORDS) <= budget);
                    }
                }
            }
        }
    }

    #[test]
    fn word_set_rank_is_prefix_count() {
        let s = WordSet::from_sorted(&[0, 1, 63, 64, 127, 128, 190], 191);
        assert_eq!(s.rank(0), 0);
        assert_eq!(s.rank(1), 1);
        assert_eq!(s.rank(64), 3);
        assert_eq!(s.rank(65), 4);
        assert_eq!(s.rank(190), 6);
        let ranks = s.prefix_ranks();
        assert_eq!(ranks, vec![0, 3, 5, 7]);
        // O(1) rank via prefix ranks matches the linear rank
        for x in 0..191u32 {
            let (w, b) = (x as usize / 64, x % 64);
            let fast = ranks[w]
                + if b == 0 {
                    0
                } else {
                    (s.words()[w] & ((1u64 << b) - 1)).count_ones()
                };
            assert_eq!(fast, s.rank(x), "rank({x})");
        }
    }

    #[test]
    fn bitset_row_matches_word_set() {
        let s = WordSet::from_sorted(&[2, 64, 66], 100);
        let r = BitsetRow::new(s.words());
        assert!(r.contains(2));
        assert!(r.contains(66));
        assert!(!r.contains(3));
        assert!(!r.contains(1000)); // beyond capacity: absent, not a panic
        assert_eq!(r.count(), 3);
        let t = WordSet::from_sorted(&[2, 66, 99], 100);
        assert_eq!(r.and_count(&BitsetRow::new(t.words())), 2);
    }
}
