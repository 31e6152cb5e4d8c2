//! Results in rank-mask form (DESIGN.md §23).
//!
//! When at most [`RANK_MASK_ITEMS`] items are kept, an item's *rank* is
//! the position of its raw code among the raw codes of the kept items,
//! and a set is one bit per rank in a 256-bit mask, rank 0 in the top bit
//! of word 0. A [`RankKey`] holds `(len, !mask, support)`; its order is
//! the canonical order of [`MiningResult::canonicalize`] over raw codes,
//! so a result is ordered by sorting 40-byte keys and written straight
//! from their mask bits, with no item vector per set.

use crate::{
    miner::{FoundSet, MiningResult},
    Item, ItemSet,
};

/// The most items a [`RankTable`] ranks: four words of mask.
pub const RANK_MASK_ITEMS: usize = 256;

/// The ranks of the kept items: dense code → rank, and rank → raw code.
#[derive(Clone, Debug)]
pub struct RankTable {
    rank: Vec<u8>,
    rank_to_raw: Vec<Item>,
}

impl RankTable {
    /// The table of `item_to_old`, a dense → raw code table such as
    /// [`Recode::item_to_old`](crate::Recode::item_to_old); `None` when it
    /// codes more than [`RANK_MASK_ITEMS`] items.
    pub fn new(item_to_old: &[Item]) -> Option<Self> {
        if item_to_old.len() > RANK_MASK_ITEMS {
            return None;
        }
        let mut rank_to_raw = item_to_old.to_vec();
        rank_to_raw.sort_unstable();
        let rank = item_to_old
            .iter()
            .map(|raw| rank_to_raw.partition_point(|r| r < raw) as u8)
            .collect();
        Some(RankTable { rank, rank_to_raw })
    }

    /// Raw codes in rank order, ascending.
    pub fn rank_to_raw(&self) -> &[Item] {
        &self.rank_to_raw
    }

    /// Sets dense code `item`'s bit in `mask`.
    ///
    /// # Panics
    ///
    /// Panics if `item` is not a dense code of the table.
    #[inline]
    pub fn mark(&self, mask: &mut [u64; 4], item: Item) {
        let r = self.rank[item as usize];
        mask[usize::from(r >> 6)] |= 1 << (63 - (r & 63));
    }

    /// The key of one set of dense codes: the key routine every caller
    /// that holds item vectors goes through.
    pub fn key(&self, items: &[Item], support: u32) -> RankKey {
        let mut mask = [0; 4];
        for &i in items {
            self.mark(&mut mask, i);
        }
        RankKey::new(mask, items.len() as u32, support)
    }

    /// Keys every set of a dense result, in the result's order; the sets
    /// are read, not rewritten.
    pub fn keyed(&self, result: &MiningResult) -> RankedResult {
        let keys = result
            .sets
            .iter()
            .map(|s| self.key(s.items.as_slice(), s.support))
            .collect();
        RankedResult::new(self.clone(), keys)
    }
}

/// One set as a rank mask with its length and support. Ordered by length,
/// then by ascending `!mask`, then by support: among sets of one length,
/// the smallest rank in which two differ is the most significant bit in
/// which their masks differ, and the set holding it is the smaller one in
/// item order, so ascending `!mask` is ascending item order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct RankKey {
    len: u32,
    inverted: [u64; 4],
    support: u32,
}

impl RankKey {
    /// The key of the set whose ranks are the bits of `mask`; `len` is
    /// their number.
    #[inline]
    pub fn new(mask: [u64; 4], len: u32, support: u32) -> Self {
        debug_assert_eq!(len, mask.iter().map(|w| w.count_ones()).sum::<u32>());
        RankKey {
            len,
            inverted: mask.map(|w| !w),
            support,
        }
    }

    /// The set's rank mask, rank 0 in the top bit of word 0.
    pub fn mask(&self) -> [u64; 4] {
        self.inverted.map(|w| !w)
    }

    /// Number of items in the set.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The set's support.
    pub fn support(&self) -> u32 {
        self.support
    }

    /// The set's ranks, ascending.
    pub fn ranks(&self) -> impl Iterator<Item = usize> {
        self.mask().into_iter().enumerate().flat_map(|(w, word)| {
            // rank w * 64 + k is bit k of the reversed word
            let mut bits = word.reverse_bits();
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let k = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    w * 64 + k
                })
            })
        })
    }
}

/// A mining result as rank-mask keys: the [`RankTable`] that names their
/// bits and one [`RankKey`] per set. Like a [`MiningResult`], its keys
/// come in any order until [`canonicalize`](Self::canonicalize) sorts
/// them.
#[derive(Clone, Debug)]
pub struct RankedResult {
    table: RankTable,
    keys: Vec<RankKey>,
}

impl RankedResult {
    /// A result of `keys` over `table`'s ranks.
    pub fn new(table: RankTable, keys: Vec<RankKey>) -> Self {
        RankedResult { table, keys }
    }

    /// The table that names the keys' bits.
    pub fn table(&self) -> &RankTable {
        &self.table
    }

    /// The keys, one per set.
    pub fn keys(&self) -> &[RankKey] {
        &self.keys
    }

    /// Number of sets.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether there are no sets.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Sorts the keys into canonical order: that of
    /// [`MiningResult::canonicalize`] on the sets they stand for.
    pub fn canonicalize(&mut self) -> &mut Self {
        self.keys.sort_unstable();
        debug_assert!(
            self.keys.windows(2).all(|w| w[0].inverted != w[1].inverted),
            "duplicate item sets in mining result"
        );
        self
    }

    /// The sets in raw catalog codes, in key order.
    pub fn into_result(self) -> MiningResult {
        let raw = &self.table.rank_to_raw;
        self.keys
            .iter()
            .map(|k| {
                let items = k.ranks().map(|r| raw[r]).collect();
                FoundSet::new(ItemSet::from_sorted(items), k.support)
            })
            .collect()
    }

    /// The maximal sets of a canonical result of closed sets (paper §2.3),
    /// in canonical order: [`maximal_from_closed`](crate::maximal_from_closed)
    /// with mask tests. Sets are taken longest first, and each is tested
    /// only against the maximal sets found before it (every closed
    /// superset lies inside a maximal one, and a set of the same length
    /// is never a proper superset), through those that hold its
    /// least-shared rank; `a ⊆ b` when `a & !b` is zero in all four words.
    pub fn maximal(mut self) -> RankedResult {
        debug_assert!(self.keys.windows(2).all(|w| w[0] <= w[1]));
        // maximal sets found so far by rank, longest sets first
        let mut holders: Vec<Vec<u32>> = vec![Vec::new(); self.table.rank_to_raw.len()];
        let mut maximal = vec![false; self.keys.len()];
        for (at, key) in self.keys.iter().enumerate().rev() {
            let mask = key.mask();
            let covered = key
                .ranks()
                .map(|r| &holders[r])
                .min_by_key(|h| h.len())
                .is_some_and(|h| {
                    h.iter().any(|&b| {
                        // `inverted` is `!b`
                        let not_b = &self.keys[b as usize].inverted;
                        (0..4).all(|w| mask[w] & not_b[w] == 0)
                    })
                });
            if !covered {
                maximal[at] = true;
                for r in key.ranks() {
                    holders[r].push(at as u32);
                }
            }
        }
        let mut kept = maximal.iter();
        self.keys
            .retain(|_| *kept.next().expect("one flag per key"));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ranks_raw_codes() {
        // dense 0, 1, 2, 3 stand for raw 5, 1, 2, 0
        let table = RankTable::new(&[5, 1, 2, 0]).unwrap();
        assert_eq!(table.rank_to_raw(), &[0, 1, 2, 5]);
        assert_eq!(table.rank, [3, 1, 2, 0]);
        let key = table.key(&[0, 3], 4);
        assert_eq!(key.ranks().collect::<Vec<_>>(), [0, 3]);
        assert_eq!((key.len(), key.support()), (2, 4));
        assert_eq!(key.mask(), [(1 << 63) | (1 << 60), 0, 0, 0]);
        assert!(RankTable::new(&(0..257).collect::<Vec<_>>()).is_none());
        assert!(RankTable::new(&(0..256).collect::<Vec<_>>()).is_some());
    }

    #[test]
    fn ranks_cross_every_word() {
        let table = RankTable::new(&(0..256).collect::<Vec<_>>()).unwrap();
        let items = [0, 63, 64, 127, 128, 200, 255];
        let key = table.key(&items, 1);
        let ranks: Vec<Item> = key.ranks().map(|r| r as Item).collect();
        assert_eq!(ranks, items);
        assert!(table.key(&[], 9).is_empty());
        assert_eq!(table.key(&[], 9).ranks().count(), 0);
    }

    #[test]
    fn maximal_keeps_sets_without_a_longer_superset() {
        let table = RankTable::new(&[0, 1, 2, 3]).unwrap();
        let sets: [(&[Item], u32); 5] = [
            (&[0], 5),
            (&[0, 1], 4),
            (&[2], 3),
            (&[1, 3], 2),
            (&[0, 1, 2], 2),
        ];
        let keys = sets.iter().map(|&(s, n)| table.key(s, n)).collect();
        let mut ranked = RankedResult::new(table, keys);
        ranked.canonicalize();
        let got: Vec<Vec<Item>> = ranked
            .maximal()
            .into_result()
            .sets
            .iter()
            .map(|s| s.items.as_slice().to_vec())
            .collect();
        assert_eq!(got, [vec![1, 3], vec![0, 1, 2]]);
    }
}
