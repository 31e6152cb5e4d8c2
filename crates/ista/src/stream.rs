//! Incremental (streaming) closed-set mining.
//!
//! The cumulative scheme is inherently *incremental*: the prefix tree after
//! `k` transactions holds exactly the closed item sets of those `k`
//! transactions with exact supports, so transactions can arrive one at a
//! time and the current answer can be queried at any point. This is the
//! natural online API of the IsTa algorithm and something the enumeration
//! algorithms cannot offer without re-running from scratch.
//!
//! The price (the paper's "fundamental problem of the intersection
//! approach", §3.2): because future transactions are unknown, *no* item
//! can ever be eliminated — an infrequent set may still become frequent.
//! The stream therefore keeps the full repository (minimum support 1) and
//! its memory grows with the number of distinct closed sets seen. Batch
//! mining with a fixed threshold should use [`IstaMiner`](crate::IstaMiner)
//! instead, which prunes.

use crate::snapshot;
use crate::tree::{PrefixTree, TreeMemoryStats};
use fim_core::{FimError, Item, ItemSet, MiningResult};
use std::io::{Read, Write};

/// An online closed-set miner over a growing transaction stream.
///
/// ```
/// use fim_ista::IstaStream;
/// use fim_core::ItemSet;
///
/// let mut stream = IstaStream::new(5);
/// stream.push(&[0, 2, 4]);
/// stream.push(&[1, 3, 4]);
/// assert_eq!(stream.support_of(&ItemSet::from([4])), 2);
/// stream.push(&[0, 1, 2, 3]);
/// let closed = stream.closed_sets(2);
/// assert_eq!(closed.support_of(&ItemSet::from([4])), Some(2));
/// ```
#[derive(Clone, Debug)]
pub struct IstaStream {
    tree: PrefixTree,
    num_items: u32,
}

impl IstaStream {
    /// Creates a stream over the item universe `0..num_items`.
    pub fn new(num_items: u32) -> Self {
        IstaStream {
            tree: PrefixTree::new(num_items),
            num_items,
        }
    }

    /// Number of item codes in the universe.
    pub fn num_items(&self) -> u32 {
        self.num_items
    }

    /// Number of transactions pushed so far.
    pub fn transactions_processed(&self) -> u32 {
        self.tree.transactions_processed()
    }

    /// Number of closed sets currently stored (tree nodes are an upper
    /// bound; this counts nodes, including non-closed interior path nodes).
    pub fn node_count(&self) -> usize {
        self.tree.node_count()
    }

    /// Pushes one transaction. Items may arrive unsorted or duplicated;
    /// codes must be below `num_items`. Empty transactions are ignored.
    pub fn push(&mut self, items: &[Item]) {
        let mut t = items.to_vec();
        t.sort_unstable();
        t.dedup();
        assert!(
            t.iter().all(|&i| i < self.num_items),
            "item code out of universe"
        );
        self.tree.add_transaction(&t);
    }

    /// Pushes an already-canonical (strictly ascending) transaction
    /// without copying.
    pub fn push_sorted(&mut self, items: &[Item]) {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]));
        assert!(
            items.iter().all(|&i| i < self.num_items),
            "item code out of universe"
        );
        self.tree.add_transaction(items);
    }

    /// The exact support of `items` in the stream so far (0 if it never
    /// occurred; the empty set's support is the transaction count).
    pub fn support_of(&self, items: &ItemSet) -> u32 {
        self.tree.max_support_of_superset(items).unwrap_or(0)
    }

    /// All closed item sets with support ≥ `minsupp` at this point of the
    /// stream, in canonical order.
    pub fn closed_sets(&self, minsupp: u32) -> MiningResult {
        let mut r = MiningResult {
            sets: self.tree.report(minsupp.max(1)),
        };
        r.canonicalize();
        r
    }

    /// Read access to the underlying prefix tree (for inspection).
    pub fn tree(&self) -> &PrefixTree {
        &self.tree
    }

    /// The cumulative hot-loop counters (segment scans, early exits, splits,
    /// node allocations) of all insertions so far.
    pub fn counters(&self) -> &fim_obs::Counters {
        self.tree.counters()
    }

    /// Current repository occupancy, for callers that bound the stream's
    /// memory externally (the stream itself never prunes; see the module
    /// docs for why).
    pub fn memory_stats(&self) -> TreeMemoryStats {
        self.tree.memory_stats()
    }

    /// Extends the item universe to `num_items` codes: streams over named
    /// items discover new items over time, and a stream resumed from a
    /// snapshot must accept codes minted after the checkpoint. Smaller
    /// values are ignored; existing supports and sets are untouched.
    pub fn grow_universe(&mut self, num_items: u32) {
        if num_items > self.num_items {
            self.tree.grow_universe(num_items);
            self.num_items = num_items;
        }
    }

    /// Serializes the stream state as a versioned, CRC-protected binary
    /// snapshot (see [`snapshot`] for the format). A
    /// stream reloaded with [`read_snapshot`](Self::read_snapshot) and fed
    /// the same subsequent transactions produces byte-identical results to
    /// one that was never persisted. Compacts the tree first
    /// (output-invariant).
    pub fn write_snapshot(&mut self, w: &mut dyn Write) -> Result<(), FimError> {
        snapshot::write_tree(&mut self.tree, w)
    }

    /// Reloads a stream from a snapshot written by
    /// [`write_snapshot`](Self::write_snapshot), validating the format
    /// version, the CRC, and the full tree structure; any mismatch is a
    /// [`FimError::Corrupt`].
    pub fn read_snapshot(r: &mut dyn Read) -> Result<Self, FimError> {
        let tree = snapshot::read_tree(r)?;
        Ok(IstaStream {
            num_items: tree.num_items(),
            tree,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fim_core::reference::mine_reference;
    use fim_core::RecodedDatabase;

    fn txs() -> Vec<Vec<Item>> {
        vec![
            vec![0, 1, 2],
            vec![0, 3, 4],
            vec![1, 2, 3],
            vec![0, 1, 2, 3],
            vec![1, 2],
            vec![0, 1, 3],
            vec![3, 4],
            vec![2, 3, 4],
        ]
    }

    #[test]
    fn every_prefix_matches_batch_mining() {
        let txs = txs();
        let mut stream = IstaStream::new(5);
        for k in 0..txs.len() {
            stream.push(&txs[k]);
            let db = RecodedDatabase::from_dense(txs[..=k].to_vec(), 5);
            for minsupp in 1..=3 {
                let want = mine_reference(&db, minsupp);
                let got = stream.closed_sets(minsupp);
                assert_eq!(got, want, "prefix {} minsupp {minsupp}", k + 1);
            }
        }
        assert_eq!(stream.transactions_processed(), 8);
    }

    #[test]
    fn support_queries_are_exact_at_every_point() {
        let txs = txs();
        let mut stream = IstaStream::new(5);
        for k in 0..txs.len() {
            stream.push(&txs[k]);
            let db = RecodedDatabase::from_dense(txs[..=k].to_vec(), 5);
            // every subset of the universe
            for mask in 0u32..(1 << 5) {
                let items: ItemSet = (0..5).filter(|i| mask >> i & 1 == 1).collect();
                assert_eq!(
                    stream.support_of(&items),
                    db.support(&items),
                    "prefix {} set {items:?}",
                    k + 1
                );
            }
        }
    }

    #[test]
    fn unsorted_and_duplicated_input() {
        let mut stream = IstaStream::new(4);
        stream.push(&[3, 1, 3, 1]);
        stream.push(&[1, 3]);
        assert_eq!(stream.support_of(&ItemSet::from([1, 3])), 2);
        assert_eq!(stream.transactions_processed(), 2);
    }

    #[test]
    fn empty_transactions_ignored() {
        let mut stream = IstaStream::new(3);
        stream.push(&[]);
        assert_eq!(stream.transactions_processed(), 0);
        assert_eq!(stream.support_of(&ItemSet::empty()), 0);
        stream.push(&[1]);
        assert_eq!(stream.support_of(&ItemSet::empty()), 1);
    }

    #[test]
    fn push_sorted_fast_path() {
        let mut a = IstaStream::new(6);
        let mut b = IstaStream::new(6);
        for t in [vec![0, 2, 5], vec![1, 2], vec![0, 1, 2, 5]] {
            a.push(&t);
            b.push_sorted(&t);
        }
        assert_eq!(a.closed_sets(1), b.closed_sets(1));
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn out_of_universe_rejected() {
        let mut stream = IstaStream::new(2);
        stream.push(&[5]);
    }

    #[test]
    fn snapshot_resume_equals_uninterrupted_run() {
        let txs = txs();
        for split in 0..txs.len() {
            let mut uninterrupted = IstaStream::new(5);
            let mut first_half = IstaStream::new(5);
            for t in &txs[..split] {
                uninterrupted.push(t);
                first_half.push(t);
            }
            let mut buf = Vec::new();
            first_half.write_snapshot(&mut buf).expect("write");
            let mut resumed = IstaStream::read_snapshot(&mut buf.as_slice()).expect("read");
            assert_eq!(resumed.num_items(), 5);
            assert_eq!(resumed.transactions_processed(), split as u32);
            for t in &txs[split..] {
                uninterrupted.push(t);
                resumed.push(t);
            }
            resumed.tree().validate_invariants();
            for minsupp in 1..=3 {
                assert_eq!(
                    resumed.closed_sets(minsupp),
                    uninterrupted.closed_sets(minsupp),
                    "split {split} minsupp {minsupp}"
                );
            }
        }
    }

    #[test]
    fn snapshot_rejects_corruption() {
        let mut stream = IstaStream::new(4);
        stream.push(&[0, 1, 3]);
        stream.push(&[1, 2]);
        let mut buf = Vec::new();
        stream.write_snapshot(&mut buf).expect("write");
        let mid = buf.len() / 2;
        buf[mid] ^= 0xFF;
        let err = IstaStream::read_snapshot(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, fim_core::FimError::Corrupt(_)), "{err}");
    }

    #[test]
    fn grow_universe_accepts_new_items_after_resume() {
        let mut stream = IstaStream::new(2);
        stream.push(&[0, 1]);
        let mut buf = Vec::new();
        stream.write_snapshot(&mut buf).expect("write");
        let mut resumed = IstaStream::read_snapshot(&mut buf.as_slice()).expect("read");
        resumed.grow_universe(4);
        assert_eq!(resumed.num_items(), 4);
        resumed.push(&[0, 1, 3]);
        resumed.tree().validate_invariants();
        assert_eq!(resumed.support_of(&ItemSet::from([0, 1])), 2);
        assert_eq!(resumed.support_of(&ItemSet::from([3])), 1);
        // shrinking is ignored
        resumed.grow_universe(1);
        assert_eq!(resumed.num_items(), 4);
        assert!(resumed.memory_stats().live_nodes >= 1);
    }
}
