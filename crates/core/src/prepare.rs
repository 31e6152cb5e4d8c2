//! Shared hot-path preprocessing: the §3.4 transaction order and weighted
//! transaction coalescing.
//!
//! The paper's ordering experiments (§3.4) show that processing transactions
//! smallest-first (ties broken lexicographically on a descending writing of
//! the items) dominates the runtime of the intersection approach. This
//! module owns that comparison — [`RecodedDatabase::prepare`] and the IsTa
//! merge replay both sort with it — plus the next step the order enables
//! for free: once equal transactions are adjacent, they can be **coalesced**
//! into `(items, weight)` pairs and processed by a single weighted
//! cumulative-intersection pass each.
//!
//! Coalescing is exact, not an approximation. For every item set `S` and a
//! transaction multiset `T` in which transaction `t` occurs `w_t` times,
//!
//! ```text
//! supp_T(S) = Σ_{distinct t ⊇ S} w_t
//! ```
//!
//! so replaying each distinct transaction once with every support increment
//! multiplied by its weight yields exactly the supports of the duplicated
//! input (`PrefixTree::add_transaction_weighted` implements the weighted
//! increment). On dense data — where recoding against a high minimum support
//! strips most items and collapses many rows onto each other — each
//! duplicate then costs one support bump instead of a full `isect`
//! traversal.
//!
//! [`RecodedDatabase::prepare`]: crate::RecodedDatabase::prepare

use crate::{rows::Rows, Item};
use std::cmp::Ordering;

/// Compare two transactions by size first, then lexicographically on the
/// items written in descending order (the paper's §3.4 tie-break).
///
/// This is the canonical processing order of the workspace: recoding sorts
/// with it when [`TransactionOrder::AscendingSize`] is requested, the IsTa
/// merge replay sorts a tree's stored transactions with it, and
/// [`coalesce`] relies on it to make equal transactions adjacent.
///
/// [`TransactionOrder::AscendingSize`]: crate::order::TransactionOrder::AscendingSize
pub fn cmp_size_then_desc_lex(a: &[Item], b: &[Item]) -> Ordering {
    a.len().cmp(&b.len()).then_with(|| {
        for (x, y) in a.iter().rev().zip(b.iter().rev()) {
            match x.cmp(y) {
                Ordering::Equal => continue,
                other => return other,
            }
        }
        Ordering::Equal
    })
}

/// Coalesces a transaction list into deduplicated `(items, weight)` pairs,
/// returned in **first-occurrence order** of the input.
///
/// Duplicates are found by sorting an index array with
/// [`cmp_size_then_desc_lex`] (making equal rows adjacent), but the
/// distinct rows come back in the order the caller provided them: the
/// caller has usually already applied the §3.4 processing order, and a
/// fully duplicate-free list must round-trip unchanged — coalescing is
/// output-invariant, so it must not second-guess the processing order
/// either.
///
/// The input rows are borrowed from their pool, not cloned; empty
/// transactions are kept (with their multiplicity) so callers that track
/// processed weight can account for them. The sum of all weights equals
/// `txs.len()`.
pub fn coalesce(txs: Rows<'_>) -> Vec<(&[Item], u32)> {
    let mut idx: Vec<usize> = (0..txs.len()).collect();
    idx.sort_unstable_by(|&a, &b| cmp_size_then_desc_lex(&txs[a], &txs[b]).then(a.cmp(&b)));
    // (first-occurrence index, weight) per distinct row; the index
    // tie-break above guarantees the group leader is the earliest copy
    let mut groups: Vec<(usize, u32)> = Vec::new();
    for &i in &idx {
        match groups.last_mut() {
            Some((rep, w)) if txs[*rep] == txs[i] => *w += 1,
            _ => groups.push((i, 1)),
        }
    }
    groups.sort_unstable_by_key(|&(rep, _)| rep);
    groups
        .into_iter()
        .map(|(rep, w)| (txs.row(rep), w))
        .collect()
}

/// Occurrence count of every item in a weighted transaction list: each
/// transaction contributes its weight to each of its items. `num_items`
/// sizes the result (index = item code).
pub fn weighted_item_counts(txs: &[(&[Item], u32)], num_items: u32) -> Vec<u32> {
    let mut counts = vec![0u32; num_items as usize];
    for (t, w) in txs {
        for &i in t.iter() {
            counts[i as usize] += w;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::ItemRows;

    fn pool(txs: &[Vec<Item>]) -> ItemRows {
        let mut rows = ItemRows::new();
        for t in txs {
            rows.push_sorted(t);
        }
        rows
    }

    #[test]
    fn desc_lex_tie_break() {
        assert_eq!(cmp_size_then_desc_lex(&[1, 5], &[2, 5]), Ordering::Less);
        assert_eq!(cmp_size_then_desc_lex(&[2, 5], &[1, 5]), Ordering::Greater);
        assert_eq!(cmp_size_then_desc_lex(&[1, 2], &[1, 2, 3]), Ordering::Less);
        assert_eq!(cmp_size_then_desc_lex(&[3, 4], &[3, 4]), Ordering::Equal);
        assert_eq!(cmp_size_then_desc_lex(&[], &[0]), Ordering::Less);
    }

    #[test]
    fn coalesce_merges_duplicates_in_first_occurrence_order() {
        let txs: Vec<Vec<Item>> = vec![
            vec![0, 1, 2],
            vec![3],
            vec![0, 1, 2],
            vec![1, 4],
            vec![0, 1, 2],
            vec![3],
        ];
        let rows = pool(&txs);
        let got = coalesce(rows.view());
        assert_eq!(
            got,
            vec![(&[0, 1, 2][..], 3), (&[3][..], 2), (&[1, 4][..], 1)]
        );
        assert_eq!(got.iter().map(|(_, w)| w).sum::<u32>(), txs.len() as u32);
    }

    #[test]
    fn coalesce_of_distinct_rows_round_trips_order() {
        // no duplicates → the exact input list back, all weights 1
        let txs: Vec<Vec<Item>> = vec![vec![2, 3], vec![0], vec![1, 2, 4], vec![0, 1]];
        let rows = pool(&txs);
        let got = coalesce(rows.view());
        let want: Vec<(&[Item], u32)> = txs.iter().map(|t| (t.as_slice(), 1)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn coalesce_keeps_empty_transactions() {
        let txs: Vec<Vec<Item>> = vec![vec![], vec![0], vec![]];
        let rows = pool(&txs);
        let got = coalesce(rows.view());
        assert_eq!(got, vec![(&[][..], 2), (&[0][..], 1)]);
    }

    #[test]
    fn coalesce_of_distinct_is_identity_multiset() {
        let txs: Vec<Vec<Item>> = vec![vec![0], vec![1], vec![0, 1]];
        let rows = pool(&txs);
        let got = coalesce(rows.view());
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|&(_, w)| w == 1));
    }

    #[test]
    fn coalesce_empty_input() {
        let txs: Vec<Vec<Item>> = vec![];
        assert!(coalesce(pool(&txs).view()).is_empty());
    }

    #[test]
    fn weighted_counts_match_flat_scan() {
        let txs: Vec<Vec<Item>> = vec![vec![0, 2], vec![0, 2], vec![1, 2], vec![0, 2]];
        let rows = pool(&txs);
        let coalesced = coalesce(rows.view());
        let counts = weighted_item_counts(&coalesced, 3);
        assert_eq!(counts, vec![3, 1, 4]);
    }
}
