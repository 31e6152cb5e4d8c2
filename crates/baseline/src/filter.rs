//! Closedness filtering for miners that enumerate frequent (or candidate
//! closed) item sets.
//!
//! A frequent item set is closed iff no proper superset has the same
//! support (paper §2.3). Since a same-support superset of a frequent set is
//! itself frequent, it suffices to compare against the other sets in the
//! collection.

use fim_core::{ConstraintSet, FoundSet, Item, ItemSet, MiningResult};
use std::collections::HashMap;

// The shared post-filter: keeps exactly the sets the constraint bundle
// accepts. Re-exported here so the proptest oracle, the `--no-push` escape
// hatch, and the enumeration miners all share the one implementation in
// `fim_core::constraint`.
pub use fim_core::constraint::{apply_constraints, apply_constraints_owned};

/// Whether a *candidate* (pre-closedness-filter) set may be dropped from an
/// enumeration miner's candidate collection under `cs`.
///
/// Subtle and central to the eclat/dEclat push: [`filter_closed`] decides
/// closedness by looking for same-support supersets *within the
/// collection*, so a candidate may only be dropped when doing so can never
/// remove the same-support superset of a surviving, constraint-satisfying
/// set. That holds for the monotone and convertible constraints — a
/// superset of a set satisfying must-include / min-size / min-area (at
/// equal support) satisfies them too — but **not** for max-size, which is
/// therefore applied after [`filter_closed`], never here.
pub(crate) fn candidate_prunable(cs: &ConstraintSet, items: &ItemSet, support: u32) -> bool {
    (items.len() as u32) < cs.min_size
        || fim_core::constraint::area(support, items.len()) < cs.min_area
        || !cs.include.is_subset_of(items)
}

/// Whether an enumeration subtree can be cut under `cs`: every candidate in
/// the subtree is a subset of `current ∪ pool` with support at most
/// `supp_bound`, so if that whole envelope cannot satisfy the monotone /
/// convertible constraints, nothing in the subtree can — and (by the same
/// superset argument as [`candidate_prunable`]) nothing in it is needed as
/// a subsumption witness for a surviving set. `current` and `pool` must be
/// sorted ascending.
pub(crate) fn subtree_prunable(
    cs: &ConstraintSet,
    current: &[Item],
    pool: &[Item],
    supp_bound: u32,
) -> bool {
    let max_len = current.len() + pool.len();
    if (max_len as u32) < cs.min_size {
        return true;
    }
    if fim_core::constraint::area(supp_bound, max_len) < cs.min_area {
        return true;
    }
    // every include item must be reachable: already taken or still in the pool
    cs.include
        .iter()
        .any(|m| current.binary_search(&m).is_err() && pool.binary_search(&m).is_err())
}

/// Filters a collection of frequent item sets (with exact supports) down to
/// the closed ones: a set survives iff no *other* set in the collection is a
/// proper superset with equal support.
///
/// The input must contain every frequent item set's closure (this holds for
/// the complete frequent collection, and for closure-candidate collections
/// like FP-close's); duplicates of the same item set are merged first.
///
/// Only the survivors need testing against: the longest same-support
/// superset of a set is never itself subsumed, so a set is subsumed iff a
/// longer survivor of its support contains it. Each support group is
/// therefore read longest first, and a set is tested only against the
/// survivors so far that hold its rarest item among them (an index from
/// item to survivors), not against every longer set of its group. That
/// index has one slot per item code up to the largest, so the sets must use
/// dense codes, as the sets mined from a recoded database do.
pub fn filter_closed(sets: Vec<FoundSet>) -> MiningResult {
    // dedup identical item sets (supports are exact, so they must agree)
    let mut dedup: HashMap<ItemSet, u32> = HashMap::with_capacity(sets.len());
    for s in sets {
        let prev = *dedup.entry(s.items).or_insert(s.support);
        debug_assert_eq!(prev, s.support, "inconsistent supports");
    }
    // group by support: only equal-support supersets can subsume
    let mut by_support: HashMap<u32, Vec<&ItemSet>> = HashMap::new();
    for (items, supp) in &dedup {
        by_support.entry(*supp).or_default().push(items);
    }
    let universe = dedup.keys().filter_map(ItemSet::max_item).max();
    // holding[i]: the survivors of the current group that contain item i
    let mut holding: Vec<Vec<usize>> = vec![Vec::new(); universe.map_or(0, |m| m as usize + 1)];
    let mut result = MiningResult::new();
    for (supp, mut group) in by_support {
        group.sort_unstable_by_key(|s| std::cmp::Reverse(s.len()));
        let mut kept: Vec<&ItemSet> = Vec::new();
        for items in group {
            let subsumed = match items
                .iter()
                .map(|i| &holding[i as usize])
                .min_by_key(|h| h.len())
            {
                Some(rarest) => rarest
                    .iter()
                    .any(|&k| kept[k].len() > items.len() && items.is_subset_of(kept[k])),
                // the empty set: every survivor is longer
                None => !kept.is_empty(),
            };
            if !subsumed {
                for i in items.iter() {
                    holding[i as usize].push(kept.len());
                }
                kept.push(items);
                result.sets.push(FoundSet::new(items.clone(), supp));
            }
        }
        for items in kept {
            for i in items.iter() {
                holding[i as usize].clear();
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use fim_core::ItemSet;

    #[test]
    fn removes_subsumed_sets() {
        let sets = vec![
            FoundSet::new(ItemSet::from([0]), 3),
            FoundSet::new(ItemSet::from([0, 1]), 3),
            FoundSet::new(ItemSet::from([1]), 4),
        ];
        let r = filter_closed(sets).canonicalized();
        assert_eq!(r.len(), 2);
        assert_eq!(r.support_of(&ItemSet::from([0, 1])), Some(3));
        assert_eq!(r.support_of(&ItemSet::from([1])), Some(4));
        assert_eq!(r.support_of(&ItemSet::from([0])), None);
    }

    #[test]
    fn different_support_does_not_subsume() {
        let sets = vec![
            FoundSet::new(ItemSet::from([0]), 5),
            FoundSet::new(ItemSet::from([0, 1]), 3),
        ];
        let r = filter_closed(sets);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn duplicates_merged() {
        let sets = vec![
            FoundSet::new(ItemSet::from([2]), 2),
            FoundSet::new(ItemSet::from([2]), 2),
        ];
        let r = filter_closed(sets);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn chain_of_subsumption() {
        let sets = vec![
            FoundSet::new(ItemSet::from([0]), 2),
            FoundSet::new(ItemSet::from([0, 1]), 2),
            FoundSet::new(ItemSet::from([0, 1, 2]), 2),
        ];
        let r = filter_closed(sets);
        assert_eq!(r.len(), 1);
        assert_eq!(r.sets[0].items, ItemSet::from([0, 1, 2]));
    }

    #[test]
    fn empty_input() {
        assert!(filter_closed(vec![]).is_empty());
    }

    #[test]
    fn the_empty_set_is_subsumed_by_any_longer_set_of_its_support() {
        let empty = FoundSet::new(ItemSet::empty(), 3);
        let r = filter_closed(vec![empty.clone(), FoundSet::new(ItemSet::from([4]), 3)]);
        assert_eq!(r.len(), 1);
        assert_eq!(r.support_of(&ItemSet::from([4])), Some(3));
        let r = filter_closed(vec![empty, FoundSet::new(ItemSet::from([4]), 2)]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.support_of(&ItemSet::empty()), Some(3));
    }

    #[test]
    fn incomparable_same_support_sets_both_survive() {
        let sets = vec![
            FoundSet::new(ItemSet::from([0, 1]), 2),
            FoundSet::new(ItemSet::from([2, 3]), 2),
        ];
        let r = filter_closed(sets);
        assert_eq!(r.len(), 2);
    }
}
