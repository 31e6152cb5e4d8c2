//! Canonical item sets: sorted, duplicate-free vectors of item codes.

use crate::Item;
use std::fmt;

/// A set of items, stored as a strictly ascending vector of item codes.
///
/// This is the canonical representation used for transactions, mined closed
/// sets, and all intermediate intersections. The ascending-order invariant
/// makes intersection, subset testing, and comparison linear-time merges.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ItemSet {
    items: Vec<Item>,
}

impl ItemSet {
    /// Creates the empty item set.
    pub fn empty() -> Self {
        ItemSet { items: Vec::new() }
    }

    /// Creates an item set from arbitrary (possibly unsorted, possibly
    /// duplicated) item codes.
    pub fn new(mut items: Vec<Item>) -> Self {
        items.sort_unstable();
        items.dedup();
        ItemSet { items }
    }

    /// Creates an item set from a vector that is already strictly ascending.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if the invariant does not hold.
    pub fn from_sorted(items: Vec<Item>) -> Self {
        debug_assert!(
            items.windows(2).all(|w| w[0] < w[1]),
            "from_sorted requires strictly ascending items"
        );
        ItemSet { items }
    }

    /// Number of items in the set.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The items in strictly ascending order.
    pub fn as_slice(&self) -> &[Item] {
        &self.items
    }

    /// Iterates over the items in ascending order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = Item> + '_ {
        self.items.iter().copied()
    }

    /// The largest item code, if any.
    pub fn max_item(&self) -> Option<Item> {
        self.items.last().copied()
    }

    /// The smallest item code, if any.
    pub fn min_item(&self) -> Option<Item> {
        self.items.first().copied()
    }

    /// Membership test (binary search).
    pub fn contains(&self, item: Item) -> bool {
        self.items.binary_search(&item).is_ok()
    }

    /// Whether `self` is a subset of `other` (linear merge).
    pub fn is_subset_of(&self, other: &ItemSet) -> bool {
        is_subset(&self.items, &other.items)
    }

    /// The intersection of two item sets (linear merge).
    pub fn intersect(&self, other: &ItemSet) -> ItemSet {
        let mut out = Vec::with_capacity(self.len().min(other.len()));
        intersect_into(&self.items, &other.items, &mut out);
        ItemSet { items: out }
    }

    /// The union of two item sets (linear merge).
    pub fn union(&self, other: &ItemSet) -> ItemSet {
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (a, b) = (&self.items, &other.items);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        ItemSet { items: out }
    }

    /// The set difference `self \ other` (linear merge).
    pub fn minus(&self, other: &ItemSet) -> ItemSet {
        let mut out = Vec::with_capacity(self.len());
        let (a, b) = (&self.items, &other.items);
        let (mut i, mut j) = (0, 0);
        while i < a.len() {
            if j == b.len() || a[i] < b[j] {
                out.push(a[i]);
                i += 1;
            } else if a[i] == b[j] {
                i += 1;
                j += 1;
            } else {
                j += 1;
            }
        }
        ItemSet { items: out }
    }

    /// Inserts an item, keeping the set sorted. Returns `true` if inserted.
    pub fn insert(&mut self, item: Item) -> bool {
        match self.items.binary_search(&item) {
            Ok(_) => false,
            Err(pos) => {
                self.items.insert(pos, item);
                true
            }
        }
    }

    /// Consumes the set, returning the ascending item vector.
    pub fn into_vec(self) -> Vec<Item> {
        self.items
    }

    /// Replaces every item `i` by `map[i]` and restores ascending order,
    /// in the set's own allocation.
    ///
    /// # Panics
    ///
    /// Panics if an item is not an index into `map`.
    pub(crate) fn translate(&mut self, map: &[Item]) {
        for i in &mut self.items {
            *i = map[*i as usize];
        }
        self.items.sort_unstable();
        self.items.dedup();
    }
}

/// Subset test on two strictly ascending slices.
pub fn is_subset(a: &[Item], b: &[Item]) -> bool {
    if a.len() > b.len() {
        return false;
    }
    let mut j = 0;
    for &x in a {
        // advance j until b[j] >= x
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j == b.len() || b[j] != x {
            return false;
        }
        j += 1;
    }
    true
}

/// Intersects two strictly ascending slices into `out` (cleared first).
pub fn intersect_into(a: &[Item], b: &[Item], out: &mut Vec<Item>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// First index `>= start` in strictly ascending `list` whose value is
/// `>= target`, found by exponential (galloping) search followed by a
/// binary search over the bracketed range. Returns the index and the
/// number of probes spent (for kernel accounting). `O(log d)` in the
/// distance `d` advanced, against `O(d)` for a linear cursor.
#[inline]
pub fn gallop_advance(list: &[Item], start: usize, target: Item) -> (usize, u64) {
    if start >= list.len() || list[start] >= target {
        return (start, 1);
    }
    // Double the offset until it overshoots; invariant after the loop:
    // list[start + hi/2] < target (probed, or start itself) and
    // list[start + hi] >= target when in range.
    let mut probes = 1u64;
    let mut hi = 1usize;
    while start + hi < list.len() && list[start + hi] < target {
        probes += 1;
        hi *= 2;
    }
    let lo_b = start + hi / 2;
    let hi_b = (start + hi).min(list.len());
    let within = list[lo_b..hi_b].partition_point(|&x| x < target);
    probes += (hi_b - lo_b).max(1).ilog2() as u64 + 1;
    (lo_b + within, probes)
}

/// Intersects two strictly ascending slices into `out` (cleared first) by
/// galloping through the longer slice for each element of the shorter one.
/// Output is identical to [`intersect_into`]; returns the probe count.
/// Wins when the lengths are badly skewed (`long/short ≳ 8`), loses to the
/// linear merge when they are comparable — callers choose adaptively.
pub fn gallop_intersect_into(a: &[Item], b: &[Item], out: &mut Vec<Item>) -> u64 {
    out.clear();
    // walk the shorter slice, gallop in the longer
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut probes = 0u64;
    let mut j = 0usize;
    for &x in short {
        let (nj, p) = gallop_advance(long, j, x);
        probes += p;
        j = nj;
        if j == long.len() {
            break;
        }
        if long[j] == x {
            out.push(x);
            j += 1;
        }
    }
    probes
}

impl AsRef<[Item]> for ItemSet {
    fn as_ref(&self) -> &[Item] {
        self.as_slice()
    }
}

impl From<Vec<Item>> for ItemSet {
    fn from(v: Vec<Item>) -> Self {
        ItemSet::new(v)
    }
}

impl From<&[Item]> for ItemSet {
    fn from(v: &[Item]) -> Self {
        ItemSet::new(v.to_vec())
    }
}

impl<const N: usize> From<[Item; N]> for ItemSet {
    fn from(v: [Item; N]) -> Self {
        ItemSet::new(v.to_vec())
    }
}

impl FromIterator<Item> for ItemSet {
    fn from_iter<T: IntoIterator<Item = Item>>(iter: T) -> Self {
        ItemSet::new(iter.into_iter().collect())
    }
}

fn fmt_items(items: &[Item], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "{{")?;
    for (k, it) in items.iter().enumerate() {
        if k > 0 {
            write!(f, " ")?;
        }
        write!(f, "{it}")?;
    }
    write!(f, "}}")
}

impl fmt::Debug for ItemSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_items(&self.items, f)
    }
}

impl fmt::Display for ItemSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_items(&self.items, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sorts_and_dedups() {
        let s = ItemSet::new(vec![3, 1, 2, 3, 1]);
        assert_eq!(s.as_slice(), &[1, 2, 3]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn empty_set_properties() {
        let e = ItemSet::empty();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert_eq!(e.max_item(), None);
        assert_eq!(e.min_item(), None);
        assert!(e.is_subset_of(&ItemSet::from([1, 2])));
        assert_eq!(e.intersect(&ItemSet::from([1, 2])), ItemSet::empty());
    }

    #[test]
    fn intersect_basic() {
        let a = ItemSet::from([1, 3, 5, 7]);
        let b = ItemSet::from([2, 3, 5, 8]);
        assert_eq!(a.intersect(&b), ItemSet::from([3, 5]));
        assert_eq!(b.intersect(&a), ItemSet::from([3, 5]));
        assert_eq!(a.intersect(&a), a);
    }

    #[test]
    fn union_and_minus() {
        let a = ItemSet::from([1, 3, 5]);
        let b = ItemSet::from([3, 4]);
        assert_eq!(a.union(&b), ItemSet::from([1, 3, 4, 5]));
        assert_eq!(a.minus(&b), ItemSet::from([1, 5]));
        assert_eq!(b.minus(&a), ItemSet::from([4]));
        assert_eq!(a.minus(&a), ItemSet::empty());
    }

    #[test]
    fn subset_tests() {
        let a = ItemSet::from([2, 4]);
        let b = ItemSet::from([1, 2, 3, 4]);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(a.is_subset_of(&a));
        assert!(!ItemSet::from([2, 5]).is_subset_of(&b));
    }

    #[test]
    fn contains_and_bounds() {
        let a = ItemSet::from([10, 20, 30]);
        assert!(a.contains(20));
        assert!(!a.contains(15));
        assert_eq!(a.min_item(), Some(10));
        assert_eq!(a.max_item(), Some(30));
    }

    #[test]
    fn insert_keeps_order() {
        let mut a = ItemSet::from([1, 5]);
        assert!(a.insert(3));
        assert!(!a.insert(3));
        assert_eq!(a.as_slice(), &[1, 3, 5]);
    }

    #[test]
    fn display_format() {
        assert_eq!(ItemSet::from([1, 2, 3]).to_string(), "{1 2 3}");
        assert_eq!(ItemSet::empty().to_string(), "{}");
    }

    #[test]
    fn translate_maps_and_resorts_in_place() {
        let mut s = ItemSet::from([0, 1, 2]);
        let before = s.as_slice().as_ptr();
        s.translate(&[9, 4, 7]);
        assert_eq!(s.as_slice(), &[4, 7, 9]);
        assert_eq!(s.as_slice().as_ptr(), before);
        let mut e = ItemSet::empty();
        e.translate(&[]);
        assert!(e.is_empty());
    }

    #[test]
    fn from_iterator() {
        let s: ItemSet = [5u32, 1, 5, 2].into_iter().collect();
        assert_eq!(s.as_slice(), &[1, 2, 5]);
    }

    #[test]
    fn gallop_advance_finds_lower_bound() {
        let list: Vec<Item> = (0..100).map(|x| x * 3).collect();
        for start in [0usize, 1, 17, 50, 99, 100] {
            for target in [0u32, 1, 3, 148, 149, 150, 296, 297, 298, 500] {
                let (idx, probes) = gallop_advance(&list, start, target);
                let want = start.max(list.partition_point(|&x| x < target));
                assert_eq!(idx, want, "start={start} target={target}");
                assert!(probes >= 1);
            }
        }
        assert_eq!(gallop_advance(&[], 0, 5), (0, 1));
    }

    #[test]
    fn gallop_intersect_matches_linear() {
        let cases: Vec<(Vec<Item>, Vec<Item>)> = vec![
            (vec![], vec![1, 2, 3]),
            (vec![5], (0..1000).collect()),
            (vec![999], (0..1000).collect()),
            (vec![1000], (0..1000).collect()),
            ((0..50).map(|x| x * 7).collect(), (0..300).collect()),
            ((0..300).collect(), (0..50).map(|x| x * 7).collect()),
            (vec![1, 2, 3], vec![1, 2, 3]),
            (vec![0, 63, 64, 127, 128], vec![63, 64, 65, 128]),
        ];
        for (a, b) in cases {
            let mut lin = Vec::new();
            let mut gal = vec![42]; // must be cleared
            intersect_into(&a, &b, &mut lin);
            let probes = gallop_intersect_into(&a, &b, &mut gal);
            assert_eq!(lin, gal, "a={a:?} b={b:?}");
            assert!(probes > 0 || a.is_empty() || b.is_empty());
        }
    }

    #[test]
    fn raw_helpers_match_methods() {
        let a = [1u32, 4, 6];
        let b = [1u32, 2, 4, 9];
        assert!(is_subset(&[1, 4], &a));
        assert!(!is_subset(&a, &b));
        let mut out = vec![99];
        intersect_into(&a, &b, &mut out);
        assert_eq!(out, vec![1, 4]);
    }
}
