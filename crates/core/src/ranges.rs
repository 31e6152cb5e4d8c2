//! Splitting the load into ranges that run on scoped threads.
//!
//! The paper's §3.4 preparation treats every line and every row on its
//! own, so reading a FIMI file (fim-io) and recoding its rows
//! ([`RecodedDatabase`](crate::RecodedDatabase)) split their input into
//! contiguous ranges, one per available CPU, and join the ranges' results
//! in input order (DESIGN.md §27). A range is never smaller than
//! [`MIN_RANGE_BYTES`], and a single range runs on the calling thread: a
//! small input or a one-CPU host runs the one-range code and spawns no
//! thread.

use crate::Item;

/// The fewest input bytes a range takes. Below it, the work a range adds
/// (each range interns the names it meets, and the join interns a later
/// range's names again) outweighs the CPU the range gains.
pub const MIN_RANGE_BYTES: u64 = 4 << 20;

/// The number of ranges to split `bytes` of input into: one per available
/// CPU, and none smaller than [`MIN_RANGE_BYTES`]. The CPUs are counted
/// only when the input is large enough for two ranges.
pub fn range_count(bytes: u64) -> usize {
    let most = bytes / MIN_RANGE_BYTES;
    if most < 2 {
        return 1;
    }
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(usize::try_from(most).unwrap_or(usize::MAX))
}

/// Runs `f` on each part, the first on the calling thread and every other
/// on a scoped thread of its own, and returns the results in part order.
/// One part spawns no thread. A part's panic is resumed on the calling
/// thread once every part has ended.
pub fn run_parts<P: Send, T: Send>(parts: Vec<P>, f: impl Fn(P) -> T + Sync) -> Vec<T> {
    let mut parts = parts.into_iter();
    let Some(first) = parts.next() else {
        return Vec::new();
    };
    if parts.len() == 0 {
        return vec![f(first)];
    }
    let f = &f;
    std::thread::scope(|s| {
        let later: Vec<_> = parts.map(|part| s.spawn(move || f(part))).collect();
        let mut out = Vec::with_capacity(later.len() + 1);
        out.push(f(first));
        for thread in later {
            out.push(
                thread
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        out
    })
}

/// Consecutive rows of a pool, as [`row_ranges`] cuts them.
pub(crate) struct RowRange<'a> {
    /// The number of the range's first row in the pool.
    pub first: usize,
    /// Where the range's items start in the pool.
    pub base: usize,
    /// The range's items.
    pub items: &'a mut [Item],
    /// The end of each of the range's rows in the pool (not in `items`).
    pub ends: &'a mut [usize],
}

/// Cuts a pool's rows into at most `ranges` ranges of about equal item
/// counts: each range after the first starts at the first row that starts
/// at or past its share of the items. `ends` holds each row's end in
/// `items` (a pool's offsets but the leading 0). No range is empty of
/// rows, so a pool without rows gives none.
pub(crate) fn row_ranges<'a>(
    items: &'a mut [Item],
    ends: &'a mut [usize],
    ranges: usize,
) -> Vec<RowRange<'a>> {
    let total = ends.last().copied().unwrap_or(0);
    let k = ranges.max(1);
    // each range's first row, and the end of the last range
    let mut firsts: Vec<usize> = (0..k)
        .map(|j| match j * total / k {
            0 => 0,
            share => 1 + ends.partition_point(|&end| end < share),
        })
        .collect();
    firsts.push(ends.len());
    firsts.dedup();
    let bases: Vec<usize> = firsts
        .iter()
        .map(|&row| row.checked_sub(1).map_or(0, |prev| ends[prev]))
        .collect();
    let items = cut(items, bases.windows(2).map(|b| b[1] - b[0]));
    let ends = cut(ends, firsts.windows(2).map(|f| f[1] - f[0]));
    firsts
        .into_iter()
        .zip(bases)
        .zip(items.into_iter().zip(ends))
        .map(|((first, base), (items, ends))| RowRange {
            first,
            base,
            items,
            ends,
        })
        .collect()
}

/// `slice` cut into consecutive parts of the given lengths, from its start.
pub(crate) fn cut<T>(mut slice: &mut [T], lens: impl IntoIterator<Item = usize>) -> Vec<&mut [T]> {
    lens.into_iter()
        .map(|len| {
            let (part, rest) = std::mem::take(&mut slice).split_at_mut(len);
            slice = rest;
            part
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_inputs_take_one_range_and_no_count_exceeds_the_cpus() {
        assert_eq!(range_count(0), 1);
        assert_eq!(range_count(2 * MIN_RANGE_BYTES - 1), 1);
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(range_count(2 * MIN_RANGE_BYTES), cpus.min(2));
        assert_eq!(range_count(5 * MIN_RANGE_BYTES + 7), cpus.min(5));
        assert_eq!(range_count(u64::MAX), cpus);
    }

    #[test]
    fn parts_come_back_in_order_and_one_part_runs_here() {
        let here = std::thread::current().id();
        let out = run_parts(vec![10, 20, 30], |p| (p + 1, std::thread::current().id()));
        let values: Vec<i32> = out.iter().map(|&(v, _)| v).collect();
        assert_eq!(values, [11, 21, 31]);
        assert_eq!(out[0].1, here);
        assert!(out[1..].iter().all(|&(_, id)| id != here));
        assert_eq!(
            run_parts(vec![5], |p| (p, std::thread::current().id())),
            [(5, here)]
        );
        assert!(run_parts(Vec::<u8>::new(), |p| p).is_empty());
    }

    /// The rows of each range, as `(first row, base, items, ends)`.
    fn ranges_of(offsets: &[usize], k: usize) -> Vec<(usize, usize, Vec<Item>, Vec<usize>)> {
        let mut items: Vec<Item> = (0..*offsets.last().unwrap() as Item).collect();
        let mut ends = offsets[1..].to_vec();
        row_ranges(&mut items, &mut ends, k)
            .into_iter()
            .map(|r| (r.first, r.base, r.items.to_vec(), r.ends.to_vec()))
            .collect()
    }

    #[test]
    fn row_ranges_split_at_row_starts_by_item_counts() {
        // rows of 4, 0, 2, 2, 0 and 4 items
        let offsets = [0, 4, 4, 6, 8, 8, 12];
        let two = ranges_of(&offsets, 2);
        assert_eq!(
            two,
            [
                (0, 0, vec![0, 1, 2, 3, 4, 5], vec![4, 4, 6]),
                (3, 6, vec![6, 7, 8, 9, 10, 11], vec![8, 8, 12]),
            ]
        );
        // more ranges than rows: no range is empty of rows
        let seven = ranges_of(&offsets, 7);
        let firsts: Vec<usize> = seven.iter().map(|r| r.0).collect();
        assert_eq!(firsts, [0, 1, 3, 4]);
        let rows: usize = seven.iter().map(|r| r.3.len()).sum();
        assert_eq!(rows, 6);
        assert_eq!(ranges_of(&offsets, 1).len(), 1);
        // rows without items, and no rows at all
        assert_eq!(ranges_of(&[0, 0, 0], 3), [(0, 0, vec![], vec![0, 0])]);
        assert!(ranges_of(&[0], 3).is_empty());
    }
}
