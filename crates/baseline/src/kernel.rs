//! Density-adaptive tid-set kernels shared by the vertical miners.
//!
//! [`EclatMiner`](crate::EclatMiner) and [`DEclatMiner`](crate::DEclatMiner)
//! both walk the item set lattice carrying one transaction-id set per
//! frontier item; the only operations they need are "how many transactions"
//! (support), set intersection, and set difference. [`TidSetKernel`]
//! abstracts those three so one recursion serves three physical layouts:
//!
//! * [`ScalarKernel`] — sorted `Vec<Tid>` with linear merges (the classic
//!   layout, and the baseline every other kernel must match exactly).
//! * [`GallopKernel`] — sorted `Vec<Tid>` with galloping (exponential
//!   search) merges, which win when one operand is much shorter than the
//!   other — the sparse-database regime.
//! * [`BitsetKernel`] — packed [`WordSet`] bitsets with word-AND/ANDNOT
//!   plus popcount, which win when tid sets cover a sizable fraction of a
//!   small transaction universe — the dense few-transaction regime this
//!   workspace targets.
//!
//! All kernels are output-invariant: the cross-kernel proptest suite pins
//! byte-identical [`fim_core::MiningResult`]s. Both merges are bounded by
//! the minimum support: a result that cannot reach it need not be exact,
//! and the merged set is guaranteed only for a child the search keeps. The
//! list kernels ignore the bound and always merge in full; the bitset
//! kernel stops reading a pair at the first block of words that proves it
//! infrequent ([`WordSet::andnot_count_within`]) and writes the merged set
//! only for a kept child.
//!
//! The kernels account their work in the shared [`Counters`] registry
//! (`tid_intersections` for every merge regardless of layout, plus
//! `words_anded`/`popcount_calls` for the bitset layout and
//! `gallop_probes` for the galloping one), which is what the `kernel`
//! section of the metrics JSON reports.

use fim_core::{gallop_advance, gallop_intersect_into, itemset::intersect_into, Tid, WordSet};
use fim_obs::{Counter, Counters};

/// The tid-set operations a vertical lattice walk needs, monomorphized per
/// physical layout.
pub(crate) trait TidSetKernel {
    /// The physical transaction-id set.
    type Set: Clone;

    /// Builds a set from a strictly ascending tid list.
    fn pack_list(&self, tids: &[Tid]) -> Self::Set;

    /// An empty set (reused as the merge scratch buffer).
    fn empty(&self) -> Self::Set;

    /// `|a ∩ b|` of a node's set `a` and a sibling's set `b`, each given
    /// with its support. Exact when it is at least `min`; otherwise some
    /// value below `min`. `buf` holds `a ∩ b` whenever `min ≤ |a ∩ b| <
    /// supp(a)`, the children the search keeps: neither infrequent nor a
    /// perfect extension. Otherwise its contents are unspecified.
    fn intersect(
        &self,
        a: (&Self::Set, u32),
        b: (&Self::Set, u32),
        min: u32,
        buf: &mut Self::Set,
        c: &mut Counters,
    ) -> u32;

    /// `|a − b|`, exact when it is at most `max`; otherwise some value
    /// above `max` (for the diffset recurrence `supp(P ∪ {i,j}) = supp(P ∪
    /// {i}) − |d(P ∪ {i,j})|`, where `max = supp(P ∪ {i}) − minsupp`).
    /// `buf` holds `a − b` whenever `0 < |a − b| ≤ max`; otherwise its
    /// contents are unspecified.
    fn diff(
        &self,
        a: &Self::Set,
        b: &Self::Set,
        max: u32,
        buf: &mut Self::Set,
        c: &mut Counters,
    ) -> u32;
}

/// `out = a − b` on strictly ascending slices (linear merge).
pub(crate) fn diff_into(a: &[Tid], b: &[Tid], out: &mut Vec<Tid>) {
    out.clear();
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
}

/// `out = a − b` with galloping cursor advances through `b`; returns the
/// probe count. Output-identical to [`diff_into`].
pub(crate) fn gallop_diff_into(a: &[Tid], b: &[Tid], out: &mut Vec<Tid>) -> u64 {
    out.clear();
    let mut probes = 0u64;
    let mut j = 0usize;
    for &x in a {
        let (nj, p) = gallop_advance(b, j, x);
        probes += p;
        j = nj;
        if j == b.len() || b[j] != x {
            out.push(x);
        }
    }
    probes
}

/// Sorted `Vec<Tid>` with linear merges.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ScalarKernel;

impl TidSetKernel for ScalarKernel {
    type Set = Vec<Tid>;

    fn pack_list(&self, tids: &[Tid]) -> Vec<Tid> {
        tids.to_vec()
    }

    fn empty(&self) -> Vec<Tid> {
        Vec::new()
    }

    fn intersect(
        &self,
        (a, _): (&Vec<Tid>, u32),
        (b, _): (&Vec<Tid>, u32),
        _min: u32,
        buf: &mut Vec<Tid>,
        c: &mut Counters,
    ) -> u32 {
        c.bump(Counter::TidIntersections);
        intersect_into(a, b, buf);
        buf.len() as u32
    }

    fn diff(
        &self,
        a: &Vec<Tid>,
        b: &Vec<Tid>,
        _max: u32,
        buf: &mut Vec<Tid>,
        c: &mut Counters,
    ) -> u32 {
        c.bump(Counter::TidIntersections);
        diff_into(a, b, buf);
        buf.len() as u32
    }
}

/// Sorted `Vec<Tid>` with galloping merges.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct GallopKernel;

impl TidSetKernel for GallopKernel {
    type Set = Vec<Tid>;

    fn pack_list(&self, tids: &[Tid]) -> Vec<Tid> {
        tids.to_vec()
    }

    fn empty(&self) -> Vec<Tid> {
        Vec::new()
    }

    fn intersect(
        &self,
        (a, _): (&Vec<Tid>, u32),
        (b, _): (&Vec<Tid>, u32),
        _min: u32,
        buf: &mut Vec<Tid>,
        c: &mut Counters,
    ) -> u32 {
        c.bump(Counter::TidIntersections);
        let probes = gallop_intersect_into(a, b, buf);
        c.add(Counter::GallopProbes, probes);
        buf.len() as u32
    }

    fn diff(
        &self,
        a: &Vec<Tid>,
        b: &Vec<Tid>,
        _max: u32,
        buf: &mut Vec<Tid>,
        c: &mut Counters,
    ) -> u32 {
        c.bump(Counter::TidIntersections);
        let probes = gallop_diff_into(a, b, buf);
        c.add(Counter::GallopProbes, probes);
        buf.len() as u32
    }
}

/// Packed [`WordSet`] bitsets over a fixed transaction universe, with
/// merges bounded by the minimum support.
///
/// Both merges first count `|x \ y|` of one operand `x` against the other
/// under a budget ([`WordSet::andnot_count_within`]), and run the writing
/// pass only for a kept child. `words_anded` counts the words that counting
/// pass read, up to where it stopped; the writing pass of a kept child is
/// one more pass over the operands and is not counted, as the unbounded
/// kernel's copy of its operand was not.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct BitsetKernel {
    /// Number of transactions (the bitset universe).
    pub universe: u32,
}

impl BitsetKernel {
    /// Per-call accounting shared by [`Self::intersect`] and [`Self::diff`]:
    /// one merge, one (bounded) popcount pass.
    fn account(&self, c: &mut Counters) {
        c.bump(Counter::TidIntersections);
        c.bump(Counter::PopcountCalls);
    }
}

impl TidSetKernel for BitsetKernel {
    type Set = WordSet;

    fn pack_list(&self, tids: &[Tid]) -> WordSet {
        WordSet::from_sorted(tids, self.universe as usize)
    }

    fn empty(&self) -> WordSet {
        WordSet::new(self.universe as usize)
    }

    /// Counts the tids of the operand with the smaller support `s` that
    /// the other lacks, under the budget `s − min`: `|a ∩ b| = s − |x \
    /// y|`, so the count passes the budget exactly when the pair cannot
    /// reach `min`. A pair stopped early reports `min − 1`.
    fn intersect(
        &self,
        (a, supp_a): (&WordSet, u32),
        (b, supp_b): (&WordSet, u32),
        min: u32,
        buf: &mut WordSet,
        c: &mut Counters,
    ) -> u32 {
        self.account(c);
        let (x, s, y) = if supp_a <= supp_b {
            (a, supp_a, b)
        } else {
            (b, supp_b, a)
        };
        let Some(budget) = s.checked_sub(min) else {
            return s;
        };
        match x.andnot_count_within(y, budget) {
            Ok(missing) => {
                c.add(Counter::WordsAnded, a.words().len() as u64);
                let supp = s - missing;
                if supp < supp_a {
                    buf.clone_from(a);
                    buf.and_in_place(b);
                }
                supp
            }
            Err(read) => {
                c.add(Counter::WordsAnded, read as u64);
                min - 1
            }
        }
    }

    /// `|a − b|` counted under the budget `max`; a pair stopped early
    /// reports `max + 1`.
    fn diff(&self, a: &WordSet, b: &WordSet, max: u32, buf: &mut WordSet, c: &mut Counters) -> u32 {
        self.account(c);
        match a.andnot_count_within(b, max) {
            Ok(size) => {
                c.add(Counter::WordsAnded, a.words().len() as u64);
                if size > 0 {
                    buf.clone_from(a);
                    buf.andnot_in_place(b);
                }
                size
            }
            Err(read) => {
                c.add(Counter::WordsAnded, read as u64);
                max + 1
            }
        }
    }
}

/// Runs `$body` with `$k` bound to the kernel matching
/// `$rep: fim_core::Representation` (each arm monomorphizes separately).
macro_rules! with_kernel {
    ($rep:expr, $n:expr, |$k:ident| $body:expr) => {
        match $rep {
            fim_core::Representation::Bitset => {
                let $k = $crate::kernel::BitsetKernel { universe: $n };
                $body
            }
            fim_core::Representation::Gallop => {
                let $k = $crate::kernel::GallopKernel;
                $body
            }
            fim_core::Representation::Scalar => {
                let $k = $crate::kernel::ScalarKernel;
                $body
            }
        }
    };
}
pub(crate) use with_kernel;

#[cfg(test)]
mod tests {
    use super::*;

    const A: &[Tid] = &[0, 3, 5, 63, 64, 65, 100];
    const B: &[Tid] = &[3, 5, 64, 99, 100, 101];

    /// Checks one kernel against the merges of `A` and `B` wherever the
    /// contract binds it; `tids` lists a set's elements.
    fn check_kernel<K: TidSetKernel>(kernel: &K, tids: impl Fn(&K::Set) -> Vec<Tid>) {
        let mut c = Counters::new();
        let a = (&kernel.pack_list(A), A.len() as u32);
        let b = (&kernel.pack_list(B), B.len() as u32);
        let mut buf = kernel.empty();
        // a kept child (1 ≤ 4 < 7) is exact and written; 4 is exact at
        // min 4, and min 5 cannot be reached
        assert_eq!(kernel.intersect(a, b, 1, &mut buf, &mut c), 4);
        assert_eq!(tids(&buf), [3, 5, 64, 100]);
        assert_eq!(kernel.intersect(b, a, 4, &mut buf, &mut c), 4);
        assert_eq!(tids(&buf), [3, 5, 64, 100]);
        assert!(kernel.intersect(a, b, 5, &mut buf, &mut c) < 5);
        // diffs: exact and written within the budget, above it otherwise
        assert_eq!(kernel.diff(a.0, b.0, 3, &mut buf, &mut c), 3);
        assert_eq!(tids(&buf), [0, 63, 65]);
        assert_eq!(kernel.diff(b.0, a.0, 6, &mut buf, &mut c), 2);
        assert_eq!(tids(&buf), [99, 101]);
        assert!(kernel.diff(a.0, b.0, 2, &mut buf, &mut c) > 2);
        assert_eq!(c.get(Counter::TidIntersections), 6);
    }

    #[test]
    fn all_kernels_agree_on_the_same_lists() {
        check_kernel(&ScalarKernel, Vec::clone);
        check_kernel(&GallopKernel, Vec::clone);
        check_kernel(&BitsetKernel { universe: 102 }, |s| s.iter().collect());
    }

    #[test]
    fn gallop_diff_matches_linear_diff() {
        let mut lin = Vec::new();
        let mut gal = Vec::new();
        let cases: &[(&[Tid], &[Tid])] = &[
            (A, B),
            (B, A),
            (&[], B),
            (A, &[]),
            (&[1, 2, 3], &[1, 2, 3]),
            (&[0, 200], &[1, 2, 3, 4, 5, 6, 7, 8, 9, 100, 150, 200]),
        ];
        for (a, b) in cases {
            diff_into(a, b, &mut lin);
            let probes = gallop_diff_into(a, b, &mut gal);
            assert_eq!(lin, gal, "a={a:?} b={b:?}");
            assert!(a.is_empty() || probes > 0);
        }
    }

    #[test]
    fn bitset_kernel_reads_until_the_bound_and_copies_kept_children() {
        // three check blocks; `low` fills the first, `high` the second
        let block = fim_core::matrix::COUNT_BLOCK_WORDS as u32 * 64;
        let k = BitsetKernel {
            universe: 3 * block,
        };
        let words = 3 * fim_core::matrix::COUNT_BLOCK_WORDS as u64;
        let low: Vec<Tid> = (0..block).collect();
        let both: Vec<Tid> = (0..2 * block).collect();
        let (low, high, both) = (
            (&k.pack_list(&low), block),
            (&k.pack_list(&(block..2 * block).collect::<Vec<_>>()), block),
            (&k.pack_list(&both), 2 * block),
        );
        let mut c = Counters::new();
        let mut buf = k.empty();
        // disjoint: the first block already misses `block` tids
        assert!(k.intersect(low, high, 1, &mut buf, &mut c) < 1);
        assert_eq!(c.get(Counter::WordsAnded), words / 3);
        assert!(buf.is_empty(), "an infrequent pair is not written");
        // a perfect extension reads everything and writes nothing
        assert_eq!(k.intersect(low, both, 1, &mut buf, &mut c), block);
        assert_eq!(c.get(Counter::WordsAnded), words / 3 + words);
        assert!(buf.is_empty(), "a perfect extension is not written");
        // a kept child (`both` is the node) is read, then written
        assert_eq!(k.intersect(both, low, 1, &mut buf, &mut c), block);
        assert_eq!(c.get(Counter::WordsAnded), words / 3 + 2 * words);
        assert_eq!(buf.count(), block);
        // diffs: an empty diffset is not written, a full one stops early
        let mut buf = k.empty();
        assert_eq!(k.diff(low.0, both.0, block, &mut buf, &mut c), 0);
        assert!(buf.is_empty());
        assert!(k.diff(low.0, high.0, block - 1, &mut buf, &mut c) > block - 1);
        assert!(buf.is_empty());
        assert_eq!(c.get(Counter::PopcountCalls), 5);
        assert_eq!(c.get(Counter::TidIntersections), 5);
    }
}
