//! Fixed counter registry for hot-loop accounting.
//!
//! One `u64` slot per [`Counter`], indexed by a `const` discriminant so an
//! increment compiles to a single add at a fixed offset. The array lives
//! inside whatever structure the hot loop already mutates (`SegArena`, the
//! Carpenter search state, the eclat context), not behind a global or an
//! atomic, so incrementing touches memory that is already in cache.

/// Names for every counter slot in the registry.
///
/// The slots cover all miners; each miner only drives its own subset and
/// reporting drops zero slots, so unrelated entries cost nothing but their
/// 8 bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// IsTa: item segments scanned by the `isect` traversal (a length-1
    /// segment's membership probe counts as one scan).
    SegScans = 0,
    /// IsTa: segment scans that stopped at the `imin` early-exit bound
    /// instead of draining the segment.
    IsectEarlyExits = 1,
    /// IsTa: Patricia segment splits.
    Splits = 2,
    /// IsTa: tree node allocations.
    NodeAllocs = 3,
    /// Carpenter lists: hopeless tid-list probes skipped by the
    /// early-stop upper bound (Nguyen 2019).
    TidEarlyStops = 4,
    /// Carpenter: perfect-extension absorptions (items collapsed into the
    /// current set without branching).
    AbsorptionHits = 5,
    /// Carpenter: repository `contains` probes (the prune check).
    RepoLookups = 6,
    /// Carpenter: repository probes that hit, pruning the branch.
    RepoHits = 7,
    /// Carpenter/eclat: search-tree nodes entered.
    SearchSteps = 8,
    /// Carpenter: items dropped by item elimination (matched the current
    /// tid set but can no longer reach `minsupp`).
    Eliminations = 9,
    /// Eclat: tid-list intersections materialised.
    TidIntersections = 10,
    /// Eclat: perfect extensions collapsed into the prefix.
    PerfectExtensions = 11,
    /// Bitset kernels: `u64` words ANDed (in-place or fused with popcount).
    WordsAnded = 12,
    /// Gallop kernels: exponential/binary-search probes spent advancing
    /// cursors (compare against the elements a linear scan would touch).
    GallopProbes = 13,
    /// Bitset kernels: popcount invocations (support counts and surviving
    /// word counts).
    PopcountCalls = 14,
    /// Out-of-core pipeline: shard trees spilled to disk as snapshots.
    ShardsSpilled = 15,
    /// Out-of-core pipeline: bytes written across all spilled snapshots
    /// (shard spills and intermediate merge re-spills).
    SpillBytes = 16,
    /// Out-of-core pipeline: pairwise merge-reduce passes over spilled
    /// snapshots (each pass loads two trees and re-spills or reports one).
    MergePasses = 17,
    /// Fault layer: injected faults that fired during the run
    /// (`fim_core::fault`).
    FaultsInjected = 18,
    /// Fault layer: bounded-retry re-attempts after transient I/O errors.
    RetriesAttempted = 19,
    /// Out-of-core resume: completed spills adopted from a prior run's
    /// manifest instead of being re-mined.
    ShardsResumed = 20,
    /// Constraint engine: search branches cut or candidate sets dropped by
    /// a pushed constraint (include/size/area bounds) before the
    /// unconstrained path would have paid for them.
    ConstraintPrunes = 21,
    /// LCM (CbO): closure computations avoided — canonicity rejections
    /// that exited before computing a closure, plus prefix items reused
    /// from the parent closure instead of being re-derived.
    ClosureReuses = 22,
}

/// Number of counter slots.
pub const NUM_COUNTERS: usize = 23;

impl Counter {
    /// Every counter, in slot order.
    pub const ALL: [Counter; NUM_COUNTERS] = [
        Counter::SegScans,
        Counter::IsectEarlyExits,
        Counter::Splits,
        Counter::NodeAllocs,
        Counter::TidEarlyStops,
        Counter::AbsorptionHits,
        Counter::RepoLookups,
        Counter::RepoHits,
        Counter::SearchSteps,
        Counter::Eliminations,
        Counter::TidIntersections,
        Counter::PerfectExtensions,
        Counter::WordsAnded,
        Counter::GallopProbes,
        Counter::PopcountCalls,
        Counter::ShardsSpilled,
        Counter::SpillBytes,
        Counter::MergePasses,
        Counter::FaultsInjected,
        Counter::RetriesAttempted,
        Counter::ShardsResumed,
        Counter::ConstraintPrunes,
        Counter::ClosureReuses,
    ];

    /// The stable snake_case name used in metrics JSON.
    pub fn name(self) -> &'static str {
        match self {
            Counter::SegScans => "seg_scans",
            Counter::IsectEarlyExits => "isect_early_exits",
            Counter::Splits => "splits",
            Counter::NodeAllocs => "node_allocs",
            Counter::TidEarlyStops => "tid_early_stops",
            Counter::AbsorptionHits => "absorption_hits",
            Counter::RepoLookups => "repo_lookups",
            Counter::RepoHits => "repo_hits",
            Counter::SearchSteps => "search_steps",
            Counter::Eliminations => "eliminations",
            Counter::TidIntersections => "tid_intersections",
            Counter::PerfectExtensions => "perfect_extensions",
            Counter::WordsAnded => "words_anded",
            Counter::GallopProbes => "gallop_probes",
            Counter::PopcountCalls => "popcount_calls",
            Counter::ShardsSpilled => "shards_spilled",
            Counter::SpillBytes => "spill_bytes",
            Counter::MergePasses => "merge_passes",
            Counter::FaultsInjected => "faults_injected",
            Counter::RetriesAttempted => "retries_attempted",
            Counter::ShardsResumed => "shards_resumed",
            Counter::ConstraintPrunes => "constraint_prunes",
            Counter::ClosureReuses => "closure_reuses",
        }
    }
}

/// The counter registry: one `u64` per [`Counter`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    vals: [u64; NUM_COUNTERS],
}

impl Counters {
    /// All-zero registry.
    pub const fn new() -> Self {
        Counters {
            vals: [0; NUM_COUNTERS],
        }
    }

    /// Adds `n` to a slot. The hot-loop entry point: compiles to one add
    /// at a constant offset.
    #[inline]
    pub fn add(&mut self, c: Counter, n: u64) {
        self.vals[c as usize] += n;
    }

    /// Increments a slot by one.
    #[inline]
    pub fn bump(&mut self, c: Counter) {
        self.vals[c as usize] += 1;
    }

    /// Reads a slot.
    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.vals[c as usize]
    }

    /// Adds every slot of `other` into `self` (shard/merge aggregation).
    pub fn merge(&mut self, other: &Counters) {
        for (a, b) in self.vals.iter_mut().zip(other.vals.iter()) {
            *a += *b;
        }
    }

    /// Whether every slot is zero.
    pub fn is_zero(&self) -> bool {
        self.vals.iter().all(|&v| v == 0)
    }

    /// `(name, value)` pairs for the slots that fired.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Counter::ALL
            .iter()
            .filter(|&&c| self.get(c) != 0)
            .map(|&c| (c.name(), self.get(c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_merge() {
        let mut a = Counters::new();
        assert!(a.is_zero());
        a.add(Counter::SegScans, 5);
        a.bump(Counter::SegScans);
        a.bump(Counter::Splits);
        assert_eq!(a.get(Counter::SegScans), 6);
        assert_eq!(a.get(Counter::Splits), 1);
        assert_eq!(a.get(Counter::NodeAllocs), 0);
        let mut b = Counters::new();
        b.add(Counter::SegScans, 4);
        b.add(Counter::RepoHits, 2);
        b.merge(&a);
        assert_eq!(b.get(Counter::SegScans), 10);
        assert_eq!(b.get(Counter::Splits), 1);
        assert_eq!(b.get(Counter::RepoHits), 2);
        assert!(!b.is_zero());
    }

    #[test]
    fn names_are_unique_and_stable() {
        let names: Vec<_> = Counter::ALL.iter().map(|c| c.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), NUM_COUNTERS, "duplicate counter name");
        assert_eq!(names[0], "seg_scans");
        assert_eq!(names[NUM_COUNTERS - 1], "closure_reuses");
    }

    #[test]
    fn iter_nonzero_skips_zeros() {
        let mut c = Counters::new();
        assert_eq!(c.iter_nonzero().count(), 0);
        c.add(Counter::TidEarlyStops, 3);
        c.add(Counter::SearchSteps, 7);
        let got: Vec<_> = c.iter_nonzero().collect();
        assert_eq!(got, vec![("tid_early_stops", 3), ("search_steps", 7)]);
    }
}
