//! Resource governance for mining runs: budgets, cooperative cancellation,
//! and structured interruption outcomes.
//!
//! The paper itself warns that the intersection approach's intermediate
//! prefix tree is unbounded (§3.2): an over-dense parameter choice can make
//! the repository explode long before the run completes. This module gives
//! every miner a uniform way to bound that resource — and wall-clock time,
//! result cardinality, or an external cancellation signal — without paying
//! anything on the hot path when no budget is set:
//!
//! * [`Budget`] describes the limits (all optional): a wall-clock timeout,
//!   maximum live tree nodes, maximum arena bytes, maximum closed sets,
//!   maximum processed transactions, and a [`CancelToken`].
//! * [`Governor`] is the per-run checking state created by
//!   [`Budget::start`]; miners call [`Governor::check`] at their natural
//!   checkpoint (once per transaction for the cumulative miners, once per
//!   recursion step for the enumeration miners) through the
//!   [`checkpoint!`](crate::checkpoint) macro, which is a single `Option`
//!   test when no governor is installed.
//! * On a trip, governed miners return
//!   [`MineOutcome::Interrupted`] carrying the *exact-so-far* partial
//!   result (for IsTa's cumulative scheme: the closed sets of the processed
//!   transaction prefix), the [`TripReason`], and a [`Progress`] snapshot —
//!   instead of aborting the process.
//! * [`Degradation`] records the graceful-degradation mode in which a
//!   tripped node budget auto-prunes the tree to a raised effective minimum
//!   support and the run continues (see `IstaMiner` in the `fim-ista`
//!   crate).
//!
//! [`checkpoint!`]: crate::checkpoint

use crate::miner::MiningResult;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often (in [`Governor::check`] calls) the wall clock is consulted
/// when a deadline is set. Node/byte/set/cancel checks run on every call
/// (they are a handful of compares and one relaxed atomic load); reading
/// the clock is strided so that enumeration miners, whose checkpoint sits
/// in a per-recursion hot path, do not pay a syscall-shaped cost per node.
const DEADLINE_STRIDE: u32 = 64;

/// A cloneable cooperative cancellation flag.
///
/// Cancelling is a one-way latch: once [`cancel`](Self::cancel) has been
/// called every clone observes [`is_cancelled`](Self::is_cancelled) as
/// `true` and any governed miner holding the token trips with
/// [`TripReason::Cancelled`] at its next checkpoint.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Creates a fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Latches the token; every clone observes the cancellation.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether [`cancel`](Self::cancel) has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Why a governed mining run stopped early.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TripReason {
    /// The wall-clock deadline passed.
    Timeout,
    /// The live prefix-tree node count exceeded the budget.
    NodeBudget,
    /// The approximate resident bytes exceeded the budget.
    ByteBudget,
    /// The number of result sets exceeded the budget.
    ClosedSetBudget,
    /// The processed-transaction budget was reached.
    TransactionBudget,
    /// The [`CancelToken`] was cancelled.
    Cancelled,
    /// The spill device ran out of space (`ENOSPC`); the run degraded to
    /// an exact partial over the transactions processed so far.
    DiskFull,
}

impl fmt::Display for TripReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TripReason::Timeout => "timeout",
            TripReason::NodeBudget => "node budget",
            TripReason::ByteBudget => "byte budget",
            TripReason::ClosedSetBudget => "closed-set budget",
            TripReason::TransactionBudget => "transaction budget",
            TripReason::Cancelled => "cancelled",
            TripReason::DiskFull => "disk full",
        };
        f.write_str(s)
    }
}

/// Resource limits for one mining run. All limits are optional; the default
/// budget is unlimited and never trips.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    /// Wall-clock limit, measured from [`Budget::start`].
    pub timeout: Option<Duration>,
    /// Maximum live prefix-tree nodes (cumulative miners).
    pub max_nodes: Option<usize>,
    /// Maximum approximate resident bytes of the mining structure.
    pub max_bytes: Option<usize>,
    /// Maximum result sets (enumeration miners check this as they emit).
    pub max_closed_sets: Option<usize>,
    /// Maximum processed transactions (total weight).
    pub max_transactions: Option<u64>,
    /// When `true`, a tripped node budget degrades gracefully instead of
    /// interrupting: the miner raises its effective minimum support until
    /// the tree fits the budget again and reports the [`Degradation`] in
    /// the outcome. Only the sequential IsTa miner implements this.
    pub degrade: bool,
    /// External cooperative cancellation.
    pub cancel: Option<CancelToken>,
}

impl Budget {
    /// The unlimited budget (alias for `Budget::default()`).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Sets a wall-clock timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Sets the live-node cap.
    pub fn with_max_nodes(mut self, max_nodes: usize) -> Self {
        self.max_nodes = Some(max_nodes);
        self
    }

    /// Sets the approximate-bytes cap.
    pub fn with_max_bytes(mut self, max_bytes: usize) -> Self {
        self.max_bytes = Some(max_bytes);
        self
    }

    /// Sets the result-set cap.
    pub fn with_max_closed_sets(mut self, max_sets: usize) -> Self {
        self.max_closed_sets = Some(max_sets);
        self
    }

    /// Sets the processed-transaction cap.
    pub fn with_max_transactions(mut self, max_transactions: u64) -> Self {
        self.max_transactions = Some(max_transactions);
        self
    }

    /// Enables graceful degradation on a tripped node budget.
    pub fn with_degradation(mut self) -> Self {
        self.degrade = true;
        self
    }

    /// Attaches a cancellation token.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Whether no limit is set at all (such a budget never trips).
    pub fn is_unlimited(&self) -> bool {
        self.timeout.is_none()
            && self.max_nodes.is_none()
            && self.max_bytes.is_none()
            && self.max_closed_sets.is_none()
            && self.max_transactions.is_none()
            && self.cancel.is_none()
    }

    /// Starts the clock: resolves the timeout to a deadline and returns the
    /// per-run checking state. A deadline past the clock's range is no
    /// deadline.
    pub fn start(&self) -> Governor {
        Governor {
            deadline: self.timeout.and_then(|t| Instant::now().checked_add(t)),
            max_nodes: self.max_nodes.unwrap_or(usize::MAX),
            max_bytes: self.max_bytes.unwrap_or(usize::MAX),
            max_sets: self.max_closed_sets.unwrap_or(usize::MAX),
            max_transactions: self.max_transactions.unwrap_or(u64::MAX),
            cancel: self.cancel.clone(),
            enabled: !self.is_unlimited(),
            processed: 0,
            tick: 0,
        }
    }
}

/// Per-run budget-checking state (see [`Budget::start`]).
#[derive(Clone, Debug)]
pub struct Governor {
    deadline: Option<Instant>,
    max_nodes: usize,
    max_bytes: usize,
    max_sets: usize,
    max_transactions: u64,
    cancel: Option<CancelToken>,
    processed: u64,
    tick: u32,
    enabled: bool,
}

impl Governor {
    /// Records `weight` more processed transactions (for the
    /// transaction budget and [`Progress`] accounting).
    #[inline]
    pub fn add_processed(&mut self, weight: u64) {
        self.processed += weight;
    }

    /// Total transactions recorded via [`add_processed`](Self::add_processed).
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// The checkpoint: compares the current resource occupancy against the
    /// budget and returns the first tripped limit, or `None`.
    ///
    /// `nodes`/`bytes` describe the mining structure (pass 0 when the miner
    /// has no such notion), `sets` the result cardinality so far. With an
    /// unlimited budget this is a single branch.
    #[inline]
    pub fn check(&mut self, nodes: usize, bytes: usize, sets: usize) -> Option<TripReason> {
        if !self.enabled {
            return None;
        }
        self.check_enabled(nodes, bytes, sets)
    }

    #[inline(never)]
    fn check_enabled(&mut self, nodes: usize, bytes: usize, sets: usize) -> Option<TripReason> {
        if nodes > self.max_nodes {
            return Some(TripReason::NodeBudget);
        }
        if bytes > self.max_bytes {
            return Some(TripReason::ByteBudget);
        }
        if sets > self.max_sets {
            return Some(TripReason::ClosedSetBudget);
        }
        if self.processed >= self.max_transactions {
            return Some(TripReason::TransactionBudget);
        }
        if let Some(c) = &self.cancel {
            if c.is_cancelled() {
                return Some(TripReason::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            self.tick = self.tick.wrapping_add(1);
            if (self.tick == 1 || self.tick.is_multiple_of(DEADLINE_STRIDE))
                && Instant::now() >= deadline
            {
                return Some(TripReason::Timeout);
            }
        }
        None
    }

    /// Whether only the node budget would trip right now — used by the
    /// degradation path to decide that pruning (which can only shrink the
    /// node count) is a meaningful response.
    pub fn node_budget(&self) -> Option<usize> {
        (self.max_nodes != usize::MAX).then_some(self.max_nodes)
    }
}

/// The shared miner checkpoint: evaluates to `Option<TripReason>`.
///
/// `$gov` is anything with an `as_mut()` yielding `Option<&mut Governor>`
/// (an `Option<Governor>` or `Option<&mut Governor>`); with `None` the
/// expansion is a single pattern match, so the ungoverned hot path carries
/// no checking cost.
#[macro_export]
macro_rules! checkpoint {
    ($gov:expr, $nodes:expr, $bytes:expr, $sets:expr) => {
        match ($gov).as_mut() {
            Some(g) => g.check($nodes, $bytes, $sets),
            None => None,
        }
    };
}

/// How far a mining run had progressed when it was interrupted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Progress {
    /// Work units completed (transactions for the cumulative miners,
    /// result sets for the enumeration miners).
    pub processed: u64,
    /// Total work units, when known up front (`None` for enumeration
    /// miners, whose search-space size is not known in advance).
    pub total: Option<u64>,
}

impl fmt::Display for Progress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.total {
            Some(total) => write!(f, "{}/{}", self.processed, total),
            None => write!(f, "{}", self.processed),
        }
    }
}

/// Record of a graceful degradation: the node budget tripped and the miner
/// raised its effective minimum support until the tree fit again.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Degradation {
    /// The minimum support the caller asked for.
    pub requested_minsupp: u32,
    /// The raised minimum support the run finished with. The reported sets
    /// are exactly the closed sets at this threshold (a subset of the
    /// requested answer).
    pub effective_minsupp: u32,
    /// Number of raise-and-prune steps taken.
    pub steps: u32,
}

/// Outcome of a governed mining run. `R` is the form the sets come in:
/// a [`MiningResult`] by default, or a
/// [`RankedResult`](crate::RankedResult) for a caller that takes
/// rank-mask keys.
#[derive(Clone, Debug)]
pub enum MineOutcome<R = MiningResult> {
    /// The run finished. `degradation` is set when the node budget tripped
    /// in degradation mode and the result is at a raised threshold.
    Complete {
        /// The mined result.
        result: R,
        /// Degradation record, if the run degraded.
        degradation: Option<Degradation>,
    },
    /// The run tripped a budget and stopped early with a well-defined
    /// partial result: for the cumulative (IsTa-family) miners, the exact
    /// closed sets of the processed transaction prefix; for the
    /// enumeration miners, the subset of the answer emitted so far (every
    /// reported support is exact).
    Interrupted {
        /// The partial result.
        partial: R,
        /// Which limit tripped.
        reason: TripReason,
        /// Progress at the trip point.
        progress: Progress,
    },
}

impl<R> MineOutcome<R> {
    /// A completed, non-degraded outcome.
    pub fn complete(result: R) -> Self {
        MineOutcome::Complete {
            result,
            degradation: None,
        }
    }

    /// The mined sets, complete or partial.
    pub fn result(&self) -> &R {
        match self {
            MineOutcome::Complete { result, .. } => result,
            MineOutcome::Interrupted { partial, .. } => partial,
        }
    }

    /// Consumes the outcome into its (complete or partial) result.
    pub fn into_result(self) -> R {
        match self {
            MineOutcome::Complete { result, .. } => result,
            MineOutcome::Interrupted { partial, .. } => partial,
        }
    }

    /// Whether the run was interrupted.
    pub fn is_interrupted(&self) -> bool {
        matches!(self, MineOutcome::Interrupted { .. })
    }

    /// Applies `f` to the contained result, preserving the outcome shape.
    pub fn map_result<S, F: FnOnce(R) -> S>(self, f: F) -> MineOutcome<S> {
        match self {
            MineOutcome::Complete {
                result,
                degradation,
            } => MineOutcome::Complete {
                result: f(result),
                degradation,
            },
            MineOutcome::Interrupted {
                partial,
                reason,
                progress,
            } => MineOutcome::Interrupted {
                partial: f(partial),
                reason,
                progress,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        let mut g = b.start();
        for _ in 0..1000 {
            g.add_processed(1_000_000);
            assert_eq!(
                g.check(usize::MAX - 1, usize::MAX - 1, usize::MAX - 1),
                None
            );
        }
    }

    #[test]
    fn node_budget_trips() {
        let mut g = Budget::unlimited().with_max_nodes(10).start();
        assert_eq!(g.check(10, 0, 0), None, "at the cap is fine");
        assert_eq!(g.check(11, 0, 0), Some(TripReason::NodeBudget));
    }

    #[test]
    fn byte_and_set_budgets_trip() {
        let mut g = Budget::unlimited().with_max_bytes(100).start();
        assert_eq!(g.check(0, 101, 0), Some(TripReason::ByteBudget));
        let mut g = Budget::unlimited().with_max_closed_sets(5).start();
        assert_eq!(g.check(0, 0, 6), Some(TripReason::ClosedSetBudget));
    }

    #[test]
    fn transaction_budget_trips_at_boundary() {
        let mut g = Budget::unlimited().with_max_transactions(3).start();
        g.add_processed(2);
        assert_eq!(g.check(0, 0, 0), None);
        g.add_processed(1);
        assert_eq!(g.check(0, 0, 0), Some(TripReason::TransactionBudget));
        assert_eq!(g.processed(), 3);
    }

    #[test]
    fn cancel_token_latches_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        let mut g = Budget::unlimited().with_cancel(clone).start();
        assert_eq!(g.check(0, 0, 0), None);
        token.cancel();
        assert_eq!(g.check(0, 0, 0), Some(TripReason::Cancelled));
    }

    #[test]
    fn zero_timeout_trips_on_first_check() {
        let mut g = Budget::unlimited()
            .with_timeout(Duration::from_secs(0))
            .start();
        assert_eq!(g.check(0, 0, 0), Some(TripReason::Timeout));
    }

    #[test]
    fn generous_timeout_does_not_trip() {
        let mut g = Budget::unlimited()
            .with_timeout(Duration::from_secs(3600))
            .start();
        for _ in 0..500 {
            assert_eq!(g.check(0, 0, 0), None);
        }
    }

    #[test]
    fn timeout_past_the_clock_never_trips_on_time() {
        let mut g = Budget::unlimited().with_timeout(Duration::MAX).start();
        for _ in 0..500 {
            assert_eq!(g.check(0, 0, 0), None);
        }
    }

    #[test]
    fn checkpoint_macro_with_and_without_governor() {
        let mut none: Option<Governor> = None;
        assert_eq!(checkpoint!(none, 10, 10, 10), None);
        let mut some = Some(Budget::unlimited().with_max_nodes(5).start());
        assert_eq!(checkpoint!(some, 6, 0, 0), Some(TripReason::NodeBudget));
    }

    #[test]
    fn trip_reason_display() {
        assert_eq!(TripReason::Timeout.to_string(), "timeout");
        assert_eq!(TripReason::NodeBudget.to_string(), "node budget");
        assert_eq!(TripReason::Cancelled.to_string(), "cancelled");
    }

    #[test]
    fn progress_display() {
        let p = Progress {
            processed: 3,
            total: Some(8),
        };
        assert_eq!(p.to_string(), "3/8");
        let p = Progress {
            processed: 42,
            total: None,
        };
        assert_eq!(p.to_string(), "42");
    }

    #[test]
    fn outcome_accessors() {
        let complete = MineOutcome::complete(MiningResult::new());
        assert!(!complete.is_interrupted());
        assert!(complete.result().is_empty());
        let interrupted = MineOutcome::Interrupted {
            partial: MiningResult::new(),
            reason: TripReason::Timeout,
            progress: Progress::default(),
        };
        assert!(interrupted.is_interrupted());
        assert!(interrupted.into_result().is_empty());
    }
}
