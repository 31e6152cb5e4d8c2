//! The miner abstraction: every algorithm in this workspace implements
//! [`ClosedMiner`] and produces a [`MiningResult`], so algorithms can be
//! swapped, cross-checked, and benchmarked interchangeably.

use crate::{
    constraint::{apply_constraints_owned, ConstraintSet},
    database::TransactionDatabase,
    govern::{Budget, Governor, MineOutcome, Progress},
    itemset::ItemSet,
    order::{ItemOrder, TransactionOrder},
    rank::RankTable,
    recode::{Recode, RecodedDatabase},
    Item,
};
use fim_obs::{Counter, Counters, Obs};
use std::fmt;

/// One mined closed frequent item set with its support.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FoundSet {
    /// The item set (dense codes of the database the miner ran on).
    pub items: ItemSet,
    /// Its (absolute) support.
    pub support: u32,
}

impl FoundSet {
    /// Convenience constructor.
    pub fn new(items: ItemSet, support: u32) -> Self {
        FoundSet { items, support }
    }
}

impl fmt::Debug for FoundSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}:{}", self.items, self.support)
    }
}

/// The complete result of a mining run.
///
/// Miners may emit sets in any order; [`MiningResult::canonicalize`] sorts
/// them into the unique canonical order used for equality checks in tests
/// and verification.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MiningResult {
    /// The mined closed frequent item sets.
    pub sets: Vec<FoundSet>,
}

impl MiningResult {
    /// Creates an empty result.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of mined sets.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Whether no sets were mined.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Sorts the sets into canonical order (by cardinality, then items,
    /// then support) and asserts there are no duplicate item sets.
    pub fn canonicalize(&mut self) -> &mut Self {
        self.sets.sort_unstable_by(|a, b| {
            (a.items.len(), &a.items, a.support).cmp(&(b.items.len(), &b.items, b.support))
        });
        debug_assert!(
            self.sets.windows(2).all(|w| w[0].items != w[1].items),
            "duplicate item sets in mining result"
        );
        self
    }

    /// Returns a canonicalized copy.
    pub fn canonicalized(&self) -> Self {
        let mut c = self.clone();
        c.canonicalize();
        c
    }

    /// Translates all sets from dense codes back to raw catalog codes,
    /// leaving `self` as it is: a copy followed by
    /// [`into_decoded`](Self::into_decoded).
    pub fn decode(&self, recode: &Recode) -> MiningResult {
        self.clone().into_decoded(&recode.item_to_old)
    }

    /// Translates all sets through `item_to_old`, a dense → raw code table
    /// such as [`Recode::item_to_old`] or
    /// [`StreamingRecode::item_to_old`](crate::StreamingRecode::item_to_old).
    /// Each set is rewritten and re-sorted in its own allocation, so no
    /// second copy of the result is ever alive.
    pub fn into_decoded(mut self, item_to_old: &[Item]) -> MiningResult {
        for s in &mut self.sets {
            s.items.translate(item_to_old);
        }
        self
    }

    /// [`into_decoded`](Self::into_decoded) followed by
    /// [`canonicalize`](Self::canonicalize), without a comparison sort of
    /// item vectors when `item_to_old` codes at most 256 items: the sets
    /// are keyed by their [`RankTable`] ([`RankTable::keyed`]), the keys
    /// sorted, and the sets rebuilt from the keys' mask bits. Wider tables
    /// take those two steps.
    pub fn into_canonical(self, item_to_old: &[Item]) -> MiningResult {
        match RankTable::new(item_to_old) {
            Some(table) => {
                let mut ranked = table.keyed(&self);
                drop(self);
                ranked.canonicalize();
                ranked.into_result()
            }
            None => {
                let mut decoded = self.into_decoded(item_to_old);
                decoded.canonicalize();
                decoded
            }
        }
    }

    /// The length of the longest set(s), useful in reports.
    pub fn max_set_len(&self) -> usize {
        self.sets.iter().map(|s| s.items.len()).max().unwrap_or(0)
    }

    /// Looks up the support of an exact item set (after canonicalize, by
    /// linear scan — intended for tests).
    pub fn support_of(&self, items: &ItemSet) -> Option<u32> {
        self.sets
            .iter()
            .find(|s| &s.items == items)
            .map(|s| s.support)
    }
}

impl FromIterator<FoundSet> for MiningResult {
    fn from_iter<T: IntoIterator<Item = FoundSet>>(iter: T) -> Self {
        MiningResult {
            sets: iter.into_iter().collect(),
        }
    }
}

/// One mining request: the threshold, the limits the run must stay within,
/// and the constraints the miner is asked to honour.
#[derive(Clone, Copy, Debug)]
pub struct MineRequest<'a> {
    /// Minimum absolute support; 0 is read as 1.
    pub minsupp: u32,
    /// Resource limits. An unlimited budget installs no governor, so the
    /// run's hot loops pay nothing for it.
    pub budget: &'a Budget,
    /// Constraints over the dense codes of the database, with an empty
    /// exclude set: exclusion is a database projection applied by
    /// [`RecodedDatabase::prepare_excluding`] before the miner runs, never
    /// a per-set predicate (see [`crate::constraint`]). The result must be
    /// **exactly** the subset of the unconstrained result that
    /// [`ConstraintSet::satisfied_by`] accepts; a miner that
    /// [`supports_constraints`](ClosedMiner::supports_constraints) pushes
    /// them into its search, the others filter their output.
    pub constraints: Option<&'a ConstraintSet>,
}

/// The budget of [`MineRequest::new`].
static UNLIMITED: Budget = Budget {
    timeout: None,
    max_nodes: None,
    max_bytes: None,
    max_closed_sets: None,
    max_transactions: None,
    degrade: false,
    cancel: None,
};

impl MineRequest<'static> {
    /// A request for every closed set at `minsupp`, unlimited and
    /// unconstrained.
    pub fn new(minsupp: u32) -> Self {
        MineRequest {
            minsupp,
            budget: &UNLIMITED,
            constraints: None,
        }
    }
}

impl MineRequest<'_> {
    /// The run's governor: `None` for an unlimited budget, whose
    /// [`checkpoint!`](crate::checkpoint) is then a single pattern match.
    pub fn governor(&self) -> Option<Governor> {
        (!self.budget.is_unlimited()).then(|| self.budget.start())
    }

    /// The support threshold a run mines at: `minsupp` (at least 1),
    /// raised to the floor a min-area constraint implies
    /// ([`ConstraintSet::support_floor`]). `None` when nothing can satisfy
    /// the constraints, so the answer is empty without a run.
    pub fn support_floor(&self, num_items: u32) -> Option<u32> {
        let minsupp = self.minsupp.max(1);
        let floor = self
            .constraints
            .map_or(minsupp, |cs| cs.support_floor(num_items, minsupp));
        (floor != u32::MAX).then_some(floor)
    }

    /// The interrupted outcome of a run whose budget trips before any
    /// work (an expired deadline, a cancelled token); `total` is the
    /// work the run would have done, when known.
    pub fn tripped_up_front(&self, total: Option<u64>) -> Option<MineOutcome> {
        let reason = self.governor()?.check(0, 0, 0)?;
        Some(MineOutcome::Interrupted {
            partial: MiningResult::new(),
            reason,
            progress: Progress {
                processed: 0,
                total,
            },
        })
    }

    /// Keeps the sets of `outcome`, complete or partial, that satisfy the
    /// request's constraints, and counts the dropped ones in
    /// [`Counter::ConstraintPrunes`]. A filtered partial stays an exact
    /// subset of the complete constrained answer.
    pub fn filter(&self, outcome: MineOutcome, counters: &mut Counters) -> MineOutcome {
        let Some(cs) = self.constraints else {
            return outcome;
        };
        outcome.map_result(|result| {
            let before = result.len();
            let result = apply_constraints_owned(result, cs);
            counters.add(Counter::ConstraintPrunes, (before - result.len()) as u64);
            result
        })
    }

    /// The request answered by a miner without a governed loop: the budget
    /// is checked once up front, `mine` runs to completion, and the
    /// constraints filter its output. `mine` returns the result and the
    /// run's counters.
    pub fn run_to_completion(
        &self,
        db: &RecodedDatabase,
        mine: impl FnOnce() -> (MiningResult, Counters),
    ) -> (MineOutcome, Counters) {
        if let Some(tripped) = self.tripped_up_front(Some(db.transactions().len() as u64)) {
            return (tripped, Counters::new());
        }
        let (result, mut counters) = mine();
        let outcome = self.filter(MineOutcome::complete(result), &mut counters);
        (outcome, counters)
    }
}

/// A closed frequent item set miner.
///
/// Implementations must report **exactly** the closed item sets of `db` with
/// support ≥ `minsupp` (the empty set is never reported), each with its exact
/// support. This contract is enforced pairwise across all implementations by
/// the integration test suite.
pub trait ClosedMiner {
    /// Short stable name used in benchmark output (e.g. `"ista"`).
    fn name(&self) -> &'static str;

    /// Mines all closed frequent item sets of `db` at `minsupp ≥ 1`.
    fn mine(&self, db: &RecodedDatabase, minsupp: u32) -> MiningResult;

    /// The transaction order this miner's family runs fastest on, which
    /// [`mine_closed`] and `fim mine` (without `--tx-order`) prepare the
    /// database in. The output never depends on it.
    ///
    /// The default is the paper's §3.4 order, smallest transactions first:
    /// it speeds up the intersection miners and the families that build
    /// prefix structures over the rows. A family that never reads the rows
    /// in order, such as the vertical eclat miners, returns
    /// [`TransactionOrder::Original`] and skips the sort.
    fn transaction_order(&self) -> TransactionOrder {
        TransactionOrder::AscendingSize
    }

    /// Whether this miner pushes constraints into its search loops.
    ///
    /// Miners that return `false` still mine correctly under constraints:
    /// [`mine_with`](Self::mine_with) filters their output.
    fn supports_constraints(&self) -> bool {
        false
    }

    /// The one mining call: answers `req` — threshold, budget, constraints —
    /// and returns the outcome with the run's counters. Spans and the
    /// heartbeat of a family that reports them land in `obs`; observation
    /// never changes the mined sets.
    ///
    /// On a tripped budget the outcome is
    /// [`Interrupted`](MineOutcome::Interrupted) with an exact partial
    /// result, and the counters describe the work done up to the trip.
    ///
    /// The default serves the families without a governed loop
    /// ([`MineRequest::run_to_completion`]): it checks the budget once up
    /// front, so an already-expired deadline or an already-cancelled token
    /// is still honoured, then runs [`mine`](Self::mine) to completion and
    /// filters the constraints, counting the dropped sets in
    /// `constraint_prunes`. Its other counters are zero. A family with
    /// counters or a governed loop overrides it, and its `mine` calls it.
    fn mine_with(
        &self,
        db: &RecodedDatabase,
        req: &MineRequest<'_>,
        _obs: &mut Obs,
    ) -> (MineOutcome, Counters) {
        req.run_to_completion(db, || (self.mine(db, req.minsupp), Counters::new()))
    }
}

/// End-to-end convenience: recode `db` with the default item order and the
/// miner's own [`transaction_order`](ClosedMiner::transaction_order), run
/// `miner`, and decode the result back to raw catalog codes.
pub fn mine_closed(
    db: &TransactionDatabase,
    minsupp: u32,
    miner: &dyn ClosedMiner,
) -> MiningResult {
    mine_closed_with_orders(
        db,
        minsupp,
        miner,
        ItemOrder::default(),
        miner.transaction_order(),
    )
}

/// Like [`mine_closed`], but with a *relative* minimum support given as a
/// fraction of the transaction count (paper §2.1 notes the two definitions
/// are equivalent), converted by [`relative_minsupp`].
///
/// # Panics
///
/// Panics if `fraction` is not within `0.0..=1.0`.
pub fn mine_closed_relative(
    db: &TransactionDatabase,
    fraction: f64,
    miner: &dyn ClosedMiner,
) -> MiningResult {
    assert!(
        (0.0..=1.0).contains(&fraction),
        "relative support must be a fraction in [0, 1]"
    );
    let minsupp = relative_minsupp(fraction, db.num_transactions() as u64);
    mine_closed(db, minsupp, miner)
}

/// The absolute minimum support of a `fraction` of `transactions`:
/// `ceil(fraction · transactions)`, at least 1.
///
/// A decimal fraction such as 0.07 is not exact in binary, so a product
/// that is a whole number can come out a few ulps above it (0.07 × 100 =
/// 7.000000000000001); a product within that rounding error of a whole
/// number is that number, not the next one.
pub fn relative_minsupp(fraction: f64, transactions: u64) -> u32 {
    let product = fraction * transactions as f64;
    let whole = product.round();
    // two roundings (the fraction's and the product's) of at most half
    // an ulp each, with room to spare
    let minsupp = if (product - whole).abs() <= whole * 4.0 * f64::EPSILON {
        whole
    } else {
        product.ceil()
    };
    (minsupp as u32).max(1)
}

/// End-to-end constrained mining under a budget: validates `constraints`,
/// recodes `db` with the must-exclude items projected away
/// ([`RecodedDatabase::prepare_excluding`]), translates the remaining
/// constraints to dense codes, mines under `budget` — the constraints
/// pushed into the miner's search loops when `push` is set and the miner
/// [`supports_constraints`](ClosedMiner::supports_constraints),
/// post-filtered otherwise — and decodes + canonicalizes the outcome
/// (complete or exact partial).
///
/// An include item that did not survive recoding (infrequent, unknown, or
/// itself excluded) makes the constraints unsatisfiable: the result is
/// empty without running the miner.
///
/// # Panics
///
/// Panics if `constraints` fail [`ConstraintSet::validate`] — callers
/// (the CLI) surface contradictory constraints as usage errors first.
#[allow(clippy::too_many_arguments)]
pub fn mine_closed_constrained(
    db: &TransactionDatabase,
    minsupp: u32,
    miner: &dyn ClosedMiner,
    constraints: &ConstraintSet,
    budget: &Budget,
    item_order: ItemOrder,
    tx_order: TransactionOrder,
    push: bool,
) -> MineOutcome {
    constraints
        .validate()
        .expect("contradictory constraints reached the mining driver");
    let recoded =
        RecodedDatabase::prepare_excluding(db, minsupp, item_order, tx_order, &constraints.exclude);
    let dense = match constraints.encode(recoded.recode()) {
        Some(d) => d,
        None => return MineOutcome::complete(MiningResult::new()),
    };
    let pushed = push && miner.supports_constraints();
    let req = MineRequest {
        minsupp: minsupp.max(1),
        budget,
        constraints: pushed.then_some(&dense),
    };
    let (outcome, _) = miner.mine_with(&recoded, &req, &mut Obs::new());
    let outcome = if pushed {
        outcome
    } else {
        outcome.map_result(|r| apply_constraints_owned(r, &dense))
    };
    outcome.map_result(|r| r.into_canonical(&recoded.recode().item_to_old))
}

/// Like [`mine_closed`], with explicit orders (for the §3.4 ablations).
pub fn mine_closed_with_orders(
    db: &TransactionDatabase,
    minsupp: u32,
    miner: &dyn ClosedMiner,
    item_order: ItemOrder,
    tx_order: TransactionOrder,
) -> MiningResult {
    let recoded = RecodedDatabase::prepare(db, minsupp, item_order, tx_order);
    miner
        .mine(&recoded, minsupp.max(1))
        .into_canonical(&recoded.recode().item_to_old)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct SingletonMiner;
    impl ClosedMiner for SingletonMiner {
        fn name(&self) -> &'static str {
            "singleton"
        }
        fn mine(&self, db: &RecodedDatabase, minsupp: u32) -> MiningResult {
            // toy miner: closed singletons only; correct only on databases
            // where every singleton happens to be closed
            (0..db.num_items())
                .filter(|&i| db.item_supports()[i as usize] >= minsupp)
                .filter(|&i| crate::closure::closure(db, &ItemSet::from([i])) == ItemSet::from([i]))
                .map(|i| FoundSet::new(ItemSet::from([i]), db.item_supports()[i as usize]))
                .collect()
        }
    }

    #[test]
    fn canonicalize_orders_by_len_then_items() {
        let mut r = MiningResult {
            sets: vec![
                FoundSet::new(ItemSet::from([2, 3]), 1),
                FoundSet::new(ItemSet::from([1]), 5),
                FoundSet::new(ItemSet::from([0, 5]), 2),
            ],
        };
        r.canonicalize();
        assert_eq!(r.sets[0].items, ItemSet::from([1]));
        assert_eq!(r.sets[1].items, ItemSet::from([0, 5]));
        assert_eq!(r.sets[2].items, ItemSet::from([2, 3]));
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert_eq!(r.max_set_len(), 2);
        assert_eq!(r.support_of(&ItemSet::from([1])), Some(5));
        assert_eq!(r.support_of(&ItemSet::from([9])), None);
    }

    #[test]
    fn mine_closed_decodes_to_raw_codes() {
        // raw items: "rare" appears once, "x" 3 times, "y" 2 times
        let db =
            TransactionDatabase::from_named(&[vec!["x", "rare"], vec!["x", "y"], vec!["x", "y"]]);
        let r = mine_closed(&db, 2, &SingletonMiner);
        // x is closed (cover = all three); y's closure is {x,y}, so the
        // toy miner reports only {x} — decoded to raw code of "x" = 0
        assert_eq!(r.support_of(&ItemSet::from([0])), Some(3));
    }

    #[test]
    fn decode_maps_codes() {
        let recode = Recode {
            item_to_new: vec![Some(1), None, Some(0)],
            item_to_old: vec![2, 0],
            tx_to_old: vec![0],
        };
        let r = MiningResult {
            sets: vec![
                FoundSet::new(ItemSet::from([0, 1]), 7),
                FoundSet::new(ItemSet::empty(), 9),
            ],
        };
        let d = r.decode(&recode);
        assert_eq!(d.sets[0].items, ItemSet::from([0, 2]));
        assert_eq!(d.sets[0].support, 7);
        assert_eq!(d.sets[1], FoundSet::new(ItemSet::empty(), 9));
        // the consuming decode gives the same sets, in place
        assert_eq!(r.into_decoded(&recode.item_to_old), d);
    }

    #[test]
    fn default_mine_with_honours_expired_budget() {
        let db = TransactionDatabase::from_named(&[vec!["x", "y"], vec!["x"]]);
        let recoded =
            RecodedDatabase::prepare(&db, 1, ItemOrder::default(), TransactionOrder::default());
        let cancel = crate::CancelToken::new();
        cancel.cancel();
        let budget = crate::Budget::unlimited().with_cancel(cancel);
        let req = MineRequest {
            budget: &budget,
            ..MineRequest::new(1)
        };
        let (outcome, counters) = SingletonMiner.mine_with(&recoded, &req, &mut Obs::new());
        assert!(counters.is_zero());
        match outcome {
            crate::MineOutcome::Interrupted {
                partial,
                reason,
                progress,
            } => {
                assert!(partial.is_empty());
                assert_eq!(reason, crate::TripReason::Cancelled);
                assert_eq!(progress.total, Some(2));
            }
            other => panic!("expected interruption, got {other:?}"),
        }
        // an unlimited budget falls through to a plain complete mine
        let (outcome, _) =
            SingletonMiner.mine_with(&recoded, &MineRequest::new(1), &mut Obs::new());
        assert!(!outcome.is_interrupted());
    }

    #[test]
    fn default_mine_with_filters_and_counts_constraints() {
        let db = TransactionDatabase::from_named(&[vec!["x", "y"], vec!["x"], vec!["z"]]);
        let recoded =
            RecodedDatabase::prepare(&db, 1, ItemOrder::default(), TransactionOrder::default());
        let all = SingletonMiner.mine(&recoded, 1);
        let cs = ConstraintSet {
            min_area: 2,
            ..ConstraintSet::none()
        };
        let req = MineRequest {
            constraints: Some(&cs),
            ..MineRequest::new(1)
        };
        let (outcome, counters) = SingletonMiner.mine_with(&recoded, &req, &mut Obs::new());
        let kept = outcome.into_result();
        assert_eq!(kept, apply_constraints_owned(all.clone(), &cs));
        assert_eq!(
            counters.get(Counter::ConstraintPrunes),
            (all.len() - kept.len()) as u64
        );
        assert!(kept.len() < all.len(), "the area bound drops a set");
    }

    #[test]
    fn debug_format() {
        let s = FoundSet::new(ItemSet::from([1, 2]), 4);
        assert_eq!(format!("{s:?}"), "{1 2}:4");
    }
}
