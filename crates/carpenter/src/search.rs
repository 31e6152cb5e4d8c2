//! The shared Carpenter search: transaction-set enumeration with
//! perfect-extension absorption, item elimination, and repository pruning.
//!
//! The recursion enumerates, in ascending transaction order, which
//! transaction is intersected next (paper §3.1). A node is described by the
//! current intersection `I`, the number `k` of transactions already known to
//! contain it, and the next transaction index to consider. Thanks to the
//! include-before-exclude order, the *first* time a closed set is completed
//! its `k` equals the exact support, and any later completion finds it in
//! the [`Repository`] and is suppressed.

use crate::repo::Repository;
use fim_core::{
    checkpoint, constraint::area, ConstraintSet, FoundSet, Governor, Item, ItemSet, MineOutcome,
    MineRequest, MiningResult, Progress, Tid, TripReason,
};
use fim_obs::{Counter, Counters};

/// Pruning switches for the Carpenter search (all on by default).
///
/// Disabling a switch never changes the mined output, only the running
/// time — exercised by the ablation tests and the `pruning` experiment
/// runner (E9).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CarpenterConfig {
    /// Transaction absorption (the perfect-extension analog, §3.1):
    /// a transaction containing the whole current intersection is included
    /// unconditionally instead of branching.
    pub perfect_extension: bool,
    /// Item elimination (§3.1.1): drop an item from an intersection once
    /// its included-count plus remaining occurrences cannot reach minimum
    /// support.
    pub item_elimination: bool,
    /// Cut a subtree as soon as its intersection is already in the
    /// repository.
    pub repo_prune: bool,
    /// Early-stopping intersections (Nguyen 2019): skip probing an item
    /// whose count of already-matched transactions plus a cheap upper
    /// bound on its remaining occurrences (the unscanned tail of its tid
    /// list, or the suffix-count entry) cannot reach minimum support. The
    /// bound may lag behind the exact remaining count, so it only ever
    /// *overestimates* — a skipped item is genuinely hopeless, making the
    /// skip output-neutral like item elimination.
    pub early_stop: bool,
}

impl Default for CarpenterConfig {
    fn default() -> Self {
        CarpenterConfig {
            perfect_extension: true,
            item_elimination: true,
            repo_prune: true,
            early_stop: true,
        }
    }
}

impl CarpenterConfig {
    /// All prunings disabled (slowest, for ablation baselines).
    pub fn unpruned() -> Self {
        CarpenterConfig {
            perfect_extension: false,
            item_elimination: false,
            repo_prune: false,
            early_stop: false,
        }
    }
}

/// Database representation driving the search. Implemented by the
/// list-based ([`crate::lists`]) and table-based ([`crate::table`])
/// variants.
///
/// A node of the search owns its state; the states of its children are
/// written into one buffer the search takes from a pool when the node is
/// entered and returns when it is left, so every depth reuses the same
/// buffers for the whole search and the hot loop allocates nothing.
pub trait Representation {
    /// The representation of a current intersection. `Default` is an
    /// empty buffer, ready to receive a sub-state.
    type State: Default;

    /// The state for the full item base (the search root, paper `(B, ∅, 1)`).
    fn initial_state(&self) -> Self::State;

    /// Number of items in the state.
    fn state_len(&self, state: &Self::State) -> usize;

    /// Number of transactions.
    fn num_transactions(&self) -> u32;

    /// The items of a state, strictly ascending.
    fn items<'s>(&'s self, state: &'s Self::State) -> impl DoubleEndedIterator<Item = Item> + 's;

    /// The item set represented by a state.
    fn items_of(&self, state: &Self::State) -> ItemSet {
        ItemSet::from_sorted(self.items(state).collect())
    }

    /// Called once when a node is entered, before its loop over the tids
    /// from `start` on. `horizon` is the end of the tids that loop reaches
    /// without an absorption. A representation may index the state's
    /// occurrences here, once, and then serve the loop's tids from the
    /// index in [`next_tid`](Self::next_tid) and
    /// [`intersect`](Self::intersect). By default every tid is probed.
    fn enter(&self, _state: &mut Self::State, _start: Tid, _horizon: Tid) {}

    /// The first tid `≥ tid` whose transaction may share an item with
    /// `state`. Skipping the tids in between is output-neutral: their
    /// intersection is empty, which neither absorbs nor branches. By
    /// default `tid` itself.
    fn next_tid(&self, _state: &Self::State, tid: Tid) -> Tid {
        tid
    }

    /// Intersects `state` with transaction `tid` (advancing any internal
    /// cursors in `state`), writes the sub-state of matched items into
    /// `sub` (whatever it held before is replaced) and returns the raw
    /// match count *before* item elimination. When
    /// `config.item_elimination` is set, items whose `k_new` included
    /// occurrences plus occurrences in transactions after `tid` cannot
    /// reach `minsupp` are dropped from the sub-state. When
    /// `config.early_stop` is set, the representation may skip a hopeless
    /// item entirely (it then counts toward neither the raw match count
    /// nor the sub-state; undercounting the raw matches only disables
    /// perfect-extension absorption, which is output-neutral).
    ///
    /// `counters` receives the representation's per-probe accounting
    /// ([`Counter::TidEarlyStops`], [`Counter::Eliminations`]).
    #[allow(clippy::too_many_arguments)]
    fn intersect(
        &self,
        state: &mut Self::State,
        tid: Tid,
        k_new: u32,
        minsupp: u32,
        config: CarpenterConfig,
        counters: &mut Counters,
        sub: &mut Self::State,
    ) -> usize;
}

/// Runs the Carpenter search over `rep` for `req` and returns the closed
/// frequent item sets, accumulating the hot-loop counters of the run in
/// `counters`: search steps, absorptions, eliminations, early stops, and
/// repository probes/hits (the accounting the paper's §4 evaluation asks
/// about).
///
/// **Constraints** are pushed into the recursion. The transaction-set
/// enumeration *shrinks* its intersection state with depth, which makes it
/// the natural host for the monotone constraints: a node whose state has
/// fewer items than `min_size`, or no longer contains every must-include
/// item, cannot emit a satisfying set anywhere below — nor can it affect
/// any satisfying set's support, because the first completion of a
/// satisfying set happens along ancestors whose states all contain it
/// (include-first order). Min-area cuts on the envelope bound
/// `(k + remaining) × state_len`, and additionally raises the effective
/// support floor ([`MineRequest::support_floor`]). Max-size cannot cut
/// recursion (deeper nodes shrink back under the bound) and is applied at
/// emission only.
///
/// Emission keeps the repository insert unconditional: a set failing the
/// constraints is still recorded so that later, inexact-`k` completions of
/// the same set stay suppressed. That is sound because a later completion
/// has the same items and a support no larger than the exact first one, so
/// it fails the (support-independent or support-monotone) constraints
/// whenever the first completion did.
///
/// Under a limited **budget** the enumeration checks the governor once per
/// search-tree node and once per emitted set; on a trip the partial result
/// is the subset of the answer emitted so far — every set in it is a
/// closed frequent set of the full database with its exact support (the
/// include-first order makes every emission final), and it satisfies the
/// constraints. The [`Progress`] counts emitted sets; the search-space size
/// is unknown up front, so `total` is `None`, and the counters describe the
/// work done up to the trip.
pub fn search<R: Representation>(
    rep: &R,
    num_items: u32,
    config: CarpenterConfig,
    req: &MineRequest<'_>,
    counters: &mut Counters,
) -> MineOutcome {
    let Some(minsupp) = req.support_floor(num_items) else {
        return MineOutcome::complete(MiningResult::new());
    };
    if let Some(tripped) = req.tripped_up_front(None) {
        return tripped;
    }
    let mut gov = req.governor();
    let (out, tripped) = run(
        rep,
        num_items,
        minsupp,
        config,
        req.constraints,
        &mut gov,
        counters,
    );
    match tripped {
        Some(reason) => MineOutcome::Interrupted {
            partial: MiningResult { sets: out },
            reason,
            progress: Progress {
                processed: gov.as_ref().map_or(0, Governor::processed),
                total: None,
            },
        },
        None => MineOutcome::complete(MiningResult { sets: out }),
    }
}

/// Runs the recursion from the root; returns the emitted sets and the trip
/// reason if the governor stopped it.
fn run<R: Representation>(
    rep: &R,
    num_items: u32,
    minsupp: u32,
    config: CarpenterConfig,
    cs: Option<&ConstraintSet>,
    gov: &mut Option<Governor>,
    counters: &mut Counters,
) -> (Vec<FoundSet>, Option<TripReason>) {
    let mut repo = Repository::new(num_items);
    let mut out = Vec::new();
    let mut root = rep.initial_state();
    if rep.state_len(&root) == 0 || rep.num_transactions() == 0 {
        return (out, None);
    }
    let tripped = recurse(
        rep,
        &mut root,
        0,
        0,
        minsupp,
        config,
        cs,
        &mut repo,
        &mut out,
        gov,
        counters,
        &mut Vec::new(),
    )
    .err();
    (out, tripped)
}

/// One node of the search: the intersection `state`, contained in `k`
/// transactions before `start`. `pool` holds the sub-state buffers of the
/// nodes below; the node takes one when it is entered and gives it back
/// when it is left.
#[allow(clippy::too_many_arguments)]
fn recurse<R: Representation>(
    rep: &R,
    state: &mut R::State,
    mut k: u32,
    start: Tid,
    minsupp: u32,
    config: CarpenterConfig,
    cs: Option<&ConstraintSet>,
    repo: &mut Repository,
    out: &mut Vec<FoundSet>,
    gov: &mut Option<Governor>,
    counters: &mut Counters,
    pool: &mut Vec<R::State>,
) -> Result<(), TripReason> {
    if let Some(reason) = checkpoint!(gov, 0, 0, out.len()) {
        return Err(reason);
    }
    counters.bump(Counter::SearchSteps);
    let n = rep.num_transactions();
    let state_len = rep.state_len(state);
    if config.repo_prune {
        counters.bump(Counter::RepoLookups);
        if repo.contains(rep.items(state)) {
            counters.bump(Counter::RepoHits);
            return Ok(()); // everything below was already explored earlier
        }
    }
    // constraint push: states only shrink below here, so a state that is
    // already too small, misses a must-include item, or cannot reach the
    // area bound even with every remaining transaction included, has no
    // satisfying emission anywhere in its subtree (and no first completion
    // of a satisfying set runs through it — see `search`). Max-size
    // deliberately absent.
    if let Some(cs) = cs {
        if (state_len as u32) < cs.min_size
            || area(k + (n - start), state_len) < cs.min_area
            || !(cs.include.is_empty() || cs.include.is_subset_of(&rep.items_of(state)))
        {
            counters.bump(Counter::ConstraintPrunes);
            return Ok(());
        }
    }
    // without an absorption the loop stops before the first tid at which
    // `k + (n - tid) < minsupp`
    let horizon = (u64::from(n) + u64::from(k) + 1).saturating_sub(u64::from(minsupp));
    rep.enter(state, start, horizon.min(u64::from(n)) as Tid);
    let mut sub = pool.pop().unwrap_or_default();
    let mut tid = rep.next_tid(state, start);
    // nothing below can reach minimum support once `k + (n - tid) < minsupp`
    while tid < n && k + (n - tid) >= minsupp {
        let raw_len = rep.intersect(state, tid, k + 1, minsupp, config, counters, &mut sub);
        if raw_len == state_len && config.perfect_extension {
            // transaction contains the whole intersection: absorb, no
            // exclude branch can produce output
            counters.bump(Counter::AbsorptionHits);
            k += 1;
        } else if rep.state_len(&sub) > 0 {
            // without absorption a transaction containing the whole
            // intersection takes an explicit include branch too; the
            // exclude branch is the continuation of this loop (item
            // elimination may have emptied the sub-state, in which case
            // nothing below the include branch can be frequent)
            recurse(
                rep,
                &mut sub,
                k + 1,
                tid + 1,
                minsupp,
                config,
                cs,
                repo,
                out,
                gov,
                counters,
                pool,
            )?;
        }
        tid = rep.next_tid(state, tid + 1);
    }
    pool.push(sub);
    // leaf for the current intersection: `k` now counts every transaction
    // containing it (include-first order makes the first arrival exact)
    if k >= minsupp {
        let items = rep.items_of(state);
        // the insert stays unconditional under constraints: a failing set is
        // still recorded so later, inexact-`k` completions of the same items
        // are suppressed — they would fail the (support-independent or
        // support-monotone) predicates identically
        if repo.insert(items.as_slice()) {
            if cs.is_some_and(|c| !c.satisfied_by(&items, k)) {
                counters.bump(Counter::ConstraintPrunes);
            } else {
                out.push(FoundSet::new(items, k));
                if let Some(g) = gov.as_mut() {
                    g.add_processed(1);
                }
                // emissions also happen while the stack unwinds, where no
                // node entry intervenes — checkpoint here too, so a set
                // budget trips promptly
                if let Some(reason) = checkpoint!(gov, 0, 0, out.len()) {
                    return Err(reason);
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fim_core::Budget;

    fn mine(rep: &NaiveRep, num_items: u32, minsupp: u32, config: CarpenterConfig) -> MiningResult {
        let req = MineRequest::new(minsupp);
        search(rep, num_items, config, &req, &mut Counters::new()).into_result()
    }

    fn governed(rep: &NaiveRep, minsupp: u32, budget: &Budget) -> MineOutcome {
        let req = MineRequest {
            minsupp,
            budget,
            constraints: None,
        };
        let config = CarpenterConfig::default();
        search(rep, 5, config, &req, &mut Counters::new())
    }

    /// A trivially correct representation over owned transactions, used to
    /// test the search logic independently of the list/table machinery.
    struct NaiveRep {
        txs: Vec<Vec<u32>>,
        num_items: u32,
    }

    impl Representation for NaiveRep {
        type State = Vec<u32>;
        fn initial_state(&self) -> Vec<u32> {
            (0..self.num_items).collect()
        }
        fn state_len(&self, s: &Vec<u32>) -> usize {
            s.len()
        }
        fn num_transactions(&self) -> u32 {
            self.txs.len() as u32
        }
        fn items<'s>(&'s self, s: &'s Vec<u32>) -> impl DoubleEndedIterator<Item = Item> + 's {
            s.iter().copied()
        }
        fn intersect(
            &self,
            state: &mut Vec<u32>,
            tid: Tid,
            _k_new: u32,
            _minsupp: u32,
            _config: CarpenterConfig,
            _counters: &mut Counters,
            sub: &mut Vec<u32>,
        ) -> usize {
            let t = &self.txs[tid as usize];
            sub.clear();
            sub.extend(state.iter().copied().filter(|i| t.contains(i)));
            sub.len()
        }
    }

    fn paper_rep() -> NaiveRep {
        NaiveRep {
            txs: vec![
                vec![0, 1, 2],
                vec![0, 3, 4],
                vec![1, 2, 3],
                vec![0, 1, 2, 3],
                vec![1, 2],
                vec![0, 1, 3],
                vec![3, 4],
                vec![2, 3, 4],
            ],
            num_items: 5,
        }
    }

    #[test]
    fn search_matches_reference_on_paper_example() {
        use fim_core::{recode::RecodedDatabase, reference::mine_reference};
        let rep = paper_rep();
        let db = RecodedDatabase::from_dense(rep.txs.clone(), 5);
        for minsupp in 1..=8 {
            let want = mine_reference(&db, minsupp);
            let got = mine(&rep, 5, minsupp, CarpenterConfig::default()).canonicalized();
            assert_eq!(got, want, "minsupp={minsupp}");
        }
    }

    #[test]
    fn all_pruning_combinations_agree() {
        use fim_core::{recode::RecodedDatabase, reference::mine_reference};
        let rep = paper_rep();
        let db = RecodedDatabase::from_dense(rep.txs.clone(), 5);
        for pe in [false, true] {
            for rp in [false, true] {
                let config = CarpenterConfig {
                    perfect_extension: pe,
                    item_elimination: false, // NaiveRep does not implement it
                    repo_prune: rp,
                    early_stop: false, // nor this
                };
                for minsupp in 1..=5 {
                    let want = mine_reference(&db, minsupp);
                    let got = mine(&rep, 5, minsupp, config).canonicalized();
                    assert_eq!(got, want, "pe={pe} rp={rp} minsupp={minsupp}");
                }
            }
        }
    }

    #[test]
    fn empty_inputs() {
        let rep = NaiveRep {
            txs: vec![],
            num_items: 3,
        };
        assert!(mine(&rep, 3, 1, CarpenterConfig::default()).is_empty());
        let rep = NaiveRep {
            txs: vec![vec![0]],
            num_items: 0,
        };
        assert!(mine(&rep, 0, 1, CarpenterConfig::default()).is_empty());
    }

    #[test]
    fn governed_unlimited_matches_ungoverned() {
        let rep = paper_rep();
        for minsupp in 1..=5 {
            let want = mine(&rep, 5, minsupp, CarpenterConfig::default()).canonicalized();
            let outcome = governed(&rep, minsupp, &Budget::unlimited());
            assert!(!outcome.is_interrupted());
            assert_eq!(outcome.into_result().canonicalized(), want);
        }
    }

    #[test]
    fn set_budget_partial_is_a_subset_of_the_answer() {
        use fim_core::{recode::RecodedDatabase, reference::mine_reference};
        let rep = paper_rep();
        let db = RecodedDatabase::from_dense(rep.txs.clone(), 5);
        let full = mine_reference(&db, 1);
        for cap in 0..full.len() {
            let budget = Budget::unlimited().with_max_closed_sets(cap);
            let outcome = governed(&rep, 1, &budget);
            match outcome {
                MineOutcome::Interrupted {
                    partial,
                    reason,
                    progress,
                } => {
                    assert_eq!(reason, TripReason::ClosedSetBudget);
                    assert_eq!(progress.processed, partial.len() as u64);
                    assert!(partial.len() <= cap + 1, "cap {cap}");
                    for fs in &partial.sets {
                        assert_eq!(
                            full.support_of(&fs.items),
                            Some(fs.support),
                            "cap {cap}: {:?} must be a closed set with exact support",
                            fs.items
                        );
                    }
                }
                other => panic!("cap {cap}: expected interruption, got {other:?}"),
            }
        }
    }

    #[test]
    fn cancelled_before_start_returns_empty_partial() {
        let rep = paper_rep();
        let token = fim_core::CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited().with_cancel(token);
        let outcome = governed(&rep, 1, &budget);
        match outcome {
            MineOutcome::Interrupted {
                partial, reason, ..
            } => {
                assert!(partial.is_empty());
                assert_eq!(reason, TripReason::Cancelled);
            }
            other => panic!("expected interruption, got {other:?}"),
        }
    }

    #[test]
    fn zero_timeout_trips_the_search() {
        let rep = paper_rep();
        let budget = Budget::unlimited().with_timeout(std::time::Duration::from_secs(0));
        let outcome = governed(&rep, 1, &budget);
        assert!(outcome.is_interrupted());
    }

    #[test]
    fn single_transaction_reported_once() {
        let rep = NaiveRep {
            txs: vec![vec![1, 3]],
            num_items: 4,
        };
        let r = mine(&rep, 4, 1, CarpenterConfig::default());
        assert_eq!(r.len(), 1);
        assert_eq!(r.sets[0].items, ItemSet::from([1, 3]));
        assert_eq!(r.sets[0].support, 1);
    }
}
