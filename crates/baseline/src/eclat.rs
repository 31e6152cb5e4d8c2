//! Eclat (Zaki et al., KDD 1997): depth-first search over the item set
//! lattice with a vertical (tid-list) database representation.
//!
//! This implementation enumerates all frequent item sets via tid-list
//! intersection — the divide-and-conquer scheme of paper §2.2 — with
//! perfect-extension pruning (§2.2), and then filters the output down to the
//! closed sets. Perfect extensions are collected rather than recursed on:
//! all `2^|E|` supersets they span share the prefix's support, and only the
//! maximal one (prefix ∪ all perfect extensions) can be closed, so the
//! expansion is never materialized.
//!
//! The tid sets are carried behind a [`TidSetKernel`], so the same search
//! runs on sorted lists with linear merges (`eclat`), galloping merges
//! (`eclat-gallop`), or packed bitsets with word-AND + popcount
//! (`eclat-bitset`) — selected by the [`Representation`] field, all
//! output-identical.

use crate::filter::{apply_constraints_owned, candidate_prunable, filter_closed, subtree_prunable};
use crate::kernel::{with_kernel, TidSetKernel};
use fim_core::{
    checkpoint, BitCover, Budget, ClosedMiner, ConstraintSet, FoundSet, Governor, Item, ItemSet,
    MineOutcome, MiningResult, Progress, RecodedDatabase, Representation, TidLists,
    TransactionOrder, TripReason,
};
use fim_obs::{Counter, Counters};

/// The Eclat-based closed-set miner (frequent enumeration + closed filter).
#[derive(Clone, Copy, Debug, Default)]
pub struct EclatMiner {
    /// Physical tid-set layout driving the lattice walk. Output-invariant.
    pub rep: Representation,
}

impl EclatMiner {
    /// A miner with an explicit tid-set representation.
    pub fn with_rep(rep: Representation) -> Self {
        EclatMiner { rep }
    }
}

struct Ctx {
    minsupp: u32,
    candidates: Vec<FoundSet>,
    gov: Option<Governor>,
    counters: Counters,
    /// Pushed constraints (dense codes, exclusion already projected away).
    /// Max-size is deliberately *not* pushed here — see
    /// [`candidate_prunable`] — it is applied after [`filter_closed`].
    cs: Option<ConstraintSet>,
}

impl ClosedMiner for EclatMiner {
    fn name(&self) -> &'static str {
        match self.rep {
            Representation::Scalar => "eclat",
            Representation::Bitset => "eclat-bitset",
            Representation::Gallop => "eclat-gallop",
        }
    }

    fn mine(&self, db: &RecodedDatabase, minsupp: u32) -> MiningResult {
        self.mine_with_stats(db, minsupp).0
    }

    /// The file order: the search reads the rows once, to build its tid
    /// sets, so the §3.4 sort would buy nothing.
    fn transaction_order(&self) -> TransactionOrder {
        TransactionOrder::Original
    }

    fn supports_constraints(&self) -> bool {
        true
    }

    fn mine_constrained(
        &self,
        db: &RecodedDatabase,
        minsupp: u32,
        constraints: &ConstraintSet,
    ) -> MiningResult {
        self.mine_constrained_with_stats(db, minsupp, constraints).0
    }

    /// Governed Eclat. On a trip, the candidate list covers only part of
    /// the lattice, so closedness cannot be decided by comparing candidates
    /// against each other (a set's same-support superset may not have been
    /// enumerated yet). The interrupted partial is instead verified against
    /// the database directly — every surviving set is a closed frequent set
    /// of the full database with its exact support.
    fn mine_governed(&self, db: &RecodedDatabase, minsupp: u32, budget: &Budget) -> MineOutcome {
        let minsupp = minsupp.max(1);
        let mut gov = Some(budget.start());
        if let Some(reason) = checkpoint!(gov, 0, 0, 0) {
            return MineOutcome::Interrupted {
                partial: MiningResult::new(),
                reason,
                progress: Progress {
                    processed: 0,
                    total: None,
                },
            };
        }
        let n = db.transactions().len() as u32;
        let (candidates, gov, tripped, _) =
            with_kernel!(self.rep, n, |k| drive(&k, db, minsupp, gov, None));
        match tripped {
            None => MineOutcome::complete(filter_closed(candidates)),
            Some(reason) => {
                let processed = gov.as_ref().map_or(0, Governor::processed);
                MineOutcome::Interrupted {
                    partial: verified_closed(db, candidates),
                    reason,
                    progress: Progress {
                        processed,
                        total: None,
                    },
                }
            }
        }
    }
}

impl EclatMiner {
    /// Like [`ClosedMiner::mine`] but also returns the search counters
    /// (lattice nodes visited, tid-list intersections, perfect extensions,
    /// and the kernel accounting of the selected representation).
    pub fn mine_with_stats(&self, db: &RecodedDatabase, minsupp: u32) -> (MiningResult, Counters) {
        let minsupp = minsupp.max(1);
        let n = db.transactions().len() as u32;
        let (candidates, _, tripped, counters) =
            with_kernel!(self.rep, n, |k| drive(&k, db, minsupp, None, None));
        debug_assert!(tripped.is_none());
        (filter_closed(candidates), counters)
    }

    /// Constrained mining with counters. The monotone / convertible
    /// constraints (include, min-size, min-area) prune the lattice walk:
    /// the min-area support floor raises the effective minimum support for
    /// the whole recursion, and per-node envelope bounds cut subtrees (see
    /// `subtree_prunable` for the closedness-safety argument). Max-size,
    /// the anti-monotone one, must wait for [`filter_closed`] — dropping a
    /// same-support superset early would let non-closed subsets survive —
    /// so it lands in the final [`apply_constraints_owned`] gate.
    pub fn mine_constrained_with_stats(
        &self,
        db: &RecodedDatabase,
        minsupp: u32,
        constraints: &ConstraintSet,
    ) -> (MiningResult, Counters) {
        let minsupp_eff = constraints.support_floor(db.num_items(), minsupp.max(1));
        if minsupp_eff == u32::MAX {
            return (MiningResult::new(), Counters::new());
        }
        let n = db.transactions().len() as u32;
        let (candidates, _, tripped, mut counters) = with_kernel!(self.rep, n, |k| drive(
            &k,
            db,
            minsupp_eff,
            None,
            Some(constraints.clone())
        ));
        debug_assert!(tripped.is_none());
        let closed = filter_closed(candidates);
        let before = closed.len();
        let result = apply_constraints_owned(closed, constraints);
        counters.add(Counter::ConstraintPrunes, (before - result.len()) as u64);
        (result, counters)
    }
}

/// Builds the first frontier and runs the lattice walk with one kernel.
/// Returns the raw candidates, the governor, the trip reason (if any), and
/// the counters.
fn drive<K: TidSetKernel>(
    kernel: &K,
    db: &RecodedDatabase,
    minsupp: u32,
    gov: Option<Governor>,
    cs: Option<ConstraintSet>,
) -> (
    Vec<FoundSet>,
    Option<Governor>,
    Option<TripReason>,
    Counters,
) {
    let lists = TidLists::from_database(db);
    let mut ctx = Ctx {
        minsupp,
        candidates: Vec::new(),
        gov,
        counters: Counters::new(),
        cs,
    };
    // items with their full tid sets, ascending item order
    let frontier: Vec<(Item, K::Set)> = (0..db.num_items())
        .filter(|&i| lists.item_support(i) >= minsupp)
        .map(|i| (i, kernel.pack_list(lists.list(i))))
        .collect();
    let tripped = recurse(&mut ctx, kernel, &[], &frontier).err();
    (ctx.candidates, ctx.gov, tripped, ctx.counters)
}

/// Keeps only the candidates that are closed in the full database: a set
/// survives iff no single-item extension has equal support. Used on the
/// interrupted path, where the candidate collection is incomplete and the
/// collection-internal [`filter_closed`] could keep non-closed sets. The
/// per-extension support probes run on a transposed [`BitCover`] (one
/// word-AND pass per extension) instead of rescanning the horizontal rows.
fn verified_closed(db: &RecodedDatabase, candidates: Vec<FoundSet>) -> MiningResult {
    let bits = BitCover::from_database(db);
    let mut out = MiningResult::new();
    let mut seen = std::collections::HashSet::new();
    for fs in candidates {
        if !seen.insert(fs.items.clone()) {
            continue;
        }
        let closed = (0..db.num_items())
            .filter(|&i| !fs.items.contains(i))
            .all(|i| {
                let mut ext = fs.items.clone();
                ext.insert(i);
                bits.support(&ext) < fs.support
            });
        if closed {
            out.sets.push(fs);
        }
    }
    out
}

/// Processes the conditional database `frontier` (items with their tid sets
/// restricted to transactions containing `prefix`).
fn recurse<K: TidSetKernel>(
    ctx: &mut Ctx,
    kernel: &K,
    prefix: &[Item],
    frontier: &[(Item, K::Set)],
) -> Result<(), TripReason> {
    let mut buf = kernel.empty();
    for (idx, (item, tids)) in frontier.iter().enumerate() {
        // one lattice node per frontier element: the natural checkpoint
        if let Some(reason) = checkpoint!(ctx.gov, 0, 0, ctx.candidates.len()) {
            return Err(reason);
        }
        ctx.counters.bump(Counter::SearchSteps);
        let supp = kernel.support(tids);
        // the item set prefix ∪ {item} is frequent with support `supp`
        let mut items: Vec<Item> = prefix.to_vec();
        items.push(*item);

        // build the conditional frontier and collect perfect extensions
        let mut next: Vec<(Item, K::Set)> = Vec::new();
        let mut perfect: Vec<Item> = Vec::new();
        for (other, other_tids) in &frontier[idx + 1..] {
            let s = kernel.intersect(tids, other_tids, &mut buf, &mut ctx.counters);
            if s == supp {
                ctx.counters.bump(Counter::PerfectExtensions);
                perfect.push(*other);
            } else if s >= ctx.minsupp {
                next.push((*other, buf.clone()));
            }
        }

        // the candidate set: prefix ∪ {item}, absorbing perfect extensions
        // (only the maximal of the 2^|E| same-support supersets can be closed)
        let mut maximal = items;
        maximal.extend_from_slice(&perfect);
        let candidate = ItemSet::new(maximal.clone());

        // constraint push: drop candidates / cut subtrees that cannot
        // satisfy the monotone or convertible constraints (max-size waits
        // for the closedness filter)
        let (emit, descend) = match &ctx.cs {
            None => (true, true),
            Some(cs) => {
                let emit = !candidate_prunable(cs, &candidate, supp);
                let descend = if next.is_empty() {
                    false
                } else {
                    let pool: Vec<Item> = next.iter().map(|(i, _)| *i).collect();
                    !subtree_prunable(cs, candidate.as_slice(), &pool, supp)
                };
                if !emit || (!descend && !next.is_empty()) {
                    ctx.counters.bump(Counter::ConstraintPrunes);
                }
                (emit, descend)
            }
        };

        if emit {
            ctx.candidates.push(FoundSet::new(candidate.clone(), supp));
            if let Some(g) = ctx.gov.as_mut() {
                g.add_processed(1);
            }
        }
        if descend && !next.is_empty() {
            // the perfect extensions belong to every set mined below
            recurse(ctx, kernel, candidate.as_slice(), &next)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fim_core::reference::mine_reference;

    fn paper_db() -> RecodedDatabase {
        RecodedDatabase::from_dense(
            vec![
                vec![0, 1, 2],
                vec![0, 3, 4],
                vec![1, 2, 3],
                vec![0, 1, 2, 3],
                vec![1, 2],
                vec![0, 1, 3],
                vec![3, 4],
                vec![2, 3, 4],
            ],
            5,
        )
    }

    #[test]
    fn matches_reference_all_minsupps() {
        let db = paper_db();
        for minsupp in 1..=8 {
            let want = mine_reference(&db, minsupp);
            for rep in [
                Representation::Scalar,
                Representation::Bitset,
                Representation::Gallop,
            ] {
                let got = EclatMiner::with_rep(rep).mine(&db, minsupp).canonicalized();
                assert_eq!(got, want, "rep={rep} minsupp={minsupp}");
            }
        }
    }

    #[test]
    fn perfect_extension_collapse_keeps_closed_sets() {
        // every transaction contains {0,1}: perfect extension chain
        let db = RecodedDatabase::from_dense(vec![vec![0, 1, 2], vec![0, 1, 2], vec![0, 1, 3]], 4);
        let want = mine_reference(&db, 1);
        let got = EclatMiner::default().mine(&db, 1).canonicalized();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_database() {
        let db = RecodedDatabase::from_dense(vec![], 3);
        for rep in [
            Representation::Scalar,
            Representation::Bitset,
            Representation::Gallop,
        ] {
            assert!(EclatMiner::with_rep(rep).mine(&db, 1).is_empty());
        }
    }

    #[test]
    fn miner_name() {
        assert_eq!(EclatMiner::default().name(), "eclat");
        assert_eq!(
            EclatMiner::with_rep(Representation::Bitset).name(),
            "eclat-bitset"
        );
        assert_eq!(
            EclatMiner::with_rep(Representation::Gallop).name(),
            "eclat-gallop"
        );
    }

    #[test]
    fn kernel_counters_reflect_the_selected_layout() {
        let db = paper_db();
        let (_, scalar) = EclatMiner::default().mine_with_stats(&db, 1);
        let (_, bitset) = EclatMiner::with_rep(Representation::Bitset).mine_with_stats(&db, 1);
        let (_, gallop) = EclatMiner::with_rep(Representation::Gallop).mine_with_stats(&db, 1);
        assert_eq!(scalar.get(Counter::WordsAnded), 0);
        assert_eq!(scalar.get(Counter::GallopProbes), 0);
        assert!(scalar.get(Counter::TidIntersections) > 0);
        assert!(bitset.get(Counter::WordsAnded) > 0);
        assert!(bitset.get(Counter::PopcountCalls) > 0);
        assert!(gallop.get(Counter::GallopProbes) > 0);
        // the walk itself is identical: same lattice nodes, same merges
        assert_eq!(
            scalar.get(Counter::TidIntersections),
            bitset.get(Counter::TidIntersections)
        );
        assert_eq!(
            scalar.get(Counter::SearchSteps),
            gallop.get(Counter::SearchSteps)
        );
    }

    #[test]
    fn governed_unlimited_matches_ungoverned() {
        let db = paper_db();
        for minsupp in 1..=4 {
            for rep in [
                Representation::Scalar,
                Representation::Bitset,
                Representation::Gallop,
            ] {
                let miner = EclatMiner::with_rep(rep);
                let want = miner.mine(&db, minsupp).canonicalized();
                let outcome = miner.mine_governed(&db, minsupp, &fim_core::Budget::unlimited());
                assert!(!outcome.is_interrupted());
                assert_eq!(outcome.into_result().canonicalized(), want, "rep={rep}");
            }
        }
    }

    #[test]
    fn set_budget_partial_contains_only_true_closed_sets() {
        let db = paper_db();
        let full = mine_reference(&db, 1);
        for cap in 0..6 {
            let budget = fim_core::Budget::unlimited().with_max_closed_sets(cap);
            let outcome = EclatMiner::default().mine_governed(&db, 1, &budget);
            match outcome {
                fim_core::MineOutcome::Interrupted {
                    partial, reason, ..
                } => {
                    assert_eq!(reason, fim_core::TripReason::ClosedSetBudget);
                    for fs in &partial.sets {
                        assert_eq!(
                            full.support_of(&fs.items),
                            Some(fs.support),
                            "cap {cap}: {:?} must be closed with exact support",
                            fs.items
                        );
                    }
                }
                other => panic!("cap {cap}: expected interruption, got {other:?}"),
            }
        }
    }

    #[test]
    fn cancelled_token_interrupts_eclat() {
        let db = paper_db();
        let token = fim_core::CancelToken::new();
        token.cancel();
        let outcome = EclatMiner::default().mine_governed(
            &db,
            1,
            &fim_core::Budget::unlimited().with_cancel(token),
        );
        assert!(outcome.is_interrupted());
        assert!(outcome.result().is_empty());
    }
}
