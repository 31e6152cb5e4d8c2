//! dEclat: Eclat with *diffsets* (Zaki & Gouda, KDD 2003).
//!
//! Instead of carrying the tid list of every candidate, a node below the
//! first level stores only the *difference* to its parent's tid list:
//! `d(P ∪ {j}) = t(P) − t(P ∪ {j})`, with support maintained arithmetically
//! as `supp(P ∪ {j}) = supp(P) − |d(P ∪ {j})|`. On dense databases the
//! diffsets are much smaller than the tid lists, which makes this the
//! classic variant for exactly the dense few-transaction data this
//! workspace targets. The recurrence between siblings `i < j` of prefix
//! `P` is `d(P ∪ {i,j}) = d(P ∪ {j}) − d(P ∪ {i})`; only the first level
//! computes `d(ij) = t(i) − t(j)` from real tid lists.
//!
//! The diffsets run behind the same tid-set kernel as Eclat's tid sets:
//! linear-merge lists (`declat`), galloping lists (`declat-gallop`), or
//! packed bitsets with word-ANDNOT (`declat-bitset`), all output-identical.
//! A child is kept iff `|d| ≤ supp(P ∪ {i}) − minsupp`, so the bitset
//! kernel stops counting a diffset once it passes that budget and copies
//! only the diffsets of kept children.

use crate::filter::{candidate_prunable, filter_closed, subtree_prunable};
use crate::kernel::{with_kernel, TidSetKernel};
use fim_core::{
    ClosedMiner, ConstraintSet, FoundSet, Item, ItemSet, MineOutcome, MineRequest, MiningResult,
    RecodedDatabase, Representation, TidLists, TransactionOrder,
};
use fim_obs::{Counter, Counters, Obs};

/// The diffset-based Eclat miner (closed output via subsumption filter).
#[derive(Clone, Copy, Debug, Default)]
pub struct DEclatMiner {
    /// Physical diffset layout driving the lattice walk. Output-invariant.
    pub rep: Representation,
}

impl DEclatMiner {
    /// A miner with an explicit diffset representation.
    pub fn with_rep(rep: Representation) -> Self {
        DEclatMiner { rep }
    }
}

struct Ctx {
    minsupp: u32,
    candidates: Vec<FoundSet>,
    counters: Counters,
    /// Pushed constraints (dense codes); max-size excluded, as in Eclat.
    cs: Option<ConstraintSet>,
}

impl ClosedMiner for DEclatMiner {
    fn name(&self) -> &'static str {
        match self.rep {
            Representation::Scalar => "declat",
            Representation::Bitset => "declat-bitset",
            Representation::Gallop => "declat-gallop",
        }
    }

    fn mine(&self, db: &RecodedDatabase, minsupp: u32) -> MiningResult {
        self.mine_with(db, &MineRequest::new(minsupp), &mut Obs::new())
            .0
            .into_result()
    }

    /// The file order: the search reads the rows once, to build its tid
    /// sets, so the §3.4 sort would buy nothing.
    fn transaction_order(&self) -> TransactionOrder {
        TransactionOrder::Original
    }

    fn supports_constraints(&self) -> bool {
        true
    }

    /// The diffset walk, run to completion after one up-front budget
    /// check ([`MineRequest::run_to_completion`]). Its counters are the
    /// lattice nodes, diffset merges, and the kernel accounting of the
    /// selected representation. Constraints are pushed as in Eclat's
    /// `mine_with`: min-area raises the effective support floor, per-node
    /// envelope bounds cut subtrees, and the anti-monotone max-size waits
    /// for [`filter_closed`], which runs in a `filter` span.
    fn mine_with(
        &self,
        db: &RecodedDatabase,
        req: &MineRequest<'_>,
        obs: &mut Obs,
    ) -> (MineOutcome, Counters) {
        req.run_to_completion(db, || {
            let Some(minsupp) = req.support_floor(db.num_items()) else {
                return (MiningResult::new(), Counters::new());
            };
            let cs = req.constraints.cloned();
            let (candidates, counters) =
                with_kernel!(self.rep, db.transactions().len() as u32, |k| drive(
                    &k, db, minsupp, cs
                ));
            obs.span_enter("filter");
            let closed = filter_closed(candidates);
            obs.span_exit();
            (closed, counters)
        })
    }
}

/// First level (tid lists → first diffsets) plus the diffset recursion,
/// monomorphized per kernel. Returns the raw candidates and the counters.
fn drive<K: TidSetKernel>(
    kernel: &K,
    db: &RecodedDatabase,
    minsupp: u32,
    cs: Option<ConstraintSet>,
) -> (Vec<FoundSet>, Counters) {
    let lists = TidLists::from_database(db);
    let mut ctx = Ctx {
        minsupp,
        candidates: Vec::new(),
        counters: Counters::new(),
        cs,
    };
    let frequent: Vec<Item> = (0..db.num_items())
        .filter(|&i| lists.item_support(i) >= minsupp)
        .collect();
    // first level: tid lists; children switch to diffsets
    let sets: Vec<K::Set> = frequent
        .iter()
        .map(|&i| kernel.pack_list(lists.list(i)))
        .collect();
    let mut buf = kernel.empty();
    for (idx, &i) in frequent.iter().enumerate() {
        ctx.counters.bump(Counter::SearchSteps);
        let supp_i = lists.item_support(i);
        let mut next: Vec<(Item, K::Set, u32)> = Vec::new();
        let mut perfect: Vec<Item> = Vec::new();
        for (j_idx, &j) in frequent.iter().enumerate().skip(idx + 1) {
            // d(ij) = t(i) − t(j), exact while ij can stay frequent
            let max = supp_i - ctx.minsupp;
            let d = kernel.diff(&sets[idx], &sets[j_idx], max, &mut buf, &mut ctx.counters);
            let supp_ij = supp_i - d;
            if supp_ij == supp_i {
                ctx.counters.bump(Counter::PerfectExtensions);
                perfect.push(j);
            } else if supp_ij >= ctx.minsupp {
                next.push((j, buf.clone(), supp_ij));
            }
        }
        emit_and_recurse(&mut ctx, kernel, &[i], supp_i, perfect, next);
    }
    (ctx.candidates, ctx.counters)
}

/// Emits the perfect-extension-collapsed candidate for `prefix` and
/// recurses over the diffset frontier.
fn emit_and_recurse<K: TidSetKernel>(
    ctx: &mut Ctx,
    kernel: &K,
    prefix: &[Item],
    prefix_supp: u32,
    perfect: Vec<Item>,
    frontier: Vec<(Item, K::Set, u32)>,
) {
    let mut maximal: Vec<Item> = prefix.to_vec();
    maximal.extend_from_slice(&perfect);
    let candidate = ItemSet::new(maximal);
    // constraint push: same candidate-drop / subtree-cut rules as Eclat
    // (closedness-safety argument in `filter::candidate_prunable`)
    let (emit, descend) = match &ctx.cs {
        None => (true, true),
        Some(cs) => {
            let emit = !candidate_prunable(cs, &candidate, prefix_supp);
            let descend = if frontier.is_empty() {
                false
            } else {
                let pool: Vec<Item> = frontier.iter().map(|(i, _, _)| *i).collect();
                !subtree_prunable(cs, candidate.as_slice(), &pool, prefix_supp)
            };
            if !emit || (!descend && !frontier.is_empty()) {
                ctx.counters.bump(Counter::ConstraintPrunes);
            }
            (emit, descend)
        }
    };
    if emit {
        ctx.candidates
            .push(FoundSet::new(candidate.clone(), prefix_supp));
    }
    if descend && !frontier.is_empty() {
        recurse(ctx, kernel, candidate.as_slice(), &frontier);
    }
}

/// Diffset recursion: `frontier` holds `(item, diffset w.r.t. prefix,
/// support)` triples in ascending item order.
fn recurse<K: TidSetKernel>(
    ctx: &mut Ctx,
    kernel: &K,
    prefix: &[Item],
    frontier: &[(Item, K::Set, u32)],
) {
    let mut buf = kernel.empty();
    for (idx, (i, d_i, supp_i)) in frontier.iter().enumerate() {
        ctx.counters.bump(Counter::SearchSteps);
        let mut next: Vec<(Item, K::Set, u32)> = Vec::new();
        let mut perfect: Vec<Item> = Vec::new();
        for (j, d_j, _) in &frontier[idx + 1..] {
            // d(P ∪ {i,j}) = d(P ∪ {j}) − d(P ∪ {i}), exact while it can
            // stay frequent
            let max = supp_i - ctx.minsupp;
            let d = kernel.diff(d_j, d_i, max, &mut buf, &mut ctx.counters);
            let supp_ij = supp_i - d;
            if supp_ij == *supp_i {
                ctx.counters.bump(Counter::PerfectExtensions);
                perfect.push(*j);
            } else if supp_ij >= ctx.minsupp {
                next.push((*j, buf.clone(), supp_ij));
            }
        }
        let mut new_prefix = prefix.to_vec();
        new_prefix.push(*i);
        emit_and_recurse(ctx, kernel, &new_prefix, *supp_i, perfect, next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eclat::EclatMiner;
    use crate::kernel::diff_into;
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
                let got = DEclatMiner::with_rep(rep)
                    .mine(&db, minsupp)
                    .canonicalized();
                assert_eq!(got, want, "rep={rep} minsupp={minsupp}");
            }
        }
    }

    #[test]
    fn agrees_with_plain_eclat() {
        let db = RecodedDatabase::from_dense(
            vec![
                vec![0, 1, 2, 3, 4],
                vec![0, 1, 2, 4],
                vec![1, 2, 3],
                vec![0, 2, 3, 4],
                vec![0, 1, 3, 4],
            ],
            5,
        );
        for minsupp in 1..=5 {
            let a = DEclatMiner::default().mine(&db, minsupp).canonicalized();
            let b = EclatMiner::default().mine(&db, minsupp).canonicalized();
            assert_eq!(a, b, "minsupp={minsupp}");
        }
    }

    #[test]
    fn diff_into_basic() {
        let mut out = Vec::new();
        diff_into(&[1, 3, 5, 7], &[3, 4, 7], &mut out);
        assert_eq!(out, vec![1, 5]);
        diff_into(&[], &[1], &mut out);
        assert!(out.is_empty());
        diff_into(&[2, 4], &[], &mut out);
        assert_eq!(out, vec![2, 4]);
    }

    #[test]
    fn bitset_diffsets_count_words() {
        let db = paper_db();
        let req = MineRequest::new(1);
        let (_, scalar) = DEclatMiner::default().mine_with(&db, &req, &mut Obs::new());
        let bitset = DEclatMiner::with_rep(Representation::Bitset);
        let (_, bitset) = bitset.mine_with(&db, &req, &mut Obs::new());
        assert_eq!(scalar.get(Counter::WordsAnded), 0);
        assert!(bitset.get(Counter::WordsAnded) > 0);
        assert_eq!(
            scalar.get(Counter::TidIntersections),
            bitset.get(Counter::TidIntersections),
            "same lattice walk, same number of diffset merges"
        );
    }

    #[test]
    fn dense_database_small_diffsets() {
        // on a dense database the support bookkeeping must stay exact
        let db = RecodedDatabase::from_dense(vec![(0..12).collect::<Vec<u32>>(); 6], 12);
        for rep in [
            Representation::Scalar,
            Representation::Bitset,
            Representation::Gallop,
        ] {
            let got = DEclatMiner::with_rep(rep).mine(&db, 3).canonicalized();
            assert_eq!(got.len(), 1, "rep={rep}");
            assert_eq!(got.sets[0].support, 6);
            assert_eq!(got.sets[0].items.len(), 12);
        }
    }

    #[test]
    fn empty_database() {
        let db = RecodedDatabase::from_dense(vec![], 3);
        assert!(DEclatMiner::default().mine(&db, 1).is_empty());
    }

    #[test]
    fn miner_name() {
        assert_eq!(DEclatMiner::default().name(), "declat");
        assert_eq!(
            DEclatMiner::with_rep(Representation::Bitset).name(),
            "declat-bitset"
        );
        assert_eq!(
            DEclatMiner::with_rep(Representation::Gallop).name(),
            "declat-gallop"
        );
    }
}
