//! LCM-style closed set mining by prefix-preserving closure extension
//! (Uno, Asai, Uchida & Arimura, FIMI'03/'04).
//!
//! LCM enumerates closed sets *directly*, without a repository or a
//! post-filter: every closed set has a unique parent in a spanning tree of
//! the closed-set lattice, defined through the *ppc-extension* (prefix
//! preserving closure extension). From a closed set `P` with core item `i`,
//! the children are the closures `Q = cl(P ∪ {j})` for items `j > i`,
//! `j ∉ P`, that satisfy the prefix condition `Q ∩ {0..j} = P ∩ {0..j}` —
//! i.e. the closure adds no item below `j`. Each closed set is generated
//! exactly once, so the traversal needs no duplicate detection and runs in
//! time linear in the number of closed sets (for bounded item frequency).
//!
//! [`LcmMiner`] folds in two CbO-style speed-ups from the LCM/FCA
//! correspondence (arXiv 2010.06980), where the ppc-condition is CbO's
//! canonicity test:
//!
//! 1. **First-failure canonicity testing.** The prefix condition is
//!    equivalent to: no item `x < j`, `x ∉ P`, contains the candidate
//!    cover (`sub ⊆ list(x)`). Testing that column-wise — one tid-list
//!    containment per `x`, exiting on the first missing tid — rejects
//!    non-canonical extensions *without ever computing their closure*,
//!    where the classic formulation pays a full multi-transaction
//!    intersection first and checks the prefix afterwards.
//! 2. **Closure reuse across ppc-extensions.** When the canonicity test
//!    passes, the parent closure `P` is already known to be contained in
//!    every transaction of the candidate cover (`sub ⊆ cover(P)`), and no
//!    item below `j` can enter. The child closure is therefore
//!    `P ∪ {j} ∪ acc` with `acc` seeded from only the items `> j, ∉ P` of
//!    one covering transaction — the `|P|` prefix items are reused, never
//!    re-derived by intersection.
//!
//! [`LcmClassicMiner`] (`lcm-noreuse`) keeps the original
//! closure-first formulation as the ablation baseline, so the E16 bench
//! can measure what the two speed-ups buy.

use fim_core::{
    itemset::{intersect_into, is_subset},
    ClosedMiner, FoundSet, Item, ItemSet, MineOutcome, MineRequest, MiningResult, RecodedDatabase,
    Tid, TidLists,
};
use fim_obs::{Counter, Counters, Obs};

/// The LCM-style miner with the CbO speed-ups (canonicity-first testing
/// and closure reuse).
#[derive(Clone, Copy, Debug, Default)]
pub struct LcmMiner;

/// The pre-CbO formulation: full closure computation first, prefix check
/// second. Kept as the `lcm-noreuse` ablation.
#[derive(Clone, Copy, Debug, Default)]
pub struct LcmClassicMiner;

impl ClosedMiner for LcmMiner {
    fn name(&self) -> &'static str {
        "lcm"
    }

    fn mine(&self, db: &RecodedDatabase, minsupp: u32) -> MiningResult {
        self.mine_with(db, &MineRequest::new(minsupp), &mut Obs::new())
            .0
            .into_result()
    }

    /// The traversal, run to completion after one up-front budget check
    /// ([`MineRequest::run_to_completion`]). The `closure_reuses` counter
    /// counts closures never computed (canonicity rejections that exited
    /// early) plus prefix items reused from the parent closure instead of
    /// re-derived.
    fn mine_with(
        &self,
        db: &RecodedDatabase,
        req: &MineRequest<'_>,
        _obs: &mut Obs,
    ) -> (MineOutcome, Counters) {
        req.run_to_completion(db, || mine_impl(db, req.minsupp, true))
    }
}

impl ClosedMiner for LcmClassicMiner {
    fn name(&self) -> &'static str {
        "lcm-noreuse"
    }

    fn mine(&self, db: &RecodedDatabase, minsupp: u32) -> MiningResult {
        self.mine_with(db, &MineRequest::new(minsupp), &mut Obs::new())
            .0
            .into_result()
    }

    /// The closure-first traversal, run to completion after one up-front
    /// budget check. It computes every closure, so it reuses none.
    fn mine_with(
        &self,
        db: &RecodedDatabase,
        req: &MineRequest<'_>,
        _obs: &mut Obs,
    ) -> (MineOutcome, Counters) {
        req.run_to_completion(db, || mine_impl(db, req.minsupp, false))
    }
}

fn mine_impl(db: &RecodedDatabase, minsupp: u32, cbo: bool) -> (MiningResult, Counters) {
    let minsupp = minsupp.max(1);
    let n = db.num_transactions() as u32;
    let mut counters = Counters::new();
    if n == 0 || db.num_items() == 0 {
        return (MiningResult::new(), counters);
    }
    let lists = TidLists::from_database(db);
    let all: Vec<Tid> = (0..n).collect();
    // the root of the spanning tree: cl(∅)
    let root = closure_of_tids(db, &all);
    let mut out = Vec::new();
    if n >= minsupp && !root.is_empty() {
        out.push(FoundSet::new(ItemSet::from_sorted(root.clone()), n));
    }
    let mut ctx = Ctx {
        db,
        lists: &lists,
        minsupp,
        out,
        cbo,
        counters: &mut counters,
    };
    // the root's core item is "below item 0"
    expand(&mut ctx, &root, &all, None);
    (MiningResult { sets: ctx.out }, counters)
}

struct Ctx<'a> {
    db: &'a RecodedDatabase,
    lists: &'a TidLists,
    minsupp: u32,
    out: Vec<FoundSet>,
    cbo: bool,
    counters: &'a mut Counters,
}

/// Intersection of the transactions indexed by `tids` (must be non-empty).
fn closure_of_tids(db: &RecodedDatabase, tids: &[Tid]) -> Vec<Item> {
    let mut iter = tids.iter();
    let Some(&first) = iter.next() else {
        return Vec::new();
    };
    let mut acc: Vec<Item> = db.transaction(first).to_vec();
    let mut buf: Vec<Item> = Vec::new();
    for &t in iter {
        intersect_into(&acc, db.transaction(t), &mut buf);
        std::mem::swap(&mut acc, &mut buf);
        if acc.is_empty() {
            break;
        }
    }
    acc
}

/// The CbO canonicity test: the extension of `p` by `j` with cover `sub`
/// is canonical iff no item `x < j` outside `p` covers all of `sub`. Each
/// containment test exits at the first tid of `sub` missing from
/// `list(x)` — the "first failure".
fn canonical(ctx: &Ctx<'_>, p: &[Item], j: Item, sub: &[Tid]) -> bool {
    (0..j)
        .filter(|x| p.binary_search(x).is_err())
        .all(|x| !is_subset(sub, ctx.lists.list(x)))
}

/// The child closure, reusing the parent: `p ∪ {j} ∪ acc`, where `acc`
/// holds the items `> j`, `∉ p` present in every transaction of `sub`.
/// Valid because every transaction of `sub` contains `p ∪ {j}` and the
/// canonicity test ruled out additions below `j`.
fn closure_above(db: &RecodedDatabase, p: &[Item], j: Item, sub: &[Tid]) -> Vec<Item> {
    let first = db.transaction(sub[0]);
    let gt = first.partition_point(|&x| x <= j);
    let mut acc: Vec<Item> = first[gt..]
        .iter()
        .copied()
        .filter(|x| p.binary_search(x).is_err())
        .collect();
    let mut buf: Vec<Item> = Vec::new();
    for &t in &sub[1..] {
        if acc.is_empty() {
            break;
        }
        intersect_into(&acc, db.transaction(t), &mut buf);
        std::mem::swap(&mut acc, &mut buf);
    }
    // merge p with the (disjoint, all > j … mostly) additions j ∪ acc
    let mut add = Vec::with_capacity(acc.len() + 1);
    add.push(j);
    add.extend_from_slice(&acc);
    let mut q = Vec::with_capacity(p.len() + add.len());
    let (mut a, mut b) = (0usize, 0usize);
    while a < p.len() && b < add.len() {
        if p[a] < add[b] {
            q.push(p[a]);
            a += 1;
        } else {
            q.push(add[b]);
            b += 1;
        }
    }
    q.extend_from_slice(&p[a..]);
    q.extend_from_slice(&add[b..]);
    q
}

/// Expands closed set `p` (with cover `tids` and core item `core`) by every
/// admissible ppc-extension.
fn expand(ctx: &mut Ctx<'_>, p: &[Item], tids: &[Tid], core: Option<Item>) {
    let num_items = ctx.db.num_items();
    let start = core.map_or(0, |c| c + 1);
    let mut sub: Vec<Tid> = Vec::new();
    for j in start..num_items {
        if p.binary_search(&j).is_ok() {
            continue;
        }
        intersect_into(tids, ctx.lists.list(j), &mut sub);
        if (sub.len() as u32) < ctx.minsupp {
            continue;
        }
        let q = if ctx.cbo {
            if !canonical(ctx, p, j, &sub) {
                // closure never computed for this rejected extension
                ctx.counters.bump(Counter::ClosureReuses);
                continue;
            }
            // the |p| prefix items are reused, not re-intersected
            ctx.counters.add(Counter::ClosureReuses, p.len() as u64);
            closure_above(ctx.db, p, j, &sub)
        } else {
            let q = closure_of_tids(ctx.db, &sub);
            // prefix-preserving check: no item below j may have been added
            let prefix_ok = q
                .iter()
                .take_while(|&&x| x < j)
                .all(|x| p.binary_search(x).is_ok());
            if !prefix_ok {
                continue;
            }
            q
        };
        let support = sub.len() as u32;
        ctx.out
            .push(FoundSet::new(ItemSet::from_sorted(q.clone()), support));
        let sub_tids = sub.clone();
        expand(ctx, &q, &sub_tids, Some(j));
    }
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
            let got = LcmMiner.mine(&db, minsupp).canonicalized();
            assert_eq!(got, want, "minsupp={minsupp}");
            let classic = LcmClassicMiner.mine(&db, minsupp).canonicalized();
            assert_eq!(classic, want, "classic minsupp={minsupp}");
        }
    }

    #[test]
    fn no_duplicates_generated() {
        // LCM's defining property: each closed set exactly once, so the raw
        // output (before canonicalize) has no duplicate item sets
        let db = paper_db();
        for result in [LcmMiner.mine(&db, 1), LcmClassicMiner.mine(&db, 1)] {
            let mut seen = std::collections::HashSet::new();
            for s in &result.sets {
                assert!(seen.insert(s.items.clone()), "duplicate {:?}", s.items);
            }
        }
    }

    #[test]
    fn cbo_counters_fire() {
        let db = paper_db();
        let (got, counters) = LcmMiner.mine_with(&db, &MineRequest::new(1), &mut Obs::new());
        let got = got.into_result();
        assert!(!got.is_empty());
        assert!(counters.get(Counter::ClosureReuses) > 0);
    }

    #[test]
    fn root_closure_reported() {
        let db = RecodedDatabase::from_dense(vec![vec![0, 1], vec![0, 2]], 3);
        let got = LcmMiner.mine(&db, 2).canonicalized();
        // only {0} is closed with support 2
        assert_eq!(got.len(), 1);
        assert_eq!(got.support_of(&ItemSet::from([0])), Some(2));
    }

    #[test]
    fn empty_database() {
        let db = RecodedDatabase::from_dense(vec![], 2);
        assert!(LcmMiner.mine(&db, 1).is_empty());
        assert!(LcmClassicMiner.mine(&db, 1).is_empty());
    }

    #[test]
    fn miner_name() {
        assert_eq!(LcmMiner.name(), "lcm");
        assert_eq!(LcmClassicMiner.name(), "lcm-noreuse");
    }
}
