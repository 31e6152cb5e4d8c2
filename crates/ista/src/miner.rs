//! The [`IstaMiner`]: driving the prefix tree over a recoded database.

use crate::tree::{PrefixTree, TreeMemoryStats};
use fim_core::{
    checkpoint, prepare, ClosedMiner, Degradation, Governor, MineOutcome, MineRequest,
    MiningResult, Progress, RecodedDatabase, Representation, TripReason,
};
use fim_obs::{Counters, Obs, ProgressSnapshot};

/// When to run the item-elimination pruning pass (paper §3.2).
///
/// A pruning pass walks the whole tree, so its placement is a trade-off:
/// on dense data (NCBI60-like) the unpruned tree explodes and pruning after
/// every transaction is essential; on sparse data (transposed-webview-like)
/// the tree grows slowly and per-transaction walks dominate the runtime.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PrunePolicy {
    /// Never prune (ablation baseline).
    Never,
    /// Prune after every `n` processed (weighted) transactions.
    EveryN(usize),
    /// Prune whenever the tree has grown by this factor since the last
    /// pass (amortizes the walk against the growth it removes). This is
    /// the default with factor 2.
    Growth(f64),
}

/// Prune-placement bookkeeping shared by the sequential miner, shard
/// mining, and merge replay: decides after each (replayed) transaction
/// whether a pruning pass is due, implementing the [`PrunePolicy`]
/// semantics in one place.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PrunePacer {
    policy: PrunePolicy,
    processed: usize,
    last_prune_size: usize,
}

impl PrunePacer {
    /// A pacer implementing `policy`, starting from an empty tree.
    pub(crate) fn new(policy: PrunePolicy) -> Self {
        PrunePacer {
            policy,
            processed: 0,
            last_prune_size: 256,
        }
    }

    /// Call after a transaction lands; returns whether to prune now.
    pub(crate) fn due(&mut self, node_count: usize) -> bool {
        self.processed += 1;
        match self.policy {
            PrunePolicy::Never => false,
            PrunePolicy::EveryN(n) => n > 0 && self.processed.is_multiple_of(n),
            PrunePolicy::Growth(factor) => {
                node_count as f64 >= self.last_prune_size as f64 * factor
            }
        }
    }

    /// Call after a pruning pass with the post-prune tree size.
    pub(crate) fn pruned(&mut self, node_count: usize) {
        self.last_prune_size = node_count.max(256);
    }
}

/// Tuning knobs for [`IstaMiner`].
///
/// Two hot-path steps always run and are not configurable: identical
/// transactions merge into `(items, weight)` pairs up front
/// ([`fim_core::coalesce`]), and the node arena is compacted into
/// depth-first order after each pruning pass that freed slots
/// ([`PrefixTree::compact`]). Both are output-invariant; switching either
/// off never won a measured cell (EXPERIMENTS.md E11).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IstaConfig {
    /// Pruning placement policy.
    pub policy: PrunePolicy,
    /// Segment-scan kernel selection. [`Representation::Bitset`] switches
    /// the `isect` walk to packed-word membership probes (plus a whole-run
    /// word-AND for contiguous segments). `Gallop` has no IsTa kernel: it
    /// runs the scalar epoch probe, and the CLI stores `Scalar` for it so
    /// its metrics name the kernel that runs. Output-invariant (proptested
    /// against the scalar path).
    pub rep: Representation,
}

impl Default for IstaConfig {
    fn default() -> Self {
        IstaConfig {
            policy: PrunePolicy::Growth(2.0),
            rep: Representation::Scalar,
        }
    }
}

impl IstaConfig {
    /// Configuration with item elimination disabled (for ablations).
    pub fn without_pruning() -> Self {
        IstaConfig {
            policy: PrunePolicy::Never,
            ..Default::default()
        }
    }

    /// Prune after every transaction (the most aggressive placement).
    pub fn prune_every_transaction() -> Self {
        IstaConfig {
            policy: PrunePolicy::EveryN(1),
            ..Default::default()
        }
    }

    /// Configuration with an explicit segment-scan kernel.
    pub fn with_rep(rep: Representation) -> Self {
        IstaConfig {
            rep,
            ..Default::default()
        }
    }

    /// Configuration using the bit-parallel segment kernel (registered as
    /// `ista-bitset`).
    pub fn bitset() -> Self {
        IstaConfig::with_rep(Representation::Bitset)
    }
}

/// Counters and final memory occupancy of one [`IstaMiner`] run, reported
/// by [`IstaMiner::mine_stats`] (surfaced by the CLI `--stats` flag
/// and the bench harness).
#[derive(Clone, Copy, Debug, Default)]
pub struct MineStats {
    /// Transactions in the database (total weight processed).
    pub total_transactions: usize,
    /// Distinct transactions after coalescing: the weighted rows the
    /// miner inserts, one cumulative-intersection pass each.
    pub distinct_transactions: usize,
    /// Item-elimination pruning passes executed.
    pub prune_passes: usize,
    /// Arena compactions executed.
    pub compactions: usize,
    /// Largest node count the tree reached after any transaction (physical
    /// nodes: with the Patricia layout a node holds a whole segment, so
    /// this is the number the path compression is meant to shrink).
    pub peak_nodes: usize,
    /// Arena occupancy after the last transaction, before reporting.
    pub memory: TreeMemoryStats,
    /// Hot-loop counters (segment scans, early exits, splits, allocations)
    /// accumulated by the tree while mining.
    pub counters: Counters,
}

/// The IsTa closed frequent item set miner (paper §3.2–3.3).
#[derive(Clone, Copy, Debug, Default)]
pub struct IstaMiner {
    /// Algorithm configuration.
    pub config: IstaConfig,
}

impl IstaMiner {
    /// Creates a miner with an explicit configuration.
    pub fn with_config(config: IstaConfig) -> Self {
        IstaMiner { config }
    }

    /// [`mine_stats`](Self::mine_stats) at `minsupp`, unlimited and
    /// unconstrained. Kept for the benchmark probe (`perfbench/probe`),
    /// which calls it and changes only with the benchmark.
    pub fn mine_with_stats(&self, db: &RecodedDatabase, minsupp: u32) -> (MiningResult, MineStats) {
        let (outcome, stats) = self.mine_stats(db, &MineRequest::new(minsupp), &mut Obs::new());
        (outcome.into_result(), stats)
    }

    /// The one mining call: [`ClosedMiner::mine_with`] with the whole
    /// [`MineStats`] of the run — counters, passes, peak and final tree
    /// occupancy — instead of the counters alone. Phase spans and the
    /// heartbeat land in `obs`, which always receives a final heartbeat.
    /// On a trip the stats describe the tree at the trip point.
    ///
    /// IsTa's constraint push is the **support-floor raise**: a min-area
    /// constraint implies a support lower bound
    /// ([`ConstraintSet::support_floor`](fim_core::ConstraintSet::support_floor)),
    /// and mining at that raised threshold lets every item-elimination
    /// pruning pass cut tree paths that could only complete into sub-floor
    /// (hence unsatisfying) sets. Size and include predicates, by contrast,
    /// must **not** prune tree nodes mid-run — a too-small or
    /// include-missing path still feeds the cumulative intersections of
    /// later transactions — so they gate only the final report
    /// (`constraint_prunes` counts the sets they drop). An interrupted
    /// partial is the exact constrained answer of the processed prefix.
    pub fn mine_stats(
        &self,
        db: &RecodedDatabase,
        req: &MineRequest<'_>,
        obs: &mut Obs,
    ) -> (MineOutcome, MineStats) {
        let total = db.transactions().len() as u64;
        let (outcome, mut stats) = match req.support_floor(db.num_items()) {
            Some(minsupp) => self.run(db, minsupp, req.governor(), req.budget.degrade, obs),
            None => (
                MineOutcome::complete(MiningResult::new()),
                MineStats {
                    total_transactions: total as usize,
                    ..MineStats::default()
                },
            ),
        };
        let outcome = req.filter(outcome, &mut stats.counters);
        let processed = match &outcome {
            MineOutcome::Interrupted { progress, .. } => progress.processed,
            MineOutcome::Complete { .. } => total,
        };
        obs.finish(&ProgressSnapshot {
            processed,
            total: Some(total),
            pending: 0,
            peak_nodes: stats.peak_nodes as u64,
            sets: outcome.result().len() as u64,
        });
        (outcome, stats)
    }

    /// The mining loop behind [`mine_stats`](Self::mine_stats). `gov` is
    /// `None` for ungoverned runs, whose per-transaction checkpoint is then
    /// a single pattern match (see [`checkpoint!`]).
    ///
    /// The partial result on interruption is *exact*: the tree after `k`
    /// (weighted) transactions holds the closed sets of that prefix, and
    /// item-elimination pruning never removes a set that is frequent in
    /// any prefix — a pruned set has `supp + remaining < minsupp` against
    /// the *full* database, which bounds its support in every prefix below
    /// `minsupp` too. So `report(minsupp)` on the interrupted tree equals
    /// mining the processed prefix alone.
    fn run(
        &self,
        db: &RecodedDatabase,
        minsupp: u32,
        mut gov: Option<Governor>,
        degrade: bool,
        obs: &mut Obs,
    ) -> (MineOutcome, MineStats) {
        let requested = minsupp.max(1);
        let mut minsupp_eff = requested;
        let mut degradation: Option<Degradation> = None;
        obs.span_enter("coalesce");
        let txs = prepare::coalesce(db.transactions());
        obs.span_exit();
        let mut stats = MineStats {
            total_transactions: db.transactions().len(),
            distinct_transactions: txs.len(),
            ..MineStats::default()
        };
        let total_weight = db.transactions().len() as u64;
        let mut tree = PrefixTree::new(db.num_items());
        tree.set_bitset(self.config.rep == Representation::Bitset);
        let mut remaining: Vec<u32> = db.item_supports().to_vec();
        let mut pacer = PrunePacer::new(self.config.policy);
        if let Some(reason) = checkpoint!(gov, 0, 0, 0) {
            // already expired/cancelled before the first transaction
            stats.memory = tree.memory_stats();
            stats.counters = *tree.counters();
            let outcome = MineOutcome::Interrupted {
                partial: MiningResult::new(),
                reason,
                progress: Progress {
                    processed: 0,
                    total: Some(total_weight),
                },
            };
            return (outcome, stats);
        }
        obs.span_enter("transactions");
        let mut processed: u64 = 0;
        for (t, w) in &txs {
            for &i in t.iter() {
                remaining[i as usize] -= w;
            }
            tree.add_transaction_weighted(t, *w);
            stats.peak_nodes = stats.peak_nodes.max(tree.node_count());
            if let Some(g) = gov.as_mut() {
                g.add_processed(u64::from(*w));
            }
            processed += u64::from(*w);
            obs.tick(&ProgressSnapshot {
                processed,
                total: Some(total_weight),
                pending: 0,
                peak_nodes: stats.peak_nodes as u64,
                sets: tree.node_count() as u64,
            });
            if let Some(reason) =
                checkpoint!(gov, tree.node_count(), tree.memory_stats().approx_bytes, 0)
            {
                if degrade && reason == TripReason::NodeBudget {
                    let g = gov.as_mut().expect("a tripped governor is present");
                    let cap = g.node_budget().unwrap_or(0);
                    let d = degradation.get_or_insert(Degradation {
                        requested_minsupp: requested,
                        effective_minsupp: minsupp_eff,
                        steps: 0,
                    });
                    // raise the threshold until the tree fits again; the
                    // reported sets become exactly the closed sets at the
                    // raised threshold (pruning keeps those supports exact)
                    while tree.node_count() > cap && minsupp_eff != u32::MAX {
                        minsupp_eff = minsupp_eff
                            .saturating_mul(2)
                            .max(minsupp_eff.saturating_add(1));
                        tree.prune(&remaining, minsupp_eff);
                        d.steps += 1;
                        stats.prune_passes += 1;
                    }
                    d.effective_minsupp = minsupp_eff;
                    if tree.compact_if_fragmented() {
                        stats.compactions += 1;
                    }
                    pacer.pruned(tree.node_count());
                } else {
                    obs.span_exit(); // transactions
                    stats.memory = tree.memory_stats();
                    stats.counters = *tree.counters();
                    obs.span_enter("report");
                    let partial = MiningResult {
                        sets: tree.report(minsupp_eff),
                    };
                    obs.span_exit();
                    let processed = gov.as_ref().map_or(0, Governor::processed);
                    let outcome = MineOutcome::Interrupted {
                        partial,
                        reason,
                        progress: Progress {
                            processed,
                            total: Some(total_weight),
                        },
                    };
                    return (outcome, stats);
                }
            }
            if pacer.due(tree.node_count()) {
                obs.span_enter("prune");
                tree.prune(&remaining, minsupp_eff);
                obs.span_exit();
                pacer.pruned(tree.node_count());
                stats.prune_passes += 1;
                obs.span_enter("compact");
                if tree.compact_if_fragmented() {
                    stats.compactions += 1;
                }
                obs.span_exit();
            }
        }
        obs.span_exit(); // transactions

        // one last compaction before reporting: `report` walks the whole
        // tree in DFS order, which is exactly the order compact lays out
        obs.span_enter("compact");
        if tree.compact_if_fragmented() {
            stats.compactions += 1;
        }
        obs.span_exit();
        stats.memory = tree.memory_stats();
        stats.counters = *tree.counters();
        obs.span_enter("report");
        let result = MiningResult {
            sets: tree.report(minsupp_eff),
        };
        obs.span_exit();
        let outcome = MineOutcome::Complete {
            result,
            degradation,
        };
        (outcome, stats)
    }
}

impl ClosedMiner for IstaMiner {
    fn name(&self) -> &'static str {
        if self.config.rep == Representation::Bitset {
            "ista-bitset"
        } else {
            "ista"
        }
    }

    fn mine(&self, db: &RecodedDatabase, minsupp: u32) -> MiningResult {
        self.mine_with(db, &MineRequest::new(minsupp), &mut Obs::new())
            .0
            .into_result()
    }

    fn supports_constraints(&self) -> bool {
        true
    }

    fn mine_with(
        &self,
        db: &RecodedDatabase,
        req: &MineRequest<'_>,
        obs: &mut Obs,
    ) -> (MineOutcome, Counters) {
        let (outcome, stats) = self.mine_stats(db, req, obs);
        (outcome, stats.counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fim_core::reference::mine_reference;
    use fim_core::{Budget, Item, ItemSet};

    fn governed(
        miner: &IstaMiner,
        db: &RecodedDatabase,
        minsupp: u32,
        budget: &Budget,
    ) -> (MineOutcome, MineStats) {
        let req = MineRequest {
            minsupp,
            budget,
            constraints: None,
        };
        miner.mine_stats(db, &req, &mut Obs::new())
    }

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

    /// A database with heavy row duplication, so coalescing actually
    /// collapses transactions.
    fn duplicated_db() -> RecodedDatabase {
        let mut rows: Vec<Vec<Item>> = Vec::new();
        for _ in 0..4 {
            rows.push(vec![0, 1, 2]);
            rows.push(vec![1, 2, 3]);
        }
        for _ in 0..3 {
            rows.push(vec![0, 2, 4]);
        }
        rows.push(vec![2, 3, 4]);
        RecodedDatabase::from_dense(rows, 5)
    }

    #[test]
    fn matches_reference_on_paper_example() {
        let db = paper_db();
        for minsupp in 1..=8 {
            let want = mine_reference(&db, minsupp);
            let got = IstaMiner::default().mine(&db, minsupp).canonicalized();
            assert_eq!(got, want, "minsupp={minsupp}");
        }
    }

    #[test]
    fn all_prune_policies_agree() {
        let db = paper_db();
        let policies = [
            PrunePolicy::Never,
            PrunePolicy::EveryN(1),
            PrunePolicy::EveryN(3),
            PrunePolicy::Growth(1.1),
            PrunePolicy::Growth(2.0),
        ];
        for minsupp in 1..=8 {
            let want = mine_reference(&db, minsupp);
            for policy in policies {
                for rep in [Representation::Scalar, Representation::Bitset] {
                    let got = IstaMiner::with_config(IstaConfig { policy, rep })
                        .mine(&db, minsupp)
                        .canonicalized();
                    assert_eq!(got, want, "policy={policy:?} rep={rep} minsupp={minsupp}");
                }
            }
        }
    }

    #[test]
    fn coalescing_is_output_invariant_on_duplicated_rows() {
        let db = duplicated_db();
        for minsupp in 1..=6 {
            let want = mine_reference(&db, minsupp);
            for config in [IstaConfig::default(), IstaConfig::bitset()] {
                let got = IstaMiner::with_config(config)
                    .mine(&db, minsupp)
                    .canonicalized();
                assert_eq!(got, want, "{config:?}, minsupp={minsupp}");
            }
        }
    }

    #[test]
    fn stats_report_coalescing_and_pruning() {
        let db = duplicated_db();
        let (result, stats) = IstaMiner::with_config(IstaConfig {
            policy: PrunePolicy::EveryN(2),
            rep: Representation::Scalar,
        })
        .mine_with_stats(&db, 4);
        assert!(!result.sets.is_empty());
        assert_eq!(stats.total_transactions, 12);
        assert_eq!(stats.distinct_transactions, 4);
        assert!(stats.prune_passes >= 1);
        assert!(stats.peak_nodes >= stats.memory.live_nodes - 1);
        assert!(stats.memory.live_nodes >= 1);
        assert!(stats.memory.approx_bytes > 0);
        // compaction leaves no fragmentation behind after the final prune
        // unless the last prune freed nothing; either way slots are bounded
        assert!(stats.memory.free_slots <= stats.memory.total_slots);
    }

    #[test]
    fn stats_without_pruning_report_no_compaction() {
        let db = duplicated_db();
        let (_, stats) =
            IstaMiner::with_config(IstaConfig::without_pruning()).mine_with_stats(&db, 1);
        assert_eq!(stats.distinct_transactions, 4);
        assert_eq!(stats.prune_passes, 0);
        assert_eq!(stats.compactions, 0, "nothing pruned, nothing compacted");
    }

    #[test]
    fn empty_database() {
        let db = RecodedDatabase::from_dense(vec![], 0);
        assert!(IstaMiner::default().mine(&db, 1).is_empty());
    }

    #[test]
    fn many_items_few_transactions_shape() {
        // the regime the algorithm is designed for: wide transactions
        let db = RecodedDatabase::from_dense(
            vec![
                (0..50).collect(),
                (10..60).collect(),
                (20..70).collect(),
                (0..30).chain(50..70).collect(),
            ],
            70,
        );
        let want = mine_reference(&db, 2);
        let got = IstaMiner::default().mine(&db, 2).canonicalized();
        assert_eq!(got, want);
    }

    #[test]
    fn supports_are_exact() {
        let db = paper_db();
        let got = IstaMiner::default().mine(&db, 1);
        for fs in &got.sets {
            assert_eq!(db.support(&fs.items), fs.support, "{:?}", fs.items);
        }
    }

    #[test]
    fn miner_name() {
        assert_eq!(IstaMiner::default().name(), "ista");
        assert_eq!(
            IstaMiner::with_config(IstaConfig::bitset()).name(),
            "ista-bitset"
        );
    }

    #[test]
    fn bitset_kernel_counts_words_anded() {
        let db = paper_db();
        let (_, scalar) = IstaMiner::default().mine_with_stats(&db, 1);
        let (_, bitset) = IstaMiner::with_config(IstaConfig::bitset()).mine_with_stats(&db, 1);
        use fim_obs::Counter;
        assert_eq!(scalar.counters.get(Counter::WordsAnded), 0);
        assert!(bitset.counters.get(Counter::WordsAnded) > 0);
    }

    #[test]
    fn patricia_compresses_long_chains() {
        // wide transactions build long unary chains: one-item nodes would
        // pay one node per item, the Patricia layout pays one node per
        // branch — same output, far fewer physical nodes than items
        let db = RecodedDatabase::from_dense(
            vec![
                (0..50).collect(),
                (10..60).collect(),
                (20..70).collect(),
                (0..30).chain(50..70).collect(),
            ],
            70,
        );
        let (result, stats) = IstaMiner::default().mine_with_stats(&db, 1);
        assert_eq!(result.canonicalized(), mine_reference(&db, 1));
        let physical = stats.memory.live_nodes - 1;
        assert!(
            physical * 2 <= stats.memory.seg_items,
            "expected ≥2× path compression, got {physical} nodes for {} items",
            stats.memory.seg_items
        );
        assert!(stats.memory.seg_bytes > 0);
    }

    #[test]
    fn governed_unlimited_budget_is_complete_and_identical() {
        let db = paper_db();
        for minsupp in 1..=4 {
            let want = IstaMiner::default().mine(&db, minsupp).canonicalized();
            let budget = fim_core::Budget::unlimited();
            let (outcome, _) = governed(&IstaMiner::default(), &db, minsupp, &budget);
            assert!(!outcome.is_interrupted());
            assert_eq!(outcome.into_result().canonicalized(), want);
        }
    }

    #[test]
    fn transaction_budget_yields_exact_prefix_result() {
        // the paper database has no duplicate rows, so coalescing keeps
        // the database order and every row weighs 1
        let db = paper_db();
        let miner = IstaMiner::default();
        for k in 1..db.transactions().len() {
            let budget = fim_core::Budget::unlimited().with_max_transactions(k as u64);
            let (outcome, _) = governed(&miner, &db, 2, &budget);
            let prefix = RecodedDatabase::from_dense(
                db.transactions()
                    .iter()
                    .take(k)
                    .map(<[_]>::to_vec)
                    .collect(),
                db.num_items(),
            );
            let want = mine_reference(&prefix, 2);
            match outcome {
                fim_core::MineOutcome::Interrupted {
                    partial,
                    reason,
                    progress,
                } => {
                    assert_eq!(reason, fim_core::TripReason::TransactionBudget);
                    assert_eq!(progress.processed, k as u64);
                    assert_eq!(progress.total, Some(8));
                    assert_eq!(partial.canonicalized(), want, "prefix {k}");
                }
                other => panic!("expected interruption at k={k}, got {other:?}"),
            }
        }
    }

    #[test]
    fn cancelled_token_interrupts_before_first_transaction() {
        let db = paper_db();
        let token = fim_core::CancelToken::new();
        token.cancel();
        let budget = fim_core::Budget::unlimited().with_cancel(token);
        let (outcome, _) = governed(&IstaMiner::default(), &db, 1, &budget);
        match outcome {
            fim_core::MineOutcome::Interrupted {
                partial,
                reason,
                progress,
            } => {
                assert!(partial.is_empty());
                assert_eq!(reason, fim_core::TripReason::Cancelled);
                assert_eq!(progress.processed, 0);
            }
            other => panic!("expected interruption, got {other:?}"),
        }
    }

    #[test]
    fn node_budget_without_degradation_interrupts() {
        let db = paper_db();
        let budget = fim_core::Budget::unlimited().with_max_nodes(3);
        let (outcome, _) = governed(&IstaMiner::default(), &db, 1, &budget);
        match outcome {
            fim_core::MineOutcome::Interrupted { reason, .. } => {
                assert_eq!(reason, fim_core::TripReason::NodeBudget);
            }
            other => panic!("expected interruption, got {other:?}"),
        }
    }

    #[test]
    fn node_budget_with_degradation_completes_at_raised_threshold() {
        let db = paper_db();
        let budget = fim_core::Budget::unlimited()
            .with_max_nodes(6)
            .with_degradation();
        let (outcome, stats) = governed(&IstaMiner::default(), &db, 1, &budget);
        match outcome {
            fim_core::MineOutcome::Complete {
                result,
                degradation: Some(d),
            } => {
                assert_eq!(d.requested_minsupp, 1);
                assert!(d.effective_minsupp > 1, "threshold must have been raised");
                assert!(d.steps >= 1);
                // the degraded result is exactly the answer at the raised
                // threshold
                let want = mine_reference(&db, d.effective_minsupp);
                assert_eq!(result.canonicalized(), want);
                assert!(stats.memory.live_nodes - 1 <= 6 || d.effective_minsupp == u32::MAX);
            }
            other => panic!("expected degraded completion, got {other:?}"),
        }
    }

    #[test]
    fn byte_budget_trips() {
        let db = paper_db();
        let budget = fim_core::Budget::unlimited().with_max_bytes(64);
        let (outcome, _) = governed(&IstaMiner::default(), &db, 1, &budget);
        match outcome {
            fim_core::MineOutcome::Interrupted { reason, .. } => {
                assert_eq!(reason, fim_core::TripReason::ByteBudget);
            }
            other => panic!("expected interruption, got {other:?}"),
        }
    }

    #[test]
    fn known_set_at_minsupp_three() {
        let db = paper_db();
        let got = IstaMiner::default().mine(&db, 3).canonicalized();
        assert_eq!(got.support_of(&ItemSet::from([1, 2])), Some(4)); // {b,c}
        assert_eq!(got.support_of(&ItemSet::from([3, 4])), Some(3)); // {d,e}
    }
}
