//! The [`IstaMiner`]: driving the prefix tree over a recoded database.

use crate::plain::PlainPrefixTree;
use crate::tree::{PrefixTree, TreeMemoryStats};
use fim_core::{
    apply_constraints_owned, checkpoint, prepare, Budget, ClosedMiner, ConstraintSet, Degradation,
    FoundSet, Governor, Item, MineOutcome, MiningResult, Progress, RecodedDatabase, Representation,
    TripReason,
};
use fim_obs::{Counter, Counters, Obs, ProgressSnapshot};

/// The tree operations the mining loop needs, implemented by both the
/// Patricia [`PrefixTree`] (default) and the uncompressed
/// [`PlainPrefixTree`] (`ista-plain`, CLI `--no-patricia`) so one loop
/// serves both layouts without dynamic dispatch.
trait MiningTree {
    fn create(num_items: u32) -> Self;
    fn set_bitset(&mut self, on: bool);
    fn add_transaction_weighted(&mut self, t: &[Item], weight: u32);
    fn node_count(&self) -> usize;
    fn memory_stats(&self) -> TreeMemoryStats;
    fn prune(&mut self, remaining: &[u32], minsupp: u32);
    fn compact_if_fragmented(&mut self) -> bool;
    fn report(&self, minsupp: u32) -> Vec<FoundSet>;
    fn counters(&self) -> Counters;
}

macro_rules! impl_mining_tree {
    ($ty:ty) => {
        impl MiningTree for $ty {
            fn create(num_items: u32) -> Self {
                <$ty>::new(num_items)
            }
            fn set_bitset(&mut self, on: bool) {
                <$ty>::set_bitset(self, on)
            }
            fn add_transaction_weighted(&mut self, t: &[Item], weight: u32) {
                <$ty>::add_transaction_weighted(self, t, weight)
            }
            fn node_count(&self) -> usize {
                <$ty>::node_count(self)
            }
            fn memory_stats(&self) -> TreeMemoryStats {
                <$ty>::memory_stats(self)
            }
            fn prune(&mut self, remaining: &[u32], minsupp: u32) {
                <$ty>::prune(self, remaining, minsupp)
            }
            fn compact_if_fragmented(&mut self) -> bool {
                <$ty>::compact_if_fragmented(self)
            }
            fn report(&self, minsupp: u32) -> Vec<FoundSet> {
                <$ty>::report(self, minsupp)
            }
            fn counters(&self) -> Counters {
                *<$ty>::counters(self)
            }
        }
    };
}

impl_mining_tree!(PrefixTree);
impl_mining_tree!(PlainPrefixTree);

/// Opens a span when an observability bundle is attached; a `None` bundle
/// costs one branch (same discipline as [`checkpoint!`]).
#[inline]
fn span_enter(obs: &mut Option<&mut Obs>, name: &'static str) {
    if let Some(o) = obs.as_deref_mut() {
        o.span_enter(name);
    }
}

/// Closes the current span when an observability bundle is attached.
#[inline]
fn span_exit(obs: &mut Option<&mut Obs>) {
    if let Some(o) = obs.as_deref_mut() {
        o.span_exit();
    }
}

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
    /// Use the path-compressed Patricia tree (paper §3.3); when `false`
    /// the miner runs on the uncompressed one-item-per-node
    /// [`PlainPrefixTree`] layout instead (ablation baseline, registered
    /// as `ista-plain`). Output-invariant.
    pub patricia: bool,
    /// Segment-scan kernel selection. [`Representation::Bitset`] switches
    /// the Patricia `isect` walk to packed-word membership probes (plus a
    /// whole-run word-AND for contiguous segments). `Gallop` has no IsTa
    /// kernel, and the plain layout has no bitset kernel: both run the
    /// scalar epoch probe, and the CLI stores `Scalar` for them so its
    /// metrics name the kernel that runs. Output-invariant (proptested
    /// against the scalar path).
    pub rep: Representation,
}

impl Default for IstaConfig {
    fn default() -> Self {
        IstaConfig {
            policy: PrunePolicy::Growth(2.0),
            patricia: true,
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

    /// Configuration mining on the uncompressed one-item-per-node tree
    /// instead of the Patricia layout (for A/B comparison).
    pub fn without_patricia() -> Self {
        IstaConfig {
            patricia: false,
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
/// by [`IstaMiner::mine_with_stats`] (surfaced by the CLI `--stats` flag
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

    /// Like [`ClosedMiner::mine`], but also reports run counters and the
    /// final tree memory occupancy.
    pub fn mine_with_stats(&self, db: &RecodedDatabase, minsupp: u32) -> (MiningResult, MineStats) {
        let (outcome, stats) = self.run(db, minsupp, None, false, None);
        (outcome.into_result(), stats)
    }

    /// Like [`mine_with_stats`](Self::mine_with_stats) with an
    /// observability bundle attached: phase spans and heartbeat progress
    /// land in `obs`, counters in the returned [`MineStats`]. Observation
    /// never changes the mined output (proptested).
    pub fn mine_with_obs(
        &self,
        db: &RecodedDatabase,
        minsupp: u32,
        obs: &mut Obs,
    ) -> (MiningResult, MineStats) {
        let (outcome, stats) = self.run(db, minsupp, None, false, Some(obs));
        (outcome.into_result(), stats)
    }

    /// Governed mining with run counters: like
    /// [`ClosedMiner::mine_governed`] with the [`MineStats`] of
    /// [`mine_with_stats`](Self::mine_with_stats) alongside. On a trip the
    /// stats describe the tree at the trip point.
    pub fn mine_governed_with_stats(
        &self,
        db: &RecodedDatabase,
        minsupp: u32,
        budget: &Budget,
    ) -> (MineOutcome, MineStats) {
        self.run(db, minsupp, Some(budget.start()), budget.degrade, None)
    }

    /// Like [`ClosedMiner::mine_constrained`], also returning the
    /// [`MineStats`] of the run.
    ///
    /// IsTa's constraint push is the **support-floor raise**: a min-area
    /// constraint implies a support lower bound
    /// ([`ConstraintSet::support_floor`]), and mining at that raised
    /// threshold lets every item-elimination pruning pass cut tree paths
    /// that could only complete into sub-floor (hence unsatisfying) sets.
    /// Size and include predicates, by contrast, must **not** prune tree
    /// nodes mid-run — a too-small or include-missing path still feeds the
    /// cumulative intersections of later transactions — so they gate only
    /// the final report (`constraint_prunes` counts the sets they drop).
    pub fn mine_constrained_with_stats(
        &self,
        db: &RecodedDatabase,
        minsupp: u32,
        constraints: &ConstraintSet,
    ) -> (MiningResult, MineStats) {
        let eff = constraints.support_floor(db.num_items(), minsupp.max(1));
        if eff == u32::MAX {
            return (MiningResult::new(), MineStats::default());
        }
        let (result, mut stats) = self.mine_with_stats(db, eff);
        let before = result.sets.len();
        let result = apply_constraints_owned(result, constraints);
        stats.counters.add(
            Counter::ConstraintPrunes,
            (before - result.sets.len()) as u64,
        );
        (result, stats)
    }

    /// The one mining loop behind both entry points. `gov` is `None` for
    /// ungoverned runs, whose per-transaction checkpoint is then a single
    /// pattern match (see [`checkpoint!`]).
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
        gov: Option<Governor>,
        degrade: bool,
        obs: Option<&mut Obs>,
    ) -> (MineOutcome, MineStats) {
        if self.config.patricia {
            self.run_impl::<PrefixTree>(db, minsupp, gov, degrade, obs)
        } else {
            self.run_impl::<PlainPrefixTree>(db, minsupp, gov, degrade, obs)
        }
    }

    /// The mining loop itself, monomorphized per tree layout.
    fn run_impl<T: MiningTree>(
        &self,
        db: &RecodedDatabase,
        minsupp: u32,
        mut gov: Option<Governor>,
        degrade: bool,
        mut obs: Option<&mut Obs>,
    ) -> (MineOutcome, MineStats) {
        let requested = minsupp.max(1);
        let mut minsupp_eff = requested;
        let mut degradation: Option<Degradation> = None;
        span_enter(&mut obs, "coalesce");
        let txs = prepare::coalesce(db.transactions());
        span_exit(&mut obs);
        let mut stats = MineStats {
            total_transactions: db.transactions().len(),
            distinct_transactions: txs.len(),
            ..MineStats::default()
        };
        let total_weight = db.transactions().len() as u64;
        let mut tree = T::create(db.num_items());
        tree.set_bitset(self.config.rep == Representation::Bitset);
        let mut remaining: Vec<u32> = db.item_supports().to_vec();
        let mut pacer = PrunePacer::new(self.config.policy);
        if let Some(reason) = checkpoint!(gov, 0, 0, 0) {
            // already expired/cancelled before the first transaction
            stats.memory = tree.memory_stats();
            stats.counters = tree.counters();
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
        span_enter(&mut obs, "transactions");
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
            if let Some(o) = obs.as_deref_mut() {
                o.tick(&ProgressSnapshot {
                    processed,
                    total: Some(total_weight),
                    pending: 0,
                    peak_nodes: stats.peak_nodes as u64,
                    sets: tree.node_count() as u64,
                });
            }
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
                    span_exit(&mut obs); // transactions
                    stats.memory = tree.memory_stats();
                    stats.counters = tree.counters();
                    span_enter(&mut obs, "report");
                    let partial = MiningResult {
                        sets: tree.report(minsupp_eff),
                    };
                    span_exit(&mut obs);
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
                span_enter(&mut obs, "prune");
                tree.prune(&remaining, minsupp_eff);
                span_exit(&mut obs);
                pacer.pruned(tree.node_count());
                stats.prune_passes += 1;
                span_enter(&mut obs, "compact");
                if tree.compact_if_fragmented() {
                    stats.compactions += 1;
                }
                span_exit(&mut obs);
            }
        }
        span_exit(&mut obs); // transactions

        // one last compaction before reporting: `report` walks the whole
        // tree in DFS order, which is exactly the order compact lays out
        span_enter(&mut obs, "compact");
        if tree.compact_if_fragmented() {
            stats.compactions += 1;
        }
        span_exit(&mut obs);
        stats.memory = tree.memory_stats();
        stats.counters = tree.counters();
        span_enter(&mut obs, "report");
        let result = MiningResult {
            sets: tree.report(minsupp_eff),
        };
        span_exit(&mut obs);
        if let Some(o) = obs {
            o.finish(&ProgressSnapshot {
                processed,
                total: Some(total_weight),
                pending: 0,
                peak_nodes: stats.peak_nodes as u64,
                sets: result.sets.len() as u64,
            });
        }
        let outcome = MineOutcome::Complete {
            result,
            degradation,
        };
        (outcome, stats)
    }
}

impl ClosedMiner for IstaMiner {
    fn name(&self) -> &'static str {
        if !self.config.patricia {
            "ista-plain"
        } else if self.config.rep == Representation::Bitset {
            "ista-bitset"
        } else {
            "ista"
        }
    }

    fn mine(&self, db: &RecodedDatabase, minsupp: u32) -> MiningResult {
        self.mine_with_stats(db, minsupp).0
    }

    fn mine_governed(&self, db: &RecodedDatabase, minsupp: u32, budget: &Budget) -> MineOutcome {
        self.mine_governed_with_stats(db, minsupp, budget).0
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

    fn mine_constrained_governed(
        &self,
        db: &RecodedDatabase,
        minsupp: u32,
        constraints: &ConstraintSet,
        budget: &Budget,
    ) -> MineOutcome {
        let eff = constraints.support_floor(db.num_items(), minsupp.max(1));
        if eff == u32::MAX {
            return MineOutcome::complete(MiningResult::new());
        }
        // governed at the raised floor; an interrupted partial is the exact
        // constrained answer of the processed prefix (the same prefix
        // contract as the unconstrained governed run, filtered)
        self.mine_governed(db, eff, budget)
            .map_result(|r| apply_constraints_owned(r, constraints))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fim_core::reference::mine_reference;
    use fim_core::ItemSet;

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
                for patricia in [false, true] {
                    for rep in [Representation::Scalar, Representation::Bitset] {
                        let got = IstaMiner::with_config(IstaConfig {
                            policy,
                            patricia,
                            rep,
                        })
                        .mine(&db, minsupp)
                        .canonicalized();
                        assert_eq!(
                            got, want,
                            "policy={policy:?} patricia={patricia} rep={rep} minsupp={minsupp}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn coalescing_is_output_invariant_on_duplicated_rows() {
        let db = duplicated_db();
        for minsupp in 1..=6 {
            let want = mine_reference(&db, minsupp);
            for config in [IstaConfig::default(), IstaConfig::without_patricia()] {
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
            patricia: true,
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
            IstaMiner::with_config(IstaConfig::without_patricia()).name(),
            "ista-plain"
        );
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
        // wide transactions build long unary chains: the uncompressed
        // layout pays one node per item, the Patricia layout one node per
        // branch — same output, far fewer (peak) nodes
        let db = RecodedDatabase::from_dense(
            vec![
                (0..50).collect(),
                (10..60).collect(),
                (20..70).collect(),
                (0..30).chain(50..70).collect(),
            ],
            70,
        );
        let (pat_result, pat) = IstaMiner::default().mine_with_stats(&db, 1);
        let (plain_result, plain) =
            IstaMiner::with_config(IstaConfig::without_patricia()).mine_with_stats(&db, 1);
        assert_eq!(
            pat_result.canonicalized(),
            plain_result.canonicalized(),
            "layouts must agree exactly"
        );
        assert!(
            pat.peak_nodes * 2 <= plain.peak_nodes,
            "expected ≥2× peak-node reduction, got {} vs {}",
            pat.peak_nodes,
            plain.peak_nodes
        );
        // conceptual node counts agree; the plain layout reports no
        // segment bytes
        assert_eq!(pat.memory.seg_items, plain.memory.seg_items);
        assert_eq!(plain.memory.seg_bytes, 0);
        assert!(pat.memory.seg_bytes > 0);
    }

    #[test]
    fn governed_unlimited_budget_is_complete_and_identical() {
        let db = paper_db();
        for minsupp in 1..=4 {
            let want = IstaMiner::default().mine(&db, minsupp).canonicalized();
            let outcome =
                IstaMiner::default().mine_governed(&db, minsupp, &fim_core::Budget::unlimited());
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
            let (outcome, _) = miner.mine_governed_with_stats(&db, 2, &budget);
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
        let (outcome, _) = IstaMiner::default().mine_governed_with_stats(&db, 1, &budget);
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
        let (outcome, _) = IstaMiner::default().mine_governed_with_stats(&db, 1, &budget);
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
        let (outcome, stats) = IstaMiner::default().mine_governed_with_stats(&db, 1, &budget);
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
        let (outcome, _) = IstaMiner::default().mine_governed_with_stats(&db, 1, &budget);
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
