//! Data-parallel IsTa: shard the database, mine each shard's prefix tree on
//! its own thread, and combine the shard trees with [`PrefixTree::merge`] in
//! a binary reduction.
//!
//! The decomposition rests on the additive support identity
//!
//! ```text
//! supp_{D₁ ∪ D₂}(S) = supp_{D₁}(S) + supp_{D₂}(S)
//! ```
//!
//! for a database split into disjoint transaction multisets: the closed sets
//! of the union are the closed sets of the parts plus their pairwise
//! intersections, and replaying one shard tree's (deduplicated, possibly
//! pruning-reduced) transactions into another via the ordinary cumulative
//! intersection update computes exactly those intersections with correct
//! summed supports.
//!
//! Shards are **contiguous** transaction ranges, so the §3.4
//! size-then-lexicographic processing order is preserved inside each shard.
//! Item-elimination pruning keeps working per shard: a shard starts from a
//! snapshot of the *global* item support counts and decrements only the
//! occurrences it has itself consumed — occurrences held by other shards are
//! still "remaining" because they arrive later through the merge, so the
//! viability bound `supp + remaining[i] ≥ minsupp` stays safe.

use crate::miner::{IstaConfig, IstaMiner, PrunePacer, PrunePolicy};
use crate::tree::{PrefixTree, TreeMemoryStats};
use fim_core::{
    checkpoint, Budget, CancelToken, ClosedMiner, Governor, ItemRows, MineOutcome, MiningResult,
    Progress, RecodedDatabase, Rows, TripReason,
};
use fim_obs::Counters;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Test-only fault injection for the shard threads.
///
/// Hidden from the public API surface: integration tests arm a one-shot
/// panic in a chosen shard to exercise the `catch_unwind` recovery path;
/// production code never touches this.
#[doc(hidden)]
pub mod test_hooks {
    use std::sync::atomic::{AtomicUsize, Ordering};

    static PANIC_SHARD: AtomicUsize = AtomicUsize::new(usize::MAX);

    /// Arms a one-shot panic: the next time shard `idx` starts mining it
    /// panics (once — the recovery re-mine of the same data is spared).
    pub fn arm_shard_panic(idx: usize) {
        PANIC_SHARD.store(idx, Ordering::SeqCst);
    }

    /// Disarms any pending injected panic.
    pub fn disarm() {
        PANIC_SHARD.store(usize::MAX, Ordering::SeqCst);
    }

    pub(crate) fn maybe_panic(idx: usize) {
        if PANIC_SHARD
            .compare_exchange(idx, usize::MAX, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            panic!("injected shard panic (test hook) in shard {idx}");
        }
    }
}

/// Stack size for shard threads. The `isect` traversal recurses to the
/// tree depth, which is bounded by the longest transaction and can reach
/// tens of thousands of frames on gene-expression-shaped data; the
/// reservation is virtual and only committed as used.
const SHARD_STACK_BYTES: usize = 256 << 20;

/// Tuning knobs for [`ParallelIstaMiner`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ParallelConfig {
    /// Number of shards/threads. `0` means "use the available parallelism
    /// of the machine"; `1` falls back to the sequential miner.
    pub threads: usize,
    /// Per-shard pruning placement policy (same semantics as the
    /// sequential miner's).
    pub policy: PrunePolicy,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        let seq = IstaConfig::default();
        ParallelConfig {
            threads: 0,
            policy: seq.policy,
        }
    }
}

impl ParallelConfig {
    /// Configuration with an explicit thread count and the default policy.
    pub fn with_threads(threads: usize) -> Self {
        ParallelConfig {
            threads,
            ..Default::default()
        }
    }

    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }
}

/// Run report of one [`ParallelIstaMiner`] mining run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ParallelMineStats {
    /// Shards the database was split into (1 for the sequential fallback).
    pub shards: usize,
    /// Shards whose thread panicked and whose data was re-mined
    /// sequentially by the panic-isolation path. `0` on a healthy run.
    pub shards_recovered: usize,
    /// Arena occupancy of the fully reduced tree, before reporting.
    pub memory: TreeMemoryStats,
    /// Hot-loop counters summed over every shard and every merge replay:
    /// each merge absorbs the donor tree's counters into the receiver, so
    /// the reduced tree accounts for all work done across threads.
    pub counters: Counters,
}

/// Data-parallel IsTa miner: contiguous shards on scoped threads, combined
/// by a binary merge reduction.
#[derive(Clone, Copy, Debug, Default)]
pub struct ParallelIstaMiner {
    /// Algorithm configuration.
    pub config: ParallelConfig,
}

impl ParallelIstaMiner {
    /// Creates a miner with an explicit configuration.
    pub fn with_config(config: ParallelConfig) -> Self {
        ParallelIstaMiner { config }
    }

    /// Creates a miner with `threads` shards and the default prune policy.
    pub fn with_threads(threads: usize) -> Self {
        ParallelIstaMiner {
            config: ParallelConfig::with_threads(threads),
        }
    }

    /// Like [`ClosedMiner::mine`], but also reports the shard count, the
    /// panic-recovery count, and the final tree occupancy.
    ///
    /// A shard thread that panics does not take the run down: the panic is
    /// caught at the reduction step ([`catch_unwind`]), the lost shard's
    /// transactions are re-mined sequentially once on the surviving
    /// thread, and the incident is surfaced as
    /// [`shards_recovered`](ParallelMineStats::shards_recovered) — the
    /// mined result is identical to an unpanicked run. A panic during the
    /// re-mine itself (a deterministic bug, not a fault) propagates.
    pub fn mine_with_stats(
        &self,
        db: &RecodedDatabase,
        minsupp: u32,
    ) -> (MiningResult, ParallelMineStats) {
        let (outcome, stats) = self.mine_governed_with_stats(db, minsupp, &Budget::unlimited());
        (outcome.into_result(), stats)
    }

    /// Governed parallel mining (see [`ClosedMiner::mine_governed`]).
    ///
    /// Every shard and every merge step runs under its own [`Governor`]
    /// sharing one internal [`CancelToken`]: the first shard to trip
    /// records the reason and cancels its siblings, so the whole reduction
    /// winds down at the next checkpoint instead of running to completion.
    /// Node/byte budgets bound each shard (and merge) tree individually,
    /// and the transaction budget is likewise per shard. The partial
    /// result is exact for the processed transaction subset. Graceful
    /// degradation (`Budget::degrade`) is a sequential-miner feature and
    /// is ignored here — a per-shard raised threshold would be unsound to
    /// merge.
    pub fn mine_governed_with_stats(
        &self,
        db: &RecodedDatabase,
        minsupp: u32,
        budget: &Budget,
    ) -> (MineOutcome, ParallelMineStats) {
        let minsupp = minsupp.max(1);
        let threads = self.config.effective_threads();
        let txs = db.transactions();
        if threads <= 1 || txs.len() <= 1 {
            let seq = IstaMiner::with_config(IstaConfig {
                policy: self.config.policy,
                rep: fim_core::Representation::Scalar,
            });
            let (outcome, stats) = seq.mine_governed_with_stats(db, minsupp, budget);
            let stats = ParallelMineStats {
                shards: 1,
                shards_recovered: 0,
                memory: stats.memory,
                counters: stats.counters,
            };
            return (outcome, stats);
        }
        let chunk = txs.len().div_ceil(threads);
        let nchunks = txs.len().div_ceil(chunk);
        let ctx = RunCtx {
            num_items: db.num_items(),
            global_supports: db.item_supports(),
            cfg: self.config,
            minsupp,
            chunk,
            recovered: AtomicUsize::new(0),
            gov: (!budget.is_unlimited()).then(|| GovShared {
                budget: budget.clone(),
                shared: CancelToken::new(),
                tripped: Mutex::new(None),
                processed: AtomicU64::new(0),
            }),
        };
        let reduced = mine_reduce(txs, nchunks, 0, &ctx, true);
        let stats = ParallelMineStats {
            shards: nchunks,
            shards_recovered: ctx.recovered.load(Ordering::SeqCst),
            memory: reduced.tree.memory_stats(),
            counters: *reduced.tree.counters(),
        };
        let result = MiningResult {
            sets: reduced.tree.report(minsupp),
        };
        let tripped = ctx.gov.as_ref().and_then(GovShared::take_trip);
        let outcome = match tripped {
            Some(reason) => MineOutcome::Interrupted {
                partial: result,
                reason,
                progress: Progress {
                    processed: ctx
                        .gov
                        .as_ref()
                        .map_or(0, |g| g.processed.load(Ordering::SeqCst)),
                    total: Some(txs.len() as u64),
                },
            },
            None => MineOutcome::complete(result),
        };
        (outcome, stats)
    }
}

/// Everything a shard or merge step needs, shared across the reduction.
struct RunCtx<'a> {
    num_items: u32,
    global_supports: &'a [u32],
    cfg: ParallelConfig,
    minsupp: u32,
    /// Transactions per shard (the last shard may be shorter).
    chunk: usize,
    /// Shards recovered after a thread panic.
    recovered: AtomicUsize,
    /// Governance state; `None` on an unlimited budget (zero off-path
    /// cost: shards then carry no governor at all).
    gov: Option<GovShared>,
}

/// Shared governance state of one governed parallel run.
struct GovShared {
    budget: Budget,
    /// Internal secondary token: the first tripped shard cancels it so
    /// sibling shards and pending merges stop at their next checkpoint.
    shared: CancelToken,
    /// First tripped reason (later `Cancelled` trips of the siblings do
    /// not overwrite it).
    tripped: Mutex<Option<TripReason>>,
    /// Total (weighted) transactions consumed by shard mining.
    processed: AtomicU64,
}

impl GovShared {
    fn governor(&self) -> Governor {
        self.budget.start_with_secondary(Some(self.shared.clone()))
    }

    fn note_trip(&self, reason: TripReason) {
        let mut t = self.tripped.lock().unwrap_or_else(|e| e.into_inner());
        if t.is_none() {
            *t = Some(reason);
        }
        drop(t);
        self.shared.cancel();
    }

    fn take_trip(&self) -> Option<TripReason> {
        *self.tripped.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Mines one contiguous shard `txs` of the database into its own tree.
///
/// `global_supports` is the item-support snapshot over the *whole* database;
/// only this shard's own consumption is subtracted while it runs (see the
/// module docs for why that is the correct "remaining" bound).
///
/// Items that are globally hopeless (`global_supports[i] < minsupp`) are
/// filtered out of every transaction before insertion — no viable set can
/// contain them, and dropping them up front lets the per-shard pruning use
/// [`PrefixTree::prune_keeping_terminals`], which never reduces a stored
/// transaction and so keeps the merge replay exact for viable sets (the
/// plain per-node prune may eliminate locally hopeless but globally viable
/// items from a transaction, under-counting subsets after the merge).
fn mine_shard(txs: Rows<'_>, ctx: &RunCtx) -> ShardTree {
    let RunCtx {
        num_items,
        global_supports,
        cfg,
        minsupp,
        ..
    } = *ctx;
    let mut gov = ctx.gov.as_ref().map(GovShared::governor);
    let mut tree = PrefixTree::new(num_items);
    let mut remaining: Vec<u32> = global_supports.to_vec();
    let mut pacer = PrunePacer::new(cfg.policy);
    // Filter globally hopeless items out of every transaction. Their
    // remaining counts can be settled immediately: no tree node ever
    // carries a hopeless item, so pruning never consults those entries.
    let mut filtered = ItemRows::with_capacity(txs.len(), txs.total_items());
    for t in txs {
        filtered.push_set(t.iter().copied().filter(|&i| {
            let viable = global_supports[i as usize] >= minsupp;
            if !viable {
                remaining[i as usize] -= 1;
            }
            viable
        }));
    }
    let weighted = fim_core::coalesce(filtered.view());
    for (t, w) in &weighted {
        for &i in t.iter() {
            remaining[i as usize] -= w;
        }
        tree.add_transaction_weighted(t, *w);
        if let Some(g) = gov.as_mut() {
            g.add_processed(u64::from(*w));
        }
        if let Some(reason) =
            checkpoint!(gov, tree.node_count(), tree.memory_stats().approx_bytes, 0)
        {
            // stop inserting; the tree stays merge-safe (terminal-keeping
            // pruning only) and represents exactly the inserted prefix.
            // `remaining` still carries the unconsumed occurrences, which
            // can only make later pruning more conservative — sound.
            if let Some(gs) = ctx.gov.as_ref() {
                gs.note_trip(reason);
            }
            break;
        }
        if pacer.due(tree.node_count()) {
            tree.prune_keeping_terminals(&remaining, minsupp);
            pacer.pruned(tree.node_count());
            tree.compact_if_fragmented();
        }
    }
    if let (Some(gs), Some(g)) = (ctx.gov.as_ref(), gov.as_ref()) {
        gs.processed.fetch_add(g.processed(), Ordering::SeqCst);
    }
    ShardTree { tree, remaining }
}

/// A mined shard (or partially reduced group of shards): its prefix tree
/// plus the item occurrences *not yet folded into it* — the global
/// support snapshot minus everything the covered transactions consumed.
struct ShardTree {
    tree: PrefixTree,
    remaining: Vec<u32>,
}

/// Folds `right` into `left`, pruning mid-replay so the combined tree does
/// not balloon past what the per-shard pruning kept bounded. The remaining
/// counts are decremented transaction by transaction during the replay —
/// decrementing them all up front would over-prune nodes whose support has
/// not yet absorbed the still-unreplayed occurrences.
///
/// `is_final` marks the root of the reduction: its result is only reported,
/// never merged again, so the replay may use the plain (terminal-reducing)
/// prune, which shrinks the tree harder than the terminal-keeping variant
/// every intermediate level must use.
fn merge_pruned(left: &mut ShardTree, mut right: ShardTree, ctx: &RunCtx, is_final: bool) {
    let RunCtx { cfg, minsupp, .. } = *ctx;
    let mut gov = ctx.gov.as_ref().map(GovShared::governor);
    // replay the lighter side into the heavier one: replay cost is one
    // isect pass per distinct stored transaction of the source
    if right.tree.transactions_processed() > left.tree.transactions_processed() {
        std::mem::swap(left, &mut right);
    }
    let ShardTree { tree, remaining } = left;
    let mut pacer = PrunePacer::new(cfg.policy);
    // prune before replaying anything: shard trees are pruned against
    // near-global remaining counts (weak), while here `remaining` already
    // excludes everything this side consumed — the final merge in
    // particular can use the plain (terminal-reducing) prune and slash the
    // tree before the expensive replay passes begin
    if !matches!(cfg.policy, PrunePolicy::Never) {
        if is_final {
            tree.prune(remaining, minsupp);
        } else {
            tree.prune_keeping_terminals(remaining, minsupp);
        }
        tree.compact_if_fragmented();
    }
    pacer.pruned(tree.node_count());
    let replay: Result<(), TripReason> = tree.try_merge_with(&right.tree, |tree, t, w| {
        for &i in t {
            remaining[i as usize] -= w;
        }
        if pacer.due(tree.node_count()) {
            if is_final {
                tree.prune(remaining, minsupp);
            } else {
                tree.prune_keeping_terminals(remaining, minsupp);
            }
            pacer.pruned(tree.node_count());
            tree.compact_if_fragmented();
        }
        match checkpoint!(gov, tree.node_count(), tree.memory_stats().approx_bytes, 0) {
            Some(reason) => Err(reason),
            None => Ok(()),
        }
    });
    if let Err(reason) = replay {
        // the merged tree holds the replayed prefix exactly; the rest of
        // `right` is dropped and the reduction winds down via the token
        if let Some(gs) = ctx.gov.as_ref() {
            gs.note_trip(reason);
        }
    }
    // the replay itself counted in `tree`; carrying over the donor's own
    // mining history makes the reduced tree's counters the total work of
    // every shard and merge level
    tree.absorb_counters(right.tree.counters());
}

/// Mines the shards of `chunks` and reduces them to a single tree.
///
/// Recursive binary split: the right half runs on a freshly spawned scoped
/// thread while the left half runs on the current one, so the reduction
/// forms a balanced binary tree whose merges at different levels proceed
/// concurrently as their inputs finish — no global barrier between the
/// mining and merging phases.
fn mine_reduce(
    txs: Rows<'_>,
    nchunks: usize,
    shard_base: usize,
    ctx: &RunCtx,
    is_final: bool,
) -> ShardTree {
    match nchunks {
        0 => ShardTree {
            tree: PrefixTree::new(ctx.num_items),
            remaining: ctx.global_supports.to_vec(),
        },
        1 => {
            test_hooks::maybe_panic(shard_base);
            mine_shard(txs, ctx)
        }
        n => {
            let mid = n / 2;
            let tx_mid = (mid * ctx.chunk).min(txs.len());
            let (left, right) = std::thread::scope(|s| {
                let right = std::thread::Builder::new()
                    .name("ista-shard".into())
                    .stack_size(SHARD_STACK_BYTES)
                    .spawn_scoped(s, || {
                        catch_unwind(AssertUnwindSafe(|| {
                            let right = txs.slice(tx_mid..txs.len());
                            mine_reduce(right, n - mid, shard_base + mid, ctx, false)
                        }))
                    })
                    .expect("failed to spawn shard thread");
                let left = catch_unwind(AssertUnwindSafe(|| {
                    mine_reduce(txs.slice(0..tx_mid), mid, shard_base, ctx, false)
                }));
                // a panic that escaped the catch (impossible in practice)
                // still surfaces as Err through join
                (left, right.join().unwrap_or_else(Err))
            });
            // Panic isolation: a poisoned half is re-mined sequentially
            // once, as one flat shard over the same contiguous range — the
            // result is identical because shard boundaries only affect
            // scheduling, not the mined sets (additive-support merge).
            let mut left = left.unwrap_or_else(|_| recover_range(txs, 0, tx_mid, mid, ctx));
            let right =
                right.unwrap_or_else(|_| recover_range(txs, tx_mid, txs.len(), n - mid, ctx));
            merge_pruned(&mut left, right, ctx, is_final);
            left
        }
    }
}

/// Re-mines the transaction range `[lo, hi)` (covering `nshards` lost
/// shards) sequentially after its thread panicked. Runs on the surviving
/// thread with no further catch: a second panic over the same data is a
/// deterministic bug and must propagate.
fn recover_range(txs: Rows<'_>, lo: usize, hi: usize, nshards: usize, ctx: &RunCtx) -> ShardTree {
    ctx.recovered.fetch_add(nshards, Ordering::SeqCst);
    mine_shard(txs.slice(lo..hi), ctx)
}

impl ClosedMiner for ParallelIstaMiner {
    fn name(&self) -> &'static str {
        "ista-par"
    }

    fn mine(&self, db: &RecodedDatabase, minsupp: u32) -> MiningResult {
        self.mine_with_stats(db, minsupp).0
    }

    fn mine_governed(&self, db: &RecodedDatabase, minsupp: u32, budget: &Budget) -> MineOutcome {
        self.mine_governed_with_stats(db, minsupp, budget).0
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
    fn matches_reference_across_thread_counts() {
        let db = paper_db();
        for threads in [1, 2, 3, 4, 7, 16] {
            for minsupp in 1..=8 {
                let want = mine_reference(&db, minsupp);
                let got = ParallelIstaMiner::with_threads(threads)
                    .mine(&db, minsupp)
                    .canonicalized();
                assert_eq!(got, want, "threads={threads} minsupp={minsupp}");
            }
        }
    }

    #[test]
    fn more_threads_than_transactions() {
        let db = RecodedDatabase::from_dense(vec![vec![0, 1], vec![1, 2]], 3);
        let want = mine_reference(&db, 1);
        let got = ParallelIstaMiner::with_threads(64)
            .mine(&db, 1)
            .canonicalized();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_database() {
        let db = RecodedDatabase::from_dense(vec![], 0);
        assert!(ParallelIstaMiner::with_threads(4).mine(&db, 1).is_empty());
    }

    #[test]
    fn single_transaction() {
        let db = RecodedDatabase::from_dense(vec![vec![0, 2, 4]], 5);
        let want = mine_reference(&db, 1);
        let got = ParallelIstaMiner::with_threads(4)
            .mine(&db, 1)
            .canonicalized();
        assert_eq!(got, want);
    }

    #[test]
    fn pruning_policies_agree_with_reference() {
        let db = paper_db();
        let policies = [
            PrunePolicy::Never,
            PrunePolicy::EveryN(1),
            PrunePolicy::EveryN(2),
            PrunePolicy::Growth(1.1),
        ];
        for policy in policies {
            for threads in [2, 3] {
                for minsupp in 1..=8 {
                    let want = mine_reference(&db, minsupp);
                    let got = ParallelIstaMiner::with_config(ParallelConfig { threads, policy })
                        .mine(&db, minsupp)
                        .canonicalized();
                    assert_eq!(
                        got, want,
                        "policy={policy:?} threads={threads} ms={minsupp}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_threads_uses_available_parallelism() {
        let db = paper_db();
        let want = mine_reference(&db, 2);
        let got = ParallelIstaMiner::default().mine(&db, 2).canonicalized();
        assert_eq!(got, want);
    }

    #[test]
    fn miner_name() {
        assert_eq!(ParallelIstaMiner::default().name(), "ista-par");
    }

    #[test]
    fn healthy_run_reports_zero_recoveries() {
        let db = paper_db();
        let (result, stats) = ParallelIstaMiner::with_threads(3).mine_with_stats(&db, 2);
        assert_eq!(result.canonicalized(), mine_reference(&db, 2));
        assert_eq!(stats.shards, 3);
        assert_eq!(stats.shards_recovered, 0);
        assert!(stats.memory.live_nodes >= 1);
    }

    // Injected-panic recovery is exercised in tests/fault_injection.rs —
    // its process-global hook must not race the other parallel tests here.

    #[test]
    fn governed_unlimited_is_complete() {
        let db = paper_db();
        let (outcome, _) = ParallelIstaMiner::with_threads(3).mine_governed_with_stats(
            &db,
            2,
            &Budget::unlimited(),
        );
        assert!(!outcome.is_interrupted());
        assert_eq!(
            outcome.into_result().canonicalized(),
            mine_reference(&db, 2)
        );
    }

    #[test]
    fn cancelled_token_stops_all_shards() {
        let db = paper_db();
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited().with_cancel(token);
        let (outcome, _) =
            ParallelIstaMiner::with_threads(3).mine_governed_with_stats(&db, 1, &budget);
        match outcome {
            MineOutcome::Interrupted { reason, .. } => {
                assert_eq!(reason, TripReason::Cancelled);
            }
            other => panic!("expected interruption, got {other:?}"),
        }
    }

    #[test]
    fn node_budget_interrupts_with_sound_partial() {
        let db = paper_db();
        let budget = Budget::unlimited().with_max_nodes(2);
        let (outcome, _) =
            ParallelIstaMiner::with_threads(3).mine_governed_with_stats(&db, 1, &budget);
        match outcome {
            MineOutcome::Interrupted {
                partial, reason, ..
            } => {
                assert_eq!(reason, TripReason::NodeBudget);
                // every reported support is exact for a transaction subset:
                // it can never exceed the support over the full database
                for fs in &partial.sets {
                    assert!(
                        fs.support <= db.support(&fs.items),
                        "partial support of {:?} exceeds the full-database support",
                        fs.items
                    );
                }
            }
            other => panic!("expected interruption, got {other:?}"),
        }
    }

    #[test]
    fn governed_sequential_fallback_still_governs() {
        let db = paper_db();
        let budget = Budget::unlimited().with_max_transactions(2);
        let (outcome, stats) =
            ParallelIstaMiner::with_threads(1).mine_governed_with_stats(&db, 1, &budget);
        assert_eq!(stats.shards, 1);
        assert!(outcome.is_interrupted());
    }
}
