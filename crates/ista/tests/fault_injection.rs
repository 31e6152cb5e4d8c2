//! Fault injection for the parallel miner's panic-isolation path.
//!
//! `fim_ista::parallel::test_hooks` arms a process-global one-shot panic
//! in a chosen shard; the reduction must catch it (`catch_unwind`), re-mine
//! the lost shard's transactions sequentially, report the incident through
//! `ParallelMineStats::shards_recovered`, and still produce output
//! identical to the sequential miner. Because the hook is process-global,
//! every test in this binary serializes on one mutex — no other test
//! binary mines in this process, so the hook cannot leak across suites.

use fim_core::reference::mine_reference;
use fim_core::{Budget, ClosedMiner, MineRequest, MiningResult, RecodedDatabase};
use fim_ista::parallel::test_hooks;
use fim_ista::{IstaMiner, ParallelIstaMiner, ParallelMineStats};
use std::sync::Mutex;

static HOOK: Mutex<()> = Mutex::new(());

/// Mines `db` at `minsupp` over `threads` shards, unlimited.
fn sharded(
    threads: usize,
    db: &RecodedDatabase,
    minsupp: u32,
) -> (MiningResult, ParallelMineStats) {
    let miner = ParallelIstaMiner::with_threads(threads);
    let (outcome, stats) = miner.mine_stats(db, &MineRequest::new(minsupp));
    (outcome.into_result(), stats)
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

/// A wider database so 4-shard runs have non-trivial shards.
fn wide_db() -> RecodedDatabase {
    let mut txs: Vec<Vec<u32>> = Vec::new();
    for k in 0..20u32 {
        txs.push(vec![k % 7, (k + 2) % 7, (k * 3) % 7]);
        txs.push((0..7).filter(|i| (k + i) % 3 != 0).collect());
    }
    RecodedDatabase::from_dense(
        txs.into_iter()
            .map(|mut t| {
                t.sort_unstable();
                t.dedup();
                t
            })
            .collect(),
        7,
    )
}

#[test]
fn every_shard_panic_recovers_to_exact_sequential_result() {
    let _guard = HOOK.lock().unwrap_or_else(|e| e.into_inner());
    let db = paper_db();
    for shard in 0..3 {
        for minsupp in 1..=4 {
            test_hooks::arm_shard_panic(shard);
            let (result, stats) = sharded(3, &db, minsupp);
            test_hooks::disarm();
            let want = IstaMiner::default().mine(&db, minsupp).canonicalized();
            assert_eq!(want, mine_reference(&db, minsupp));
            assert_eq!(
                result.canonicalized(),
                want,
                "shard={shard} minsupp={minsupp}"
            );
            assert!(
                stats.shards_recovered >= 1,
                "shard={shard}: panic must be recovered, not lost"
            );
        }
    }
}

#[test]
fn recovery_on_wider_database_and_more_shards() {
    let _guard = HOOK.lock().unwrap_or_else(|e| e.into_inner());
    let db = wide_db();
    for shard in 0..4 {
        test_hooks::arm_shard_panic(shard);
        let (result, stats) = sharded(4, &db, 3);
        test_hooks::disarm();
        assert_eq!(
            result.canonicalized(),
            mine_reference(&db, 3),
            "shard={shard}"
        );
        assert!(stats.shards_recovered >= 1, "shard={shard}");
    }
}

#[test]
fn recovery_composes_with_a_governed_run() {
    let _guard = HOOK.lock().unwrap_or_else(|e| e.into_inner());
    let db = wide_db();
    test_hooks::arm_shard_panic(1);
    let budget = Budget::unlimited().with_max_closed_sets(1_000_000);
    let req = MineRequest {
        minsupp: 3,
        budget: &budget,
        constraints: None,
    };
    let (outcome, stats) = ParallelIstaMiner::with_threads(4).mine_stats(&db, &req);
    test_hooks::disarm();
    assert!(!outcome.is_interrupted(), "generous budget must not trip");
    assert_eq!(
        outcome.into_result().canonicalized(),
        mine_reference(&db, 3)
    );
    assert!(stats.shards_recovered >= 1);
}

#[test]
fn unarmed_runs_do_not_recover_anything() {
    let _guard = HOOK.lock().unwrap_or_else(|e| e.into_inner());
    test_hooks::disarm();
    let db = paper_db();
    let (result, stats) = sharded(3, &db, 2);
    assert_eq!(result.canonicalized(), mine_reference(&db, 2));
    assert_eq!(stats.shards_recovered, 0);
}
