//! Fault injection and corruption handling for the out-of-core pipeline.
//!
//! The pipeline's scope guard must leave the spill directory clean on
//! *every* exit — a panic in the middle of the pipeline (injected through
//! the [`fim_core::fault`] registry's spill and merge points), a budget
//! trip, or a normal return — and every reload of a spill snapshot must
//! detect arbitrary single-byte corruption or truncation as
//! [`FimError::Corrupt`] naming the offending file. The fault registry is
//! process-global, so every test that reaches a fault point (`spill_tree`,
//! `load_spill`, `mine_stream`) holds one mutex: an armed fault must not
//! fire in another test's run.

use fim_core::fault;
use fim_core::reference::mine_reference;
use fim_core::{Budget, FimError, MineOutcome, RecodedDatabase, TripReason};
use fim_ista::{
    load_spill, spill_tree, OutOfCoreConfig, OutOfCoreMiner, OutOfCoreStats, PrefixTree,
};
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

static HOOK: Mutex<()> = Mutex::new(());

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

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("fim-oocore-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

fn dir_is_empty(dir: &Path) -> bool {
    fs::read_dir(dir).map_or(true, |d| d.count() == 0)
}

/// Runs the pipeline over the database's transactions with the given byte
/// budget (1 forces one-transaction shards on the paper database).
fn mine_db(
    db: &RecodedDatabase,
    minsupp: u32,
    mem_budget: u64,
    dir: &Path,
    budget: &Budget,
) -> (MineOutcome, OutOfCoreStats) {
    let miner = OutOfCoreMiner::with_config(OutOfCoreConfig::new(mem_budget, dir));
    let txs = db.transactions();
    let mut i = 0usize;
    miner
        .mine_stream(
            db.num_items(),
            db.item_supports(),
            Some(txs.len() as u64),
            minsupp,
            budget,
            move |buf| {
                buf.clear();
                if i < txs.len() {
                    buf.extend_from_slice(&txs[i]);
                    i += 1;
                    Ok(true)
                } else {
                    Ok(false)
                }
            },
        )
        .expect("pipeline")
}

#[test]
fn shard_panic_leaves_the_spill_dir_clean_at_every_depth() {
    let _guard = HOOK.lock().unwrap_or_else(|e| e.into_inner());
    let db = paper_db();
    // one-transaction shards spill all 8 before the merge reads any: the
    // first spill write panics with it in flight and none complete, the
    // third with two spills on disk, the first merge read with all 8
    for (k, spec) in [
        "spill.write:1:panic",
        "spill.write:3:panic",
        "merge.read:1:panic",
    ]
    .into_iter()
    .enumerate()
    {
        let dir = temp_dir(&format!("panic-{k}"));
        fault::arm_str(spec).expect("valid spec");
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            mine_db(&db, 2, 1, &dir, &Budget::unlimited())
        }));
        let fired = fault::injected_count();
        fault::disarm_all();
        assert!(panicked.is_err(), "{spec}: armed panic must fire");
        assert_eq!(fired, 1, "{spec}");
        assert!(
            dir_is_empty(&dir),
            "{spec}: unwinding must remove every partial spill"
        );
        // the directory is immediately reusable: a fresh run is exact
        let (outcome, stats) = mine_db(&db, 2, 1, &dir, &Budget::unlimited());
        assert_eq!(
            outcome.into_result().canonicalized(),
            mine_reference(&db, 2),
            "{spec}"
        );
        assert_eq!(stats.shards, 8);
        assert!(dir_is_empty(&dir), "{spec}: clean after the rerun");
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn budget_trip_mid_pipeline_leaves_the_spill_dir_clean() {
    let _guard = HOOK.lock().unwrap_or_else(|e| e.into_inner());
    let db = paper_db();
    let dir = temp_dir("trip");
    let budget = Budget::unlimited().with_max_nodes(3);
    let (outcome, _) = mine_db(&db, 1, 1, &dir, &budget);
    match outcome {
        MineOutcome::Interrupted { reason, .. } => assert_eq!(reason, TripReason::NodeBudget),
        other => panic!("expected a node-budget trip, got {other:?}"),
    }
    assert!(
        dir_is_empty(&dir),
        "partials must be removed after the trip"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn every_byte_flip_in_a_spill_is_detected_and_names_the_file() {
    let _guard = HOOK.lock().unwrap_or_else(|e| e.into_inner());
    let db = paper_db();
    let dir = temp_dir("flip");
    fs::create_dir_all(&dir).unwrap();
    let mut tree = PrefixTree::new(db.num_items());
    for t in db.transactions() {
        tree.add_transaction(t);
    }
    let path = dir.join("inter.spill");
    spill_tree(&mut tree, &path).expect("spill");
    let good = fs::read(&path).unwrap();
    for i in 0..good.len() {
        let mut bad = good.clone();
        bad[i] ^= 0x01;
        fs::write(&path, &bad).unwrap();
        match load_spill(&path) {
            Err(e) => {
                assert!(matches!(e, FimError::Corrupt(_)), "byte {i}: {e}");
                assert!(
                    e.to_string().contains("inter.spill"),
                    "byte {i}: the error must name the file: {e}"
                );
            }
            Ok(_) => panic!("flip at byte {i} went undetected"),
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncation_at_every_length_is_detected_and_names_the_file() {
    let _guard = HOOK.lock().unwrap_or_else(|e| e.into_inner());
    let db = paper_db();
    let dir = temp_dir("trunc");
    fs::create_dir_all(&dir).unwrap();
    let mut tree = PrefixTree::new(db.num_items());
    for t in db.transactions() {
        tree.add_transaction(t);
    }
    let path = dir.join("short.spill");
    spill_tree(&mut tree, &path).expect("spill");
    let good = fs::read(&path).unwrap();
    for len in 0..good.len() {
        fs::write(&path, &good[..len]).unwrap();
        let e = load_spill(&path).expect_err("truncated spill must not load");
        assert!(matches!(e, FimError::Corrupt(_)), "len {len}: {e}");
        assert!(
            e.to_string().contains("short.spill"),
            "len {len}: the error must name the file: {e}"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}
