//! Property tests for the resource-governance layer (budgets, interruption,
//! degradation) and for stream checkpoint/resume.
//!
//! The central claims being pinned:
//!
//! * An IsTa run interrupted after `k` transactions returns **exactly** the
//!   closed sets of those `k` transactions — item-elimination pruning with
//!   full-database remaining counts never removes a set frequent in any
//!   prefix (`supp_t + remaining_t < minsupp` bounds the support in every
//!   prefix below `minsupp`), so the partial tree reports the prefix answer.
//! * A stream persisted to a snapshot, reloaded, and fed the remaining
//!   transactions is indistinguishable from one that never stopped.
//! * Graceful degradation completes with exactly the answer at the raised
//!   effective threshold it reports.

use fim_core::reference::mine_reference;
use fim_core::{coalesce, Budget, Item, MineOutcome, MineRequest, RecodedDatabase, TripReason};
use fim_ista::{IstaConfig, IstaMiner, IstaStream, PrunePolicy};
use fim_obs::Obs;
use proptest::collection::vec;
use proptest::prelude::*;

/// Strategy: raw transactions over up to 9 items (possibly empty rows;
/// `RecodedDatabase::from_dense` canonicalizes and drops the empty ones).
fn raw_txs() -> impl Strategy<Value = (Vec<Vec<Item>>, u32)> {
    (2u32..=9).prop_flat_map(|num_items| {
        vec(vec(0..num_items, 0..=num_items as usize), 0..14).prop_map(move |txs| (txs, num_items))
    })
}

fn dedup(mut t: Vec<Item>) -> Vec<Item> {
    t.sort_unstable();
    t.dedup();
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Interrupting at a random transaction budget yields exactly the
    /// result of mining the processed rows alone, for every pruning policy.
    #[test]
    fn interruption_equals_mining_the_prefix(
        txs_items in raw_txs(),
        cut in 0usize..20,
        minsupp in 1u32..5,
        policy_idx in 0usize..3,
    ) {
        let (txs, num_items) = txs_items;
        let policy =
            [PrunePolicy::Never, PrunePolicy::EveryN(1), PrunePolicy::Growth(1.2)][policy_idx];
        let db = RecodedDatabase::from_dense(txs, num_items);
        let k = (cut % (db.transactions().len() + 1)) as u64;
        let miner = IstaMiner::with_config(IstaConfig {
            policy,
            ..IstaConfig::default()
        });
        let budget = Budget::unlimited().with_max_transactions(k);
        let req = MineRequest { minsupp, budget: &budget, constraints: None };
        let (outcome, _) = miner.mine_stats(&db, &req, &mut Obs::new());
        // the miner processes the distinct rows in first-occurrence order,
        // one weighted row at a time, and checks the budget after each: it
        // stops after the shortest leading run of rows that weighs `k`
        let mut rows = Vec::new();
        let mut weight = 0u64;
        for (t, w) in coalesce(db.transactions()) {
            if weight >= k {
                break;
            }
            for _ in 0..w {
                rows.push(t.to_vec());
            }
            weight += u64::from(w);
        }
        let want = mine_reference(&RecodedDatabase::from_dense(rows, num_items), minsupp);
        match outcome {
            MineOutcome::Interrupted { partial, reason, progress } => {
                prop_assert_eq!(reason, TripReason::TransactionBudget);
                // at least the budget, overshooting by less than one row's
                // weight
                prop_assert_eq!(progress.processed, weight);
                prop_assert!(weight >= k);
                prop_assert_eq!(partial.canonicalized(), want, "budget {}", k);
            }
            MineOutcome::Complete { result, .. } => {
                // the transaction budget trips at the boundary, so a
                // governed run only completes when it covers the database
                prop_assert!(k > weight);
                prop_assert_eq!(result.canonicalized(), want);
            }
        }
    }

    /// Degradation mode never interrupts on a node budget: it completes
    /// with exactly the reference answer at the effective threshold it
    /// reports, and the requested threshold is preserved in the record.
    #[test]
    fn degradation_reports_exact_answer_at_raised_threshold(
        txs_items in raw_txs(),
        max_nodes in 1usize..12,
        minsupp in 1u32..4,
    ) {
        let (txs, num_items) = txs_items;
        let db = RecodedDatabase::from_dense(txs, num_items);
        let budget = Budget::unlimited().with_max_nodes(max_nodes).with_degradation();
        let req = MineRequest { minsupp, budget: &budget, constraints: None };
        let (outcome, _) = IstaMiner::default().mine_stats(&db, &req, &mut Obs::new());
        match outcome {
            MineOutcome::Complete { result, degradation } => {
                let eff = match degradation {
                    Some(d) => {
                        prop_assert_eq!(d.requested_minsupp, minsupp);
                        prop_assert!(d.effective_minsupp > d.requested_minsupp);
                        prop_assert!(d.steps >= 1);
                        d.effective_minsupp
                    }
                    None => minsupp,
                };
                prop_assert_eq!(result.canonicalized(), mine_reference(&db, eff));
            }
            MineOutcome::Interrupted { reason, .. } => {
                prop_assert!(false, "degrade mode interrupted: {}", reason);
            }
        }
    }

    /// checkpoint → reload → continue is equivalent to an uninterrupted
    /// stream: same closed sets at every threshold, same transaction count,
    /// and the resumed tree still satisfies every structural invariant.
    #[test]
    fn snapshot_resume_equals_uninterrupted_stream(
        txs_items in raw_txs(),
        cut in 0usize..20,
    ) {
        let (txs, num_items) = txs_items;
        let txs: Vec<Vec<Item>> = txs.into_iter().map(dedup).collect();
        let k = cut % (txs.len() + 1);
        let mut uninterrupted = IstaStream::new(num_items);
        let mut before = IstaStream::new(num_items);
        for t in &txs[..k] {
            uninterrupted.push_sorted(t);
            before.push_sorted(t);
        }
        let mut buf = Vec::new();
        before.write_snapshot(&mut buf).expect("write snapshot");
        let mut resumed = IstaStream::read_snapshot(&mut buf.as_slice()).expect("read snapshot");
        for t in &txs[k..] {
            uninterrupted.push_sorted(t);
            resumed.push_sorted(t);
        }
        resumed.tree().validate_invariants();
        prop_assert_eq!(
            resumed.transactions_processed(),
            uninterrupted.transactions_processed()
        );
        for minsupp in 1..=4 {
            prop_assert_eq!(
                resumed.closed_sets(minsupp),
                uninterrupted.closed_sets(minsupp),
                "cut {} minsupp {}", k, minsupp
            );
        }
        // a second checkpoint of the resumed stream round-trips too
        let mut buf2 = Vec::new();
        resumed.write_snapshot(&mut buf2).expect("second write");
        let again = IstaStream::read_snapshot(&mut buf2.as_slice()).expect("second read");
        prop_assert_eq!(again.closed_sets(1), uninterrupted.closed_sets(1));
    }

    /// Flipping any single bit of a snapshot must never produce a valid
    /// stream (CRC or structural validation catches it).
    #[test]
    fn corrupted_snapshots_never_load(
        txs_items in raw_txs(),
        flip_pos in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let (txs, num_items) = txs_items;
        let mut stream = IstaStream::new(num_items);
        for t in &txs {
            stream.push(t);
        }
        let mut buf = Vec::new();
        stream.write_snapshot(&mut buf).expect("write snapshot");
        let pos = flip_pos % buf.len();
        buf[pos] ^= 1 << flip_bit;
        prop_assert!(
            IstaStream::read_snapshot(&mut buf.as_slice()).is_err(),
            "flip at byte {} bit {} went undetected", pos, flip_bit
        );
    }
}
