//! Paper §3.4: item-code and transaction orders affect only the running
//! time — the mined output (decoded to raw codes) must be identical under
//! every order combination, and under the miner's own transaction order,
//! for every algorithm.

use closed_fim::algos::{self, Miner};
use closed_fim::prelude::*;
use fim_core::TransactionDatabase;
use proptest::collection::vec;
use proptest::prelude::*;

/// The miner of every row of the algorithm table.
fn every_miner() -> Vec<Miner> {
    algos::names()
        .map(|name| Miner::by_name(name).unwrap())
        .collect()
}

fn order_pairs() -> Vec<(ItemOrder, TransactionOrder)> {
    let mut out = Vec::new();
    for io in ItemOrder::ALL {
        for to in TransactionOrder::ALL {
            out.push((io, to));
        }
    }
    out
}

fn check_invariance(db: &TransactionDatabase, minsupp: u32, miner: &dyn ClosedMiner) {
    let mut reference: Option<MiningResult> = None;
    for (io, to) in order_pairs() {
        let got = mine_closed_with_orders(db, minsupp, miner, io, to);
        match &reference {
            None => reference = Some(got),
            Some(want) => assert_eq!(
                &got,
                want,
                "{} changed output under {} / {}",
                miner.name(),
                io.label(),
                to.label()
            ),
        }
    }
    assert_eq!(
        mine_closed(db, minsupp, miner),
        reference.unwrap(),
        "{} changed output under its own order {}",
        miner.name(),
        miner.transaction_order().label()
    );
}

#[test]
fn paper_example_every_order_every_miner() {
    let db = TransactionDatabase::from_named(&[
        vec!["a", "b", "c"],
        vec!["a", "d", "e"],
        vec!["b", "c", "d"],
        vec!["a", "b", "c", "d"],
        vec!["b", "c"],
        vec!["a", "b", "d"],
        vec!["d", "e"],
        vec!["c", "d", "e"],
    ]);
    for minsupp in [1, 2, 3, 5] {
        for miner in every_miner() {
            check_invariance(&db, minsupp, miner.as_dyn());
        }
    }
}

#[test]
fn preset_data_order_invariance() {
    let db = closed_fim::synth::Preset::Ncbi60.build(0.08, 5);
    check_invariance(&db, 3, &IstaMiner::default());
    check_invariance(&db, 3, &CarpenterTableMiner::default());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_databases_order_invariance(
        txs in vec(vec(0u32..7, 0..8usize), 1..10),
        minsupp in 1u32..4,
    ) {
        let db = TransactionDatabase::from_codes(txs);
        for miner in every_miner() {
            check_invariance(&db, minsupp, miner.as_dyn());
        }
    }
}
