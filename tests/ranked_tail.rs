//! The ranked tail of `fim mine` against the sets path it replaced.
//!
//! When a recode keeps at most 256 items, `fim mine` carries its result
//! as rank-mask keys ([`RankedResult`]) from the miner to the file: IsTa's
//! report walk yields keys, every other family's dense sets are keyed,
//! the keys are sorted and each line is written from its mask bits. The
//! oracle here is the path those keys replaced: decode to raw codes,
//! sort by comparison ([`MiningResult::canonicalize`]) and
//! [`write_results_named`]; it shares no code with the rank keys. Both
//! must give the same bytes on databases of 0 to 300 kept items, 255,
//! 256 and 257 among them, for complete, interrupted and degraded IsTa
//! runs with and without constraints, for every family of the algorithm
//! table, and for `--maximal`.

use closed_fim::algos::{self, Miner};
use fim_core::{
    maximal_from_closed, Budget, ConstraintSet, Item, ItemOrder, ItemSet, MineOutcome, MineRequest,
    MiningResult, RankTable, RankedResult, RecodedDatabase, TransactionDatabase, TransactionOrder,
};
use fim_io::{write_ranked, write_results_named};
use fim_ista::IstaMiner;
use fim_obs::Obs;
use proptest::collection::vec;
use proptest::prelude::*;

/// Kept-item counts: every word boundary of a rank mask, the 256-item
/// rule on both sides, and the widths between.
const KEPT: [u32; 13] = [0, 1, 5, 63, 64, 65, 128, 200, 255, 256, 257, 280, 300];

/// Raw item base: raw codes are a permutation of part of it, so raw,
/// dense and rank order all differ.
const BASE: u32 = 1_009;

fn raw(k: u32) -> Item {
    (k * 7_919) % BASE
}

/// A database in which exactly `kept` items reach `minsupp`: item `k`
/// joins transactions `k + j` for `j < minsupp`, on top of random draws
/// over the same items.
fn database(kept: u32, rows: usize, minsupp: u32, draws: &[Vec<u32>]) -> TransactionDatabase {
    let mut txs: Vec<Vec<Item>> = draws[..rows]
        .iter()
        .map(|t| {
            t.iter()
                .map(|&d| raw(d % kept.max(1)))
                .filter(|_| kept > 0)
                .collect()
        })
        .collect();
    for k in 0..kept {
        for j in 0..minsupp as usize {
            txs[(k as usize + j) % rows].push(raw(k));
        }
    }
    for t in &mut txs {
        t.sort_unstable();
        t.dedup();
    }
    TransactionDatabase::from_codes_with_base(txs, BASE as usize)
}

fn ista_case() -> impl Strategy<Value = (TransactionDatabase, u32, u32)> {
    (0..KEPT.len(), 1..=3u32, 3..=10usize).prop_flat_map(|(k, minsupp, rows)| {
        let kept = KEPT[k];
        vec(vec(0..kept.max(1), 0..40usize), rows..=rows)
            .prop_map(move |draws| (database(kept, rows, minsupp, &draws), kept, minsupp))
    })
}

/// The recode `fim mine` runs IsTa on.
fn recode(db: &TransactionDatabase, minsupp: u32) -> RecodedDatabase {
    RecodedDatabase::prepare(
        db,
        minsupp,
        ItemOrder::AscendingFrequency,
        TransactionOrder::AscendingSize,
    )
}

/// The oracle: the coded sets decoded, sorted by comparison and written.
fn sets_bytes(
    coded: &MiningResult,
    db: &RecodedDatabase,
    catalog: &TransactionDatabase,
) -> Vec<u8> {
    let mut sets = coded.decode(db.recode());
    sets.canonicalize();
    let mut out = Vec::new();
    write_results_named(&sets, catalog.catalog(), &mut out).unwrap();
    out
}

fn ranked_bytes(mut ranked: RankedResult, catalog: &TransactionDatabase) -> Vec<u8> {
    ranked.canonicalize();
    let mut out = Vec::new();
    write_ranked(&ranked, catalog.catalog(), &mut out).unwrap();
    out
}

/// An outcome's shape: its kind, trip reason, progress and degradation.
fn shape<R>(outcome: MineOutcome<R>) -> String {
    format!("{:?}", outcome.map_result(drop))
}

/// A constraint over dense codes from raw draws; `None` for draw 0.
fn constraint(draw: (u32, u32, u32, u32), db: &RecodedDatabase) -> Option<ConstraintSet> {
    let (pick, min_size, max_size, min_area) = draw;
    if pick == 0 {
        return None;
    }
    let include = match (pick % 3, db.num_items()) {
        (0, n) if n > 0 => ItemSet::from([pick % n]),
        _ => ItemSet::empty(),
    };
    Some(ConstraintSet {
        include,
        exclude: ItemSet::empty(),
        min_size,
        max_size: (max_size > 0).then_some(min_size + max_size),
        min_area: u64::from(min_area),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// IsTa's ranked run against its sets run: the same outcome, work
    /// and bytes, complete, interrupted and degraded, constrained or not.
    #[test]
    fn ista_ranked_tail_writes_the_bytes_of_its_sets(
        drawn in ista_case(),
        max_nodes in 1..40usize,
        cs in (0..4u32, 0..4u32, 0..3u32, 0..40u32),
    ) {
        let (catalog, kept, minsupp) = drawn;
        let db = recode(&catalog, minsupp);
        prop_assert_eq!(db.num_items(), kept);
        let table = RankTable::new(&db.recode().item_to_old);
        prop_assert_eq!(table.is_some(), kept <= 256);
        let cs = constraint(cs, &db);
        let budgets = [
            Budget::unlimited(),
            Budget { max_nodes: Some(max_nodes), ..Budget::unlimited() },
            Budget { max_nodes: Some(max_nodes), degrade: true, ..Budget::unlimited() },
        ];
        let miner = IstaMiner::default();
        for budget in &budgets {
            for constraints in [None, cs.as_ref()] {
                let req = MineRequest { minsupp, budget, constraints };
                let (sets, sets_stats) = miner.mine_stats(&db, &req, &mut Obs::new());
                let want = sets_bytes(sets.result(), &db, &catalog);
                let Some(table) = &table else {
                    // the wide path: one consuming pass, the same bytes
                    let mut got = Vec::new();
                    let canonical = sets.into_result().into_canonical(&db.recode().item_to_old);
                    write_results_named(&canonical, catalog.catalog(), &mut got).unwrap();
                    prop_assert_eq!(got, want);
                    continue;
                };
                let (ranked, ranked_stats) = miner.mine_ranked(&db, &req, table, &mut Obs::new());
                prop_assert_eq!(ranked.result().len(), sets.result().len());
                prop_assert_eq!(ranked_stats.counters, sets_stats.counters);
                prop_assert_eq!(ranked_stats.peak_nodes, sets_stats.peak_nodes);
                prop_assert_eq!(shape(ranked.clone()), shape(sets));
                prop_assert_eq!(ranked_bytes(ranked.into_result(), &catalog), want);
            }
        }
    }

    /// `--maximal` on keys against `maximal_from_closed` on sets.
    #[test]
    fn ranked_maximal_sets_are_those_of_the_sets_path(drawn in ista_case()) {
        let (catalog, kept, minsupp) = drawn;
        let db = recode(&catalog, minsupp);
        let Some(table) = RankTable::new(&db.recode().item_to_old) else {
            prop_assert!(kept > 256);
            return;
        };
        let req = MineRequest { minsupp, budget: &Budget::unlimited(), constraints: None };
        let (ranked, _) = IstaMiner::default().mine_ranked(&db, &req, &table, &mut Obs::new());
        let mut ranked = ranked.into_result();
        ranked.canonicalize();
        let mut got = Vec::new();
        write_ranked(&ranked.maximal(), catalog.catalog(), &mut got).unwrap();
        let (sets, _) = IstaMiner::default().mine_stats(&db, &req, &mut Obs::new());
        let mut closed = sets.result().decode(db.recode());
        closed.canonicalize();
        let mut want = Vec::new();
        write_results_named(&maximal_from_closed(&closed), catalog.catalog(), &mut want).unwrap();
        prop_assert_eq!(got, want);
    }
}

/// Sparse databases every family mines quickly: up to 30 rows of up to
/// 8 items over a raw base of 5 to 1,009 items, so that from none to
/// about 300 items are kept.
fn family_case() -> impl Strategy<Value = (TransactionDatabase, u32)> {
    (
        prop_oneof![Just(5u32), Just(70u32), Just(300u32), Just(BASE)],
        1..=2u32,
    )
        .prop_flat_map(|(universe, minsupp)| {
            vec(vec(0..universe, 0..=8usize), 0..30usize).prop_map(move |draws| {
                let txs = draws
                    .into_iter()
                    .map(|t| {
                        let mut t: Vec<Item> = t.into_iter().map(raw).collect();
                        t.sort_unstable();
                        t.dedup();
                        t
                    })
                    .collect();
                (
                    TransactionDatabase::from_codes_with_base(txs, BASE as usize),
                    minsupp,
                )
            })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every row of the algorithm table through the keying step: its
    /// dense sets keyed, sorted and written give the bytes of the sets
    /// decoded, sorted and written.
    #[test]
    fn every_family_keyed_writes_the_bytes_of_its_sets(drawn in family_case()) {
        let (catalog, minsupp) = drawn;
        for name in algos::names() {
            let miner = Miner::by_name(name).unwrap();
            let order = miner.as_dyn().transaction_order();
            let db = RecodedDatabase::prepare(&catalog, minsupp, ItemOrder::AscendingFrequency, order);
            let Some(table) = RankTable::new(&db.recode().item_to_old) else {
                continue;
            };
            let req = MineRequest { minsupp, budget: &Budget::unlimited(), constraints: None };
            let (outcome, _) = miner.as_dyn().mine_with(&db, &req, &mut Obs::new());
            let got = ranked_bytes(table.keyed(outcome.result()), &catalog);
            prop_assert_eq!(got, sets_bytes(outcome.result(), &db, &catalog), "{}", name);
        }
    }
}
