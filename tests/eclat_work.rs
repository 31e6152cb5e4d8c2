//! Pins the work of the enumeration miners, not only their output. On one
//! small generated basket file, `eclat`, `eclat-bitset` and `declat` must
//! report the same number of sets after exactly the same lattice work,
//! plain and with pushed constraints, and `lcm` must reuse as many
//! closures. A change to a search that keeps the output but moves one of
//! these numbers changes how the miner works; it has to update the figures
//! here on purpose, with the reason in its change notes.

use closed_fim::core::{ConstraintSet, Representation};
use closed_fim::obs::{Counter, Counters, Obs};
use closed_fim::prelude::*;
use closed_fim::synth::quest::{generate, QuestConfig};

/// The set count and the work of one run, in the fim-metrics names.
#[derive(Debug, PartialEq, Eq)]
struct Work {
    sets: usize,
    search_steps: u64,
    tid_intersections: u64,
    perfect_extensions: u64,
    words_anded: u64,
    constraint_prunes: u64,
}

const SUPP: u32 = 6;

/// A 3,000-basket Quest file over 200 items, recoded at [`SUPP`] the way
/// `fim mine` recodes it for `miner`: ascending item frequency, the
/// miner's own transaction order.
fn basket(miner: &dyn ClosedMiner) -> RecodedDatabase {
    let db = generate(&QuestConfig {
        transactions: 3000,
        items: 200,
        ..QuestConfig::default()
    });
    RecodedDatabase::prepare(
        &db,
        SUPP,
        ItemOrder::AscendingFrequency,
        miner.transaction_order(),
    )
}

/// Min-size cuts small sets, min-area raises the support floor, and
/// max-size waits for the closedness filter.
fn constraints() -> ConstraintSet {
    ConstraintSet {
        min_size: 2,
        max_size: Some(3),
        min_area: 24,
        ..ConstraintSet::none()
    }
}

/// Mines the basket with `miner` at [`SUPP`] and `constraints` pushed when
/// given, returning the result and its counters.
fn mine(miner: &dyn ClosedMiner, constraints: Option<&ConstraintSet>) -> (MiningResult, Counters) {
    let db = basket(miner);
    let req = MineRequest {
        constraints,
        ..MineRequest::new(SUPP)
    };
    let (outcome, counters) = miner.mine_with(&db, &req, &mut Obs::new());
    (outcome.into_result(), counters)
}

fn work(miner: &dyn ClosedMiner, constraints: Option<&ConstraintSet>) -> Work {
    let (result, counters) = mine(miner, constraints);
    Work {
        sets: result.len(),
        search_steps: counters.get(Counter::SearchSteps),
        tid_intersections: counters.get(Counter::TidIntersections),
        perfect_extensions: counters.get(Counter::PerfectExtensions),
        words_anded: counters.get(Counter::WordsAnded),
        constraint_prunes: counters.get(Counter::ConstraintPrunes),
    }
}

#[test]
fn eclat_work_is_pinned() {
    assert_eq!(
        work(&EclatMiner::default(), None),
        Work {
            sets: 2259,
            search_steps: 2334,
            tid_intersections: 17793,
            perfect_extensions: 69,
            words_anded: 0,
            constraint_prunes: 0,
        }
    );
    assert_eq!(
        work(&EclatMiner::default(), Some(&constraints())),
        Work {
            sets: 1157,
            search_steps: 1802,
            tid_intersections: 15908,
            perfect_extensions: 36,
            words_anded: 0,
            constraint_prunes: 613,
        }
    );
}

#[test]
fn eclat_bitset_work_is_pinned() {
    let bitset = EclatMiner::with_rep(Representation::Bitset);
    assert_eq!(
        work(&bitset, None),
        Work {
            sets: 2259,
            search_steps: 2334,
            tid_intersections: 17793,
            perfect_extensions: 69,
            words_anded: 701436,
            constraint_prunes: 0,
        }
    );
    assert_eq!(
        work(&bitset, Some(&constraints())),
        Work {
            sets: 1157,
            search_steps: 1802,
            tid_intersections: 15908,
            perfect_extensions: 36,
            words_anded: 596937,
            constraint_prunes: 613,
        }
    );
}

#[test]
fn declat_work_is_pinned() {
    assert_eq!(
        work(&DEclatMiner::default(), None),
        Work {
            sets: 2259,
            search_steps: 2334,
            tid_intersections: 17793,
            perfect_extensions: 69,
            words_anded: 0,
            constraint_prunes: 0,
        }
    );
    assert_eq!(
        work(&DEclatMiner::default(), Some(&constraints())),
        Work {
            sets: 1157,
            search_steps: 1802,
            tid_intersections: 15908,
            perfect_extensions: 36,
            words_anded: 0,
            constraint_prunes: 613,
        }
    );
}

#[test]
fn lcm_closure_reuse_is_pinned() {
    let (result, counters) = mine(&LcmMiner, None);
    assert_eq!(
        (result.len(), counters.get(Counter::ClosureReuses)),
        (2259, 3584)
    );
}
