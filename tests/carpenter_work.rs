//! Pins Carpenter's work, not only its output. On one small dense and one
//! small sparse generated input, the default `carpenter-lists` miner must
//! report the same number of sets after exactly the same search work:
//! search steps, repository lookups and hits, absorptions, item
//! eliminations and early stops. A change to the search that keeps the
//! output but moves one of these numbers changes how Carpenter works; it
//! has to update the figures here on purpose, with the reason in its change
//! notes. A constrained case pins the pushed size and area cuts too.

use closed_fim::core::ConstraintSet;
use closed_fim::obs::Obs;
use closed_fim::prelude::*;
use closed_fim::synth::Preset;

/// The set count and the work of one `carpenter-lists` run, in the
/// fim-metrics names.
#[derive(Debug, PartialEq, Eq)]
struct Work {
    sets: usize,
    search_steps: u64,
    repo_lookups: u64,
    repo_hits: u64,
    absorption_hits: u64,
    eliminations: u64,
    tid_early_stops: u64,
    constraint_prunes: u64,
}

/// Mines `preset` at `scale` (generator seed 1) the way `fim mine` does:
/// ascending item frequency, the miner's own transaction order, with
/// `constraints` (over dense codes) pushed when given.
fn work(preset: Preset, scale: f64, supp: u32, constraints: Option<&ConstraintSet>) -> Work {
    let db = preset.build(scale, 1);
    let miner = CarpenterListMiner::default();
    let recoded = RecodedDatabase::prepare(
        &db,
        supp,
        ItemOrder::AscendingFrequency,
        miner.transaction_order(),
    );
    let req = MineRequest {
        constraints,
        ..MineRequest::new(supp)
    };
    let (outcome, counters) = miner.mine_with(&recoded, &req, &mut Obs::new());
    let result = outcome.into_result();
    let counter = |name: &str| {
        counters
            .iter_nonzero()
            .find(|&(n, _)| n == name)
            .map_or(0, |(_, v)| v)
    };
    Work {
        sets: result.len(),
        search_steps: counter("search_steps"),
        repo_lookups: counter("repo_lookups"),
        repo_hits: counter("repo_hits"),
        absorption_hits: counter("absorption_hits"),
        eliminations: counter("eliminations"),
        tid_early_stops: counter("tid_early_stops"),
        constraint_prunes: counter("constraint_prunes"),
    }
}

#[test]
fn dense_ncbi60_work_is_pinned() {
    let got = work(Preset::Ncbi60, 0.3, 12, None);
    assert_eq!(
        got,
        Work {
            sets: 14200,
            search_steps: 27513,
            repo_lookups: 27513,
            repo_hits: 4980,
            absorption_hits: 10755,
            eliminations: 40527,
            tid_early_stops: 1335,
            constraint_prunes: 0,
        }
    );
}

#[test]
fn sparse_webview_work_is_pinned() {
    let got = work(Preset::Webview, 0.2, 2, None);
    assert_eq!(
        got,
        Work {
            sets: 15941,
            search_steps: 29434,
            repo_lookups: 29434,
            repo_hits: 13397,
            absorption_hits: 8159,
            eliminations: 5573,
            tid_early_stops: 0,
            constraint_prunes: 0,
        }
    );
}

#[test]
fn constrained_webview_work_is_pinned() {
    // min-size and min-area cut states that shrank too far; min-area also
    // raises the support floor
    let cs = ConstraintSet {
        min_size: 3,
        min_area: 12,
        ..ConstraintSet::none()
    };
    let got = work(Preset::Webview, 0.2, 2, Some(&cs));
    assert_eq!(
        got,
        Work {
            sets: 9796,
            search_steps: 25534,
            repo_lookups: 25534,
            repo_hits: 1189,
            absorption_hits: 1513,
            eliminations: 5573,
            tid_early_stops: 0,
            constraint_prunes: 14454,
        }
    );
}
