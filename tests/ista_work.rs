//! Pins IsTa's work, not only its output. On one small dense and one small
//! sparse generated input, the default `ista` miner must report the same
//! number of sets after exactly the same tree work: segment scans, early
//! exits, splits, node allocations, peak nodes, prune passes and
//! compactions. A change to the prefix tree that keeps the output but moves
//! one of these numbers changes how IsTa works; it has to update the
//! figures here on purpose, with the reason in its change notes.

use closed_fim::prelude::*;
use closed_fim::synth::Preset;

/// The set count and the work of one `ista` run, in the fim-metrics names.
#[derive(Debug, PartialEq, Eq)]
struct Work {
    sets: usize,
    seg_scans: u64,
    isect_early_exits: u64,
    splits: u64,
    node_allocs: u64,
    peak_nodes: usize,
    prune_passes: usize,
    compactions: usize,
}

/// Mines `preset` at `scale` (generator seed 1) the way `fim mine` does:
/// ascending item frequency, the miner's own transaction order.
fn work(preset: Preset, scale: f64, supp: u32) -> Work {
    let db = preset.build(scale, 1);
    let miner = IstaMiner::default();
    let recoded = RecodedDatabase::prepare(
        &db,
        supp,
        ItemOrder::AscendingFrequency,
        miner.transaction_order(),
    );
    let (result, stats) = miner.mine_with_stats(&recoded, supp);
    let counter = |name: &str| {
        stats
            .counters
            .iter_nonzero()
            .find(|&(n, _)| n == name)
            .map_or(0, |(_, v)| v)
    };
    Work {
        sets: result.len(),
        seg_scans: counter("seg_scans"),
        isect_early_exits: counter("isect_early_exits"),
        splits: counter("splits"),
        node_allocs: counter("node_allocs"),
        peak_nodes: stats.peak_nodes,
        prune_passes: stats.prune_passes,
        compactions: stats.compactions,
    }
}

#[test]
fn dense_ncbi60_work_is_pinned() {
    let got = work(Preset::Ncbi60, 0.3, 9);
    assert_eq!(
        got,
        Work {
            sets: 92882,
            seg_scans: 422674,
            isect_early_exits: 101,
            splits: 15654,
            node_allocs: 236001,
            peak_nodes: 222398,
            prune_passes: 6,
            compactions: 6,
        }
    );
}

#[test]
fn sparse_webview_work_is_pinned() {
    let got = work(Preset::Webview, 0.2, 2);
    assert_eq!(
        got,
        Work {
            sets: 15941,
            seg_scans: 130017,
            isect_early_exits: 1085,
            splits: 5382,
            node_allocs: 19356,
            peak_nodes: 19349,
            prune_passes: 5,
            compactions: 5,
        }
    );
}
