//! Criterion micro-benchmarks: every miner on small instances of each
//! preset data set. These complement the figure runners (which sweep
//! minimum support with timeouts); here each algorithm runs at a support
//! where all of them finish quickly, so relative constant factors are
//! visible with statistical confidence.

use closed_fim::algos::Miner;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fim_core::{ItemOrder, RecodedDatabase, TransactionOrder};
use fim_synth::Preset;

fn bench_preset(c: &mut Criterion, preset: Preset, scale: f64, supp: u32, miners: &[&str]) {
    let db = preset.build(scale, 1);
    let recoded = RecodedDatabase::prepare(
        &db,
        supp,
        ItemOrder::AscendingFrequency,
        TransactionOrder::AscendingSize,
    );
    let mut group = c.benchmark_group(format!("mine/{}", preset.name()));
    group.sample_size(10);
    for name in miners {
        let miner = Miner::by_name(name).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(name), &recoded, |b, db| {
            b.iter(|| {
                let r = miner.as_dyn().mine(db, supp);
                assert!(!r.sets.is_empty() || supp > 1);
                r.len()
            })
        });
    }
    group.finish();
}

fn miners_on_presets(c: &mut Criterion) {
    // eclat/declat are omitted on the blocky presets where frequent-set
    // enumeration (even with perfect-extension collapse) walks an
    // exponential subset space; they are micro-benchmarked on ncbi60 only
    let field = [
        "ista",
        "carpenter-table",
        "carpenter-lists",
        "fpclose",
        "lcm",
    ];
    bench_preset(c, Preset::Yeast, 0.06, 6, &field);
    bench_preset(
        c,
        Preset::Ncbi60,
        0.2,
        8,
        &[
            "ista",
            "carpenter-table",
            "carpenter-lists",
            "fpclose",
            "lcm",
            "eclat",
            "declat",
        ],
    );
    bench_preset(c, Preset::Thrombin, 0.06, 3, &field);
    bench_preset(c, Preset::Webview, 0.06, 3, &field);
}

fn ista_vs_naive(c: &mut Criterion) {
    // the E7 gap in micro-benchmark form, on a size where naive still runs
    let db = Preset::Yeast.build(0.04, 1);
    let recoded = RecodedDatabase::prepare(
        &db,
        3,
        ItemOrder::AscendingFrequency,
        TransactionOrder::AscendingSize,
    );
    let mut group = c.benchmark_group("mine/naive-gap");
    group.sample_size(10);
    for name in ["ista", "naive-cumulative"] {
        let miner = Miner::by_name(name).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(name), &recoded, |b, db| {
            b.iter(|| miner.as_dyn().mine(db, 3).len())
        });
    }
    group.finish();
}

criterion_group!(benches, miners_on_presets, ista_vs_naive);
criterion_main!(benches);
