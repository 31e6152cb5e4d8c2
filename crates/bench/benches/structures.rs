//! Criterion micro-benchmarks for the core data structures: item set
//! algebra, tid lists, the suffix-count matrix, the IsTa prefix tree, and
//! the synthetic generators.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fim_core::{
    gallop_intersect_into, ItemOrder, ItemSet, RecodedDatabase, SuffixCountMatrix, TidLists,
    TransactionOrder,
};
use fim_ista::{intersect_segment, intersect_segment_words, PrefixTree};
use fim_synth::{ExpressionConfig, ExpressionMatrix, Preset};

fn itemset_ops(c: &mut Criterion) {
    let a: ItemSet = (0..4000).step_by(2).collect();
    let b: ItemSet = (0..4000).step_by(3).collect();
    let mut group = c.benchmark_group("itemset");
    group.bench_function("intersect/2k_vs_1.3k", |bench| {
        bench.iter(|| a.intersect(&b).len())
    });
    group.bench_function("is_subset/hit", |bench| {
        let sub: ItemSet = (0..4000).step_by(6).collect();
        bench.iter(|| sub.is_subset_of(&a))
    });
    group.bench_function("union/2k_vs_1.3k", |bench| bench.iter(|| a.union(&b).len()));
    group.finish();
}

fn database_reps(c: &mut Criterion) {
    let db = Preset::Ncbi60.build(0.3, 1);
    let recoded = RecodedDatabase::prepare(
        &db,
        2,
        ItemOrder::AscendingFrequency,
        TransactionOrder::AscendingSize,
    );
    let mut group = c.benchmark_group("representation");
    group.bench_function("tid_lists/build", |b| {
        b.iter(|| TidLists::from_database(&recoded).num_items())
    });
    group.bench_function("suffix_matrix/build", |b| {
        b.iter(|| SuffixCountMatrix::from_database(&recoded).num_items())
    });
    group.bench_function("recode/prepare", |b| {
        b.iter(|| {
            RecodedDatabase::prepare(
                &db,
                2,
                ItemOrder::AscendingFrequency,
                TransactionOrder::AscendingSize,
            )
            .num_transactions()
        })
    });
    group.finish();
}

fn prefix_tree(c: &mut Criterion) {
    let db = Preset::Ncbi60.build(0.25, 1);
    let recoded = RecodedDatabase::prepare(
        &db,
        3,
        ItemOrder::AscendingFrequency,
        TransactionOrder::AscendingSize,
    );
    let mut group = c.benchmark_group("ista-tree");
    group.sample_size(10);
    group.bench_function("add_all_transactions", |b| {
        b.iter(|| {
            let mut tree = PrefixTree::new(recoded.num_items());
            for t in recoded.transactions() {
                tree.add_transaction(t);
            }
            tree.node_count()
        })
    });
    group.bench_function("report", |b| {
        let mut tree = PrefixTree::new(recoded.num_items());
        for t in recoded.transactions() {
            tree.add_transaction(t);
        }
        b.iter(|| tree.report(3).len())
    });
    group.bench_function("merge/two_halves", |b| {
        let (txs, half) = (recoded.transactions(), recoded.num_transactions() / 2);
        let (first, second) = (txs.slice(0..half), txs.slice(half..txs.len()));
        b.iter(|| {
            let mut left = PrefixTree::new(recoded.num_items());
            for t in first {
                left.add_transaction(t);
            }
            let mut right = PrefixTree::new(recoded.num_items());
            for t in second {
                right.add_transaction(t);
            }
            left.merge(&right);
            left.node_count()
        })
    });
    group.bench_function("membership_stamp/wide_universe", |b| {
        // short transactions over a 20k-item universe: per-add cost is
        // dominated by the transaction-membership marking that isect
        // consults, i.e. the epoch-stamped `Vec<u32>` that replaced the
        // cleared-per-transaction `Vec<bool>`
        const UNIVERSE: u32 = 20_000;
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut step = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let txs: Vec<Vec<u32>> = (0..600)
            .map(|_| {
                let mut t: Vec<u32> = (0..40).map(|_| (step() % UNIVERSE as u64) as u32).collect();
                t.sort_unstable();
                t.dedup();
                t
            })
            .collect();
        b.iter(|| {
            let mut tree = PrefixTree::new(UNIVERSE);
            for t in &txs {
                tree.add_transaction(t);
            }
            tree.node_count()
        })
    });
    group.finish();
}

fn hotpath(c: &mut Criterion) {
    let db = Preset::Ncbi60.build(0.25, 1);
    let recoded = RecodedDatabase::prepare(
        &db,
        3,
        ItemOrder::AscendingFrequency,
        TransactionOrder::AscendingSize,
    );
    let mut group = c.benchmark_group("hotpath");
    group.sample_size(10);

    // fragmented arena: insert everything, then prune with no future
    // occurrences left — every subtree below the final support threshold
    // is freed in place, leaving holes the DFS walk has to jump over
    let mut fragmented = PrefixTree::new(recoded.num_items());
    for t in recoded.transactions() {
        fragmented.add_transaction(t);
    }
    let spent = vec![0u32; recoded.num_items() as usize];
    fragmented.prune(&spent, 3);
    let mut compacted = fragmented.clone();
    compacted.compact();
    assert_eq!(
        fragmented.report(3).len(),
        compacted.report(3).len(),
        "compaction must not change reported sets"
    );

    // the shim has no iter_batched, so the compact cost is measured as
    // clone+compact with a clone-only baseline to subtract
    group.bench_function("compact/clone_baseline", |b| {
        b.iter(|| criterion::black_box(fragmented.clone()).node_count())
    });
    group.bench_function("compact/clone_and_compact", |b| {
        b.iter(|| {
            let mut t = fragmented.clone();
            t.compact();
            t.node_count()
        })
    });
    group.bench_function("report/fragmented_arena", |b| {
        b.iter(|| fragmented.report(3).len())
    });
    group.bench_function("report/compacted_arena", |b| {
        b.iter(|| compacted.report(3).len())
    });

    // weighted vs repeated insertion: the coalescing win is one support
    // bump per duplicate instead of a full isect traversal
    group.bench_function("insert/repeated_x4", |b| {
        b.iter(|| {
            let mut tree = PrefixTree::new(recoded.num_items());
            for t in recoded.transactions() {
                for _ in 0..4 {
                    tree.add_transaction(t);
                }
            }
            tree.node_count()
        })
    });
    group.bench_function("insert/weighted_x4", |b| {
        b.iter(|| {
            let mut tree = PrefixTree::new(recoded.num_items());
            for t in recoded.transactions() {
                tree.add_transaction_weighted(t, 4);
            }
            tree.node_count()
        })
    });
    group.finish();
}

/// The Patricia descending-merge kernel (`intersect_segment`) at the
/// segment lengths the two preset families actually produce: 1 (fully
/// fragmented, the plain-layout equivalent), 4 (dense ncbi-like trees
/// after split churn), 16 and 64 (sparse webview-like transposed data,
/// where transactions are long item runs).
fn segment_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("segment_kernel");
    const UNIVERSE: u32 = 4096;
    for len in [1usize, 4, 16, 64] {
        // membership stamps that match every other item: the kernel scans
        // the whole segment without the early `imin` exit
        let mut trans = vec![0u32; UNIVERSE as usize];
        for i in (0..UNIVERSE).step_by(2) {
            trans[i as usize] = 1;
        }
        // one tree's worth of segments laid end to end, descending within
        // each segment like the real arena item store
        let segs: Vec<Vec<u32>> = (0..256)
            .map(|s| {
                let hi = UNIVERSE - 1 - (s % 32) * 96;
                (0..len as u32).map(|j| hi - j).collect()
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("scan", len), &segs, |b, segs| {
            let mut out = Vec::with_capacity(len);
            b.iter(|| {
                let mut pushed = 0usize;
                for seg in segs {
                    out.clear();
                    intersect_segment(seg, &trans, 1, 0, &mut out);
                    pushed += out.len();
                }
                pushed
            })
        });
        // early-exit variant: `imin` sits in the middle of each segment,
        // the case the tight loop's bound check is meant to keep cheap
        group.bench_with_input(BenchmarkId::new("early_exit", len), &segs, |b, segs| {
            let mut out = Vec::with_capacity(len);
            b.iter(|| {
                let mut stops = 0usize;
                for seg in segs {
                    out.clear();
                    let imin = seg[seg.len() / 2];
                    if intersect_segment(seg, &trans, 1, imin, &mut out) {
                        stops += 1;
                    }
                }
                stops
            })
        });
        // bitset variant: the same segments probed against the packed-word
        // transaction (the ista `--rep bitset` hot loop); contiguous runs
        // collapse to whole-word ANDs, so this is the kernel's best case
        // at len 64 and its worst at len 1
        let twords: Vec<u64> = {
            let mut w = vec![0u64; UNIVERSE.div_ceil(64) as usize];
            for (i, &m) in trans.iter().enumerate() {
                if m == 1 {
                    w[i / 64] |= 1u64 << (i % 64);
                }
            }
            w
        };
        group.bench_with_input(BenchmarkId::new("bitset", len), &segs, |b, segs| {
            let mut out = Vec::with_capacity(len);
            b.iter(|| {
                let mut pushed = 0usize;
                for seg in segs {
                    out.clear();
                    intersect_segment_words(seg, &twords, 0, &mut out);
                    pushed += out.len();
                }
                pushed
            })
        });
        // galloping variant: the same segment contents as sorted ascending
        // lists intersected against the transaction's item list (the
        // tid-list `--rep gallop` shape: short side walks, long side is
        // searched exponentially)
        let tlist: Vec<u32> = (0..UNIVERSE).step_by(2).collect();
        let asc_segs: Vec<Vec<u32>> = segs
            .iter()
            .map(|s| {
                let mut v = s.clone();
                v.sort_unstable();
                v
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("gallop", len), &asc_segs, |b, segs| {
            let mut out = Vec::with_capacity(len);
            b.iter(|| {
                let mut pushed = 0usize;
                for seg in segs {
                    gallop_intersect_into(seg, &tlist, &mut out);
                    pushed += out.len();
                }
                pushed
            })
        });
    }
    group.finish();
}

/// The observability primitives the miners keep on their hot path: the
/// always-on counter bump, the strided heartbeat tick, and a span
/// enter/exit pair. Guards the zero-off-path-cost contract with a hard
/// assertion: a counter bump must stay within 100 ns amortized (a plain
/// u64 add — tripping this means an atomic, a lock, or I/O crept into the
/// counter path), and identical runs must produce identical counters.
fn obs_overhead(c: &mut Criterion) {
    use fim_ista::IstaMiner;
    use fim_obs::{Counter, Counters, ProgressEmitter, ProgressSnapshot, ProgressStyle};
    use std::time::{Duration, Instant};

    // determinism + liveness: two identical mined runs, identical nonzero
    // counters (the counters are always on, so this is the regression
    // guard for accidental nondeterminism in the instrumented hot loop)
    let db = Preset::Ncbi60.build(0.1, 1);
    let recoded = RecodedDatabase::prepare(
        &db,
        2,
        ItemOrder::AscendingFrequency,
        TransactionOrder::AscendingSize,
    );
    let (_, first) = IstaMiner::default().mine_with_stats(&recoded, 2);
    let (_, second) = IstaMiner::default().mine_with_stats(&recoded, 2);
    assert_eq!(
        first.counters, second.counters,
        "hot-loop counters must be deterministic"
    );
    assert!(
        first.counters.get(Counter::SegScans) > 0 && first.counters.get(Counter::NodeAllocs) > 0,
        "mining must exercise the counters"
    );

    // the overhead assertion: 2^20 bumps in under ~105 ms (100 ns each)
    const BUMPS: u64 = 1 << 20;
    let mut counters = Counters::new();
    let start = Instant::now();
    for _ in 0..BUMPS {
        criterion::black_box(&mut counters).bump(Counter::SegScans);
    }
    let per_bump = start.elapsed().as_nanos() as f64 / BUMPS as f64;
    assert_eq!(counters.get(Counter::SegScans), BUMPS);
    assert!(
        per_bump < 100.0,
        "counter bump costs {per_bump:.1} ns — the zero-off-path-cost contract is broken"
    );

    let mut group = c.benchmark_group("obs");
    group.bench_function("counters/bump_x1024", |b| {
        let mut counters = Counters::new();
        b.iter(|| {
            for _ in 0..1024 {
                criterion::black_box(&mut counters).bump(Counter::SegScans);
            }
            counters.get(Counter::SegScans)
        })
    });
    group.bench_function("progress/tick_strided_x1024", |b| {
        // an hour-long interval: every tick takes the strided fast path
        let mut emitter = ProgressEmitter::with_writer(
            Duration::from_secs(3600),
            ProgressStyle::JsonLines,
            Box::new(std::io::sink()),
        );
        let snap = ProgressSnapshot {
            processed: 1,
            total: Some(1000),
            pending: 0,
            peak_nodes: 10,
            sets: 5,
        };
        b.iter(|| {
            for _ in 0..1024 {
                emitter.tick(criterion::black_box(&snap));
            }
            emitter.emitted()
        })
    });
    group.bench_function("span/enter_exit", |b| {
        let mut spans = fim_obs::SpanRecorder::new();
        b.iter(|| {
            spans.enter("bench");
            spans.exit();
            spans.num_spans()
        })
    });
    group.finish();
}

fn generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("generate");
    group.sample_size(10);
    group.bench_function("expression/1000x60", |b| {
        b.iter(|| {
            ExpressionMatrix::generate(&ExpressionConfig::default())
                .values()
                .len()
        })
    });
    for preset in [Preset::Ncbi60, Preset::Webview] {
        group.bench_with_input(
            BenchmarkId::new("preset", preset.name()),
            &preset,
            |b, p| b.iter(|| p.build(0.1, 1).num_transactions()),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    itemset_ops,
    database_reps,
    prefix_tree,
    hotpath,
    segment_kernel,
    obs_overhead,
    generators
);
criterion_main!(benches);
