//! Property tests for the path-compressed (Patricia) prefix tree.
//!
//! The Patricia layout (paper §3.3) must be a pure representation change:
//! every configuration — prune policy × segment kernel × minimum support,
//! in memory and sharded out of core — has to report exactly the closed
//! sets of the brute-force reference. On top of the equivalence
//! sweep, the suite pins order-independence of the stored repository
//! (split/merge churn from different insertion orders must converge to
//! the same conceptual node set) and the snapshot compatibility path: a
//! version-1 chain snapshot — synthesized byte-for-byte from the current
//! version-2 format by expanding segments into chains — must load into an
//! observably identical tree and survive corruption attempts.

use fim_core::reference::mine_reference;
use fim_core::{Budget, ClosedMiner, Item, MiningResult, RecodedDatabase};
use fim_ista::snapshot::{crc32, read_tree, write_tree, MAGIC};
use fim_ista::{IstaConfig, IstaMiner, OutOfCoreConfig, OutOfCoreMiner, PrefixTree, PrunePolicy};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Mines `db` through the out-of-core pipeline under `policy`. The 64-byte
/// budget closes a shard after one or two transactions, so every database
/// of more than two rows is mined as several shard trees that are spilled,
/// reloaded and merged.
fn mine_out_of_core(db: &RecodedDatabase, minsupp: u32, policy: PrunePolicy) -> MiningResult {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("fim-patricia-prop-{}-{n}", std::process::id()));
    let mut config = OutOfCoreConfig::new(64, &dir);
    config.policy = policy;
    let txs = db.transactions();
    let mut i = 0usize;
    let (outcome, _) = OutOfCoreMiner::with_config(config)
        .mine_stream(
            db.num_items(),
            db.item_supports(),
            Some(txs.len() as u64),
            minsupp,
            &Budget::unlimited(),
            |buf| {
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
        .expect("pipeline");
    let _ = std::fs::remove_dir_all(&dir);
    outcome.into_result()
}

/// Strategy: a database of up to 14 transactions over up to 9 items.
fn small_db() -> impl Strategy<Value = RecodedDatabase> {
    (2u32..=9).prop_flat_map(|num_items| {
        vec(vec(0..num_items, 0..=num_items as usize), 0..14)
            .prop_map(move |txs| RecodedDatabase::from_dense(txs, num_items))
    })
}

/// Strategy: longer, overlapping transactions — the shape that actually
/// produces multi-item segments and split churn.
fn chainy_db() -> impl Strategy<Value = RecodedDatabase> {
    vec((0u32..12, 1u32..=12), 1..10).prop_map(|ranges| {
        let txs: Vec<Vec<Item>> = ranges
            .into_iter()
            .map(|(lo, len)| (lo..(lo + len).min(12)).collect())
            .collect();
        RecodedDatabase::from_dense(txs, 12)
    })
}

/// Strategy: every pruning-placement policy the miners support.
fn any_policy() -> impl Strategy<Value = PrunePolicy> {
    prop_oneof![
        Just(PrunePolicy::Never),
        Just(PrunePolicy::EveryN(1)),
        Just(PrunePolicy::EveryN(3)),
        Just(PrunePolicy::Growth(1.2)),
        Just(PrunePolicy::Growth(2.0)),
    ]
}

/// Canonical (items, support) view of a mining result, for comparison.
fn canon(r: &MiningResult) -> Vec<(Vec<Item>, u32)> {
    let mut v: Vec<(Vec<Item>, u32)> = r
        .sets
        .iter()
        .map(|f| (f.items.as_slice().to_vec(), f.support))
        .collect();
    v.sort();
    v
}

/// Canonical view of the whole stored repository (every conceptual node).
fn canon_dump(t: &PrefixTree) -> Vec<(Vec<Item>, u32)> {
    let mut v: Vec<(Vec<Item>, u32)> = t
        .dump()
        .into_iter()
        .map(|(s, supp)| (s.as_slice().to_vec(), supp))
        .collect();
    v.sort();
    v
}

/// Expands a version-2 (Patricia) snapshot into version-1 (chain) bytes:
/// each node's segment becomes a unary chain of single-item v1 nodes. The
/// test uses this to synthesize genuine v1 files — the legacy writer no
/// longer exists — and to pin the v1 reader against the v2 semantics.
fn v2_to_v1(buf: &[u8]) -> Vec<u8> {
    let u32_at =
        |off: usize| u32::from_le_bytes(buf[off..off + 4].try_into().expect("4-byte slice"));
    assert_eq!(&buf[..4], &MAGIC);
    assert_eq!(u32_at(4), 2, "expander expects a v2 snapshot");
    let num_items = u32_at(8);
    let weight = u32_at(12);
    let node_count = u32_at(16) as usize;
    let seg_items = u32_at(20) as usize;
    let nodes_base = 24;
    let items_base = nodes_base + node_count * 24;
    assert_eq!(buf.len(), items_base + seg_items * 4 + 4, "v2 layout");
    let item_at = |idx: usize| u32_at(items_base + idx * 4);

    // first pass: new index of each v2 node's chain head (the root keeps
    // index 0; a chain occupies seg_len consecutive v1 slots)
    let mut head = vec![0u32; node_count];
    let mut next = 0u32;
    for (k, h) in head.iter_mut().enumerate() {
        *h = next;
        let seg_len = u32_at(nodes_base + k * 24 + 4);
        next += seg_len.max(1);
    }
    let total = next;
    let none = u32::MAX;
    let map = |idx: u32| {
        if idx == none {
            none
        } else {
            head[idx as usize]
        }
    };

    let mut body = Vec::new();
    let mut push = |v: u32| body.extend_from_slice(&v.to_le_bytes());
    push(1); // version
    push(num_items);
    push(weight);
    push(total);
    for (k, &chain_head) in head.iter().enumerate() {
        let at = nodes_base + k * 24;
        let (seg_off, seg_len, supp, raw, sibling, children) = (
            u32_at(at) as usize,
            u32_at(at + 4) as usize,
            u32_at(at + 8),
            u32_at(at + 12),
            u32_at(at + 16),
            u32_at(at + 20),
        );
        if seg_len == 0 {
            // the root: v1 stores the pseudo-item sentinel
            for v in [none, supp, raw, map(sibling), map(children)] {
                push(v);
            }
            continue;
        }
        for j in 0..seg_len {
            let last = j + 1 == seg_len;
            for v in [
                item_at(seg_off + j),
                supp,
                if last { raw } else { 0 },
                if j == 0 { map(sibling) } else { none },
                if last {
                    map(children)
                } else {
                    chain_head + j as u32 + 1
                },
            ] {
                push(v);
            }
        }
    }
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&body);
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out
}

/// Builds a Patricia tree directly from raw transactions.
fn build_tree(db: &RecodedDatabase) -> PrefixTree {
    let mut t = PrefixTree::new(db.num_items());
    for tx in db.transactions() {
        if !tx.is_empty() {
            t.add_transaction(tx);
        }
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The acceptance sweep: Patricia == reference for every prune policy,
    /// both segment kernels, every minimum support, in memory and sharded
    /// out of core.
    #[test]
    fn patricia_matches_reference(
        db in small_db(),
        minsupp in 1u32..6,
        policy in any_policy(),
    ) {
        let want = mine_reference(&db, minsupp).canonicalized();
        let patricia = IstaMiner::with_config(IstaConfig {
            policy,
            ..IstaConfig::default()
        })
        .mine(&db, minsupp)
        .canonicalized();
        prop_assert_eq!(canon(&patricia), canon(&want), "patricia, policy={:?}", policy);
        let bitset = IstaMiner::with_config(IstaConfig {
            policy,
            ..IstaConfig::bitset()
        })
        .mine(&db, minsupp)
        .canonicalized();
        prop_assert_eq!(canon(&bitset), canon(&want), "bitset, policy={:?}", policy);
        let sharded = mine_out_of_core(&db, minsupp, policy).canonicalized();
        prop_assert_eq!(canon(&sharded), canon(&want), "out of core, policy={:?}", policy);
    }

    /// Same sweep on the segment-heavy shape (long overlapping ranges),
    /// which drives the split/merge machinery much harder than uniform
    /// random rows.
    #[test]
    fn patricia_matches_reference_on_chainy_data(
        db in chainy_db(),
        minsupp in 1u32..5,
        policy in any_policy(),
    ) {
        let want = mine_reference(&db, minsupp).canonicalized();
        let patricia = IstaMiner::with_config(IstaConfig {
            policy,
            ..IstaConfig::default()
        })
        .mine(&db, minsupp)
        .canonicalized();
        prop_assert_eq!(canon(&patricia), canon(&want), "policy={:?}", policy);
        let bitset = IstaMiner::with_config(IstaConfig {
            policy,
            ..IstaConfig::bitset()
        })
        .mine(&db, minsupp)
        .canonicalized();
        prop_assert_eq!(canon(&bitset), canon(&want), "bitset, policy={:?}", policy);
    }

    /// The stored repository is a *set* of closed item sets, so processing
    /// the same transactions in a different order must converge to the
    /// same conceptual nodes with the same supports — even though the
    /// physical split/merge history is completely different. This pins
    /// the split machinery: a wrong split would leave divergent segments.
    #[test]
    fn insertion_order_is_immaterial_to_the_stored_repository(
        db in chainy_db(),
        seed in 0u64..u64::MAX,
    ) {
        let forward = build_tree(&db);
        forward.validate_invariants();
        let mut shuffled: Vec<&[Item]> =
            db.transactions().iter().map(AsRef::as_ref).collect();
        // cheap deterministic shuffle (Fisher–Yates with an LCG)
        let mut state = seed | 1;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            shuffled.swap(i, (state >> 33) as usize % (i + 1));
        }
        let mut reordered = PrefixTree::new(db.num_items());
        for tx in shuffled {
            if !tx.is_empty() {
                reordered.add_transaction(tx);
            }
        }
        reordered.validate_invariants();
        prop_assert_eq!(canon_dump(&forward), canon_dump(&reordered));
    }

    /// v1 → v2 compatibility: a legacy chain snapshot (synthesized from
    /// the v2 bytes) loads into an observably identical tree, and both
    /// resume identically.
    #[test]
    fn v1_chain_snapshot_loads_identically(db in small_db(), extra in small_db()) {
        let mut t = build_tree(&db);
        let mut v2 = Vec::new();
        write_tree(&mut t, &mut v2).expect("write to Vec cannot fail");
        let v1 = v2_to_v1(&v2);
        let mut from_v1 = read_tree(&mut v1.as_slice()).expect("v1 load");
        from_v1.validate_invariants();
        let mut from_v2 = read_tree(&mut v2.as_slice()).expect("v2 load");
        prop_assert_eq!(canon_dump(&from_v1), canon_dump(&from_v2));
        prop_assert_eq!(
            from_v1.transactions_processed(),
            from_v2.transactions_processed()
        );
        // conceptual nodes agree although v1 loads uncompressed
        prop_assert_eq!(
            from_v1.memory_stats().seg_items,
            from_v2.memory_stats().seg_items
        );
        // resume both with fresh transactions over the same universe
        from_v1.grow_universe(extra.num_items());
        from_v2.grow_universe(extra.num_items());
        for tx in extra.transactions() {
            if tx.is_empty() {
                continue;
            }
            let tx: Vec<Item> = tx.iter().copied().filter(|&i| i < from_v1.num_items()).collect();
            if tx.is_empty() {
                continue;
            }
            from_v1.add_transaction(&tx);
            from_v2.add_transaction(&tx);
        }
        from_v1.validate_invariants();
        from_v2.validate_invariants();
        prop_assert_eq!(canon_dump(&from_v1), canon_dump(&from_v2));
    }

    /// Corrupting any single byte of a synthesized v1 snapshot must be
    /// rejected (CRC or structural validation), never panic or load.
    #[test]
    fn corrupted_v1_snapshot_is_rejected(db in small_db(), pos_seed in any::<u64>()) {
        let mut t = build_tree(&db);
        let mut v2 = Vec::new();
        write_tree(&mut t, &mut v2).expect("write to Vec cannot fail");
        let v1 = v2_to_v1(&v2);
        let pos = (pos_seed % v1.len() as u64) as usize;
        let mut bad = v1.clone();
        bad[pos] ^= 0x5A;
        prop_assert!(
            read_tree(&mut bad.as_slice()).is_err(),
            "flip at byte {} went undetected", pos
        );
        // and truncation at that byte as well
        prop_assert!(read_tree(&mut &v1[..pos]).is_err());
    }

    /// Snapshot round trip across pruning churn: prune mid-build, write,
    /// reload, and the reloaded tree must continue exactly like the
    /// original (v2 round-trip equivalence under the Patricia layout).
    #[test]
    fn pruned_tree_round_trips_through_v2(
        db in chainy_db(),
        minsupp in 1u32..4,
    ) {
        let txs: Vec<&[Item]> = db.transactions().iter().map(AsRef::as_ref).collect();
        let mid = txs.len() / 2;
        let mut remaining = vec![0u32; db.num_items() as usize];
        for tx in &txs[mid..] {
            for &i in tx.iter() {
                remaining[i as usize] += 1;
            }
        }
        let mut t = PrefixTree::new(db.num_items());
        for tx in &txs[..mid] {
            if !tx.is_empty() {
                t.add_transaction(tx);
            }
        }
        t.prune(&remaining, minsupp);
        t.validate_invariants();
        let mut buf = Vec::new();
        write_tree(&mut t, &mut buf).expect("write to Vec cannot fail");
        let mut reloaded = read_tree(&mut buf.as_slice()).expect("round trip");
        for tx in &txs[mid..] {
            if !tx.is_empty() {
                t.add_transaction(tx);
                reloaded.add_transaction(tx);
            }
        }
        reloaded.validate_invariants();
        prop_assert_eq!(canon_dump(&t), canon_dump(&reloaded));
    }
}

/// Deterministic split/merge unit cases that proptest shrinkage tends to
/// miss: exact segment boundaries around an alias split inside `isect`.
#[test]
fn alias_split_mid_segment_keeps_supports_exact() {
    // [0..6) stored as one segment, then [2..6) forces a split at depth 4
    // where the *source* of the traversal is the node being split
    let mut t = PrefixTree::new(6);
    t.add_transaction(&[0, 1, 2, 3, 4, 5]);
    t.add_transaction(&[2, 3, 4, 5]);
    t.validate_invariants();
    let db = RecodedDatabase::from_dense(vec![(0..6).collect(), (2..6).collect()], 6);
    for (set, supp) in t.dump() {
        assert_eq!(db.support(&set), supp, "{set:?}");
    }
    // shared prefix [5,4,3,2] is one node; suffix [1,0] another
    assert_eq!(t.node_count(), 2);
}

#[test]
fn interleaved_prefix_suffix_splits_converge() {
    // transactions engineered so every insertion ends in a different
    // relative position: inside a segment, at a boundary, and past a leaf
    let rows: Vec<Vec<Item>> = vec![
        (0..8).collect(),
        (0..4).collect(),
        (2..8).collect(),
        (2..4).collect(),
        (0..8).collect(),
        vec![0, 7],
    ];
    let db = RecodedDatabase::from_dense(rows, 8);
    let t = build_tree(&db);
    t.validate_invariants();
    for (set, supp) in t.dump() {
        assert_eq!(db.support(&set), supp, "{set:?}");
    }
    let want = mine_reference(&db, 1);
    let got = IstaMiner::default().mine(&db, 1).canonicalized();
    assert_eq!(canon(&got), canon(&want));
}
