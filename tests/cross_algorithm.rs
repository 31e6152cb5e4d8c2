//! The central correctness property of the workspace: **all eight miners
//! return the identical collection of closed frequent item sets** on any
//! database, at any minimum support — each equal to the brute-force
//! reference.

use closed_fim::prelude::*;
use fim_core::reference::mine_reference;
use fim_core::RecodedDatabase;
use proptest::collection::vec;
use proptest::prelude::*;

fn all_miners() -> Vec<Box<dyn ClosedMiner>> {
    vec![
        Box::new(IstaMiner::default()),
        Box::new(CarpenterListMiner::default()),
        Box::new(CarpenterTableMiner::default()),
        Box::new(FpCloseMiner),
        Box::new(LcmMiner),
        Box::new(EclatMiner::default()),
        Box::new(DEclatMiner::default()),
        Box::new(SamMiner),
        Box::new(AprioriMiner),
        Box::new(NaiveCumulativeMiner),
    ]
}

#[test]
fn paper_example_all_miners_all_supports() {
    let db = RecodedDatabase::from_dense(
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
    );
    for minsupp in 1..=8 {
        let want = mine_reference(&db, minsupp);
        for miner in all_miners() {
            let got = miner.mine(&db, minsupp).canonicalized();
            assert_eq!(got, want, "{} at minsupp {}", miner.name(), minsupp);
        }
    }
}

#[test]
fn synthetic_presets_all_miners_agree() {
    use closed_fim::synth::Preset;
    // small instances of each preset; supports chosen so the slowest
    // baseline still finishes (debug builds are ~30x slower than release)
    let cases = [
        (Preset::Yeast, 0.03, 3u32),
        (Preset::Ncbi60, 0.08, 4),
        (Preset::Thrombin, 0.03, 2),
        (Preset::Webview, 0.03, 2),
    ];
    for (preset, scale, supp) in cases {
        let db = preset.build(scale, 11);
        let mut reference: Option<MiningResult> = None;
        for miner in all_miners() {
            // Apriori and SaM materialize *all* frequent sets; on the
            // gene-shaped presets a single large closed set implies an
            // exponential number of frequent subsets. Eclat variants
            // collapse perfect extensions but still walk large parts of
            // that space on the blocky expression data. These are
            // validated on small random databases instead (proptests).
            if matches!(miner.name(), "apriori" | "sam" | "eclat" | "declat") {
                continue;
            }
            let got = mine_closed(&db, supp, miner.as_ref());
            match &reference {
                None => reference = Some(got),
                Some(want) => {
                    assert_eq!(&got, want, "{} on {}", miner.name(), preset.name());
                }
            }
        }
        let found = reference.unwrap();
        assert!(
            !found.is_empty(),
            "{} at supp {supp} found nothing — weak test",
            preset.name()
        );
    }
}

#[test]
fn mined_sets_are_closed_and_supports_exact() {
    use closed_fim::synth::Preset;
    let db = Preset::Ncbi60.build(0.1, 3);
    let result = mine_closed(&db, 4, &IstaMiner::default());
    assert!(!result.is_empty());
    for fs in &result.sets {
        // exact support by scanning the raw database
        assert_eq!(db.support(&fs.items), fs.support, "{:?}", fs.items);
        // closed: intersection of covering transactions equals the set
        let cover = db.cover(&fs.items);
        let mut inter: Option<ItemSet> = None;
        for &tid in &cover {
            let t = ItemSet::from(&db.transactions()[tid as usize]);
            inter = Some(match inter {
                None => t,
                Some(acc) => acc.intersect(&t),
            });
        }
        assert_eq!(inter.unwrap(), fs.items, "not closed");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_databases_all_miners_agree(
        txs in vec(vec(0u32..8, 0..9usize), 0..12),
        minsupp in 1u32..5,
    ) {
        let db = RecodedDatabase::from_dense(txs, 8);
        let want = mine_reference(&db, minsupp);
        for miner in all_miners() {
            let got = miner.mine(&db, minsupp).canonicalized();
            prop_assert_eq!(&got, &want, "{}", miner.name());
        }
    }
}
