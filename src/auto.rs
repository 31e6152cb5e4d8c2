//! Shape-based algorithm selection.
//!
//! The paper's central empirical finding is that the best algorithm
//! depends on the database shape: transaction intersection wins when there
//! are few transactions and very many items; item set enumeration wins in
//! the classic many-transactions regime. (Cobbler, the paper's reference
//! [16], switches between row and column enumeration *during* the search;
//! this dispatcher makes the coarser per-database choice up front, which
//! already captures most of the benefit on clearly-shaped inputs.)
//!
//! Orthogonally to the row/column choice, the dispatcher picks the physical
//! tid-set kernel ([`Representation`]) from the measured database
//! [`Density`]: packed bitsets once there are enough transactions for the
//! word-AND + popcount stream to pay (tid-sets spanning several words),
//! galloping merges in the many-rows ultra-sparse tail, and sorted lists
//! everywhere tid-sets are short (see [`Representation::select`] for the
//! thresholds, calibrated against EXPERIMENTS.md E14, which also records
//! the shapes where they pick a slower kernel).

use fim_baseline::{EclatMiner, LcmMiner};
use fim_core::{ClosedMiner, MiningResult, RecodedDatabase, Representation};
use fim_ista::{IstaConfig, IstaMiner};

/// Which algorithm the dispatcher selected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Choice {
    /// Cumulative intersection (few transactions, many items).
    Intersection,
    /// Item set enumeration (many transactions, few items).
    Enumeration,
}

/// A miner that picks between IsTa and LCM based on the database shape,
/// and the tid-set kernel based on the database density.
///
/// The decision rule: intersect when the item count is at least
/// `ratio_threshold` times the transaction count. The paper's data sets
/// put the regimes far apart (yeast: 300 × 12,632 vs. BMS-WebView-1:
/// 59,602 × 497), so the threshold is not sensitive; 2.0 is the default.
///
/// A *degenerate* database — no transactions, no items, or no item
/// occurrences at all ([`Density::is_degenerate`]) — is routed to
/// enumeration with the scalar kernel explicitly, without consulting the
/// ratio test: every miner returns the same (empty) answer there, and a
/// ratio on a zero denominator is meaningless, so the dispatcher picks the
/// cheapest setup instead of fudging the division.
#[derive(Clone, Copy, Debug)]
pub struct AutoMiner {
    /// Items-per-transaction ratio above which intersection is chosen.
    pub ratio_threshold: f64,
    /// Kernel override: `None` selects by density, `Some(rep)` forces one
    /// (the CLI `--rep` flag).
    pub rep: Option<Representation>,
}

impl Default for AutoMiner {
    fn default() -> Self {
        AutoMiner {
            ratio_threshold: 2.0,
            rep: None,
        }
    }
}

impl AutoMiner {
    /// A dispatcher with a forced kernel (the density rule is bypassed).
    pub fn with_rep(rep: Representation) -> Self {
        AutoMiner {
            rep: Some(rep),
            ..AutoMiner::default()
        }
    }

    /// The choice the dispatcher would make for `db`.
    pub fn choose(&self, db: &RecodedDatabase) -> Choice {
        if db.density().is_degenerate() {
            return Choice::Enumeration;
        }
        let items = db.num_items() as f64;
        let txs = db.num_transactions() as f64;
        if items >= self.ratio_threshold * txs {
            Choice::Intersection
        } else {
            Choice::Enumeration
        }
    }

    /// The kernel the dispatcher would run for `db`: the forced override
    /// when one is set, otherwise the density rule of
    /// [`Representation::select`].
    pub fn choose_rep(&self, db: &RecodedDatabase) -> Representation {
        self.rep
            .unwrap_or_else(|| Representation::select(&db.density()))
    }
}

impl ClosedMiner for AutoMiner {
    fn name(&self) -> &'static str {
        "auto"
    }

    fn mine(&self, db: &RecodedDatabase, minsupp: u32) -> MiningResult {
        let rep = self.choose_rep(db);
        match self.choose(db) {
            Choice::Intersection => {
                // ista has a bitset segment kernel; galloping has no ista
                // analog (the epoch probe is already O(1)), so it runs the
                // scalar path
                let rep = if rep == Representation::Bitset {
                    rep
                } else {
                    Representation::Scalar
                };
                IstaMiner::with_config(IstaConfig::with_rep(rep)).mine(db, minsupp)
            }
            Choice::Enumeration => {
                // LCM carries no tid sets at all, so a kernel selection
                // routes to the kernelized Eclat instead
                if rep == Representation::Scalar {
                    LcmMiner.mine(db, minsupp)
                } else {
                    EclatMiner::with_rep(rep).mine(db, minsupp)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fim_core::reference::mine_reference;

    #[test]
    fn chooses_by_shape() {
        let auto = AutoMiner::default();
        // 2 transactions over 10 items → intersection
        let wide = RecodedDatabase::from_dense(vec![vec![0, 5, 9], vec![1, 5]], 10);
        assert_eq!(auto.choose(&wide), Choice::Intersection);
        // 10 transactions over 3 items → enumeration
        let tall = RecodedDatabase::from_dense(vec![vec![0, 1]; 10], 3);
        assert_eq!(auto.choose(&tall), Choice::Enumeration);
    }

    #[test]
    fn degenerate_databases_choose_enumeration_scalar_explicitly() {
        let auto = AutoMiner::default();
        // no transactions: the ratio test would divide by zero — the old
        // max(1) fudge routed "0 transactions, 1+ items" to intersection
        // as a side effect; now the routing is explicit
        let no_txs = RecodedDatabase::from_dense(vec![], 7);
        assert_eq!(auto.choose(&no_txs), Choice::Enumeration);
        assert_eq!(auto.choose_rep(&no_txs), Representation::Scalar);
        assert!(auto.mine(&no_txs, 1).is_empty());
        // no items
        let no_items = RecodedDatabase::from_dense(vec![vec![], vec![]], 0);
        assert_eq!(auto.choose(&no_items), Choice::Enumeration);
        assert!(auto.mine(&no_items, 1).is_empty());
        // transactions and items exist but every transaction is empty
        let no_ones = RecodedDatabase::from_dense(vec![vec![], vec![]], 4);
        assert_eq!(auto.choose(&no_ones), Choice::Enumeration);
        assert_eq!(auto.choose_rep(&no_ones), Representation::Scalar);
        assert!(auto.mine(&no_ones, 1).is_empty());
    }

    #[test]
    fn rep_follows_density_and_override() {
        let auto = AutoMiner::default();
        // fully dense with enough rows for word-parallelism to pay → bitset
        let dense = RecodedDatabase::from_dense(vec![(0..8).collect::<Vec<u32>>(); 300], 8);
        assert_eq!(auto.choose_rep(&dense), Representation::Bitset);
        // same fill but only a handful of rows: tid-sets fit one word, the
        // scalar cursors win (E14), so the dispatcher keeps scalar
        let short = RecodedDatabase::from_dense(vec![(0..8).collect::<Vec<u32>>(); 4], 8);
        assert_eq!(auto.choose_rep(&short), Representation::Scalar);
        // an override wins over the density rule
        assert_eq!(
            AutoMiner::with_rep(Representation::Scalar).choose_rep(&dense),
            Representation::Scalar
        );
        assert_eq!(
            AutoMiner::with_rep(Representation::Gallop).choose_rep(&dense),
            Representation::Gallop
        );
    }

    #[test]
    fn correct_in_both_regimes() {
        let auto = AutoMiner::default();
        let wide = RecodedDatabase::from_dense(
            vec![
                vec![0, 2, 4, 6, 8],
                vec![0, 1, 2, 3, 4],
                vec![4, 5, 6, 7, 8],
            ],
            9,
        );
        assert_eq!(
            auto.mine(&wide, 1).canonicalized(),
            mine_reference(&wide, 1)
        );
        let tall =
            RecodedDatabase::from_dense((0..12).map(|k| vec![k % 3, (k + 1) % 3]).collect(), 3);
        assert_eq!(
            auto.mine(&tall, 2).canonicalized(),
            mine_reference(&tall, 2)
        );
    }

    #[test]
    fn forced_kernels_mine_identically() {
        let db = RecodedDatabase::from_dense(
            vec![
                vec![0, 1, 2, 5],
                vec![1, 2, 3],
                vec![0, 2, 3, 4],
                vec![1, 4, 5],
            ],
            6,
        );
        let want = mine_reference(&db, 2);
        for rep in [
            Representation::Scalar,
            Representation::Bitset,
            Representation::Gallop,
        ] {
            let got = AutoMiner::with_rep(rep).mine(&db, 2).canonicalized();
            assert_eq!(got, want, "rep={rep}");
        }
    }

    #[test]
    fn threshold_is_respected() {
        let db = RecodedDatabase::from_dense(vec![vec![0, 1, 2]; 2], 3);
        // 3 items, 2 transactions: ratio 1.5
        assert_eq!(
            AutoMiner {
                ratio_threshold: 1.0,
                ..AutoMiner::default()
            }
            .choose(&db),
            Choice::Intersection
        );
        assert_eq!(
            AutoMiner {
                ratio_threshold: 2.0,
                ..AutoMiner::default()
            }
            .choose(&db),
            Choice::Enumeration
        );
    }
}
