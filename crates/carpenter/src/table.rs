//! The table-based Carpenter variant (paper §3.1.2).
//!
//! The database is the `n × |B|` suffix-count matrix of paper Table 1
//! ([`SuffixCountMatrix`]): entry `m[k][i]` is zero when item `i` is not in
//! transaction `t_k` and otherwise counts the transactions `t_j, j ≥ k`
//! containing `i`. One lookup therefore answers both the membership test
//! and the item-elimination counter, and the recursion state shrinks to a
//! bare item vector — no cursors, no per-item reduced lists. The matrix
//! costs more memory than the tid lists, but saves memory and time inside
//! the recursion, which is why the paper reports it consistently faster
//! than the list variant.

use crate::search::{search, CarpenterConfig, Representation};
use fim_core::{
    ClosedMiner, Item, MineOutcome, MineRequest, MiningResult, RecodedDatabase, SuffixCountMatrix,
    Tid,
};
use fim_obs::{Counter, Counters, Obs};

/// The matrix (Table 1) representation.
pub struct TableRep {
    matrix: SuffixCountMatrix,
    num_items: u32,
}

impl TableRep {
    /// Builds the matrix representation from a recoded database.
    pub fn from_database(db: &RecodedDatabase) -> Self {
        TableRep {
            matrix: SuffixCountMatrix::from_database(db),
            num_items: db.num_items(),
        }
    }

    /// The underlying matrix (for inspection and the Table 1 experiment).
    pub fn matrix(&self) -> &SuffixCountMatrix {
        &self.matrix
    }
}

impl Representation for TableRep {
    /// Just the items of the current intersection, ascending.
    type State = Vec<Item>;

    fn initial_state(&self) -> Self::State {
        (0..self.num_items).collect()
    }

    fn state_len(&self, state: &Self::State) -> usize {
        state.len()
    }

    fn num_transactions(&self) -> u32 {
        self.matrix.num_transactions() as u32
    }

    fn intersect(
        &self,
        state: &mut Self::State,
        tid: Tid,
        k_new: u32,
        minsupp: u32,
        config: CarpenterConfig,
        counters: &mut Counters,
        sub: &mut Self::State,
    ) -> usize {
        // In the matrix representation the suffix count *is* the exact
        // remaining-occurrence bound, so early stopping and item
        // elimination coincide — either switch activates the same drop.
        let drop_hopeless = config.item_elimination || config.early_stop;
        let mut raw = 0usize;
        sub.clear();
        for &item in state.iter() {
            let entry = self.matrix.entry(tid, item);
            if entry != 0 {
                raw += 1;
                // `entry` counts occurrences from `tid` on, including `tid`
                if !drop_hopeless || k_new + (entry - 1) >= minsupp {
                    sub.push(item);
                } else {
                    counters.bump(Counter::Eliminations);
                }
            }
        }
        raw
    }

    fn items<'s>(&'s self, state: &'s Self::State) -> impl DoubleEndedIterator<Item = Item> + 's {
        state.iter().copied()
    }
}

/// The table-based Carpenter miner.
#[derive(Clone, Copy, Debug, Default)]
pub struct CarpenterTableMiner {
    /// Pruning configuration.
    pub config: CarpenterConfig,
}

impl CarpenterTableMiner {
    /// Creates a miner with an explicit configuration.
    pub fn with_config(config: CarpenterConfig) -> Self {
        CarpenterTableMiner { config }
    }
}

impl ClosedMiner for CarpenterTableMiner {
    fn name(&self) -> &'static str {
        if self.config == CarpenterConfig::unpruned() {
            "carpenter-table-noprune"
        } else {
            "carpenter-table"
        }
    }

    fn mine(&self, db: &RecodedDatabase, minsupp: u32) -> MiningResult {
        self.mine_with(db, &MineRequest::new(minsupp), &mut Obs::new())
            .0
            .into_result()
    }

    fn supports_constraints(&self) -> bool {
        true
    }

    /// The [`search`] over the suffix-count matrix. Its counters are the
    /// search's (steps, absorptions, eliminations, repository probes).
    fn mine_with(
        &self,
        db: &RecodedDatabase,
        req: &MineRequest<'_>,
        _obs: &mut Obs,
    ) -> (MineOutcome, Counters) {
        let rep = TableRep::from_database(db);
        let mut counters = Counters::new();
        let outcome = search(&rep, db.num_items(), self.config, req, &mut counters);
        (outcome, counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fim_core::{reference::mine_reference, ItemSet};

    fn paper_db() -> RecodedDatabase {
        RecodedDatabase::from_dense(
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
        )
    }

    #[test]
    fn matches_reference_all_minsupps() {
        let db = paper_db();
        for minsupp in 1..=8 {
            let want = mine_reference(&db, minsupp);
            let got = CarpenterTableMiner::default()
                .mine(&db, minsupp)
                .canonicalized();
            assert_eq!(got, want, "minsupp={minsupp}");
        }
    }

    #[test]
    fn table_and_list_variants_agree() {
        use crate::lists::CarpenterListMiner;
        let db = paper_db();
        for minsupp in 1..=8 {
            let a = CarpenterTableMiner::default()
                .mine(&db, minsupp)
                .canonicalized();
            let b = CarpenterListMiner::default()
                .mine(&db, minsupp)
                .canonicalized();
            assert_eq!(a, b, "minsupp={minsupp}");
        }
    }

    #[test]
    fn intersect_uses_table_1_semantics() {
        let db = paper_db();
        let rep = TableRep::from_database(&db);
        // t2 (tid 1) = {a,d,e} = {0,3,4}; matrix row: a=3, d=6, e=3
        let mut state = rep.initial_state();
        let mut c = Counters::new();
        let mut sub = Vec::new();
        let unpruned = CarpenterConfig::unpruned();
        let raw = rep.intersect(&mut state, 1, 1, 1, unpruned, &mut c, &mut sub);
        assert_eq!(raw, 3);
        assert_eq!(rep.items_of(&sub), ItemSet::from([0, 3, 4]));
        assert_eq!(c.get(Counter::Eliminations), 0);
        // with minsupp 5 and k_new 1: a: 1+(3-1)=3 <5 drop; d: 1+5=6 keep;
        // e: 1+2=3 <5 drop — via item elimination or (equivalently here)
        // early stopping
        for config in [
            CarpenterConfig::default(),
            CarpenterConfig {
                early_stop: true,
                ..CarpenterConfig::unpruned()
            },
        ] {
            let mut state = rep.initial_state();
            let mut c = Counters::new();
            let raw = rep.intersect(&mut state, 1, 1, 5, config, &mut c, &mut sub);
            assert_eq!(raw, 3);
            assert_eq!(rep.items_of(&sub), ItemSet::from([3]));
            assert_eq!(c.get(Counter::Eliminations), 2);
        }
    }

    #[test]
    fn pruning_ablations_agree() {
        let db = paper_db();
        for minsupp in 1..=6 {
            let want = mine_reference(&db, minsupp);
            for c in [CarpenterConfig::default(), CarpenterConfig::unpruned()] {
                let got = CarpenterTableMiner::with_config(c)
                    .mine(&db, minsupp)
                    .canonicalized();
                assert_eq!(got, want, "config={c:?} minsupp={minsupp}");
            }
        }
    }

    #[test]
    fn miner_name() {
        assert_eq!(CarpenterTableMiner::default().name(), "carpenter-table");
        let unpruned = CarpenterTableMiner::with_config(CarpenterConfig::unpruned());
        assert_eq!(unpruned.name(), "carpenter-table-noprune");
    }
}
