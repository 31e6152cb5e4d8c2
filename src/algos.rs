//! The algorithm table: every name that `fim mine --algo`, `fim rules` and
//! the experiment runners accept, each mapped to a configured miner of its
//! family.
//!
//! Suffixed and ablation names (`eclat-bitset`, `ista-noprune`,
//! `carpenter-table-noelim`, …) are rows of their own that mean "family +
//! configuration": the family's miner with one setting changed. Adding such
//! a name is a one-row change. A caller that configures a miner further, as
//! the CLI does with `--rep`, `--no-prune`, `--no-patricia` and
//! `--threads`, changes the same fields a row sets, so a name and its flag
//! spelling build the same miner.

use fim_baseline::{
    AprioriMiner, DEclatMiner, EclatMiner, FpCloseMiner, LcmClassicMiner, LcmMiner,
    NaiveCumulativeMiner, SamMiner,
};
use fim_carpenter::{CarpenterConfig, CarpenterListMiner, CarpenterTableMiner};
use fim_core::{ClosedMiner, Representation};
use fim_ista::{IstaConfig, IstaMiner, ParallelIstaMiner};

/// A configured miner, by family. The families with run counters keep
/// their concrete type, so a caller can set their configuration and reach
/// their `mine_with_stats` entry points; the rest are used through
/// [`ClosedMiner`] only.
#[derive(Clone, Copy)]
pub enum Miner {
    /// Sequential IsTa (paper §3.2–3.3).
    Ista(IstaMiner),
    /// IsTa over sharded prefix trees, merged at the end.
    ParallelIsta(ParallelIstaMiner),
    /// Carpenter over per-item tid lists.
    CarpenterLists(CarpenterListMiner),
    /// Carpenter over the Table-1 matrix.
    CarpenterTable(CarpenterTableMiner),
    /// Eclat with a closed-set filter.
    Eclat(EclatMiner),
    /// Diffset Eclat with a closed-set filter.
    DEclat(DEclatMiner),
    /// A family without run counters: FP-close, LCM, SaM, Apriori and the
    /// naive cumulative scheme.
    Uncounted(&'static dyn ClosedMiner),
}

/// A table row: a name and the miner it builds.
type Row = (&'static str, fn() -> Miner);

/// Every algorithm in `fim algos` order, grouped by family, each family's
/// default miner first.
const TABLE: [Row; 27] = [
    ("ista", || Miner::Ista(IstaMiner::default())),
    ("ista-par", || {
        Miner::ParallelIsta(ParallelIstaMiner::default())
    }),
    ("ista-noprune", || {
        Miner::Ista(IstaMiner::with_config(IstaConfig::without_pruning()))
    }),
    ("ista-plain", || {
        Miner::Ista(IstaMiner::with_config(IstaConfig::without_patricia()))
    }),
    ("ista-bitset", || {
        Miner::Ista(IstaMiner::with_config(IstaConfig::bitset()))
    }),
    ("carpenter-lists", || {
        Miner::CarpenterLists(CarpenterListMiner::default())
    }),
    ("carpenter-lists-bitset", || {
        Miner::CarpenterLists(CarpenterListMiner::with_rep(Representation::Bitset))
    }),
    ("carpenter-lists-gallop", || {
        Miner::CarpenterLists(CarpenterListMiner::with_rep(Representation::Gallop))
    }),
    ("carpenter-lists-noelim", || {
        Miner::CarpenterLists(CarpenterListMiner::with_config(CarpenterConfig {
            item_elimination: false,
            ..CarpenterConfig::default()
        }))
    }),
    ("carpenter-lists-noearly", || {
        Miner::CarpenterLists(CarpenterListMiner::with_config(CarpenterConfig {
            early_stop: false,
            ..CarpenterConfig::default()
        }))
    }),
    ("carpenter-table", || {
        Miner::CarpenterTable(CarpenterTableMiner::default())
    }),
    ("carpenter-table-noprune", || {
        Miner::CarpenterTable(CarpenterTableMiner::with_config(CarpenterConfig::unpruned()))
    }),
    ("carpenter-table-noelim", || {
        Miner::CarpenterTable(CarpenterTableMiner::with_config(CarpenterConfig {
            item_elimination: false,
            ..CarpenterConfig::default()
        }))
    }),
    ("carpenter-table-noabsorb", || {
        Miner::CarpenterTable(CarpenterTableMiner::with_config(CarpenterConfig {
            perfect_extension: false,
            ..CarpenterConfig::default()
        }))
    }),
    ("carpenter-table-norepo", || {
        Miner::CarpenterTable(CarpenterTableMiner::with_config(CarpenterConfig {
            repo_prune: false,
            ..CarpenterConfig::default()
        }))
    }),
    ("fpclose", || Miner::Uncounted(&FpCloseMiner)),
    ("lcm", || Miner::Uncounted(&LcmMiner)),
    ("lcm-noreuse", || Miner::Uncounted(&LcmClassicMiner)),
    ("eclat", || Miner::Eclat(EclatMiner::default())),
    ("eclat-bitset", || {
        Miner::Eclat(EclatMiner::with_rep(Representation::Bitset))
    }),
    ("eclat-gallop", || {
        Miner::Eclat(EclatMiner::with_rep(Representation::Gallop))
    }),
    ("declat", || Miner::DEclat(DEclatMiner::default())),
    ("declat-bitset", || {
        Miner::DEclat(DEclatMiner::with_rep(Representation::Bitset))
    }),
    ("declat-gallop", || {
        Miner::DEclat(DEclatMiner::with_rep(Representation::Gallop))
    }),
    ("sam", || Miner::Uncounted(&SamMiner)),
    ("apriori", || Miner::Uncounted(&AprioriMiner)),
    ("naive-cumulative", || {
        Miner::Uncounted(&NaiveCumulativeMiner)
    }),
];

/// The algorithm `fim mine` and `fim rules` run without `--algo`: the
/// table's first row.
pub const DEFAULT: &str = TABLE[0].0;

/// Every algorithm name, in table order.
pub fn names() -> impl Iterator<Item = &'static str> {
    TABLE.iter().map(|(name, _)| *name)
}

impl Miner {
    /// The miner of the table row `name`.
    pub fn by_name(name: &str) -> Result<Miner, String> {
        TABLE
            .iter()
            .find(|(row, _)| *row == name)
            .map(|(_, build)| build())
            .ok_or_else(|| format!("unknown algorithm '{name}'"))
    }

    /// The miner behind the common trait.
    pub fn as_dyn(&self) -> &dyn ClosedMiner {
        match self {
            Miner::Ista(m) => m,
            Miner::ParallelIsta(m) => m,
            Miner::CarpenterLists(m) => m,
            Miner::CarpenterTable(m) => m,
            Miner::Eclat(m) => m,
            Miner::DEclat(m) => m,
            Miner::Uncounted(m) => *m,
        }
    }

    /// The family's name: the name of its default miner, the first row of
    /// the family. Whatever a family cannot do, none of its rows can, so
    /// messages about it name the family.
    pub fn family(&self) -> &'static str {
        match self {
            Miner::Ista(_) => IstaMiner::default().name(),
            Miner::ParallelIsta(_) => ParallelIstaMiner::default().name(),
            Miner::CarpenterLists(_) => CarpenterListMiner::default().name(),
            Miner::CarpenterTable(_) => CarpenterTableMiner::default().name(),
            Miner::Eclat(_) => EclatMiner::default().name(),
            Miner::DEclat(_) => DEclatMiner::default().name(),
            Miner::Uncounted(m) => m.name(),
        }
    }

    /// The tid-set kernel the miner runs; scalar for the families without
    /// a kernel choice.
    pub fn rep(&self) -> Representation {
        match self {
            Miner::Ista(m) => m.config.rep,
            Miner::CarpenterLists(m) => m.rep,
            Miner::Eclat(m) => m.rep,
            Miner::DEclat(m) => m.rep,
            _ => Representation::Scalar,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fim_core::reference::mine_reference;
    use fim_core::{ItemOrder, RecodedDatabase, TransactionDatabase, TransactionOrder};

    #[test]
    fn names_are_unique_and_resolve() {
        let mut names: Vec<&str> = names().collect();
        assert_eq!(names.len(), 27);
        for name in &names {
            assert!(Miner::by_name(name).is_ok(), "{name}");
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 27, "duplicate table rows");
        let err = Miner::by_name("bogus").err().unwrap();
        assert_eq!(err, "unknown algorithm 'bogus'");
    }

    #[test]
    fn every_family_is_named_by_its_first_row() {
        let mut seen = Vec::new();
        for name in names() {
            let family = Miner::by_name(name).unwrap().family();
            if !seen.contains(&family) {
                assert_eq!(name, family, "a family's first row is its default miner");
                seen.push(family);
            }
        }
    }

    #[test]
    fn every_row_mines_the_reference_answer() {
        let db = TransactionDatabase::from_named(&[
            vec!["a", "b", "c"],
            vec!["a", "d", "e"],
            vec!["b", "c", "d"],
            vec!["a", "b", "c", "d"],
            vec!["b", "c"],
            vec!["a", "b", "d"],
            vec!["d", "e"],
            vec!["c", "d", "e"],
        ]);
        for minsupp in [1, 2, 3] {
            let recoded = RecodedDatabase::prepare(
                &db,
                minsupp,
                ItemOrder::default(),
                TransactionOrder::default(),
            );
            let want = mine_reference(&recoded, minsupp).canonicalized();
            for name in names() {
                let miner = Miner::by_name(name).unwrap();
                let got = miner.as_dyn().mine(&recoded, minsupp).canonicalized();
                assert_eq!(got, want, "{name} at minsupp {minsupp}");
            }
        }
    }
}
