//! The algorithm table: every name that `fim mine --algo`, `fim rules` and
//! the experiment runners accept, each mapped to a configured miner of its
//! family.
//!
//! Suffixed and ablation names (`eclat-bitset`, `ista-noprune`,
//! `carpenter-table-noelim`, …) are rows of their own that mean "family +
//! configuration": the family's miner with one setting changed. Adding such
//! a name is a one-row change. A caller that configures a miner further, as
//! the CLI does with `--rep` and `--no-prune`, changes the same fields a
//! row sets, so a name and its flag spelling build the same miner.
//!
//! Beside the table, [`Miner::checked_limits`] states which budget limits
//! each family's search checks, so a caller can refuse a limit that would
//! never trip instead of ignoring it.

use fim_baseline::{
    AprioriMiner, DEclatMiner, EclatMiner, FpCloseMiner, LcmClassicMiner, LcmMiner,
    NaiveCumulativeMiner, SamMiner,
};
use fim_carpenter::{CarpenterConfig, CarpenterListMiner, CarpenterTableMiner};
use fim_core::{ClosedMiner, Representation};
use fim_ista::{IstaConfig, IstaMiner};

/// A configured miner, by family. The families a flag configures keep
/// their concrete type, so a caller can set their configuration, and IsTa
/// can be asked for its whole run statistics; the rest are used through
/// [`ClosedMiner`] only. Every family reports its run counters through
/// [`ClosedMiner::mine_with`].
#[derive(Clone, Copy)]
pub enum Miner {
    /// IsTa (paper §3.2–3.3).
    Ista(IstaMiner),
    /// Carpenter over per-item tid lists.
    CarpenterLists(CarpenterListMiner),
    /// Carpenter over the Table-1 matrix.
    CarpenterTable(CarpenterTableMiner),
    /// Eclat with a closed-set filter.
    Eclat(EclatMiner),
    /// Diffset Eclat with a closed-set filter.
    DEclat(DEclatMiner),
    /// A family no flag configures: FP-close, LCM, SaM, Apriori and the
    /// naive cumulative scheme.
    Fixed(&'static dyn ClosedMiner),
}

/// A table row: a name and the miner it builds.
type Row = (&'static str, fn() -> Miner);

/// Every algorithm in `fim algos` order, grouped by family, each family's
/// default miner first.
const TABLE: [Row; 25] = [
    ("ista", || Miner::Ista(IstaMiner::default())),
    ("ista-noprune", || {
        Miner::Ista(IstaMiner::with_config(IstaConfig::without_pruning()))
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
    ("fpclose", || Miner::Fixed(&FpCloseMiner)),
    ("lcm", || Miner::Fixed(&LcmMiner)),
    ("lcm-noreuse", || Miner::Fixed(&LcmClassicMiner)),
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
    ("sam", || Miner::Fixed(&SamMiner)),
    ("apriori", || Miner::Fixed(&AprioriMiner)),
    ("naive-cumulative", || Miner::Fixed(&NaiveCumulativeMiner)),
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
            Miner::CarpenterLists(m) => m,
            Miner::CarpenterTable(m) => m,
            Miner::Eclat(m) => m,
            Miner::DEclat(m) => m,
            Miner::Fixed(m) => *m,
        }
    }

    /// The family's name: the name of its default miner, the first row of
    /// the family. Whatever a family cannot do, none of its rows can, so
    /// messages about it name the family.
    pub fn family(&self) -> &'static str {
        match self {
            Miner::Ista(_) => IstaMiner::default().name(),
            Miner::CarpenterLists(_) => CarpenterListMiner::default().name(),
            Miner::CarpenterTable(_) => CarpenterTableMiner::default().name(),
            Miner::Eclat(_) => EclatMiner::default().name(),
            Miner::DEclat(_) => DEclatMiner::default().name(),
            Miner::Fixed(m) => m.name(),
        }
    }

    /// The budget limits the family's search checks, by the `fim mine`
    /// flag that sets them: `max-nodes` (the size of the family's
    /// repository) and `max-sets` (the sets found so far). A limit the
    /// family never checks would never trip; a caller should refuse it.
    /// The timeout is not listed: every family checks it at least once,
    /// before mining. IsTa checks the node limit on every path, the
    /// checkpointing stream and the out-of-core pipeline included.
    pub fn checked_limits(&self) -> &'static [&'static str] {
        match self {
            Miner::Ista(_) => &["max-nodes"],
            Miner::CarpenterLists(_) | Miner::CarpenterTable(_) | Miner::Eclat(_) => &["max-sets"],
            Miner::DEclat(_) | Miner::Fixed(_) => &[],
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
    use fim_core::{
        apply_constraints_owned, Budget, ConstraintSet, ItemOrder, MineRequest, RecodedDatabase,
        TransactionDatabase, TransactionOrder,
    };
    use fim_obs::Obs;
    use std::time::Duration;

    #[test]
    fn names_are_unique_and_resolve() {
        let mut names: Vec<&str> = names().collect();
        assert_eq!(names.len(), 25);
        for name in &names {
            assert!(Miner::by_name(name).is_ok(), "{name}");
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 25, "duplicate table rows");
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

    fn paper_db() -> TransactionDatabase {
        TransactionDatabase::from_named(&[
            vec!["a", "b", "c"],
            vec!["a", "d", "e"],
            vec!["b", "c", "d"],
            vec!["a", "b", "c", "d"],
            vec!["b", "c"],
            vec!["a", "b", "d"],
            vec!["d", "e"],
            vec!["c", "d", "e"],
        ])
    }

    /// A budget that never trips runs the same search as no budget: the
    /// same sets and the same counters, for every row, with and without
    /// constraints.
    #[test]
    fn every_row_answers_alike_under_a_budget_that_never_trips() {
        let db = paper_db();
        let hour = Budget::unlimited().with_timeout(Duration::from_secs(3600));
        let cs = ConstraintSet {
            min_size: 2,
            ..ConstraintSet::none()
        };
        for minsupp in [1, 2, 3] {
            let recoded = RecodedDatabase::prepare(
                &db,
                minsupp,
                ItemOrder::default(),
                TransactionOrder::default(),
            );
            let reference = mine_reference(&recoded, minsupp).canonicalized();
            for constraints in [None, Some(&cs)] {
                let want = match constraints {
                    Some(c) => apply_constraints_owned(reference.clone(), c),
                    None => reference.clone(),
                };
                for name in names() {
                    let miner = Miner::by_name(name).unwrap();
                    let run = |budget: &Budget| {
                        let req = MineRequest {
                            minsupp,
                            budget,
                            constraints,
                        };
                        let (outcome, counters) =
                            miner.as_dyn().mine_with(&recoded, &req, &mut Obs::new());
                        assert!(!outcome.is_interrupted(), "{name}");
                        (outcome.into_result().canonicalized(), counters)
                    };
                    let (free, free_counters) = run(&Budget::unlimited());
                    let (governed, governed_counters) = run(&hour);
                    assert_eq!(free, want, "{name} at {minsupp}, {constraints:?}");
                    assert_eq!(governed, free, "{name} at {minsupp}, {constraints:?}");
                    assert_eq!(
                        governed_counters, free_counters,
                        "{name} at {minsupp}, {constraints:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_row_mines_the_reference_answer() {
        let db = paper_db();
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
