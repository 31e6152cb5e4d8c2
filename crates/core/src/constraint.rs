//! User constraints on mined closed sets, pushed into the search loops.
//!
//! A [`ConstraintSet`] bundles the constraint kinds the CLI exposes:
//! must-include items, must-exclude items, minimum/maximum itemset size,
//! and minimum *area* (support × size). Each kind has a known class for
//! closed-set mining (the global-constraints catalog, arXiv 1604.04894):
//!
//! | constraint   | class            | sound push for closed sets          |
//! |--------------|------------------|-------------------------------------|
//! | must-exclude | anti-monotone    | database projection: drop the item  |
//! |              |                  | at recode time ([`RecodedDatabase::prepare_excluding`](crate::RecodedDatabase::prepare_excluding)) |
//! | max-size     | anti-monotone    | cut enumeration below the bound —   |
//! |              |                  | but **only** where closedness is    |
//! |              |                  | decided independently per node      |
//! | must-include | monotone         | cut subtrees that can no longer     |
//! |              |                  | reach the required items            |
//! | min-size     | monotone         | cut states smaller than the bound   |
//! |              |                  | (Carpenter states shrink with depth)|
//! | min-area     | convertible      | raised support floor `⌈A/size_cap⌉` |
//! |              |                  | + per-branch upper-bound cuts       |
//!
//! **Exclusion semantics.** Excluding an item is defined as *projecting the
//! database* (removing the item from every transaction), not as discarding
//! mined sets that contain it. The two differ: removing an item changes the
//! closure operator, so closed sets of the projected database need not be
//! closed sets of the full database (e.g. two copies of `{a,b}` at
//! `minsupp 1`: the full database has only `{a,b}:2`, the `b`-projected
//! database has `{a}:2`). Projection is what a user filtering out an item
//! wants, and it is the only semantics every miner can push soundly, so
//! both the pushed path and the [`apply_constraints`] oracle operate on the
//! same projected database.
//!
//! The exactness contract, enforced by `tests/constraint_proptest.rs`:
//! for every miner, pushed constrained mining equals
//! [`apply_constraints`] applied to an unconstrained mine of the same
//! (projected) database.

use crate::{
    itemset::ItemSet,
    miner::{FoundSet, MiningResult},
    recode::Recode,
    Item,
};
use std::fmt;

/// The area of a mined set: support × size, the convertible quality
/// measure the `--min-area` constraint bounds from below.
#[inline]
pub fn area(support: u32, len: usize) -> u64 {
    support as u64 * len as u64
}

/// A bundle of user constraints over mined closed sets.
///
/// The default value is unconstrained: every mined set satisfies it and
/// the constrained drivers reduce to the plain ones.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConstraintSet {
    /// Items every reported set must contain (monotone).
    pub include: ItemSet,
    /// Items no reported set may contain (anti-monotone; pushed as a
    /// database projection at recode time).
    pub exclude: ItemSet,
    /// Minimum number of items per reported set (monotone). 0 = no bound.
    pub min_size: u32,
    /// Maximum number of items per reported set (anti-monotone).
    pub max_size: Option<u32>,
    /// Minimum area (support × size) per reported set (convertible).
    /// 0 = no bound.
    pub min_area: u64,
}

impl ConstraintSet {
    /// The unconstrained set (alias for `Default::default()`).
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether no constraint is active.
    pub fn is_unconstrained(&self) -> bool {
        self.include.is_empty()
            && self.exclude.is_empty()
            && self.min_size == 0
            && self.max_size.is_none()
            && self.min_area == 0
    }

    /// Checks the bundle for internal contradictions that indicate a usage
    /// error (the CLI maps these to exit code 2): a minimum size above the
    /// maximum size, or an item that is both required and excluded.
    /// Constraints that are merely unsatisfiable on a given database (an
    /// include item that is infrequent, `--max-size 0`) are *not* errors —
    /// they yield an empty result.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(max) = self.max_size {
            if self.min_size > max {
                return Err(format!(
                    "contradictory size bounds: --min-size {} > --max-size {max}",
                    self.min_size
                ));
            }
            if (self.include.len() as u32) > max {
                return Err(format!(
                    "contradictory constraints: {} --include items exceed --max-size {max}",
                    self.include.len()
                ));
            }
        }
        let both = self.include.intersect(&self.exclude);
        if !both.is_empty() {
            return Err(format!(
                "contradictory constraints: items {both} are both included and excluded"
            ));
        }
        Ok(())
    }

    /// Whether a mined set with the given support satisfies every
    /// constraint. This is the single predicate definition shared by the
    /// pushed miners (final emission gate) and [`apply_constraints`].
    pub fn satisfied_by(&self, items: &ItemSet, support: u32) -> bool {
        let n = items.len() as u32;
        if n < self.min_size {
            return false;
        }
        if let Some(max) = self.max_size {
            if n > max {
                return false;
            }
        }
        if area(support, items.len()) < self.min_area {
            return false;
        }
        if !self.include.is_subset_of(items) {
            return false;
        }
        // After projection the exclude test is vacuous, but the predicate
        // stays complete so it is also correct standalone.
        if !self.exclude.is_empty() && !items.intersect(&self.exclude).is_empty() {
            return false;
        }
        true
    }

    /// The effective support floor the min-area constraint induces.
    ///
    /// Every satisfying set has `support ≥ area / size ≥ min_area /
    /// size_cap` where `size_cap = min(max_size, num_items)`, so mining at
    /// `max(minsupp, ⌈min_area / size_cap⌉)` loses no satisfying set. Sets
    /// with support between `minsupp` and the floor all fail the area
    /// constraint, which is how the IsTa prune passes push min-area without
    /// touching tree structure. Returns `u32::MAX` when nothing can satisfy
    /// the bounds (`size_cap == 0` with a positive area bound).
    pub fn support_floor(&self, num_items: u32, minsupp: u32) -> u32 {
        if self.min_area == 0 {
            return minsupp;
        }
        let cap = self.max_size.unwrap_or(num_items).min(num_items) as u64;
        if cap == 0 {
            return u32::MAX;
        }
        let floor = self.min_area.div_ceil(cap);
        minsupp.max(floor.min(u32::MAX as u64) as u32)
    }

    /// Translates the include items from raw catalog codes to the dense
    /// codes of a recoded database. The exclude items are dropped: after
    /// [`RecodedDatabase::prepare_excluding`] they no longer exist as
    /// dense codes.
    ///
    /// Returns `None` when an include item did not survive recoding
    /// (infrequent, unknown, or itself excluded) — no frequent set can
    /// contain it, so the constrained result is empty.
    ///
    /// [`RecodedDatabase::prepare_excluding`]: crate::recode::RecodedDatabase::prepare_excluding
    pub fn encode(&self, recode: &Recode) -> Option<ConstraintSet> {
        let include = recode.encode_items(&self.include)?;
        Some(ConstraintSet {
            include,
            exclude: ItemSet::empty(),
            min_size: self.min_size,
            max_size: self.max_size,
            min_area: self.min_area,
        })
    }
}

impl fmt::Display for ConstraintSet {
    /// A compact spec string for reports: `include={..} exclude={..}
    /// min_size=N max_size=N min_area=N`, active parts only; `none` when
    /// unconstrained.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_unconstrained() {
            return write!(f, "none");
        }
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            Ok(())
        };
        if !self.include.is_empty() {
            sep(f)?;
            write!(f, "include={}", self.include)?;
        }
        if !self.exclude.is_empty() {
            sep(f)?;
            write!(f, "exclude={}", self.exclude)?;
        }
        if self.min_size > 0 {
            sep(f)?;
            write!(f, "min_size={}", self.min_size)?;
        }
        if let Some(max) = self.max_size {
            sep(f)?;
            write!(f, "max_size={max}")?;
        }
        if self.min_area > 0 {
            sep(f)?;
            write!(f, "min_area={}", self.min_area)?;
        }
        Ok(())
    }
}

/// Post-filters a mining result through a constraint set: keeps exactly
/// the sets [`ConstraintSet::satisfied_by`] accepts.
///
/// This is the oracle half of the exactness contract and the `--no-push`
/// escape hatch. Note the exclusion caveat at the module level: the input
/// must already come from the *projected* database for the result to match
/// pushed mining when `exclude` is non-empty.
pub fn apply_constraints(result: &MiningResult, constraints: &ConstraintSet) -> MiningResult {
    MiningResult {
        sets: result
            .sets
            .iter()
            .filter(|s| constraints.satisfied_by(&s.items, s.support))
            .cloned()
            .collect(),
    }
}

/// Like [`apply_constraints`], taking ownership (used on decoded results).
pub fn apply_constraints_owned(result: MiningResult, constraints: &ConstraintSet) -> MiningResult {
    MiningResult {
        sets: result
            .sets
            .into_iter()
            .filter(|s| constraints.satisfied_by(&s.items, s.support))
            .collect(),
    }
}

/// Convenience constructor for tests and benches.
pub fn found(items: &[Item], support: u32) -> FoundSet {
    FoundSet::new(ItemSet::from(items), support)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unconstrained_and_accepts_everything() {
        let cs = ConstraintSet::none();
        assert!(cs.is_unconstrained());
        cs.validate().unwrap();
        assert!(cs.satisfied_by(&ItemSet::from([0]), 1));
        assert!(cs.satisfied_by(&ItemSet::empty(), 0));
        assert_eq!(cs.support_floor(10, 3), 3);
        assert_eq!(cs.to_string(), "none");
    }

    #[test]
    fn validate_rejects_contradictions() {
        let cs = ConstraintSet {
            min_size: 3,
            max_size: Some(2),
            ..Default::default()
        };
        assert!(cs.validate().unwrap_err().contains("--min-size 3"));
        let cs = ConstraintSet {
            include: ItemSet::from([1, 2]),
            exclude: ItemSet::from([2, 3]),
            ..Default::default()
        };
        assert!(cs.validate().unwrap_err().contains("both included"));
        let cs = ConstraintSet {
            include: ItemSet::from([1, 2, 3]),
            max_size: Some(2),
            ..Default::default()
        };
        assert!(cs.validate().unwrap_err().contains("--include"));
        // unsatisfiable-but-not-contradictory is fine
        ConstraintSet {
            max_size: Some(0),
            ..Default::default()
        }
        .validate()
        .unwrap();
    }

    #[test]
    fn satisfied_by_each_constraint_kind() {
        let set = ItemSet::from([1, 3, 5]);
        let base = ConstraintSet::none();
        assert!(base.satisfied_by(&set, 2));
        let inc = ConstraintSet {
            include: ItemSet::from([3]),
            ..base.clone()
        };
        assert!(inc.satisfied_by(&set, 2));
        assert!(!inc.satisfied_by(&ItemSet::from([1, 5]), 2));
        let exc = ConstraintSet {
            exclude: ItemSet::from([5]),
            ..base.clone()
        };
        assert!(!exc.satisfied_by(&set, 2));
        assert!(exc.satisfied_by(&ItemSet::from([1, 3]), 2));
        let min = ConstraintSet {
            min_size: 3,
            ..base.clone()
        };
        assert!(min.satisfied_by(&set, 2));
        assert!(!min.satisfied_by(&ItemSet::from([1, 3]), 2));
        let max = ConstraintSet {
            max_size: Some(2),
            ..base.clone()
        };
        assert!(!max.satisfied_by(&set, 2));
        assert!(max.satisfied_by(&ItemSet::from([1, 3]), 2));
        let ar = ConstraintSet {
            min_area: 6,
            ..base
        };
        assert!(ar.satisfied_by(&set, 2)); // 3 × 2 = 6
        assert!(!ar.satisfied_by(&set, 1)); // 3 × 1 = 3
    }

    #[test]
    fn support_floor_raises_with_area() {
        let cs = ConstraintSet {
            min_area: 10,
            ..Default::default()
        };
        // cap = num_items = 4 → ceil(10/4) = 3
        assert_eq!(cs.support_floor(4, 1), 3);
        // minsupp already above the floor wins
        assert_eq!(cs.support_floor(4, 7), 7);
        let capped = ConstraintSet {
            min_area: 10,
            max_size: Some(2),
            ..Default::default()
        };
        assert_eq!(capped.support_floor(4, 1), 5);
        let degenerate = ConstraintSet {
            min_area: 1,
            ..Default::default()
        };
        assert_eq!(degenerate.support_floor(0, 1), u32::MAX);
    }

    #[test]
    fn encode_translates_include_and_drops_exclude() {
        let recode = Recode {
            item_to_new: vec![Some(1), None, Some(0)],
            item_to_old: vec![2, 0],
            tx_to_old: vec![],
        };
        let cs = ConstraintSet {
            include: ItemSet::from([0, 2]),
            exclude: ItemSet::from([1]),
            min_size: 2,
            max_size: Some(4),
            min_area: 9,
        };
        let dense = cs.encode(&recode).unwrap();
        assert_eq!(dense.include, ItemSet::from([0, 1]));
        assert!(dense.exclude.is_empty());
        assert_eq!(dense.min_size, 2);
        assert_eq!(dense.max_size, Some(4));
        assert_eq!(dense.min_area, 9);
        // a filtered-out include item makes the constraints unsatisfiable
        let gone = ConstraintSet {
            include: ItemSet::from([1]),
            ..Default::default()
        };
        assert!(gone.encode(&recode).is_none());
    }

    #[test]
    fn apply_constraints_filters() {
        let result = MiningResult {
            sets: vec![found(&[0], 5), found(&[0, 1], 3), found(&[0, 1, 2], 1)],
        };
        let cs = ConstraintSet {
            min_size: 2,
            min_area: 6,
            ..Default::default()
        };
        let got = apply_constraints(&result, &cs);
        assert_eq!(got.sets, vec![found(&[0, 1], 3)]);
        let owned = apply_constraints_owned(result, &cs);
        assert_eq!(owned.sets, vec![found(&[0, 1], 3)]);
    }

    #[test]
    fn display_lists_active_parts() {
        let cs = ConstraintSet {
            include: ItemSet::from([1]),
            exclude: ItemSet::from([2]),
            min_size: 2,
            max_size: Some(5),
            min_area: 12,
        };
        assert_eq!(
            cs.to_string(),
            "include={1} exclude={2} min_size=2 max_size=5 min_area=12"
        );
    }
}
