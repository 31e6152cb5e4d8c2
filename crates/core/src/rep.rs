//! Intersection-kernel representation selection.
//!
//! Every miner in this workspace spends its time intersecting sets — item
//! segments (IsTa), tid lists (Carpenter, eclat), or diffsets (dEclat). The
//! best physical representation of those sets depends on the database shape
//! (row count first, then fill rate), not on the algorithm:
//!
//! * **Scalar** — sorted `u32` vectors with linear merges and per-element
//!   probes. Best at moderate fill, and the bit-for-bit reference the other
//!   kernels must match.
//! * **Bitset** — [`WordSet`](crate::matrix::WordSet) packed bits, 64 per
//!   `u64` word, intersected by word-AND with fused popcount. A bitset row
//!   costs `rows/8` bytes against `4·ones/cols` for a list, so the break-even
//!   in space alone is `fill = 1/32`; the kernel also wins time once enough
//!   bits per word are live.
//! * **Gallop** — sorted vectors with exponential-search cursor advances.
//!   Wins when intersections pair a very short list with a very long one
//!   (`O(short · log long)` vs `O(short + long)`), which happens at very low
//!   fill with skewed supports.
//!
//! [`Representation::select`] makes the per-database choice from a
//! [`Density`] estimate; the thresholds are calibrated against E14 (see
//! EXPERIMENTS.md), which also records the cells where they pick a
//! slower kernel: carpenter-lists at 497 rows, eclat and dEclat below
//! the fill floor.

use crate::recode::Density;
use std::fmt;
use std::str::FromStr;

/// Physical set representation used by the intersection kernels.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Representation {
    /// Sorted `u32` vectors, linear merges (the reference kernels).
    #[default]
    Scalar,
    /// Packed `u64` bitsets, word-AND + popcount kernels.
    Bitset,
    /// Sorted `u32` vectors with exponential-search (galloping) advances.
    Gallop,
}

/// Row count at or above which bitset tid-sets pay off. A tid-set is
/// `rows` bits wide, so below this floor every set fits a handful of
/// words and the scalar cursors are already cache-resident — E14 measures
/// bitset *losing* 0.79× for carpenter-lists on the 30-transaction ncbi60
/// workload while winning 3.8–4.5× for eclat and dEclat on 200 000- and
/// 500 000-transaction baskets. The floor is too low for carpenter-lists:
/// at 497 rows (webview) bitset still runs 1.7× slower than scalar.
pub const BITSET_MIN_ROWS: usize = 256;

/// Fill rate at or above which the bitset representation is selected
/// (given enough rows). The word-AND streams `rows/64` words per
/// intersection against `~2·fill·rows` elements for the scalar merge, and
/// E14 measures the branchless word ops at roughly a third of the cost of
/// a branchy merge step, so break-even sits near `fill = 1/128·(1/3)`;
/// `1/256` keeps a margin above it. The re-measured E14 puts the real
/// break-even for eclat and dEclat far lower: at fill 0.0019 bitset is
/// still 3.5–3.9× faster than the gallop kernel this floor selects.
pub const BITSET_FILL_THRESHOLD: f64 = 1.0 / 256.0;

/// Alias kept for the galloping hand-off: below [`BITSET_FILL_THRESHOLD`]
/// (with many rows) the lists are so sparse that exponential-search
/// cursor skips beat both the word stream and the linear merge.
pub const GALLOP_FILL_THRESHOLD: f64 = BITSET_FILL_THRESHOLD;

impl Representation {
    /// Selects a representation from a database density estimate.
    ///
    /// Degenerate inputs (no rows, no columns, or no occurrences) always
    /// get `Scalar`: there is nothing to intersect, so the reference kernel
    /// is the only sensible default. With fewer than [`BITSET_MIN_ROWS`]
    /// rows every tid-set fits a few words and `Scalar` wins (or ties
    /// within noise) on every such cell E14 measures, so it is kept. At or above
    /// the row floor, fill decides: `>= `[`BITSET_FILL_THRESHOLD`] →
    /// `Bitset`, else `Gallop` (lists that sparse reward exponential
    /// cursor skips over linear merges).
    pub fn select(d: &Density) -> Representation {
        if d.is_degenerate() || d.rows < BITSET_MIN_ROWS {
            Representation::Scalar
        } else if d.fill >= BITSET_FILL_THRESHOLD {
            Representation::Bitset
        } else {
            Representation::Gallop
        }
    }

    /// The stable lowercase name used in CLI flags and metrics JSON.
    pub fn name(self) -> &'static str {
        match self {
            Representation::Scalar => "scalar",
            Representation::Bitset => "bitset",
            Representation::Gallop => "gallop",
        }
    }
}

impl fmt::Display for Representation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Representation {
    type Err = String;

    /// Parses `scalar`, `bitset`, or `gallop`. The CLI's `auto` is not a
    /// representation — resolve it through [`Representation::select`]
    /// before reaching this parser.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "scalar" => Ok(Representation::Scalar),
            "bitset" => Ok(Representation::Bitset),
            "gallop" => Ok(Representation::Gallop),
            other => Err(format!(
                "unknown representation '{other}' (expected scalar, bitset, or gallop)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recode::RecodedDatabase;

    #[test]
    fn select_follows_rows_then_fill() {
        // many rows, dense: 300 rows × 4 cols, fill ~0.75 → bitset
        let dense = RecodedDatabase::from_dense(vec![vec![0, 1, 2]; 300], 4);
        assert_eq!(
            Representation::select(&dense.density()),
            Representation::Bitset
        );
        // many rows, ultra-sparse: 300 rows × 1000 cols, fill 0.001 → gallop
        let sparse = RecodedDatabase::from_dense((0..300).map(|k| vec![k % 1000]).collect(), 1000);
        assert!(sparse.density().fill < BITSET_FILL_THRESHOLD);
        assert_eq!(
            Representation::select(&sparse.density()),
            Representation::Gallop
        );
        // many rows, just above the fill floor → bitset
        let above = RecodedDatabase::from_dense(vec![vec![0]; 300], 100);
        assert!(above.density().fill >= BITSET_FILL_THRESHOLD);
        assert_eq!(
            Representation::select(&above.density()),
            Representation::Bitset
        );
        // few rows stay scalar regardless of fill: the tid-sets are a few
        // words wide and E14 measures bitset losing on exactly this shape
        let few_dense =
            RecodedDatabase::from_dense(vec![vec![0, 1, 2, 3], vec![0, 1, 2], vec![0, 1, 3]], 4);
        assert_eq!(
            Representation::select(&few_dense.density()),
            Representation::Scalar
        );
        let few_sparse =
            RecodedDatabase::from_dense(vec![vec![0], vec![500], vec![999], vec![0]], 1000);
        assert_eq!(
            Representation::select(&few_sparse.density()),
            Representation::Scalar
        );
    }

    #[test]
    fn degenerate_databases_select_scalar() {
        for db in [
            RecodedDatabase::from_dense(vec![], 10),      // no rows
            RecodedDatabase::from_dense(vec![], 0),       // nothing at all
            RecodedDatabase::from_dense(vec![vec![]], 3), // only empty txs
        ] {
            let d = db.density();
            assert!(d.is_degenerate());
            assert_eq!(Representation::select(&d), Representation::Scalar);
        }
    }

    #[test]
    fn names_parse_round_trip() {
        for rep in [
            Representation::Scalar,
            Representation::Bitset,
            Representation::Gallop,
        ] {
            assert_eq!(rep.name().parse::<Representation>().unwrap(), rep);
            assert_eq!(rep.to_string(), rep.name());
        }
        assert!("auto".parse::<Representation>().is_err());
        assert!("".parse::<Representation>().is_err());
        assert_eq!(Representation::default(), Representation::Scalar);
    }
}
