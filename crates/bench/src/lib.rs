//! # fim-bench
//!
//! The benchmark harness reproducing the paper's evaluation (DESIGN.md §5):
//!
//! * `table1` — the matrix representation example (paper Table 1),
//! * `fig3` — the prefix tree construction trace (paper Fig. 3),
//! * `fig5`–`fig8` — the four minimum-support sweeps (paper Figs. 5–8) on
//!   the synthetic stand-in data sets,
//! * `naive_gap` — flat repository vs prefix tree (paper §5, E7),
//! * `orders` — item/transaction order ablation (paper §3.4, E8),
//! * `pruning` — pruning ablations for IsTa and Carpenter (E9),
//! * Criterion micro-benchmarks (`cargo bench -p fim-bench`).
//!
//! Every sweep cell (one algorithm at one minimum support) runs in a fresh
//! subprocess so that a timeout can be enforced by killing the child — the
//! enumeration baselines diverge at low support by design, exactly like
//! FP-close and LCM do in the paper (Fig. 5: >1 minute at support 8 and
//! "growing even more heavily afterwards"; Fig. 6: crashes). Within a cell
//! the mining runs on a dedicated 1 GiB stack because tree depth is bounded
//! by the longest transaction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod report;

pub use harness::{
    figure_main, maybe_run_cell, parse_kv, preset_by_name, run_cell, run_cell_subprocess,
    scaled_sweep, CellOutcome, CellRun, SweepConfig,
};
pub use report::{write_csv, Row};
