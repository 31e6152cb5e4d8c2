//! # fim-core
//!
//! Core substrate for closed frequent item set mining, shared by every
//! algorithm crate in this workspace (the IsTa cumulative-intersection miner,
//! the Carpenter transaction-set-enumeration miners, and the item-set
//! enumeration baselines).
//!
//! The crate provides:
//!
//! * [`ItemSet`] — a canonical (sorted, duplicate-free) set of item codes with
//!   the set algebra every miner needs (intersection, subset tests, …),
//! * [`TransactionDatabase`] — a raw transaction database over named items,
//! * [`RecodedDatabase`] — the mining-ready form: infrequent items removed,
//!   item codes reassigned according to an [`ItemOrder`], transactions
//!   reordered according to a [`TransactionOrder`] (paper §3.4),
//! * [`ItemRows`] — the flat storage of both databases: one item pool plus
//!   row offsets, read through the [`Rows`] view of `&[Item]` slices,
//! * [`ScannedDatabase`] — a database as one reading pass leaves it: rows
//!   duplicate-free in input order and item frequencies, sorted once by
//!   whichever of the two databases is built from it, and joined from
//!   the scans of consecutive ranges of a file ([`ranges`]),
//! * [`TidLists`] — the vertical representation (per-item transaction-index
//!   lists) used by the list-based Carpenter variant,
//! * [`BitMatrix`] and [`SuffixCountMatrix`] — the table representation of
//!   the improved Carpenter variant (paper Table 1),
//! * the [`cover`]/[`support`]/[`closure`] primitives and the Galois
//!   connection (paper §2.4–2.5) in [`galois`],
//! * the [`ClosedMiner`] trait with [`MiningResult`]/[`FoundSet`] result
//!   types so that all algorithms are interchangeable and comparable,
//! * [`RankedResult`] — a result of at most 256 kept items as sortable
//!   rank-mask keys ([`RankKey`]) over one [`RankTable`], ordered and
//!   written without an item vector per set,
//! * the [`govern`] resource-governance layer: [`Budget`]s (wall-clock
//!   deadline, node/byte caps, cancellation), the [`checkpoint!`] hot-loop
//!   macro, and structured [`MineOutcome`]s with exact partial results,
//! * a brute-force [`reference`](mod@reference) miner used as ground truth in tests.
//!
//! Item codes inside a [`RecodedDatabase`] are dense `u32` values
//! `0..num_items`; transaction indices ("tids") are dense `u32` values
//! `0..num_transactions`. All tree structures in the algorithm crates are
//! index-based arenas, so the whole workspace is `unsafe`-free.
//!
//! [`cover`]: cover::cover
//! [`support`]: cover::support
//! [`closure`]: closure::closure

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod closure;
pub mod constraint;
pub mod cover;
pub mod database;
pub mod error;
pub mod fault;
pub mod galois;
pub mod govern;
pub mod itemset;
pub mod matrix;
pub mod maximal;
pub mod miner;
pub mod order;
pub mod prepare;
pub mod ranges;
pub mod rank;
pub mod recode;
pub mod reference;
pub mod rep;
pub mod rows;
pub mod scan;

pub use catalog::ItemCatalog;
pub use closure::{closure, closure_with, is_closed, is_closed_with};
pub use constraint::{apply_constraints, apply_constraints_owned, ConstraintSet};
pub use cover::{cover, support, BitCover, TidLists};
pub use database::TransactionDatabase;
pub use error::FimError;
pub use govern::{Budget, CancelToken, Degradation, Governor, MineOutcome, Progress, TripReason};
pub use itemset::{gallop_advance, gallop_intersect_into, ItemSet};
pub use matrix::{BitMatrix, BitsetRow, SuffixCountMatrix, WordSet};
pub use maximal::maximal_from_closed;
pub use miner::{
    mine_closed, mine_closed_constrained, mine_closed_relative, mine_closed_with_orders,
    relative_minsupp, ClosedMiner, FoundSet, MineRequest, MiningResult,
};
pub use order::{ItemOrder, TransactionOrder};
pub use prepare::{cmp_size_then_desc_lex, coalesce};
pub use rank::{RankKey, RankTable, RankedResult, RANK_MASK_ITEMS};
pub use recode::{Density, Recode, RecodedDatabase, StreamingRecode};
pub use rep::Representation;
pub use rows::{ItemRows, RowIter, Rows};
pub use scan::ScannedDatabase;

/// Dense item code used throughout the workspace.
pub type Item = u32;

/// Dense transaction index ("tid") used throughout the workspace.
pub type Tid = u32;
