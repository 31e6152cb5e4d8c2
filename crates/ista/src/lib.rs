//! # fim-ista
//!
//! The **IsTa** ("Intersecting Transactions") algorithm: mining closed
//! frequent item sets with the *cumulative intersection* scheme of
//! Borgelt et al. (EDBT 2011, §3.2–3.3).
//!
//! The algorithm maintains a repository of all closed item sets of the
//! already-processed transaction prefix, exploiting the recursion
//!
//! ```text
//! C(∅)       = ∅
//! C(T ∪ {t}) = C(T) ∪ {t} ∪ { I | ∃ s ∈ C(T) : I = s ∩ t }
//! ```
//!
//! The repository is a prefix tree ([`PrefixTree`]): the item set
//! represented by a node consists of its items plus the items on the path
//! to the root. Child items are smaller than their parent's items and
//! sibling lists are sorted descending, so every set is stored along
//! exactly one path (its items in descending order). Each new transaction
//! is first inserted as a plain path, then a single selective depth-first
//! traversal (`isect`, paper Fig. 2) simultaneously computes all
//! intersections with stored sets and merges them into the tree, using a
//! per-node `step` stamp and max-merge to keep every node's support exact.
//! Finally a recursive report (paper Fig. 4) emits exactly the nodes whose
//! support is at least the minimum support and strictly exceeds the support
//! of every child (the closedness condition).
//!
//! Of the three repository implementations the paper compares, this crate
//! provides the one the paper finds best: [`PrefixTree`] is the §3.3
//! **Patricia tree** (path compression: each node stores a whole item
//! *segment* in a shared arena, collapsing unary chains). Its length-1
//! segment is the paper's one-item node and is walked as fast as a
//! one-item-per-node tree walks it, so one layout serves dense and sparse
//! data.
//!
//! The optional *item elimination* pruning of paper §3.2 removes items that
//! can no longer reach minimum support from the tree mid-run, shrinking the
//! repository (see [`IstaConfig::policy`] and [`PrunePolicy`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod miner;
pub mod outofcore;
pub mod snapshot;
pub mod stream;
pub mod tree;

pub use arena::{PatNode, SegArena, NONE};
pub use miner::{IstaConfig, IstaMiner, MineStats, PrunePolicy};
pub use outofcore::{
    load_spill, spill_tree, sync_parent_dir, AdoptedSpill, OutOfCoreConfig, OutOfCoreMiner,
    OutOfCoreStats, ResumePlan, SpillJournal, TxInterval,
};
pub use stream::IstaStream;
pub use tree::{intersect_segment, intersect_segment_words, PrefixTree, TreeMemoryStats};
