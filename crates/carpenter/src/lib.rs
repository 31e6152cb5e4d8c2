//! # fim-carpenter
//!
//! The **Carpenter** algorithm (Pan et al., KDD 2003) in the two improved
//! implementations of Borgelt et al. (EDBT 2011, §3.1): closed frequent item
//! set mining by *enumerating and intersecting transaction sets* — the
//! divide-and-conquer scheme of item set enumeration applied to transaction
//! indices instead of items.
//!
//! Both variants share the same search ([`search`]) and the same
//! duplicate-suppressing [`Repository`] prefix tree; they differ in how the
//! database is represented:
//!
//! * [`CarpenterListMiner`] (§3.1.1) — a vertical representation: one
//!   ascending transaction-index list per item, with per-recursion cursors
//!   that track the next unprocessed index (the Rust analog of the C
//!   implementation's pointer arithmetic).
//! * [`CarpenterTableMiner`] (§3.1.2) — the `n × |B|` suffix-count matrix of
//!   paper Table 1, which makes both the membership test and the
//!   item-elimination counter a single array lookup.
//!
//! The search applies three prunings, all individually switchable through
//! [`CarpenterConfig`] for the ablation experiments:
//!
//! 1. *perfect extension* (transaction absorption): a transaction containing
//!    the whole current intersection is included unconditionally,
//! 2. *item elimination*: an item is dropped from an intersection as soon as
//!    its included-count plus remaining occurrences cannot reach minimum
//!    support (the paper's "considerable speed-up"),
//! 3. *repository subtree pruning*: a node whose intersection was already
//!    reported cannot produce anything new and is cut.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lists;
pub mod repo;
pub mod search;
pub mod table;

pub use lists::{BitsetListRep, CarpenterListMiner, ListRep};
pub use repo::Repository;
pub use search::CarpenterConfig;
pub use table::CarpenterTableMiner;
