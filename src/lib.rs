//! # closed-fim
//!
//! Umbrella crate for the workspace reproducing *"Finding Closed Frequent
//! Item Sets by Intersecting Transactions"* (Borgelt et al., EDBT 2011).
//!
//! It re-exports the public API of every member crate so that applications
//! can depend on a single crate:
//!
//! ```
//! use closed_fim::prelude::*;
//!
//! let db = TransactionDatabase::from_named(&[
//!     vec!["a", "b", "c"],
//!     vec!["a", "d", "e"],
//!     vec!["b", "c", "d"],
//! ]);
//! let result = mine_closed(&db, 2, &IstaMiner::default());
//! assert!(result.len() > 0);
//! ```
//!
//! [`algos`] is the one table of algorithm names: `fim mine --algo`, `fim
//! rules` and the experiment runners all build their miners from it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algos;
pub mod auto;

pub use fim_baseline as baseline;
pub use fim_carpenter as carpenter;
pub use fim_core as core;
pub use fim_io as io;
pub use fim_ista as ista;
pub use fim_obs as obs;
pub use fim_rules as rules;
pub use fim_synth as synth;

/// The most commonly used types and functions, flattened.
pub mod prelude {
    pub use crate::auto::AutoMiner;
    pub use fim_baseline::{
        AprioriMiner, DEclatMiner, EclatMiner, FpCloseMiner, LcmMiner, NaiveCumulativeMiner,
        SamMiner,
    };
    pub use fim_carpenter::{CarpenterListMiner, CarpenterTableMiner};
    pub use fim_core::{
        closure, is_closed, mine_closed, mine_closed_with_orders, ClosedMiner, FoundSet, ItemOrder,
        ItemSet, MineRequest, MiningResult, RecodedDatabase, TransactionDatabase, TransactionOrder,
    };
    pub use fim_ista::IstaMiner;
    pub use fim_rules::{AssociationRule, RuleMiner};
}
