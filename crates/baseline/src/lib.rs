//! # fim-baseline
//!
//! The comparison algorithms of the paper's evaluation (§5), all implemented
//! from scratch:
//!
//! * [`FpCloseMiner`] — FP-growth on an FP-tree with closure absorption and
//!   an equal-support subsumption filter, standing in for Grahne & Zhu's
//!   FP-close (FIMI'03 best-implementation award).
//! * [`LcmMiner`] — prefix-preserving closure extension (ppc-extension),
//!   standing in for Uno et al.'s LCM (FIMI'04 best-implementation award).
//! * [`EclatMiner`] — vertical tid-list depth-first search (Zaki et al.)
//!   over all frequent sets, followed by a closedness filter.
//! * [`DEclatMiner`] — the diffset variant of Eclat (Zaki & Gouda), which
//!   stores per-node differences instead of tid lists — the classic
//!   enumeration answer to dense few-transaction data.
//! * [`AprioriMiner`] — classic levelwise candidate generation (Agrawal &
//!   Srikant), followed by a closedness filter.
//! * [`SamMiner`] — Borgelt & Wang's Split-and-Merge, the paper's example
//!   (§2.2) of a purely horizontal divide-and-conquer enumerator.
//! * [`NaiveCumulativeMiner`] — the flat-repository cumulative intersection
//!   scheme of Mielikäinen (FIMI'03), the baseline that IsTa's prefix tree
//!   improves on by the >100× factor reported in §5.
//!
//! All miners implement [`fim_core::ClosedMiner`] and return exactly the
//! closed frequent item sets — equality with the intersection-based miners
//! is enforced by the cross-algorithm test suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apriori;
pub mod declat;
pub mod eclat;
pub mod filter;
pub mod fpclose;
pub mod fptree;
pub(crate) mod kernel;
pub mod lcm;
pub mod naive;
pub mod sam;

pub use apriori::AprioriMiner;
pub use declat::DEclatMiner;
pub use eclat::EclatMiner;
pub use fpclose::FpCloseMiner;
pub use lcm::{LcmClassicMiner, LcmMiner};
pub use naive::NaiveCumulativeMiner;
pub use sam::SamMiner;
