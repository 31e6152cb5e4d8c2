//! # fim-io
//!
//! File formats for the mining workspace:
//!
//! * [`fimi`] — the FIMI workshop transaction format (one transaction per
//!   line, whitespace-separated item tokens) used by all public frequent
//!   item set mining benchmarks, including the BMS-WebView-1 data the paper
//!   evaluates in transposed form,
//! * [`matrix_io`] — a simple tab-separated text format for gene-expression
//!   matrices (genes × conditions of log expression values),
//! * [`results`] — writers for mined closed sets (the output format of
//!   Borgelt's `ista`/`carpenter` programs: items then `(support)`), plus a
//!   CSV writer for the experiment harness,
//! * [`checkpoint`] — self-validating stream checkpoints that persist an
//!   [`fim_ista::IstaStream`] together with its item-name catalog, so an
//!   interrupted run can resume in a fresh process,
//! * [`oocore`] — the two-pass out-of-core front end: stream item counts
//!   over a FIMI file, then re-read and recode it on the fly into
//!   [`fim_ista::OutOfCoreMiner`]'s shard-spill-merge pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod fimi;
pub mod manifest;
pub mod matrix_io;
pub mod oocore;
pub mod results;
mod text;

pub use checkpoint::{read_stream_checkpoint, write_stream_checkpoint};
pub use fimi::{
    count_fimi_path, read_fimi, read_fimi_path, read_fimi_path_with_limits, read_fimi_with_limits,
    scan_fimi, scan_fimi_path, scan_fimi_with_limits, write_fimi, write_fimi_path, FimiCounts,
    FimiCursor, FimiLimits, FimiTokens,
};
pub use manifest::{
    counts_fingerprint, crc32_file, live_records, order_tag, read_manifest, valid_spill_name,
    ManifestHeader, ManifestRecord, ManifestWriter, MANIFEST_NAME,
};
pub use matrix_io::{read_matrix, write_matrix};
pub use oocore::{
    mine_fimi_out_of_core, mine_fimi_with_counts, mine_fimi_with_counts_opts, OutOfCoreRun,
};
pub use results::{write_results, write_results_csv, write_results_named};
