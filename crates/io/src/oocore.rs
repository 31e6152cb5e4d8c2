//! Out-of-core mining glue over FIMI files: the two-pass streaming front
//! end that feeds [`fim_ista::OutOfCoreMiner`].
//!
//! Pass 1 ([`count_fimi_path`]) streams the file through the byte-bounded
//! FIMI reader, interning item names and counting per-item transaction
//! frequencies — never holding more than one line. Pass 2 re-reads the file
//! through a [`FimiCursor`], recodes each transaction on the fly with
//! [`StreamingRecode`] (infrequent items dropped, dense codes assigned with
//! the same survivor selection and ordering as the in-memory
//! [`fim_core::RecodedDatabase::prepare`]), and hands the stream to the
//! shard-spill-merge pipeline. The mined sets come back decoded to raw
//! catalog codes and canonicalized, so writing them through
//! [`crate::results::write_results_named`] with the returned catalog is
//! byte-identical to an in-memory run over the same file.
//!
//! This module lives in `fim-io` (not `fim-ista`) because the dependency
//! points this way: `fim-io` already depends on `fim-ista` for the stream
//! checkpoint format, so the miner itself stays format-agnostic (it only
//! sees a transaction source closure) and the FIMI composition happens
//! here.

use crate::fimi::{count_fimi_path, FimiCounts, FimiCursor, FimiLimits};
use crate::manifest::{
    counts_fingerprint, crc32_file, live_records, order_tag, read_manifest, valid_spill_name,
    ManifestHeader, ManifestWriter, MANIFEST_NAME,
};
use fim_core::fault::{self, points};
use fim_core::{
    Budget, FimError, Item, ItemCatalog, ItemOrder, MineOutcome, StreamingRecode, TripReason,
};
use fim_ista::{AdoptedSpill, OutOfCoreConfig, OutOfCoreMiner, OutOfCoreStats, ResumePlan};
use fim_obs::Obs;
use std::fs;
use std::path::Path;

/// Everything one out-of-core run over a FIMI file produces.
#[derive(Debug)]
pub struct OutOfCoreRun {
    /// The mining outcome; its sets are decoded to raw catalog codes and
    /// canonicalized (ready for [`crate::results::write_results_named`]).
    pub outcome: MineOutcome,
    /// Pipeline statistics (shards, spills, merge passes, counters).
    pub stats: OutOfCoreStats,
    /// Item names interned during pass 1, in order of first appearance —
    /// identical to the catalog [`crate::fimi::read_fimi`] would build.
    pub catalog: ItemCatalog,
    /// Total transactions seen in pass 1.
    pub transactions: u64,
    /// Frequent items surviving the support threshold.
    pub num_items: u32,
    /// The minimum support actually applied (the requested one clamped to
    /// at least 1).
    pub minsupp_used: u32,
}

/// Mines the closed frequent item sets of the FIMI file at `path` with the
/// out-of-core shard-spill pipeline, without ever materializing the
/// database in memory.
///
/// `minsupp` is absolute; `item_order` selects the dense recode order
/// exactly as in the in-memory path (transaction order is irrelevant to
/// the result and is fixed by the shard slicing). The `config` byte budget
/// bounds the buffered shard slice and `budget` governs tree growth; on a
/// budget trip the outcome is [`MineOutcome::Interrupted`] with an exact
/// partial result.
pub fn mine_fimi_out_of_core<P: AsRef<Path>>(
    path: P,
    limits: &FimiLimits,
    minsupp: u32,
    item_order: ItemOrder,
    config: OutOfCoreConfig,
    budget: &Budget,
) -> Result<OutOfCoreRun, FimError> {
    let counts = count_fimi_path(path.as_ref(), limits)?;
    mine_fimi_with_counts(path, limits, counts, minsupp, item_order, config, budget)
}

/// Like [`mine_fimi_out_of_core`], but over an already-gathered pass-1
/// summary — for callers that need the transaction count before choosing
/// the support threshold (e.g. a relative threshold), so the file is still
/// read exactly twice.
pub fn mine_fimi_with_counts<P: AsRef<Path>>(
    path: P,
    limits: &FimiLimits,
    counts: FimiCounts,
    minsupp: u32,
    item_order: ItemOrder,
    config: OutOfCoreConfig,
    budget: &Budget,
) -> Result<OutOfCoreRun, FimError> {
    mine_fimi_with_counts_opts(
        path,
        limits,
        counts,
        minsupp,
        item_order,
        config,
        budget,
        false,
        &mut Obs::new(),
    )
}

/// Builds the resume plan for a run over a spill directory holding a
/// `MANIFEST`: validates the manifest's fingerprint against this run's
/// (rejecting stale/foreign state as [`FimError::Corrupt`]), verifies
/// each live record's spill file by length and CRC-32, and adopts the
/// survivors. Unverifiable records are skipped — their transactions are
/// simply re-mined.
fn plan_resume(spill_dir: &Path, header: ManifestHeader) -> Result<Option<ResumePlan>, FimError> {
    let manifest_path = spill_dir.join(MANIFEST_NAME);
    if !manifest_path.exists() {
        return Ok(None); // cold start
    }
    let (found, records) = read_manifest(&manifest_path)?;
    if found != header {
        return Err(FimError::Corrupt(format!(
            "{}: manifest fingerprint mismatch (input bytes {} vs {}, counts hash {:#x} vs {:#x}, \
             minsupp {} vs {}, item order {} vs {}) — the spill directory belongs to a different \
             input or settings; delete it to start fresh",
            manifest_path.display(),
            found.input_bytes,
            header.input_bytes,
            found.counts_fnv,
            header.counts_fnv,
            found.minsupp,
            header.minsupp,
            found.order,
            header.order,
        )));
    }
    let mut plan = ResumePlan::default();
    for r in &records {
        let idx = |prefix: &str| {
            r.name
                .strip_prefix(prefix)
                .and_then(|s| s.strip_suffix(".spill"))
                .and_then(|d| d.parse::<u64>().ok())
        };
        if let Some(i) = idx("shard-") {
            plan.next_shard_idx = plan.next_shard_idx.max(i + 1);
        }
        if let Some(i) = idx("merge-") {
            plan.next_merge_idx = plan.next_merge_idx.max(i + 1);
        }
    }
    for r in live_records(&records) {
        let path = spill_dir.join(&r.name);
        let verified =
            matches!(crc32_file(&path), Ok((len, crc)) if len == r.file_len && crc == r.file_crc);
        // the journal CRC matching is not enough: a write torn *before*
        // the checksum was taken matches its own record, so the snapshot
        // itself must parse — anything else is re-mined, never trusted
        let loads = verified && fim_ista::load_spill(&path).is_ok();
        if loads {
            plan.adopted.push(AdoptedSpill {
                path,
                intervals: r.intervals.clone(),
            });
        }
    }
    Ok(Some(plan))
}

/// Removes every spill artifact (manifest and `*.spill` files) from
/// `spill_dir` — a non-resuming run must not adopt or collide with a dead
/// run's leftovers.
fn clear_spill_state(spill_dir: &Path) {
    let _ = fs::remove_file(spill_dir.join(MANIFEST_NAME));
    if let Ok(entries) = fs::read_dir(spill_dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            if valid_spill_name(&name.to_string_lossy()) {
                let _ = fs::remove_file(entry.path());
            }
        }
    }
}

/// [`mine_fimi_with_counts`] with the crash-safety options explicit.
///
/// Every run journals its completed spills to a `MANIFEST` in the spill
/// directory (created before mining starts, removed again on any
/// completion except an `ENOSPC` degradation), so a killed run always
/// leaves resumable state behind. With `resume`, a valid manifest from a
/// previous run over the *same* input and settings is adopted: verified
/// completed spills are not re-mined, and the merge-reduce continues from
/// disk. A missing manifest makes `resume` a cold start; a foreign or
/// stale one is rejected with [`FimError::Corrupt`].
#[allow(clippy::too_many_arguments)]
pub fn mine_fimi_with_counts_opts<P: AsRef<Path>>(
    path: P,
    limits: &FimiLimits,
    counts: FimiCounts,
    minsupp: u32,
    item_order: ItemOrder,
    config: OutOfCoreConfig,
    budget: &Budget,
    resume: bool,
    obs: &mut Obs,
) -> Result<OutOfCoreRun, FimError> {
    let path = path.as_ref();
    let header = ManifestHeader {
        input_bytes: fs::metadata(path)?.len(),
        counts_fnv: counts_fingerprint(&counts),
        minsupp: minsupp.max(1),
        order: order_tag(item_order),
    };
    let FimiCounts {
        catalog,
        frequencies,
        transactions,
    } = counts;
    let recode = StreamingRecode::from_counts(&frequencies, minsupp, item_order);
    fs::create_dir_all(&config.spill_dir)?;
    let plan = if resume {
        plan_resume(&config.spill_dir, header)?
    } else {
        clear_spill_state(&config.spill_dir);
        None
    };
    let manifest_path = config.spill_dir.join(MANIFEST_NAME);
    let mut writer = match &plan {
        Some(_) => ManifestWriter::append_to(&manifest_path)?,
        None => ManifestWriter::create(&config.spill_dir, header)?,
    };
    let plan = plan.unwrap_or_default();
    let mut cursor = FimiCursor::open(path, limits)?;
    let miner = OutOfCoreMiner::with_config(config);
    let mut raw: Vec<Item> = Vec::new();
    let (outcome, stats) = miner.mine_stream_with(
        recode.num_items(),
        recode.item_supports(),
        Some(transactions),
        minsupp,
        budget,
        |out| loop {
            fault::hit(points::PASS2_READ)?;
            raw.clear();
            let line = cursor.next_transaction(|tokens| {
                for t in tokens.iter() {
                    match catalog.code(t) {
                        Some(c) => raw.push(c),
                        None => {
                            return Err(FimError::InvalidInput(format!(
                                "item `{t}` appeared only in pass 2 — input changed mid-run"
                            )))
                        }
                    }
                }
                Ok(())
            })?;
            match line {
                None => return Ok(false),
                Some(checked) => {
                    checked?;
                    if recode.encode_transaction(&raw, out) {
                        return Ok(true);
                    }
                }
            }
        },
        Some(&mut writer),
        plan,
        obs,
    )?;
    drop(writer);
    let disk_full = matches!(
        outcome,
        MineOutcome::Interrupted {
            reason: TripReason::DiskFull,
            ..
        }
    );
    if !disk_full {
        // the spill guard removed the files; the manifest goes with them
        let _ = fs::remove_file(&manifest_path);
    }
    let outcome = outcome.map_result(|r| r.into_canonical(recode.item_to_old()));
    Ok(OutOfCoreRun {
        outcome,
        stats,
        catalog,
        transactions,
        num_items: recode.num_items(),
        minsupp_used: recode.minsupp_used(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fimi::read_fimi_path;
    use crate::results::{write_results, write_results_named};
    use fim_core::{mine_closed_with_orders, TransactionOrder};
    use fim_ista::IstaMiner;
    use std::path::PathBuf;

    const PAPER_FIMI: &str = "\
a b c\n\
a d e\n\
b c d\n\
# a comment line\n\
a b c d\n\
b c\n\
a b d\n\
d e\n\
c d e\n";

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("fim-io-oocore-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn write_input(dir: &Path, text: &str) -> PathBuf {
        let p = dir.join("in.fimi");
        std::fs::write(&p, text).unwrap();
        p
    }

    #[test]
    fn output_is_byte_identical_to_in_memory_run() {
        let dir = temp_dir("identity");
        let input = write_input(&dir, PAPER_FIMI);
        for mem_budget in [1u64, 80, 1 << 20] {
            for minsupp in 1..=6 {
                for order in [
                    ItemOrder::AscendingFrequency,
                    ItemOrder::DescendingFrequency,
                    ItemOrder::Original,
                ] {
                    // in-memory reference: read, prepare, mine, write
                    let db = read_fimi_path(&input).unwrap();
                    let result = mine_closed_with_orders(
                        &db,
                        minsupp,
                        &IstaMiner::default(),
                        order,
                        TransactionOrder::Original,
                    );
                    let mut want = Vec::new();
                    write_results(&result, &db, &mut want).unwrap();
                    // out-of-core run over the same file
                    let run = mine_fimi_out_of_core(
                        &input,
                        &FimiLimits::default(),
                        minsupp,
                        order,
                        OutOfCoreConfig::new(mem_budget, dir.join("spill")),
                        &Budget::unlimited(),
                    )
                    .unwrap();
                    assert!(!run.outcome.is_interrupted());
                    let mut got = Vec::new();
                    write_results_named(run.outcome.result(), &run.catalog, &mut got).unwrap();
                    assert_eq!(
                        String::from_utf8(got).unwrap(),
                        String::from_utf8(want).unwrap(),
                        "budget={mem_budget} minsupp={minsupp} order={order:?}"
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn counts_match_materialized_read() {
        let dir = temp_dir("counts");
        let input = write_input(&dir, PAPER_FIMI);
        let counts = count_fimi_path(&input, &FimiLimits::default()).unwrap();
        let db = read_fimi_path(&input).unwrap();
        assert_eq!(counts.transactions, db.num_transactions() as u64);
        assert_eq!(counts.frequencies, db.item_frequencies());
        assert_eq!(counts.catalog.len(), db.catalog().len());
        for (code, name) in db.catalog().iter() {
            assert_eq!(counts.catalog.code(name), Some(code));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_errors_carry_line_numbers_through_the_cursor() {
        let dir = temp_dir("parse");
        let input = write_input(&dir, "a b\nc \x07 d\n");
        let err = mine_fimi_out_of_core(
            &input,
            &FimiLimits::default(),
            1,
            ItemOrder::AscendingFrequency,
            OutOfCoreConfig::new(64, dir.join("spill")),
            &Budget::unlimited(),
        )
        .unwrap_err();
        match err {
            FimError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The fault registry is process-global; tests that arm it serialize.
    static FAULTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn oocore_run(input: &Path, spill: &Path, minsupp: u32, resume: bool) -> OutOfCoreRun {
        let counts = count_fimi_path(input, &FimiLimits::default()).unwrap();
        mine_fimi_with_counts_opts(
            input,
            &FimiLimits::default(),
            counts,
            minsupp,
            ItemOrder::AscendingFrequency,
            OutOfCoreConfig::new(1, spill),
            &Budget::unlimited(),
            resume,
            &mut Obs::new(),
        )
        .unwrap()
    }

    #[test]
    fn enospc_leaves_a_resumable_manifest_and_resume_is_byte_identical() {
        let _g = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
        fault::disarm_all();
        let dir = temp_dir("resume");
        let input = write_input(&dir, PAPER_FIMI);
        let spill = dir.join("spill");

        // uninterrupted in-memory reference output
        let clean = oocore_run(&input, &spill, 2, false);
        let mut want = Vec::new();
        write_results_named(clean.outcome.result(), &clean.catalog, &mut want).unwrap();

        // first run dies of ENOSPC at the 5th spill write
        fault::arm_str("spill.write:5:enospc").unwrap();
        let broken = oocore_run(&input, &spill, 2, false);
        fault::disarm_all();
        match &broken.outcome {
            MineOutcome::Interrupted { reason, .. } => {
                assert_eq!(*reason, TripReason::DiskFull)
            }
            other => panic!("expected DiskFull, got {other:?}"),
        }
        assert!(
            spill.join(MANIFEST_NAME).exists(),
            "degraded run must leave its manifest"
        );

        // resumed run completes, adopts spills, and matches byte for byte
        let resumed = oocore_run(&input, &spill, 2, true);
        assert!(!resumed.outcome.is_interrupted());
        let mut got = Vec::new();
        write_results_named(resumed.outcome.result(), &resumed.catalog, &mut got).unwrap();
        assert_eq!(
            String::from_utf8(got).unwrap(),
            String::from_utf8(want).unwrap()
        );
        use fim_obs::Counter;
        let adopted = resumed.stats.counters.get(Counter::ShardsResumed);
        assert!(
            adopted > 0,
            "completed shards must be adopted, not re-mined"
        );
        assert!(
            resumed.stats.shards < 8,
            "adopted transactions re-mined ({} shards)",
            resumed.stats.shards
        );
        // everything cleaned up after the successful resume
        assert!(!spill.join(MANIFEST_NAME).exists());
        let leftovers: Vec<_> = std::fs::read_dir(&spill)
            .map(|d| d.filter_map(Result::ok).collect())
            .unwrap_or_default();
        assert!(leftovers.is_empty(), "leftovers: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_manifest_is_rejected_with_corrupt() {
        let _g = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
        fault::disarm_all();
        let dir = temp_dir("foreign");
        let input = write_input(&dir, PAPER_FIMI);
        let spill = dir.join("spill");
        fault::arm_str("spill.write:3:enospc").unwrap();
        let broken = oocore_run(&input, &spill, 2, false);
        fault::disarm_all();
        assert!(broken.outcome.is_interrupted());
        // the input grows a transaction: same file, different database
        std::fs::write(&input, format!("{PAPER_FIMI}a c e\n")).unwrap();
        let counts = count_fimi_path(&input, &FimiLimits::default()).unwrap();
        let err = mine_fimi_with_counts_opts(
            &input,
            &FimiLimits::default(),
            counts,
            2,
            ItemOrder::AscendingFrequency,
            OutOfCoreConfig::new(1, &spill),
            &Budget::unlimited(),
            true,
            &mut Obs::new(),
        )
        .unwrap_err();
        assert!(matches!(err, FimError::Corrupt(_)), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("MANIFEST"), "{msg}");
        assert!(msg.contains("fingerprint"), "{msg}");
        // resuming with a different minsupp is foreign too
        let counts = count_fimi_path(&input, &FimiLimits::default()).unwrap();
        std::fs::write(&input, PAPER_FIMI).unwrap();
        let counts2 = count_fimi_path(&input, &FimiLimits::default()).unwrap();
        drop(counts);
        let err = mine_fimi_with_counts_opts(
            &input,
            &FimiLimits::default(),
            counts2,
            3,
            ItemOrder::AscendingFrequency,
            OutOfCoreConfig::new(1, &spill),
            &Budget::unlimited(),
            true,
            &mut Obs::new(),
        )
        .unwrap_err();
        assert!(matches!(err, FimError::Corrupt(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unverifiable_spills_are_re_mined_not_adopted() {
        let _g = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
        fault::disarm_all();
        let dir = temp_dir("unverif");
        let input = write_input(&dir, PAPER_FIMI);
        let spill = dir.join("spill");
        let clean = oocore_run(&input, &spill, 2, false);
        let mut want = Vec::new();
        write_results_named(clean.outcome.result(), &clean.catalog, &mut want).unwrap();
        fault::arm_str("spill.write:5:enospc").unwrap();
        let broken = oocore_run(&input, &spill, 2, false);
        fault::disarm_all();
        assert!(broken.outcome.is_interrupted());
        // corrupt one surviving spill: resume must re-mine its range
        let victim = std::fs::read_dir(&spill)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "spill"))
            .expect("a spill survives the degraded run");
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&victim, &bytes).unwrap();
        let resumed = oocore_run(&input, &spill, 2, true);
        assert!(!resumed.outcome.is_interrupted());
        let mut got = Vec::new();
        write_results_named(resumed.outcome.result(), &resumed.catalog, &mut got).unwrap();
        assert_eq!(
            String::from_utf8(got).unwrap(),
            String::from_utf8(want).unwrap(),
            "corrupt spill must be re-mined, never trusted"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_report_multiple_shards_on_tiny_budget() {
        let dir = temp_dir("shards");
        let input = write_input(&dir, PAPER_FIMI);
        let run = mine_fimi_out_of_core(
            &input,
            &FimiLimits::default(),
            2,
            ItemOrder::AscendingFrequency,
            OutOfCoreConfig::new(1, dir.join("spill")),
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(run.stats.shards, 8, "one shard per transaction");
        assert_eq!(run.stats.merge_passes, 7);
        assert_eq!(run.transactions, 8);
        // spill dir exists but is empty again
        let leftovers: Vec<_> = std::fs::read_dir(dir.join("spill"))
            .map(|d| d.filter_map(Result::ok).collect())
            .unwrap_or_default();
        assert!(leftovers.is_empty(), "leftover spills: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
