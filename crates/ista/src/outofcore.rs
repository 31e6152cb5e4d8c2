//! Out-of-core IsTa: mine databases larger than memory by slicing the
//! transaction stream into contiguous shards sized to a byte budget,
//! mining each shard sequentially, spilling every shard tree to disk as a
//! versioned snapshot, and merge-reducing the spilled trees pairwise from
//! disk.
//!
//! The decomposition rests on the additive support identity
//!
//! ```text
//! supp_{D₁ ∪ D₂}(S) = supp_{D₁}(S) + supp_{D₂}(S)
//! ```
//!
//! for a database split into disjoint transaction multisets: the closed
//! sets of the union are the closed sets of the parts plus their pairwise
//! intersections, and replaying one shard tree's stored transactions into
//! another through the ordinary cumulative intersection update
//! ([`PrefixTree::try_merge_with`]) computes exactly those intersections
//! with correct summed supports. Shards are contiguous, so the §3.4
//! processing order holds inside each of them. Each shard tree starts
//! from a snapshot of the *global* item support counts and decrements only
//! what it consumed itself: occurrences held by other shards arrive later
//! through a merge, so they still count as remaining and the viability
//! bound `supp + remaining[i] ≥ minsupp` stays safe.
//!
//! The resident set stays small: at no point does the pipeline hold more
//! than
//!
//! * one shard's transaction slice (bounded by
//!   [`OutOfCoreConfig::mem_budget`] plus one transaction), **or**
//! * two spilled trees being merged (each pruned against near-final
//!   remaining counts before the replay touches them),
//!
//! plus one `u32` per item per outstanding spill for the remaining-count
//! vectors. Everything else lives in the spill directory as v2 snapshots
//! ([`crate::snapshot`]), fully CRC-validated on every reload — a corrupted
//! or truncated intermediate spill surfaces as [`FimError::Corrupt`] naming
//! the offending file, never as a silently wrong answer.
//!
//! Spill files are written atomically (temporary name, then rename) and
//! removed eagerly as soon as a merge has consumed them; a scope guard
//! removes every file the run created on *all* exits — success, budget
//! trip, error, or panic — so the spill directory is left clean.

use crate::miner::{IstaConfig, PrunePacer, PrunePolicy};
use crate::snapshot;
use crate::tree::{PrefixTree, TreeMemoryStats};
use fim_core::fault::{self, points, RetryPolicy};
use fim_core::{
    checkpoint, Budget, FimError, Governor, Item, ItemRows, MineOutcome, MiningResult, Progress,
    TripReason,
};
use fim_obs::{Counter, Counters, Obs, ProgressSnapshot};
use std::collections::VecDeque;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Estimated resident bytes of one shard-buffered transaction: its items
/// plus allocator/`Vec` bookkeeping. Deliberately a little pessimistic so
/// the shard slice stays *under* the budget rather than over it.
const TX_OVERHEAD_BYTES: u64 = 32;

/// Tuning knobs for [`OutOfCoreMiner`].
#[derive(Clone, Debug)]
pub struct OutOfCoreConfig {
    /// Byte target for one shard's buffered transaction slice. The slicer
    /// closes a shard as soon as the estimated resident size of the
    /// buffered transactions reaches this value (every shard holds at
    /// least one transaction, so a tiny budget degrades to
    /// one-transaction shards, not an error).
    pub mem_budget: u64,
    /// Directory receiving the spill snapshots. Created if missing; the
    /// files the run creates are always removed before it returns.
    pub spill_dir: PathBuf,
    /// Per-shard and per-merge pruning placement policy (same semantics
    /// as the sequential miner's).
    pub policy: PrunePolicy,
    /// Bounded retry for transient spill-write failures (the CLI's
    /// `--io-retries`). The default retries nothing.
    pub retry: RetryPolicy,
}

impl OutOfCoreConfig {
    /// Configuration with an explicit byte budget and spill directory and
    /// the sequential miner's default pruning policy.
    pub fn new(mem_budget: u64, spill_dir: impl Into<PathBuf>) -> Self {
        let seq = IstaConfig::default();
        OutOfCoreConfig {
            mem_budget,
            spill_dir: spill_dir.into(),
            policy: seq.policy,
            retry: RetryPolicy::default(),
        }
    }
}

/// Run report of one [`OutOfCoreMiner`] pipeline run.
#[derive(Clone, Copy, Debug, Default)]
pub struct OutOfCoreStats {
    /// Shards the stream was sliced into (1 means the whole database fit
    /// one slice and was mined purely in memory, with no spill at all).
    pub shards: u64,
    /// Snapshots written to the spill directory: every spilled shard tree
    /// plus every non-final merge result.
    pub spilled: u64,
    /// Total bytes of all spill snapshots written.
    pub spill_bytes: u64,
    /// Pairwise merge-reduce steps performed (`shards - 1` on a healthy
    /// multi-shard run).
    pub merge_passes: u64,
    /// Arena occupancy of the fully reduced tree, before reporting.
    pub memory: TreeMemoryStats,
    /// Hot-loop counters summed over every shard mine and every merge
    /// replay, with the spill bookkeeping ([`Counter::ShardsSpilled`],
    /// [`Counter::SpillBytes`], [`Counter::MergePasses`]) folded in.
    pub counters: Counters,
}

/// Writes `tree` to `path` as a v2 snapshot, atomically *and durably*: the
/// bytes go to a sibling `.tmp` file which is explicitly flushed (write
/// errors surface here instead of being swallowed by `BufWriter::drop`)
/// and `sync_all`ed before the rename over `path`, and the parent
/// directory is fsynced after it — so once this returns, the snapshot
/// survives power loss and `fs::metadata` sizes are trustworthy. Returns
/// the snapshot size in bytes.
///
/// Threads the `spill.write` / `spill.sync` / `spill.rename` fault points
/// ([`fim_core::fault`]); disarmed they cost one load each.
pub fn spill_tree(tree: &mut PrefixTree, path: &Path) -> Result<u64, FimError> {
    let tmp = tmp_path(path);
    let mut w = std::io::BufWriter::new(fs::File::create(&tmp)?);
    snapshot::write_tree(tree, &mut w)?;
    w.flush()?;
    let f = w.into_inner().map_err(|e| FimError::Io(e.into_error()))?;
    // an armed `partial` fault tears the flushed temporary in half and
    // lets the rename publish it — the CRC catches it on the next read
    fault::hit_write(points::SPILL_WRITE, || {
        let half = f.metadata().map(|m| m.len() / 2).unwrap_or(0);
        let _ = f.set_len(half);
    })?;
    fault::hit(points::SPILL_SYNC)?;
    f.sync_all()?;
    let bytes = f.metadata()?.len();
    drop(f);
    fault::hit(points::SPILL_RENAME)?;
    fs::rename(&tmp, path)?;
    sync_parent_dir(path)?;
    Ok(bytes)
}

/// Fsyncs the directory containing `path`, making a just-renamed entry
/// durable.
pub fn sync_parent_dir(path: &Path) -> Result<(), FimError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::File::open(parent)?.sync_all()?;
        }
    }
    Ok(())
}

/// Reloads a spill snapshot, re-wrapping any [`FimError::Corrupt`] so the
/// message names the offending file. Threads the `merge.read` fault point.
pub fn load_spill(path: &Path) -> Result<PrefixTree, FimError> {
    fault::hit(points::MERGE_READ)?;
    let mut r = std::io::BufReader::new(fs::File::open(path)?);
    snapshot::read_tree(&mut r).map_err(|e| match e {
        FimError::Corrupt(msg) => FimError::Corrupt(format!("{}: {msg}", path.display())),
        other => other,
    })
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Scope guard over the files a pipeline run touches in the spill
/// directory. Temporary `.tmp` siblings are removed on *every* exit —
/// success, error return, budget trip, or panic. Completed spill files are
/// removed on drop unless the run is journaling to a resumable manifest
/// and did not reach [`complete`](SpillGuard::complete): a journaled run
/// that dies (crash, injected fault, `ENOSPC` degradation) must leave its
/// completed spills on disk for `--resume-spill`, while an unjournaled run
/// keeps the original always-clean contract.
struct SpillGuard {
    tmps: Vec<PathBuf>,
    finals: Vec<PathBuf>,
    keep_on_failure: bool,
    completed: bool,
}

impl SpillGuard {
    fn new(keep_on_failure: bool) -> Self {
        SpillGuard {
            tmps: Vec::new(),
            finals: Vec::new(),
            keep_on_failure,
            completed: false,
        }
    }

    /// Tracks the spill at `path` (and its temporary sibling) for cleanup.
    fn track(&mut self, path: &Path) {
        self.tmps.push(tmp_path(path));
        self.finals.push(path.to_path_buf());
    }

    /// Marks the run finished: every tracked file is removed on drop.
    fn complete(&mut self) {
        self.completed = true;
    }
}

impl Drop for SpillGuard {
    fn drop(&mut self) {
        for f in &self.tmps {
            let _ = fs::remove_file(f);
        }
        if self.completed || !self.keep_on_failure {
            for f in &self.finals {
                let _ = fs::remove_file(f);
            }
        }
    }
}

/// A half-open range `[start, end)` of stream transaction indices. Indices
/// count the *non-empty* recoded transactions of the stream in order, so
/// they are deterministic across runs over the same input.
pub type TxInterval = (u64, u64);

/// Sink for the completed-spill journal (the `MANIFEST` writer lives in
/// `fim-io`; the miner stays format-agnostic behind this trait).
///
/// [`record`](SpillJournal::record) is called exactly once per spill file,
/// *after* the file is durably on disk under its final name, with the
/// transaction intervals its tree covers. A merge re-spill's record
/// strictly interval-contains its two inputs' records, which is how the
/// reader tells live spills from consumed ones.
pub trait SpillJournal {
    /// Journals a durably completed spill covering `intervals`.
    fn record(&mut self, path: &Path, intervals: &[TxInterval]) -> Result<(), FimError>;
}

/// One verified spill file adopted from a previous run's manifest.
#[derive(Clone, Debug)]
pub struct AdoptedSpill {
    /// The spill snapshot, already CRC-verified by the caller.
    pub path: PathBuf,
    /// The stream transaction intervals its tree covers, sorted and
    /// disjoint.
    pub intervals: Vec<TxInterval>,
}

/// What `--resume-spill` recovered from a previous run's manifest: the
/// verified spills to adopt instead of re-mining, and where the spill-file
/// numbering should continue so resumed runs never collide with adopted
/// files.
#[derive(Clone, Debug, Default)]
pub struct ResumePlan {
    /// Verified spills, in manifest order. Their interval sets are
    /// pairwise disjoint (the manifest reader keeps only live records).
    pub adopted: Vec<AdoptedSpill>,
    /// First free `shard-NNNN.spill` index.
    pub next_shard_idx: u64,
    /// First free `merge-NNNN.spill` index.
    pub next_merge_idx: u64,
}

/// One outstanding spill: its snapshot on disk, the item occurrences *not
/// yet folded into it* — the global support snapshot minus everything the
/// covered transactions consumed (the merge-safety invariant of the
/// module docs, kept in memory because it is one `u32` per item) —
/// and the stream intervals it covers, for journaling.
struct Spill {
    path: PathBuf,
    remaining: Vec<u32>,
    intervals: Vec<TxInterval>,
}

/// Cursor over the adopted spills' (disjoint, sorted) intervals: maps a
/// monotonically increasing transaction index to the spill slot covering
/// it, in O(1) amortised.
struct Coverage {
    iv: Vec<(u64, u64, usize)>,
    pos: usize,
}

impl Coverage {
    fn new(adopted: &[AdoptedSpill]) -> Self {
        let mut iv: Vec<(u64, u64, usize)> = adopted
            .iter()
            .enumerate()
            .flat_map(|(slot, a)| a.intervals.iter().map(move |&(s, e)| (s, e, slot)))
            .collect();
        iv.sort_unstable();
        Coverage { iv, pos: 0 }
    }

    /// The slot covering `idx`, if any. `idx` must not decrease between
    /// calls.
    fn slot(&mut self, idx: u64) -> Option<usize> {
        while self.pos < self.iv.len() && self.iv[self.pos].1 <= idx {
            self.pos += 1;
        }
        match self.iv.get(self.pos) {
            Some(&(s, _, slot)) if s <= idx => Some(slot),
            _ => None,
        }
    }
}

/// Extends `intervals` (sorted, in construction order) with `idx`,
/// growing the last interval when contiguous.
fn push_tx(intervals: &mut Vec<TxInterval>, idx: u64) {
    match intervals.last_mut() {
        Some(last) if last.1 == idx => last.1 = idx + 1,
        _ => intervals.push((idx, idx + 1)),
    }
}

/// The sorted union of two disjoint interval lists, coalescing adjacency.
fn union_intervals(a: &[TxInterval], b: &[TxInterval]) -> Vec<TxInterval> {
    let mut all: Vec<TxInterval> = a.iter().chain(b.iter()).copied().collect();
    all.sort_unstable();
    let mut out: Vec<TxInterval> = Vec::with_capacity(all.len());
    for (s, e) in all {
        match out.last_mut() {
            Some(last) if last.1 >= s => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// A loaded tree travelling through the merge reduction with its
/// remaining-count vector.
type TreeAndRemaining = (PrefixTree, Vec<u32>);

/// Out-of-core shard-spill-merge miner over a transaction *stream*.
///
/// The miner never sees the whole database: the caller feeds it recoded
/// transactions one at a time (see [`OutOfCoreMiner::mine_stream`]), and
/// the pipeline bounds its resident set as described in the module docs.
#[derive(Clone, Debug)]
pub struct OutOfCoreMiner {
    /// Pipeline configuration.
    pub config: OutOfCoreConfig,
}

impl OutOfCoreMiner {
    /// Creates a miner with an explicit configuration.
    pub fn with_config(config: OutOfCoreConfig) -> Self {
        OutOfCoreMiner { config }
    }

    /// Mines the closed frequent item sets of a streamed database.
    ///
    /// `next` is the transaction source: it fills its argument with the
    /// next recoded transaction (dense item codes, sorted, duplicate-free
    /// — e.g. via [`fim_core::StreamingRecode::encode_transaction`]) and
    /// returns `Ok(false)` when the stream is exhausted. Empty
    /// transactions are skipped. `global_supports` must be the item
    /// support counts over the *whole* stream (pass 1 of a two-pass
    /// reader), `total_transactions` the stream length if known (used
    /// only for progress reporting on interruption).
    ///
    /// The `budget` governs tree growth exactly as in the sequential
    /// miner: shard mining and merge replays checkpoint per transaction,
    /// and the first trip stops further stream consumption while the
    /// already-spilled shards are still reduced, so the partial result is
    /// exact for the processed transaction subset. Graceful degradation
    /// (`Budget::degrade`) is a sequential-miner feature and is ignored
    /// here: a per-shard raised threshold would be unsound to merge.
    pub fn mine_stream<F>(
        &self,
        num_items: u32,
        global_supports: &[u32],
        total_transactions: Option<u64>,
        minsupp: u32,
        budget: &Budget,
        next: F,
    ) -> Result<(MineOutcome, OutOfCoreStats), FimError>
    where
        F: FnMut(&mut Vec<Item>) -> Result<bool, FimError>,
    {
        self.mine_stream_with(
            num_items,
            global_supports,
            total_transactions,
            minsupp,
            budget,
            next,
            None,
            ResumePlan::default(),
            &mut Obs::new(),
        )
    }

    /// [`mine_stream`](Self::mine_stream) plus the crash-safety plumbing.
    ///
    /// With a `journal`, every durably completed spill file is recorded
    /// (path + covered transaction intervals) the moment it is safe on
    /// disk, and a failed run — crash, injected fault, `ENOSPC`
    /// degradation — leaves its completed spills in the spill directory
    /// instead of cleaning them, so the journal's reader can build a
    /// [`ResumePlan`] for the next run. A successful (or budget-tripped)
    /// run still leaves the directory clean.
    ///
    /// With a non-empty `resume` plan, the covered transactions of the
    /// adopted spills are *not* re-mined: the stream pass only replays
    /// their per-item decrements to reconstruct each adopted spill's
    /// remaining-count vector, uncovered transactions (holes from
    /// unverified or incomplete spills) are sliced into new shards, and
    /// the merge-reduce proceeds over adopted and new spills together.
    /// New spill files are numbered from the plan's `next_*` indices so
    /// they never collide with adopted files.
    ///
    /// Running out of spill-device space (`ENOSPC`, real or injected)
    /// does not fail the run: it trips [`TripReason::DiskFull`], stops
    /// consuming the stream, and folds every outstanding spill into the
    /// resident tree sequentially in memory — an exact partial over the
    /// processed prefix, with the journaled state left resumable.
    #[allow(clippy::too_many_arguments)]
    pub fn mine_stream_with<F>(
        &self,
        num_items: u32,
        global_supports: &[u32],
        total_transactions: Option<u64>,
        minsupp: u32,
        budget: &Budget,
        mut next: F,
        mut journal: Option<&mut dyn SpillJournal>,
        resume: ResumePlan,
        obs: &mut Obs,
    ) -> Result<(MineOutcome, OutOfCoreStats), FimError>
    where
        F: FnMut(&mut Vec<Item>) -> Result<bool, FimError>,
    {
        assert_eq!(
            global_supports.len(),
            num_items as usize,
            "global_supports must cover the item universe"
        );
        let cfg = &self.config;
        let minsupp = minsupp.max(1);
        fs::create_dir_all(&cfg.spill_dir)?;
        // startup cleanup: `.tmp` siblings left by a crashed run are never
        // live state (only renames publish), so they are removed, not read
        if let Ok(entries) = fs::read_dir(&cfg.spill_dir) {
            for entry in entries.flatten() {
                let p = entry.path();
                if p.extension().is_some_and(|e| e == "tmp") {
                    let _ = fs::remove_file(&p);
                }
            }
        }
        let journaling = journal.is_some();
        let mut guard = SpillGuard::new(journaling);
        let mut gov = (!budget.is_unlimited()).then(|| budget.start());
        let mut tripped: Option<TripReason> = None;
        let mut counters = Counters::new();
        let mut retries: u64 = 0;
        let mut stats = OutOfCoreStats::default();
        // shard trees spilled; `stats.spilled` adds the merge re-spills
        let mut shards_spilled: u64 = 0;
        let resumed = resume.adopted.len() as u64;
        let mut coverage = Coverage::new(&resume.adopted);
        let mut spills: VecDeque<Spill> = resume
            .adopted
            .into_iter()
            .map(|a| {
                guard.track(&a.path);
                Spill {
                    path: a.path,
                    remaining: global_supports.to_vec(),
                    intervals: a.intervals,
                }
            })
            .collect();
        let mut next_shard_name = resume.next_shard_idx;
        let mut next_merge_name = resume.next_merge_idx;
        let mut resident: Option<TreeAndRemaining> = None;
        let mut buf: Vec<Item> = Vec::new();
        let mut source_done = false;
        let mut disk_full = false;
        let mut processed: u64 = 0;
        let mut tx_idx: u64 = 0;
        let mut peak_nodes: u64 = 0;
        // merge-replay work already done / the running estimate of one
        // merge pass's replay cost, both in stream-transaction units so
        // they compose with `processed` for weighted progress reporting
        let mut merge_done: u64 = 0;
        let mut faults_seen = fault::injected_count();
        for (slot, s) in spills.iter().enumerate() {
            obs.instant(
                "adopt",
                &[
                    ("slot", slot as u64),
                    ("intervals", s.intervals.len() as u64),
                ],
            );
        }
        // one estimated merge pass ≈ replaying one average shard slice
        macro_rules! merge_estimate {
            ($queue:expr) => {{
                let avg = processed / stats.shards.max(1);
                ($queue as u64).saturating_sub(1) * avg.max(1)
            }};
        }
        macro_rules! progress_tick {
            ($queue:expr) => {{
                let pending = merge_done + merge_estimate!($queue);
                obs.tick(&ProgressSnapshot {
                    processed: processed + merge_done,
                    total: total_transactions,
                    pending,
                    peak_nodes,
                    sets: 0,
                });
            }};
        }
        macro_rules! note_faults {
            () => {{
                let now = fault::injected_count();
                if now > faults_seen {
                    obs.instant("fault_injected", &[("count", now - faults_seen)]);
                    faults_seen = now;
                }
            }};
        }

        // Phase 1: stream pass. Transactions covered by an adopted spill
        // only replay their per-item decrements into that spill's
        // remaining counts; uncovered ones are sliced into shards sized to
        // the byte budget, mined, and spilled.
        obs.span_enter("stream");
        while !source_done && tripped.is_none() {
            let mut shard: Vec<Vec<Item>> = Vec::new();
            let mut intervals: Vec<TxInterval> = Vec::new();
            let mut bytes = 0u64;
            while bytes < cfg.mem_budget.max(1) {
                if !next(&mut buf)? {
                    source_done = true;
                    break;
                }
                if buf.is_empty() {
                    continue;
                }
                let idx = tx_idx;
                tx_idx += 1;
                if let Some(slot) = coverage.slot(idx) {
                    for &i in buf.iter() {
                        spills[slot].remaining[i as usize] -= 1;
                    }
                    processed += 1;
                    if let Some(g) = gov.as_mut() {
                        g.add_processed(1);
                    }
                    continue;
                }
                bytes += buf.len() as u64 * 4 + TX_OVERHEAD_BYTES;
                push_tx(&mut intervals, idx);
                shard.push(std::mem::take(&mut buf));
            }
            if shard.is_empty() {
                // a fully covered stretch, or the stream ended
                continue;
            }
            // §3.4 processing order holds *within* each shard; the closed
            // sets are invariant under the shard boundaries themselves.
            shard.sort_unstable_by(|a, b| fim_core::cmp_size_then_desc_lex(a, b));
            let shard_idx = stats.shards as usize;
            let was_tripped = tripped.is_some();
            obs.span_enter("shard");
            let mined = mine_shard(
                shard,
                num_items,
                global_supports,
                minsupp,
                cfg,
                &mut gov,
                &mut tripped,
                &mut processed,
            );
            obs.span_exit();
            stats.shards += 1;
            peak_nodes = peak_nodes.max(mined.0.node_count() as u64);
            obs.gauge_arena_bytes(mined.0.memory_stats().approx_bytes as u64);
            if !was_tripped && tripped.is_some() {
                obs.instant("budget_trip", &[("shard", shard_idx as u64)]);
            }
            if source_done && spills.is_empty() {
                // the whole stream fit one slice: pure in-memory run
                resident = Some(mined);
                break;
            }
            let (mut tree, remaining) = mined;
            counters.merge(tree.counters());
            let path = cfg
                .spill_dir
                .join(format!("shard-{next_shard_name:04}.spill"));
            next_shard_name += 1;
            guard.track(&path);
            let retries_before = retries;
            obs.span_enter("spill");
            let spilled = fault::retry_io(cfg.retry, &mut retries, || spill_tree(&mut tree, &path));
            obs.span_exit();
            note_faults!();
            if retries > retries_before {
                obs.instant("retry", &[("attempts", retries - retries_before)]);
            }
            match spilled {
                Ok(b) => {
                    stats.spill_bytes += b;
                    stats.spilled += 1;
                    shards_spilled += 1;
                    obs.instant("spill", &[("shard", shard_idx as u64), ("bytes", b)]);
                    obs.gauge_spill_bytes(stats.spill_bytes);
                }
                Err(FimError::Io(e)) if fault::is_enospc(&e) => {
                    // out of spill space: keep this shard's tree resident
                    // and degrade to the in-memory fold below
                    tripped.get_or_insert(TripReason::DiskFull);
                    disk_full = true;
                    obs.instant("disk_full", &[("shard", shard_idx as u64)]);
                    resident = Some((tree, remaining));
                    break;
                }
                Err(e) => return Err(e),
            }
            // a budget-tripped shard covers only an inserted prefix of its
            // slice, so it is never journaled as complete
            if tripped.is_none() {
                if let Some(j) = journal.as_mut() {
                    match j.record(&path, &intervals) {
                        Ok(()) => {}
                        Err(FimError::Io(e)) if fault::is_enospc(&e) => {
                            tripped.get_or_insert(TripReason::DiskFull);
                            disk_full = true;
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
            spills.push_back(Spill {
                path,
                remaining,
                intervals,
            });
            progress_tick!(spills.len());
        }
        obs.span_exit();

        // Phase 2: pairwise merge-reduce the spills from disk. Two trees
        // resident at a time; intermediate results go back to disk unless
        // they are the root of the reduction.
        obs.span_enter("merge");
        while !disk_full && spills.len() >= 2 {
            let a = spills.pop_front().expect("len checked");
            let b = spills.pop_front().expect("len checked");
            obs.span_enter("pass");
            let ta = load_spill(&a.path)?;
            let tb = load_spill(&b.path)?;
            if !journaling {
                // eager delete; journaled runs defer until the merge
                // result is durable so every live manifest record always
                // has its file on disk
                let _ = fs::remove_file(&a.path);
                let _ = fs::remove_file(&b.path);
            }
            let is_final = spills.is_empty();
            let covered = union_intervals(&a.intervals, &b.intervals);
            // replay the lighter side into the heavier one
            let (mut left, right) = if tb.transactions_processed() > ta.transactions_processed() {
                ((tb, b.remaining), (ta, a.remaining))
            } else {
                ((ta, a.remaining), (tb, b.remaining))
            };
            let was_tripped = tripped.is_some();
            merge_spilled(
                &mut left,
                right,
                minsupp,
                cfg,
                &mut gov,
                &mut tripped,
                is_final,
            );
            stats.merge_passes += 1;
            merge_done += merge_estimate!(2);
            peak_nodes = peak_nodes.max(left.0.node_count() as u64);
            obs.gauge_arena_bytes(left.0.memory_stats().approx_bytes as u64);
            obs.instant("merge_pass", &[("pass", stats.merge_passes)]);
            if !was_tripped && tripped.is_some() {
                obs.instant("budget_trip", &[("pass", stats.merge_passes)]);
            }
            progress_tick!(spills.len() + 1);
            if is_final {
                resident = Some(left);
                obs.span_exit();
                continue;
            }
            let (ref mut tree, _) = left;
            counters.merge(tree.counters());
            let path = cfg
                .spill_dir
                .join(format!("merge-{next_merge_name:04}.spill"));
            next_merge_name += 1;
            guard.track(&path);
            let retries_before = retries;
            let spilled = fault::retry_io(cfg.retry, &mut retries, || spill_tree(tree, &path));
            note_faults!();
            if retries > retries_before {
                obs.instant("retry", &[("attempts", retries - retries_before)]);
            }
            match spilled {
                Ok(b) => {
                    stats.spill_bytes += b;
                    stats.spilled += 1;
                    obs.instant("spill", &[("pass", stats.merge_passes), ("bytes", b)]);
                    obs.gauge_spill_bytes(stats.spill_bytes);
                }
                Err(FimError::Io(e)) if fault::is_enospc(&e) => {
                    // the merged tree stays resident; its (journaled)
                    // inputs stay on disk for resume
                    tripped.get_or_insert(TripReason::DiskFull);
                    disk_full = true;
                    obs.instant("disk_full", &[("pass", stats.merge_passes)]);
                    resident = Some(left);
                    obs.span_exit();
                    continue;
                }
                Err(e) => return Err(e),
            }
            let mut journaled = !journaling;
            if tripped.is_none() {
                if let Some(j) = journal.as_mut() {
                    match j.record(&path, &covered) {
                        Ok(()) => journaled = true,
                        Err(FimError::Io(e)) if fault::is_enospc(&e) => {
                            tripped.get_or_insert(TripReason::DiskFull);
                            disk_full = true;
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
            if journaling && journaled {
                // the merge result is durable *and* journaled: its inputs'
                // records are now interval-contained (dead), so the files
                // can finally go
                let _ = fs::remove_file(&a.path);
                let _ = fs::remove_file(&b.path);
            }
            spills.push_back(Spill {
                path,
                remaining: left.1,
                intervals: covered,
            });
            obs.span_exit();
        }

        // Degraded fold: the spill device is full, so every outstanding
        // spill is folded into the resident tree sequentially in memory —
        // nothing written, nothing deleted, journaled state left
        // resumable. The footprint stays one tree plus one reloaded spill.
        if disk_full {
            let mut acc = resident
                .take()
                .unwrap_or_else(|| (PrefixTree::new(num_items), global_supports.to_vec()));
            while let Some(s) = spills.pop_front() {
                let is_final = spills.is_empty();
                obs.span_enter("pass");
                let t = load_spill(&s.path)?;
                merge_spilled(
                    &mut acc,
                    (t, s.remaining),
                    minsupp,
                    cfg,
                    &mut gov,
                    &mut tripped,
                    is_final,
                );
                stats.merge_passes += 1;
                merge_done += merge_estimate!(2);
                peak_nodes = peak_nodes.max(acc.0.node_count() as u64);
                obs.instant("merge_pass", &[("pass", stats.merge_passes)]);
                obs.span_exit();
                progress_tick!(spills.len() + 1);
            }
            resident = Some(acc);
        }
        obs.span_exit();

        // Phase 3: report from the single surviving tree.
        let (mut tree, remaining) = match resident {
            Some(t) => t,
            None => match spills.pop_front() {
                // a lone spill with nothing to merge into it (a resumed
                // run whose stream was fully covered, or a trip right at a
                // shard boundary)
                Some(s) => {
                    let t = load_spill(&s.path)?;
                    if !journaling {
                        let _ = fs::remove_file(&s.path);
                    }
                    (t, s.remaining)
                }
                None => (PrefixTree::new(num_items), global_supports.to_vec()),
            },
        };
        obs.span_enter("report");
        if !matches!(cfg.policy, PrunePolicy::Never) {
            // terminal-reducing prune: this tree is only reported now
            tree.prune(&remaining, minsupp);
            tree.compact_if_fragmented();
        }
        counters.merge(tree.counters());
        counters.add(Counter::ShardsSpilled, shards_spilled);
        counters.add(Counter::SpillBytes, stats.spill_bytes);
        counters.add(Counter::MergePasses, stats.merge_passes);
        counters.add(Counter::FaultsInjected, fault::injected_count());
        counters.add(Counter::RetriesAttempted, retries);
        counters.add(Counter::ShardsResumed, resumed);
        stats.counters = counters;
        stats.memory = tree.memory_stats();
        obs.gauge_arena_bytes(stats.memory.approx_bytes as u64);
        obs.gauge_nodes(peak_nodes.max(tree.node_count() as u64));
        let result = MiningResult {
            sets: tree.report(minsupp),
        };
        obs.span_exit();
        let outcome = match tripped {
            Some(reason) => MineOutcome::Interrupted {
                partial: result,
                reason,
                progress: Progress {
                    processed,
                    total: total_transactions,
                },
            },
            None => MineOutcome::complete(result),
        };
        // a journaled run that ran out of disk leaves its completed spills
        // (and the caller leaves the manifest) for --resume-spill; every
        // other exit removes them
        if !(journaling && disk_full) {
            guard.complete();
        }
        drop(guard);
        Ok((outcome, stats))
    }
}

/// Mines one shard slice into its own tree, keeping it safe to merge.
///
/// Items that are globally hopeless (`global_supports[i] < minsupp`) are
/// filtered out of every transaction before insertion: no viable set can
/// contain them. That lets the shard prune with
/// [`PrefixTree::prune_keeping_terminals`], which never reduces a stored
/// transaction, so the later replay stays exact for viable sets. The plain
/// [`PrefixTree::prune`] could drop an item that is hopeless for this
/// shard but viable overall from a stored transaction, and the replay
/// would then under-count that item's supersets.
#[allow(clippy::too_many_arguments)]
fn mine_shard(
    txs: Vec<Vec<Item>>,
    num_items: u32,
    global_supports: &[u32],
    minsupp: u32,
    cfg: &OutOfCoreConfig,
    gov: &mut Option<Governor>,
    tripped: &mut Option<TripReason>,
    processed: &mut u64,
) -> TreeAndRemaining {
    let mut tree = PrefixTree::new(num_items);
    let mut remaining: Vec<u32> = global_supports.to_vec();
    let mut pacer = PrunePacer::new(cfg.policy);
    let occurrences = txs.iter().map(Vec::len).sum();
    let mut filtered = ItemRows::with_capacity(txs.len(), occurrences);
    for t in txs {
        filtered.push_set(t.into_iter().filter(|&i| {
            let viable = global_supports[i as usize] >= minsupp;
            if !viable {
                remaining[i as usize] -= 1;
            }
            viable
        }));
    }
    let weighted = fim_core::coalesce(filtered.view());
    for (t, w) in &weighted {
        for &i in t.iter() {
            remaining[i as usize] -= w;
        }
        tree.add_transaction_weighted(t, *w);
        *processed += u64::from(*w);
        if let Some(g) = gov.as_mut() {
            g.add_processed(u64::from(*w));
        }
        if let Some(reason) =
            checkpoint!(gov, tree.node_count(), tree.memory_stats().approx_bytes, 0)
        {
            // stop inserting; the tree stays merge-safe and represents
            // exactly the inserted prefix
            if tripped.is_none() {
                *tripped = Some(reason);
            }
            break;
        }
        if pacer.due(tree.node_count()) {
            tree.prune_keeping_terminals(&remaining, minsupp);
            pacer.pruned(tree.node_count());
            tree.compact_if_fragmented();
        }
    }
    (tree, remaining)
}

/// Folds `right` into `left`: replays the reloaded donor's stored
/// transactions, pruning mid-replay so the combined tree stays as bounded
/// as the shard trees were. Remaining counts are decremented transaction
/// by transaction during the replay; decrementing them all up front would
/// over-prune nodes whose support has not yet absorbed the unreplayed
/// occurrences. `is_final` marks the root of the reduction, whose result
/// is only reported and may therefore use the plain (terminal-reducing)
/// prune.
fn merge_spilled(
    left: &mut TreeAndRemaining,
    right: TreeAndRemaining,
    minsupp: u32,
    cfg: &OutOfCoreConfig,
    gov: &mut Option<Governor>,
    tripped: &mut Option<TripReason>,
    is_final: bool,
) {
    let (tree, remaining) = left;
    let mut pacer = PrunePacer::new(cfg.policy);
    // prune against this side's own remaining counts before the replay
    // touches anything — the reloaded shard trees were pruned against
    // near-global (weak) counts only
    if !matches!(cfg.policy, PrunePolicy::Never) {
        if is_final {
            tree.prune(remaining, minsupp);
        } else {
            tree.prune_keeping_terminals(remaining, minsupp);
        }
        tree.compact_if_fragmented();
    }
    pacer.pruned(tree.node_count());
    let replay: Result<(), TripReason> = tree.try_merge_with(&right.0, |tree, t, w| {
        for &i in t {
            remaining[i as usize] -= w;
        }
        if pacer.due(tree.node_count()) {
            if is_final {
                tree.prune(remaining, minsupp);
            } else {
                tree.prune_keeping_terminals(remaining, minsupp);
            }
            pacer.pruned(tree.node_count());
            tree.compact_if_fragmented();
        }
        match checkpoint!(gov, tree.node_count(), tree.memory_stats().approx_bytes, 0) {
            Some(reason) => Err(reason),
            None => Ok(()),
        }
    });
    if let Err(reason) = replay {
        // the merged tree holds the replayed prefix exactly; the rest of
        // the donor is dropped — a sound partial
        if tripped.is_none() {
            *tripped = Some(reason);
        }
    }
    tree.absorb_counters(right.0.counters());
}

#[cfg(test)]
mod tests {
    use super::*;
    use fim_core::reference::mine_reference;
    use fim_core::RecodedDatabase;

    fn paper_db() -> RecodedDatabase {
        RecodedDatabase::from_dense(
            vec![
                vec![0, 1, 2],
                vec![0, 3, 4],
                vec![1, 2, 3],
                vec![0, 1, 2, 3],
                vec![1, 2],
                vec![0, 1, 3],
                vec![3, 4],
                vec![2, 3, 4],
            ],
            5,
        )
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("fim-oocore-unit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn mine_db(
        db: &RecodedDatabase,
        minsupp: u32,
        mem_budget: u64,
        dir: &Path,
    ) -> (MineOutcome, OutOfCoreStats) {
        let miner = OutOfCoreMiner::with_config(OutOfCoreConfig::new(mem_budget, dir));
        let txs = db.transactions();
        let mut i = 0usize;
        miner
            .mine_stream(
                db.num_items(),
                db.item_supports(),
                Some(txs.len() as u64),
                minsupp,
                &Budget::unlimited(),
                move |buf| {
                    buf.clear();
                    if i < txs.len() {
                        buf.extend_from_slice(&txs[i]);
                        i += 1;
                        Ok(true)
                    } else {
                        Ok(false)
                    }
                },
            )
            .expect("pipeline")
    }

    fn dir_is_empty(dir: &Path) -> bool {
        fs::read_dir(dir).map_or(true, |d| d.count() == 0)
    }

    #[test]
    fn matches_reference_across_budgets_and_minsupps() {
        let db = paper_db();
        let dir = temp_dir("ref");
        // budgets chosen to force 1, 2-3, and 8 shards on the paper db
        for mem_budget in [1u64, 100, 1 << 20] {
            for minsupp in 1..=8 {
                let want = mine_reference(&db, minsupp);
                let (outcome, stats) = mine_db(&db, minsupp, mem_budget, &dir);
                assert!(!outcome.is_interrupted());
                let got = outcome.into_result().canonicalized();
                assert_eq!(got, want, "budget={mem_budget} minsupp={minsupp}");
                if mem_budget == 1 {
                    assert_eq!(stats.shards, 8, "one transaction per shard");
                    assert_eq!(stats.merge_passes, stats.shards - 1);
                }
                if mem_budget == 1 << 20 {
                    assert_eq!(stats.shards, 1, "everything fits in memory");
                    assert_eq!(stats.spilled, 0, "single shard never spills");
                }
                assert!(dir_is_empty(&dir), "spill dir not clean");
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_round_trip_reports_identically() {
        let db = paper_db();
        let dir = temp_dir("rt");
        fs::create_dir_all(&dir).unwrap();
        let mut tree = PrefixTree::new(db.num_items());
        for t in db.transactions() {
            tree.add_transaction(t);
        }
        let path = dir.join("t.spill");
        let bytes = spill_tree(&mut tree, &path).expect("spill");
        assert_eq!(bytes, fs::metadata(&path).unwrap().len());
        let back = load_spill(&path).expect("load");
        assert_eq!(back.report(2), tree.report(2));
        assert!(!path.with_file_name("t.spill.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_spill_names_the_corrupt_file() {
        let db = paper_db();
        let dir = temp_dir("corrupt");
        fs::create_dir_all(&dir).unwrap();
        let mut tree = PrefixTree::new(db.num_items());
        for t in db.transactions() {
            tree.add_transaction(t);
        }
        let path = dir.join("bad.spill");
        spill_tree(&mut tree, &path).expect("spill");
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let err = load_spill(&path).unwrap_err();
        assert!(matches!(err, FimError::Corrupt(_)), "{err}");
        assert!(
            err.to_string().contains("bad.spill"),
            "error must name the file: {err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn node_budget_trips_with_sound_partial_and_clean_dir() {
        let db = paper_db();
        let dir = temp_dir("budget");
        let miner = OutOfCoreMiner::with_config(OutOfCoreConfig::new(1, &dir));
        let txs = db.transactions();
        let mut i = 0usize;
        let budget = Budget::unlimited().with_max_nodes(2);
        let (outcome, _) = miner
            .mine_stream(
                db.num_items(),
                db.item_supports(),
                Some(txs.len() as u64),
                1,
                &budget,
                move |buf| {
                    buf.clear();
                    if i < txs.len() {
                        buf.extend_from_slice(&txs[i]);
                        i += 1;
                        Ok(true)
                    } else {
                        Ok(false)
                    }
                },
            )
            .expect("pipeline");
        match outcome {
            MineOutcome::Interrupted {
                partial, reason, ..
            } => {
                assert_eq!(reason, TripReason::NodeBudget);
                for fs in &partial.sets {
                    assert!(
                        fs.support <= db.support(&fs.items),
                        "partial support of {:?} exceeds the full-database support",
                        fs.items
                    );
                }
            }
            other => panic!("expected interruption, got {other:?}"),
        }
        assert!(dir_is_empty(&dir), "spill dir not clean after trip");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_stream_mines_nothing() {
        let dir = temp_dir("empty");
        let miner = OutOfCoreMiner::with_config(OutOfCoreConfig::new(64, &dir));
        let (outcome, stats) = miner
            .mine_stream(3, &[0, 0, 0], Some(0), 1, &Budget::unlimited(), |buf| {
                buf.clear();
                Ok(false)
            })
            .expect("pipeline");
        assert!(!outcome.is_interrupted());
        assert!(outcome.into_result().is_empty());
        assert_eq!(stats.shards, 0);
        assert!(dir_is_empty(&dir));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_expose_spill_counters() {
        let db = paper_db();
        let dir = temp_dir("stats");
        let (outcome, stats) = mine_db(&db, 2, 1, &dir);
        assert!(!outcome.is_interrupted());
        assert_eq!(stats.shards, 8);
        // 8 shard spills + 6 non-final merge spills
        assert_eq!(stats.spilled, 14);
        assert_eq!(stats.merge_passes, 7);
        assert!(stats.spill_bytes > 0);
        // the counter counts the shard trees, the bytes every snapshot
        assert_eq!(stats.counters.get(Counter::ShardsSpilled), 8);
        assert_eq!(stats.counters.get(Counter::SpillBytes), stats.spill_bytes);
        assert_eq!(stats.counters.get(Counter::MergePasses), stats.merge_passes);
        let _ = fs::remove_dir_all(&dir);
    }

    /// In-memory journal recording `(file name, intervals)` per spill.
    #[derive(Default)]
    struct VecJournal {
        records: Vec<(String, Vec<TxInterval>)>,
    }

    impl SpillJournal for VecJournal {
        fn record(&mut self, path: &Path, intervals: &[TxInterval]) -> Result<(), FimError> {
            self.records.push((
                path.file_name().unwrap().to_string_lossy().into_owned(),
                intervals.to_vec(),
            ));
            Ok(())
        }
    }

    /// Filters journal records down to the live ones (not strictly
    /// interval-contained in another record) — a tiny stand-in for the
    /// manifest reader in fim-io.
    fn live(records: &[(String, Vec<TxInterval>)]) -> Vec<(String, Vec<TxInterval>)> {
        let contains = |outer: &[TxInterval], inner: &[TxInterval]| {
            inner
                .iter()
                .all(|&(s, e)| outer.iter().any(|&(os, oe)| os <= s && e <= oe))
        };
        records
            .iter()
            .filter(|(name, iv)| {
                !records
                    .iter()
                    .any(|(n2, iv2)| n2 != name && contains(iv2, iv))
            })
            .cloned()
            .collect()
    }

    fn mine_with(
        db: &RecodedDatabase,
        minsupp: u32,
        mem_budget: u64,
        dir: &Path,
        journal: Option<&mut dyn SpillJournal>,
        resume: ResumePlan,
    ) -> (MineOutcome, OutOfCoreStats) {
        let miner = OutOfCoreMiner::with_config(OutOfCoreConfig::new(mem_budget, dir));
        let txs = db.transactions();
        let mut i = 0usize;
        miner
            .mine_stream_with(
                db.num_items(),
                db.item_supports(),
                Some(txs.len() as u64),
                minsupp,
                &Budget::unlimited(),
                move |buf| {
                    buf.clear();
                    if i < txs.len() {
                        buf.extend_from_slice(&txs[i]);
                        i += 1;
                        Ok(true)
                    } else {
                        Ok(false)
                    }
                },
                journal,
                resume,
                &mut Obs::new(),
            )
            .expect("pipeline")
    }

    #[test]
    fn stale_tmp_files_are_removed_at_startup() {
        let db = paper_db();
        let dir = temp_dir("staletmp");
        fs::create_dir_all(&dir).unwrap();
        // a previous crashed run left a torn temporary behind
        let stale = dir.join("shard-0003.spill.tmp");
        fs::write(&stale, b"torn garbage from a dead process").unwrap();
        let (outcome, _) = mine_db(&db, 2, 1, &dir);
        assert!(!outcome.is_interrupted());
        assert_eq!(
            outcome.into_result().canonicalized(),
            mine_reference(&db, 2)
        );
        assert!(!stale.exists(), "stale .tmp must be cleaned at startup");
        assert!(dir_is_empty(&dir));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_records_every_spill_with_disjoint_base_intervals() {
        let db = paper_db();
        let dir = temp_dir("journal");
        let mut j = VecJournal::default();
        let (outcome, stats) = mine_with(&db, 2, 1, &dir, Some(&mut j), ResumePlan::default());
        assert!(!outcome.is_interrupted());
        // every spill journaled: 8 shards + 6 non-final merges
        assert_eq!(j.records.len() as u64, stats.spilled);
        // the shard records partition the 8 transactions
        let shard_txs: u64 = j
            .records
            .iter()
            .filter(|(n, _)| n.starts_with("shard-"))
            .flat_map(|(_, iv)| iv.iter())
            .map(|(s, e)| e - s)
            .sum();
        assert_eq!(shard_txs, 8);
        // liveness: the final merge is only reported, never spilled, so
        // containment filtering leaves exactly its two inputs, which
        // together cover the whole stream
        let alive = live(&j.records);
        assert_eq!(alive.len(), 2, "{alive:?}");
        let covered: Vec<TxInterval> = union_intervals(&alive[0].1, &alive[1].1);
        assert_eq!(covered, vec![(0, 8)]);
        // a completed journaled run still leaves the directory clean
        assert!(dir_is_empty(&dir));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_degrades_to_an_exact_partial_and_resume_completes_it() {
        let _g = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
        fault::disarm_all();
        let db = paper_db();
        let want = mine_reference(&db, 2);
        let dir = temp_dir("enospc");

        // First run: the 5th spill write hits ENOSPC. The run must not
        // error — it degrades to an Interrupted(DiskFull) exact partial —
        // and the journaled spills must stay on disk.
        fault::arm_str("spill.write:5:enospc").unwrap();
        let mut j = VecJournal::default();
        let (outcome, stats) = mine_with(&db, 2, 1, &dir, Some(&mut j), ResumePlan::default());
        fault::disarm_all();
        match outcome {
            MineOutcome::Interrupted {
                partial, reason, ..
            } => {
                assert_eq!(reason, TripReason::DiskFull);
                for fs in &partial.sets {
                    assert!(fs.support <= db.support(&fs.items), "unsound partial");
                }
            }
            other => panic!("expected DiskFull interruption, got {other:?}"),
        }
        assert_eq!(stats.counters.get(Counter::FaultsInjected), 1);
        let alive = live(&j.records);
        assert!(!alive.is_empty(), "completed spills must be journaled");
        for (name, _) in &alive {
            assert!(dir.join(name).exists(), "{name} must survive for resume");
        }

        // Second run: adopt the live spills. The covered transactions are
        // not re-mined (fewer new shards than a cold run) and the final
        // result is exact.
        let adopted: Vec<AdoptedSpill> = alive
            .iter()
            .map(|(name, iv)| AdoptedSpill {
                path: dir.join(name),
                intervals: iv.clone(),
            })
            .collect();
        let n_adopted = adopted.len() as u64;
        let max_shard = j
            .records
            .iter()
            .filter_map(|(n, _)| {
                n.strip_prefix("shard-")?
                    .strip_suffix(".spill")?
                    .parse::<u64>()
                    .ok()
            })
            .max()
            .map_or(0, |m| m + 1);
        let plan = ResumePlan {
            adopted,
            next_shard_idx: max_shard,
            next_merge_idx: 0,
        };
        let mut j2 = VecJournal::default();
        let (outcome2, stats2) = mine_with(&db, 2, 1, &dir, Some(&mut j2), plan);
        assert!(!outcome2.is_interrupted());
        assert_eq!(outcome2.into_result().canonicalized(), want);
        assert_eq!(stats2.counters.get(Counter::ShardsResumed), n_adopted);
        assert!(
            stats2.shards < 8,
            "adopted transactions must not be re-mined (mined {} shards)",
            stats2.shards
        );
        assert!(dir_is_empty(&dir), "completed resume leaves a clean dir");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_write_faults_are_absorbed_by_retries() {
        let _g = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
        fault::disarm_all();
        let db = paper_db();
        let dir = temp_dir("retry");
        fault::arm_str("spill.write:2:io").unwrap();
        let mut config = OutOfCoreConfig::new(1, &dir);
        config.retry = RetryPolicy {
            retries: 2,
            backoff_ms: 0,
        };
        let miner = OutOfCoreMiner::with_config(config);
        let txs = db.transactions();
        let mut i = 0usize;
        let (outcome, stats) = miner
            .mine_stream(
                db.num_items(),
                db.item_supports(),
                None,
                2,
                &Budget::unlimited(),
                move |buf| {
                    buf.clear();
                    if i < txs.len() {
                        buf.extend_from_slice(&txs[i]);
                        i += 1;
                        Ok(true)
                    } else {
                        Ok(false)
                    }
                },
            )
            .expect("retry must absorb the transient fault");
        fault::disarm_all();
        assert!(!outcome.is_interrupted());
        assert_eq!(
            outcome.into_result().canonicalized(),
            mine_reference(&db, 2)
        );
        assert_eq!(stats.counters.get(Counter::RetriesAttempted), 1);
        assert!(dir_is_empty(&dir));
        let _ = fs::remove_dir_all(&dir);
    }

    /// The fault registry is process-global; tests that arm it serialize.
    static FAULTS: Mutex<()> = Mutex::new(());

    use std::sync::Mutex;

    #[test]
    fn policies_agree_with_reference() {
        let db = paper_db();
        let dir = temp_dir("pol");
        let policies = [
            PrunePolicy::Never,
            PrunePolicy::EveryN(1),
            PrunePolicy::Growth(1.1),
        ];
        for policy in policies {
            for minsupp in [1u32, 2, 3, 5] {
                let want = mine_reference(&db, minsupp);
                let mut config = OutOfCoreConfig::new(100, &dir);
                config.policy = policy;
                let miner = OutOfCoreMiner::with_config(config);
                let txs = db.transactions();
                let mut i = 0usize;
                let (outcome, _) = miner
                    .mine_stream(
                        db.num_items(),
                        db.item_supports(),
                        None,
                        minsupp,
                        &Budget::unlimited(),
                        move |buf| {
                            buf.clear();
                            if i < txs.len() {
                                buf.extend_from_slice(&txs[i]);
                                i += 1;
                                Ok(true)
                            } else {
                                Ok(false)
                            }
                        },
                    )
                    .expect("pipeline");
                let got = outcome.into_result().canonicalized();
                assert_eq!(got, want, "policy={policy:?} ms={minsupp}");
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
