//! Deterministic fault injection and bounded I/O retry for the
//! crash-safety layer.
//!
//! Durable pipelines (the out-of-core shard spiller, the stream
//! checkpointer) thread *named fault points* through their I/O paths. A
//! test — or the `--inject-fault` CLI flag — arms a point with an
//! occurrence number and a failure kind, and the nth time execution
//! reaches that point the configured fault fires: a transient I/O error,
//! an out-of-disk-space error, a silent truncation of the artifact just
//! written (a torn write that an un-fsynced rename made visible), or a
//! process-killing panic. Because the trigger is "the nth hit of a named
//! point", a crash harness can deterministically kill a run at *every*
//! interesting on-disk state and then assert that resume reconstructs the
//! exact answer.
//!
//! The registry is process-global. When nothing is armed, a fault point
//! costs a single relaxed atomic load and a predictable branch — cheap
//! enough to leave in release builds (the out-of-core pipeline hits a
//! point at most a handful of times per transaction, against microseconds
//! of tree work).
//!
//! Arming is programmatic ([`arm`]/[`arm_str`]) or via the
//! `FIM_INJECT_FAULT` environment variable ([`arm_from_env`]), which holds
//! one or more comma-separated specs in the same
//! `<point>:<nth>[:io|enospc|partial|panic]` syntax as the CLI flag.
//! Tests that arm faults in-process must serialize on their own mutex
//! (the registry is shared) and call [`disarm_all`] when done.
//!
//! [`RetryPolicy`] and [`retry_io`] live here too: the bounded
//! retry-with-backoff wrapper the durable I/O paths use to absorb
//! *transient* errors (an injected `io` fault is transient; `enospc` is
//! not — retrying a full disk is wasted motion, so it propagates for the
//! graceful-degradation path to handle).

use crate::error::FimError;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// The registered fault point names.
///
/// A spec naming anything else is rejected at parse time, so a typo in
/// `--inject-fault` cannot silently arm nothing.
pub mod points {
    /// Pass 1 of the out-of-core pipeline: per-transaction item counting.
    pub const COUNTS_PASS1: &str = "counts.pass1";
    /// Pass 2 of the out-of-core pipeline: per-transaction re-read/recode.
    pub const PASS2_READ: &str = "pass2.read";
    /// Spill snapshot bytes written and flushed, before durability.
    /// `partial` here truncates the flushed temporary to half its length
    /// and lets the rename publish the torn file.
    pub const SPILL_WRITE: &str = "spill.write";
    /// Between flush and `sync_all` of a spill snapshot.
    pub const SPILL_SYNC: &str = "spill.sync";
    /// Immediately before the atomic rename publishing a spill snapshot.
    pub const SPILL_RENAME: &str = "spill.rename";
    /// Reload of a spill snapshot for a merge pass.
    pub const MERGE_READ: &str = "merge.read";
    /// Append of a completed-spill record to the `MANIFEST` journal.
    pub const MANIFEST_WRITE: &str = "manifest.write";
    /// Stream-checkpoint bytes written and flushed, before the rename.
    /// `partial` truncates the flushed temporary, as for `spill.write`.
    pub const CHECKPOINT_WRITE: &str = "checkpoint.write";

    /// Every registered point.
    pub const ALL: &[&str] = &[
        COUNTS_PASS1,
        PASS2_READ,
        SPILL_WRITE,
        SPILL_SYNC,
        SPILL_RENAME,
        MERGE_READ,
        MANIFEST_WRITE,
        CHECKPOINT_WRITE,
    ];

    /// The points the out-of-core pipeline passes through — the matrix the
    /// kill-and-resume crash-consistency harness iterates.
    pub const OOCORE: &[&str] = &[
        COUNTS_PASS1,
        PASS2_READ,
        SPILL_WRITE,
        SPILL_SYNC,
        SPILL_RENAME,
        MERGE_READ,
        MANIFEST_WRITE,
    ];
}

/// What an armed fault does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A transient I/O error ([`FimError::Io`], kind `Other`) — the
    /// retry layer treats it as retryable.
    Io,
    /// `ENOSPC` (out of disk space) — not retryable; the pipeline's
    /// graceful-degradation path handles it.
    Enospc,
    /// At a write point: silently truncate the artifact to half its
    /// length and *continue* — the torn bytes must be caught by the next
    /// validated read. At a non-write point this degrades to [`Io`](Self::Io).
    Partial,
    /// Kill the process mid-pipeline (a panic), leaving whatever is on
    /// disk exactly as the crash would.
    Panic,
}

impl FaultKind {
    fn parse(s: &str) -> Result<FaultKind, String> {
        match s {
            "io" => Ok(FaultKind::Io),
            "enospc" => Ok(FaultKind::Enospc),
            "partial" => Ok(FaultKind::Partial),
            "panic" => Ok(FaultKind::Panic),
            other => Err(format!(
                "unknown fault kind '{other}' (io|enospc|partial|panic)"
            )),
        }
    }
}

/// One armed fault: fire `kind` on the `nth` hit of `point` (1-based),
/// once.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// The fault point name (one of [`points::ALL`]).
    pub point: String,
    /// Which hit of the point fires the fault (1 = the first).
    pub nth: u64,
    /// What happens when it fires.
    pub kind: FaultKind,
}

/// Parses a `<point>:<nth>[:io|enospc|partial|panic]` spec (the
/// `--inject-fault` / `FIM_INJECT_FAULT` syntax; the kind defaults to
/// `panic`). The point name must be registered in [`points::ALL`].
pub fn parse_spec(s: &str) -> Result<FaultSpec, String> {
    let mut parts = s.splitn(3, ':');
    let point = parts.next().unwrap_or_default();
    if !points::ALL.contains(&point) {
        return Err(format!(
            "unknown fault point '{point}' (known: {})",
            points::ALL.join(", ")
        ));
    }
    let nth_str = parts
        .next()
        .ok_or_else(|| format!("fault spec '{s}' is missing ':<nth>'"))?;
    let nth: u64 = nth_str
        .parse()
        .map_err(|e| format!("bad fault occurrence '{nth_str}': {e}"))?;
    if nth == 0 {
        return Err("fault occurrence is 1-based; use :1 for the first hit".into());
    }
    let kind = match parts.next() {
        None => FaultKind::Panic,
        Some(k) => FaultKind::parse(k)?,
    };
    Ok(FaultSpec {
        point: point.to_owned(),
        nth,
        kind,
    })
}

struct Armed {
    spec: FaultSpec,
    hits: u64,
    fired: bool,
}

static ANY_ARMED: AtomicBool = AtomicBool::new(false);
static INJECTED: AtomicU64 = AtomicU64::new(0);
static REGISTRY: Mutex<Vec<Armed>> = Mutex::new(Vec::new());

/// Arms a fault. Multiple faults (even on the same point) may be armed at
/// once; each fires at most once.
pub fn arm(spec: FaultSpec) {
    let mut reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    reg.push(Armed {
        spec,
        hits: 0,
        fired: false,
    });
    ANY_ARMED.store(true, Ordering::Release);
}

/// Parses and arms one spec string.
pub fn arm_str(s: &str) -> Result<(), String> {
    arm(parse_spec(s)?);
    Ok(())
}

/// Arms every comma-separated spec in the `FIM_INJECT_FAULT` environment
/// variable, if set — the subprocess-test equivalent of the CLI flag.
pub fn arm_from_env() -> Result<(), String> {
    if let Ok(val) = std::env::var("FIM_INJECT_FAULT") {
        for part in val.split(',').filter(|p| !p.trim().is_empty()) {
            arm_str(part.trim())?;
        }
    }
    Ok(())
}

/// Clears every armed fault and resets the injected-fault counter. Tests
/// sharing the process-global registry call this in their teardown.
pub fn disarm_all() {
    let mut reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    reg.clear();
    ANY_ARMED.store(false, Ordering::Release);
    INJECTED.store(0, Ordering::Release);
}

/// Faults fired since the registry was armed (or last cleared) — surfaced
/// as the `faults_injected` observability counter.
pub fn injected_count() -> u64 {
    INJECTED.load(Ordering::Acquire)
}

/// A fault point with no writable artifact. Fires an armed `io`/`enospc`
/// fault as an error and a `panic` fault as a panic; an armed `partial`
/// degrades to `io` here. Disarmed cost: one relaxed load and a branch.
#[inline]
pub fn hit(point: &str) -> Result<(), FimError> {
    if !ANY_ARMED.load(Ordering::Relaxed) {
        return Ok(());
    }
    match fire(point) {
        None => Ok(()),
        Some(FaultKind::Panic) => panic!("injected fault: panic at {point}"),
        Some(FaultKind::Enospc) => Err(FimError::Io(enospc_error())),
        Some(FaultKind::Io) | Some(FaultKind::Partial) => Err(FimError::Io(io_error(point))),
    }
}

/// A fault point guarding a just-written artifact. As [`hit`], except an
/// armed `partial` fault invokes `truncate` (which should tear the
/// artifact, e.g. halve the flushed temporary file) and then returns
/// `Ok(())` so the pipeline publishes the torn bytes — the corruption
/// must be caught by the next validated read, not by the writer.
#[inline]
pub fn hit_write(point: &str, truncate: impl FnOnce()) -> Result<(), FimError> {
    if !ANY_ARMED.load(Ordering::Relaxed) {
        return Ok(());
    }
    match fire(point) {
        None => Ok(()),
        Some(FaultKind::Panic) => panic!("injected fault: panic at {point}"),
        Some(FaultKind::Enospc) => Err(FimError::Io(enospc_error())),
        Some(FaultKind::Io) => Err(FimError::Io(io_error(point))),
        Some(FaultKind::Partial) => {
            truncate();
            Ok(())
        }
    }
}

/// The slow path: counts the hit against every armed, unfired fault on
/// this point and returns the kind of the first that reaches its trigger.
fn fire(point: &str) -> Option<FaultKind> {
    let mut reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    for armed in reg.iter_mut() {
        if armed.fired || armed.spec.point != point {
            continue;
        }
        armed.hits += 1;
        if armed.hits >= armed.spec.nth {
            armed.fired = true;
            INJECTED.fetch_add(1, Ordering::AcqRel);
            return Some(armed.spec.kind);
        }
    }
    None
}

fn io_error(point: &str) -> std::io::Error {
    std::io::Error::other(format!("injected transient i/o fault at {point}"))
}

/// Raw `ENOSPC` on every Unix; the injected error is shaped exactly like
/// the real one so [`is_enospc`] cannot tell them apart.
const ENOSPC_RAW: i32 = 28;

fn enospc_error() -> std::io::Error {
    std::io::Error::from_raw_os_error(ENOSPC_RAW)
}

/// Whether an I/O error is out-of-disk-space — the one failure retrying
/// cannot fix and the out-of-core pipeline degrades gracefully on.
pub fn is_enospc(e: &std::io::Error) -> bool {
    e.raw_os_error() == Some(ENOSPC_RAW)
}

/// Bounded retry-with-backoff for transient I/O errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first failure (0 = fail immediately, the
    /// default).
    pub retries: u32,
    /// Base backoff in milliseconds; attempt `k` sleeps
    /// `backoff_ms << min(k, 4)` — a deterministic schedule, so tests
    /// with `backoff_ms: 0` re-run the operation immediately.
    pub backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries: 0,
            backoff_ms: 25,
        }
    }
}

impl RetryPolicy {
    /// A policy with `retries` attempts on the default backoff schedule.
    pub fn with_retries(retries: u32) -> Self {
        RetryPolicy {
            retries,
            ..Self::default()
        }
    }
}

/// Runs `op`, retrying up to `policy.retries` times on *transient*
/// [`FimError::Io`] failures (everything except `ENOSPC`, which
/// propagates immediately). Each retry is counted into `attempts` — the
/// `retries_attempted` observability counter.
pub fn retry_io<T>(
    policy: RetryPolicy,
    attempts: &mut u64,
    mut op: impl FnMut() -> Result<T, FimError>,
) -> Result<T, FimError> {
    let mut tried = 0u32;
    loop {
        match op() {
            Err(FimError::Io(e)) if tried < policy.retries && !is_enospc(&e) => {
                tried += 1;
                *attempts += 1;
                if policy.backoff_ms > 0 {
                    let shift = u64::from(tried.min(4) - 1).min(4);
                    std::thread::sleep(std::time::Duration::from_millis(
                        policy.backoff_ms << shift,
                    ));
                }
            }
            other => return other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as TestMutex;
    use std::time::Instant;

    /// The registry is process-global; tests that arm faults serialize.
    static HOOK: TestMutex<()> = TestMutex::new(());

    #[test]
    fn spec_parsing_accepts_the_documented_syntax() {
        let s = parse_spec("spill.write:3:io").unwrap();
        assert_eq!(s.point, "spill.write");
        assert_eq!(s.nth, 3);
        assert_eq!(s.kind, FaultKind::Io);
        // kind defaults to panic
        assert_eq!(parse_spec("merge.read:1").unwrap().kind, FaultKind::Panic);
        assert_eq!(
            parse_spec("counts.pass1:2:enospc").unwrap().kind,
            FaultKind::Enospc
        );
        assert_eq!(
            parse_spec("checkpoint.write:1:partial").unwrap().kind,
            FaultKind::Partial
        );
    }

    #[test]
    fn spec_parsing_rejects_garbage() {
        assert!(parse_spec("not.a.point:1").is_err());
        assert!(parse_spec("spill.write").is_err());
        assert!(parse_spec("spill.write:0").is_err());
        assert!(parse_spec("spill.write:x").is_err());
        assert!(parse_spec("spill.write:1:explode").is_err());
    }

    #[test]
    fn nth_hit_fires_exactly_once() {
        let _g = HOOK.lock().unwrap_or_else(|e| e.into_inner());
        disarm_all();
        arm_str("merge.read:3:io").unwrap();
        assert!(hit(points::MERGE_READ).is_ok());
        assert!(hit(points::MERGE_READ).is_ok());
        let err = hit(points::MERGE_READ).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        assert_eq!(injected_count(), 1);
        // one-shot: the fourth hit passes
        assert!(hit(points::MERGE_READ).is_ok());
        // unrelated points never fire it
        assert!(hit(points::SPILL_WRITE).is_ok());
        disarm_all();
        assert_eq!(injected_count(), 0);
    }

    #[test]
    fn enospc_fault_is_shaped_like_the_real_error() {
        let _g = HOOK.lock().unwrap_or_else(|e| e.into_inner());
        disarm_all();
        arm_str("spill.write:1:enospc").unwrap();
        match hit(points::SPILL_WRITE) {
            Err(FimError::Io(e)) => assert!(is_enospc(&e), "{e}"),
            other => panic!("expected enospc io error, got {other:?}"),
        }
        disarm_all();
    }

    #[test]
    fn partial_fault_runs_the_truncation_and_continues() {
        let _g = HOOK.lock().unwrap_or_else(|e| e.into_inner());
        disarm_all();
        arm_str("spill.write:1:partial").unwrap();
        let mut torn = false;
        hit_write(points::SPILL_WRITE, || torn = true).unwrap();
        assert!(torn, "partial fault must invoke the truncation");
        // at a plain (non-write) point, partial degrades to io
        arm_str("spill.sync:1:partial").unwrap();
        assert!(hit(points::SPILL_SYNC).is_err());
        disarm_all();
    }

    #[test]
    fn panic_fault_panics() {
        let _g = HOOK.lock().unwrap_or_else(|e| e.into_inner());
        disarm_all();
        arm_str("spill.rename:1:panic").unwrap();
        let r = std::panic::catch_unwind(|| hit(points::SPILL_RENAME));
        disarm_all();
        let err = r.expect_err("armed panic must fire");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("spill.rename"), "{msg}");
    }

    #[test]
    fn env_arming_parses_comma_separated_specs() {
        // parse-only shape check (no env mutation: tests run in threads)
        for spec in "spill.write:2:io, merge.read:1:panic".split(',') {
            parse_spec(spec.trim()).unwrap();
        }
    }

    #[test]
    fn retry_absorbs_transient_failures_and_counts_attempts() {
        let mut attempts = 0u64;
        let mut failures_left = 2;
        let policy = RetryPolicy {
            retries: 3,
            backoff_ms: 0,
        };
        let v = retry_io(policy, &mut attempts, || {
            if failures_left > 0 {
                failures_left -= 1;
                Err(FimError::Io(std::io::Error::other("flaky")))
            } else {
                Ok(7)
            }
        })
        .unwrap();
        assert_eq!(v, 7);
        assert_eq!(attempts, 2);
    }

    #[test]
    fn retry_gives_up_after_the_budget_and_never_retries_enospc() {
        let mut attempts = 0u64;
        let policy = RetryPolicy {
            retries: 2,
            backoff_ms: 0,
        };
        let err = retry_io::<()>(policy, &mut attempts, || {
            Err(FimError::Io(std::io::Error::other("always")))
        })
        .unwrap_err();
        assert!(matches!(err, FimError::Io(_)), "{err}");
        assert_eq!(attempts, 2, "budget of 2 retries = 3 total tries");
        // enospc propagates without a single retry
        attempts = 0;
        let err = retry_io::<()>(policy, &mut attempts, || {
            Err(FimError::Io(super::enospc_error()))
        })
        .unwrap_err();
        match err {
            FimError::Io(e) => assert!(is_enospc(&e)),
            other => panic!("{other}"),
        }
        assert_eq!(attempts, 0);
    }

    #[test]
    fn disarmed_hit_is_cheap() {
        let _g = HOOK.lock().unwrap_or_else(|e| e.into_inner());
        disarm_all();
        // a coarse smoke guard, not a benchmark: 10M disarmed hits must
        // stay far under a second (~100 ns/hit would already be 50x the
        // expected single-load cost)
        let start = Instant::now();
        for _ in 0..10_000_000u64 {
            hit(points::SPILL_WRITE).unwrap();
        }
        assert!(
            start.elapsed() < std::time::Duration::from_secs(2),
            "disarmed fault check too slow: {:?} for 10M hits",
            start.elapsed()
        );
    }
}
