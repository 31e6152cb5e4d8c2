//! Resource telemetry: the `/proc` probe, shared gauges, the background
//! sampler thread, and per-phase duration histograms.
//!
//! The probe ([`vm_status`]) replaces the inline `/proc/self/status`
//! parse that previously lived in `bench/src/bin/oocore.rs`; the bench
//! bins and the sampler now share it. Gauges ([`ResourceGauges`]) are
//! plain atomics the miners update from instrumentation points they
//! already pass through (ticks, spill writes), so the sampler thread can
//! read a consistent point-in-time picture without touching miner state.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One `/proc/self/status` reading, in kibibytes as the kernel reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VmStatus {
    /// Current resident set size (`VmRSS`).
    pub rss_kb: u64,
    /// Peak resident set size (`VmHWM`).
    pub hwm_kb: u64,
}

/// Reads `VmRSS`/`VmHWM` from `/proc/self/status`. Returns an error (not
/// a silent zero) off Linux or when the fields are missing, so callers
/// that publish the numbers can say "unavailable" honestly.
pub fn vm_status() -> Result<VmStatus, String> {
    let text = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status unreadable: {e}"))?;
    let mut status = VmStatus::default();
    let mut seen = 0;
    for line in text.lines() {
        let field = if let Some(rest) = line.strip_prefix("VmRSS:") {
            Some((&mut status.rss_kb, rest))
        } else {
            line.strip_prefix("VmHWM:")
                .map(|rest| (&mut status.hwm_kb, rest))
        };
        if let Some((slot, rest)) = field {
            let kb = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .map_err(|e| format!("unparseable VmRSS/VmHWM line {line:?}: {e}"))?;
            *slot = kb;
            seen += 1;
            if seen == 2 {
                break;
            }
        }
    }
    if seen == 0 {
        return Err("no VmRSS/VmHWM in /proc/self/status".into());
    }
    Ok(status)
}

/// Total size in bytes of the regular files directly inside `dir`
/// (spill directories are flat). Missing directory reads as 0 — the
/// spill dir legitimately disappears when the run cleans up.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

/// Shared point-in-time gauges the miners keep current and the sampler
/// thread reads. Relaxed ordering throughout: each gauge is an
/// independent monotonic-ish scalar, and the sampler only needs a recent
/// value, not a cross-gauge snapshot.
#[derive(Debug, Default)]
pub struct ResourceGauges {
    /// Live repository nodes (IsTa) or rows (other miners).
    pub nodes: AtomicU64,
    /// Approximate arena bytes (nodes + segment pool).
    pub arena_bytes: AtomicU64,
    /// Bytes currently spilled to disk (out-of-core runs).
    pub spill_bytes: AtomicU64,
}

impl ResourceGauges {
    /// Stores a gauge value (relaxed).
    pub fn set(gauge: &AtomicU64, value: u64) {
        gauge.store(value, Ordering::Relaxed);
    }
}

/// One sampler observation.
#[derive(Clone, Copy, Debug, Default)]
pub struct ResourceSample {
    /// Milliseconds since the sampler started.
    pub at_ms: u64,
    /// `VmRSS` in kB (0 when the probe is unavailable).
    pub rss_kb: u64,
    /// `VmHWM` in kB (0 when the probe is unavailable).
    pub hwm_kb: u64,
    /// [`ResourceGauges::nodes`] at sample time.
    pub nodes: u64,
    /// [`ResourceGauges::arena_bytes`] at sample time.
    pub arena_bytes: u64,
    /// [`ResourceGauges::spill_bytes`] at sample time, or the live
    /// spill-dir size when a directory was configured.
    pub spill_bytes: u64,
}

/// Background thread sampling the gauges and `/proc` on an interval.
#[derive(Debug)]
pub struct ResourceSampler {
    stop: Arc<AtomicBool>,
    samples: Arc<Mutex<Vec<ResourceSample>>>,
    interval: Duration,
    handle: Option<JoinHandle<()>>,
}

impl ResourceSampler {
    /// Spawns the sampler. `spill_dir`, when given, is measured with
    /// [`dir_bytes`] each sample; otherwise the spill gauge is used.
    pub fn start(
        interval: Duration,
        gauges: Arc<ResourceGauges>,
        spill_dir: Option<PathBuf>,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let samples = Arc::new(Mutex::new(Vec::new()));
        let thread_stop = Arc::clone(&stop);
        let thread_samples = Arc::clone(&samples);
        let handle = std::thread::Builder::new()
            .name("fim-sampler".into())
            .spawn(move || {
                let started = Instant::now();
                loop {
                    let vm = vm_status().unwrap_or_default();
                    let spill_bytes = match &spill_dir {
                        Some(dir) => dir_bytes(dir),
                        None => gauges.spill_bytes.load(Ordering::Relaxed),
                    };
                    let sample = ResourceSample {
                        at_ms: started.elapsed().as_millis() as u64,
                        rss_kb: vm.rss_kb,
                        hwm_kb: vm.hwm_kb,
                        nodes: gauges.nodes.load(Ordering::Relaxed),
                        arena_bytes: gauges.arena_bytes.load(Ordering::Relaxed),
                        spill_bytes,
                    };
                    thread_samples.lock().unwrap().push(sample);
                    // Sleep in short slices so stop() returns promptly even
                    // with a multi-second interval. An interval past the
                    // clock's range takes this first sample only.
                    let deadline = Instant::now().checked_add(interval);
                    while deadline.is_none_or(|d| Instant::now() < d) {
                        if thread_stop.load(Ordering::Relaxed) {
                            return;
                        }
                        std::thread::sleep(Duration::from_millis(5).min(interval));
                    }
                    if thread_stop.load(Ordering::Relaxed) {
                        return;
                    }
                }
            })
            .ok();
        ResourceSampler {
            stop,
            samples,
            interval,
            handle,
        }
    }

    /// The configured sampling interval.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Stops the thread and returns the collected series (at least the
    /// initial sample, taken at start).
    pub fn stop(mut self) -> Vec<ResourceSample> {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        std::mem::take(&mut self.samples.lock().unwrap())
    }
}

impl Drop for ResourceSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Number of log2 buckets: bucket `i` holds durations in
/// `[2^i, 2^(i+1))` microseconds; bucket 0 also holds sub-microsecond
/// spans. 40 buckets reaches ~2^39 µs ≈ 6.4 days.
pub const HIST_BUCKETS: usize = 40;

/// Log-scaled duration histograms keyed by phase name.
#[derive(Debug, Default)]
pub struct PhaseHistograms {
    phases: Vec<(&'static str, [u64; HIST_BUCKETS])>,
}

impl PhaseHistograms {
    /// An empty histogram set.
    pub fn new() -> Self {
        PhaseHistograms::default()
    }

    /// Records one phase duration.
    pub fn record(&mut self, name: &'static str, dur: Duration) {
        let micros = dur.as_micros().max(1) as u64;
        let bucket = (63 - micros.leading_zeros() as usize).min(HIST_BUCKETS - 1);
        match self.phases.iter_mut().find(|(n, _)| *n == name) {
            Some((_, buckets)) => buckets[bucket] += 1,
            None => {
                let mut buckets = [0u64; HIST_BUCKETS];
                buckets[bucket] += 1;
                self.phases.push((name, buckets));
            }
        }
    }

    /// Whether anything was recorded.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// `(phase, buckets)` rows in first-recorded order.
    pub fn rows(&self) -> &[(&'static str, [u64; HIST_BUCKETS])] {
        &self.phases
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_reads_this_process() {
        // The repo only builds on Linux (CI and the bench boxes); the probe
        // must find both fields there.
        let vm = vm_status().expect("probe works on Linux");
        assert!(vm.rss_kb > 0);
        assert!(vm.hwm_kb >= vm.rss_kb);
        // sibling test threads allocate between the two reads, and the
        // high-water mark only grows
        let later = vm_status().unwrap().hwm_kb;
        assert!(later >= vm.hwm_kb && later >= vm.rss_kb, "{later} < {vm:?}");
    }

    #[test]
    fn sampler_collects_and_stops() {
        let gauges = Arc::new(ResourceGauges::default());
        gauges.nodes.store(17, Ordering::Relaxed);
        let sampler = ResourceSampler::start(Duration::from_millis(1), Arc::clone(&gauges), None);
        std::thread::sleep(Duration::from_millis(30));
        let samples = sampler.stop();
        assert!(!samples.is_empty());
        assert!(samples.iter().all(|s| s.nodes == 17));
        assert!(samples[0].rss_kb > 0, "probe feeds the series");
    }

    #[test]
    fn dir_bytes_sums_flat_files() {
        let dir = std::env::temp_dir().join(format!("fim-obs-dirbytes-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.spill"), [0u8; 100]).unwrap();
        std::fs::write(dir.join("b.spill"), [0u8; 28]).unwrap();
        assert_eq!(dir_bytes(&dir), 128);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(dir_bytes(&dir), 0, "missing dir reads as zero");
    }

    #[test]
    fn histogram_buckets_are_log2_micros() {
        let mut h = PhaseHistograms::new();
        h.record("mine", Duration::from_micros(1)); // bucket 0
        h.record("mine", Duration::from_micros(3)); // bucket 1
        h.record("mine", Duration::from_micros(1024)); // bucket 10
        h.record("report", Duration::from_nanos(10)); // clamps to bucket 0
        let rows = h.rows();
        assert_eq!(rows.len(), 2);
        let mine = &rows[0].1;
        assert_eq!(mine[0], 1);
        assert_eq!(mine[1], 1);
        assert_eq!(mine[10], 1);
        assert_eq!(rows[1].1[0], 1);
    }
}
