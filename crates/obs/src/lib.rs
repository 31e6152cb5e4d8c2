//! Unified observability for the closed-set miners.
//!
//! Three instrumentation islands grew up with the repo — `MineStats`,
//! `TreeMemoryStats` and governor progress — each with its own field names
//! and plumbing. This crate replaces the reporting side of all of them
//! with one layer:
//!
//! * [`Counters`]: a fixed registry of hot-loop counters ([`Counter`])
//!   incremented as plain adjacent `u64` adds (no atomics, no locks, no
//!   indirection — the counter array lives inside the structure the hot
//!   loop already mutates, so the always-on cost is a single add next to
//!   memory that is already in cache).
//! * [`SpanRecorder`]: hierarchical phase spans (read/recode → insert/isect
//!   → prune/compact → report) with monotonic timing, exported in the
//!   collapsed-stack format that `flamegraph.pl`/inferno consume.
//! * [`ProgressEmitter`]: a heartbeat line (transactions processed, peak
//!   nodes, sets, ETA) on a wall-clock interval, rendered human-readable or
//!   as JSON lines, always on `stderr` or an explicit writer so `stdout`
//!   stays clean result output.
//! * [`MetricsReport`]: the schema-versioned metrics JSON
//!   ([`METRICS_SCHEMA`]) that the CLI `--metrics` and `--stats` flags
//!   write, plus [`validate_metrics_json`] pinning its required keys.
//! * [`TraceWriter`]: the flight recorder — a Chrome `trace_event` stream
//!   (`--trace-events`) of phase begin/end and discrete events (spill,
//!   adopt, merge pass, checkpoint, fault, retry, budget trip) that opens
//!   directly in Perfetto.
//! * [`ResourceSampler`] + [`ResourceGauges`]: a background thread
//!   sampling VmRSS/VmHWM, arena bytes, and spill-dir bytes on an
//!   interval, surfaced as the `resources` section of the metrics JSON
//!   together with per-phase duration histograms ([`PhaseHistograms`]).
//! * [`LedgerEntry`]: the append-only run ledger (`--ledger`) — one
//!   fingerprinted JSON line per run — and [`compare`], the regression
//!   diff behind `fim compare`.
//!
//! The discipline matches `fim_core::govern::checkpoint!`: everything that
//! costs a clock read or a write is behind an `Option` that is `None` when
//! the feature is off, so the off path is a branch on a register. The
//! counters are the one always-on piece, and they are sized so that the
//! fully-disabled overhead stays under the 1% budget measured in
//! EXPERIMENTS.md E13.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compare;
mod counters;
pub mod json;
mod ledger;
mod metrics;
mod progress;
mod resource;
mod span;
mod trace;

pub use compare::{compare, parse_run_summary, CompareReport, CompareRow, RunSummary, Thresholds};
pub use counters::{Counter, Counters, NUM_COUNTERS};
pub use ledger::{fnv1a, fnv1a_file, read_ledger, LedgerEntry, LEDGER_SCHEMA};
pub use metrics::{
    validate_metrics_json, ConstraintMetrics, EventsMetrics, KernelMetrics, MetricsReport,
    PassMetrics, ResourceMetrics, SpillMetrics, TreeMetrics, METRICS_SCHEMA, METRICS_SCHEMA_V1,
    REQUIRED_METRICS_KEYS,
};
pub use progress::{ProgressEmitter, ProgressSnapshot, ProgressStyle};
pub use resource::{
    dir_bytes, vm_status, PhaseHistograms, ResourceGauges, ResourceSample, ResourceSampler,
    VmStatus, HIST_BUCKETS,
};
pub use span::SpanRecorder;
pub use trace::{
    export_chrome_object, read_trace, validate_trace_pairing, TraceEvent, TraceWriter, TRACE_SCHEMA,
};

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Per-run observability bundle threaded through the miners.
///
/// Every member defaults to `None`; a miner handed `None::<&mut Obs>` (or
/// an `Obs` with everything off) does no observability work beyond the
/// always-on counters. Spans, the heartbeat, the trace stream, the
/// duration histograms, and the resource gauges are each only touched
/// when the corresponding member is populated.
#[derive(Default)]
pub struct Obs {
    /// Phase spans, populated when a profile was requested.
    pub spans: Option<SpanRecorder>,
    /// Heartbeat emitter, populated when live progress was requested.
    pub progress: Option<ProgressEmitter>,
    /// Flight-recorder event stream (`--trace-events`).
    pub trace: Option<TraceWriter>,
    /// Per-phase duration histograms (on whenever the sampler is).
    pub hist: Option<PhaseHistograms>,
    /// Shared gauges the background sampler reads.
    pub gauges: Option<Arc<ResourceGauges>>,
    /// The background sampler itself; stopped and drained by
    /// [`Obs::take_resources`].
    pub sampler: Option<ResourceSampler>,
    /// Open spans for the histogram clock — [`SpanRecorder`] and
    /// [`TraceWriter`] keep their own stacks, this one exists so phase
    /// durations are measured even when only the sampler is on.
    hist_stack: Vec<(&'static str, Instant)>,
}

impl Obs {
    /// An empty bundle (everything off).
    pub fn new() -> Self {
        Obs::default()
    }

    /// Whether anything is switched on.
    pub fn enabled(&self) -> bool {
        self.spans.is_some()
            || self.progress.is_some()
            || self.trace.is_some()
            || self.hist.is_some()
            || self.sampler.is_some()
    }

    /// Enters a span. Feeds the span recorder, the trace stream (`B`
    /// event), and the histogram clock — whichever are on.
    #[inline]
    pub fn span_enter(&mut self, name: &'static str) {
        if let Some(s) = self.spans.as_mut() {
            s.enter(name);
        }
        if let Some(t) = self.trace.as_mut() {
            t.begin(name);
        }
        if self.hist.is_some() {
            self.hist_stack.push((name, Instant::now()));
        }
    }

    /// Exits the current span (`E` trace event; histogram sample).
    #[inline]
    pub fn span_exit(&mut self) {
        if let Some(s) = self.spans.as_mut() {
            s.exit();
        }
        if let Some(t) = self.trace.as_mut() {
            t.end();
        }
        if let Some(h) = self.hist.as_mut() {
            if let Some((name, start)) = self.hist_stack.pop() {
                h.record(name, start.elapsed());
            }
        }
    }

    /// Records a discrete flight-recorder event (spill, adopt, merge
    /// pass, checkpoint, fault, retry, budget trip) when tracing is on.
    #[inline]
    pub fn instant(&mut self, name: &str, args: &[(&str, u64)]) {
        if let Some(t) = self.trace.as_mut() {
            t.instant(name, args);
        }
    }

    /// Publishes the live node count for the sampler.
    #[inline]
    pub fn gauge_nodes(&self, nodes: u64) {
        if let Some(g) = self.gauges.as_deref() {
            g.nodes.store(nodes, Ordering::Relaxed);
        }
    }

    /// Publishes the approximate arena byte size for the sampler.
    #[inline]
    pub fn gauge_arena_bytes(&self, bytes: u64) {
        if let Some(g) = self.gauges.as_deref() {
            g.arena_bytes.store(bytes, Ordering::Relaxed);
        }
    }

    /// Publishes the bytes currently spilled to disk for the sampler.
    #[inline]
    pub fn gauge_spill_bytes(&self, bytes: u64) {
        if let Some(g) = self.gauges.as_deref() {
            g.spill_bytes.store(bytes, Ordering::Relaxed);
        }
    }

    /// Offers a heartbeat tick if progress is on (strided internally, so
    /// this is safe to call once per transaction). Also keeps the node
    /// gauge current for the sampler.
    #[inline]
    pub fn tick(&mut self, snap: &ProgressSnapshot) {
        self.gauge_nodes(snap.peak_nodes);
        if let Some(p) = self.progress.as_mut() {
            p.tick(snap);
        }
    }

    /// Emits a final heartbeat line if progress is on.
    pub fn finish(&mut self, snap: &ProgressSnapshot) {
        if let Some(p) = self.progress.as_mut() {
            p.finish(snap);
        }
    }

    /// Stops the sampler (if any), drains the histograms, and returns the
    /// `resources` metrics section with a fresh `/proc` probe on top.
    pub fn take_resources(&mut self) -> ResourceMetrics {
        let mut section = ResourceMetrics::probe_now();
        if let Some(sampler) = self.sampler.take() {
            let ms = sampler.interval().as_millis();
            section.sample_interval_ms = Some(u64::try_from(ms).unwrap_or(u64::MAX));
            section.samples = sampler.stop();
        }
        if let Some(hist) = self.hist.take() {
            section.histograms = hist.rows().to_vec();
        }
        section
    }

    /// Finishes the trace stream (if any): closes open spans, writes the
    /// array terminator, and returns the number of events emitted.
    pub fn finish_trace(&mut self) -> Option<u64> {
        self.trace.take().map(TraceWriter::finish)
    }
}
