//! Observability plumbing behind `--metrics`, `--progress`, `--profile`,
//! `--trace-events`, `--sample`, and `--ledger` (plus the `--stats`
//! shorthand): flag parsing, the [`Obs`] handle construction, and the
//! metrics/profile/trace/ledger writers. All machine-readable output goes
//! to stderr or an explicit file — stdout stays clean result output for
//! piping.

use crate::args::Args;
use crate::errors::{usage, CliError};
use fim_obs::{
    EventsMetrics, LedgerEntry, MetricsReport, Obs, PhaseHistograms, ProgressEmitter,
    ProgressStyle, ResourceGauges, ResourceSampler, SpanRecorder, TraceWriter,
};
use std::io::{IsTerminal, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Flags that are output channels rather than run configuration; excluded
/// from the ledger's `config` fingerprint so two otherwise-identical runs
/// with different observability setups compare as identical.
const CHANNEL_FLAGS: [&str; 9] = [
    "in",
    "out",
    "metrics",
    "stats",
    "progress",
    "profile",
    "trace-events",
    "sample",
    "ledger",
];

/// Parsed observability flags.
pub struct ObsArgs {
    /// `--metrics <path|->` destination (`-` means stderr); `--stats` is
    /// shorthand for `--metrics -`.
    pub metrics: Option<String>,
    /// `--progress <secs>` heartbeat interval.
    pub progress: Option<Duration>,
    /// `--profile <path>` collapsed-stack output file.
    pub profile: Option<String>,
    /// `--trace-events <path>` flight-recorder stream (Chrome
    /// `trace_event` array format).
    pub trace: Option<String>,
    /// `--sample <secs>` background resource-sampler interval.
    pub sample: Option<Duration>,
    /// `--ledger <path>` append-only run-ledger file.
    pub ledger: Option<String>,
}

impl ObsArgs {
    /// Extracts and validates the observability flags.
    pub fn from_args(args: &Args) -> Result<ObsArgs, CliError> {
        let metrics = match (args.get("metrics"), args.flag("stats")) {
            (Some(m), _) => Some(m.to_owned()),
            (None, true) => Some("-".to_owned()),
            (None, false) => None,
        };
        let interval_of = |key: &str| -> Result<Option<Duration>, CliError> {
            match args.get(key) {
                None => Ok(None),
                Some(s) => {
                    let secs: f64 = s.parse().map_err(|e| usage(format!("bad --{key}: {e}")))?;
                    if !secs.is_finite() || secs <= 0.0 {
                        return Err(usage(format!(
                            "--{key} must be a positive number of seconds"
                        )));
                    }
                    Duration::try_from_secs_f64(secs)
                        .map(Some)
                        .map_err(|e| usage(format!("bad --{key}: {e}")))
                }
            }
        };
        let progress = interval_of("progress")?;
        let sample = interval_of("sample")?;
        let profile = args.get("profile").map(str::to_owned);
        let trace = args.get("trace-events").map(str::to_owned);
        let ledger = args.get("ledger").map(str::to_owned);
        Ok(ObsArgs {
            metrics,
            progress,
            profile,
            trace,
            sample,
            ledger,
        })
    }

    /// Whether any observability output was requested.
    pub fn any(&self) -> bool {
        self.metrics.is_some()
            || self.progress.is_some()
            || self.profile.is_some()
            || self.trace.is_some()
            || self.sample.is_some()
            || self.ledger.is_some()
    }

    /// Builds the [`Obs`] handle the miners thread through their hot path:
    /// spans when a profile or the ledger wants per-phase times, the
    /// heartbeat only when an interval was given, the trace stream when a
    /// path was given, and the sampler (plus gauges and phase histograms)
    /// when a sampling interval was given.
    pub fn build(&self) -> Result<Obs, CliError> {
        self.build_with_spill(None)
    }

    /// [`build`](Self::build) for runs that spill: the sampler measures
    /// `spill_dir` live instead of relying on the spill-bytes gauge.
    pub fn build_with_spill(&self, spill_dir: Option<&Path>) -> Result<Obs, CliError> {
        let mut obs = Obs::new();
        if self.profile.is_some() || self.ledger.is_some() {
            obs.spans = Some(SpanRecorder::new());
        }
        if let Some(interval) = self.progress {
            // a terminal gets the human line; a pipe gets JSON lines
            let style = if std::io::stderr().is_terminal() {
                ProgressStyle::Human
            } else {
                ProgressStyle::JsonLines
            };
            obs.progress = Some(ProgressEmitter::stderr(interval, style));
        }
        if let Some(path) = self.trace.as_deref() {
            let file = std::fs::File::create(path).map_err(|e| {
                CliError::Other(format!("cannot create --trace-events {path}: {e}"))
            })?;
            obs.trace = Some(TraceWriter::new(Box::new(std::io::BufWriter::new(file))));
        }
        if let Some(interval) = self.sample {
            let gauges = Arc::new(ResourceGauges::default());
            obs.sampler = Some(ResourceSampler::start(
                interval,
                Arc::clone(&gauges),
                spill_dir.map(Path::to_path_buf),
            ));
            obs.gauges = Some(gauges);
            obs.hist = Some(PhaseHistograms::new());
        }
        Ok(obs)
    }

    /// Drains the run-scoped collectors into the report: stops the
    /// sampler, folds the resource series and phase histograms into the
    /// `resources` section, and finishes the trace stream into the
    /// `events` section. Call once, after mining and before
    /// [`emit_metrics`](Self::emit_metrics) / [`emit_ledger`](Self::emit_ledger).
    pub fn finalize(&self, obs: &mut Obs, report: &mut MetricsReport<'_>) {
        report.resources = obs.take_resources();
        if let Some(emitted) = obs.finish_trace() {
            report.events = Some(EventsMetrics {
                path: self.trace.clone().unwrap_or_default(),
                emitted,
            });
        }
    }

    /// Writes the metrics document to the `--metrics` destination.
    pub fn emit_metrics(&self, report: &MetricsReport<'_>) -> Result<(), CliError> {
        let Some(dest) = self.metrics.as_deref() else {
            return Ok(());
        };
        let io_err = |e: std::io::Error| CliError::Other(format!("cannot write --metrics: {e}"));
        if dest == "-" {
            let stderr = std::io::stderr();
            let mut lock = stderr.lock();
            report.write_json(&mut lock).map_err(io_err)
        } else {
            let file = std::fs::File::create(dest)
                .map_err(|e| CliError::Other(format!("cannot create --metrics {dest}: {e}")))?;
            let mut w = std::io::BufWriter::new(file);
            report.write_json(&mut w).map_err(io_err)?;
            w.flush().map_err(io_err)
        }
    }

    /// Writes the recorded spans as collapsed stacks (`path;to;span N`
    /// lines, self-time micros) to the `--profile` path.
    pub fn emit_profile(&self, obs: &Obs) -> Result<(), CliError> {
        let Some(path) = self.profile.as_deref() else {
            return Ok(());
        };
        let Some(spans) = obs.spans.as_ref() else {
            return Ok(());
        };
        let io_err = |e: std::io::Error| CliError::Other(format!("cannot write --profile: {e}"));
        let file = std::fs::File::create(path)
            .map_err(|e| CliError::Other(format!("cannot create --profile {path}: {e}")))?;
        let mut w = std::io::BufWriter::new(file);
        spans.write_collapsed(&mut w).map_err(io_err)?;
        w.flush().map_err(io_err)
    }

    /// Appends one fingerprinted line to the `--ledger` file, built from
    /// the finalized report plus the run's input and exit status. A no-op
    /// without `--ledger`.
    pub fn emit_ledger(
        &self,
        args: &Args,
        report: &MetricsReport<'_>,
        obs: &Obs,
        exit: &str,
    ) -> Result<(), CliError> {
        let Some(path) = self.ledger.as_deref() else {
            return Ok(());
        };
        // stdin runs have no stable input identity; fingerprint 0 marks
        // them honestly rather than hashing a stream we cannot re-read.
        let input_fnv = match args.get("in") {
            Some(input) => fim_obs::fnv1a_file(Path::new(input))
                .map_err(|e| CliError::Other(format!("cannot fingerprint --in {input}: {e}")))?,
            None => 0,
        };
        let config = args
            .sorted_pairs()
            .into_iter()
            .filter(|(k, _)| !CHANNEL_FLAGS.contains(k))
            .map(|(k, v)| {
                if v == "true" {
                    k.to_string()
                } else {
                    format!("{k}={v}")
                }
            })
            .collect::<Vec<_>>()
            .join(" ");
        let phases = obs
            .spans
            .as_ref()
            .map(|s| {
                s.self_rows()
                    .into_iter()
                    .map(|(path, dur)| (path, dur.as_secs_f64()))
                    .collect()
            })
            .unwrap_or_default();
        let entry = LedgerEntry {
            input_fnv,
            algo: report.miner.to_string(),
            supp: u64::from(report.supp),
            config,
            seconds: report.seconds,
            sets: report.sets,
            transactions: report.transactions_total,
            peak_rss_kb: report.resources.peak_rss_kb,
            exit: exit.to_string(),
            phases,
            counters: report
                .counters
                .iter_nonzero()
                .map(|(name, value)| (name.to_string(), value))
                .collect(),
        };
        entry
            .append(Path::new(path))
            .map_err(|e| CliError::Other(format!("cannot append --ledger {path}: {e}")))
    }
}
