//! Schema-versioned metrics JSON.
//!
//! One JSON document describes a finished mining run. The CLI `--metrics`
//! and `--stats` flags emit this shape. The schema is pinned:
//! [`METRICS_SCHEMA`] names the version and [`REQUIRED_METRICS_KEYS`] the
//! keys every document must carry; [`validate_metrics_json`] enforces both
//! (the CI smoke step and the schema unit test share it).

use crate::counters::Counters;
use crate::resource::{ResourceSample, HIST_BUCKETS};
use std::io::{self, Write};

/// Version tag carried in the `schema` field. Bump when a required key
/// changes meaning or disappears; adding optional keys is compatible.
/// v2 added the required `resources` section and the optional `events`
/// section.
pub const METRICS_SCHEMA: &str = "fim-metrics/2";

/// The previous schema tag. [`validate_metrics_json`] still accepts v1
/// documents (under the v1 key set) so committed baselines and old
/// metrics documents keep validating and comparing.
pub const METRICS_SCHEMA_V1: &str = "fim-metrics/1";

/// Keys every current (v2) metrics document must contain. v1 documents
/// carry everything except `resources`.
pub const REQUIRED_METRICS_KEYS: [&str; 8] = [
    "schema",
    "miner",
    "supp",
    "seconds",
    "sets",
    "transactions",
    "resources",
    "counters",
];

/// Repository-size metrics (IsTa miners only).
#[derive(Clone, Copy, Debug, Default)]
pub struct TreeMetrics {
    /// Largest node count the repository reached while mining.
    pub peak_nodes: u64,
    /// Live nodes at the end.
    pub live_nodes: u64,
    /// Arena slots allocated (live + free).
    pub total_slots: u64,
    /// Free-listed slots.
    pub free_slots: u64,
    /// Items referenced by live segments: the conceptual (one item per
    /// node) node count.
    pub seg_items: u64,
    /// Bytes of the segment store.
    pub seg_bytes: u64,
    /// Approximate resident bytes of the whole tree.
    pub approx_bytes: u64,
}

impl TreeMetrics {
    /// Mean items per live node (the Patricia compression ratio).
    pub fn avg_seg_len(&self) -> f64 {
        if self.live_nodes == 0 {
            0.0
        } else {
            self.seg_items as f64 / self.live_nodes as f64
        }
    }
}

/// Maintenance-pass metrics (IsTa miners only).
#[derive(Clone, Copy, Debug, Default)]
pub struct PassMetrics {
    /// Pruning passes run.
    pub prune_passes: u64,
    /// Arena compactions run.
    pub compactions: u64,
}

/// Spill metrics (out-of-core pipeline only).
#[derive(Clone, Copy, Debug, Default)]
pub struct SpillMetrics {
    /// Shard trees spilled to disk.
    pub shards: u64,
    /// Bytes written across all spilled snapshots (shard spills plus
    /// intermediate merge re-spills).
    pub spill_bytes: u64,
    /// Pairwise merge-reduce passes over spilled snapshots.
    pub merge_passes: u64,
    /// Injected faults that fired during the run.
    pub faults_injected: u64,
    /// Bounded-retry re-attempts after transient I/O errors.
    pub retries_attempted: u64,
    /// Completed spills adopted from a prior run's manifest instead of
    /// being re-mined (`--resume-spill`).
    pub shards_resumed: u64,
}

impl SpillMetrics {
    /// A spill section read out of a counter registry.
    pub fn from_counters(counters: &Counters) -> Self {
        use crate::counters::Counter;
        SpillMetrics {
            shards: counters.get(Counter::ShardsSpilled),
            spill_bytes: counters.get(Counter::SpillBytes),
            merge_passes: counters.get(Counter::MergePasses),
            faults_injected: counters.get(Counter::FaultsInjected),
            retries_attempted: counters.get(Counter::RetriesAttempted),
            shards_resumed: counters.get(Counter::ShardsResumed),
        }
    }
}

/// Intersection-kernel metrics: which representation ran and how hard the
/// word-parallel / galloping kernels were driven. Present whenever the
/// miner supports representation selection (even when the scalar kernels
/// ran, so the choice itself is visible).
#[derive(Clone, Copy, Debug)]
pub struct KernelMetrics {
    /// The representation mined with (`scalar`, `bitset`, `gallop`).
    pub rep: &'static str,
    /// `u64` words ANDed by the bitset kernels.
    pub words_anded: u64,
    /// Exponential/binary-search probes spent by the galloping kernels.
    pub gallop_probes: u64,
    /// Popcount invocations by the bitset kernels.
    pub popcount_calls: u64,
}

impl KernelMetrics {
    /// A kernel section for `rep` with the three kernel counters read out
    /// of a counter registry.
    pub fn from_counters(rep: &'static str, counters: &Counters) -> Self {
        use crate::counters::Counter;
        KernelMetrics {
            rep,
            words_anded: counters.get(Counter::WordsAnded),
            gallop_probes: counters.get(Counter::GallopProbes),
            popcount_calls: counters.get(Counter::PopcountCalls),
        }
    }
}

/// Constraint-engine metrics: the active constraint spec, whether it was
/// pushed into the search loops or post-filtered, and how hard the pushed
/// bounds pruned. Present whenever the run was constrained.
#[derive(Clone, Debug)]
pub struct ConstraintMetrics {
    /// Compact spec string (`include={..} min_size=..`, `none` when
    /// unconstrained).
    pub spec: String,
    /// `true` when constraints were pushed into the miner's search loops,
    /// `false` for the `--no-push` post-filter path.
    pub pushed: bool,
    /// Branches cut / candidates dropped by pushed constraints.
    pub prunes: u64,
}

impl ConstraintMetrics {
    /// A constraint section with the prune counter read out of a counter
    /// registry.
    pub fn from_counters(spec: String, pushed: bool, counters: &Counters) -> Self {
        use crate::counters::Counter;
        ConstraintMetrics {
            spec,
            pushed,
            prunes: counters.get(Counter::ConstraintPrunes),
        }
    }
}

/// Resource telemetry section. Required from `fim-metrics/2` on: every
/// report carries at least the one-shot peak-RSS reading, and runs with
/// the sampler enabled additionally carry the time series and the
/// per-phase duration histograms.
#[derive(Clone, Debug, Default)]
pub struct ResourceMetrics {
    /// Peak resident set size in kB (`VmHWM`; 0 when the probe is
    /// unavailable, e.g. off Linux).
    pub peak_rss_kb: u64,
    /// Resident set size in kB at report time (`VmRSS`; 0 when
    /// unavailable).
    pub rss_kb: u64,
    /// Sampler interval in ms when the background sampler ran.
    pub sample_interval_ms: Option<u64>,
    /// Sampler time series (empty without `--sample`).
    pub samples: Vec<ResourceSample>,
    /// Per-phase log2-µs duration histograms, trimmed to the last
    /// nonzero bucket when rendered.
    pub histograms: Vec<(&'static str, [u64; HIST_BUCKETS])>,
}

impl ResourceMetrics {
    /// A section holding just the current probe readings (the minimum a
    /// v2 document carries). Off Linux both fields read 0.
    pub fn probe_now() -> Self {
        let vm = crate::resource::vm_status().unwrap_or_default();
        ResourceMetrics {
            peak_rss_kb: vm.hwm_kb,
            rss_kb: vm.rss_kb,
            ..ResourceMetrics::default()
        }
    }
}

/// Event-stream section, present when `--trace-events` was on.
#[derive(Clone, Debug, Default)]
pub struct EventsMetrics {
    /// Where the trace stream was written.
    pub path: String,
    /// Events emitted (metadata event included).
    pub emitted: u64,
}

/// Everything one metrics document reports. Optional sections are omitted
/// from the JSON when `None`.
#[derive(Debug)]
pub struct MetricsReport<'a> {
    /// Miner registry name (`ista`, `carpenter-lists`, ...).
    pub miner: &'a str,
    /// Minimum support used.
    pub supp: u32,
    /// Wall-clock mining seconds.
    pub seconds: f64,
    /// Closed sets reported.
    pub sets: u64,
    /// Transactions mined (after reading, before coalescing).
    pub transactions_total: u64,
    /// Distinct weighted transactions after coalescing, when coalescing ran.
    pub transactions_distinct: Option<u64>,
    /// Repository size section.
    pub tree: Option<TreeMetrics>,
    /// Maintenance-pass section.
    pub passes: Option<PassMetrics>,
    /// Out-of-core spill section.
    pub spill: Option<SpillMetrics>,
    /// Intersection-kernel section (representation-aware miners).
    pub kernel: Option<KernelMetrics>,
    /// Constraint-engine section (constrained runs).
    pub constraint: Option<ConstraintMetrics>,
    /// Event-stream section (`--trace-events` runs).
    pub events: Option<EventsMetrics>,
    /// Resource telemetry; always rendered (required in v2).
    pub resources: ResourceMetrics,
    /// Hot-loop counters; zero slots are omitted from the JSON.
    pub counters: Counters,
}

impl<'a> MetricsReport<'a> {
    /// A report with only the required fields populated.
    pub fn new(miner: &'a str, supp: u32, seconds: f64, sets: u64, transactions: u64) -> Self {
        MetricsReport {
            miner,
            supp,
            seconds,
            sets,
            transactions_total: transactions,
            transactions_distinct: None,
            tree: None,
            passes: None,
            spill: None,
            kernel: None,
            constraint: None,
            events: None,
            resources: ResourceMetrics::probe_now(),
            counters: Counters::new(),
        }
    }

    /// Writes the document as pretty-printed JSON followed by a newline.
    pub fn write_json(&self, w: &mut dyn Write) -> io::Result<()> {
        writeln!(w, "{{")?;
        writeln!(w, "  \"schema\": \"{METRICS_SCHEMA}\",")?;
        writeln!(w, "  \"miner\": \"{}\",", escape(self.miner))?;
        writeln!(w, "  \"supp\": {},", self.supp)?;
        writeln!(w, "  \"seconds\": {:.6},", self.seconds)?;
        writeln!(w, "  \"sets\": {},", self.sets)?;
        write!(
            w,
            "  \"transactions\": {{\"total\": {}",
            self.transactions_total
        )?;
        if let Some(d) = self.transactions_distinct {
            write!(w, ", \"distinct\": {d}")?;
        }
        writeln!(w, "}},")?;
        if let Some(t) = &self.tree {
            writeln!(w, "  \"tree\": {{")?;
            writeln!(w, "    \"peak_nodes\": {},", t.peak_nodes)?;
            writeln!(w, "    \"live_nodes\": {},", t.live_nodes)?;
            writeln!(w, "    \"total_slots\": {},", t.total_slots)?;
            writeln!(w, "    \"free_slots\": {},", t.free_slots)?;
            writeln!(w, "    \"seg_items\": {},", t.seg_items)?;
            writeln!(w, "    \"seg_bytes\": {},", t.seg_bytes)?;
            writeln!(w, "    \"avg_seg_len\": {:.3},", t.avg_seg_len())?;
            writeln!(w, "    \"approx_bytes\": {}", t.approx_bytes)?;
            writeln!(w, "  }},")?;
        }
        if let Some(p) = &self.passes {
            writeln!(
                w,
                "  \"passes\": {{\"prune_passes\": {}, \"compactions\": {}}},",
                p.prune_passes, p.compactions
            )?;
        }
        if let Some(s) = &self.spill {
            writeln!(
                w,
                "  \"spill\": {{\"shards\": {}, \"spill_bytes\": {}, \"merge_passes\": {}, \
                 \"faults_injected\": {}, \"retries_attempted\": {}, \"shards_resumed\": {}}},",
                s.shards,
                s.spill_bytes,
                s.merge_passes,
                s.faults_injected,
                s.retries_attempted,
                s.shards_resumed
            )?;
        }
        if let Some(k) = &self.kernel {
            writeln!(
                w,
                "  \"kernel\": {{\"rep\": \"{}\", \"words_anded\": {}, \"gallop_probes\": {}, \"popcount_calls\": {}}},",
                escape(k.rep), k.words_anded, k.gallop_probes, k.popcount_calls
            )?;
        }
        if let Some(c) = &self.constraint {
            writeln!(
                w,
                "  \"constraint\": {{\"spec\": \"{}\", \"pushed\": {}, \"prunes\": {}}},",
                escape(&c.spec),
                c.pushed,
                c.prunes
            )?;
        }
        if let Some(e) = &self.events {
            writeln!(
                w,
                "  \"events\": {{\"path\": \"{}\", \"emitted\": {}}},",
                escape(&e.path),
                e.emitted
            )?;
        }
        writeln!(w, "  \"resources\": {{")?;
        writeln!(w, "    \"peak_rss_kb\": {},", self.resources.peak_rss_kb)?;
        write!(w, "    \"rss_kb\": {}", self.resources.rss_kb)?;
        if let Some(ms) = self.resources.sample_interval_ms {
            write!(w, ",\n    \"sample_interval_ms\": {ms}")?;
        }
        if !self.resources.samples.is_empty() {
            write!(w, ",\n    \"samples\": [")?;
            for (i, s) in self.resources.samples.iter().enumerate() {
                if i > 0 {
                    write!(w, ",")?;
                }
                write!(
                    w,
                    "\n      {{\"at_ms\": {}, \"rss_kb\": {}, \"hwm_kb\": {}, \"nodes\": {}, \
                     \"arena_bytes\": {}, \"spill_bytes\": {}}}",
                    s.at_ms, s.rss_kb, s.hwm_kb, s.nodes, s.arena_bytes, s.spill_bytes
                )?;
            }
            write!(w, "\n    ]")?;
        }
        if !self.resources.histograms.is_empty() {
            write!(w, ",\n    \"phase_hist_log2_us\": {{")?;
            for (i, (name, buckets)) in self.resources.histograms.iter().enumerate() {
                if i > 0 {
                    write!(w, ", ")?;
                }
                let len = buckets.iter().rposition(|&b| b > 0).map_or(0, |p| p + 1);
                write!(w, "\"{}\": [", escape(name))?;
                for (j, b) in buckets[..len].iter().enumerate() {
                    if j > 0 {
                        write!(w, ", ")?;
                    }
                    write!(w, "{b}")?;
                }
                write!(w, "]")?;
            }
            write!(w, "}}")?;
        }
        writeln!(w, "\n  }},")?;
        write!(w, "  \"counters\": {{")?;
        let mut first = true;
        for (name, value) in self.counters.iter_nonzero() {
            if !first {
                write!(w, ", ")?;
            }
            first = false;
            write!(w, "\"{name}\": {value}")?;
        }
        writeln!(w, "}}")?;
        writeln!(w, "}}")
    }

    /// The document as a `String` (same bytes as [`write_json`](Self::write_json)).
    pub fn to_json(&self) -> String {
        let mut buf = Vec::new();
        self.write_json(&mut buf).expect("in-memory write");
        String::from_utf8(buf).expect("metrics JSON is UTF-8")
    }
}

pub(crate) fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Checks a metrics document against the pinned schema: the `schema` field
/// must equal [`METRICS_SCHEMA`] (or [`METRICS_SCHEMA_V1`], the
/// compatibility tag) and every key in [`REQUIRED_METRICS_KEYS`] must be
/// present — v1 documents are exempt from `resources`, which v2
/// introduced. Returns a description of the first violation. This is a
/// structural lint, not a JSON parser — it matches the `"key":` spellings
/// [`MetricsReport::write_json`] emits.
pub fn validate_metrics_json(doc: &str) -> Result<(), String> {
    let trimmed = doc.trim_start();
    if !trimmed.starts_with('{') {
        return Err("document does not start with '{'".into());
    }
    let v2 = doc.contains(&format!("\"schema\": \"{METRICS_SCHEMA}\""));
    let v1 = doc.contains(&format!("\"schema\": \"{METRICS_SCHEMA_V1}\""));
    if !v2 && !v1 {
        return Err(format!(
            "missing or wrong schema tag (want {METRICS_SCHEMA} or {METRICS_SCHEMA_V1})"
        ));
    }
    for key in REQUIRED_METRICS_KEYS {
        if key == "resources" && v1 {
            continue;
        }
        if !doc.contains(&format!("\"{key}\":")) {
            return Err(format!("missing required key \"{key}\""));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Counter;

    fn sample() -> MetricsReport<'static> {
        let mut r = MetricsReport::new("ista", 2, 1.25, 345, 1000);
        r.transactions_distinct = Some(800);
        r.tree = Some(TreeMetrics {
            peak_nodes: 53406,
            live_nodes: 1200,
            total_slots: 1500,
            free_slots: 300,
            seg_items: 4800,
            seg_bytes: 19200,
            approx_bytes: 60000,
        });
        r.passes = Some(PassMetrics {
            prune_passes: 3,
            compactions: 1,
        });
        r.kernel = Some(KernelMetrics {
            rep: "bitset",
            words_anded: 777,
            gallop_probes: 0,
            popcount_calls: 555,
        });
        r.counters.add(Counter::SegScans, 123456);
        r.counters.add(Counter::IsectEarlyExits, 4567);
        r
    }

    #[test]
    fn schema_pins_version_and_required_keys() {
        let doc = sample().to_json();
        assert!(doc.contains("\"schema\": \"fim-metrics/2\""));
        for key in REQUIRED_METRICS_KEYS {
            assert!(
                doc.contains(&format!("\"{key}\":")),
                "missing {key}:\n{doc}"
            );
        }
        validate_metrics_json(&doc).expect("sample validates");
    }

    #[test]
    fn v1_documents_still_validate_without_resources() {
        let v1 = "{\n  \"schema\": \"fim-metrics/1\",\n  \"miner\": \"ista\",\n  \"supp\": 2,\n  \
                  \"seconds\": 1.0,\n  \"sets\": 5,\n  \"transactions\": {\"total\": 9},\n  \
                  \"counters\": {}\n}";
        validate_metrics_json(v1).expect("v1 compatibility reader");
        // The same document under the v2 tag must be rejected: v2 made
        // resources mandatory.
        let fake_v2 = v1.replace("fim-metrics/1", "fim-metrics/2");
        let err = validate_metrics_json(&fake_v2).unwrap_err();
        assert!(err.contains("resources"), "{err}");
    }

    #[test]
    fn resources_section_renders_series_and_histograms() {
        let mut r = MetricsReport::new("ista", 2, 0.5, 10, 60);
        r.resources.peak_rss_kb = 4096;
        r.resources.rss_kb = 2048;
        r.resources.sample_interval_ms = Some(100);
        r.resources.samples = vec![
            ResourceSample {
                at_ms: 0,
                rss_kb: 2000,
                hwm_kb: 2000,
                nodes: 10,
                arena_bytes: 640,
                spill_bytes: 0,
            },
            ResourceSample {
                at_ms: 100,
                rss_kb: 2048,
                hwm_kb: 4096,
                nodes: 20,
                arena_bytes: 1280,
                spill_bytes: 512,
            },
        ];
        let mut buckets = [0u64; HIST_BUCKETS];
        buckets[0] = 1;
        buckets[3] = 2;
        r.resources.histograms = vec![("mine", buckets)];
        let doc = r.to_json();
        validate_metrics_json(&doc).expect("resource report validates");
        assert!(doc.contains("\"peak_rss_kb\": 4096"));
        assert!(doc.contains("\"sample_interval_ms\": 100"));
        assert!(doc.contains("\"spill_bytes\": 512"));
        assert!(
            doc.contains("\"phase_hist_log2_us\": {\"mine\": [1, 0, 0, 2]}"),
            "buckets trim to the last nonzero:\n{doc}"
        );
        // The whole document must be well-formed JSON, not just greppable.
        crate::json::parse_json(&doc).expect("metrics JSON parses");
    }

    #[test]
    fn optional_sections_come_and_go() {
        let bare = MetricsReport::new("carpenter-lists", 3, 0.5, 10, 60).to_json();
        validate_metrics_json(&bare).expect("bare report validates");
        assert!(!bare.contains("\"tree\""));
        assert!(!bare.contains("\"passes\""));
        assert!(!bare.contains("\"spill\""));
        assert!(!bare.contains("\"kernel\""));
        assert!(!bare.contains("\"constraint\""));
        assert!(!bare.contains("\"events\""));
        assert!(
            bare.contains("\"resources\""),
            "resources is always present"
        );
        assert!(bare.contains("\"counters\": {}"));
        let full = sample().to_json();
        assert!(full.contains("\"tree\""));
        assert!(full.contains("\"avg_seg_len\": 4.000"));
        assert!(full.contains("\"seg_scans\": 123456"));
        assert!(full.contains("\"distinct\": 800"));
        assert!(full.contains(
            "\"kernel\": {\"rep\": \"bitset\", \"words_anded\": 777, \
             \"gallop_probes\": 0, \"popcount_calls\": 555}"
        ));
    }

    #[test]
    fn spill_section_reads_counters_and_renders() {
        let mut c = Counters::new();
        c.add(Counter::ShardsSpilled, 6);
        c.add(Counter::SpillBytes, 123_456);
        c.add(Counter::MergePasses, 5);
        c.add(Counter::FaultsInjected, 2);
        c.add(Counter::RetriesAttempted, 3);
        c.add(Counter::ShardsResumed, 4);
        let s = SpillMetrics::from_counters(&c);
        assert_eq!(s.shards, 6);
        assert_eq!(s.spill_bytes, 123_456);
        assert_eq!(s.merge_passes, 5);
        assert_eq!(s.faults_injected, 2);
        assert_eq!(s.retries_attempted, 3);
        assert_eq!(s.shards_resumed, 4);
        let mut r = MetricsReport::new("ista-oocore", 2, 0.5, 10, 60);
        r.spill = Some(s);
        let doc = r.to_json();
        validate_metrics_json(&doc).expect("spill report validates");
        assert!(doc.contains(
            "\"spill\": {\"shards\": 6, \"spill_bytes\": 123456, \"merge_passes\": 5, \
             \"faults_injected\": 2, \"retries_attempted\": 3, \"shards_resumed\": 4}"
        ));
    }

    #[test]
    fn constraint_section_reads_counters_and_renders() {
        let mut c = Counters::new();
        c.add(Counter::ConstraintPrunes, 42);
        let s = ConstraintMetrics::from_counters("min_size=2 max_size=4".into(), true, &c);
        assert_eq!(s.prunes, 42);
        assert!(s.pushed);
        let mut r = MetricsReport::new("eclat", 2, 0.5, 10, 60);
        r.constraint = Some(s);
        let doc = r.to_json();
        validate_metrics_json(&doc).expect("constraint report validates");
        assert!(doc.contains(
            "\"constraint\": {\"spec\": \"min_size=2 max_size=4\", \"pushed\": true, \"prunes\": 42}"
        ));
    }

    #[test]
    fn kernel_section_reads_counters() {
        let mut c = Counters::new();
        c.add(Counter::WordsAnded, 10);
        c.add(Counter::PopcountCalls, 4);
        let k = KernelMetrics::from_counters("gallop", &c);
        assert_eq!(k.rep, "gallop");
        assert_eq!(k.words_anded, 10);
        assert_eq!(k.gallop_probes, 0);
        assert_eq!(k.popcount_calls, 4);
    }

    #[test]
    fn validator_rejects_violations() {
        assert!(validate_metrics_json("not json").is_err());
        assert!(validate_metrics_json("{\"schema\": \"fim-metrics/0\"}").is_err());
        let doc = sample().to_json();
        let no_sets = doc.replace("\"sets\":", "\"fsets\":");
        let err = validate_metrics_json(&no_sets).unwrap_err();
        assert!(err.contains("sets"), "{err}");
    }

    #[test]
    fn miner_name_is_escaped() {
        let r = MetricsReport::new("we\"ird\\name", 1, 0.0, 0, 0);
        let doc = r.to_json();
        assert!(doc.contains("we\\\"ird\\\\name"));
    }
}
