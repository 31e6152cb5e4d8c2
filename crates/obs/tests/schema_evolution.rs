//! Schema-evolution guarantees, pinned by committed fixtures.
//!
//! `fixtures/metrics-v1.json` is verbatim `--stats` output from the
//! fim-metrics/1 era. It must keep validating and comparing forever —
//! old metrics documents and committed baselines are read with today's
//! reader. The same document under the v2 tag must be *rejected*: v2
//! made the `resources` section mandatory, and a v2 document without it
//! is a producer bug, not an old file.

use std::io::Write;
use std::sync::{Arc, Mutex};

const V1_FIXTURE: &str = include_str!("fixtures/metrics-v1.json");

#[test]
fn committed_v1_fixture_still_validates() {
    fim_obs::validate_metrics_json(V1_FIXTURE).expect("v1 compatibility reader");
}

#[test]
fn committed_v1_fixture_still_compares() {
    let summary = fim_obs::parse_run_summary(V1_FIXTURE).expect("v1 summary");
    assert_eq!(summary.kind, "metrics");
    assert_eq!(summary.algo, "ista");
    assert_eq!(summary.sets, Some(10));
    // v1 never recorded RSS; compare must treat it as absent, not zero
    assert_eq!(summary.peak_rss_kb, None);
    let report = fim_obs::compare(&summary, &summary.clone(), &fim_obs::Thresholds::default());
    assert_eq!(report.regressions, 0, "a run cannot regress against itself");
}

#[test]
fn v2_document_without_resources_is_rejected() {
    let fake_v2 = V1_FIXTURE.replace("fim-metrics/1", "fim-metrics/2");
    let err = fim_obs::validate_metrics_json(&fake_v2).unwrap_err();
    assert!(err.contains("resources"), "{err}");
}

/// A shared in-memory sink, so the test can read back what the writer
/// streamed.
#[derive(Clone, Default)]
struct Sink(Arc<Mutex<Vec<u8>>>);

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn emitted_trace_is_perfetto_loadable() {
    let sink = Sink::default();
    let mut w = fim_obs::TraceWriter::new(Box::new(sink.clone()));
    w.begin("stream");
    w.instant("checkpoint", &[("transactions", 100)]);
    w.begin("shard");
    w.end();
    w.begin("merge");
    // crash hygiene: finish closes the still-open spans itself
    let emitted = w.finish();

    let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    let events = fim_obs::read_trace(&text).expect("array format parses");
    assert_eq!(events.len() as u64, emitted);
    assert_eq!(events[0].ph, "M", "schema metadata leads the stream");
    fim_obs::validate_trace_pairing(&events).expect("begin/end balanced");

    // the exporter rewrites it as one strict JSON object for picky tools
    let mut obj = Vec::new();
    let exported = fim_obs::export_chrome_object(&text, &mut obj).expect("exports");
    assert_eq!(exported, emitted);
    let doc =
        fim_obs::json::parse_json(&String::from_utf8(obj).unwrap()).expect("strict JSON object");
    assert!(doc.get("traceEvents").is_some());
}

#[test]
fn truncated_trace_still_loads() {
    // a crash mid-write leaves no closing bracket and possibly a torn
    // final line; the reader (like Chrome and Perfetto) must cope
    let sink = Sink::default();
    let mut w = fim_obs::TraceWriter::new(Box::new(sink.clone()));
    w.begin("stream");
    w.instant("spill", &[]);
    drop(w); // never finished: no `]`, spans still open
    let mut text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    text.push_str("{\"ph\":\"i\",\"pid\":1,\"ti"); // torn line
    let events = fim_obs::read_trace(&text).expect("truncated trace parses");
    assert_eq!(events.len(), 3, "metadata + begin + instant survive");
}
