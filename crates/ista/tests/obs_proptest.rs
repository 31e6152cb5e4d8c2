//! Property tests for the observability layer: instrumentation must be a
//! pure observer. Mining with the full bundle enabled — spans, a
//! heartbeat, the flight-recorder trace, the background resource sampler,
//! phase histograms, and counters — has to produce exactly the sets that
//! an unobserved run produces (and the brute-force reference), across the
//! kernel × prune-policy × minimum-support grid; and the counters it
//! reports must describe work
//! that actually happened (allocations at least as numerous as live
//! nodes, scans at least as numerous as insertions).

use fim_core::reference::mine_reference;
use fim_core::{ClosedMiner, Item, MiningResult, RecodedDatabase, Representation};
use fim_ista::{IstaConfig, IstaMiner, PrunePolicy};
use fim_obs::{
    Counter, Obs, PhaseHistograms, ProgressEmitter, ProgressStyle, ResourceGauges, ResourceSampler,
    SpanRecorder, TraceWriter,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Strategy: a database of up to 12 transactions over up to 8 items.
fn small_db() -> impl Strategy<Value = RecodedDatabase> {
    (2u32..=8).prop_flat_map(|num_items| {
        vec(vec(0..num_items, 0..=num_items as usize), 0..12)
            .prop_map(move |txs| RecodedDatabase::from_dense(txs, num_items))
    })
}

fn any_policy() -> impl Strategy<Value = PrunePolicy> {
    prop_oneof![
        Just(PrunePolicy::Never),
        Just(PrunePolicy::EveryN(1)),
        Just(PrunePolicy::EveryN(2)),
        Just(PrunePolicy::Growth(1.5)),
    ]
}

/// Canonical (items, support) view of a mining result, for comparison.
fn canon(r: &MiningResult) -> Vec<(Vec<Item>, u32)> {
    let mut v: Vec<(Vec<Item>, u32)> = r
        .sets
        .iter()
        .map(|f| (f.items.as_slice().to_vec(), f.support))
        .collect();
    v.sort();
    v
}

/// A shared in-memory sink for the heartbeat writer.
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

/// An [`Obs`] with every facility turned on: heartbeat into `sink` at a
/// zero interval so every strided check emits, the trace stream into
/// `trace_sink`, and the background sampler polling at 1 ms.
fn full_obs(sink: &Sink, trace_sink: &Sink) -> Obs {
    let mut obs = Obs::new();
    obs.spans = Some(SpanRecorder::new());
    obs.progress = Some(ProgressEmitter::with_writer(
        Duration::ZERO,
        ProgressStyle::JsonLines,
        Box::new(sink.clone()),
    ));
    obs.trace = Some(TraceWriter::new(Box::new(trace_sink.clone())));
    let gauges = Arc::new(ResourceGauges::default());
    obs.sampler = Some(ResourceSampler::start(
        Duration::from_millis(1),
        Arc::clone(&gauges),
        None,
    ));
    obs.gauges = Some(gauges);
    obs.hist = Some(PhaseHistograms::new());
    obs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Observed and unobserved runs report identical closed sets, equal
    /// to the reference, with both segment kernels, under every prune
    /// policy, at every minimum support.
    #[test]
    fn observed_mining_is_byte_identical(
        db in small_db(),
        policy in any_policy(),
        minsupp in 1u32..=4,
        bitset in any::<bool>(),
    ) {
        let rep = if bitset { Representation::Bitset } else { Representation::Scalar };
        let miner = IstaMiner::with_config(IstaConfig { policy, rep });
        let unobserved = miner.mine(&db, minsupp).canonicalized();
        prop_assert_eq!(canon(&unobserved), canon(&mine_reference(&db, minsupp)));

        let sink = Sink::default();
        let trace_sink = Sink::default();
        let mut obs = full_obs(&sink, &trace_sink);
        let (observed, stats) = miner.mine_with_obs(&db, minsupp, &mut obs);
        prop_assert_eq!(canon(&unobserved), canon(&observed.canonicalized()));

        // render both to text as the CLI would: byte-identical output
        let fmt = |r: &MiningResult| -> String {
            canon(r).iter().map(|(items, supp)| {
                let names: Vec<String> = items.iter().map(u32::to_string).collect();
                format!("{} ({supp})\n", names.join(" "))
            }).collect()
        };
        prop_assert_eq!(fmt(&unobserved), fmt(&observed));

        // drain the full bundle: the sampler stops cleanly and the trace
        // closes with balanced begin/end events
        let resources = obs.take_resources();
        prop_assert!(resources.peak_rss_kb > 0, "RSS probe returned nothing");
        let emitted = obs.finish_trace().expect("trace was on");
        let text = String::from_utf8(trace_sink.0.lock().unwrap().clone()).unwrap();
        let events = fim_obs::read_trace(&text);
        prop_assert!(events.is_ok(), "trace unreadable: {:?}", events.err());
        let events = events.unwrap();
        prop_assert_eq!(events.len() as u64, emitted);
        let pairing = fim_obs::validate_trace_pairing(&events);
        prop_assert!(pairing.is_ok(), "unbalanced trace: {:?}", pairing.err());

        // the counters must describe real work
        let c = &stats.counters;
        prop_assert!(c.get(Counter::NodeAllocs) + 1 >= stats.memory.live_nodes as u64);
        if db.transactions().iter().any(|t| !t.is_empty()) {
            prop_assert!(c.get(Counter::NodeAllocs) > 0, "no allocations recorded");
        }
        prop_assert!(c.get(Counter::IsectEarlyExits) <= c.get(Counter::SegScans));
    }

    /// The heartbeat fires (at a zero interval, on any non-empty database)
    /// and every line is a JSON progress object; the spans nest under the
    /// recorder root and account for non-negative time.
    #[test]
    fn heartbeat_and_spans_record(db in small_db(), minsupp in 1u32..=3) {
        prop_assume!(db.transactions().iter().any(|t| !t.is_empty()));
        let sink = Sink::default();
        let trace_sink = Sink::default();
        let mut obs = full_obs(&sink, &trace_sink);
        let miner = IstaMiner::default();
        let _ = miner.mine_with_obs(&db, minsupp, &mut obs);

        let emitted = obs.progress.as_ref().unwrap().emitted();
        prop_assert!(emitted >= 1, "finish() must always emit");
        let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        for line in text.lines() {
            prop_assert!(
                line.starts_with("{\"type\":\"progress\"") && line.ends_with('}'),
                "bad heartbeat line: {line}"
            );
        }

        let spans = obs.spans.as_ref().unwrap();
        prop_assert!(spans.num_spans() >= 2, "miner phases must be recorded");
        let mut collapsed = Vec::new();
        spans.write_collapsed(&mut collapsed).unwrap();
        let collapsed = String::from_utf8(collapsed).unwrap();
        for line in collapsed.lines() {
            let (path, micros) = line.rsplit_once(' ').unwrap();
            prop_assert!(!path.is_empty());
            prop_assert!(micros.parse::<u64>().is_ok(), "bad self-time: {line}");
        }
    }
}
