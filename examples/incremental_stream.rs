//! Incremental mining: the cumulative intersection scheme processes one
//! transaction at a time, so the closed-set repository can be queried at
//! any point of a stream — something the enumeration miners cannot do
//! without re-running from scratch. This example simulates a stream of
//! experimental conditions arriving one by one and re-inspects the
//! co-expression structure after each arrival.
//!
//! Run with: `cargo run --release --example incremental_stream`

use closed_fim::ista::IstaStream;
use closed_fim::prelude::*;
use closed_fim::synth::Preset;

fn main() {
    let db = Preset::Ncbi60.build(0.12, 7);
    println!(
        "streaming {} conditions over {} gene-state items\n",
        db.num_transactions(),
        db.num_items()
    );

    let mut stream = IstaStream::new(db.num_items() as u32);
    let minsupp = 4;
    let probe: ItemSet = {
        // track an arbitrary frequent pair of gene states
        let freq = db.item_frequencies();
        let mut by: Vec<(u32, u32)> = freq
            .iter()
            .enumerate()
            .map(|(i, &f)| (f, i as u32))
            .collect();
        by.sort_unstable_by(|a, b| b.cmp(a));
        ItemSet::from([by[0].1, by[1].1])
    };

    println!(
        "{:>6} {:>14} {:>14} {:>16}",
        "tx", "repo nodes", "closed>=4", "probe support"
    );
    for (k, t) in db.transactions().iter().enumerate() {
        stream.push_sorted(t);
        if (k + 1) % 5 == 0 || k + 1 == db.num_transactions() {
            let closed = stream.closed_sets(minsupp);
            println!(
                "{:>6} {:>14} {:>14} {:>16}",
                k + 1,
                stream.node_count(),
                closed.len(),
                stream.support_of(&probe)
            );
        }
    }

    // the final stream state equals a batch run over the whole database
    let batch = mine_closed(&db, minsupp, &IstaMiner::default());
    let streamed = stream.closed_sets(minsupp);
    // batch results are decoded to raw codes; the stream already works on
    // raw codes because we pushed raw transactions
    assert_eq!(batch, streamed);
    println!(
        "\nstream result equals batch mining: {} closed sets",
        batch.len()
    );
}
