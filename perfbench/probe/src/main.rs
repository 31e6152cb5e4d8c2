//! `perfbench-probe`: the in-process half of the end-to-end mining
//! benchmark driven by `perfbench/run.py`.
//!
//! ```text
//! perfbench-probe gen   --out F --seed N (--preset P --scale X | --quest ...)
//! perfbench-probe hash  --in F
//! perfbench-probe setup --in F --supp N
//! perfbench-probe trace --in F --out F --algo A --supp N [--rep R]
//! perfbench-probe calibrate
//! ```
//!
//! Every subcommand prints one JSON object on stdout. `trace` runs one
//! query through the same public calls `fim mine` makes — parse, recode,
//! mine, report, write, teardown — and reports one span per call under a
//! root span, plus the miner's counters from its `mine_with_stats`.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use fim_core::{
    Density, ItemOrder, MiningResult, RecodedDatabase, Representation, TransactionDatabase,
    TransactionOrder,
};
use fim_obs::{Counter, Counters};

type Flags = HashMap<String, String>;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.split_first() {
        Some((cmd, rest)) => parse_flags(rest).and_then(|flags| match cmd.as_str() {
            "gen" => cmd_gen(&flags),
            "hash" => cmd_hash(&flags),
            "setup" => cmd_setup(&flags),
            "trace" => cmd_trace(&flags),
            "calibrate" => cmd_calibrate(),
            other => Err(format!("unknown subcommand '{other}'")),
        }),
        None => {
            Err("usage: perfbench-probe gen|hash|setup|trace|calibrate --flag value ...".into())
        }
    };
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-probe: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let name = key
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got '{key}'"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_owned(), value.clone());
    }
    Ok(flags)
}

fn get<'a>(flags: &'a Flags, key: &str) -> Result<&'a str, String> {
    flags
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{key}"))
}

fn parsed<T: std::str::FromStr>(flags: &Flags, key: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    get(flags, key)?
        .parse()
        .map_err(|e| format!("bad --{key}: {e}"))
}

fn create(path: &str) -> Result<BufWriter<File>, String> {
    File::create(path)
        .map(BufWriter::new)
        .map_err(|e| format!("{path}: {e}"))
}

/// Writes the generated input as FIMI text.
fn cmd_gen(flags: &Flags) -> Result<String, String> {
    let seed: u64 = parsed(flags, "seed")?;
    let db = if let Some(preset) = flags.get("preset") {
        let preset = match preset.as_str() {
            "ncbi60" => fim_synth::Preset::Ncbi60,
            "webview" => fim_synth::Preset::Webview,
            other => return Err(format!("unknown preset '{other}'")),
        };
        preset.build(parsed(flags, "scale")?, seed)
    } else {
        fim_synth::quest::generate(&fim_synth::QuestConfig {
            transactions: parsed(flags, "transactions")?,
            items: parsed(flags, "items")?,
            avg_transaction_len: parsed(flags, "avg-len")?,
            patterns: parsed(flags, "patterns")?,
            avg_pattern_len: parsed(flags, "pattern-len")?,
            keep_prob: parsed(flags, "keep")?,
            zipf: parsed(flags, "zipf")?,
            seed,
        })
    };
    let out = get(flags, "out")?;
    let mut w = create(out)?;
    fim_io::write_fimi(&db, &mut w).map_err(|e| e.to_string())?;
    w.flush().map_err(|e| format!("{out}: {e}"))?;
    Ok(format!(
        "{{\"transactions\":{},\"items\":{},\"occurrences\":{}}}",
        db.num_transactions(),
        db.num_items(),
        db.total_occurrences()
    ))
}

/// Set count (lines), byte count and FNV-1a of a result file.
fn cmd_hash(flags: &Flags) -> Result<String, String> {
    let path = get(flags, "in")?;
    let fnv =
        fim_obs::fnv1a_file(std::path::Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    let mut file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let (mut lines, mut bytes) = (0u64, 0u64);
    let mut buf = vec![0u8; 1 << 20];
    loop {
        let n = file.read(&mut buf).map_err(|e| format!("{path}: {e}"))?;
        if n == 0 {
            break;
        }
        bytes += n as u64;
        lines += buf[..n].iter().filter(|&&b| b == b'\n').count() as u64;
    }
    Ok(format!(
        "{{\"sets\":{lines},\"bytes\":{bytes},\"fnv1a\":\"{fnv:016x}\"}}"
    ))
}

fn recode(db: &TransactionDatabase, supp: u32) -> RecodedDatabase {
    // the orders `fim mine` uses by default
    RecodedDatabase::prepare(
        db,
        supp,
        ItemOrder::AscendingFrequency,
        TransactionOrder::AscendingSize,
    )
}

/// Times parse + recode, the work that makes a query ready to mine,
/// repeatedly in this process. The repetitions run in batches of at least
/// `BATCH`, so that a sub-millisecond setup is not timed one repetition
/// per calibration; a batch's sample is its mean seconds of parse +
/// recode per repetition, without the drops in between. One untimed
/// repetition and calibration come first, so that every timed one finds
/// the allocator's memory faulted in; then one calibration precedes the
/// first batch and one follows each. Runs at least `MIN_BATCHES` batches
/// and `MIN_TIME`, and prints both series in seconds.
fn cmd_setup(flags: &Flags) -> Result<String, String> {
    const BATCH: Duration = Duration::from_millis(250);
    const MIN_BATCHES: usize = 7;
    const MIN_TIME: Duration = Duration::from_secs(2);
    let path = get(flags, "in")?;
    let supp: u32 = parsed(flags, "supp")?;
    let setup_once = || -> Result<Duration, String> {
        let t0 = Instant::now();
        let db = fim_io::read_fimi_path(path).map_err(|e| format!("{path}: {e}"))?;
        let recoded = recode(&db, supp);
        let elapsed = t0.elapsed();
        std::hint::black_box(&recoded);
        Ok(elapsed)
    };
    setup_once()?;
    calibrate();
    let started = Instant::now();
    let (mut setup, mut calibration) = (Vec::new(), vec![format!("{:.9}", calibrate())]);
    while setup.len() < MIN_BATCHES || started.elapsed() < MIN_TIME {
        let (batch, mut timed, mut reps) = (Instant::now(), Duration::ZERO, 0u32);
        while reps == 0 || batch.elapsed() < BATCH {
            timed += setup_once()?;
            reps += 1;
        }
        setup.push(format!("{:.9}", timed.as_secs_f64() / f64::from(reps)));
        calibration.push(format!("{:.9}", calibrate()));
    }
    Ok(format!(
        "{{\"setup_s\":[{}],\"calibration_s\":[{}]}}",
        setup.join(","),
        calibration.join(",")
    ))
}

fn cmd_calibrate() -> Result<String, String> {
    Ok(format!("{{\"calibration_s\":{:.9}}}", calibrate()))
}

/// Times a fixed piece of work that uses none of the repository's code:
/// fill, sort, hash and format about 20 MB, the operations the mining
/// queries mix. Its time tracks how fast the host runs at the moment, so
/// the benchmark can scale its timings to one host speed. Changing this
/// work changes every timed metric of the benchmark.
fn calibrate() -> f64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::BuildHasherDefault;
    let t0 = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut v: Vec<u32> = (0..2_000_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u32
        })
        .collect();
    v.sort_unstable();
    // fixed hash keys, so every run hashes alike
    let mut counts: HashMap<u32, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for (i, &e) in v.iter().enumerate().step_by(7) {
        *counts.entry(e % 200_000).or_insert(0) += i as u64;
    }
    let mut text = Vec::with_capacity(8 << 20);
    for e in v.iter().step_by(3) {
        writeln!(text, "{e} {}", e % 97).expect("writing to a Vec cannot fail");
    }
    std::hint::black_box((counts.values().sum::<u64>(), text.len()));
    t0.elapsed().as_secs_f64()
}

/// The miners the benchmark's workloads run, built the way `fim mine`
/// builds them from `--algo` and `--rep`.
enum Miner {
    Ista(fim_ista::IstaMiner),
    CarpenterLists(fim_carpenter::CarpenterListMiner),
    Eclat(fim_baseline::EclatMiner),
}

impl Miner {
    fn from_flags(flags: &Flags, db: &TransactionDatabase) -> Result<Miner, String> {
        let rep = match flags.get("rep").map(String::as_str) {
            None => None,
            Some("auto") => Some(Representation::select(&raw_density(db))),
            Some(r) => Some(
                r.parse::<Representation>()
                    .map_err(|e| format!("bad --rep: {e}"))?,
            ),
        };
        Ok(match (get(flags, "algo")?, rep) {
            ("ista", None) => Miner::Ista(fim_ista::IstaMiner::default()),
            ("carpenter-lists", None) => {
                Miner::CarpenterLists(fim_carpenter::CarpenterListMiner::default())
            }
            ("carpenter-lists", Some(r)) => {
                Miner::CarpenterLists(fim_carpenter::CarpenterListMiner::with_rep(r))
            }
            ("eclat", None) => Miner::Eclat(fim_baseline::EclatMiner::default()),
            ("eclat", Some(r)) => Miner::Eclat(fim_baseline::EclatMiner::with_rep(r)),
            (algo, _) => {
                return Err(format!(
                    "the probe does not trace '{algo}' with these flags"
                ))
            }
        })
    }

    /// The miner family, which names its counters in the benchmark.
    fn family(&self) -> &'static str {
        match self {
            Miner::Ista(_) => "ista",
            Miner::CarpenterLists(_) => "carpenter",
            Miner::Eclat(_) => "eclat",
        }
    }

    /// Mines and returns the miner's counters by name.
    fn mine(&self, db: &RecodedDatabase, supp: u32) -> (MiningResult, Vec<(&'static str, u64)>) {
        let all = |c: &Counters| -> Vec<(&'static str, u64)> {
            Counter::ALL.iter().map(|&k| (k.name(), c.get(k))).collect()
        };
        match self {
            Miner::Ista(m) => {
                let (result, stats) = m.mine_with_stats(db, supp);
                let mut counters = all(&stats.counters);
                counters.push(("prune_passes", stats.prune_passes as u64));
                counters.push(("compactions", stats.compactions as u64));
                counters.push(("peak_nodes", stats.peak_nodes as u64));
                (result, counters)
            }
            Miner::CarpenterLists(m) => {
                let (result, c) = m.mine_with_stats(db, supp);
                (result, all(&c))
            }
            Miner::Eclat(m) => {
                let (result, c) = m.mine_with_stats(db, supp);
                (result, all(&c))
            }
        }
    }
}

/// The density `fim mine --rep auto` selects a kernel from: the raw
/// database, before recoding.
fn raw_density(db: &TransactionDatabase) -> Density {
    let rows = db.num_transactions();
    let cols = db.num_items();
    let ones = db.total_occurrences() as u64;
    let cells = rows as u64 * cols as u64;
    Density {
        rows,
        cols,
        ones,
        fill: if cells == 0 {
            0.0
        } else {
            ones as f64 / cells as f64
        },
        avg_row_len: if rows == 0 {
            0.0
        } else {
            ones as f64 / rows as f64
        },
    }
}

/// One traced query. Each layer is a child span of the root `query` span,
/// and a child ends at the same clock reading the next one starts at, so
/// the children cover the root exactly and each child's self time is its
/// duration. Every statement after a span's start reading counts towards
/// that span until the next reading, and is named in the comment above
/// the reading.
fn cmd_trace(flags: &Flags) -> Result<String, String> {
    let input = get(flags, "in")?;
    let output = get(flags, "out")?;
    let supp: u32 = parsed(flags, "supp")?;
    let mut marks: Vec<(&'static str, Instant)> = Vec::with_capacity(7);

    // read_fimi_path
    marks.push(("io.parse", Instant::now()));
    let db = fim_io::read_fimi_path(input).map_err(|e| format!("{input}: {e}"))?;

    // RecodedDatabase::prepare
    marks.push(("core.recode", Instant::now()));
    let recoded = recode(&db, supp);

    // building the miner from --algo and --rep (for --rep auto, the pass
    // over the raw database `fim mine` makes for its density), then
    // mine_with_stats
    marks.push(("miner.mine", Instant::now()));
    let miner = Miner::from_flags(flags, &db)?;
    let (raw, counters) = miner.mine(&recoded, supp.max(1));

    // MiningResult::decode + canonicalize, dropping the coded result
    marks.push(("core.report", Instant::now()));
    let mut result = raw.decode(recoded.recode());
    result.canonicalize();
    drop(raw);

    // creating the file, write_results, the flush and the close, and
    // reading three counts
    marks.push(("io.write", Instant::now()));
    let mut w = create(output)?;
    fim_io::write_results(&result, &db, &mut w).map_err(|e| e.to_string())?;
    // flush, then close the file, as dropping `fim mine`'s writer does
    drop(
        w.into_inner()
            .map_err(|e| format!("{output}: {}", e.error()))?,
    );

    let sets = result.len();
    let (items_kept, transactions_kept) = (recoded.num_items(), recoded.num_transactions());
    // dropping the result and both databases
    marks.push(("core.teardown", Instant::now()));
    drop(result);
    drop(recoded);
    drop(db);
    marks.push(("end", Instant::now()));

    let ns = |t: Instant| (t - marks[0].1).as_nanos();
    let (root_start, root_end) = (marks[0].1, marks[marks.len() - 1].1);
    let mut spans = vec![format!(
        "{{\"name\":\"query\",\"parent\":null,\"start_ns\":{},\"end_ns\":{}}}",
        ns(root_start),
        ns(root_end)
    )];
    for pair in marks.windows(2) {
        spans.push(format!(
            "{{\"name\":\"{}\",\"parent\":\"query\",\"start_ns\":{},\"end_ns\":{}}}",
            pair[0].0,
            ns(pair[0].1),
            ns(pair[1].1)
        ));
    }
    let counters: Vec<String> = counters
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    let input_bytes = std::fs::metadata(input).map_err(|e| e.to_string())?.len();
    let output_bytes = std::fs::metadata(output).map_err(|e| e.to_string())?.len();
    Ok(format!(
        "{{\"family\":\"{}\",\"spans\":[{}],\"counters\":{{{}}},\"sets\":{sets},\"items_kept\":{items_kept},\
         \"transactions_kept\":{transactions_kept},\"input_bytes\":{input_bytes},\
         \"output_bytes\":{output_bytes}}}",
        miner.family(),
        spans.join(","),
        counters.join(",")
    ))
}
