//! Sweep orchestration: per-cell subprocesses, timeouts, and cross-checks.

use crate::report::{write_csv, Row};
use closed_fim::algos::Miner;
use fim_core::{
    Budget, ItemOrder, MineOutcome, MineRequest, RecodedDatabase, TransactionOrder, TripReason,
};
use fim_obs::Obs;
use fim_synth::Preset;
use std::collections::HashMap;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Stack size for mining threads: tree depth is bounded by the longest
/// transaction, which can reach tens of thousands of items on the
/// gene-expression-shaped data.
const MINE_STACK_BYTES: usize = 1 << 30;

/// Result of one sweep cell.
#[derive(Clone, Copy, Debug)]
pub struct CellOutcome {
    /// Wall time of recode + mine, in seconds.
    pub seconds: f64,
    /// Number of closed sets found (identical across correct algorithms).
    pub sets: usize,
}

/// How a governed cell run ended.
#[derive(Clone, Copy, Debug)]
pub enum CellRun {
    /// The mine finished within its budget.
    Done(CellOutcome),
    /// A budget tripped; the partial result is discarded (sweep tables
    /// cross-check exact set counts, so partials count as timeouts).
    Tripped(TripReason),
}

/// Parses a preset name.
pub fn preset_by_name(name: &str) -> Result<Preset, String> {
    Preset::ALL
        .iter()
        .copied()
        .find(|p| p.name() == name)
        .ok_or_else(|| format!("unknown preset '{name}'"))
}

fn order_by_names(item: &str, tx: &str) -> Result<(ItemOrder, TransactionOrder), String> {
    let io = match item {
        "asc" => ItemOrder::AscendingFrequency,
        "desc" => ItemOrder::DescendingFrequency,
        "orig" => ItemOrder::Original,
        other => return Err(format!("bad item order '{other}'")),
    };
    let to = match tx {
        "asc" => TransactionOrder::AscendingSize,
        "desc" => TransactionOrder::DescendingSize,
        "orig" => TransactionOrder::Original,
        other => return Err(format!("bad transaction order '{other}'")),
    };
    Ok((io, to))
}

/// Runs one cell in-process on a big-stack thread: generate the data set
/// (untimed), then recode + mine (timed). With a `budget_timeout` the mine
/// runs governed and trips cooperatively instead of relying on the caller
/// to kill the process.
#[allow(clippy::too_many_arguments)]
pub fn run_cell(
    preset: Preset,
    scale: f64,
    seed: u64,
    miner_name: &str,
    supp: u32,
    item_order: ItemOrder,
    tx_order: TransactionOrder,
    budget_timeout: Option<Duration>,
) -> Result<CellRun, String> {
    let miner_name = miner_name.to_owned();
    let handle = std::thread::Builder::new()
        .name(format!("mine-{miner_name}-{supp}"))
        .stack_size(MINE_STACK_BYTES)
        .spawn(move || -> Result<CellRun, String> {
            let db = preset.build(scale, seed);
            let miner = Miner::by_name(&miner_name)?;
            let start = Instant::now();
            let recoded = RecodedDatabase::prepare(&db, supp, item_order, tx_order);
            let budget = budget_timeout
                .map_or_else(Budget::unlimited, |t| Budget::unlimited().with_timeout(t));
            let req = MineRequest {
                minsupp: supp,
                budget: &budget,
                constraints: None,
            };
            let run = match miner.as_dyn().mine_with(&recoded, &req, &mut Obs::new()).0 {
                MineOutcome::Complete { result, .. } => CellRun::Done(CellOutcome {
                    seconds: start.elapsed().as_secs_f64(),
                    sets: result.len(),
                }),
                MineOutcome::Interrupted { reason, .. } => CellRun::Tripped(reason),
            };
            Ok(run)
        })
        .map_err(|e| e.to_string())?;
    handle
        .join()
        .map_err(|_| "mining thread panicked".to_owned())?
}

/// If `argv` is a cell invocation (`cell <preset> <scale> <seed> <miner>
/// <supp> <item-order> <tx-order> [timeout-secs]`), runs it, prints
/// `RESULT <seconds> <sets>` (or `TRIPPED <reason>` when the optional
/// cooperative timeout fired), and returns `true`.
pub fn maybe_run_cell(argv: &[String]) -> bool {
    if argv.first().map(String::as_str) != Some("cell") {
        return false;
    }
    let run = || -> Result<CellRun, String> {
        if !(8..=9).contains(&argv.len()) {
            return Err(format!(
                "cell expects 7 or 8 operands, got {}",
                argv.len() - 1
            ));
        }
        let preset = preset_by_name(&argv[1])?;
        let scale: f64 = argv[2].parse().map_err(|e| format!("scale: {e}"))?;
        let seed: u64 = argv[3].parse().map_err(|e| format!("seed: {e}"))?;
        let supp: u32 = argv[5].parse().map_err(|e| format!("supp: {e}"))?;
        let (io, to) = order_by_names(&argv[6], &argv[7])?;
        let timeout = match argv.get(8) {
            Some(t) => Some(Duration::from_secs_f64(
                t.parse().map_err(|e| format!("timeout: {e}"))?,
            )),
            None => None,
        };
        run_cell(preset, scale, seed, &argv[4], supp, io, to, timeout)
    };
    match run() {
        Ok(CellRun::Done(out)) => println!("RESULT {:.6} {}", out.seconds, out.sets),
        Ok(CellRun::Tripped(reason)) => println!("TRIPPED {reason}"),
        Err(e) => {
            eprintln!("cell error: {e}");
            std::process::exit(2);
        }
    }
    true
}

/// Spawns the current executable as a cell subprocess with a timeout.
/// Returns `Ok(None)` on timeout.
///
/// The timeout is passed into the cell, where the governed miners trip it
/// cooperatively and report `TRIPPED` with a clean exit; the hard
/// kill-after-deadline remains only as a backstop for miners without a
/// governed hot loop (with a grace period so the cooperative path wins).
#[allow(clippy::too_many_arguments)]
pub fn run_cell_subprocess(
    preset: Preset,
    scale: f64,
    seed: u64,
    miner: &str,
    supp: u32,
    item_order: &str,
    tx_order: &str,
    timeout: Duration,
) -> Result<Option<CellOutcome>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe)
        .arg("cell")
        .arg(preset.name())
        .arg(scale.to_string())
        .arg(seed.to_string())
        .arg(miner)
        .arg(supp.to_string())
        .arg(item_order)
        .arg(tx_order)
        .arg(timeout.as_secs_f64().to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| e.to_string())?;
    let deadline = Instant::now() + timeout + Duration::from_secs(5);
    loop {
        match child.try_wait().map_err(|e| e.to_string())? {
            Some(status) => {
                let mut out = String::new();
                use std::io::Read;
                if let Some(mut stdout) = child.stdout.take() {
                    stdout.read_to_string(&mut out).ok();
                }
                if !status.success() {
                    return Err(format!("cell failed with {status}"));
                }
                if out.lines().any(|l| l.starts_with("TRIPPED ")) {
                    return Ok(None);
                }
                let line = out
                    .lines()
                    .find(|l| l.starts_with("RESULT "))
                    .ok_or("cell produced no RESULT line")?;
                let mut parts = line.split_whitespace().skip(1);
                let seconds: f64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("bad RESULT seconds")?;
                let sets: usize = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("bad RESULT sets")?;
                return Ok(Some(CellOutcome { seconds, sets }));
            }
            None => {
                if Instant::now() >= deadline {
                    child.kill().ok();
                    child.wait().ok();
                    return Ok(None);
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Configuration of one figure sweep.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Data set to sweep over.
    pub preset: Preset,
    /// Scale factor applied to the paper shape.
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
    /// Per-cell timeout.
    pub timeout: Duration,
    /// Algorithms, in display order.
    pub miners: Vec<String>,
    /// Minimum supports, descending.
    pub supports: Vec<u32>,
    /// Item / transaction orders (registry names `asc|desc|orig`).
    pub item_order: String,
    /// Transaction order name.
    pub tx_order: String,
    /// Output CSV name (under `target/experiments/`).
    pub csv_name: String,
    /// Optional run-ledger file (`--ledger PATH`): one `fim-ledger/1`
    /// line per cell, so sweeps feed `fim compare` directly.
    pub ledger: Option<String>,
}

impl SweepConfig {
    /// Default sweep for a figure: paper sweep scaled to the transaction
    /// count, default orders, 60 s timeout.
    pub fn for_figure(preset: Preset, scale: f64, miners: &[&str]) -> Self {
        SweepConfig {
            preset,
            scale,
            seed: 1,
            timeout: Duration::from_secs(60),
            miners: miners.iter().map(|s| s.to_string()).collect(),
            supports: scaled_sweep(preset, scale),
            item_order: "asc".into(),
            tx_order: "asc".into(),
            csv_name: format!("{}.csv", preset.name()),
            ledger: None,
        }
    }

    /// Applies `--scale/--seed/--timeout/--miners/--supps` overrides from
    /// the command line.
    pub fn apply_args(&mut self, argv: &[String]) -> Result<(), String> {
        let kv = parse_kv(argv)?;
        if let Some(s) = kv.get("scale") {
            self.scale = s.parse().map_err(|e| format!("--scale: {e}"))?;
            self.supports = scaled_sweep(self.preset, self.scale);
        }
        if let Some(s) = kv.get("seed") {
            self.seed = s.parse().map_err(|e| format!("--seed: {e}"))?;
        }
        if let Some(s) = kv.get("timeout") {
            let secs: f64 = s.parse().map_err(|e| format!("--timeout: {e}"))?;
            self.timeout = Duration::from_secs_f64(secs);
        }
        if let Some(s) = kv.get("miners") {
            self.miners = s.split(',').map(str::to_owned).collect();
        }
        if let Some(s) = kv.get("supps") {
            let parsed: Result<Vec<u32>, _> = s.split(',').map(str::parse).collect();
            self.supports = parsed.map_err(|e| format!("--supps: {e}"))?;
        }
        if let Some(s) = kv.get("ledger") {
            self.ledger = Some(s.clone());
        }
        Ok(())
    }
}

/// The paper's minimum-support sweep, scaled to the shrunken transaction
/// count (supports are absolute counts, so they shrink with the data).
pub fn scaled_sweep(preset: Preset, scale: f64) -> Vec<u32> {
    let mut sweep: Vec<u32> = preset
        .paper_sweep()
        .into_iter()
        .map(|v| ((v as f64 * scale).round() as u32).max(1))
        .collect();
    sweep.dedup();
    sweep
}

/// Tiny `--key value` parser for the experiment binaries.
pub fn parse_kv(argv: &[String]) -> Result<HashMap<String, String>, String> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < argv.len() {
        let key = argv[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --key, got '{}'", argv[i]))?;
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("missing value for --{key}"))?;
        map.insert(key.to_owned(), value.clone());
        i += 2;
    }
    Ok(map)
}

/// Runs a full figure sweep: orchestrates cells, cross-checks set counts,
/// prints a table, writes the CSV. Call from a figure binary's `main` after
/// `maybe_run_cell`.
pub fn figure_main(mut config: SweepConfig, argv: &[String]) -> Result<(), String> {
    config.apply_args(argv)?;
    let preset = config.preset;
    println!(
        "# {} — {} (scale {}, seed {}, timeout {:?})",
        preset.figure(),
        preset.name(),
        config.scale,
        config.seed,
        config.timeout
    );
    let transactions = {
        let db = preset.build(config.scale, config.seed);
        println!(
            "# data: {} transactions, {} items, {} occurrences",
            db.num_transactions(),
            db.num_items(),
            db.total_occurrences()
        );
        db.num_transactions() as u64
    };
    // the sweep's ledger identity: synthetic cells have no input file, so
    // the generator parameters are the input fingerprint
    let input_fnv =
        fim_obs::fnv1a(format!("{}:{}:{}", preset.name(), config.scale, config.seed).as_bytes());
    let ledger_cell = |miner: &str, supp: u32, seconds: f64, sets: u64, exit: &str| {
        let Some(path) = config.ledger.as_deref() else {
            return Ok(());
        };
        let entry = fim_obs::LedgerEntry {
            input_fnv,
            algo: miner.to_owned(),
            supp: u64::from(supp),
            config: format!(
                "item-order={} preset={} scale={} seed={} tx-order={}",
                config.item_order,
                preset.name(),
                config.scale,
                config.seed,
                config.tx_order
            ),
            seconds,
            sets,
            transactions,
            peak_rss_kb: 0,
            exit: exit.to_owned(),
            phases: Vec::new(),
            counters: Vec::new(),
        };
        entry
            .append(std::path::Path::new(path))
            .map_err(|e| format!("cannot append --ledger {path}: {e}"))
    };
    let mut rows: Vec<Row> = Vec::new();
    let mut dead: Vec<String> = Vec::new();

    print!("{:>8}", "supp");
    for m in &config.miners {
        print!(" {m:>22}");
    }
    println!(" {:>10}", "sets");

    for &supp in &config.supports {
        let mut sets_seen: Option<usize> = None;
        print!("{supp:>8}");
        for miner in &config.miners {
            if dead.contains(miner) {
                print!(" {:>22}", "-");
                rows.push(Row::skipped(preset.name(), supp, miner));
                continue;
            }
            let outcome = run_cell_subprocess(
                preset,
                config.scale,
                config.seed,
                miner,
                supp,
                &config.item_order,
                &config.tx_order,
                config.timeout,
            );
            match outcome {
                Ok(Some(out)) => {
                    print!(" {:>21.3}s", out.seconds);
                    match sets_seen {
                        None => sets_seen = Some(out.sets),
                        Some(prev) => {
                            if prev != out.sets {
                                return Err(format!(
                                    "CROSS-CHECK FAILED at supp {supp}: {miner} found {} sets, others {prev}",
                                    out.sets
                                ));
                            }
                        }
                    }
                    rows.push(Row::ok(preset.name(), supp, miner, out));
                    ledger_cell(miner, supp, out.seconds, out.sets as u64, "ok")?;
                }
                Ok(None) => {
                    print!(" {:>22}", "timeout");
                    dead.push(miner.clone());
                    rows.push(Row::timeout(preset.name(), supp, miner));
                    ledger_cell(miner, supp, config.timeout.as_secs_f64(), 0, "timeout")?;
                }
                Err(e) => {
                    print!(" {:>22}", "error");
                    eprintln!("\n{miner} at supp {supp}: {e}");
                    dead.push(miner.clone());
                    rows.push(Row::error(preset.name(), supp, miner));
                    ledger_cell(miner, supp, 0.0, 0, "error")?;
                }
            }
            use std::io::Write;
            std::io::stdout().flush().ok();
        }
        println!(" {:>10}", sets_seen.map_or("-".into(), |s| s.to_string()));
    }
    let path = write_csv(&config.csv_name, &rows).map_err(|e| e.to_string())?;
    println!("# wrote {}", path.display());
    let gp = crate::report::write_gnuplot(&config.csv_name, &rows).map_err(|e| e.to_string())?;
    println!("# wrote {}", gp.display());
    Ok(())
}
