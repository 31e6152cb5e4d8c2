//! `fim` — command-line closed frequent item set miner.
//!
//! ```text
//! fim mine  --algo ista --supp 8 --in data.fimi [--out result.txt]
//! fim gen   --preset yeast --scale 0.1 --seed 1 --out data.fimi
//! fim rules --supp 4 --conf 0.8 --in data.fimi
//! fim stats --in data.fimi
//! fim algos
//! ```
//!
//! See `fim help` for the full option list, including the resource budgets
//! (`--timeout`, `--max-nodes`, `--max-sets`, `--degrade`) and stream
//! checkpointing (`--checkpoint`, `--resume`). Failures map to documented
//! exit codes (see [`errors`]). The argument parser is hand-rolled to keep
//! the dependency set minimal.

use fim_core::{
    apply_constraints_owned, mine_closed_with_orders, Budget, ClosedMiner, ConstraintSet, Density,
    ItemCatalog, ItemOrder, MineOutcome, MiningResult, Representation, TransactionDatabase,
    TransactionOrder, TripReason,
};
use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

mod args;
mod errors;
mod observe;
mod registry;

use args::Args;
use errors::{usage, CliError};
use fim_obs::{
    ConstraintMetrics, Counter, Counters, MetricsReport, PassMetrics, ProgressSnapshot,
    ShardMetrics, SpillMetrics,
};
use observe::ObsArgs;
use registry::{all_miner_names, miner_by_name};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fim: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

fn run(argv: &[String]) -> Result<(), CliError> {
    let Some((command, rest)) = argv.split_first() else {
        print_help();
        return Ok(());
    };
    let args = Args::parse(rest)?;
    // the deterministic fault layer (crash-consistency testing): armed
    // from the flag and/or the env var, a single relaxed atomic load when
    // disarmed
    fim_core::fault::arm_from_env().map_err(usage)?;
    if let Some(specs) = args.get("inject-fault") {
        for part in specs.split(',').filter(|p| !p.trim().is_empty()) {
            fim_core::fault::arm_str(part.trim()).map_err(usage)?;
        }
    }
    match command.as_str() {
        "mine" => cmd_mine(&args),
        "gen" => cmd_gen(&args),
        "rules" => cmd_rules(&args),
        "stats" => cmd_stats(&args),
        "compare" => cmd_compare(&args),
        "trace-export" => cmd_trace_export(&args),
        "algos" => {
            for name in all_miner_names() {
                println!("{name}");
            }
            Ok(())
        }
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(usage(format!("unknown command '{other}'"))),
    }
}

fn load_db(args: &Args) -> Result<TransactionDatabase, CliError> {
    match args.get("in") {
        Some("-") | None => fim_io::read_fimi(std::io::stdin().lock()),
        Some(path) => fim_io::read_fimi_path(path),
    }
    .map_err(CliError::from)
}

fn item_order(args: &Args) -> Result<ItemOrder, CliError> {
    match args.get("item-order").unwrap_or("asc") {
        "asc" => Ok(ItemOrder::AscendingFrequency),
        "desc" => Ok(ItemOrder::DescendingFrequency),
        "orig" => Ok(ItemOrder::Original),
        other => Err(usage(format!("bad --item-order '{other}' (asc|desc|orig)"))),
    }
}

fn tx_order(args: &Args) -> Result<TransactionOrder, CliError> {
    match args.get("tx-order").unwrap_or("asc") {
        "asc" => Ok(TransactionOrder::AscendingSize),
        "desc" => Ok(TransactionOrder::DescendingSize),
        "orig" => Ok(TransactionOrder::Original),
        other => Err(usage(format!("bad --tx-order '{other}' (asc|desc|orig)"))),
    }
}

/// Builds the mining [`Budget`] from `--timeout` / `--max-nodes` /
/// `--max-sets` / `--degrade`. Unlimited when none are given.
fn budget_from(args: &Args) -> Result<Budget, CliError> {
    let mut budget = Budget::unlimited();
    if let Some(t) = args.get("timeout") {
        let secs: f64 = t
            .parse()
            .map_err(|e| usage(format!("bad --timeout: {e}")))?;
        if !secs.is_finite() || secs < 0.0 {
            return Err(usage("--timeout must be a non-negative number of seconds"));
        }
        budget = budget.with_timeout(Duration::from_secs_f64(secs));
    }
    if let Some(n) = args.get("max-nodes") {
        let nodes: usize = n
            .parse()
            .map_err(|e| usage(format!("bad --max-nodes: {e}")))?;
        budget = budget.with_max_nodes(nodes);
    }
    if let Some(n) = args.get("max-sets") {
        let sets: usize = n
            .parse()
            .map_err(|e| usage(format!("bad --max-sets: {e}")))?;
        budget = budget.with_max_closed_sets(sets);
    }
    if args.flag("degrade") {
        if budget.max_nodes.is_none() {
            return Err(usage("--degrade needs --max-nodes (it raises the support threshold until the tree fits the node budget)"));
        }
        budget = budget.with_degradation();
    }
    Ok(budget)
}

/// Splits a `-bitset`/`-gallop` registry suffix off an algorithm name, so
/// `--algo eclat-bitset` reaches the same code path as
/// `--algo eclat --rep bitset` (including `--stats`/`--metrics`).
fn split_rep_suffix(algo: &str) -> (&str, Option<Representation>) {
    match algo {
        "ista-bitset" => ("ista", Some(Representation::Bitset)),
        "eclat-bitset" => ("eclat", Some(Representation::Bitset)),
        "eclat-gallop" => ("eclat", Some(Representation::Gallop)),
        "declat-bitset" => ("declat", Some(Representation::Bitset)),
        "declat-gallop" => ("declat", Some(Representation::Gallop)),
        "carpenter-lists-bitset" => ("carpenter-lists", Some(Representation::Bitset)),
        "carpenter-lists-gallop" => ("carpenter-lists", Some(Representation::Gallop)),
        other => (other, None),
    }
}

fn cmd_mine(args: &Args) -> Result<(), CliError> {
    let raw_algo = args.get("algo").unwrap_or("ista");
    let (algo, name_rep) = split_rep_suffix(raw_algo);
    if args.flag("out-of-core") {
        // the raw name, so 'ista-bitset --out-of-core' is rejected
        return cmd_mine_oocore(args, raw_algo);
    }
    for f in ["mem-budget", "spill-dir", "resume-spill", "io-retries"] {
        if args.get(f).is_some() {
            return Err(usage(format!("--{f} needs --out-of-core")));
        }
    }
    if args.get("checkpoint").is_some() || args.get("resume").is_some() {
        // the raw name, so 'ista-bitset --checkpoint' is rejected rather
        // than silently streamed through the scalar kernel
        return cmd_mine_stream(args, raw_algo);
    }
    let is_ista = matches!(algo, "ista" | "ista-par" | "ista-noprune" | "ista-plain");
    for f in ["no-coalesce", "no-compact", "no-patricia"] {
        if args.flag(f) && !is_ista {
            return Err(usage(format!("--{f} is only available for ista variants")));
        }
    }
    // `--threads N` selects the data-parallel miner with N shards
    // (0 = one per available core); only meaningful for ista variants
    let threads: Option<usize> = match args.get("threads") {
        None => None,
        Some(t) => Some(
            t.parse()
                .map_err(|e| usage(format!("bad --threads: {e}")))?,
        ),
    };
    if threads.is_some() && !is_ista {
        return Err(usage(format!("--threads is not available for '{algo}'")));
    }
    let budget = budget_from(args)?;
    if budget.degrade && (!is_ista || threads.is_some() || algo == "ista-par") {
        return Err(usage(
            "--degrade is only available for the sequential ista miner",
        ));
    }
    let plain = algo == "ista-plain" || args.flag("no-patricia");
    if plain && (threads.is_some() || algo == "ista-par") {
        return Err(usage(
            "the uncompressed tree (--no-patricia / ista-plain) is sequential only",
        ));
    }
    // `--rep auto` needs the database shape, so the load happens before
    // miner construction (every flag-validation error above still fires
    // without touching the input)
    let db = load_db(args)?;
    let supp = resolve_supp(args, &db)?;
    let rep = resolve_rep(args, name_rep, &db, algo, threads)?;
    let ista_config = fim_ista::IstaConfig {
        policy: if algo == "ista-noprune" || args.flag("no-prune") {
            fim_ista::PrunePolicy::Never
        } else {
            fim_ista::IstaConfig::default().policy
        },
        coalesce: !args.flag("no-coalesce"),
        compact: !args.flag("no-compact"),
        patricia: !plain,
        rep: rep.unwrap_or_default(),
    };
    let miner: Box<dyn ClosedMiner> = if is_ista {
        match (threads, algo) {
            (Some(t), _) => parallel_ista(t, ista_config),
            (None, "ista-par") => parallel_ista(0, ista_config),
            (None, _) => Box::new(fim_ista::IstaMiner::with_config(ista_config)),
        }
    } else if let Some(r) = rep {
        if args.flag("no-prune") {
            return Err(usage(format!("--no-prune is not available for '{algo}'")));
        }
        // resolve_rep only lets a kernel selection through for the
        // kernelized enumeration miners
        match algo {
            "eclat" => Box::new(fim_baseline::EclatMiner::with_rep(r)),
            "declat" => Box::new(fim_baseline::DEclatMiner::with_rep(r)),
            "carpenter-lists" => Box::new(fim_carpenter::CarpenterListMiner::with_rep(r)),
            other => return Err(usage(format!("--rep is not available for '{other}'"))),
        }
    } else {
        // `--no-prune` maps the pruned algorithms to their ablation variants
        let resolved = match (algo, args.flag("no-prune")) {
            ("carpenter-table", true) => "carpenter-table-noprune",
            (other, true) => {
                return Err(usage(format!("--no-prune is not available for '{other}'")));
            }
            (other, false) => other,
        };
        miner_by_name(resolved)?
    };
    let obs_args = ObsArgs::from_args(args)?;
    let constraints = constraints_from(args, &db)?;
    if let Some(cs) = &constraints {
        if args.flag("maximal") {
            return Err(usage(
                "--maximal cannot be combined with constraint flags (maximal sets are \
                 derived from the unconstrained closed family)",
            ));
        }
        let push = !args.flag("no-push");
        if obs_args.any() {
            if !budget.is_unlimited() {
                return Err(usage(
                    "--stats/--metrics/--progress/--profile cannot be combined with budget flags",
                ));
            }
            if threads.is_some() || algo == "ista-par" {
                return Err(usage(
                    "constraint flags with --stats/--metrics run the sequential miners only",
                ));
            }
            return mine_constrained_observed(
                args,
                &db,
                supp,
                algo,
                ista_config,
                rep,
                &obs_args,
                cs,
                push,
            );
        }
        if !budget.is_unlimited() {
            return mine_governed(args, &db, supp, miner.as_ref(), &budget, Some((cs, push)));
        }
        let start = std::time::Instant::now();
        let result = fim_core::mine_closed_constrained(
            &db,
            supp,
            miner.as_ref(),
            cs,
            item_order(args)?,
            tx_order(args)?,
            push,
        );
        let elapsed = start.elapsed();
        write_out(args, |w| {
            fim_io::write_results(&result, &db, w).map_err(CliError::from)
        })?;
        eprintln!(
            "{}: {} closed sets at supp >= {supp} under [{cs}] in {:.3}s",
            miner.name(),
            result.len(),
            elapsed.as_secs_f64()
        );
        return Ok(());
    }
    if obs_args.any() {
        if !budget.is_unlimited() {
            return Err(usage(
                "--stats/--metrics/--progress/--profile cannot be combined with budget flags",
            ));
        }
        return mine_observed(args, &db, supp, algo, threads, ista_config, rep, &obs_args);
    }
    if !budget.is_unlimited() {
        return mine_governed(args, &db, supp, miner.as_ref(), &budget, None);
    }
    let start = std::time::Instant::now();
    let mut result = mine_closed_with_orders(
        &db,
        supp,
        miner.as_ref(),
        item_order(args)?,
        tx_order(args)?,
    );
    let kind = if args.flag("maximal") {
        result = fim_core::maximal_from_closed(&result);
        "maximal"
    } else {
        "closed"
    };
    let elapsed = start.elapsed();
    write_out(args, |w| {
        fim_io::write_results(&result, &db, w).map_err(CliError::from)
    })?;
    eprintln!(
        "{}: {} {kind} sets at supp >= {supp} in {:.3}s",
        miner.name(),
        result.len(),
        elapsed.as_secs_f64()
    );
    Ok(())
}

/// Resolves `--rep auto|scalar|bitset|gallop` (and the `-bitset`/`-gallop`
/// algorithm-name suffixes, which are the same selection spelled as a
/// registry name) to a tid-set kernel.
///
/// `auto` applies [`Representation::select`] to the density of the raw
/// database — the same rule the library's `AutoMiner` applies after
/// recoding; the pre-recode estimate is used here so the choice is made
/// once, before any miner runs. `None` means no selection was made and the
/// algorithm's default (scalar) kernel runs.
///
/// The kernelized algorithms are the sequential ista variants, eclat,
/// declat, and carpenter-lists; everything else rejects an explicit
/// selection. Note that ista has no galloping kernel (its epoch probe is
/// already O(1)) and the plain layout has no bitset kernel: those
/// combinations run the scalar path, as documented on
/// [`fim_ista::IstaConfig`].
fn resolve_rep(
    args: &Args,
    name_rep: Option<Representation>,
    db: &TransactionDatabase,
    algo: &str,
    threads: Option<usize>,
) -> Result<Option<Representation>, CliError> {
    let flag = match args.get("rep") {
        None => None,
        Some("auto") => {
            let rows = db.num_transactions();
            let cols = db.num_items();
            let ones = db.total_occurrences() as u64;
            let cells = rows as u64 * cols as u64;
            let density = Density {
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
            };
            Some(Representation::select(&density))
        }
        Some(s) => Some(
            s.parse::<Representation>()
                .map_err(|e| usage(format!("bad --rep: {e} (or auto)")))?,
        ),
    };
    if let (Some(f), Some(n)) = (flag, name_rep) {
        if f != n {
            return Err(usage(format!(
                "--rep {f} conflicts with the '-{n}' algorithm-name suffix"
            )));
        }
    }
    let rep = flag.or(name_rep);
    if rep.is_some() {
        let kernelized = matches!(
            algo,
            "ista" | "ista-noprune" | "ista-plain" | "eclat" | "declat" | "carpenter-lists"
        );
        if threads.is_some() || algo == "ista-par" {
            return Err(usage(
                "--rep is not available for the parallel miner (the shards run the scalar kernel)",
            ));
        }
        if !kernelized {
            return Err(usage(format!(
                "--rep is not available for '{algo}' (kernelized: ista, eclat, declat, carpenter-lists)"
            )));
        }
    }
    Ok(rep)
}

/// The constraint flags of `fim mine`. Kept in one place so the batch,
/// governed, and observed paths (and the forbidden-flag lists of the
/// streaming paths) agree on the spelling.
const CONSTRAINT_FLAGS: [&str; 6] = [
    "include", "exclude", "min-size", "max-size", "min-area", "no-push",
];

/// Builds the [`ConstraintSet`] from `--include`/`--exclude` (comma-
/// separated item names, resolved against the database catalog) and
/// `--min-size`/`--max-size`/`--min-area`. Returns `None` when no
/// constraint flag is present. Unknown item names and contradictory
/// combinations (e.g. `--min-size 5 --max-size 3`, or an item both
/// included and excluded) are usage errors — exit code 2.
fn constraints_from(
    args: &Args,
    db: &TransactionDatabase,
) -> Result<Option<ConstraintSet>, CliError> {
    let any = ["include", "exclude", "min-size", "max-size", "min-area"]
        .iter()
        .any(|f| args.get(f).is_some());
    if !any {
        if args.flag("no-push") {
            return Err(usage("--no-push needs at least one constraint flag"));
        }
        return Ok(None);
    }
    let resolve = |key: &str| -> Result<fim_core::ItemSet, CliError> {
        let mut items = Vec::new();
        if let Some(spec) = args.get(key) {
            for name in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                let code = db
                    .catalog()
                    .code(name)
                    .ok_or_else(|| usage(format!("--{key}: unknown item '{name}'")))?;
                items.push(code);
            }
        }
        Ok(fim_core::ItemSet::new(items))
    };
    let mut cs = ConstraintSet::none();
    cs.include = resolve("include")?;
    cs.exclude = resolve("exclude")?;
    cs.min_size = args.parse_or("min-size", 0)?;
    cs.max_size = match args.get("max-size") {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|e| usage(format!("bad --max-size: {e}")))?,
        ),
    };
    cs.min_area = args.parse_or("min-area", 0)?;
    cs.validate().map_err(usage)?;
    Ok(Some(cs))
}

/// Resolves absolute `--supp N` or relative `--supp-rel F` (fraction of
/// transactions) against the loaded database.
fn resolve_supp(args: &Args, db: &TransactionDatabase) -> Result<u32, CliError> {
    resolve_supp_n(args, db.num_transactions() as u64)
}

/// [`resolve_supp`] against a bare transaction count — for the out-of-core
/// path, where the count comes from the streaming pass 1 and no database
/// is ever materialized.
fn resolve_supp_n(args: &Args, transactions: u64) -> Result<u32, CliError> {
    match (args.get("supp"), args.get("supp-rel")) {
        (Some(_), Some(_)) => Err(usage("--supp and --supp-rel are exclusive")),
        (Some(s), None) => s.parse().map_err(|e| usage(format!("bad --supp: {e}"))),
        (None, Some(f)) => {
            let frac: f64 = f
                .parse()
                .map_err(|e| usage(format!("bad --supp-rel: {e}")))?;
            if !(0.0..=1.0).contains(&frac) {
                return Err(usage("--supp-rel must be in [0, 1]"));
            }
            Ok(((frac * transactions as f64).ceil() as u32).max(1))
        }
        (None, None) => Err(usage("missing --supp (or --supp-rel)")),
    }
}

/// The governed batch path: mines under the budget, writes whatever result
/// (complete, degraded, or the exact partial of the processed prefix) and
/// exits 4 when a budget tripped.
fn mine_governed(
    args: &Args,
    db: &TransactionDatabase,
    supp: u32,
    miner: &dyn ClosedMiner,
    budget: &Budget,
    constraints: Option<(&ConstraintSet, bool)>,
) -> Result<(), CliError> {
    let start = std::time::Instant::now();
    let outcome = match constraints {
        None => fim_core::mine_closed_governed(
            db,
            supp,
            miner,
            budget,
            item_order(args)?,
            tx_order(args)?,
        ),
        Some((cs, push)) => fim_core::mine_closed_constrained_governed(
            db,
            supp,
            miner,
            cs,
            budget,
            item_order(args)?,
            tx_order(args)?,
            push,
        ),
    };
    let elapsed = start.elapsed();
    let maximal = args.flag("maximal");
    let kind = if maximal { "maximal" } else { "closed" };
    match outcome {
        MineOutcome::Complete {
            mut result,
            degradation,
        } => {
            if maximal {
                result = fim_core::maximal_from_closed(&result);
            }
            write_out(args, |w| {
                fim_io::write_results(&result, db, w).map_err(CliError::from)
            })?;
            if let Some(d) = degradation {
                eprintln!(
                    "fim: degraded to fit the node budget: effective supp {} (requested {}, {} steps)",
                    d.effective_minsupp, d.requested_minsupp, d.steps
                );
            }
            eprintln!(
                "{}: {} {kind} sets at supp >= {supp} in {:.3}s",
                miner.name(),
                result.len(),
                elapsed.as_secs_f64()
            );
            Ok(())
        }
        MineOutcome::Interrupted {
            mut partial,
            reason,
            progress,
        } => {
            if maximal {
                partial = fim_core::maximal_from_closed(&partial);
            }
            write_out(args, |w| {
                fim_io::write_results(&partial, db, w).map_err(CliError::from)
            })?;
            Err(CliError::Budget(format!(
                "{} interrupted ({reason}) at progress {progress}; wrote {} {kind} sets with exact supports",
                miner.name(),
                partial.len()
            )))
        }
    }
}

/// The streaming path behind `--checkpoint` / `--resume`: feeds the input
/// through an [`fim_ista::IstaStream`] one transaction at a time, so a
/// budget trip leaves a resumable checkpoint and an exact prefix answer.
fn cmd_mine_stream(args: &Args, algo: &str) -> Result<(), CliError> {
    if algo != "ista" {
        return Err(usage(format!(
            "--checkpoint/--resume stream through the cumulative ista miner, not '{algo}'"
        )));
    }
    for f in [
        "threads",
        "stats",
        "profile",
        "no-prune",
        "no-coalesce",
        "no-compact",
        "no-patricia",
        "rep",
        "degrade",
        "item-order",
        "tx-order",
        "supp-rel",
    ]
    .into_iter()
    .chain(CONSTRAINT_FLAGS)
    {
        if args.get(f).is_some() {
            return Err(usage(format!(
                "--{f} is not available with --checkpoint/--resume"
            )));
        }
    }
    let supp: u32 = args.require_parsed("supp")?;
    let budget = budget_from(args)?;
    let obs_args = ObsArgs::from_args(args)?;
    let mut obs = obs_args.build()?;
    let (mut stream, mut catalog) = match args.get("resume") {
        Some(path) => {
            let file = std::fs::File::open(path)
                .map_err(|e| CliError::Other(format!("cannot open --resume {path}: {e}")))?;
            let mut reader = std::io::BufReader::new(file);
            // re-wrap corruption so the message names the offending file
            // (the reader only knows the byte offset)
            let (s, c) = fim_io::read_stream_checkpoint(&mut reader).map_err(|e| match e {
                fim_core::FimError::Corrupt(msg) => {
                    CliError::from(fim_core::FimError::Corrupt(format!("{path}: {msg}")))
                }
                other => CliError::from(other),
            })?;
            eprintln!(
                "fim: resumed from {path} at {} transactions",
                s.transactions_processed()
            );
            (s, c)
        }
        None => (fim_ista::IstaStream::new(0), ItemCatalog::new()),
    };
    let skip = stream.transactions_processed();
    let db = load_db(args)?;
    // the stream counts only non-empty transactions; skip on the same basis
    // so resuming against the same input continues exactly where it stopped
    let total = db.transactions().iter().filter(|t| !t.is_empty()).count() as u64;
    let start = std::time::Instant::now();
    let mut gov = budget.start();
    gov.add_processed(u64::from(skip));
    let mut tripped: Option<TripReason> = None;
    let mut seen = 0u32;
    obs.span_enter("stream");
    for t in db.transactions() {
        if t.is_empty() {
            continue;
        }
        seen += 1;
        if seen <= skip {
            continue;
        }
        if let Some(reason) = gov.check(stream.node_count(), stream.memory_stats().approx_bytes, 0)
        {
            tripped = Some(reason);
            obs.instant("budget_trip", &[("processed", u64::from(seen - 1))]);
            break;
        }
        let coded: Result<Vec<u32>, CliError> = t
            .iter()
            .map(|item| {
                db.catalog()
                    .name(item)
                    .map(|name| catalog.intern(name))
                    .ok_or_else(|| CliError::Other(format!("item code {item} has no name")))
            })
            .collect();
        let coded = coded?;
        stream.grow_universe(catalog.len() as u32);
        stream.push(&coded);
        gov.add_processed(1);
        obs.tick(&ProgressSnapshot {
            processed: u64::from(stream.transactions_processed()),
            // on a resumed run the stream total is not knowable from this
            // input alone, so the heartbeat reports no ETA
            total: (skip == 0).then_some(total),
            pending: 0,
            peak_nodes: stream.node_count() as u64,
            sets: 0,
        });
    }
    obs.span_exit();
    let processed = stream.transactions_processed();
    if let Some(path) = args.get("checkpoint") {
        write_checkpoint_atomically(&mut stream, &catalog, path)?;
        obs.instant("checkpoint", &[("transactions", u64::from(processed))]);
    }
    obs.span_enter("report");
    let mut result = stream.closed_sets(supp);
    let kind = if args.flag("maximal") {
        result = fim_core::maximal_from_closed(&result);
        "maximal"
    } else {
        "closed"
    };
    write_out(args, |w| {
        fim_io::write_results_named(&result, &catalog, w).map_err(CliError::from)
    })?;
    obs.span_exit();
    obs.finish(&ProgressSnapshot {
        processed: u64::from(processed),
        total: (skip == 0 && tripped.is_none()).then_some(total),
        pending: 0,
        peak_nodes: stream.node_count() as u64,
        sets: result.len() as u64,
    });
    {
        let mem = stream.memory_stats();
        let mut report = MetricsReport::new(
            "ista-stream",
            supp,
            start.elapsed().as_secs_f64(),
            result.len() as u64,
            u64::from(processed),
        );
        // the stream never prunes, so the arena high-water is the peak
        report.tree = Some(mem.to_metrics(mem.total_slots));
        report.counters = *stream.counters();
        obs_args.finalize(&mut obs, &mut report);
        obs_args.emit_metrics(&report)?;
        let exit = tripped.map_or_else(|| "ok".to_string(), |r| r.to_string());
        obs_args.emit_ledger(args, &report, &obs, &exit)?;
    }
    match tripped {
        None => {
            eprintln!(
                "ista-stream: {} {kind} sets at supp >= {supp} over {processed} transactions in {:.3}s",
                result.len(),
                start.elapsed().as_secs_f64()
            );
            Ok(())
        }
        Some(reason) => {
            let resume_hint = match args.get("checkpoint") {
                Some(path) => format!("; checkpoint written, resume with --resume {path}"),
                None => String::new(),
            };
            Err(CliError::Budget(format!(
                "stream interrupted ({reason}) at progress {processed}/{total}; wrote the exact {kind} sets of the processed prefix{resume_hint}"
            )))
        }
    }
}

/// Writes the stream checkpoint to `path` via a sibling temporary file,
/// an fsync, and an atomic rename (plus a parent-directory fsync), so a
/// crash — or power loss — mid-write never clobbers the previous good
/// checkpoint with a torn or unsynced one. Threads the `checkpoint.write`
/// fault point between flush and fsync, where a torn write would land.
fn write_checkpoint_atomically(
    stream: &mut fim_ista::IstaStream,
    catalog: &ItemCatalog,
    path: &str,
) -> Result<(), CliError> {
    use fim_core::fault::{self, points};
    let tmp = format!("{path}.tmp");
    let io_err = |what: &str, e: std::io::Error| CliError::Other(format!("{what} {tmp}: {e}"));
    let file = std::fs::File::create(&tmp).map_err(|e| io_err("cannot create", e))?;
    let mut w = std::io::BufWriter::new(file);
    fim_io::write_stream_checkpoint(stream, catalog, &mut w)?;
    w.flush().map_err(|e| io_err("cannot flush", e))?;
    let file = w
        .into_inner()
        .map_err(|e| CliError::Other(format!("cannot flush {tmp}: {e}")))?;
    fault::hit_write(points::CHECKPOINT_WRITE, || {
        let half = file.metadata().map(|m| m.len() / 2).unwrap_or(0);
        let _ = file.set_len(half);
    })?;
    file.sync_all().map_err(|e| io_err("cannot sync", e))?;
    drop(file);
    std::fs::rename(&tmp, path)
        .map_err(|e| CliError::Other(format!("cannot rename {tmp} to {path}: {e}")))?;
    fim_ista::sync_parent_dir(std::path::Path::new(path)).map_err(CliError::from)
}

/// The out-of-core batch path behind `--out-of-core`: two streaming passes
/// over the input file (item counts, then an on-the-fly recode into
/// contiguous shards sized to the `--mem-budget` byte target), each shard
/// mined and spilled to `--spill-dir` as a validated snapshot, the spills
/// merge-reduced pairwise from disk. The output is identical to an
/// in-memory run over the same file; spill files are written atomically
/// and removed on every exit path, budget trips included — except a
/// disk-full trip, which keeps the CRC-protected `MANIFEST` journal and
/// its verified spills so `--resume-spill` can continue the run without
/// re-mining completed shards. `--io-retries N` retries transient I/O
/// failures around each spill write before giving up.
fn cmd_mine_oocore(args: &Args, algo: &str) -> Result<(), CliError> {
    if algo != "ista" {
        return Err(usage(format!(
            "--out-of-core streams through the shard-spill ista pipeline, not '{algo}'"
        )));
    }
    for f in [
        "threads",
        "checkpoint",
        "resume",
        "rep",
        "no-patricia",
        "tx-order",
        "degrade",
    ]
    .into_iter()
    .chain(CONSTRAINT_FLAGS)
    {
        if args.get(f).is_some() {
            return Err(usage(format!("--{f} is not available with --out-of-core")));
        }
    }
    let input = match args.get("in") {
        Some("-") | None => {
            return Err(usage(
                "--out-of-core needs a real --in file (the pipeline reads it twice)",
            ))
        }
        Some(p) => p,
    };
    let mem_budget: u64 = args.require_parsed("mem-budget")?;
    let spill_dir = args.require("spill-dir")?;
    let io_retries: u32 = args.parse_or("io-retries", 0)?;
    let resume = args.flag("resume-spill");
    let budget = budget_from(args)?;
    let obs_args = ObsArgs::from_args(args)?;
    if obs_args.any() && !budget.is_unlimited() {
        return Err(usage(
            "--stats/--metrics cannot be combined with budget flags",
        ));
    }
    let limits = fim_io::FimiLimits::default();
    let counts = fim_io::count_fimi_path(input, &limits)?;
    let supp = resolve_supp_n(args, counts.transactions)?;
    let mut config = fim_ista::OutOfCoreConfig::new(mem_budget, spill_dir);
    if args.flag("no-prune") {
        config.policy = fim_ista::PrunePolicy::Never;
    }
    config.coalesce = !args.flag("no-coalesce");
    config.compact = !args.flag("no-compact");
    config.retry = fim_core::fault::RetryPolicy::with_retries(io_retries);
    let mut obs = obs_args.build_with_spill(Some(std::path::Path::new(spill_dir)))?;
    let start = std::time::Instant::now();
    let run = fim_io::mine_fimi_with_counts_opts(
        input,
        &limits,
        counts,
        supp,
        item_order(args)?,
        config,
        &budget,
        resume,
        &mut obs,
    )?;
    let elapsed = start.elapsed();
    let maximal = args.flag("maximal");
    let kind = if maximal { "maximal" } else { "closed" };
    let stats = run.stats;
    let shard_note = format!(
        "{} shards ({} spilled, {} merge passes)",
        stats.shards, stats.spilled, stats.merge_passes
    );
    let transactions = run.transactions;
    // both arms share the report shape; only sets/exit status differ
    let emit_observability =
        |result: &MiningResult, obs: &mut fim_obs::Obs, exit: &str| -> Result<(), CliError> {
            obs.finish(&ProgressSnapshot {
                processed: transactions,
                total: Some(transactions),
                pending: 0,
                peak_nodes: stats.memory.total_slots as u64,
                sets: result.len() as u64,
            });
            let mut report = MetricsReport::new(
                "ista-oocore",
                supp,
                elapsed.as_secs_f64(),
                result.len() as u64,
                transactions,
            );
            // no cross-shard peak is tracked; the reduced tree's arena
            // high-water (total slots) is the closest honest figure
            report.tree = Some(stats.memory.to_metrics(stats.memory.total_slots));
            report.shards = Some(ShardMetrics {
                shards: stats.shards,
                recovered: 0,
            });
            report.spill = Some(SpillMetrics::from_counters(&stats.counters));
            report.counters = stats.counters;
            obs_args.finalize(obs, &mut report);
            obs_args.emit_metrics(&report)?;
            obs_args.emit_profile(obs)?;
            obs_args.emit_ledger(args, &report, obs, exit)?;
            if args.flag("stats") {
                eprintln!(
                    "ista-oocore: {} spills, {} faults injected, {} retries",
                    stats.counters.get(Counter::ShardsSpilled),
                    stats.counters.get(Counter::FaultsInjected),
                    stats.counters.get(Counter::RetriesAttempted)
                );
            }
            Ok(())
        };
    match run.outcome {
        MineOutcome::Complete { mut result, .. } => {
            if maximal {
                result = fim_core::maximal_from_closed(&result);
            }
            write_out(args, |w| {
                fim_io::write_results_named(&result, &run.catalog, w).map_err(CliError::from)
            })?;
            emit_observability(&result, &mut obs, "ok")?;
            eprintln!(
                "ista-oocore: {} {kind} sets at supp >= {supp} over {shard_note} in {:.3}s",
                result.len(),
                elapsed.as_secs_f64()
            );
            Ok(())
        }
        MineOutcome::Interrupted {
            mut partial,
            reason,
            progress,
        } => {
            if maximal {
                partial = fim_core::maximal_from_closed(&partial);
            }
            write_out(args, |w| {
                fim_io::write_results_named(&partial, &run.catalog, w).map_err(CliError::from)
            })?;
            emit_observability(&partial, &mut obs, &reason.to_string())?;
            // a disk-full trip is the one interruption that keeps its spill
            // state: the manifest and verified spills stay behind so a
            // `--resume-spill` run can pick up without re-mining them
            let disposition = if reason == TripReason::DiskFull {
                format!(
                    "a resumable manifest was left in {spill_dir}; free space and re-run \
                     with --resume-spill to continue without re-mining completed shards"
                )
            } else {
                "spill files were cleaned up".to_owned()
            };
            Err(CliError::Budget(format!(
                "ista-oocore interrupted ({reason}) at progress {progress} over {shard_note}; \
                 wrote {} {kind} sets with exact supports; {disposition}",
                partial.len()
            )))
        }
    }
}

/// Builds a data-parallel ista miner carrying the sequential hot-path
/// toggles over to its shards.
fn parallel_ista(threads: usize, cfg: fim_ista::IstaConfig) -> Box<dyn ClosedMiner> {
    Box::new(fim_ista::ParallelIstaMiner::with_config(
        fim_ista::ParallelConfig {
            threads,
            policy: cfg.policy,
            coalesce: cfg.coalesce,
            compact: cfg.compact,
        },
    ))
}

/// The observed mining path behind `--stats`/`--metrics`/`--progress`/
/// `--profile`: mines with an [`fim_obs::Obs`] handle threaded through the
/// miner where supported (sequential ista records phase spans and emits
/// the heartbeat from inside the transaction loop; the parallel, Carpenter
/// and Eclat miners report their counters at the end), then writes one
/// schema-versioned metrics JSON document and, if requested, a
/// collapsed-stack profile.
#[allow(clippy::too_many_arguments)]
fn mine_observed(
    args: &Args,
    db: &TransactionDatabase,
    supp: u32,
    algo: &str,
    threads: Option<usize>,
    ista_config: fim_ista::IstaConfig,
    rep: Option<Representation>,
    obs_args: &ObsArgs,
) -> Result<(), CliError> {
    let mut obs = obs_args.build()?;
    let start = std::time::Instant::now();
    obs.span_enter("recode");
    let recoded = fim_core::RecodedDatabase::prepare(db, supp, item_order(args)?, tx_order(args)?);
    obs.span_exit();
    let is_ista = matches!(algo, "ista" | "ista-par" | "ista-noprune" | "ista-plain");
    let parallel = threads.is_some() || algo == "ista-par";
    let mut report = MetricsReport::new("", supp, 0.0, 0, recoded.num_transactions() as u64);
    obs.span_enter("mine");
    // sequential ista drives the heartbeat itself; every other miner gets
    // one final progress line after the fact
    let mut heartbeat_done = false;
    let res = if parallel {
        let miner = fim_ista::ParallelIstaMiner::with_config(fim_ista::ParallelConfig {
            threads: threads.unwrap_or(0),
            policy: ista_config.policy,
            coalesce: ista_config.coalesce,
            compact: ista_config.compact,
        });
        let (res, stats) = miner.mine_with_stats(&recoded, supp);
        report.miner = "ista-par";
        // no cross-shard peak is tracked; the reduced tree's arena
        // high-water (total slots) is the closest honest figure
        report.tree = Some(stats.memory.to_metrics(stats.memory.total_slots));
        report.shards = Some(ShardMetrics {
            shards: stats.shards as u64,
            recovered: stats.shards_recovered as u64,
        });
        report.counters = stats.counters;
        res
    } else if is_ista {
        let miner = fim_ista::IstaMiner::with_config(ista_config);
        let (res, stats) = miner.mine_with_obs(&recoded, supp, &mut obs);
        report.miner = miner.name();
        report.transactions_total = stats.total_transactions as u64;
        report.transactions_distinct = Some(stats.distinct_transactions as u64);
        report.tree = Some(stats.memory.to_metrics(stats.peak_nodes));
        report.passes = Some(PassMetrics {
            prune_passes: stats.prune_passes as u64,
            compactions: stats.compactions as u64,
        });
        report.counters = stats.counters;
        heartbeat_done = true;
        res
    } else {
        let noprune = args.flag("no-prune");
        let kernel_rep = rep.unwrap_or_default();
        let (res, counters) = match (algo, noprune) {
            ("carpenter-lists", false) => {
                let miner = fim_carpenter::CarpenterListMiner::with_rep(kernel_rep);
                report.miner = miner.name();
                miner.mine_with_stats(&recoded, supp)
            }
            ("carpenter-table", false) => {
                report.miner = "carpenter-table";
                fim_carpenter::CarpenterTableMiner::default().mine_with_stats(&recoded, supp)
            }
            ("carpenter-table", true) => {
                report.miner = "carpenter-table-noprune";
                fim_carpenter::CarpenterTableMiner::with_config(
                    fim_carpenter::CarpenterConfig::unpruned(),
                )
                .mine_with_stats(&recoded, supp)
            }
            ("eclat", false) => {
                let miner = fim_baseline::EclatMiner::with_rep(kernel_rep);
                report.miner = miner.name();
                miner.mine_with_stats(&recoded, supp)
            }
            ("declat", false) => {
                let miner = fim_baseline::DEclatMiner::with_rep(kernel_rep);
                report.miner = miner.name();
                miner.mine_with_stats(&recoded, supp)
            }
            (other, _) => {
                return Err(usage(format!(
                    "--stats/--metrics/--progress/--profile are not available for '{other}'"
                )));
            }
        };
        report.counters = counters;
        res
    };
    // the kernel section names the selected representation and its work
    // counters; the parallel miner has no kernel selection and stays scalar
    report.kernel = Some(fim_obs::KernelMetrics::from_counters(
        rep.unwrap_or_default().name(),
        &report.counters,
    ));
    obs.span_exit();
    obs.span_enter("report");
    let mut result = res.into_decoded(&recoded.recode().item_to_old);
    result.canonicalize();
    let kind = if args.flag("maximal") {
        result = fim_core::maximal_from_closed(&result);
        "maximal"
    } else {
        "closed"
    };
    write_out(args, |w| {
        fim_io::write_results(&result, db, w).map_err(CliError::from)
    })?;
    obs.span_exit();
    if !heartbeat_done {
        obs.finish(&ProgressSnapshot {
            processed: report.transactions_total,
            total: Some(report.transactions_total),
            pending: 0,
            peak_nodes: report.tree.map_or(0, |t| t.peak_nodes),
            sets: result.len() as u64,
        });
    }
    report.seconds = start.elapsed().as_secs_f64();
    report.sets = result.len() as u64;
    obs_args.finalize(&mut obs, &mut report);
    obs_args.emit_metrics(&report)?;
    obs_args.emit_profile(&obs)?;
    obs_args.emit_ledger(args, &report, &obs, "ok")?;
    eprintln!(
        "{}: {} {kind} sets at supp >= {supp} in {:.3}s",
        report.miner,
        result.len(),
        report.seconds
    );
    Ok(())
}

/// The observed **constrained** mining path: like [`mine_observed`], but
/// the recode projects out the excluded items, the miner runs its pushed
/// search (or the post-filter when `--no-push` asked for the oracle path),
/// and the metrics document gains the `constraint` section (the spec, the
/// pushed/post-filtered disposition, and the `constraint_prunes` counter).
#[allow(clippy::too_many_arguments)]
fn mine_constrained_observed(
    args: &Args,
    db: &TransactionDatabase,
    supp: u32,
    algo: &str,
    ista_config: fim_ista::IstaConfig,
    rep: Option<Representation>,
    obs_args: &ObsArgs,
    cs: &ConstraintSet,
    push: bool,
) -> Result<(), CliError> {
    let mut obs = obs_args.build()?;
    let start = std::time::Instant::now();
    obs.span_enter("recode");
    let recoded = fim_core::RecodedDatabase::prepare_excluding(
        db,
        supp,
        item_order(args)?,
        tx_order(args)?,
        &cs.exclude,
    );
    obs.span_exit();
    let mut report = MetricsReport::new("", supp, 0.0, 0, recoded.num_transactions() as u64);
    // counts the sets a post-filter pass drops, so the pushed and the
    // post-filtered run report through the same counter slot
    fn postfiltered(
        res: MiningResult,
        mut counters: Counters,
        dense: &ConstraintSet,
    ) -> (MiningResult, Counters) {
        let before = res.sets.len();
        let res = apply_constraints_owned(res, dense);
        counters.add(Counter::ConstraintPrunes, (before - res.sets.len()) as u64);
        (res, counters)
    }
    let dense = cs.encode(recoded.recode());
    obs.span_enter("mine");
    let kernel_rep = rep.unwrap_or_default();
    let is_ista = matches!(algo, "ista" | "ista-noprune" | "ista-plain");
    let (res, counters) = match &dense {
        // a must-include item did not survive the frequency threshold (or
        // the exclusion projection): nothing can satisfy, no miner runs
        None => {
            report.miner = miner_by_name(algo)?.name();
            (MiningResult::new(), Counters::new())
        }
        Some(d) if is_ista => {
            let miner = fim_ista::IstaMiner::with_config(ista_config);
            report.miner = miner.name();
            let (res, stats) = if push {
                miner.mine_constrained_with_stats(&recoded, supp, d)
            } else {
                let (res, stats) = miner.mine_with_stats(&recoded, supp);
                (apply_constraints_owned(res, d), stats)
            };
            report.transactions_total = stats.total_transactions as u64;
            report.transactions_distinct = Some(stats.distinct_transactions as u64);
            report.tree = Some(stats.memory.to_metrics(stats.peak_nodes));
            report.passes = Some(PassMetrics {
                prune_passes: stats.prune_passes as u64,
                compactions: stats.compactions as u64,
            });
            (res, stats.counters)
        }
        Some(d) => match algo {
            "carpenter-lists" => {
                let miner = fim_carpenter::CarpenterListMiner::with_rep(kernel_rep);
                report.miner = miner.name();
                if push {
                    miner.mine_constrained_with_stats(&recoded, supp, d)
                } else {
                    let (res, counters) = miner.mine_with_stats(&recoded, supp);
                    postfiltered(res, counters, d)
                }
            }
            "carpenter-table" => {
                report.miner = "carpenter-table";
                let miner = fim_carpenter::CarpenterTableMiner::default();
                if push {
                    miner.mine_constrained_with_stats(&recoded, supp, d)
                } else {
                    let (res, counters) = miner.mine_with_stats(&recoded, supp);
                    postfiltered(res, counters, d)
                }
            }
            "eclat" => {
                let miner = fim_baseline::EclatMiner::with_rep(kernel_rep);
                report.miner = miner.name();
                if push {
                    miner.mine_constrained_with_stats(&recoded, supp, d)
                } else {
                    let (res, counters) = miner.mine_with_stats(&recoded, supp);
                    postfiltered(res, counters, d)
                }
            }
            "declat" => {
                let miner = fim_baseline::DEclatMiner::with_rep(kernel_rep);
                report.miner = miner.name();
                if push {
                    miner.mine_constrained_with_stats(&recoded, supp, d)
                } else {
                    let (res, counters) = miner.mine_with_stats(&recoded, supp);
                    postfiltered(res, counters, d)
                }
            }
            other => {
                return Err(usage(format!(
                    "--stats/--metrics with constraint flags are not available for '{other}'"
                )));
            }
        },
    };
    report.counters = counters;
    let pushed = push
        && matches!(
            algo,
            "ista"
                | "ista-noprune"
                | "ista-plain"
                | "carpenter-lists"
                | "carpenter-table"
                | "eclat"
                | "declat"
        );
    report.constraint = Some(ConstraintMetrics::from_counters(
        cs.to_string(),
        pushed,
        &counters,
    ));
    report.kernel = Some(fim_obs::KernelMetrics::from_counters(
        kernel_rep.name(),
        &report.counters,
    ));
    obs.span_exit();
    obs.span_enter("report");
    let mut result = res.into_decoded(&recoded.recode().item_to_old);
    result.canonicalize();
    write_out(args, |w| {
        fim_io::write_results(&result, db, w).map_err(CliError::from)
    })?;
    obs.span_exit();
    obs.finish(&ProgressSnapshot {
        processed: report.transactions_total,
        total: Some(report.transactions_total),
        pending: 0,
        peak_nodes: report.tree.map_or(0, |t| t.peak_nodes),
        sets: result.len() as u64,
    });
    report.seconds = start.elapsed().as_secs_f64();
    report.sets = result.len() as u64;
    obs_args.finalize(&mut obs, &mut report);
    obs_args.emit_metrics(&report)?;
    obs_args.emit_profile(&obs)?;
    obs_args.emit_ledger(args, &report, &obs, "ok")?;
    eprintln!(
        "{}: {} closed sets at supp >= {supp} under [{cs}] in {:.3}s",
        report.miner,
        result.len(),
        report.seconds
    );
    Ok(())
}

fn cmd_gen(args: &Args) -> Result<(), CliError> {
    use fim_synth::Preset;
    let preset = match args.require("preset")? {
        "yeast" => Preset::Yeast,
        "ncbi60" => Preset::Ncbi60,
        "thrombin" => Preset::Thrombin,
        "webview" => Preset::Webview,
        other => return Err(usage(format!("unknown preset '{other}'"))),
    };
    let scale: f64 = args.parse_or("scale", 1.0)?;
    let seed: u64 = args.parse_or("seed", 1)?;
    let db = preset.build(scale, seed);
    write_out(args, |w| fim_io::write_fimi(&db, w).map_err(CliError::from))?;
    eprintln!(
        "{}: {} transactions, {} items, {} occurrences",
        preset.name(),
        db.num_transactions(),
        db.num_items(),
        db.total_occurrences()
    );
    Ok(())
}

fn cmd_rules(args: &Args) -> Result<(), CliError> {
    let supp: u32 = args.require_parsed("supp")?;
    let conf: f64 = args.parse_or("conf", 0.6)?;
    let db = load_db(args)?;
    let algo = args.get("algo").unwrap_or("ista");
    let miner = miner_by_name(algo)?;
    let closed = fim_core::mine_closed(&db, supp, miner.as_ref());
    let rules =
        fim_rules::RuleMiner::with_confidence(conf).derive(&closed, db.num_transactions() as u32);
    write_out(args, |w| {
        for r in &rules {
            let fmt_set = |s: &fim_core::ItemSet| -> String {
                s.iter()
                    .map(|i| db.catalog().name(i).unwrap_or("?").to_owned())
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            writeln!(
                w,
                "{} -> {}  (supp {}, conf {:.3}, lift {:.3})",
                fmt_set(&r.antecedent),
                fmt_set(&r.consequent),
                r.support,
                r.confidence,
                r.lift
            )
            .map_err(|e| CliError::Other(e.to_string()))?;
        }
        Ok(())
    })?;
    eprintln!("{} rules (supp >= {supp}, conf >= {conf})", rules.len());
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), CliError> {
    let db = load_db(args)?;
    let freq = db.item_frequencies();
    let nonzero = freq.iter().filter(|&&f| f > 0).count();
    let max_len = db.transactions().iter().map(|t| t.len()).max().unwrap_or(0);
    println!("transactions       {}", db.num_transactions());
    println!("items (catalog)    {}", db.num_items());
    println!("items (occurring)  {nonzero}");
    println!("occurrences        {}", db.total_occurrences());
    println!(
        "avg tx length      {:.2}",
        db.total_occurrences() as f64 / db.num_transactions().max(1) as f64
    );
    println!("max tx length      {max_len}");
    println!(
        "density            {:.5}",
        db.total_occurrences() as f64
            / (db.num_transactions().max(1) * db.num_items().max(1)) as f64
    );
    Ok(())
}

fn write_out<F>(args: &Args, f: F) -> Result<(), CliError>
where
    F: FnOnce(&mut dyn Write) -> Result<(), CliError>,
{
    // the explicit flushes report the last buffered bytes' write error,
    // which dropping the writer would discard
    match args.get("out") {
        Some("-") | None => {
            let mut lock = std::io::stdout().lock();
            f(&mut lock)?;
            lock.flush()
                .map_err(|e| CliError::Other(format!("cannot write to stdout: {e}")))
        }
        Some(path) => {
            let file = std::fs::File::create(path).map_err(|e| CliError::Other(e.to_string()))?;
            let mut w = std::io::BufWriter::new(file);
            f(&mut w)?;
            w.flush()
                .map_err(|e| CliError::Other(format!("cannot write {path}: {e}")))
        }
    }
}

fn cmd_compare(args: &Args) -> Result<(), CliError> {
    let base_path = args.require("base")?;
    let new_path = args.require("new")?;
    let defaults = fim_obs::Thresholds::default();
    let thresholds = fim_obs::Thresholds {
        time_pct: args.parse_or("time-tol", defaults.time_pct)?,
        time_floor_secs: args.parse_or("time-floor", defaults.time_floor_secs)?,
        mem_pct: args.parse_or("mem-tol", defaults.mem_pct)?,
        mem_floor_kb: args.parse_or("mem-floor-kb", defaults.mem_floor_kb)?,
        counter_pct: args.parse_or("counter-tol", defaults.counter_pct)?,
    };
    let read = |path: &str| -> Result<String, CliError> {
        std::fs::read_to_string(path)
            .map_err(|e| CliError::Other(format!("cannot read {path}: {e}")))
    };
    let base = fim_obs::parse_run_summary(&read(base_path)?)
        .map_err(|e| CliError::Parse(format!("{base_path}: {e}")))?;
    let new = fim_obs::parse_run_summary(&read(new_path)?)
        .map_err(|e| CliError::Parse(format!("{new_path}: {e}")))?;
    let report = fim_obs::compare(&base, &new, &thresholds);
    let io_err = |e: std::io::Error| CliError::Other(e.to_string());
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    if args.flag("json") {
        report.write_json(&mut lock).map_err(io_err)?;
    } else {
        report.write_table(&mut lock).map_err(io_err)?;
    }
    drop(lock);
    if report.regressions > 0 {
        return Err(CliError::Other(format!(
            "{} regression(s) vs {base_path}",
            report.regressions
        )));
    }
    Ok(())
}

fn cmd_trace_export(args: &Args) -> Result<(), CliError> {
    let path = args.require("in")?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Other(format!("cannot read {path}: {e}")))?;
    write_out(args, |w| {
        fim_obs::export_chrome_object(&text, w)
            .map(|_| ())
            .map_err(|e| CliError::Parse(format!("{path}: {e}")))
    })
}

fn print_help() {
    println!(
        "fim — closed frequent item set mining by intersecting transactions

USAGE:
  fim mine  --supp N | --supp-rel F   [--algo NAME] [--in FILE] [--out FILE]
            [--item-order asc|desc|orig] [--tx-order asc|desc|orig]
            [--maximal] [--no-prune] [--threads N]
            [--include A,B] [--exclude C,D] [--min-size N] [--max-size N]
            [--min-area N] [--no-push]
            [--rep auto|scalar|bitset|gallop]
            [--no-coalesce] [--no-compact] [--no-patricia]
            [--stats] [--metrics PATH|-] [--progress SECS] [--profile FILE]
            [--trace-events FILE] [--sample SECS] [--ledger FILE]
            [--timeout SECS] [--max-nodes N] [--max-sets N] [--degrade]
            [--checkpoint FILE] [--resume FILE]
            [--out-of-core --mem-budget BYTES --spill-dir DIR]
            [--resume-spill] [--io-retries N]
            [--inject-fault POINT:NTH[:io|enospc|partial|panic]]
            (--threads N shards the database over N threads and merges the
             per-shard prefix trees; 0 = one shard per core; ista only)
            (--no-coalesce disables merging identical transactions into
             weighted pairs; --no-compact disables post-prune arena
             compaction; --no-patricia mines on the uncompressed
             one-item-per-node tree instead of the path-compressed
             Patricia layout (equivalent to --algo ista-plain; sequential
             only); all are ista only)
            (constraints: --include/--exclude take comma-separated item
             names; --min-size/--max-size bound the item count and
             --min-area the product support x size of the reported sets.
             Excluded items are projected out of the database before
             mining — the closed sets of that projection, not a per-set
             filter of the full-database answer. Supporting miners (the
             ista variants, carpenter, eclat, declat) push the constraints
             into their search loops; the rest post-filter, as does
             --no-push, which forces the post-filter oracle path for any
             miner. Output is identical either way. Contradictory
             constraints (--min-size above --max-size, more --include
             items than --max-size, an item both included and excluded)
             and unknown item names are usage errors, exit code 2; not
             combinable with --maximal, --checkpoint/--resume, or
             --out-of-core)
            (--rep selects the physical tid-set kernel for the sequential
             ista variants, eclat, declat, and carpenter-lists: scalar
             sorted-list merges (the default), bitset word-AND + popcount,
             gallop exponential-search merges; auto picks by database
             density. Output is identical across kernels; only the work
             profile changes. Spelling the kernel as an algorithm-name
             suffix (e.g. --algo eclat-bitset) is equivalent)
            (observability: --metrics writes one fim-metrics/2 JSON
             document with run counters, tree occupancy, the kernel
             section (selected representation, words ANDed, gallop
             probes, popcounts), and a resources section (peak RSS,
             sampler series, phase histograms) to PATH, or to stderr
             with '-'; --stats is shorthand for --metrics -;
             --progress emits a heartbeat line every SECS seconds on
             stderr (JSON lines when stderr is not a terminal);
             --profile writes phase timings as collapsed stacks for
             flamegraph tools;
             --trace-events streams fim-trace/1 flight-recorder events
             (Chrome trace_event array format — load in Perfetto
             directly, or convert with 'fim trace-export');
             --sample runs a background resource sampler every SECS
             seconds (RSS, arena bytes, spill-dir bytes) feeding the
             metrics resources section;
             --ledger appends one fingerprinted fim-ledger/1 line per
             run (input FNV-1a, config, counters, per-phase self
             times, peak RSS, exit status) for 'fim compare';
             available for the ista variants, carpenter-lists,
             carpenter-table, eclat, and declat; stdout stays clean
             result output throughout)
            (budgets: --timeout caps wall-clock seconds, --max-nodes caps
             live prefix-tree nodes, --max-sets caps emitted sets; on a
             trip the exact sets of the processed prefix are written and
             the exit code is 4. --degrade instead raises the effective
             support until the tree fits --max-nodes; sequential ista only)
            (--checkpoint writes a resumable stream snapshot — atomically,
             on completion or on a budget trip; --resume loads one and
             skips the transactions it already covers; ista only)
            (--out-of-core mines a file larger than memory: two streaming
             passes over --in (item counts, then a recode into contiguous
             shards sized to the --mem-budget byte target), each shard
             mined and spilled to --spill-dir as a validated snapshot,
             the spills merge-reduced pairwise from disk, so peak memory
             tracks one shard's slice plus two trees instead of the whole
             database. Output is identical to an in-memory run; spill
             files are written atomically (fsync before rename, directory
             fsync after) and removed on every exit, budget trips
             included; ista only, needs a real --in file)
            (crash safety: every out-of-core run journals its spills in a
             CRC-protected MANIFEST in --spill-dir. After a crash, kill,
             or disk-full exit, re-running with --resume-spill verifies
             the journal against the input (size + count fingerprint),
             adopts intact completed shards without re-mining them, and
             continues to the identical output; a stale or foreign
             manifest is rejected as corrupt (exit 3). On disk-full the
             exact sets of the processed prefix are still written and the
             manifest is kept (exit 4). --io-retries N absorbs up to N
             transient I/O failures per spill write. --inject-fault arms
             the deterministic fault layer for crash testing: the NTH hit
             of the named point fails with the given kind (default:
             panic); FIM_INJECT_FAULT in the environment is equivalent,
             comma-separated)
  fim gen   --preset yeast|ncbi60|thrombin|webview [--scale X] [--seed N] [--out FILE]
  fim rules --supp N [--conf X] [--algo NAME] [--in FILE] [--out FILE]
  fim stats [--in FILE]
  fim compare --base FILE --new FILE [--json]
            [--time-tol PCT] [--time-floor SECS]
            [--mem-tol PCT] [--mem-floor-kb KB] [--counter-tol PCT]
            (diffs two runs — metrics documents or ledgers, detected by
             content; a ledger compares its most recent entry. A 'sets'
             mismatch or a metric worse than both its percentage
             tolerance and absolute floor is a regression: table or
             --json report on stdout, exit 1 — a CI gate)
  fim trace-export --in TRACE [--out FILE]
            (converts a --trace-events stream to a strict Chrome trace
             JSON object for tools that reject the array format)
  fim algos

FILE defaults to stdin/stdout ('-'). Algorithms: run 'fim algos'.

EXIT CODES:
  0  success
  1  I/O or other failure (including an injected fault of kind io)
  2  usage error (bad command line, unknown fault point)
  3  parse error (malformed input, corrupt checkpoint, foreign manifest)
  4  a resource budget tripped or the disk filled up (partial results
     were still written; disk-full leaves a --resume-spill manifest)"
    );
}
