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

use closed_fim::algos::{self, Miner};
use fim_core::{
    Budget, ConstraintSet, Density, ItemCatalog, ItemOrder, ItemSet, MineOutcome, MineRequest,
    MiningResult, Progress, RecodedDatabase, Representation, ScannedDatabase, TransactionDatabase,
    TransactionOrder, TripReason,
};
use fim_ista::{IstaConfig, IstaMiner, PrunePolicy};
use std::io::Write;
use std::process::ExitCode;
use std::time::{Duration, Instant};

mod args;
mod errors;
mod observe;

use args::Args;
use errors::{usage, CliError};
use fim_obs::{
    ConstraintMetrics, Counter, KernelMetrics, MetricsReport, Obs, PassMetrics, ProgressSnapshot,
    SpillMetrics,
};
use observe::ObsArgs;

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

/// A subcommand's entry point.
type Command = fn(&Args) -> Result<(), CliError>;

/// The flags of `fim mine`, in the order its usage text documents them.
const MINE_FLAGS: &str = "supp supp-rel algo in out item-order tx-order maximal no-prune \
    include exclude min-size max-size min-area no-push rep stats metrics \
    progress profile trace-events sample ledger timeout max-nodes max-sets degrade checkpoint \
    resume out-of-core mem-budget spill-dir resume-spill io-retries";

/// The flags that take no value, across every subcommand.
const BARE_FLAGS: [&str; 8] = [
    "maximal",
    "no-prune",
    "no-push",
    "stats",
    "degrade",
    "out-of-core",
    "resume-spill",
    "json",
];

fn run(argv: &[String]) -> Result<(), CliError> {
    let Some((command, rest)) = argv.split_first() else {
        println!("{USAGE}");
        return Ok(());
    };
    let args = Args::parse(rest, &BARE_FLAGS)?;
    // each subcommand takes the flags its usage text documents, so a
    // misspelt flag cannot silently change the query
    let (cmd, flags): (Command, &str) = match command.as_str() {
        "mine" => (cmd_mine, MINE_FLAGS),
        "gen" => (cmd_gen, "preset scale seed out"),
        "rules" => (cmd_rules, "supp conf algo in out"),
        "stats" => (cmd_stats, "in"),
        "compare" => (
            cmd_compare,
            "base new json time-tol time-floor mem-tol mem-floor-kb counter-tol",
        ),
        "trace-export" => (cmd_trace_export, "in out"),
        "algos" => (cmd_algos, ""),
        "help" | "--help" | "-h" => (cmd_help, ""),
        other => return Err(usage(format!("unknown command '{other}'"))),
    };
    // `--inject-fault` is read here, before dispatch, for every subcommand
    let known = |key: &str| key == "inject-fault" || flags.split_whitespace().any(|f| f == key);
    if let Some(flag) = args.unknown_flag(known) {
        return Err(usage(format!(
            "unknown flag '--{flag}' for 'fim {command}'"
        )));
    }
    if let Some(flag) = args.valueless() {
        return Err(usage(format!("--{flag} needs a value")));
    }
    // the deterministic fault layer (crash-consistency testing): armed
    // from the flag and/or the env var, a single relaxed atomic load when
    // disarmed
    fim_core::fault::arm_from_env().map_err(usage)?;
    if let Some(specs) = args.get("inject-fault") {
        for part in specs.split(',').filter(|p| !p.trim().is_empty()) {
            fim_core::fault::arm_str(part.trim()).map_err(usage)?;
        }
    }
    cmd(&args)
}

fn cmd_algos(_: &Args) -> Result<(), CliError> {
    for name in algos::names() {
        println!("{name}");
    }
    Ok(())
}

fn cmd_help(_: &Args) -> Result<(), CliError> {
    println!("{USAGE}");
    Ok(())
}

fn load_db(args: &Args) -> Result<TransactionDatabase, CliError> {
    match args.get("in") {
        Some("-") | None => fim_io::read_fimi(std::io::stdin().lock()),
        Some(path) => fim_io::read_fimi_path(path),
    }
    .map_err(CliError::from)
}

/// [`load_db`] for a query that recodes the rows next: each row is left
/// unsorted, for the recode to sort once in its own code order.
fn scan_input(args: &Args) -> Result<ScannedDatabase, CliError> {
    match args.get("in") {
        Some("-") | None => fim_io::scan_fimi(std::io::stdin().lock()),
        Some(path) => fim_io::scan_fimi_path(path),
    }
    .map_err(CliError::from)
}

/// The miner of the `--algo` name's table row.
fn table_miner(algo: &str) -> Result<Miner, CliError> {
    Miner::by_name(algo).map_err(|e| usage(format!("{e} (try 'fim algos')")))
}

fn item_order(args: &Args) -> Result<ItemOrder, CliError> {
    match args.get("item-order").unwrap_or("asc") {
        "asc" => Ok(ItemOrder::AscendingFrequency),
        "desc" => Ok(ItemOrder::DescendingFrequency),
        "orig" => Ok(ItemOrder::Original),
        other => Err(usage(format!("bad --item-order '{other}' (asc|desc|orig)"))),
    }
}

/// `--tx-order`, or `None` without the flag: the database is then prepared
/// in the miner's own [`transaction_order`](fim_core::ClosedMiner::transaction_order).
fn tx_order(args: &Args) -> Result<Option<TransactionOrder>, CliError> {
    let Some(order) = args.get("tx-order") else {
        return Ok(None);
    };
    match order {
        "asc" => Ok(Some(TransactionOrder::AscendingSize)),
        "desc" => Ok(Some(TransactionOrder::DescendingSize)),
        "orig" => Ok(Some(TransactionOrder::Original)),
        other => Err(usage(format!("bad --tx-order '{other}' (asc|desc|orig)"))),
    }
}

/// Builds the mining [`Budget`] from `--timeout` / `--max-nodes` /
/// `--max-sets` / `--degrade`. Unlimited when none are given. A node or
/// set limit that `miner`'s family never checks would never trip, so it is
/// a usage error naming the flag and the family.
fn budget_from(args: &Args, miner: &Miner) -> Result<Budget, CliError> {
    for flag in ["max-nodes", "max-sets"] {
        if args.get(flag).is_some() && !miner.checked_limits().contains(&flag) {
            return Err(usage(format!(
                "--{flag} is not available for '{}': its search never checks it",
                miner.family()
            )));
        }
    }
    let mut budget = Budget::unlimited();
    if let Some(t) = args.get("timeout") {
        let secs: f64 = t
            .parse()
            .map_err(|e| usage(format!("bad --timeout: {e}")))?;
        if !secs.is_finite() || secs < 0.0 {
            return Err(usage("--timeout must be a non-negative number of seconds"));
        }
        let timeout =
            Duration::try_from_secs_f64(secs).map_err(|e| usage(format!("bad --timeout: {e}")))?;
        budget = budget.with_timeout(timeout);
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
    // only IsTa checks the node limit, so only IsTa degrades
    if args.flag("degrade") {
        if budget.max_nodes.is_none() {
            return Err(usage("--degrade needs --max-nodes (it raises the support threshold until the tree fits the node budget)"));
        }
        budget = budget.with_degradation();
    }
    Ok(budget)
}

/// `fim mine`: routes the query to the out-of-core pipeline
/// (`--out-of-core`), the checkpointing stream (`--checkpoint` /
/// `--resume`) or the in-memory pipeline, which every other query takes.
fn cmd_mine(args: &Args) -> Result<(), CliError> {
    let algo = args.get("algo").unwrap_or(algos::DEFAULT);
    let miner = table_miner(algo)?;
    if args.flag("out-of-core") {
        return cmd_mine_oocore(args, algo, miner);
    }
    for f in ["mem-budget", "spill-dir", "resume-spill", "io-retries"] {
        if args.get(f).is_some() {
            return Err(usage(format!("--{f} needs --out-of-core")));
        }
    }
    if args.get("checkpoint").is_some() || args.get("resume").is_some() {
        return cmd_mine_stream(args, algo, miner);
    }
    let budget = budget_from(args, &miner)?;
    let item_order = item_order(args)?;
    let tx_order = tx_order(args)?;
    let obs_args = ObsArgs::from_args(args)?;
    // constraint flags resolve item names against the catalog, so only
    // their presence is known before the load
    let constrained = has_constraints(args);
    if constrained && args.flag("maximal") {
        return Err(usage(
            "--maximal cannot be combined with constraint flags (maximal sets are \
             derived from the unconstrained closed family)",
        ));
    }
    // `--rep auto` needs the database shape, so the load happens before
    // the miner is configured (every flag-validation error above still
    // fires without touching the input)
    let mut obs = obs_args.build()?;
    obs.span_enter("parse");
    let scan = scan_input(args)?;
    obs.span_exit();
    let supp = resolve_supp(args, scan.num_transactions() as u64)?;
    let rep = resolve_rep(args, &miner, scan.density())?;
    let miner = configure(args, miner, rep)?;
    let constraints = constraints_from(args, scan.catalog())?;
    let query = Query {
        miner,
        supp,
        budget,
        push: !args.flag("no-push") && miner.as_dyn().supports_constraints(),
        constraints,
    };
    let start = Instant::now();
    obs.span_enter("recode");
    let no_exclusion = ItemSet::empty();
    let exclude = query
        .constraints
        .as_ref()
        .map_or(&no_exclusion, |cs| &cs.exclude);
    let tx_order = tx_order.unwrap_or_else(|| miner.as_dyn().transaction_order());
    // the rows are recoded in their own pool; of the raw database, only
    // the catalog is still needed, to name the result
    let (recoded, catalog) =
        RecodedDatabase::prepare_scanned(scan, supp, item_order, tx_order, exclude);
    obs.span_exit();
    let mut report = MetricsReport::new(
        miner.as_dyn().name(),
        supp,
        0.0,
        0,
        recoded.num_transactions() as u64,
    );
    obs.span_enter("mine");
    let (outcome, heartbeat_sent) = query.run(&recoded, &mut obs, &mut report);
    obs.span_exit();
    report.kernel = Some(KernelMetrics::from_counters(
        miner.rep().name(),
        &report.counters,
    ));
    report.constraint = query
        .constraints
        .as_ref()
        .map(|cs| ConstraintMetrics::from_counters(cs.to_string(), query.push, &report.counters));
    obs.span_enter("report");
    let outcome = outcome.map_result(|coded| coded.into_canonical(&recoded.recode().item_to_old));
    obs.span_exit();
    drop(recoded);
    let heartbeat = (!heartbeat_sent).then(|| ProgressSnapshot {
        processed: report.transactions_total,
        total: Some(report.transactions_total),
        pending: 0,
        peak_nodes: report.tree.map_or(0, |t| t.peak_nodes),
        sets: 0,
    });
    let scope = query
        .constraints
        .map(|cs| format!(" under [{cs}]"))
        .unwrap_or_default();
    finish_mine(
        args,
        &obs_args,
        Mined {
            obs,
            start,
            outcome,
            catalog: &catalog,
            report,
            heartbeat,
            scope,
            note: String::new(),
        },
    )
}

/// One in-memory query with its flags checked: the configured miner and
/// the conditions it runs under.
struct Query {
    miner: Miner,
    supp: u32,
    budget: Budget,
    /// Over raw catalog codes; the excluded items are projected out of the
    /// database by the recode, the rest is checked against the sets.
    constraints: Option<ConstraintSet>,
    /// Whether the miner takes the constraints into its search rather than
    /// having its output filtered.
    push: bool,
}

impl Query {
    /// Mines the recoded database with one call. IsTa answers through its
    /// stats call, which also fills the tree and pass sections of
    /// `report`; every other family answers through
    /// [`mine_with`](fim_core::ClosedMiner::mine_with). Returns the coded
    /// outcome and whether the miner already sent the final heartbeat, as
    /// IsTa does.
    fn run(
        &self,
        db: &RecodedDatabase,
        obs: &mut Obs,
        report: &mut MetricsReport<'_>,
    ) -> (MineOutcome, bool) {
        let dense = match &self.constraints {
            None => None,
            Some(cs) => match cs.encode(db.recode()) {
                Some(dense) => Some(dense),
                // a must-include item did not survive the threshold (or
                // the exclusion): nothing can satisfy, no miner runs
                None => return (MineOutcome::complete(MiningResult::new()), false),
            },
        };
        let req = MineRequest {
            minsupp: self.supp.max(1),
            budget: &self.budget,
            constraints: dense.as_ref().filter(|_| self.push),
        };
        let (outcome, counters) = match &self.miner {
            Miner::Ista(m) => {
                let (outcome, stats) = m.mine_stats(db, &req, obs);
                report.transactions_total = stats.total_transactions as u64;
                report.transactions_distinct = Some(stats.distinct_transactions as u64);
                report.tree = Some(stats.memory.to_metrics(stats.peak_nodes));
                report.passes = Some(PassMetrics {
                    prune_passes: stats.prune_passes as u64,
                    compactions: stats.compactions as u64,
                });
                (outcome, stats.counters)
            }
            other => other.as_dyn().mine_with(db, &req, obs),
        };
        report.counters = counters;
        // constraints the miner did not push filter its output, through
        // the counter slot a pushed run counts its prunes in
        let unpushed = MineRequest {
            constraints: dense.as_ref().filter(|_| !self.push),
            ..req
        };
        let outcome = unpushed.filter(outcome, &mut report.counters);
        (outcome, matches!(self.miner, Miner::Ista(_)))
    }
}

/// Resolves `--rep auto|scalar|bitset|gallop` to a tid-set kernel; `None`
/// keeps the kernel of the table row. A suffixed name (`eclat-bitset`)
/// selects its kernel already, and the flag may only repeat it.
///
/// `auto` applies [`Representation::select`] to `density`, that of the
/// raw database — the same rule the library's `AutoMiner` applies after
/// recoding; the pre-recode estimate is used here so the choice is made
/// once, before any miner runs.
///
/// The kernelized families are IsTa, eclat, declat, and
/// carpenter-lists; the rest reject a selection. IsTa has no galloping
/// kernel (its epoch probe is already O(1)): [`configure`] turns that
/// selection into the scalar kernel it runs.
fn resolve_rep(
    args: &Args,
    miner: &Miner,
    density: Density,
) -> Result<Option<Representation>, CliError> {
    let flag = match args.get("rep") {
        None => None,
        Some("auto") => Some(Representation::select(&density)),
        Some(s) => Some(
            s.parse::<Representation>()
                .map_err(|e| usage(format!("bad --rep: {e} (or auto)")))?,
        ),
    };
    let named = Some(miner.rep()).filter(|&r| r != Representation::Scalar);
    if let (Some(f), Some(n)) = (flag, named) {
        if f != n {
            return Err(usage(format!(
                "--rep {f} conflicts with the '-{n}' algorithm-name suffix"
            )));
        }
    }
    if flag.is_some() || named.is_some() {
        let kernelized = matches!(
            miner,
            Miner::Ista(_) | Miner::CarpenterLists(_) | Miner::Eclat(_) | Miner::DEclat(_)
        );
        if !kernelized {
            return Err(usage(format!(
                "--rep is not available for '{}' (kernelized: ista, eclat, declat, carpenter-lists)",
                miner.family()
            )));
        }
    }
    Ok(flag)
}

/// Applies `--no-prune` to an IsTa configuration.
fn ista_toggles(args: &Args, mut config: IstaConfig) -> IstaConfig {
    if args.flag("no-prune") {
        config.policy = PrunePolicy::Never;
    }
    config
}

/// Applies the IsTa toggles, `--rep` and `--no-prune` to the table row's
/// miner. Each flag sets the field a row name sets, so a name and its flag
/// spelling build the same miner.
fn configure(args: &Args, miner: Miner, rep: Option<Representation>) -> Result<Miner, CliError> {
    let no_prune = args.flag("no-prune");
    Ok(match miner {
        Miner::Ista(m) => {
            let mut config = ista_toggles(args, m.config);
            // keep only a kernel IsTa has, so `Miner::rep` and the
            // metrics name the kernel that runs
            config.rep = match rep.unwrap_or(config.rep) {
                Representation::Bitset => Representation::Bitset,
                _ => Representation::Scalar,
            };
            Miner::Ista(IstaMiner::with_config(config))
        }
        Miner::CarpenterTable(mut m) if no_prune => {
            m.config = fim_carpenter::CarpenterConfig::unpruned();
            Miner::CarpenterTable(m)
        }
        other if no_prune => {
            return Err(usage(format!(
                "--no-prune is not available for '{}'",
                other.family()
            )));
        }
        Miner::CarpenterLists(mut m) => {
            m.rep = rep.unwrap_or(m.rep);
            Miner::CarpenterLists(m)
        }
        Miner::Eclat(mut m) => {
            m.rep = rep.unwrap_or(m.rep);
            Miner::Eclat(m)
        }
        Miner::DEclat(mut m) => {
            m.rep = rep.unwrap_or(m.rep);
            Miner::DEclat(m)
        }
        other => other,
    })
}

/// The constraint flags of `fim mine`. Kept in one place so the
/// in-memory pipeline and the forbidden-flag lists of the streaming paths
/// agree on the spelling.
const CONSTRAINT_FLAGS: [&str; 6] = [
    "include", "exclude", "min-size", "max-size", "min-area", "no-push",
];

/// Whether a constraint flag other than `--no-push` is given.
fn has_constraints(args: &Args) -> bool {
    CONSTRAINT_FLAGS
        .iter()
        .any(|&f| f != "no-push" && args.get(f).is_some())
}

/// Builds the [`ConstraintSet`] from `--include`/`--exclude` (comma-
/// separated item names, resolved against the input's `catalog`) and
/// `--min-size`/`--max-size`/`--min-area`. Returns `None` when no
/// constraint flag is present. Unknown item names and contradictory
/// combinations (e.g. `--min-size 5 --max-size 3`, or an item both
/// included and excluded) are usage errors — exit code 2.
fn constraints_from(args: &Args, catalog: &ItemCatalog) -> Result<Option<ConstraintSet>, CliError> {
    if !has_constraints(args) {
        if args.flag("no-push") {
            return Err(usage("--no-push needs at least one constraint flag"));
        }
        return Ok(None);
    }
    let resolve = |key: &str| -> Result<ItemSet, CliError> {
        let mut items = Vec::new();
        if let Some(spec) = args.get(key) {
            for name in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                let code = catalog
                    .code(name)
                    .ok_or_else(|| usage(format!("--{key}: unknown item '{name}'")))?;
                items.push(code);
            }
        }
        Ok(ItemSet::new(items))
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
/// the `transactions`; the out-of-core path counts them in its streaming
/// pass 1 and never materializes the database).
fn resolve_supp(args: &Args, transactions: u64) -> Result<u32, CliError> {
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
            Ok(fim_core::relative_minsupp(frac, transactions))
        }
        (None, None) => Err(usage("missing --supp (or --supp-rel)")),
    }
}

/// A mined query on its way out, as each `fim mine` path hands it to
/// [`finish_mine`].
struct Mined<'a> {
    /// The observability bundle the run fed.
    obs: Obs,
    /// When the query started.
    start: Instant,
    /// The canonical result in raw catalog codes, complete or partial.
    outcome: MineOutcome,
    /// Names the result's item codes.
    catalog: &'a ItemCatalog,
    /// The metrics document so far. Its miner name and threshold also
    /// head the summary line.
    report: MetricsReport<'a>,
    /// The final heartbeat, unless the miner already sent it.
    heartbeat: Option<ProgressSnapshot>,
    /// Follows the threshold in the summary line and the progress in the
    /// budget message (`under [..]`, `over N shards`).
    scope: String,
    /// Closes the budget message of an interrupted run.
    note: String,
}

/// The end every `fim mine` path shares: applies `--maximal` (a `report`
/// span), writes the result (a `write` span), emits the metrics, profile
/// and ledger asked for, and prints the summary line — or, for an
/// interrupted run, returns the budget error (exit 4) once the exact
/// partial is written.
fn finish_mine(args: &Args, obs_args: &ObsArgs, mined: Mined<'_>) -> Result<(), CliError> {
    let Mined {
        mut obs,
        start,
        outcome,
        catalog,
        mut report,
        heartbeat,
        scope,
        note,
    } = mined;
    let (mut result, degradation, stop) = match outcome {
        MineOutcome::Complete {
            result,
            degradation,
        } => (result, degradation, None),
        MineOutcome::Interrupted {
            partial,
            reason,
            progress,
        } => (partial, None, Some((reason, progress))),
    };
    let maximal = args.flag("maximal");
    let kind = if maximal { "maximal" } else { "closed" };
    obs.span_enter("report");
    if maximal {
        result = fim_core::maximal_from_closed(&result);
    }
    obs.span_exit();
    obs.span_enter("write");
    write_out(args, |w| {
        fim_io::write_results_named(&result, catalog, w).map_err(CliError::from)
    })?;
    obs.span_exit();
    report.seconds = start.elapsed().as_secs_f64();
    report.sets = result.len() as u64;
    if let Some(mut snapshot) = heartbeat {
        snapshot.sets = report.sets;
        obs.finish(&snapshot);
    }
    if obs_args.any() {
        let exit = stop.map_or_else(|| "ok".to_owned(), |(reason, _)| reason.to_string());
        obs_args.finalize(&mut obs, &mut report);
        obs_args.emit_metrics(&report)?;
        obs_args.emit_profile(&obs)?;
        obs_args.emit_ledger(args, &report, &obs, &exit)?;
    }
    if let Some(d) = degradation {
        eprintln!(
            "fim: degraded to fit the node budget: effective supp {} (requested {}, {} steps)",
            d.effective_minsupp, d.requested_minsupp, d.steps
        );
    }
    let (name, supp, sets) = (report.miner, report.supp, result.len());
    match stop {
        None => {
            eprintln!(
                "{name}: {sets} {kind} sets at supp >= {supp}{scope} in {:.3}s",
                report.seconds
            );
            Ok(())
        }
        Some((reason, progress)) => Err(CliError::Budget(format!(
            "{name} interrupted ({reason}) at progress {progress}{scope}; \
             wrote {sets} {kind} sets with exact supports{note}"
        ))),
    }
}

/// The streaming path behind `--checkpoint` / `--resume`: feeds the input
/// through an [`fim_ista::IstaStream`] one transaction at a time, so a
/// budget trip leaves a resumable checkpoint and an exact prefix answer.
fn cmd_mine_stream(args: &Args, algo: &str, miner: Miner) -> Result<(), CliError> {
    if !matches!(miner, Miner::Ista(m) if m.config == IstaConfig::default()) {
        return Err(usage(format!(
            "--checkpoint/--resume stream through the cumulative ista miner, not '{algo}'"
        )));
    }
    for f in [
        "stats",
        "profile",
        "no-prune",
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
    let budget = budget_from(args, &miner)?;
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
    let start = Instant::now();
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
    let result = stream.closed_sets(supp);
    obs.span_exit();
    let outcome = match tripped {
        None => MineOutcome::complete(result),
        Some(reason) => MineOutcome::Interrupted {
            partial: result,
            reason,
            progress: Progress {
                processed: u64::from(processed),
                total: Some(total),
            },
        },
    };
    let mem = stream.memory_stats();
    let mut report = MetricsReport::new("ista-stream", supp, 0.0, 0, u64::from(processed));
    // the stream never prunes, so the arena high-water is the peak
    report.tree = Some(mem.to_metrics(mem.total_slots));
    report.counters = *stream.counters();
    let heartbeat = ProgressSnapshot {
        processed: u64::from(processed),
        total: (skip == 0 && tripped.is_none()).then_some(total),
        pending: 0,
        peak_nodes: stream.node_count() as u64,
        sets: 0,
    };
    let note = match args.get("checkpoint") {
        Some(path) => format!("; checkpoint written, resume with --resume {path}"),
        None => String::new(),
    };
    finish_mine(
        args,
        &obs_args,
        Mined {
            obs,
            start,
            outcome,
            catalog: &catalog,
            report,
            heartbeat: Some(heartbeat),
            scope: format!(" over {processed} transactions"),
            note,
        },
    )
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
fn cmd_mine_oocore(args: &Args, algo: &str, miner: Miner) -> Result<(), CliError> {
    let ista = match miner {
        // the pipeline mines with the scalar kernel
        Miner::Ista(m) if m.config.rep == Representation::Scalar => m.config,
        _ => {
            return Err(usage(format!(
                "--out-of-core streams through the shard-spill ista pipeline, not '{algo}'"
            )))
        }
    };
    for f in ["checkpoint", "resume", "rep", "tx-order", "degrade"]
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
    let budget = budget_from(args, &miner)?;
    let obs_args = ObsArgs::from_args(args)?;
    let item_order = item_order(args)?;
    let limits = fim_io::FimiLimits::default();
    let counts = fim_io::count_fimi_path(input, &limits)?;
    let supp = resolve_supp(args, counts.transactions)?;
    let ista = ista_toggles(args, ista);
    let mut config = fim_ista::OutOfCoreConfig::new(mem_budget, spill_dir);
    config.policy = ista.policy;
    config.retry = fim_core::fault::RetryPolicy::with_retries(io_retries);
    let mut obs = obs_args.build_with_spill(Some(std::path::Path::new(spill_dir)))?;
    let start = Instant::now();
    let run = fim_io::mine_fimi_with_counts_opts(
        input, &limits, counts, supp, item_order, config, &budget, resume, &mut obs,
    )?;
    let stats = run.stats;
    let mut report = MetricsReport::new("ista-oocore", supp, 0.0, 0, run.transactions);
    // no cross-shard peak is tracked; the reduced tree's arena high-water
    // (total slots) is the closest honest figure
    report.tree = Some(stats.memory.to_metrics(stats.memory.total_slots));
    report.spill = Some(SpillMetrics::from_counters(&stats.counters));
    report.counters = stats.counters;
    let heartbeat = ProgressSnapshot {
        processed: run.transactions,
        total: Some(run.transactions),
        pending: 0,
        peak_nodes: stats.memory.total_slots as u64,
        sets: 0,
    };
    // a disk-full trip is the one interruption that keeps its spill state:
    // the manifest and verified spills stay behind so a `--resume-spill`
    // run can pick up without re-mining them
    let note = match &run.outcome {
        MineOutcome::Interrupted {
            reason: TripReason::DiskFull,
            ..
        } => format!(
            "; a resumable manifest was left in {spill_dir}; free space and re-run \
             with --resume-spill to continue without re-mining completed shards"
        ),
        _ => "; spill files were cleaned up".to_owned(),
    };
    let finished = finish_mine(
        args,
        &obs_args,
        Mined {
            obs,
            start,
            outcome: run.outcome,
            catalog: &run.catalog,
            report,
            heartbeat: Some(heartbeat),
            scope: format!(
                " over {} shards ({} spilled, {} merge passes)",
                stats.shards, stats.spilled, stats.merge_passes
            ),
            note,
        },
    );
    if args.flag("stats") {
        eprintln!(
            "ista-oocore: {} spills, {} faults injected, {} retries",
            stats.spilled,
            stats.counters.get(Counter::FaultsInjected),
            stats.counters.get(Counter::RetriesAttempted)
        );
    }
    finished
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
    let miner = table_miner(args.get("algo").unwrap_or(algos::DEFAULT))?;
    let db = load_db(args)?;
    let closed = fim_core::mine_closed(&db, supp, miner.as_dyn());
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
    let density = db.density();
    let freq = db.item_frequencies();
    let nonzero = freq.iter().filter(|&&f| f > 0).count();
    let max_len = db.transactions().iter().map(|t| t.len()).max().unwrap_or(0);
    println!("transactions       {}", density.rows);
    println!("items (catalog)    {}", density.cols);
    println!("items (occurring)  {nonzero}");
    println!("occurrences        {}", density.ones);
    println!("avg tx length      {:.2}", density.avg_row_len);
    println!("max tx length      {max_len}");
    println!("density            {:.5}", density.fill);
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

/// The text `fim help` prints.
const USAGE: &str = "fim — closed frequent item set mining by intersecting transactions

USAGE:
  fim mine  --supp N | --supp-rel F   [--algo NAME] [--in FILE] [--out FILE]
            [--item-order asc|desc|orig] [--tx-order asc|desc|orig]
            [--maximal] [--no-prune]
            [--include A,B] [--exclude C,D] [--min-size N] [--max-size N]
            [--min-area N] [--no-push]
            [--rep auto|scalar|bitset|gallop]
            [--stats] [--metrics PATH|-] [--progress SECS] [--profile FILE]
            [--trace-events FILE] [--sample SECS] [--ledger FILE]
            [--timeout SECS] [--max-nodes N] [--max-sets N] [--degrade]
            [--checkpoint FILE] [--resume FILE]
            [--out-of-core --mem-budget BYTES --spill-dir DIR]
            [--resume-spill] [--io-retries N]
            [--inject-fault POINT:NTH[:io|enospc|partial|panic]]
            (--item-order and --tx-order choose how the database is
             prepared for the miner and never change the output. Item
             codes default to ascending frequency (asc). Transactions
             default to the paper's §3.4 order, ascending size (asc),
             except for eclat and declat, which keep the file order (orig):
             their vertical search never reads the rows in order)
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
            (--rep selects the physical tid-set kernel for the ista
             variants, eclat, declat, and carpenter-lists: scalar
             sorted-list merges (the default), bitset word-AND + popcount,
             gallop exponential-search merges; auto picks by database
             density. Output is identical across kernels; only the work
             profile changes. ista has no gallop kernel: that selection
             runs the scalar kernel, and --metrics says so. Spelling the
             kernel as an algorithm-name suffix (e.g. --algo
             eclat-bitset) is equivalent)
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
             available for every algorithm, with budget and constraint
             flags too; stdout stays clean result output throughout)
            (budgets: --timeout caps wall-clock seconds, --max-nodes caps
             live prefix-tree nodes (ista only), --max-sets caps emitted
             sets (carpenter and eclat only); a family that never checks
             a limit refuses it with exit code 2 (README, Budgets). On a
             trip the exact sets of the processed prefix are written and
             the exit code is 4. --degrade instead raises the effective
             support until the tree fits --max-nodes; ista only)
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
  2  usage error (bad command line, unknown flag or fault point)
  3  parse error (malformed input, corrupt checkpoint, foreign manifest)
  4  a resource budget tripped or the disk filled up (partial results
     were still written; disk-full leaves a --resume-spill manifest)";

#[cfg(test)]
mod tests {
    use super::*;

    /// `MINE_FLAGS` lists exactly the flags the `fim mine` usage text
    /// documents, `--inject-fault` aside.
    #[test]
    fn mine_flags_are_the_documented_ones() {
        let mine = &USAGE[USAGE.find("fim mine").unwrap()..USAGE.find("fim gen").unwrap()];
        let mut documented: Vec<&str> = mine
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter_map(|word| word.strip_prefix("--"))
            .filter(|&flag| flag != "inject-fault")
            .collect();
        documented.sort_unstable();
        documented.dedup();
        let mut listed: Vec<&str> = MINE_FLAGS.split_whitespace().collect();
        listed.sort_unstable();
        assert_eq!(listed, documented);
    }
}
