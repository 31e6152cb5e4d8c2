//! End-to-end tests of the observability flags: `--stats`, `--metrics`,
//! `--progress`, `--profile`, `--trace-events`, `--sample`, `--ledger`,
//! plus the `fim compare` and `fim trace-export` commands built on them.
//! The central invariant is output routing — stdout carries only item
//! sets no matter which observability output is enabled, so
//! `fim mine ... > out.txt` stays pipeable.

use std::io::Write;
use std::process::{Command, Stdio};

fn fim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fim"))
}

const DATA: &[u8] = b"a b c\na d e\nb c d\na b c d\nb c\na b d\nd e\nc d e\n";

fn run_mine(extra: &[&str]) -> std::process::Output {
    let mut child = fim()
        .args(["mine", "--supp", "3"])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // a run refused at its flags exits without reading its input, so the
    // pipe may already be closed
    let fed = child.stdin.as_mut().unwrap().write_all(DATA);
    let out = child.wait_with_output().unwrap();
    if out.status.success() {
        fed.unwrap();
    }
    out
}

/// Every stdout line must be an item-set line: `name name ... (support)`.
fn assert_only_item_sets(stdout: &[u8]) {
    let text = String::from_utf8(stdout.to_vec()).unwrap();
    assert!(!text.is_empty());
    for line in text.lines() {
        let (items, supp) = line.rsplit_once(" (").expect("no support suffix");
        assert!(supp.ends_with(')'), "bad line: {line}");
        assert!(
            supp[..supp.len() - 1].parse::<u32>().is_ok(),
            "bad support in: {line}"
        );
        assert!(
            items.split(' ').all(|w| !w.is_empty() && !w.contains('{')),
            "bad items in: {line}"
        );
    }
}

#[test]
fn stdout_stays_clean_with_all_observability_on() {
    let dir = std::env::temp_dir().join("fim_obs_test");
    std::fs::create_dir_all(&dir).unwrap();
    let profile = dir.join("profile.folded");
    let plain = run_mine(&[]);
    assert!(plain.status.success());
    let observed = run_mine(&[
        "--metrics",
        "-",
        "--progress",
        "1",
        "--profile",
        profile.to_str().unwrap(),
    ]);
    assert!(observed.status.success());
    assert_only_item_sets(&observed.stdout);
    // observability must not change the mined result, byte for byte
    assert_eq!(plain.stdout, observed.stdout);
    // ... and all machine-readable output lands on stderr
    let err = String::from_utf8(observed.stderr).unwrap();
    assert!(
        err.contains("\"schema\": \"fim-metrics/2\""),
        "stderr: {err}"
    );
    // the profile is collapsed-stack: `path;to;span <micros>` lines
    let folded = std::fs::read_to_string(&profile).unwrap();
    assert!(folded.lines().count() >= 2, "profile too small: {folded}");
    for line in folded.lines() {
        let (path, micros) = line.rsplit_once(' ').unwrap();
        assert!(!path.is_empty());
        assert!(micros.parse::<u64>().is_ok(), "bad line: {line}");
    }
    assert!(folded.contains("mine;"), "missing miner phases: {folded}");
    // parsing, ordering the result and writing it are separate top-level
    // layers
    for span in ["parse", "recode", "mine", "report", "write"] {
        assert!(
            folded
                .lines()
                .any(|l| l.rsplit_once(' ').unwrap().0 == span),
            "missing span {span}: {folded}"
        );
    }
    std::fs::remove_file(&profile).ok();
}

#[test]
fn metrics_file_passes_schema_validation() {
    let dir = std::env::temp_dir().join("fim_obs_test");
    std::fs::create_dir_all(&dir).unwrap();
    for algo in [
        "ista",
        "ista-bitset",
        "carpenter-lists",
        "carpenter-table",
        "eclat",
    ] {
        let path = dir.join(format!("metrics-{algo}.json"));
        let out = run_mine(&["--algo", algo, "--metrics", path.to_str().unwrap()]);
        assert!(out.status.success(), "{algo}");
        assert_only_item_sets(&out.stdout);
        let doc = std::fs::read_to_string(&path).unwrap();
        fim_obs::validate_metrics_json(&doc).unwrap_or_else(|e| panic!("{algo}: {e}"));
        assert!(doc.contains(&format!("\"miner\": \"{algo}\"")), "{doc}");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn stats_is_shorthand_for_metrics_on_stderr() {
    for algo in ["ista", "carpenter-lists", "carpenter-table", "eclat"] {
        let out = run_mine(&["--algo", algo, "--stats"]);
        assert!(out.status.success(), "{algo}");
        assert_only_item_sets(&out.stdout);
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.contains("\"schema\": \"fim-metrics/2\""),
            "{algo}: {err}"
        );
        assert!(err.contains("\"counters\""), "{algo}: {err}");
    }
}

#[test]
fn progress_lines_are_json_when_piped() {
    let out = run_mine(&["--progress", "0.0001"]);
    assert!(out.status.success());
    assert_only_item_sets(&out.stdout);
    let err = String::from_utf8(out.stderr).unwrap();
    let progress: Vec<&str> = err
        .lines()
        .filter(|l| l.starts_with("{\"type\":\"progress\""))
        .collect();
    assert!(!progress.is_empty(), "no heartbeat: {err}");
    for line in &progress {
        assert!(line.contains("\"processed\":"), "bad line: {line}");
        assert!(line.ends_with('}'), "bad line: {line}");
    }
}

fn run_fim(args: &[&str]) -> std::process::Output {
    fim().args(args).output().unwrap()
}

#[test]
fn trace_sampler_and_ledger_end_to_end() {
    let dir = std::env::temp_dir().join(format!("fim_flight_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("data.fimi");
    std::fs::write(&input, DATA).unwrap();
    let trace = dir.join("trace.json");
    let ledger = dir.join("ledger.jsonl");
    let metrics = dir.join("metrics.json");

    let plain = run_fim(&["mine", "--supp", "3", "--in", input.to_str().unwrap()]);
    assert!(plain.status.success());
    let observed = run_fim(&[
        "mine",
        "--supp",
        "3",
        "--in",
        input.to_str().unwrap(),
        "--trace-events",
        trace.to_str().unwrap(),
        "--sample",
        "0.001",
        "--ledger",
        ledger.to_str().unwrap(),
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert!(
        observed.status.success(),
        "{}",
        String::from_utf8_lossy(&observed.stderr)
    );
    // the full flight-recorder bundle must not change the mined result
    assert_eq!(plain.stdout, observed.stdout);

    // the trace parses as the Chrome array format, begin/end balanced
    let text = std::fs::read_to_string(&trace).unwrap();
    let events = fim_obs::read_trace(&text).unwrap_or_else(|e| panic!("{e}"));
    assert!(!events.is_empty(), "empty trace");
    fim_obs::validate_trace_pairing(&events).unwrap_or_else(|e| panic!("{e}"));

    // trace-export rewrites it as one strict JSON object
    let exported = dir.join("trace-chrome.json");
    let out = run_fim(&[
        "trace-export",
        "--in",
        trace.to_str().unwrap(),
        "--out",
        exported.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let obj = std::fs::read_to_string(&exported).unwrap();
    let doc = fim_obs::json::parse_json(&obj).expect("strict JSON object");
    assert!(doc.get("traceEvents").is_some(), "{obj}");

    // the metrics document is v2 with resources and events sections
    let doc = std::fs::read_to_string(&metrics).unwrap();
    fim_obs::validate_metrics_json(&doc).unwrap_or_else(|e| panic!("{e}"));
    assert!(doc.contains("\"resources\""), "{doc}");
    assert!(doc.contains("\"events\""), "{doc}");

    // the ledger holds one entry fingerprinting the real input
    let entries = fim_obs::read_ledger(&std::fs::read_to_string(&ledger).unwrap()).unwrap();
    assert_eq!(entries.len(), 1);
    let entry = &entries[0];
    assert_eq!(entry.exit, "ok");
    assert_eq!(entry.input_fnv, fim_obs::fnv1a(DATA));
    assert!(entry.sets > 0);
    assert!(!entry.phases.is_empty(), "ledger recorded no phases");
    for span in ["report", "write"] {
        assert!(
            entry.phases.iter().any(|(path, _)| path == span),
            "ledger lacks phase {span}: {:?}",
            entry.phases
        );
    }
    // output-channel flags must not leak into the config fingerprint
    assert!(!entry.config.contains("ledger"), "{}", entry.config);
    assert!(!entry.config.contains("trace-events"), "{}", entry.config);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compare_gates_regressions() {
    let dir = std::env::temp_dir().join(format!("fim_compare_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("data.fimi");
    std::fs::write(&input, DATA).unwrap();
    let base = dir.join("base.jsonl");
    let new = dir.join("new.jsonl");
    for ledger in [&base, &new] {
        let out = run_fim(&[
            "mine",
            "--supp",
            "3",
            "--in",
            input.to_str().unwrap(),
            "--ledger",
            ledger.to_str().unwrap(),
            "--out",
            dir.join("sets.txt").to_str().unwrap(),
        ]);
        assert!(out.status.success());
    }

    // two runs of the same build on the same input: no regressions
    let out = run_fim(&[
        "compare",
        "--base",
        base.to_str().unwrap(),
        "--new",
        new.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "identical runs regressed: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let table = String::from_utf8(out.stdout).unwrap();
    assert!(table.contains("seconds"), "{table}");
    assert!(table.contains("0 regression(s)"), "{table}");

    // a doctored baseline claiming a different set count must gate
    let entries = fim_obs::read_ledger(&std::fs::read_to_string(&base).unwrap()).unwrap();
    let mut doctored = entries[0].clone();
    doctored.sets += 1;
    let doctored_path = dir.join("doctored.jsonl");
    std::fs::write(&doctored_path, format!("{}\n", doctored.to_json_line())).unwrap();
    let out = run_fim(&[
        "compare",
        "--base",
        doctored_path.to_str().unwrap(),
        "--new",
        new.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "sets drift must exit 1");
    let table = String::from_utf8(out.stdout).unwrap();
    assert!(table.contains("REGRESSED"), "{table}");

    // machine output parses as JSON and carries the schema tag
    let out = run_fim(&[
        "compare",
        "--base",
        base.to_str().unwrap(),
        "--new",
        new.to_str().unwrap(),
        "--json",
    ]);
    assert!(out.status.success());
    let json = String::from_utf8(out.stdout).unwrap();
    let doc = fim_obs::json::parse_json(&json).expect("compare --json parses");
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some("fim-compare/1")
    );

    // garbage input is a parse error (exit 3), not a crash
    let garbage = dir.join("garbage.txt");
    std::fs::write(&garbage, "not a metrics file").unwrap();
    let out = run_fim(&[
        "compare",
        "--base",
        garbage.to_str().unwrap(),
        "--new",
        new.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(3));
    std::fs::remove_dir_all(&dir).ok();
}

/// Every algorithm reports counters, under budgets and constraints alike:
/// no observability flag is refused for the miner, the budget or the
/// constraints it runs with.
#[test]
fn observability_combines_with_every_algo_budget_and_constraint() {
    let exits = |code: i32, extra: &[&str]| {
        let out = run_mine(extra);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{extra:?}: {err}");
    };
    exits(0, &["--algo", "fpclose", "--stats"]);
    exits(0, &["--stats", "--timeout", "10"]);

    let dir = std::env::temp_dir().join(format!("fim_obs_combine_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let at = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (metrics, ledger, profile) = (at("m.json"), at("l.jsonl"), at("p.folded"));

    // a tripped budget still writes a valid metrics document and a ledger
    // line that names the trip
    exits(
        4,
        &["--timeout", "0", "--metrics", &metrics, "--ledger", &ledger],
    );
    let doc = std::fs::read_to_string(&metrics).unwrap();
    fim_obs::validate_metrics_json(&doc).unwrap_or_else(|e| panic!("{e}: {doc}"));
    let line = std::fs::read_to_string(&ledger).unwrap();
    assert!(line.contains("\"exit\":\"timeout\""), "{line}");

    // LCM's closure reuse reaches the metrics
    exits(0, &["--algo", "lcm", "--metrics", &metrics]);
    let doc = std::fs::read_to_string(&metrics).unwrap();
    let key = "\"closure_reuses\":";
    let from = doc.find(key).expect("closure_reuses reported") + key.len();
    let reuses: u64 = doc[from..]
        .split([',', '}', '\n'])
        .next()
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    assert!(reuses > 0, "{doc}");

    // a constrained IsTa run keeps its inner spans
    exits(
        0,
        &["--algo", "ista", "--min-size", "2", "--profile", &profile],
    );
    let folded = std::fs::read_to_string(&profile).unwrap();
    assert!(
        folded.lines().any(|l| l.starts_with("mine;transactions ")),
        "{folded}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
