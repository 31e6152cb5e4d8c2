//! End-to-end tests of the `fim` binary via `CARGO_BIN_EXE`.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn fim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fim"))
}

#[test]
fn help_prints_usage() {
    let out = fim().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("USAGE"));
    assert!(text.contains("fim mine"));
}

#[test]
fn algos_lists_all() {
    let out = fim().arg("algos").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for name in ["ista", "carpenter-table", "fpclose", "lcm"] {
        assert!(text.contains(name), "missing {name}");
    }
}

#[test]
fn mine_from_stdin() {
    let mut child = fim()
        .args(["mine", "--supp", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"a b c\na b\nb c\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    // closed sets with supp >= 2: {b}:3, {a b}:2, {b c}:2
    assert!(text.contains("b (3)"), "got: {text}");
    assert!(text.contains("a b (2)"));
    assert!(text.contains("b c (2)"));
    assert_eq!(text.lines().count(), 3);
}

/// `--supp-rel` takes a whole product of the fraction and the row count
/// as it is: 0.07 × 100 and 0.14 × 50 compute as 7.000000000000001, and
/// must mine at supp 7, not 8.
#[test]
fn relative_support_of_a_whole_product_is_not_rounded_up() {
    let dir = Scratch::new("supp_rel");
    for (rows, fraction) in [(100, "0.07"), (50, "0.14")] {
        // item 1 in 7 of the rows, item 2 in the rest
        let path = dir.path(&format!("rows{rows}.fimi"));
        let text: String = (0..rows)
            .map(|k| if k < 7 { "1\n" } else { "2\n" })
            .collect();
        std::fs::write(&path, text).unwrap();
        let run = |flag: &str, value: &str| {
            let out = fim()
                .args(["mine", flag, value, "--in", &path])
                .output()
                .unwrap();
            assert!(out.status.success(), "{}", stderr(&out));
            (
                String::from_utf8_lossy(&out.stdout).into_owned(),
                stderr(&out),
            )
        };
        let (absolute, _) = run("--supp", "7");
        assert!(absolute.lines().any(|l| l == "1 (7)"), "{absolute}");
        let (relative, summary) = run("--supp-rel", fraction);
        assert_eq!(relative, absolute, "--supp-rel {fraction} of {rows} rows");
        assert!(summary.contains("at supp >= 7 "), "{summary}");
    }
}

/// A per-test scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("fim_cli_{}_{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self, file: &str) -> String {
        self.0.join(file).to_string_lossy().into_owned()
    }

    /// Writes `fim gen --preset P --scale S --seed 1` to `file`.
    fn preset(&self, preset: &str, scale: &str, file: &str) -> String {
        let path = self.path(file);
        let out = fim()
            .args(["gen", "--preset", preset, "--scale", scale, "--seed", "1"])
            .args(["--out", &path])
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", stderr(&out));
        path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn mine(data: &str, args: &[&str]) -> Output {
    fim()
        .args(["mine", "--supp", "4", "--in", data])
        .args(args)
        .output()
        .unwrap()
}

/// The `"miner"` and `search_steps` entries of a metrics document.
fn miner_and_steps(metrics: &str) -> (String, String) {
    let doc = std::fs::read_to_string(metrics).unwrap();
    let field = |key: &str| {
        let at = doc.find(key).unwrap_or_else(|| panic!("no {key} in {doc}")) + key.len();
        doc[at..]
            .split([',', '}', '\n'])
            .next()
            .unwrap()
            .trim()
            .to_owned()
    };
    (field("\"miner\":"), field("\"search_steps\":"))
}

/// Every `fim algos` name in every mode of the in-memory pipeline prints
/// the bytes `carpenter-table` prints in that mode; the last mode runs
/// every name governed, constrained and observed at once.
#[test]
fn all_algorithms_agree_via_cli() {
    let dir = Scratch::new("agree");
    let data = dir.preset("yeast", "0.05", "data.fimi");
    let algos = fim().arg("algos").output().unwrap();
    let names: Vec<String> = String::from_utf8(algos.stdout)
        .unwrap()
        .lines()
        .map(str::to_owned)
        .collect();
    assert_eq!(names.len(), 25);
    let metrics = dir.path("metrics.json");
    let ledger = dir.path("ledger.jsonl");
    // an explicit transaction order and each miner's own give the same
    // bytes
    let modes: [&[&str]; 8] = [
        &[],
        &["--metrics", &metrics],
        &["--timeout", "1000000"],
        &["--min-size", "1"],
        &["--maximal"],
        &["--tx-order", "asc"],
        &["--tx-order", "orig"],
        &[
            "--metrics",
            &metrics,
            "--ledger",
            &ledger,
            "--timeout",
            "1000000",
            "--min-size",
            "1",
        ],
    ];
    for mode in modes {
        let want = mine(&data, &[&["--algo", "carpenter-table"], mode].concat());
        assert!(want.status.success(), "{mode:?}: {}", stderr(&want));
        assert!(!want.stdout.is_empty());
        for name in &names {
            let out = mine(&data, &[&["--algo", name.as_str()], mode].concat());
            assert!(out.status.success(), "{name} {mode:?}: {}", stderr(&out));
            assert!(
                out.stdout == want.stdout,
                "{name} {mode:?} disagrees with carpenter-table"
            );
        }
    }
}

/// `--no-prune` builds the unpruned Carpenter table whether or not a
/// constraint flag is present.
#[test]
fn no_prune_survives_constraints_under_metrics() {
    let dir = Scratch::new("noprune");
    let data = dir.preset("ncbi60", "0.1", "data.fimi");
    let metrics = dir.path("metrics.json");
    let algo = [
        "--algo",
        "carpenter-table",
        "--no-prune",
        "--metrics",
        &metrics,
    ];
    assert!(mine(&data, &algo).status.success());
    let plain = miner_and_steps(&metrics);
    assert_eq!(plain.0, "\"carpenter-table-noprune\"");
    assert!(mine(&data, &[&algo[..], &["--min-size", "2"]].concat())
        .status
        .success());
    assert_eq!(miner_and_steps(&metrics), plain);
}

/// A table name is accepted wherever its flag spelling is, and runs the
/// same miner.
#[test]
fn names_are_accepted_where_their_flag_spellings_are() {
    let dir = Scratch::new("spelling");
    let data = dir.preset("ncbi60", "0.1", "data.fimi");
    let run = |query: &[&str]| {
        let out = mine(&data, query);
        assert!(out.status.success(), "{query:?}: {}", stderr(&out));
        out.stdout
    };
    let metrics = dir.path("metrics.json");
    let observed = |algo: &[&str]| {
        let stdout = run(&[algo, &["--metrics", &metrics]].concat());
        (stdout, miner_and_steps(&metrics))
    };
    assert_eq!(
        observed(&["--algo", "carpenter-table-noprune"]),
        observed(&["--algo", "carpenter-table", "--no-prune"])
    );
    let spill = dir.path("spill");
    let oocore = [
        "--out-of-core",
        "--mem-budget",
        "512",
        "--spill-dir",
        &spill,
    ];
    assert_eq!(
        run(&[&["--algo", "ista-noprune"], &oocore[..]].concat()),
        run(&[&["--algo", "ista", "--no-prune"], &oocore[..]].concat())
    );
}

/// The metrics' `spill.shards` counts the shard trees spilled, as the
/// summary line does, while `spill_bytes` also counts the merge re-spills.
#[test]
fn spill_metrics_count_shards_and_every_spilled_byte() {
    let dir = Scratch::new("spillcount");
    let data = dir.preset("yeast", "0.05", "data.fimi");
    let metrics = dir.path("metrics.json");
    let spill = dir.path("spill");
    let out = mine(
        &data,
        &[
            "--out-of-core",
            "--mem-budget",
            "512",
            "--spill-dir",
            &spill,
            "--metrics",
            &metrics,
        ],
    );
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stderr(&out).contains(" over 4 shards (6 spilled, 3 merge passes)"),
        "{}",
        stderr(&out)
    );
    let doc = std::fs::read_to_string(&metrics).unwrap();
    assert!(
        doc.contains("\"spill\": {\"shards\": 4, \"spill_bytes\": 13828, \"merge_passes\": 3,"),
        "{doc}"
    );
}

/// A kernel IsTa lacks runs, and is reported, as scalar: IsTa has no
/// gallop kernel.
#[test]
fn metrics_name_the_ista_kernel_that_runs() {
    let dir = Scratch::new("istarep");
    let data = dir.preset("ncbi60", "0.1", "data.fimi");
    let metrics = dir.path("metrics.json");
    let want = mine(&data, &["--algo", "ista"]);
    let out = mine(
        &data,
        &["--algo", "ista", "--rep", "gallop", "--metrics", &metrics],
    );
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(out.stdout == want.stdout);
    let doc = std::fs::read_to_string(&metrics).unwrap();
    assert!(doc.contains("\"rep\": \"scalar\""), "{doc}");
}

/// A run where no miner runs (a must-include item does not survive the
/// threshold) keeps the name of the miner it asked for.
#[test]
fn unsatisfiable_include_keeps_the_miner_name() {
    let dir = Scratch::new("include");
    let data = dir.preset("ncbi60", "0.1", "data.fimi");
    let metrics = dir.path("metrics.json");
    let query = ["--algo", "carpenter-lists-bitset", "--include", "23"];
    for extra in [&[][..], &["--metrics", &metrics]] {
        let out = mine(&data, &[&query[..], extra].concat());
        assert!(out.status.success(), "{}", stderr(&out));
        assert!(out.stdout.is_empty());
        assert!(
            stderr(&out).starts_with("carpenter-lists-bitset: 0 closed sets"),
            "{}",
            stderr(&out)
        );
    }
    let doc = std::fs::read_to_string(&metrics).unwrap();
    assert!(
        doc.contains("\"miner\": \"carpenter-lists-bitset\""),
        "{doc}"
    );
}

#[test]
fn rules_and_stats_run() {
    let mut child = fim()
        .args(["stats"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"a b\nb c\na b c\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("transactions       3"));

    let mut child = fim()
        .args(["rules", "--supp", "2", "--conf", "0.5"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"a b\nb c\na b c\na b\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("->"), "expected rules, got: {text}");
}

#[test]
fn unknown_algorithm_fails_cleanly() {
    let mut child = fim()
        .args(["mine", "--supp", "2", "--algo", "bogus"])
        .stdin(Stdio::piped())
        .stderr(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    // the process may exit (with the error) before stdin is consumed, so
    // a broken pipe here is expected — ignore the write result
    let _ = child.stdin.as_mut().unwrap().write_all(b"a b\n");
    let out = child.wait_with_output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown algorithm"));
}

#[test]
fn no_prune_variants() {
    let mut child = fim()
        .args(["mine", "--supp", "1", "--algo", "ista", "--no-prune"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"a b\na c\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("a (2)"));
}

#[test]
fn stdout_and_file_results_are_byte_identical() {
    let dir = std::env::temp_dir().join(format!("fim_cli_out_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("in.fimi");
    let file = dir.join("out.txt");
    let gen = fim()
        .args(["gen", "--preset", "ncbi60", "--scale", "0.2", "--out"])
        .arg(&data)
        .output()
        .unwrap();
    assert!(gen.status.success());
    // about 110 KB: more than one of the writer's chunks
    let mine = ["mine", "--supp", "8", "--in"];
    let piped = fim().args(mine).arg(&data).output().unwrap();
    assert!(piped.status.success());
    let written = fim()
        .args(mine)
        .arg(&data)
        .arg("--out")
        .arg(&file)
        .output()
        .unwrap();
    assert!(written.status.success());
    let bytes = std::fs::read(&file).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert!(bytes.len() > 64 << 10, "{} bytes", bytes.len());
    assert!(piped.stdout == bytes, "--out - and --out FILE differ");
}

/// `--supp 0` mines at 1, as `--supp-rel 0` does, and both name the
/// threshold that ran: in the summary line, the metrics and the ledger,
/// on the in-memory and checkpoint paths alike, and in `fim rules`.
#[test]
fn supp_zero_names_the_threshold_that_ran() {
    let dir = Scratch::new("supp_zero");
    let data = dir.path("in.fimi");
    std::fs::write(&data, "a b c\na b\nb c\n").unwrap();
    let field = |doc: &str| {
        let at = doc
            .find("\"supp\":")
            .unwrap_or_else(|| panic!("no supp in {doc}"))
            + 7;
        doc[at..]
            .split([',', '}'])
            .next()
            .unwrap()
            .trim()
            .to_owned()
    };
    let want = mine_at(&data, &["--supp", "1"]).stdout;
    for (k, spelling) in [
        &["--supp", "0"][..],
        &["--supp-rel", "0"],
        &["--supp", "0", "--checkpoint", &dir.path("ck.bin")],
    ]
    .into_iter()
    .enumerate()
    {
        let metrics = dir.path(&format!("m{k}.json"));
        let ledger = dir.path(&format!("l{k}.jsonl"));
        let out = mine_at(
            &data,
            &[spelling, &["--metrics", &metrics, "--ledger", &ledger]].concat(),
        );
        assert!(out.status.success(), "{spelling:?}: {}", stderr(&out));
        assert_eq!(out.stdout, want, "{spelling:?}");
        assert!(
            stderr(&out).contains("at supp >= 1 "),
            "{spelling:?}: {}",
            stderr(&out)
        );
        let metrics = std::fs::read_to_string(&metrics).unwrap();
        assert_eq!(field(&metrics), "1", "{spelling:?} metrics");
        let ledger = std::fs::read_to_string(&ledger).unwrap();
        assert_eq!(field(&ledger), "1", "{spelling:?} ledger");
    }
    let rules = fim()
        .args(["rules", "--supp", "0", "--conf", "0.5", "--in", &data])
        .output()
        .unwrap();
    assert!(rules.status.success(), "{}", stderr(&rules));
    assert!(stderr(&rules).contains("(supp >= 1,"), "{}", stderr(&rules));
}

fn mine_at(data: &str, args: &[&str]) -> Output {
    fim()
        .args(["mine", "--in", data])
        .args(args)
        .output()
        .unwrap()
}
