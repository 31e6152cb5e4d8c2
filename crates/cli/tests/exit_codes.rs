//! End-to-end tests of the `fim` binary's documented exit codes:
//! 0 success, 1 other, 2 usage, 3 parse, 4 budget tripped. The CI
//! fault-injection job re-asserts the same contract from the shell against
//! the malformed corpus, so these codes are a stable interface.

use std::path::PathBuf;
use std::process::{Command, Output};

fn fim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fim"))
        .args(args)
        .output()
        .expect("spawn fim")
}

/// The io crate's test corpus, shared instead of duplicated.
fn data(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../io/tests/data")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exit code")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A per-test scratch path, cleaned up on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let p = std::env::temp_dir().join(format!("fim_cli_{}_{name}", std::process::id()));
        Scratch(p)
    }
    fn path(&self) -> String {
        self.0.to_string_lossy().into_owned()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

#[test]
fn success_is_exit_zero() {
    let out = fim(&["mine", "--supp", "1", "--in", &data("valid.fimi")]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert!(!out.stdout.is_empty());
}

#[test]
fn usage_errors_exit_2() {
    for argv in [
        vec!["frobnicate"],
        vec!["mine", "--in", &data("valid.fimi")], // missing --supp
        vec![
            "mine",
            "--supp",
            "not-a-number",
            "--in",
            &data("valid.fimi"),
        ],
        vec![
            "mine",
            "--supp",
            "1",
            "--in",
            &data("valid.fimi"),
            "--degrade",
        ],
        vec![
            "mine",
            "--supp",
            "1",
            "--algo",
            "no-such-algo",
            "--in",
            &data("valid.fimi"),
        ],
        vec![
            "mine",
            "--supp",
            "1",
            "--algo",
            "ista-plain",
            "--in",
            &data("valid.fimi"),
        ],
        vec![
            "mine",
            "--supp",
            "1",
            "--algo",
            "eclat",
            "--in",
            &data("valid.fimi"),
            "--checkpoint",
            "/tmp/x",
        ],
    ] {
        let out = fim(&argv);
        assert_eq!(code(&out), 2, "argv {argv:?}: {}", stderr(&out));
        assert!(stderr(&out).contains("fim help"), "argv {argv:?}");
    }
}

/// Every subcommand takes only the flags its usage text documents: a
/// misspelt or retired flag is a usage error naming it, never a silently
/// different query.
#[test]
fn unknown_flags_exit_2_naming_the_flag() {
    let valid = data("valid.fimi");
    let mine = |flag: &'static str, value: Option<&'static str>| {
        let mut argv = vec!["mine", "--supp", "1", "--in", valid.as_str(), flag];
        argv.extend(value);
        argv
    };
    for (argv, flag) in [
        (mine("--timout", Some("0")), "--timout"),
        (mine("--min-sise", Some("5")), "--min-sise"),
        (mine("--no-coalesce", None), "--no-coalesce"),
        (mine("--no-compact", None), "--no-compact"),
        (mine("--no-patricia", None), "--no-patricia"),
        (vec!["gen", "--preset", "ncbi60", "--seeed", "5"], "--seeed"),
        (
            vec![
                "rules",
                "--supp",
                "1",
                "--in",
                &valid,
                "--confidence",
                "0.5",
            ],
            "--confidence",
        ),
        (vec!["stats", "--in", &valid, "--bogus"], "--bogus"),
        (vec!["compare", "--base", &valid, "--nwe", &valid], "--nwe"),
        (vec!["trace-export", "--inn", &valid], "--inn"),
        (vec!["algos", "--all"], "--all"),
    ] {
        let out = fim(&argv);
        assert_eq!(code(&out), 2, "argv {argv:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains(&format!("unknown flag '{flag}'")),
            "argv {argv:?}: {}",
            stderr(&out)
        );
        assert!(out.stdout.is_empty(), "argv {argv:?}");
    }
    // the fault flag is read before dispatch, so every subcommand takes it
    let out = fim(&["stats", "--in", &valid, "--inject-fault", "spill.write:1"]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
}

/// A flag that takes no value rejects one, naming the flag, instead of
/// silently swallowing the next argument (`--no-push false` would turn the
/// post-filter on, `--maximal extra.txt` would drop the file name).
#[test]
fn bare_flags_given_a_value_exit_2_naming_the_flag() {
    let valid = data("valid.fimi");
    for flag in [
        "--maximal",
        "--no-prune",
        "--no-push",
        "--stats",
        "--degrade",
        "--out-of-core",
        "--resume-spill",
    ] {
        let out = fim(&["mine", "--supp", "1", "--in", &valid, flag, "extra.txt"]);
        assert_eq!(code(&out), 2, "{flag}: {}", stderr(&out));
        assert!(
            stderr(&out).contains(&format!("{flag} takes no value (got 'extra.txt')")),
            "{flag}: {}",
            stderr(&out)
        );
        assert!(out.stdout.is_empty(), "{flag}");
    }
    let out = fim(&[
        "compare", "--base", &valid, "--new", &valid, "--json", "yes",
    ]);
    assert_eq!(code(&out), 2, "{}", stderr(&out));
    assert!(
        stderr(&out).contains("--json takes no value"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn malformed_input_exits_3_with_line_number() {
    for file in [
        "malformed/control_char.fimi",
        "malformed/huge_code.fimi",
        "malformed/negative_code.fimi",
        "malformed/not_utf8.fimi",
    ] {
        let out = fim(&["mine", "--supp", "1", "--in", &data(file)]);
        assert_eq!(code(&out), 3, "{file}: {}", stderr(&out));
        assert!(stderr(&out).contains("line 2"), "{file}: {}", stderr(&out));
    }
}

#[test]
fn tripped_timeout_exits_4_for_every_governed_algo() {
    for algo in ["ista", "carpenter-lists", "eclat"] {
        let out = fim(&[
            "mine",
            "--supp",
            "1",
            "--algo",
            algo,
            "--in",
            &data("valid.fimi"),
            "--timeout",
            "0",
        ]);
        assert_eq!(code(&out), 4, "{algo}: {}", stderr(&out));
        assert!(stderr(&out).contains("timeout"), "{algo}: {}", stderr(&out));
    }
}

#[test]
fn degradation_completes_with_exit_zero() {
    let out = fim(&[
        "mine",
        "--supp",
        "1",
        "--in",
        &data("valid.fimi"),
        "--max-nodes",
        "1",
        "--degrade",
    ]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert!(stderr(&out).contains("degraded"), "{}", stderr(&out));
}

#[test]
fn checkpoint_trip_then_resume_matches_straight_run() {
    let ck = Scratch::new("resume.ck");
    let straight = fim(&["mine", "--supp", "1", "--in", &data("valid.fimi")]);
    assert_eq!(code(&straight), 0, "{}", stderr(&straight));

    // a 1-node budget trips after the first transaction builds its path
    let tripped = fim(&[
        "mine",
        "--supp",
        "1",
        "--in",
        &data("valid.fimi"),
        "--checkpoint",
        &ck.path(),
        "--max-nodes",
        "1",
    ]);
    assert_eq!(code(&tripped), 4, "{}", stderr(&tripped));
    assert!(
        stderr(&tripped).contains("--resume"),
        "{}",
        stderr(&tripped)
    );

    let resumed = fim(&[
        "mine",
        "--supp",
        "1",
        "--in",
        &data("valid.fimi"),
        "--resume",
        &ck.path(),
    ]);
    assert_eq!(code(&resumed), 0, "{}", stderr(&resumed));
    assert_eq!(
        String::from_utf8_lossy(&resumed.stdout),
        String::from_utf8_lossy(&straight.stdout),
        "resumed run diverged from the uninterrupted one"
    );
}

#[test]
fn corrupt_checkpoint_exits_3() {
    let ck = Scratch::new("corrupt.ck");
    std::fs::write(&ck.0, b"ISTC garbage that is no checkpoint").expect("write scratch");
    let out = fim(&[
        "mine",
        "--supp",
        "1",
        "--in",
        &data("valid.fimi"),
        "--resume",
        &ck.path(),
    ]);
    assert_eq!(code(&out), 3, "{}", stderr(&out));
}

#[test]
fn truncated_checkpoint_exits_3_naming_file_and_offset() {
    let ck = Scratch::new("truncated.ck");
    // write a real checkpoint, then chop off its tail
    let written = fim(&[
        "mine",
        "--supp",
        "1",
        "--in",
        &data("valid.fimi"),
        "--checkpoint",
        &ck.path(),
    ]);
    assert_eq!(code(&written), 0, "{}", stderr(&written));
    let full = std::fs::read(&ck.0).expect("read checkpoint");
    // cut inside the catalog header (magic 0..4, version 4..8, name count
    // 8..12) so the error carries the reader's byte-offset context
    let cut = 10.min(full.len());
    std::fs::write(&ck.0, &full[..cut]).expect("truncate checkpoint");
    let out = fim(&[
        "mine",
        "--supp",
        "1",
        "--in",
        &data("valid.fimi"),
        "--resume",
        &ck.path(),
    ]);
    assert_eq!(code(&out), 3, "{}", stderr(&out));
    let msg = stderr(&out);
    assert!(msg.contains(&ck.path()), "must name the file: {msg}");
    assert!(msg.contains("byte"), "must give offset context: {msg}");
}

#[test]
fn missing_input_file_exits_1() {
    let out = fim(&["mine", "--supp", "1", "--in", "/nonexistent/nowhere.fimi"]);
    assert_eq!(code(&out), 1, "{}", stderr(&out));
}

/// A bad order or algorithm name is a usage error found before the input
/// is opened, so a missing input does not hide it.
#[test]
fn order_and_algorithm_flags_are_checked_before_the_input() {
    let missing = "/nonexistent/nowhere.fimi";
    for (argv, flag) in [
        (
            vec![
                "mine",
                "--supp",
                "2",
                "--tx-order",
                "bogus",
                "--in",
                missing,
            ],
            "--tx-order",
        ),
        (
            vec![
                "mine",
                "--supp",
                "2",
                "--item-order",
                "bogus",
                "--in",
                missing,
            ],
            "--item-order",
        ),
        (
            vec!["rules", "--supp", "2", "--algo", "bogus", "--in", missing],
            "unknown algorithm",
        ),
    ] {
        let out = fim(&argv);
        assert_eq!(code(&out), 2, "argv {argv:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains(flag),
            "argv {argv:?}: {}",
            stderr(&out)
        );
    }
}

/// A result smaller than any write buffer reaches the device only at the
/// final flush; a failing flush must still exit 1, not 0.
#[test]
fn full_device_on_final_flush_exits_1() {
    if !std::path::Path::new("/dev/full").exists() {
        eprintln!("skipped: no /dev/full on this system");
        return;
    }
    for command in [
        vec!["mine", "--supp", "1", "--in", &data("valid.fimi")],
        vec!["gen", "--preset", "ncbi60", "--scale", "0.05"],
    ] {
        let mut argv = command.clone();
        argv.extend(["--out", "/dev/full"]);
        let out = fim(&argv);
        assert_eq!(code(&out), 1, "{command:?}: {}", stderr(&out));
    }
}
