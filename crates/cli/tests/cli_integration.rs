//! End-to-end tests of the `fim` binary via `CARGO_BIN_EXE`.

use std::io::Write;
use std::process::{Command, Stdio};

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

#[test]
fn all_algorithms_agree_via_cli() {
    let dir = std::env::temp_dir().join("fim_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("data.fimi");

    // generate a small preset data set
    let out = fim()
        .args([
            "gen", "--preset", "ncbi60", "--scale", "0.08", "--seed", "3",
        ])
        .args(["--out", data.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let mut results: Vec<String> = Vec::new();
    for algo in [
        "ista",
        "carpenter-table",
        "carpenter-lists",
        "lcm",
        "fpclose",
    ] {
        let out = fim()
            .args(["mine", "--supp", "4", "--algo", algo])
            .args(["--in", data.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(out.status.success(), "{algo}");
        let mut lines: Vec<String> = String::from_utf8(out.stdout)
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect();
        lines.sort();
        results.push(lines.join("\n"));
    }
    for r in &results[1..] {
        assert_eq!(r, &results[0], "algorithms disagree through the CLI");
    }
    std::fs::remove_file(&data).ok();
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
