//! Unit tests for the harness plumbing that the experiment binaries rely
//! on: argument parsing, sweep scaling, and in-process cell execution.

use fim_bench::harness::{parse_kv, preset_by_name, scaled_sweep};
use fim_bench::{run_cell, CellOutcome, CellRun, SweepConfig};
use fim_core::{ItemOrder, TransactionOrder};
use fim_synth::Preset;
use std::time::Duration;

fn done(run: CellRun) -> CellOutcome {
    match run {
        CellRun::Done(out) => out,
        CellRun::Tripped(reason) => panic!("cell unexpectedly tripped: {reason}"),
    }
}

fn sv(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

#[test]
fn parse_kv_pairs() {
    let kv = parse_kv(&sv(&["--scale", "0.5", "--seed", "7"])).unwrap();
    assert_eq!(kv.get("scale").unwrap(), "0.5");
    assert_eq!(kv.get("seed").unwrap(), "7");
    assert!(parse_kv(&sv(&["scale", "0.5"])).is_err());
    assert!(parse_kv(&sv(&["--scale"])).is_err());
}

#[test]
fn preset_lookup() {
    for p in Preset::ALL {
        assert_eq!(preset_by_name(p.name()).unwrap(), p);
    }
    assert!(preset_by_name("nope").is_err());
}

#[test]
fn scaled_sweep_shrinks_with_scale() {
    let full = scaled_sweep(Preset::Ncbi60, 1.0);
    let half = scaled_sweep(Preset::Ncbi60, 0.5);
    assert_eq!(full, Preset::Ncbi60.paper_sweep());
    assert_eq!(half.len(), full.len());
    for (f, h) in full.iter().zip(&half) {
        assert_eq!(*h, ((*f as f64) * 0.5).round() as u32);
    }
    // tiny scales clamp to 1 and dedup
    let tiny = scaled_sweep(Preset::Webview, 0.01);
    assert!(!tiny.is_empty());
    assert!(tiny.iter().all(|&s| s >= 1));
    assert!(tiny.windows(2).all(|w| w[0] > w[1]));
}

#[test]
fn sweep_config_overrides() {
    let mut c = SweepConfig::for_figure(Preset::Yeast, 0.25, &["ista"]);
    c.apply_args(&sv(&[
        "--seed",
        "9",
        "--timeout",
        "5",
        "--miners",
        "ista,lcm",
        "--supps",
        "8,4,2",
    ]))
    .unwrap();
    assert_eq!(c.seed, 9);
    assert_eq!(c.timeout.as_secs(), 5);
    assert_eq!(c.miners, vec!["ista".to_string(), "lcm".to_string()]);
    assert_eq!(c.supports, vec![8, 4, 2]);
    assert!(c.apply_args(&sv(&["--supps", "x"])).is_err());
}

#[test]
fn run_cell_executes_and_counts() {
    let out = done(
        run_cell(
            Preset::Ncbi60,
            0.08,
            3,
            "ista",
            4,
            ItemOrder::AscendingFrequency,
            TransactionOrder::AscendingSize,
            None,
        )
        .unwrap(),
    );
    assert!(out.sets > 0);
    assert!(out.seconds >= 0.0);
    // a second run with another algorithm must agree on the count
    let out2 = done(
        run_cell(
            Preset::Ncbi60,
            0.08,
            3,
            "carpenter-table",
            4,
            ItemOrder::AscendingFrequency,
            TransactionOrder::AscendingSize,
            None,
        )
        .unwrap(),
    );
    assert_eq!(out.sets, out2.sets);
}

#[test]
fn run_cell_generous_budget_still_completes() {
    let out = run_cell(
        Preset::Ncbi60,
        0.08,
        3,
        "ista",
        4,
        ItemOrder::AscendingFrequency,
        TransactionOrder::AscendingSize,
        Some(Duration::from_secs(600)),
    )
    .unwrap();
    assert!(matches!(out, CellRun::Done(_)), "{out:?}");
}

#[test]
fn run_cell_zero_budget_trips_cooperatively() {
    let out = run_cell(
        Preset::Ncbi60,
        0.08,
        3,
        "ista",
        4,
        ItemOrder::AscendingFrequency,
        TransactionOrder::AscendingSize,
        Some(Duration::ZERO),
    )
    .unwrap();
    assert!(matches!(out, CellRun::Tripped(_)), "{out:?}");
}

#[test]
fn run_cell_unknown_miner_is_error() {
    assert!(run_cell(
        Preset::Ncbi60,
        0.05,
        1,
        "bogus",
        2,
        ItemOrder::AscendingFrequency,
        TransactionOrder::AscendingSize,
        None,
    )
    .is_err());
}
