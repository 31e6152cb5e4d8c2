//! Aggregates all recorded sweeps (`target/experiments/*.csv`) into the
//! paper-vs-measured verdict: per data set, the fastest algorithm at the
//! highest and lowest completed support, the IsTa-relative factors, and
//! where each enumeration baseline dropped out.

use fim_bench::report::experiments_dir;
use std::collections::BTreeMap;

#[derive(Debug, Default, Clone)]
struct Cell {
    seconds: Option<f64>,
    status: String,
}

fn main() {
    let dir = experiments_dir();
    let mut found_any = false;
    let mut entries: Vec<_> = match std::fs::read_dir(&dir) {
        Ok(rd) => rd.flatten().collect(),
        Err(_) => Vec::new(),
    };
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        if path.extension().map(|e| e != "csv").unwrap_or(true) {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        // supp -> miner -> cell
        let mut table: BTreeMap<u32, BTreeMap<String, Cell>> = BTreeMap::new();
        let mut dataset = String::new();
        for line in text.lines().skip(1) {
            let cols: Vec<&str> = line.split(',').collect();
            if cols.len() < 6 {
                continue;
            }
            dataset = cols[0].to_owned();
            let Ok(supp) = cols[1].parse::<u32>() else {
                continue;
            };
            table.entry(supp).or_default().insert(
                cols[2].to_owned(),
                Cell {
                    seconds: cols[4].parse().ok(),
                    status: cols[3].to_owned(),
                },
            );
        }
        if table.is_empty() {
            continue;
        }
        found_any = true;
        println!(
            "== {} ({})",
            path.file_name().unwrap().to_string_lossy(),
            dataset
        );
        // per support (descending): winner and ista-relative factors
        for (supp, miners) in table.iter().rev() {
            let mut oks: Vec<(&String, f64)> = miners
                .iter()
                .filter_map(|(m, c)| c.seconds.map(|s| (m, s)))
                .collect();
            if oks.is_empty() {
                continue;
            }
            oks.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
            let (winner, best) = (&oks[0].0, oks[0].1);
            let ista = miners.get("ista").and_then(|c| c.seconds);
            let rel = ista
                .map(|i| format!("{:>6.2}x ista", best / i.max(1e-9)))
                .unwrap_or_default();
            let dead: Vec<&str> = miners
                .iter()
                .filter(|(_, c)| c.status == "timeout")
                .map(|(m, _)| m.as_str())
                .collect();
            println!(
                "  supp {supp:>5}: fastest {winner:<22} {best:>9.3}s {rel:>14} {}",
                if dead.is_empty() {
                    String::new()
                } else {
                    format!("(timed out: {})", dead.join(", "))
                }
            );
        }
        println!();
    }
    if !found_any {
        eprintln!(
            "summary: no CSV records in {} — run the fig* binaries first",
            dir.display()
        );
        std::process::exit(1);
    }
}
