//! `telemetry` — streaming-telemetry export for a deterministic
//! multi-tenant fleet run, plus the bench-regression diff gate.
//!
//! ```text
//! Usage: telemetry [--tenants N] [--epochs N] [--seed N] [--flow-frac X]
//!                  [--out-prom FILE] [--out-jsonl FILE] [--check-determinism]
//!        telemetry bench-diff OLD NEW [--max-polish-regress-pct X]
//! ```
//!
//! The default mode runs a mixed B4/IBM fleet (every tenant under a
//! lenient SLO tracker) and exports its telemetry snapshot as
//! Prometheus text and JSON lines. With `--check-determinism` the run
//! repeats at the same configuration and the process exits non-zero
//! unless both exports are byte-identical — the CI smoke invariant.
//!
//! `bench-diff` compares two `BENCH_solver.json` files and exits
//! non-zero when any `(backend, config)` row's polish time regressed
//! past the allowed percentage (default 15%).

use prete_bench::telemetry::{
    bench_diff, export, read_bench_file, telemetry_fleet, TelemetryRunConfig,
};
use std::io::Write as _;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("bench-diff") {
        run_bench_diff(&args[1..]);
        return;
    }
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let defaults = TelemetryRunConfig::default();
    let cfg = TelemetryRunConfig {
        tenants: flag("--tenants")
            .map(|v| v.parse().expect("--tenants takes an integer"))
            .unwrap_or(defaults.tenants),
        epochs: flag("--epochs")
            .map(|v| v.parse().expect("--epochs takes an integer"))
            .unwrap_or(defaults.epochs),
        seed: flag("--seed")
            .map(|v| v.parse().expect("--seed takes an integer"))
            .unwrap_or(defaults.seed),
        flow_frac: flag("--flow-frac")
            .map(|v| v.parse().expect("--flow-frac takes a number"))
            .unwrap_or(defaults.flow_frac),
    };

    let report = telemetry_fleet(&cfg).expect("telemetry fleet runs");
    let exports = export(&report);
    let alerts: usize = report.telemetry.tenants.iter().map(|t| t.alerts.len()).sum();
    let anomalies: usize =
        report.telemetry.tenants.iter().map(|t| t.anomalies.len()).sum();
    println!(
        "Telemetry fleet: {} tenants × {} epochs (seed {}, {} rounds)",
        cfg.tenants, cfg.epochs, cfg.seed, report.rounds
    );
    for t in &report.telemetry.tenants {
        println!(
            "  tenant {}: series={} alerts={} anomalies={}",
            t.tenant,
            t.series.len(),
            t.alerts.len(),
            t.anomalies.len()
        );
    }
    println!(
        "  fleet: series={} alerts={} anomalies={} quarantined={}",
        report.telemetry.fleet.len(),
        alerts,
        anomalies,
        report.quarantined
    );

    if let Some(path) = flag("--out-prom") {
        write_out(&path, &exports.prom);
        println!("  [prometheus → {path}]");
    }
    if let Some(path) = flag("--out-jsonl") {
        write_out(&path, &exports.jsonl);
        println!("  [jsonl → {path}]");
    }

    if args.iter().any(|a| a == "--check-determinism") {
        // Re-run the same configuration: every exported byte must be
        // a pure function of the run's inputs.
        let again = export(&telemetry_fleet(&cfg).expect("repeat fleet runs"));
        if again != exports {
            eprintln!("telemetry exports diverged across repeat runs");
            std::process::exit(1);
        }
        println!("  determinism: exports byte-identical across repeat runs");
    }
}

fn run_bench_diff(args: &[String]) {
    let positional: Vec<&String> =
        args.iter().filter(|a| !a.starts_with("--")).take(2).collect();
    let [old_path, new_path] = positional[..] else {
        eprintln!("Usage: telemetry bench-diff OLD NEW [--max-polish-regress-pct X]");
        std::process::exit(2);
    };
    let max_pct: f64 = args
        .iter()
        .position(|a| a == "--max-polish-regress-pct")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--max-polish-regress-pct takes a number"))
        .unwrap_or(15.0);
    // A missing or unreadable baseline is an operator error, not a
    // bug: report it cleanly and exit with the usage code instead of
    // panicking (first runs on a fresh branch have no old baseline).
    let read = |label: &str, path: &String| {
        read_bench_file(label, path).unwrap_or_else(|e| {
            eprintln!("bench-diff: {e}");
            std::process::exit(2);
        })
    };
    let old = read("old", old_path);
    let new = read("new", new_path);
    match bench_diff(&old, &new, max_pct) {
        Ok(diff) => {
            print!("{}", diff.render());
            let regs = diff.regressions();
            if !regs.is_empty() {
                eprintln!("{} row(s) regressed past {max_pct}%", regs.len());
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("bench-diff failed: {e}");
            std::process::exit(2);
        }
    }
}

fn write_out(path: &str, contents: &str) {
    let mut f = std::fs::File::create(path).unwrap_or_else(|e| panic!("create {path}: {e}"));
    f.write_all(contents.as_bytes())
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
}
