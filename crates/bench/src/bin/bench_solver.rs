//! `bench_solver` — cold vs warm-started TE solver timings, per LP
//! backend, on a WAN topology.
//!
//! ```text
//! Usage: bench_solver [--epochs N] [--out FILE] [--min-speedup X]
//!                     [--backend dense|sparse|both]
//!                     [--topology twan|b4|ibm|gen:waxman:N[:SEED]|gen:ring:N[:SEED]]
//!                     [--pricing dantzig|devex] [--eta-update product-form|forrest-tomlin]
//!                     [--cold-start auto|two-phase] [--min-polish-speedup X]
//!        bench_solver --topology gen:waxman:200 --max-cut-order 2
//!                     [--mass-floor X] [--max-scenarios N] [--tail-samples N]
//!        bench_solver --torture [--cases N] [--seed N] [--out FILE]
//! ```
//!
//! With `--min-speedup X` the process exits non-zero when the
//! cold-vs-warm speedup falls below `X`; with `--backend both` it
//! also exits non-zero when the sparse engine is slower than the dense
//! one on the `serial-cold` configuration — CI's regression gates.
//!
//! `--pricing` / `--eta-update` select the sparse engine's entering
//! rule and basis-update scheme for every benchmarked row, and
//! `--cold-start` its cold-solve strategy (the benchmark defaults to
//! `auto` — dual-simplex cold starts — unlike library callers, for
//! whom `two-phase` preserves historical pivot paths). With
//! `--min-polish-speedup X` the binary additionally re-runs the sparse
//! `serial-cold` workload under the legacy configuration — Dantzig
//! pricing, product-form etas, primal two-phase cold starts — and
//! exits non-zero when `legacy polish_ms / configured polish_ms < X`:
//! the self-relative Forrest–Tomlin + devex + dual-cold-start
//! regression gate (robust to machine speed).
//!
//! Writes the full [`prete_bench::runtime::SolverBench`] record
//! (per-configuration timings plus merged `SolverStats`) to
//! `BENCH_solver.json` by default; CI uploads that file as an
//! artifact.
//!
//! `--topology gen:FAMILY:N[:SEED]` benchmarks a seeded parametric
//! topology from [`prete_topology::generate`] instead of a Table 3 WAN,
//! and `--max-cut-order K` (with the optional `--mass-floor`,
//! `--max-scenarios` and `--tail-samples` budget knobs) switches the
//! scenario set to the budgeted streaming k-cut enumerator. Streaming
//! runs write the enumeration accounting next to the bench rows and
//! exit non-zero when the peak scenario-buffer count exceeds
//! `max_scenarios + 1` — CI's bounded-memory gate.
//!
//! `--torture` switches to the numerical-robustness sweep instead:
//! seeded ill-conditioned LPs (see [`prete_bench::torture`]) run
//! through the sparse engine against the dense oracle, writing a
//! [`prete_bench::torture::TortureReport`] JSON artifact
//! (`BENCH_torture.json` by default) and exiting non-zero on any
//! certification violation — an uncertified `Optimal`, or two
//! certified `Optimal`s that disagree.

use prete_bench::runtime::{bench_serial_cold_row, bench_solver_matrix, bench_solver_streaming};
use prete_core::prelude::{ColdStart, EtaUpdate, Pricing, ScenarioBudget, SolverBackend};
use prete_topology::{topologies, GenSpec};
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    if args.iter().any(|a| a == "--torture") {
        run_torture(&args);
        return;
    }
    let epochs: usize = flag("--epochs")
        .map(|v| v.parse().expect("--epochs takes an integer"))
        .unwrap_or(6);
    let out = flag("--out").unwrap_or_else(|| "BENCH_solver.json".into());
    let backends: Vec<SolverBackend> = match flag("--backend").as_deref() {
        None | Some("sparse") => vec![SolverBackend::SparseRevised],
        Some("dense") => vec![SolverBackend::DenseTableau],
        Some("both") => vec![SolverBackend::DenseTableau, SolverBackend::SparseRevised],
        Some(other) => panic!("--backend takes dense|sparse|both, got {other}"),
    };
    let net = match flag("--topology").as_deref() {
        None | Some("twan") => topologies::twan(),
        Some("b4") => topologies::b4(),
        Some("ibm") => topologies::ibm(),
        Some(spec) if spec.starts_with("gen:") => {
            let spec = GenSpec::parse(spec).expect("--topology gen:FAMILY:N[:SEED]");
            prete_topology::generate::generate(&spec)
        }
        Some(other) => {
            panic!("--topology takes twan|b4|ibm|gen:FAMILY:N[:SEED], got {other}")
        }
    };
    if let Some(k) = flag("--max-cut-order") {
        let budget = ScenarioBudget {
            max_cuts: k.parse().expect("--max-cut-order takes an integer"),
            mass_floor: flag("--mass-floor")
                .map(|v| v.parse().expect("--mass-floor takes a number"))
                .unwrap_or(0.0),
            max_scenarios: flag("--max-scenarios")
                .map(|v| v.parse().expect("--max-scenarios takes an integer"))
                .unwrap_or(1024),
            tail_samples: flag("--tail-samples")
                .map(|v| v.parse().expect("--tail-samples takes an integer"))
                .unwrap_or(0),
            seed: prete_bench::SEED,
        };
        run_streaming(&net, epochs, &budget, &out);
        return;
    }
    let pricing = match flag("--pricing").as_deref() {
        None | Some("dantzig") => Pricing::Dantzig,
        Some("devex") => Pricing::Devex,
        Some(other) => panic!("--pricing takes dantzig|devex, got {other}"),
    };
    let eta_update = match flag("--eta-update").as_deref() {
        None | Some("product-form") => EtaUpdate::ProductForm,
        Some("forrest-tomlin" | "ft") => EtaUpdate::ForrestTomlin,
        Some(other) => panic!("--eta-update takes product-form|forrest-tomlin, got {other}"),
    };
    let cold_start = match flag("--cold-start").as_deref() {
        None | Some("auto") => ColdStart::Auto,
        Some("two-phase") => ColdStart::TwoPhase,
        Some(other) => panic!("--cold-start takes auto|two-phase, got {other}"),
    };

    let bench = bench_solver_matrix(&net, epochs, &backends, pricing, eta_update, cold_start);
    println!(
        "Solver benchmark: {} epochs on {} ({pricing:?} pricing, {eta_update:?} updates)",
        bench.epochs, bench.topology
    );
    println!(
        "  {:<8} {:<16} {:>5} {:>10} {:>10} {:>9} {:>9} {:>7}",
        "backend", "config", "warm", "total ms", "epoch ms", "lp", "pivots", "hits"
    );
    for r in &bench.rows {
        println!(
            "  {:<8} {:<16} {:>5} {:>10.1} {:>10.1} {:>9} {:>9} {:>7}",
            match r.backend {
                SolverBackend::DenseTableau => "dense",
                SolverBackend::SparseRevised => "sparse",
            },
            r.config,
            r.warm,
            r.total_ms,
            r.mean_epoch_ms,
            r.stats.lp_solves,
            r.stats.pivots,
            r.stats.warm_hits,
        );
    }
    println!("  speedup (serial-cold / warm):          {:.2}x", bench.warm_speedup);
    if let Some(s) = bench.sparse_speedup {
        println!("  speedup (dense / sparse, serial-cold):   {s:.2}x");
    }

    let json = serde_json::to_string_pretty(&bench).expect("serialize");
    let mut f = std::fs::File::create(&out).expect("create output file");
    f.write_all(json.as_bytes()).expect("write output file");
    println!("  [json → {out}]");

    if let Some(min) = flag("--min-speedup") {
        let min: f64 = min.parse().expect("--min-speedup takes a number");
        if bench.warm_speedup < min {
            eprintln!("speedup {:.2}x below required {min}x", bench.warm_speedup);
            std::process::exit(1);
        }
    }
    if let Some(s) = bench.sparse_speedup {
        if s < 1.0 {
            eprintln!("sparse engine slower than dense: {s:.2}x");
            std::process::exit(1);
        }
    }
    if let Some(min) = flag("--min-polish-speedup") {
        let min: f64 = min.parse().expect("--min-polish-speedup takes a number");
        let configured = bench
            .rows
            .iter()
            .find(|r| r.backend == SolverBackend::SparseRevised && r.config == "serial-cold")
            .expect("--min-polish-speedup needs a sparse serial-cold row");
        let legacy = bench_serial_cold_row(
            &net,
            epochs,
            Pricing::Dantzig,
            EtaUpdate::ProductForm,
            ColdStart::TwoPhase,
        );
        let speedup = legacy.stats.polish_ms / configured.stats.polish_ms.max(1e-9);
        println!(
            "  polish_ms: legacy Dantzig/ProductForm/TwoPhase {:.1} vs \
             {pricing:?}/{eta_update:?} {:.1} ({speedup:.2}x)",
            legacy.stats.polish_ms, configured.stats.polish_ms
        );
        if speedup < min {
            eprintln!("polish speedup {speedup:.2}x below required {min}x");
            std::process::exit(1);
        }
    }
}

fn run_streaming(
    net: &prete_topology::Network,
    epochs: usize,
    budget: &ScenarioBudget,
    out: &str,
) {
    let (bench, enumeration) = bench_solver_streaming(net, epochs, budget);
    println!(
        "Streaming solver benchmark: {} epochs on {} (k={}, floor={:e}, cap={}, tail={})",
        bench.epochs,
        bench.topology,
        budget.max_cuts,
        budget.mass_floor,
        budget.max_scenarios,
        budget.tail_samples,
    );
    println!(
        "  scenarios: visited={} pruned={} peak_buffered={} mass={:.9} tail={:.3e} gap={:.1e}",
        enumeration.visited,
        enumeration.scenarios_pruned,
        enumeration.peak_buffered,
        enumeration.enumerated_mass,
        enumeration.truncated_tail,
        enumeration.mass_gap(),
    );
    for r in &bench.rows {
        println!(
            "  {:<16} total {:>9.1} ms  epoch {:>8.1} ms  lp={} pivots={}",
            r.config, r.total_ms, r.mean_epoch_ms, r.stats.lp_solves, r.stats.pivots
        );
    }
    println!("  speedup (serial-cold / warm): {:.2}x", bench.warm_speedup);

    // Serialize bench + enumeration + budget side by side in one
    // artifact.
    #[derive(serde::Serialize)]
    struct StreamingReport {
        budget: ScenarioBudget,
        enumeration: prete_core::prelude::EnumerationStats,
        bench: prete_bench::runtime::SolverBench,
    }
    let report =
        StreamingReport { budget: *budget, enumeration, bench };
    let json = serde_json::to_string_pretty(&report).expect("serialize");
    let mut f = std::fs::File::create(out).expect("create output file");
    f.write_all(json.as_bytes()).expect("write output file");
    println!("  [json → {out}]");

    // The bounded-memory gate: streaming enumeration must never hold
    // more than the configured cap (+ the no-failure scenario).
    if enumeration.peak_buffered > budget.max_scenarios.saturating_add(1) {
        eprintln!(
            "peak scenario buffer {} exceeds cap {} + 1 — streaming bound violated",
            enumeration.peak_buffered, budget.max_scenarios
        );
        std::process::exit(1);
    }
    if enumeration.mass_gap() > 1e-6 {
        eprintln!("scenario mass accounting gap {:.3e} above 1e-6", enumeration.mass_gap());
        std::process::exit(1);
    }
}

fn run_torture(args: &[String]) {
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let cases: usize = flag("--cases")
        .map(|v| v.parse().expect("--cases takes an integer"))
        .unwrap_or(320);
    let seed: u64 = flag("--seed")
        .map(|v| v.parse().expect("--seed takes an integer"))
        .unwrap_or(prete_bench::torture::SUITE_SEED);
    let out = flag("--out").unwrap_or_else(|| "BENCH_torture.json".into());

    let report = prete_bench::torture::run(seed, cases);
    println!(
        "Torture sweep: {} cases x {} sparse configs (seed {:#x})",
        report.cases, report.configs, report.seed
    );
    println!(
        "  certified agreements: {:>5}\n  suspect (declined):   {:>5}\n  \
         oracle refuted:       {:>5}\n  sparse refuted:       {:>5}\n  \
         not comparable:       {:>5}",
        report.certified_agreements,
        report.suspect,
        report.oracle_refuted,
        report.sparse_refuted,
        report.not_comparable
    );

    let json = serde_json::to_string_pretty(&report).expect("serialize");
    let mut f = std::fs::File::create(&out).expect("create output file");
    f.write_all(json.as_bytes()).expect("write output file");
    println!("  [json → {out}]");

    if !report.violations.is_empty() {
        for v in &report.violations {
            eprintln!(
                "VIOLATION (seed={:#x}, case={}, {}): {}\n  shrunk to: {}",
                v.seed, v.case, v.config, v.reason, v.shrunk
            );
        }
        eprintln!(
            "{} certification violation(s) over {} torture cases",
            report.violations.len(),
            report.cases
        );
        std::process::exit(1);
    }
    println!("  zero certification violations");
}
