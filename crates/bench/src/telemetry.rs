//! Streaming-telemetry experiments behind the `telemetry` binary.
//!
//! [`telemetry_fleet`] drives the same mixed B4/IBM tenant fleet as
//! the fleet chaos soak — every tenant with an SLO tracker attached —
//! for a fixed number of epochs under the deterministic logical clock,
//! and returns the [`FleetReport`] whose embedded
//! [`TelemetrySnapshot`](prete_obs::TelemetrySnapshot) the binary
//! exports as Prometheus text and JSON lines. Because every quantity
//! the snapshot aggregates is a pure function of the run's inputs, the
//! exports are byte-identical across repeat runs — the binary's
//! `--check-determinism` mode asserts exactly that.
//!
//! [`bench_diff`] compares two `BENCH_solver.json` files row by row
//! (keyed on `(backend, config)`) and flags polish-time regressions
//! beyond a caller-set percentage — CI's solver-performance gate. The
//! comparison parses generic JSON rather than the typed bench record,
//! so a committed baseline written by an older schema (missing
//! newly-added counters) still diffs cleanly.

use crate::chaos::{mixed_tenant_leaves, tenant_specs};
use prete_obs::SloSpec;
use prete_sim::{CheckpointError, Fleet, FleetConfig, FleetReport};
use serde::Value;
use std::fmt::Write as _;

/// Shape of one telemetry fleet run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryRunConfig {
    /// Tenants in the fleet (alternating B4/IBM topologies).
    pub tenants: usize,
    /// Epochs each tenant completes.
    pub epochs: u64,
    /// Master seed for per-tenant models, flows and seed streams.
    pub seed: u64,
    /// Fraction of node pairs carrying a flow.
    pub flow_frac: f64,
}

impl Default for TelemetryRunConfig {
    fn default() -> Self {
        Self { tenants: 4, epochs: 6, seed: crate::SEED, flow_frac: 0.05 }
    }
}

/// Runs one telemetry fleet: every tenant gets the default (fully
/// lenient) [`SloSpec`], so a clean run exports SLO status with zero
/// alerts — the telemetry-smoke invariant. Returns the fleet report
/// with its embedded telemetry snapshot.
pub fn telemetry_fleet(cfg: &TelemetryRunConfig) -> Result<FleetReport, CheckpointError> {
    let leaves = mixed_tenant_leaves(cfg.tenants, cfg.flow_frac, cfg.seed);
    let specs = tenant_specs(&leaves, 5)
        .into_iter()
        .map(|s| s.with_slo(SloSpec::default()))
        .collect();
    let mut fleet = Fleet::new(specs, FleetConfig::default())?;
    // A clean fleet finishes in exactly `epochs` rounds; the cap
    // guards against a quarantined tenant pinning the loop open.
    for _ in 0..cfg.epochs.saturating_mul(2).saturating_add(4) {
        let pending = (0..fleet.len()).any(|i| {
            fleet.quarantine_reason(i).is_none() && fleet.tenant_epoch(i) < cfg.epochs
        });
        if !pending {
            break;
        }
        fleet.run_round(Some(cfg.epochs))?;
    }
    Ok(fleet.report())
}

/// Both telemetry wire formats for one fleet report.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryExport {
    /// Prometheus text exposition.
    pub prom: String,
    /// JSON-lines stream.
    pub jsonl: String,
}

/// Renders a fleet report's telemetry into both wire formats,
/// including the fleet recorder's counters/gauges/histograms.
pub fn export(report: &FleetReport) -> TelemetryExport {
    TelemetryExport {
        prom: report.telemetry.to_prometheus(Some(&report.run)),
        jsonl: report.telemetry.to_jsonl(Some(&report.run)),
    }
}

/// One `(backend, config)` row of a bench comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDiffRow {
    /// LP backend label from the bench record.
    pub backend: String,
    /// Row configuration label (e.g. `serial-cold`).
    pub config: String,
    /// Baseline polish time, ms.
    pub old_polish_ms: f64,
    /// Candidate polish time, ms.
    pub new_polish_ms: f64,
    /// Signed change in percent (positive = slower).
    pub delta_pct: f64,
    /// Whether the row regressed past the allowed percentage.
    pub regressed: bool,
}

/// Outcome of diffing two `BENCH_solver.json` files.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDiff {
    /// Rows present in both files, in candidate order.
    pub rows: Vec<BenchDiffRow>,
    /// Candidate rows with no baseline counterpart (new configurations
    /// are reported, never failed).
    pub unmatched: Vec<String>,
    /// The regression gate the diff ran under, in percent.
    pub max_polish_regress_pct: f64,
}

impl BenchDiff {
    /// Rows that regressed past the gate.
    pub fn regressions(&self) -> Vec<&BenchDiffRow> {
        self.rows.iter().filter(|r| r.regressed).collect()
    }

    /// Text table of the comparison.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Bench diff (gate: polish_ms regression > {:.1}% fails)",
            self.max_polish_regress_pct
        );
        let _ = writeln!(
            s,
            "  {:<14} {:<16} {:>12} {:>12} {:>9}",
            "backend", "config", "old polish", "new polish", "delta"
        );
        for r in &self.rows {
            let _ = writeln!(
                s,
                "  {:<14} {:<16} {:>12.2} {:>12.2} {:>+8.1}%{}",
                r.backend,
                r.config,
                r.old_polish_ms,
                r.new_polish_ms,
                r.delta_pct,
                if r.regressed { "  REGRESSED" } else { "" }
            );
        }
        for u in &self.unmatched {
            let _ = writeln!(s, "  {u}: no baseline row (skipped)");
        }
        s
    }
}

/// Numeric coercion across the JSON integer/float variants.
fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// Extracts `(backend, config, polish_ms)` per row of one bench file.
fn bench_rows(json: &str, label: &str) -> Result<Vec<(String, String, f64)>, String> {
    let root = serde_json::parse(json).map_err(|e| format!("{label}: {e}"))?;
    let Some(Value::Seq(rows)) = root.get("rows") else {
        return Err(format!("{label}: no `rows` array"));
    };
    rows.iter()
        .enumerate()
        .map(|(i, row)| {
            let backend = row
                .get("backend")
                .and_then(as_str)
                .ok_or_else(|| format!("{label}: row {i} missing `backend`"))?;
            let config = row
                .get("config")
                .and_then(as_str)
                .ok_or_else(|| format!("{label}: row {i} missing `config`"))?;
            let polish = row
                .get("stats")
                .and_then(|s| s.get("polish_ms"))
                .and_then(as_f64)
                .ok_or_else(|| format!("{label}: row {i} missing `stats.polish_ms`"))?;
            Ok((backend.to_string(), config.to_string(), polish))
        })
        .collect()
}

/// Reads one bench baseline file, mapping I/O failures to an
/// operator-facing message. A missing `OLD` baseline is the common
/// case on a fresh branch — the caller should exit with the usage
/// code, not panic.
pub fn read_bench_file(label: &str, path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| {
        format!(
            "cannot read {label} baseline {path}: {e}\n\
             (pass an existing BENCH_solver.json, or skip the diff \
             when no prior baseline exists)"
        )
    })
}

/// Diffs two `BENCH_solver.json` payloads. A candidate row regresses
/// when its polish time exceeds the baseline's by more than
/// `max_polish_regress_pct` percent; baselines too small to yield a
/// meaningful percentage (under a millisecond) never flag.
pub fn bench_diff(
    old_json: &str,
    new_json: &str,
    max_polish_regress_pct: f64,
) -> Result<BenchDiff, String> {
    let old = bench_rows(old_json, "baseline")?;
    let new = bench_rows(new_json, "candidate")?;
    let mut rows = Vec::new();
    let mut unmatched = Vec::new();
    for (backend, config, new_polish) in new {
        let Some((_, _, old_polish)) = old
            .iter()
            .find(|(b, c, _)| *b == backend && *c == config)
        else {
            unmatched.push(format!("{backend}/{config}"));
            continue;
        };
        let old_polish = *old_polish;
        let delta_pct = if old_polish >= 1.0 {
            (new_polish - old_polish) / old_polish * 100.0
        } else {
            0.0
        };
        rows.push(BenchDiffRow {
            backend,
            config,
            old_polish_ms: old_polish,
            new_polish_ms: new_polish,
            delta_pct,
            regressed: delta_pct > max_polish_regress_pct,
        });
    }
    Ok(BenchDiff { rows, unmatched, max_polish_regress_pct })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_json(polish: f64) -> String {
        format!(
            r#"{{"topology":"B4","epochs":2,"rows":[
                {{"backend":"SparseRevised","config":"serial-cold",
                  "stats":{{"polish_ms":{polish},"pivots":100}}}},
                {{"backend":"SparseRevised","config":"warm",
                  "stats":{{"polish_ms":0.2,"pivots":50}}}}]}}"#
        )
    }

    #[test]
    fn self_diff_is_clean_and_doubled_polish_regresses() {
        let base = bench_json(100.0);
        let clean = bench_diff(&base, &base, 15.0).unwrap();
        assert!(clean.regressions().is_empty(), "{:?}", clean.rows);
        assert_eq!(clean.rows.len(), 2);
        assert_eq!(clean.unmatched, Vec::<String>::new());

        let slow = bench_json(200.0);
        let diff = bench_diff(&base, &slow, 15.0).unwrap();
        let regs = diff.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].config, "serial-cold");
        assert!((regs[0].delta_pct - 100.0).abs() < 1e-9);
        assert!(diff.render().contains("REGRESSED"));
    }

    #[test]
    fn sub_millisecond_baselines_and_new_rows_never_flag() {
        let base = r#"{"rows":[{"backend":"b","config":"tiny","stats":{"polish_ms":0.001}}]}"#;
        let new = r#"{"rows":[
            {"backend":"b","config":"tiny","stats":{"polish_ms":0.5}},
            {"backend":"b","config":"fresh","stats":{"polish_ms":9.0}}]}"#;
        let diff = bench_diff(base, new, 15.0).unwrap();
        assert!(diff.regressions().is_empty(), "{:?}", diff.rows);
        assert_eq!(diff.unmatched, vec!["b/fresh".to_string()]);
    }

    #[test]
    fn malformed_bench_files_error_with_context() {
        assert!(bench_diff("not json", "{}", 15.0).unwrap_err().contains("baseline"));
        assert!(bench_diff(r#"{"rows":[]}"#, "{}", 15.0).unwrap_err().contains("candidate"));
        let bad_row = r#"{"rows":[{"config":"x","stats":{"polish_ms":1.0}}]}"#;
        assert!(bench_diff(bad_row, bad_row, 15.0).unwrap_err().contains("backend"));
    }

    #[test]
    fn missing_baseline_file_errors_instead_of_panicking() {
        let err = read_bench_file("old", "/nonexistent/BENCH_solver.json").unwrap_err();
        assert!(err.contains("old baseline"), "{err}");
        assert!(err.contains("/nonexistent/BENCH_solver.json"), "{err}");
        assert!(err.contains("skip the diff"), "{err}");
    }

    #[test]
    fn committed_bench_baseline_self_compares_clean() {
        // The committed baseline predates some SolverStats counters;
        // the generic-JSON parser must still read it.
        let committed = include_str!("../../../BENCH_solver.json");
        let diff = bench_diff(committed, committed, 15.0).unwrap();
        assert!(!diff.rows.is_empty());
        assert!(diff.regressions().is_empty());
    }

    #[test]
    fn telemetry_fleet_exports_deterministically() {
        let cfg = TelemetryRunConfig { tenants: 2, epochs: 2, ..TelemetryRunConfig::default() };
        let report = telemetry_fleet(&cfg).unwrap();
        assert_eq!(report.telemetry.tenants.len(), 2);
        for t in &report.telemetry.tenants {
            assert!(t.slo.is_some(), "{} missing SLO status", t.tenant);
            assert!(t.alerts.is_empty(), "spurious alerts: {:?}", t.alerts);
            assert!(!t.series.is_empty());
        }
        let e1 = export(&report);
        assert!(e1.prom.contains("prete_ts_count"));
        assert!(e1.jsonl.lines().count() > 0);
        // Byte-identical across a repeat run.
        let e2 = export(&telemetry_fleet(&cfg).unwrap());
        assert_eq!(e1, e2);
    }
}
