//! Runtime experiments: Figure 11 (controller latency) and
//! Figure 16(b) (TE runtime vs new-tunnel ratio).

use crate::SEED;
use prete_core::algorithm1::{update_tunnels, TunnelUpdateConfig};
use prete_core::estimator::{ProbabilityEstimator, TrueConditionals};
use prete_core::prelude::*;
use prete_core::scenario::DegradationState;
use prete_sim::latency::{LatencyModel, PipelineTiming};
use prete_topology::{topologies, FiberId};
use serde::Serialize;
use std::time::Instant;

/// Figure 11 output: the stage breakdown plus the update-time curve.
#[derive(Debug, Clone, Serialize)]
pub struct Fig11 {
    /// Stage breakdown for a 2-tunnel degradation reaction.
    pub pipeline: PipelineTiming,
    /// Wall-clock TE computation measured on B4 (ms) — grounding the
    /// model's `te_compute_ms`.
    pub measured_te_ms: f64,
    /// (tunnel count, update seconds) — the Figure 11(b) line.
    pub update_curve: Vec<(usize, f64)>,
}

/// Builds the Figure 11 data, measuring the actual TE solve.
pub fn fig11() -> Fig11 {
    let net = topologies::b4();
    let model = FailureModel::new(&net, SEED);
    let truth = TrueConditionals::ground_truth(&net, &model, 100, SEED);
    let flows = topologies::flows_for(&net, 0.08, SEED);
    let tunnels = TunnelSet::initialize(&net, &flows, 4);
    let est = ProbabilityEstimator::prete(&model, &truth);
    let probs = est.probabilities(&DegradationState::single(FiberId(0)));
    let scenarios = ScenarioSet::enumerate(&probs, 1, 0.0);
    let problem = TeProblem::new(&net, &flows, &tunnels, &scenarios);
    let t0 = Instant::now();
    let _ = TeSolver::new(&problem)
        .beta(0.999)
        .method(SolveMethod::Heuristic)
        .solve()
        .expect("heuristic solve");
    let measured_te_ms = t0.elapsed().as_secs_f64() * 1000.0;

    // The stage breakdown uses the calibrated production-controller
    // latencies (the paper's Gurobi-on-32-cores numbers); the measured
    // simplex time on this machine is reported alongside.
    let lat = LatencyModel::default();
    Fig11 {
        pipeline: lat.pipeline(2),
        measured_te_ms,
        update_curve: (0..=20).step_by(4).map(|n| (n, lat.update_time_s(n))).collect(),
    }
}

/// One Figure 16(b) row.
#[derive(Debug, Clone, Serialize)]
pub struct RuntimeRow {
    /// Topology.
    pub topology: String,
    /// New-tunnel ratio.
    pub ratio: f64,
    /// Number of tunnels Algorithm 1 established.
    pub new_tunnels: usize,
    /// Measured TE computation time (s).
    pub te_compute_s: f64,
    /// Modelled tunnel-establishment time (s).
    pub tunnel_establish_s: f64,
    /// Total runtime (s).
    pub total_s: f64,
}

/// Figure 16(b): TE runtime as the new-tunnel ratio grows (tunnel
/// establishment dominates, per the §6.4 discussion).
pub fn fig16b(ratios: &[f64]) -> Vec<RuntimeRow> {
    let lat = LatencyModel::default();
    let mut rows = Vec::new();
    for net in [topologies::b4(), topologies::ibm()] {
        let model = FailureModel::new(&net, SEED);
        let truth = TrueConditionals::ground_truth(&net, &model, 100, SEED);
        let flows = topologies::flows_for(&net, 0.08, SEED);
        let tunnels = TunnelSet::initialize(&net, &flows, 4);
        let est = ProbabilityEstimator::prete(&model, &truth);
        // Degrade the busiest fiber.
        let fiber = net
            .fibers()
            .iter()
            .max_by_key(|f| tunnels.tunnels_on_fiber(&net, f.id))
            .map(|f| f.id)
            .unwrap_or(FiberId(0));
        for &ratio in ratios {
            let t0 = Instant::now();
            let mut ts = tunnels.clone();
            let created = update_tunnels(
                &net,
                &mut ts,
                fiber,
                TunnelUpdateConfig { ratio, max_new_per_flow: 40 },
            );
            let probs = est.probabilities(&DegradationState::single(fiber));
            let scenarios = ScenarioSet::enumerate(&probs, 1, 0.0);
            let problem = TeProblem::new(&net, &flows, &ts, &scenarios);
            let _ = TeSolver::new(&problem)
                .beta(0.999)
                .method(SolveMethod::Heuristic)
                .solve()
                .expect("heuristic solve");
            let te_compute_s = t0.elapsed().as_secs_f64();
            let tunnel_establish_s = lat.update_time_s(created.len());
            rows.push(RuntimeRow {
                topology: net.name.clone(),
                ratio,
                new_tunnels: created.len(),
                te_compute_s,
                tunnel_establish_s,
                total_s: te_compute_s + tunnel_establish_s,
            });
        }
    }
    rows
}

/// One solver-benchmark configuration, measured over the whole epoch
/// workload.
#[derive(Debug, Clone, Serialize)]
pub struct SolverBenchRow {
    /// LP engine the row was measured with.
    pub backend: SolverBackend,
    /// Configuration label (`serial-cold` or `warm`).
    pub config: String,
    /// Whether a persistent warm-start [`BasisCache`] was attached.
    pub warm: bool,
    /// Total wall time across all epochs (ms), including problem
    /// construction.
    pub total_ms: f64,
    /// `total_ms / epochs`.
    pub mean_epoch_ms: f64,
    /// Worst expected loss over the workload (identical across
    /// configurations when warm starting lands on the same vertex).
    pub max_loss: f64,
    /// Merged solver counters across all epochs.
    pub stats: SolverStats,
}

/// The solver benchmark: cold vs warm-started timings on
/// the WAN topology, serialized to `BENCH_solver.json` by the
/// `bench_solver` binary.
#[derive(Debug, Clone, Serialize)]
pub struct SolverBench {
    /// Topology name.
    pub topology: String,
    /// Number of controller epochs simulated per configuration.
    pub epochs: usize,
    /// One row per (backend, configuration) pair.
    pub rows: Vec<SolverBenchRow>,
    /// `serial-cold` total over `warm` total: the end-to-end speedup of
    /// the warm-started solver (sparse rows when present, else the
    /// first benchmarked backend).
    pub warm_speedup: f64,
    /// Dense `serial-cold` total over sparse `serial-cold` total — the
    /// revised-engine speedup. `None` unless both backends ran.
    pub sparse_speedup: Option<f64>,
}

/// Deterministic per-(epoch, flow) demand jitter in `[0.98, 1.02]` —
/// a splitmix-style hash so the workload is identical across
/// configurations and runs without an RNG dependency.
fn demand_jitter(epoch: usize, flow: usize) -> f64 {
    let mut h = (epoch as u64 + 1)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(flow as u64)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 31;
    let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
    1.0 + 0.02 * (2.0 * unit - 1.0)
}

/// Benchmarks the TE solver on the WAN topology over `epochs`
/// controller epochs with slightly jittered demands, in two
/// configurations: cold (no cache) and warm (a persistent
/// [`BasisCache`] carried across epochs — the controller's steady
/// state).
pub fn bench_solver(epochs: usize) -> SolverBench {
    bench_solver_on(&topologies::twan(), epochs)
}

/// [`bench_solver`] on an arbitrary topology — the unit tests use B4 so
/// the debug-mode workload stays in seconds; the WAN run is
/// release-only. Measures the default (sparse) backend only; use
/// [`bench_solver_backends`] for the dense-vs-sparse comparison.
pub fn bench_solver_on(net: &prete_topology::Network, epochs: usize) -> SolverBench {
    bench_solver_backends(net, epochs, &[SolverBackend::SparseRevised])
}

/// [`bench_solver`] over an explicit backend list with the default
/// (Dantzig / product-form) sparse configuration; see
/// [`bench_solver_matrix`] for the full signature.
pub fn bench_solver_backends(
    net: &prete_topology::Network,
    epochs: usize,
    backends: &[SolverBackend],
) -> SolverBench {
    bench_solver_matrix(
        net,
        epochs,
        backends,
        Pricing::default(),
        EtaUpdate::default(),
        ColdStart::default(),
    )
}

/// The per-epoch workload every benchmark configuration replays:
/// jittered demands over a fixed tunnel set and single-cut scenario
/// enumeration.
struct Workload {
    base_flows: Vec<Flow>,
    tunnels: TunnelSet,
    scenarios: ScenarioSet,
    /// Accounting when the scenarios came from the budgeted streaming
    /// enumerator — threaded into each solve's [`SolverStats`].
    enum_stats: Option<EnumerationStats>,
}

fn workload(net: &prete_topology::Network) -> Workload {
    let model = FailureModel::new(net, SEED);
    let base_flows = topologies::flows_for(net, 0.08, SEED);
    let tunnels = TunnelSet::initialize(net, &base_flows, 4);
    let probs: Vec<f64> = net.fibers().iter().map(|f| model.p_cut(f.id)).collect();
    // Single-cut scenarios with the negligible tail dropped: keeps the
    // LP at WAN scale while the smoke benchmark stays in CI budget.
    let scenarios = ScenarioSet::enumerate(&probs, 1, 1e-4);
    Workload { base_flows, tunnels, scenarios, enum_stats: None }
}

/// [`workload`] through the budgeted streaming enumerator: k-cut
/// scenarios under `budget` instead of the exhaustive single-cut set.
/// The traffic matrix is thinner than the single-cut benchmark's
/// (2 % of site pairs vs 8 %): the streaming benchmark stresses the
/// scenario dimension, and k-cut scenario counts grow combinatorially
/// while the flow dimension is already covered by the classic rows.
fn workload_budgeted(net: &prete_topology::Network, budget: &ScenarioBudget) -> Workload {
    let model = FailureModel::new(net, SEED);
    let base_flows = topologies::flows_for(net, 0.02, SEED);
    let tunnels = TunnelSet::initialize(net, &base_flows, 4);
    let probs: Vec<f64> = net.fibers().iter().map(|f| model.p_cut(f.id)).collect();
    let (scenarios, stats) = ScenarioSet::enumerate_with(&probs, budget);
    Workload { base_flows, tunnels, scenarios, enum_stats: Some(stats) }
}

#[allow(clippy::too_many_arguments)]
fn run_config(
    net: &prete_topology::Network,
    wl: &Workload,
    epochs: usize,
    backend: SolverBackend,
    config: &str,
    warm: bool,
    pricing: Pricing,
    eta_update: EtaUpdate,
    cold_start: ColdStart,
) -> SolverBenchRow {
    let mut cache = BasisCache::new();
    let mut stats = SolverStats::default();
    let mut max_loss = 0.0f64;
    let t0 = Instant::now();
    for epoch in 0..epochs {
        let mut flows = wl.base_flows.clone();
        for (i, f) in flows.iter_mut().enumerate() {
            f.demand_gbps *= demand_jitter(epoch, i);
        }
        let problem = TeProblem::new(net, &flows, &wl.tunnels, &wl.scenarios);
        let mut solver = TeSolver::new(&problem)
            .beta(0.999)
            .method(SolveMethod::Heuristic)
            .backend(backend)
            .pricing(pricing)
            .eta_update(eta_update)
            .cold_start(cold_start);
        if let Some(st) = wl.enum_stats.as_ref() {
            solver = solver.scenario_stats(st);
        }
        if warm {
            solver = solver.warm_cache(&mut cache);
        }
        let (sol, s) = solver.solve_with_stats().expect("heuristic solve");
        stats.merge(&s);
        max_loss = max_loss.max(sol.max_loss);
    }
    let total_ms = t0.elapsed().as_secs_f64() * 1000.0;
    SolverBenchRow {
        backend,
        config: config.into(),
        warm,
        total_ms,
        mean_epoch_ms: total_ms / epochs.max(1) as f64,
        max_loss,
        stats,
    }
}

/// One sparse `serial-cold` row under an explicit pricing /
/// eta-update / cold-start combination — the building block of the
/// polish-speedup regression gate (the `--min-polish-speedup` flag of
/// `bench_solver`), which compares the legacy
/// Dantzig/product-form/two-phase configuration against
/// Forrest–Tomlin + devex + dual cold starts on the same workload in
/// the same process.
pub fn bench_serial_cold_row(
    net: &prete_topology::Network,
    epochs: usize,
    pricing: Pricing,
    eta_update: EtaUpdate,
    cold_start: ColdStart,
) -> SolverBenchRow {
    let wl = workload(net);
    run_config(
        net,
        &wl,
        epochs,
        SolverBackend::SparseRevised,
        "serial-cold",
        false,
        pricing,
        eta_update,
        cold_start,
    )
}

/// [`bench_solver`] over an explicit backend list and sparse-engine
/// configuration: each backend runs the full configuration grid, and
/// when both engines are present the dense-vs-sparse `serial-cold`
/// ratio lands in [`SolverBench::sparse_speedup`] (CI's
/// engine-regression gate). `pricing`/`eta_update` select the sparse
/// engine's rules (the dense tableau ignores them) and are recorded in
/// each row's [`SolverStats`]; `cold_start` picks the sparse engine's
/// cold-solve strategy for every row.
pub fn bench_solver_matrix(
    net: &prete_topology::Network,
    epochs: usize,
    backends: &[SolverBackend],
    pricing: Pricing,
    eta_update: EtaUpdate,
    cold_start: ColdStart,
) -> SolverBench {
    let wl = workload(net);
    let run = |backend: SolverBackend, config: &str, warm: bool| {
        run_config(net, &wl, epochs, backend, config, warm, pricing, eta_update, cold_start)
    };

    let mut rows = Vec::with_capacity(2 * backends.len());
    for &backend in backends {
        rows.push(run(backend, "serial-cold", false));
        rows.push(run(backend, "warm", true));
    }
    let find = |backend: SolverBackend, config: &str| {
        rows.iter().find(|r| r.backend == backend && r.config == config)
    };
    let speedup_backend = if backends.contains(&SolverBackend::SparseRevised) {
        SolverBackend::SparseRevised
    } else {
        backends[0]
    };
    let warm_speedup = {
        let cold = find(speedup_backend, "serial-cold").expect("serial row");
        let warm = find(speedup_backend, "warm").expect("warm row");
        cold.total_ms / warm.total_ms.max(1e-9)
    };
    let sparse_speedup = match (
        find(SolverBackend::DenseTableau, "serial-cold"),
        find(SolverBackend::SparseRevised, "serial-cold"),
    ) {
        (Some(dense), Some(sparse)) => Some(dense.total_ms / sparse.total_ms.max(1e-9)),
        _ => None,
    };
    SolverBench { topology: net.name.clone(), epochs, rows, warm_speedup, sparse_speedup }
}

/// The solver benchmark over the budgeted streaming scenario path:
/// k-cut enumeration under `budget` (bounded buffer, mass-floor
/// pruning, optional tail sampling), solved cold and warm. Returns
/// the bench plus the enumeration accounting — `peak_buffered` is the CI gate that streaming evaluation never
/// materializes the candidate space.
pub fn bench_solver_streaming(
    net: &prete_topology::Network,
    epochs: usize,
    budget: &ScenarioBudget,
) -> (SolverBench, EnumerationStats) {
    let wl = workload_budgeted(net, budget);
    let stats = wl.enum_stats.expect("budgeted workload carries accounting");
    let run = |config: &str, warm: bool| {
        run_config(
            net,
            &wl,
            epochs,
            SolverBackend::SparseRevised,
            config,
            warm,
            Pricing::default(),
            EtaUpdate::default(),
            ColdStart::default(),
        )
    };
    let rows = vec![run("serial-cold", false), run("warm", true)];
    let warm_speedup = rows[0].total_ms / rows[1].total_ms.max(1e-9);
    let bench =
        SolverBench { topology: net.name.clone(), epochs, rows, warm_speedup, sparse_speedup: None };
    (bench, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_grows_with_ratio() {
        let rows = fig16b(&[0.0, 1.0, 3.0]);
        let b4: Vec<&RuntimeRow> = rows.iter().filter(|r| r.topology == "B4").collect();
        assert_eq!(b4.len(), 3);
        assert_eq!(b4[0].new_tunnels, 0);
        assert!(b4[1].new_tunnels > 0);
        assert!(b4[2].new_tunnels >= b4[1].new_tunnels);
        assert!(b4[2].total_s >= b4[1].total_s);
        // Ratio 0 keeps runtime under a second (paper: "< 1 s if we do
        // not establish any tunnels").
        assert!(b4[0].total_s < 3.0, "{}", b4[0].total_s);
    }

    #[test]
    fn solver_bench_rows_are_consistent() {
        // B4 keeps the debug-mode test in seconds; the binary runs the
        // WAN-scale version in release mode.
        let b = bench_solver_on(&topologies::b4(), 3);
        assert_eq!(b.topology, "B4");
        assert_eq!(b.rows.len(), 2);
        let warm = &b.rows[1];
        assert!(warm.warm && warm.config == "warm");
        // Epochs 2.. restore the epoch-1 basis: at least one warm hit
        // per subsequent epoch.
        assert!(warm.stats.warm_hits >= 2, "warm hits: {}", warm.stats.warm_hits);
        // All configurations solve the same workload to the same
        // optimum (vertex may differ; the objective may not).
        for r in &b.rows[1..] {
            assert!(
                (r.max_loss - b.rows[0].max_loss).abs() < 1e-6,
                "{} max_loss {} vs serial {}",
                r.config,
                r.max_loss,
                b.rows[0].max_loss
            );
        }
        assert!(b.warm_speedup > 0.0);
        // Single-backend run: no dense-vs-sparse ratio to report.
        assert!(b.sparse_speedup.is_none());
    }

    #[test]
    fn backend_comparison_rows_agree_on_the_optimum() {
        let b = bench_solver_backends(
            &topologies::b4(),
            2,
            &[SolverBackend::DenseTableau, SolverBackend::SparseRevised],
        );
        assert_eq!(b.rows.len(), 4);
        let dense = b.rows.iter().filter(|r| r.backend == SolverBackend::DenseTableau);
        let sparse: Vec<_> =
            b.rows.iter().filter(|r| r.backend == SolverBackend::SparseRevised).collect();
        assert_eq!(sparse.len(), 2);
        // Both engines land on the same objective in every configuration.
        for (d, s) in dense.zip(&sparse) {
            assert_eq!(d.config, s.config);
            assert!(
                (d.max_loss - s.max_loss).abs() < 1e-6,
                "{}: dense {} vs sparse {}",
                d.config,
                d.max_loss,
                s.max_loss
            );
        }
        // The sparse engine actually ran sparse (no silent fallback).
        assert!(sparse.iter().all(|r| r.stats.dense_fallbacks == 0));
        assert!(b.sparse_speedup.is_some());
    }

    #[test]
    fn streaming_bench_bounds_the_buffer_and_threads_accounting() {
        let budget = ScenarioBudget {
            max_cuts: 2,
            mass_floor: 0.0,
            max_scenarios: 24,
            tail_samples: 4,
            seed: SEED,
        };
        let (b, st) = bench_solver_streaming(&topologies::b4(), 2, &budget);
        assert_eq!(b.rows.len(), 2);
        // The streaming guarantee and the mass invariant.
        assert!(st.peak_buffered <= budget.max_scenarios + 1, "peak {}", st.peak_buffered);
        assert!(st.scenarios_pruned > 0, "2-cut B4 under a 24-scenario cap must prune");
        assert!(st.mass_gap() < 1e-9, "gap {}", st.mass_gap());
        // Enumeration accounting lands in every epoch's solver stats
        // (merged additively across epochs, like other work units).
        assert_eq!(b.rows[0].stats.scenarios_pruned, st.scenarios_pruned * 2);
        assert!((b.rows[0].stats.tail_mass - st.truncated_tail).abs() < 1e-12);
        // Cold and warm rows agree on the optimum.
        assert!((b.rows[0].max_loss - b.rows[1].max_loss).abs() < 1e-6);
    }

    #[test]
    fn fig11_breakdown_sane() {
        let f = fig11();
        assert!(f.measured_te_ms < 5_000.0, "TE solve took {} ms", f.measured_te_ms);
        assert_eq!(f.update_curve.first(), Some(&(0, 0.0)));
        let (_, t20) = *f.update_curve.last().unwrap();
        assert!((4.0..=6.0).contains(&t20));
    }
}
